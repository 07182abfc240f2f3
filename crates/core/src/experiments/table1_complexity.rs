//! Table 1: communication-complexity comparison of the three protocols.
//!
//! The paper states the asymptotics analytically; we *measure* bytes on
//! the wire while scaling (a) the committee size n at fixed document size
//! and (b) the document size d at fixed n, then fit the growth exponents
//! by least squares on the log–log series. The document-size exponent is
//! 1 for all three designs; the committee-size exponent separates the
//! n²d (Current, Ours) from the n³d (Synchronous) designs.

use crate::protocols::ProtocolKind;
#[cfg(test)]
use crate::runner::run;
use crate::runner::{sweep, Scenario, SweepJob};

/// One measured cell.
#[derive(Clone, Debug)]
pub struct Table1Cell {
    /// Protocol label.
    pub protocol: String,
    /// Committee size.
    pub n: usize,
    /// Relay count (proxy for document size d).
    pub relays: u64,
    /// Total bytes enqueued on all uplinks.
    pub total_bytes: u64,
}

/// The measured table plus fitted exponents.
#[derive(Clone, Debug)]
pub struct Table1Result {
    /// Raw measurements.
    pub cells: Vec<Table1Cell>,
    /// Fitted exponent of n (document-dominated regime) per protocol.
    pub n_exponent: Vec<(String, f64)>,
    /// Fitted exponent of d per protocol.
    pub d_exponent: Vec<(String, f64)>,
    /// The paper's analytic claims for reference.
    pub paper_claims: Vec<(String, String)>,
}

fn cell_scenario(n: usize, relays: u64, seed: u64) -> Scenario {
    Scenario {
        seed,
        n,
        relays,
        ..Scenario::default()
    }
}

/// Single-cell measurement, kept for the spot-check tests below.
#[cfg(test)]
fn measure(protocol: ProtocolKind, n: usize, relays: u64, seed: u64) -> u64 {
    run(protocol, &cell_scenario(n, relays, seed)).total_tx_bytes
}

/// Least-squares slope of ln(y) on ln(x).
fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(x, y) in points {
        let (lx, ly) = (x.ln(), y.ln());
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Runs the measurements and fits. All `protocol × (n, d)` cells are
/// independent simulations, so the whole table is one parallel sweep.
pub fn run_experiment(seed: u64) -> Table1Result {
    let ns = [4usize, 7, 10, 13];
    let relay_counts = [500u64, 1_000, 2_000, 4_000];

    // One flat batch: per protocol, first the n-scaling cells at fixed
    // d, then the d-scaling cells at fixed n = 9.
    let mut shapes = Vec::new();
    for protocol in ProtocolKind::ALL {
        for &n in &ns {
            shapes.push((protocol, n, 1_000u64));
        }
        for &relays in &relay_counts {
            shapes.push((protocol, 9usize, relays));
        }
    }
    let jobs: Vec<SweepJob> = shapes
        .iter()
        .map(|&(protocol, n, relays)| SweepJob::new(protocol, cell_scenario(n, relays, seed)))
        .collect();
    let measured: Vec<u64> = sweep(&jobs)
        .into_iter()
        .map(|report| report.total_tx_bytes)
        .collect();

    let mut cells = Vec::new();
    let mut n_exponent = Vec::new();
    let mut d_exponent = Vec::new();
    let mut results = shapes.iter().zip(measured);
    for protocol in ProtocolKind::ALL {
        let mut n_points = Vec::new();
        for _ in &ns {
            let (&(_, n, relays), bytes) = results.next().expect("n cell");
            cells.push(Table1Cell {
                protocol: protocol.to_string(),
                n,
                relays,
                total_bytes: bytes,
            });
            n_points.push((n as f64, bytes as f64));
        }
        n_exponent.push((protocol.to_string(), loglog_slope(&n_points)));

        let mut d_points = Vec::new();
        for _ in &relay_counts {
            let (&(_, n, relays), bytes) = results.next().expect("d cell");
            cells.push(Table1Cell {
                protocol: protocol.to_string(),
                n,
                relays,
                total_bytes: bytes,
            });
            d_points.push((
                crate::calibration::vote_size_bytes(relays) as f64,
                bytes as f64,
            ));
        }
        d_exponent.push((protocol.to_string(), loglog_slope(&d_points)));
    }

    Table1Result {
        cells,
        n_exponent,
        d_exponent,
        paper_claims: vec![
            (
                "Current".into(),
                "Bounded synchrony, insecure [23], O(n²d + n²κ)".into(),
            ),
            (
                "Synchronous".into(),
                "Bounded synchrony, interactive consistency, O(n³d + n⁴κ)".into(),
            ),
            (
                "Ours".into(),
                "Partial synchrony, IC under partial synchrony, O(n²d + n⁴κ)".into(),
            ),
        ],
    }
}

/// Renders the table.
pub fn render(result: &Table1Result) -> String {
    let mut out = String::new();
    out.push_str("=== Table 1: communication complexity (measured) ===\n\n");
    out.push_str(&format!(
        "{:<12} {:>4} {:>7} {:>14}\n",
        "protocol", "n", "relays", "bytes on wire"
    ));
    for cell in &result.cells {
        out.push_str(&format!(
            "{:<12} {:>4} {:>7} {:>14}\n",
            cell.protocol, cell.n, cell.relays, cell.total_bytes
        ));
    }
    out.push_str("\nfitted growth exponents (document-dominated regime):\n");
    for ((p, ne), (_, de)) in result.n_exponent.iter().zip(&result.d_exponent) {
        out.push_str(&format!("  {p:<12} bytes ~ n^{ne:.2} · d^{de:.2}\n"));
    }
    out.push_str("\npaper claims:\n");
    for (p, claim) in &result.paper_claims {
        out.push_str(&format!("  {p:<12} {claim}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loglog_slope_recovers_powers() {
        let quadratic: Vec<(f64, f64)> = (2..10).map(|x| (x as f64, (x * x) as f64)).collect();
        assert!((loglog_slope(&quadratic) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn synchronous_scales_one_power_worse_in_n() {
        // Compare bytes at n = 4 vs n = 13 with documents dominating.
        let cur4 = measure(ProtocolKind::Current, 4, 1_000, 3) as f64;
        let cur13 = measure(ProtocolKind::Current, 13, 1_000, 3) as f64;
        let syn4 = measure(ProtocolKind::Synchronous, 4, 1_000, 3) as f64;
        let syn13 = measure(ProtocolKind::Synchronous, 13, 1_000, 3) as f64;
        let current_growth = cur13 / cur4;
        let sync_growth = syn13 / syn4;
        assert!(
            sync_growth > current_growth * 2.0,
            "sync should grow ≈ n× faster: {current_growth:.1} vs {sync_growth:.1}"
        );
    }

    #[test]
    fn document_scaling_is_linear() {
        let a = measure(ProtocolKind::Icps, 9, 1_000, 3) as f64;
        let b = measure(ProtocolKind::Icps, 9, 4_000, 3) as f64;
        // d(4000)/d(1000) ≈ 3.9; bytes should scale by roughly that.
        let ratio = b / a;
        assert!((2.5..6.0).contains(&ratio), "ratio {ratio}");
    }
}
