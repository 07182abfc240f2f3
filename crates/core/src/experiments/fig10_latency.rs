//! Fig. 10: consensus-generation latency of the three protocols across
//! bandwidth settings (50/20/10/1/0.5 Mbit/s) and relay counts
//! (1 000 – 10 000).
//!
//! Lock-step protocols report the paper's "network time" (per-round
//! processing time summed); failures are reported as such (the thick
//! vertical lines in the figure). The ICPS protocol reports its actual
//! completion time, since it has no lock-step rounds.

use crate::protocols::ProtocolKind;
use crate::runner::{run, sweep, Scenario, SweepJob};

/// The protocols and bandwidths of the figure.
pub const BANDWIDTHS_MBPS: [f64; 5] = [50.0, 20.0, 10.0, 1.0, 0.5];

/// One measurement.
#[derive(Clone, Debug)]
pub struct Fig10Row {
    /// Link bandwidth, Mbit/s.
    pub bandwidth_mbps: f64,
    /// Relay count.
    pub relays: u64,
    /// Protocol label (`Current`/`Synchronous`/`Ours`).
    pub protocol: String,
    /// Latency in seconds, `None` on failure.
    pub latency_secs: Option<f64>,
}

/// The sweep result.
#[derive(Clone, Debug)]
pub struct Fig10Result {
    /// All measurements.
    pub rows: Vec<Fig10Row>,
}

/// The scenario of one figure cell.
fn cell_scenario(bandwidth_mbps: f64, relays: u64, seed: u64) -> Scenario {
    Scenario {
        seed,
        relays,
        bandwidth_bps: bandwidth_mbps * 1e6,
        ..Scenario::default()
    }
}

/// Runs one cell of the figure.
pub fn measure(protocol: ProtocolKind, bandwidth_mbps: f64, relays: u64, seed: u64) -> Option<f64> {
    let report = run(protocol, &cell_scenario(bandwidth_mbps, relays, seed));
    report.success.then_some(report.network_time_secs).flatten()
}

/// Runs the full sweep in parallel. `step` controls the relay-count
/// granularity (1 000 for the paper's resolution).
///
/// # Panics
///
/// Panics if `step` is zero.
pub fn run_experiment(seed: u64, step: u64) -> Fig10Result {
    assert!(step > 0, "the relay-count step must be positive");
    let mut cells = Vec::new();
    let mut jobs = Vec::new();
    for &bandwidth_mbps in &BANDWIDTHS_MBPS {
        for relays in (step.max(1_000)..=10_000).step_by(step as usize) {
            for protocol in ProtocolKind::ALL {
                cells.push((bandwidth_mbps, relays, protocol));
                jobs.push(SweepJob::new(
                    protocol,
                    cell_scenario(bandwidth_mbps, relays, seed),
                ));
            }
        }
    }
    let rows = cells
        .into_iter()
        .zip(sweep(&jobs))
        .map(|((bandwidth_mbps, relays, protocol), report)| Fig10Row {
            bandwidth_mbps,
            relays,
            protocol: protocol.to_string(),
            latency_secs: report.success.then_some(report.network_time_secs).flatten(),
        })
        .collect();
    Fig10Result { rows }
}

/// Renders the figure as per-bandwidth tables.
pub fn render(result: &Fig10Result) -> String {
    let mut out = String::new();
    out.push_str("=== Fig. 10: consensus latency vs. relays, per bandwidth ===\n");
    out.push_str("(FAIL marks the thick vertical failure lines of the figure)\n");
    for &bw in &BANDWIDTHS_MBPS {
        let cells: Vec<&Fig10Row> = result
            .rows
            .iter()
            .filter(|r| r.bandwidth_mbps == bw)
            .collect();
        if cells.is_empty() {
            continue;
        }
        out.push_str(&format!("\n--- {bw} Mbit/s ---\n"));
        out.push_str(&format!(
            "{:>8} {:>14} {:>14} {:>14}\n",
            "relays", "Current (s)", "Synchronous (s)", "Ours (s)"
        ));
        let mut relay_counts: Vec<u64> = cells.iter().map(|r| r.relays).collect();
        relay_counts.sort_unstable();
        relay_counts.dedup();
        for relays in relay_counts {
            let cell = |name: &str| -> String {
                cells
                    .iter()
                    .find(|r| r.relays == relays && r.protocol == name)
                    .map(|r| match r.latency_secs {
                        Some(l) => format!("{l:.1}"),
                        None => "FAIL".to_string(),
                    })
                    .unwrap_or_else(|| "-".to_string())
            };
            out.push_str(&format!(
                "{:>8} {:>14} {:>14} {:>14}\n",
                relays,
                cell("Current"),
                cell("Synchronous"),
                cell("Ours")
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ample_bandwidth_all_protocols_comparable() {
        let current = measure(ProtocolKind::Current, 50.0, 2_000, 9).expect("current ok");
        let ours = measure(ProtocolKind::Icps, 50.0, 2_000, 9).expect("ours ok");
        // "our protocol introduces acceptable overhead" — same order of
        // magnitude, within tens of seconds.
        assert!(ours < current + 30.0, "ours {ours}, current {current}");
    }

    #[test]
    fn low_bandwidth_kills_lockstep_but_not_ours() {
        // 0.5 Mbit/s with the smallest population the paper tests.
        assert!(measure(ProtocolKind::Current, 0.5, 1_000, 9).is_none());
        assert!(measure(ProtocolKind::Synchronous, 0.5, 1_000, 9).is_none());
        let ours = measure(ProtocolKind::Icps, 0.5, 1_000, 9).expect("ours survives");
        assert!(ours > 60.0, "slow but successful: {ours}");
    }

    #[test]
    fn synchronous_fails_before_current() {
        // 10 Mbit/s, 4 000 relays: the O(n³d) vote packs sink the
        // synchronous protocol while the current one still works.
        assert!(measure(ProtocolKind::Current, 10.0, 4_000, 9).is_some());
        assert!(measure(ProtocolKind::Synchronous, 10.0, 4_000, 9).is_none());
    }
}
