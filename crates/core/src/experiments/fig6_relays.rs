//! Fig. 6: the number of Tor relays over time (Sep 2022 – Oct 2024),
//! mean 7141.79.

use partialtor_simnet::{RelayPopulation, PAPER_MEAN_RELAYS};

/// One rendered sample.
#[derive(Clone, Debug)]
pub struct Fig6Row {
    /// Sample label (`YYYY-MM-wN`).
    pub label: String,
    /// Relay count.
    pub relays: f64,
}

/// The full series plus its mean.
#[derive(Clone, Debug)]
pub struct Fig6Result {
    /// Weekly samples.
    pub rows: Vec<Fig6Row>,
    /// Series mean (must equal the paper's 7141.79).
    pub mean: f64,
}

/// Runs the experiment.
///
/// Renders the calibrated population series directly — no simulation
/// runs, hence no `runner::sweep` batch.
pub fn run_experiment() -> Fig6Result {
    let population = RelayPopulation::paper_series();
    let rows = population
        .samples()
        .iter()
        .map(|s| Fig6Row {
            label: s.label.clone(),
            relays: s.count,
        })
        .collect();
    Fig6Result {
        rows,
        mean: population.mean(),
    }
}

/// Renders an ASCII sparkline-style table.
pub fn render(result: &Fig6Result) -> String {
    let mut out = String::new();
    out.push_str("=== Fig. 6: number of Tor relays over time ===\n");
    out.push_str(&format!(
        "{} weekly samples, mean {:.2} (paper: {PAPER_MEAN_RELAYS})\n\n",
        result.rows.len(),
        result.mean
    ));
    // Print every 4th sample to keep the table readable.
    out.push_str(&format!("{:<12} {:>8}  plot (0–9000)\n", "week", "relays"));
    for row in result.rows.iter().step_by(4) {
        let bars = (row.relays / 9_000.0 * 50.0).round() as usize;
        out.push_str(&format!(
            "{:<12} {:>8.0}  {}\n",
            row.label,
            row.relays,
            "#".repeat(bars.min(60))
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_matches_paper() {
        let result = run_experiment();
        assert!((result.mean - PAPER_MEAN_RELAYS).abs() < 1e-6);
        assert_eq!(result.rows.len(), 113);
    }

    #[test]
    fn render_contains_mean() {
        let result = run_experiment();
        assert!(render(&result).contains("7141.79"));
    }
}
