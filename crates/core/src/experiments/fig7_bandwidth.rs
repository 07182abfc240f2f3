//! Fig. 7: minimum bandwidth the five attacked authorities need for the
//! current directory protocol to still succeed, as a function of the
//! relay-population size.
//!
//! Reproduces the paper's methodology: five of the nine authorities run
//! with limited bandwidth; binary search finds the smallest limit at
//! which the protocol still completes. The paper's dashed comparison line
//! is the 0.5 Mbit/s residual bandwidth a DDoS victim retains.

use crate::calibration::ATTACK_RESIDUAL_BPS;
use crate::protocols::ProtocolKind;
use crate::runner::{run, sweep, Scenario, SweepJob};

/// One sweep point.
#[derive(Clone, Debug)]
pub struct Fig7Row {
    /// Relay-population size.
    pub relays: u64,
    /// Minimum bandwidth (Mbit/s) at which the protocol still succeeds.
    pub required_mbps: f64,
}

/// The sweep result.
#[derive(Clone, Debug)]
pub struct Fig7Result {
    /// One row per relay count.
    pub rows: Vec<Fig7Row>,
    /// The victim residual bandwidth (dashed line), Mbit/s.
    pub attack_residual_mbps: f64,
}

fn victim_scenario(relays: u64, limited_bps: f64, seed: u64) -> Scenario {
    Scenario {
        seed,
        relays,
        limited: vec![0, 1, 2, 3, 4],
        limited_bps,
        ..Scenario::default()
    }
}

fn succeeds(relays: u64, limited_bps: f64, seed: u64) -> bool {
    run(
        ProtocolKind::Current,
        &victim_scenario(relays, limited_bps, seed),
    )
    .success
}

/// Finds the minimum viable bandwidth for one relay count, Mbit/s.
pub fn required_bandwidth_mbps(relays: u64, seed: u64) -> f64 {
    required_bandwidth_sweep(&[relays], seed)[0]
}

/// Binary-searches the minimum viable bandwidth for every relay count at
/// once. The searches advance in lock step: each of the 14 refinement
/// rounds batches one midpoint probe per relay count through [`sweep`],
/// so the whole figure saturates the machine instead of one core.
pub fn required_bandwidth_sweep(relay_counts: &[u64], seed: u64) -> Vec<f64> {
    // (lo, hi) per relay count: lo known-failing, hi known-passing for
    // the swept range.
    let mut bounds: Vec<(f64, f64)> = relay_counts.iter().map(|_| (0.05e6, 40e6)).collect();
    debug_assert!(relay_counts
        .iter()
        .all(|&relays| succeeds(relays, 40e6, seed)));
    for _ in 0..14 {
        let jobs: Vec<SweepJob> = relay_counts
            .iter()
            .zip(&bounds)
            .map(|(&relays, &(lo, hi))| {
                SweepJob::new(
                    ProtocolKind::Current,
                    victim_scenario(relays, (lo + hi) / 2.0, seed),
                )
            })
            .collect();
        for (bound, report) in bounds.iter_mut().zip(sweep(&jobs)) {
            let mid = (bound.0 + bound.1) / 2.0;
            if report.success {
                bound.1 = mid;
            } else {
                bound.0 = mid;
            }
        }
    }
    bounds.into_iter().map(|(_, hi)| hi / 1e6).collect()
}

/// Runs the sweep over 1 000 – 10 000 relays.
pub fn run_experiment(seed: u64) -> Fig7Result {
    let relay_counts: Vec<u64> = (1..=10).map(|k| k * 1_000).collect();
    let rows = relay_counts
        .iter()
        .zip(required_bandwidth_sweep(&relay_counts, seed))
        .map(|(&relays, required_mbps)| Fig7Row {
            relays,
            required_mbps,
        })
        .collect();
    Fig7Result {
        rows,
        attack_residual_mbps: ATTACK_RESIDUAL_BPS / 1e6,
    }
}

/// Renders the figure as a table.
pub fn render(result: &Fig7Result) -> String {
    let mut out = String::new();
    out.push_str("=== Fig. 7: bandwidth requirement vs. number of relays ===\n");
    out.push_str(&format!(
        "(victim residual bandwidth under DDoS: {} Mbit/s — dashed line)\n\n",
        result.attack_residual_mbps
    ));
    out.push_str(&format!("{:>8} {:>18}\n", "relays", "required (Mbit/s)"));
    for row in &result.rows {
        out.push_str(&format!("{:>8} {:>18.2}\n", row.relays, row.required_mbps));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requirement_grows_with_relays_and_exceeds_residual() {
        // Three spot sizes keep the test quick; the full sweep runs in the
        // bench binary.
        let small = required_bandwidth_mbps(1_000, 5);
        let large = required_bandwidth_mbps(8_000, 5);
        assert!(
            large > small * 3.0,
            "requirement should grow roughly linearly: {small} vs {large}"
        );
        // At 8 000 relays the requirement is far above the 0.5 Mbit/s a
        // victim retains — the attack is effective (§4.3).
        assert!(large > 2.0, "8k-relay requirement {large} Mbit/s");
        assert!(small > ATTACK_RESIDUAL_BPS / 1e6);
    }
}
