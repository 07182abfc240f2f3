//! Fig. 11: latency of the ICPS protocol when a complete DDoS knocks five
//! authorities offline for the first five minutes.
//!
//! The paper reports the time from the end of the attack to consensus
//! generation (~10 s), against the 2 100 s the lock-step protocols need
//! (25 minutes until the post-attack rerun plus the 10-minute run).

use crate::adversary::{AttackPlan, AttackWindow, Target};
use crate::calibration::{FALLBACK_RETRY_SECS, LOCKSTEP_ROUNDS, ROUND_SECS};
use crate::protocols::ProtocolKind;
use crate::runner::{run, sweep, RunReport, Scenario, SweepJob};
use partialtor_simnet::{SimDuration, SimTime};

/// One sweep point.
#[derive(Clone, Debug)]
pub struct Fig11Row {
    /// Relay count.
    pub relays: u64,
    /// Seconds from attack end to a valid consensus (ICPS).
    pub recovery_secs: f64,
}

/// The sweep result.
#[derive(Clone, Debug)]
pub struct Fig11Result {
    /// One row per relay count.
    pub rows: Vec<Fig11Row>,
    /// The lock-step comparison: 25 min wait + 10 min rerun.
    pub lockstep_comparison_secs: f64,
}

/// Attack used by the figure: five authorities fully offline for 300 s.
pub fn figure_attack() -> AttackPlan {
    AttackPlan::new(
        (0..5)
            .map(|i| {
                AttackWindow::offline(
                    Target::Authority(i),
                    SimTime::ZERO,
                    SimDuration::from_secs(300),
                )
            })
            .collect(),
    )
}

fn attacked_scenario(relays: u64, seed: u64) -> Scenario {
    Scenario {
        seed,
        relays,
        attack: figure_attack(),
        ..Scenario::default()
    }
}

fn recovery_from_report(report: &RunReport) -> Option<f64> {
    let attack_end = figure_attack().end_secs();
    report
        .success
        .then(|| report.last_valid_secs.map(|t| (t - attack_end).max(0.0)))
        .flatten()
}

/// Measures the post-attack recovery time for one relay count.
pub fn recovery_secs(relays: u64, seed: u64) -> Option<f64> {
    recovery_from_report(&run(ProtocolKind::Icps, &attacked_scenario(relays, seed)))
}

/// Runs the sweep over 1 000 – 10 000 relays in parallel.
///
/// # Panics
///
/// Panics if `step` is zero.
pub fn run_experiment(seed: u64, step: u64) -> Fig11Result {
    assert!(step > 0, "the relay-count step must be positive");
    let relay_counts: Vec<u64> = (step.max(1_000)..=10_000).step_by(step as usize).collect();
    let jobs: Vec<SweepJob> = relay_counts
        .iter()
        .map(|&relays| SweepJob::new(ProtocolKind::Icps, attacked_scenario(relays, seed)))
        .collect();
    let rows = relay_counts
        .into_iter()
        .zip(sweep(&jobs))
        .filter_map(|(relays, report)| {
            recovery_from_report(&report).map(|secs| Fig11Row {
                relays,
                recovery_secs: secs,
            })
        })
        .collect();
    Fig11Result {
        rows,
        lockstep_comparison_secs: (FALLBACK_RETRY_SECS - 300 + ROUND_SECS * LOCKSTEP_ROUNDS) as f64,
    }
}

/// Renders the figure as a table.
pub fn render(result: &Fig11Result) -> String {
    let mut out = String::new();
    out.push_str("=== Fig. 11: recovery after a 5-minute outage of 5 authorities ===\n");
    out.push_str(&format!(
        "(lock-step protocols need {} s: wait for the rerun + 10-minute run)\n\n",
        result.lockstep_comparison_secs
    ));
    out.push_str(&format!(
        "{:>8} {:>26}\n",
        "relays", "recovery after attack (s)"
    ));
    for row in &result.rows {
        out.push_str(&format!("{:>8} {:>26.1}\n", row.relays, row.recovery_secs));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_is_seconds_not_minutes() {
        let secs = recovery_secs(8_000, 13).expect("must recover");
        // The paper reports ≈10 s; anything within tens of seconds (vs.
        // 2 100 s for lock-step) reproduces the claim.
        assert!(secs < 60.0, "recovery took {secs} s");
        assert!(secs > 0.5, "recovery cannot be instant: {secs} s");
    }

    #[test]
    fn lockstep_comparison_matches_paper() {
        let result = run_experiment(13, 5_000);
        assert_eq!(result.lockstep_comparison_secs, 2_100.0);
    }
}
