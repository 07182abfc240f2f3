//! Ablations of the design choices the paper argues for.
//!
//! Three studies, each backing one claim:
//!
//! 1. **Timeout scaling** (§2.2: "Simply increasing the timeout is not an
//!    effective solution"): sweep the lock-step round length Δ while the
//!    attacker stretches its window to match — the current protocol keeps
//!    failing, and the protocol's total duration (the staleness of relay
//!    information) grows linearly.
//! 2. **Pulsed attacks**: an attacker that cycles its flood on and off to
//!    cut cost. Under a progress-preserving transport the victim finishes
//!    its transfers during the quiet gaps, so only a (near-)continuous
//!    flood breaks the current protocol — which is exactly why the
//!    paper's §4.3 cost model pays for the full five-minute window.
//!    ICPS completes under every shape.
//! 3. **Fetch policy**: fetching missing documents from the `f + 1` proof
//!    endorsers versus from every authority (the literal §5.2.3 text) —
//!    same outcome, ~n/(f+1) times the fetch traffic.

use crate::adversary::{AttackPlan, AttackWindow, Target};
use crate::calibration;
use crate::protocols::{FetchPolicy, IcpsAuthority, IcpsByzantineMode, ProtocolKind};
use crate::runner::{par_map, run_with, sweep, Scenario, SweepJob};
use partialtor_simnet::prelude::*;

// ---------------------------------------------------------------------
// 1. Timeout scaling.
// ---------------------------------------------------------------------

/// One timeout-scaling measurement.
#[derive(Clone, Debug)]
pub struct TimeoutRow {
    /// Lock-step round length Δ, seconds.
    pub round_secs: u64,
    /// Whether the current protocol survived an attacker covering 2Δ.
    pub survives_matched_attack: bool,
    /// Total protocol duration 4Δ — how stale relay information becomes.
    pub protocol_duration_secs: u64,
}

/// Sweeps Δ with an attacker that stretches its window to match.
pub fn timeout_scaling(seed: u64) -> Vec<TimeoutRow> {
    let rounds = [150u64, 300, 600, 1200];
    let jobs: Vec<SweepJob> = rounds
        .into_iter()
        .map(|round_secs| {
            SweepJob::new(
                ProtocolKind::Current,
                Scenario {
                    seed,
                    relays: 8_000,
                    round_secs,
                    // The attacker matches the enlarged vote window.
                    attack: AttackPlan::new(
                        (0..5)
                            .map(|i| {
                                AttackWindow::new(
                                    Target::Authority(i),
                                    SimTime::ZERO,
                                    SimDuration::from_secs(2 * round_secs),
                                    calibration::ATTACK_FLOOD_MBPS,
                                )
                            })
                            .collect(),
                    ),
                    ..Scenario::default()
                },
            )
        })
        .collect();
    rounds
        .into_iter()
        .zip(sweep(&jobs))
        .map(|(round_secs, report)| TimeoutRow {
            round_secs,
            survives_matched_attack: report.success,
            protocol_duration_secs: 4 * round_secs,
        })
        .collect()
}

/// Renders the timeout-scaling table.
pub fn render_timeout(rows: &[TimeoutRow]) -> String {
    let mut out = String::new();
    out.push_str("=== Ablation 1: increasing the timeout does not help (§2.2) ===\n\n");
    out.push_str(&format!(
        "{:>8} {:>22} {:>22}\n",
        "Δ (s)", "survives 2Δ attack?", "staleness cost (s)"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:>8} {:>22} {:>22}\n",
            row.round_secs,
            if row.survives_matched_attack {
                "yes"
            } else {
                "no"
            },
            row.protocol_duration_secs
        ));
    }
    out
}

// ---------------------------------------------------------------------
// 2. Pulsed attacks.
// ---------------------------------------------------------------------

/// One pulsed-attack measurement.
#[derive(Clone, Debug)]
pub struct PulseRow {
    /// Seconds of flood per cycle.
    pub on_secs: u64,
    /// Seconds of quiet per cycle.
    pub off_secs: u64,
    /// Number of cycles.
    pub cycles: u64,
    /// Whether the current protocol survives.
    pub current_survives: bool,
    /// ICPS completion time (always succeeds), seconds.
    pub icps_latency_secs: f64,
}

/// Builds the attack plan of a pulsed flood against five victims.
pub fn pulsed_attack(on_secs: u64, off_secs: u64, cycles: u64) -> AttackPlan {
    AttackPlan::new(
        (0..cycles)
            .flat_map(|k| {
                (0..5).map(move |i| {
                    AttackWindow::new(
                        Target::Authority(i),
                        SimTime::from_secs(k * (on_secs + off_secs)),
                        SimDuration::from_secs(on_secs),
                        calibration::ATTACK_FLOOD_MBPS,
                    )
                })
            })
            .collect(),
    )
}

/// Sweeps pulse shapes at 8 000 relays. The `(300, 0, 1)` row is the
/// paper's continuous attack, included as the boundary case.
pub fn pulse_sweep(seed: u64) -> Vec<PulseRow> {
    let shapes = [
        (300u64, 0u64, 1u64),
        (240, 120, 2),
        (120, 60, 4),
        (60, 30, 6),
    ];
    // Two jobs per pulse shape (Current, then ICPS), one parallel batch.
    let jobs: Vec<SweepJob> = shapes
        .into_iter()
        .flat_map(|(on_secs, off_secs, cycles)| {
            let scenario = Scenario {
                seed,
                relays: 8_000,
                attack: pulsed_attack(on_secs, off_secs, cycles),
                ..Scenario::default()
            };
            [
                SweepJob::new(ProtocolKind::Current, scenario.clone()),
                SweepJob::new(ProtocolKind::Icps, scenario),
            ]
        })
        .collect();
    let reports = sweep(&jobs);
    shapes
        .into_iter()
        .enumerate()
        .map(|(i, (on_secs, off_secs, cycles))| PulseRow {
            on_secs,
            off_secs,
            cycles,
            current_survives: reports[2 * i].success,
            icps_latency_secs: reports[2 * i + 1]
                .last_valid_secs
                .expect("ICPS completes under pulsed attacks"),
        })
        .collect()
}

/// Renders the pulse table.
pub fn render_pulse(rows: &[PulseRow]) -> String {
    let mut out = String::new();
    out.push_str("=== Ablation 2: pulsed DDoS (5 victims, 8 000 relays) ===\n");
    out.push_str("(quiet gaps let in-flight transfers resume: pulsing saves the attacker\n");
    out.push_str(" nothing — the §4.3 cost model's continuous flood is necessary)\n\n");
    out.push_str(&format!(
        "{:>8} {:>8} {:>8} {:>18} {:>16}\n",
        "on (s)", "off (s)", "cycles", "Current survives?", "ICPS done at (s)"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:>8} {:>8} {:>8} {:>18} {:>16.1}\n",
            row.on_secs,
            row.off_secs,
            row.cycles,
            if row.current_survives { "yes" } else { "no" },
            row.icps_latency_secs
        ));
    }
    out
}

// ---------------------------------------------------------------------
// 3. Fetch policy.
// ---------------------------------------------------------------------

/// One fetch-policy measurement.
#[derive(Clone, Debug)]
pub struct FetchRow {
    /// Policy label.
    pub policy: String,
    /// Fetch requests sent.
    pub fetch_requests: u64,
    /// Bytes of fetch responses on the wire.
    pub fetch_response_bytes: u64,
    /// When the last authority finished, seconds.
    pub last_valid_secs: f64,
}

/// Runs the selective-disclosure scenario under one fetch policy.
fn run_fetch(policy: FetchPolicy, seed: u64) -> FetchRow {
    let scenario = Scenario {
        seed,
        relays: 2_000,
        ..Scenario::default()
    };
    let f = calibration::partial_synchrony_f(scenario.n);
    // One authority discloses its document to only f + 1 peers, forcing
    // everyone else through the fetch path.
    let report = run_with::<IcpsAuthority>(&scenario, |i| match i {
        1 => (IcpsByzantineMode::SelectiveSend(f + 1), policy),
        _ => (IcpsByzantineMode::Honest, policy),
    });
    let traffic = |kind| report.by_kind.get(kind).copied().unwrap_or_default();
    FetchRow {
        policy: format!("{policy:?}"),
        fetch_requests: traffic("FETCH-REQ").1,
        fetch_response_bytes: traffic("FETCH-RESP").0,
        last_valid_secs: report.last_valid_secs.unwrap_or(0.0),
    }
}

/// Compares the two fetch policies (both simulations run in parallel;
/// a run with a misbehaving seat is not a [`SweepJob`], so this goes
/// through [`par_map`]).
pub fn fetch_policy_comparison(seed: u64) -> Vec<FetchRow> {
    par_map(
        &[FetchPolicy::Endorsers, FetchPolicy::Everyone],
        |&policy| run_fetch(policy, seed),
    )
}

/// Renders the fetch-policy table.
pub fn render_fetch(rows: &[FetchRow]) -> String {
    let mut out = String::new();
    out.push_str("=== Ablation 3: aggregation fetch policy (selective disclosure) ===\n\n");
    out.push_str(&format!(
        "{:<12} {:>12} {:>20} {:>14}\n",
        "policy", "fetch reqs", "response bytes", "done at (s)"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<12} {:>12} {:>20} {:>14.1}\n",
            row.policy, row.fetch_requests, row.fetch_response_bytes, row.last_valid_secs
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bigger_timeouts_never_beat_a_matching_attacker() {
        for row in timeout_scaling(23) {
            assert!(
                !row.survives_matched_attack,
                "Δ = {} should still fail",
                row.round_secs
            );
        }
    }

    #[test]
    fn only_continuous_floods_break_current_and_icps_always_completes() {
        let rows = pulse_sweep(24);
        assert!(rows.iter().all(|r| r.icps_latency_secs > 0.0));
        let continuous = rows.iter().find(|r| r.off_secs == 0).expect("continuous");
        assert!(
            !continuous.current_survives,
            "the paper's continuous 5-minute flood must break the protocol"
        );
        // With quiet gaps, in-flight transfers resume and complete: the
        // attacker cannot save money by pulsing.
        for row in rows.iter().filter(|r| r.off_secs >= 30) {
            assert!(
                row.current_survives,
                "gap of {} s should let the vote exchange finish",
                row.off_secs
            );
        }
    }

    #[test]
    fn endorser_fetch_uses_less_bandwidth() {
        let rows = fetch_policy_comparison(25);
        let endorsers = &rows[0];
        let everyone = &rows[1];
        assert!(endorsers.fetch_requests > 0, "fetch path must trigger");
        assert!(
            everyone.fetch_response_bytes > endorsers.fetch_response_bytes,
            "fetch-from-everyone must cost more: {} vs {}",
            everyone.fetch_response_bytes,
            endorsers.fetch_response_bytes
        );
    }
}
