//! Experiment drivers: one module per table/figure of the paper's
//! evaluation.
//!
//! Each driver returns structured rows and offers a `render` helper
//! that prints the same rows/series the paper reports. `dirsim fig
//! <name>` prints any of them from the command line.

pub mod ablations;
pub mod adversary;
pub mod attribute;
pub mod availability;
pub mod clients;
pub mod cost;

/// Shared plumbing for the §2.1 sustained-attack experiments, called
/// directly by `availability`, `clients`, `attribute`, `placement` and
/// `adversary` (which `frontier` drives): one day-clock
/// [`AttackPlan`](crate::adversary::AttackPlan) drives both the hourly
/// protocol sweep jobs and the distribution layer's view of the same
/// windows, and `replay` is the one path from hourly outcomes to a
/// [`DistSession`](partialtor_dirdist::DistSession).
pub(crate) mod sustained {
    use crate::adversary::AttackPlan;
    use crate::monitor;
    use crate::protocols::ProtocolKind;
    use crate::runner::{RunReport, Scenario, SweepJob};
    use partialtor_dirdist::{AlertNote, DistConfig, DistSession, DocModel, HourInput};
    use partialtor_obs::Tracer;

    /// The scenario of hour `hour` under the day-clock `plan`: its
    /// authority windows for that hour, rebased to the run's own clock.
    pub fn hourly_scenario(plan: &AttackPlan, hour: u64, seed: u64, relays: u64) -> Scenario {
        Scenario {
            seed: seed.wrapping_add(hour),
            relays,
            attack: plan.run_slice(hour * 3_600, 3_600),
            ..Scenario::default()
        }
    }

    /// One attacked run per hour (`1..=hours`) under the day-clock
    /// `plan`.
    pub fn hourly_jobs(
        protocol: ProtocolKind,
        plan: &AttackPlan,
        hours: u64,
        seed: u64,
        relays: u64,
    ) -> Vec<SweepJob> {
        (1..=hours)
            .map(|hour| SweepJob::new(protocol, hourly_scenario(plan, hour, seed, relays)))
            .collect()
    }

    /// Per-hour completion offsets from the sweep's reports (`None` =
    /// that hour's run produced no consensus).
    pub fn hourly_outcomes(reports: &[RunReport]) -> Vec<Option<f64>> {
        reports
            .iter()
            .map(|report| {
                report
                    .success
                    .then(|| report.last_valid_secs.unwrap_or(0.0))
            })
            .collect()
    }

    /// The health monitor's verdicts on one hour's run, as
    /// distribution-layer alert notes: what the deployed consensus-health
    /// monitor would page operators with while the hour's fetch storm
    /// plays out.
    pub fn alert_notes(report: &RunReport) -> Vec<AlertNote> {
        monitor::analyze(report)
            .iter()
            .map(|alert| AlertNote {
                severity: alert.severity(),
                kind: alert.kind().to_string(),
                message: alert.to_string(),
            })
            .collect()
    }

    /// Opens a [`DistSession`] on `config` and `model` and steps it
    /// through `inputs`, hour 1 first; the caller closes it (and may
    /// read its fetch mixes first).
    pub fn replay(
        config: &DistConfig,
        model: DocModel,
        inputs: impl IntoIterator<Item = HourInput>,
        tracer: &Tracer,
    ) -> DistSession {
        let mut session = DistSession::with_telemetry(config, model, tracer.clone());
        for input in inputs {
            session.step_hour(input);
        }
        session
    }
}

/// The telemetry slice of a distribution report — per-hour fetch-latency
/// percentiles and traffic signatures plus the session roll-up — as a
/// JSON tree (the payload `dirsim clients --metrics` writes, and the
/// leading sections of the full `--json` report).
pub fn dist_metrics_json(dist: &partialtor_dirdist::DistReport) -> crate::json::Json {
    use crate::json::{Json, ToJson};
    Json::obj([
        ("hours", dist.hours.to_json()),
        ("telemetry", dist.telemetry.to_json()),
    ])
}

pub mod diff_savings;
pub mod fig10_latency;
pub mod fig11_recovery;
pub mod fig1_attack_log;
pub mod fig6_relays;
pub mod fig7_bandwidth;
pub mod frontier;
pub mod placement;
pub mod table1_complexity;
pub mod table2_rounds;
