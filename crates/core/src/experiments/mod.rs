//! Experiment drivers: one module per table/figure of the paper's
//! evaluation.
//!
//! Each driver returns structured rows and offers a `render` helper
//! that prints the same rows/series the paper reports. `dirsim fig
//! <name>` prints any of them from the command line.

pub mod ablations;
pub mod adversary;
pub mod availability;
pub mod clients;
pub mod cost;

/// The one §2.1 sustained-attack pipeline: `run` sweeps a day-clock
/// `AttackPlan`'s hourly runs as one batch, `hour_input` is the one
/// hand-off of a run to the distribution layer (the adversary search's
/// memo holds it too), and `replay` opens every experiment's `DistSession`.
pub(crate) mod sustained {
    use crate::adversary::AttackPlan;
    use crate::monitor;
    use crate::protocols::ProtocolKind;
    use crate::runner::{sweep, RunReport, Scenario, SweepJob};
    use partialtor_dirdist::{AlertNote, DistConfig, DistSession, DocModel, HourInput};
    use partialtor_obs::Tracer;

    /// One protocol's hours of a sustained campaign, hour 1 first.
    pub struct SustainedArm {
        /// The protocol the runs used.
        pub protocol: ProtocolKind,
        /// Each hour's protocol run.
        pub reports: Vec<RunReport>,
        /// Each run's [`hour_input`] hand-off.
        pub inputs: Vec<HourInput>,
    }

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

    /// Runs hours `1..=hours` of `plan` for each protocol as one sweep
    /// batch, protocol-major (the order the batch's units of work and
    /// shared committees are planned from), and hands each run off.
    pub fn run<const N: usize>(
        protocols: [ProtocolKind; N],
        plan: &AttackPlan,
        hours: u64,
        seed: u64,
        relays: u64,
    ) -> [SustainedArm; N] {
        let jobs: Vec<SweepJob> = protocols
            .iter()
            .flat_map(|&protocol| {
                (1..=hours).map(move |hour| {
                    SweepJob::new(protocol, hourly_scenario(plan, hour, seed, relays))
                })
            })
            .collect();
        let mut reports = sweep(&jobs).into_iter();
        protocols.map(|protocol| {
            let reports: Vec<RunReport> = reports.by_ref().take(hours as usize).collect();
            let inputs = reports.iter().map(hour_input).collect();
            SustainedArm {
                protocol,
                reports,
                inputs,
            }
        })
    }

    /// The hand-off of one hour's run to the distribution layer: the
    /// offset at which it produced a consensus (`None` = it produced
    /// none), and the health monitor's verdicts on it as alert notes —
    /// what the deployed monitor would page operators with while the
    /// hour's fetch storm plays out.
    pub fn hour_input(report: &RunReport) -> HourInput {
        HourInput {
            publication: report
                .success
                .then(|| report.last_valid_secs.unwrap_or(0.0)),
            alerts: monitor::analyze(report)
                .iter()
                .map(|alert| AlertNote {
                    severity: alert.severity(),
                    kind: alert.kind().to_string(),
                    message: alert.to_string(),
                })
                .collect(),
        }
    }

    /// Hours whose run produced a consensus.
    pub fn produced_hours(inputs: &[HourInput]) -> u64 {
        inputs.iter().filter_map(|input| input.publication).count() as u64
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

// The downtime blame that `dirsim clients --attribution` reports, checked
// under the name of the `attribute` subcommand that once printed it alone.
#[cfg(test)]
mod attribute {
    mod tests;
}
