//! The three simulator workloads: `clients_day`, `frontier_search` and
//! `session_week`. Each runs a headline pipeline through the workspace's
//! public functions and checks what it printed.

use crate::json::Value;
use crate::spans::{SpanId, Spans};
use partialtor::adversary::AttackPlan;
use partialtor::calibration::{CONSENSUS_VALID_SECS, N_AUTHORITIES};
use partialtor::experiments::clients::{self, ClientsParams, ClientsResult};
use partialtor::experiments::frontier::{self, FrontierParams, FrontierResult};
use partialtor::monitor;
use partialtor::protocols::ProtocolKind;
use partialtor::runner::{sweep, RunReport, Scenario, SweepJob};
use partialtor_dirdist::{
    AlertNote, CachePlacement, ChurnSchedule, ClientRegions, ConsensusTimeline, DistConfig,
    DistReport, DistSession, DocModel, HourInput, LinkWindow, TelemetrySummary, TierNode,
};

/// A simulator workload: a fixture built from the seed and one op that
/// runs the whole pipeline and renders its report.
pub trait SimWorkload {
    /// Ops measured even when the time budget is shorter than they are.
    const MIN_OPS: usize;
    /// What one op hands back for checking.
    type Output;

    /// Builds the inputs from `seed` and runs one reduced op so that
    /// lazy initialisation is paid before the first timed op.
    fn setup(seed: u64) -> Self;
    /// One op through the program's own entry point.
    fn op(&self) -> Self::Output;
    /// The same op with a benchmark-owned span around each call into a
    /// layer; must print the same report.
    fn traced_op(&self, spans: &mut Spans, op: u32) -> Self::Output;
    /// The rendered report.
    fn report<'a>(&self, output: &'a Self::Output) -> &'a str;
    /// Headline values compared with `expected.json` (seed 1 only).
    fn facts(&self, output: &Self::Output) -> Vec<(&'static str, Value)>;
    /// Checks that hold for every seed; one message per violation.
    fn violations(&self, output: &Self::Output) -> Vec<String>;
    /// Per-layer counts read off the op's own output.
    fn layer_counts(&self, output: &Self::Output) -> Vec<(&'static str, f64)>;
}

fn telemetry_counts(parts: &[&TelemetrySummary]) -> Vec<(&'static str, f64)> {
    let sum = |f: fn(&TelemetrySummary) -> u64| parts.iter().map(|t| f(t)).sum::<u64>() as f64;
    vec![
        ("dirdist.fetch_attempts", sum(|t| t.fetch_attempts)),
        ("dirdist.fetch_retries", sum(|t| t.fetch_retries)),
        ("dirdist.fetch_timeouts", sum(|t| t.fetch_timeouts)),
        ("dirdist.expired_events", sum(|t| t.expired_events)),
    ]
}

/// Span name of one `DistSession::step_hour`, by whether the hour's
/// protocol run produced a consensus.
fn step_hour_span(input: &HourInput) -> &'static str {
    if input.publication.is_some() {
        "dirdist.step_hour"
    } else {
        "dirdist.step_hour.outage"
    }
}

// --- clients_day -----------------------------------------------------

/// `dirsim clients --clients 3000000 --hours 24 --json`: 48 attacked
/// protocol runs (Current and ICPS) swept on the default threads, then
/// both timelines replayed through the distribution layer.
pub struct ClientsDay {
    params: ClientsParams,
}

pub struct ClientsOutput {
    json: String,
    results: Vec<ClientsResult>,
    /// `last_valid_secs` of each attacked ICPS run; only the traced
    /// pass sees the run reports.
    icps_valid_secs: Vec<f64>,
}

impl ClientsDay {
    fn hourly_jobs(&self, plan: &AttackPlan, protocol: ProtocolKind) -> Vec<SweepJob> {
        (1..=self.params.hours)
            .map(|hour| {
                SweepJob::new(
                    protocol,
                    Scenario {
                        seed: self.params.seed.wrapping_add(hour),
                        relays: self.params.relays,
                        attack: plan.run_slice(hour * 3_600, 3_600),
                        ..Scenario::default()
                    },
                )
            })
            .collect()
    }

    /// One protocol's distribution replay, one span per public call.
    fn replay(
        &self,
        plan: &AttackPlan,
        protocol: ProtocolKind,
        reports: &[RunReport],
        spans: &mut Spans,
        parent: SpanId,
        op: u32,
    ) -> ClientsResult {
        let params = &self.params;
        let outcomes: Vec<Option<f64>> = reports
            .iter()
            .map(|r| r.success.then(|| r.last_valid_secs.unwrap_or(0.0)))
            .collect();
        let (timeline, windows) = spans.leaf("dirdist.timeline", Some(parent), op, || {
            let timeline =
                ConsensusTimeline::from_hourly_outcomes(&outcomes, 3_600, CONSENSUS_VALID_SECS);
            (timeline, plan.dist_windows())
        });
        let config = DistConfig {
            seed: params.seed,
            clients: params.clients,
            relays: params.relays,
            n_authorities: N_AUTHORITIES,
            n_caches: params.caches,
            churn: params.churn.clone(),
            feedback: params.feedback,
            link_windows: windows,
            attribution: params.attribution,
            ..DistConfig::default()
        };
        let mut session = spans.leaf("dirdist.session_new", Some(parent), op, || {
            DistSession::new(&config, DocModel::synthetic(params.relays))
        });
        for hour in 1..=timeline.hours {
            let alerts = spans.leaf("core.monitor", Some(parent), op, || {
                monitor::analyze(&reports[hour as usize - 1])
                    .iter()
                    .map(|alert| AlertNote {
                        severity: alert.severity(),
                        kind: alert.kind().to_string(),
                        message: alert.to_string(),
                    })
                    .collect()
            });
            let input = HourInput {
                publication: timeline
                    .publications
                    .iter()
                    .find(|p| p.hour == hour)
                    .map(|p| p.available_at_secs - (hour * 3_600) as f64),
                alerts,
                ..HourInput::default()
            };
            spans.leaf(step_hour_span(&input), Some(parent), op, || {
                session.step_hour(input)
            });
        }
        let (dist, fetch_mixes) = spans.leaf("dirdist.into_report", Some(parent), op, || {
            let mixes = session.fetch_mixes();
            (session.into_report(), mixes)
        });
        ClientsResult {
            protocol: protocol.to_string(),
            produced_hours: outcomes.iter().flatten().count() as u64,
            dist,
            fetch_mixes,
        }
    }
}

impl SimWorkload for ClientsDay {
    // One op is 8–10 s on two cores; two keep the sample count fixed.
    const MIN_OPS: usize = 2;
    type Output = ClientsOutput;

    fn setup(seed: u64) -> Self {
        let warm = ClientsParams {
            hours: 1,
            clients: 100_000,
            caches: 20,
            seed,
            ..ClientsParams::default()
        };
        std::hint::black_box(clients::to_json(&clients::run_experiment(&warm)).render());
        ClientsDay {
            params: ClientsParams {
                seed,
                ..ClientsParams::default()
            },
        }
    }

    fn op(&self) -> ClientsOutput {
        let results = clients::run_experiment(&self.params);
        ClientsOutput {
            json: clients::to_json(&results).render(),
            results,
            icps_valid_secs: Vec::new(),
        }
    }

    fn traced_op(&self, spans: &mut Spans, op: u32) -> ClientsOutput {
        let root = spans.open("op", None, op);
        let hours = self.params.hours as usize;
        let protocols = [ProtocolKind::Current, ProtocolKind::Icps];
        let (plan, jobs) = spans.leaf("core.plan", Some(root), op, || {
            let plan = AttackPlan::five_of_nine().sustained_hourly(self.params.hours);
            let jobs: Vec<SweepJob> = protocols
                .iter()
                .flat_map(|&protocol| self.hourly_jobs(&plan, protocol))
                .collect();
            (plan, jobs)
        });
        let reports = spans.leaf("core.sweep", Some(root), op, || sweep(&jobs));
        let results: Vec<ClientsResult> = protocols
            .iter()
            .enumerate()
            .map(|(index, &protocol)| {
                let replay = spans.open("dirdist.replay", Some(root), op);
                let slice = &reports[index * hours..][..hours];
                let result = self.replay(&plan, protocol, slice, spans, replay, op);
                spans.close(replay);
                result
            })
            .collect();
        let json = spans.leaf("core.json_encode", Some(root), op, || {
            clients::to_json(&results).render()
        });
        spans.close(root);
        ClientsOutput {
            json,
            results,
            icps_valid_secs: reports[hours..]
                .iter()
                .filter_map(|r| r.last_valid_secs)
                .collect(),
        }
    }

    fn report<'a>(&self, output: &'a ClientsOutput) -> &'a str {
        &output.json
    }

    fn facts(&self, output: &ClientsOutput) -> Vec<(&'static str, Value)> {
        let fleet = |i: usize| &output.results[i].dist.fleet;
        vec![
            (
                "current_produced_hours",
                Value::Num(output.results[0].produced_hours as f64),
            ),
            (
                "current_downtime",
                Value::Num(fleet(0).client_weighted_downtime),
            ),
            (
                "icps_produced_hours",
                Value::Num(output.results[1].produced_hours as f64),
            ),
            (
                "icps_downtime",
                Value::Num(fleet(1).client_weighted_downtime),
            ),
        ]
    }

    fn violations(&self, output: &ClientsOutput) -> Vec<String> {
        let mut out = Vec::new();
        if output.results.len() != 2 {
            return vec![format!(
                "{} protocols reported, not 2",
                output.results.len()
            )];
        }
        for result in &output.results {
            let rows = result.dist.fleet.rows.len() as u64;
            if rows != self.params.hours + 1 {
                out.push(format!("{}: {rows} fleet rows", result.protocol));
            }
            if result.produced_hours > self.params.hours {
                out.push(format!("{}: more hours produced than run", result.protocol));
            }
        }
        out
    }

    fn layer_counts(&self, output: &ClientsOutput) -> Vec<(&'static str, f64)> {
        let telemetry: Vec<&TelemetrySummary> =
            output.results.iter().map(|r| &r.dist.telemetry).collect();
        let mut counts = telemetry_counts(&telemetry);
        if !output.icps_valid_secs.is_empty() {
            counts.push((
                "core.sim_icps_valid_s",
                crate::stats::median(&output.icps_valid_secs),
            ));
        }
        counts
    }
}

// --- frontier_search -------------------------------------------------

/// `dirsim frontier --json` at its defaults: the attacker–defender
/// search over Current-protocol runs only.
pub struct FrontierSearch {
    params: FrontierParams,
}

pub struct FrontierOutput {
    json: String,
    result: FrontierResult,
}

impl SimWorkload for FrontierSearch {
    const MIN_OPS: usize = 3;
    type Output = FrontierOutput;

    fn setup(seed: u64) -> Self {
        // The undefended row of the full search, about a third of an
        // op. A miniature search (0.15 s) is mostly thread starts, which
        // the host's slow spells stretch twice as much as they stretch
        // the ops: its `setup_s` moved 32 % between two sets of runs.
        let warm = FrontierParams {
            defense_budgets: vec![0.0],
            seed,
            ..FrontierParams::default()
        };
        std::hint::black_box(frontier::to_json(&frontier::run_experiment(&warm)).render());
        FrontierSearch {
            params: FrontierParams {
                seed,
                ..FrontierParams::default()
            },
        }
    }

    fn op(&self) -> FrontierOutput {
        let result = frontier::run_experiment(&self.params);
        FrontierOutput {
            json: frontier::to_json(&result).render(),
            result,
        }
    }

    /// The search is one public call, so its traced op is one span; the
    /// program's own `obs::span` rows say what happened inside.
    fn traced_op(&self, spans: &mut Spans, op: u32) -> FrontierOutput {
        let root = spans.open("op", None, op);
        let result = spans.leaf("core.frontier", Some(root), op, || {
            frontier::run_experiment(&self.params)
        });
        let json = spans.leaf("core.json_encode", Some(root), op, || {
            frontier::to_json(&result).render()
        });
        spans.close(root);
        FrontierOutput { json, result }
    }

    fn report<'a>(&self, output: &'a FrontierOutput) -> &'a str {
        &output.json
    }

    fn facts(&self, output: &FrontierOutput) -> Vec<(&'static str, Value)> {
        let row = |budget: f64| {
            output
                .result
                .rows
                .iter()
                .find(|r| r.defense_budget_usd_month == budget)
        };
        let cost = |c: Option<f64>| c.map_or(Value::Null, Value::Num);
        let mut facts = Vec::new();
        if let Some(r) = row(0.0) {
            facts.push(("row0_attacker_cost", cost(r.attacker_cost_usd_month)));
            facts.push(("row0_attack_label", Value::Str(r.attack_label.clone())));
            facts.push(("row0_downtime", Value::Num(r.attack_downtime)));
        }
        if let Some(r) = row(30.0) {
            facts.push(("row30_defense_label", Value::Str(r.defense_label.clone())));
            facts.push(("row30_attacker_cost", cost(r.attacker_cost_usd_month)));
            facts.push(("row30_downtime", Value::Num(r.attack_downtime)));
        }
        facts
    }

    fn violations(&self, output: &FrontierOutput) -> Vec<String> {
        let rows = &output.result.rows;
        let mut out = Vec::new();
        if rows.len() != self.params.defense_budgets.len() {
            out.push(format!("{} frontier rows", rows.len()));
        }
        for row in rows {
            if !(0.0..=1.0).contains(&row.attack_downtime) {
                out.push(format!("downtime {} out of range", row.attack_downtime));
            }
            if row.defense_cost_usd_month > row.defense_budget_usd_month + 1e-9 {
                out.push(format!("defense {} over budget", row.defense_label));
            }
        }
        out
    }

    fn layer_counts(&self, _: &FrontierOutput) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

// --- session_week ----------------------------------------------------

/// Hours of the week whose protocol run fails (a day-long outage under
/// five-authority floods), after a healthy first day.
const OUTAGE_HOURS: std::ops::RangeInclusive<u64> = 25..=48;
const WEEK_HOURS: u64 = 168;

/// A week of the distribution layer alone: no protocol runs, every
/// `dirdist` feature on, a day-long outage and the recovery after it.
pub struct SessionWeek {
    config: DistConfig,
}

pub struct SessionOutput {
    json: String,
    report: DistReport,
}

impl SessionWeek {
    fn input(hour: u64) -> HourInput {
        if OUTAGE_HOURS.contains(&hour) {
            HourInput::failed()
        } else {
            HourInput::produced(330.0)
        }
    }

    /// The report goes through the `dirsim clients --json` encoder, the
    /// only public one that takes a `DistReport`.
    fn encode(report: DistReport) -> SessionOutput {
        let wrapped = [ClientsResult {
            protocol: "session_week".to_string(),
            produced_hours: WEEK_HOURS - OUTAGE_HOURS.count() as u64,
            dist: report,
            fetch_mixes: Vec::new(),
        }];
        let json = clients::to_json(&wrapped).render();
        let [wrapped] = wrapped;
        SessionOutput {
            json,
            report: wrapped.dist,
        }
    }
}

impl SimWorkload for SessionWeek {
    const MIN_OPS: usize = 10;
    type Output = SessionOutput;

    fn setup(seed: u64) -> Self {
        let week = SessionWeek {
            config: DistConfig {
                seed,
                clients: 3_000_000,
                n_caches: 200,
                placement: CachePlacement::ClientWeighted,
                client_regions: ClientRegions::TorMetrics,
                feedback: true,
                attribution: true,
                churn: ChurnSchedule::weekly(),
                link_windows: OUTAGE_HOURS
                    .flat_map(|hour| {
                        (0..5).map(move |authority| LinkWindow {
                            node: TierNode::Authority(authority),
                            start_secs: (hour * 3_600) as f64,
                            duration_secs: 300.0,
                            bps: 0.5e6,
                        })
                    })
                    .collect(),
                ..DistConfig::default()
            },
        };
        std::hint::black_box(week.op().json);
        week
    }

    fn op(&self) -> SessionOutput {
        let mut session = DistSession::new(&self.config, DocModel::synthetic(self.config.relays));
        for hour in 1..=WEEK_HOURS {
            session.step_hour(Self::input(hour));
        }
        Self::encode(session.into_report())
    }

    fn traced_op(&self, spans: &mut Spans, op: u32) -> SessionOutput {
        let root = spans.open("op", None, op);
        let mut session = spans.leaf("dirdist.session_new", Some(root), op, || {
            DistSession::new(&self.config, DocModel::synthetic(self.config.relays))
        });
        for hour in 1..=WEEK_HOURS {
            let input = Self::input(hour);
            spans.leaf(step_hour_span(&input), Some(root), op, || {
                session.step_hour(input)
            });
        }
        let report = spans.leaf("dirdist.into_report", Some(root), op, || {
            session.into_report()
        });
        let output = spans.leaf("core.json_encode", Some(root), op, || Self::encode(report));
        spans.close(root);
        output
    }

    fn report<'a>(&self, output: &'a SessionOutput) -> &'a str {
        &output.json
    }

    fn facts(&self, output: &SessionOutput) -> Vec<(&'static str, Value)> {
        vec![(
            "downtime",
            Value::Num(output.report.fleet.client_weighted_downtime),
        )]
    }

    /// The blame ledger's contract: every hour's parts, and the
    /// rollup's, sum bit-exactly to the downtime they decompose.
    fn violations(&self, output: &SessionOutput) -> Vec<String> {
        let report = &output.report;
        let mut out = Vec::new();
        if report.hours.len() as u64 != WEEK_HOURS + 1 {
            out.push(format!("{} hour reports", report.hours.len()));
        }
        for hour in &report.hours {
            match &hour.attribution {
                Some(a) if a.parts.sum().to_bits() == a.downtime.to_bits() => {}
                Some(a) => out.push(format!(
                    "hour {}: parts sum {} != downtime {}",
                    hour.hour,
                    a.parts.sum(),
                    a.downtime
                )),
                None => out.push(format!("hour {}: no attribution", hour.hour)),
            }
        }
        match &report.attribution {
            Some(rollup) => {
                let downtime = report.fleet.client_weighted_downtime;
                if rollup.parts.sum().to_bits() != downtime.to_bits() {
                    out.push(format!(
                        "rollup parts sum {} != downtime {downtime}",
                        rollup.parts.sum()
                    ));
                }
            }
            None => out.push("no attribution rollup".to_string()),
        }
        out
    }

    fn layer_counts(&self, output: &SessionOutput) -> Vec<(&'static str, f64)> {
        telemetry_counts(&[&output.report.telemetry])
    }
}
