//! `dirsim` — command-line front end for the directory-protocol simulator.
//!
//! `dirsim --help` lists the subcommands and the flags all of them take:
//! `--threads N` (the sweep worker count) and the telemetry exports
//! `--trace`, `--trace-chrome`, `--metrics` and `--profile`, which are
//! observational (enabling any of them leaves the output bit-identical).
//! `dirsim <subcommand> --help` lists a subcommand's own flags with their
//! bounds. Both are rendered from the flag table in this file (a
//! [`partialtor_obs::cli`] table, as `dircached`'s and `dirload`'s are),
//! which also checks every value before a subcommand runs: unknown flags and
//! malformed or out-of-range values exit 2 with an error and the usage,
//! never silently defaulted or clamped. Every subcommand except `fig`
//! accepts `--json`. When stdout closes early (`dirsim … | head`) the
//! process ends quietly.

use partialtor::calibration::{ATTACK_FLOOD_MBPS, N_AUTHORITIES};
use partialtor::experiments::{
    ablations, adversary, availability, clients, cost, diff_savings, fig10_latency, fig11_recovery,
    fig1_attack_log, fig6_relays, fig7_bandwidth, frontier, placement, table1_complexity,
    table2_rounds,
};
use partialtor::json::Json;
use partialtor::monitor;
use partialtor::protocols::ProtocolKind;
use partialtor::runner::{set_sweep_threads, sweep, RunReport, Scenario, SweepJob};
use partialtor::trace_export::{chrome_trace, trace_line};
use partialtor_obs::cli::{
    bool_flag, flag, flag_help, int_flag, num_flag, nums_flag, text_flag, Args, Command, FlagSpec,
    Kind, POSITIONAL,
};
use partialtor_obs::trace::DEFAULT_TRACE_CAPACITY;
use partialtor_obs::{profile_report, set_profiling, Tracer};

/// Writes to stdout. When the reader has gone away (`dirsim … | head`)
/// the process ends quietly, where `print!` would panic.
fn emit(text: std::fmt::Arguments) {
    use std::io::{ErrorKind, Write};
    match std::io::stdout().write_fmt(text) {
        Ok(()) => {}
        Err(error) if error.kind() == ErrorKind::BrokenPipe => std::process::exit(0),
        Err(error) => {
            eprintln!("dirsim: writing to stdout: {error}");
            std::process::exit(1);
        }
    }
}

/// `print!` through [`emit`].
macro_rules! out {
    ($($arg:tt)*) => { emit(format_args!($($arg)*)) };
}

/// `println!` through [`emit`].
macro_rules! outln {
    ($($arg:tt)*) => { emit(format_args!("{}\n", format_args!($($arg)*))) };
}

/// Flags every subcommand accepts.
#[rustfmt::skip]
const GLOBAL_FLAGS: &[FlagSpec] = &[
    int_flag("--threads", "N", 1, u64::MAX, "sweep worker count (default: all cores; 1 = serial)"),
    text_flag("--trace", "FILE", "write the structured event trace (JSONL, with span/cause ids)"),
    text_flag("--trace-chrome", "FILE", "write the trace as Chrome trace-event JSON (Perfetto)"),
    text_flag("--metrics", "FILE", "write the subcommand's metrics (JSON)"),
    bool_flag("--profile", "print a per-phase wall-clock profile to stderr"),
];

/// Largest `--relays`: a hundred times the paper's 10 000-relay sweep,
/// and far below where the document-size arithmetic wraps.
const MAX_RELAYS: u64 = 1_000_000;

/// Largest `--clients`: over 300 times the 3 M default fleet, and far
/// below where the fleet's client and byte sums wrap.
const MAX_CLIENTS: u64 = 1_000_000_000;

/// Largest `--hours`: one leap year, twelve times the month the paper
/// prices. Experiments plan every hour's attack windows and protocol
/// runs up front, and 2⁶⁴ − 1 hours aborted out of memory.
const MAX_HOURS: u64 = 366 * 24;

/// Largest `--caches`: the cache tier's topology is a dense matrix of
/// (caches + 9)² latencies. 10 000 caches run a one-hour, 10 000-client
/// `clients` session in seconds; 100 000 would ask for 80 GB.
const MAX_CACHES: u64 = 10_000;

/// Largest link or flood rate, Mbit/s: a terabit per second, four
/// thousand times the §4.3 flood and the 250 Mbit/s authority link.
const MAX_MBPS: f64 = 1e6;

/// Smallest `--bandwidth`, Mbit/s: 1 kbit/s, five hundred times below
/// the slowest link the paper measures (0.5 Mbit/s).
const MIN_MBPS: f64 = 1e-3;

/// Largest budget, $/month: seven orders of magnitude above the paper's
/// $53.28, so every price still prints as a plain number.
const MAX_USD_MONTH: f64 = 1e9;

/// Telemetry context of one invocation: the tracer handed to
/// session-backed handlers, and the metrics tree every handler
/// publishes (the `--metrics` payload, and the `--json` payload for the
/// subcommands without a richer report serializer).
struct Telemetry {
    tracer: Tracer,
    metrics: Json,
}

impl Telemetry {
    /// Builds the context from the parsed flags: a live tracer when
    /// `--trace` names a file, profiling on when `--profile` is set.
    fn from_args(args: &Args) -> Telemetry {
        set_profiling(args.present("--profile"));
        Telemetry {
            tracer: if args.present("--trace") || args.present("--trace-chrome") {
                Tracer::enabled(DEFAULT_TRACE_CAPACITY)
            } else {
                Tracer::disabled()
            },
            metrics: Json::Null,
        }
    }

    /// Writes the requested export files and prints the profile after
    /// the handler ran. The ring is drained once; the JSONL and Chrome
    /// exports render the same records.
    fn finish(self, args: &Args) -> Result<(), String> {
        if args.present("--trace") || args.present("--trace-chrome") {
            let dropped = self.tracer.dropped();
            if dropped > 0 {
                eprintln!("dirsim: trace ring dropped {dropped} oldest events");
            }
            let records = self.tracer.drain_records();
            if let Some(path) = args.text("--trace") {
                let out: String = records
                    .iter()
                    .map(|r| trace_line(r).render() + "\n")
                    .collect();
                std::fs::write(path, out).map_err(|e| format!("writing trace {path:?}: {e}"))?;
            }
            if let Some(path) = args.text("--trace-chrome") {
                std::fs::write(path, format!("{}\n", chrome_trace(&records).render()))
                    .map_err(|e| format!("writing chrome trace {path:?}: {e}"))?;
            }
        }
        if let Some(path) = args.text("--metrics") {
            std::fs::write(path, format!("{}\n", self.metrics.render()))
                .map_err(|e| format!("writing metrics {path:?}: {e}"))?;
        }
        if args.present("--profile") {
            eprintln!("{:<26} {:>8} {:>12}", "phase", "calls", "total (s)");
            for (name, calls, secs) in profile_report() {
                eprintln!("{name:<26} {calls:>8} {secs:>12.4}");
            }
        }
        Ok(())
    }
}

/// One protocol run as JSON (the `report` node of a `dirsim run --json`
/// row).
fn run_report_json(report: &RunReport) -> Json {
    Json::obj([
        ("protocol", Json::str(report.protocol.to_string())),
        ("success", Json::from(report.success)),
        ("network_time_secs", Json::from(report.network_time_secs)),
        ("first_valid_secs", Json::from(report.first_valid_secs)),
        ("last_valid_secs", Json::from(report.last_valid_secs)),
        ("end_time_secs", Json::from(report.end_time_secs)),
        ("total_tx_bytes", Json::from(report.total_tx_bytes)),
        ("total_tx_msgs", Json::from(report.total_tx_msgs)),
        (
            "by_kind",
            Json::Obj(
                report
                    .by_kind
                    .iter()
                    .map(|(kind, &(bytes, msgs))| {
                        (
                            kind.clone(),
                            Json::obj([("bytes", Json::from(bytes)), ("msgs", Json::from(msgs))]),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "authorities",
            Json::arr(report.authorities.iter().map(|authority| {
                Json::obj([
                    ("index", Json::from(authority.index)),
                    ("success", Json::from(authority.success)),
                    (
                        "digest",
                        authority
                            .digest
                            .map_or(Json::Null, |d| Json::str(d.short_hex(8))),
                    ),
                ])
            })),
        ),
    ])
}

/// Prints `json` under `--json`, else the text report.
fn print(args: &Args, json: &Json, text: impl FnOnce() -> String) {
    if args.present("--json") {
        outln!("{}", json.render());
    } else {
        out!("{}", text());
    }
}

/// Health alerts as JSON rows (severity, stable kind, rendered message).
fn alerts_json(alerts: &[monitor::HealthAlert]) -> Json {
    Json::arr(alerts.iter().map(|alert| {
        Json::obj([
            ("severity", Json::str(alert.severity())),
            ("kind", Json::str(alert.kind())),
            ("message", Json::str(alert.to_string())),
        ])
    }))
}

const RELAYS_FLAG: FlagSpec = int_flag("--relays", "N", 0, MAX_RELAYS, "relay population size");
const SEED_FLAG: FlagSpec = int_flag("--seed", "N", 0, u64::MAX, "simulation seed");
const JSON_FLAG: FlagSpec = bool_flag("--json", "emit machine-readable JSON instead of tables");
const FLOOD_FLAG: FlagSpec = num_flag(
    "--flood",
    "MBPS",
    0.0,
    MAX_MBPS,
    "flood rate per victim (default 240, the §4.3 rate)",
);
const FEEDBACK_FLAG: FlagSpec = bool_flag(
    "--feedback",
    "close the fetch-feedback loop (hour h's client load hits hour h+1's links)",
);
const ATTRIBUTION_FLAG: FlagSpec = bool_flag(
    "--attribution",
    "decompose downtime into additive blame causes (observational)",
);
const REAL_DOCS_FLAG: FlagSpec = bool_flag(
    "--real-docs",
    "build real tordoc documents (small --relays only)",
);

/// `--targets`: authorities a campaign floods, at most the
/// [`N_AUTHORITIES`] that exist.
const fn targets_flag(help: &'static str) -> FlagSpec {
    int_flag("--targets", "K", 0, N_AUTHORITIES as u64, help)
}

const fn clients_flag(help: &'static str) -> FlagSpec {
    int_flag("--clients", "N", 1, MAX_CLIENTS, help)
}

const fn hours_flag(help: &'static str) -> FlagSpec {
    int_flag("--hours", "H", 0, MAX_HOURS, help)
}

const fn caches_flag(help: &'static str) -> FlagSpec {
    int_flag("--caches", "K", 0, MAX_CACHES, help)
}

const fn beam_flag(help: &'static str) -> FlagSpec {
    int_flag("--beam", "K", 1, u64::MAX, help)
}

/// One run's text block: its report, the price of its windows and its
/// health alerts.
fn render_run(report: &RunReport, cost: f64, alerts: &[monitor::HealthAlert]) -> String {
    let mut out = format!("protocol      : {}\n", report.protocol);
    out += &format!("success       : {}\n", report.success);
    out += &match report.network_time_secs {
        Some(t) => format!("latency       : {t:.2} s\n"),
        None => "latency       : (failed)\n".into(),
    };
    if let (Some(first), Some(last)) = (report.first_valid_secs, report.last_valid_secs) {
        out += &format!("valid between : {first:.2} s and {last:.2} s\n");
    }
    let megabytes = report.total_tx_bytes as f64 / 1e6;
    out += &format!(
        "traffic       : {} messages, {megabytes:.2} MB\n",
        report.total_tx_msgs
    );
    out += "per authority :\n";
    for authority in &report.authorities {
        let digest = authority.digest.map_or("-".into(), |d| d.short_hex(8));
        let (index, success) = (authority.index, authority.success);
        out += &format!("  auth{index} success={success} digest={digest}\n");
    }
    out += &format!("attack cost   : ${cost:.4} for this window set\n\nmonitor alerts:\n");
    if alerts.is_empty() {
        out += "  (none)\n";
    }
    for alert in alerts {
        out += &format!("  {alert}\n");
    }
    out
}

#[rustfmt::skip]
const RUN_SPEC: &[FlagSpec] = &[
    flag("--protocol", "P", Kind::Enum(&["current", "synchronous", "icps", "all"]),
        "protocol to run, or all three (default icps)"),
    RELAYS_FLAG,
    nums_flag("--bandwidth", "MBPS,..", MIN_MBPS, MAX_MBPS,
        "authority link rates in Mbit/s, one run each (default 250)"),
    SEED_FLAG,
    REAL_DOCS_FLAG,
    targets_flag("authorities flooded from t = 0 (default 0)"),
    int_flag("--duration", "SECS", 0, 3_600,
        "attack window length, within one hourly run (default 300)"),
    FLOOD_FLAG,
    JSON_FLAG,
];

/// Runs every protocol × bandwidth job as one parallel batch, and prints
/// each job's report, the price of its windows and its health alerts
/// (with `--json`, one row per job).
fn cmd_run(args: &Args, telemetry: &mut Telemetry) -> Result<(), String> {
    let defaults = Scenario::default();
    let targets = args.u64("--targets", 0) as usize;
    let minutes = args.u64("--duration", 300) as f64 / 60.0;
    let scenario = &Scenario {
        seed: args.u64("--seed", defaults.seed),
        relays: args.u64("--relays", defaults.relays),
        real_docs: args.present("--real-docs"),
        attack: cost::hourly_plan(targets, args.f64("--flood", ATTACK_FLOOD_MBPS), minutes),
        ..defaults
    };
    let protocols = match args.text("--protocol") {
        Some("all") => ProtocolKind::ALL.to_vec(),
        Some("current") => vec![ProtocolKind::Current],
        Some("synchronous") => vec![ProtocolKind::Synchronous],
        _ => vec![ProtocolKind::Icps],
    };
    let bandwidths_bps = args
        .f64s("--bandwidth")
        .map_or(vec![scenario.bandwidth_bps], |mbps| {
            mbps.iter().map(|m| m * 1e6).collect()
        });
    let jobs: Vec<SweepJob> = protocols
        .into_iter()
        .flat_map(|protocol| {
            bandwidths_bps.iter().map(move |&bandwidth_bps| {
                SweepJob::new(
                    protocol,
                    Scenario {
                        bandwidth_bps,
                        ..scenario.clone()
                    },
                )
            })
        })
        .collect();
    let cost = scenario.attack.cost();
    let mut rows = Vec::with_capacity(jobs.len());
    for report in sweep(&jobs) {
        let alerts = monitor::analyze(&report);
        let row = Json::obj([
            ("report", run_report_json(&report)),
            ("attack_cost_usd", Json::from(cost)),
            ("alerts", alerts_json(&alerts)),
        ]);
        print(args, &row, || render_run(&report, cost, &alerts));
        rows.push(row);
    }
    telemetry.metrics = Json::Arr(rows);
    Ok(())
}

#[rustfmt::skip]
const COST_SPEC: &[FlagSpec] = &[
    targets_flag("authorities flooded (default 5)"),
    FLOOD_FLAG,
    num_flag("--minutes", "M", 0.0, 60.0, "minutes per hourly run (default 5)"),
    JSON_FLAG,
];

fn cmd_cost(args: &Args, telemetry: &mut Telemetry) -> Result<(), String> {
    let targets = args.u64("--targets", 5) as usize;
    let flood_mbps = args.f64("--flood", ATTACK_FLOOD_MBPS);
    let minutes = args.f64("--minutes", 5.0);
    let plan = cost::hourly_plan(targets, flood_mbps, minutes);
    let (per_run, per_month) = (plan.cost(), plan.cost_per_month());
    telemetry.metrics = Json::obj([
        ("targets", Json::from(targets)),
        ("flood_mbps", Json::from(flood_mbps)),
        ("minutes_per_run", Json::from(minutes)),
        ("cost_per_run_usd", Json::from(per_run)),
        ("cost_per_month_usd", Json::from(per_month)),
    ]);
    print(args, &telemetry.metrics, || {
        format!("cost per breached run : ${per_run:.4}\ncost per month        : ${per_month:.2}\n")
    });
    Ok(())
}

#[rustfmt::skip]
const CLIENTS_SPEC: &[FlagSpec] = &[
    clients_flag("client fleet size (default 3000000)"),
    hours_flag("attacked hours simulated (default 24)"),
    int_flag("--days", "N", 0, MAX_HOURS / 24, "attacked days simulated (sets --hours to 24 N)"),
    caches_flag("directory caches (default 200)"),
    RELAYS_FLAG,
    SEED_FLAG,
    FEEDBACK_FLAG,
    text_flag("--churn", "C",
        "hourly relay churn: a rate in [0, 1] (default 0.02) or 'weekly' (Fig. 6)"),
    REAL_DOCS_FLAG,
    text_flag("--fetch-mix", "FILE",
        "export the Current protocol's per-hour fetch mixes for dirload"),
    ATTRIBUTION_FLAG,
    JSON_FLAG,
];

/// Parses `--churn`: a bare rate, or `weekly` for the Fig. 6 schedule.
fn churn_schedule(args: &Args) -> Result<partialtor_dirdist::ChurnSchedule, String> {
    use partialtor_dirdist::ChurnSchedule;
    match args.text("--churn") {
        None => Ok(ChurnSchedule::default()),
        Some("weekly") => Ok(ChurnSchedule::weekly()),
        Some(raw) => match raw.parse::<f64>() {
            Ok(rate) if (0.0..=1.0).contains(&rate) => Ok(ChurnSchedule::Constant(rate)),
            _ => Err(format!(
                "--churn expects 'weekly' or a rate in [0, 1], got {raw:?}"
            )),
        },
    }
}

fn cmd_clients(args: &Args, telemetry: &mut Telemetry) -> Result<(), String> {
    let defaults = clients::ClientsParams::default();
    let hours = match args.u64("--days", 0) {
        0 => args.u64("--hours", defaults.hours),
        _ if args.present("--hours") => {
            return Err("--days and --hours are mutually exclusive".into())
        }
        days => days * 24,
    };
    let relays = args.u64("--relays", defaults.relays);
    if args.present("--real-docs") && relays > clients::REAL_DOCS_MAX_RELAYS {
        return Err(format!(
            "--real-docs builds real documents; use --relays {} or fewer",
            clients::REAL_DOCS_MAX_RELAYS
        ));
    }
    let params = clients::ClientsParams {
        hours,
        clients: args.u64("--clients", defaults.clients),
        caches: args.u64("--caches", defaults.caches as u64) as usize,
        relays,
        seed: args.u64("--seed", defaults.seed),
        feedback: args.present("--feedback"),
        churn: churn_schedule(args)?,
        real_docs: args.present("--real-docs"),
        attribution: args.present("--attribution"),
    };
    let results = clients::run_experiment_traced(&params, &telemetry.tracer);
    telemetry.metrics = clients::metrics_json(&results);
    if let Some(path) = args.text("--fetch-mix") {
        std::fs::write(path, clients::fetch_mix_export(&results))
            .map_err(|e| format!("--fetch-mix: write {path}: {e}"))?;
        eprintln!("fetch mixes written to {path}");
    }
    print(args, &clients::to_json(&results), || {
        clients::render(&results)
    });
    Ok(())
}

#[rustfmt::skip]
const ADVERSARY_SPEC: &[FlagSpec] = &[
    num_flag("--budget", "USD", 0.0, MAX_USD_MONTH, "attack budget, $/month (default 55)"),
    hours_flag("scored horizon, hours (default 24)"),
    beam_flag("beam width (default 4)"),
    clients_flag("scoring fleet size (default 200000)"),
    caches_flag("directory caches (default 50)"),
    RELAYS_FLAG,
    SEED_FLAG,
    int_flag("--defender", "H", 0, MAX_HOURS,
        "blocklist victims flooded H consecutive hours (0 = none)"),
    JSON_FLAG,
];

fn cmd_adversary(args: &Args, telemetry: &mut Telemetry) -> Result<(), String> {
    let defaults = adversary::AdversaryParams::default();
    let params = adversary::AdversaryParams {
        budget_usd_month: args.f64("--budget", defaults.budget_usd_month),
        hours: args.u64("--hours", defaults.hours),
        beam: args.u64("--beam", defaults.beam as u64) as usize,
        clients: args.u64("--clients", defaults.clients),
        caches: args.u64("--caches", defaults.caches as u64) as usize,
        relays: args.u64("--relays", defaults.relays),
        seed: args.u64("--seed", defaults.seed),
        defender_trigger_hours: match args.u64("--defender", 0) {
            0 => None,
            trigger => Some(trigger),
        },
    };
    let result = adversary::run_experiment_traced(&params, &telemetry.tracer);
    telemetry.metrics = adversary::to_json(&result);
    print(args, &telemetry.metrics, || adversary::render(&result));
    Ok(())
}

#[rustfmt::skip]
const FRONTIER_SPEC: &[FlagSpec] = &[
    nums_flag("--defense-budget-grid", "USD,..", 0.0, MAX_USD_MONTH,
        "defense budgets, $/month (default 0,15,30,60,120)"),
    num_flag("--attack-budget", "USD", 0.0, MAX_USD_MONTH,
        "attacker budget, $/month (default 120)"),
    num_flag("--target", "FRAC", 0.0, 1.0,
        "client-weighted downtime that counts as denial (default 0.8)"),
    hours_flag("scored horizon, hours (default 24)"),
    beam_flag("beam width, both sides (default 2)"),
    clients_flag("scoring fleet size (default 200000)"),
    caches_flag("directory caches (default 50)"),
    RELAYS_FLAG,
    SEED_FLAG,
    ATTRIBUTION_FLAG,
    JSON_FLAG,
];

fn cmd_frontier(args: &Args, telemetry: &mut Telemetry) -> Result<(), String> {
    let defaults = frontier::FrontierParams::default();
    let params = frontier::FrontierParams {
        defense_budgets: args
            .f64s("--defense-budget-grid")
            .map_or(defaults.defense_budgets.clone(), <[f64]>::to_vec),
        attack_budget_usd_month: args.f64("--attack-budget", defaults.attack_budget_usd_month),
        target_downtime: args.f64("--target", defaults.target_downtime),
        hours: args.u64("--hours", defaults.hours),
        beam: args.u64("--beam", defaults.beam as u64) as usize,
        clients: args.u64("--clients", defaults.clients),
        caches: args.u64("--caches", defaults.caches as u64) as usize,
        relays: args.u64("--relays", defaults.relays),
        seed: args.u64("--seed", defaults.seed),
        attribution: args.present("--attribution"),
    };
    let result = frontier::run_experiment_traced(&params, &telemetry.tracer);
    telemetry.metrics = frontier::to_json(&result);
    print(args, &telemetry.metrics, || frontier::render(&result));
    Ok(())
}

#[rustfmt::skip]
const PLACEMENT_SPEC: &[FlagSpec] = &[
    clients_flag("client fleet size (default 200000)"),
    hours_flag("attacked hours simulated (default 24)"),
    caches_flag("directory caches per strategy (default 40)"),
    RELAYS_FLAG,
    SEED_FLAG,
    int_flag("--greedy", "N", 0, MAX_CACHES,
        "caches the greedy search places (default = --caches; 0 = skip)"),
    flag("--brownout", "REGION", Kind::Enum(&["us-east", "us-west", "europe", "apac"]),
        "brown out one region's caches instead of flooding the authorities"),
    JSON_FLAG,
];

fn cmd_placement(args: &Args, telemetry: &mut Telemetry) -> Result<(), String> {
    let defaults = placement::PlacementParams::default();
    let caches = args.u64("--caches", defaults.caches as u64);
    let params = placement::PlacementParams {
        hours: args.u64("--hours", defaults.hours),
        clients: args.u64("--clients", defaults.clients),
        caches: caches as usize,
        relays: args.u64("--relays", defaults.relays),
        seed: args.u64("--seed", defaults.seed),
        greedy: args.u64("--greedy", caches) as usize,
        brownout: args.text("--brownout").map(|label| {
            partialtor_simnet::Region::from_label(label)
                .expect("--brownout's words are region labels")
        }),
    };
    let result = placement::run_experiment(&params);
    telemetry.metrics = placement::to_json(&result);
    print(args, &telemetry.metrics, || placement::render(&result));
    Ok(())
}

/// The seed shared by the reported figure/table runs.
const REPORT_SEED: u64 = 42;

#[rustfmt::skip]
const FIG_SPEC: &[FlagSpec] = &[
    flag(POSITIONAL, "", Kind::Enum(&["fig1", "fig6", "fig7", "fig10", "fig11", "table1", "table2",
        "cost", "ablations", "availability", "diff-savings"]), "the figure or table to regenerate"),
    int_flag("--step", "N", 1, u64::MAX,
        "relay-count step of the fig10 / fig11 sweeps (default 1000)"),
    hours_flag("attacked hours of the availability timeline (default 6)"),
];

/// Regenerates one figure or table of the paper as text.
fn cmd_fig(args: &Args, _telemetry: &mut Telemetry) -> Result<(), String> {
    let name = args.text(POSITIONAL).unwrap_or_default();
    args.applies_only_to("--step", &["fig10", "fig11"])?;
    args.applies_only_to("--hours", &["availability"])?;
    let step = args.u64("--step", 1_000);
    let seed = REPORT_SEED;
    let text = match name {
        "fig1" => fig1_attack_log::render(&fig1_attack_log::run_experiment(seed)),
        "fig6" => fig6_relays::render(&fig6_relays::run_experiment()),
        "fig7" => fig7_bandwidth::render(&fig7_bandwidth::run_experiment(seed)),
        "fig10" => fig10_latency::render(&fig10_latency::run_experiment(seed, step)),
        "fig11" => fig11_recovery::render(&fig11_recovery::run_experiment(seed, step)),
        "table1" => table1_complexity::render(&table1_complexity::run_experiment(seed)),
        "table2" => table2_rounds::render(&table2_rounds::run_experiment(seed)),
        "cost" => cost::render(&cost::run_experiment()),
        // Three design-choice ablations (timeout scaling, pulsed attacks,
        // fetch policy), each printed as soon as its sweep is done.
        "ablations" => {
            let timeout = ablations::timeout_scaling(seed);
            out!("{}\n", ablations::render_timeout(&timeout));
            let pulse = ablations::pulse_sweep(seed);
            out!("{}\n", ablations::render_pulse(&pulse));
            ablations::render_fetch(&ablations::fetch_policy_comparison(seed))
        }
        "availability" => {
            availability::render(&availability::run_experiment(args.u64("--hours", 6), seed))
        }
        "diff-savings" => diff_savings::render(&diff_savings::run_experiment(seed)),
        _ => return Err("expects the figure or table to regenerate".into()),
    };
    out!("{text}");
    Ok(())
}

/// The top-level usage: one line per [`SUBCOMMANDS`] entry, then the
/// flags every subcommand accepts.
fn usage() -> String {
    let names: Vec<&str> = SUBCOMMANDS.iter().map(|(name, ..)| *name).collect();
    let mut out = format!("usage: dirsim <{}> [options]\n", names.join("|"));
    for (name, about, ..) in SUBCOMMANDS {
        out.push_str(&format!("  {name:<9} {about}\n"));
    }
    out.push_str("run `dirsim <subcommand> --help` for a subcommand's options; all accept:\n");
    out + &flag_help(GLOBAL_FLAGS.iter())
}

/// Subcommand table: name, one-line description, flag spec, handler.
type Handler = fn(&Args, &mut Telemetry) -> Result<(), String>;
#[rustfmt::skip]
const SUBCOMMANDS: &[(&str, &str, &[FlagSpec], Handler)] = &[
    ("run", "protocol runs, each under an optional flood, with health alerts", RUN_SPEC, cmd_run),
    ("clients", "client-visible availability through the distribution layer",
        CLIENTS_SPEC, cmd_clients),
    ("adversary", "budget-constrained strategy search over authorities + caches",
        ADVERSARY_SPEC, cmd_adversary),
    ("frontier", "attacker-defender co-evolution: the cost-of-denial frontier",
        FRONTIER_SPEC, cmd_frontier),
    ("placement", "geographic cache-placement sweep + greedy placement search",
        PLACEMENT_SPEC, cmd_placement),
    ("cost", "the §4.3 DDoS-for-hire price arithmetic", COST_SPEC, cmd_cost),
    ("fig", "regenerate one figure or table of the paper (seed 42)", FIG_SPEC, cmd_fig),
];

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(first) = raw.first() else {
        eprintln!("{}", usage());
        std::process::exit(2);
    };
    if first == "-h" || first == "--help" {
        outln!("{}", usage());
        return;
    }
    let Some((sub, about, spec, handler)) =
        SUBCOMMANDS.iter().find(|(name, ..)| name == first).copied()
    else {
        eprintln!("unknown subcommand {first:?}\n{}", usage());
        std::process::exit(2);
    };
    let command = Command {
        name: &format!("dirsim {sub}"),
        about,
        tables: &[spec, GLOBAL_FLAGS],
    };
    let args = command.parse_or_exit(&raw[1..]);
    set_sweep_threads(
        args.present("--threads")
            .then(|| args.u64("--threads", 1) as usize),
    );
    let mut telemetry = Telemetry::from_args(&args);
    let outcome = handler(&args, &mut telemetry).and_then(|()| telemetry.finish(&args));
    if let Err(error) = outcome {
        command.fail(&error);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_bounded_flag_rejects_values_past_its_bounds() {
        for &(sub, about, spec, _) in SUBCOMMANDS {
            let name = &format!("dirsim {sub}");
            let tables = &[spec, GLOBAL_FLAGS];
            let command = Command {
                name,
                about,
                tables,
            };
            assert_eq!(command.misjudged_values(), Vec::<String>::new());
        }
    }
}
