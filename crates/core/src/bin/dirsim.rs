//! `dirsim` — command-line front end for the directory-protocol simulator.
//!
//! ```text
//! dirsim run       [--protocol current|synchronous|icps] [--relays N]
//!                  [--bandwidth MBPS] [--seed N] [--real-docs]
//! dirsim attack    [--protocol ...] [--targets K] [--duration SECS]
//!                  [--flood MBPS] [--relays N] [--seed N]
//! dirsim sweep     [--protocol ...] [--relays N] [--seed N]
//! dirsim clients   [--clients N] [--hours H | --days N] [--caches K] [--relays N]
//!                  [--seed N] [--feedback] [--churn C|weekly] [--real-docs]
//!                  [--attribution] [--json]
//! dirsim attribute [--clients N] [--hours H] [--caches K] [--relays N]
//!                  [--seed N] [--feedback] [--json]
//! dirsim adversary [--budget USD] [--hours H] [--beam K] [--clients N]
//!                  [--caches K] [--relays N] [--seed N] [--defender H] [--json]
//! dirsim frontier  [--defense-budget-grid USD,..] [--attack-budget USD]
//!                  [--target FRAC] [--hours H] [--beam K] [--clients N]
//!                  [--caches K] [--relays N] [--seed N] [--attribution] [--json]
//! dirsim placement [--clients N] [--hours H] [--caches K] [--relays N]
//!                  [--seed N] [--greedy N] [--brownout REGION] [--json]
//! dirsim cost      [--targets K] [--flood MBPS] [--minutes M]
//! dirsim monitor   [--relays N] [--seed N]
//! dirsim fig       <name> [--step N] [--hours H]
//! ```
//!
//! Every subcommand accepts `--json` (machine-readable output on
//! stdout) and the global telemetry flags: `--trace FILE` writes the
//! structured event trace as JSONL (each line carrying the event's span
//! id and causal parent), `--trace-chrome FILE` writes the same records
//! as Chrome trace-event JSON (load in `chrome://tracing` or Perfetto —
//! causal chains render as flow arrows), `--metrics FILE` writes the
//! subcommand's metrics tree as JSON, `--profile` prints a per-phase
//! wall-clock profile to stderr at exit. Telemetry is observational —
//! enabling any of it leaves the simulation output bit-identical.
//!
//! Every subcommand also accepts `--threads N` (pins the sweep worker
//! count; all cores by default) and `--help`/`-h`.
//! Unknown flags and malformed values are rejected with an error and
//! the subcommand's usage — never silently defaulted. When stdout
//! closes early (`dirsim … | head`) the process ends quietly.

use partialtor::adversary::{AttackPlan, AttackWindow, Target};
use partialtor::calibration::{ATTACK_FLOOD_MBPS, N_AUTHORITIES};
use partialtor::experiments::{
    ablations, adversary, attribute, availability, clients, cost, diff_savings, fig10_latency,
    fig11_recovery, fig1_attack_log, fig6_relays, fig7_bandwidth, frontier, placement,
    table1_complexity, table2_rounds,
};
use partialtor::json::Json;
use partialtor::monitor;
use partialtor::protocols::ProtocolKind;
use partialtor::runner::{run, set_sweep_threads, sweep, RunReport, Scenario, SweepJob};
use partialtor::trace_export::{chrome_trace, trace_line};
use partialtor_obs::trace::DEFAULT_TRACE_CAPACITY;
use partialtor_obs::{profile_report, set_profiling, Tracer};
use partialtor_simnet::{SimDuration, SimTime};
use std::collections::BTreeMap;

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

/// One flag a subcommand accepts.
struct FlagSpec {
    /// Flag name, including the leading dashes.
    name: &'static str,
    /// Metavariable shown in usage; `None` marks a boolean flag.
    metavar: Option<&'static str>,
    /// One-line description for `--help`.
    help: &'static str,
}

const fn value_flag(name: &'static str, metavar: &'static str, help: &'static str) -> FlagSpec {
    FlagSpec {
        name,
        metavar: Some(metavar),
        help,
    }
}

const fn bool_flag(name: &'static str, help: &'static str) -> FlagSpec {
    FlagSpec {
        name,
        metavar: None,
        help,
    }
}

/// Flags every subcommand accepts.
const GLOBAL_FLAGS: &[FlagSpec] = &[
    value_flag(
        "--threads",
        "N",
        "sweep worker count (default: all cores; 1 = serial)",
    ),
    value_flag(
        "--trace",
        "FILE",
        "write the structured event trace (JSONL, with span/cause ids)",
    ),
    value_flag(
        "--trace-chrome",
        "FILE",
        "write the trace as Chrome trace-event JSON (chrome://tracing, Perfetto)",
    ),
    value_flag("--metrics", "FILE", "write the subcommand's metrics (JSON)"),
    bool_flag(
        "--profile",
        "print a per-phase wall-clock profile to stderr",
    ),
];

/// Spec name of a subcommand's one positional argument (`dirsim fig
/// <name>`); the token itself is stored as its value.
const POSITIONAL: &str = "<name>";

/// Largest `--relays`: a hundred times the paper's 10 000-relay sweep,
/// and far below where the document-size arithmetic wraps.
const MAX_RELAYS: u64 = 1_000_000;

/// Largest `--clients`: over 300 times the 3 M default fleet, and far
/// below where the fleet's client and byte sums wrap.
const MAX_CLIENTS: u64 = 1_000_000_000;

/// Parsed arguments of one subcommand: flag name → raw value ("" for
/// boolean flags).
struct Args {
    values: BTreeMap<&'static str, String>,
}

fn usage_for(sub: &'static str, about: &str, spec: &[FlagSpec]) -> String {
    let positional = if spec.iter().any(|f| f.name == POSITIONAL) {
        " <name>"
    } else {
        ""
    };
    let mut out = format!("usage: dirsim {sub}{positional} [options]\n  {about}\n  options:\n");
    for flag in spec.iter().chain(GLOBAL_FLAGS) {
        let left = match flag.metavar {
            Some(metavar) => format!("{} {}", flag.name, metavar),
            None => flag.name.to_string(),
        };
        out.push_str(&format!("    {left:<18} {}\n", flag.help));
    }
    out.push_str("    -h, --help         show this help");
    out
}

/// Strictly parses `raw` against `spec`: every token must be a known
/// flag (with its value, if it takes one). `-h`/`--help` prints the
/// usage and exits.
fn parse_args(
    sub: &'static str,
    about: &str,
    spec: &'static [FlagSpec],
    raw: &[String],
) -> Result<Args, String> {
    let mut values = BTreeMap::new();
    let mut tokens = raw.iter();
    while let Some(token) = tokens.next() {
        if token == "-h" || token == "--help" {
            outln!("{}", usage_for(sub, about, spec));
            std::process::exit(0);
        }
        let positional = !token.starts_with('-') && !values.contains_key(POSITIONAL);
        let Some(flag) = spec
            .iter()
            .chain(GLOBAL_FLAGS)
            .find(|f| f.name == token.as_str() || (positional && f.name == POSITIONAL))
        else {
            return Err(format!("unknown argument {token:?}"));
        };
        let value = match flag.metavar {
            None if flag.name == POSITIONAL => token.clone(),
            None => String::new(),
            Some(metavar) => match tokens.next() {
                Some(v) if !v.starts_with("--") => v.clone(),
                _ => return Err(format!("{} expects a value <{metavar}>", flag.name)),
            },
        };
        values.insert(flag.name, value);
    }
    Ok(Args { values })
}

impl Args {
    fn present(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    fn u64(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.values.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("{name} expects an integer, got {raw:?}")),
        }
    }

    /// A count that must be at least one (a step, a beam width).
    fn positive(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.u64(name, default)? {
            0 => Err(format!("{name} must be positive")),
            value => Ok(value),
        }
    }

    /// A count that must not exceed `max`.
    fn at_most(&self, name: &str, default: u64, max: u64) -> Result<u64, String> {
        match self.u64(name, default)? {
            value if value > max => Err(format!("{name} must be at most {max}")),
            value => Ok(value),
        }
    }

    /// `--targets`: authorities a campaign floods, at most the
    /// [`N_AUTHORITIES`] that exist.
    fn targets(&self) -> Result<usize, String> {
        Ok(self.at_most("--targets", 5, N_AUTHORITIES as u64)? as usize)
    }

    /// `--relays`: the relay population, at most [`MAX_RELAYS`].
    fn relays(&self, default: u64) -> Result<u64, String> {
        self.at_most("--relays", default, MAX_RELAYS)
    }

    /// `--clients`: the client fleet size, at most [`MAX_CLIENTS`].
    fn clients(&self, default: u64) -> Result<u64, String> {
        self.at_most("--clients", default, MAX_CLIENTS)
    }

    /// A rate, duration, budget or fraction ([`parse_f64`]).
    fn f64(&self, name: &str, default: f64) -> Result<f64, String> {
        self.values
            .get(name)
            .map_or(Ok(default), |raw| parse_f64(name, raw))
    }

    fn protocol(&self) -> Result<ProtocolKind, String> {
        match self.values.get("--protocol").map(String::as_str) {
            None | Some("icps") | Some("ours") => Ok(ProtocolKind::Icps),
            Some("current") => Ok(ProtocolKind::Current),
            Some("synchronous") | Some("sync") => Ok(ProtocolKind::Synchronous),
            Some(other) => Err(format!(
                "--protocol expects current|synchronous|icps, got {other:?}"
            )),
        }
    }

    fn apply_threads(&self) -> Result<(), String> {
        if self.present("--threads") {
            set_sweep_threads(Some(self.positive("--threads", 1)? as usize));
        }
        Ok(())
    }
}

/// Parses one value of flag `name`: finite and non-negative, as every
/// quantity the flags carry is, so nothing downstream meets a NaN.
fn parse_f64(name: &str, raw: &str) -> Result<f64, String> {
    match raw.trim().parse::<f64>() {
        Ok(value) if value.is_finite() && value >= 0.0 => Ok(value),
        _ => Err(format!(
            "{name} expects a finite, non-negative number, got {raw:?}"
        )),
    }
}

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
        if args.present("--profile") {
            set_profiling(true);
        }
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
            if let Some(path) = args.values.get("--trace") {
                let mut out = String::new();
                for record in &records {
                    out.push_str(&trace_line(record).render());
                    out.push('\n');
                }
                std::fs::write(path, out).map_err(|e| format!("writing trace {path:?}: {e}"))?;
            }
            if let Some(path) = args.values.get("--trace-chrome") {
                std::fs::write(path, format!("{}\n", chrome_trace(&records).render()))
                    .map_err(|e| format!("writing chrome trace {path:?}: {e}"))?;
            }
        }
        if let Some(path) = args.values.get("--metrics") {
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

/// One protocol run as JSON (`dirsim run --json`, and the `report` node
/// of `dirsim attack --json`).
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
                        match authority.digest {
                            Some(digest) => Json::str(digest.short_hex(8)),
                            None => Json::Null,
                        },
                    ),
                ])
            })),
        ),
    ])
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

const PROTOCOL_FLAG: FlagSpec = value_flag("--protocol", "P", "current | synchronous | icps");
const RELAYS_FLAG: FlagSpec = value_flag("--relays", "N", "relay population size");
const SEED_FLAG: FlagSpec = value_flag("--seed", "N", "simulation seed");
const JSON_FLAG: FlagSpec = bool_flag("--json", "emit machine-readable JSON instead of tables");

fn base_scenario(args: &Args) -> Result<Scenario, String> {
    let bandwidth_mbps = args.f64("--bandwidth", 250.0)?;
    if bandwidth_mbps == 0.0 {
        return Err("--bandwidth expects a positive rate, got 0".into());
    }
    Ok(Scenario {
        seed: args.u64("--seed", 1)?,
        relays: args.relays(8_000)?,
        bandwidth_bps: bandwidth_mbps * 1e6,
        real_docs: args.present("--real-docs"),
        ..Scenario::default()
    })
}

fn print_report(report: &RunReport) {
    outln!("protocol      : {}", report.protocol);
    outln!("success       : {}", report.success);
    match report.network_time_secs {
        Some(t) => outln!("latency       : {t:.2} s"),
        None => outln!("latency       : (failed)"),
    }
    if let (Some(first), Some(last)) = (report.first_valid_secs, report.last_valid_secs) {
        outln!("valid between : {first:.2} s and {last:.2} s");
    }
    outln!(
        "traffic       : {} messages, {:.2} MB",
        report.total_tx_msgs,
        report.total_tx_bytes as f64 / 1e6
    );
    outln!("per authority :");
    for authority in &report.authorities {
        outln!(
            "  auth{} success={} digest={}",
            authority.index,
            authority.success,
            authority
                .digest
                .map(|d| d.short_hex(8))
                .unwrap_or_else(|| "-".into())
        );
    }
}

const RUN_SPEC: &[FlagSpec] = &[
    PROTOCOL_FLAG,
    RELAYS_FLAG,
    value_flag("--bandwidth", "MBPS", "authority link rate, Mbit/s"),
    SEED_FLAG,
    bool_flag("--real-docs", "generate real tordoc votes (small N only)"),
    JSON_FLAG,
];

fn cmd_run(args: &Args, telemetry: &mut Telemetry) -> Result<(), String> {
    let report = run(args.protocol()?, &base_scenario(args)?);
    telemetry.metrics = run_report_json(&report);
    if args.present("--json") {
        outln!("{}", telemetry.metrics.render());
    } else {
        print_report(&report);
    }
    Ok(())
}

const ATTACK_SPEC: &[FlagSpec] = &[
    PROTOCOL_FLAG,
    RELAYS_FLAG,
    value_flag("--bandwidth", "MBPS", "authority link rate, Mbit/s"),
    SEED_FLAG,
    bool_flag("--real-docs", "generate real tordoc votes (small N only)"),
    value_flag("--targets", "K", "authorities flooded (default 5)"),
    value_flag("--duration", "SECS", "attack window length (default 300)"),
    value_flag(
        "--flood",
        "MBPS",
        "flood rate per victim (default 240, the §4.3 rate)",
    ),
    JSON_FLAG,
];

fn cmd_attack(args: &Args, telemetry: &mut Telemetry) -> Result<(), String> {
    let mut scenario = base_scenario(args)?;
    let targets = args.targets()?;
    let duration_secs = args.u64("--duration", 300)?;
    if duration_secs > 3_600 {
        return Err("--duration must be at most 3600 (one run per hour)".into());
    }
    let duration = SimDuration::from_secs(duration_secs);
    let flood_mbps = args.f64("--flood", ATTACK_FLOOD_MBPS)?;
    scenario.attack = AttackPlan::new(
        (0..targets)
            .map(|i| AttackWindow::new(Target::Authority(i), SimTime::ZERO, duration, flood_mbps))
            .collect(),
    );
    let cost = scenario.attack.cost();
    let report = run(args.protocol()?, &scenario);
    let alerts = monitor::analyze(&report);
    telemetry.metrics = Json::obj([
        ("report", run_report_json(&report)),
        ("attack_cost_usd", Json::from(cost)),
        ("alerts", alerts_json(&alerts)),
    ]);
    if args.present("--json") {
        outln!("{}", telemetry.metrics.render());
        return Ok(());
    }
    print_report(&report);
    outln!("attack cost   : ${cost:.4} for this window set");
    outln!("\nmonitor alerts:");
    if alerts.is_empty() {
        outln!("  (none)");
    }
    for alert in alerts {
        outln!("  {alert}");
    }
    Ok(())
}

const SWEEP_SPEC: &[FlagSpec] = &[PROTOCOL_FLAG, RELAYS_FLAG, SEED_FLAG, JSON_FLAG];

fn cmd_sweep(args: &Args, telemetry: &mut Telemetry) -> Result<(), String> {
    let protocol = args.protocol()?;
    let base = base_scenario(args)?;
    let bandwidths = [250.0, 50.0, 20.0, 10.0, 5.0, 1.0, 0.5];
    // The whole bandwidth sweep is one parallel batch.
    let jobs: Vec<SweepJob> = bandwidths
        .iter()
        .map(|&mbps| {
            SweepJob::new(
                protocol,
                Scenario {
                    bandwidth_bps: mbps * 1e6,
                    ..base.clone()
                },
            )
        })
        .collect();
    let reports = sweep(&jobs);
    telemetry.metrics = Json::obj([
        ("protocol", Json::str(protocol.to_string())),
        (
            "rows",
            Json::arr(bandwidths.iter().zip(&reports).map(|(&mbps, report)| {
                Json::obj([
                    ("bandwidth_mbps", Json::from(mbps)),
                    ("success", Json::from(report.success)),
                    (
                        "latency_secs",
                        Json::from(report.success.then_some(report.network_time_secs).flatten()),
                    ),
                ])
            })),
        ),
    ]);
    if args.present("--json") {
        outln!("{}", telemetry.metrics.render());
        return Ok(());
    }
    outln!("{:>10} {:>12}", "Mbit/s", "latency (s)");
    for (mbps, report) in bandwidths.into_iter().zip(reports) {
        let cell = report
            .success
            .then_some(report.network_time_secs)
            .flatten()
            .map(|t| format!("{t:.1}"))
            .unwrap_or_else(|| "FAIL".into());
        outln!("{mbps:>10} {cell:>12}");
    }
    Ok(())
}

const COST_SPEC: &[FlagSpec] = &[
    value_flag("--targets", "K", "authorities flooded (default 5)"),
    value_flag("--flood", "MBPS", "flood rate per victim (default 240)"),
    value_flag("--minutes", "M", "minutes per hourly run (default 5)"),
    JSON_FLAG,
];

fn cmd_cost(args: &Args, telemetry: &mut Telemetry) -> Result<(), String> {
    let targets = args.targets()?;
    let flood_mbps = args.f64("--flood", ATTACK_FLOOD_MBPS)?;
    let minutes = args.f64("--minutes", 5.0)?;
    if minutes > 60.0 {
        return Err("--minutes must be at most 60 (one run per hour)".into());
    }
    let plan = cost::hourly_plan(targets, flood_mbps, minutes);
    telemetry.metrics = Json::obj([
        ("targets", Json::from(targets)),
        ("flood_mbps", Json::from(flood_mbps)),
        ("minutes_per_run", Json::from(minutes)),
        ("cost_per_run_usd", Json::from(plan.cost())),
        ("cost_per_month_usd", Json::from(plan.cost_per_month())),
    ]);
    if args.present("--json") {
        outln!("{}", telemetry.metrics.render());
        return Ok(());
    }
    outln!("cost per breached run : ${:.4}", plan.cost());
    outln!("cost per month        : ${:.2}", plan.cost_per_month());
    Ok(())
}

const MONITOR_SPEC: &[FlagSpec] = &[RELAYS_FLAG, SEED_FLAG, JSON_FLAG];

fn cmd_monitor(args: &Args, telemetry: &mut Telemetry) -> Result<(), String> {
    let scenario = base_scenario(args)?;
    let protocols = ProtocolKind::ALL;
    let jobs: Vec<SweepJob> = protocols
        .iter()
        .map(|&protocol| SweepJob::new(protocol, scenario.clone()))
        .collect();
    let rows: Vec<(ProtocolKind, RunReport, Vec<monitor::HealthAlert>)> = protocols
        .into_iter()
        .zip(sweep(&jobs))
        .map(|(protocol, report)| {
            let alerts = monitor::analyze(&report);
            (protocol, report, alerts)
        })
        .collect();
    telemetry.metrics = Json::obj([(
        "protocols",
        Json::arr(rows.iter().map(|(protocol, report, alerts)| {
            Json::obj([
                ("protocol", Json::str(protocol.to_string())),
                ("success", Json::from(report.success)),
                ("alerts", alerts_json(alerts)),
            ])
        })),
    )]);
    if args.present("--json") {
        outln!("{}", telemetry.metrics.render());
        return Ok(());
    }
    for (protocol, report, alerts) in rows {
        outln!(
            "{:<12} success={} alerts={}",
            protocol.to_string(),
            report.success,
            alerts.len()
        );
        for alert in alerts {
            outln!("  {alert}");
        }
    }
    Ok(())
}

const CLIENTS_SPEC: &[FlagSpec] = &[
    value_flag("--clients", "N", "client fleet size (default 3000000)"),
    value_flag("--hours", "H", "attacked hours simulated (default 24)"),
    value_flag(
        "--days",
        "N",
        "attacked days simulated (sets --hours to 24 N)",
    ),
    value_flag("--caches", "K", "directory caches (default 200)"),
    RELAYS_FLAG,
    SEED_FLAG,
    bool_flag(
        "--feedback",
        "close the fetch-feedback loop (hour h's client load hits hour h+1's links)",
    ),
    value_flag(
        "--churn",
        "C",
        "hourly relay churn: a rate (default 0.02) or 'weekly' (Fig. 6 series)",
    ),
    bool_flag(
        "--real-docs",
        "measure document sizes from real tordoc consensuses (small --relays only)",
    ),
    value_flag(
        "--fetch-mix",
        "FILE",
        "export the Current protocol's per-hour fetch mixes for dirload replay",
    ),
    bool_flag(
        "--attribution",
        "decompose each hour's downtime into additive blame causes (observational)",
    ),
    JSON_FLAG,
];

/// Parses `--churn`: a bare rate, or `weekly` for the Fig. 6 schedule.
fn churn_schedule(args: &Args) -> Result<partialtor_dirdist::ChurnSchedule, String> {
    use partialtor_dirdist::ChurnSchedule;
    match args.values.get("--churn").map(String::as_str) {
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
    let hours = match args.u64("--days", 0)? {
        0 => args.u64("--hours", 24)?,
        days => {
            if args.present("--hours") {
                return Err("--days and --hours are mutually exclusive".into());
            }
            days.checked_mul(24).ok_or("--days is too large")?
        }
    };
    let relays = args.relays(8_000)?;
    if args.present("--real-docs") && relays > clients::REAL_DOCS_MAX_RELAYS {
        return Err(format!(
            "--real-docs builds real documents; use --relays {} or fewer",
            clients::REAL_DOCS_MAX_RELAYS
        ));
    }
    let params = clients::ClientsParams {
        hours,
        clients: args.clients(3_000_000)?,
        caches: args.u64("--caches", 200)? as usize,
        relays,
        seed: args.u64("--seed", 1)?,
        feedback: args.present("--feedback"),
        churn: churn_schedule(args)?,
        real_docs: args.present("--real-docs"),
        attribution: args.present("--attribution"),
    };
    let results = clients::run_experiment_traced(&params, &telemetry.tracer);
    telemetry.metrics = clients::metrics_json(&results);
    if let Some(path) = args.values.get("--fetch-mix") {
        std::fs::write(path, clients::fetch_mix_export(&results))
            .map_err(|e| format!("--fetch-mix: write {path}: {e}"))?;
        eprintln!("fetch mixes written to {path}");
    }
    if args.present("--json") {
        outln!("{}", clients::to_json(&results).render());
    } else {
        out!("{}", clients::render(&results));
    }
    Ok(())
}

const ATTRIBUTE_SPEC: &[FlagSpec] = &[
    value_flag("--clients", "N", "client fleet size (default 3000000)"),
    value_flag("--hours", "H", "attacked hours simulated (default 24)"),
    value_flag("--caches", "K", "directory caches (default 200)"),
    RELAYS_FLAG,
    SEED_FLAG,
    bool_flag(
        "--feedback",
        "close the fetch-feedback loop (hour h's client load hits hour h+1's links)",
    ),
    JSON_FLAG,
];

fn cmd_attribute(args: &Args, telemetry: &mut Telemetry) -> Result<(), String> {
    let defaults = attribute::AttributeParams::default();
    let params = attribute::AttributeParams {
        hours: args.u64("--hours", defaults.hours)?,
        clients: args.clients(defaults.clients)?,
        caches: args.u64("--caches", defaults.caches as u64)? as usize,
        relays: args.relays(defaults.relays)?,
        seed: args.u64("--seed", defaults.seed)?,
        feedback: args.present("--feedback"),
    };
    let result = attribute::run_experiment_traced(&params, &telemetry.tracer);
    telemetry.metrics = attribute::to_json(&result);
    if args.present("--json") {
        outln!("{}", telemetry.metrics.render());
    } else {
        out!("{}", attribute::render(&result));
    }
    Ok(())
}

const ADVERSARY_SPEC: &[FlagSpec] = &[
    value_flag("--budget", "USD", "attack budget, $/month (default 55)"),
    value_flag("--hours", "H", "scored horizon, hours (default 24)"),
    value_flag("--beam", "K", "beam width (default 4)"),
    value_flag("--clients", "N", "scoring fleet size (default 200000)"),
    value_flag("--caches", "K", "directory caches (default 50)"),
    RELAYS_FLAG,
    SEED_FLAG,
    value_flag(
        "--defender",
        "H",
        "blocklist victims flooded H consecutive hours (0 = no defender)",
    ),
    JSON_FLAG,
];

fn cmd_adversary(args: &Args, telemetry: &mut Telemetry) -> Result<(), String> {
    let defaults = adversary::AdversaryParams::default();
    let params = adversary::AdversaryParams {
        budget_usd_month: args.f64("--budget", defaults.budget_usd_month)?,
        hours: args.u64("--hours", defaults.hours)?,
        beam: args.positive("--beam", defaults.beam as u64)? as usize,
        clients: args.clients(defaults.clients)?,
        caches: args.u64("--caches", defaults.caches as u64)? as usize,
        relays: args.relays(defaults.relays)?,
        seed: args.u64("--seed", defaults.seed)?,
        defender_trigger_hours: match args.u64("--defender", 0)? {
            0 => None,
            trigger => Some(trigger),
        },
    };
    let result = adversary::run_experiment_traced(&params, &telemetry.tracer);
    telemetry.metrics = adversary::to_json(&result);
    if args.present("--json") {
        outln!("{}", telemetry.metrics.render());
    } else {
        out!("{}", adversary::render(&result));
    }
    Ok(())
}

const FRONTIER_SPEC: &[FlagSpec] = &[
    value_flag(
        "--defense-budget-grid",
        "USD,..",
        "defense budgets to sweep, $/month (default 0,15,30,60,120)",
    ),
    value_flag(
        "--attack-budget",
        "USD",
        "attacker budget, $/month (default 120)",
    ),
    value_flag(
        "--target",
        "FRAC",
        "client-weighted downtime that counts as denial (default 0.8)",
    ),
    value_flag("--hours", "H", "scored horizon, hours (default 24)"),
    value_flag("--beam", "K", "beam width, both sides (default 2)"),
    value_flag("--clients", "N", "scoring fleet size (default 200000)"),
    value_flag("--caches", "K", "directory caches (default 50)"),
    RELAYS_FLAG,
    SEED_FLAG,
    bool_flag(
        "--attribution",
        "decompose each row's downtime into additive blame causes (observational)",
    ),
    JSON_FLAG,
];

fn cmd_frontier(args: &Args, telemetry: &mut Telemetry) -> Result<(), String> {
    let defaults = frontier::FrontierParams::default();
    let defense_budgets = match args.values.get("--defense-budget-grid") {
        None => defaults.defense_budgets.clone(),
        Some(raw) => raw
            .split(',')
            .map(|usd| parse_f64("--defense-budget-grid", usd))
            .collect::<Result<Vec<f64>, String>>()?,
    };
    let target_downtime = args.f64("--target", defaults.target_downtime)?;
    if !(0.0..=1.0).contains(&target_downtime) {
        return Err(format!(
            "--target expects a fraction in [0, 1], got {target_downtime}"
        ));
    }
    let params = frontier::FrontierParams {
        defense_budgets,
        attack_budget_usd_month: args.f64("--attack-budget", defaults.attack_budget_usd_month)?,
        target_downtime,
        hours: args.u64("--hours", defaults.hours)?,
        beam: args.positive("--beam", defaults.beam as u64)? as usize,
        clients: args.clients(defaults.clients)?,
        caches: args.u64("--caches", defaults.caches as u64)? as usize,
        relays: args.relays(defaults.relays)?,
        seed: args.u64("--seed", defaults.seed)?,
        attribution: args.present("--attribution"),
    };
    let result = frontier::run_experiment_traced(&params, &telemetry.tracer);
    telemetry.metrics = frontier::to_json(&result);
    if args.present("--json") {
        outln!("{}", telemetry.metrics.render());
    } else {
        out!("{}", frontier::render(&result));
    }
    Ok(())
}

const PLACEMENT_SPEC: &[FlagSpec] = &[
    value_flag("--clients", "N", "client fleet size (default 200000)"),
    value_flag("--hours", "H", "attacked hours simulated (default 24)"),
    value_flag(
        "--caches",
        "K",
        "directory caches per strategy (default 40)",
    ),
    RELAYS_FLAG,
    SEED_FLAG,
    value_flag(
        "--greedy",
        "N",
        "caches the greedy search places (default = --caches; 0 = skip)",
    ),
    value_flag(
        "--brownout",
        "REGION",
        "brown out one region's caches instead of flooding the authorities \
         (us-east | us-west | europe | apac)",
    ),
    JSON_FLAG,
];

fn cmd_placement(args: &Args, telemetry: &mut Telemetry) -> Result<(), String> {
    let defaults = placement::PlacementParams::default();
    let caches = args.u64("--caches", defaults.caches as u64)? as usize;
    let params = placement::PlacementParams {
        hours: args.u64("--hours", defaults.hours)?,
        clients: args.clients(defaults.clients)?,
        caches,
        relays: args.relays(defaults.relays)?,
        seed: args.u64("--seed", defaults.seed)?,
        greedy: args.u64("--greedy", caches as u64)? as usize,
        brownout: match args.values.get("--brownout") {
            None => None,
            Some(raw) => Some(partialtor_simnet::Region::from_label(raw).ok_or_else(|| {
                format!("--brownout expects us-east|us-west|europe|apac, got {raw:?}")
            })?),
        },
    };
    let result = placement::run_experiment(&params);
    telemetry.metrics = placement::to_json(&result);
    if args.present("--json") {
        outln!("{}", telemetry.metrics.render());
    } else {
        out!("{}", placement::render(&result));
    }
    Ok(())
}

/// The seed shared by the reported figure/table runs.
const REPORT_SEED: u64 = 42;

const FIG_SPEC: &[FlagSpec] = &[
    bool_flag(
        POSITIONAL,
        "fig1 | fig6 | fig7 | fig10 | fig11 | table1 | table2 | cost | ablations | \
         availability | diff-savings",
    ),
    value_flag(
        "--step",
        "N",
        "relay-count step of the fig10 / fig11 sweeps (default 1000, the paper's)",
    ),
    value_flag(
        "--hours",
        "H",
        "attacked hours of the availability timeline (default 6)",
    ),
];

/// Regenerates one figure or table of the paper as text.
fn cmd_fig(args: &Args, _telemetry: &mut Telemetry) -> Result<(), String> {
    let name = args.values.get(POSITIONAL).map_or("", String::as_str);
    for (flag, users) in [
        ("--step", &["fig10", "fig11"][..]),
        ("--hours", &["availability"][..]),
    ] {
        if args.present(flag) && !users.contains(&name) {
            return Err(format!("{flag} applies only to {}", users.join(", ")));
        }
    }
    let step = args.positive("--step", 1_000)?;
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
            let hours = args.u64("--hours", 6)?;
            availability::render(&availability::run_experiment(hours, seed))
        }
        "diff-savings" => diff_savings::render(&diff_savings::run_experiment(seed)),
        "" => return Err("expects the figure or table to regenerate".into()),
        other => return Err(format!("unknown figure {other:?}")),
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
    out.push_str(
        "run `dirsim <subcommand> --help` for the subcommand's options;
every subcommand also accepts --threads N (1 = serial sweeps),
--trace FILE (JSONL event trace with span/cause ids),
--trace-chrome FILE (Chrome trace-event JSON for chrome://tracing),
--metrics FILE (metrics JSON)
and --profile (per-phase wall-clock profile on stderr)",
    );
    out
}

/// Subcommand table: name, one-line description, flag spec, handler.
type Handler = fn(&Args, &mut Telemetry) -> Result<(), String>;
const SUBCOMMANDS: &[(&str, &str, &[FlagSpec], Handler)] = &[
    ("run", "one protocol run", RUN_SPEC, cmd_run),
    (
        "attack",
        "one run under a bandwidth-DDoS window set",
        ATTACK_SPEC,
        cmd_attack,
    ),
    (
        "sweep",
        "latency across a bandwidth grid",
        SWEEP_SPEC,
        cmd_sweep,
    ),
    (
        "clients",
        "client-visible availability through the distribution layer",
        CLIENTS_SPEC,
        cmd_clients,
    ),
    (
        "attribute",
        "exact blame decomposition of the five-of-nine downtime",
        ATTRIBUTE_SPEC,
        cmd_attribute,
    ),
    (
        "adversary",
        "budget-constrained strategy search over authorities + caches",
        ADVERSARY_SPEC,
        cmd_adversary,
    ),
    (
        "frontier",
        "attacker-defender co-evolution: the cost-of-denial frontier",
        FRONTIER_SPEC,
        cmd_frontier,
    ),
    (
        "placement",
        "geographic cache-placement sweep + greedy placement search",
        PLACEMENT_SPEC,
        cmd_placement,
    ),
    (
        "cost",
        "the §4.3 DDoS-for-hire price arithmetic",
        COST_SPEC,
        cmd_cost,
    ),
    (
        "monitor",
        "run all three protocols through the bandwidth monitor",
        MONITOR_SPEC,
        cmd_monitor,
    ),
    (
        "fig",
        "regenerate one figure or table of the paper (seed 42)",
        FIG_SPEC,
        cmd_fig,
    ),
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
    let outcome = parse_args(sub, about, spec, &raw[1..])
        .and_then(|args| args.apply_threads().map(|()| args))
        .and_then(|args| {
            let mut telemetry = Telemetry::from_args(&args);
            handler(&args, &mut telemetry)?;
            telemetry.finish(&args)
        });
    if let Err(error) = outcome {
        eprintln!("dirsim {sub}: {error}");
        eprintln!("{}", usage_for(sub, about, spec));
        std::process::exit(2);
    }
}
