//! `dirload` — replay a session hour's fetch mix against a daemon.
//!
//! Loads a `FetchMix` (from a `dirsim clients --fetch-mix` export, or
//! synthesized from a small feedback-on session by default), replays it
//! open-loop at `--rate`, and reports achieved throughput, latency
//! percentiles (p50/p90/p99/p99.9, read back from the shared obs
//! registry the run publishes into) and the diff hit rate.
//! `--budget-check` scales the
//! measured payload rate to an hour and prints the ratio against the
//! per-cache service budget the simulation assumes. `--metrics FILE`
//! writes the report as JSON for machines (CI) to parse.

use partialtor_dircached::loadgen;
use partialtor_dircached::{budget_check, synthesize_mix, LoadConfig, LoadReport, LATENCY_METRIC};
use partialtor_dirdist::FetchMix;
use partialtor_obs::cli::{
    bool_flag, flag, int_flag, num_flag, secs_flag, text_flag, Args, Command, FlagSpec, Kind,
    MAX_THREADS,
};
use partialtor_obs::{Histogram, Registry};
use partialtor_simnet::geo::Region;

/// Shortest timeout: 1 ms, as a zero timeout makes every connect fail.
const MIN_TIMEOUT_SECS: f64 = 1e-3;

/// Slowest rate, requests/s: positive, as a zero rate sends nothing.
const MIN_RATE: f64 = 1e-3;

/// Fastest rate, requests/s: `rate × duration` requests stay a u64.
const MAX_RATE: f64 = 1e7;

#[rustfmt::skip]
const FLAGS: &[FlagSpec] = &[
    text_flag("--addr", "HOST:PORT", "daemon address (required)"),
    secs_flag("--duration", 0.0, "how long to replay (default 2)"),
    num_flag("--rate", "N", MIN_RATE, MAX_RATE, "open-loop request rate per second (default 200)"),
    int_flag("--connections", "N", 1, MAX_THREADS, "concurrent client workers (default 4)"),
    secs_flag("--timeout", MIN_TIMEOUT_SECS, "per-request timeout (default 5)"),
    text_flag("--mix", "FILE", "fetchmix export to replay (default: synthesized)"),
    int_flag("--hour", "N", 0, u64::MAX, "pick this hour from the --mix file (default: busiest)"),
    bool_flag("--geo", "pay geo-model midpoint latency per request"),
    flag("--cache-region", "R", Kind::Enum(&["us-east", "us-west", "europe", "apac"]),
        "cache region for --geo (default europe)"),
    int_flag("--seed", "N", 0, u64::MAX, "sampler seed (default 7)"),
    bool_flag("--budget-check", "print measured vs assumed per-cache service budget"),
    text_flag("--metrics", "FILE", "write the report as JSON to FILE"),
    bool_flag("--json", "print the JSON report to stdout instead of the table"),
];

const COMMAND: Command = Command {
    name: "dirload",
    about: "replay a distribution-session fetch mix against a dircached daemon",
    tables: &[FLAGS],
};

/// The run's parameters, with the checks that span flags.
fn load_config(args: &Args) -> Result<LoadConfig, String> {
    let addr = args.text("--addr").ok_or("--addr is required")?;
    args.applies_only_to("--hour", &["--mix"])?;
    let defaults = LoadConfig::default();
    let region = args
        .text("--cache-region")
        .map(|label| Region::from_label(label).expect("--cache-region's words are region labels"));
    Ok(LoadConfig {
        addr: addr.to_string(),
        duration: args.secs("--duration", defaults.duration),
        rate: args.f64("--rate", defaults.rate),
        connections: args.u64("--connections", defaults.connections as u64) as usize,
        timeout: args.secs("--timeout", defaults.timeout),
        seed: args.u64("--seed", defaults.seed),
        geo: args.present("--geo"),
        cache_region: region.unwrap_or(defaults.cache_region),
    })
}

fn load_mix(args: &Args, seed: u64) -> Result<FetchMix, String> {
    let Some(path) = args.text("--mix") else {
        return Ok(synthesize_mix(seed));
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mixes = FetchMix::parse_all(&text)?;
    let hour = args.present("--hour").then(|| args.u64("--hour", 0));
    let mix = match hour {
        Some(hour) => mixes.iter().find(|m| m.hour == hour),
        None => FetchMix::busiest(&mixes),
    };
    mix.cloned().ok_or_else(|| match hour {
        Some(hour) => format!("{path}: no mix for hour {hour}"),
        None => format!("{path}: no mixes in file"),
    })
}

fn render_table(
    report: &LoadReport,
    latency: &Histogram,
    budget: Option<&partialtor_dircached::BudgetCheck>,
) {
    fn ms(v: Option<f64>) -> String {
        v.map_or_else(|| "-".to_string(), |s| format!("{:.2}", s * 1_000.0))
    }
    println!("dirload report");
    println!(
        "  requests     sent={} completed={} failed={} shed={}",
        report.sent, report.completed, report.failed, report.shed
    );
    println!(
        "  mix          bootstrap_fulls={} refreshes={} descriptors={} probes={}",
        report.bootstrap_fulls, report.refresh_requests, report.descriptor_requests, report.probes
    );
    println!(
        "  diffs        hits={} rate={:.1}%",
        report.diff_hits,
        report.diff_hit_rate() * 100.0
    );
    println!(
        "  throughput   {:.1} req/s, {:.1} KiB/s payload over {:.2}s",
        report.achieved_rps(),
        report.payload_bytes as f64 / report.wall_secs.max(1e-9) / 1_024.0,
        report.wall_secs
    );
    println!(
        "  latency ms   p50={} p90={} p99={} p99.9={} (n={})",
        ms(latency.p50()),
        ms(latency.p90()),
        ms(latency.p99()),
        ms(latency.p999()),
        latency.count()
    );
    if let Some(check) = budget {
        println!(
            "  budget       measured={:.2e} B/h assumed={:.2e} B/h ratio={:.3}",
            check.measured_bytes_per_hour, check.assumed_bytes_per_hour as f64, check.ratio
        );
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = COMMAND.parse_or_exit(&raw);
    let load = load_config(&args).unwrap_or_else(|error| COMMAND.fail(&error));
    if let Err(error) = run(&args, &load) {
        eprintln!("dirload: {error}");
        std::process::exit(1);
    }
}

/// Replays the mix, then prints the report (and writes it to
/// `--metrics`).
fn run(args: &Args, load: &LoadConfig) -> Result<(), String> {
    let mix = load_mix(args, load.seed)?;
    // The run publishes into a shared obs registry; the table reads the
    // latency percentiles back out of it, so the numbers printed are the
    // registry's merged histogram, not a private side copy.
    let registry = Registry::new();
    let report = loadgen::run_with_registry(load, &mix, &registry)?;
    let latency = registry.histogram(LATENCY_METRIC);
    let budget = args
        .present("--budget-check")
        .then(|| budget_check(&report));
    let json = report.to_json(budget.as_ref());
    if let Some(path) = args.text("--metrics") {
        std::fs::write(path, &json).map_err(|e| format!("write {path}: {e}"))?;
    }
    if args.present("--json") {
        println!("{json}");
    } else {
        render_table(&report, &latency, budget.as_ref());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_bounded_flag_rejects_values_past_its_bounds() {
        assert_eq!(super::COMMAND.misjudged_values(), Vec::<String>::new());
    }
}
