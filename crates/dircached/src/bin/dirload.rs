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

use partialtor_dircached::cli::{parse, parse_secs};
use partialtor_dircached::loadgen;
use partialtor_dircached::{budget_check, synthesize_mix, LoadConfig, LoadReport, LATENCY_METRIC};
use partialtor_dirdist::FetchMix;
use partialtor_obs::{Histogram, Registry};
use partialtor_simnet::geo::Region;

const USAGE: &str = "\
usage: dirload --addr HOST:PORT [options]

Replay a distribution-session fetch mix against a dircached daemon.

options:
  --addr HOST:PORT   daemon address (required)
  --duration SECS    how long to replay (default 2)
  --rate N           open-loop request rate per second (default 200)
  --connections N    concurrent client workers (default 4)
  --timeout SECS     per-request timeout (default 5)
  --mix FILE         fetchmix export to replay (default: synthesized)
  --hour N           pick this hour from the mix file (default: busiest)
  --geo              pay geo-model midpoint latency per request
  --cache-region R   cache region for --geo (default europe)
  --seed N           sampler seed (default 7)
  --budget-check     print measured vs assumed per-cache service budget
  --metrics FILE     write the report as JSON to FILE
  --json             print the JSON report to stdout instead of the table
  --help             this text
";

struct Args {
    load: LoadConfig,
    mix_file: Option<String>,
    hour: Option<u64>,
    budget: bool,
    metrics: Option<String>,
    json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        load: LoadConfig::default(),
        mix_file: None,
        hour: None,
        budget: false,
        metrics: None,
        json: false,
    };
    let mut saw_addr = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--help" {
            print!("{USAGE}");
            std::process::exit(0);
        }
        let mut value = |flag: &str| argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--addr" => {
                args.load.addr = value("--addr")?;
                saw_addr = true;
            }
            "--duration" => args.load.duration = parse_secs(&value("--duration")?, "--duration")?,
            "--rate" => args.load.rate = parse(&value("--rate")?, "--rate")?,
            "--connections" => {
                args.load.connections = parse(&value("--connections")?, "--connections")?
            }
            "--timeout" => args.load.timeout = parse_secs(&value("--timeout")?, "--timeout")?,
            "--mix" => args.mix_file = Some(value("--mix")?),
            "--hour" => args.hour = Some(parse(&value("--hour")?, "--hour")?),
            "--geo" => args.load.geo = true,
            "--cache-region" => {
                let label = value("--cache-region")?;
                args.load.cache_region = Region::from_label(&label)
                    .ok_or_else(|| format!("--cache-region: unknown region {label:?}"))?;
            }
            "--seed" => args.load.seed = parse(&value("--seed")?, "--seed")?,
            "--budget-check" => args.budget = true,
            "--metrics" => args.metrics = Some(value("--metrics")?),
            "--json" => args.json = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !saw_addr {
        return Err("--addr is required".to_string());
    }
    if !(args.load.rate > 0.0 && args.load.rate.is_finite()) {
        return Err("--rate must be a positive number".to_string());
    }
    Ok(args)
}

fn load_mix(args: &Args) -> Result<FetchMix, String> {
    let Some(path) = &args.mix_file else {
        return Ok(synthesize_mix(args.load.seed));
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mixes = FetchMix::parse_all(&text)?;
    match args.hour {
        Some(hour) => mixes
            .iter()
            .find(|m| m.hour == hour)
            .cloned()
            .ok_or_else(|| format!("{path}: no mix for hour {hour}")),
        None => FetchMix::busiest(&mixes)
            .cloned()
            .ok_or_else(|| format!("{path}: no mixes in file")),
    }
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
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("dirload: {error}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mix = match load_mix(&args) {
        Ok(mix) => mix,
        Err(error) => {
            eprintln!("dirload: {error}");
            std::process::exit(1);
        }
    };
    // The run publishes into a shared obs registry; the table reads the
    // latency percentiles back out of it, so the numbers printed are the
    // registry's merged histogram, not a private side copy.
    let registry = Registry::new();
    let report = match loadgen::run_with_registry(&args.load, &mix, &registry) {
        Ok(report) => report,
        Err(error) => {
            eprintln!("dirload: {error}");
            std::process::exit(1);
        }
    };
    let latency = registry.histogram(LATENCY_METRIC);
    let budget = args.budget.then(|| budget_check(&report));
    let json = report.to_json(budget.as_ref());
    if let Some(path) = &args.metrics {
        if let Err(error) = std::fs::write(path, &json) {
            eprintln!("dirload: write {path}: {error}");
            std::process::exit(1);
        }
    }
    if args.json {
        println!("{json}");
    } else {
        render_table(&report, &latency, budget.as_ref());
    }
}
