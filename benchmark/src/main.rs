//! `e2ebench` — the repository's benchmark.
//!
//! ```text
//! e2ebench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! e2ebench --all OUT.json [--seed N] [--seconds S]
//! e2ebench --agree A.json B.json
//! ```
//!
//! One workload per process. An untraced run (`--trace 0`) prints the
//! end-to-end metrics; a traced run (`--trace 1`) repeats the workload
//! with benchmark-owned spans around every call into a layer, runs the
//! layer probes and prints the per-layer metrics. Either way the last
//! line of standard output is one JSON object, and the exit code is
//! non-zero when an output check failed. See `README.md`.

mod harness;
mod json;
mod metrics;
mod probes;
mod serve;
mod sets;
mod sim;
mod spans;
mod stats;

use harness::{RunArgs, RunResult};
use metrics::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use std::process::ExitCode;

/// `--seconds` when not given; `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage:
  e2ebench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
  e2ebench --all OUT.json [--seed N] [--seconds S]
  e2ebench --agree A.json B.json
workloads: clients_day frontier_search session_week serve_reads serve_churn";

enum Command {
    Run { workload: String, args: RunArgs },
    All { out: String, args: RunArgs },
    Agree { a: String, b: String },
}

fn parse_args(argv: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut all = None;
    let mut agree = None;
    let mut args = RunArgs {
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--all" => all = Some(value()?),
            "--agree" => agree = Some((value()?, value()?)),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    match (workload, all, agree) {
        (Some(workload), None, None) if WORKLOADS.contains(&workload.as_str()) => {
            Ok(Command::Run { workload, args })
        }
        (Some(workload), None, None) => Err(format!("unknown workload {workload:?}")),
        (None, Some(out), None) => Ok(Command::All { out, args }),
        (None, None, Some((a, b))) => Ok(Command::Agree { a, b }),
        _ => Err("give exactly one of --workload, --all and --agree".to_string()),
    }
}

fn run_workload(workload: &str, args: RunArgs) -> RunResult {
    match workload {
        "clients_day" => harness::run_sim::<sim::ClientsDay>("clients_day", args),
        "frontier_search" => harness::run_sim::<sim::FrontierSearch>("frontier_search", args),
        "session_week" => harness::run_sim::<sim::SessionWeek>("session_week", args),
        "serve_reads" => serve::run_serve("serve_reads", false, args),
        "serve_churn" => serve::run_serve("serve_churn", true, args),
        other => unreachable!("parse_args admits only declared workloads, not {other}"),
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics of
/// `table`, each with its unit. A per-layer metric this workload's
/// traced run does not measure reads 0.
fn result_line(result: &RunResult, table: &[Metric]) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json::num(result.values.get(m.name).unwrap_or(0.0)),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.tally.correct(),
        result.tally.attempted,
        result.tally.failed,
        metrics.join(", ")
    )
}

fn run_one(workload: &str, args: RunArgs) -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "workload {workload}  seed {}  seconds {}  trace {}  nproc {nproc}  transport loopback",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut result = run_workload(workload, args);
    let table = if args.trace {
        result.values.extend(probes::run(workload, args.seed));
        PER_LAYER
    } else {
        // Read last, so that it covers everything the run did.
        result.values.set("peak_rss_mb", stats::peak_rss_mb());
        for metric in END_TO_END {
            assert!(
                result.values.get(metric.name).is_some(),
                "{workload} did not measure {}",
                metric.name
            );
        }
        END_TO_END
    };

    println!("{:<36} {:>18} {:<6} better", "metric", "value", "unit");
    for m in table {
        let value = result.values.get(m.name).unwrap_or(0.0);
        println!(
            "{:<36} {:>18.6} {:<6} {}",
            m.name,
            value,
            m.unit,
            m.better.as_str()
        );
    }
    print!(
        "ops: {} samples, p50 = {:.3} ms",
        result.op_samples, result.op_ms_p50
    );
    match result.op_tail {
        Some((pct, ms)) => println!(", p{pct} = {ms:.3} ms"),
        None => println!(" (too few for a tail percentile)"),
    }
    println!(
        "checks: {} attempted, {} failed",
        result.tally.attempted, result.tally.failed
    );
    for note in &result.tally.notes {
        println!("  failed: {note}");
    }
    println!("{}", result_line(&result, table));
    if result.tally.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&argv) {
        Ok(Command::Run { workload, args }) => return run_one(&workload, args),
        Ok(Command::All { out, args }) => sets::run_all(&out, args),
        Ok(Command::Agree { a, b }) => sets::agree(&a, &b),
        Err(message) => {
            eprintln!("e2ebench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("e2ebench: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let parsed = parse_args(&argv(&[
            "--workload",
            "serve_churn",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]));
        match parsed {
            Ok(Command::Run { workload, args }) => {
                assert_eq!(workload, "serve_churn");
                assert_eq!((args.seed, args.seconds, args.trace), (7, 20.0, true));
            }
            _ => panic!("did not parse"),
        }
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--workload"],
            &["--workload", "clients_day", "--trace", "2"],
            &["--workload", "clients_day", "--seconds", "0"],
            &["--workload", "clients_day", "--seed", "-1"],
            &["--workload", "clients_day", "--all", "x.json"],
            &["--frobnicate"],
            &[],
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn default_seconds_is_the_benchmarks_run_seconds() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            doc.get("run_seconds").and_then(json::Value::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }

    #[test]
    fn result_line_is_one_json_object_with_the_contract_keys() {
        let mut values = metrics::Values::default();
        values.set("setup_s", 0.25);
        let result = RunResult {
            tally: harness::Tally {
                attempted: 3,
                failed: 0,
                notes: Vec::new(),
            },
            values,
            op_samples: 3,
            op_ms_p50: 1.0,
            op_tail: None,
        };
        let line = result_line(&result, END_TO_END);
        assert!(!line.contains('\n'));
        let doc = json::parse(&line).unwrap();
        let keys: Vec<&str> = doc.as_object().unwrap().iter().map(|(k, _)| &**k).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&json::Value::Bool(true)));
        let setup = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(0.25));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(
            doc.get("metrics").unwrap().as_object().unwrap().len(),
            END_TO_END.len()
        );
    }
}
