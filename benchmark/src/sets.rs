//! Result sets: `--all` runs every workload, untraced and traced, each
//! run in a process of its own (peak memory is per process), and writes
//! one JSON file; `--agree` compares two such files against the bounds in
//! `BENCHMARK.json`.

use crate::harness::RunArgs;
use crate::json::{self, Value};
use crate::metrics::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats;
use std::process::Command;

const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// Untraced runs per workload in a set; the set keeps each metric's
/// median, since one run can sit wholly inside one of the VM's slow
/// spells.
const UNTRACED_RUNS: usize = 3;

/// Runs this executable on one workload and returns its result line.
fn run_child(workload: &str, args: RunArgs, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("{workload}: cannot start: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: no output ({})", output.status))?;
    json::parse(line).map_err(|e| format!("{workload}: last line is not a result: {e}"))
}

/// `(name, value)` of every metric on a result line.
fn metric_values(result: &Value) -> Vec<(String, f64)> {
    result
        .get("metrics")
        .and_then(Value::as_object)
        .unwrap_or(&[])
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect()
}

/// One workload's part of a set: each metric's median over `results`
/// as a JSON object, the ops attempted and failed, and whether every
/// run was correct.
fn summarise(results: &[Value]) -> (String, f64, f64, bool) {
    let mut samples: Vec<(String, Vec<f64>)> = Vec::new();
    let (mut attempted, mut failed, mut correct) = (0.0, 0.0, true);
    for result in results {
        correct &= result.get("correct") == Some(&Value::Bool(true));
        let count = |key: &str| result.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        attempted += count("attempted");
        failed += count("failed");
        for (name, value) in metric_values(result) {
            match samples.iter_mut().find(|(n, _)| *n == name) {
                Some((_, values)) => values.push(value),
                None => samples.push((name, vec![value])),
            }
        }
    }
    let pairs: Vec<String> = samples
        .iter()
        .map(|(name, values)| format!("\"{name}\": {}", json::num(stats::median(values))))
        .collect();
    (
        format!("{{{}}}", pairs.join(", ")),
        attempted,
        failed,
        correct,
    )
}

/// Runs every workload untraced ([`UNTRACED_RUNS`] rounds over all the
/// workloads, so that one slow spell cannot take every run of one
/// workload) and traced (once) and writes the set to `out`. `Ok(false)`
/// when any run reported a failed check.
pub fn run_all(out: &str, args: RunArgs) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut untraced: Vec<Vec<Value>> = vec![Vec::new(); WORKLOADS.len()];
    for round in 1..=UNTRACED_RUNS {
        for (results, workload) in untraced.iter_mut().zip(WORKLOADS) {
            eprintln!("running {workload} --trace 0 ({round} of {UNTRACED_RUNS})");
            results.push(run_child(workload, args, false)?);
        }
    }
    let mut sections = Vec::new();
    let mut all_correct = true;
    for (results, workload) in untraced.iter().zip(WORKLOADS) {
        eprintln!("running {workload} --trace 1");
        let traced = run_child(workload, args, true)?;
        let (end_to_end, a1, f1, c1) = summarise(results);
        let (per_layer, a2, f2, c2) = summarise(&[traced]);
        all_correct &= c1 && c2;
        sections.push(format!(
            "  \"{workload}\": {{\"attempted\": {}, \"failed\": {},\n    \"end_to_end\": {end_to_end},\n    \"per_layer\": {per_layer}}}",
            a1 + a2,
            f1 + f2
        ));
    }
    let text = format!(
        "{{\"nproc\": {nproc}, \"transport\": \"loopback\", \"seed\": {}, \"seconds\": {}, \"untraced_runs\": {UNTRACED_RUNS},\n \"results\": {{\n{}\n }}}}\n",
        args.seed,
        args.seconds,
        sections.join(",\n")
    );
    std::fs::write(out, text).map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!("wrote {out}");
    Ok(all_correct)
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// How much worse `b` is than `a`, as a share of `a`; negative when it
/// is better.
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => b / a - 1.0,
        Better::Higher => 1.0 - b / a,
    }
}

/// One row of the comparison and whether it holds.
fn verdict(
    a: f64,
    b: f64,
    better: Better,
    bound: Option<f64>,
    exact: bool,
) -> (&'static str, bool) {
    if exact {
        return if a.to_bits() == b.to_bits() {
            ("same", true)
        } else {
            ("DIFFERS", false)
        };
    }
    match bound {
        Some(bound) if worsening(a, b, better) > bound => ("WORSE", false),
        Some(_) => ("ok", true),
        None => ("", true),
    }
}

/// Compares set `b` with set `a` (the base of every ratio), one row per
/// metric and workload, leaving out the per-layer metrics a workload
/// does not measure (0 in both sets). End-to-end metrics must not be
/// worse than their bound in `BENCHMARK.json`; exact metrics must be
/// identical; the other per-layer metrics are printed for the reader.
/// `Ok(false)` when a row fails.
pub fn agree(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let benchmark = load(BENCHMARK_JSON)?;
    let bound_of = |name: &str| -> Option<f64> {
        benchmark
            .get("end_to_end")?
            .as_array()?
            .iter()
            .find(|m| m.get("name").and_then(Value::as_str) == Some(name))?
            .get("bound")?
            .as_f64()
    };
    println!(
        "{:<16} {:<36} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "a (base)", "b", "b/a"
    );
    let mut holds = true;
    for workload in WORKLOADS {
        let section = |set: &Value, key: &str, name: &str| -> Option<f64> {
            set.get("results")?
                .get(workload)?
                .get(key)?
                .get(name)?
                .as_f64()
        };
        let tables = [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)];
        for (key, table) in tables {
            for metric in table {
                let (Some(va), Some(vb)) =
                    (section(&a, key, metric.name), section(&b, key, metric.name))
                else {
                    println!("{workload:<16} {:<36} missing from a set", metric.name);
                    holds = false;
                    continue;
                };
                // A layer another workload's traced run measures.
                if key == "per_layer" && va == 0.0 && vb == 0.0 {
                    continue;
                }
                let bound = (key == "end_to_end")
                    .then(|| bound_of(metric.name))
                    .flatten();
                let (word, ok) = verdict(va, vb, metric.better, bound, metric.exact);
                holds &= ok;
                let ratio = if va == 0.0 { f64::NAN } else { vb / va };
                println!(
                    "{workload:<16} {:<36} {va:>16.6} {vb:>16.6} {ratio:>9.4}  {word}",
                    metric.name
                );
            }
        }
    }
    println!("{}", if holds { "sets agree" } else { "sets DISAGREE" });
    Ok(holds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metrics_direction() {
        assert!((worsening(10.0, 11.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 9.0, Better::Higher) - 0.1).abs() < 1e-12);
        assert!(worsening(10.0, 9.0, Better::Lower) < 0.0);
    }

    #[test]
    fn verdicts() {
        assert_eq!(
            verdict(10.0, 10.9, Better::Lower, Some(0.1), false),
            ("ok", true)
        );
        assert_eq!(
            verdict(10.0, 11.1, Better::Lower, Some(0.1), false),
            ("WORSE", false)
        );
        assert_eq!(
            verdict(10.0, 5.0, Better::Lower, Some(0.1), false),
            ("ok", true)
        );
        assert_eq!(
            verdict(48.0, 48.0, Better::Lower, None, true),
            ("same", true)
        );
        assert_eq!(
            verdict(48.0, 49.0, Better::Lower, None, true),
            ("DIFFERS", false)
        );
        assert_eq!(verdict(1.0, 9.0, Better::Lower, None, false), ("", true));
    }

    #[test]
    fn a_set_keeps_each_metrics_median() {
        let line = |value: f64, failed: u32| {
            let text = format!(
                r#"{{"correct": {}, "attempted": 10, "failed": {failed}, "metrics": {{"cpu_ms_per_op": {{"value": {value}, "unit": "ms"}}}}}}"#,
                failed == 0
            );
            json::parse(&text).unwrap()
        };
        let runs = [line(3.0, 0), line(1.0, 0), line(2.0, 0)];
        assert_eq!(
            summarise(&runs),
            (r#"{"cpu_ms_per_op": 2}"#.to_string(), 30.0, 0.0, true)
        );
        let (_, _, failed, correct) = summarise(&[line(1.0, 0), line(1.0, 4)]);
        assert_eq!((failed, correct), (4.0, false));
    }

    #[test]
    fn a_set_agrees_with_itself_and_not_with_a_slower_one() {
        let set = |op_ms: f64| {
            let e2e: Vec<String> = END_TO_END
                .iter()
                .map(|m| {
                    format!(
                        "\"{}\": {}",
                        m.name,
                        if m.name == "cpu_ms_per_op" {
                            op_ms
                        } else {
                            2.0
                        }
                    )
                })
                .collect();
            let layers: Vec<String> = PER_LAYER
                .iter()
                .map(|m| format!("\"{}\": 1", m.name))
                .collect();
            let sections: Vec<String> = WORKLOADS
                .iter()
                .map(|w| {
                    format!(
                        "\"{w}\": {{\"end_to_end\": {{{}}}, \"per_layer\": {{{}}}}}",
                        e2e.join(","),
                        layers.join(",")
                    )
                })
                .collect();
            format!("{{\"results\": {{{}}}}}", sections.join(","))
        };
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-agree-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        std::fs::write(path("a.json"), set(100.0)).unwrap();
        std::fs::write(path("b.json"), set(150.0)).unwrap();
        assert_eq!(agree(&path("a.json"), &path("a.json")), Ok(true));
        assert_eq!(agree(&path("a.json"), &path("b.json")), Ok(false));
        assert_eq!(agree(&path("b.json"), &path("a.json")), Ok(true));
        assert!(agree(&path("a.json"), &path("missing.json")).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
