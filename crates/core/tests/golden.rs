//! Byte-for-byte goldens of `dirsim`'s machine-readable outputs: every
//! report struct's JSON keys, their order and every number's rendering,
//! and the trace exports' records. A change to a report's fields, to the
//! JSON writer or to what a run traces shows up here as a diff against a
//! committed file.
//!
//! Each file under `tests/golden/` is the stdout (or the `--metrics`,
//! `--trace` or `--trace-chrome` file) of one command, and is rewritten
//! from the repository root with that same command on a release build:
//!
//! ```text
//! dirsim clients --hours 2 --clients 20000 --caches 10 --relays 500 --feedback --churn weekly --attribution --json > crates/core/tests/golden/clients.json
//! dirsim clients --hours 2 --clients 20000 --caches 10 --relays 500 --feedback --churn weekly --attribution --json --metrics crates/core/tests/golden/clients_metrics.json > /dev/null
//! dirsim clients --hours 1 --clients 1000 --caches 2 --relays 100 --trace-chrome crates/core/tests/golden/clients.chrome.json > /dev/null
//! dirsim adversary --hours 8 --beam 1 --clients 10000 --caches 5 --budget 54 --defender 2 --json --trace crates/core/tests/golden/adversary.trace.jsonl > crates/core/tests/golden/adversary.json
//! dirsim frontier --defense-budget-grid 0,60 --attack-budget 55 --hours 24 --beam 1 --clients 8000 --caches 6 --relays 2000 --attribution --json --trace crates/core/tests/golden/frontier.trace.jsonl > crates/core/tests/golden/frontier.json
//! dirsim placement --hours 2 --clients 20000 --caches 12 --relays 500 --greedy 4 --brownout europe --json > crates/core/tests/golden/placement.json
//! dirsim run --relays 300 --protocol all --json > crates/core/tests/golden/run.json
//! dirsim cost --json > crates/core/tests/golden/cost.json
//! dirsim frontier --attribution --json > FRONTIER_attribution.json
//! ```
//!
//! The `*.txt` files are the text stdout of the sustained-attack
//! pipeline's commands, which `cli.rs`
//! `small_runs_exit_0_and_print_the_quoted_figures` already runs and
//! byte-compares with them:
//!
//! ```text
//! dirsim clients --hours 2 --clients 20000 --caches 10 --relays 500 --feedback --churn weekly > crates/core/tests/golden/clients_feedback.txt
//! dirsim clients --hours 4 --clients 20000 --caches 10 --relays 2000 --attribution > crates/core/tests/golden/clients_attribution.txt
//! dirsim placement --hours 2 --clients 20000 --caches 16 --relays 500 --greedy 8 > crates/core/tests/golden/placement.txt
//! dirsim adversary --defender 6 --hours 8 > crates/core/tests/golden/adversary.txt
//! dirsim fig availability --hours 3 > crates/core/tests/golden/availability.txt
//! ```
//!
//! The trace tests also check what each trace must say on the fresh
//! text, so a rewritten golden cannot carry a wrong trace in with it.

use std::path::{Path, PathBuf};
use std::process::Command;

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    read(&path)
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn stdout(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_dirsim"))
        .args(args)
        .output()
        .expect("dirsim runs");
    assert!(
        out.status.success(),
        "dirsim {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 stdout")
}

fn assert_golden(name: &str, actual: &str) {
    assert!(
        actual == golden(name),
        "{name} differs from its golden; run the command in this file's doc comment to see how"
    );
}

/// A fresh directory for one test's export files; each test names its
/// own, so tests running side by side never share one.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dirsim-golden-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn arg(path: &Path) -> &str {
    path.to_str().expect("UTF-8 temp path")
}

#[test]
fn json_outputs_match_their_goldens() {
    let cases: [(&str, &[&str]); 3] = [
        (
            "placement.json",
            &[
                "placement",
                "--hours",
                "2",
                "--clients",
                "20000",
                "--caches",
                "12",
                "--relays",
                "500",
                "--greedy",
                "4",
                "--brownout",
                "europe",
                "--json",
            ],
        ),
        (
            "run.json",
            &["run", "--relays", "300", "--protocol", "all", "--json"],
        ),
        ("cost.json", &["cost", "--json"]),
    ];
    for (name, args) in cases {
        assert_golden(name, &stdout(args));
    }
}

/// `clients` prints the same `--json` with `--metrics FILE` as without.
#[test]
fn clients_json_and_metrics_file_match_their_goldens() {
    let dir = scratch("clients");
    let path = dir.join("metrics.json");
    let clients = [
        "clients",
        "--hours",
        "2",
        "--clients",
        "20000",
        "--caches",
        "10",
        "--relays",
        "500",
        "--feedback",
        "--churn",
        "weekly",
        "--attribution",
        "--json",
        "--metrics",
        arg(&path),
    ];
    assert_golden("clients.json", &stdout(&clients));
    let metrics = read(&path);
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
    assert_golden("clients_metrics.json", &metrics);
}

/// The defender's replay of the winning campaign under a two-hour
/// blocklist: `--trace` leaves the `--json` report as it is, the
/// blocklist trips inside the eight-hour horizon, and `--metrics` writes
/// the `--json` document.
#[test]
fn adversary_json_trace_and_metrics_match_their_goldens() {
    let dir = scratch("adversary");
    let (trace_path, metrics_path) = (dir.join("trace.jsonl"), dir.join("metrics.json"));
    let adversary = [
        "adversary",
        "--hours",
        "8",
        "--beam",
        "1",
        "--clients",
        "10000",
        "--caches",
        "5",
        "--budget",
        "54",
        "--defender",
        "2",
        "--json",
        "--trace",
        arg(&trace_path),
        "--metrics",
        arg(&metrics_path),
    ];
    assert_golden("adversary.json", &stdout(&adversary));
    let (trace, metrics) = (read(&trace_path), read(&metrics_path));
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
    assert_golden("adversary.trace.jsonl", &trace);
    assert_golden("adversary.json", &metrics);

    assert!(
        !trace.is_empty() && trace.lines().all(|line| line.starts_with(r#"{"event":""#)),
        "{trace}"
    );
    assert!(
        trace
            .lines()
            .any(|line| line.starts_with(r#"{"event":"blocklist_trigger","#)),
        "{trace}"
    );
}

/// The small-grid frontier: `--trace` leaves the `--json` table as it
/// is, and the $60 row's reaction is in the trace — the detector scrubs
/// the five static victims after their second flagged hour.
#[test]
fn frontier_json_and_trace_match_their_goldens() {
    let dir = scratch("frontier");
    let trace_path = dir.join("trace.jsonl");
    let frontier = [
        "frontier",
        "--defense-budget-grid",
        "0,60",
        "--attack-budget",
        "55",
        "--hours",
        "24",
        "--beam",
        "1",
        "--clients",
        "8000",
        "--caches",
        "6",
        "--relays",
        "2000",
        "--attribution",
        "--json",
        "--trace",
        arg(&trace_path),
    ];
    assert_golden("frontier.json", &stdout(&frontier));
    let trace = read(&trace_path);
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
    assert_golden("frontier.trace.jsonl", &trace);

    let actions: Vec<&str> = trace
        .lines()
        .filter(|line| line.starts_with(r#"{"event":"defense_action","#))
        .collect();
    assert_eq!(actions.len(), 5, "{trace}");
    for (i, line) in actions.iter().enumerate() {
        let want = format!(
            r#"{{"event":"defense_action","action":"detector","hour":3,"target":"auth{i}","#
        );
        assert!(line.starts_with(&want), "{line}");
    }
}

/// The committed frontier table at the repository root is the whole
/// attacker search at its defaults, held in place. The sweep's units of
/// work depend on the worker count; `runner`'s
/// `sweep_parallel_matches_serial_byte_for_byte` holds the reports
/// equal at 1, 2, 4 and 8 workers, so this runs at the default count.
#[test]
fn frontier_attribution_matches_the_committed_table() {
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../FRONTIER_attribution.json");
    assert!(
        stdout(&["frontier", "--attribution", "--json"]) == read(&committed),
        "dirsim frontier --attribution --json differs from FRONTIER_attribution.json"
    );
}

/// `--trace-chrome` on a run small enough to read: each event family on
/// its track, and the publication → fetch → served chains and the
/// link-window pairs as flow arrows.
#[test]
fn chrome_trace_matches_its_golden() {
    let dir = scratch("chrome");
    let path = dir.join("chrome.json");
    let clients = [
        "clients",
        "--hours",
        "1",
        "--clients",
        "1000",
        "--caches",
        "2",
        "--relays",
        "100",
        "--trace-chrome",
        arg(&path),
    ];
    stdout(&clients);
    let chrome = read(&path);
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
    assert_golden("clients.chrome.json", &chrome);

    assert!(chrome.starts_with(r#"{"traceEvents":[{"#), "{chrome}");
    assert!(chrome.contains(r#""ph":"s""#), "no flow arrow: {chrome}");
}
