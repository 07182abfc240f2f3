//! Byte-for-byte goldens of `dirsim`'s machine-readable outputs: every
//! report struct's JSON keys, their order and every number's rendering.
//! A change to a report's fields or to the JSON writer shows up here as
//! a diff against a committed file.
//!
//! Each file under `tests/golden/` is the stdout (or the `--metrics`
//! file) of one command, and is rewritten from the repository root with
//! that same command on a release build:
//!
//! ```text
//! dirsim clients --hours 2 --clients 20000 --caches 10 --relays 500 --feedback --churn weekly --attribution --json > crates/core/tests/golden/clients.json
//! dirsim clients --hours 2 --clients 20000 --caches 10 --relays 500 --feedback --churn weekly --attribution --json --metrics crates/core/tests/golden/clients_metrics.json > /dev/null
//! dirsim attribute --hours 4 --clients 50000 --caches 20 --relays 2000 --seed 9 --json > crates/core/tests/golden/attribute.json
//! dirsim adversary --hours 8 --beam 1 --clients 10000 --caches 5 --budget 54 --defender 2 --json > crates/core/tests/golden/adversary.json
//! dirsim frontier --defense-budget-grid 0,60 --attack-budget 55 --hours 24 --beam 1 --clients 8000 --caches 6 --relays 2000 --attribution --json > crates/core/tests/golden/frontier.json
//! dirsim placement --hours 2 --clients 20000 --caches 12 --relays 500 --greedy 4 --brownout europe --json > crates/core/tests/golden/placement.json
//! dirsim run --relays 300 --protocol all --json > crates/core/tests/golden/run.json
//! dirsim cost --json > crates/core/tests/golden/cost.json
//! ```

use std::path::PathBuf;
use std::process::Command;

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
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

#[test]
fn json_outputs_match_their_goldens() {
    let cases: [(&str, &[&str]); 6] = [
        (
            "attribute.json",
            &[
                "attribute",
                "--hours",
                "4",
                "--clients",
                "50000",
                "--caches",
                "20",
                "--relays",
                "2000",
                "--seed",
                "9",
                "--json",
            ],
        ),
        (
            "adversary.json",
            &[
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
            ],
        ),
        (
            "frontier.json",
            &[
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
            ],
        ),
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
    let dir = std::env::temp_dir().join(format!("dirsim-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
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
        path.to_str().expect("UTF-8 temp path"),
    ];
    assert_golden("clients.json", &stdout(&clients));
    let metrics = std::fs::read_to_string(&path).expect("--metrics writes its file");
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
    assert_golden("clients_metrics.json", &metrics);
}
