//! Drives the built `dirsim` binary: nothing reachable from the command
//! line may panic. Bad values end with an error, the subcommand's usage
//! and exit status 2; a stdout that closes early ends the process
//! quietly.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

fn dirsim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dirsim"))
}

#[test]
fn bad_budgets_targets_and_typos_exit_2_without_panicking() {
    let cases: [&[&str]; 42] = [
        &["adversary", "--budget", "-1"],
        &["adversary", "--budget", "nan"],
        &["frontier", "--defense-budget-grid", "nan"],
        &["frontier", "--defense-budget-grid", "0,-5"],
        &["frontier", "--attack-budget", "-1"],
        &["frontier", "--target", "1.5"],
        // Physical quantities used to run or print with these.
        &["cost", "--minutes", "-3"],
        &["cost", "--flood", "nan"],
        // A campaign no hourly price describes: a tenth authority, 2⁶⁴
        // of them, more than one run's worth of minutes per hour.
        &["cost", "--targets", "10"],
        &["cost", "--targets", "18446744073709551615"],
        &["cost", "--minutes", "61"],
        &["run", "--bandwidth", "nan"],
        &["run", "--bandwidth", "0"],
        &["run", "--bandwidth", "-5"],
        &["run", "--flood", "nan"],
        &["run", "--flood", "-1"],
        // A flood prices its windows by `cost`'s rules: these used to
        // flood nine authorities, and wrap the window to a cent.
        &["run", "--targets", "10"],
        &["run", "--duration", "3601"],
        // `24 * days` used to wrap to an 8-hour run.
        &["clients", "--days", "768614336404564651"],
        // Both searches used to report beam 0 and search beam 1.
        &["adversary", "--beam", "0"],
        &["frontier", "--beam", "0"],
        // Document and fleet sizes whose byte arithmetic used to wrap:
        // a run "succeeded" on 1.45 MB, a fleet went −561 484 % stale.
        &["run", "--relays", "1000001"],
        &["clients", "--relays", "18446744073709551615"],
        &["clients", "--clients", "1000000001"],
        &["adversary", "--clients", "18446744073709551615"],
        // A fleet of no clients used to be reported 100 % stale.
        &["clients", "--clients", "0"],
        // Horizons that used to abort out of memory, and cache tiers
        // that used to panic on capacity overflow or abort allocating
        // an 80 GB latency matrix.
        &["clients", "--hours", "18446744073709551615"],
        &["frontier", "--hours", "18446744073709551615"],
        &["placement", "--hours", "18446744073709551615"],
        &["fig", "availability", "--hours", "18446744073709551615"],
        &["clients", "--caches", "18446744073709551615"],
        &["adversary", "--caches", "18446744073709551615"],
        &[
            "clients",
            "--caches",
            "100000",
            "--hours",
            "1",
            "--clients",
            "10000",
            "--relays",
            "200",
        ],
        // Zero sweep workers used to run serially, as one does.
        &["run", "--threads", "0"],
        // The figure binaries' lenient parser used to turn this typo
        // into the full 1000-step sweep.
        &["fig", "fig11", "--stpe", "1"],
        &["fig", "table2", "--step", "2000"],
        // A zero step used to grow the sweep without end.
        &["fig", "fig10", "--step", "0"],
        &["fig", "fig11", "--step", "0"],
        &["fig", "fig99"],
        &["fig"],
        // `clients --attribution` is the one blame report: the old
        // `attribute` name must fail loudly, not run something else.
        &["attribute"],
        &["attribute", "--hours", "4"],
    ];
    for args in cases {
        let output = dirsim().args(args).output().expect("dirsim runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: dirsim"), "{args:?}: {stderr}");
        assert!(output.stdout.is_empty(), "{args:?} printed a report");
        if args[0] == "attribute" {
            assert!(stderr.contains("unknown subcommand"), "{args:?}: {stderr}");
        }
    }
}

/// Runs `dirsim run` with `args`, which must succeed, and returns its
/// stdout.
fn run_stdout(args: &[&str]) -> String {
    let output = dirsim()
        .arg("run")
        .args(args)
        .output()
        .expect("dirsim runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "run {args:?}: {stderr}");
    String::from_utf8(output.stdout).expect("UTF-8 output")
}

#[test]
fn a_batch_prints_exactly_what_its_single_runs_print() {
    let batch = ["--relays", "300", "--targets", "5", "--duration", "60"];
    let protocols = ["current", "synchronous", "icps"];
    let bandwidths = ["250", "0.5"];
    for json in [&[][..], &["--json"][..]] {
        let all = [
            &batch[..],
            &["--protocol", "all", "--bandwidth", "250,0.5"],
            json,
        ]
        .concat();
        let mut singles = String::new();
        for protocol in protocols {
            for bandwidth in bandwidths {
                let one = [
                    &batch[..],
                    &["--protocol", protocol, "--bandwidth", bandwidth],
                    json,
                ];
                singles += &run_stdout(&one.concat());
            }
        }
        let printed = run_stdout(&all);
        assert_eq!(printed, singles, "--json: {}", !json.is_empty());
        let blocks = if json.is_empty() {
            printed.matches("protocol      : ").count()
        } else {
            printed.lines().count()
        };
        assert_eq!(blocks, protocols.len() * bandwidths.len());
    }
}

#[test]
fn top_level_help_lists_every_subcommand_description() {
    let output = dirsim().arg("--help").output().expect("dirsim runs");
    assert!(output.status.success());
    let help = String::from_utf8_lossy(&output.stdout).into_owned();
    let subcommands = help
        .lines()
        .next()
        .and_then(|line| line.split_once('<'))
        .and_then(|(_, rest)| rest.split_once('>'))
        .map(|(names, _)| names.to_string())
        .expect("usage line names the subcommands");
    for sub in subcommands.split('|') {
        let output = dirsim()
            .args([sub, "--help"])
            .output()
            .expect("dirsim runs");
        assert!(output.status.success(), "{sub} --help");
        let sub_help = String::from_utf8_lossy(&output.stdout).into_owned();
        let about = sub_help.lines().nth(1).expect("description line").trim();
        assert!(
            help.lines()
                .any(|line| line.trim_start().strip_prefix(sub).map(str::trim) == Some(about)),
            "dirsim --help lacks {sub:?}'s description {about:?}:\n{help}"
        );
    }
}

#[test]
fn a_reader_that_closes_the_pipe_after_one_line_sees_no_panic() {
    // `fig ablations` prints three tables with a sweep before each, so
    // its second write is certain to find the pipe already closed.
    let mut child = dirsim()
        .args(["fig", "ablations"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("dirsim runs");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    stdout.read_line(&mut first).expect("one line of output");
    assert!(first.starts_with("=== Ablation 1"), "{first:?}");
    drop(stdout);

    let output = child.wait_with_output().expect("dirsim exits");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{:?}: {stderr}", output.status);
    assert!(stderr.is_empty(), "{stderr}");
}

#[test]
fn small_runs_exit_0_and_print_the_quoted_figures() {
    // The two rows README quotes for the reactive defender, the §4.3
    // price per run and per month, the availability figure's verdicts
    // (Current dies at 3 h, ICPS stays up) and Fig. 1's failure line.
    // The commands of the sustained-attack pipeline also print exactly
    // their text golden under `tests/golden/` (`golden.rs` lists the
    // command that rewrites each file). The attributed one runs at
    // 2 000 relays, where the flood breaks Current in hours 3 and 4, so
    // its golden holds an outage and its `quorum_lost` blame.
    let cases: [(&str, &[&str], Option<&str>); 21] = [
        ("run --relays 500 --seed 1", &[], None),
        ("run --relays 500 --targets 5 --duration 60 --flood 240", &[], None),
        ("run --relays 200 --protocol current --bandwidth 250,50,20,10,5,1,0.5", &[], None),
        ("run --relays 200 --protocol current --bandwidth 250,50,20,10,5,1,0.5 --json", &[], None),
        ("run --relays 500 --protocol all", &[], None),
        ("run --relays 300 --json", &[], None),
        ("run --relays 300 --targets 5 --duration 60 --json", &[], None),
        (
            "clients --hours 2 --clients 20000 --caches 10 --relays 500 --feedback --churn weekly",
            &[],
            Some("clients_feedback.txt"),
        ),
        ("clients --hours 1 --clients 10000 --caches 8 --relays 120 --real-docs --json", &[], None),
        (
            "clients --hours 4 --clients 20000 --caches 10 --relays 2000 --attribution",
            &["client-weighted downtime 40.00%, dominated by quorum_lost"],
            Some("clients_attribution.txt"),
        ),
        ("adversary --hours 1 --beam 1 --clients 10000 --caches 5 --budget 54 --defender 6 --json", &[], None),
        ("adversary --hours 1 --beam 1 --clients 10000 --caches 5 --budget 54 --json", &[], None),
        ("adversary --defender 6 --hours 8", &["66.7%", "46.5%"], Some("adversary.txt")),
        (
            "placement --hours 2 --clients 20000 --caches 16 --relays 500 --greedy 8",
            &[],
            Some("placement.txt"),
        ),
        (
            "placement --hours 2 --clients 20000 --caches 12 --relays 500 --greedy 0 --brownout europe --json",
            &[],
            None,
        ),
        ("cost --targets 5 --flood 240 --minutes 5", &["$0.0740", "$53.28"], None),
        ("fig table2", &[], None),
        (
            "fig cost",
            &["\npaper headline (5 × 240 Mbit/s, 5 min hourly)          5        240      0.074        53.28\n"],
            None,
        ),
        ("fig fig11 --step 4000", &[], None),
        (
            "fig availability --hours 3",
            &[
                "network down from t = 10800 s (3.0 h) onwards",
                "network stayed up for the whole period",
                "client-weighted downtime: 25.0% of client-time lost",
            ],
            Some("availability.txt"),
        ),
        ("fig fig1", &["4 of 5", "Asking every other authority for a copy"], None),
    ];
    for (command, quoted, golden) in cases {
        let output = dirsim()
            .args(command.split_whitespace())
            .output()
            .expect("dirsim runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(output.status.success(), "{command}: {stderr}");
        let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
        for figure in quoted {
            assert!(
                stdout.contains(figure),
                "{command} lacks {figure:?}:\n{stdout}"
            );
        }
        if let Some(name) = golden {
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("tests/golden")
                .join(name);
            let want = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert!(
                stdout == want,
                "{command} differs from {name}; golden.rs lists the command that rewrites it"
            );
        }
    }
}

/// `--profile` prints its phase table to stderr only: with it and the
/// three export files on, stdout is the bare command's byte for byte,
/// the trace is one `event` object per line, the Chrome document holds
/// events and `--metrics` writes the experiment's metrics tree.
#[test]
fn profile_goes_to_stderr_and_exports_leave_stdout_byte_identical() {
    use partialtor::experiments::clients::{metrics_json, run_experiment, ClientsParams};

    let clients = "clients --hours 2 --clients 20000 --caches 10 --relays 500 --feedback";
    let bare = dirsim()
        .args(clients.split_whitespace())
        .output()
        .expect("dirsim runs");
    assert!(bare.status.success() && bare.stderr.is_empty());

    let dir = std::env::temp_dir().join(format!("dirsim-cli-profile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (trace, chrome, metrics) = (
        dir.join("trace.jsonl"),
        dir.join("chrome.json"),
        dir.join("metrics.json"),
    );
    let telemetry = dirsim()
        .args(clients.split_whitespace())
        .arg("--trace")
        .arg(&trace)
        .arg("--trace-chrome")
        .arg(&chrome)
        .arg("--metrics")
        .arg(&metrics)
        .arg("--profile")
        .output()
        .expect("dirsim runs");
    let read = |p: &std::path::Path| std::fs::read_to_string(p).expect("export written");
    let (trace, chrome, metrics) = (read(&trace), read(&chrome), read(&metrics));
    std::fs::remove_dir_all(&dir).expect("temp dir removed");

    let stderr = String::from_utf8(telemetry.stderr).expect("UTF-8 stderr");
    assert!(telemetry.status.success(), "{stderr}");
    assert!(telemetry.stdout == bare.stdout, "telemetry changed stdout");
    let mut table = stderr.lines();
    assert_eq!(
        table
            .next()
            .map(|header| header.split_whitespace().collect::<Vec<_>>()),
        Some(vec!["phase", "calls", "total", "(s)"]),
        "{stderr}"
    );
    // Two protocols × two attacked hours.
    assert!(
        table.any(|row| row.split_whitespace().take(2).eq(["runner.run", "4"])),
        "{stderr}"
    );

    assert!(
        !trace.is_empty() && trace.lines().all(|line| line.starts_with(r#"{"event":""#)),
        "{trace}"
    );
    assert!(chrome.starts_with(r#"{"traceEvents":[{"#), "{chrome}");
    let params = ClientsParams {
        hours: 2,
        clients: 20_000,
        caches: 10,
        relays: 500,
        feedback: true,
        ..ClientsParams::default()
    };
    assert_eq!(
        metrics,
        format!("{}\n", metrics_json(&run_experiment(&params)).render())
    );
}
