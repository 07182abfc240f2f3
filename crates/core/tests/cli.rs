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
    let cases: [&[&str]; 41] = [
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
        &["attribute", "--hours", "18446744073709551615"],
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
    ];
    for args in cases {
        let output = dirsim().args(args).output().expect("dirsim runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: dirsim"), "{args:?}: {stderr}");
        assert!(output.stdout.is_empty(), "{args:?} printed a report");
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
