//! Drives the built `dircached` and `dirload` binaries: a bad seconds
//! or rate flag ends with an error, the usage and exit status 2 — never
//! a panic, and never a daemon that serves forever.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `binary` with `args` and returns its exit code and stderr,
/// killing it if it is still running after ten seconds.
fn run(binary: &str, args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(binary)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().expect("wait").is_none() {
        if Instant::now() > deadline {
            child.kill().expect("kill");
            panic!("{binary} {args:?} still running after 10 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let output = child.wait_with_output().expect("output");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    (output.status.code(), stderr)
}

fn assert_usage_error(binary: &str, name: &str, args: &[&str]) {
    let (code, stderr) = run(binary, args);
    assert_eq!(code, Some(2), "{name} {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{name} {args:?}: {stderr}");
    assert!(
        stderr.contains(&format!("usage: {name}")),
        "{name} {args:?}: {stderr}"
    );
}

#[test]
fn dirload_rejects_bad_seconds_and_rates() {
    for flag in ["--duration", "--timeout"] {
        for value in ["nan", "-1", "inf", "1e300"] {
            // Parsing fails before any connection is attempted.
            assert_usage_error(
                env!("CARGO_BIN_EXE_dirload"),
                "dirload",
                &["--addr", "127.0.0.1:9", flag, value],
            );
        }
    }
    for value in ["nan", "inf", "0", "-5"] {
        assert_usage_error(
            env!("CARGO_BIN_EXE_dirload"),
            "dirload",
            &["--addr", "127.0.0.1:9", "--rate", value],
        );
    }
}

#[test]
fn dircached_rejects_bad_seconds() {
    let cases: [&[&str]; 6] = [
        &["--publish-every", "inf"],
        &["--publish-every", "1e300"],
        &["--publish-every", "nan"],
        &["--serve-secs", "nan"],
        &["--serve-secs", "-1"],
        &["--serve-secs", "inf"],
    ];
    for args in cases {
        assert_usage_error(env!("CARGO_BIN_EXE_dircached"), "dircached", args);
    }
}
