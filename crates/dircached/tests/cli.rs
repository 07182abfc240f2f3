//! Drives the built `dircached` and `dirload` binaries: a bad seconds
//! or rate flag ends with an error, the usage and exit status 2 — never
//! a panic, and never a daemon that serves forever. A mix file that does
//! not parse ends with exit status 1.

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

#[test]
fn dircached_rejects_series_sizes_that_used_to_panic() {
    // Each panicked before binding: the first two on the population
    // slice (`relays + history × churn` wrapped), the third on its
    // capacity.
    let cases: [&[&str]; 3] = [
        &["--relays", "18446744073709551615"],
        &["--churn", "18446744073709551615", "--history", "2"],
        &["--history", "18446744073709551615"],
    ];
    for args in cases {
        let args = [args, &["--serve-secs", "1"]].concat();
        assert_usage_error(env!("CARGO_BIN_EXE_dircached"), "dircached", &args);
    }
}

#[test]
fn dirload_rejects_a_zero_timeout_a_runaway_rate_and_an_hour_without_a_mix() {
    // Each used to get as far as connecting (exit 1); `--hour` without
    // `--mix` was silently ignored.
    let cases: [&[&str]; 3] = [&["--timeout", "0"], &["--rate", "1e300"], &["--hour", "5"]];
    for args in cases {
        let args = [&["--addr", "127.0.0.1:9"], args].concat();
        assert_usage_error(env!("CARGO_BIN_EXE_dirload"), "dirload", &args);
    }
}

#[test]
fn dirload_rejects_a_mix_whose_totals_overflow() {
    // 2⁶⁴ − 1 bootstraps plus one probe: the fetch total leaves u64 (a
    // debug build used to panic picking the busiest hour).
    let path = std::env::temp_dir().join(format!("dirload-overflow-{}.mix", std::process::id()));
    std::fs::write(
        &path,
        "fetchmix v1 hour=1\n\
         bootstrap version=1 count=18446744073709551615 consensus=1 descriptors=0\n\
         probes count=1\n\
         end\n",
    )
    .expect("write mix");
    let mix = path.to_str().expect("UTF-8 temp path");
    let (code, stderr) = run(
        env!("CARGO_BIN_EXE_dirload"),
        &["--addr", "127.0.0.1:9", "--mix", mix],
    );
    std::fs::remove_file(&path).expect("remove mix");
    assert_eq!(code, Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("fetchmix"), "{stderr}");
}
