//! What one protocol run costs in signature work, counted exactly.
//!
//! `partialtor_crypto::ed25519::work()` reads two per-thread counters that
//! every `sign` and `verify` call bumps; a `runner::run` executes on the
//! calling thread, so the difference around it is the run's own work. The
//! numbers pinned here were first printed by the bit-serial ladder kernel
//! this repository started with: a faster kernel, a memo or a batch
//! verifier is judged against them — they may only move when a change
//! says it removes or adds *checks*, never as a side effect of making the
//! same checks cheaper.
//!
//! Seed 1, 8 000 relays, nine authorities (`Scenario::default()`).

use partialtor::adversary::AttackPlan;
use partialtor::protocols::ProtocolKind;
use partialtor::runner::{self, RunReport, Scenario};
use partialtor_crypto::ed25519::work;

/// Runs one scenario and returns (verifies, signs, report).
fn counted(protocol: ProtocolKind, attack: AttackPlan) -> (u64, u64, RunReport) {
    let scenario = Scenario {
        attack,
        ..Scenario::default()
    };
    let before = work();
    let report = runner::run(protocol, &scenario);
    let after = work();
    (
        after.verifies - before.verifies,
        after.signs - before.signs,
        report,
    )
}

#[test]
fn icps_calm_run() {
    let (verifies, signs, report) = counted(ProtocolKind::Icps, AttackPlan::empty());
    assert!(report.success);
    assert_eq!((verifies, signs), (2_457, 119));
}

#[test]
fn icps_five_of_nine_run() {
    let (verifies, signs, report) = counted(ProtocolKind::Icps, AttackPlan::five_of_nine());
    assert!(report.success, "ICPS rides out the five-minute flood");
    assert_eq!((verifies, signs), (2_763, 164));
}

#[test]
fn current_calm_run() {
    let (verifies, signs, report) = counted(ProtocolKind::Current, AttackPlan::empty());
    assert!(report.success);
    assert_eq!((verifies, signs), (72, 9));
}

#[test]
fn synchronous_calm_run() {
    let (verifies, signs, report) = counted(ProtocolKind::Synchronous, AttackPlan::empty());
    assert!(report.success);
    assert_eq!((verifies, signs), (136, 9));
}

/// The headline attack: no authority assembles a vote majority, so none
/// reaches the signature exchange — a failed Current run verifies nothing.
#[test]
fn a_failed_current_run_verifies_nothing() {
    let (verifies, signs, report) = counted(ProtocolKind::Current, AttackPlan::five_of_nine());
    assert!(!report.success);
    assert_eq!((verifies, signs), (0, 0));
}

/// The counters are per thread and only grow: work on another thread is
/// invisible here, which is what makes the differences above exact under
/// a parallel `sweep` and under the test harness's own threads.
#[test]
fn counters_are_per_thread() {
    let before = work();
    std::thread::spawn(|| {
        let started = work();
        counted(ProtocolKind::Current, AttackPlan::empty());
        let done = work();
        assert_eq!(done.verifies - started.verifies, 72);
    })
    .join()
    .expect("worker thread");
    assert_eq!(work(), before);
}
