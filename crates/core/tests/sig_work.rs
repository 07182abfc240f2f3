//! What one protocol run costs in signature work, counted exactly.
//!
//! `partialtor_crypto::ed25519::work()` reads three per-thread counters; a
//! `runner::run` executes on the calling thread, so the difference around
//! it is the run's own work. Two of them describe verification:
//!
//! * **requests** (`verifies`) — how often protocol code asked whether a
//!   signature is valid: what the protocols *check*. These numbers were
//!   first printed by the bit-serial ladder kernel this repository
//!   started with, and move only when a change adds or removes a check.
//! * **kernel passes** (`kernel_verifies`) — how often the RFC 8032 check
//!   actually ran. The nodes of a run share one `Committee`, which runs it
//!   once per distinct (key, message, signature) triple and answers the
//!   repeats from its verified set. A pass is what costs the time; the
//!   number moves only when a change adds or removes a *repeat* — shares
//!   more or less between the nodes of a run — or a check.
//!
//! Signs are not shared or cached by anything. A faster kernel moves none
//! of the three.
//!
//! Seed 1, 8 000 relays, nine authorities (`Scenario::default()`).

use partialtor::adversary::AttackPlan;
use partialtor::protocols::ProtocolKind;
use partialtor::runner::{self, RunReport, Scenario};
use partialtor_crypto::ed25519::work;

/// Runs one scenario and returns (requests, kernel passes, signs, report).
fn counted(protocol: ProtocolKind, attack: AttackPlan) -> (u64, u64, u64, RunReport) {
    let scenario = Scenario {
        attack,
        ..Scenario::default()
    };
    let before = work();
    let report = runner::run(protocol, &scenario);
    let after = work();
    (
        after.verifies - before.verifies,
        after.kernel_verifies - before.kernel_verifies,
        after.signs - before.signs,
        report,
    )
}

#[test]
fn icps_calm_run() {
    let (requests, passes, signs, report) = counted(ProtocolKind::Icps, AttackPlan::empty());
    assert!(report.success);
    assert_eq!((requests, passes, signs), (2_457, 106, 119));
}

#[test]
fn icps_five_of_nine_run() {
    let (requests, passes, signs, report) = counted(ProtocolKind::Icps, AttackPlan::five_of_nine());
    assert!(report.success, "ICPS rides out the five-minute flood");
    assert_eq!((requests, passes, signs), (2_763, 115, 164));
}

#[test]
fn current_calm_run() {
    let (requests, passes, signs, report) = counted(ProtocolKind::Current, AttackPlan::empty());
    assert!(report.success);
    assert_eq!((requests, passes, signs), (72, 9, 9));
}

#[test]
fn synchronous_calm_run() {
    let (requests, passes, signs, report) = counted(ProtocolKind::Synchronous, AttackPlan::empty());
    assert!(report.success);
    assert_eq!((requests, passes, signs), (136, 9, 9));
}

/// The headline attack: no authority assembles a vote majority, so none
/// reaches the signature exchange — a failed Current run verifies nothing.
#[test]
fn a_failed_current_run_verifies_nothing() {
    let (requests, passes, signs, report) =
        counted(ProtocolKind::Current, AttackPlan::five_of_nine());
    assert!(!report.success);
    assert_eq!((requests, passes, signs), (0, 0, 0));
}

/// The counters are per thread and only grow: work on another thread is
/// invisible here, which is what makes the differences above exact under
/// a parallel `sweep` and under the test harness's own threads. The
/// verified set belongs to the run, not the thread: a second run on one
/// thread starts from nothing.
#[test]
fn counters_are_per_thread() {
    let before = work();
    std::thread::spawn(|| {
        let started = work();
        counted(ProtocolKind::Current, AttackPlan::empty());
        counted(ProtocolKind::Current, AttackPlan::empty());
        let done = work();
        assert_eq!(done.verifies - started.verifies, 2 * 72);
        assert_eq!(done.kernel_verifies - started.kernel_verifies, 2 * 9);
    })
    .join()
    .expect("worker thread");
    assert_eq!(work(), before);
}
