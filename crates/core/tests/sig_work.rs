//! What one protocol run costs in signature work, counted exactly.
//!
//! `partialtor_crypto::ed25519::work()` reads four per-thread counters; a
//! `runner::run` executes on the calling thread, so the difference around
//! it is the run's own work. Three of them describe verification:
//!
//! * **requests** (`verifies`) — how often protocol code asked whether a
//!   signature is valid: what the protocols *check*. These numbers were
//!   first printed by the bit-serial ladder kernel this repository
//!   started with, and move only when a change adds or removes a check.
//! * **kernel passes** (`kernel_verifies`) — how often the RFC 8032 check
//!   actually ran. The nodes of a run share one `Committee`, which runs it
//!   once per distinct (key, message, signature) triple and answers the
//!   repeats from its verified set. Under `runner::run` that set belongs
//!   to the run; under `runner::sweep` it belongs to the seed group — the
//!   batch's jobs with one `(seed, n)` that one worker runs in order — so
//!   a later run of the group answers what an earlier one verified. A
//!   pass is what costs the time; the number moves only when a change
//!   adds or removes a *repeat* — shares more or less between the nodes
//!   of a run or the runs of a group — or a check.
//! * **key tables** (`key_tables`) — how often the committee built a comb
//!   table for one of its keys: at a key's fourth pass in that committee,
//!   so at most once per key. An ICPS run passes at least four times under
//!   each of its nine keys and builds nine; a calm Current or Synchronous
//!   run passes once under each and builds none. The number moves when
//!   the committee's table rule does, or when a key's pass count crosses
//!   three.
//!
//! Signs are not shared or cached by anything. A faster kernel moves none
//! of the first three.
//!
//! Seed 1, 8 000 relays, nine authorities (`Scenario::default()`).

use partialtor::adversary::AttackPlan;
use partialtor::protocols::ProtocolKind;
use partialtor::runner::{self, RunReport, Scenario, SweepJob};
use partialtor_crypto::ed25519::work;

/// Runs one scenario and returns (requests, kernel passes, signs, key
/// tables, report).
fn counted(protocol: ProtocolKind, attack: AttackPlan) -> (u64, u64, u64, u64, RunReport) {
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
        after.key_tables - before.key_tables,
        report,
    )
}

#[test]
fn icps_calm_run() {
    let (requests, passes, signs, tables, report) =
        counted(ProtocolKind::Icps, AttackPlan::empty());
    assert!(report.success);
    assert_eq!((requests, passes, signs), (2_457, 106, 119));
    assert_eq!(tables, 9);
}

#[test]
fn icps_five_of_nine_run() {
    let (requests, passes, signs, tables, report) =
        counted(ProtocolKind::Icps, AttackPlan::five_of_nine());
    assert!(report.success, "ICPS rides out the five-minute flood");
    assert_eq!((requests, passes, signs), (2_763, 115, 164));
    assert_eq!(tables, 9);
}

#[test]
fn current_calm_run() {
    let (requests, passes, signs, tables, report) =
        counted(ProtocolKind::Current, AttackPlan::empty());
    assert!(report.success);
    assert_eq!((requests, passes, signs), (72, 9, 9));
    assert_eq!(tables, 0);
}

#[test]
fn synchronous_calm_run() {
    let (requests, passes, signs, tables, report) =
        counted(ProtocolKind::Synchronous, AttackPlan::empty());
    assert!(report.success);
    assert_eq!((requests, passes, signs), (136, 9, 9));
    assert_eq!(tables, 0);
}

/// The headline attack: no authority assembles a vote majority, so none
/// reaches the signature exchange — a failed Current run verifies nothing.
#[test]
fn a_failed_current_run_verifies_nothing() {
    let (requests, passes, signs, tables, report) =
        counted(ProtocolKind::Current, AttackPlan::five_of_nine());
    assert!(!report.success);
    assert_eq!((requests, passes, signs), (0, 0, 0));
    assert_eq!(tables, 0);
}

/// The counters are per thread and only grow: work on another thread is
/// invisible here, which is what makes the differences above exact under
/// a parallel `sweep` and under the test harness's own threads. Under
/// `runner::run` the verified set belongs to the run, not the thread: a
/// second run on one thread starts from nothing. (Under `sweep` it
/// belongs to the seed group; see the next test.)
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

/// (requests, kernel passes, signs, key tables) of one serial sweep of
/// `seeds`, a calm `protocol` job each.
fn swept(protocol: ProtocolKind, seeds: &[u64]) -> (u64, u64, u64, u64) {
    let jobs: Vec<SweepJob> = seeds
        .iter()
        .map(|&seed| {
            let scenario = Scenario {
                seed,
                ..Scenario::default()
            };
            SweepJob::new(protocol, scenario)
        })
        .collect();
    let before = work();
    let reports = runner::sweep_threads(&jobs, 1);
    let after = work();
    assert!(reports.iter().all(|report| report.success));
    (
        after.verifies - before.verifies,
        after.kernel_verifies - before.kernel_verifies,
        after.signs - before.signs,
        after.key_tables - before.key_tables,
    )
}

/// Two identical jobs in one sweep are one seed group: the second run
/// asks all 72 of its questions again and the group's verified set
/// answers every one. Two seeds are two groups, two committees, two
/// sets. Signs are never shared. The key tables belong to the committee
/// too: two identical ICPS runs build the nine tables once.
#[test]
fn a_sweep_shares_the_verified_set_within_a_seed_group() {
    assert_eq!(swept(ProtocolKind::Current, &[1, 1]), (144, 9, 18, 0));
    assert_eq!(swept(ProtocolKind::Current, &[1, 2]), (144, 18, 18, 0));
    assert_eq!(swept(ProtocolKind::Icps, &[1, 1]), (4_914, 106, 238, 9));
}
