//! Byzantine-authority scenarios: the executable version of Table 1's
//! security column.
//!
//! * The **current** protocol is insecure under equivocation (Luo et al.
//!   [23]): one equivocating authority splits the honest vote sets and no
//!   digest reaches a signature majority.
//! * The **synchronous** protocol neutralizes the same behaviour: the
//!   Dolev–Strong agreement on the designated pack gives every correct
//!   authority the same vote set.
//! * The **ICPS** protocol excludes the equivocator with an
//!   `AbsentEquivocation` proof and still reaches agreement; silent and
//!   selective-disclosure authorities exercise the ⊥-endorsement and
//!   fetch paths.
//!
//! The nodes of a run share one `Committee`, so each signature is verified
//! once per run; the last two tests hold that sharing to changing nothing
//! a node can observe, and to never remembering a signature that failed.

use partialtor::calibration::{self, vote_size_bytes};
use partialtor::document::DirDocument;
use partialtor::protocols::icps::{ProposalEntry, ProposalMsg};
use partialtor::protocols::{
    self, Authority, CurrentAuthority, CurrentByzantineMode, FetchPolicy, IcpsAuthority,
    IcpsByzantineMode, IcpsMsg, SyncAuthority, SyncByzantineMode, VectorEntry,
};
use partialtor::signing::doc_sig_digest;
use partialtor_crypto::ed25519::work;
use partialtor_crypto::{Committee, SigningKey, VerifyingKey};
use partialtor_simnet::prelude::*;

const N: usize = 9;
const RELAYS: u64 = 1_000;

fn committee(seed: u64) -> (Vec<SigningKey>, Vec<VerifyingKey>) {
    let signers: Vec<SigningKey> = (0..N)
        .map(|i| SigningKey::from_seed([i as u8 + seed as u8 + 1; 32]))
        .collect();
    let keys = signers.iter().map(|k| k.verifying_key()).collect();
    (signers, keys)
}

/// Every link at the paper's 250 Mbit/s, exact latencies.
fn sim_config(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        ..SimConfig::default()
    }
}

/// Nine authorities of run `run_id`, seat `i` behaving as `mode(i)`: with
/// clones of one `Committee` (`shared`, as `runner::run` builds them) or
/// with a `Committee` each.
fn nodes<A: Authority>(
    seed: u64,
    run_id: u64,
    mode: impl Fn(usize) -> A::Mode,
    shared: bool,
) -> Vec<A> {
    let (signers, keys) = committee(seed);
    let run = Committee::from(keys.clone());
    (0..N)
        .map(|i| {
            let seat = protocols::Seat {
                run_id,
                index: i as u8,
                n: N,
                round: calibration::round_duration(),
                doc: DirDocument::synthetic(run_id, i as u8, vote_size_bytes(RELAYS)),
                signing: signers[i].clone(),
                keys: if shared {
                    run.clone()
                } else {
                    Committee::from(keys.clone())
                },
            };
            A::new(seat, mode(i))
        })
        .collect()
}

/// Runs `nodes` on `authority_topology(seed)` until `secs`.
fn run_nodes<T: Node>(seed: u64, nodes: Vec<T>, secs: u64) -> Simulation<T> {
    let mut sim = Simulation::new(authority_topology(seed), nodes, sim_config(seed));
    sim.run_until(SimTime::from_secs(secs));
    sim
}

fn run_current_with(byz: CurrentByzantineMode) -> Simulation<CurrentAuthority> {
    let mode = |i| match i {
        0 => byz,
        _ => CurrentByzantineMode::Honest,
    };
    run_nodes(5, nodes(5, 60, mode, true), 700)
}

#[test]
fn equivocation_breaks_the_current_protocol() {
    let mut sim = run_current_with(CurrentByzantineMode::EquivocateVotes);
    // The honest authorities split into two digest camps, and the
    // equivocator countersigns both — so *two conflicting consensus
    // documents* both collect a signature majority. This is exactly the
    // safety violation of Luo et al. [23] that motivates the synchronous
    // fix, and the reason the "Current" row of Table 1 reads "insecure".
    let mut camps: std::collections::BTreeMap<_, usize> = std::collections::BTreeMap::new();
    for i in 1..N {
        let outcome = sim.node_mut(NodeId(i)).report();
        assert!(
            outcome.success,
            "each camp should reach a (conflicting) majority: {outcome:?}"
        );
        *camps.entry(outcome.digest.expect("digest")).or_default() += 1;
    }
    assert_eq!(
        camps.len(),
        2,
        "two conflicting valid consensus documents must coexist: {camps:?}"
    );
    for (&digest, &count) in &camps {
        assert_eq!(count, 4, "camp of {digest:?} should hold 4 honest members");
    }
}

#[test]
fn honest_baseline_for_comparison() {
    let mut sim = run_current_with(CurrentByzantineMode::Honest);
    let successes = (0..N)
        .filter(|&i| sim.node_mut(NodeId(i)).report().success)
        .count();
    assert_eq!(successes, N);
}

#[test]
fn synchronous_protocol_neutralizes_equivocation() {
    // Authority 3 equivocates; the designated sender (0) is honest.
    let mode = |i| match i {
        3 => SyncByzantineMode::EquivocateProposal,
        _ => SyncByzantineMode::Honest,
    };
    let mut sim: Simulation<SyncAuthority> = run_nodes(6, nodes(6, 61, mode, true), 700);

    let digests: std::collections::BTreeSet<_> = (0..N)
        .filter(|&i| i != 3)
        .filter_map(|i| sim.node_mut(NodeId(i)).report().digest)
        .collect();
    assert_eq!(
        digests.len(),
        1,
        "all correct authorities must aggregate the agreed pack identically"
    );
    let successes = (0..N)
        .filter(|&i| i != 3)
        .filter(|&i| sim.node_mut(NodeId(i)).report().success)
        .count();
    assert!(successes >= 5, "{successes} correct authorities succeeded");
}

/// Nine honest-fetching ICPS authorities, seat `i` misbehaving as `byz(i)`.
fn icps_nodes(
    seed: u64,
    run_id: u64,
    byz: impl Fn(usize) -> IcpsByzantineMode,
    shared: bool,
) -> Vec<IcpsAuthority> {
    nodes(seed, run_id, |i| (byz(i), FetchPolicy::default()), shared)
}

fn build_icps(
    seed: u64,
    run_id: u64,
    byz: impl Fn(usize) -> IcpsByzantineMode,
) -> Simulation<IcpsAuthority> {
    run_nodes(seed, icps_nodes(seed, run_id, byz, true), 3_600)
}

fn assert_icps_agreement(sim: &mut Simulation<IcpsAuthority>, byzantine: &[usize]) {
    let mut digests = std::collections::BTreeSet::new();
    for i in 0..N {
        if byzantine.contains(&i) {
            continue;
        }
        let o = sim.node_mut(NodeId(i)).report();
        assert!(o.success, "honest authority {i} failed: {o:?}");
        digests.insert(o.digest.expect("digest"));
    }
    assert_eq!(digests.len(), 1, "honest authorities diverged");
}

#[test]
fn icps_excludes_an_equivocating_authority_with_proof() {
    let mut sim = build_icps(7, 62, |i| {
        if i == 2 {
            IcpsByzantineMode::EquivocateDocuments
        } else {
            IcpsByzantineMode::Honest
        }
    });
    assert_icps_agreement(&mut sim, &[2]);
    // Every honest authority's decided vector carries an explicit
    // equivocation (or at least a ⊥) entry for authority 2 — its document
    // must never be part of the consensus.
    let mut saw_equivocation_proof = false;
    for i in [0usize, 1, 3, 4, 5, 6, 7, 8] {
        let vector = sim
            .node(NodeId(i))
            .decided_vector()
            .expect("honest node decided");
        let entry = &vector.entries[2];
        assert!(
            entry.digest().is_none(),
            "equivocator's document must be excluded at node {i}"
        );
        if matches!(entry, VectorEntry::AbsentEquivocation { .. }) {
            saw_equivocation_proof = true;
        }
    }
    assert!(
        saw_equivocation_proof,
        "at least one decided vector should carry the equivocation proof"
    );
}

#[test]
fn icps_handles_silent_authorities_with_bottom_endorsements() {
    let silent = [4usize, 8];
    let mut sim = build_icps(8, 63, |i| {
        if silent.contains(&i) {
            IcpsByzantineMode::Silent
        } else {
            IcpsByzantineMode::Honest
        }
    });
    assert_icps_agreement(&mut sim, &silent);
    let vector = sim.node(NodeId(0)).decided_vector().expect("decided");
    for &s in &silent {
        assert!(
            matches!(&vector.entries[s], VectorEntry::AbsentTimeout { .. }),
            "silent authority {s} must be ⊥ with timeout endorsements"
        );
    }
    // Common set validity: at least n − f = 7 documents present.
    assert!(vector.present().count() >= N - 2);
}

#[test]
fn icps_selective_disclosure_forces_fetches_and_still_agrees() {
    let f = calibration::partial_synchrony_f(N);
    let mut sim = build_icps(9, 64, |i| {
        if i == 1 {
            // Disclose to exactly f + 1 peers: enough endorsements for a
            // Present entry, but most nodes must fetch the bytes later.
            IcpsByzantineMode::SelectiveSend(f + 1)
        } else {
            IcpsByzantineMode::Honest
        }
    });
    assert_icps_agreement(&mut sim, &[1]);
    let vector = sim.node(NodeId(0)).decided_vector().expect("decided");
    if vector.entries[1].digest().is_some() {
        // The selectively-disclosed document made it into the vector, so
        // the aggregation sub-protocol must have fetched it somewhere.
        let fetches = sim.metrics().by_kind().get("FETCH-REQ").map(|k| k.count);
        assert!(
            fetches.unwrap_or(0) > 0,
            "fetch path must have been exercised: {:?}",
            sim.metrics().by_kind()
        );
    } else {
        // Otherwise it was excluded as ⊥ — also a valid outcome; the
        // honest documents still form a valid common set.
        assert!(vector.present().count() >= N - f);
    }
}

#[test]
fn icps_tolerates_equivocator_plus_silent_node() {
    // f = 2 total faults of mixed kind.
    let mut sim = build_icps(10, 65, |i| match i {
        3 => IcpsByzantineMode::EquivocateDocuments,
        6 => IcpsByzantineMode::Silent,
        _ => IcpsByzantineMode::Honest,
    });
    assert_icps_agreement(&mut sim, &[3, 6]);
}

#[test]
fn icps_is_robust_to_latency_jitter() {
    // 40% propagation jitter on every message: agreement and validity
    // must be unaffected (timing noise is not a fault).
    let nodes = icps_nodes(12, 66, |_| IcpsByzantineMode::Honest, true);
    let config = SimConfig {
        latency_jitter: 0.4,
        ..sim_config(12)
    };
    let mut sim = Simulation::new(authority_topology(12), nodes, config);
    sim.run_until(SimTime::from_secs(3_600));
    assert_icps_agreement(&mut sim, &[]);
}

/// Which node runs a check is invisible to every node: the simulator
/// charges no simulated time for verification, so nine authorities sharing
/// one verified set and nine with a set each must be the same run — in
/// calm and under each kind of misbehaviour.
#[test]
fn a_shared_committee_and_nine_private_ones_run_the_same_run() {
    type Misbehaviour = fn(usize) -> IcpsByzantineMode;
    let scenarios: [(u64, Misbehaviour); 4] = [
        (21, |_| IcpsByzantineMode::Honest),
        (22, |i| match i {
            4 | 8 => IcpsByzantineMode::Silent,
            _ => IcpsByzantineMode::Honest,
        }),
        (23, |i| match i {
            1 => IcpsByzantineMode::SelectiveSend(calibration::partial_synchrony_f(N) + 1),
            _ => IcpsByzantineMode::Honest,
        }),
        (24, |i| match i {
            2 => IcpsByzantineMode::EquivocateDocuments,
            _ => IcpsByzantineMode::Honest,
        }),
    ];
    for (seed, byz) in scenarios {
        // (simulation, verification requests, kernel passes)
        let run = |shared: bool| {
            let before = work();
            let sim = run_nodes(seed, icps_nodes(seed, 70 + seed, byz, shared), 3_600);
            let after = work();
            (
                sim,
                after.verifies - before.verifies,
                after.kernel_verifies - before.kernel_verifies,
            )
        };
        let (mut shared, shared_requests, shared_passes) = run(true);
        let (mut private, private_requests, private_passes) = run(false);
        assert!(
            shared.node_mut(NodeId(0)).report().success,
            "scenario {seed}"
        );
        for i in 0..N {
            let (a, b) = (shared.node_mut(NodeId(i)), private.node_mut(NodeId(i)));
            assert_eq!(a.report(), b.report(), "scenario {seed}, node {i}");
            assert_eq!(a.decided_vector(), b.decided_vector());
        }
        assert_eq!(shared.metrics().by_kind(), private.metrics().by_kind());
        assert_eq!(shared_requests, private_requests, "the same checks");
        assert!(
            shared_passes < private_passes && private_passes < shared_requests,
            "scenario {seed}: {shared_passes} < {private_passes} < {shared_requests}"
        );
    }
}

/// A real authority, or a seat that says nothing until a timer fires and
/// then broadcasts one prepared PROPOSAL.
enum Seat {
    Authority(Box<IcpsAuthority>),
    Forger(Option<ProposalMsg>),
}

impl Node for Seat {
    type Msg = IcpsMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, IcpsMsg>) {
        if let Seat::Authority(authority) = self {
            authority.on_start(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, IcpsMsg>, from: NodeId, msg: IcpsMsg) {
        if let Seat::Authority(authority) = self {
            authority.on_message(ctx, from, msg);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, IcpsMsg>, tag: u64) {
        match self {
            Seat::Authority(authority) => authority.on_timer(ctx, tag),
            Seat::Forger(proposal) => {
                if let Some(proposal) = proposal.take() {
                    ctx.broadcast(IcpsMsg::Proposal(proposal));
                }
            }
        }
    }
}

/// The shared set holds only what passed: a forged endorsement is refused
/// by each of the eight receivers *by running the check*, never from the
/// first receiver's verdict. Authority 5 sits out the run, then broadcasts
/// a PROPOSAL whose first entry carries an endorsement signed for another
/// run; every receiver stops at that entry.
#[test]
fn a_forged_endorsement_costs_every_receiver_a_kernel_pass() {
    const FORGER: usize = 5;
    const RUN_ID: u64 = 67;
    let (signers, _) = committee(13);
    let endorse =
        |run_id, subject| signers[FORGER].sign(doc_sig_digest(run_id, subject, None).as_bytes());
    let forged = ProposalMsg {
        from: FORGER as u8,
        entries: (0..N as u8)
            .map(|subject| ProposalEntry {
                subject,
                digest: None,
                sender_sig: None,
                endorse_sig: endorse(if subject == 0 { RUN_ID + 1 } else { RUN_ID }, subject),
            })
            .collect(),
    };
    let seats = icps_nodes(13, RUN_ID, |_| IcpsByzantineMode::Honest, true)
        .into_iter()
        .enumerate()
        .map(|(i, authority)| match i {
            FORGER => Seat::Forger(Some(forged.clone())),
            _ => Seat::Authority(Box::new(authority)),
        })
        .collect();
    let mut sim = Simulation::new(authority_topology(13), seats, sim_config(13));
    sim.run_until(SimTime::from_secs(900));
    let outcomes = |sim: &mut Simulation<Seat>| -> Vec<_> {
        (0..N)
            .filter_map(|i| match sim.node_mut(NodeId(i)) {
                Seat::Authority(authority) => Some(authority.report()),
                Seat::Forger(_) => None,
            })
            .collect()
    };
    let settled = outcomes(&mut sim);
    assert!(settled.len() == N - 1 && settled.iter().all(|o| o.success));

    let before = work();
    sim.schedule_timer(SimTime::from_secs(1_000), NodeId(FORGER), 0);
    sim.run_until(SimTime::from_secs(1_100));
    let after = work();
    assert_eq!(sim.metrics().by_kind()["PROPOSAL"].count, 8 * 8 + 8);
    assert_eq!(
        after.verifies - before.verifies,
        8,
        "one check per receiver"
    );
    assert_eq!(after.kernel_verifies - before.kernel_verifies, 8);
    assert_eq!(outcomes(&mut sim), settled);
}
