//! The current Tor directory protocol (v3), per §3.1 / Fig. 4 of the paper.
//!
//! Four lock-step rounds of Δ = 150 s each:
//!
//! 1. **Perform Vote** — broadcast the vote document;
//! 2. **Fetch Votes** — request every missing vote *from every other
//!    authority* (the amplification visible in the January 2021 outage);
//! 3. **Send Signature** — aggregate held votes into a consensus document
//!    (if at least ⌈n/2⌉+… a strict majority of votes are held), sign its
//!    digest, broadcast the signature;
//! 4. **Fetch Signatures** — request missing signatures from every other
//!    authority.
//!
//! An authority succeeds if, at the end of round 4, it holds a majority of
//! signatures over *its* consensus digest. Authorities that computed their
//! consensus from different vote sets produce different digests, so their
//! signatures do not help each other — the fragmentation that the DDoS
//! attack of §4 exploits.

use crate::calibration;
use crate::document::{consensus_digest, DirDocument};
use crate::protocols::{lockstep_valid_at, Authority, AuthorityReport, Phase, ProtocolKind, Seat};
use crate::signing::SigRecord;
use partialtor_crypto::Digest32;
use partialtor_simnet::prelude::*;
use std::collections::BTreeMap;

/// Messages of the current protocol.
#[derive(Clone, Debug)]
pub enum CurrentMsg {
    /// A vote document (initial broadcast or fetch response).
    Vote(DirDocument),
    /// Request for the votes of the listed authorities.
    VoteRequest {
        /// Authority indices whose votes are wanted.
        wanted: Vec<u8>,
    },
    /// A consensus signature.
    Signature(SigRecord),
    /// Request for any signatures the peer holds.
    SigRequest,
}

impl Payload for CurrentMsg {
    fn wire_size(&self) -> u64 {
        match self {
            CurrentMsg::Vote(doc) => doc.size,
            CurrentMsg::VoteRequest { wanted } => 16 + wanted.len() as u64,
            CurrentMsg::Signature(_) => 8 + 32 + 64,
            CurrentMsg::SigRequest => 16,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            CurrentMsg::Vote(_) => "VOTE",
            CurrentMsg::VoteRequest { .. } => "VOTE-REQ",
            CurrentMsg::Signature(_) => "SIG",
            CurrentMsg::SigRequest => "SIG-REQ",
        }
    }
}

/// Timer tags for the four round boundaries.
const TAG_FETCH_VOTES: u64 = 1;
const TAG_COMPUTE: u64 = 2;
const TAG_FETCH_SIGS: u64 = 3;
const TAG_END: u64 = 4;

/// Misbehavior modes for attack reproduction and testing.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CurrentByzantineMode {
    /// Follows the protocol.
    #[default]
    Honest,
    /// Luo et al.'s equivocation: sends one vote to even-indexed peers and
    /// a different vote to odd-indexed peers, splitting the honest
    /// authorities' vote sets (and therefore their consensus digests).
    EquivocateVotes,
}

/// One directory authority running the current protocol.
pub struct CurrentAuthority {
    seat: Seat,
    mode: CurrentByzantineMode,
    votes: BTreeMap<u8, DirDocument>,
    sigs: BTreeMap<u8, SigRecord>,
    my_digest: Option<Digest32>,
    start: SimTime,
    all_votes_at: Option<SimTime>,
    sig_majority_at: Option<SimTime>,
    /// Set at the end of round 4: whether a majority signed `my_digest`.
    success: bool,
    /// The paper's "network time": vote-collection time plus
    /// signature-collection time, in seconds.
    network_time_secs: Option<f64>,
    phases: Vec<Phase>,
}

impl Authority for CurrentAuthority {
    const KIND: ProtocolKind = ProtocolKind::Current;
    type Mode = CurrentByzantineMode;

    fn new(seat: Seat, mode: CurrentByzantineMode) -> Self {
        CurrentAuthority {
            seat,
            mode,
            votes: BTreeMap::new(),
            sigs: BTreeMap::new(),
            my_digest: None,
            start: SimTime::ZERO,
            all_votes_at: None,
            sig_majority_at: None,
            success: false,
            network_time_secs: None,
            phases: Vec::new(),
        }
    }

    fn report(&mut self) -> AuthorityReport {
        AuthorityReport {
            index: self.seat.index as usize,
            success: self.success,
            digest: self.my_digest,
            network_time_secs: self.network_time_secs,
            valid_at_secs: lockstep_valid_at(self.success, self.seat.round),
            decided_round: None,
            phases: std::mem::take(&mut self.phases),
        }
    }
}

impl CurrentAuthority {
    fn majority(&self) -> usize {
        calibration::majority(self.seat.n)
    }

    fn record_vote(&mut self, ctx: &mut Context<'_, CurrentMsg>, doc: DirDocument) {
        if doc.authority as usize >= self.seat.n {
            return;
        }
        if self.votes.contains_key(&doc.authority) {
            return;
        }
        self.votes.insert(doc.authority, doc);
        if self.votes.len() == self.seat.n && self.all_votes_at.is_none() {
            self.all_votes_at = Some(ctx.now());
        }
    }

    fn record_sig(&mut self, ctx: &mut Context<'_, CurrentMsg>, rec: SigRecord) {
        if !rec.verify(self.seat.run_id, &self.seat.keys) {
            return;
        }
        self.sigs.entry(rec.authority).or_insert(rec);
        self.check_sig_majority(ctx);
    }

    fn check_sig_majority(&mut self, ctx: &mut Context<'_, CurrentMsg>) {
        let Some(digest) = self.my_digest else {
            return;
        };
        if self.sig_majority_at.is_some() {
            return;
        }
        let matching = self.sigs.values().filter(|s| s.digest == digest).count();
        if matching >= self.majority() {
            self.sig_majority_at = Some(ctx.now());
        }
    }

    fn missing_votes(&self) -> Vec<u8> {
        (0..self.seat.n as u8)
            .filter(|i| !self.votes.contains_key(i))
            .collect()
    }
}

impl Node for CurrentAuthority {
    type Msg = CurrentMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, CurrentMsg>) {
        self.start = ctx.now();
        self.votes.insert(self.seat.index, self.seat.doc.clone());
        match self.mode {
            CurrentByzantineMode::Honest => {
                ctx.broadcast(CurrentMsg::Vote(self.seat.doc.clone()));
            }
            CurrentByzantineMode::EquivocateVotes => {
                // A second, conflicting vote with a distinct digest.
                let alt = DirDocument::synthetic(
                    self.seat.run_id ^ 0xeb0c,
                    self.seat.index,
                    self.seat.doc.size,
                );
                for peer in 0..self.seat.n {
                    if peer as u8 == self.seat.index {
                        continue;
                    }
                    let doc = if peer % 2 == 0 {
                        self.seat.doc.clone()
                    } else {
                        alt.clone()
                    };
                    ctx.send(NodeId(peer), CurrentMsg::Vote(doc));
                }
            }
        }
        for tag in [TAG_FETCH_VOTES, TAG_COMPUTE, TAG_FETCH_SIGS, TAG_END] {
            ctx.set_timer(self.seat.round.saturating_mul(tag), tag);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, CurrentMsg>, from: NodeId, msg: CurrentMsg) {
        match msg {
            CurrentMsg::Vote(doc) => self.record_vote(ctx, doc),
            CurrentMsg::VoteRequest { wanted } => {
                for id in wanted {
                    if let Some(doc) = self.votes.get(&id) {
                        ctx.send(from, CurrentMsg::Vote(doc.clone()));
                    }
                }
            }
            CurrentMsg::Signature(rec) => self.record_sig(ctx, rec),
            CurrentMsg::SigRequest => {
                for rec in self.sigs.values() {
                    ctx.send(from, CurrentMsg::Signature(rec.clone()));
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, CurrentMsg>, tag: u64) {
        match tag {
            TAG_FETCH_VOTES => {
                let missing = self.missing_votes();
                if !missing.is_empty() {
                    // dir-spec behaviour: ask every other authority.
                    for peer in 0..self.seat.n {
                        if peer as u8 != self.seat.index {
                            ctx.send(
                                NodeId(peer),
                                CurrentMsg::VoteRequest {
                                    wanted: missing.clone(),
                                },
                            );
                        }
                    }
                }
                self.phases.push(Phase::FetchVotes {
                    at: ctx.now(),
                    missing,
                });
            }
            TAG_COMPUTE => {
                self.phases.push(Phase::ComputeConsensus {
                    at: ctx.now(),
                    missing: self.missing_votes(),
                    held: self.votes.len(),
                    needed: self.majority(),
                });
                if self.mode == CurrentByzantineMode::EquivocateVotes
                    && self.votes.len() >= self.majority()
                {
                    // The full Luo et al. attack: compute the digest each
                    // camp will derive from its (split) vote set and sign
                    // both, pushing *two conflicting consensus documents*
                    // past the signature majority.
                    let digest_even = consensus_digest(&self.votes);
                    let mut votes_odd = self.votes.clone();
                    votes_odd.insert(
                        self.seat.index,
                        DirDocument::synthetic(
                            self.seat.run_id ^ 0xeb0c,
                            self.seat.index,
                            self.seat.doc.size,
                        ),
                    );
                    let digest_odd = consensus_digest(&votes_odd);
                    self.my_digest = Some(digest_even);
                    let rec_even = SigRecord::create(
                        self.seat.run_id,
                        self.seat.index,
                        digest_even,
                        &self.seat.signing,
                    );
                    let rec_odd = SigRecord::create(
                        self.seat.run_id,
                        self.seat.index,
                        digest_odd,
                        &self.seat.signing,
                    );
                    self.sigs.insert(self.seat.index, rec_even.clone());
                    for peer in 0..self.seat.n {
                        if peer as u8 == self.seat.index {
                            continue;
                        }
                        let rec = if peer % 2 == 0 {
                            rec_even.clone()
                        } else {
                            rec_odd.clone()
                        };
                        ctx.send(NodeId(peer), CurrentMsg::Signature(rec));
                    }
                    return;
                }
                if self.votes.len() >= self.majority() {
                    let digest = consensus_digest(&self.votes);
                    self.my_digest = Some(digest);
                    let rec = SigRecord::create(
                        self.seat.run_id,
                        self.seat.index,
                        digest,
                        &self.seat.signing,
                    );
                    self.sigs.insert(self.seat.index, rec.clone());
                    ctx.broadcast(CurrentMsg::Signature(rec));
                    self.check_sig_majority(ctx);
                }
            }
            TAG_FETCH_SIGS if self.my_digest.is_some() && self.sigs.len() < self.seat.n => {
                for peer in 0..self.seat.n {
                    if peer as u8 != self.seat.index {
                        ctx.send(NodeId(peer), CurrentMsg::SigRequest);
                    }
                }
            }
            TAG_END => {
                let matching = match self.my_digest {
                    Some(d) => self.sigs.values().filter(|s| s.digest == d).count(),
                    None => 0,
                };
                self.success = self.my_digest.is_some() && matching >= self.majority();
                self.network_time_secs =
                    match (self.success, self.all_votes_at, self.sig_majority_at) {
                        (true, Some(votes_done), Some(sigs_done)) => {
                            let vote_phase = votes_done.since(self.start).as_secs_f64();
                            let sig_start = self.start + self.seat.round.saturating_mul(2);
                            let sig_phase = sigs_done.since(sig_start).as_secs_f64();
                            Some(vote_phase + sig_phase)
                        }
                        _ => None,
                    };
                self.phases.push(Phase::CloseSignatures {
                    at: ctx.now(),
                    computed: self.my_digest.is_some(),
                    matching,
                    needed: self.majority(),
                });
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::testing;

    fn build_sim(n: usize, relays: u64, bandwidth_bps: f64) -> Simulation<CurrentAuthority> {
        testing::build_sim(n, relays, bandwidth_bps, 7, 1, 1)
    }

    #[test]
    fn all_authorities_succeed_with_ample_bandwidth() {
        let mut sim = build_sim(9, 1_000, calibration::AUTHORITY_LINK_BPS);
        sim.run_until(SimTime::from_secs(700));
        for i in 0..9 {
            let outcome = sim.node_mut(NodeId(i)).report();
            assert!(outcome.success, "authority {i}: {outcome:?}");
            assert!(matches!(
                outcome.phases[1],
                Phase::ComputeConsensus { held: 9, .. }
            ));
            assert!(outcome.network_time_secs.unwrap() < 10.0);
        }
        // All authorities agree on one digest.
        let d0 = sim.node_mut(NodeId(0)).report().digest;
        for i in 1..9 {
            assert_eq!(sim.node_mut(NodeId(i)).report().digest, d0);
        }
    }

    #[test]
    fn starved_bandwidth_fails_the_run() {
        // 0.5 Mbit/s for everyone with 8 000-relay votes: nobody can move
        // 8 × 8 MB within the vote rounds.
        let mut sim = build_sim(9, 8_000, calibration::ATTACK_RESIDUAL_BPS);
        sim.run_until(SimTime::from_secs(700));
        let successes = (0..9)
            .filter(|&i| sim.node_mut(NodeId(i)).report().success)
            .count();
        assert_eq!(successes, 0, "protocol must fail under starvation");
    }

    #[test]
    fn vote_fetch_round_recovers_moderate_losses() {
        // Bandwidth that is tight but sufficient across rounds 1–2: the
        // protocol should still succeed (possibly using the fetch round).
        let mut sim = build_sim(9, 2_000, 4e6);
        sim.run_until(SimTime::from_secs(700));
        let successes = (0..9)
            .filter(|&i| sim.node_mut(NodeId(i)).report().success)
            .count();
        assert!(successes >= 5, "only {successes} succeeded");
    }
}
