//! Luo et al.'s improved synchronous directory protocol (§3.1 / Fig. 5).
//!
//! Still lock-step with Δ = 150 s rounds and still assuming bounded
//! synchrony, but resistant to equivocation:
//!
//! 1. **Propose** — every authority broadcasts its relay list;
//! 2. **Vote** — every authority packs *all lists it received* into a vote
//!    and broadcasts the pack (this is the O(n³·d) term of Table 1);
//! 3. **Synchronize** — a Dolev–Strong-style signature chain over the
//!    designated sender's vote pack: the sender broadcasts its signed
//!    pack, every receiver countersigns and re-broadcasts (pack included,
//!    which keeps the complexity O(n³·d + n⁴·κ) in the worst case);
//! 4. the protocol ends after the fourth round, matching the 10-minute
//!    window the paper uses for both lock-step protocols.
//!
//! An authority succeeds when it holds the agreed pack (with a valid
//! chain) containing at least a majority of lists — it can then compute
//! and sign the same consensus document as every other successful
//! authority.

use crate::calibration;
use crate::document::{consensus_digest, DirDocument};
use crate::protocols::{lockstep_valid_at, Authority, AuthorityReport, ProtocolKind, Seat};
use crate::signing::ds_sig_digest;
use partialtor_crypto::{sha256, Digest32, Signature};
use partialtor_simnet::prelude::*;
use std::collections::BTreeMap;

/// A vote pack: every document one authority had received by vote time.
#[derive(Clone, Debug)]
pub struct Pack {
    /// The packing authority.
    pub packer: u8,
    /// Documents, keyed by authority.
    pub docs: Vec<DirDocument>,
}

impl Pack {
    /// Digest over the pack contents (what the DS chain signs).
    pub fn digest(&self) -> Digest32 {
        let mut hasher = sha256::Hasher::new();
        hasher.update(b"vote-pack");
        hasher.update(&[self.packer]);
        for doc in &self.docs {
            hasher.update(&[doc.authority]);
            hasher.update(doc.digest.as_bytes());
        }
        hasher.finalize()
    }

    /// Total wire size: the full documents travel with the pack, inflated
    /// by the prototype's per-list encoding overhead
    /// ([`calibration::SYNC_PACK_OVERHEAD_FACTOR`]).
    pub fn wire_size(&self) -> u64 {
        let payload: u64 = self.docs.iter().map(|d| d.size + 8).sum();
        16 + payload * calibration::SYNC_PACK_OVERHEAD_FACTOR
    }
}

/// Messages of the synchronous protocol.
#[derive(Clone, Debug)]
pub enum SyncMsg {
    /// Round-1 broadcast of one authority's list.
    Propose(DirDocument),
    /// Round-2 broadcast of the packed lists.
    VotePack(Pack),
    /// Round-3/4 Dolev–Strong chain over the designated sender's pack.
    Chain {
        /// The pack being agreed on.
        pack: Pack,
        /// Signature chain over the pack digest: `(authority, signature)`,
        /// starting with the designated sender.
        sigs: Vec<(u8, Signature)>,
    },
}

impl Payload for SyncMsg {
    fn wire_size(&self) -> u64 {
        match self {
            SyncMsg::Propose(doc) => doc.size,
            SyncMsg::VotePack(pack) => pack.wire_size(),
            SyncMsg::Chain { pack, sigs } => pack.wire_size() + 66 * sigs.len() as u64,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            SyncMsg::Propose(_) => "PROPOSE",
            SyncMsg::VotePack(_) => "VOTEPACK",
            SyncMsg::Chain { .. } => "DS-CHAIN",
        }
    }
}

const TAG_VOTE: u64 = 1;
const TAG_SYNC1: u64 = 2;
const TAG_SYNC2: u64 = 3;
const TAG_END: u64 = 4;

/// Misbehavior modes for attack reproduction and testing.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SyncByzantineMode {
    /// Follows the protocol.
    #[default]
    Honest,
    /// Equivocates the propose-round list: even-indexed peers receive one
    /// document, odd-indexed peers another. The Dolev–Strong agreement on
    /// the designated pack neutralizes this (every correct authority ends
    /// with the same vote set).
    EquivocateProposal,
}

/// The Dolev–Strong sender of every run.
const DESIGNATED: u8 = 0;

/// One directory authority running the synchronous protocol.
pub struct SyncAuthority {
    seat: Seat,
    mode: SyncByzantineMode,
    docs: BTreeMap<u8, DirDocument>,
    packs: BTreeMap<u8, Pack>,
    /// Accepted chain for the designated pack (pack, signature chain).
    agreed: Option<(Pack, Vec<(u8, Signature)>)>,
    chained: bool,
    start: SimTime,
    all_docs_at: Option<SimTime>,
    all_packs_at: Option<SimTime>,
    chain_at: Option<SimTime>,
    /// Set at the end of round 4 when the agreed pack held a majority of
    /// lists: the digest of the consensus computed from it.
    digest: Option<Digest32>,
    /// The paper's network-time metric, in seconds.
    network_time_secs: Option<f64>,
}

impl Authority for SyncAuthority {
    const KIND: ProtocolKind = ProtocolKind::Synchronous;
    type Mode = SyncByzantineMode;

    fn new(seat: Seat, mode: SyncByzantineMode) -> Self {
        SyncAuthority {
            seat,
            mode,
            docs: BTreeMap::new(),
            packs: BTreeMap::new(),
            agreed: None,
            chained: false,
            start: SimTime::ZERO,
            all_docs_at: None,
            all_packs_at: None,
            chain_at: None,
            digest: None,
            network_time_secs: None,
        }
    }

    /// Success means "decided the designated pack with enough lists"; the
    /// run needs a majority of such authorities.
    fn report(&mut self) -> AuthorityReport {
        let success = self.digest.is_some();
        AuthorityReport {
            index: self.seat.index as usize,
            success,
            digest: self.digest,
            network_time_secs: self.network_time_secs,
            valid_at_secs: lockstep_valid_at(success, self.seat.round),
            decided_round: None,
            phases: Vec::new(),
        }
    }
}

impl SyncAuthority {
    fn verify_chain(&self, pack: &Pack, sigs: &[(u8, Signature)]) -> bool {
        if sigs.is_empty() || pack.packer != DESIGNATED {
            return false;
        }
        if sigs[0].0 != DESIGNATED {
            return false;
        }
        let digest = ds_sig_digest(self.seat.run_id, pack.digest());
        let mut seen = std::collections::BTreeSet::new();
        for (signer, sig) in sigs {
            if *signer as usize >= self.seat.n || !seen.insert(*signer) {
                return false;
            }
            if self
                .seat
                .keys
                .verify(*signer as usize, digest.as_bytes(), sig)
                .is_err()
            {
                return false;
            }
        }
        true
    }

    fn accept_chain(
        &mut self,
        ctx: &mut Context<'_, SyncMsg>,
        pack: Pack,
        sigs: Vec<(u8, Signature)>,
    ) {
        if !self.verify_chain(&pack, &sigs) {
            return;
        }
        // Dolev–Strong round rule: a chain carrying k signatures is only
        // acceptable until the end of synchronization round k (round k
        // spans [(1 + k)Δ, (2 + k)Δ) here, after the propose and vote
        // rounds). Later arrivals are discarded — this is exactly the
        // bounded-synchrony assumption the DDoS attack violates.
        let deadline = self.start + self.seat.round.saturating_mul(2 + sigs.len() as u64);
        if ctx.now() > deadline {
            return;
        }
        if self.agreed.is_none() {
            self.chain_at = Some(ctx.now());
        }
        match &self.agreed {
            Some((_, best)) if best.len() >= sigs.len() => {}
            _ => self.agreed = Some((pack, sigs)),
        }
    }
}

impl Node for SyncAuthority {
    type Msg = SyncMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, SyncMsg>) {
        self.start = ctx.now();
        self.docs.insert(self.seat.index, self.seat.doc.clone());
        match self.mode {
            SyncByzantineMode::Honest => {
                ctx.broadcast(SyncMsg::Propose(self.seat.doc.clone()));
            }
            SyncByzantineMode::EquivocateProposal => {
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
                    ctx.send(NodeId(peer), SyncMsg::Propose(doc));
                }
            }
        }
        for tag in [TAG_VOTE, TAG_SYNC1, TAG_SYNC2, TAG_END] {
            ctx.set_timer(self.seat.round.saturating_mul(tag), tag);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, SyncMsg>, _from: NodeId, msg: SyncMsg) {
        match msg {
            SyncMsg::Propose(doc) => {
                if (doc.authority as usize) < self.seat.n {
                    self.docs.entry(doc.authority).or_insert(doc);
                    if self.docs.len() == self.seat.n && self.all_docs_at.is_none() {
                        self.all_docs_at = Some(ctx.now());
                    }
                }
            }
            SyncMsg::VotePack(pack) => {
                if (pack.packer as usize) < self.seat.n {
                    self.packs.entry(pack.packer).or_insert(pack);
                    if self.packs.len() == self.seat.n && self.all_packs_at.is_none() {
                        self.all_packs_at = Some(ctx.now());
                    }
                }
            }
            SyncMsg::Chain { pack, sigs } => self.accept_chain(ctx, pack, sigs),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, SyncMsg>, tag: u64) {
        match tag {
            TAG_VOTE => {
                let pack = Pack {
                    packer: self.seat.index,
                    docs: self.docs.values().cloned().collect(),
                };
                self.packs.insert(self.seat.index, pack.clone());
                ctx.broadcast(SyncMsg::VotePack(pack));
            }
            TAG_SYNC1 if self.seat.index == DESIGNATED => {
                // The designated sender starts the Dolev–Strong chain over
                // its own pack.
                if let Some(pack) = self.packs.get(&self.seat.index).cloned() {
                    let digest = ds_sig_digest(self.seat.run_id, pack.digest());
                    let sig = self.seat.signing.sign(digest.as_bytes());
                    let sigs = vec![(self.seat.index, sig)];
                    self.agreed = Some((pack.clone(), sigs.clone()));
                    self.chain_at = Some(ctx.now());
                    ctx.broadcast(SyncMsg::Chain { pack, sigs });
                }
            }
            TAG_SYNC2 => {
                // Every authority that accepted a chain countersigns and
                // re-broadcasts (one Dolev–Strong relay round).
                if self.chained || self.seat.index == DESIGNATED {
                    return;
                }
                if let Some((pack, mut sigs)) = self.agreed.clone() {
                    self.chained = true;
                    let digest = ds_sig_digest(self.seat.run_id, pack.digest());
                    sigs.push((self.seat.index, self.seat.signing.sign(digest.as_bytes())));
                    ctx.broadcast(SyncMsg::Chain { pack, sigs });
                }
            }
            TAG_END => {
                self.digest = match &self.agreed {
                    Some((pack, _)) if pack.docs.len() >= calibration::majority(self.seat.n) => {
                        let votes: BTreeMap<u8, DirDocument> =
                            pack.docs.iter().map(|d| (d.authority, d.clone())).collect();
                        Some(consensus_digest(&votes))
                    }
                    _ => None,
                };
                if self.digest.is_some() {
                    let p1 = self
                        .all_docs_at
                        .map(|t| t.since(self.start).as_secs_f64())
                        .unwrap_or(self.seat.round.as_secs_f64());
                    let p2 = self
                        .all_packs_at
                        .map(|t| t.since(self.start + self.seat.round).as_secs_f64())
                        .unwrap_or(self.seat.round.as_secs_f64());
                    let p3 = self
                        .chain_at
                        .map(|t| {
                            t.since(self.start + self.seat.round.saturating_mul(2))
                                .as_secs_f64()
                        })
                        .unwrap_or(self.seat.round.as_secs_f64());
                    self.network_time_secs = Some(p1 + p2 + p3);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::testing;

    fn build_sim(n: usize, relays: u64, bandwidth_bps: f64) -> Simulation<SyncAuthority> {
        testing::build_sim(n, relays, bandwidth_bps, 3, 2, 31)
    }

    #[test]
    fn succeeds_with_ample_bandwidth() {
        let mut sim = build_sim(9, 1_000, calibration::AUTHORITY_LINK_BPS);
        sim.run_until(SimTime::from_secs(700));
        let mut digests = std::collections::BTreeSet::new();
        for i in 0..9 {
            let outcome = sim.node_mut(NodeId(i)).report();
            assert!(outcome.success, "authority {i}: {outcome:?}");
            digests.insert(outcome.digest.unwrap());
        }
        assert_eq!(digests.len(), 1, "all must agree on one digest");
    }

    #[test]
    fn fails_before_current_protocol_under_same_bandwidth() {
        // The n³·d vote round breaks at bandwidths where the current
        // protocol's n²·d rounds still complete: at 10 Mbit/s each
        // authority must push 8 packs of 9 × 5.1 MB ≈ 370 MB in 150 s.
        let mut sim = build_sim(9, 8_000, 10e6);
        sim.run_until(SimTime::from_secs(700));
        let successes = (0..9)
            .filter(|&i| sim.node_mut(NodeId(i)).report().success)
            .count();
        assert!(
            successes < 5,
            "sync protocol must fail at 10 Mbit/s, 8k relays ({successes} succeeded)"
        );
    }

    #[test]
    fn pack_digest_depends_on_content() {
        let a = Pack {
            packer: 0,
            docs: vec![DirDocument::synthetic(1, 0, 10)],
        };
        let b = Pack {
            packer: 0,
            docs: vec![DirDocument::synthetic(1, 1, 10)],
        };
        assert_ne!(a.digest(), b.digest());
        assert!(a.wire_size() > 10);
    }
}
