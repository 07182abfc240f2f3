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
use crate::signing::ds_sig_digest;
use partialtor_crypto::{sha256, Committee, Digest32, Signature, SigningKey};
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

/// Per-authority configuration.
pub struct SyncConfig {
    /// Protocol instance id.
    pub run_id: u64,
    /// This authority's index.
    pub index: u8,
    /// Committee size.
    pub n: usize,
    /// The designated Dolev–Strong sender for this run.
    pub designated: u8,
    /// Lock-step round length Δ.
    pub round: SimDuration,
    /// This authority's list.
    pub my_doc: DirDocument,
    /// Signing key.
    pub signing: SigningKey,
    /// Committee public keys (a clone of the run's one [`Committee`]).
    pub keys: Committee,
    /// Misbehavior mode (honest in production scenarios).
    pub byzantine: SyncByzantineMode,
}

/// Outcome of one authority's run.
#[derive(Clone, Debug, Default)]
pub struct SyncOutcome {
    /// Whether the authority decided the designated pack with enough lists.
    pub success: bool,
    /// The digest of the consensus document computed from the agreed pack.
    pub digest: Option<Digest32>,
    /// Lists contained in the agreed pack.
    pub pack_lists: usize,
    /// The paper's network-time metric, in seconds.
    pub network_time_secs: Option<f64>,
}

/// One directory authority running the synchronous protocol.
pub struct SyncAuthority {
    cfg: SyncConfig,
    docs: BTreeMap<u8, DirDocument>,
    packs: BTreeMap<u8, Pack>,
    /// Accepted chain for the designated pack (pack, signature chain).
    agreed: Option<(Pack, Vec<(u8, Signature)>)>,
    chained: bool,
    start: SimTime,
    all_docs_at: Option<SimTime>,
    all_packs_at: Option<SimTime>,
    chain_at: Option<SimTime>,
    outcome: Option<SyncOutcome>,
}

impl SyncAuthority {
    /// Creates the authority.
    pub fn new(cfg: SyncConfig) -> Self {
        SyncAuthority {
            cfg,
            docs: BTreeMap::new(),
            packs: BTreeMap::new(),
            agreed: None,
            chained: false,
            start: SimTime::ZERO,
            all_docs_at: None,
            all_packs_at: None,
            chain_at: None,
            outcome: None,
        }
    }

    /// The final outcome (available after the round-4 timer).
    pub fn outcome(&self) -> Option<&SyncOutcome> {
        self.outcome.as_ref()
    }

    fn verify_chain(&self, pack: &Pack, sigs: &[(u8, Signature)]) -> bool {
        if sigs.is_empty() || pack.packer != self.cfg.designated {
            return false;
        }
        if sigs[0].0 != self.cfg.designated {
            return false;
        }
        let digest = ds_sig_digest(self.cfg.run_id, pack.digest());
        let mut seen = std::collections::BTreeSet::new();
        for (signer, sig) in sigs {
            if *signer as usize >= self.cfg.n || !seen.insert(*signer) {
                return false;
            }
            if self
                .cfg
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
        let deadline = self.start + self.cfg.round.saturating_mul(2 + sigs.len() as u64);
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
        self.docs.insert(self.cfg.index, self.cfg.my_doc.clone());
        match self.cfg.byzantine {
            SyncByzantineMode::Honest => {
                ctx.broadcast(SyncMsg::Propose(self.cfg.my_doc.clone()));
            }
            SyncByzantineMode::EquivocateProposal => {
                let alt = DirDocument::synthetic(
                    self.cfg.run_id ^ 0xeb0c,
                    self.cfg.index,
                    self.cfg.my_doc.size,
                );
                for peer in 0..self.cfg.n {
                    if peer as u8 == self.cfg.index {
                        continue;
                    }
                    let doc = if peer % 2 == 0 {
                        self.cfg.my_doc.clone()
                    } else {
                        alt.clone()
                    };
                    ctx.send(NodeId(peer), SyncMsg::Propose(doc));
                }
            }
        }
        for tag in [TAG_VOTE, TAG_SYNC1, TAG_SYNC2, TAG_END] {
            ctx.set_timer(self.cfg.round.saturating_mul(tag), tag);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, SyncMsg>, _from: NodeId, msg: SyncMsg) {
        match msg {
            SyncMsg::Propose(doc) => {
                if (doc.authority as usize) < self.cfg.n {
                    self.docs.entry(doc.authority).or_insert(doc);
                    if self.docs.len() == self.cfg.n && self.all_docs_at.is_none() {
                        self.all_docs_at = Some(ctx.now());
                    }
                }
            }
            SyncMsg::VotePack(pack) => {
                if (pack.packer as usize) < self.cfg.n {
                    self.packs.entry(pack.packer).or_insert(pack);
                    if self.packs.len() == self.cfg.n && self.all_packs_at.is_none() {
                        self.all_packs_at = Some(ctx.now());
                    }
                }
            }
            SyncMsg::Chain { pack, sigs } => self.accept_chain(ctx, pack, sigs),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, SyncMsg>, _timer: TimerId, tag: u64) {
        match tag {
            TAG_VOTE => {
                let pack = Pack {
                    packer: self.cfg.index,
                    docs: self.docs.values().cloned().collect(),
                };
                self.packs.insert(self.cfg.index, pack.clone());
                ctx.broadcast(SyncMsg::VotePack(pack));
            }
            TAG_SYNC1 if self.cfg.index == self.cfg.designated => {
                // The designated sender starts the Dolev–Strong chain over
                // its own pack.
                if let Some(pack) = self.packs.get(&self.cfg.index).cloned() {
                    let digest = ds_sig_digest(self.cfg.run_id, pack.digest());
                    let sig = self.cfg.signing.sign(digest.as_bytes());
                    let sigs = vec![(self.cfg.index, sig)];
                    self.agreed = Some((pack.clone(), sigs.clone()));
                    self.chain_at = Some(ctx.now());
                    ctx.broadcast(SyncMsg::Chain { pack, sigs });
                }
            }
            TAG_SYNC2 => {
                // Every authority that accepted a chain countersigns and
                // re-broadcasts (one Dolev–Strong relay round).
                if self.chained || self.cfg.index == self.cfg.designated {
                    return;
                }
                if let Some((pack, mut sigs)) = self.agreed.clone() {
                    self.chained = true;
                    let digest = ds_sig_digest(self.cfg.run_id, pack.digest());
                    sigs.push((self.cfg.index, self.cfg.signing.sign(digest.as_bytes())));
                    ctx.broadcast(SyncMsg::Chain { pack, sigs });
                }
            }
            TAG_END => {
                let (success, digest, pack_lists) = match &self.agreed {
                    Some((pack, _)) => {
                        let lists = pack.docs.len();
                        if lists >= calibration::majority(self.cfg.n) {
                            let votes: BTreeMap<u8, DirDocument> =
                                pack.docs.iter().map(|d| (d.authority, d.clone())).collect();
                            (true, Some(consensus_digest(&votes)), lists)
                        } else {
                            (false, None, lists)
                        }
                    }
                    None => (false, None, 0),
                };
                let network_time_secs = if success {
                    let p1 = self
                        .all_docs_at
                        .map(|t| t.since(self.start).as_secs_f64())
                        .unwrap_or(self.cfg.round.as_secs_f64());
                    let p2 = self
                        .all_packs_at
                        .map(|t| t.since(self.start + self.cfg.round).as_secs_f64())
                        .unwrap_or(self.cfg.round.as_secs_f64());
                    let p3 = self
                        .chain_at
                        .map(|t| {
                            t.since(self.start + self.cfg.round.saturating_mul(2))
                                .as_secs_f64()
                        })
                        .unwrap_or(self.cfg.round.as_secs_f64());
                    Some(p1 + p2 + p3)
                } else {
                    None
                };
                self.outcome = Some(SyncOutcome {
                    success,
                    digest,
                    pack_lists,
                    network_time_secs,
                });
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::vote_size_bytes;

    fn build_sim(n: usize, relays: u64, bandwidth_bps: f64) -> Simulation<SyncAuthority> {
        let signers: Vec<SigningKey> = (0..n)
            .map(|i| SigningKey::from_seed([i as u8 + 31; 32]))
            .collect();
        let keys: Committee = signers.iter().map(|k| k.verifying_key()).collect();
        let nodes: Vec<SyncAuthority> = (0..n)
            .map(|i| {
                SyncAuthority::new(SyncConfig {
                    run_id: 2,
                    index: i as u8,
                    n,
                    designated: 0,
                    round: calibration::round_duration(),
                    my_doc: DirDocument::synthetic(2, i as u8, vote_size_bytes(relays)),
                    signing: signers[i].clone(),
                    keys: keys.clone(),
                    byzantine: SyncByzantineMode::default(),
                })
            })
            .collect();
        let topo = scaled_topology(n, 3);
        let config = SimConfig {
            seed: 3,
            default_up_bps: bandwidth_bps,
            default_down_bps: bandwidth_bps,
            wire_overhead_bytes: 64,
            latency_jitter: 0.0,
        };
        Simulation::new(topo, nodes, config)
    }

    #[test]
    fn succeeds_with_ample_bandwidth() {
        let mut sim = build_sim(9, 1_000, calibration::AUTHORITY_LINK_BPS);
        sim.run_until(SimTime::from_secs(700));
        let mut digests = std::collections::BTreeSet::new();
        for i in 0..9 {
            let outcome = sim.node(NodeId(i)).outcome().expect("finished");
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
            .filter(|&i| sim.node(NodeId(i)).outcome().map(|o| o.success) == Some(true))
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
