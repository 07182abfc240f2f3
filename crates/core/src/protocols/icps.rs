//! Interactive consistency under partial synchrony — the paper's protocol
//! (§5.2).
//!
//! Three sub-protocols compose the run:
//!
//! * **Dissemination**: every authority broadcasts
//!   `⟨DOCUMENT, d_i, h_i, σ_i(i, h_i)⟩`. A node becomes *proposal-ready*
//!   when it has all `n` documents, or the timeout Δ has passed **and** it
//!   has at least `n − f`. It then broadcasts its `PROPOSAL`
//!   (per-authority digests, each countersigned) so that whichever node
//!   leads the next agreement view can aggregate a digest vector `H` with
//!   an externally verifiable proof `π`: `f + 1` endorsements per present
//!   entry (at least one correct holder), `f + 1` ⊥-endorsements per
//!   absent entry (an adversarial leader cannot exclude a correct node
//!   when GST = 0), or an equivocation proof.
//! * **Agreement**: the [`partialtor_consensus`] two-chain instance agrees
//!   on one `(H, π)`, with external validity checking the proofs.
//! * **Aggregation**: nodes fetch any documents in `H` they are missing
//!   from the endorsers recorded in the proof (at least one of which is
//!   correct), aggregate locally, sign the consensus document and
//!   broadcast the signature. Success is a majority of matching
//!   signatures.
//!
//! Unlike the lock-step baselines there are no fixed deadlines: document
//! transfer may take arbitrarily long (the partial-synchrony GST), and the
//! run completes whenever connectivity allows — the property evaluated in
//! Fig. 10 and Fig. 11 of the paper.

use crate::calibration;
use crate::document::{consensus_digest, DirDocument};
use crate::protocols::{Authority, AuthorityReport, ProtocolKind, Seat};
use crate::signing::{doc_sig_digest, SigRecord};
use partialtor_consensus::{
    Action, ConsensusConfig, ConsensusInstance, ConsensusMsg, ConsensusValue,
};
use partialtor_crypto::{sha256, Committee, Digest32, Signature};
use partialtor_simnet::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// One slot of the digest vector `H`, with its proof `π` entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VectorEntry {
    /// The authority's document digest, endorsed by `f + 1` nodes.
    Present {
        /// The document digest `h_j`.
        digest: Digest32,
        /// The sender's own signature `σ_j(j, h_j)`.
        sender_sig: Signature,
        /// `f + 1` endorsements `σ_k(j, h_j)` from distinct nodes.
        endorsements: Vec<(u8, Signature)>,
    },
    /// ⊥ with `f + 1` timeout endorsements `σ_k(j, ⊥)`.
    AbsentTimeout {
        /// The endorsements.
        endorsements: Vec<(u8, Signature)>,
    },
    /// ⊥ with an equivocation proof: two digests signed by the sender.
    AbsentEquivocation {
        /// First digest.
        digest_a: Digest32,
        /// Second digest.
        digest_b: Digest32,
        /// Sender signature over `digest_a`.
        sig_a: Signature,
        /// Sender signature over `digest_b`.
        sig_b: Signature,
    },
}

impl VectorEntry {
    /// Whether this entry carries a document digest.
    pub fn digest(&self) -> Option<Digest32> {
        match self {
            VectorEntry::Present { digest, .. } => Some(*digest),
            _ => None,
        }
    }

    fn wire_size(&self) -> u64 {
        match self {
            VectorEntry::Present { endorsements, .. } => 32 + 64 + endorsements.len() as u64 * 66,
            VectorEntry::AbsentTimeout { endorsements } => endorsements.len() as u64 * 66,
            VectorEntry::AbsentEquivocation { .. } => 64 + 128,
        }
    }
}

/// The digest vector `(H, π)` — the agreement sub-protocol's value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DigestVector {
    /// The protocol instance.
    pub run_id: u64,
    /// One entry per authority, index-aligned.
    pub entries: Vec<VectorEntry>,
}

impl DigestVector {
    /// Indices whose documents are present in the vector.
    pub fn present(&self) -> impl Iterator<Item = (u8, Digest32)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.digest().map(|d| (i as u8, d)))
    }

    /// Verifies every proof in the vector (the external-validity predicate
    /// of the agreement sub-protocol).
    pub fn verify(&self, run_id: u64, n: usize, f: usize, keys: &Committee) -> bool {
        if self.run_id != run_id || self.entries.len() != n {
            return false;
        }
        let mut present = 0usize;
        for (j, entry) in self.entries.iter().enumerate() {
            let j = j as u8;
            match entry {
                VectorEntry::Present {
                    digest,
                    sender_sig,
                    endorsements,
                } => {
                    let sender_digest = doc_sig_digest(run_id, j, Some(*digest));
                    if keys
                        .verify(j as usize, sender_digest.as_bytes(), sender_sig)
                        .is_err()
                    {
                        return false;
                    }
                    if !verify_endorsements(run_id, j, Some(*digest), endorsements, f, keys) {
                        return false;
                    }
                    present += 1;
                }
                VectorEntry::AbsentTimeout { endorsements } => {
                    if !verify_endorsements(run_id, j, None, endorsements, f, keys) {
                        return false;
                    }
                }
                VectorEntry::AbsentEquivocation {
                    digest_a,
                    digest_b,
                    sig_a,
                    sig_b,
                } => {
                    if digest_a == digest_b {
                        return false;
                    }
                    let da = doc_sig_digest(run_id, j, Some(*digest_a));
                    let db = doc_sig_digest(run_id, j, Some(*digest_b));
                    if keys.verify(j as usize, da.as_bytes(), sig_a).is_err()
                        || keys.verify(j as usize, db.as_bytes(), sig_b).is_err()
                    {
                        return false;
                    }
                }
            }
        }
        present >= n - f
    }
}

fn verify_endorsements(
    run_id: u64,
    subject: u8,
    digest: Option<Digest32>,
    endorsements: &[(u8, Signature)],
    f: usize,
    keys: &Committee,
) -> bool {
    if endorsements.len() < f + 1 {
        return false;
    }
    let signed = doc_sig_digest(run_id, subject, digest);
    let mut seen = BTreeSet::new();
    endorsements.iter().all(|(endorser, sig)| {
        seen.insert(*endorser)
            && keys
                .verify(*endorser as usize, signed.as_bytes(), sig)
                .is_ok()
    })
}

impl ConsensusValue for DigestVector {
    fn digest(&self) -> Digest32 {
        let mut hasher = sha256::Hasher::new();
        hasher.update(b"digest-vector");
        hasher.update(&self.run_id.to_le_bytes());
        for entry in &self.entries {
            match entry {
                VectorEntry::Present { digest, .. } => {
                    hasher.update(&[1]);
                    hasher.update(digest.as_bytes());
                }
                VectorEntry::AbsentTimeout { .. } => hasher.update(&[0]),
                VectorEntry::AbsentEquivocation { .. } => hasher.update(&[2]),
            }
        }
        hasher.finalize()
    }

    fn wire_size(&self) -> u64 {
        16 + self.entries.iter().map(VectorEntry::wire_size).sum::<u64>()
    }
}

/// A `DOCUMENT` broadcast: the vote plus the sender's signature on its
/// digest.
#[derive(Clone, Debug)]
pub struct DocMsg {
    /// The document.
    pub doc: DirDocument,
    /// `σ_i(i, h_i)`.
    pub sig: Signature,
}

/// One slot of a `PROPOSAL`: what the proposer knows about authority
/// `subject`'s document.
#[derive(Clone, Debug)]
pub struct ProposalEntry {
    /// Which authority this entry describes.
    pub subject: u8,
    /// The digest (`None` = ⊥, not received).
    pub digest: Option<Digest32>,
    /// The subject's own signature when `digest` is present.
    pub sender_sig: Option<Signature>,
    /// The proposer's endorsement `σ_i(subject, digest-or-⊥)`.
    pub endorse_sig: Signature,
}

/// A `PROPOSAL` message (the `P_i` of the paper's Fig. 9).
#[derive(Clone, Debug)]
pub struct ProposalMsg {
    /// The proposing node.
    pub from: u8,
    /// One entry per authority.
    pub entries: Vec<ProposalEntry>,
}

/// Messages of the ICPS protocol.
#[derive(Clone, Debug)]
pub enum IcpsMsg {
    /// Dissemination: a document broadcast.
    Document(DocMsg),
    /// Dissemination: a digest proposal.
    Proposal(ProposalMsg),
    /// Agreement: a BFT message.
    Bft(ConsensusMsg<DigestVector>),
    /// Aggregation: request documents by authority index.
    FetchRequest {
        /// Authority indices wanted.
        wanted: Vec<u8>,
    },
    /// Aggregation: a served document.
    FetchResponse(DocMsg),
    /// Aggregation: a consensus signature.
    ConsensusSig(SigRecord),
}

impl Payload for IcpsMsg {
    fn wire_size(&self) -> u64 {
        match self {
            IcpsMsg::Document(m) | IcpsMsg::FetchResponse(m) => m.doc.size + 64 + 8,
            IcpsMsg::Proposal(p) => 8 + p.entries.len() as u64 * (1 + 32 + 64 + 64),
            IcpsMsg::Bft(m) => m.wire_size(),
            IcpsMsg::FetchRequest { wanted } => 16 + wanted.len() as u64,
            IcpsMsg::ConsensusSig(_) => 8 + 32 + 64,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            IcpsMsg::Document(_) => "DOCUMENT",
            IcpsMsg::Proposal(_) => "PROPOSAL",
            IcpsMsg::Bft(m) => m.kind(),
            IcpsMsg::FetchRequest { .. } => "FETCH-REQ",
            IcpsMsg::FetchResponse(_) => "FETCH-RESP",
            IcpsMsg::ConsensusSig(_) => "CONS-SIG",
        }
    }
}

const TAG_DISSEMINATION: u64 = 1;
/// BFT round timers are tagged `TAG_BFT_BASE + round`.
const TAG_BFT_BASE: u64 = 1_000;

/// Where the aggregation sub-protocol fetches missing documents from.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FetchPolicy {
    /// From the `f + 1` endorsers recorded in the decided vector's proof
    /// (at least one is correct); bounded amplification.
    #[default]
    Endorsers,
    /// From every other authority, as the paper's §5.2.3 text describes;
    /// up to `n − 1` duplicate responses per document.
    Everyone,
}

/// Misbehavior modes for attack reproduction and testing.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum IcpsByzantineMode {
    /// Follows the protocol.
    #[default]
    Honest,
    /// Crashed from the start: sends nothing, ever.
    Silent,
    /// Sends its DOCUMENT to only the first `k` peers (then participates
    /// honestly). With k = f + 1 this forces the aggregation sub-protocol
    /// to exercise the digest-directed fetch path.
    SelectiveSend(usize),
    /// Broadcasts two different signed documents (one to even peers, one
    /// to odd peers). Honest leaders assemble the equivocation proof and
    /// the vector excludes this authority with `AbsentEquivocation`.
    EquivocateDocuments,
}

/// One directory authority running the ICPS protocol.
pub struct IcpsAuthority {
    seat: Seat,
    byzantine: IcpsByzantineMode,
    fetch_policy: FetchPolicy,
    /// Fault tolerance (n ≥ 3f + 1).
    f: usize,
    docs: BTreeMap<u8, DocMsg>,
    proposals: BTreeMap<u8, ProposalMsg>,
    deadline_passed: bool,
    proposal_sent: bool,
    bft: ConsensusInstance<DigestVector>,
    bft_input_set: bool,
    decided: Option<DigestVector>,
    awaiting_docs: BTreeSet<u8>,
    my_digest: Option<Digest32>,
    sigs: BTreeMap<u8, SigRecord>,
    /// When a majority of matching consensus signatures were held.
    valid_at: Option<SimTime>,
    /// The BFT round whose two-chain committed.
    decided_round: Option<u64>,
}

impl Authority for IcpsAuthority {
    const KIND: ProtocolKind = ProtocolKind::Icps;
    /// Misbehaviour, and where aggregation fetches from (an ablation).
    type Mode = (IcpsByzantineMode, FetchPolicy);

    fn new(seat: Seat, (byzantine, fetch_policy): Self::Mode) -> Self {
        let (run_id, n) = (seat.run_id, seat.n);
        let f = calibration::partial_synchrony_f(n);
        let bft_config = ConsensusConfig {
            instance: run_id,
            n,
            f,
            node: seat.index as usize,
            leader_offset: 0,
            base_timeout_ms: calibration::BFT_BASE_TIMEOUT_MS,
        };
        let validity_keys = seat.keys.clone();
        let bft = ConsensusInstance::new(
            bft_config,
            seat.keys.clone(),
            seat.signing.clone(),
            Box::new(move |v: &DigestVector| v.verify(run_id, n, f, &validity_keys)),
        );
        IcpsAuthority {
            seat,
            byzantine,
            fetch_policy,
            f,
            docs: BTreeMap::new(),
            proposals: BTreeMap::new(),
            deadline_passed: false,
            proposal_sent: false,
            bft,
            bft_input_set: false,
            decided: None,
            awaiting_docs: BTreeSet::new(),
            my_digest: None,
            sigs: BTreeMap::new(),
            valid_at: None,
            decided_round: None,
        }
    }

    fn report(&mut self) -> AuthorityReport {
        let valid_at_secs = self.valid_at.map(SimTime::as_secs_f64);
        AuthorityReport {
            index: self.seat.index as usize,
            success: self.valid_at.is_some(),
            digest: self.my_digest,
            network_time_secs: valid_at_secs,
            valid_at_secs,
            decided_round: self.decided_round,
            phases: Vec::new(),
        }
    }
}

impl IcpsAuthority {
    /// The digest vector the agreement sub-protocol decided, if any.
    pub fn decided_vector(&self) -> Option<&DigestVector> {
        self.decided.as_ref()
    }

    fn endorse(&self, subject: u8, digest: Option<Digest32>) -> Signature {
        let d = doc_sig_digest(self.seat.run_id, subject, digest);
        self.seat.signing.sign(d.as_bytes())
    }

    fn apply_bft_actions(
        &mut self,
        ctx: &mut Context<'_, IcpsMsg>,
        actions: Vec<Action<DigestVector>>,
    ) {
        for action in actions {
            match action {
                Action::Send { to, msg } => ctx.send(NodeId(to), IcpsMsg::Bft(msg)),
                Action::Broadcast { msg } => ctx.broadcast(IcpsMsg::Bft(msg)),
                Action::SetTimer { round, after_ms } => {
                    ctx.set_timer(SimDuration::from_millis(after_ms), TAG_BFT_BASE + round);
                }
                Action::Decide { value, round } => self.on_bft_decide(ctx, value, round),
            }
        }
    }

    /// Dissemination and aggregation: handle a document, broadcast or
    /// fetched.
    fn record_doc(&mut self, ctx: &mut Context<'_, IcpsMsg>, msg: DocMsg) {
        let j = msg.doc.authority;
        if j as usize >= self.seat.n || self.docs.contains_key(&j) {
            return;
        }
        // Once agreement has named `j`'s document, no other will do: an
        // equivocating `j` holds a second validly signed one, and taking
        // it here would aggregate a vote set nobody agreed on.
        let named = self
            .decided
            .as_ref()
            .and_then(|vector| vector.entries.get(j as usize)?.digest());
        if named.is_some_and(|digest| digest != msg.doc.digest) {
            return;
        }
        let signed = doc_sig_digest(self.seat.run_id, j, Some(msg.doc.digest));
        if self
            .seat
            .keys
            .verify(j as usize, signed.as_bytes(), &msg.sig)
            .is_err()
        {
            return;
        }
        self.docs.insert(j, msg);
        self.awaiting_docs.remove(&j);
        self.maybe_send_proposal(ctx);
        self.maybe_finish_docs(ctx);
    }

    /// Sends our PROPOSAL once the paper's readiness condition holds.
    fn maybe_send_proposal(&mut self, ctx: &mut Context<'_, IcpsMsg>) {
        if self.proposal_sent {
            return;
        }
        let have_all = self.docs.len() == self.seat.n;
        let have_quorum = self.docs.len() >= self.seat.n - self.f;
        if !(have_all || (self.deadline_passed && have_quorum)) {
            return;
        }
        self.proposal_sent = true;
        let entries: Vec<ProposalEntry> = (0..self.seat.n as u8)
            .map(|j| match self.docs.get(&j) {
                Some(m) => ProposalEntry {
                    subject: j,
                    digest: Some(m.doc.digest),
                    sender_sig: Some(m.sig),
                    endorse_sig: self.endorse(j, Some(m.doc.digest)),
                },
                None => ProposalEntry {
                    subject: j,
                    digest: None,
                    sender_sig: None,
                    endorse_sig: self.endorse(j, None),
                },
            })
            .collect();
        let proposal = ProposalMsg {
            from: self.seat.index,
            entries,
        };
        self.record_proposal(ctx, proposal.clone());
        ctx.broadcast(IcpsMsg::Proposal(proposal));
    }

    /// Dissemination: accumulate proposals and build the BFT input when
    /// the digest vector becomes ready.
    fn record_proposal(&mut self, ctx: &mut Context<'_, IcpsMsg>, p: ProposalMsg) {
        if p.from as usize >= self.seat.n
            || self.proposals.contains_key(&p.from)
            || p.entries.len() != self.seat.n
        {
            return;
        }
        // Verify every entry's endorsement (and sender signature when
        // present).
        for (j, entry) in p.entries.iter().enumerate() {
            let j = j as u8;
            if entry.subject != j {
                return;
            }
            let endorsed = doc_sig_digest(self.seat.run_id, j, entry.digest);
            if self
                .seat
                .keys
                .verify(p.from as usize, endorsed.as_bytes(), &entry.endorse_sig)
                .is_err()
            {
                return;
            }
            match (&entry.digest, &entry.sender_sig) {
                (Some(digest), Some(sender_sig)) => {
                    let signed = doc_sig_digest(self.seat.run_id, j, Some(*digest));
                    if self
                        .seat
                        .keys
                        .verify(j as usize, signed.as_bytes(), sender_sig)
                        .is_err()
                    {
                        return;
                    }
                }
                (None, None) => {}
                _ => return,
            }
        }
        self.proposals.insert(p.from, p);
        self.maybe_build_input(ctx);
    }

    /// Tries to aggregate the received proposals into a ready `(H, π)`.
    fn maybe_build_input(&mut self, ctx: &mut Context<'_, IcpsMsg>) {
        if self.bft_input_set || self.proposals.len() < self.seat.n - self.f {
            return;
        }
        let mut entries = Vec::with_capacity(self.seat.n);
        for j in 0..self.seat.n as u8 {
            let mut by_digest: BTreeMap<Digest32, (Signature, Vec<(u8, Signature)>)> =
                BTreeMap::new();
            let mut absents: Vec<(u8, Signature)> = Vec::new();
            for (from, p) in &self.proposals {
                let entry = &p.entries[j as usize];
                match (&entry.digest, &entry.sender_sig) {
                    (Some(d), Some(ss)) => {
                        let slot = by_digest.entry(*d).or_insert_with(|| (*ss, Vec::new()));
                        slot.1.push((*from, entry.endorse_sig));
                    }
                    _ => absents.push((*from, entry.endorse_sig)),
                }
            }
            // Equivocation: two distinct digests validly signed by j.
            if by_digest.len() >= 2 {
                let mut it = by_digest.iter();
                let (da, (sa, _)) = it.next().expect("two entries");
                let (db, (sb, _)) = it.next().expect("two entries");
                entries.push(VectorEntry::AbsentEquivocation {
                    digest_a: *da,
                    digest_b: *db,
                    sig_a: *sa,
                    sig_b: *sb,
                });
                continue;
            }
            let threshold = self.f + 1;
            if let Some((digest, (sender_sig, endorsers))) = by_digest.into_iter().next() {
                if endorsers.len() >= threshold {
                    entries.push(VectorEntry::Present {
                        digest,
                        sender_sig,
                        endorsements: endorsers.into_iter().take(threshold).collect(),
                    });
                    continue;
                }
            }
            if absents.len() >= threshold {
                entries.push(VectorEntry::AbsentTimeout {
                    endorsements: absents.into_iter().take(threshold).collect(),
                });
                continue;
            }
            // Undecided slot: wait for more proposals.
            return;
        }
        let vector = DigestVector {
            run_id: self.seat.run_id,
            entries,
        };
        let present = vector.present().count();
        if present < self.seat.n - self.f {
            return;
        }
        self.bft_input_set = true;
        let actions = self.bft.set_input(vector);
        self.apply_bft_actions(ctx, actions);
    }

    /// Agreement decided: enter the aggregation sub-protocol.
    fn on_bft_decide(&mut self, ctx: &mut Context<'_, IcpsMsg>, vector: DigestVector, round: u64) {
        if self.decided.is_some() {
            return;
        }
        self.decided_round = Some(round);
        // Fetch any documents we are missing from their endorsers (at
        // least one of which is correct).
        let mut requests: BTreeMap<u8, Vec<u8>> = BTreeMap::new();
        for (j, digest) in vector.present() {
            let have = self.docs.get(&j).is_some_and(|m| m.doc.digest == digest);
            if !have {
                self.docs.remove(&j);
                self.awaiting_docs.insert(j);
                match self.fetch_policy {
                    FetchPolicy::Endorsers => {
                        if let VectorEntry::Present { endorsements, .. } =
                            &vector.entries[j as usize]
                        {
                            for (endorser, _) in endorsements {
                                requests.entry(*endorser).or_default().push(j);
                            }
                        }
                    }
                    FetchPolicy::Everyone => {
                        for peer in 0..self.seat.n as u8 {
                            requests.entry(peer).or_default().push(j);
                        }
                    }
                }
            }
        }
        self.decided = Some(vector);
        for (endorser, wanted) in requests {
            if endorser != self.seat.index {
                ctx.send(NodeId(endorser as usize), IcpsMsg::FetchRequest { wanted });
            }
        }
        self.maybe_finish_docs(ctx);
    }

    /// Aggregation: once every document named by the decided vector is
    /// held, aggregate, sign and broadcast.
    fn maybe_finish_docs(&mut self, ctx: &mut Context<'_, IcpsMsg>) {
        if self.my_digest.is_some() {
            return;
        }
        let Some(vector) = &self.decided else {
            return;
        };
        if !self.awaiting_docs.is_empty() {
            return;
        }
        let votes: BTreeMap<u8, DirDocument> = vector
            .present()
            .map(|(j, _)| (j, self.docs[&j].doc.clone()))
            .collect();
        let digest = consensus_digest(&votes);
        self.my_digest = Some(digest);
        let rec = SigRecord::create(
            self.seat.run_id,
            self.seat.index,
            digest,
            &self.seat.signing,
        );
        self.sigs.insert(self.seat.index, rec.clone());
        ctx.broadcast(IcpsMsg::ConsensusSig(rec));
        self.check_validity(ctx);
    }

    fn check_validity(&mut self, ctx: &mut Context<'_, IcpsMsg>) {
        if self.valid_at.is_some() {
            return;
        }
        let Some(digest) = self.my_digest else {
            return;
        };
        let matching = self.sigs.values().filter(|s| s.digest == digest).count();
        if matching >= calibration::majority(self.seat.n) {
            self.valid_at = Some(ctx.now());
        }
    }
}

impl Node for IcpsAuthority {
    type Msg = IcpsMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, IcpsMsg>) {
        if self.byzantine == IcpsByzantineMode::Silent {
            return;
        }
        let sig = self.endorse(self.seat.index, Some(self.seat.doc.digest));
        let msg = DocMsg {
            doc: self.seat.doc.clone(),
            sig,
        };
        self.docs.insert(self.seat.index, msg.clone());
        match self.byzantine {
            IcpsByzantineMode::Honest => ctx.broadcast(IcpsMsg::Document(msg)),
            IcpsByzantineMode::Silent => unreachable!("handled above"),
            IcpsByzantineMode::SelectiveSend(k) => {
                let mut sent = 0;
                for peer in 0..self.seat.n {
                    if peer as u8 != self.seat.index && sent < k {
                        ctx.send(NodeId(peer), IcpsMsg::Document(msg.clone()));
                        sent += 1;
                    }
                }
            }
            IcpsByzantineMode::EquivocateDocuments => {
                let alt_doc = DirDocument::synthetic(
                    self.seat.run_id ^ 0xeb0c,
                    self.seat.index,
                    self.seat.doc.size,
                );
                let alt = DocMsg {
                    sig: self.endorse(self.seat.index, Some(alt_doc.digest)),
                    doc: alt_doc,
                };
                for peer in 0..self.seat.n {
                    if peer as u8 == self.seat.index {
                        continue;
                    }
                    let doc = if peer % 2 == 0 {
                        msg.clone()
                    } else {
                        alt.clone()
                    };
                    ctx.send(NodeId(peer), IcpsMsg::Document(doc));
                }
            }
        }
        ctx.set_timer(calibration::dissemination_timeout(), TAG_DISSEMINATION);
        let actions = self.bft.start();
        self.apply_bft_actions(ctx, actions);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, IcpsMsg>, from: NodeId, msg: IcpsMsg) {
        if self.byzantine == IcpsByzantineMode::Silent {
            return;
        }
        match msg {
            IcpsMsg::Document(m) | IcpsMsg::FetchResponse(m) => self.record_doc(ctx, m),
            IcpsMsg::Proposal(p) => self.record_proposal(ctx, p),
            IcpsMsg::Bft(m) => {
                let actions = self.bft.on_message(m);
                self.apply_bft_actions(ctx, actions);
            }
            IcpsMsg::FetchRequest { wanted } => {
                for j in wanted {
                    if let Some(m) = self.docs.get(&j) {
                        ctx.send(from, IcpsMsg::FetchResponse(m.clone()));
                    }
                }
            }
            IcpsMsg::ConsensusSig(rec) => {
                if rec.verify(self.seat.run_id, &self.seat.keys) {
                    self.sigs.entry(rec.authority).or_insert(rec);
                    self.check_validity(ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, IcpsMsg>, tag: u64) {
        if self.byzantine == IcpsByzantineMode::Silent {
            return;
        }
        if tag == TAG_DISSEMINATION {
            self.deadline_passed = true;
            self.maybe_send_proposal(ctx);
        } else if tag >= TAG_BFT_BASE {
            let actions = self.bft.on_timeout(tag - TAG_BFT_BASE);
            self.apply_bft_actions(ctx, actions);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::vote_size_bytes;
    use crate::protocols::testing;
    use partialtor_crypto::SigningKey;

    const RUN_ID: u64 = 3;

    fn committee(n: usize) -> (Vec<SigningKey>, Committee) {
        testing::committee(n, 91)
    }

    fn build_sim(
        n: usize,
        relays: u64,
        bandwidth_bps: f64,
        seed: u64,
    ) -> Simulation<IcpsAuthority> {
        testing::build_sim(n, relays, bandwidth_bps, seed, RUN_ID, 91)
    }

    /// `subject`'s signature and the first `endorsers` nodes' endorsements
    /// of `digest`.
    fn present_entry(
        signers: &[SigningKey],
        subject: u8,
        digest: Digest32,
        endorsers: usize,
    ) -> VectorEntry {
        let signed = doc_sig_digest(RUN_ID, subject, Some(digest));
        VectorEntry::Present {
            digest,
            sender_sig: signers[subject as usize].sign(signed.as_bytes()),
            endorsements: (0..endorsers)
                .map(|k| (k as u8, signers[k].sign(signed.as_bytes())))
                .collect(),
        }
    }

    fn assert_all_valid(sim: &mut Simulation<IcpsAuthority>, n: usize) -> Digest32 {
        let mut digest = None;
        for i in 0..n {
            let o = sim.node_mut(NodeId(i)).report();
            assert!(o.success, "authority {i}: {o:?}");
            match digest {
                None => digest = o.digest,
                Some(d) => assert_eq!(Some(d), o.digest, "digest divergence at {i}"),
            }
        }
        digest.unwrap()
    }

    #[test]
    fn completes_quickly_with_ample_bandwidth() {
        let mut sim = build_sim(9, 1_000, calibration::AUTHORITY_LINK_BPS, 1);
        sim.run_until(SimTime::from_secs(3_600));
        assert_all_valid(&mut sim, 9);
        let o = sim.node_mut(NodeId(0)).report();
        assert!(
            o.valid_at_secs.unwrap() < 30.0,
            "should finish in seconds, took {}",
            o.valid_at_secs.unwrap()
        );
    }

    #[test]
    fn survives_attack_residual_bandwidth() {
        // 0.5 Mbit/s everywhere — the condition that kills both lock-step
        // protocols (Fig. 10, bottom row). Dissemination of 8 × ~1 MB per
        // authority takes ~minutes; the run must still complete.
        let mut sim = build_sim(9, 1_000, calibration::ATTACK_RESIDUAL_BPS, 2);
        sim.run_until(SimTime::from_secs(7_200));
        assert_all_valid(&mut sim, 9);
    }

    #[test]
    fn digest_vector_validity_rejects_bad_proofs() {
        let (signers, keys) = committee(9);
        let doc_digest = sha256::digest(b"doc");
        let make_entry =
            |j: u8, endorsers: usize| present_entry(&signers, j, doc_digest, endorsers);
        // Valid vector: 9 present entries with f+1 = 3 endorsements.
        let good = DigestVector {
            run_id: 3,
            entries: (0..9).map(|j| make_entry(j, 3)).collect(),
        };
        assert!(good.verify(3, 9, 2, &keys));

        // Too few endorsements.
        let bad = DigestVector {
            run_id: 3,
            entries: (0..9).map(|j| make_entry(j, 2)).collect(),
        };
        assert!(!bad.verify(3, 9, 2, &keys));

        // Too few present entries (needs ≥ 7 of 9).
        let mut entries: Vec<VectorEntry> = (0..6).map(|j| make_entry(j, 3)).collect();
        for j in 6..9u8 {
            entries.push(VectorEntry::AbsentTimeout {
                endorsements: (0..3)
                    .map(|k| {
                        (
                            k as u8,
                            signers[k as usize].sign(doc_sig_digest(3, j, None).as_bytes()),
                        )
                    })
                    .collect(),
            });
        }
        let sparse = DigestVector { run_id: 3, entries };
        assert!(!sparse.verify(3, 9, 2, &keys));
    }

    #[test]
    fn equivocation_entry_requires_distinct_digests() {
        let (signers, keys) = committee(1);
        let d = sha256::digest(b"same");
        let sig = signers[0].sign(doc_sig_digest(3, 0, Some(d)).as_bytes());
        let entry = VectorEntry::AbsentEquivocation {
            digest_a: d,
            digest_b: d,
            sig_a: sig,
            sig_b: sig,
        };
        let mut vector = DigestVector {
            run_id: 3,
            entries: vec![entry],
        };
        // n = 1 for the narrow check (entries len must match n).
        assert!(!vector.verify(3, 1, 0, &keys));
        // Distinct digests signed by the subject do verify.
        let d2 = sha256::digest(b"other");
        vector.entries[0] = VectorEntry::AbsentEquivocation {
            digest_a: d,
            digest_b: d2,
            sig_a: signers[0].sign(doc_sig_digest(3, 0, Some(d)).as_bytes()),
            sig_b: signers[0].sign(doc_sig_digest(3, 0, Some(d2)).as_bytes()),
        };
        // Still fails overall: 0 present entries < n − f = 1.
        assert!(!vector.verify(3, 1, 0, &keys));
    }

    /// Seat 0 of a nine-seat simulation starts a real authority and then
    /// plays `script` to it at time zero, inside `on_start` — the one
    /// place a test is handed a `Context`. The other seats hold no
    /// authority and swallow whatever it sends.
    struct ScriptedSeat {
        authority: Option<IcpsAuthority>,
        script: Vec<Step>,
    }

    enum Step {
        /// A message arrives from a peer.
        Deliver(u8, Box<IcpsMsg>),
        /// The agreement sub-protocol decides this vector.
        Decide(DigestVector),
    }

    impl Node for ScriptedSeat {
        type Msg = IcpsMsg;

        fn on_start(&mut self, ctx: &mut Context<'_, IcpsMsg>) {
            let Some(authority) = &mut self.authority else {
                return;
            };
            authority.on_start(ctx);
            for step in self.script.drain(..) {
                match step {
                    Step::Deliver(from, msg) => {
                        authority.on_message(ctx, NodeId(from as usize), *msg)
                    }
                    Step::Decide(vector) => authority.on_bft_decide(ctx, vector, 0),
                }
            }
        }

        fn on_message(&mut self, _: &mut Context<'_, IcpsMsg>, _: NodeId, _: IcpsMsg) {}
    }

    /// Authority 2 equivocates: node 0 got its second document, the
    /// committee agreed on its first. Node 0 drops its copy at the
    /// decision and asks the endorsers — and before they answer, authority
    /// 2 sends the second document again, validly signed, as a DOCUMENT
    /// and as a FETCH-RESP. Node 0 must keep waiting for the named one.
    #[test]
    fn aggregation_ignores_a_document_the_decided_vector_does_not_name() {
        const BYZANTINE: u8 = 2;
        let committee = committee(9);
        let signers = &committee.0;
        let size = vote_size_bytes(1_000);
        let agreed: BTreeMap<u8, DirDocument> = (0..9)
            .map(|i| (i, DirDocument::synthetic(RUN_ID, i, size)))
            .collect();
        let second = DirDocument::synthetic(RUN_ID ^ 0xeb0c, BYZANTINE, size);
        let signed = |doc: &DirDocument| DocMsg {
            doc: doc.clone(),
            sig: signers[doc.authority as usize]
                .sign(doc_sig_digest(RUN_ID, doc.authority, Some(doc.digest)).as_bytes()),
        };

        let mut script: Vec<Step> = (1..9)
            .map(|i| {
                let doc = if i == BYZANTINE { &second } else { &agreed[&i] };
                Step::Deliver(i, Box::new(IcpsMsg::Document(signed(doc))))
            })
            .collect();
        let vector = DigestVector {
            run_id: RUN_ID,
            entries: agreed
                .values()
                .map(|doc| present_entry(signers, doc.authority, doc.digest, 3))
                .collect(),
        };
        assert!(vector.verify(RUN_ID, 9, 2, &committee.1));
        script.extend([
            Step::Decide(vector),
            Step::Deliver(BYZANTINE, Box::new(IcpsMsg::FetchResponse(signed(&second)))),
            Step::Deliver(BYZANTINE, Box::new(IcpsMsg::Document(signed(&second)))),
            // An endorser answers the fetch with the named document.
            Step::Deliver(
                1,
                Box::new(IcpsMsg::FetchResponse(signed(&agreed[&BYZANTINE]))),
            ),
        ]);

        let mut seats = vec![ScriptedSeat {
            authority: Some(IcpsAuthority::new(
                testing::seat(0, RUN_ID, 1_000, &committee),
                Default::default(),
            )),
            script,
        }];
        seats.extend((1..9).map(|_| ScriptedSeat {
            authority: None,
            script: Vec::new(),
        }));
        let mut sim = Simulation::new(
            scaled_topology(9, 1),
            seats,
            SimConfig {
                seed: 1,
                ..SimConfig::default()
            },
        );
        sim.run_until(SimTime::from_secs(60));

        let node = sim.node_mut(NodeId(0)).authority.as_mut().expect("seat 0");
        assert!(node.awaiting_docs.is_empty());
        assert_eq!(node.docs[&BYZANTINE].doc.digest, agreed[&BYZANTINE].digest);
        assert_eq!(node.report().digest, Some(consensus_digest(&agreed)));
    }
}
