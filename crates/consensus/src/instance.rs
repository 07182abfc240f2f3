//! The single-shot view-based agreement state machine.
//!
//! Sans-IO: the instance consumes messages and timeout notifications and
//! returns [`Action`]s (sends, broadcasts, timer arms, the decision). The
//! host — unit tests here, the simulated authority in `partialtor` —
//! performs the IO. This keeps the agreement logic independently testable,
//! which is where the safety bugs would live.
//!
//! # Protocol
//!
//! Rounds `r = 0, 1, 2, …` with leader `(r + offset) mod n`:
//!
//! 1. the leader proposes `Block { round, value, qc, tc }`, where `value`
//!    re-proposes its highest known QC's value (or its own input if it has
//!    seen no QC), `qc` is its high QC, and `tc` justifies entry after a
//!    timeout;
//! 2. nodes vote for at most one proposal per round, only with valid
//!    justification (`qc.round == r − 1`, or a TC for `r − 1` whose maximum
//!    attested high-QC round does not exceed `qc`'s round); votes go to the
//!    leader of `r + 1`;
//! 3. `n − f` votes form a QC; two QCs over the same value in consecutive
//!    rounds commit that value;
//! 4. on timeout, nodes broadcast signed timeouts carrying their high QC;
//!    `n − f` of them form a TC that moves everyone to the next round.
//!
//! With a correct leader and no GST the decision takes 5 message rounds
//! (propose, vote, propose, vote, decide broadcast) — the constant used by
//! the paper's Table 2.

use crate::types::{
    timeout_digest, vote_digest, Action, Block, ConsensusMsg, ConsensusValue, DecideMsg, Qc, Tc,
    TcEntry, TimeoutMsg, VoteMsg,
};
use partialtor_crypto::{Committee, Digest32, Signature, SigningKey};
use std::collections::{BTreeMap, BTreeSet};

/// Static configuration of one agreement instance.
#[derive(Clone, Debug)]
pub struct ConsensusConfig {
    /// Instance id (domain-separates signatures between runs).
    pub instance: u64,
    /// Committee size.
    pub n: usize,
    /// Fault tolerance; requires `n ≥ 3f + 1`.
    pub f: usize,
    /// This node's index.
    pub node: usize,
    /// First-round leader offset (`leader(r) = (r + offset) % n`).
    pub leader_offset: usize,
    /// Base round timeout in milliseconds.
    pub base_timeout_ms: u64,
}

impl ConsensusConfig {
    /// The quorum size `n − f`.
    pub fn quorum(&self) -> usize {
        self.n - self.f
    }

    /// The leader of a round.
    pub fn leader(&self, round: u64) -> usize {
        (round as usize + self.leader_offset) % self.n
    }
}

/// External validity predicate for proposed values.
pub type Validator<V> = Box<dyn Fn(&V) -> bool>;

/// A single-shot Byzantine agreement instance.
pub struct ConsensusInstance<V: ConsensusValue> {
    config: ConsensusConfig,
    keys: Committee,
    signing: SigningKey,
    validator: Validator<V>,

    input: Option<V>,
    started: bool,
    current_round: u64,
    last_voted_round: Option<u64>,
    high_qc: Option<Qc>,
    /// One QC per round (two QCs in one round would need a safety violation).
    qcs: BTreeMap<u64, Qc>,
    tcs: BTreeMap<u64, Tc>,
    /// Vote accumulator: (round, digest) → voter → signature.
    votes: BTreeMap<(u64, Digest32), BTreeMap<usize, Signature>>,
    /// Timeout accumulator: round → node → (high_qc_round, signature).
    timeouts: BTreeMap<u64, BTreeMap<usize, (Option<u64>, Signature)>>,
    /// Values learned from proposals/decides, by digest.
    values: BTreeMap<Digest32, V>,
    /// Rounds this node already proposed in.
    proposed: BTreeSet<u64>,
    /// Decision pending only because the value bytes are unknown.
    pending_decide: Option<(Digest32, u64)>,
    decided: Option<(V, u64)>,
    decide_broadcast: bool,
    consecutive_timeouts: u32,
    /// Round counter for instrumentation (Table 2): counts message rounds
    /// this node participated in.
    rounds_participated: u64,
}

impl<V: ConsensusValue> ConsensusInstance<V> {
    /// Creates an instance. Key `i` of `keys` must be node `i`'s public
    /// key; pass a clone of the run's [`Committee`] to share its verified
    /// set with the other nodes, or a `Vec<VerifyingKey>` for a set of
    /// this instance's own.
    ///
    /// # Panics
    ///
    /// Panics unless `n ≥ 3f + 1` and `keys.len() == n`.
    pub fn new(
        config: ConsensusConfig,
        keys: impl Into<Committee>,
        signing: SigningKey,
        validator: Validator<V>,
    ) -> Self {
        let keys = keys.into();
        assert!(config.n > 3 * config.f, "need n >= 3f + 1");
        assert_eq!(keys.len(), config.n, "one key per node");
        ConsensusInstance {
            config,
            keys,
            signing,
            validator,
            input: None,
            started: false,
            current_round: 0,
            last_voted_round: None,
            high_qc: None,
            qcs: BTreeMap::new(),
            tcs: BTreeMap::new(),
            votes: BTreeMap::new(),
            timeouts: BTreeMap::new(),
            values: BTreeMap::new(),
            proposed: BTreeSet::new(),
            pending_decide: None,
            decided: None,
            decide_broadcast: false,
            consecutive_timeouts: 0,
            rounds_participated: 0,
        }
    }

    /// The decided value, if any.
    pub fn decided(&self) -> Option<&(V, u64)> {
        self.decided.as_ref()
    }

    /// The current round.
    pub fn current_round(&self) -> u64 {
        self.current_round
    }

    /// Message rounds this node took part in (Table 2 instrumentation).
    pub fn rounds_participated(&self) -> u64 {
        self.rounds_participated
    }

    /// Starts the instance: arms the round-0 timer and proposes if this
    /// node leads round 0 and already has an input.
    pub fn start(&mut self) -> Vec<Action<V>> {
        let mut actions = Vec::new();
        self.started = true;
        actions.push(self.arm_timer());
        self.try_propose(&mut actions);
        actions
    }

    /// Supplies this node's input value (may arrive after `start`, e.g.
    /// when the dissemination sub-protocol finishes late).
    pub fn set_input(&mut self, value: V) -> Vec<Action<V>> {
        let mut actions = Vec::new();
        if self.input.is_none() {
            self.input = Some(value);
            self.try_propose(&mut actions);
        }
        actions
    }

    /// Handles an incoming protocol message.
    pub fn on_message(&mut self, msg: ConsensusMsg<V>) -> Vec<Action<V>> {
        let mut actions = Vec::new();
        if self.decided.is_some() {
            return actions;
        }
        match msg {
            ConsensusMsg::Proposal(block) => self.handle_proposal(block, &mut actions),
            ConsensusMsg::Vote(vote) => self.handle_vote(vote, &mut actions),
            ConsensusMsg::Timeout(tm) => self.handle_timeout_msg(tm, &mut actions),
            ConsensusMsg::Decide(dm) => self.handle_decide(dm, &mut actions),
        }
        actions
    }

    /// Handles a round timer firing.
    pub fn on_timeout(&mut self, round: u64) -> Vec<Action<V>> {
        let mut actions = Vec::new();
        if self.decided.is_some() || round < self.current_round {
            return actions;
        }
        self.consecutive_timeouts += 1;
        let high_qc_round = self.high_qc.as_ref().map(|q| q.round);
        let digest = timeout_digest(self.config.instance, round, high_qc_round);
        let tm = TimeoutMsg {
            round,
            high_qc: self.high_qc.clone(),
            node: self.config.node,
            signature: self.signing.sign(digest.as_bytes()),
        };
        self.rounds_participated += 1;
        actions.push(Action::Broadcast {
            msg: ConsensusMsg::Timeout(tm.clone()),
        });
        // Process our own timeout (we are one of the n − f needed).
        self.handle_timeout_msg(tm, &mut actions);
        // Re-arm with backoff in case the view change itself stalls.
        actions.push(self.arm_timer());
        actions
    }

    fn arm_timer(&self) -> Action<V> {
        let exponent = self.consecutive_timeouts.min(6);
        Action::SetTimer {
            round: self.current_round,
            after_ms: self.config.base_timeout_ms << exponent,
        }
    }

    /// Proposes in the current round if this node leads it, has not yet
    /// proposed, holds a proposable value, and holds the justification.
    fn try_propose(&mut self, actions: &mut Vec<Action<V>>) {
        let round = self.current_round;
        if !self.started
            || self.decided.is_some()
            || self.config.leader(round) != self.config.node
            || self.proposed.contains(&round)
        {
            return;
        }

        // Justification: round 0 needs none; otherwise a QC or TC of r − 1.
        let tc = if round > 0 {
            let prev_qc = self.qcs.get(&(round - 1));
            let prev_tc = self.tcs.get(&(round - 1));
            match (prev_qc, prev_tc) {
                (Some(_), _) => None,
                (None, Some(tc)) => Some(tc.clone()),
                (None, None) => return,
            }
        } else {
            None
        };

        // Value: re-propose the high QC's value if one exists, else input.
        let value = match &self.high_qc {
            Some(qc) => match self.values.get(&qc.value) {
                Some(v) => v.clone(),
                // We know a QC exists but not its value bytes; we cannot
                // propose safely yet.
                None => return,
            },
            None => match &self.input {
                Some(v) => v.clone(),
                None => return,
            },
        };

        let block = Block::new(
            self.config.instance,
            round,
            value,
            self.high_qc.clone(),
            tc,
            self.config.node,
            &self.signing,
        );
        self.proposed.insert(round);
        self.rounds_participated += 1;
        actions.push(Action::Broadcast {
            msg: ConsensusMsg::Proposal(block.clone()),
        });
        // Process our own proposal (vote for it).
        self.handle_proposal(block, actions);
    }

    fn handle_proposal(&mut self, block: Block<V>, actions: &mut Vec<Action<V>>) {
        let round = block.round;
        if block.proposer != self.config.leader(round) {
            return;
        }
        if !block.verify_signature(self.config.instance, &self.keys) {
            return;
        }
        // Verify and absorb embedded certificates before anything else.
        if let Some(qc) = &block.qc {
            if !qc.verify(self.config.instance, &self.keys, self.config.quorum()) {
                return;
            }
        }
        if let Some(tc) = &block.tc {
            if !tc.verify(self.config.instance, &self.keys, self.config.quorum()) {
                return;
            }
        }
        let value_digest = block.value.digest();
        self.learn_value(value_digest, block.value.clone(), actions);
        if let Some(qc) = block.qc.clone() {
            self.absorb_qc(qc, actions);
        }
        if let Some(tc) = block.tc.clone() {
            self.absorb_tc(tc, actions);
        }
        if self.decided.is_some() {
            return;
        }

        // Justification check.
        let qc_round = block.qc.as_ref().map(|q| q.round);
        let justified = if round == 0 {
            block.qc.is_none() && block.tc.is_none()
        } else if qc_round == Some(round - 1) {
            true
        } else if let Some(tc) = &block.tc {
            tc.round == round - 1 && qc_round >= tc.max_high_qc_round()
        } else {
            false
        };
        if !justified {
            return;
        }

        // Value consistency: a proposal carrying a QC must re-propose that
        // QC's value; a fresh value is only allowed with no QC.
        if let Some(qc) = &block.qc {
            if qc.value != value_digest {
                return;
            }
        }

        // External validity.
        if !(self.validator)(&block.value) {
            return;
        }

        // The justification lets us advance into the proposal's round.
        self.advance_to(round, actions);
        if self.decided.is_some() {
            return;
        }

        // Vote at most once per round, in the current round only.
        if round != self.current_round {
            return;
        }
        if self.last_voted_round.is_some_and(|lv| round <= lv) {
            return;
        }
        self.last_voted_round = Some(round);
        self.rounds_participated += 1;
        let digest = vote_digest(self.config.instance, round, value_digest);
        let vote = VoteMsg {
            round,
            value: value_digest,
            voter: self.config.node,
            signature: self.signing.sign(digest.as_bytes()),
        };
        let next_leader = self.config.leader(round + 1);
        if next_leader == self.config.node {
            self.handle_vote(vote, actions);
        } else {
            actions.push(Action::Send {
                to: next_leader,
                msg: ConsensusMsg::Vote(vote),
            });
        }
    }

    fn handle_vote(&mut self, vote: VoteMsg, actions: &mut Vec<Action<V>>) {
        let digest = vote_digest(self.config.instance, vote.round, vote.value);
        if self
            .keys
            .verify(vote.voter, digest.as_bytes(), &vote.signature)
            .is_err()
        {
            return;
        }
        let slot = self.votes.entry((vote.round, vote.value)).or_default();
        slot.insert(vote.voter, vote.signature);
        if slot.len() >= self.config.quorum() && !self.qcs.contains_key(&vote.round) {
            let qc = Qc {
                round: vote.round,
                value: vote.value,
                signatures: slot.iter().map(|(k, v)| (*k, *v)).collect(),
            };
            self.absorb_qc(qc, actions);
        }
    }

    fn handle_timeout_msg(&mut self, tm: TimeoutMsg, actions: &mut Vec<Action<V>>) {
        let high_qc_round = tm.high_qc.as_ref().map(|q| q.round);
        let digest = timeout_digest(self.config.instance, tm.round, high_qc_round);
        if self
            .keys
            .verify(tm.node, digest.as_bytes(), &tm.signature)
            .is_err()
        {
            return;
        }
        if let Some(qc) = tm.high_qc.clone() {
            if !qc.verify(self.config.instance, &self.keys, self.config.quorum()) {
                return;
            }
            self.absorb_qc(qc, actions);
            if self.decided.is_some() {
                return;
            }
        }
        let slot = self.timeouts.entry(tm.round).or_default();
        slot.insert(tm.node, (high_qc_round, tm.signature));
        if slot.len() >= self.config.quorum() && !self.tcs.contains_key(&tm.round) {
            let entries: Vec<TcEntry> = slot
                .iter()
                .map(|(node, (hqr, sig))| TcEntry {
                    node: *node,
                    high_qc_round: *hqr,
                    signature: *sig,
                })
                .collect();
            let max_round = entries.iter().filter_map(|e| e.high_qc_round).max();
            // Every attested round was absorbed from a verified embedded QC,
            // so the QC at the max round is present in our map.
            let high_qc = max_round.map(|r| self.qcs[&r].clone());
            let tc = Tc {
                round: tm.round,
                entries,
                high_qc,
            };
            self.absorb_tc(tc, actions);
        }
    }

    fn handle_decide(&mut self, dm: DecideMsg<V>, actions: &mut Vec<Action<V>>) {
        let digest = dm.value.digest();
        let quorum = self.config.quorum();
        if dm.qc_low.value != digest || dm.qc_high.value != digest {
            return;
        }
        if dm.qc_high.round != dm.qc_low.round + 1 {
            return;
        }
        if !dm.qc_low.verify(self.config.instance, &self.keys, quorum)
            || !dm.qc_high.verify(self.config.instance, &self.keys, quorum)
        {
            return;
        }
        self.learn_value(digest, dm.value, actions);
        self.absorb_qc(dm.qc_low, actions);
        self.absorb_qc(dm.qc_high, actions);
    }

    fn learn_value(&mut self, digest: Digest32, value: V, actions: &mut Vec<Action<V>>) {
        self.values.entry(digest).or_insert(value);
        if let Some((pending_digest, round)) = self.pending_decide {
            if pending_digest == digest {
                self.pending_decide = None;
                self.finish_decide(digest, round, actions);
            }
        }
        // A newly learned value may unblock a re-proposal that was waiting
        // for the bytes behind our high QC's digest.
        if self.decided.is_none() {
            self.try_propose(actions);
        }
    }

    fn absorb_qc(&mut self, qc: Qc, actions: &mut Vec<Action<V>>) {
        if self.decided.is_some() {
            return;
        }
        let round = qc.round;
        // Conflicting QCs in one round would require > f faults; keep the
        // first.
        self.qcs.entry(round).or_insert_with(|| qc.clone());
        if self.high_qc.as_ref().is_none_or(|h| round > h.round) {
            self.high_qc = Some(qc.clone());
        }
        // Two-chain commit check around this round.
        for low in [round.saturating_sub(1), round] {
            let (Some(a), Some(b)) = (self.qcs.get(&low), self.qcs.get(&(low + 1))) else {
                continue;
            };
            if a.value == b.value {
                let digest = a.value;
                if self.values.contains_key(&digest) {
                    self.finish_decide(digest, low, actions);
                    return;
                }
                self.pending_decide = Some((digest, low));
            }
        }
        // Progress: a QC for the current round moves us forward and resets
        // the backoff.
        if round >= self.current_round {
            self.consecutive_timeouts = 0;
            self.advance_to(round + 1, actions);
        }
    }

    fn absorb_tc(&mut self, tc: Tc, actions: &mut Vec<Action<V>>) {
        if self.decided.is_some() {
            return;
        }
        let round = tc.round;
        self.tcs.entry(round).or_insert(tc);
        self.advance_to(round + 1, actions);
    }

    fn advance_to(&mut self, round: u64, actions: &mut Vec<Action<V>>) {
        if round <= self.current_round || self.decided.is_some() {
            return;
        }
        self.current_round = round;
        actions.push(self.arm_timer());
        self.try_propose(actions);
    }

    fn finish_decide(&mut self, digest: Digest32, low_round: u64, actions: &mut Vec<Action<V>>) {
        if self.decided.is_some() {
            return;
        }
        let value = self.values[&digest].clone();
        self.decided = Some((value.clone(), low_round));
        actions.push(Action::Decide {
            value: value.clone(),
            round: low_round,
        });
        if !self.decide_broadcast {
            self.decide_broadcast = true;
            let dm = DecideMsg {
                value,
                qc_low: self.qcs[&low_round].clone(),
                qc_high: self.qcs[&(low_round + 1)].clone(),
            };
            actions.push(Action::Broadcast {
                msg: ConsensusMsg::Decide(dm),
            });
        }
    }
}
