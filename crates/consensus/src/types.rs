//! Messages, certificates and actions of the view-based agreement protocol.
//!
//! The protocol is a single-shot, two-chain HotStuff variant (Jolteon): one
//! proposal + vote exchange per round, a quorum certificate (QC) per
//! successful round, commit when two QCs over the same value exist in
//! consecutive rounds, and timeout certificates (TCs) to change views. With
//! a good leader and no GST this decides in 5 rounds, the figure the
//! paper's Table 2 assumes.

use partialtor_crypto::{sha256, Committee, Digest32, Signature, SigningKey};

/// A value the committee can agree on.
pub trait ConsensusValue: Clone {
    /// Collision-resistant digest of the value (what votes sign).
    fn digest(&self) -> Digest32;

    /// Bytes this value occupies on the wire.
    fn wire_size(&self) -> u64;
}

/// Digest a vote signs: domain-separated over (instance, round, value).
pub(crate) fn vote_digest(instance: u64, round: u64, value: Digest32) -> Digest32 {
    sha256::digest_parts(&[
        b"consensus-vote",
        &instance.to_le_bytes(),
        &round.to_le_bytes(),
        value.as_bytes(),
    ])
}

/// Digest a timeout signs: domain-separated over (instance, round,
/// high-qc-round).
pub(crate) fn timeout_digest(instance: u64, round: u64, high_qc_round: Option<u64>) -> Digest32 {
    sha256::digest_parts(&[
        b"consensus-timeout",
        &instance.to_le_bytes(),
        &round.to_le_bytes(),
        &high_qc_round.map_or(u64::MAX, |r| r).to_le_bytes(),
    ])
}

/// Digest a proposal signs.
pub(crate) fn proposal_digest(
    instance: u64,
    round: u64,
    value: Digest32,
    proposer: usize,
) -> Digest32 {
    sha256::digest_parts(&[
        b"consensus-proposal",
        &instance.to_le_bytes(),
        &round.to_le_bytes(),
        value.as_bytes(),
        &(proposer as u64).to_le_bytes(),
    ])
}

/// A quorum certificate: `n − f` signatures over the same (round, value).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Qc {
    /// The certified round.
    pub round: u64,
    /// Digest of the certified value.
    pub value: Digest32,
    /// `(signer, signature)` pairs; signers are distinct.
    pub signatures: Vec<(usize, Signature)>,
}

impl Qc {
    /// Verifies every signature and the quorum size.
    pub fn verify(&self, instance: u64, keys: &Committee, quorum: usize) -> bool {
        if self.signatures.len() < quorum {
            return false;
        }
        let mut seen = std::collections::BTreeSet::new();
        let digest = vote_digest(instance, self.round, self.value);
        self.signatures.iter().all(|(signer, sig)| {
            seen.insert(*signer) && keys.verify(*signer, digest.as_bytes(), sig).is_ok()
        })
    }

    /// Wire size: 32-byte digest + 8-byte round + signatures.
    pub fn wire_size(&self) -> u64 {
        40 + self.signatures.len() as u64 * (Signature::BYTES as u64 + 2)
    }
}

/// One node's contribution to a timeout certificate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TcEntry {
    /// The timing-out node.
    pub node: usize,
    /// The round of its highest known QC (`None` if it has none).
    pub high_qc_round: Option<u64>,
    /// Signature over `timeout_digest`.
    pub signature: Signature,
}

/// A timeout certificate: `n − f` signed timeouts for the same round, plus
/// the highest QC any contributor reported (so the next leader can
/// re-propose safely).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tc {
    /// The round that timed out.
    pub round: u64,
    /// Contributions from distinct nodes.
    pub entries: Vec<TcEntry>,
    /// The highest QC among contributors, if any reported one.
    pub high_qc: Option<Qc>,
}

impl Tc {
    /// The highest `high_qc_round` any contributor attested to.
    pub fn max_high_qc_round(&self) -> Option<u64> {
        self.entries.iter().filter_map(|e| e.high_qc_round).max()
    }

    /// Verifies entry signatures, quorum size, and that the embedded
    /// `high_qc` matches the maximum attested round.
    pub fn verify(&self, instance: u64, keys: &Committee, quorum: usize) -> bool {
        if self.entries.len() < quorum {
            return false;
        }
        let mut seen = std::collections::BTreeSet::new();
        for entry in &self.entries {
            let digest = timeout_digest(instance, self.round, entry.high_qc_round);
            if !seen.insert(entry.node)
                || keys
                    .verify(entry.node, digest.as_bytes(), &entry.signature)
                    .is_err()
            {
                return false;
            }
        }
        match (self.max_high_qc_round(), &self.high_qc) {
            (None, None) => true,
            (Some(max), Some(qc)) => qc.round == max && qc.verify(instance, keys, quorum),
            _ => false,
        }
    }

    /// Wire size of the certificate.
    pub fn wire_size(&self) -> u64 {
        8 + self.entries.len() as u64 * (Signature::BYTES as u64 + 10)
            + self.high_qc.as_ref().map_or(0, Qc::wire_size)
    }
}

/// A leader's proposal for one round.
#[derive(Clone, Debug)]
pub struct Block<V> {
    /// The proposal round.
    pub round: u64,
    /// The proposed value.
    pub value: V,
    /// Justifying QC (the leader's high QC).
    pub qc: Option<Qc>,
    /// Justifying TC when entering the round after a timeout.
    pub tc: Option<Tc>,
    /// The proposing node.
    pub proposer: usize,
    /// Proposer's signature over `proposal_digest`.
    pub signature: Signature,
}

impl<V: ConsensusValue> Block<V> {
    /// Builds and signs a proposal.
    pub fn new(
        instance: u64,
        round: u64,
        value: V,
        qc: Option<Qc>,
        tc: Option<Tc>,
        proposer: usize,
        key: &SigningKey,
    ) -> Self {
        let digest = proposal_digest(instance, round, value.digest(), proposer);
        let signature = key.sign(digest.as_bytes());
        Block {
            round,
            value,
            qc,
            tc,
            proposer,
            signature,
        }
    }

    /// Verifies the proposer's signature.
    pub fn verify_signature(&self, instance: u64, keys: &Committee) -> bool {
        let digest = proposal_digest(instance, self.round, self.value.digest(), self.proposer);
        keys.verify(self.proposer, digest.as_bytes(), &self.signature)
            .is_ok()
    }
}

/// A vote for one round's proposal, sent to the next leader.
#[derive(Clone, Debug)]
pub struct VoteMsg {
    /// The round voted in.
    pub round: u64,
    /// Digest of the voted value.
    pub value: Digest32,
    /// The voting node.
    pub voter: usize,
    /// Signature over `vote_digest`.
    pub signature: Signature,
}

/// A broadcast timeout declaration.
#[derive(Clone, Debug)]
pub struct TimeoutMsg {
    /// The round that timed out locally.
    pub round: u64,
    /// The sender's highest QC.
    pub high_qc: Option<Qc>,
    /// The sender.
    pub node: usize,
    /// Signature over `timeout_digest`.
    pub signature: Signature,
}

/// A decision proof: two QCs over the same value in consecutive rounds.
#[derive(Clone, Debug)]
pub struct DecideMsg<V> {
    /// The decided value.
    pub value: V,
    /// QC of round `r`.
    pub qc_low: Qc,
    /// QC of round `r + 1`.
    pub qc_high: Qc,
}

/// The protocol messages.
#[derive(Clone, Debug)]
pub enum ConsensusMsg<V> {
    /// A leader's proposal.
    Proposal(Block<V>),
    /// A vote, routed to the next leader.
    Vote(VoteMsg),
    /// A broadcast timeout.
    Timeout(TimeoutMsg),
    /// A broadcast decision with proof.
    Decide(DecideMsg<V>),
}

impl<V: ConsensusValue> ConsensusMsg<V> {
    /// Approximate wire size of the message.
    pub fn wire_size(&self) -> u64 {
        match self {
            ConsensusMsg::Proposal(b) => {
                16 + b.value.wire_size()
                    + b.qc.as_ref().map_or(0, Qc::wire_size)
                    + b.tc.as_ref().map_or(0, Tc::wire_size)
                    + Signature::BYTES as u64
            }
            ConsensusMsg::Vote(_) => 48 + Signature::BYTES as u64,
            ConsensusMsg::Timeout(t) => {
                24 + t.high_qc.as_ref().map_or(0, Qc::wire_size) + Signature::BYTES as u64
            }
            ConsensusMsg::Decide(d) => {
                d.value.wire_size() + d.qc_low.wire_size() + d.qc_high.wire_size()
            }
        }
    }

    /// Message kind label for byte accounting.
    pub fn kind(&self) -> &'static str {
        match self {
            ConsensusMsg::Proposal(_) => "BFT-PROPOSAL",
            ConsensusMsg::Vote(_) => "BFT-VOTE",
            ConsensusMsg::Timeout(_) => "BFT-TIMEOUT",
            ConsensusMsg::Decide(_) => "BFT-DECIDE",
        }
    }
}

/// What the instance asks its host to do.
#[derive(Clone, Debug)]
pub enum Action<V> {
    /// Send a message to one node.
    Send {
        /// Destination node index.
        to: usize,
        /// The message.
        msg: ConsensusMsg<V>,
    },
    /// Send a message to every other node.
    Broadcast {
        /// The message.
        msg: ConsensusMsg<V>,
    },
    /// Arm a timer for `round`; call `on_timeout(round)` when it fires.
    SetTimer {
        /// The round the timer guards.
        round: u64,
        /// Delay in milliseconds.
        after_ms: u64,
    },
    /// The instance has decided.
    Decide {
        /// The agreed value.
        value: V,
        /// The round whose 2-chain committed it.
        round: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone)]
    struct TestValue(u8);

    impl ConsensusValue for TestValue {
        fn digest(&self) -> Digest32 {
            sha256::digest(&[self.0])
        }
        fn wire_size(&self) -> u64 {
            1
        }
    }

    fn keys(n: usize) -> (Vec<SigningKey>, Committee) {
        let signers: Vec<SigningKey> = (0..n)
            .map(|i| SigningKey::from_seed([i as u8 + 1; 32]))
            .collect();
        let verifiers = signers.iter().map(|k| k.verifying_key()).collect();
        (signers, verifiers)
    }

    fn make_qc(instance: u64, round: u64, value: Digest32, signers: &[SigningKey]) -> Qc {
        let digest = vote_digest(instance, round, value);
        Qc {
            round,
            value,
            signatures: signers
                .iter()
                .enumerate()
                .map(|(i, k)| (i, k.sign(digest.as_bytes())))
                .collect(),
        }
    }

    #[test]
    fn qc_verifies_with_quorum() {
        let (signers, verifiers) = keys(4);
        let value = sha256::digest(b"v");
        let qc = make_qc(9, 3, value, &signers[..3]);
        assert!(qc.verify(9, &verifiers, 3));
        assert!(!qc.verify(9, &verifiers, 4), "not enough signatures");
        assert!(!qc.verify(8, &verifiers, 3), "wrong instance");
    }

    #[test]
    fn qc_rejects_duplicate_signer() {
        let (signers, verifiers) = keys(4);
        let value = sha256::digest(b"v");
        let mut qc = make_qc(1, 1, value, &signers[..3]);
        qc.signatures[1] = qc.signatures[0];
        assert!(!qc.verify(1, &verifiers, 3));
    }

    #[test]
    fn certificates_naming_a_node_outside_the_committee_fail() {
        let (signers, verifiers) = keys(4);
        let mut qc = make_qc(1, 1, sha256::digest(b"v"), &signers[..3]);
        assert!(qc.verify(1, &verifiers, 3));
        qc.signatures[2].0 = 4;
        assert!(!qc.verify(1, &verifiers, 3));

        let digest = timeout_digest(1, 5, None);
        let mut tc = Tc {
            round: 5,
            entries: (0..3)
                .map(|node| TcEntry {
                    node,
                    high_qc_round: None,
                    signature: signers[node].sign(digest.as_bytes()),
                })
                .collect(),
            high_qc: None,
        };
        assert!(tc.verify(1, &verifiers, 3));
        tc.entries[2].node = usize::MAX;
        assert!(!tc.verify(1, &verifiers, 3));
    }

    #[test]
    fn qc_rejects_tampered_value() {
        let (signers, verifiers) = keys(4);
        let qc = make_qc(1, 1, sha256::digest(b"v"), &signers[..3]);
        let mut bad = qc.clone();
        bad.value = sha256::digest(b"w");
        assert!(!bad.verify(1, &verifiers, 3));
    }

    #[test]
    fn tc_verification() {
        let (signers, verifiers) = keys(4);
        let value = sha256::digest(b"v");
        let qc = make_qc(1, 2, value, &signers[..3]);
        let entries: Vec<TcEntry> = signers
            .iter()
            .enumerate()
            .take(3)
            .map(|(i, k)| {
                let hq = if i == 0 { Some(2) } else { None };
                let d = timeout_digest(1, 5, hq);
                TcEntry {
                    node: i,
                    high_qc_round: hq,
                    signature: k.sign(d.as_bytes()),
                }
            })
            .collect();
        let tc = Tc {
            round: 5,
            entries,
            high_qc: Some(qc.clone()),
        };
        assert!(tc.verify(1, &verifiers, 3));
        assert_eq!(tc.max_high_qc_round(), Some(2));

        // TC whose high_qc does not match the attested max must fail.
        let mut bad = tc.clone();
        bad.high_qc = None;
        assert!(!bad.verify(1, &verifiers, 3));
    }

    #[test]
    fn block_signature_roundtrip() {
        let (signers, verifiers) = keys(4);
        let block = Block::new(7, 1, TestValue(3), None, None, 2, &signers[2]);
        assert!(block.verify_signature(7, &verifiers));
        // A different proposer index must fail.
        let mut forged = block.clone();
        forged.proposer = 1;
        assert!(!forged.verify_signature(7, &verifiers));
    }

    #[test]
    fn wire_sizes_are_positive_and_ordered() {
        let (signers, _) = keys(4);
        let value = sha256::digest(b"v");
        let qc = make_qc(1, 1, value, &signers[..3]);
        let block = Block::new(1, 2, TestValue(1), Some(qc.clone()), None, 0, &signers[0]);
        let proposal = ConsensusMsg::Proposal(block);
        let vote = ConsensusMsg::<TestValue>::Vote(VoteMsg {
            round: 1,
            value,
            voter: 0,
            signature: signers[0].sign(b"x"),
        });
        assert!(proposal.wire_size() > vote.wire_size());
        assert_eq!(vote.kind(), "BFT-VOTE");
    }
}
