//! Directory documents as they travel through the simulation.
//!
//! Protocol experiments need two document flavors:
//!
//! * **real** votes (from `partialtor-tordoc`) — exercised by the examples
//!   and integration tests, where the consensus document is genuinely
//!   aggregated, encoded and signed;
//! * **synthetic** votes — a digest plus a calibrated byte size, used by
//!   the bandwidth sweeps where materializing 10 MB documents for every
//!   run would only slow the experiments without changing any measured
//!   quantity.
//!
//! Both flavors share [`DirDocument`]; consensus digests over mixed vote
//! sets are computed with [`consensus_digest`], which is deterministic in
//! the *set* of votes held — two authorities that hold different vote sets
//! produce different digests, exactly the divergence that makes the
//! current protocol fragment under attack.

use partialtor_crypto::{sha256, Digest32};
use partialtor_tordoc::Vote;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A vote document in transit: real or synthetic.
#[derive(Clone, Debug)]
pub struct DirDocument {
    /// The authority whose vote this is.
    pub authority: u8,
    /// Digest of the document (signed, agreed on, fetched by).
    pub digest: Digest32,
    /// Wire size in bytes.
    pub size: u64,
    /// The real vote, when this is not a synthetic document.
    pub real: Option<Arc<Vote>>,
}

impl DirDocument {
    /// Builds a synthetic document of calibrated size. The digest is
    /// derived from `(run_id, authority)`, so distinct authorities (and
    /// runs) get distinct digests.
    pub fn synthetic(run_id: u64, authority: u8, size: u64) -> Self {
        let digest =
            sha256::digest_parts(&[b"synthetic-vote", &run_id.to_le_bytes(), &[authority]]);
        DirDocument {
            authority,
            digest,
            size,
            real: None,
        }
    }

    /// Wraps a real vote.
    pub fn real(vote: Vote) -> Self {
        let digest = vote.digest();
        let size = vote.wire_size();
        DirDocument {
            authority: vote.meta.authority.0,
            digest,
            size,
            real: Some(Arc::new(vote)),
        }
    }

    /// Whether this document carries a real vote.
    pub fn is_real(&self) -> bool {
        self.real.is_some()
    }
}

/// Computes the digest of the consensus document an authority would
/// produce from the given vote set.
///
/// If every vote is real, the digest is that of the genuinely aggregated
/// consensus document. Otherwise it is a deterministic digest of the
/// sorted `(authority, vote digest)` pairs — different vote sets yield
/// different digests, which is the property all experiments rely on.
pub fn consensus_digest(votes: &BTreeMap<u8, DirDocument>) -> Digest32 {
    if !votes.is_empty() && votes.values().all(DirDocument::is_real) {
        let reals: Vec<&Vote> = votes
            .values()
            .map(|d| d.real.as_deref().expect("checked real"))
            .collect();
        return partialtor_tordoc::aggregate(&reals).digest();
    }
    let mut hasher = sha256::Hasher::new();
    hasher.update(b"synthetic-consensus");
    for (authority, doc) in votes {
        hasher.update(&[*authority]);
        hasher.update(doc.digest.as_bytes());
    }
    hasher.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use partialtor_tordoc::prelude::*;

    #[test]
    fn synthetic_digests_distinct() {
        let a = DirDocument::synthetic(1, 0, 100);
        let b = DirDocument::synthetic(1, 1, 100);
        let c = DirDocument::synthetic(2, 0, 100);
        assert_ne!(a.digest, b.digest);
        assert_ne!(a.digest, c.digest);
        assert!(!a.is_real());
    }

    #[test]
    fn consensus_digest_depends_on_vote_set() {
        let mut set_a = BTreeMap::new();
        let mut set_b = BTreeMap::new();
        for i in 0..9u8 {
            let doc = DirDocument::synthetic(7, i, 1000);
            set_a.insert(i, doc.clone());
            if i != 4 {
                set_b.insert(i, doc);
            }
        }
        assert_ne!(consensus_digest(&set_a), consensus_digest(&set_b));
        // And it is deterministic.
        assert_eq!(consensus_digest(&set_a), consensus_digest(&set_a));
    }

    #[test]
    fn real_votes_aggregate_for_digest() {
        let pop = generate_population(&PopulationConfig { seed: 3, count: 20 });
        let mut votes = BTreeMap::new();
        for i in 0..5u8 {
            let view = authority_view(&pop, AuthorityId(i), 3, &ViewConfig::default());
            let vote = Vote::new(
                VoteMeta::standard(AuthorityId(i), "a", "00".repeat(20), 3600),
                view,
            );
            votes.insert(i, DirDocument::real(vote));
        }
        let digest = consensus_digest(&votes);
        // Equals the digest of the aggregated real consensus.
        let reals: Vec<&Vote> = votes.values().map(|d| d.real.as_deref().unwrap()).collect();
        assert_eq!(digest, partialtor_tordoc::aggregate(&reals).digest());
    }

    #[test]
    fn real_document_size_matches_encoding() {
        let pop = generate_population(&PopulationConfig { seed: 4, count: 10 });
        let vote = Vote::new(
            VoteMeta::standard(AuthorityId(0), "a", "00".repeat(20), 3600),
            pop,
        );
        let expected = vote.wire_size();
        let doc = DirDocument::real(vote);
        assert_eq!(doc.size, expected);
        assert!(doc.is_real());
    }
}
