//! Serving consensus documents and diffs (the cache side of proposal
//! 140).
//!
//! A directory cache (or authority dirport) keeps the latest consensus
//! plus a short history, and answers each fetch with either the full
//! document or a [`ConsensusDiff`] from the digest the requester already
//! holds. This module is the piece the distribution layer
//! (`partialtor-dirdist`) sits on: it decides *what* goes on the wire,
//! the simulator decides how long the bytes take.

use crate::consensus::Consensus;
use crate::diff::ConsensusDiff;
use partialtor_crypto::Digest32;
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// What a directory server sends back for one consensus fetch.
#[derive(Clone, Debug)]
pub enum Served<'a> {
    /// The requester's base was unknown or too old: the full document.
    Full(&'a Consensus),
    /// The requester holds a retained predecessor: a diff to the latest.
    Diff(&'a ConsensusDiff),
}

impl Served<'_> {
    /// Bytes this response occupies on the wire.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            Served::Full(c) => c.wire_size(),
            Served::Diff(d) => d.wire_size(),
        }
    }

    /// Whether the response is a diff.
    pub fn is_diff(&self) -> bool {
        matches!(self, Served::Diff(_))
    }
}

/// A serving store: the latest consensus, a bounded history of
/// predecessors, and precomputed diffs from each retained predecessor to
/// the latest document.
///
/// # Examples
///
/// ```
/// use partialtor_tordoc::prelude::*;
/// use partialtor_tordoc::serve::DiffStore;
///
/// let population = generate_population(&PopulationConfig { seed: 1, count: 50 });
/// let committee = AuthoritySet::live(1);
/// let make = |valid_after: u64| {
///     let votes: Vec<Vote> = committee
///         .iter()
///         .map(|auth| {
///             let view = authority_view(&population, auth.id, 1, &ViewConfig::default());
///             Vote::new(
///                 VoteMeta::standard(auth.id, &auth.name, auth.fingerprint_hex(), valid_after),
///                 view,
///             )
///         })
///         .collect();
///     let refs: Vec<&Vote> = votes.iter().collect();
///     aggregate(&refs)
/// };
///
/// let mut store = DiffStore::new(3);
/// let first = make(3_600);
/// let first_digest = first.digest();
/// store.publish(first);
/// store.publish(make(7_200));
///
/// // A client on the previous consensus gets a (much smaller) diff.
/// let served = store.serve(Some(&first_digest)).unwrap();
/// assert!(served.is_diff());
/// // A bootstrapping client gets the full document.
/// assert!(!store.serve(None).unwrap().is_diff());
/// ```
#[derive(Clone, Debug, Default)]
pub struct DiffStore {
    /// How many predecessor documents to keep diffs for.
    retain: usize,
    /// Retained documents with their digests, oldest first; the last
    /// element is the latest.
    history: VecDeque<(Digest32, Consensus)>,
    /// Diffs keyed by the *from* digest, all targeting the latest document.
    diffs: BTreeMap<Digest32, ConsensusDiff>,
}

impl DiffStore {
    /// Creates a store retaining diffs from up to `retain` predecessors
    /// (Tor's `consdiff` cache keeps a handful of recent bases).
    pub fn new(retain: usize) -> Self {
        DiffStore {
            retain,
            history: VecDeque::new(),
            diffs: BTreeMap::new(),
        }
    }

    /// Publishes a new latest consensus, recomputing the diff set.
    ///
    /// Hashes the new document once; every retained document keeps the
    /// digest it was published with, so the cost is that one hash plus
    /// `retain` merge walks over sorted entry lists.
    pub fn publish(&mut self, consensus: Consensus) {
        let digest = consensus.digest();
        self.publish_with_digest(consensus, digest);
    }

    /// [`DiffStore::publish`] for a caller that already hashed the
    /// document (say with [`Consensus::encode_with_digest`], keeping the
    /// encoding). `digest` must be `consensus.digest()`: it keys the
    /// document's diffs from here on.
    pub fn publish_with_digest(&mut self, consensus: Consensus, digest: Digest32) {
        debug_assert_eq!(digest, consensus.digest(), "digest of another document");
        self.history.push_back((digest, consensus));
        while self.history.len() > self.retain + 1 {
            self.history.pop_front();
        }
        let (latest_digest, latest) = self.history.back().expect("just pushed");
        self.diffs = self
            .history
            .iter()
            .take(self.history.len() - 1)
            .map(|(base_digest, base)| {
                let diff =
                    ConsensusDiff::compute_with_digests(base, *base_digest, latest, *latest_digest);
                (*base_digest, diff)
            })
            .collect();
    }

    /// The latest published consensus.
    pub fn latest(&self) -> Option<&Consensus> {
        self.history.back().map(|(_, c)| c)
    }

    /// Digest of the latest published consensus (the one it was
    /// published with, not recomputed).
    pub fn latest_digest(&self) -> Option<Digest32> {
        self.history.back().map(|(d, _)| *d)
    }

    /// Retained documents with their digests, newest first: the latest,
    /// then each diffable base in recency order.
    pub fn retained(&self) -> impl Iterator<Item = (Digest32, &Consensus)> {
        self.history.iter().rev().map(|(d, c)| (*d, c))
    }

    /// Number of predecessor documents currently diffable against.
    pub fn diffable_bases(&self) -> usize {
        self.diffs.len()
    }

    /// Answers a fetch from a requester holding `have` (its current
    /// consensus digest, if any). Returns `None` when nothing has been
    /// published yet; a diff when `have` is a retained predecessor; the
    /// full latest document otherwise. A requester already holding the
    /// latest gets the full document back (real caches answer 304; the
    /// distribution layer never asks in that state).
    pub fn serve(&self, have: Option<&Digest32>) -> Option<Served<'_>> {
        let latest = self.latest()?;
        if let Some(digest) = have {
            if let Some(diff) = self.diffs.get(digest) {
                return Some(Served::Diff(diff));
            }
        }
        Some(Served::Full(latest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authority::AuthorityId;
    use crate::consensus::{aggregate, ConsensusMeta};
    use crate::generator::{authority_view, generate_population, PopulationConfig, ViewConfig};
    use crate::vote::{Vote, VoteMeta};

    fn consensus_at(seed: u64, count: usize, valid_after: u64) -> Consensus {
        let population = generate_population(&PopulationConfig { seed, count });
        let votes: Vec<Vote> = (0..9u8)
            .map(|i| {
                let view =
                    authority_view(&population, AuthorityId(i), seed, &ViewConfig::default());
                Vote::new(
                    VoteMeta::standard(AuthorityId(i), "a", String::new(), valid_after),
                    view,
                )
            })
            .collect();
        let refs: Vec<&Vote> = votes.iter().collect();
        aggregate(&refs)
    }

    /// The "next hour": drop a few relays, tweak one, bump the window.
    fn churned(base: &Consensus, drop: usize, valid_after: u64) -> Consensus {
        let mut entries = base.entries.clone();
        entries.drain(..drop.min(entries.len()));
        if let Some(e) = entries.first_mut() {
            e.bandwidth = e.bandwidth.map(|b| b + 1);
        }
        Consensus {
            meta: ConsensusMeta {
                valid_after,
                fresh_until: valid_after + 3600,
                valid_until: valid_after + 3 * 3600,
            },
            entries,
            signatures: Vec::new(),
        }
    }

    #[test]
    fn empty_store_serves_nothing() {
        let store = DiffStore::new(3);
        assert!(store.serve(None).is_none());
        assert!(store.latest().is_none());
    }

    #[test]
    fn serves_full_to_bootstrapping_and_diff_to_recent() {
        let mut store = DiffStore::new(3);
        let v0 = consensus_at(11, 60, 3_600);
        let d0 = v0.digest();
        let v1 = churned(&v0, 2, 7_200);
        store.publish(v0.clone());
        store.publish(v1.clone());

        let full = store.serve(None).unwrap();
        assert!(!full.is_diff());
        assert_eq!(full.wire_bytes(), v1.wire_size());

        let diff = store.serve(Some(&d0)).unwrap();
        assert!(diff.is_diff());
        assert!(diff.wire_bytes() < full.wire_bytes() / 4);
        // The served diff genuinely reconstructs the latest document.
        match diff {
            Served::Diff(d) => {
                assert_eq!(d.apply(&v0).unwrap().digest(), v1.digest());
            }
            Served::Full(_) => unreachable!(),
        }
    }

    #[test]
    fn unknown_base_falls_back_to_full() {
        let mut store = DiffStore::new(3);
        store.publish(consensus_at(12, 40, 3_600));
        let stranger = consensus_at(99, 40, 3_600).digest();
        assert!(!store.serve(Some(&stranger)).unwrap().is_diff());
    }

    /// Many threads serving under publish churn, each cloning its diff
    /// out of the lock and verifying on its own time, never see a torn
    /// diff — every served diff applies cleanly to its claimed base and
    /// lands on a digest that was actually published.
    #[test]
    fn concurrent_serves_under_publish_churn_never_tear() {
        use std::collections::BTreeSet;
        use std::sync::{Arc, Mutex};

        let mut docs = vec![consensus_at(21, 80, 3_600)];
        for hour in 1..20u64 {
            docs.push(churned(docs.last().unwrap(), 1, 3_600 * (hour + 1)));
        }
        let digests: Vec<Digest32> = docs.iter().map(Consensus::digest).collect();
        let valid: BTreeSet<Digest32> = digests.iter().copied().collect();
        let bases = Arc::new(docs.clone());

        let store = Arc::new(Mutex::new(DiffStore::new(3)));
        store.lock().unwrap().publish(docs[0].clone());

        let publisher = {
            let store = Arc::clone(&store);
            let docs = docs.clone();
            std::thread::spawn(move || {
                for doc in docs.into_iter().skip(1) {
                    store.lock().unwrap().publish(doc);
                    std::thread::yield_now();
                }
            })
        };
        let servers: Vec<_> = (0..4u64)
            .map(|worker| {
                let store = Arc::clone(&store);
                let bases = Arc::clone(&bases);
                let digests = digests.clone();
                let valid = valid.clone();
                std::thread::spawn(move || {
                    let mut diffs_seen = 0u64;
                    for round in 0..400u64 {
                        let index = ((worker * 131 + round * 7) % digests.len() as u64) as usize;
                        // A diff is cloned out of the store, so its
                        // verification runs with the lock released.
                        let diff = {
                            let guard = store.lock().unwrap();
                            match guard.serve(Some(&digests[index])).expect("never empty") {
                                Served::Diff(diff) => diff.clone(),
                                Served::Full(doc) => {
                                    assert!(valid.contains(&doc.digest()));
                                    continue;
                                }
                            }
                        };
                        assert_eq!(diff.from_digest, digests[index]);
                        let rebuilt = diff.apply(&bases[index]).expect("served diff applies");
                        assert!(
                            valid.contains(&rebuilt.digest()),
                            "diff target must be a published document"
                        );
                        diffs_seen += 1;
                    }
                    diffs_seen
                })
            })
            .collect();
        publisher.join().unwrap();
        let diffs: u64 = servers.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(diffs > 0, "the race must actually exercise diff serving");
    }

    #[test]
    fn latest_digest_is_the_published_documents_digest() {
        let mut store = DiffStore::new(2);
        assert_eq!(store.latest_digest(), None);
        let mut doc = consensus_at(14, 40, 3_600);
        let mut digests = Vec::new();
        for hour in 1..=5u64 {
            digests.push(doc.digest());
            store.publish(doc.clone());
            assert_eq!(store.latest_digest(), store.latest().map(Consensus::digest));
            doc = churned(&doc, 1, 3_600 * (hour + 1));
        }
        // Five publishes into a store retaining two bases: the latest
        // and its two predecessors, newest first, each under its digest.
        let retained: Vec<Digest32> = store
            .retained()
            .map(|(d, c)| {
                assert_eq!(d, c.digest());
                d
            })
            .collect();
        assert_eq!(retained, [digests[4], digests[3], digests[2]]);
    }

    #[test]
    fn history_is_bounded_and_diffs_track_latest() {
        let mut store = DiffStore::new(2);
        let mut doc = consensus_at(13, 50, 3_600);
        let mut digests = vec![doc.digest()];
        store.publish(doc.clone());
        for hour in 1..=4u64 {
            doc = churned(&doc, 1, 3_600 * (hour + 1));
            digests.push(doc.digest());
            store.publish(doc.clone());
        }
        assert_eq!(store.diffable_bases(), 2, "only `retain` bases kept");
        // The two most recent predecessors diff; older ones get full docs.
        assert!(store.serve(Some(&digests[3])).unwrap().is_diff());
        assert!(store.serve(Some(&digests[2])).unwrap().is_diff());
        assert!(!store.serve(Some(&digests[1])).unwrap().is_diff());
        // Every diff targets the current latest.
        match store.serve(Some(&digests[3])).unwrap() {
            Served::Diff(d) => assert_eq!(d.to_digest, doc.digest()),
            Served::Full(_) => unreachable!(),
        }
    }
}
