//! The serving store: an immutable snapshot of pre-encoded payloads,
//! swapped in whole behind an `RwLock<Arc<_>>`.
//!
//! [`ServingStore::publish`] hashes the new consensus once (the hashed
//! body is also the start of the full payload), pushes it through a
//! [`DiffStore`], and encodes every payload workers will write: the
//! full latest document, one diff per retained base, the full
//! descriptor set, per-base descriptor deltas (relays present in the
//! latest document but not in the base), the digest index and the
//! status line. It builds that snapshot with no lock held that a reader
//! ever takes, then swaps the `Arc` in; the `DiffStore`'s own `Mutex`
//! keeps concurrent publishers in order. Serving a request is a
//! read-lock held for one `Arc` clone, then a `BTreeMap` lookup and an
//! `Arc` clone of the payload — workers never encode documents, never
//! wait out a publish and never hold a lock during I/O, and every
//! response comes from one snapshot, so publish churn cannot tear it.
//!
//! The write lock only ever guards an `Arc` assignment, so a panic
//! while holding it cannot leave a half-built snapshot behind: both
//! locks are recovered from poisoning rather than taking every worker
//! down.

use crate::proto::DocRequest;
use partialtor_crypto::Digest32;
use partialtor_dirdist::docmodel::MICRODESC_PER_RELAY_BYTES;
use partialtor_tordoc::diff::{walk_entries, EntryStep};
use partialtor_tordoc::serve::{DiffStore, Served};
use partialtor_tordoc::{Consensus, RelayId};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// What the store answers a routed request with: ready-to-write bytes
/// plus the response metadata.
#[derive(Clone, Debug)]
pub struct ServeOutcome {
    /// HTTP status (200 or 404).
    pub status: u16,
    /// Served-class label (the `X-Served` header and metrics key).
    pub served: &'static str,
    /// Digest of the document the body yields, when it is a document.
    pub digest: Option<Digest32>,
    /// The payload (shared, never copied per request).
    pub body: Arc<Vec<u8>>,
}

/// Every payload for one published latest document. Never mutated
/// after it is built: a publish replaces it whole.
struct Snapshot {
    /// Retained digests newest-first: `[0]` is the latest, the rest the
    /// diffable bases in recency order.
    history: Vec<Digest32>,
    latest: Arc<Vec<u8>>,
    diffs: BTreeMap<Digest32, Arc<Vec<u8>>>,
    descriptors_full: Arc<Vec<u8>>,
    descriptor_deltas: BTreeMap<Digest32, Arc<Vec<u8>>>,
    digest_index: Arc<Vec<u8>>,
    status: Arc<Vec<u8>>,
}

/// The daemon's shared document store.
pub struct ServingStore {
    /// The documents a snapshot is built from; only publishers lock it.
    store: Mutex<DiffStore>,
    /// What readers see; `None` until the first publish.
    snapshot: RwLock<Option<Arc<Snapshot>>>,
}

/// Appends one relay's synthetic microdescriptor: a recognizable line
/// padded to the calibrated wire size the simulation charges for it.
fn push_descriptor(out: &mut Vec<u8>, id: &RelayId) {
    let start = out.len();
    out.extend_from_slice(format!("micro {}\n", id.fingerprint()).as_bytes());
    out.resize(start + MICRODESC_PER_RELAY_BYTES as usize, b'#');
}

impl Snapshot {
    /// Encodes every payload for `store`'s latest document, whose full
    /// encoding the publisher already holds.
    fn build(store: &DiffStore, full: String) -> Snapshot {
        let mut retained = store.retained();
        let (latest_digest, latest) = retained.next().expect("built after a publish");
        let mut history = vec![latest_digest];
        let mut diffs = BTreeMap::new();
        let mut descriptor_deltas = BTreeMap::new();
        for (base_digest, base) in retained {
            history.push(base_digest);
            if let Some(Served::Diff(diff)) = store.serve(Some(&base_digest)) {
                diffs.insert(base_digest, Arc::new(diff.encode().into_bytes()));
            }
            let mut delta = Vec::new();
            walk_entries(&base.entries, &latest.entries, |step| {
                if let EntryStep::Added(entry) = step {
                    push_descriptor(&mut delta, &entry.id);
                }
            });
            descriptor_deltas.insert(base_digest, Arc::new(delta));
        }
        let mut descriptors_full =
            Vec::with_capacity(latest.entries.len() * MICRODESC_PER_RELAY_BYTES as usize);
        for entry in &latest.entries {
            push_descriptor(&mut descriptors_full, &entry.id);
        }
        let mut index = String::new();
        for (age, d) in history.iter().enumerate() {
            index.push_str(&format!("digest {} age={age}\n", d.to_hex()));
        }
        let status = format!(
            "ok latest={} retained={}\n",
            latest_digest.to_hex(),
            history.len() - 1
        );
        Snapshot {
            history,
            latest: Arc::new(full.into_bytes()),
            diffs,
            descriptors_full: Arc::new(descriptors_full),
            descriptor_deltas,
            digest_index: Arc::new(index.into_bytes()),
            status: Arc::new(status.into_bytes()),
        }
    }

    fn serve(&self, request: &DocRequest) -> ServeOutcome {
        let ok = |served: &'static str, body: &Arc<Vec<u8>>| ServeOutcome {
            status: 200,
            served,
            digest: Some(self.history[0]),
            body: body.clone(),
        };
        match request {
            DocRequest::Consensus { base } => match base.as_ref().and_then(|b| self.diffs.get(b)) {
                Some(diff) => ok("diff", diff),
                None => ok("full", &self.latest),
            },
            DocRequest::ConsensusDiff { base } => match self.diffs.get(base) {
                Some(diff) => ok("diff", diff),
                None => not_found(),
            },
            DocRequest::Descriptors { base } => {
                match base.as_ref().and_then(|b| self.descriptor_deltas.get(b)) {
                    Some(delta) => ok("descriptors_delta", delta),
                    None => ok("descriptors", &self.descriptors_full),
                }
            }
            DocRequest::Digests => ok("digests", &self.digest_index),
            DocRequest::Status => ok("status", &self.status),
            DocRequest::Metrics => not_found(),
        }
    }
}

fn not_found() -> ServeOutcome {
    ServeOutcome {
        status: 404,
        served: "error",
        digest: None,
        body: Arc::new(Vec::new()),
    }
}

impl ServingStore {
    /// An empty store retaining diffs from up to `retain` predecessors.
    pub fn new(retain: usize) -> Self {
        ServingStore {
            store: Mutex::new(DiffStore::new(retain)),
            snapshot: RwLock::new(None),
        }
    }

    /// Publishes a new latest consensus: recomputes the diff set,
    /// encodes every payload into a new snapshot and swaps it in.
    /// Readers are never blocked while it is built; each sees either
    /// the old document set or the new one, never a mix. Concurrent
    /// publishes apply in the order they take the `DiffStore`.
    pub fn publish(&self, consensus: Consensus) {
        let (full, digest) = consensus.encode_with_digest();
        // A publisher that panicked holding this lock can have left
        // stale diffs at worst; this publish recomputes every diff
        // from the history.
        let mut store = self.store.lock().unwrap_or_else(PoisonError::into_inner);
        store.publish_with_digest(consensus, digest);
        let next = Arc::new(Snapshot::build(&store, full));
        let previous = self
            .snapshot
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .replace(next);
        drop(store);
        // Freed outside both locks, unless a reader still holds it.
        drop(previous);
    }

    /// The snapshot readers currently see; the read lock is held only
    /// for the `Arc` clone.
    fn current(&self) -> Option<Arc<Snapshot>> {
        self.snapshot
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Digest of the latest published document.
    pub fn latest_digest(&self) -> Option<Digest32> {
        self.current().map(|s| s.history[0])
    }

    /// Retained digests, newest first (the latest, then the diffable
    /// bases).
    pub fn history(&self) -> Vec<Digest32> {
        self.current().map_or_else(Vec::new, |s| s.history.clone())
    }

    /// Answers a routed request from the current snapshot; no lock is
    /// held past the snapshot's `Arc` clone.
    /// [`DocRequest::Metrics`] is the daemon's business (it owns the
    /// registry) and is answered `404` here.
    pub fn serve(&self, request: &DocRequest) -> ServeOutcome {
        match self.current() {
            Some(snapshot) => snapshot.serve(request),
            None => not_found(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::docs::{consensus_series, DocSetConfig};
    use partialtor_tordoc::{AuthorityId, AuthoritySet, ConsensusDiff};
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn relay_ids(doc: &Consensus) -> BTreeSet<RelayId> {
        doc.entries.iter().map(|e| e.id).collect()
    }

    /// The descriptor payload for `ids`, built independently of
    /// `push_descriptor`: one padded line per relay, in id order.
    fn reference_descriptors<'a>(ids: impl Iterator<Item = &'a RelayId>) -> Vec<u8> {
        let mut out = Vec::new();
        for id in ids {
            let mut line = format!("micro {}\n", id.fingerprint()).into_bytes();
            line.resize(MICRODESC_PER_RELAY_BYTES as usize, b'#');
            out.extend_from_slice(&line);
        }
        out
    }

    fn store_with(history: usize) -> (ServingStore, Vec<Consensus>) {
        let docs = consensus_series(&DocSetConfig {
            relays: 60,
            history,
            churn_per_hour: 5,
            ..DocSetConfig::default()
        });
        let store = ServingStore::new(3);
        for doc in &docs {
            store.publish(doc.clone());
        }
        (store, docs)
    }

    #[test]
    fn serves_verifiable_fulls_and_diffs() {
        let (store, docs) = store_with(3);
        let latest = docs.last().unwrap();

        let full = store.serve(&DocRequest::Consensus { base: None });
        assert_eq!((full.status, full.served), (200, "full"));
        assert_eq!(full.body.as_slice(), latest.encode().as_bytes());

        let base = docs[1].digest();
        let diff = store.serve(&DocRequest::Consensus { base: Some(base) });
        assert_eq!((diff.status, diff.served), (200, "diff"));
        let parsed = ConsensusDiff::parse(std::str::from_utf8(&diff.body).unwrap())
            .expect("served diff parses");
        let rebuilt = parsed.apply(&docs[1]).expect("diff applies to its base");
        assert_eq!(rebuilt.digest(), latest.digest());
        assert_eq!(diff.digest, Some(latest.digest()));
    }

    #[test]
    fn unknown_base_falls_back_to_full_and_explicit_diff_404s() {
        let (store, _) = store_with(2);
        let stranger = partialtor_crypto::sha256::digest(b"not a consensus");
        let fallback = store.serve(&DocRequest::Consensus {
            base: Some(stranger),
        });
        assert_eq!((fallback.status, fallback.served), (200, "full"));
        let diff = store.serve(&DocRequest::ConsensusDiff { base: stranger });
        assert_eq!(diff.status, 404);
    }

    #[test]
    fn descriptor_deltas_cover_exactly_the_churned_relays() {
        let (store, docs) = store_with(3);
        let base = &docs[1];
        let latest = docs.last().unwrap();
        let base_ids: BTreeSet<RelayId> = base.entries.iter().map(|e| e.id).collect();
        let new_ids: Vec<RelayId> = latest
            .entries
            .iter()
            .map(|e| e.id)
            .filter(|id| !base_ids.contains(id))
            .collect();

        let delta = store.serve(&DocRequest::Descriptors {
            base: Some(base.digest()),
        });
        assert_eq!((delta.status, delta.served), (200, "descriptors_delta"));
        assert_eq!(
            delta.body.len() as u64,
            new_ids.len() as u64 * MICRODESC_PER_RELAY_BYTES,
            "one padded descriptor per churned relay"
        );
        let full = store.serve(&DocRequest::Descriptors { base: None });
        assert_eq!(
            full.body.len() as u64,
            latest.entries.len() as u64 * MICRODESC_PER_RELAY_BYTES
        );
        assert!(delta.body.len() < full.body.len());
    }

    #[test]
    fn digest_index_lists_history_newest_first() {
        let (store, docs) = store_with(3);
        let index = store.serve(&DocRequest::Digests);
        let text = String::from_utf8(index.body.to_vec()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains(&docs[2].digest().to_hex()));
        assert!(lines[0].ends_with("age=0"));
        assert!(lines[1].contains(&docs[1].digest().to_hex()));
        let history = store.history();
        assert_eq!(history[0], docs[2].digest());
    }

    #[test]
    fn empty_store_404s_everything() {
        let store = ServingStore::new(3);
        assert_eq!(
            store.serve(&DocRequest::Consensus { base: None }).status,
            404
        );
        assert_eq!(store.latest_digest(), None);
    }

    /// Every payload of every snapshot, byte for byte, against a
    /// from-scratch computation that recomputes each digest: the
    /// digests cached at publish change no byte on the wire.
    #[test]
    fn every_payload_matches_a_from_scratch_encoding() {
        let committee = AuthoritySet::live(7);
        let mut docs = consensus_series(&DocSetConfig {
            relays: 60,
            history: 9,
            churn_per_hour: 5,
            ..DocSetConfig::default()
        });
        // Signed documents, so the full payload carries signature lines
        // after the hashed body.
        for doc in &mut docs {
            for i in [0u8, 4] {
                let auth = committee.get(AuthorityId(i));
                doc.sign(auth.id, &auth.signing_key);
            }
        }
        let store = ServingStore::new(3);
        for (n, latest) in docs.iter().enumerate() {
            store.publish(latest.clone());
            let body = |request: DocRequest| {
                let outcome = store.serve(&request);
                assert_eq!(outcome.status, 200, "{request:?}");
                assert_eq!(outcome.digest, Some(latest.digest()), "{request:?}");
                outcome.body.to_vec()
            };
            let latest_ids = relay_ids(latest);
            assert_eq!(
                body(DocRequest::Consensus { base: None }),
                latest.encode().into_bytes()
            );
            assert_eq!(
                body(DocRequest::Descriptors { base: None }),
                reference_descriptors(latest_ids.iter())
            );
            for base in &docs[n.saturating_sub(3)..n] {
                let d = base.digest();
                let diff = ConsensusDiff::compute(base, latest).encode().into_bytes();
                assert_eq!(body(DocRequest::ConsensusDiff { base: d }), diff);
                assert_eq!(body(DocRequest::Consensus { base: Some(d) }), diff);
                assert_eq!(
                    body(DocRequest::Descriptors { base: Some(d) }),
                    reference_descriptors(latest_ids.difference(&relay_ids(base)))
                );
            }
            let history: Vec<Digest32> = docs[n.saturating_sub(3)..=n]
                .iter()
                .rev()
                .map(Consensus::digest)
                .collect();
            let index: String = history
                .iter()
                .enumerate()
                .map(|(age, d)| format!("digest {} age={age}\n", d.to_hex()))
                .collect();
            assert_eq!(body(DocRequest::Digests), index.into_bytes());
            let status = format!(
                "ok latest={} retained={}\n",
                history[0].to_hex(),
                history.len() - 1
            );
            assert_eq!(body(DocRequest::Status), status.into_bytes());
            assert_eq!(store.history(), history);
        }
    }

    /// Readers racing a publisher: every outcome is checked against its
    /// own digest, so a response assembled from two snapshots (a body
    /// of one document under the digest of another) cannot pass.
    #[test]
    fn concurrent_serves_under_publish_churn_stay_coherent() {
        let docs = consensus_series(&DocSetConfig {
            relays: 70,
            history: 24,
            churn_per_hour: 4,
            ..DocSetConfig::default()
        });
        let digests: Vec<Digest32> = docs.iter().map(Consensus::digest).collect();
        let index_of: BTreeMap<Digest32, usize> =
            digests.iter().enumerate().map(|(i, d)| (*d, i)).collect();
        let store = ServingStore::new(3);
        store.publish(docs[0].clone());
        let done = AtomicBool::new(false);

        let seen = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..4u64)
                .map(|worker| {
                    let (docs, digests, index_of) = (&docs, &digests, &index_of);
                    let (store, done) = (&store, &done);
                    scope.spawn(move || {
                        let mut seen = BTreeMap::<&'static str, u32>::new();
                        let mut round = 0u64;
                        while round < 40 || !done.load(Ordering::Relaxed) {
                            let base = ((worker * 131 + round * 7) % docs.len() as u64) as usize;
                            let request = match round % 3 {
                                0 => DocRequest::Consensus {
                                    base: Some(digests[base]),
                                },
                                1 => DocRequest::Descriptors {
                                    base: Some(digests[base]),
                                },
                                _ => DocRequest::Consensus { base: None },
                            };
                            let outcome = store.serve(&request);
                            assert_eq!(outcome.status, 200);
                            let digest = outcome.digest.expect("a document response");
                            let target = &docs[index_of[&digest]];
                            let text = || std::str::from_utf8(&outcome.body).unwrap();
                            match outcome.served {
                                "full" => {
                                    let doc = Consensus::parse(text()).expect("full parses");
                                    assert_eq!(doc.digest(), digest);
                                }
                                "diff" => {
                                    let diff = ConsensusDiff::parse(text()).expect("diff parses");
                                    assert_eq!(diff.from_digest, digests[base]);
                                    let rebuilt =
                                        diff.apply(&docs[base]).expect("diff applies to its base");
                                    assert_eq!(rebuilt.digest(), digest);
                                }
                                "descriptors_delta" => {
                                    let churn = relay_ids(target)
                                        .difference(&relay_ids(&docs[base]))
                                        .count();
                                    assert_eq!(
                                        outcome.body.len(),
                                        churn * MICRODESC_PER_RELAY_BYTES as usize
                                    );
                                }
                                "descriptors" => assert_eq!(
                                    outcome.body.len(),
                                    target.entries.len() * MICRODESC_PER_RELAY_BYTES as usize
                                ),
                                other => panic!("unexpected served class {other}"),
                            }
                            *seen.entry(outcome.served).or_default() += 1;
                            round += 1;
                        }
                        seen
                    })
                })
                .collect();
            for doc in &docs[1..] {
                store.publish(doc.clone());
                std::thread::yield_now();
            }
            done.store(true, Ordering::Relaxed);
            let mut seen = BTreeMap::<&'static str, u32>::new();
            for reader in readers {
                for (served, n) in reader.join().expect("reader") {
                    *seen.entry(served).or_default() += n;
                }
            }
            seen
        });
        assert_eq!(store.latest_digest(), digests.last().copied());
        for class in ["full", "diff", "descriptors_delta"] {
            assert!(seen.get(class) > Some(&0), "no {class} served: {seen:?}");
        }
    }

    #[test]
    fn a_poisoned_store_still_serves_and_publishes() {
        let docs = consensus_series(&DocSetConfig {
            relays: 60,
            history: 4,
            churn_per_hour: 5,
            ..DocSetConfig::default()
        });
        let store = ServingStore::new(3);
        for doc in &docs[..3] {
            store.publish(doc.clone());
        }
        std::thread::scope(|scope| {
            let died = scope
                .spawn(|| {
                    let _store = store.store.lock().unwrap();
                    let _snapshot = store.snapshot.write().unwrap();
                    panic!("publisher dies holding both locks");
                })
                .join();
            assert!(died.is_err());
        });
        assert!(store.snapshot.is_poisoned() && store.store.is_poisoned());

        let full = store.serve(&DocRequest::Consensus { base: None });
        assert_eq!((full.status, full.digest), (200, Some(docs[2].digest())));
        store.publish(docs[3].clone());
        assert_eq!(store.latest_digest(), Some(docs[3].digest()));
        let diff = store.serve(&DocRequest::Consensus {
            base: Some(docs[2].digest()),
        });
        assert_eq!((diff.status, diff.served), (200, "diff"));
    }
}
