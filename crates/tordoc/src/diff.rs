//! Consensus diffs (Tor proposal 140).
//!
//! Clients and caches that already hold the previous consensus can fetch
//! a *diff* instead of the full document, cutting the directory traffic
//! that makes authorities attractive DDoS targets in the first place
//! (the background load of the paper's §2.1 outage). Because consensus
//! entries are sorted by relay identity, the diff is semantic: removed
//! relays, plus inserted-or-changed entries.

use crate::consensus::{Consensus, ConsensusEntry, ConsensusMeta};
use crate::relay::RelayId;
use crate::vote::{parse_entries, parse_u64, DocError};
use partialtor_crypto::{sha256, Digest32};

/// A semantic diff between two consensus documents.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConsensusDiff {
    /// Digest of the document the diff applies to.
    pub from_digest: Digest32,
    /// Digest of the document the diff produces.
    pub to_digest: Digest32,
    /// The new document's header metadata.
    pub meta: ConsensusMeta,
    /// Relays present in `from` but absent in `to`.
    pub removed: Vec<RelayId>,
    /// Entries added or changed in `to`.
    pub upserts: Vec<ConsensusEntry>,
}

/// One relay's step in [`walk_entries`].
#[derive(Clone, Copy, Debug)]
pub enum EntryStep<'a> {
    /// Listed only in the old document.
    Removed(&'a ConsensusEntry),
    /// Listed only in the new document.
    Added(&'a ConsensusEntry),
    /// Listed in both, possibly with changed properties.
    Kept {
        /// The old document's entry.
        old: &'a ConsensusEntry,
        /// The new document's entry.
        new: &'a ConsensusEntry,
    },
}

/// Walks two entry lists sorted by relay id together (as consensus
/// entries are), calling `visit` once per relay in id order.
pub fn walk_entries<'a>(
    from: &'a [ConsensusEntry],
    to: &'a [ConsensusEntry],
    mut visit: impl FnMut(EntryStep<'a>),
) {
    let (mut i, mut j) = (0usize, 0usize);
    loop {
        let step = match (from.get(i), to.get(j)) {
            (Some(old), Some(new)) if old.id == new.id => EntryStep::Kept { old, new },
            (Some(old), Some(new)) if old.id < new.id => EntryStep::Removed(old),
            (Some(old), None) => EntryStep::Removed(old),
            (_, Some(new)) => EntryStep::Added(new),
            (None, None) => return,
        };
        match step {
            EntryStep::Kept { .. } => (i, j) = (i + 1, j + 1),
            EntryStep::Removed(_) => i += 1,
            EntryStep::Added(_) => j += 1,
        }
        visit(step);
    }
}

impl ConsensusDiff {
    /// Computes the diff from `from` to `to`.
    pub fn compute(from: &Consensus, to: &Consensus) -> ConsensusDiff {
        Self::compute_with_digests(from, from.digest(), to, to.digest())
    }

    /// [`ConsensusDiff::compute`] for a caller that already holds both
    /// documents' digests, so neither is re-encoded and re-hashed. The
    /// digests are trusted: they are what the diff names and what
    /// [`ConsensusDiff::apply`] checks against.
    pub fn compute_with_digests(
        from: &Consensus,
        from_digest: Digest32,
        to: &Consensus,
        to_digest: Digest32,
    ) -> ConsensusDiff {
        let mut removed = Vec::new();
        let mut upserts = Vec::new();
        walk_entries(&from.entries, &to.entries, |step| match step {
            EntryStep::Removed(old) => removed.push(old.id),
            EntryStep::Added(new) => upserts.push(new.clone()),
            EntryStep::Kept { old, new } => {
                if old != new {
                    upserts.push(new.clone());
                }
            }
        });
        ConsensusDiff {
            from_digest,
            to_digest,
            meta: to.meta.clone(),
            removed,
            upserts,
        }
    }

    /// Applies the diff to `from`, reconstructing the target document
    /// (without signatures — those are fetched separately, as in Tor).
    ///
    /// Returns `None` if `from` is not the document this diff was computed
    /// against, or if the result does not hash to `to_digest`.
    pub fn apply(&self, from: &Consensus) -> Option<Consensus> {
        if from.digest() != self.from_digest {
            return None;
        }
        let mut entries: std::collections::BTreeMap<RelayId, ConsensusEntry> =
            from.entries.iter().map(|e| (e.id, e.clone())).collect();
        for id in &self.removed {
            entries.remove(id);
        }
        for entry in &self.upserts {
            entries.insert(entry.id, entry.clone());
        }
        let result = Consensus {
            meta: self.meta.clone(),
            entries: entries.into_values().collect(),
            signatures: Vec::new(),
        };
        (result.digest() == self.to_digest).then_some(result)
    }

    /// Canonical text encoding.
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(256 + self.upserts.len() * 300);
        out.push_str("consensus-diff 1\n");
        out.push_str(&format!("from {}\n", self.from_digest.to_hex()));
        out.push_str(&format!("to {}\n", self.to_digest.to_hex()));
        out.push_str(&format!("valid-after {}\n", self.meta.valid_after));
        out.push_str(&format!("fresh-until {}\n", self.meta.fresh_until));
        out.push_str(&format!("valid-until {}\n", self.meta.valid_until));
        for id in &self.removed {
            out.push_str(&format!("d {}\n", id.fingerprint()));
        }
        for entry in &self.upserts {
            let info = crate::relay::RelayInfo {
                id: entry.id,
                nickname: entry.nickname.clone(),
                address: entry.address,
                or_port: entry.or_port,
                dir_port: entry.dir_port,
                flags: entry.flags,
                version: entry.version,
                protocols: entry.protocols.clone(),
                exit_policy: entry.exit_policy.clone(),
                bandwidth: entry.bandwidth,
                descriptor_digest: Digest32::default(),
            };
            crate::vote::encode_relay(&mut out, &info, false);
        }
        out.push_str("directory-footer\n");
        out
    }

    /// Parses the canonical encoding.
    pub fn parse(text: &str) -> Result<ConsensusDiff, DocError> {
        let mut lines = text.lines().enumerate().peekable();
        let mut from_digest = None;
        let mut to_digest = None;
        let mut valid_after = None;
        let mut fresh_until = None;
        let mut valid_until = None;
        let mut removed = Vec::new();

        while let Some((idx, line)) = lines.peek().copied() {
            let ln = idx + 1;
            if line.starts_with("r ") || line == "directory-footer" {
                break;
            }
            lines.next();
            if let Some(rest) = line.strip_prefix("from ") {
                from_digest =
                    Some(Digest32::from_hex(rest).ok_or_else(|| DocError::new(ln, "bad digest"))?);
            } else if let Some(rest) = line.strip_prefix("to ") {
                to_digest =
                    Some(Digest32::from_hex(rest).ok_or_else(|| DocError::new(ln, "bad digest"))?);
            } else if let Some(rest) = line.strip_prefix("valid-after ") {
                valid_after = Some(parse_u64(rest, ln)?);
            } else if let Some(rest) = line.strip_prefix("fresh-until ") {
                fresh_until = Some(parse_u64(rest, ln)?);
            } else if let Some(rest) = line.strip_prefix("valid-until ") {
                valid_until = Some(parse_u64(rest, ln)?);
            } else if let Some(rest) = line.strip_prefix("d ") {
                removed.push(
                    RelayId::from_fingerprint(rest)
                        .ok_or_else(|| DocError::new(ln, "bad fingerprint"))?,
                );
            } else if line.starts_with("consensus-diff") {
                // Version header.
            } else {
                return Err(DocError::new(ln, format!("unexpected line: {line}")));
            }
        }

        let infos = parse_entries(&mut lines, false)?;
        let upserts = infos
            .into_iter()
            .map(|i| ConsensusEntry {
                id: i.id,
                nickname: i.nickname,
                address: i.address,
                or_port: i.or_port,
                dir_port: i.dir_port,
                flags: i.flags,
                version: i.version,
                protocols: i.protocols,
                exit_policy: i.exit_policy,
                bandwidth: i.bandwidth,
            })
            .collect();

        Ok(ConsensusDiff {
            from_digest: from_digest.ok_or_else(|| DocError::new(0, "missing from"))?,
            to_digest: to_digest.ok_or_else(|| DocError::new(0, "missing to"))?,
            meta: ConsensusMeta {
                valid_after: valid_after.ok_or_else(|| DocError::new(0, "missing valid-after"))?,
                fresh_until: fresh_until.ok_or_else(|| DocError::new(0, "missing fresh-until"))?,
                valid_until: valid_until.ok_or_else(|| DocError::new(0, "missing valid-until"))?,
            },
            removed,
            upserts,
        })
    }

    /// Wire size of the encoded diff.
    pub fn wire_size(&self) -> u64 {
        self.encode().len() as u64
    }

    /// Digest of the encoded diff (for integrity checks on mirrors).
    pub fn digest(&self) -> Digest32 {
        sha256::digest(self.encode().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authority::AuthorityId;
    use crate::consensus::aggregate;
    use crate::generator::{authority_view, generate_population, PopulationConfig, ViewConfig};
    use crate::vote::{Vote, VoteMeta};

    fn consensus_for(seed: u64, count: usize, valid_after: u64) -> Consensus {
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

    /// Builds "the next hour's" consensus with some churn.
    fn churned(base: &Consensus, drop: usize, valid_after: u64) -> Consensus {
        let mut entries = base.entries.clone();
        entries.drain(..drop.min(entries.len()));
        // Change a property on one surviving relay.
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
    fn diff_apply_reconstructs_target() {
        let old = consensus_for(1, 80, 3_600);
        let new = churned(&old, 3, 7_200);
        let diff = ConsensusDiff::compute(&old, &new);
        let rebuilt = diff.apply(&old).expect("applies");
        assert_eq!(rebuilt.digest(), new.digest());
        assert_eq!(rebuilt.entries, new.entries);
    }

    #[test]
    fn diff_rejects_wrong_base() {
        let old = consensus_for(2, 40, 3_600);
        let new = churned(&old, 2, 7_200);
        let unrelated = consensus_for(3, 40, 3_600);
        let diff = ConsensusDiff::compute(&old, &new);
        assert!(diff.apply(&unrelated).is_none());
    }

    #[test]
    fn diff_is_much_smaller_than_full_document() {
        let old = consensus_for(4, 500, 3_600);
        // 1% churn.
        let new = churned(&old, 5, 7_200);
        let diff = ConsensusDiff::compute(&old, &new);
        assert!(
            diff.wire_size() * 10 < new.wire_size(),
            "diff {} vs full {}",
            diff.wire_size(),
            new.wire_size()
        );
    }

    #[test]
    fn identity_diff_is_minimal() {
        let doc = consensus_for(5, 60, 3_600);
        let diff = ConsensusDiff::compute(&doc, &doc);
        assert!(diff.removed.is_empty());
        assert!(diff.upserts.is_empty());
        assert_eq!(diff.apply(&doc).unwrap().digest(), doc.digest());
    }

    #[test]
    fn encode_parse_roundtrip() {
        let old = consensus_for(6, 50, 3_600);
        let new = churned(&old, 4, 7_200);
        let diff = ConsensusDiff::compute(&old, &new);
        let parsed = ConsensusDiff::parse(&diff.encode()).expect("parses");
        assert_eq!(parsed, diff);
        // And the parsed diff still applies correctly.
        assert_eq!(parsed.apply(&old).unwrap().digest(), new.digest());
    }

    #[test]
    fn detects_added_relays() {
        let small = consensus_for(7, 30, 3_600);
        let big = consensus_for(7, 30, 3_600);
        // Create "new" by removing from the old instead: diff in reverse.
        let older = churned(&big, 5, 3_600);
        let diff = ConsensusDiff::compute(&older, &small);
        assert!(
            !diff.upserts.is_empty(),
            "relays present only in the target must be upserted"
        );
        assert_eq!(diff.apply(&older).unwrap().digest(), small.digest());
    }
}
