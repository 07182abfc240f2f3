//! Wire-size model for the documents the distribution layer serves.
//!
//! The distribution layer serves two *classes* of document
//! ([`DocClass`]): the consensus itself, and the relay descriptors
//! (microdescriptors) a client needs before it can build circuits with
//! the relays the consensus lists. The cache tier and fleets only need
//! *sizes*: how many bytes a full document of each class costs, and how
//! many an incremental fetch (a proposal-140 consensus diff, or the
//! descriptors of just the churned relays) costs.
//!
//! Two layers split the work:
//!
//! * [`DocModel`] — the *sizer*: either synthetic (calibrated formulas
//!   for production-scale runs, no documents built) or measured (real
//!   `tordoc` documents pushed through a
//!   [`DiffStore`], every served diff verified to reconstruct its
//!   target — the mode that proves the proposal-140 plumbing end to
//!   end);
//! * [`DocTable`] — the *grown* per-version size table an hour-stepped
//!   [`DistSession`](crate::DistSession) builds publication by
//!   publication, with diff sizes driven by the cumulative relay churn
//!   between each base and target (a
//!   [`ChurnSchedule`](crate::ChurnSchedule) upstream decides how much
//!   churn each hour contributes).

use partialtor_obs::span;
use partialtor_tordoc::serve::{DiffStore, Served};
use partialtor_tordoc::Consensus;
use std::collections::BTreeMap;

/// Fixed overhead of a consensus document (header, known-flags,
/// signatures), bytes.
pub const CONSENSUS_BASE_BYTES: u64 = 16 * 1024;

/// Marginal consensus size per listed relay, bytes (status line,
/// policy summary, bandwidth weight).
pub const CONSENSUS_PER_RELAY_BYTES: u64 = 320;

/// Fixed overhead of an encoded diff, bytes.
pub const DIFF_BASE_BYTES: u64 = 1024;

/// Wire size of one relay's microdescriptor, bytes (onion keys, policy
/// summary, family line — the flavour clients actually fetch).
pub const MICRODESC_PER_RELAY_BYTES: u64 = 500;

/// Synthetic consensus wire size for a network with `relays` relays.
pub const fn consensus_size_bytes(relays: u64) -> u64 {
    CONSENSUS_BASE_BYTES + relays * CONSENSUS_PER_RELAY_BYTES
}

/// Synthetic wire size of the full descriptor set for `relays` relays —
/// what a bootstrapping client (or an empty cache) must fetch besides
/// the consensus before it can build circuits.
pub const fn descriptors_size_bytes(relays: u64) -> u64 {
    relays * MICRODESC_PER_RELAY_BYTES
}

/// The document classes the distribution layer serves.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DocClass {
    /// The hourly network consensus (full document or proposal-140 diff).
    Consensus,
    /// Relay descriptors: the full set on bootstrap, only the churned
    /// relays' descriptors on refresh.
    Descriptors,
}

/// What one directory response costs on the wire.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResponseSize {
    /// Payload bytes.
    pub bytes: u64,
    /// Whether the response is incremental (a consensus diff / a churned
    /// descriptor subset) rather than the full document.
    pub is_diff: bool,
}

/// Per-class document sizer: where the bytes-per-document numbers come
/// from.
#[derive(Clone, Debug)]
pub enum DocModel {
    /// Calibrated synthetic sizes for a network of `relays` relays; no
    /// documents are built. Production-scale runs use this.
    Synthetic {
        /// Relay population driving both classes' sizes.
        relays: u64,
    },
    /// Sizes measured from real `tordoc` consensuses served through a
    /// [`DiffStore`] (consensus class) plus synthetic descriptor sizing
    /// from each document's actual relay count (descriptor class).
    Measured {
        /// Exact wire size of each published consensus.
        consensus_full: Vec<u64>,
        /// Measured diff bytes keyed by `(from_version, to_version)`;
        /// absent pairs are served as full documents.
        consensus_diffs: BTreeMap<(usize, usize), u64>,
        /// Relay count listed by each version (descriptor sizing).
        relays: Vec<u64>,
    },
}

impl DocModel {
    /// The synthetic sizer for a `relays`-relay network.
    pub fn synthetic(relays: u64) -> Self {
        DocModel::Synthetic { relays }
    }

    /// Measures real documents: publishes each consensus into a
    /// [`DiffStore`] retaining `retain` predecessors and records the
    /// exact wire size of every diff the store serves. Each diff is
    /// verified to reconstruct its target before its size is trusted.
    ///
    /// # Panics
    ///
    /// Panics if a served diff fails to reconstruct its target — that
    /// would mean the proposal-140 implementation is broken, and no
    /// bandwidth number derived from it could be trusted.
    pub fn from_consensuses(docs: &[Consensus], retain: usize) -> Self {
        let digests: Vec<_> = docs.iter().map(|d| d.digest()).collect();
        let consensus_full: Vec<u64> = docs.iter().map(|d| d.wire_size()).collect();
        let relays: Vec<u64> = docs.iter().map(|d| d.entries.len() as u64).collect();
        let mut consensus_diffs = BTreeMap::new();
        let mut store = DiffStore::new(retain);
        for (j, doc) in docs.iter().enumerate() {
            store.publish(doc.clone());
            for i in j.saturating_sub(retain)..j {
                if let Some(Served::Diff(diff)) = store.serve(Some(&digests[i])) {
                    let rebuilt = diff
                        .apply(&docs[i])
                        .expect("served diff must apply to its base");
                    assert_eq!(
                        rebuilt.digest(),
                        digests[j],
                        "served diff must reconstruct its target"
                    );
                    consensus_diffs.insert((i, j), diff.wire_size());
                }
            }
        }
        DocModel::Measured {
            consensus_full,
            consensus_diffs,
            relays,
        }
    }

    /// Relay count backing `version`'s documents.
    pub fn relays_at(&self, version: usize) -> u64 {
        match self {
            DocModel::Synthetic { relays } => *relays,
            DocModel::Measured { relays, .. } => relays[version],
        }
    }

    /// Full consensus bytes for `version`.
    pub fn consensus_full_bytes(&self, version: usize) -> u64 {
        match self {
            DocModel::Synthetic { relays } => consensus_size_bytes(*relays),
            DocModel::Measured { consensus_full, .. } => consensus_full[version],
        }
    }

    /// Full descriptor-set bytes for `version`.
    pub fn descriptors_full_bytes(&self, version: usize) -> u64 {
        descriptors_size_bytes(self.relays_at(version))
    }

    /// Consensus diff bytes from `from` to `to`, given that a `churned`
    /// fraction of the relay set turned over between them, or `None`
    /// when the pair is not diffable. The synthetic model prices
    /// `2 × churned` of the entry list (removed-relay lines plus
    /// replacement entries plus changed entries); the measured model
    /// returns the exact served size and ignores `churned`.
    pub fn consensus_diff_bytes(&self, from: usize, to: usize, churned: f64) -> Option<u64> {
        match self {
            DocModel::Synthetic { relays } => {
                let churned_relays = (*relays as f64 * churned.clamp(0.0, 1.0)).round();
                let body = (churned_relays * 2.0 * CONSENSUS_PER_RELAY_BYTES as f64) as u64;
                Some((DIFF_BASE_BYTES + body).min(self.consensus_full_bytes(to)))
            }
            DocModel::Measured {
                consensus_diffs, ..
            } => consensus_diffs.get(&(from, to)).copied(),
        }
    }
}

/// Descriptor bytes for the churned share of a `relays`-relay set.
/// Descriptors are fetched per relay, so there is no diff window: an
/// arbitrarily old base still only refetches the churned share.
fn descriptors_delta_for(relays: u64, churned: f64) -> u64 {
    (relays as f64 * churned.clamp(0.0, 1.0)).round() as u64 * MICRODESC_PER_RELAY_BYTES
}

/// The grown per-version size table: one row per publication, appended
/// by the session as hours step. This is what the cache tier's serving
/// entries and the fleet's fetch accounting read.
#[derive(Clone, Debug, Default)]
pub struct DocTable {
    /// Full consensus bytes per version.
    consensus_full: Vec<u64>,
    /// Full descriptor-set bytes per version.
    descriptors_full: Vec<u64>,
    /// Consensus diff bytes keyed by `(from, to)`; pairs absent here are
    /// served as full documents.
    consensus_diff: BTreeMap<(usize, usize), u64>,
    /// Nominal hour of each version.
    hours: Vec<u64>,
    /// Cumulative churn up to each version's hour (fractions of the
    /// relay set, summed over hours).
    cum_churn: Vec<f64>,
    /// Relay count per version.
    relays: Vec<u64>,
}

impl DocTable {
    /// An empty table.
    pub fn new() -> Self {
        DocTable::default()
    }

    /// Number of versions the table covers.
    pub fn versions(&self) -> usize {
        self.consensus_full.len()
    }

    /// Appends the next version: published at nominal `hour`, with
    /// `cum_churn` total churn accumulated since version 0, diffable
    /// from bases at most `retain_hours` older.
    pub fn push_version(&mut self, model: &DocModel, hour: u64, cum_churn: f64, retain_hours: u64) {
        let _span = span("docmodel.push_version");
        let version = self.versions();
        self.consensus_full
            .push(model.consensus_full_bytes(version));
        self.descriptors_full
            .push(model.descriptors_full_bytes(version));
        self.relays.push(model.relays_at(version));
        for base in 0..version {
            let gap = hour.saturating_sub(self.hours[base]);
            if gap == 0 || gap > retain_hours {
                continue;
            }
            let churned = (cum_churn - self.cum_churn[base]).max(0.0);
            if let Some(bytes) = model.consensus_diff_bytes(base, version, churned) {
                self.consensus_diff
                    .insert((base, version), bytes.min(self.consensus_full[version]));
            }
        }
        self.hours.push(hour);
        self.cum_churn.push(cum_churn);
    }

    /// Full document bytes for `version` in `class`.
    pub fn full_bytes(&self, class: DocClass, version: usize) -> u64 {
        match class {
            DocClass::Consensus => self.consensus_full[version],
            DocClass::Descriptors => self.descriptors_full[version],
        }
    }

    /// Churned fraction of the relay set between two versions (capped at
    /// the whole set).
    pub fn churned_between(&self, from: usize, to: usize) -> f64 {
        (self.cum_churn[to] - self.cum_churn[from]).clamp(0.0, 1.0)
    }

    /// The response a directory server sends a requester holding `have`
    /// and wanting `want`: incremental when possible (a diff inside the
    /// retain window for the consensus class, the churned descriptor
    /// subset for the descriptor class), the full document otherwise.
    pub fn response(&self, class: DocClass, have: Option<usize>, want: usize) -> ResponseSize {
        let Some(from) = have else {
            return ResponseSize {
                bytes: self.full_bytes(class, want),
                is_diff: false,
            };
        };
        match class {
            DocClass::Consensus => match self.consensus_diff.get(&(from, want)) {
                Some(&bytes) => ResponseSize {
                    bytes,
                    is_diff: true,
                },
                None => ResponseSize {
                    bytes: self.consensus_full[want],
                    is_diff: false,
                },
            },
            DocClass::Descriptors => {
                let full = self.descriptors_full[want];
                let churned = self.churned_between(from, want);
                let bytes = descriptors_delta_for(self.relays[want], churned).min(full);
                ResponseSize {
                    bytes,
                    is_diff: bytes < full,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partialtor_tordoc::prelude::*;

    /// A table grown like a session would: hourly versions at constant
    /// churn.
    fn hourly_table(model: &DocModel, hours: u64, churn: f64, retain: u64) -> DocTable {
        let mut table = DocTable::new();
        for h in 0..=hours {
            table.push_version(model, h, churn * h as f64, retain);
        }
        table
    }

    #[test]
    fn synthetic_diffs_grow_with_gap_and_cap_at_full() {
        let model = DocModel::synthetic(8_000);
        let table = hourly_table(&model, 5, 0.02, 3);
        let one = table.response(DocClass::Consensus, Some(4), 5);
        let two = table.response(DocClass::Consensus, Some(3), 5);
        let three = table.response(DocClass::Consensus, Some(2), 5);
        assert!(one.is_diff && two.is_diff && three.is_diff);
        assert!(one.bytes < two.bytes && two.bytes < three.bytes);
        // Beyond the retain window: full document.
        let four = table.response(DocClass::Consensus, Some(1), 5);
        assert!(!four.is_diff);
        assert_eq!(four.bytes, consensus_size_bytes(8_000));
        // Bootstrapping (no base) is always full.
        assert!(!table.response(DocClass::Consensus, None, 5).is_diff);
        // A diff is far smaller than the full document at 2% churn.
        assert!(one.bytes * 10 < four.bytes);
    }

    #[test]
    fn descriptor_class_prices_bootstrap_and_churned_refresh() {
        let model = DocModel::synthetic(8_000);
        let table = hourly_table(&model, 5, 0.02, 3);
        // Bootstrap: the whole descriptor set, dwarfing the consensus.
        let full = table.response(DocClass::Descriptors, None, 5);
        assert!(!full.is_diff);
        assert_eq!(full.bytes, descriptors_size_bytes(8_000));
        assert!(full.bytes > consensus_size_bytes(8_000));
        // Refresh: only the churned relays' descriptors, even beyond the
        // consensus retain window (descriptors have no diff window).
        let recent = table.response(DocClass::Descriptors, Some(4), 5);
        let ancient = table.response(DocClass::Descriptors, Some(0), 5);
        assert!(recent.is_diff && ancient.is_diff);
        assert_eq!(recent.bytes, (8_000f64 * 0.02).round() as u64 * 500);
        assert!(recent.bytes < ancient.bytes && ancient.bytes < full.bytes);
    }

    #[test]
    fn churn_series_drives_diff_sizes() {
        let model = DocModel::synthetic(8_000);
        // Quiet hour then a churny hour: the churny hour's diff is
        // larger although both gaps are one hour.
        let mut table = DocTable::new();
        table.push_version(&model, 0, 0.0, 3);
        table.push_version(&model, 1, 0.005, 3);
        table.push_version(&model, 2, 0.005 + 0.06, 3);
        let quiet = table.response(DocClass::Consensus, Some(0), 1);
        let churny = table.response(DocClass::Consensus, Some(1), 2);
        assert!(quiet.is_diff && churny.is_diff);
        assert!(quiet.bytes * 2 < churny.bytes);
    }

    #[test]
    fn real_documents_measure_and_verify() {
        let population = generate_population(&PopulationConfig { seed: 5, count: 60 });
        let committee = AuthoritySet::with_size(5, 9);
        let make = |valid_after: u64, drop: usize| {
            let subset = &population[drop..];
            let votes: Vec<Vote> = committee
                .iter()
                .map(|auth| {
                    let view = authority_view(subset, auth.id, 5, &ViewConfig::default());
                    Vote::new(
                        VoteMeta::standard(
                            auth.id,
                            &auth.name,
                            auth.fingerprint_hex(),
                            valid_after,
                        ),
                        view,
                    )
                })
                .collect();
            let refs: Vec<&Vote> = votes.iter().collect();
            aggregate(&refs)
        };
        let docs: Vec<Consensus> = (0..4).map(|h| make(3_600 * (h + 1), h as usize)).collect();
        let model = DocModel::from_consensuses(&docs, 2);
        let table = hourly_table(&model, 3, 0.02, 2);
        assert_eq!(table.versions(), 4);
        // Adjacent versions diff; the hour-0 base against version 3 does
        // not (outside the retain window of 2).
        assert!(table.response(DocClass::Consensus, Some(2), 3).is_diff);
        assert!(table.response(DocClass::Consensus, Some(1), 3).is_diff);
        assert!(!table.response(DocClass::Consensus, Some(0), 3).is_diff);
        assert!(
            table.response(DocClass::Consensus, Some(2), 3).bytes
                < table.full_bytes(DocClass::Consensus, 3)
        );
        // Descriptor sizing follows each measured document's own relay
        // count.
        assert_eq!(model.relays_at(0), 60);
        assert_eq!(
            table.full_bytes(DocClass::Descriptors, 0),
            60 * MICRODESC_PER_RELAY_BYTES
        );
    }
}
