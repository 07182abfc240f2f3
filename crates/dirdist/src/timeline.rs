//! Consensus publications: the versioned documents caches fetch and
//! client fleets live on.
//!
//! Upstream (the protocol simulations in `partialtor`'s runner) decides
//! *whether* and *when* each hourly consensus exists; a stepped
//! [`DistSession`](crate::DistSession) turns each hour's outcome into a
//! [`Publication`] as it goes. The distribution layer deliberately
//! depends only on this small interface, not on the protocol crates, so
//! any protocol — deployed, synchronous, ICPS, or something future —
//! can sit upstream. A whole [`ConsensusTimeline`] built up front only
//! feeds the batch runs behind the benchmark's tier and fleet probes,
//! [`cachesim::run`](crate::cachesim::run) and
//! [`fleet::run`](crate::fleet::run).

/// One successfully produced consensus.
#[derive(Clone, Copy, Debug)]
pub struct Publication {
    /// Index in the produced sequence — the version number the cache
    /// tier and fleets use to talk about documents.
    pub version: usize,
    /// Nominal hour of the run that produced it (its `valid-after` is
    /// `hour * 3600`).
    pub hour: u64,
    /// Absolute simulated second at which the authorities hold the
    /// signed document (run start + in-run completion offset).
    pub available_at_secs: f64,
    /// Absolute second at which the document stops being *fresh*
    /// (clients start looking for a successor).
    pub fresh_until_secs: f64,
    /// Absolute second after which the document no longer validates and
    /// clients holding it fall off the network.
    pub valid_until_secs: f64,
}

impl Publication {
    /// Version `version`, produced by hour `hour`'s run `offset_secs`
    /// into the hour. The dir-spec lifetimes `fresh_secs` and
    /// `valid_secs` run from the nominal hour (3 600 s and 10 800 s for
    /// Tor), not from the completion offset.
    pub fn hourly(
        version: usize,
        hour: u64,
        offset_secs: f64,
        fresh_secs: u64,
        valid_secs: u64,
    ) -> Self {
        let nominal = (hour * 3_600) as f64;
        Publication {
            version,
            hour,
            available_at_secs: nominal + offset_secs,
            fresh_until_secs: nominal + fresh_secs as f64,
            valid_until_secs: nominal + valid_secs as f64,
        }
    }

    /// Whether the document still validates at `t` (holders can build
    /// circuits).
    pub fn live_at(&self, t: f64) -> bool {
        self.valid_until_secs > t
    }

    /// Whether the document is still *fresh* at `t` (holders are not
    /// yet looking for a successor).
    pub fn fresh_at(&self, t: f64) -> bool {
        self.fresh_until_secs > t
    }
}

/// A day (or any horizon) of hourly consensus outcomes.
#[derive(Clone, Debug)]
pub struct ConsensusTimeline {
    /// Number of hourly runs after the baseline (hours `1..=hours`).
    pub hours: u64,
    /// The produced documents, in version order.
    pub publications: Vec<Publication>,
}

impl ConsensusTimeline {
    /// Builds a timeline from per-hour outcomes.
    ///
    /// `hourly[h - 1]` is the completion offset (seconds into hour `h`'s
    /// run) of the consensus produced at hour `h`, or `None` when that
    /// run failed. A baseline pre-attack consensus at `t = 0` (hour 0)
    /// is always prepended — the paper's §2.1 timeline starts from the
    /// last document the network produced before the attack.
    ///
    /// `fresh_secs` and `valid_secs` are as in [`Publication::hourly`].
    pub fn from_hourly_outcomes(hourly: &[Option<f64>], fresh_secs: u64, valid_secs: u64) -> Self {
        let mut publications = vec![Publication::hourly(0, 0, 0.0, fresh_secs, valid_secs)];
        for (index, outcome) in hourly.iter().enumerate() {
            if let Some(offset) = outcome {
                let (version, hour) = (publications.len(), index as u64 + 1);
                publications.push(Publication::hourly(
                    version, hour, *offset, fresh_secs, valid_secs,
                ));
            }
        }
        ConsensusTimeline {
            hours: hourly.len() as u64,
            publications,
        }
    }

    /// End of the simulated horizon, seconds (one hour past the last run
    /// so the final run's client impact is observable).
    pub fn horizon_secs(&self) -> f64 {
        ((self.hours + 1) * 3600) as f64
    }
}

/// The newest version that is fetchable *and* still valid at `t`,
/// given when each version became available at the cache tier
/// (`cached_at[version]`, `None` = never) — what a client asking the
/// tier for a document right now would get. Note the newest *cached*
/// version is picked first and only then checked for validity: a
/// stale-but-cached newer version masks an older live one, exactly as
/// a client asking the tier for "the newest you hold" experiences it.
pub fn newest_live_cached(
    publications: &[Publication],
    cached_at: &[Option<f64>],
    t: f64,
) -> Option<usize> {
    publications
        .iter()
        .rev()
        .find(|p| matches!(cached_at.get(p.version), Some(Some(at)) if *at <= t))
        .map(|p| p.version)
        .filter(|&v| publications[v].live_at(t))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_always_version_zero() {
        let t = ConsensusTimeline::from_hourly_outcomes(&[None, None], 3_600, 10_800);
        assert_eq!(t.publications.len(), 1);
        assert_eq!(t.publications[0].version, 0);
        assert_eq!(t.publications[0].valid_until_secs, 10_800.0);
        assert_eq!(t.hours, 2);
        assert_eq!(t.horizon_secs(), 3.0 * 3600.0);
    }

    #[test]
    fn produced_hours_become_versions_in_order() {
        let t = ConsensusTimeline::from_hourly_outcomes(
            &[Some(360.0), None, Some(10.0)],
            3_600,
            10_800,
        );
        let versions: Vec<(usize, u64)> =
            t.publications.iter().map(|p| (p.version, p.hour)).collect();
        assert_eq!(versions, vec![(0, 0), (1, 1), (2, 3)]);
        assert_eq!(t.publications[1].available_at_secs, 3_960.0);
        assert_eq!(t.publications[2].available_at_secs, 3.0 * 3600.0 + 10.0);
    }

    #[test]
    fn newest_live_cached_respects_cache_arrival_and_validity() {
        let t = ConsensusTimeline::from_hourly_outcomes(&[Some(360.0), Some(10.0)], 3_600, 10_800);
        // Version 1 reaches the caches at 4 200 s; version 2 never does.
        let cached_at = vec![Some(300.0), Some(4_200.0), None];
        assert_eq!(newest_live_cached(&t.publications, &cached_at, 0.0), None);
        assert_eq!(
            newest_live_cached(&t.publications, &cached_at, 1_000.0),
            Some(0)
        );
        assert_eq!(
            newest_live_cached(&t.publications, &cached_at, 5_000.0),
            Some(1)
        );
        // The baseline expires at 10 800 s; version 1 at 3 600 + 10 800.
        assert_eq!(
            newest_live_cached(&t.publications, &cached_at, 14_000.0),
            Some(1)
        );
        assert_eq!(
            newest_live_cached(&t.publications, &cached_at, 15_000.0),
            None
        );
    }
}
