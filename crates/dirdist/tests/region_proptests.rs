//! Property-based tests of the geographic distribution layer: the
//! region-weighted fleet conserves clients across cohorts for any
//! timeline and seed, and every per-region breakdown in a
//! [`DistReport`] sums back to the aggregate fields it refines.

use partialtor_dirdist::{
    CachePlacement, ClientRegions, DistConfig, DistReport, DistSession, DocModel, LinkWindow,
    TierNode,
};
use partialtor_simnet::geo::Region;
use proptest::prelude::*;

/// Steps a fresh session with the synthetic document model through
/// `raw`'s hourly outcomes (hour 1 first; an hour either produces at the
/// offset or fails) and closes it.
fn stepped(config: &DistConfig, raw: &[(bool, f64)]) -> DistReport {
    let mut session = DistSession::new(config, DocModel::synthetic(config.relays));
    for &(produced, offset) in raw {
        session.step_hour(produced.then_some(offset).into());
    }
    session.into_report()
}

fn placement_from(index: u8) -> CachePlacement {
    match index % 5 {
        0 => CachePlacement::Uniform,
        1 => CachePlacement::ClientWeighted,
        2 => CachePlacement::Authorities,
        3 => CachePlacement::Spread,
        _ => CachePlacement::SingleRegion(Region::Europe),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Region-weighted fleet stepping conserves client counts: for any
    /// timeline, seed and placement, every cohort ends with exactly its
    /// initial share plus its own arrivals (clients never migrate or
    /// vanish), the initial shares cover the whole configured fleet,
    /// and the cohort weights cover the population.
    #[test]
    fn region_stepping_conserves_clients(
        raw in proptest::collection::vec((any::<bool>(), 0f64..3_000.0), 1..5),
        seed in 0u64..1_000,
        clients in 10_000u64..100_000,
        placement_index in 0u8..5,
    ) {
        let config = DistConfig {
            seed,
            clients,
            n_caches: 12,
            placement: placement_from(placement_index),
            client_regions: ClientRegions::TorMetrics,
            ..DistConfig::default()
        };
        let report = stepped(&config, &raw);
        let fleet = &report.fleet;
        prop_assert_eq!(fleet.regions.len(), 4);

        let initial: u64 = fleet.regions.iter().map(|r| r.initial_clients).sum();
        prop_assert_eq!(initial, clients, "largest remainder loses nobody");
        let weight: f64 = fleet.regions.iter().map(|r| r.weight).sum();
        prop_assert!((weight - 1.0).abs() < 1e-9);
        for region in &fleet.regions {
            prop_assert_eq!(
                region.final_clients,
                region.initial_clients + region.arrivals,
                "cohort {} must conserve clients",
                region.region
            );
            prop_assert!(
                region.bootstrap_successes <= region.bootstrap_attempts,
                "successes cannot exceed attempts"
            );
        }
    }

    /// Every per-region breakdown sums to the aggregate it refines: the
    /// hourly rows' integer fields, the whole-horizon summaries, and
    /// the cross-check between the two.
    #[test]
    fn region_breakdowns_sum_to_aggregates(
        raw in proptest::collection::vec((any::<bool>(), 0f64..3_000.0), 1..5),
        seed in 0u64..1_000,
        brownout in any::<bool>(),
        placement_index in 0u8..5,
    ) {
        // A regional brownout stresses the asymmetric paths.
        let link_windows = if brownout {
            vec![LinkWindow {
                node: TierNode::Region(Region::Europe),
                start_secs: 3_600.0,
                duration_secs: ((raw.len() + 1) * 3_600) as f64,
                bps: 0.0,
            }]
        } else {
            Vec::new()
        };
        let config = DistConfig {
            seed,
            clients: 40_000,
            n_caches: 12,
            link_windows,
            placement: placement_from(placement_index),
            client_regions: ClientRegions::TorMetrics,
            ..DistConfig::default()
        };
        let report = stepped(&config, &raw);
        let fleet = &report.fleet;

        // Hourly rows: every integer field is the sum of its slices.
        for row in &fleet.rows {
            prop_assert_eq!(row.regions.len(), 4);
            let sum = |f: fn(&partialtor_dirdist::RegionHourSlice) -> u64| {
                row.regions.iter().map(f).sum::<u64>()
            };
            prop_assert_eq!(sum(|s| s.bootstrap_attempts), row.bootstrap_attempts);
            prop_assert_eq!(sum(|s| s.bootstrap_successes), row.bootstrap_successes);
            prop_assert_eq!(sum(|s| s.refresh_fetches), row.refresh_fetches);
            prop_assert_eq!(sum(|s| s.cache_egress_bytes), row.cache_egress_bytes);
            prop_assert_eq!(sum(|s| s.descriptor_egress_bytes), row.descriptor_egress_bytes);
            prop_assert_eq!(sum(|s| s.request_bytes), row.request_bytes);
        }

        // Whole-horizon summaries: the same, against the report fields.
        let sum = |f: fn(&partialtor_dirdist::RegionSummary) -> u64| {
            fleet.regions.iter().map(f).sum::<u64>()
        };
        prop_assert_eq!(sum(|r| r.cache_egress_bytes), fleet.cache_egress_bytes);
        prop_assert_eq!(sum(|r| r.descriptor_egress_bytes), fleet.descriptor_egress_bytes);
        let row_attempts: u64 = fleet.rows.iter().map(|r| r.bootstrap_attempts).sum();
        prop_assert_eq!(sum(|r| r.bootstrap_attempts), row_attempts);
        let row_requests: u64 = fleet.rows.iter().map(|r| r.request_bytes).sum();
        prop_assert_eq!(sum(|r| r.request_bytes), row_requests);

        // Summary egress equals the rows' egress (both refine the same
        // totals), and the per-region hourly slices cross-check the
        // per-region summaries.
        for (index, region) in fleet.regions.iter().enumerate() {
            let hourly: u64 = fleet
                .rows
                .iter()
                .map(|row| row.regions[index].cache_egress_bytes)
                .sum();
            prop_assert_eq!(hourly, region.cache_egress_bytes);
        }

        // The aggregate downtime is the population-weighted blend of
        // the cohort downtimes up to per-step population shifts: it
        // must sit inside the cohort min/max envelope.
        let min = fleet
            .regions
            .iter()
            .map(|r| r.client_weighted_downtime)
            .fold(f64::INFINITY, f64::min);
        let max = fleet
            .regions
            .iter()
            .map(|r| r.client_weighted_downtime)
            .fold(0.0, f64::max);
        prop_assert!(fleet.client_weighted_downtime >= min - 1e-9);
        prop_assert!(fleet.client_weighted_downtime <= max + 1e-9);
    }
}
