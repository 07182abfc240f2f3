//! `partialtor-dirdist` — the directory *distribution* layer.
//!
//! The protocol crates decide whether the nine authorities can produce a
//! consensus under attack; this crate models what happens *downstream*,
//! where the paper's headline claim actually lives: directory caches
//! fetching each new document (full, or a proposal-140
//! [`ConsensusDiff`](partialtor_tordoc::ConsensusDiff) when they hold a
//! recent predecessor) from the authorities over `simnet` links, and
//! client fleets — millions of users, aggregated into cohorts so no
//! per-client object ever exists — bootstrapping, refreshing on the
//! staggered Tor schedule, and falling off the network when their
//! document passes `valid-until`.
//!
//! The primary API is the hour-stepped co-simulation session:
//!
//! 1. [`DistSession::new`] — a live cache tier ([`cachesim`]), a cohort
//!    fleet ([`fleet`]) and a growing per-version size table
//!    ([`DocTable`]) under one clock;
//! 2. [`DistSession::step_hour`] — one hour of the §2.1 timeline:
//!    the hour's publication and monitor alerts ([`HourInput`]) in,
//!    [`HourReport`] out, and (with
//!    [`DistConfig::feedback`] on) the fleet's realized egress charged
//!    to the *next* hour's links — the fetch-storm feedback loop end to
//!    end;
//! 3. [`DistSession::into_report`] — the end-to-end [`DistReport`]:
//!    client-visible availability and the egress arithmetic (with vs.
//!    without diffs) that makes authorities DDoS targets in the first
//!    place.
//!
//! # Examples
//!
//! ```
//! use partialtor_dirdist::{DistConfig, DistSession, DocModel, HourInput};
//!
//! let config = DistConfig {
//!     clients: 50_000,
//!     n_caches: 10,
//!     feedback: true,
//!     ..DistConfig::default()
//! };
//! let mut session = DistSession::new(&config, DocModel::synthetic(config.relays));
//! let hour1 = session.step_hour(HourInput::produced(330.0));
//! let hour2 = session.step_hour(HourInput::failed());
//! assert_eq!(hour1.published_version, Some(1));
//! assert_eq!(hour2.published_version, None);
//! let report = session.into_report();
//! assert!(report.feedback.enabled);
//! ```

pub mod attribution;
pub mod cachesim;
pub mod churn;
pub mod docmodel;
pub mod fetchmix;
pub mod fleet;
pub mod placement;
pub mod session;
pub mod stats;
pub mod timeline;

pub use attribution::{AttributionRollup, CauseParts, HourAttribution};
pub use cachesim::{
    CacheSimConfig, CacheTier, CacheTierReport, LinkWindow, ServeSizes, TierHourTraffic, TierNode,
    VersionAvailability, AUTHORITY_LINK_BPS, CACHE_LINK_BPS,
};
pub use churn::ChurnSchedule;
pub use docmodel::{
    consensus_size_bytes, descriptors_size_bytes, DocClass, DocModel, DocTable, ResponseSize,
};
pub use fetchmix::{BootstrapClass, FetchMix, RefreshClass};
pub use fleet::{
    FetchTransition, FleetConfig, FleetHourRow, FleetReport, FleetSim, RegionHourSlice,
    RegionSummary, VersionCount,
};
pub use placement::{
    client_weighted_latency_ms, cohort_fetch_latency_ms, region_label, serving_caches,
    CachePlacement, ClientRegions,
};
pub use session::{
    per_cache_service_budget_bytes, AlertNote, CohortPlacement, DistSession, FeedbackSummary,
    HourInput, HourReport, LatencySummary, PlacementSummary, RegionCacheCount, TelemetrySummary,
};
pub use timeline::{ConsensusTimeline, Publication};

use serde::Serialize;

/// Consensus freshness lifetime, seconds from the nominal hour.
pub const FRESH_SECS: u64 = 3_600;

/// Consensus validity lifetime, seconds from the nominal hour: three
/// hours, after which sustained production failure halts the Tor
/// network (§2.1). [`DistConfig::valid_secs`] defaults to it.
pub const VALID_SECS: u64 = 3 * 3_600;

/// Diff window: bases older than this many hours get full documents.
pub const RETAIN_HOURS: u64 = 3;

/// Fraction of clients that still fetch directly from authorities
/// (legacy behaviour); their load lands on authority links as
/// aggregate background traffic.
pub const DIRECT_FETCH_FRACTION: f64 = 0.01;

/// Configuration of one end-to-end distribution simulation.
#[derive(Clone, Debug)]
pub struct DistConfig {
    /// Seed for the cache tier and fleet samplers.
    pub seed: u64,
    /// Client fleet size.
    pub clients: u64,
    /// Relay population (drives document sizes).
    pub relays: u64,
    /// Directory authorities serving the cache tier.
    pub n_authorities: usize,
    /// Directory caches.
    pub n_caches: usize,
    /// Hourly relay churn driving diff sizes: constant, or the Fig. 6
    /// weekly series for multi-day horizons.
    pub churn: ChurnSchedule,
    /// Capacity overrides on authority and cache links during the
    /// horizon — DDoS windows lowered from the typed adversary model
    /// upstream (`partialtor::adversary::AttackPlan::dist_windows`). The
    /// session's only window path: the tier applies them when it is
    /// built.
    pub link_windows: Vec<LinkWindow>,
    /// Closes the §2.1 fetch-feedback loop: each hour's realized fleet
    /// egress (bootstrap storms included) becomes the next hour's
    /// background load on cache and authority links. After a long
    /// outage the loop can lock into a two-hour cycle: an hour that
    /// serves its whole budget leaves the next hour's cache uplinks
    /// fully loaded and its budget zero, so the fleet never recovers.
    pub feedback: bool,
    /// Where the directory caches live: the default
    /// [`CachePlacement::Uniform`] keeps the legacy flat worldwide hop;
    /// regional placements pay the geo model's inter-region latencies
    /// and scope each cohort's availability to its serving caches.
    pub placement: CachePlacement,
    /// How the client fleet is split into regional cohorts: the default
    /// [`ClientRegions::Worldwide`] is the legacy single cohort;
    /// [`ClientRegions::TorMetrics`] weights four regional cohorts by
    /// the Tor client population.
    pub client_regions: ClientRegions,
    /// Consensus validity lifetime, seconds from the nominal hour.
    pub valid_secs: u64,
    /// Per-client fetch rate limit, expressed as a multiplier (≥ 1.0)
    /// on the fleet's bootstrap-retry and refresh-spread intervals —
    /// the defender's "back off, clients" lever. The default `1.0` is
    /// bit-identical to the pre-defense fleet.
    pub fetch_rate_scale: f64,
    /// Compute the per-hour counterfactual blame decomposition of
    /// client-weighted downtime ([`attribution`]). Observational: the
    /// ladder replays cloned fleets after each real hour has stepped,
    /// so turning it on leaves every existing report field bit-identical
    /// (a test pins this). Off by default — each hour costs at most
    /// four extra fleet replays, and none once the hour's downtime is
    /// explained, so healthy hours cost none.
    pub attribution: bool,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            seed: 1,
            clients: 3_000_000,
            relays: 8_000,
            n_authorities: 9,
            n_caches: 200,
            churn: ChurnSchedule::default(),
            link_windows: Vec::new(),
            feedback: false,
            placement: CachePlacement::Uniform,
            client_regions: ClientRegions::Worldwide,
            valid_secs: VALID_SECS,
            fetch_rate_scale: 1.0,
            attribution: false,
        }
    }
}

impl DistConfig {
    /// Aggregate load the direct-fetching slice of the fleet puts on
    /// *each* authority uplink, bits/s — computed from the two document
    /// classes rather than calibrated: one full consensus plus the
    /// churned relays' descriptors per such client per hour, spread
    /// over the authorities.
    pub fn direct_client_load_bps(&self) -> f64 {
        let direct = self.clients as f64 * DIRECT_FETCH_FRACTION;
        let churn = self.churn.churn_at(1).clamp(0.0, 1.0);
        let per_client = consensus_size_bytes(self.relays) as f64
            + descriptors_size_bytes(self.relays) as f64 * churn;
        direct * per_client * 8.0 / 3_600.0 / self.n_authorities.max(1) as f64
    }
}

/// End-to-end result: what the authorities served, what the caches held,
/// and what the clients saw. Its JSON keys are its fields, in this order.
#[derive(Clone, Debug, Serialize)]
pub struct DistReport {
    /// Per-hour reports, hour 0 first (fleet rows, fetch-latency
    /// percentiles, tier traffic signatures, background loads).
    pub hours: Vec<HourReport>,
    /// Session-wide telemetry rollup (always collected; CLI flags only
    /// control whether it is exported).
    pub telemetry: TelemetrySummary,
    /// Whole-run downtime blame rollup; `Some` only when
    /// [`DistConfig::attribution`] was on. Its parts sum bit-exactly to
    /// `fleet.client_weighted_downtime`.
    pub attribution: Option<AttributionRollup>,
    /// Cache-tier outcome (authority-side egress, per-version
    /// availability).
    pub cache: CacheTierReport,
    /// Client-fleet outcome (bootstrap success, staleness, cache-side
    /// egress, per-region breakdowns).
    pub fleet: FleetReport,
    /// Geographic summary: placement strategy, caches per region, and
    /// the client-weighted fetch latency the layout implies.
    pub placement: PlacementSummary,
    /// Feedback-loop summary (background loads the session applied).
    pub feedback: FeedbackSummary,
}

#[cfg(test)]
mod tests {
    use super::*;
    use partialtor_tordoc::prelude::*;

    /// Steps a fresh session with the synthetic document model through
    /// `outcomes` (hour 1 first) and closes it.
    pub(crate) fn stepped(config: &DistConfig, outcomes: &[Option<f64>]) -> DistReport {
        let mut session = DistSession::new(config, DocModel::synthetic(config.relays));
        for &outcome in outcomes {
            session.step_hour(outcome.into());
        }
        session.into_report()
    }

    fn attacked_hourly(hours: u64, produced: bool) -> Vec<Option<f64>> {
        (0..hours).map(|_| produced.then_some(360.0)).collect()
    }

    fn hourly_attacks(hours: u64) -> Vec<LinkWindow> {
        (1..=hours)
            .flat_map(|h| {
                (0..5).map(move |i| LinkWindow {
                    node: TierNode::Authority(i),
                    start_secs: (h * 3600) as f64,
                    duration_secs: 300.0,
                    bps: 0.5e6,
                })
            })
            .collect()
    }

    #[test]
    fn surviving_protocol_keeps_clients_online_under_attack() {
        let outcomes = attacked_hourly(6, true);
        let config = DistConfig {
            clients: 200_000,
            n_caches: 40,
            link_windows: hourly_attacks(6),
            ..DistConfig::default()
        };
        let report = stepped(&config, &outcomes);
        assert!(report.fleet.bootstrap_success_rate > 0.95);
        assert!(report.fleet.client_weighted_downtime < 0.02);
        assert!(
            report.cache.authority_egress_bytes * 3 < report.cache.authority_egress_full_only_bytes
        );
    }

    #[test]
    fn failing_protocol_strands_clients_three_hours_later() {
        let outcomes = attacked_hourly(6, false);
        let config = DistConfig {
            clients: 200_000,
            n_caches: 40,
            link_windows: hourly_attacks(6),
            ..DistConfig::default()
        };
        let report = stepped(&config, &outcomes);
        assert!(report.fleet.client_weighted_downtime > 0.3);
        assert!(report.fleet.peak_stale_fraction > 0.99);
        let last = report.fleet.rows.last().unwrap();
        assert!(last.dead_fraction > 0.95);
    }

    #[test]
    fn pipeline_is_deterministic_end_to_end() {
        let outcomes = attacked_hourly(3, true);
        let config = DistConfig {
            clients: 150_000,
            n_caches: 30,
            link_windows: hourly_attacks(3),
            ..DistConfig::default()
        };
        let a = stepped(&config, &outcomes);
        let b = stepped(&config, &outcomes);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    /// The geo acceptance pin: the default (unplaced, single worldwide
    /// cohort) configuration must reproduce the *pre-geo* uniform-60 ms
    /// results bit for bit. Every value below was captured from the
    /// seed code before caches had placements; the worldwide hop is now
    /// derived from the geo latency matrix instead of hard-coded, and
    /// this test is the proof nothing moved.
    ///
    /// "All caches in the same region" is realized here as every cache
    /// sharing the *worldwide* placement (region `None`): that is the
    /// only same-placement layout consistent with the legacy flat
    /// 60 ms hop — a geo-true single-region tier (e.g. all-Europe) is
    /// deliberately *faster* than the old constant, because its caches
    /// really do sit next to their regional authorities
    /// (`cachesim::tests::placed_tier_caches_faster_than_the_worldwide_one`).
    #[test]
    fn uniform_placement_reproduces_the_pre_geo_results_bit_for_bit() {
        let outcomes = [Some(330.0), None, Some(400.0)];
        let config = DistConfig {
            clients: 120_000,
            n_caches: 25,
            link_windows: hourly_attacks(3),
            ..DistConfig::default()
        };
        assert_eq!(config.placement, CachePlacement::Uniform);
        assert_eq!(config.client_regions, ClientRegions::Worldwide);
        let report = stepped(&config, &outcomes);

        assert_eq!(report.fleet.client_weighted_downtime, 3.4720717660104904e-7);
        assert_eq!(report.fleet.bootstrap_success_rate, 0.9989821882951654);
        assert_eq!(report.fleet.mean_stale_fraction, 0.5663067650472711);
        assert_eq!(report.fleet.peak_stale_fraction, 1.0);
        assert_eq!(report.fleet.cache_egress_bytes, 53_779_206_144);
        assert_eq!(report.fleet.cache_egress_full_only_bytes, 523_858_735_104);
        assert_eq!(report.fleet.descriptor_egress_bytes, 61_364_560_000);
        assert_eq!(report.cache.authority_egress_bytes, 72_140_800);
        assert_eq!(report.cache.authority_egress_full_only_bytes, 193_228_800);
        assert_eq!(report.cache.authority_descriptor_egress_bytes, 106_000_000);
        assert_eq!(report.cache.full_responses, 25);
        assert_eq!(report.cache.diff_responses, 50);
        let cached: Vec<Option<f64>> = report
            .cache
            .versions
            .iter()
            .map(|v| v.cached_at_secs)
            .collect();
        assert_eq!(
            cached,
            vec![Some(78.857256), Some(3986.140598), Some(11262.161045)]
        );
        let last = report.fleet.rows.last().unwrap();
        assert_eq!(last.bootstrap_attempts, 9_493);
        assert_eq!(last.refresh_fetches, 82_791);
        assert_eq!(last.stale_fraction, 0.6380610476131019);
        // The derived placement summary tells the legacy story in the
        // new vocabulary: every cache unplaced, one worldwide cohort at
        // the flat 60 ms hop.
        assert_eq!(report.placement.client_weighted_latency_ms, 60.0);
        assert_eq!(report.placement.cohorts.len(), 1);
        assert_eq!(report.placement.cohorts[0].serving_caches, 25);
        assert_eq!(report.fleet.regions.len(), 1);
        assert_eq!(report.fleet.regions[0].region, "worldwide");
    }

    /// Real `tordoc` documents flow through the whole pipeline: the
    /// cache tier serves genuine `ConsensusDiff`s whose sizes come from
    /// verified reconstructions.
    #[test]
    fn real_documents_drive_the_pipeline() {
        let population = generate_population(&PopulationConfig { seed: 8, count: 80 });
        let committee = AuthoritySet::with_size(8, 9);
        let docs: Vec<Consensus> = (0..4u64)
            .map(|h| {
                let subset = &population[(h as usize)..];
                let votes: Vec<Vote> = committee
                    .iter()
                    .map(|auth| {
                        let view = authority_view(subset, auth.id, 8, &ViewConfig::default());
                        Vote::new(
                            VoteMeta::standard(
                                auth.id,
                                &auth.name,
                                auth.fingerprint_hex(),
                                3_600 * (h + 1),
                            ),
                            view,
                        )
                    })
                    .collect();
                let refs: Vec<&Vote> = votes.iter().collect();
                aggregate(&refs)
            })
            .collect();
        let model = DocModel::from_consensuses(&docs, 3);
        let config = DistConfig {
            clients: 50_000,
            n_caches: 20,
            relays: 80,
            ..DistConfig::default()
        };
        let mut session = DistSession::new(&config, model);
        for outcome in attacked_hourly(3, true) {
            session.step_hour(outcome.into());
        }
        let report = session.into_report();
        assert!(report.cache.diff_responses > 0, "real diffs must be served");
        assert!(report.fleet.bootstrap_success_rate > 0.9);
    }
}
