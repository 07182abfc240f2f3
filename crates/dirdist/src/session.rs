//! The hour-stepped distribution session: the crate's primary API.
//!
//! The paper's §2.1 fetch-storm dynamics are a feedback loop — outages
//! create bootstrap retry storms whose load worsens the next hour's
//! outage — which a batch pipeline (whole cache horizon, then whole
//! fleet horizon) cannot express: hour *h*'s client load can never
//! reach hour *h + 1*'s links. [`DistSession`] closes the loop by
//! interleaving the two tiers per hour:
//!
//! 1. the driver calls [`DistSession::step_hour`] with that hour's
//!    [`HourInput`] — whether the protocol produced a consensus, and
//!    the health monitor's alerts on that run;
//! 2. the session's private `publish` stage grows its [`DocTable`]
//!    (diff sizes driven by the churn accumulated between base and
//!    target) and injects the publication into the live cache tier,
//!    which then advances to the end of the hour;
//! 3. the private `close_hour` stage steps the cohort fleet over the
//!    same hour against the tier's availability as of that hour's end,
//!    runs the blame ladder when attribution is on, and — with
//!    feedback enabled — charges the fleet's *realized* egress,
//!    bootstrap retry storms included, as the *next* hour's background
//!    load on cache and authority links.
//!
//! Opening a session runs the same two stages for hour 0, the
//! baseline. [`DistSession::into_report`] drains the tier and returns
//! the end-to-end [`DistReport`].

use crate::attribution::{self, HourAttribution, LadderContext};
use crate::cachesim::{
    CacheSimConfig, CacheTier, LinkWindow, ServeSizes, TierHourTraffic, TierNode, CACHE_LINK_BPS,
};
use crate::docmodel::{DocModel, DocTable};
use crate::fleet::{FleetConfig, FleetHourRow, FleetSim};
use crate::placement::{
    client_weighted_latency_ms, cohort_fetch_latency_ms, region_label, serving_caches,
};
use crate::timeline::Publication;
use crate::{DistConfig, DistReport, DIRECT_FETCH_FRACTION, FRESH_SECS, RETAIN_HOURS};
use partialtor_obs::{Histogram, SpanId, TraceEvent, Tracer};
use partialtor_simnet::geo::REGIONS;
use serde::Serialize;

/// A health-monitor alert handed into a stepped hour. The monitor lives
/// upstream (it watches protocol runs, which this crate never sees), so
/// the session takes its verdicts as plain notes: each one becomes a
/// structured trace event and counts toward its hour's
/// [`HourReport::alerts`], keeping alerting on the same timeline as the
/// distribution telemetry it explains.
#[derive(Clone, Debug)]
pub struct AlertNote {
    /// Severity label (`critical`, `warning` or `notice`).
    pub severity: &'static str,
    /// Stable alert kind (e.g. `consensus_failure`).
    pub kind: String,
    /// Human-readable description.
    pub message: String,
}

/// One hour's input to a stepped session.
#[derive(Clone, Debug, Default)]
pub struct HourInput {
    /// Offset into the hour (seconds) at which this hour's protocol run
    /// produced a consensus, or `None` when the run failed.
    pub publication: Option<f64>,
    /// Health alerts the driver's monitor raised for this hour.
    pub alerts: Vec<AlertNote>,
}

impl HourInput {
    /// An hour whose run produced a consensus `offset_secs` into the
    /// hour.
    pub fn produced(offset_secs: f64) -> Self {
        HourInput {
            publication: Some(offset_secs),
            ..HourInput::default()
        }
    }

    /// An hour whose run failed.
    pub fn failed() -> Self {
        HourInput::default()
    }
}

/// An hour's protocol outcome alone: [`HourInput::produced`] at the
/// offset, or [`HourInput::failed`].
impl From<Option<f64>> for HourInput {
    fn from(publication: Option<f64>) -> Self {
        HourInput {
            publication,
            ..HourInput::default()
        }
    }
}

/// Which flooded layers the applied link windows implicate for `hour`'s
/// attribution ladder: a window matters if it overlaps
/// `[hour_start - valid_secs, hour_end)` — link damage up to one
/// validity horizon back can still be starving this hour's clients.
/// Returns `(authority_flooded, cache_flooded)`.
fn window_flags(windows: &[LinkWindow], hour: u64, valid_secs: u64) -> (bool, bool) {
    let start = (hour * 3_600) as f64 - valid_secs as f64;
    let end = ((hour + 1) * 3_600) as f64;
    let mut authority = false;
    let mut cache = false;
    for w in windows {
        if w.start_secs < end && w.start_secs + w.duration_secs > start {
            match w.node {
                TierNode::Authority(_) => authority = true,
                TierNode::Cache(_) | TierNode::Region(_) => cache = true,
            }
        }
    }
    (authority, cache)
}

/// Percentile summary of one latency histogram, seconds.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct LatencySummary {
    /// Observations behind the percentiles.
    pub count: u64,
    /// Median, seconds.
    pub p50_secs: f64,
    /// 90th percentile, seconds.
    pub p90_secs: f64,
    /// 99th percentile, seconds.
    pub p99_secs: f64,
    /// Mean, seconds.
    pub mean_secs: f64,
    /// Fastest observation, seconds.
    pub min_secs: f64,
    /// Slowest observation, seconds.
    pub max_secs: f64,
}

impl LatencySummary {
    /// Summarizes a histogram; `None` when it holds no observations.
    pub fn from_histogram(hist: &Histogram) -> Option<Self> {
        let nonempty = "guarded by count > 0";
        (hist.count() > 0).then(|| LatencySummary {
            count: hist.count(),
            p50_secs: hist.p50().expect(nonempty),
            p90_secs: hist.p90().expect(nonempty),
            p99_secs: hist.p99().expect(nonempty),
            mean_secs: hist.mean_secs().expect(nonempty),
            min_secs: hist.min_secs().expect(nonempty),
            max_secs: hist.max_secs().expect(nonempty),
        })
    }
}

/// What one stepped hour looked like.
#[derive(Clone, Debug, Serialize)]
pub struct HourReport {
    /// The hour index.
    pub hour: u64,
    /// Version published this hour, if the run produced one.
    pub published_version: Option<usize>,
    /// Newest version the cache tier held (at quorum) by the end of the
    /// hour.
    pub newest_cached_version: Option<usize>,
    /// The fleet's hour row (client-visible outcomes and egress; the
    /// JSON leaves it to the report's `fleet.rows`).
    #[serde(skip)]
    pub fleet: FleetHourRow,
    /// Background load on each authority uplink during this hour,
    /// bits/s (legacy direct fetchers plus, with feedback on, the
    /// previous hour's realized storm traffic).
    pub authority_bg_bps: f64,
    /// Feedback background load on each cache uplink during this hour,
    /// bits/s (zero with feedback off).
    pub cache_bg_bps: f64,
    /// Publication → cache fetch latency for documents received this
    /// hour; `None` when nothing was fetched.
    pub fetch_latency: Option<LatencySummary>,
    /// Tier wire activity during the hour.
    pub tier_traffic: TierHourTraffic,
    /// Health alerts the driver raised for the hour.
    pub alerts: u64,
    /// Blame decomposition of the hour's `fleet.dead_fraction`; `Some`
    /// only when [`DistConfig::attribution`] is on (its parts sum to
    /// the dead fraction bit-exactly).
    pub attribution: Option<HourAttribution>,
}

/// Session-wide telemetry rollup. Each field is read from the one
/// place that counts it.
#[derive(Clone, Debug, Serialize)]
pub struct TelemetrySummary {
    /// Cache fetch attempts (first polls and retries): the engine's
    /// `DIR_REQ` count, one request per attempt.
    pub fetch_attempts: u64,
    /// Retries among the attempts, from the caches' fetch record.
    pub fetch_retries: u64,
    /// Versions a cache gave up on after exhausting its retries, from
    /// the caches' fetch record.
    pub fetch_timeouts: u64,
    /// Health alerts raised over the session: the sum of
    /// [`HourReport::alerts`].
    pub alerts: u64,
    /// Engine events that arrived dead over the whole session.
    pub expired_events: u64,
    /// Trace events the ring buffer dropped (oldest-first) over the
    /// session — nonzero means the exported trace is a suffix, never a
    /// silent gap.
    pub trace_dropped: u64,
    /// Publication → cache fetch latency over the whole session: the
    /// exact merge of the fetch record's per-hour histograms, the drain
    /// after the last hour included.
    pub fetch_latency: Option<LatencySummary>,
}

/// One regional cohort's placement-derived view of the tier.
#[derive(Clone, Debug, Serialize)]
pub struct CohortPlacement {
    /// Cohort region label (`worldwide` for the unplaced cohort).
    pub region: String,
    /// Population fraction of the cohort.
    pub weight: f64,
    /// Caches serving the cohort (its own region's caches, or the
    /// whole tier as fallback).
    pub serving_caches: usize,
    /// Mean one-way fetch latency against the serving caches, ms.
    pub fetch_latency_ms: f64,
}

/// How many caches the placement put in one region.
#[derive(Clone, Debug, Serialize)]
pub struct RegionCacheCount {
    /// Region label (`worldwide` for unplaced caches).
    pub region: String,
    /// Caches placed there.
    pub caches: usize,
}

/// The geographic story of one session: where the caches went, and
/// what latency each client cohort pays for it.
#[derive(Clone, Debug, Serialize)]
pub struct PlacementSummary {
    /// Placement strategy label.
    pub strategy: String,
    /// The headline metric: expected one-way fetch latency of a random
    /// client, over cohorts weighted by population share, ms.
    pub client_weighted_latency_ms: f64,
    /// Caches per region under the placement.
    pub cache_counts: Vec<RegionCacheCount>,
    /// Per-cohort serving sets and latencies.
    pub cohorts: Vec<CohortPlacement>,
}

/// Summary of the feedback loop over a whole session.
#[derive(Clone, Debug, Serialize)]
pub struct FeedbackSummary {
    /// Whether fetch feedback was enabled.
    pub enabled: bool,
    /// Time-mean background load per authority uplink, bits/s.
    pub mean_authority_bg_bps: f64,
    /// Worst single-hour background load per authority uplink, bits/s.
    pub peak_authority_bg_bps: f64,
    /// Time-mean feedback load per cache uplink, bits/s.
    pub mean_cache_bg_bps: f64,
    /// Worst single-hour feedback load per cache uplink, bits/s.
    pub peak_cache_bg_bps: f64,
}

/// The payload *one* directory cache can serve clients in one hour,
/// bytes: its uplink rate ([`CACHE_LINK_BPS`]) minus the background
/// load already charged to it, integrated over the hour. This is the per-cache service-budget
/// *assumption* every simulated number rests on — exported so the real
/// serving path (`partialtor-dircached`'s `dirload --budget-check`) can
/// measure a daemon's achieved bytes/hour on real sockets and print the
/// ratio against it.
pub fn per_cache_service_budget_bytes(cache_bg_bps: f64) -> u64 {
    ((CACHE_LINK_BPS - cache_bg_bps).max(0.0) / 8.0 * 3_600.0) as u64
}

/// The payload the cache tier can still serve clients in one hour,
/// bytes: the cache uplinks' aggregate capacity minus the background
/// load already charged to them. This is the second half of the closed
/// loop — last hour's storm not only loads the links, it bounds what
/// this hour's clients can fetch through them.
fn service_budget_bytes(config: &DistConfig, cache_bg_bps: f64) -> u64 {
    // Kept as one float expression (not n_caches × the per-cache
    // helper): the truncation order here is pinned by feedback-on
    // session results.
    let per_link = (CACHE_LINK_BPS - cache_bg_bps).max(0.0);
    (per_link / 8.0 * 3_600.0 * config.n_caches as f64) as u64
}

/// The hour-stepped co-simulation of the whole distribution layer.
///
/// The session is the one owner of per-hour history: the tier and the
/// fleet below it keep live state only, and every whole-run figure
/// that is a sum over hours is folded from `hour_reports`.
pub struct DistSession {
    config: DistConfig,
    model: DocModel,
    table: DocTable,
    tier: CacheTier,
    fleet: FleetSim,
    /// One serving-cache set per client cohort, fixed by the placement.
    serving_sets: Vec<Vec<usize>>,
    placement: PlacementSummary,
    publications: Vec<Publication>,
    cum_churn: f64,
    /// Background load in effect during the current hour:
    /// `(authority, cache_up)` bits/s.
    current_bg: (f64, f64),
    /// Every processed hour, hour 0 first; its length is the next hour
    /// [`DistSession::step_hour`] will process.
    hour_reports: Vec<HourReport>,
    /// Shared with the tier's nodes; the session adds its own events
    /// (hour summaries, health alerts).
    tracer: Tracer,
    /// Cumulative tier traffic as of the end of the previous hour, for
    /// per-hour deltas.
    prev_traffic: TierHourTraffic,
}

impl DistSession {
    /// Opens a session: builds the cache tier (with the up-front
    /// [`DistConfig::link_windows`] applied), publishes the baseline
    /// pre-attack consensus at `t = 0`, and processes hour 0 — the hour
    /// in which only the baseline exists. Subsequent hours are driven
    /// by [`DistSession::step_hour`].
    pub fn new(config: &DistConfig, model: DocModel) -> Self {
        DistSession::with_telemetry(config, model, Tracer::disabled())
    }

    /// [`DistSession::new`] with a structured trace sink. Tracing is
    /// purely observational, so a traced session produces bit-identical
    /// reports to an untraced one (a test pins this).
    pub fn with_telemetry(config: &DistConfig, model: DocModel, tracer: Tracer) -> Self {
        let cache_config = CacheSimConfig {
            seed: config.seed,
            n_authorities: config.n_authorities,
            n_caches: config.n_caches,
            direct_client_load_bps: config.direct_client_load_bps(),
            link_windows: config.link_windows.clone(),
            placement: config.placement.clone(),
            ..CacheSimConfig::default()
        };
        let tier = CacheTier::new(&cache_config, tracer.clone());

        // The placement decides which caches each cohort fetches from,
        // and with it the latency story of the whole session.
        let cache_regions = tier.cache_regions().to_vec();
        let cohorts = config.client_regions.cohorts();
        let serving_sets: Vec<Vec<usize>> = cohorts
            .iter()
            .map(|&(region, _)| serving_caches(&cache_regions, region))
            .collect();
        let placement = PlacementSummary {
            strategy: config.placement.label(),
            cache_counts: std::iter::once(None)
                .chain(REGIONS.iter().copied().map(Some))
                .map(|region| RegionCacheCount {
                    region: region_label(region).to_string(),
                    caches: cache_regions.iter().filter(|&&r| r == region).count(),
                })
                .filter(|count| count.caches > 0)
                .collect(),
            client_weighted_latency_ms: client_weighted_latency_ms(&cache_regions, &cohorts),
            cohorts: cohorts
                .iter()
                .zip(&serving_sets)
                .map(|(&(region, weight), serving)| CohortPlacement {
                    region: region_label(region).to_string(),
                    weight,
                    serving_caches: serving.len(),
                    fetch_latency_ms: cohort_fetch_latency_ms(&cache_regions, region),
                })
                .collect(),
        };

        // The defender's rate-limit lever stretches both client fetch
        // intervals; ×1.0 is bit-identical to the pre-defense fleet.
        let rate_scale = config.fetch_rate_scale.max(1.0);
        let mut fleet_config = FleetConfig {
            regions: config.client_regions.clone(),
            ..FleetConfig::sized(config.clients, config.seed ^ 0x0005_eedf_1ee7)
        };
        fleet_config.bootstrap_retry_secs *= rate_scale;
        fleet_config.refresh_spread_secs *= rate_scale;
        let mut session = DistSession {
            config: config.clone(),
            model,
            table: DocTable::new(),
            tier,
            fleet: FleetSim::new(&fleet_config),
            serving_sets,
            placement,
            publications: Vec::new(),
            cum_churn: 0.0,
            current_bg: (cache_config.direct_client_load_bps, 0.0),
            hour_reports: Vec::new(),
            tracer,
            prev_traffic: TierHourTraffic::default(),
        };
        let baseline_span = session.publish(0, 0.0);
        session.tier.run_to(3_600.0);
        session.close_hour(0, None, 0, baseline_span);
        session
    }

    /// Steps one hour: accumulates its churn, traces its alerts,
    /// publishes its consensus (if any), advances
    /// the cache tier to the hour's end and closes the hour — the same
    /// `publish` and `close_hour` stages that opened hour 0.
    pub fn step_hour(&mut self, input: HourInput) -> HourReport {
        let hour = self.hours();
        self.cum_churn += self.config.churn.churn_at(hour).max(0.0);

        for alert in &input.alerts {
            self.tracer.emit(TraceEvent::HealthAlert {
                hour,
                severity: alert.severity,
                kind: alert.kind.clone(),
                message: alert.message.clone(),
            });
        }

        let published_version = input.publication.map(|_| self.publications.len());
        let publication_span = input
            .publication
            .and_then(|offset| self.publish(hour, offset));
        self.tier.run_to(((hour + 1) * 3_600) as f64);
        self.close_hour(
            hour,
            published_version,
            input.alerts.len() as u64,
            publication_span,
        )
    }

    /// Publishes the next version, produced by `hour`'s run
    /// `offset_secs` into the hour: records its [`Publication`], grows
    /// the [`DocTable`] under the churn accumulated so far, and injects
    /// it into the tier. Returns the publication's span when traced.
    fn publish(&mut self, hour: u64, offset_secs: f64) -> Option<SpanId> {
        assert!(
            offset_secs >= 0.0,
            "publication offset must be within the hour"
        );
        let version = self.publications.len();
        let publication = Publication::hourly(
            version,
            hour,
            offset_secs,
            FRESH_SECS,
            self.config.valid_secs,
        );
        self.publications.push(publication);
        self.table
            .push_version(&self.model, hour, self.cum_churn, RETAIN_HOURS);
        let sizes = ServeSizes::for_version(&self.table, version);
        self.tier
            .publish(version, publication.available_at_secs, sizes)
            .recorded()
    }

    /// Closes an hour once the tier has run to its end; hour 0 and every
    /// stepped hour share it. In order: each cohort's serving-set view
    /// of the tier, the service budget under the background load in
    /// effect, the fleet step (with attribution on, the blame ladder
    /// replays it from a pre-hour clone), the realized egress charged to
    /// the next hour's links (with feedback on), the tier traffic delta,
    /// the hour's trace records, and its report.
    fn close_hour(
        &mut self,
        hour: u64,
        published_version: Option<usize>,
        alerts: u64,
        publication_span: Option<SpanId>,
    ) -> HourReport {
        let cached: Vec<Vec<Option<f64>>> = self
            .serving_sets
            .iter()
            .map(|serving| self.tier.cached_at_for(serving))
            .collect();
        let budget = self
            .config
            .feedback
            .then(|| service_budget_bytes(&self.config, self.current_bg.1));
        let fleet_before = self.config.attribution.then(|| self.fleet.clone());
        let row = self
            .fleet
            .step_hour(hour, &self.publications, &self.table, &cached, budget);
        let attribution = fleet_before.map(|before| {
            let (authority_flooded, cache_flooded) =
                window_flags(&self.config.link_windows, hour, self.config.valid_secs);
            attribution::attribute_hour(
                &before,
                row.dead_fraction,
                &LadderContext {
                    hour,
                    publications: &self.publications,
                    table: &self.table,
                    cached: &cached,
                    budget,
                    authority_flooded,
                    cache_flooded,
                },
            )
        });

        let (authority_bg_bps, cache_bg_bps) = self.current_bg;
        let served_bytes = row.cache_egress_bytes + row.descriptor_egress_bytes;
        if self.config.feedback {
            let per = |bytes: u64, links: usize| bytes as f64 * 8.0 / 3_600.0 / links.max(1) as f64;
            let cache_up = per(served_bytes, self.config.n_caches);
            let cache_down = per(row.request_bytes, self.config.n_caches);
            // The legacy direct-fetching slice mirrors the fleet's
            // behaviour per client, so its storm traffic lands on the
            // authorities scaled by the direct fraction — computed from
            // the document classes, not calibrated.
            let authority_feedback =
                per(served_bytes + row.request_bytes, self.config.n_authorities)
                    * DIRECT_FETCH_FRACTION;
            let authority = self.config.direct_client_load_bps() + authority_feedback;
            self.tier.set_background_load(
                ((hour + 1) * 3_600) as f64,
                authority_feedback,
                cache_up,
                cache_down,
            );
            self.current_bg = (authority, cache_up);
        }

        let newest_cached_version = {
            let cached = self.tier.cached_at();
            self.publications
                .iter()
                .rev()
                .find(|p| matches!(cached.get(p.version), Some(Some(_))))
                .map(|p| p.version)
        };
        let totals = self.tier.traffic();
        let tier_traffic = TierHourTraffic {
            dir_requests: totals.dir_requests - self.prev_traffic.dir_requests,
            dir_diff_responses: totals.dir_diff_responses - self.prev_traffic.dir_diff_responses,
            dir_full_responses: totals.dir_full_responses - self.prev_traffic.dir_full_responses,
            dir_not_modified: totals.dir_not_modified - self.prev_traffic.dir_not_modified,
            expired_events: totals.expired_events - self.prev_traffic.expired_events,
        };
        self.prev_traffic = totals;
        let fetch_latency = self
            .tier
            .fetches()
            .latency
            .get(hour as usize)
            .and_then(LatencySummary::from_histogram);
        // The hour summary's cause is the hour's defining upstream
        // event: a near-exhausted service budget when one fired, else
        // the hour's publication.
        let mut hour_cause = publication_span;
        if let Some(budget_bytes) = budget {
            if served_bytes.saturating_mul(100) >= budget_bytes.saturating_mul(99) {
                let saturation = self.tracer.record_caused(
                    TraceEvent::BudgetSaturation {
                        hour,
                        budget_bytes,
                        served_bytes,
                    },
                    publication_span,
                );
                hour_cause = saturation.recorded().or(hour_cause);
            }
        }
        self.tracer.record_caused(
            TraceEvent::HourSummary {
                hour,
                published: published_version.map(|v| v as u64),
                newest_cached: newest_cached_version.map(|v| v as u64),
                bootstrap_attempts: row.bootstrap_attempts,
                refresh_fetches: row.refresh_fetches,
                stale_fraction: row.stale_fraction,
            },
            hour_cause,
        );
        let report = HourReport {
            hour,
            published_version,
            newest_cached_version,
            fleet: row,
            authority_bg_bps,
            cache_bg_bps,
            fetch_latency,
            tier_traffic,
            alerts,
            attribution,
        };
        self.hour_reports.push(report.clone());
        report
    }

    /// Hours processed so far (including hour 0).
    pub fn hours(&self) -> u64 {
        self.hour_reports.len() as u64
    }

    /// The per-hour reports so far (hour 0 first).
    pub fn hour_reports(&self) -> &[HourReport] {
        &self.hour_reports
    }

    /// The publications the session has seen so far.
    pub fn publications(&self) -> &[Publication] {
        &self.publications
    }

    /// The fetch mixes of every hour processed so far (hour 0 first) —
    /// the distribution `dirload` replays against a real daemon.
    pub fn fetch_mixes(&self) -> Vec<crate::FetchMix> {
        self.hour_reports
            .iter()
            .map(|report| crate::FetchMix::from_row(&report.fleet, &self.table, &self.publications))
            .collect()
    }

    /// The session's placement summary (strategy, cache counts, cohort
    /// latencies).
    pub fn placement(&self) -> &PlacementSummary {
        &self.placement
    }

    /// The live cache tier, as of the end of the last processed hour.
    pub fn tier(&self) -> &CacheTier {
        &self.tier
    }

    /// Closes the session: drains the cache tier past the horizon (late
    /// fetches still count toward cache coverage) and folds everything
    /// into the end-to-end report.
    pub fn into_report(mut self) -> DistReport {
        self.tier.run_to((self.hours() * 3_600) as f64 + 1_800.0);
        let hours = self.hours().max(1) as f64;
        let traffic = self.tier.traffic();
        let fetches = self.tier.fetches();
        let mut run_latency = Histogram::new();
        fetches
            .latency
            .iter()
            .for_each(|hour| run_latency.merge(hour));
        let telemetry = TelemetrySummary {
            fetch_attempts: traffic.dir_requests,
            fetch_retries: fetches.retries,
            fetch_timeouts: fetches.timeouts,
            alerts: self.hour_reports.iter().map(|h| h.alerts).sum(),
            expired_events: traffic.expired_events,
            trace_dropped: self.tracer.dropped(),
            fetch_latency: LatencySummary::from_histogram(&run_latency),
        };
        drop(fetches);
        let fleet_report = self
            .fleet
            .report(self.hour_reports.iter().map(|h| h.fleet.clone()).collect());
        // (sum, peak) of one background-load series, folded from 0.0 in
        // hour order: bit for bit what an hourly accumulator produces.
        let sum_peak = |bps: fn(&HourReport) -> f64| {
            self.hour_reports
                .iter()
                .map(bps)
                .fold((0.0, 0.0), |(sum, peak): (f64, f64), x| {
                    (sum + x, peak.max(x))
                })
        };
        let (authority_sum, authority_peak) = sum_peak(|h| h.authority_bg_bps);
        let (cache_sum, cache_peak) = sum_peak(|h| h.cache_bg_bps);
        let attribution = self.config.attribution.then(|| {
            let hour_parts: Vec<HourAttribution> = self
                .hour_reports
                .iter()
                .filter_map(|h| h.attribution)
                .collect();
            attribution::rollup(&hour_parts, fleet_report.client_weighted_downtime)
        });
        DistReport {
            cache: self.tier.report(),
            fleet: fleet_report,
            placement: self.placement,
            feedback: FeedbackSummary {
                enabled: self.config.feedback,
                mean_authority_bg_bps: authority_sum / hours,
                peak_authority_bg_bps: authority_peak,
                mean_cache_bg_bps: cache_sum / hours,
                peak_cache_bg_bps: cache_peak,
            },
            hours: self.hour_reports,
            telemetry,
            attribution,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cachesim::TierNode;
    use crate::tests::stepped;
    use proptest::prelude::*;

    fn five_of_nine_windows(hours: impl Iterator<Item = u64>) -> Vec<LinkWindow> {
        hours
            .flat_map(|h| {
                (0..5).map(move |i| LinkWindow {
                    node: TierNode::Authority(i),
                    start_secs: (h * 3_600) as f64,
                    duration_secs: 300.0,
                    bps: 0.5e6,
                })
            })
            .collect()
    }

    fn config(clients: u64, caches: usize, feedback: bool) -> DistConfig {
        DistConfig {
            clients,
            n_caches: caches,
            feedback,
            ..DistConfig::default()
        }
    }

    /// The acceptance pin: a 24-hour five-of-nine campaign (every run
    /// breached, as the deployed protocol's runs are under the paper's
    /// flood) followed by a recovery tail. With feedback on, the mass
    /// re-bootstrap storm of the dead fleet crushes the links that the
    /// caches need for the *next* hours' fetches, so clients lose
    /// measurably more time — and the authority uplinks carry
    /// measurably more load — than the open-loop run of the identical
    /// campaign.
    #[test]
    fn five_of_nine_retry_storm_amplifies_downtime_and_load() {
        let outcomes: Vec<Option<f64>> = (0..30).map(|h| (h >= 24).then_some(330.0)).collect();
        let windows = five_of_nine_windows(1..=24);

        let run = |feedback: bool| {
            let mut cfg = config(400_000, 40, feedback);
            cfg.link_windows = windows.clone();
            stepped(&cfg, &outcomes)
        };
        let open_loop = run(false);
        let closed_loop = run(true);

        assert!(
            closed_loop.fleet.client_weighted_downtime
                > open_loop.fleet.client_weighted_downtime + 0.01,
            "retry storms must amplify downtime: {} (feedback) vs {} (open loop)",
            closed_loop.fleet.client_weighted_downtime,
            open_loop.fleet.client_weighted_downtime
        );
        assert!(
            closed_loop.feedback.peak_authority_bg_bps
                > open_loop.feedback.peak_authority_bg_bps * 2.0,
            "the storm must land on the authority links: {} vs {}",
            closed_loop.feedback.peak_authority_bg_bps,
            open_loop.feedback.peak_authority_bg_bps
        );
        assert!(closed_loop.feedback.enabled && !open_loop.feedback.enabled);
        assert!(closed_loop.feedback.peak_cache_bg_bps > 0.0);
        // Open loop: recovery is clean — the fleet is back within the
        // tail. Closed loop: the storm stalls at least one later fetch.
        let last_open = open_loop.fleet.rows.last().unwrap();
        assert!(
            last_open.dead_fraction < 0.05,
            "open-loop recovery must complete: {last_open:?}"
        );
    }

    #[test]
    fn feedback_is_quiet_in_a_healthy_steady_state() {
        // No attack, everyone stays on diffs: the feedback load exists
        // but stays far below the cache link rate, and outcomes match
        // the open-loop run closely.
        let outcomes = vec![Some(330.0); 6];
        let closed = stepped(&config(200_000, 30, true), &outcomes);
        let open = stepped(&config(200_000, 30, false), &outcomes);
        assert!(closed.feedback.peak_cache_bg_bps > 0.0);
        assert!(
            closed.feedback.peak_cache_bg_bps < 25e6,
            "steady-state feedback must stay well below the 100 Mbit/s link: {}",
            closed.feedback.peak_cache_bg_bps
        );
        assert!(closed.fleet.client_weighted_downtime < 0.01);
        assert!(open.fleet.client_weighted_downtime < 0.01);
    }

    /// The geographic pipeline end to end: region-placed caches,
    /// Tor-weighted cohorts, and a regional brownout that starves
    /// exactly the browned-out region's clients while the aggregate
    /// availability view stays green.
    #[test]
    fn regional_brownout_hurts_only_its_cohort() {
        use crate::{CachePlacement, ClientRegions};
        use partialtor_simnet::geo::Region;

        let hours = 5u64;
        let mut cfg = config(80_000, 20, false);
        cfg.placement = CachePlacement::ClientWeighted;
        cfg.client_regions = ClientRegions::TorMetrics;
        // Europe's caches go dark from hour 1 to beyond the horizon.
        cfg.link_windows = vec![LinkWindow {
            node: TierNode::Region(Region::Europe),
            start_secs: 3_600.0,
            duration_secs: ((hours + 2) * 3_600) as f64,
            bps: 0.0,
        }];
        let mut session = DistSession::new(&cfg, DocModel::synthetic(2_000));
        for _ in 0..hours {
            let report = session.step_hour(HourInput::produced(330.0));
            assert_eq!(report.fleet.regions.len(), 4, "one slice per cohort");
        }
        let placement = session.placement().clone();
        assert_eq!(placement.strategy, "client-weighted");
        assert!(placement.client_weighted_latency_ms < 30.0);
        let report = session.into_report();

        let by_region = |label: &str| {
            report
                .fleet
                .regions
                .iter()
                .find(|r| r.region == label)
                .expect("cohort exists")
                .clone()
        };
        let europe = by_region("europe");
        let us_east = by_region("us-east");
        // Europe's serving caches hold only the baseline; its clients
        // fall off three hours later. US-East keeps fetching.
        assert!(
            europe.client_weighted_downtime > 0.2,
            "browned-out Europe must fall off: {europe:?}"
        );
        assert!(
            us_east.client_weighted_downtime < 0.01,
            "US-East is untouched: {us_east:?}"
        );
        // The aggregate carries Europe's weight of the damage.
        assert!(report.fleet.client_weighted_downtime > 0.08);
        // Aggregate cache availability never flags the outage — the
        // non-European majority still reaches quorum on every version.
        for version in &report.cache.versions {
            assert!(version.cached_at_secs.is_some());
        }
    }

    /// The pinned telemetry guarantee: a session with tracing enabled
    /// produces a bit-identical report to an untraced one over a
    /// 24-hour five-of-nine campaign — telemetry observes, it never
    /// participates.
    #[test]
    fn traced_session_is_bit_identical_to_untraced() {
        let run = |tracer: Tracer| {
            let mut cfg = config(60_000, 15, true);
            cfg.link_windows = five_of_nine_windows(1..=24);
            let mut session = DistSession::with_telemetry(&cfg, DocModel::synthetic(2_000), tracer);
            for hour in 1..=27u64 {
                let input = if hour <= 24 {
                    HourInput::failed()
                } else {
                    HourInput::produced(330.0)
                };
                session.step_hour(input);
            }
            session.into_report()
        };
        let untraced = run(Tracer::disabled());
        let tracer = Tracer::enabled(1 << 16);
        let traced = run(tracer.clone());
        assert_eq!(format!("{untraced:?}"), format!("{traced:?}"));
        assert!(!tracer.is_empty(), "the attack must leave a trace");
        let kinds: std::collections::BTreeSet<&'static str> =
            tracer.drain().iter().map(|e| e.kind()).collect();
        for kind in [
            "publication",
            "fetch_attempt",
            "link_window",
            "hour_summary",
        ] {
            assert!(kinds.contains(kind), "missing {kind}: {kinds:?}");
        }
    }

    /// The session's whole trace, pinned by the SHA-256 of its records'
    /// `Debug` rendering: the order, span ids and causes of every
    /// publication, fetch, window, alert, budget-saturation and hour
    /// summary over an eight-hour run with feedback and attribution on,
    /// a three-hour five-of-nine flood and failed runs in hours 3–5.
    #[test]
    fn traced_hour_pipeline_is_pinned() {
        let cfg = DistConfig {
            clients: 3_000_000,
            n_caches: 2,
            feedback: true,
            attribution: true,
            link_windows: five_of_nine_windows(3..=5),
            ..DistConfig::default()
        };
        let tracer = Tracer::enabled(1 << 16);
        let mut session =
            DistSession::with_telemetry(&cfg, DocModel::synthetic(cfg.relays), tracer.clone());
        for hour in 1..=8u64 {
            let mut input = if (3..=5).contains(&hour) {
                HourInput::failed()
            } else {
                HourInput::produced(330.0)
            };
            if hour == 4 {
                input.alerts.push(AlertNote {
                    severity: "critical",
                    kind: "consensus_failure_streak".into(),
                    message: "run failed".into(),
                });
            }
            session.step_hour(input);
        }
        let report = session.into_report();
        assert_eq!(report.telemetry.trace_dropped, 0);
        let records = tracer.drain_records();
        assert_eq!(records.len(), 152);
        let mut kinds = std::collections::BTreeMap::<&'static str, usize>::new();
        for record in &records {
            *kinds.entry(record.event.kind()).or_default() += 1;
        }
        for kind in [
            "publication",
            "fetch_attempt",
            "fetch_retry",
            "fetch_timeout",
            "served",
            "link_window",
            "health_alert",
            "budget_saturation",
            "hour_summary",
        ] {
            assert!(kinds.contains_key(kind), "missing {kind}: {kinds:?}");
        }
        assert_eq!(kinds["budget_saturation"], 4, "{kinds:?}");
        assert_eq!(kinds["health_alert"], 1, "{kinds:?}");
        assert_eq!(kinds["publication"], 6, "{kinds:?}");
        assert_eq!(
            partialtor_crypto::sha256::digest(format!("{records:?}").as_bytes()).to_hex(),
            "bbe016e8f7377f79b9ff746b8402c431f8617abb8d9bbce508017062cc38c6fd"
        );
    }

    /// Per-hour telemetry lands in the hour reports: fetch-latency
    /// percentiles for hours with fetches, per-hour traffic signatures
    /// that sum to the session totals, and alert counts.
    #[test]
    fn hour_reports_carry_latency_and_traffic_signatures() {
        let mut session = DistSession::new(&config(50_000, 10, false), DocModel::synthetic(2_000));
        let first = session.step_hour(HourInput::produced(330.0));
        let latency = first.fetch_latency.expect("hour 1 fetches its consensus");
        assert!(latency.count > 0);
        assert!(latency.p50_secs <= latency.p90_secs && latency.p90_secs <= latency.p99_secs);
        assert!(latency.min_secs <= latency.p50_secs && latency.p99_secs <= latency.max_secs);
        assert!(
            first.tier_traffic.dir_requests > 0,
            "caches must have polled: {:?}",
            first.tier_traffic
        );
        assert!(
            first.tier_traffic.dir_diff_responses > 0,
            "steady-state fetches come back as diffs: {:?}",
            first.tier_traffic
        );

        let mut alerted = HourInput::failed();
        alerted.alerts.push(AlertNote {
            severity: "critical",
            kind: "consensus_failure_streak".into(),
            message: "run failed".into(),
        });
        let second = session.step_hour(alerted);
        assert_eq!(second.alerts, 1);

        let report = session.into_report();
        assert_eq!(report.hours.len(), 3);
        assert_eq!(report.telemetry.alerts, 1);
        assert!(report.telemetry.fetch_attempts >= report.hours[1].tier_traffic.dir_requests);
        let hourly_requests: u64 = report
            .hours
            .iter()
            .map(|h| h.tier_traffic.dir_requests)
            .sum();
        assert!(
            hourly_requests <= report.telemetry.fetch_attempts,
            "hour deltas cannot exceed the attempt total: {hourly_requests} vs {}",
            report.telemetry.fetch_attempts
        );
        let session_latency = report.telemetry.fetch_latency.expect("fetches happened");
        assert!(session_latency.count >= latency.count);
    }

    /// The tentpole guarantee, both halves. Observational: an
    /// attributed run's report — attribution fields aside — is
    /// bit-identical to the plain run's (the ladder replays forks,
    /// never the real hour). Exact: every hour's cause parts sum
    /// bit-exactly to that hour's dead fraction, and the rollup's to
    /// the run's client-weighted downtime.
    #[test]
    fn attribution_is_observational_and_sums_bit_exactly() {
        let outcomes: Vec<Option<f64>> = (0..30).map(|h| (h >= 24).then_some(330.0)).collect();
        let mut cfg = config(400_000, 40, true);
        cfg.link_windows = five_of_nine_windows(1..=24);
        let plain = stepped(&cfg, &outcomes);
        cfg.attribution = true;
        let attributed = stepped(&cfg, &outcomes);

        for hour in &attributed.hours {
            let attribution = hour.attribution.as_ref().expect("attribution is on");
            assert_eq!(attribution.hour, hour.hour);
            for (name, value) in attribution.parts.named() {
                assert!(value >= 0.0, "hour {} {name} = {value}", hour.hour);
            }
            assert_eq!(
                attribution.parts.sum().to_bits(),
                hour.fleet.dead_fraction.to_bits(),
                "hour {}: parts {:?} must sum to the dead fraction {}",
                hour.hour,
                attribution.parts,
                hour.fleet.dead_fraction
            );
        }
        let rollup = attributed.attribution.as_ref().expect("rollup is on");
        assert_eq!(
            rollup.parts.sum().to_bits(),
            attributed.fleet.client_weighted_downtime.to_bits(),
            "rollup {:?} must sum to the run's downtime {}",
            rollup.parts,
            attributed.fleet.client_weighted_downtime
        );
        assert_eq!(
            rollup.client_weighted_downtime.to_bits(),
            attributed.fleet.client_weighted_downtime.to_bits()
        );

        let mut scrubbed = attributed.clone();
        scrubbed.attribution = None;
        for hour in &mut scrubbed.hours {
            hour.attribution = None;
        }
        assert_eq!(
            format!("{plain:?}"),
            format!("{scrubbed:?}"),
            "attribution must not perturb the simulation"
        );
    }

    /// The pinned blame table for the acceptance campaign (24-hour
    /// five-of-nine flood with feedback, scaled fleet): the flood's
    /// downtime is overwhelmingly QuorumLost — runs breached, no
    /// consensus to fetch — with the retry storm and the flooded
    /// authority links explaining most of the rest. Pinned bit-for-bit,
    /// like the availability numbers this decomposes.
    #[test]
    fn five_of_nine_blame_is_pinned() {
        let mut cfg = config(60_000, 15, true);
        cfg.link_windows = five_of_nine_windows(1..=24);
        cfg.attribution = true;
        let mut session = DistSession::new(&cfg, DocModel::synthetic(2_000));
        for hour in 1..=27u64 {
            let input = if hour <= 24 {
                HourInput::failed()
            } else {
                HourInput::produced(330.0)
            };
            session.step_hour(input);
        }
        let report = session.into_report();
        let rollup = report.attribution.expect("attribution is on");
        assert_eq!(rollup.parts.dominant().0, "quorum_lost");
        assert_eq!(
            rollup.parts.sum().to_bits(),
            report.fleet.client_weighted_downtime.to_bits()
        );
        let expected = [
            ("authority_flooded", 0.0),
            ("cache_flooded", 0.0),
            ("quorum_lost", 0.7898809523809524),
            ("detector_veto", 0.0),
            ("service_budget_saturated", 0.0),
            ("recovery_storm", 0.0),
            ("churn_other", 2.976041679758623e-8),
        ];
        for ((name, value), (pin_name, pin)) in rollup.parts.named().iter().zip(expected) {
            assert_eq!(*name, pin_name);
            assert_eq!(
                *value, pin,
                "{name} drifted: {value} (pinned {pin}); update the pin only for an intentional model change"
            );
        }
    }

    /// The blame ladder on a week-shaped run, pinned by the SHA-256 of
    /// every hour's `HourAttribution` and the rollup: a day of healthy
    /// hours, a day-long five-of-nine flood with failed runs (hours
    /// 25–48) and a budget-bound recovery, with feedback, regional
    /// cohorts and weekly churn on. All three regimes occur — hours with
    /// no downtime, hours the service budget explains, hours the quorum
    /// explains — so a change to which rungs replay, or when, must keep
    /// all three bit-identical.
    #[test]
    fn week_shaped_blame_is_pinned() {
        use crate::{CachePlacement, ChurnSchedule, ClientRegions};

        let cfg = DistConfig {
            clients: 300_000,
            n_caches: 10,
            placement: CachePlacement::ClientWeighted,
            client_regions: ClientRegions::TorMetrics,
            feedback: true,
            attribution: true,
            churn: ChurnSchedule::weekly(),
            link_windows: five_of_nine_windows(25..=48),
            ..DistConfig::default()
        };
        let mut session = DistSession::new(&cfg, DocModel::synthetic(8_000));
        for hour in 1..=56u64 {
            session.step_hour(if (25..=48).contains(&hour) {
                HourInput::failed()
            } else {
                HourInput::produced(330.0)
            });
        }
        let report = session.into_report();
        let hours: Vec<HourAttribution> = report
            .hours
            .iter()
            .map(|h| h.attribution.expect("attribution is on"))
            .collect();
        let regime = |f: fn(&HourAttribution) -> bool| hours.iter().filter(|h| f(h)).count();
        assert_eq!(regime(|h| h.downtime == 0.0), 26);
        assert_eq!(regime(|h| h.parts.service_budget_saturated > 0.0), 8);
        assert_eq!(regime(|h| h.parts.quorum_lost > 0.0), 23);
        let rollup = report.attribution.expect("rollup is on");
        assert_eq!(
            partialtor_crypto::sha256::digest(format!("{hours:?}{rollup:?}").as_bytes()).to_hex(),
            "4322a4bd916245177fc00adf73121e7c0881785a30c16c323ae389bb0df18459"
        );
    }

    /// The session's telemetry, pinned by the SHA-256 of its `Debug`
    /// rendering: the whole-run rollup, every hour's fetch latency,
    /// traffic signature and alert count, and the tier report. All nine
    /// authorities sit at 0.5 Mbit/s for half of hours 3 and 4, so
    /// caches retry and give up, and hour 5 raises one alert.
    #[test]
    fn telemetry_is_pinned() {
        let mut cfg = config(400_000, 30, false);
        cfg.link_windows = (3..=4u64)
            .flat_map(|h| {
                (0..9).map(move |i| LinkWindow {
                    node: TierNode::Authority(i),
                    start_secs: (h * 3_600) as f64,
                    duration_secs: 1_800.0,
                    bps: 0.5e6,
                })
            })
            .collect();
        let mut session = DistSession::new(&cfg, DocModel::synthetic(cfg.relays));
        for hour in 1..=8u64 {
            let mut input = HourInput::produced(330.0);
            if hour == 5 {
                input.alerts.push(AlertNote {
                    severity: "critical",
                    kind: "consensus_failure_streak".into(),
                    message: "authorities flooded".into(),
                });
            }
            session.step_hour(input);
        }
        let report = session.into_report();
        let telemetry = &report.telemetry;
        assert!(telemetry.fetch_retries > 0, "{telemetry:?}");
        assert!(telemetry.fetch_timeouts > 0, "{telemetry:?}");
        assert!(telemetry.alerts > 0, "{telemetry:?}");
        let hours_with_latency = report
            .hours
            .iter()
            .filter(|h| h.fetch_latency.is_some())
            .count();
        assert!(hours_with_latency >= 2);
        let hourly: Vec<_> = report
            .hours
            .iter()
            .map(|h| (h.fetch_latency, h.tier_traffic, h.alerts))
            .collect();
        let rendered = format!("{telemetry:?}{hourly:?}{:?}", report.cache);
        assert_eq!(
            partialtor_crypto::sha256::digest(rendered.as_bytes()).to_hex(),
            "877e1aec75c09336db4c0a64c992b6fac6e8bc312987579611ca700a42e75a2c"
        );
    }

    proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(12))]

        /// Attribution's exactness holds for *any* campaign, not just
        /// the pinned one: random consensus timelines and random attack
        /// windows, parts non-negative and summing bit-exactly to the
        /// per-hour dead fraction and the whole-run downtime.
        #[test]
        fn attribution_sums_bit_exactly_on_random_campaigns(
            produced in proptest::collection::vec(any::<bool>(), 3..=6),
            windows in proptest::collection::vec((0usize..12, 0u64..6, 150.0f64..3_600.0), 0..6),
            feedback in any::<bool>(),
        ) {
            let outcomes: Vec<Option<f64>> =
                produced.iter().map(|ok| ok.then_some(330.0)).collect();
            let mut cfg = config(20_000, 6, feedback);
            cfg.attribution = true;
            cfg.link_windows = windows
                .iter()
                .map(|&(node, start_hour, duration_secs)| LinkWindow {
                    node: if node < 9 {
                        TierNode::Authority(node)
                    } else {
                        TierNode::Cache(node - 9)
                    },
                    start_secs: (start_hour * 3_600) as f64,
                    duration_secs,
                    bps: 0.5e6,
                })
                .collect();
            let report = stepped(&cfg, &outcomes);
            for hour in &report.hours {
                let attribution = hour.attribution.as_ref().expect("attribution is on");
                for (name, value) in attribution.parts.named() {
                    prop_assert!(value >= 0.0, "hour {} {} = {}", hour.hour, name, value);
                }
                prop_assert_eq!(
                    attribution.parts.sum().to_bits(),
                    hour.fleet.dead_fraction.to_bits(),
                    "hour {}: {:?} vs {}",
                    hour.hour,
                    attribution.parts,
                    hour.fleet.dead_fraction
                );
                if hour.fleet.dead_fraction == 0.0 {
                    for (name, value) in attribution.parts.named() {
                        prop_assert_eq!(
                            value.to_bits(),
                            0.0f64.to_bits(),
                            "hour {} has no downtime, so {} must be +0.0",
                            hour.hour,
                            name
                        );
                    }
                }
            }
            let rollup = report.attribution.as_ref().expect("rollup is on");
            prop_assert_eq!(
                rollup.parts.sum().to_bits(),
                report.fleet.client_weighted_downtime.to_bits()
            );
        }
    }

    #[test]
    fn session_exposes_hourly_reports() {
        let mut session = DistSession::new(&config(50_000, 10, false), DocModel::synthetic(2_000));
        let first = session.step_hour(HourInput::produced(330.0));
        assert_eq!(first.hour, 1);
        assert_eq!(first.published_version, Some(1));
        let second = session.step_hour(HourInput::failed());
        assert_eq!(second.published_version, None);
        assert_eq!(session.hours(), 3, "hour 0 plus two stepped hours");
        assert_eq!(session.hour_reports().len(), 3);
        assert_eq!(session.publications().len(), 2);
        // By the end of hour 1 the tier holds the new version.
        assert_eq!(first.newest_cached_version, Some(1));
        let report = session.into_report();
        assert_eq!(report.fleet.rows.len(), 3);
        assert_eq!(report.cache.versions.len(), 2);
    }
}
