//! Client fleets at planetary scale, by cohort aggregation.
//!
//! Tor has millions of daily clients; simulating them as event-driven
//! nodes would drown any engine. This model never allocates a per-client
//! object: clients are *counts* bucketed by state — bootstrapping (no
//! usable consensus, needs a full document plus the whole descriptor
//! set) or steady (holding consensus version `v`) — and each fixed step
//! moves sampled binomial/Poisson quantities between buckets. A
//! 3-million-client day is ~1 440 steps over a handful of cohorts:
//! microseconds of work, deterministic for a fixed seed.
//!
//! Behaviour follows the Tor client schedule in shape: steady clients
//! notice a new consensus at the cache tier and fetch it at a uniformly
//! staggered time (a diff plus the churned relays' descriptors if their
//! base is recent, full documents otherwise, with timeout retries);
//! clients whose document passes `valid-until` fall off the network and
//! re-enter bootstrap, retrying on a fixed cadence with Poisson-thinned
//! attempts until a live document is fetchable again.
//!
//! The fleet is *region-weighted*: [`FleetConfig::regions`] splits the
//! population into geographic cohorts (one worldwide cohort by default
//! — the legacy behaviour, bit-for-bit), and every cohort steps against
//! its *own* view of cache availability — the serving caches its region
//! fetches from — so a regional brownout starves exactly the clients it
//! should. Per-hour rows and the whole-horizon report carry per-region
//! breakdowns whose counts sum to the aggregate fields.
//!
//! The fleet is stepped one hour at a time ([`FleetSim::step_hour`]),
//! and each hour's [`FleetHourRow`] carries not just client-visible
//! outcomes but the *realized egress* it pulled out of the tier —
//! served consensus and descriptor bytes plus request bytes, which the
//! session charges to the next hour's links when fetch feedback is on.

use crate::docmodel::{DocClass, DocTable};
use crate::placement::ClientRegions;
use crate::stats::{binomial, poisson};
use crate::timeline::{newest_live_cached, ConsensusTimeline, Publication};
use partialtor_obs::span;
use partialtor_simnet::geo::Region;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::collections::BTreeMap;

/// Wire cost of one bootstrap probe that finds nothing live (request
/// plus error/stale-header response) — the retry-storm unit of the
/// January 2021 outage report.
pub const FAILED_PROBE_BYTES: u64 = 512;

/// Wire cost of the request side of a successful fetch.
pub const REQUEST_BYTES: u64 = 200;

/// Fleet configuration.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Fleet size at t = 0 (all holding the baseline consensus).
    pub clients: u64,
    /// Sampler seed.
    pub seed: u64,
    /// Step length, seconds.
    pub step_secs: u64,
    /// Mean *new* clients starting a bootstrap per second (daily churn),
    /// across all cohorts.
    pub arrivals_per_sec: f64,
    /// Mean seconds between one bootstrapping client's attempts.
    pub bootstrap_retry_secs: f64,
    /// Steady clients spread their fetch of a newly cached consensus
    /// uniformly over this window, seconds.
    pub refresh_spread_secs: f64,
    /// How the population splits into regional cohorts (the default
    /// single worldwide cohort is the legacy behaviour, bit-for-bit).
    pub regions: ClientRegions,
}

impl FleetConfig {
    /// A fleet of `clients` with Tor-shaped defaults: 2 % daily churn,
    /// one bootstrap attempt a minute, fetches staggered over 45 min,
    /// one worldwide cohort.
    pub fn sized(clients: u64, seed: u64) -> Self {
        FleetConfig {
            clients,
            seed,
            step_secs: 60,
            arrivals_per_sec: clients as f64 * 0.02 / 86_400.0,
            bootstrap_retry_secs: 60.0,
            refresh_spread_secs: 45.0 * 60.0,
            regions: ClientRegions::Worldwide,
        }
    }
}

/// One region cohort's slice of an hour — the integer fields sum
/// exactly to the owning [`FleetHourRow`]'s aggregates.
#[derive(Clone, Debug)]
pub struct RegionHourSlice {
    /// Region label (`worldwide` for the unplaced cohort).
    pub region: String,
    /// Bootstrap attempts from this cohort.
    pub bootstrap_attempts: u64,
    /// Attempts that found a live consensus at this cohort's serving
    /// caches.
    pub bootstrap_successes: u64,
    /// Steady-state refresh fetches.
    pub refresh_fetches: u64,
    /// Time-averaged fraction of this cohort with no valid consensus.
    pub dead_fraction: f64,
    /// Time-averaged fraction without a fresh consensus.
    pub stale_fraction: f64,
    /// Time-averaged cohort size over the hour.
    pub mean_clients: f64,
    /// Consensus bytes served to this cohort.
    pub cache_egress_bytes: u64,
    /// Descriptor bytes served to this cohort.
    pub descriptor_egress_bytes: u64,
    /// Request-side and failed-probe bytes this cohort pushed at the
    /// tier.
    pub request_bytes: u64,
}

/// One realized refresh flow this hour: `count` clients moved from
/// consensus `from_version` to `to_version` (and were served the
/// corresponding consensus response plus churned descriptors). The
/// exact diff-base mix a serving-path replay needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FetchTransition {
    /// Consensus version the clients held before the fetch.
    pub from_version: usize,
    /// Version they fetched (the newest cached at the time).
    pub to_version: usize,
    /// Clients that made this move (post-budget: actually served).
    pub count: u64,
}

/// Successful bootstraps onto one consensus version this hour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VersionCount {
    /// Version the bootstrapping clients landed on.
    pub version: usize,
    /// Clients served the full document set for it.
    pub count: u64,
}

/// One hour of client-visible outcomes.
#[derive(Clone, Debug, Serialize)]
pub struct FleetHourRow {
    /// Hour index (covers `[hour * 3600, (hour + 1) * 3600)`).
    pub hour: u64,
    /// Bootstrap attempts made this hour.
    pub bootstrap_attempts: u64,
    /// Attempts that found a live consensus at the cache tier.
    pub bootstrap_successes: u64,
    /// Steady-state refresh fetches this hour.
    pub refresh_fetches: u64,
    /// Time-averaged fraction of clients with *no valid* consensus —
    /// clients that cannot build circuits at all.
    pub dead_fraction: f64,
    /// Time-averaged fraction of clients without a *fresh* consensus
    /// (stale holders plus the dead) — the paper's client-visible
    /// staleness metric.
    pub stale_fraction: f64,
    /// Consensus bytes the cache tier served to clients this hour
    /// (diffs served where possible).
    pub cache_egress_bytes: u64,
    /// The same consensus egress if every fetch were a full document.
    pub cache_egress_full_only_bytes: u64,
    /// Descriptor bytes served to clients this hour (full sets on
    /// bootstrap, churned slices on refresh).
    pub descriptor_egress_bytes: u64,
    /// Request-side and failed-probe bytes clients pushed at the tier
    /// this hour — the retry-storm traffic.
    pub request_bytes: u64,
    /// Exact realized refresh flows, sorted by (from, to); counts sum
    /// to `refresh_fetches`. Passive accounting — recording it draws no
    /// randomness.
    #[serde(skip)]
    pub refresh_transitions: Vec<FetchTransition>,
    /// Exact successful-bootstrap counts per target version, sorted;
    /// counts sum to `bootstrap_successes`.
    #[serde(skip)]
    pub bootstrap_targets: Vec<VersionCount>,
    /// Per-region slices (one per cohort; integer fields sum to the
    /// aggregates above).
    #[serde(skip)]
    pub regions: Vec<RegionHourSlice>,
}

/// One region cohort's whole-horizon outcome — the integer fields sum
/// exactly to the owning [`FleetReport`]'s aggregates, and
/// `final_clients = initial_clients + arrivals` (clients never migrate
/// between regions).
#[derive(Clone, Debug, Serialize)]
pub struct RegionSummary {
    /// Region label (`worldwide` for the unplaced cohort).
    pub region: String,
    /// Population fraction of this cohort.
    pub weight: f64,
    /// Cohort size at t = 0.
    pub initial_clients: u64,
    /// New clients that arrived over the horizon.
    pub arrivals: u64,
    /// Cohort size at the end of the horizon (held + bootstrapping).
    pub final_clients: u64,
    /// Bootstrap attempts over the horizon.
    pub bootstrap_attempts: u64,
    /// Successful bootstraps over the horizon.
    pub bootstrap_successes: u64,
    /// Refresh fetches over the horizon.
    pub refresh_fetches: u64,
    /// Time-averaged dead fraction of this cohort — its client-weighted
    /// downtime.
    pub client_weighted_downtime: f64,
    /// Time-averaged stale fraction of this cohort.
    pub mean_stale_fraction: f64,
    /// Consensus bytes served to this cohort.
    pub cache_egress_bytes: u64,
    /// Descriptor bytes served to this cohort.
    pub descriptor_egress_bytes: u64,
    /// Request-side and failed-probe bytes from this cohort.
    pub request_bytes: u64,
}

/// Whole-horizon fleet outcome.
#[derive(Clone, Debug, Serialize)]
pub struct FleetReport {
    /// Per-hour rows.
    pub rows: Vec<FleetHourRow>,
    /// Successes over attempts across the horizon (1.0 when no attempts).
    pub bootstrap_success_rate: f64,
    /// Time-averaged dead-client fraction — the client-weighted downtime
    /// the availability experiment reports.
    pub client_weighted_downtime: f64,
    /// Time-averaged stale fraction (clients without a fresh consensus).
    pub mean_stale_fraction: f64,
    /// Worst instantaneous stale fraction observed.
    pub peak_stale_fraction: f64,
    /// Total consensus bytes served to clients.
    pub cache_egress_bytes: u64,
    /// Counterfactual consensus egress without diffs, bytes.
    pub cache_egress_full_only_bytes: u64,
    /// Total descriptor bytes served to clients.
    pub descriptor_egress_bytes: u64,
    /// Per-region summaries (one per cohort; counts sum to the
    /// aggregates above).
    pub regions: Vec<RegionSummary>,
}

/// When a version became fetchable at the cache tier (`None` = never,
/// or not yet, in stepped use).
pub type CacheAvailability = [Option<f64>];

/// One regional cohort's live state: who holds which version, the
/// bootstrap pool, and the per-step sums only stepping can produce. Its
/// hourly counts live in the [`RegionHourSlice`]s the caller keeps.
#[derive(Clone)]
struct Cohort {
    region: Option<Region>,
    weight: f64,
    initial: u64,
    /// Cohorts: version → clients holding it.
    holding: BTreeMap<usize, u64>,
    /// The bootstrap pool (no usable consensus).
    pool: u64,
    arrivals: u64,
    /// Per-step dead and stale fractions, summed: rows carry hourly
    /// means, which cannot reproduce these sums bit for bit.
    dead_sum: f64,
    stale_sum: f64,
}

impl Cohort {
    fn label(&self) -> String {
        crate::placement::region_label(self.region).to_string()
    }

    fn population(&self) -> u64 {
        self.holding.values().sum::<u64>() + self.pool
    }
}

/// Per-cohort scratch for one stepped hour.
#[derive(Clone, Copy, Default)]
struct HourScratch {
    attempts: u64,
    successes: u64,
    refreshes: u64,
    egress: u64,
    desc_egress: u64,
    request: u64,
    dead_sum: f64,
    stale_sum: f64,
    clients_sum: f64,
}

/// The stepped cohort fleet: live per-region cohort state, advanced one
/// hour at a time. It keeps no hour history — [`FleetSim::step_hour`]
/// hands each hour's row to the caller, which owns the rows and passes
/// them back to [`FleetSim::report`].
///
/// The fleet is `Clone` (its sampler included), so a session can fork
/// the pre-hour state and replay the same hour under counterfactual
/// availability views with identical randomness — the mechanism behind
/// [`attribution`](crate::attribution).
#[derive(Clone)]
pub struct FleetSim {
    config: FleetConfig,
    rng: StdRng,
    cohorts: Vec<Cohort>,
    downtime_sum: f64,
    stale_sum: f64,
    steps_done: u64,
    peak_stale: f64,
}

impl FleetSim {
    /// A fleet at t = 0: everyone holds the baseline consensus
    /// (version 0), split over the configured region cohorts by
    /// population weight (largest-remainder rounding).
    pub fn new(config: &FleetConfig) -> Self {
        let mix = config.regions.cohorts();
        let weights: Vec<f64> = mix.iter().map(|&(_, w)| w).collect();
        let counts = crate::placement::split_by_weight(&weights, config.clients);
        let cohorts = mix
            .into_iter()
            .zip(counts)
            .map(|((region, weight), initial)| {
                let mut holding = BTreeMap::new();
                holding.insert(0, initial);
                Cohort {
                    region,
                    weight,
                    initial,
                    holding,
                    pool: 0,
                    arrivals: 0,
                    dead_sum: 0.0,
                    stale_sum: 0.0,
                }
            })
            .collect();
        FleetSim {
            config: config.clone(),
            rng: StdRng::seed_from_u64(config.seed),
            cohorts,
            downtime_sum: 0.0,
            stale_sum: 0.0,
            steps_done: 0,
            peak_stale: 0.0,
        }
    }

    /// Number of region cohorts.
    pub fn cohort_count(&self) -> usize {
        self.cohorts.len()
    }

    /// Current total population (held + bootstrapping, all cohorts).
    pub fn population(&self) -> u64 {
        self.cohorts.iter().map(Cohort::population).sum()
    }

    /// Clients currently in the bootstrap pool (no usable consensus),
    /// all cohorts.
    pub(crate) fn pool_total(&self) -> u64 {
        self.cohorts.iter().map(|c| c.pool).sum()
    }

    /// Counterfactually moves each cohort's bootstrap pool onto a held
    /// version (`targets[c]`; `None` leaves that cohort's pool in
    /// place). Draws no randomness — used by the attribution ladder to
    /// ask "what if the backlog from earlier hours had been served
    /// already?" before replaying an hour on a cloned fleet.
    pub(crate) fn revive_pools(&mut self, targets: &[Option<usize>]) {
        assert_eq!(targets.len(), self.cohorts.len(), "one target per cohort");
        for (cohort, target) in self.cohorts.iter_mut().zip(targets) {
            if let Some(version) = target {
                *cohort.holding.entry(*version).or_insert(0) += cohort.pool;
                cohort.pool = 0;
            }
        }
    }

    /// Steps the fleet over `[hour * 3600, (hour + 1) * 3600)` against
    /// the publications so far and each cohort's view of cache
    /// availability as of the end of that hour: `cached[c][version]` is
    /// when cohort `c`'s serving caches reached quorum on `version`
    /// (one view per cohort — a session derives them from the tier's
    /// placement; uniform callers pass the same whole-tier view for
    /// every cohort). Hours must be stepped in order from 0.
    ///
    /// `service_budget_bytes` caps the payload the tier can serve this
    /// hour (`None` = unlimited, the open-loop behaviour): a session
    /// with feedback on derives it from the cache links' capacity minus
    /// the load already charged to them, so a bootstrap storm larger
    /// than the tier's capacity spills into later hours instead of
    /// being served for free — clients left over stay in the pool and
    /// keep probing, exactly the §2.1 retry dynamics. The budget is
    /// shared over the cohorts in cohort order.
    pub fn step_hour(
        &mut self,
        hour: u64,
        publications: &[Publication],
        table: &DocTable,
        cached: &[Vec<Option<f64>>],
        service_budget_bytes: Option<u64>,
    ) -> FleetHourRow {
        let _span = span("fleet.step_hour");
        let dt = self.config.step_secs.max(1) as f64;
        let steps = (3_600.0 / dt).ceil() as u64;
        assert_eq!(self.steps_done, hour * steps, "hours step in order");
        assert_eq!(
            cached.len(),
            self.cohorts.len(),
            "one availability view per cohort"
        );

        let mut scratch: Vec<HourScratch> = vec![HourScratch::default(); self.cohorts.len()];
        let mut transitions: BTreeMap<(usize, usize), u64> = BTreeMap::new();
        let mut bootstrap_targets: BTreeMap<usize, u64> = BTreeMap::new();
        let mut hour_egress_full = 0u64;
        let mut hour_dead_sum = 0.0;
        let mut hour_stale_sum = 0.0;
        let mut hour_samples = 0u64;
        let mut budget_left = service_budget_bytes;
        // Refresh sources `(version, holders)`, refilled per cohort and
        // step: one buffer for the whole hour.
        let mut sources: Vec<(usize, u64)> = Vec::new();

        // How many of `wanted` fetches at `cost` bytes each fit in the
        // remaining budget (all of them when the budget is unlimited).
        let serveable = |budget: &Option<u64>, wanted: u64, cost: u64| match budget {
            None => wanted,
            Some(_) if cost == 0 => wanted,
            Some(left) => wanted.min(left / cost),
        };
        let spend = |budget: &mut Option<u64>, bytes: u64| {
            if let Some(left) = budget {
                *left = left.saturating_sub(bytes);
            }
        };

        for step in 0..steps {
            let t = (hour * 3_600) as f64 + step as f64 * dt;

            for (index, cohort) in self.cohorts.iter_mut().enumerate() {
                let scratch = &mut scratch[index];
                // Newest version fetchable from this cohort's serving
                // caches right now.
                let newest_live = newest_live_cached(publications, &cached[index], t);

                // 1. Expiry: cohorts whose document passed valid-until
                //    fall off the network and start over.
                let pool = &mut cohort.pool;
                cohort.holding.retain(|&v, &mut count| {
                    let live = publications[v].live_at(t);
                    if !live {
                        *pool += count;
                    }
                    live
                });

                // 2. Arrivals: fresh clients joining the network
                //    (Poisson, population-weighted per region).
                let arrived = poisson(
                    &mut self.rng,
                    self.config.arrivals_per_sec * cohort.weight * dt,
                );
                cohort.pool += arrived;
                cohort.arrivals += arrived;

                // 3. Steady-state refresh: holders of an older version
                //    fetch the newest cached one, staggered over the
                //    refresh window. A refresh costs a consensus
                //    response (diff inside the retain window) plus the
                //    churned relays' descriptors.
                if let Some(target) = newest_live {
                    let p_refresh = (dt / self.config.refresh_spread_secs).min(1.0);
                    sources.clear();
                    sources.extend(
                        cohort
                            .holding
                            .range(..target)
                            .map(|(&v, &count)| (v, count)),
                    );
                    for &(v, count) in &sources {
                        let movers = binomial(&mut self.rng, count, p_refresh);
                        if movers == 0 {
                            continue;
                        }
                        let consensus = table.response(DocClass::Consensus, Some(v), target);
                        let descriptors = table.response(DocClass::Descriptors, Some(v), target);
                        // A saturated tier serves only what fits; the
                        // rest stay on their old version and try again
                        // later.
                        let movers =
                            serveable(&budget_left, movers, consensus.bytes + descriptors.bytes);
                        if movers == 0 {
                            continue;
                        }
                        *cohort.holding.get_mut(&v).expect("cohort exists") -= movers;
                        *cohort.holding.entry(target).or_insert(0) += movers;
                        *transitions.entry((v, target)).or_insert(0) += movers;
                        scratch.refreshes += movers;
                        scratch.egress += movers * consensus.bytes;
                        hour_egress_full += movers * table.full_bytes(DocClass::Consensus, target);
                        scratch.desc_egress += movers * descriptors.bytes;
                        scratch.request += movers * REQUEST_BYTES;
                        spend(
                            &mut budget_left,
                            movers * (consensus.bytes + descriptors.bytes),
                        );
                    }
                    cohort.holding.retain(|_, count| *count > 0);
                }

                // 4. Bootstrap attempts: Poisson-thinned retries from
                //    the pool. A success costs the full consensus plus
                //    the whole descriptor set; a failure still costs a
                //    probe — the retry-storm traffic feedback charges
                //    to the next hour.
                if cohort.pool > 0 {
                    let p_attempt = (dt / self.config.bootstrap_retry_secs).min(1.0);
                    let attempts = binomial(&mut self.rng, cohort.pool, p_attempt);
                    scratch.attempts += attempts;
                    if let Some(target) = newest_live {
                        // The cache tier serves them the full documents
                        // — as many as fit in what the links can still
                        // carry; a storm larger than the tier spills
                        // over.
                        let bytes = table.full_bytes(DocClass::Consensus, target);
                        let desc_bytes = table.full_bytes(DocClass::Descriptors, target);
                        let served = serveable(&budget_left, attempts, bytes + desc_bytes);
                        cohort.pool -= served;
                        *cohort.holding.entry(target).or_insert(0) += served;
                        if served > 0 {
                            *bootstrap_targets.entry(target).or_insert(0) += served;
                        }
                        scratch.successes += served;
                        scratch.egress += served * bytes;
                        hour_egress_full += served * bytes;
                        scratch.desc_egress += served * desc_bytes;
                        scratch.request +=
                            served * REQUEST_BYTES + (attempts - served) * FAILED_PROBE_BYTES;
                        spend(&mut budget_left, served * (bytes + desc_bytes));
                    } else {
                        scratch.request += attempts * FAILED_PROBE_BYTES;
                    }
                }
            }

            // 5. Client-visible state at the end of the step, per
            //    cohort and aggregated.
            let mut pool_total = 0u64;
            let mut held_total = 0u64;
            let mut fresh_total = 0u64;
            for (cohort, scratch) in self.cohorts.iter_mut().zip(&mut scratch) {
                let held: u64 = cohort.holding.values().sum();
                let total = (held + cohort.pool).max(1);
                let fresh: u64 = cohort
                    .holding
                    .iter()
                    .filter(|(v, _)| publications[**v].fresh_at(t))
                    .map(|(_, count)| *count)
                    .sum();
                let dead = cohort.pool as f64 / total as f64;
                let stale = 1.0 - fresh as f64 / total as f64;
                scratch.dead_sum += dead;
                scratch.stale_sum += stale;
                scratch.clients_sum += (held + cohort.pool) as f64;
                cohort.dead_sum += dead;
                cohort.stale_sum += stale;
                pool_total += cohort.pool;
                held_total += held;
                fresh_total += fresh;
            }
            let total = (held_total + pool_total).max(1);
            let dead_fraction = pool_total as f64 / total as f64;
            let stale_fraction = 1.0 - fresh_total as f64 / total as f64;
            hour_dead_sum += dead_fraction;
            hour_stale_sum += stale_fraction;
            hour_samples += 1;
            self.downtime_sum += dead_fraction;
            self.stale_sum += stale_fraction;
            self.peak_stale = self.peak_stale.max(stale_fraction);
            self.steps_done += 1;
        }

        let samples = hour_samples.max(1) as f64;
        let regions: Vec<RegionHourSlice> = self
            .cohorts
            .iter()
            .zip(&scratch)
            .map(|(cohort, scratch)| RegionHourSlice {
                region: cohort.label(),
                bootstrap_attempts: scratch.attempts,
                bootstrap_successes: scratch.successes,
                refresh_fetches: scratch.refreshes,
                dead_fraction: scratch.dead_sum / samples,
                stale_fraction: scratch.stale_sum / samples,
                mean_clients: scratch.clients_sum / samples,
                cache_egress_bytes: scratch.egress,
                descriptor_egress_bytes: scratch.desc_egress,
                request_bytes: scratch.request,
            })
            .collect();
        let sum = |f: fn(&HourScratch) -> u64| scratch.iter().map(f).sum::<u64>();
        // The aggregate dead/stale fractions average the *population*
        // fraction per step (Σ pools / Σ totals), so they are not the
        // mean of the per-cohort fractions — the per-region counts, not
        // the fractions, are the fields that sum to the aggregates.
        FleetHourRow {
            hour,
            bootstrap_attempts: sum(|s| s.attempts),
            bootstrap_successes: sum(|s| s.successes),
            refresh_fetches: sum(|s| s.refreshes),
            dead_fraction: hour_dead_sum / samples,
            stale_fraction: hour_stale_sum / samples,
            cache_egress_bytes: sum(|s| s.egress),
            cache_egress_full_only_bytes: hour_egress_full,
            descriptor_egress_bytes: sum(|s| s.desc_egress),
            request_bytes: sum(|s| s.request),
            refresh_transitions: transitions
                .into_iter()
                .map(|((from_version, to_version), count)| FetchTransition {
                    from_version,
                    to_version,
                    count,
                })
                .collect(),
            bootstrap_targets: bootstrap_targets
                .into_iter()
                .map(|(version, count)| VersionCount { version, count })
                .collect(),
            regions,
        }
    }

    /// The whole-horizon report. `rows` must be the rows this fleet's
    /// [`FleetSim::step_hour`] calls returned, hour 0 first: every
    /// integer total (attempts, successes, refreshes, egress, request
    /// bytes — aggregate and per region) is their sum. The fractions
    /// come from the fleet's per-step sums.
    pub fn report(&self, rows: Vec<FleetHourRow>) -> FleetReport {
        let steps = self.steps_done.max(1) as f64;
        let total = |f: fn(&FleetHourRow) -> u64| rows.iter().map(f).sum::<u64>();
        let attempts = total(|r| r.bootstrap_attempts);
        let successes = total(|r| r.bootstrap_successes);
        let regions = self
            .cohorts
            .iter()
            .enumerate()
            .map(|(index, cohort)| {
                let total = |f: fn(&RegionHourSlice) -> u64| {
                    rows.iter().map(|r| f(&r.regions[index])).sum::<u64>()
                };
                RegionSummary {
                    region: cohort.label(),
                    weight: cohort.weight,
                    initial_clients: cohort.initial,
                    arrivals: cohort.arrivals,
                    final_clients: cohort.population(),
                    bootstrap_attempts: total(|s| s.bootstrap_attempts),
                    bootstrap_successes: total(|s| s.bootstrap_successes),
                    refresh_fetches: total(|s| s.refresh_fetches),
                    client_weighted_downtime: cohort.dead_sum / steps,
                    mean_stale_fraction: cohort.stale_sum / steps,
                    cache_egress_bytes: total(|s| s.cache_egress_bytes),
                    descriptor_egress_bytes: total(|s| s.descriptor_egress_bytes),
                    request_bytes: total(|s| s.request_bytes),
                }
            })
            .collect();
        FleetReport {
            bootstrap_success_rate: if attempts == 0 {
                1.0
            } else {
                successes as f64 / attempts as f64
            },
            client_weighted_downtime: self.downtime_sum / steps,
            mean_stale_fraction: self.stale_sum / steps,
            peak_stale_fraction: self.peak_stale,
            cache_egress_bytes: total(|r| r.cache_egress_bytes),
            cache_egress_full_only_bytes: total(|r| r.cache_egress_full_only_bytes),
            descriptor_egress_bytes: total(|r| r.descriptor_egress_bytes),
            regions,
            rows,
        }
    }
}

/// Runs the fleet over a whole timeline whose versions became fetchable
/// at the cache tier at `cached_at[version]` — the batch view of the
/// same stepped machinery. Every cohort sees the same whole-tier
/// availability.
pub fn run(
    config: &FleetConfig,
    timeline: &ConsensusTimeline,
    table: &DocTable,
    cached_at: &CacheAvailability,
) -> FleetReport {
    let mut fleet = FleetSim::new(config);
    let views = vec![cached_at.to_vec(); fleet.cohort_count()];
    let hours = (timeline.horizon_secs() / 3_600.0).ceil() as u64;
    let rows = (0..hours)
        .map(|hour| fleet.step_hour(hour, &timeline.publications, table, &views, None))
        .collect();
    fleet.report(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::docmodel::DocModel;

    fn timeline(hourly: &[Option<f64>]) -> ConsensusTimeline {
        ConsensusTimeline::from_hourly_outcomes(hourly, 3_600, 10_800)
    }

    fn table(t: &ConsensusTimeline) -> DocTable {
        let model = DocModel::synthetic(8_000);
        let mut table = DocTable::new();
        for p in &t.publications {
            table.push_version(&model, p.hour, 0.02 * p.hour as f64, 3);
        }
        table
    }

    /// Caches hold each version five minutes after the authorities.
    fn prompt_caches(t: &ConsensusTimeline) -> Vec<Option<f64>> {
        t.publications
            .iter()
            .map(|p| Some(p.available_at_secs + 300.0))
            .collect()
    }

    #[test]
    fn healthy_timeline_keeps_fleet_alive_and_on_diffs() {
        let t = timeline(&[Some(330.0); 6]);
        let m = table(&t);
        let report = run(
            &FleetConfig::sized(1_000_000, 3),
            &t,
            &m,
            &prompt_caches(&t),
        );
        assert!(report.bootstrap_success_rate > 0.99);
        assert!(report.client_weighted_downtime < 0.01);
        assert!(
            report.cache_egress_bytes * 2 < report.cache_egress_full_only_bytes,
            "diffs must dominate steady-state egress: {} vs {}",
            report.cache_egress_bytes,
            report.cache_egress_full_only_bytes
        );
        // Refreshes dwarf bootstraps in a healthy steady state.
        let refreshes: u64 = report.rows.iter().map(|r| r.refresh_fetches).sum();
        let bootstraps: u64 = report.rows.iter().map(|r| r.bootstrap_attempts).sum();
        assert!(refreshes > bootstraps * 10);
        // Descriptor egress exists but the churned slices stay far below
        // what full sets on every refresh would cost.
        assert!(report.descriptor_egress_bytes > 0);
        let full_sets: u64 = refreshes * m.full_bytes(DocClass::Descriptors, 0);
        assert!(report.descriptor_egress_bytes * 2 < full_sets);
    }

    #[test]
    fn dead_timeline_kills_fleet_after_three_hours() {
        // No consensus after the baseline: the paper's §2.1 collapse.
        let t = timeline(&[None; 6]);
        let m = table(&t);
        let report = run(
            &FleetConfig::sized(1_000_000, 3),
            &t,
            &m,
            &prompt_caches(&t),
        );
        // Hours 0–2: alive on the baseline document. Hour 3 on: dead.
        assert!(report.rows[1].dead_fraction < 0.05);
        let last = report.rows.last().unwrap();
        assert!(
            last.dead_fraction > 0.95,
            "fleet must be dead at the end: {last:?}"
        );
        assert_eq!(
            last.bootstrap_successes, 0,
            "nothing live to bootstrap from"
        );
        assert!(report.client_weighted_downtime > 0.3);
        assert!(report.peak_stale_fraction > 0.99);
        // The dead pool's failed probes are real traffic — the
        // retry-storm unit feedback charges to the next hour's links.
        assert!(last.request_bytes > last.bootstrap_attempts * FAILED_PROBE_BYTES / 2);
    }

    #[test]
    fn fleet_is_deterministic_and_scales_without_allocation_blowup() {
        let t = timeline(&[Some(330.0); 24]);
        let m = table(&t);
        let caches = prompt_caches(&t);
        let start = std::time::Instant::now();
        let a = run(&FleetConfig::sized(3_000_000, 9), &t, &m, &caches);
        let elapsed = start.elapsed();
        let b = run(&FleetConfig::sized(3_000_000, 9), &t, &m, &caches);
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "seeded runs must agree");
        // Cohort aggregation: a 3M-client day steps in well under a second.
        assert!(
            elapsed.as_millis() < 2_000,
            "cohort stepping too slow: {elapsed:?}"
        );
    }

    #[test]
    fn late_caches_delay_bootstrap_success() {
        let t = timeline(&[Some(330.0); 4]);
        let m = table(&t);
        // The cache tier never gets anything after the baseline.
        let never: Vec<Option<f64>> = t
            .publications
            .iter()
            .map(|p| (p.version == 0).then_some(60.0))
            .collect();
        let report = run(&FleetConfig::sized(500_000, 5), &t, &m, &never);
        // Once the baseline expires, bootstraps fail even though the
        // authorities kept producing documents.
        let last = report.rows.last().unwrap();
        assert_eq!(last.bootstrap_successes, 0);
        assert!(last.dead_fraction > 0.9);
    }

    /// Stepping hour by hour with a *growing* availability view (the
    /// session's mode) matches the one-shot run when the final view is
    /// consistent: versions invisible to an hour's steps are exactly the
    /// ones cached later.
    #[test]
    fn stepped_and_batch_fleet_agree() {
        let t = timeline(&[Some(330.0), None, Some(400.0)]);
        let m = table(&t);
        let caches = prompt_caches(&t);
        let batch = run(&FleetConfig::sized(200_000, 11), &t, &m, &caches);

        let mut fleet = FleetSim::new(&FleetConfig::sized(200_000, 11));
        let hours = (t.horizon_secs() / 3_600.0) as u64;
        let mut rows = Vec::new();
        for hour in 0..hours {
            // The tier only reveals versions cached by the end of the
            // stepped hour — exactly what a session sees.
            let hour_end = ((hour + 1) * 3_600) as f64;
            let partial: Vec<Option<f64>> = caches
                .iter()
                .map(|at| at.filter(|&at| at <= hour_end))
                .collect();
            let row = fleet.step_hour(hour, &t.publications, &m, &[partial], None);
            rows.push(row);
        }
        let stepped = fleet.report(rows);
        assert_eq!(format!("{batch:?}"), format!("{stepped:?}"));
    }

    /// The region-weighted fleet conserves clients: each cohort's final
    /// population is exactly its initial share plus its arrivals —
    /// clients never migrate between regions — and every per-region
    /// count sums to the aggregate.
    #[test]
    fn region_cohorts_conserve_clients_and_sum_to_aggregates() {
        let t = timeline(&[Some(330.0), None, Some(400.0), None]);
        let m = table(&t);
        let config = FleetConfig {
            regions: ClientRegions::TorMetrics,
            ..FleetConfig::sized(400_000, 17)
        };
        let report = run(&config, &t, &m, &prompt_caches(&t));
        assert_eq!(report.regions.len(), 4);
        let initial: u64 = report.regions.iter().map(|r| r.initial_clients).sum();
        assert_eq!(initial, 400_000, "largest remainder loses nobody");
        for region in &report.regions {
            assert_eq!(
                region.final_clients,
                region.initial_clients + region.arrivals,
                "{}: clients are conserved per region",
                region.region
            );
        }
        for row in &report.rows {
            assert_eq!(
                row.regions
                    .iter()
                    .map(|r| r.bootstrap_attempts)
                    .sum::<u64>(),
                row.bootstrap_attempts
            );
            assert_eq!(
                row.regions
                    .iter()
                    .map(|r| r.cache_egress_bytes)
                    .sum::<u64>(),
                row.cache_egress_bytes
            );
            assert_eq!(
                row.regions.iter().map(|r| r.request_bytes).sum::<u64>(),
                row.request_bytes
            );
        }
    }

    /// The batch entry point's whole report, pinned by the SHA-256 of
    /// its `Debug` rendering: Tor-weighted regional cohorts through a
    /// four-hour failure that outlives the last document's validity, so
    /// the region totals and the recovery's bootstrap successes are all
    /// exercised.
    #[test]
    fn batch_report_is_pinned() {
        let t = timeline(&[
            Some(330.0),
            None,
            None,
            None,
            None,
            Some(400.0),
            Some(330.0),
        ]);
        let m = table(&t);
        let config = FleetConfig {
            regions: ClientRegions::TorMetrics,
            ..FleetConfig::sized(300_000, 29)
        };
        let report = run(&config, &t, &m, &prompt_caches(&t));
        let recovered: u64 = report.rows[6..].iter().map(|r| r.bootstrap_successes).sum();
        assert!(report.rows[5].dead_fraction > 0.5 && recovered > 0);
        assert!(report.regions.iter().all(|r| r.bootstrap_attempts > 0));
        let rendered = format!("{report:?}");
        assert_eq!(
            partialtor_crypto::sha256::digest(rendered.as_bytes()).to_hex(),
            "2b929d9cd0cb5edd7729d04b9f3c26e96d7971ee50a748b50d933efe993cce90"
        );
    }

    /// A cohort whose serving caches never receive a version dies alone:
    /// regional availability views starve exactly their own region.
    #[test]
    fn starved_region_dies_while_the_rest_live() {
        let t = timeline(&[Some(330.0); 6]);
        let m = table(&t);
        let config = FleetConfig {
            regions: ClientRegions::TorMetrics,
            ..FleetConfig::sized(200_000, 23)
        };
        let mut fleet = FleetSim::new(&config);
        let healthy = prompt_caches(&t);
        // Cohort 3 (APAC) sees only the baseline; everyone else is fine.
        let starved: Vec<Option<f64>> = healthy
            .iter()
            .enumerate()
            .map(|(v, at)| (v == 0).then(|| at.unwrap()))
            .collect();
        let views = [healthy.clone(), healthy.clone(), healthy.clone(), starved];
        let hours = (t.horizon_secs() / 3_600.0) as u64;
        let rows = (0..hours)
            .map(|hour| fleet.step_hour(hour, &t.publications, &m, &views, None))
            .collect();
        let report = fleet.report(rows);
        let apac = &report.regions[3];
        let europe = &report.regions[2];
        assert_eq!(apac.region, "apac");
        assert!(
            apac.client_weighted_downtime > 0.3,
            "starved APAC must fall off: {apac:?}"
        );
        assert!(
            europe.client_weighted_downtime < 0.01,
            "Europe keeps fetching: {europe:?}"
        );
        // The aggregate sits between the two: APAC's weight of it.
        assert!(report.client_weighted_downtime > 0.05);
        assert!(report.client_weighted_downtime < apac.client_weighted_downtime);
    }
}
