//! The directory cache tier, simulated on `simnet` links.
//!
//! Nodes `0..n_authorities` are authority dirports serving the published
//! documents; nodes `n_authorities..` are directory caches. When a new
//! consensus appears, each cache polls an authority (staggered, with
//! per-cache jitter), asking for the newest document and advertising the
//! version it already holds; the authority answers with a proposal-140
//! diff when the base is within the retain window, the full document
//! otherwise, plus the descriptors of the relays that churned since the
//! cache's base. Slow authorities — DDoS victims, or links ground down
//! by aggregate client load — trigger timeout-driven retries against
//! other authorities, exactly the fetch storm the January 2021 outage
//! report describes.
//!
//! The tier is a *stepped* co-simulation citizen: [`CacheTier`] keeps
//! one `simnet` engine alive across hours, applies its configured
//! attack windows ([`CacheSimConfig::link_windows`]) when it is built,
//! and the session driving it injects each hour's publication
//! ([`CacheTier::publish`]) and fetch-feedback background load
//! ([`CacheTier::set_background_load`]) before advancing simulated time
//! with [`CacheTier::run_to`]. The one-shot [`run`] wrapper
//! replays a whole timeline through the same machinery.
//!
//! Each fact is counted once: wire activity (every fetch attempt is one
//! `DIR_REQ`) is the engine's by-kind count, read by
//! [`CacheTier::traffic`]; arrivals, retries, timeouts and per-hour
//! fetch latency go into one `FetchRecord` the caches share.
//!
//! Client fleets never appear here as nodes; their load arrives in bulk
//! via `simnet`'s background-load mechanism, and their behaviour lives
//! in [`crate::fleet`].

use crate::docmodel::{DocClass, DocTable};
use crate::placement::CachePlacement;
use crate::timeline::ConsensusTimeline;
use partialtor_obs::{span, Histogram, SpanId, TraceEvent, Tracer};
use partialtor_simnet::geo::{self, Region, AUTHORITY_REGIONS};
use partialtor_simnet::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// One node of the distribution tier, as the tier's consumers address
/// it (the simulation's flat `NodeId` space is an internal detail).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TierNode {
    /// Authority dirport `0..n_authorities`.
    Authority(usize),
    /// Directory cache `0..n_caches`.
    Cache(usize),
    /// Every cache the tier's [`CachePlacement`] put in one region — a
    /// regional brownout. Resolves to no caches when the region is
    /// empty under the placement.
    Region(Region),
}

/// A scheduled capacity override on one tier link: the node runs at
/// `bps` for the window and returns to its configured rate afterwards.
///
/// This is deliberately mechanism-level — no flood rates, victim
/// semantics or cost live here. The typed adversary model upstream
/// (`partialtor::adversary::AttackPlan`) lowers its windows onto this
/// shape, and anything else (maintenance windows, regional brownouts)
/// can use it the same way.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkWindow {
    /// Whose link is overridden.
    pub node: TierNode,
    /// Window start, absolute seconds.
    pub start_secs: f64,
    /// Window length, seconds.
    pub duration_secs: f64,
    /// Link bandwidth during the window, bits/s.
    pub bps: f64,
}

/// Authority link rate, bits/s: the paper's estimate (§4.3),
/// 250 Mbit/s.
pub const AUTHORITY_LINK_BPS: f64 = 250e6;

/// Directory-cache link rate, bits/s.
pub const CACHE_LINK_BPS: f64 = 100e6;

/// Cache-tier configuration.
#[derive(Clone, Debug)]
pub struct CacheSimConfig {
    /// Simulation seed.
    pub seed: u64,
    /// Number of authority dirports.
    pub n_authorities: usize,
    /// Number of directory caches.
    pub n_caches: usize,
    /// Aggregate legacy-client load on each authority's uplink, bits/s
    /// (clients that fetch directly instead of via caches).
    pub direct_client_load_bps: f64,
    /// Capacity overrides (DDoS windows lowered from the adversary
    /// model) applied to authority and cache links.
    pub link_windows: Vec<LinkWindow>,
    /// Caches stagger their fetch of a new document over this window.
    pub poll_spread_secs: u64,
    /// A cache that has not received its document after this long asks a
    /// different authority.
    pub retry_secs: u64,
    /// Retries before a cache gives up on one version (it will still
    /// catch up when the next version appears).
    pub max_retries: u32,
    /// Fraction of caches that must hold a version before the fleet
    /// model treats it as fetchable by clients.
    pub quorum: f64,
    /// Where the caches live: regional placements pay the geo model's
    /// inter-region latencies and prefer nearby authorities on
    /// (re)fetch; the default [`CachePlacement::Uniform`] keeps every
    /// cache at the legacy flat worldwide hop.
    pub placement: CachePlacement,
}

impl Default for CacheSimConfig {
    fn default() -> Self {
        CacheSimConfig {
            seed: 1,
            n_authorities: 9,
            n_caches: 200,
            direct_client_load_bps: 0.0,
            link_windows: Vec::new(),
            poll_spread_secs: 120,
            retry_secs: 60,
            max_retries: 4,
            quorum: 0.5,
            placement: CachePlacement::Uniform,
        }
    }
}

/// The serving sizes an authority needs for one published version: the
/// full documents of both classes, and the incremental cost from every
/// earlier base. Computed by the session from its [`DocTable`] and
/// injected at publication time, so the tier itself stays
/// mechanism-level.
#[derive(Clone, Debug)]
pub struct ServeSizes {
    /// Full consensus bytes.
    pub consensus_full: u64,
    /// Full descriptor-set bytes.
    pub descriptors_full: u64,
    /// `base version → (consensus diff bytes if diffable, descriptor
    /// delta bytes)`.
    pub from_base: BTreeMap<usize, (Option<u64>, u64)>,
}

impl ServeSizes {
    /// The serving entry for `version` out of a grown [`DocTable`].
    pub fn for_version(table: &DocTable, version: usize) -> Self {
        let from_base = (0..version)
            .map(|base| {
                let consensus = table.response(DocClass::Consensus, Some(base), version);
                let descriptors = table.response(DocClass::Descriptors, Some(base), version);
                (
                    base,
                    (
                        consensus.is_diff.then_some(consensus.bytes),
                        descriptors.bytes,
                    ),
                )
            })
            .collect();
        ServeSizes {
            consensus_full: table.full_bytes(DocClass::Consensus, version),
            descriptors_full: table.full_bytes(DocClass::Descriptors, version),
            from_base,
        }
    }
}

/// Messages on the directory distribution wire.
#[derive(Clone, Debug)]
enum DirMsg {
    /// Cache → authority: "send me the newest consensus; I hold `have`".
    /// `span` is the raw id of the cache's fetch-attempt trace span
    /// (`0` when tracing is off) so the authority's `Served` event can
    /// link back to the attempt that provoked it; it rides in the
    /// header's [`CONTROL_BYTES`] and never changes the wire size.
    Request { have: Option<usize>, span: u64 },
    /// Authority → cache: a consensus (full or diff) bringing the cache
    /// to `version`, plus the descriptors it lacks.
    Response {
        version: usize,
        bytes: u64,
        desc_bytes: u64,
        is_diff: bool,
    },
    /// Authority → cache: nothing newer than what you hold.
    NotModified,
}

/// Wire cost of a request line / 304 response (headers only).
const CONTROL_BYTES: u64 = 200;

impl Payload for DirMsg {
    fn wire_size(&self) -> u64 {
        match self {
            DirMsg::Request { .. } | DirMsg::NotModified => CONTROL_BYTES,
            DirMsg::Response {
                bytes, desc_bytes, ..
            } => *bytes + *desc_bytes,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            DirMsg::Request { .. } => "DIR_REQ",
            DirMsg::NotModified => "DIR_304",
            DirMsg::Response { is_diff: true, .. } => "DIR_DIFF",
            DirMsg::Response { is_diff: false, .. } => "DIR_FULL",
        }
    }
}

struct AuthorityState {
    /// Committee size, to translate cache `NodeId`s back to ordinals in
    /// telemetry.
    n_authorities: usize,
    latest: Option<usize>,
    /// Per-version serving sizes, injected at publication time.
    serving: Vec<Arc<ServeSizes>>,
    /// Consensus payload bytes served.
    egress_bytes: u64,
    /// What the same consensus responses would have cost served full.
    egress_full_only_bytes: u64,
    /// Descriptor payload bytes served.
    descriptor_egress_bytes: u64,
    tracer: Tracer,
}

struct CacheState {
    /// Ordinal among caches (0-based), used for deterministic authority
    /// rotation.
    ordinal: usize,
    n_authorities: usize,
    /// Authorities in fetch-preference order: nearest-first for a
    /// placed cache, the identity order for an unplaced one (the legacy
    /// rotation). Retries walk this order.
    authority_order: Vec<usize>,
    retry: SimDuration,
    max_retries: u32,
    /// Newest version held.
    held: Option<usize>,
    /// The tier's fetch record, appended to as fetches resolve.
    record: Arc<Mutex<FetchRecord>>,
    /// When each version was published, so receives can be turned into
    /// fetch latencies on the spot.
    published_at: Vec<f64>,
    attempts: Vec<u32>,
    /// Span of each version's publication event (the sentinel when
    /// tracing is off) — the causal root of the version's fetch chain.
    publication_spans: Vec<SpanId>,
    /// Span of the most recent fetch attempt per version, so retries
    /// and timeouts can link to the attempt they follow.
    last_attempt: Vec<SpanId>,
    tracer: Tracer,
}

/// What the caches record as their fetches resolve, shared by all of
/// them so a receive takes one lock. Caches append; the tier reads.
#[derive(Default)]
pub(crate) struct FetchRecord {
    /// Per version, the `(second, cache)` pairs at which each cache first
    /// held it or a newer one, in arrival order — time order without a
    /// sort, since held versions are always the prefix `0..=held` and
    /// simulated time only moves forward.
    arrivals: Vec<Vec<(f64, usize)>>,
    /// Attempts after a version's first poll.
    pub(crate) retries: u64,
    /// Versions a cache gave up on after exhausting its retries.
    pub(crate) timeouts: u64,
    /// Publication → receive latency, one histogram per receive hour.
    pub(crate) latency: Vec<Histogram>,
}

/// Timer tags: `2 * version` polls (cache) / publications (authority),
/// `2 * version + 1` retries.
fn poll_tag(version: usize) -> u64 {
    2 * version as u64
}
fn retry_tag(version: usize) -> u64 {
    2 * version as u64 + 1
}

enum DistNode {
    Authority(AuthorityState),
    Cache(CacheState),
}

impl CacheState {
    fn request(&mut self, ctx: &mut Context<'_, DirMsg>, version: usize, cause: Option<SpanId>) {
        self.attempts[version] += 1;
        // Rotate deterministically over the preference order so retries
        // escape a stalled victim (nearest-first for placed caches).
        let pick = self.authority_order
            [(self.ordinal + version + self.attempts[version] as usize - 1) % self.n_authorities];
        let attempt_span = self.tracer.record_caused(
            TraceEvent::FetchAttempt {
                at_secs: ctx.now().as_secs_f64(),
                cache: self.ordinal as u64,
                authority: pick as u64,
                version: version as u64,
                attempt: self.attempts[version] as u64,
            },
            cause,
        );
        self.last_attempt[version] = attempt_span;
        ctx.send(
            NodeId(pick),
            DirMsg::Request {
                have: self.held,
                span: attempt_span.0,
            },
        );
        ctx.set_timer(self.retry, retry_tag(version));
    }

    fn wants(&self, version: usize) -> bool {
        self.held.is_none_or(|held| held < version)
    }
}

impl Node for DistNode {
    type Msg = DirMsg;

    fn on_start(&mut self, _ctx: &mut Context<'_, DirMsg>) {
        // Publications are injected by the driving session; nothing is
        // known at construction time.
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, DirMsg>, tag: u64) {
        let version = (tag / 2) as usize;
        match self {
            DistNode::Authority(auth) => {
                // Publication: the authority now serves `version`.
                if auth.latest.is_none_or(|l| l < version) {
                    auth.latest = Some(version);
                }
            }
            DistNode::Cache(cache) => {
                if !cache.wants(version) {
                    return;
                }
                if tag.is_multiple_of(2) {
                    // First poll for this version, caused by its
                    // publication.
                    let publication = cache.publication_spans[version].recorded();
                    cache.request(ctx, version, publication);
                } else if cache.attempts[version] <= cache.max_retries {
                    // Retry against the next authority; the retry is
                    // caused by the attempt that went unanswered, and
                    // in turn causes the next attempt.
                    cache.record.lock().expect("fetch record").retries += 1;
                    let retry_span = cache.tracer.record_caused(
                        TraceEvent::FetchRetry {
                            at_secs: ctx.now().as_secs_f64(),
                            cache: cache.ordinal as u64,
                            version: version as u64,
                            attempt: cache.attempts[version] as u64 + 1,
                        },
                        cache.last_attempt[version].recorded(),
                    );
                    cache.request(ctx, version, retry_span.recorded());
                } else {
                    // Out of retries; the cache gives up on this version
                    // (it still catches up when a newer one appears).
                    cache.record.lock().expect("fetch record").timeouts += 1;
                    cache.tracer.record_caused(
                        TraceEvent::FetchTimeout {
                            at_secs: ctx.now().as_secs_f64(),
                            cache: cache.ordinal as u64,
                            version: version as u64,
                            attempts: cache.attempts[version] as u64,
                        },
                        cache.last_attempt[version].recorded(),
                    );
                }
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, DirMsg>, from: NodeId, msg: DirMsg) {
        match (self, msg) {
            (DistNode::Authority(auth), DirMsg::Request { have, span }) => match auth.latest {
                Some(latest) if have.is_none_or(|h| h < latest) => {
                    let entry = &auth.serving[latest];
                    let (bytes, desc_bytes, is_diff) =
                        match have.and_then(|h| entry.from_base.get(&h)) {
                            Some(&(Some(diff), desc)) => (diff, desc, true),
                            Some(&(None, desc)) => (entry.consensus_full, desc, false),
                            None => (entry.consensus_full, entry.descriptors_full, false),
                        };
                    auth.egress_bytes += bytes;
                    auth.egress_full_only_bytes += entry.consensus_full;
                    auth.descriptor_egress_bytes += desc_bytes;
                    auth.tracer.record_caused(
                        TraceEvent::Served {
                            at_secs: ctx.now().as_secs_f64(),
                            authority: ctx.id().index() as u64,
                            cache: (from.index() - auth.n_authorities) as u64,
                            version: latest as u64,
                            response: if is_diff { "diff" } else { "full" },
                            bytes: bytes + desc_bytes,
                        },
                        SpanId(span).recorded(),
                    );
                    ctx.send(
                        from,
                        DirMsg::Response {
                            version: latest,
                            bytes,
                            desc_bytes,
                            is_diff,
                        },
                    );
                }
                _ => ctx.send(from, DirMsg::NotModified),
            },
            (DistNode::Cache(cache), DirMsg::Response { version, .. })
                if cache.held.is_none_or(|h| h < version) =>
            {
                let first_new = cache.held.map_or(0, |held| held + 1);
                cache.held = Some(version);
                let now = ctx.now().as_secs_f64();
                // Fetch latency: publication → the document landing on
                // this cache, keyed by the receive hour.
                let hour = (now / 3_600.0) as usize;
                let mut record = cache.record.lock().expect("fetch record");
                if record.latency.len() <= hour {
                    record.latency.resize_with(hour + 1, Histogram::new);
                }
                record.latency[hour].observe(now - cache.published_at[version]);
                for arrivals in &mut record.arrivals[first_new..=version] {
                    arrivals.push((now, cache.ordinal));
                }
            }
            _ => {}
        }
    }
}

/// Per-version cache-tier outcome.
#[derive(Clone, Debug, Serialize)]
pub struct VersionAvailability {
    /// Version index.
    pub version: usize,
    /// Second at which a quorum of caches held the version, if ever.
    pub cached_at_secs: Option<f64>,
    /// Fraction of caches that eventually held it.
    pub cache_coverage: f64,
}

/// Result of one cache-tier simulation.
#[derive(Clone, Debug, Serialize)]
pub struct CacheTierReport {
    /// Per-version availability at the cache tier.
    pub versions: Vec<VersionAvailability>,
    /// Consensus payload bytes served by all authorities (requests
    /// answered with diffs where possible).
    pub authority_egress_bytes: u64,
    /// What the same responses would have cost without proposal 140.
    pub authority_egress_full_only_bytes: u64,
    /// Descriptor payload bytes served by all authorities.
    pub authority_descriptor_egress_bytes: u64,
    /// Responses served as full documents: the engine's `DIR_FULL`
    /// by-kind count, the counter the per-hour [`TierHourTraffic`] deltas read.
    pub full_responses: u64,
    /// Responses served as diffs: the engine's `DIR_DIFF` by-kind count.
    pub diff_responses: u64,
}

/// Tier wire activity from the engine's by-kind counters: cumulative in
/// [`CacheTier::traffic`], per-hour deltas (the fetch-rate signature) in
/// [`HourReport`](crate::HourReport).
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct TierHourTraffic {
    /// `DIR_REQ` requests enqueued, one per cache fetch attempt.
    pub dir_requests: u64,
    /// `DIR_DIFF` responses enqueued.
    pub dir_diff_responses: u64,
    /// `DIR_FULL` responses enqueued.
    pub dir_full_responses: u64,
    /// `DIR_304` responses enqueued.
    pub dir_not_modified: u64,
    /// Engine bookkeeping events that arrived dead: stale link
    /// completions after rate changes.
    pub expired_events: u64,
}

/// The stepped cache tier: one live `simnet` engine, driven hour by
/// hour by a [`DistSession`](crate::DistSession) (or in one shot by
/// [`run`]).
pub struct CacheTier {
    sim: Simulation<DistNode>,
    config: CacheSimConfig,
    /// Region of each cache under the configured placement (`None` =
    /// unplaced/worldwide).
    cache_regions: Vec<Option<Region>>,
    /// Per-cache poll jitter draws, owned by the tier so publication
    /// injection stays deterministic regardless of when hours step.
    jitter_rng: StdRng,
    /// Structured trace sink shared with every node. Telemetry is purely
    /// observational: no RNG draw or event depends on it, so a disabled
    /// and an enabled tier run event-for-event identically.
    tracer: Tracer,
    /// The fetch record, shared with every cache.
    record: Arc<Mutex<FetchRecord>>,
}

/// Region of authority `index` (cycling the nine-authority layout for
/// scaled committees, matching `scaled_topology`).
fn authority_region(index: usize) -> Region {
    AUTHORITY_REGIONS[index % AUTHORITY_REGIONS.len()]
}

/// The authority preference order of a cache in `region`: nearest-first
/// by the geo midpoints for a placed cache (ties by index), the
/// identity order — the legacy rotation — for an unplaced one.
fn authority_preference(region: Option<Region>, n_authorities: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n_authorities).collect();
    if let Some(region) = region {
        order.sort_by(|&a, &b| {
            let la = geo::midpoint_ms(region, authority_region(a));
            let lb = geo::midpoint_ms(region, authority_region(b));
            la.partial_cmp(&lb).expect("finite latency").then(a.cmp(&b))
        });
    }
    order
}

impl CacheTier {
    /// Builds the tier: authorities in the measured authority topology,
    /// caches at the latencies their [`CachePlacement`] implies (the
    /// flat worldwide hop when unplaced), static legacy-client load
    /// on the authority uplinks, and any up-front link windows applied.
    /// Every node shares `tracer` (pass [`Tracer::disabled`] for none),
    /// so up-front link windows and all wire activity are traced from
    /// the first event.
    ///
    /// # Panics
    ///
    /// Panics if `config.n_authorities` is zero.
    pub fn new(config: &CacheSimConfig, tracer: Tracer) -> Self {
        assert!(config.n_authorities > 0, "need at least one authority");
        let n = config.n_authorities + config.n_caches;
        let cache_regions = config.placement.regions(config.n_caches);
        let record = Arc::<Mutex<FetchRecord>>::default();

        let nodes: Vec<DistNode> = (0..n)
            .map(|index| {
                if index < config.n_authorities {
                    DistNode::Authority(AuthorityState {
                        n_authorities: config.n_authorities,
                        latest: None,
                        serving: Vec::new(),
                        egress_bytes: 0,
                        egress_full_only_bytes: 0,
                        descriptor_egress_bytes: 0,
                        tracer: tracer.clone(),
                    })
                } else {
                    let ordinal = index - config.n_authorities;
                    DistNode::Cache(CacheState {
                        ordinal,
                        n_authorities: config.n_authorities,
                        authority_order: authority_preference(
                            cache_regions[ordinal],
                            config.n_authorities,
                        ),
                        retry: SimDuration::from_secs(config.retry_secs),
                        max_retries: config.max_retries,
                        held: None,
                        record: Arc::clone(&record),
                        published_at: Vec::new(),
                        attempts: Vec::new(),
                        publication_spans: Vec::new(),
                        last_attempt: Vec::new(),
                        tracer: tracer.clone(),
                    })
                }
            })
            .collect();

        // Authorities sit in the measured authority topology; every
        // link touching a cache gets the geo model's hop for the two
        // endpoints' regions (authorities are placed per the live
        // layout; unplaced caches keep the legacy worldwide hop).
        let auth_topo = if config.n_authorities == 9 {
            authority_topology(config.seed)
        } else {
            scaled_topology(config.n_authorities, config.seed)
        };
        let region_of = |index: usize| -> Option<Region> {
            if index < config.n_authorities {
                Some(authority_region(index))
            } else {
                cache_regions[index - config.n_authorities]
            }
        };
        let topo = LatencyMatrix::from_fn(n, |a, b| {
            if a < config.n_authorities && b < config.n_authorities {
                auth_topo.get(NodeId(a), NodeId(b))
            } else {
                let hop_ms = geo::hop_ms(region_of(a), region_of(b));
                SimDuration::from_micros((hop_ms * 1_000.0).round() as u64)
            }
        });

        let mut sim = Simulation::new(
            topo,
            nodes,
            SimConfig {
                seed: config.seed,
                default_up_bps: CACHE_LINK_BPS,
                default_down_bps: CACHE_LINK_BPS,
                wire_overhead_bytes: 64,
                latency_jitter: 0.0,
            },
        );

        // Authority links are wider than cache links; set them
        // explicitly, then layer legacy-client background load and the
        // up-front attack windows on top.
        for a in 0..config.n_authorities {
            sim.schedule_bandwidth_change(
                SimTime::ZERO,
                NodeId(a),
                Some(AUTHORITY_LINK_BPS),
                Some(AUTHORITY_LINK_BPS),
            );
            if config.direct_client_load_bps > 0.0 {
                sim.schedule_background_load(
                    SimTime::ZERO,
                    NodeId(a),
                    Some(config.direct_client_load_bps),
                    None,
                );
            }
        }

        let mut tier = CacheTier {
            sim,
            config: config.clone(),
            cache_regions,
            jitter_rng: StdRng::seed_from_u64(config.seed ^ 0x00ca_c4e5_7a66),
            tracer,
            record,
        };
        let windows = tier.config.link_windows.clone();
        tier.apply_windows(&windows);
        tier
    }

    /// Injects a publication: from `available_at_secs` on, every
    /// authority serves `version` with `sizes`, and each cache polls for
    /// it at a jittered offset (retries are the caches' own business).
    /// Returns the publication's trace span (the unrecorded sentinel
    /// when tracing is off) — the causal root every downstream fetch
    /// event of this version links back to.
    ///
    /// Versions must be published in order, at times not earlier than
    /// the tier's current simulated time.
    pub fn publish(&mut self, version: usize, available_at_secs: f64, sizes: ServeSizes) -> SpanId {
        let mut record = self.fetches();
        assert_eq!(
            version,
            record.arrivals.len(),
            "versions must be published in order"
        );
        record
            .arrivals
            .push(Vec::with_capacity(self.config.n_caches));
        drop(record);
        let publication_span = self.tracer.record(TraceEvent::Publication {
            at_secs: available_at_secs,
            version: version as u64,
        });
        let at = SimTime::from_micros((available_at_secs * 1e6) as u64);
        let n_authorities = self.config.n_authorities;
        let sizes = Arc::new(sizes);
        for index in 0..n_authorities + self.config.n_caches {
            match self.sim.node_mut(NodeId(index)) {
                DistNode::Authority(auth) => {
                    debug_assert_eq!(auth.serving.len(), version);
                    auth.serving.push(Arc::clone(&sizes));
                }
                DistNode::Cache(cache) => {
                    cache.published_at.push(available_at_secs);
                    cache.attempts.push(0);
                    cache.publication_spans.push(publication_span);
                    cache.last_attempt.push(SpanId::NONE);
                }
            }
        }
        for a in 0..n_authorities {
            self.sim.schedule_timer(at, NodeId(a), poll_tag(version));
        }
        // One poll per cache, staggered so the tier does not stampede
        // the authorities the instant a document appears.
        let spread = self.config.poll_spread_secs.max(6);
        for c in 0..self.config.n_caches {
            let jitter = self.jitter_rng.gen_range(5..=spread);
            self.sim.schedule_timer(
                at + SimDuration::from_secs(jitter),
                NodeId(n_authorities + c),
                poll_tag(version),
            );
        }
        publication_span
    }

    /// Applies capacity-override windows (attack windows lowered from
    /// the adversary model, maintenance, regional brownouts) to tier
    /// links. A [`TierNode::Region`] window expands to every cache the
    /// placement put in that region. Windows may start in the simulated
    /// future; windows for nodes the tier does not have are ignored.
    fn apply_windows(&mut self, windows: &[LinkWindow]) {
        for window in windows {
            let targets: Vec<(NodeId, f64)> = match window.node {
                TierNode::Authority(i) if i < self.config.n_authorities => {
                    vec![(NodeId(i), AUTHORITY_LINK_BPS)]
                }
                TierNode::Cache(i) if i < self.config.n_caches => {
                    vec![(NodeId(self.config.n_authorities + i), CACHE_LINK_BPS)]
                }
                TierNode::Region(region) => self
                    .cache_regions
                    .iter()
                    .enumerate()
                    .filter(|&(_, r)| *r == Some(region))
                    .map(|(i, _)| (NodeId(self.config.n_authorities + i), CACHE_LINK_BPS))
                    .collect(),
                _ => continue,
            };
            let start = SimTime::from_micros((window.start_secs * 1e6) as u64);
            let end =
                SimTime::from_micros(((window.start_secs + window.duration_secs) * 1e6) as u64);
            for (node, restore_bps) in targets {
                let opened = self.tracer.record(TraceEvent::LinkWindow {
                    at_secs: window.start_secs,
                    node: node.index() as u64,
                    open: true,
                    bps: window.bps,
                });
                self.tracer.record_caused(
                    TraceEvent::LinkWindow {
                        at_secs: window.start_secs + window.duration_secs,
                        node: node.index() as u64,
                        open: false,
                        bps: restore_bps,
                    },
                    opened.recorded(),
                );
                self.sim
                    .schedule_bandwidth_change(start, node, Some(window.bps), Some(window.bps));
                self.sim
                    .schedule_bandwidth_change(end, node, Some(restore_bps), Some(restore_bps));
            }
        }
    }

    /// Schedules the fetch-feedback background load that takes effect at
    /// `at_secs`: `authority_bps` lands on each authority uplink *on
    /// top of* the static legacy-client load, `cache_up_bps` on each
    /// cache uplink (the fleet downloading from the caches) and
    /// `cache_down_bps` on each cache downlink (the fleet's request
    /// traffic arriving).
    pub fn set_background_load(
        &mut self,
        at_secs: f64,
        authority_bps: f64,
        cache_up_bps: f64,
        cache_down_bps: f64,
    ) {
        let at = SimTime::from_micros((at_secs * 1e6) as u64);
        for a in 0..self.config.n_authorities {
            self.sim.schedule_background_load(
                at,
                NodeId(a),
                Some(self.config.direct_client_load_bps + authority_bps),
                None,
            );
        }
        for c in 0..self.config.n_caches {
            self.sim.schedule_background_load(
                at,
                NodeId(self.config.n_authorities + c),
                Some(cache_up_bps),
                Some(cache_down_bps),
            );
        }
    }

    /// Advances the tier's simulated time to `t_secs`.
    pub fn run_to(&mut self, t_secs: f64) {
        let _span = span("tier.run_to");
        self.sim
            .run_until(SimTime::from_micros((t_secs * 1e6) as u64));
    }

    /// Events the tier's engine has processed so far: the simulated
    /// network's whole work, counted exactly.
    pub fn events_processed(&self) -> u64 {
        self.sim.events_processed()
    }

    /// The tier's wire activity so far: the engine's by-kind message
    /// counts and its expired events.
    pub fn traffic(&self) -> TierHourTraffic {
        let metrics = self.sim.metrics();
        let sent = |kind: &str| metrics.kind(kind).count;
        TierHourTraffic {
            dir_requests: sent("DIR_REQ"),
            dir_diff_responses: sent("DIR_DIFF"),
            dir_full_responses: sent("DIR_FULL"),
            dir_not_modified: sent("DIR_304"),
            expired_events: metrics.expired_events(),
        }
    }

    /// The caches' shared fetch record as of the tier's current time.
    pub(crate) fn fetches(&self) -> MutexGuard<'_, FetchRecord> {
        self.record.lock().expect("fetch record")
    }

    /// When each version reached the cache quorum, as of the tier's
    /// current simulated time (`None` = not yet).
    pub fn cached_at(&self) -> Vec<Option<f64>> {
        self.availability()
            .into_iter()
            .map(|v| v.cached_at_secs)
            .collect()
    }

    /// When each version reached quorum *among the given caches* — the
    /// availability a regional cohort experiences against its serving
    /// set (`cached_at` over the whole tier is the `serving = all`
    /// case). The quorum fraction applies to the serving set's size;
    /// `serving` lists distinct cache ordinals.
    pub fn cached_at_for(&self, serving: &[usize]) -> Vec<Option<f64>> {
        let quorum_count = ((serving.len() as f64 * self.config.quorum).ceil() as usize).max(1);
        let mut member = vec![false; self.config.n_caches];
        serving.iter().for_each(|&cache| member[cache] = true);
        self.fetches()
            .arrivals
            .iter()
            .map(|arrivals| {
                arrivals
                    .iter()
                    .filter(|&&(_, cache)| member[cache])
                    .nth(quorum_count - 1)
                    .map(|&(at, _)| at)
            })
            .collect()
    }

    /// Region of each cache under the configured placement.
    pub fn cache_regions(&self) -> &[Option<Region>] {
        &self.cache_regions
    }

    /// Per-version availability as of the tier's current simulated time.
    fn availability(&self) -> Vec<VersionAvailability> {
        let quorum_count =
            ((self.config.n_caches as f64 * self.config.quorum).ceil() as usize).max(1);
        self.fetches()
            .arrivals
            .iter()
            .enumerate()
            .map(|(version, arrivals)| VersionAvailability {
                version,
                cached_at_secs: arrivals.get(quorum_count - 1).map(|&(at, _)| at),
                cache_coverage: arrivals.len() as f64 / self.config.n_caches.max(1) as f64,
            })
            .collect()
    }

    /// The tier's cumulative report as of its current simulated time.
    pub fn report(&self) -> CacheTierReport {
        let mut egress = 0u64;
        let mut egress_full_only = 0u64;
        let mut desc_egress = 0u64;
        for index in 0..self.config.n_authorities {
            if let DistNode::Authority(auth) = self.sim.node(NodeId(index)) {
                egress += auth.egress_bytes;
                egress_full_only += auth.egress_full_only_bytes;
                desc_egress += auth.descriptor_egress_bytes;
            }
        }
        let traffic = self.traffic();
        CacheTierReport {
            versions: self.availability(),
            authority_egress_bytes: egress,
            authority_egress_full_only_bytes: egress_full_only,
            authority_descriptor_egress_bytes: desc_egress,
            full_responses: traffic.dir_full_responses,
            diff_responses: traffic.dir_diff_responses,
        }
    }
}

/// Runs the cache tier against a whole timeline and document table in
/// one shot: the batch view of the same stepped machinery. Publications
/// are injected at hour boundaries exactly as a stepping session would
/// inject them, so batch and stepped runs are event-for-event
/// identical.
pub fn run(
    config: &CacheSimConfig,
    timeline: &ConsensusTimeline,
    table: &DocTable,
) -> CacheTierReport {
    let mut tier = CacheTier::new(config, Tracer::disabled());
    let hours = (timeline.horizon_secs() / 3_600.0).ceil() as u64;
    let mut published = 0;
    for hour in 0..hours {
        let hour_end = ((hour + 1) * 3_600) as f64;
        while published < timeline.publications.len()
            && timeline.publications[published].available_at_secs < hour_end
        {
            let publication = &timeline.publications[published];
            tier.publish(
                publication.version,
                publication.available_at_secs,
                ServeSizes::for_version(table, publication.version),
            );
            published += 1;
        }
        tier.run_to(hour_end);
    }
    tier.run_to(timeline.horizon_secs() + 1_800.0);
    tier.report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::docmodel::DocModel;
    use crate::timeline::ConsensusTimeline;
    use proptest::prelude::*;

    fn healthy_timeline(hours: u64) -> ConsensusTimeline {
        let outcomes: Vec<Option<f64>> = (0..hours).map(|_| Some(330.0)).collect();
        ConsensusTimeline::from_hourly_outcomes(&outcomes, 3_600, 10_800)
    }

    fn config(n_caches: usize) -> CacheSimConfig {
        CacheSimConfig {
            seed: 7,
            n_caches,
            ..CacheSimConfig::default()
        }
    }

    fn table_for(timeline: &ConsensusTimeline) -> DocTable {
        let model = DocModel::synthetic(8_000);
        let mut table = DocTable::new();
        for publication in &timeline.publications {
            table.push_version(&model, publication.hour, 0.02 * publication.hour as f64, 3);
        }
        table
    }

    #[test]
    fn healthy_tier_caches_every_version_promptly() {
        let timeline = healthy_timeline(4);
        let report = run(&config(40), &timeline, &table_for(&timeline));
        assert_eq!(report.versions.len(), 5);
        for (publication, version) in timeline.publications.iter().zip(&report.versions) {
            let cached = version.cached_at_secs.expect("version reaches quorum");
            assert!(
                cached > publication.available_at_secs
                    && cached < publication.available_at_secs + 600.0,
                "version {} cached at {cached}, published {}",
                version.version,
                publication.available_at_secs
            );
            assert!(version.cache_coverage > 0.9);
        }
    }

    #[test]
    fn diffs_dominate_steady_state_and_slash_egress() {
        let timeline = healthy_timeline(6);
        let report = run(&config(40), &timeline, &table_for(&timeline));
        assert!(
            report.diff_responses > report.full_responses,
            "steady-state caches fetch diffs: {} diff vs {} full",
            report.diff_responses,
            report.full_responses
        );
        assert!(
            report.authority_egress_bytes * 3 < report.authority_egress_full_only_bytes,
            "proposal 140 must cut authority egress: {} vs {}",
            report.authority_egress_bytes,
            report.authority_egress_full_only_bytes
        );
        // Descriptor traffic rides along: bootstraps move the full set,
        // steady-state fetches only the churned slice.
        assert!(report.authority_descriptor_egress_bytes > 0);
    }

    #[test]
    fn caches_route_around_attacked_authorities() {
        let timeline = healthy_timeline(2);
        let mut cfg = config(30);
        // Five of nine victims saturated across the whole fetch window.
        cfg.link_windows = (0..5)
            .map(|i| LinkWindow {
                node: TierNode::Authority(i),
                start_secs: 0.0,
                duration_secs: timeline.horizon_secs(),
                bps: 0.5e6,
            })
            .collect();
        let report = run(&cfg, &timeline, &table_for(&timeline));
        for version in &report.versions {
            assert!(
                version.cached_at_secs.is_some(),
                "retries must reach the four healthy authorities: {version:?}"
            );
        }
    }

    #[test]
    fn dead_cache_majority_blocks_the_quorum() {
        let timeline = healthy_timeline(1);
        let mut cfg = config(20);
        let healthy = run(&cfg, &timeline, &table_for(&timeline));
        assert!(healthy.versions[1].cached_at_secs.is_some());
        // Knock 16 of 20 cache links fully offline from the publication
        // until past the end of the simulated horizon (stalled pipes
        // resume when bandwidth returns, so the window must outlive the
        // run): at most 4 caches can hold version 1 — under the 50 %
        // quorum.
        cfg.link_windows = (0..16)
            .map(|i| LinkWindow {
                node: TierNode::Cache(i),
                start_secs: 3_600.0,
                duration_secs: 6_000.0,
                bps: 0.0,
            })
            .collect();
        let attacked = run(&cfg, &timeline, &table_for(&timeline));
        assert!(
            attacked.versions[1].cached_at_secs.is_none(),
            "a dead cache majority must keep the version below quorum: {:?}",
            attacked.versions[1]
        );
        assert!(attacked.versions[1].cache_coverage <= 0.25);
    }

    #[test]
    fn background_load_delays_but_does_not_break_the_tier() {
        let timeline = healthy_timeline(1);
        let mut slow = config(30);
        // Legacy direct fetchers grind each authority down to a trickle.
        slow.direct_client_load_bps = 249.5e6;
        let fast = run(&config(30), &timeline, &table_for(&timeline));
        let loaded = run(&slow, &timeline, &table_for(&timeline));
        let fast_at = fast.versions[0].cached_at_secs.unwrap();
        let loaded_at = loaded.versions[0].cached_at_secs.unwrap();
        assert!(
            loaded_at > fast_at,
            "aggregate client load must slow the bootstrap fetch: {loaded_at} vs {fast_at}"
        );
    }

    /// The stepped tier and the one-shot wrapper must be the same
    /// machinery: publishing hour by hour with `run_to` in between gives
    /// byte-identical reports.
    #[test]
    fn stepped_and_batch_tier_agree() {
        let timeline = healthy_timeline(3);
        let table = table_for(&timeline);
        let batch = run(&config(25), &timeline, &table);

        let mut tier = CacheTier::new(&config(25), Tracer::disabled());
        let mut published = 0;
        for hour in 0..=4u64 {
            while published < timeline.publications.len()
                && timeline.publications[published].available_at_secs < ((hour + 1) * 3_600) as f64
            {
                let publication = &timeline.publications[published];
                tier.publish(
                    publication.version,
                    publication.available_at_secs,
                    ServeSizes::for_version(&table, publication.version),
                );
                published += 1;
            }
            tier.run_to(((hour + 1) * 3_600) as f64);
        }
        tier.run_to(timeline.horizon_secs() + 1_800.0);
        let stepped = tier.report();
        assert_eq!(format!("{batch:?}"), format!("{stepped:?}"));
    }

    #[test]
    fn placed_caches_prefer_nearby_authorities() {
        // A European cache walks the five European authorities first,
        // then US-East, then faravahar; an unplaced cache keeps the
        // legacy identity rotation.
        assert_eq!(
            authority_preference(Some(Region::Europe), 9),
            vec![1, 2, 3, 4, 5, 0, 6, 7, 8]
        );
        assert_eq!(
            authority_preference(None, 9),
            (0..9).collect::<Vec<usize>>()
        );
        // US-West: faravahar first, then the East-Coast three.
        assert_eq!(authority_preference(Some(Region::UsWest), 9)[0], 8);
        // APAC has no local authority; US-West is nearest.
        assert_eq!(authority_preference(Some(Region::Apac), 9)[0], 8);
    }

    /// A regional brownout ([`TierNode::Region`]) kills exactly the
    /// placed caches of that region: the browned-out region's serving
    /// set never reaches quorum while the others cache normally.
    #[test]
    fn regional_brownout_starves_only_its_region() {
        let timeline = healthy_timeline(1);
        let mut cfg = config(20);
        cfg.placement = CachePlacement::ClientWeighted;
        cfg.link_windows = vec![LinkWindow {
            node: TierNode::Region(Region::Europe),
            start_secs: 3_600.0,
            duration_secs: 6_000.0,
            bps: 0.0,
        }];
        let tier_regions = cfg.placement.regions(cfg.n_caches);
        let europe: Vec<usize> =
            crate::placement::serving_caches(&tier_regions, Some(Region::Europe));
        let us_east: Vec<usize> =
            crate::placement::serving_caches(&tier_regions, Some(Region::UsEast));
        assert!(europe.len() >= 9 && !us_east.is_empty());

        let mut tier = CacheTier::new(&cfg, Tracer::disabled());
        let table = table_for(&timeline);
        for publication in &timeline.publications {
            tier.publish(
                publication.version,
                publication.available_at_secs,
                ServeSizes::for_version(&table, publication.version),
            );
        }
        tier.run_to(timeline.horizon_secs() + 1_800.0);
        let europe_at = tier.cached_at_for(&europe);
        let us_east_at = tier.cached_at_for(&us_east);
        assert!(
            europe_at[1].is_none(),
            "browned-out Europe must miss version 1: {europe_at:?}"
        );
        assert!(
            us_east_at[1].is_some(),
            "US-East caches are untouched: {us_east_at:?}"
        );
        // Europe holds 9 of the 20 client-weighted caches — the other
        // 11 still make the whole-tier 50 % quorum, so the aggregate
        // view hides the regional starvation entirely. This is exactly
        // why cohorts step against per-region serving sets.
        assert!(tier.cached_at()[1].is_some());
    }

    /// Placement changes latency but not correctness: a fully placed
    /// tier still caches every version, and the all-same-region tier's
    /// local fetches beat the unplaced tier's worldwide hops.
    #[test]
    fn placed_tier_caches_faster_than_the_worldwide_one() {
        let timeline = healthy_timeline(2);
        let table = table_for(&timeline);
        let run_with = |placement: CachePlacement| {
            let cfg = CacheSimConfig {
                placement,
                ..config(20)
            };
            run(&cfg, &timeline, &table)
        };
        let unplaced = run_with(CachePlacement::Uniform);
        let european = run_with(CachePlacement::SingleRegion(Region::Europe));
        for (u, e) in unplaced.versions.iter().zip(&european.versions) {
            assert!(u.cached_at_secs.is_some() && e.cached_at_secs.is_some());
            assert!(e.cache_coverage > 0.9);
        }
        // Version 1 is fetched fresh by everyone (version 0's quorum
        // time includes the poll stagger): the European tier, 14 ms
        // from its five nearest authorities, beats the 60 ms worldwide
        // tier to quorum.
        let (u1, e1) = (
            unplaced.versions[1].cached_at_secs.unwrap(),
            european.versions[1].cached_at_secs.unwrap(),
        );
        assert!(
            e1 < u1,
            "regional tier must reach quorum sooner: {e1} vs {u1}"
        );
    }

    #[test]
    fn tier_is_deterministic_for_a_seed() {
        let timeline = healthy_timeline(3);
        let table = table_for(&timeline);
        let a = run(&config(25), &timeline, &table);
        let b = run(&config(25), &timeline, &table);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    /// The batch entry point's whole report, pinned by the SHA-256 of
    /// its `Debug` rendering: one flooded authority for half an hour,
    /// so the full and diff response counts are both exercised.
    #[test]
    fn batch_report_is_pinned() {
        let timeline = healthy_timeline(4);
        let mut cfg = config(30);
        cfg.link_windows = vec![LinkWindow {
            node: TierNode::Authority(2),
            start_secs: 3_600.0,
            duration_secs: 1_800.0,
            bps: 0.5e6,
        }];
        let report = run(&cfg, &timeline, &table_for(&timeline));
        assert!(report.full_responses > 0 && report.diff_responses > 0);
        let rendered = format!("{report:?}");
        assert_eq!(
            partialtor_crypto::sha256::digest(rendered.as_bytes()).to_hex(),
            "965f6bc6a4500be2db090202d67a569c6d65c9721151be488b60262239f25510"
        );
    }

    /// Each cache's first-hold second per version (`None` = not yet),
    /// read back out of the arrival record into the per-cache shape the
    /// oracle consumes. Checks on the way that every cache appears once
    /// for exactly the versions `0..=held`.
    fn received_at(tier: &CacheTier) -> Vec<Vec<Option<f64>>> {
        let arrivals = &tier.fetches().arrivals;
        let mut received = vec![vec![None; arrivals.len()]; tier.config.n_caches];
        for (version, record) in arrivals.iter().enumerate() {
            for &(at, cache) in record {
                assert!(received[cache][version].replace(at).is_none());
            }
        }
        for (cache, times) in received.iter().enumerate() {
            let DistNode::Cache(state) = tier.sim.node(NodeId(tier.config.n_authorities + cache))
            else {
                unreachable!("nodes past the authorities are caches")
            };
            let held = state.held.map_or(0, |held| held + 1);
            for (version, at) in times.iter().enumerate() {
                assert_eq!(at.is_some(), version < held, "cache {cache} v{version}");
            }
        }
        received
    }

    /// The rebuild-and-sort computation the arrival record replaced:
    /// gather the serving caches' receive times per version, sort them,
    /// take the quorum-th.
    fn oracle_cached_at_for(
        received_at: &[Vec<Option<f64>>],
        serving: &[usize],
        quorum: f64,
    ) -> Vec<Option<f64>> {
        let quorum_count = ((serving.len() as f64 * quorum).ceil() as usize).max(1);
        (0..received_at[0].len())
            .map(|version| {
                let mut times: Vec<f64> = serving
                    .iter()
                    .filter_map(|&cache| received_at[cache][version])
                    .collect();
                times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
                (times.len() >= quorum_count).then(|| times[quorum_count - 1])
            })
            .collect()
    }

    /// The oracle's whole-tier availability, coverage included.
    fn oracle_availability(
        received_at: &[Vec<Option<f64>>],
        quorum: f64,
    ) -> Vec<VersionAvailability> {
        let all: Vec<usize> = (0..received_at.len()).collect();
        oracle_cached_at_for(received_at, &all, quorum)
            .into_iter()
            .enumerate()
            .map(|(version, cached_at_secs)| VersionAvailability {
                version,
                cached_at_secs,
                cache_coverage: received_at.iter().filter(|c| c[version].is_some()).count() as f64
                    / received_at.len() as f64,
            })
            .collect()
    }

    fn bits(times: &[Option<f64>]) -> Vec<Option<u64>> {
        times.iter().map(|t| t.map(f64::to_bits)).collect()
    }

    proptest! {
        /// The arrival-record queries equal the rebuild-and-sort oracle
        /// bit for bit after every `run_to`, on random tiers: placements,
        /// authority / cache / regional link windows (long, dead ones
        /// exhaust retries), skipped hours and publication offsets.
        #[test]
        fn availability_queries_match_the_sorting_oracle(
            seed in 0u64..1_000,
            n_caches in 1usize..=40,
            placement in 0usize..5,
            max_retries in 0u32..=4,
            quorum in 0.05f64..=1.0,
            hours in 1usize..=30,
            publications in proptest::collection::vec((any::<bool>(), 0.0f64..3_500.0), 30),
            windows in proptest::collection::vec(
                (0usize..24, 0.0f64..1.0, 60.0f64..30_000.0, any::<bool>()),
                0..12,
            ),
            subsets in proptest::collection::vec(any::<u64>(), 3),
        ) {
            let horizon = (hours * 3_600) as f64;
            let cfg = CacheSimConfig {
                seed,
                n_caches,
                max_retries,
                quorum,
                placement: [
                    CachePlacement::Uniform,
                    CachePlacement::ClientWeighted,
                    CachePlacement::Spread,
                    CachePlacement::Authorities,
                    CachePlacement::SingleRegion(Region::Apac),
                ][placement]
                    .clone(),
                link_windows: windows
                    .iter()
                    .map(|&(node, start, duration_secs, dead)| LinkWindow {
                        node: match node {
                            0..9 => TierNode::Authority(node),
                            9..13 => TierNode::Region(geo::REGIONS[node - 9]),
                            _ => TierNode::Cache(node % n_caches),
                        },
                        start_secs: start * horizon,
                        duration_secs,
                        bps: if dead { 0.0 } else { 0.5e6 },
                    })
                    .collect(),
                ..CacheSimConfig::default()
            };
            let mut tier = CacheTier::new(&cfg, Tracer::disabled());
            let mut serving_sets: Vec<Vec<usize>> = [None]
                .into_iter()
                .chain(geo::REGIONS.map(Some))
                .map(|cohort| crate::placement::serving_caches(tier.cache_regions(), cohort))
                .collect();
            serving_sets.extend(subsets.iter().map(|mask| {
                (0..n_caches).filter(|&c| mask >> c & 1 == 1).collect::<Vec<usize>>()
            }));
            let ends = (1..=hours).map(|h| (h * 3_600) as f64).chain([horizon + 7_200.0]);
            for (hour, end) in ends.enumerate() {
                if let Some(&(true, offset)) = publications[..hours].get(hour) {
                    let version = tier.cached_at().len();
                    let from_base = (0..version)
                        .map(|base| (base, ((version - base <= 3).then_some(60_000), 90_000)))
                        .collect();
                    tier.publish(
                        version,
                        (hour * 3_600) as f64 + offset,
                        ServeSizes {
                            consensus_full: 2_000_000,
                            descriptors_full: 6_000_000,
                            from_base,
                        },
                    );
                }
                tier.run_to(end);

                let received = received_at(&tier);
                let oracle = oracle_availability(&received, cfg.quorum);
                prop_assert_eq!(
                    bits(&tier.cached_at()),
                    bits(&oracle.iter().map(|v| v.cached_at_secs).collect::<Vec<_>>())
                );
                prop_assert_eq!(
                    format!("{:?}", tier.report().versions),
                    format!("{oracle:?}")
                );
                for serving in &serving_sets {
                    prop_assert_eq!(
                        bits(&tier.cached_at_for(serving)),
                        bits(&oracle_cached_at_for(&received, serving, cfg.quorum)),
                        "serving {:?}",
                        serving
                    );
                }
            }
        }
    }
}
