//! The session-replay load generator (`dirload`).
//!
//! Takes one hour's realized [`FetchMix`] — exported from a
//! `DistSession` or synthesized here — and replays it against a running
//! daemon at a configurable *open-loop* rate: request `k` is due at
//! `start + k/rate` whether or not earlier requests have finished, so a
//! server falling behind faces a growing backlog exactly as it would in
//! production, instead of the closed-loop mercy of one-at-a-time
//! clients. The mix's classes map onto the wire protocol directly:
//! bootstraps become full consensus + full descriptor fetches,
//! refreshes become `If-Consensus-Hash` negotiations against a base of
//! the recorded age (answered with a proposal-140 diff when the daemon
//! retains it), and failed probes become the cheap status round trips a
//! retry storm burns.
//!
//! [`budget_check`] closes the loop the ROADMAP asks for: measured
//! payload bytes per second, scaled to an hour, against the per-cache
//! service budget the simulation *assumes*
//! ([`per_cache_service_budget_bytes`] at the default cache link rate).

use crate::proto::{parse_response_head, DocRequest};
use partialtor_crypto::Digest32;
use partialtor_dirdist::{
    per_cache_service_budget_bytes, DistConfig, DistSession, DocModel, FetchMix, HourInput,
    LinkWindow, TierNode,
};
use partialtor_obs::{Histogram, Json, Registry};
use partialtor_simnet::geo::{midpoint_ms, Region, CLIENT_WEIGHTS, REGIONS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Registry name the merged per-request latency histogram publishes
/// under (see [`LoadReport::publish_metrics`]).
pub const LATENCY_METRIC: &str = "dirload.request_latency";

/// Load-run parameters.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Daemon address (`host:port`).
    pub addr: String,
    /// How long to keep replaying (the mix is sampled with
    /// replacement, so any duration works against any mix).
    pub duration: Duration,
    /// Open-loop request rate, requests/second.
    pub rate: f64,
    /// Concurrent client connections (worker threads).
    pub connections: usize,
    /// Per-request connect/read timeout.
    pub timeout: Duration,
    /// Sampler seed (the class sequence is deterministic for a seed).
    pub seed: u64,
    /// Model client geography: each request pays the geo model's
    /// midpoint latency from a Tor-weighted client region to the
    /// cache's region before hitting the socket.
    pub geo: bool,
    /// The cache's region when `geo` is on.
    pub cache_region: Region,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: "127.0.0.1:9030".to_string(),
            duration: Duration::from_secs(2),
            rate: 200.0,
            connections: 4,
            timeout: Duration::from_secs(5),
            seed: 7,
            geo: false,
            cache_region: Region::Europe,
        }
    }
}

/// One replayable request class, weighted by the mix.
#[derive(Clone, Copy, Debug)]
enum ReqClass {
    /// Bootstrap: the full consensus.
    ConsensusFull,
    /// Bootstrap: the full descriptor set.
    DescriptorsFull,
    /// Refresh: consensus with a base of this recorded age.
    ConsensusRefresh(u64),
    /// Refresh: descriptors churned since a base of this age.
    DescriptorsDelta(u64),
    /// A failed probe's cheap round trip.
    Probe,
}

/// What one run measured.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Requests issued.
    pub sent: u64,
    /// Requests answered with a complete response.
    pub completed: u64,
    /// Connect/read/write failures and timeouts.
    pub failed: u64,
    /// Responses shed by the daemon (`503`).
    pub shed: u64,
    /// Bootstrap full-consensus requests issued.
    pub bootstrap_fulls: u64,
    /// Refresh consensus requests issued (diff-eligible).
    pub refresh_requests: u64,
    /// Refresh consensus requests actually answered with a diff.
    pub diff_hits: u64,
    /// Descriptor requests issued (full + delta).
    pub descriptor_requests: u64,
    /// Probe round trips issued.
    pub probes: u64,
    /// Payload bytes received (bodies only, headers excluded).
    pub payload_bytes: u64,
    /// Wall-clock duration of the run, seconds.
    pub wall_secs: f64,
    /// Per-request latency (connect through last body byte, plus the
    /// geo delay when enabled).
    pub latency: Histogram,
}

impl LoadReport {
    fn merge(&mut self, other: &LoadReport) {
        self.sent += other.sent;
        self.completed += other.completed;
        self.failed += other.failed;
        self.shed += other.shed;
        self.bootstrap_fulls += other.bootstrap_fulls;
        self.refresh_requests += other.refresh_requests;
        self.diff_hits += other.diff_hits;
        self.descriptor_requests += other.descriptor_requests;
        self.probes += other.probes;
        self.payload_bytes += other.payload_bytes;
        self.latency.merge(&other.latency);
    }

    /// Completed requests per second of wall clock.
    pub fn achieved_rps(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.completed as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// Publishes the run into a shared obs [`Registry`]: the outcome
    /// counters under `dirload.*` and the latency histogram — merged
    /// exactly, not resampled — under [`LATENCY_METRIC`]. Lets a
    /// harness aggregate several runs (or a run plus a daemon's own
    /// registry) in one snapshot.
    pub fn publish_metrics(&self, registry: &Registry) {
        registry.inc("dirload.sent", self.sent);
        registry.inc("dirload.completed", self.completed);
        registry.inc("dirload.failed", self.failed);
        registry.inc("dirload.shed", self.shed);
        registry.inc("dirload.payload_bytes", self.payload_bytes);
        registry.merge_histogram(LATENCY_METRIC, &self.latency);
    }

    /// Fraction of refresh consensus requests answered with a diff.
    pub fn diff_hit_rate(&self) -> f64 {
        if self.refresh_requests > 0 {
            self.diff_hits as f64 / self.refresh_requests as f64
        } else {
            0.0
        }
    }

    /// The report as JSON (the CI smoke parses this).
    pub fn to_json(&self, budget: Option<&BudgetCheck>) -> String {
        let mut fields = vec![
            ("sent", Json::from(self.sent)),
            ("completed", self.completed.into()),
            ("failed", self.failed.into()),
            ("shed", self.shed.into()),
            ("bootstrap_fulls", self.bootstrap_fulls.into()),
            ("refresh_requests", self.refresh_requests.into()),
            ("diff_hits", self.diff_hits.into()),
            ("descriptor_requests", self.descriptor_requests.into()),
            ("probes", self.probes.into()),
            ("payload_bytes", self.payload_bytes.into()),
            ("wall_secs", self.wall_secs.into()),
            ("achieved_rps", self.achieved_rps().into()),
            ("diff_hit_rate", self.diff_hit_rate().into()),
            (
                "latency",
                Json::obj([
                    ("count", self.latency.count().into()),
                    ("p50_secs", self.latency.p50().into()),
                    ("p90_secs", self.latency.p90().into()),
                    ("p99_secs", self.latency.p99().into()),
                    ("p999_secs", self.latency.p999().into()),
                ]),
            ),
        ];
        if let Some(check) = budget {
            fields.push((
                "budget",
                Json::obj([
                    (
                        "measured_bytes_per_hour",
                        check.measured_bytes_per_hour.into(),
                    ),
                    (
                        "assumed_bytes_per_hour",
                        check.assumed_bytes_per_hour.into(),
                    ),
                    ("ratio", check.ratio.into()),
                ]),
            ));
        }
        Json::obj(fields).render()
    }
}

/// Measured serving capacity against the simulation's assumed per-cache
/// service budget.
#[derive(Clone, Copy, Debug)]
pub struct BudgetCheck {
    /// Payload bytes/second achieved, scaled to an hour.
    pub measured_bytes_per_hour: f64,
    /// What one simulated cache is assumed able to serve per hour
    /// (default cache link, no background load).
    pub assumed_bytes_per_hour: u64,
    /// measured / assumed: above 1.0 the simulation's budget is
    /// conservative relative to this hardware, below it optimistic.
    pub ratio: f64,
}

/// Converts a run into the empirical budget ratio.
pub fn budget_check(report: &LoadReport) -> BudgetCheck {
    let per_sec = if report.wall_secs > 0.0 {
        report.payload_bytes as f64 / report.wall_secs
    } else {
        0.0
    };
    let assumed = per_cache_service_budget_bytes(0.0);
    BudgetCheck {
        measured_bytes_per_hour: per_sec * 3_600.0,
        assumed_bytes_per_hour: assumed,
        ratio: per_sec * 3_600.0 / assumed as f64,
    }
}

/// Synthesizes a default mix when no `--mix` export is given: a small
/// feedback-on session stepped through two produced hours, an outage
/// long enough to outlive consensus validity, and a recovery hour —
/// then *composited* across all hours, so the replay always carries
/// every class: refresh diffs from the steady hours, failed probes from
/// the outage, and the recovery hour's bootstrap storm of fulls.
pub fn synthesize_mix(seed: u64) -> FetchMix {
    let failed_hours = 3..=6u64;
    let config = DistConfig {
        seed,
        clients: 50_000,
        n_caches: 10,
        link_windows: failed_hours
            .clone()
            .flat_map(|h| {
                (0..5).map(move |i| LinkWindow {
                    node: TierNode::Authority(i),
                    start_secs: h as f64 * 3_600.0,
                    duration_secs: 300.0,
                    bps: 0.5e6,
                })
            })
            .collect(),
        feedback: true,
        ..DistConfig::default()
    };
    let mut session = DistSession::new(&config, DocModel::synthetic(2_000));
    for hour in 1..=7u64 {
        let input = if failed_hours.contains(&hour) {
            HourInput::failed()
        } else {
            HourInput::produced(0.0)
        };
        session.step_hour(input);
    }
    let mixes = session.fetch_mixes();
    let busiest_hour = FetchMix::busiest(&mixes).map_or(0, |m| m.hour);
    let mut composite = FetchMix {
        hour: busiest_hour,
        bootstraps: Vec::new(),
        refreshes: Vec::new(),
        failed_probes: 0,
    };
    for mix in &mixes {
        composite.bootstraps.extend(mix.bootstraps.iter().copied());
        composite.refreshes.extend(mix.refreshes.iter().copied());
        composite.failed_probes += mix.failed_probes;
    }
    // A multi-hour outage composite is nearly all probes (the retry
    // storm); cap them at half the replayed traffic so short default
    // runs still exercise the document-serving classes densely.
    let document_weight = 2 * (composite.bootstrap_count() + composite.refresh_count());
    composite.failed_probes = composite.failed_probes.min(document_weight);
    composite
}

/// Flattens a mix into `(weight, class)` rows for sampling with
/// replacement.
fn class_weights(mix: &FetchMix) -> Vec<(u64, ReqClass)> {
    let mut rows = Vec::new();
    for b in &mix.bootstraps {
        rows.push((b.count, ReqClass::ConsensusFull));
        rows.push((b.count, ReqClass::DescriptorsFull));
    }
    for r in &mix.refreshes {
        rows.push((r.count, ReqClass::ConsensusRefresh(r.base_age_hours)));
        rows.push((r.count, ReqClass::DescriptorsDelta(r.base_age_hours)));
    }
    if mix.failed_probes > 0 {
        rows.push((mix.failed_probes, ReqClass::Probe));
    }
    rows.retain(|(count, _)| *count > 0);
    rows
}

fn sample_class(rows: &[(u64, ReqClass)], rng: &mut StdRng) -> ReqClass {
    let total: u64 = rows.iter().map(|(count, _)| count).sum();
    let mut pick = rng.gen_range(0..total);
    for (count, class) in rows {
        if pick < *count {
            return *class;
        }
        pick -= count;
    }
    rows.last().expect("non-empty weights").1
}

/// Maps a recorded base age onto a digest the daemon actually retains:
/// `history` is newest-first, so age 1 is the freshest diffable base;
/// older ages clamp to the oldest retained base (beyond the window the
/// daemon answers with a full document, exactly as the table model
/// charges it).
fn base_for_age(history: &[Digest32], age: u64) -> Option<Digest32> {
    if history.len() < 2 {
        return None;
    }
    let index = (age.max(1) as usize).min(history.len() - 1);
    Some(history[index])
}

fn request_for(class: ReqClass, history: &[Digest32]) -> DocRequest {
    match class {
        ReqClass::ConsensusFull => DocRequest::Consensus { base: None },
        ReqClass::DescriptorsFull => DocRequest::Descriptors { base: None },
        ReqClass::ConsensusRefresh(age) => DocRequest::Consensus {
            base: base_for_age(history, age),
        },
        ReqClass::DescriptorsDelta(age) => DocRequest::Descriptors {
            base: base_for_age(history, age),
        },
        ReqClass::Probe => DocRequest::Status,
    }
}

/// One complete request/response exchange.
struct Exchange {
    status: u16,
    served: String,
    body_len: usize,
}

fn execute(addr: &SocketAddr, request: &DocRequest, timeout: Duration) -> Option<Exchange> {
    let mut stream = TcpStream::connect_timeout(addr, timeout).ok()?;
    stream.set_read_timeout(Some(timeout)).ok()?;
    stream.set_write_timeout(Some(timeout)).ok()?;
    stream.write_all(request.encode().as_bytes()).ok()?;

    let mut buf = Vec::with_capacity(4_096);
    let mut chunk = [0u8; 8_192];
    let head = loop {
        if let Some(head) = parse_response_head(&buf) {
            break head;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return None,
        }
    };
    let want = head.body_start + head.content_length;
    while buf.len() < want {
        match stream.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return None,
        }
    }
    Some(Exchange {
        status: head.status,
        served: head.served,
        body_len: head.content_length,
    })
}

/// Samples a Tor-weighted client region.
fn sample_region(rng: &mut StdRng) -> Region {
    let total: f64 = CLIENT_WEIGHTS.iter().sum();
    let mut pick = rng.gen_range(0.0..total);
    for (region, weight) in REGIONS.iter().zip(CLIENT_WEIGHTS) {
        if pick < weight {
            return *region;
        }
        pick -= weight;
    }
    REGIONS[3]
}

/// Fetches the daemon's retained-digest index (`None` when unreachable).
pub fn fetch_history(addr: &SocketAddr, timeout: Duration) -> Option<Vec<Digest32>> {
    let mut stream = TcpStream::connect_timeout(addr, timeout).ok()?;
    stream.set_read_timeout(Some(timeout)).ok()?;
    stream
        .write_all(DocRequest::Digests.encode().as_bytes())
        .ok()?;
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).ok()?;
    let head = parse_response_head(&buf)?;
    if head.status != 200 {
        return None;
    }
    let body = std::str::from_utf8(&buf[head.body_start..]).ok()?;
    let mut history = Vec::new();
    for line in body.lines() {
        let hex = line.strip_prefix("digest ")?.split_whitespace().next()?;
        history.push(Digest32::from_hex(hex)?);
    }
    Some(history)
}

/// Runs the replay: resolves the daemon, fetches its digest index to
/// aim refreshes, then drives `connections` workers through the
/// open-loop schedule. Returns the merged report.
pub fn run(config: &LoadConfig, mix: &FetchMix) -> Result<LoadReport, String> {
    run_with_registry(config, mix, &Registry::new())
}

/// [`run`], publishing the merged outcome into a caller-supplied obs
/// [`Registry`] (counters plus the [`LATENCY_METRIC`] histogram) so the
/// run's metrics live alongside whatever else the harness collects.
pub fn run_with_registry(
    config: &LoadConfig,
    mix: &FetchMix,
    registry: &Registry,
) -> Result<LoadReport, String> {
    let addr: SocketAddr = config
        .addr
        .to_socket_addrs()
        .map_err(|e| format!("resolve {}: {e}", config.addr))?
        .next()
        .ok_or_else(|| format!("resolve {}: no address", config.addr))?;
    let history = fetch_history(&addr, config.timeout)
        .ok_or_else(|| format!("fetch digest index from {addr}: daemon unreachable"))?;
    let rows = class_weights(mix);
    if rows.is_empty() {
        return Err("fetch mix is empty (no bootstraps, refreshes or probes)".to_string());
    }

    let total = (config.rate * config.duration.as_secs_f64()).ceil() as u64;
    let workers = config.connections.max(1) as u64;
    let start = Instant::now();

    let mut report = LoadReport::default();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for worker in 0..workers {
            let rows = &rows;
            let history = &history;
            let config_ref = config;
            handles.push(scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(config_ref.seed.wrapping_add(worker));
                let mut local = LoadReport::default();
                let mut k = worker;
                while k < total {
                    let due = start + Duration::from_secs_f64(k as f64 / config_ref.rate);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let class = sample_class(rows, &mut rng);
                    let geo_delay = if config_ref.geo {
                        let client = sample_region(&mut rng);
                        midpoint_ms(client, config_ref.cache_region) / 1_000.0
                    } else {
                        0.0
                    };
                    if geo_delay > 0.0 {
                        std::thread::sleep(Duration::from_secs_f64(geo_delay));
                    }
                    match class {
                        ReqClass::ConsensusFull => local.bootstrap_fulls += 1,
                        ReqClass::ConsensusRefresh(_) => local.refresh_requests += 1,
                        ReqClass::DescriptorsFull | ReqClass::DescriptorsDelta(_) => {
                            local.descriptor_requests += 1
                        }
                        ReqClass::Probe => local.probes += 1,
                    }
                    let request = request_for(class, history);
                    let begin = Instant::now();
                    local.sent += 1;
                    match execute(&addr, &request, config_ref.timeout) {
                        Some(exchange) => {
                            let elapsed = begin.elapsed().as_secs_f64() + geo_delay;
                            local.latency.observe(elapsed);
                            if exchange.status == 503 {
                                local.shed += 1;
                            } else {
                                local.completed += 1;
                                local.payload_bytes += exchange.body_len as u64;
                                if matches!(class, ReqClass::ConsensusRefresh(_))
                                    && exchange.served == "diff"
                                {
                                    local.diff_hits += 1;
                                }
                            }
                        }
                        None => local.failed += 1,
                    }
                    k += workers;
                }
                local
            }));
        }
        for handle in handles {
            if let Ok(local) = handle.join() {
                report.merge(&local);
            }
        }
    });
    report.wall_secs = start.elapsed().as_secs_f64();
    report.publish_metrics(registry);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesized_mix_carries_every_class() {
        let mix = synthesize_mix(7);
        assert!(mix.bootstrap_count() > 0, "recovery storm bootstraps");
        assert!(mix.refresh_count() > 0, "steady refresh traffic");
        assert!(mix.failed_probes > 0, "failed-hour probe storm");
        assert!(
            mix.refreshes.iter().any(|r| r.consensus_is_diff),
            "some refreshes must be diff-served"
        );
    }

    #[test]
    fn class_sampling_respects_weights_and_ages_clamp() {
        let mix = synthesize_mix(7);
        let rows = class_weights(&mix);
        assert!(rows.iter().all(|(count, _)| *count > 0));
        let mut rng = StdRng::seed_from_u64(1);
        let mut saw_probe = false;
        let mut saw_refresh = false;
        for _ in 0..2_000 {
            match sample_class(&rows, &mut rng) {
                ReqClass::Probe => saw_probe = true,
                ReqClass::ConsensusRefresh(_) => saw_refresh = true,
                _ => {}
            }
        }
        assert!(saw_probe && saw_refresh);

        let history: Vec<Digest32> = (0..3u8)
            .map(|i| partialtor_crypto::sha256::digest(&[i]))
            .collect();
        assert_eq!(base_for_age(&history, 0), Some(history[1]));
        assert_eq!(base_for_age(&history, 1), Some(history[1]));
        assert_eq!(base_for_age(&history, 99), Some(history[2]));
        assert_eq!(base_for_age(&history[..1], 1), None);
    }

    #[test]
    fn budget_check_uses_the_sessions_assumed_budget() {
        let report = LoadReport {
            payload_bytes: 1_000_000,
            wall_secs: 2.0,
            ..LoadReport::default()
        };
        let check = budget_check(&report);
        assert_eq!(
            check.assumed_bytes_per_hour,
            per_cache_service_budget_bytes(0.0)
        );
        let expected = 500_000.0 * 3_600.0 / check.assumed_bytes_per_hour as f64;
        assert!((check.ratio - expected).abs() < 1e-9);
        assert!(check.ratio.is_finite() && check.ratio > 0.0);
    }

    #[test]
    fn report_json_is_well_formed() {
        let mut report = LoadReport::default();
        report.latency.observe(0.010);
        report.completed = 1;
        report.wall_secs = 1.0;
        let json = report.to_json(Some(&budget_check(&report)));
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"budget\""));
        assert!(json.contains("\"p999_secs\""));
        assert!(!json.contains("inf") && !json.contains("NaN"));
    }

    #[test]
    fn publish_metrics_merges_into_the_shared_registry() {
        let mut report = LoadReport::default();
        for i in 0..1_000 {
            report.latency.observe(0.001 * (1 + i % 10) as f64);
        }
        report.sent = 1_000;
        report.completed = 990;
        report.failed = 8;
        report.shed = 2;

        let registry = Registry::new();
        registry.inc("dirload.sent", 5); // pre-existing runs accumulate
        report.publish_metrics(&registry);

        assert_eq!(registry.counter("dirload.sent"), 1_005);
        assert_eq!(registry.counter("dirload.completed"), 990);
        let merged = registry.histogram(LATENCY_METRIC);
        assert_eq!(merged.count(), report.latency.count());
        assert_eq!(merged.p999(), report.latency.p999());
        assert!(report.latency.p999() >= report.latency.p50());
    }
}
