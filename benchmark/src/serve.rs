//! The two serving workloads: `serve_reads` and `serve_churn`.
//!
//! An in-process `dircached` daemon serves a 500-relay consensus series
//! over loopback TCP; `nproc` closed-loop clients (one connection per
//! request, as the daemon's protocol requires) draw request classes
//! from `synthesize_mix(seed)` and check every response. `serve_churn`
//! adds one thread publishing a new consensus every 100 ms — the store
//! is under its write lock for about a fifth of the time — so that work
//! moved from the read path to the publish path shows.

use crate::harness::{finish, Pass, Passes, RunArgs, RunResult, Setup, Tally, SEGMENTS};
use crate::metrics::Values;
use crate::spans::Spans;
use crate::stats::{self, SplitMix64};
use partialtor_crypto::Digest32;
use partialtor_dircached::proto::{parse_response_head, DocRequest, ParsedResponse};
use partialtor_dircached::{
    consensus_series, synthesize_mix, Daemon, DaemonConfig, DocSetConfig, ServingStore,
};
use partialtor_dirdist::docmodel::MICRODESC_PER_RELAY_BYTES;
use partialtor_dirdist::FetchMix;
use partialtor_obs::Registry;
use partialtor_tordoc::{Consensus, ConsensusDiff};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Relays per document. Small on purpose: with 2 000-relay documents
/// throughput is bound by loopback memcpy and swings between batches.
const RELAYS: usize = 500;
/// Relays replaced between consecutive documents.
const CHURN_PER_DOC: usize = 10;
/// Predecessors the store keeps diffs from.
const RETAIN: usize = 3;
/// Documents published before the clients start, so every retained
/// base is diffable from the first request on.
const INITIAL_DOCS: usize = RETAIN + 1;
/// Gap between publishes on `serve_churn`. A publish holds the store's
/// write lock for 15–20 ms, so at this gap readers are locked out for
/// about a fifth of the time and `serve_churn` serves a fifth fewer
/// requests than `serve_reads`, more than the run-to-run spread of either.
/// At 250 ms the cost was 4 % of a core and did not show; at 50 ms it is
/// a third, but a slower host then also publishes for longer, and the
/// ten-run spread of the rate rose from 6 % to 16 %.
const PUBLISH_EVERY: Duration = Duration::from_millis(100);
/// One response in this many is verified in full: parsed, a diff
/// applied to its base, and the digest recomputed.
const VERIFY_ONE_IN: u64 = 100;
/// Offered rate of the open-loop phase of a traced run, requests/s.
const OPEN_LOOP_RPS: f64 = 1_000.0;
/// Share of `--seconds` the open-loop phase of a traced run gets.
const OPEN_LOOP_SHARE: f64 = 0.1;
/// A request that takes longer than this has failed.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// One request class of a replayed fetch mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReqClass {
    ConsensusFull,
    DescriptorsFull,
    /// A consensus refresh from a base this many hours old.
    ConsensusRefresh(u64),
    /// The descriptors churned since a base this many hours old.
    DescriptorsDelta(u64),
    /// A liveness probe (a client of a dead network retrying).
    Probe,
}

/// Samples request classes in proportion to a fetch mix's counts.
pub struct MixSampler {
    /// `(cumulative weight, class)`, ascending.
    rows: Vec<(u64, ReqClass)>,
}

impl MixSampler {
    pub fn new(mix: &FetchMix) -> Self {
        let mut weighted = Vec::new();
        for b in &mix.bootstraps {
            weighted.push((b.count, ReqClass::ConsensusFull));
            weighted.push((b.count, ReqClass::DescriptorsFull));
        }
        for r in &mix.refreshes {
            weighted.push((r.count, ReqClass::ConsensusRefresh(r.base_age_hours)));
            weighted.push((r.count, ReqClass::DescriptorsDelta(r.base_age_hours)));
        }
        weighted.push((mix.failed_probes, ReqClass::Probe));
        let mut total = 0;
        let rows = weighted
            .into_iter()
            .filter(|(count, _)| *count > 0)
            .map(|(count, class)| {
                total += count;
                (total, class)
            })
            .collect();
        MixSampler { rows }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> ReqClass {
        let total = self.rows.last().expect("the mix is not empty").0;
        let pick = rng.below(total);
        self.rows[self.rows.partition_point(|(cum, _)| *cum <= pick)].1
    }
}

/// When each step of one request/response ended.
struct Timeline {
    start: Instant,
    connected: Instant,
    sent: Instant,
    received: Instant,
    closed: Instant,
}

struct Reply {
    head: ParsedResponse,
    buf: Vec<u8>,
}

impl Reply {
    fn body(&self) -> &[u8] {
        &self.buf[self.head.body_start..]
    }
}

/// One connection, one request, the whole response up to the server's
/// close.
fn exchange(addr: &SocketAddr, request: &[u8]) -> Result<(Timeline, Reply), String> {
    let start = Instant::now();
    let mut stream =
        TcpStream::connect_timeout(addr, IO_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    let connected = Instant::now();
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
        .and_then(|()| stream.write_all(request))
        .map_err(|e| format!("send: {e}"))?;
    let sent = Instant::now();
    let mut buf = Vec::with_capacity(16 * 1024);
    stream
        .read_to_end(&mut buf)
        .map_err(|e| format!("receive: {e}"))?;
    let received = Instant::now();
    // Closing is the client's share of the teardown; timed apart so it
    // does not read as checking.
    drop(stream);
    let closed = Instant::now();
    let head = parse_response_head(&buf).ok_or("response head does not parse")?;
    let timeline = Timeline {
        start,
        connected,
        sent,
        received,
        closed,
    };
    Ok((timeline, Reply { head, buf }))
}

/// A running daemon over a published series, and what the clients need
/// to aim and check requests.
pub struct ServeFixture {
    docs: Vec<Consensus>,
    digests: Vec<Digest32>,
    index_of: BTreeMap<Digest32, usize>,
    store: Arc<ServingStore>,
    daemon: Daemon,
    registry: Registry,
    sampler: MixSampler,
    /// Index in `docs` of the latest published document.
    published: AtomicUsize,
    /// Whether documents are published while clients read.
    churn: bool,
}

/// What one client thread (or the merged set) measured.
#[derive(Default)]
struct LoopStats {
    /// How long each successful request took, nanoseconds: from
    /// connect on the closed loop, from its due time on the open loop.
    done_ns: Vec<u64>,
    /// Open loop only: how late each request left, nanoseconds.
    late_ns: Vec<u64>,
    tally: Tally,
    spans: Option<Spans>,
}

impl LoopStats {
    fn merge(&mut self, other: LoopStats) {
        self.done_ns.extend(other.done_ns);
        self.late_ns.extend(other.late_ns);
        self.tally.absorb(&other.tally);
        match (&mut self.spans, other.spans) {
            (Some(mine), Some(theirs)) => mine.absorb(theirs),
            (mine @ None, theirs) => *mine = theirs,
            (Some(_), None) => {}
        }
    }
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

impl ServeFixture {
    /// Builds the series (`INITIAL_DOCS` plus `extra_docs` for the
    /// publisher), publishes the initial documents and starts the
    /// daemon with its default configuration.
    fn build(seed: u64, extra_docs: usize, churn: bool) -> Self {
        let docs = consensus_series(&DocSetConfig {
            seed,
            relays: RELAYS,
            history: INITIAL_DOCS + extra_docs,
            churn_per_hour: CHURN_PER_DOC,
        });
        let digests: Vec<Digest32> = docs.iter().map(Consensus::digest).collect();
        let index_of = digests.iter().enumerate().map(|(i, d)| (*d, i)).collect();
        let store = Arc::new(ServingStore::new(RETAIN));
        for doc in &docs[..INITIAL_DOCS] {
            store.publish(doc.clone());
        }
        let registry = Registry::new();
        let daemon = Daemon::start(
            DaemonConfig {
                registry: registry.clone(),
                ..DaemonConfig::default()
            },
            store.clone(),
        )
        .expect("the daemon binds a loopback port");
        ServeFixture {
            docs,
            digests,
            index_of,
            store,
            daemon,
            registry,
            sampler: MixSampler::new(&synthesize_mix(seed)),
            published: AtomicUsize::new(INITIAL_DOCS - 1),
            churn,
        }
    }

    /// The request for `class` when `latest` is the newest published
    /// document, and the index of the base it names.
    fn request_for(&self, class: ReqClass, latest: usize) -> (DocRequest, Option<usize>) {
        let base_of = |age: u64| latest - (age.max(1) as usize).min(RETAIN);
        match class {
            ReqClass::ConsensusFull => (DocRequest::Consensus { base: None }, None),
            ReqClass::DescriptorsFull => (DocRequest::Descriptors { base: None }, None),
            ReqClass::ConsensusRefresh(age) => {
                let base = base_of(age);
                let request = DocRequest::Consensus {
                    base: Some(self.digests[base]),
                };
                (request, Some(base))
            }
            ReqClass::DescriptorsDelta(age) => {
                let base = base_of(age);
                let request = DocRequest::Descriptors {
                    base: Some(self.digests[base]),
                };
                (request, Some(base))
            }
            ReqClass::Probe => (DocRequest::Status, None),
        }
    }

    /// Checks one response. Always: status, length, digest header and
    /// served class. With `verify`: the body itself.
    fn check(
        &self,
        class: ReqClass,
        base: Option<usize>,
        reply: &Reply,
        verify: bool,
    ) -> Result<(), String> {
        let head = &reply.head;
        if head.status != 200 {
            return Err(format!("{class:?}: status {}", head.status));
        }
        if reply.body().len() != head.content_length {
            return Err(format!(
                "{class:?}: body of {} bytes, Content-Length {}",
                reply.body().len(),
                head.content_length
            ));
        }
        let digest = head.digest.ok_or("no X-Consensus-Digest header")?;
        let target = *self
            .index_of
            .get(&digest)
            .ok_or_else(|| format!("{class:?}: digest {} was never published", digest.to_hex()))?;
        // While documents are being published a base can age out of the
        // store between aiming and serving; the full form is then right.
        let served = head.served.as_str();
        let class_ok = match class {
            ReqClass::ConsensusFull => served == "full",
            ReqClass::DescriptorsFull => served == "descriptors",
            ReqClass::ConsensusRefresh(_) => served == "diff" || (self.churn && served == "full"),
            ReqClass::DescriptorsDelta(_) => {
                served == "descriptors_delta" || (self.churn && served == "descriptors")
            }
            ReqClass::Probe => served == "status",
        };
        if !class_ok {
            return Err(format!("{class:?}: served as {served:?}"));
        }
        if !verify {
            return Ok(());
        }
        let text = || std::str::from_utf8(reply.body()).map_err(|_| "body is not UTF-8");
        let per_relay = MICRODESC_PER_RELAY_BYTES as usize;
        match served {
            "full" => {
                let doc = Consensus::parse(text()?).map_err(|e| format!("full: {e:?}"))?;
                if doc.digest() != digest {
                    return Err("full: digest differs from its header".to_string());
                }
            }
            "diff" => {
                let base = &self.docs[base.expect("a refresh names its base")];
                let diff = ConsensusDiff::parse(text()?).map_err(|e| format!("diff: {e:?}"))?;
                let rebuilt = diff.apply(base).ok_or("diff does not apply to its base")?;
                if rebuilt.digest() != digest {
                    return Err("diff: rebuilt digest differs from its header".to_string());
                }
            }
            "descriptors" => {
                if reply.body().len() != self.docs[target].entries.len() * per_relay {
                    return Err("descriptors: wrong length".to_string());
                }
            }
            "descriptors_delta" => {
                let base = &self.docs[base.expect("a delta names its base")];
                let known: std::collections::BTreeSet<_> =
                    base.entries.iter().map(|e| e.id).collect();
                let fresh = self.docs[target]
                    .entries
                    .iter()
                    .filter(|e| !known.contains(&e.id))
                    .count();
                if reply.body().len() != fresh * per_relay {
                    return Err("descriptors_delta: wrong length".to_string());
                }
            }
            _ => {
                if !text()?.starts_with(&format!("ok latest={}", digest.to_hex())) {
                    return Err("status: unexpected body".to_string());
                }
            }
        }
        Ok(())
    }

    /// Aims, sends and checks one request; files it in `stats`. `due`
    /// is the open loop's scheduled send time.
    fn one_request(&self, rng: &mut SplitMix64, stats: &mut LoopStats, due: Option<Instant>) {
        let class = self.sampler.sample(rng);
        let latest = self.published.load(Ordering::SeqCst);
        let (request, base) = self.request_for(class, latest);
        let op = stats.tally.attempted as u32;
        stats.tally.attempted += 1;
        let verify = stats.tally.attempted.is_multiple_of(VERIFY_ONE_IN);
        let outcome = exchange(&self.daemon.local_addr(), request.encode().as_bytes()).and_then(
            |(timeline, reply)| {
                self.check(class, base, &reply, verify)?;
                Ok(timeline)
            },
        );
        let timeline = match outcome {
            Ok(timeline) => timeline,
            Err(note) => return stats.tally.fail(note),
        };
        let from = due.unwrap_or(timeline.start);
        stats
            .done_ns
            .push(timeline.received.saturating_duration_since(from).as_nanos() as u64);
        if let Some(due) = due {
            stats
                .late_ns
                .push(timeline.start.saturating_duration_since(due).as_nanos() as u64);
        }
        if let Some(spans) = &mut stats.spans {
            let checked = Instant::now();
            let root = spans.record("request", None, op, timeline.start, checked);
            let steps = [
                ("net.connect", timeline.start, timeline.connected),
                ("net.send", timeline.connected, timeline.sent),
                ("dircached.respond", timeline.sent, timeline.received),
                ("net.close", timeline.received, timeline.closed),
                ("bench.check", timeline.closed, checked),
            ];
            for (name, start, end) in steps {
                spans.record(name, Some(root), op, start, end);
            }
        }
    }

    /// Publishes the next document every [`PUBLISH_EVERY`] until told
    /// to stop; returns each publish's wall time in milliseconds.
    fn publisher(&self, stop: &AtomicBool) -> Vec<f64> {
        let start = Instant::now();
        let mut times = Vec::new();
        for tick in 1u32.. {
            let due = start + PUBLISH_EVERY * tick;
            while Instant::now() < due {
                if stop.load(Ordering::SeqCst) {
                    return times;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            let next = self.published.load(Ordering::SeqCst) + 1;
            let Some(doc) = self.docs.get(next).cloned() else {
                return times;
            };
            let begin = Instant::now();
            self.store.publish(doc);
            times.push(begin.elapsed().as_secs_f64() * 1e3);
            self.published.store(next, Ordering::SeqCst);
        }
        times
    }

    /// Runs `client` on `nproc` threads beside the publisher (when this
    /// is `serve_churn`) and times the phase, wall and process CPU.
    fn phase(
        &self,
        trace_origin: Option<Instant>,
        client: impl Fn(usize, Instant, &mut LoopStats) + Sync,
    ) -> Phase {
        let stop = AtomicBool::new(false);
        let cpu = stats::process_cpu_secs();
        let began = Instant::now();
        let (stats, wall_s, cpu_s, publish_ms) = std::thread::scope(|scope| {
            let publisher = self.churn.then(|| scope.spawn(|| self.publisher(&stop)));
            let clients: Vec<_> = (0..threads())
                .map(|thread| {
                    let client = &client;
                    scope.spawn(move || {
                        let mut stats = LoopStats {
                            spans: trace_origin.map(Spans::new),
                            ..LoopStats::default()
                        };
                        client(thread, began, &mut stats);
                        stats
                    })
                })
                .collect();
            let mut merged = LoopStats::default();
            for handle in clients {
                merged.merge(handle.join().expect("client thread"));
            }
            let wall_s = began.elapsed().as_secs_f64();
            let cpu_s = stats::process_cpu_secs() - cpu;
            stop.store(true, Ordering::SeqCst);
            let publish_ms = publisher.map_or_else(Vec::new, |p| p.join().expect("publisher"));
            (merged, wall_s, cpu_s, publish_ms)
        });
        Phase {
            stats,
            wall_s,
            cpu_s,
            publish_ms,
        }
    }

    /// `nproc` clients, each sending its next request when the last one
    /// is checked, for `seconds`.
    fn closed_loop(&self, seed: u64, seconds: f64, trace_origin: Option<Instant>) -> Phase {
        self.phase(trace_origin, |thread, began, stats| {
            let deadline = began + Duration::from_secs_f64(seconds);
            let mut rng = SplitMix64::new(seed ^ (thread as u64 + 1).wrapping_mul(0x9e37_79b9));
            while Instant::now() < deadline {
                self.one_request(&mut rng, stats, None);
            }
        })
    }

    /// Requests sent on a fixed schedule at [`OPEN_LOOP_RPS`], whether
    /// or not earlier ones have returned; each is timed from when it
    /// was due.
    fn open_loop(&self, seed: u64, seconds: f64) -> LoopStats {
        let total = (seconds * OPEN_LOOP_RPS) as u64;
        let phase = self.phase(None, |thread, began, stats| {
            let mut rng = SplitMix64::new(seed ^ (thread as u64 + 1).wrapping_mul(0x51_7cc1));
            for k in (thread as u64..total).step_by(threads()) {
                let due = began + Duration::from_secs_f64(k as f64 / OPEN_LOOP_RPS);
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                self.one_request(&mut rng, stats, Some(due));
            }
        });
        phase.stats
    }

    /// Median microseconds of `count` back-to-back requests from one
    /// client; a failed request counts in `tally`.
    fn single_client_us(&self, request: &DocRequest, count: usize, tally: &mut Tally) -> f64 {
        let bytes = request.encode();
        let mut us = Vec::with_capacity(count);
        for _ in 0..count {
            tally.attempted += 1;
            match exchange(&self.daemon.local_addr(), bytes.as_bytes()) {
                Ok((t, reply)) if reply.head.status == 200 => {
                    us.push(t.received.duration_since(t.start).as_secs_f64() * 1e6)
                }
                Ok((_, reply)) => tally.fail(format!("single client: {}", reply.head.status)),
                Err(note) => tally.fail(note),
            }
        }
        stats::median(&us)
    }
}

/// What one phase of load measured.
#[derive(Default)]
struct Phase {
    stats: LoopStats,
    /// From the clients' start until the last one finished.
    wall_s: f64,
    /// Process CPU seconds used meanwhile: daemon, clients and
    /// publisher.
    cpu_s: f64,
    /// Wall milliseconds of each publish made meanwhile.
    publish_ms: Vec<f64>,
}

impl Phase {
    /// Appends a later phase of the same kind of load.
    fn absorb(&mut self, other: Phase) {
        self.stats.merge(other.stats);
        self.wall_s += other.wall_s;
        self.cpu_s += other.cpu_s;
        self.publish_ms.extend(other.publish_ms);
    }

    fn pass(&self) -> Pass {
        Pass {
            ops_ms: sorted_ms(self.stats.done_ns.iter().copied()),
            wall_s: self.wall_s,
            cpu_s: self.cpu_s,
        }
    }
}

fn sorted_ms(ns: impl Iterator<Item = u64>) -> Vec<f64> {
    let mut ms: Vec<f64> = ns.map(|n| n as f64 / 1e6).collect();
    ms.sort_by(f64::total_cmp);
    ms
}

/// Runs one serving workload.
pub fn run_serve(name: &'static str, churn: bool, args: RunArgs) -> RunResult {
    // An untraced pass is cut into segments, each on a fixture built
    // just before it; a traced run does everything on one.
    let segments = if args.trace { 1 } else { SEGMENTS };
    let segment_s = args.pass_seconds() / segments as f64;
    // A document per publish for as long as one fixture serves, and a
    // few to spare.
    let fixture_s = if args.trace { args.seconds } else { segment_s };
    let extra_docs = if churn {
        (fixture_s / PUBLISH_EVERY.as_secs_f64()).ceil() as usize + 4
    } else {
        0
    };
    let mut setup = Setup::new(|| ServeFixture::build(args.seed, extra_docs, churn));
    let mut values = Values::default();
    let mut tally = Tally::default();

    let mut fixture = setup.build();
    let mut plain = fixture.closed_loop(args.seed, segment_s, None);
    for segment in 1..segments {
        drop(fixture);
        fixture = setup.build();
        plain.absorb(fixture.closed_loop(args.seed.wrapping_add(segment as u64), segment_s, None));
    }
    tally.absorb(&plain.stats.tally);
    let plain_pass = plain.pass();

    let budget = args.pass_seconds();
    let traced = args.trace.then(|| {
        let traced = fixture.closed_loop(args.seed ^ 0x7ace, budget, Some(Instant::now()));
        tally.absorb(&traced.stats.tally);

        let open = fixture.open_loop(args.seed, args.seconds * OPEN_LOOP_SHARE);
        tally.absorb(&open.tally);
        let open_ms = sorted_ms(open.done_ns.iter().copied());
        let late_ms = sorted_ms(open.late_ns.iter().copied());
        values.set("dircached.open_ms_p50", stats::median(&open_ms));
        values.set("dircached.open_ms_p99", stats::percentile(&open_ms, 99.0));
        values.set(
            "dircached.gen_late_ms_p99",
            stats::percentile(&late_ms, 99.0),
        );

        values.set(
            "dircached.probe_us_p50",
            fixture.single_client_us(&DocRequest::Status, 300, &mut tally),
        );
        values.set(
            "dircached.full_us_p50",
            fixture.single_client_us(&DocRequest::Descriptors { base: None }, 100, &mut tally),
        );
        values.set(
            "dircached.stall_ms_max",
            plain_pass.ops_ms.last().copied().unwrap_or(0.0),
        );
        let publish_ms: Vec<f64> = [&plain.publish_ms[..], &traced.publish_ms[..]].concat();
        values.set("dircached.publish_ms_p50", stats::median(&publish_ms));
        for counter in [
            "dircached.shed",
            "dircached.read_errors",
            "dircached.write_errors",
        ] {
            values.set(counter, fixture.registry.counter(counter) as f64);
        }
        let pass = traced.pass();
        let spans = traced.stats.spans.expect("the traced pass records spans");
        (pass, spans)
    });

    let passes = Passes {
        setup_s: setup.median_secs(),
        plain: plain_pass,
        traced,
    };
    finish(name, tally, values, passes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_sampling_is_a_function_of_the_seed() {
        let sampler = MixSampler::new(&synthesize_mix(3));
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..64)
                .map(|_| sampler.sample(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(11), draw(11));
        assert_ne!(draw(11), draw(12));
    }

    #[test]
    fn sampler_follows_the_weights() {
        let mix = FetchMix {
            hour: 0,
            bootstraps: Vec::new(),
            refreshes: Vec::new(),
            failed_probes: 5,
        };
        let sampler = MixSampler::new(&mix);
        let mut rng = SplitMix64::new(1);
        assert!((0..32).all(|_| sampler.sample(&mut rng) == ReqClass::Probe));
        // The synthesized mix carries every class.
        let sampler = MixSampler::new(&synthesize_mix(1));
        let mut kinds = std::collections::HashSet::new();
        for _ in 0..4_000 {
            kinds.insert(std::mem::discriminant(&sampler.sample(&mut rng)));
        }
        assert_eq!(kinds.len(), 5);
    }

    #[test]
    fn a_short_read_run_serves_and_checks_every_class() {
        let fixture = ServeFixture::build(2, 0, false);
        let phase = fixture.closed_loop(2, 0.3, Some(Instant::now()));
        let stats = &phase.stats;
        assert!(stats.tally.attempted > 50, "{}", stats.tally.attempted);
        assert_eq!(stats.tally.failed, 0, "{:?}", stats.tally.notes);
        assert_eq!(
            stats.done_ns.len() as u64,
            stats.tally.attempted,
            "every request succeeded"
        );
        assert!(phase.publish_ms.is_empty());
        let pass = phase.pass();
        assert_eq!(pass.ops_ms.len(), stats.done_ns.len());
        assert!(pass.ops_ms.windows(2).all(|w| w[0] <= w[1]) && pass.ops_ms[0] > 0.0);
        assert!(pass.wall_s >= 0.3 && pass.cpu_s > 0.0);
        assert_eq!(
            stats.spans.as_ref().unwrap().len() as u64,
            6 * stats.tally.attempted
        );
        // Every class passes full verification, not just one in a hundred.
        for class in [
            ReqClass::ConsensusFull,
            ReqClass::DescriptorsFull,
            ReqClass::ConsensusRefresh(1),
            ReqClass::ConsensusRefresh(9),
            ReqClass::DescriptorsDelta(2),
            ReqClass::Probe,
        ] {
            let (request, base) = fixture.request_for(class, INITIAL_DOCS - 1);
            let (_, reply) =
                exchange(&fixture.daemon.local_addr(), request.encode().as_bytes()).unwrap();
            fixture.check(class, base, &reply, true).unwrap();
        }
        // A wrong expectation is caught.
        let (request, _) = fixture.request_for(ReqClass::Probe, INITIAL_DOCS - 1);
        let (_, reply) =
            exchange(&fixture.daemon.local_addr(), request.encode().as_bytes()).unwrap();
        assert!(fixture
            .check(ReqClass::ConsensusFull, None, &reply, false)
            .is_err());
    }

    #[test]
    fn churn_publishes_beside_the_readers() {
        let fixture = ServeFixture::build(5, 12, true);
        let phase = fixture.closed_loop(5, 0.45, None);
        assert_eq!(phase.stats.tally.failed, 0, "{:?}", phase.stats.tally.notes);
        let publishes = phase.publish_ms.len();
        assert!((3..=4).contains(&publishes), "{:?}", phase.publish_ms);
        assert_eq!(
            fixture.published.load(Ordering::SeqCst),
            INITIAL_DOCS - 1 + publishes
        );
        let open = fixture.open_loop(5, 0.2);
        assert_eq!(open.tally.failed, 0, "{:?}", open.tally.notes);
        assert_eq!(open.late_ns.len(), 200);
    }
}
