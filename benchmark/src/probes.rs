//! Per-layer probes: timed calls into one layer's public functions on
//! fixtures the benchmark builds itself. A probe does not depend on the
//! workload, so each layer's probes run once: at the end of the traced
//! run of one workload that uses the layer (see [`run`]).
//!
//! Each probe repeats its call and reports the median. Calls that take
//! nanoseconds are timed in batches, since one reading of the clock
//! costs as much as the call.

use crate::metrics::Values;
use crate::stats;
use partialtor::adversary::{AttackPlan, AttackWindow, Target};
use partialtor::experiments::clients::{self, ClientsResult};
use partialtor::protocols::ProtocolKind;
use partialtor::runner::{self, RunReport, Scenario, SweepJob};
use partialtor_consensus::{
    Action, ConsensusConfig, ConsensusInstance, ConsensusMsg, ConsensusValue,
};
use partialtor_crypto::{sha256, sha512, Digest32, SigningKey};
use partialtor_dircached::proto::{parse_request, DocRequest, ResponseHead};
use partialtor_dircached::{consensus_series, DocSetConfig, ServingStore};
use partialtor_dirdist::{
    cachesim, fleet, ConsensusTimeline, DistConfig, DistSession, DocModel, DocTable, FleetConfig,
    HourInput, LinkWindow, TierNode,
};
use partialtor_obs::{Registry, TraceEvent, Tracer};
use partialtor_simnet::{
    Context, LatencyMatrix, Node, NodeId, SimConfig, SimDuration, SimTime, Simulation, SizedPayload,
};
use partialtor_tordoc::prelude::*;
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// Median seconds of `reps` calls of `f`.
fn median_secs<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&times)
}

/// Median nanoseconds per call over `reps` batches of `batch` calls.
fn batched_ns<R>(reps: usize, batch: usize, mut f: impl FnMut() -> R) -> f64 {
    median_secs(reps, || {
        for _ in 0..batch {
            black_box(f());
        }
    }) / batch as f64
        * 1e9
}

/// Runs the probes that `workload`'s traced run owns, with inputs
/// derived from `seed`: the layers the workload uses, except that
/// `core` (3 s of probes) goes to `frontier_search` alone because the
/// traced `clients_day` run is the longest already. Between them the
/// five workloads run every probe once.
pub fn run(workload: &str, seed: u64) -> Values {
    let mut values = Values::default();
    match workload {
        "clients_day" => {
            crypto(seed, &mut values);
            consensus(&mut values);
        }
        "frontier_search" => core(seed, &mut values),
        "session_week" => {
            simnet(seed, &mut values);
            dirdist(seed, &mut values);
            obs(seed, &mut values);
        }
        "serve_reads" => dircached(seed, &mut values),
        "serve_churn" => tordoc(seed, &mut values),
        other => unreachable!("{other} is not a workload"),
    }
    values
}

fn crypto(seed: u64, values: &mut Values) {
    let mut key_seed = [0u8; 32];
    key_seed[..8].copy_from_slice(&seed.to_le_bytes());
    let key = SigningKey::from_seed(key_seed);
    let message = b"consensus document digest ................";
    let signature = key.sign(message);
    let public = key.verifying_key();
    values.set(
        "crypto.sign_us",
        median_secs(200, || key.sign(black_box(message))) * 1e6,
    );
    values.set(
        "crypto.verify_us",
        median_secs(200, || public.verify(black_box(message), &signature)) * 1e6,
    );
    let data = vec![seed as u8; 1 << 20];
    values.set(
        "crypto.sha256_mb_s",
        1.048_576 / median_secs(9, || sha256::digest(black_box(&data))),
    );
    values.set(
        "crypto.sha512_mb_s",
        1.048_576 / median_secs(9, || sha512::digest(black_box(&data))),
    );
}

fn tordoc(seed: u64, values: &mut Values) {
    let population = generate_population(&PopulationConfig { seed, count: 1_000 });
    let votes: Vec<Vote> = (0..9u8)
        .map(|i| {
            let view = authority_view(&population, AuthorityId(i), seed, &ViewConfig::default());
            let meta =
                VoteMeta::standard(AuthorityId(i), &format!("auth{i}"), "AB".repeat(20), 3_600);
            Vote::new(meta, view)
        })
        .collect();
    let encoded = votes[0].encode();
    values.set(
        "tordoc.vote_encode_ms",
        median_secs(30, || votes[0].encode()) * 1e3,
    );
    values.set(
        "tordoc.vote_parse_ms",
        median_secs(30, || Vote::parse(black_box(&encoded)).expect("parses")) * 1e3,
    );
    let refs: Vec<&Vote> = votes.iter().collect();
    values.set(
        "tordoc.aggregate_ms",
        median_secs(15, || aggregate(black_box(&refs))) * 1e3,
    );

    let pair = consensus_series(&DocSetConfig {
        seed,
        relays: 2_000,
        history: 2,
        churn_per_hour: 20,
    });
    let (old, new) = (&pair[0], &pair[1]);
    let diff = ConsensusDiff::compute(old, new);
    values.set(
        "tordoc.diff_compute_ms",
        median_secs(15, || {
            ConsensusDiff::compute(black_box(old), black_box(new))
        }) * 1e3,
    );
    values.set(
        "tordoc.diff_apply_ms",
        median_secs(15, || diff.apply(black_box(old)).expect("applies")) * 1e3,
    );
    let publish_ms: Vec<f64> = (0..7)
        .map(|_| {
            let mut store = DiffStore::new(3);
            store.publish(old.clone());
            let next = new.clone();
            let start = Instant::now();
            store.publish(next);
            let took = start.elapsed().as_secs_f64() * 1e3;
            black_box(store);
            took
        })
        .collect();
    values.set("tordoc.store_publish_ms", stats::median(&publish_ms));
    let mut store = DiffStore::new(3);
    store.publish(old.clone());
    store.publish(new.clone());
    let old_digest = old.digest();
    values.set(
        "tordoc.store_serve_us",
        batched_ns(9, 200, || {
            store
                .serve(black_box(Some(&old_digest)))
                .expect("store is populated")
                .wire_bytes()
        }) / 1e3,
    );
}

/// A node that answers every message with a smaller one until the tag
/// runs out: nine of them all-to-all keep the engine's heap busy with
/// nothing but its own events.
struct Echo {
    hops: u64,
}

impl Node for Echo {
    type Msg = SizedPayload;

    fn on_start(&mut self, ctx: &mut Context<'_, SizedPayload>) {
        ctx.broadcast(SizedPayload {
            tag: self.hops,
            size: 512,
        });
    }

    fn on_message(&mut self, ctx: &mut Context<'_, SizedPayload>, from: NodeId, msg: SizedPayload) {
        if msg.tag > 0 {
            ctx.send(
                from,
                SizedPayload {
                    tag: msg.tag - 1,
                    size: 512,
                },
            );
        }
    }
}

fn simnet(seed: u64, values: &mut Values) {
    let rates: Vec<f64> = (0..5)
        .map(|_| {
            let nodes = (0..9).map(|_| Echo { hops: 150 }).collect();
            let topology = LatencyMatrix::uniform(9, SimDuration::from_millis(20));
            let config = SimConfig {
                seed,
                ..SimConfig::default()
            };
            let mut sim = Simulation::new(topology, nodes, config);
            let start = Instant::now();
            let stats = sim.run();
            stats.events as f64 / start.elapsed().as_secs_f64()
        })
        .collect();
    values.set("simnet.events_per_s", stats::median(&rates));
}

#[derive(Clone)]
struct Val(Vec<u8>);

impl ConsensusValue for Val {
    fn digest(&self) -> Digest32 {
        sha256::digest(&self.0)
    }
    fn wire_size(&self) -> u64 {
        self.0.len() as u64
    }
}

/// One happy-path BFT decision among `n` in-memory nodes; returns the
/// number of messages delivered.
fn decide_once(n: usize, f: usize, signers: &[SigningKey]) -> usize {
    let keys: Vec<_> = signers.iter().map(SigningKey::verifying_key).collect();
    let mut nodes: Vec<ConsensusInstance<Val>> = (0..n)
        .map(|node| {
            let config = ConsensusConfig {
                instance: 5,
                n,
                f,
                node,
                leader_offset: 0,
                base_timeout_ms: 1_000_000,
            };
            ConsensusInstance::new(
                config,
                keys.clone(),
                signers[node].clone(),
                Box::new(|_: &Val| true),
            )
        })
        .collect();
    let mut queue: VecDeque<(usize, ConsensusMsg<Val>)> = VecDeque::new();
    let route = |queue: &mut VecDeque<_>, from: usize, actions: Vec<Action<Val>>| {
        for action in actions {
            match action {
                Action::Send { to, msg } => queue.push_back((to, msg)),
                Action::Broadcast { msg } => {
                    queue.extend((0..n).filter(|&to| to != from).map(|to| (to, msg.clone())))
                }
                _ => {}
            }
        }
    };
    for (i, node) in nodes.iter_mut().enumerate() {
        let mut actions = node.start();
        actions.extend(node.set_input(Val(vec![i as u8; 64])));
        route(&mut queue, i, actions);
    }
    let mut delivered = 0;
    while let Some((to, msg)) = queue.pop_front() {
        delivered += 1;
        let actions = nodes[to].on_message(msg);
        route(&mut queue, to, actions);
        if nodes.iter().all(|node| node.decided().is_some()) {
            break;
        }
    }
    delivered
}

fn consensus(values: &mut Values) {
    let signers: Vec<SigningKey> = (0..9u8)
        .map(|i| SigningKey::from_seed([i + 1; 32]))
        .collect();
    let mut delivered = 0;
    let secs = median_secs(3, || delivered = decide_once(9, 2, &signers));
    values.set("consensus.decide_ms_n9", secs * 1e3);
    values.set("consensus.msgs_per_decide", delivered as f64);
}

fn core(seed: u64, values: &mut Values) {
    let calm = Scenario {
        seed,
        relays: 8_000,
        ..Scenario::default()
    };
    let attacked = Scenario {
        attack: AttackPlan::five_of_nine(),
        ..calm.clone()
    };
    let mut timed_run = |metric, reps, protocol, scenario: &Scenario| -> RunReport {
        let mut report = None;
        let secs = median_secs(reps, || report = Some(runner::run(protocol, scenario)));
        values.set(metric, secs * 1e3);
        report.expect("reps > 0")
    };
    let icps = timed_run("core.run_icps_ms", 2, ProtocolKind::Icps, &calm);
    let icps_attacked = timed_run(
        "core.run_icps_attacked_ms",
        2,
        ProtocolKind::Icps,
        &attacked,
    );
    let current = timed_run("core.run_current_ms", 8, ProtocolKind::Current, &calm);
    timed_run("core.run_sync_ms", 4, ProtocolKind::Synchronous, &calm);
    values.set("core.icps_msgs_per_run", icps.total_tx_msgs as f64);
    values.set("core.icps_tx_bytes_per_run", icps.total_tx_bytes as f64);
    values.set("core.current_msgs_per_run", current.total_tx_msgs as f64);
    let round_max = icps_attacked
        .authorities
        .iter()
        .filter_map(|a| a.decided_round)
        .max();
    values.set("core.icps_decided_round_max", round_max.unwrap_or(0) as f64);

    let jobs: Vec<SweepJob> = (0..16)
        .map(|i| {
            let scenario = Scenario {
                seed: seed.wrapping_add(i),
                ..calm.clone()
            };
            SweepJob::new(ProtocolKind::Current, scenario)
        })
        .collect();
    let serial = median_secs(1, || runner::sweep_threads(&jobs, 1));
    let parallel = median_secs(1, || runner::sweep(&jobs));
    values.set("core.sweep_speedup", serial / parallel);

    // A day of hourly five-authority windows, latest first, so that
    // normalisation has sorting and merging to do.
    let windows: Vec<AttackWindow> = (0..24u64)
        .rev()
        .flat_map(|hour| {
            (0..5).map(move |authority| {
                AttackWindow::new(
                    Target::Authority(authority),
                    SimTime::from_secs(hour * 3_600),
                    SimDuration::from_secs(300),
                    240.0,
                )
            })
        })
        .collect();
    values.set(
        "core.plan_normalize_us",
        batched_ns(9, 20, || AttackPlan::new(windows.clone())) / 1e3,
    );

    let day = [ClientsResult {
        protocol: "probe".to_string(),
        produced_hours: 24,
        dist: session_day(seed, false, &Tracer::disabled(), &[]),
        fetch_mixes: Vec::new(),
    }];
    values.set(
        "core.json_encode_ms",
        median_secs(15, || clients::to_json(black_box(&day)).render()) * 1e3,
    );
}

/// A 3 M-client, 200-cache day; `failed` hours produce no consensus and
/// see five authorities flooded for five minutes.
fn session_day(
    seed: u64,
    attribution: bool,
    tracer: &Tracer,
    failed: &[u64],
) -> partialtor_dirdist::DistReport {
    let config = DistConfig {
        seed,
        attribution,
        link_windows: failed
            .iter()
            .flat_map(|&hour| {
                (0..5).map(move |authority| LinkWindow {
                    node: TierNode::Authority(authority),
                    start_secs: (hour * 3_600) as f64,
                    duration_secs: 300.0,
                    bps: 0.5e6,
                })
            })
            .collect(),
        ..DistConfig::default()
    };
    let mut session =
        DistSession::with_telemetry(&config, DocModel::synthetic(config.relays), tracer.clone());
    for hour in 1..=24 {
        session.step_hour(if failed.contains(&hour) {
            HourInput::failed()
        } else {
            HourInput::produced(330.0)
        });
    }
    session.into_report()
}

fn dirdist(seed: u64, values: &mut Values) {
    let outcomes = [Some(330.0); 24];
    let timeline = ConsensusTimeline::from_hourly_outcomes(&outcomes, 3_600, 10_800);
    let model = DocModel::synthetic(8_000);
    let mut table = DocTable::new();
    for p in &timeline.publications {
        table.push_version(&model, p.hour, 0.02 * p.hour as f64, 3);
    }
    let tier = cachesim::CacheSimConfig {
        seed,
        n_caches: 200,
        ..cachesim::CacheSimConfig::default()
    };
    values.set(
        "dirdist.tier_day_ms",
        median_secs(7, || cachesim::run(&tier, &timeline, &table)) * 1e3,
    );
    let cached_at: Vec<Option<f64>> = timeline
        .publications
        .iter()
        .map(|p| Some(p.available_at_secs + 120.0))
        .collect();
    let clients = FleetConfig::sized(3_000_000, seed);
    values.set(
        "dirdist.fleet_day_ms",
        median_secs(30, || fleet::run(&clients, &timeline, &table, &cached_at)) * 1e3,
    );
    let quiet = Tracer::disabled();
    values.set(
        "dirdist.session_day_ms",
        median_secs(9, || session_day(seed, false, &quiet, &[])) * 1e3,
    );
    values.set(
        "dirdist.session_day_attr_ms",
        median_secs(9, || session_day(seed, true, &quiet, &[])) * 1e3,
    );
}

fn obs(seed: u64, values: &mut Values) {
    let tracer = Tracer::enabled(1 << 12);
    let event = || TraceEvent::HttpRequest {
        at_secs: 1.5,
        status: 200,
        served: "diff",
        bytes: 4_096,
    };
    values.set("obs.emit_ns", batched_ns(9, 2_000, || tracer.emit(event())));
    let registry = Registry::new();
    values.set(
        "obs.observe_ns",
        batched_ns(9, 2_000, || {
            registry.observe("probe.request_secs", black_box(0.004))
        }),
    );
    // Outage hours are where the session emits most: retries, timeouts
    // and the links' windows.
    let failed = [4, 5, 6, 7, 8, 9];
    let quiet = Tracer::disabled();
    let plain = median_secs(7, || session_day(seed, false, &quiet, &failed));
    let traced = median_secs(7, || {
        session_day(seed, false, &Tracer::enabled(1 << 16), &failed)
    });
    values.set("obs.trace_overhead_ratio", traced / plain);
}

fn dircached(seed: u64, values: &mut Values) {
    let docs = consensus_series(&DocSetConfig {
        seed,
        relays: 500,
        history: 5,
        churn_per_hour: 10,
    });
    let store = ServingStore::new(3);
    for doc in &docs {
        store.publish(doc.clone());
    }
    let base = docs[3].digest();
    let refresh = DocRequest::Consensus { base: Some(base) };
    let bytes = refresh.encode();
    values.set(
        "dircached.parse_ns",
        batched_ns(9, 500, || parse_request(black_box(bytes.as_bytes()))),
    );
    let head = ResponseHead {
        status: 200,
        served: "diff",
        digest: Some(base),
        body_len: 4_096,
    };
    values.set(
        "dircached.head_encode_ns",
        batched_ns(9, 500, || black_box(&head).encode()),
    );
    let full = DocRequest::Consensus { base: None };
    values.set(
        "dircached.serve_full_ns",
        batched_ns(9, 2_000, || store.serve(black_box(&full))),
    );
    values.set(
        "dircached.serve_diff_ns",
        batched_ns(9, 2_000, || store.serve(black_box(&refresh))),
    );

    // The kernel's floor under every request: a loopback handshake to a
    // listener that does nothing else.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("loopback listener");
    let addr = listener.local_addr().expect("bound address");
    let connect_us: Vec<f64> = (0..300)
        .map(|_| {
            let start = Instant::now();
            let client = std::net::TcpStream::connect(addr).expect("loopback connect");
            let took = start.elapsed().as_secs_f64() * 1e6;
            drop(listener.accept());
            drop(client);
            took
        })
        .collect();
    values.set("dircached.connect_us_p50", stats::median(&connect_us));
}
