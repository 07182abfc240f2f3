//! Property-based tests of the network simulator's transport invariants.

use partialtor_simnet::prelude::*;
use proptest::prelude::*;

/// Node that sends a scripted plan at start and records arrivals.
struct Scripted {
    plan: Vec<(usize, u64, u64)>, // (to, tag, size)
    received: Vec<(SimTime, NodeId, u64)>,
}

impl Node for Scripted {
    type Msg = SizedPayload;

    fn on_start(&mut self, ctx: &mut Context<'_, SizedPayload>) {
        for (to, tag, size) in self.plan.drain(..) {
            ctx.send(NodeId(to), SizedPayload { tag, size });
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, SizedPayload>, from: NodeId, msg: SizedPayload) {
        self.received.push((ctx.now(), from, msg.tag));
    }
}

fn build(
    n: usize,
    plans: Vec<Vec<(usize, u64, u64)>>,
    bandwidth: f64,
    seed: u64,
) -> Simulation<Scripted> {
    let nodes = plans
        .into_iter()
        .map(|plan| Scripted {
            plan,
            received: Vec::new(),
        })
        .collect();
    let config = SimConfig {
        seed,
        default_up_bps: bandwidth,
        default_down_bps: bandwidth,
        wire_overhead_bytes: 32,
        latency_jitter: 0.0,
    };
    Simulation::new(scaled_topology(n, seed), nodes, config)
}

fn random_plans(n: usize, msgs: &[(usize, usize, u64)]) -> Vec<Vec<(usize, u64, u64)>> {
    let mut plans = vec![Vec::new(); n];
    for (tag, &(from, to, size)) in msgs.iter().enumerate() {
        plans[from % n].push((to % n, tag as u64, 1 + size % 500_000));
    }
    plans
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every message sent is eventually delivered, exactly once.
    #[test]
    fn delivery_is_exactly_once(
        msgs in proptest::collection::vec((0usize..5, 0usize..5, 0u64..500_000), 1..40),
        seed in 0u64..1_000,
    ) {
        let n = 5;
        let plans = random_plans(n, &msgs);
        let expected: usize = plans
            .iter()
            .enumerate()
            .map(|(i, p)| p.iter().filter(|(to, _, _)| *to != i).count())
            .collect::<Vec<usize>>()
            .iter()
            .sum::<usize>()
            + plans
                .iter()
                .enumerate()
                .map(|(i, p)| p.iter().filter(|(to, _, _)| *to == i).count())
                .sum::<usize>();
        let mut sim = build(n, plans, 10e6, seed);
        sim.run();
        let delivered: usize = (0..n).map(|i| sim.node(NodeId(i)).received.len()).sum();
        prop_assert_eq!(delivered, expected);
    }

    /// Messages between one ordered pair arrive in send order (FIFO).
    #[test]
    fn per_pair_fifo(
        sizes in proptest::collection::vec(1u64..300_000, 2..12),
        seed in 0u64..1_000,
    ) {
        let plan: Vec<(usize, u64, u64)> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| (1usize, i as u64, s))
            .collect();
        let count = plan.len();
        let mut sim = build(2, vec![plan, Vec::new()], 5e6, seed);
        sim.run();
        let tags: Vec<u64> = sim.node(NodeId(1)).received.iter().map(|r| r.2).collect();
        prop_assert_eq!(tags, (0..count as u64).collect::<Vec<_>>());
    }

    /// Byte accounting balances: everything transmitted is received.
    #[test]
    fn byte_conservation(
        msgs in proptest::collection::vec((0usize..4, 0usize..4, 0u64..200_000), 1..30),
        seed in 0u64..1_000,
    ) {
        let n = 4;
        let mut sim = build(n, random_plans(n, &msgs), 20e6, seed);
        sim.run();
        let metrics = sim.metrics();
        let tx: u64 = (0..n).map(|i| metrics.node(NodeId(i)).tx_bytes).sum();
        let rx: u64 = (0..n).map(|i| metrics.node(NodeId(i)).rx_bytes).sum();
        prop_assert_eq!(tx, rx, "all enqueued bytes must be delivered");
    }

    /// A bandwidth outage delays but never destroys messages.
    #[test]
    fn outage_preserves_messages(
        msgs in proptest::collection::vec((0usize..4, 0usize..4, 0u64..200_000), 1..20),
        outage_secs in 1u64..100,
        seed in 0u64..1_000,
    ) {
        let n = 4;
        let plans = random_plans(n, &msgs);
        let total: usize = plans.iter().map(Vec::len).sum();

        let mut sim = build(n, plans, 10e6, seed);
        // Victim 0 goes dark immediately, recovers later.
        sim.schedule_bandwidth_change(SimTime::ZERO, NodeId(0), Some(0.0), Some(0.0));
        sim.schedule_bandwidth_change(
            SimTime::from_secs(outage_secs),
            NodeId(0),
            Some(10e6),
            Some(10e6),
        );
        sim.run();
        let delivered: usize = (0..n).map(|i| sim.node(NodeId(i)).received.len()).sum();
        prop_assert_eq!(delivered, total);
    }

    /// The same seed replays to the identical trace; message timing is a
    /// pure function of the scenario.
    #[test]
    fn deterministic_replay(
        msgs in proptest::collection::vec((0usize..5, 0usize..5, 0u64..300_000), 1..25),
        seed in 0u64..1_000,
    ) {
        let n = 5;
        let run = |s| {
            let mut sim = build(n, random_plans(n, &msgs), 8e6, s);
            sim.run();
            (0..n)
                .flat_map(|i| sim.node(NodeId(i)).received.clone())
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(seed), run(seed));
    }
}

/// Jittered latencies stay within the configured bounds and remain
/// deterministic per seed.
#[test]
fn latency_jitter_bounds_and_determinism() {
    let run = |jitter: f64, seed: u64| {
        let plan = (0..20u64).map(|i| (1usize, i, 1_000u64)).collect();
        let nodes = vec![
            Scripted {
                plan,
                received: Vec::new(),
            },
            Scripted {
                plan: Vec::new(),
                received: Vec::new(),
            },
        ];
        let config = SimConfig {
            seed,
            default_up_bps: 100e6,
            default_down_bps: 100e6,
            wire_overhead_bytes: 0,
            latency_jitter: jitter,
        };
        let topo = LatencyMatrix::uniform(2, SimDuration::from_millis(100));
        let mut sim = Simulation::new(topo, nodes, config);
        sim.run();
        sim.node(NodeId(1)).received.clone()
    };

    let exact = run(0.0, 7);
    let jittered = run(0.5, 7);
    let jittered_again = run(0.5, 7);
    assert_eq!(jittered, jittered_again, "jitter must be deterministic");
    assert_ne!(exact, jittered, "jitter must change arrival times");
    // Every message still arrives exactly once. Note that jittered
    // propagation may *reorder* distinct messages (each travels its own
    // path, like separate TCP connections) — that is intended realism,
    // so only the delivered set is asserted, not the order.
    let mut tags: Vec<u64> = jittered.iter().map(|r| r.2).collect();
    tags.sort_unstable();
    assert_eq!(tags, (0..20).collect::<Vec<_>>());
}
