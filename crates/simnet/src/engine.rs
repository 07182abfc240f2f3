//! The discrete-event simulation engine.
//!
//! A [`Simulation`] owns a set of nodes (protocol state machines), their
//! link pipes, and one queue of pending events. Execution is strictly
//! deterministic: events run in time order, ties broken by insertion
//! sequence, and all randomness flows from the seeded RNG in
//! [`SimConfig`]. Since simulated time never goes backwards, the queue is
//! a monotone radix queue of `(time, slot)` entries that keeps the events
//! of one instant in insertion order; each pending event's payload waits
//! in a slab slot that is reused once the event is dispatched.

use crate::link::{Pipe, PipeAction, Transfer};
use crate::message::{NodeId, Payload};
use crate::metrics::Metrics;
use crate::queue::{Entry, RadixQueue};
use crate::time::{SimDuration, SimTime};
use crate::topology::LatencyMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Seed for all simulation randomness.
    pub seed: u64,
    /// Default uplink rate per node, bits per second.
    pub default_up_bps: f64,
    /// Default downlink rate per node, bits per second.
    pub default_down_bps: f64,
    /// Framing overhead added to every message's wire size, in bytes
    /// (models TCP/TLS/HTTP headers of the directory connections).
    pub wire_overhead_bytes: u64,
    /// Multiplicative propagation-latency jitter: each message's latency
    /// is scaled by a factor drawn uniformly from `[1 − j, 1 + j]`.
    /// Zero (the default) keeps latencies exact and runs bit-reproducible
    /// across configurations that only differ in jitter.
    pub latency_jitter: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            default_up_bps: 250e6, // the paper's 250 Mbit/s authority links
            default_down_bps: 250e6,
            wire_overhead_bytes: 64,
            latency_jitter: 0.0,
        }
    }
}

/// A protocol state machine living on one simulated host.
pub trait Node {
    /// The message type exchanged by this protocol.
    type Msg: Payload;

    /// Called once when the simulation starts.
    fn on_start(&mut self, _ctx: &mut Context<'_, Self::Msg>) {}

    /// Called when a message is fully delivered to this node.
    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: NodeId, msg: Self::Msg);

    /// Called when a timer set by this node fires.
    fn on_timer(&mut self, _ctx: &mut Context<'_, Self::Msg>, _tag: u64) {}
}

enum EventKind<M> {
    TimerFire {
        node: NodeId,
        tag: u64,
    },
    UplinkComplete {
        node: NodeId,
        generation: u64,
    },
    DownlinkArrive {
        transfer: Transfer<M>,
    },
    DownlinkComplete {
        node: NodeId,
        generation: u64,
    },
    BandwidthChange {
        node: NodeId,
        up_bps: Option<f64>,
        down_bps: Option<f64>,
    },
    BackgroundLoadChange {
        node: NodeId,
        up_bps: Option<f64>,
        down_bps: Option<f64>,
    },
    LocalDeliver {
        node: NodeId,
        from: NodeId,
        msg: M,
    },
}

/// Engine internals shared with nodes through [`Context`].
pub struct EngineCore<M> {
    /// The time of the event being (or last) dispatched.
    now: SimTime,
    /// Pending events' `(time, slot)` entries, popped in time order and,
    /// within one time, in insertion order.
    queue: RadixQueue,
    /// Pending events' payloads, indexed by an entry's slot; `free` lists
    /// the empty slots.
    slab: Vec<Option<EventKind<M>>>,
    free: Vec<u32>,
    uplinks: Vec<Pipe<M>>,
    downlinks: Vec<Pipe<M>>,
    latency: LatencyMatrix,
    metrics: Metrics,
    wire_overhead: u64,
    latency_jitter: f64,
    stopped: bool,
    rng: StdRng,
    events_processed: u64,
}

impl<M: Payload> EngineCore<M> {
    /// Queues an event at `at`, which must not precede `now`: every
    /// schedule, timer and send comes through here.
    fn push(&mut self, at: SimTime, kind: EventKind<M>) {
        debug_assert!(at >= self.now, "event scheduled in the past");
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(kind);
                slot
            }
            None => {
                self.slab.push(Some(kind));
                u32::try_from(self.slab.len() - 1).expect("pending events fit a u32 slot")
            }
        };
        self.queue.push(Entry { at, slot });
    }

    fn apply_uplink_action(&mut self, node: NodeId, action: PipeAction) {
        if let PipeAction::Schedule { at, generation } = action {
            self.push(at, EventKind::UplinkComplete { node, generation });
        }
    }

    fn apply_downlink_action(&mut self, node: NodeId, action: PipeAction) {
        if let PipeAction::Schedule { at, generation } = action {
            self.push(at, EventKind::DownlinkComplete { node, generation });
        }
    }

    fn send_from(&mut self, from: NodeId, to: NodeId, msg: M) {
        if from == to {
            // Local delivery bypasses the network entirely: no wire
            // bytes, no byte accounting.
            self.push(
                self.now,
                EventKind::LocalDeliver {
                    node: to,
                    from,
                    msg,
                },
            );
            return;
        }
        let kind = msg.kind();
        let total_bytes = msg.wire_size() + self.wire_overhead;
        self.metrics.record_tx(from, kind, total_bytes);
        let transfer = Transfer {
            from,
            to,
            msg,
            total_bytes,
            bytes_left: total_bytes as f64,
            last_update: self.now,
        };
        let action = self.uplinks[from.index()].enqueue(self.now, transfer);
        self.apply_uplink_action(from, action);
    }
}

/// The per-callback handle nodes use to interact with the simulated world.
pub struct Context<'a, M: Payload> {
    core: &'a mut EngineCore<M>,
    node: NodeId,
    n: usize,
}

impl<'a, M: Payload> Context<'a, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// The id of the node being called.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// Total number of nodes in the simulation.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Sends `msg` to `to` through the network (or locally if `to == self`).
    pub fn send(&mut self, to: NodeId, msg: M) {
        let from = self.node;
        self.core.send_from(from, to, msg);
    }

    /// Sends `msg` to every other node.
    pub fn broadcast(&mut self, msg: M) {
        let from = self.node;
        for i in 0..self.n {
            if i != from.index() {
                self.core.send_from(from, NodeId(i), msg.clone());
            }
        }
    }

    /// Arms a timer that fires after `delay`, carrying `tag`.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) {
        let node = self.node;
        let at = self.core.now + delay;
        self.core.push(at, EventKind::TimerFire { node, tag });
    }

    /// Requests that the simulation stop after the current event.
    pub fn stop(&mut self) {
        self.core.stopped = true;
    }

    /// Deterministic simulation RNG (shared across nodes).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.core.rng
    }
}

/// Summary of a simulation run.
#[derive(Clone, Copy, Debug)]
pub struct RunStats {
    /// Events processed since the simulation was built, over every run
    /// (as [`Simulation::events_processed`]), not only this call's.
    pub events: u64,
    /// Simulated time when the run stopped.
    pub end_time: SimTime,
    /// Whether a node requested the stop (vs. queue exhaustion/deadline).
    pub stopped_by_node: bool,
}

/// A deterministic discrete-event simulation over a set of homogeneous
/// nodes.
///
/// # Examples
///
/// ```
/// use partialtor_simnet::prelude::*;
///
/// struct Echo;
/// impl Node for Echo {
///     type Msg = SizedPayload;
///     fn on_start(&mut self, ctx: &mut Context<'_, SizedPayload>) {
///         if ctx.id().index() == 0 {
///             ctx.send(NodeId(1), SizedPayload { tag: 1, size: 100 });
///         }
///     }
///     fn on_message(&mut self, ctx: &mut Context<'_, SizedPayload>, _from: NodeId, _msg: SizedPayload) {
///         ctx.stop();
///     }
/// }
///
/// let topo = LatencyMatrix::uniform(2, SimDuration::from_millis(10));
/// let mut sim = Simulation::new(topo, vec![Echo, Echo], SimConfig::default());
/// let stats = sim.run();
/// assert!(stats.stopped_by_node);
/// ```
pub struct Simulation<N: Node> {
    core: EngineCore<N::Msg>,
    nodes: Vec<N>,
    started: bool,
}

impl<N: Node> Simulation<N> {
    /// Creates a simulation; `latency.len()` must equal `nodes.len()`.
    ///
    /// # Panics
    ///
    /// Panics if the topology size does not match the node count.
    pub fn new(latency: LatencyMatrix, nodes: Vec<N>, config: SimConfig) -> Self {
        assert_eq!(
            latency.len(),
            nodes.len(),
            "topology size must match node count"
        );
        let n = nodes.len();
        let core = EngineCore {
            now: SimTime::ZERO,
            queue: RadixQueue::new(),
            slab: Vec::new(),
            free: Vec::new(),
            uplinks: (0..n).map(|_| Pipe::new(config.default_up_bps)).collect(),
            downlinks: (0..n).map(|_| Pipe::new(config.default_down_bps)).collect(),
            latency,
            metrics: Metrics::new(n),
            wire_overhead: config.wire_overhead_bytes,
            latency_jitter: config.latency_jitter.clamp(0.0, 0.99),
            stopped: false,
            rng: StdRng::seed_from_u64(config.seed),
            events_processed: 0,
        };
        Simulation {
            core,
            nodes,
            started: false,
        }
    }

    /// Schedules a bandwidth change at an absolute simulated time.
    ///
    /// `None` leaves that direction unchanged. This is the attack injection
    /// point: a DDoS window is two scheduled changes (down then back up).
    /// `at` must not precede the current simulated time (checked in debug
    /// builds).
    pub fn schedule_bandwidth_change(
        &mut self,
        at: SimTime,
        node: NodeId,
        up_bps: Option<f64>,
        down_bps: Option<f64>,
    ) {
        self.core.push(
            at,
            EventKind::BandwidthChange {
                node,
                up_bps,
                down_bps,
            },
        );
    }

    /// Schedules a timer on `node` at an absolute simulated time, as if
    /// the node had armed it itself with [`Context::set_timer`].
    ///
    /// This is the external-driver injection point: a stepped
    /// co-simulation (e.g. the distribution layer's hour-stepped
    /// session) learns about new work between [`Simulation::run_until`]
    /// calls and needs to wake the affected nodes at the right simulated
    /// moment without rebuilding the engine. `at` must not precede the
    /// current simulated time (checked in debug builds).
    pub fn schedule_timer(&mut self, at: SimTime, node: NodeId, tag: u64) {
        self.core.push(at, EventKind::TimerFire { node, tag });
    }

    /// Schedules a change of a node's aggregate background load (bits/s)
    /// at an absolute simulated time.
    ///
    /// Background load models bulk traffic — a client fleet hammering a
    /// directory cache, legacy clients fetching straight from an
    /// authority — without materializing per-flow transfers: the link
    /// keeps only `rate − load` for simulated messages. It composes with
    /// [`Simulation::schedule_bandwidth_change`], so a DDoS window and
    /// fleet load stack on the same link. `None` leaves that direction
    /// unchanged. `at` must not precede the current simulated time
    /// (checked in debug builds).
    pub fn schedule_background_load(
        &mut self,
        at: SimTime,
        node: NodeId,
        up_bps: Option<f64>,
        down_bps: Option<f64>,
    ) {
        self.core.push(
            at,
            EventKind::BackgroundLoadChange {
                node,
                up_bps,
                down_bps,
            },
        );
    }

    /// Runs until the event queue drains, a node calls `stop()`, or
    /// simulated time would exceed `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) -> RunStats {
        if !self.started {
            self.started = true;
            for i in 0..self.nodes.len() {
                let mut ctx = Context {
                    core: &mut self.core,
                    node: NodeId(i),
                    n: self.nodes.len(),
                };
                self.nodes[i].on_start(&mut ctx);
            }
        }

        while !self.core.stopped {
            let Some(entry) = self.core.queue.pop(deadline) else {
                break;
            };
            let kind = self.core.slab[entry.slot as usize]
                .take()
                .expect("a pending event's slot holds its payload");
            self.core.free.push(entry.slot);
            self.core.now = entry.at;
            self.core.events_processed += 1;
            self.dispatch(kind);
        }

        RunStats {
            events: self.core.events_processed,
            end_time: self.core.now,
            stopped_by_node: self.core.stopped,
        }
    }

    /// Runs until the queue drains or a node stops the simulation.
    pub fn run(&mut self) -> RunStats {
        self.run_until(SimTime::MAX)
    }

    fn dispatch(&mut self, kind: EventKind<N::Msg>) {
        match kind {
            EventKind::TimerFire { node, tag } => {
                let mut ctx = Context {
                    core: &mut self.core,
                    node,
                    n: self.nodes.len(),
                };
                self.nodes[node.index()].on_timer(&mut ctx, tag);
            }
            EventKind::UplinkComplete { node, generation } => {
                let now = self.core.now;
                let (finished, action) = self.core.uplinks[node.index()].complete(now, generation);
                self.core.apply_uplink_action(node, action);
                if let Some(mut transfer) = finished {
                    let base = self.core.latency.get(transfer.from, transfer.to);
                    let latency = if self.core.latency_jitter > 0.0 {
                        use rand::Rng;
                        let j = self.core.latency_jitter;
                        let factor = self.core.rng.gen_range(1.0 - j..=1.0 + j);
                        SimDuration::from_secs_f64(base.as_secs_f64() * factor)
                    } else {
                        base
                    };
                    let arrive = now + latency;
                    transfer.bytes_left = transfer.total_bytes as f64;
                    self.core
                        .push(arrive, EventKind::DownlinkArrive { transfer });
                } else {
                    // Stale completion from before a rate change.
                    self.core.metrics.record_expired();
                }
            }
            EventKind::DownlinkArrive { mut transfer } => {
                let now = self.core.now;
                let to = transfer.to;
                transfer.last_update = now;
                let action = self.core.downlinks[to.index()].enqueue(now, transfer);
                self.core.apply_downlink_action(to, action);
            }
            EventKind::DownlinkComplete { node, generation } => {
                let now = self.core.now;
                let (finished, action) =
                    self.core.downlinks[node.index()].complete(now, generation);
                self.core.apply_downlink_action(node, action);
                if let Some(transfer) = finished {
                    self.core
                        .metrics
                        .record_rx(node, transfer.msg.kind(), transfer.total_bytes);
                    let mut ctx = Context {
                        core: &mut self.core,
                        node,
                        n: self.nodes.len(),
                    };
                    self.nodes[node.index()].on_message(&mut ctx, transfer.from, transfer.msg);
                } else {
                    self.core.metrics.record_expired();
                }
            }
            EventKind::BandwidthChange {
                node,
                up_bps,
                down_bps,
            } => {
                let now = self.core.now;
                if let Some(up) = up_bps {
                    let action = self.core.uplinks[node.index()].set_rate(now, up);
                    self.core.apply_uplink_action(node, action);
                }
                if let Some(down) = down_bps {
                    let action = self.core.downlinks[node.index()].set_rate(now, down);
                    self.core.apply_downlink_action(node, action);
                }
            }
            EventKind::BackgroundLoadChange {
                node,
                up_bps,
                down_bps,
            } => {
                let now = self.core.now;
                if let Some(up) = up_bps {
                    let action = self.core.uplinks[node.index()].set_background_load(now, up);
                    self.core.apply_uplink_action(node, action);
                }
                if let Some(down) = down_bps {
                    let action = self.core.downlinks[node.index()].set_background_load(now, down);
                    self.core.apply_downlink_action(node, action);
                }
            }
            EventKind::LocalDeliver { node, from, msg } => {
                let mut ctx = Context {
                    core: &mut self.core,
                    node,
                    n: self.nodes.len(),
                };
                self.nodes[node.index()].on_message(&mut ctx, from, msg);
            }
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Immutable access to a node.
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id.index()]
    }

    /// Mutable access to a node (between runs).
    pub fn node_mut(&mut self, id: NodeId) -> &mut N {
        &mut self.nodes[id.index()]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[N] {
        &self.nodes
    }

    /// Events processed so far, over every run.
    pub fn events_processed(&self) -> u64 {
        self.core.events_processed
    }

    /// Traffic statistics.
    pub fn metrics(&self) -> &Metrics {
        &self.core.metrics
    }

    /// Current aggregate background load on a node's links, bits/s, as
    /// `(uplink, downlink)`.
    pub fn background_load(&self, node: NodeId) -> (f64, f64) {
        (
            self.core.uplinks[node.index()].background_bits_per_sec(),
            self.core.downlinks[node.index()].background_bits_per_sec(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::SizedPayload;

    /// Node that records the arrival times of everything it receives.
    struct Recorder {
        received: Vec<(SimTime, NodeId, u64)>,
        send_plan: Vec<(NodeId, SizedPayload)>,
    }

    impl Recorder {
        fn new(send_plan: Vec<(NodeId, SizedPayload)>) -> Self {
            Recorder {
                received: Vec::new(),
                send_plan,
            }
        }
    }

    impl Node for Recorder {
        type Msg = SizedPayload;

        fn on_start(&mut self, ctx: &mut Context<'_, SizedPayload>) {
            for (to, msg) in self.send_plan.drain(..) {
                ctx.send(to, msg);
            }
        }

        fn on_message(
            &mut self,
            ctx: &mut Context<'_, SizedPayload>,
            from: NodeId,
            msg: SizedPayload,
        ) {
            self.received.push((ctx.now(), from, msg.tag));
        }
    }

    fn config_1mbps() -> SimConfig {
        SimConfig {
            seed: 1,
            default_up_bps: 1e6,
            default_down_bps: 1e6,
            wire_overhead_bytes: 0,
            latency_jitter: 0.0,
        }
    }

    #[test]
    fn transfer_time_is_serialization_plus_latency() {
        // 1 Mbit/s, 100 ms latency, 125 000-byte message (= 1 s on the wire).
        // The downlink also serializes at 1 Mbit/s, so delivery is at
        // 1 s (uplink) + 0.1 s (latency) + 1 s (downlink) = 2.1 s.
        let topo = LatencyMatrix::uniform(2, SimDuration::from_millis(100));
        let nodes = vec![
            Recorder::new(vec![(
                NodeId(1),
                SizedPayload {
                    tag: 7,
                    size: 125_000,
                },
            )]),
            Recorder::new(vec![]),
        ];
        let mut sim = Simulation::new(topo, nodes, config_1mbps());
        sim.run();
        let received = &sim.node(NodeId(1)).received;
        assert_eq!(received.len(), 1);
        assert_eq!(received[0].0, SimTime::from_micros(2_100_000));
        assert_eq!(received[0].1, NodeId(0));
    }

    #[test]
    fn fifo_ordering_preserved() {
        let topo = LatencyMatrix::uniform(2, SimDuration::from_millis(10));
        let nodes = vec![
            Recorder::new(vec![
                (
                    NodeId(1),
                    SizedPayload {
                        tag: 1,
                        size: 50_000,
                    },
                ),
                (
                    NodeId(1),
                    SizedPayload {
                        tag: 2,
                        size: 1_000,
                    },
                ),
                (
                    NodeId(1),
                    SizedPayload {
                        tag: 3,
                        size: 1_000,
                    },
                ),
            ]),
            Recorder::new(vec![]),
        ];
        let mut sim = Simulation::new(topo, nodes, config_1mbps());
        sim.run();
        let tags: Vec<u64> = sim.node(NodeId(1)).received.iter().map(|r| r.2).collect();
        assert_eq!(tags, vec![1, 2, 3], "uplink FIFO must hold");
    }

    #[test]
    fn bandwidth_change_slows_transfer() {
        // Same as transfer_time test, but uplink drops to 0.1 Mbit/s at
        // t = 0.5 s: 0.5 s sent 62 500 B, the rest takes 62 500 B / 12.5 kB/s
        // = 5 s, so uplink completes at 5.5 s; delivery 5.5 + 0.1 + 1 = 6.6 s.
        let topo = LatencyMatrix::uniform(2, SimDuration::from_millis(100));
        let nodes = vec![
            Recorder::new(vec![(
                NodeId(1),
                SizedPayload {
                    tag: 7,
                    size: 125_000,
                },
            )]),
            Recorder::new(vec![]),
        ];
        let mut sim = Simulation::new(topo, nodes, config_1mbps());
        sim.schedule_bandwidth_change(SimTime::from_micros(500_000), NodeId(0), Some(0.1e6), None);
        sim.run();
        let received = &sim.node(NodeId(1)).received;
        assert_eq!(received[0].0, SimTime::from_micros(6_600_000));
    }

    #[test]
    fn background_load_delays_transfer_like_contention() {
        // 125 000 B at 1 Mbit/s with 0.5 Mbit/s background on the uplink
        // from t = 0: uplink serializes at 0.5 Mbit/s → 2 s, then 0.1 s
        // latency and a clean 1 s downlink → delivery at 3.1 s.
        let topo = LatencyMatrix::uniform(2, SimDuration::from_millis(100));
        let nodes = vec![
            Recorder::new(vec![(
                NodeId(1),
                SizedPayload {
                    tag: 4,
                    size: 125_000,
                },
            )]),
            Recorder::new(vec![]),
        ];
        let mut sim = Simulation::new(topo, nodes, config_1mbps());
        sim.schedule_background_load(SimTime::ZERO, NodeId(0), Some(0.5e6), None);
        sim.run();
        let received = &sim.node(NodeId(1)).received;
        assert_eq!(received.len(), 1);
        assert_eq!(received[0].0, SimTime::from_micros(3_100_000));
        assert_eq!(sim.background_load(NodeId(0)), (0.5e6, 0.0));
    }

    #[test]
    fn background_load_composes_with_ddos_window() {
        // Uplink carries 0.5 Mbit/s of fleet load throughout; a "DDoS"
        // drops the raw rate to 0.5 Mbit/s during [0, 10 s], leaving zero
        // effective bandwidth. After recovery the transfer finishes at
        // 0.5 Mbit/s effective: 125 000 B → 2 s, so uplink done at 12 s,
        // delivery at 12 + 0.1 + 1 = 13.1 s.
        let topo = LatencyMatrix::uniform(2, SimDuration::from_millis(100));
        let nodes = vec![
            Recorder::new(vec![(
                NodeId(1),
                SizedPayload {
                    tag: 8,
                    size: 125_000,
                },
            )]),
            Recorder::new(vec![]),
        ];
        let mut sim = Simulation::new(topo, nodes, config_1mbps());
        sim.schedule_background_load(SimTime::ZERO, NodeId(0), Some(0.5e6), None);
        sim.schedule_bandwidth_change(SimTime::ZERO, NodeId(0), Some(0.5e6), None);
        sim.schedule_bandwidth_change(SimTime::from_secs(10), NodeId(0), Some(1e6), None);
        sim.run();
        let received = &sim.node(NodeId(1)).received;
        assert_eq!(received.len(), 1);
        assert_eq!(received[0].0, SimTime::from_micros(13_100_000));
    }

    #[test]
    fn zero_bandwidth_outage_and_recovery() {
        // Complete outage from t=0; restored at t = 10 s. Delivery at
        // 10 + 1 + 0.1 + 1 = 12.1 s.
        let topo = LatencyMatrix::uniform(2, SimDuration::from_millis(100));
        let nodes = vec![
            Recorder::new(vec![(
                NodeId(1),
                SizedPayload {
                    tag: 9,
                    size: 125_000,
                },
            )]),
            Recorder::new(vec![]),
        ];
        let mut sim = Simulation::new(topo, nodes, config_1mbps());
        sim.schedule_bandwidth_change(SimTime::ZERO, NodeId(0), Some(0.0), None);
        sim.schedule_bandwidth_change(SimTime::from_secs(10), NodeId(0), Some(1e6), None);
        sim.run();
        let received = &sim.node(NodeId(1)).received;
        assert_eq!(received.len(), 1);
        assert_eq!(received[0].0, SimTime::from_micros(12_100_000));
    }

    #[test]
    fn self_send_delivers_immediately() {
        let topo = LatencyMatrix::uniform(1, SimDuration::ZERO);
        let nodes = vec![Recorder::new(vec![(
            NodeId(0),
            SizedPayload {
                tag: 5,
                size: 1_000_000,
            },
        )])];
        let mut sim = Simulation::new(topo, nodes, config_1mbps());
        sim.run();
        let received = &sim.node(NodeId(0)).received;
        assert_eq!(received.len(), 1);
        assert_eq!(received[0].0, SimTime::ZERO, "local delivery has no cost");
    }

    #[test]
    fn deterministic_replay() {
        let build = || {
            let topo = crate::topology::authority_topology(3);
            let nodes: Vec<Recorder> = (0..9)
                .map(|i| {
                    let plan = (0..9)
                        .filter(|&j| j != i)
                        .map(|j| {
                            (
                                NodeId(j),
                                SizedPayload {
                                    tag: i as u64,
                                    size: 10_000,
                                },
                            )
                        })
                        .collect();
                    Recorder::new(plan)
                })
                .collect();
            Simulation::new(topo, nodes, config_1mbps())
        };
        let mut s1 = build();
        let mut s2 = build();
        s1.run();
        s2.run();
        for i in 0..9 {
            assert_eq!(
                s1.node(NodeId(i)).received,
                s2.node(NodeId(i)).received,
                "node {i} diverged"
            );
        }
    }

    #[test]
    fn metrics_track_bytes() {
        let topo = LatencyMatrix::uniform(2, SimDuration::ZERO);
        let nodes = vec![
            Recorder::new(vec![(
                NodeId(1),
                SizedPayload {
                    tag: 1,
                    size: 1_000,
                },
            )]),
            Recorder::new(vec![]),
        ];
        let mut config = config_1mbps();
        config.wire_overhead_bytes = 64;
        let mut sim = Simulation::new(topo, nodes, config);
        sim.run();
        assert_eq!(sim.metrics().node(NodeId(0)).tx_bytes, 1_064);
        assert_eq!(sim.metrics().node(NodeId(1)).rx_bytes, 1_064);
        assert_eq!(sim.metrics().by_kind()["msg"].count, 1);
        assert_eq!(sim.metrics().by_kind()["msg"].rx_bytes, 1_064);
        assert_eq!(sim.metrics().by_kind()["msg"].rx_count, 1);
        assert_eq!(sim.metrics().expired_events(), 0);
    }

    #[test]
    fn rate_changes_count_as_expired_events() {
        // A mid-transfer rate change invalidates the scheduled uplink
        // completion: one expired event.
        let topo = LatencyMatrix::uniform(2, SimDuration::from_millis(100));
        let nodes = vec![
            Recorder::new(vec![(
                NodeId(1),
                SizedPayload {
                    tag: 7,
                    size: 125_000,
                },
            )]),
            Recorder::new(vec![]),
        ];
        let mut sim = Simulation::new(topo, nodes, config_1mbps());
        sim.schedule_bandwidth_change(SimTime::from_micros(500_000), NodeId(0), Some(0.1e6), None);
        sim.run();
        assert_eq!(sim.node(NodeId(1)).received.len(), 1, "message delivered");
        assert_eq!(
            sim.metrics().expired_events(),
            1,
            "the pre-change uplink completion expired"
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "event scheduled in the past")]
    fn a_past_dated_bandwidth_change_panics_where_it_is_scheduled() {
        let topo = LatencyMatrix::uniform(1, SimDuration::ZERO);
        let node = TimerNode { fired: vec![] };
        let mut sim = Simulation::new(topo, vec![node], SimConfig::default());
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.now(), SimTime::from_secs(2));
        sim.schedule_bandwidth_change(SimTime::from_secs(1), NodeId(0), Some(1e6), None);
    }

    #[test]
    fn run_until_respects_deadline() {
        let topo = LatencyMatrix::uniform(2, SimDuration::from_secs(5));
        let nodes = vec![
            Recorder::new(vec![(NodeId(1), SizedPayload { tag: 1, size: 10 })]),
            Recorder::new(vec![]),
        ];
        let mut sim = Simulation::new(topo, nodes, config_1mbps());
        let stats = sim.run_until(SimTime::from_secs(1));
        assert!(stats.end_time <= SimTime::from_secs(1));
        assert!(sim.node(NodeId(1)).received.is_empty());
        // Resume to completion.
        sim.run();
        assert_eq!(sim.node(NodeId(1)).received.len(), 1);
    }

    /// Node that exercises timers.
    struct TimerNode {
        fired: Vec<(SimTime, u64)>,
    }

    impl Node for TimerNode {
        type Msg = SizedPayload;

        fn on_start(&mut self, ctx: &mut Context<'_, SizedPayload>) {
            ctx.set_timer(SimDuration::from_secs(3), 3);
            ctx.set_timer(SimDuration::from_secs(1), 1);
            ctx.set_timer(SimDuration::from_secs(2), 2);
        }

        fn on_message(&mut self, _: &mut Context<'_, SizedPayload>, _: NodeId, _: SizedPayload) {}

        fn on_timer(&mut self, ctx: &mut Context<'_, SizedPayload>, tag: u64) {
            self.fired.push((ctx.now(), tag));
        }
    }

    /// Node 0 pushes `start_pushes` self-sends and timers (each `delays`
    /// entry, in µs) at start and `fanout` more from every handler,
    /// tagging each push with its push index, and records `(at, tag)` at
    /// each push and each dispatch. Its remote sends to node 1 add the
    /// engine's own link events to the queue, so events are freed and
    /// pushed in interleaved order.
    #[derive(Clone)]
    struct Churner {
        pushes: Vec<(SimTime, u64)>,
        dispatched: Vec<(SimTime, u64)>,
        delays: &'static [u64],
        start_pushes: usize,
        fanout: usize,
        budget: u64,
        lcg: u64,
    }

    impl Churner {
        fn spawn(&mut self, ctx: &mut Context<'_, SizedPayload>, pushes: usize) {
            for _ in 0..pushes {
                if self.budget == 0 {
                    return;
                }
                self.budget -= 1;
                self.lcg = self
                    .lcg
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let tag = self.pushes.len() as u64;
                match (self.lcg >> 33) % (self.delays.len() as u64 + 1) {
                    0 => {
                        self.pushes.push((ctx.now(), tag));
                        ctx.send(ctx.id(), SizedPayload { tag, size: 10 });
                    }
                    choice => {
                        let delay = SimDuration::from_micros(self.delays[choice as usize - 1]);
                        self.pushes.push((ctx.now() + delay, tag));
                        ctx.set_timer(delay, tag);
                    }
                }
                if self.lcg >> 62 == 0 {
                    ctx.send(NodeId(1), SizedPayload { tag, size: 100 });
                }
            }
        }
    }

    impl Node for Churner {
        type Msg = SizedPayload;

        fn on_start(&mut self, ctx: &mut Context<'_, SizedPayload>) {
            if ctx.id().index() == 0 {
                self.spawn(ctx, self.start_pushes);
            }
        }

        fn on_message(
            &mut self,
            ctx: &mut Context<'_, SizedPayload>,
            from: NodeId,
            msg: SizedPayload,
        ) {
            if from == ctx.id() {
                self.dispatched.push((ctx.now(), msg.tag));
                self.spawn(ctx, self.fanout);
            }
        }

        fn on_timer(&mut self, ctx: &mut Context<'_, SizedPayload>, tag: u64) {
            self.dispatched.push((ctx.now(), tag));
            self.spawn(ctx, self.fanout);
        }
    }

    /// Runs a two-node churner whose node 0 makes 2 000 pushes as
    /// `churner` sets them up, then returns node 0, the final stats and
    /// the number of `run_until` slices. Unless `sliced`, one `run` does it
    /// all. Sliced, the run starts at a deadline of zero and each later
    /// deadline falls on a pending push's time, one µs before one, or
    /// between pushes, before a last `run` drains the queue.
    fn run_churner(churner: Churner, sliced: bool) -> (Churner, RunStats, u64) {
        let idle = Churner {
            budget: 0,
            ..churner.clone()
        };
        let topo = LatencyMatrix::uniform(2, SimDuration::from_micros(500));
        let mut sim = Simulation::new(topo, vec![churner, idle], config_1mbps());
        let mut slices = 0u64;
        let mut deadline = Some(SimTime::ZERO).filter(|_| sliced);
        while let Some(until) = deadline {
            let stats = sim.run_until(until);
            slices += 1;
            assert!(stats.end_time <= until);
            // The deadline is inclusive: every push due by it has run,
            // and none after it.
            let node = sim.node(NodeId(0));
            let mut pending: Vec<SimTime> = node
                .pushes
                .iter()
                .map(|&(at, _)| at)
                .filter(|&at| at > until)
                .collect();
            pending.sort();
            assert_eq!(
                node.dispatched.len() + pending.len(),
                node.pushes.len(),
                "slice {slices} ends at {until:?}"
            );
            deadline = (!pending.is_empty()).then(|| {
                let at = pending[(slices as usize % 4).min(pending.len() - 1)];
                match slices % 3 {
                    0 => at,
                    1 => SimTime::from_micros(at.as_micros() - 1),
                    _ => at + SimDuration::from_micros(slices % 5 * 100),
                }
            });
        }
        let stats = sim.run();
        let node = sim.nodes.into_iter().next().expect("node 0");
        (node, stats, slices)
    }

    #[test]
    fn dispatch_order_is_time_then_push_order_under_event_reuse() {
        let churner = |delays, start_pushes, fanout| Churner {
            pushes: Vec::new(),
            dispatched: Vec::new(),
            delays,
            start_pushes,
            fanout,
            budget: 2_000,
            lcg: 42,
        };
        let inputs = [
            // Millisecond delays in one run: the pushes pile up on a few
            // instants.
            (churner(&[0, 1_000, 2_000], 3, 3), false, 1_000),
            // Delays from 1 µs to past two hours, 40 chains of one push
            // per dispatch, in slices.
            (
                churner(
                    &[0, 1, 3, 700, 65_536, 2_500_000, 900_000_000, 7_200_000_001],
                    40,
                    1,
                ),
                true,
                300,
            ),
        ];
        for (churner, sliced, min_collisions) in inputs {
            let delays = churner.delays;
            let (node, stats, slices) = run_churner(churner, sliced);
            assert_eq!(node.pushes.len(), 2_000);
            let mut expected = node.pushes.clone();
            expected.sort();
            assert_eq!(node.dispatched, expected, "delays {delays:?}");
            let collisions = expected.windows(2).filter(|w| w[0].0 == w[1].0).count();
            assert!(collisions > min_collisions, "pushes collide: {collisions}");
            assert!(stats.events > 2_000, "link events interleave");
            if sliced {
                let span = expected.last().expect("pushes").0.as_micros();
                assert!(span > 7_200_000_000, "events span hours: {span} µs");
                assert!(slices > 100, "the run is cut into slices: {slices}");
            }
        }
        assert!(
            std::mem::size_of::<Entry>() <= 16,
            "a queue entry carries no payload"
        );
    }

    #[test]
    fn timers_fire_in_order() {
        let topo = LatencyMatrix::uniform(1, SimDuration::ZERO);
        let node = TimerNode { fired: vec![] };
        let mut sim = Simulation::new(topo, vec![node], SimConfig::default());
        sim.run();
        let fired = &sim.node(NodeId(0)).fired;
        let at = |secs| (SimTime::from_secs(secs), secs);
        assert_eq!(fired, &vec![at(1), at(2), at(3)]);
    }
}
