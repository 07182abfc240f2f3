//! `partialtor-simnet` — a deterministic discrete-event network simulator.
//!
//! This crate stands in for Shadow in the paper's evaluation. It models
//! exactly the quantities the Tor directory experiments depend on:
//!
//! * **fluid-flow links**: every node has an uplink and a downlink that
//!   serialize messages FIFO at a configurable rate;
//! * **propagation latency**: a symmetric all-pairs matrix, generated from
//!   the geographic layout of the nine live directory authorities;
//! * **runtime bandwidth changes**: the DDoS injection mechanism — a
//!   victim's rates drop to the residual-bandwidth value for the attack
//!   window and recover afterwards, preserving in-flight transfer progress;
//! * **aggregate background load**: bulk traffic (client fleets fetching
//!   directory documents, legacy direct fetchers) charged against a link's
//!   rate without materializing per-flow transfers — the directory
//!   *distribution* layer (`partialtor-dirdist`) uses this to press
//!   millions of clients onto cache and authority links;
//! * **determinism**: one seeded RNG, total event ordering, reproducible
//!   runs.
//!
//! Protocol crates implement [`engine::Node`] and exchange values that
//! implement [`message::Payload`]; the simulator charges wire time for
//! `wire_size()` bytes without materializing buffers.
//!
//! # Examples
//!
//! ```
//! use partialtor_simnet::prelude::*;
//!
//! struct Pinger { got_reply_at: Option<SimTime> }
//! impl Node for Pinger {
//!     type Msg = SizedPayload;
//!     fn on_start(&mut self, ctx: &mut Context<'_, SizedPayload>) {
//!         if ctx.id() == NodeId(0) {
//!             ctx.send(NodeId(1), SizedPayload { tag: 0, size: 64 });
//!         }
//!     }
//!     fn on_message(&mut self, ctx: &mut Context<'_, SizedPayload>, from: NodeId, msg: SizedPayload) {
//!         if ctx.id() == NodeId(1) {
//!             ctx.send(from, msg); // echo
//!         } else {
//!             self.got_reply_at = Some(ctx.now());
//!             ctx.stop();
//!         }
//!     }
//! }
//!
//! let topo = LatencyMatrix::uniform(2, SimDuration::from_millis(25));
//! let nodes = vec![Pinger { got_reply_at: None }, Pinger { got_reply_at: None }];
//! let mut sim = Simulation::new(topo, nodes, SimConfig::default());
//! sim.run();
//! // Two 25 ms hops plus serialization time.
//! assert!(sim.node(NodeId(0)).got_reply_at.unwrap() >= SimTime::from_micros(50_000));
//! ```

pub mod engine;
pub mod geo;
pub mod link;
pub mod message;
pub mod metrics;
mod queue;
pub mod relay_population;
pub mod time;
pub mod topology;

pub use engine::{Context, Node, RunStats, SimConfig, Simulation};
pub use geo::{Region, AUTHORITY_NAMES, AUTHORITY_REGIONS, CLIENT_WEIGHTS, REGIONS};
pub use message::{NodeId, Payload, SizedPayload};
pub use metrics::{KindMetrics, Metrics, NodeMetrics};
pub use relay_population::{RelayPopulation, RelaySample, PAPER_MEAN_RELAYS};
pub use time::{SimDuration, SimTime};
pub use topology::{authority_topology, scaled_topology, LatencyMatrix};

/// Converts megabits per second to bits per second.
pub const fn mbps(m: f64) -> f64 {
    m * 1e6
}

/// One-stop imports for implementing and running simulations.
pub mod prelude {
    pub use crate::engine::{Context, Node, RunStats, SimConfig, Simulation};
    pub use crate::geo::{self, Region, AUTHORITY_REGIONS, CLIENT_WEIGHTS, REGIONS};
    pub use crate::message::{NodeId, Payload, SizedPayload};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::topology::{authority_topology, scaled_topology, LatencyMatrix};
    pub use crate::{mbps, RelayPopulation};
}
