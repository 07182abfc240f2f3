//! `partialtor-dircached` — the real directory-cache serving path.
//!
//! Every simulated number in this workspace rests on the per-cache
//! service budget the distribution session *assumes*
//! ([`partialtor_dirdist::per_cache_service_budget_bytes`]). This crate
//! is where that assumption meets real sockets: a std-only TCP daemon
//! ([`daemon::Daemon`]) that serves consensus documents, proposal-140
//! diffs and descriptor payloads out of a
//! [`DiffStore`](partialtor_tordoc::serve::DiffStore)-backed
//! [`store::ServingStore`] over a minimal HTTP/1.0-subset protocol
//! ([`proto`]), and an open-loop load generator ([`loadgen`], the
//! `dirload` binary) that replays a session hour's realized
//! [`FetchMix`](partialtor_dirdist::FetchMix) against it.
//!
//! The daemon is deliberately simple and deliberately honest about
//! load: a thread-per-core worker pool drains a *bounded* accept queue,
//! and a connection arriving when the queue is full is answered with an
//! immediate `503 Service Unavailable` and closed — load is shed, never
//! silently dropped, and the shed count is a first-class metric. Every
//! answered request lands in a `partialtor-obs` latency histogram and
//! (when enabled) an `http_request` trace event, so the daemon speaks
//! the same telemetry dialect as the simulation it cross-checks.
//!
//! `dirload --budget-check` closes the loop: measured payload bytes per
//! second, scaled to an hour, against the simulated per-cache budget —
//! the ratio the ROADMAP's serving-path item asked for.

pub mod daemon;
pub mod docs;
pub mod loadgen;
pub mod proto;
pub mod store;

pub use daemon::{metrics_json, Daemon, DaemonConfig};
pub use docs::{consensus_series, DocSetConfig};
pub use loadgen::{
    budget_check, synthesize_mix, BudgetCheck, LoadConfig, LoadReport, LATENCY_METRIC,
};
pub use proto::{DocRequest, Parsed, ResponseHead, MAX_REQUEST_BYTES};
pub use store::{ServeOutcome, ServingStore};
