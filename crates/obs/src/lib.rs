//! `partialtor-obs` — the workspace's telemetry substrate.
//!
//! Three independent instruments, all std-only and dependency-free so
//! any layer above `simnet` (which stays free of them) can use them
//! without cycles:
//!
//! * [`trace`] — typed, timestamped [`TraceEvent`]s emitted through a
//!   cloneable [`Tracer`] handle. A disabled tracer is a `None` and every
//!   emit is a near-free branch; an enabled tracer ring-buffers events
//!   with a deterministic drop-oldest policy so long sessions cannot
//!   exhaust memory and identical runs drop identical events. Recorded
//!   events carry [`SpanId`]s and optional causal links ([`mod@span`]), so
//!   renderers can reconstruct publication → fetch → timeout → retry
//!   chains.
//! * [`metrics`] — a [`Registry`] of named counters, gauges and
//!   fixed-bucket latency [`Histogram`]s. Histograms are mergeable
//!   (exactly associative and commutative: durations accumulate in
//!   integer nanoseconds) and expose deterministic p50/p90/p99
//!   extraction bounded by the observed min/max. The name-keyed
//!   `Registry` backs exports that are tables of names (`dircached`'s
//!   `/metrics`, `dirload`); the simulator keeps typed counters.
//! * [`profile`] — process-global wall-clock spans behind an atomic
//!   flag, for `dirsim --profile`. Profiling measures the *simulator's*
//!   own cost, so (unlike traces and metrics) its output is real time
//!   and not deterministic; it never feeds back into reports.
//!
//! Beside them, [`json`] is the workspace's one JSON value + writer,
//! and [`ToJson`] is what the vendored `#[derive(Serialize)]` implements
//! for a report struct: it sits in this bottom crate so every exporter
//! above can build on it. [`cli`] is the one typed flag table that
//! `dirsim`, `dircached` and `dirload` declare their flags in and parse
//! through, for the same reason.
//!
//! Everything here is **observational**: emitting a trace event or
//! bumping a counter draws no randomness and schedules no events, so
//! enabling telemetry leaves simulation output bit-identical.

pub mod cli;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod span;
pub mod trace;

pub use json::{Json, ToJson};
pub use metrics::{Histogram, MetricsSnapshot, Registry, HIST_BUCKETS};
pub use profile::{profile_report, profiling_enabled, reset_profiler, set_profiling, span, Span};
pub use span::{SpanId, TraceRecord};
pub use trace::{TraceEvent, TraceValue, Tracer};
