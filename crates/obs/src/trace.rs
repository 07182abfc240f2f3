//! Structured event tracing.
//!
//! Simulation layers emit typed [`TraceEvent`]s through a [`Tracer`]
//! handle. The handle is cheap to clone (it shares one buffer), a
//! disabled handle reduces every emit to a branch on `None`, and an
//! enabled handle ring-buffers events with a deterministic drop-oldest
//! policy: two identical runs overflow at the same event and keep the
//! same suffix.
//!
//! Events recorded through [`Tracer::record`]/[`Tracer::record_caused`]
//! additionally carry a [`SpanId`] and an optional causal link to an
//! earlier span (see [`mod@crate::span`]); [`Tracer::emit`] remains the
//! fire-and-forget path for call sites that have no cause to report.
//!
//! Serialization is deliberately *not* here — the crate is std-only and
//! renderer-agnostic. [`TraceEvent::kind`] and [`TraceEvent::fields`]
//! expose a flat schema that `partialtor::json` turns into JSONL.

use crate::span::{SpanId, TraceRecord};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Default ring-buffer capacity: enough for a multi-week session at the
/// observed event rates without unbounded growth.
pub const DEFAULT_TRACE_CAPACITY: usize = 262_144;

/// One field value of a flattened trace event.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceValue {
    /// Unsigned integer field (ids, versions, counts).
    U64(u64),
    /// Floating-point field (timestamps, rates, fractions).
    F64(f64),
    /// Boolean field.
    Bool(bool),
    /// Free-text field (alert messages, target descriptions).
    Str(String),
}

/// A typed, timestamped telemetry event.
///
/// Timestamps are simulated seconds (`at_secs`) for events inside a
/// network simulation and hour indices (`hour`) for session-level
/// events.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A new directory version was published to the authorities.
    Publication {
        /// Simulated time of the publication.
        at_secs: f64,
        /// Version ordinal.
        version: u64,
    },
    /// A cache asked an authority for a version (first try or retry).
    FetchAttempt {
        /// Simulated time of the request.
        at_secs: f64,
        /// Cache node index.
        cache: u64,
        /// Authority node index the request was sent to.
        authority: u64,
        /// Version requested.
        version: u64,
        /// 1-based attempt number for this (cache, version) pair.
        attempt: u64,
    },
    /// A cache's retry timer fired and it re-requested a version.
    FetchRetry {
        /// Simulated time of the retry.
        at_secs: f64,
        /// Cache node index.
        cache: u64,
        /// Version being retried.
        version: u64,
        /// 1-based attempt number the retry starts.
        attempt: u64,
    },
    /// A cache exhausted its retry budget for a version.
    FetchTimeout {
        /// Simulated time the budget ran out.
        at_secs: f64,
        /// Cache node index.
        cache: u64,
        /// Version given up on.
        version: u64,
        /// Attempts made before giving up.
        attempts: u64,
    },
    /// An authority answered a cache request.
    Served {
        /// Simulated time of the response.
        at_secs: f64,
        /// Authority node index.
        authority: u64,
        /// Cache node index served.
        cache: u64,
        /// Version served.
        version: u64,
        /// `"diff"`, `"full"` or `"not_modified"`.
        response: &'static str,
        /// Response size on the wire.
        bytes: u64,
    },
    /// A scheduled bandwidth window opened or closed on a node's links.
    LinkWindow {
        /// Simulated time of the transition.
        at_secs: f64,
        /// Node index whose links change.
        node: u64,
        /// `true` when the constrained window starts, `false` when the
        /// link recovers.
        open: bool,
        /// Link rate during the window (bits/s; recovery restores the
        /// default and reports it here).
        bps: f64,
    },
    /// A blocklist defender dropped or clipped an attack window.
    BlocklistTrigger {
        /// Campaign hour from which the target is filtered.
        hour: u64,
        /// Human-readable target description.
        target: String,
    },
    /// A lowered defense lever acted on the scenario (blocklist or
    /// detector filtering, added caches, lifetime extension, client
    /// rate limiting).
    DefenseAction {
        /// Defense lever that fired (stable machine-readable name,
        /// e.g. `"blocklist"`, `"detector"`, `"add_caches"`,
        /// `"extend_lifetime"`, `"rate_limit"`).
        action: &'static str,
        /// Campaign hour the action takes effect (0 for levers that
        /// apply to the whole session).
        hour: u64,
        /// Human-readable target description (`"auth3"`, `"fleet"`,
        /// `"tier"`, ...).
        target: String,
    },
    /// The consensus-health monitor raised an alert for an hour.
    HealthAlert {
        /// Session hour the alert belongs to.
        hour: u64,
        /// Alert severity (`"critical"`, `"warning"`, `"notice"`).
        severity: &'static str,
        /// Alert kind (stable machine-readable name).
        kind: String,
        /// Rendered alert message.
        message: String,
    },
    /// The `dircached` serving daemon answered (or shed) one client
    /// request on a real socket. `at_secs` is wall-clock seconds since
    /// the daemon started — the one event family whose clock is not
    /// simulated.
    HttpRequest {
        /// Wall-clock seconds since daemon start.
        at_secs: f64,
        /// HTTP status sent (200, 400, 404, 414, 503).
        status: u64,
        /// What was served (`"full"`, `"diff"`, `"descriptors"`,
        /// `"descriptors_delta"`, `"digests"`, `"status"`,
        /// `"metrics"`, `"error"`, `"shed"`).
        served: &'static str,
        /// Body bytes written.
        bytes: u64,
    },
    /// A feedback-loop hour nearly exhausted its per-cache service
    /// budget — subsequent client fetches in that hour were shed.
    BudgetSaturation {
        /// Session hour whose budget saturated.
        hour: u64,
        /// The hour's per-cache service budget, bytes.
        budget_bytes: u64,
        /// Bytes actually served against that budget.
        served_bytes: u64,
    },
    /// End-of-hour roll-up of a distribution-session hour.
    HourSummary {
        /// Session hour.
        hour: u64,
        /// Version published this hour, if any.
        published: Option<u64>,
        /// Newest version at cache quorum by the end of the hour.
        newest_cached: Option<u64>,
        /// Client bootstrap attempts this hour.
        bootstrap_attempts: u64,
        /// Client refresh fetches this hour.
        refresh_fetches: u64,
        /// Fraction of the fleet on a stale directory at hour end.
        stale_fraction: f64,
    },
}

impl TraceEvent {
    /// Stable machine-readable event name.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Publication { .. } => "publication",
            TraceEvent::FetchAttempt { .. } => "fetch_attempt",
            TraceEvent::FetchRetry { .. } => "fetch_retry",
            TraceEvent::FetchTimeout { .. } => "fetch_timeout",
            TraceEvent::Served { .. } => "served",
            TraceEvent::LinkWindow { .. } => "link_window",
            TraceEvent::BlocklistTrigger { .. } => "blocklist_trigger",
            TraceEvent::DefenseAction { .. } => "defense_action",
            TraceEvent::HealthAlert { .. } => "health_alert",
            TraceEvent::HttpRequest { .. } => "http_request",
            TraceEvent::BudgetSaturation { .. } => "budget_saturation",
            TraceEvent::HourSummary { .. } => "hour_summary",
        }
    }

    /// Flattens the event into `(field, value)` pairs in a stable order,
    /// so any renderer can serialize every variant without matching on
    /// the enum.
    pub fn fields(&self) -> Vec<(&'static str, TraceValue)> {
        use TraceValue::{Bool, Str, F64, U64};
        match self {
            TraceEvent::Publication { at_secs, version } => {
                vec![("at_secs", F64(*at_secs)), ("version", U64(*version))]
            }
            TraceEvent::FetchAttempt {
                at_secs,
                cache,
                authority,
                version,
                attempt,
            } => vec![
                ("at_secs", F64(*at_secs)),
                ("cache", U64(*cache)),
                ("authority", U64(*authority)),
                ("version", U64(*version)),
                ("attempt", U64(*attempt)),
            ],
            TraceEvent::FetchRetry {
                at_secs,
                cache,
                version,
                attempt,
            } => vec![
                ("at_secs", F64(*at_secs)),
                ("cache", U64(*cache)),
                ("version", U64(*version)),
                ("attempt", U64(*attempt)),
            ],
            TraceEvent::FetchTimeout {
                at_secs,
                cache,
                version,
                attempts,
            } => vec![
                ("at_secs", F64(*at_secs)),
                ("cache", U64(*cache)),
                ("version", U64(*version)),
                ("attempts", U64(*attempts)),
            ],
            TraceEvent::Served {
                at_secs,
                authority,
                cache,
                version,
                response,
                bytes,
            } => vec![
                ("at_secs", F64(*at_secs)),
                ("authority", U64(*authority)),
                ("cache", U64(*cache)),
                ("version", U64(*version)),
                ("response", Str((*response).to_string())),
                ("bytes", U64(*bytes)),
            ],
            TraceEvent::LinkWindow {
                at_secs,
                node,
                open,
                bps,
            } => vec![
                ("at_secs", F64(*at_secs)),
                ("node", U64(*node)),
                ("open", Bool(*open)),
                ("bps", F64(*bps)),
            ],
            TraceEvent::BlocklistTrigger { hour, target } => {
                vec![("hour", U64(*hour)), ("target", Str(target.clone()))]
            }
            TraceEvent::DefenseAction {
                action,
                hour,
                target,
            } => vec![
                ("action", Str((*action).to_string())),
                ("hour", U64(*hour)),
                ("target", Str(target.clone())),
            ],
            TraceEvent::HealthAlert {
                hour,
                severity,
                kind,
                message,
            } => vec![
                ("hour", U64(*hour)),
                ("severity", Str((*severity).to_string())),
                ("alert", Str(kind.clone())),
                ("message", Str(message.clone())),
            ],
            TraceEvent::HttpRequest {
                at_secs,
                status,
                served,
                bytes,
            } => vec![
                ("at_secs", F64(*at_secs)),
                ("status", U64(*status)),
                ("served", Str((*served).to_string())),
                ("bytes", U64(*bytes)),
            ],
            TraceEvent::BudgetSaturation {
                hour,
                budget_bytes,
                served_bytes,
            } => vec![
                ("hour", U64(*hour)),
                ("budget_bytes", U64(*budget_bytes)),
                ("served_bytes", U64(*served_bytes)),
            ],
            TraceEvent::HourSummary {
                hour,
                published,
                newest_cached,
                bootstrap_attempts,
                refresh_fetches,
                stale_fraction,
            } => {
                let mut fields = vec![("hour", U64(*hour))];
                if let Some(v) = published {
                    fields.push(("published", U64(*v)));
                }
                if let Some(v) = newest_cached {
                    fields.push(("newest_cached", U64(*v)));
                }
                fields.push(("bootstrap_attempts", U64(*bootstrap_attempts)));
                fields.push(("refresh_fetches", U64(*refresh_fetches)));
                fields.push(("stale_fraction", F64(*stale_fraction)));
                fields
            }
        }
    }
}

#[derive(Debug)]
struct TraceBuf {
    events: VecDeque<TraceRecord>,
    capacity: usize,
    dropped: u64,
    next_id: u64,
}

/// Cloneable handle to a shared trace buffer.
///
/// The default handle is **disabled**: cloning and emitting cost a
/// branch and nothing else, so instrumented code paths need no
/// conditional compilation. [`Tracer::enabled`] creates a live buffer.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    inner: Option<Arc<Mutex<TraceBuf>>>,
}

impl Tracer {
    /// A disabled tracer (same as `Tracer::default()`).
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// A live tracer ring-buffering up to `capacity` events; once full,
    /// the oldest event is dropped for each new one (deterministically —
    /// the drop decision depends only on the emission sequence).
    pub fn enabled(capacity: usize) -> Self {
        Tracer {
            inner: Some(Arc::new(Mutex::new(TraceBuf {
                events: VecDeque::new(),
                capacity: capacity.max(1),
                dropped: 0,
                next_id: 1,
            }))),
        }
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records `event` with no cause, discarding the assigned span id
    /// (no-op when disabled).
    pub fn emit(&self, event: TraceEvent) {
        self.record_caused(event, None);
    }

    /// Records `event` with no cause, returning its span id
    /// ([`SpanId::NONE`] when disabled).
    pub fn record(&self, event: TraceEvent) -> SpanId {
        self.record_caused(event, None)
    }

    /// Records `event` caused by the span `cause`, returning the new
    /// event's own span id ([`SpanId::NONE`] when disabled). A cause of
    /// `None` or the sentinel [`SpanId::NONE`] records an uncaused
    /// event, so call sites can thread ids through without branching.
    pub fn record_caused(&self, event: TraceEvent, cause: Option<SpanId>) -> SpanId {
        let Some(inner) = &self.inner else {
            return SpanId::NONE;
        };
        let mut buf = inner.lock().expect("trace buffer");
        if buf.events.len() >= buf.capacity {
            buf.events.pop_front();
            buf.dropped += 1;
        }
        let id = SpanId(buf.next_id);
        buf.next_id += 1;
        buf.events.push_back(TraceRecord {
            id,
            cause: cause.filter(SpanId::is_recorded),
            event,
        });
        id
    }

    /// Number of events dropped to the ring-buffer cap so far.
    pub fn dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.lock().expect("trace buffer").dropped)
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.lock().expect("trace buffer").events.len())
    }

    /// Whether the buffer holds no events (always true when disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes all buffered events, oldest first, leaving the buffer
    /// empty (the dropped count is preserved). Causal identities are
    /// discarded — use [`Tracer::drain_records`] to keep them.
    pub fn drain(&self) -> Vec<TraceEvent> {
        self.drain_records().into_iter().map(|r| r.event).collect()
    }

    /// Takes all buffered records — events plus span ids and causal
    /// links — oldest first, leaving the buffer empty (the dropped
    /// count is preserved).
    pub fn drain_records(&self) -> Vec<TraceRecord> {
        self.inner.as_ref().map_or_else(Vec::new, |inner| {
            inner
                .lock()
                .expect("trace buffer")
                .events
                .drain(..)
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        tracer.emit(TraceEvent::Publication {
            at_secs: 0.0,
            version: 1,
        });
        assert!(!tracer.is_enabled());
        assert!(tracer.is_empty());
        assert_eq!(tracer.dropped(), 0);
        assert!(tracer.drain().is_empty());
    }

    #[test]
    fn clones_share_one_buffer() {
        let tracer = Tracer::enabled(16);
        let clone = tracer.clone();
        clone.emit(TraceEvent::Publication {
            at_secs: 1.0,
            version: 7,
        });
        assert_eq!(tracer.len(), 1);
        let events = tracer.drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind(), "publication");
        assert!(clone.is_empty());
    }

    #[test]
    fn ring_buffer_drops_oldest_deterministically() {
        let tracer = Tracer::enabled(3);
        for version in 0..5 {
            tracer.emit(TraceEvent::Publication {
                at_secs: version as f64,
                version,
            });
        }
        assert_eq!(tracer.dropped(), 2);
        let versions: Vec<u64> = tracer
            .drain()
            .into_iter()
            .map(|e| match e {
                TraceEvent::Publication { version, .. } => version,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(versions, vec![2, 3, 4], "oldest events dropped first");
    }

    #[test]
    fn every_variant_flattens_with_its_kind() {
        let events = vec![
            TraceEvent::FetchAttempt {
                at_secs: 2.0,
                cache: 9,
                authority: 1,
                version: 3,
                attempt: 1,
            },
            TraceEvent::FetchRetry {
                at_secs: 62.0,
                cache: 9,
                version: 3,
                attempt: 2,
            },
            TraceEvent::FetchTimeout {
                at_secs: 300.0,
                cache: 9,
                version: 3,
                attempts: 5,
            },
            TraceEvent::Served {
                at_secs: 2.5,
                authority: 1,
                cache: 9,
                version: 3,
                response: "diff",
                bytes: 50_000,
            },
            TraceEvent::LinkWindow {
                at_secs: 0.0,
                node: 4,
                open: true,
                bps: 5e5,
            },
            TraceEvent::BlocklistTrigger {
                hour: 6,
                target: "authority 3".to_string(),
            },
            TraceEvent::DefenseAction {
                action: "detector",
                hour: 4,
                target: "auth2".to_string(),
            },
            TraceEvent::HealthAlert {
                hour: 2,
                severity: "CRITICAL",
                kind: "consensus_failure".to_string(),
                message: "no valid consensus".to_string(),
            },
            TraceEvent::HttpRequest {
                at_secs: 1.25,
                status: 200,
                served: "diff",
                bytes: 50_000,
            },
            TraceEvent::BudgetSaturation {
                hour: 5,
                budget_bytes: 45_000_000_000,
                served_bytes: 44_999_000_000,
            },
            TraceEvent::HourSummary {
                hour: 2,
                published: Some(2),
                newest_cached: None,
                bootstrap_attempts: 10,
                refresh_fetches: 100,
                stale_fraction: 0.5,
            },
        ];
        for event in events {
            let fields = event.fields();
            assert!(!fields.is_empty(), "{} has fields", event.kind());
            assert!(!event.kind().is_empty());
        }
    }
}
