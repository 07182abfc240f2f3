//! Trace serialization: JSONL lines and Chrome trace-event JSON.
//!
//! The obs crate records [`TraceRecord`]s — typed events plus causal
//! span ids — without knowing any output format. This module renders
//! them two ways:
//!
//! * [`trace_line`]: one flat JSON object per record, for the `--trace
//!   FILE` JSONL stream (`{"event": <kind>, ..fields, "span": id,
//!   "cause": id|null}`).
//! * [`chrome_trace`]: the whole drained ring as a Chrome trace-event
//!   JSON document (`{"traceEvents": [...]}`), for `--trace-chrome
//!   FILE`. Load it in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev)
//!   to see each event family on its own named track and the causal
//!   chains (publication → fetch → retry → timeout, link-window pairs,
//!   budget saturations) as flow arrows between them.
//!
//! Timestamps: events carrying a simulated `at_secs` land at
//! `at_secs` microseconds-per-second on the trace clock; session-level
//! events carrying only an `hour` land at the top of that hour
//! (`hour * 3600` seconds). Durations are a nominal 1 µs — these are
//! instants, not intervals.

use crate::json::Json;
use partialtor_obs::{TraceRecord, TraceValue};
use std::collections::HashMap;

/// Event families, one Chrome-trace track (`tid`) each, in display
/// order. Unknown kinds (there are none today) fall to track 0.
const LANES: [&str; 12] = [
    "hour_summary",
    "publication",
    "fetch_attempt",
    "fetch_retry",
    "fetch_timeout",
    "served",
    "link_window",
    "budget_saturation",
    "blocklist_trigger",
    "defense_action",
    "health_alert",
    "http_request",
];

fn lane(kind: &str) -> u64 {
    LANES
        .iter()
        .position(|&name| name == kind)
        .map(|i| i as u64 + 1)
        .unwrap_or(0)
}

fn value_json(value: TraceValue) -> Json {
    match value {
        TraceValue::U64(v) => Json::from(v),
        TraceValue::F64(v) => Json::from(v),
        TraceValue::Bool(v) => Json::from(v),
        TraceValue::Str(v) => Json::Str(v),
    }
}

/// Microseconds on the trace clock: simulated `at_secs` when the event
/// has one, the top of its `hour` otherwise, 0 as a last resort.
fn timestamp_us(record: &TraceRecord) -> f64 {
    let fields = record.event.fields();
    for (name, value) in &fields {
        if *name == "at_secs" {
            if let TraceValue::F64(secs) = value {
                return secs * 1e6;
            }
        }
    }
    for (name, value) in &fields {
        if *name == "hour" {
            if let TraceValue::U64(hour) = value {
                return (*hour * 3_600) as f64 * 1e6;
            }
        }
    }
    0.0
}

/// One trace record as a flat JSON object:
/// `{"event": <kind>, ..fields, "span": id, "cause": id|null}`.
///
/// The `event` key always comes first (the `dirsim` trace tests check
/// each line starts with it); `span`/`cause` come last so existing JSONL
/// consumers keyed on the event fields are undisturbed.
pub fn trace_line(record: &TraceRecord) -> Json {
    let mut pairs = vec![("event".to_string(), Json::str(record.event.kind()))];
    for (name, value) in record.event.fields() {
        pairs.push((name.to_string(), value_json(value)));
    }
    pairs.push(("span".to_string(), Json::from(record.id.0)));
    pairs.push((
        "cause".to_string(),
        match record.cause {
            Some(cause) => Json::from(cause.0),
            None => Json::Null,
        },
    ));
    Json::Obj(pairs)
}

/// The drained trace ring as a Chrome trace-event document.
///
/// Per record: one complete (`"X"`) event on its family's track, args
/// carrying the typed fields plus the span id. Per causal edge whose
/// cause survived the ring: a flow start (`"s"`) at the cause and a
/// flow end (`"f"`, binding point `"e"`) at the effect, flow id = the
/// effect's span id — rendered as an arrow from cause to effect. Track
/// names are emitted as `thread_name` metadata.
pub fn chrome_trace(records: &[TraceRecord]) -> Json {
    let mut events: Vec<Json> = Vec::new();
    for kind in LANES {
        events.push(Json::obj([
            ("name", Json::str("thread_name")),
            ("ph", Json::str("M")),
            ("pid", Json::from(1u64)),
            ("tid", Json::from(lane(kind))),
            ("args", Json::obj([("name", Json::str(kind))])),
        ]));
    }
    // Where each surviving span landed, for flow arrows to start from
    // (a tracer numbers its spans once each).
    let placed: HashMap<u64, (f64, u64)> = records
        .iter()
        .map(|r| (r.id.0, (timestamp_us(r), lane(r.event.kind()))))
        .collect();
    for record in records {
        let ts = timestamp_us(record);
        let tid = lane(record.event.kind());
        let mut args = vec![("span".to_string(), Json::from(record.id.0))];
        for (name, value) in record.event.fields() {
            args.push((name.to_string(), value_json(value)));
        }
        events.push(Json::obj([
            ("name", Json::str(record.event.kind())),
            ("cat", Json::str(record.event.kind())),
            ("ph", Json::str("X")),
            ("ts", Json::from(ts)),
            ("dur", Json::from(1u64)),
            ("pid", Json::from(1u64)),
            ("tid", Json::from(tid)),
            ("args", Json::Obj(args)),
        ]));
        let Some(cause) = record.cause else { continue };
        // The cause may have been dropped from the ring; no arrow then.
        let Some(&(cause_ts, cause_tid)) = placed.get(&cause.0) else {
            continue;
        };
        events.push(Json::obj([
            ("name", Json::str("cause")),
            ("cat", Json::str("cause")),
            ("ph", Json::str("s")),
            ("id", Json::from(record.id.0)),
            ("ts", Json::from(cause_ts)),
            ("pid", Json::from(1u64)),
            ("tid", Json::from(cause_tid)),
        ]));
        events.push(Json::obj([
            ("name", Json::str("cause")),
            ("cat", Json::str("cause")),
            ("ph", Json::str("f")),
            ("bp", Json::str("e")),
            ("id", Json::from(record.id.0)),
            ("ts", Json::from(ts)),
            ("pid", Json::from(1u64)),
            ("tid", Json::from(tid)),
        ]));
    }
    Json::obj([("traceEvents", Json::arr(events))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use partialtor_obs::{TraceEvent, Tracer};

    fn linked_records() -> Vec<TraceRecord> {
        let tracer = Tracer::enabled(16);
        let publication = tracer.record(TraceEvent::Publication {
            at_secs: 10.0,
            version: 1,
        });
        tracer.record_caused(
            TraceEvent::FetchAttempt {
                at_secs: 12.0,
                cache: 3,
                authority: 0,
                version: 1,
                attempt: 1,
            },
            publication.recorded(),
        );
        tracer.record_caused(
            TraceEvent::BudgetSaturation {
                hour: 2,
                budget_bytes: 1_000,
                served_bytes: 999,
            },
            publication.recorded(),
        );
        tracer.drain_records()
    }

    #[test]
    fn trace_line_carries_kind_fields_and_causal_ids() {
        let records = linked_records();
        let Json::Obj(pairs) = trace_line(&records[1]) else {
            panic!("object line")
        };
        assert_eq!(pairs[0].0, "event");
        let get = |name: &str| {
            pairs
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.clone())
        };
        assert_eq!(get("event"), Some(Json::str("fetch_attempt")));
        assert_eq!(get("span"), Some(Json::from(2u64)));
        assert_eq!(get("cause"), Some(Json::from(1u64)));
        assert_eq!(get("cache"), Some(Json::from(3u64)));
        // Uncaused records render an explicit null.
        let Json::Obj(first) = trace_line(&records[0]) else {
            panic!("object line")
        };
        assert!(first.iter().any(|(k, v)| k == "cause" && *v == Json::Null));
    }

    #[test]
    fn chrome_trace_places_events_and_draws_flow_arrows() {
        let records = linked_records();
        let Json::Obj(root) = chrome_trace(&records) else {
            panic!("object root")
        };
        let Json::Arr(events) = &root[0].1 else {
            panic!("traceEvents array")
        };
        let phase = |e: &Json| {
            let Json::Obj(pairs) = e else {
                return String::new();
            };
            pairs
                .iter()
                .find(|(k, _)| k == "ph")
                .and_then(|(_, v)| match v {
                    Json::Str(s) => Some(s.clone()),
                    _ => None,
                })
                .unwrap_or_default()
        };
        let count = |ph: &str| events.iter().filter(|e| phase(e) == ph).count();
        assert_eq!(count("M"), LANES.len());
        assert_eq!(count("X"), records.len());
        // Two caused records → two start/finish arrow pairs.
        assert_eq!(count("s"), 2);
        assert_eq!(count("f"), 2);
        let rendered = Json::Obj(root.clone()).render();
        // at_secs → µs; hour-only events land at the top of their hour.
        assert!(rendered.contains("\"ts\":12000000"));
        assert!(rendered.contains("\"ts\":7200000000"));
    }

    #[test]
    fn dropped_causes_draw_no_arrow() {
        // Capacity 2 evicts the publication; its effects keep their
        // cause ids but the exporter must not dangle arrows at them.
        let tracer = Tracer::enabled(2);
        let publication = tracer.record(TraceEvent::Publication {
            at_secs: 0.0,
            version: 1,
        });
        for attempt in 1..=2 {
            tracer.record_caused(
                TraceEvent::FetchAttempt {
                    at_secs: attempt as f64,
                    cache: 0,
                    authority: 0,
                    version: 1,
                    attempt,
                },
                publication.recorded(),
            );
        }
        let records = tracer.drain_records();
        assert_eq!(tracer.dropped(), 1);
        let rendered = chrome_trace(&records).render();
        assert!(!rendered.contains("\"ph\":\"s\""));
        assert!(!rendered.contains("\"ph\":\"f\""));
    }
}
