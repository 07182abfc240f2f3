//! The benchmark's vocabulary: workload names, metric names, units,
//! directions and bounds. `BENCHMARK.json` at the repository root lists
//! the same names (a unit test keeps the two in step).

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric the benchmark reports.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A pure function of the seed (simulated time, message counts):
    /// two runs of one commit must report it identically.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees; reported by an untraced run, for
/// every workload. An op is one full pipeline on the simulator
/// workloads and one request/response on the serving workloads. The
/// two op metrics are read over the whole measured pass: total CPU over
/// total ops, total ops over total wall time. Every workload is a
/// closed loop, where the time of an op is the rate's reciprocal, so
/// the median and the tail of the op time are per-layer (`bench.*`).
pub const END_TO_END: &[Metric] = &[
    timed("setup_s", "s", Lower),
    timed("cpu_ms_per_op", "ms", Lower),
    timed("ops_per_s", "1/s", Higher),
    timed("peak_rss_mb", "MiB", Lower),
];

/// Single layers, measured from outside through public functions;
/// reported by a traced run. A metric the workload does not exercise
/// reads 0.
pub const PER_LAYER: &[Metric] = &[
    timed("crypto.verify_us", "us", Lower),
    timed("crypto.sign_us", "us", Lower),
    timed("crypto.sha256_mb_s", "MB/s", Higher),
    timed("crypto.sha512_mb_s", "MB/s", Higher),
    timed("tordoc.vote_encode_ms", "ms", Lower),
    timed("tordoc.vote_parse_ms", "ms", Lower),
    timed("tordoc.aggregate_ms", "ms", Lower),
    timed("tordoc.diff_compute_ms", "ms", Lower),
    timed("tordoc.diff_apply_ms", "ms", Lower),
    timed("tordoc.store_publish_ms", "ms", Lower),
    timed("tordoc.store_serve_us", "us", Lower),
    timed("simnet.events_per_s", "1/s", Higher),
    timed("consensus.decide_ms_n9", "ms", Lower),
    exact("consensus.msgs_per_decide", "count"),
    timed("core.run_icps_ms", "ms", Lower),
    timed("core.run_icps_attacked_ms", "ms", Lower),
    timed("core.run_current_ms", "ms", Lower),
    timed("core.run_sync_ms", "ms", Lower),
    exact("core.icps_msgs_per_run", "count"),
    exact("core.icps_tx_bytes_per_run", "bytes"),
    exact("core.current_msgs_per_run", "count"),
    exact("core.icps_decided_round_max", "count"),
    timed("core.sweep_speedup", "ratio", Higher),
    exact("core.runner_run.calls", "count"),
    timed("core.runner_run.busy_s", "s", Lower),
    timed("core.frontier_best_response.busy_s", "s", Lower),
    timed("core.plan_normalize_us", "us", Lower),
    timed("core.json_encode_ms", "ms", Lower),
    exact("core.sim_icps_valid_s", "s"),
    timed("dirdist.tier_day_ms", "ms", Lower),
    timed("dirdist.fleet_day_ms", "ms", Lower),
    timed("dirdist.session_day_ms", "ms", Lower),
    timed("dirdist.session_day_attr_ms", "ms", Lower),
    timed("dirdist.step_hour_ms_p50", "ms", Lower),
    timed("dirdist.step_hour_ms_p99", "ms", Lower),
    timed("dirdist.step_hour_outage_ms_p50", "ms", Lower),
    exact("dirdist.fetch_attempts", "count"),
    exact("dirdist.fetch_retries", "count"),
    exact("dirdist.fetch_timeouts", "count"),
    exact("dirdist.expired_events", "count"),
    timed("dirdist.tier_run_to.busy_s", "s", Lower),
    timed("dirdist.fleet_step_hour.busy_s", "s", Lower),
    timed("obs.emit_ns", "ns", Lower),
    timed("obs.observe_ns", "ns", Lower),
    timed("obs.trace_overhead_ratio", "ratio", Lower),
    timed("dircached.parse_ns", "ns", Lower),
    timed("dircached.head_encode_ns", "ns", Lower),
    timed("dircached.serve_full_ns", "ns", Lower),
    timed("dircached.serve_diff_ns", "ns", Lower),
    timed("dircached.connect_us_p50", "us", Lower),
    timed("dircached.probe_us_p50", "us", Lower),
    timed("dircached.full_us_p50", "us", Lower),
    timed("dircached.open_ms_p50", "ms", Lower),
    timed("dircached.open_ms_p99", "ms", Lower),
    timed("dircached.gen_late_ms_p99", "ms", Lower),
    timed("dircached.stall_ms_max", "ms", Lower),
    timed("dircached.publish_ms_p50", "ms", Lower),
    timed("dircached.shed", "count", Lower),
    timed("dircached.read_errors", "count", Lower),
    timed("dircached.write_errors", "count", Lower),
    timed("bench.trace_overhead_ratio", "ratio", Lower),
    timed("bench.op_ms_p50", "ms", Lower),
    timed("bench.op_ms_tail", "ms", Lower),
    timed("bench.op_samples", "count", Higher),
];

/// The workloads, in the order `--all` runs them.
pub const WORKLOADS: &[&str] = &[
    "clients_day",
    "frontier_search",
    "session_week",
    "serve_reads",
    "serve_churn",
];

/// Values for one run, keyed by metric name.
#[derive(Clone, Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Records `value` under `name`; a second value replaces the first.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "{name} is not a declared metric"
        );
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    pub fn extend(&mut self, other: Values) {
        for (name, value) in other.0 {
            self.set(name, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for name in END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|m| m.name)
            .chain(WORKLOADS.iter().copied())
        {
            assert!(seen.insert(name), "{name} is declared twice");
            assert!(name.len() <= 64 && name.as_bytes()[0].is_ascii_alphanumeric());
            assert!(name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)));
        }
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(metric.unit.len() <= 16, "{}", metric.unit);
            assert!(metric
                .unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)));
        }
    }

    /// `BENCHMARK.json` is what the driver reads; the tables above are
    /// what the runner prints. They must name the same things.
    #[test]
    fn benchmark_json_lists_the_same_names_units_and_directions() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let keys: Vec<&str> = doc.as_object().unwrap().iter().map(|(k, _)| &**k).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let listed = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(json::Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(json::Value::as_str).unwrap();
                    (
                        field("name").into(),
                        field("unit").into(),
                        field("better").into(),
                    )
                })
                .collect()
        };
        let declared = |table: &[Metric]| -> Vec<(String, String, String)> {
            table
                .iter()
                .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), declared(END_TO_END));
        assert_eq!(listed("per_layer"), declared(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(json::Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(json::Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for metric in doc.get("end_to_end").unwrap().as_array().unwrap() {
            let bound = metric.get("bound").and_then(json::Value::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }
}
