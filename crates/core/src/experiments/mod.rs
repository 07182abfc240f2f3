//! Experiment drivers: one module per table/figure of the paper's
//! evaluation.
//!
//! Each driver returns structured rows (serde-serializable) and offers a
//! `render` helper that prints the same rows/series the paper reports.
//! `dirsim fig <name>` prints any of them from the command line.

pub mod ablations;
pub mod adversary;
pub mod attribute;
pub mod availability;
pub mod clients;
pub mod cost;

/// Shared plumbing for the §2.1 sustained-attack experiments, called
/// directly by `availability`, `clients`, `attribute`, `placement` and
/// `adversary` (which `frontier` drives): one day-clock
/// [`AttackPlan`](crate::adversary::AttackPlan) drives both the hourly
/// protocol sweep jobs and the distribution layer's view of the same
/// windows, and `replay` is the one path from hourly outcomes to a
/// [`DistSession`](partialtor_dirdist::DistSession).
pub(crate) mod sustained {
    use crate::adversary::AttackPlan;
    use crate::monitor;
    use crate::protocols::ProtocolKind;
    use crate::runner::{RunReport, Scenario, SweepJob};
    use partialtor_dirdist::{AlertNote, DistConfig, DistSession, DocModel, HourInput};
    use partialtor_obs::Tracer;

    /// The scenario of hour `hour` under the day-clock `plan`: its
    /// authority windows for that hour, rebased to the run's own clock.
    pub fn hourly_scenario(plan: &AttackPlan, hour: u64, seed: u64, relays: u64) -> Scenario {
        Scenario {
            seed: seed.wrapping_add(hour),
            relays,
            attack: plan.run_slice(hour * 3_600, 3_600),
            ..Scenario::default()
        }
    }

    /// One attacked run per hour (`1..=hours`) under the day-clock
    /// `plan`.
    pub fn hourly_jobs(
        protocol: ProtocolKind,
        plan: &AttackPlan,
        hours: u64,
        seed: u64,
        relays: u64,
    ) -> Vec<SweepJob> {
        (1..=hours)
            .map(|hour| SweepJob::new(protocol, hourly_scenario(plan, hour, seed, relays)))
            .collect()
    }

    /// Per-hour completion offsets from the sweep's reports (`None` =
    /// that hour's run produced no consensus).
    pub fn hourly_outcomes(reports: &[RunReport]) -> Vec<Option<f64>> {
        reports
            .iter()
            .map(|report| {
                report
                    .success
                    .then(|| report.last_valid_secs.unwrap_or(0.0))
            })
            .collect()
    }

    /// The health monitor's verdicts on one hour's run, as
    /// distribution-layer alert notes: what the deployed consensus-health
    /// monitor would page operators with while the hour's fetch storm
    /// plays out.
    pub fn alert_notes(report: &RunReport) -> Vec<AlertNote> {
        monitor::analyze(report)
            .iter()
            .map(|alert| AlertNote {
                severity: alert.severity(),
                kind: alert.kind().to_string(),
                message: alert.to_string(),
            })
            .collect()
    }

    /// Opens a [`DistSession`] on `config` and `model` and steps it
    /// through `inputs`, hour 1 first; the caller closes it (and may
    /// read its fetch mixes first).
    pub fn replay(
        config: &DistConfig,
        model: DocModel,
        inputs: impl IntoIterator<Item = HourInput>,
        tracer: &Tracer,
    ) -> DistSession {
        let mut session = DistSession::with_telemetry(config, model, tracer.clone());
        for input in inputs {
            session.step_hour(input);
        }
        session
    }
}
/// Serializes an optional fetch-latency summary (count plus
/// deterministic percentiles) — `null` when nothing was observed.
fn latency_json(latency: &Option<partialtor_dirdist::LatencySummary>) -> crate::json::Json {
    use crate::json::Json;
    match latency {
        None => Json::Null,
        Some(l) => Json::obj([
            ("count", Json::from(l.count)),
            ("p50_secs", Json::from(l.p50_secs)),
            ("p90_secs", Json::from(l.p90_secs)),
            ("p99_secs", Json::from(l.p99_secs)),
            ("mean_secs", Json::from(l.mean_secs)),
            ("min_secs", Json::from(l.min_secs)),
            ("max_secs", Json::from(l.max_secs)),
        ]),
    }
}

/// One additive blame decomposition as JSON: the seven cause parts in
/// canonical order plus the dominant cause's name. The parts sum
/// bit-exactly to the downtime they decompose, so the JSON is
/// re-checkable by any consumer.
pub(crate) fn cause_parts_json(parts: &partialtor_dirdist::CauseParts) -> crate::json::Json {
    use crate::json::Json;
    let mut pairs: Vec<(String, Json)> = parts
        .named()
        .iter()
        .map(|(name, value)| (name.to_string(), Json::from(*value)))
        .collect();
    pairs.push(("dominant".to_string(), Json::str(parts.dominant().0)));
    Json::Obj(pairs)
}

/// A whole-run attribution rollup as JSON (`null`-free: callers emit it
/// only when attribution ran).
pub(crate) fn attribution_rollup_json(
    rollup: &partialtor_dirdist::AttributionRollup,
) -> crate::json::Json {
    use crate::json::Json;
    Json::obj([
        (
            "client_weighted_downtime",
            Json::from(rollup.client_weighted_downtime),
        ),
        ("parts", cause_parts_json(&rollup.parts)),
    ])
}

/// An hour's attribution as JSON — `null` when attribution was off.
fn hour_attribution_json(
    attribution: &Option<partialtor_dirdist::HourAttribution>,
) -> crate::json::Json {
    use crate::json::Json;
    match attribution {
        None => Json::Null,
        Some(a) => Json::obj([
            ("downtime", Json::from(a.downtime)),
            ("parts", cause_parts_json(&a.parts)),
        ]),
    }
}

/// One distribution hour as JSON: publication state, background load,
/// fetch-latency percentiles and the hour's tier-traffic signature.
fn hour_json(hour: &partialtor_dirdist::HourReport) -> crate::json::Json {
    use crate::json::Json;
    Json::obj([
        ("hour", Json::from(hour.hour)),
        ("published_version", Json::from(hour.published_version)),
        (
            "newest_cached_version",
            Json::from(hour.newest_cached_version),
        ),
        ("authority_bg_bps", Json::from(hour.authority_bg_bps)),
        ("cache_bg_bps", Json::from(hour.cache_bg_bps)),
        ("fetch_latency", latency_json(&hour.fetch_latency)),
        (
            "tier_traffic",
            Json::obj([
                ("dir_requests", Json::from(hour.tier_traffic.dir_requests)),
                (
                    "dir_diff_responses",
                    Json::from(hour.tier_traffic.dir_diff_responses),
                ),
                (
                    "dir_full_responses",
                    Json::from(hour.tier_traffic.dir_full_responses),
                ),
                (
                    "dir_not_modified",
                    Json::from(hour.tier_traffic.dir_not_modified),
                ),
                (
                    "expired_events",
                    Json::from(hour.tier_traffic.expired_events),
                ),
            ]),
        ),
        ("alerts", Json::from(hour.alerts)),
        ("attribution", hour_attribution_json(&hour.attribution)),
    ])
}

/// A session's telemetry roll-up (whole-run fetch counters, alert and
/// expired-event totals, aggregate latency histogram) as JSON.
fn telemetry_rollup_json(telemetry: &partialtor_dirdist::TelemetrySummary) -> crate::json::Json {
    use crate::json::Json;
    Json::obj([
        ("fetch_attempts", Json::from(telemetry.fetch_attempts)),
        ("fetch_retries", Json::from(telemetry.fetch_retries)),
        ("fetch_timeouts", Json::from(telemetry.fetch_timeouts)),
        ("alerts", Json::from(telemetry.alerts)),
        ("expired_events", Json::from(telemetry.expired_events)),
        ("trace_dropped", Json::from(telemetry.trace_dropped)),
        ("fetch_latency", latency_json(&telemetry.fetch_latency)),
    ])
}

/// The telemetry slice of a distribution report — per-hour fetch-latency
/// percentiles and traffic signatures plus the session roll-up — as a
/// JSON tree (the payload `dirsim clients --metrics` writes, and the
/// leading sections of the full `--json` report).
pub fn dist_metrics_json(dist: &partialtor_dirdist::DistReport) -> crate::json::Json {
    use crate::json::Json;
    Json::obj([
        ("hours", Json::arr(dist.hours.iter().map(hour_json))),
        ("telemetry", telemetry_rollup_json(&dist.telemetry)),
    ])
}

/// Serializes a distribution-layer report as a [`Json`](crate::json::Json)
/// tree (the machine-readable half of `dirsim clients --json` and
/// friends; the serde in the tree is a no-op shim, so this is built by
/// hand).
pub(crate) fn dist_report_json(dist: &partialtor_dirdist::DistReport) -> crate::json::Json {
    use crate::json::Json;
    let cache = &dist.cache;
    let fleet = &dist.fleet;
    let feedback = &dist.feedback;
    let placement = &dist.placement;
    Json::obj([
        ("hours", Json::arr(dist.hours.iter().map(hour_json))),
        ("telemetry", telemetry_rollup_json(&dist.telemetry)),
        (
            "attribution",
            match &dist.attribution {
                None => Json::Null,
                Some(rollup) => attribution_rollup_json(rollup),
            },
        ),
        (
            "cache",
            Json::obj([
                (
                    "versions",
                    Json::arr(cache.versions.iter().map(|v| {
                        Json::obj([
                            ("version", Json::from(v.version)),
                            ("cached_at_secs", Json::from(v.cached_at_secs)),
                            ("cache_coverage", Json::from(v.cache_coverage)),
                        ])
                    })),
                ),
                (
                    "authority_egress_bytes",
                    Json::from(cache.authority_egress_bytes),
                ),
                (
                    "authority_egress_full_only_bytes",
                    Json::from(cache.authority_egress_full_only_bytes),
                ),
                (
                    "authority_descriptor_egress_bytes",
                    Json::from(cache.authority_descriptor_egress_bytes),
                ),
                ("full_responses", Json::from(cache.full_responses)),
                ("diff_responses", Json::from(cache.diff_responses)),
            ]),
        ),
        (
            "fleet",
            Json::obj([
                (
                    "rows",
                    Json::arr(fleet.rows.iter().map(|row| {
                        Json::obj([
                            ("hour", Json::from(row.hour)),
                            ("bootstrap_attempts", Json::from(row.bootstrap_attempts)),
                            ("bootstrap_successes", Json::from(row.bootstrap_successes)),
                            ("refresh_fetches", Json::from(row.refresh_fetches)),
                            ("dead_fraction", Json::from(row.dead_fraction)),
                            ("stale_fraction", Json::from(row.stale_fraction)),
                            ("cache_egress_bytes", Json::from(row.cache_egress_bytes)),
                            (
                                "cache_egress_full_only_bytes",
                                Json::from(row.cache_egress_full_only_bytes),
                            ),
                            (
                                "descriptor_egress_bytes",
                                Json::from(row.descriptor_egress_bytes),
                            ),
                            ("request_bytes", Json::from(row.request_bytes)),
                        ])
                    })),
                ),
                (
                    "bootstrap_success_rate",
                    Json::from(fleet.bootstrap_success_rate),
                ),
                (
                    "client_weighted_downtime",
                    Json::from(fleet.client_weighted_downtime),
                ),
                ("mean_stale_fraction", Json::from(fleet.mean_stale_fraction)),
                ("peak_stale_fraction", Json::from(fleet.peak_stale_fraction)),
                ("cache_egress_bytes", Json::from(fleet.cache_egress_bytes)),
                (
                    "cache_egress_full_only_bytes",
                    Json::from(fleet.cache_egress_full_only_bytes),
                ),
                (
                    "descriptor_egress_bytes",
                    Json::from(fleet.descriptor_egress_bytes),
                ),
                (
                    "regions",
                    Json::arr(fleet.regions.iter().map(|region| {
                        Json::obj([
                            ("region", Json::str(region.region.clone())),
                            ("weight", Json::from(region.weight)),
                            ("initial_clients", Json::from(region.initial_clients)),
                            ("arrivals", Json::from(region.arrivals)),
                            ("final_clients", Json::from(region.final_clients)),
                            ("bootstrap_attempts", Json::from(region.bootstrap_attempts)),
                            (
                                "bootstrap_successes",
                                Json::from(region.bootstrap_successes),
                            ),
                            ("refresh_fetches", Json::from(region.refresh_fetches)),
                            (
                                "client_weighted_downtime",
                                Json::from(region.client_weighted_downtime),
                            ),
                            (
                                "mean_stale_fraction",
                                Json::from(region.mean_stale_fraction),
                            ),
                            ("cache_egress_bytes", Json::from(region.cache_egress_bytes)),
                            (
                                "descriptor_egress_bytes",
                                Json::from(region.descriptor_egress_bytes),
                            ),
                            ("request_bytes", Json::from(region.request_bytes)),
                        ])
                    })),
                ),
            ]),
        ),
        (
            "placement",
            Json::obj([
                ("strategy", Json::str(placement.strategy.clone())),
                (
                    "client_weighted_latency_ms",
                    Json::from(placement.client_weighted_latency_ms),
                ),
                (
                    "cache_counts",
                    Json::arr(placement.cache_counts.iter().map(|count| {
                        Json::obj([
                            ("region", Json::str(count.region.clone())),
                            ("caches", Json::from(count.caches)),
                        ])
                    })),
                ),
                (
                    "cohorts",
                    Json::arr(placement.cohorts.iter().map(|cohort| {
                        Json::obj([
                            ("region", Json::str(cohort.region.clone())),
                            ("weight", Json::from(cohort.weight)),
                            ("serving_caches", Json::from(cohort.serving_caches)),
                            ("fetch_latency_ms", Json::from(cohort.fetch_latency_ms)),
                        ])
                    })),
                ),
            ]),
        ),
        (
            "feedback",
            Json::obj([
                ("enabled", Json::from(feedback.enabled)),
                (
                    "mean_authority_bg_bps",
                    Json::from(feedback.mean_authority_bg_bps),
                ),
                (
                    "peak_authority_bg_bps",
                    Json::from(feedback.peak_authority_bg_bps),
                ),
                ("mean_cache_bg_bps", Json::from(feedback.mean_cache_bg_bps)),
                ("peak_cache_bg_bps", Json::from(feedback.peak_cache_bg_bps)),
            ]),
        ),
    ])
}

pub mod diff_savings;
pub mod fig10_latency;
pub mod fig11_recovery;
pub mod fig1_attack_log;
pub mod fig6_relays;
pub mod fig7_bandwidth;
pub mod frontier;
pub mod placement;
pub mod table1_complexity;
pub mod table2_rounds;
