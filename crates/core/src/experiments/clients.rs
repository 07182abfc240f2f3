//! Client-visible availability under the sustained attack — the paper's
//! headline claim measured from the *user's* seat.
//!
//! The availability experiment tracks document validity at the
//! authorities; this one pushes the same hourly timeline through the
//! distribution layer (`partialtor-dirdist`): a cache tier fetching each
//! new consensus over simulated links (diffs where possible), and a
//! cohort-aggregated client fleet — millions of users — bootstrapping,
//! refreshing on the staggered Tor schedule, and falling off the network
//! when their document expires. Under the $53.28/month attack, the
//! current protocol's fleet dies three hours after the last valid
//! consensus; the ICPS fleet barely notices.
//!
//! Four switches extend the basic day-long run:
//!
//! * **`feedback`** closes the §2.1 fetch-storm loop: each hour's
//!   realized client egress (bootstrap retry storms included) becomes
//!   the next hour's background load on cache and authority links;
//! * **`churn`** drives hourly relay churn — and with it proposal-140
//!   diff sizes — from the Fig. 6 weekly series instead of a constant,
//!   which matters on multi-day horizons (`--days`);
//! * **`real_docs`** replaces the synthetic size model with real
//!   `tordoc` consensuses served through a verified `DiffStore`, so the
//!   proposal-140 numbers come from measured diffs (small populations
//!   only);
//! * **`attribution`** turns on the distribution layer's blame ladder
//!   ([`DistConfig::attribution`]): each arm's report, and its text,
//!   split every hour's downtime and the whole run's into causes —
//!   flooded authority or cache links, a lost consensus quorum, a
//!   detector veto, a saturated cache service budget, the recovery
//!   storm, residual churn. The parts are additive and sum bit-exactly
//!   to the downtime they split, so the table is an accounting identity,
//!   not a heuristic.

use super::sustained;
use crate::adversary::AttackPlan;
use crate::calibration::N_AUTHORITIES;
use crate::protocols::ProtocolKind;
use partialtor_dirdist::{
    AttributionRollup, ChurnSchedule, DistConfig, DistReport, DocModel, FetchMix, HourInput,
    RETAIN_HOURS,
};
use partialtor_obs::Tracer;
use partialtor_tordoc::prelude::*;
use serde::Serialize;

/// Largest relay population `real_docs` mode accepts: building and
/// diffing real documents is quadratic-ish work meant for validation
/// runs, not production-scale sweeps.
pub const REAL_DOCS_MAX_RELAYS: u64 = 2_000;

/// Experiment parameters (the `dirsim clients` surface).
#[derive(Clone, Debug)]
pub struct ClientsParams {
    /// Hourly attacked runs to simulate after the baseline (`--days N`
    /// sets this to `24 × N`).
    pub hours: u64,
    /// Client fleet size.
    pub clients: u64,
    /// Directory caches in the distribution tier.
    pub caches: usize,
    /// Relay population (document sizes, protocol load).
    pub relays: u64,
    /// Base seed.
    pub seed: u64,
    /// Close the fetch-feedback loop in the distribution layer.
    pub feedback: bool,
    /// Hourly churn schedule driving diff sizes.
    pub churn: ChurnSchedule,
    /// Measure document sizes from real `tordoc` consensuses instead of
    /// the synthetic model.
    pub real_docs: bool,
    /// Compute the per-hour downtime blame decomposition
    /// (observational; see
    /// [`DistConfig::attribution`](partialtor_dirdist::DistConfig)).
    pub attribution: bool,
}

impl Default for ClientsParams {
    fn default() -> Self {
        ClientsParams {
            hours: 24,
            clients: 3_000_000,
            caches: 200,
            relays: 8_000,
            seed: 1,
            feedback: false,
            churn: ChurnSchedule::default(),
            real_docs: false,
            attribution: false,
        }
    }
}

/// One protocol's client-visible outcome.
#[derive(Clone, Debug, Serialize)]
pub struct ClientsResult {
    /// Protocol label.
    pub protocol: String,
    /// Hourly runs that produced a consensus (out of `hours`).
    pub produced_hours: u64,
    /// The distribution-layer report (cache tier + fleet).
    pub dist: DistReport,
    /// Per-hour realized fetch mixes — the `--fetch-mix FILE` export a
    /// `dirload` replay consumes (not part of the JSON report).
    #[serde(skip)]
    pub fetch_mixes: Vec<FetchMix>,
}

/// Builds one real consensus per published version — the baseline at
/// hour 0, then every hour whose `hourly` input (hour 1 first) carries
/// a publication: a relay-population window that slides with the
/// cumulative churn of the schedule, voted on by a majority committee and
/// aggregated — the same documents the `tordoc` protocol path produces,
/// so every diff the caches serve is a genuine, verified
/// `ConsensusDiff`.
fn measured_model(params: &ClientsParams, hourly: &[HourInput]) -> DocModel {
    assert!(
        params.relays <= REAL_DOCS_MAX_RELAYS,
        "real-docs mode is for small populations (≤ {REAL_DOCS_MAX_RELAYS} relays)"
    );
    let relays = params.relays as usize;
    let published_hours: Vec<u64> = (0..=hourly.len())
        .filter(|&hour| hour == 0 || hourly[hour - 1].publication.is_some())
        .map(|hour| hour as u64)
        .collect();
    let max_hour = published_hours.last().copied().unwrap_or(0);
    let cum_at = |hour: u64| -> f64 { (1..=hour).map(|h| params.churn.churn_at(h)).sum() };
    let max_offset = (cum_at(max_hour) * relays as f64).ceil() as usize;
    let population = generate_population(&PopulationConfig {
        seed: params.seed ^ 0x0000_d0c5_eed5,
        count: relays + max_offset,
    });
    let committee = AuthoritySet::with_size(params.seed, N_AUTHORITIES);
    let docs: Vec<Consensus> = published_hours
        .iter()
        .map(|&hour| {
            let offset = (cum_at(hour) * relays as f64).round() as usize;
            let subset = &population[offset..offset + relays];
            // A majority committee suffices to aggregate a consensus.
            let votes: Vec<Vote> = committee
                .iter()
                .take(crate::calibration::majority(N_AUTHORITIES))
                .map(|auth| {
                    let view = authority_view(subset, auth.id, params.seed, &ViewConfig::default());
                    Vote::new(
                        VoteMeta::standard(
                            auth.id,
                            &auth.name,
                            auth.fingerprint_hex(),
                            (hour + 1) * 3_600,
                        ),
                        view,
                    )
                })
                .collect();
            let refs: Vec<&Vote> = votes.iter().collect();
            aggregate(&refs)
        })
        .collect();
    DocModel::from_consensuses(&docs, RETAIN_HOURS as usize)
}

/// Runs the client-visible timeline for the current and ICPS protocols.
///
/// All `2 × hours` protocol simulations go out as one parallel sweep;
/// the distribution layer then replays each protocol's timeline against
/// the same fleet and cache tier.
pub fn run_experiment(params: &ClientsParams) -> Vec<ClientsResult> {
    run_experiment_traced(params, &Tracer::disabled())
}

/// [`run_experiment`] with a structured trace sink (the `dirsim clients
/// --trace` surface). Both protocols' sessions share the sink.
pub fn run_experiment_traced(params: &ClientsParams, tracer: &Tracer) -> Vec<ClientsResult> {
    let plan = AttackPlan::five_of_nine().sustained_hourly(params.hours);
    sustained::run(
        [ProtocolKind::Current, ProtocolKind::Icps],
        &plan,
        params.hours,
        params.seed,
        params.relays,
    )
    .into_iter()
    .map(|arm| {
        let config = DistConfig {
            seed: params.seed,
            clients: params.clients,
            relays: params.relays,
            n_caches: params.caches,
            churn: params.churn.clone(),
            feedback: params.feedback,
            link_windows: plan.dist_windows(),
            attribution: params.attribution,
            ..DistConfig::default()
        };
        let model = if params.real_docs {
            measured_model(params, &arm.inputs)
        } else {
            DocModel::synthetic(params.relays)
        };
        let produced_hours = sustained::produced_hours(&arm.inputs);
        let session = sustained::replay(&config, model, arm.inputs, tracer);
        let fetch_mixes = session.fetch_mixes();
        ClientsResult {
            protocol: arm.protocol.to_string(),
            produced_hours,
            dist: session.into_report(),
            fetch_mixes,
        }
    })
    .collect()
}

/// Renders the Current protocol's per-hour fetch mixes in the
/// `fetchmix v1` text format (the `dirsim clients --fetch-mix FILE`
/// export) — the Current path is the one whose storm traffic a
/// `dirload` replay wants to reproduce against a real cache.
pub fn fetch_mix_export(results: &[ClientsResult]) -> String {
    results
        .iter()
        .find(|r| r.protocol == ProtocolKind::Current.to_string())
        .or(results.first())
        .map(|r| FetchMix::encode_all(&r.fetch_mixes))
        .unwrap_or_default()
}

/// Serializes the per-protocol results for `dirsim clients --json`.
pub fn to_json(results: &[ClientsResult]) -> crate::json::Json {
    crate::json::ToJson::to_json(results)
}

/// Serializes the per-protocol telemetry slices for `dirsim clients
/// --metrics`: per-hour fetch-latency percentiles and fetch-rate
/// counters, without the rest of the report tree.
pub fn metrics_json(results: &[ClientsResult]) -> crate::json::Json {
    use crate::json::Json;
    Json::obj([(
        "protocols",
        Json::arr(results.iter().map(|result| {
            let mut pairs = vec![
                ("protocol".to_string(), Json::str(result.protocol.clone())),
                (
                    "produced_hours".to_string(),
                    Json::from(result.produced_hours),
                ),
            ];
            pairs.extend(super::dist_metrics_json(&result.dist).into_fields());
            Json::Obj(pairs)
        })),
    )])
}

/// Renders the per-protocol hourly tables (each followed by its blame
/// block when attribution is on) and the comparison summary.
pub fn render(results: &[ClientsResult]) -> String {
    let mut out = String::new();
    out.push_str("=== Client-visible availability under sustained hourly DDoS ===\n");
    out.push_str("(five-of-nine victims, five minutes per hourly run; distribution\n");
    out.push_str(" layer: directory caches + cohort-aggregated client fleet)\n");
    for result in results {
        out.push_str(&format!(
            "\n--- {} ({} of {} hourly runs produced a consensus{}) ---\n",
            result.protocol,
            result.produced_hours,
            result.dist.fleet.rows.len().saturating_sub(1),
            if result.dist.feedback.enabled {
                "; fetch feedback ON"
            } else {
                ""
            },
        ));
        out.push_str(&format!(
            "{:>5} {:>13} {:>13} {:>9} {:>9} {:>14}\n",
            "hour", "bootstraps", "ok rate", "stale %", "dead %", "egress (MB)"
        ));
        for row in &result.dist.fleet.rows {
            let rate = if row.bootstrap_attempts == 0 {
                "-".to_string()
            } else {
                format!(
                    "{:.1}%",
                    100.0 * row.bootstrap_successes as f64 / row.bootstrap_attempts as f64
                )
            };
            out.push_str(&format!(
                "{:>5} {:>13} {:>13} {:>9.1} {:>9.1} {:>14.1}\n",
                row.hour,
                row.bootstrap_attempts,
                rate,
                100.0 * row.stale_fraction,
                100.0 * row.dead_fraction,
                (row.cache_egress_bytes + row.descriptor_egress_bytes) as f64 / 1e6,
            ));
        }
        let fleet = &result.dist.fleet;
        let cache = &result.dist.cache;
        out.push_str(&format!(
            "bootstrap success {:.1}%  client-weighted downtime {:.1}%  stale clients {:.1}% mean / {:.1}% peak\n",
            100.0 * fleet.bootstrap_success_rate,
            100.0 * fleet.client_weighted_downtime,
            100.0 * fleet.mean_stale_fraction,
            100.0 * fleet.peak_stale_fraction,
        ));
        out.push_str(&format!(
            "authority egress {:.1} MB consensus (diffs) vs {:.1} MB (full-only) + {:.1} MB descriptors\n",
            cache.authority_egress_bytes as f64 / 1e6,
            cache.authority_egress_full_only_bytes as f64 / 1e6,
            cache.authority_descriptor_egress_bytes as f64 / 1e6,
        ));
        out.push_str(&format!(
            "cache egress {:.1} GB consensus vs {:.1} GB (full-only) + {:.1} GB descriptors\n",
            fleet.cache_egress_bytes as f64 / 1e9,
            fleet.cache_egress_full_only_bytes as f64 / 1e9,
            fleet.descriptor_egress_bytes as f64 / 1e9,
        ));
        if result.dist.feedback.enabled {
            let feedback = &result.dist.feedback;
            out.push_str(&format!(
                "feedback load: authority {:.2} Mbit/s mean / {:.2} peak; cache {:.2} Mbit/s mean / {:.2} peak\n",
                feedback.mean_authority_bg_bps / 1e6,
                feedback.peak_authority_bg_bps / 1e6,
                feedback.mean_cache_bg_bps / 1e6,
                feedback.peak_cache_bg_bps / 1e6,
            ));
        }
        if let Some(rollup) = &result.dist.attribution {
            render_blame(&mut out, &result.dist, rollup);
        }
    }
    if let [current, icps] = results {
        out.push_str(&format!(
            "\nverdict: bootstrap success {:.1}% → {:.1}%, stale clients {:.1}% → {:.1}%, client-weighted downtime {:.1}% → {:.1}% (Current → Icps)\n",
            100.0 * current.dist.fleet.bootstrap_success_rate,
            100.0 * icps.dist.fleet.bootstrap_success_rate,
            100.0 * current.dist.fleet.mean_stale_fraction,
            100.0 * icps.dist.fleet.mean_stale_fraction,
            100.0 * current.dist.fleet.client_weighted_downtime,
            100.0 * icps.dist.fleet.client_weighted_downtime,
        ));
    }
    out
}

/// Appends one arm's downtime blame: the per-hour table, then the
/// whole-run rollup.
fn render_blame(out: &mut String, dist: &DistReport, rollup: &AttributionRollup) {
    out.push_str(
        "\ndowntime blame (parts are additive and sum bit-exactly to the downtime they split)\n",
    );
    out.push_str(&format!(
        "{:>5} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}  {}\n",
        "hour",
        "downtime",
        "auth",
        "cache",
        "quorum",
        "veto",
        "budget",
        "storm",
        "other",
        "dominant"
    ));
    let pct = |v: f64| format!("{:.2}", 100.0 * v);
    for hour in &dist.hours {
        let p = &hour
            .attribution
            .as_ref()
            .expect("attribution runs every hour")
            .parts;
        out.push_str(&format!(
            "{:>5} {:>8}% {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}  {}\n",
            hour.hour,
            pct(hour.fleet.dead_fraction),
            pct(p.authority_flooded),
            pct(p.cache_flooded),
            pct(p.quorum_lost),
            pct(p.detector_veto),
            pct(p.service_budget_saturated),
            pct(p.recovery_storm),
            pct(p.churn_other),
            if hour.fleet.dead_fraction > 0.0 {
                p.dominant().0
            } else {
                "-"
            },
        ));
    }
    out.push_str(&format!(
        "\nwhole run: client-weighted downtime {:.2}%, dominated by {}\n",
        100.0 * rollup.client_weighted_downtime,
        rollup.parts.dominant().0,
    ));
    for (name, value) in rollup.parts.named() {
        out.push_str(&format!("  {name:<26} {:>8}%\n", pct(value)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partialtor_dirdist::{DistSession, HourInput, LatencySummary};

    fn small_params() -> ClientsParams {
        ClientsParams {
            hours: 4,
            clients: 100_000,
            caches: 30,
            relays: 8_000,
            seed: 31,
            ..ClientsParams::default()
        }
    }

    #[test]
    fn current_and_icps_diverge_for_clients() {
        let results = run_experiment(&small_params());
        assert_eq!(results.len(), 2);
        let current = &results[0];
        let icps = &results[1];
        assert_eq!(current.protocol, "Current");
        assert_eq!(icps.protocol, "Ours");

        // Authorities: every attacked run fails under the current
        // protocol, every one succeeds under ICPS.
        assert_eq!(current.produced_hours, 0);
        assert_eq!(icps.produced_hours, 4);

        // Clients: the ICPS fleet stays bootstrapped and fresh …
        assert!(icps.dist.fleet.bootstrap_success_rate > 0.95);
        assert!(icps.dist.fleet.client_weighted_downtime < 0.02);
        // … the current-protocol fleet dies three hours after t = 0.
        assert!(current.dist.fleet.client_weighted_downtime > 0.3);
        assert!(current.dist.fleet.peak_stale_fraction > 0.99);
        let last = current.dist.fleet.rows.last().unwrap();
        assert!(last.dead_fraction > 0.95, "{last:?}");
        assert_eq!(last.bootstrap_successes, 0);

        // Divergence the acceptance criterion asks for: bootstrap success
        // rate and stale-client fraction.
        let rate_gap =
            icps.dist.fleet.bootstrap_success_rate - current.dist.fleet.bootstrap_success_rate;
        assert!(rate_gap > 0.3, "bootstrap rates must diverge: {rate_gap}");
        let stale_gap =
            current.dist.fleet.mean_stale_fraction - icps.dist.fleet.mean_stale_fraction;
        assert!(stale_gap > 0.2, "stale fractions must diverge: {stale_gap}");

        // The render mentions both protocols and the verdict line.
        let text = render(&results);
        assert!(text.contains("Current") && text.contains("Ours"));
        assert!(text.contains("verdict"));
    }

    /// `render` prints one blame block per arm iff attribution is on,
    /// and the blame block is all that the switch adds to the text.
    #[test]
    fn render_prints_a_blame_block_iff_attribution_is_on() {
        let params = ClientsParams {
            hours: 2,
            clients: 20_000,
            caches: 10,
            relays: 2_000,
            seed: 9,
            ..ClientsParams::default()
        };
        let plain = render(&run_experiment(&params));
        let attributed = render(&run_experiment(&ClientsParams {
            attribution: true,
            ..params
        }));
        assert!(!plain.contains("downtime blame") && !plain.contains("whole run"));
        assert_eq!(attributed.matches("\ndowntime blame (").count(), 2);
        assert_eq!(attributed.matches("\nwhole run: ").count(), 2);
        // Each block runs from the blank line before its heading to the
        // rollup's last part, `churn_other`; cut out, the attributed
        // text is the plain one.
        let mut stripped = attributed.clone();
        while let Some(start) = stripped.find("\ndowntime blame (") {
            let last = start
                + stripped[start..]
                    .find("\n  churn_other")
                    .expect("the rollup ends the block");
            let end = last + 1 + stripped[last + 1..].find('\n').expect("line end");
            stripped.replace_range(start..=end, "");
        }
        assert_eq!(stripped, plain);
    }

    /// Satellite: the health monitor's verdicts ride the telemetry
    /// stream. Under the five-of-nine attack every attacked hour of the
    /// current protocol fails, so the monitor raises one consensus-
    /// failure alert per hour — visible in the hour reports, the
    /// telemetry rollup, and the structured trace.
    #[test]
    fn five_of_nine_raises_consensus_failure_alerts() {
        let params = ClientsParams {
            hours: 3,
            clients: 50_000,
            caches: 20,
            relays: 2_000,
            seed: 9,
            ..ClientsParams::default()
        };
        let tracer = Tracer::enabled(1 << 18);
        let results = run_experiment_traced(&params, &tracer);
        let current = &results[0];
        let icps = &results[1];

        // Every attacked hour of the current protocol fails → one
        // critical consensus-failure alert per stepped hour.
        assert_eq!(current.produced_hours, 0);
        assert_eq!(current.dist.telemetry.alerts, params.hours);
        for hour in &current.dist.hours[1..] {
            assert_eq!(hour.alerts, 1, "one alert per failed hour: {hour:?}");
        }
        // ICPS shrugs the same flood off: no alerts at all.
        assert_eq!(icps.dist.telemetry.alerts, 0);

        let events = tracer.drain();
        let failures: Vec<_> = events
            .iter()
            .filter_map(|event| match event {
                partialtor_obs::TraceEvent::HealthAlert {
                    hour,
                    severity,
                    kind,
                    ..
                } => Some((*hour, *severity, kind.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(failures.len() as u64, params.hours);
        for (hour, severity, kind) in &failures {
            assert!((1..=params.hours).contains(hour));
            assert_eq!(*severity, "critical");
            assert_eq!(kind, "consensus_failure");
        }
    }

    /// `dirsim clients --hours 2 --clients 20000 --caches 10 --relays 500
    /// --feedback --metrics FILE`: each hour carries its latency and
    /// traffic, and each whole-run count agrees with the hours it is made
    /// of — alerts sum exactly, and the hourly requests and latency
    /// observations never exceed the run's (the drain after the last
    /// hour adds to the run only).
    #[test]
    fn metrics_rollups_agree_with_their_hours() {
        use crate::json::ToJson;
        let params = ClientsParams {
            hours: 2,
            clients: 20_000,
            caches: 10,
            relays: 500,
            feedback: true,
            ..ClientsParams::default()
        };
        let results = run_experiment_traced(&params, &Tracer::enabled(1 << 16));
        // `--metrics` writes each protocol's `hours` through this encoder.
        let keys: Vec<String> = results[0].dist.hours[1]
            .to_json()
            .into_fields()
            .into_iter()
            .map(|(key, _)| key)
            .collect();
        assert!(keys.iter().any(|key| key == "fetch_latency"), "{keys:?}");
        assert!(keys.iter().any(|key| key == "tier_traffic"), "{keys:?}");

        for result in &results {
            let (telemetry, hours) = (&result.dist.telemetry, &result.dist.hours);
            let count = |latency: &Option<LatencySummary>| latency.as_ref().map_or(0, |l| l.count);
            assert_eq!(
                telemetry.alerts,
                hours.iter().map(|h| h.alerts).sum::<u64>(),
                "{}",
                result.protocol
            );
            let requests: u64 = hours.iter().map(|h| h.tier_traffic.dir_requests).sum();
            assert!(requests <= telemetry.fetch_attempts, "{}", result.protocol);
            let latency: u64 = hours.iter().map(|h| count(&h.fetch_latency)).sum();
            assert!(
                latency <= count(&telemetry.fetch_latency),
                "{}",
                result.protocol
            );
        }
    }

    /// Satellite: the per-hour fetch mixes ride the experiment results
    /// and export to the replayable text format — hour-aligned with the
    /// fleet rows, byte-exact against their egress accounting, and
    /// round-trippable for a `dirload` process that shares no memory
    /// with this one.
    #[test]
    fn fetch_mixes_export_and_round_trip() {
        let params = ClientsParams {
            hours: 2,
            clients: 30_000,
            caches: 10,
            relays: 2_000,
            seed: 5,
            ..ClientsParams::default()
        };
        let results = run_experiment(&params);
        let current = &results[0];
        assert_eq!(
            current.fetch_mixes.len(),
            current.dist.fleet.rows.len(),
            "one mix per stepped hour"
        );
        for (mix, row) in current.fetch_mixes.iter().zip(&current.dist.fleet.rows) {
            assert_eq!(mix.hour, row.hour);
            assert_eq!(
                mix.served_bytes(),
                row.cache_egress_bytes + row.descriptor_egress_bytes,
                "hour {}: mix bytes must match row egress",
                row.hour
            );
        }
        let text = fetch_mix_export(&results);
        let parsed = FetchMix::parse_all(&text).expect("export parses");
        assert_eq!(parsed, current.fetch_mixes);
    }

    /// The traced experiment is the untraced experiment: sharing a trace
    /// sink does not perturb a single byte of the results.
    #[test]
    fn traced_experiment_matches_untraced() {
        let params = ClientsParams {
            hours: 2,
            clients: 30_000,
            caches: 10,
            relays: 2_000,
            seed: 5,
            ..ClientsParams::default()
        };
        let plain = run_experiment(&params);
        let traced = run_experiment_traced(&params, &Tracer::enabled(1 << 16));
        assert_eq!(format!("{plain:?}"), format!("{traced:?}"));
    }

    #[test]
    fn experiment_is_deterministic_for_a_seed() {
        // Smaller than the divergence test: determinism does not depend
        // on scale, and the dev-profile suite runs on small machines.
        let params = ClientsParams {
            hours: 2,
            clients: 50_000,
            caches: 20,
            relays: 2_000,
            seed: 9,
            ..ClientsParams::default()
        };
        let a = run_experiment(&params);
        let b = run_experiment(&params);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    /// `real_docs` swaps in measured proposal-140 diffs without changing
    /// the story: the ICPS fleet still lives on diffs whose sizes come
    /// from verified `ConsensusDiff` reconstructions.
    #[test]
    fn real_docs_mode_serves_measured_diffs() {
        let params = ClientsParams {
            hours: 2,
            clients: 20_000,
            caches: 10,
            relays: 80,
            seed: 7,
            real_docs: true,
            ..ClientsParams::default()
        };
        let results = run_experiment(&params);
        let icps = &results[1];
        assert_eq!(icps.produced_hours, 2);
        assert!(
            icps.dist.cache.diff_responses > 0,
            "measured diffs must flow through the cache tier: {:?}",
            icps.dist.cache
        );
        assert!(icps.dist.fleet.bootstrap_success_rate > 0.9);
        // Weekly churn composes with real docs (smoke: just runs).
        let weekly = ClientsParams {
            churn: ChurnSchedule::weekly(),
            ..params
        };
        let results = run_experiment(&weekly);
        assert_eq!(results.len(), 2);
    }

    /// The feedback switch closes the loop end to end through the
    /// experiment driver: the closed-loop run reports the storm load
    /// and at least as much client-weighted downtime.
    #[test]
    fn feedback_switch_amplifies_the_current_protocol_outage() {
        // Smaller than the divergence test: the dev-profile suite runs
        // on small machines and this steps the experiment twice.
        let params = ClientsParams {
            hours: 3,
            clients: 50_000,
            caches: 20,
            ..small_params()
        };
        let open = run_experiment(&params);
        let closed = run_experiment(&ClientsParams {
            feedback: true,
            ..params
        });
        let (open_current, closed_current) = (&open[0], &closed[0]);
        assert!(closed_current.dist.feedback.enabled);
        assert!(
            closed_current.dist.feedback.peak_authority_bg_bps
                > open_current.dist.feedback.peak_authority_bg_bps,
            "the dead fleet's probes must land on the authorities"
        );
        assert!(
            closed_current.dist.fleet.client_weighted_downtime + 1e-12
                >= open_current.dist.fleet.client_weighted_downtime,
            "closing the loop can only hurt clients"
        );
    }

    /// A 72 h session against regional serving sets — client-weighted
    /// caches, Tor Metrics cohorts, feedback, attribution and weekly
    /// churn on, a five-authority outage over hours 25–36 — rendered
    /// through the `--json` encoder. Each cohort's availability comes
    /// from the cache tier's per-serving-set quorum, so the digest pins
    /// what `CacheTier::cached_at_for` answers, hour by hour.
    #[test]
    fn regional_session_json_is_pinned() {
        use partialtor_dirdist::{CachePlacement, ClientRegions, LinkWindow, TierNode};
        const OUTAGE: std::ops::RangeInclusive<u64> = 25..=36;
        let config = DistConfig {
            clients: 300_000,
            n_caches: 40,
            placement: CachePlacement::ClientWeighted,
            client_regions: ClientRegions::TorMetrics,
            feedback: true,
            attribution: true,
            churn: ChurnSchedule::weekly(),
            link_windows: OUTAGE
                .flat_map(|hour| {
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
        let mut session = DistSession::new(&config, DocModel::synthetic(config.relays));
        for hour in 1..=72 {
            session.step_hour(if OUTAGE.contains(&hour) {
                HourInput::failed()
            } else {
                HourInput::produced(330.0)
            });
        }
        let results = [ClientsResult {
            protocol: "regional".to_string(),
            produced_hours: 72 - OUTAGE.count() as u64,
            dist: session.into_report(),
            fetch_mixes: Vec::new(),
        }];
        let json = to_json(&results).render();
        assert_eq!(
            partialtor_crypto::sha256::digest(json.as_bytes()).to_hex(),
            "46d3796e24387a8d3bc63e35307284381ac4fa193f493447735e32f245a1f1e6"
        );
    }
}
