//! Downtime attribution: *why* were the clients down?
//!
//! The clients experiment reports how much client-weighted downtime a
//! campaign buys; this one runs the same five-of-nine sustained
//! campaign against the current protocol with the distribution layer's
//! attribution ladder enabled
//! ([`DistConfig::attribution`](partialtor_dirdist::DistConfig)) and
//! reports the exact blame decomposition: per hour and for the whole
//! run, how much of the downtime each cause — flooded authority links,
//! flooded cache links, a lost consensus quorum, a detector veto, a
//! saturated cache service budget, the recovery storm, residual churn —
//! is responsible for. The parts are additive and sum bit-exactly to
//! the downtime they decompose, so the table is an accounting identity,
//! not a heuristic.

use super::sustained;
use crate::adversary::AttackPlan;
use crate::protocols::ProtocolKind;
use partialtor_dirdist::{AttributionRollup, DistConfig, DistReport, DocModel};
use partialtor_obs::Tracer;

/// Experiment parameters (the `dirsim attribute` surface).
#[derive(Clone, Debug)]
pub struct AttributeParams {
    /// Hourly attacked runs to simulate after the baseline.
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
}

impl Default for AttributeParams {
    fn default() -> Self {
        AttributeParams {
            hours: 24,
            clients: 3_000_000,
            caches: 200,
            relays: 8_000,
            seed: 1,
            feedback: false,
        }
    }
}

/// The attributed outcome of the five-of-nine campaign.
#[derive(Clone, Debug)]
pub struct AttributeResult {
    /// Protocol label (always the current protocol — the one the flood
    /// breaks).
    pub protocol: String,
    /// Hourly runs that produced a consensus (out of `hours`).
    pub produced_hours: u64,
    /// The distribution report, `attribution` populated per hour and
    /// for the whole run.
    pub dist: DistReport,
}

/// Runs the current protocol's five-of-nine timeline with attribution
/// enabled.
pub fn run_experiment(params: &AttributeParams) -> AttributeResult {
    run_experiment_traced(params, &Tracer::disabled())
}

/// [`run_experiment`] with a structured trace sink (the `dirsim
/// attribute --trace` surface).
pub fn run_experiment_traced(params: &AttributeParams, tracer: &Tracer) -> AttributeResult {
    let plan = AttackPlan::five_of_nine().sustained_hourly(params.hours);
    let [arm] = sustained::run(
        [ProtocolKind::Current],
        &plan,
        params.hours,
        params.seed,
        params.relays,
    );
    let config = DistConfig {
        seed: params.seed,
        clients: params.clients,
        relays: params.relays,
        n_caches: params.caches,
        feedback: params.feedback,
        link_windows: plan.dist_windows(),
        attribution: true,
        ..DistConfig::default()
    };
    let produced_hours = sustained::produced_hours(&arm.inputs);
    let dist = sustained::replay(
        &config,
        DocModel::synthetic(params.relays),
        arm.inputs,
        tracer,
    )
    .into_report();
    AttributeResult {
        protocol: arm.protocol.to_string(),
        produced_hours,
        dist,
    }
}

/// The whole-run rollup (present whenever the experiment ran).
pub fn rollup(result: &AttributeResult) -> &AttributionRollup {
    result
        .dist
        .attribution
        .as_ref()
        .expect("the experiment always enables attribution")
}

/// Serializes the attributed run for `dirsim attribute --json`.
pub fn to_json(result: &AttributeResult) -> crate::json::Json {
    use crate::json::{Json, ToJson};
    Json::obj([
        ("protocol", Json::str(result.protocol.clone())),
        ("produced_hours", Json::from(result.produced_hours)),
        (
            "client_weighted_downtime",
            Json::from(result.dist.fleet.client_weighted_downtime),
        ),
        ("attribution", rollup(result).to_json()),
        (
            "hours",
            Json::arr(result.dist.hours.iter().map(|hour| {
                let attribution = hour
                    .attribution
                    .as_ref()
                    .expect("attribution runs every hour");
                let mut pairs = vec![
                    ("hour".to_string(), Json::from(hour.hour)),
                    ("downtime".to_string(), Json::from(hour.fleet.dead_fraction)),
                ];
                pairs.extend(attribution.parts.to_json().into_fields());
                Json::Obj(pairs)
            })),
        ),
    ])
}

/// Renders the per-hour blame table and the whole-run rollup.
pub fn render(result: &AttributeResult) -> String {
    let mut out = String::new();
    out.push_str("=== Downtime attribution under sustained hourly DDoS ===\n");
    out.push_str(&format!(
        "(five-of-nine victims, {} of {} hourly runs produced a consensus;\n \
         parts are additive and sum bit-exactly to the downtime they split)\n\n",
        result.produced_hours,
        result.dist.hours.len().saturating_sub(1),
    ));
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
    for hour in &result.dist.hours {
        let attribution = hour
            .attribution
            .as_ref()
            .expect("attribution runs every hour");
        let p = &attribution.parts;
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
    let roll = rollup(result);
    out.push_str(&format!(
        "\nwhole run: client-weighted downtime {:.2}%, dominated by {}\n",
        100.0 * roll.client_weighted_downtime,
        roll.parts.dominant().0,
    ));
    for (name, value) in roll.parts.named() {
        out.push_str(&format!("  {name:<26} {:>8}%\n", pct(value)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> AttributeParams {
        AttributeParams {
            hours: 4,
            clients: 50_000,
            caches: 20,
            relays: 2_000,
            seed: 9,
            feedback: false,
        }
    }

    /// The acceptance story at experiment level: the five-of-nine flood
    /// kills the current protocol's clients *because the quorum is
    /// lost* — the ladder blames QuorumLost, and every decomposition in
    /// the report is exact. These are `dirsim attribute --hours 4
    /// --clients 50000 --caches 20 --relays 2000 --seed 9`'s parameters.
    #[test]
    fn five_of_nine_blame_is_quorum_lost_and_exact() {
        let result = run_experiment(&small_params());
        assert_eq!(result.produced_hours, 0, "every attacked run is breached");
        let roll = rollup(&result);
        assert_eq!(roll.parts.dominant().0, "quorum_lost");
        assert_eq!(
            roll.parts.sum().to_bits(),
            roll.client_weighted_downtime.to_bits()
        );
        assert_eq!(
            roll.client_weighted_downtime.to_bits(),
            result.dist.fleet.client_weighted_downtime.to_bits()
        );
        for hour in &result.dist.hours {
            let attribution = hour.attribution.as_ref().expect("attribution on");
            assert_eq!(
                attribution.parts.sum().to_bits(),
                hour.fleet.dead_fraction.to_bits()
            );
        }
        let text = render(&result);
        assert!(text.contains("quorum_lost") && text.contains("whole run"));
    }

    #[test]
    fn json_exposes_the_sum_identity() {
        use crate::json::Json;
        let result = run_experiment(&small_params());
        let json = to_json(&result);
        let Json::Obj(pairs) = &json else {
            panic!("object root")
        };
        let get = |name: &str| {
            pairs
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .expect("key present")
        };
        assert!(matches!(get("attribution"), Json::Obj(_)));
        let Json::Arr(hours) = get("hours") else {
            panic!("hours array")
        };
        assert_eq!(hours.len(), result.dist.hours.len());
        // The rendered JSON carries enough precision to re-check the
        // bit-exact identity after a round trip.
        let rendered = json.render();
        assert!(rendered.contains("\"dominant\":\"quorum_lost\""));
    }

    /// The attributed replay carries the health monitor's alerts like
    /// every other experiment on the sustained pipeline: one
    /// `consensus_failure` per failed hour, and the same ones `clients`
    /// traces on the same parameters (whose ICPS arm raises none).
    #[test]
    fn failed_hours_raise_the_alerts_clients_raises() {
        use crate::experiments::clients::{self, ClientsParams};
        use partialtor_obs::TraceEvent;
        fn alerts(tracer: &Tracer) -> Vec<(u64, String)> {
            tracer
                .drain()
                .into_iter()
                .filter_map(|event| match event {
                    TraceEvent::HealthAlert { hour, kind, .. } => Some((hour, kind)),
                    _ => None,
                })
                .collect()
        }
        let params = AttributeParams {
            hours: 2,
            clients: 20_000,
            caches: 10,
            ..small_params()
        };
        let tracer = Tracer::enabled(1 << 16);
        let result = run_experiment_traced(&params, &tracer);
        let attributed = alerts(&tracer);
        let failed: Vec<(u64, String)> = result.dist.hours[1..]
            .iter()
            .filter(|hour| hour.published_version.is_none())
            .map(|hour| (hour.hour, "consensus_failure".to_string()))
            .collect();
        assert_eq!(
            failed.len() as u64,
            params.hours,
            "every attacked run fails"
        );
        assert_eq!(attributed, failed);

        let tracer = Tracer::enabled(1 << 16);
        clients::run_experiment_traced(
            &ClientsParams {
                hours: params.hours,
                clients: params.clients,
                caches: params.caches,
                relays: params.relays,
                seed: params.seed,
                ..ClientsParams::default()
            },
            &tracer,
        );
        assert_eq!(alerts(&tracer), attributed);
    }

    #[test]
    fn experiment_is_deterministic_for_a_seed() {
        let a = run_experiment(&small_params());
        let b = run_experiment(&small_params());
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
