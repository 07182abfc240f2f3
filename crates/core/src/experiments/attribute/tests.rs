//! Tests of the five-of-nine campaign's downtime blame, as
//! `dirsim clients --attribution` computes, encodes and prints it.

use crate::experiments::clients::{
    render, run_experiment, run_experiment_traced, to_json, ClientsParams,
};
use crate::json::Json;
use partialtor_obs::{TraceEvent, Tracer};

/// `dirsim clients --hours 4 --clients 50000 --caches 20 --relays 2000
/// --seed 9 --attribution`'s parameters.
fn small_params() -> ClientsParams {
    ClientsParams {
        hours: 4,
        clients: 50_000,
        caches: 20,
        relays: 2_000,
        seed: 9,
        attribution: true,
        ..ClientsParams::default()
    }
}

/// The acceptance story at experiment level: the five-of-nine flood
/// kills the current protocol's clients *because the quorum is lost* —
/// the ladder blames `quorum_lost` for hours 3 and 4 and for 40 % of the
/// run — and every decomposition in both arms' reports is exact.
#[test]
fn five_of_nine_blame_is_quorum_lost_and_exact() {
    let results = run_experiment(&small_params());
    let current = &results[0];
    assert_eq!(current.produced_hours, 0, "every attacked run is breached");
    let roll = current.dist.attribution.as_ref().expect("attribution on");
    assert_eq!(roll.parts.dominant().0, "quorum_lost");
    assert_eq!(roll.parts.quorum_lost.to_bits(), 0.4f64.to_bits());
    for hour in &current.dist.hours {
        let parts = &hour.attribution.as_ref().expect("attribution on").parts;
        let quorum_lost = if hour.hour >= 3 { 1.0f64 } else { 0.0 };
        for (name, value) in parts.named() {
            let want = if name == "quorum_lost" {
                quorum_lost
            } else {
                0.0
            };
            assert_eq!(
                value.to_bits(),
                want.to_bits(),
                "hour {}: {name}",
                hour.hour
            );
        }
    }
    for result in &results {
        let roll = result.dist.attribution.as_ref().expect("attribution on");
        assert_eq!(
            roll.parts.sum().to_bits(),
            roll.client_weighted_downtime.to_bits(),
            "{}",
            result.protocol
        );
        assert_eq!(
            roll.client_weighted_downtime.to_bits(),
            result.dist.fleet.client_weighted_downtime.to_bits(),
            "{}",
            result.protocol
        );
        for hour in &result.dist.hours {
            let attribution = hour.attribution.as_ref().expect("attribution on");
            assert_eq!(
                attribution.parts.sum().to_bits(),
                hour.fleet.dead_fraction.to_bits(),
                "{} hour {}",
                result.protocol,
                hour.hour
            );
        }
    }
    let text = render(&results);
    assert!(text.contains("quorum_lost") && text.contains("whole run"));
}

/// The `--json` report carries every decomposition with the precision
/// to re-check it: each object holding `parts` and the total they split
/// — both arms' rollups and every hour — sums, with each number read
/// back from its rendered text, bit-exactly to that total.
#[test]
fn json_exposes_the_sum_identity() {
    fn reread(value: &Json) -> f64 {
        Json::render(value).parse().expect("a finite number")
    }
    fn check(value: &Json, checked: &mut usize) {
        match value {
            Json::Obj(pairs) => {
                let get = |key: &str| pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v);
                if let Some(Json::Obj(parts)) = get("parts") {
                    let total = get("client_weighted_downtime")
                        .or_else(|| get("downtime"))
                        .expect("parts come with the total they split");
                    let sum = parts
                        .iter()
                        .filter(|(name, _)| name != "dominant")
                        .fold(0.0, |acc, (_, part)| acc + reread(part));
                    assert_eq!(sum.to_bits(), reread(total).to_bits(), "{pairs:?}");
                    *checked += 1;
                }
                pairs.iter().for_each(|(_, v)| check(v, checked));
            }
            Json::Arr(values) => values.iter().for_each(|v| check(v, checked)),
            _ => {}
        }
    }
    let results = run_experiment(&small_params());
    let json = to_json(&results);
    let mut checked = 0;
    check(&json, &mut checked);
    let decompositions: usize = results.iter().map(|r| 1 + r.dist.hours.len()).sum();
    assert_eq!(checked, decompositions);
    assert!(json.render().contains("\"dominant\":\"quorum_lost\""));
}

/// The attributed replay raises the health monitor's alerts like the
/// plain one: one `consensus_failure` per failed current-protocol hour
/// (the ICPS arm raises none), and the same ones `clients` traces with
/// attribution off.
#[test]
fn failed_hours_raise_the_alerts_clients_raises() {
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
    let params = ClientsParams {
        hours: 2,
        clients: 20_000,
        caches: 10,
        ..small_params()
    };
    let tracer = Tracer::enabled(1 << 16);
    let results = run_experiment_traced(&params, &tracer);
    let attributed = alerts(&tracer);
    let failed: Vec<(u64, String)> = results[0].dist.hours[1..]
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
    run_experiment_traced(
        &ClientsParams {
            attribution: false,
            ..params
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
    assert_eq!(render(&a), render(&b));
}
