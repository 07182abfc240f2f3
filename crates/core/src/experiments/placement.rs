//! Geographic cache placement: where should the directory caches live?
//!
//! The paper's mitigation story leans on directory caches absorbing the
//! fetch load that makes authorities DDoS targets — but a cache only
//! shields the clients that can actually reach it. This experiment
//! sweeps placement strategies over the distribution layer's geo model
//! (`partialtor_dirdist::CachePlacement`) under the paper's five-of-nine
//! hourly flood, with the client fleet split into Tor-metrics-weighted
//! regional cohorts, and ranks the strategies by the expected one-way
//! fetch latency of a random client (and the client-weighted downtime
//! the campaign inflicts).
//!
//! A small greedy search rides along: add one cache at a time, each in
//! the region that minimizes the resulting client-weighted latency —
//! the constructive answer to "I can afford one more cache; where does
//! it go?". An optional regional brownout shows the flip side: a
//! placement that concentrates caches hands an adversary a
//! region-sized single point of failure.

use super::sustained;
use crate::adversary::AttackPlan;
use crate::protocols::ProtocolKind;
use partialtor_dirdist::{
    client_weighted_latency_ms, CachePlacement, ClientRegions, DistConfig, DocModel, HourInput,
    LinkWindow, RegionCacheCount, TierNode,
};
use partialtor_obs::Tracer;
use partialtor_simnet::geo::{Region, REGIONS};
use serde::Serialize;

/// Experiment parameters (the `dirsim placement` surface).
#[derive(Clone, Debug)]
pub struct PlacementParams {
    /// Hourly attacked runs after the baseline.
    pub hours: u64,
    /// Client fleet size (split into Tor-weighted regional cohorts).
    pub clients: u64,
    /// Directory caches every strategy places.
    pub caches: usize,
    /// Relay population.
    pub relays: u64,
    /// Base seed.
    pub seed: u64,
    /// Caches the greedy search places (`0` skips the search).
    pub greedy: usize,
    /// Brown out this region's caches (zero bandwidth from hour 1 to
    /// the end of the horizon) *instead of* flooding the authorities:
    /// the protocol tier stays healthy and the damage is purely
    /// distributional — the regional attack scenario.
    pub brownout: Option<Region>,
}

impl Default for PlacementParams {
    fn default() -> Self {
        PlacementParams {
            hours: 24,
            clients: 200_000,
            caches: 40,
            relays: 8_000,
            seed: 1,
            greedy: 40,
            brownout: None,
        }
    }
}

/// One scored placement strategy.
#[derive(Clone, Debug, Serialize)]
pub struct StrategyScore {
    /// Strategy label.
    pub label: String,
    /// Caches per region.
    pub cache_counts: Vec<RegionCacheCount>,
    /// Expected one-way fetch latency of a random client, ms — the
    /// ranking metric.
    pub client_weighted_latency_ms: f64,
    /// Client-weighted downtime over the horizon.
    pub client_weighted_downtime: f64,
    /// Mean stale-client fraction over the horizon.
    pub mean_stale_fraction: f64,
    /// Per-cohort outcomes.
    pub regions: Vec<CohortScore>,
}

/// One regional cohort's outcome under a strategy.
#[derive(Clone, Debug, Serialize)]
pub struct CohortScore {
    /// Cohort region label.
    pub region: String,
    /// Population fraction of the cohort.
    pub weight: f64,
    /// Mean one-way fetch latency against the cohort's serving caches,
    /// ms.
    pub fetch_latency_ms: f64,
    /// The cohort's client-weighted downtime over the horizon.
    pub client_weighted_downtime: f64,
}

/// One step of the greedy placement search.
#[derive(Clone, Debug, Serialize)]
pub struct GreedyStep {
    /// Region the added cache went to.
    pub region: String,
    /// Client-weighted latency after adding it, ms.
    pub latency_ms: f64,
}

/// The greedy search's outcome.
#[derive(Clone, Debug, Serialize)]
pub struct GreedySearch {
    /// The per-cache placement decisions, in order.
    pub steps: Vec<GreedyStep>,
    /// The resulting layout, scored through the same pipeline.
    pub score: StrategyScore,
}

/// Result of one placement sweep.
#[derive(Clone, Debug, Serialize)]
pub struct PlacementResult {
    /// Scored horizon, hours.
    pub hours: u64,
    /// Fleet size.
    pub clients: u64,
    /// Caches per strategy.
    pub caches: usize,
    /// Browned-out region, if any.
    pub brownout: Option<String>,
    /// Every strategy, ranked best first (lowest client-weighted
    /// latency, ties toward lower downtime).
    pub strategies: Vec<StrategyScore>,
    /// The greedy search, when run.
    pub greedy: Option<GreedySearch>,
}

/// The adversarial-worst single-region placement: every cache in the
/// region that maximizes the client-weighted fetch latency.
pub fn adversarial_worst_region() -> Region {
    let cohorts = ClientRegions::TorMetrics.cohorts();
    REGIONS
        .into_iter()
        .max_by(|&a, &b| {
            let la =
                client_weighted_latency_ms(&CachePlacement::SingleRegion(a).regions(1), &cohorts);
            let lb =
                client_weighted_latency_ms(&CachePlacement::SingleRegion(b).regions(1), &cohorts);
            la.partial_cmp(&lb).expect("finite latency")
        })
        .expect("regions exist")
}

/// The strategies the sweep ranks.
fn strategies() -> Vec<CachePlacement> {
    vec![
        CachePlacement::ClientWeighted,
        CachePlacement::Authorities,
        CachePlacement::Spread,
        CachePlacement::Uniform,
        CachePlacement::SingleRegion(adversarial_worst_region()),
    ]
}

/// Greedily places `n` caches: each new cache goes to the region that
/// minimizes the resulting client-weighted latency; latency ties —
/// common once every region is served locally — break toward the most
/// underserved population (highest clients-per-cache), so the layout
/// converges to the client-weighted allocation instead of piling into
/// one region.
pub fn greedy_layout(n: usize) -> (Vec<Region>, Vec<GreedyStep>) {
    let cohorts = ClientRegions::TorMetrics.cohorts();
    let mut layout: Vec<Region> = Vec::with_capacity(n);
    let mut steps = Vec::with_capacity(n);
    for _ in 0..n {
        let (region, latency) = REGIONS
            .into_iter()
            .map(|candidate| {
                let mut trial: Vec<Option<Region>> = layout.iter().copied().map(Some).collect();
                trial.push(Some(candidate));
                let pressure = partialtor_simnet::geo::client_weight(candidate)
                    / (1 + layout.iter().filter(|&&r| r == candidate).count()) as f64;
                (
                    candidate,
                    client_weighted_latency_ms(&trial, &cohorts),
                    pressure,
                )
            })
            .min_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .expect("finite latency")
                    .then(b.2.partial_cmp(&a.2).expect("finite pressure"))
            })
            .map(|(region, latency, _)| (region, latency))
            .expect("regions exist");
        layout.push(region);
        steps.push(GreedyStep {
            region: region.label().to_string(),
            latency_ms: latency,
        });
    }
    (layout, steps)
}

/// Scores one placement against the hourly protocol runs' hand-offs,
/// on a tier of `caches` caches (the sweep's strategies all use
/// `params.caches`; the greedy layout is scored on exactly the tier it
/// placed).
fn score(
    params: &PlacementParams,
    placement: CachePlacement,
    caches: usize,
    label: Option<String>,
    inputs: &[HourInput],
    plan: &AttackPlan,
) -> StrategyScore {
    let mut windows = plan.dist_windows();
    if let Some(region) = params.brownout {
        windows.push(LinkWindow {
            node: TierNode::Region(region),
            start_secs: 3_600.0,
            duration_secs: ((params.hours + 2) * 3_600) as f64,
            bps: 0.0,
        });
    }
    let config = DistConfig {
        seed: params.seed,
        clients: params.clients,
        relays: params.relays,
        n_caches: caches,
        link_windows: windows,
        placement: placement.clone(),
        client_regions: ClientRegions::TorMetrics,
        ..DistConfig::default()
    };
    let report = sustained::replay(
        &config,
        DocModel::synthetic(config.relays),
        inputs.iter().cloned(),
        &Tracer::disabled(),
    )
    .into_report();
    let downtime_of = |region: &str| {
        report
            .fleet
            .regions
            .iter()
            .find(|r| r.region == region)
            .map(|r| r.client_weighted_downtime)
            .unwrap_or(0.0)
    };
    StrategyScore {
        label: label.unwrap_or_else(|| placement.label()),
        client_weighted_latency_ms: report.placement.client_weighted_latency_ms,
        client_weighted_downtime: report.fleet.client_weighted_downtime,
        mean_stale_fraction: report.fleet.mean_stale_fraction,
        regions: report
            .placement
            .cohorts
            .iter()
            .map(|cohort| CohortScore {
                region: cohort.region.clone(),
                weight: cohort.weight,
                fetch_latency_ms: cohort.fetch_latency_ms,
                client_weighted_downtime: downtime_of(&cohort.region),
            })
            .collect(),
        cache_counts: report.placement.cache_counts,
    }
}

/// Runs the placement sweep (and the greedy search, when enabled).
pub fn run_experiment(params: &PlacementParams) -> PlacementResult {
    // The protocol tier is placement-independent: one sweep serves
    // every strategy. The default campaign is the paper's five-of-nine
    // flood; a brownout scenario leaves the authorities alone (the
    // regional cache outage is the whole attack).
    let plan = if params.brownout.is_some() {
        AttackPlan::empty()
    } else {
        AttackPlan::five_of_nine().sustained_hourly(params.hours)
    };
    let [arm] = sustained::run(
        [ProtocolKind::Current],
        &plan,
        params.hours,
        params.seed,
        params.relays,
    );

    let mut scored: Vec<StrategyScore> = strategies()
        .into_iter()
        .map(|placement| score(params, placement, params.caches, None, &arm.inputs, &plan))
        .collect();
    scored.sort_by(|a, b| {
        a.client_weighted_latency_ms
            .partial_cmp(&b.client_weighted_latency_ms)
            .expect("finite latency")
            .then(
                a.client_weighted_downtime
                    .partial_cmp(&b.client_weighted_downtime)
                    .expect("finite downtime"),
            )
            .then(a.label.cmp(&b.label))
    });

    let greedy = (params.greedy > 0).then(|| {
        // The greedy layout is scored on a tier of exactly the caches
        // it placed, so its row reports the layout the steps describe
        // (not params.caches cycling a shorter pattern).
        let n = params.greedy.min(params.caches);
        let (layout, steps) = greedy_layout(n);
        let score = score(
            params,
            CachePlacement::Explicit(layout),
            n,
            Some(format!("greedy ({n} caches)")),
            &arm.inputs,
            &plan,
        );
        GreedySearch { steps, score }
    });

    PlacementResult {
        hours: params.hours,
        clients: params.clients,
        caches: params.caches,
        brownout: params.brownout.map(|r| r.label().to_string()),
        strategies: scored,
        greedy,
    }
}

/// Serializes the sweep for `dirsim placement --json`.
pub fn to_json(result: &PlacementResult) -> crate::json::Json {
    crate::json::ToJson::to_json(result)
}

fn counts_cell(counts: &[RegionCacheCount]) -> String {
    counts
        .iter()
        .map(|count| format!("{}:{}", count.region, count.caches))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Renders the ranked sweep and the comparison verdict.
pub fn render(result: &PlacementResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "=== Cache placement sweep: {} caches, {} clients, {} attacked hours ===\n",
        result.caches, result.clients, result.hours
    ));
    match &result.brownout {
        None => {
            out.push_str("(five-of-nine hourly flood; Tor-metrics regional cohorts; strategies\n")
        }
        Some(region) => out.push_str(&format!(
            "({region} cache brownout from hour 1, healthy authorities; strategies\n"
        )),
    }
    out.push_str(" ranked by the expected one-way fetch latency of a random client)\n");
    out.push('\n');
    out.push_str(&format!(
        "{:<28} {:>12} {:>10} {:>9} {:<28}\n",
        "strategy", "latency (ms)", "downtime", "stale", "caches per region"
    ));
    for strategy in &result.strategies {
        out.push_str(&format!(
            "{:<28} {:>12.1} {:>9.1}% {:>8.1}% {:<28}\n",
            strategy.label,
            strategy.client_weighted_latency_ms,
            100.0 * strategy.client_weighted_downtime,
            100.0 * strategy.mean_stale_fraction,
            counts_cell(&strategy.cache_counts),
        ));
    }
    if let Some(greedy) = &result.greedy {
        out.push_str(&format!(
            "{:<28} {:>12.1} {:>9.1}% {:>8.1}% {:<28}\n",
            greedy.score.label,
            greedy.score.client_weighted_latency_ms,
            100.0 * greedy.score.client_weighted_downtime,
            100.0 * greedy.score.mean_stale_fraction,
            counts_cell(&greedy.score.cache_counts),
        ));
    }
    let find = |needle: &str| {
        result
            .strategies
            .iter()
            .find(|s| s.label.starts_with(needle))
    };
    if let (Some(client_weighted), Some(colocated)) =
        (find("client-weighted"), find("authority-colocated"))
    {
        out.push_str(&format!(
            "\nverdict: client-weighted placement beats authority-colocated by {:.1} ms \
             client-weighted fetch latency ({:.1} vs {:.1}) at {:+.2} pp downtime\n",
            colocated.client_weighted_latency_ms - client_weighted.client_weighted_latency_ms,
            client_weighted.client_weighted_latency_ms,
            colocated.client_weighted_latency_ms,
            100.0 * (client_weighted.client_weighted_downtime - colocated.client_weighted_downtime),
        ));
    }
    if let Some(greedy) = &result.greedy {
        out.push_str(&format!(
            "greedy : best region per added cache converges to {} at {:.1} ms\n",
            counts_cell(&greedy.score.cache_counts),
            greedy.score.client_weighted_latency_ms
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> PlacementParams {
        PlacementParams {
            hours: 2,
            clients: 20_000,
            caches: 16,
            relays: 2_000,
            seed: 3,
            greedy: 8,
            brownout: None,
        }
    }

    /// The acceptance pin: the sweep deterministically ranks at least
    /// four strategies, and client-weighted placement beats
    /// authority-colocated under the paper's five-of-nine campaign —
    /// the authority map has no APAC presence, so a fifth of the client
    /// population pays worldwide-fallback latencies.
    #[test]
    fn client_weighted_beats_authority_colocated() {
        let result = run_experiment(&small_params());
        assert!(result.strategies.len() >= 4);
        // Ranked by latency, best first.
        for pair in result.strategies.windows(2) {
            assert!(
                pair[0].client_weighted_latency_ms <= pair[1].client_weighted_latency_ms,
                "ranking must be latency-sorted: {pair:?}"
            );
        }
        let find = |needle: &str| {
            result
                .strategies
                .iter()
                .find(|s| s.label.starts_with(needle))
                .unwrap_or_else(|| panic!("{needle} must be scored"))
        };
        let client_weighted = find("client-weighted");
        let colocated = find("authority-colocated");
        let worst = find("all-in-");
        assert!(
            client_weighted.client_weighted_latency_ms + 5.0 < colocated.client_weighted_latency_ms,
            "client-weighted must beat authority-colocated by ms: {} vs {}",
            client_weighted.client_weighted_latency_ms,
            colocated.client_weighted_latency_ms
        );
        assert!(
            client_weighted.client_weighted_downtime <= colocated.client_weighted_downtime + 1e-9,
            "and cost no downtime: {} vs {}",
            client_weighted.client_weighted_downtime,
            colocated.client_weighted_downtime
        );
        // The adversarial-worst single region is the worst of the ranked
        // strategies, and is APAC's antipode story: all caches far from
        // the population.
        assert_eq!(
            worst.label,
            format!("all-in-{}", adversarial_worst_region())
        );
        assert!(
            worst.client_weighted_latency_ms >= colocated.client_weighted_latency_ms,
            "adversarial-worst must rank last or tied"
        );
        // The greedy row reports exactly the tier its steps placed
        // (8 caches here), not the sweep's 16-cache tier cycling it.
        let greedy = result.greedy.as_ref().expect("greedy ran");
        let placed: usize = greedy.score.cache_counts.iter().map(|c| c.caches).sum();
        assert_eq!(placed, 8);
        // Deterministic end to end.
        let again = run_experiment(&small_params());
        assert_eq!(format!("{result:?}"), format!("{again:?}"));
        // The render carries the verdict.
        let text = render(&result);
        assert!(text.contains("verdict: client-weighted placement beats"));
    }

    /// The greedy search serves the biggest population first and never
    /// worsens the metric as caches are added.
    #[test]
    fn greedy_places_europe_first_and_is_monotone() {
        let (layout, steps) = greedy_layout(8);
        assert_eq!(layout.len(), 8);
        assert_eq!(
            steps[0].region, "europe",
            "the first cache serves the biggest cohort"
        );
        for pair in steps.windows(2) {
            assert!(
                pair[1].latency_ms <= pair[0].latency_ms + 1e-9,
                "adding a cache never hurts: {pair:?}"
            );
        }
        // With enough caches every region is served locally.
        let regions: std::collections::BTreeSet<&str> =
            steps.iter().map(|s| s.region.as_str()).collect();
        assert_eq!(regions.len(), 4, "all four regions get a cache: {steps:?}");
    }

    /// A regional brownout flips the ranking story: the placement that
    /// concentrated its caches loses exactly that region's clients.
    #[test]
    fn brownout_punishes_the_browned_out_region() {
        let params = PlacementParams {
            brownout: Some(Region::Europe),
            greedy: 0,
            hours: 4,
            ..small_params()
        };
        let result = run_experiment(&params);
        assert_eq!(result.brownout.as_deref(), Some("europe"));
        let client_weighted = result
            .strategies
            .iter()
            .find(|s| s.label == "client-weighted")
            .expect("scored");
        let europe = client_weighted
            .regions
            .iter()
            .find(|cohort| cohort.region == "europe")
            .expect("cohort exists");
        let us_east = client_weighted
            .regions
            .iter()
            .find(|cohort| cohort.region == "us-east")
            .expect("cohort exists");
        assert!(
            europe.client_weighted_downtime > us_east.client_weighted_downtime + 0.1,
            "browned-out Europe must lose more client-time: {:?} vs {:?}",
            europe,
            us_east
        );
    }

    /// Value pin on the JSON report of the sweep with greedy search and
    /// of the brownout variant: every strategy's distribution replay
    /// must not move.
    #[test]
    fn results_are_pinned() {
        let digest = |params: &PlacementParams| {
            partialtor_crypto::sha256::digest(to_json(&run_experiment(params)).render().as_bytes())
                .to_hex()
        };
        assert_eq!(
            digest(&small_params()),
            "f2a3981f7dbd3dec35126e3b39f40c7e9d13aee65f1b59c5046505706a4c03ed"
        );
        let brownout = PlacementParams {
            brownout: Some(Region::Europe),
            greedy: 0,
            ..small_params()
        };
        assert_eq!(
            digest(&brownout),
            "d78f946279faac68f494f7db2a2b8396ee97af96b9da579e5c8598e2454841c2"
        );
    }
}
