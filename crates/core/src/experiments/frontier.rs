//! The cost-of-denial frontier: attacker–defender co-evolution.
//!
//! The adversary search (PR 3) answers "given $X/month, how much
//! downtime can an attacker buy?" against a *fixed* environment. This
//! experiment closes the loop: for each point on a defense-budget grid
//! it plays alternating best responses — the defender picks the
//! strongest affordable [`DefensePlan`] from a typed playbook, the
//! attacker answers with a full beam search over campaign shapes scored
//! against the *defended* environment — and reports, per defense
//! budget, the cheapest campaign that still reaches the target
//! client-weighted downtime. The resulting table is the paper's §4 cost
//! model turned into a frontier: dollars of mitigation on one axis,
//! dollars of denial on the other.
//!
//! Two structural guarantees keep the table honest:
//!
//! * **One search, shared memoization** — the attacker's answer is the
//!   adversary experiment's own engine
//!   (`adversary::SearchEnv`: memo fill, scoring, beam loop), run once
//!   per defense. Every protocol simulation is keyed by `(seed, run-local
//!   window slice)` and the memo is shared across all defenses and
//!   budgets, so two defenses that filter a campaign down to the same
//!   slices pay for the protocol runs once.
//! * **Structural monotonicity** — each budget's candidate set always
//!   includes the previous budget's winning defense, and a defense's
//!   best response is deterministic and budget-independent, so the
//!   reported attacker cost can never *decrease* as the defense budget
//!   grows (an unreachable target counts as infinite cost).
//!
//! The attacker's answer per defense is *cheapest-at-target*, not
//! best-downtime: among every campaign the beam search evaluated, the
//! least expensive one whose downtime meets the target. When no
//! affordable campaign reaches it, the row reports `None` — the defense
//! has priced denial out of the attacker's budget entirely.

use crate::defense::DefensePlan;
use partialtor_dirdist::{AttributionRollup, CachePlacement, DistConfig};
use partialtor_obs::{span, Tracer};
use serde::Serialize;
use std::collections::BTreeMap;

use super::adversary::{CampaignShape, OutcomeMemo, PlanScore, SearchEnv};

/// Search parameters (the `dirsim frontier` surface).
#[derive(Clone, Debug)]
pub struct FrontierParams {
    /// Defense budgets to sweep, dollars per 30-day month (sorted and
    /// deduplicated before the sweep).
    pub defense_budgets: Vec<f64>,
    /// The attacker's budget, dollars per 30-day month.
    pub attack_budget_usd_month: f64,
    /// Client-weighted downtime the attacker must reach for a campaign
    /// to count as denial.
    pub target_downtime: f64,
    /// Hourly runs in the scored horizon.
    pub hours: u64,
    /// Beam width — of the attacker's shape search *and* of the
    /// defender's candidate short-list per budget.
    pub beam: usize,
    /// Reference fleet size used for scoring.
    pub clients: u64,
    /// Directory caches in the scored distribution tier (the defender's
    /// added caches come on top of these).
    pub caches: usize,
    /// Relay population.
    pub relays: u64,
    /// Base seed (protocol runs, cache tier, fleet).
    pub seed: u64,
    /// Decompose each row's reported downtime into additive causes: the
    /// reported campaign is replayed under the winning defense with
    /// [`DistConfig::attribution`] on, so the table says not just how
    /// much downtime each defense dollar reclaimed but *which cause* it
    /// eliminated. Observational — the search itself is untouched.
    pub attribution: bool,
}

impl Default for FrontierParams {
    fn default() -> Self {
        FrontierParams {
            defense_budgets: vec![0.0, 15.0, 30.0, 60.0, 120.0],
            attack_budget_usd_month: 120.0,
            target_downtime: 0.80,
            hours: 24,
            beam: 2,
            clients: 200_000,
            caches: 50,
            relays: 8_000,
            seed: 1,
            attribution: false,
        }
    }
}

/// One row of the frontier table: the winning defense at one budget and
/// the attacker's best response to it.
#[derive(Clone, Debug, Serialize)]
pub struct FrontierRow {
    /// The defense budget this row was computed for, dollars per month.
    pub defense_budget_usd_month: f64,
    /// The winning defense plan's summary.
    pub defense_label: String,
    /// What the winning defense actually costs, dollars per month.
    pub defense_cost_usd_month: f64,
    /// Cheapest campaign reaching the target downtime under this
    /// defense, dollars per month — `None` when no affordable campaign
    /// reaches it (the defense priced denial out of the budget).
    pub attacker_cost_usd_month: Option<f64>,
    /// The reported campaign: the cheapest-at-target one, or — when the
    /// target is unreachable — the attacker's best effort.
    pub attack_label: String,
    /// Client-weighted downtime of the reported campaign.
    pub attack_downtime: f64,
    /// Blame decomposition of `attack_downtime`; `Some` only when
    /// [`FrontierParams::attribution`] was on. Its parts sum bit-exactly
    /// to `attack_downtime`.
    pub attribution: Option<AttributionRollup>,
}

/// The frontier table plus the sweep's fixed parameters.
#[derive(Clone, Debug, Serialize)]
pub struct FrontierResult {
    /// The attacker's budget every row was searched under.
    pub attack_budget_usd_month: f64,
    /// The downtime threshold that counts as denial.
    pub target_downtime: f64,
    /// Scored horizon, hours.
    pub hours: u64,
    /// Beam width used on both sides.
    pub beam: usize,
    /// One row per defense budget, ascending.
    pub rows: Vec<FrontierRow>,
}

/// The attacker's answer to one defense.
#[derive(Clone, Debug)]
struct BestResponse {
    /// The cheapest evaluated campaign whose downtime meets the target,
    /// or — when none does — the highest-downtime one (reporting rank).
    reported: PlanScore,
    /// Whether `reported` reaches the target.
    denies: bool,
}

/// The defender's typed playbook: every composition of levers the
/// frontier considers, cheapest first. Costs
/// ([`DefensePlan::cost_per_month`]) span $0 (do
/// nothing) to ~$225 (every lever at once), so the grid has meaningful
/// candidates at every budget the CLI exposes.
fn playbook() -> Vec<DefensePlan> {
    let hour = 3_600;
    let mut plans = vec![
        DefensePlan::empty(),
        DefensePlan::rate_limit(2.0),
        DefensePlan::extend_lifetime(3 * hour),
        DefensePlan::blocklist(6),
        DefensePlan::detector(3),
        DefensePlan::add_caches(8, CachePlacement::ClientWeighted),
        DefensePlan::blocklist(3),
        DefensePlan::detector(2),
        DefensePlan::blocklist(6).union(&DefensePlan::extend_lifetime(3 * hour)),
        DefensePlan::extend_lifetime(9 * hour),
        DefensePlan::detector(2)
            .union(&DefensePlan::blocklist(6))
            .union(&DefensePlan::rate_limit(2.0))
            .union(&DefensePlan::extend_lifetime(3 * hour)),
        DefensePlan::add_caches(16, CachePlacement::ClientWeighted)
            .union(&DefensePlan::detector(2)),
        DefensePlan::blocklist(1),
    ];
    plans.sort_by(cheaper_first);
    plans
}

/// Orders defenses cheapest first (default cost model), then by label —
/// the playbook order, and the tie-break of both defender rankings.
fn cheaper_first(a: &DefensePlan, b: &DefensePlan) -> std::cmp::Ordering {
    a.cost_per_month()
        .partial_cmp(&b.cost_per_month())
        .expect("finite defense costs")
        .then_with(|| a.label().cmp(&b.label()))
}

/// The undefended scoring environment every defense lowers onto.
fn base_config(params: &FrontierParams) -> DistConfig {
    DistConfig {
        seed: params.seed,
        clients: params.clients,
        relays: params.relays,
        n_caches: params.caches,
        ..DistConfig::default()
    }
}

/// The attacker's search environment under `defense` deployed on `base`.
fn search_env(params: &FrontierParams, defense: &DefensePlan, base: &DistConfig) -> SearchEnv {
    SearchEnv::new(
        params.hours,
        params.beam,
        params.attack_budget_usd_month,
        base,
        defense.clone(),
    )
}

/// Replays one row's reported campaign under its winning defense with
/// the attribution ladder on and returns the blame rollup. A pure
/// re-observation of the row's own score: the replay reuses the memoized
/// protocol outcomes and the same lowered config, and attribution is
/// observational, so the replayed downtime is bit-identical to
/// `reported.client_weighted_downtime` — the rollup decomposes exactly
/// the number the row prints.
fn attribute_reported(
    params: &FrontierParams,
    defense: &DefensePlan,
    reported: &PlanScore,
    memo: &mut OutcomeMemo,
) -> AttributionRollup {
    let base = DistConfig {
        attribution: true,
        ..base_config(params)
    };
    search_env(params, defense, &base)
        .score_generation(&[reported.shape], memo)
        .pop()
        .and_then(|(_, rollup)| rollup)
        .expect("attribution was enabled on the base config")
}

/// The attacker's full beam search against one defense — the adversary
/// experiment's search, scored against the defended environment.
fn best_response(
    params: &FrontierParams,
    defense: &DefensePlan,
    memo: &mut OutcomeMemo,
) -> BestResponse {
    let _span = span("frontier.best_response");
    let ranked = search_env(params, defense, &base_config(params)).search(memo);
    // `ranked` is in reporting-rank order and `min_by` keeps the first of
    // equals, so equal-cost ties resolve by rank.
    let cheapest_at_target = ranked
        .iter()
        .filter(|s| s.client_weighted_downtime + 1e-9 >= params.target_downtime)
        .min_by(|a, b| {
            a.cost_usd_month
                .partial_cmp(&b.cost_usd_month)
                .expect("finite cost")
        });
    BestResponse {
        denies: cheapest_at_target.is_some(),
        reported: cheapest_at_target
            .or(ranked.first())
            .expect("the do-nothing seed is always evaluated")
            .clone(),
    }
}

/// Cheap defender triage: the probe downtime a defense concedes to the
/// paper's baseline and its rotating twin. One memo fill plus two
/// distribution runs per defense — enough signal to short-list which
/// defenses deserve a full attacker search.
fn probe_downtime(params: &FrontierParams, defense: &DefensePlan, memo: &mut OutcomeMemo) -> f64 {
    let probes = [
        CampaignShape::FIVE_OF_NINE,
        CampaignShape::FIVE_OF_NINE_ROTATING,
    ];
    search_env(params, defense, &base_config(params))
        .score_generation(&probes, memo)
        .into_iter()
        .map(|(score, _)| score.client_weighted_downtime)
        .fold(0.0, f64::max)
}

/// The attacker cost a best response represents for ranking defenses:
/// an unreachable target is infinitely expensive.
fn denial_cost(response: &BestResponse) -> f64 {
    if response.denies {
        response.reported.cost_usd_month
    } else {
        f64::INFINITY
    }
}

/// Runs the frontier sweep.
pub fn run_experiment(params: &FrontierParams) -> FrontierResult {
    run_experiment_traced(params, &Tracer::disabled())
}

/// [`run_experiment`] with a structured trace sink: each row's winning
/// defense is replayed against its reported campaign — lowered levers
/// and reactive filtering both announce themselves as
/// [`DefenseAction`](partialtor_obs::TraceEvent::DefenseAction) events.
pub fn run_experiment_traced(params: &FrontierParams, tracer: &Tracer) -> FrontierResult {
    let _span = span("frontier.run_experiment");
    let mut budgets = params.defense_budgets.clone();
    budgets.sort_by(|a, b| a.partial_cmp(b).expect("finite defense budgets"));
    budgets.dedup();

    let candidates = playbook();

    let mut memo = OutcomeMemo::new();
    // Best responses keyed by defense label: a defense's response is
    // budget-independent, so winners recur across the grid for free.
    let mut responses: BTreeMap<String, BestResponse> = BTreeMap::new();
    let mut probes: BTreeMap<String, f64> = BTreeMap::new();

    let mut rows = Vec::new();
    let mut previous_winner: Option<DefensePlan> = None;
    for budget in budgets {
        // Short-list: the `beam` affordable defenses conceding the
        // least probe downtime, plus the previous budget's winner (the
        // monotonicity anchor — its response is already cached).
        let mut triaged: Vec<(&DefensePlan, f64)> = candidates
            .iter()
            .filter(|d| d.cost_per_month() <= budget + 1e-9)
            .map(|d| {
                let probe = *probes
                    .entry(d.label())
                    .or_insert_with(|| probe_downtime(params, d, &mut memo));
                (d, probe)
            })
            .collect();
        triaged.sort_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .expect("finite downtime")
                .then_with(|| cheaper_first(a.0, b.0))
        });
        let mut shortlist: Vec<DefensePlan> = triaged
            .into_iter()
            .take(params.beam.max(1))
            .map(|(d, _)| d.clone())
            .collect();
        if let Some(winner) = &previous_winner {
            if !shortlist.contains(winner) {
                shortlist.push(winner.clone());
            }
        }

        // Full attacker search per short-listed defense; the winner
        // maximizes the attacker's cost of denial, ties broken toward
        // the cheaper defense.
        let mut scored: Vec<(DefensePlan, BestResponse)> = Vec::new();
        for defense in shortlist {
            let response = responses
                .entry(defense.label())
                .or_insert_with(|| best_response(params, &defense, &mut memo))
                .clone();
            scored.push((defense, response));
        }
        scored.sort_by(|a, b| {
            denial_cost(&b.1)
                .partial_cmp(&denial_cost(&a.1))
                .expect("denial costs are ordered")
                .then_with(|| cheaper_first(&a.0, &b.0))
        });
        let (winner, response) = scored.into_iter().next().expect("empty plan is affordable");

        let reported = &response.reported;
        let attribution = params
            .attribution
            .then(|| attribute_reported(params, &winner, reported, &mut memo));
        rows.push(FrontierRow {
            defense_budget_usd_month: budget,
            defense_label: winner.label(),
            defense_cost_usd_month: winner.cost_per_month(),
            attacker_cost_usd_month: response.denies.then_some(reported.cost_usd_month),
            attack_label: reported.label.clone(),
            attack_downtime: reported.client_weighted_downtime,
            attribution,
        });

        // Replay the row's endgame into the trace: the winner's levers
        // lowering onto the tier, then its reaction to the reported
        // campaign.
        if tracer.is_enabled() {
            winner.lower(&base_config(params), tracer);
            winner.effective_attack(&reported.shape.plan(params.hours), tracer);
        }

        previous_winner = Some(winner);
    }

    FrontierResult {
        attack_budget_usd_month: params.attack_budget_usd_month,
        target_downtime: params.target_downtime,
        hours: params.hours,
        beam: params.beam,
        rows,
    }
}

/// Renders the frontier table for `dirsim frontier`.
pub fn render(result: &FrontierResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "=== Cost-of-denial frontier: attacker ${:.2}/month vs defense budget grid ===\n",
        result.attack_budget_usd_month
    ));
    out.push_str(&format!(
        "(per defense budget: the best affordable defense, and the cheapest campaign\n \
         reaching {:.0}% client-weighted downtime over {} h against it; beam {})\n\n",
        100.0 * result.target_downtime,
        result.hours,
        result.beam
    ));
    out.push_str(&format!(
        "{:>9} {:<42} {:>9}  {:<34} {:>9}\n",
        "$ defense", "defense plan", "$ denial", "cheapest denying campaign", "downtime"
    ));
    for row in &result.rows {
        let denial = match row.attacker_cost_usd_month {
            Some(cost) => format!("{cost:.2}"),
            None => "∞".to_string(),
        };
        out.push_str(&format!(
            "{:>9.2} {:<42} {:>9}  {:<34} {:>8.1}%\n",
            row.defense_budget_usd_month,
            format!("{} (${:.2})", row.defense_label, row.defense_cost_usd_month),
            denial,
            row.attack_label,
            100.0 * row.attack_downtime,
        ));
    }
    if let Some(row) = result
        .rows
        .iter()
        .find(|r| r.attacker_cost_usd_month.is_none())
    {
        out.push_str(&format!(
            "\nfirst defense pricing denial out of budget: {} at ${:.2}/month\n",
            row.defense_label, row.defense_cost_usd_month
        ));
    }
    if result.rows.iter().any(|r| r.attribution.is_some()) {
        out.push_str("\ndowntime blame per row (parts sum exactly to the downtime column):\n");
        for row in &result.rows {
            let Some(rollup) = &row.attribution else {
                continue;
            };
            out.push_str(&format!(
                "  ${:>6.2} defense: dominated by {}\n",
                row.defense_budget_usd_month,
                rollup.parts.dominant().0
            ));
            for (name, value) in rollup.parts.named() {
                if value > 0.0 {
                    out.push_str(&format!("    {name:<26} {:>7.2}%\n", 100.0 * value));
                }
            }
        }
    }
    out
}

/// Serializes the frontier for `dirsim frontier --json`.
pub fn to_json(result: &FrontierResult) -> crate::json::Json {
    crate::json::ToJson::to_json(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params(budgets: Vec<f64>) -> FrontierParams {
        FrontierParams {
            defense_budgets: budgets,
            attack_budget_usd_month: 55.0,
            target_downtime: 0.80,
            hours: 24,
            beam: 1,
            clients: 12_000,
            caches: 6,
            relays: 2_000,
            seed: 1,
            attribution: false,
        }
    }

    #[test]
    fn the_playbook_is_normalized_and_spans_the_grid() {
        let plans = playbook();
        assert!(plans[0].is_empty(), "the frontier starts from do-nothing");
        let costs: Vec<f64> = plans.iter().map(|p| p.cost_per_month()).collect();
        assert!(
            costs.windows(2).all(|w| w[0] <= w[1]),
            "playbook must be sorted cheapest-first: {costs:?}"
        );
        assert_eq!(costs[0], 0.0);
        assert!(
            *costs.last().expect("non-empty playbook") >= 100.0,
            "the playbook must reach the expensive end of the grid"
        );
        for plan in &plans {
            assert_eq!(
                plan.union(&DefensePlan::empty()),
                *plan,
                "playbook entries must already be normalized"
            );
        }
    }

    /// The probe downtime every playbook defense concedes at the small
    /// grid's scale, bit for bit, with one memo shared across the
    /// playbook as the frontier shares it. This covers the detector
    /// compositions (`detector@3h`, `detector@2h`, `16 caches +
    /// detector@2h`, the all-lever plan) that no committed frontier row
    /// reports.
    #[test]
    fn playbook_probe_downtimes_are_pinned() {
        let params = small_params(vec![0.0]);
        let mut memo = OutcomeMemo::new();
        let probes: Vec<(String, u64)> = playbook()
            .iter()
            .map(|d| (d.label(), probe_downtime(&params, d, &mut memo).to_bits()))
            .collect();
        let expected = [
            ("no defense", 4606101554889448489),
            ("rate×2", 4606101583860391924),
            ("blocklist@6h", 4606101554889448489),
            ("valid+3h", 4605020690978879570),
            ("8 caches (client-weighted)", 4606101555389806750),
            ("detector@3h", 4587078350063435514),
            ("blocklist@3h", 4587078350063435514),
            ("blocklist@6h + valid+3h", 4605020690978879570),
            ("detector@2h", 4575765307799480828),
            ("valid+9h", 4602858963157741732),
            (
                "blocklist@6h + valid+3h + rate×2 + detector@2h",
                4554761223713259113,
            ),
            (
                "16 caches (client-weighted) + detector@2h",
                4575765339822409601,
            ),
            ("blocklist@1h", 0),
        ];
        let expected: Vec<(String, u64)> = expected
            .iter()
            .map(|&(label, bits)| (label.to_string(), bits))
            .collect();
        assert_eq!(probes, expected, "{probes:#?}");
    }

    /// Every playbook defense's price bits, lowered config and reaction
    /// to the paper's baseline and its rotating twin, plus the whole
    /// trace those calls emit, by SHA-256.
    #[test]
    fn playbook_reactions_are_pinned() {
        let base = DistConfig {
            clients: 12_000,
            n_caches: 6,
            relays: 2_000,
            ..DistConfig::default()
        };
        let tracer = Tracer::enabled(1 << 16);
        let mut lines = Vec::new();
        for defense in playbook() {
            lines.push(format!(
                "{} {}",
                defense.label(),
                defense.cost_per_month().to_bits()
            ));
            lines.push(format!("{:?}", defense.lower(&base, &tracer)));
            for shape in [
                CampaignShape::FIVE_OF_NINE,
                CampaignShape::FIVE_OF_NINE_ROTATING,
            ] {
                lines.push(format!(
                    "{:?}",
                    defense.effective_attack(&shape.plan(24), &tracer)
                ));
            }
        }
        assert_eq!(tracer.dropped(), 0);
        let records = tracer.drain_records();
        assert_eq!(records.len(), 150);
        lines.push(format!("{records:?}"));
        assert_eq!(
            partialtor_crypto::sha256::digest(lines.join("\n").as_bytes()).to_hex(),
            "3b22dd2248cfc5e32d866993e5df33a437c3f03655171953c9e2dc58d72fa33a"
        );
    }

    #[test]
    fn an_unfunded_defender_concedes_the_five_of_nine_optimum() {
        let result = run_experiment(&small_params(vec![0.0]));
        assert_eq!(result.rows.len(), 1);
        let row = &result.rows[0];
        assert_eq!(row.defense_label, "no defense");
        assert_eq!(row.defense_cost_usd_month, 0.0);
        let cost = row
            .attacker_cost_usd_month
            .expect("an undefended target is deniable within $55");
        assert!(
            (cost - 53.28).abs() < 0.05,
            "the cheapest denial should be the paper's $53.28 five-of-nine campaign, got {cost}"
        );
        assert!(
            row.attack_downtime >= 0.80,
            "five-of-nine must clear the target: {}",
            row.attack_downtime
        );
    }

    #[test]
    fn a_funded_defender_raises_the_cost_of_denial_monotonically() {
        let result = run_experiment(&small_params(vec![0.0, 60.0]));
        // Golden pin, recorded before the frontier's own search copy was
        // deleted in favour of the adversary engine.
        assert_eq!(
            partialtor_crypto::sha256::digest(to_json(&result).render().as_bytes()).to_hex(),
            "49551f379253e68c3318a15ab82a0a1ef82ea85293586a61316e3cab804af022"
        );
        assert_eq!(result.rows.len(), 2);
        let free = &result.rows[0];
        let funded = &result.rows[1];

        // Monotonicity: attacker cost never decreases with defense
        // budget (None = the target is priced out = infinite).
        let denial = |row: &FrontierRow| row.attacker_cost_usd_month.unwrap_or(f64::INFINITY);
        assert!(
            denial(funded) >= denial(free),
            "attacker cost must be non-decreasing: {:?} then {:?}",
            free.attacker_cost_usd_month,
            funded.attacker_cost_usd_month
        );

        // The measurable raise: $60/month funds a defense that a $55
        // attacker cannot deny through — the cumulative-hour detector
        // scrubs static and rotating saturating floods alike, and
        // sub-saturating floods never break consensus.
        assert!(
            funded.attacker_cost_usd_month.is_none(),
            "at $60 the winning defense should price denial out entirely, got {:?} via {}",
            funded.attacker_cost_usd_month,
            funded.attack_label
        );
        assert!(
            funded.attack_downtime < 0.80,
            "the attacker's best effort must fall short of the target: {}",
            funded.attack_downtime
        );
    }

    /// `dirsim frontier --defense-budget-grid 0,60 --attack-budget 55
    /// --hours 24 --beam 1 --clients 8000 --caches 6 --relays 2000
    /// --attribution`: undefended denial costs the paper's $53.28, the
    /// $60 row is the one the detector lever wins and prices denial out,
    /// and each row's blame sums bit-exactly to its downtime.
    #[test]
    fn the_small_grid_rows_are_pinned() {
        let result = run_experiment(&FrontierParams {
            clients: 8_000,
            attribution: true,
            ..small_params(vec![0.0, 60.0])
        });
        let rows = &result.rows;
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].defense_budget_usd_month, 0.0);
        let cost = rows[0].attacker_cost_usd_month.expect("undefended denial");
        assert!((cost - 53.28).abs() < 0.05, "{cost}");
        assert_eq!(rows[1].attacker_cost_usd_month, None);
        assert_eq!(rows[1].defense_label, "detector@2h");
        assert_eq!(rows[1].attack_downtime.to_bits(), 0.008f64.to_bits());
        for row in rows {
            let blame = row.attribution.as_ref().expect("attribution on");
            assert_eq!(
                blame.parts.sum().to_bits(),
                blame.client_weighted_downtime.to_bits()
            );
            assert_eq!(
                blame.client_weighted_downtime.to_bits(),
                row.attack_downtime.to_bits()
            );
        }
        let blame = rows[0].attribution.as_ref().expect("attribution on");
        assert_eq!(blame.parts.dominant().0, "quorum_lost");
    }

    /// `--attribution` explains each row's downtime exactly: the parts
    /// sum bit-exactly to the downtime column, the undefended row blames
    /// the lost quorum, and turning the flag on changes nothing else
    /// about the table.
    #[test]
    fn attribution_explains_each_row_exactly_and_observationally() {
        // Deliberately small (6 h instead of 24): this runs the search
        // twice, and the properties checked are scale-free. The scale
        // still has to be big enough that the $55 budget buys denial —
        // at 6 hours the five-of-nine flood yields 57% downtime.
        let tiny = |attribution| FrontierParams {
            defense_budgets: vec![0.0, 30.0],
            attack_budget_usd_month: 55.0,
            hours: 6,
            beam: 1,
            clients: 8_000,
            caches: 6,
            relays: 2_000,
            attribution,
            ..FrontierParams::default()
        };
        let plain = run_experiment(&tiny(false));
        let attributed = run_experiment(&tiny(true));
        assert_eq!(plain.rows.len(), attributed.rows.len());
        for (p, a) in plain.rows.iter().zip(&attributed.rows) {
            assert!(p.attribution.is_none());
            assert_eq!(p.defense_label, a.defense_label);
            assert_eq!(p.attack_label, a.attack_label);
            assert_eq!(
                p.attack_downtime.to_bits(),
                a.attack_downtime.to_bits(),
                "attribution must not perturb the search"
            );
            let rollup = a.attribution.as_ref().expect("attribution on");
            assert_eq!(
                rollup.parts.sum().to_bits(),
                a.attack_downtime.to_bits(),
                "parts must sum bit-exactly to the row's downtime"
            );
            assert!(rollup.parts.named().iter().all(|(_, v)| *v >= 0.0));
        }
        let undefended = &attributed.rows[0];
        let (dominant, share) = undefended
            .attribution
            .as_ref()
            .expect("attribution on")
            .parts
            .dominant();
        assert!(share > 0.0, "undefended row must have downtime to blame");
        assert_eq!(
            dominant, "quorum_lost",
            "the undefended five-of-nine denial works by killing the quorum"
        );
    }

    /// The identity the shared search rests on: `dirsim adversary` is the
    /// frontier's best response at the $0 defense. With equal horizon,
    /// fleet, seed, budget and beam, the frontier's undefended row reports
    /// exactly the cheapest campaign the adversary search evaluated that
    /// meets the target — label, cost and downtime bits.
    #[test]
    fn the_undefended_row_is_the_adversary_search() {
        use super::super::adversary::{self, AdversaryParams};
        let (budget, beam, target) = (55.0, 1, 0.5);
        let frontier = run_experiment(&FrontierParams {
            defense_budgets: vec![0.0],
            attack_budget_usd_month: budget,
            target_downtime: target,
            hours: 6,
            beam,
            clients: 8_000,
            caches: 6,
            relays: 2_000,
            seed: 1,
            attribution: false,
        });
        let search = adversary::run_experiment(&AdversaryParams {
            budget_usd_month: budget,
            hours: 6,
            beam,
            clients: 8_000,
            caches: 6,
            relays: 2_000,
            seed: 1,
            defender_trigger_hours: None,
        });
        let cheapest = search
            .evaluated
            .iter()
            .filter(|s| s.client_weighted_downtime + 1e-9 >= target)
            .min_by(|a, b| {
                a.cost_usd_month
                    .partial_cmp(&b.cost_usd_month)
                    .expect("finite cost")
            })
            .expect("five-of-nine reaches 50% over six hours");
        let row = &frontier.rows[0];
        assert_eq!(row.defense_label, "no defense");
        assert_eq!(row.attack_label, cheapest.label);
        assert_eq!(row.attacker_cost_usd_month, Some(cheapest.cost_usd_month));
        assert_eq!(
            row.attack_downtime.to_bits(),
            cheapest.client_weighted_downtime.to_bits()
        );
    }
}
