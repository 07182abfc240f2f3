//! §4.3: the attack-cost table.
//!
//! $0.00074 per Mbit/s per hour of stressor traffic; 5 authorities at 240
//! Mbit/s for 5 minutes per hourly run → $0.074 per breached run, $53.28
//! per month of sustained outage. Every row is an [`AttackPlan`] priced
//! by [`AttackPlan::cost`], the one price path the searches use too.

use crate::adversary::{AttackPlan, AttackWindow, Target};
use crate::calibration::ATTACK_FLOOD_MBPS;
use partialtor_simnet::{SimDuration, SimTime};

/// One cost-model row.
#[derive(Clone, Debug)]
pub struct CostRow {
    /// Scenario description.
    pub scenario: String,
    /// Targets attacked.
    pub targets: usize,
    /// Flood rate per target, Mbit/s.
    pub flood_mbps: f64,
    /// Cost per breached consensus run, dollars.
    pub per_run_usd: f64,
    /// Cost per month of sustained outage, dollars.
    pub per_month_usd: f64,
}

/// The cost table.
#[derive(Clone, Debug)]
pub struct CostResult {
    /// Rows, headline first.
    pub rows: Vec<CostRow>,
}

/// One hourly consensus run's campaign: authorities `0..targets`, each
/// flooded at `flood_mbps` for the run's first `minutes`.
pub fn hourly_plan(targets: usize, flood_mbps: f64, minutes: f64) -> AttackPlan {
    let duration = SimDuration::from_secs_f64(minutes * 60.0);
    AttackPlan::new(
        (0..targets)
            .map(|i| AttackWindow::new(Target::Authority(i), SimTime::ZERO, duration, flood_mbps))
            .collect(),
    )
}

fn row(scenario: &str, targets: usize, flood_mbps: f64, minutes: f64) -> CostRow {
    let plan = hourly_plan(targets, flood_mbps, minutes);
    CostRow {
        scenario: scenario.to_string(),
        targets,
        flood_mbps,
        per_run_usd: plan.cost(),
        per_month_usd: plan.cost_per_month(),
    }
}

/// Builds the headline cost plus sensitivity rows.
///
/// Pure arithmetic over [`hourly_plan`]s — the one driver with no
/// scenario batch to hand to `runner::sweep`.
pub fn run_experiment() -> CostResult {
    let flood = ATTACK_FLOOD_MBPS;
    CostResult {
        rows: vec![
            row(
                "paper headline (5 × 240 Mbit/s, 5 min hourly)",
                5,
                flood,
                5.0,
            ),
            row("all nine authorities", 9, flood, 5.0),
            // 1 Gbit/s links instead of 250 Mbit/s.
            row("1 Gbit/s authority links", 5, 990.0, 5.0),
            // Doubled protocol window.
            row("10-minute attack window", 5, flood, 10.0),
        ],
    }
}

/// Renders the table.
pub fn render(result: &CostResult) -> String {
    let mut out = String::new();
    out.push_str("=== §4.3: DDoS-for-hire attack cost ===\n\n");
    out.push_str(&format!(
        "{:<48} {:>7} {:>10} {:>10} {:>12}\n",
        "scenario", "targets", "Mbit/s", "$/run", "$/month"
    ));
    for row in &result.rows {
        out.push_str(&format!(
            "{:<48} {:>7} {:>10.0} {:>10.3} {:>12.2}\n",
            row.scenario, row.targets, row.flood_mbps, row.per_run_usd, row.per_month_usd
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_row_matches_paper() {
        let result = run_experiment();
        let headline = &result.rows[0];
        assert!((headline.per_run_usd - 0.074).abs() < 1e-9);
        assert!((headline.per_month_usd - 53.28).abs() < 1e-6);
        assert_eq!(
            headline.per_month_usd,
            AttackPlan::five_of_nine().cost_per_month(),
            "the table and the searches price the campaign on one path"
        );
    }
}
