//! Directory-bandwidth savings from consensus diffs (Tor proposal 140).
//!
//! The background directory load that makes authorities DDoS-sensitive
//! (our `BG_PER_RELAY_BPS` calibration, and the §2.1 outage) is dominated
//! by repeated consensus downloads. Caches that fetch hourly *diffs*
//! instead of full documents cut that load by the measured ratio below —
//! a deployable mitigation orthogonal to the paper's protocol redesign.

use crate::runner::par_map;
use partialtor_tordoc::prelude::*;

/// One churn-rate measurement.
#[derive(Clone, Debug)]
pub struct DiffRow {
    /// Fraction of relays replaced per hour.
    pub churn: f64,
    /// Full consensus size, bytes.
    pub full_bytes: u64,
    /// Diff size, bytes.
    pub diff_bytes: u64,
    /// Bandwidth saving for diff-capable clients.
    pub saving: f64,
}

/// Builds an hour-apart consensus pair with the given relay churn and
/// measures the diff.
pub fn measure_churn(churn: f64, relays: usize, seed: u64) -> DiffRow {
    let population = generate_population(&PopulationConfig {
        seed,
        count: relays,
    });
    let make = |population: &[RelayInfo], valid_after: u64, view_seed: u64| {
        let votes: Vec<Vote> = (0..9u8)
            .map(|i| {
                let view = authority_view(
                    population,
                    AuthorityId(i),
                    view_seed,
                    &ViewConfig::default(),
                );
                Vote::new(
                    VoteMeta::standard(AuthorityId(i), "a", String::new(), valid_after),
                    view,
                )
            })
            .collect();
        let refs: Vec<&Vote> = votes.iter().collect();
        aggregate(&refs)
    };

    let old = make(&population, 3_600, seed);

    // Next hour: replace `churn` of the population with fresh relays.
    let replaced = ((relays as f64) * churn).round() as usize;
    let fresh = generate_population(&PopulationConfig {
        seed: seed ^ 0x5eed,
        count: replaced,
    });
    let mut next: Vec<RelayInfo> = population[replaced.min(population.len())..].to_vec();
    next.extend(fresh);
    let new = make(&next, 7_200, seed);

    let diff = ConsensusDiff::compute(&old, &new);
    // Verify the reconstruction before reporting any number.
    assert_eq!(
        diff.apply(&old).expect("diff applies").digest(),
        new.digest()
    );
    let full_bytes = new.wire_size();
    let diff_bytes = diff.wire_size();
    DiffRow {
        churn,
        full_bytes,
        diff_bytes,
        saving: 1.0 - diff_bytes as f64 / full_bytes as f64,
    }
}

/// Sweeps hourly churn rates at a 1 000-relay population, one churn rate
/// per core (document generation and aggregation dominate, not
/// `runner::run`, so this uses the generic [`par_map`] fan-out).
pub fn run_experiment(seed: u64) -> Vec<DiffRow> {
    par_map(&[0.005, 0.01, 0.02, 0.05, 0.10], |&churn| {
        measure_churn(churn, 1_000, seed)
    })
}

/// Renders the table.
pub fn render(rows: &[DiffRow]) -> String {
    let mut out = String::new();
    out.push_str("=== Consensus-diff bandwidth savings (proposal 140) ===\n\n");
    out.push_str(&format!(
        "{:>8} {:>12} {:>12} {:>9}\n",
        "churn", "full (B)", "diff (B)", "saving"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:>7.1}% {:>12} {:>12} {:>8.1}%\n",
            row.churn * 100.0,
            row.full_bytes,
            row.diff_bytes,
            row.saving * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_churn_gives_large_savings() {
        let row = measure_churn(0.01, 400, 9);
        assert!(row.saving > 0.8, "1% churn should save >80%: {row:?}");
    }

    #[test]
    fn savings_shrink_with_churn() {
        let low = measure_churn(0.01, 400, 9);
        let high = measure_churn(0.10, 400, 9);
        assert!(low.saving > high.saving);
        assert!(high.saving > 0.0, "even 10% churn still saves something");
    }
}
