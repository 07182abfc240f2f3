//! Deterministic consensus series for a standalone daemon.
//!
//! The daemon needs real [`Consensus`] documents to serve. Outside a
//! test that brings its own, it builds an hourly series the same way
//! the measured document model does: one relay population, a sliding
//! window per hour so consecutive documents differ by a realistic churn
//! slice, nine authorities voting, [`aggregate`] producing each hour's
//! document. Fully deterministic for a fixed seed.

use partialtor_tordoc::prelude::*;

/// Parameters of a generated consensus series.
#[derive(Clone, Copy, Debug)]
pub struct DocSetConfig {
    /// Population seed.
    pub seed: u64,
    /// Relays listed by each document.
    pub relays: usize,
    /// Documents in the series (hours).
    pub history: usize,
    /// Relays churned (dropped + added) between consecutive hours.
    pub churn_per_hour: usize,
}

impl Default for DocSetConfig {
    fn default() -> Self {
        DocSetConfig {
            seed: 7,
            relays: 500,
            history: 4,
            churn_per_hour: 10,
        }
    }
}

/// Builds the hourly series: document `h` lists the population window
/// `[h·churn, h·churn + relays)` and is valid from hour `h + 1`.
pub fn consensus_series(config: &DocSetConfig) -> Vec<Consensus> {
    let population = generate_population(&PopulationConfig {
        seed: config.seed,
        count: config.relays + config.history * config.churn_per_hour,
    });
    let committee = AuthoritySet::live(config.seed);
    (0..config.history)
        .map(|h| {
            let start = h * config.churn_per_hour;
            let window = &population[start..start + config.relays];
            let votes: Vec<Vote> = committee
                .iter()
                .map(|auth| {
                    let view = authority_view(window, auth.id, config.seed, &ViewConfig::default());
                    Vote::new(
                        VoteMeta::standard(
                            auth.id,
                            &auth.name,
                            auth.fingerprint_hex(),
                            3_600 * (h as u64 + 1),
                        ),
                        view,
                    )
                })
                .collect();
            let refs: Vec<&Vote> = votes.iter().collect();
            aggregate(&refs)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_is_deterministic_and_churns() {
        let config = DocSetConfig {
            relays: 60,
            history: 3,
            churn_per_hour: 5,
            ..DocSetConfig::default()
        };
        let a = consensus_series(&config);
        let b = consensus_series(&config);
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.digest(), y.digest(), "series must be deterministic");
        }
        assert_ne!(a[0].digest(), a[1].digest(), "hours must differ");
        // Consecutive documents share most relays — diffable churn, not
        // disjoint sets.
        let ids: Vec<std::collections::BTreeSet<_>> = a
            .iter()
            .map(|c| c.entries.iter().map(|e| e.id).collect())
            .collect();
        let shared = ids[0].intersection(&ids[1]).count();
        assert!(shared > 40, "windows must overlap: {shared}");
        assert!(shared < 60, "windows must churn");
    }
}
