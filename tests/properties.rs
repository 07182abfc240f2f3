//! Property-based tests over the cross-crate invariants.

use partialtor_repro::core::{run, ProtocolKind, Scenario};
use partialtor_repro::crypto::SigningKey;
use partialtor_repro::tordoc::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Vote encode → parse is the identity for arbitrary generated
    /// populations and view noise.
    #[test]
    fn vote_roundtrip(seed in 0u64..5_000, count in 1usize..120, auth in 0u8..9) {
        let population = generate_population(&PopulationConfig { seed, count });
        let view = authority_view(&population, AuthorityId(auth), seed, &ViewConfig::default());
        let vote = Vote::new(
            VoteMeta::standard(AuthorityId(auth), "test", "AB".repeat(20), 3_600),
            view,
        );
        let parsed = Vote::parse(&vote.encode()).expect("generated votes parse");
        prop_assert_eq!(parsed, vote);
    }

    /// Aggregation never includes a relay listed by fewer than a strict
    /// majority of votes, and never invents relays.
    #[test]
    fn aggregation_inclusion_invariant(seed in 0u64..5_000, count in 1usize..60) {
        let population = generate_population(&PopulationConfig { seed, count });
        let votes: Vec<Vote> = (0..9u8)
            .map(|i| {
                let view = authority_view(
                    &population,
                    AuthorityId(i),
                    seed,
                    &ViewConfig { drop_rate: 0.3, ..ViewConfig::default() },
                );
                Vote::new(VoteMeta::standard(AuthorityId(i), "a", String::new(), 0), view)
            })
            .collect();
        let refs: Vec<&Vote> = votes.iter().collect();
        let consensus = aggregate(&refs);
        for entry in &consensus.entries {
            let listings = refs.iter().filter(|v| v.get(entry.id).is_some()).count();
            prop_assert!(listings >= 5, "{} listed by {listings}", entry.id);
            prop_assert!(population.iter().any(|r| r.id == entry.id), "invented relay");
        }
    }

    /// The consensus bandwidth of every relay lies between the minimum and
    /// maximum measured value across votes (median containment).
    #[test]
    fn aggregated_bandwidth_is_contained(seed in 0u64..5_000) {
        let population = generate_population(&PopulationConfig { seed, count: 30 });
        let votes: Vec<Vote> = (0..9u8)
            .map(|i| {
                let view = authority_view(&population, AuthorityId(i), seed, &ViewConfig::default());
                Vote::new(VoteMeta::standard(AuthorityId(i), "a", String::new(), 0), view)
            })
            .collect();
        let refs: Vec<&Vote> = votes.iter().collect();
        let consensus = aggregate(&refs);
        for entry in &consensus.entries {
            let measured: Vec<u32> = refs
                .iter()
                .filter_map(|v| v.get(entry.id).and_then(|r| r.bandwidth))
                .collect();
            if let Some(bw) = entry.bandwidth {
                let min = *measured.iter().min().expect("some measured");
                let max = *measured.iter().max().expect("some measured");
                prop_assert!((min..=max).contains(&bw));
            } else {
                prop_assert!(measured.is_empty());
            }
        }
    }

    /// Signatures from one run never verify in another run (domain
    /// separation of the run id).
    #[test]
    fn run_ids_domain_separate(run_a in 0u64..1_000, run_b in 1_001u64..2_000) {
        use partialtor_repro::core::signing::SigRecord;
        let key = SigningKey::from_seed([1; 32]);
        let keys = partialtor_repro::crypto::Committee::from(vec![key.verifying_key()]);
        let digest = partialtor_repro::crypto::sha256::digest(b"doc");
        let rec = SigRecord::create(run_a, 0, digest, &key);
        prop_assert!(rec.verify(run_a, &keys));
        prop_assert!(!rec.verify(run_b, &keys));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Agreement across protocols: for random small populations, all
    /// successful authorities in all three protocols compute the same
    /// consensus digest.
    #[test]
    fn protocols_agree_on_random_networks(seed in 0u64..500, relays in 10u64..60) {
        let scenario = Scenario {
            seed,
            relays,
            real_docs: true,
            ..Scenario::default()
        };
        let mut digests = std::collections::BTreeSet::new();
        for protocol in [ProtocolKind::Current, ProtocolKind::Synchronous, ProtocolKind::Icps] {
            let report = run(protocol, &scenario);
            prop_assert!(report.success, "{} failed", protocol);
            digests.extend(
                report
                    .authorities
                    .iter()
                    .filter(|a| a.success)
                    .filter_map(|a| a.digest),
            );
        }
        prop_assert_eq!(digests.len(), 1);
    }

    /// ICPS succeeds for arbitrary victim subsets of size ≤ f even when
    /// the victims never come back.
    #[test]
    fn icps_tolerates_any_f_subset(seed in 0u64..500, v1 in 0usize..9, v2 in 0usize..9) {
        use partialtor_repro::core::adversary::{AttackPlan, AttackWindow, Target};
        use partialtor_repro::simnet::{SimDuration, SimTime};
        // Duplicate victims coalesce during plan normalization.
        let scenario = Scenario {
            seed,
            relays: 500,
            attack: AttackPlan::new(
                [v1, v2]
                    .into_iter()
                    .map(|v| {
                        AttackWindow::offline(
                            Target::Authority(v),
                            SimTime::ZERO,
                            SimDuration::from_secs(4 * 3600),
                        )
                    })
                    .collect(),
            ),
            ..Scenario::default()
        };
        let report = run(ProtocolKind::Icps, &scenario);
        prop_assert!(report.success);
    }
}
