//! Property-based tests of the proposal-140 consensus diff: for any pair
//! of consensus documents — overlapping, disjoint, or empty relay sets —
//! `compute(from, to)` followed by `apply(from)` reconstructs `to`
//! exactly, and the wire encoding round-trips.

use partialtor_tordoc::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Builds a consensus whose entries are the masked subset of
/// `population`, with `bump`-masked relays mutated (property churn).
fn consensus_from(
    population: &[RelayInfo],
    mask: &[bool],
    bump: &[bool],
    valid_after: u64,
) -> Consensus {
    let entries: BTreeMap<RelayId, ConsensusEntry> = population
        .iter()
        .enumerate()
        .filter(|(i, _)| mask.get(*i).copied().unwrap_or(false))
        .map(|(i, info)| {
            let mut entry = ConsensusEntry {
                id: info.id,
                nickname: info.nickname.clone(),
                address: info.address,
                or_port: info.or_port,
                dir_port: info.dir_port,
                flags: info.flags,
                version: info.version,
                protocols: info.protocols.clone(),
                exit_policy: info.exit_policy.clone(),
                bandwidth: info.bandwidth,
            };
            if bump.get(i).copied().unwrap_or(false) {
                entry.bandwidth = Some(entry.bandwidth.unwrap_or(0) + 1);
            }
            (entry.id, entry)
        })
        .collect();
    Consensus {
        meta: ConsensusMeta {
            valid_after,
            fresh_until: valid_after + 3_600,
            valid_until: valid_after + 3 * 3_600,
        },
        entries: entries.into_values().collect(),
        signatures: Vec::new(),
    }
}

/// Asserts the full round trip: compute → apply reconstructs the target,
/// and the canonical encoding parses back to the same diff.
fn assert_roundtrip(from: &Consensus, to: &Consensus) {
    let diff = ConsensusDiff::compute(from, to);
    let rebuilt = diff.apply(from).expect("diff applies to its own base");
    assert_eq!(rebuilt.digest(), to.digest(), "digest mismatch");
    assert_eq!(rebuilt.entries, to.entries, "entry mismatch");
    assert_eq!(rebuilt.meta, to.meta, "meta mismatch");

    let reparsed = ConsensusDiff::parse(&diff.encode()).expect("encoding parses");
    assert_eq!(reparsed, diff, "encode/parse round trip");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random overlapping subsets with random property churn.
    #[test]
    fn compute_apply_reconstructs_random_pairs(
        seed in 0u64..10_000,
        count in 1usize..48,
        from_mask in proptest::collection::vec(any::<bool>(), 48),
        to_mask in proptest::collection::vec(any::<bool>(), 48),
        bump in proptest::collection::vec(any::<bool>(), 48),
    ) {
        let population = generate_population(&PopulationConfig { seed, count });
        let from = consensus_from(&population, &from_mask, &[], 3_600);
        let to = consensus_from(&population, &to_mask, &bump, 7_200);
        assert_roundtrip(&from, &to);
    }

    /// The known-digest constructor, handed the true digests, builds
    /// exactly the diff `compute` does.
    #[test]
    fn known_digest_constructor_matches_compute(
        seed in 0u64..10_000,
        count in 1usize..48,
        from_mask in proptest::collection::vec(any::<bool>(), 48),
        to_mask in proptest::collection::vec(any::<bool>(), 48),
        bump in proptest::collection::vec(any::<bool>(), 48),
    ) {
        let population = generate_population(&PopulationConfig { seed, count });
        let from = consensus_from(&population, &from_mask, &[], 3_600);
        let to = consensus_from(&population, &to_mask, &bump, 7_200);
        prop_assert_eq!(
            ConsensusDiff::compute_with_digests(&from, from.digest(), &to, to.digest()),
            ConsensusDiff::compute(&from, &to)
        );
    }

    /// Fully disjoint relay sets: everything removed, everything added.
    #[test]
    fn disjoint_sets_roundtrip(
        seed in 0u64..10_000,
        count in 2usize..48,
        split in any::<proptest::sample::Index>(),
    ) {
        let population = generate_population(&PopulationConfig { seed, count });
        let pivot = 1 + split.index(count - 1);
        let from_mask: Vec<bool> = (0..count).map(|i| i < pivot).collect();
        let to_mask: Vec<bool> = (0..count).map(|i| i >= pivot).collect();
        let from = consensus_from(&population, &from_mask, &[], 3_600);
        let to = consensus_from(&population, &to_mask, &[], 7_200);
        prop_assert!(from.entries.iter().all(|e| to.entries.iter().all(|f| e.id != f.id)));
        let diff = ConsensusDiff::compute(&from, &to);
        prop_assert_eq!(diff.removed.len(), from.entries.len());
        prop_assert_eq!(diff.upserts.len(), to.entries.len());
        assert_roundtrip(&from, &to);
    }

    /// Empty documents on either or both sides.
    #[test]
    fn empty_sets_roundtrip(seed in 0u64..10_000, count in 1usize..32) {
        let population = generate_population(&PopulationConfig { seed, count });
        let all = vec![true; count];
        let none = vec![false; count];
        let full = consensus_from(&population, &all, &[], 3_600);
        let empty_old = consensus_from(&population, &none, &[], 3_600);
        let empty_new = consensus_from(&population, &none, &[], 7_200);

        // Empty → populated (a bootstrap-shaped diff).
        assert_roundtrip(&empty_old, &full);
        // Populated → empty (the whole network vanished).
        assert_roundtrip(&full, &empty_new);
        // Empty → empty (only the metadata moves).
        assert_roundtrip(&empty_old, &empty_new);
    }

    /// Identity churn: same relay set, only properties change.
    #[test]
    fn property_only_churn_is_upserts_only(
        seed in 0u64..10_000,
        count in 1usize..40,
        bump in proptest::collection::vec(any::<bool>(), 40),
    ) {
        let population = generate_population(&PopulationConfig { seed, count });
        let all = vec![true; count];
        let from = consensus_from(&population, &all, &[], 3_600);
        let to = consensus_from(&population, &all, &bump, 7_200);
        let diff = ConsensusDiff::compute(&from, &to);
        prop_assert!(diff.removed.is_empty(), "no relay left the network");
        let bumped = (0..count).filter(|&i| bump.get(i).copied().unwrap_or(false)).count();
        prop_assert_eq!(diff.upserts.len(), bumped);
        assert_roundtrip(&from, &to);
    }
}
