//! Property tests for [`partialtor::defense::DefensePlan`] composition:
//! `union` has the empty plan as identity, is associative and
//! order-independent, and cost is invariant under lever splitting and
//! duplication — the defender-side mirror of `plan_proptests.rs`.

use partialtor::defense::DefensePlan;
use partialtor_dirdist::CachePlacement;
use proptest::prelude::*;

/// Rate-limit scales drawn from an exact-f64 vocabulary, so equal-scale
/// levers merge exactly (the `max` in union is bitwise).
const SCALES: [f64; 5] = [0.5, 1.0, 1.5, 2.0, 4.0];

const PLACEMENTS: [CachePlacement; 4] = [
    CachePlacement::Uniform,
    CachePlacement::Spread,
    CachePlacement::ClientWeighted,
    CachePlacement::Authorities,
];

/// One `(kind, small, wide, pick)` spec's cache lever, if it is one.
fn cache_spec(&(kind, small, _, pick): &(u8, u8, u16, u8)) -> Option<(usize, CachePlacement)> {
    (kind % 5 == 1).then(|| {
        (
            small as usize % 24,
            PLACEMENTS[pick as usize % PLACEMENTS.len()].clone(),
        )
    })
}

/// One single-lever plan per spec.
fn sampled_levers(specs: &[(u8, u8, u16, u8)]) -> Vec<DefensePlan> {
    specs
        .iter()
        .map(|spec @ &(kind, small, wide, pick)| match kind % 5 {
            0 => DefensePlan::blocklist(small as u64 % 12),
            1 => {
                let (count, placement) = cache_spec(spec).expect("a cache spec");
                DefensePlan::add_caches(count, placement)
            }
            2 => DefensePlan::extend_lifetime(wide as u64 * 10),
            3 => DefensePlan::rate_limit(SCALES[pick as usize % SCALES.len()]),
            _ => DefensePlan::detector(small as u64 % 12),
        })
        .collect()
}

/// `levers` composed left to right, starting from the empty plan.
fn fold(levers: &[DefensePlan]) -> DefensePlan {
    levers
        .iter()
        .fold(DefensePlan::empty(), |plan, lever| plan.union(lever))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The empty plan is the identity of union on either side — of
    /// every single lever too — and folding the levers from the left
    /// equals folding them from the right, the price included.
    #[test]
    fn normalization_is_idempotent(
        specs in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), 0u16..3_600, any::<u8>()),
            0..10,
        ),
    ) {
        let levers = sampled_levers(&specs);
        for lever in &levers {
            prop_assert_eq!(&lever.union(&DefensePlan::empty()), lever);
        }
        let plan = fold(&levers);
        prop_assert_eq!(&plan.union(&DefensePlan::empty()), &plan);
        prop_assert_eq!(&DefensePlan::empty().union(&plan), &plan);
        let right = levers
            .iter()
            .rev()
            .fold(DefensePlan::empty(), |plan, lever| lever.union(&plan));
        prop_assert_eq!(&right, &plan);
        prop_assert!(
            (right.cost_per_month() - plan.cost_per_month()).abs() < 1e-9,
            "regrouping must not change the price"
        );
    }

    /// The order levers are combined in is irrelevant — the plan and its
    /// price only depend on the merged levers.
    #[test]
    fn lever_order_is_irrelevant(
        specs in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), 0u16..3_600, any::<u8>()),
            0..10,
        ),
    ) {
        let levers = sampled_levers(&specs);
        let mut reversed = levers.clone();
        reversed.reverse();
        let plan = fold(&levers);
        let flipped = fold(&reversed);
        prop_assert_eq!(&plan, &flipped);
        prop_assert!((plan.cost_per_month() - flipped.cost_per_month()).abs() < 1e-9);
    }

    /// Splitting an added-cache lever in two and duplicating any
    /// non-additive lever leaves the plan — and therefore its price —
    /// unchanged, and a self-union doubles only the cache count.
    #[test]
    fn cost_is_invariant_under_split_and_duplication(
        specs in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), 0u16..3_600, any::<u8>()),
            1..10,
        ),
        extra in 1u8..20,
    ) {
        let levers = sampled_levers(&specs);
        let plan = fold(&levers);

        // Split every cache lever at `extra` caches: the counts sum
        // back under union.
        let mut split: Vec<DefensePlan> = Vec::new();
        for (spec, lever) in specs.iter().zip(&levers) {
            match cache_spec(spec) {
                Some((count, placement)) if count > 1 => {
                    let first = count.min(extra as usize);
                    let head = DefensePlan::add_caches(first, placement.clone());
                    let tail = DefensePlan::add_caches(count - first, placement);
                    prop_assert_eq!(&head.union(&tail), lever, "split cache levers re-merge");
                    split.push(head);
                    split.push(tail);
                }
                _ => split.push(lever.clone()),
            }
        }
        let split_plan = fold(&split);
        prop_assert_eq!(&split_plan, &plan, "split cache levers re-merge");
        prop_assert!((split_plan.cost_per_month() - plan.cost_per_month()).abs() < 1e-9);

        // Duplicate each non-additive lever in turn (min/max
        // absorption): the plan and its price are unchanged every time.
        let (caches, others): (Vec<_>, Vec<_>) = specs
            .iter()
            .zip(&levers)
            .partition(|(spec, _)| cache_spec(spec).is_some());
        for (_, victim) in &others {
            let mut duplicated = levers.clone();
            duplicated.push((*victim).clone());
            let doubled = fold(&duplicated);
            prop_assert_eq!(&doubled, &plan);
            prop_assert!((doubled.cost_per_month() - plan.cost_per_month()).abs() < 1e-9);
        }

        // Union with itself is the identity for non-additive levers and
        // doubles only the cache count.
        let caches = fold(&caches.into_iter().map(|(_, l)| l.clone()).collect::<Vec<_>>());
        let others = fold(&others.into_iter().map(|(_, l)| l.clone()).collect::<Vec<_>>());
        prop_assert_eq!(&others.union(&caches), &plan);
        prop_assert_eq!(&others.union(&others), &others);
        prop_assert_eq!(plan.union(&plan), others.union(&caches).union(&caches));
    }
}

/// The defender-side price pins mirroring the attacker's $53.28 pin:
/// the playbook anchors the frontier grid at these exact prices.
#[test]
fn the_default_cost_model_prices_the_playbook_anchors() {
    assert_eq!(DefensePlan::empty().cost_per_month(), 0.0);
    assert!((DefensePlan::blocklist(6).cost_per_month() - 30.0).abs() < 1e-9);
    assert!((DefensePlan::detector(3).cost_per_month() - 40.0).abs() < 1e-9);
    assert!(
        (DefensePlan::add_caches(8, CachePlacement::ClientWeighted).cost_per_month() - 40.0).abs()
            < 1e-9
    );
    assert!((DefensePlan::extend_lifetime(3 * 3_600).cost_per_month() - 30.0).abs() < 1e-9);
    assert!((DefensePlan::rate_limit(2.0).cost_per_month() - 15.0).abs() < 1e-9);
}
