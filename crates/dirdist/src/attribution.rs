//! Exact per-hour blame decomposition of client-weighted downtime.
//!
//! An 88 % hour under the five-of-nine campaign looks identical in the
//! availability report whether clients starved on a dead quorum, a
//! flooded cache link, a saturated service budget or a retry-storm
//! backlog. This module answers *why* by replaying each stepped hour on
//! clones of the pre-hour [`FleetSim`] under a ladder of counterfactual
//! repairs — each rung undoes one failure mechanism on top of the
//! previous rungs — and charges the downtime each repair recovers to
//! that mechanism:
//!
//! 1. **ServiceBudgetSaturated** — replay with an unlimited service
//!    budget: downtime recovered is blamed on the feedback loop's
//!    budget cap.
//! 2. **AuthorityFlooded** — additionally heal the cache tier's
//!    availability view to "every published version cached within five
//!    minutes": downtime recovered is blamed on flooded authority
//!    links (the rung only runs when authority windows overlap the
//!    hour's lookback).
//! 3. **CacheFlooded** — the same healed view when only cache/region
//!    windows are present. Ladder-order precedence: in a mixed
//!    campaign the healing is applied at the authority rung, so cache
//!    flooding is credited only in brownout-only scenarios — the
//!    decomposition stays additive instead of double-counting the
//!    shared repair.
//! 4. **DetectorVeto** — structurally zero: the detector acts on the
//!    attack plan, upstream of every session, so a session only ever
//!    sees the windows it let through — it has no veto left to repair.
//!    The slot keeps the schema stable for defenses whose vetoes can
//!    misfire.
//! 5. **RecoveryStorm** — additionally move the bootstrap backlog
//!    (clients stranded by *earlier* hours) onto the newest actually
//!    live cached version before replaying: downtime recovered is the
//!    recovery tail, blamed on the storm rather than this hour's
//!    outage. During a full outage there is nothing live to revive
//!    onto, so outage hours correctly blame the quorum instead.
//! 6. **QuorumLost** — additionally extend every publication's
//!    validity to infinity (and revive the backlog under that extended
//!    liveness): what this recovers is downtime caused by the
//!    authorities failing to produce (or deliver) a live consensus at
//!    all — the paper's headline mechanism.
//! 7. **Churn/Other** — the exact residual: mid-hour arrivals still
//!    bootstrapping, plus the float residue of the ladder.
//!
//! Each rung replays with the *same* sampler state (the fleet clone
//! includes its RNG), so rungs differ only by the repair applied. Raw
//! rung outcomes are clamped monotone (a repair can never be blamed
//! negatively), and the crate-private `reconcile` nudges the residual by units in the
//! last place so the seven parts sum **bit-exactly** to the hour's
//! `dead_fraction` under the canonical left-to-right order — pinned by
//! test and proptest. Everything here is observational: the real hour
//! has already been stepped before the ladder runs, and no clone ever
//! touches session state.
//!
//! A rung replays only while downtime is left to explain: once the
//! previous rungs have brought the hour's downtime to `0.0` — or the
//! hour had none — every later rung is charged `+0.0` without a replay.
//! This is exact. A dead fraction is never below `+0.0`, so a replay
//! entered at `0.0` clamps to `0.0` and would return the same `+0.0`
//! part; and each rung steps its own clone, so skipping one changes
//! nothing another rung sees. Healthy hours therefore cost no replay,
//! and an hour the budget rung fully explains costs one.

use crate::docmodel::DocTable;
use crate::fleet::FleetSim;
use crate::timeline::{newest_live_cached, Publication};
use partialtor_obs::json::{Json, ToJson};
use serde::Serialize;

/// Caches are assumed to fetch a published version within this many
/// seconds when their links are healthy — the healed-availability
/// constant of the authority/cache-flooded rungs (matches the tier's
/// observed healthy fetch tail).
const HEALED_FETCH_SECS: f64 = 300.0;

/// Ladder iterations allowed to nudge the residual into bit-exactness
/// before falling back to the always-exact all-residual split.
const RECONCILE_STEPS: usize = 128;

/// Additive blame shares of one downtime total. Every field is
/// non-negative and the seven sum bit-exactly — in declaration order,
/// left to right — to the total they decompose.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CauseParts {
    /// Flooded authority links delayed or prevented cache fetches.
    pub authority_flooded: f64,
    /// Flooded cache/region links starved cohorts (brownout-only
    /// scenarios; mixed campaigns credit the authority rung first).
    pub cache_flooded: f64,
    /// No live consensus existed to serve — the protocol failed or
    /// every copy expired.
    pub quorum_lost: f64,
    /// A defense veto withheld capacity. Structurally zero: the
    /// detector scrubs the attack plan upstream of every session, so no
    /// session holds a veto to blame.
    pub detector_veto: f64,
    /// The feedback service budget capped what the tier could serve.
    pub service_budget_saturated: f64,
    /// Bootstrap backlog from earlier hours still draining.
    pub recovery_storm: f64,
    /// Exact residual: churn arrivals mid-bootstrap plus float residue.
    pub churn_other: f64,
}

impl CauseParts {
    /// The canonical field order, as `(name, value)` pairs.
    pub fn named(&self) -> [(&'static str, f64); 7] {
        [
            ("authority_flooded", self.authority_flooded),
            ("cache_flooded", self.cache_flooded),
            ("quorum_lost", self.quorum_lost),
            ("detector_veto", self.detector_veto),
            ("service_budget_saturated", self.service_budget_saturated),
            ("recovery_storm", self.recovery_storm),
            ("churn_other", self.churn_other),
        ]
    }

    /// The canonical left-to-right sum — the expression pinned to equal
    /// the decomposed total bit-for-bit.
    pub fn sum(&self) -> f64 {
        self.named().iter().fold(0.0, |acc, (_, v)| acc + v)
    }

    /// The largest part by value (first in canonical order on ties).
    pub fn dominant(&self) -> (&'static str, f64) {
        let mut best = ("authority_flooded", self.authority_flooded);
        for (name, value) in self.named() {
            if value > best.1 {
                best = (name, value);
            }
        }
        best
    }
}

/// The seven parts in canonical order plus the dominant cause's name.
/// The parts sum bit-exactly to the downtime they decompose, so the JSON
/// is re-checkable by any consumer.
impl ToJson for CauseParts {
    fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = self
            .named()
            .iter()
            .map(|(name, value)| (name.to_string(), Json::from(*value)))
            .collect();
        pairs.push(("dominant".to_string(), Json::str(self.dominant().0)));
        Json::Obj(pairs)
    }
}

/// One stepped hour's blame decomposition: `parts.sum() == downtime`
/// bit-exactly, where `downtime` is the hour's `dead_fraction`.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct HourAttribution {
    /// The hour index (the JSON carries it on the enclosing hour).
    #[serde(skip)]
    pub hour: u64,
    /// The decomposed total — the hour's client-weighted dead fraction.
    pub downtime: f64,
    /// Additive blame shares.
    pub parts: CauseParts,
}

/// Whole-run rollup: per-cause means over the session's hours,
/// reconciled so `parts.sum()` equals the report's
/// `client_weighted_downtime` bit-exactly (the residual absorbs the
/// division-order drift between per-hour and whole-run averaging).
#[derive(Clone, Copy, Debug, Serialize)]
pub struct AttributionRollup {
    /// The decomposed total — the run's client-weighted downtime.
    pub client_weighted_downtime: f64,
    /// Additive blame shares (means over hours, residual reconciled).
    pub parts: CauseParts,
}

/// Everything one hour's ladder needs besides the pre-hour fleet.
pub(crate) struct LadderContext<'a> {
    /// The hour being decomposed.
    pub hour: u64,
    /// Publications visible to the hour (the session's list).
    pub publications: &'a [Publication],
    /// The grown document table.
    pub table: &'a DocTable,
    /// Per-cohort actual availability views the real step used.
    pub cached: &'a [Vec<Option<f64>>],
    /// The service budget the real step ran under.
    pub budget: Option<u64>,
    /// Whether authority link windows overlap the hour's lookback
    /// (`[hour_start - valid_secs, hour_end)`).
    pub authority_flooded: bool,
    /// Whether cache/region link windows overlap the same lookback.
    pub cache_flooded: bool,
}

/// The next representable value above `x` (non-negative finite inputs).
fn ulp_up(x: f64) -> f64 {
    if x == 0.0 {
        f64::from_bits(1)
    } else {
        f64::from_bits(x.to_bits() + 1)
    }
}

/// The next representable value below `x`, clamped at zero.
fn ulp_down(x: f64) -> f64 {
    if x <= 0.0 {
        0.0
    } else {
        f64::from_bits(x.to_bits() - 1)
    }
}

/// Fits the residual (`churn_other`) so the canonical sum equals
/// `total` bit-exactly. The six mechanism parts are kept verbatim when
/// possible; the residual is nudged by ulps to absorb float residue,
/// the largest part is shaved when the six alone overshoot, and the
/// always-exact fallback (everything residual) guarantees termination.
pub(crate) fn reconcile(mut parts: CauseParts, total: f64) -> CauseParts {
    debug_assert!(total.is_finite() && total >= 0.0);
    let six = |p: &CauseParts| {
        ((((p.authority_flooded + p.cache_flooded) + p.quorum_lost) + p.detector_veto)
            + p.service_budget_saturated)
            + p.recovery_storm
    };
    parts.churn_other = (total - six(&parts)).max(0.0);
    for _ in 0..RECONCILE_STEPS {
        let sum = parts.sum();
        if sum == total {
            return parts;
        }
        if sum < total {
            parts.churn_other = ulp_up(parts.churn_other);
        } else if parts.churn_other > 0.0 {
            parts.churn_other = ulp_down(parts.churn_other);
        } else {
            // The six mechanism parts alone overshoot: shave the
            // largest one.
            let values = [
                parts.authority_flooded,
                parts.cache_flooded,
                parts.quorum_lost,
                parts.detector_veto,
                parts.service_budget_saturated,
                parts.recovery_storm,
            ];
            let largest = (0..6).max_by(|&a, &b| values[a].total_cmp(&values[b]));
            let slot = match largest {
                Some(0) => &mut parts.authority_flooded,
                Some(1) => &mut parts.cache_flooded,
                Some(2) => &mut parts.quorum_lost,
                Some(3) => &mut parts.detector_veto,
                Some(4) => &mut parts.service_budget_saturated,
                _ => &mut parts.recovery_storm,
            };
            *slot = ulp_down(*slot);
        }
    }
    // Always exact: 0+0+0+0+0+0 sums to 0.0 and 0.0 + total == total.
    CauseParts {
        churn_other: total,
        ..CauseParts::default()
    }
}

/// Heals every cohort's availability view to "version cached within
/// [`HEALED_FETCH_SECS`] of its publication" — the counterfactual where
/// no link damage ever slowed a cache fetch.
fn healed_views(
    publications: &[Publication],
    cached: &[Vec<Option<f64>>],
) -> Vec<Vec<Option<f64>>> {
    cached
        .iter()
        .map(|view| {
            publications
                .iter()
                .map(|p| {
                    let healthy = p.available_at_secs + HEALED_FETCH_SECS;
                    Some(match view.get(p.version).copied().flatten() {
                        Some(actual) => actual.min(healthy),
                        None => healthy,
                    })
                })
                .collect()
        })
        .collect()
}

/// Per-cohort revival targets: the newest version each cohort's view
/// holds live at `t` (under `publications`' lifetimes).
fn revive_targets(
    publications: &[Publication],
    views: &[Vec<Option<f64>>],
    t: f64,
) -> Vec<Option<usize>> {
    views
        .iter()
        .map(|view| newest_live_cached(publications, view, t))
        .collect()
}

/// Runs the counterfactual ladder for one stepped hour and returns its
/// exact decomposition. `actual_dead` is the real step's
/// `dead_fraction` — the total the parts must reproduce.
pub(crate) fn attribute_hour(
    fleet_before: &FleetSim,
    actual_dead: f64,
    ctx: &LadderContext<'_>,
) -> HourAttribution {
    let hour_start = (ctx.hour * 3_600) as f64;
    let hour_end = ((ctx.hour + 1) * 3_600) as f64;
    let mut d_prev = actual_dead;
    // One rung: replay the hour on a clone of the pre-hour fleet (its
    // sampler included) under the mods accumulated so far and an
    // unlimited budget, clamp monotone, and return the downtime this
    // repair recovered. The real fleet is never touched.
    let mut rung = |publications: &[Publication],
                    cached: &[Vec<Option<f64>>],
                    revive: Option<&[Option<usize>]>| {
        // Nothing left to explain: the replay would return +0.0, so skip
        // it. A dead fraction is a mean of `pool / total` samples, never
        // below +0.0, so with `d_prev == 0.0` the replay's
        // `d_raw.min(d_prev)` is +0.0 and its part `0.0 - 0.0` is +0.0 —
        // the value returned here — and `d_prev` stays +0.0. Every rung
        // steps its own clone of `fleet_before` (sampler included), so a
        // skipped replay changes no state a later rung reads, and
        // `reconcile` receives bit-identical parts.
        if d_prev == 0.0 {
            return 0.0;
        }
        let mut fleet = fleet_before.clone();
        if let Some(targets) = revive {
            fleet.revive_pools(targets);
        }
        let d_raw = fleet
            .step_hour(ctx.hour, publications, ctx.table, cached, None)
            .dead_fraction;
        let d_eff = d_raw.min(d_prev);
        let part = d_prev - d_eff;
        d_prev = d_eff;
        part
    };

    // Rung 1: lift the service budget. Structural skip (exactly 0.0)
    // when the hour ran unbudgeted.
    let service_budget_saturated = if ctx.budget.is_some() {
        rung(ctx.publications, ctx.cached, None)
    } else {
        0.0
    };

    // Rungs 2–3: heal the availability view. The healing repairs *any*
    // link damage, so it is credited to whichever flooded layer is
    // structurally present first (authorities before caches).
    let healed = (ctx.authority_flooded || ctx.cache_flooded)
        .then(|| healed_views(ctx.publications, ctx.cached));
    let cached_mod: &[Vec<Option<f64>>] = healed.as_deref().unwrap_or(ctx.cached);
    let healed_part = if healed.is_some() {
        rung(ctx.publications, cached_mod, None)
    } else {
        0.0
    };
    let (authority_flooded, cache_flooded) = if ctx.authority_flooded {
        (healed_part, 0.0)
    } else {
        (0.0, healed_part)
    };

    // Rung 4: the detector runs on the attack plan before any session
    // exists, so the session has no veto to undo — structurally zero.
    let detector_veto = 0.0;

    // Rung 5: drain the bootstrap backlog onto the newest live cached
    // version. During a full outage no target is live, so the rung
    // skips and the deaths fall through to the quorum rung.
    let storm_targets = revive_targets(ctx.publications, cached_mod, hour_start);
    let recovery_storm =
        if fleet_before.pool_total() > 0 && storm_targets.iter().any(Option::is_some) {
            rung(ctx.publications, cached_mod, Some(&storm_targets))
        } else {
            0.0
        };

    // Rung 6: extend every publication's validity to infinity (and
    // revive the backlog under that liveness). Structural skip while no
    // publication of the session — old ones included — has expired by
    // the hour's end and no backlog exists; in practice only the first
    // hours of a session skip here, later ones rely on the
    // nothing-left-to-explain skip above.
    let quorum_relevant = fleet_before.pool_total() > 0
        || ctx
            .publications
            .iter()
            .any(|p| p.valid_until_secs <= hour_end);
    let quorum_lost = if quorum_relevant {
        let eternal: Vec<Publication> = ctx
            .publications
            .iter()
            .map(|p| Publication {
                valid_until_secs: f64::INFINITY,
                ..*p
            })
            .collect();
        let eternal_targets = revive_targets(&eternal, cached_mod, hour_start);
        rung(&eternal, cached_mod, Some(&eternal_targets))
    } else {
        0.0
    };

    let parts = reconcile(
        CauseParts {
            authority_flooded,
            cache_flooded,
            quorum_lost,
            detector_veto,
            service_budget_saturated,
            recovery_storm,
            churn_other: 0.0,
        },
        actual_dead,
    );
    HourAttribution {
        hour: ctx.hour,
        downtime: actual_dead,
        parts,
    }
}

/// Rolls per-hour attributions up to the whole run: per-cause means
/// over hours, reconciled bit-exactly against the report's
/// `client_weighted_downtime`.
pub(crate) fn rollup(
    hours: &[HourAttribution],
    client_weighted_downtime: f64,
) -> AttributionRollup {
    let n = hours.len().max(1) as f64;
    let mean = |f: fn(&CauseParts) -> f64| hours.iter().map(|h| f(&h.parts)).sum::<f64>() / n;
    let parts = reconcile(
        CauseParts {
            authority_flooded: mean(|p| p.authority_flooded),
            cache_flooded: mean(|p| p.cache_flooded),
            quorum_lost: mean(|p| p.quorum_lost),
            detector_veto: mean(|p| p.detector_veto),
            service_budget_saturated: mean(|p| p.service_budget_saturated),
            recovery_storm: mean(|p| p.recovery_storm),
            churn_other: 0.0,
        },
        client_weighted_downtime,
    );
    AttributionRollup {
        client_weighted_downtime,
        parts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn reconcile_is_bit_exact_on_simple_splits() {
        let parts = reconcile(
            CauseParts {
                quorum_lost: 0.5,
                recovery_storm: 0.1,
                ..CauseParts::default()
            },
            0.7,
        );
        assert_eq!(parts.sum(), 0.7);
        assert_eq!(parts.quorum_lost, 0.5);
        assert_eq!(parts.recovery_storm, 0.1);
        assert!(parts.churn_other >= 0.0);
    }

    #[test]
    fn reconcile_shaves_overshooting_parts() {
        // The six parts alone exceed the total: the largest gets shaved
        // until the canonical sum lands exactly on the total.
        let parts = reconcile(
            CauseParts {
                quorum_lost: 0.5,
                authority_flooded: ulp_down(0.5),
                ..CauseParts::default()
            },
            0.5,
        );
        assert_eq!(parts.sum(), 0.5);
        for (name, value) in parts.named() {
            assert!(value >= 0.0, "{name} must stay non-negative: {value}");
        }
    }

    #[test]
    fn dominant_names_the_largest_part() {
        let parts = CauseParts {
            quorum_lost: 0.6,
            recovery_storm: 0.2,
            ..CauseParts::default()
        };
        assert_eq!(parts.dominant().0, "quorum_lost");
    }

    proptest! {
        /// Reconciliation is exact for any non-negative part mix and
        /// total in the unit range, and never produces a negative part.
        #[test]
        fn reconcile_always_sums_bit_exactly(
            af in 0.0f64..0.4,
            cf in 0.0f64..0.4,
            ql in 0.0f64..0.4,
            sbs in 0.0f64..0.4,
            rs in 0.0f64..0.4,
            total in 0.0f64..=1.0,
        ) {
            let parts = reconcile(
                CauseParts {
                    authority_flooded: af,
                    cache_flooded: cf,
                    quorum_lost: ql,
                    detector_veto: 0.0,
                    service_budget_saturated: sbs,
                    recovery_storm: rs,
                    churn_other: 0.0,
                },
                total,
            );
            prop_assert_eq!(parts.sum().to_bits(), total.to_bits());
            for (name, value) in parts.named() {
                prop_assert!(value >= 0.0, "{} = {}", name, value);
            }
        }
    }
}
