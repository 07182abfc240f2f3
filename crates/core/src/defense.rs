//! The typed defense model: one mitigation vocabulary for every layer.
//!
//! [`DefensePlan`] mirrors [`AttackPlan`]
//! on the defender's side of the board. Where the attacker composes
//! flood windows, the defender composes five levers, each with its own
//! single-lever constructor:
//!
//! * **Blocklist** — once a target has been flooded in `trigger_hours`
//!   *consecutive* hours, its later floods are filtered upstream (its
//!   transit providers scrub them); rotating the victims keeps every
//!   counter below the trigger;
//! * **Added caches** — rent `count` extra directory caches, placed by
//!   a [`CachePlacement`] strategy, on top of the existing tier;
//! * **Consensus-lifetime extension** — publish consensuses that stay
//!   valid `extra_valid_secs` longer, so clients ride out longer
//!   production outages before going stale;
//! * **Rate limit** — stretch the fleet's bootstrap-retry and
//!   refresh-spread intervals by `interval_scale`, damping the §2.1
//!   retry storms at the cost of slower recovery;
//! * **Detector** — Danner-style fetch-rate anomaly detection: a
//!   target whose link shows a saturating flood signature in
//!   `trigger_hours` *cumulative* (not necessarily consecutive) hours
//!   is scrubbed from then on — the counter that rotation cannot reset.
//!
//! Plans compose through [`DefensePlan::union`] (duplicate levers
//! merge: triggers take the minimum, cache counts sum, lifetime
//! extensions and rate scales take the maximum), so the order levers
//! are combined in never matters, a neutral lever is absorbed, and cost
//! is invariant under splitting or reordering levers — the same
//! contract `AttackPlan` gives the attacker's side, and what the
//! frontier search relies on when it dedups candidate defenses.
//!
//! Each lever prices in $/month through [`DefensePlan::cost_per_month`]
//! (the counterpart of the attacker's [`AttackPlan::cost_per_month`]),
//! lowers onto the distribution layer through [`DefensePlan::lower`] (a
//! [`DistConfig`] transformer), and reacts to a campaign through
//! [`DefensePlan::effective_attack`] (an
//! [`AttackPlan`] transformer — the one place the reactive levers run).
//! Every lowered lever and every reactive filtering announces itself as
//! a [`TraceEvent::DefenseAction`], so `--trace` output interleaves the
//! defender's moves with the attacker's window events.

use crate::adversary::{AttackPlan, AttackWindow, Target};
use crate::calibration::{AUTHORITY_LINK_BPS, CACHE_LINK_BPS, FLOOD_SATURATION_FRACTION};
use partialtor_dirdist::{CachePlacement, DistConfig};
use partialtor_obs::{TraceEvent, Tracer};
use partialtor_simnet::SimTime;
use std::collections::{BTreeMap, BTreeSet};

const HOUR_US: u64 = 3_600_000_000;

/// The defender's counterpart of [`AttackPlan`]: one field per lever,
/// each at its neutral value when the lever is not deployed.
#[derive(Clone, Debug, PartialEq)]
pub struct DefensePlan {
    /// Blocklist trigger, hours (None = lever not deployed).
    blocklist_trigger_hours: Option<u64>,
    /// Caches added on top of the configured tier.
    added_caches: usize,
    /// Placement of the added caches ([`CachePlacement::Uniform`] when
    /// none are added).
    cache_placement: CachePlacement,
    /// Extra consensus validity, seconds.
    extra_valid_secs: u64,
    /// Fleet fetch-interval multiplier (1.0 = lever not deployed).
    rate_limit_scale: f64,
    /// Detector trigger, cumulative flagged hours (None = not deployed).
    detector_trigger_hours: Option<u64>,
}

impl DefensePlan {
    /// The do-nothing defense.
    pub fn empty() -> Self {
        DefensePlan {
            blocklist_trigger_hours: None,
            added_caches: 0,
            cache_placement: CachePlacement::Uniform,
            extra_valid_secs: 0,
            rate_limit_scale: 1.0,
            detector_trigger_hours: None,
        }
    }

    /// Filter a target's floods after `trigger_hours` *consecutive*
    /// attacked hours (a trigger of 0 acts as 1).
    pub fn blocklist(trigger_hours: u64) -> Self {
        DefensePlan {
            blocklist_trigger_hours: Some(trigger_hours.max(1)),
            ..DefensePlan::empty()
        }
    }

    /// Rent `count` extra directory caches placed by `placement`
    /// (`add_caches(0, _)` is the empty plan).
    pub fn add_caches(count: usize, placement: CachePlacement) -> Self {
        if count == 0 {
            return DefensePlan::empty();
        }
        DefensePlan {
            added_caches: count,
            cache_placement: placement,
            ..DefensePlan::empty()
        }
    }

    /// Publish consensuses that stay valid `extra_valid_secs` longer.
    pub fn extend_lifetime(extra_valid_secs: u64) -> Self {
        DefensePlan {
            extra_valid_secs,
            ..DefensePlan::empty()
        }
    }

    /// Stretch the fleet's fetch intervals by `interval_scale` (scales
    /// below 1 act as 1, the neutral value).
    pub fn rate_limit(interval_scale: f64) -> Self {
        DefensePlan {
            rate_limit_scale: interval_scale.max(1.0),
            ..DefensePlan::empty()
        }
    }

    /// Scrub a target after `trigger_hours` *cumulative* hours with a
    /// saturating flood signature on its link (a trigger of 0 acts as 1).
    pub fn detector(trigger_hours: u64) -> Self {
        DefensePlan {
            detector_trigger_hours: Some(trigger_hours.max(1)),
            ..DefensePlan::empty()
        }
    }

    /// True when no lever is deployed.
    pub fn is_empty(&self) -> bool {
        *self == DefensePlan::empty()
    }

    /// Both plans' levers at once: triggers take the minimum, cache
    /// counts sum, the lifetime extension and rate scale take the
    /// maximum. The added caches keep the placement of whichever side
    /// adds any (the smaller label when both do), so the union is
    /// commutative and associative and `empty()` is its identity.
    pub fn union(&self, other: &DefensePlan) -> Self {
        let trigger = |a: Option<u64>, b: Option<u64>| match (a, b) {
            (Some(a), Some(b)) => Some(a.min(b)),
            _ => a.or(b),
        };
        // A plan adding no caches holds the neutral placement.
        let cache_placement = match (self.added_caches, other.added_caches) {
            (_, 0) => self.cache_placement.clone(),
            (0, _) => other.cache_placement.clone(),
            _ => std::cmp::min_by_key(&self.cache_placement, &other.cache_placement, |p| p.label())
                .clone(),
        };
        DefensePlan {
            blocklist_trigger_hours: trigger(
                self.blocklist_trigger_hours,
                other.blocklist_trigger_hours,
            ),
            added_caches: self.added_caches + other.added_caches,
            cache_placement,
            extra_valid_secs: self.extra_valid_secs.max(other.extra_valid_secs),
            rate_limit_scale: self.rate_limit_scale.max(other.rate_limit_scale),
            detector_trigger_hours: trigger(
                self.detector_trigger_hours,
                other.detector_trigger_hours,
            ),
        }
    }

    /// Human-readable plan summary, e.g.
    /// `blocklist@6h + 16 caches (client-weighted) + valid+3h`.
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if let Some(t) = self.blocklist_trigger_hours {
            parts.push(format!("blocklist@{t}h"));
        }
        if self.added_caches > 0 {
            parts.push(format!(
                "{} caches ({})",
                self.added_caches,
                self.cache_placement.label()
            ));
        }
        if self.extra_valid_secs > 0 {
            parts.push(format!("valid+{}h", self.extra_valid_secs as f64 / 3_600.0));
        }
        if self.rate_limit_scale > 1.0 {
            parts.push(format!("rate\u{d7}{}", self.rate_limit_scale));
        }
        if let Some(t) = self.detector_trigger_hours {
            parts.push(format!("detector@{t}h"));
        }
        if parts.is_empty() {
            "no defense".to_string()
        } else {
            parts.join(" + ")
        }
    }

    /// Monthly cost, USD: each lever at its price below.
    pub fn cost_per_month(&self) -> f64 {
        let mut usd = self.added_caches as f64 * USD_PER_CACHE_MONTH;
        if let Some(t) = self.blocklist_trigger_hours {
            usd += BLOCKLIST_BASE_USD_MONTH / t as f64;
        }
        if let Some(t) = self.detector_trigger_hours {
            usd += DETECTOR_BASE_USD_MONTH / t as f64;
        }
        usd += self.extra_valid_secs as f64 / 3_600.0 * USD_PER_VALID_HOUR_MONTH;
        usd += (self.rate_limit_scale - 1.0).max(0.0) * RATE_LIMIT_USD_MONTH;
        usd
    }

    /// The *effective* campaign once this defense has reacted: the
    /// blocklist filters targets after consecutive attacked hours, then
    /// the detector scrubs targets after cumulative hours with a
    /// saturating flood signature. The attacker keeps paying for
    /// filtered floods — cost is a property of the plan, not of its
    /// effect. Emits one [`TraceEvent::DefenseAction`] per filtered
    /// target (the blocklist's each preceded by its
    /// [`TraceEvent::BlocklistTrigger`]).
    ///
    /// This is the only place the reactive levers run: every protocol
    /// run and every distribution session sees the scrubbed plan.
    pub fn effective_attack(&self, plan: &AttackPlan, tracer: &Tracer) -> AttackPlan {
        let mut effective = plan.clone();
        if let Some(trigger) = self.blocklist_trigger_hours {
            let rule = |hours: &BTreeSet<u64>| first_consecutive_run(hours, trigger);
            effective = scrub(
                &effective,
                |_| true,
                rule,
                |target, hour| {
                    tracer.emit(TraceEvent::BlocklistTrigger {
                        hour,
                        target: target.to_string(),
                    });
                    tracer.emit(TraceEvent::DefenseAction {
                        action: "blocklist",
                        hour,
                        target: target.to_string(),
                    });
                },
            );
        }
        if let Some(trigger) = self.detector_trigger_hours {
            // The hour after the `trigger`-th flagged hour, consecutive
            // or not.
            let rule =
                |hours: &BTreeSet<u64>| hours.iter().nth(trigger as usize - 1).map(|h| h + 1);
            effective = scrub(&effective, detectable, rule, |target, hour| {
                tracer.emit(TraceEvent::DefenseAction {
                    action: "detector",
                    hour,
                    target: target.to_string(),
                });
            });
        }
        effective
    }

    /// Threads the structural levers into a [`DistConfig`]: added
    /// caches grow the tier (via [`CachePlacement::Augmented`] when they
    /// are placed differently from the base), the lifetime extension
    /// lengthens `valid_secs`, and the rate limit scales the fleet's
    /// fetch intervals — each announced as one
    /// [`TraceEvent::DefenseAction`]. The reactive levers (blocklist,
    /// detector) leave the config alone: they act on the campaign
    /// itself, upstream of every session, through
    /// [`DefensePlan::effective_attack`].
    pub fn lower(&self, base: &DistConfig, tracer: &Tracer) -> DistConfig {
        let mut config = base.clone();
        if self.added_caches > 0 {
            config.placement = if base.placement == self.cache_placement {
                base.placement.clone()
            } else {
                CachePlacement::Augmented {
                    base: Box::new(base.placement.clone()),
                    base_n: base.n_caches,
                    added: Box::new(self.cache_placement.clone()),
                }
            };
            config.n_caches = base.n_caches + self.added_caches;
            tracer.emit(TraceEvent::DefenseAction {
                action: "add_caches",
                hour: 0,
                target: format!(
                    "tier +{} ({})",
                    self.added_caches,
                    self.cache_placement.label()
                ),
            });
        }
        if self.extra_valid_secs > 0 {
            config.valid_secs = base.valid_secs + self.extra_valid_secs;
            tracer.emit(TraceEvent::DefenseAction {
                action: "extend_lifetime",
                hour: 0,
                target: "consensus".to_string(),
            });
        }
        if self.rate_limit_scale > 1.0 {
            config.fetch_rate_scale = base.fetch_rate_scale.max(1.0) * self.rate_limit_scale;
            tracer.emit(TraceEvent::DefenseAction {
                action: "rate_limit",
                hour: 0,
                target: "fleet".to_string(),
            });
        }
        config
    }
}

/// True when the window's flood would saturate its victim's link — the
/// signature the detector can see. Sub-saturating floods stay below the
/// radar (Danner et al.'s detection-hard regime).
fn detectable(window: &AttackWindow) -> bool {
    let link_bps = match window.target {
        Target::Authority(_) => AUTHORITY_LINK_BPS,
        Target::Cache(_) => CACHE_LINK_BPS,
    };
    window.flood_mbps * 1e6 >= FLOOD_SATURATION_FRACTION * link_bps
}

/// The blocklist's rule: the hour after the first run of `trigger`
/// consecutive attacked hours.
fn first_consecutive_run(hours: &BTreeSet<u64>, trigger: u64) -> Option<u64> {
    let mut run = 0;
    let mut prev: Option<u64> = None;
    for &h in hours {
        run = if prev.is_some_and(|p| p + 1 == h) {
            run + 1
        } else {
            1
        };
        if run >= trigger {
            return Some(h + 1);
        }
        prev = Some(h);
    }
    None
}

/// One reactive filter: `rule` maps the hours in which a target has a
/// window `counts` accepts (a window covers every hour it overlaps) to
/// the hour from which the target is filtered. Each tripped target is
/// announced in target order; then its windows from that hour on are
/// dropped, and one running across it is clipped.
fn scrub(
    plan: &AttackPlan,
    counts: impl Fn(&AttackWindow) -> bool,
    rule: impl Fn(&BTreeSet<u64>) -> Option<u64>,
    announce: impl Fn(Target, u64),
) -> AttackPlan {
    let mut hours: BTreeMap<Target, BTreeSet<u64>> = BTreeMap::new();
    for w in plan.windows().iter().filter(|w| counts(w)) {
        let first = w.start.as_micros() / HOUR_US;
        let last = (w.end().as_micros().saturating_sub(1)) / HOUR_US;
        hours.entry(w.target).or_default().extend(first..=last);
    }
    let cut_offs: BTreeMap<Target, u64> = hours
        .into_iter()
        .filter_map(|(target, hours)| rule(&hours).map(|from| (target, from)))
        .collect();
    for (&target, &from) in &cut_offs {
        announce(target, from);
    }
    AttackPlan::new(
        plan.windows()
            .iter()
            .filter_map(|w| {
                let Some(&from) = cut_offs.get(&w.target) else {
                    return Some(*w);
                };
                let cutoff = SimTime::from_micros(from.saturating_mul(HOUR_US));
                if w.start >= cutoff {
                    None
                } else if w.end() <= cutoff {
                    Some(*w)
                } else {
                    // A long window is filtered mid-flight.
                    Some(AttackWindow {
                        duration: cutoff.since(w.start),
                        ..*w
                    })
                }
            })
            .collect(),
    )
}

// Defender-side $/month pricing, the counterpart of the attacker's
// stressor rate. Reactive levers price by aggressiveness (a faster
// trigger costs more operator attention and more false-positive
// fallout), structural levers by rental and risk.

/// Renting one directory cache, $/month.
const USD_PER_CACHE_MONTH: f64 = 5.0;
/// Operating the blocklist at a 1-hour trigger, $/month; an `h`-hour
/// trigger costs `1/h` of it.
const BLOCKLIST_BASE_USD_MONTH: f64 = 180.0;
/// Operating the anomaly detector at a 1-hour trigger, $/month; an
/// `h`-hour trigger costs `1/h` of it.
const DETECTOR_BASE_USD_MONTH: f64 = 120.0;
/// Each extra hour of consensus validity, $/month — priced as risk: a
/// longer-lived consensus is a longer window for a compromised relay
/// set to stay routable.
const USD_PER_VALID_HOUR_MONTH: f64 = 10.0;
/// Each unit of fetch-interval stretch beyond 1×, $/month — priced as
/// client experience: slower bootstrap and staler clients.
const RATE_LIMIT_USD_MONTH: f64 = 15.0;

/// The two reactive filters as they stood before they shared
/// [`scrub`], kept as test oracles for [`DefensePlan::effective_attack`].
#[cfg(test)]
mod oracle {
    use super::*;

    /// The consecutive-hours blocklist.
    pub(super) fn blocklist(plan: &AttackPlan, trigger_hours: u64, tracer: &Tracer) -> AttackPlan {
        if trigger_hours == 0 {
            // A zero trigger filters everything from hour 0.
            return AttackPlan::empty();
        }
        // Hours in which each target is flooded (a window covers every
        // hour it overlaps).
        let mut attacked: BTreeMap<Target, BTreeSet<u64>> = BTreeMap::new();
        for w in plan.windows() {
            let first = w.start.as_micros() / HOUR_US;
            let last = (w.end().as_micros().saturating_sub(1)) / HOUR_US;
            attacked.entry(w.target).or_default().extend(first..=last);
        }
        // First hour from which each target is blocklisted: the hour
        // after its first `trigger_hours`-long consecutive run.
        let mut blocked_from: BTreeMap<Target, u64> = BTreeMap::new();
        for (target, hours) in &attacked {
            let mut run_start = None;
            let mut prev = None;
            for &h in hours {
                match (run_start, prev) {
                    (Some(start), Some(p)) if h == p + 1 => {
                        if h + 1 - start >= trigger_hours {
                            blocked_from.insert(*target, h + 1);
                            break;
                        }
                    }
                    _ => {
                        run_start = Some(h);
                        if trigger_hours == 1 {
                            blocked_from.insert(*target, h + 1);
                            break;
                        }
                    }
                }
                prev = Some(h);
            }
        }
        for (target, &from) in &blocked_from {
            tracer.emit(TraceEvent::BlocklistTrigger {
                hour: from,
                target: target.to_string(),
            });
            tracer.emit(TraceEvent::DefenseAction {
                action: "blocklist",
                hour: from,
                target: target.to_string(),
            });
        }
        AttackPlan::new(
            plan.windows()
                .iter()
                .filter_map(|w| {
                    let Some(&from) = blocked_from.get(&w.target) else {
                        return Some(*w);
                    };
                    let cutoff = SimTime::from_micros(from.saturating_mul(HOUR_US));
                    if w.start >= cutoff {
                        // Filtered before it started.
                        None
                    } else if w.end() <= cutoff {
                        Some(*w)
                    } else {
                        // A long window is filtered mid-flight.
                        Some(AttackWindow {
                            duration: cutoff.since(w.start),
                            ..*w
                        })
                    }
                })
                .collect(),
        )
    }

    /// The cumulative-hours detector.
    pub(super) fn detector(plan: &AttackPlan, trigger: u64, tracer: &Tracer) -> AttackPlan {
        let trigger = trigger.max(1);
        let mut flagged: BTreeMap<Target, BTreeSet<u64>> = BTreeMap::new();
        for w in plan.windows() {
            if !detectable(w) {
                continue;
            }
            let first = w.start.as_micros() / HOUR_US;
            let last = (w.end().as_micros().saturating_sub(1)) / HOUR_US;
            flagged.entry(w.target).or_default().extend(first..=last);
        }
        let mut blocked_from: BTreeMap<Target, u64> = BTreeMap::new();
        for (target, hours) in &flagged {
            if let Some(&hour) = hours.iter().nth(trigger as usize - 1) {
                blocked_from.insert(*target, hour + 1);
            }
        }
        for (target, &from) in &blocked_from {
            tracer.emit(TraceEvent::DefenseAction {
                action: "detector",
                hour: from,
                target: target.to_string(),
            });
        }
        AttackPlan::new(
            plan.windows()
                .iter()
                .filter_map(|w| {
                    let Some(&from) = blocked_from.get(&w.target) else {
                        return Some(*w);
                    };
                    let cutoff = SimTime::from_micros(from.saturating_mul(HOUR_US));
                    if w.start >= cutoff {
                        None
                    } else if w.end() <= cutoff {
                        Some(*w)
                    } else {
                        // A long window is scrubbed mid-flight.
                        Some(AttackWindow {
                            duration: cutoff.since(w.start),
                            ..*w
                        })
                    }
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::ATTACK_FLOOD_MBPS;
    use partialtor_simnet::SimDuration;
    use proptest::prelude::*;

    fn window(target: Target, start_s: u64, dur_s: u64, flood: f64) -> AttackWindow {
        AttackWindow::new(
            target,
            SimTime::from_secs(start_s),
            SimDuration::from_secs(dur_s),
            flood,
        )
    }

    fn rotating(hours: u64) -> AttackPlan {
        let targets: Vec<Target> = (0..9).map(Target::Authority).collect();
        AttackPlan::rotate(
            &targets,
            SimDuration::from_secs(3_600),
            SimDuration::from_secs(300),
            ATTACK_FLOOD_MBPS,
            hours,
        )
        .shifted(3_600)
    }

    #[test]
    fn normalization_merges_levers_and_drops_neutral_ones() {
        let plan = [
            DefensePlan::blocklist(6),
            DefensePlan::blocklist(3),
            DefensePlan::add_caches(5, CachePlacement::ClientWeighted),
            DefensePlan::add_caches(3, CachePlacement::ClientWeighted),
            DefensePlan::add_caches(0, CachePlacement::Spread),
            DefensePlan::rate_limit(0.5),
            DefensePlan::extend_lifetime(3_600),
            DefensePlan::extend_lifetime(7_200),
        ]
        .iter()
        .fold(DefensePlan::empty(), |plan, lever| plan.union(lever));
        assert_eq!(
            plan,
            DefensePlan::blocklist(3)
                .union(&DefensePlan::add_caches(8, CachePlacement::ClientWeighted))
                .union(&DefensePlan::extend_lifetime(7_200))
        );
        // The zero-cache and sub-1 rate-limit levers are neutral and
        // vanished, and the empty plan is the identity of union.
        assert!(DefensePlan::add_caches(0, CachePlacement::Spread).is_empty());
        assert!(DefensePlan::rate_limit(0.5).is_empty());
        assert_eq!(plan.union(&DefensePlan::empty()), plan);
        assert!(DefensePlan::empty().is_empty());
        assert_eq!(DefensePlan::empty().label(), "no defense");
        assert_eq!(
            plan.label(),
            "blocklist@3h + 8 caches (client-weighted) + valid+2h"
        );
    }

    #[test]
    fn the_absorbed_blocklist_matches_the_legacy_defender_exactly() {
        let static_plan = AttackPlan::five_of_nine().sustained_hourly(8);
        let rotating_plan = rotating(8);
        for plan in [&static_plan, &rotating_plan] {
            for trigger in [1, 3, 6] {
                assert_eq!(
                    DefensePlan::blocklist(trigger).effective_attack(plan, &Tracer::disabled()),
                    oracle::blocklist(plan, trigger, &Tracer::disabled()),
                    "trigger {trigger}"
                );
            }
        }
    }

    #[test]
    fn blocklist_filters_stable_victims_but_not_rotations() {
        let blocklist = DefensePlan::blocklist(6);
        // The paper's static campaign: the same five victims every hour.
        let static_day = AttackPlan::five_of_nine().sustained_hourly(24);
        let effective = blocklist.effective_attack(&static_day, &Tracer::disabled());
        assert_eq!(
            effective.windows().len(),
            5 * 6,
            "the static five-of-nine survives exactly the trigger window"
        );
        assert!(effective.end_secs() <= 6.0 * 3_600.0 + 300.0);
        // The attacker still pays for the filtered hours.
        assert!((static_day.cost_per_month() - 53.28).abs() < 1e-6);

        // A stride-1 rotation keeps every authority under six
        // consecutive attacked hours: nothing is filtered.
        let rotating = AttackPlan::new(
            (1..=24u64)
                .flat_map(|h| {
                    (0..5).map(move |k| {
                        window(
                            Target::Authority(((h + k) % 9) as usize),
                            h * 3_600,
                            300,
                            240.0,
                        )
                    })
                })
                .collect(),
        );
        assert_eq!(
            blocklist.effective_attack(&rotating, &Tracer::disabled()),
            rotating,
            "rotation evades the blocklist"
        );
    }

    #[test]
    fn blocklist_clips_long_windows_and_resets_on_gaps() {
        let blocklist = DefensePlan::blocklist(2);
        // One continuous three-hour flood: filtered mid-flight at the
        // two-hour mark.
        let long = AttackPlan::new(vec![window(Target::Authority(0), 0, 3 * 3_600, 240.0)]);
        let effective = blocklist.effective_attack(&long, &Tracer::disabled());
        assert_eq!(effective.windows().len(), 1);
        assert_eq!(
            effective.windows()[0].duration,
            SimDuration::from_secs(2 * 3_600)
        );
        // Attacks with a rest hour between them never accumulate the
        // trigger run.
        let intermittent = AttackPlan::new(vec![
            window(Target::Authority(0), 0, 300, 240.0),
            window(Target::Authority(0), 2 * 3_600, 300, 240.0),
            window(Target::Authority(0), 4 * 3_600, 300, 240.0),
        ]);
        assert_eq!(
            blocklist.effective_attack(&intermittent, &Tracer::disabled()),
            intermittent
        );
        // A zero trigger normalizes to one hour: the flood is cut at the
        // end of its first hour.
        let eager = DefensePlan::blocklist(0).effective_attack(&long, &Tracer::disabled());
        assert_eq!(eager.windows()[0].duration, SimDuration::from_secs(3_600));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The shared [`scrub`] path reproduces both old filters
        /// window for window, and their trace events in order, for any
        /// campaign and any pair of triggers (0 = lever not deployed).
        #[test]
        fn effective_attack_matches_the_oracles(
            scattered in proptest::collection::vec(
                (0usize..12, 0u64..24 * 3_600, 60u64..4 * 3_600, 0usize..5),
                0..16,
            ),
            sustained in proptest::collection::vec((0usize..12, 0u64..12, 1u64..14), 0..4),
            blocklist in 0u64..=12,
            detector in 0u64..=12,
        ) {
            const FLOODS: [f64; 5] = [60.0, 100.0, 200.0, 240.0, 300.0];
            let target = |i: usize| {
                if i < 9 { Target::Authority(i) } else { Target::Cache(i - 9) }
            };
            let mut windows: Vec<AttackWindow> = scattered
                .iter()
                .map(|&(t, start, duration, flood)| window(target(t), start, duration, FLOODS[flood]))
                .collect();
            for &(t, first, hours) in &sustained {
                windows.extend((first..first + hours).map(|h| window(target(t), h * 3_600, 300, 240.0)));
            }
            let plan = AttackPlan::new(windows);
            let mut defense = DefensePlan::empty();
            if blocklist > 0 {
                defense = defense.union(&DefensePlan::blocklist(blocklist));
            }
            if detector > 0 {
                defense = defense.union(&DefensePlan::detector(detector));
            }

            let tracer = Tracer::enabled(1 << 12);
            let effective = defense.effective_attack(&plan, &tracer);
            let oracle_tracer = Tracer::enabled(1 << 12);
            let mut expected = plan.clone();
            if blocklist > 0 {
                expected = oracle::blocklist(&expected, blocklist, &oracle_tracer);
            }
            if detector > 0 {
                expected = oracle::detector(&expected, detector, &oracle_tracer);
            }
            prop_assert_eq!(effective.windows(), expected.windows());
            prop_assert_eq!(tracer.drain(), oracle_tracer.drain());
        }
    }

    #[test]
    fn the_detector_counts_cumulative_hours_so_rotation_does_not_escape() {
        let plan = rotating(9);
        // Rotating one-auth-per-hour floods: each authority is flooded
        // in exactly one hour, so a consecutive-hours blocklist at 2
        // filters nothing...
        assert_eq!(
            DefensePlan::blocklist(2).effective_attack(&plan, &Tracer::disabled()),
            plan
        );
        // ...but a sustained rotating campaign over 36 hours floods each
        // authority in 4 separate hours, and the cumulative detector at
        // 3 scrubs every one of them after its third appearance —
        // dropping each victim's fourth window.
        let sustained = rotating(36);
        let tracer = Tracer::enabled(1 << 10);
        let scrubbed = DefensePlan::detector(3).effective_attack(&sustained, &tracer);
        assert!(
            scrubbed.windows().len() < sustained.windows().len(),
            "the detector must filter repeat offenders: {} vs {}",
            scrubbed.windows().len(),
            sustained.windows().len()
        );
        let actions = tracer.drain();
        assert_eq!(
            actions
                .iter()
                .filter(|e| matches!(
                    e,
                    TraceEvent::DefenseAction {
                        action: "detector",
                        ..
                    }
                ))
                .count(),
            9,
            "every rotated victim is eventually scrubbed"
        );
        // Sub-saturating floods stay below the radar.
        let quiet = AttackPlan::new(vec![AttackWindow::new(
            Target::Authority(0),
            SimTime::ZERO,
            SimDuration::from_secs(3_600 * 24),
            100.0,
        )]);
        assert_eq!(
            DefensePlan::detector(1).effective_attack(&quiet, &Tracer::disabled()),
            quiet
        );
    }

    #[test]
    fn costs_follow_the_model_and_are_invariant_under_lever_splits() {
        assert_eq!(DefensePlan::empty().cost_per_month(), 0.0);
        assert_eq!(DefensePlan::blocklist(6).cost_per_month(), 30.0);
        assert_eq!(DefensePlan::detector(3).cost_per_month(), 40.0);
        assert_eq!(
            DefensePlan::add_caches(8, CachePlacement::ClientWeighted).cost_per_month(),
            40.0
        );
        assert_eq!(
            DefensePlan::extend_lifetime(3 * 3_600).cost_per_month(),
            30.0
        );
        assert_eq!(DefensePlan::rate_limit(2.0).cost_per_month(), 15.0);
        let split = DefensePlan::add_caches(3, CachePlacement::ClientWeighted)
            .union(&DefensePlan::add_caches(5, CachePlacement::ClientWeighted));
        assert_eq!(
            split.cost_per_month(),
            DefensePlan::add_caches(8, CachePlacement::ClientWeighted).cost_per_month()
        );
    }

    #[test]
    fn lowering_threads_every_lever_into_the_dist_config() {
        let plan = DefensePlan::add_caches(16, CachePlacement::ClientWeighted)
            .union(&DefensePlan::extend_lifetime(7_200))
            .union(&DefensePlan::rate_limit(2.0))
            .union(&DefensePlan::detector(3));
        let base = DistConfig {
            n_caches: 40,
            ..DistConfig::default()
        };
        let tracer = Tracer::enabled(1 << 10);
        let lowered = plan.lower(&base, &tracer);
        assert_eq!(lowered.n_caches, 56);
        assert_eq!(
            lowered.placement,
            CachePlacement::Augmented {
                base: Box::new(CachePlacement::Uniform),
                base_n: 40,
                added: Box::new(CachePlacement::ClientWeighted),
            }
        );
        assert_eq!(lowered.valid_secs, base.valid_secs + 7_200);
        assert_eq!(lowered.fetch_rate_scale, 2.0);
        let actions: Vec<&'static str> = tracer
            .drain()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::DefenseAction { action, .. } => Some(*action),
                _ => None,
            })
            .collect();
        // The detector acts on the campaign, not the tier: lowering
        // leaves no trace of it.
        assert_eq!(actions, vec!["add_caches", "extend_lifetime", "rate_limit"]);
        // Same-placement growth skips the Augmented wrapper; the empty
        // plan is the identity lowering.
        let grown =
            DefensePlan::add_caches(8, CachePlacement::Uniform).lower(&base, &Tracer::disabled());
        assert_eq!(grown.placement, CachePlacement::Uniform);
        assert_eq!(grown.n_caches, 48);
        let identity = DefensePlan::empty().lower(&base, &Tracer::disabled());
        assert_eq!(identity.n_caches, base.n_caches);
        assert_eq!(identity.valid_secs, base.valid_secs);
        assert_eq!(identity.fetch_rate_scale, base.fetch_rate_scale);
    }
}
