//! The typed adversary model: one attack vocabulary for every layer.
//!
//! A single [`AttackPlan`] — a normalized set of [`AttackWindow`]s over
//! typed [`Target`]s, authorities *and* caches — describes a whole
//! campaign on the day's clock. Each consumer lowers the same plan onto
//! its own machinery:
//!
//! * [`AttackPlan::run_slice`] extracts the authority windows of one
//!   hourly protocol run, rebased to the run's local clock, for
//!   [`crate::runner::Scenario`];
//! * [`AttackPlan::dist_windows`] lowers every window (authorities *and*
//!   caches) onto the distribution tier's mechanism-level
//!   [`LinkWindow`]s;
//! * [`AttackPlan::cost`] prices the campaign with the §4.3 stressor
//!   arithmetic at [`USD_PER_MBIT_HOUR`].
//!
//! Plans are normalized on construction: windows on the same target that
//! overlap or touch are coalesced (the flood during an overlap is the
//! maximum of the overlapping rates — an adversary does not pay twice to
//! flood one victim), zero-length and zero-rate windows are dropped, and
//! the result is sorted by start time then target. Cost is therefore
//! invariant under splitting or duplicating windows.

use crate::calibration::{
    flooded_residual_bps, ATTACK_FLOOD_MBPS, AUTHORITY_LINK_BPS, CACHE_LINK_BPS, N_AUTHORITIES,
    OFFLINE_FLOOD_MBPS, USD_PER_MBIT_HOUR,
};
use partialtor_dirdist::{LinkWindow, TierNode};
use partialtor_simnet::{Node, NodeId, SimDuration, SimTime, Simulation};

/// What a flood window is aimed at.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Target {
    /// Directory authority `0..n`.
    Authority(usize),
    /// Directory cache `0..n_caches` of the distribution tier.
    Cache(usize),
}

impl std::fmt::Display for Target {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Target::Authority(i) => write!(f, "auth{i}"),
            Target::Cache(i) => write!(f, "cache{i}"),
        }
    }
}

/// One bandwidth-exhaustion flood against one [`Target`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AttackWindow {
    /// The victim.
    pub target: Target,
    /// Window start (absolute on whatever clock the plan lives on).
    pub start: SimTime,
    /// Window length.
    pub duration: SimDuration,
    /// Attack traffic aimed at the victim, Mbit/s — the quantity the
    /// stressor service bills for. The victim's residual bandwidth is
    /// derived against its link rate via
    /// [`flooded_residual_bps`].
    pub flood_mbps: f64,
}

impl AttackWindow {
    /// A window flooding `target` at `flood_mbps`.
    pub fn new(target: Target, start: SimTime, duration: SimDuration, flood_mbps: f64) -> Self {
        AttackWindow {
            target,
            start,
            duration,
            flood_mbps,
        }
    }

    /// A window that knocks `target` fully offline
    /// ([`OFFLINE_FLOOD_MBPS`] exceeds every modeled link rate).
    pub fn offline(target: Target, start: SimTime, duration: SimDuration) -> Self {
        AttackWindow::new(target, start, duration, OFFLINE_FLOOD_MBPS)
    }

    /// End of the window.
    pub fn end(&self) -> SimTime {
        self.start + self.duration
    }

    /// What the stressor service charges for this window, dollars.
    pub fn cost(&self) -> f64 {
        USD_PER_MBIT_HOUR * self.flood_mbps * self.duration.as_secs_f64() / 3_600.0
    }
}

/// A validated, normalized attack campaign: the one shape every layer
/// consumes. See the [module docs](self) for the normalization rules.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AttackPlan {
    windows: Vec<AttackWindow>,
}

impl AttackPlan {
    /// The plan with no windows.
    pub fn empty() -> Self {
        AttackPlan::default()
    }

    /// Builds a plan from arbitrary windows, normalizing them.
    pub fn new(windows: Vec<AttackWindow>) -> Self {
        AttackPlan {
            windows: normalize(windows),
        }
    }

    /// The normalized windows, sorted by `(start, target)`; windows on
    /// one target never overlap.
    pub fn windows(&self) -> &[AttackWindow] {
        &self.windows
    }

    /// Whether the plan attacks anything at all.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The paper's headline campaign for one protocol run: authorities
    /// 0–4 flooded at [`ATTACK_FLOOD_MBPS`] for the first five minutes.
    pub fn five_of_nine() -> Self {
        AttackPlan::new(
            (0..crate::calibration::majority(N_AUTHORITIES))
                .map(|i| {
                    AttackWindow::new(
                        Target::Authority(i),
                        SimTime::ZERO,
                        SimDuration::from_secs(300),
                        ATTACK_FLOOD_MBPS,
                    )
                })
                .collect(),
        )
    }

    /// The sustained form of this plan: a copy of every window at each
    /// hour `1..=hours` of the day's clock (the §2.1 timeline the
    /// availability and clients experiments share).
    pub fn sustained_hourly(&self, hours: u64) -> Self {
        AttackPlan::new(
            (1..=hours)
                .flat_map(|hour| self.shifted(hour * 3_600).windows.clone())
                .collect(),
        )
    }

    /// A rotating campaign: window `k` (of `cycles`) floods
    /// `targets[k % targets.len()]` at `flood_mbps` for `duration`,
    /// starting at `k * period`.
    pub fn rotate(
        targets: &[Target],
        period: SimDuration,
        duration: SimDuration,
        flood_mbps: f64,
        cycles: u64,
    ) -> Self {
        AttackPlan::new(
            (0..cycles)
                .filter_map(|k| {
                    targets.get(k as usize % targets.len().max(1)).map(|&t| {
                        AttackWindow::new(
                            t,
                            SimTime::ZERO + period.saturating_mul(k),
                            duration,
                            flood_mbps,
                        )
                    })
                })
                .collect(),
        )
    }

    /// This plan with every window delayed by `offset_secs`.
    pub fn shifted(&self, offset_secs: u64) -> Self {
        let offset = SimDuration::from_secs(offset_secs);
        AttackPlan {
            windows: self
                .windows
                .iter()
                .map(|w| AttackWindow {
                    start: w.start + offset,
                    ..*w
                })
                .collect(),
        }
    }

    /// The union of two plans (overlaps re-normalized).
    pub fn union(&self, other: &AttackPlan) -> Self {
        let mut windows = self.windows.clone();
        windows.extend_from_slice(&other.windows);
        AttackPlan::new(windows)
    }

    /// End of the last window, seconds (0 for an empty plan).
    pub fn end_secs(&self) -> f64 {
        self.windows
            .iter()
            .map(|w| w.end().as_secs_f64())
            .fold(0.0, f64::max)
    }

    /// Campaign price, dollars: the sum of its windows' prices.
    pub fn cost(&self) -> f64 {
        // Folded from +0.0 because `Sum for f64` starts at -0.0, which
        // would leak a "-0.00" into every empty-plan cost display.
        self.windows.iter().fold(0.0, |acc, w| acc + w.cost())
    }

    /// Hours the plan's pattern occupies (minimum 1): from the hour of
    /// the first window start to the hour containing the last window
    /// end. Robust against normalization merging touching hourly
    /// windows into one long one — a merged 24-hour flood still spans
    /// 24 hours.
    pub fn span_hours(&self) -> u64 {
        const HOUR_US: u64 = 3_600_000_000;
        let first = self
            .windows
            .iter()
            .map(|w| w.start.as_micros())
            .min()
            .unwrap_or(0);
        let last = self
            .windows
            .iter()
            .map(|w| w.end().as_micros())
            .max()
            .unwrap_or(0);
        (last.div_ceil(HOUR_US).saturating_sub(first / HOUR_US)).max(1)
    }

    /// Price of sustaining this plan's pattern for a 30-day month,
    /// dollars: `cost() / span_hours() × 720` — the pattern is assumed
    /// to repeat back to back. Quiet hours *inside* the span (e.g. a
    /// rotation with a long period) are part of the pattern and charged
    /// nothing, exactly as in the plan itself.
    pub fn cost_per_month(&self) -> f64 {
        self.cost() / self.span_hours() as f64 * 720.0
    }

    /// The authority windows of one protocol run: windows over
    /// `[run_start_secs, run_start_secs + run_len_secs)` intersected
    /// with the run and rebased to its local clock. Cache windows never
    /// appear — the protocol simulation has no cache nodes.
    pub fn run_slice(&self, run_start_secs: u64, run_len_secs: u64) -> Self {
        let lo = SimTime::from_secs(run_start_secs);
        let hi = SimTime::from_secs(run_start_secs + run_len_secs);
        AttackPlan {
            windows: self
                .windows
                .iter()
                .filter(|w| matches!(w.target, Target::Authority(_)))
                .filter_map(|w| {
                    let start = w.start.max(lo);
                    let end = w.end().min(hi);
                    (end > start).then(|| AttackWindow {
                        target: w.target,
                        start: SimTime::ZERO + start.since(lo),
                        duration: end.since(start),
                        flood_mbps: w.flood_mbps,
                    })
                })
                .collect(),
        }
    }

    /// Lowers the whole plan onto the distribution tier: every window
    /// becomes a capacity override on its victim's link
    /// ([`AUTHORITY_LINK_BPS`] or [`CACHE_LINK_BPS`]), the
    /// during-window bandwidth derived from the flood rate via
    /// [`flooded_residual_bps`].
    pub fn dist_windows(&self) -> Vec<LinkWindow> {
        self.windows
            .iter()
            .map(|w| {
                let (node, link_bps) = match w.target {
                    Target::Authority(i) => (TierNode::Authority(i), AUTHORITY_LINK_BPS),
                    Target::Cache(i) => (TierNode::Cache(i), CACHE_LINK_BPS),
                };
                LinkWindow {
                    node,
                    start_secs: w.start.as_secs_f64(),
                    duration_secs: w.duration.as_secs_f64(),
                    bps: flooded_residual_bps(link_bps, w.flood_mbps * 1e6),
                }
            })
            .collect()
    }

    /// Applies the authority windows to a protocol simulation of `n`
    /// authorities: each victim's bandwidth drops to
    /// `during(index, window)` for the window and returns to
    /// `after(index)` at its end. Windows on one target never overlap
    /// (normalization), so set/restore pairs compose.
    pub fn schedule<N: Node>(
        &self,
        sim: &mut Simulation<N>,
        n: usize,
        during: impl Fn(usize, &AttackWindow) -> f64,
        after: impl Fn(usize) -> f64,
    ) {
        for window in &self.windows {
            let Target::Authority(index) = window.target else {
                continue;
            };
            if index >= n {
                continue;
            }
            let throttled = during(index, window);
            sim.schedule_bandwidth_change(
                window.start,
                NodeId(index),
                Some(throttled),
                Some(throttled),
            );
            let restored = after(index);
            sim.schedule_bandwidth_change(
                window.end(),
                NodeId(index),
                Some(restored),
                Some(restored),
            );
        }
    }
}

/// Coalesces windows per target: boundary sweep, max flood over the
/// covering windows of each elementary interval, adjacent equal-rate
/// runs merged.
fn normalize(windows: Vec<AttackWindow>) -> Vec<AttackWindow> {
    use std::collections::BTreeMap;
    let mut by_target: BTreeMap<Target, Vec<(u64, u64, f64)>> = BTreeMap::new();
    for w in windows {
        if w.duration == SimDuration::ZERO || w.flood_mbps <= 0.0 {
            continue;
        }
        by_target.entry(w.target).or_default().push((
            w.start.as_micros(),
            w.end().as_micros(),
            w.flood_mbps,
        ));
    }

    let mut out = Vec::new();
    for (target, spans) in by_target {
        let mut bounds: Vec<u64> = spans.iter().flat_map(|&(s, e, _)| [s, e]).collect();
        bounds.sort_unstable();
        bounds.dedup();
        let mut runs: Vec<(u64, u64, f64)> = Vec::new();
        for pair in bounds.windows(2) {
            let (lo, hi) = (pair[0], pair[1]);
            let flood = spans
                .iter()
                .filter(|&&(s, e, _)| s <= lo && e >= hi)
                .map(|&(_, _, f)| f)
                .fold(0.0, f64::max);
            if flood <= 0.0 {
                continue;
            }
            match runs.last_mut() {
                Some(last) if last.1 == lo && last.2 == flood => last.1 = hi,
                _ => runs.push((lo, hi, flood)),
            }
        }
        out.extend(runs.into_iter().map(|(lo, hi, flood)| AttackWindow {
            target,
            start: SimTime::from_micros(lo),
            duration: SimDuration::from_micros(hi - lo),
            flood_mbps: flood,
        }));
    }
    out.sort_by_key(|w| (w.start, w.target));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(target: Target, start_s: u64, dur_s: u64, flood: f64) -> AttackWindow {
        AttackWindow::new(
            target,
            SimTime::from_secs(start_s),
            SimDuration::from_secs(dur_s),
            flood,
        )
    }

    #[test]
    fn five_of_nine_matches_the_paper_price() {
        let plan = AttackPlan::five_of_nine();
        assert_eq!(plan.windows().len(), 5);
        assert_eq!(plan.end_secs(), 300.0);
        // §4.3: $0.074 per breached run, $53.28 per month.
        assert!((plan.cost() - 0.074).abs() < 1e-9);
        assert!((plan.cost_per_month() - 53.28).abs() < 1e-6);
        // The sustained day costs the same per month — the pattern is
        // identical, only the clock differs.
        let day = plan.sustained_hourly(24);
        assert_eq!(day.span_hours(), 24);
        assert!((day.cost_per_month() - 53.28).abs() < 1e-6);
    }

    #[test]
    fn paper_cost_figures() {
        let plan = AttackPlan::five_of_nine();
        // §4.3: "approximately $0.074" per run …
        assert!((plan.cost() - 0.074).abs() < 1e-9);
        // … and "$53.28/month".
        assert!((plan.cost_per_month() - 53.28).abs() < 1e-6);
    }

    #[test]
    fn cost_scales_linearly_in_targets_and_rate() {
        let plan = |targets: usize, flood: f64| {
            AttackPlan::new(
                (0..targets)
                    .map(|i| window(Target::Authority(i), 0, 300, flood))
                    .collect(),
            )
        };
        let base = plan(5, ATTACK_FLOOD_MBPS);
        assert_eq!(base, AttackPlan::five_of_nine());
        assert!((plan(10, ATTACK_FLOOD_MBPS).cost() - 2.0 * base.cost()).abs() < 1e-12);
        assert!((plan(5, 120.0).cost() - base.cost() / 2.0).abs() < 1e-12);
    }

    #[test]
    fn monthly_price_survives_hour_boundary_merging() {
        // Full-hour windows repeated hourly coalesce into one long
        // window; the monthly extrapolation must still charge the
        // pattern once per hour, not once per merged window.
        let hourly = AttackPlan::new(vec![window(Target::Authority(0), 0, 3_600, 240.0)]);
        let day = hourly.sustained_hourly(24);
        assert_eq!(day.windows().len(), 1, "touching windows merge");
        assert_eq!(day.span_hours(), 24);
        let per_hour = 0.00074 * 240.0;
        assert!((day.cost_per_month() - per_hour * 720.0).abs() < 1e-6);
        // A rotation with quiet hours inside its span charges only the
        // flooded fraction.
        let rotation = AttackPlan::rotate(
            &[Target::Authority(0), Target::Authority(1)],
            SimDuration::from_secs(7_200),
            SimDuration::from_secs(300),
            240.0,
            4,
        );
        // Windows at 0 h, 2 h, 4 h and 6 h; the last ends inside hour 7.
        assert_eq!(rotation.span_hours(), 7);
        let window_cost = 0.00074 * 240.0 * 300.0 / 3_600.0;
        assert!((rotation.cost_per_month() - 4.0 * window_cost / 7.0 * 720.0).abs() < 1e-6);
    }

    #[test]
    fn overlapping_windows_coalesce_without_double_billing() {
        let target = Target::Authority(3);
        let split = AttackPlan::new(vec![
            window(target, 0, 100, 240.0),
            window(target, 100, 200, 240.0),
        ]);
        let whole = AttackPlan::new(vec![window(target, 0, 300, 240.0)]);
        assert_eq!(split, whole, "touching equal-rate windows merge");
        let duplicated = AttackPlan::new(vec![
            window(target, 0, 300, 240.0),
            window(target, 50, 100, 240.0),
        ]);
        assert_eq!(duplicated, whole, "covered windows vanish");
        assert!((duplicated.cost() - whole.cost()).abs() < 1e-12);
        // Overlap at different rates keeps the stronger flood.
        let mixed = AttackPlan::new(vec![
            window(target, 0, 300, 100.0),
            window(target, 100, 100, 240.0),
        ]);
        let floods: Vec<f64> = mixed.windows().iter().map(|w| w.flood_mbps).collect();
        assert_eq!(floods, vec![100.0, 240.0, 100.0]);
    }

    #[test]
    fn run_slice_extracts_and_rebases_authority_windows() {
        let day = AttackPlan::five_of_nine()
            .sustained_hourly(3)
            .union(&AttackPlan::new(vec![window(
                Target::Cache(2),
                2 * 3_600 + 300,
                900,
                100.0,
            )]));
        let slice = day.run_slice(2 * 3_600, 3_600);
        assert_eq!(slice.windows().len(), 5, "cache windows stay out");
        for w in slice.windows() {
            assert_eq!(w.start, SimTime::ZERO, "rebased to the run clock");
            assert_eq!(w.duration, SimDuration::from_secs(300));
        }
        assert!(day.run_slice(10 * 3_600, 3_600).is_empty());
        // A window straddling the slice boundary is clipped.
        let straddle = AttackPlan::new(vec![window(Target::Authority(0), 3_000, 1_200, 240.0)]);
        let clipped = straddle.run_slice(3_600, 3_600);
        assert_eq!(clipped.windows()[0].start, SimTime::ZERO);
        assert_eq!(clipped.windows()[0].duration, SimDuration::from_secs(600));
    }

    /// The tier owns the link rates, so the default lowering computes
    /// residuals against the capacities the tier actually has.
    #[test]
    fn default_lowering_matches_the_tier_defaults() {
        let plan = AttackPlan::new(vec![window(Target::Cache(0), 0, 300, 100.0)]);
        assert_eq!(plan.dist_windows()[0].bps, 0.0);
    }

    #[test]
    fn dist_lowering_covers_both_target_kinds() {
        let plan = AttackPlan::new(vec![
            window(Target::Authority(1), 0, 300, ATTACK_FLOOD_MBPS),
            window(Target::Cache(4), 300, 900, 100.0),
            AttackWindow::offline(
                Target::Authority(2),
                SimTime::ZERO,
                SimDuration::from_secs(60),
            ),
        ]);
        let lowered = plan.dist_windows();
        assert_eq!(lowered.len(), 3);
        let auth = lowered
            .iter()
            .find(|w| w.node == TierNode::Authority(1))
            .unwrap();
        assert_eq!(auth.bps, 0.5e6, "paper flood leaves the Jansen residual");
        let offline = lowered
            .iter()
            .find(|w| w.node == TierNode::Authority(2))
            .unwrap();
        assert_eq!(offline.bps, 0.0);
        let cache = lowered
            .iter()
            .find(|w| w.node == TierNode::Cache(4))
            .unwrap();
        assert_eq!(cache.bps, 0.0, "a 100 Mbit/s flood kills a cache link");
        assert_eq!(cache.start_secs, 300.0);
        assert_eq!(cache.duration_secs, 900.0);
    }

    #[test]
    fn rotation_cycles_through_targets() {
        let targets = [Target::Authority(0), Target::Authority(1), Target::Cache(0)];
        let plan = AttackPlan::rotate(
            &targets,
            SimDuration::from_secs(3_600),
            SimDuration::from_secs(300),
            240.0,
            4,
        );
        assert_eq!(plan.windows().len(), 4);
        let victims: Vec<Target> = plan.windows().iter().map(|w| w.target).collect();
        assert_eq!(
            victims,
            vec![
                Target::Authority(0),
                Target::Authority(1),
                Target::Cache(0),
                Target::Authority(0)
            ]
        );
        assert_eq!(plan.span_hours(), 4);
    }
}
