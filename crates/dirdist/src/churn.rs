//! Hourly relay-churn schedules driving diff sizes.
//!
//! Proposal-140 diff sizes are proportional to how much of the relay
//! set turned over between the base and target consensus. The old
//! pipeline hard-coded a constant 2 %/hour; multi-day horizons deserve
//! better, so a [`ChurnSchedule`] now decides each hour's churn:
//!
//! * [`ChurnSchedule::Constant`] — the old behaviour, any rate;
//! * [`ChurnSchedule::weekly`] — derived from the Fig. 6 weekly relay
//!   series: volatile weeks (the early-2023 dip, the 2024 growth spurt)
//!   churn more of the relay set per hour than placid ones, so diff
//!   sizes breathe with the series over week-long runs.

use partialtor_simnet::RelayPopulation;

/// Hours per week (the Fig. 6 series is weekly).
const HOURS_PER_WEEK: u64 = 168;

/// Baseline hourly churn fraction (the historical constant the
/// distribution layer was calibrated with).
pub const BASE_CHURN_PER_HOUR: f64 = 0.02;

/// Decides what fraction of the relay set churns in each simulated
/// hour.
#[derive(Clone, Debug)]
pub enum ChurnSchedule {
    /// The same fraction every hour.
    Constant(f64),
    /// A per-week series of hourly churn rates; hour `h` uses week
    /// `(h / 168) % len`, so horizons longer than the series wrap
    /// around.
    Weekly(Vec<f64>),
}

impl Default for ChurnSchedule {
    fn default() -> Self {
        ChurnSchedule::Constant(BASE_CHURN_PER_HOUR)
    }
}

impl ChurnSchedule {
    /// The Fig. 6-driven schedule: each week's hourly churn is the
    /// baseline rate scaled by that week's relative population change
    /// against the series' mean change, clamped to `[0.5×, 3×]` of the
    /// baseline so a flat week still churns (relays also restart and
    /// change keys without the headcount moving) and an extreme week
    /// cannot churn more than the whole set.
    pub fn weekly() -> Self {
        let series = RelayPopulation::paper_series();
        let samples = series.samples();
        let changes: Vec<f64> = samples
            .windows(2)
            .map(|pair| ((pair[1].count - pair[0].count) / pair[0].count).abs())
            .collect();
        let mean_change =
            (changes.iter().sum::<f64>() / changes.len().max(1) as f64).max(f64::MIN_POSITIVE);
        let rates = std::iter::once(BASE_CHURN_PER_HOUR)
            .chain(changes.iter().map(|&change| {
                (BASE_CHURN_PER_HOUR * change / mean_change)
                    .clamp(0.5 * BASE_CHURN_PER_HOUR, 3.0 * BASE_CHURN_PER_HOUR)
            }))
            .collect();
        ChurnSchedule::Weekly(rates)
    }

    /// The churn fraction for simulated hour `hour`.
    pub fn churn_at(&self, hour: u64) -> f64 {
        match self {
            ChurnSchedule::Constant(rate) => *rate,
            ChurnSchedule::Weekly(rates) => {
                if rates.is_empty() {
                    return BASE_CHURN_PER_HOUR;
                }
                rates[(hour / HOURS_PER_WEEK) as usize % rates.len()]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_flat() {
        let schedule = ChurnSchedule::Constant(0.03);
        assert_eq!(schedule.churn_at(0), 0.03);
        assert_eq!(schedule.churn_at(500), 0.03);
    }

    #[test]
    fn weekly_varies_but_stays_bounded() {
        let schedule = ChurnSchedule::weekly();
        let ChurnSchedule::Weekly(rates) = &schedule else {
            panic!("weekly() must build a weekly schedule");
        };
        assert_eq!(rates.len(), 113, "one rate per Fig. 6 sample");
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for &rate in rates {
            min = min.min(rate);
            max = max.max(rate);
        }
        assert!(min >= 0.5 * BASE_CHURN_PER_HOUR - 1e-12);
        assert!(max <= 3.0 * BASE_CHURN_PER_HOUR + 1e-12);
        assert!(max > min, "the series must actually vary");
        // Hours map onto weeks and wrap past the series end.
        assert_eq!(schedule.churn_at(0), rates[0]);
        assert_eq!(schedule.churn_at(168), rates[1]);
        assert_eq!(schedule.churn_at(113 * 168), rates[0]);
    }

    #[test]
    fn weekly_is_deterministic() {
        let a = ChurnSchedule::weekly();
        let b = ChurnSchedule::weekly();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
