//! Counters, gauges and fixed-bucket latency histograms.
//!
//! A [`Registry`] is a cloneable handle to one shared table of named
//! instruments. Names are free-form dotted strings (`"cache.retries"`);
//! the table is ordered, so snapshots render deterministically.
//!
//! [`Histogram`]s use fixed logarithmic buckets (1 ms doubling up to
//! ~4 194 s, plus overflow), accumulate their sum in integer
//! nanoseconds, and therefore merge *exactly* associatively and
//! commutatively — a property the proptests below pin.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Number of finite histogram buckets. Bucket `i` covers
/// `(upper(i-1), upper(i)]` seconds with `upper(i) = 0.001 · 2^i`;
/// values above the last edge land in the overflow bucket.
pub const HIST_BUCKETS: usize = 23;

/// Upper edge of finite bucket `i`, in seconds.
fn bucket_upper(i: usize) -> f64 {
    0.001 * (1u64 << i) as f64
}

/// A mergeable fixed-bucket latency histogram.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    overflow: u64,
    count: u64,
    sum_nanos: u128,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            overflow: 0,
            count: 0,
            sum_nanos: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation of `secs` seconds (negative values clamp
    /// to zero).
    pub fn observe(&mut self, secs: f64) {
        let secs = if secs.is_finite() { secs.max(0.0) } else { 0.0 };
        match (0..HIST_BUCKETS).find(|&i| secs <= bucket_upper(i)) {
            Some(i) => self.buckets[i] += 1,
            None => self.overflow += 1,
        }
        self.count += 1;
        self.sum_nanos += (secs * 1e9).round() as u128;
        self.min = self.min.min(secs);
        self.max = self.max.max(secs);
    }

    /// Merges `other` into `self`. Exactly associative and commutative:
    /// bucket counts and nanosecond sums add, min/max combine.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum_nanos += other.sum_nanos;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations, seconds.
    pub fn sum_secs(&self) -> f64 {
        self.sum_nanos as f64 / 1e9
    }

    /// Mean observation, seconds.
    pub fn mean_secs(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum_secs() / self.count as f64)
    }

    /// Smallest observation, seconds.
    pub fn min_secs(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, seconds.
    pub fn max_secs(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// The `p`-quantile (`0.0..=1.0`), seconds.
    ///
    /// Deterministic bucket interpolation: the result is the upper edge
    /// of the bucket holding the rank-`⌈p·n⌉` observation, clamped into
    /// `[min, max]` so percentiles never leave the observed range.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let p = p.clamp(0.0, 1.0);
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(bucket_upper(i).clamp(self.min, self.max));
            }
        }
        // Rank lands in the overflow bucket: only max bounds it.
        Some(self.max)
    }

    /// Median (p50), seconds.
    pub fn p50(&self) -> Option<f64> {
        self.percentile(0.50)
    }

    /// 90th percentile, seconds.
    pub fn p90(&self) -> Option<f64> {
        self.percentile(0.90)
    }

    /// 99th percentile, seconds.
    pub fn p99(&self) -> Option<f64> {
        self.percentile(0.99)
    }

    /// 99.9th percentile, seconds.
    pub fn p999(&self) -> Option<f64> {
        self.percentile(0.999)
    }

    /// Non-empty buckets as `(upper_edge_secs, count)` pairs; the
    /// overflow bucket reports an infinite edge.
    pub fn nonzero_buckets(&self) -> Vec<(f64, u64)> {
        let mut out: Vec<(f64, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (bucket_upper(i), n))
            .collect();
        if self.overflow > 0 {
            out.push((f64::INFINITY, self.overflow));
        }
        out
    }
}

/// Applies `apply` to the named instrument, creating it at its default
/// first. The name is looked up by `&str` and copied into the table only
/// when the instrument is new.
fn with_instrument<T: Default>(
    table: &mut BTreeMap<String, T>,
    name: &str,
    apply: impl FnOnce(&mut T),
) {
    match table.get_mut(name) {
        Some(instrument) => apply(instrument),
        None => apply(table.entry(name.to_string()).or_default()),
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// An ordered, point-in-time copy of a registry's instruments.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Last-set gauges by name.
    pub gauges: BTreeMap<String, f64>,
    /// Latency histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
}

/// Cloneable handle to a shared table of counters, gauges and
/// histograms.
///
/// Every clone feeds the same table, so one registry can be threaded
/// through a cache tier, a fleet and a session and read back in one
/// [`Registry::snapshot`].
#[derive(Clone, Debug, Default)]
pub struct Registry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds `by` to the named counter (creating it at zero).
    pub fn inc(&self, name: &str, by: u64) {
        let mut inner = self.inner.lock().expect("metrics registry");
        with_instrument(&mut inner.counters, name, |counter| *counter += by);
    }

    /// Reads a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        let inner = self.inner.lock().expect("metrics registry");
        inner.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the named gauge to `value`.
    pub fn set_gauge(&self, name: &str, value: f64) {
        let mut inner = self.inner.lock().expect("metrics registry");
        with_instrument(&mut inner.gauges, name, |gauge| *gauge = value);
    }

    /// Records `secs` into the named histogram (creating it empty).
    pub fn observe(&self, name: &str, secs: f64) {
        let mut inner = self.inner.lock().expect("metrics registry");
        with_instrument(&mut inner.histograms, name, |histogram| {
            histogram.observe(secs)
        });
    }

    /// Merges a locally-accumulated histogram into the named one
    /// (creating it empty first). Lets worker threads batch
    /// observations lock-free and publish them in one exact merge.
    pub fn merge_histogram(&self, name: &str, other: &Histogram) {
        let mut inner = self.inner.lock().expect("metrics registry");
        with_instrument(&mut inner.histograms, name, |histogram| {
            histogram.merge(other)
        });
    }

    /// Reads a histogram copy (empty when absent).
    pub fn histogram(&self, name: &str) -> Histogram {
        let inner = self.inner.lock().expect("metrics registry");
        inner.histograms.get(name).cloned().unwrap_or_default()
    }

    /// Copies every instrument out in name order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("metrics registry");
        MetricsSnapshot {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            histograms: inner.histograms.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn registry_clones_share_instruments() {
        let registry = Registry::new();
        let clone = registry.clone();
        clone.inc("fetches", 2);
        registry.inc("fetches", 1);
        clone.set_gauge("stale_fraction", 0.25);
        clone.observe("latency", 0.080);
        assert_eq!(registry.counter("fetches"), 3);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["fetches"], 3);
        assert_eq!(snap.gauges["stale_fraction"], 0.25);
        assert_eq!(snap.histograms["latency"].count(), 1);
    }

    #[test]
    fn histogram_basic_percentiles() {
        let mut h = Histogram::new();
        for ms in [10.0, 20.0, 30.0, 40.0, 1_000.0] {
            h.observe(ms / 1_000.0);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min_secs(), Some(0.010));
        assert_eq!(h.max_secs(), Some(1.0));
        let p50 = h.p50().unwrap();
        assert!((0.010..=1.0).contains(&p50), "p50 = {p50}");
        assert_eq!(h.p99(), Some(1.0), "p99 hits the top observation");
        assert!((h.mean_secs().unwrap() - 0.220).abs() < 1e-9);
    }

    #[test]
    fn registry_merges_local_histograms_exactly() {
        let registry = Registry::new();
        let mut local = Histogram::new();
        for ms in [5.0, 15.0, 2_000.0] {
            local.observe(ms / 1_000.0);
        }
        registry.observe("latency", 0.040);
        registry.merge_histogram("latency", &local);
        let merged = registry.histogram("latency");
        assert_eq!(merged.count(), 4);
        assert_eq!(merged.max_secs(), Some(2.0));
        assert_eq!(merged.p999(), Some(2.0), "p99.9 hits the top observation");
    }

    #[test]
    fn empty_histogram_has_no_statistics() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), None);
        assert_eq!(h.min_secs(), None);
        assert_eq!(h.mean_secs(), None);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn overflow_bucket_catches_huge_values() {
        let mut h = Histogram::new();
        h.observe(1.0e6);
        assert_eq!(h.count(), 1);
        assert_eq!(h.p50(), Some(1.0e6), "overflow percentile is the max");
        let buckets = h.nonzero_buckets();
        assert_eq!(buckets.len(), 1);
        assert!(buckets[0].0.is_infinite());
    }

    fn observations() -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec(0.0f64..5_000.0, 0..64)
    }

    proptest! {
        #[test]
        fn merge_is_commutative(a in observations(), b in observations()) {
            let mut ha = Histogram::new();
            let mut hb = Histogram::new();
            for &v in &a { ha.observe(v); }
            for &v in &b { hb.observe(v); }
            let mut ab = ha.clone();
            ab.merge(&hb);
            let mut ba = hb.clone();
            ba.merge(&ha);
            prop_assert_eq!(ab, ba);
        }

        #[test]
        fn merge_is_associative(
            a in observations(),
            b in observations(),
            c in observations(),
        ) {
            let mut ha = Histogram::new();
            let mut hb = Histogram::new();
            let mut hc = Histogram::new();
            for &v in &a { ha.observe(v); }
            for &v in &b { hb.observe(v); }
            for &v in &c { hc.observe(v); }
            // (a ⊔ b) ⊔ c
            let mut left = ha.clone();
            left.merge(&hb);
            left.merge(&hc);
            // a ⊔ (b ⊔ c)
            let mut bc = hb.clone();
            bc.merge(&hc);
            let mut right = ha.clone();
            right.merge(&bc);
            prop_assert_eq!(left, right);
        }

        #[test]
        fn percentiles_bounded_by_min_max(values in observations(), p in 0.0f64..=1.0) {
            let mut h = Histogram::new();
            for &v in &values { h.observe(v); }
            match h.percentile(p) {
                None => prop_assert!(values.is_empty()),
                Some(q) => {
                    let min = h.min_secs().unwrap();
                    let max = h.max_secs().unwrap();
                    prop_assert!(
                        (min..=max).contains(&q),
                        "percentile {} = {} outside [{}, {}]", p, q, min, max
                    );
                }
            }
        }

        #[test]
        fn merged_count_and_sum_add(a in observations(), b in observations()) {
            let mut ha = Histogram::new();
            let mut hb = Histogram::new();
            for &v in &a { ha.observe(v); }
            for &v in &b { hb.observe(v); }
            let mut merged = ha.clone();
            merged.merge(&hb);
            prop_assert_eq!(merged.count(), ha.count() + hb.count());
            prop_assert!(
                (merged.sum_secs() - (ha.sum_secs() + hb.sum_secs())).abs() < 1e-6
            );
        }
    }
}
