//! The metrics registry: integer-only counters, gauges and histograms
//! keyed by `&'static str` names.
//!
//! Design constraints:
//!
//! 1. **Determinism.** Metrics live in `BTreeMap`s, so every iteration,
//!    snapshot and rendering is name-ordered — two identical runs render
//!    identical bytes.
//! 2. **Integers only.** Rates (IPC, hit ratios) are derived at format
//!    time from exact counters, never stored.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A gauge: the last set value plus the high-water mark across all sets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GaugeState {
    /// Most recently set value.
    pub value: u64,
    /// Maximum value ever set.
    pub max: u64,
}

/// A power-of-two-bucketed histogram of `u64` samples.
///
/// Bucket `i` counts samples `v` with `floor(log2(v)) == i - 1`; bucket 0
/// counts zeros. 65 buckets cover the whole `u64` range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramState {
    /// Per-bucket sample counts (`counts[0]` = zeros, `counts[i]` =
    /// samples in `[2^(i-1), 2^i)`).
    pub counts: Vec<u64>,
    /// Total samples recorded.
    pub n: u64,
    /// Sum of all samples (exact; for integer means).
    pub sum: u64,
    /// Largest sample seen.
    pub max: u64,
}

impl Default for HistogramState {
    fn default() -> Self {
        HistogramState { counts: vec![0; 65], n: 0, sum: 0, max: 0 }
    }
}

impl HistogramState {
    fn record(&mut self, v: u64) {
        let bucket = if v == 0 { 0 } else { 64 - v.leading_zeros() as usize };
        self.counts[bucket] += 1;
        self.n += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }
}

/// The registry. See the module docs for the contract.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, GaugeState>,
    histograms: BTreeMap<&'static str, HistogramState>,
}

impl MetricsRegistry {
    /// Adds `n` to the counter `name` (creating it at 0).
    #[inline]
    pub fn counter_add(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Sets the gauge `name` to `v`, tracking its high-water mark.
    #[inline]
    pub fn gauge_set(&mut self, name: &'static str, v: u64) {
        let g = self.gauges.entry(name).or_default();
        g.value = v;
        g.max = g.max.max(v);
    }

    /// Records one sample into the histogram `name`.
    #[inline]
    pub fn histogram_record(&mut self, name: &'static str, v: u64) {
        self.histograms.entry(name).or_default().record(v);
    }

    /// The counter's current value (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The gauge's state, if ever set.
    pub fn gauge(&self, name: &str) -> Option<GaugeState> {
        self.gauges.get(name).copied()
    }

    /// The histogram's state, if ever recorded into.
    pub fn histogram(&self, name: &str) -> Option<&HistogramState> {
        self.histograms.get(name)
    }

    /// All counters, name-ordered.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// All gauges, name-ordered.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, GaugeState)> + '_ {
        self.gauges.iter().map(|(&k, &v)| (k, v))
    }

    /// Renders the whole registry as a deterministic fixed-format table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "counter   {name:<28} {v}");
        }
        for (name, g) in &self.gauges {
            let _ = writeln!(out, "gauge     {name:<28} value={} max={}", g.value, g.max);
        }
        for (name, h) in &self.histograms {
            let mean = h.sum.checked_div(h.n).unwrap_or(0);
            let _ = writeln!(out, "histogram {name:<28} n={} mean={} max={}", h.n, mean, h.max);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_order_by_name() {
        let mut r = MetricsRegistry::default();
        r.counter_add("zeta", 1);
        r.counter_add("alpha", 2);
        r.counter_add("zeta", 3);
        let names: Vec<&str> = r.counters().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
        assert_eq!(r.counter("zeta"), 4);
    }

    #[test]
    fn gauge_tracks_high_water_mark() {
        let mut r = MetricsRegistry::default();
        r.gauge_set("occ", 3);
        r.gauge_set("occ", 9);
        r.gauge_set("occ", 2);
        assert_eq!(r.gauge("occ"), Some(GaugeState { value: 2, max: 9 }));
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let mut r = MetricsRegistry::default();
        for v in [0, 1, 2, 3, 4, 1024] {
            r.histogram_record("lat", v);
        }
        let h = r.histogram("lat").unwrap();
        assert_eq!(h.n, 6);
        assert_eq!(h.max, 1024);
        assert_eq!(h.counts[0], 1); // 0
        assert_eq!(h.counts[1], 1); // 1
        assert_eq!(h.counts[2], 2); // 2,3
        assert_eq!(h.counts[3], 1); // 4
        assert_eq!(h.counts[11], 1); // 1024
    }

    #[test]
    fn render_is_deterministic() {
        let build = || {
            let mut r = MetricsRegistry::default();
            r.counter_add("b", 2);
            r.counter_add("a", 1);
            r.gauge_set("g", 7);
            r.histogram_record("h", 8);
            r.render()
        };
        assert_eq!(build(), build());
        assert!(build().contains("counter   a"));
    }
}
