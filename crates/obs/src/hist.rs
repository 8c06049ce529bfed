//! A small self-contained value histogram.
//!
//! Tracks exact count/sum/min/max and keeps the first
//! [`SAMPLE_CAP`](Histogram::SAMPLE_CAP) observations verbatim for quantile
//! estimation — the runs this crate instruments (per-phase spans, per-arrival
//! latencies) produce at most a few thousand observations, so the common case
//! is exact; beyond the cap the quantiles degrade gracefully to estimates
//! over the retained prefix while count/sum/min/max stay exact.

/// A value histogram with exact moments and prefix-sampled quantiles.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    samples: Vec<f64>,
}

/// Point-in-time summary of a [`Histogram`], as it appears in run reports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistogramSummary {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: f64,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Smallest recorded value (0 when empty).
    pub min: f64,
    /// Largest recorded value (0 when empty).
    pub max: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Histogram {
    /// Number of raw observations retained for quantile estimation.
    pub const SAMPLE_CAP: usize = 4096;

    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one value. Non-finite values are dropped (they would poison
    /// every aggregate); callers observing ratios guard the denominator.
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
        if self.samples.len() < Self::SAMPLE_CAP {
            self.samples.push(value);
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) over the retained samples, by the
    /// nearest-rank method. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = (q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }

    /// Snapshot of all aggregates.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            mean: self.mean(),
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_summarizes_to_zeros() {
        let s = Histogram::new().summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 0.0);
        assert_eq!(s.p50, 0.0);
    }

    #[test]
    fn moments_are_exact() {
        let mut h = Histogram::new();
        for v in [3.0, 1.0, 2.0] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 6.0);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.p50, 2.0);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.record(v as f64);
        }
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(1.0), 100.0);
        assert!((h.quantile(0.5) - 50.0).abs() <= 1.0);
        assert!((h.quantile(0.9) - 90.0).abs() <= 1.0);
    }

    #[test]
    fn non_finite_values_are_dropped() {
        let mut h = Histogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(2.0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 2.0);
    }

    #[test]
    fn single_sample_histogram_is_degenerate_everywhere() {
        let mut h = Histogram::new();
        h.record(7.5);
        let s = h.summary();
        assert_eq!(s.count, 1);
        assert_eq!(s.min, 7.5);
        assert_eq!(s.max, 7.5);
        assert_eq!(s.mean, 7.5);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 7.5);
        }
    }

    #[test]
    fn sample_cap_keeps_moments_exact() {
        let mut h = Histogram::new();
        for i in 0..(Histogram::SAMPLE_CAP + 10) {
            h.record(i as f64);
        }
        assert_eq!(h.count(), (Histogram::SAMPLE_CAP + 10) as u64);
        let s = h.summary();
        assert_eq!(s.max, (Histogram::SAMPLE_CAP + 9) as f64);
        // Quantiles come from the retained prefix — still in range.
        assert!(s.p50 >= 0.0 && s.p50 <= s.max);
    }
}
