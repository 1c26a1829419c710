//! Measurement instrumentation: counters, histograms, series.
//!
//! Every number the experiment harness reports flows through one of these
//! types, so the collection semantics (what counts, over which window) are
//! uniform across figures.

use crate::time::SimDuration;

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(pub u64);

impl Counter {
    /// Increment by one.
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Increment by `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// A latency histogram with power-of-two nanosecond buckets.
///
/// Bucket `i` holds samples in `[2^i, 2^(i+1))` nanoseconds; bucket 0 also
/// absorbs sub-nanosecond samples.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum_ps: u128,
    min: SimDuration,
    max: SimDuration,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [0; 64],
            count: 0,
            sum_ps: 0,
            min: SimDuration(u64::MAX),
            max: SimDuration::ZERO,
        }
    }

    fn bucket_of(d: SimDuration) -> usize {
        let ns = d.as_ps() / 1000;
        if ns <= 1 {
            0
        } else {
            (63 - ns.leading_zeros()) as usize
        }
    }

    /// Record one sample.
    pub fn record(&mut self, d: SimDuration) {
        self.buckets[Self::bucket_of(d)] += 1;
        self.count += 1;
        self.sum_ps += d.as_ps() as u128;
        self.min = self.min.min(d);
        self.max = self.max.max(d);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or zero with no samples.
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration((self.sum_ps / self.count as u128) as u64)
        }
    }

    /// Smallest sample, or zero with no samples.
    pub fn min(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            self.min
        }
    }

    /// Largest sample.
    pub fn max(&self) -> SimDuration {
        self.max
    }

    /// Approximate quantile (upper bound of the bucket containing it).
    ///
    /// `q` in `[0, 1]`. Resolution is a factor of two, which is enough for
    /// the order-of-magnitude comparisons in the paper.
    pub fn quantile(&self, q: f64) -> SimDuration {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return SimDuration::from_ns(1u64 << (i + 1));
            }
        }
        self.max
    }
}

/// Mean and sample standard deviation of a series of f64 observations,
/// matching the "average latency with STD reported from 5 trials" format of
/// Table 3.
#[derive(Debug, Clone, Default)]
pub struct Series {
    values: Vec<f64>,
}

impl Series {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an observation.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean (zero for an empty series).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Sample standard deviation (zero for fewer than two observations).
    pub fn std(&self) -> f64 {
        let n = self.values.len();
        if n < 2 {
            return 0.0;
        }
        let m = self.mean();
        let var = self.values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / (n - 1) as f64;
        var.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let mut c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn histogram_quantiles_bound_samples() {
        let mut h = Histogram::new();
        for us in 1..=1000u64 {
            h.record(SimDuration::from_us(us));
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), SimDuration::from_us(1));
        assert_eq!(h.max(), SimDuration::from_us(1000));
        let p50 = h.quantile(0.5);
        assert!(p50 >= SimDuration::from_us(500) && p50 <= SimDuration::from_us(1100));
        assert!(h.quantile(1.0) >= h.max());
        let mean = h.mean();
        assert!((mean.as_micros_f64() - 500.5).abs() < 1.0);
    }

    #[test]
    fn histogram_handles_tiny_samples() {
        let mut h = Histogram::new();
        h.record(SimDuration::from_ps(1));
        h.record(SimDuration::from_ns(1));
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn series_mean_and_std() {
        let mut s = Series::new();
        for v in [51.2, 51.9, 51.5, 52.0, 51.4] {
            s.push(v);
        }
        assert!((s.mean() - 51.6).abs() < 1e-9);
        assert!(s.std() > 0.0 && s.std() < 1.0);
        let empty = Series::new();
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.std(), 0.0);
    }
}
