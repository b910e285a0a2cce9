//! Counters, histograms and derived statistics.
//!
//! Every simulated component registers its counters in a [`StatSet`]. The
//! experiment harnesses then read named counters (cycle counts, hit rates,
//! invalidate-broadcast counts, ...) to build the paper's figures.

use std::collections::BTreeMap;
use std::fmt;

/// A set of named integer counters and scalar values.
///
/// Counters are created lazily on first use and kept in sorted order so that
/// reports are stable across runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatSet {
    counters: BTreeMap<String, u64>,
    scalars: BTreeMap<String, f64>,
}

impl StatSet {
    /// Creates an empty statistics set.
    pub fn new() -> Self {
        StatSet::default()
    }

    /// Adds `delta` to the counter `name`, creating it if needed. Only a
    /// counter's first touch allocates (its owned key); later increments
    /// update it in place.
    pub fn add(&mut self, name: &str, delta: u64) {
        match self.counters.get_mut(name) {
            Some(counter) => *counter += delta,
            None => {
                self.counters.insert(name.to_owned(), delta);
            }
        }
    }

    /// Increments the counter `name` by one.
    pub fn bump(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Returns the value of counter `name`, or zero if it was never touched.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the scalar statistic `name` to `value`.
    pub fn set_scalar(&mut self, name: &str, value: f64) {
        self.scalars.insert(name.to_owned(), value);
    }

    /// Returns the scalar statistic `name`, or `None`.
    pub fn scalar(&self, name: &str) -> Option<f64> {
        self.scalars.get(name).copied()
    }

    /// Returns the ratio `numer / denom` of two counters, or zero if the
    /// denominator counter is zero.
    pub fn ratio(&self, numer: &str, denom: &str) -> f64 {
        let d = self.counter(denom);
        if d == 0 {
            0.0
        } else {
            self.counter(numer) as f64 / d as f64
        }
    }

    /// Iterates over all counters in name order.
    pub fn iter_counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates over all scalar statistics in name order.
    pub fn iter_scalars(&self) -> impl Iterator<Item = (&str, f64)> {
        self.scalars.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Merges another statistics set into this one, summing counters and
    /// overwriting scalars.
    pub fn merge(&mut self, other: &StatSet) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.scalars {
            self.scalars.insert(k.clone(), *v);
        }
    }

    /// Removes all counters and scalars.
    pub fn clear(&mut self) {
        self.counters.clear();
        self.scalars.clear();
    }
}

impl fmt::Display for StatSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in &self.counters {
            writeln!(f, "{k}: {v}")?;
        }
        for (k, v) in &self.scalars {
            writeln!(f, "{k}: {v:.6}")?;
        }
        Ok(())
    }
}

/// A fixed-bucket histogram of integer samples, used for latency distributions.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bucket_width: u64,
    buckets: Vec<u64>,
    overflow: u64,
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// Creates a histogram with `num_buckets` buckets of `bucket_width` each.
    ///
    /// # Panics
    /// Panics if `bucket_width` or `num_buckets` is zero.
    pub fn new(bucket_width: u64, num_buckets: usize) -> Self {
        assert!(bucket_width > 0, "bucket width must be positive");
        assert!(num_buckets > 0, "need at least one bucket");
        Histogram {
            bucket_width,
            buckets: vec![0; num_buckets],
            overflow: 0,
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = (value / self.bucket_width) as usize;
        if idx < self.buckets.len() {
            self.buckets[idx] += 1;
        } else {
            self.overflow += 1;
        }
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all recorded samples (zero when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Number of samples that fell past the last bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Count in bucket `idx` (zero if out of range).
    pub fn bucket(&self, idx: usize) -> u64 {
        self.buckets.get(idx).copied().unwrap_or(0)
    }
}

/// Computes the geometric mean of a slice of positive values.
///
/// Values that are not finite and positive are ignored; an empty input yields 1.0.
/// This mirrors how the paper reports "geomean" bars in figures 3 and 4.
pub fn geometric_mean(values: &[f64]) -> f64 {
    let usable: Vec<f64> = values
        .iter()
        .copied()
        .filter(|v| v.is_finite() && *v > 0.0)
        .collect();
    if usable.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = usable.iter().map(|v| v.ln()).sum();
    (log_sum / usable.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = StatSet::new();
        s.bump("loads");
        s.add("loads", 4);
        assert_eq!(s.counter("loads"), 5);
        assert_eq!(s.counter("missing"), 0);
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        let mut s = StatSet::new();
        s.add("hits", 10);
        assert_eq!(s.ratio("hits", "accesses"), 0.0);
        s.add("accesses", 20);
        assert!((s.ratio("hits", "accesses") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = StatSet::new();
        a.add("x", 3);
        let mut b = StatSet::new();
        b.add("x", 4);
        b.add("y", 1);
        b.set_scalar("ipc", 1.5);
        a.merge(&b);
        assert_eq!(a.counter("x"), 7);
        assert_eq!(a.counter("y"), 1);
        assert_eq!(a.scalar("ipc"), Some(1.5));
    }

    #[test]
    fn histogram_statistics() {
        let mut h = Histogram::new(10, 4);
        for v in [1, 5, 15, 25, 35, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.bucket(0), 2);
        assert_eq!(h.bucket(1), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.max(), 1000);
        assert!(h.mean() > 0.0);
    }

    #[test]
    fn geometric_mean_of_known_values() {
        let g = geometric_mean(&[1.0, 4.0]);
        assert!((g - 2.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 1.0);
        // Non-positive values are skipped rather than poisoning the result.
        let g = geometric_mean(&[0.0, 2.0, 8.0]);
        assert!((g - 4.0).abs() < 1e-12);
    }

    #[test]
    fn display_lists_counters() {
        let mut s = StatSet::new();
        s.add("cycles", 100);
        s.set_scalar("ipc", 2.0);
        let text = format!("{s}");
        assert!(text.contains("cycles: 100"));
        assert!(text.contains("ipc"));
    }

    #[test]
    fn clear_resets_everything() {
        let mut s = StatSet::new();
        s.add("cycles", 100);
        s.set_scalar("ipc", 2.0);
        s.clear();
        assert_eq!(s.counter("cycles"), 0);
        assert_eq!(s.scalar("ipc"), None);
    }
}
