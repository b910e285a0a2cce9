//! Medians and tails of timing samples.

/// The median of `values` (mean of the middle pair for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The geometric mean of `values`. Unlike the median, it moves smoothly
/// with every sample: unit times cluster by workload, and a median that
/// falls between two clusters jumps from one to the other on small speed
/// changes.
///
/// # Panics
/// Panics on an empty slice.
pub fn geometric_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of no samples");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// A tail summary: the value at the highest percentile that still leaves at
/// least ten samples above it. Below twenty samples that rank would fall
/// under the median, so the maximum stands in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// The percentile the rank stands for (100 when there are fewer than
    /// twenty samples, in which case `value` is the maximum).
    pub percentile: f64,
    /// How many samples the tail was taken over.
    pub samples: usize,
}

/// See [`Tail`].
///
/// # Panics
/// Panics on an empty slice.
pub fn tail(values: &[f64]) -> Tail {
    assert!(!values.is_empty(), "tail of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 20 {
        return Tail {
            value: sorted[n - 1],
            percentile: 100.0,
            samples: n,
        };
    }
    // Ten samples strictly above rank `n - 11` (0-based).
    let rank = n - 11;
    Tail {
        value: sorted[rank],
        percentile: 100.0 * (rank + 1) as f64 / n as f64,
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn geometric_mean_of_powers() {
        assert!((geometric_mean(&[1.0, 10.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!(t.value, 90.0);
        assert_eq!(values.iter().filter(|v| **v > t.value).count(), 10);
        assert_eq!(t.percentile, 90.0);
        let few = tail(&[2.0, 5.0, 1.0]);
        assert_eq!(tail(&values[..19]).value, 19.0);
        assert_eq!(tail(&values[..20]).percentile, 50.0);
        assert_eq!((few.value, few.percentile, few.samples), (5.0, 100.0, 3));
    }
}
