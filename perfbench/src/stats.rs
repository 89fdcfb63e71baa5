//! Order statistics: percentiles with the sample-count rule, medians.

/// The fewest samples that must lie beyond a reported tail percentile.
pub const MIN_TAIL: usize = 10;

/// The tail percentile (0–100) to report for a nominal `wanted` one over
/// `n` samples: `wanted` itself when at least [`MIN_TAIL`] samples lie
/// beyond it, otherwise the highest percentile that still leaves that many
/// (never below the median).
#[must_use]
pub fn supported_percentile(wanted: f64, n: usize) -> f64 {
    if n == 0 {
        return 50.0;
    }
    let highest = 100.0 * (1.0 - MIN_TAIL as f64 / n as f64);
    wanted.min(highest).max(50.0)
}

/// A sorted sample set and the resolution its values were measured at.
#[derive(Debug, Clone)]
pub struct Samples {
    sorted: Vec<f64>,
    resolution: f64,
}

impl Samples {
    /// Sorts `values`. `resolution` is the measurement granularity in the
    /// values' unit: a value `v` stands for the interval
    /// `[v - resolution/2, v + resolution/2)`, so percentiles interpolate
    /// inside runs of tied values (the simulator's clock ticks in whole
    /// milliseconds). With resolution 0 a percentile is the nearest-rank
    /// order statistic.
    #[must_use]
    pub fn new(mut values: Vec<f64>, resolution: f64) -> Self {
        values.retain(|v| v.is_finite());
        values.sort_by(f64::total_cmp);
        Self {
            sorted: values,
            resolution,
        }
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The samples, sorted.
    #[must_use]
    pub fn into_sorted(self) -> Vec<f64> {
        self.sorted
    }

    /// The `p`-th percentile (0–100), or 0 for an empty set.
    #[must_use]
    pub fn percentile(&self, p: f64) -> f64 {
        let n = self.sorted.len();
        if n == 0 {
            return 0.0;
        }
        // Continuous rank in (0, n]; the tie run holding it is [lo, hi).
        let rank = (p / 100.0 * n as f64).clamp(f64::MIN_POSITIVE, n as f64);
        let index = (rank.ceil() as usize).clamp(1, n) - 1;
        let value = self.sorted[index];
        if self.resolution <= 0.0 {
            return value;
        }
        let lo = self.sorted.partition_point(|&v| v < value);
        let hi = self.sorted.partition_point(|&v| v <= value);
        let within = (rank - lo as f64) / (hi - lo) as f64;
        value - self.resolution / 2.0 + self.resolution * within
    }

    /// The median and the tail percentile the sample count supports for a
    /// nominal `wanted` one: `(p50, tail_value, tail_percentile)`.
    #[must_use]
    pub fn median_and_tail(&self, wanted: f64) -> (f64, f64, f64) {
        let tail_p = supported_percentile(wanted, self.len());
        (self.percentile(50.0), self.percentile(tail_p), tail_p)
    }
}

/// Median of a list of measurements (mean of the middle two for even
/// counts), or 0 for an empty list.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if sorted.is_empty() {
        return 0.0;
    }
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(99.0, 100_000), 99.0);
        assert_eq!(supported_percentile(99.0, 1_000), 99.0);
        assert!((supported_percentile(99.0, 800) - 98.75).abs() < 1e-9);
        assert!((supported_percentile(99.0, 545) - (100.0 - 1_000.0 / 545.0)).abs() < 1e-9);
        // Tiny sets fall back to the median, never below it.
        assert_eq!(supported_percentile(99.0, 12), 50.0);
        assert_eq!(supported_percentile(99.0, 0), 50.0);
    }

    #[test]
    fn tail_percentile_leaves_at_least_ten_samples_beyond() {
        for n in [20usize, 37, 100, 545, 800, 999, 1_001, 5_000] {
            let p = supported_percentile(99.0, n);
            let beyond = n as f64 * (1.0 - p / 100.0);
            assert!(beyond >= MIN_TAIL as f64 - 1e-9, "n={n} p={p}");
        }
    }

    #[test]
    fn nearest_rank_on_distinct_values() {
        let samples = Samples::new((1..=100).map(f64::from).collect(), 0.0);
        assert_eq!(samples.percentile(50.0), 50.0);
        assert_eq!(samples.percentile(99.0), 99.0);
        assert_eq!(samples.percentile(100.0), 100.0);
        assert_eq!(samples.percentile(0.0), 1.0);
        let (p50, tail, tail_p) = samples.median_and_tail(99.0);
        assert_eq!((p50, tail_p), (50.0, 90.0));
        assert_eq!(tail, 90.0);
    }

    #[test]
    fn ties_interpolate_across_their_resolution_interval() {
        // Ten samples of 20 ms and ten of 30 ms, measured in whole ms.
        let mut values = vec![20.0; 10];
        values.extend(vec![30.0; 10]);
        let samples = Samples::new(values, 1.0);
        // Rank 10 of 20 ends the first tie run: the top of 20's interval.
        assert!((samples.percentile(50.0) - 20.5).abs() < 1e-9);
        // Rank 5 is halfway through it.
        assert!((samples.percentile(25.0) - 20.0).abs() < 1e-9);
        assert!((samples.percentile(75.0) - 30.0).abs() < 1e-9);
        // Without a resolution the order statistic is returned.
        let raw = Samples::new(vec![20.0; 10], 0.0);
        assert_eq!(raw.percentile(50.0), 20.0);
    }

    #[test]
    fn empty_and_nonfinite_samples() {
        assert_eq!(Samples::new(Vec::new(), 0.0).percentile(50.0), 0.0);
        let samples = Samples::new(vec![f64::NAN, 3.0, f64::INFINITY, 1.0], 0.0);
        assert_eq!(samples.len(), 2);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
