//! Latency samples and the percentile rule the benchmark reports by: a
//! median, plus a tail percentile only when at least [`MIN_BEYOND`]
//! samples lie beyond it.

/// A percentile is reported only with this many samples strictly beyond
/// its nearest-rank position; fewer and the value is one outlier's.
pub const MIN_BEYOND: usize = 10;

/// Timing samples of one operation class, in the metric's unit.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile (`p` in `(0, 1]`); 0.0 for no samples.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        sorted[rank(sorted.len(), p) - 1]
    }

    pub fn median(&self) -> f64 {
        self.percentile(0.5)
    }

    /// Whether `p` has at least [`MIN_BEYOND`] samples beyond it.
    pub fn supports(&self, p: f64) -> bool {
        supports(self.0.len(), p)
    }
}

/// 1-based nearest-rank position of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Whether percentile `p` of `n` samples has [`MIN_BEYOND`] beyond it.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= MIN_BEYOND
}

/// Median of a handful of repeated measurements (set-up times, probes).
pub fn median_of(values: &[f64]) -> f64 {
    let mut s = Samples::default();
    values.iter().for_each(|&v| s.push(v));
    s.median()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Samples {
        let mut s = Samples::default();
        (1..=n).for_each(|i| s.push(i as f64));
        s
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.percentile(0.9), 90.0);
        assert_eq!(s.percentile(1.0), 100.0);
        assert_eq!(Samples::default().median(), 0.0);
    }

    #[test]
    fn picker_honours_ten_samples_beyond() {
        // p90 of 100 samples sits at rank 90: exactly 10 beyond.
        assert!(supports(100, 0.9));
        assert!(!supports(99, 0.9));
        // p50 needs 20 samples, p99 needs 1000.
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(ramp(100).supports(0.9));
    }

    #[test]
    fn median_of_is_order_independent() {
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_of(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
