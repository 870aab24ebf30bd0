//! Online and batch statistics used by the evaluation harness.
//!
//! The paper's evaluation rests on three statistical tools:
//!
//! * **Pearson's correlation coefficient** between the network-overhead
//!   metric and execution time (r = 0.97 for the toy application, Fig. 4;
//!   r = 0.92 for Parquet, Fig. 7) — [`pearson`].
//! * **Relative standard deviation** of repeated Parquet runs (< 5 %,
//!   §IV-C) — [`OnlineStats::rsd`].
//! * Averages over phases/iterations — [`OnlineStats`] (Welford's
//!   numerically stable online algorithm).

/// Numerically stable online mean/variance accumulator (Welford).
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add a sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Add every sample from an iterator.
    pub fn extend(&mut self, xs: impl IntoIterator<Item = f64>) {
        for x in xs {
            self.push(x);
        }
    }

    /// Build an accumulator from a slice.
    pub fn from_slice(xs: &[f64]) -> Self {
        let mut s = Self::new();
        s.extend(xs.iter().copied());
        s
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0.0 if empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0.0 with fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance with Bessel's correction (0.0 with fewer than 2
    /// samples).
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Relative standard deviation in percent (stddev / |mean| · 100).
    ///
    /// This is the statistic the paper uses to argue run-to-run noise is
    /// below 5 % for the Parquet trials. Returns `None` for an empty
    /// accumulator or zero mean.
    pub fn rsd(&self) -> Option<f64> {
        if self.count == 0 || self.mean == 0.0 {
            None
        } else {
            Some(self.stddev() / self.mean.abs() * 100.0)
        }
    }

    /// Smallest sample seen, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample seen, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

/// Pearson's correlation coefficient of two equally long series.
///
/// Returns `None` if the series differ in length, have fewer than two
/// points, or either has zero variance.
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s = OnlineStats::from_slice(&xs);
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn rsd_definition() {
        let s = OnlineStats::from_slice(&[10.0, 10.0, 10.0]);
        assert_eq!(s.rsd(), Some(0.0));
        let s = OnlineStats::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.rsd().unwrap() - 40.0).abs() < 1e-9);
        assert_eq!(OnlineStats::new().rsd(), None);
    }

    #[test]
    fn variance_edge_cases() {
        let mut s = OnlineStats::new();
        assert_eq!(s.variance(), 0.0);
        s.push(3.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        s.push(5.0);
        assert!((s.variance() - 1.0).abs() < 1e-12);
        assert!((s.sample_variance() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_perfect_correlation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = ys.iter().map(|y| -y).collect();
        assert!((pearson(&xs, &neg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_uncorrelated_and_degenerate() {
        assert_eq!(pearson(&[1.0], &[2.0]), None);
        assert_eq!(pearson(&[1.0, 2.0], &[3.0]), None);
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), None);
        // Symmetric cloud: correlation near zero.
        let xs = [-1.0, 1.0, -1.0, 1.0];
        let ys = [-1.0, -1.0, 1.0, 1.0];
        assert!(pearson(&xs, &ys).unwrap().abs() < 1e-12);
    }
}
