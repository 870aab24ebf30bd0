//! Exponentially weighted moving averages.
//!
//! The adaptive coalescing controller (the paper's stated future work,
//! realized in `rpx-adaptive`) smooths noisy counter samples — network
//! overhead, parcel arrival gaps — with EWMAs before acting on them, and
//! detects *communication phase changes* as large relative shifts in the
//! smoothed arrival rate.

/// An exponentially weighted moving average.
#[derive(Debug, Clone, Copy)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Create an EWMA with smoothing factor `alpha` in `(0, 1]`.
    ///
    /// Larger `alpha` weights recent samples more heavily.
    ///
    /// # Panics
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Ewma { alpha, value: None }
    }

    /// EWMA whose weight halves every `n` samples.
    pub fn with_half_life(n: f64) -> Self {
        assert!(n > 0.0, "half life must be positive");
        Ewma::new(1.0 - 0.5f64.powf(1.0 / n))
    }

    /// Feed one sample, returning the updated average.
    pub fn update(&mut self, x: f64) -> f64 {
        let v = match self.value {
            None => x,
            Some(prev) => prev + self.alpha * (x - prev),
        };
        self.value = Some(v);
        v
    }

    /// Current average, or `None` before the first sample.
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// Forget all history.
    pub fn reset(&mut self) {
        self.value = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_initialises() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.value(), None);
        assert_eq!(e.update(10.0), 10.0);
        assert_eq!(e.value(), Some(10.0));
    }

    #[test]
    fn converges_to_constant_input() {
        let mut e = Ewma::new(0.3);
        e.update(0.0);
        for _ in 0..200 {
            e.update(42.0);
        }
        assert!((e.value().unwrap() - 42.0).abs() < 1e-6);
    }

    #[test]
    fn alpha_one_tracks_exactly() {
        let mut e = Ewma::new(1.0);
        e.update(1.0);
        e.update(7.0);
        assert_eq!(e.value(), Some(7.0));
    }

    #[test]
    fn half_life_semantics() {
        // After `n` samples of 0 following a 1, the value should be ~0.5.
        let mut e = Ewma::with_half_life(10.0);
        e.update(1.0);
        for _ in 0..10 {
            e.update(0.0);
        }
        assert!((e.value().unwrap() - 0.5).abs() < 0.02);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha_panics() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    fn reset_clears_history() {
        let mut e = Ewma::new(0.5);
        e.update(5.0);
        e.reset();
        assert_eq!(e.value(), None);
        assert_eq!(e.update(3.0), 3.0);
    }
}
