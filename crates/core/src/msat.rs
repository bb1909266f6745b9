//! The Merge/Split Aggressiveness Threshold (MSAT) of §2.2 and the QoS
//! throttling of §5.3.
//!
//! The MSAT is a pair `(h, l)`: a slice (group) whose ACFV ones-fraction
//! exceeds `h` is *highly utilized*; below `l` it is *under-utilized*.
//! "Through extensive experiments, we determined that an MSAT value of
//! (60,30) provides a reasonable aggressiveness" — i.e. `h = 0.60`,
//! `l = 0.30` as fractions of the ACFV length.
//!
//! For QoS (§5.3), the MSAT is throttled: after a merge step that
//! *increased* an application's misses, `h` is raised and `l` lowered
//! (moving the system toward private, fair-share behaviour); after a
//! harmless or beneficial merge, the MSAT throttles back down.

/// Classification of a slice group's utilization against the MSAT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Utilization {
    /// `|ACFV|`-fraction above the high bound: wants more capacity.
    High,
    /// Between the bounds: no strong signal.
    Mid,
    /// Below the low bound: capacity is going spare.
    Low,
}

/// The `(h, l)` threshold pair with QoS throttling state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Msat {
    high: f64,
    low: f64,
    step: f64,
    high_max: f64,
    low_min: f64,
    base_high: f64,
    base_low: f64,
}

impl Msat {
    /// Creates an MSAT with explicit bounds, a 5-point throttle step
    /// bounded at `(95, 5)`, and no throttling below the base.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < low < high < 1`.
    pub fn new(high: f64, low: f64) -> Self {
        assert!(
            0.0 < low && low < high && high < 1.0,
            "need 0 < low < high < 1"
        );
        Self {
            high,
            low,
            step: 0.05,
            high_max: 0.95,
            low_min: 0.05,
            base_high: high,
            base_low: low,
        }
    }

    /// The high bound `h`.
    pub fn high(&self) -> f64 {
        self.high
    }

    /// The low bound `l`.
    pub fn low(&self) -> f64 {
        self.low
    }

    /// Classifies a ones-fraction.
    pub fn classify(&self, ones_fraction: f64) -> Utilization {
        if ones_fraction > self.high {
            Utilization::High
        } else if ones_fraction < self.low {
            Utilization::Low
        } else {
            Utilization::Mid
        }
    }

    /// QoS throttle **up** (§5.3): a merge hurt some application, so raise
    /// `h` and lower `l`, making future merges rarer (moving toward the
    /// private, fair-share configuration).
    pub fn throttle_up(&mut self) {
        self.high = (self.high + self.step).min(self.high_max);
        self.low = (self.low - self.step).max(self.low_min);
    }

    /// QoS throttle **down**: the last merge was harmless or beneficial,
    /// so relax back toward the base aggressiveness.
    pub fn throttle_down(&mut self) {
        self.high = (self.high - self.step).max(self.base_high);
        self.low = (self.low + self.step).min(self.base_low);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values() {
        let m = Msat::new(0.60, 0.30);
        assert_eq!(m.high(), 0.60);
        assert_eq!(m.low(), 0.30);
    }

    #[test]
    fn classification_bands() {
        let m = Msat::new(0.60, 0.30);
        assert_eq!(m.classify(0.7), Utilization::High);
        assert_eq!(m.classify(0.45), Utilization::Mid);
        assert_eq!(m.classify(0.1), Utilization::Low);
        // Boundary values are Mid (strict comparisons).
        assert_eq!(m.classify(0.60), Utilization::Mid);
        assert_eq!(m.classify(0.30), Utilization::Mid);
    }

    #[test]
    fn throttling_up_widens_and_saturates() {
        let mut m = Msat::new(0.60, 0.30);
        for _ in 0..20 {
            m.throttle_up();
        }
        assert_eq!(m.high(), 0.95);
        assert_eq!(m.low(), 0.05);
        // Fewer merges: a 0.9 fraction is no longer High.
        assert_eq!(m.classify(0.9), Utilization::Mid);
    }

    #[test]
    fn throttling_down_returns_to_base() {
        let mut m = Msat::new(0.60, 0.30);
        m.throttle_up();
        m.throttle_up();
        for _ in 0..10 {
            m.throttle_down();
        }
        assert_eq!(m.high(), 0.60);
        assert_eq!(m.low(), 0.30);
    }

    #[test]
    #[should_panic(expected = "low < high")]
    fn invalid_bounds_panic() {
        Msat::new(0.3, 0.6);
    }
}
