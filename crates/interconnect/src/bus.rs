//! Switch model of the segmented bus (paper §3.1, Figs. 7–8).
//!
//! A segmented bus is a shared bus split into segments by switches; closing
//! a switch joins adjacent segments, opening one isolates them, and
//! isolated segments carry transactions in parallel. [`SegmentedBus`]
//! checks that a grouping is a valid switch configuration: a partition of
//! the components into *contiguous* segments (the §5.5 extension
//! additionally allows non-power-of-two segment sizes via logical group
//! IDs over a physical superset, which this model accepts directly).

use crate::InterconnectError;

/// The switch configuration of a segmented bus.
#[derive(Debug, Clone)]
pub struct SegmentedBus {
    n: usize,
    n_segments: usize,
}

impl SegmentedBus {
    /// Creates a bus over `n` components, all in one segment.
    pub fn new(n: usize) -> Self {
        Self { n, n_segments: 1 }
    }

    /// Number of isolated segments in the current configuration.
    pub fn n_segments(&self) -> usize {
        self.n_segments
    }

    /// Reconfigures the switches: each listed group of components becomes
    /// one isolated segment. Groups must partition `0..n` into contiguous
    /// ranges (switch-based segmentation cannot skip components).
    ///
    /// # Errors
    ///
    /// Returns [`InterconnectError::InvalidSegments`] for a non-partition
    /// or a non-contiguous group, and
    /// [`InterconnectError::ComponentOutOfRange`] for a bad index.
    pub fn configure(&mut self, groups: &[Vec<usize>]) -> Result<(), InterconnectError> {
        let mut covered = vec![false; self.n];
        for g in groups {
            if g.is_empty() {
                return Err(InterconnectError::InvalidSegments("empty segment".into()));
            }
            let mut sorted = g.clone();
            sorted.sort_unstable();
            if sorted.windows(2).any(|w| w[1] != w[0] + 1) {
                return Err(InterconnectError::InvalidSegments(format!(
                    "segment {g:?} is not contiguous"
                )));
            }
            for &c in &sorted {
                if c >= self.n {
                    return Err(InterconnectError::ComponentOutOfRange(c, self.n));
                }
                if covered[c] {
                    return Err(InterconnectError::InvalidSegments(format!(
                        "component {c} in two segments"
                    )));
                }
                covered[c] = true;
            }
        }
        if let Some(c) = covered.iter().position(|&seen| !seen) {
            return Err(InterconnectError::InvalidSegments(format!(
                "component {c} is in no segment"
            )));
        }
        self.n_segments = groups.len();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconfigure_validates() {
        let mut bus = SegmentedBus::new(4);
        assert!(
            bus.configure(&[vec![0, 2], vec![1, 3]]).is_err(),
            "non-contiguous"
        );
        assert!(
            bus.configure(&[vec![0, 1], vec![1, 2, 3]]).is_err(),
            "overlap"
        );
        assert!(bus.configure(&[vec![0, 1]]).is_err(), "uncovered");
        assert!(
            bus.configure(&[vec![0, 1], vec![2, 3, 9]]).is_err(),
            "out of range"
        );
        assert!(
            bus.configure(&[vec![0, 1, 2], vec![3]]).is_ok(),
            "non-power-of-two ok (§5.5)"
        );
    }
}
