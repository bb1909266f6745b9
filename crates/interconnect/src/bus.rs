//! Switch model of the segmented bus (paper §3.1, Figs. 7–8).
//!
//! A segmented bus is a shared bus split into segments by switches; closing
//! a switch joins adjacent segments, opening one isolates them, and
//! isolated segments carry transactions in parallel. [`SegmentedBus`]
//! checks that a grouping is a valid switch configuration: a partition of
//! the components into *contiguous* segments (the §5.5 extension
//! additionally allows non-power-of-two segment sizes via logical group
//! IDs over a physical superset, which this model accepts directly).

use morphcache::topology::check_partition;
use morphcache::MorphError;

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
    /// Returns [`MorphError::Grouping`] for a non-partition (see
    /// [`check_partition`]) or a non-contiguous group; the configuration
    /// is then unchanged.
    pub fn configure(&mut self, groups: &[Vec<usize>]) -> Result<(), MorphError> {
        check_partition(groups, self.n)?;
        for g in groups {
            // A partition's members are distinct, so a group is contiguous
            // exactly when it spans as many components as it holds.
            let span = g
                .iter()
                .max()
                .zip(g.iter().min())
                .map(|(hi, lo)| hi - lo + 1);
            if span != Some(g.len()) {
                return Err(MorphError::Grouping(format!(
                    "segment {g:?} is not contiguous"
                )));
            }
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
        for (groups, why) in [
            (vec![vec![0, 2], vec![1, 3]], "non-contiguous"),
            (vec![vec![0, 1], vec![1, 2, 3]], "overlap"),
            (vec![vec![0, 1]], "uncovered"),
            (vec![vec![0, 1], vec![2, 3, 9]], "out of range"),
            (vec![vec![0, 1], vec![], vec![2, 3]], "empty"),
        ] {
            let err = bus.configure(&groups);
            assert!(
                matches!(err, Err(MorphError::Grouping(_))),
                "{why}: {err:?}"
            );
        }
        assert_eq!(
            bus.n_segments(),
            1,
            "a rejected configuration changes nothing"
        );
        assert!(
            bus.configure(&[vec![0, 1, 2], vec![3]]).is_ok(),
            "non-power-of-two ok (§5.5)"
        );
        assert!(
            bus.configure(&[vec![3, 1, 2], vec![0]]).is_ok(),
            "any member order"
        );
    }
}
