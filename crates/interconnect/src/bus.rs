//! Behavioural model of the segmented bus (paper §3.1, Figs. 7–8).
//!
//! A segmented bus is a shared bus split into segments by switches; closing
//! a switch joins adjacent segments, opening one isolates them. Isolated
//! segments carry transactions in parallel. Each transaction takes three
//! bus cycles — request, grant, data transfer (§3.2) — and the per-segment
//! service discipline is the hierarchical round-robin of the arbiter tree.
//!
//! [`SegmentedBus`] simulates this cycle by cycle for any partition of the
//! components into *contiguous* segments (the §5.5 extension additionally
//! allows non-power-of-two segment sizes via logical group IDs over a
//! physical superset, which this behavioural model captures directly).

use crate::InterconnectError;

/// Cycles per bus transaction: request + grant + 64-byte data transfer
/// (§3.2, unpipelined).
pub const TRANSACTION_CYCLES: u64 = 3;

/// Statistics accumulated by a [`SegmentedBus`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Completed transactions.
    pub transactions: u64,
    /// Total cycles requests spent waiting for a grant beyond the minimum.
    pub wait_cycles: u64,
}

/// Cycle-level segmented bus simulator.
#[derive(Debug, Clone)]
pub struct SegmentedBus {
    n: usize,
    /// Segment id of each component.
    segment_of: Vec<usize>,
    n_segments: usize,
    /// Pending request issue cycle per component (`None` = idle).
    pending: Vec<Option<u64>>,
    /// Cycle until which each segment is busy transferring.
    busy_until: Vec<u64>,
    /// Per-segment round-robin pointer (component index to consider first).
    rr: Vec<usize>,
    now: u64,
    /// Accumulated statistics.
    pub stats: BusStats,
}

impl SegmentedBus {
    /// Creates a bus over `n` components, all in one segment.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            segment_of: vec![0; n],
            n_segments: 1,
            pending: vec![None; n],
            busy_until: vec![0; n],
            rr: vec![0; n],
            now: 0,
            stats: BusStats::default(),
        }
    }

    /// Number of isolated segments in the current configuration.
    pub fn n_segments(&self) -> usize {
        self.n_segments
    }

    /// Current bus cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Reconfigures the switches: each listed group of components becomes
    /// one isolated segment. Groups must partition `0..n` into contiguous
    /// ranges (switch-based segmentation cannot skip components).
    ///
    /// Outstanding requests are preserved; in-flight transfers complete on
    /// their original schedule.
    ///
    /// # Errors
    ///
    /// Returns [`InterconnectError::InvalidSegments`] for a non-partition
    /// or a non-contiguous group, and
    /// [`InterconnectError::ComponentOutOfRange`] for a bad index.
    pub fn configure(&mut self, groups: &[Vec<usize>]) -> Result<(), InterconnectError> {
        let mut segment_of = vec![usize::MAX; self.n];
        for (gid, g) in groups.iter().enumerate() {
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
                if segment_of[c] != usize::MAX {
                    return Err(InterconnectError::InvalidSegments(format!(
                        "component {c} in two segments"
                    )));
                }
                segment_of[c] = gid;
            }
        }
        if let Some(c) = segment_of.iter().position(|&s| s == usize::MAX) {
            return Err(InterconnectError::InvalidSegments(format!(
                "component {c} is in no segment"
            )));
        }
        self.segment_of = segment_of;
        self.n_segments = groups.len();
        Ok(())
    }

    /// Posts a bus request from component `c` at the current cycle.
    /// Duplicate requests from the same component are merged.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn request(&mut self, c: usize) {
        assert!(c < self.n, "component {c} out of range");
        if self.pending[c].is_none() {
            self.pending[c] = Some(self.now);
        }
    }

    /// Advances one bus cycle: every idle segment with pending requests
    /// grants one via round-robin and starts its 3-cycle transaction.
    /// Returns the components granted this cycle.
    pub fn cycle(&mut self) -> Vec<usize> {
        let mut granted = Vec::new();
        for seg in 0..self.n_segments {
            if self.busy_until[seg] > self.now {
                continue;
            }
            // Round-robin scan starting after the last winner.
            let members: Vec<usize> = (0..self.n).filter(|&c| self.segment_of[c] == seg).collect();
            if members.is_empty() {
                continue;
            }
            let start = self.rr[seg] % members.len();
            let mut winner = None;
            for i in 0..members.len() {
                // Members are distinct, so this index is also the
                // round-robin position of the winner within the list.
                let pos = (start + i) % members.len();
                if let Some(issued) = self.pending[members[pos]].take() {
                    winner = Some((pos, members[pos], issued));
                    break;
                }
            }
            if let Some((pos, c, issued)) = winner {
                self.stats.transactions += 1;
                self.stats.wait_cycles += self.now - issued;
                self.busy_until[seg] = self.now + TRANSACTION_CYCLES;
                self.rr[seg] = pos + 1;
                granted.push(c);
            }
        }
        self.now += 1;
        granted
    }

    /// Number of components with an ungranted request.
    pub fn pending_count(&self) -> usize {
        self.pending.iter().filter(|p| p.is_some()).count()
    }

    /// Runs cycles until all pending requests have been granted, returning
    /// how many cycles elapsed.
    pub fn drain(&mut self) -> u64 {
        let start = self.now;
        while self.pending.iter().any(|p| p.is_some()) {
            self.cycle();
        }
        self.now - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_segment_serializes() {
        let mut bus = SegmentedBus::new(4);
        bus.request(0);
        bus.request(1);
        let g0 = bus.cycle();
        assert_eq!(g0.len(), 1);
        // Segment busy for 3 cycles: nothing grants meanwhile.
        assert!(bus.cycle().is_empty());
        assert!(bus.cycle().is_empty());
        let g1 = bus.cycle();
        assert_eq!(g1.len(), 1);
        assert_ne!(g0[0], g1[0]);
        assert_eq!(bus.stats.transactions, 2);
    }

    #[test]
    fn isolated_segments_run_in_parallel() {
        let mut bus = SegmentedBus::new(8);
        bus.configure(&[vec![0, 1, 2, 3], vec![4, 5], vec![6, 7]])
            .unwrap();
        bus.request(1);
        bus.request(4);
        bus.request(7);
        let granted = bus.cycle();
        assert_eq!(
            granted.len(),
            3,
            "three isolated segments grant simultaneously"
        );
    }

    #[test]
    fn round_robin_is_fair_within_segment() {
        let mut bus = SegmentedBus::new(4);
        let mut wins = [0u32; 4];
        for _ in 0..40 {
            for c in 0..4 {
                bus.request(c);
            }
            // Run until this batch drains.
            bus.drain();
        }
        // Count via stats: all requests served.
        assert_eq!(bus.stats.transactions, 160);
        // Re-run tracking winners explicitly.
        let mut bus = SegmentedBus::new(4);
        for _ in 0..40 {
            for c in 0..4 {
                bus.request(c);
            }
            while bus.pending_count() > 0 {
                for c in bus.cycle() {
                    wins[c] += 1;
                }
            }
        }
        assert_eq!(wins, [40, 40, 40, 40]);
    }

    #[test]
    fn wait_cycles_accumulate_under_contention() {
        let mut bus = SegmentedBus::new(2);
        bus.request(0);
        bus.request(1);
        bus.drain();
        // Second requester waited 3 cycles for the first transaction.
        assert_eq!(bus.stats.wait_cycles, 3);
    }

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

    #[test]
    fn drain_time_matches_transaction_count() {
        // n queued requests on one segment take ~3n cycles to drain.
        let mut bus = SegmentedBus::new(8);
        for c in 0..8 {
            bus.request(c);
        }
        let cycles = bus.drain();
        assert!((22..=25).contains(&cycles), "drain took {cycles} cycles");
        assert_eq!(bus.stats.transactions, 8);
    }

    #[test]
    fn reconfiguration_preserves_pending_requests() {
        let mut bus = SegmentedBus::new(4);
        bus.request(0);
        bus.request(3);
        bus.configure(&[vec![0, 1], vec![2, 3]]).unwrap();
        let granted = bus.cycle();
        assert_eq!(
            granted.len(),
            2,
            "both pending requests grant in parallel segments"
        );
    }
}
