//! Shared DRAM channel timeline.
//!
//! Unlike the estimator's static contention factor, the simulator resolves
//! off-chip contention dynamically: every transfer occupies the shared
//! channel for its data time, and concurrent transfers queue. Because the
//! pipelined MetaPipe schedule discovers stage start times out of
//! chronological order, the timeline places each transfer into the
//! *earliest sufficiently large idle gap* at or after its issue time
//! (first-fit interval reservation), which conserves aggregate bandwidth
//! while modeling queueing delay.

/// A first-fit reservation timeline for the off-chip channel.
///
/// Invariant: `busy` holds disjoint, non-touching intervals sorted by
/// start — any reservation that lands exactly adjacent to an existing
/// interval is merged into it on insert, so back-to-back streaming
/// traffic stays one interval. Traffic with idle gaps between transfers
/// still adds one interval per transfer: over gemm's 29 160 legal
/// points the list held 1 558 intervals on average when a request
/// arrived. Every one of those requests was placed at the end of the
/// list, which is why [`DramTimeline::request`] searches from there.
#[derive(Debug, Clone, Default)]
pub struct DramTimeline {
    /// Busy intervals `(start, end)`, sorted by start, pairwise disjoint.
    busy: Vec<(f64, f64)>,
    /// Transfers serviced (for reporting).
    transfers: usize,
}

impl DramTimeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of transfers serviced.
    pub fn transfers(&self) -> usize {
        self.transfers
    }

    /// Total busy time reserved on the channel.
    pub fn busy_cycles(&self) -> f64 {
        self.busy.iter().map(|(s, e)| e - s).sum()
    }

    /// The busy intervals `(start, end)`, sorted by start and pairwise
    /// disjoint (exposed for invariant checks and diagnostics).
    pub fn busy_intervals(&self) -> &[(f64, f64)] {
        &self.busy
    }

    /// Reserve a transfer issued at `start` whose channel occupancy is
    /// `ideal` cycles. Returns the effective duration from `start` to the
    /// end of its reservation (ideal plus queueing delay).
    pub fn request(&mut self, start: f64, ideal: f64) -> f64 {
        if ideal <= 0.0 {
            return 0.0;
        }
        // First-fit: earliest idle gap of width `ideal` at or after start.
        // Intervals ending at or before `t` cannot constrain the search;
        // skip past them instead of re-scanning them per request (a gap
        // ending exactly at `t` is never revisited).
        let mut t = start.max(0.0);
        let first = self.first_ending_after(t);
        let mut insert_at = self.busy.len();
        for (i, &(s, e)) in self.busy.iter().enumerate().skip(first) {
            if s >= t + ideal {
                // The reservation fits entirely in the gap before interval i.
                insert_at = i;
                break;
            }
            t = t.max(e);
        }
        // One pass found both the placement time `t` and the sorted
        // insertion index: every interval before `insert_at` ends at or
        // before `t` (it was either skipped or bumped `t` to its end).
        self.transfers += 1;
        let end = t + ideal;
        // Merge with exactly-touching neighbours so the list stays short.
        // Only exact adjacency merges — fuzzy merging would change
        // `busy_cycles` and break its conservation against ideals.
        let touches_prev = insert_at > 0 && self.busy[insert_at - 1].1 == t;
        let touches_next = insert_at < self.busy.len() && self.busy[insert_at].0 == end;
        match (touches_prev, touches_next) {
            (true, true) => {
                // Bridge: previous and next intervals fuse into one.
                self.busy[insert_at - 1].1 = self.busy[insert_at].1;
                self.busy.remove(insert_at);
            }
            (true, false) => self.busy[insert_at - 1].1 = end,
            (false, true) => self.busy[insert_at].0 = t,
            (false, false) => self.busy.insert(insert_at, (t, end)),
        }
        end - start
    }

    /// The index of the first busy interval that ends after `t`. The
    /// intervals are disjoint and sorted, so their ends are sorted too;
    /// and requests arrive nearly in time order, so the answer is almost
    /// always among the last few intervals. The search gallops back from
    /// the end, then bisects the last step: O(log d) for an answer `d`
    /// intervals from the end.
    fn first_ending_after(&self, t: f64) -> usize {
        // Every interval from `hi` on ends after `t`.
        let mut hi = self.busy.len();
        let mut step = 1;
        while hi > 0 {
            let lo = hi.saturating_sub(step);
            if self.busy[lo].1 <= t {
                return lo + 1 + self.busy[lo + 1..hi].partition_point(|&(_, e)| e <= t);
            }
            hi = lo;
            step *= 2;
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolated_transfer_is_ideal() {
        let mut t = DramTimeline::new();
        assert_eq!(t.request(0.0, 100.0), 100.0);
        assert_eq!(t.transfers(), 1);
    }

    #[test]
    fn concurrent_transfers_queue() {
        let mut t = DramTimeline::new();
        let a = t.request(0.0, 100.0);
        let b = t.request(0.0, 100.0);
        assert_eq!(a, 100.0);
        // The second transfer queues behind the first: 200 from its start.
        assert_eq!(b, 200.0);
        assert_eq!(t.busy_cycles(), 200.0);
    }

    #[test]
    fn out_of_order_request_fills_idle_gap() {
        let mut t = DramTimeline::new();
        // A transfer far in the future is reserved first...
        assert_eq!(t.request(1_000.0, 50.0), 50.0);
        // ...but an earlier transfer still uses the idle channel before it.
        assert_eq!(t.request(0.0, 100.0), 100.0);
        assert_eq!(t.busy_cycles(), 150.0);
    }

    #[test]
    fn gap_too_small_queues_after() {
        let mut t = DramTimeline::new();
        t.request(0.0, 100.0); // busy [0, 100)
        t.request(150.0, 100.0); // busy [150, 250)
                                 // A 100-cycle transfer at 20 does not fit the [100, 150) gap.
        let d = t.request(20.0, 100.0);
        assert_eq!(d, 250.0 + 100.0 - 20.0);
        // A 40-cycle transfer at 20 does fit the gap.
        let d2 = t.request(20.0, 40.0);
        assert_eq!(d2, 100.0 + 40.0 - 20.0);
    }

    #[test]
    fn disjoint_transfers_do_not_interact() {
        let mut t = DramTimeline::new();
        t.request(0.0, 100.0);
        let late = t.request(1_000.0, 100.0);
        assert_eq!(late, 100.0);
    }

    #[test]
    fn zero_duration_is_free() {
        let mut t = DramTimeline::new();
        assert_eq!(t.request(5.0, 0.0), 0.0);
        assert_eq!(t.transfers(), 0);
    }

    #[test]
    fn touching_intervals_merge_on_insert() {
        let mut t = DramTimeline::new();
        for i in 0..10 {
            t.request(i as f64 * 10.0, 10.0);
        }
        // Ten back-to-back transfers occupy one merged interval.
        assert_eq!(t.busy_intervals(), &[(0.0, 100.0)]);
        assert_eq!(t.transfers(), 10);
        assert!((t.busy_cycles() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn bridging_request_fuses_neighbours() {
        let mut t = DramTimeline::new();
        t.request(0.0, 10.0); // [0, 10)
        t.request(20.0, 10.0); // [20, 30)
        assert_eq!(t.busy_intervals().len(), 2);
        // Fits exactly in the [10, 20) gap: all three intervals fuse.
        let d = t.request(10.0, 10.0);
        assert_eq!(d, 10.0);
        assert_eq!(t.busy_intervals(), &[(0.0, 30.0)]);
    }

    #[test]
    fn queued_streaming_traffic_stays_compact() {
        // The regression the merge fixes: a long run of same-issue-time
        // transfers used to grow `busy` linearly and re-scan it per
        // request (quadratic total). Merged, the list stays at one entry.
        let mut t = DramTimeline::new();
        for _ in 0..10_000 {
            t.request(0.0, 3.0);
        }
        assert_eq!(t.busy_intervals().len(), 1);
        assert_eq!(t.busy_intervals()[0], (0.0, 30_000.0));
    }

    /// `request` as it was before the search galloped from the end: a
    /// bisection over the whole list, then the same first-fit scan and
    /// merge. The reference the random sequences below hold it to.
    fn reference_request(busy: &mut Vec<(f64, f64)>, start: f64, ideal: f64) -> f64 {
        if ideal <= 0.0 {
            return 0.0;
        }
        let mut t = start.max(0.0);
        let first = busy.partition_point(|&(_, e)| e <= t);
        let mut insert_at = busy.len();
        for (i, &(s, e)) in busy.iter().enumerate().skip(first) {
            if s >= t + ideal {
                insert_at = i;
                break;
            }
            t = t.max(e);
        }
        let end = t + ideal;
        let touches_prev = insert_at > 0 && busy[insert_at - 1].1 == t;
        let touches_next = insert_at < busy.len() && busy[insert_at].0 == end;
        match (touches_prev, touches_next) {
            (true, true) => {
                busy[insert_at - 1].1 = busy[insert_at].1;
                busy.remove(insert_at);
            }
            (true, false) => busy[insert_at - 1].1 = end,
            (false, true) => busy[insert_at].0 = t,
            (false, false) => busy.insert(insert_at, (t, end)),
        }
        end - start
    }

    #[test]
    fn galloping_search_matches_the_bisecting_reference() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xD7A3);
        let (mut out_of_order, mut gaps) = (0usize, 0usize);
        for seq in 0..10_000 {
            let mut t = DramTimeline::new();
            let mut reference = Vec::new();
            let mut transfers = 0;
            let mut clock = 0.0f64;
            for _ in 0..rng.gen_range(1..=64usize) {
                // Mostly in time order, as a walk issues them, with
                // backward jumps, idle gaps and exact touches mixed in.
                let start = match rng.gen_range(0..8u32) {
                    0 => rng.gen_range(0.0..clock.max(1.0)),
                    1 => clock + f64::from(rng.gen_range(1..50u32)),
                    2 => clock + rng.gen_range(0.0..10.0),
                    _ => clock,
                };
                out_of_order += usize::from(start < clock);
                gaps += usize::from(start > clock);
                let ideal = match rng.gen_range(0..6u32) {
                    0 => 0.0,
                    1 => rng.gen_range(0.0..20.0),
                    _ => f64::from(rng.gen_range(1..20u32)),
                };
                let got = t.request(start, ideal);
                let want = reference_request(&mut reference, start, ideal);
                transfers += usize::from(ideal > 0.0);
                assert_eq!(got.to_bits(), want.to_bits(), "sequence {seq}");
                assert_eq!(t.busy_intervals(), &reference[..], "sequence {seq}");
                assert_eq!(t.transfers(), transfers, "sequence {seq}");
                clock = clock.max(start + got);
            }
        }
        assert!(
            out_of_order > 10_000 && gaps > 10_000,
            "{out_of_order} / {gaps}"
        );
    }

    #[test]
    fn gap_ending_exactly_at_issue_time_is_skipped() {
        let mut t = DramTimeline::new();
        t.request(0.0, 10.0); // [0, 10)
                              // Issue exactly at the end of the busy interval: no queueing.
        assert_eq!(t.request(10.0, 5.0), 5.0);
        assert_eq!(t.busy_intervals(), &[(0.0, 15.0)]);
    }
}
