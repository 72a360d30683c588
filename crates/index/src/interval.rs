//! Time-interval sets.
//!
//! A query over the text record evaluates to the set of times at which it
//! is satisfied (§4.4). [`IntervalSet`] is the closed-open interval
//! algebra — union, intersection, complement — that boolean query
//! evaluation composes over.

use dv_time::Timestamp;

/// A half-open time interval `[start, end)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Interval {
    /// Inclusive start.
    pub start: Timestamp,
    /// Exclusive end.
    pub end: Timestamp,
}

impl Interval {
    /// Creates an interval; empty if `start >= end`.
    pub fn new(start: Timestamp, end: Timestamp) -> Self {
        Interval { start, end }
    }

    /// Returns whether the interval contains no time.
    fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// Returns whether `t` lies within the interval.
    pub fn contains(&self, t: Timestamp) -> bool {
        t >= self.start && t < self.end
    }
}

/// A normalized set of disjoint, sorted, non-adjacent intervals.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct IntervalSet {
    intervals: Vec<Interval>,
}

impl IntervalSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        IntervalSet::default()
    }

    /// Creates a set from arbitrary intervals, normalizing them.
    pub fn from_intervals(intervals: impl IntoIterator<Item = Interval>) -> Self {
        let mut items: Vec<Interval> = intervals.into_iter().filter(|i| !i.is_empty()).collect();
        items.sort_by_key(|i| i.start);
        let mut out: Vec<Interval> = Vec::with_capacity(items.len());
        for item in items {
            match out.last_mut() {
                Some(last) if item.start <= last.end => {
                    last.end = last.end.max(item.end);
                }
                _ => out.push(item),
            }
        }
        IntervalSet { intervals: out }
    }

    /// Returns the normalized intervals.
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// Returns whether `t` is a member.
    pub fn contains(&self, t: Timestamp) -> bool {
        let idx = self.intervals.partition_point(|i| i.start <= t);
        idx.checked_sub(1)
            .map(|i| self.intervals[i].contains(t))
            .unwrap_or(false)
    }

    /// Returns the total covered duration in nanoseconds.
    #[cfg(test)]
    fn total_nanos(&self) -> u64 {
        self.intervals
            .iter()
            .map(|i| i.end.as_nanos() - i.start.as_nanos())
            .sum()
    }

    /// Set union.
    pub fn union(&self, other: &IntervalSet) -> IntervalSet {
        IntervalSet::from_intervals(self.intervals.iter().chain(other.intervals.iter()).copied())
    }

    /// Set intersection.
    pub fn intersect(&self, other: &IntervalSet) -> IntervalSet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.intervals.len() && j < other.intervals.len() {
            let a = self.intervals[i];
            let b = other.intervals[j];
            let start = a.start.max(b.start);
            let end = a.end.min(b.end);
            if start < end {
                out.push(Interval::new(start, end));
            }
            if a.end <= b.end {
                i += 1;
            } else {
                j += 1;
            }
        }
        IntervalSet { intervals: out }
    }

    /// Complement within `[horizon_start, horizon_end)`.
    pub fn complement(&self, horizon_start: Timestamp, horizon_end: Timestamp) -> IntervalSet {
        let mut out = Vec::new();
        let mut cursor = horizon_start;
        for iv in &self.intervals {
            if iv.start > cursor {
                out.push(Interval::new(cursor, iv.start.min(horizon_end)));
            }
            cursor = cursor.max(iv.end);
            if cursor >= horizon_end {
                break;
            }
        }
        if cursor < horizon_end {
            out.push(Interval::new(cursor, horizon_end));
        }
        IntervalSet::from_intervals(out)
    }

    /// Clips the set to `[from, to)`.
    pub fn clip(&self, from: Timestamp, to: Timestamp) -> IntervalSet {
        self.intersect(&IntervalSet::from_intervals([Interval::new(from, to)]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    fn set(pairs: &[(u64, u64)]) -> IntervalSet {
        IntervalSet::from_intervals(pairs.iter().map(|&(a, b)| Interval::new(ts(a), ts(b))))
    }

    #[test]
    fn normalization_merges_overlaps_and_adjacency() {
        let s = set(&[(10, 20), (15, 25), (25, 30), (40, 50), (5, 5)]);
        assert_eq!(s, set(&[(10, 30), (40, 50)]));
    }

    #[test]
    fn membership() {
        let s = set(&[(10, 20), (30, 40)]);
        assert!(s.contains(ts(10)));
        assert!(s.contains(ts(19)));
        assert!(!s.contains(ts(20)), "end is exclusive");
        assert!(!s.contains(ts(25)));
        assert!(s.contains(ts(35)));
        assert!(!s.contains(ts(5)));
    }

    #[test]
    fn union_and_intersection() {
        let a = set(&[(0, 10), (20, 30)]);
        let b = set(&[(5, 25)]);
        assert_eq!(a.union(&b), set(&[(0, 30)]));
        assert_eq!(a.intersect(&b), set(&[(5, 10), (20, 25)]));
    }

    #[test]
    fn intersection_with_empty_is_empty() {
        let a = set(&[(0, 10)]);
        assert!(a.intersect(&IntervalSet::new()).intervals().is_empty());
    }

    #[test]
    fn complement_within_horizon() {
        let a = set(&[(10, 20), (30, 40)]);
        let c = a.complement(ts(0), ts(50));
        assert_eq!(c, set(&[(0, 10), (20, 30), (40, 50)]));
        // Complement round-trips.
        assert_eq!(c.complement(ts(0), ts(50)), a);
    }

    #[test]
    fn complement_of_empty_is_horizon() {
        let c = IntervalSet::new().complement(ts(5), ts(10));
        assert_eq!(c, set(&[(5, 10)]));
    }

    #[test]
    fn clip_restricts_range() {
        let a = set(&[(0, 100)]);
        assert_eq!(a.clip(ts(20), ts(30)), set(&[(20, 30)]));
        assert!(a.clip(ts(200), ts(300)).intervals().is_empty());
    }

    #[test]
    fn total_nanos_sums_durations() {
        let a = set(&[(0, 10), (20, 25)]);
        assert_eq!(a.total_nanos(), 15 * 1_000_000);
    }
}
