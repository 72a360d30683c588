//! The lock-cheap metrics registry.
//!
//! Metrics are keyed by `&'static str` names (convention:
//! `"<stream>.<metric>"`, e.g. `"checkpoint.stored_bytes"`). The hot
//! path for an already-registered metric is a shared read lock plus one
//! atomic operation; the write lock is taken only on first use of a
//! name. Counters are monotonic, gauges are levels (queue depths), and
//! histograms are fixed-bucket latency distributions whose snapshots
//! merge associatively, so per-worker or per-run distributions can be
//! combined after the fact.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

/// Number of histogram buckets. The last bucket is unbounded.
pub const BUCKETS: usize = 16;

/// Inclusive upper bounds of the histogram buckets, in nanoseconds:
/// powers of four from 250ns up, covering sub-microsecond metric
/// updates through multi-minute stalls. A recorded value lands in the
/// first bucket whose bound is `>=` the value.
pub const BUCKET_BOUNDS_NANOS: [u64; BUCKETS] = [
    250,
    1_000,
    4_000,
    16_000,
    64_000,
    256_000,
    1_024_000,
    4_096_000,
    16_384_000,
    65_536_000,
    262_144_000,
    1_048_576_000,
    4_194_304_000,
    16_777_216_000,
    67_108_864_000,
    u64::MAX,
];

/// A fixed-bucket latency histogram with atomic updates.
#[derive(Debug, Default)]
struct Histogram {
    counts: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    fn new() -> Self {
        let h = Histogram::default();
        h.min.store(u64::MAX, Ordering::Relaxed);
        h
    }

    /// Records one observation of `nanos`.
    fn observe(&self, nanos: u64) {
        let bucket = BUCKET_BOUNDS_NANOS
            .iter()
            .position(|&b| nanos <= b)
            .unwrap_or(BUCKETS - 1);
        self.counts[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(nanos, Ordering::Relaxed);
        self.min.fetch_min(nanos, Ordering::Relaxed);
        self.max.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Takes a consistent-enough copy for reporting. (Individual fields
    /// are read independently; exactness under concurrent writers is
    /// not required for profiling output.)
    fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = [0u64; BUCKETS];
        for (dst, src) in counts.iter_mut().zip(self.counts.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            counts,
            count: self.count.load(Ordering::Relaxed),
            sum_nanos: self.sum.load(Ordering::Relaxed),
            min_nanos: self.min.load(Ordering::Relaxed),
            max_nanos: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An immutable, mergeable copy of one latency histogram.
///
/// `merge` is associative and commutative, so snapshots taken from
/// different workers (or different runs) can be folded in any order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (bounds in
    /// [`BUCKET_BOUNDS_NANOS`]).
    pub counts: [u64; BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values, in nanoseconds.
    pub sum_nanos: u64,
    /// Smallest observed value (`u64::MAX` when empty).
    pub min_nanos: u64,
    /// Largest observed value (0 when empty).
    pub max_nanos: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            counts: [0; BUCKETS],
            count: 0,
            sum_nanos: 0,
            min_nanos: u64::MAX,
            max_nanos: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Combines two snapshots. Saturating adds keep the operation
    /// associative and commutative even at the extremes.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let mut counts = [0u64; BUCKETS];
        for (i, dst) in counts.iter_mut().enumerate() {
            *dst = self.counts[i].saturating_add(other.counts[i]);
        }
        HistogramSnapshot {
            counts,
            count: self.count.saturating_add(other.count),
            sum_nanos: self.sum_nanos.saturating_add(other.sum_nanos),
            min_nanos: self.min_nanos.min(other.min_nanos),
            max_nanos: self.max_nanos.max(other.max_nanos),
        }
    }
}

/// The metric registry: three name-keyed maps of atomic cells.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<&'static str, Arc<AtomicU64>>>,
    gauges: RwLock<BTreeMap<&'static str, Arc<AtomicU64>>>,
    histograms: RwLock<BTreeMap<&'static str, Arc<Histogram>>>,
}

fn cell(
    map: &RwLock<BTreeMap<&'static str, Arc<AtomicU64>>>,
    name: &'static str,
) -> Arc<AtomicU64> {
    if let Some(c) = map.read().get(name) {
        return c.clone();
    }
    map.write().entry(name).or_default().clone()
}

impl Registry {
    /// Adds `v` to the counter `name`, registering it on first use.
    pub fn counter_add(&self, name: &'static str, v: u64) {
        cell(&self.counters, name).fetch_add(v, Ordering::Relaxed);
    }

    /// Overwrites the counter `name` (see `Obs::set_counter`).
    pub fn counter_set(&self, name: &'static str, v: u64) {
        cell(&self.counters, name).store(v, Ordering::Relaxed);
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .read()
            .get(name)
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Sets the gauge `name` to `v`.
    pub fn gauge_set(&self, name: &'static str, v: u64) {
        cell(&self.gauges, name).store(v, Ordering::Relaxed);
    }

    /// Adds `v` to the gauge `name`.
    pub fn gauge_add(&self, name: &'static str, v: u64) {
        cell(&self.gauges, name).fetch_add(v, Ordering::Relaxed);
    }

    /// Subtracts `v` from the gauge `name`, saturating at zero.
    pub fn gauge_sub(&self, name: &'static str, v: u64) {
        let g = cell(&self.gauges, name);
        let mut cur = g.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(v);
            match g.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value of gauge `name` (0 if never touched).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges
            .read()
            .get(name)
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Records `nanos` into the histogram `name`.
    pub fn observe(&self, name: &'static str, nanos: u64) {
        if let Some(h) = self.histograms.read().get(name) {
            h.observe(nanos);
            return;
        }
        self.histograms
            .write()
            .entry(name)
            .or_insert_with(|| Arc::new(Histogram::new()))
            .observe(nanos);
    }

    /// Snapshot of histogram `name`, if it exists.
    pub fn histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        self.histograms.read().get(name).map(|h| h.snapshot())
    }

    /// Copies every counter into an ordered map.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.counters
            .read()
            .iter()
            .map(|(k, v)| (k.to_string(), v.load(Ordering::Relaxed)))
            .collect()
    }

    /// Copies every gauge into an ordered map.
    pub fn gauges(&self) -> BTreeMap<String, u64> {
        self.gauges
            .read()
            .iter()
            .map(|(k, v)| (k.to_string(), v.load(Ordering::Relaxed)))
            .collect()
    }

    /// Snapshots every histogram into an ordered map.
    pub fn histograms(&self) -> BTreeMap<String, HistogramSnapshot> {
        self.histograms
            .read()
            .iter()
            .map(|(k, v)| (k.to_string(), v.snapshot()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_read_back() {
        let r = Registry::default();
        r.counter_add("a.x", 2);
        r.counter_add("a.x", 3);
        assert_eq!(r.counter("a.x"), 5);
        assert_eq!(r.counter("a.missing"), 0);
        r.counter_set("a.x", 1);
        assert_eq!(r.counter("a.x"), 1);
    }

    #[test]
    fn gauges_move_both_ways() {
        let r = Registry::default();
        r.gauge_set("q.depth", 4);
        r.gauge_sub("q.depth", 1);
        r.gauge_add("q.depth", 2);
        assert_eq!(r.gauge("q.depth"), 5);
        r.gauge_sub("q.depth", 100);
        assert_eq!(r.gauge("q.depth"), 0, "saturates at zero");
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let r = Registry::default();
        r.observe("lat", 100); // bucket 0 (<= 250)
        r.observe("lat", 500_000); // bucket 6 (<= 1_024_000)
        r.observe("lat", u64::MAX); // overflow bucket
        let h = r.histogram("lat").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.counts[6], 1);
        assert_eq!(h.counts[BUCKETS - 1], 1);
        assert_eq!(h.min_nanos, 100);
        assert_eq!(h.max_nanos, u64::MAX);
        assert!(r.histogram("nope").is_none());
    }

    #[test]
    fn snapshot_merge_combines_extremes() {
        let r = Registry::default();
        r.observe("a", 10);
        r.observe("b", 1_000_000);
        let a = r.histogram("a").unwrap();
        let b = r.histogram("b").unwrap();
        let m = a.merge(&b);
        assert_eq!(m.count, 2);
        assert_eq!(m.min_nanos, 10);
        assert_eq!(m.max_nanos, 1_000_000);
        assert_eq!(m.sum_nanos, 1_000_010);
        assert_eq!(a.merge(&b), b.merge(&a));
    }

    #[test]
    fn empty_snapshot_is_merge_identity() {
        let r = Registry::default();
        r.observe("a", 42);
        let a = r.histogram("a").unwrap();
        let id = HistogramSnapshot::default();
        assert_eq!(a.merge(&id), a);
        assert_eq!(id.merge(&a), a);
        assert_eq!((id.count, id.sum_nanos), (0, 0));
    }
}
