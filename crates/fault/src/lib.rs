//! Deterministic fault-injection plane for the DejaView storage stack.
//!
//! DejaView's durability claims (§5 of the paper: every checkpoint is a
//! consistent recovery point; display recording survives storage
//! hiccups) are only credible if the storage stack is exercised under
//! failure. This crate provides the machinery:
//!
//! - [`IoFault`] — the failure vocabulary: torn writes, short reads,
//!   out-of-space, silent corruption, latency spikes.
//! - [`FaultPlane`] — a cloneable handle threaded through every IO site
//!   in `dv-lsfs`, `dv-cas`, `dv-checkpoint`, `dv-record`, `dv-index`
//!   and `dv-net`, and through `dv_lsfs::sealed`, which checks the seal
//!   and compaction sites on behalf of `dv-tidx` and `dv-vidx`. A
//!   disabled plane (the default) is a `None` and costs one branch per
//!   IO operation.
//! - [`FaultPlan`] — a seeded builder describing *which* site fails,
//!   *when* (nth call, every-nth, probability, always), and *how*.
//!   Identical plans produce identical injection schedules.
//! - [`crash`] — power-cut surgery on serialized `Lsfs` images for
//!   crash-consistency testing: truncate the log at an arbitrary byte
//!   boundary and let recovery prove it lands on a valid prior state.
//! - [`checksum`] — the CRC32 used by the journal record framing, and
//!   the FNV-1a content hash.
//! - [`reader`] — the one checked reader every stored and wire format
//!   is decoded through, and its write side.
//!
//! `dv-fault` is a leaf crate: the storage crates depend on it, never
//! the reverse (its only dependency is the even deeper `dv-obs`
//! observability spine, so every injected fault can surface as a traced
//! event). The crash harness therefore manipulates the documented
//! on-disk container layout directly rather than importing `dv-lsfs`
//! types; a cross-crate test in `dv-lsfs` pins that contract.

#![deny(unsafe_code)]

use std::collections::BTreeMap;
use std::sync::Arc;

use dv_obs::Obs;
use parking_lot::Mutex;

pub mod checksum;
pub mod crash;
pub mod reader;
pub mod sites;

pub use reader::{Put, ReadError, Reader};

/// One kind of injectable IO failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IoFault {
    /// The write persists only a prefix of the data, then errors.
    TornWrite,
    /// The read returns fewer bytes than requested.
    ShortRead,
    /// The write fails cleanly with no space left; nothing persists.
    Enospc,
    /// The operation "succeeds" but the data is silently mangled.
    Corrupt,
    /// The operation succeeds but is counted as abnormally slow.
    LatencySpike,
}

impl IoFault {
    /// All kinds, for exhaustive fault-matrix tests.
    pub const ALL: [IoFault; 5] = [
        IoFault::TornWrite,
        IoFault::ShortRead,
        IoFault::Enospc,
        IoFault::Corrupt,
        IoFault::LatencySpike,
    ];
}

/// When a rule fires.
#[derive(Clone, Copy, Debug)]
enum Trigger {
    /// Fire on exactly the `n`-th check of the site (1-based), once.
    Nth(u64),
    /// Fire on the `n`-th check of the site and every one after it.
    FromNth(u64),
    /// Fire on every `n`-th check of the site.
    EveryNth(u64),
    /// Fire with probability `p` per check, from the plan's seed.
    Probability(f64),
    /// Fire on every check.
    Always,
}

#[derive(Clone, Debug)]
struct Rule {
    trigger: Trigger,
    fault: IoFault,
}

/// Per-site observation counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SiteStats {
    /// How many times the site asked the plane.
    pub checks: u64,
    /// How many times a fault was injected there.
    pub injected: u64,
}

/// A snapshot of everything the plane has done so far.
#[derive(Clone, Debug, Default)]
pub struct FaultStats {
    pub sites: BTreeMap<String, SiteStats>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Debug)]
struct PlaneState {
    rng: u64,
    armed: bool,
    rules: BTreeMap<&'static str, Vec<Rule>>,
    stats: BTreeMap<&'static str, SiteStats>,
    obs: Obs,
}

#[derive(Debug)]
struct Inner {
    state: Mutex<PlaneState>,
}

/// Handle checked at every instrumented IO site.
///
/// Cloning is cheap (an `Arc` bump); all clones share one schedule and
/// one set of counters, so a plan armed at the server level is observed
/// consistently by the filesystem, checkpointer, recorder, and index.
/// The default (disabled) plane holds no allocation and
/// [`check`](FaultPlane::check) is a single `None` test.
#[derive(Clone, Debug, Default)]
pub struct FaultPlane {
    inner: Option<Arc<Inner>>,
}

impl FaultPlane {
    /// The no-op plane: never injects, costs one branch per check.
    pub fn disabled() -> Self {
        FaultPlane { inner: None }
    }

    /// Ask whether this IO operation should fail, and how.
    ///
    /// Counts the check, evaluates the site's rules in insertion order,
    /// and returns the first fault that fires. Disabled planes return
    /// `None` without locking anything.
    #[inline]
    pub fn check(&self, site: &'static str) -> Option<IoFault> {
        let inner = self.inner.as_ref()?;
        let mut state = inner.state.lock();
        let entry = state.stats.entry(site).or_default();
        entry.checks += 1;
        let nth = entry.checks;
        state.obs.incr(dv_obs::names::FAULT_CHECKS);
        if !state.armed {
            return None;
        }
        let rules = match state.rules.get(site) {
            Some(rules) => rules.clone(),
            None => return None,
        };
        let mut fired = None;
        for rule in &rules {
            let hit = match rule.trigger {
                Trigger::Nth(n) => nth == n,
                Trigger::FromNth(n) => nth >= n,
                Trigger::EveryNth(n) => nth % n == 0,
                Trigger::Probability(p) => {
                    let roll =
                        (splitmix64(&mut state.rng) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                    roll < p
                }
                Trigger::Always => true,
            };
            if hit {
                fired = Some(rule.fault);
                break;
            }
        }
        if let Some(fault) = fired {
            state.stats.entry(site).or_default().injected += 1;
            state.obs.incr(dv_obs::names::FAULT_INJECTED);
            state.obs.event(
                "fault",
                dv_obs::names::EV_FAULT_INJECTED,
                format!("site={site} fault={fault:?} nth={nth}"),
            );
            Some(fault)
        } else {
            None
        }
    }

    /// Attaches an observability handle: from now on every check is
    /// counted and every injected fault becomes a traced event, so
    /// fault tests can assert on observability output. No-op on a
    /// disabled plane.
    pub fn set_obs(&self, obs: Obs) {
        // A disabled handle is ignored: components propagate their own
        // obs when a plane is installed, and a late-constructed,
        // un-instrumented component (e.g. a revived session's engine)
        // must not tear down the wiring on the shared plane state.
        if !obs.is_enabled() {
            return;
        }
        if let Some(inner) = &self.inner {
            inner.state.lock().obs = obs;
        }
    }

    /// Start injecting. Plans built by [`FaultPlan::build`] start armed;
    /// this re-enables after [`disarm`](FaultPlane::disarm).
    pub fn arm(&self) {
        if let Some(inner) = &self.inner {
            inner.state.lock().armed = true;
        }
    }

    /// Stop injecting (checks are still counted).
    pub fn disarm(&self) {
        if let Some(inner) = &self.inner {
            inner.state.lock().armed = false;
        }
    }

    /// Snapshot of per-site counters.
    pub fn stats(&self) -> FaultStats {
        let mut out = FaultStats::default();
        if let Some(inner) = &self.inner {
            let state = inner.state.lock();
            for (site, stats) in &state.stats {
                out.sites.insert((*site).to_string(), *stats);
            }
        }
        out
    }

    /// Injections recorded at one site.
    pub fn injected_at(&self, site: &str) -> u64 {
        self.stats().sites.get(site).map_or(0, |s| s.injected)
    }

    /// Deterministic index of the byte a [`IoFault::Corrupt`] flip
    /// should hit, for a buffer of `len` bytes.
    fn corrupt_index(&self, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        match &self.inner {
            Some(inner) => (splitmix64(&mut inner.state.lock().rng) % len as u64) as usize,
            None => len / 2,
        }
    }

    /// Deterministic shortened length for a [`IoFault::ShortRead`] (or
    /// the persisted prefix of a [`IoFault::TornWrite`]): strictly less
    /// than `len` whenever `len > 0`.
    pub fn short_len(&self, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        match &self.inner {
            Some(inner) => (splitmix64(&mut inner.state.lock().rng) % len as u64) as usize,
            None => len / 2,
        }
    }

    /// Flip one byte in place (the standard [`IoFault::Corrupt`]
    /// realization). No-op on empty buffers.
    pub fn mangle(&self, data: &mut [u8]) {
        if data.is_empty() {
            return;
        }
        let idx = self.corrupt_index(data.len());
        data[idx] ^= 0xA5;
    }
}

/// Builder for a deterministic injection schedule.
///
/// ```
/// use dv_fault::{sites, FaultPlan, IoFault};
///
/// let plane = FaultPlan::new(42)
///     .fail_nth(sites::LSFS_DISK_APPEND, 3, IoFault::TornWrite)
///     .probability(sites::LSFS_BLOB_PUT, 0.25, IoFault::Enospc)
///     .build();
/// assert_eq!(plane.check(sites::LSFS_DISK_APPEND), None);
/// assert_eq!(plane.check(sites::LSFS_DISK_APPEND), None);
/// assert_eq!(
///     plane.check(sites::LSFS_DISK_APPEND),
///     Some(IoFault::TornWrite)
/// );
/// ```
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rules: BTreeMap<&'static str, Vec<Rule>>,
}

impl FaultPlan {
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: BTreeMap::new(),
        }
    }

    fn push(mut self, site: &'static str, trigger: Trigger, fault: IoFault) -> Self {
        self.rules
            .entry(site)
            .or_default()
            .push(Rule { trigger, fault });
        self
    }

    /// Fail exactly the `n`-th operation at `site` (1-based).
    pub fn fail_nth(self, site: &'static str, n: u64, fault: IoFault) -> Self {
        assert!(n > 0, "nth is 1-based");
        self.push(site, Trigger::Nth(n), fault)
    }

    /// Fail the `n`-th operation at `site` (1-based) and every later
    /// one — "the disk fills up at this point and stays full".
    pub fn from_nth(self, site: &'static str, n: u64, fault: IoFault) -> Self {
        assert!(n > 0, "nth is 1-based");
        self.push(site, Trigger::FromNth(n), fault)
    }

    /// Fail every `n`-th operation at `site`.
    pub fn every_nth(self, site: &'static str, n: u64, fault: IoFault) -> Self {
        assert!(n > 0, "period must be positive");
        self.push(site, Trigger::EveryNth(n), fault)
    }

    /// Fail each operation at `site` with probability `p`, drawn from
    /// the plan's seed.
    pub fn probability(self, site: &'static str, p: f64, fault: IoFault) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.push(site, Trigger::Probability(p), fault)
    }

    /// Fail every operation at `site`.
    pub fn always(self, site: &'static str, fault: IoFault) -> Self {
        self.push(site, Trigger::Always, fault)
    }

    /// Finish the plan; the returned plane starts armed.
    pub fn build(self) -> FaultPlane {
        FaultPlane {
            inner: Some(Arc::new(Inner {
                state: Mutex::new(PlaneState {
                    rng: self.seed ^ 0x5851_F42D_4C95_7F2D,
                    armed: true,
                    rules: self.rules,
                    stats: BTreeMap::new(),
                    obs: Obs::disabled(),
                }),
            })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plane_never_injects() {
        let plane = FaultPlane::disabled();
        assert!(plane.inner.is_none());
        for _ in 0..100 {
            assert_eq!(plane.check(sites::LSFS_DISK_APPEND), None);
        }
        assert!(plane.stats().sites.is_empty());
    }

    #[test]
    fn nth_fires_once_at_the_right_call() {
        let plane = FaultPlan::new(1)
            .fail_nth(sites::LSFS_JOURNAL_COMMIT, 2, IoFault::Enospc)
            .build();
        assert_eq!(plane.check(sites::LSFS_JOURNAL_COMMIT), None);
        assert_eq!(
            plane.check(sites::LSFS_JOURNAL_COMMIT),
            Some(IoFault::Enospc)
        );
        assert_eq!(plane.check(sites::LSFS_JOURNAL_COMMIT), None);
        assert_eq!(plane.injected_at(sites::LSFS_JOURNAL_COMMIT), 1);
        assert_eq!(plane.stats().sites[sites::LSFS_JOURNAL_COMMIT].checks, 3);
    }

    #[test]
    fn from_nth_fires_from_the_cutover_onward() {
        let plane = FaultPlan::new(1)
            .from_nth(sites::LSFS_BLOB_PUT, 3, IoFault::Enospc)
            .build();
        let hits: Vec<bool> = (0..6)
            .map(|_| plane.check(sites::LSFS_BLOB_PUT).is_some())
            .collect();
        assert_eq!(hits, [false, false, true, true, true, true]);
    }

    #[test]
    fn every_nth_is_periodic() {
        let plane = FaultPlan::new(1)
            .every_nth(sites::RECORD_LOG_APPEND, 3, IoFault::LatencySpike)
            .build();
        let hits: Vec<bool> = (0..9)
            .map(|_| plane.check(sites::RECORD_LOG_APPEND).is_some())
            .collect();
        assert_eq!(
            hits,
            [false, false, true, false, false, true, false, false, true]
        );
    }

    #[test]
    fn probability_is_seed_deterministic() {
        let run = |seed| {
            let plane = FaultPlan::new(seed)
                .probability(sites::LSFS_BLOB_PUT, 0.5, IoFault::Corrupt)
                .build();
            (0..64)
                .map(|_| plane.check(sites::LSFS_BLOB_PUT).is_some())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
        let hits = run(7).iter().filter(|h| **h).count();
        assert!((16..48).contains(&hits), "p=0.5 wildly off: {hits}/64");
    }

    #[test]
    fn arm_disarm_gate_injection_not_counting() {
        let plane = FaultPlan::new(1)
            .always(sites::CHECKPOINT_WRITEBACK, IoFault::TornWrite)
            .build();
        assert!(plane.check(sites::CHECKPOINT_WRITEBACK).is_some());
        plane.disarm();
        assert_eq!(plane.check(sites::CHECKPOINT_WRITEBACK), None);
        plane.arm();
        assert!(plane.check(sites::CHECKPOINT_WRITEBACK).is_some());
        let stats = plane.stats().sites[sites::CHECKPOINT_WRITEBACK];
        assert_eq!(stats.checks, 3);
        assert_eq!(stats.injected, 2);
    }

    #[test]
    fn clones_share_schedule_and_counters() {
        let plane = FaultPlan::new(1)
            .fail_nth(sites::INDEX_SEGMENT_FLUSH, 2, IoFault::Enospc)
            .build();
        let clone = plane.clone();
        assert_eq!(plane.check(sites::INDEX_SEGMENT_FLUSH), None);
        assert_eq!(
            clone.check(sites::INDEX_SEGMENT_FLUSH),
            Some(IoFault::Enospc)
        );
        assert_eq!(plane.stats().sites[sites::INDEX_SEGMENT_FLUSH].checks, 2);
    }

    #[test]
    fn mangle_flips_exactly_one_byte() {
        let plane = FaultPlan::new(9).build();
        let original = vec![0u8; 64];
        let mut mangled = original.clone();
        plane.mangle(&mut mangled);
        let diffs = original
            .iter()
            .zip(&mangled)
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(diffs, 1);
        plane.mangle(&mut []);
    }

    #[test]
    fn injections_surface_in_observability() {
        let obs = Obs::sim();
        let plane = FaultPlan::new(1)
            .fail_nth(sites::LSFS_JOURNAL_COMMIT, 2, IoFault::Enospc)
            .build();
        plane.set_obs(obs.clone());
        assert_eq!(plane.check(sites::LSFS_JOURNAL_COMMIT), None);
        assert_eq!(
            plane.check(sites::LSFS_JOURNAL_COMMIT),
            Some(IoFault::Enospc)
        );
        assert_eq!(obs.counter(dv_obs::names::FAULT_CHECKS), 2);
        assert_eq!(obs.counter(dv_obs::names::FAULT_INJECTED), 1);
        let events = obs.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, dv_obs::names::EV_FAULT_INJECTED);
        assert!(events[0].detail.contains(sites::LSFS_JOURNAL_COMMIT));
        assert!(events[0].detail.contains("Enospc"));
    }

    #[test]
    fn short_len_is_strictly_shorter() {
        let plane = FaultPlan::new(3).build();
        for len in [1usize, 2, 17, 4096] {
            for _ in 0..8 {
                assert!(plane.short_len(len) < len);
            }
        }
        assert_eq!(plane.short_len(0), 0);
    }
}
