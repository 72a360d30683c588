//! Time sources.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::{Duration, Timestamp};

/// A source of session time.
///
/// All DejaView components read time through this trait so that tests and
/// benchmarks can substitute a deterministic [`SimClock`].
pub trait Clock: Send + Sync {
    /// Returns the current session time.
    fn now(&self) -> Timestamp;
}

/// A shared, reference-counted clock handle.
pub type SharedClock = Arc<dyn Clock>;

/// A manually advanced simulation clock.
///
/// Cloning shares the underlying counter, so a workload driver can advance
/// time while recorders observe it.
///
/// # Examples
///
/// ```
/// use dv_time::{Clock, Duration, SimClock, Timestamp};
///
/// let clock = SimClock::new();
/// clock.advance(Duration::from_millis(40));
/// assert_eq!(clock.now(), Timestamp::from_millis(40));
/// ```
#[derive(Clone, Debug, Default)]
pub struct SimClock {
    nanos: Arc<AtomicU64>,
}

impl SimClock {
    /// Creates a clock starting at [`Timestamp::ZERO`].
    pub fn new() -> Self {
        SimClock::default()
    }

    /// Creates a clock starting at `start`.
    pub fn starting_at(start: Timestamp) -> Self {
        let clock = SimClock::new();
        clock.nanos.store(start.as_nanos(), Ordering::SeqCst);
        clock
    }

    /// Advances the clock by `d` and returns the new time.
    pub fn advance(&self, d: Duration) -> Timestamp {
        let now = self.nanos.fetch_add(d.as_nanos(), Ordering::SeqCst) + d.as_nanos();
        Timestamp::from_nanos(now)
    }

    /// Sets the clock to `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the current time; session time never
    /// moves backwards.
    pub fn set(&self, t: Timestamp) {
        let cur = self.nanos.load(Ordering::SeqCst);
        assert!(
            t.as_nanos() >= cur,
            "session time cannot move backwards ({t:?} < {:?})",
            Timestamp::from_nanos(cur)
        );
        self.nanos.store(t.as_nanos(), Ordering::SeqCst);
    }

    /// Returns a shareable trait-object handle to this clock.
    pub fn shared(&self) -> SharedClock {
        Arc::new(self.clone())
    }
}

impl Clock for SimClock {
    fn now(&self) -> Timestamp {
        Timestamp::from_nanos(self.nanos.load(Ordering::SeqCst))
    }
}

/// A wall clock anchored at its creation instant.
///
/// Used when running DejaView interactively (the examples) rather than
/// under a deterministic workload driver.
#[derive(Clone, Debug)]
pub struct WallClock {
    origin: std::time::Instant,
}

impl WallClock {
    /// Creates a wall clock whose session time starts now.
    fn new() -> Self {
        WallClock {
            origin: std::time::Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> Timestamp {
        Timestamp::from_nanos(self.origin.elapsed().as_nanos() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_clock_starts_at_zero_and_advances() {
        let clock = SimClock::new();
        assert_eq!(clock.now(), Timestamp::ZERO);
        assert_eq!(
            clock.advance(Duration::from_secs(2)),
            Timestamp::from_secs(2)
        );
        assert_eq!(clock.now(), Timestamp::from_secs(2));
    }

    #[test]
    fn sim_clock_clones_share_state() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance(Duration::from_millis(7));
        assert_eq!(b.now(), Timestamp::from_millis(7));
    }

    #[test]
    fn sim_clock_set_moves_forward() {
        let clock = SimClock::new();
        clock.set(Timestamp::from_secs(5));
        assert_eq!(clock.now(), Timestamp::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn sim_clock_rejects_backwards_set() {
        let clock = SimClock::starting_at(Timestamp::from_secs(10));
        clock.set(Timestamp::from_secs(9));
    }

    #[test]
    fn wall_clock_is_monotonic() {
        let clock = WallClock::new();
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }

    #[test]
    fn shared_handle_observes_advances() {
        let clock = SimClock::new();
        let shared = clock.shared();
        clock.advance(Duration::from_secs(1));
        assert_eq!(shared.now(), Timestamp::from_secs(1));
    }
}
