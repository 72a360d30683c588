//! Sleeping that respects the session clock.
//!
//! Storage models (the [`crate::SimClock`]-driven tests and the
//! `BlobStore` read-latency model) need to "pay" a latency cost. Under a
//! wall clock that is a real `std::thread::sleep`; under a simulated
//! clock the cost should advance session time instantly instead of
//! stalling the test run. [`Sleeper`] is that choice, made once where
//! the component is constructed instead of at every sleep site.

use crate::{Duration, SimClock};

/// How a component pays a modelled latency cost.
#[derive(Clone, Debug, Default)]
pub enum Sleeper {
    /// Really sleep on the OS clock (interactive runs, wall-clock
    /// benchmarks such as the Figure 7 revive-latency measurement).
    #[default]
    Wall,
    /// Advance a simulation clock by the cost and return immediately
    /// (deterministic tests; no wall-clock stall).
    Sim(SimClock),
}

impl Sleeper {
    /// Pays `cost`: blocks the calling thread (wall) or advances the
    /// simulated session clock (sim).
    pub fn sleep(&self, cost: Duration) {
        match self {
            Sleeper::Wall => std::thread::sleep(cost.to_std()),
            Sleeper::Sim(clock) => {
                clock.advance(cost);
            }
        }
    }

    /// Reads the timebase this sleeper advances, in nanoseconds:
    /// session time for [`Sleeper::Sim`], wall time since a fixed
    /// process origin for [`Sleeper::Wall`]. Only *differences* between
    /// two readings of the same sleeper are meaningful. This lets code
    /// that measures durations around a sleep (the commit pipeline's
    /// enqueue-to-resolve latency) stay deterministic under a sim
    /// clock instead of reaching for `std::time::Instant` directly.
    pub fn now_nanos(&self) -> u64 {
        match self {
            Sleeper::Wall => wall_origin().elapsed().as_nanos() as u64,
            Sleeper::Sim(clock) => {
                use crate::Clock;
                clock.now().as_nanos()
            }
        }
    }
}

/// Process-wide origin for [`Sleeper::Wall`] readings.
fn wall_origin() -> &'static std::time::Instant {
    static ORIGIN: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    ORIGIN.get_or_init(std::time::Instant::now)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Clock, Timestamp};

    #[test]
    fn sim_sleeper_advances_clock_without_stalling() {
        let clock = SimClock::new();
        let sleeper = Sleeper::Sim(clock.clone());
        let started = std::time::Instant::now();
        sleeper.sleep(Duration::from_secs(3600));
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
        assert_eq!(clock.now(), Timestamp::from_secs(3600));
    }

    #[test]
    fn wall_sleeper_really_sleeps() {
        let sleeper = Sleeper::Wall;
        let started = std::time::Instant::now();
        sleeper.sleep(Duration::from_millis(5));
        assert!(started.elapsed() >= std::time::Duration::from_millis(5));
    }

    #[test]
    fn sim_sleeper_now_reads_session_time() {
        let clock = SimClock::new();
        let sleeper = Sleeper::Sim(clock.clone());
        let before = sleeper.now_nanos();
        sleeper.sleep(Duration::from_millis(250));
        assert_eq!(sleeper.now_nanos() - before, 250_000_000);
    }

    #[test]
    fn wall_sleeper_now_advances_monotonically() {
        let sleeper = Sleeper::Wall;
        let a = sleeper.now_nanos();
        sleeper.sleep(Duration::from_millis(2));
        let b = sleeper.now_nanos();
        assert!(b > a);
    }
}
