//! Rate limiting for the checkpoint policy.

use crate::{Duration, Timestamp};

/// A minimum-interval rate limiter.
///
/// DejaView's checkpoint policy limits checkpoints to "at most once per
/// second by default", and drops to once every ten seconds during text
/// editing (§5.1.3). The limiter is driven by explicit session timestamps
/// rather than a clock handle so the policy stays a pure function of its
/// inputs.
///
/// # Examples
///
/// ```
/// use dv_time::{Duration, RateLimiter, Timestamp};
///
/// let mut limiter = RateLimiter::new(Duration::from_secs(1));
/// assert!(limiter.try_acquire(Timestamp::from_millis(0)));
/// assert!(!limiter.try_acquire(Timestamp::from_millis(400)));
/// assert!(limiter.try_acquire(Timestamp::from_millis(1_000)));
/// ```
#[derive(Clone, Debug)]
pub struct RateLimiter {
    min_interval: Duration,
    last: Option<Timestamp>,
}

impl RateLimiter {
    /// Creates a limiter that allows one acquisition per `min_interval`.
    pub fn new(min_interval: Duration) -> Self {
        RateLimiter {
            min_interval,
            last: None,
        }
    }

    /// Changes the minimum interval; the next acquisition is evaluated
    /// against the new value.
    #[cfg(test)]
    fn set_min_interval(&mut self, min_interval: Duration) {
        self.min_interval = min_interval;
    }

    /// Attempts an acquisition at time `now`; returns whether it was
    /// allowed. The first acquisition is always allowed.
    pub fn try_acquire(&mut self, now: Timestamp) -> bool {
        if self.would_allow(now) {
            self.last = Some(now);
            true
        } else {
            false
        }
    }

    /// Returns whether an acquisition at `now` would be allowed, without
    /// consuming it.
    fn would_allow(&self, now: Timestamp) -> bool {
        match self.last {
            None => true,
            Some(last) => now.saturating_since(last) >= self.min_interval,
        }
    }

    /// Returns the time of the last allowed acquisition.
    pub fn last_acquired(&self) -> Option<Timestamp> {
        self.last
    }

    /// Forgets the last acquisition, letting the next attempt through
    /// immediately.
    #[cfg(test)]
    fn reset(&mut self) {
        self.last = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_acquire_is_free() {
        let mut limiter = RateLimiter::new(Duration::from_secs(10));
        assert!(limiter.try_acquire(Timestamp::ZERO));
    }

    #[test]
    fn enforces_min_interval() {
        let mut limiter = RateLimiter::new(Duration::from_secs(1));
        assert!(limiter.try_acquire(Timestamp::from_secs(1)));
        assert!(!limiter.try_acquire(Timestamp::from_millis(1_999)));
        assert!(limiter.try_acquire(Timestamp::from_millis(2_000)));
    }

    #[test]
    fn denied_attempts_do_not_push_back_window() {
        let mut limiter = RateLimiter::new(Duration::from_secs(1));
        assert!(limiter.try_acquire(Timestamp::ZERO));
        for ms in (100..1_000).step_by(100) {
            assert!(!limiter.try_acquire(Timestamp::from_millis(ms)));
        }
        assert!(limiter.try_acquire(Timestamp::from_secs(1)));
    }

    #[test]
    fn interval_change_applies_immediately() {
        let mut limiter = RateLimiter::new(Duration::from_secs(1));
        assert!(limiter.try_acquire(Timestamp::ZERO));
        limiter.set_min_interval(Duration::from_secs(10));
        assert!(!limiter.try_acquire(Timestamp::from_secs(5)));
        assert!(limiter.try_acquire(Timestamp::from_secs(10)));
    }

    #[test]
    fn reset_clears_history() {
        let mut limiter = RateLimiter::new(Duration::from_secs(60));
        assert!(limiter.try_acquire(Timestamp::from_secs(1)));
        limiter.reset();
        assert!(limiter.try_acquire(Timestamp::from_secs(2)));
        assert_eq!(limiter.last_acquired(), Some(Timestamp::from_secs(2)));
    }
}
