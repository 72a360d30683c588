//! Session timestamps and durations.

use core::fmt;
use core::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in session time, in nanoseconds since the session started.
///
/// Timestamps are totally ordered and cheap to copy; all on-disk record
/// formats store them as a little-endian `u64`.
///
/// # Examples
///
/// ```
/// use dv_time::{Duration, Timestamp};
///
/// let t = Timestamp::ZERO + Duration::from_millis(1_500);
/// assert_eq!(t.as_millis(), 1_500);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(u64);

/// A span of session time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Timestamp {
    /// The session start.
    pub const ZERO: Timestamp = Timestamp(0);

    /// The greatest representable timestamp; useful as an "end of record"
    /// sentinel for half-open visibility intervals.
    pub const MAX: Timestamp = Timestamp(u64::MAX);

    /// Creates a timestamp from raw nanoseconds since session start.
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        Timestamp(nanos)
    }

    /// Creates a timestamp from whole milliseconds since session start.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Timestamp(ms * 1_000_000)
    }

    /// Creates a timestamp from whole seconds since session start.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        Timestamp(secs * 1_000_000_000)
    }

    /// Returns the raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the timestamp in whole milliseconds (truncating).
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Returns the timestamp as fractional seconds.
    #[inline]
    fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the duration elapsed since `earlier`, saturating to zero
    /// if `earlier` is in the future.
    #[inline]
    pub fn saturating_since(self, earlier: Timestamp) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Returns `self + d`, saturating at [`Timestamp::MAX`].
    #[inline]
    pub fn saturating_add(self, d: Duration) -> Timestamp {
        Timestamp(self.0.saturating_add(d.0))
    }
}

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Creates a duration from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        Duration(nanos)
    }

    /// Creates a duration from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Duration(us * 1_000)
    }

    /// Creates a duration from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        Duration(secs * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid duration: {secs}");
        Duration((secs * 1e9) as u64)
    }

    /// Returns the raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the duration in whole milliseconds (truncating).
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Returns the duration as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns `self` scaled by `factor`, used by playback rate scaling
    /// (for example, 2x playback halves inter-command delays).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    #[inline]
    pub fn scale(self, factor: f64) -> Duration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "invalid scale factor: {factor}"
        );
        Duration((self.0 as f64 * factor) as u64)
    }

    /// Converts to a [`std::time::Duration`] for interop with OS sleeps.
    #[inline]
    pub fn to_std(self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.0)
    }
}

impl Add<Duration> for Timestamp {
    type Output = Timestamp;

    #[inline]
    fn add(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Timestamp {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for Timestamp {
    type Output = Timestamp;

    #[inline]
    fn sub(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 - rhs.0)
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = Duration;

    #[inline]
    fn sub(self, rhs: Timestamp) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl Add for Duration {
    type Output = Duration;

    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;

    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    #[inline]
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl fmt::Debug for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T+{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_arithmetic_round_trips() {
        let t = Timestamp::from_millis(250);
        let d = Duration::from_millis(750);
        assert_eq!((t + d).as_millis(), 1_000);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let early = Timestamp::from_secs(1);
        let late = Timestamp::from_secs(2);
        assert_eq!(late.saturating_since(early), Duration::from_secs(1));
        assert_eq!(early.saturating_since(late), Duration::ZERO);
    }

    #[test]
    fn duration_scaling() {
        let d = Duration::from_millis(100);
        assert_eq!(d.scale(0.5), Duration::from_millis(50));
        assert_eq!(d.scale(2.0), Duration::from_millis(200));
        assert_eq!(d.scale(0.0), Duration::ZERO);
    }

    #[test]
    fn conversions_are_consistent() {
        assert_eq!(Timestamp::from_secs(3), Timestamp::from_millis(3_000));
        assert_eq!(Duration::from_secs(2), Duration::from_millis(2_000));
        assert_eq!(Duration::from_millis(5), Duration::from_micros(5_000));
        assert_eq!(Duration::from_secs_f64(1.5).as_millis(), 1_500);
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn negative_seconds_panic() {
        let _ = Duration::from_secs_f64(-1.0);
    }

    #[test]
    fn ordering_follows_nanos() {
        assert!(Timestamp::from_nanos(5) < Timestamp::from_nanos(6));
        assert!(Timestamp::MAX > Timestamp::from_secs(1_000_000));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Timestamp::from_millis(1500)), "1.500s");
        assert_eq!(format!("{}", Duration::from_millis(2)), "2.000ms");
        assert_eq!(format!("{}", Duration::from_nanos(17)), "17ns");
    }
}
