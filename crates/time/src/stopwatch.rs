//! Wall-clock phase attribution for checkpoint latency (Figure 3).

use std::time::Instant;

use crate::Duration;

/// A stopwatch that attributes elapsed wall-clock time to named phases.
///
/// The checkpoint engine uses one `PhaseTimer` per checkpoint to decompose
/// total latency into the five phases the paper reports: pre-checkpoint,
/// quiesce, capture, file system snapshot, and writeback.
///
/// # Examples
///
/// ```
/// use dv_time::PhaseTimer;
///
/// let mut timer = PhaseTimer::new();
/// timer.enter("capture");
/// // ... do the capture ...
/// timer.enter("writeback");
/// // ... write data out ...
/// let breakdown = timer.finish();
/// assert_eq!(breakdown.phases().len(), 2);
/// ```
#[derive(Debug)]
pub struct PhaseTimer {
    current: Option<(&'static str, Instant)>,
    phases: Vec<(&'static str, Duration)>,
}

impl PhaseTimer {
    /// Creates an idle timer with no active phase.
    pub fn new() -> Self {
        PhaseTimer {
            current: None,
            phases: Vec::new(),
        }
    }

    /// Ends the current phase (if any) and begins `name`.
    pub fn enter(&mut self, name: &'static str) {
        self.close_current();
        self.current = Some((name, Instant::now()));
    }

    /// Ends the current phase and returns the recorded breakdown.
    pub fn finish(mut self) -> PhaseBreakdown {
        self.close_current();
        PhaseBreakdown {
            phases: self.phases,
        }
    }

    fn close_current(&mut self) {
        if let Some((name, start)) = self.current.take() {
            let elapsed = Duration::from_nanos(start.elapsed().as_nanos() as u64);
            // Merge repeated entries of the same phase so interleaved
            // work (e.g. capture resumed after a fault) accumulates.
            if let Some(entry) = self.phases.iter_mut().find(|(n, _)| *n == name) {
                entry.1 += elapsed;
            } else {
                self.phases.push((name, elapsed));
            }
        }
    }
}

impl Default for PhaseTimer {
    fn default() -> Self {
        PhaseTimer::new()
    }
}

/// The result of a [`PhaseTimer`]: per-phase wall-clock durations in the
/// order the phases were first entered.
#[derive(Clone, Debug, Default)]
pub struct PhaseBreakdown {
    phases: Vec<(&'static str, Duration)>,
}

impl PhaseBreakdown {
    /// Returns the recorded `(phase, duration)` pairs.
    pub fn phases(&self) -> &[(&'static str, Duration)] {
        &self.phases
    }

    /// Returns the duration recorded for `name`, or zero if absent.
    pub fn get(&self, name: &str) -> Duration {
        self.phases
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, d)| *d)
            .unwrap_or(Duration::ZERO)
    }

    /// Returns the sum over all phases.
    pub fn total(&self) -> Duration {
        self.phases
            .iter()
            .fold(Duration::ZERO, |acc, (_, d)| acc + *d)
    }

    /// Returns the sum over the named subset of phases; used to compute
    /// "downtime" (quiesce + capture + fs snapshot) from a full breakdown.
    pub fn subset_total(&self, names: &[&str]) -> Duration {
        names
            .iter()
            .fold(Duration::ZERO, |acc, n| acc + self.get(n))
    }

    /// Merges another breakdown into this one, phase by phase; used to
    /// average many checkpoints.
    pub fn accumulate(&mut self, other: &PhaseBreakdown) {
        for (name, d) in &other.phases {
            if let Some(entry) = self.phases.iter_mut().find(|(n, _)| n == name) {
                entry.1 += *d;
            } else {
                self.phases.push((name, *d));
            }
        }
    }

    /// Divides every phase by `count`, turning an accumulated breakdown
    /// into a mean.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn divide(&mut self, count: u64) {
        assert!(count > 0, "cannot average over zero checkpoints");
        for (_, d) in &mut self.phases {
            *d = Duration::from_nanos(d.as_nanos() / count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_record_in_entry_order() {
        let mut timer = PhaseTimer::new();
        timer.enter("a");
        timer.enter("b");
        timer.enter("c");
        let breakdown = timer.finish();
        let names: Vec<_> = breakdown.phases().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }

    #[test]
    fn repeated_phase_accumulates() {
        let mut timer = PhaseTimer::new();
        timer.enter("x");
        timer.enter("y");
        timer.enter("x");
        let breakdown = timer.finish();
        let names: Vec<_> = breakdown.phases().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["x", "y"], "the second entry folds into the first");
    }

    #[test]
    fn total_is_sum_of_phases() {
        let mut timer = PhaseTimer::new();
        timer.enter("a");
        std::thread::sleep(std::time::Duration::from_millis(1));
        timer.enter("b");
        let breakdown = timer.finish();
        assert_eq!(breakdown.total(), breakdown.get("a") + breakdown.get("b"));
        assert!(breakdown.get("a") >= Duration::from_millis(1));
    }

    #[test]
    fn subset_total_selects_named_phases() {
        let mut acc = PhaseBreakdown::default();
        let mut timer = PhaseTimer::new();
        timer.enter("quiesce");
        timer.enter("capture");
        timer.enter("writeback");
        acc.accumulate(&timer.finish());
        let downtime = acc.subset_total(&["quiesce", "capture"]);
        assert_eq!(downtime, acc.get("quiesce") + acc.get("capture"));
        assert!(acc.total() >= downtime);
    }

    #[test]
    fn accumulate_and_divide_average() {
        let mut acc = PhaseBreakdown::default();
        for _ in 0..4 {
            let mut timer = PhaseTimer::new();
            timer.enter("p");
            acc.accumulate(&timer.finish());
        }
        let before = acc.get("p");
        acc.divide(4);
        assert_eq!(acc.get("p").as_nanos(), before.as_nanos() / 4);
    }

    #[test]
    fn missing_phase_reads_zero() {
        let breakdown = PhaseTimer::new().finish();
        assert_eq!(breakdown.get("nope"), Duration::ZERO);
        assert_eq!(breakdown.total(), Duration::ZERO);
    }
}
