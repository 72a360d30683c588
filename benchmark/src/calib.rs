//! The calibration kernel.
//!
//! The reference box is a two-vCPU VM on a shared host, and it has two
//! speeds: for anything from 20 ms to a minute at a time the same
//! instructions take about half as long again as in the spells between
//! (a sort of 16 Ki integers on an otherwise idle VM: 350 µs or 550 µs
//! and little in between; over one ten-minute watch half the time
//! each, over another all but fast). The record phase of one binary on
//! one seed took 5.8 to 8.4 s in eight back-to-back runs, with user CPU
//! equal to wall and page faults constant, so a slow spell would read
//! as a slow program. The slowdown hits busy, branchy, cache-resident
//! code, which is what the stack under test mostly is; streaming
//! copies and pointer chases barely feel it and were tried and dropped
//! as calibrators. A kernel of the right kind tracks it: sorting 16 Ki
//! integers and counting the words of a 28 KB text in a hash map. Over
//! those eight runs record wall divided by the kernel's median time
//! varied by 7 %, not 46 %.
//!
//! The kernel is no perfect stand-in. Operations of a few tens of
//! microseconds (an input probe, a checkpoint of three dirty pages)
//! slow down about twice as much as the kernel does, operations of
//! milliseconds about four fifths as much, and how much changes with
//! the kind of contention; a second kernel made of small queued
//! messages and a third that copies memory were tried beside this one
//! and tracked the short operations no better. What is left after
//! scaling is the spread in the README's table.
//!
//! So the kernel runs beside the measured work all through a run, and
//! every measured interval is scaled by `REFERENCE_NS / kernel time
//! nearby`: times are reported as on a box where the kernel takes
//! [`REFERENCE_NS`]. The kernel never changes with the program, so a
//! slower program still reads slower. Walls as the clock read them are
//! printed beside the scaled ones.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// What one kernel run takes inside this process on the reference box
/// in a fast spell.
pub const REFERENCE_NS: f64 = 460_000.0;

/// Seconds of measured work between kernel runs: often enough to follow
/// the box, rare enough to cost a few percent.
const REFRESH_AFTER_S: f64 = 0.020;

const SORT_LEN: usize = 16 << 10;
const WORDS: [&str; 5] = ["kernel ", "Driver, ", "module-", "object\n", "symbol "];

/// Scales measured intervals to the reference box, re-running the
/// kernel as measured work accumulates. Kernel time is never part of a
/// measured interval.
pub struct Pace {
    numbers: Vec<u32>,
    text: String,
    recent: [f64; 3],
    /// Sum of every kernel run, for the report.
    total_ns: f64,
    runs: u64,
    since_s: f64,
}

impl Pace {
    pub fn new() -> Self {
        let mut x = 0x9E37_79B9u32;
        let numbers = (0..SORT_LEN)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x
            })
            .collect();
        let mut pace = Pace {
            numbers,
            text: (0..4000).map(|i| WORDS[i % WORDS.len()]).collect(),
            recent: [0.0; 3],
            total_ns: 0.0,
            runs: 0,
            since_s: 0.0,
        };
        // One run to warm the kernel's own code and data, three to
        // fill the window.
        for _ in 0..4 {
            pace.refresh();
        }
        pace
    }

    /// Runs the kernel once and returns its wall time in nanoseconds.
    fn kernel(&self) -> f64 {
        let t0 = Instant::now();
        let mut sorted = black_box(&self.numbers).clone();
        sorted.sort_unstable();
        let mut counts: HashMap<String, u32> = HashMap::new();
        for word in black_box(&self.text)
            .split(|c: char| !c.is_alphanumeric())
            .filter(|w| !w.is_empty())
        {
            *counts.entry(word.to_lowercase()).or_insert(0) += 1;
        }
        black_box((sorted, counts));
        t0.elapsed().as_nanos() as f64
    }

    fn refresh(&mut self) {
        let ns = self.kernel();
        self.recent[(self.runs % 3) as usize] = ns;
        self.total_ns += ns;
        self.runs += 1;
        self.since_s = 0.0;
    }

    /// How the box ran while this pace was in use: the kernel's mean
    /// time over its reference time (1.0 = the reference box in a fast
    /// spell, 1.4 = in a slow one), and the kernel runs behind it.
    pub fn summary(&self) -> String {
        format!(
            "kernel x{:.3} of reference over {} runs",
            self.total_ns / self.runs as f64 / REFERENCE_NS,
            self.runs
        )
    }

    /// Reference time over the median of the last three kernel runs.
    pub fn scale(&self) -> f64 {
        let [a, b, c] = self.recent;
        REFERENCE_NS / a.max(b).min(a.min(b).max(c))
    }

    /// Books `dt_s` seconds of measured work and returns it scaled to
    /// the reference box by the latest kernel runs.
    pub fn scaled(&mut self, dt_s: f64) -> f64 {
        self.since_s += dt_s;
        dt_s * self.scale()
    }

    /// Re-runs the kernel if enough measured work has been booked since
    /// it last ran. Called between user operations, never inside one:
    /// the kernel leaves the caches cold, and that must not land on a
    /// probe or a checkpoint that follows its step at once.
    pub fn settle(&mut self) {
        if self.since_s >= REFRESH_AFTER_S {
            self.refresh();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_uses_the_median_kernel_time() {
        let mut pace = Pace::new();
        pace.recent = [REFERENCE_NS * 2.0, REFERENCE_NS * 4.0, REFERENCE_NS];
        assert_eq!(pace.scale(), 0.5);
        pace.recent = [REFERENCE_NS, REFERENCE_NS, REFERENCE_NS * 9.0];
        assert_eq!(pace.scale(), 1.0);
    }

    #[test]
    fn kernel_reruns_once_enough_work_has_been_booked() {
        let mut pace = Pace::new();
        let runs = pace.runs;
        pace.scaled(REFRESH_AFTER_S / 4.0);
        pace.settle();
        assert_eq!(pace.runs, runs);
        pace.scaled(REFRESH_AFTER_S);
        assert_eq!(pace.runs, runs);
        pace.settle();
        assert_eq!(pace.runs, runs + 1);
    }
}
