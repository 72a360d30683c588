//! The `octave` scenario: numerical computation.
//!
//! Table 1: "Octave 2.1.73 (MATLAB 4 clone) running Octave 2 numerical
//! benchmark". Compute-intensive with almost no display output and a
//! steadily churning working set — the scenario with the highest
//! uncompressed checkpoint growth rate in Figure 4 (~20 MB/s), because
//! every checkpoint finds most of the matrices rewritten.

use dejaview::DejaView;
use dv_display::Rect;
use dv_time::Duration;
use dv_vee::{Prot, Vpid};

use crate::common::TermWindow;
use crate::scenario::Scenario;

/// Matrix buffer written per step (~4 MiB at 5 steps/s -> ~20 MB/s of
/// dirty state).
const MATRIX_BYTES: usize = 4 << 20;

/// The numerical-benchmark scenario.
pub struct OctaveScenario {
    iterations_remaining: u32,
    iteration: u32,
    term: Option<TermWindow>,
    octave: Option<Vpid>,
    matrices: Vec<u64>,
}

impl OctaveScenario {
    /// Creates the scenario; `scale` = 1.0 runs ~100 iterations (20
    /// virtual seconds).
    pub fn new(scale: f64) -> Self {
        OctaveScenario {
            iterations_remaining: ((100.0 * scale).ceil() as u32).max(5),
            iteration: 0,
            term: None,
            octave: None,
            matrices: Vec::new(),
        }
    }
}

impl Scenario for OctaveScenario {
    fn name(&self) -> &'static str {
        "octave"
    }

    fn description(&self) -> &'static str {
        "Octave 2.1.73 (MATLAB 4 clone) running Octave 2 numerical benchmark"
    }

    fn setup(&mut self, dv: &mut DejaView) {
        let (w, h) = (dv.driver_mut().width(), dv.driver_mut().height());
        self.term = Some(TermWindow::open(
            dv,
            "octave",
            "octave:1> - octave",
            Rect::new(0, h - 48, w, 48),
        ));
        let init = dv.init_vpid();
        let octave = dv.vee_mut().spawn(Some(init), "octave").expect("spawn");
        // Working set: two rotating matrix buffers.
        for _ in 0..2 {
            let m = dv
                .vee_mut()
                .mmap(octave, MATRIX_BYTES as u64, Prot::ReadWrite)
                .expect("mmap");
            self.matrices.push(m);
        }
        self.octave = Some(octave);
    }

    fn step(&mut self, dv: &mut DejaView) -> bool {
        self.iteration += 1;
        let octave = self.octave.expect("setup ran");
        // Real numeric work: fill a matrix with a multiply-accumulate
        // recurrence (the "benchmark kernel"), then write it into the
        // process's memory — dirtying ~1000 pages.
        let mut acc: u64 = self.iteration as u64 | 1;
        let buf: Vec<u8> = (0..MATRIX_BYTES)
            .map(|_| {
                acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (acc >> 56) as u8
            })
            .collect();
        let target = self.matrices[(self.iteration % 2) as usize];
        dv.vee_mut()
            .mem_write(octave, target, &buf)
            .expect("matrix");
        if self.iteration.is_multiple_of(10) {
            let term = self.term.as_ref().expect("setup ran");
            term.println(dv, &format!("ans = {:.6}", (acc % 1_000_000) as f64 / 1e6));
        }
        self.iterations_remaining -= 1;
        self.iterations_remaining > 0
    }

    fn step_duration(&self) -> Duration {
        Duration::from_millis(200)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{run_scenario, RunOptions};
    use dejaview::Config;

    #[test]
    fn octave_churns_memory_with_little_display() {
        let mut dv = DejaView::new(Config::default());
        let mut scenario = OctaveScenario::new(0.1); // 10 iterations.
        let summary = run_scenario(&mut dv, &mut scenario, RunOptions::default());
        assert_eq!(summary.steps, 10);
        assert!(summary.checkpoints >= 1);
        // Checkpoints carry megabytes of dirty matrix state.
        let last = summary.reports.last().unwrap().counter;
        let raw_bytes = dv.engine().image_meta(last).unwrap().raw_bytes;
        assert!(raw_bytes > 1 << 20, "{raw_bytes}");
        // Display stream is tiny.
        assert!(dv.obs().counter(dv_obs::names::DISPLAY_DRIVER_COMMANDS) < 20);
    }
}
