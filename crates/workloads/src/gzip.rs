//! The `gzip` scenario: compressing a large log file.
//!
//! Table 1: "Compress a 1.8 GB Apache access log file". Compute-bound
//! with streaming file I/O and almost no display output — §6 notes gzip
//! has "essentially zero display recording overhead" and, despite its
//! large file being continually snapshotted, small file system usage
//! (the log-structured FS only appends the newly written blocks).

use rand::rngs::StdRng;
use rand::SeedableRng;

use dejaview::DejaView;
use dv_checkpoint::compress;
use dv_display::Rect;
use dv_time::Duration;
use dv_vee::Vpid;

use crate::common::{loggy_bytes, TermWindow};
use crate::scenario::Scenario;

/// Bytes compressed per step.
const CHUNK: usize = 512 << 10;

/// The gzip scenario.
pub struct GzipScenario {
    total_bytes: u64,
    processed: u64,
    step_no: u32,
    term: Option<TermWindow>,
    gzip: Option<Vpid>,
    in_fd: Option<u32>,
    out_fd: Option<u32>,
    rng: StdRng,
}

impl GzipScenario {
    /// Creates the scenario; `scale` = 1.0 compresses 48 MiB (the 1.8 GB
    /// log scaled down).
    pub fn new(scale: f64) -> Self {
        GzipScenario {
            total_bytes: ((48.0 * scale) * 1048576.0).ceil() as u64,
            processed: 0,
            step_no: 0,
            term: None,
            gzip: None,
            in_fd: None,
            out_fd: None,
            rng: StdRng::seed_from_u64(0x671b),
        }
    }
}

impl Scenario for GzipScenario {
    fn name(&self) -> &'static str {
        "gzip"
    }

    fn description(&self) -> &'static str {
        "Compress a 1.8 GB Apache access log file"
    }

    fn setup(&mut self, dv: &mut DejaView) {
        let (w, h) = (dv.driver_mut().width(), dv.driver_mut().height());
        self.term = Some(TermWindow::open(
            dv,
            "xterm",
            "gzip access.log - xterm",
            Rect::new(0, h - 64, w, 64),
        ));
        // Write the input log into the session file system.
        dv.vee_mut().fs.mkdir_all("/var/log").expect("mkdir");
        dv.vee_mut()
            .fs
            .create("/var/log/access.log")
            .expect("create");
        let mut offset = 0u64;
        while offset < self.total_bytes {
            let n = CHUNK.min((self.total_bytes - offset) as usize);
            let data = loggy_bytes(&mut self.rng, n);
            dv.vee_mut()
                .fs
                .write_at("/var/log/access.log", offset, &data)
                .expect("seed input");
            offset += n as u64;
        }
        dv.vee_mut().fs.sync().expect("sync");
        let init = dv.init_vpid();
        let gzip = dv.vee_mut().spawn(Some(init), "gzip").expect("spawn");
        let in_fd = dv
            .vee_mut()
            .open(gzip, "/var/log/access.log")
            .expect("open");
        dv.vee_mut()
            .fs
            .create("/var/log/access.log.gz")
            .expect("create out");
        let out_fd = dv
            .vee_mut()
            .open(gzip, "/var/log/access.log.gz")
            .expect("open out");
        self.gzip = Some(gzip);
        self.in_fd = Some(in_fd);
        self.out_fd = Some(out_fd);
    }

    fn step(&mut self, dv: &mut DejaView) -> bool {
        self.step_no += 1;
        let gzip = self.gzip.expect("setup ran");
        let chunk = dv
            .vee_mut()
            .fd_read(gzip, self.in_fd.expect("setup"), CHUNK)
            .expect("read");
        if chunk.is_empty() {
            return false;
        }
        // The real compute: compress the chunk.
        let compressed = compress(&chunk);
        dv.vee_mut()
            .fd_write(gzip, self.out_fd.expect("setup"), &compressed)
            .expect("write");
        self.processed += chunk.len() as u64;
        if self.step_no.is_multiple_of(16) {
            let pct = self.processed * 100 / self.total_bytes.max(1);
            let term = self.term.as_ref().expect("setup ran");
            term.println(dv, &format!("gzip: {pct}% of access.log"));
        }
        self.processed < self.total_bytes
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
    fn gzip_compresses_the_whole_file_with_little_display() {
        let mut dv = DejaView::new(Config::default());
        let mut scenario = GzipScenario::new(0.05); // ~2.4 MiB.
        let summary = run_scenario(&mut dv, &mut scenario, RunOptions::default());
        assert!(summary.steps >= 4);
        // Output exists and is smaller than the input.
        let input = dv.vee().fs.stat("/var/log/access.log").unwrap().size;
        let output = dv.vee().fs.stat("/var/log/access.log.gz").unwrap().size;
        assert!(output > 0 && output < input);
        // Very little display activity.
        assert!(dv.obs().counter(dv_obs::names::DISPLAY_DRIVER_COMMANDS) < 30);
    }
}
