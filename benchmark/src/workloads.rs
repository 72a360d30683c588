//! The four workloads: names, why each exists, and every size.
//!
//! Sizes are per second of `--seconds` so one flag scales a whole run;
//! at the `run_seconds` recorded in `BENCHMARK.json` each timed phase
//! lasts seconds, not milliseconds (repeatability rule 1). Nothing
//! else in the harness holds a size.

use dejaview::Config;
use dv_checkpoint::EngineConfig;
use dv_host::HostConfig;
use dv_record::RecorderConfig;
use dv_time::Duration;

use crate::script::{Mix, Shape, OFFICE_CYCLE, VIDEO_CYCLE};

/// Share of `--seconds` every timed phase has to last (rule 1). The
/// phases are sized, by script length and read counts, to last at
/// least half as long again on the reference box, which leaves a later
/// optimisation room before the rule trips.
pub const MIN_PHASE_SHARE: f64 = 0.08;

/// Rounds the read phases are cut into: browse, search, revive and
/// playback take turns, so each metric's samples come from all over
/// the read period and a slow spell on the shared box cannot own one.
pub const READ_ROUNDS: usize = 4;

/// The `run_seconds` recorded in `BENCHMARK.json`: the size every count
/// below was fitted to, and the default of `--seconds`.
pub const RUN_SECONDS: u64 = 16;

/// Floor on samples behind every latency metric (rule 2) in a run of
/// at least [`RUN_SECONDS`]; a shorter run is a smoke test.
pub const MIN_SAMPLES: usize = 200;

/// Seeks whose screenshot is hashed and compared with the fingerprint
/// the player noted at that time.
pub const BROWSE_ORACLE_SEEKS: usize = 50;

/// One probe in this many also compares whole-screen fingerprints of
/// viewer and server (outside the timer; every probe compares the
/// echoed glyph's pixels inside it).
pub const FULL_FINGERPRINT_EVERY: usize = 64;

/// Share of the script the set-up warm-up plays on a throwaway server.
pub const WARMUP_SHARE: f64 = 0.05;
pub const WARMUP_QUERIES: usize = 20;

/// Times set-up is repeated in an untraced run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    OfficeText,
    VideoScroll,
    BuildChurn,
    HostTenants,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::OfficeText,
        Workload::VideoScroll,
        Workload::BuildChurn,
        Workload::HostTenants,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OfficeText => "office_text",
            Workload::VideoScroll => "video_scroll",
            Workload::BuildChurn => "build_churn",
            Workload::HostTenants => "host_tenants",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Tenths of a virtual second recorded per second of `--seconds`.
    fn virtual_tenths_per_second(self) -> u64 {
        match self {
            Workload::OfficeText => 6000,
            Workload::VideoScroll => 125,
            Workload::BuildChurn => 400,
            Workload::HostTenants => 140,
        }
    }

    /// Session length in virtual seconds, a whole number of the mix's
    /// activity cycles.
    pub fn virtual_secs(self, seconds: u64) -> u64 {
        let cycle = match self {
            Workload::OfficeText => OFFICE_CYCLE,
            Workload::VideoScroll => VIDEO_CYCLE,
            Workload::BuildChurn => 10,
            Workload::HostTenants => VIDEO_CYCLE,
        };
        (self.virtual_tenths_per_second() * seconds / 10)
            .div_ceil(cycle)
            .max(2)
            * cycle
    }

    /// Heap high-water mark per second of `--seconds`, in MiB, measured
    /// on seeds 1 and 2; the harness pre-faults 1.25 times this.
    pub fn peak_heap_mib_per_second(self) -> u64 {
        match self {
            Workload::OfficeText => 42,
            Workload::VideoScroll => 34,
            Workload::BuildChurn => 94,
            Workload::HostTenants => 121,
        }
    }

    /// The shape of a single-session workload's one session. The host
    /// workload's sessions come from [`tenant_shapes`].
    pub fn shape(self, seconds: u64) -> Shape {
        let secs = self.virtual_secs(seconds);
        let (mix, screen) = match self {
            Workload::OfficeText => (Mix::Office, (1280, 1024)),
            Workload::VideoScroll => (Mix::Video, (1024, 768)),
            Workload::BuildChurn => (Mix::Build, (800, 600)),
            Workload::HostTenants => unreachable!("host_tenants is shaped by tenant_shapes"),
        };
        // Reads per second of `--seconds`, sized so that each read
        // phase lasts about as long as the others on the reference box.
        let (seeks, searches, revives, playback_passes) = match self {
            Workload::OfficeText => (28, 15, 20, 16),
            Workload::VideoScroll => (38, 30, 36, 4),
            _ => (112, 60, 26, 28),
        };
        let searches = searches * seconds as usize;
        // A family for every other query, but no more than the mix has
        // texts to plant them in (three plants a family on average),
        // and not a multiple of the five query kinds, so that a family
        // comes round again under another kind.
        let texts_per_sec = match mix {
            Mix::Office => 2.0,
            Mix::Video => 1.0,
            Mix::Build => 0.7,
        };
        let families = (searches / 2).min((secs as f64 * texts_per_sec / 4.0) as usize);
        Shape {
            mix,
            screen,
            secs,
            probes: 64 * seconds as usize,
            notes: 64,
            searches,
            seeks: seeks * seconds as usize,
            revives: revives * seconds as usize,
            families: families + usize::from(families.is_multiple_of(5)),
            playback_passes,
            video: (640, 480),
            fps: 24,
        }
    }

    /// The server configuration a single-session workload records with.
    pub fn config(self) -> Config {
        let (width, height) = self.shape(1).screen;
        let base = Config {
            width,
            height,
            ..Config::default()
        };
        match self {
            // Everything at its default: policy-driven checkpoints and
            // synchronous commit.
            Workload::OfficeText => base,
            // Video fills the log fast; a keyframe every five seconds
            // keeps a seek from decoding minutes of frames.
            Workload::VideoScroll => Config {
                recorder: RecorderConfig {
                    keyframe_interval: Duration::from_secs(5),
                    ..RecorderConfig::default()
                },
                ..base
            },
            // Capture on the session thread, commit on one worker; a
            // full image every twenty checkpoints bounds the chain a
            // revive reads (and keeps full images at 5 % of stalls,
            // clear of the 90th percentile), and a keyframe every ten seconds bounds
            // the scrolls a seek replays.
            Workload::BuildChurn => Config {
                engine: EngineConfig {
                    commit_workers: 1,
                    full_every: 20,
                    ..EngineConfig::default()
                },
                recorder: RecorderConfig {
                    keyframe_interval: Duration::from_secs(10),
                    ..RecorderConfig::default()
                },
                ..base
            },
            Workload::HostTenants => unreachable!("host_tenants is configured by tenant_config"),
        }
    }

    /// Viewers a single-session workload attaches over loopback, as
    /// `(num, den)` scales. Sessions owned by a `Host` have none.
    pub fn viewers(self) -> &'static [(u32, u32)] {
        match self {
            Workload::VideoScroll => &[(1, 1), (1, 2)],
            _ => &[(1, 1)],
        }
    }

    /// Whether checkpoints come from `policy_tick` (else every tick
    /// forces one).
    pub fn policy_driven(self) -> bool {
        self == Workload::OfficeText
    }
}

/// The host's configuration: dedup on, one host-wide commit worker.
pub fn host_config() -> HostConfig {
    HostConfig {
        commit_workers: 1,
        ..HostConfig::default()
    }
}

/// Times the host run plays every tenant's record back.
pub const HOST_PLAYBACK_PASSES: u64 = 5;

/// The eight tenants: smaller variants of the three mixes.
pub fn tenant_shapes(seconds: u64) -> Vec<Shape> {
    let secs = Workload::HostTenants.virtual_secs(seconds);
    let mixes = [
        Mix::Office,
        Mix::Video,
        Mix::Build,
        Mix::Office,
        Mix::Video,
        Mix::Build,
        Mix::Office,
        Mix::Video,
    ];
    mixes
        .into_iter()
        .map(|mix| Shape {
            mix,
            screen: (640, 480),
            secs,
            probes: 10 * seconds as usize,
            notes: 16,
            searches: 16,
            seeks: 200,
            revives: 100,
            families: 8,
            playback_passes: 1,
            video: (320, 240),
            fps: 12,
        })
        .collect()
}

/// Per-tenant configuration on the host. A full image every twenty
/// checkpoints keeps a revive from depending on how late in the
/// session its target falls.
pub fn tenant_config(screen: (u32, u32)) -> Config {
    Config {
        width: screen.0,
        height: screen.1,
        engine: EngineConfig {
            full_every: 20,
            ..EngineConfig::default()
        },
        recorder: RecorderConfig {
            keyframe_interval: Duration::from_secs(10),
            ..RecorderConfig::default()
        },
        ..Config::default()
    }
}

/// `BENCHMARK.json` records one `why` per workload; the same text
/// heads each run's report.
pub fn why(w: Workload) -> &'static str {
    match w {
        Workload::OfficeText => {
            "hours of typing, window switches and text-heavy page loads: text capture, index ingest, seal and search carry the run; display and checkpoint do little"
        }
        Workload::VideoScroll => {
            "24 fps video alternating with document scrolling, two viewers: display, record, visual index and net carry the run; the text path idles"
        }
        Workload::BuildChurn => {
            "untar+make shaped process churn, small files and dirty memory, a checkpoint a second on one commit worker: vee, checkpoint, lsfs carry the run"
        }
        Workload::HostTenants => {
            "eight tenants on one host with dedup, reads issued beside the writes: shared store, open shards and host scheduling under mixed load"
        }
    }
}
