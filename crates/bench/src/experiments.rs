//! The experiments, one function per table/figure.

use std::time::Instant;

use dejaview::{Config, DejaView};
use dv_checkpoint::PolicyStats;
use dv_index::{parse_query, RankOrder};
use dv_lsfs::ReadLatency;
use dv_obs::Obs;
use dv_record::PlaybackEngine;
use dv_time::{Duration, SimClock, Timestamp};
use dv_workloads::{run_scenario, scenario_by_name, CheckpointMode, RunOptions, RunSummary};

/// The Table 1 application scenario names, paper order.
pub const APP_SCENARIOS: &[&str] = &["web", "video", "untar", "gzip", "make", "octave", "cat"];

/// All scenario names including the real-usage trace.
pub const ALL_SCENARIOS: &[&str] = &[
    "web", "video", "untar", "gzip", "make", "octave", "cat", "desktop",
];

/// The paper's checkpoint cadence for a scenario: application
/// benchmarks checkpoint once per second, the real-usage trace follows
/// the policy.
fn paper_mode(name: &str) -> CheckpointMode {
    if name == "desktop" {
        CheckpointMode::Policy
    } else {
        CheckpointMode::EverySecond
    }
}

/// Records scenario `name` on a fresh server — sized for the scenario,
/// full checkpoint every 50th, otherwise default but for what `edit`
/// changes — and returns the server with the run's summary.
fn record_scenario(
    name: &str,
    scale: f64,
    mode: CheckpointMode,
    edit: impl FnOnce(&mut Config),
) -> (DejaView, RunSummary) {
    let mut scenario = scenario_by_name(name, scale).expect("known scenario");
    let (width, height) = scenario.screen();
    let mut config = Config {
        width,
        height,
        ..Config::default()
    };
    config.engine.full_every = 50;
    edit(&mut config);
    let mut dv = DejaView::with_clock(config, SimClock::new());
    let options = RunOptions {
        checkpoints: mode,
        ..RunOptions::default()
    };
    let summary = run_scenario(&mut dv, &mut *scenario, options);
    (dv, summary)
}

fn max_downtime(summary: &RunSummary) -> Duration {
    let longest = summary.downtimes.iter().copied().max();
    longest.unwrap_or(Duration::ZERO)
}

// ---------------------------------------------------------------------
// Measurement drivers shared by the gate experiments
// ---------------------------------------------------------------------

/// Spins the CPU up to its steady operating state before a timed
/// section: a single-session run is only ~100us of work, far too short
/// to lift an idle core out of its low-frequency state, and an
/// un-ramped anchor makes every larger sweep point look artificially
/// cheap.
fn warm_core() {
    let warm = Instant::now();
    let mut spin = 0u64;
    while warm.elapsed() < std::time::Duration::from_millis(5) {
        spin = spin.wrapping_mul(6364136223846793005).wrapping_add(1);
        std::hint::black_box(spin);
    }
}

/// Measures two modes of one workload as three interleaved pairs —
/// `run(false)` then `run(true)` — so drift hits both modes alike.
/// Returns the first pair, for the deterministic outputs, and each
/// mode's least `cost`: scheduler noise only ever inflates.
fn three_pairs<O>(
    mut run: impl FnMut(bool) -> O,
    cost: impl Fn(&O) -> std::time::Duration,
) -> ((O, O), (std::time::Duration, std::time::Duration)) {
    let mut first = None;
    let mut least = (std::time::Duration::MAX, std::time::Duration::MAX);
    for _ in 0..3 {
        let pair = (run(false), run(true));
        least = (least.0.min(cost(&pair.0)), least.1.min(cost(&pair.1)));
        first.get_or_insert(pair);
    }
    (first.expect("three iterations ran"), least)
}

fn percentile(sorted: &[std::time::Duration], p: f64) -> std::time::Duration {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Measures a session-count sweep as `passes` interleaved passes. Every
/// pass runs every point back to back (`run_once(sessions)`, whose
/// sorted per-call latencies `samples` exposes), repeating small points
/// until `pool` sessions' worth of samples are pooled, and takes the
/// pooled `quantile` as a ratio to the first point's *of the same pass*;
/// a point's ratio is the minimum across passes. Comparing within a
/// pass cancels the machine drift (frequency scaling, CPU steal) that
/// makes an anchor taken seconds earlier incomparable; the minimum
/// sheds whole passes hit by descheduling. Returns, per point, the run
/// with the lowest quantile and the ratio (1.0 for the first point).
fn interleaved_sweep<O>(
    points: &[usize],
    passes: usize,
    pool: usize,
    quantile: f64,
    mut run_once: impl FnMut(usize) -> O,
    samples: impl Fn(&O) -> &[std::time::Duration],
) -> Vec<(O, f64)> {
    let mut kept: Vec<Option<O>> = points.iter().map(|_| None).collect();
    let mut ratios = vec![f64::INFINITY; points.len()];
    for _pass in 0..passes {
        let mut anchor = 0.0;
        for (point, &sessions) in points.iter().enumerate() {
            let mut pooled: Vec<std::time::Duration> = Vec::new();
            for _ in 0..(pool / sessions).max(1) {
                let outcome = run_once(sessions);
                pooled.extend_from_slice(samples(&outcome));
                if kept[point].as_ref().is_none_or(|k| {
                    percentile(samples(&outcome), quantile) < percentile(samples(k), quantile)
                }) {
                    kept[point] = Some(outcome);
                }
            }
            pooled.sort_unstable();
            let stat = percentile(&pooled, quantile).as_secs_f64();
            if point == 0 {
                anchor = stat.max(1e-12);
            }
            ratios[point] = ratios[point].min(stat / anchor);
        }
    }
    kept.into_iter()
        .map(|best| best.expect("every point ran"))
        .zip(ratios)
        .collect()
}

// ---------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------

/// One Table 1 row plus the load the scenario actually generated.
pub struct Table1Row {
    /// Scenario name.
    pub name: &'static str,
    /// The paper's description.
    pub description: String,
    /// Steps executed at this scale.
    pub steps: u64,
    /// Virtual duration.
    pub duration: Duration,
    /// Display commands generated.
    pub commands: u64,
    /// Text instances indexed.
    pub text_instances: u64,
}

/// Regenerates Table 1 with per-scenario load statistics.
pub fn table1(scale: f64) -> Vec<Table1Row> {
    ALL_SCENARIOS
        .iter()
        .map(|name| {
            let scenario = scenario_by_name(name, scale).expect("known scenario");
            let description = scenario.description().to_string();
            let (mut dv, summary) = record_scenario(name, scale, CheckpointMode::Disabled, |_| {});
            let commands = dv.driver_mut().stats().commands;
            let text_instances = dv.index().lock().stats().instances;
            Table1Row {
                name,
                description,
                steps: summary.steps,
                duration: summary.virtual_elapsed,
                commands,
                text_instances,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 2: recording runtime overhead
// ---------------------------------------------------------------------

/// Normalized execution times for one scenario (baseline = 1.0).
pub struct OverheadRow {
    /// Scenario name.
    pub name: &'static str,
    /// Baseline wall time (no recording).
    pub baseline: std::time::Duration,
    /// Display recording only.
    pub display: f64,
    /// Checkpointing only (1/s).
    pub process: f64,
    /// Text capture + indexing only.
    pub index: f64,
    /// Everything on.
    pub full: f64,
}

/// Figure 2: runs each scenario five times — baseline, display-only,
/// checkpoint-only, index-only, full recording — and reports wall time
/// normalized to the baseline.
pub fn fig2_overhead(scale: f64) -> Vec<OverheadRow> {
    APP_SCENARIOS
        .iter()
        .map(|name| {
            let time_with = |display: bool, text: bool, ckpt: bool| -> std::time::Duration {
                let mode = if ckpt {
                    paper_mode(name)
                } else {
                    CheckpointMode::Disabled
                };
                let (_dv, summary) = record_scenario(name, scale, mode, |config| {
                    config.enable_display_recording = display;
                    config.enable_text_capture = text;
                });
                summary.wall
            };
            let baseline = time_with(false, false, false);
            let norm = |t: std::time::Duration| t.as_secs_f64() / baseline.as_secs_f64();
            OverheadRow {
                name,
                baseline,
                display: norm(time_with(true, false, false)),
                process: norm(time_with(false, false, true)),
                index: norm(time_with(false, true, false)),
                full: norm(time_with(true, true, true)),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 3: checkpoint latency breakdown
// ---------------------------------------------------------------------

/// Mean per-phase checkpoint latency for one scenario.
pub struct CheckpointRow {
    /// Scenario name.
    pub name: &'static str,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Mean pre-checkpoint (pre-snapshot + pre-quiesce) time.
    pub pre_checkpoint: Duration,
    /// Mean quiesce time.
    pub quiesce: Duration,
    /// Mean capture time.
    pub capture: Duration,
    /// Mean file system snapshot time.
    pub fs_snapshot: Duration,
    /// Mean writeback time.
    pub writeback: Duration,
    /// Mean downtime (quiesce + capture + fs snapshot).
    pub downtime: Duration,
    /// Largest single downtime observed.
    pub max_downtime: Duration,
}

/// Figure 3: average checkpoint time decomposed into the five phases.
pub fn fig3_checkpoint_latency(scale: f64) -> Vec<CheckpointRow> {
    ALL_SCENARIOS
        .iter()
        .map(|name| {
            let (_dv, summary) = record_scenario(name, scale, paper_mode(name), |_| {});
            let phases = summary.mean_phases();
            CheckpointRow {
                name,
                checkpoints: summary.checkpoints,
                pre_checkpoint: phases.get("pre-checkpoint"),
                quiesce: phases.get("quiesce"),
                capture: phases.get("capture"),
                fs_snapshot: phases.get("fs-snapshot"),
                writeback: phases.get("writeback"),
                downtime: summary.mean_downtime(),
                max_downtime: max_downtime(&summary),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 4: storage growth rates
// ---------------------------------------------------------------------

/// Storage growth rates (MB/s of virtual time) for one scenario.
pub struct StorageRow {
    /// Scenario name.
    pub name: &'static str,
    /// Display stream.
    pub display_mbps: f64,
    /// Index stream.
    pub index_mbps: f64,
    /// File system log.
    pub fs_mbps: f64,
    /// Uncompressed checkpoint images.
    pub process_mbps: f64,
    /// Compressed checkpoint images.
    pub process_compressed_mbps: f64,
}

impl StorageRow {
    /// Total with uncompressed checkpoints.
    pub fn total_mbps(&self) -> f64 {
        self.display_mbps + self.index_mbps + self.fs_mbps + self.process_mbps
    }

    /// Total with compressed checkpoints.
    pub fn total_compressed_mbps(&self) -> f64 {
        self.display_mbps + self.index_mbps + self.fs_mbps + self.process_compressed_mbps
    }
}

/// Figure 4: per-stream storage growth per scenario, compressed
/// checkpoints overlaid on raw.
pub fn fig4_storage(scale: f64) -> Vec<StorageRow> {
    ALL_SCENARIOS
        .iter()
        .map(|name| {
            let (mut dv, summary) =
                record_scenario(name, scale, paper_mode(name), |c| c.engine.compress = true);
            dv.vee_mut().fs.sync().expect("sync");
            // Growth during the measured window only: setup-time input
            // seeding (gzip's access log, cat's syslog) is excluded.
            let storage = dv.storage().delta_since(&summary.storage_at_setup);
            let rates = storage.rates(summary.virtual_elapsed);
            StorageRow {
                name,
                display_mbps: rates.display_mbps,
                index_mbps: rates.index_mbps,
                fs_mbps: rates.fs_mbps,
                process_mbps: rates.checkpoint_raw_mbps,
                process_compressed_mbps: rates.checkpoint_stored_mbps,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 5: browse and search latency
// ---------------------------------------------------------------------

/// Browse and search latency for one scenario.
pub struct BrowseSearchRow {
    /// Scenario name.
    pub name: &'static str,
    /// Mean query latency.
    pub search: std::time::Duration,
    /// Mean browse (seek + reconstruct) latency.
    pub browse: std::time::Duration,
    /// Queries issued.
    pub queries: usize,
    /// Browse points probed.
    pub browse_points: usize,
}

/// Figure 5: indexes each scenario, then measures single-word query
/// latency (multi-word contextual for `desktop`, per §6) and browse
/// latency at regular points with at least 100 commands in between.
pub fn fig5_browse_search(scale: f64) -> Vec<BrowseSearchRow> {
    ALL_SCENARIOS
        .iter()
        .map(|name| {
            let (dv, _) = record_scenario(name, scale, paper_mode(name), |_| {});

            // --- Search: pick words actually present in the record. ----
            let index = dv.index();
            let queries: Vec<String> = {
                let mut guard = index.lock();
                guard.advance_horizon(dv.now());
                let present: Vec<String> = dv_workloads::common::WORDS
                    .iter()
                    .filter(|w| !guard.term_instances(w).is_empty())
                    .take(10)
                    .map(|w| w.to_string())
                    .collect();
                if *name == "desktop" {
                    // Ten multi-word contextual queries, as in §6.
                    present
                        .chunks(2)
                        .take(5)
                        .flat_map(|pair| {
                            let joined = pair.join(" ");
                            [
                                format!("app:firefox {joined}"),
                                format!("from:10 to:200 {joined}"),
                            ]
                        })
                        .collect()
                } else {
                    present.into_iter().take(5).collect()
                }
            };
            let search = if queries.is_empty() {
                std::time::Duration::ZERO
            } else {
                let guard = index.lock();
                let started = Instant::now();
                for q in &queries {
                    let query = parse_query(q).expect("valid query");
                    let _ = dv_index::search(&guard, &query, RankOrder::Chronological);
                }
                started.elapsed() / queries.len() as u32
            };

            // --- Browse: points with >= 100 commands in between. -------
            let record = dv.record();
            let probes: Vec<Timestamp> = {
                let store = record.read();
                let mut probes = Vec::new();
                let mut offset = 0u64;
                let mut since_last = 0u64;
                while let Ok(Some((time, _cmd, next))) = store.log.read_at(offset) {
                    since_last += 1;
                    if since_last >= 100 {
                        probes.push(time);
                        since_last = 0;
                    }
                    offset = next;
                }
                probes
            };
            let browse = if probes.is_empty() {
                std::time::Duration::ZERO
            } else {
                let mut engine = PlaybackEngine::new(record);
                let started = Instant::now();
                for t in &probes {
                    engine.seek(*t).expect("seek");
                }
                started.elapsed() / probes.len() as u32
            };
            BrowseSearchRow {
                name,
                search,
                browse,
                queries: queries.len(),
                browse_points: probes.len(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 6: playback speedup
// ---------------------------------------------------------------------

/// Playback speedup for one scenario.
pub struct PlaybackRow {
    /// Scenario name.
    pub name: &'static str,
    /// Recorded virtual span.
    pub recorded: Duration,
    /// Wall time to replay the entire record at the fastest rate.
    pub wall: std::time::Duration,
    /// `recorded / wall`.
    pub speedup: f64,
}

/// Figure 6: replays each scenario's entire record as fast as possible.
pub fn fig6_playback(scale: f64) -> Vec<PlaybackRow> {
    ALL_SCENARIOS
        .iter()
        .map(|name| {
            let (dv, _) = record_scenario(name, scale, paper_mode(name), |_| {});
            let record = dv.record();
            let recorded = record.read().duration();
            let end = Timestamp::ZERO + recorded + Duration::from_secs(1);
            let mut engine = PlaybackEngine::new(record);
            let started = Instant::now();
            engine.seek(Timestamp::ZERO).expect("seek");
            engine.play_until(end, None).expect("play");
            let wall = started.elapsed();
            PlaybackRow {
                name,
                recorded,
                wall,
                speedup: recorded.as_secs_f64() / wall.as_secs_f64().max(1e-9),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 7: revive latency
// ---------------------------------------------------------------------

/// Revive latency at one point in a scenario's history.
pub struct RevivePoint {
    /// Checkpoint counter revived from.
    pub counter: u64,
    /// Wall time with cold checkpoint-store caches (disk-latency model).
    pub uncached: std::time::Duration,
    /// Wall time with warm caches.
    pub cached: std::time::Duration,
    /// Pages installed.
    pub pages: usize,
}

/// Revive latencies for one scenario.
pub struct ReviveRow {
    /// Scenario name.
    pub name: &'static str,
    /// Up to five evenly spaced points, chronological.
    pub points: Vec<RevivePoint>,
}

/// Figure 7: revives each scenario at five evenly spaced checkpoints,
/// cold (checkpoint files uncached, disk-latency model) and warm.
pub fn fig7_revive(scale: f64) -> Vec<ReviveRow> {
    ALL_SCENARIOS
        .iter()
        .map(|name| {
            let (mut dv, _) = record_scenario(name, scale, paper_mode(name), |config| {
                config.store_latency = Some(ReadLatency::desktop_disk_2007());
            });
            let counters: Vec<u64> = dv.engine().images().map(|m| m.counter).collect();
            let picks: Vec<u64> = if counters.len() <= 5 {
                counters.clone()
            } else {
                (0..5)
                    .map(|i| counters[i * (counters.len() - 1) / 4])
                    .collect()
            };
            let points = picks
                .iter()
                .map(|&counter| {
                    // Cold: drop the store cache first.
                    dv.store_mut().drop_caches();
                    let started = Instant::now();
                    let sid = dv.revive_counter(counter).expect("revive");
                    let uncached = started.elapsed();
                    let pages = dv.session(sid).expect("session").report.pages_installed;
                    dv.close_session(sid).expect("close");
                    // Warm: the images were just read.
                    let started = Instant::now();
                    let sid = dv.revive_counter(counter).expect("revive");
                    let cached = started.elapsed();
                    dv.close_session(sid).expect("close");
                    RevivePoint {
                        counter,
                        uncached,
                        cached,
                        pages,
                    }
                })
                .collect();
            ReviveRow { name, points }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Ablation: the §5.1.2 downtime optimizations
// ---------------------------------------------------------------------

/// Downtime with one optimization disabled.
pub struct AblationRow {
    /// Configuration label.
    pub config: &'static str,
    /// Mean downtime per checkpoint.
    pub mean_downtime: Duration,
    /// Worst downtime.
    pub max_downtime: Duration,
    /// Mean total checkpoint time.
    pub mean_total: Duration,
}

/// The "without these optimizations" comparison of §6: runs the
/// memory-heavy `octave` scenario with each §5.1.2 optimization
/// disabled in turn, and everything disabled at once.
pub fn ablation_checkpoint_optimizations(scale: f64) -> Vec<AblationRow> {
    let configs: Vec<(&'static str, dv_checkpoint::EngineConfig)> = vec![
        ("all optimizations", dv_checkpoint::EngineConfig::default()),
        (
            "no incremental (full every ckpt)",
            dv_checkpoint::EngineConfig {
                full_every: 1,
                ..dv_checkpoint::EngineConfig::default()
            },
        ),
        (
            "no COW capture (eager copy)",
            dv_checkpoint::EngineConfig {
                disable_cow: true,
                ..dv_checkpoint::EngineConfig::default()
            },
        ),
        (
            "no deferred writeback",
            dv_checkpoint::EngineConfig {
                disable_deferred_writeback: true,
                ..dv_checkpoint::EngineConfig::default()
            },
        ),
        (
            "no pre-snapshot sync",
            dv_checkpoint::EngineConfig {
                disable_pre_snapshot: true,
                ..dv_checkpoint::EngineConfig::default()
            },
        ),
        (
            "none (unoptimized)",
            dv_checkpoint::EngineConfig {
                full_every: 1,
                disable_cow: true,
                disable_deferred_writeback: true,
                disable_pre_snapshot: true,
                ..dv_checkpoint::EngineConfig::default()
            },
        ),
    ];
    configs
        .into_iter()
        .map(|(label, engine)| {
            let (_dv, summary) =
                record_scenario("octave", scale, CheckpointMode::EverySecond, |c| {
                    c.engine = engine;
                });
            let total = summary.mean_phases().total();
            AblationRow {
                config: label,
                mean_downtime: summary.mean_downtime(),
                max_downtime: max_downtime(&summary),
                mean_total: total,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Recording-quality trade-off (§2/§4.1)
// ---------------------------------------------------------------------

/// Display storage under one quality setting.
pub struct QualityRow {
    /// Setting label.
    pub setting: &'static str,
    /// Display stream bytes.
    pub display_bytes: u64,
    /// Commands logged.
    pub commands: u64,
}

/// The §2 quality/storage trade-off: the web workload recorded at full
/// fidelity, at half and quarter resolution, and with update-frequency
/// limiting.
pub fn quality_tradeoff(scale: f64) -> Vec<QualityRow> {
    use dv_display::ScaleFactor;
    use dv_record::RecorderConfig;
    let settings: Vec<(&'static str, RecorderConfig)> = vec![
        ("full fidelity", RecorderConfig::default()),
        (
            "half resolution",
            RecorderConfig {
                scale: ScaleFactor::new(1, 2),
                ..RecorderConfig::default()
            },
        ),
        (
            "quarter resolution",
            RecorderConfig {
                scale: ScaleFactor::new(1, 4),
                ..RecorderConfig::default()
            },
        ),
        (
            "updates merged over 2s",
            RecorderConfig {
                flush_interval: Duration::from_secs(2),
                ..RecorderConfig::default()
            },
        ),
        (
            "quarter res + 2s merge",
            RecorderConfig {
                scale: ScaleFactor::new(1, 4),
                flush_interval: Duration::from_secs(2),
                ..RecorderConfig::default()
            },
        ),
    ];
    settings
        .into_iter()
        .map(|(setting, recorder)| {
            let (dv, _) = record_scenario("web", scale, CheckpointMode::Disabled, |c| {
                c.recorder = recorder;
            });
            let storage = dv.storage();
            let record = dv.record();
            let store = record.read();
            QualityRow {
                setting,
                display_bytes: storage.display_bytes,
                commands: store.log.len(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Ablation: the mirror tree (§4.2)
// ---------------------------------------------------------------------

/// Event-processing cost with and without the mirror tree.
pub struct MirrorAblationRow {
    /// Daemon variant.
    pub daemon: &'static str,
    /// Events delivered.
    pub events: u64,
    /// Total synchronous delivery time charged to the application.
    pub total_delivery: Duration,
    /// Mean per-event cost.
    pub per_event: Duration,
    /// Charged accesses against the real tree.
    pub tree_accesses: u64,
}

/// The §4.2 ablation: a text-heavy application (a tree growing to
/// `nodes` components) updates text while the capture daemon listens —
/// once with the mirror, once re-traversing the real tree per event.
/// The per-access IPC delay makes the traversal cost real.
pub fn ablation_mirror_tree(nodes: usize) -> Vec<MirrorAblationRow> {
    use dv_access::{CaptureDaemon, Desktop, NaiveCaptureDaemon, Role, TextInstance, TextSink};
    use parking_lot::Mutex;
    use std::sync::Arc;

    struct NullSink;
    impl TextSink for NullSink {
        fn text_shown(&mut self, _instance: TextInstance) {}
        fn text_hidden(&mut self, _id: u64, _time: Timestamp) {}
        fn focus_changed(&mut self, _app: dv_access::AppId, _time: Timestamp) {}
    }

    let run = |naive: bool| -> MirrorAblationRow {
        let clock = SimClock::new();
        let mut desktop = Desktop::new();
        if naive {
            desktop.register_listener(Arc::new(Mutex::new(NaiveCaptureDaemon::new(
                clock.shared(),
                NullSink,
            ))));
        } else {
            desktop.register_listener(Arc::new(Mutex::new(CaptureDaemon::new(
                clock.shared(),
                NullSink,
            ))));
        }
        let app = desktop.register_app("texty");
        // The modelled AT-SPI round trip.
        desktop.set_access_delay(Some(Duration::from_micros(15)));
        let root = desktop.root(app).expect("registered");
        let win = desktop.add_node(app, root, Role::Window, "w");
        let mut ids = Vec::with_capacity(nodes);
        for i in 0..nodes {
            ids.push(desktop.add_node(app, win, Role::Paragraph, &format!("line {i}")));
        }
        // The measured phase: text updates against the grown tree.
        for (i, id) in ids.iter().enumerate() {
            desktop.set_text(app, *id, &format!("update {i}"));
        }
        let (events, total_delivery) = desktop.delivery_stats();
        let tree_accesses = desktop.tree(app).expect("registered").accesses();
        MirrorAblationRow {
            daemon: if naive {
                "naive (re-traverse per event)"
            } else {
                "mirror tree"
            },
            events,
            total_delivery,
            per_event: Duration::from_nanos(total_delivery.as_nanos() / events.max(1)),
            tree_accesses,
        }
    };
    vec![run(false), run(true)]
}

// ---------------------------------------------------------------------
// Policy effectiveness (the §6 analysis)
// ---------------------------------------------------------------------

/// §6's checkpoint-policy analysis: runs the desktop trace under the
/// policy and returns its decision statistics.
pub fn policy_effectiveness(scale: f64) -> PolicyStats {
    let (dv, _) = record_scenario("desktop", scale, CheckpointMode::Policy, |_| {});
    dv.policy_stats()
}

// ---------------------------------------------------------------------
// Deferred write-back pipeline (§5.1.2's deferred writeback, taken off
// the session thread entirely)
// ---------------------------------------------------------------------

/// One deferred-pipeline configuration's measurements.
pub struct DeferredRow {
    /// Configuration label.
    pub config: String,
    /// Commit workers (0 = inline commit on the session thread).
    pub workers: usize,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Mean session-thread stall per checkpoint call (wall time the
    /// session is held off the CPU by `checkpoint()` itself).
    pub mean_stall: std::time::Duration,
    /// Worst single stall.
    pub max_stall: std::time::Duration,
    /// Wall time from the first capture until the pipeline flushed.
    pub total_wall: std::time::Duration,
    /// Raw image bytes committed per wall second.
    pub throughput_mbps: f64,
    /// Captures committed inline because the queue was full.
    pub inline_fallbacks: u64,
    /// [`dv_checkpoint::restore_fingerprint`] of the committed history
    /// and the revived final state — identical across configurations if
    /// and only if deferral changes nothing but timing.
    pub fingerprint: u64,
    /// Pages installed reviving the final checkpoint.
    pub pages_restored: usize,
}

/// The session under the deferred and obs measurements: an empty
/// environment and a compressing engine (full image every fourth) that
/// commits through `workers` pipeline workers and can queue every round.
fn pipeline_session(
    workers: usize,
    rounds: u64,
) -> (SimClock, dv_vee::Vee, dv_checkpoint::Checkpointer) {
    let clock = SimClock::new();
    let fs = Box::new(dv_lsfs::Lsfs::new());
    let vee = dv_vee::Vee::new(1, clock.shared(), fs, dv_vee::HostPidAllocator::new());
    let engine = dv_checkpoint::Checkpointer::with_sim_clock(
        dv_checkpoint::EngineConfig {
            compress: true,
            full_every: 4,
            commit_workers: workers,
            commit_queue_depth: rounds as usize + 1,
            ..dv_checkpoint::EngineConfig::default()
        },
        clock.clone(),
    );
    (clock, vee, engine)
}

/// Runs one memory-heavy session under a pipeline configuration: every
/// configuration dirties byte-identical pages, so the committed blobs
/// must decompress to identical plaintexts and revive identically.
fn deferred_run(workers: usize, scale: f64) -> DeferredRow {
    const PAGE: usize = 4096;
    let procs = 4usize;
    let pages_per_proc = ((192.0 * scale) as usize).max(24);
    let rounds = ((12.0 * scale) as u64).max(6);
    let (clock, mut vee, mut engine) = pipeline_session(workers, rounds);
    let store = dv_lsfs::SharedBlobStore::in_memory();

    // Deterministic, poorly compressible page contents (xorshift64) —
    // the same in every configuration.
    let fill = |proc_i: usize, page: usize, round: u64| -> Vec<u8> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64
            ^ ((proc_i as u64 + 1) << 40)
            ^ ((page as u64 + 1) << 20)
            ^ (round + 1);
        (0..PAGE)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    };

    let mut regions: Vec<(dv_vee::Vpid, u64, usize)> = Vec::with_capacity(procs);
    for i in 0..procs {
        let parent = regions.first().map(|&(p, _, _)| p);
        let p = vee.spawn(parent, &format!("worker-{i}")).expect("spawn");
        let addr = vee
            .mmap(p, (pages_per_proc * PAGE) as u64, dv_vee::Prot::ReadWrite)
            .expect("mmap");
        for page in 0..pages_per_proc {
            vee.mem_write(p, addr + (page * PAGE) as u64, &fill(i, page, 0))
                .expect("seed pages");
        }
        regions.push((p, addr, pages_per_proc * PAGE));
    }

    let started_total = Instant::now();
    let mut stalls = Vec::with_capacity(rounds as usize);
    for round in 1..=rounds {
        // Dirty half the pages in every process.
        for (i, &(p, addr, _)) in regions.iter().enumerate() {
            for page in (0..pages_per_proc).filter(|pg| (pg + round as usize).is_multiple_of(2)) {
                vee.mem_write(p, addr + (page * PAGE) as u64, &fill(i, page, round))
                    .expect("dirty pages");
            }
        }
        let started = Instant::now();
        engine.checkpoint(&mut vee, &store).expect("checkpoint");
        stalls.push(started.elapsed());
        clock.advance(Duration::from_secs(1));
    }
    engine.flush().expect("flush");
    let total_wall = started_total.elapsed();
    let stats = engine.stats();

    // Every committed image's plaintext plus the state revived from the
    // final checkpoint.
    let (fingerprint, revived) =
        dv_checkpoint::restore_fingerprint(&engine, &mut store.lock(), &regions)
            .expect("restore fingerprint");
    let sum: std::time::Duration = stalls.iter().sum();
    DeferredRow {
        config: if workers == 0 {
            "inline".to_string()
        } else {
            format!("deferred x{workers}")
        },
        workers,
        checkpoints: stats.checkpoints,
        mean_stall: sum / stalls.len().max(1) as u32,
        max_stall: stalls.iter().copied().max().unwrap_or_default(),
        total_wall,
        throughput_mbps: stats.raw_bytes as f64 / 1e6 / total_wall.as_secs_f64().max(1e-9),
        inline_fallbacks: stats.inline_fallbacks,
        fingerprint,
        pages_restored: revived.pages_installed,
    }
}

/// The deferred write-back comparison: the commit pipeline with no
/// workers (the session thread commits, "inline") versus 1, 2 and 4
/// workers, over byte-identical sessions.
pub fn deferred_experiment(scale: f64) -> Vec<DeferredRow> {
    [0usize, 1, 2, 4]
        .iter()
        .map(|&workers| deferred_run(workers, scale))
        .collect()
}

// ---------------------------------------------------------------------
// Observability: per-stream profile and instrumentation overhead
// ---------------------------------------------------------------------

/// The observability experiment's result: a profiled session snapshot
/// plus the cost of the instrumentation itself.
pub struct ObsReport {
    /// Registry + trace-ring snapshot of a fully recorded session,
    /// profiled with wall-clock spans; the per-stream breakdown table
    /// is derived entirely from this.
    pub snapshot: dv_obs::ObsSnapshot,
    /// Checkpoints the profiled session took (from the registry).
    pub checkpoints: u64,
    /// Wall time of the deferred-pipeline workload with instrumentation
    /// enabled (min of three runs).
    pub instrumented_wall: std::time::Duration,
    /// Wall time of the identical workload with instrumentation
    /// disabled (min of three runs).
    pub baseline_wall: std::time::Duration,
}

impl ObsReport {
    /// Instrumented over baseline wall time; 1.0 means the
    /// instrumentation was free at this workload's granularity.
    pub fn overhead_ratio(&self) -> f64 {
        self.instrumented_wall.as_secs_f64() / self.baseline_wall.as_secs_f64().max(1e-9)
    }
}

/// One deferred-pipeline engine run with instrumentation on or off,
/// returning its wall time. The work (page dirtying, compression,
/// deferred commits) is byte-identical in both modes, so the wall-time
/// ratio isolates what the dv-obs counters, spans, and ring cost.
fn obs_overhead_run(instrumented: bool, scale: f64) -> std::time::Duration {
    const PAGE: usize = 4096;
    let pages = ((256.0 * scale) as usize).max(32);
    let rounds = ((10.0 * scale) as u64).max(5);
    let (clock, mut vee, mut engine) = pipeline_session(2, rounds);
    engine.set_obs(if instrumented {
        Obs::wall(clock.shared())
    } else {
        Obs::disabled()
    });
    let store = dv_lsfs::SharedBlobStore::in_memory();

    let p = vee.spawn(None, "obs-worker").expect("spawn");
    let addr = vee
        .mmap(p, (pages * PAGE) as u64, dv_vee::Prot::ReadWrite)
        .expect("mmap");
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut page_buf = vec![0u8; PAGE];
    let started = Instant::now();
    for round in 0..rounds {
        for page in (0..pages).filter(|pg| (pg + round as usize).is_multiple_of(2)) {
            for b in page_buf.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *b = x as u8;
            }
            vee.mem_write(p, addr + (page * PAGE) as u64, &page_buf)
                .expect("dirty pages");
        }
        engine.checkpoint(&mut vee, &store).expect("checkpoint");
        clock.advance(Duration::from_secs(1));
    }
    engine.flush().expect("flush");
    started.elapsed()
}

/// The observability experiment: profiles a fully recorded web session
/// through dv-obs (wall-clock spans, so busy times are real), then
/// measures the instrumentation's own cost on the deferred-pipeline
/// workload, instrumented versus disabled.
pub fn obs_experiment(scale: f64) -> ObsReport {
    let mut scenario = scenario_by_name("web", scale).expect("known scenario");
    let (width, height) = scenario.screen();
    let clock = SimClock::new();
    let mut dv = DejaView::with_clock(
        Config {
            width,
            height,
            obs: Obs::wall(clock.shared()),
            engine: dv_checkpoint::EngineConfig {
                compress: true,
                full_every: 50,
                ..dv_checkpoint::EngineConfig::default()
            },
            ..Config::default()
        },
        clock,
    );
    run_scenario(
        &mut dv,
        &mut *scenario,
        RunOptions {
            checkpoints: CheckpointMode::EverySecond,
            ..RunOptions::default()
        },
    );
    // A search populates the index.query histogram alongside the
    // recording-side streams.
    let _ = dv.search("the", RankOrder::Chronological);
    let snapshot = dv.observability();
    let checkpoints = snapshot.counter(dv_obs::names::CHECKPOINT_COUNT);

    // Warm up once per mode (allocator growth, lazy init, page faults).
    obs_overhead_run(false, scale);
    obs_overhead_run(true, scale);
    let (_, (baseline_wall, instrumented_wall)) = three_pairs(
        |instrumented| obs_overhead_run(instrumented, scale),
        |wall| *wall,
    );
    ObsReport {
        snapshot,
        checkpoints,
        instrumented_wall,
        baseline_wall,
    }
}

// ---------------------------------------------------------------------
// Fault injection and crash consistency
// ---------------------------------------------------------------------

/// One fault-injection run: a single site × fault pair armed against a
/// live session, every other check at the site failing.
pub struct FaultRow {
    /// Injection site.
    pub site: &'static str,
    /// Fault kind injected.
    pub fault: &'static str,
    /// Faults actually injected.
    pub injected: u64,
    /// Degradation events the server absorbed (retried or dropped work).
    pub degraded: u64,
    /// Checkpoints that still completed under fault.
    pub checkpoints: u64,
    /// Whether browsing the pre-fault record still works afterwards.
    pub browse_ok: bool,
    /// Whether search still works afterwards.
    pub search_ok: bool,
}

/// Drives mixed activity — painting, file writes, syncs, policy ticks —
/// tolerating injected storage errors the way the server does.
fn drive_activity(dv: &mut DejaView, steps: u64, phase: u64) {
    for i in 0..steps {
        let color = 0x10_10_10 + (phase + i) as u32 * 37;
        dv.driver_mut()
            .fill_rect(dv_display::Rect::new(0, 0, 128, 96), color);
        let _ = dv
            .vee_mut()
            .fs
            .write_all("/data/file", &vec![(phase + i) as u8; 4 << 10]);
        let _ = dv.vee_mut().fs.sync();
        dv.clock().advance(Duration::from_secs(1));
        let _ = dv.policy_tick();
        // An explicit keyframe per step keeps the screenshot/timeline
        // persistence sites hot regardless of the keyframe cadence.
        dv.force_keyframe();
    }
}

/// Exercises every fault site with every fault kind against a live
/// session: the session must absorb the faults as degradation (never a
/// panic) and keep its pre-fault record browsable and searchable.
pub fn faults_experiment(scale: f64) -> Vec<FaultRow> {
    use dv_fault::{sites, FaultPlan, IoFault};
    let kinds = [
        (IoFault::Enospc, "enospc"),
        (IoFault::TornWrite, "torn-write"),
        (IoFault::ShortRead, "short-read"),
        (IoFault::Corrupt, "corrupt"),
        (IoFault::LatencySpike, "latency"),
    ];
    let steps = ((20.0 * scale) as u64).max(5);
    let mut rows = Vec::new();
    for (si, site) in sites::ALL.iter().enumerate() {
        for (ki, (fault, fault_name)) in kinds.iter().enumerate() {
            let plane = FaultPlan::new(((si as u64) << 8) | ki as u64)
                .every_nth(site, 2, *fault)
                .build();
            plane.disarm();
            let mut dv = DejaView::with_clock(
                Config {
                    width: 128,
                    height: 96,
                    fault_plane: plane.clone(),
                    ..Config::default()
                },
                SimClock::new(),
            );
            dv.vee_mut().fs.mkdir_all("/data").expect("clean mkdir");
            // Clean pre-fault history the record must retain.
            drive_activity(&mut dv, 3, 0);
            plane.arm();
            drive_activity(&mut dv, steps, 3);
            // A revive under fault reads checkpoint blobs back
            // (exercising the get path); it may legitimately fail.
            if let Ok(sid) = dv.take_me_back(dv.now()) {
                let _ = dv.close_session(sid);
            }
            // Two archive saves so every-other-check sites (e.g. the
            // single index flush per save) get at least one injection.
            let _ = dv.save_archive();
            let _ = dv.save_archive();
            plane.disarm();
            rows.push(FaultRow {
                site,
                fault: fault_name,
                injected: plane.injected_at(site),
                degraded: dv.storage().degraded_events,
                checkpoints: dv.engine().stats().checkpoints,
                browse_ok: dv.browse(Timestamp::from_millis(1_500)).is_ok(),
                search_ok: dv.search("data", RankOrder::Chronological).is_ok(),
            });
        }
    }
    rows
}

/// One power-cut recovery run: the session file system image truncated
/// after `cut_bytes` of its log.
pub struct CrashRow {
    /// Fraction of the log that reached stable storage.
    pub cut_fraction: f64,
    /// Bytes of log kept.
    pub cut_bytes: u64,
    /// Whether `Lsfs::load` recovered a state that passes `check()`.
    pub recovered: bool,
    /// Snapshots still resolvable in the recovered state.
    pub snapshots: usize,
}

/// Crash-consistency sweep: records a session, then simulates power
/// cuts at increasing log prefixes and reopens each truncated image.
pub fn crash_consistency(scale: f64) -> Vec<CrashRow> {
    use dv_fault::crash;
    let steps = ((30.0 * scale) as u64).max(8);
    let mut dv = DejaView::new(Config {
        width: 128,
        height: 96,
        ..Config::default()
    });
    dv.vee_mut().fs.mkdir_all("/data").expect("mkdir");
    drive_activity(&mut dv, steps, 0);
    let image = dv
        .session_fs_handle()
        .with(|fs| fs.save())
        .expect("serialize fs");
    let log_len = crash::log_len(&image);
    [0.0, 0.25, 0.5, 0.75, 1.0]
        .iter()
        .map(|fraction| {
            let cut = (log_len as f64 * fraction) as usize;
            let cut_image = crash::power_cut(&image, cut);
            let (recovered, snapshots) = match dv_lsfs::Lsfs::load(&cut_image) {
                Ok(fs) => (fs.check().is_ok(), fs.snapshot_counters().len()),
                Err(_) => (false, 0),
            };
            CrashRow {
                cut_fraction: *fraction,
                cut_bytes: cut as u64,
                recovered,
                snapshots,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// File-system snapshot cost against file-system size
// ---------------------------------------------------------------------

/// Inode counts of the snapshot-cost sweep; the first is the anchor.
pub const FS_SNAPSHOT_SWEEP: &[usize] = &[256, 16_384];

/// One point of the snapshot-cost sweep.
pub struct FsSnapshotRow {
    /// Files in the tree the snapshots were taken of.
    pub inodes: usize,
    /// Median `snapshot_point` after one 4 KiB write.
    pub snapshot_p50: std::time::Duration,
    /// That median over the first point's, same interleaved pass.
    pub unit_ratio: f64,
}

/// What a snapshot point costs as the file system grows: one 4 KiB
/// write to one file, then `snapshot_point` (timed: it syncs the block,
/// journals the mark and retains the state), on trees of each size of
/// [`FS_SNAPSHOT_SWEEP`]. The previous snapshot stays retained, as in a
/// recording session, so the write pays whatever un-sharing costs.
pub fn fs_snapshot_experiment(scale: f64) -> Vec<FsSnapshotRow> {
    use dv_lsfs::{Filesystem, Lsfs};
    let rounds = ((256.0 * scale) as u64).max(16);
    let block = vec![0x5au8; dv_lsfs::BLOCK_SIZE];
    let mut trees: Vec<(Lsfs, u64)> = FS_SNAPSHOT_SWEEP
        .iter()
        .map(|&inodes| {
            let mut fs = Lsfs::new();
            for i in 0..inodes {
                fs.write_all(&format!("/f{i}"), &block).expect("populate");
            }
            fs.snapshot_point(0).expect("first snapshot");
            (fs, 0)
        })
        .collect();
    let sweep = interleaved_sweep(
        FS_SNAPSHOT_SWEEP,
        4,
        0,
        0.50,
        |inodes| {
            let point = FS_SNAPSHOT_SWEEP.iter().position(|&n| n == inodes);
            let (fs, counter) = &mut trees[point.expect("a sweep point")];
            warm_core();
            let mut samples: Vec<std::time::Duration> = (0..rounds)
                .map(|_| {
                    *counter += 1;
                    let path = format!("/f{}", *counter as usize * 97 % inodes);
                    fs.write_at(&path, 0, &block).expect("write");
                    let start = Instant::now();
                    fs.snapshot_point(*counter).expect("snapshot");
                    let took = start.elapsed();
                    fs.drop_snapshot(*counter - 1);
                    took
                })
                .collect();
            samples.sort_unstable();
            samples
        },
        |samples| samples,
    );
    FS_SNAPSHOT_SWEEP
        .iter()
        .zip(sweep)
        .map(|(&inodes, (best, unit_ratio))| FsSnapshotRow {
            inodes,
            snapshot_p50: percentile(&best, 0.50),
            unit_ratio,
        })
        .collect()
}

// ---------------------------------------------------------------------
// Byte kernels of the wire and the log, each against its own yardstick
// ---------------------------------------------------------------------

/// One byte kernel timed beside the yardstick it is held to.
pub struct KernelRow {
    /// Gate key of the ratio.
    pub key: &'static str,
    /// What is divided by what.
    pub what: &'static str,
    /// Least time of the yardstick over the same bytes.
    pub yardstick: std::time::Duration,
    /// Least time of the kernel.
    pub kernel: std::time::Duration,
}

impl KernelRow {
    /// Kernel time over yardstick time.
    pub fn ratio(&self) -> f64 {
        self.kernel.as_secs_f64() / self.yardstick.as_secs_f64().max(1e-12)
    }
}

/// The two byte kernels every viewer frame and log append pays, each as
/// a ratio taken within one run so the limit holds on any machine:
///
/// - CRC32 per byte over a 448 KiB buffer (a `Video` frame) against the
///   same bytes summed 2 KiB at a time, where only the single
///   slicing-by-8 chain runs. Interleaved lanes put the long input
///   well under 1; one chain for every length reads about 1.
/// - Encoding a 704x32 `Raw` scroll strip against a `memcpy` of its
///   90 KB. A slice-wise encode is a zero-fill plus a copy; a push per
///   pixel read about 46.
pub fn kernel_experiment(scale: f64) -> Vec<KernelRow> {
    use dv_display::{encode_command, DisplayCommand, Rect};
    use dv_fault::checksum::crc32;
    use std::sync::Arc;
    const LONG: usize = 448 << 10;
    const SHORT: usize = 2 << 10;
    let rounds = ((64.0 * scale) as usize).max(8);
    let least = |run: &mut dyn FnMut()| {
        warm_core();
        (0..rounds)
            .map(|_| {
                let start = Instant::now();
                run();
                start.elapsed()
            })
            .min()
            .expect("at least eight rounds")
    };
    let data: Vec<u8> = (0..LONG).map(|i| (i * 131 + i / 7) as u8).collect();
    let (_, (short, long)) = three_pairs(
        |whole| {
            let piece = if whole { LONG } else { SHORT };
            least(&mut || {
                for chunk in data.chunks(piece) {
                    std::hint::black_box(crc32(std::hint::black_box(chunk)));
                }
            })
        },
        |&took| took,
    );
    let strip = DisplayCommand::Raw {
        rect: Rect::new(0, 368, 704, 32),
        pixels: Arc::new(
            (0..704 * 32u32)
                .map(|i| i.wrapping_mul(2_654_435_761))
                .collect(),
        ),
    };
    let mut out = Vec::with_capacity(strip.wire_size());
    let source = vec![0x5au8; strip.payload_size()];
    let mut copied = vec![0u8; source.len()];
    // Sixteen strips a round: one is too short to time.
    let (_, (memcpy, encode)) = three_pairs(
        |encode| {
            least(&mut || {
                for _ in 0..16 {
                    if encode {
                        out.clear();
                        encode_command(std::hint::black_box(&strip), &mut out);
                        std::hint::black_box(&out);
                    } else {
                        copied.copy_from_slice(std::hint::black_box(&source));
                        std::hint::black_box(&copied);
                    }
                }
            })
        },
        |&took| took,
    );
    vec![
        KernelRow {
            key: "crc_per_byte_448k_ratio",
            what: "CRC32 of 448 KiB whole / 2 KiB at a time",
            yardstick: short,
            kernel: long,
        },
        KernelRow {
            key: "raw_strip_encode_memcpy_ratio",
            what: "704x32 Raw encode / memcpy of its bytes",
            yardstick: memcpy,
            kernel: encode,
        },
    ]
}

// ---------------------------------------------------------------------
// Remote access: client fan-out over dv-net
// ---------------------------------------------------------------------

/// One dv-net fan-out measurement: a live session served to `fanout`
/// loopback viewers at once.
pub struct NetRow {
    /// Concurrent clients.
    pub fanout: usize,
    /// Live display commands the session generated.
    pub commands: u64,
    /// Frames fully delivered to client transports (all clients).
    pub frames_delivered: u64,
    /// Bytes accepted by client transports.
    pub bytes_sent: u64,
    /// Times a slow client's backlog collapsed into a keyframe.
    pub coalesce_events: u64,
    /// Tapped command batches that reached at least one live viewer.
    pub live_batches: u64,
    /// Wire encodes performed for those batches. With identity-scale
    /// viewers this must equal `live_batches` whatever the fan-out:
    /// the zero-copy invariant.
    pub live_encodes: u64,
    /// Wall time of the whole serving loop, including the simulated
    /// viewers applying their frames.
    pub wall: std::time::Duration,
    /// Wall time spent inside the server's `poll` — the server-side
    /// cost of fanning the session out, excluding work that in a real
    /// deployment runs on the viewers' own machines.
    pub server_wall: std::time::Duration,
    /// Median per-round delivery latency: one server poll from draw
    /// burst to every frame handed to its client transport.
    pub round_p50: std::time::Duration,
    /// 99th-percentile per-round delivery latency.
    pub round_p99: std::time::Duration,
    /// Whether every client's final framebuffer fingerprint matched
    /// the server's local view.
    pub all_converged: bool,
}

impl NetRow {
    /// Frames delivered per wall second, across all clients.
    pub fn throughput_fps(&self) -> f64 {
        self.frames_delivered as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Coalesce events per live frame offered (commands x fanout).
    pub fn coalesce_rate(&self) -> f64 {
        self.coalesce_events as f64 / (self.commands as f64 * self.fanout as f64).max(1.0)
    }

    /// Server-side microseconds per client per command — the unit cost
    /// whose growth with fan-out the CI gate bounds. Server time only:
    /// the harness simulates every viewer in-process, and a viewer's
    /// own framebuffer application is not the server's scaling story.
    pub fn per_client_command_us(&self) -> f64 {
        self.server_wall.as_secs_f64() * 1e6 / (self.commands as f64 * self.fanout as f64).max(1.0)
    }

    /// Wire encodes per live batch. Exactly 1.0 when every viewer
    /// shares the session scale — the proof that fan-out is refcount
    /// bumps, not per-viewer encodes.
    pub fn encode_ratio(&self) -> f64 {
        self.live_encodes as f64 / self.live_batches.max(1) as f64
    }

    /// p99 round latency divided by fan-out — the per-viewer share of
    /// a delivery round, comparable across sweep points.
    pub fn p99_per_viewer_us(&self) -> f64 {
        self.round_p99.as_secs_f64() * 1e6 / self.fanout.max(1) as f64
    }
}

/// Serves one live session at `w` x `h` to `fanout` loopback clients
/// for `rounds` draw rounds and measures delivery. With `bursty`,
/// periodic bursts larger than the send queue force the slow-client
/// coalescing path to run; without it, drawing trickles inside the
/// queue bound so the measurement isolates fan-out delivery cost from
/// keyframe bandwidth.
fn net_run_at(fanout: usize, rounds: usize, w: u32, h: u32, bursty: bool) -> NetRow {
    use dv_net::{LoopbackTransport, NetClient, NetConfig, NetService};

    let clock = SimClock::new();
    let mut svc = NetService::new(
        DejaView::with_clock(
            Config {
                width: w,
                height: h,
                ..Config::default()
            },
            clock.clone(),
        ),
        NetConfig {
            max_clients: fanout,
            send_queue_frames: 8,
            ..NetConfig::default()
        },
    );
    let mut clients: Vec<NetClient<LoopbackTransport>> = (0..fanout)
        .map(|i| {
            let (server_end, client_end) = LoopbackTransport::pair();
            svc.accept(server_end);
            let mut c = NetClient::connect(client_end, &format!("bench-{i}"));
            c.attach_live();
            c
        })
        .collect();
    for _ in 0..10 {
        for c in clients.iter_mut() {
            c.poll().expect("loopback client");
        }
        svc.poll();
    }

    let mut commands = 0u64;
    let mut latencies = Vec::with_capacity(rounds);
    let mut server_wall = std::time::Duration::ZERO;
    let started = Instant::now();
    for round in 0..rounds {
        // Every 8th round bursts past the 8-frame queue bound, so slow
        // clients exercise the coalescing path; other rounds trickle.
        let burst = if bursty && round % 8 == 0 { 12 } else { 2 };
        for b in 0..burst {
            let salt = (round * 16 + b) as u32;
            svc.dv_mut().driver_mut().fill_rect(
                dv_display::Rect::new(
                    salt * 13 % (w - 40),
                    salt * 7 % (h - 24),
                    24 + salt % 17,
                    16 + salt % 9,
                ),
                0x0051_a5a5u32.wrapping_mul(salt | 1),
            );
            commands += 1;
        }
        clock.advance(Duration::from_millis(10));
        // One server poll hands the whole round to every transport
        // (loopback accepts everything); its duration is the round's
        // server-side delivery latency.
        let t0 = Instant::now();
        svc.poll();
        let served = t0.elapsed();
        server_wall += served;
        latencies.push(served);
        for c in clients.iter_mut() {
            c.poll().expect("loopback client");
        }
    }
    // Drain the tail until every viewer has caught up.
    for _ in 0..200 {
        let t0 = Instant::now();
        let report = svc.poll();
        server_wall += t0.elapsed();
        let mut applied = 0;
        for c in clients.iter_mut() {
            applied += c.poll().expect("loopback client");
        }
        if report.bytes_sent == 0 && applied == 0 {
            break;
        }
    }
    let wall = started.elapsed();

    let local = svc.dv().screen_fingerprint();
    let all_converged = clients.iter().all(|c| c.fingerprint() == Some(local));
    let obs = svc.dv().obs().clone();
    latencies.sort_unstable();
    let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p) as usize];
    NetRow {
        fanout,
        commands,
        frames_delivered: obs.counter(dv_obs::names::NET_FRAMES_SENT),
        bytes_sent: obs.counter(dv_obs::names::NET_BYTES_SENT),
        coalesce_events: obs.counter(dv_obs::names::NET_COALESCE_EVENTS),
        live_batches: obs.counter(dv_obs::names::NET_LIVE_BATCHES),
        live_encodes: obs.counter(dv_obs::names::NET_ENCODES_PER_BATCH),
        wall,
        server_wall,
        round_p50: pct(0.50),
        round_p99: pct(0.99),
        all_converged,
    }
}

/// The dv-net fan-out experiment: 1, 4, 16, and 64 concurrent viewers
/// of one live session.
pub fn net_experiment(scale: f64) -> Vec<NetRow> {
    let rounds = ((240.0 * scale) as usize).max(40);
    [1usize, 4, 16, 64]
        .iter()
        .map(|&fanout| net_run_at(fanout, rounds, 320, 240, true))
        .collect()
}

/// The wide dv-net sweep: 64, 256, and 1024 live viewers of one
/// smaller session. The 64-viewer point anchors the per-viewer
/// unit-cost and per-viewer p99 ratios the CI gate bounds. The screen
/// is smaller, the rounds fewer, and the drawing trickles inside the
/// queue bound (no coalescing keyframes) because the cost under test
/// is reactor and fan-out bookkeeping per connection, not pixel
/// bandwidth — the classic sweep already gates the coalescing path.
pub fn net_wide_experiment(scale: f64) -> Vec<NetRow> {
    let rounds = ((80.0 * scale) as usize).max(24);
    [64usize, 256, 1024]
        .iter()
        .map(|&fanout| {
            // Min of 3 (the obs experiment's de-noising): a p99 over
            // ~80 rounds of tens-of-microsecond polls is hostage to
            // one scheduler preemption, and noise only ever inflates.
            (0..3)
                .map(|_| net_run_at(fanout, rounds, 160, 120, false))
                .min_by(|a, b| (a.round_p99, a.server_wall).cmp(&(b.round_p99, b.server_wall)))
                .expect("three wide runs")
        })
        .collect()
}

// ---------------------------------------------------------------------
// Multi-tenant host: 1 -> 1024 sessions over one shared commit pool
// ---------------------------------------------------------------------

/// One point of the dv-host session sweep: `sessions` concurrent
/// tenants recording through one shared, fairly scheduled commit pool.
pub struct HostRow {
    /// Concurrent sessions.
    pub sessions: usize,
    /// Checkpoints taken across all tenants in the kept repetition.
    pub checkpoints: u64,
    /// Deferred commits that resolved through the shared pool.
    pub committed: u64,
    /// Captures committed inline because the tenant's lane was full.
    pub inline_fallbacks: u64,
    /// Median duration of one `checkpoint()` call — the session-thread
    /// overhead a tenant actually experiences. A median over thousands
    /// of ~10us calls shrugs off the millisecond descheduling spikes
    /// that make wall-time sums useless on a shared machine.
    pub checkpoint_p50: std::time::Duration,
    /// Per-session overhead vs the single-session point, computed
    /// within each interleaved sweep pass (so machine drift between
    /// passes cancels) and minimised across passes. 1.0 for the
    /// single-session row itself.
    pub per_session_ratio: f64,
    /// Restore fingerprint of the first tenant. The per-tenant workload
    /// is identical at every sweep point, so this must not vary with
    /// the number of neighbours sharing the pool.
    pub fingerprint: u64,
}

/// The cross-tenant interference measurement: clean neighbours
/// recording next to one tenant whose every store write fails.
pub struct HostInterferenceRow {
    /// Clean neighbours sharing the pool with the faulted tenant.
    pub neighbors: usize,
    /// Median neighbour `checkpoint()` call duration with every tenant
    /// healthy. Medians over hundreds of ~10us calls are immune to the
    /// millisecond descheduling spikes that dominate wall-time sums on
    /// a shared machine.
    pub clean_stall_p50: std::time::Duration,
    /// The same median with tenant 0 failing every store write.
    pub faulted_stall_p50: std::time::Duration,
    /// Neighbour degradations (degraded events + write failures) in
    /// the faulted run; isolation demands zero.
    pub neighbors_degraded: u64,
    /// The faulted tenant's own degradations; the fault demands > 0.
    pub faulted_degraded: u64,
    /// Whether every neighbour's restore fingerprint was identical
    /// between the clean and the faulted run.
    pub fingerprints_match: bool,
    /// Whether the faulted tenant's failure surfaced in its own
    /// labelled observability registry.
    pub faulted_traced: bool,
}

impl HostInterferenceRow {
    /// Median neighbour stall under fault over the clean median.
    pub fn interference_ratio(&self) -> f64 {
        self.faulted_stall_p50.as_secs_f64() / self.clean_stall_p50.as_secs_f64().max(1e-9)
    }
}

/// The full dv-host report: the session sweep plus interference.
pub struct HostReport {
    /// One row per sweep point.
    pub rows: Vec<HostRow>,
    /// The one-faulted-vs-clean-neighbours interference measurement.
    pub interference: HostInterferenceRow,
}

/// Session counts the host sweep visits.
pub const HOST_SWEEP: &[usize] = &[1, 16, 128, 1024];

/// A tenant of the host sweeps: a small screen recording nothing but
/// checkpoints; the index and visual sweeps switch their stream on.
fn host_session_config() -> Config {
    Config {
        width: 64,
        height: 48,
        enable_display_recording: false,
        enable_text_capture: false,
        // Every tenant shares the host sim clock, so a faulted
        // tenant's retry backoff would advance every neighbour's
        // timebase and shift their capture timestamps. Zero backoff
        // keeps the clock trajectory identical across clean and
        // faulted runs, which the fingerprint comparison relies on.
        io_retry_backoff: Duration::from_millis(0),
        ..Config::default()
    }
}

fn host_pool_config() -> dv_host::HostConfig {
    dv_host::HostConfig {
        commit_workers: 4,
        // Zero backoff keeps the shared sim clock's trajectory
        // identical whether or not a tenant's commits retry, so
        // neighbour fingerprints are comparable across runs.
        commit_retry_backoff: Duration::from_millis(0),
        ..dv_host::HostConfig::default()
    }
}

/// Gives every tenant one `app` process with `pages` mapped pages.
fn spawn_apps(host: &mut dv_host::Host, ids: &[u64], pages: u64) -> Vec<(dv_vee::Vpid, u64)> {
    let map = |&id: &u64| {
        let vee = host.session_mut(id).expect("registered tenant").vee_mut();
        let p = vee.spawn(None, "app").expect("spawn");
        let addr = vee.mmap(p, pages * 4096, dv_vee::Prot::ReadWrite);
        (p, addr.expect("mmap"))
    };
    ids.iter().map(map).collect()
}

/// The restore fingerprint of each of `ids` over its `app` mapping.
fn app_fingerprints(
    host: &mut dv_host::Host,
    ids: &[u64],
    procs: &[(dv_vee::Vpid, u64)],
    pages: u64,
) -> Vec<u64> {
    let one = |(&id, &(p, addr)): (&u64, &(dv_vee::Vpid, u64))| {
        let fingerprint = host.restore_fingerprint(id, &[(p, addr, (pages * 4096) as usize)]);
        fingerprint.expect("restore fingerprint")
    };
    ids.iter().zip(procs).map(one).collect()
}

/// What one lockstep recording run over a fresh host produced.
struct HostRunOutcome {
    /// Every timed clean-tenant `checkpoint()` call (for a faulted run,
    /// neighbours only), sorted ascending; the median is the metric.
    samples: Vec<std::time::Duration>,
    checkpoints: u64,
    committed: u64,
    inline_fallbacks: u64,
    fingerprints: Vec<u64>,
    neighbors_degraded: u64,
    faulted_degraded: u64,
    faulted_traced: bool,
}

/// Runs one host workload: every tenant dirties `pages` pages and
/// checkpoints, `rounds` times, in lockstep rounds on the shared
/// clock. With `fault_tenant0` the first tenant's every store write
/// fails (Enospc on the writeback site) while neighbours stay clean.
fn host_run_once(
    sessions: usize,
    rounds: u64,
    pages: u64,
    fault_tenant0: bool,
    fingerprint_all: bool,
) -> HostRunOutcome {
    let clock = SimClock::new();
    let mut host = dv_host::Host::with_clock(host_pool_config(), clock.clone());
    let ids: Vec<u64> = (0..sessions)
        .map(|slot| {
            let mut config = host_session_config();
            if fault_tenant0 && slot == 0 {
                config.fault_plane = dv_fault::FaultPlan::new(0x7057)
                    .always(
                        dv_fault::sites::CHECKPOINT_WRITEBACK,
                        dv_fault::IoFault::Enospc,
                    )
                    .build();
            }
            host.create_session(&format!("t{slot:04}"), config)
        })
        .collect();
    let procs = spawn_apps(&mut host, &ids, pages);

    warm_core();

    // One sample per timed checkpoint call; the median is the metric.
    // In a faulted run only neighbours (slot > 0) contribute samples.
    let mut samples: Vec<std::time::Duration> = Vec::new();
    for round in 0..rounds {
        for (slot, &id) in ids.iter().enumerate() {
            let (p, addr) = procs[slot];
            for page in 0..pages {
                let fill = vec![
                    (round as u8)
                        .wrapping_mul(31)
                        .wrapping_add(slot as u8)
                        .wrapping_add(page as u8);
                    4096
                ];
                host.session_mut(id)
                    .expect("registered tenant")
                    .vee_mut()
                    .mem_write(p, addr + page * 4096, &fill)
                    .expect("mem_write");
            }
            if fault_tenant0 && slot == 0 {
                // The faulted tenant's checkpoints may fail once its
                // lane saturates into the inline path; that is the
                // degradation under test.
                let _ = host.checkpoint(id);
            } else {
                let t0 = Instant::now();
                host.checkpoint(id).expect("clean tenant checkpoint");
                let dt = t0.elapsed();
                if !fault_tenant0 || slot > 0 {
                    samples.push(dt);
                }
            }
        }
        clock.advance(Duration::from_millis(100));
    }
    for (slot, &id) in ids.iter().enumerate() {
        if fault_tenant0 && slot == 0 {
            let _ = host.flush_session(id);
        } else {
            host.flush_session(id).expect("clean tenant flush");
        }
    }
    samples.sort_unstable();

    let mut checkpoints = 0u64;
    let mut committed = 0u64;
    let mut inline_fallbacks = 0u64;
    let mut neighbors_degraded = 0u64;
    let mut faulted_degraded = 0u64;
    for (slot, &id) in ids.iter().enumerate() {
        let stats = host
            .session(id)
            .expect("registered tenant")
            .engine()
            .stats();
        checkpoints += stats.checkpoints;
        committed += stats.committed;
        inline_fallbacks += stats.inline_fallbacks;
        let degraded = host.degraded_events(id).expect("registered tenant") + stats.write_failures;
        if slot == 0 {
            faulted_degraded = degraded;
        } else {
            neighbors_degraded += degraded;
        }
    }
    let faulted_traced = fault_tenant0 && {
        let obs = host.observability();
        obs.tenants.first().is_some_and(|(label, snap)| {
            label == "t0000"
                && (snap.counter(dv_obs::names::CHECKPOINT_WRITE_FAILURES) > 0
                    || !snap.events_named(dv_obs::names::EV_COMMIT_RETRY).is_empty())
        })
    };
    let fingerprinted = if fingerprint_all { sessions } else { 1 };
    let fingerprints = app_fingerprints(&mut host, &ids[..fingerprinted], &procs, pages);

    HostRunOutcome {
        samples,
        checkpoints,
        committed,
        inline_fallbacks,
        fingerprints,
        neighbors_degraded,
        faulted_degraded,
        faulted_traced,
    }
}

/// The 1..=1024-session sweep over the median `checkpoint()` call.
fn host_sweep(scale: f64) -> Vec<HostRow> {
    let rounds = ((12.0 * scale) as u64).max(3);
    // Two pages per tenant keeps even the 1024-session working set
    // cache-resident, so the overhead ratio isolates host-layer
    // scheduling cost (the thing a regression would break) instead of
    // measuring the machine's cache hierarchy.
    let pages = 2;
    let sweep = interleaved_sweep(
        HOST_SWEEP,
        4,
        16,
        0.50,
        |sessions| host_run_once(sessions, rounds, pages, false, false),
        |outcome| &outcome.samples,
    );
    HOST_SWEEP
        .iter()
        .zip(sweep)
        .map(|(&sessions, (best, per_session_ratio))| HostRow {
            sessions,
            checkpoints: best.checkpoints,
            committed: best.committed,
            inline_fallbacks: best.inline_fallbacks,
            checkpoint_p50: percentile(&best.samples, 0.50),
            per_session_ratio,
            fingerprint: best.fingerprints[0],
        })
        .collect()
}

/// The interference measurement: 16 tenants, one of which fails every
/// store write, against the identical all-clean run. Each side's stall
/// is the min over three iterations of the median per-checkpoint call
/// duration, so neither side's number carries scheduler noise; the
/// deterministic outputs come from the first pair.
fn host_interference(scale: f64) -> HostInterferenceRow {
    const TENANTS: usize = 16;
    let rounds = ((12.0 * scale) as u64).max(3);
    let pages = ((16.0 * scale) as u64).max(2);
    let ((clean, faulted), (clean_stall_p50, faulted_stall_p50)) = three_pairs(
        |fault| host_run_once(TENANTS, rounds, pages, fault, true),
        |outcome| percentile(&outcome.samples, 0.50),
    );
    HostInterferenceRow {
        neighbors: TENANTS - 1,
        clean_stall_p50,
        faulted_stall_p50,
        neighbors_degraded: faulted.neighbors_degraded,
        faulted_degraded: faulted.faulted_degraded,
        fingerprints_match: clean.fingerprints[1..] == faulted.fingerprints[1..],
        faulted_traced: faulted.faulted_traced,
    }
}

/// The dv-host experiment: the 1/16/128/1024-session sweep over one
/// shared commit pool, plus the cross-tenant interference measurement.
pub fn host_experiment(scale: f64) -> HostReport {
    HostReport {
        rows: host_sweep(scale),
        interference: host_interference(scale),
    }
}

// ---------------------------------------------------------------------
// Dedup: the dv-cas chunk store under real checkpoint traffic
// ---------------------------------------------------------------------

/// One dedup workload measured with the content-addressed store on,
/// against the identical workload with it off.
pub struct DedupRow {
    /// Workload name (`repetitive-1`, `similar-16`).
    pub workload: &'static str,
    /// Concurrent tenants.
    pub tenants: usize,
    /// Checkpoints taken across all tenants.
    pub checkpoints: u64,
    /// Bytes the tenants logically stored (what quotas account).
    pub logical_bytes: u64,
    /// Bytes physically resident in the chunk arena after dedup.
    pub physical_bytes: u64,
    /// Chunk lookups that hit an already-stored chunk.
    pub dedup_hits: u64,
    /// Distinct live chunks backing the whole store.
    pub live_chunks: u64,
    /// Logical storage throughput with dedup on (MB of checkpoint
    /// data stored per wall second).
    pub dedup_mbps: f64,
    /// The same workload's throughput with dedup off.
    pub plain_mbps: f64,
    /// Whether every tenant's restore fingerprint was identical
    /// between the deduped and the plain run — dedup must be invisible
    /// to restored state.
    pub fingerprints_match: bool,
}

impl DedupRow {
    /// Logical bytes over physical bytes — how many times the store
    /// shrank the workload. 1.0 means no redundancy was found.
    pub fn dedup_ratio(&self) -> f64 {
        self.logical_bytes as f64 / self.physical_bytes.max(1) as f64
    }
}

/// What one dedup workload run produced.
struct DedupRunOutcome {
    checkpoints: u64,
    logical_bytes: u64,
    physical_bytes: u64,
    cas: Option<dv_lsfs::CasStats>,
    wall: std::time::Duration,
    fingerprints: Vec<u64>,
}

/// Runs one dedup workload: `tenants` sessions each dirty `pages`
/// pages and checkpoint, `rounds` times, in lockstep. Page content is
/// keyed by round and page only — never by tenant — and repeats with
/// period 2 across rounds, so the same checkpoint images recur both
/// across tenants and across a single tenant's history. Compression is
/// off so the chunker sees the raw page bytes.
fn dedup_run_once(tenants: usize, rounds: u64, pages: u64, dedup: bool) -> DedupRunOutcome {
    let clock = SimClock::new();
    let mut host = dv_host::Host::with_clock(
        dv_host::HostConfig {
            dedup,
            compress: false,
            ..host_pool_config()
        },
        clock.clone(),
    );
    let ids: Vec<u64> = (0..tenants)
        .map(|slot| host.create_session(&format!("t{slot:04}"), host_session_config()))
        .collect();
    let procs = spawn_apps(&mut host, &ids, pages);

    let started = Instant::now();
    for round in 0..rounds {
        for (slot, &id) in ids.iter().enumerate() {
            let (p, addr) = procs[slot];
            for page in 0..pages {
                let key = (round % 2) ^ (page << 8);
                // Mixed (non-periodic) bytes: periodic fills starve the
                // gear chunker of cut points and degrade it to max-size
                // chunks, which is not the shape real state has.
                let fill: Vec<u8> = (0..4096u64)
                    .map(|i| {
                        let mut x = i ^ (key << 32);
                        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        x ^= x >> 29;
                        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                        (x >> 32) as u8
                    })
                    .collect();
                host.session_mut(id)
                    .expect("registered tenant")
                    .vee_mut()
                    .mem_write(p, addr + page * 4096, &fill)
                    .expect("mem_write");
            }
            host.checkpoint(id).expect("checkpoint");
        }
        clock.advance(Duration::from_millis(100));
    }
    for &id in &ids {
        host.flush_session(id).expect("flush");
    }
    let wall = started.elapsed();

    let checkpoints = ids
        .iter()
        .map(|&id| {
            host.session(id)
                .expect("registered tenant")
                .engine()
                .stats()
                .checkpoints
        })
        .sum();
    let fingerprints = app_fingerprints(&mut host, &ids, &procs, pages);
    DedupRunOutcome {
        checkpoints,
        logical_bytes: host.storage_logical_bytes(),
        physical_bytes: host.storage_physical_bytes(),
        cas: host.storage_cas_stats(),
        wall,
        fingerprints,
    }
}

/// Measures one workload with dedup on and off and folds both into a
/// row. The throughput numbers are the min-noise side of three
/// repetitions each; the deduped run's stats come from the first pair.
fn dedup_point(workload: &'static str, tenants: usize, rounds: u64, pages: u64) -> DedupRow {
    let ((deduped, plain), (dedup_wall, plain_wall)) = three_pairs(
        |plain| dedup_run_once(tenants, rounds, pages, !plain),
        |outcome| outcome.wall,
    );
    let cas = deduped.cas.expect("dedup run has a chunk store");
    let mbps =
        |bytes: u64, wall: std::time::Duration| bytes as f64 / 1e6 / wall.as_secs_f64().max(1e-9);
    DedupRow {
        workload,
        tenants,
        checkpoints: deduped.checkpoints,
        logical_bytes: deduped.logical_bytes,
        physical_bytes: deduped.physical_bytes,
        dedup_hits: cas.dedup_hits,
        live_chunks: cas.live_chunks,
        dedup_mbps: mbps(deduped.logical_bytes, dedup_wall),
        plain_mbps: mbps(plain.logical_bytes, plain_wall),
        fingerprints_match: deduped.fingerprints == plain.fingerprints,
    }
}

/// The dv-cas dedup experiment: a single tenant whose checkpoint
/// content repeats over time (the paper's observation that desktop
/// state is highly redundant across checkpoints), and 16 tenants
/// running similar workloads (the multi-tenant redundancy a shared
/// host can exploit). Both compare against the identical run with
/// dedup off: the ratio says how much the store shrank, the
/// fingerprints say restored state didn't notice.
pub fn dedup_experiment(scale: f64) -> Vec<DedupRow> {
    let pages = 16;
    vec![
        dedup_point("repetitive-1", 1, ((32.0 * scale) as u64).max(12), pages),
        dedup_point("similar-16", 16, ((12.0 * scale) as u64).max(6), pages),
    ]
}

// ---------------------------------------------------------------------
// Sharded index: ingest, fan-out query latency, compaction
// ---------------------------------------------------------------------

/// One point of the sharded-index session sweep: `sessions` tenants
/// ingesting text states through checkpoint-sealed shards, then served
/// cross-session queries merged by global rank.
pub struct IndexRow {
    /// Concurrent sessions.
    pub sessions: usize,
    /// Text states indexed across all tenants in the kept repetition.
    pub states: u64,
    /// Sealed segments across all tenants at the end of ingest.
    pub segments: u64,
    /// Ingest throughput (states routed through capture, sealing
    /// included) of the best repetition.
    pub ingest_per_s: f64,
    /// Median cross-session query latency.
    pub query_p50: std::time::Duration,
    /// 99th-percentile cross-session query latency.
    pub query_p99: std::time::Duration,
    /// Per-tenant p99 unit cost vs the single-session point — p99(N)
    /// over N x p99(1), computed within each interleaved sweep pass and
    /// minimised across passes so machine drift cancels. 1.0 for the
    /// single-session row itself.
    pub unit_ratio: f64,
}

/// The with/without-compaction comparison on one engine whose sealed
/// segments would otherwise accumulate without bound.
pub struct IndexCompactionRow {
    /// Live sealed segments before background compaction.
    pub segments_before: usize,
    /// Live sealed segments after compaction runs to quiescence.
    pub segments_after: usize,
    /// Mean shards probed per query before compaction.
    pub probes_before: f64,
    /// Mean shards probed per query after compaction.
    pub probes_after: f64,
    /// 99th-percentile query latency before compaction.
    pub query_p99_before: std::time::Duration,
    /// 99th-percentile query latency after compaction.
    pub query_p99_after: std::time::Duration,
    /// Compaction throughput: framed bytes of every segment merged on
    /// the way to quiescence over the wall time of doing so, in MB/s.
    pub compact_mb_per_s: f64,
    /// Whether every probe query returned identical hits before and
    /// after — compaction must never change an answer.
    pub results_identical: bool,
}

impl IndexCompactionRow {
    /// How many fewer shards a query probes after compaction.
    pub fn probe_reduction(&self) -> f64 {
        self.probes_before / self.probes_after.max(1e-9)
    }
}

/// The full sharded-index report.
pub struct IndexReport {
    /// One row per session-sweep point.
    pub rows: Vec<IndexRow>,
    /// The compaction comparison.
    pub compaction: IndexCompactionRow,
    /// Whether a revive from an archive answered queries with exactly
    /// the hits sealed at or before the revived checkpoint.
    pub snapshot_consistent: bool,
}

/// Session counts the index sweep visits.
pub const INDEX_SWEEP: &[usize] = &[1, 16, 128];

fn index_session_config() -> Config {
    Config {
        enable_text_capture: true,
        // One-second shard windows so every lockstep round's checkpoint
        // seals a segment.
        index_shard_window: Duration::from_millis(1000),
        ..host_session_config()
    }
}

/// What one index ingest+query run over a fresh host produced.
struct IndexRunOutcome {
    ingest_per_s: f64,
    /// Per-query latencies, sorted ascending.
    samples: Vec<std::time::Duration>,
    states: u64,
    segments: u64,
}

/// Runs one index workload: every tenant shows one fresh corpus
/// sentence per round (hiding the previous one) and checkpoints — which
/// seals the round's shard — then `queries` cross-session term queries
/// fan out over all tenants' shards and merge by global rank.
fn index_run_once(sessions: usize, rounds: u64, queries: usize) -> IndexRunOutcome {
    let clock = SimClock::new();
    let mut host = dv_host::Host::with_clock(host_pool_config(), clock.clone());
    let ids: Vec<u64> = (0..sessions)
        .map(|slot| host.create_session(&format!("q{slot:04}"), index_session_config()))
        .collect();
    let mut apps = Vec::with_capacity(sessions);
    for &id in &ids {
        let server = host.session_mut(id).expect("registered tenant");
        let app = server.desktop_mut().register_app("editor");
        let root = server.desktop_mut().root(app).expect("app root");
        apps.push((app, root));
    }

    warm_core();

    let mut prev: Vec<Option<dv_access::NodeId>> = vec![None; sessions];
    let mut states = 0u64;
    let started = Instant::now();
    for round in 0..rounds {
        for (slot, &id) in ids.iter().enumerate() {
            let (app, root) = apps[slot];
            let server = host.session_mut(id).expect("registered tenant");
            if let Some(node) = prev[slot].take() {
                server.desktop_mut().remove_subtree(app, node);
            }
            let text = dv_workloads::corpus_sentence(round * sessions as u64 + slot as u64, 6);
            prev[slot] = Some(server.desktop_mut().add_node(
                app,
                root,
                dv_access::Role::Paragraph,
                &text,
            ));
            states += 1;
        }
        // Past the shard window, so every tenant's checkpoint seals.
        clock.advance(Duration::from_millis(1100));
        for &id in &ids {
            host.checkpoint(id).expect("checkpoint");
        }
    }
    for &id in &ids {
        host.flush_session(id).expect("flush");
    }
    let ingest_wall = started.elapsed();

    let mut samples: Vec<std::time::Duration> = Vec::with_capacity(queries);
    for qi in 0..queries {
        let term = dv_workloads::common::WORDS[qi % dv_workloads::common::WORDS.len()];
        let t0 = Instant::now();
        let hits = host
            .search_all(term, RankOrder::PersistenceWeighted, 1024)
            .expect("cross-session query");
        std::hint::black_box(hits.len());
        samples.push(t0.elapsed());
    }
    samples.sort_unstable();

    let mut segments = 0u64;
    for &id in &ids {
        let server = host.session_mut(id).expect("registered tenant");
        if let Some(tidx) = server.tidx() {
            segments += tidx.stats().live_segments as u64;
        }
    }
    IndexRunOutcome {
        ingest_per_s: states as f64 / ingest_wall.as_secs_f64().max(1e-9),
        samples,
        states,
        segments,
    }
}

/// The 1/16/128-session sweep over the p99 cross-session query. The
/// unit cost is per tenant: p99(N) over N x p99(1).
fn index_sweep(scale: f64) -> Vec<IndexRow> {
    let rounds = ((10.0 * scale) as u64).max(4);
    let queries = ((64.0 * scale) as usize).max(16);
    let sweep = interleaved_sweep(
        INDEX_SWEEP,
        3,
        8,
        0.99,
        |sessions| index_run_once(sessions, rounds, queries),
        |outcome| &outcome.samples,
    );
    INDEX_SWEEP
        .iter()
        .zip(sweep)
        .map(|(&sessions, (best, ratio))| IndexRow {
            sessions,
            states: best.states,
            segments: best.segments,
            ingest_per_s: best.ingest_per_s,
            query_p50: percentile(&best.samples, 0.50),
            query_p99: percentile(&best.samples, 0.99),
            unit_ratio: ratio / sessions as f64,
        })
        .collect()
}

/// The compaction comparison: one engine accumulates many small sealed
/// segments; queries are measured (latency and shards probed, via the
/// `tidx.segment_probes` histogram) before and after compaction runs to
/// quiescence, and every probe query's hits must be identical.
fn index_compaction(scale: f64) -> IndexCompactionRow {
    use dv_index::{IndexedInstance, TextIndex};
    use std::sync::Arc;

    let clock = SimClock::new();
    let obs = Obs::new(clock.shared());
    let open = Arc::new(parking_lot::Mutex::new(TextIndex::new()));
    let engine = dv_tidx::TidxEngine::new(
        open.clone(),
        dv_lsfs::SharedBlobStore::in_memory(),
        dv_fault::FaultPlane::disabled(),
        obs.clone(),
        dv_tidx::TidxConfig::default(),
    );

    let segs = ((24.0 * scale) as u64).max(8);
    let per_seg = ((40.0 * scale) as u64).max(10);
    let mut id = 1u64;
    let mut now_ms = 0u64;
    for s in 0..segs {
        for _ in 0..per_seg {
            let text = dv_workloads::corpus_sentence(id, 6);
            let shown = now_ms;
            now_ms += 3;
            open.lock().add_instance(IndexedInstance {
                id,
                app_id: 1,
                app: "editor".to_string(),
                window: "editor window".to_string(),
                role: "paragraph".to_string(),
                text,
                shown: Timestamp::from_millis(shown),
                hidden: Some(Timestamp::from_millis(now_ms)),
                annotation: false,
            });
            id += 1;
        }
        open.lock().advance_horizon(Timestamp::from_millis(now_ms));
        engine.seal(s + 1).expect("seal");
    }
    let segments_before = engine.stats().live_segments;

    let queries = ((128.0 * scale) as usize).max(32);
    // One query round: sorted latencies, every answer, and the mean
    // shards probed per query (from the `tidx.segment_probes` histogram).
    let run_queries = |engine: &dv_tidx::TidxEngine| {
        let probes = || {
            let h = obs.histogram(dv_obs::names::TIDX_SEGMENT_PROBES);
            h.map_or((0, 0), |h| (h.sum_nanos, h.count))
        };
        let (probed_before, count_before) = probes();
        let mut latencies = Vec::with_capacity(queries);
        let mut answers: Vec<Vec<(Timestamp, usize)>> = Vec::with_capacity(queries);
        for qi in 0..queries {
            let term = dv_workloads::common::WORDS[qi % dv_workloads::common::WORDS.len()];
            let query = parse_query(term).expect("vocab term parses");
            let t0 = Instant::now();
            let hits = engine
                .search(&query, RankOrder::PersistenceWeighted)
                .expect("query");
            latencies.push(t0.elapsed());
            answers.push(hits.into_iter().map(|h| (h.time, h.matches)).collect());
        }
        latencies.sort_unstable();
        let (probed, count) = probes();
        let per_query = (probed - probed_before) as f64 / ((count - count_before) as f64).max(1.0);
        (latencies, answers, per_query)
    };
    let (lat_before, answers_before, probes_before) = run_queries(&engine);

    // Compaction to quiescence: each round merges the lowest level with
    // enough fan-in, exactly as the host's background rounds would.
    let compacting = Instant::now();
    while engine.maybe_compact().expect("compact") {}
    let compact_wall = compacting.elapsed();
    // Every input of every merge sits retired until the next seal.
    let retired = engine.log().layout().retired;
    let merged_bytes: u64 = retired.iter().map(|(meta, _)| meta.bytes).sum();
    // Retired inputs recycle only once a manifest at or past the next
    // checkpoint is durable — mirror that by sealing once more.
    open.lock()
        .advance_horizon(Timestamp::from_millis(now_ms + 10));
    engine.seal(segs + 1).expect("post-compaction seal");
    let segments_after = engine.stats().live_segments;

    let (lat_after, answers_after, probes_after) = run_queries(&engine);

    IndexCompactionRow {
        segments_before,
        segments_after,
        probes_before,
        probes_after,
        query_p99_before: percentile(&lat_before, 0.99),
        query_p99_after: percentile(&lat_after, 0.99),
        compact_mb_per_s: merged_bytes as f64 / 1e6 / compact_wall.as_secs_f64().max(1e-9),
        results_identical: answers_before == answers_after,
    }
}

/// The snapshot-consistency check: a session seals shards across
/// several checkpoints, archives, and revives; the revived session must
/// answer exactly like the original — both the full query and the
/// per-checkpoint `search_at_checkpoint` views.
fn index_snapshot_consistent() -> bool {
    let mut dv = DejaView::with_clock(index_session_config(), SimClock::new());
    let app = dv.desktop_mut().register_app("editor");
    let root = dv.desktop_mut().root(app).expect("app root");

    let mut counters = Vec::new();
    let mut prev: Option<dv_access::NodeId> = None;
    for batch in 0..4u64 {
        if let Some(node) = prev.take() {
            dv.desktop_mut().remove_subtree(app, node);
        }
        // A real gap between hide and show, so each batch's visibility
        // interval stays disjoint (adjacent intervals would coalesce
        // into one hit).
        dv.clock().advance(Duration::from_millis(100));
        let text = format!("snapshot evidence batch{batch}");
        prev = Some(
            dv.desktop_mut()
                .add_node(app, root, dv_access::Role::Paragraph, &text),
        );
        dv.clock().advance(Duration::from_millis(1100));
        let report = dv.checkpoint_now().expect("checkpoint");
        counters.push(report.counter);
    }

    // The full answer, then the answer at each checkpoint.
    let views = |dv: &mut DejaView| -> Option<Vec<Vec<(Timestamp, usize)>>> {
        let order = RankOrder::Chronological;
        let query = parse_query("evidence").ok()?;
        let mut views = vec![dv.search_hits(&query, order).ok()?];
        for &c in &counters {
            views.push(dv.search_at_checkpoint(c, "evidence", order).ok()?);
        }
        let key =
            |hits: Vec<dv_index::SearchHit>| hits.iter().map(|h| (h.time, h.matches)).collect();
        Some(views.into_iter().map(key).collect())
    };
    let Some(expected) = views(&mut dv) else {
        return false;
    };
    // The full view has one hit per batch; the view at checkpoint i
    // sees exactly the batches sealed at or before it, nothing later.
    let sizes: Vec<usize> = expected.iter().map(Vec::len).collect();
    if sizes != [4, 1, 2, 3, 4] {
        return false;
    }
    let Ok(archive) = dv.save_archive() else {
        return false;
    };
    match DejaView::load_archive(index_session_config(), &archive) {
        Ok(mut revived) => views(&mut revived) == Some(expected),
        Err(_) => false,
    }
}

/// The dv-tidx experiment: the 1/16/128-session ingest+query sweep, the
/// with/without-compaction comparison, and the revive snapshot check.
pub fn index_experiment(scale: f64) -> IndexReport {
    IndexReport {
        rows: index_sweep(scale),
        compaction: index_compaction(scale),
        snapshot_consistent: index_snapshot_consistent(),
    }
}

// ---------------------------------------------------------------------
// Visual recall: fingerprint ingest, nearest-thumbnail query fan-out
// ---------------------------------------------------------------------

/// One point of the visual-recall session sweep: `sessions` tenants
/// each recording distinct scenes through keyframes and checkpoints,
/// then served cross-tenant nearest-thumbnail queries merged by global
/// (distance, recency) order and checked against a per-tenant
/// linear-scan oracle.
pub struct VisualRow {
    /// Concurrent sessions.
    pub sessions: usize,
    /// Keyframes forced across all tenants in the kept repetition.
    pub keyframes: u64,
    /// Visual instances (open + sealed) across all tenants.
    pub instances: u64,
    /// Sealed strip segments across all tenants.
    pub segments: u64,
    /// Fraction of queries whose nearest hit matched the linear-scan
    /// oracle's nearest hit (recall@1).
    pub recall: f64,
    /// Fraction of queries whose full reply was byte-identical to the
    /// oracle merge, deterministic tie-break included.
    pub identical: f64,
    /// Fingerprint comparisons a full linear scan would have made over
    /// the same queries, divided by the comparisons the band index
    /// actually made (from the `vidx.probes` histogram).
    pub probe_reduction: f64,
    /// Median cross-session query latency.
    pub query_p50: std::time::Duration,
    /// 99th-percentile cross-session query latency.
    pub query_p99: std::time::Duration,
    /// Per-tenant p99 unit cost vs the single-session point, computed
    /// within each interleaved sweep pass and minimised across passes.
    /// 1.0 for the single-session row itself.
    pub unit_ratio: f64,
}

/// The full visual-recall report.
pub struct VisualReport {
    /// One row per session-sweep point.
    pub rows: Vec<VisualRow>,
    /// Whether an archive+revive answered `visual_at_checkpoint` with
    /// exactly the hits sealed at or before each checkpoint.
    pub snapshot_consistent: bool,
}

/// Session counts the visual sweep visits.
pub const VISUAL_SWEEP: &[usize] = &[1, 16, 128];

fn visual_session_config(obs: Obs) -> Config {
    Config {
        enable_display_recording: true,
        // One-second strip windows so every lockstep round's checkpoint
        // seals a segment.
        index_shard_window: Duration::from_millis(1000),
        obs,
        ..host_session_config()
    }
}

/// Fills the whole screen with an 8x8 tile mosaic whose colors hash
/// from `seed`. Every fingerprint grid row sees pseudo-random content,
/// so no two scenes share an accidentally-blank band (a blank band is
/// one bucket holding every scene — zero selectivity).
fn paint_visual_scene(server: &mut DejaView, seed: u64) {
    for ty in 0..6u32 {
        for tx in 0..8u32 {
            let h = seed
                .wrapping_add(((ty as u64) << 32) | tx as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let color = ((h >> 40) & 0x00FF_FFFF) as u32;
            server
                .driver_mut()
                .fill_rect(dv_display::Rect::new(tx * 8, ty * 8, 8, 8), color);
        }
    }
}

/// What one visual ingest+query run over a fresh host produced.
struct VisualRunOutcome {
    /// Per-query latencies, sorted ascending.
    samples: Vec<std::time::Duration>,
    keyframes: u64,
    instances: u64,
    segments: u64,
    recall: f64,
    identical: f64,
    probe_reduction: f64,
}

/// Runs one visual workload: every round, every tenant shows the
/// round's mosaic (fresh each round, shared across tenants — the
/// recurring application screen a recall query actually hunts for),
/// forces a keyframe, and checkpoints — which seals the round's strip
/// — then `queries` recorded-screen probes fan out over all tenants'
/// strips through [`dv_host::Host::visual_all`]. Every timed reply is
/// compared afterwards against a per-tenant linear-scan oracle merged
/// with the same global order. Because the probed scene recurs in
/// every tenant, each engine holds a within-radius candidate and the
/// pigeonhole rule never forces a full scan — the sweep measures the
/// band index, not the fallback.
fn visual_run_once(sessions: usize, rounds: u64, queries: usize) -> VisualRunOutcome {
    let clock = SimClock::new();
    // One shared obs across tenants, so every engine's probe counts
    // land in a single `vidx.probes` histogram this run can read.
    let obs = Obs::new(clock.shared());
    let mut host = dv_host::Host::with_clock(host_pool_config(), clock.clone());
    let ids: Vec<u64> = (0..sessions)
        .map(|slot| host.create_session(&format!("v{slot:04}"), visual_session_config(obs.clone())))
        .collect();

    let mut keyframes = 0u64;
    for round in 0..rounds {
        clock.advance(Duration::from_millis(1100));
        for &id in &ids {
            let server = host.session_mut(id).expect("registered tenant");
            paint_visual_scene(server, round + 1);
            server.force_keyframe();
            keyframes += 1;
        }
        // Past the strip window, so every tenant's checkpoint seals.
        for &id in &ids {
            host.checkpoint(id).expect("checkpoint");
        }
    }

    // Probes reconstruct recorded screens across tenants and rounds —
    // collected before timing so playback cost stays out of the query
    // measurement.
    let mut probes = Vec::with_capacity(queries);
    for qi in 0..queries {
        let slot = qi % sessions;
        let round = qi as u64 % rounds;
        let t = Timestamp::from_millis((round + 1) * 1100);
        let server = host.session_mut(ids[slot]).expect("registered tenant");
        probes.push(server.browse(t).expect("recorded screen"));
    }

    // The comparisons one query would cost without the band index.
    let mut linear_cost = 0u64;
    for &id in &ids {
        let server = host.session_mut(id).expect("registered tenant");
        linear_cost += server.vidx().expect("visual index on").linear_probe_cost();
    }

    warm_core();

    let probes_before = obs
        .histogram(dv_obs::names::VIDX_PROBES)
        .unwrap_or_default();
    let mut samples = Vec::with_capacity(queries);
    let mut answers = Vec::with_capacity(queries);
    for shot in &probes {
        let t0 = Instant::now();
        let hits = host.visual_all(shot, 1);
        samples.push(t0.elapsed());
        std::hint::black_box(hits.len());
        answers.push(hits);
    }
    let probes_after = obs
        .histogram(dv_obs::names::VIDX_PROBES)
        .unwrap_or_default();
    let probed = (probes_after.sum_nanos - probes_before.sum_nanos) as f64;
    let probe_reduction = (linear_cost as f64 * probes.len() as f64) / probed.max(1.0);
    samples.sort_unstable();

    // The oracle: every tenant linear-scanned, merged with the same
    // global (distance, recency, tenant, id) order `visual_all` uses.
    let mut recalled = 0usize;
    let mut matched = 0usize;
    for (shot, got) in probes.iter().zip(&answers) {
        let mut oracle: Vec<dv_host::CrossVisualHit> = Vec::new();
        for (slot, &id) in ids.iter().enumerate() {
            let server = host.session_mut(id).expect("registered tenant");
            let hits = server
                .vidx()
                .expect("visual index on")
                .query_linear(shot, 1)
                .expect("linear scan");
            oracle.extend(hits.into_iter().map(|hit| dv_host::CrossVisualHit {
                tenant: id,
                label: format!("v{slot:04}"),
                hit,
            }));
        }
        oracle.sort_by(|a, b| {
            (a.hit.distance, std::cmp::Reverse(a.hit.last), a.tenant)
                .cmp(&(b.hit.distance, std::cmp::Reverse(b.hit.last), b.tenant))
                .then(std::cmp::Reverse(a.hit.id).cmp(&std::cmp::Reverse(b.hit.id)))
        });
        oracle.truncate(1);
        let got_top = got.first().map(|h| (h.tenant, h.hit.id));
        let want_top = oracle.first().map(|h| (h.tenant, h.hit.id));
        if got_top == want_top {
            recalled += 1;
        }
        if *got == oracle {
            matched += 1;
        }
    }

    let mut instances = 0u64;
    let mut segments = 0u64;
    for &id in &ids {
        let server = host.session_mut(id).expect("registered tenant");
        let stats = server.vidx().expect("visual index on").stats();
        instances += stats.open_instances as u64 + stats.sealed_instances;
        segments += stats.live_segments as u64;
    }
    VisualRunOutcome {
        samples,
        keyframes,
        instances,
        segments,
        recall: recalled as f64 / probes.len().max(1) as f64,
        identical: matched as f64 / probes.len().max(1) as f64,
        probe_reduction,
    }
}

/// The 1/16/128-session visual sweep over the p99 nearest-thumbnail
/// query; per-tenant unit cost as in the index sweep.
fn visual_sweep(scale: f64) -> Vec<VisualRow> {
    let rounds = ((10.0 * scale) as u64).max(4);
    let queries = ((64.0 * scale) as usize).max(16);
    let sweep = interleaved_sweep(
        VISUAL_SWEEP,
        3,
        8,
        0.99,
        |sessions| visual_run_once(sessions, rounds, queries),
        |outcome| &outcome.samples,
    );
    VISUAL_SWEEP
        .iter()
        .zip(sweep)
        .map(|(&sessions, (best, ratio))| VisualRow {
            sessions,
            keyframes: best.keyframes,
            instances: best.instances,
            segments: best.segments,
            recall: best.recall,
            identical: best.identical,
            probe_reduction: best.probe_reduction,
            query_p50: percentile(&best.samples, 0.50),
            query_p99: percentile(&best.samples, 0.99),
            unit_ratio: ratio / sessions as f64,
        })
        .collect()
}

/// The visual snapshot-consistency check: a session seals strips
/// across several checkpoints, archives, and revives; the revived
/// session's `visual_at_checkpoint` must answer exactly like the
/// original at every counter — each checkpoint seeing its own batch
/// and every earlier one, never a later one.
fn visual_snapshot_consistent() -> bool {
    let mut dv = DejaView::with_clock(visual_session_config(Obs::disabled()), SimClock::new());
    let clock = dv.clock();
    let batches = 4u64;
    let mut counters = Vec::new();
    let mut probes = Vec::new();
    for batch in 0..batches {
        // Past the strip window before each keyframe, so the
        // checkpoint that follows seals exactly this batch.
        clock.advance(Duration::from_millis(1100));
        paint_visual_scene(&mut dv, batch + 1);
        dv.force_keyframe();
        match dv.browse(Timestamp::from_millis((batch + 1) * 1100)) {
            Ok(shot) => probes.push(shot),
            Err(_) => return false,
        }
        match dv.checkpoint_now() {
            Ok(report) => counters.push(report.counter),
            Err(_) => return false,
        }
    }

    // Every probe's answer — `(instance, distance)` hits — at every
    // checkpoint.
    type Answer = Vec<(u64, u32)>;
    let views = |dv: &DejaView| -> Option<Vec<Vec<Answer>>> {
        let at = |counter: u64, shot| {
            let hits = dv.visual_at_checkpoint(counter, shot, batches as usize);
            Some(hits.ok()?.iter().map(|h| (h.id, h.distance)).collect())
        };
        counters
            .iter()
            .map(|&c| probes.iter().map(|shot| at(c, shot)).collect())
            .collect()
    };
    let Some(expected) = views(&dv) else {
        return false;
    };
    // Checkpoint i sees a distance-0 instance for its own batch and
    // every earlier one, and for no later batch.
    for (i, at_checkpoint) in expected.iter().enumerate() {
        for (j, hits) in at_checkpoint.iter().enumerate() {
            if hits.iter().any(|&(_, d)| d == 0) != (j <= i) {
                return false;
            }
        }
    }
    let Ok(archive) = dv.save_archive() else {
        return false;
    };
    match DejaView::load_archive(visual_session_config(Obs::disabled()), &archive) {
        Ok(revived) => views(&revived) == Some(expected),
        Err(_) => false,
    }
}

/// The dv-vidx experiment: the 1/16/128-session ingest+query sweep
/// with oracle-exactness and probe accounting, and the archive+revive
/// snapshot check.
pub fn visual_experiment(scale: f64) -> VisualReport {
    VisualReport {
        rows: visual_sweep(scale),
        snapshot_consistent: visual_snapshot_consistent(),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::LazyLock;

    // One smoke-scale run of each gate experiment, shared by the test
    // below that asserts on its rows and the gate-table test
    // (`gates::tests`) that keys them.
    pub(crate) static DEFERRED: LazyLock<Vec<DeferredRow>> =
        LazyLock::new(|| deferred_experiment(0.05));
    pub(crate) static FAULTS: LazyLock<Vec<FaultRow>> = LazyLock::new(|| faults_experiment(0.02));
    pub(crate) static CRASH: LazyLock<Vec<CrashRow>> = LazyLock::new(|| crash_consistency(0.02));
    pub(crate) static FS_SNAPSHOT: LazyLock<Vec<FsSnapshotRow>> =
        LazyLock::new(|| fs_snapshot_experiment(0.02));
    pub(crate) static KERNELS: LazyLock<Vec<KernelRow>> = LazyLock::new(|| kernel_experiment(0.02));
    pub(crate) static NET: LazyLock<Vec<NetRow>> = LazyLock::new(|| net_experiment(0.05));
    pub(crate) static NET_WIDE: LazyLock<Vec<NetRow>> = LazyLock::new(|| net_wide_experiment(0.02));
    pub(crate) static HOST: LazyLock<HostReport> = LazyLock::new(|| host_experiment(0.05));
    pub(crate) static DEDUP: LazyLock<Vec<DedupRow>> = LazyLock::new(|| dedup_experiment(0.05));
    pub(crate) static INDEX: LazyLock<IndexReport> = LazyLock::new(|| index_experiment(0.1));
    pub(crate) static VISUAL: LazyLock<VisualReport> = LazyLock::new(|| visual_experiment(0.1));

    #[test]
    fn deferred_modes_commit_identical_histories() {
        let rows: &[DeferredRow] = &DEFERRED;
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].workers, 0);
        for row in &rows[1..] {
            assert_eq!(
                row.fingerprint, rows[0].fingerprint,
                "{} diverged from inline",
                row.config
            );
            assert_eq!(row.checkpoints, rows[0].checkpoints);
            assert_eq!(row.pages_restored, rows[0].pages_restored);
        }
    }

    #[test]
    fn faults_smoke() {
        let rows: &[FaultRow] = &FAULTS;
        assert_eq!(rows.len(), dv_fault::sites::ALL.len() * 5);
        for row in rows {
            assert!(row.browse_ok, "{}/{}: browse survived", row.site, row.fault);
            assert!(row.search_ok, "{}/{}: search survived", row.site, row.fault);
        }
        // At least some rows actually injected faults.
        assert!(rows.iter().any(|r| r.injected > 0));
    }

    #[test]
    fn crash_smoke() {
        let rows: &[CrashRow] = &CRASH;
        assert_eq!(rows.len(), 5);
        for row in rows {
            assert!(row.recovered, "cut at {} bytes recovered", row.cut_bytes);
        }
        // The full image keeps the most snapshots.
        assert!(rows.last().unwrap().snapshots >= rows[0].snapshots);
    }

    #[test]
    fn fig3_smoke() {
        // One cheap scenario end to end through the harness path.
        let rows = fig3_checkpoint_latency(0.02);
        assert_eq!(rows.len(), ALL_SCENARIOS.len());
        for row in &rows {
            if row.checkpoints > 0 {
                assert!(row.downtime <= row.downtime + row.writeback);
            }
        }
    }

    #[test]
    fn net_smoke() {
        let rows: &[NetRow] = &NET;
        assert_eq!(rows.len(), 4);
        for row in rows {
            assert!(row.all_converged, "fanout {} diverged", row.fanout);
            assert!(row.frames_delivered > 0);
        }
        // Bursts past the queue bound must exercise coalescing at the
        // wider fan-outs.
        assert!(rows.iter().any(|r| r.coalesce_events > 0));
        // Identity-scale viewers: one encode per live batch, whatever
        // the fan-out.
        for row in rows {
            assert!(
                (row.encode_ratio() - 1.0).abs() < 1e-9,
                "fanout {}: {} encodes for {} batches",
                row.fanout,
                row.live_encodes,
                row.live_batches
            );
        }
    }

    #[test]
    fn net_wide_smoke() {
        let rows: &[NetRow] = &NET_WIDE;
        assert_eq!(rows.len(), 3);
        for row in rows {
            assert!(row.all_converged, "fanout {} diverged", row.fanout);
            assert!(
                (row.encode_ratio() - 1.0).abs() < 1e-9,
                "fanout {}: {} encodes for {} batches",
                row.fanout,
                row.live_encodes,
                row.live_batches
            );
        }
    }

    #[test]
    fn host_smoke() {
        let one = host_run_once(1, 3, 2, false, false);
        let sixteen = host_run_once(16, 3, 2, false, false);
        assert!(one.checkpoints > 0 && sixteen.checkpoints > 0);
        assert_eq!(
            one.fingerprints[0], sixteen.fingerprints[0],
            "a tenant's record must not depend on how many neighbours it has"
        );
        let interference = &HOST.interference;
        assert_eq!(interference.neighbors_degraded, 0, "neighbours degraded");
        assert!(interference.faulted_degraded > 0, "fault did not bite");
        assert!(interference.fingerprints_match, "neighbour records changed");
        assert!(interference.faulted_traced, "fault left no labelled trace");
    }

    #[test]
    fn dedup_smoke() {
        let rows: &[DedupRow] = &DEDUP;
        assert_eq!(rows.len(), 2);
        for row in rows {
            assert!(
                row.dedup_ratio() >= 2.0,
                "{}: dedup ratio {:.2} under 2x (logical={} physical={})",
                row.workload,
                row.dedup_ratio(),
                row.logical_bytes,
                row.physical_bytes
            );
            assert!(
                row.fingerprints_match,
                "{}: restores diverged",
                row.workload
            );
            assert!(row.dedup_hits > 0);
        }
        // The multi-tenant point must dedup harder than the single
        // tenant: 16 identical histories share one chunk set.
        assert!(rows[1].dedup_ratio() > rows[0].dedup_ratio());
    }

    #[test]
    fn index_experiment_compacts_and_revives_consistently() {
        let report: &IndexReport = &INDEX;
        assert_eq!(report.rows.len(), INDEX_SWEEP.len());
        for row in &report.rows {
            assert!(row.states > 0 && row.segments > 0);
            assert!(row.query_p50 <= row.query_p99);
        }
        let c = &report.compaction;
        assert!(
            c.segments_after < c.segments_before,
            "compaction left {} of {} segments",
            c.segments_after,
            c.segments_before
        );
        assert!(
            c.probe_reduction() > 1.0,
            "probes/query {:.1} -> {:.1}",
            c.probes_before,
            c.probes_after
        );
        assert!(c.results_identical, "compaction changed a query answer");
        assert!(
            report.snapshot_consistent,
            "revive saw hits not sealed at or before its checkpoint"
        );
    }

    #[test]
    fn visual_experiment_is_oracle_exact_and_revives_consistently() {
        let report: &VisualReport = &VISUAL;
        assert_eq!(report.rows.len(), VISUAL_SWEEP.len());
        for row in &report.rows {
            assert!(row.keyframes > 0 && row.instances > 0 && row.segments > 0);
            assert!(row.query_p50 <= row.query_p99);
            assert!(
                row.recall >= 1.0 - 1e-9,
                "{} sessions: recall@1 {:.3} against the linear-scan oracle",
                row.sessions,
                row.recall
            );
            assert!(
                row.identical >= 1.0 - 1e-9,
                "{} sessions: {:.3} of replies matched the oracle merge exactly",
                row.sessions,
                row.identical
            );
        }
        // The widest point must show the band index earning its keep.
        let widest = report.rows.last().unwrap();
        assert!(
            widest.probe_reduction > 1.0,
            "128 sessions: probe reduction {:.2}x",
            widest.probe_reduction
        );
        assert!(
            report.snapshot_consistent,
            "revive saw visual hits not sealed at or before its checkpoint"
        );
    }

    #[test]
    fn policy_effectiveness_matches_paper_shape() {
        let stats = policy_effectiveness(0.06);
        let frac = stats.checkpoint_fraction();
        assert!((0.1..0.4).contains(&frac), "checkpoint fraction {frac}");
    }
}
