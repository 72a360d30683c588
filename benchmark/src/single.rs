//! One run of a single-session workload: set-up, the six phases, the
//! traced extras, and the metrics that come out.

use std::fmt::Write as _;
use std::time::Instant;

use dejaview::{Config, DejaView};
use dv_display::{CommandSink, DisplayCommand, Screenshot, VirtualDisplayDriver};
use dv_obs::{Obs, ObsSnapshot};
use dv_record::DisplayRecorder;
use dv_time::{SimClock, Timestamp};

use crate::calib::Pace;
use crate::metrics::{Metric, MetricSet};
use crate::player::{play_ops, populate, warm_up, Reads, RecordStats, Samples, Stage, Tally};
use crate::script::{self, Session};
use crate::stats::{median, percentile};
use crate::trace::{self, Layer, LayerRow, Phase, Tracer};
use crate::workloads::{
    Workload, MIN_PHASE_SHARE, MIN_SAMPLES, READ_ROUNDS, RUN_SECONDS, SETUP_REPEATS,
};

/// Share of the script the traced run first plays untraced, to learn
/// what the spans themselves cost.
const OVERHEAD_SHARE: f64 = 0.25;
/// A traced run issues half the reads to make room for its extras.
const TRACED_READ_SHARE: f64 = 0.5;
const VISUAL_QUERIES: usize = 200;
const VISUAL_PROBES: usize = 50;
const RPC_SEEKS: usize = 100;
/// Commands decoded at a time for the sink-isolated replays.
const REPLAY_CHUNK_BYTES: usize = 64 << 20;

/// Times the parts of set-up one after another, each scaled to the
/// reference box by the calibration kernel as it runs right after.
pub struct Lap(Instant);

impl Lap {
    pub fn start() -> Self {
        Lap(Instant::now())
    }

    /// Seconds since the last call (or the start), scaled; a kernel run
    /// this triggers is not part of the next lap.
    pub fn scaled(&mut self, pace: &mut Pace) -> f64 {
        let dt = self.0.elapsed().as_secs_f64();
        pace.scaled(dt);
        pace.settle();
        self.0 = Instant::now();
        dt * pace.scale()
    }
}

/// What a run hands back to `main`.
pub struct RunResult {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// The human-readable report printed above the result line.
    pub text: String,
}

/// Walls and counts the phases produced, shared by both metric sets.
#[derive(Default)]
pub struct Measured {
    pub setup_s: Vec<f64>,
    pub record: RecordStats,
    pub flush_wait_s: f64,
    /// Read-phase walls and every latency sample, the record phase's
    /// probes and stalls included.
    pub reads: Reads,
    /// Session seconds one playback pass covers.
    pub playback_pass_secs: u64,
    pub storage_bytes: u64,
    pub virtual_secs: u64,
    /// How the calibration kernel ran during the timed phases.
    pub box_speed: String,
}

fn traced_config(w: Workload, clock: &SimClock, trace: bool) -> Config {
    let mut config = w.config();
    if trace {
        // The program's own histograms then hold wall time, which is
        // where `lsfs.sync_busy_s` comes from.
        config.obs = Obs::wall(clock.shared());
    }
    config
}

fn new_stage(w: Workload, s: &Session, trace: bool) -> Stage {
    let clock = SimClock::new();
    let config = traced_config(w, &clock, trace);
    Stage::new(s, config, clock, w.viewers(), w.policy_driven())
}

/// Display + index + checkpoint + file-system bytes, plus the sealed
/// visual strips, which the program's own breakdown leaves out.
pub fn storage_bytes(dv: &DejaView) -> u64 {
    dv.storage().total_stored() + dv.vidx().map_or(0, |v| v.stats().strip_bytes)
}

pub fn run(w: Workload, seed: u64, seconds: u64, trace: bool, prefault_s: f64) -> RunResult {
    let shape = w.shape(seconds);
    let mut m = Measured::default();
    let mut tally = Tally::default();
    let mut tr = Tracer::new(trace);

    // Set-up: generate the script, warm up on a throwaway server, build
    // the server to be measured. Repeated so `setup_s` is a median.
    let repeats = if trace { 1 } else { SETUP_REPEATS };
    let mut pace = Pace::new();
    let mut built = None;
    for _ in 0..repeats {
        drop(built.take());
        let mut lap = Lap::start();
        let s = script::session(seed, shape);
        let mut setup = lap.scaled(&mut pace);
        warm_up(&s, w.config(), w.viewers(), w.policy_driven());
        setup += lap.scaled(&mut pace);
        let stage = new_stage(w, &s, trace);
        setup += lap.scaled(&mut pace);
        m.setup_s.push(setup);
        built = Some((s, stage));
    }
    let (s, mut stage) = built.expect("at least one set-up");
    m.virtual_secs = s.secs;
    m.playback_pass_secs = s.secs;

    // What tracing costs: the first quarter of the script untraced on
    // a server of its own, window by window against the traced run.
    let reference = trace.then(|| {
        let steps = overhead_steps(&s);
        let mut plain = new_stage(w, &s, trace);
        let mut scratch = (Tally::default(), Samples::default());
        plain.record(
            &s,
            steps,
            &mut Tracer::new(false),
            &mut scratch.0,
            &mut scratch.1,
        )
    });
    let storage0 = storage_bytes(stage.dv());
    m.record = stage.record(&s, s.steps.len(), &mut tr, &mut tally, &mut m.reads.samples);
    m.flush_wait_s = stage.flush(&mut tr, &mut tally);
    m.storage_bytes = storage_bytes(stage.dv()) - storage0;
    let counters = stage.dv().observability();

    let share = if trace { TRACED_READ_SHARE } else { 1.0 };
    for round in 0..READ_ROUNDS {
        stage.read_round(&s, round, share, &mut tr, &mut tally, &mut m.reads);
    }
    tally.check(m.reads.browse_oracle_met(), || {
        "too few seeks landed on a noted step to compare".to_string()
    });
    m.box_speed = stage.box_speed();

    let mut text = String::new();
    let metrics = if trace {
        let extras = Extras::measure(w, &s, &mut stage, &mut tr, &mut tally);
        let after = stage.dv().observability();
        let rows = trace::layer_table(tr.spans());
        let json = trace::to_json(w.name(), seed, tr.spans(), &rows);
        write_trace(w, &json, &mut text);
        let mut set = MetricSet::per_layer();
        layer_metrics(&mut set, &m, &tr, &rows, &counters, &after);
        extras.fill(&mut set, &m, reference.as_ref());
        set.set("harness.prefault_s", prefault_s);
        render_layers(&mut text, &rows);
        set.finish()
    } else {
        end_to_end(&m)
    };
    render_run(&mut text, w, seed, seconds, trace, &m, &tally);
    RunResult {
        tally,
        metrics,
        text,
    }
}

fn overhead_steps(s: &Session) -> usize {
    let windows = ((s.steps.len() as f64 * OVERHEAD_SHARE) as usize / s.window_steps).max(1);
    (windows * s.window_steps).min(s.steps.len())
}

/// The end-to-end metrics from what an untraced run measured.
pub fn end_to_end(m: &Measured) -> Vec<Metric> {
    let mut set = MetricSet::end_to_end();
    let sm = &m.reads.samples;
    set.set("setup_s", median(&m.setup_s));
    set.set(
        "record_steps_per_s",
        m.record.steps as f64 / m.record.scaled_s,
    );
    set.set("input_to_pixel_p50_ms", percentile(&sm.probe_ms, 50.0));
    set.set("checkpoint_stall_p90_ms", percentile(&sm.stall_ms, 90.0));
    set.set("browse_p50_ms", percentile(&sm.browse_ms, 50.0));
    set.set("browse_p90_ms", percentile(&sm.browse_ms, 90.0));
    set.set("search_p50_ms", percentile(&sm.search_ms, 50.0));
    set.set("search_p90_ms", percentile(&sm.search_ms, 90.0));
    set.set("revive_p50_ms", percentile(&sm.revive_ms, 50.0));
    set.set("revive_p90_ms", percentile(&sm.revive_ms, 90.0));
    set.set(
        "playback_x_realtime",
        (m.playback_pass_secs * m.reads.playback.passes) as f64 / m.reads.playback.scaled_s,
    );
    set.set(
        "storage_bytes_per_s",
        m.storage_bytes as f64 / m.virtual_secs as f64,
    );
    set.set("peak_heap_mb", crate::alloc::stats().peak as f64 / 1e6);
    set.finish()
}

/// Per-layer metrics every workload shares: span sums, the program's
/// own counters (`record` is the snapshot at the end of the record
/// phase, `end` the one after every phase), sample counts and walls.
pub fn layer_metrics(
    set: &mut MetricSet,
    m: &Measured,
    tr: &Tracer,
    rows: &[LayerRow],
    record: &ObsSnapshot,
    end: &ObsSnapshot,
) {
    let in_record =
        |layer: Layer| move |s: &trace::Span| s.layer == layer && s.phase == Phase::Record;
    let named =
        |name: &'static str| move |s: &trace::Span| s.name == name && s.layer != Layer::Harness;
    let c = |name: &str| record.counter(name) as f64;
    let hist_s = |name: &str| {
        end.histogram(name)
            .map_or(0.0, |h| h.sum_nanos as f64 / 1e9)
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    set.set(
        "display.driver_busy_s",
        tr.busy_s(in_record(Layer::Display)),
    );
    set.set("display.commands", c("display.driver_commands"));
    set.set("display.command_bytes", c("display.driver_bytes"));
    set.set("record.log_bytes", c("display.command_bytes"));
    set.set("record.keyframes", c("display.keyframes"));
    set.set("record.keyframe_bytes", c("display.screenshot_bytes"));
    set.set("record.seek_busy_s", tr.busy_s(named("browse")));
    set.set(
        "record.playback_commands_per_s",
        ratio(m.reads.playback.commands as f64, m.reads.playback.wall_s),
    );
    set.set("access.update_busy_s", tr.busy_s(in_record(Layer::Access)));
    set.set("access.text_events", c("text.events"));
    set.set("access.text_shown", c("text.shown"));
    let search_hits = tr.busy_s(named("search_hits"));
    set.set("tidx.query_busy_s", search_hits);
    set.set(
        "core.portal_busy_s",
        tr.busy_s(named("search")) - search_hits,
    );
    set.set("tidx.ingested", c("tidx.ingested"));
    set.set("tidx.filtered", c("tidx.filtered"));
    set.set(
        "tidx.filter_ratio",
        ratio(c("tidx.ingested"), c("tidx.ingested") + c("tidx.filtered")),
    );
    set.set("tidx.seals", c("tidx.seals"));
    set.set("tidx.compactions", c("tidx.compactions"));
    set.set("tidx.compact_busy_s", tr.busy_s(named("compact")));
    let probes = end.histogram("tidx.segment_probes");
    set.set(
        "tidx.segment_probes_per_query",
        probes.map_or(0.0, |h| ratio(h.sum_nanos as f64, h.count as f64)),
    );
    set.set("index.bytes", c("index.bytes"));
    set.set("vidx.keyframes", c("vidx.keyframes"));
    set.set("vidx.coalesced", c("vidx.coalesced"));
    set.set("vidx.strip_bytes", c("vidx.strip_bytes"));
    set.set("vee.op_busy_s", tr.busy_s(in_record(Layer::Vee)));
    set.set(
        "checkpoint.call_busy_s",
        tr.busy_s(named("tick")) + tr.busy_s(named("checkpoint")),
    );
    set.set("checkpoint.count", c("checkpoint.count"));
    set.set("checkpoint.full", c("checkpoint.full"));
    set.set(
        "checkpoint.skip_ratio",
        ratio(
            (m.record.ticks - m.record.checkpoints) as f64,
            m.record.ticks as f64,
        ),
    );
    set.set("checkpoint.raw_bytes", c("checkpoint.raw_bytes"));
    set.set("checkpoint.stored_bytes", c("checkpoint.stored_bytes"));
    set.set(
        "checkpoint.sync_downtime_s",
        c("checkpoint.sync_downtime_nanos") / 1e9,
    );
    set.set(
        "checkpoint.async_commit_s",
        c("checkpoint.async_commit_nanos") / 1e9,
    );
    set.set(
        "checkpoint.inline_fallbacks",
        c("checkpoint.inline_fallbacks"),
    );
    set.set("checkpoint.flush_wait_s", m.flush_wait_s);
    set.set(
        "checkpoint.stall_p50_ms",
        percentile(&m.reads.samples.stall_ms, 50.0),
    );
    set.set(
        "checkpoint.stall_p99_ms",
        percentile(&m.reads.samples.stall_ms, 99.0),
    );
    set.set(
        "checkpoint.restore_busy_s",
        tr.busy_s(named("take_me_back")),
    );
    set.set(
        "checkpoint.restore_chain_len",
        ratio(
            m.reads.images_loaded as f64,
            m.reads.samples.revive_ms.len() as f64,
        ),
    );
    set.set("lsfs.blob_puts", c("lsfs.blob_puts"));
    set.set("lsfs.blob_put_bytes", c("lsfs.blob_put_bytes"));
    set.set("lsfs.blob_gets", end.counter("lsfs.blob_gets") as f64);
    set.set("lsfs.journal_bytes", c("lsfs.journal_bytes"));
    set.set("lsfs.data_bytes", c("lsfs.data_bytes"));
    set.set("lsfs.snapshots", record.gauge("lsfs.snapshots") as f64);
    set.set("lsfs.sync_busy_s", hist_s("lsfs.sync"));
    set.set(
        "net.service_poll_busy_s",
        tr.busy_s(|s| s.name == "service_poll" && s.phase == Phase::Record),
    );
    set.set(
        "net.client_poll_busy_s",
        tr.busy_s(|s| s.name == "client_poll" && s.phase == Phase::Record),
    );
    set.set("net.bytes_sent", c("net.bytes_sent"));
    set.set("net.frames_sent", c("net.frames_sent"));
    set.set("net.coalesce_events", c("net.coalesce_events"));
    set.set(
        "net.encodes_per_batch",
        ratio(c("net.encodes_per_batch"), c("net.live_batches")),
    );
    set.set("net.keyframe_encodes", c("net.keyframe_encodes"));
    set.set("core.input_busy_s", tr.busy_s(named("input")));
    for (phase, wall) in [
        (Phase::Record, m.record.phase_s),
        (Phase::Browse, m.reads.browse_wall_s),
        (Phase::Search, m.reads.search_wall_s),
        (Phase::Revive, m.reads.revive_wall_s),
        (Phase::Playback, m.reads.playback.wall_s),
    ] {
        set.set(
            &format!("core.unattributed_frac.{}", phase.name()),
            trace::unattributed_frac(rows, phase, wall),
        );
        set.set(&format!("harness.phase_wall_s.{}", phase.name()), wall);
    }
    set.set("harness.phase_wall_s.flush", m.flush_wait_s);
    let sm = &m.reads.samples;
    set.set("core.input_to_pixel_p90_ms", percentile(&sm.probe_ms, 90.0));
    set.set("core.input_to_pixel_p99_ms", percentile(&sm.probe_ms, 99.0));
    set.set("core.browse_p99_ms", percentile(&sm.browse_ms, 99.0));
    set.set("core.search_p99_ms", percentile(&sm.search_ms, 99.0));
    set.set("core.revive_p99_ms", percentile(&sm.revive_ms, 99.0));
    set.set("harness.samples.input_to_pixel", sm.probe_ms.len() as f64);
    set.set("harness.samples.checkpoint_stall", sm.stall_ms.len() as f64);
    set.set("harness.samples.browse", sm.browse_ms.len() as f64);
    set.set("harness.samples.search", sm.search_ms.len() as f64);
    set.set("harness.samples.revive", sm.revive_ms.len() as f64);
    set.set("obs.spans", tr.spans().len() as f64);
    set.set(
        "harness.alloc_bytes_per_step",
        ratio(m.record.alloc_bytes as f64, m.record.steps as f64),
    );
    set.set(
        "harness.alloc_calls_per_step",
        ratio(m.record.alloc_calls as f64, m.record.steps as f64),
    );
    for layer in Layer::ALL {
        set.set(
            &format!("layer.{}.record_self_s", layer.name()),
            trace::layer_self_s(rows, Phase::Record, layer),
        );
    }
}

/// Overhead of the spans: how much longer the traced run took over the
/// windows both runs played, as a share of the untraced time.
pub fn trace_overhead(traced: &RecordStats, plain: &RecordStats) -> f64 {
    let n = plain.windows.len().min(traced.windows.len());
    let (t, p): (f64, f64) = (
        traced.windows[..n].iter().sum(),
        plain.windows[..n].iter().sum(),
    );
    if p > 0.0 {
        t / p - 1.0
    } else {
        0.0
    }
}

/// What only a traced run measures, after the timed phases.
struct Extras {
    bare_apply_s: f64,
    sink_busy_s: f64,
    baseline_steps_per_s: f64,
    visual_busy_s: f64,
    visual_probes_per_query: f64,
    seek_commands_per_seek: f64,
    rpc_seek_busy_s: f64,
}

impl Extras {
    fn measure(
        w: Workload,
        s: &Session,
        stage: &mut Stage,
        tr: &mut Tracer,
        tally: &mut Tally,
    ) -> Extras {
        tr.set_phase(Phase::Extra);
        let (bare_apply_s, sink_busy_s) = replay_sinks(w, stage, tr);
        let (steps, wall) = baseline(w.config(), s);
        let baseline_steps_per_s = steps as f64 / wall;

        // Visual recall: fifty recorded screens, each queried four
        // times; building the probes is not timed.
        let dv = stage.svc.dv_mut();
        let shots: Vec<Screenshot> = s.seeks[..VISUAL_PROBES]
            .iter()
            .filter_map(|&t| dv.browse(Timestamp::from_nanos(t)).ok())
            .collect();
        let before = dv.observability();
        for i in 0..VISUAL_QUERIES {
            tally.attempt();
            let hits = tr.span(Layer::Vidx, "visual_hits", || {
                dv.visual_hits(&shots[i % shots.len()], 5)
            });
            tally.check(hits.is_ok(), || format!("visual_hits failed: {hits:?}"));
        }
        let after = dv.observability();
        let probes = |o: &ObsSnapshot| o.histogram("vidx.probes").map_or(0, |h| h.sum_nanos);
        let visual_probes_per_query =
            (probes(&after) - probes(&before)) as f64 / VISUAL_QUERIES as f64;

        // Commands replayed per seek, from the playback engine's own
        // statistics.
        let mut engine = dv.playback();
        let mut applied = 0u64;
        for &t in &s.seeks[..RPC_SEEKS] {
            if let Ok(stats) = engine.seek(Timestamp::from_nanos(t)) {
                applied += stats.commands_applied + stats.commands_pruned;
            }
        }

        // Remote seeks: request → server browse → screenshot on the
        // wire → reply decoded at the viewer.
        for &t in &s.seeks[..RPC_SEEKS] {
            tally.attempt();
            let done = tr.span(Layer::Net, "rpc_seek", || {
                let req = stage.clients[0].seek(Timestamp::from_nanos(t));
                (0..64).any(|_| {
                    let _ = stage.clients[0].poll();
                    stage.svc.poll();
                    let _ = stage.clients[0].poll();
                    stage.clients[0].take_seek_reply(req).is_some()
                })
            });
            tally.check(done, || format!("remote seek to {t} ns got no reply"));
        }
        Extras {
            bare_apply_s,
            sink_busy_s,
            baseline_steps_per_s,
            visual_busy_s: tr.busy_s(|s| s.name == "visual_hits"),
            visual_probes_per_query,
            seek_commands_per_seek: applied as f64 / RPC_SEEKS as f64,
            rpc_seek_busy_s: tr.busy_s(|s| s.name == "rpc_seek"),
        }
    }

    fn fill(&self, set: &mut MetricSet, m: &Measured, reference: Option<&RecordStats>) {
        set.set("display.bare_apply_s", self.bare_apply_s);
        set.set("record.sink_busy_s", self.sink_busy_s);
        set.set("core.baseline_steps_per_s", self.baseline_steps_per_s);
        set.set("vidx.query_busy_s", self.visual_busy_s);
        set.set("vidx.probes_per_query", self.visual_probes_per_query);
        set.set("record.seek_commands_per_seek", self.seek_commands_per_seek);
        set.set("net.rpc_seek_busy_s", self.rpc_seek_busy_s);
        if let Some(plain) = reference {
            set.set("obs.trace_overhead_frac", trace_overhead(&m.record, plain));
        }
    }
}

/// Replays the recorded command stream into a driver with no sinks
/// (the display layer's self time) and into a recorder on its own (the
/// record sink's time). Decoding the log is not timed.
fn replay_sinks(w: Workload, stage: &mut Stage, tr: &mut Tracer) -> (f64, f64) {
    let config = w.config();
    let clock = SimClock::new();
    let mut driver = VirtualDisplayDriver::new(config.width, config.height, clock.shared());
    let mut recorder = DisplayRecorder::new(config.width, config.height, config.recorder);
    let record = stage.dv().record();
    let store = record.read();
    let mut log = store.log.iter_from(0).peekable();
    while log.peek().is_some() {
        let mut chunk: Vec<(Timestamp, DisplayCommand)> = Vec::new();
        let mut bytes = 0;
        while bytes < REPLAY_CHUNK_BYTES {
            let Some(entry) = log.next() else { break };
            bytes += entry.1.wire_size();
            chunk.push(entry);
        }
        tr.span(Layer::Display, "bare_apply", || {
            for (_, cmd) in &chunk {
                driver.submit(cmd.clone());
            }
        });
        tr.span(Layer::Record, "sink_replay", || {
            for (ts, cmd) in &chunk {
                recorder.submit(*ts, cmd);
            }
        });
    }
    (
        tr.busy_s(|s| s.name == "bare_apply"),
        tr.busy_s(|s| s.name == "sink_replay"),
    )
}

/// The same script with display recording, text capture, the visual
/// index, checkpoints and viewers all off: the denominator of the
/// paper's recording-overhead figure. Returns steps and wall seconds.
pub fn baseline(config: Config, s: &Session) -> (usize, f64) {
    let clock = SimClock::new();
    let config = Config {
        enable_display_recording: false,
        enable_text_capture: false,
        enable_visual_index: false,
        ..config
    };
    let mut dv = DejaView::with_clock(config, clock.clone());
    let mut h = populate(&mut dv, s);
    let mut tr = Tracer::new(false);
    let t0 = Instant::now();
    for step in &s.steps {
        clock.set(Timestamp::from_nanos(step.at_ns));
        play_ops(&mut dv, s, &mut h, step, &mut tr);
    }
    (s.steps.len(), t0.elapsed().as_secs_f64())
}

pub fn write_trace(w: Workload, json: &str, text: &mut String) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}.json", w.name()));
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json));
    match written {
        Ok(()) => {
            let _ = writeln!(text, "trace: {} ({} bytes)", path.display(), json.len());
        }
        Err(e) => {
            let _ = writeln!(text, "trace: could not write {}: {e}", path.display());
        }
    }
}

pub fn render_layers(text: &mut String, rows: &[LayerRow]) {
    let _ = writeln!(
        text,
        "{:<9} {:<11} {:>9} {:>11} {:>11}",
        "phase", "layer", "spans", "busy_s", "self_s"
    );
    for r in rows {
        let _ = writeln!(
            text,
            "{:<9} {:<11} {:>9} {:>11.6} {:>11.6}",
            r.phase.name(),
            r.layer.name(),
            r.spans,
            r.busy_s,
            r.self_s
        );
    }
}

/// Phase walls, sample counts and failures: what a reviewer needs to
/// check rules 1 and 2.
pub fn render_run(
    text: &mut String,
    w: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    m: &Measured,
    tally: &Tally,
) {
    let _ = writeln!(
        text,
        "workload {} seed {seed} seconds {seconds}: {} virtual s, {} steps, {} checkpoints in {} ticks",
        w.name(),
        m.virtual_secs,
        m.record.steps,
        m.record.checkpoints,
        m.record.ticks
    );
    let _ = writeln!(
        text,
        "phase walls: setup {:?} record {:.3} flush {:.3} browse {:.3} search {:.3} revive {:.3} playback {:.3} ({} passes)",
        m.setup_s,
        m.record.wall_s,
        m.flush_wait_s,
        m.reads.browse_wall_s,
        m.reads.search_wall_s,
        m.reads.revive_wall_s,
        m.reads.playback.wall_s,
        m.reads.playback.passes
    );
    let _ = writeln!(text, "box speed: {}", m.box_speed);
    let sm = &m.reads.samples;
    let _ = writeln!(
        text,
        "samples: input_to_pixel {} checkpoint_stall {} browse {} search {} revive {} rate windows {}",
        sm.probe_ms.len(),
        sm.stall_ms.len(),
        sm.browse_ms.len(),
        sm.search_ms.len(),
        sm.revive_ms.len(),
        m.record.windows.len()
    );
    // The shape of each latency distribution: a percentile that sits on
    // the edge between two modes is the first thing to suspect when a
    // metric will not repeat.
    for (name, v) in [
        ("input_to_pixel", &sm.probe_ms),
        ("checkpoint_stall", &sm.stall_ms),
        ("browse", &sm.browse_ms),
        ("search", &sm.search_ms),
        ("revive", &sm.revive_ms),
    ] {
        let _ = write!(text, "{name}_ms p10/25/50/75/90/99:");
        for p in [10.0, 25.0, 50.0, 75.0, 90.0, 99.0] {
            let _ = write!(text, " {:.4}", percentile(v, p));
        }
        let _ = writeln!(text);
    }
    let _ = writeln!(
        text,
        "threads: the player, plus one commit worker on build_churn and host_tenants; nproc {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    // Rules 1 and 2: every timed phase lasts its share of `--seconds`
    // and every latency metric rests on enough samples. The host
    // workload has no read phases of its own (its reads are issued
    // inside the record phase), and a traced run halves the reads.
    let floor = seconds as f64 * MIN_PHASE_SHARE;
    let mut broken: Vec<String> = Vec::new();
    for (name, wall) in [
        ("record", m.record.wall_s),
        ("browse", m.reads.browse_wall_s),
        ("search", m.reads.search_wall_s),
        ("revive", m.reads.revive_wall_s),
        ("playback", m.reads.playback.wall_s),
    ] {
        if wall > 0.0 && wall < floor && !trace {
            broken.push(format!("{name} phase {wall:.3} s < {floor:.3} s"));
        }
    }
    for (name, n) in [
        ("input_to_pixel", sm.probe_ms.len()),
        ("checkpoint_stall", sm.stall_ms.len()),
        ("browse", sm.browse_ms.len()),
        ("search", sm.search_ms.len()),
        ("revive", sm.revive_ms.len()),
    ] {
        if n < MIN_SAMPLES && seconds >= RUN_SECONDS {
            broken.push(format!("{name} has {n} samples < {MIN_SAMPLES}"));
        }
    }
    if broken.is_empty() {
        let _ = writeln!(
            text,
            "rules: ok (phases >= {floor:.1} s, samples >= {MIN_SAMPLES})"
        );
    } else {
        let _ = writeln!(text, "rules: VIOLATED {}", broken.join("; "));
    }
    let _ = writeln!(
        text,
        "operations: {} attempted, {} failed",
        tally.attempted, tally.failed
    );
    for note in &tally.notes {
        let _ = writeln!(text, "  failed: {note}");
    }
}
