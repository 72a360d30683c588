//! The `host_tenants` run: eight tenants on one `dv_host::Host`, with
//! reads issued beside the writes.
//!
//! One player drives everything in session-time order: tenant steps,
//! a checkpoint of every tenant each second, and after it a search
//! across all tenants, a browse, a revive and, now and then, a visual
//! query, an index-compaction round or a storage GC. There are no
//! separate read phases: every read latency is measured while the
//! commit worker is still busy with the writes around it.

use std::collections::HashMap;
use std::time::Instant;

use dv_display::{InputEvent, Pixel};
use dv_host::Host;
use dv_index::RankOrder;
use dv_obs::Obs;
use dv_time::{SimClock, Timestamp};

use crate::calib::Pace;
use crate::metrics::MetricSet;
use crate::player::{
    check_revived, play_ops, play_pass, populate, Handles, Playback, RecordStats, Samples, Tally,
};
use crate::script::{self, Event, HostScript, Probe, Read, Session, NS_PER_SEC};
use crate::single::{
    baseline, end_to_end, layer_metrics, render_layers, render_run, trace_overhead, write_trace,
    Lap, Measured, RunResult,
};
use crate::stats::percentile;
use crate::trace::{self, Layer, Phase, Tracer};
use crate::workloads::{
    host_config, tenant_config, tenant_shapes, Workload, HOST_PLAYBACK_PASSES, SETUP_REPEATS,
    WARMUP_SHARE,
};

const GLYPH_FG: Pixel = 0x00FF_FFFF;
/// Chunks a storage GC round sweeps per batch.
const GC_BATCH: usize = 256;
/// Hits `search_all` may return, each browsed as a portal.
const SEARCH_LIMIT: usize = 10;
const VISUAL_K: usize = 5;
const VISUAL_QUERIES: usize = 200;

/// A live host and the handles each tenant's script resolves to.
struct HostStage {
    host: Host,
    clock: SimClock,
    ids: Vec<u64>,
    handles: Vec<Handles>,
    /// Fingerprints noted during record, by tenant and step time.
    noted: Vec<HashMap<u64, u64>>,
    /// Checkpoint stalls per tenant, for the spread between tenants.
    tenant_stalls: Vec<Vec<f64>>,
    images_loaded: usize,
    pace: Pace,
}

impl HostStage {
    fn new(script: &HostScript, trace: bool) -> HostStage {
        let clock = SimClock::new();
        let mut host = Host::with_clock(host_config(), clock.clone());
        let mut ids = Vec::new();
        let mut handles = Vec::new();
        for (t, s) in script.tenants.iter().enumerate() {
            let mut config = tenant_config(s.screen);
            if trace {
                config.obs = Obs::wall(clock.shared());
            }
            let id = host.create_session(&format!("tenant{t}"), config);
            handles.push(populate(
                host.session_mut(id).expect("session just created"),
                s,
            ));
            ids.push(id);
        }
        let n = script.tenants.len();
        HostStage {
            host,
            clock,
            ids,
            handles,
            noted: vec![HashMap::new(); n],
            tenant_stalls: vec![Vec::new(); n],
            images_loaded: 0,
            pace: Pace::new(),
        }
    }

    /// The probe of a session the host owns: input straight into the
    /// session, the application echoes a glyph and updates its text
    /// node, and the session's own screen shows the glyph.
    fn probe(
        &mut self,
        t: usize,
        s: &Session,
        p: &Probe,
        tr: &mut Tracer,
        tally: &mut Tally,
    ) -> f64 {
        tally.attempt();
        let dv = self.host.session_mut(self.ids[t]).expect("tenant exists");
        let h = &self.handles[t];
        let op = tr.begin_op("probe");
        let t0 = Instant::now();
        let event = InputEvent::Key {
            ch: p.ch,
            ctrl: false,
            alt: false,
        };
        tr.span(Layer::Core, "input", || dv.input(event));
        let mut buf = [0u8; 4];
        let echo: &str = p.ch.encode_utf8(&mut buf);
        let rect = tr.span(Layer::Display, "glyphs", || {
            dv.driver_mut().draw_text(p.x, p.y, echo, GLYPH_FG, 0)
        });
        let app = h.apps[s.nodes[p.node as usize].app as usize];
        let node = h.nodes[p.node as usize];
        tr.span(Layer::Access, "set_text", || {
            dv.desktop_mut().set_text(app, node, &p.text)
        });
        let shown = dv
            .driver()
            .framebuffer()
            .read_rect(&rect)
            .contains(&GLYPH_FG);
        let latency = t0.elapsed().as_secs_f64();
        tr.end(op);
        tally.check(shown, || {
            format!("probe {:?}: no glyph on tenant {t}'s screen", p.text)
        });
        latency
    }

    fn read(&mut self, read: &Read, tr: &mut Tracer, tally: &mut Tally, samples: &mut Samples) {
        tally.attempt();
        match read {
            Read::Search { query, expect } => {
                let op = tr.begin_op("search");
                let t0 = Instant::now();
                let hits = tr.span(Layer::Host, "search_all", || {
                    self.host
                        .search_all(query, RankOrder::Chronological, SEARCH_LIMIT)
                });
                let mut got = Vec::new();
                let mut portals_ok = true;
                for hit in hits.iter().flatten() {
                    let dv = self.host.session_mut(hit.tenant).expect("tenant exists");
                    let shot = tr.span(Layer::Record, "portal", || dv.browse(hit.hit.time));
                    portals_ok &= shot.is_ok();
                    let t = self.ids.iter().position(|&id| id == hit.tenant);
                    got.push((
                        t.expect("hit names a tenant") as u8,
                        hit.hit.time.as_nanos(),
                        hit.hit.until.as_nanos(),
                    ));
                }
                let dt = self.pace.scaled(t0.elapsed().as_secs_f64());
                samples.search_ms.push(dt * 1e3);
                tr.end(op);
                got.sort_unstable_by_key(|&(t, a, _)| (a, t));
                tally.check(hits.is_ok() && portals_ok && got == *expect, || {
                    format!("search_all {query:?}: got {got:?}, model says {expect:?}")
                });
            }
            Read::Browse { tenant, at_ns } => {
                let t = *tenant as usize;
                let dv = self.host.session_mut(self.ids[t]).expect("tenant exists");
                let op = tr.begin_op("seek");
                let t0 = Instant::now();
                let shot = tr.span(Layer::Record, "browse", || {
                    dv.browse(Timestamp::from_nanos(*at_ns))
                });
                let dt = self.pace.scaled(t0.elapsed().as_secs_f64());
                samples.browse_ms.push(dt * 1e3);
                tr.end(op);
                match shot {
                    Err(e) => tally.fail(|| format!("browse({at_ns}) on tenant {t} failed: {e:?}")),
                    Ok(shot) => {
                        if let Some(&want) = self.noted[t].get(at_ns) {
                            tally.check(shot.content_hash() == want, || {
                                format!("tenant {t}: browse({at_ns}) differs from the screen noted then")
                            });
                        }
                    }
                }
            }
            Read::Revive { tenant, at_ns } => {
                let t = *tenant as usize;
                let dv = self.host.session_mut(self.ids[t]).expect("tenant exists");
                let op = tr.begin_op("revive");
                let t0 = Instant::now();
                let revived = tr.span(Layer::Checkpoint, "take_me_back", || {
                    dv.take_me_back(Timestamp::from_nanos(*at_ns))
                });
                let dt = self.pace.scaled(t0.elapsed().as_secs_f64());
                samples.revive_ms.push(dt * 1e3);
                tr.end(op);
                match revived {
                    Err(e) => {
                        tally.fail(|| format!("tenant {t}: take_me_back({at_ns}) failed: {e:?}"))
                    }
                    Ok(id) => {
                        check_revived(dv, id, *at_ns, &self.handles[t], tally);
                        self.images_loaded += dv.session(id).map_or(0, |s| s.report.images_loaded);
                        dv.close_session(id).expect("close revived session");
                    }
                }
            }
            Read::Visual { tenant } => {
                let probe = self
                    .host
                    .session(self.ids[*tenant as usize])
                    .expect("tenant exists")
                    .driver()
                    .snapshot();
                let hits = tr.span(Layer::Host, "visual_all", || {
                    self.host.visual_all(&probe, VISUAL_K)
                });
                tally.check(hits.len() <= VISUAL_K, || {
                    format!("visual_all returned {} hits for k={VISUAL_K}", hits.len())
                });
            }
            Read::Compact => {
                tr.span(Layer::Host, "compact_round", || self.host.compact_round());
            }
            Read::Gc => {
                let swept = tr.span(Layer::Cas, "gc", || self.host.storage_gc(GC_BATCH));
                tally.check(swept.is_ok(), || format!("storage_gc failed: {swept:?}"));
            }
        }
    }

    /// Plays `events` in order. Steps and checkpoints count towards the
    /// record rate; reads are timed on their own.
    fn play(
        &mut self,
        script: &HostScript,
        events: &[Event],
        tr: &mut Tracer,
        tally: &mut Tally,
        samples: &mut Samples,
    ) -> RecordStats {
        tr.set_phase(Phase::Record);
        let mut stats = RecordStats::default();
        let heap0 = crate::alloc::stats();
        let start = Instant::now();
        let window_ns = script.window_secs * NS_PER_SEC;
        let mut window_wall = 0.0f64;
        for event in events {
            match event {
                Event::Step { tenant, step } => {
                    let t = *tenant as usize;
                    let s = &script.tenants[t];
                    let step = &s.steps[*step as usize];
                    self.clock.set(Timestamp::from_nanos(step.at_ns));
                    tally.attempt();
                    let t0 = Instant::now();
                    let op = tr.begin_op("step");
                    let dv = self.host.session_mut(self.ids[t]).expect("tenant exists");
                    play_ops(dv, s, &mut self.handles[t], step, tr);
                    tr.end(op);
                    let dt = t0.elapsed().as_secs_f64();
                    stats.wall_s += dt;
                    window_wall += self.pace.scaled(dt);
                    stats.steps += 1;
                    if let Some(k) = step.probe {
                        let dt = self.probe(t, s, &s.probes[k as usize], tr, tally);
                        stats.wall_s += dt;
                        let dt = self.pace.scaled(dt);
                        samples.probe_ms.push(dt * 1e3);
                        window_wall += dt;
                    }
                    if step.note {
                        let dv = self.host.session(self.ids[t]).expect("tenant exists");
                        self.noted[t].insert(step.at_ns, dv.screen_fingerprint());
                    }
                }
                Event::Ticks { at_ns } => {
                    self.clock.set(Timestamp::from_nanos(*at_ns));
                    for t in 0..self.ids.len() {
                        tally.attempt();
                        let op = tr.begin_op("tick");
                        let t0 = Instant::now();
                        let report = tr.span(Layer::Host, "checkpoint", || {
                            self.host.checkpoint(self.ids[t])
                        });
                        let wall = t0.elapsed().as_secs_f64();
                        tr.end(op);
                        stats.wall_s += wall;
                        let wall = self.pace.scaled(wall);
                        window_wall += wall;
                        stats.ticks += 1;
                        match report {
                            Err(e) => {
                                tally.fail(|| format!("tenant {t}: checkpoint failed: {e:?}"))
                            }
                            Ok(report) => {
                                stats.checkpoints += 1;
                                stats.full_checkpoints += report.full as u64;
                                samples.stall_ms.push(wall * 1e3);
                                self.tenant_stalls[t].push(wall * 1e3);
                            }
                        }
                    }
                    if at_ns % window_ns == 0 {
                        stats.windows.push(window_wall);
                        window_wall = 0.0;
                    }
                }
                Event::Read(read) => self.read(read, tr, tally, samples),
            }
            self.pace.settle();
        }
        stats.scaled_s = stats.windows.iter().sum::<f64>() + window_wall;
        stats.phase_s = start.elapsed().as_secs_f64();
        let heap1 = crate::alloc::stats();
        stats.alloc_calls = heap1.calls - heap0.calls;
        stats.alloc_bytes = heap1.bytes - heap0.bytes;
        stats
    }

    fn flush(&mut self, tr: &mut Tracer, tally: &mut Tally) -> f64 {
        tr.set_phase(Phase::Flush);
        tally.attempt();
        let t0 = Instant::now();
        let failures = tr.span(Layer::Checkpoint, "flush", || self.host.flush_all());
        tally.check(failures.is_empty(), || {
            format!("flush_all failed: {failures:?}")
        });
        t0.elapsed().as_secs_f64()
    }

    /// Plays every tenant's record from the start, tenant after tenant,
    /// `passes` times over. One pass is all tenants once.
    fn playback(
        &mut self,
        end_ns: u64,
        passes: u64,
        tr: &mut Tracer,
        tally: &mut Tally,
    ) -> Playback {
        tr.set_phase(Phase::Playback);
        let mut out = Playback::default();
        let n = self.ids.len() as u64;
        while out.passes < passes * n {
            let t = (out.passes % n) as usize;
            let dv = self.host.session(self.ids[t]).expect("tenant exists");
            let mut engine = dv.playback();
            let first_round = out.passes < n;
            play_pass(&mut engine, end_ns, &mut self.pace, tr, tally, &mut out);
            if first_round {
                let live = dv.screen_fingerprint();
                tally.check(engine.framebuffer().content_hash() == live, || {
                    format!("tenant {t}: playback's final framebuffer differs from the live screen")
                });
            }
        }
        out.passes /= n;
        out
    }

    /// Physical bytes of the shared store (checkpoints, sealed index
    /// segments and visual strips, after dedup) plus each tenant's
    /// display record, open index and file-system log.
    fn storage_bytes(&self) -> u64 {
        let sessions: u64 = self
            .ids
            .iter()
            .map(|&id| {
                let b = self.host.session(id).expect("tenant exists").storage();
                b.display_bytes + b.index_bytes + b.fs_bytes
            })
            .sum();
        self.host.storage_physical_bytes() + sessions
    }
}

pub fn run(seed: u64, seconds: u64, trace: bool, prefault_s: f64) -> RunResult {
    let w = Workload::HostTenants;
    let shapes = tenant_shapes(seconds);
    let mut m = Measured::default();
    let mut tally = Tally::default();
    let mut tr = Tracer::new(trace);

    let repeats = if trace { 1 } else { SETUP_REPEATS };
    let mut pace = Pace::new();
    let mut built = None;
    for _ in 0..repeats {
        drop(built.take());
        let mut lap = Lap::start();
        let script = script::host(seed, &shapes);
        let mut setup = lap.scaled(&mut pace);
        // Warm-up: a throwaway host plays the first few percent of the
        // events, reads included.
        let warm = (script.events.len() as f64 * WARMUP_SHARE) as usize;
        let mut scratch = (Tally::default(), Samples::default());
        HostStage::new(&script, false).play(
            &script,
            &script.events[..warm],
            &mut Tracer::new(false),
            &mut scratch.0,
            &mut scratch.1,
        );
        setup += lap.scaled(&mut pace);
        let stage = HostStage::new(&script, trace);
        setup += lap.scaled(&mut pace);
        m.setup_s.push(setup);
        built = Some((script, stage));
    }
    let (script, mut stage) = built.expect("at least one set-up");
    m.virtual_secs = script.tenants[0].secs;
    // One playback pass plays every tenant's record.
    m.playback_pass_secs = m.virtual_secs * script.tenants.len() as u64;

    let reference = trace.then(|| {
        let quarter = script.events.len() / 4;
        let mut scratch = (Tally::default(), Samples::default());
        HostStage::new(&script, trace).play(
            &script,
            &script.events[..quarter],
            &mut Tracer::new(false),
            &mut scratch.0,
            &mut scratch.1,
        )
    });

    let storage0 = stage.storage_bytes();
    m.record = stage.play(
        &script,
        &script.events,
        &mut tr,
        &mut tally,
        &mut m.reads.samples,
    );
    m.flush_wait_s = stage.flush(&mut tr, &mut tally);
    m.storage_bytes = stage.storage_bytes() - storage0;
    let counters = stage.host.observability().rollup;
    m.reads.images_loaded = stage.images_loaded;

    m.reads.playback = stage.playback(
        script.tenants[0].end_ns(),
        HOST_PLAYBACK_PASSES,
        &mut tr,
        &mut tally,
    );

    m.box_speed = stage.pace.summary();

    let mut text = String::new();
    let metrics = if trace {
        tr.set_phase(Phase::Extra);
        let probe = stage
            .host
            .session(stage.ids[0])
            .expect("tenant exists")
            .driver()
            .snapshot();
        for _ in 0..VISUAL_QUERIES {
            tally.attempt();
            tr.span(Layer::Vidx, "visual_hits", || {
                stage.host.visual_all(&probe, VISUAL_K)
            });
        }
        let after = stage.host.observability().rollup;
        let (steps, wall) = script
            .tenants
            .iter()
            .map(|s| baseline(tenant_config(s.screen), s))
            .fold((0, 0.0), |(n, t), (steps, wall)| (n + steps, t + wall));
        let rows = trace::layer_table(tr.spans());
        let json = trace::to_json(w.name(), seed, tr.spans(), &rows);
        write_trace(w, &json, &mut text);
        let mut set = MetricSet::per_layer();
        layer_metrics(&mut set, &m, &tr, &rows, &counters, &after);
        host_metrics(&mut set, &stage, &tr);
        set.set("core.baseline_steps_per_s", steps as f64 / wall);
        if let Some(plain) = &reference {
            set.set("obs.trace_overhead_frac", trace_overhead(&m.record, plain));
        }
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

/// What only the host workload has: its own calls' time, the shared
/// store's dedup accounting, and how evenly tenants stall.
fn host_metrics(set: &mut MetricSet, stage: &HostStage, tr: &Tracer) {
    let host_span = |name: &'static str| tr.busy_s(|s| s.layer == Layer::Host && s.name == name);
    set.set("host.checkpoint_busy_s", host_span("checkpoint"));
    set.set("host.search_all_busy_s", host_span("search_all"));
    set.set("host.visual_all_busy_s", host_span("visual_all"));
    set.set("host.compact_round_busy_s", host_span("compact_round"));
    let host = stage.host.observability().host;
    set.set(
        "host.compaction_rounds",
        host.counter("host.compaction_rounds") as f64,
    );
    set.set(
        "host.quota_rejections",
        host.counter("host.quota_rejections") as f64,
    );
    let medians: Vec<f64> = stage
        .tenant_stalls
        .iter()
        .map(|stalls| percentile(stalls, 50.0))
        .collect();
    let (lo, hi) = medians
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    set.set(
        "host.tenant_stall_spread",
        if lo > 0.0 { hi / lo } else { 0.0 },
    );
    set.set("cas.puts", host.counter("cas.puts") as f64);
    set.set("cas.gc_busy_s", tr.busy_s(|s| s.layer == Layer::Cas));
    if let Some(cas) = stage.host.storage_cas_stats() {
        set.set("cas.dedup_hits", cas.dedup_hits as f64);
        set.set("cas.dedup_misses", cas.dedup_misses as f64);
        set.set(
            "cas.dedup_ratio",
            cas.logical_bytes as f64 / cas.physical_bytes.max(1) as f64,
        );
        set.set("cas.physical_bytes", cas.physical_bytes as f64);
        set.set("cas.gc_reclaimed_bytes", cas.reclaimed_bytes as f64);
    }
    set.set("vidx.query_busy_s", tr.busy_s(|s| s.name == "visual_hits"));
}
