//! The single-session player: one client, closed loop.
//!
//! The player issues the next call only when the previous one returns
//! and moves the session clock itself, so there is no generator lag to
//! report and no sleeping. A run is phased: record (probes and
//! checkpoints interleaved) → flush → browse → search → revive →
//! playback. Every timed call sits inside a [`Tracer`] span, which is a
//! single branch when tracing is off.

use std::collections::HashMap;
use std::time::Instant;

use dejaview::{Config, DejaView};
use dv_access::{AppId, NodeId};
use dv_display::{DisplayCommand, InputEvent, Pixel, Rect};
use dv_index::RankOrder;
use dv_net::{LoopbackTransport, NetClient, NetConfig, NetService};
use dv_time::{SimClock, Timestamp};
use dv_vee::{Prot, Vpid};

use crate::calib::Pace;
use crate::script::{Op, Probe, SearchCase, Session, Step, NS_PER_SEC};
use crate::trace::{Layer, Phase, Tracer};
use crate::workloads::{
    BROWSE_ORACLE_SEEKS, FULL_FINGERPRINT_EVERY, READ_ROUNDS, WARMUP_QUERIES, WARMUP_SHARE,
};

/// Where the revive marker lives in every session.
pub const MARKER_PATH: &str = "/home/user/.session-marker";
const GLYPH_FG: Pixel = 0x00FF_FFFF;
/// Virtual seconds between the player's index-compaction rounds: the
/// shard window, so every seal is followed by the merges it enables
/// and the live segments stay within the program's segment cache.
const COMPACT_EVERY_SECS: u64 = 30;
/// Poll rounds a probe may take before it counts as failed.
const PROBE_POLL_LIMIT: usize = 64;

/// Operations attempted and failed; a failure is any `Err`, refused
/// request or oracle mismatch.
#[derive(Default, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Records a failed operation; the first few are kept verbatim for
    /// the report.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(what());
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what);
        }
    }
}

/// Latency samples in milliseconds, one vector per user operation.
#[derive(Default, Debug)]
pub struct Samples {
    pub probe_ms: Vec<f64>,
    pub stall_ms: Vec<f64>,
    pub browse_ms: Vec<f64>,
    pub search_ms: Vec<f64>,
    pub revive_ms: Vec<f64>,
}

/// What the record phase measured besides latencies.
#[derive(Default, Debug)]
pub struct RecordStats {
    pub steps: u64,
    /// Wall time of steps, probes, ticks and compaction as the clock
    /// read it; fingerprint notes and other oracle work are not in it.
    pub wall_s: f64,
    /// The same scaled to the reference box (see `calib`), which is
    /// what the record rate is computed from.
    pub scaled_s: f64,
    /// The scaled wall split into windows of `window_steps` steps.
    pub windows: Vec<f64>,
    /// Wall of everything the phase's spans can account for: `wall_s`,
    /// plus, on the host, the reads issued inside the phase.
    pub phase_s: f64,
    pub ticks: u64,
    pub checkpoints: u64,
    pub full_checkpoints: u64,
    pub alloc_calls: u64,
    pub alloc_bytes: u64,
}

/// A live server, its viewers, and the handles the script's indices
/// resolve to.
pub struct Stage {
    pub svc: NetService,
    pub clients: Vec<NetClient<LoopbackTransport>>,
    scales: Vec<(u32, u32)>,
    clock: SimClock,
    h: Handles,
    policy: bool,
    pace: Pace,
    /// Fingerprints noted during record, by step time.
    pub noted: HashMap<u64, u64>,
}

/// Resolves the script's tables against a fresh server: registers the
/// applications and their nodes, spawns the long-lived processes, maps
/// their regions and paints the desktop background.
pub struct Handles {
    pub apps: Vec<AppId>,
    pub nodes: Vec<NodeId>,
    pub procs: Vec<Vpid>,
    pub regions: Vec<u64>,
    pub region_owner: Vec<Vpid>,
    pub marker_addr: u64,
}

pub fn populate(dv: &mut DejaView, s: &Session) -> Handles {
    let mut apps = Vec::with_capacity(s.apps.len());
    for app in &s.apps {
        apps.push(dv.desktop_mut().register_app(app.name));
    }
    let mut nodes: Vec<NodeId> = Vec::with_capacity(s.nodes.len());
    for spec in &s.nodes {
        let app = apps[spec.app as usize];
        let parent = match spec.parent {
            Some(p) => nodes[p as usize],
            None => dv
                .desktop_mut()
                .root(app)
                .expect("registered app has a root"),
        };
        nodes.push(
            dv.desktop_mut()
                .add_node(app, parent, spec.role, &spec.text),
        );
    }
    let init = dv.init_vpid();
    let mut procs = vec![init; s.proc_slots as usize];
    for (i, p) in s.procs.iter().enumerate() {
        let parent = procs[p.parent as usize];
        procs[i + 1] = dv
            .vee_mut()
            .spawn(Some(parent), p.name)
            .expect("spawn at set-up");
    }
    let mut regions = vec![0u64; s.region_slots as usize];
    let mut region_owner = vec![init; s.region_slots as usize];
    for (i, r) in s.regions.iter().enumerate() {
        let owner = procs[r.slot as usize];
        regions[i] = dv
            .vee_mut()
            .mmap(owner, r.len, Prot::ReadWrite)
            .expect("mmap at set-up");
        region_owner[i] = owner;
    }
    let marker_addr = dv
        .vee_mut()
        .mmap(init, 4096, Prot::ReadWrite)
        .expect("marker page");
    let fs = &mut dv.vee_mut().fs;
    fs.mkdir_all("/home/user").expect("mkdir");
    for dir in [
        "arch", "block", "drivers", "fs", "kernel", "mm", "net", "lib",
    ] {
        fs.mkdir_all(&format!("/usr/src/build/{dir}"))
            .expect("mkdir");
    }
    let (w, h) = s.screen;
    dv.driver_mut()
        .fill_rect(Rect::new(0, 0, w, h), 0x0020_2830);
    Handles {
        apps,
        nodes,
        procs,
        regions,
        region_owner,
        marker_addr,
    }
}

/// Plays the ops of one step against `dv`. Shared with the host player,
/// which owns its sessions through `dv_host::Host` instead of a
/// `NetService`.
pub fn play_ops(dv: &mut DejaView, s: &Session, h: &mut Handles, step: &Step, tr: &mut Tracer) {
    for op in &s.ops[step.ops.0 as usize..step.ops.1 as usize] {
        match op {
            Op::Fill { rect, color } => tr.span(Layer::Display, "fill", || {
                dv.driver_mut().fill_rect(*rect, *color)
            }),
            Op::Image { rect, tile } => tr.span(Layer::Display, "image", || {
                dv.driver_mut().submit(DisplayCommand::Raw {
                    rect: *rect,
                    pixels: s.tiles[*tile as usize].clone(),
                })
            }),
            Op::Video { rect, frame } => tr.span(Layer::Display, "video", || {
                dv.driver_mut().submit(DisplayCommand::Video {
                    rect: *rect,
                    frame: s.frames[*frame as usize].clone(),
                })
            }),
            Op::Copy { src_x, src_y, rect } => tr.span(Layer::Display, "copy", || {
                dv.driver_mut().copy_area(*src_x, *src_y, *rect)
            }),
            Op::Glyphs { x, y, text, fg, bg } => tr.span(Layer::Display, "glyphs", || {
                dv.driver_mut().draw_text(*x, *y, text, *fg, *bg);
            }),
            Op::SetText { node, text } => {
                let app = h.apps[s.nodes[*node as usize].app as usize];
                let node = h.nodes[*node as usize];
                tr.span(Layer::Access, "set_text", || {
                    dv.desktop_mut().set_text(app, node, text)
                })
            }
            Op::Focus { app } => {
                let app = h.apps[*app as usize];
                tr.span(Layer::Access, "focus", || dv.desktop_mut().focus(app))
            }
            Op::Input(event) => tr.span(Layer::Core, "input", || dv.input(*event)),
            Op::Spawn { slot, parent, name } => {
                let parent = h.procs[*parent as usize];
                h.procs[*slot as usize] = tr
                    .span(Layer::Vee, "spawn", || {
                        dv.vee_mut().spawn(Some(parent), name)
                    })
                    .expect("spawn");
            }
            Op::Exit { slot } => {
                let vpid = h.procs[*slot as usize];
                tr.span(Layer::Vee, "exit", || dv.vee_mut().exit(vpid))
                    .expect("exit");
            }
            Op::Mmap { region, slot, len } => {
                let vpid = h.procs[*slot as usize];
                h.regions[*region as usize] = tr
                    .span(Layer::Vee, "mmap", || {
                        dv.vee_mut().mmap(vpid, *len, Prot::ReadWrite)
                    })
                    .expect("mmap");
                h.region_owner[*region as usize] = vpid;
            }
            Op::MemWrite {
                region,
                offset,
                pool_off,
                len,
            } => {
                let vpid = h.region_owner[*region as usize];
                let addr = h.regions[*region as usize] + offset;
                let data = &s.pool[*pool_off as usize..(*pool_off + *len) as usize];
                tr.span(Layer::Vee, "mem_write", || {
                    dv.vee_mut().mem_write(vpid, addr, data)
                })
                .expect("mem_write");
            }
            Op::FileWrite {
                path,
                pool_off,
                len,
            } => {
                let data = &s.pool[*pool_off as usize..(*pool_off + *len) as usize];
                tr.span(Layer::Vee, "fs_write", || {
                    dv.vee_mut().fs.write_all(path, data)
                })
                .expect("file write");
            }
            Op::Marker { value } => {
                let word = value.to_le_bytes();
                let (init, addr) = (dv.init_vpid(), h.marker_addr);
                tr.span(Layer::Vee, "marker", || {
                    dv.vee_mut()
                        .mem_write(init, addr, &word)
                        .expect("marker word");
                    dv.vee_mut()
                        .fs
                        .write_all(MARKER_PATH, &word)
                        .expect("marker file");
                });
            }
        }
    }
}

/// Checks that a revived session exposes the marker the script wrote
/// just before the checkpoint it came from, and that the checkpoint is
/// not later than the time asked for.
pub fn check_revived(dv: &DejaView, id: u64, asked_ns: u64, h: &Handles, tally: &mut Tally) {
    let session = match dv.session(id) {
        Ok(s) => s,
        Err(e) => return tally.fail(|| format!("revived session {id} missing: {e:?}")),
    };
    let from = session.revived_from.as_nanos();
    let want = (from / NS_PER_SEC).to_le_bytes();
    let word = session.vee.mem_read(dv.init_vpid(), h.marker_addr, 8);
    let file = session.vee.fs.read_all(MARKER_PATH);
    let ok = from <= asked_ns
        && from % NS_PER_SEC == 0
        && word.as_deref().ok() == Some(&want[..])
        && file.as_deref().ok() == Some(&want[..]);
    tally.check(ok, || {
        format!("revive at {asked_ns} ns came from {from} ns with marker {word:?} / {file:?}")
    });
}

/// Compares the hits of one search with the model's.
pub fn check_hits(case: &SearchCase, got: &[(u64, u64)], tally: &mut Tally) {
    tally.check(got == case.expect, || {
        format!(
            "search {:?}: got {got:?}, model says {:?}",
            case.query, case.expect
        )
    });
}

impl Stage {
    /// Builds the server for `s`, attaches one viewer per scale over a
    /// loopback transport and completes their handshakes.
    pub fn new(
        s: &Session,
        config: Config,
        clock: SimClock,
        scales: &[(u32, u32)],
        policy: bool,
    ) -> Stage {
        let mut dv = DejaView::with_clock(config, clock.clone());
        let h = populate(&mut dv, s);
        let mut svc = NetService::new(dv, NetConfig::default());
        let mut clients = Vec::new();
        for (i, &(num, den)) in scales.iter().enumerate() {
            let (near, far) = LoopbackTransport::pair();
            svc.accept(far);
            let mut client = NetClient::connect(near, &format!("viewer-{i}"));
            if (num, den) == (1, 1) {
                client.attach_live();
            } else {
                client.attach_scaled(num, den);
            }
            clients.push(client);
        }
        let mut stage = Stage {
            svc,
            clients,
            scales: scales.to_vec(),
            clock,
            h,
            policy,
            pace: Pace::new(),
            noted: HashMap::new(),
        };
        for _ in 0..8 {
            stage.poll_all(&mut Tracer::new(false));
        }
        assert!(
            stage.clients.iter().all(|c| c.fingerprint().is_some()),
            "every viewer finished its handshake"
        );
        stage
    }

    pub fn dv(&mut self) -> &mut DejaView {
        self.svc.dv_mut()
    }

    /// How the calibration kernel ran during this stage's phases.
    pub fn box_speed(&self) -> String {
        self.pace.summary()
    }

    /// One service turn, then one turn of every viewer.
    fn poll_all(&mut self, tr: &mut Tracer) -> u64 {
        let handled = tr
            .span(Layer::Net, "service_poll", || self.svc.poll())
            .messages_handled;
        for client in &mut self.clients {
            tr.span(Layer::Net, "client_poll", || client.poll())
                .expect("loopback viewer stays connected");
        }
        handled
    }

    /// Whether every viewer's screen equals the server's (scaled
    /// viewers against their virtual output).
    fn viewers_converged(&mut self) -> bool {
        let live = self.svc.dv().screen_fingerprint();
        self.clients
            .iter()
            .zip(&self.scales)
            .all(|(client, &(num, den))| {
                let want = if (num, den) == (1, 1) {
                    Some(live)
                } else {
                    self.svc.output_fingerprint(num, den)
                };
                client.fingerprint() == want
            })
    }

    /// One input probe: key press at the viewer → server → the
    /// application echoes a glyph and updates its text node → the
    /// viewer's pixels show the glyph. Returns the latency in seconds.
    fn probe(&mut self, s: &Session, p: &Probe, tr: &mut Tracer, tally: &mut Tally) -> f64 {
        tally.attempt();
        let op = tr.begin_op("probe");
        let t0 = Instant::now();
        let event = InputEvent::Key {
            ch: p.ch,
            ctrl: false,
            alt: false,
        };
        self.clients[0].send_input(&event);
        tr.span(Layer::Net, "client_poll", || self.clients[0].poll())
            .expect("loopback viewer stays connected");
        let handled = tr
            .span(Layer::Net, "service_poll", || self.svc.poll())
            .messages_handled;
        let mut buf = [0u8; 4];
        let echo: &str = p.ch.encode_utf8(&mut buf);
        let rect = tr.span(Layer::Display, "glyphs", || {
            self.svc
                .dv_mut()
                .driver_mut()
                .draw_text(p.x, p.y, echo, GLYPH_FG, 0)
        });
        let app = self.h.apps[s.nodes[p.node as usize].app as usize];
        let node = self.h.nodes[p.node as usize];
        tr.span(Layer::Access, "set_text", || {
            self.svc.dv_mut().desktop_mut().set_text(app, node, &p.text)
        });
        let before = self.clients[0].stats().commands_applied;
        let mut shown = false;
        for _ in 0..PROBE_POLL_LIMIT {
            self.poll_all(tr);
            let client = &self.clients[0];
            let want = self.svc.dv().driver().framebuffer().read_rect(&rect);
            shown = client.stats().commands_applied > before
                && client.framebuffer().map(|fb| fb.read_rect(&rect)) == Some(want);
            if shown {
                break;
            }
        }
        let latency = t0.elapsed().as_secs_f64();
        tr.end(op);
        tally.check(handled >= 1 && shown, || {
            format!(
                "probe {:?}: input handled={handled}, glyph shown={shown}",
                p.text
            )
        });
        latency
    }

    /// The tick after a step: a policy evaluation or a forced
    /// checkpoint. Returns the call's wall time and the report when a
    /// checkpoint was taken.
    fn tick(
        &mut self,
        tr: &mut Tracer,
        tally: &mut Tally,
    ) -> (f64, Option<dv_checkpoint::CheckpointReport>) {
        tally.attempt();
        let op = tr.begin_op("tick");
        let t0 = Instant::now();
        let policy = self.policy;
        let dv = self.svc.dv_mut();
        let report = tr.span(Layer::Checkpoint, "tick", || {
            if policy {
                dv.policy_tick().map(|t| t.report)
            } else {
                dv.checkpoint_now().map(Some)
            }
        });
        let s = t0.elapsed().as_secs_f64();
        tr.end(op);
        match report {
            Ok(report) => (s, report),
            Err(e) => {
                tally.fail(|| format!("tick failed: {e:?}"));
                (s, None)
            }
        }
    }

    /// Adds `dt` seconds to the record wall and returns them scaled to
    /// the reference box.
    fn book(&mut self, dt: f64, stats: &mut RecordStats) -> f64 {
        stats.wall_s += dt;
        self.pace.scaled(dt)
    }

    /// Plays `steps` of the script with everything on. Fingerprint
    /// notes and whole-screen comparisons are oracle work and stay
    /// outside the measured wall.
    pub fn record(
        &mut self,
        s: &Session,
        steps: usize,
        tr: &mut Tracer,
        tally: &mut Tally,
        samples: &mut Samples,
    ) -> RecordStats {
        tr.set_phase(Phase::Record);
        let mut stats = RecordStats::default();
        let heap0 = crate::alloc::stats();
        let mut window_wall = 0.0f64;
        let mut next_compact = COMPACT_EVERY_SECS * NS_PER_SEC;
        for (i, step) in s.steps[..steps].iter().enumerate() {
            self.clock.set(Timestamp::from_nanos(step.at_ns));
            tally.attempt();
            let t0 = Instant::now();
            let op = tr.begin_op("step");
            play_ops(self.svc.dv_mut(), s, &mut self.h, step, tr);
            self.poll_all(tr);
            tr.end(op);
            window_wall += self.book(t0.elapsed().as_secs_f64(), &mut stats);
            if let Some(k) = step.probe {
                let dt = self.probe(s, &s.probes[k as usize], tr, tally);
                let dt = self.book(dt, &mut stats);
                samples.probe_ms.push(dt * 1e3);
                window_wall += dt;
                if (k as usize).is_multiple_of(FULL_FINGERPRINT_EVERY) {
                    tally.check(self.viewers_converged(), || {
                        format!("viewer and server screens differ after probe {k}")
                    });
                }
            }
            if step.note {
                let fp = self.svc.dv().screen_fingerprint();
                self.noted.insert(step.at_ns, fp);
            }
            let next_ns = s.steps.get(i + 1).map_or(s.end_ns(), |n| n.at_ns);
            self.clock.set(Timestamp::from_nanos(next_ns));
            if step.tick {
                let (wall, report) = self.tick(tr, tally);
                let wall = self.book(wall, &mut stats);
                window_wall += wall;
                stats.ticks += 1;
                if let Some(report) = report {
                    stats.checkpoints += 1;
                    stats.full_checkpoints += report.full as u64;
                    samples.stall_ms.push(wall * 1e3);
                }
                if next_ns >= next_compact {
                    next_compact += COMPACT_EVERY_SECS * NS_PER_SEC;
                    let t0 = Instant::now();
                    if let Some(tidx) = self.svc.dv().tidx() {
                        loop {
                            let ran = tr.span(Layer::Tidx, "compact", || tidx.maybe_compact());
                            tally.check(ran.is_ok(), || format!("compaction failed: {ran:?}"));
                            if !matches!(ran, Ok(true)) {
                                break;
                            }
                        }
                    }
                    window_wall += self.book(t0.elapsed().as_secs_f64(), &mut stats);
                }
            }
            self.pace.settle();
            if (i + 1) % s.window_steps == 0 {
                stats.windows.push(window_wall);
                window_wall = 0.0;
            }
        }
        stats.scaled_s = stats.windows.iter().sum::<f64>() + window_wall;
        stats.phase_s = stats.wall_s;
        stats.steps = steps as u64;
        let heap1 = crate::alloc::stats();
        stats.alloc_calls = heap1.calls - heap0.calls;
        stats.alloc_bytes = heap1.bytes - heap0.bytes;
        stats
    }

    /// Drains deferred commits; returns the wait in seconds.
    pub fn flush(&mut self, tr: &mut Tracer, tally: &mut Tally) -> f64 {
        tr.set_phase(Phase::Flush);
        tally.attempt();
        let t0 = Instant::now();
        let flushed = tr.span(Layer::Checkpoint, "flush", || {
            self.svc.dv_mut().flush_checkpoints()
        });
        let wait = t0.elapsed().as_secs_f64();
        tally.check(flushed.is_ok(), || format!("flush failed: {flushed:?}"));
        self.poll_all(tr);
        tally.check(self.viewers_converged(), || {
            "viewer and server screens differ at the end of record".to_string()
        });
        wait
    }

    /// One round of the read phases: the round's share of the seeks, of
    /// the searches, of the revives and of the playback passes. Rounds
    /// keep every metric's samples spread over the whole read period,
    /// so a slow spell on the shared box cannot own one metric; and
    /// because the reads are counted out, not timed out, a run issues
    /// the same reads however fast the box or the program is. `share`
    /// below one (a traced run) plays only the first part of each.
    pub fn read_round(
        &mut self,
        s: &Session,
        round: usize,
        share: f64,
        tr: &mut Tracer,
        tally: &mut Tally,
        out: &mut Reads,
    ) {
        let part = |n: usize| {
            let (from, to) = (n * round / READ_ROUNDS, n * (round + 1) / READ_ROUNDS);
            from..from + ((to - from) as f64 * share).ceil() as usize
        };
        self.browse(&s.seeks[part(s.seeks.len())], tr, tally, out);
        self.search(&s.searches[part(s.searches.len())], tr, tally, out);
        self.revive(&s.revives[part(s.revives.len())], tr, tally, out);
        self.playback(s.end_ns(), part(s.playback_passes).len(), tr, tally, out);
    }

    /// Seeks to each of `seeks` in order. The first
    /// [`BROWSE_ORACLE_SEEKS`] seeks that land on a noted step are
    /// compared with the fingerprint noted there.
    fn browse(&mut self, seeks: &[u64], tr: &mut Tracer, tally: &mut Tally, out: &mut Reads) {
        tr.set_phase(Phase::Browse);
        let start = Instant::now();
        for &t in seeks {
            tally.attempt();
            let op = tr.begin_op("seek");
            let t0 = Instant::now();
            let shot = tr.span(Layer::Record, "browse", || {
                self.svc.dv_mut().browse(Timestamp::from_nanos(t))
            });
            let dt = self.pace.scaled(t0.elapsed().as_secs_f64());
            out.samples.browse_ms.push(dt * 1e3);
            tr.end(op);
            self.pace.settle();
            match shot {
                Err(e) => tally.fail(|| format!("browse({t}) failed: {e:?}")),
                Ok(shot) => {
                    if let (true, Some(&want)) =
                        (out.browse_checked < BROWSE_ORACLE_SEEKS, self.noted.get(&t))
                    {
                        out.browse_checked += 1;
                        tally.check(shot.content_hash() == want, || {
                            format!("browse({t}) differs from the screen noted then")
                        });
                    }
                }
            }
        }
        out.browse_wall_s += start.elapsed().as_secs_f64();
    }

    /// Runs the generated queries in order: query string → ranked hits
    /// → portal screenshots. A traced run first times `search_hits`
    /// alone, which is how the portal share is known.
    fn search(
        &mut self,
        cases: &[SearchCase],
        tr: &mut Tracer,
        tally: &mut Tally,
        out: &mut Reads,
    ) {
        tr.set_phase(Phase::Search);
        let start = Instant::now();
        for case in cases {
            tally.attempt();
            let op = tr.begin_op("search");
            if tr.enabled() {
                let query = dv_index::parse_query(&case.query).expect("generated query parses");
                let _ = tr.span(Layer::Tidx, "search_hits", || {
                    self.svc
                        .dv_mut()
                        .search_hits(&query, RankOrder::Chronological)
                });
            }
            let t0 = Instant::now();
            let results = tr.span(Layer::Core, "search", || {
                self.svc
                    .dv_mut()
                    .search(&case.query, RankOrder::Chronological)
            });
            let dt = self.pace.scaled(t0.elapsed().as_secs_f64());
            out.samples.search_ms.push(dt * 1e3);
            tr.end(op);
            self.pace.settle();
            match results {
                Err(e) => tally.fail(|| format!("search {:?} failed: {e:?}", case.query)),
                Ok(results) => {
                    let got: Vec<(u64, u64)> = results
                        .iter()
                        .map(|r| (r.hit.time.as_nanos(), r.hit.until.as_nanos()))
                        .collect();
                    check_hits(case, &got, tally);
                }
            }
        }
        out.search_wall_s += start.elapsed().as_secs_f64();
    }

    /// "Take me back" to each target in turn; closing the revived
    /// session is outside the timer.
    fn revive(&mut self, targets: &[u64], tr: &mut Tracer, tally: &mut Tally, out: &mut Reads) {
        tr.set_phase(Phase::Revive);
        let start = Instant::now();
        for &t in targets {
            tally.attempt();
            let op = tr.begin_op("revive");
            let t0 = Instant::now();
            let revived = tr.span(Layer::Checkpoint, "take_me_back", || {
                self.svc.dv_mut().take_me_back(Timestamp::from_nanos(t))
            });
            let dt = self.pace.scaled(t0.elapsed().as_secs_f64());
            out.samples.revive_ms.push(dt * 1e3);
            tr.end(op);
            self.pace.settle();
            match revived {
                Err(e) => tally.fail(|| format!("take_me_back({t}) failed: {e:?}")),
                Ok(id) => {
                    let dv = self.svc.dv_mut();
                    check_revived(dv, id, t, &self.h, tally);
                    out.images_loaded += dv.session(id).map_or(0, |s| s.report.images_loaded);
                    dv.close_session(id).expect("close revived session");
                }
            }
        }
        out.revive_wall_s += start.elapsed().as_secs_f64();
    }

    /// Plays the whole record from the start, `passes` times. The
    /// first pass ever also checks that playback ends on the live
    /// screen.
    fn playback(
        &mut self,
        end_ns: u64,
        passes: usize,
        tr: &mut Tracer,
        tally: &mut Tally,
        out: &mut Reads,
    ) {
        tr.set_phase(Phase::Playback);
        for _ in 0..passes {
            let mut engine = self.svc.dv().playback();
            play_pass(
                &mut engine,
                end_ns,
                &mut self.pace,
                tr,
                tally,
                &mut out.playback,
            );
            if out.playback.passes == 1 {
                let live = self.svc.dv().screen_fingerprint();
                tally.check(engine.framebuffer().content_hash() == live, || {
                    "playback's final framebuffer differs from the live screen".to_string()
                });
            }
        }
    }
}

/// What the read phases measured, accumulated over their rounds.
#[derive(Default, Debug)]
pub struct Reads {
    pub samples: Samples,
    pub browse_wall_s: f64,
    pub search_wall_s: f64,
    pub revive_wall_s: f64,
    pub playback: Playback,
    /// Checkpoint images loaded by all revives together.
    pub images_loaded: usize,
    browse_checked: usize,
}

impl Reads {
    /// Whether the browse oracle compared as many seeks as it set out
    /// to (or every seek, when there were fewer).
    pub fn browse_oracle_met(&self) -> bool {
        self.browse_checked >= BROWSE_ORACLE_SEEKS.min(self.samples.browse_ms.len() / 8)
    }
}

/// What the playback phase measured.
#[derive(Default, Debug)]
pub struct Playback {
    /// Wall time inside `play_until`, as the clock read it.
    pub wall_s: f64,
    /// The same scaled to the reference box (see `calib`).
    pub scaled_s: f64,
    pub passes: u64,
    pub commands: u64,
}

/// Slices one playback pass is played in, so the calibration kernel
/// can run between them.
const PLAYBACK_SLICES: u64 = 32;

/// One pass of `engine` over the record up to `end_ns`.
pub fn play_pass(
    engine: &mut dv_record::PlaybackEngine,
    end_ns: u64,
    pace: &mut Pace,
    tr: &mut Tracer,
    tally: &mut Tally,
    out: &mut Playback,
) {
    tally.attempt();
    let op = tr.begin_op("playback");
    for k in 1..=PLAYBACK_SLICES {
        let until = Timestamp::from_nanos(end_ns / PLAYBACK_SLICES * k + end_ns % PLAYBACK_SLICES);
        let t0 = Instant::now();
        let played = tr.span(Layer::Record, "play_until", || {
            engine.play_until(until, None)
        });
        let dt = t0.elapsed().as_secs_f64();
        out.wall_s += dt;
        out.scaled_s += pace.scaled(dt);
        pace.settle();
        match played {
            Err(e) => tally.fail(|| format!("playback failed: {e:?}")),
            Ok(stats) => out.commands += stats.commands_applied,
        }
    }
    tr.end(op);
    out.passes += 1;
}

/// The warm-up half of set-up: a throwaway server plays the first few
/// percent of the script and a handful of each query, so code, lazy
/// tables and allocator free lists are warm before anything is timed.
pub fn warm_up(s: &Session, config: Config, scales: &[(u32, u32)], policy: bool) {
    let mut stage = Stage::new(s, config, SimClock::new(), scales, policy);
    let mut tr = Tracer::new(false);
    let mut tally = Tally::default();
    let mut samples = Samples::default();
    let steps = ((s.steps.len() as f64 * WARMUP_SHARE) as usize).clamp(1, s.steps.len());
    stage.record(s, steps, &mut tr, &mut tally, &mut samples);
    stage.flush(&mut tr, &mut tally);
    let played_ns = s.steps[steps - 1].at_ns;
    let dv = stage.dv();
    for i in 0..WARMUP_QUERIES {
        let t = Timestamp::from_nanos(NS_PER_SEC + played_ns * i as u64 / WARMUP_QUERIES as u64);
        let _ = dv.browse(t);
        let _ = dv.search(
            &s.searches[i % s.searches.len()].query,
            RankOrder::Chronological,
        );
        if let Ok(id) = dv.take_me_back(t) {
            let _ = dv.close_session(id);
        }
    }
    let mut engine = dv.playback();
    let _ = engine.play_until(Timestamp::from_nanos(played_ns), None);
}
