//! The display recorder.
//!
//! The recorder is a [`CommandSink`] attached to the virtual display
//! driver (§4.1): it receives the duplicated command stream, optionally
//! rescales it to the recording resolution, merges bursts through a
//! [`CommandQueue`] when recording frequency is limited, appends the
//! survivors to the command log, and takes periodic keyframe screenshots
//! — "only at long intervals (e.g. every 10 minutes) and only if the
//! screen has changed enough since the previous one".

use std::sync::Arc;

use parking_lot::RwLock;

use dv_fault::{sites, FaultPlane, IoFault};
use dv_obs::{names, Obs};

use dv_display::{
    scale_command, CommandQueue, CommandSink, DisplayCommand, Framebuffer, Rect, Region,
    ScaleFactor, Screenshot,
};
use dv_time::{Duration, Timestamp};

use crate::log::CommandLog;
use crate::replay::{count_rows, PrunedReplay};
use crate::screenshot::{encode_screenshot, ScreenshotStore};
use crate::timeline::{Timeline, TimelineEntry};

/// Callback invoked with every *persisted* keyframe (time + screenshot).
pub type KeyframeHook = Box<dyn FnMut(Timestamp, &Screenshot) + Send>;

/// The persistent display record: command log, keyframes and timeline.
///
/// Shared between the recorder (writer) and any number of playback
/// engines (readers), mirroring how the original's on-disk record files
/// are read while still being appended to.
#[derive(Debug)]
pub struct RecordStore {
    /// The append-only command log.
    pub log: CommandLog,
    /// Keyframe screenshots.
    pub shots: ScreenshotStore,
    /// The timeline index over keyframes.
    pub timeline: Timeline,
    /// Recording resolution width.
    pub width: u32,
    /// Recording resolution height.
    pub height: u32,
    /// Session time of the first recorded command.
    pub start: Option<Timestamp>,
    /// Session time of the last recorded command.
    pub end: Timestamp,
}

impl RecordStore {
    /// Returns the recorded wall-span of the session.
    pub fn duration(&self) -> Duration {
        match self.start {
            Some(start) => self.end.saturating_since(start),
            None => Duration::ZERO,
        }
    }
}

/// A shareable handle to a record store.
pub type DisplayRecord = Arc<RwLock<RecordStore>>;

/// Recorder configuration: the quality/storage trade-offs §4.1 exposes.
#[derive(Clone, Copy, Debug)]
pub struct RecorderConfig {
    /// Recording resolution relative to the live display.
    pub scale: ScaleFactor,
    /// Minimum interval between log flushes; commands arriving faster
    /// are queued and merged so "only the result of the last update is
    /// logged". Zero records every command.
    pub flush_interval: Duration,
    /// Minimum interval between keyframe screenshots.
    pub keyframe_interval: Duration,
    /// Minimum fraction of the screen that must have changed since the
    /// previous keyframe for a new one to be taken.
    pub keyframe_min_change: f64,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            scale: ScaleFactor::ONE,
            flush_interval: Duration::ZERO,
            keyframe_interval: Duration::from_secs(600),
            keyframe_min_change: 0.01,
        }
    }
}

/// Cumulative recorder statistics (Figure 4's display series).
#[derive(Clone, Copy, Debug, Default)]
pub struct RecordStats {
    /// Commands appended to the log.
    pub commands: u64,
    /// Commands merged away by frequency limiting.
    pub merged_away: u64,
    /// Bytes in the command log.
    pub command_bytes: u64,
    /// Bytes in the screenshot store.
    pub screenshot_bytes: u64,
    /// Keyframes taken.
    pub keyframes: u64,
    /// Bytes in the timeline index.
    pub timeline_bytes: u64,
    /// Keyframes skipped because the screen content was byte-identical
    /// to the previous keyframe (a full-screen redraw of unchanged
    /// content passes the damage gate but stores nothing new).
    pub skipped_identical_keyframes: u64,
}

/// The display recorder sink.
///
/// The reconstruction framebuffer is maintained *lazily*: commands are
/// only encoded and appended on the hot path, and the framebuffer
/// catches up when a keyframe is due — by the pruned replay a seek
/// uses, so of the log tail it has not yet seen it decodes and applies
/// only what no newer command overwrote (of a run of video frames, the
/// last). This keeps per-command recording cost at its wire cost, which
/// is what makes display recording overhead small (§6).
pub struct DisplayRecorder {
    config: RecorderConfig,
    record: DisplayRecord,
    fb: Framebuffer,
    /// Log offset up to which `fb` is current.
    fb_offset: u64,
    replay: PrunedReplay,
    queue: CommandQueue,
    last_flush: Option<Timestamp>,
    last_keyframe: Option<Timestamp>,
    damage_since_keyframe: Region,
    plane: FaultPlane,
    obs: Obs,
    skipped_identical_keyframes: u64,
    /// Called with every persisted keyframe (time + screenshot); the
    /// visual-recall index hangs off this without the recorder knowing
    /// about it.
    keyframe_hook: Option<KeyframeHook>,
}

impl DisplayRecorder {
    /// Creates a recorder for a live display of `width` x `height`.
    ///
    /// The record is kept at the scaled resolution from `config`.
    pub fn new(width: u32, height: u32, config: RecorderConfig) -> Self {
        let rw = config.scale.apply(width).max(1);
        let rh = config.scale.apply(height).max(1);
        let record = Arc::new(RwLock::new(RecordStore {
            log: CommandLog::new(),
            shots: ScreenshotStore::new(),
            timeline: Timeline::new(),
            width: rw,
            height: rh,
            start: None,
            end: Timestamp::ZERO,
        }));
        DisplayRecorder {
            config,
            record,
            fb: Framebuffer::new(rw, rh),
            fb_offset: 0,
            replay: PrunedReplay::default(),
            queue: CommandQueue::new(),
            last_flush: None,
            last_keyframe: None,
            damage_since_keyframe: Region::new(),
            plane: FaultPlane::disabled(),
            obs: Obs::disabled(),
            skipped_identical_keyframes: 0,
            keyframe_hook: None,
        }
    }

    /// Installs a hook called with every *persisted* keyframe, after the
    /// screenshot and timeline entry have been stored. Suppressed
    /// (identical) and dropped (faulted) keyframes never reach it.
    pub fn set_keyframe_hook(&mut self, hook: KeyframeHook) {
        self.keyframe_hook = Some(hook);
    }

    /// Installs the fault-injection plane (sites `record.log.append`,
    /// `record.screenshot.persist`, `record.timeline.persist`).
    pub fn set_fault_plane(&mut self, plane: FaultPlane) {
        plane.set_obs(self.obs.clone());
        self.plane = plane;
    }

    /// Installs the observability handle: log, screenshot, and timeline
    /// appends are mirrored into the `display.*` metrics.
    pub fn set_obs(&mut self, obs: Obs) {
        self.plane.set_obs(obs.clone());
        self.obs = obs;
    }

    /// Returns the shared record handle for playback and search.
    pub fn record(&self) -> DisplayRecord {
        self.record.clone()
    }

    /// Returns cumulative statistics.
    pub fn stats(&self) -> RecordStats {
        let store = self.record.read();
        RecordStats {
            commands: store.log.len(),
            merged_away: self.queue.merged_away(),
            command_bytes: store.log.byte_len(),
            screenshot_bytes: store.shots.byte_len(),
            keyframes: store.shots.len(),
            timeline_bytes: store.timeline.byte_len(),
            skipped_identical_keyframes: self.skipped_identical_keyframes,
        }
    }

    /// Returns the total record size in bytes across all three files.
    pub fn total_bytes(&self) -> u64 {
        let stats = self.stats();
        stats.command_bytes + stats.screenshot_bytes + stats.timeline_bytes
    }

    /// Flushes queued commands to the log.
    pub fn flush(&mut self) {
        let entries = self.queue.flush();
        if entries.is_empty() {
            return;
        }
        // A failed log append drops the batch but never stops recording;
        // `Corrupt` models silent corruption below this layer and is left
        // to the storage-level checksums, so the append proceeds.
        let _span = self.obs.span("display", names::DISPLAY_FLUSH);
        match self.plane.check(sites::RECORD_LOG_APPEND) {
            Some(IoFault::Enospc) | Some(IoFault::TornWrite) | Some(IoFault::ShortRead) => {
                self.obs
                    .add(names::DISPLAY_DROPPED_COMMANDS, entries.len() as u64);
                return;
            }
            None | Some(IoFault::LatencySpike) | Some(IoFault::Corrupt) => {}
        }
        let mut store = self.record.write();
        let bytes_before = store.log.byte_len();
        let mut appended = 0u64;
        for entry in entries {
            store.log.append(entry.time, &entry.command);
            appended += 1;
            self.damage_since_keyframe
                .add(entry.command.rect().intersect(&self.fb.screen_rect()));
        }
        self.obs.add(names::DISPLAY_COMMANDS, appended);
        self.obs.add(
            names::DISPLAY_COMMAND_BYTES,
            store.log.byte_len() - bytes_before,
        );
    }

    /// Catches the reconstruction framebuffer up to the log head.
    fn sync_fb(&mut self) {
        let store = self.record.read();
        // The log holds only what this recorder encoded; should it not
        // read back, the framebuffer stays where it stands.
        if let Ok(done) = self.replay.run(
            &store.log,
            self.fb_offset,
            Timestamp::MAX,
            &mut self.fb,
            None,
        ) {
            self.fb_offset = done.next;
            self.obs
                .add(names::RECORD_CATCHUP_COMMANDS_SCANNED, done.scanned);
            self.obs
                .add(names::RECORD_CATCHUP_COMMANDS_APPLIED, done.applied);
            count_rows(&self.obs, done.rows);
        }
    }

    /// Takes a keyframe now, regardless of the change threshold; the
    /// server calls this during idle periods for redundancy.
    pub fn force_keyframe(&mut self, now: Timestamp) {
        self.flush();
        self.sync_fb();
        // Span opens after the flush (which times itself) so the two
        // histograms don't double-count the same work.
        let _span = self.obs.span("display", names::DISPLAY_KEYFRAME);
        // A full-screen redraw of unchanged content (window refresh,
        // tab-switch round trip) passes the damage gate but would store a
        // byte-identical screenshot; suppress it. The last *persisted*
        // keyframe is the one the newest timeline entry names (never a
        // screenshot orphaned by a failed timeline write), and equal
        // encodings mean equal screens. The damage is cleared — the
        // screen provably matches the last keyframe — so the next
        // interval does not retry a no-op.
        let shot = self.fb.snapshot();
        let encoded = encode_screenshot(&shot);
        let unchanged = {
            let store = self.record.read();
            let last = store.timeline.entries().last();
            last.and_then(|entry| store.shots.encoded_at(entry.screenshot_offset))
                == Some(encoded.as_slice())
        };
        if unchanged {
            self.skipped_identical_keyframes += 1;
            self.last_keyframe = Some(now);
            self.damage_since_keyframe.clear();
            return;
        }
        // A keyframe that cannot persist its screenshot or timeline entry
        // is skipped: `last_keyframe` still advances so cadence continues,
        // but accumulated damage is kept so the next interval retries.
        let screenshot_fault = matches!(
            self.plane.check(sites::RECORD_SCREENSHOT_PERSIST),
            Some(IoFault::Enospc) | Some(IoFault::TornWrite) | Some(IoFault::ShortRead)
        );
        if screenshot_fault {
            self.obs.incr(names::DISPLAY_DROPPED_KEYFRAMES);
            self.last_keyframe = Some(now);
            return;
        }
        let mut store = self.record.write();
        let shot_bytes_before = store.shots.byte_len();
        let screenshot_offset = store.shots.append_encoded(&encoded);
        // Accounted even if the timeline entry below fails: the orphaned
        // screenshot bytes are still on storage, and `stats()` reads the
        // store's byte length directly.
        self.obs.add(
            names::DISPLAY_SCREENSHOT_BYTES,
            store.shots.byte_len() - shot_bytes_before,
        );
        let command_offset = store.log.end_offset();
        match self.plane.check(sites::RECORD_TIMELINE_PERSIST) {
            Some(IoFault::Enospc) | Some(IoFault::TornWrite) | Some(IoFault::ShortRead) => {
                // The screenshot bytes are orphaned but unreferenced; the
                // timeline stays consistent with only complete keyframes.
                self.obs.incr(names::DISPLAY_DROPPED_KEYFRAMES);
                self.last_keyframe = Some(now);
                return;
            }
            None | Some(IoFault::LatencySpike) | Some(IoFault::Corrupt) => {}
        }
        let timeline_bytes_before = store.timeline.byte_len();
        store.timeline.push(TimelineEntry {
            time: now,
            screenshot_offset,
            command_offset,
        });
        self.obs.incr(names::DISPLAY_KEYFRAMES);
        self.obs.add(
            names::DISPLAY_TIMELINE_BYTES,
            store.timeline.byte_len() - timeline_bytes_before,
        );
        self.last_keyframe = Some(now);
        self.damage_since_keyframe.clear();
        drop(store);
        if let Some(hook) = self.keyframe_hook.as_mut() {
            hook(now, &shot);
        }
    }

    fn maybe_keyframe(&mut self, now: Timestamp) {
        match self.last_keyframe {
            None => self.force_keyframe(now),
            Some(last) => {
                if now.saturating_since(last) >= self.config.keyframe_interval
                    && self
                        .damage_since_keyframe
                        .coverage_of(self.fb.width(), self.fb.height())
                        >= self.config.keyframe_min_change
                {
                    self.force_keyframe(now);
                }
            }
        }
    }
}

impl CommandSink for DisplayRecorder {
    fn submit(&mut self, ts: Timestamp, cmd: &DisplayCommand) {
        {
            let mut store = self.record.write();
            if store.start.is_none() {
                store.start = Some(ts);
            }
            store.end = store.end.max(ts);
        }
        // The initial keyframe provides "the initial state of the display
        // that subsequent recorded commands modify".
        if self.last_keyframe.is_none() {
            self.force_keyframe(ts);
        }
        let scaled = scale_command(cmd, self.config.scale);
        if scaled
            .rect()
            .intersect(&Rect::screen(self.fb.width(), self.fb.height()))
            .is_empty()
        {
            return;
        }
        self.queue.push(ts, scaled);
        let due = match self.last_flush {
            None => true,
            Some(last) => ts.saturating_since(last) >= self.config.flush_interval,
        };
        if due {
            self.flush();
            self.last_flush = Some(ts);
            self.maybe_keyframe(ts);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(rect: Rect, color: u32) -> DisplayCommand {
        DisplayCommand::SolidFill { rect, color }
    }

    fn ts(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    #[test]
    fn first_command_takes_initial_keyframe() {
        let mut rec = DisplayRecorder::new(64, 64, RecorderConfig::default());
        rec.submit(ts(5), &fill(Rect::new(0, 0, 4, 4), 1));
        let stats = rec.stats();
        assert_eq!(stats.keyframes, 1);
        assert_eq!(stats.commands, 1);
        let store = rec.record();
        let store = store.read();
        let entry = &store.timeline.entries()[0];
        assert_eq!(entry.time, ts(5));
        assert_eq!(entry.command_offset, 0, "keyframe precedes first command");
        // The initial keyframe is the blank screen.
        let shot = store.shots.load(entry.screenshot_offset).unwrap();
        assert_eq!(shot.pixels.iter().filter(|&&p| p != 0).count(), 0);
    }

    #[test]
    fn every_command_logged_with_zero_flush_interval() {
        let mut rec = DisplayRecorder::new(64, 64, RecorderConfig::default());
        for i in 0..20 {
            rec.submit(ts(i), &fill(Rect::new(0, 0, 8, 8), i as u32));
        }
        assert_eq!(rec.stats().commands, 20);
    }

    #[test]
    fn frequency_limiting_merges_overwrites() {
        let config = RecorderConfig {
            flush_interval: Duration::from_millis(100),
            ..RecorderConfig::default()
        };
        let mut rec = DisplayRecorder::new(64, 64, config);
        // 10 overwriting fills within one flush window.
        for i in 0..10 {
            rec.submit(ts(i), &fill(Rect::new(0, 0, 64, 64), i as u32));
        }
        rec.submit(ts(150), &fill(Rect::new(0, 0, 64, 64), 99));
        // Only the first (flushed immediately) and the final state of the
        // window survive.
        let stats = rec.stats();
        assert!(stats.commands < 12);
        assert!(stats.merged_away > 0);
    }

    #[test]
    fn keyframes_respect_interval_and_change_threshold() {
        let config = RecorderConfig {
            keyframe_interval: Duration::from_secs(1),
            keyframe_min_change: 0.5,
            ..RecorderConfig::default()
        };
        let mut rec = DisplayRecorder::new(100, 100, config);
        // The initial keyframe precedes this small fill.
        rec.submit(ts(0), &fill(Rect::new(0, 0, 2, 2), 1));
        // Another tiny change after the interval: below threshold.
        rec.submit(ts(1_100), &fill(Rect::new(0, 0, 2, 2), 2));
        assert_eq!(rec.stats().keyframes, 1);
        // Big change after the interval: keyframe.
        rec.submit(ts(2_300), &fill(Rect::new(0, 0, 100, 80), 3));
        assert_eq!(rec.stats().keyframes, 2);
        // Big change but too soon: no keyframe.
        rec.submit(ts(2_400), &fill(Rect::new(0, 0, 100, 100), 4));
        assert_eq!(rec.stats().keyframes, 2);
    }

    #[test]
    fn scaled_recording_shrinks_payloads() {
        let full = {
            let mut rec = DisplayRecorder::new(128, 128, RecorderConfig::default());
            rec.submit(
                ts(0),
                &DisplayCommand::Raw {
                    rect: Rect::new(0, 0, 128, 128),
                    pixels: Arc::new(vec![5; 128 * 128]),
                },
            );
            rec.stats().command_bytes
        };
        let half = {
            let config = RecorderConfig {
                scale: ScaleFactor::new(1, 2),
                ..RecorderConfig::default()
            };
            let mut rec = DisplayRecorder::new(128, 128, config);
            rec.submit(
                ts(0),
                &DisplayCommand::Raw {
                    rect: Rect::new(0, 0, 128, 128),
                    pixels: Arc::new(vec![5; 128 * 128]),
                },
            );
            rec.stats().command_bytes
        };
        assert!(half * 3 < full, "half-res record should be ~4x smaller");
    }

    /// Regression: a forced keyframe over unchanged screen content used
    /// to append a full byte-identical screenshot copy; it must be
    /// suppressed and counted instead.
    #[test]
    fn identical_keyframes_are_suppressed() {
        let mut rec = DisplayRecorder::new(64, 64, RecorderConfig::default());
        rec.submit(ts(0), &fill(Rect::new(0, 0, 64, 64), 7));
        rec.force_keyframe(ts(1_000));
        let before = rec.stats();
        assert_eq!(before.skipped_identical_keyframes, 0);
        // Nothing drew since the last keyframe: identical content.
        rec.force_keyframe(ts(2_000));
        rec.force_keyframe(ts(3_000));
        let stats = rec.stats();
        assert_eq!(stats.keyframes, before.keyframes);
        assert_eq!(stats.screenshot_bytes, before.screenshot_bytes);
        assert_eq!(stats.skipped_identical_keyframes, 2);
        // Changed content records again.
        rec.submit(ts(4_000), &fill(Rect::new(0, 0, 32, 32), 9));
        rec.force_keyframe(ts(5_000));
        let after = rec.stats();
        assert_eq!(after.keyframes, before.keyframes + 1);
        assert_eq!(after.skipped_identical_keyframes, 2);
    }

    #[test]
    fn keyframe_hook_sees_persisted_keyframes_only() {
        use parking_lot::Mutex;
        let seen: Arc<Mutex<Vec<(Timestamp, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        let mut rec = DisplayRecorder::new(64, 64, RecorderConfig::default());
        rec.set_keyframe_hook(Box::new(move |t, shot| {
            sink.lock().push((t, shot.content_hash()));
        }));
        rec.submit(ts(0), &fill(Rect::new(0, 0, 64, 64), 7));
        rec.force_keyframe(ts(1_000));
        // Suppressed: identical content never reaches the hook.
        rec.force_keyframe(ts(2_000));
        let calls = seen.lock().clone();
        assert_eq!(calls.len(), 2, "initial + forced keyframe");
        assert_eq!(calls[0].0, ts(0));
        assert_eq!(calls[1].0, ts(1_000));
        // The hook saw exactly what the store persisted.
        let record = rec.record();
        let store = record.read();
        for (call, entry) in calls.iter().zip(store.timeline.entries()) {
            let shot = store.shots.load(entry.screenshot_offset).unwrap();
            assert_eq!(call.1, shot.content_hash());
        }
    }

    /// A screenshot orphaned by a failed timeline write is not the last
    /// persisted keyframe: the same screen, offered again, is stored.
    #[test]
    fn orphaned_screenshot_is_not_the_comparison_target() {
        use dv_fault::FaultPlan;
        let obs = Obs::sim();
        let dropped = || obs.counter(names::DISPLAY_DROPPED_KEYFRAMES);
        let mut rec = DisplayRecorder::new(64, 64, RecorderConfig::default());
        rec.set_obs(obs.clone());
        // The initial keyframe is the timeline write's first check.
        rec.set_fault_plane(
            FaultPlan::new(1)
                .fail_nth(sites::RECORD_TIMELINE_PERSIST, 2, IoFault::Enospc)
                .build(),
        );
        rec.submit(ts(0), &fill(Rect::new(0, 0, 64, 64), 7));
        rec.force_keyframe(ts(1_000));
        assert_eq!((rec.stats().keyframes, dropped()), (2, 1));
        assert_eq!(rec.record().read().timeline.entries().len(), 1);
        // Same screen as the orphan, but not as the keyframe at ts(0).
        rec.force_keyframe(ts(2_000));
        let stored = rec.stats();
        assert_eq!(stored.skipped_identical_keyframes, 0);
        assert_eq!((stored.keyframes, dropped()), (3, 1));
        rec.force_keyframe(ts(3_000));
        assert_eq!(rec.stats().skipped_identical_keyframes, 1);
        let record = rec.record();
        let store = record.read();
        let times: Vec<Timestamp> = store.timeline.entries().iter().map(|e| e.time).collect();
        assert_eq!(times, [ts(0), ts(2_000)]);
        let last = store.timeline.entries()[1].screenshot_offset;
        assert!(store
            .shots
            .load(last)
            .unwrap()
            .pixels
            .iter()
            .all(|&p| p == 7));
    }

    /// The two keyframe sites are asked in the order and number they
    /// always were: a suppressed keyframe asks neither, a failed
    /// screenshot write does not ask the timeline. Pinned from the
    /// recorder that hashed frames, for the same script.
    #[test]
    fn keyframe_fault_sites_are_checked_in_the_same_sequence() {
        use dv_fault::FaultPlan;
        let plane = FaultPlan::new(1)
            .fail_nth(sites::RECORD_SCREENSHOT_PERSIST, 3, IoFault::TornWrite)
            .fail_nth(sites::RECORD_TIMELINE_PERSIST, 3, IoFault::ShortRead)
            .build();
        let obs = Obs::sim();
        let mut rec = DisplayRecorder::new(64, 64, RecorderConfig::default());
        rec.set_obs(obs.clone());
        rec.set_fault_plane(plane.clone());
        // (draw this colour first, or nothing) then force a keyframe.
        let script = [
            Some(1),
            None,
            Some(2),
            Some(3),
            None,
            Some(3),
            Some(4),
            None,
        ];
        let mut seen = Vec::new();
        for (i, draw) in script.into_iter().enumerate() {
            let at = i as u64 * 1_000;
            if let Some(color) = draw {
                rec.submit(ts(at), &fill(Rect::new(0, 0, 64, 64), color));
            }
            rec.force_keyframe(ts(at + 500));
            let per_site = plane.stats().sites;
            let checks = |site: &str| per_site.get(site).map_or(0, |s| s.checks);
            let stats = rec.stats();
            seen.push((
                checks(sites::RECORD_SCREENSHOT_PERSIST),
                checks(sites::RECORD_TIMELINE_PERSIST),
                stats.keyframes,
                stats.skipped_identical_keyframes,
                obs.counter(names::DISPLAY_DROPPED_KEYFRAMES),
            ));
        }
        assert_eq!(
            seen,
            [
                (2, 2, 2, 0, 0), // initial keyframe, then colour 1
                (2, 2, 2, 1, 0), // unchanged: neither site asked
                (3, 2, 2, 1, 1), // screenshot write torn: timeline not asked
                (4, 3, 3, 1, 2), // timeline write fails: screenshot orphaned
                (5, 4, 4, 1, 2), // colour 3 again: not yet persisted, stored
                (5, 4, 4, 2, 2), // redrawn in the same colour: suppressed
                (6, 5, 5, 2, 2),
                (6, 5, 5, 3, 2),
            ]
        );
    }

    #[test]
    fn catch_up_applies_only_what_survives() {
        let obs = Obs::sim();
        let mut rec = DisplayRecorder::new(32, 32, RecorderConfig::default());
        rec.set_obs(obs.clone());
        for i in 0..20 {
            rec.submit(ts(i), &fill(Rect::new(0, 0, 32, 32), i as u32));
        }
        rec.force_keyframe(ts(100));
        assert_eq!(obs.counter(names::RECORD_CATCHUP_COMMANDS_SCANNED), 20);
        assert_eq!(obs.counter(names::RECORD_CATCHUP_COMMANDS_APPLIED), 1);
        let record = rec.record();
        let store = record.read();
        let entry = store.timeline.entries().last().unwrap();
        let shot = store.shots.load(entry.screenshot_offset).unwrap();
        assert!(shot.pixels.iter().all(|&p| p == 19));
    }

    #[test]
    fn record_tracks_session_span() {
        let mut rec = DisplayRecorder::new(32, 32, RecorderConfig::default());
        rec.submit(ts(100), &fill(Rect::new(0, 0, 1, 1), 1));
        rec.submit(ts(900), &fill(Rect::new(0, 0, 1, 1), 2));
        let record = rec.record();
        let store = record.read();
        assert_eq!(store.start, Some(ts(100)));
        assert_eq!(store.end, ts(900));
        assert_eq!(store.duration(), Duration::from_millis(800));
    }
}
