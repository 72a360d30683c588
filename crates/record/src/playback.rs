//! The playback engine.
//!
//! Implements §4.3: skip to any time via binary search over the timeline
//! index, play forward at the recorded rate or any scaled rate, fast
//! forward keyframe-by-keyframe, rewind, and reconstruct screenshots
//! offscreen for search results.
//!
//! A seek costs what changed since the nearest state the engine already
//! holds: it continues from its own position when that lies between the
//! target's keyframe and the target, reads only command headers to find
//! what a newer command overwrote, and decodes just the survivors.

use std::sync::Arc;

use dv_display::{CommandSink, DisplayCommand, Framebuffer, Rect, Screenshot};
use dv_obs::{names, Obs};
use dv_time::{Duration, Timestamp};

use crate::cache::LruCache;
use crate::recorder::{DisplayRecord, RecordStore};
use crate::replay::PrunedReplay;

/// Errors produced by playback operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PlaybackError {
    /// The record holds no keyframes yet.
    EmptyRecord,
    /// The requested time precedes the first keyframe.
    BeforeRecord,
    /// The record data is internally inconsistent.
    Corrupt,
}

impl std::fmt::Display for PlaybackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlaybackError::EmptyRecord => write!(f, "display record is empty"),
            PlaybackError::BeforeRecord => write!(f, "time precedes the display record"),
            PlaybackError::Corrupt => write!(f, "display record is corrupt"),
        }
    }
}

impl std::error::Error for PlaybackError {}

/// Statistics for one playback operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PlayStats {
    /// Commands applied.
    pub commands_applied: u64,
    /// Commands discarded by overwrite pruning during a seek.
    pub commands_pruned: u64,
    /// Keyframes presented.
    pub keyframes_presented: u64,
}

/// A playback engine over a display record.
///
/// The engine keeps an offscreen framebuffer at the recording resolution
/// and a cursor `(position, log offset)`. Search uses it "completely
/// offscreen, which helps speed up the operation" (§4.4).
pub struct PlaybackEngine {
    record: DisplayRecord,
    fb: Framebuffer,
    position: Timestamp,
    offset: u64,
    /// Whether `fb` is the screen at `position` and `offset` the first
    /// entry after it, so a seek may continue from here. Only a
    /// successful seek, fast-forward or rewind establishes that.
    primed: bool,
    shot_cache: LruCache<u64, Screenshot>,
    obs: Obs,
    replay: PrunedReplay,
}

impl PlaybackEngine {
    /// Creates an engine positioned at the start of the record.
    pub fn new(record: DisplayRecord) -> Self {
        let (w, h) = {
            let store = record.read();
            (store.width, store.height)
        };
        PlaybackEngine {
            record,
            fb: Framebuffer::new(w, h),
            position: Timestamp::ZERO,
            offset: 0,
            primed: false,
            shot_cache: LruCache::new(16),
            obs: Obs::disabled(),
            replay: PrunedReplay::default(),
        }
    }

    /// Counts seek work into `obs` (the `record.seek.*` counters).
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Sets the screenshot cache capacity (the paper's tunable LRU).
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.shot_cache = LruCache::new(capacity);
        self
    }

    /// Returns the current playback position.
    pub fn position(&self) -> Timestamp {
        self.position
    }

    /// Returns the reconstructed screen at the current position.
    pub fn screenshot(&self) -> Screenshot {
        self.fb.snapshot()
    }

    /// Returns the reconstruction framebuffer.
    pub fn framebuffer(&self) -> &Framebuffer {
        &self.fb
    }

    fn load_keyframe(
        &mut self,
        store: &RecordStore,
        offset: u64,
    ) -> Result<Screenshot, PlaybackError> {
        if let Some(shot) = self.shot_cache.get(&offset) {
            return Ok(shot.clone());
        }
        let shot = store.shots.load(offset).ok_or(PlaybackError::Corrupt)?;
        self.shot_cache.put(offset, shot.clone());
        Ok(shot)
    }

    /// Skips directly to time `t` (§4.3): binary-search the timeline for
    /// the last keyframe at or before `t`, then replay the commands in
    /// between, pruning those overwritten by newer ones. When the engine
    /// already stands between that keyframe and `t`, it replays from its
    /// own position instead.
    pub fn seek(&mut self, t: Timestamp) -> Result<PlayStats, PlaybackError> {
        let resumable = std::mem::take(&mut self.primed);
        let record = self.record.clone();
        let store = record.read();
        if store.timeline.is_empty() {
            return Err(PlaybackError::EmptyRecord);
        }
        let entry = *store
            .timeline
            .entry_at_or_before(t)
            .ok_or(PlaybackError::BeforeRecord)?;
        let mut stats = PlayStats::default();
        let from = if resumable && entry.time <= self.position && self.position <= t {
            self.obs.incr(names::RECORD_SEEK_RESUMED);
            self.offset
        } else {
            let shot = self.load_keyframe(&store, entry.screenshot_offset)?;
            self.fb = Framebuffer::from_screenshot(&shot);
            stats.keyframes_presented = 1;
            self.obs.incr(names::RECORD_SEEK_KEYFRAME_LOADS);
            entry.command_offset
        };
        let done = self
            .replay
            .run(&store.log, from, t, &mut self.fb)
            .map_err(|_| PlaybackError::Corrupt)?;
        stats.commands_applied = done.applied;
        stats.commands_pruned = done.scanned - done.applied;
        self.obs
            .add(names::RECORD_SEEK_COMMANDS_SCANNED, done.scanned);
        self.obs
            .add(names::RECORD_SEEK_COMMANDS_APPLIED, done.applied);
        self.position = t;
        self.offset = done.next;
        self.primed = true;
        Ok(stats)
    }

    /// Plays commands from the current position up to and including time
    /// `t`, forwarding each applied command to `sink` (§4.3 "play").
    pub fn play_until(
        &mut self,
        t: Timestamp,
        mut sink: Option<&mut dyn CommandSink>,
    ) -> Result<PlayStats, PlaybackError> {
        let mut stats = PlayStats::default();
        let record = self.record.clone();
        let store = record.read();
        loop {
            match store.log.read_until(self.offset, t) {
                Ok(Some((time, cmd, next))) => {
                    self.fb.apply(&cmd);
                    if let Some(s) = sink.as_deref_mut() {
                        s.submit(time, &cmd);
                    }
                    stats.commands_applied += 1;
                    self.offset = next;
                }
                Ok(None) => break,
                Err(_) => {
                    // `fb` is now ahead of `position`.
                    self.primed = false;
                    return Err(PlaybackError::Corrupt);
                }
            }
        }
        self.position = self.position.max(t);
        Ok(stats)
    }

    /// Plays from the current position to `t` at `rate` times real time,
    /// invoking `sleeper` with each scaled inter-command delay. Passing a
    /// very large rate approximates "fastest possible", where command
    /// times are ignored (§4.3).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not positive.
    pub fn play_realtime_until(
        &mut self,
        t: Timestamp,
        rate: f64,
        sink: Option<&mut dyn CommandSink>,
        mut sleeper: impl FnMut(Duration),
    ) -> Result<PlayStats, PlaybackError> {
        assert!(rate > 0.0, "playback rate must be positive");
        let mut stats = PlayStats::default();
        let mut last_time: Option<Timestamp> = None;
        let mut sink = sink;
        let record = self.record.clone();
        let store = record.read();
        loop {
            match store.log.read_until(self.offset, t) {
                Ok(Some((time, cmd, next))) => {
                    if let Some(prev) = last_time {
                        let gap = time.saturating_since(prev).scale(1.0 / rate);
                        if gap > Duration::ZERO {
                            sleeper(gap);
                        }
                    }
                    last_time = Some(time);
                    self.fb.apply(&cmd);
                    if let Some(s) = sink.as_deref_mut() {
                        s.submit(time, &cmd);
                    }
                    stats.commands_applied += 1;
                    self.offset = next;
                }
                Ok(None) => break,
                Err(_) => {
                    // `fb` is now ahead of `position`.
                    self.primed = false;
                    return Err(PlaybackError::Corrupt);
                }
            }
        }
        self.position = self.position.max(t);
        Ok(stats)
    }

    /// Fast-forwards to `t` (§4.3): present each intervening keyframe in
    /// turn (as a full-screen raw update to `sink`), then replay the
    /// commands from the last keyframe at or before `t`.
    pub fn fast_forward(
        &mut self,
        t: Timestamp,
        mut sink: Option<&mut dyn CommandSink>,
    ) -> Result<PlayStats, PlaybackError> {
        let resumable = std::mem::take(&mut self.primed);
        let mut stats = PlayStats::default();
        {
            let record = self.record.clone();
            let store = record.read();
            for entry in store.timeline.entries_in(self.position, t) {
                let shot = self.load_keyframe(&store, entry.screenshot_offset)?;
                if let Some(s) = sink.as_deref_mut() {
                    s.submit(entry.time, &present_command(&shot));
                }
                self.fb = Framebuffer::from_screenshot(&shot);
                self.offset = entry.command_offset;
                self.position = entry.time;
                stats.keyframes_presented += 1;
            }
        }
        let tail = self.play_until(t, sink)?;
        stats.commands_applied += tail.commands_applied;
        // Playing on from a keyframe primes the engine; playing on from
        // wherever it stood leaves it as it was.
        self.primed = resumable || stats.keyframes_presented > 0;
        Ok(stats)
    }

    /// Rewinds to `t` (§4.3): present intervening keyframes backwards,
    /// then reconstruct the exact state at `t`.
    pub fn rewind(
        &mut self,
        t: Timestamp,
        mut sink: Option<&mut dyn CommandSink>,
    ) -> Result<PlayStats, PlaybackError> {
        let resumable = std::mem::take(&mut self.primed);
        let mut stats = PlayStats::default();
        {
            let record = self.record.clone();
            let store = record.read();
            for entry in store.timeline.entries_in(t, self.position).iter().rev() {
                let shot = self.load_keyframe(&store, entry.screenshot_offset)?;
                if let Some(s) = sink.as_deref_mut() {
                    s.submit(entry.time, &present_command(&shot));
                }
                stats.keyframes_presented += 1;
            }
        }
        // Presenting touched neither `fb` nor the cursor.
        self.primed = resumable;
        let seek_stats = self.seek(t)?;
        if let Some(s) = sink {
            s.submit(t, &present_command(&self.fb.snapshot()));
        }
        stats.commands_applied += seek_stats.commands_applied;
        stats.keyframes_presented += seek_stats.keyframes_presented;
        Ok(stats)
    }
}

/// Converts a screenshot into a full-screen raw command for presentation
/// to a viewer sink, sharing its pixels.
fn present_command(shot: &Screenshot) -> DisplayCommand {
    DisplayCommand::Raw {
        rect: Rect::new(0, 0, shot.width, shot.height),
        pixels: Arc::clone(&shot.pixels),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{DisplayRecorder, RecorderConfig};
    use dv_display::Rect;
    use dv_time::Duration;

    fn ts(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    fn fill(rect: Rect, color: u32) -> DisplayCommand {
        DisplayCommand::SolidFill { rect, color }
    }

    /// Builds a record: color column i painted at t = i*100ms, keyframes
    /// every second.
    fn sample_record() -> (DisplayRecord, Framebuffer) {
        let config = RecorderConfig {
            keyframe_interval: Duration::from_secs(1),
            keyframe_min_change: 0.0,
            ..RecorderConfig::default()
        };
        let mut rec = DisplayRecorder::new(64, 64, config);
        let mut reference = Framebuffer::new(64, 64);
        for i in 0..50u32 {
            let cmd = fill(Rect::new(i, 0, 1, 64), i + 1);
            rec.submit(ts(i as u64 * 100), &cmd);
            reference.apply(&cmd);
        }
        (rec.record(), reference)
    }

    #[test]
    fn seek_reconstructs_exact_state() {
        let (record, reference) = sample_record();
        let mut engine = PlaybackEngine::new(record);
        engine.seek(ts(4_900)).unwrap();
        assert_eq!(engine.screenshot().content_hash(), reference.content_hash());
    }

    #[test]
    fn seek_to_intermediate_time() {
        let (record, _) = sample_record();
        let mut engine = PlaybackEngine::new(record);
        engine.seek(ts(1_050)).unwrap();
        // Columns 0..=10 painted (t=0..1000), column 11 not yet.
        assert_eq!(engine.framebuffer().pixel(10, 0), 11);
        assert_eq!(engine.framebuffer().pixel(11, 0), 0);
        assert_eq!(engine.position(), ts(1_050));
    }

    #[test]
    fn seek_uses_nearest_keyframe() {
        let (record, _) = sample_record();
        let mut engine = PlaybackEngine::new(record);
        let stats = engine.seek(ts(4_950)).unwrap();
        // Keyframes at 0,1s,2s,3s,4s: replay must start at the 4s one and
        // apply only the tail commands, not all 50.
        assert!(stats.commands_applied <= 10, "{stats:?}");
    }

    #[test]
    fn seek_prunes_overwritten_commands() {
        let config = RecorderConfig::default();
        let mut rec = DisplayRecorder::new(32, 32, config);
        for i in 0..20 {
            rec.submit(ts(i), &fill(Rect::new(0, 0, 32, 32), i as u32));
        }
        let mut engine = PlaybackEngine::new(rec.record());
        let stats = engine.seek(ts(100)).unwrap();
        assert_eq!(stats.commands_applied, 1, "only the last fill matters");
        assert_eq!(stats.commands_pruned, 19);
        assert_eq!(engine.framebuffer().pixel(0, 0), 19);
    }

    #[test]
    fn play_until_advances_incrementally() {
        let (record, reference) = sample_record();
        let mut engine = PlaybackEngine::new(record);
        engine.seek(ts(0)).unwrap();
        engine.play_until(ts(2_000), None).unwrap();
        assert_eq!(engine.framebuffer().pixel(20, 0), 21);
        assert_eq!(engine.framebuffer().pixel(21, 0), 0);
        engine.play_until(ts(10_000), None).unwrap();
        assert_eq!(engine.screenshot().content_hash(), reference.content_hash());
    }

    #[test]
    fn playback_equals_seek_for_all_times() {
        let (record, _) = sample_record();
        for probe in [0u64, 450, 1_000, 1_001, 3_333, 4_900, 7_000] {
            let mut a = PlaybackEngine::new(record.clone());
            a.seek(ts(probe)).unwrap();
            let mut b = PlaybackEngine::new(record.clone());
            b.seek(ts(0)).unwrap();
            b.play_until(ts(probe), None).unwrap();
            assert_eq!(
                a.screenshot().content_hash(),
                b.screenshot().content_hash(),
                "divergence at t={probe}ms"
            );
        }
    }

    #[test]
    fn rate_scaling_scales_sleeps() {
        let (record, _) = sample_record();
        let mut engine = PlaybackEngine::new(record);
        engine.seek(ts(0)).unwrap();
        let mut slept = Duration::ZERO;
        engine
            .play_realtime_until(ts(1_000), 2.0, None, |d| slept += d)
            .unwrap();
        // Commands at t=100..=1000 follow the one applied by the seek:
        // nine 100ms gaps at 2x -> 450ms total sleep.
        assert_eq!(slept, Duration::from_millis(450));
    }

    #[test]
    fn fast_forward_presents_keyframes() {
        let (record, reference) = sample_record();
        let mut engine = PlaybackEngine::new(record);
        engine.seek(ts(0)).unwrap();
        let stats = engine.fast_forward(ts(4_900), None).unwrap();
        assert!(stats.keyframes_presented >= 4);
        assert_eq!(engine.screenshot().content_hash(), reference.content_hash());
    }

    #[test]
    fn rewind_reconstructs_earlier_state() {
        let (record, _) = sample_record();
        let mut engine = PlaybackEngine::new(record);
        engine.seek(ts(4_900)).unwrap();
        let stats = engine.rewind(ts(1_050), None).unwrap();
        assert!(stats.keyframes_presented >= 3);
        assert_eq!(engine.framebuffer().pixel(10, 0), 11);
        assert_eq!(engine.framebuffer().pixel(11, 0), 0);
        assert_eq!(engine.position(), ts(1_050));
    }

    #[test]
    fn empty_record_errors() {
        let rec = DisplayRecorder::new(8, 8, RecorderConfig::default());
        let mut engine = PlaybackEngine::new(rec.record());
        assert_eq!(engine.seek(ts(0)), Err(PlaybackError::EmptyRecord));
    }

    #[test]
    fn seek_resumes_forward_and_reloads_backward() {
        let (record, _) = sample_record();
        let mut engine = PlaybackEngine::new(record.clone());
        assert_eq!(engine.seek(ts(2_500)).unwrap().keyframes_presented, 1);
        // Forward inside the keyframe interval: continue from 2.5 s and
        // scan only the one command in (2.5 s, 2.6 s].
        let forward = engine.seek(ts(2_600)).unwrap();
        assert_eq!(forward.keyframes_presented, 0);
        assert_eq!(forward.commands_applied + forward.commands_pruned, 1);
        // Backward: the state at 2.6 s is no use for 2.1 s.
        assert_eq!(engine.seek(ts(2_100)).unwrap().keyframes_presented, 1);
        // Past the next keyframe: that keyframe is nearer than 2.1 s.
        assert_eq!(engine.seek(ts(3_300)).unwrap().keyframes_presented, 1);
        let mut fresh = PlaybackEngine::new(record);
        fresh.seek(ts(3_300)).unwrap();
        assert_eq!(engine.framebuffer(), fresh.framebuffer());
        let (hits, misses) = engine.shot_cache.stats();
        assert_eq!((hits, misses), (1, 2), "the 2 s keyframe was decoded once");
    }

    /// Regression: a seek that fails part-way has already replaced `fb`
    /// with the keyframe; it must not seed a later resume.
    #[test]
    fn failed_seek_is_not_resumable() {
        let (record, _) = sample_record();
        // The entry at 2.7 s gets an unknown tag.
        let at = {
            let store = record.read();
            let entry = *store.timeline.entry_at_or_before(ts(2_000)).unwrap();
            let mut at = entry.command_offset;
            while let Some((time, _, next)) = store.log.peek_at(at).unwrap() {
                if time == ts(2_700) {
                    break;
                }
                at = next;
            }
            at
        };
        record.write().log.corrupt_tag_at(at);
        let mut engine = PlaybackEngine::new(record.clone());
        engine.seek(ts(2_200)).unwrap();
        assert_eq!(engine.seek(ts(2_900)), Err(PlaybackError::Corrupt));
        assert_eq!(
            engine.play_until(ts(2_900), None),
            Err(PlaybackError::Corrupt)
        );
        let after_failure = engine.seek(ts(2_500)).unwrap();
        assert_eq!(
            after_failure.keyframes_presented, 1,
            "restarts from the keyframe"
        );
        let mut fresh = PlaybackEngine::new(record);
        fresh.seek(ts(2_500)).unwrap();
        assert_eq!(engine.framebuffer(), fresh.framebuffer());
    }

    #[test]
    fn fresh_engine_is_not_resumable() {
        // Keyframe at t = 0 and `position == ZERO`, but the black `fb`
        // of a new engine is not that keyframe.
        let config = RecorderConfig::default();
        let mut rec = DisplayRecorder::new(8, 8, config);
        rec.submit(ts(0), &fill(Rect::new(0, 0, 8, 8), 5));
        rec.force_keyframe(ts(0));
        rec.submit(ts(10), &fill(Rect::new(0, 0, 1, 1), 6));
        let mut engine = PlaybackEngine::new(rec.record());
        // Playing on from wherever the engine stood does not prime it.
        engine.fast_forward(ts(0), None).unwrap();
        let stats = engine.seek(ts(5)).unwrap();
        assert_eq!(stats.keyframes_presented, 1);
        assert_eq!(engine.framebuffer().pixel(4, 4), 5);
    }

    #[test]
    fn seek_counts_work_into_obs() {
        let (record, _) = sample_record();
        let obs = Obs::sim();
        let mut engine = PlaybackEngine::new(record).with_obs(obs.clone());
        engine.seek(ts(2_500)).unwrap();
        engine.seek(ts(2_900)).unwrap();
        assert_eq!(obs.counter(names::RECORD_SEEK_KEYFRAME_LOADS), 1);
        assert_eq!(obs.counter(names::RECORD_SEEK_RESUMED), 1);
        // Columns never overlap, so nothing is pruned: 2.1..=2.5 s after
        // the 2 s keyframe, then 2.6..=2.9 s.
        assert_eq!(obs.counter(names::RECORD_SEEK_COMMANDS_SCANNED), 9);
        assert_eq!(obs.counter(names::RECORD_SEEK_COMMANDS_APPLIED), 9);
    }
}
