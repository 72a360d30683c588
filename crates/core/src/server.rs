//! The DejaView server.
//!
//! Owns and coordinates every component of §3's architecture for one
//! user desktop: the virtual display driver (with the display recorder
//! attached), the accessibility bus with the text-capture daemon feeding
//! the index, the virtual execution environment over a snapshotting file
//! system, the checkpoint engine driven by the display-activity policy,
//! and the revive path producing concurrently running
//! [`RevivedSession`]s.

use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use dv_access::{CaptureDaemon, Desktop};
use dv_checkpoint::{
    revive, CheckpointPolicy, CheckpointReport, Checkpointer, Decision, NetworkPolicy, PolicyInput,
};
use dv_display::{InputEvent, Screenshot, Viewer, VirtualDisplayDriver};
use dv_fault::FaultPlane;
use dv_index::{parse_query, RankOrder, SearchHit, TextIndex};
use dv_lsfs::{BlobStore, Lsfs, ReadOnlyFs, SegmentError, SharedBlobStore, SharedFs, UnionFs};
use dv_obs::{names, Obs, ObsSnapshot};
use dv_record::{DisplayRecord, DisplayRecorder, LruCache, PlaybackEngine};
use dv_tidx::{TidxConfig, TidxEngine};
use dv_time::{Duration, SimClock, Timestamp};
use dv_vee::{HostPidAllocator, Vee, Vpid};
use dv_vidx::{VidxConfig, VidxEngine, VisualHit};

use crate::config::Config;
use crate::error::ServerError;
use crate::session::RevivedSession;
use crate::sink::IndexSink;
use crate::stats::{PipelineBreakdown, StorageBreakdown};

/// One search result: a hit plus the screenshot portal the user clicks
/// through, and — for substream results — the last screenshot of the
/// matching period (§4.4's first-last pair).
pub struct SearchResult {
    /// The underlying index hit.
    pub hit: SearchHit,
    /// The desktop as it looked when the query became satisfied.
    pub screenshot: Screenshot,
    /// For results spanning a contiguous period, the desktop at the end
    /// of the period.
    pub last_screenshot: Option<Screenshot>,
}

/// The outcome of one policy tick.
pub struct PolicyTick {
    /// What the policy decided.
    pub decision: Decision,
    /// The checkpoint report, when one was taken.
    pub report: Option<CheckpointReport>,
}

/// A DejaView server instance.
pub struct DejaView {
    clock: SimClock,
    /// The accessibility bus; workloads register applications here.
    desktop: Desktop,
    driver: VirtualDisplayDriver,
    recorder: Arc<Mutex<DisplayRecorder>>,
    record: DisplayRecord,
    index: Arc<Mutex<TextIndex>>,
    /// The sharded temporal index over `index` (None when text
    /// capture is off).
    tidx: Option<Arc<TidxEngine>>,
    /// Thumbnail-keyed visual recall over the keyframe stream (None
    /// when disabled or when display recording is off).
    vidx: Option<Arc<VidxEngine>>,
    /// The main session's virtual execution environment.
    vee: Vee,
    session_fs: SharedFs<Lsfs>,
    engine: Checkpointer,
    policy: CheckpointPolicy,
    store: SharedBlobStore,
    host_pids: HostPidAllocator,
    instance_counter: std::sync::Arc<std::sync::atomic::AtomicU64>,
    playback: PlaybackEngine,
    search_cache: LruCache<u64, Screenshot>,
    revived: std::collections::BTreeMap<u64, RevivedSession>,
    next_session_id: u64,
    revive_network: NetworkPolicy,
    engine_config: dv_checkpoint::EngineConfig,
    width: u32,
    height: u32,
    clipboard: String,
    // Signals sampled by the next policy tick.
    pending_user_input: bool,
    pending_keyboard_input: bool,
    fullscreen_active: bool,
    system_load: f64,
    substream_threshold: Duration,
    fault_plane: FaultPlane,
    io_retry_limit: u32,
    io_retry_backoff: Duration,
    obs: Obs,
}

impl DejaView {
    /// Creates a server with its own session clock.
    pub fn new(config: Config) -> Self {
        DejaView::with_clock(config, SimClock::new())
    }

    /// Creates a server over an existing session clock (shared with the
    /// workload driver).
    pub fn with_clock(config: Config, clock: SimClock) -> Self {
        let Config {
            width,
            height,
            recorder,
            engine,
            policy,
            revive_network,
            search_cache,
            store_latency,
            enable_display_recording,
            enable_text_capture,
            index_shard_window,
            enable_visual_index,
            fault_plane,
            obs,
            shared_store,
            blob_prefix,
            io_retry_limit,
            io_retry_backoff,
        } = config;
        // The server always records observability: a disabled config
        // handle is upgraded to a session-time one so
        // `DejaView::observability` and the registry-derived breakdowns
        // work out of the box. A caller-supplied enabled handle (e.g.
        // `Obs::wall` for profiling) is used as-is.
        let obs = if obs.is_enabled() {
            obs
        } else {
            Obs::new(clock.shared())
        };
        let mut driver = VirtualDisplayDriver::new(width, height, clock.shared());
        driver.set_obs(obs.clone());
        let recorder = Arc::new(Mutex::new(DisplayRecorder::new(width, height, recorder)));
        recorder.lock().set_fault_plane(fault_plane.clone());
        recorder.lock().set_obs(obs.clone());
        let record = recorder.lock().record();
        if enable_display_recording {
            driver.attach_sink(recorder.clone());
        }

        let index = Arc::new(Mutex::new(TextIndex::new()));
        index.lock().set_obs(obs.clone());
        let instance_counter = Arc::new(std::sync::atomic::AtomicU64::new(1));
        let mut desktop = Desktop::new();
        if enable_text_capture {
            let mut sink = IndexSink::new(index.clone());
            sink.set_obs(obs.clone());
            let mut daemon = CaptureDaemon::with_instance_counter(
                clock.shared(),
                sink,
                instance_counter.clone(),
            );
            daemon.set_obs(obs.clone());
            desktop.register_listener(Arc::new(Mutex::new(daemon)));
        }

        let session_fs = SharedFs::new(Lsfs::new());
        session_fs.with(|fs| {
            fs.set_fault_plane(fault_plane.clone());
            fs.set_obs(obs.clone());
        });
        let host_pids = HostPidAllocator::new();
        let mut vee = Vee::new(
            0,
            clock.shared(),
            Box::new(session_fs.clone()),
            host_pids.clone(),
        );
        // The session always has an init process anchoring the forest
        // (the display server runs inside the environment, §3).
        vee.spawn(None, "session-init").expect("empty namespace");

        // A host-provided shared store keeps its own fault plane and
        // obs wiring (it serves many tenants); a private store is wired
        // to this session's.
        let store = match shared_store {
            Some(store) => store,
            None => {
                let store = match store_latency {
                    Some(latency) => SharedBlobStore::with_latency(latency),
                    None => SharedBlobStore::in_memory(),
                };
                store.with(|s| {
                    s.set_fault_plane(fault_plane.clone());
                    s.set_obs(obs.clone());
                });
                store
            }
        };
        let mut checkpointer = Checkpointer::with_sim_clock(engine, clock.clone());
        if let Some(prefix) = &blob_prefix {
            checkpointer = checkpointer.with_blob_prefix(prefix);
        }
        checkpointer.set_fault_plane(fault_plane.clone());
        checkpointer.set_obs(obs.clone());
        // The plane is shared state: injections anywhere in the stack
        // surface as traced events no matter which component installed
        // its handle last.
        fault_plane.set_obs(obs.clone());
        // Sealed index segments land in the checkpoint store, under the
        // tenant's namespace when a host assigned one.
        let segment_prefix = blob_prefix
            .as_ref()
            .map_or(String::new(), |prefix| format!("{prefix}."));
        // The sharded index shares the open index with the capture
        // sink.
        let tidx = enable_text_capture.then(|| {
            Arc::new(TidxEngine::new(
                index.clone(),
                store.clone(),
                fault_plane.clone(),
                obs.clone(),
                TidxConfig {
                    window: index_shard_window,
                    blob_prefix: segment_prefix.clone(),
                },
            ))
        });
        // Visual recall hangs off the recorder's keyframe hook: every
        // *persisted* keyframe (suppressed duplicates never fire it)
        // is thumbnailed and fingerprinted into the strip.
        let vidx = (enable_visual_index && enable_display_recording).then(|| {
            let engine = Arc::new(VidxEngine::new(
                store.clone(),
                fault_plane.clone(),
                obs.clone(),
                VidxConfig {
                    window: index_shard_window,
                    blob_prefix: segment_prefix,
                },
            ));
            let hook = engine.clone();
            recorder
                .lock()
                .set_keyframe_hook(Box::new(move |now, shot| hook.observe(now, shot)));
            engine
        });
        let playback = PlaybackEngine::new(record.clone()).with_obs(obs.clone());
        DejaView {
            clipboard: String::new(),
            engine_config: engine,
            engine: checkpointer,
            policy: CheckpointPolicy::new(policy),
            clock,
            desktop,
            driver,
            recorder,
            record,
            index,
            tidx,
            vidx,
            vee,
            session_fs,
            store,
            host_pids,
            instance_counter,
            playback,
            search_cache: LruCache::new(search_cache),
            revived: std::collections::BTreeMap::new(),
            next_session_id: 1,
            revive_network,
            width,
            height,
            pending_user_input: false,
            pending_keyboard_input: false,
            fullscreen_active: false,
            system_load: 0.0,
            substream_threshold: Duration::from_secs(5),
            fault_plane,
            io_retry_limit,
            io_retry_backoff,
            obs,
        }
    }

    /// Returns the observability handle shared by every recording
    /// stream (display, text, index, checkpoint, lsfs, fault plane).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Snapshots the unified observability state: every counter, gauge
    /// and latency histogram in the registry plus the trace-event ring.
    /// This replaces the ad-hoc per-component counters; the
    /// [`DejaView::storage`] and [`DejaView::pipeline_stats`] breakdowns
    /// are derived from the same registry.
    pub fn observability(&self) -> ObsSnapshot {
        self.obs.snapshot()
    }

    /// Returns the session clock.
    pub fn clock(&self) -> SimClock {
        self.clock.clone()
    }

    /// Returns the current session time.
    pub fn now(&self) -> Timestamp {
        use dv_time::Clock;
        self.clock.now()
    }

    /// Returns the accessibility bus (workloads register and mutate
    /// their applications through it).
    pub fn desktop_mut(&mut self) -> &mut Desktop {
        &mut self.desktop
    }

    /// Returns the virtual display driver (workloads draw through it).
    pub fn driver_mut(&mut self) -> &mut VirtualDisplayDriver {
        &mut self.driver
    }

    /// Returns the virtual display driver, read-only (remote-access
    /// service snapshots and fingerprints).
    pub fn driver(&self) -> &VirtualDisplayDriver {
        &self.driver
    }

    /// Content hash of the live screen — the fingerprint a correctly
    /// synchronized remote viewer must reproduce byte-for-byte.
    pub fn screen_fingerprint(&self) -> u64 {
        self.driver.snapshot().content_hash()
    }

    /// Returns the main session's execution environment.
    pub fn vee_mut(&mut self) -> &mut Vee {
        &mut self.vee
    }

    /// Returns the main session's execution environment, read-only.
    pub fn vee(&self) -> &Vee {
        &self.vee
    }

    /// Returns the main session's init process.
    pub fn init_vpid(&self) -> Vpid {
        Vpid(1)
    }

    /// Returns the shared display record.
    pub fn record(&self) -> DisplayRecord {
        self.record.clone()
    }

    /// Returns the shared text index.
    pub fn index(&self) -> Arc<Mutex<TextIndex>> {
        self.index.clone()
    }

    /// Returns the checkpoint store, locked (Figure 7's cached/uncached
    /// axis is driven by [`BlobStore::drop_caches`]). The commit
    /// pipeline holds the same store; keep the guard short.
    pub fn store_mut(&mut self) -> MutexGuard<'_, BlobStore> {
        self.store.lock()
    }

    /// Returns a cloneable handle to the checkpoint store shared with
    /// the commit pipeline.
    pub fn store_handle(&self) -> SharedBlobStore {
        self.store.clone()
    }

    /// Drains the main engine's lane of the commit pipeline, blocking
    /// until every captured image has committed (or failed). The first
    /// commit failure since the last flush that no checkpoint call
    /// already returned is surfaced here and counted as one
    /// degradation event.
    pub fn flush_checkpoints(&mut self) -> Result<(), ServerError> {
        self.engine.flush().map_err(|e| {
            self.obs.incr(names::SERVER_DEGRADED_EVENTS);
            ServerError::from(e)
        })
    }

    /// Returns the checkpoint engine.
    pub fn engine(&self) -> &Checkpointer {
        &self.engine
    }

    /// Returns the checkpoint engine mutably (archive restore).
    pub fn engine_mut(&mut self) -> &mut Checkpointer {
        &mut self.engine
    }

    /// Returns the live screen size.
    pub fn screen_size(&self) -> (u32, u32) {
        (self.width, self.height)
    }

    /// Returns the typed handle to the session file system.
    pub fn session_fs_handle(&self) -> SharedFs<Lsfs> {
        self.session_fs.clone()
    }

    /// Replaces the display record's contents (archive restore); the
    /// recorder continues appending to it and playback state resets.
    /// The `display.*` byte counters resynchronize to the restored
    /// store so the registry-derived [`DejaView::storage`] stays exact.
    pub fn install_record(&mut self, store: dv_record::RecordStore) {
        *self.record.write() = store;
        self.playback = self.playback();
        self.search_cache.clear();
        let stats = self.recorder.lock().stats();
        self.obs
            .set_counter(names::DISPLAY_COMMAND_BYTES, stats.command_bytes);
        self.obs
            .set_counter(names::DISPLAY_SCREENSHOT_BYTES, stats.screenshot_bytes);
        self.obs
            .set_counter(names::DISPLAY_TIMELINE_BYTES, stats.timeline_bytes);
    }

    /// Replaces the text index's contents (archive restore) and bumps
    /// the capture daemon's instance counter past the archived ids. The
    /// restored index inherits the server's observability handle and
    /// the `index.bytes` counter resynchronizes to its footprint.
    pub fn install_index(&mut self, index: TextIndex) {
        let next = index.max_instance_id() + 1;
        self.instance_counter
            .store(next, std::sync::atomic::Ordering::Relaxed);
        let bytes = index.stats().bytes;
        let mut slot = self.index.lock();
        *slot = index;
        slot.set_obs(self.obs.clone());
        drop(slot);
        self.obs.set_counter(names::INDEX_BYTES, bytes);
    }

    /// Replaces the session file system's contents (archive restore);
    /// the VEE's shared handle observes the restored state. The restored
    /// file system inherits the server's observability handle and the
    /// `lsfs.*` accounting resynchronizes to its recovered state.
    pub fn install_session_fs(&mut self, fs: Lsfs) {
        self.session_fs.with(|inner| *inner = fs);
        let obs = self.obs.clone();
        let stats = self.session_fs.with(|fs| {
            fs.set_obs(obs);
            fs.stats()
        });
        self.obs
            .set_counter(names::LSFS_DATA_BYTES, stats.data_bytes);
        self.obs
            .set_counter(names::LSFS_JOURNAL_BYTES, stats.journal_bytes);
        self.obs.gauge_set(names::LSFS_SNAPSHOTS, stats.snapshots);
    }

    /// The shared clipboard: "the user can copy and paste content
    /// amongst her active sessions" (§2) — the live desktop and any
    /// revived session read and write the same clipboard.
    pub fn clipboard(&self) -> &str {
        &self.clipboard
    }

    /// Places text on the shared clipboard.
    pub fn set_clipboard(&mut self, text: &str) {
        self.clipboard = text.to_string();
    }

    /// Compacts the session file system's log, reclaiming space from
    /// overwritten data and dropped snapshots.
    ///
    /// # Errors
    ///
    /// Fails with a `Busy` file system error while revived sessions
    /// exist — their union mounts hold snapshot views into the log.
    pub fn compact_storage(&mut self) -> Result<u64, ServerError> {
        let reclaimed = self.session_fs.with(|fs| fs.compact())?;
        Ok(reclaimed)
    }

    /// Drops the file system snapshot for checkpoints older than
    /// `keep_from` (a retention policy), returning how many were
    /// dropped. Dropped checkpoints can no longer be revived with a
    /// consistent file system view.
    pub fn retire_snapshots_before(&mut self, keep_from: u64) -> usize {
        let counters: Vec<u64> = self
            .session_fs
            .with(|fs| fs.snapshot_counters())
            .into_iter()
            .filter(|c| *c < keep_from)
            .collect();
        let mut dropped = 0;
        for counter in counters {
            if self.session_fs.with(|fs| fs.drop_snapshot(counter)) {
                dropped += 1;
            }
        }
        dropped
    }

    /// Forwards one user input event from the viewer (§2). Input is not
    /// recorded — it only informs the checkpoint policy — except the
    /// annotation key combination (Ctrl+Alt+A), which tags the current
    /// text selection as an annotation (§4.4).
    pub fn input(&mut self, event: InputEvent) {
        self.pending_user_input = true;
        if event.is_keyboard() {
            self.pending_keyboard_input = true;
        }
        if let InputEvent::Key {
            ch: 'a',
            ctrl: true,
            alt: true,
        } = event
        {
            self.desktop.annotate_current_selection();
        }
    }

    /// Marks whether a full-screen application (video, screensaver) is
    /// active, a policy input (§5.1.3).
    pub fn set_fullscreen(&mut self, active: bool) {
        self.fullscreen_active = active;
    }

    /// Sets the system load seen by custom policy rules.
    pub fn set_system_load(&mut self, load: f64) {
        self.system_load = load;
    }

    /// Runs `op` under the storage retry policy: each failure counts as
    /// one degradation event; up to `io_retry_limit` failures are
    /// retried — counted under `retries`, traced as `label` — after an
    /// exponential backoff on the session clock, and the error is
    /// returned only once that budget is exhausted.
    fn with_retry<T, E: std::fmt::Debug>(
        &mut self,
        label: &str,
        retries: &'static str,
        mut op: impl FnMut(&mut Self) -> Result<T, E>,
    ) -> Result<T, E> {
        let mut backoff = self.io_retry_backoff;
        let mut attempt = 0u32;
        loop {
            let e = match op(self) {
                Ok(done) => return Ok(done),
                Err(e) => e,
            };
            self.obs.incr(names::SERVER_DEGRADED_EVENTS);
            if attempt >= self.io_retry_limit {
                return Err(e);
            }
            attempt += 1;
            self.obs.incr(retries);
            self.obs.event(
                "server",
                names::EV_SERVER_RETRY,
                format!("{label} attempt={attempt} error={e:?}"),
            );
            self.clock.advance(backoff);
            backoff = Duration::from_nanos(backoff.as_nanos().saturating_mul(2));
        }
    }

    /// Takes a checkpoint, retrying what the engine could not absorb: a
    /// failed snapshot point, or a commit that resolved within the call
    /// and failed (its own store-write retries exhausted, or cascaded).
    fn checkpoint_with_retry(&mut self) -> Result<CheckpointReport, ServerError> {
        let report = self.with_retry("checkpoint", names::SERVER_CHECKPOINT_RETRIES, |dv| {
            dv.engine.checkpoint(&mut dv.vee, &dv.store)
        })?;
        self.seal_indexes(report.counter);
        Ok(report)
    }

    /// Seals the open index shard and the open visual strip at a
    /// just-durable checkpoint when their window has elapsed. A failed
    /// seal degrades (the open buffer stays authoritative and the seal
    /// retries at the next checkpoint) but never fails the checkpoint
    /// itself.
    fn seal_indexes(&mut self, counter: u64) {
        let now = self.now();
        self.index.lock().advance_horizon(now);
        let sealed = [
            ("index", self.tidx.as_ref().map(|e| e.maybe_seal(counter))),
            ("visual", self.vidx.as_ref().map(|e| e.maybe_seal(counter))),
        ];
        for (what, outcome) in sealed {
            if let Some(Err(e)) = outcome {
                self.obs.incr(names::SERVER_DEGRADED_EVENTS);
                self.obs.event(
                    "server",
                    names::EV_SERVER_RETRY,
                    format!("{what}-seal ckpt={counter} error={e:?}"),
                );
            }
        }
    }

    /// Flushes the text index as a storable segment under the same
    /// retry policy as checkpoints. Corrupt flushes succeed here (silent
    /// corruption) and are caught by `decode_index` on reload.
    pub(crate) fn flush_index_with_retry(&mut self) -> Result<Vec<u8>, ServerError> {
        self.with_retry("index-flush", names::SERVER_INDEX_FLUSH_RETRIES, |dv| {
            let now = dv.now();
            let mut index = dv.index.lock();
            index.advance_horizon(now);
            dv_index::flush_segment(&index, &dv.fault_plane)
        })
        .map_err(|e| SegmentError::Failed(e.to_string()).into())
    }

    /// Takes a checkpoint unconditionally (with the storage retry
    /// policy).
    pub fn checkpoint_now(&mut self) -> Result<CheckpointReport, ServerError> {
        self.checkpoint_with_retry()
    }

    /// Counts storage failures the server absorbed without stopping the
    /// session: failed checkpoint attempts and failed index flushes
    /// (each retry that failed counts once). Read from the
    /// observability registry's `server.degraded_events` counter.
    pub fn degraded_events(&self) -> u64 {
        self.obs.counter(names::SERVER_DEGRADED_EVENTS)
    }

    /// Runs one checkpoint-policy evaluation (the server calls this
    /// roughly once per second). Samples display damage and input since
    /// the last tick.
    pub fn policy_tick(&mut self) -> Result<PolicyTick, ServerError> {
        let now = self.now();
        self.index.lock().advance_horizon(now);
        let damage = self.driver.take_damage();
        let input = PolicyInput {
            now,
            display_fraction: damage.coverage_of(self.width, self.height),
            user_input: self.pending_user_input,
            keyboard_input: self.pending_keyboard_input,
            fullscreen_active: self.fullscreen_active,
            system_load: self.system_load,
        };
        self.pending_user_input = false;
        self.pending_keyboard_input = false;
        let decision = self.policy.evaluate(&input);
        let report = match decision {
            // A checkpoint that still fails after retries degrades the
            // record (this moment is not revivable) but never stops
            // recording: the tick reports no checkpoint and the failure
            // is visible in `degraded_events` / engine `write_failures`.
            Decision::Checkpoint => self.checkpoint_with_retry().ok(),
            Decision::Skip(_) => None,
        };
        Ok(PolicyTick { decision, report })
    }

    /// Returns policy decision counters.
    pub fn policy_stats(&self) -> dv_checkpoint::PolicyStats {
        self.policy.stats()
    }

    /// Flushes pending display state and takes a keyframe (used during
    /// idle periods).
    pub fn force_keyframe(&mut self) {
        let now = self.now();
        self.recorder.lock().force_keyframe(now);
    }

    /// Creates a playback engine over the display record (PVR controls,
    /// §4.3).
    pub fn playback(&self) -> PlaybackEngine {
        PlaybackEngine::new(self.record.clone()).with_obs(self.obs.clone())
    }

    /// Reconstructs the screen at time `t` (the browse slider).
    pub fn browse(&mut self, t: Timestamp) -> Result<Screenshot, ServerError> {
        self.playback.seek(t)?;
        Ok(self.playback.screenshot())
    }

    /// Reconstructs the screen at time `t` resized for a smaller access
    /// device — §4.1's example of viewing a full-resolution record "to
    /// fit the screen of a PDA".
    pub fn browse_at_scale(
        &mut self,
        t: Timestamp,
        scale: dv_display::ScaleFactor,
    ) -> Result<Screenshot, ServerError> {
        let shot = self.browse(t)?;
        Ok(dv_display::scale_screenshot(&shot, scale))
    }

    /// Searches the record (§4.4): parses the query, finds satisfied
    /// intervals, and reconstructs a screenshot portal per hit —
    /// offscreen, in time order so neighbouring portals continue from
    /// each other, through the LRU screenshot cache — returned in rank
    /// order.
    pub fn search(
        &mut self,
        query: &str,
        order: RankOrder,
    ) -> Result<Vec<SearchResult>, ServerError> {
        let query = parse_query(query)?;
        self.search_query(&query, order)
    }

    /// Searches with a programmatically built [`dv_index::Query`], for
    /// shapes the string syntax cannot express (e.g. different `app:`
    /// constraints on different terms of one conjunction).
    pub fn search_query(
        &mut self,
        query: &dv_index::Query,
        order: RankOrder,
    ) -> Result<Vec<SearchResult>, ServerError> {
        let hits = self.search_hits(query, order)?;
        // Long matching periods come back as substreams with a
        // first-last screenshot pair.
        let threshold = self.substream_threshold;
        let last_of = |hit: &SearchHit| (hit.persistence >= threshold).then_some(hit.until);
        // Reconstruct every portal in time order, whatever the rank
        // order: neighbours inside a keyframe interval then continue
        // from each other instead of each replaying it from the start.
        let mut times: Vec<Timestamp> = hits
            .iter()
            .flat_map(|hit| std::iter::once(hit.time).chain(last_of(hit)))
            .collect();
        times.sort_unstable();
        times.dedup();
        let portals = times
            .iter()
            .map(|&t| self.screenshot_at(t))
            .collect::<Result<Vec<_>, _>>()?;
        let portal = |t: Timestamp| {
            let at = times
                .binary_search(&t)
                .expect("every portal time was gathered");
            portals[at].clone()
        };
        Ok(hits
            .into_iter()
            .map(|hit| SearchResult {
                screenshot: portal(hit.time),
                last_screenshot: last_of(&hit).map(portal),
                hit,
            })
            .collect())
    }

    /// Searches the record returning raw ranked hits without
    /// reconstructing screenshot portals — the cheap path a
    /// multi-tenant host uses for cross-session queries. Fans out
    /// across the open shard and the overlapping sealed segments.
    pub fn search_hits(
        &mut self,
        query: &dv_index::Query,
        order: RankOrder,
    ) -> Result<Vec<SearchHit>, ServerError> {
        let now = self.now();
        self.index.lock().advance_horizon(now);
        Ok(Self::enabled(&self.tidx, "text")?.search(query, order)?)
    }

    /// Returns the sharded temporal index engine, when enabled.
    pub fn tidx(&self) -> Option<Arc<TidxEngine>> {
        self.tidx.clone()
    }

    /// Returns the visual-recall engine, when enabled.
    pub fn vidx(&self) -> Option<Arc<VidxEngine>> {
        self.vidx.clone()
    }

    /// The engine behind an index switch, or the typed "disabled".
    fn enabled<'a, T>(engine: &'a Option<Arc<T>>, what: &str) -> Result<&'a T, ServerError> {
        let disabled = || SegmentError::Failed(format!("{what} index disabled")).into();
        engine.as_deref().ok_or_else(disabled)
    }

    /// Visual recall (§4.4's search portal, keyed by appearance): the
    /// `k` visual instances nearest to a query screenshot, across
    /// every sealed strip segment plus the open strip. Results match
    /// a linear scan exactly (the dv-vidx pigeonhole rule) while
    /// probing sub-linearly.
    pub fn visual_hits(&self, probe: &Screenshot, k: usize) -> Result<Vec<VisualHit>, ServerError> {
        Ok(Self::enabled(&self.vidx, "visual")?.query(probe, k)?)
    }

    /// Visual recall as of checkpoint `counter` — exactly the
    /// instances sealed at or before it, not the open strip. The
    /// WYSIWYS guarantee for a revived session's visual view. A
    /// counter below the retention floor reports
    /// [`SegmentError::OutOfRetention`].
    pub fn visual_at_checkpoint(
        &self,
        counter: u64,
        probe: &Screenshot,
        k: usize,
    ) -> Result<Vec<VisualHit>, ServerError> {
        Ok(Self::enabled(&self.vidx, "visual")?.query_at(counter, probe, k)?)
    }

    /// Visual recall keyed by a past moment instead of a supplied
    /// image: "find when the screen looked like it did at `t`".
    pub fn visual_hits_at_time(
        &mut self,
        t: Timestamp,
        k: usize,
    ) -> Result<Vec<VisualHit>, ServerError> {
        let probe = self.screenshot_at(t)?;
        self.visual_hits(&probe, k)
    }

    /// Pivots a visual hit into playback: the timeline keyframe
    /// anchoring the hit's interval plus the reconstructed full-
    /// resolution screen, so the UI can drop straight from a
    /// thumbnail onto the PVR slider.
    pub fn visual_pivot(
        &mut self,
        hit: &VisualHit,
    ) -> Result<(dv_record::TimelineEntry, Screenshot), ServerError> {
        let entry = {
            let store = self.record.read();
            store.timeline.entry_at_or_before(hit.last).copied()
        }
        .ok_or(ServerError::NoCheckpoint)?;
        let screenshot = self.screenshot_at(hit.last)?;
        Ok((entry, screenshot))
    }

    /// Pivots a visual hit into a revive: "Take me back" to when the
    /// screen last looked like this.
    pub fn visual_revive(&mut self, hit: &VisualHit) -> Result<u64, ServerError> {
        let last = hit.last;
        self.take_me_back(last)
    }

    /// Searches the shard layout as of checkpoint `counter` — exactly
    /// the segments sealed at or before it, not the open shard. This
    /// is the WYSIWYS guarantee a revived session gets: its index view
    /// is snapshot-consistent with its file system and memory. A
    /// counter below the retention floor reports
    /// [`SegmentError::OutOfRetention`].
    pub fn search_at_checkpoint(
        &self,
        counter: u64,
        query: &str,
        order: RankOrder,
    ) -> Result<Vec<SearchHit>, ServerError> {
        let query = parse_query(query)?;
        Ok(Self::enabled(&self.tidx, "text")?.search_at(counter, &query, order)?)
    }

    /// Rebuilds both sealed-segment layouts from the manifests in the
    /// checkpoint store, and the open visual strip from its archive
    /// section (archive restore; the open text shard arrives through
    /// [`DejaView::install_index`]). The capture daemon's instance
    /// counter is bumped past every sealed instance so new ones can
    /// never collide.
    pub(crate) fn recover_indexes(&mut self, open_strip: &[u8]) -> Result<(), ServerError> {
        if let Some(tidx) = &self.tidx {
            tidx.recover_latest()?;
            self.instance_counter.fetch_max(
                tidx.stats().next_instance,
                std::sync::atomic::Ordering::Relaxed,
            );
        }
        if let Some(vidx) = &self.vidx {
            vidx.recover_latest()?;
            if !open_strip.is_empty() {
                vidx.restore_open(open_strip)?;
            }
        }
        Ok(())
    }

    fn screenshot_at(&mut self, t: Timestamp) -> Result<Screenshot, ServerError> {
        // Clamp to the recorded span: an interval may begin before the
        // first display command (text captured before any paint) or end
        // at the open horizon, past the last one.
        let t = {
            let store = self.record.read();
            let t = match store.start {
                Some(start) => t.max(start),
                None => t,
            };
            t.min(store.end)
        };
        if self.search_cache.get(&t.as_nanos()).is_none() {
            self.playback.seek(t)?;
            let shot = self.playback.screenshot();
            self.search_cache.put(t.as_nanos(), shot);
        }
        Ok(self
            .search_cache
            .get(&t.as_nanos())
            .expect("just inserted")
            .clone())
    }

    /// Revives the desktop as it was at time `t` — the "Take me back"
    /// button (§2, §5.2). Returns the new session id.
    pub fn take_me_back(&mut self, t: Timestamp) -> Result<u64, ServerError> {
        // Deferred commits may still be in flight; the revivable set is
        // only complete once the pipeline drains.
        self.flush_checkpoints()?;
        let counter = self
            .engine
            .counter_at_or_before(t)
            .ok_or(ServerError::NoCheckpoint)?;
        self.revive_counter(counter)
    }

    /// Revives directly from a checkpoint counter of the main session.
    pub fn revive_counter(&mut self, counter: u64) -> Result<u64, ServerError> {
        self.flush_checkpoints()?;
        let chain = self
            .engine
            .chain_for(counter)
            .ok_or(ServerError::NoCheckpoint)?;
        let meta = self
            .engine
            .image_meta(counter)
            .ok_or(ServerError::NoCheckpoint)?;
        let revived_from = meta.time;
        let blob_prefix = self.engine.blob_prefix().to_string();
        // Branchable view: fresh writable layer over the read-only
        // snapshot tied to this counter.
        let snap = self.session_fs.with(|fs| fs.snapshot(counter))?;
        let lower: Box<dyn ReadOnlyFs> = Box::new(snap);
        self.spawn_session(&blob_prefix, &chain, counter, revived_from, lower)
    }

    /// Checkpoints a *revived* session with its own engine; the image
    /// chain and the branch file system snapshots share the server's
    /// store under the session's blob prefix (§5.2).
    pub fn checkpoint_session(&mut self, id: u64) -> Result<CheckpointReport, ServerError> {
        let session = self
            .revived
            .get_mut(&id)
            .ok_or(ServerError::UnknownSession(id))?;
        let report = session.engine.checkpoint(&mut session.vee, &self.store)?;
        Ok(report)
    }

    /// Revives a new session from a checkpoint of a *revived* session —
    /// a branch of a branch. The new session's read-only view stacks the
    /// parent's view under a frozen snapshot of the parent's writable
    /// layer.
    pub fn revive_from_session(
        &mut self,
        parent_id: u64,
        counter: u64,
    ) -> Result<u64, ServerError> {
        // The parent's own engine may also defer commits.
        self.revived
            .get_mut(&parent_id)
            .ok_or(ServerError::UnknownSession(parent_id))?
            .engine
            .flush()?;
        let (blob_prefix, chain, revived_from, lower) = {
            let parent = self
                .revived
                .get(&parent_id)
                .ok_or(ServerError::UnknownSession(parent_id))?;
            let chain = parent
                .engine
                .chain_for(counter)
                .ok_or(ServerError::NoCheckpoint)?;
            let meta = parent
                .engine
                .image_meta(counter)
                .ok_or(ServerError::NoCheckpoint)?;
            let upper_snap = parent.fs.with(|u| u.upper().snapshot(counter))?;
            let lower: Box<dyn ReadOnlyFs> =
                Box::new(UnionFs::new(parent.lower.clone_ro(), upper_snap));
            (
                parent.engine.blob_prefix().to_string(),
                chain,
                meta.time,
                lower,
            )
        };
        self.spawn_session(&blob_prefix, &chain, counter, revived_from, lower)
    }

    fn spawn_session(
        &mut self,
        blob_prefix: &str,
        chain: &[u64],
        counter: u64,
        revived_from: Timestamp,
        lower: Box<dyn ReadOnlyFs>,
    ) -> Result<u64, ServerError> {
        let branch = SharedFs::new(UnionFs::new(lower.clone_ro(), Lsfs::new()));
        let id = self.next_session_id;
        self.next_session_id += 1;
        let (vee, report) = revive(
            &mut self.store.lock(),
            blob_prefix,
            chain,
            id,
            self.clock.shared(),
            Box::new(branch.clone()),
            self.host_pids.clone(),
            &self.revive_network,
        )?;
        // The new viewer window opens showing the display as recorded at
        // the checkpoint.
        let mut viewer = Viewer::new(self.width, self.height);
        if let Ok(shot) = self.screenshot_at(revived_from) {
            viewer.present(&shot);
        }
        // The session's own engine writes under a distinct blob prefix,
        // nested under the server's own prefix when a host namespaced
        // it (so revived sessions of different tenants sharing one
        // store cannot collide either).
        let revived_prefix = if self.engine.blob_prefix() == "ckpt" {
            format!("s{id}")
        } else {
            format!("{}.s{id}", self.engine.blob_prefix())
        };
        let mut engine = Checkpointer::with_sim_clock(self.engine_config, self.clock.clone())
            .with_blob_prefix(&revived_prefix);
        engine.set_fault_plane(self.fault_plane.clone());
        // One pool per server, however many sessions it revives: the
        // session's engine takes a lane on the main engine's pipeline.
        engine.attach_pipeline(self.engine.pipeline(&self.store), 1);
        self.revived.insert(
            id,
            RevivedSession {
                id,
                counter,
                revived_from,
                vee,
                fs: branch,
                lower,
                viewer,
                report,
                engine,
            },
        );
        Ok(id)
    }

    /// Returns a revived session.
    pub fn session(&self, id: u64) -> Result<&RevivedSession, ServerError> {
        self.revived.get(&id).ok_or(ServerError::UnknownSession(id))
    }

    /// Returns a revived session mutably.
    pub fn session_mut(&mut self, id: u64) -> Result<&mut RevivedSession, ServerError> {
        self.revived
            .get_mut(&id)
            .ok_or(ServerError::UnknownSession(id))
    }

    /// Returns all revived session ids.
    pub fn sessions(&self) -> Vec<u64> {
        self.revived.keys().copied().collect()
    }

    /// Closes a revived session, settling and closing its commit lane.
    pub fn close_session(&mut self, id: u64) -> Result<(), ServerError> {
        let mut session = self
            .revived
            .remove(&id)
            .ok_or(ServerError::UnknownSession(id))?;
        session.engine.detach_pipeline();
        Ok(())
    }

    /// Returns the commit pipeline accounting for the main session's
    /// engine, derived from the observability registry. Only
    /// `inflight` is a live queue-depth query; everything else is the
    /// `checkpoint.*` counters the engine bumps as it works.
    pub fn pipeline_stats(&self) -> PipelineBreakdown {
        PipelineBreakdown {
            queued: self.obs.counter(names::CHECKPOINT_QUEUED),
            committed: self.obs.counter(names::CHECKPOINT_COMMITTED),
            inflight: self.engine.inflight() as u64,
            inline_fallbacks: self.obs.counter(names::CHECKPOINT_INLINE_FALLBACKS),
            sync_downtime: Duration::from_nanos(
                self.obs.counter(names::CHECKPOINT_SYNC_DOWNTIME_NANOS),
            ),
            async_commit: Duration::from_nanos(
                self.obs.counter(names::CHECKPOINT_ASYNC_COMMIT_NANOS),
            ),
        }
    }

    /// Returns the storage breakdown across all four record streams
    /// (Figure 4), derived entirely from the observability registry:
    /// every stream bumps its byte counters at the same points it
    /// mutates its internal accounting, so the registry view is exact.
    pub fn storage(&self) -> StorageBreakdown {
        let c = |name| self.obs.counter(name);
        StorageBreakdown {
            display_bytes: c(names::DISPLAY_COMMAND_BYTES)
                + c(names::DISPLAY_SCREENSHOT_BYTES)
                + c(names::DISPLAY_TIMELINE_BYTES),
            index_bytes: c(names::INDEX_BYTES),
            checkpoint_raw_bytes: c(names::CHECKPOINT_RAW_BYTES),
            checkpoint_stored_bytes: c(names::CHECKPOINT_STORED_BYTES),
            fs_bytes: c(names::LSFS_DATA_BYTES) + c(names::LSFS_JOURNAL_BYTES),
            degraded_events: c(names::SERVER_DEGRADED_EVENTS)
                + c(names::DISPLAY_DROPPED_COMMANDS)
                + c(names::DISPLAY_DROPPED_KEYFRAMES),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv_access::Role;
    use dv_display::Rect;
    use dv_vee::Prot;

    fn server() -> DejaView {
        DejaView::new(Config {
            width: 64,
            height: 64,
            ..Config::default()
        })
    }

    /// Paints, types and checkpoints a tiny session.
    fn populated_server() -> DejaView {
        let mut dv = server();
        let clock = dv.clock();
        let init = dv.init_vpid();
        let editor = dv.vee_mut().spawn(Some(init), "editor").unwrap();
        let addr = dv.vee_mut().mmap(editor, 8192, Prot::ReadWrite).unwrap();
        dv.vee_mut().mem_write(editor, addr, b"buffer v1").unwrap();
        dv.vee_mut().fs.mkdir_all("/home").unwrap();
        dv.vee_mut()
            .fs
            .write_all("/home/doc.txt", b"draft one")
            .unwrap();

        let app = dv.desktop_mut().register_app("editor");
        let root = dv.desktop_mut().root(app).unwrap();
        let win = dv
            .desktop_mut()
            .add_node(app, root, Role::Window, "doc.txt - editor");
        dv.desktop_mut()
            .add_node(app, win, Role::Paragraph, "the quick brown fox");
        dv.desktop_mut().focus(app);

        dv.driver_mut().fill_rect(Rect::new(0, 0, 64, 64), 0x202020);
        dv.driver_mut()
            .draw_text(4, 4, "the quick brown fox", 0xFFFFFF, 0);
        clock.advance(Duration::from_secs(1));
        dv.policy_tick().unwrap();
        dv
    }

    #[test]
    fn policy_tick_checkpoints_on_display_activity() {
        let mut dv = server();
        dv.driver_mut().fill_rect(Rect::new(0, 0, 64, 64), 1);
        dv.clock().advance(Duration::from_secs(1));
        let tick = dv.policy_tick().unwrap();
        assert_eq!(tick.decision, Decision::Checkpoint);
        assert!(tick.report.is_some());
        // Idle tick: skip.
        dv.clock().advance(Duration::from_secs(1));
        let tick = dv.policy_tick().unwrap();
        assert!(tick.report.is_none());
    }

    #[test]
    fn search_returns_screenshot_portals() {
        let mut dv = populated_server();
        let results = dv.search("quick fox", RankOrder::Chronological).unwrap();
        assert_eq!(results.len(), 1);
        let shot = &results[0].screenshot;
        assert_eq!((shot.width, shot.height), (64, 64));
        // The screenshot shows the painted background, not a blank
        // screen.
        assert!(shot.pixels.contains(&0x202020));
    }

    #[test]
    fn contextual_search_by_app() {
        let mut dv = populated_server();
        assert_eq!(
            dv.search("app:editor fox", RankOrder::Chronological)
                .unwrap()
                .len(),
            1
        );
        assert!(dv
            .search("app:firefox fox", RankOrder::Chronological)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn browse_reconstructs_history() {
        let mut dv = populated_server();
        let clock = dv.clock();
        // Overwrite the screen after the first checkpoint.
        dv.driver_mut().fill_rect(Rect::new(0, 0, 64, 64), 0xFF0000);
        clock.advance(Duration::from_secs(1));
        dv.policy_tick().unwrap();
        // Browse back to 0.5s: the original background (the red fill
        // happened at t=1s).
        let shot = dv.browse(Timestamp::from_millis(500)).unwrap();
        assert!(shot.pixels.contains(&0x202020));
        assert!(!shot.pixels.contains(&0xFF0000));
        // Dragging the slider forward continues from 0.5 s; the seek
        // counters show how much of the scanned work was useful.
        let shot = dv.browse(Timestamp::from_millis(1_500)).unwrap();
        assert!(shot.pixels.contains(&0xFF0000));
        let obs = dv.observability();
        assert_eq!(obs.counter(names::RECORD_SEEK_KEYFRAME_LOADS), 1);
        assert_eq!(obs.counter(names::RECORD_SEEK_RESUMED), 1);
        let scanned = obs.counter(names::RECORD_SEEK_COMMANDS_SCANNED);
        let applied = obs.counter(names::RECORD_SEEK_COMMANDS_APPLIED);
        assert!(0 < applied && applied <= scanned, "{applied} of {scanned}");
    }

    #[test]
    fn browse_scales_for_small_devices() {
        let mut dv = populated_server();
        let full = dv.browse(Timestamp::from_millis(500)).unwrap();
        let pda = dv
            .browse_at_scale(
                Timestamp::from_millis(500),
                dv_display::ScaleFactor::new(1, 4),
            )
            .unwrap();
        assert_eq!((full.width, full.height), (64, 64));
        assert_eq!((pda.width, pda.height), (16, 16));
        // Content survives downsampling (the dark background remains).
        assert!(pda.pixels.contains(&0x202020));
    }

    #[test]
    fn take_me_back_revives_state() {
        let mut dv = populated_server();
        let clock = dv.clock();
        let editor = Vpid(2);
        // Diverge after the checkpoint.
        dv.vee_mut()
            .fs
            .write_all("/home/doc.txt", b"draft two, changed")
            .unwrap();
        clock.advance(Duration::from_secs(5));

        let id = dv.take_me_back(Timestamp::from_secs(2)).unwrap();
        let session = dv.session(id).unwrap();
        assert_eq!(session.counter, 1);
        // Revived file system sees the snapshot.
        assert_eq!(
            session.vee.fs.read_all("/home/doc.txt").unwrap(),
            b"draft one"
        );
        // Revived memory matches checkpoint time.
        let revived_mem = session.vee.mem_read(editor, 0x1000_0000, 9).unwrap();
        assert_eq!(revived_mem, b"buffer v1");
        // The main session is untouched.
        assert_eq!(
            dv.vee().fs.read_all("/home/doc.txt").unwrap(),
            b"draft two, changed"
        );
    }

    #[test]
    fn multiple_concurrent_revives_diverge() {
        let mut dv = populated_server();
        let a = dv.take_me_back(Timestamp::from_secs(1)).unwrap();
        let b = dv.take_me_back(Timestamp::from_secs(1)).unwrap();
        assert_ne!(a, b);
        dv.session_mut(a)
            .unwrap()
            .vee
            .fs
            .write_all("/home/doc.txt", b"branch A")
            .unwrap();
        dv.session_mut(b)
            .unwrap()
            .vee
            .fs
            .write_all("/home/doc.txt", b"branch B wins")
            .unwrap();
        assert_eq!(
            dv.session(a)
                .unwrap()
                .vee
                .fs
                .read_all("/home/doc.txt")
                .unwrap(),
            b"branch A"
        );
        assert_eq!(
            dv.session(b)
                .unwrap()
                .vee
                .fs
                .read_all("/home/doc.txt")
                .unwrap(),
            b"branch B wins"
        );
        assert_eq!(dv.sessions(), vec![a, b]);
        dv.close_session(a).unwrap();
        assert_eq!(dv.sessions(), vec![b]);
    }

    #[test]
    fn revived_sessions_have_network_disabled_by_default() {
        let mut dv = populated_server();
        let id = dv.take_me_back(Timestamp::from_secs(1)).unwrap();
        let session = dv.session_mut(id).unwrap();
        assert!(!session.vee.network_enabled());
        session.set_network_enabled(true);
        assert!(session.vee.network_enabled());
    }

    #[test]
    fn take_me_back_before_any_checkpoint_fails() {
        let mut dv = server();
        assert_eq!(
            dv.take_me_back(Timestamp::from_secs(1)),
            Err(ServerError::NoCheckpoint)
        );
    }

    #[test]
    fn storage_breakdown_covers_all_streams() {
        let mut dv = populated_server();
        dv.vee_mut().fs.sync().unwrap();
        let storage = dv.storage();
        assert!(storage.display_bytes > 0, "display stream recorded");
        assert!(storage.index_bytes > 0, "text indexed");
        assert!(storage.checkpoint_raw_bytes > 0, "checkpoint stored");
        assert!(storage.fs_bytes > 0, "file data logged");
    }

    #[test]
    fn revived_sessions_checkpoint_and_revive_again() {
        let mut dv = populated_server();
        let clock = dv.clock();
        let gen1 = dv.take_me_back(Timestamp::from_secs(1)).unwrap();

        // Generation 1 diverges and is checkpointed with its own engine.
        dv.session_mut(gen1)
            .unwrap()
            .vee
            .fs
            .write_all("/home/doc.txt", b"gen1 edits")
            .unwrap();
        clock.advance(Duration::from_secs(1));
        let report = dv.checkpoint_session(gen1).unwrap();
        assert_eq!(report.counter, 1);

        // Generation 1 keeps working after its checkpoint.
        dv.session_mut(gen1)
            .unwrap()
            .vee
            .fs
            .write_all("/home/doc.txt", b"gen1 post-checkpoint")
            .unwrap();

        // Generation 2 revives from generation 1's checkpoint: it sees
        // gen1's checkpointed state, not its later edits.
        let gen2 = dv.revive_from_session(gen1, report.counter).unwrap();
        assert_eq!(
            dv.session(gen2)
                .unwrap()
                .vee
                .fs
                .read_all("/home/doc.txt")
                .unwrap(),
            b"gen1 edits"
        );
        // All three lineages stay independent.
        dv.session_mut(gen2)
            .unwrap()
            .vee
            .fs
            .write_all("/home/doc.txt", b"gen2 divergence")
            .unwrap();
        assert_eq!(
            dv.session(gen1)
                .unwrap()
                .vee
                .fs
                .read_all("/home/doc.txt")
                .unwrap(),
            b"gen1 post-checkpoint"
        );
        assert_eq!(dv.vee().fs.read_all("/home/doc.txt").unwrap(), b"draft one");
        // Processes and memory carried through both generations.
        let editor = Vpid(2);
        assert_eq!(
            dv.session(gen2)
                .unwrap()
                .vee
                .mem_read(editor, 0x1000_0000, 9)
                .unwrap(),
            b"buffer v1"
        );
    }

    #[test]
    fn third_generation_revive_stacks_layers() {
        let mut dv = populated_server();
        let clock = dv.clock();
        let gen1 = dv.take_me_back(Timestamp::from_secs(1)).unwrap();
        dv.session_mut(gen1)
            .unwrap()
            .vee
            .fs
            .write_all("/layer1", b"from gen1")
            .unwrap();
        clock.advance(Duration::from_secs(1));
        let c1 = dv.checkpoint_session(gen1).unwrap().counter;
        let gen2 = dv.revive_from_session(gen1, c1).unwrap();
        dv.session_mut(gen2)
            .unwrap()
            .vee
            .fs
            .write_all("/layer2", b"from gen2")
            .unwrap();
        clock.advance(Duration::from_secs(1));
        let c2 = dv.checkpoint_session(gen2).unwrap().counter;
        let gen3 = dv.revive_from_session(gen2, c2).unwrap();
        let fs = &dv.session(gen3).unwrap().vee.fs;
        assert_eq!(fs.read_all("/home/doc.txt").unwrap(), b"draft one");
        assert_eq!(fs.read_all("/layer1").unwrap(), b"from gen1");
        assert_eq!(fs.read_all("/layer2").unwrap(), b"from gen2");
    }

    #[test]
    fn annotations_are_searchable() {
        let mut dv = populated_server();
        let app = dv_access::AppId(1);
        let node = dv_access::NodeId(3);
        dv.desktop_mut()
            .annotate_selection(app, node, "important meeting");
        dv.clock().advance(Duration::from_secs(1));
        let results = dv
            .search("annotation:meeting", RankOrder::Chronological)
            .unwrap();
        assert_eq!(results.len(), 1);
    }

    #[test]
    fn clipboard_crosses_sessions() {
        let mut dv = populated_server();
        let sid = dv.take_me_back(Timestamp::from_secs(1)).unwrap();
        // Copy from the revived session's file, paste in the live one.
        let old_text = dv
            .session(sid)
            .unwrap()
            .vee
            .fs
            .read_all("/home/doc.txt")
            .unwrap();
        let old_text = String::from_utf8(old_text).unwrap();
        dv.set_clipboard(&old_text);
        let pasted = dv.clipboard().to_string();
        dv.vee_mut()
            .fs
            .write_all("/home/pasted.txt", pasted.as_bytes())
            .unwrap();
        assert_eq!(
            dv.vee().fs.read_all("/home/pasted.txt").unwrap(),
            b"draft one"
        );
    }

    #[test]
    fn storage_compaction_and_snapshot_retirement() {
        let mut dv = populated_server();
        let clock = dv.clock();
        // Churn the same file across several checkpoints.
        for i in 0..5u8 {
            dv.vee_mut()
                .fs
                .write_all("/home/doc.txt", &vec![i; 32 << 10])
                .unwrap();
            dv.driver_mut().fill_rect(Rect::new(0, 0, 64, 64), i as u32);
            clock.advance(Duration::from_secs(1));
            dv.policy_tick().unwrap();
        }
        // Compaction is blocked while a revived session exists.
        let sid = dv.take_me_back(Timestamp::from_secs(2)).unwrap();
        assert!(matches!(
            dv.compact_storage(),
            Err(ServerError::Fs(dv_lsfs::FsError::Busy))
        ));
        dv.close_session(sid).unwrap();
        // Retire early snapshots, compact, and verify late revive works.
        let dropped = dv.retire_snapshots_before(4);
        assert!(dropped >= 2);
        let reclaimed = dv.compact_storage().unwrap();
        assert!(reclaimed > 0);
        let sid = dv.revive_counter(5).unwrap();
        assert!(dv.session(sid).is_ok());
        // Reviving a retired checkpoint fails on the fs snapshot.
        assert!(dv.revive_counter(1).is_err());
    }

    #[test]
    fn checkpoint_failure_is_retried_and_counted() {
        use dv_fault::{sites, FaultPlan, IoFault};
        let tick_under = |engine: dv_checkpoint::EngineConfig| {
            // The first store write fails.
            let plane = FaultPlan::new(7)
                .fail_nth(sites::CHECKPOINT_WRITEBACK, 1, IoFault::Enospc)
                .build();
            let mut dv = DejaView::new(Config {
                width: 64,
                height: 64,
                fault_plane: plane,
                engine,
                ..Config::default()
            });
            dv.driver_mut().fill_rect(Rect::new(0, 0, 64, 64), 1);
            dv.clock().advance(Duration::from_secs(1));
            let report = dv.policy_tick().unwrap().report;
            (dv, report.expect("a retry recovered the checkpoint"))
        };
        // The commit step's own retry absorbs it — counted and traced,
        // not silent — and the server never sees a failed checkpoint.
        let (dv, report) = tick_under(dv_checkpoint::EngineConfig::default());
        assert_eq!(report.counter, 1);
        let obs = dv.observability();
        assert_eq!(obs.counter(names::CHECKPOINT_COMMIT_RETRIES), 1);
        assert_eq!(obs.events_named(names::EV_COMMIT_RETRY).len(), 1);
        assert_eq!(dv.degraded_events(), 0);
        assert_eq!(dv.engine().stats().write_failures, 0);
        // With no commit retries to spend the commit fails, and the
        // server's retry takes a second, forced-full checkpoint.
        let (dv, report) = tick_under(dv_checkpoint::EngineConfig {
            commit_retry_limit: 0,
            ..dv_checkpoint::EngineConfig::default()
        });
        assert!(report.full && report.counter == 2);
        assert_eq!(dv.degraded_events(), 1);
        assert_eq!(dv.storage().degraded_events, 1);
        assert_eq!(dv.engine().stats().write_failures, 1);
    }

    #[test]
    fn persistent_checkpoint_failure_degrades_without_stopping() {
        use dv_fault::{sites, FaultPlan, IoFault};
        let plane = FaultPlan::new(9)
            .always(sites::CHECKPOINT_WRITEBACK, IoFault::Enospc)
            .build();
        let mut dv = DejaView::new(Config {
            width: 64,
            height: 64,
            fault_plane: plane,
            ..Config::default()
        });
        dv.driver_mut().fill_rect(Rect::new(0, 0, 64, 64), 2);
        dv.clock().advance(Duration::from_secs(1));
        let tick = dv.policy_tick().unwrap();
        assert_eq!(tick.decision, Decision::Checkpoint);
        assert!(tick.report.is_none(), "exhausted retries degrade the tick");
        // Initial attempt plus the full retry budget, all counted —
        // each one a commit that spent its own store-write retries.
        let attempts = 1 + Config::default().io_retry_limit as u64;
        assert_eq!(dv.degraded_events(), attempts);
        assert_eq!(dv.engine().stats().write_failures, attempts);
        assert_eq!(
            dv.observability().counter(names::CHECKPOINT_COMMIT_RETRIES),
            attempts * Config::default().engine.commit_retry_limit as u64
        );
        // Recording and browsing continue past the degraded moment.
        assert!(dv.browse(Timestamp::from_millis(500)).is_ok());
        // An explicit checkpoint propagates the error instead.
        assert!(dv.checkpoint_now().is_err());
    }

    #[test]
    fn revived_sessions_commit_on_the_servers_pool() {
        let mut dv = DejaView::new(Config {
            width: 64,
            height: 64,
            engine: dv_checkpoint::EngineConfig {
                commit_workers: 2,
                compress: true,
                ..dv_checkpoint::EngineConfig::default()
            },
            ..Config::default()
        });
        dv.driver_mut().fill_rect(Rect::new(0, 0, 64, 64), 1);
        dv.clock().advance(Duration::from_secs(1));
        assert!(dv.policy_tick().unwrap().report.is_some());
        let store = dv.store_handle();
        let pool = dv.engine_mut().pipeline(&store);
        assert_eq!((pool.workers(), pool.lanes().len()), (2, 1));

        // One lane per live revived session; still two threads.
        let revived: Vec<u64> = (0..3)
            .map(|_| dv.take_me_back(Timestamp::from_secs(1)).unwrap())
            .collect();
        assert_eq!((pool.workers(), pool.lanes().len()), (2, 4));
        for &id in &revived {
            let engine = &mut dv.session_mut(id).unwrap().engine;
            assert!(Arc::ptr_eq(&engine.pipeline(&store), &pool));
        }
        // A revived session's image takes the same path to the store
        // as the main session's: deferred to the pool, same format.
        assert!(dv.checkpoint_session(revived[0]).unwrap().deferred);
        dv.session_mut(revived[0]).unwrap().engine.flush().unwrap();
        for blob in ["ckpt-00000001", "s1-00000001"] {
            let first = store.lock().get(blob).expect("committed")[0];
            assert_eq!(first, 0x02, "{blob} is the chunked container");
        }
        // Closing a session closes its lane.
        dv.close_session(revived[1]).unwrap();
        assert_eq!(pool.lanes().len(), 3);
        dv.close_session(revived[0]).unwrap();
        dv.close_session(revived[2]).unwrap();
        assert_eq!(pool.lanes().len(), 1);
    }

    #[test]
    fn checkpoints_seal_index_shards_and_search_spans_them() {
        let mut dv = DejaView::new(Config {
            width: 64,
            height: 64,
            index_shard_window: Duration::from_secs(2),
            ..Config::default()
        });
        let clock = dv.clock();
        let app = dv.desktop_mut().register_app("editor");
        let root = dv.desktop_mut().root(app).unwrap();
        let win = dv.desktop_mut().add_node(app, root, Role::Window, "w");
        for i in 0..6u32 {
            dv.desktop_mut()
                .add_node(app, win, Role::Paragraph, &format!("batch{i} marker"));
            dv.driver_mut().fill_rect(Rect::new(0, 0, 64, 64), i);
            clock.advance(Duration::from_secs(1));
            let tick = dv.policy_tick().unwrap();
            assert!(tick.report.is_some(), "round {i} checkpointed");
        }
        let tidx = dv.tidx().expect("sharding on by default");
        assert!(
            tidx.stats().live_segments >= 2,
            "2s window over 6s of checkpoints sealed multiple shards, got {:?}",
            tidx.stats()
        );
        // Live search spans every shard plus the open one.
        for i in 0..6u32 {
            let hits = dv
                .search(&format!("batch{i}"), RankOrder::Chronological)
                .unwrap();
            assert_eq!(hits.len(), 1, "batch{i} findable across shards");
        }
        // Snapshot consistency: at the first sealing checkpoint, later
        // batches do not exist yet.
        let first_sealed = tidx.segments()[0].sealed_at;
        assert!(dv
            .search_at_checkpoint(first_sealed, "batch5", RankOrder::Chronological)
            .unwrap()
            .is_empty());
        assert_eq!(
            dv.search_at_checkpoint(first_sealed, "batch0", RankOrder::Chronological)
                .unwrap()
                .len(),
            1
        );
        // Before anything sealed: no hits at all.
        assert!(dv
            .search_at_checkpoint(first_sealed - 1, "batch0", RankOrder::Chronological)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn key_combo_annotates_selection() {
        let mut dv = populated_server();
        let app = dv_access::AppId(1);
        let node = dv_access::NodeId(3);
        // The user selects text with the mouse, then presses Ctrl+Alt+A.
        dv.desktop_mut().set_selection(app, node, "brown fox");
        dv.input(dv_display::InputEvent::Key {
            ch: 'a',
            ctrl: true,
            alt: true,
        });
        dv.clock().advance(Duration::from_secs(1));
        let results = dv
            .search("annotation:brown", RankOrder::Chronological)
            .unwrap();
        assert_eq!(results.len(), 1);
        // A plain keystroke must not annotate.
        dv.desktop_mut().set_selection(app, node, "quick");
        dv.input(dv_display::InputEvent::Key {
            ch: 'a',
            ctrl: false,
            alt: false,
        });
        dv.clock().advance(Duration::from_secs(1));
        assert!(dv
            .search("annotation:quick", RankOrder::Chronological)
            .unwrap()
            .is_empty());
    }

    /// Paints a visually distinct scene (seeded block pattern over a
    /// dark background — uniform fills all share the zero gradient
    /// fingerprint, so scenes need structure).
    fn paint_scene(dv: &mut DejaView, seed: u32) {
        dv.driver_mut().fill_rect(Rect::new(0, 0, 64, 64), 0x101010);
        for i in 0..8u32 {
            let x = seed.wrapping_mul(31).wrapping_add(i * 13) % 48;
            let y = seed.wrapping_mul(17).wrapping_add(i * 7) % 48;
            let color = 0xFFu32 << (8 * ((seed + i) % 3));
            dv.driver_mut().fill_rect(Rect::new(x, y, 12, 12), color);
        }
    }

    #[test]
    fn visual_recall_finds_past_scenes_and_pivots() {
        let mut dv = server();
        let clock = dv.clock();
        // Three distinct scenes, one keyframe + checkpoint each.
        for seed in 0..3u32 {
            clock.advance(Duration::from_secs(1));
            paint_scene(&mut dv, seed);
            dv.force_keyframe();
            dv.policy_tick().unwrap();
        }
        // At least one instance per scene (the recorder's own keyframe
        // cadence may contribute extras; near-duplicates coalesce).
        assert!(dv.vidx().unwrap().stats().open_instances >= 3);

        // "Find when the screen looked like it did at t=1s."
        let hits = dv.visual_hits_at_time(Timestamp::from_secs(1), 1).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].distance, 0, "exact scene re-probe");
        assert_eq!(hits[0].first, Timestamp::from_secs(1));

        // The hit pivots onto the PVR timeline: the anchoring keyframe
        // and the reconstructed full screen at the hit's moment.
        let (entry, shot) = dv.visual_pivot(&hits[0].clone()).unwrap();
        assert!(entry.time <= hits[0].last);
        let expected = dv.browse(hits[0].last).unwrap();
        assert_eq!(shot.content_hash(), expected.content_hash());

        // ...and into a revive at that moment.
        let sid = dv.visual_revive(&hits[0].clone()).unwrap();
        assert!(dv.session(sid).is_ok());
    }

    #[test]
    fn visual_index_seals_and_survives_archives() {
        // A strip window of one second forces a seal at nearly every
        // checkpoint, exercising the sealed path end to end.
        let mut dv = DejaView::new(Config {
            width: 64,
            height: 64,
            index_shard_window: Duration::from_secs(1),
            ..Config::default()
        });
        let clock = dv.clock();
        for seed in 0..6u32 {
            clock.advance(Duration::from_secs(1));
            paint_scene(&mut dv, seed);
            dv.force_keyframe();
            dv.policy_tick().unwrap();
        }
        let vidx = dv.vidx().unwrap();
        assert!(vidx.stats().live_segments >= 2, "{:?}", vidx.stats());

        // Every scene is findable across sealed segments + open strip,
        // and matches the linear-scan oracle exactly.
        for t in 1..=6u64 {
            let probe = dv.browse(Timestamp::from_secs(t)).unwrap();
            let hits = dv.visual_hits(&probe, 2).unwrap();
            assert_eq!(hits[0].distance, 0, "scene at t={t}s");
            assert_eq!(hits[0].first, Timestamp::from_secs(t));
            assert_eq!(hits, vidx.query_linear(&probe, 2).unwrap());
        }

        // Checkpoint-sealed visibility: a probe for a late scene is
        // invisible at an early checkpoint.
        let probe5 = dv.browse(Timestamp::from_secs(5)).unwrap();
        let early = dv.visual_at_checkpoint(2, &probe5, 1).unwrap();
        assert!(early.is_empty() || early[0].distance > 0);
        let late = dv.visual_at_checkpoint(6, &probe5, 1).unwrap();
        assert_eq!(late[0].distance, 0);

        // The sealed strip travels inside the archive, and the
        // restored server answers checkpoint-scoped queries
        // identically.
        let at6: Vec<_> = (1..=6u64)
            .map(|t| {
                let probe = dv.browse(Timestamp::from_secs(t)).unwrap();
                dv.visual_at_checkpoint(6, &probe, 2).unwrap()
            })
            .collect();
        let archive = dv.save_archive().unwrap();
        let mut restored = DejaView::load_archive(
            Config {
                index_shard_window: Duration::from_secs(1),
                ..Config::default()
            },
            &archive,
        )
        .unwrap();
        for (i, expected) in at6.iter().enumerate() {
            let t = i as u64 + 1;
            let probe = restored.browse(Timestamp::from_secs(t)).unwrap();
            assert_eq!(
                &restored.visual_at_checkpoint(6, &probe, 2).unwrap(),
                expected,
                "restored visual view at t={t}s"
            );
        }
    }

    /// A checkpoint whose segments compaction superseded and GC
    /// reclaimed is reported as the typed retention miss — for text
    /// and, now that strips compact too, for visual recall — not as a
    /// query parse error.
    #[test]
    fn aged_out_checkpoints_report_out_of_retention() {
        let mut dv = DejaView::new(Config {
            width: 64,
            height: 64,
            index_shard_window: Duration::from_secs(1),
            ..Config::default()
        });
        let clock = dv.clock();
        let app = dv.desktop_mut().register_app("editor");
        let root = dv.desktop_mut().root(app).unwrap();
        let round = |dv: &mut DejaView, i: u32| {
            clock.advance(Duration::from_secs(1));
            dv.desktop_mut()
                .add_node(app, root, Role::Paragraph, &format!("batch{i} marker"));
            paint_scene(dv, i);
            dv.force_keyframe();
            dv.checkpoint_now().unwrap().counter
        };
        let counters: Vec<u64> = (0..4).map(|i| round(&mut dv, i)).collect();
        let probe = dv.browse(Timestamp::from_secs(1)).unwrap();
        let old = counters[1];
        assert!(dv.tidx().unwrap().maybe_compact().unwrap());
        assert!(dv.vidx().unwrap().maybe_compact().unwrap());
        // The inputs stay until a newer manifest names the outputs.
        let order = RankOrder::Chronological;
        assert_eq!(
            dv.search_at_checkpoint(old, "batch1", order).unwrap().len(),
            1
        );
        assert!(!dv.visual_at_checkpoint(old, &probe, 1).unwrap().is_empty());
        let newest = round(&mut dv, 4);
        let aged_out = ServerError::Segments(SegmentError::OutOfRetention {
            requested: old,
            oldest: newest,
        });
        assert_eq!(
            dv.search_at_checkpoint(old, "marker", order).unwrap_err(),
            aged_out
        );
        assert_eq!(
            dv.visual_at_checkpoint(old, &probe, 1).unwrap_err(),
            aged_out
        );
        // The floor checkpoint and the live views still answer.
        assert_eq!(
            dv.search_at_checkpoint(newest, "batch1", order)
                .unwrap()
                .len(),
            1
        );
        assert_eq!(dv.visual_hits(&probe, 1).unwrap()[0].distance, 0);
    }

    #[test]
    fn visual_recall_respects_the_disable_switch() {
        let mut dv = DejaView::new(Config {
            width: 64,
            height: 64,
            enable_visual_index: false,
            ..Config::default()
        });
        paint_scene(&mut dv, 1);
        dv.force_keyframe();
        assert!(dv.vidx().is_none());
        let probe = dv.browse(Timestamp::ZERO).unwrap();
        let disabled = ServerError::Segments(SegmentError::Failed("visual index disabled".into()));
        assert_eq!(dv.visual_hits(&probe, 1).unwrap_err(), disabled);
        assert_eq!(dv.visual_at_checkpoint(1, &probe, 1).unwrap_err(), disabled);
    }
}
