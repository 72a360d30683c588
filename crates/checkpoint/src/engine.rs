//! The checkpoint engine.
//!
//! Implements §5.1's four-step consistent checkpoint — quiesce, capture,
//! file system snapshot, resume — with every optimization §5.1.2
//! describes for keeping downtime out of the user's way:
//!
//! * **pre-snapshot**: sync the file system before quiescing;
//! * **pre-quiesce**: wait (bounded) for uninterruptibly sleeping
//!   processes to become signal-ready before stopping the session;
//! * **COW capture**: page captures are `Arc` clones, the copy is paid
//!   lazily by post-resume writers;
//! * **relink**: unlinked-but-open files are relinked into a hidden
//!   directory before the FS snapshot instead of being saved by value;
//! * **incremental checkpoints**: only pages dirtied since the last
//!   checkpoint are saved, via write-protect fault tracking;
//! * **deferred writeback**: serialization and storage writes happen
//!   after the session has resumed, on the engine's lane of a
//!   [`CommitPipeline`] — the one path every image takes to the store.
//!
//! Each checkpoint reports a per-phase latency breakdown; *downtime* is
//! quiesce + capture + FS snapshot, the quantity Figure 3 shows must
//! stay in single-digit milliseconds.

use std::collections::BTreeMap;
use std::sync::Arc;

use dv_fault::FaultPlane;
use dv_lsfs::{FsError, SharedBlobStore};
use dv_obs::{names, Obs};
use dv_time::{Duration, PhaseBreakdown, PhaseTimer, Sleeper, Timestamp};
use dv_vee::{FdObject, Process, RunState, Signal, SockState, Vee};

use crate::image::{CheckpointImage, FdRecord, ImageKind, ProcessRecord, SocketRecord};
use crate::writeback::{CommitPipeline, FairPolicy, LaneId, PipelineConfig};

/// Hidden directory unlinked-open files are relinked into.
pub const RELINK_DIR: &str = "/.dejaview";

/// Engine configuration.
///
/// The three `disable_*` flags ablate the §5.1.2 downtime optimizations
/// for the "without these optimizations" comparison of §6; they exist
/// for measurement, not production use.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Take a full checkpoint every `full_every` checkpoints; the rest
    /// are incremental ("full checkpoints are taken periodically ...
    /// for redundancy", §5.1.2). `1` disables incremental checkpoints.
    pub full_every: u64,
    /// Compress images before storing.
    pub compress: bool,
    /// Upper bound on pre-quiesce waiting.
    pub pre_quiesce_timeout: Duration,
    /// Step session time advances by while pre-quiescing.
    pub pre_quiesce_step: Duration,
    /// Ablation: copy page contents eagerly during capture instead of
    /// the deferred COW capture.
    pub disable_cow: bool,
    /// Ablation: settle the image's commit *before* resuming the
    /// session, so writeback counts as downtime.
    pub disable_deferred_writeback: bool,
    /// Ablation: skip the pre-snapshot file system sync, leaving all
    /// dirty data to be written during the snapshot (downtime) window.
    pub disable_pre_snapshot: bool,
    /// Worker threads in the engine's own commit pool. `0` (the
    /// default) is no threads: the session thread runs the commit steps
    /// itself, after resume. `>= 1` moves them — encode, per-section
    /// compression, the in-order store write — off the session thread.
    /// What is stored, and which checkpoints survive a fault, does not
    /// depend on the count. Unused while the engine is attached to
    /// another pool ([`Checkpointer::attach_pipeline`]).
    pub commit_workers: usize,
    /// Maximum captures pending on the engine's lane before
    /// backpressure: the session thread settles the lane and the new
    /// capture before it moves on (bounds captured-page memory).
    pub commit_queue_depth: usize,
    /// Store-write retries per commit in the engine's own pool.
    pub commit_retry_limit: u32,
    /// Backoff before a commit retry; doubles per attempt.
    pub commit_retry_backoff: Duration,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            full_every: 100,
            compress: false,
            pre_quiesce_timeout: Duration::from_millis(100),
            pre_quiesce_step: Duration::from_millis(1),
            disable_cow: false,
            disable_deferred_writeback: false,
            disable_pre_snapshot: false,
            commit_workers: 0,
            commit_queue_depth: 4,
            commit_retry_limit: 3,
            commit_retry_backoff: Duration::from_millis(50),
        }
    }
}

/// Metadata the engine keeps about each stored image.
#[derive(Clone, Debug)]
pub struct ImageMeta {
    /// Checkpoint counter.
    pub counter: u64,
    /// Session time.
    pub time: Timestamp,
    /// Full or incremental.
    pub kind: ImageKind,
    /// Blob name in the store.
    pub blob: String,
    /// Stored size in bytes.
    pub stored_bytes: u64,
    /// Uncompressed size in bytes.
    pub raw_bytes: u64,
}

/// The result of one checkpoint.
#[derive(Clone, Debug)]
pub struct CheckpointReport {
    /// Checkpoint counter assigned.
    pub counter: u64,
    /// Phase latency breakdown (pre-checkpoint, quiesce, capture,
    /// fs-snapshot, resume, writeback — the last being the session
    /// thread's share of the commit: all of it when it ran the steps
    /// itself, the hand-off otherwise).
    pub phases: PhaseBreakdown,
    /// Time the session was unresponsive.
    pub downtime: Duration,
    /// Pages saved.
    pub pages_saved: usize,
    /// Stored image size.
    pub stored_bytes: u64,
    /// Uncompressed image size.
    pub raw_bytes: u64,
    /// Whether this was a full checkpoint.
    pub full: bool,
    /// Whether the commit was still pending when the call returned. If
    /// so, `stored_bytes`/`raw_bytes` are 0 here and land in
    /// [`EngineStats`] once the commit resolves (see
    /// [`Checkpointer::flush`]).
    pub deferred: bool,
}

/// Cumulative engine statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Full checkpoints taken.
    pub full_checkpoints: u64,
    /// Total stored bytes.
    pub stored_bytes: u64,
    /// Total raw (uncompressed) bytes.
    pub raw_bytes: u64,
    /// Unlinked files relinked.
    pub relinks: u64,
    /// Checkpoints lost after the session was quiesced: a failed
    /// capture or snapshot point, or a commit that failed or cascaded
    /// (the session keeps running; the image is not retained).
    pub write_failures: u64,
    /// Captures handed to the commit pipeline.
    pub queued: u64,
    /// Commits that resolved successfully.
    pub committed: u64,
    /// Captures the session thread settled before moving on because
    /// the lane's queue was full.
    pub inline_fallbacks: u64,
    /// Total session-thread unresponsiveness (quiesce + capture +
    /// fs-snapshot) across all checkpoints, in wall nanoseconds.
    pub sync_downtime_nanos: u64,
    /// Total enqueue-to-resolve time of commits, in nanoseconds on the
    /// engine's sleeper timebase (session time under a sim clock).
    pub async_commit_nanos: u64,
}

/// The checkpoint engine for one session.
pub struct Checkpointer {
    config: EngineConfig,
    blob_prefix: String,
    counter: u64,
    images: BTreeMap<u64, ImageMeta>,
    stats: EngineStats,
    relink_seq: u64,
    plane: FaultPlane,
    /// The pool this engine commits through and its lane there: the
    /// engine's own pool, built at the first checkpoint, or one it was
    /// attached to.
    lane: Option<(Arc<CommitPipeline>, LaneId)>,
    force_full: bool,
    sleeper: Sleeper,
    last_async_error: Option<FsError>,
    obs: Obs,
}

impl Checkpointer {
    /// Creates an engine on a [`dv_time::SimClock`]: the pre-quiesce
    /// wait, commit-retry backoff and injected latency spikes advance
    /// the clock instead of really sleeping.
    pub fn with_sim_clock(config: EngineConfig, clock: dv_time::SimClock) -> Self {
        Checkpointer {
            config,
            blob_prefix: "ckpt".to_string(),
            counter: 0,
            images: BTreeMap::new(),
            stats: EngineStats::default(),
            relink_seq: 0,
            plane: FaultPlane::disabled(),
            lane: None,
            force_full: false,
            sleeper: Sleeper::Sim(clock),
            last_async_error: None,
            obs: Obs::disabled(),
        }
    }

    /// Installs the fault-injection plane (sites
    /// `checkpoint.image.encode` and `checkpoint.writeback`). Captures
    /// already enqueued keep the plane they were enqueued under.
    pub fn set_fault_plane(&mut self, plane: FaultPlane) {
        plane.set_obs(self.obs.clone());
        self.plane = plane;
    }

    /// Installs the observability handle: phase latencies, byte
    /// accounting, and pipeline behavior (queue depth, compress time,
    /// retries, inline fallbacks) report into the `checkpoint.*`
    /// metrics. Captures already enqueued keep the handle they were
    /// enqueued under.
    pub fn set_obs(&mut self, obs: Obs) {
        self.plane.set_obs(obs.clone());
        self.obs = obs;
    }

    /// Sets the blob-name prefix, so several engines (the main session
    /// and each revived session) can share one store without colliding.
    pub fn with_blob_prefix(mut self, prefix: &str) -> Self {
        self.blob_prefix = prefix.to_string();
        self
    }

    /// Returns the blob-name prefix.
    pub fn blob_prefix(&self) -> &str {
        &self.blob_prefix
    }

    /// Returns cumulative statistics.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Attaches this engine to `pipe` on a lane of its own — with
    /// `commit_queue_depth` as its queue quota and `weight` as its
    /// scheduling weight — after detaching from any pool it was on.
    /// Returns the lane. Checkpoints into the pool's store commit
    /// through it, whatever `commit_workers` says.
    pub fn attach_pipeline(&mut self, pipe: Arc<CommitPipeline>, weight: u32) -> LaneId {
        self.detach_pipeline();
        let lane = pipe.add_lane(self.config.commit_queue_depth, weight);
        self.lane = Some((pipe, lane));
        lane
    }

    /// Detaches from the pool: settles this engine's lane, absorbs the
    /// outcomes (a failure is kept for the next
    /// [`Checkpointer::flush`] to report), and closes the lane.
    pub fn detach_pipeline(&mut self) {
        self.settle();
        if let Some((pipe, lane)) = self.lane.take() {
            pipe.remove_lane(lane);
        }
    }

    /// The pool this engine commits to `store` through. An engine that
    /// is not attached to one builds its own here, with
    /// `commit_workers` threads; sessions revived from this one attach
    /// their engines to the same pool.
    pub fn pipeline(&mut self, store: &SharedBlobStore) -> Arc<CommitPipeline> {
        self.attachment(store).0
    }

    fn attachment(&mut self, store: &SharedBlobStore) -> (Arc<CommitPipeline>, LaneId) {
        let attached = |(pipe, _): &(Arc<CommitPipeline>, LaneId)| pipe.writes_to(store);
        if !self.lane.as_ref().is_some_and(attached) {
            let own = CommitPipeline::new(
                PipelineConfig {
                    workers: self.config.commit_workers,
                    retry_limit: self.config.commit_retry_limit,
                    retry_backoff: self.config.commit_retry_backoff,
                    compress: self.config.compress,
                    fairness: FairPolicy::RoundRobin,
                },
                store.clone(),
                self.sleeper.clone(),
            );
            self.attach_pipeline(Arc::new(own), 1);
        }
        self.lane.clone().expect("attached above")
    }

    /// Commits still pending in the pipeline.
    pub fn inflight(&self) -> usize {
        self.lane
            .as_ref()
            .map_or(0, |(pipe, lane)| pipe.inflight(*lane))
    }

    /// Barrier: blocks until every pending commit has resolved, then
    /// folds the outcomes into the image metadata and statistics.
    ///
    /// # Errors
    ///
    /// Returns the first commit failure observed since the previous
    /// flush that no `checkpoint` call already returned (the session
    /// keeps running either way; the failed image and any incrementals
    /// chained through it are not retained, and the next checkpoint
    /// re-anchors with a forced full).
    pub fn flush(&mut self) -> Result<(), FsError> {
        self.settle();
        self.last_async_error.take().map_or(Ok(()), Err)
    }

    /// Blocks until this engine's lane is idle (running its steps here
    /// when one is ready) and absorbs the outcomes.
    fn settle(&mut self) {
        if let Some((pipe, lane)) = self.lane.as_ref() {
            pipe.drain(*lane);
        }
        self.reap(None);
    }

    /// Folds already-resolved commits into the engine without
    /// blocking. Successful commits become visible in
    /// [`Checkpointer::images`] here — and only here — so the metadata
    /// map grows in counter order. Returns the result of counter
    /// `awaited` if it was among them; any other failure is kept for
    /// [`Checkpointer::flush`].
    fn reap(&mut self, awaited: Option<u64>) -> Option<Result<(u64, u64), FsError>> {
        let (pipe, lane) = self.lane.as_ref()?;
        let outcomes = pipe.take_finished(*lane);
        if outcomes.is_empty() {
            return None;
        }
        let depth = pipe.inflight(*lane) as u64;
        let mut awaited_result = None;
        for outcome in outcomes {
            self.stats.async_commit_nanos += outcome.commit_nanos;
            self.obs
                .add(names::CHECKPOINT_ASYNC_COMMIT_NANOS, outcome.commit_nanos);
            let is_awaited = awaited == Some(outcome.counter);
            let result = outcome.result.map_err(|e| e.as_fs_error());
            match result {
                Ok((raw_bytes, stored_bytes)) => {
                    self.images.insert(
                        outcome.counter,
                        ImageMeta {
                            counter: outcome.counter,
                            time: outcome.time,
                            kind: outcome.kind,
                            blob: outcome.blob,
                            stored_bytes,
                            raw_bytes,
                        },
                    );
                    self.stats.committed += 1;
                    self.stats.stored_bytes += stored_bytes;
                    self.stats.raw_bytes += raw_bytes;
                    self.obs.incr(names::CHECKPOINT_COMMITTED);
                    self.obs.add(names::CHECKPOINT_STORED_BYTES, stored_bytes);
                    self.obs.add(names::CHECKPOINT_RAW_BYTES, raw_bytes);
                }
                Err(e) => {
                    self.note_lost_checkpoint();
                    if !is_awaited && self.last_async_error.is_none() {
                        self.last_async_error = Some(e);
                    }
                }
            }
            if is_awaited {
                awaited_result = Some(result);
            }
        }
        self.obs.gauge_set(names::CHECKPOINT_QUEUE_DEPTH, depth);
        awaited_result
    }

    /// A quiesced checkpoint did not become an image: its dirty-page
    /// set is gone, so the next checkpoint must be full.
    fn note_lost_checkpoint(&mut self) {
        self.stats.write_failures += 1;
        self.obs.incr(names::CHECKPOINT_WRITE_FAILURES);
        self.force_full = true;
    }

    /// Returns metadata for every stored image, in counter order.
    pub fn images(&self) -> impl Iterator<Item = &ImageMeta> {
        self.images.values()
    }

    /// Returns metadata for a specific counter.
    pub fn image_meta(&self, counter: u64) -> Option<&ImageMeta> {
        self.images.get(&counter)
    }

    /// Returns the latest checkpoint counter at or before `t`, the
    /// lookup behind "Take me back" (§5.2).
    pub fn counter_at_or_before(&self, t: Timestamp) -> Option<u64> {
        self.images
            .values()
            .rev()
            .find(|m| m.time <= t)
            .map(|m| m.counter)
    }

    /// Returns the chain of counters needed to restore `counter`:
    /// `[full, inc, ..., counter]`.
    pub fn chain_for(&self, counter: u64) -> Option<Vec<u64>> {
        let mut chain = Vec::new();
        let mut cur = counter;
        loop {
            let meta = self.images.get(&cur)?;
            chain.push(cur);
            match meta.kind {
                ImageKind::Full => break,
                ImageKind::Incremental { prev } => cur = prev,
            }
        }
        chain.reverse();
        Some(chain)
    }

    /// Serializes the engine's image metadata (counters, kinds, blob
    /// names, times) so a record can be reopened across restarts.
    pub fn export_meta(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"DVENG001");
        out.extend_from_slice(&self.counter.to_le_bytes());
        out.extend_from_slice(&self.relink_seq.to_le_bytes());
        out.extend_from_slice(&(self.blob_prefix.len() as u32).to_le_bytes());
        out.extend_from_slice(self.blob_prefix.as_bytes());
        out.extend_from_slice(&(self.images.len() as u64).to_le_bytes());
        for meta in self.images.values() {
            out.extend_from_slice(&meta.counter.to_le_bytes());
            out.extend_from_slice(&meta.time.as_nanos().to_le_bytes());
            match meta.kind {
                ImageKind::Full => {
                    out.push(0);
                    out.extend_from_slice(&0u64.to_le_bytes());
                }
                ImageKind::Incremental { prev } => {
                    out.push(1);
                    out.extend_from_slice(&prev.to_le_bytes());
                }
            }
            out.extend_from_slice(&(meta.blob.len() as u32).to_le_bytes());
            out.extend_from_slice(meta.blob.as_bytes());
            out.extend_from_slice(&meta.stored_bytes.to_le_bytes());
            out.extend_from_slice(&meta.raw_bytes.to_le_bytes());
        }
        out
    }

    /// Restores image metadata from [`Checkpointer::export_meta`] output,
    /// replacing this engine's history. Returns `None` on malformed data.
    pub fn import_meta(&mut self, mut data: &[u8]) -> Option<()> {
        fn take<'a>(data: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
            if data.len() < n {
                return None;
            }
            let (head, rest) = data.split_at(n);
            *data = rest;
            Some(head)
        }
        fn u64_of(data: &mut &[u8]) -> Option<u64> {
            take(data, 8).map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
        }
        if take(&mut data, 8)? != b"DVENG001" {
            return None;
        }
        let counter = u64_of(&mut data)?;
        let relink_seq = u64_of(&mut data)?;
        let prefix_len =
            u32::from_le_bytes(take(&mut data, 4)?.try_into().expect("4 bytes")) as usize;
        let blob_prefix = std::str::from_utf8(take(&mut data, prefix_len)?)
            .ok()?
            .to_string();
        let count = u64_of(&mut data)?;
        let mut images = BTreeMap::new();
        for _ in 0..count {
            let meta_counter = u64_of(&mut data)?;
            let time = Timestamp::from_nanos(u64_of(&mut data)?);
            let tag = take(&mut data, 1)?[0];
            let prev = u64_of(&mut data)?;
            let kind = match tag {
                0 => ImageKind::Full,
                1 => ImageKind::Incremental { prev },
                _ => return None,
            };
            let blob_len =
                u32::from_le_bytes(take(&mut data, 4)?.try_into().expect("4 bytes")) as usize;
            let blob = std::str::from_utf8(take(&mut data, blob_len)?)
                .ok()?
                .to_string();
            let stored_bytes = u64_of(&mut data)?;
            let raw_bytes = u64_of(&mut data)?;
            images.insert(
                meta_counter,
                ImageMeta {
                    counter: meta_counter,
                    time,
                    kind,
                    blob,
                    stored_bytes,
                    raw_bytes,
                },
            );
        }
        if !data.is_empty() {
            return None;
        }
        self.counter = counter;
        self.relink_seq = relink_seq;
        self.blob_prefix = blob_prefix;
        self.images = images;
        Some(())
    }

    /// Takes one checkpoint of `vee`, storing the image in `store`.
    ///
    /// Capture, snapshot and resume happen here; the captured image
    /// then takes the engine's lane of its commit pipeline. The call
    /// returns with the commit still pending
    /// ([`CheckpointReport::deferred`]) when the pool's workers will
    /// finish it off-thread; call [`Checkpointer::flush`] to wait for
    /// (and account) such commits. It returns with the commit resolved
    /// when the session thread ran the steps itself: the pool has no
    /// workers, the lane was full, or write-back deferral is ablated.
    ///
    /// # Errors
    ///
    /// Returns the file system error if the pre-snapshot sync fails; if
    /// a relink or the snapshot point fails; or if a commit that
    /// resolved within the call failed. Whatever fails once the session
    /// is quiesced, every process that was runnable is running again
    /// when this returns, the failure is counted in
    /// [`EngineStats::write_failures`], and the next checkpoint is
    /// full. Failures of commits still pending on return surface
    /// through [`Checkpointer::flush`].
    pub fn checkpoint(
        &mut self,
        vee: &mut Vee,
        store: &SharedBlobStore,
    ) -> Result<CheckpointReport, FsError> {
        // Absorb any commits that resolved since the last call: a failed
        // one forces this checkpoint full so the chain re-anchors.
        self.reap(None);
        let mut timer = PhaseTimer::new();
        // A zero cadence would divide by zero; treat it as "always full".
        let full = self.force_full || self.counter.is_multiple_of(self.config.full_every.max(1));
        let counter = self.counter + 1;

        // --- Pre-checkpoint: work done while the session still runs. ---
        timer.enter("pre-checkpoint");
        // Pre-snapshot: flush dirty file data so the snapshot point has
        // little left to write.
        if !self.config.disable_pre_snapshot {
            vee.fs.sync()?;
        }
        // Pre-quiesce: wait for uninterruptible sleepers, bounded.
        let mut waited = Duration::ZERO;
        while !vee.all_signal_ready() && waited < self.config.pre_quiesce_timeout {
            self.sleeper.sleep(self.config.pre_quiesce_step);
            waited += self.config.pre_quiesce_step;
            vee.tick();
        }

        // --- Quiesce: stop every process. From here to the resume
        // phase nothing returns early. ---
        timer.enter("quiesce");
        let resume_states: Vec<(dv_vee::Vpid, RunState)> =
            vee.processes().map(|p| (p.vpid, p.state)).collect();
        vee.stop_all();

        let captured = self.capture(vee, counter, full, &mut timer);

        // --- Resume and writeback. The session runs again — downtime
        // ends — before the image is handed to the pipeline; the
        // ablation swaps the two and settles the commit while the
        // session is still stopped. Either way every process that was
        // runnable runs again before any failure propagates: a storage
        // fault never leaves the session stopped. ---
        let resume = |vee: &mut Vee| {
            for &(vpid, state) in &resume_states {
                // A process the user had stopped stays stopped.
                if state == RunState::Runnable {
                    let _ = vee.send_signal(vpid, Signal::Cont);
                }
            }
        };
        let defer = !self.config.disable_deferred_writeback;
        if defer {
            timer.enter("resume");
            resume(vee);
        }
        let submitted = captured.map(|(image, pages_saved)| {
            timer.enter("writeback");
            (self.submit(image, store, !defer), pages_saved)
        });
        if !defer {
            timer.enter("resume");
            resume(vee);
        }
        let (resolved, pages_saved) = match submitted {
            Ok(submitted) => submitted,
            Err(e) => {
                // The one exit for a checkpoint that was quiesced but
                // never reached the pipeline: the counter is not
                // consumed, and the dirty-page set it took is gone.
                self.note_lost_checkpoint();
                return Err(e);
            }
        };

        self.counter = counter;
        self.force_full = false;
        self.stats.checkpoints += 1;
        if full {
            self.stats.full_checkpoints += 1;
        }
        let committed = if resolved {
            self.reap(Some(counter))
        } else {
            None
        };
        let phases = timer.finish();
        let mut downtime = phases.subset_total(&["quiesce", "capture", "fs-snapshot"]);
        if !defer {
            downtime += phases.get("writeback");
        }
        self.stats.sync_downtime_nanos += downtime.as_nanos();
        self.observe_checkpoint(&phases, downtime, full);
        // A commit that failed within the call consumed its counter
        // like one that fails later would; the caller decides whether
        // to retry, and the retry re-anchors with a full image.
        let (raw_bytes, stored_bytes) = committed.transpose()?.unwrap_or((0, 0));
        Ok(CheckpointReport {
            counter,
            phases,
            downtime,
            pages_saved,
            stored_bytes,
            raw_bytes,
            full,
            deferred: committed.is_none(),
        })
    }

    /// Capture and file system snapshot, while every process is
    /// stopped. Errors return to [`Checkpointer::checkpoint`], which
    /// resumes the session before passing them on.
    fn capture(
        &mut self,
        vee: &mut Vee,
        counter: u64,
        full: bool,
        timer: &mut PhaseTimer,
    ) -> Result<(CheckpointImage, usize), FsError> {
        // --- Capture: while stopped, gather state without copying. ---
        timer.enter("capture");
        let mut processes = Vec::with_capacity(vee.process_count());
        let mut pages_saved = 0usize;
        let vpids: Vec<dv_vee::Vpid> = vee.processes().map(|p| p.vpid).collect();
        for vpid in &vpids {
            // Relink unlinked-but-open files before the FS snapshot so
            // their contents are reachable on revive without saving them
            // to the image.
            let mut relinks: Vec<(u32, String)> = Vec::new();
            {
                let process = vee.process(*vpid).expect("listed process");
                for (fd, obj) in process.fds.iter() {
                    if let FdObject::File { unlinked: true, .. } = obj {
                        let relink_path =
                            format!("{RELINK_DIR}/relink-{counter}-{}", self.relink_seq);
                        self.relink_seq += 1;
                        relinks.push((fd, relink_path));
                    }
                }
            }
            if !relinks.is_empty() {
                match vee.fs.mkdir(RELINK_DIR) {
                    Ok(()) | Err(FsError::AlreadyExists) => {}
                    Err(e) => return Err(e),
                }
                for (fd, relink_path) in &relinks {
                    let handle = {
                        let process = vee.process(*vpid).expect("listed process");
                        match process.fds.get(*fd) {
                            Some(FdObject::File { handle, .. }) => *handle,
                            _ => continue,
                        }
                    };
                    vee.fs.link_handle(handle, relink_path)?;
                    self.stats.relinks += 1;
                    self.obs.incr(names::CHECKPOINT_RELINKS);
                }
            }
            let process = vee.process_mut(*vpid).expect("listed process");
            let page_addrs = if full {
                let addrs = process.mem.resident_page_addrs();
                process.mem.arm_tracking();
                addrs
            } else {
                process.mem.take_dirty()
            };
            let captured = process.mem.capture_pages(&page_addrs);
            let pages: Vec<_> = if self.config.disable_cow {
                // Ablation: pay the full memory copy while stopped.
                captured
                    .into_iter()
                    .filter_map(|(addr, page)| page.map(|p| (addr, Arc::new(*p))))
                    .collect()
            } else {
                captured
                    .into_iter()
                    .filter_map(|(addr, page)| page.map(|p| (addr, p)))
                    .collect()
            };
            pages_saved += pages.len();
            let relink_of = |fd: u32| {
                relinks
                    .iter()
                    .find(|(f, _)| *f == fd)
                    .map(|(_, p)| p.clone())
            };
            let record = record_process(process, pages, relink_of);
            processes.push(record);
        }
        let sockets: Vec<SocketRecord> = vee
            .sockets
            .iter()
            .map(|s| SocketRecord {
                id: s.id,
                proto: match s.proto {
                    dv_vee::Proto::Tcp => 0,
                    dv_vee::Proto::Udp => 1,
                },
                local_port: s.local_port,
                remote: s.remote.clone(),
                state: match s.state {
                    SockState::Unconnected => 0,
                    SockState::Connected => 1,
                    SockState::Reset => 2,
                },
                tx_bytes: s.tx_bytes,
                rx_bytes: s.rx_bytes,
            })
            .collect();
        let image = CheckpointImage {
            counter,
            time: vee.clock().now(),
            kind: if full {
                ImageKind::Full
            } else {
                ImageKind::Incremental { prev: self.counter }
            },
            hostname: vee.namespace.hostname.clone(),
            network_enabled: vee.network_enabled(),
            processes,
            sockets,
        };

        // --- File system snapshot, tied to the counter. ---
        timer.enter("fs-snapshot");
        match vee.fs.snapshot_point(counter) {
            Ok(()) | Err(FsError::Unsupported) => {}
            Err(e) => return Err(e),
        }
        Ok((image, pages_saved))
    }

    /// Hands a capture to the engine's lane. Returns whether its commit
    /// has resolved on return — `now` asked for it (the ablation),
    /// the lane was full, or the pool has no workers and `enqueue` ran
    /// the steps on this thread.
    fn submit(&mut self, image: CheckpointImage, store: &SharedBlobStore, now: bool) -> bool {
        let (pipe, lane) = self.attachment(store);
        // Backpressure: a full lane is settled before it takes another
        // capture, and this capture before the session moves on, so
        // captured-page memory stays bounded by the quota and commit
        // order stays strict.
        let full_lane = !pipe.has_capacity(lane);
        if full_lane {
            self.stats.inline_fallbacks += 1;
            self.obs.incr(names::CHECKPOINT_INLINE_FALLBACKS);
            self.obs.event(
                "checkpoint",
                names::EV_INLINE_FALLBACK,
                format!("counter={}", image.counter),
            );
            pipe.drain(lane);
        }
        let blob = format!("{}-{:08}", self.blob_prefix, image.counter);
        pipe.enqueue(lane, image, blob, self.plane.clone(), self.obs.clone());
        self.stats.queued += 1;
        self.obs.incr(names::CHECKPOINT_QUEUED);
        if now || full_lane {
            pipe.drain(lane);
        }
        let resolved = now || full_lane || pipe.workers() == 0;
        if !resolved {
            self.obs
                .gauge_set(names::CHECKPOINT_QUEUE_DEPTH, pipe.inflight(lane) as u64);
        }
        resolved
    }

    /// Folds one checkpoint's phase breakdown into the observability
    /// registry: per-phase downtime histograms plus the checkpoint
    /// counters. Called once per checkpoint that reached the pipeline.
    fn observe_checkpoint(&self, phases: &PhaseBreakdown, downtime: Duration, full: bool) {
        self.obs.incr(names::CHECKPOINT_COUNT);
        if full {
            self.obs.incr(names::CHECKPOINT_FULL);
        }
        self.obs
            .observe(names::CHECKPOINT_QUIESCE, phases.get("quiesce").as_nanos());
        self.obs
            .observe(names::CHECKPOINT_CAPTURE, phases.get("capture").as_nanos());
        self.obs.observe(
            names::CHECKPOINT_FS_SNAPSHOT,
            phases.get("fs-snapshot").as_nanos(),
        );
        self.obs
            .add(names::CHECKPOINT_SYNC_DOWNTIME_NANOS, downtime.as_nanos());
    }
}

fn record_process(
    process: &Process,
    pages: Vec<(u64, Arc<dv_vee::PageBuf>)>,
    relink_of: impl Fn(u32) -> Option<String>,
) -> ProcessRecord {
    ProcessRecord {
        vpid: process.vpid.0,
        parent: process.parent.map(|v| v.0),
        name: process.name.clone(),
        regs: process.regs,
        fpu: process.fpu,
        sched: process.sched,
        creds: process.creds,
        blocked: process.signals.blocked,
        handled: process.signals.handled,
        pending: process.signals.pending.iter().map(|s| *s as u8).collect(),
        ptraced_by: process.ptraced_by.map(|v| v.0),
        cwd: process.cwd.clone(),
        net_allowed: process.net_allowed,
        regions: process.mem.regions().cloned().collect(),
        pages,
        fds: process
            .fds
            .iter()
            .map(|(fd, obj)| match obj {
                FdObject::File {
                    path,
                    offset,
                    unlinked,
                    ..
                } => FdRecord::File {
                    fd,
                    path: path.clone(),
                    offset: *offset,
                    unlinked: *unlinked,
                    relink: relink_of(fd),
                },
                FdObject::Socket { id } => FdRecord::Socket { fd, id: *id },
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv_fault::{sites, FaultPlan, IoFault};
    use dv_lsfs::Lsfs;
    use dv_time::SimClock;
    use dv_vee::{HostPidAllocator, Prot};

    fn setup() -> (Vee, SimClock, Checkpointer, SharedBlobStore) {
        let clock = SimClock::new();
        let vee = Vee::new(
            1,
            clock.shared(),
            Box::new(Lsfs::new()),
            HostPidAllocator::new(),
        );
        let engine = Checkpointer::with_sim_clock(
            EngineConfig {
                full_every: 4,
                ..EngineConfig::default()
            },
            clock.clone(),
        );
        (vee, clock, engine, SharedBlobStore::in_memory())
    }

    #[test]
    fn checkpoint_produces_image_and_resumes() {
        let (mut vee, _clock, mut engine, store) = setup();
        let p = vee.spawn(None, "app").unwrap();
        let addr = vee.mmap(p, 8192, Prot::ReadWrite).unwrap();
        vee.mem_write(p, addr, b"state").unwrap();
        let report = engine.checkpoint(&mut vee, &store).unwrap();
        assert_eq!(report.counter, 1);
        assert!(report.full);
        assert_eq!(report.pages_saved, 1);
        assert!(store.lock().contains("ckpt-00000001"));
        assert_eq!(
            vee.process(p).unwrap().state,
            RunState::Runnable,
            "session resumed"
        );
    }

    #[test]
    fn incrementals_save_only_dirty_pages() {
        let (mut vee, _clock, mut engine, store) = setup();
        let p = vee.spawn(None, "app").unwrap();
        let addr = vee.mmap(p, 16 * 4096, Prot::ReadWrite).unwrap();
        vee.mem_write(p, addr, &vec![1u8; 16 * 4096]).unwrap();
        let full = engine.checkpoint(&mut vee, &store).unwrap();
        assert_eq!(full.pages_saved, 16);
        // Touch two pages.
        vee.mem_write(p, addr + 4096, b"x").unwrap();
        vee.mem_write(p, addr + 5 * 4096, b"y").unwrap();
        let inc = engine.checkpoint(&mut vee, &store).unwrap();
        assert!(!inc.full);
        assert_eq!(inc.pages_saved, 2);
        assert!(inc.raw_bytes < full.raw_bytes / 4);
        // No writes: empty incremental.
        let idle = engine.checkpoint(&mut vee, &store).unwrap();
        assert_eq!(idle.pages_saved, 0);
    }

    #[test]
    fn full_checkpoints_recur_periodically() {
        let (mut vee, _clock, mut engine, store) = setup();
        vee.spawn(None, "app").unwrap();
        let mut fulls = Vec::new();
        for _ in 0..9 {
            fulls.push(engine.checkpoint(&mut vee, &store).unwrap().full);
        }
        assert_eq!(
            fulls,
            vec![true, false, false, false, true, false, false, false, true]
        );
    }

    #[test]
    fn chain_resolution() {
        let (mut vee, _clock, mut engine, store) = setup();
        vee.spawn(None, "app").unwrap();
        for _ in 0..6 {
            engine.checkpoint(&mut vee, &store).unwrap();
        }
        assert_eq!(engine.chain_for(3).unwrap(), vec![1, 2, 3]);
        assert_eq!(engine.chain_for(5).unwrap(), vec![5]);
        assert_eq!(engine.chain_for(6).unwrap(), vec![5, 6]);
        assert!(engine.chain_for(99).is_none());
    }

    #[test]
    fn counter_lookup_by_time() {
        let (mut vee, clock, mut engine, store) = setup();
        vee.spawn(None, "app").unwrap();
        for _ in 0..3 {
            clock.advance(Duration::from_secs(1));
            engine.checkpoint(&mut vee, &store).unwrap();
        }
        // Checkpoints at t=1s, 2s, 3s.
        assert_eq!(
            engine.counter_at_or_before(Timestamp::from_millis(2_500)),
            Some(2)
        );
        assert_eq!(
            engine.counter_at_or_before(Timestamp::from_secs(3)),
            Some(3)
        );
        assert_eq!(
            engine.counter_at_or_before(Timestamp::from_millis(500)),
            None
        );
    }

    #[test]
    fn pre_quiesce_waits_for_disk_sleepers() {
        let (mut vee, _clock, mut engine, store) = setup();
        let p = vee.spawn(None, "io").unwrap();
        vee.enter_disk_sleep(p, Duration::from_millis(20)).unwrap();
        let report = engine.checkpoint(&mut vee, &store).unwrap();
        // The engine advanced the clock past the sleep and stopped the
        // process cleanly.
        assert!(report.phases.get("pre-checkpoint") > Duration::ZERO);
        assert_eq!(vee.process(p).unwrap().state, RunState::Runnable);
    }

    #[test]
    fn fs_snapshot_ties_to_counter() {
        let (mut vee, _clock, mut engine, store) = setup();
        vee.spawn(None, "app").unwrap();
        vee.fs.write_all("/doc", b"v1").unwrap();
        engine.checkpoint(&mut vee, &store).unwrap();
        vee.fs.write_all("/doc", b"v2").unwrap();
        engine.checkpoint(&mut vee, &store).unwrap();
        // The Lsfs inside the VEE has snapshots 1 and 2; verified at the
        // session layer (core) which holds a typed handle. Here we check
        // the counters advanced.
        assert_eq!(engine.images().count(), 2);
    }

    #[test]
    fn relinks_unlinked_open_files() {
        let (mut vee, _clock, mut engine, store) = setup();
        let p = vee.spawn(None, "app").unwrap();
        vee.fs.write_all("/tmp_scratch", b"precious bytes").unwrap();
        let fd = vee.open(p, "/tmp_scratch").unwrap();
        vee.unlink("/tmp_scratch").unwrap();
        let _ = fd;
        engine.checkpoint(&mut vee, &store).unwrap();
        assert_eq!(engine.stats().relinks, 1);
        // The relinked name exists in the live fs (and so in the
        // snapshot taken at the same counter).
        let entries = vee.fs.readdir(RELINK_DIR).unwrap();
        assert_eq!(entries.len(), 1);
        assert!(entries[0].name.starts_with("relink-1-"));
    }

    #[test]
    fn compression_reduces_stored_size() {
        let (mut vee, clock, _engine, store) = setup();
        let mut engine = Checkpointer::with_sim_clock(
            EngineConfig {
                compress: true,
                ..EngineConfig::default()
            },
            clock,
        );
        let p = vee.spawn(None, "app").unwrap();
        let addr = vee.mmap(p, 64 * 4096, Prot::ReadWrite).unwrap();
        vee.mem_write(p, addr, &vec![7u8; 64 * 4096]).unwrap();
        let report = engine.checkpoint(&mut vee, &store).unwrap();
        assert!(report.stored_bytes < report.raw_bytes / 10);
    }

    #[test]
    fn engine_meta_round_trips() {
        let (mut vee, clock, mut engine, store) = setup();
        vee.spawn(None, "app").unwrap();
        for _ in 0..6 {
            clock.advance(Duration::from_secs(1));
            engine.checkpoint(&mut vee, &store).unwrap();
        }
        let meta = engine.export_meta();
        let mut restored = Checkpointer::with_sim_clock(EngineConfig::default(), SimClock::new());
        restored.import_meta(&meta).expect("import");
        assert_eq!(
            restored.images().map(|m| m.counter).collect::<Vec<_>>(),
            engine.images().map(|m| m.counter).collect::<Vec<_>>()
        );
        assert_eq!(restored.chain_for(6), engine.chain_for(6));
        assert_eq!(
            restored.counter_at_or_before(Timestamp::from_secs(3)),
            engine.counter_at_or_before(Timestamp::from_secs(3))
        );
        // A further checkpoint continues the numbering.
        let report = restored.checkpoint(&mut vee, &store).unwrap();
        assert_eq!(report.counter, 7);
        assert!(restored.import_meta(&meta[..10]).is_none());
    }

    #[test]
    fn ablations_increase_downtime() {
        let run_once = |config: EngineConfig| -> Duration {
            let clock = SimClock::new();
            let mut vee = Vee::new(
                1,
                clock.shared(),
                Box::new(Lsfs::new()),
                HostPidAllocator::new(),
            );
            let mut engine = Checkpointer::with_sim_clock(config, clock);
            let store = SharedBlobStore::in_memory();
            let p = vee.spawn(None, "app").unwrap();
            let addr = vee.mmap(p, 8 << 20, Prot::ReadWrite).unwrap();
            vee.mem_write(p, addr, &vec![5u8; 8 << 20]).unwrap();
            // Warm up, then measure an incremental with a fresh dirty set.
            engine.checkpoint(&mut vee, &store).unwrap();
            vee.mem_write(p, addr, &vec![6u8; 4 << 20]).unwrap();
            engine.checkpoint(&mut vee, &store).unwrap().downtime
        };
        // Downtime is wall time: a deschedule spike inflates a single
        // sample arbitrarily, so compare the minimum of several runs
        // (spikes only ever add time; the minimum is the clean signal),
        // taken turn about so that a slow spell of the machine falls on
        // every configuration alike.
        let configs = [
            EngineConfig::default(),
            EngineConfig {
                full_every: 1,
                ..EngineConfig::default()
            },
            EngineConfig {
                disable_deferred_writeback: true,
                ..EngineConfig::default()
            },
            EngineConfig {
                disable_cow: true,
                ..EngineConfig::default()
            },
        ];
        let mut best = [Duration::from_nanos(u64::MAX); 4];
        for _ in 0..5 {
            for (best, config) in best.iter_mut().zip(configs) {
                *best = run_once(config).min(*best);
            }
        }
        let [optimized, no_incremental, no_defer, no_cow] = best;
        assert!(
            no_defer > optimized,
            "synchronous writeback must add downtime ({no_defer} vs {optimized})"
        );
        assert!(
            no_cow > optimized,
            "eager copy must add downtime ({no_cow} vs {optimized})"
        );
        // Full-every-time saves more pages than the dirty subset.
        assert!(no_incremental >= optimized);
    }

    #[test]
    fn disabled_cow_still_restores_correctly() {
        let clock = SimClock::new();
        let mut vee = Vee::new(
            1,
            clock.shared(),
            Box::new(Lsfs::new()),
            HostPidAllocator::new(),
        );
        let mut engine = Checkpointer::with_sim_clock(
            EngineConfig {
                disable_cow: true,
                disable_deferred_writeback: true,
                disable_pre_snapshot: true,
                full_every: 1,
                ..EngineConfig::default()
            },
            clock,
        );
        let store = SharedBlobStore::in_memory();
        let p = vee.spawn(None, "app").unwrap();
        let addr = vee.mmap(p, 4096, Prot::ReadWrite).unwrap();
        vee.mem_write(p, addr, b"ablated but correct").unwrap();
        let report = engine.checkpoint(&mut vee, &store).unwrap();
        let image = crate::restore::load_image(&mut store.lock(), "ckpt", report.counter).unwrap();
        assert_eq!(&image.processes[0].pages[0].1[..19], b"ablated but correct");
    }

    /// A session of one process over an `Lsfs` carrying `plane`, and
    /// an engine with `config` on the same clock.
    fn session(config: EngineConfig, plane: &FaultPlane) -> (Vee, Checkpointer, dv_vee::Vpid) {
        let clock = SimClock::new();
        let mut fs = Lsfs::new();
        fs.set_fault_plane(plane.clone());
        let mut vee = Vee::new(1, clock.shared(), Box::new(fs), HostPidAllocator::new());
        let p = vee.spawn(None, "app").unwrap();
        let mut engine = Checkpointer::with_sim_clock(config, clock);
        engine.set_fault_plane(plane.clone());
        (vee, engine, p)
    }

    #[test]
    fn worker_count_does_not_change_what_is_stored() {
        let run = |workers: usize| -> Vec<(u64, Vec<u8>)> {
            let config = EngineConfig {
                compress: true,
                full_every: 3,
                commit_workers: workers,
                // Deep enough that no capture ever meets a full lane,
                // even when test-suite load delays workers.
                commit_queue_depth: 8,
                ..EngineConfig::default()
            };
            let (mut vee, mut engine, p) = session(config, &FaultPlane::disabled());
            let store = SharedBlobStore::in_memory();
            let addr = vee.mmap(p, 32 * 4096, Prot::ReadWrite).unwrap();
            for i in 0..5u8 {
                vee.mem_write(p, addr + u64::from(i) * 4096, &vec![i + 1; 4096])
                    .unwrap();
                let report = engine.checkpoint(&mut vee, &store).unwrap();
                assert_eq!(report.deferred, workers > 0);
                assert_eq!(report.raw_bytes > 0, workers == 0);
            }
            engine.flush().unwrap();
            let stats = engine.stats();
            assert_eq!((stats.queued, stats.committed), (5, 5));
            assert_eq!((stats.write_failures, stats.inline_fallbacks), (0, 0));
            assert!(stats.stored_bytes > 0 && stats.raw_bytes > stats.stored_bytes);
            engine
                .images()
                .map(|m| (m.counter, store.lock().get(&m.blob).unwrap().to_vec()))
                .collect()
        };
        let on_the_caller = run(0);
        assert_eq!(on_the_caller.len(), 5);
        assert_eq!(on_the_caller[0].1[0], 0x02, "the chunked container");
        assert_eq!(on_the_caller, run(2), "same bytes from two workers");
    }

    #[test]
    fn a_full_lane_is_settled_by_the_session_thread() {
        let config = EngineConfig {
            commit_queue_depth: 1,
            ..EngineConfig::default()
        };
        let (mut vee, mut engine, _p) = session(config, &FaultPlane::disabled());
        let store = SharedBlobStore::in_memory();
        // A pool whose only worker is parked on a neighbour's lane:
        // nothing commits unless the session thread does it.
        let pipe = Arc::new(CommitPipeline::new(
            PipelineConfig {
                workers: 1,
                retry_limit: 0,
                retry_backoff: Duration::ZERO,
                compress: false,
                fairness: FairPolicy::RoundRobin,
            },
            store.clone(),
            Sleeper::Wall,
        ));
        let neighbour = pipe.add_lane(1, 1);
        let (parked, started, gate) = crate::writeback::tests::parked_task();
        pipe.submit_aux(neighbour, parked);
        started.recv().unwrap();
        engine.attach_pipeline(pipe.clone(), 1);
        let deferred: Vec<bool> = (0..5)
            .map(|_| engine.checkpoint(&mut vee, &store).unwrap().deferred)
            .collect();
        // Every second capture finds the depth-1 lane full, settles it
        // and commits itself before the call returns.
        assert_eq!(deferred, vec![true, false, true, false, true]);
        assert_eq!(engine.stats().inline_fallbacks, 2);
        assert_eq!(engine.inflight(), 1);
        engine.flush().unwrap();
        assert_eq!(
            engine.images().map(|m| m.counter).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5],
            "fallbacks must not break counter order"
        );
        drop(gate);
        pipe.drain(neighbour);
    }

    /// Whatever fails once the session is quiesced, the session runs
    /// again, the failure is counted, and the dirty pages the failed
    /// capture took are not lost to the next image.
    #[test]
    fn a_failed_snapshot_point_resumes_the_session_and_forces_a_full() {
        let plane = FaultPlan::new(19)
            .always(sites::LSFS_JOURNAL_COMMIT, IoFault::Enospc)
            .build();
        plane.disarm();
        let (mut vee, mut engine, p) = session(EngineConfig::default(), &plane);
        let store = SharedBlobStore::in_memory();
        let addr = vee.mmap(p, 4096, Prot::ReadWrite).unwrap();
        vee.mem_write(p, addr, &[1]).unwrap();
        engine.checkpoint(&mut vee, &store).unwrap();

        vee.mem_write(p, addr, &[2]).unwrap();
        plane.arm();
        assert_eq!(
            engine.checkpoint(&mut vee, &store).unwrap_err(),
            FsError::NoSpace
        );
        plane.disarm();
        assert_eq!(vee.process(p).unwrap().state, RunState::Runnable);
        assert_eq!(engine.stats().write_failures, 1);
        assert_eq!(
            engine.stats().checkpoints,
            1,
            "the counter was not consumed"
        );

        let retried = engine.checkpoint(&mut vee, &store).unwrap();
        assert_eq!(retried.counter, 2);
        assert!(retried.full, "the failed capture's dirty set is gone");
        assert_eq!(vee.process(p).unwrap().state, RunState::Runnable);
        let (revived, _) = crate::restore::revive(
            &mut store.lock(),
            "ckpt",
            &engine.chain_for(2).unwrap(),
            2,
            vee.clock(),
            Box::new(Lsfs::new()),
            HostPidAllocator::new(),
            &crate::restore::NetworkPolicy::default(),
        )
        .unwrap();
        assert_eq!(revived.mem_read(p, addr, 1).unwrap(), [2]);
    }

    /// A commit that fails inside the call is returned by the call, not
    /// again by `flush`, and consumes its counter like any failed
    /// commit — at every worker count the same images survive.
    #[test]
    fn a_commit_failure_within_the_call_is_reported_once() {
        let plane = FaultPlan::new(23)
            .fail_nth(sites::CHECKPOINT_IMAGE_ENCODE, 2, IoFault::TornWrite)
            .build();
        let (mut vee, mut engine, _p) = session(EngineConfig::default(), &plane);
        let store = SharedBlobStore::in_memory();
        engine.checkpoint(&mut vee, &store).unwrap();
        assert_eq!(
            engine.checkpoint(&mut vee, &store).unwrap_err(),
            FsError::Io
        );
        assert_eq!(engine.flush(), Ok(()));
        let report = engine.checkpoint(&mut vee, &store).unwrap();
        assert!(report.full && report.counter == 3);
        let stats = engine.stats();
        assert_eq!((stats.checkpoints, stats.committed), (3, 2));
        assert_eq!(stats.write_failures, 1);
        assert_eq!(
            engine.images().map(|m| m.counter).collect::<Vec<_>>(),
            vec![1, 3]
        );
    }

    #[test]
    fn async_failure_forces_full_reanchor() {
        let clock = SimClock::new();
        let mut vee = Vee::new(
            1,
            clock.shared(),
            Box::new(Lsfs::new()),
            HostPidAllocator::new(),
        );
        let mut engine = Checkpointer::with_sim_clock(
            EngineConfig {
                full_every: 100,
                commit_workers: 2,
                commit_retry_limit: 1,
                commit_retry_backoff: Duration::from_millis(1),
                ..EngineConfig::default()
            },
            clock,
        );
        // Checkpoint 2's commit fails on both attempts (checks 2 and 3
        // at the writeback site); checkpoint 3 chains through it and
        // must cascade-fail without a store write.
        engine.set_fault_plane(
            FaultPlan::new(3)
                .fail_nth(sites::CHECKPOINT_WRITEBACK, 2, IoFault::Enospc)
                .fail_nth(sites::CHECKPOINT_WRITEBACK, 3, IoFault::Enospc)
                .build(),
        );
        let store = SharedBlobStore::in_memory();
        let p = vee.spawn(None, "app").unwrap();
        let addr = vee.mmap(p, 4096, Prot::ReadWrite).unwrap();
        for i in 0..3u8 {
            vee.mem_write(p, addr, &[i + 1]).unwrap();
            engine.checkpoint(&mut vee, &store).unwrap();
        }
        assert_eq!(
            engine.flush(),
            Err(FsError::NoSpace),
            "flush surfaces the async commit failure"
        );
        let stats = engine.stats();
        assert_eq!(stats.committed, 1);
        assert_eq!(stats.write_failures, 2, "direct failure + cascade");
        assert!(!store.lock().contains("ckpt-00000002"));
        assert!(!store.lock().contains("ckpt-00000003"));
        // The chain re-anchors: the next checkpoint is forced full and
        // restorable on its own.
        let report = engine.checkpoint(&mut vee, &store).unwrap();
        assert!(report.full, "re-anchor after a lost incremental");
        assert_eq!(report.counter, 4);
        engine.flush().unwrap();
        assert_eq!(
            engine.images().map(|m| m.counter).collect::<Vec<_>>(),
            vec![1, 4]
        );
        assert_eq!(engine.chain_for(4).unwrap(), vec![4]);
    }

    #[test]
    fn downtime_excludes_writeback() {
        let (mut vee, _clock, mut engine, store) = setup();
        let p = vee.spawn(None, "app").unwrap();
        let addr = vee.mmap(p, 256 * 4096, Prot::ReadWrite).unwrap();
        vee.mem_write(p, addr, &vec![3u8; 256 * 4096]).unwrap();
        let report = engine.checkpoint(&mut vee, &store).unwrap();
        assert_eq!(
            report.downtime,
            report
                .phases
                .subset_total(&["quiesce", "capture", "fs-snapshot"])
        );
        assert!(report.phases.get("writeback") > Duration::ZERO);
    }
}
