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
use dv_lsfs::{BlobStore, FsError, SharedBlobStore};
use dv_obs::{names, Obs};
use dv_time::{Duration, PhaseBreakdown, PhaseTimer, SimClock, Sleeper, Timestamp};
use dv_vee::{FdObject, Page, Process, RunState, Signal, SockState, Vee};

use crate::image::{CheckpointImage, FdRecord, ImageKind, ProcessRecord, SocketRecord};
use crate::restore::stored_meta;
use crate::writeback::{CommitPipeline, LaneId, PipelineConfig};

/// Hidden directory unlinked-open files are relinked into.
pub const RELINK_DIR: &str = "/.dejaview";

/// Upper bound on pre-quiesce waiting.
const PRE_QUIESCE_TIMEOUT: Duration = Duration::from_millis(100);

/// Step session time advances by while pre-quiescing.
const PRE_QUIESCE_STEP: Duration = Duration::from_millis(1);

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
    /// Compress images before storing. An image whose plaintext would
    /// exceed [`MAX_DECOMPRESSED`](crate::compress::MAX_DECOMPRESSED),
    /// which revive refuses, fails its commit with
    /// [`FsError::FileTooLarge`] instead.
    pub compress: bool,
    /// Ablation: copy page contents eagerly during capture instead of
    /// the deferred COW capture.
    pub disable_cow: bool,
    /// Ablation: settle the image's commit *before* resuming the
    /// session, so writeback counts as downtime.
    pub disable_deferred_writeback: bool,
    /// Ablation: skip the pre-snapshot file system sync, leaving all
    /// dirty data to be written during the snapshot (downtime) window.
    pub disable_pre_snapshot: bool,
    /// Worker threads in the pool [`EngineConfig::commit_pool`] builds.
    /// `0` (the default) is no threads: the session thread runs the
    /// commit steps itself, after resume. `>= 1` moves them — encode
    /// (and compression), the in-order store write — off the
    /// session thread. What is stored, which checkpoints survive a
    /// fault, and how a failed commit is reported (counted when the
    /// engine reaps it, returned by [`Checkpointer::flush`]) do not
    /// depend on the count.
    pub commit_workers: usize,
    /// Maximum captures pending on the engine's lane before
    /// backpressure: the session thread settles the lane and the new
    /// capture before it moves on (bounds captured-page memory).
    pub commit_queue_depth: usize,
    /// Store-write retries per commit in the pool this config builds.
    pub commit_retry_limit: u32,
    /// Backoff before a commit retry; doubles per attempt.
    pub commit_retry_backoff: Duration,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            full_every: 100,
            compress: false,
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

impl EngineConfig {
    /// Builds the commit pool a lone session's engines share — its own
    /// and every revived session's: `commit_workers` threads writing
    /// into `store` with this config's retries and compression. A
    /// multi-tenant host builds its pool from its own config instead.
    pub fn commit_pool(&self, store: SharedBlobStore, clock: &SimClock) -> Arc<CommitPipeline> {
        Arc::new(CommitPipeline::new(
            PipelineConfig {
                workers: self.commit_workers,
                retry_limit: self.commit_retry_limit,
                retry_backoff: self.commit_retry_backoff,
                compress: self.compress,
            },
            store,
            Sleeper::Sim(clock.clone()),
        ))
    }
}

/// Metadata the engine keeps about each stored image.
#[derive(Clone, PartialEq, Eq, Debug)]
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
    /// Whether this was a full checkpoint.
    pub full: bool,
}

/// The checkpoint engine for one session. It commits through the lane
/// it opens on its pool when constructed; dropping it settles the lane
/// and closes it.
pub struct Checkpointer {
    config: EngineConfig,
    blob_prefix: String,
    counter: u64,
    images: BTreeMap<u64, ImageMeta>,
    relink_seq: u64,
    plane: FaultPlane,
    /// The pool this engine commits through, and its lane there.
    pool: Arc<CommitPipeline>,
    lane: LaneId,
    force_full: bool,
    sleeper: Sleeper,
    last_async_error: Option<FsError>,
    obs: Obs,
}

impl Checkpointer {
    /// Creates an engine committing into `pool`'s store on a lane of
    /// its own, with `commit_queue_depth` as the lane's quota. The
    /// pre-quiesce wait advances `clock` instead of really sleeping.
    pub fn new(config: EngineConfig, pool: Arc<CommitPipeline>, clock: SimClock) -> Self {
        let lane = pool.add_lane(config.commit_queue_depth);
        Checkpointer {
            config,
            blob_prefix: "ckpt".to_string(),
            counter: 0,
            images: BTreeMap::new(),
            relink_seq: 0,
            plane: FaultPlane::disabled(),
            pool,
            lane,
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

    /// The pool this engine commits through; sessions revived from
    /// this one open their engines' lanes on it too.
    pub fn pool(&self) -> &Arc<CommitPipeline> {
        &self.pool
    }

    /// This engine's lane of [`Checkpointer::pool`].
    pub fn lane(&self) -> LaneId {
        self.lane
    }

    /// Commits still pending in the pipeline.
    pub fn inflight(&self) -> usize {
        self.pool.inflight(self.lane)
    }

    /// Barrier: blocks until every pending commit has resolved, then
    /// folds the outcomes into the image metadata and the registry.
    ///
    /// # Errors
    ///
    /// Returns the first commit failure reaped since the previous
    /// flush; at every worker count this is the one call that returns
    /// a commit failure (the session keeps running either way; the
    /// failed image and any incrementals chained through it are not
    /// retained, and the next checkpoint re-anchors with a forced full).
    pub fn flush(&mut self) -> Result<(), FsError> {
        self.pool.drain(self.lane);
        self.reap();
        self.last_async_error.take().map_or(Ok(()), Err)
    }

    /// Folds already-resolved commits into the engine without
    /// blocking. Successful commits become visible in
    /// [`Checkpointer::images`] here — and only here — so the metadata
    /// map grows in counter order. A failure is counted here and kept
    /// for [`Checkpointer::flush`].
    fn reap(&mut self) {
        for outcome in self.pool.take_finished(self.lane) {
            self.obs
                .add(names::CHECKPOINT_ASYNC_COMMIT_NANOS, outcome.commit_nanos);
            match outcome.result {
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
                    self.obs.incr(names::CHECKPOINT_COMMITTED);
                    self.obs.add(names::CHECKPOINT_STORED_BYTES, stored_bytes);
                    self.obs.add(names::CHECKPOINT_RAW_BYTES, raw_bytes);
                }
                Err(e) => {
                    self.note_lost_checkpoint();
                    self.last_async_error.get_or_insert(e.as_fs_error());
                }
            }
        }
        self.obs.gauge_set(
            names::CHECKPOINT_QUEUE_DEPTH,
            self.pool.inflight(self.lane) as u64,
        );
    }

    /// A quiesced checkpoint did not become an image: its dirty-page
    /// set is gone, so the next checkpoint must be full.
    fn note_lost_checkpoint(&mut self) {
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

    /// Rebuilds the history from the images stored under `blob_prefix`,
    /// the one place a checkpoint history is kept (DESIGN.md §6): every
    /// blob named `{blob_prefix}-{counter:08}` that [`load_image`]
    /// accepts and whose header names the same counter, with the time
    /// and kind its header gives, less each image whose chain does not
    /// resolve. The engine adopts `blob_prefix`, resumes past every
    /// counter a blob under it or one of `snapshots` (the session file
    /// system's snapshot points) names, and takes its next checkpoint
    /// full: it holds no dirty-page state of the processes its images
    /// captured. Call it before the engine's first checkpoint.
    ///
    /// [`load_image`]: crate::load_image
    pub fn reopen(&mut self, blob_prefix: &str, store: &mut BlobStore, snapshots: &[u64]) {
        let mut counters: Vec<u64> = store
            .names()
            .iter()
            .filter_map(|name| {
                let digits = name.strip_prefix(blob_prefix)?.strip_prefix('-')?;
                let counter = digits.parse().ok()?;
                (format!("{counter:08}") == digits).then_some(counter)
            })
            .collect();
        counters.sort_unstable();
        self.images.clear();
        for &counter in &counters {
            let Some(meta) = stored_meta(store, blob_prefix, counter) else {
                continue;
            };
            let resolves = match meta.kind {
                ImageKind::Full => true,
                ImageKind::Incremental { prev } => {
                    prev < counter && self.images.contains_key(&prev)
                }
            };
            if resolves {
                self.images.insert(counter, meta);
            }
        }
        self.blob_prefix = blob_prefix.to_string();
        self.counter = counters.iter().chain(snapshots).copied().max().unwrap_or(0);
        self.force_full = true;
    }

    /// Takes one checkpoint of `vee`, storing the image in the pool's
    /// store.
    ///
    /// Capture, snapshot and resume happen here; the captured image
    /// then takes the engine's lane of its commit pipeline, and its
    /// outcome reaches the engine only through that lane, at every
    /// worker count: [`Checkpointer::images`] lists the image once its
    /// commit is reaped, and [`Checkpointer::flush`] returns a failed
    /// commit. When the session thread ran the steps itself — the pool
    /// has no workers, the lane was full, or write-back deferral is
    /// ablated — the commit is reaped before the call returns.
    ///
    /// # Errors
    ///
    /// Returns the file system error if the pre-snapshot sync fails, or
    /// if a relink or the snapshot point fails: only what fails before
    /// the capture reaches the pipeline, and the counter is not
    /// consumed. Whatever fails once the session is quiesced, every
    /// process that was runnable is running again when this returns,
    /// the failure is counted in `checkpoint.write_failures`, and the
    /// next checkpoint is full.
    pub fn checkpoint(&mut self, vee: &mut Vee) -> Result<CheckpointReport, FsError> {
        // Absorb any commits that resolved since the last call: a failed
        // one forces this checkpoint full so the chain re-anchors.
        self.reap();
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
        while !vee.all_signal_ready() && waited < PRE_QUIESCE_TIMEOUT {
            self.sleeper.sleep(PRE_QUIESCE_STEP);
            waited += PRE_QUIESCE_STEP;
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
            self.submit(image, !defer);
            pages_saved
        });
        if !defer {
            timer.enter("resume");
            resume(vee);
        }
        let pages_saved = match submitted {
            Ok(pages_saved) => pages_saved,
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
        // A commit the session thread ran is reaped here, so `images()`
        // is current on return; a failed one forces the next full.
        self.reap();
        let phases = timer.finish();
        let mut downtime = phases.subset_total(&["quiesce", "capture", "fs-snapshot"]);
        if !defer {
            downtime += phases.get("writeback");
        }
        self.observe_checkpoint(&phases, downtime, full);
        Ok(CheckpointReport {
            counter,
            phases,
            downtime,
            pages_saved,
            full,
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
                    .filter_map(|(addr, page)| page.map(|p| (addr, Page::from(*p))))
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

    /// Hands a capture to the engine's lane, and settles the lane
    /// before returning when `now` asks for it (the ablation) or the
    /// lane was full; on a pool with no workers `enqueue` runs the
    /// steps on this thread.
    fn submit(&mut self, image: CheckpointImage, now: bool) {
        let (pipe, lane) = (&self.pool, self.lane);
        // Backpressure: a full lane is settled before it takes another
        // capture, and this capture before the session moves on, so
        // captured-page memory stays bounded by the quota and commit
        // order stays strict.
        let full_lane = !pipe.has_capacity(lane);
        if full_lane {
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
        self.obs.incr(names::CHECKPOINT_QUEUED);
        if now || full_lane {
            pipe.drain(lane);
        }
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

impl Drop for Checkpointer {
    /// Settles the lane — running its ready steps on this thread — and
    /// closes it. While unwinding the lane is left to the pool instead:
    /// waiting on it there could hang, and a second panic would abort.
    fn drop(&mut self) {
        if !std::thread::panicking() {
            self.pool.remove_lane(self.lane);
        }
    }
}

fn record_process(
    process: &Process,
    pages: Vec<(u64, Page)>,
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
    use dv_vee::{HostPidAllocator, Prot, PAGE_SIZE};

    fn setup() -> (Vee, SimClock, Checkpointer, SharedBlobStore) {
        let clock = SimClock::new();
        let vee = Vee::new(
            1,
            clock.shared(),
            Box::new(Lsfs::new()),
            HostPidAllocator::new(),
        );
        let config = EngineConfig {
            full_every: 4,
            ..EngineConfig::default()
        };
        let (engine, store) = engine_on(config, &clock);
        (vee, clock, engine, store)
    }

    /// An engine with `config` on a pool of its own over a fresh store.
    fn engine_on(config: EngineConfig, clock: &SimClock) -> (Checkpointer, SharedBlobStore) {
        let store = SharedBlobStore::in_memory();
        let pool = config.commit_pool(store.clone(), clock);
        let mut engine = Checkpointer::new(config, pool, clock.clone());
        engine.set_obs(Obs::sim());
        (engine, store)
    }

    /// Reads counter `name` off the engine's registry.
    fn count(engine: &Checkpointer, name: &str) -> u64 {
        engine.obs.counter(name)
    }

    #[test]
    fn checkpoint_produces_image_and_resumes() {
        let (mut vee, _clock, mut engine, store) = setup();
        let p = vee.spawn(None, "app").unwrap();
        let addr = vee.mmap(p, 8192, Prot::ReadWrite).unwrap();
        vee.mem_write(p, addr, b"state").unwrap();
        let report = engine.checkpoint(&mut vee).unwrap();
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
        let (mut vee, _clock, mut engine, _) = setup();
        let p = vee.spawn(None, "app").unwrap();
        let addr = vee.mmap(p, 16 * 4096, Prot::ReadWrite).unwrap();
        vee.mem_write(p, addr, &vec![1u8; 16 * 4096]).unwrap();
        let full = engine.checkpoint(&mut vee).unwrap();
        assert_eq!(full.pages_saved, 16);
        // Touch two pages.
        vee.mem_write(p, addr + 4096, b"x").unwrap();
        vee.mem_write(p, addr + 5 * 4096, b"y").unwrap();
        let inc = engine.checkpoint(&mut vee).unwrap();
        assert!(!inc.full);
        assert_eq!(inc.pages_saved, 2);
        let raw = |counter| engine.image_meta(counter).unwrap().raw_bytes;
        assert!(raw(inc.counter) < raw(full.counter) / 4);
        // No writes: empty incremental.
        let idle = engine.checkpoint(&mut vee).unwrap();
        assert_eq!(idle.pages_saved, 0);
    }

    #[test]
    fn full_checkpoints_recur_periodically() {
        let (mut vee, _clock, mut engine, _) = setup();
        vee.spawn(None, "app").unwrap();
        let mut fulls = Vec::new();
        for _ in 0..9 {
            fulls.push(engine.checkpoint(&mut vee).unwrap().full);
        }
        assert_eq!(
            fulls,
            vec![true, false, false, false, true, false, false, false, true]
        );
    }

    #[test]
    fn chain_resolution() {
        let (mut vee, _clock, mut engine, _) = setup();
        vee.spawn(None, "app").unwrap();
        for _ in 0..6 {
            engine.checkpoint(&mut vee).unwrap();
        }
        assert_eq!(engine.chain_for(3).unwrap(), vec![1, 2, 3]);
        assert_eq!(engine.chain_for(5).unwrap(), vec![5]);
        assert_eq!(engine.chain_for(6).unwrap(), vec![5, 6]);
        assert!(engine.chain_for(99).is_none());
    }

    #[test]
    fn counter_lookup_by_time() {
        let (mut vee, clock, mut engine, _) = setup();
        vee.spawn(None, "app").unwrap();
        for _ in 0..3 {
            clock.advance(Duration::from_secs(1));
            engine.checkpoint(&mut vee).unwrap();
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
        let (mut vee, _clock, mut engine, _) = setup();
        let p = vee.spawn(None, "io").unwrap();
        vee.enter_disk_sleep(p, Duration::from_millis(20)).unwrap();
        let report = engine.checkpoint(&mut vee).unwrap();
        // The engine advanced the clock past the sleep and stopped the
        // process cleanly.
        assert!(report.phases.get("pre-checkpoint") > Duration::ZERO);
        assert_eq!(vee.process(p).unwrap().state, RunState::Runnable);
    }

    #[test]
    fn fs_snapshot_ties_to_counter() {
        let (mut vee, _clock, mut engine, _) = setup();
        vee.spawn(None, "app").unwrap();
        vee.fs.write_all("/doc", b"v1").unwrap();
        engine.checkpoint(&mut vee).unwrap();
        vee.fs.write_all("/doc", b"v2").unwrap();
        engine.checkpoint(&mut vee).unwrap();
        // The Lsfs inside the VEE has snapshots 1 and 2; verified at the
        // session layer (core) which holds a typed handle. Here we check
        // the counters advanced.
        assert_eq!(engine.images().count(), 2);
    }

    #[test]
    fn relinks_unlinked_open_files() {
        let (mut vee, _clock, mut engine, _) = setup();
        let p = vee.spawn(None, "app").unwrap();
        vee.fs.write_all("/tmp_scratch", b"precious bytes").unwrap();
        let fd = vee.open(p, "/tmp_scratch").unwrap();
        vee.unlink("/tmp_scratch").unwrap();
        let _ = fd;
        engine.checkpoint(&mut vee).unwrap();
        assert_eq!(count(&engine, names::CHECKPOINT_RELINKS), 1);
        // The relinked name exists in the live fs (and so in the
        // snapshot taken at the same counter).
        let entries = vee.fs.readdir(RELINK_DIR).unwrap();
        assert_eq!(entries.len(), 1);
        assert!(entries[0].name.starts_with("relink-1-"));
    }

    #[test]
    fn compression_reduces_stored_size() {
        let (mut vee, clock, _, _) = setup();
        let config = EngineConfig {
            compress: true,
            ..EngineConfig::default()
        };
        let (mut engine, _store) = engine_on(config, &clock);
        let p = vee.spawn(None, "app").unwrap();
        let addr = vee.mmap(p, 64 * 4096, Prot::ReadWrite).unwrap();
        vee.mem_write(p, addr, &vec![7u8; 64 * 4096]).unwrap();
        let report = engine.checkpoint(&mut vee).unwrap();
        let meta = engine.image_meta(report.counter).unwrap();
        assert!(meta.stored_bytes < meta.raw_bytes / 10);
    }

    /// Revive refuses to decompress more than `MAX_DECOMPRESSED`, so a
    /// compressing engine does not store such an image: the commit
    /// fails, is counted, `flush` returns it, and the next checkpoint
    /// is full.
    #[test]
    fn an_image_revive_would_refuse_is_not_stored() {
        let (mut vee, clock, _, _) = setup();
        let config = EngineConfig {
            compress: true,
            full_every: 4,
            ..EngineConfig::default()
        };
        let (mut engine, store) = engine_on(config, &clock);
        let p = vee.spawn(None, "app").unwrap();
        // One page more than the limit holds, all sharing one buffer.
        let pages = (crate::compress::MAX_DECOMPRESSED / PAGE_SIZE + 1) as u64;
        let len = pages * PAGE_SIZE as u64;
        let addr = vee.mmap(p, len, Prot::ReadWrite).unwrap();
        let page = Page::from([1u8; PAGE_SIZE]);
        let mem = &mut vee.process_mut(p).unwrap().mem;
        for i in 0..pages {
            mem.install_page(addr + i * PAGE_SIZE as u64, page.clone());
        }
        engine.checkpoint(&mut vee).unwrap();
        assert_eq!(count(&engine, names::CHECKPOINT_WRITE_FAILURES), 1);
        assert_eq!(engine.flush(), Err(FsError::FileTooLarge));
        assert!(!store.lock().contains("ckpt-00000001"));
        assert!(vee.munmap(p, addr, len).unwrap());
        let report = engine.checkpoint(&mut vee).unwrap();
        assert!(report.full, "the next checkpoint re-anchors the chain");
        assert!(store.lock().contains("ckpt-00000002"));
    }

    /// A fresh engine reopened over the store lists what the writer
    /// listed, field for field, and re-anchors with a full.
    #[test]
    fn reopen_rebuilds_the_history_from_the_store() {
        let (mut vee, clock, mut engine, store) = setup();
        vee.spawn(None, "app").unwrap();
        for _ in 0..6 {
            clock.advance(Duration::from_secs(1));
            engine.checkpoint(&mut vee).unwrap();
        }
        let reopened = |snapshots: &[u64]| {
            let mut fresh = Checkpointer::new(
                EngineConfig::default(),
                engine.pool().clone(),
                SimClock::new(),
            );
            fresh.reopen("ckpt", &mut store.lock(), snapshots);
            fresh
        };
        let mut restored = reopened(&[]);
        assert!(restored.images().eq(engine.images()));
        assert_eq!(restored.chain_for(6), engine.chain_for(6));
        assert_eq!(
            restored.counter_at_or_before(Timestamp::from_secs(3)),
            engine.counter_at_or_before(Timestamp::from_secs(3))
        );
        let report = restored.checkpoint(&mut vee).unwrap();
        assert_eq!((report.counter, report.full), (7, true));

        // A name off the pattern is not read; a blob whose header names
        // another counter is refused, and the numbering still resumes
        // past it and past every snapshot point.
        let six = store.lock().get("ckpt-00000006").unwrap().to_vec();
        store.lock().put("ckpt-6", six.clone()).unwrap();
        store.lock().put("ckpt-00000009", six).unwrap();
        // Image 2 is gone: 3 and 4 chain through it.
        store.lock().delete("ckpt-00000002");
        let mut restored = reopened(&[12]);
        let listed: Vec<u64> = restored.images().map(|m| m.counter).collect();
        assert_eq!(listed, [1, 5, 6, 7]);
        assert_eq!(restored.checkpoint(&mut vee).unwrap().counter, 13);
    }

    /// Each ablation puts work back inside the stop window. Checked by
    /// what the checkpoint did there, not by comparing wall-clock
    /// downtimes, which a deschedule spike inflates at random.
    #[test]
    fn ablations_move_work_into_the_stop_window() {
        const PAGES: usize = 64;
        // The report, the commits left pending on the parked pool when
        // the call returned, and the copies the session paid after it.
        let run = |config: EngineConfig| -> (CheckpointReport, usize, u64) {
            let (pipe, neighbour, gate) = parked_pool(0);
            let (mut vee, mut engine, p) = session_on(config, &FaultPlane::disabled(), &pipe);
            let addr = vee.mmap(p, (PAGES * 4096) as u64, Prot::ReadWrite).unwrap();
            vee.mem_write(p, addr, &vec![5u8; PAGES * 4096]).unwrap();
            engine.checkpoint(&mut vee).unwrap();
            vee.mem_write(p, addr, &vec![6u8; PAGES / 2 * 4096])
                .unwrap();
            let report = engine.checkpoint(&mut vee).unwrap();
            let pending = engine.inflight();
            // The first write after resume copies a page only if a
            // pending capture still shares it.
            let copies = |vee: &Vee| vee.process(p).unwrap().mem.stats().cow_copies;
            let before = copies(&vee);
            vee.mem_write(p, addr, &[7]).unwrap();
            let cow_copies = copies(&vee) - before;
            engine.flush().unwrap();
            assert_eq!(count(&engine, names::CHECKPOINT_INLINE_FALLBACKS), 0);
            drop(gate);
            pipe.drain(neighbour);
            (report, pending, cow_copies)
        };
        let order = |report: &CheckpointReport| {
            let names: Vec<&str> = report.phases.phases().iter().map(|p| p.0).collect();
            names.join(" ")
        };
        let stopped = ["quiesce", "capture", "fs-snapshot"];

        let (optimized, pending, cow_copies) = run(EngineConfig::default());
        assert_eq!(optimized.pages_saved, PAGES / 2, "the dirty subset");
        assert_eq!(pending, 2, "the commits are left to the pool");
        assert_eq!(
            order(&optimized),
            "pre-checkpoint quiesce capture fs-snapshot resume writeback"
        );
        assert_eq!(optimized.downtime, optimized.phases.subset_total(&stopped));
        assert_eq!(cow_copies, 1, "the session pays the copy after resume");

        let no_incremental = run(EngineConfig {
            full_every: 1,
            ..EngineConfig::default()
        })
        .0;
        assert!(no_incremental.full);
        assert_eq!(no_incremental.pages_saved, PAGES, "every resident page");

        let (no_defer, pending, _) = run(EngineConfig {
            disable_deferred_writeback: true,
            ..EngineConfig::default()
        });
        assert_eq!(pending, 0, "the commit settled before resume");
        assert_eq!(
            order(&no_defer),
            "pre-checkpoint quiesce capture fs-snapshot writeback resume"
        );
        assert_eq!(
            no_defer.downtime,
            no_defer.phases.subset_total(&stopped) + no_defer.phases.get("writeback")
        );

        let (_, pending, cow_copies) = run(EngineConfig {
            disable_cow: true,
            ..EngineConfig::default()
        });
        assert_eq!(pending, 2);
        assert_eq!(cow_copies, 0, "the capture copied while stopped");
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
        let config = EngineConfig {
            disable_cow: true,
            disable_deferred_writeback: true,
            disable_pre_snapshot: true,
            full_every: 1,
            ..EngineConfig::default()
        };
        let (mut engine, store) = engine_on(config, &clock);
        let p = vee.spawn(None, "app").unwrap();
        let addr = vee.mmap(p, 4096, Prot::ReadWrite).unwrap();
        vee.mem_write(p, addr, b"ablated but correct").unwrap();
        let report = engine.checkpoint(&mut vee).unwrap();
        let image =
            crate::restore::load_image(&mut store.lock(), "ckpt", report.counter, |_, _| true)
                .unwrap();
        assert_eq!(&image.processes[0].pages[0].1[..19], b"ablated but correct");
    }

    /// A session of one process over an `Lsfs` carrying `plane`, and
    /// an engine with `config` on a pool of its own over a fresh store,
    /// on the same clock.
    fn session(
        config: EngineConfig,
        plane: &FaultPlane,
    ) -> (Vee, Checkpointer, dv_vee::Vpid, SharedBlobStore) {
        let clock = SimClock::new();
        let store = SharedBlobStore::in_memory();
        let pool = config.commit_pool(store.clone(), &clock);
        let (vee, engine, p) = session_on(config, plane, &pool);
        (vee, engine, p, store)
    }

    /// A session as [`session`] builds it, with its engine on `pool`.
    fn session_on(
        config: EngineConfig,
        plane: &FaultPlane,
        pool: &Arc<CommitPipeline>,
    ) -> (Vee, Checkpointer, dv_vee::Vpid) {
        let clock = SimClock::new();
        let mut fs = Lsfs::new();
        fs.set_fault_plane(plane.clone());
        let mut vee = Vee::new(1, clock.shared(), Box::new(fs), HostPidAllocator::new());
        let p = vee.spawn(None, "app").unwrap();
        let mut engine = Checkpointer::new(config, pool.clone(), clock);
        engine.set_obs(Obs::sim());
        engine.set_fault_plane(plane.clone());
        (vee, engine, p)
    }

    /// A one-worker pool over a fresh store whose worker is parked on a
    /// neighbour's lane: nothing commits unless the session thread does
    /// it. Returns the pool, the neighbour's lane and the gate; drop the
    /// gate, then drain the neighbour, to release the worker.
    fn parked_pool(retry_limit: u32) -> (Arc<CommitPipeline>, LaneId, std::sync::mpsc::Sender<()>) {
        let pipe = Arc::new(CommitPipeline::new(
            PipelineConfig {
                workers: 1,
                retry_limit,
                retry_backoff: Duration::ZERO,
                compress: false,
            },
            SharedBlobStore::in_memory(),
            Sleeper::Wall,
        ));
        let neighbour = pipe.add_lane(1);
        let (parked, started, gate) = crate::writeback::tests::parked_task();
        pipe.submit_aux(neighbour, parked);
        started.recv().unwrap();
        (pipe, neighbour, gate)
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
            let (mut vee, mut engine, p, store) = session(config, &FaultPlane::disabled());
            let addr = vee.mmap(p, 32 * 4096, Prot::ReadWrite).unwrap();
            for i in 0..5u8 {
                vee.mem_write(p, addr + u64::from(i) * 4096, &vec![i + 1; 4096])
                    .unwrap();
                let report = engine.checkpoint(&mut vee).unwrap();
                if workers == 0 {
                    // The session thread committed it before returning.
                    assert!(engine.image_meta(report.counter).unwrap().raw_bytes > 0);
                }
            }
            engine.flush().unwrap();
            let c = |name| count(&engine, name);
            assert_eq!(
                (c(names::CHECKPOINT_QUEUED), c(names::CHECKPOINT_COMMITTED)),
                (5, 5)
            );
            assert_eq!(
                (
                    c(names::CHECKPOINT_WRITE_FAILURES),
                    c(names::CHECKPOINT_INLINE_FALLBACKS)
                ),
                (0, 0)
            );
            let (stored, raw) = (
                c(names::CHECKPOINT_STORED_BYTES),
                c(names::CHECKPOINT_RAW_BYTES),
            );
            assert!(stored > 0 && raw > stored);
            engine
                .images()
                .map(|m| (m.counter, store.lock().get(&m.blob).unwrap().to_vec()))
                .collect()
        };
        let on_the_caller = run(0);
        assert_eq!(on_the_caller.len(), 5);
        assert!(on_the_caller[0].1[0] <= 0x01, "one RLE stream");
        assert_eq!(on_the_caller, run(2), "same bytes from two workers");
    }

    #[test]
    fn a_full_lane_is_settled_by_the_session_thread() {
        let config = EngineConfig {
            commit_queue_depth: 1,
            ..EngineConfig::default()
        };
        let (pipe, neighbour, gate) = parked_pool(0);
        let (mut vee, mut engine, _p) = session_on(config, &FaultPlane::disabled(), &pipe);
        let pending: Vec<usize> = (0..5)
            .map(|_| {
                engine.checkpoint(&mut vee).unwrap();
                engine.inflight()
            })
            .collect();
        // Every second capture finds the depth-1 lane full, settles it
        // and commits itself before the call returns.
        assert_eq!(pending, vec![1, 0, 1, 0, 1]);
        assert_eq!(count(&engine, names::CHECKPOINT_INLINE_FALLBACKS), 2);
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
        let (mut vee, mut engine, p, store) = session(EngineConfig::default(), &plane);
        let addr = vee.mmap(p, 4096, Prot::ReadWrite).unwrap();
        vee.mem_write(p, addr, &[1]).unwrap();
        engine.checkpoint(&mut vee).unwrap();

        vee.mem_write(p, addr, &[2]).unwrap();
        plane.arm();
        assert_eq!(engine.checkpoint(&mut vee).unwrap_err(), FsError::NoSpace);
        plane.disarm();
        assert_eq!(vee.process(p).unwrap().state, RunState::Runnable);
        assert_eq!(count(&engine, names::CHECKPOINT_WRITE_FAILURES), 1);
        assert_eq!(
            count(&engine, names::CHECKPOINT_COUNT),
            1,
            "the counter was not consumed"
        );

        let retried = engine.checkpoint(&mut vee).unwrap();
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

    /// A failed commit reaches the caller one way at every worker
    /// count: the call that captured it returns `Ok`, `flush` returns
    /// the failure once, and its counter is consumed.
    #[test]
    fn a_failed_commit_is_returned_once_by_flush() {
        for workers in 0..3 {
            let plane = FaultPlan::new(23)
                .fail_nth(sites::CHECKPOINT_IMAGE_ENCODE, 2, IoFault::TornWrite)
                .build();
            let config = EngineConfig {
                commit_workers: workers,
                ..EngineConfig::default()
            };
            let (mut vee, mut engine, _p, _store) = session(config, &plane);
            engine.checkpoint(&mut vee).unwrap();
            engine.checkpoint(&mut vee).unwrap();
            assert_eq!(engine.flush(), Err(FsError::Io), "workers={workers}");
            assert_eq!(engine.flush(), Ok(()), "returned once");
            let report = engine.checkpoint(&mut vee).unwrap();
            assert!(report.full && report.counter == 3);
            engine.flush().unwrap();
            let c = |name| count(&engine, name);
            assert_eq!(
                (c(names::CHECKPOINT_COUNT), c(names::CHECKPOINT_COMMITTED)),
                (3, 2)
            );
            assert_eq!(c(names::CHECKPOINT_WRITE_FAILURES), 1);
            assert_eq!(
                engine.images().map(|m| m.counter).collect::<Vec<_>>(),
                vec![1, 3]
            );
        }
    }

    /// The commits stay pending on a parked pool until `flush` runs
    /// them on the session thread, so no worker races the fault plan.
    #[test]
    fn async_failure_forces_full_reanchor() {
        // Checkpoint 2's commit fails on both attempts (checks 2 and 3
        // at the writeback site); checkpoint 3 chains through it and
        // must cascade-fail without a store write.
        let plane = FaultPlan::new(3)
            .fail_nth(sites::CHECKPOINT_WRITEBACK, 2, IoFault::Enospc)
            .fail_nth(sites::CHECKPOINT_WRITEBACK, 3, IoFault::Enospc)
            .build();
        let (pipe, neighbour, gate) = parked_pool(1);
        let (mut vee, mut engine, p) = session_on(EngineConfig::default(), &plane, &pipe);
        let store = pipe.store().clone();
        let addr = vee.mmap(p, 4096, Prot::ReadWrite).unwrap();
        for i in 0..3u8 {
            vee.mem_write(p, addr, &[i + 1]).unwrap();
            engine.checkpoint(&mut vee).unwrap();
        }
        assert_eq!(engine.inflight(), 3, "every commit left to the pool");
        assert_eq!(
            engine.flush(),
            Err(FsError::NoSpace),
            "flush surfaces the async commit failure"
        );
        assert_eq!(count(&engine, names::CHECKPOINT_COMMITTED), 1);
        assert_eq!(
            count(&engine, names::CHECKPOINT_WRITE_FAILURES),
            2,
            "direct failure + cascade"
        );
        assert!(!store.lock().contains("ckpt-00000002"));
        assert!(!store.lock().contains("ckpt-00000003"));
        // The chain re-anchors: the next checkpoint is forced full and
        // restorable on its own.
        let report = engine.checkpoint(&mut vee).unwrap();
        assert!(report.full, "re-anchor after a lost incremental");
        assert_eq!(report.counter, 4);
        engine.flush().unwrap();
        assert_eq!(
            engine.images().map(|m| m.counter).collect::<Vec<_>>(),
            vec![1, 4]
        );
        assert_eq!(engine.chain_for(4).unwrap(), vec![4]);
        drop(gate);
        pipe.drain(neighbour);
    }

    #[test]
    fn downtime_excludes_writeback() {
        let (mut vee, _clock, mut engine, _) = setup();
        let p = vee.spawn(None, "app").unwrap();
        let addr = vee.mmap(p, 256 * 4096, Prot::ReadWrite).unwrap();
        vee.mem_write(p, addr, &vec![3u8; 256 * 4096]).unwrap();
        let report = engine.checkpoint(&mut vee).unwrap();
        assert_eq!(
            report.downtime,
            report
                .phases
                .subset_total(&["quiesce", "capture", "fs-snapshot"])
        );
        assert!(report.phases.get("writeback") > Duration::ZERO);
    }
}
