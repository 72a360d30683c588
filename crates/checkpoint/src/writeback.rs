//! The commit pipeline: the one way a captured image becomes a blob.
//!
//! §5.1.2's deferred writeback keeps serialization and storage writes
//! out of the downtime window. [`Checkpointer::checkpoint`](crate::Checkpointer)
//! is a cheap synchronous **capture** (COW page grab, process forest
//! walk, FS snapshot pin) followed by a **commit**: the captured image
//! is handed to a [`CommitPipeline`], whose one encode step turns the
//! image into sections and, on a compressing pool, compresses each of
//! them; the in-order commit turn then writes their concatenation — the
//! raw image, or one RLE stream whose plaintext is the raw image —
//! through the fault-instrumented store. Every image takes these steps,
//! under the same ordering gate, cascade set and retry loop; the worker
//! count only decides *who* runs them.
//!
//! **Who runs a step.** A pool with `workers >= 1` runs steps on its
//! worker threads, off the session thread. A pool with `workers == 0`
//! has no threads: [`CommitPipeline::enqueue`] and
//! [`CommitPipeline::submit_aux`] run the lane's steps on the calling
//! thread and return once the lane is idle. In between,
//! [`CommitPipeline::drain`] — the barrier behind `flush()`, the
//! backpressure fallback and the §6 write-back ablation — has the
//! waiting thread run its *own* lane's steps instead of sleeping
//! whenever one is ready, whatever the worker count. A caller never
//! runs another lane's step, so one tenant's fault or compaction never
//! stalls a neighbour's session thread. Whoever ran the steps, a
//! commit's outcome goes back one way: [`CommitPipeline::take_finished`],
//! which the lane's engine reaps. No call that ran a step returns it.
//!
//! A pipeline serves one or more **lanes**. Whoever owns the store
//! builds the pool once — a lone session from its engine config, a
//! multi-tenant host from its own — and every engine it creates opens
//! a lane on it when it is constructed and closes it when it is
//! dropped: the session's own, each session revived from it, each
//! tenant's ([`CommitPipeline::add_lane`]). Each lane carries its own
//! commit ordering, failure set, and queue-depth quota, and every
//! capture travels with its engine's fault plane and observability
//! handle, so tenants are isolated even though they share threads and
//! a store.
//!
//! Invariants:
//!
//! * **In-order commit per lane.** Blobs land in checkpoint-counter
//!   order within a lane, one at a time, no matter how encode steps
//!   interleave. A per-lane "committer" token plus a
//!   next-counter gate serializes the final fault-site check and store
//!   write, so fault-injection schedules on `checkpoint.writeback`
//!   observe the same call order at every worker count and the
//!   incremental chain never references a later image. Different
//!   lanes commit concurrently.
//! * **One fault schedule.** `checkpoint.image.encode` is consulted
//!   once per capture, in `enqueue` on the session thread, so its
//!   schedule does not depend on worker interleaving;
//!   `checkpoint.writeback` once per store-write attempt, at the
//!   in-order commit turn.
//! * **Fair scheduling.** Workers draw ready work from lanes in a
//!   round-robin ring, one task per lane per turn. Commit turns drain a
//!   FIFO of commit-ready lanes — a lane re-queues behind every other
//!   waiting lane after each commit it lands — so one tenant's retry
//!   storm cannot monopolize the committer, and picking work stays
//!   O(1) no matter how many lanes share the pool.
//! * **Bounded queue per lane.** At most `quota` captures may be
//!   pending per lane; the engine settles a full lane before handing
//!   it another capture, so memory stays bounded, ordering stays
//!   strict, and one tenant's backlog never consumes another's queue
//!   budget.
//! * **Failure cascade, per lane.** A commit that exhausts its
//!   retries marks its counter failed *in its lane*; incrementals
//!   chaining through it are failed without touching the store (their
//!   pages would be unreachable), and that lane's engine re-anchors
//!   with a forced full checkpoint. Other lanes never see the failure.
//!
//! All timing in this module goes through [`dv_time::Sleeper`] — both
//! the retry backoff *and* the enqueue-to-resolve latency measurement
//! — so a sim-clocked host run is deterministic end to end.

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use dv_fault::{sites, FaultPlane, IoFault};
use dv_lsfs::{FsError, SharedBlobStore};
use dv_obs::{names, Obs};
use dv_time::{Duration, Sleeper, Timestamp};

use crate::compress::{compress, MAX_DECOMPRESSED};
use crate::image::{encode_image_sections, CheckpointImage, ImageKind};

/// Identifies one lane (one session's engine) of a pipeline.
pub type LaneId = u64;

/// Commit-pipeline tuning, lifted from the engine or host config.
#[derive(Clone, Copy, Debug)]
pub struct PipelineConfig {
    /// Worker threads encoding and committing images;
    /// with `0` the threads that enqueue and drain run the steps.
    pub workers: usize,
    /// Store-write retries before a commit is declared failed.
    pub retry_limit: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub retry_backoff: Duration,
    /// Whether images are stored as one RLE stream.
    pub compress: bool,
}

/// What the engine needs back once a commit resolves.
#[derive(Clone, Debug)]
pub struct CommitOutcome {
    /// Checkpoint counter of the image.
    pub counter: u64,
    /// Session time of the capture.
    pub time: Timestamp,
    /// Full or incremental.
    pub kind: ImageKind,
    /// Blob name the image was (or would have been) stored under.
    pub blob: String,
    /// `Ok((raw_bytes, stored_bytes))`, or why the commit failed.
    pub result: Result<(u64, u64), CommitError>,
    /// Nanoseconds from enqueue to commit resolution, measured on the
    /// pipeline's sleeper timebase (wall or sim).
    pub commit_nanos: u64,
}

/// Why a commit failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommitError {
    /// The store write (or image encode) failed after all retries.
    Io(FsError),
    /// The image chains through counter `.0`, whose commit failed; the
    /// blob was never written.
    Cascaded(u64),
}

impl CommitError {
    /// Collapses to the underlying storage error kind.
    pub fn as_fs_error(&self) -> FsError {
        match self {
            CommitError::Io(e) => *e,
            CommitError::Cascaded(_) => FsError::Io,
        }
    }
}

/// How a fault at the `checkpoint.image.encode` site is realized.
#[derive(Clone, Copy, Debug)]
enum EncodeFault {
    /// Encode "fails"; the commit resolves as this error.
    Fail(FsError),
    /// Encode succeeds but one byte of the image is mangled.
    Corrupt,
}

/// An auxiliary unit of work scheduled on the pool (index compaction,
/// maintenance sweeps). Runs outside the pipeline lock.
pub type AuxTask = Box<dyn FnOnce() + Send>;

enum Task {
    /// Turn job `.1`'s image into the sections to store.
    Encode(LaneId, u64),
    /// Run an auxiliary closure on lane `.0`'s budget. Aux work shares
    /// the round-robin ring with commit work but is accounted separately
    /// (`aux_pending`, not `inflight`), so it never perturbs commit
    /// ordering or queue-depth backpressure.
    Aux(LaneId, AuxTask),
}

struct Job {
    counter: u64,
    time: Timestamp,
    kind: ImageKind,
    blob: String,
    image: Option<CheckpointImage>,
    encode_fault: Option<EncodeFault>,
    /// The enqueuing engine's fault plane and observability handle.
    plane: FaultPlane,
    obs: Obs,
    /// The image's sections, encoded and, on a compressing pool, each
    /// compressed: the blob is their concatenation.
    sections: Vec<Vec<u8>>,
    /// Whether the encode step has run: the job is ready to commit.
    encoded: bool,
    raw_bytes: u64,
    /// Sleeper-timebase reading at enqueue (see
    /// [`dv_time::Sleeper::now_nanos`]).
    started_nanos: u64,
}

/// Per-lane scheduling and isolation state.
struct Lane {
    /// Tasks waiting to be run, in arrival order.
    queue: VecDeque<Task>,
    next_commit: u64,
    committing: bool,
    inflight: usize,
    failed: HashSet<u64>,
    finished: Vec<CommitOutcome>,
    /// Queue-depth quota: captures pending before backpressure.
    quota: usize,
    /// Whether the lane is already queued in `commit_ready`.
    commit_queued: bool,
    /// Auxiliary tasks queued or running on this lane. Kept apart from
    /// `inflight`: aux work must not reset `next_commit` on enqueue or
    /// consume the capture queue-depth quota.
    aux_pending: usize,
}

impl Lane {
    fn busy(&self) -> bool {
        self.inflight > 0 || self.aux_pending > 0
    }
}

/// One unit of work for whoever runs it: a worker or a draining caller.
enum Step {
    Run(Task),
    /// Lane `.0`'s commit turn for job `.1`, which chains through the
    /// failed counter `.2` if that is `Some`.
    Commit(LaneId, Box<Job>, Option<u64>),
}

struct State {
    lanes: BTreeMap<LaneId, Lane>,
    next_lane: LaneId,
    jobs: BTreeMap<(LaneId, u64), Box<Job>>,
    /// Lanes with queued tasks, in round-robin order.
    ready: VecDeque<LaneId>,
    /// Lanes whose next-in-order job is ready to commit, FIFO. Kept
    /// event-driven (updated when a job is encoded or a commit
    /// lands) so picking a commit is O(1) in the lane count.
    commit_ready: VecDeque<LaneId>,
    /// Auxiliary tasks queued or running across all lanes.
    aux_inflight: usize,
    /// Workers waiting on `Shared::work`, and callers waiting on
    /// `Shared::done`: a wake-up is a system call, made for them only.
    idle_workers: usize,
    waiting_drains: usize,
    shutdown: bool,
}

impl State {
    fn lane_mut(&mut self, id: LaneId) -> &mut Lane {
        self.lanes.get_mut(&id).expect("lane registered")
    }

    fn job_mut(&mut self, lane: LaneId, seq: u64) -> &mut Job {
        self.jobs.get_mut(&(lane, seq)).expect("job present")
    }

    fn mark_ready(&mut self, id: LaneId) {
        if !self.ready.contains(&id) {
            self.ready.push_back(id);
        }
    }

    /// Queues a lane for a commit turn if its next-in-order job is
    /// encoded and its committer token is free. FIFO arrival
    /// order is the rotation: a lane that lands a commit re-queues
    /// behind every other waiting lane.
    fn mark_commit_ready(&mut self, id: LaneId) {
        let Some(lane) = self.lanes.get(&id) else {
            return;
        };
        if lane.commit_queued || lane.committing {
            return;
        }
        if self
            .jobs
            .get(&(id, lane.next_commit))
            .is_some_and(|job| job.encoded)
        {
            self.lane_mut(id).commit_queued = true;
            self.commit_ready.push_back(id);
        }
    }

    /// Claims lane `id`'s commit turn if its committer token is free
    /// and its next-in-order job is ready.
    fn claim_commit(&mut self, id: LaneId) -> Option<Step> {
        let lane = self.lanes.get_mut(&id)?;
        let next = lane.next_commit;
        if lane.committing || !self.jobs.get(&(id, next)).is_some_and(|job| job.encoded) {
            return None;
        }
        lane.committing = true;
        let job = self.jobs.remove(&(id, next)).expect("ready job present");
        let cascade_from = match job.kind {
            ImageKind::Incremental { prev } if lane.failed.contains(&prev) => Some(prev),
            _ => None,
        };
        Some(Step::Commit(id, job, cascade_from))
    }

    /// Picks a worker's next step: one task from the lane at the head
    /// of the ready ring, which then moves to the back, else a commit
    /// turn from the FIFO of commit-ready lanes. Both picks are O(1) in
    /// the lane count, so the scheduler's cost does not grow with
    /// tenants.
    fn pick(&mut self) -> Option<Step> {
        if let Some(&lane_id) = self.ready.front() {
            let lane = self.lane_mut(lane_id);
            let task = lane.queue.pop_front().expect("ready lane has tasks");
            if lane.queue.is_empty() {
                self.ready.pop_front();
            } else {
                self.ready.rotate_left(1);
            }
            return Some(Step::Run(task));
        }
        while let Some(id) = self.commit_ready.pop_front() {
            // The lane may have been removed, or a draining caller may
            // have taken the turn, since it was queued: such an entry
            // is stale and dropped.
            if let Some(lane) = self.lanes.get_mut(&id) {
                lane.commit_queued = false;
            }
            if let Some(step) = self.claim_commit(id) {
                return Some(step);
            }
        }
        None
    }

    /// Picks the next step of lane `id` alone, for a caller draining
    /// it: the lane's own thread is outside the ring's rotation. A
    /// commit turn taken here leaves the lane's `commit_ready` entry
    /// (and its `commit_queued` flag) behind for `pick` to drop, so the
    /// FIFO holds a lane at most once however many turns are taken.
    fn pick_own(&mut self, id: LaneId) -> Option<Step> {
        let lane = self.lanes.get_mut(&id)?;
        if let Some(task) = lane.queue.pop_front() {
            if lane.queue.is_empty() {
                self.ready.retain(|ready| *ready != id);
            }
            return Some(Step::Run(task));
        }
        self.claim_commit(id)
    }
}

struct Shared {
    state: Mutex<State>,
    /// Workers wait here for tasks / commit turns.
    work: Condvar,
    /// `drain` waits here for its lane to go idle.
    done: Condvar,
    store: SharedBlobStore,
    sleeper: Sleeper,
    config: PipelineConfig,
}

/// The commit pipeline behind every checkpoint image. One pipeline can
/// serve many sessions: each opens a lane with its own ordering,
/// failure set and quota, and the pool schedules work fairly across
/// lanes.
pub struct CommitPipeline {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl CommitPipeline {
    /// Spawns `config.workers` worker threads (none for `0`) writing
    /// into `store`. Retry backoff and job timing go through `sleeper`.
    pub fn new(config: PipelineConfig, store: SharedBlobStore, sleeper: Sleeper) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                lanes: BTreeMap::new(),
                next_lane: 0,
                jobs: BTreeMap::new(),
                ready: VecDeque::new(),
                commit_ready: VecDeque::new(),
                aux_inflight: 0,
                idle_workers: 0,
                waiting_drains: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            store,
            sleeper,
            config,
        });
        let workers = (0..config.workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("dv-commit-{i}"))
                    .spawn(move || shared.work_until_shutdown())
                    .expect("spawn commit worker")
            })
            .collect();
        CommitPipeline { shared, workers }
    }

    /// Worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Opens a lane with queue-depth `quota`, returning its id (never
    /// reused within this pipeline).
    pub fn add_lane(&self, quota: usize) -> LaneId {
        let mut state = self.shared.lock();
        let id = state.next_lane;
        state.next_lane += 1;
        state.lanes.insert(
            id,
            Lane {
                queue: VecDeque::new(),
                next_commit: 0,
                committing: false,
                inflight: 0,
                failed: HashSet::new(),
                finished: Vec::new(),
                quota,
                commit_queued: false,
                aux_pending: 0,
            },
        );
        id
    }

    /// Drains and removes a lane (a closed session). Unreaped outcomes
    /// are discarded; callers should `take_finished` first.
    pub fn remove_lane(&self, lane: LaneId) {
        self.drain(lane);
        let mut state = self.shared.lock();
        state.lanes.remove(&lane);
        state.ready.retain(|id| *id != lane);
        state.commit_ready.retain(|id| *id != lane);
    }

    /// Open lane ids, in order.
    pub fn lanes(&self) -> Vec<LaneId> {
        self.shared.lock().lanes.keys().copied().collect()
    }

    /// The store this pipeline writes into.
    pub fn store(&self) -> &SharedBlobStore {
        &self.shared.store
    }

    /// Captures pending in one lane.
    pub fn inflight(&self, lane: LaneId) -> usize {
        self.shared
            .lock()
            .lanes
            .get(&lane)
            .map_or(0, |l| l.inflight)
    }

    /// Whether another capture fits under the lane's queue-depth quota.
    pub fn has_capacity(&self, lane: LaneId) -> bool {
        self.shared
            .lock()
            .lanes
            .get(&lane)
            .is_some_and(|l| l.inflight < l.quota.max(1))
    }

    /// Hands a captured image to the pipeline, to be stored as `blob`.
    /// `plane` and `obs` are the enqueuing engine's: the
    /// `checkpoint.image.encode` site is consulted here, on the calling
    /// thread, and the commit's writeback checks, retries and spans
    /// report through them. On a pool without workers the calling
    /// thread runs the lane's steps and the capture has resolved when
    /// this returns.
    ///
    /// Counters must be enqueued in increasing order within a lane;
    /// they commit in that order. Lanes are independent.
    pub fn enqueue(
        &self,
        lane: LaneId,
        image: CheckpointImage,
        blob: String,
        plane: FaultPlane,
        obs: Obs,
    ) {
        let encode_fault = match plane.check(sites::CHECKPOINT_IMAGE_ENCODE) {
            None | Some(IoFault::LatencySpike) => None,
            Some(IoFault::Enospc) => Some(EncodeFault::Fail(FsError::NoSpace)),
            Some(IoFault::TornWrite) | Some(IoFault::ShortRead) => {
                Some(EncodeFault::Fail(FsError::Io))
            }
            Some(IoFault::Corrupt) => Some(EncodeFault::Corrupt),
        };
        let started_nanos = self.shared.sleeper.now_nanos();
        let mut state = self.shared.lock();
        let seq = image.counter;
        {
            let l = state.lane_mut(lane);
            if l.inflight == 0 {
                l.next_commit = seq;
            } else {
                debug_assert!(seq > l.next_commit, "counters must be monotone per lane");
            }
            l.inflight += 1;
            l.queue.push_back(Task::Encode(lane, seq));
        }
        state.jobs.insert(
            (lane, seq),
            Box::new(Job {
                counter: seq,
                time: image.time,
                kind: image.kind,
                blob,
                image: Some(image),
                encode_fault,
                plane,
                obs,
                sections: Vec::new(),
                encoded: false,
                raw_bytes: 0,
                started_nanos,
            }),
        );
        state.mark_ready(lane);
        self.hand_off(state, lane);
    }

    /// Schedules an auxiliary closure on `lane`'s budget. The closure
    /// is drawn from the same round-robin ring as the lane's commit work,
    /// so heavy maintenance (segment compaction) competes fairly with —
    /// and never starves — other tenants' commits. Aux work is
    /// accounted apart from captures: it neither consumes the
    /// queue-depth quota nor perturbs commit ordering. On a pool
    /// without workers the closure has run when this returns. Returns
    /// `false` (and drops the task) if the lane is unknown.
    pub fn submit_aux(&self, lane: LaneId, task: impl FnOnce() + Send + 'static) -> bool {
        let mut state = self.shared.lock();
        let Some(l) = state.lanes.get_mut(&lane) else {
            return false;
        };
        l.aux_pending += 1;
        l.queue.push_back(Task::Aux(lane, Box::new(task)));
        state.aux_inflight += 1;
        state.mark_ready(lane);
        self.hand_off(state, lane);
        true
    }

    /// A task is queued on `lane`: wakes a worker, or — the pool has
    /// none — runs the lane's steps here.
    fn hand_off(&self, state: MutexGuard<'_, State>, lane: LaneId) {
        self.shared.release(state, 1, false);
        if self.workers.is_empty() {
            self.drain(lane);
        }
    }

    /// Blocks until one lane's captures have all resolved (committed
    /// or failed) and its auxiliary tasks have run; whenever one of the
    /// lane's own steps is ready the calling thread runs it instead of
    /// waiting. Other lanes keep flowing, and none of their steps runs
    /// here. Outcomes stay queued for [`CommitPipeline::take_finished`].
    pub fn drain(&self, lane: LaneId) {
        let mut state = self.shared.lock();
        while state.lanes.get(&lane).is_some_and(Lane::busy) {
            state = match state.pick_own(lane) {
                Some(step) => {
                    drop(state);
                    self.shared.run(step);
                    self.shared.lock()
                }
                None => {
                    state.waiting_drains += 1;
                    let mut state = self
                        .shared
                        .done
                        .wait(state)
                        .expect("commit pipeline state poisoned");
                    state.waiting_drains -= 1;
                    state
                }
            };
        }
    }

    /// Removes and returns one lane's resolved outcomes, oldest first.
    pub fn take_finished(&self, lane: LaneId) -> Vec<CommitOutcome> {
        let mut state = self.shared.lock();
        match state.lanes.get_mut(&lane) {
            Some(l) => std::mem::take(&mut l.finished),
            None => Vec::new(),
        }
    }
}

impl Drop for CommitPipeline {
    fn drop(&mut self) {
        {
            let mut state = self.shared.lock();
            state.shutdown = true;
        }
        self.shared.work.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("commit pipeline state poisoned")
    }

    /// Ends a critical section that made `steps` steps pickable and, if
    /// `progress`, brought a lane nearer idle: wakes as many idle
    /// workers as have something to pick, and the waiting drains.
    fn release(&self, state: MutexGuard<'_, State>, steps: usize, progress: bool) {
        let (idle, draining) = (state.idle_workers, state.waiting_drains);
        drop(state);
        match steps.min(idle) {
            0 => {}
            1 => self.work.notify_one(),
            _ => self.work.notify_all(),
        }
        if progress && draining > 0 {
            self.done.notify_all();
        }
    }

    /// A worker thread's life: pick a step, run it, until shutdown
    /// finds nothing left to do.
    fn work_until_shutdown(&self) {
        loop {
            let step = {
                let mut state = self.lock();
                loop {
                    if let Some(step) = state.pick() {
                        break step;
                    }
                    if state.shutdown
                        && state.jobs.is_empty()
                        && state.aux_inflight == 0
                        && state.lanes.values().all(|l| !l.committing)
                    {
                        return;
                    }
                    state.idle_workers += 1;
                    state = self
                        .work
                        .wait(state)
                        .expect("commit pipeline state poisoned");
                    state.idle_workers -= 1;
                }
            };
            self.run(step);
        }
    }

    /// The step runner: everything that happens to a capture between
    /// `enqueue` and its outcome happens here, on whichever thread
    /// picked the step.
    fn run(&self, step: Step) {
        match step {
            Step::Run(Task::Encode(lane, seq)) => self.run_encode(lane, seq),
            Step::Run(Task::Aux(lane, task)) => self.run_aux(lane, task),
            Step::Commit(lane, job, cascade_from) => self.run_commit(lane, *job, cascade_from),
        }
    }

    fn run_encode(&self, lane: LaneId, seq: u64) {
        let (image, mut fault, plane, obs) = {
            let mut state = self.lock();
            let job = state.job_mut(lane, seq);
            let image = job.image.take().expect("image present until encode");
            (image, job.encode_fault, job.plane.clone(), job.obs.clone())
        };
        // Revive refuses to decompress more than `MAX_DECOMPRESSED`, so
        // a compressed image that large fails its commit instead of
        // being stored. One whose pages alone reach the limit fails
        // before it is encoded: the rest of the image only adds to them.
        let limit = self.config.compress.then_some(MAX_DECOMPRESSED as u64);
        if limit.is_some_and(|limit| image.page_bytes() >= limit) {
            fault = Some(EncodeFault::Fail(FsError::FileTooLarge));
        }
        let mut sections = Vec::new();
        if !matches!(fault, Some(EncodeFault::Fail(_))) {
            sections = encode_image_sections(&image);
            if matches!(fault, Some(EncodeFault::Corrupt)) {
                // One mangled byte, in the largest section.
                if let Some(victim) = sections.iter_mut().max_by_key(|s| s.len()) {
                    plane.mangle(victim);
                }
            }
        }
        drop(image); // release the COW page references promptly
        let raw_bytes: u64 = sections.iter().map(|s| s.len() as u64).sum();
        if limit.is_some_and(|limit| raw_bytes > limit) {
            fault = Some(EncodeFault::Fail(FsError::FileTooLarge));
            sections.clear();
        }
        if self.config.compress && !sections.is_empty() {
            // Each section's stream ends on a token edge, so the streams
            // concatenate into one stream of the whole image.
            let _span = obs.span("checkpoint", names::CHECKPOINT_WORKER_COMPRESS);
            for section in &mut sections {
                *section = compress(section);
            }
        }
        let mut state = self.lock();
        let job = state.job_mut(lane, seq);
        job.encode_fault = fault;
        job.raw_bytes = raw_bytes;
        job.sections = sections;
        job.encoded = true;
        state.mark_commit_ready(lane);
        self.release(state, 1, false);
    }

    fn run_aux(&self, lane: LaneId, task: AuxTask) {
        task();
        let mut state = self.lock();
        if let Some(l) = state.lanes.get_mut(&lane) {
            l.aux_pending = l.aux_pending.saturating_sub(1);
        }
        state.aux_inflight = state.aux_inflight.saturating_sub(1);
        // Every idle worker looks again: shutdown may be waiting on this.
        self.release(state, usize::MAX, true);
    }

    fn run_commit(&self, lane: LaneId, job: Job, cascade_from: Option<u64>) {
        let (config, sleeper) = (&self.config, &self.sleeper);
        let result: Result<(u64, u64), CommitError> = if let Some(prev) = cascade_from {
            Err(CommitError::Cascaded(prev))
        } else if let Some(EncodeFault::Fail(e)) = job.encode_fault {
            Err(CommitError::Io(e))
        } else {
            let mut backoff = config.retry_backoff;
            let mut attempt = 0u32;
            loop {
                let write = (|| -> Result<u64, FsError> {
                    let fault = job.plane.check(sites::CHECKPOINT_WRITEBACK);
                    match fault {
                        None | Some(IoFault::Corrupt) => {}
                        // A spike stalls whoever commits; the cost
                        // lands on the pipeline's clock.
                        Some(IoFault::LatencySpike) => sleeper.sleep(config.retry_backoff),
                        Some(IoFault::Enospc) => return Err(FsError::NoSpace),
                        Some(IoFault::TornWrite) | Some(IoFault::ShortRead) => {
                            return Err(FsError::Io)
                        }
                    }
                    // The store takes ownership of what it writes, so
                    // every attempt joins its own copy of the sections.
                    let mut bytes = job.sections.concat();
                    if fault == Some(IoFault::Corrupt) {
                        job.plane.mangle(&mut bytes);
                    }
                    let stored_bytes = bytes.len() as u64;
                    // Chunk-split and hash outside the store lock; the
                    // store emits chunk manifests when dedup is enabled.
                    self.store.put_deduped(&job.blob, bytes)?;
                    Ok(stored_bytes)
                })();
                match write {
                    Ok(stored_bytes) => break Ok((job.raw_bytes, stored_bytes)),
                    Err(e) if attempt >= config.retry_limit => break Err(CommitError::Io(e)),
                    Err(e) => {
                        attempt += 1;
                        job.obs.incr(names::CHECKPOINT_COMMIT_RETRIES);
                        job.obs.event(
                            "checkpoint",
                            names::EV_COMMIT_RETRY,
                            format!("counter={} attempt={attempt} error={e:?}", job.counter),
                        );
                        sleeper.sleep(backoff);
                        backoff = backoff + backoff;
                    }
                }
            }
        };
        let outcome = CommitOutcome {
            counter: job.counter,
            time: job.time,
            kind: job.kind,
            blob: job.blob,
            commit_nanos: sleeper.now_nanos().saturating_sub(job.started_nanos),
            result,
        };
        let mut state = self.lock();
        let l = state.lane_mut(lane);
        if outcome.result.is_err() {
            l.failed.insert(outcome.counter);
        }
        l.finished.push(outcome);
        l.next_commit += 1;
        l.committing = false;
        l.inflight -= 1;
        // The lane's next counter may already be encoded: one step. At
        // shutdown every idle worker looks again, to see if it may exit;
        // before it, waking them all would only have them contend with
        // the session threads for the lock and the cores.
        state.mark_commit_ready(lane);
        let steps = if state.shutdown { usize::MAX } else { 1 };
        self.release(state, steps, true);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::compress::decompress;
    use crate::image::{decode_image, encode_image, FdRecord, ProcessRecord};
    use dv_fault::checksum::crc32;
    use dv_fault::FaultPlan;
    use dv_time::SimClock;
    use dv_vee::{Credentials, FpuState, MemRegion, Page, Prot, Registers, SchedParams, PAGE_SIZE};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    fn pool(workers: usize) -> (CommitPipeline, SharedBlobStore) {
        let store = SharedBlobStore::in_memory();
        let config = PipelineConfig {
            workers,
            retry_limit: 2,
            retry_backoff: Duration::from_millis(1),
            compress: true,
        };
        let pipe = CommitPipeline::new(config, store.clone(), Sleeper::Sim(SimClock::new()));
        (pipe, store)
    }

    /// Enqueues counter `c` of a chain that starts with a full image
    /// at 1, to be stored as `{prefix}-{c:08}`.
    fn push(pipe: &CommitPipeline, lane: LaneId, prefix: &str, c: u64, plane: &FaultPlane) {
        let kind = if c == 1 {
            ImageKind::Full
        } else {
            ImageKind::Incremental { prev: c - 1 }
        };
        let image = CheckpointImage {
            counter: c,
            time: Timestamp::from_millis(c),
            kind,
            hostname: "t".into(),
            network_enabled: false,
            processes: Vec::new(),
            sockets: Vec::new(),
        };
        let blob = format!("{prefix}-{c:08}");
        pipe.enqueue(lane, image, blob, plane.clone(), Obs::disabled());
    }

    /// A fixed image of three processes, each with a zero page, a page
    /// of short runs and noise, and a page of one byte.
    fn three_process_image() -> CheckpointImage {
        let page = |vpid: u64, k: u64| {
            let mut bytes = [0u8; PAGE_SIZE];
            for (i, b) in bytes.iter_mut().enumerate() {
                *b = match k {
                    0 => 0,
                    1 if i / 16 % 2 == 0 => vpid as u8,
                    1 => (i * 37 % 251) as u8,
                    _ => 0xA0 | vpid as u8,
                };
            }
            Page::from(bytes)
        };
        let base = 0x10_000;
        let processes = (1..=3u64)
            .map(|vpid| ProcessRecord {
                vpid,
                parent: (vpid > 1).then_some(1),
                name: format!("proc{vpid}"),
                regs: Registers {
                    pc: 0x1000 * vpid,
                    ..Registers::default()
                },
                fpu: FpuState::default(),
                sched: SchedParams::default(),
                creds: Credentials::default(),
                blocked: 0,
                handled: vpid,
                pending: Vec::new(),
                ptraced_by: None,
                cwd: "/".into(),
                net_allowed: true,
                regions: vec![MemRegion {
                    start: base,
                    len: 3 * PAGE_SIZE as u64,
                    prot: Prot::ReadWrite,
                }],
                pages: (0..3)
                    .map(|k| (base + k * PAGE_SIZE as u64, page(vpid, k)))
                    .collect(),
                fds: vec![FdRecord::File {
                    fd: 3,
                    path: "/doc".into(),
                    offset: vpid,
                    unlinked: false,
                    relink: None,
                }],
            })
            .collect();
        CheckpointImage {
            counter: 1,
            time: Timestamp::from_millis(1),
            kind: ImageKind::Full,
            hostname: "pin".into(),
            network_enabled: false,
            processes,
            sockets: Vec::new(),
        }
    }

    /// What a pool stores for an image, whoever runs the steps: the raw
    /// image, or — compressing — its sections each compressed and joined
    /// end to end, one stream whose plaintext is the raw image. The
    /// pinned bytes are those of the chunked container earlier builds
    /// stored, less its 25 bytes of framing.
    #[test]
    fn a_committed_image_is_its_sections_joined() {
        let image = three_process_image();
        let sections = encode_image_sections(&image);
        assert_eq!(sections.len(), 5, "a header, three processes, sockets");
        for compress_images in [false, true] {
            for workers in [0, 2] {
                let store = SharedBlobStore::in_memory();
                let config = PipelineConfig {
                    workers,
                    retry_limit: 0,
                    retry_backoff: Duration::from_millis(1),
                    compress: compress_images,
                };
                let pipe =
                    CommitPipeline::new(config, store.clone(), Sleeper::Sim(SimClock::new()));
                let lane = pipe.add_lane(1);
                pipe.enqueue(
                    lane,
                    image.clone(),
                    "pin".into(),
                    FaultPlane::disabled(),
                    Obs::disabled(),
                );
                pipe.drain(lane);
                assert!(pipe.take_finished(lane)[0].result.is_ok());
                let stored = store.lock().get("pin").unwrap().to_vec();
                let pin = (stored.len(), crc32(&stored));
                if compress_images {
                    let joined: Vec<u8> = sections.iter().flat_map(|s| compress(s)).collect();
                    assert_eq!(stored, joined);
                    assert_eq!(decompress(&stored).unwrap(), encode_image(&image));
                    assert_eq!(pin, (10_866, 0x887E_F921));
                } else {
                    assert_eq!(stored, encode_image(&image));
                    assert_eq!(pin, (37_792, 0x4D1C_1036));
                }
            }
        }
    }

    /// Parks whichever thread runs the returned aux task until the
    /// sender is dropped; the receiver hears when the task has started.
    pub(crate) fn parked_task() -> (impl FnOnce() + Send, mpsc::Receiver<()>, mpsc::Sender<()>) {
        let (started_tx, started_rx) = mpsc::channel();
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let task = move || {
            started_tx.send(()).expect("test thread listens");
            let _ = gate_rx.recv();
        };
        (task, started_rx, gate_tx)
    }

    #[test]
    fn commits_land_in_counter_order() {
        let (pipe, store) = pool(4);
        let lane = pipe.add_lane(8);
        for c in 1..=6u64 {
            push(&pipe, lane, "ckpt", c, &FaultPlane::disabled());
        }
        pipe.drain(lane);
        let outcomes = pipe.take_finished(lane);
        let counters: Vec<u64> = outcomes.iter().map(|o| o.counter).collect();
        assert_eq!(counters, vec![1, 2, 3, 4, 5, 6], "in-order resolution");
        for o in &outcomes {
            assert!(o.result.is_ok());
            assert!(store.lock().contains(&o.blob));
        }
        let blob = store.lock().get("ckpt-00000003").unwrap();
        let plain = crate::compress::decompress(&blob).unwrap();
        assert_eq!(decode_image(&plain).unwrap().counter, 3);
    }

    #[test]
    fn failed_commit_cascades_to_dependents() {
        let (pipe, store) = pool(2);
        let lane = pipe.add_lane(8);
        // Every writeback from the 2nd onward fails, exhausting retries.
        let plane = FaultPlan::new(7)
            .from_nth(sites::CHECKPOINT_WRITEBACK, 2, IoFault::Enospc)
            .build();
        for c in 1..=3u64 {
            push(&pipe, lane, "ckpt", c, &plane);
        }
        pipe.drain(lane);
        let outcomes = pipe.take_finished(lane);
        assert!(outcomes[0].result.is_ok());
        assert_eq!(
            outcomes[1].result,
            Err(CommitError::Io(FsError::NoSpace)),
            "retries exhausted"
        );
        assert_eq!(
            outcomes[2].result,
            Err(CommitError::Cascaded(2)),
            "dependent fails without touching the store"
        );
        assert!(store.lock().contains("ckpt-00000001"));
        assert!(!store.lock().contains("ckpt-00000002"));
        assert!(!store.lock().contains("ckpt-00000003"));
    }

    #[test]
    fn encode_fault_resolves_without_store_write() {
        let (pipe, store) = pool(1);
        let lane = pipe.add_lane(8);
        let plane = FaultPlan::new(1)
            .always(sites::CHECKPOINT_IMAGE_ENCODE, IoFault::Enospc)
            .build();
        push(&pipe, lane, "ckpt", 1, &plane);
        pipe.drain(lane);
        let outcomes = pipe.take_finished(lane);
        assert_eq!(outcomes[0].result, Err(CommitError::Io(FsError::NoSpace)));
        assert!(!store.lock().contains("ckpt-00000001"));
        assert_eq!(plane.injected_at(sites::CHECKPOINT_WRITEBACK), 0);
    }

    #[test]
    fn lanes_commit_independently_and_in_order() {
        let (pipe, store) = pool(3);
        let lanes: Vec<LaneId> = (0..3).map(|_| pipe.add_lane(8)).collect();
        for c in 1..=4u64 {
            for &lane in &lanes {
                push(&pipe, lane, &format!("t{lane}"), c, &FaultPlane::disabled());
            }
        }
        for &lane in &lanes {
            pipe.drain(lane);
            let outcomes = pipe.take_finished(lane);
            let counters: Vec<u64> = outcomes.iter().map(|o| o.counter).collect();
            assert_eq!(counters, vec![1, 2, 3, 4], "lane {lane} in order");
            for o in &outcomes {
                assert!(o.result.is_ok());
                assert!(store.lock().contains(&o.blob));
            }
        }
    }

    #[test]
    fn lane_failure_does_not_cascade_across_lanes() {
        let (pipe, store) = pool(2);
        // The first lane's engine fails every writeback; the second's
        // is clean.
        let faulty = FaultPlan::new(5)
            .always(sites::CHECKPOINT_WRITEBACK, IoFault::Enospc)
            .build();
        let (bad_lane, ok_lane) = (pipe.add_lane(8), pipe.add_lane(8));
        for c in 1..=3u64 {
            push(&pipe, bad_lane, "bad", c, &faulty);
            push(&pipe, ok_lane, "ok", c, &FaultPlane::disabled());
        }
        pipe.drain(bad_lane);
        pipe.drain(ok_lane);
        let bad = pipe.take_finished(bad_lane);
        assert!(bad.iter().all(|o| o.result.is_err()), "faulted lane fails");
        let ok = pipe.take_finished(ok_lane);
        assert!(
            ok.iter().all(|o| o.result.is_ok()),
            "clean lane is untouched by its neighbour's failures"
        );
        for o in &ok {
            assert!(store.lock().contains(&o.blob));
        }
    }

    #[test]
    fn aux_tasks_run_without_perturbing_commit_order() {
        let (pipe, _store) = pool(2);
        let lane = pipe.add_lane(8);
        let ran = Arc::new(AtomicUsize::new(0));
        let count = |ran: &Arc<AtomicUsize>| {
            let ran = ran.clone();
            move || {
                ran.fetch_add(1, Ordering::SeqCst);
            }
        };
        // Aux before any capture: must not claim the committer gate or
        // reset next_commit for the captures that follow.
        for _ in 0..3 {
            assert!(pipe.submit_aux(lane, count(&ran)));
        }
        for c in 1..=4u64 {
            push(&pipe, lane, "ckpt", c, &FaultPlane::disabled());
            pipe.submit_aux(lane, count(&ran));
        }
        pipe.drain(lane);
        assert_eq!(ran.load(Ordering::SeqCst), 7, "all aux tasks ran");
        let counters: Vec<u64> = pipe.take_finished(lane).iter().map(|o| o.counter).collect();
        assert_eq!(counters, vec![1, 2, 3, 4], "commit order undisturbed");
        assert_eq!(pipe.shared.lock().aux_inflight, 0);
    }

    #[test]
    fn aux_tasks_do_not_consume_capture_quota() {
        let (pipe, _store) = pool(1);
        let lane = pipe.add_lane(1);
        // The single worker is parked inside an aux task; capacity must
        // still read free (quota tracks captures, not aux work).
        let (task, started, gate) = parked_task();
        pipe.submit_aux(lane, task);
        started.recv().unwrap();
        assert!(pipe.has_capacity(lane), "aux work leaves the capture quota");
        assert!(!pipe.submit_aux(99, || {}), "unknown lane refuses aux");
        drop(gate);
        pipe.drain(lane);
    }

    #[test]
    fn removed_lane_frees_its_state() {
        let (pipe, _store) = pool(1);
        let kept = pipe.add_lane(2);
        let lane = pipe.add_lane(2);
        push(&pipe, lane, "x", 1, &FaultPlane::disabled());
        pipe.drain(lane);
        assert_eq!(pipe.take_finished(lane).len(), 1);
        pipe.remove_lane(lane);
        assert_eq!(pipe.lanes(), vec![kept]);
        assert!(!pipe.has_capacity(lane), "unknown lane has no capacity");
        assert_ne!(pipe.add_lane(2), lane, "lane ids are not reused");
    }

    /// Zero workers means zero threads: the thread that enqueues runs
    /// the same steps to completion before `enqueue` returns.
    #[test]
    fn a_pool_without_workers_runs_every_step_on_the_caller() {
        let (pipe, store) = pool(0);
        assert_eq!(pipe.workers(), 0);
        let lane = pipe.add_lane(1);
        let plane = FaultPlan::new(3)
            .fail_nth(sites::CHECKPOINT_WRITEBACK, 2, IoFault::Enospc)
            .build();
        for c in 1..=3u64 {
            push(&pipe, lane, "ckpt", c, &plane);
            assert_eq!(pipe.inflight(lane), 0, "counter {c} resolved on return");
        }
        let outcomes = pipe.take_finished(lane);
        assert!(outcomes.iter().all(|o| o.result.is_ok()), "retry absorbed");
        assert_eq!(plane.injected_at(sites::CHECKPOINT_WRITEBACK), 1);
        assert!(store.lock().contains("ckpt-00000003"));
        let caller = std::thread::current().id();
        let ran_on = Arc::new(Mutex::new(None));
        let seen = ran_on.clone();
        assert!(pipe.submit_aux(lane, move || {
            *seen.lock().unwrap() = Some(std::thread::current().id());
        }));
        assert_eq!(*ran_on.lock().unwrap(), Some(caller));
    }

    /// A draining caller runs its own lane's steps — so a busy pool
    /// cannot hold its commit back — and nobody else's.
    #[test]
    fn a_draining_caller_runs_its_own_lane_and_no_other() {
        let (pipe, store) = pool(1);
        let (busy, mine) = (pipe.add_lane(8), pipe.add_lane(8));
        let (task, started, gate) = parked_task();
        pipe.submit_aux(busy, task);
        started.recv().unwrap();
        // The only worker is parked; a second task waits behind it.
        let neighbour_ran = Arc::new(AtomicUsize::new(0));
        let ran = neighbour_ran.clone();
        pipe.submit_aux(busy, move || {
            ran.fetch_add(1, Ordering::SeqCst);
        });
        push(&pipe, mine, "mine", 1, &FaultPlane::disabled());
        assert_eq!(pipe.inflight(mine), 1, "no worker is free to take it");
        pipe.drain(mine);
        assert!(store.lock().contains("mine-00000001"));
        assert_eq!(neighbour_ran.load(Ordering::SeqCst), 0);
        drop(gate);
        pipe.drain(busy);
        assert_eq!(neighbour_ran.load(Ordering::SeqCst), 1);
    }
}
