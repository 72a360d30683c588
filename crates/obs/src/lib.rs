//! `dv-obs`: the observability spine of the DejaView reproduction.
//!
//! DejaView's evaluation (§6) lives and dies by knowing where time
//! goes — display logging vs. text capture vs. checkpoint downtime vs.
//! lsfs commits. This crate is the shared substrate every stream
//! reports into:
//!
//! * a lock-cheap [`Registry`] of counters, gauges, and fixed-bucket
//!   latency histograms keyed by static names;
//! * span-based tracing with a bounded in-memory [`TraceRing`] of
//!   structured [`TraceEvent`]s, timestamped via `dv-time` so sim-time
//!   tests stay deterministic;
//! * an export layer ([`ObsSnapshot`]) that serializes registry + ring
//!   to deterministic JSON and renders a per-stream overhead breakdown.
//!
//! The [`Obs`] handle follows the same shape as `dv-fault`'s
//! `FaultPlane`: a cheap clone wrapping `Option<Arc<..>>`, disabled by
//! default so un-instrumented paths cost a single branch. Components
//! receive it through `set_obs(..)` next to their `set_fault_plane(..)`.

#![deny(unsafe_code)]

pub mod export;
pub mod registry;
pub mod trace;

use std::sync::Arc;

use parking_lot::Mutex;

use dv_time::{SharedClock, SimClock, Timestamp};

pub use export::{escape_json, ObsSnapshot, StreamBreakdown};
pub use registry::{Histogram, HistogramSnapshot, Registry, BUCKETS, BUCKET_BOUNDS_NANOS};
pub use trace::{TraceEvent, TraceRing, DEFAULT_RING_CAPACITY};

/// Where span durations come from.
///
/// Event *timestamps* always come from the session clock. Span
/// *durations* are either real elapsed time (profiling) or session
/// time (deterministic tests): a sim-clocked run with `Session` timing
/// produces byte-identical exports across runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Timing {
    /// Measure spans on the session clock (deterministic under
    /// `SimClock`).
    #[default]
    Session,
    /// Measure spans with `std::time::Instant` (real profiling).
    Wall,
}

struct Inner {
    clock: SharedClock,
    timing: Timing,
    registry: Registry,
    ring: Mutex<TraceRing>,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("timing", &self.timing)
            .field("registry", &self.registry)
            .finish_non_exhaustive()
    }
}

/// Shared handle to one observability domain (registry + trace ring).
///
/// Clones share state. The default handle is disabled: every operation
/// is a single `Option` test, so components can be instrumented
/// unconditionally.
#[derive(Clone, Debug, Default)]
pub struct Obs {
    inner: Option<Arc<Inner>>,
}

impl Obs {
    /// A disabled handle; all operations are no-ops.
    pub fn disabled() -> Self {
        Obs::default()
    }

    /// An enabled handle timestamping events with `clock` and
    /// measuring spans per `timing`, with a ring of `capacity` events.
    pub fn with_capacity(clock: SharedClock, timing: Timing, capacity: usize) -> Self {
        Obs {
            inner: Some(Arc::new(Inner {
                clock,
                timing,
                registry: Registry::default(),
                ring: Mutex::new(TraceRing::new(capacity)),
            })),
        }
    }

    /// An enabled handle with session-time spans (deterministic under
    /// a sim clock) and the default ring capacity.
    pub fn new(clock: SharedClock) -> Self {
        Obs::with_capacity(clock, Timing::Session, DEFAULT_RING_CAPACITY)
    }

    /// An enabled handle measuring spans in wall time (profiling).
    pub fn wall(clock: SharedClock) -> Self {
        Obs::with_capacity(clock, Timing::Wall, DEFAULT_RING_CAPACITY)
    }

    /// An enabled handle over a fresh sim clock — convenient in tests
    /// that only need metrics, not a shared timeline.
    pub fn sim() -> Self {
        Obs::new(SimClock::new().shared())
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds 1 to counter `name`.
    #[inline]
    pub fn incr(&self, name: &'static str) {
        self.add(name, 1);
    }

    /// Adds `v` to counter `name`.
    #[inline]
    pub fn add(&self, name: &'static str, v: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.counter_add(name, v);
        }
    }

    /// Overwrites counter `name` — used to resynchronize the registry
    /// when an archive restore replaces component state wholesale.
    pub fn set_counter(&self, name: &'static str, v: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.counter_set(name, v);
        }
    }

    /// Reads counter `name` (0 when disabled or never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.registry.counter(name))
            .unwrap_or(0)
    }

    /// Sets gauge `name` to `v`.
    #[inline]
    pub fn gauge_set(&self, name: &'static str, v: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.gauge_set(name, v);
        }
    }

    /// Adds `v` to gauge `name`.
    #[inline]
    pub fn gauge_add(&self, name: &'static str, v: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.gauge_add(name, v);
        }
    }

    /// Subtracts `v` from gauge `name`, saturating at zero.
    #[inline]
    pub fn gauge_sub(&self, name: &'static str, v: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.gauge_sub(name, v);
        }
    }

    /// Reads gauge `name` (0 when disabled or never touched).
    pub fn gauge(&self, name: &str) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.registry.gauge(name))
            .unwrap_or(0)
    }

    /// Records `nanos` into histogram `name`.
    #[inline]
    pub fn observe(&self, name: &'static str, nanos: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.observe(name, nanos);
        }
    }

    /// Records a discrete event into the trace ring.
    pub fn event(&self, stream: &'static str, name: &'static str, detail: impl Into<String>) {
        if let Some(inner) = &self.inner {
            let now = inner.clock.now();
            inner.ring.lock().push(now, stream, name, detail.into(), 0);
        }
    }

    /// Opens a span over `name` (convention: `"<stream>.<op>"`). On
    /// drop, the duration is recorded into the histogram `name`. Spans
    /// stay out of the event ring — per-operation spans on hot paths
    /// would flood it — unless [`Span::with_event`] opts in.
    #[inline]
    pub fn span(&self, stream: &'static str, name: &'static str) -> Span {
        let start = match &self.inner {
            None => SpanStart::Disabled,
            Some(inner) => match inner.timing {
                Timing::Wall => SpanStart::Wall(std::time::Instant::now()),
                Timing::Session => SpanStart::Session(inner.clock.now()),
            },
        };
        Span {
            obs: self.clone(),
            stream,
            name,
            start,
            emit_event: false,
            detail: None,
        }
    }

    /// Takes a full snapshot of the registry plus the trace ring.
    pub fn snapshot(&self) -> ObsSnapshot {
        match &self.inner {
            None => ObsSnapshot::default(),
            Some(inner) => {
                let ring = inner.ring.lock();
                ObsSnapshot {
                    counters: inner.registry.counters(),
                    gauges: inner.registry.gauges(),
                    histograms: inner.registry.histograms(),
                    events: ring.events(),
                    dropped_events: ring.dropped(),
                }
            }
        }
    }

    /// Current trace-ring contents, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner
            .as_ref()
            .map(|i| i.ring.lock().events())
            .unwrap_or_default()
    }

    /// Histogram snapshot by name.
    pub fn histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        self.inner.as_ref().and_then(|i| i.registry.histogram(name))
    }
}

enum SpanStart {
    Disabled,
    Wall(std::time::Instant),
    Session(Timestamp),
}

/// An open span; records its duration on drop.
pub struct Span {
    obs: Obs,
    stream: &'static str,
    name: &'static str,
    start: SpanStart,
    emit_event: bool,
    detail: Option<String>,
}

impl Span {
    /// Also pushes a trace event (with the span's duration) on drop.
    pub fn with_event(mut self, detail: impl Into<String>) -> Self {
        self.emit_event = true;
        self.detail = Some(detail.into());
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let inner = match &self.obs.inner {
            Some(inner) => inner,
            None => return,
        };
        let nanos = match &self.start {
            SpanStart::Disabled => return,
            SpanStart::Wall(t0) => t0.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            SpanStart::Session(t0) => inner.clock.now().saturating_since(*t0).as_nanos(),
        };
        inner.registry.observe(self.name, nanos);
        if self.emit_event {
            let now = inner.clock.now();
            inner.ring.lock().push(
                now,
                self.stream,
                self.name,
                self.detail.take().unwrap_or_default(),
                nanos,
            );
        }
    }
}

/// Metric-name constants shared between the instrumented crates and
/// the consumers (`Server::storage()`, `reproduce obs`). Streams:
/// `display`, `record`, `text`, `index`, `checkpoint`, `lsfs`, `fault`,
/// `net`, `server`.
pub mod names {
    /// Commands generated by the virtual display driver.
    pub const DISPLAY_DRIVER_COMMANDS: &str = "display.driver_commands";
    /// Wire bytes generated by the virtual display driver.
    pub const DISPLAY_DRIVER_BYTES: &str = "display.driver_bytes";
    /// Commands appended to the recorder's command log.
    pub const DISPLAY_COMMANDS: &str = "display.commands";
    /// Command-log bytes appended by the recorder.
    pub const DISPLAY_COMMAND_BYTES: &str = "display.command_bytes";
    /// Screenshot (keyframe) bytes persisted by the recorder.
    pub const DISPLAY_SCREENSHOT_BYTES: &str = "display.screenshot_bytes";
    /// Timeline bytes persisted by the recorder.
    pub const DISPLAY_TIMELINE_BYTES: &str = "display.timeline_bytes";
    /// Keyframes written.
    pub const DISPLAY_KEYFRAMES: &str = "display.keyframes";
    /// Command batches dropped by injected faults.
    pub const DISPLAY_DROPPED_COMMANDS: &str = "display.dropped_commands";
    /// Keyframes dropped by injected faults.
    pub const DISPLAY_DROPPED_KEYFRAMES: &str = "display.dropped_keyframes";
    /// Span: one recorder log flush.
    pub const DISPLAY_FLUSH: &str = "display.flush";
    /// Span: one keyframe capture + persist.
    pub const DISPLAY_KEYFRAME: &str = "display.keyframe";

    /// Seeks that continued from the playback engine's own position.
    pub const RECORD_SEEK_RESUMED: &str = "record.seek.resumed";
    /// Seeks that restarted from a keyframe.
    pub const RECORD_SEEK_KEYFRAME_LOADS: &str = "record.seek.keyframe_loads";
    /// Command headers scanned by seeks (attempted work).
    pub const RECORD_SEEK_COMMANDS_SCANNED: &str = "record.seek.commands_scanned";
    /// Commands seeks decoded and applied after pruning (useful work).
    pub const RECORD_SEEK_COMMANDS_APPLIED: &str = "record.seek.commands_applied";
    /// Pixels seeks copied from a base frame (a keyframe, or a frame a
    /// screenshot still held) instead of leaving them to be painted.
    pub const RECORD_SEEK_PIXELS_RESTORED: &str = "record.seek.pixels_restored";
    /// Rows replays wrote through the scroll ring: the rows each scroll
    /// left in place, and every row of a region put back in order.
    pub const RECORD_REPLAY_RING_ROWS: &str = "record.replay.ring_rows";
    /// Rows the scrolls those replays took would have moved, one copy
    /// per command.
    pub const RECORD_REPLAY_COPY_ROWS: &str = "record.replay.copy_rows";
    /// Commands playback applied (`play_until` and its kin).
    pub const RECORD_PLAYBACK_COMMANDS: &str = "record.playback.commands";
    /// Command headers scanned by the recorder's keyframe catch-up.
    pub const RECORD_CATCHUP_COMMANDS_SCANNED: &str = "record.catchup.commands_scanned";
    /// Commands the catch-up decoded and applied after pruning.
    pub const RECORD_CATCHUP_COMMANDS_APPLIED: &str = "record.catchup.commands_applied";

    /// Accessibility events processed by the capture daemon.
    pub const TEXT_EVENTS: &str = "text.events";
    /// Text instances emitted (shown).
    pub const TEXT_SHOWN: &str = "text.shown";
    /// Text instances closed (hidden).
    pub const TEXT_HIDDEN: &str = "text.hidden";
    /// Annotations captured.
    pub const TEXT_ANNOTATIONS: &str = "text.annotations";
    /// Span: one mirror update (accessibility event applied).
    pub const TEXT_MIRROR_APPLY: &str = "text.mirror_apply";

    /// Bytes added to the in-memory text index.
    pub const INDEX_BYTES: &str = "index.bytes";
    /// Segment flushes completed.
    pub const INDEX_FLUSHES: &str = "index.flushes";
    /// Span: one segment flush (encode + persist).
    pub const INDEX_FLUSH: &str = "index.flush";

    /// Checkpoints taken.
    pub const CHECKPOINT_COUNT: &str = "checkpoint.count";
    /// Full (non-incremental) checkpoints taken.
    pub const CHECKPOINT_FULL: &str = "checkpoint.full";
    /// Raw (pre-compression) checkpoint bytes.
    pub const CHECKPOINT_RAW_BYTES: &str = "checkpoint.raw_bytes";
    /// Stored (post-compression) checkpoint bytes.
    pub const CHECKPOINT_STORED_BYTES: &str = "checkpoint.stored_bytes";
    /// COW relinks performed.
    pub const CHECKPOINT_RELINKS: &str = "checkpoint.relinks";
    /// Checkpoint write failures (after retries).
    pub const CHECKPOINT_WRITE_FAILURES: &str = "checkpoint.write_failures";
    /// Checkpoints enqueued to the deferred pipeline.
    pub const CHECKPOINT_QUEUED: &str = "checkpoint.queued";
    /// Deferred commits completed.
    pub const CHECKPOINT_COMMITTED: &str = "checkpoint.committed";
    /// Synchronous fallbacks when the pipeline was full.
    pub const CHECKPOINT_INLINE_FALLBACKS: &str = "checkpoint.inline_fallbacks";
    /// Nanoseconds of synchronous (stop-the-world) checkpoint time.
    pub const CHECKPOINT_SYNC_DOWNTIME_NANOS: &str = "checkpoint.sync_downtime_nanos";
    /// Nanoseconds of asynchronous commit work.
    pub const CHECKPOINT_ASYNC_COMMIT_NANOS: &str = "checkpoint.async_commit_nanos";
    /// Commit retries inside the writeback pipeline.
    pub const CHECKPOINT_COMMIT_RETRIES: &str = "checkpoint.commit_retries";
    /// Gauge: jobs currently queued or running in the pipeline.
    pub const CHECKPOINT_QUEUE_DEPTH: &str = "checkpoint.queue_depth";
    /// Span: stop-the-world capture phase.
    pub const CHECKPOINT_CAPTURE: &str = "checkpoint.capture";
    /// Span: quiesce phase.
    pub const CHECKPOINT_QUIESCE: &str = "checkpoint.quiesce";
    /// Span: filesystem snapshot phase.
    pub const CHECKPOINT_FS_SNAPSHOT: &str = "checkpoint.fs_snapshot";
    /// Span: per-worker compress + store time in the pipeline.
    pub const CHECKPOINT_WORKER_COMPRESS: &str = "checkpoint.worker_compress";

    /// Data bytes appended to the lsfs log.
    pub const LSFS_DATA_BYTES: &str = "lsfs.data_bytes";
    /// Journal bytes committed.
    pub const LSFS_JOURNAL_BYTES: &str = "lsfs.journal_bytes";
    /// Journal records committed.
    pub const LSFS_JOURNAL_COMMITS: &str = "lsfs.journal_commits";
    /// Sync (log flush) operations.
    pub const LSFS_SYNCS: &str = "lsfs.syncs";
    /// Gauge: live snapshots (grows on snapshot, shrinks on GC).
    pub const LSFS_SNAPSHOTS: &str = "lsfs.snapshots";
    /// Blob-store put operations.
    pub const LSFS_BLOB_PUTS: &str = "lsfs.blob_puts";
    /// Blob-store bytes written.
    pub const LSFS_BLOB_PUT_BYTES: &str = "lsfs.blob_put_bytes";
    /// Blob-store get operations.
    pub const LSFS_BLOB_GETS: &str = "lsfs.blob_gets";
    /// Span: one sync (dirty-block flush).
    pub const LSFS_SYNC: &str = "lsfs.sync";
    /// Span: one snapshot point (sync + mark + state clone).
    pub const LSFS_SNAPSHOT: &str = "lsfs.snapshot";
    /// Span: one blob put.
    pub const LSFS_BLOB_PUT: &str = "lsfs.blob_put";

    /// Fault-plane checks performed (enabled planes only).
    pub const FAULT_CHECKS: &str = "fault.checks";
    /// Faults actually injected.
    pub const FAULT_INJECTED: &str = "fault.injected";
    /// Event name for one injected fault.
    pub const EV_FAULT_INJECTED: &str = "fault.injected";

    /// Frames sent to remote-access clients.
    pub const NET_FRAMES_SENT: &str = "net.frames_sent";
    /// Frames received from remote-access clients.
    pub const NET_FRAMES_RECEIVED: &str = "net.frames_received";
    /// Wire bytes sent to remote-access clients.
    pub const NET_BYTES_SENT: &str = "net.bytes_sent";
    /// Wire bytes received from remote-access clients.
    pub const NET_BYTES_RECEIVED: &str = "net.bytes_received";
    /// Gauge: clients currently connected to the remote-access service.
    pub const NET_CLIENTS: &str = "net.clients";
    /// Gauge: messages queued across all per-client send queues.
    pub const NET_QUEUE_DEPTH: &str = "net.queue_depth";
    /// Slow-client coalesce events (pending damage folded into one
    /// keyframe).
    pub const NET_COALESCE_EVENTS: &str = "net.coalesce_events";
    /// Transport send retries (bounded-backoff recovery from stalls).
    pub const NET_SEND_RETRIES: &str = "net.send_retries";
    /// Connections dropped by transport resets or corruption.
    pub const NET_RESETS: &str = "net.resets";
    /// Clients disconnected by the idle timeout.
    pub const NET_IDLE_DISCONNECTS: &str = "net.idle_disconnects";
    /// Corrupt frames detected by the CRC check.
    pub const NET_CORRUPT_FRAMES: &str = "net.corrupt_frames";
    /// Span: one playback-seek RPC served.
    pub const NET_RPC_SEEK: &str = "net.rpc_seek";
    /// Span: one search RPC served.
    pub const NET_RPC_SEARCH: &str = "net.rpc_search";
    /// Span: one visual-recall RPC served.
    pub const NET_RPC_VISUAL: &str = "net.rpc_visual";
    /// Span: one live-stream flush to one client.
    pub const NET_FLUSH: &str = "net.flush";
    /// Live command batches fanned out (a tapped command with at least
    /// one eligible viewer).
    pub const NET_LIVE_BATCHES: &str = "net.live_batches";
    /// Wire encodes performed for live batches. Zero-copy fan-out
    /// makes this equal `net.live_batches` per active output scale —
    /// one encode shared by every viewer — regardless of viewer count.
    pub const NET_ENCODES_PER_BATCH: &str = "net.encodes_per_batch";
    /// Catch-up keyframe wire encodes (full or delta); shared across
    /// every viewer needing one in the same poll.
    pub const NET_KEYFRAME_ENCODES: &str = "net.keyframe_encodes";
    /// Catch-up keyframes sent as damage deltas rather than full
    /// screens.
    pub const NET_DELTA_KEYFRAMES: &str = "net.delta_keyframes";
    /// Connections the reactor visited (readiness or queued work).
    pub const NET_CONN_VISITS: &str = "net.conn_visits";
    /// Connections the reactor skipped without a syscall (quiet
    /// inbound, empty queue).
    pub const NET_CONN_SKIPS: &str = "net.conn_skips";
    /// Event name for one remote-access disconnect (any cause).
    pub const EV_NET_DISCONNECT: &str = "net.disconnect";
    /// Event name for one slow-client coalesce.
    pub const EV_NET_COALESCE: &str = "net.coalesce";
    /// Event name for one transport-fault recovery retry.
    pub const EV_NET_RETRY: &str = "net.retry";

    /// Degraded events observed by the server (failed attempts).
    pub const SERVER_DEGRADED_EVENTS: &str = "server.degraded_events";
    /// Checkpoint retries performed by the server.
    pub const SERVER_CHECKPOINT_RETRIES: &str = "server.checkpoint_retries";
    /// Index-flush retries performed by the server.
    pub const SERVER_INDEX_FLUSH_RETRIES: &str = "server.index_flush_retries";
    /// Event name for one server-level retry.
    pub const EV_SERVER_RETRY: &str = "server.retry";
    /// Event name for one pipeline inline fallback.
    pub const EV_INLINE_FALLBACK: &str = "checkpoint.inline_fallback";
    /// Event name for one pipeline commit retry.
    pub const EV_COMMIT_RETRY: &str = "checkpoint.commit_retry";

    /// Sessions currently registered on the host.
    pub const HOST_SESSIONS: &str = "host.sessions";
    /// Sessions ever created on the host.
    pub const HOST_SESSIONS_CREATED: &str = "host.sessions_created";
    /// Sessions dropped from the host.
    pub const HOST_SESSIONS_DROPPED: &str = "host.sessions_dropped";
    /// Checkpoints the host skipped because a tenant hit its
    /// storage-bytes quota.
    pub const HOST_QUOTA_REJECTIONS: &str = "host.quota_rejections";
    /// Event name for one tenant hitting a quota.
    pub const EV_HOST_QUOTA: &str = "host.quota_exceeded";
    /// Event name for one tenant lifecycle change (create/drop).
    pub const EV_HOST_SESSION: &str = "host.session";

    /// Gauge: live chunks in the content-addressed store.
    pub const CAS_CHUNKS: &str = "cas.chunks";
    /// Gauge: bytes resident in the chunk arena (live + retired).
    pub const CAS_PHYSICAL_BYTES: &str = "cas.physical_bytes";
    /// Gauge: sum of logical blob lengths in the content-addressed
    /// store.
    pub const CAS_LOGICAL_BYTES: &str = "cas.logical_bytes";
    /// Gauge: the durable root generation.
    pub const CAS_GENERATION: &str = "cas.generation";
    /// Deduplicating blob writes completed.
    pub const CAS_PUTS: &str = "cas.puts";
    /// Chunk writes absorbed by an already-resident chunk.
    pub const CAS_DEDUP_HITS: &str = "cas.dedup_hits";
    /// Chunk writes that stored new data.
    pub const CAS_DEDUP_MISSES: &str = "cas.dedup_misses";
    /// Root generations made durable.
    pub const CAS_ROOT_WRITES: &str = "cas.root_writes";
    /// GC sweep steps executed.
    pub const CAS_GC_SWEEPS: &str = "cas.gc_sweeps";
    /// Chunks physically reclaimed by GC.
    pub const CAS_GC_RECLAIMED_CHUNKS: &str = "cas.gc_reclaimed_chunks";
    /// Bytes physically reclaimed by GC.
    pub const CAS_GC_RECLAIMED_BYTES: &str = "cas.gc_reclaimed_bytes";
    /// Chunk reads whose content hash did not match.
    pub const CAS_VERIFY_FAILURES: &str = "cas.verify_failures";
    /// Span: one deduplicating blob write.
    pub const CAS_PUT: &str = "cas.put";
    /// Span: one root-slot write (including read-back verification).
    pub const CAS_ROOT_WRITE: &str = "cas.root_write";
    /// Span: one bounded GC sweep step.
    pub const CAS_GC_SWEEP: &str = "cas.gc_sweep";
    /// Histogram: chunks reclaimed per GC sweep step.
    pub const CAS_GC_BATCH: &str = "cas.gc_batch";
    /// Event name for one abandoned root write (failed verification).
    pub const EV_CAS_ROOT_ABANDONED: &str = "cas.root_abandoned";
    /// Event name for one detected chunk-content mismatch.
    pub const EV_CAS_VERIFY_FAILURE: &str = "cas.verify_failure";
    /// Event name for one aborted GC sweep step.
    pub const EV_CAS_GC_ABORT: &str = "cas.gc_abort";

    /// Text states skipped by the capture-time redundancy filter.
    pub const TIDX_FILTERED: &str = "tidx.filtered";
    /// Text states accepted into the open shard.
    pub const TIDX_INGESTED: &str = "tidx.ingested";
    /// Open-shard seals completed (one immutable segment each).
    pub const TIDX_SEALS: &str = "tidx.seals";
    /// Gauge: live (sealed, not yet superseded) segments.
    pub const TIDX_SEALED_SEGMENTS: &str = "tidx.sealed_segments";
    /// Gauge: bytes of live sealed text segments in the store.
    pub const TIDX_SEGMENT_BYTES: &str = "tidx.segment_bytes";
    /// Compaction merges completed.
    pub const TIDX_COMPACTIONS: &str = "tidx.compactions";
    /// Compaction merges that failed (inputs stay live).
    pub const TIDX_COMPACT_FAILURES: &str = "tidx.compact_failures";
    /// Superseded segments physically reclaimed by GC.
    pub const TIDX_GC_RECLAIMED: &str = "tidx.gc_reclaimed";
    /// Sharded queries evaluated.
    pub const TIDX_QUERIES: &str = "tidx.queries";
    /// Histogram: segments probed per sharded query (open shard
    /// included); compaction must push this down.
    pub const TIDX_SEGMENT_PROBES: &str = "tidx.segment_probes";
    /// Span: one open-shard seal.
    pub const TIDX_SEAL: &str = "tidx.seal";
    /// Span: one compaction merge.
    pub const TIDX_COMPACT: &str = "tidx.compact";
    /// Span: one sharded query fan-out.
    pub const TIDX_QUERY: &str = "tidx.query";
    /// Event name for one sealed segment.
    pub const EV_TIDX_SEAL: &str = "tidx.sealed";
    /// Event name for one compaction (inputs -> output).
    pub const EV_TIDX_COMPACT: &str = "tidx.compacted";
    /// Event name for one failed compaction (inputs, error).
    pub const EV_TIDX_COMPACT_FAILED: &str = "tidx.compact_failed";
    /// Host: cross-session queries served.
    pub const HOST_CROSS_QUERIES: &str = "host.cross_queries";
    /// Host: compaction rounds scheduled on the shared pool.
    pub const HOST_COMPACTION_ROUNDS: &str = "host.compaction_rounds";

    /// Keyframes fingerprinted into the visual strip.
    pub const VIDX_KEYFRAMES: &str = "vidx.keyframes";
    /// Near-duplicate keyframes coalesced into the previous visual
    /// instance (interval extended instead of a new instance).
    pub const VIDX_COALESCED: &str = "vidx.coalesced";
    /// Open-strip seals completed (one immutable strip segment each).
    pub const VIDX_SEALS: &str = "vidx.seals";
    /// Gauge: live sealed strip segments.
    pub const VIDX_SEALED_SEGMENTS: &str = "vidx.sealed_segments";
    /// Gauge: bytes of sealed thumbnail-strip segments in the store.
    pub const VIDX_STRIP_BYTES: &str = "vidx.strip_bytes";
    /// Strip compaction merges completed.
    pub const VIDX_COMPACTIONS: &str = "vidx.compactions";
    /// Strip compaction merges that failed (inputs stay live).
    pub const VIDX_COMPACT_FAILURES: &str = "vidx.compact_failures";
    /// Superseded strip segments physically reclaimed by GC.
    pub const VIDX_GC_RECLAIMED: &str = "vidx.gc_reclaimed";
    /// Nearest-thumbnail queries evaluated.
    pub const VIDX_QUERIES: &str = "vidx.queries";
    /// Histogram: fingerprint comparisons per query; the band index
    /// must keep this sub-linear in the instance count.
    pub const VIDX_PROBES: &str = "vidx.probes";
    /// Span: one open-strip seal.
    pub const VIDX_SEAL: &str = "vidx.seal";
    /// Span: one strip compaction merge.
    pub const VIDX_COMPACT: &str = "vidx.compact";
    /// Span: one nearest-thumbnail query.
    pub const VIDX_QUERY: &str = "vidx.query";
    /// Event name for one sealed strip segment.
    pub const EV_VIDX_SEAL: &str = "vidx.sealed";
    /// Event name for one strip compaction (inputs -> output).
    pub const EV_VIDX_COMPACT: &str = "vidx.compacted";
    /// Event name for one failed strip compaction (inputs, error).
    pub const EV_VIDX_COMPACT_FAILED: &str = "vidx.compact_failed";
    /// Host: cross-session visual queries served.
    pub const HOST_VISUAL_QUERIES: &str = "host.visual_queries";
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv_time::Duration;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        obs.incr("a");
        obs.gauge_set("g", 9);
        obs.observe("h", 1);
        obs.event("s", "e", "detail");
        drop(obs.span("s", "h"));
        assert_eq!(obs.counter("a"), 0);
        assert_eq!(obs.gauge("g"), 0);
        assert!(obs.histogram("h").is_none());
        assert!(obs.events().is_empty());
        assert_eq!(obs.snapshot(), ObsSnapshot::default());
    }

    #[test]
    fn clones_share_state() {
        let obs = Obs::sim();
        let other = obs.clone();
        other.incr("x");
        assert_eq!(obs.counter("x"), 1);
    }

    #[test]
    fn events_are_stamped_with_session_time() {
        let clock = SimClock::new();
        let obs = Obs::new(clock.shared());
        clock.advance(Duration::from_millis(7));
        obs.event("lsfs", "fault.injected", "site=x");
        let events = obs.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].time, Timestamp::from_millis(7));
        assert_eq!(events[0].detail, "site=x");
    }

    #[test]
    fn session_spans_measure_sim_time() {
        let clock = SimClock::new();
        let obs = Obs::new(clock.shared());
        {
            let _span = obs.span("checkpoint", names::CHECKPOINT_CAPTURE);
            clock.advance(Duration::from_millis(3));
        }
        let h = obs.histogram(names::CHECKPOINT_CAPTURE).unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.sum_nanos, 3_000_000);
    }

    #[test]
    fn span_with_event_lands_in_ring() {
        let obs = Obs::sim();
        drop(obs.span("index", names::INDEX_FLUSH).with_event("seg=1"));
        let events = obs.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, names::INDEX_FLUSH);
        assert_eq!(events[0].detail, "seg=1");
    }

    #[test]
    fn wall_spans_record_nonzero_on_work() {
        let obs = Obs::wall(SimClock::new().shared());
        {
            let _span = obs.span("lsfs", names::LSFS_SYNC);
            std::hint::black_box(vec![0u8; 4096]);
        }
        assert_eq!(obs.histogram(names::LSFS_SYNC).unwrap().count, 1);
    }

    #[test]
    fn snapshot_collects_everything() {
        let obs = Obs::sim();
        obs.add("lsfs.data_bytes", 10);
        obs.gauge_set("checkpoint.queue_depth", 2);
        obs.observe("lsfs.sync", 50);
        obs.event("fault", "fault.injected", "site=lsfs.journal.commit");
        let snap = obs.snapshot();
        assert_eq!(snap.counter("lsfs.data_bytes"), 10);
        assert_eq!(snap.gauge("checkpoint.queue_depth"), 2);
        assert_eq!(snap.histogram("lsfs.sync").unwrap().count, 1);
        assert_eq!(snap.events_named("fault.injected").len(), 1);
    }
}
