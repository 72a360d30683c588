//! The sealed-segment lifecycle shared by every checkpoint-anchored
//! index (dv-tidx text shards, dv-vidx thumbnail strips).
//!
//! A [`SealedLog`] owns its index's mutable *open buffer*. At a
//! checkpoint boundary whose window has elapsed ([`Lifecycle::maybe_seal`])
//! it persists the buffer as an immutable CRC-framed **segment** blob and
//! then a **manifest** blob named by the checkpoint counter — segment
//! first, so a manifest never names a segment that is not durable — and
//! swaps in the buffer that continues. A manifest is the whole layout as
//! of its counter: a revive at checkpoint N reads the newest manifest at
//! or before N and sees exactly the segments sealed by then. An archive
//! carries the open buffer beside the manifests
//! ([`Lifecycle::export_open`], [`Lifecycle::restore_open`]).
//!
//! ```text
//! segment   [magic 8][crc32(payload) u32 LE][len u64 LE][payload ...]
//! manifest  the same frame under `DVSMAN03` around
//!           counter, next_segment, next_instance, open_start,
//!           oldest_revivable, live[], retired[(meta, reclaim_after)]
//! ```
//!
//! [`SealedLog::maybe_compact`] merges [`COMPACT_FANIN`] same-level
//! segments into one of the next level — as encoded payloads, each
//! verified against its frame and never decoded ([`Payload::merge`]).
//! The inputs *retire*: they are deleted only once a manifest written
//! after the swap — one naming the output — is durable (the dv-cas
//! recycle-only-after-checkpoint rule). That moves the **retention
//! floor** up to that manifest's counter; older manifests name deleted
//! segments, so they go in the same pass and a query below the floor
//! reports [`SegmentError::OutOfRetention`] rather than a missing blob.
//!
//! What a segment *contains* enters only through the [`Payload`]
//! functions; nothing here knows which index it serves.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;

use dv_fault::checksum::crc32;
use dv_fault::{FaultPlane, IoFault, Put, ReadError, Reader};
use dv_obs::Obs;
use dv_time::{Duration, Timestamp};

use crate::device::SharedBlobStore;

/// How many same-level segments one compaction merges.
pub const COMPACT_FANIN: usize = 4;
/// Decoded segments kept hot for queries (FIFO eviction).
pub const SEGMENT_CACHE: usize = 16;

const MAN_MAGIC: &[u8; 8] = b"DVSMAN03";
/// Bytes of magic, CRC and length before a framed payload.
const FRAME_HEADER: usize = 20;

/// A segment- or manifest-blob decoding error.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FrameError(pub &'static str);

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "segment frame error: {}", self.0)
    }
}

impl std::error::Error for FrameError {}

/// A sealed-segment operation failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SegmentError {
    /// The requested checkpoint predates the retention floor: GC has
    /// reclaimed its manifest and segments, so the layout at that
    /// checkpoint can no longer be revived. Not a corruption.
    OutOfRetention {
        /// The checkpoint counter that was asked for.
        requested: u64,
        /// The oldest counter that can still be revived.
        oldest: u64,
    },
    /// An I/O, fault-injection, or blob-decoding failure.
    Failed(String),
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegmentError::OutOfRetention { requested, oldest } => write!(
                f,
                "checkpoint {requested} is out of retention (oldest revivable: {oldest})"
            ),
            SegmentError::Failed(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for SegmentError {}

impl From<FrameError> for SegmentError {
    fn from(e: FrameError) -> Self {
        SegmentError::Failed(e.to_string())
    }
}

/// Everything the lifecycle needs to know about one immutable segment
/// without decoding it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SegmentMeta {
    /// Monotonic segment id; names the blob.
    pub id: u64,
    /// 0 for freshly sealed buffers; compaction merges level-`n`
    /// inputs into one level-`n+1` output.
    pub level: u32,
    /// Earliest time covered (an entry carried across a seal keeps its
    /// original start, so this can precede the buffer's window).
    pub start: Timestamp,
    /// The seal horizon: nothing in the segment is later.
    pub end: Timestamp,
    /// The checkpoint counter whose manifest first referenced this
    /// segment — the snapshot-consistency anchor.
    pub sealed_at: u64,
    /// Framed blob size.
    pub bytes: u64,
    /// Entries stored.
    pub instances: u64,
}

/// One layout: what a manifest blob records as of `counter`, and what
/// a [`SealedLog`] holds in memory between seals.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Manifest {
    /// Checkpoint counter of the newest durable manifest this layout
    /// is consistent with (0 when nothing has sealed).
    pub counter: u64,
    /// Next segment id to allocate.
    pub next_segment: u64,
    /// Next entry id to allocate: greater than every id sealed so far.
    pub next_instance: u64,
    /// Where the open buffer's window began.
    pub open_start: Timestamp,
    /// The retention floor: checkpoints below this counter reference
    /// segments GC has reclaimed and can no longer be revived.
    pub oldest_revivable: u64,
    /// Segments serving queries, ordered by `start`.
    pub live: Vec<SegmentMeta>,
    /// Superseded segments and the checkpoint counter from which each
    /// may be reclaimed.
    pub retired: Vec<(SegmentMeta, u64)>,
}

impl From<ReadError> for FrameError {
    fn from(e: ReadError) -> Self {
        FrameError(e.as_str())
    }
}

/// Wraps a payload in magic + CRC framing.
pub fn frame(magic: &[u8; 8], payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + FRAME_HEADER);
    out.extend_from_slice(magic);
    out.put_u32(crc32(payload));
    out.put_bytes_u64(payload);
    out
}

/// Verifies framing and returns the payload slice.
pub fn unframe<'a>(magic: &[u8; 8], buf: &'a [u8]) -> Result<&'a [u8], FrameError> {
    let mut r = Reader::new(buf);
    r.magic(magic)?;
    let crc = r.u32()?;
    if r.u64()? != r.remaining() as u64 {
        return Err(FrameError("length mismatch"));
    }
    let payload = r.rest();
    if crc32(payload) != crc {
        return Err(FrameError("crc mismatch"));
    }
    Ok(payload)
}

/// Bytes of one encoded [`SegmentMeta`].
const META_LEN: usize = 8 + 4 + 5 * 8;

fn put_meta(out: &mut Vec<u8>, meta: &SegmentMeta) {
    out.put_u64(meta.id);
    out.put_u32(meta.level);
    for word in [
        meta.start.as_nanos(),
        meta.end.as_nanos(),
        meta.sealed_at,
        meta.bytes,
        meta.instances,
    ] {
        out.put_u64(word);
    }
}

fn take_meta(r: &mut Reader<'_>) -> Result<SegmentMeta, ReadError> {
    let mut m = Reader::new(r.array::<META_LEN>()?);
    Ok(SegmentMeta {
        id: m.u64()?,
        level: m.u32()?,
        start: Timestamp::from_nanos(m.u64()?),
        end: Timestamp::from_nanos(m.u64()?),
        sealed_at: m.u64()?,
        bytes: m.u64()?,
        instances: m.u64()?,
    })
}

/// Serializes a manifest as a framed blob.
pub fn encode_manifest(man: &Manifest) -> Vec<u8> {
    let mut payload = Vec::new();
    for word in [
        man.counter,
        man.next_segment,
        man.next_instance,
        man.open_start.as_nanos(),
        man.oldest_revivable,
        man.live.len() as u64,
    ] {
        payload.put_u64(word);
    }
    for meta in &man.live {
        put_meta(&mut payload, meta);
    }
    payload.put_u64(man.retired.len() as u64);
    for (meta, reclaim_after) in &man.retired {
        put_meta(&mut payload, meta);
        payload.put_u64(*reclaim_after);
    }
    frame(MAN_MAGIC, &payload)
}

/// Verifies and parses a manifest blob.
pub fn decode_manifest(buf: &[u8]) -> Result<Manifest, FrameError> {
    let mut r = Reader::new(unframe(MAN_MAGIC, buf)?);
    let mut man = Manifest {
        counter: r.u64()?,
        next_segment: r.u64()?,
        next_instance: r.u64()?,
        open_start: Timestamp::from_nanos(r.u64()?),
        oldest_revivable: r.u64()?,
        ..Manifest::default()
    };
    let short = |_| FrameError("truncated segment meta");
    for _ in 0..r.count_u64(META_LEN).map_err(short)? {
        man.live.push(take_meta(&mut r)?);
    }
    for _ in 0..r.count_u64(META_LEN + 8).map_err(short)? {
        man.retired.push((take_meta(&mut r)?, r.u64()?));
    }
    r.finish()?;
    Ok(man)
}

/// Why [`Payload::merge`] produced nothing.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MergeError {
    /// `inputs[n]` failed validation: that segment is damaged for good.
    Input(usize, String),
    /// The inputs were sound but the merged payload could not be
    /// produced (a fault at the payload's own flush site); the same
    /// merge may succeed later.
    Output(String),
}

/// What one kind of segment holds: how a decoded segment turns into
/// payload bytes and back, how several encoded ones merge into one, and
/// what of the open buffer a seal covers and leaves open.
pub trait Payload {
    /// A decoded segment — also the type of the open buffer.
    type Segment;

    /// Serializes a segment's contents (unframed).
    fn encode(&self, segment: &Self::Segment) -> Result<Vec<u8>, String>;

    /// Parses payload bytes whose frame already verified.
    fn decode(&self, payload: &[u8]) -> Result<Self::Segment, String>;

    /// Merges encoded payloads whose frames already verified — ordered
    /// oldest seal first — into the payload [`Self::encode`] would
    /// write for their union, returning it with its entry count. The
    /// bytes are as untrusted as [`Self::decode`]'s: an input `decode`
    /// rejects must be rejected here too.
    fn merge(&self, inputs: &[&[u8]]) -> Result<(Vec<u8>, u64), MergeError>;

    /// What sealing `open` now covers; its window began at
    /// `open_start`.
    fn extent(&self, open: &Self::Segment, open_start: Timestamp) -> Sealed;

    /// What of a buffer just sealed stays open in the next one.
    fn carry(&self, sealed: &Self::Segment) -> Self::Segment;

    /// Continues `open` after durable history: ids allocate from at
    /// least `next_instance` and its horizon is at least `horizon`.
    fn resume(&self, open: &mut Self::Segment, next_instance: u64, horizon: Timestamp);
}

/// The strings one index's lifecycle is known by.
#[derive(Debug)]
pub struct Names {
    /// Blob names are `{prefix}{stem}seg-{id:08}` and
    /// `{prefix}{stem}man-{counter:08}`; also the dv-obs stream.
    pub stem: &'static str,
    /// Frame magic of this index's segments.
    pub seg_magic: &'static [u8; 8],
    /// Fault site checked before a sealed segment is written.
    pub seal_site: &'static str,
    /// Fault site checked before a merged segment is written.
    pub compact_site: &'static str,
    /// Span: one seal.
    pub seal_span: &'static str,
    /// Span: one compaction merge.
    pub compact_span: &'static str,
    /// Counter: seals completed.
    pub seals: &'static str,
    /// Counter: compaction merges completed.
    pub compactions: &'static str,
    /// Counter: compaction merges that failed.
    pub compact_failures: &'static str,
    /// Counter: retired segments physically reclaimed.
    pub gc_reclaimed: &'static str,
    /// Gauge: live segments.
    pub sealed_segments: &'static str,
    /// Gauge: bytes of live segment blobs.
    pub sealed_bytes: &'static str,
    /// Event: one sealed segment.
    pub ev_seal: &'static str,
    /// Event: one compaction (inputs -> output).
    pub ev_compact: &'static str,
    /// Event: one failed compaction (inputs, error).
    pub ev_compact_failed: &'static str,
}

/// Engine tuning.
#[derive(Clone, Debug)]
pub struct SealedConfig {
    /// Session-time width of the open buffer: once the horizon has
    /// advanced this far past the buffer's start, the next checkpoint
    /// seals it.
    pub window: Duration,
    /// Namespace prepended to segment/manifest blob names, so many
    /// tenants share one blob store without collisions.
    pub blob_prefix: String,
}

impl Default for SealedConfig {
    fn default() -> Self {
        SealedConfig {
            window: Duration::from_secs(30),
            blob_prefix: String::new(),
        }
    }
}

/// What a seal of the open buffer covers ([`Payload::extent`]).
#[derive(Clone, Copy, Debug)]
pub struct Sealed {
    /// Earliest time the buffer covers.
    pub start: Timestamp,
    /// The seal horizon; the next buffer's window starts here.
    pub end: Timestamp,
    /// Entries in the buffer.
    pub instances: u64,
    /// One past the greatest entry id allocated so far.
    pub next_instance: u64,
}

struct State<S> {
    /// The layout serving queries: the newest durable manifest plus
    /// any compaction swapped in since.
    layout: Manifest,
    /// At most one compaction runs at a time.
    compacting: bool,
    /// Live segments a compaction found unreadable. Batch selection
    /// steps around them so one bad segment does not stop every other
    /// merge; not persisted, so a recovered engine tries them again.
    damaged: Vec<u64>,
    /// Decoded-segment cache, FIFO-evicted.
    cache: HashMap<u64, Arc<S>>,
    cache_order: VecDeque<u64>,
}

impl<S> State<S> {
    fn evict(&mut self, id: u64) {
        self.cache.remove(&id);
        self.cache_order.retain(|cached| *cached != id);
    }
}

fn sort_live(live: &mut [SegmentMeta]) {
    live.sort_by_key(|m| (m.start, m.id));
}

/// One index's open buffer and sealed segments over a shared blob
/// store.
pub struct SealedLog<P: Payload> {
    payload: P,
    names: &'static Names,
    /// The buffer entries enter before any seal. Lock order: `open`,
    /// then `state`.
    open: Arc<Mutex<P::Segment>>,
    store: SharedBlobStore,
    plane: FaultPlane,
    obs: Obs,
    config: SealedConfig,
    state: Mutex<State<P::Segment>>,
}

impl<P: Payload> SealedLog<P> {
    /// Creates an empty layout over `store` around the open buffer
    /// `open`.
    pub fn new(
        payload: P,
        names: &'static Names,
        open: Arc<Mutex<P::Segment>>,
        store: SharedBlobStore,
        plane: FaultPlane,
        obs: Obs,
        config: SealedConfig,
    ) -> Self {
        let state = Mutex::new(State {
            layout: Manifest::default(),
            compacting: false,
            damaged: Vec::new(),
            cache: HashMap::new(),
            cache_order: VecDeque::new(),
        });
        SealedLog {
            payload,
            names,
            open,
            store,
            plane,
            obs,
            config,
            state,
        }
    }

    /// The strings this index's lifecycle is known by.
    pub fn names(&self) -> &'static Names {
        self.names
    }

    /// The open buffer.
    pub fn open(&self) -> &Arc<Mutex<P::Segment>> {
        &self.open
    }

    /// The layout serving queries now.
    pub fn layout(&self) -> Manifest {
        self.state.lock().layout.clone()
    }

    fn blob(&self, kind: &str, n: u64) -> String {
        let (prefix, stem) = (&self.config.blob_prefix, self.names.stem);
        format!("{prefix}{stem}{kind}-{n:08}")
    }

    /// Counters of the manifests currently in the store.
    fn manifest_counters(&self) -> Vec<u64> {
        let prefix = format!("{}{}man-", self.config.blob_prefix, self.names.stem);
        let names = self.store.lock().names();
        names
            .iter()
            .filter_map(|n| n.strip_prefix(&prefix)?.parse().ok())
            .collect()
    }

    /// Seals the open buffer now, whatever its window. On any error the
    /// open buffer and the previous layout stay authoritative.
    pub fn seal(&self, counter: u64) -> Result<SegmentMeta, SegmentError> {
        let mut open = self.open.lock();
        let open_start = self.state.lock().layout.open_start;
        let sealed = self.payload.extent(&open, open_start);
        self.seal_open(counter, &mut open, sealed)
    }

    /// Frames `payload`, passes it through the fault site guarding the
    /// write, and stores it as segment `id`.
    fn put_segment(
        &self,
        id: u64,
        site: &'static str,
        payload: &[u8],
    ) -> Result<u64, SegmentError> {
        let mut framed = frame(self.names.seg_magic, payload);
        match self.plane.check(site) {
            None | Some(IoFault::LatencySpike) => {}
            // A mangled blob is caught by the CRC on first probe.
            Some(IoFault::Corrupt) => self.plane.mangle(&mut framed),
            Some(_) => return Err(SegmentError::Failed(format!("{site} write faulted"))),
        }
        let (name, bytes) = (self.blob("seg", id), framed.len() as u64);
        match self.store.put_deduped(&name, framed) {
            Ok(()) => Ok(bytes),
            Err(e) => {
                // A torn write leaves a prefix behind.
                self.store.lock().delete(&name);
                Err(SegmentError::Failed(format!("segment write failed: {e:?}")))
            }
        }
    }

    fn report_layout(&self, layout: &Manifest) {
        let live = &layout.live;
        self.obs
            .gauge_set(self.names.sealed_segments, live.len() as u64);
        self.obs
            .gauge_set(self.names.sealed_bytes, live.iter().map(|m| m.bytes).sum());
    }

    /// Persists `open` as an immutable segment anchored to checkpoint
    /// `counter`, makes a manifest naming it durable, reclaims whatever
    /// that manifest made reclaimable, and swaps in the buffer that
    /// continues `open`.
    ///
    /// On any error nothing of this seal remains in the store, and the
    /// previous layout and the open buffer stay authoritative: the seal
    /// retries at the next checkpoint.
    fn seal_open(
        &self,
        counter: u64,
        open: &mut P::Segment,
        sealed: Sealed,
    ) -> Result<SegmentMeta, SegmentError> {
        let _span = self.obs.span(self.names.stem, self.names.seal_span);
        let payload = self.payload.encode(open).map_err(SegmentError::Failed)?;
        let mut st = self.state.lock();
        let id = st.layout.next_segment;
        let bytes = self.put_segment(id, self.names.seal_site, &payload)?;
        let meta = SegmentMeta {
            id,
            level: 0,
            start: sealed.start,
            end: sealed.end,
            sealed_at: counter,
            bytes,
            instances: sealed.instances,
        };
        let mut next = st.layout.clone();
        next.counter = counter;
        next.next_segment = id.saturating_add(1);
        next.next_instance = next.next_instance.max(sealed.next_instance);
        next.open_start = sealed.end;
        next.live.push(meta.clone());
        sort_live(&mut next.live);
        // The GC below reclaims every retired segment whose window has
        // passed, which moves the retention floor up to this counter;
        // bake that into the manifest so a recovered engine knows too.
        if next.retired.iter().any(|(_, after)| *after <= counter) {
            next.oldest_revivable = next.oldest_revivable.max(counter);
        }
        let man_blob = self.blob("man", counter);
        if let Err(e) = self.store.put_deduped(&man_blob, encode_manifest(&next)) {
            // The layout never became durable; drop the orphan segment
            // and whatever prefix of the manifest a torn write left.
            let mut store = self.store.lock();
            store.delete(&self.blob("seg", id));
            store.delete(&man_blob);
            return Err(SegmentError::Failed(format!(
                "manifest write failed: {e:?}"
            )));
        }
        st.layout = next;
        let reclaimed = self.gc_locked(&mut st);
        self.report_layout(&st.layout);
        drop(st);
        self.obs.incr(self.names.seals);
        self.obs.event(
            self.names.stem,
            self.names.ev_seal,
            format!(
                "segment={id} ckpt={counter} instances={} bytes={} reclaimed={reclaimed}",
                meta.instances, meta.bytes
            ),
        );
        let mut next = self.payload.carry(open);
        self.payload
            .resume(&mut next, sealed.next_instance, sealed.end);
        *open = next;
        Ok(meta)
    }

    /// Reclaims retired segments whose recycle window has passed: the
    /// newest durable manifest is at or past the segment's
    /// `reclaim_after`, so it and every later one name the merged
    /// output instead. Returns the number of segments reclaimed.
    pub fn gc(&self) -> usize {
        self.gc_locked(&mut self.state.lock())
    }

    fn gc_locked(&self, st: &mut State<P::Segment>) -> usize {
        let durable = st.layout.counter;
        let (reclaim, keep): (Vec<_>, Vec<_>) = std::mem::take(&mut st.layout.retired)
            .into_iter()
            .partition(|(_, after)| *after <= durable);
        st.layout.retired = keep;
        if reclaim.is_empty() {
            return 0;
        }
        for (meta, _) in &reclaim {
            // A recovered layout may list one an interrupted pass
            // already deleted.
            if self.store.lock().delete(&self.blob("seg", meta.id)) {
                self.obs.incr(self.names.gc_reclaimed);
            }
            st.evict(meta.id);
        }
        // Every manifest older than the durable one lists a reclaimed
        // segment as live (or predates one that does) and can never be
        // revived again: delete them too, so manifest storage stays
        // bounded and a query there reports out-of-retention instead
        // of a missing blob.
        let floor = st.layout.oldest_revivable.max(durable);
        st.layout.oldest_revivable = floor;
        for counter in self.manifest_counters() {
            if counter < floor {
                self.store.lock().delete(&self.blob("man", counter));
            }
        }
        reclaim.len()
    }

    /// The batch the next compaction merges: the lowest level's first
    /// [`COMPACT_FANIN`] segments adjacent in time with none known to
    /// be damaged among them.
    fn pick_batch(st: &State<P::Segment>) -> Option<Vec<SegmentMeta>> {
        // `live` is ordered by start, so consecutive segments of one
        // level are adjacent in time; a damaged one breaks the run.
        let mut runs: BTreeMap<u32, Vec<&SegmentMeta>> = BTreeMap::new();
        for meta in &st.layout.live {
            let run = runs.entry(meta.level).or_default();
            if run.len() == COMPACT_FANIN {
                continue;
            }
            if st.damaged.contains(&meta.id) {
                run.clear();
            } else {
                run.push(meta);
            }
        }
        let full = runs.into_values().find(|run| run.len() == COMPACT_FANIN)?;
        Some(full.into_iter().cloned().collect())
    }

    /// Merges one batch of same-level segments into a higher-level
    /// segment if any level has [`COMPACT_FANIN`] adjacent sound ones.
    /// Returns whether a compaction ran.
    ///
    /// Each input blob is read once and its frame verified; the
    /// payloads merge as bytes ([`Payload::merge`]) — nothing is
    /// decoded, so the decoded-segment cache keeps what queries warmed.
    /// All of it happens outside the layout lock (and never touches
    /// the engine's open buffer), so ingest and queries are not
    /// blocked; designed to run as an aux task on the shared commit
    /// worker pool.
    ///
    /// Every failure is counted and traced and leaves the inputs live
    /// and authoritative. An input that fails its frame or the merge's
    /// validation is remembered, and later calls step around it; a
    /// failed write of the output is not, so the same batch retries.
    pub fn maybe_compact(&self) -> Result<bool, SegmentError> {
        let inputs = {
            let mut st = self.state.lock();
            if st.compacting {
                return Ok(false);
            }
            let Some(batch) = Self::pick_batch(&st) else {
                return Ok(false);
            };
            st.compacting = true;
            batch
        };
        let result = self.compact(&inputs);
        self.state.lock().compacting = false;
        if let Err(e) = &result {
            self.obs.incr(self.names.compact_failures);
            let ids: Vec<u64> = inputs.iter().map(|m| m.id).collect();
            self.obs.event(
                self.names.stem,
                self.names.ev_compact_failed,
                format!("inputs={ids:?} error={e}"),
            );
        }
        result.map(|()| true)
    }

    /// Segment `id`'s blob, its frame verified: the payload is
    /// everything past the [`FRAME_HEADER`].
    fn verified_blob(&self, id: u64) -> Result<Arc<Vec<u8>>, SegmentError> {
        let blob = self
            .store
            .lock()
            .get(&self.blob("seg", id))
            .ok_or_else(|| SegmentError::Failed(format!("segment {id} missing")))?;
        unframe(self.names.seg_magic, &blob)?;
        Ok(blob)
    }

    fn compact(&self, inputs: &[SegmentMeta]) -> Result<(), SegmentError> {
        let _span = self.obs.span(self.names.stem, self.names.compact_span);
        // Oldest seal first: when an entry appears in several inputs,
        // `merge` must be able to tell which copy is the newest.
        let mut ordered: Vec<&SegmentMeta> = inputs.iter().collect();
        ordered.sort_by_key(|m| (m.sealed_at, m.id));
        let damaged = |id: u64, why: String| {
            self.state.lock().damaged.push(id);
            SegmentError::Failed(format!("segment {id} unreadable: {why}"))
        };
        let blobs = ordered
            .iter()
            .map(|m| {
                self.verified_blob(m.id)
                    .map_err(|e| damaged(m.id, e.to_string()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let payloads: Vec<&[u8]> = blobs.iter().map(|blob| &blob[FRAME_HEADER..]).collect();
        let (payload, instances) = self.payload.merge(&payloads).map_err(|e| match e {
            MergeError::Input(n, why) => damaged(ordered[n].id, why),
            MergeError::Output(why) => SegmentError::Failed(why),
        })?;
        let id = {
            let layout = &mut self.state.lock().layout;
            let id = layout.next_segment;
            layout.next_segment = id.saturating_add(1);
            id
        };
        // Inputs stay authoritative until the merged blob is durable.
        let bytes = self.put_segment(id, self.names.compact_site, &payload)?;
        let meta = SegmentMeta {
            id,
            level: inputs.iter().map(|m| m.level).max().expect("inputs") + 1,
            start: inputs.iter().map(|m| m.start).min().expect("inputs"),
            end: inputs.iter().map(|m| m.end).max().expect("inputs"),
            sealed_at: inputs.iter().map(|m| m.sealed_at).max().expect("inputs"),
            bytes,
            instances,
        };
        let mut st = self.state.lock();
        // Read the recycle window only now, under the same lock that
        // publishes the merged output: a seal that landed while the
        // blob was being written bumped the durable counter, and its
        // manifest lists the inputs but not the output — so the inputs
        // must stay revivable until a manifest written *after* this
        // point (which names the output) is durable.
        let reclaim_after = st.layout.counter.saturating_add(1);
        st.layout
            .live
            .retain(|m| inputs.iter().all(|i| i.id != m.id));
        st.layout.live.push(meta.clone());
        sort_live(&mut st.layout.live);
        for input in inputs {
            st.layout.retired.push((input.clone(), reclaim_after));
            st.evict(input.id);
        }
        self.report_layout(&st.layout);
        drop(st);
        self.obs.incr(self.names.compactions);
        self.obs.event(
            self.names.stem,
            self.names.ev_compact,
            format!(
                "inputs={:?} output={id} level={} instances={instances}",
                inputs.iter().map(|m| m.id).collect::<Vec<_>>(),
                meta.level
            ),
        );
        Ok(())
    }

    /// The decoded segment `id`, through the FIFO cache. The CRC is
    /// verified on every decode.
    pub fn segment(&self, id: u64) -> Result<Arc<P::Segment>, SegmentError> {
        if let Some(segment) = self.state.lock().cache.get(&id) {
            return Ok(segment.clone());
        }
        let blob = self.verified_blob(id)?;
        let decoded = self.payload.decode(&blob[FRAME_HEADER..]);
        let segment = Arc::new(decoded.map_err(SegmentError::Failed)?);
        let mut st = self.state.lock();
        if st.cache.len() >= SEGMENT_CACHE {
            if let Some(victim) = st.cache_order.pop_front() {
                st.cache.remove(&victim);
            }
        }
        st.cache.insert(id, segment.clone());
        st.cache_order.push_back(id);
        Ok(segment)
    }

    /// Runs `f` over the shards a query reads, oldest first: the
    /// sealed segments of the live layout plus the open buffer (`at` =
    /// `None`), or those of the layout as of checkpoint `at` alone.
    /// `overlaps` prunes segments by metadata before anything is
    /// decoded.
    pub fn with_shards<R>(
        &self,
        at: Option<u64>,
        overlaps: impl Fn(&SegmentMeta) -> bool,
        f: impl FnOnce(&[&P::Segment]) -> R,
    ) -> Result<R, SegmentError> {
        let metas = match at {
            None => self.state.lock().layout.live.clone(),
            Some(counter) => self
                .manifest_at_or_before(counter)?
                .map_or(Vec::new(), |m| m.live),
        };
        let wanted = metas.iter().filter(|m| overlaps(m));
        let sealed = wanted
            .map(|m| self.segment(m.id))
            .collect::<Result<Vec<_>, _>>()?;
        let open = at.is_none().then(|| self.open.lock());
        let shards: Vec<&P::Segment> = sealed
            .iter()
            .map(|s| s.as_ref())
            .chain(open.as_deref())
            .collect();
        Ok(f(&shards))
    }

    /// The layout as of checkpoint `counter`: the newest durable
    /// manifest at or before it, `None` when nothing had sealed by
    /// then.
    pub fn manifest_at_or_before(&self, counter: u64) -> Result<Option<Manifest>, SegmentError> {
        let oldest = self.state.lock().layout.oldest_revivable;
        if counter < oldest {
            // The manifest that would answer this was GC'd along with
            // the segments it referenced — a clean retention miss, not
            // a corruption.
            return Err(SegmentError::OutOfRetention {
                requested: counter,
                oldest,
            });
        }
        let counters = self.manifest_counters();
        let Some(found) = counters.into_iter().filter(|c| *c <= counter).max() else {
            return Ok(None);
        };
        let blob = self
            .store
            .lock()
            .get(&self.blob("man", found))
            .ok_or_else(|| SegmentError::Failed(format!("manifest {found} missing")))?;
        Ok(Some(decode_manifest(&blob)?))
    }
}

/// The steps of a sealed log that do not depend on its payload: what a
/// server drives for every index alike.
pub trait Lifecycle {
    /// Seals the open buffer if its window has elapsed, anchoring the
    /// segment to checkpoint `counter`. Call after each durable
    /// checkpoint. An empty buffer slides its window without sealing.
    fn maybe_seal(&self, counter: u64) -> Result<Option<SegmentMeta>, SegmentError>;

    /// The open buffer in segment-payload form, so an archive carries
    /// what no seal has made durable yet.
    fn export_open(&self) -> Result<Vec<u8>, SegmentError>;

    /// Replaces the open buffer with [`Lifecycle::export_open`] bytes,
    /// continuing after the layout [`Lifecycle::recover_latest`]
    /// restored.
    fn restore_open(&self, payload: &[u8]) -> Result<(), SegmentError>;

    /// Rebuilds the layout from the newest durable manifest (an
    /// archive import or restored store), finishes any reclaim that
    /// manifest had made due, and resumes the open buffer's id
    /// allocator and window from it. Returns the recovered layout, or
    /// `None` when the store has no manifest.
    fn recover_latest(&self) -> Result<Option<Manifest>, SegmentError>;
}

impl<P: Payload> Lifecycle for SealedLog<P> {
    fn maybe_seal(&self, counter: u64) -> Result<Option<SegmentMeta>, SegmentError> {
        let mut open = self.open.lock();
        let sealed = {
            let layout = &mut self.state.lock().layout;
            let sealed = self.payload.extent(&open, layout.open_start);
            if sealed.end < layout.open_start.saturating_add(self.config.window) {
                return Ok(None);
            }
            if sealed.instances == 0 {
                layout.open_start = sealed.end;
                return Ok(None);
            }
            sealed
        };
        self.seal_open(counter, &mut open, sealed).map(Some)
    }

    fn export_open(&self) -> Result<Vec<u8>, SegmentError> {
        let open = self.open.lock();
        self.payload.encode(&open).map_err(SegmentError::Failed)
    }

    fn restore_open(&self, payload: &[u8]) -> Result<(), SegmentError> {
        let mut restored = self.payload.decode(payload).map_err(SegmentError::Failed)?;
        let layout = self.layout();
        self.payload
            .resume(&mut restored, layout.next_instance, layout.open_start);
        *self.open.lock() = restored;
        Ok(())
    }

    fn recover_latest(&self) -> Result<Option<Manifest>, SegmentError> {
        let Some(manifest) = self.manifest_at_or_before(u64::MAX)? else {
            return Ok(None);
        };
        let layout = {
            let mut st = self.state.lock();
            st.layout = manifest;
            st.damaged.clear();
            st.cache.clear();
            st.cache_order.clear();
            self.gc_locked(&mut st);
            self.report_layout(&st.layout);
            st.layout.clone()
        };
        let mut open = self.open.lock();
        self.payload
            .resume(&mut open, layout.next_instance, layout.open_start);
        Ok(Some(layout))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv_fault::FaultPlan;

    fn meta(id: u64) -> SegmentMeta {
        SegmentMeta {
            id,
            level: 1,
            start: Timestamp::from_millis(id * 10),
            end: Timestamp::from_millis(id * 10 + 10),
            sealed_at: id,
            bytes: 100 + id,
            instances: id * 3,
        }
    }

    fn manifest() -> Manifest {
        Manifest {
            counter: 42,
            next_segment: 7,
            next_instance: 120,
            open_start: Timestamp::from_millis(500),
            oldest_revivable: 40,
            live: vec![meta(1), meta(4)],
            retired: vec![(meta(2), 43), (meta(3), 44)],
        }
    }

    #[test]
    fn framing_round_trips_and_detects_corruption() {
        let magic = b"DVTSEG01";
        let payload = b"pretend this is an encoded index".to_vec();
        let framed = frame(magic, &payload);
        assert_eq!(framed.len(), payload.len() + 20);
        assert_eq!(unframe(magic, &framed).unwrap(), &payload[..]);
        let mut mangled = framed.clone();
        let last = mangled.len() - 1;
        mangled[last] ^= 0xFF;
        assert_eq!(unframe(magic, &mangled), Err(FrameError("crc mismatch")));
        for cut in [0, 10, 19, framed.len() - 1] {
            assert!(unframe(magic, &framed[..cut]).is_err(), "cut at {cut}");
        }
        assert!(unframe(b"DVVSEG01", &framed).is_err(), "wrong family");
        assert_eq!(unframe(magic, &frame(magic, &[])).unwrap(), &[] as &[u8]);
    }

    #[test]
    fn manifest_round_trips_and_rejects_truncation() {
        let man = manifest();
        let encoded = encode_manifest(&man);
        assert_eq!(decode_manifest(&encoded).unwrap(), man);
        assert_eq!(
            decode_manifest(&encode_manifest(&Manifest::default())).unwrap(),
            Manifest::default()
        );
        for cut in [0, 12, 25, encoded.len() - 1] {
            assert!(decode_manifest(&encoded[..cut]).is_err(), "cut at {cut}");
        }
    }

    /// A well-framed manifest whose body is cut short, or whose list
    /// counts promise more than the bytes hold, is an error — never an
    /// allocation sized by the hostile count.
    #[test]
    fn manifest_body_lengths_are_checked_under_a_valid_frame() {
        let encoded = encode_manifest(&manifest());
        let body = unframe(MAN_MAGIC, &encoded).unwrap();
        for cut in 0..body.len() {
            assert!(
                decode_manifest(&frame(MAN_MAGIC, &body[..cut])).is_err(),
                "body cut at {cut}"
            );
        }
        let mut hostile = body.to_vec();
        hostile[40..48].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            decode_manifest(&frame(MAN_MAGIC, &hostile)),
            Err(FrameError("truncated segment meta"))
        );
        let mut trailing = body.to_vec();
        trailing.push(0);
        assert_eq!(
            decode_manifest(&frame(MAN_MAGIC, &trailing)),
            Err(FrameError("trailing bytes"))
        );
    }

    /// A toy payload: a segment is a strictly ascending id list.
    struct Ids;

    impl Payload for Ids {
        type Segment = Vec<u64>;

        fn encode(&self, ids: &Vec<u64>) -> Result<Vec<u8>, String> {
            Ok(ids.iter().flat_map(|id| id.to_le_bytes()).collect())
        }

        fn decode(&self, payload: &[u8]) -> Result<Vec<u64>, String> {
            let (words, rest) = payload.as_chunks::<8>();
            if !rest.is_empty() {
                return Err("ragged id list".into());
            }
            Ok(words.iter().map(|w| u64::from_le_bytes(*w)).collect())
        }

        fn merge(&self, inputs: &[&[u8]]) -> Result<(Vec<u8>, u64), MergeError> {
            let mut all = Vec::new();
            for (n, input) in inputs.iter().enumerate() {
                let ids = self.decode(input).map_err(|e| MergeError::Input(n, e))?;
                if ids.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(MergeError::Input(n, "ids out of order".into()));
                }
                all.extend(ids);
            }
            all.sort_unstable();
            Ok((self.encode(&all).expect("infallible"), all.len() as u64))
        }

        /// Id `n` was seen at `n` ms.
        fn extent(&self, ids: &Vec<u64>, open_start: Timestamp) -> Sealed {
            let at = |id: Option<&u64>| id.map_or(open_start, |&id| Timestamp::from_millis(id));
            Sealed {
                start: at(ids.first()),
                end: at(ids.last()),
                instances: ids.len() as u64,
                next_instance: ids.iter().max().map_or(0, |id| id + 1),
            }
        }

        fn carry(&self, _: &Vec<u64>) -> Vec<u64> {
            Vec::new()
        }

        fn resume(&self, _: &mut Vec<u64>, _: u64, _: Timestamp) {}
    }

    static IDS: Names = Names {
        stem: "ids",
        seg_magic: b"DVISEG01",
        seal_site: "ids.seal",
        compact_site: "ids.compact",
        seal_span: "ids.seal",
        compact_span: "ids.compact",
        seals: "ids.seals",
        compactions: "ids.compactions",
        compact_failures: "ids.compact_failures",
        gc_reclaimed: "ids.gc_reclaimed",
        sealed_segments: "ids.sealed_segments",
        sealed_bytes: "ids.sealed_bytes",
        ev_seal: "ids.sealed",
        ev_compact: "ids.compacted",
        ev_compact_failed: "ids.compact_failed",
    };

    fn ids_log(store: &SharedBlobStore, plane: FaultPlane, obs: Obs) -> SealedLog<Ids> {
        SealedLog::new(
            Ids,
            &IDS,
            Default::default(),
            store.clone(),
            plane,
            obs,
            SealedConfig::default(),
        )
    }

    /// Seals `[10 * n, 10 * n + 1]` as segment `n` for each `n`.
    fn publish(log: &SealedLog<Ids>, segments: std::ops::Range<u64>) {
        for n in segments {
            *log.open().lock() = vec![10 * n, 10 * n + 1];
            assert_eq!(log.seal(n + 1).unwrap().id, n);
        }
    }

    fn live(log: &SealedLog<Ids>) -> Vec<u64> {
        log.layout().live.iter().map(|m| m.id).collect()
    }

    /// Flips a payload byte of a stored segment.
    fn damage(store: &SharedBlobStore, name: &str) {
        let mut blob = (*store.lock().get(name).unwrap()).clone();
        blob[FRAME_HEADER] ^= 0xFF;
        store.put_deduped(name, blob).unwrap();
    }

    /// An unreadable input fails the compaction loudly — a counter and
    /// an event naming the batch — without stopping other batches from
    /// merging; a failed write of the output retries the same batch.
    #[test]
    fn a_damaged_input_is_reported_and_stepped_around() {
        let store = SharedBlobStore::in_memory();
        let plane = FaultPlan::new(5)
            .fail_nth(IDS.compact_site, 1, IoFault::Enospc)
            .build();
        let obs = Obs::sim();
        let log = ids_log(&store, plane, obs.clone());
        publish(&log, 0..9);
        damage(&store, "idsseg-00000000");
        assert!(log.maybe_compact().is_err(), "segment 0 fails its CRC");
        assert_eq!(obs.counter(IDS.compact_failures), 1);
        let events = obs.events();
        let event = events.iter().find(|e| e.name == IDS.ev_compact_failed);
        let detail = &event.expect("the failure is traced").detail;
        assert!(detail.contains("inputs=[0, 1, 2, 3]") && detail.contains("crc mismatch"));
        assert_eq!(live(&log), (0..9).collect::<Vec<_>>(), "inputs stay live");
        // The next batch clear of segment 0 hits the injected write
        // fault, which is transient: the same four merge on the retry.
        assert!(log.maybe_compact().is_err(), "output write faulted");
        assert_eq!(obs.counter(IDS.compact_failures), 2);
        assert_eq!(log.maybe_compact(), Ok(true));
        assert_eq!(live(&log), vec![0, 10, 5, 6, 7, 8], "ordered by start");
        assert_eq!(
            *log.segment(10).unwrap(),
            vec![10, 11, 20, 21, 30, 31, 40, 41]
        );
        assert_eq!(log.maybe_compact(), Ok(true));
        assert_eq!(live(&log), vec![0, 10, 11]);
        assert_eq!(log.maybe_compact(), Ok(false));
        assert_eq!(obs.counter(IDS.compactions), 2);
        // Sound segments still answer; the memory is this engine's
        // alone, so a recovered one looks at segment 0 again.
        assert!(log.segment(0).is_err());
        publish(&log, 12..15);
        assert_eq!(log.maybe_compact(), Ok(false), "0 is stepped around");
        let fresh = ids_log(&store, FaultPlane::disabled(), Obs::disabled());
        fresh.recover_latest().unwrap();
        assert!(fresh.maybe_compact().is_err(), "tried again after recovery");
        assert_eq!(fresh.maybe_compact(), Ok(false));
    }

    /// Records out of order under a valid frame are the merge's to
    /// reject — never a silently mis-merged output.
    #[test]
    fn an_input_the_merge_rejects_stays_live() {
        let store = SharedBlobStore::in_memory();
        let log = ids_log(&store, FaultPlane::disabled(), Obs::disabled());
        publish(&log, 0..3);
        *log.open().lock() = vec![31, 30];
        log.seal(4).unwrap();
        let err = log.maybe_compact().unwrap_err();
        assert!(err
            .to_string()
            .contains("segment 3 unreadable: ids out of order"));
        assert_eq!(live(&log), vec![0, 1, 2, 3]);
        assert_eq!(
            *log.segment(3).unwrap(),
            vec![31, 30],
            "decode still serves it"
        );
    }

    /// Compaction reads encoded payloads, so it pushes nothing through
    /// the decoded-segment cache: a full cache of query-warmed segments
    /// is still warm afterwards.
    #[test]
    fn compaction_leaves_the_decoded_segment_cache_alone() {
        let store = SharedBlobStore::in_memory();
        let log = ids_log(&store, FaultPlane::disabled(), Obs::disabled());
        let segments = (COMPACT_FANIN + SEGMENT_CACHE) as u64;
        publish(&log, 0..segments);
        let warm: Vec<_> = (COMPACT_FANIN as u64..segments)
            .map(|id| log.segment(id).unwrap())
            .collect();
        assert_eq!(log.maybe_compact(), Ok(true));
        assert_eq!(live(&log)[0], segments, "segments 0..4 merged");
        for (id, cached) in (COMPACT_FANIN as u64..segments).zip(&warm) {
            assert!(Arc::ptr_eq(cached, &log.segment(id).unwrap()), "{id}");
        }
    }
}
