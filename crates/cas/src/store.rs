//! The refcounted chunk store: manifests, root slots, and GC.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use dv_fault::{checksum, sites, FaultPlane, IoFault, Put, ReadError, Reader};
use dv_obs::Obs;

use crate::chunk::{chunk_id, split, ChunkId, ChunkSpan};

/// Root-slot magic, bumped with the on-disk layout.
const ROOT_MAGIC: &[u8; 8] = b"DVCASRT1";
/// Number of alternating root slots. Generation `g` lands in slot
/// `g % ROOT_SLOTS`, so the previous durable root is never overwritten
/// by an in-flight write.
pub const ROOT_SLOTS: usize = 2;

/// A decoded root's manifest table: `(blob name, logical length,
/// chunk spans)` per blob, exactly the shape `encode_root` wrote.
pub type RootManifests = Vec<(String, u64, Vec<(ChunkId, u32)>)>;

/// Parses a root image (CRC already verified).
fn read_root(image: &[u8]) -> Result<(u64, RootManifests), ReadError> {
    let mut r = Reader::new(image);
    r.magic(ROOT_MAGIC)?;
    let generation = r.u64()?;
    // A name length, a logical size and a span count.
    let count = r.count_u64(4 + 8 + 4)?;
    let mut names = Vec::with_capacity(count);
    for _ in 0..count {
        let name = r.str_u32()?.to_owned();
        let logical = r.u64()?;
        let span_count = r.count(16 + 4)?;
        let mut spans = Vec::with_capacity(span_count);
        for _ in 0..span_count {
            spans.push((ChunkId(u128::from_le_bytes(*r.array()?)), r.u32()?));
        }
        names.push((name, logical, spans));
    }
    r.finish()?;
    Ok((generation, names))
}

/// Failures surfaced by store operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CasError {
    /// No space: the operation persisted nothing.
    NoSpace,
    /// A torn, short, or unverifiable write; partial state may remain
    /// but is never reachable from a durable root.
    Io,
}

impl std::fmt::Display for CasError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CasError::NoSpace => write!(f, "no space"),
            CasError::Io => write!(f, "io error"),
        }
    }
}

impl std::error::Error for CasError {}

/// Cumulative store statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct CasStats {
    /// Chunks referenced by at least one manifest.
    pub live_chunks: u64,
    /// Zero-reference chunks waiting for a durable root before reclaim.
    pub retired_chunks: u64,
    /// Bytes resident in the chunk arena (live + retired).
    pub physical_bytes: u64,
    /// Sum of the logical lengths of all named blobs.
    pub logical_bytes: u64,
    /// Logical bytes accepted by `put` so far.
    pub put_logical_bytes: u64,
    /// Bytes of chunk data actually added to the arena by `put` so far.
    pub put_physical_bytes: u64,
    /// Chunk writes absorbed by an already-resident chunk.
    pub dedup_hits: u64,
    /// Chunk writes that had to store new data.
    pub dedup_misses: u64,
    /// Chunks physically reclaimed by GC.
    pub reclaimed_chunks: u64,
    /// Bytes physically reclaimed by GC.
    pub reclaimed_bytes: u64,
    /// Root generations made durable.
    pub root_writes: u64,
    /// Root writes abandoned (torn, short, out of space, or failed
    /// read-back verification).
    pub root_write_failures: u64,
    /// Chunk reads whose content hash did not match their id.
    pub verify_failures: u64,
    /// Root slots skipped at recovery because they failed validation.
    pub root_fallbacks: u64,
    /// The durable root generation.
    pub generation: u64,
}

impl CasStats {
    /// Logical-to-physical write amplification inverse: how many times
    /// over the stored chunk bytes have been reused. 1.0 means no
    /// dedup; `n` means the store absorbed `n` logical bytes per
    /// physical byte written.
    pub fn dedup_ratio(&self) -> f64 {
        self.put_logical_bytes as f64 / (self.put_physical_bytes.max(1)) as f64
    }
}

/// Result of one bounded GC sweep step.
#[derive(Clone, Copy, Debug, Default)]
pub struct GcStep {
    /// Retired chunks eligible for reclaim that this step examined.
    pub scanned: u64,
    /// Chunks physically removed.
    pub reclaimed_chunks: u64,
    /// Bytes physically removed.
    pub reclaimed_bytes: u64,
    /// Whether every currently-eligible chunk has been reclaimed.
    /// Chunks retired since the last durable root stay resident until
    /// the next [`ChunkStore::persist_root`] regardless of sweeping.
    pub done: bool,
}

struct ChunkEntry {
    data: Arc<Vec<u8>>,
    refs: u32,
}

struct ManifestEntry {
    refs: u32,
    spans: Vec<(ChunkId, u32)>,
    logical: u64,
}

/// A content-addressed, refcounted, deduplicating chunk store.
///
/// Blobs are split into content-defined chunks ([`split`]); identical
/// chunks are stored once and shared by reference count across blobs,
/// checkpoints, and tenants. Metadata (the name → manifest map) becomes
/// durable only through [`persist_root`](ChunkStore::persist_root),
/// which alternates between generation-numbered, CRC-trailed root
/// slots; [`crash`](ChunkStore::crash) recovers from the newest intact
/// slot. Chunks whose reference count hits zero are *retired*, not
/// freed: GC ([`gc_step`](ChunkStore::gc_step)) reclaims a retired
/// chunk only after a root that no longer references it is durable, so
/// a crash mid-sweep can never lose data reachable from any
/// recoverable root.
///
/// # Examples
///
/// ```
/// use dv_cas::ChunkStore;
///
/// let mut store = ChunkStore::new();
/// store.put("a", &vec![7u8; 65536]).unwrap();
/// store.put("b", &vec![7u8; 65536]).unwrap(); // dedups against "a"
/// let stats = store.stats();
/// assert!(stats.physical_bytes < stats.logical_bytes);
/// assert_eq!(store.get("a").unwrap(), vec![7u8; 65536]);
/// ```
pub struct ChunkStore {
    chunks: HashMap<ChunkId, ChunkEntry>,
    manifests: HashMap<String, u64>,
    table: HashMap<u64, ManifestEntry>,
    next_manifest: u64,
    /// Retired chunk → generation that must be durable before reclaim.
    retired: BTreeMap<ChunkId, u64>,
    slots: [Vec<u8>; ROOT_SLOTS],
    durable_generation: u64,
    stats: CasStats,
    plane: FaultPlane,
    obs: Obs,
}

impl Default for ChunkStore {
    fn default() -> Self {
        ChunkStore::new()
    }
}

impl ChunkStore {
    /// Creates an empty store at generation zero.
    pub fn new() -> Self {
        ChunkStore {
            chunks: HashMap::new(),
            manifests: HashMap::new(),
            table: HashMap::new(),
            next_manifest: 0,
            retired: BTreeMap::new(),
            slots: Default::default(),
            durable_generation: 0,
            stats: CasStats::default(),
            plane: FaultPlane::disabled(),
            obs: Obs::disabled(),
        }
    }

    /// Installs the observability handle (`cas.*` metrics).
    pub fn set_obs(&mut self, obs: Obs) {
        self.plane.set_obs(obs.clone());
        self.obs = obs;
    }

    /// Installs the fault-injection plane (sites `cas.chunk`,
    /// `cas.root`, `cas.gc`).
    pub fn set_fault_plane(&mut self, plane: FaultPlane) {
        plane.set_obs(self.obs.clone());
        self.plane = plane;
    }

    /// Whether a blob with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.manifests.contains_key(name)
    }

    /// Blob names in unspecified order.
    pub fn names(&self) -> Vec<String> {
        self.manifests.keys().cloned().collect()
    }

    /// Splits, hashes, and stores a blob under `name`, replacing any
    /// previous blob with that name.
    pub fn put(&mut self, name: &str, data: &[u8]) -> Result<(), CasError> {
        let spans = split(data);
        self.put_presplit(name, data, &spans)
    }

    /// Stores a blob whose chunk split was precomputed by
    /// [`split`] — the hashing happens without holding whatever lock
    /// guards this store. Falls back to re-splitting if the spans do
    /// not cover `data`.
    ///
    /// Injectable failures (site `cas.chunk`): `Enospc` persists
    /// nothing; `TornWrite`/`ShortRead` persist a prefix of the new
    /// chunks as unreferenced orphans (reclaimed by GC after the next
    /// durable root) and error without installing the manifest;
    /// `Corrupt` silently mangles one newly stored chunk — a later
    /// [`get`](ChunkStore::get) detects the mismatch against the
    /// content hash.
    pub fn put_presplit(
        &mut self,
        name: &str,
        data: &[u8],
        spans: &[ChunkSpan],
    ) -> Result<(), CasError> {
        let _span = self.obs.span("cas", dv_obs::names::CAS_PUT);
        let covers = spans.iter().map(|s| s.len).sum::<usize>() == data.len()
            && spans
                .windows(2)
                .all(|w| w[0].offset + w[0].len == w[1].offset)
            && spans.first().is_none_or(|s| s.offset == 0);
        let resplit;
        let spans = if covers {
            spans
        } else {
            resplit = split(data);
            &resplit
        };

        match self.plane.check(sites::CAS_CHUNK) {
            None | Some(IoFault::LatencySpike) => {
                self.install(name, data, spans, None);
                Ok(())
            }
            Some(IoFault::Enospc) => Err(CasError::NoSpace),
            Some(IoFault::TornWrite) | Some(IoFault::ShortRead) => {
                // A torn multi-chunk write: a prefix of the new chunks
                // reaches the arena, the manifest never lands. The
                // orphans are invisible to readers and swept by GC.
                let keep = self.plane.short_len(spans.len().max(1));
                for span in &spans[..keep.min(spans.len())] {
                    if !self.chunks.contains_key(&span.id) {
                        self.insert_chunk(
                            span.id,
                            data[span.offset..span.offset + span.len].to_vec(),
                        );
                        self.retire_chunk(span.id);
                    }
                }
                self.publish_gauges();
                Err(CasError::Io)
            }
            Some(IoFault::Corrupt) => {
                self.install(name, data, spans, Some(self.plane.clone()));
                Ok(())
            }
        }
    }

    /// The fault-free core of a put. `corrupt` mangles the first newly
    /// stored chunk, modelling silent media corruption.
    fn install(
        &mut self,
        name: &str,
        data: &[u8],
        spans: &[ChunkSpan],
        corrupt: Option<FaultPlane>,
    ) {
        let mut corrupt = corrupt;
        let mut manifest_spans = Vec::with_capacity(spans.len());
        for span in spans {
            if let Some(entry) = self.chunks.get_mut(&span.id) {
                entry.refs += 1;
                if entry.refs == 1 {
                    // Resurrection: the chunk was retired but not yet
                    // reclaimed; it is live again.
                    self.retired.remove(&span.id);
                    self.stats.retired_chunks -= 1;
                    self.stats.live_chunks += 1;
                }
                self.stats.dedup_hits += 1;
            } else {
                let mut bytes = data[span.offset..span.offset + span.len].to_vec();
                if let Some(plane) = corrupt.take() {
                    plane.mangle(&mut bytes);
                }
                self.insert_chunk(span.id, bytes);
                self.chunks.get_mut(&span.id).unwrap().refs = 1;
                self.stats.live_chunks += 1;
                self.stats.dedup_misses += 1;
                self.stats.put_physical_bytes += span.len as u64;
            }
            manifest_spans.push((span.id, span.len as u32));
        }
        let id = self.next_manifest;
        self.next_manifest += 1;
        self.table.insert(
            id,
            ManifestEntry {
                refs: 1,
                spans: manifest_spans,
                logical: data.len() as u64,
            },
        );
        let old = self.manifests.insert(name.to_string(), id);
        self.stats.logical_bytes += data.len() as u64;
        self.stats.put_logical_bytes += data.len() as u64;
        if let Some(old_id) = old {
            let old_logical = self.table[&old_id].logical;
            self.stats.logical_bytes -= old_logical;
            self.drop_manifest_ref(old_id);
        }
        self.obs.incr(dv_obs::names::CAS_PUTS);
        self.publish_gauges();
    }

    fn insert_chunk(&mut self, id: ChunkId, bytes: Vec<u8>) {
        self.stats.physical_bytes += bytes.len() as u64;
        self.chunks.insert(
            id,
            ChunkEntry {
                data: Arc::new(bytes),
                refs: 0,
            },
        );
    }

    /// Marks a zero-reference chunk reclaimable only once the *next*
    /// root is durable: the current durable root may still reference
    /// it, and recovery must be able to fall back to that root intact.
    fn retire_chunk(&mut self, id: ChunkId) {
        self.retired.insert(id, self.durable_generation + 1);
        self.stats.retired_chunks += 1;
    }

    fn drop_manifest_ref(&mut self, id: u64) {
        let entry = self.table.get_mut(&id).expect("manifest ref underflow");
        entry.refs -= 1;
        if entry.refs > 0 {
            return;
        }
        let entry = self.table.remove(&id).unwrap();
        for (chunk, _) in &entry.spans {
            let c = self.chunks.get_mut(chunk).expect("chunk ref underflow");
            c.refs -= 1;
            if c.refs == 0 {
                self.stats.live_chunks -= 1;
                self.retire_chunk(*chunk);
            }
        }
    }

    /// Reassembles a named blob from its chunks.
    ///
    /// Every chunk is re-hashed against its content address; mismatches
    /// (e.g. an injected `cas.chunk` corruption) are counted and traced
    /// but the assembled bytes are still returned — the layers above
    /// (image decode, CRC framing) decide what a damaged blob means.
    pub fn get(&mut self, name: &str) -> Option<Vec<u8>> {
        let manifest = self.manifests.get(name)?;
        let entry = &self.table[manifest];
        let mut out = Vec::with_capacity(entry.logical as usize);
        let mut mismatches = 0u64;
        for (chunk, len) in &entry.spans {
            let data = &self.chunks.get(chunk)?.data;
            debug_assert_eq!(data.len(), *len as usize);
            if chunk_id(data) != *chunk {
                mismatches += 1;
            }
            out.extend_from_slice(data);
        }
        if mismatches > 0 {
            self.stats.verify_failures += mismatches;
            self.obs.add(dv_obs::names::CAS_VERIFY_FAILURES, mismatches);
            self.obs.event(
                "cas",
                dv_obs::names::EV_CAS_VERIFY_FAILURE,
                format!("name={name} mismatched_chunks={mismatches}"),
            );
        }
        Some(out)
    }

    /// Reassembles a named blob without content verification or stats —
    /// for read-only walks like archive export.
    pub fn peek(&self, name: &str) -> Option<Vec<u8>> {
        let manifest = self.manifests.get(name)?;
        let entry = &self.table[manifest];
        let mut out = Vec::with_capacity(entry.logical as usize);
        for (chunk, _) in &entry.spans {
            out.extend_from_slice(&self.chunks.get(chunk)?.data);
        }
        Some(out)
    }

    /// Clones `src` to `dst` in O(1) by bumping the manifest refcount —
    /// the rucksdb hard-link trick. Returns `false` if `src` is absent.
    pub fn clone_blob(&mut self, src: &str, dst: &str) -> bool {
        let Some(&id) = self.manifests.get(src) else {
            return false;
        };
        if src == dst {
            return true;
        }
        self.table.get_mut(&id).unwrap().refs += 1;
        let logical = self.table[&id].logical;
        let old = self.manifests.insert(dst.to_string(), id);
        self.stats.logical_bytes += logical;
        if let Some(old_id) = old {
            let old_logical = self.table[&old_id].logical;
            self.stats.logical_bytes -= old_logical;
            self.drop_manifest_ref(old_id);
        }
        self.publish_gauges();
        true
    }

    /// Removes a named blob; its now-unreferenced chunks are retired
    /// for GC. Returns whether the name existed.
    pub fn delete(&mut self, name: &str) -> bool {
        let Some(id) = self.manifests.remove(name) else {
            return false;
        };
        let logical = self.table[&id].logical;
        self.stats.logical_bytes -= logical;
        self.drop_manifest_ref(id);
        self.publish_gauges();
        true
    }

    /// Encodes the manifest map as a root image (without CRC trailer).
    fn encode_root(&self, generation: u64) -> Vec<u8> {
        let mut names: Vec<&String> = self.manifests.keys().collect();
        names.sort();
        let mut out = Vec::new();
        out.extend_from_slice(ROOT_MAGIC);
        out.put_u64(generation);
        out.put_u64(names.len() as u64);
        for name in names {
            let entry = &self.table[&self.manifests[name]];
            out.put_str_u32(name);
            out.put_u64(entry.logical);
            out.put_u32(entry.spans.len() as u32);
            for (chunk, len) in &entry.spans {
                out.extend_from_slice(&chunk.0.to_le_bytes());
                out.put_u32(*len);
            }
        }
        out
    }

    /// Decodes and validates one root slot as
    /// [`persist_root`](ChunkStore::persist_root) writes it: the root
    /// image, then the CRC32 of the image. `None` when the slot is torn,
    /// corrupt or malformed.
    pub fn decode_root(slot: &[u8]) -> Option<(u64, RootManifests)> {
        let (image, crc) = slot.split_last_chunk::<4>()?;
        if checksum::crc32(image) != u32::from_le_bytes(*crc) {
            return None;
        }
        read_root(image).ok()
    }

    /// The root slots as last written, torn or not.
    pub fn root_slots(&self) -> &[Vec<u8>; ROOT_SLOTS] {
        &self.slots
    }

    /// Writes the next root generation into its slot and, on verified
    /// success, advances the durable generation — the moment chunks
    /// retired before this call become eligible for reclaim.
    ///
    /// The written slot is read back and CRC-verified before the
    /// generation is considered durable (the wrongodb discipline), so a
    /// torn or corrupted slot (site `cas.root`) is *abandoned*: the
    /// previous generation stays authoritative and the next attempt
    /// rewrites the same slot.
    pub fn persist_root(&mut self) -> Result<u64, CasError> {
        let _span = self.obs.span("cas", dv_obs::names::CAS_ROOT_WRITE);
        let generation = self.durable_generation + 1;
        let mut image = self.encode_root(generation);
        let crc = checksum::crc32(&image);
        image.extend_from_slice(&crc.to_le_bytes());
        let slot = (generation % ROOT_SLOTS as u64) as usize;
        match self.plane.check(sites::CAS_ROOT) {
            None | Some(IoFault::LatencySpike) => {
                self.slots[slot] = image;
            }
            Some(IoFault::Enospc) => {
                self.stats.root_write_failures += 1;
                return Err(CasError::NoSpace);
            }
            Some(IoFault::TornWrite) | Some(IoFault::ShortRead) => {
                let keep = self.plane.short_len(image.len());
                image.truncate(keep);
                self.slots[slot] = image;
                self.stats.root_write_failures += 1;
                return Err(CasError::Io);
            }
            Some(IoFault::Corrupt) => {
                self.plane.mangle(&mut image);
                self.slots[slot] = image;
            }
        }
        // Read-back verification: only an intact, current-generation
        // slot advances durability.
        match ChunkStore::decode_root(&self.slots[slot]) {
            Some((gen, _)) if gen == generation => {
                self.durable_generation = generation;
                self.stats.generation = generation;
                self.stats.root_writes += 1;
                self.obs.incr(dv_obs::names::CAS_ROOT_WRITES);
                self.obs
                    .gauge_set(dv_obs::names::CAS_GENERATION, generation);
                Ok(generation)
            }
            _ => {
                self.stats.root_write_failures += 1;
                self.obs.event(
                    "cas",
                    dv_obs::names::EV_CAS_ROOT_ABANDONED,
                    format!("generation={generation} failed read-back verification"),
                );
                Err(CasError::Io)
            }
        }
    }

    /// Reclaims up to `max_chunks` retired chunks whose absence is
    /// already durable (their retire generation is ≤ the durable root
    /// generation). Bounded so a concurrent sweep can interleave with
    /// writers: callers loop over `gc_step` releasing their lock
    /// between batches.
    ///
    /// Injectable failures (site `cas.gc`): any fault aborts this step
    /// before reclaiming anything — retired chunks simply survive to
    /// the next sweep, which is always safe.
    pub fn gc_step(&mut self, max_chunks: usize) -> Result<GcStep, CasError> {
        let _span = self.obs.span("cas", dv_obs::names::CAS_GC_SWEEP);
        match self.plane.check(sites::CAS_GC) {
            None | Some(IoFault::LatencySpike) => {}
            Some(fault) => {
                self.obs.event(
                    "cas",
                    dv_obs::names::EV_CAS_GC_ABORT,
                    format!("fault={fault:?}"),
                );
                return Err(if fault == IoFault::Enospc {
                    CasError::NoSpace
                } else {
                    CasError::Io
                });
            }
        }
        let eligible: Vec<ChunkId> = self
            .retired
            .iter()
            .filter(|(_, stamp)| **stamp <= self.durable_generation)
            .map(|(id, _)| *id)
            .collect();
        let mut step = GcStep {
            scanned: eligible.len().min(max_chunks) as u64,
            done: eligible.len() <= max_chunks,
            ..GcStep::default()
        };
        for id in eligible.into_iter().take(max_chunks) {
            self.retired.remove(&id);
            let entry = self.chunks.remove(&id).expect("retired chunk missing");
            debug_assert_eq!(entry.refs, 0);
            self.stats.retired_chunks -= 1;
            self.stats.physical_bytes -= entry.data.len() as u64;
            self.stats.reclaimed_chunks += 1;
            self.stats.reclaimed_bytes += entry.data.len() as u64;
            step.reclaimed_chunks += 1;
            step.reclaimed_bytes += entry.data.len() as u64;
        }
        self.obs.incr(dv_obs::names::CAS_GC_SWEEPS);
        self.obs.add(
            dv_obs::names::CAS_GC_RECLAIMED_CHUNKS,
            step.reclaimed_chunks,
        );
        self.obs
            .add(dv_obs::names::CAS_GC_RECLAIMED_BYTES, step.reclaimed_bytes);
        self.obs
            .observe(dv_obs::names::CAS_GC_BATCH, step.reclaimed_chunks);
        self.publish_gauges();
        Ok(step)
    }

    /// Simulates a power cut: everything volatile is lost, and a new
    /// store is rebuilt from the root slots plus the chunk arena —
    /// exactly what a real mount would read. Recovery selects the
    /// newest slot that passes CRC validation (torn or corrupted slots
    /// are skipped and counted as fallbacks), recomputes chunk
    /// reference counts from the recovered manifests, and retires every
    /// arena chunk the recovered root does not reference.
    pub fn crash(&self) -> ChunkStore {
        let mut best: Option<(u64, RootManifests)> = None;
        let mut fallbacks = 0u64;
        for slot in &self.slots {
            match ChunkStore::decode_root(slot) {
                Some((generation, names)) if best.as_ref().is_none_or(|(g, _)| generation > *g) => {
                    best = Some((generation, names));
                }
                Some(_) => {}
                None if !slot.is_empty() => fallbacks += 1,
                None => {}
            }
        }
        let (generation, names) = best.unwrap_or((0, Vec::new()));
        let mut store = ChunkStore::new();
        store.slots = self.slots.clone();
        store.durable_generation = generation;
        store.stats.generation = generation;
        store.stats.root_fallbacks = fallbacks;
        // The arena survives the crash; metadata is rebuilt from the
        // recovered root.
        for (id, entry) in &self.chunks {
            store.insert_chunk(*id, (*entry.data).clone());
        }
        for (name, logical, spans) in names {
            if !spans.iter().all(|(id, _)| store.chunks.contains_key(id)) {
                // A referenced chunk is gone: unreachable under the
                // recycle-only-after-checkpoint rule, but surface it
                // rather than fabricate bytes.
                store.obs.event(
                    "cas",
                    dv_obs::names::EV_CAS_VERIFY_FAILURE,
                    format!("name={name} lost chunks at recovery"),
                );
                continue;
            }
            for (id, _) in &spans {
                let c = store.chunks.get_mut(id).unwrap();
                if c.refs == 0 {
                    store.stats.live_chunks += 1;
                }
                c.refs += 1;
            }
            let id = store.next_manifest;
            store.next_manifest += 1;
            store.table.insert(
                id,
                ManifestEntry {
                    refs: 1,
                    spans,
                    logical,
                },
            );
            store.manifests.insert(name, id);
            store.stats.logical_bytes += logical;
        }
        // Orphans — chunks no durable root references — are immediately
        // eligible for reclaim.
        let orphans: Vec<ChunkId> = store
            .chunks
            .iter()
            .filter(|(_, e)| e.refs == 0)
            .map(|(id, _)| *id)
            .collect();
        for id in orphans {
            store.retired.insert(id, generation);
            store.stats.retired_chunks += 1;
        }
        store
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> CasStats {
        self.stats
    }

    /// The durable root generation (zero before the first
    /// [`persist_root`](ChunkStore::persist_root)).
    pub fn generation(&self) -> u64 {
        self.durable_generation
    }

    fn publish_gauges(&self) {
        self.obs
            .gauge_set(dv_obs::names::CAS_CHUNKS, self.stats.live_chunks);
        self.obs
            .gauge_set(dv_obs::names::CAS_PHYSICAL_BYTES, self.stats.physical_bytes);
        self.obs
            .gauge_set(dv_obs::names::CAS_LOGICAL_BYTES, self.stats.logical_bytes);
    }
}
