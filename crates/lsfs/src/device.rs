//! Checkpoint-image blob storage with a droppable cache.
//!
//! Checkpoint images are written as flat files outside the recorded file
//! system. [`BlobStore`] models the storage stack they sit on: a backing
//! store, an in-memory page cache that can be dropped, and an optional
//! read-latency model standing in for the 2007-era disk of the paper's
//! testbed. Figure 7 compares revive latency with *cached* vs *uncached*
//! checkpoint files — "for the uncached case, revive times are all
//! several seconds and are dominated by I/O latencies" — and the latency
//! model is what makes that distinction reproducible on a machine whose
//! real storage is orders of magnitude faster. The substitution is
//! documented in DESIGN.md.

use std::collections::HashMap;
use std::sync::Arc;

use dv_cas::{CasError, CasStats, ChunkSpan, ChunkStore, GcStep};
use dv_fault::{sites, FaultPlane, IoFault, Put, Reader};
use dv_obs::Obs;
use dv_time::{Duration, Sleeper};
use parking_lot::{Mutex, MutexGuard};

use crate::error::{FsError, FsResult};

fn cas_err(err: CasError) -> FsError {
    match err {
        CasError::NoSpace => FsError::NoSpace,
        CasError::Io => FsError::Io,
    }
}

/// A disk read-latency model applied to cache misses.
#[derive(Clone, Copy, Debug)]
pub struct ReadLatency {
    /// Fixed per-read cost (seek + rotational delay).
    pub seek: Duration,
    /// Transfer cost per mebibyte.
    pub per_mib: Duration,
}

impl ReadLatency {
    /// A model of the paper's 2007-era SATA disk: ~8 ms seek and
    /// ~60 MiB/s sequential transfer.
    pub fn desktop_disk_2007() -> Self {
        ReadLatency {
            seek: Duration::from_millis(8),
            per_mib: Duration::from_micros(16_600),
        }
    }

    fn cost(&self, bytes: usize) -> Duration {
        let per_byte = self.per_mib.as_nanos() as f64 / (1024.0 * 1024.0);
        self.seek + Duration::from_nanos((bytes as f64 * per_byte) as u64)
    }
}

/// A named-blob store with a droppable read cache.
///
/// # Examples
///
/// ```
/// use dv_lsfs::BlobStore;
///
/// let mut store = BlobStore::in_memory();
/// store.put("ckpt.0001", vec![1, 2, 3]).unwrap();
/// assert_eq!(&*store.get("ckpt.0001").unwrap(), &[1, 2, 3]);
/// ```
pub struct BlobStore {
    backing: HashMap<String, Arc<Vec<u8>>>,
    cas: Option<ChunkStore>,
    cache: HashMap<String, Arc<Vec<u8>>>,
    latency: Option<ReadLatency>,
    plane: FaultPlane,
    sleeper: Sleeper,
    obs: Obs,
}

impl BlobStore {
    /// Creates a store with no latency model (tests, fast paths).
    pub fn in_memory() -> Self {
        BlobStore {
            backing: HashMap::new(),
            cas: None,
            cache: HashMap::new(),
            latency: None,
            plane: FaultPlane::disabled(),
            sleeper: Sleeper::Wall,
            obs: Obs::disabled(),
        }
    }

    /// Creates a store layered on a [`dv_cas::ChunkStore`]: blobs are
    /// split into content-defined chunks deduplicated across names
    /// (and, through [`SharedBlobStore`], across tenants). Logical
    /// semantics — contents, names, `lsfs.blob_put_bytes` accounting — are
    /// those of [`in_memory`](BlobStore::in_memory);
    /// [`cas_stats`](BlobStore::cas_stats) exposes the physical side.
    fn in_memory_deduped() -> Self {
        BlobStore {
            cas: Some(ChunkStore::new()),
            ..BlobStore::in_memory()
        }
    }

    /// Whether this store dedups through the content-addressed layer.
    fn cas_enabled(&self) -> bool {
        self.cas.is_some()
    }

    /// Installs the observability handle (`lsfs.blob_*` metrics).
    pub fn set_obs(&mut self, obs: Obs) {
        self.plane.set_obs(obs.clone());
        if let Some(cas) = &mut self.cas {
            cas.set_obs(obs.clone());
        }
        self.obs = obs;
    }

    /// Installs the fault-injection plane (sites `lsfs.blob.put` and
    /// `lsfs.blob.get`, plus the `cas.*` sites when dedup is enabled).
    pub fn set_fault_plane(&mut self, plane: FaultPlane) {
        plane.set_obs(self.obs.clone());
        if let Some(cas) = &mut self.cas {
            cas.set_fault_plane(plane.clone());
        }
        self.plane = plane;
    }

    /// Creates a store whose cache misses pay `latency`.
    fn with_latency(latency: ReadLatency) -> Self {
        BlobStore {
            latency: Some(latency),
            ..BlobStore::in_memory()
        }
    }

    /// Stores (or replaces) a blob; the new contents are cached.
    ///
    /// Injectable failures (site [`sites::LSFS_BLOB_PUT`]): `Enospc`
    /// persists nothing; `TornWrite`/`ShortRead` leave a truncated
    /// object behind and error; `Corrupt` stores the full length with
    /// one mangled byte and reports success.
    pub fn put(&mut self, name: &str, data: Vec<u8>) -> FsResult<()> {
        self.put_inner(name, data, None)
    }

    /// Stores a blob whose content-defined chunk split was already
    /// computed (by [`dv_cas::split`]) *outside* whatever lock guards
    /// this store — the deduplicating fast path used by checkpoint
    /// commit workers via [`SharedBlobStore::put_deduped`]. Identical
    /// to [`put`](BlobStore::put) when dedup is disabled.
    fn put_presplit(&mut self, name: &str, data: Vec<u8>, spans: &[ChunkSpan]) -> FsResult<()> {
        self.put_inner(name, data, Some(spans))
    }

    fn put_inner(
        &mut self,
        name: &str,
        data: Vec<u8>,
        spans: Option<&[ChunkSpan]>,
    ) -> FsResult<()> {
        let _span = self.obs.span("lsfs", dv_obs::names::LSFS_BLOB_PUT);
        self.obs.incr(dv_obs::names::LSFS_BLOB_PUTS);
        self.obs
            .add(dv_obs::names::LSFS_BLOB_PUT_BYTES, data.len() as u64);
        let mut data = data;
        let mut torn = false;
        let mut mutated = false;
        match self.plane.check(sites::LSFS_BLOB_PUT) {
            None | Some(IoFault::LatencySpike) => {}
            Some(IoFault::Enospc) => return Err(FsError::NoSpace),
            Some(IoFault::TornWrite) | Some(IoFault::ShortRead) => {
                let keep = self.plane.short_len(data.len());
                data.truncate(keep);
                torn = true;
                mutated = true;
            }
            Some(IoFault::Corrupt) => {
                self.plane.mangle(&mut data);
                mutated = true;
            }
        }
        if let Some(cas) = &mut self.cas {
            // A blob-layer fault invalidates any precomputed split.
            let result = match spans.filter(|_| !mutated) {
                Some(spans) => cas.put_presplit(name, &data, spans),
                None => cas.put(name, &data),
            };
            self.cache.remove(name);
            result.map_err(cas_err)?;
            if torn {
                return Err(FsError::Io);
            }
            self.cache.insert(name.to_string(), Arc::new(data));
        } else {
            let data = Arc::new(data);
            self.backing.insert(name.to_string(), data.clone());
            if torn {
                self.cache.remove(name);
                return Err(FsError::Io);
            }
            self.cache.insert(name.to_string(), data);
        }
        Ok(())
    }

    /// Retrieves a blob, filling the cache on a miss. A miss pays the
    /// configured read latency.
    ///
    /// Injectable failures (site [`sites::LSFS_BLOB_GET`]):
    /// `ShortRead`/`TornWrite` return a truncated copy and `Corrupt` a
    /// mangled copy — uncached in both cases, so the stored blob and
    /// the page cache stay intact; `Enospc` surfaces as a failed read
    /// (`None`).
    pub fn get(&mut self, name: &str) -> Option<Arc<Vec<u8>>> {
        self.obs.incr(dv_obs::names::LSFS_BLOB_GETS);
        let fault = self.plane.check(sites::LSFS_BLOB_GET);
        if let Some(IoFault::Enospc) = fault {
            return None;
        }
        let data = if let Some(data) = self.cache.get(name) {
            data.clone()
        } else {
            let data = match &mut self.cas {
                Some(cas) => Arc::new(cas.get(name)?),
                None => self.backing.get(name)?.clone(),
            };
            if let Some(model) = self.latency {
                let mut cost = model.cost(data.len());
                if let Some(IoFault::LatencySpike) = fault {
                    cost = cost + cost;
                }
                self.sleeper.sleep(cost);
            }
            self.cache.insert(name.to_string(), data.clone());
            data
        };
        match fault {
            Some(IoFault::ShortRead) | Some(IoFault::TornWrite) => {
                let keep = self.plane.short_len(data.len());
                Some(Arc::new(data[..keep].to_vec()))
            }
            Some(IoFault::Corrupt) => {
                let mut copy = (*data).clone();
                self.plane.mangle(&mut copy);
                Some(Arc::new(copy))
            }
            _ => Some(data),
        }
    }

    /// Returns whether a blob exists (no latency, metadata only).
    pub fn contains(&self, name: &str) -> bool {
        match &self.cas {
            Some(cas) => cas.contains(name),
            None => self.backing.contains_key(name),
        }
    }

    /// Removes a blob. Under dedup, its now-unreferenced chunks are
    /// retired for the concurrent GC rather than freed in place.
    pub fn delete(&mut self, name: &str) -> bool {
        self.cache.remove(name);
        match &mut self.cas {
            Some(cas) => cas.delete(name),
            None => self.backing.remove(name).is_some(),
        }
    }

    /// Drops the read cache: subsequent reads pay backing-store latency,
    /// the "uncached" condition of Figure 7.
    pub fn drop_caches(&mut self) {
        self.cache.clear();
    }

    /// Lists blob names in unspecified order.
    pub fn names(&self) -> Vec<String> {
        match &self.cas {
            Some(cas) => cas.names(),
            None => self.backing.keys().cloned().collect(),
        }
    }

    /// Serializes every blob (names sorted for determinism). The image
    /// is logical — deduplicated blobs are materialized — so exports
    /// round-trip between deduped and plain stores.
    pub fn export(&self) -> Vec<u8> {
        let mut names = self.names();
        names.sort();
        let mut out = Vec::new();
        out.put_u64(names.len() as u64);
        for name in names {
            let data = match &self.cas {
                Some(cas) => cas.peek(&name).unwrap_or_default(),
                None => self.backing[&name].to_vec(),
            };
            out.put_str_u32(&name);
            out.put_bytes_u64(&data);
        }
        out
    }

    /// Statistics of the content-addressed layer, when enabled.
    pub fn cas_stats(&self) -> Option<CasStats> {
        self.cas.as_ref().map(|cas| cas.stats())
    }

    /// Persists the chunk-store metadata root (generation-numbered,
    /// CRC'd, torn-write safe) — the checkpoint that makes retired
    /// chunks eligible for GC. Errors with
    /// [`FsError::Unsupported`] when dedup is disabled.
    pub fn cas_persist_root(&mut self) -> FsResult<u64> {
        match &mut self.cas {
            Some(cas) => cas.persist_root().map_err(cas_err),
            None => Err(FsError::Unsupported),
        }
    }

    /// Runs one bounded GC sweep step over retired chunks; see
    /// [`dv_cas::ChunkStore::gc_step`]. Errors with
    /// [`FsError::Unsupported`] when dedup is disabled.
    fn cas_gc_step(&mut self, max_chunks: usize) -> FsResult<GcStep> {
        match &mut self.cas {
            Some(cas) => cas.gc_step(max_chunks).map_err(cas_err),
            None => Err(FsError::Unsupported),
        }
    }

    /// Simulates a power cut of the deduplicating layer: caches and
    /// volatile chunk-store metadata are dropped, and the store is
    /// rebuilt from the durable root slots plus the chunk arena.
    /// No-op (returning `false`) when dedup is disabled.
    #[cfg(test)]
    fn simulate_cas_crash(&mut self) -> bool {
        match &self.cas {
            Some(cas) => {
                let mut recovered = cas.crash();
                recovered.set_obs(self.obs.clone());
                recovered.set_fault_plane(self.plane.clone());
                self.cas = Some(recovered);
                self.cache.clear();
                true
            }
            None => false,
        }
    }

    /// Loads blobs from an [`BlobStore::export`] image into this store
    /// (replacing same-named blobs). Returns the number of blobs loaded,
    /// or `None` on malformed data.
    pub fn import(&mut self, data: &[u8]) -> Option<usize> {
        let mut r = Reader::new(data);
        // A name length and a blob length.
        let count = r.count_u64(4 + 8).ok()?;
        for _ in 0..count {
            let name = r.str_u32().ok()?;
            let blob = r.bytes_u64().ok()?;
            self.put(name, blob.to_vec()).ok()?;
        }
        r.finish().ok()?;
        Some(count)
    }
}

impl Default for BlobStore {
    fn default() -> Self {
        BlobStore::in_memory()
    }
}

/// A [`BlobStore`] behind `Arc<Mutex<..>>` so the deferred-commit worker
/// threads of the checkpoint engine can write blobs while the session
/// thread keeps recording. Cheap to clone; every clone addresses the
/// same store.
#[derive(Clone, Default)]
pub struct SharedBlobStore {
    inner: Arc<Mutex<BlobStore>>,
}

impl SharedBlobStore {
    /// Wraps an existing store.
    fn new(store: BlobStore) -> Self {
        SharedBlobStore {
            inner: Arc::new(Mutex::new(store)),
        }
    }

    /// A shared store with no latency model.
    pub fn in_memory() -> Self {
        SharedBlobStore::new(BlobStore::in_memory())
    }

    /// A shared store layered on the content-addressed chunk store, so
    /// writes dedup across blobs, checkpoints, and tenants.
    pub fn in_memory_deduped() -> Self {
        SharedBlobStore::new(BlobStore::in_memory_deduped())
    }

    /// A shared store whose cache misses pay `latency`.
    pub fn with_latency(latency: ReadLatency) -> Self {
        SharedBlobStore::new(BlobStore::with_latency(latency))
    }

    /// Locks the store for a sequence of operations.
    pub fn lock(&self) -> MutexGuard<'_, BlobStore> {
        self.inner.lock()
    }

    /// Runs `f` with the store locked.
    pub fn with<R>(&self, f: impl FnOnce(&mut BlobStore) -> R) -> R {
        f(&mut self.inner.lock())
    }

    /// Stores a blob, doing the expensive half of deduplication —
    /// content-defined chunking and hashing — *before* taking the store
    /// lock, so concurrent commit workers only serialize on the cheap
    /// index insert. Equivalent to a plain `put` when the underlying
    /// store has dedup disabled.
    pub fn put_deduped(&self, name: &str, data: Vec<u8>) -> FsResult<()> {
        if self.lock().cas_enabled() {
            let spans = dv_cas::split(&data);
            self.with(|s| s.put_presplit(name, data, &spans))
        } else {
            self.with(|s| s.put(name, data))
        }
    }

    /// Sweeps all currently-eligible retired chunks in bounded batches,
    /// releasing the store lock between batches so writers interleave —
    /// the concurrent-GC entry point. Stops early (returning what was
    /// reclaimed so far plus the error) if a step faults.
    pub fn gc_sweep(&self, batch: usize) -> (GcStep, Option<FsError>) {
        let batch = batch.max(1);
        let mut total = GcStep {
            done: false,
            ..GcStep::default()
        };
        loop {
            match self.with(|s| s.cas_gc_step(batch)) {
                Ok(step) => {
                    total.scanned += step.scanned;
                    total.reclaimed_chunks += step.reclaimed_chunks;
                    total.reclaimed_bytes += step.reclaimed_bytes;
                    if step.done {
                        total.done = true;
                        return (total, None);
                    }
                }
                Err(err) => return (total, Some(err)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_round_trip() {
        let mut store = BlobStore::in_memory();
        store.put("a", b"hello".to_vec()).unwrap();
        assert_eq!(&**store.get("a").unwrap(), b"hello");
        assert!(store.get("missing").is_none());
    }

    #[test]
    fn cache_hit_miss_accounting() {
        // Reads are counted by `lsfs.blob_gets`; misses are the reads
        // that paid the latency model, hits the rest.
        use dv_time::{Clock, SimClock};
        let model = ReadLatency {
            seek: Duration::from_millis(5),
            per_mib: Duration::from_millis(1),
        };
        let obs = Obs::sim();
        let clock = SimClock::new();
        let mut store = BlobStore::with_latency(model);
        store.set_obs(obs.clone());
        store.sleeper = Sleeper::Sim(clock.clone());
        store.put("a", vec![0; 100]).unwrap();
        let misses = || clock.now().as_nanos() / model.cost(100).as_nanos();
        let hits = || obs.counter(dv_obs::names::LSFS_BLOB_GETS) - misses();
        store.get("a");
        assert_eq!(hits(), 1);
        store.drop_caches();
        store.get("a");
        assert_eq!(misses(), 1);
        store.get("a");
        assert_eq!(hits(), 2, "miss refills the cache");
    }

    #[test]
    fn latency_model_slows_uncached_reads() {
        use dv_time::{Clock, SimClock, Timestamp};
        let model = ReadLatency {
            seek: Duration::from_millis(5),
            per_mib: Duration::from_millis(1),
        };
        let clock = SimClock::new();
        let mut store = BlobStore::with_latency(model);
        store.sleeper = Sleeper::Sim(clock.clone());
        store.put("a", vec![0; 1024]).unwrap();
        store.get("a");
        assert_eq!(clock.now(), Timestamp::ZERO, "a cached read is free");
        store.drop_caches();
        store.get("a");
        assert_eq!(
            clock.now(),
            Timestamp::ZERO.saturating_add(model.cost(1024))
        );
        assert!(model.cost(1024) > Duration::from_millis(5));
    }

    #[test]
    fn sim_sleeper_pays_latency_in_session_time() {
        use dv_time::{Clock, SimClock};
        let clock = SimClock::new();
        let mut store = BlobStore::with_latency(ReadLatency {
            seek: Duration::from_secs(30),
            per_mib: Duration::from_millis(1),
        });
        store.sleeper = Sleeper::Sim(clock.clone());
        store.put("a", vec![0; 1024]).unwrap();
        store.drop_caches();
        let t0 = std::time::Instant::now();
        store.get("a");
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(1),
            "sim sleeper must not stall the thread"
        );
        assert!(
            clock.now().as_nanos() >= Duration::from_secs(30).as_nanos(),
            "latency cost must land on the session clock"
        );
    }

    #[test]
    fn shared_blob_store_is_usable_from_clones() {
        let shared = SharedBlobStore::in_memory();
        let other = shared.clone();
        shared.with(|s| s.put("a", vec![7; 3]).unwrap());
        assert_eq!(&*other.lock().get("a").unwrap(), &[7, 7, 7]);
    }

    #[test]
    fn delete_removes_blob() {
        let mut store = BlobStore::in_memory();
        store.put("a", vec![1]).unwrap();
        assert!(store.delete("a"));
        assert!(!store.contains("a"));
        assert!(!store.delete("a"));
    }

    #[test]
    fn export_import_round_trip() {
        let mut store = BlobStore::in_memory();
        store.put("ckpt-0001", vec![1, 2, 3]).unwrap();
        store.put("s1-0001", vec![9; 100]).unwrap();
        let image = store.export();
        let mut restored = BlobStore::in_memory();
        assert_eq!(restored.import(&image), Some(2));
        assert_eq!(&*restored.get("ckpt-0001").unwrap(), &[1, 2, 3]);
        assert_eq!(restored.get("s1-0001").unwrap().len(), 100);
        assert!(restored.import(&image[..image.len() - 1]).is_none());
    }

    #[test]
    fn bytes_written_accumulates() {
        let obs = Obs::sim();
        let mut store = BlobStore::in_memory();
        store.set_obs(obs.clone());
        store.put("a", vec![0; 10]).unwrap();
        store.put("b", vec![0; 30]).unwrap();
        store.put("a", vec![0; 5]).unwrap();
        assert_eq!(obs.counter(dv_obs::names::LSFS_BLOB_PUT_BYTES), 45);
    }

    fn pseudo_random(len: usize, seed: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut s = seed;
        while out.len() < len {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            out.extend_from_slice(&s.to_le_bytes());
        }
        out.truncate(len);
        out
    }

    #[test]
    fn deduped_store_keeps_logical_semantics() {
        let data = pseudo_random(100_000, 1);
        let obs = Obs::sim();
        let mut store = BlobStore::in_memory_deduped();
        store.set_obs(obs.clone());
        store.put("a", data.clone()).unwrap();
        store.put("b", data.clone()).unwrap();
        store.put("a", vec![0; 10]).unwrap();
        assert_eq!(
            obs.counter(dv_obs::names::LSFS_BLOB_PUT_BYTES),
            2 * data.len() as u64 + 10,
            "bytes written stay logical under dedup"
        );
        store.drop_caches();
        assert_eq!(&**store.get("b").unwrap(), &data);
        assert_eq!(&**store.get("a").unwrap(), &[0; 10]);
        assert!(store.contains("b") && !store.contains("c"));
        let mut names = store.names();
        names.sort();
        assert_eq!(names, ["a", "b"]);
        assert!(store.delete("b"));
        assert!(store.get("b").is_none());
        let cas = store.cas_stats().unwrap();
        assert_eq!(cas.physical_bytes as usize, data.len() + 10);
    }

    #[test]
    fn deduped_store_dedups_identical_blobs() {
        let data = pseudo_random(200_000, 2);
        let mut store = BlobStore::in_memory_deduped();
        for i in 0..8 {
            store.put(&format!("ckpt-{i}"), data.clone()).unwrap();
        }
        let cas = store.cas_stats().unwrap();
        assert!(cas.dedup_ratio() > 7.0, "ratio {}", cas.dedup_ratio());
        assert_eq!(cas.logical_bytes, 8 * data.len() as u64);
        assert_eq!(cas.physical_bytes, data.len() as u64);
    }

    #[test]
    fn export_import_round_trips_across_modes() {
        let mut deduped = BlobStore::in_memory_deduped();
        let data = pseudo_random(80_000, 5);
        deduped.put("a", data.clone()).unwrap();
        deduped.put("b", data.clone()).unwrap();
        let image = deduped.export();
        let mut plain = BlobStore::in_memory();
        assert_eq!(plain.import(&image), Some(2));
        assert_eq!(&**plain.get("a").unwrap(), &data);
        assert_eq!(
            plain.export(),
            image,
            "logical image identical across modes"
        );
    }

    #[test]
    fn gc_reclaims_after_root_and_crash_recovers_durable_state() {
        let store = SharedBlobStore::in_memory_deduped();
        let data = pseudo_random(120_000, 6);
        store.with(|s| s.put("keep", data.clone())).unwrap();
        store
            .with(|s| s.put("drop", pseudo_random(120_000, 7)))
            .unwrap();
        store.with(|s| s.delete("drop"));
        // Nothing eligible before the root is durable.
        let (step, err) = store.gc_sweep(4);
        assert!(err.is_none() && step.reclaimed_chunks == 0);
        store.with(|s| s.cas_persist_root()).unwrap();
        let (step, err) = store.gc_sweep(4);
        assert!(err.is_none());
        assert!(step.reclaimed_chunks > 0);
        store.with(|s| assert!(s.simulate_cas_crash()));
        assert_eq!(&**store.lock().get("keep").unwrap(), &data);
        assert!(store.lock().get("drop").is_none());
    }

    #[test]
    fn cas_ops_unsupported_on_plain_store() {
        let mut store = BlobStore::in_memory();
        assert_eq!(store.cas_persist_root(), Err(FsError::Unsupported));
        assert_eq!(store.cas_gc_step(1).unwrap_err(), FsError::Unsupported);
        assert!(!store.simulate_cas_crash());
        assert!(store.cas_stats().is_none());
    }

    #[test]
    fn put_deduped_matches_put() {
        let shared = SharedBlobStore::in_memory_deduped();
        let data = pseudo_random(90_000, 8);
        shared.put_deduped("a", data.clone()).unwrap();
        shared.put_deduped("b", data.clone()).unwrap();
        assert_eq!(&**shared.lock().get("a").unwrap(), &data);
        let cas = shared.lock().cas_stats().unwrap();
        assert_eq!(cas.physical_bytes, data.len() as u64);
        // And degrades to a plain put without dedup.
        let plain = SharedBlobStore::in_memory();
        plain.put_deduped("a", data.clone()).unwrap();
        assert_eq!(&**plain.lock().get("a").unwrap(), &data);
    }
}
