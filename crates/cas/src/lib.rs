//! Content-addressed deduplicating chunk store for the DejaView
//! reproduction.
//!
//! Storage growth is the paper's scaling ceiling: continuous
//! checkpointing plus display recording grows linearly even when the
//! desktop barely changes (DejaView §Figure 4), and a host running a
//! thousand near-identical sessions over one shared blob store
//! multiplies the redundancy. This crate removes it at the storage
//! layer:
//!
//! - [`split`] cuts blobs at content-defined boundaries (gear rolling
//!   hash) and names each chunk by a 128-bit content hash, so identical
//!   data is identical chunks no matter which checkpoint or tenant
//!   wrote it.
//! - [`ChunkStore`] keeps one copy of each chunk under a reference
//!   count, maps blob names to chunk manifests, and clones blobs in
//!   O(1) by bumping a manifest refcount.
//! - Durability follows the wrongodb COW-checkpoint discipline:
//!   metadata roots are generation-numbered, CRC-trailed, written to
//!   alternating slots, and verified by read-back; recovery selects the
//!   newest intact generation, falling back past torn slots.
//! - Reclamation is recycle-only-after-checkpoint: a zero-reference
//!   chunk is *retired* and swept by a bounded concurrent GC only once
//!   a root that no longer references it is durable — a crash mid-sweep
//!   can never lose reachable data.
//!
//! `dv-lsfs` layers its `BlobStore` on this crate so checkpoint
//! writeback, archives, and host tenants dedup transparently; the
//! `reproduce dedup` experiment measures the effect.

#![deny(unsafe_code)]

mod chunk;
mod store;

pub use chunk::{chunk_id, split, ChunkId, ChunkSpan, MAX_CHUNK, MIN_CHUNK};
pub use store::{CasError, CasStats, ChunkStore, GcStep, RootManifests, ROOT_SLOTS};

#[cfg(test)]
mod tests {
    use super::*;
    use dv_fault::{sites, FaultPlan, IoFault};

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
    fn put_get_round_trip() {
        let mut store = ChunkStore::new();
        let data = pseudo_random(100_000, 1);
        store.put("a", &data).unwrap();
        assert_eq!(store.get("a").unwrap(), data);
        assert!(store.get("missing").is_none());
        assert!(store.contains("a"));
    }

    #[test]
    fn identical_blobs_share_chunks() {
        let mut store = ChunkStore::new();
        let data = pseudo_random(200_000, 2);
        store.put("a", &data).unwrap();
        let physical_after_first = store.stats().physical_bytes;
        store.put("b", &data).unwrap();
        let stats = store.stats();
        assert_eq!(stats.physical_bytes, physical_after_first);
        assert_eq!(stats.logical_bytes, 2 * data.len() as u64);
        assert!(stats.dedup_ratio() > 1.9, "ratio {}", stats.dedup_ratio());
        assert_eq!(store.get("b").unwrap(), data);
    }

    #[test]
    fn replace_retires_unshared_chunks_until_root_then_gc() {
        let mut store = ChunkStore::new();
        let data = pseudo_random(100_000, 3);
        store.put("a", &data).unwrap();
        store.put("a", &pseudo_random(50_000, 4)).unwrap();
        let retired = store.stats().retired_chunks;
        assert!(retired > 0);
        // Nothing is eligible before a durable root no longer
        // referencing the old chunks exists.
        let step = store.gc_step(usize::MAX).unwrap();
        assert_eq!(step.reclaimed_chunks, 0);
        store.persist_root().unwrap();
        let step = store.gc_step(usize::MAX).unwrap();
        assert_eq!(step.reclaimed_chunks, retired);
        assert_eq!(store.stats().retired_chunks, 0);
    }

    #[test]
    fn clone_blob_is_refcount_only() {
        let mut store = ChunkStore::new();
        let data = pseudo_random(80_000, 5);
        store.put("src", &data).unwrap();
        let physical = store.stats().physical_bytes;
        assert!(store.clone_blob("src", "snap"));
        assert_eq!(store.stats().physical_bytes, physical);
        assert_eq!(store.get("snap").unwrap(), data);
        // Deleting the source keeps the clone alive.
        assert!(store.delete("src"));
        assert_eq!(store.get("snap").unwrap(), data);
        assert_eq!(store.stats().retired_chunks, 0, "chunks still referenced");
        assert!(!store.clone_blob("missing", "x"));
    }

    #[test]
    fn crash_recovers_durable_state_only() {
        let mut store = ChunkStore::new();
        let durable = pseudo_random(60_000, 6);
        store.put("kept", &durable).unwrap();
        store.persist_root().unwrap();
        store.put("volatile", &pseudo_random(60_000, 7)).unwrap();
        let recovered = store.crash();
        let mut recovered = recovered;
        assert_eq!(recovered.get("kept").unwrap(), durable);
        assert!(recovered.get("volatile").is_none());
        assert_eq!(recovered.generation(), 1);
        // The volatile blob's chunks are orphans, reclaimable at once.
        let step = recovered.gc_step(usize::MAX).unwrap();
        assert!(step.reclaimed_chunks > 0);
        assert_eq!(recovered.get("kept").unwrap(), durable);
    }

    #[test]
    fn torn_root_write_falls_back_to_previous_generation() {
        let plane = FaultPlan::new(11)
            .fail_nth(sites::CAS_ROOT, 2, IoFault::TornWrite)
            .build();
        let mut store = ChunkStore::new();
        store.set_fault_plane(plane);
        let first = pseudo_random(40_000, 8);
        store.put("a", &first).unwrap();
        store.persist_root().unwrap();
        store.put("a", &pseudo_random(40_000, 9)).unwrap();
        assert_eq!(store.persist_root(), Err(CasError::Io));
        let mut recovered = store.crash();
        assert_eq!(recovered.generation(), 1, "newest intact generation");
        assert_eq!(recovered.get("a").unwrap(), first);
        assert!(recovered.stats().root_fallbacks > 0);
    }

    #[test]
    fn corrupt_root_write_is_detected_by_read_back() {
        let plane = FaultPlan::new(12)
            .fail_nth(sites::CAS_ROOT, 1, IoFault::Corrupt)
            .build();
        let mut store = ChunkStore::new();
        store.set_fault_plane(plane);
        store.put("a", &pseudo_random(10_000, 10)).unwrap();
        assert_eq!(store.persist_root(), Err(CasError::Io));
        assert_eq!(store.generation(), 0, "corrupt slot must not be durable");
        assert_eq!(store.persist_root(), Ok(1), "retry rewrites the slot");
    }

    #[test]
    fn torn_chunk_write_leaves_only_orphans() {
        let plane = FaultPlan::new(13)
            .fail_nth(sites::CAS_CHUNK, 1, IoFault::TornWrite)
            .build();
        let mut store = ChunkStore::new();
        store.set_fault_plane(plane);
        let data = pseudo_random(150_000, 11);
        assert_eq!(store.put("a", &data), Err(CasError::Io));
        assert!(!store.contains("a"), "manifest must not land");
        // The orphaned prefix chunks are swept after the next root.
        store.persist_root().unwrap();
        store.gc_step(usize::MAX).unwrap();
        assert_eq!(store.stats().physical_bytes, 0);
        // A clean retry stores the blob fully.
        store.put("a", &data).unwrap();
        assert_eq!(store.get("a").unwrap(), data);
    }

    #[test]
    fn corrupt_chunk_is_detected_on_read() {
        let plane = FaultPlan::new(14)
            .fail_nth(sites::CAS_CHUNK, 1, IoFault::Corrupt)
            .build();
        let mut store = ChunkStore::new();
        store.set_fault_plane(plane);
        let data = pseudo_random(30_000, 12);
        store.put("a", &data).unwrap();
        let read = store.get("a").unwrap();
        assert_eq!(read.len(), data.len());
        assert_ne!(read, data, "corruption surfaces in the bytes");
        assert!(store.stats().verify_failures > 0, "and is detected");
    }

    #[test]
    fn resurrection_cancels_retirement() {
        let mut store = ChunkStore::new();
        let data = pseudo_random(70_000, 13);
        store.put("a", &data).unwrap();
        store.delete("a");
        assert!(store.stats().retired_chunks > 0);
        store.put("b", &data).unwrap();
        assert_eq!(store.stats().retired_chunks, 0);
        store.persist_root().unwrap();
        let step = store.gc_step(usize::MAX).unwrap();
        assert_eq!(step.reclaimed_chunks, 0, "live chunks must survive GC");
        assert_eq!(store.get("b").unwrap(), data);
    }

    #[test]
    fn gc_fault_aborts_step_without_reclaiming() {
        let plane = FaultPlan::new(15)
            .fail_nth(sites::CAS_GC, 1, IoFault::Enospc)
            .build();
        let mut store = ChunkStore::new();
        store.set_fault_plane(plane);
        store.put("a", &pseudo_random(50_000, 14)).unwrap();
        store.delete("a");
        store.persist_root().unwrap();
        assert_eq!(store.gc_step(usize::MAX).unwrap_err(), CasError::NoSpace);
        let physical = store.stats().physical_bytes;
        assert!(physical > 0, "abort reclaims nothing");
        let step = store.gc_step(usize::MAX).unwrap();
        assert!(step.reclaimed_bytes == physical && step.done);
    }

    #[test]
    fn bounded_steps_sweep_incrementally() {
        let mut store = ChunkStore::new();
        for i in 0..8 {
            store
                .put(&format!("b{i}"), &pseudo_random(40_000, 20 + i))
                .unwrap();
        }
        for i in 0..8 {
            store.delete(&format!("b{i}"));
        }
        store.persist_root().unwrap();
        let total = store.stats().retired_chunks;
        let mut reclaimed = 0;
        let mut steps = 0;
        loop {
            let step = store.gc_step(3).unwrap();
            reclaimed += step.reclaimed_chunks;
            steps += 1;
            if step.done {
                break;
            }
        }
        assert_eq!(reclaimed, total);
        assert!(steps > 1, "batch bound forces multiple steps");
    }
}
