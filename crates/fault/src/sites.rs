//! Injection-site names, one per instrumented IO path in the storage
//! stack. Constants (rather than free strings) keep call sites and
//! fault-matrix tests in lockstep.

/// `Disk::append` in `dv-lsfs` — the raw log write under everything.
pub const LSFS_DISK_APPEND: &str = "lsfs.disk.append";
/// Journal record commit in `dv-lsfs` (`Lsfs::commit`).
pub const LSFS_JOURNAL_COMMIT: &str = "lsfs.journal.commit";
/// `BlobStore::put` in `dv-lsfs` — checkpoint/archive blob writes.
pub const LSFS_BLOB_PUT: &str = "lsfs.blob.put";
/// `BlobStore::get` in `dv-lsfs` — blob reads (revive path).
pub const LSFS_BLOB_GET: &str = "lsfs.blob.get";
/// Checkpoint image writeback to the blob store in `dv-checkpoint`.
pub const CHECKPOINT_WRITEBACK: &str = "checkpoint.writeback";
/// Checkpoint image encoding in `dv-checkpoint`.
pub const CHECKPOINT_IMAGE_ENCODE: &str = "checkpoint.image.encode";
/// Display-command log append in `dv-record`.
pub const RECORD_LOG_APPEND: &str = "record.log.append";
/// Screenshot persistence in `dv-record` (`force_keyframe`).
pub const RECORD_SCREENSHOT_PERSIST: &str = "record.screenshot.persist";
/// Timeline entry persistence in `dv-record`.
pub const RECORD_TIMELINE_PERSIST: &str = "record.timeline.persist";
/// Index segment flush in `dv-index` (archive save path).
pub const INDEX_SEGMENT_FLUSH: &str = "index.segment.flush";
/// Transport send in `dv-net` — torn frames, stalls, resets on the
/// server-to-client (or client-to-server) byte stream.
pub const NET_SEND: &str = "net.transport.send";
/// Transport receive in `dv-net` — short reads, stalls, resets.
pub const NET_RECV: &str = "net.transport.recv";

/// Every instrumented *storage* site, for exhaustive fault-matrix
/// tests over the persistence stack. The transport sites live in
/// [`NET_ALL`]: they fail whole connections, not stored bytes, so the
/// storage crash/fault matrices don't iterate them.
pub const ALL: [&str; 10] = [
    LSFS_DISK_APPEND,
    LSFS_JOURNAL_COMMIT,
    LSFS_BLOB_PUT,
    LSFS_BLOB_GET,
    CHECKPOINT_WRITEBACK,
    CHECKPOINT_IMAGE_ENCODE,
    RECORD_LOG_APPEND,
    RECORD_SCREENSHOT_PERSIST,
    RECORD_TIMELINE_PERSIST,
    INDEX_SEGMENT_FLUSH,
];

/// The remote-access transport sites, for connection fault tests.
pub const NET_ALL: [&str; 2] = [NET_SEND, NET_RECV];

/// Chunk writes into the content-addressed store in `dv-cas` — torn
/// multi-chunk writes leave unreferenced orphans, corruption is caught
/// by the content hash.
pub const CAS_CHUNK: &str = "cas.chunk";
/// Root-slot writes in `dv-cas` — torn or corrupted slots are abandoned
/// and the previous generation stays authoritative.
pub const CAS_ROOT: &str = "cas.root";
/// GC sweep steps in `dv-cas` — a faulted step aborts before
/// reclaiming anything.
pub const CAS_GC: &str = "cas.gc";

/// The content-addressed-store sites. Kept out of [`ALL`]: the CAS
/// sits *under* the blob layer, with its own crash/fault matrix in
/// `dv-cas`, so the storage-stack matrices keep their historical
/// shape (and baselines).
pub const CAS_ALL: [&str; 3] = [CAS_CHUNK, CAS_ROOT, CAS_GC];

/// Text-shard seal — the open shard's encode-and-persist into an
/// immutable segment at a checkpoint boundary. Checked in
/// `dv_lsfs::sealed::SealedLog::put_segment` on behalf of `dv-tidx`.
pub const TIDX_SEAL: &str = "tidx.seal";
/// Text-segment compaction — merging small sealed segments into one; a
/// faulted merge leaves the inputs authoritative. Checked in
/// `SealedLog::put_segment` on behalf of `dv-tidx`.
pub const TIDX_COMPACT: &str = "tidx.compact";

/// The temporal-index sites. Kept out of [`ALL`]: sealing and
/// compaction sit *above* the blob layer with their own fault tests in
/// `dv-tidx`, so the storage-stack matrices keep their historical
/// shape (and baselines).
pub const TIDX_ALL: [&str; 2] = [TIDX_SEAL, TIDX_COMPACT];

/// Thumbnail-strip seal — the open visual strip's encode-and-persist
/// into an immutable segment at a checkpoint boundary. Checked in
/// `SealedLog::put_segment` on behalf of `dv-vidx`.
pub const VIDX_FLUSH: &str = "vidx.flush";
/// Strip compaction — merging small sealed strips into one; a faulted
/// merge leaves the inputs authoritative. Checked in
/// `SealedLog::put_segment` on behalf of `dv-vidx`.
pub const VIDX_COMPACT: &str = "vidx.compact";

/// The visual-index sites. Kept out of [`ALL`] for the same reason as
/// [`TIDX_ALL`]: the strip seals above the blob layer with its own
/// fault tests in `dv-vidx`.
pub const VIDX_ALL: [&str; 2] = [VIDX_FLUSH, VIDX_COMPACT];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_names_are_unique() {
        let mut names: Vec<&str> = ALL
            .iter()
            .chain(NET_ALL.iter())
            .chain(CAS_ALL.iter())
            .chain(TIDX_ALL.iter())
            .chain(VIDX_ALL.iter())
            .copied()
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            ALL.len() + NET_ALL.len() + CAS_ALL.len() + TIDX_ALL.len() + VIDX_ALL.len()
        );
    }
}
