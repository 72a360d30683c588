//! File system substrates for DejaView.
//!
//! DejaView needs a file system whose state at every checkpoint can be
//! revisited and written to again (paper §5.1.1 and §5.2). This crate
//! provides the pieces, all behind one [`Filesystem`] trait:
//!
//! * [`Lsfs`] — a log-structured file system in the role of NILFS: every
//!   transaction appends to the log, snapshot points are cheap and keyed
//!   by the checkpoint counter, and the journal can be replayed to
//!   recover the full state.
//! * [`SnapshotView`] — the read-only view of one snapshot point.
//! * [`UnionFs`] — an overlay of a writable layer on a read-only layer
//!   with copy-up and whiteouts, giving revived sessions a writable,
//!   branchable view of a snapshot.
//! * [`MemFs`] — a plain in-memory file system, used standalone and as
//!   the semantic oracle in property tests.
//! * [`BlobStore`] — checkpoint-image storage with a droppable cache and
//!   a disk-latency model (the cached/uncached axis of Figure 7),
//!   optionally layered on the `dv-cas` content-addressed chunk store
//!   ([`BlobStore::enable_cas`]) so blobs dedup across checkpoints and
//!   tenants.
//! * [`SealedLog`] — the checkpoint-anchored sealed-segment lifecycle
//!   (seal → publish → recover → compact → retire) the text and visual
//!   indexes keep their immutable segments under, over a
//!   [`SharedBlobStore`].

#![deny(unsafe_code)]

pub mod device;
pub mod disk;
pub mod error;
pub mod gc;
pub mod journal;
#[allow(clippy::module_inception)]
pub mod lsfs;
pub mod memfs;
pub mod path;
pub mod ro;
pub mod sealed;
pub mod shared;
pub mod snapshot;
mod table;
pub mod union;
pub mod vfs;

pub use device::{BlobStats, BlobStore, ReadLatency, SharedBlobStore};
pub use disk::{shared_disk, Disk, SharedDisk};
pub use dv_cas::{CasStats, GcStep as CasGcStep};
pub use error::{FsError, FsResult};
pub use gc::GcStats;
pub use lsfs::{Lsfs, LsfsStats, BLOCK_SIZE};
pub use memfs::MemFs;
pub use ro::ReadOnlyFs;
pub use sealed::{
    Manifest, MergeError, Names as SegmentNames, Payload, Sealed, SealedConfig, SealedLog,
    SegmentError, SegmentMeta,
};
pub use shared::SharedFs;
pub use snapshot::SnapshotView;
pub use union::UnionFs;
pub use vfs::{DirEntry, FileType, Filesystem, Handle, Metadata};
