//! Time-sharded WYSIWYS search for DejaView.
//!
//! `dv-index` answers "what was I looking at when …?" over a single
//! in-memory [`TextIndex`](dv_index::TextIndex); this crate scales that
//! model to long-running, multi-tenant deployments by sharding the
//! index along the time axis:
//!
//! - text states route into the mutable **open shard** (the same index
//!   the capture daemon already writes into);
//! - at checkpoint boundaries the open shard **seals** into an
//!   immutable segment under the shared sealed-segment lifecycle
//!   ([`dv_lsfs::SealedLog`]: CRC-framed blob, then a manifest named
//!   by the checkpoint counter), so index durability is
//!   snapshot-consistent with the recorded execution: a revive at
//!   checkpoint N queries exactly the segments sealed at or before N;
//! - background **compaction** merges small same-level segments into
//!   higher levels to bound per-query probe counts — the lifecycle
//!   picks, retires and reclaims; this crate says how text segments
//!   merge;
//! - queries fan out across the open shard plus the overlapping sealed
//!   segments, evaluating the boolean structure once globally and
//!   merging per-shard interval sets, then rank hits with
//!   persistence-weighted ordering.
//!
//! The crate is deliberately storage-agnostic: segments and manifests
//! are blobs in a [`SharedBlobStore`](dv_lsfs::SharedBlobStore), which
//! may be plain in-memory, latency-modelled, or layered on the dv-cas
//! deduplicating chunk store.

#![deny(unsafe_code)]

mod engine;
mod search;

pub use dv_lsfs::SegmentMeta;
pub use engine::{TextShards, TidxConfig, TidxEngine, TidxError, TidxStats};
pub use search::{rank_by, rank_hits};
