//! Time-sharded WYSIWYS search for DejaView.
//!
//! `dv-index` answers "what was I looking at when …?" over a single
//! in-memory [`TextIndex`](dv_index::TextIndex); this crate scales that
//! model to long-running, multi-tenant deployments by sharding the
//! index along the time axis:
//!
//! - text states route into the mutable **open shard** (the same index
//!   the capture daemon already writes into), which the shared
//!   sealed-segment lifecycle ([`dv_lsfs::SealedLog`]) owns;
//! - at checkpoint boundaries the lifecycle **seals** the open shard
//!   into an immutable segment (CRC-framed blob, then a manifest named
//!   by the checkpoint counter), so index durability is
//!   snapshot-consistent with the recorded execution: a revive at
//!   checkpoint N queries exactly the segments sealed at or before N;
//! - background **compaction** merges small same-level segments into
//!   higher levels to bound per-query probe counts — the lifecycle
//!   picks, retires and reclaims; this crate says how text segments
//!   merge;
//! - queries run `dv-index`'s one evaluator over the open shard plus
//!   the sealed segments overlapping the query's time bounds.
//!
//! The crate is deliberately storage-agnostic: segments and manifests
//! are blobs in a [`SharedBlobStore`](dv_lsfs::SharedBlobStore), which
//! may be plain in-memory, latency-modelled, or layered on the dv-cas
//! deduplicating chunk store.

#![deny(unsafe_code)]

mod engine;

pub use engine::{TextShards, TidxEngine};
