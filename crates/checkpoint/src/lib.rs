//! Consistent checkpoint/restart for DejaView sessions.
//!
//! The engine behind §5 of the paper: globally consistent checkpoints of
//! a whole virtual execution environment (quiesce → capture → file
//! system snapshot → resume) with the full §5.1.2 optimization set —
//! pre-snapshot sync, pre-quiesce, COW capture, unlinked-file relinking,
//! write-protect-driven incremental checkpoints, deferred writeback —
//! plus the §5.1.3 display-driven checkpoint policy and the §5.2 revive
//! path (process-forest reconstruction, incremental chain resolution,
//! socket reset policy, per-application network policy).

#![deny(unsafe_code)]

pub mod compress;
pub mod engine;
pub mod image;
pub mod policy;
pub mod restore;
pub mod writeback;

pub use compress::{assemble_chunks, compress, decompress};
pub use engine::{
    CheckpointReport, Checkpointer, EngineConfig, EngineStats, ImageMeta, RELINK_DIR,
};
pub use image::{
    decode_image, encode_image, CheckpointImage, FdRecord, ImageError, ImageKind, ProcessRecord,
    SocketRecord,
};
pub use policy::{
    CheckpointPolicy, Decision, LoadRule, PolicyConfig, PolicyInput, PolicyRule, PolicyStats,
    SkipReason,
};
pub use restore::{
    load_image, restore_fingerprint, revive, NetworkPolicy, ReviveError, ReviveReport,
};
pub use writeback::{
    AuxTask, CommitError, CommitOutcome, CommitPipeline, FairPolicy, LaneId, PipelineConfig,
};
