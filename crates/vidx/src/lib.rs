//! Thumbnail-keyed visual recall for DejaView.
//!
//! People remember what their screen *looked like* at least as well as
//! what it said: "the blue dashboard I had open last week", "the slide
//! with the big red chart". This crate adds a visual axis to DejaView's
//! WYSIWYS record: at every persisted keyframe the recorder hands over
//! the screenshot, which is reduced to a fixed-size thumbnail (reusing
//! the dv-display scaling path — scaled pixels, never naive decimation)
//! and a 256-bit perceptual gradient fingerprint. Consecutive
//! near-duplicate keyframes coalesce into one **visual instance**
//! carrying the interval the screen looked that way — the ScreenTrack
//! model applied to appearance instead of text.
//!
//! Retrieval is a nearest-thumbnail search: a band-partitioned Hamming
//! index buckets each fingerprint by sixteen disjoint 16-bit bands, so
//! `query(probe, k)` probes the union of sixteen exact-match buckets —
//! sub-linear in the number of instances — and is still byte-identical
//! to a linear-scan oracle (the pigeonhole exactness rule documented on
//! [`VidxEngine::query`]). The open strip belongs to the same
//! sealed-segment lifecycle as the sharded text index's open shard
//! ([`dv_lsfs::SealedLog`]), which seals it at checkpoint boundaries
//! into immutable segments, so a revived session's visual recall is
//! snapshot-consistent with its filesystem, strips compact, and
//! manifests below the retention floor are reclaimed.

#![deny(unsafe_code)]

pub mod engine;
pub mod fingerprint;
pub mod index;
pub mod segment;
pub mod strip;

pub use engine::{VidxEngine, VidxStats, VisualHit, NEAR_DUP_BITS, THUMB_H, THUMB_W};
pub use fingerprint::{Fingerprint, BANDS, BAND_BITS, EXACT_RADIUS, FP_BITS};
pub use index::BandIndex;
pub use segment::Strips;
pub use strip::{Observed, VisualInstance, VisualStrip};
