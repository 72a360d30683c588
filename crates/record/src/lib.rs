//! Display recording and playback for DejaView.
//!
//! Implements §4.1 and §4.3 of the paper: the display record is an
//! append-only [`CommandLog`] of THINC-style commands plus periodic
//! keyframe screenshots indexed by a fixed-entry [`Timeline`] — "similar
//! to an MPEG movie where screenshots represent self-contained
//! independent frames ... and commands in the log represent dependent
//! frames". The [`DisplayRecorder`] sink produces the record from the
//! live command stream; the [`PlaybackEngine`] seeks, plays, fast
//! forwards and rewinds over it.

#![deny(unsafe_code)]

pub mod cache;
pub mod log;
pub mod persist;
pub mod playback;
pub mod recorder;
mod replay;
pub mod screenshot;
pub mod timeline;

pub use cache::LruCache;
pub use log::CommandLog;
pub use persist::{decode_record, encode_record, open_record, RecordError};
pub use playback::{PlayStats, PlaybackEngine, PlaybackError};
pub use recorder::{DisplayRecord, DisplayRecorder, RecordStats, RecordStore, RecorderConfig};
pub use screenshot::{
    decode_screenshot, decode_screenshot_runs, encode_screenshot, screenshot_dims, ScreenshotRuns,
    ScreenshotStore, LITERAL, MAX_SCREEN_SIDE, MIN_LITERAL,
};
pub use timeline::{Timeline, TimelineEntry, ENTRY_LEN};
