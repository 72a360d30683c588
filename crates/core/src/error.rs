//! Server error type.

use std::fmt;

use dv_checkpoint::ReviveError;
use dv_index::ParseError;
use dv_lsfs::{FsError, SegmentError};
use dv_record::PlaybackError;
use dv_vee::VeeError;

/// Errors returned by the DejaView server API.
#[derive(Clone, PartialEq, Debug)]
pub enum ServerError {
    /// No checkpoint exists at or before the requested time.
    NoCheckpoint,
    /// No such revived session.
    UnknownSession(u64),
    /// No search result at that gallery index.
    NoSuchResult(usize),
    /// A playback operation failed.
    Playback(PlaybackError),
    /// A query failed to parse.
    Query(ParseError),
    /// A sealed-segment index (text shards, visual strips, or the
    /// archive that carries them) could not answer: the checkpoint
    /// asked for aged out of retention, or the index is disabled or
    /// its blobs failed.
    Segments(SegmentError),
    /// A revive failed.
    Revive(ReviveError),
    /// A file system operation failed.
    Fs(FsError),
    /// A VEE operation failed.
    Vee(VeeError),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::NoCheckpoint => {
                write!(f, "no checkpoint exists at or before the requested time")
            }
            ServerError::UnknownSession(id) => write!(f, "no revived session {id}"),
            ServerError::NoSuchResult(idx) => write!(f, "no search result at index {idx}"),
            ServerError::Playback(e) => write!(f, "playback: {e}"),
            ServerError::Query(e) => write!(f, "{e}"),
            ServerError::Segments(e) => write!(f, "record store: {e}"),
            ServerError::Revive(e) => write!(f, "revive: {e}"),
            ServerError::Fs(e) => write!(f, "file system: {e}"),
            ServerError::Vee(e) => write!(f, "session: {e}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<PlaybackError> for ServerError {
    fn from(e: PlaybackError) -> Self {
        ServerError::Playback(e)
    }
}

impl From<ParseError> for ServerError {
    fn from(e: ParseError) -> Self {
        ServerError::Query(e)
    }
}

impl From<SegmentError> for ServerError {
    fn from(e: SegmentError) -> Self {
        ServerError::Segments(e)
    }
}

impl From<ReviveError> for ServerError {
    fn from(e: ReviveError) -> Self {
        ServerError::Revive(e)
    }
}

impl From<FsError> for ServerError {
    fn from(e: FsError) -> Self {
        ServerError::Fs(e)
    }
}

impl From<VeeError> for ServerError {
    fn from(e: VeeError) -> Self {
        ServerError::Vee(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(ServerError::NoCheckpoint.to_string().contains("checkpoint"));
        assert!(ServerError::UnknownSession(3).to_string().contains('3'));
        assert!(ServerError::from(FsError::NotFound)
            .to_string()
            .contains("file system"));
    }
}
