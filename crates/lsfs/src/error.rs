//! File system error types.

use std::fmt;

use dv_fault::ReadError;

/// Result alias for file system operations.
pub type FsResult<T> = Result<T, FsError>;

/// Errors returned by file system operations, mirroring the POSIX errors
/// the corresponding syscalls would produce.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FsError {
    /// A path component does not exist (`ENOENT`).
    NotFound,
    /// A non-final path component is not a directory (`ENOTDIR`).
    NotADirectory,
    /// A file operation was applied to a directory (`EISDIR`).
    IsADirectory,
    /// The target already exists (`EEXIST`).
    AlreadyExists,
    /// A directory is not empty (`ENOTEMPTY`).
    NotEmpty,
    /// The file system (or this view of it) is read-only (`EROFS`).
    ReadOnly,
    /// A malformed path (empty component, not absolute, `.`/`..`).
    InvalidPath,
    /// A handle is not open (`EBADF`).
    BadHandle,
    /// An operation crossed file systems where it must not (`EXDEV`).
    CrossDevice,
    /// The file system does not support the operation (`ENOTSUP`).
    Unsupported,
    /// The operation cannot run while the resource is in use (`EBUSY`).
    Busy,
    /// A low-level input/output failure (`EIO`) — torn or failed device
    /// write, unreadable journal record.
    Io,
    /// The device is out of space (`ENOSPC`).
    NoSpace,
    /// A write would end past the largest representable file offset
    /// (`EFBIG`).
    FileTooLarge,
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            FsError::NotFound => "no such file or directory",
            FsError::NotADirectory => "not a directory",
            FsError::IsADirectory => "is a directory",
            FsError::AlreadyExists => "file exists",
            FsError::NotEmpty => "directory not empty",
            FsError::ReadOnly => "read-only file system",
            FsError::InvalidPath => "invalid path",
            FsError::BadHandle => "bad file handle",
            FsError::CrossDevice => "cross-device link",
            FsError::Unsupported => "operation not supported",
            FsError::Busy => "resource busy",
            FsError::Io => "input/output error",
            FsError::NoSpace => "no space left on device",
            FsError::FileTooLarge => "file too large",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for FsError {}

/// A stored record that does not parse names no path.
impl From<ReadError> for FsError {
    fn from(_: ReadError) -> Self {
        FsError::InvalidPath
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_posix_style_messages() {
        assert_eq!(FsError::NotFound.to_string(), "no such file or directory");
        assert_eq!(FsError::ReadOnly.to_string(), "read-only file system");
    }
}
