//! The virtual file system interface.
//!
//! Every file system in this crate — the plain in-memory FS, the
//! log-structured FS, its read-only snapshot views, and the union FS —
//! implements [`Filesystem`]. The trait is path-based with an additional
//! handle layer giving POSIX open-file semantics: a handle keeps a file's
//! contents reachable after `unlink`, which DejaView's checkpoint engine
//! relies on when it relinks unlinked-but-open files before a snapshot
//! (§5.1.2).

use dv_time::Timestamp;

use crate::error::FsResult;

/// The type of a file system object.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FileType {
    /// A regular file.
    Regular,
    /// A directory.
    Directory,
}

/// Metadata returned by [`Filesystem::stat`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Metadata {
    /// Inode number, unique within one file system instance.
    pub ino: u64,
    /// Object type.
    pub ftype: FileType,
    /// File size in bytes (0 for directories).
    pub size: u64,
    /// Number of directory entries referring to the inode.
    pub nlink: u32,
    /// Last modification time.
    pub mtime: Timestamp,
}

/// One entry returned by [`Filesystem::readdir`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DirEntry {
    /// The entry's name within its directory.
    pub name: String,
    /// The entry's type.
    pub ftype: FileType,
}

/// An open-file handle, valid until closed on the issuing file system.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Handle(pub u64);

/// A POSIX-flavoured file system.
///
/// All paths are absolute (see [`crate::path`]). Reads past end of file
/// return the available prefix; writes past end of file extend it with
/// zeros (sparse semantics).
pub trait Filesystem: Send {
    /// Creates an empty regular file.
    fn create(&mut self, path: &str) -> FsResult<()>;

    /// Creates an empty directory.
    fn mkdir(&mut self, path: &str) -> FsResult<()>;

    /// Writes `data` at `offset`, extending the file as needed.
    fn write_at(&mut self, path: &str, offset: u64, data: &[u8]) -> FsResult<()>;

    /// Sets the file size, zero-filling on extension.
    fn truncate(&mut self, path: &str, size: u64) -> FsResult<()>;

    /// Reads up to `len` bytes at `offset`.
    fn read_at(&self, path: &str, offset: u64, len: usize) -> FsResult<Vec<u8>>;

    /// Removes a regular file's directory entry.
    fn unlink(&mut self, path: &str) -> FsResult<()>;

    /// Removes an empty directory.
    fn rmdir(&mut self, path: &str) -> FsResult<()>;

    /// Atomically renames `from` to `to`, replacing a regular file at
    /// `to` if one exists.
    fn rename(&mut self, from: &str, to: &str) -> FsResult<()>;

    /// Lists a directory in name order.
    fn readdir(&self, path: &str) -> FsResult<Vec<DirEntry>>;

    /// Returns metadata for a path.
    fn stat(&self, path: &str) -> FsResult<Metadata>;

    /// Opens a handle to a regular file. The handle keeps the file's
    /// contents alive across `unlink`.
    fn open(&mut self, path: &str) -> FsResult<Handle>;

    /// Reads through a handle.
    fn read_handle(&self, h: Handle, offset: u64, len: usize) -> FsResult<Vec<u8>>;

    /// Writes through a handle.
    fn write_handle(&mut self, h: Handle, offset: u64, data: &[u8]) -> FsResult<()>;

    /// Returns the current size of the handle's file.
    fn handle_size(&self, h: Handle) -> FsResult<u64>;

    /// Creates a new directory entry at `path` for the handle's inode —
    /// the relink operation used by the checkpoint engine to make
    /// unlinked-but-open file contents reachable again.
    fn link_handle(&mut self, h: Handle, path: &str) -> FsResult<()>;

    /// Closes a handle.
    fn close(&mut self, h: Handle) -> FsResult<()>;

    /// Flushes buffered data to stable storage. A no-op for file systems
    /// without a dirty buffer.
    fn sync(&mut self) -> FsResult<()> {
        Ok(())
    }

    /// Commits a snapshot point tagged with the checkpoint `counter`.
    ///
    /// Snapshotting file systems persist a consistent point (§5.1.1);
    /// others report [`crate::error::FsError::Unsupported`].
    fn snapshot_point(&mut self, counter: u64) -> FsResult<()> {
        let _ = counter;
        Err(crate::error::FsError::Unsupported)
    }

    /// Returns whether a path exists.
    fn exists(&self, path: &str) -> bool {
        self.stat(path).is_ok()
    }

    /// Reads an entire file.
    fn read_all(&self, path: &str) -> FsResult<Vec<u8>> {
        let size = self.stat(path)?.size;
        self.read_at(path, 0, size as usize)
    }

    /// Creates (or truncates) a file and writes `data` from offset 0 —
    /// the "overwrite files completely" pattern §5.2 notes is the common
    /// case for desktop applications.
    fn write_all(&mut self, path: &str, data: &[u8]) -> FsResult<()> {
        if !self.exists(path) {
            self.create(path)?;
        }
        self.truncate(path, 0)?;
        self.write_at(path, 0, data)
    }

    /// Creates every missing directory along `path`.
    fn mkdir_all(&mut self, path: &str) -> FsResult<()> {
        let comps = crate::path::components(path)?;
        let mut cur = String::new();
        for comp in comps {
            cur.push('/');
            cur.push_str(comp);
            match self.mkdir(&cur) {
                Ok(()) | Err(crate::error::FsError::AlreadyExists) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

impl<F: Filesystem + ?Sized> Filesystem for Box<F> {
    fn create(&mut self, path: &str) -> FsResult<()> {
        (**self).create(path)
    }

    fn mkdir(&mut self, path: &str) -> FsResult<()> {
        (**self).mkdir(path)
    }

    fn write_at(&mut self, path: &str, offset: u64, data: &[u8]) -> FsResult<()> {
        (**self).write_at(path, offset, data)
    }

    fn truncate(&mut self, path: &str, size: u64) -> FsResult<()> {
        (**self).truncate(path, size)
    }

    fn read_at(&self, path: &str, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        (**self).read_at(path, offset, len)
    }

    fn unlink(&mut self, path: &str) -> FsResult<()> {
        (**self).unlink(path)
    }

    fn rmdir(&mut self, path: &str) -> FsResult<()> {
        (**self).rmdir(path)
    }

    fn rename(&mut self, from: &str, to: &str) -> FsResult<()> {
        (**self).rename(from, to)
    }

    fn readdir(&self, path: &str) -> FsResult<Vec<DirEntry>> {
        (**self).readdir(path)
    }

    fn stat(&self, path: &str) -> FsResult<Metadata> {
        (**self).stat(path)
    }

    fn open(&mut self, path: &str) -> FsResult<Handle> {
        (**self).open(path)
    }

    fn read_handle(&self, h: Handle, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        (**self).read_handle(h, offset, len)
    }

    fn write_handle(&mut self, h: Handle, offset: u64, data: &[u8]) -> FsResult<()> {
        (**self).write_handle(h, offset, data)
    }

    fn handle_size(&self, h: Handle) -> FsResult<u64> {
        (**self).handle_size(h)
    }

    fn link_handle(&mut self, h: Handle, path: &str) -> FsResult<()> {
        (**self).link_handle(h, path)
    }

    fn close(&mut self, h: Handle) -> FsResult<()> {
        (**self).close(h)
    }

    fn write_all(&mut self, path: &str, data: &[u8]) -> FsResult<()> {
        (**self).write_all(path, data)
    }

    fn sync(&mut self) -> FsResult<()> {
        (**self).sync()
    }

    fn snapshot_point(&mut self, counter: u64) -> FsResult<()> {
        (**self).snapshot_point(counter)
    }
}

#[cfg(test)]
mod tests {
    // The trait's provided methods are exercised through the concrete
    // implementations' test suites (memfs, lsfs, union).
}
