//! Shared file system handles.
//!
//! The virtual execution environment owns its file system view as a
//! `Box<dyn Filesystem>`, but the session manager also needs typed
//! access to the same instance — to take snapshots by counter, mount
//! union branches, and account storage. [`SharedFs`] wraps a file system
//! in `Arc<Mutex<..>>` and implements [`Filesystem`] by delegation, so
//! both parties hold the same store.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::FsResult;
use crate::vfs::{DirEntry, Filesystem, Handle, Metadata};

/// A cloneable, lockable file system handle.
pub struct SharedFs<F: Filesystem> {
    inner: Arc<Mutex<F>>,
}

impl<F: Filesystem> SharedFs<F> {
    /// Wraps a file system.
    pub fn new(fs: F) -> Self {
        SharedFs {
            inner: Arc::new(Mutex::new(fs)),
        }
    }

    /// Runs `f` with the locked file system.
    pub fn with<R>(&self, f: impl FnOnce(&mut F) -> R) -> R {
        f(&mut self.inner.lock())
    }
}

impl<F: Filesystem> Clone for SharedFs<F> {
    fn clone(&self) -> Self {
        SharedFs {
            inner: self.inner.clone(),
        }
    }
}

impl<F: Filesystem> Filesystem for SharedFs<F> {
    fn create(&mut self, path: &str) -> FsResult<()> {
        self.inner.lock().create(path)
    }

    fn mkdir(&mut self, path: &str) -> FsResult<()> {
        self.inner.lock().mkdir(path)
    }

    fn write_at(&mut self, path: &str, offset: u64, data: &[u8]) -> FsResult<()> {
        self.inner.lock().write_at(path, offset, data)
    }

    fn truncate(&mut self, path: &str, size: u64) -> FsResult<()> {
        self.inner.lock().truncate(path, size)
    }

    fn read_at(&self, path: &str, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        self.inner.lock().read_at(path, offset, len)
    }

    fn unlink(&mut self, path: &str) -> FsResult<()> {
        self.inner.lock().unlink(path)
    }

    fn rmdir(&mut self, path: &str) -> FsResult<()> {
        self.inner.lock().rmdir(path)
    }

    fn rename(&mut self, from: &str, to: &str) -> FsResult<()> {
        self.inner.lock().rename(from, to)
    }

    fn readdir(&self, path: &str) -> FsResult<Vec<DirEntry>> {
        self.inner.lock().readdir(path)
    }

    fn stat(&self, path: &str) -> FsResult<Metadata> {
        self.inner.lock().stat(path)
    }

    fn open(&mut self, path: &str) -> FsResult<Handle> {
        self.inner.lock().open(path)
    }

    fn read_handle(&self, h: Handle, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        self.inner.lock().read_handle(h, offset, len)
    }

    fn write_handle(&mut self, h: Handle, offset: u64, data: &[u8]) -> FsResult<()> {
        self.inner.lock().write_handle(h, offset, data)
    }

    fn handle_size(&self, h: Handle) -> FsResult<u64> {
        self.inner.lock().handle_size(h)
    }

    fn link_handle(&mut self, h: Handle, path: &str) -> FsResult<()> {
        self.inner.lock().link_handle(h, path)
    }

    fn close(&mut self, h: Handle) -> FsResult<()> {
        self.inner.lock().close(h)
    }

    fn write_all(&mut self, path: &str, data: &[u8]) -> FsResult<()> {
        self.inner.lock().write_all(path, data)
    }

    fn sync(&mut self) -> FsResult<()> {
        self.inner.lock().sync()
    }

    fn snapshot_point(&mut self, counter: u64) -> FsResult<()> {
        self.inner.lock().snapshot_point(counter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsfs::Lsfs;

    #[test]
    fn both_handles_see_the_same_store() {
        let shared = SharedFs::new(Lsfs::new());
        let mut as_trait: Box<dyn Filesystem> = Box::new(shared.clone());
        as_trait.write_all("/x", b"via trait").unwrap();
        assert_eq!(shared.with(|fs| fs.read_all("/x")).unwrap(), b"via trait");
    }

    #[test]
    fn snapshots_visible_through_typed_handle() {
        let shared = SharedFs::new(Lsfs::new());
        let mut boxed: Box<dyn Filesystem> = Box::new(shared.clone());
        boxed.write_all("/f", b"v1").unwrap();
        boxed.snapshot_point(1).unwrap();
        boxed.write_all("/f", b"v2-longer").unwrap();
        let snap = shared.with(|fs| fs.snapshot(1)).unwrap();
        assert_eq!(snap.read_all("/f").unwrap(), b"v1");
    }

    #[test]
    fn with_runs_closures() {
        let shared = SharedFs::new(Lsfs::new());
        shared.with(|fs| fs.write_all("/y", b"z")).unwrap();
        assert!(shared.with(|fs| fs.exists("/y")));
    }
}
