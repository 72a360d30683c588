//! Read-only snapshot views.
//!
//! A [`SnapshotView`] is the file system exactly as it was at a snapshot
//! point. "Standard snapshotting file systems only provide read-only
//! snapshots" (§5.2); DejaView layers a writable union on top (see
//! [`crate::union`]) to revive sessions. All file data is read directly
//! from the shared append-only disk, which never overwrites old blocks.

use std::collections::HashMap;

use parking_lot::Mutex;

use crate::disk::SharedDisk;
use crate::error::{FsError, FsResult};
use crate::lsfs::{read_blocks, FsState};
use crate::vfs::{DirEntry, FileType, Filesystem, Handle, Metadata};

/// A read-only view of one snapshot point.
///
/// Opening or cloning a view copies a root pointer: the view, the
/// snapshot it was opened from and the live file system share the nodes
/// of one persistent inode table, and data lives on the shared disk.
/// Every mutating [`Filesystem`] operation returns
/// [`FsError::ReadOnly`].
pub struct SnapshotView {
    state: FsState,
    disk: SharedDisk,
    handles: Mutex<HashMap<u64, u64>>,
    next_handle: Mutex<u64>,
}

impl SnapshotView {
    pub(crate) fn new(state: FsState, disk: SharedDisk) -> Self {
        SnapshotView {
            state,
            disk,
            handles: Mutex::new(HashMap::new()),
            next_handle: Mutex::new(1),
        }
    }

    fn read_range(&self, ino: u64, offset: u64, len: usize) -> Vec<u8> {
        let node = &self.state.inodes[ino];
        read_blocks(node.size, offset, len, |idx| node.block(&self.disk, idx))
    }
}

impl Clone for SnapshotView {
    fn clone(&self) -> Self {
        SnapshotView::new(self.state.clone(), self.disk.clone())
    }
}

impl Filesystem for SnapshotView {
    fn create(&mut self, _p: &str) -> FsResult<()> {
        Err(FsError::ReadOnly)
    }

    fn mkdir(&mut self, _p: &str) -> FsResult<()> {
        Err(FsError::ReadOnly)
    }

    fn write_at(&mut self, _p: &str, _offset: u64, _data: &[u8]) -> FsResult<()> {
        Err(FsError::ReadOnly)
    }

    fn truncate(&mut self, _p: &str, _size: u64) -> FsResult<()> {
        Err(FsError::ReadOnly)
    }

    fn read_at(&self, p: &str, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        let ino = self.state.resolve(p)?;
        if self.state.inodes[ino].ftype != FileType::Regular {
            return Err(FsError::IsADirectory);
        }
        Ok(self.read_range(ino, offset, len))
    }

    fn unlink(&mut self, _p: &str) -> FsResult<()> {
        Err(FsError::ReadOnly)
    }

    fn rmdir(&mut self, _p: &str) -> FsResult<()> {
        Err(FsError::ReadOnly)
    }

    fn rename(&mut self, _from: &str, _to: &str) -> FsResult<()> {
        Err(FsError::ReadOnly)
    }

    fn readdir(&self, p: &str) -> FsResult<Vec<DirEntry>> {
        self.state.readdir(p)
    }

    fn stat(&self, p: &str) -> FsResult<Metadata> {
        self.state.stat(p)
    }

    fn open(&mut self, p: &str) -> FsResult<Handle> {
        let ino = self.state.resolve(p)?;
        if self.state.inodes[ino].ftype != FileType::Regular {
            return Err(FsError::IsADirectory);
        }
        let mut next = self.next_handle.lock();
        let h = *next;
        *next += 1;
        self.handles.lock().insert(h, ino);
        Ok(Handle(h))
    }

    fn read_handle(&self, h: Handle, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        let ino = *self.handles.lock().get(&h.0).ok_or(FsError::BadHandle)?;
        Ok(self.read_range(ino, offset, len))
    }

    fn write_handle(&mut self, _h: Handle, _offset: u64, _data: &[u8]) -> FsResult<()> {
        Err(FsError::ReadOnly)
    }

    fn handle_size(&self, h: Handle) -> FsResult<u64> {
        let ino = *self.handles.lock().get(&h.0).ok_or(FsError::BadHandle)?;
        Ok(self.state.inodes[ino].size)
    }

    fn link_handle(&mut self, _h: Handle, _p: &str) -> FsResult<()> {
        Err(FsError::ReadOnly)
    }

    fn close(&mut self, h: Handle) -> FsResult<()> {
        self.handles
            .lock()
            .remove(&h.0)
            .map(|_| ())
            .ok_or(FsError::BadHandle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsfs::Lsfs;

    fn fs_with_snapshot() -> (Lsfs, SnapshotView) {
        let mut fs = Lsfs::new();
        fs.mkdir("/d").unwrap();
        fs.write_all("/d/file", b"snapshot contents").unwrap();
        fs.snapshot_point(1).unwrap();
        let snap = fs.snapshot(1).unwrap();
        (fs, snap)
    }

    #[test]
    fn all_mutations_are_rejected() {
        let (_fs, mut snap) = fs_with_snapshot();
        assert_eq!(snap.create("/x"), Err(FsError::ReadOnly));
        assert_eq!(snap.mkdir("/x"), Err(FsError::ReadOnly));
        assert_eq!(snap.write_at("/d/file", 0, b"x"), Err(FsError::ReadOnly));
        assert_eq!(snap.truncate("/d/file", 0), Err(FsError::ReadOnly));
        assert_eq!(snap.unlink("/d/file"), Err(FsError::ReadOnly));
        assert_eq!(snap.rmdir("/d"), Err(FsError::ReadOnly));
        assert_eq!(snap.rename("/d/file", "/x"), Err(FsError::ReadOnly));
    }

    #[test]
    fn reads_see_snapshot_state() {
        let (mut fs, snap) = fs_with_snapshot();
        fs.write_all("/d/file", b"live changed").unwrap();
        fs.sync().unwrap();
        assert_eq!(snap.read_all("/d/file").unwrap(), b"snapshot contents");
        assert_eq!(snap.stat("/d/file").unwrap().size, 17);
        let names: Vec<String> = snap
            .readdir("/d")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, vec!["file"]);
    }

    #[test]
    fn handles_read_but_never_write() {
        let (_fs, mut snap) = fs_with_snapshot();
        let h = snap.open("/d/file").unwrap();
        assert_eq!(snap.read_handle(h, 0, 8).unwrap(), b"snapshot");
        assert_eq!(snap.handle_size(h).unwrap(), 17);
        assert_eq!(snap.write_handle(h, 0, b"x"), Err(FsError::ReadOnly));
        snap.close(h).unwrap();
        assert_eq!(snap.read_handle(h, 0, 1), Err(FsError::BadHandle));
    }

    #[test]
    fn clones_are_independent_handle_spaces() {
        let (_fs, mut snap) = fs_with_snapshot();
        let snap2 = snap.clone();
        let h = snap.open("/d/file").unwrap();
        assert_eq!(snap2.read_handle(h, 0, 1), Err(FsError::BadHandle));
        assert_eq!(snap2.read_all("/d/file").unwrap(), b"snapshot contents");
    }
}
