//! A plain in-memory file system.
//!
//! `MemFs` is the simplest [`Filesystem`] implementation: a direct inode
//! table with byte-vector file contents. It serves two roles — a
//! general-purpose scratch FS, and the *oracle* in property tests that
//! check the log-structured and union file systems implement identical
//! POSIX semantics.

use std::collections::{BTreeMap, HashMap};

use dv_time::Timestamp;

use crate::error::{FsError, FsResult};
use crate::lsfs::MAX_FILE_SIZE;
use crate::path;
use crate::vfs::{DirEntry, FileType, Filesystem, Handle, Metadata};

#[derive(Clone, Debug)]
struct Inode {
    ftype: FileType,
    data: Vec<u8>,
    children: BTreeMap<String, u64>,
    nlink: u32,
    mtime: Timestamp,
}

impl Inode {
    fn file() -> Self {
        Inode {
            ftype: FileType::Regular,
            data: Vec::new(),
            children: BTreeMap::new(),
            nlink: 1,
            mtime: Timestamp::ZERO,
        }
    }

    fn dir() -> Self {
        Inode {
            ftype: FileType::Directory,
            data: Vec::new(),
            children: BTreeMap::new(),
            nlink: 1,
            mtime: Timestamp::ZERO,
        }
    }
}

/// An in-memory POSIX-flavoured file system.
///
/// # Examples
///
/// ```
/// use dv_lsfs::{Filesystem, MemFs};
///
/// let mut fs = MemFs::new();
/// fs.mkdir("/tmp").unwrap();
/// fs.write_all("/tmp/foo", b"hello").unwrap();
/// assert_eq!(fs.read_all("/tmp/foo").unwrap(), b"hello");
/// ```
#[derive(Clone, Debug)]
pub struct MemFs {
    inodes: HashMap<u64, Inode>,
    root: u64,
    next_ino: u64,
    handles: HashMap<u64, u64>,
    next_handle: u64,
}

impl MemFs {
    /// Creates an empty file system containing only the root directory.
    pub fn new() -> Self {
        let mut inodes = HashMap::new();
        inodes.insert(1, Inode::dir());
        MemFs {
            inodes,
            root: 1,
            next_ino: 2,
            handles: HashMap::new(),
            next_handle: 1,
        }
    }

    fn alloc_ino(&mut self) -> u64 {
        let ino = self.next_ino;
        self.next_ino += 1;
        ino
    }

    fn resolve(&self, p: &str) -> FsResult<u64> {
        let comps = path::components(p)?;
        let mut cur = self.root;
        for comp in comps {
            let node = &self.inodes[&cur];
            if node.ftype != FileType::Directory {
                return Err(FsError::NotADirectory);
            }
            cur = *node.children.get(comp).ok_or(FsError::NotFound)?;
        }
        Ok(cur)
    }

    /// Resolves the parent directory of `p`, returning `(parent_ino, name)`.
    fn resolve_parent<'a>(&self, p: &'a str) -> FsResult<(u64, &'a str)> {
        let (dirs, name) = path::split_parent(p)?;
        let mut cur = self.root;
        for comp in dirs {
            let node = &self.inodes[&cur];
            if node.ftype != FileType::Directory {
                return Err(FsError::NotADirectory);
            }
            cur = *node.children.get(comp).ok_or(FsError::NotFound)?;
        }
        if self.inodes[&cur].ftype != FileType::Directory {
            return Err(FsError::NotADirectory);
        }
        Ok((cur, name))
    }

    fn pinned(&self, ino: u64) -> bool {
        self.handles.values().any(|&i| i == ino)
    }

    fn drop_if_orphan(&mut self, ino: u64) {
        let node = &self.inodes[&ino];
        if node.nlink == 0 && !self.pinned(ino) {
            self.inodes.remove(&ino);
        }
    }

    fn file_ino_of_handle(&self, h: Handle) -> FsResult<u64> {
        self.handles.get(&h.0).copied().ok_or(FsError::BadHandle)
    }
}

impl Default for MemFs {
    fn default() -> Self {
        MemFs::new()
    }
}

/// Writes `buf` into an in-memory file at `offset`, zero-filling a gap;
/// a file may not grow past [`MAX_FILE_SIZE`].
pub(crate) fn write_into(data: &mut Vec<u8>, offset: u64, buf: &[u8]) -> FsResult<()> {
    let end = offset
        .checked_add(buf.len() as u64)
        .filter(|&end| end <= MAX_FILE_SIZE)
        .ok_or(FsError::FileTooLarge)?;
    let (start, end) = (offset as usize, end as usize);
    if data.len() < end {
        data.resize(end, 0);
    }
    data[start..end].copy_from_slice(buf);
    Ok(())
}

/// Reads up to `len` bytes of an in-memory file from `offset`; a read
/// past the end is empty.
pub(crate) fn read_from(data: &[u8], offset: u64, len: usize) -> Vec<u8> {
    let start = usize::try_from(offset).map_or(data.len(), |o| o.min(data.len()));
    let end = start.saturating_add(len).min(data.len());
    data[start..end].to_vec()
}

impl Filesystem for MemFs {
    fn create(&mut self, p: &str) -> FsResult<()> {
        let (parent, name) = self.resolve_parent(p)?;
        if self.inodes[&parent].children.contains_key(name) {
            return Err(FsError::AlreadyExists);
        }
        let ino = self.alloc_ino();
        self.inodes.insert(ino, Inode::file());
        self.inodes
            .get_mut(&parent)
            .expect("parent resolved")
            .children
            .insert(name.to_string(), ino);
        Ok(())
    }

    fn mkdir(&mut self, p: &str) -> FsResult<()> {
        let (parent, name) = self.resolve_parent(p)?;
        if self.inodes[&parent].children.contains_key(name) {
            return Err(FsError::AlreadyExists);
        }
        let ino = self.alloc_ino();
        self.inodes.insert(ino, Inode::dir());
        self.inodes
            .get_mut(&parent)
            .expect("parent resolved")
            .children
            .insert(name.to_string(), ino);
        Ok(())
    }

    fn write_at(&mut self, p: &str, offset: u64, data: &[u8]) -> FsResult<()> {
        let ino = self.resolve(p)?;
        let node = self.inodes.get_mut(&ino).expect("resolved");
        if node.ftype != FileType::Regular {
            return Err(FsError::IsADirectory);
        }
        write_into(&mut node.data, offset, data)
    }

    fn truncate(&mut self, p: &str, size: u64) -> FsResult<()> {
        let ino = self.resolve(p)?;
        let node = self.inodes.get_mut(&ino).expect("resolved");
        if node.ftype != FileType::Regular {
            return Err(FsError::IsADirectory);
        }
        if size > MAX_FILE_SIZE {
            return Err(FsError::FileTooLarge);
        }
        node.data.resize(size as usize, 0);
        Ok(())
    }

    fn read_at(&self, p: &str, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        let ino = self.resolve(p)?;
        let node = &self.inodes[&ino];
        if node.ftype != FileType::Regular {
            return Err(FsError::IsADirectory);
        }
        Ok(read_from(&node.data, offset, len))
    }

    fn unlink(&mut self, p: &str) -> FsResult<()> {
        let (parent, name) = self.resolve_parent(p)?;
        let ino = *self.inodes[&parent]
            .children
            .get(name)
            .ok_or(FsError::NotFound)?;
        if self.inodes[&ino].ftype != FileType::Regular {
            return Err(FsError::IsADirectory);
        }
        self.inodes
            .get_mut(&parent)
            .expect("parent resolved")
            .children
            .remove(name);
        self.inodes.get_mut(&ino).expect("entry target").nlink -= 1;
        self.drop_if_orphan(ino);
        Ok(())
    }

    fn rmdir(&mut self, p: &str) -> FsResult<()> {
        let (parent, name) = self.resolve_parent(p)?;
        let ino = *self.inodes[&parent]
            .children
            .get(name)
            .ok_or(FsError::NotFound)?;
        let node = &self.inodes[&ino];
        if node.ftype != FileType::Directory {
            return Err(FsError::NotADirectory);
        }
        if !node.children.is_empty() {
            return Err(FsError::NotEmpty);
        }
        self.inodes
            .get_mut(&parent)
            .expect("parent resolved")
            .children
            .remove(name);
        self.inodes.remove(&ino);
        Ok(())
    }

    fn rename(&mut self, from: &str, to: &str) -> FsResult<()> {
        let src_ino = self.resolve(from)?;
        if self.inodes[&src_ino].ftype == FileType::Directory && path::starts_with(to, from) {
            return Err(FsError::InvalidPath);
        }
        let (to_parent, to_name) = self.resolve_parent(to)?;
        // POSIX: an existing regular file at the target is replaced; an
        // existing directory must be empty and the source a directory.
        if let Some(&existing) = self.inodes[&to_parent].children.get(to_name) {
            if existing == src_ino {
                return Ok(());
            }
            let target = &self.inodes[&existing];
            let src_is_dir = self.inodes[&src_ino].ftype == FileType::Directory;
            match target.ftype {
                FileType::Regular => {
                    if src_is_dir {
                        return Err(FsError::AlreadyExists);
                    }
                    self.inodes
                        .get_mut(&to_parent)
                        .expect("parent resolved")
                        .children
                        .remove(to_name);
                    self.inodes.get_mut(&existing).expect("target").nlink -= 1;
                    self.drop_if_orphan(existing);
                }
                FileType::Directory => {
                    if !src_is_dir {
                        return Err(FsError::IsADirectory);
                    }
                    if !target.children.is_empty() {
                        return Err(FsError::NotEmpty);
                    }
                    self.inodes
                        .get_mut(&to_parent)
                        .expect("parent resolved")
                        .children
                        .remove(to_name);
                    self.inodes.remove(&existing);
                }
            }
        }
        let (from_parent, from_name) = self.resolve_parent(from)?;
        self.inodes
            .get_mut(&from_parent)
            .expect("parent resolved")
            .children
            .remove(from_name);
        self.inodes
            .get_mut(&to_parent)
            .expect("parent resolved")
            .children
            .insert(to_name.to_string(), src_ino);
        Ok(())
    }

    fn readdir(&self, p: &str) -> FsResult<Vec<DirEntry>> {
        let ino = self.resolve(p)?;
        let node = &self.inodes[&ino];
        if node.ftype != FileType::Directory {
            return Err(FsError::NotADirectory);
        }
        Ok(node
            .children
            .iter()
            .map(|(name, child)| DirEntry {
                name: name.clone(),
                ftype: self.inodes[child].ftype,
            })
            .collect())
    }

    fn stat(&self, p: &str) -> FsResult<Metadata> {
        let ino = self.resolve(p)?;
        let node = &self.inodes[&ino];
        Ok(Metadata {
            ino,
            ftype: node.ftype,
            size: node.data.len() as u64,
            nlink: node.nlink,
            mtime: node.mtime,
        })
    }

    fn open(&mut self, p: &str) -> FsResult<Handle> {
        let ino = self.resolve(p)?;
        if self.inodes[&ino].ftype != FileType::Regular {
            return Err(FsError::IsADirectory);
        }
        let h = self.next_handle;
        self.next_handle += 1;
        self.handles.insert(h, ino);
        Ok(Handle(h))
    }

    fn read_handle(&self, h: Handle, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        let ino = self.file_ino_of_handle(h)?;
        Ok(read_from(&self.inodes[&ino].data, offset, len))
    }

    fn write_handle(&mut self, h: Handle, offset: u64, data: &[u8]) -> FsResult<()> {
        let ino = self.file_ino_of_handle(h)?;
        write_into(
            &mut self.inodes.get_mut(&ino).expect("handle target").data,
            offset,
            data,
        )
    }

    fn handle_size(&self, h: Handle) -> FsResult<u64> {
        let ino = self.file_ino_of_handle(h)?;
        Ok(self.inodes[&ino].data.len() as u64)
    }

    fn link_handle(&mut self, h: Handle, p: &str) -> FsResult<()> {
        let ino = self.file_ino_of_handle(h)?;
        let (parent, name) = self.resolve_parent(p)?;
        if self.inodes[&parent].children.contains_key(name) {
            return Err(FsError::AlreadyExists);
        }
        self.inodes
            .get_mut(&parent)
            .expect("parent resolved")
            .children
            .insert(name.to_string(), ino);
        self.inodes.get_mut(&ino).expect("handle target").nlink += 1;
        Ok(())
    }

    fn close(&mut self, h: Handle) -> FsResult<()> {
        let ino = self.handles.remove(&h.0).ok_or(FsError::BadHandle)?;
        self.drop_if_orphan(ino);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_write_read() {
        let mut fs = MemFs::new();
        fs.create("/f").unwrap();
        fs.write_at("/f", 0, b"hello").unwrap();
        assert_eq!(fs.read_at("/f", 0, 5).unwrap(), b"hello");
        assert_eq!(fs.read_at("/f", 1, 3).unwrap(), b"ell");
    }

    #[test]
    fn sparse_write_zero_fills() {
        let mut fs = MemFs::new();
        fs.create("/f").unwrap();
        fs.write_at("/f", 4, b"x").unwrap();
        assert_eq!(fs.read_all("/f").unwrap(), b"\0\0\0\0x");
    }

    #[test]
    fn read_past_eof_returns_prefix() {
        let mut fs = MemFs::new();
        fs.write_all("/f", b"abc").unwrap();
        assert_eq!(fs.read_at("/f", 2, 10).unwrap(), b"c");
        assert!(fs.read_at("/f", 9, 10).unwrap().is_empty());
    }

    #[test]
    fn directories_nest() {
        let mut fs = MemFs::new();
        fs.mkdir_all("/a/b/c").unwrap();
        fs.write_all("/a/b/c/f", b"1").unwrap();
        let entries = fs.readdir("/a/b").unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].name, "c");
        assert_eq!(entries[0].ftype, FileType::Directory);
    }

    #[test]
    fn missing_paths_error() {
        let fs = MemFs::new();
        assert_eq!(fs.read_at("/nope", 0, 1), Err(FsError::NotFound));
        assert_eq!(fs.stat("/a/b"), Err(FsError::NotFound));
    }

    #[test]
    fn file_component_in_path_is_notdir() {
        let mut fs = MemFs::new();
        fs.create("/f").unwrap();
        assert_eq!(fs.stat("/f/x"), Err(FsError::NotADirectory));
    }

    #[test]
    fn unlink_removes_and_rmdir_requires_empty() {
        let mut fs = MemFs::new();
        fs.mkdir("/d").unwrap();
        fs.write_all("/d/f", b"x").unwrap();
        assert_eq!(fs.rmdir("/d"), Err(FsError::NotEmpty));
        fs.unlink("/d/f").unwrap();
        fs.rmdir("/d").unwrap();
        assert!(!fs.exists("/d"));
    }

    #[test]
    fn unlink_of_directory_fails() {
        let mut fs = MemFs::new();
        fs.mkdir("/d").unwrap();
        assert_eq!(fs.unlink("/d"), Err(FsError::IsADirectory));
    }

    #[test]
    fn rename_moves_and_replaces() {
        let mut fs = MemFs::new();
        fs.write_all("/a", b"A").unwrap();
        fs.write_all("/b", b"B").unwrap();
        fs.rename("/a", "/b").unwrap();
        assert!(!fs.exists("/a"));
        assert_eq!(fs.read_all("/b").unwrap(), b"A");
    }

    #[test]
    fn rename_dir_into_itself_fails() {
        let mut fs = MemFs::new();
        fs.mkdir_all("/a/b").unwrap();
        assert_eq!(fs.rename("/a", "/a/b/c"), Err(FsError::InvalidPath));
    }

    #[test]
    fn rename_dir_over_empty_dir() {
        let mut fs = MemFs::new();
        fs.mkdir("/src").unwrap();
        fs.write_all("/src/f", b"x").unwrap();
        fs.mkdir("/dst").unwrap();
        fs.rename("/src", "/dst").unwrap();
        assert_eq!(fs.read_all("/dst/f").unwrap(), b"x");
    }

    #[test]
    fn rename_dir_over_nonempty_dir_fails() {
        let mut fs = MemFs::new();
        fs.mkdir("/src").unwrap();
        fs.mkdir("/dst").unwrap();
        fs.write_all("/dst/f", b"x").unwrap();
        assert_eq!(fs.rename("/src", "/dst"), Err(FsError::NotEmpty));
    }

    #[test]
    fn handle_survives_unlink() {
        let mut fs = MemFs::new();
        fs.write_all("/tmp_foo", b"keep me").unwrap();
        let h = fs.open("/tmp_foo").unwrap();
        fs.unlink("/tmp_foo").unwrap();
        assert!(!fs.exists("/tmp_foo"));
        assert_eq!(fs.read_handle(h, 0, 7).unwrap(), b"keep me");
        fs.write_handle(h, 0, b"KEEP").unwrap();
        assert_eq!(fs.read_handle(h, 0, 7).unwrap(), b"KEEP me");
        fs.close(h).unwrap();
        assert_eq!(fs.read_handle(h, 0, 1), Err(FsError::BadHandle));
    }

    #[test]
    fn relink_restores_unlinked_file() {
        let mut fs = MemFs::new();
        fs.mkdir("/hidden").unwrap();
        fs.write_all("/f", b"data").unwrap();
        let h = fs.open("/f").unwrap();
        fs.unlink("/f").unwrap();
        // The checkpoint engine's relink: give the orphan a name again.
        fs.link_handle(h, "/hidden/relinked").unwrap();
        fs.close(h).unwrap();
        assert_eq!(fs.read_all("/hidden/relinked").unwrap(), b"data");
        assert_eq!(fs.stat("/hidden/relinked").unwrap().nlink, 1);
    }

    #[test]
    fn close_after_unlink_frees_orphan() {
        let mut fs = MemFs::new();
        fs.write_all("/f", b"x").unwrap();
        let h = fs.open("/f").unwrap();
        fs.unlink("/f").unwrap();
        fs.close(h).unwrap();
        // Nothing to observe directly; create a new file and make sure
        // the fs still behaves.
        fs.write_all("/g", b"y").unwrap();
        assert_eq!(fs.read_all("/g").unwrap(), b"y");
    }

    #[test]
    fn write_all_truncates_previous_contents() {
        let mut fs = MemFs::new();
        fs.write_all("/f", b"long contents").unwrap();
        fs.write_all("/f", b"hi").unwrap();
        assert_eq!(fs.read_all("/f").unwrap(), b"hi");
    }

    #[test]
    fn stat_reports_sizes_and_types() {
        let mut fs = MemFs::new();
        fs.mkdir("/d").unwrap();
        fs.write_all("/f", b"12345").unwrap();
        assert_eq!(fs.stat("/f").unwrap().size, 5);
        assert_eq!(fs.stat("/d").unwrap().ftype, FileType::Directory);
        assert_eq!(fs.stat("/").unwrap().ftype, FileType::Directory);
    }
}
