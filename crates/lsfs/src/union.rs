//! The unioning file system.
//!
//! DejaView "leverages unioning file systems to join the read-only
//! snapshot with a writable file system by stacking the latter on top"
//! (§5.2): objects from the writable layer are always visible, objects
//! from the read-only layer show through where the upper layer has no
//! entry, and modifying a lower object first copies it up. Deletions of
//! lower objects are recorded as *whiteout* marker files in the upper
//! layer (`.wh.<name>`), and a directory recreated over a whiteout gets
//! an *opaque* marker hiding its lower contents — the same on-disk
//! convention overlayfs uses, which keeps the union reconstructible from
//! its two layers alone.
//!
//! Semantics simplifications relative to POSIX, both documented here and
//! acceptable for DejaView's usage: `rename` of directories is performed
//! as a recursive copy (not atomic), and two handles opened on the same
//! *lower* file diverge once one of them writes (each gets its own
//! copied-up view).

use std::collections::HashMap;

use crate::error::{FsError, FsResult};
use crate::memfs::{read_from, write_into};
use crate::path;
use crate::vfs::{DirEntry, FileType, Filesystem, Handle, Metadata};

const WH_PREFIX: &str = ".wh.";
const OPAQUE_MARKER: &str = ".wh.__dir_opaque__";

/// Where a union path resolved.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Loc {
    /// Present in the upper (writable) layer only, or a file shadowing
    /// the lower layer.
    Upper,
    /// Visible from the lower (read-only) layer only.
    Lower,
    /// A directory present in both layers whose contents merge.
    BothDirs,
}

enum UnionHandle {
    Upper(Handle),
    Lower { path: String, h: Handle },
    Detached { data: Vec<u8> },
}

/// A writable union of a read-only lower layer and a writable upper
/// layer.
///
/// # Examples
///
/// ```
/// use dv_lsfs::{Filesystem, MemFs, UnionFs};
///
/// let mut lower = MemFs::new();
/// lower.write_all("/config", b"original").unwrap();
/// let mut fs = UnionFs::new(lower, MemFs::new());
///
/// // Reads pass through; writes copy up.
/// assert_eq!(fs.read_all("/config").unwrap(), b"original");
/// fs.write_at("/config", 0, b"CHANGED!").unwrap();
/// assert_eq!(fs.read_all("/config").unwrap(), b"CHANGED!");
/// ```
pub struct UnionFs<L: Filesystem, U: Filesystem> {
    lower: L,
    upper: U,
    handles: HashMap<u64, UnionHandle>,
    next_handle: u64,
}

fn check_no_markers(p: &str) -> FsResult<()> {
    for comp in path::components(p)? {
        if comp.starts_with(WH_PREFIX) {
            return Err(FsError::InvalidPath);
        }
    }
    Ok(())
}

fn wh_path(p: &str) -> FsResult<String> {
    let (_, name) = path::split_parent(p)?;
    Ok(path::join(&path::parent(p)?, &format!("{WH_PREFIX}{name}")))
}

impl<L: Filesystem, U: Filesystem> UnionFs<L, U> {
    /// Creates a union of `lower` (treated as read-only) and `upper`.
    pub fn new(lower: L, upper: U) -> Self {
        UnionFs {
            lower,
            upper,
            handles: HashMap::new(),
            next_handle: 1,
        }
    }

    /// Returns the upper (writable) layer.
    pub fn upper(&self) -> &U {
        &self.upper
    }

    /// Returns a mutable reference to the upper layer, for maintenance
    /// such as continued snapshotting of a revived session's branch.
    pub fn upper_mut(&mut self) -> &mut U {
        &mut self.upper
    }

    /// Returns the lower (read-only) layer.
    pub fn lower(&self) -> &L {
        &self.lower
    }

    fn whited_out(&self, p: &str) -> bool {
        match wh_path(p) {
            Ok(wh) => self.upper.exists(&wh),
            Err(_) => false,
        }
    }

    fn upper_opaque(&self, dir: &str) -> bool {
        self.upper.exists(&path::join(dir, OPAQUE_MARKER))
    }

    /// Returns whether the lower object at `p` shows through the upper
    /// layer: no prefix is whited out and no strict ancestor directory is
    /// opaque.
    fn lower_visible(&self, p: &str) -> bool {
        let comps = match path::components(p) {
            Ok(c) => c,
            Err(_) => return false,
        };
        let mut prefix = String::new();
        for (i, comp) in comps.iter().enumerate() {
            prefix.push('/');
            prefix.push_str(comp);
            if self.whited_out(&prefix) {
                return false;
            }
            // An opaque strict ancestor hides everything below it.
            if i < comps.len() - 1 && self.upper_opaque(&prefix) {
                return false;
            }
        }
        true
    }

    fn locate(&self, p: &str) -> FsResult<Loc> {
        check_no_markers(p)?;
        match self.upper.stat(p) {
            Ok(m) => {
                if m.ftype == FileType::Directory
                    && !self.upper_opaque(p)
                    && self.lower_visible(p)
                    && matches!(
                        self.lower.stat(p),
                        Ok(Metadata {
                            ftype: FileType::Directory,
                            ..
                        })
                    )
                {
                    Ok(Loc::BothDirs)
                } else {
                    Ok(Loc::Upper)
                }
            }
            Err(FsError::NotFound) => {
                if self.lower_visible(p) {
                    match self.lower.stat(p) {
                        Ok(_) => Ok(Loc::Lower),
                        Err(e) => Err(e),
                    }
                } else {
                    Err(FsError::NotFound)
                }
            }
            // An upper regular file shadows any lower directory on the
            // path, so the upper error is the union's error.
            Err(e) => Err(e),
        }
    }

    /// Creates every directory along `dir` in the upper layer, mirroring
    /// union-visible directories (the directory copy-up of a union FS).
    fn copy_up_dirs(&mut self, dir: &str) -> FsResult<()> {
        let comps = path::components(dir)?;
        let mut prefix = String::new();
        for comp in comps {
            prefix.push('/');
            prefix.push_str(comp);
            match self.upper.mkdir(&prefix) {
                Ok(()) | Err(FsError::AlreadyExists) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Copies a lower file to the upper layer so it can be modified.
    fn copy_up_file(&mut self, p: &str) -> FsResult<()> {
        let data = self.lower.read_all(p)?;
        self.copy_up_dirs(&path::parent(p)?)?;
        self.upper.create(p)?;
        self.upper.write_at(p, 0, &data)
    }

    fn add_whiteout(&mut self, p: &str) -> FsResult<()> {
        self.copy_up_dirs(&path::parent(p)?)?;
        let wh = wh_path(p)?;
        match self.upper.create(&wh) {
            Ok(()) | Err(FsError::AlreadyExists) => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn remove_whiteout_if_any(&mut self, p: &str) -> FsResult<bool> {
        let wh = wh_path(p)?;
        match self.upper.unlink(&wh) {
            Ok(()) => Ok(true),
            Err(FsError::NotFound) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Checks that the parent of `p` is a union-visible directory.
    fn require_parent_dir(&self, p: &str) -> FsResult<()> {
        let parent = path::parent(p)?;
        if parent == "/" {
            return Ok(());
        }
        match self.locate(&parent)? {
            Loc::Upper => {
                if self.upper.stat(&parent)?.ftype != FileType::Directory {
                    return Err(FsError::NotADirectory);
                }
            }
            Loc::Lower => {
                if self.lower.stat(&parent)?.ftype != FileType::Directory {
                    return Err(FsError::NotADirectory);
                }
            }
            Loc::BothDirs => {}
        }
        Ok(())
    }

    fn alloc_handle(&mut self, uh: UnionHandle) -> Handle {
        let id = self.next_handle;
        self.next_handle += 1;
        self.handles.insert(id, uh);
        Handle(id)
    }

    fn rename_file(&mut self, from: &str, to: &str) -> FsResult<()> {
        let data = self.read_all(from)?;
        if self.exists(to) {
            self.unlink(to)?;
        }
        self.unlink(from)?;
        self.create(to)?;
        self.write_at(to, 0, &data)
    }

    fn rename_dir(&mut self, from: &str, to: &str) -> FsResult<()> {
        if self.exists(to) {
            if !self.readdir(to)?.is_empty() {
                return Err(FsError::NotEmpty);
            }
            self.rmdir(to)?;
        }
        self.mkdir(to)?;
        for entry in self.readdir(from)? {
            let src = path::join(from, &entry.name);
            let dst = path::join(to, &entry.name);
            match entry.ftype {
                FileType::Regular => self.rename_file(&src, &dst)?,
                FileType::Directory => self.rename_dir(&src, &dst)?,
            }
        }
        self.rmdir(from)
    }
}

impl<L: Filesystem, U: Filesystem> Filesystem for UnionFs<L, U> {
    fn create(&mut self, p: &str) -> FsResult<()> {
        match self.locate(p) {
            Ok(_) => return Err(FsError::AlreadyExists),
            Err(FsError::NotFound) => {}
            Err(e) => return Err(e),
        }
        self.require_parent_dir(p)?;
        self.copy_up_dirs(&path::parent(p)?)?;
        self.remove_whiteout_if_any(p)?;
        self.upper.create(p)
    }

    fn mkdir(&mut self, p: &str) -> FsResult<()> {
        match self.locate(p) {
            Ok(_) => return Err(FsError::AlreadyExists),
            Err(FsError::NotFound) => {}
            Err(e) => return Err(e),
        }
        self.require_parent_dir(p)?;
        self.copy_up_dirs(&path::parent(p)?)?;
        let had_whiteout = self.remove_whiteout_if_any(p)?;
        self.upper.mkdir(p)?;
        if had_whiteout {
            // The lower layer had an object of this name that was
            // deleted; the fresh directory must not leak its contents.
            self.upper.create(&path::join(p, OPAQUE_MARKER))?;
        }
        Ok(())
    }

    fn write_at(&mut self, p: &str, offset: u64, data: &[u8]) -> FsResult<()> {
        match self.locate(p)? {
            Loc::Upper => self.upper.write_at(p, offset, data),
            Loc::BothDirs => Err(FsError::IsADirectory),
            Loc::Lower => {
                if self.lower.stat(p)?.ftype != FileType::Regular {
                    return Err(FsError::IsADirectory);
                }
                self.copy_up_file(p)?;
                self.upper.write_at(p, offset, data)
            }
        }
    }

    fn truncate(&mut self, p: &str, size: u64) -> FsResult<()> {
        match self.locate(p)? {
            Loc::Upper => self.upper.truncate(p, size),
            Loc::BothDirs => Err(FsError::IsADirectory),
            Loc::Lower => {
                if self.lower.stat(p)?.ftype != FileType::Regular {
                    return Err(FsError::IsADirectory);
                }
                self.copy_up_file(p)?;
                self.upper.truncate(p, size)
            }
        }
    }

    fn read_at(&self, p: &str, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        match self.locate(p)? {
            Loc::Upper => self.upper.read_at(p, offset, len),
            Loc::Lower => self.lower.read_at(p, offset, len),
            Loc::BothDirs => Err(FsError::IsADirectory),
        }
    }

    fn unlink(&mut self, p: &str) -> FsResult<()> {
        match self.locate(p)? {
            Loc::BothDirs => Err(FsError::IsADirectory),
            Loc::Upper => {
                if self.upper.stat(p)?.ftype != FileType::Regular {
                    return Err(FsError::IsADirectory);
                }
                self.upper.unlink(p)?;
                if self.lower_visible(p) && self.lower.exists(p) {
                    self.add_whiteout(p)?;
                }
                Ok(())
            }
            Loc::Lower => {
                if self.lower.stat(p)?.ftype != FileType::Regular {
                    return Err(FsError::IsADirectory);
                }
                self.add_whiteout(p)
            }
        }
    }

    fn rmdir(&mut self, p: &str) -> FsResult<()> {
        let loc = self.locate(p)?;
        let meta = self.stat(p)?;
        if meta.ftype != FileType::Directory {
            return Err(FsError::NotADirectory);
        }
        if !self.readdir(p)?.is_empty() {
            return Err(FsError::NotEmpty);
        }
        match loc {
            Loc::Upper | Loc::BothDirs => {
                let opq = path::join(p, OPAQUE_MARKER);
                if self.upper.exists(&opq) {
                    self.upper.unlink(&opq)?;
                }
                // Remove any child whiteout markers left in the upper dir.
                let markers: Vec<String> =
                    self.upper.readdir(p)?.into_iter().map(|e| e.name).collect();
                for name in markers {
                    self.upper.unlink(&path::join(p, &name))?;
                }
                self.upper.rmdir(p)?;
            }
            Loc::Lower => {}
        }
        if self.lower_visible(p) && self.lower.exists(p) {
            self.add_whiteout(p)?;
        }
        Ok(())
    }

    fn rename(&mut self, from: &str, to: &str) -> FsResult<()> {
        check_no_markers(from)?;
        check_no_markers(to)?;
        let src = self.stat(from)?;
        if src.ftype == FileType::Directory && path::starts_with(to, from) {
            return Err(FsError::InvalidPath);
        }
        if from == to {
            return Ok(());
        }
        self.require_parent_dir(to)?;
        match self.stat(to) {
            Ok(dst) => match (src.ftype, dst.ftype) {
                (FileType::Regular, FileType::Regular) => self.rename_file(from, to),
                (FileType::Directory, FileType::Directory) => self.rename_dir(from, to),
                (FileType::Regular, FileType::Directory) => Err(FsError::IsADirectory),
                (FileType::Directory, FileType::Regular) => Err(FsError::AlreadyExists),
            },
            Err(FsError::NotFound) => match src.ftype {
                FileType::Regular => self.rename_file(from, to),
                FileType::Directory => self.rename_dir(from, to),
            },
            Err(e) => Err(e),
        }
    }

    fn readdir(&self, p: &str) -> FsResult<Vec<DirEntry>> {
        let loc = self.locate(p)?;
        let mut entries: Vec<DirEntry> = Vec::new();
        match loc {
            Loc::Upper => {
                if self.upper.stat(p)?.ftype != FileType::Directory {
                    return Err(FsError::NotADirectory);
                }
                entries = self
                    .upper
                    .readdir(p)?
                    .into_iter()
                    .filter(|e| !e.name.starts_with(WH_PREFIX))
                    .collect();
            }
            Loc::Lower => {
                if self.lower.stat(p)?.ftype != FileType::Directory {
                    return Err(FsError::NotADirectory);
                }
                entries = self.lower.readdir(p)?;
            }
            Loc::BothDirs => {
                let upper: Vec<DirEntry> = self
                    .upper
                    .readdir(p)?
                    .into_iter()
                    .filter(|e| !e.name.starts_with(WH_PREFIX))
                    .collect();
                let upper_names: std::collections::HashSet<&str> =
                    upper.iter().map(|e| e.name.as_str()).collect();
                entries.extend(upper.iter().cloned());
                for e in self.lower.readdir(p)? {
                    if upper_names.contains(e.name.as_str()) {
                        continue;
                    }
                    if self.whited_out(&path::join(p, &e.name)) {
                        continue;
                    }
                    entries.push(e);
                }
                entries.sort_by(|a, b| a.name.cmp(&b.name));
            }
        }
        Ok(entries)
    }

    fn stat(&self, p: &str) -> FsResult<Metadata> {
        match self.locate(p)? {
            Loc::Upper | Loc::BothDirs => self.upper.stat(p),
            Loc::Lower => self.lower.stat(p),
        }
    }

    fn open(&mut self, p: &str) -> FsResult<Handle> {
        match self.locate(p)? {
            Loc::BothDirs => Err(FsError::IsADirectory),
            Loc::Upper => {
                let h = self.upper.open(p)?;
                Ok(self.alloc_handle(UnionHandle::Upper(h)))
            }
            Loc::Lower => {
                if self.lower.stat(p)?.ftype != FileType::Regular {
                    return Err(FsError::IsADirectory);
                }
                let h = self.lower.open(p)?;
                Ok(self.alloc_handle(UnionHandle::Lower {
                    path: p.to_string(),
                    h,
                }))
            }
        }
    }

    fn read_handle(&self, h: Handle, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        match self.handles.get(&h.0).ok_or(FsError::BadHandle)? {
            UnionHandle::Upper(uh) => self.upper.read_handle(*uh, offset, len),
            UnionHandle::Lower { h: lh, .. } => self.lower.read_handle(*lh, offset, len),
            UnionHandle::Detached { data } => Ok(read_from(data, offset, len)),
        }
    }

    fn write_handle(&mut self, h: Handle, offset: u64, data: &[u8]) -> FsResult<()> {
        let entry = self.handles.get(&h.0).ok_or(FsError::BadHandle)?;
        match entry {
            UnionHandle::Upper(uh) => {
                let uh = *uh;
                self.upper.write_handle(uh, offset, data)
            }
            UnionHandle::Detached { .. } => {
                let Some(UnionHandle::Detached { data: buf }) = self.handles.get_mut(&h.0) else {
                    unreachable!("entry matched above");
                };
                write_into(buf, offset, data)
            }
            UnionHandle::Lower { path, h: lh } => {
                let (path, lh) = (path.clone(), *lh);
                // First write through a lower handle: copy up if the
                // union still resolves this path to the lower layer,
                // otherwise detach into a private orphan copy.
                let size = self.lower.handle_size(lh)? as usize;
                let content = self.lower.read_handle(lh, 0, size)?;
                self.lower.close(lh)?;
                if self.locate(&path) == Ok(Loc::Lower) {
                    self.copy_up_file(&path)?;
                    // The lower handle is closed: re-point the entry
                    // before a write that may be refused.
                    let uh = self.upper.open(&path)?;
                    self.handles.insert(h.0, UnionHandle::Upper(uh));
                    self.upper.write_handle(uh, offset, data)
                } else {
                    let mut buf = content;
                    let written = write_into(&mut buf, offset, data);
                    self.handles
                        .insert(h.0, UnionHandle::Detached { data: buf });
                    written
                }
            }
        }
    }

    fn handle_size(&self, h: Handle) -> FsResult<u64> {
        match self.handles.get(&h.0).ok_or(FsError::BadHandle)? {
            UnionHandle::Upper(uh) => self.upper.handle_size(*uh),
            UnionHandle::Lower { h: lh, .. } => self.lower.handle_size(*lh),
            UnionHandle::Detached { data } => Ok(data.len() as u64),
        }
    }

    fn link_handle(&mut self, h: Handle, p: &str) -> FsResult<()> {
        check_no_markers(p)?;
        if self.exists(p) {
            return Err(FsError::AlreadyExists);
        }
        let entry = self.handles.get(&h.0).ok_or(FsError::BadHandle)?;
        match entry {
            UnionHandle::Upper(uh) => {
                let uh = *uh;
                self.copy_up_dirs(&path::parent(p)?)?;
                self.remove_whiteout_if_any(p)?;
                self.upper.link_handle(uh, p)
            }
            // Cross-layer links materialize as copies: the union cannot
            // share an inode between layers.
            UnionHandle::Lower { h: lh, .. } => {
                let lh = *lh;
                let size = self.lower.handle_size(lh)? as usize;
                let content = self.lower.read_handle(lh, 0, size)?;
                self.copy_up_dirs(&path::parent(p)?)?;
                self.remove_whiteout_if_any(p)?;
                self.upper.create(p)?;
                self.upper.write_at(p, 0, &content)
            }
            UnionHandle::Detached { data } => {
                let content = data.clone();
                self.copy_up_dirs(&path::parent(p)?)?;
                self.remove_whiteout_if_any(p)?;
                self.upper.create(p)?;
                self.upper.write_at(p, 0, &content)
            }
        }
    }

    fn close(&mut self, h: Handle) -> FsResult<()> {
        match self.handles.remove(&h.0).ok_or(FsError::BadHandle)? {
            UnionHandle::Upper(uh) => self.upper.close(uh),
            UnionHandle::Lower { h: lh, .. } => self.lower.close(lh),
            UnionHandle::Detached { .. } => Ok(()),
        }
    }

    fn sync(&mut self) -> FsResult<()> {
        self.upper.sync()
    }

    fn snapshot_point(&mut self, counter: u64) -> FsResult<()> {
        self.upper.snapshot_point(counter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memfs::MemFs;

    fn lower() -> MemFs {
        let mut fs = MemFs::new();
        fs.mkdir_all("/etc").unwrap();
        fs.write_all("/etc/conf", b"lower-conf").unwrap();
        fs.mkdir_all("/data/sub").unwrap();
        fs.write_all("/data/a", b"AAA").unwrap();
        fs.write_all("/data/sub/b", b"BBB").unwrap();
        fs
    }

    fn union() -> UnionFs<MemFs, MemFs> {
        UnionFs::new(lower(), MemFs::new())
    }

    #[test]
    fn lower_contents_show_through() {
        let fs = union();
        assert_eq!(fs.read_all("/etc/conf").unwrap(), b"lower-conf");
        assert_eq!(fs.stat("/data/a").unwrap().size, 3);
        let names: Vec<String> = fs
            .readdir("/data")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, vec!["a", "sub"]);
    }

    #[test]
    fn writes_copy_up_and_never_touch_lower() {
        let mut fs = union();
        fs.write_at("/etc/conf", 0, b"UPPER").unwrap();
        assert_eq!(fs.read_all("/etc/conf").unwrap(), b"UPPER-conf");
        assert_eq!(fs.lower().read_all("/etc/conf").unwrap(), b"lower-conf");
        assert_eq!(fs.upper().read_all("/etc/conf").unwrap(), b"UPPER-conf");
    }

    #[test]
    fn unlink_lower_creates_whiteout() {
        let mut fs = union();
        fs.unlink("/data/a").unwrap();
        assert!(!fs.exists("/data/a"));
        assert_eq!(fs.read_at("/data/a", 0, 1), Err(FsError::NotFound));
        // The lower layer is untouched; the upper records the deletion.
        assert!(fs.lower().exists("/data/a"));
        assert!(fs.upper().exists("/data/.wh.a"));
        // readdir no longer shows it.
        let names: Vec<String> = fs
            .readdir("/data")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, vec!["sub"]);
    }

    #[test]
    fn recreate_after_unlink_is_fresh() {
        let mut fs = union();
        fs.unlink("/data/a").unwrap();
        fs.create("/data/a").unwrap();
        assert_eq!(fs.read_all("/data/a").unwrap(), b"");
        fs.write_at("/data/a", 0, b"new").unwrap();
        assert_eq!(fs.read_all("/data/a").unwrap(), b"new");
    }

    #[test]
    fn rmdir_lower_dir_and_opaque_recreate() {
        let mut fs = union();
        assert_eq!(fs.rmdir("/data"), Err(FsError::NotEmpty));
        fs.unlink("/data/sub/b").unwrap();
        fs.rmdir("/data/sub").unwrap();
        assert!(!fs.exists("/data/sub"));
        // Recreate: must be empty, not leak lower contents.
        fs.mkdir("/data/sub").unwrap();
        assert!(fs.readdir("/data/sub").unwrap().is_empty());
        assert!(!fs.exists("/data/sub/b"));
    }

    #[test]
    fn merged_readdir_shadows_by_name() {
        let mut fs = union();
        fs.write_all("/data/a", b"upper now").unwrap();
        fs.write_all("/data/c", b"new upper").unwrap();
        let entries = fs.readdir("/data").unwrap();
        let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["a", "c", "sub"]);
        assert_eq!(fs.read_all("/data/a").unwrap(), b"upper now");
    }

    #[test]
    fn upper_file_shadows_lower_dir_path() {
        let mut fs = union();
        fs.unlink("/data/sub/b").unwrap();
        fs.rmdir("/data/sub").unwrap();
        fs.create("/data/sub").unwrap();
        assert_eq!(fs.stat("/data/sub").unwrap().ftype, FileType::Regular);
        assert_eq!(fs.stat("/data/sub/b"), Err(FsError::NotADirectory));
    }

    #[test]
    fn rename_lower_file() {
        let mut fs = union();
        fs.rename("/data/a", "/data/renamed").unwrap();
        assert!(!fs.exists("/data/a"));
        assert_eq!(fs.read_all("/data/renamed").unwrap(), b"AAA");
        assert!(fs.lower().exists("/data/a"), "lower untouched");
    }

    #[test]
    fn rename_directory_recursively() {
        let mut fs = union();
        fs.write_all("/data/sub/c", b"CCC").unwrap();
        fs.rename("/data", "/moved").unwrap();
        assert!(!fs.exists("/data"));
        assert_eq!(fs.read_all("/moved/a").unwrap(), b"AAA");
        assert_eq!(fs.read_all("/moved/sub/b").unwrap(), b"BBB");
        assert_eq!(fs.read_all("/moved/sub/c").unwrap(), b"CCC");
    }

    #[test]
    fn handle_on_lower_file_copies_up_on_write() {
        let mut fs = union();
        let h = fs.open("/data/a").unwrap();
        assert_eq!(fs.read_handle(h, 0, 3).unwrap(), b"AAA");
        fs.write_handle(h, 0, b"Z").unwrap();
        assert_eq!(fs.read_handle(h, 0, 3).unwrap(), b"ZAA");
        assert_eq!(fs.read_all("/data/a").unwrap(), b"ZAA");
        assert_eq!(fs.lower().read_all("/data/a").unwrap(), b"AAA");
        fs.close(h).unwrap();
    }

    #[test]
    fn handle_detaches_when_unlinked_before_write() {
        let mut fs = union();
        let h = fs.open("/data/a").unwrap();
        fs.unlink("/data/a").unwrap();
        fs.write_handle(h, 3, b"!").unwrap();
        assert_eq!(fs.read_handle(h, 0, 4).unwrap(), b"AAA!");
        assert!(!fs.exists("/data/a"));
        // Relink the orphan, as the checkpoint engine would.
        fs.mkdir("/saved").unwrap();
        fs.link_handle(h, "/saved/orphan").unwrap();
        assert_eq!(fs.read_all("/saved/orphan").unwrap(), b"AAA!");
        fs.close(h).unwrap();
    }

    #[test]
    fn whiteout_names_are_rejected_from_callers() {
        let mut fs = union();
        assert_eq!(fs.create("/data/.wh.x"), Err(FsError::InvalidPath));
        assert_eq!(fs.stat("/data/.wh.a"), Err(FsError::InvalidPath));
    }

    #[test]
    fn deep_write_creates_upper_dir_chain() {
        let mut fs = union();
        fs.write_at("/data/sub/b", 0, b"X").unwrap();
        assert_eq!(fs.read_all("/data/sub/b").unwrap(), b"XBB");
        assert_eq!(fs.lower().read_all("/data/sub/b").unwrap(), b"BBB");
    }

    #[test]
    fn branching_two_unions_from_one_lower() {
        // Two revived sessions branch from the same snapshot and diverge.
        let base = lower();
        let mut s1 = UnionFs::new(base.clone(), MemFs::new());
        let mut s2 = UnionFs::new(base, MemFs::new());
        s1.write_all("/data/a", b"session-1").unwrap();
        s2.unlink("/data/a").unwrap();
        assert_eq!(s1.read_all("/data/a").unwrap(), b"session-1");
        assert!(!s2.exists("/data/a"));
    }

    /// Offsets come from processes (`seek`) and from stored images:
    /// the far end of the offset space reads as empty and refuses
    /// writes, on every layer and through every kind of handle.
    #[test]
    fn offsets_at_the_end_of_the_range_neither_panic_nor_wrap() {
        use crate::lsfs::Lsfs;
        let mut base = Lsfs::new();
        base.write_all("/f", b"0123456789").unwrap();
        base.write_all("/g", b"lower only").unwrap();
        base.snapshot_point(1).unwrap();
        let mut view = base.snapshot(1).unwrap();
        let mut union = UnionFs::new(base.snapshot(1).unwrap(), Lsfs::new());
        union.write_at("/f", 0, b"U").unwrap(); // /f now lives in the upper Lsfs

        let layers: [&mut dyn Filesystem; 3] = [&mut base, &mut view, &mut union];
        for fs in layers {
            for path in ["/f", "/g"] {
                assert_eq!(fs.read_at(path, u64::MAX, 8).unwrap(), b"");
                assert_eq!(fs.read_at(path, u64::MAX - 3, usize::MAX).unwrap(), b"");
                assert_eq!(fs.read_at(path, 7, usize::MAX).unwrap().len(), 3);
                let h = fs.open(path).unwrap();
                assert_eq!(fs.read_handle(h, u64::MAX, 8).unwrap(), b"");
                assert_eq!(fs.read_handle(h, 8, usize::MAX).unwrap().len(), 2);
                let refused = fs.write_handle(h, u64::MAX, b"xy").unwrap_err();
                assert!(matches!(refused, FsError::FileTooLarge | FsError::ReadOnly));
                assert_eq!(
                    fs.handle_size(h).unwrap(),
                    10,
                    "a refused write changes nothing"
                );
                fs.close(h).unwrap();
                let refused = fs.write_at(path, u64::MAX - 1, b"xyz").unwrap_err();
                assert!(matches!(refused, FsError::FileTooLarge | FsError::ReadOnly));
                assert_eq!(fs.stat(path).unwrap().size, 10);
            }
        }
        assert_eq!(
            base.write_at("/f", u64::MAX, b"x"),
            Err(FsError::FileTooLarge)
        );
        assert_eq!(
            union.write_at("/g", u64::MAX, b"x"),
            Err(FsError::FileTooLarge)
        );

        // A handle whose path was replaced is served from a private copy.
        let mut union = UnionFs::new(lower(), MemFs::new());
        let h = union.open("/data/a").unwrap();
        union.unlink("/data/a").unwrap();
        assert_eq!(
            union.write_handle(h, u64::MAX, b"x"),
            Err(FsError::FileTooLarge)
        );
        assert_eq!(union.read_handle(h, u64::MAX, usize::MAX).unwrap(), b"");
        assert_eq!(union.read_handle(h, 1, usize::MAX).unwrap(), b"AA");
    }
}
