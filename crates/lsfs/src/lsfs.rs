//! The log-structured, snapshotting file system.
//!
//! `Lsfs` reproduces the role NILFS plays in the paper (§5.1.1): every
//! modifying transaction appends to the log — data blocks to the data
//! log, metadata operations to the journal — so nothing ever overwrites
//! the state an earlier snapshot depends on. A snapshot point is a root
//! pointer: metadata lives in a persistent inode table
//! ([`crate::table`]) that the snapshot and the live state share until
//! one of them writes, and all file *data* is shared through the
//! append-only disk. Snapshots are identified by the checkpoint counter
//! DejaView stores in both the checkpoint image and the file system log.
//!
//! Writes are buffered dirty-block-style and committed by [`Lsfs::sync`];
//! this is what makes the checkpoint engine's *pre-snapshot sync*
//! meaningful: syncing before quiescing the session moves most data-log
//! appends out of the downtime window (§5.1.2).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use dv_fault::{checksum, sites, FaultPlane, IoFault};
use dv_obs::Obs;
use dv_time::Timestamp;

use crate::disk::{shared_disk, Disk, SharedDisk};
use crate::error::{FsError, FsResult};
use crate::journal::{FsOp, NO_PREV};
use crate::path;
use crate::snapshot::SnapshotView;
use crate::table::InodeTable;
use crate::vfs::{DirEntry, FileType, Filesystem, Handle, Metadata};

/// File data block size in bytes.
pub const BLOCK_SIZE: usize = 4096;

/// Block pointer value marking a hole (unwritten, reads as zeros).
pub(crate) const HOLE: u64 = u64::MAX;

/// Inode number of the root directory.
pub(crate) const ROOT_INO: u64 = 1;

/// Magic prefix of every journal record on the log.
pub(crate) const JOURNAL_MAGIC: &[u8; 4] = b"DVJR";

/// Journal record header: `magic(4) | crc32(4) | prev(8) | len(4)`.
/// The CRC covers `prev_le || len_le || body`, so a torn or mangled
/// record — header or body — fails validation during recovery.
pub(crate) const JOURNAL_HEADER: usize = 20;

/// An inode in the log-structured file system.
///
/// Inodes are stored by value in the leaves of the inode table, so the
/// first write to one after a snapshot copies its leaf. Block lists and
/// directory maps are behind `Arc` so that copy shares them; the one
/// being modified is then copied whole by `Arc::make_mut` (O(file
/// blocks) or O(directory entries), once per snapshot interval).
#[derive(Clone, Debug)]
pub(crate) struct LsInode {
    pub ftype: FileType,
    pub size: u64,
    pub blocks: Arc<Vec<u64>>,
    pub children: Arc<BTreeMap<String, u64>>,
    pub nlink: u32,
    pub mtime: Timestamp,
}

impl LsInode {
    fn file() -> Self {
        LsInode {
            ftype: FileType::Regular,
            size: 0,
            blocks: Arc::new(Vec::new()),
            children: Arc::new(BTreeMap::new()),
            nlink: 1,
            mtime: Timestamp::ZERO,
        }
    }

    fn dir() -> Self {
        LsInode {
            ftype: FileType::Directory,
            ..LsInode::file()
        }
    }

    /// Block `idx` as committed to the log; a hole reads as zeros.
    pub(crate) fn block(&self, disk: &SharedDisk, idx: u64) -> Vec<u8> {
        match self.blocks.get(idx as usize) {
            Some(&off) if off != HOLE => disk.read().read(off, BLOCK_SIZE),
            _ => vec![0; BLOCK_SIZE],
        }
    }
}

/// Reads `len` bytes at `offset` of a `size`-byte file out of the
/// blocks `load` fetches. The range is clipped to the file — offsets
/// come from processes and stored images, so one that ends past the
/// file, or past `u64::MAX`, reads what is there.
pub(crate) fn read_blocks(
    size: u64,
    offset: u64,
    len: usize,
    load: impl Fn(u64) -> Vec<u8>,
) -> Vec<u8> {
    let start = offset.min(size);
    let end = offset.saturating_add(len as u64).min(size);
    if start >= end {
        return Vec::new();
    }
    let block_size = BLOCK_SIZE as u64;
    let mut out = Vec::with_capacity((end - start) as usize);
    for idx in start / block_size..=(end - 1) / block_size {
        let block_start = idx * block_size;
        let from = start.max(block_start) - block_start;
        let to = end.min(block_start + block_size) - block_start;
        out.extend_from_slice(&load(idx)[from as usize..to as usize]);
    }
    out
}

/// The complete metadata state of the file system at one instant.
///
/// Cloning it copies a root pointer and a counter; the clone and the
/// original share every table node until one of them writes.
#[derive(Clone, Debug)]
pub(crate) struct FsState {
    pub inodes: InodeTable,
    pub next_ino: u64,
}

impl FsState {
    fn new() -> Self {
        let mut inodes = InodeTable::default();
        inodes.insert(ROOT_INO, LsInode::dir());
        FsState {
            inodes,
            next_ino: ROOT_INO + 1,
        }
    }

    fn descend<'a>(&self, comps: impl IntoIterator<Item = &'a str>) -> FsResult<u64> {
        let mut cur = ROOT_INO;
        for comp in comps {
            let node = &self.inodes[cur];
            if node.ftype != FileType::Directory {
                return Err(FsError::NotADirectory);
            }
            cur = *node.children.get(comp).ok_or(FsError::NotFound)?;
        }
        Ok(cur)
    }

    pub(crate) fn resolve(&self, p: &str) -> FsResult<u64> {
        self.descend(path::components(p)?)
    }

    pub(crate) fn resolve_parent<'a>(&self, p: &'a str) -> FsResult<(u64, &'a str)> {
        let (dirs, name) = path::split_parent(p)?;
        let cur = self.descend(dirs)?;
        if self.inodes[cur].ftype != FileType::Directory {
            return Err(FsError::NotADirectory);
        }
        Ok((cur, name))
    }

    /// Metadata as committed; a directory's size is 0.
    pub(crate) fn stat(&self, p: &str) -> FsResult<Metadata> {
        let ino = self.resolve(p)?;
        let node = &self.inodes[ino];
        Ok(Metadata {
            ino,
            ftype: node.ftype,
            size: node.size,
            nlink: node.nlink,
            mtime: node.mtime,
        })
    }

    pub(crate) fn readdir(&self, p: &str) -> FsResult<Vec<DirEntry>> {
        let node = &self.inodes[self.resolve(p)?];
        if node.ftype != FileType::Directory {
            return Err(FsError::NotADirectory);
        }
        Ok(node
            .children
            .iter()
            .map(|(name, child)| DirEntry {
                name: name.clone(),
                ftype: self.inodes[*child].ftype,
            })
            .collect())
    }

    fn add_child(&mut self, parent: u64, name: &str, ino: u64) {
        let dir = self.inodes.get_mut(parent).expect("parent exists");
        Arc::make_mut(&mut dir.children).insert(name.to_string(), ino);
    }

    fn remove_child(&mut self, parent: u64, name: &str) -> Option<u64> {
        let dir = self.inodes.get_mut(parent).expect("parent exists");
        Arc::make_mut(&mut dir.children).remove(name)
    }

    /// Applies a journaled operation. Preconditions were validated when
    /// the operation was logged, so application is infallible; this same
    /// function drives both the live mutation path and log recovery.
    pub(crate) fn apply(&mut self, op: &FsOp) {
        match op {
            FsOp::Create { parent, name, ino } => {
                self.inodes.insert(*ino, LsInode::file());
                self.add_child(*parent, name, *ino);
                self.next_ino = self.next_ino.max(ino + 1);
            }
            FsOp::Mkdir { parent, name, ino } => {
                self.inodes.insert(*ino, LsInode::dir());
                self.add_child(*parent, name, *ino);
                self.next_ino = self.next_ino.max(ino + 1);
            }
            FsOp::Write { ino, size, extents } => {
                let node = self.inodes.get_mut(*ino).expect("written inode exists");
                node.size = *size;
                let nblocks = (*size as usize).div_ceil(BLOCK_SIZE);
                let blocks = Arc::make_mut(&mut node.blocks);
                blocks.resize(nblocks, HOLE);
                for (idx, off) in extents {
                    blocks[*idx as usize] = *off;
                }
            }
            FsOp::Unlink { parent, name } => {
                let ino = self.remove_child(*parent, name).expect("entry exists");
                self.inodes.get_mut(ino).expect("target exists").nlink -= 1;
            }
            FsOp::Rmdir { parent, name } => {
                let ino = self.remove_child(*parent, name).expect("entry exists");
                self.inodes.remove(ino);
            }
            FsOp::Rename {
                from_parent,
                from_name,
                to_parent,
                to_name,
            } => {
                if let Some(existing) = self.remove_child(*to_parent, to_name) {
                    let node = self.inodes.get_mut(existing).expect("target exists");
                    match node.ftype {
                        FileType::Regular => {
                            node.nlink -= 1;
                            if node.nlink == 0 {
                                // Pins are runtime state; during replay
                                // nothing is pinned. The live path keeps
                                // pinned orphans by re-inserting below.
                                self.inodes.remove(existing);
                            }
                        }
                        FileType::Directory => {
                            self.inodes.remove(existing);
                        }
                    }
                }
                let ino = self
                    .remove_child(*from_parent, from_name)
                    .expect("source exists");
                self.add_child(*to_parent, to_name, ino);
            }
            FsOp::Link { ino, parent, name } => {
                self.add_child(*parent, name, *ino);
                self.inodes
                    .get_mut(*ino)
                    .expect("linked inode exists")
                    .nlink += 1;
            }
            FsOp::Release { ino } => {
                self.inodes.remove(*ino);
            }
            FsOp::SnapshotMark { .. } => {}
        }
    }
}

/// Storage accounting for the file system log (Figure 4's "FS" series).
#[derive(Clone, Copy, Debug, Default)]
pub struct LsfsStats {
    /// Bytes of file data appended to the log.
    pub data_bytes: u64,
    /// Bytes of journal records appended to the log.
    pub journal_bytes: u64,
    /// Number of snapshot points taken.
    pub snapshots: u64,
    /// Number of sync transactions committed.
    pub syncs: u64,
}

/// The live, writable log-structured file system.
///
/// # Examples
///
/// ```
/// use dv_lsfs::{Filesystem, Lsfs};
///
/// let mut fs = Lsfs::new();
/// fs.write_all("/doc.txt", b"version 1").unwrap();
/// fs.snapshot_point(1).unwrap();
/// fs.write_all("/doc.txt", b"version 2 is longer").unwrap();
///
/// // The snapshot still sees version 1.
/// let snap = fs.snapshot(1).unwrap();
/// assert_eq!(snap.read_all("/doc.txt").unwrap(), b"version 1");
/// assert_eq!(fs.read_all("/doc.txt").unwrap(), b"version 2 is longer");
/// ```
pub struct Lsfs {
    disk: SharedDisk,
    pub(crate) state: FsState,
    dirty: BTreeMap<(u64, u64), Vec<u8>>,
    dirty_sizes: HashMap<u64, u64>,
    handles: HashMap<u64, u64>,
    next_handle: u64,
    pins: HashMap<u64, u32>,
    pub(crate) snapshots: BTreeMap<u64, FsState>,
    pub(crate) last_journal: u64,
    stats: LsfsStats,
    plane: FaultPlane,
    obs: Obs,
}

impl Lsfs {
    /// Creates an empty file system on a fresh disk.
    pub fn new() -> Self {
        Lsfs::on_disk(shared_disk())
    }

    /// Creates an empty file system on an existing shared disk.
    pub fn on_disk(disk: SharedDisk) -> Self {
        Lsfs {
            disk,
            state: FsState::new(),
            dirty: BTreeMap::new(),
            dirty_sizes: HashMap::new(),
            handles: HashMap::new(),
            next_handle: 1,
            pins: HashMap::new(),
            snapshots: BTreeMap::new(),
            last_journal: NO_PREV,
            stats: LsfsStats::default(),
            plane: FaultPlane::disabled(),
            obs: Obs::disabled(),
        }
    }

    /// Installs the fault-injection plane. The journal commit path
    /// checks site `lsfs.journal.commit`; the plane is also installed
    /// into the underlying disk for `lsfs.disk.append`.
    pub fn set_fault_plane(&mut self, plane: FaultPlane) {
        plane.set_obs(self.obs.clone());
        self.disk.write().set_fault_plane(plane.clone());
        self.plane = plane;
    }

    /// Installs the observability handle: journal, data, and snapshot
    /// commits are mirrored into the `lsfs.*` metrics, and injected
    /// faults on this filesystem's plane become traced events.
    pub fn set_obs(&mut self, obs: Obs) {
        self.plane.set_obs(obs.clone());
        self.obs = obs;
    }

    /// Recovers a file system by replaying the journal chain whose most
    /// recent record is at `head` (the pointer a superblock checkpoint
    /// region would hold in a real LFS). Snapshot points are
    /// re-materialized during replay.
    ///
    /// Every record on the chain is validated — magic, CRC, bounds, and
    /// a strictly-decreasing back-pointer — so a torn or corrupted
    /// record anywhere on the chain yields [`FsError::Io`] instead of
    /// replaying garbage. Callers fall back to [`Lsfs::recover_scan`].
    pub fn recover(disk: SharedDisk, head: u64) -> FsResult<Self> {
        let mut ops = Vec::new();
        {
            let d = disk.read();
            let mut offset = head;
            while offset != NO_PREV {
                let (prev, body) = read_journal_record(&d, offset).ok_or(FsError::Io)?;
                if prev != NO_PREV && prev >= offset {
                    return Err(FsError::Io);
                }
                ops.push(FsOp::decode(&body)?);
                offset = prev;
            }
        }
        ops.reverse();
        let mut fs = Lsfs::on_disk(disk);
        for op in &ops {
            if let FsOp::SnapshotMark { counter } = op {
                fs.retain_snapshot(*counter);
            } else {
                fs.state.apply(op);
            }
        }
        fs.last_journal = head;
        Ok(fs)
    }

    /// Power-cut recovery without a trusted head pointer: scans the raw
    /// log for journal-record candidates and recovers from the newest
    /// one whose whole chain validates and whose recovered tree passes
    /// [`Lsfs::check`](crate::gc). Because each record back-points to
    /// its predecessor, the result is exactly the state after the last
    /// intact committed transaction — a prefix of the pre-crash history.
    /// Falls back to an empty file system on the same disk when no
    /// intact record exists.
    pub fn recover_scan(disk: SharedDisk) -> Self {
        let candidates: Vec<u64> = {
            let d = disk.read();
            let len = d.bytes_written() as usize;
            let bytes = if len == 0 { Vec::new() } else { d.read(0, len) };
            (0..len.saturating_sub(JOURNAL_HEADER - 1))
                .filter(|&i| &bytes[i..i + 4] == JOURNAL_MAGIC)
                .map(|i| i as u64)
                .collect()
        };
        for &head in candidates.iter().rev() {
            if let Ok(fs) = Lsfs::recover(disk.clone(), head) {
                if fs.check().is_ok() {
                    return fs;
                }
            }
        }
        Lsfs::on_disk(disk)
    }

    /// Returns the shared disk.
    pub fn disk(&self) -> SharedDisk {
        self.disk.clone()
    }

    /// Serializes the whole file system — syncs buffered data, then
    /// captures the journal head and the raw log — for persistence
    /// across restarts. Reload with [`Lsfs::load`].
    pub fn save(&mut self) -> FsResult<Vec<u8>> {
        self.sync()?;
        let mut out = Vec::new();
        out.extend_from_slice(b"DVLSF002");
        out.extend_from_slice(&self.last_journal.to_le_bytes());
        out.extend_from_slice(&self.disk.read().to_bytes());
        Ok(out)
    }

    /// Reconstructs a file system from [`Lsfs::save`] output by
    /// replaying the journal; retained snapshots are re-materialized at
    /// their marks.
    ///
    /// The stored head pointer is advisory: if the chain it names fails
    /// validation or fsck — a torn tail after a power cut, a mangled
    /// record — recovery falls back to [`Lsfs::recover_scan`] and lands
    /// on the newest intact prefix of the journal.
    pub fn load(data: &[u8]) -> FsResult<Lsfs> {
        if data.len() < 16 || &data[..8] != b"DVLSF002" {
            return Err(FsError::InvalidPath);
        }
        let head = u64::from_le_bytes(data[8..16].try_into().expect("8 bytes"));
        let disk = crate::disk::Disk::from_bytes(&data[16..]).ok_or(FsError::InvalidPath)?;
        let disk = std::sync::Arc::new(parking_lot::RwLock::new(disk));
        if head != NO_PREV {
            if let Ok(fs) = Lsfs::recover(disk.clone(), head) {
                if fs.check().is_ok() {
                    return Ok(fs);
                }
            }
        }
        Ok(Lsfs::recover_scan(disk))
    }

    /// Returns storage accounting counters.
    pub fn stats(&self) -> LsfsStats {
        self.stats
    }

    /// Returns the offset of the most recent journal record, for
    /// [`Lsfs::recover`]. [`crate::journal::NO_PREV`] if none.
    pub fn journal_head(&self) -> u64 {
        self.last_journal
    }

    /// Returns the read-only view of the snapshot tagged `counter`.
    pub fn snapshot(&self, counter: u64) -> FsResult<SnapshotView> {
        let state = self.snapshots.get(&counter).ok_or(FsError::NotFound)?;
        Ok(SnapshotView::new(state.clone(), self.disk.clone()))
    }

    /// Retains the current state as snapshot `counter`. A counter that
    /// already names a snapshot is re-pointed, not counted again.
    fn retain_snapshot(&mut self, counter: u64) {
        if self.snapshots.insert(counter, self.state.clone()).is_none() {
            self.stats.snapshots += 1;
            self.obs.gauge_add(dv_obs::names::LSFS_SNAPSHOTS, 1);
        }
    }

    /// Releases the snapshot point `counter`; its exclusively-held
    /// blocks become reclaimable. Returns whether it existed.
    pub fn drop_snapshot(&mut self, counter: u64) -> bool {
        let removed = self.snapshots.remove(&counter).is_some();
        if removed {
            self.stats.snapshots -= 1;
            self.obs.gauge_sub(dv_obs::names::LSFS_SNAPSHOTS, 1);
        }
        removed
    }

    /// Returns the counters of all snapshot points, ascending.
    pub fn snapshot_counters(&self) -> Vec<u64> {
        self.snapshots.keys().copied().collect()
    }

    /// The live state, then every retained snapshot.
    pub(crate) fn states(&self) -> impl Iterator<Item = &FsState> {
        std::iter::once(&self.state).chain(self.snapshots.values())
    }

    pub(crate) fn states_mut(&mut self) -> impl Iterator<Item = &mut FsState> {
        std::iter::once(&mut self.state).chain(self.snapshots.values_mut())
    }

    /// Appends one framed journal record:
    /// `DVJR | crc32 | prev | len | body`. On any failure — injected at
    /// site `lsfs.journal.commit` or surfaced by the disk — the head
    /// pointer is left unchanged, so a torn record is invisible to the
    /// live chain and rejected by CRC during recovery.
    pub(crate) fn log_op(&mut self, op: &FsOp) -> FsResult<()> {
        // Most records (a create, a one-extent write) fit without growing.
        let mut record = Vec::with_capacity(128);
        record.resize(JOURNAL_HEADER, 0);
        op.encode_into(&mut record);
        let body_len = (record.len() - JOURNAL_HEADER) as u32;
        record[..4].copy_from_slice(JOURNAL_MAGIC);
        record[8..16].copy_from_slice(&self.last_journal.to_le_bytes());
        record[16..20].copy_from_slice(&body_len.to_le_bytes());
        let crc = checksum::crc32(&record[8..]);
        record[4..8].copy_from_slice(&crc.to_le_bytes());
        match self.plane.check(sites::LSFS_JOURNAL_COMMIT) {
            None | Some(IoFault::LatencySpike) => {}
            Some(IoFault::Enospc) => return Err(FsError::NoSpace),
            Some(IoFault::TornWrite) | Some(IoFault::ShortRead) => {
                let keep = self.plane.short_len(record.len());
                self.disk.write().append_raw(&record[..keep]);
                return Err(FsError::Io);
            }
            Some(IoFault::Corrupt) => {
                // Silent corruption: the record lands full-length with a
                // mangled byte and the commit reports success; the CRC
                // catches it at recovery time.
                self.plane.mangle(&mut record);
            }
        }
        let offset = self.disk.write().append(&record)?;
        self.last_journal = offset;
        self.stats.journal_bytes += record.len() as u64;
        self.obs
            .add(dv_obs::names::LSFS_JOURNAL_BYTES, record.len() as u64);
        self.obs.incr(dv_obs::names::LSFS_JOURNAL_COMMITS);
        Ok(())
    }

    /// Validates, journals and applies a metadata transaction.
    ///
    /// Write-ahead ordering: the record must be durable before the
    /// in-memory state changes, so a failed append leaves the live tree
    /// exactly as recovery would rebuild it.
    fn commit(&mut self, op: FsOp) -> FsResult<()> {
        self.log_op(&op)?;
        self.state.apply(&op);
        Ok(())
    }

    fn effective_size(&self, ino: u64) -> u64 {
        self.dirty_sizes
            .get(&ino)
            .copied()
            .unwrap_or_else(|| self.state.inodes[ino].size)
    }

    fn load_block(&self, ino: u64, idx: u64) -> Vec<u8> {
        if let Some(buf) = self.dirty.get(&(ino, idx)) {
            return buf.clone();
        }
        self.state.inodes[ino].block(&self.disk, idx)
    }

    fn buffer_write(&mut self, ino: u64, offset: u64, data: &[u8]) -> FsResult<()> {
        if data.is_empty() {
            return Ok(());
        }
        let end = offset
            .checked_add(data.len() as u64)
            .ok_or(FsError::FileTooLarge)?;
        let first = offset / BLOCK_SIZE as u64;
        let last = (end - 1) / BLOCK_SIZE as u64;
        for idx in first..=last {
            let block_start = idx * BLOCK_SIZE as u64;
            let mut block = self.load_block(ino, idx);
            let from = offset.max(block_start);
            let to = end.min(block_start + BLOCK_SIZE as u64);
            let src = &data[(from - offset) as usize..(to - offset) as usize];
            block[(from - block_start) as usize..(to - block_start) as usize].copy_from_slice(src);
            self.dirty.insert((ino, idx), block);
        }
        if end > self.effective_size(ino) {
            self.dirty_sizes.insert(ino, end);
        }
        Ok(())
    }

    fn read_range(&self, ino: u64, offset: u64, len: usize) -> Vec<u8> {
        let size = self.effective_size(ino);
        read_blocks(size, offset, len, |idx| self.load_block(ino, idx))
    }

    fn do_truncate(&mut self, ino: u64, size: u64) {
        let old = self.effective_size(ino);
        if size < old {
            // Drop buffered blocks beyond the new end and zero the tail
            // of the boundary block so a later extension reads zeros.
            let nblocks = (size as usize).div_ceil(BLOCK_SIZE) as u64;
            let stale: Vec<(u64, u64)> = self
                .dirty
                .range((ino, nblocks)..(ino + 1, 0))
                .map(|(k, _)| *k)
                .collect();
            for key in stale {
                self.dirty.remove(&key);
            }
            if !size.is_multiple_of(BLOCK_SIZE as u64) {
                let idx = size / BLOCK_SIZE as u64;
                let mut block = self.load_block(ino, idx);
                block[(size % BLOCK_SIZE as u64) as usize..].fill(0);
                self.dirty.insert((ino, idx), block);
            }
        }
        self.dirty_sizes.insert(ino, size);
    }

    fn pinned(&self, ino: u64) -> bool {
        self.pins.get(&ino).copied().unwrap_or(0) > 0
    }

    fn release_if_orphan(&mut self, ino: u64) -> FsResult<()> {
        if let Some(node) = self.state.inodes.get(ino) {
            if node.ftype == FileType::Regular && node.nlink == 0 && !self.pinned(ino) {
                // Orphan data cannot be reached again; discard its
                // buffered writes and journal the release.
                let stale: Vec<(u64, u64)> = self
                    .dirty
                    .range((ino, 0)..(ino + 1, 0))
                    .map(|(k, _)| *k)
                    .collect();
                for key in stale {
                    self.dirty.remove(&key);
                }
                self.dirty_sizes.remove(&ino);
                self.commit(FsOp::Release { ino })?;
            }
        }
        Ok(())
    }

    fn handle_ino(&self, h: Handle) -> FsResult<u64> {
        self.handles.get(&h.0).copied().ok_or(FsError::BadHandle)
    }
}

/// Reads and validates the journal record at `offset`, returning its
/// back-pointer and body. `None` when the bytes there are not an intact
/// record: bad magic, out-of-bounds length, or CRC mismatch.
fn read_journal_record(d: &Disk, offset: u64) -> Option<(u64, Vec<u8>)> {
    let disk_len = d.bytes_written();
    if offset.checked_add(JOURNAL_HEADER as u64)? > disk_len {
        return None;
    }
    let header = d.read(offset, JOURNAL_HEADER);
    if &header[..4] != JOURNAL_MAGIC {
        return None;
    }
    let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    let len = u32::from_le_bytes(header[16..20].try_into().expect("4 bytes")) as u64;
    if offset + JOURNAL_HEADER as u64 + len > disk_len {
        return None;
    }
    // The CRC covers prev || len || body: bytes 8.. of the record.
    let payload = d.read(offset + 8, 12 + len as usize);
    if checksum::crc32(&payload) != crc {
        return None;
    }
    let prev = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
    Some((prev, payload[12..].to_vec()))
}

impl Default for Lsfs {
    fn default() -> Self {
        Lsfs::new()
    }
}

impl Filesystem for Lsfs {
    fn create(&mut self, p: &str) -> FsResult<()> {
        let (parent, name) = self.state.resolve_parent(p)?;
        if self.state.inodes[parent].children.contains_key(name) {
            return Err(FsError::AlreadyExists);
        }
        let ino = self.state.next_ino;
        self.commit(FsOp::Create {
            parent,
            name: name.to_string(),
            ino,
        })
    }

    fn mkdir(&mut self, p: &str) -> FsResult<()> {
        let (parent, name) = self.state.resolve_parent(p)?;
        if self.state.inodes[parent].children.contains_key(name) {
            return Err(FsError::AlreadyExists);
        }
        let ino = self.state.next_ino;
        self.commit(FsOp::Mkdir {
            parent,
            name: name.to_string(),
            ino,
        })
    }

    fn write_at(&mut self, p: &str, offset: u64, data: &[u8]) -> FsResult<()> {
        let ino = self.state.resolve(p)?;
        if self.state.inodes[ino].ftype != FileType::Regular {
            return Err(FsError::IsADirectory);
        }
        self.buffer_write(ino, offset, data)
    }

    fn truncate(&mut self, p: &str, size: u64) -> FsResult<()> {
        let ino = self.state.resolve(p)?;
        if self.state.inodes[ino].ftype != FileType::Regular {
            return Err(FsError::IsADirectory);
        }
        self.do_truncate(ino, size);
        Ok(())
    }

    fn read_at(&self, p: &str, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        let ino = self.state.resolve(p)?;
        if self.state.inodes[ino].ftype != FileType::Regular {
            return Err(FsError::IsADirectory);
        }
        Ok(self.read_range(ino, offset, len))
    }

    fn unlink(&mut self, p: &str) -> FsResult<()> {
        let (parent, name) = self.state.resolve_parent(p)?;
        let ino = *self.state.inodes[parent]
            .children
            .get(name)
            .ok_or(FsError::NotFound)?;
        if self.state.inodes[ino].ftype != FileType::Regular {
            return Err(FsError::IsADirectory);
        }
        self.commit(FsOp::Unlink {
            parent,
            name: name.to_string(),
        })?;
        self.release_if_orphan(ino)
    }

    fn rmdir(&mut self, p: &str) -> FsResult<()> {
        let (parent, name) = self.state.resolve_parent(p)?;
        let ino = *self.state.inodes[parent]
            .children
            .get(name)
            .ok_or(FsError::NotFound)?;
        let node = &self.state.inodes[ino];
        if node.ftype != FileType::Directory {
            return Err(FsError::NotADirectory);
        }
        if !node.children.is_empty() {
            return Err(FsError::NotEmpty);
        }
        self.commit(FsOp::Rmdir {
            parent,
            name: name.to_string(),
        })
    }

    fn rename(&mut self, from: &str, to: &str) -> FsResult<()> {
        let src_ino = self.state.resolve(from)?;
        let src_is_dir = self.state.inodes[src_ino].ftype == FileType::Directory;
        if src_is_dir && path::starts_with(to, from) {
            return Err(FsError::InvalidPath);
        }
        let (to_parent, to_name) = self.state.resolve_parent(to)?;
        let mut pinned_survivor = None;
        if let Some(&existing) = self.state.inodes[to_parent].children.get(to_name) {
            if existing == src_ino {
                return Ok(());
            }
            let target = &self.state.inodes[existing];
            match target.ftype {
                FileType::Regular => {
                    if src_is_dir {
                        return Err(FsError::AlreadyExists);
                    }
                    if target.nlink == 1 && self.pinned(existing) {
                        pinned_survivor = Some(existing);
                    }
                }
                FileType::Directory => {
                    if !src_is_dir {
                        return Err(FsError::IsADirectory);
                    }
                    if !target.children.is_empty() {
                        return Err(FsError::NotEmpty);
                    }
                }
            }
        }
        let (from_parent, from_name) = self.state.resolve_parent(from)?;
        // Apply drops an unpinned replaced file; re-insert a pinned one
        // as an orphan so open handles stay valid.
        let survivor = pinned_survivor.map(|ino| (ino, self.state.inodes[ino].clone()));
        self.commit(FsOp::Rename {
            from_parent,
            from_name: from_name.to_string(),
            to_parent,
            to_name: to_name.to_string(),
        })?;
        if let Some((ino, mut node)) = survivor {
            node.nlink = 0;
            self.state.inodes.insert(ino, node);
        }
        Ok(())
    }

    fn readdir(&self, p: &str) -> FsResult<Vec<DirEntry>> {
        self.state.readdir(p)
    }

    fn stat(&self, p: &str) -> FsResult<Metadata> {
        let mut meta = self.state.stat(p)?;
        if meta.ftype == FileType::Regular {
            meta.size = self.effective_size(meta.ino);
        }
        Ok(meta)
    }

    fn open(&mut self, p: &str) -> FsResult<Handle> {
        let ino = self.state.resolve(p)?;
        if self.state.inodes[ino].ftype != FileType::Regular {
            return Err(FsError::IsADirectory);
        }
        let h = self.next_handle;
        self.next_handle += 1;
        self.handles.insert(h, ino);
        *self.pins.entry(ino).or_insert(0) += 1;
        Ok(Handle(h))
    }

    fn read_handle(&self, h: Handle, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        let ino = self.handle_ino(h)?;
        Ok(self.read_range(ino, offset, len))
    }

    fn write_handle(&mut self, h: Handle, offset: u64, data: &[u8]) -> FsResult<()> {
        let ino = self.handle_ino(h)?;
        self.buffer_write(ino, offset, data)
    }

    fn handle_size(&self, h: Handle) -> FsResult<u64> {
        let ino = self.handle_ino(h)?;
        Ok(self.effective_size(ino))
    }

    fn link_handle(&mut self, h: Handle, p: &str) -> FsResult<()> {
        let ino = self.handle_ino(h)?;
        let (parent, name) = self.state.resolve_parent(p)?;
        if self.state.inodes[parent].children.contains_key(name) {
            return Err(FsError::AlreadyExists);
        }
        self.commit(FsOp::Link {
            ino,
            parent,
            name: name.to_string(),
        })
    }

    fn close(&mut self, h: Handle) -> FsResult<()> {
        let ino = self.handles.remove(&h.0).ok_or(FsError::BadHandle)?;
        let count = self.pins.get_mut(&ino).expect("pin exists for open handle");
        *count -= 1;
        if *count == 0 {
            self.pins.remove(&ino);
        }
        self.release_if_orphan(ino)
    }

    /// Commits a snapshot point tagged with the checkpoint `counter`.
    ///
    /// Buffered data is synced first so the snapshot is self-consistent.
    fn snapshot_point(&mut self, counter: u64) -> FsResult<()> {
        self.sync()?;
        // Span opens after the sync (which times itself) so the two
        // histograms don't double-count the same work.
        let _span = self.obs.span("lsfs", dv_obs::names::LSFS_SNAPSHOT);
        self.log_op(&FsOp::SnapshotMark { counter })?;
        self.retain_snapshot(counter);
        Ok(())
    }

    fn sync(&mut self) -> FsResult<()> {
        if self.dirty.is_empty() && self.dirty_sizes.is_empty() {
            return Ok(());
        }
        let _span = self.obs.span("lsfs", dv_obs::names::LSFS_SYNC);
        let mut inos: Vec<u64> = self
            .dirty
            .keys()
            .map(|(ino, _)| *ino)
            .chain(self.dirty_sizes.keys().copied())
            .collect();
        inos.sort_unstable();
        inos.dedup();
        let dirty = std::mem::take(&mut self.dirty);
        let dirty_sizes = std::mem::take(&mut self.dirty_sizes);
        for (i, &ino) in inos.iter().enumerate() {
            let Some(node) = self.state.inodes.get(ino) else {
                continue; // Released while dirty; nothing to persist.
            };
            let size = dirty_sizes.get(&ino).copied().unwrap_or(node.size);
            let nblocks = (size as usize).div_ceil(BLOCK_SIZE) as u64;
            let mut extents = Vec::new();
            let mut failed = None;
            {
                let mut disk = self.disk.write();
                for ((_, idx), block) in dirty.range((ino, 0)..(ino + 1, 0)) {
                    if *idx >= nblocks {
                        continue;
                    }
                    match disk.append(block) {
                        Ok(off) => {
                            self.stats.data_bytes += block.len() as u64;
                            self.obs
                                .add(dv_obs::names::LSFS_DATA_BYTES, block.len() as u64);
                            extents.push((*idx, off));
                        }
                        Err(e) => {
                            failed = Some(e);
                            break;
                        }
                    }
                }
            }
            let result = match failed {
                Some(e) => Err(e),
                None => self.commit(FsOp::Write { ino, size, extents }),
            };
            if let Err(e) = result {
                // Re-buffer everything not yet committed — this inode
                // and all later ones — so the data survives in memory
                // and a retry can complete the sync.
                for &ino in &inos[i..] {
                    for (key, block) in dirty.range((ino, 0)..(ino + 1, 0)) {
                        self.dirty.insert(*key, block.clone());
                    }
                    if let Some(&size) = dirty_sizes.get(&ino) {
                        self.dirty_sizes.insert(ino, size);
                    }
                }
                return Err(e);
            }
        }
        self.stats.syncs += 1;
        self.obs.incr(dv_obs::names::LSFS_SYNCS);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The journal is an on-disk format: the checksum a record carries
    /// is pinned so the CRC implementation cannot drift with writer and
    /// reader still agreeing.
    #[test]
    fn journal_record_checksum_is_pinned() {
        let mut fs = Lsfs::new();
        fs.create("/pinned").unwrap();
        let disk = fs.disk();
        let disk = disk.read();
        let record = disk.read(
            fs.last_journal,
            (disk.bytes_written() - fs.last_journal) as usize,
        );
        assert_eq!(&record[..4], JOURNAL_MAGIC);
        assert_eq!(record[4..8], 0xD0D0_DDB5u32.to_le_bytes());
        assert!(read_journal_record(&disk, fs.last_journal).is_some());
    }

    #[test]
    fn write_read_round_trip_spanning_blocks() {
        let mut fs = Lsfs::new();
        fs.create("/f").unwrap();
        let data: Vec<u8> = (0..BLOCK_SIZE * 3 + 100).map(|i| (i % 251) as u8).collect();
        fs.write_at("/f", 0, &data).unwrap();
        assert_eq!(fs.read_all("/f").unwrap(), data);
        fs.sync().unwrap();
        assert_eq!(fs.read_all("/f").unwrap(), data, "same contents after sync");
    }

    #[test]
    fn unaligned_overwrite_after_sync() {
        let mut fs = Lsfs::new();
        fs.write_all("/f", &vec![7u8; 10_000]).unwrap();
        fs.sync().unwrap();
        fs.write_at("/f", 4090, b"HELLO").unwrap();
        let data = fs.read_all("/f").unwrap();
        assert_eq!(&data[4090..4095], b"HELLO");
        assert_eq!(data[4089], 7);
        assert_eq!(data[4095], 7);
        assert_eq!(data.len(), 10_000);
    }

    #[test]
    fn sparse_files_read_zeros() {
        let mut fs = Lsfs::new();
        fs.create("/f").unwrap();
        fs.write_at("/f", BLOCK_SIZE as u64 * 5, b"x").unwrap();
        fs.sync().unwrap();
        let data = fs.read_all("/f").unwrap();
        assert_eq!(data.len(), BLOCK_SIZE * 5 + 1);
        assert!(data[..BLOCK_SIZE * 5].iter().all(|&b| b == 0));
        assert_eq!(data[BLOCK_SIZE * 5], b'x');
    }

    #[test]
    fn truncate_shrink_zeroes_tail_on_regrow() {
        let mut fs = Lsfs::new();
        fs.write_all("/f", &[9u8; 100]).unwrap();
        fs.sync().unwrap();
        fs.truncate("/f", 50).unwrap();
        fs.truncate("/f", 100).unwrap();
        let data = fs.read_all("/f").unwrap();
        assert_eq!(&data[..50], &vec![9u8; 50][..]);
        assert_eq!(&data[50..], &vec![0u8; 50][..], "regrown tail is zeros");
    }

    #[test]
    fn snapshots_are_immutable_views() {
        let mut fs = Lsfs::new();
        fs.mkdir("/docs").unwrap();
        fs.write_all("/docs/a", b"old").unwrap();
        fs.snapshot_point(1).unwrap();
        fs.write_all("/docs/a", b"new content").unwrap();
        fs.unlink("/docs/a").unwrap();
        fs.write_all("/docs/b", b"later").unwrap();
        fs.sync().unwrap();

        let snap = fs.snapshot(1).unwrap();
        assert_eq!(snap.read_all("/docs/a").unwrap(), b"old");
        assert!(!snap.exists("/docs/b"));
        assert!(!fs.exists("/docs/a"));
    }

    #[test]
    fn multiple_snapshots_capture_history() {
        let mut fs = Lsfs::new();
        fs.create("/log").unwrap();
        for i in 1..=5u64 {
            fs.write_at("/log", (i - 1) * 4, format!("v{i:02} ").as_bytes())
                .unwrap();
            fs.snapshot_point(i).unwrap();
        }
        for i in 1..=5u64 {
            let snap = fs.snapshot(i).unwrap();
            assert_eq!(snap.stat("/log").unwrap().size, i * 4);
        }
        assert_eq!(fs.snapshot_counters(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn snapshot_of_unknown_counter_fails() {
        let fs = Lsfs::new();
        assert!(fs.snapshot(9).is_err());
    }

    #[test]
    fn handle_survives_unlink_and_relinks() {
        let mut fs = Lsfs::new();
        fs.mkdir("/.dejaview").unwrap();
        fs.write_all("/tmp_data", b"precious").unwrap();
        let h = fs.open("/tmp_data").unwrap();
        fs.unlink("/tmp_data").unwrap();
        assert_eq!(fs.read_handle(h, 0, 8).unwrap(), b"precious");
        fs.link_handle(h, "/.dejaview/relink0").unwrap();
        fs.close(h).unwrap();
        assert_eq!(fs.read_all("/.dejaview/relink0").unwrap(), b"precious");
    }

    #[test]
    fn orphan_released_on_close() {
        let mut fs = Lsfs::new();
        fs.write_all("/f", b"x").unwrap();
        let h = fs.open("/f").unwrap();
        fs.unlink("/f").unwrap();
        fs.write_handle(h, 1, b"y").unwrap();
        fs.close(h).unwrap();
        assert_eq!(fs.read_handle(h, 0, 2), Err(FsError::BadHandle));
        fs.sync().unwrap(); // Must not try to persist the released orphan.
    }

    #[test]
    fn rename_replaces_and_preserves_pinned_target() {
        let mut fs = Lsfs::new();
        fs.write_all("/a", b"AAA").unwrap();
        fs.write_all("/b", b"BBB").unwrap();
        let hb = fs.open("/b").unwrap();
        fs.rename("/a", "/b").unwrap();
        assert_eq!(fs.read_all("/b").unwrap(), b"AAA");
        // The replaced file's handle still reads its old contents.
        assert_eq!(fs.read_handle(hb, 0, 3).unwrap(), b"BBB");
        fs.close(hb).unwrap();
    }

    #[test]
    fn data_log_grows_monotonically() {
        let mut fs = Lsfs::new();
        fs.write_all("/f", &vec![1u8; 8192]).unwrap();
        fs.sync().unwrap();
        let s1 = fs.stats();
        assert_eq!(s1.data_bytes, 8192);
        fs.write_at("/f", 0, &[2u8; 1]).unwrap();
        fs.sync().unwrap();
        let s2 = fs.stats();
        // Overwriting one byte rewrites exactly one block to the log.
        assert_eq!(s2.data_bytes, 8192 + BLOCK_SIZE as u64);
        assert!(s2.journal_bytes > s1.journal_bytes);
    }

    #[test]
    fn recovery_replays_the_journal() {
        let mut fs = Lsfs::new();
        fs.mkdir("/d").unwrap();
        fs.write_all("/d/f", b"recover me").unwrap();
        fs.snapshot_point(3).unwrap();
        fs.write_all("/d/g", b"post-snapshot").unwrap();
        fs.rename("/d/g", "/d/h").unwrap();
        fs.sync().unwrap();
        let head = fs.journal_head();
        let disk = fs.disk();
        drop(fs);

        let recovered = Lsfs::recover(disk, head).unwrap();
        assert_eq!(recovered.read_all("/d/f").unwrap(), b"recover me");
        assert_eq!(recovered.read_all("/d/h").unwrap(), b"post-snapshot");
        assert!(!recovered.exists("/d/g"));
        let snap = recovered.snapshot(3).unwrap();
        assert!(snap.exists("/d/f"));
        assert!(!snap.exists("/d/h"));
    }

    #[test]
    fn save_load_round_trips_with_snapshots() {
        let mut fs = Lsfs::new();
        fs.mkdir("/d").unwrap();
        fs.write_all("/d/a", b"alpha").unwrap();
        fs.snapshot_point(1).unwrap();
        fs.write_all("/d/a", b"alpha prime").unwrap();
        fs.write_all("/d/b", &vec![3u8; 9000]).unwrap();
        let saved = fs.save().unwrap();
        let loaded = Lsfs::load(&saved).unwrap();
        assert_eq!(loaded.read_all("/d/a").unwrap(), b"alpha prime");
        assert_eq!(loaded.read_all("/d/b").unwrap(), vec![3u8; 9000]);
        let snap = loaded.snapshot(1).unwrap();
        assert_eq!(snap.read_all("/d/a").unwrap(), b"alpha");
        assert!(Lsfs::load(&saved[..20]).is_err());
    }

    #[test]
    fn sync_is_idempotent_when_clean() {
        let mut fs = Lsfs::new();
        fs.write_all("/f", b"x").unwrap();
        fs.sync().unwrap();
        let before = fs.stats();
        fs.sync().unwrap();
        let after = fs.stats();
        assert_eq!(before.data_bytes, after.data_bytes);
        assert_eq!(before.syncs, after.syncs);
    }

    #[test]
    fn failed_journal_commit_leaves_state_unchanged() {
        use dv_fault::FaultPlan;
        let mut fs = Lsfs::new();
        fs.set_fault_plane(
            FaultPlan::new(2)
                .fail_nth(sites::LSFS_JOURNAL_COMMIT, 2, IoFault::TornWrite)
                .build(),
        );
        fs.create("/a").unwrap();
        assert_eq!(fs.create("/b"), Err(FsError::Io));
        assert!(
            !fs.exists("/b"),
            "write-ahead: state unchanged on torn commit"
        );
        fs.create("/b").unwrap();
        // The chain skips the torn record and replays cleanly.
        let recovered = Lsfs::recover(fs.disk(), fs.journal_head()).unwrap();
        assert!(recovered.exists("/a"));
        assert!(recovered.exists("/b"));
    }

    #[test]
    fn corrupt_journal_record_is_caught_by_scan_recovery() {
        use dv_fault::FaultPlan;
        let mut fs = Lsfs::new();
        fs.write_all("/keep", b"good data").unwrap();
        fs.sync().unwrap();
        fs.set_fault_plane(
            FaultPlan::new(9)
                .always(sites::LSFS_JOURNAL_COMMIT, IoFault::Corrupt)
                .build(),
        );
        fs.create("/bad").unwrap(); // Reports success; mangled on disk.
        fs.set_fault_plane(FaultPlane::disabled());
        let saved = fs.save().unwrap();
        let loaded = Lsfs::load(&saved).unwrap();
        loaded.check().unwrap();
        assert_eq!(loaded.read_all("/keep").unwrap(), b"good data");
        assert!(!loaded.exists("/bad"), "corrupt commit rolled back by CRC");
    }

    #[test]
    fn power_cut_recovers_the_newest_intact_prefix() {
        use dv_fault::crash;
        let mut fs = Lsfs::new();
        fs.mkdir("/d").unwrap();
        fs.write_all("/d/a", b"stable").unwrap();
        fs.snapshot_point(1).unwrap();
        fs.write_all("/d/b", b"later data").unwrap();
        let saved = fs.save().unwrap();
        // Tear the last journal record (the Write for /d/b).
        let image = crash::power_cut(&saved, crash::log_len(&saved) - 3);
        let recovered = Lsfs::load(&image).unwrap();
        recovered.check().unwrap();
        assert_eq!(recovered.read_all("/d/a").unwrap(), b"stable");
        let snap = recovered.snapshot(1).unwrap();
        assert_eq!(snap.read_all("/d/a").unwrap(), b"stable");
        // /d/b's Create committed but its data Write was torn.
        if recovered.exists("/d/b") {
            assert_eq!(recovered.stat("/d/b").unwrap().size, 0);
        }
    }

    #[test]
    fn crash_harness_layout_matches_save() {
        use dv_fault::crash;
        let mut fs = Lsfs::new();
        fs.write_all("/f", b"data").unwrap();
        let saved = fs.save().unwrap();
        // The harness' view of the log length is the disk's.
        assert_eq!(
            crash::log_len(&saved) as u64,
            fs.disk().read().bytes_written()
        );
        // Cutting everything yields a loadable empty file system.
        let wiped = crash::power_cut(&saved, 0);
        let empty = Lsfs::load(&wiped).unwrap();
        empty.check().unwrap();
        assert!(!empty.exists("/f"));
        // Cutting nothing is the identity.
        assert_eq!(crash::power_cut(&saved, usize::MAX), saved);
    }

    #[test]
    fn dir_operations_and_errors() {
        let mut fs = Lsfs::new();
        fs.mkdir_all("/a/b").unwrap();
        assert_eq!(fs.mkdir("/a"), Err(FsError::AlreadyExists));
        assert_eq!(fs.rmdir("/a"), Err(FsError::NotEmpty));
        assert_eq!(fs.unlink("/a"), Err(FsError::IsADirectory));
        fs.rmdir("/a/b").unwrap();
        fs.rmdir("/a").unwrap();
        assert!(!fs.exists("/a"));
    }

    #[test]
    fn retaking_a_snapshot_counter_counts_it_once() {
        let obs = Obs::sim();
        let mut fs = Lsfs::new();
        fs.set_obs(obs.clone());
        fs.write_all("/f", b"one").unwrap();
        fs.snapshot_point(1).unwrap();
        fs.write_all("/f", b"two").unwrap();
        fs.snapshot_point(1).unwrap();
        assert_eq!(fs.snapshot_counters(), vec![1]);
        assert_eq!(fs.stats().snapshots, 1);
        assert_eq!(obs.gauge(dv_obs::names::LSFS_SNAPSHOTS), 1);
        assert_eq!(fs.snapshot(1).unwrap().read_all("/f").unwrap(), b"two");
        // Replay of the two marks agrees.
        let recovered = Lsfs::recover(fs.disk(), fs.journal_head()).unwrap();
        assert_eq!(recovered.stats().snapshots, 1);
        assert!(fs.drop_snapshot(1));
        assert_eq!(fs.stats().snapshots, 0);
        assert_eq!(obs.gauge(dv_obs::names::LSFS_SNAPSHOTS), 0);
    }
}
