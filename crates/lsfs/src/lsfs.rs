//! The log-structured, snapshotting file system.
//!
//! `Lsfs` reproduces the role NILFS plays in the paper (§5.1.1): every
//! modifying transaction appends to the log — data blocks to the data
//! log, metadata operations to the journal — so nothing ever overwrites
//! the state an earlier snapshot depends on. A snapshot point is a root
//! pointer: metadata lives in a persistent inode table
//! (the private `table` module) that the snapshot and the live state share until
//! one of them writes, and all file *data* is shared through the
//! append-only disk. Snapshots are identified by the checkpoint counter
//! DejaView stores in both the checkpoint image and the file system log.
//!
//! Writes are buffered dirty-block-style and committed by [`Lsfs::sync`];
//! this is what makes the checkpoint engine's *pre-snapshot sync*
//! meaningful: syncing before quiescing the session moves most data-log
//! appends out of the downtime window (§5.1.2).

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use dv_fault::{checksum, sites, FaultPlane, IoFault, Reader};
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

/// Largest file any file system here holds: 1 GiB. A file's block list
/// is dense, so its size bounds that list — 2 MiB of block pointers at
/// this size. Offsets come from processes (`seek`) and stored images, so
/// a write, truncate or replayed size past it is refused with
/// [`FsError::FileTooLarge`] instead of sizing an allocation.
pub const MAX_FILE_SIZE: u64 = 1 << 30;

/// Block pointer value marking a hole (unwritten, reads as zeros).
pub(crate) const HOLE: u64 = u64::MAX;

/// The low bits of a block pointer, which hold its log offset. The 16
/// bits above hold how many bytes of the block the log stores, 0 for a
/// whole block, so a pointer written before short blocks reads as it
/// did.
const OFFSET_BITS: u32 = 48;

/// The log offset and stored length of block pointer `ptr`: `None` for
/// a hole, and for a length field no writer produces (a whole block is
/// stored as 0).
pub(crate) fn block_extent(ptr: u64) -> Option<(u64, usize)> {
    let len = (ptr >> OFFSET_BITS) as usize;
    match len {
        0 => Some((ptr, BLOCK_SIZE)),
        1..BLOCK_SIZE => Some((ptr & ((1 << OFFSET_BITS) - 1), len)),
        _ => None,
    }
}

/// The pointer to `len` (1 to [`BLOCK_SIZE`]) bytes stored at log
/// `offset`; a log past 2^48 bytes is full.
pub(crate) fn block_pointer(offset: u64, len: usize) -> FsResult<u64> {
    if offset >> OFFSET_BITS != 0 {
        return Err(FsError::NoSpace);
    }
    Ok(offset | ((len % BLOCK_SIZE) as u64) << OFFSET_BITS)
}

/// Whether block pointer `ptr` is a hole or names bytes that end inside
/// a log of `log_len` bytes.
pub(crate) fn block_in_log(ptr: u64, log_len: u64) -> bool {
    ptr == HOLE || block_extent(ptr).is_some_and(|(offset, len)| offset + len as u64 <= log_len)
}

/// Inode number of the root directory.
pub(crate) const ROOT_INO: u64 = 1;

/// Magic of a [`Lsfs::save`] image.
const SAVE_MAGIC: &[u8; 8] = b"DVLSF002";

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

    /// Block `idx` as committed to the log: the bytes the log stores,
    /// then zeros; a hole reads as zeros.
    pub(crate) fn block(&self, disk: &SharedDisk, idx: u64) -> Vec<u8> {
        let mut block = Vec::with_capacity(BLOCK_SIZE);
        if let Some((offset, len)) = self.blocks.get(idx as usize).and_then(|&p| block_extent(p)) {
            disk.read().read_into(offset, len, &mut block);
        }
        block.resize(BLOCK_SIZE, 0);
        block
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

    /// The entries of directory `dir`, for a change.
    fn children_mut(&mut self, dir: u64) -> FsResult<&mut BTreeMap<String, u64>> {
        match self.inodes.get_mut(dir) {
            Some(node) if node.ftype == FileType::Directory => {
                Ok(Arc::make_mut(&mut node.children))
            }
            _ => Err(FsError::Io),
        }
    }

    fn remove_child(&mut self, parent: u64, name: &str) -> FsResult<u64> {
        self.children_mut(parent)?.remove(name).ok_or(FsError::Io)
    }

    /// Applies a journaled operation, on the live path (preconditions
    /// checked before logging) and in recovery, where the log is
    /// untrusted: an operation that does not fit the state is refused
    /// with [`FsError::Io`], a size past [`MAX_FILE_SIZE`] with
    /// [`FsError::FileTooLarge`], possibly after changing part of a state
    /// recovery then discards.
    pub(crate) fn apply(&mut self, op: &FsOp) -> FsResult<()> {
        match op {
            FsOp::Create { parent, name, ino } | FsOp::Mkdir { parent, name, ino } => {
                let next = ino.checked_add(1).ok_or(FsError::Io)?;
                self.children_mut(*parent)?.insert(name.clone(), *ino);
                let node = match op {
                    FsOp::Mkdir { .. } => LsInode::dir(),
                    _ => LsInode::file(),
                };
                self.inodes.insert(*ino, node);
                self.next_ino = self.next_ino.max(next);
            }
            FsOp::Write { ino, size, extents } => {
                if *size > MAX_FILE_SIZE {
                    return Err(FsError::FileTooLarge);
                }
                let nblocks = size.div_ceil(BLOCK_SIZE as u64);
                let misfit = |&(idx, ptr): &(u64, u64)| {
                    idx >= nblocks || (ptr != HOLE && block_extent(ptr).is_none())
                };
                if extents.iter().any(misfit) {
                    return Err(FsError::Io);
                }
                let node = self.inodes.get_mut(*ino).ok_or(FsError::Io)?;
                node.size = *size;
                let blocks = Arc::make_mut(&mut node.blocks);
                blocks.resize(nblocks as usize, HOLE);
                for &(idx, off) in extents {
                    blocks[idx as usize] = off;
                }
            }
            FsOp::Unlink { parent, name } => {
                let ino = self.remove_child(*parent, name)?;
                let node = self.inodes.get_mut(ino).ok_or(FsError::Io)?;
                node.nlink = node.nlink.checked_sub(1).ok_or(FsError::Io)?;
            }
            FsOp::Rmdir { parent, name } => {
                let ino = self.remove_child(*parent, name)?;
                self.inodes.remove(ino);
            }
            FsOp::Rename {
                from_parent,
                from_name,
                to_parent,
                to_name,
            } => {
                if let Some(existing) = self.children_mut(*to_parent)?.remove(to_name) {
                    let node = self.inodes.get_mut(existing).ok_or(FsError::Io)?;
                    match node.ftype {
                        FileType::Regular => {
                            node.nlink = node.nlink.checked_sub(1).ok_or(FsError::Io)?;
                            if node.nlink == 0 {
                                // Pins are runtime state; during replay
                                // nothing is pinned. The live path keeps
                                // pinned orphans by re-inserting them.
                                self.inodes.remove(existing);
                            }
                        }
                        FileType::Directory => {
                            self.inodes.remove(existing);
                        }
                    }
                }
                let ino = self.remove_child(*from_parent, from_name)?;
                self.children_mut(*to_parent)?.insert(to_name.clone(), ino);
            }
            FsOp::Link { ino, parent, name } => {
                let node = self.inodes.get_mut(*ino).ok_or(FsError::Io)?;
                node.nlink = node.nlink.checked_add(1).ok_or(FsError::Io)?;
                self.children_mut(*parent)?.insert(name.clone(), *ino);
            }
            FsOp::Release { ino } => {
                self.inodes.remove(*ino);
            }
            FsOp::SnapshotMark { .. } => {}
        }
        Ok(())
    }
}

/// A file's size since the last sync, and its truncation floor: the
/// smallest size it has had since then. A block that starts at or past
/// the floor was cut away, so it starts from zeros when it is next
/// written and reads as zeros until then; `sync` journals the ones the
/// file has grown back over as holes, so the log agrees.
#[derive(Clone, Copy)]
struct Resized {
    size: u64,
    floor: u64,
}

impl Resized {
    /// The first block that starts from zeros.
    fn fresh_block(self) -> u64 {
        self.floor.div_ceil(BLOCK_SIZE as u64)
    }
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
    dirty_sizes: HashMap<u64, Resized>,
    handles: HashMap<u64, u64>,
    next_handle: u64,
    pins: HashMap<u64, u32>,
    pub(crate) snapshots: BTreeMap<u64, FsState>,
    pub(crate) last_journal: u64,
    plane: FaultPlane,
    obs: Obs,
}

impl Lsfs {
    /// Creates an empty file system on a fresh disk.
    pub fn new() -> Self {
        Lsfs::on_disk(shared_disk())
    }

    /// Creates an empty file system on an existing shared disk.
    fn on_disk(disk: SharedDisk) -> Self {
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
    /// commits are counted into the `lsfs.*` metrics, the
    /// `lsfs.snapshots` gauge starts at the snapshots this file system
    /// retains (so a recovered or loaded one reports its own level),
    /// and injected faults on this filesystem's plane become traced
    /// events.
    pub fn set_obs(&mut self, obs: Obs) {
        self.plane.set_obs(obs.clone());
        obs.gauge_set(dv_obs::names::LSFS_SNAPSHOTS, self.snapshots.len() as u64);
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
    /// replaying garbage, and an intact record whose operation does not
    /// fit the state it is replayed onto (`FsState::apply`), or whose
    /// block ends past the log, is refused the same way. [`Lsfs::load`]
    /// then falls back to a scan of the raw log for the newest intact
    /// chain.
    pub fn recover(disk: SharedDisk, head: u64) -> FsResult<Self> {
        let mut ops = Vec::new();
        {
            let d = disk.read();
            let log_len = d.bytes_written();
            let mut offset = head;
            while offset != NO_PREV {
                let (prev, body) = read_journal_record(&d, offset).ok_or(FsError::Io)?;
                if prev != NO_PREV && prev >= offset {
                    return Err(FsError::Io);
                }
                let op = FsOp::decode(&body)?;
                if let FsOp::Write { extents, .. } = &op {
                    if !extents.iter().all(|&(_, p)| block_in_log(p, log_len)) {
                        return Err(FsError::Io);
                    }
                }
                ops.push(op);
                offset = prev;
            }
        }
        ops.reverse();
        let mut fs = Lsfs::on_disk(disk);
        for op in &ops {
            if let FsOp::SnapshotMark { counter } = op {
                fs.retain_snapshot(*counter);
            } else {
                fs.state.apply(op)?;
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
    fn recover_scan(disk: SharedDisk) -> Self {
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
        out.extend_from_slice(SAVE_MAGIC);
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
    /// record — recovery falls back to a scan of the raw log and lands
    /// on the newest intact prefix of the journal.
    pub fn load(data: &[u8]) -> FsResult<Lsfs> {
        let mut r = Reader::new(data);
        r.magic(SAVE_MAGIC)?;
        let head = r.u64()?;
        let disk = Disk::from_bytes(r.rest()).ok_or(FsError::InvalidPath)?;
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
            self.obs.gauge_add(dv_obs::names::LSFS_SNAPSHOTS, 1);
        }
    }

    /// Releases the snapshot point `counter`; its exclusively-held
    /// blocks become reclaimable. Returns whether it existed.
    pub fn drop_snapshot(&mut self, counter: u64) -> bool {
        let removed = self.snapshots.remove(&counter).is_some();
        if removed {
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
        self.state.apply(&op)
    }

    /// Creates an empty regular file and returns its inode number.
    fn create_file(&mut self, p: &str) -> FsResult<u64> {
        let (parent, name) = self.state.resolve_parent(p)?;
        if self.state.inodes[parent].children.contains_key(name) {
            return Err(FsError::AlreadyExists);
        }
        let ino = self.state.next_ino;
        self.commit(FsOp::Create {
            parent,
            name: name.to_string(),
            ino,
        })?;
        Ok(ino)
    }

    fn effective_size(&self, ino: u64) -> u64 {
        match self.dirty_sizes.get(&ino) {
            Some(resized) => resized.size,
            None => self.state.inodes[ino].size,
        }
    }

    /// Sets the size of `ino` until the next sync, lowering its
    /// truncation floor with it.
    fn resize(&mut self, ino: u64, size: u64) {
        let committed = self.state.inodes[ino].size;
        let resized = self.dirty_sizes.entry(ino).or_insert(Resized {
            size: committed,
            floor: committed,
        });
        resized.size = size;
        resized.floor = resized.floor.min(size);
    }

    /// The first block of `ino` that starts from zeros instead of from
    /// the log: none while the file has not been resized since the last
    /// sync (blocks past its committed list read as zeros anyway).
    fn fresh_block(&self, ino: u64) -> u64 {
        self.dirty_sizes
            .get(&ino)
            .map_or(u64::MAX, |resized| resized.fresh_block())
    }

    fn load_block(&self, ino: u64, idx: u64) -> Vec<u8> {
        if let Some(buf) = self.dirty.get(&(ino, idx)) {
            return buf.clone();
        }
        if idx >= self.fresh_block(ino) {
            return vec![0; BLOCK_SIZE];
        }
        self.state.inodes[ino].block(&self.disk, idx)
    }

    fn buffer_write(&mut self, ino: u64, offset: u64, data: &[u8]) -> FsResult<()> {
        if data.is_empty() {
            return Ok(());
        }
        let end = offset
            .checked_add(data.len() as u64)
            .filter(|&end| end <= MAX_FILE_SIZE)
            .ok_or(FsError::FileTooLarge)?;
        let first = offset / BLOCK_SIZE as u64;
        let last = (end - 1) / BLOCK_SIZE as u64;
        let fresh = self.fresh_block(ino);
        for idx in first..=last {
            let block_start = idx * BLOCK_SIZE as u64;
            let from = offset.max(block_start);
            let to = end.min(block_start + BLOCK_SIZE as u64);
            // A buffered block is written in place; any other starts
            // from zeros past the truncation floor, from the log before it.
            let block = match self.dirty.entry((ino, idx)) {
                Entry::Occupied(buffered) => buffered.into_mut(),
                Entry::Vacant(slot) => slot.insert(if idx >= fresh {
                    vec![0; BLOCK_SIZE]
                } else {
                    self.state.inodes[ino].block(&self.disk, idx)
                }),
            };
            let src = &data[(from - offset) as usize..(to - offset) as usize];
            block[(from - block_start) as usize..(to - block_start) as usize].copy_from_slice(src);
        }
        if end > self.effective_size(ino) {
            self.resize(ino, end);
        }
        Ok(())
    }

    fn read_range(&self, ino: u64, offset: u64, len: usize) -> Vec<u8> {
        let size = self.effective_size(ino);
        read_blocks(size, offset, len, |idx| self.load_block(ino, idx))
    }

    fn do_truncate(&mut self, ino: u64, size: u64) -> FsResult<()> {
        if size > MAX_FILE_SIZE {
            return Err(FsError::FileTooLarge);
        }
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
        self.resize(ino, size);
        Ok(())
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
    let mut h = Reader::new(&header);
    h.magic(JOURNAL_MAGIC).ok()?;
    let (crc, prev, len) = (h.u32().ok()?, h.u64().ok()?, h.u32().ok()?);
    if offset + JOURNAL_HEADER as u64 + u64::from(len) > disk_len {
        return None;
    }
    // The CRC covers prev || len || body: bytes 8.. of the record.
    let mut covered = d.read(offset + 8, 12 + len as usize);
    if checksum::crc32(&covered) != crc {
        return None;
    }
    Some((prev, covered.split_off(12)))
}

impl Default for Lsfs {
    fn default() -> Self {
        Lsfs::new()
    }
}

impl Filesystem for Lsfs {
    fn create(&mut self, p: &str) -> FsResult<()> {
        self.create_file(p).map(drop)
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
        self.do_truncate(ino, size)
    }

    /// The trait's create-truncate-write in one pass: the path is
    /// resolved once (a missing file is created, with the errors
    /// `create` gives), and the truncation to 0 means no block of the
    /// old contents is read back.
    fn write_all(&mut self, p: &str, data: &[u8]) -> FsResult<()> {
        let ino = match self.state.resolve(p) {
            Ok(ino) => ino,
            Err(_) => self.create_file(p)?,
        };
        if self.state.inodes[ino].ftype != FileType::Regular {
            return Err(FsError::IsADirectory);
        }
        self.do_truncate(ino, 0)?;
        self.buffer_write(ino, 0, data)
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
        let mut appended = 0;
        for (i, &ino) in inos.iter().enumerate() {
            let Some(node) = self.state.inodes.get(ino) else {
                continue; // Released while dirty; nothing to persist.
            };
            let resized = dirty_sizes.get(&ino).copied();
            let size = resized.map_or(node.size, |resized| resized.size);
            let nblocks = (size as usize).div_ceil(BLOCK_SIZE) as u64;
            let mut extents = Vec::new();
            let mut failed = None;
            {
                let mut disk = self.disk.write();
                for ((_, idx), block) in dirty.range((ino, 0)..(ino + 1, 0)) {
                    if *idx >= nblocks {
                        continue;
                    }
                    // Past the file's end a block holds zeros, which
                    // its reads supply: the log keeps the file's bytes.
                    // The pointer is made first: a full log is not written.
                    let len = (size - idx * BLOCK_SIZE as u64).min(BLOCK_SIZE as u64) as usize;
                    let stored = block_pointer(disk.bytes_written(), len)
                        .and_then(|ptr| disk.append(&block[..len]).map(|_| ptr));
                    match stored {
                        Ok(ptr) => {
                            appended += len as u64;
                            extents.push((*idx, ptr));
                        }
                        Err(e) => {
                            failed = Some(e);
                            break;
                        }
                    }
                }
            }
            // A committed block past the truncation floor that the file
            // has grown back over without writing it reads as zeros:
            // journal it as a hole.
            if let Some(resized) = resized {
                let regrown = resized.fresh_block()..nblocks.min(node.blocks.len() as u64);
                extents.extend(
                    regrown
                        .filter(|&idx| node.blocks[idx as usize] != HOLE)
                        .filter(|&idx| !dirty.contains_key(&(ino, idx)))
                        .map(|idx| (idx, HOLE)),
                );
            }
            let result = match failed {
                Some(e) => Err(e),
                None => self.commit(FsOp::Write { ino, size, extents }),
            };
            if let Err(e) = result {
                self.obs.add(dv_obs::names::LSFS_DATA_BYTES, appended);
                // Re-buffer everything not yet committed — this inode
                // and all later ones — so the data survives in memory
                // and a retry can complete the sync.
                for &ino in &inos[i..] {
                    for (key, block) in dirty.range((ino, 0)..(ino + 1, 0)) {
                        self.dirty.insert(*key, block.clone());
                    }
                    if let Some(&resized) = dirty_sizes.get(&ino) {
                        self.dirty_sizes.insert(ino, resized);
                    }
                }
                return Err(e);
            }
        }
        self.obs.add(dv_obs::names::LSFS_DATA_BYTES, appended);
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

    /// Writes `old_len` bytes of `A` to `/f` and syncs, applies
    /// `change`, and returns where `/f` does not read `want`: live before
    /// and after a sync, in the snapshot that sync was taken under, and
    /// after a save/load round trip.
    fn stale_views(old_len: usize, change: fn(&mut Lsfs), want: &[u8]) -> Vec<&'static str> {
        let mut fs = Lsfs::new();
        fs.write_all("/f", &vec![b'A'; old_len]).unwrap();
        fs.sync().unwrap();
        change(&mut fs);
        let mut stale = Vec::new();
        if fs.read_all("/f").unwrap() != want {
            stale.push("before sync");
        }
        fs.snapshot_point(1).unwrap();
        if fs.read_all("/f").unwrap() != want {
            stale.push("after sync");
        }
        if fs.snapshot(1).unwrap().read_all("/f").unwrap() != want {
            stale.push("snapshot");
        }
        let loaded = Lsfs::load(&fs.save().unwrap()).unwrap();
        if loaded.read_all("/f").unwrap() != want {
            stale.push("save/load");
        }
        fs.compact().unwrap();
        if fs.read_all("/f").unwrap() != want {
            stale.push("compacted");
        }
        if fs.snapshot(1).unwrap().read_all("/f").unwrap() != want {
            stale.push("compacted snapshot");
        }
        fs.check().unwrap();
        stale
    }

    /// A file cut back and grown again in one sync window reads zeros
    /// past the cut, and keeps reading them once the window is synced:
    /// the old bytes of a block the cut dropped must not come back.
    #[test]
    fn blocks_cut_away_and_regrown_read_zeros() {
        let a = BLOCK_SIZE;
        let mut short_then_gap = vec![0u8; 3 * a + 1];
        short_then_gap[..5].copy_from_slice(b"short");
        short_then_gap[3 * a] = b'x';
        let mut cut_mid_block = vec![b'A'; 100];
        cut_mid_block.resize(2 * a, 0);
        let cases = [
            (
                "truncate to 0, grow to a block",
                stale_views(
                    a,
                    |fs| {
                        fs.truncate("/f", 0).unwrap();
                        fs.truncate("/f", BLOCK_SIZE as u64).unwrap();
                    },
                    &vec![0u8; a],
                ),
            ),
            (
                "shorter write_all, then a write past a gap",
                stale_views(
                    3 * a,
                    |fs| {
                        fs.write_all("/f", b"short").unwrap();
                        fs.write_at("/f", 3 * BLOCK_SIZE as u64, b"x").unwrap();
                    },
                    &short_then_gap,
                ),
            ),
            (
                "truncate inside block 0, grow to two blocks",
                stale_views(
                    2 * a,
                    |fs| {
                        fs.truncate("/f", 100).unwrap();
                        fs.truncate("/f", 2 * BLOCK_SIZE as u64).unwrap();
                    },
                    &cut_mid_block,
                ),
            ),
        ];
        let stale: Vec<_> = cases
            .iter()
            .filter(|(_, views)| !views.is_empty())
            .collect();
        assert!(stale.is_empty(), "old bytes read back: {stale:?}");
    }

    /// The log stores a block's bytes up to the file's end. A short tail
    /// grown again — by a truncate, by a write past the end in its own
    /// block or in a later one — reads zeros past its old end, not the
    /// log bytes behind it, in every view.
    #[test]
    fn short_tails_grown_again_read_zeros() {
        let mut fs = Lsfs::new();
        fs.write_all("/f", &[b'A'; 100]).unwrap();
        fs.sync().unwrap();
        assert_eq!(fs.gc_stats().live_data_bytes, 100, "the file's bytes");
        let grown = |len: usize, marks: &[usize]| {
            let mut want = vec![b'A'; 100];
            want.resize(len, 0);
            for &at in marks {
                want[at] = b'x';
            }
            want
        };
        let cases = [
            (
                "truncate past a block",
                stale_views(
                    100,
                    |fs| fs.truncate("/f", 2 * BLOCK_SIZE as u64 + 10).unwrap(),
                    &grown(2 * BLOCK_SIZE + 10, &[]),
                ),
            ),
            (
                "write past the end in the tail's block",
                stale_views(
                    100,
                    |fs| fs.write_at("/f", 300, b"x").unwrap(),
                    &grown(301, &[300]),
                ),
            ),
            (
                "write past the end in a later block",
                stale_views(
                    100,
                    |fs| fs.write_at("/f", BLOCK_SIZE as u64 + 5, b"x").unwrap(),
                    &grown(BLOCK_SIZE + 6, &[BLOCK_SIZE + 5]),
                ),
            ),
        ];
        let stale: Vec<_> = cases
            .iter()
            .filter(|(_, views)| !views.is_empty())
            .collect();
        assert!(stale.is_empty(), "log bytes read back: {stale:?}");
    }

    /// A pointer whose length field is 0 names a whole block, so a
    /// whole block is journaled as its bare offset, as before short
    /// blocks, and a log written then reads the same.
    #[test]
    fn a_zero_length_field_reads_a_whole_block() {
        let data: Vec<u8> = (0..BLOCK_SIZE).map(|i| (i % 251) as u8 + 1).collect();
        let mut fs = Lsfs::new();
        fs.write_all("/f", &data).unwrap();
        fs.sync().unwrap();
        let FsOp::Write { extents, .. } = last_op(&fs) else {
            panic!("the sync journals a write");
        };
        let offset = extents[0].1;
        assert_eq!(block_pointer(offset, BLOCK_SIZE), Ok(offset));
        assert_eq!(block_extent(offset), Some((offset, BLOCK_SIZE)));
        // An older log: a whole block behind a bare offset, and a second
        // file pointing at it.
        let at = fs.disk().write().append(&data).unwrap();
        fs.create("/g").unwrap();
        let size = BLOCK_SIZE as u64 + 1;
        let ino = fs.state.resolve("/g").unwrap();
        fs.log_op(&FsOp::Write {
            ino,
            size,
            extents: vec![(0, at)],
        })
        .unwrap();
        let recovered = Lsfs::recover(fs.disk(), fs.journal_head()).unwrap();
        recovered.check().unwrap();
        let mut want = data.clone();
        want.push(0);
        assert_eq!(recovered.read_all("/g").unwrap(), want);
        assert_eq!(recovered.read_all("/f").unwrap(), data);
        assert_eq!(block_pointer(1 << 48, 1), Err(FsError::NoSpace));
    }

    /// A `Write` whose block ends past the log is refused by `recover`
    /// itself; the first read of the file used to panic in `Disk::read`.
    #[test]
    fn recover_refuses_a_block_past_the_log() {
        let write = |ptr| FsOp::Write {
            ino: 2,
            size: 10,
            extents: vec![(0, ptr)],
        };
        // Where the log ends once the `Write` is journaled: a short block
        // starting 5 bytes before that end runs past it.
        let mut body = Vec::new();
        write(0).encode_into(&mut body);
        let mut fs = Lsfs::new();
        fs.create("/f").unwrap();
        let end = fs.disk().read().bytes_written() + (JOURNAL_HEADER + body.len()) as u64;
        for ptr in [1 << 40, block_pointer(end - 5, 10).unwrap()] {
            let mut fs = Lsfs::new();
            fs.create("/f").unwrap();
            fs.log_op(&write(ptr)).unwrap();
            assert_eq!(fs.disk().read().bytes_written(), end);
            let recovered = Lsfs::recover(fs.disk(), fs.journal_head());
            assert_eq!(recovered.err(), Some(FsError::Io), "{ptr:#x}");
        }
        assert!(block_in_log(block_pointer(end - 10, 10).unwrap(), end));
        assert!(block_in_log(HOLE, 0));
    }

    /// `write_all` over a synced file journals the same `Write` the
    /// trait's create-truncate-write did and reads nothing back.
    #[test]
    fn write_all_over_a_synced_file_reads_no_old_block() {
        use dv_obs::names::{LSFS_DATA_BYTES, LSFS_JOURNAL_BYTES};
        let obs = Obs::sim();
        let mut fs = Lsfs::new();
        fs.set_obs(obs.clone());
        fs.write_all("/f", &[b'A'; BLOCK_SIZE]).unwrap();
        fs.sync().unwrap();
        let journal = obs.counter(LSFS_JOURNAL_BYTES);
        fs.write_all("/f", &[b'B'; 2048]).unwrap();
        let tail = &fs.dirty[&(2, 0)][2048..];
        assert!(tail.iter().all(|&b| b == 0), "block 0 starts from zeros");
        fs.sync().unwrap();
        let FsOp::Write { size, extents, .. } = last_op(&fs) else {
            panic!("the sync journals a write");
        };
        assert_eq!((size, extents.len()), (2048, 1), "one extent, no hole");
        // The log stores the 2 KiB the file holds, not the block's zeros.
        assert_eq!(obs.counter(LSFS_DATA_BYTES), BLOCK_SIZE as u64 + 2048);
        assert!(obs.counter(LSFS_JOURNAL_BYTES) > journal);
        assert_eq!(fs.read_all("/f").unwrap(), vec![b'B'; 2048]);
        // The errors are the trait's: a directory, a missing parent.
        fs.mkdir("/d").unwrap();
        assert_eq!(fs.write_all("/d", b"x"), Err(FsError::IsADirectory));
        assert_eq!(fs.write_all("/no/f", b"x"), Err(FsError::NotFound));
        assert_eq!(fs.write_all("/f/g", b"x"), Err(FsError::NotADirectory));
        fs.write_all("/d/new", b"made").unwrap();
        assert_eq!(fs.read_all("/d/new").unwrap(), b"made");
    }

    /// The operation of the journal's newest record.
    fn last_op(fs: &Lsfs) -> FsOp {
        let disk = fs.disk.read();
        let (_, body) = read_journal_record(&disk, fs.last_journal).unwrap();
        FsOp::decode(&body).unwrap()
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
        use dv_obs::names::{LSFS_DATA_BYTES, LSFS_JOURNAL_BYTES};
        let obs = Obs::sim();
        let mut fs = Lsfs::new();
        fs.set_obs(obs.clone());
        fs.write_all("/f", &vec![1u8; 8192]).unwrap();
        fs.sync().unwrap();
        let journal = obs.counter(LSFS_JOURNAL_BYTES);
        assert_eq!(obs.counter(LSFS_DATA_BYTES), 8192);
        fs.write_at("/f", 0, &[2u8; 1]).unwrap();
        fs.sync().unwrap();
        // Overwriting one byte rewrites exactly one block to the log.
        assert_eq!(obs.counter(LSFS_DATA_BYTES), 8192 + BLOCK_SIZE as u64);
        assert!(obs.counter(LSFS_JOURNAL_BYTES) > journal);
        assert_eq!(
            fs.disk().read().bytes_written(),
            obs.counter(LSFS_DATA_BYTES) + obs.counter(LSFS_JOURNAL_BYTES)
        );
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
        use dv_obs::names::{LSFS_DATA_BYTES, LSFS_SYNCS};
        let obs = Obs::sim();
        let mut fs = Lsfs::new();
        fs.set_obs(obs.clone());
        fs.write_all("/f", b"x").unwrap();
        fs.sync().unwrap();
        let before = (obs.counter(LSFS_DATA_BYTES), obs.counter(LSFS_SYNCS));
        fs.sync().unwrap();
        let after = (obs.counter(LSFS_DATA_BYTES), obs.counter(LSFS_SYNCS));
        assert_eq!(before, after);
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

    /// An intact journal record whose operation does not fit the state
    /// it replays onto — a missing parent, an extent past its file, a
    /// missing entry, a size past the largest file, a block pointer whose
    /// length field no writer produces — is refused like a
    /// torn one, and `load` lands on the prefix before it. Replay used to
    /// panic (or abort on the allocation) at each.
    #[test]
    fn replay_refuses_an_operation_that_does_not_fit_the_state() {
        let misfits = [
            FsOp::Create {
                parent: 99,
                name: "orphan".into(),
                ino: 50,
            },
            FsOp::Write {
                ino: 2,
                size: 10,
                extents: vec![(5, 0)],
            },
            FsOp::Unlink {
                parent: ROOT_INO,
                name: "missing".into(),
            },
            FsOp::Write {
                ino: 2,
                size: u64::MAX,
                extents: Vec::new(),
            },
            FsOp::Write {
                ino: 2,
                size: 10,
                extents: vec![(0, (BLOCK_SIZE as u64) << OFFSET_BITS)],
            },
        ];
        for op in misfits {
            let mut fs = Lsfs::new();
            fs.write_all("/kept", b"intact").unwrap();
            fs.sync().unwrap();
            fs.log_op(&op).unwrap();
            assert!(
                Lsfs::recover(fs.disk(), fs.journal_head()).is_err(),
                "{op:?}"
            );
            let loaded = Lsfs::load(&fs.save().unwrap()).unwrap();
            loaded.check().unwrap();
            assert_eq!(loaded.read_all("/kept").unwrap(), b"intact", "{op:?}");
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
        assert_eq!(obs.gauge(dv_obs::names::LSFS_SNAPSHOTS), 1);
        assert_eq!(fs.snapshot(1).unwrap().read_all("/f").unwrap(), b"two");
        // Replay of the two marks agrees, and the recovered file system
        // reports its own level to the handle it is given.
        let mut recovered = Lsfs::recover(fs.disk(), fs.journal_head()).unwrap();
        assert_eq!(recovered.snapshot_counters(), vec![1]);
        let reopened = Obs::sim();
        recovered.set_obs(reopened.clone());
        assert_eq!(reopened.gauge(dv_obs::names::LSFS_SNAPSHOTS), 1);
        assert!(fs.drop_snapshot(1));
        assert!(fs.snapshot_counters().is_empty());
        assert_eq!(obs.gauge(dv_obs::names::LSFS_SNAPSHOTS), 0);
    }
}
