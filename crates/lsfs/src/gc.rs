//! Log cleaning (garbage collection) for the log-structured FS.
//!
//! An append-only log never reclaims space by itself: overwritten data
//! blocks and superseded journal records accumulate as dead weight, the
//! classic cost of log-structured file systems that segment cleaners
//! exist to pay down. DejaView's storage analysis (§6) notes the
//! snapshot history "includes more overhead for file creation"; this
//! module quantifies that overhead ([`GcStats`]) and reclaims it:
//!
//! * [`Lsfs::drop_snapshot`] releases a retained snapshot point,
//!   allowing its exclusively-referenced blocks to be cleaned;
//! * [`Lsfs::compact`] rewrites every *live* block (reachable from the
//!   current state or any retained snapshot) into a fresh log, remaps
//!   all block pointers, and re-journals the live state so recovery
//!   still works.
//!
//! Compaction requires exclusive ownership of the disk: outstanding
//! [`crate::SnapshotView`]s hold block offsets into the old log and
//! would dangle, so the operation refuses with [`FsError::Busy`] while
//! any exist.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::disk::Disk;
use crate::error::{FsError, FsResult};
use crate::journal::{FsOp, NO_PREV};
use crate::lsfs::{FsState, LsInode, Lsfs, BLOCK_SIZE, HOLE, ROOT_INO};
use crate::table::{InodeTable, Rebuilt, Seen};
use crate::vfs::{FileType, Filesystem};

/// Log occupancy statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Total bytes in the log.
    pub disk_bytes: u64,
    /// Bytes of data blocks reachable from the live state or a retained
    /// snapshot.
    pub live_data_bytes: u64,
    /// Dead bytes a [`Lsfs::compact`] would reclaim (superseded blocks
    /// plus journal records).
    pub reclaimable_bytes: u64,
    /// Retained snapshot points.
    pub snapshots: u64,
}

/// The blocks reachable from `states`. Retained snapshots share most
/// of their table nodes, so each distinct node is read once.
fn live_blocks<'a>(states: impl Iterator<Item = &'a FsState>) -> HashSet<u64> {
    let mut live = HashSet::new();
    let mut seen = Seen::new();
    for state in states {
        state.inodes.for_each_unseen(&mut seen, |_, inode| {
            live.extend(inode.blocks.iter().filter(|block| **block != HOLE));
        });
    }
    live
}

impl Lsfs {
    /// Computes log occupancy.
    pub fn gc_stats(&self) -> GcStats {
        let live = live_blocks(self.states());
        let disk_bytes = self.disk().read().bytes_written();
        let live_data_bytes = live.len() as u64 * BLOCK_SIZE as u64;
        GcStats {
            disk_bytes,
            live_data_bytes,
            reclaimable_bytes: disk_bytes.saturating_sub(live_data_bytes),
            snapshots: self.snapshots.len() as u64,
        }
    }

    /// Compacts the log: copies every live block into a fresh log,
    /// remaps block pointers in the live state and all retained
    /// snapshots, and re-journals the live state so [`Lsfs::recover`]
    /// continues to work. Returns the bytes reclaimed.
    ///
    /// Retained snapshots stay usable in memory but are no longer
    /// reconstructible from the on-disk journal after compaction (a
    /// compacted log starts a fresh recovery baseline).
    ///
    /// # Errors
    ///
    /// Fails with [`FsError::Busy`] while any snapshot view (or other
    /// disk handle) is outstanding, since views address the old log.
    pub fn compact(&mut self) -> FsResult<u64> {
        self.sync()?;
        let disk_arc = self.disk();
        // Two handles exist here: self's and the one just cloned.
        if Arc::strong_count(&disk_arc) > 2 {
            return Err(FsError::Busy);
        }
        drop(disk_arc);
        let old_len = self.disk().read().bytes_written();

        // Copy live blocks into a fresh log, remembering the remapping.
        let mut new_disk = Disk::new();
        let mut remap: HashMap<u64, u64> = HashMap::new();
        {
            let old_disk = self.disk();
            let old_disk = old_disk.read();
            let mut live: Vec<u64> = live_blocks(self.states()).into_iter().collect();
            live.sort_unstable();
            for block in live {
                let data = old_disk.read(block, BLOCK_SIZE);
                remap.insert(block, new_disk.append_raw(&data));
            }
        }

        // Rewrite pointers everywhere. Every distinct table node and
        // block list is rebuilt once and handed to all of its holders,
        // so the states share after the pass what they shared before
        // it. The old tables stay in place, keeping the addresses the
        // two maps are keyed by alive, until every twin is built.
        let mut rebuilt = Rebuilt::new();
        let mut lists: HashMap<*const Vec<u64>, Arc<Vec<u64>>> = HashMap::new();
        let mut rewrite = |inode: &mut LsInode| {
            if inode.blocks.iter().any(|b| *b != HOLE) {
                let twin = lists.entry(Arc::as_ptr(&inode.blocks)).or_insert_with(|| {
                    let moved = |b: &u64| if *b == HOLE { HOLE } else { remap[b] };
                    Arc::new(inode.blocks.iter().map(moved).collect())
                });
                inode.blocks = twin.clone();
            }
        };
        let twins: Vec<InodeTable> = self
            .states()
            .map(|state| state.inodes.map(&mut rebuilt, &mut rewrite))
            .collect();
        for (state, inodes) in self.states_mut().zip(twins) {
            state.inodes = inodes;
        }

        // Install the fresh log — keeping the fault plane wired to the
        // device — and re-journal the live state.
        new_disk.set_fault_plane(self.disk().read().fault_plane());
        *self.disk().write() = new_disk;
        self.last_journal = NO_PREV; // a fresh chain: the compaction baseline
        let ops = dump_state_ops(&self.state);
        for op in &ops {
            self.log_op(op)?; // the state is already in place
        }
        let new_len = self.disk().read().bytes_written();
        Ok(old_len.saturating_sub(new_len))
    }
}

impl Lsfs {
    /// Checks internal invariants (an `fsck`): directory-tree
    /// reachability, link counts, size/block-count agreement, and block
    /// pointers within the log. Returns a description of the first
    /// violation found.
    pub fn check(&self) -> Result<(), String> {
        let disk_len = self.disk().read().bytes_written();
        let mut seen = Seen::new();
        check_state("live", &self.state, disk_len, &mut seen)?;
        for (counter, state) in &self.snapshots {
            check_state(&format!("snapshot {counter}"), state, disk_len, &mut seen)?;
        }
        Ok(())
    }
}

/// Checks one state. Reachability and link counts are properties of
/// the whole tree and are checked per state; what an inode says about
/// itself (size against block count, block pointers inside the log) is
/// checked once per distinct table node, in the first state that
/// reaches it.
fn check_state(name: &str, state: &FsState, disk_len: u64, seen: &mut Seen) -> Result<(), String> {
    // Count directory references per inode, walking from the root.
    let mut refs: HashMap<u64, u32> = HashMap::new();
    let mut stack = vec![ROOT_INO];
    let mut visited = HashSet::new();
    while let Some(dir) = stack.pop() {
        if !visited.insert(dir) {
            return Err(format!("{name}: directory cycle at inode {dir}"));
        }
        let inode = state
            .inodes
            .get(dir)
            .ok_or_else(|| format!("{name}: dangling directory inode {dir}"))?;
        for (entry, child) in inode.children.iter() {
            let child_inode = state.inodes.get(*child).ok_or_else(|| {
                format!("{name}: entry {entry:?} points at missing inode {child}")
            })?;
            *refs.entry(*child).or_insert(0) += 1;
            if child_inode.ftype == FileType::Directory {
                stack.push(*child);
            }
        }
    }
    let mut result = Ok(());
    state.inodes.for_each(|ino, inode| {
        if result.is_ok() && ino != ROOT_INO {
            result = check_links(name, ino, inode, refs.get(&ino).copied().unwrap_or(0));
        }
    });
    state.inodes.for_each_unseen(seen, |ino, inode| {
        if result.is_ok() && inode.ftype == FileType::Regular {
            result = check_blocks(name, ino, inode, disk_len);
        }
    });
    result
}

fn check_links(name: &str, ino: u64, inode: &LsInode, reachable: u32) -> Result<(), String> {
    match inode.ftype {
        FileType::Directory if reachable != 1 => Err(format!(
            "{name}: directory inode {ino} referenced {reachable} times"
        )),
        // Orphans (nlink 0, handle-pinned) are legitimately
        // unreachable; otherwise nlink must match references.
        FileType::Regular if inode.nlink > 0 && reachable != inode.nlink => Err(format!(
            "{name}: inode {ino} nlink {} but {reachable} references",
            inode.nlink
        )),
        _ => Ok(()),
    }
}

fn check_blocks(name: &str, ino: u64, inode: &LsInode, disk_len: u64) -> Result<(), String> {
    let expected_blocks = (inode.size as usize).div_ceil(BLOCK_SIZE);
    if inode.blocks.len() != expected_blocks {
        return Err(format!(
            "{name}: inode {ino} size {} implies {expected_blocks} blocks, has {}",
            inode.size,
            inode.blocks.len()
        ));
    }
    for &block in inode.blocks.iter() {
        if block != HOLE && block.saturating_add(BLOCK_SIZE as u64) > disk_len {
            return Err(format!(
                "{name}: inode {ino} block {block:#x} beyond log end {disk_len:#x}"
            ));
        }
    }
    Ok(())
}

/// Produces journal operations that recreate `state` from empty:
/// directories and files in path order, block extents, and extra links
/// for multiply-linked inodes.
fn dump_state_ops(state: &FsState) -> Vec<FsOp> {
    let mut ops = Vec::new();
    let mut seen: HashMap<u64, ()> = HashMap::new();
    let mut stack = vec![ROOT_INO];
    while let Some(dir) = stack.pop() {
        let children: Vec<(String, u64)> = state.inodes[dir]
            .children
            .iter()
            .map(|(name, ino)| (name.clone(), *ino))
            .collect();
        for (name, ino) in children {
            let inode = &state.inodes[ino];
            match inode.ftype {
                FileType::Directory => {
                    ops.push(FsOp::Mkdir {
                        parent: dir,
                        name,
                        ino,
                    });
                    stack.push(ino);
                }
                FileType::Regular => {
                    if seen.insert(ino, ()).is_some() {
                        // A further link to an inode already created.
                        ops.push(FsOp::Link {
                            ino,
                            parent: dir,
                            name,
                        });
                        continue;
                    }
                    ops.push(FsOp::Create {
                        parent: dir,
                        name,
                        ino,
                    });
                    let extents: Vec<(u64, u64)> = inode
                        .blocks
                        .iter()
                        .enumerate()
                        .filter(|(_, b)| **b != HOLE)
                        .map(|(i, b)| (i as u64, *b))
                        .collect();
                    if inode.size > 0 || !extents.is_empty() {
                        ops.push(FsOp::Write {
                            ino,
                            size: inode.size,
                            extents,
                        });
                    }
                }
            }
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::Filesystem;

    #[test]
    fn overwrites_create_reclaimable_space() {
        let mut fs = Lsfs::new();
        for _ in 0..10 {
            fs.write_all("/f", &vec![1u8; 64 << 10]).unwrap();
            fs.sync().unwrap();
        }
        let stats = fs.gc_stats();
        assert!(stats.reclaimable_bytes > 9 * (64 << 10));
        assert_eq!(stats.live_data_bytes, 64 << 10);
    }

    #[test]
    fn compact_reclaims_and_preserves_contents() {
        let mut fs = Lsfs::new();
        fs.mkdir_all("/a/b").unwrap();
        for i in 0..8 {
            fs.write_all("/a/b/f", &vec![i as u8; 32 << 10]).unwrap();
            fs.write_all(&format!("/a/g{i}"), format!("gen {i}").as_bytes())
                .unwrap();
            fs.sync().unwrap();
        }
        let before = fs.gc_stats();
        let reclaimed = fs.compact().unwrap();
        assert!(reclaimed > 0);
        assert!(reclaimed >= before.reclaimable_bytes / 2);
        let after = fs.gc_stats();
        assert!(after.disk_bytes < before.disk_bytes);
        // Contents intact.
        assert_eq!(fs.read_all("/a/b/f").unwrap(), vec![7u8; 32 << 10]);
        for i in 0..8 {
            assert_eq!(
                fs.read_all(&format!("/a/g{i}")).unwrap(),
                format!("gen {i}").as_bytes()
            );
        }
        // Still fully writable afterwards.
        fs.write_all("/a/post", b"post-compact").unwrap();
        fs.sync().unwrap();
        assert_eq!(fs.read_all("/a/post").unwrap(), b"post-compact");
    }

    #[test]
    fn compact_preserves_retained_snapshots() {
        let mut fs = Lsfs::new();
        fs.write_all("/doc", b"version one").unwrap();
        fs.snapshot_point(1).unwrap();
        fs.write_all("/doc", b"version two is different").unwrap();
        fs.snapshot_point(2).unwrap();
        fs.write_all("/doc", b"version three").unwrap();
        fs.sync().unwrap();
        fs.compact().unwrap();
        assert_eq!(fs.read_all("/doc").unwrap(), b"version three");
        let snap1 = fs.snapshot(1).unwrap();
        assert_eq!(snap1.read_all("/doc").unwrap(), b"version one");
        let snap2 = fs.snapshot(2).unwrap();
        assert_eq!(snap2.read_all("/doc").unwrap(), b"version two is different");
    }

    #[test]
    fn dropping_snapshots_frees_their_blocks() {
        let mut fs = Lsfs::new();
        fs.write_all("/f", &vec![1u8; 128 << 10]).unwrap();
        fs.snapshot_point(1).unwrap();
        fs.write_all("/f", &vec![2u8; 128 << 10]).unwrap();
        fs.sync().unwrap();
        let with_snapshot = fs.gc_stats();
        assert!(fs.drop_snapshot(1));
        assert!(!fs.drop_snapshot(1), "already dropped");
        let without = fs.gc_stats();
        assert!(without.live_data_bytes < with_snapshot.live_data_bytes);
        let reclaimed = fs.compact().unwrap();
        assert!(reclaimed >= 128 << 10);
        assert_eq!(fs.read_all("/f").unwrap(), vec![2u8; 128 << 10]);
    }

    #[test]
    fn compact_refuses_with_outstanding_views() {
        let mut fs = Lsfs::new();
        fs.write_all("/f", b"x").unwrap();
        fs.snapshot_point(1).unwrap();
        let view = fs.snapshot(1).unwrap();
        assert_eq!(fs.compact(), Err(FsError::Busy));
        drop(view);
        assert!(fs.compact().is_ok());
    }

    #[test]
    fn fsck_passes_on_healthy_filesystems() {
        let mut fs = Lsfs::new();
        fs.mkdir_all("/a/b").unwrap();
        fs.write_all("/a/b/f", &vec![1u8; 9000]).unwrap();
        fs.snapshot_point(1).unwrap();
        fs.write_all("/a/g", b"more").unwrap();
        let h = fs.open("/a/g").unwrap();
        fs.link_handle(h, "/a/hardlink").unwrap();
        fs.close(h).unwrap();
        fs.sync().unwrap();
        fs.check().expect("healthy fs");
        fs.compact().unwrap();
        fs.check().expect("healthy after compact");
    }

    #[test]
    fn recovery_works_after_compaction() {
        let mut fs = Lsfs::new();
        fs.mkdir("/d").unwrap();
        fs.write_all("/d/keep", b"survives compaction and recovery")
            .unwrap();
        // Hard link via handle relink.
        let h = fs.open("/d/keep").unwrap();
        fs.link_handle(h, "/d/alias").unwrap();
        fs.close(h).unwrap();
        for _ in 0..4 {
            fs.write_all("/d/churn", &vec![9u8; 16 << 10]).unwrap();
            fs.sync().unwrap();
        }
        fs.compact().unwrap();
        let head = fs.journal_head();
        let disk = fs.disk();
        drop(fs);
        let recovered = Lsfs::recover(disk, head).unwrap();
        assert_eq!(
            recovered.read_all("/d/keep").unwrap(),
            b"survives compaction and recovery"
        );
        assert_eq!(
            recovered.read_all("/d/alias").unwrap(),
            b"survives compaction and recovery"
        );
        assert_eq!(recovered.stat("/d/keep").unwrap().nlink, 2);
        assert_eq!(recovered.read_all("/d/churn").unwrap(), vec![9u8; 16 << 10]);
    }

    /// A snapshot is a root pointer: what two snapshots do not share is
    /// the path that was written between them, opening views adds
    /// nothing, and compaction keeps it that way.
    #[test]
    fn snapshots_share_all_but_the_written_path() {
        use crate::ro::ReadOnlyFs;
        let mut fs = Lsfs::new();
        for dir in 0..10 {
            fs.mkdir(&format!("/d{dir}")).unwrap();
            for file in 0..1_000 {
                fs.create(&format!("/d{dir}/f{file}")).unwrap();
            }
        }
        fs.write_all("/d3/f500", &[3u8; 5_000]).unwrap();
        fs.snapshot_point(1).unwrap();
        fs.write_at("/d7/f123", 0, &[7u8; 4096]).unwrap();
        fs.snapshot_point(2).unwrap();
        let nodes = |fs: &Lsfs, counter: u64| fs.snapshots[&counter].inodes.node_set();
        let (first, second) = (nodes(&fs, 1), nodes(&fs, 2));
        // 10,011 inodes: 626 leaves under 40 + 3 + 1 branches.
        assert_eq!(first.len(), 626 + 40 + 3 + 1);
        assert_eq!(
            first.difference(&second).count(),
            4,
            "one root-to-leaf path"
        );
        assert_eq!(second.difference(&first).count(), 4);
        assert_eq!(fs.state.inodes.node_set(), second);

        let holders = fs.snapshots[&2].inodes.root_holders();
        let view = fs.snapshot(2).unwrap();
        let copy = view.clone();
        let boxed = view.clone_ro();
        assert_eq!(fs.snapshots[&2].inodes.root_holders(), holders + 3);
        assert_eq!(boxed.stat("/d7/f123").unwrap().size, 4096);
        drop((view, copy, boxed));

        for counter in 3..=200 {
            let path = format!("/d{}/f{}", counter % 10, counter * 5 % 1_000);
            fs.write_at(&path, 0, &[counter as u8; 100]).unwrap();
            fs.snapshot_point(counter).unwrap();
        }
        let distinct = |fs: &Lsfs| {
            let mut seen = Seen::new();
            fs.states()
                .for_each(|s| s.inodes.for_each_unseen(&mut seen, |_, _| {}));
            seen.len()
        };
        let before = distinct(&fs);
        assert!(before <= 670 + 199 * 4, "path copies, not table copies");
        fs.compact().unwrap();
        assert_eq!(distinct(&fs), before);
        fs.check().unwrap();
        assert_eq!(
            fs.snapshot(1).unwrap().read_all("/d3/f500").unwrap(),
            vec![3u8; 5_000]
        );
        assert_eq!(fs.snapshot(1).unwrap().stat("/d7/f123").unwrap().size, 0);
        assert_eq!(
            fs.snapshot(200).unwrap().read_all("/d7/f123").unwrap()[..4096],
            [7u8; 4096]
        );
    }
}
