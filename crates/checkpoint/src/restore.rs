//! Revive: rebuilding a session from a checkpoint chain.
//!
//! §5.2: a new virtual execution environment is created, the file system
//! view is restored (by the caller, who mounts a union over the snapshot
//! matching the image counter), "a forest of processes is created to
//! match the set of processes in the user's session", and each restores
//! its state from the image — walking the incremental chain for memory
//! pages. External stateful connections are reset, internal and
//! stateless ones restored, and network access follows the revive
//! policy.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use dv_fault::checksum::{fnv1a_update, FNV1A_BASIS};
use dv_lsfs::{BlobStore, Filesystem, FsError};
use dv_time::SharedClock;
use dv_vee::{
    FdObject, HostPidAllocator, Process, Proto, RunState, Signal, SockState, Socket, Vee, Vpid,
};

use crate::compress::{decompress, RleCursor};
use crate::engine::{Checkpointer, ImageMeta};
use crate::image::{
    decode_compressed_with, decode_image_with, CheckpointImage, FdRecord, ImageError,
    ProcessRecord, MAGIC,
};

/// Per-application network policy applied when reviving (§5.2: network
/// access is disabled by default; the user can re-enable per app).
#[derive(Clone, Debug)]
pub struct NetworkPolicy {
    /// Session-wide default for restored applications.
    pub default_enabled: bool,
    /// Overrides by program name.
    pub per_app: HashMap<String, bool>,
    /// Whether applications launched *after* revive get network access.
    pub new_apps_enabled: bool,
}

impl Default for NetworkPolicy {
    fn default() -> Self {
        NetworkPolicy {
            default_enabled: false,
            per_app: HashMap::new(),
            new_apps_enabled: true,
        }
    }
}

impl NetworkPolicy {
    fn allows(&self, app: &str) -> bool {
        self.per_app
            .get(app)
            .copied()
            .unwrap_or(self.default_enabled)
    }
}

/// Errors from the revive path.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ReviveError {
    /// A required image blob is missing from the store.
    MissingImage(u64),
    /// An image failed to decompress.
    BadCompression(u64),
    /// An image failed to decode.
    BadImage(ImageError),
    /// A file in the image could not be reopened in the restored view.
    FileRestore(String, FsError),
    /// A region to fingerprint (vpid, address) is not mapped in the
    /// revived session.
    UnmappedRegion(u64, u64),
}

impl std::fmt::Display for ReviveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReviveError::MissingImage(c) => write!(f, "checkpoint image {c} missing"),
            ReviveError::BadCompression(c) => {
                write!(f, "checkpoint image {c} corrupt (compression)")
            }
            ReviveError::BadImage(e) => write!(f, "checkpoint image corrupt: {e}"),
            ReviveError::FileRestore(path, e) => write!(f, "cannot restore file {path}: {e}"),
            ReviveError::UnmappedRegion(vpid, addr) => {
                write!(f, "process {vpid} has nothing mapped at {addr:#x}")
            }
        }
    }
}

impl std::error::Error for ReviveError {}

/// Statistics for one revive.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReviveReport {
    /// Images read (1 for a full checkpoint, more for incrementals).
    pub images_loaded: usize,
    /// Processes recreated.
    pub processes: usize,
    /// Pages taken out of images: the target's, and from each older
    /// image only those still missing.
    pub pages_decoded: usize,
    /// Pages installed.
    pub pages_installed: usize,
    /// Pages installed in a buffer of their own rather than as a window
    /// into a stored image: those of compressed images.
    pub pages_copied: usize,
    /// TCP connections reset.
    pub connections_reset: usize,
    /// Files reopened.
    pub files_reopened: usize,
}

/// Whether a stored blob holds a raw image. A blob describes itself: a
/// raw image opens with its `DVCKPT01` magic, and anything else is one
/// RLE stream, whose first token opens `0x00` or `0x01`, never that
/// magic's `D`.
fn is_raw(data: &[u8]) -> bool {
    data.starts_with(MAGIC)
}

/// The plaintext of a stored image, for the history fingerprint.
fn image_plaintext(counter: u64, data: &[u8]) -> Result<Cow<'_, [u8]>, ReviveError> {
    if is_raw(data) {
        Ok(Cow::Borrowed(data))
    } else {
        decompress(data)
            .map(Cow::Owned)
            .ok_or(ReviveError::BadCompression(counter))
    }
}

/// Loads and decodes one image blob, keeping only the pages
/// `keep(vpid, addr)` accepts (`|_, _| true` for all of them). A raw
/// image's pages are windows into the stored blob. A compressed image
/// is decoded as it streams: a kept page is decoded into a buffer of
/// its own, so that what it keeps alive is never more than the store
/// already holds, and every other page is stepped over by the headers
/// of its RLE tokens.
pub fn load_image(
    store: &mut BlobStore,
    blob_prefix: &str,
    counter: u64,
    keep: impl FnMut(u64, u64) -> bool,
) -> Result<CheckpointImage, ReviveError> {
    let blob = format!("{blob_prefix}-{counter:08}");
    let data = store.get(&blob).ok_or(ReviveError::MissingImage(counter))?;
    decode_blob(counter, &data, keep)
}

/// Decodes the stored blob of image `counter`, as [`load_image`] does.
fn decode_blob(
    counter: u64,
    data: &Arc<Vec<u8>>,
    keep: impl FnMut(u64, u64) -> bool,
) -> Result<CheckpointImage, ReviveError> {
    let image = if is_raw(data) {
        decode_image_with(data, keep)
    } else {
        decode_compressed_with(data, keep).ok_or(ReviveError::BadCompression(counter))?
    };
    image.map_err(ReviveError::BadImage)
}

/// The metadata of image `counter` read off its stored blob: `None`
/// unless [`load_image`] accepts the blob and its header names
/// `counter`. The stored size is the blob's length, the raw size its
/// plaintext's.
pub(crate) fn stored_meta(
    store: &mut BlobStore,
    blob_prefix: &str,
    counter: u64,
) -> Option<ImageMeta> {
    let blob = format!("{blob_prefix}-{counter:08}");
    let data = store.get(&blob)?;
    let image = decode_blob(counter, &data, |_, _| false).ok()?;
    let raw_bytes = if is_raw(&data) {
        data.len()
    } else {
        RleCursor::new(&data).drain()?
    };
    (image.counter == counter).then(|| ImageMeta {
        counter,
        time: image.time,
        kind: image.kind,
        blob,
        stored_bytes: data.len() as u64,
        raw_bytes: raw_bytes as u64,
    })
}

/// Installs each page of `processes` that its restored process maps and
/// does not yet hold.
fn install_pages(vee: &mut Vee, processes: Vec<ProcessRecord>, report: &mut ReviveReport) {
    for proc_rec in processes {
        report.pages_decoded += proc_rec.pages.len();
        if let Ok(process) = vee.process_mut(Vpid(proc_rec.vpid)) {
            for (addr, page) in proc_rec.pages {
                if process.mem.lacks_page(addr) {
                    report.pages_copied += usize::from(!page.in_image_buffer());
                    process.mem.install_page(addr, page);
                    report.pages_installed += 1;
                }
            }
        }
    }
}

/// Revives a session from the image chain `chain` (as produced by
/// [`crate::engine::Checkpointer::chain_for`], oldest first, ending at
/// the target counter).
///
/// `fs` is the writable view of the file system snapshot matching the
/// target counter — a union branch mounted by the session manager.
#[allow(clippy::too_many_arguments)]
pub fn revive(
    store: &mut BlobStore,
    blob_prefix: &str,
    chain: &[u64],
    vee_id: u64,
    clock: SharedClock,
    fs: Box<dyn Filesystem>,
    host_pids: HostPidAllocator,
    policy: &NetworkPolicy,
) -> Result<(Vee, ReviveReport), ReviveError> {
    let (&newest, older) = chain.split_last().expect("revive needs at least one image");
    let target = load_image(store, blob_prefix, newest, |_, _| true)?;
    let mut report = ReviveReport {
        images_loaded: chain.len(),
        processes: target.processes.len(),
        ..ReviveReport::default()
    };

    // The new virtual execution environment.
    let mut vee = Vee::new(vee_id, clock, fs, host_pids);
    vee.namespace.hostname = target.hostname.clone();
    vee.set_network_enabled(policy.default_enabled);
    vee.net_default = policy.new_apps_enabled;

    // Restore sockets with the reset policy.
    for s in &target.sockets {
        let proto = if s.proto == 0 { Proto::Tcp } else { Proto::Udp };
        let mut state = match s.state {
            1 => SockState::Connected,
            2 => SockState::Reset,
            _ => SockState::Unconnected,
        };
        let external =
            matches!(&s.remote, Some((host, _)) if host != "localhost" && host != "127.0.0.1");
        // Stateful external connections are dropped; internal and
        // stateless sockets restore precisely.
        if proto == Proto::Tcp && external && state == SockState::Connected {
            state = SockState::Reset;
            report.connections_reset += 1;
        }
        vee.sockets.install(Socket {
            id: s.id,
            proto,
            local_port: s.local_port,
            remote: s.remote.clone(),
            state,
            tx_bytes: s.tx_bytes,
            rx_bytes: s.rx_bytes,
        });
    }

    // Recreate the process forest from the target's records. Files are
    // reopened against the restored file system view; relinked orphans
    // are reopened from their hidden names and immediately unlinked
    // again, restoring checkpoint-time state.
    for proc_rec in &target.processes {
        let mut process = Process::new(
            Vpid(proc_rec.vpid),
            vee.allocate_host_pid(),
            proc_rec.parent.map(Vpid),
            &proc_rec.name,
        );
        process.regs = proc_rec.regs;
        process.fpu = proc_rec.fpu;
        process.sched = proc_rec.sched;
        process.creds = proc_rec.creds;
        process.signals.blocked = proc_rec.blocked;
        process.signals.handled = proc_rec.handled;
        let pending = proc_rec.pending.iter().filter_map(|&s| Signal::from_u8(s));
        process.signals.pending.extend(pending);
        process.ptraced_by = proc_rec.ptraced_by.map(Vpid);
        process.cwd = proc_rec.cwd.clone();
        process.net_allowed = policy.allows(&proc_rec.name);
        process.state = RunState::Runnable;

        for region in &proc_rec.regions {
            process.mem.install_region(region.clone());
        }

        let fs = &mut vee.fs;
        for fd_rec in &proc_rec.fds {
            match fd_rec {
                FdRecord::File {
                    fd,
                    path,
                    offset,
                    unlinked,
                    relink,
                } => {
                    let open_path = relink.as_deref().unwrap_or(path.as_str());
                    let handle = fs
                        .open(open_path)
                        .map_err(|e| ReviveError::FileRestore(open_path.to_string(), e))?;
                    if relink.is_some() {
                        // "Opens the files and immediately unlinks them,
                        // restoring the state to what it was at the time
                        // of the checkpoint."
                        fs.unlink(open_path)
                            .map_err(|e| ReviveError::FileRestore(open_path.to_string(), e))?;
                    }
                    process.fds.install(
                        *fd,
                        FdObject::File {
                            path: path.clone(),
                            handle,
                            offset: *offset,
                            unlinked: *unlinked,
                        },
                    );
                    report.files_reopened += 1;
                }
                FdRecord::Socket { fd, id } => {
                    process.fds.install(*fd, FdObject::Socket { id: *id });
                }
            }
        }
        vee.install_process(process);
    }

    // Each page comes from the newest image that holds it: the target's
    // own, then from each older image only what the target maps and is
    // still missing ("reiterating this sequence as necessary, until the
    // complete state of the desktop session has been reinstated").
    install_pages(&mut vee, target.processes, &mut report);
    for &counter in older.iter().rev() {
        let image = load_image(store, blob_prefix, counter, |vpid, addr| {
            vee.process(Vpid(vpid))
                .is_ok_and(|p| p.mem.lacks_page(addr))
        })?;
        install_pages(&mut vee, image.processes, &mut report);
    }
    Ok((vee, report))
}

/// Fingerprints an engine's committed history and the state revived
/// from its final checkpoint: FNV-1a over every image's counter and
/// plaintext, then over the revived memory of each `(vpid, addr, len)`
/// region. Two runs that recorded the same activity at the same session
/// times produce the same fingerprint however their images were
/// committed (worker count, dedup, compression timing) — the oracle
/// equality the isolation tests and the bench gates assert. Settle the
/// engine's commits (`flush`) first so the history is complete. The
/// final revive's report comes back with the fingerprint (all zeroes
/// for an engine that never checkpointed).
pub fn restore_fingerprint(
    engine: &Checkpointer,
    store: &mut BlobStore,
    regions: &[(Vpid, u64, usize)],
) -> Result<(u64, ReviveReport), ReviveError> {
    let mut fingerprint = FNV1A_BASIS;
    let mut last = None;
    for meta in engine.images() {
        let data = store
            .get(&meta.blob)
            .ok_or(ReviveError::MissingImage(meta.counter))?;
        fingerprint = fnv1a_update(fingerprint, &meta.counter.to_le_bytes());
        fingerprint = fnv1a_update(fingerprint, &image_plaintext(meta.counter, &data)?);
        last = Some(meta.counter);
    }
    let Some(last) = last else {
        return Ok((fingerprint, ReviveReport::default()));
    };
    let chain = engine
        .chain_for(last)
        .ok_or(ReviveError::MissingImage(last))?;
    // The revived environment exists only to be read back, so it gets a
    // scratch file system, clock and pid space of its own.
    let (revived, report) = revive(
        store,
        engine.blob_prefix(),
        &chain,
        0,
        dv_time::SimClock::new().shared(),
        Box::new(dv_lsfs::Lsfs::new()),
        HostPidAllocator::new(),
        &NetworkPolicy::default(),
    )?;
    for &(vpid, addr, len) in regions {
        let memory = revived
            .mem_read(vpid, addr, len)
            .map_err(|_| ReviveError::UnmappedRegion(vpid.0, addr))?;
        fingerprint = fnv1a_update(fingerprint, &vpid.0.to_le_bytes());
        fingerprint = fnv1a_update(fingerprint, &memory);
    }
    Ok((fingerprint, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Checkpointer, EngineConfig};
    use dv_lsfs::{Lsfs, SharedBlobStore};
    use dv_time::{Duration, SimClock};
    use dv_vee::Prot;

    /// Builds a session, mutates it over several checkpoints, and
    /// returns everything needed to revive.
    fn session() -> (Vee, SimClock, Checkpointer, SharedBlobStore) {
        let clock = SimClock::new();
        let vee = Vee::new(1, clock.shared(), Box::new(Lsfs::new()), host_pids());
        let config = EngineConfig {
            full_every: 3,
            ..EngineConfig::default()
        };
        let store = SharedBlobStore::in_memory();
        let pool = config.commit_pool(store.clone(), &clock);
        let engine = Checkpointer::new(config, pool, clock.clone());
        (vee, clock, engine, store)
    }

    /// One "machine"-wide host PID allocator shared by the original and
    /// revived environments, as on a real host.
    fn host_pids() -> HostPidAllocator {
        thread_local! {
            static ALLOC: HostPidAllocator = HostPidAllocator::new();
        }
        ALLOC.with(|a| a.clone())
    }

    fn revive_fs() -> Box<dyn Filesystem> {
        // Tests that don't exercise files can revive over a scratch fs.
        Box::new(Lsfs::new())
    }

    #[test]
    fn revive_restores_process_forest_and_memory() {
        let (mut vee, clock, mut engine, store) = session();
        let init = vee.spawn(None, "session-init").unwrap();
        let child = vee.spawn(Some(init), "editor").unwrap();
        let addr = vee.mmap(child, 8 * 4096, Prot::ReadWrite).unwrap();
        vee.mem_write(child, addr, b"document text v1").unwrap();
        vee.process_mut(child).unwrap().regs.pc = 0x1234;
        engine.checkpoint(&mut vee).unwrap();
        // Mutate after the checkpoint: the revive must not see this.
        vee.mem_write(child, addr, b"DOCUMENT TEXT V2").unwrap();

        let chain = engine.chain_for(1).unwrap();
        let (revived, report) = revive(
            &mut store.lock(),
            "ckpt",
            &chain,
            2,
            clock.shared(),
            revive_fs(),
            host_pids(),
            &NetworkPolicy::default(),
        )
        .unwrap();
        assert_eq!(report.processes, 2);
        assert_eq!(revived.process_count(), 2);
        let p = revived.process(child).unwrap();
        assert_eq!(p.name, "editor");
        assert_eq!(p.parent, Some(init));
        assert_eq!(p.regs.pc, 0x1234);
        assert_eq!(p.state, RunState::Runnable);
        assert_eq!(
            revived.mem_read(child, addr, 16).unwrap(),
            b"document text v1"
        );
        // Virtual pids identical, host pids fresh.
        assert_eq!(
            revived.namespace.host_pid(child).is_some(),
            vee.namespace.host_pid(child).is_some()
        );
        assert_ne!(
            revived.process(child).unwrap().host_pid,
            vee.process(child).unwrap().host_pid
        );
    }

    #[test]
    fn revive_from_incremental_chain_merges_pages() {
        let (mut vee, clock, mut engine, store) = session();
        let p = vee.spawn(None, "app").unwrap();
        let addr = vee.mmap(p, 4 * 4096, Prot::ReadWrite).unwrap();
        vee.mem_write(p, addr, &[1u8; 4 * 4096]).unwrap();
        engine.checkpoint(&mut vee).unwrap(); // full (1)
        vee.mem_write(p, addr + 4096, &[2u8; 4096]).unwrap();
        engine.checkpoint(&mut vee).unwrap(); // inc (2)
        vee.mem_write(p, addr + 2 * 4096, &[3u8; 4096]).unwrap();
        engine.checkpoint(&mut vee).unwrap(); // inc (3)

        let chain = engine.chain_for(3).unwrap();
        assert_eq!(chain, vec![1, 2, 3]);
        let (revived, report) = revive(
            &mut store.lock(),
            "ckpt",
            &chain,
            2,
            clock.shared(),
            revive_fs(),
            host_pids(),
            &NetworkPolicy::default(),
        )
        .unwrap();
        assert_eq!(report.images_loaded, 3);
        assert_eq!(revived.mem_read(p, addr, 1).unwrap(), vec![1]);
        assert_eq!(revived.mem_read(p, addr + 4096, 1).unwrap(), vec![2]);
        assert_eq!(revived.mem_read(p, addr + 2 * 4096, 1).unwrap(), vec![3]);
        assert_eq!(revived.mem_read(p, addr + 3 * 4096, 1).unwrap(), vec![1]);
        // Each page is read from the newest image that holds it, once:
        // 1 from image 3, 1 from image 2, the other 2 from image 1. None
        // is copied: each is a window into its stored image.
        assert_eq!((report.pages_decoded, report.pages_installed), (4, 4));
        assert_eq!(report.pages_copied, 0);
    }

    /// Takes a checkpoint, revives it, and reads 4 bytes at `addr` of
    /// `p` from the revived session and from the live one.
    fn revived_and_live(
        vee: &mut Vee,
        engine: &mut Checkpointer,
        store: &SharedBlobStore,
        clock: &SimClock,
        p: Vpid,
        addr: u64,
    ) -> (Vec<u8>, Vec<u8>) {
        let counter = engine.checkpoint(vee).unwrap().counter;
        let (revived, report) = revive(
            &mut store.lock(),
            "ckpt",
            &engine.chain_for(counter).unwrap(),
            2,
            clock.shared(),
            revive_fs(),
            host_pids(),
            &NetworkPolicy::default(),
        )
        .unwrap();
        assert_eq!(report.pages_decoded, report.pages_installed);
        (
            revived.mem_read(p, addr, 4).unwrap(),
            vee.mem_read(p, addr, 4).unwrap(),
        )
    }

    #[test]
    fn a_region_moved_by_mremap_keeps_its_clean_pages() {
        let (mut vee, clock, mut engine, store) = session();
        let p = vee.spawn(None, "app").unwrap();
        let addr = vee.mmap(p, 4096, Prot::ReadWrite).unwrap();
        vee.mmap(p, 4096, Prot::ReadWrite).unwrap(); // In the way.
        vee.mem_write(p, addr, &[7; 4096]).unwrap();
        engine.checkpoint(&mut vee).unwrap(); // full
        let moved = vee.mremap(p, addr, 3 * 4096).unwrap().unwrap();
        assert_ne!(moved, addr, "the neighbour forces a move");
        let (revived, live) = revived_and_live(&mut vee, &mut engine, &store, &clock, p, moved);
        assert_eq!(live, [7; 4]);
        assert_eq!(revived, live);
    }

    #[test]
    fn a_shrunk_then_regrown_page_revives_as_zeros() {
        let (mut vee, clock, mut engine, store) = session();
        let p = vee.spawn(None, "app").unwrap();
        let addr = vee.mmap(p, 2 * 4096, Prot::ReadWrite).unwrap();
        vee.mem_write(p, addr, &[7; 2 * 4096]).unwrap();
        engine.checkpoint(&mut vee).unwrap(); // full
        assert_eq!(vee.mremap(p, addr, 4096).unwrap(), Some(addr));
        engine.checkpoint(&mut vee).unwrap();
        assert_eq!(vee.mremap(p, addr, 2 * 4096).unwrap(), Some(addr));
        let (revived, live) =
            revived_and_live(&mut vee, &mut engine, &store, &clock, p, addr + 4096);
        assert_eq!(live, [0; 4]);
        assert_eq!(revived, live);
    }

    #[test]
    fn a_neighbour_grown_over_a_moved_away_range_revives_as_zeros() {
        let (mut vee, clock, mut engine, store) = session();
        let p = vee.spawn(None, "app").unwrap();
        let below = vee.mmap(p, 4096, Prot::ReadWrite).unwrap();
        let addr = vee.mmap(p, 4096, Prot::ReadWrite).unwrap();
        vee.mmap(p, 4096, Prot::ReadWrite).unwrap(); // In the way.
        vee.mem_write(p, addr, &[7; 4096]).unwrap();
        engine.checkpoint(&mut vee).unwrap(); // full
        assert_ne!(vee.mremap(p, addr, 3 * 4096).unwrap(), Some(addr));
        // `below` grows in place over the range `addr` left.
        assert_eq!(vee.mremap(p, below, 3 * 4096).unwrap(), Some(below));
        let (revived, live) = revived_and_live(&mut vee, &mut engine, &store, &clock, p, addr);
        assert_eq!(live, [0; 4]);
        assert_eq!(revived, live);
    }

    #[test]
    fn revive_to_intermediate_point_ignores_later_images() {
        let (mut vee, clock, mut engine, store) = session();
        let p = vee.spawn(None, "app").unwrap();
        let addr = vee.mmap(p, 4096, Prot::ReadWrite).unwrap();
        vee.mem_write(p, addr, b"v1").unwrap();
        engine.checkpoint(&mut vee).unwrap();
        vee.mem_write(p, addr, b"v2").unwrap();
        engine.checkpoint(&mut vee).unwrap();
        vee.mem_write(p, addr, b"v3").unwrap();
        engine.checkpoint(&mut vee).unwrap();

        let chain = engine.chain_for(2).unwrap();
        let (revived, _) = revive(
            &mut store.lock(),
            "ckpt",
            &chain,
            2,
            clock.shared(),
            revive_fs(),
            host_pids(),
            &NetworkPolicy::default(),
        )
        .unwrap();
        assert_eq!(revived.mem_read(p, addr, 2).unwrap(), b"v2");
    }

    #[test]
    fn external_tcp_reset_udp_and_localhost_kept() {
        let (mut vee, clock, mut engine, store) = session();
        let p = vee.spawn(None, "browser").unwrap();
        let web = vee.socket(p, Proto::Tcp).unwrap();
        vee.connect(p, web, "example.com", 443).unwrap();
        let db = vee.socket(p, Proto::Tcp).unwrap();
        vee.connect(p, db, "localhost", 5432).unwrap();
        let dns = vee.socket(p, Proto::Udp).unwrap();
        vee.connect(p, dns, "8.8.8.8", 53).unwrap();
        engine.checkpoint(&mut vee).unwrap();

        let chain = engine.chain_for(1).unwrap();
        let (mut revived, report) = revive(
            &mut store.lock(),
            "ckpt",
            &chain,
            2,
            clock.shared(),
            revive_fs(),
            host_pids(),
            &NetworkPolicy::default(),
        )
        .unwrap();
        assert_eq!(report.connections_reset, 1);
        // Web connection dropped: the app sees a reset, reconnect is
        // blocked while the network is disabled.
        assert_eq!(
            revived.send(p, web, 10),
            Err(dv_vee::VeeError::ConnectionReset)
        );
        // Localhost TCP and UDP connections kept.
        revived.send(p, db, 10).unwrap();
        revived.send(p, dns, 10).unwrap();
    }

    #[test]
    fn network_policy_applies_per_app() {
        let (mut vee, clock, mut engine, store) = session();
        vee.spawn(None, "mailer").unwrap();
        vee.spawn(None, "browser").unwrap();
        engine.checkpoint(&mut vee).unwrap();
        let mut policy = NetworkPolicy {
            default_enabled: true,
            ..NetworkPolicy::default()
        };
        policy.per_app.insert("mailer".into(), false);
        let chain = engine.chain_for(1).unwrap();
        let (revived, _) = revive(
            &mut store.lock(),
            "ckpt",
            &chain,
            2,
            clock.shared(),
            revive_fs(),
            host_pids(),
            &policy,
        )
        .unwrap();
        let mut by_name: Vec<(String, bool)> = revived
            .processes()
            .map(|p| (p.name.clone(), p.net_allowed))
            .collect();
        by_name.sort();
        assert_eq!(
            by_name,
            vec![("browser".to_string(), true), ("mailer".to_string(), false)]
        );
    }

    #[test]
    fn files_reopen_with_offsets_and_relinked_orphans() {
        let (mut vee, clock, mut engine, store) = session();
        let p = vee.spawn(None, "app").unwrap();
        vee.fs.write_all("/doc", b"hello world").unwrap();
        let fd = vee.open(p, "/doc").unwrap();
        vee.fd_read(p, fd, 6).unwrap(); // offset = 6
        vee.fs.write_all("/scratch", b"orphan contents").unwrap();
        let sfd = vee.open(p, "/scratch").unwrap();
        vee.unlink("/scratch").unwrap();
        engine.checkpoint(&mut vee).unwrap();

        // Build the revive fs view: for the test, a fresh Lsfs populated
        // from the live fs snapshot (the session manager normally mounts
        // a union over the snapshot). Simplest faithful stand-in: reuse
        // the same files by copying what the snapshot would contain.
        let mut view = Lsfs::new();
        view.write_all("/doc", b"hello world").unwrap();
        view.mkdir("/.dejaview").unwrap();
        view.write_all("/.dejaview/relink-1-0", b"orphan contents")
            .unwrap();

        let chain = engine.chain_for(1).unwrap();
        let (mut revived, report) = revive(
            &mut store.lock(),
            "ckpt",
            &chain,
            2,
            clock.shared(),
            Box::new(view),
            host_pids(),
            &NetworkPolicy::default(),
        )
        .unwrap();
        assert_eq!(report.files_reopened, 2);
        // Offset preserved: next read continues mid-file.
        assert_eq!(revived.fd_read(p, fd, 5).unwrap(), b"world");
        // The orphan reads through its fd but is unlinked again.
        assert_eq!(revived.fd_read(p, sfd, 6).unwrap(), b"orphan");
        assert!(!revived.fs.exists("/.dejaview/relink-1-0"));
    }

    #[test]
    fn missing_image_is_an_error() {
        let (_vee, clock, _engine, store) = session();
        let result = revive(
            &mut store.lock(),
            "ckpt",
            &[7],
            2,
            clock.shared(),
            revive_fs(),
            host_pids(),
            &NetworkPolicy::default(),
        );
        match result {
            Err(e) => assert_eq!(e, ReviveError::MissingImage(7)),
            Ok(_) => panic!("revive of a missing image must fail"),
        }
    }

    #[test]
    fn compressed_images_round_trip_through_revive() {
        let clock = SimClock::new();
        let mut vee = Vee::new(
            1,
            clock.shared(),
            Box::new(Lsfs::new()),
            HostPidAllocator::new(),
        );
        let config = EngineConfig {
            compress: true,
            ..EngineConfig::default()
        };
        let store = SharedBlobStore::in_memory();
        let pool = config.commit_pool(store.clone(), &clock);
        let mut engine = Checkpointer::new(config, pool, clock.clone());
        let p = vee.spawn(None, "app").unwrap();
        let addr = vee.mmap(p, 4096, Prot::ReadWrite).unwrap();
        vee.mem_write(p, addr, b"compressed state").unwrap();
        engine.checkpoint(&mut vee).unwrap();
        clock.advance(Duration::from_secs(1));
        let revive_first = || {
            let (revived, report) = revive(
                &mut store.lock(),
                "ckpt",
                &[1],
                2,
                clock.shared(),
                Box::new(Lsfs::new()),
                host_pids(),
                &NetworkPolicy::default(),
            )
            .unwrap();
            // Copied out of the plaintext, which the store does not hold.
            assert_eq!((report.pages_installed, report.pages_copied), (1, 1));
            revived.mem_read(p, addr, 16).unwrap()
        };
        assert_eq!(revive_first(), b"compressed state");

        // The engine stores one stream, its sections compressed one at
        // a time; the image compressed whole revives the same.
        let blob = engine.images().next().unwrap().blob.clone();
        let stored = store.lock().get(&blob).unwrap().to_vec();
        assert!(stored[0] <= 0x01, "one RLE stream");
        let whole = crate::compress::compress(&decompress(&stored).unwrap());
        store.lock().put(&blob, whole).unwrap();
        assert_eq!(revive_first(), b"compressed state");
    }

    mod streaming {
        //! The streaming `load_image` against the one it replaced.

        use std::sync::Arc;

        use proptest::prelude::*;

        use super::*;
        use crate::compress::{compress, RleCursor};
        use crate::image::{encode_image, encode_image_sections, ImageKind, SocketRecord};
        use dv_time::Timestamp;
        use dv_vee::{Credentials, FpuState, MemRegion, Page, Registers, SchedParams, PAGE_SIZE};

        /// `load_image` before it streamed: the whole plaintext, the
        /// plaintext decoder over it, then each kept page copied out of
        /// the plaintext.
        fn oracle_load(
            data: &Arc<Vec<u8>>,
            counter: u64,
            keep: impl FnMut(u64, u64) -> bool,
        ) -> Result<CheckpointImage, ReviveError> {
            if is_raw(data) {
                return decode_image_with(data, keep).map_err(ReviveError::BadImage);
            }
            let plaintext = decompress(data).ok_or(ReviveError::BadCompression(counter))?;
            let mut image =
                decode_image_with(&Arc::new(plaintext), keep).map_err(ReviveError::BadImage)?;
            for (_, page) in image.processes.iter_mut().flat_map(|p| &mut p.pages) {
                *page = Page::from(**page);
            }
            Ok(image)
        }

        struct Rng(u64);

        impl Rng {
            fn next(&mut self) -> u64 {
                self.0 ^= self.0 << 13;
                self.0 ^= self.0 >> 7;
                self.0 ^= self.0 << 17;
                self.0
            }

            fn below(&mut self, n: usize) -> usize {
                (self.next() % n.max(1) as u64) as usize
            }

            fn bytes(&mut self, n: usize) -> Vec<u8> {
                (0..n).map(|_| self.next() as u8).collect()
            }
        }

        /// A page of runs and noise whose tokens meet its edges every
        /// way. Addresses are page-aligned and small, so the byte after
        /// a page (an address's low byte) and the bytes before it (the
        /// last address's high bytes) are zero, and a zero run at either
        /// end reaches past the edge, one of `0xAA` stops at it, and
        /// one with its last byte changed stops a byte before it.
        fn edge_page(rng: &mut Rng) -> [u8; PAGE_SIZE] {
            let mut page = [0u8; PAGE_SIZE];
            let mut at = 0;
            while at < PAGE_SIZE {
                let n = (1 + rng.below(80)).min(PAGE_SIZE - at);
                if rng.below(2) == 0 {
                    page[at..at + n].fill([0, 0xAA, rng.next() as u8][rng.below(3)]);
                } else {
                    page[at..at + n].copy_from_slice(&rng.bytes(n));
                }
                at += n;
            }
            let b = [0, 0xAA][rng.below(2)];
            let len = [7, 8, 9, 40, PAGE_SIZE][rng.below(5)];
            match rng.below(4) {
                0 => page[PAGE_SIZE - len..].fill(b),
                1 => {
                    page[PAGE_SIZE - len..].fill(b);
                    page[PAGE_SIZE - 1] ^= 0x55;
                }
                2 => page[..len].fill(b),
                _ => {}
            }
            page
        }

        fn random_image(rng: &mut Rng) -> CheckpointImage {
            let processes = (0..1 + rng.below(3) as u64)
                .map(|vpid| {
                    let base = [0, 0x1000, 0x1_0000, 0x10_0000][rng.below(4)];
                    let pages: Vec<(u64, Page)> = (0..rng.below(7) as u64)
                        .map(|k| (base + k * PAGE_SIZE as u64, Page::from(edge_page(rng))))
                        .collect();
                    let fds = (0..rng.below(3) as u32)
                        .map(|fd| match rng.below(2) {
                            0 => FdRecord::Socket { fd, id: rng.next() },
                            _ => FdRecord::File {
                                fd,
                                path: format!("/f{}", rng.below(1000)),
                                offset: rng.next() % 10_000,
                                unlinked: rng.below(2) == 0,
                                relink: (rng.below(2) == 0).then(|| "/.dejaview/r".into()),
                            },
                        })
                        .collect();
                    ProcessRecord {
                        vpid,
                        parent: vpid.checked_sub(1),
                        name: format!("p{vpid}"),
                        regs: Registers {
                            pc: rng.next(),
                            sp: rng.next(),
                            gpr: [rng.next(); 8],
                        },
                        fpu: FpuState {
                            control: 0x37f,
                            st: [0; 8],
                        },
                        sched: SchedParams {
                            nice: 0,
                            rt_priority: 0,
                        },
                        creds: Credentials { uid: 1, gid: 1 },
                        blocked: 0,
                        handled: rng.next(),
                        pending: vec![rng.next() as u8; rng.below(3)],
                        ptraced_by: None,
                        cwd: "/".into(),
                        net_allowed: true,
                        regions: vec![MemRegion {
                            start: base,
                            len: (pages.len().max(1) * PAGE_SIZE) as u64,
                            prot: Prot::ReadWrite,
                        }],
                        pages,
                        fds,
                    }
                })
                .collect();
            let sockets = (0..rng.below(3) as u64)
                .map(|id| SocketRecord {
                    id,
                    proto: 0,
                    local_port: 80,
                    remote: (rng.below(2) == 0).then(|| ("peer".into(), 443)),
                    state: 1,
                    tx_bytes: rng.next(),
                    rx_bytes: 0,
                })
                .collect();
            CheckpointImage {
                counter: 2,
                time: Timestamp::from_secs(1),
                kind: ImageKind::Incremental { prev: 1 },
                hostname: "host".into(),
                network_enabled: true,
                processes,
                sockets,
            }
        }

        /// The stored forms of `plain`: raw, one stream of the whole,
        /// and streams of pieces cut at random plaintext offsets joined
        /// end to end (the engine's cuts, at section edges, are another
        /// form the caller adds).
        fn forms(plain: &[u8], rng: &mut Rng) -> Vec<Vec<u8>> {
            let mut cuts = vec![0, plain.len()];
            cuts.extend((0..rng.below(6)).map(|_| rng.below(plain.len() + 1)));
            cuts.sort_unstable();
            let joined = cuts
                .windows(2)
                .flat_map(|w| compress(&plain[w[0]..w[1]]))
                .collect();
            vec![plain.to_vec(), compress(plain), joined]
        }

        /// One to three bytes changed, half the time near the start,
        /// and half the time cut short.
        fn damage(mut bytes: Vec<u8>, rng: &mut Rng) -> Vec<u8> {
            for _ in 0..1 + rng.below(3) {
                let at = if rng.below(2) == 0 {
                    rng.below(64)
                } else {
                    rng.below(bytes.len())
                };
                if let Some(b) = bytes.get_mut(at) {
                    *b = rng.next() as u8;
                }
            }
            if rng.below(2) == 0 {
                bytes.truncate(rng.below(bytes.len() + 1));
            }
            bytes
        }

        /// Both decoders give the same image, with the same kept pages
        /// and regions, or refuse `blob` with the same error; a kept
        /// page of a compressed image is a buffer of its own.
        fn same_as_oracle(blob: Vec<u8>, keep: impl Fn(u64, u64) -> bool) -> Result<(), String> {
            // A changed length byte can declare up to a GiB, which the
            // oracle would build; the limit itself is tested in
            // `compress`.
            let mut cursor = RleCursor::new(&blob);
            cursor.drain();
            if cursor.declared() > 1 << 20 {
                return Ok(());
            }
            let data = Arc::new(blob);
            let mut store = BlobStore::in_memory();
            store.put("img-00000002", data.to_vec()).unwrap();
            let got = load_image(&mut store, "img", 2, &keep);
            let want = oracle_load(&data, 2, &keep);
            match (got, want) {
                (Ok(got), Ok(want)) => {
                    prop_assert_eq!(encode_image(&got), encode_image(&want));
                    let compressed = !is_raw(&data);
                    let pages = got.processes.iter().flat_map(|p| &p.pages);
                    for (_, page) in pages {
                        prop_assert_eq!(page.in_image_buffer(), !compressed);
                    }
                }
                (got, want) => prop_assert_eq!(got.err(), want.err()),
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// The streaming `load_image` is the old one: over random
            /// images and keep filters, raw, whole-stream and
            /// joined-stream forms, tokens meeting page edges every way, and damaged
            /// forms — compressed bytes changed or cut, or plaintext
            /// changed or cut under a valid stream.
            #[test]
            fn streaming_load_matches_decompress_then_decode(seed in any::<u64>()) {
                let mut rng = Rng(seed | 1);
                let image = random_image(&mut rng);
                let plain = encode_image(&image);
                let engine_form: Vec<u8> =
                    encode_image_sections(&image).iter().flat_map(|s| compress(s)).collect();
                let mut blobs = forms(&plain, &mut rng);
                blobs.push(engine_form.clone());
                for _ in 0..8 {
                    blobs.push(damage(engine_form.clone(), &mut rng));
                    let plain = damage(plain.clone(), &mut rng);
                    blobs.extend(forms(&plain, &mut rng).into_iter().skip(1));
                }
                let blobs: Vec<Vec<u8>> = blobs.iter().flat_map(|b| [b.clone(), damage(b.clone(), &mut rng)]).collect();
                for blob in blobs {
                    let (mode, salt) = (rng.below(3), rng.next());
                    same_as_oracle(blob, move |vpid, addr| match mode {
                        0 => false,
                        1 => true,
                        _ => (vpid ^ addr >> 12 ^ salt).count_ones() % 2 == 0,
                    })?;
                }
            }
        }
    }
}
