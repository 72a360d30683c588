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

use dv_lsfs::{BlobStore, Filesystem, FsError};
use dv_time::SharedClock;
use dv_vee::{
    FdObject, HostPidAllocator, PageBuf, Process, Proto, RunState, Signal, SockState, Socket,
    SocketTable, Vee, Vpid,
};

use crate::compress::decompress;
use crate::engine::Checkpointer;
use crate::image::{decode_image, CheckpointImage, FdRecord, ImageError, MAGIC};

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
    /// Pages installed.
    pub pages_installed: usize,
    /// TCP connections reset.
    pub connections_reset: usize,
    /// Files reopened.
    pub files_reopened: usize,
}

/// The encoded image inside a stored blob, which describes itself: a
/// raw image opens with its `DVCKPT01` magic, and anything else is
/// compressed — a chunked container, or the bare stream older archives
/// hold, neither of which can start with that magic's `D`.
fn image_plaintext(counter: u64, data: &[u8]) -> Result<Cow<'_, [u8]>, ReviveError> {
    if data.starts_with(MAGIC) {
        Ok(Cow::Borrowed(data))
    } else {
        decompress(data)
            .map(Cow::Owned)
            .ok_or(ReviveError::BadCompression(counter))
    }
}

/// Loads and decodes one image blob.
pub fn load_image(
    store: &mut BlobStore,
    blob_prefix: &str,
    counter: u64,
) -> Result<CheckpointImage, ReviveError> {
    let blob = format!("{blob_prefix}-{counter:08}");
    let data = store.get(&blob).ok_or(ReviveError::MissingImage(counter))?;
    decode_image(&image_plaintext(counter, &data)?).map_err(ReviveError::BadImage)
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
    mut fs: Box<dyn Filesystem>,
    host_pids: HostPidAllocator,
    policy: &NetworkPolicy,
) -> Result<(Vee, ReviveReport), ReviveError> {
    assert!(!chain.is_empty(), "revive needs at least one image");
    let mut report = ReviveReport::default();

    // Read every image in the chain; the newest version of each page
    // wins ("reiterating this sequence as necessary, until the complete
    // state of the desktop session has been reinstated").
    let mut images = Vec::with_capacity(chain.len());
    for &counter in chain {
        images.push(load_image(store, blob_prefix, counter)?);
        report.images_loaded += 1;
    }
    let target = images.last().expect("non-empty chain");

    // Page resolution: walk oldest -> newest, newer pages overwrite.
    let mut page_map: HashMap<(u64, u64), Arc<PageBuf>> = HashMap::new();
    for image in &images {
        for proc_rec in &image.processes {
            for (addr, page) in &proc_rec.pages {
                page_map.insert((proc_rec.vpid, *addr), page.clone());
            }
        }
    }

    // Restore sockets with the reset policy.
    let mut sockets = SocketTable::new();
    for s in &target.sockets {
        let proto = if s.proto == 0 { Proto::Tcp } else { Proto::Udp };
        let mut state = match s.state {
            1 => SockState::Connected,
            2 => SockState::Reset,
            _ => SockState::Unconnected,
        };
        let external = match &s.remote {
            Some((host, _)) => host != "localhost" && host != "127.0.0.1",
            None => false,
        };
        // Stateful external connections are dropped; internal and
        // stateless sockets restore precisely.
        if proto == Proto::Tcp && external && state == SockState::Connected {
            state = SockState::Reset;
            report.connections_reset += 1;
        }
        sockets.install(Socket {
            id: s.id,
            proto,
            local_port: s.local_port,
            remote: s.remote.clone(),
            state,
            tx_bytes: s.tx_bytes,
            rx_bytes: s.rx_bytes,
        });
    }

    // Recreate the process forest. Files are reopened against the
    // restored file system view; relinked orphans are reopened from
    // their hidden names and immediately unlinked again, restoring
    // checkpoint-time state.
    let mut restored_processes = Vec::with_capacity(target.processes.len());
    for proc_rec in &target.processes {
        let host_pid = host_pids.allocate();
        let mut process = Process::new(
            Vpid(proc_rec.vpid),
            host_pid,
            proc_rec.parent.map(Vpid),
            &proc_rec.name,
        );
        process.regs = proc_rec.regs;
        process.fpu = proc_rec.fpu;
        process.sched = proc_rec.sched;
        process.creds = proc_rec.creds;
        process.signals.blocked = proc_rec.blocked;
        process.signals.handled = proc_rec.handled;
        for sig in &proc_rec.pending {
            if let Some(sig) = Signal::from_u8(*sig) {
                process.signals.pending.push_back(sig);
            }
        }
        process.ptraced_by = proc_rec.ptraced_by.map(Vpid);
        process.cwd = proc_rec.cwd.clone();
        process.net_allowed = policy.allows(&proc_rec.name);
        process.state = RunState::Runnable;

        for region in &proc_rec.regions {
            process.mem.install_region(region.clone());
        }
        for region in &proc_rec.regions {
            let mut addr = region.start;
            while addr < region.end() {
                if let Some(page) = page_map.get(&(proc_rec.vpid, addr)) {
                    process.mem.install_page(addr, page.clone());
                    report.pages_installed += 1;
                }
                addr += dv_vee::PAGE_SIZE as u64;
            }
        }

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
        restored_processes.push(process);
        report.processes += 1;
    }

    // Assemble the new virtual execution environment.
    let mut vee = Vee::new(vee_id, clock, fs, host_pids);
    vee.namespace.hostname = target.hostname.clone();
    vee.set_network_enabled(policy.default_enabled);
    vee.net_default = policy.new_apps_enabled;
    vee.sockets = sockets;
    for process in restored_processes {
        vee.install_process(process);
    }
    Ok((vee, report))
}

/// FNV-1a over `bytes`, folded into `hash`.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
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
    let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;
    let mut last = None;
    for meta in engine.images() {
        let data = store
            .get(&meta.blob)
            .ok_or(ReviveError::MissingImage(meta.counter))?;
        fnv1a(&mut fingerprint, &meta.counter.to_le_bytes());
        fnv1a(&mut fingerprint, &image_plaintext(meta.counter, &data)?);
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
        fnv1a(&mut fingerprint, &vpid.0.to_le_bytes());
        fnv1a(&mut fingerprint, &memory);
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
        let engine = Checkpointer::with_sim_clock(
            EngineConfig {
                full_every: 3,
                ..EngineConfig::default()
            },
            clock.clone(),
        );
        (vee, clock, engine, SharedBlobStore::in_memory())
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
        engine.checkpoint(&mut vee, &store).unwrap();
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
        engine.checkpoint(&mut vee, &store).unwrap(); // full (1)
        vee.mem_write(p, addr + 4096, &[2u8; 4096]).unwrap();
        engine.checkpoint(&mut vee, &store).unwrap(); // inc (2)
        vee.mem_write(p, addr + 2 * 4096, &[3u8; 4096]).unwrap();
        engine.checkpoint(&mut vee, &store).unwrap(); // inc (3)

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
    }

    #[test]
    fn revive_to_intermediate_point_ignores_later_images() {
        let (mut vee, clock, mut engine, store) = session();
        let p = vee.spawn(None, "app").unwrap();
        let addr = vee.mmap(p, 4096, Prot::ReadWrite).unwrap();
        vee.mem_write(p, addr, b"v1").unwrap();
        engine.checkpoint(&mut vee, &store).unwrap();
        vee.mem_write(p, addr, b"v2").unwrap();
        engine.checkpoint(&mut vee, &store).unwrap();
        vee.mem_write(p, addr, b"v3").unwrap();
        engine.checkpoint(&mut vee, &store).unwrap();

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
        engine.checkpoint(&mut vee, &store).unwrap();

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
        engine.checkpoint(&mut vee, &store).unwrap();
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
        engine.checkpoint(&mut vee, &store).unwrap();

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
        let mut engine = Checkpointer::with_sim_clock(
            EngineConfig {
                compress: true,
                ..EngineConfig::default()
            },
            clock.clone(),
        );
        let store = SharedBlobStore::in_memory();
        let p = vee.spawn(None, "app").unwrap();
        let addr = vee.mmap(p, 4096, Prot::ReadWrite).unwrap();
        vee.mem_write(p, addr, b"compressed state").unwrap();
        engine.checkpoint(&mut vee, &store).unwrap();
        clock.advance(Duration::from_secs(1));
        let revive_first = || {
            let (revived, _) = revive(
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
            revived.mem_read(p, addr, 16).unwrap()
        };
        assert_eq!(revive_first(), b"compressed state");

        // The same image as older archives hold it: one bare stream,
        // no container around it.
        let blob = engine.images().next().unwrap().blob.clone();
        let stored = store.lock().get(&blob).unwrap().to_vec();
        assert_eq!(stored[0], 0x02, "the engine stores a chunked container");
        let bare = crate::compress::compress(&decompress(&stored).unwrap());
        assert!(bare[0] <= 0x01);
        store.lock().put(&blob, bare).unwrap();
        assert_eq!(revive_first(), b"compressed state");
    }
}
