//! The virtual execution environment (VEE).
//!
//! A [`Vee`] is one Zap-style container (§3, §5): a private namespace, a
//! process forest, a socket table, and a file system view, decoupled
//! from "host" resources so the whole session can be checkpointed and
//! later revived — possibly several times, concurrently — without name
//! conflicts. Its methods are the session's syscall layer: processes,
//! memory, files, sockets, signals.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use std::collections::BTreeMap;

use dv_lsfs::{Filesystem, FsError};
use dv_time::{Duration, SharedClock};

use crate::files::FdObject;
use crate::memory::{MemFault, Prot};
use crate::namespace::Namespace;
use crate::process::{Process, RunState, Signal, Vpid};
use crate::sockets::{Proto, SockState, SocketTable};

/// Allocator for host PIDs, shared across all VEEs on one "machine".
#[derive(Clone, Debug, Default)]
pub struct HostPidAllocator {
    next: Arc<AtomicU64>,
}

impl HostPidAllocator {
    /// Creates an allocator starting at host PID 1000.
    pub fn new() -> Self {
        HostPidAllocator {
            next: Arc::new(AtomicU64::new(1000)),
        }
    }

    /// Allocates the next host PID.
    fn allocate(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }
}

/// Errors from the VEE syscall layer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VeeError {
    /// No process with that virtual PID.
    NoSuchProcess,
    /// No such descriptor.
    BadFd,
    /// The descriptor is not a file.
    NotAFile,
    /// The descriptor is not a socket.
    NotASocket,
    /// A file system error.
    Fs(FsError),
    /// A memory fault.
    Mem(MemFault),
    /// External network access is disabled for this process/session.
    NetworkDisabled,
    /// The socket's connection was reset (revive dropped it).
    ConnectionReset,
    /// The socket is not connected.
    NotConnected,
}

impl fmt::Display for VeeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VeeError::NoSuchProcess => write!(f, "no such process"),
            VeeError::BadFd => write!(f, "bad file descriptor"),
            VeeError::NotAFile => write!(f, "not a file"),
            VeeError::NotASocket => write!(f, "not a socket"),
            VeeError::Fs(e) => write!(f, "file system: {e}"),
            VeeError::Mem(m) => write!(f, "memory fault: {m:?}"),
            VeeError::NetworkDisabled => write!(f, "network access disabled"),
            VeeError::ConnectionReset => write!(f, "connection reset"),
            VeeError::NotConnected => write!(f, "socket not connected"),
        }
    }
}

impl std::error::Error for VeeError {}

impl From<FsError> for VeeError {
    fn from(e: FsError) -> Self {
        VeeError::Fs(e)
    }
}

impl From<MemFault> for VeeError {
    fn from(e: MemFault) -> Self {
        VeeError::Mem(e)
    }
}

/// Result alias for VEE operations.
pub type VeeResult<T> = Result<T, VeeError>;

/// One virtual execution environment.
pub struct Vee {
    /// Environment id (unique per server).
    pub id: u64,
    clock: SharedClock,
    /// The private namespace.
    pub namespace: Namespace,
    processes: BTreeMap<Vpid, Process>,
    /// The session socket table.
    pub sockets: SocketTable,
    /// The session file system view (log-structured for the live
    /// session, a union branch for revived ones).
    pub fs: Box<dyn Filesystem>,
    host_pids: HostPidAllocator,
    network_enabled: bool,
    /// Default network permission for newly spawned processes.
    pub net_default: bool,
}

impl Vee {
    /// Creates an empty environment over the given file system view.
    pub fn new(
        id: u64,
        clock: SharedClock,
        fs: Box<dyn Filesystem>,
        host_pids: HostPidAllocator,
    ) -> Self {
        Vee {
            id,
            clock,
            namespace: Namespace::new(&format!("dejaview-{id}")),
            processes: BTreeMap::new(),
            sockets: SocketTable::new(),
            fs,
            host_pids,
            network_enabled: true,
            net_default: true,
        }
    }

    /// Returns the session clock.
    pub fn clock(&self) -> SharedClock {
        self.clock.clone()
    }

    /// Returns whether external network access is enabled session-wide.
    pub fn network_enabled(&self) -> bool {
        self.network_enabled
    }

    /// Enables or disables external network access for the session.
    pub fn set_network_enabled(&mut self, enabled: bool) {
        self.network_enabled = enabled;
    }

    // ----- processes ---------------------------------------------------

    /// Spawns a process. With a parent, the child forks the parent's
    /// address space (shared copy-on-write pages, like `fork`).
    pub fn spawn(&mut self, parent: Option<Vpid>, name: &str) -> VeeResult<Vpid> {
        let host_pid = self.host_pids.allocate();
        let vpid = self.namespace.allocate_vpid(host_pid);
        let mut process = Process::new(vpid, host_pid, parent, name);
        process.net_allowed = self.net_default;
        if let Some(parent_vpid) = parent {
            let parent_proc = self
                .processes
                .get(&parent_vpid)
                .ok_or(VeeError::NoSuchProcess)?;
            process.mem = parent_proc.mem.clone();
            process.creds = parent_proc.creds;
            process.sched = parent_proc.sched;
            process.cwd = parent_proc.cwd.clone();
            process.net_allowed = parent_proc.net_allowed;
        }
        self.processes.insert(vpid, process);
        Ok(vpid)
    }

    /// Terminates a process: closes its files, removes its sockets, and
    /// releases its virtual PID.
    pub fn exit(&mut self, vpid: Vpid) -> VeeResult<()> {
        let process = self
            .processes
            .remove(&vpid)
            .ok_or(VeeError::NoSuchProcess)?;
        for (_, obj) in process.fds.iter() {
            match obj {
                FdObject::File { handle, .. } => {
                    let _ = self.fs.close(*handle);
                }
                FdObject::Socket { id } => {
                    self.sockets.remove(*id);
                }
            }
        }
        self.namespace.release_vpid(vpid);
        Ok(())
    }

    /// Returns a process.
    pub fn process(&self, vpid: Vpid) -> VeeResult<&Process> {
        self.processes.get(&vpid).ok_or(VeeError::NoSuchProcess)
    }

    /// Returns a process mutably.
    pub fn process_mut(&mut self, vpid: Vpid) -> VeeResult<&mut Process> {
        self.processes.get_mut(&vpid).ok_or(VeeError::NoSuchProcess)
    }

    /// Iterates processes in vpid order.
    pub fn processes(&self) -> impl Iterator<Item = &Process> {
        self.processes.values()
    }

    /// Returns the number of processes.
    pub fn process_count(&self) -> usize {
        self.processes.len()
    }

    /// Installs a restored process (revive path).
    pub fn install_process(&mut self, process: Process) {
        let host_pid = process.host_pid;
        self.namespace.bind_vpid(process.vpid, host_pid);
        self.processes.insert(process.vpid, process);
    }

    /// Allocates a host PID from the shared allocator.
    pub fn allocate_host_pid(&self) -> u64 {
        self.host_pids.allocate()
    }

    /// Replaces a process's program image (`execve`): new name, reset
    /// registers and FPU state, fresh address space; descriptors stay
    /// open (no close-on-exec modelling) and credentials persist.
    #[cfg(test)]
    fn exec(&mut self, vpid: Vpid, name: &str) -> VeeResult<()> {
        let process = self
            .processes
            .get_mut(&vpid)
            .ok_or(VeeError::NoSuchProcess)?;
        process.name = name.to_string();
        process.regs = crate::process::Registers::default();
        process.fpu = crate::process::FpuState::default();
        process.mem = crate::memory::AddressSpace::new();
        Ok(())
    }

    /// Changes a process's working directory.
    #[cfg(test)]
    fn chdir(&mut self, vpid: Vpid, path: &str) -> VeeResult<()> {
        match self.fs.stat(path) {
            Ok(meta) if meta.ftype == dv_lsfs::FileType::Directory => {}
            Ok(_) => return Err(VeeError::Fs(FsError::NotADirectory)),
            Err(e) => return Err(VeeError::Fs(e)),
        }
        let process = self
            .processes
            .get_mut(&vpid)
            .ok_or(VeeError::NoSuchProcess)?;
        process.cwd = path.to_string();
        Ok(())
    }

    // ----- signals and run states --------------------------------------

    /// Sends a signal. Processes in uninterruptible sleep queue it and
    /// handle it on wake (§5.1.2's pre-quiesce concern).
    pub fn send_signal(&mut self, vpid: Vpid, sig: Signal) -> VeeResult<()> {
        let process = self
            .processes
            .get_mut(&vpid)
            .ok_or(VeeError::NoSuchProcess)?;
        if !process.signal_ready() || process.signals.is_blocked(sig) {
            process.signals.pending.push_back(sig);
            return Ok(());
        }
        Self::deliver(process, sig);
        Ok(())
    }

    fn deliver(process: &mut Process, sig: Signal) {
        match sig {
            Signal::Stop => {
                if process.state == RunState::Runnable {
                    process.state = RunState::Stopped;
                }
            }
            Signal::Cont => {
                if process.state == RunState::Stopped {
                    process.state = RunState::Runnable;
                }
            }
            Signal::Kill | Signal::Term => {
                process.state = RunState::Zombie;
            }
            // Default action for the rest: queue for the app's handler;
            // the simulation does not model user handlers running.
            other => process.signals.pending.push_back(other),
        }
    }

    /// Blocks or unblocks a signal for a process. Unblocking delivers
    /// any pending instances of the signal immediately, as `sigprocmask`
    /// semantics require.
    #[cfg(test)]
    fn set_signal_blocked(&mut self, vpid: Vpid, sig: Signal, blocked: bool) -> VeeResult<()> {
        let process = self
            .processes
            .get_mut(&vpid)
            .ok_or(VeeError::NoSuchProcess)?;
        process.signals.set_blocked(sig, blocked);
        if !blocked && process.signal_ready() {
            // Drain first: delivery of a queued-default signal re-queues
            // it, which must not be re-examined in this pass.
            let drained: Vec<Signal> = process.signals.pending.drain(..).collect();
            for pending in drained {
                if pending == sig {
                    Self::deliver(process, pending);
                } else {
                    process.signals.pending.push_back(pending);
                }
            }
        }
        Ok(())
    }

    /// Puts a process into uninterruptible (disk) sleep for `d`.
    pub fn enter_disk_sleep(&mut self, vpid: Vpid, d: Duration) -> VeeResult<()> {
        let until = self.clock.now() + d;
        let process = self
            .processes
            .get_mut(&vpid)
            .ok_or(VeeError::NoSuchProcess)?;
        process.state = RunState::DiskSleep { until };
        Ok(())
    }

    /// Advances run states to the current session time: disk sleepers
    /// whose I/O completed become runnable and handle queued signals.
    pub fn tick(&mut self) {
        let now = self.clock.now();
        for process in self.processes.values_mut() {
            if let RunState::DiskSleep { until } = process.state {
                if now >= until {
                    process.state = RunState::Runnable;
                    while let Some(sig) = process.signals.pending.pop_front() {
                        Self::deliver(process, sig);
                        if process.state != RunState::Runnable {
                            break;
                        }
                    }
                }
            }
        }
    }

    /// Returns whether every process can promptly handle signals.
    pub fn all_signal_ready(&self) -> bool {
        self.processes.values().all(Process::signal_ready)
    }

    /// Returns whether every process is stopped.
    #[cfg(test)]
    fn all_stopped(&self) -> bool {
        self.processes
            .values()
            .all(|p| p.state == RunState::Stopped || p.state == RunState::Zombie)
    }

    /// Sends SIGSTOP to every process.
    pub fn stop_all(&mut self) {
        let vpids: Vec<Vpid> = self.processes.keys().copied().collect();
        for vpid in vpids {
            let _ = self.send_signal(vpid, Signal::Stop);
        }
    }

    /// Sends SIGCONT to every process.
    #[cfg(test)]
    fn resume_all(&mut self) {
        let vpids: Vec<Vpid> = self.processes.keys().copied().collect();
        for vpid in vpids {
            let _ = self.send_signal(vpid, Signal::Cont);
        }
    }

    // ----- memory syscalls ----------------------------------------------

    /// `mmap` for a process.
    pub fn mmap(&mut self, vpid: Vpid, len: u64, prot: Prot) -> VeeResult<u64> {
        Ok(self.process_mut(vpid)?.mem.mmap(len, prot))
    }

    /// `munmap` for a process.
    pub fn munmap(&mut self, vpid: Vpid, addr: u64, len: u64) -> VeeResult<bool> {
        Ok(self.process_mut(vpid)?.mem.munmap(addr, len))
    }

    /// `mprotect` for a process.
    pub fn mprotect(&mut self, vpid: Vpid, addr: u64, prot: Prot) -> VeeResult<bool> {
        Ok(self.process_mut(vpid)?.mem.mprotect(addr, prot))
    }

    /// `mremap` for a process; returns the region's (possibly moved)
    /// start address.
    pub fn mremap(&mut self, vpid: Vpid, addr: u64, new_len: u64) -> VeeResult<Option<u64>> {
        Ok(self.process_mut(vpid)?.mem.mremap(addr, new_len))
    }

    /// Writes process memory.
    pub fn mem_write(&mut self, vpid: Vpid, addr: u64, data: &[u8]) -> VeeResult<()> {
        self.process_mut(vpid)?.mem.write(addr, data)?;
        Ok(())
    }

    /// Reads process memory.
    pub fn mem_read(&self, vpid: Vpid, addr: u64, len: usize) -> VeeResult<Vec<u8>> {
        Ok(self.process(vpid)?.mem.read(addr, len)?)
    }

    // ----- file syscalls -------------------------------------------------

    /// Opens a file, returning a descriptor.
    pub fn open(&mut self, vpid: Vpid, path: &str) -> VeeResult<u32> {
        self.process(vpid)?;
        let handle = self.fs.open(path)?;
        let fd = self.process_mut(vpid)?.fds.insert(FdObject::File {
            path: path.to_string(),
            handle,
            offset: 0,
            unlinked: false,
        });
        Ok(fd)
    }

    /// Writes at the descriptor's offset, advancing it.
    pub fn fd_write(&mut self, vpid: Vpid, fd: u32, data: &[u8]) -> VeeResult<usize> {
        let (handle, offset) = match self.process(vpid)?.fds.get(fd) {
            Some(FdObject::File { handle, offset, .. }) => (*handle, *offset),
            Some(FdObject::Socket { .. }) => return Err(VeeError::NotAFile),
            None => return Err(VeeError::BadFd),
        };
        self.fs.write_handle(handle, offset, data)?;
        if let Some(FdObject::File { offset, .. }) = self.process_mut(vpid)?.fds.get_mut(fd) {
            *offset += data.len() as u64;
        }
        Ok(data.len())
    }

    /// Reads at the descriptor's offset, advancing it.
    pub fn fd_read(&mut self, vpid: Vpid, fd: u32, len: usize) -> VeeResult<Vec<u8>> {
        let (handle, offset) = match self.process(vpid)?.fds.get(fd) {
            Some(FdObject::File { handle, offset, .. }) => (*handle, *offset),
            Some(FdObject::Socket { .. }) => return Err(VeeError::NotAFile),
            None => return Err(VeeError::BadFd),
        };
        let data = self.fs.read_handle(handle, offset, len)?;
        if let Some(FdObject::File { offset, .. }) = self.process_mut(vpid)?.fds.get_mut(fd) {
            *offset += data.len() as u64;
        }
        Ok(data)
    }

    /// Repositions a descriptor's offset.
    #[cfg(test)]
    fn fd_seek(&mut self, vpid: Vpid, fd: u32, pos: u64) -> VeeResult<()> {
        match self.process_mut(vpid)?.fds.get_mut(fd) {
            Some(FdObject::File { offset, .. }) => {
                *offset = pos;
                Ok(())
            }
            Some(FdObject::Socket { .. }) => Err(VeeError::NotAFile),
            None => Err(VeeError::BadFd),
        }
    }

    /// Closes a descriptor.
    #[cfg(test)]
    fn close_fd(&mut self, vpid: Vpid, fd: u32) -> VeeResult<()> {
        let obj = self
            .process_mut(vpid)?
            .fds
            .remove(fd)
            .ok_or(VeeError::BadFd)?;
        match obj {
            FdObject::File { handle, .. } => {
                self.fs.close(handle)?;
                Ok(())
            }
            FdObject::Socket { id } => {
                self.sockets.remove(id);
                Ok(())
            }
        }
    }

    /// Unlinks a path, marking any descriptor open on it (in any
    /// process) as referring to an unlinked file — the state the
    /// checkpoint engine's relink pass looks for.
    pub fn unlink(&mut self, path: &str) -> VeeResult<()> {
        self.fs.unlink(path)?;
        for process in self.processes.values_mut() {
            for (_, obj) in process.fds.iter_mut() {
                if let FdObject::File {
                    path: open_path,
                    unlinked,
                    ..
                } = obj
                {
                    if open_path == path {
                        *unlinked = true;
                    }
                }
            }
        }
        Ok(())
    }

    // ----- socket syscalls -------------------------------------------------

    /// Creates a socket, returning a descriptor.
    pub fn socket(&mut self, vpid: Vpid, proto: Proto) -> VeeResult<u32> {
        self.process(vpid)?;
        let id = self.sockets.create(proto);
        Ok(self.process_mut(vpid)?.fds.insert(FdObject::Socket { id }))
    }

    fn socket_id(&self, vpid: Vpid, fd: u32) -> VeeResult<u64> {
        match self.process(vpid)?.fds.get(fd) {
            Some(FdObject::Socket { id }) => Ok(*id),
            Some(FdObject::File { .. }) => Err(VeeError::NotASocket),
            None => Err(VeeError::BadFd),
        }
    }

    /// Connects a socket to `host:port`; external destinations honour
    /// the network policy.
    pub fn connect(&mut self, vpid: Vpid, fd: u32, host: &str, port: u16) -> VeeResult<()> {
        let id = self.socket_id(vpid, fd)?;
        let external = host != "localhost" && host != "127.0.0.1";
        if external && (!self.network_enabled || !self.process(vpid)?.net_allowed) {
            return Err(VeeError::NetworkDisabled);
        }
        let socket = self.sockets.get_mut(id).ok_or(VeeError::BadFd)?;
        socket.remote = Some((host.to_string(), port));
        socket.state = SockState::Connected;
        Ok(())
    }

    /// Sends on a connected socket. A reset socket errors once, then
    /// reports not-connected (the app sees a dropped connection and may
    /// reconnect).
    pub fn send(&mut self, vpid: Vpid, fd: u32, len: u64) -> VeeResult<()> {
        let id = self.socket_id(vpid, fd)?;
        let socket = self.sockets.get_mut(id).ok_or(VeeError::BadFd)?;
        match socket.state {
            SockState::Connected => {
                socket.tx_bytes += len;
                Ok(())
            }
            SockState::Reset => {
                socket.state = SockState::Unconnected;
                socket.remote = None;
                Err(VeeError::ConnectionReset)
            }
            SockState::Unconnected => Err(VeeError::NotConnected),
        }
    }

    /// Records received bytes on a connected socket.
    pub fn receive(&mut self, vpid: Vpid, fd: u32, len: u64) -> VeeResult<()> {
        let id = self.socket_id(vpid, fd)?;
        let socket = self.sockets.get_mut(id).ok_or(VeeError::BadFd)?;
        match socket.state {
            SockState::Connected => {
                socket.rx_bytes += len;
                Ok(())
            }
            SockState::Reset => {
                socket.state = SockState::Unconnected;
                socket.remote = None;
                Err(VeeError::ConnectionReset)
            }
            SockState::Unconnected => Err(VeeError::NotConnected),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv_lsfs::Lsfs;
    use dv_time::SimClock;

    fn vee() -> (Vee, SimClock) {
        let clock = SimClock::new();
        let vee = Vee::new(
            1,
            clock.shared(),
            Box::new(Lsfs::new()),
            HostPidAllocator::new(),
        );
        (vee, clock)
    }

    #[test]
    fn spawn_forest_and_fork_memory() {
        let (mut vee, _clock) = vee();
        let init = vee.spawn(None, "init").unwrap();
        let addr = vee.mmap(init, 8192, Prot::ReadWrite).unwrap();
        vee.mem_write(init, addr, b"inherited").unwrap();
        let child = vee.spawn(Some(init), "worker").unwrap();
        assert_eq!(vee.mem_read(child, addr, 9).unwrap(), b"inherited");
        // Child writes diverge (COW fork).
        vee.mem_write(child, addr, b"CHANGED!!").unwrap();
        assert_eq!(vee.mem_read(init, addr, 9).unwrap(), b"inherited");
        assert_eq!(vee.process(child).unwrap().parent, Some(init));
        assert_eq!(vee.process_count(), 2);
    }

    #[test]
    fn file_descriptor_io() {
        let (mut vee, _clock) = vee();
        let p = vee.spawn(None, "app").unwrap();
        vee.fs.write_all("/data", b"hello world").unwrap();
        let fd = vee.open(p, "/data").unwrap();
        assert_eq!(vee.fd_read(p, fd, 5).unwrap(), b"hello");
        assert_eq!(vee.fd_read(p, fd, 6).unwrap(), b" world");
        vee.fd_seek(p, fd, 0).unwrap();
        vee.fd_write(p, fd, b"HELLO").unwrap();
        vee.close_fd(p, fd).unwrap();
        assert_eq!(vee.fs.read_all("/data").unwrap(), b"HELLO world");
    }

    #[test]
    fn unlink_marks_open_descriptors() {
        let (mut vee, _clock) = vee();
        let p = vee.spawn(None, "app").unwrap();
        vee.fs.write_all("/tmp_file", b"x").unwrap();
        let fd = vee.open(p, "/tmp_file").unwrap();
        vee.unlink("/tmp_file").unwrap();
        match vee.process(p).unwrap().fds.get(fd).unwrap() {
            FdObject::File { unlinked, .. } => assert!(unlinked),
            other => panic!("expected file, got {other:?}"),
        }
        // Content still readable through the fd.
        assert_eq!(vee.fd_read(p, fd, 1).unwrap(), b"x");
    }

    #[test]
    fn signals_stop_and_continue() {
        let (mut vee, _clock) = vee();
        let p = vee.spawn(None, "app").unwrap();
        vee.send_signal(p, Signal::Stop).unwrap();
        assert_eq!(vee.process(p).unwrap().state, RunState::Stopped);
        assert!(vee.all_stopped());
        vee.send_signal(p, Signal::Cont).unwrap();
        assert_eq!(vee.process(p).unwrap().state, RunState::Runnable);
    }

    #[test]
    fn blocked_signals_deliver_on_unblock() {
        let (mut vee, _clock) = vee();
        let p = vee.spawn(None, "app").unwrap();
        vee.set_signal_blocked(p, Signal::Stop, true).unwrap();
        vee.send_signal(p, Signal::Stop).unwrap();
        // Blocked: still running, signal pending.
        assert_eq!(vee.process(p).unwrap().state, RunState::Runnable);
        assert_eq!(vee.process(p).unwrap().signals.pending.len(), 1);
        // Unblocking delivers it.
        vee.set_signal_blocked(p, Signal::Stop, false).unwrap();
        assert_eq!(vee.process(p).unwrap().state, RunState::Stopped);
        assert!(vee.process(p).unwrap().signals.pending.is_empty());
    }

    #[test]
    fn unblocking_keeps_other_pending_signals() {
        let (mut vee, _clock) = vee();
        let p = vee.spawn(None, "app").unwrap();
        vee.set_signal_blocked(p, Signal::Usr1, true).unwrap();
        vee.set_signal_blocked(p, Signal::Usr2, true).unwrap();
        vee.send_signal(p, Signal::Usr1).unwrap();
        vee.send_signal(p, Signal::Usr2).unwrap();
        vee.set_signal_blocked(p, Signal::Usr1, false).unwrap();
        // Usr1 moved to the handled queue (default action re-queues it
        // for the app); Usr2 stays pending-blocked.
        let pending: Vec<Signal> = vee
            .process(p)
            .unwrap()
            .signals
            .pending
            .iter()
            .copied()
            .collect();
        assert!(pending.contains(&Signal::Usr2));
    }

    #[test]
    fn disk_sleep_defers_signals() {
        let (mut vee, clock) = vee();
        let p = vee.spawn(None, "io-bound").unwrap();
        vee.enter_disk_sleep(p, Duration::from_millis(50)).unwrap();
        assert!(!vee.all_signal_ready());
        vee.send_signal(p, Signal::Stop).unwrap();
        // Not stopped yet: in D state.
        assert!(matches!(
            vee.process(p).unwrap().state,
            RunState::DiskSleep { .. }
        ));
        clock.advance(Duration::from_millis(60));
        vee.tick();
        assert_eq!(vee.process(p).unwrap().state, RunState::Stopped);
    }

    #[test]
    fn stop_all_and_resume_all() {
        let (mut vee, _clock) = vee();
        for i in 0..5 {
            vee.spawn(None, &format!("p{i}")).unwrap();
        }
        vee.stop_all();
        assert!(vee.all_stopped());
        vee.resume_all();
        assert!(vee.processes().all(|p| p.state == RunState::Runnable));
    }

    #[test]
    fn network_policy_gates_external_connects() {
        let (mut vee, _clock) = vee();
        let p = vee.spawn(None, "browser").unwrap();
        let fd = vee.socket(p, Proto::Tcp).unwrap();
        vee.set_network_enabled(false);
        assert_eq!(
            vee.connect(p, fd, "example.com", 80),
            Err(VeeError::NetworkDisabled)
        );
        // Localhost is always allowed.
        vee.connect(p, fd, "localhost", 5432).unwrap();
        vee.send(p, fd, 100).unwrap();
        // Re-enable: external works.
        vee.set_network_enabled(true);
        let fd2 = vee.socket(p, Proto::Tcp).unwrap();
        vee.connect(p, fd2, "example.com", 80).unwrap();
    }

    #[test]
    fn per_process_network_policy() {
        let (mut vee, _clock) = vee();
        let p = vee.spawn(None, "mail").unwrap();
        vee.process_mut(p).unwrap().net_allowed = false;
        let fd = vee.socket(p, Proto::Tcp).unwrap();
        assert_eq!(
            vee.connect(p, fd, "imap.example.com", 993),
            Err(VeeError::NetworkDisabled)
        );
    }

    #[test]
    fn reset_socket_errors_once_then_reconnects() {
        let (mut vee, _clock) = vee();
        let p = vee.spawn(None, "browser").unwrap();
        let fd = vee.socket(p, Proto::Tcp).unwrap();
        vee.connect(p, fd, "example.com", 80).unwrap();
        // Simulate revive resetting the connection.
        let id = match vee.process(p).unwrap().fds.get(fd).unwrap() {
            FdObject::Socket { id } => *id,
            _ => unreachable!(),
        };
        vee.sockets.get_mut(id).unwrap().state = SockState::Reset;
        assert_eq!(vee.send(p, fd, 10), Err(VeeError::ConnectionReset));
        // The app reconnects, as a browser would.
        vee.connect(p, fd, "example.com", 80).unwrap();
        vee.send(p, fd, 10).unwrap();
    }

    #[test]
    fn exec_replaces_image_keeps_fds() {
        let (mut vee, _clock) = vee();
        let p = vee.spawn(None, "shell").unwrap();
        let addr = vee.mmap(p, 4096, Prot::ReadWrite).unwrap();
        vee.mem_write(p, addr, b"shell data").unwrap();
        vee.fs.write_all("/script", b"#!...").unwrap();
        let fd = vee.open(p, "/script").unwrap();
        vee.exec(p, "compiler").unwrap();
        let proc = vee.process(p).unwrap();
        assert_eq!(proc.name, "compiler");
        assert_eq!(proc.mem.resident_pages(), 0, "fresh address space");
        // Descriptors survive exec.
        assert_eq!(vee.fd_read(p, fd, 4).unwrap(), b"#!..");
    }

    #[test]
    fn chdir_validates_directories() {
        let (mut vee, _clock) = vee();
        let p = vee.spawn(None, "shell").unwrap();
        vee.fs.mkdir_all("/home/user").unwrap();
        vee.fs.write_all("/home/user/f", b"x").unwrap();
        vee.chdir(p, "/home/user").unwrap();
        assert_eq!(vee.process(p).unwrap().cwd, "/home/user");
        assert_eq!(
            vee.chdir(p, "/home/user/f"),
            Err(VeeError::Fs(FsError::NotADirectory))
        );
        assert_eq!(vee.chdir(p, "/nope"), Err(VeeError::Fs(FsError::NotFound)));
    }

    #[test]
    fn exit_releases_resources() {
        let (mut vee, _clock) = vee();
        let p = vee.spawn(None, "app").unwrap();
        vee.fs.write_all("/f", b"z").unwrap();
        vee.open(p, "/f").unwrap();
        vee.socket(p, Proto::Udp).unwrap();
        assert_eq!(vee.sockets.iter().count(), 1);
        vee.exit(p).unwrap();
        assert_eq!(vee.sockets.iter().count(), 0);
        assert_eq!(vee.process_count(), 0);
        assert_eq!(vee.namespace.host_pid(p), None);
    }
}
