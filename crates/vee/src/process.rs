//! Processes and their per-process state.
//!
//! The checkpoint image must carry everything §5.2 lists: "process run
//! state, program name, scheduling parameters, credentials, pending and
//! blocked signals, CPU registers, FPU state, ptrace information, file
//! system namespace, list of open files, signal handling information,
//! and virtual memory". Every one of those has a concrete (if synthetic)
//! representation here so the checkpoint/restore cycle moves real state.

use std::collections::VecDeque;

use dv_time::Timestamp;

use crate::files::FdTable;
use crate::memory::AddressSpace;

/// A virtual PID — the name a process has *inside* its private
/// namespace, stable across checkpoint/revive.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Vpid(pub u64);

/// Signals (the subset the system exercises).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum Signal {
    /// Stop the process (quiesce).
    Stop = 1,
    /// Continue a stopped process (resume).
    Cont = 2,
    /// Terminate.
    Term = 3,
    /// Kill (unblockable).
    Kill = 4,
    /// Invalid memory access.
    Segv = 5,
    /// Child state change.
    Chld = 6,
    /// User signal 1.
    Usr1 = 7,
    /// User signal 2.
    Usr2 = 8,
}

impl Signal {
    /// All signal values, for encoding.
    pub const ALL: [Signal; 8] = [
        Signal::Stop,
        Signal::Cont,
        Signal::Term,
        Signal::Kill,
        Signal::Segv,
        Signal::Chld,
        Signal::Usr1,
        Signal::Usr2,
    ];

    /// Decodes a signal from its `repr` value.
    pub fn from_u8(v: u8) -> Option<Signal> {
        Signal::ALL.into_iter().find(|s| *s as u8 == v)
    }
}

/// Run state of a process.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunState {
    /// Schedulable.
    Runnable,
    /// Stopped by SIGSTOP (quiesced).
    Stopped,
    /// Uninterruptible sleep (D state, e.g. blocked on disk I/O) until
    /// the given session time; signals are not handled until it wakes —
    /// the case pre-quiescing exists for (§5.1.2).
    DiskSleep {
        /// Wake-up time.
        until: Timestamp,
    },
    /// Exited, not yet reaped.
    Zombie,
}

/// Synthetic CPU register file.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Registers {
    /// Program counter.
    pub pc: u64,
    /// Stack pointer.
    pub sp: u64,
    /// General-purpose registers.
    pub gpr: [u64; 8],
}

/// Synthetic FPU state.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FpuState {
    /// Control word.
    pub control: u32,
    /// Data registers.
    pub st: [u64; 8],
}

/// Scheduling parameters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SchedParams {
    /// Nice value.
    pub nice: i8,
    /// Real-time priority (0 = none).
    pub rt_priority: u8,
}

/// Credentials.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Credentials {
    /// User id.
    pub uid: u32,
    /// Group id.
    pub gid: u32,
}

/// Per-process signal state.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SigState {
    /// Queued, undelivered signals.
    pub pending: VecDeque<Signal>,
    /// Blocked-signal bitmask (bit = `Signal as u8`).
    pub blocked: u64,
    /// Signals with a user handler installed (bitmask); the rest take
    /// default actions.
    pub handled: u64,
}

impl SigState {
    /// Returns whether `sig` is blocked.
    pub fn is_blocked(&self, sig: Signal) -> bool {
        sig != Signal::Kill && self.blocked & (1 << sig as u8) != 0
    }

    /// Blocks or unblocks a signal.
    #[cfg(test)]
    pub(crate) fn set_blocked(&mut self, sig: Signal, blocked: bool) {
        if blocked {
            self.blocked |= 1 << sig as u8;
        } else {
            self.blocked &= !(1 << sig as u8);
        }
    }
}

/// One process in a virtual execution environment.
#[derive(Clone, Debug)]
pub struct Process {
    /// Virtual PID within the session's namespace.
    pub vpid: Vpid,
    /// Host PID currently backing it (changes across revive — that is
    /// what the namespace hides from the application).
    pub host_pid: u64,
    /// Parent's virtual PID.
    pub parent: Option<Vpid>,
    /// Program name.
    pub name: String,
    /// Run state.
    pub state: RunState,
    /// Virtual memory.
    pub mem: AddressSpace,
    /// Open files and sockets.
    pub fds: FdTable,
    /// Signal state.
    pub signals: SigState,
    /// CPU registers.
    pub regs: Registers,
    /// FPU state.
    pub fpu: FpuState,
    /// Scheduling parameters.
    pub sched: SchedParams,
    /// Credentials.
    pub creds: Credentials,
    /// Tracer, if ptraced.
    pub ptraced_by: Option<Vpid>,
    /// Current working directory.
    pub cwd: String,
    /// Whether this process may open external network connections
    /// (per-application revive policy, §5.2).
    pub net_allowed: bool,
}

impl Process {
    /// Creates a fresh runnable process.
    pub fn new(vpid: Vpid, host_pid: u64, parent: Option<Vpid>, name: &str) -> Self {
        Process {
            vpid,
            host_pid,
            parent,
            name: name.to_string(),
            state: RunState::Runnable,
            mem: AddressSpace::new(),
            fds: FdTable::new(),
            signals: SigState::default(),
            regs: Registers::default(),
            fpu: FpuState::default(),
            sched: SchedParams::default(),
            creds: Credentials::default(),
            ptraced_by: None,
            cwd: "/".to_string(),
            net_allowed: true,
        }
    }

    /// Returns whether the process can promptly handle a stop signal —
    /// the pre-quiesce readiness test.
    pub fn signal_ready(&self) -> bool {
        !matches!(self.state, RunState::DiskSleep { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signal_codec_round_trips() {
        for sig in Signal::ALL {
            assert_eq!(Signal::from_u8(sig as u8), Some(sig));
        }
        assert_eq!(Signal::from_u8(0), None);
        assert_eq!(Signal::from_u8(200), None);
    }

    #[test]
    fn blocking_mask() {
        let mut sigs = SigState::default();
        assert!(!sigs.is_blocked(Signal::Term));
        sigs.set_blocked(Signal::Term, true);
        assert!(sigs.is_blocked(Signal::Term));
        sigs.set_blocked(Signal::Term, false);
        assert!(!sigs.is_blocked(Signal::Term));
    }

    #[test]
    fn kill_cannot_be_blocked() {
        let mut sigs = SigState::default();
        sigs.set_blocked(Signal::Kill, true);
        assert!(!sigs.is_blocked(Signal::Kill));
    }

    #[test]
    fn disk_sleep_is_not_signal_ready() {
        let mut p = Process::new(Vpid(1), 100, None, "init");
        assert!(p.signal_ready());
        p.state = RunState::DiskSleep {
            until: Timestamp::from_secs(1),
        };
        assert!(!p.signal_ready());
    }
}
