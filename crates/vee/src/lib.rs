//! Virtual execution environments (the Zap role) for DejaView.
//!
//! A simulated OS layer whose *state* the checkpoint engine can quiesce,
//! capture, and rebuild (paper §3 and §5): processes with real
//! page-granular virtual memory (COW capture, write-protect dirty
//! tracking), descriptor tables over the session file system, sockets
//! with the revive-time reset policy, signals with uninterruptible-sleep
//! semantics, and private namespaces that keep virtual resource names
//! stable across revives.

#![deny(unsafe_code)]

pub mod container;
pub mod files;
pub mod memory;
pub mod namespace;
pub mod process;
pub mod sockets;

pub use container::{HostPidAllocator, Vee, VeeError, VeeResult};
pub use files::{FdObject, FdTable};
pub use memory::{AddressSpace, MemFault, MemRegion, MemStats, Page, PageBuf, Prot, PAGE_SIZE};
pub use namespace::Namespace;
pub use process::{
    Credentials, FpuState, Process, Registers, RunState, SchedParams, SigState, Signal, Vpid,
};
pub use sockets::{Proto, SockState, Socket, SocketTable};
