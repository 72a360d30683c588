//! Private virtual namespaces.
//!
//! Zap-style namespaces are what make revive possible (§3): "revived
//! sessions can use the same OS resource names as used before being
//! checkpointed, even if they are mapped to different underlying OS
//! resources upon revival", and multiple revived sessions "can run
//! concurrently and use the same OS resource names inside their
//! respective namespaces, yet not conflict".

use std::collections::BTreeMap;

use crate::process::Vpid;

/// The private namespace of one virtual execution environment.
#[derive(Clone, Debug)]
pub struct Namespace {
    vpid_to_host: BTreeMap<Vpid, u64>,
    next_vpid: u64,
    /// Virtual hostname (UTS namespace).
    pub hostname: String,
    /// System V IPC keys private to the session.
    pub ipc_keys: BTreeMap<u32, Vec<u8>>,
}

impl Namespace {
    /// Creates an empty namespace.
    pub fn new(hostname: &str) -> Self {
        Namespace {
            vpid_to_host: BTreeMap::new(),
            next_vpid: 1,
            hostname: hostname.to_string(),
            ipc_keys: BTreeMap::new(),
        }
    }

    /// Allocates the next virtual PID and binds it to a host PID.
    pub fn allocate_vpid(&mut self, host_pid: u64) -> Vpid {
        let vpid = Vpid(self.next_vpid);
        self.next_vpid += 1;
        self.vpid_to_host.insert(vpid, host_pid);
        vpid
    }

    /// Rebinds an existing virtual PID to a new host PID — the revive
    /// path, where the same virtual names map to fresh host resources.
    pub fn bind_vpid(&mut self, vpid: Vpid, host_pid: u64) {
        self.next_vpid = self.next_vpid.max(vpid.0 + 1);
        self.vpid_to_host.insert(vpid, host_pid);
    }

    /// Translates a virtual PID to its current host PID.
    pub fn host_pid(&self, vpid: Vpid) -> Option<u64> {
        self.vpid_to_host.get(&vpid).copied()
    }

    /// Removes a virtual PID binding.
    pub fn release_vpid(&mut self, vpid: Vpid) {
        self.vpid_to_host.remove(&vpid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vpids_allocate_sequentially() {
        let mut ns = Namespace::new("desktop");
        let a = ns.allocate_vpid(1001);
        let b = ns.allocate_vpid(1002);
        assert_eq!((a, b), (Vpid(1), Vpid(2)));
        assert_eq!(ns.host_pid(a), Some(1001));
    }

    #[test]
    fn rebinding_keeps_virtual_names_stable() {
        let mut ns = Namespace::new("desktop");
        let v = ns.allocate_vpid(500);
        // After revive, the same vpid maps to a fresh host pid.
        ns.bind_vpid(v, 9000);
        assert_eq!(ns.host_pid(v), Some(9000));
        // And allocation continues above restored names.
        let next = ns.allocate_vpid(9001);
        assert_eq!(next, Vpid(2));
    }

    #[test]
    fn two_namespaces_reuse_the_same_vpids() {
        let mut a = Namespace::new("a");
        let mut b = Namespace::new("b");
        let va = a.allocate_vpid(100);
        let vb = b.allocate_vpid(200);
        assert_eq!(va, vb, "same virtual name");
        assert_ne!(a.host_pid(va), b.host_pid(vb), "different host resources");
    }

    #[test]
    fn release_frees_binding() {
        let mut ns = Namespace::new("x");
        let v = ns.allocate_vpid(1);
        ns.release_vpid(v);
        assert_eq!(ns.host_pid(v), None);
        assert!(ns.vpid_to_host.is_empty());
    }
}
