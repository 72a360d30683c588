//! Per-process file descriptor tables.

use std::collections::BTreeMap;

use dv_lsfs::Handle;

/// What a file descriptor refers to.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FdObject {
    /// An open file on the session file system.
    File {
        /// The path it was opened by.
        path: String,
        /// The file system handle (keeps contents alive across unlink).
        handle: Handle,
        /// Current file offset.
        offset: u64,
        /// Whether the path has been unlinked while open — the case the
        /// checkpoint engine's relink optimization handles (§5.1.2).
        unlinked: bool,
    },
    /// An open socket (id into the VEE's socket table).
    Socket {
        /// Socket id.
        id: u64,
    },
}

/// A process's descriptor table.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FdTable {
    entries: BTreeMap<u32, FdObject>,
    next_fd: u32,
}

impl FdTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        FdTable {
            entries: BTreeMap::new(),
            next_fd: 3, // 0..2 reserved for std streams, not modelled.
        }
    }

    /// Inserts an object, returning its descriptor.
    pub fn insert(&mut self, obj: FdObject) -> u32 {
        let fd = self.next_fd;
        self.next_fd += 1;
        self.entries.insert(fd, obj);
        fd
    }

    /// Installs an object at a specific descriptor (restore path).
    pub fn install(&mut self, fd: u32, obj: FdObject) {
        self.next_fd = self.next_fd.max(fd + 1);
        self.entries.insert(fd, obj);
    }

    /// Looks up a descriptor.
    pub fn get(&self, fd: u32) -> Option<&FdObject> {
        self.entries.get(&fd)
    }

    /// Looks up a descriptor mutably.
    pub fn get_mut(&mut self, fd: u32) -> Option<&mut FdObject> {
        self.entries.get_mut(&fd)
    }

    /// Removes a descriptor, returning its object.
    #[cfg(test)]
    pub(crate) fn remove(&mut self, fd: u32) -> Option<FdObject> {
        self.entries.remove(&fd)
    }

    /// Iterates `(fd, object)` in descriptor order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &FdObject)> {
        self.entries.iter().map(|(fd, obj)| (*fd, obj))
    }

    /// Iterates mutably.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u32, &mut FdObject)> {
        self.entries.iter_mut().map(|(fd, obj)| (*fd, obj))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptors_allocate_from_three() {
        let mut fds = FdTable::new();
        let a = fds.insert(FdObject::Socket { id: 1 });
        let b = fds.insert(FdObject::Socket { id: 2 });
        assert_eq!((a, b), (3, 4));
    }

    #[test]
    fn install_keeps_allocation_above() {
        let mut fds = FdTable::new();
        fds.install(
            10,
            FdObject::File {
                path: "/x".into(),
                handle: Handle(1),
                offset: 0,
                unlinked: false,
            },
        );
        let next = fds.insert(FdObject::Socket { id: 1 });
        assert_eq!(next, 11);
    }

    #[test]
    fn remove_and_iterate() {
        let mut fds = FdTable::new();
        let a = fds.insert(FdObject::Socket { id: 1 });
        let b = fds.insert(FdObject::Socket { id: 2 });
        assert_eq!(fds.entries.len(), 2);
        fds.remove(a);
        let remaining: Vec<u32> = fds.iter().map(|(fd, _)| fd).collect();
        assert_eq!(remaining, vec![b]);
        assert!(fds.get(a).is_none());
    }
}
