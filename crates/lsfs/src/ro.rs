//! Read-only file system stacks.
//!
//! A revived session runs on a writable layer over a read-only view.
//! When a *revived* session is itself checkpointed and revived again
//! (§5.2: "the revived session retains DejaView's ability to
//! continuously checkpoint session state and later revive it"), the new
//! session's read-only view is the parent's view plus a snapshot of the
//! parent's writable layer — a read-only *union stack* of arbitrary
//! depth. [`ReadOnlyFs`] is the cloneable abstraction those stacks are
//! built from.

use crate::snapshot::SnapshotView;
use crate::union::UnionFs;
use crate::vfs::Filesystem;

/// A cloneable, read-only file system layer.
///
/// All [`Filesystem`] mutators on implementations fail with
/// [`crate::FsError::ReadOnly`] (a union of read-only layers rejects
/// writes because its "writable" layer does).
pub trait ReadOnlyFs: Filesystem {
    /// Clones this layer (cheap: snapshot metadata is shared
    /// copy-on-write, data lives on shared disks). The clone has its own
    /// handle table.
    fn clone_ro(&self) -> Box<dyn ReadOnlyFs>;
}

impl ReadOnlyFs for SnapshotView {
    fn clone_ro(&self) -> Box<dyn ReadOnlyFs> {
        Box::new(self.clone())
    }
}

/// A read-only union: a frozen upper layer (with its whiteouts) over a
/// read-only lower stack. Writes fail in the upper [`SnapshotView`].
impl ReadOnlyFs for UnionFs<Box<dyn ReadOnlyFs>, SnapshotView> {
    fn clone_ro(&self) -> Box<dyn ReadOnlyFs> {
        Box::new(UnionFs::new(self.lower().clone_ro(), self.upper().clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::FsError;
    use crate::lsfs::Lsfs;

    fn snapshot_with(paths: &[(&str, &[u8])]) -> SnapshotView {
        let mut fs = Lsfs::new();
        for (path, data) in paths {
            fs.write_all(path, data).unwrap();
        }
        fs.snapshot_point(1).unwrap();
        fs.snapshot(1).unwrap()
    }

    #[test]
    fn stacked_layers_resolve_top_down() {
        let base = snapshot_with(&[("/a", b"base a"), ("/b", b"base b")]);
        // The middle layer (a frozen branch upper) overrides /a and
        // whiteouts... here simply overrides /a and adds /c.
        let middle = snapshot_with(&[("/a", b"middle a"), ("/c", b"middle c")]);
        let stack: Box<dyn ReadOnlyFs> = Box::new(UnionFs::new(base.clone_ro(), middle));
        assert_eq!(stack.read_all("/a").unwrap(), b"middle a");
        assert_eq!(stack.read_all("/b").unwrap(), b"base b");
        assert_eq!(stack.read_all("/c").unwrap(), b"middle c");
    }

    #[test]
    fn stack_rejects_writes() {
        let base = snapshot_with(&[("/a", b"x")]);
        let top = snapshot_with(&[]);
        let mut stack: Box<dyn ReadOnlyFs> = Box::new(UnionFs::new(base.clone_ro(), top));
        assert_eq!(stack.write_at("/a", 0, b"y"), Err(FsError::ReadOnly));
        assert_eq!(stack.create("/new"), Err(FsError::ReadOnly));
        assert_eq!(stack.unlink("/a"), Err(FsError::ReadOnly));
    }

    #[test]
    fn clone_ro_shares_content_with_independent_handles() {
        let base = snapshot_with(&[("/f", b"shared")]);
        let top = snapshot_with(&[]);
        let stack: Box<dyn ReadOnlyFs> = Box::new(UnionFs::new(base.clone_ro(), top));
        let mut a = stack.clone_ro();
        let b = stack.clone_ro();
        let h = a.open("/f").unwrap();
        assert_eq!(a.read_handle(h, 0, 6).unwrap(), b"shared");
        assert_eq!(b.read_handle(h, 0, 1), Err(FsError::BadHandle));
        assert_eq!(b.read_all("/f").unwrap(), b"shared");
    }

    #[test]
    fn whiteouts_in_frozen_upper_hide_lower() {
        // Build a branch that deletes /gone, then freeze it and stack.
        let base = snapshot_with(&[("/gone", b"old"), ("/kept", b"ok")]);
        let mut branch = UnionFs::new(base.clone_ro(), Lsfs::new());
        branch.unlink("/gone").unwrap();
        branch.snapshot_point(7).unwrap();
        let frozen_upper = branch.upper().snapshot(7).unwrap();
        let stack: Box<dyn ReadOnlyFs> = Box::new(UnionFs::new(base.clone_ro(), frozen_upper));
        assert!(!stack.exists("/gone"), "whiteout applies through the stack");
        assert_eq!(stack.read_all("/kept").unwrap(), b"ok");
    }
}
