//! The metadata journal of the log-structured file system.
//!
//! Every modifying transaction appends a journal record to the log:
//! "all file system modifications append data to the disk, be it meta
//! data updates, directory changes or syncing data blocks" (§5.1.1).
//! Records are chained backwards (each holds the offset of its
//! predecessor), so given the head offset — the role a superblock's
//! checkpoint region plays in a real LFS — the entire operation history
//! can be recovered and replayed.

use crate::error::{FsError, FsResult};

/// Sentinel "no previous record" offset terminating the chain.
pub const NO_PREV: u64 = u64::MAX;

/// A journaled file system operation.
///
/// Operations reference inodes explicitly so replay is deterministic;
/// data writes reference block locations already persisted in the data
/// log rather than carrying the bytes again.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FsOp {
    /// Create a regular file `name` with inode `ino` under `parent`.
    Create {
        /// Parent directory inode.
        parent: u64,
        /// Entry name.
        name: String,
        /// Inode assigned to the new file.
        ino: u64,
    },
    /// Create a directory.
    Mkdir {
        /// Parent directory inode.
        parent: u64,
        /// Entry name.
        name: String,
        /// Inode assigned to the new directory.
        ino: u64,
    },
    /// Commit buffered data: set `ino`'s size and point the listed block
    /// indices at data-log offsets.
    Write {
        /// Target inode.
        ino: u64,
        /// New file size in bytes.
        size: u64,
        /// `(block_index, data_log_offset)` pairs.
        extents: Vec<(u64, u64)>,
    },
    /// Remove directory entry `name` from `parent` (regular file).
    Unlink {
        /// Parent directory inode.
        parent: u64,
        /// Entry name.
        name: String,
    },
    /// Remove empty directory `name` from `parent`.
    Rmdir {
        /// Parent directory inode.
        parent: u64,
        /// Entry name.
        name: String,
    },
    /// Move an entry between directories, replacing any permissible
    /// existing target entry.
    Rename {
        /// Source directory inode.
        from_parent: u64,
        /// Source entry name.
        from_name: String,
        /// Destination directory inode.
        to_parent: u64,
        /// Destination entry name.
        to_name: String,
    },
    /// Add a directory entry for an existing inode (the checkpoint
    /// engine's relink of unlinked-but-open files).
    Link {
        /// Inode to link.
        ino: u64,
        /// Directory receiving the entry.
        parent: u64,
        /// Entry name.
        name: String,
    },
    /// Drop an orphan inode whose last handle closed.
    Release {
        /// The orphan inode.
        ino: u64,
    },
    /// A snapshot point tagged with the checkpoint counter (§5.1.1: the
    /// counter is stored in both the checkpoint image and the FS log).
    SnapshotMark {
        /// Checkpoint counter value.
        counter: u64,
    },
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn u64(&mut self) -> FsResult<u64> {
        if self.buf.len() < 8 {
            return Err(FsError::InvalidPath);
        }
        let (head, rest) = self.buf.split_at(8);
        self.buf = rest;
        Ok(u64::from_le_bytes(head.try_into().expect("8 bytes")))
    }

    fn string(&mut self) -> FsResult<String> {
        if self.buf.len() < 4 {
            return Err(FsError::InvalidPath);
        }
        let (head, rest) = self.buf.split_at(4);
        let len = u32::from_le_bytes(head.try_into().expect("4 bytes")) as usize;
        if rest.len() < len {
            return Err(FsError::InvalidPath);
        }
        let (s, rest) = rest.split_at(len);
        self.buf = rest;
        String::from_utf8(s.to_vec()).map_err(|_| FsError::InvalidPath)
    }
}

impl FsOp {
    /// Appends the encoded operation to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            FsOp::Create { parent, name, ino } => {
                out.push(1);
                put_u64(out, *parent);
                put_str(out, name);
                put_u64(out, *ino);
            }
            FsOp::Mkdir { parent, name, ino } => {
                out.push(2);
                put_u64(out, *parent);
                put_str(out, name);
                put_u64(out, *ino);
            }
            FsOp::Write { ino, size, extents } => {
                out.push(3);
                put_u64(out, *ino);
                put_u64(out, *size);
                put_u64(out, extents.len() as u64);
                for (idx, off) in extents {
                    put_u64(out, *idx);
                    put_u64(out, *off);
                }
            }
            FsOp::Unlink { parent, name } => {
                out.push(4);
                put_u64(out, *parent);
                put_str(out, name);
            }
            FsOp::Rmdir { parent, name } => {
                out.push(5);
                put_u64(out, *parent);
                put_str(out, name);
            }
            FsOp::Rename {
                from_parent,
                from_name,
                to_parent,
                to_name,
            } => {
                out.push(6);
                put_u64(out, *from_parent);
                put_str(out, from_name);
                put_u64(out, *to_parent);
                put_str(out, to_name);
            }
            FsOp::Link { ino, parent, name } => {
                out.push(7);
                put_u64(out, *ino);
                put_u64(out, *parent);
                put_str(out, name);
            }
            FsOp::Release { ino } => {
                out.push(8);
                put_u64(out, *ino);
            }
            FsOp::SnapshotMark { counter } => {
                out.push(9);
                put_u64(out, *counter);
            }
        }
    }

    /// Decodes an operation from bytes produced by
    /// [`FsOp::encode_into`].
    pub fn decode(buf: &[u8]) -> FsResult<FsOp> {
        let (&tag, rest) = buf.split_first().ok_or(FsError::InvalidPath)?;
        let mut r = Reader { buf: rest };
        let op = match tag {
            1 => FsOp::Create {
                parent: r.u64()?,
                name: r.string()?,
                ino: r.u64()?,
            },
            2 => FsOp::Mkdir {
                parent: r.u64()?,
                name: r.string()?,
                ino: r.u64()?,
            },
            3 => {
                let ino = r.u64()?;
                let size = r.u64()?;
                let n = r.u64()? as usize;
                // The count is untrusted; every extent consumes 16
                // bytes, so bound it by the remaining payload.
                if n > r.remaining() / 16 {
                    return Err(FsError::InvalidPath);
                }
                let mut extents = Vec::with_capacity(n);
                for _ in 0..n {
                    extents.push((r.u64()?, r.u64()?));
                }
                FsOp::Write { ino, size, extents }
            }
            4 => FsOp::Unlink {
                parent: r.u64()?,
                name: r.string()?,
            },
            5 => FsOp::Rmdir {
                parent: r.u64()?,
                name: r.string()?,
            },
            6 => FsOp::Rename {
                from_parent: r.u64()?,
                from_name: r.string()?,
                to_parent: r.u64()?,
                to_name: r.string()?,
            },
            7 => FsOp::Link {
                ino: r.u64()?,
                parent: r.u64()?,
                name: r.string()?,
            },
            8 => FsOp::Release { ino: r.u64()? },
            9 => FsOp::SnapshotMark { counter: r.u64()? },
            _ => return Err(FsError::InvalidPath),
        };
        Ok(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(op: FsOp) {
        let mut bytes = Vec::new();
        op.encode_into(&mut bytes);
        assert_eq!(FsOp::decode(&bytes).unwrap(), op);
    }

    #[test]
    fn all_ops_round_trip() {
        round_trip(FsOp::Create {
            parent: 1,
            name: "file.txt".into(),
            ino: 42,
        });
        round_trip(FsOp::Mkdir {
            parent: 7,
            name: "dir".into(),
            ino: 43,
        });
        round_trip(FsOp::Write {
            ino: 42,
            size: 123456,
            extents: vec![(0, 0), (1, 4096), (30, 999_999)],
        });
        round_trip(FsOp::Unlink {
            parent: 1,
            name: "gone".into(),
        });
        round_trip(FsOp::Rmdir {
            parent: 1,
            name: "dir".into(),
        });
        round_trip(FsOp::Rename {
            from_parent: 1,
            from_name: "a".into(),
            to_parent: 2,
            to_name: "b".into(),
        });
        round_trip(FsOp::Link {
            ino: 9,
            parent: 3,
            name: "relinked".into(),
        });
        round_trip(FsOp::Release { ino: 9 });
        round_trip(FsOp::SnapshotMark { counter: 17 });
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(FsOp::decode(&[]).is_err());
        assert!(FsOp::decode(&[200]).is_err());
        assert!(FsOp::decode(&[1, 0, 0]).is_err());
    }

    #[test]
    fn unicode_names_round_trip() {
        round_trip(FsOp::Create {
            parent: 1,
            name: "датоте́ка-数据.txt".into(),
            ino: 5,
        });
    }
}
