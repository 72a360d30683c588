//! The append-only storage device underlying the log-structured FS.
//!
//! A log-structured file system never overwrites live data: all writes —
//! data blocks, metadata journal records, snapshot marks — append to the
//! head of the log (§5.1.1). The device is segmented like NILFS: the
//! virtual byte log is carved into fixed-capacity segments allocated on
//! demand. Old offsets stay readable forever, which is exactly the
//! property snapshots need.

use parking_lot::RwLock;
use std::sync::Arc;

use dv_fault::{sites, FaultPlane, IoFault, Reader};

use crate::error::{FsError, FsResult};

/// Default segment capacity: 1 MiB, mirroring NILFS-scale segments.
pub const DEFAULT_SEGMENT_CAPACITY: usize = 1 << 20;

/// Largest segment capacity [`Disk::from_bytes`] accepts: a thousand
/// times what any writer here uses, small enough that a damaged header
/// cannot make the first append after a load reserve an absurd segment.
pub const MAX_SEGMENT_CAPACITY: usize = 1 << 30;

/// An append-only, segment-backed byte log.
#[derive(Debug)]
pub struct Disk {
    segments: Vec<Vec<u8>>,
    seg_capacity: usize,
    len: u64,
    plane: FaultPlane,
}

impl Disk {
    /// Creates an empty disk with the default segment capacity.
    pub fn new() -> Self {
        Disk::with_segment_capacity(DEFAULT_SEGMENT_CAPACITY)
    }

    /// Creates an empty disk with the given segment capacity.
    ///
    /// # Panics
    ///
    /// Panics if `seg_capacity` is zero.
    fn with_segment_capacity(seg_capacity: usize) -> Self {
        assert!(seg_capacity > 0, "segment capacity must be positive");
        Disk {
            segments: Vec::new(),
            seg_capacity,
            len: 0,
            plane: FaultPlane::disabled(),
        }
    }

    /// Installs the fault-injection plane checked by [`Disk::append`]
    /// (site `lsfs.disk.append`).
    pub fn set_fault_plane(&mut self, plane: FaultPlane) {
        self.plane = plane;
    }

    /// Returns a handle to the installed fault plane.
    pub fn fault_plane(&self) -> FaultPlane {
        self.plane.clone()
    }

    /// Appends `data` to the log, returning the offset it was written at.
    ///
    /// Injectable failures (site [`sites::LSFS_DISK_APPEND`]):
    /// * `TornWrite` — a prefix of `data` lands on the device, then the
    ///   write errors; the torn tail is only discoverable by recovery.
    /// * `ShortRead` — the write errors before anything is persisted.
    /// * `Enospc` — the device is full; nothing is written.
    /// * `Corrupt` — the full length is written but one byte is mangled;
    ///   the call reports success (silent corruption).
    /// * `LatencySpike` — the write succeeds (latency is modeled by the
    ///   caller's clock, not here).
    pub fn append(&mut self, data: &[u8]) -> FsResult<u64> {
        match self.plane.check(sites::LSFS_DISK_APPEND) {
            None | Some(IoFault::LatencySpike) => Ok(self.append_raw(data)),
            Some(IoFault::Enospc) => Err(FsError::NoSpace),
            Some(IoFault::TornWrite) => {
                let keep = self.plane.short_len(data.len());
                self.append_raw(&data[..keep]);
                Err(FsError::Io)
            }
            Some(IoFault::ShortRead) => Err(FsError::Io),
            Some(IoFault::Corrupt) => {
                let mut copy = data.to_vec();
                self.plane.mangle(&mut copy);
                Ok(self.append_raw(&copy))
            }
        }
    }

    /// Appends without fault injection: internal relocations (log
    /// compaction, a torn journal prefix) that do not model device IO.
    pub(crate) fn append_raw(&mut self, data: &[u8]) -> u64 {
        let offset = self.len;
        let mut remaining = data;
        while !remaining.is_empty() {
            let within = (self.len % self.seg_capacity as u64) as usize;
            if within == 0 && self.len / self.seg_capacity as u64 >= self.segments.len() as u64 {
                self.segments.push(Vec::with_capacity(self.seg_capacity));
            }
            let seg = self
                .segments
                .last_mut()
                .expect("segment allocated on demand");
            let room = self.seg_capacity - within;
            let take = room.min(remaining.len());
            seg.extend_from_slice(&remaining[..take]);
            remaining = &remaining[take..];
            self.len += take as u64;
        }
        offset
    }

    /// Reads `len` bytes starting at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the end of the log; offsets come
    /// from [`Disk::append`], so an out-of-range read is a logic error.
    pub fn read(&self, offset: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        self.read_into(offset, len, &mut out);
        out
    }

    /// Appends the `len` bytes at `offset` to `out`.
    ///
    /// # Panics
    ///
    /// As [`Disk::read`].
    pub(crate) fn read_into(&self, offset: u64, len: usize, out: &mut Vec<u8>) {
        assert!(
            offset + len as u64 <= self.len,
            "read past end of log ({offset}+{len} > {})",
            self.len
        );
        let mut pos = offset;
        let mut remaining = len;
        while remaining > 0 {
            let seg_idx = (pos / self.seg_capacity as u64) as usize;
            let within = (pos % self.seg_capacity as u64) as usize;
            let seg = &self.segments[seg_idx];
            let take = (seg.len() - within).min(remaining);
            out.extend_from_slice(&seg[within..within + take]);
            pos += take as u64;
            remaining -= take;
        }
    }

    /// Returns the total bytes ever written; this drives the storage
    /// growth accounting in Figure 4.
    pub fn bytes_written(&self) -> u64 {
        self.len
    }

    /// Serializes the log: `[seg_capacity u64][len u64][bytes...]`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.len as usize);
        out.extend_from_slice(&(self.seg_capacity as u64).to_le_bytes());
        out.extend_from_slice(&self.len.to_le_bytes());
        for seg in &self.segments {
            out.extend_from_slice(seg);
        }
        out
    }

    /// Reconstructs a log from [`Disk::to_bytes`] output. Returns
    /// `None` on malformed data. The header is untrusted: lengths are
    /// compared without arithmetic that can overflow, a segment
    /// capacity no writer produces is refused (it would size the next
    /// live append's reservation), and each segment is built from the
    /// bytes actually present rather than reserved at `seg_capacity`.
    pub fn from_bytes(data: &[u8]) -> Option<Disk> {
        let mut r = Reader::new(data);
        let seg_capacity = usize::try_from(r.u64().ok()?).ok()?;
        let len = r.u64().ok()?;
        let body = r.rest();
        if seg_capacity == 0 || seg_capacity > MAX_SEGMENT_CAPACITY || body.len() as u64 != len {
            return None;
        }
        let mut disk = Disk::with_segment_capacity(seg_capacity);
        disk.segments = body.chunks(seg_capacity).map(<[u8]>::to_vec).collect();
        disk.len = len;
        Some(disk)
    }
}

impl Default for Disk {
    fn default() -> Self {
        Disk::new()
    }
}

/// A disk shared between a live file system and its snapshot views.
pub type SharedDisk = Arc<RwLock<Disk>>;

/// Creates a new shared disk.
pub fn shared_disk() -> SharedDisk {
    Arc::new(RwLock::new(Disk::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_returns_sequential_offsets() {
        let mut disk = Disk::new();
        assert_eq!(disk.append(b"abc").unwrap(), 0);
        assert_eq!(disk.append(b"defg").unwrap(), 3);
        assert_eq!(disk.bytes_written(), 7);
    }

    #[test]
    fn read_round_trips() {
        let mut disk = Disk::new();
        let off = disk.append(b"hello world").unwrap();
        assert_eq!(disk.read(off, 11), b"hello world");
        assert_eq!(disk.read(off + 6, 5), b"world");
    }

    #[test]
    fn appends_span_segments() {
        let mut disk = Disk::with_segment_capacity(4);
        let off = disk.append(b"0123456789").unwrap();
        assert_eq!(disk.segments.len(), 3);
        assert_eq!(disk.read(off, 10), b"0123456789");
        assert_eq!(disk.read(3, 4), b"3456");
    }

    #[test]
    fn old_data_survives_later_appends() {
        let mut disk = Disk::with_segment_capacity(8);
        let a = disk.append(b"old-data").unwrap();
        for _ in 0..100 {
            disk.append(b"newer and newer data").unwrap();
        }
        assert_eq!(disk.read(a, 8), b"old-data");
    }

    #[test]
    fn bytes_round_trip() {
        let mut disk = Disk::with_segment_capacity(16);
        let a = disk.append(b"first record").unwrap();
        let b = disk.append(&[7u8; 40]).unwrap();
        let restored = Disk::from_bytes(&disk.to_bytes()).unwrap();
        assert_eq!(restored.bytes_written(), disk.bytes_written());
        assert_eq!(restored.read(a, 12), b"first record");
        assert_eq!(restored.read(b, 40), vec![7u8; 40]);
        assert!(Disk::from_bytes(&disk.to_bytes()[..10]).is_none());
        // A loaded log keeps appending where it left off.
        let mut restored = restored;
        let c = restored.append(b"after load").unwrap();
        assert_eq!(c, disk.bytes_written());
        assert_eq!(restored.read(c, 10), b"after load");
        assert_eq!(restored.read(b, 40), vec![7u8; 40]);
    }

    /// Header fields are untrusted: a length near `u64::MAX` used to
    /// overflow `16 + len`, and a huge segment capacity used to size a
    /// `Vec::with_capacity` that aborted the process.
    #[test]
    fn hostile_headers_are_refused_without_allocating() {
        let header = |cap: u64, len: u64| {
            let mut bytes = cap.to_le_bytes().to_vec();
            bytes.extend_from_slice(&len.to_le_bytes());
            bytes
        };
        assert!(Disk::from_bytes(&header(16, u64::MAX)).is_none());
        assert!(Disk::from_bytes(&header(16, u64::MAX - 15)).is_none());
        assert!(Disk::from_bytes(&header(0, 0)).is_none());
        assert!(Disk::from_bytes(&header(u64::MAX, 0)).is_none());
        assert!(Disk::from_bytes(&header(MAX_SEGMENT_CAPACITY as u64 + 1, 0)).is_none());
        let mut huge = header(MAX_SEGMENT_CAPACITY as u64, 3);
        huge.extend_from_slice(b"abc");
        let disk = Disk::from_bytes(&huge).expect("largest accepted capacity");
        assert_eq!(disk.read(0, 3), b"abc");
        assert!(disk.segments[0].capacity() < 1024, "sized by the data");
    }

    #[test]
    #[should_panic(expected = "read past end")]
    fn read_past_end_panics() {
        let disk = Disk::new();
        let _ = disk.read(0, 1);
    }

    #[test]
    fn enospc_writes_nothing() {
        use dv_fault::FaultPlan;
        let mut disk = Disk::new();
        disk.set_fault_plane(
            FaultPlan::new(1)
                .fail_nth(sites::LSFS_DISK_APPEND, 2, IoFault::Enospc)
                .build(),
        );
        disk.append(b"ok").unwrap();
        assert_eq!(disk.append(b"fails"), Err(FsError::NoSpace));
        assert_eq!(disk.bytes_written(), 2, "nothing written on ENOSPC");
        disk.append(b"ok again").unwrap();
    }

    #[test]
    fn torn_write_leaves_a_strict_prefix() {
        use dv_fault::FaultPlan;
        let mut disk = Disk::new();
        disk.set_fault_plane(
            FaultPlan::new(7)
                .fail_nth(sites::LSFS_DISK_APPEND, 1, IoFault::TornWrite)
                .build(),
        );
        assert_eq!(disk.append(&[9u8; 100]), Err(FsError::Io));
        assert!(disk.bytes_written() < 100, "a strict prefix landed");
    }

    #[test]
    fn corrupt_write_succeeds_with_one_mangled_byte() {
        use dv_fault::FaultPlan;
        let mut disk = Disk::new();
        disk.set_fault_plane(
            FaultPlan::new(3)
                .fail_nth(sites::LSFS_DISK_APPEND, 1, IoFault::Corrupt)
                .build(),
        );
        let off = disk.append(&[0u8; 64]).unwrap();
        let stored = disk.read(off, 64);
        let flipped = stored.iter().filter(|&&b| b != 0).count();
        assert_eq!(flipped, 1, "exactly one byte mangled");
    }
}
