//! The checkpoint image format.
//!
//! A checkpoint image carries everything §5.2 enumerates for every
//! process — run state, program name, scheduling parameters,
//! credentials, pending and blocked signals, CPU registers, FPU state,
//! ptrace information, open files, virtual memory — plus the session's
//! namespace, sockets and network state, and the checkpoint counter that
//! ties the image to its file system snapshot (§5.1.1).
//!
//! Incremental images store only the pages dirtied since the previous
//! checkpoint together with the *full* region table; restore walks the
//! image chain newest-to-oldest to resolve each page (§5.2).

use std::sync::Arc;

use dv_fault::{Put, ReadError, Reader};
use dv_time::Timestamp;
use dv_vee::{
    Credentials, FpuState, MemRegion, Page, PageBuf, Prot, Registers, SchedParams, PAGE_SIZE,
};

use crate::compress::{CursorError, RleCursor};

/// Whether an image is self-contained or a delta.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ImageKind {
    /// Self-contained: every resident page is present.
    Full,
    /// Delta against the image with counter `prev`.
    Incremental {
        /// Counter of the previous image in the chain.
        prev: u64,
    },
}

/// One file descriptor in the image.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FdRecord {
    /// An open file.
    File {
        /// Descriptor number.
        fd: u32,
        /// Path it was opened by.
        path: String,
        /// File offset.
        offset: u64,
        /// Whether the path had been unlinked while open.
        unlinked: bool,
        /// Where the checkpoint relinked the unlinked contents, if it
        /// did (§5.1.2); restore opens this path and re-unlinks it.
        relink: Option<String>,
    },
    /// An open socket.
    Socket {
        /// Descriptor number.
        fd: u32,
        /// Socket id in the image's socket table.
        id: u64,
    },
}

/// One socket in the image.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SocketRecord {
    /// Socket id.
    pub id: u64,
    /// Protocol (0 = TCP, 1 = UDP).
    pub proto: u8,
    /// Local port.
    pub local_port: u16,
    /// Remote endpoint, if connected.
    pub remote: Option<(String, u16)>,
    /// Connection state (0 = unconnected, 1 = connected, 2 = reset).
    pub state: u8,
    /// Bytes sent.
    pub tx_bytes: u64,
    /// Bytes received.
    pub rx_bytes: u64,
}

/// One process in the image.
#[derive(Clone, Debug)]
pub struct ProcessRecord {
    /// Virtual PID.
    pub vpid: u64,
    /// Parent virtual PID.
    pub parent: Option<u64>,
    /// Program name.
    pub name: String,
    /// Registers.
    pub regs: Registers,
    /// FPU state.
    pub fpu: FpuState,
    /// Scheduling parameters.
    pub sched: SchedParams,
    /// Credentials.
    pub creds: Credentials,
    /// Blocked-signal mask.
    pub blocked: u64,
    /// Handled-signal mask.
    pub handled: u64,
    /// Pending signals (repr bytes, delivery order).
    pub pending: Vec<u8>,
    /// Tracer vpid, if ptraced.
    pub ptraced_by: Option<u64>,
    /// Working directory.
    pub cwd: String,
    /// Per-process network permission.
    pub net_allowed: bool,
    /// The full region table.
    pub regions: Vec<MemRegion>,
    /// Saved pages (all resident pages for a full image; dirty pages for
    /// an incremental one). Shared so the COW capture stays zero-copy
    /// until serialization, and a decoded page is a window into the
    /// image buffer it was read from.
    pub pages: Vec<(u64, Page)>,
    /// Descriptor table.
    pub fds: Vec<FdRecord>,
}

/// A complete checkpoint image.
#[derive(Clone, Debug)]
pub struct CheckpointImage {
    /// The checkpoint counter (also names the FS snapshot).
    pub counter: u64,
    /// Session time of the checkpoint.
    pub time: Timestamp,
    /// Full or incremental.
    pub kind: ImageKind,
    /// Virtual hostname of the namespace.
    pub hostname: String,
    /// Whether the session had external network access.
    pub network_enabled: bool,
    /// Process records, vpid order.
    pub processes: Vec<ProcessRecord>,
    /// Session sockets.
    pub sockets: Vec<SocketRecord>,
}

impl CheckpointImage {
    /// Returns the number of saved pages across all processes.
    pub fn page_count(&self) -> usize {
        self.processes.iter().map(|p| p.pages.len()).sum()
    }

    /// Returns the raw bytes of saved page data.
    pub fn page_bytes(&self) -> u64 {
        (self.page_count() * PAGE_SIZE) as u64
    }
}

/// A decoding error.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ImageError(pub &'static str);

impl std::fmt::Display for ImageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "checkpoint image error: {}", self.0)
    }
}

impl std::error::Error for ImageError {}

pub(crate) const MAGIC: &[u8; 8] = b"DVCKPT01";

impl From<ReadError> for ImageError {
    fn from(e: ReadError) -> Self {
        ImageError(e.as_str())
    }
}

/// Serializes an image.
pub fn encode_image(image: &CheckpointImage) -> Vec<u8> {
    encode_image_sections(image).concat()
}

/// Serializes an image as independent byte sections: one header, one
/// per process, one socket table. Concatenated in order they are
/// byte-identical to [`encode_image`]; kept separate they are what the
/// commit pipeline compresses one at a time, and an injected encode
/// fault mangles a byte of the largest.
pub fn encode_image_sections(image: &CheckpointImage) -> Vec<Vec<u8>> {
    let mut sections = Vec::with_capacity(image.processes.len() + 2);

    let mut header = Vec::with_capacity(64 + image.hostname.len());
    header.extend_from_slice(MAGIC);
    header.put_u64(image.counter);
    header.put_u64(image.time.as_nanos());
    match image.kind {
        ImageKind::Full => {
            header.push(0);
            header.put_u64(0);
        }
        ImageKind::Incremental { prev } => {
            header.push(1);
            header.put_u64(prev);
        }
    }
    header.put_str_u32(&image.hostname);
    header.push(image.network_enabled as u8);
    header.put_u32(image.processes.len() as u32);
    sections.push(header);

    for p in &image.processes {
        let mut out = Vec::with_capacity(p.pages.len() * (8 + PAGE_SIZE) + 512);
        encode_process(&mut out, p);
        sections.push(out);
    }

    let mut socks = Vec::with_capacity(4 + image.sockets.len() * 64);
    encode_sockets(&mut socks, &image.sockets);
    sections.push(socks);
    sections
}

fn encode_process(out: &mut Vec<u8>, p: &ProcessRecord) {
    {
        out.put_u64(p.vpid);
        out.put_u64(p.parent.map(|v| v + 1).unwrap_or(0));
        out.put_str_u32(&p.name);
        out.put_u64(p.regs.pc);
        out.put_u64(p.regs.sp);
        for r in p.regs.gpr {
            out.put_u64(r);
        }
        out.put_u32(p.fpu.control);
        for r in p.fpu.st {
            out.put_u64(r);
        }
        out.push(p.sched.nice as u8);
        out.push(p.sched.rt_priority);
        out.put_u32(p.creds.uid);
        out.put_u32(p.creds.gid);
        out.put_u64(p.blocked);
        out.put_u64(p.handled);
        out.put_bytes_u32(&p.pending);
        out.put_u64(p.ptraced_by.map(|v| v + 1).unwrap_or(0));
        out.put_str_u32(&p.cwd);
        out.push(p.net_allowed as u8);

        out.put_u32(p.regions.len() as u32);
        for region in &p.regions {
            out.put_u64(region.start);
            out.put_u64(region.len);
            out.push(matches!(region.prot, Prot::ReadWrite) as u8);
        }
        out.put_u32(p.pages.len() as u32);
        for (addr, page) in &p.pages {
            out.put_u64(*addr);
            out.extend_from_slice(&page[..]);
        }
        out.put_u32(p.fds.len() as u32);
        for fd in &p.fds {
            match fd {
                FdRecord::File {
                    fd,
                    path,
                    offset,
                    unlinked,
                    relink,
                } => {
                    out.push(0);
                    out.put_u32(*fd);
                    out.put_str_u32(path);
                    out.put_u64(*offset);
                    out.push(*unlinked as u8);
                    match relink {
                        Some(r) => {
                            out.push(1);
                            out.put_str_u32(r);
                        }
                        None => out.push(0),
                    }
                }
                FdRecord::Socket { fd, id } => {
                    out.push(1);
                    out.put_u32(*fd);
                    out.put_u64(*id);
                }
            }
        }
    }
}

fn encode_sockets(out: &mut Vec<u8>, sockets: &[SocketRecord]) {
    out.put_u32(sockets.len() as u32);
    for s in sockets {
        out.put_u64(s.id);
        out.push(s.proto);
        out.put_u16(s.local_port);
        match &s.remote {
            Some((host, port)) => {
                out.push(1);
                out.put_str_u32(host);
                out.put_u16(*port);
            }
            None => out.push(0),
        }
        out.push(s.state);
        out.put_u64(s.tx_bytes);
        out.put_u64(s.rx_bytes);
    }
}

/// Deserializes an image. Its pages share one copy of `buf`.
pub fn decode_image(buf: &[u8]) -> Result<CheckpointImage, ImageError> {
    decode_image_with(&Arc::new(buf.to_vec()), |_, _| true)
}

/// Deserializes an image, keeping only the pages `keep(vpid, addr)`
/// accepts, each as a window into `image`; every other page is checked
/// for length and stepped over in place. Revive reads the older images
/// of a chain this way, so a page that a newer image already supplied
/// costs nothing, and a kept one costs no copy.
pub(crate) fn decode_image_with(
    image: &Arc<Vec<u8>>,
    keep: impl FnMut(u64, u64) -> bool,
) -> Result<CheckpointImage, ImageError> {
    let mut src = Plain {
        image,
        r: Reader::new(image),
    };
    decode_from(&mut src, keep)
}

/// Deserializes a compressed image — a [`crate::compress`] stream — as
/// its plaintext streams past, keeping only the pages `keep(vpid,
/// addr)` accepts, each decoded straight into a buffer of its own.
/// Every other page costs only the headers of the RLE tokens it spans,
/// and no plaintext buffer is built.
///
/// `None` when the compressed bytes are malformed. That wins over a
/// malformed image inside them, and the image errors are the ones
/// [`decode_image_with`] gives on the plaintext, so this refuses what
/// [`decompress`](crate::compress::decompress) followed by it refuses,
/// for the same reason.
pub(crate) fn decode_compressed_with(
    blob: &[u8],
    keep: impl FnMut(u64, u64) -> bool,
) -> Option<Result<CheckpointImage, ImageError>> {
    let mut src = Stream {
        cursor: RleCursor::new(blob),
        corrupt: false,
        claimed_end: 0,
    };
    let decoded = decode_from(&mut src, keep);
    if src.corrupt {
        return None;
    }
    match decoded {
        Ok(image) => Some(Ok(image)),
        // The stream is checked to its end whatever the image decoder
        // made of it. A count whose entries the plaintext could not
        // hold is refused as truncated, as the plaintext reader refuses
        // it before reading any entry.
        Err(e) => {
            let total = src.cursor.drain()?;
            Some(Err(if src.claimed_end > total {
                ReadError::Truncated.into()
            } else {
                e
            }))
        }
    }
}

/// The bytes an image is decoded from: its plaintext, or a compressed
/// stream of it. Either reads like [`Reader`]: the same checks in the
/// same order, refused with the same errors.
trait Source {
    /// Fills `out` with the next bytes.
    fn read(&mut self, out: &mut [u8]) -> Result<(), ImageError>;

    /// The next `n` bytes.
    fn vec(&mut self, n: usize) -> Result<Vec<u8>, ImageError>;

    /// A `u32` count of entries at least `min_entry_len` bytes each,
    /// refused as truncated when the bytes left could not hold them (a
    /// stream learns that only at its end).
    fn count(&mut self, min_entry_len: usize) -> Result<usize, ImageError>;

    /// An empty vector for `count` entries: sized up front where the
    /// count was checked against the bytes at hand, grown as entries
    /// arrive where it was not.
    fn vec_for<T>(&self, count: usize) -> Vec<T>;

    /// The next page if `keep`, else `None` once it is stepped over.
    fn page(&mut self, keep: bool) -> Result<Option<Page>, ImageError>;

    /// Ends the image: refuses bytes left over.
    fn finish(&mut self) -> Result<(), ImageError>;

    /// The next `N` bytes.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], ImageError> {
        let mut out = [0; N];
        self.read(&mut out)?;
        Ok(out)
    }

    /// One byte.
    fn u8(&mut self) -> Result<u8, ImageError> {
        self.array().map(u8::from_le_bytes)
    }

    /// A little-endian `u16`.
    fn u16(&mut self) -> Result<u16, ImageError> {
        self.array().map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    fn u32(&mut self) -> Result<u32, ImageError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    fn u64(&mut self) -> Result<u64, ImageError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Bytes behind a `u32` length.
    fn bytes_u32(&mut self) -> Result<Vec<u8>, ImageError> {
        let n = self.u32()? as usize;
        self.vec(n)
    }

    /// A UTF-8 string behind a `u32` length.
    fn string(&mut self) -> Result<String, ImageError> {
        String::from_utf8(self.bytes_u32()?).map_err(|_| ReadError::Utf8.into())
    }

    /// Steps over [`MAGIC`], or refuses an image that does not open
    /// with it.
    fn magic(&mut self) -> Result<(), ImageError> {
        match self.array() {
            Ok(magic) if &magic == MAGIC => Ok(()),
            _ => Err(ReadError::Magic.into()),
        }
    }
}

/// A raw image: its kept pages are windows into it.
struct Plain<'a> {
    image: &'a Arc<Vec<u8>>,
    r: Reader<'a>,
}

impl Source for Plain<'_> {
    fn read(&mut self, out: &mut [u8]) -> Result<(), ImageError> {
        out.copy_from_slice(self.r.bytes(out.len())?);
        Ok(())
    }

    fn vec(&mut self, n: usize) -> Result<Vec<u8>, ImageError> {
        Ok(self.r.bytes(n)?.to_vec())
    }

    fn count(&mut self, min_entry_len: usize) -> Result<usize, ImageError> {
        Ok(self.r.count(min_entry_len)?)
    }

    fn vec_for<T>(&self, count: usize) -> Vec<T> {
        Vec::with_capacity(count)
    }

    fn page(&mut self, keep: bool) -> Result<Option<Page>, ImageError> {
        let at = self.image.len() - self.r.remaining();
        self.r.array::<PAGE_SIZE>()?;
        if !keep {
            return Ok(None);
        }
        let page =
            Page::in_image(self.image.clone(), at).ok_or(ImageError("page past the image"))?;
        Ok(Some(page))
    }

    fn finish(&mut self) -> Result<(), ImageError> {
        Ok(self.r.finish()?)
    }
}

/// A compressed image read through an [`RleCursor`]. How much
/// plaintext is left is known only at its end, so a count is checked
/// then: `claimed_end` is where the most demanding count read so far
/// says the plaintext reaches at least.
struct Stream<'a> {
    cursor: RleCursor<'a>,
    /// Whether the cursor found the compressed bytes malformed.
    corrupt: bool,
    claimed_end: usize,
}

impl Stream<'_> {
    fn refused(&mut self, e: CursorError) -> ImageError {
        self.corrupt |= e == CursorError::Corrupt;
        ReadError::Truncated.into()
    }
}

impl Source for Stream<'_> {
    fn read(&mut self, out: &mut [u8]) -> Result<(), ImageError> {
        self.cursor.read(out).map_err(|e| self.refused(e))
    }

    /// Grows the vector as the plaintext arrives, so a corrupt length
    /// costs no more than the bytes that are there.
    fn vec(&mut self, n: usize) -> Result<Vec<u8>, ImageError> {
        let mut out = Vec::new();
        while out.len() < n {
            let at = out.len();
            out.resize(at + (n - at).min(at.max(64)), 0);
            self.read(&mut out[at..])?;
        }
        Ok(out)
    }

    fn count(&mut self, min_entry_len: usize) -> Result<usize, ImageError> {
        let n = self.u32()? as usize;
        let end = n
            .saturating_mul(min_entry_len)
            .saturating_add(self.cursor.position());
        self.claimed_end = self.claimed_end.max(end);
        Ok(n)
    }

    fn vec_for<T>(&self, _: usize) -> Vec<T> {
        Vec::new()
    }

    fn page(&mut self, keep: bool) -> Result<Option<Page>, ImageError> {
        if !keep {
            return self
                .cursor
                .skip(PAGE_SIZE)
                .map(|()| None)
                .map_err(|e| self.refused(e));
        }
        let mut page: Arc<PageBuf> = Arc::new([0; PAGE_SIZE]);
        self.read(&mut Arc::make_mut(&mut page)[..])?;
        Ok(Some(Page::from(page)))
    }

    fn finish(&mut self) -> Result<(), ImageError> {
        let at = self.cursor.position();
        match self.cursor.drain() {
            Some(end) if end == at => Ok(()),
            Some(_) => Err(ReadError::Trailing.into()),
            None => Err(self.refused(CursorError::Corrupt)),
        }
    }
}

/// The one image decoder, over either [`Source`].
fn decode_from(
    src: &mut impl Source,
    mut keep: impl FnMut(u64, u64) -> bool,
) -> Result<CheckpointImage, ImageError> {
    src.magic()?;
    let counter = src.u64()?;
    let time = Timestamp::from_nanos(src.u64()?);
    let kind = match (src.u8()?, src.u64()?) {
        (0, _) => ImageKind::Full,
        (1, prev) => ImageKind::Incremental { prev },
        _ => return Err(ImageError("bad image kind")),
    };
    let hostname = src.string()?;
    let network_enabled = src.u8()? != 0;
    let proc_count = src.count(PROCESS_MIN_LEN)?;
    let mut processes = src.vec_for(proc_count);
    for _ in 0..proc_count {
        processes.push(decode_process(src, &mut keep)?);
    }
    // Id, protocol, port, remote flag, state and two byte counts.
    let sock_count = src.count(29)?;
    let mut sockets = src.vec_for(sock_count);
    for _ in 0..sock_count {
        sockets.push(SocketRecord {
            id: src.u64()?,
            proto: src.u8()?,
            local_port: src.u16()?,
            remote: match src.u8()? {
                0 => None,
                1 => Some((src.string()?, src.u16()?)),
                _ => return Err(ImageError("bad remote flag")),
            },
            state: src.u8()?,
            tx_bytes: src.u64()?,
            rx_bytes: src.u64()?,
        });
    }
    src.finish()?;
    Ok(CheckpointImage {
        counter,
        time,
        kind,
        hostname,
        network_enabled,
        processes,
        sockets,
    })
}

/// Bytes of a process record's fixed block: registers, FPU state,
/// scheduling, credentials and the two signal masks.
const PROCESS_FIXED_LEN: usize = 16 + 64 + 4 + 64 + 2 + 8 + 16;

/// The fewest bytes a process record takes: vpid, parent, the fixed
/// block, ptrace, the flag and six lengths and counts.
const PROCESS_MIN_LEN: usize = 8 + 8 + PROCESS_FIXED_LEN + 8 + 1 + 6 * 4;

fn decode_process(
    src: &mut impl Source,
    keep: &mut impl FnMut(u64, u64) -> bool,
) -> Result<ProcessRecord, ImageError> {
    let vpid = src.u64()?;
    let parent = src.u64()?.checked_sub(1);
    let name = src.string()?;
    let fixed = src.array::<PROCESS_FIXED_LEN>()?;
    let mut fixed = Reader::new(&fixed);
    let mut regs = Registers {
        pc: fixed.u64()?,
        sp: fixed.u64()?,
        gpr: [0; 8],
    };
    for g in &mut regs.gpr {
        *g = fixed.u64()?;
    }
    let mut fpu = FpuState {
        control: fixed.u32()?,
        st: [0; 8],
    };
    for st in &mut fpu.st {
        *st = fixed.u64()?;
    }
    let sched = SchedParams {
        nice: fixed.i8()?,
        rt_priority: fixed.u8()?,
    };
    let creds = Credentials {
        uid: fixed.u32()?,
        gid: fixed.u32()?,
    };
    let blocked = fixed.u64()?;
    let handled = fixed.u64()?;
    let pending = src.bytes_u32()?;
    let ptraced_by = src.u64()?.checked_sub(1);
    let cwd = src.string()?;
    let net_allowed = src.u8()? != 0;

    let region_count = src.count(17)?;
    let mut regions = src.vec_for(region_count);
    for _ in 0..region_count {
        regions.push(MemRegion {
            start: src.u64()?,
            len: src.u64()?,
            prot: match src.u8()? {
                0 => Prot::ReadOnly,
                _ => Prot::ReadWrite,
            },
        });
    }
    let page_count = src.count(8 + PAGE_SIZE)?;
    let mut pages = Vec::new();
    for _ in 0..page_count {
        let addr = src.u64()?;
        if let Some(page) = src.page(keep(vpid, addr))? {
            pages.push((addr, page));
        }
    }
    // A socket descriptor (tag, fd, id) is the shorter kind.
    let fd_count = src.count(13)?;
    let mut fds = src.vec_for(fd_count);
    for _ in 0..fd_count {
        let tag = src.u8()?;
        let fd = src.u32()?;
        fds.push(match tag {
            0 => FdRecord::File {
                fd,
                path: src.string()?,
                offset: src.u64()?,
                unlinked: src.u8()? != 0,
                relink: match src.u8()? {
                    0 => None,
                    1 => Some(src.string()?),
                    _ => return Err(ImageError("bad relink flag")),
                },
            },
            1 => FdRecord::Socket { fd, id: src.u64()? },
            _ => return Err(ImageError("bad fd tag")),
        });
    }
    Ok(ProcessRecord {
        vpid,
        parent,
        name,
        regs,
        fpu,
        sched,
        creds,
        blocked,
        handled,
        pending,
        ptraced_by,
        cwd,
        net_allowed,
        regions,
        pages,
        fds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_image() -> CheckpointImage {
        let mut page_a = [0u8; PAGE_SIZE];
        page_a[..4].copy_from_slice(b"AAAA");
        let mut page_b = [0u8; PAGE_SIZE];
        page_b[PAGE_SIZE - 4..].copy_from_slice(b"BBBB");
        CheckpointImage {
            counter: 42,
            time: Timestamp::from_millis(123_456),
            kind: ImageKind::Incremental { prev: 41 },
            hostname: "dejaview-1".into(),
            network_enabled: true,
            processes: vec![ProcessRecord {
                vpid: 1,
                parent: None,
                name: "init".into(),
                regs: Registers {
                    pc: 0xdead,
                    sp: 0xbeef,
                    gpr: [1, 2, 3, 4, 5, 6, 7, 8],
                },
                fpu: FpuState {
                    control: 0x37f,
                    st: [9; 8],
                },
                sched: SchedParams {
                    nice: -5,
                    rt_priority: 0,
                },
                creds: Credentials {
                    uid: 1000,
                    gid: 100,
                },
                blocked: 0b1010,
                handled: 0b0100,
                pending: vec![1, 7],
                ptraced_by: Some(3),
                cwd: "/home/user".into(),
                net_allowed: false,
                regions: vec![
                    MemRegion {
                        start: 0x1000_0000,
                        len: 2 * PAGE_SIZE as u64,
                        prot: Prot::ReadWrite,
                    },
                    MemRegion {
                        start: 0x2000_0000,
                        len: PAGE_SIZE as u64,
                        prot: Prot::ReadOnly,
                    },
                ],
                pages: vec![(0x1000_0000, page_a.into()), (0x1000_1000, page_b.into())],
                fds: vec![
                    FdRecord::File {
                        fd: 3,
                        path: "/tmp/doc".into(),
                        offset: 77,
                        unlinked: true,
                        relink: Some("/.dejaview/relink-42-0".into()),
                    },
                    FdRecord::Socket { fd: 4, id: 9 },
                ],
            }],
            sockets: vec![SocketRecord {
                id: 9,
                proto: 0,
                local_port: 40000,
                remote: Some(("example.com".into(), 443)),
                state: 1,
                tx_bytes: 100,
                rx_bytes: 2000,
            }],
        }
    }

    #[test]
    fn round_trip() {
        let image = sample_image();
        let encoded = encode_image(&image);
        let decoded = decode_image(&encoded).unwrap();
        assert_eq!(decoded.counter, image.counter);
        assert_eq!(decoded.time, image.time);
        assert_eq!(decoded.kind, image.kind);
        assert_eq!(decoded.hostname, image.hostname);
        let (p, q) = (&decoded.processes[0], &image.processes[0]);
        assert_eq!(p.vpid, q.vpid);
        assert_eq!(p.regs, q.regs);
        assert_eq!(p.fpu, q.fpu);
        assert_eq!(p.sched, q.sched);
        assert_eq!(p.creds, q.creds);
        assert_eq!(p.pending, q.pending);
        assert_eq!(p.ptraced_by, q.ptraced_by);
        assert_eq!(p.cwd, q.cwd);
        assert_eq!(p.net_allowed, q.net_allowed);
        assert_eq!(p.regions.len(), 2);
        assert_eq!(p.regions[1].prot, Prot::ReadOnly);
        assert_eq!(p.pages.len(), 2);
        assert_eq!(&p.pages[0].1[..4], b"AAAA");
        assert_eq!(p.fds, q.fds);
        assert_eq!(decoded.sockets, image.sockets);
    }

    #[test]
    fn full_image_kind_round_trips() {
        let mut image = sample_image();
        image.kind = ImageKind::Full;
        let decoded = decode_image(&encode_image(&image)).unwrap();
        assert_eq!(decoded.kind, ImageKind::Full);
    }

    #[test]
    fn decode_rejects_corruption() {
        let encoded = encode_image(&sample_image());
        assert!(decode_image(b"garbage").is_err());
        assert!(decode_image(&encoded[..100]).is_err());
        let mut extra = encoded.clone();
        extra.push(1);
        assert!(decode_image(&extra).is_err());
    }

    #[test]
    fn sections_concatenate_to_the_monolithic_encoding() {
        let image = sample_image();
        let sections = encode_image_sections(&image);
        assert_eq!(
            sections.len(),
            image.processes.len() + 2,
            "header + one per process + sockets"
        );
        let concat: Vec<u8> = sections.concat();
        assert_eq!(concat, encode_image(&image));
        assert!(decode_image(&concat).is_ok());
    }

    #[test]
    fn page_accounting() {
        let image = sample_image();
        assert_eq!(image.page_count(), 2);
        assert_eq!(image.page_bytes(), 2 * PAGE_SIZE as u64);
    }
}
