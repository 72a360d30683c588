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

use bytes::{Buf, BufMut};

use dv_time::Timestamp;
use dv_vee::{Credentials, FpuState, MemRegion, PageBuf, Prot, Registers, SchedParams, PAGE_SIZE};

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
    /// until serialization.
    pub pages: Vec<(u64, Arc<PageBuf>)>,
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

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.put_u32_le(s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn get_str(buf: &mut &[u8]) -> Result<String, ImageError> {
    if buf.len() < 4 {
        return Err(ImageError("truncated string"));
    }
    let len = buf.get_u32_le() as usize;
    if buf.len() < len {
        return Err(ImageError("truncated string body"));
    }
    let (s, rest) = buf.split_at(len);
    let out = String::from_utf8(s.to_vec()).map_err(|_| ImageError("invalid utf-8"))?;
    *buf = rest;
    Ok(out)
}

fn need(buf: &[u8], n: usize) -> Result<(), ImageError> {
    if buf.len() < n {
        Err(ImageError("truncated image"))
    } else {
        Ok(())
    }
}

/// Serializes an image.
pub fn encode_image(image: &CheckpointImage) -> Vec<u8> {
    let sections = encode_image_sections(image);
    let total = sections.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for section in sections {
        out.extend_from_slice(&section);
    }
    out
}

/// Serializes an image as independent byte sections: one header, one
/// per process, one socket table. Concatenated in order they are
/// byte-identical to [`encode_image`]; kept separate they are the unit
/// of parallel compression in the deferred write-back pipeline (each
/// worker subtask compresses one process's pages).
pub fn encode_image_sections(image: &CheckpointImage) -> Vec<Vec<u8>> {
    let mut sections = Vec::with_capacity(image.processes.len() + 2);

    let mut header = Vec::with_capacity(64 + image.hostname.len());
    header.extend_from_slice(MAGIC);
    header.put_u64_le(image.counter);
    header.put_u64_le(image.time.as_nanos());
    match image.kind {
        ImageKind::Full => {
            header.put_u8(0);
            header.put_u64_le(0);
        }
        ImageKind::Incremental { prev } => {
            header.put_u8(1);
            header.put_u64_le(prev);
        }
    }
    put_str(&mut header, &image.hostname);
    header.put_u8(image.network_enabled as u8);
    header.put_u32_le(image.processes.len() as u32);
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
        out.put_u64_le(p.vpid);
        out.put_u64_le(p.parent.map(|v| v + 1).unwrap_or(0));
        put_str(out, &p.name);
        out.put_u64_le(p.regs.pc);
        out.put_u64_le(p.regs.sp);
        for r in p.regs.gpr {
            out.put_u64_le(r);
        }
        out.put_u32_le(p.fpu.control);
        for r in p.fpu.st {
            out.put_u64_le(r);
        }
        out.put_i8(p.sched.nice);
        out.put_u8(p.sched.rt_priority);
        out.put_u32_le(p.creds.uid);
        out.put_u32_le(p.creds.gid);
        out.put_u64_le(p.blocked);
        out.put_u64_le(p.handled);
        out.put_u32_le(p.pending.len() as u32);
        out.extend_from_slice(&p.pending);
        out.put_u64_le(p.ptraced_by.map(|v| v + 1).unwrap_or(0));
        put_str(out, &p.cwd);
        out.put_u8(p.net_allowed as u8);

        out.put_u32_le(p.regions.len() as u32);
        for region in &p.regions {
            out.put_u64_le(region.start);
            out.put_u64_le(region.len);
            out.put_u8(matches!(region.prot, Prot::ReadWrite) as u8);
        }
        out.put_u32_le(p.pages.len() as u32);
        for (addr, page) in &p.pages {
            out.put_u64_le(*addr);
            out.extend_from_slice(&page[..]);
        }
        out.put_u32_le(p.fds.len() as u32);
        for fd in &p.fds {
            match fd {
                FdRecord::File {
                    fd,
                    path,
                    offset,
                    unlinked,
                    relink,
                } => {
                    out.put_u8(0);
                    out.put_u32_le(*fd);
                    put_str(out, path);
                    out.put_u64_le(*offset);
                    out.put_u8(*unlinked as u8);
                    match relink {
                        Some(r) => {
                            out.put_u8(1);
                            put_str(out, r);
                        }
                        None => out.put_u8(0),
                    }
                }
                FdRecord::Socket { fd, id } => {
                    out.put_u8(1);
                    out.put_u32_le(*fd);
                    out.put_u64_le(*id);
                }
            }
        }
    }
}

fn encode_sockets(out: &mut Vec<u8>, sockets: &[SocketRecord]) {
    out.put_u32_le(sockets.len() as u32);
    for s in sockets {
        out.put_u64_le(s.id);
        out.put_u8(s.proto);
        out.put_u16_le(s.local_port);
        match &s.remote {
            Some((host, port)) => {
                out.put_u8(1);
                put_str(out, host);
                out.put_u16_le(*port);
            }
            None => out.put_u8(0),
        }
        out.put_u8(s.state);
        out.put_u64_le(s.tx_bytes);
        out.put_u64_le(s.rx_bytes);
    }
}

/// Deserializes an image.
pub fn decode_image(mut buf: &[u8]) -> Result<CheckpointImage, ImageError> {
    need(buf, 8)?;
    if &buf[..8] != MAGIC {
        return Err(ImageError("bad magic"));
    }
    buf.advance(8);
    need(buf, 25)?;
    let counter = buf.get_u64_le();
    let time = Timestamp::from_nanos(buf.get_u64_le());
    let kind = match buf.get_u8() {
        0 => {
            let _ = buf.get_u64_le();
            ImageKind::Full
        }
        1 => ImageKind::Incremental {
            prev: buf.get_u64_le(),
        },
        _ => return Err(ImageError("bad image kind")),
    };
    let hostname = get_str(&mut buf)?;
    need(buf, 1)?;
    let network_enabled = buf.get_u8() != 0;

    need(buf, 4)?;
    let proc_count = buf.get_u32_le();
    // Counts are untrusted: grow vectors as records validate rather
    // than pre-allocating attacker-controlled sizes.
    let mut processes = Vec::new();
    for _ in 0..proc_count {
        need(buf, 16)?;
        let vpid = buf.get_u64_le();
        let parent_raw = buf.get_u64_le();
        let parent = parent_raw.checked_sub(1);
        let name = get_str(&mut buf)?;
        need(buf, 16 + 64 + 4 + 64 + 2 + 8 + 16 + 4)?;
        let mut regs = Registers {
            pc: buf.get_u64_le(),
            sp: buf.get_u64_le(),
            gpr: [0; 8],
        };
        for r in &mut regs.gpr {
            *r = buf.get_u64_le();
        }
        let mut fpu = FpuState {
            control: buf.get_u32_le(),
            st: [0; 8],
        };
        for r in &mut fpu.st {
            *r = buf.get_u64_le();
        }
        let sched = SchedParams {
            nice: buf.get_i8(),
            rt_priority: buf.get_u8(),
        };
        let creds = Credentials {
            uid: buf.get_u32_le(),
            gid: buf.get_u32_le(),
        };
        let blocked = buf.get_u64_le();
        let handled = buf.get_u64_le();
        let pending_len = buf.get_u32_le() as usize;
        need(buf, pending_len)?;
        let pending = buf[..pending_len].to_vec();
        buf.advance(pending_len);
        need(buf, 8)?;
        let ptraced_by = buf.get_u64_le().checked_sub(1);
        let cwd = get_str(&mut buf)?;
        need(buf, 5)?;
        let net_allowed = buf.get_u8() != 0;

        let region_count = buf.get_u32_le() as usize;
        let mut regions = Vec::new();
        for _ in 0..region_count {
            need(buf, 17)?;
            let start = buf.get_u64_le();
            let len = buf.get_u64_le();
            let prot = if buf.get_u8() != 0 {
                Prot::ReadWrite
            } else {
                Prot::ReadOnly
            };
            regions.push(MemRegion { start, len, prot });
        }
        need(buf, 4)?;
        let page_count = buf.get_u32_le() as usize;
        let mut pages = Vec::new();
        for _ in 0..page_count {
            need(buf, 8 + PAGE_SIZE)?;
            let addr = buf.get_u64_le();
            let mut page = [0u8; PAGE_SIZE];
            page.copy_from_slice(&buf[..PAGE_SIZE]);
            buf.advance(PAGE_SIZE);
            pages.push((addr, Arc::new(page)));
        }
        need(buf, 4)?;
        let fd_count = buf.get_u32_le() as usize;
        let mut fds = Vec::new();
        for _ in 0..fd_count {
            need(buf, 5)?;
            let tag = buf.get_u8();
            let fd = buf.get_u32_le();
            match tag {
                0 => {
                    let path = get_str(&mut buf)?;
                    need(buf, 10)?;
                    let offset = buf.get_u64_le();
                    let unlinked = buf.get_u8() != 0;
                    let relink = match buf.get_u8() {
                        0 => None,
                        1 => Some(get_str(&mut buf)?),
                        _ => return Err(ImageError("bad relink flag")),
                    };
                    fds.push(FdRecord::File {
                        fd,
                        path,
                        offset,
                        unlinked,
                        relink,
                    });
                }
                1 => {
                    need(buf, 8)?;
                    fds.push(FdRecord::Socket {
                        fd,
                        id: buf.get_u64_le(),
                    });
                }
                _ => return Err(ImageError("bad fd tag")),
            }
        }
        processes.push(ProcessRecord {
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
        });
    }

    need(buf, 4)?;
    let sock_count = buf.get_u32_le() as usize;
    let mut sockets = Vec::new();
    for _ in 0..sock_count {
        need(buf, 12)?;
        let id = buf.get_u64_le();
        let proto = buf.get_u8();
        let local_port = buf.get_u16_le();
        let remote = match buf.get_u8() {
            0 => None,
            1 => {
                let host = get_str(&mut buf)?;
                need(buf, 2)?;
                Some((host, buf.get_u16_le()))
            }
            _ => return Err(ImageError("bad remote flag")),
        };
        need(buf, 17)?;
        let state = buf.get_u8();
        let tx_bytes = buf.get_u64_le();
        let rx_bytes = buf.get_u64_le();
        sockets.push(SocketRecord {
            id,
            proto,
            local_port,
            remote,
            state,
            tx_bytes,
            rx_bytes,
        });
    }
    if !buf.is_empty() {
        return Err(ImageError("trailing bytes"));
    }
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
                pages: vec![
                    (0x1000_0000, Arc::new(page_a)),
                    (0x1000_1000, Arc::new(page_b)),
                ],
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
