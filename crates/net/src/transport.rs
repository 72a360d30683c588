//! The byte-stream transport abstraction.
//!
//! dv-net speaks to clients through [`Transport`]: an ordered,
//! unframed, non-blocking byte stream with explicit lifecycle and an
//! edge-level [`Readiness`] facet the service's reactor uses to skip
//! quiet connections without issuing a single syscall. Two
//! implementations ship here:
//!
//! * [`LoopbackTransport`] — an in-memory duplex pipe over two
//!   [`ByteChannel`]s, deterministic under `dv-time`, with every send
//!   and receive routed through the `dv-fault` plane
//!   ([`dv_fault::sites::NET_SEND`] / [`dv_fault::sites::NET_RECV`]) so
//!   torn frames, stalls, corruption, and resets are injectable on a
//!   seeded schedule.
//! * [`TcpTransport`] — real `std::net` TCP in non-blocking mode, for
//!   serving actual remote viewers.

use dv_display::{ByteChannel, ChannelClosed};
use dv_fault::{sites, FaultPlane, IoFault};

/// Errors surfaced by a transport operation.
///
/// Both are terminal: after either, the endpoint is closed and every
/// further operation fails.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TransportError {
    /// The peer closed the stream in an orderly way (EOF).
    Closed,
    /// The connection died mid-stream (injected or real reset).
    Reset,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Closed => write!(f, "transport closed by peer"),
            TransportError::Reset => write!(f, "transport connection reset"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Edge-level readiness of a transport endpoint, in the poll(2) sense.
///
/// The service's reactor consults this before doing any real work on a
/// connection: a quiet endpoint (`!readable && !closed`) is skipped
/// without a single `recv` call, which is what lets one `poll` turn
/// scale to a thousand mostly-idle viewers. Readiness is a *hint*
/// about whether an operation could make progress right now — it never
/// replaces the operation's own result. Spurious readiness is
/// harmless (the visit finds `Ok(0)` and moves on); a transport must
/// only guarantee it never reports *unready* while bytes or an EOF are
/// actually pending.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Readiness {
    /// Bytes (or a pending EOF) are available to `recv`.
    pub readable: bool,
    /// A `send` could accept bytes right now.
    pub writable: bool,
    /// The endpoint is dead: the next operation will surface
    /// [`TransportError`]. Closed endpoints must still be visited so
    /// the error (and the drop report behind it) isn't deferred.
    pub closed: bool,
}

impl Readiness {
    /// The conservative "always visit me" answer: readable and
    /// writable, not closed.
    pub const READY: Readiness = Readiness {
        readable: true,
        writable: true,
        closed: false,
    };

    /// Whether the reactor may skip this connection's inbound side.
    #[must_use]
    pub fn inbound_quiet(&self) -> bool {
        !self.readable && !self.closed
    }
}

/// An ordered non-blocking byte stream with explicit lifecycle.
///
/// `Ok(0)` from [`send`](Transport::send) or [`recv`](Transport::recv)
/// means "nothing moved right now, try again later" (a stall or an
/// empty buffer) — never EOF. Peer departure is always an `Err`, so
/// callers can tell "no bytes yet" from "peer gone".
pub trait Transport: Send {
    /// Writes a prefix of `bytes`, returning how many were accepted.
    ///
    /// # Errors
    ///
    /// [`TransportError`] once the stream is closed or reset.
    fn send(&mut self, bytes: &[u8]) -> Result<usize, TransportError>;

    /// Reads into `buf`, returning how many bytes arrived.
    ///
    /// # Errors
    ///
    /// [`TransportError`] once the stream is drained *and* closed, or
    /// reset.
    fn recv(&mut self, buf: &mut [u8]) -> Result<usize, TransportError>;

    /// Closes this endpoint; the peer sees EOF after draining.
    fn close(&mut self);

    /// Whether this endpoint is still open.
    fn is_open(&self) -> bool;

    /// Reports edge-level readiness without moving any bytes.
    ///
    /// The default claims [`Readiness::READY`] — always visit — which
    /// is correct (if wasteful) for any transport: readiness may be
    /// spuriously true, never falsely quiet. Implementations that can
    /// answer cheaply (a buffered channel's length, a socket `peek`)
    /// should override so the reactor can skip them when idle.
    fn readiness(&mut self) -> Readiness {
        if self.is_open() {
            Readiness::READY
        } else {
            Readiness {
                readable: true,
                writable: false,
                closed: true,
            }
        }
    }
}

/// One endpoint of an in-memory duplex pipe.
///
/// Deterministic and fault-injectable: every `send` checks
/// [`sites::NET_SEND`] and every `recv` checks [`sites::NET_RECV`]
/// against the installed [`FaultPlane`]. Fault realizations:
///
/// | fault | `send` | `recv` |
/// |---|---|---|
/// | `LatencySpike` | stall: `Ok(0)`, nothing moves | stall: `Ok(0)` |
/// | `ShortRead` | partial write (prefix accepted) | partial read |
/// | `Corrupt` | one byte mangled in flight | one byte mangled |
/// | `TornWrite` | prefix delivered, then reset | reset |
/// | `Enospc` | reset, nothing delivered | reset |
///
/// A reset closes both directions, exactly like a dead socket: the
/// peer sees EOF after draining whatever was already in flight.
pub struct LoopbackTransport {
    tx: ByteChannel,
    rx: ByteChannel,
    plane: FaultPlane,
    /// Max bytes moved per call, so frames routinely span calls the
    /// way MTU-sized TCP segments would. `usize::MAX` disables.
    chunk: usize,
}

impl LoopbackTransport {
    /// Creates a connected pair of endpoints with no fault plane.
    pub fn pair() -> (LoopbackTransport, LoopbackTransport) {
        LoopbackTransport::faulty_pair(&FaultPlane::disabled())
    }

    /// Creates a connected pair with `plane` checked on every
    /// operation *of both endpoints* (they share the schedule, like
    /// two NICs on one injected network).
    pub fn faulty_pair(plane: &FaultPlane) -> (LoopbackTransport, LoopbackTransport) {
        let a_to_b = ByteChannel::new();
        let b_to_a = ByteChannel::new();
        let a = LoopbackTransport {
            tx: a_to_b.clone(),
            rx: b_to_a.clone(),
            plane: plane.clone(),
            chunk: 1400,
        };
        let b = LoopbackTransport {
            tx: b_to_a,
            rx: a_to_b,
            plane: plane.clone(),
            chunk: 1400,
        };
        (a, b)
    }

    /// Overrides the per-call transfer cap (default 1400, MTU-ish).
    #[cfg(test)]
    pub(crate) fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk.max(1);
        self
    }

    fn reset(&mut self) -> TransportError {
        self.tx.close();
        self.rx.close();
        TransportError::Reset
    }
}

impl Transport for LoopbackTransport {
    fn send(&mut self, bytes: &[u8]) -> Result<usize, TransportError> {
        if self.tx.is_closed() {
            return Err(TransportError::Closed);
        }
        let take = bytes.len().min(self.chunk);
        match self.plane.check(sites::NET_SEND) {
            None => Ok(self.tx.send(&bytes[..take])),
            Some(IoFault::LatencySpike) => Ok(0),
            Some(IoFault::ShortRead) => {
                let short = self.plane.short_len(take);
                Ok(self.tx.send(&bytes[..short]))
            }
            Some(IoFault::Corrupt) => {
                let mut mangled = bytes[..take].to_vec();
                self.plane.mangle(&mut mangled);
                Ok(self.tx.send(&mangled))
            }
            Some(IoFault::TornWrite) => {
                let torn = self.plane.short_len(take);
                self.tx.send(&bytes[..torn]);
                Err(self.reset())
            }
            Some(IoFault::Enospc) => Err(self.reset()),
        }
    }

    fn recv(&mut self, buf: &mut [u8]) -> Result<usize, TransportError> {
        let fault = self.plane.check(sites::NET_RECV);
        match fault {
            Some(IoFault::LatencySpike) => return Ok(0),
            Some(IoFault::TornWrite) | Some(IoFault::Enospc) => return Err(self.reset()),
            _ => {}
        }
        let want = match fault {
            Some(IoFault::ShortRead) => self.plane.short_len(buf.len().min(self.chunk)).max(1),
            _ => buf.len().min(self.chunk),
        };
        let got = self
            .rx
            .recv_into(&mut buf[..want])
            .map_err(|ChannelClosed| TransportError::Closed)?;
        if matches!(fault, Some(IoFault::Corrupt)) {
            self.plane.mangle(&mut buf[..got]);
        }
        Ok(got)
    }

    fn close(&mut self) {
        self.tx.close();
        self.rx.close();
    }

    fn is_open(&self) -> bool {
        !self.tx.is_closed()
    }

    /// Deterministic readiness from the channel buffers: readable iff
    /// bytes are queued (or the peer closed, so EOF is pending),
    /// writable until this side closes. No fault-plane check — probing
    /// readiness is not an I/O operation and must not consume injected
    /// faults out from under the operation they were scheduled for.
    fn readiness(&mut self) -> Readiness {
        let tx_closed = self.tx.is_closed();
        let rx_closed = self.rx.is_closed();
        Readiness {
            readable: !self.rx.is_empty() || rx_closed,
            writable: !tx_closed,
            closed: tx_closed || rx_closed,
        }
    }
}

/// Retries `op` for as long as it fails with `ErrorKind::Interrupted`.
///
/// EINTR means the syscall was interrupted by a signal before moving
/// any data; it is immediately retryable. Surfacing it as a zero-byte
/// "stall" (as this module once did) feeds the service's exponential
/// backoff and can escalate a perfectly healthy connection into a
/// `Stalled` disconnect.
fn io_retry<T>(mut op: impl FnMut() -> std::io::Result<T>) -> std::io::Result<T> {
    loop {
        match op() {
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            other => return other,
        }
    }
}

/// A [`Transport`] over a real non-blocking [`std::net::TcpStream`].
pub struct TcpTransport {
    stream: std::net::TcpStream,
    open: bool,
}

impl TcpTransport {
    /// Wraps a connected stream, switching it to non-blocking mode and
    /// disabling Nagle (frames are latency-sensitive).
    ///
    /// # Errors
    ///
    /// Propagates the `set_nonblocking` failure.
    pub fn new(stream: std::net::TcpStream) -> std::io::Result<Self> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(TcpTransport { stream, open: true })
    }

    /// Connects to `addr` and wraps the stream.
    ///
    /// # Errors
    ///
    /// Propagates connection failure.
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> std::io::Result<Self> {
        TcpTransport::new(std::net::TcpStream::connect(addr)?)
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, bytes: &[u8]) -> Result<usize, TransportError> {
        use std::io::Write;
        if !self.open {
            return Err(TransportError::Closed);
        }
        match io_retry(|| self.stream.write(bytes)) {
            Ok(n) => Ok(n),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(0),
            Err(_) => {
                self.open = false;
                Err(TransportError::Reset)
            }
        }
    }

    fn recv(&mut self, buf: &mut [u8]) -> Result<usize, TransportError> {
        use std::io::Read;
        if !self.open {
            return Err(TransportError::Closed);
        }
        match io_retry(|| self.stream.read(buf)) {
            Ok(0) if !buf.is_empty() => {
                self.open = false;
                Err(TransportError::Closed)
            }
            Ok(n) => Ok(n),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(0),
            Err(_) => {
                self.open = false;
                Err(TransportError::Reset)
            }
        }
    }

    fn close(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        self.open = false;
    }

    fn is_open(&self) -> bool {
        self.open
    }

    /// Poll-style readiness from a one-byte non-blocking `peek`:
    /// `Ok(n>0)` means bytes are buffered, `Ok(0)` means EOF is
    /// pending (readable so `recv` surfaces it), `WouldBlock` means
    /// quiet. Writability is claimed optimistically while the socket
    /// is open — a full send buffer still answers `Ok(0)` from `send`
    /// and rides the service's retry backoff, exactly as before.
    fn readiness(&mut self) -> Readiness {
        if !self.open {
            return Readiness {
                readable: true,
                writable: false,
                closed: true,
            };
        }
        let mut probe = [0u8; 1];
        match io_retry(|| self.stream.peek(&mut probe)) {
            Ok(0) => Readiness {
                readable: true,
                writable: true,
                closed: true,
            },
            Ok(_) => Readiness::READY,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Readiness {
                readable: false,
                writable: true,
                closed: false,
            },
            Err(_) => Readiness {
                readable: true,
                writable: false,
                closed: true,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv_fault::FaultPlan;

    #[test]
    fn loopback_pair_is_duplex() {
        let (mut a, mut b) = LoopbackTransport::pair();
        assert_eq!(a.send(b"ping").unwrap(), 4);
        let mut buf = [0u8; 16];
        assert_eq!(b.recv(&mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"ping");
        assert_eq!(b.send(b"pong!").unwrap(), 5);
        assert_eq!(a.recv(&mut buf).unwrap(), 5);
        assert_eq!(&buf[..5], b"pong!");
        // Nothing pending: a quiet Ok(0), not an error.
        assert_eq!(a.recv(&mut buf).unwrap(), 0);
    }

    #[test]
    fn close_drains_then_reports_closed() {
        let (mut a, mut b) = LoopbackTransport::pair();
        a.send(b"last words").unwrap();
        a.close();
        assert!(!a.is_open());
        let mut buf = [0u8; 64];
        assert_eq!(b.recv(&mut buf).unwrap(), 10);
        assert_eq!(b.recv(&mut buf), Err(TransportError::Closed));
        assert_eq!(b.send(b"into the void"), Err(TransportError::Closed));
    }

    #[test]
    fn injected_stall_is_transient() {
        let plane = FaultPlan::new(3)
            .fail_nth(sites::NET_SEND, 1, IoFault::LatencySpike)
            .build();
        let (mut a, mut b) = LoopbackTransport::faulty_pair(&plane);
        assert_eq!(a.send(b"delayed").unwrap(), 0, "stalled");
        assert_eq!(a.send(b"delayed").unwrap(), 7, "retry moves the bytes");
        let mut buf = [0u8; 16];
        assert_eq!(b.recv(&mut buf).unwrap(), 7);
    }

    #[test]
    fn injected_reset_closes_both_directions() {
        let plane = FaultPlan::new(4)
            .fail_nth(sites::NET_SEND, 2, IoFault::TornWrite)
            .build();
        let (mut a, mut b) = LoopbackTransport::faulty_pair(&plane);
        assert!(a.send(b"intact frame").is_ok());
        assert_eq!(a.send(b"torn frame bytes"), Err(TransportError::Reset));
        assert!(!a.is_open());
        // The peer drains delivered bytes (including the torn prefix),
        // then sees EOF.
        let mut buf = [0u8; 64];
        let mut drained = 0;
        loop {
            match b.recv(&mut buf) {
                Ok(n) => drained += n,
                Err(e) => {
                    assert_eq!(e, TransportError::Closed);
                    break;
                }
            }
        }
        assert!(drained >= b"intact frame".len());
        assert_eq!(plane.injected_at(sites::NET_SEND), 1);
    }

    #[test]
    fn loopback_readiness_is_deterministic() {
        let (mut a, mut b) = LoopbackTransport::pair();
        // Fresh pair: quiet inbound, writable, alive.
        let r = a.readiness();
        assert!(r.inbound_quiet());
        assert!(!r.readable && r.writable && !r.closed);
        // Peer bytes flip the readable edge without being consumed.
        b.send(b"knock").unwrap();
        let r = a.readiness();
        assert!(r.readable && !r.closed);
        assert!(!r.inbound_quiet());
        let mut buf = [0u8; 16];
        assert_eq!(a.recv(&mut buf).unwrap(), 5);
        assert!(a.readiness().inbound_quiet(), "drained means quiet again");
        // Peer close: readable (EOF pending) and closed — never quiet,
        // so the reactor still visits and surfaces the drop.
        b.close();
        let r = a.readiness();
        assert!(r.readable && r.closed);
        assert!(!r.inbound_quiet());
        assert_eq!(a.recv(&mut buf), Err(TransportError::Closed));
    }

    #[test]
    fn readiness_probe_consumes_no_injected_faults() {
        let plane = FaultPlan::new(9)
            .fail_nth(sites::NET_RECV, 1, IoFault::LatencySpike)
            .build();
        let (mut a, mut b) = LoopbackTransport::faulty_pair(&plane);
        b.send(b"x").unwrap();
        // However often readiness is probed, the scheduled fault still
        // lands on the first real recv.
        for _ in 0..10 {
            assert!(a.readiness().readable);
        }
        let mut buf = [0u8; 4];
        assert_eq!(a.recv(&mut buf).unwrap(), 0, "fault fires on the op");
        assert_eq!(a.recv(&mut buf).unwrap(), 1);
    }

    #[test]
    fn io_retry_absorbs_eintr_without_burning_a_call() {
        // Regression: EINTR used to map to Ok(0), which pump_queues
        // counts as a stall. It must be retried inline instead.
        let mut calls = 0;
        let got = io_retry(|| {
            calls += 1;
            if calls < 3 {
                Err(std::io::Error::from(std::io::ErrorKind::Interrupted))
            } else {
                Ok(5usize)
            }
        })
        .unwrap();
        assert_eq!(got, 5);
        assert_eq!(calls, 3, "retried exactly until the syscall landed");
        // Other errors pass straight through.
        let err = io_retry(|| -> std::io::Result<usize> {
            Err(std::io::Error::from(std::io::ErrorKind::WouldBlock))
        })
        .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
    }

    #[test]
    fn tcp_transport_round_trips_localhost() {
        let listener = match std::net::TcpListener::bind("127.0.0.1:0") {
            Ok(l) => l,
            // Sandboxed environments may forbid sockets entirely; the
            // loopback transport covers the protocol in that case.
            Err(_) => return,
        };
        let addr = listener.local_addr().unwrap();
        let mut client = TcpTransport::connect(addr).unwrap();
        let (server_stream, _) = listener.accept().unwrap();
        let mut server = TcpTransport::new(server_stream).unwrap();
        let r = server.readiness();
        assert!(!r.readable && r.writable && !r.closed, "quiet fresh socket");
        assert_eq!(client.send(b"over tcp").unwrap(), 8);
        for _ in 0..1000 {
            if server.readiness().readable {
                break;
            }
            std::thread::yield_now();
        }
        assert!(server.readiness().readable, "peek sees buffered bytes");
        let mut buf = [0u8; 16];
        let mut got = 0;
        for _ in 0..1000 {
            got += server.recv(&mut buf[got..]).unwrap();
            if got == 8 {
                break;
            }
            std::thread::yield_now();
        }
        assert_eq!(&buf[..8], b"over tcp");
        client.close();
        let mut end = [0u8; 4];
        for _ in 0..1000 {
            match server.recv(&mut end) {
                Ok(0) => std::thread::yield_now(),
                Ok(_) => panic!("unexpected bytes"),
                Err(e) => {
                    assert_eq!(e, TransportError::Closed);
                    return;
                }
            }
        }
        panic!("EOF never surfaced");
    }
}
