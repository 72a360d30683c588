//! dv-net: the multiplexed remote-access service.
//!
//! DejaView records a user's entire computing session; dv-net is how
//! anyone looks at it from somewhere else. One [`NetService`] wraps the
//! core [`dejaview::DejaView`] server and multiplexes three kinds of
//! session traffic to many concurrent clients:
//!
//! - the **live display command stream** (the same THINC-style command
//!   vocabulary the recorder persists, so the wire format *is* the
//!   record format),
//! - **timeline playback** — `Seek` RPCs that reconstruct the recorded
//!   screen at an arbitrary time via the O(log n) playback engine,
//! - **text-index search** — `Search` RPCs over the §4.4 query syntax,
//!   returning ranked hit intervals to portal into.
//!
//! The stack, bottom to top:
//!
//! ```text
//! transport  — ordered non-blocking byte stream (Transport trait)
//!              with an edge-level Readiness facet:
//!              LoopbackTransport (deterministic, fault-injectable,
//!              over a pair of dv-display ByteChannels) and
//!              TcpTransport (real std::net)
//! frame      — length-prefixed CRC32 framing; torn/corrupt bytes
//!              become clean errors, never garbage messages
//! proto      — tagged message vocabulary (handshake, live stream,
//!              scaled outputs, input, seek/search RPCs, liveness,
//!              goodbye)
//! queue      — per-client bounded SendQueue of shared Arc<Vec<u8>>
//!              frames with THINC-style slow-client coalescing to a
//!              single catch-up keyframe
//! service    — NetService: readiness reactor visiting only ready
//!              connections, zero-copy fan-out (one encode per tapped
//!              batch), one catch-up keyframe per scale per poll, RPC dispatch,
//!              idle timeout, bounded-backoff stall recovery, dv-obs
//!              instrumentation
//! client     — NetClient: poll-driven remote viewer + RPC client
//! ```
//!
//! Everything above the transport is deterministic: driven by the
//! session [`SimClock`](dv_time::SimClock) and exercised under
//! `dv-fault` injection (sites `net.transport.send` / `.recv`), the
//! whole service — handshakes, fan-out, coalescing, retries, teardown —
//! replays identically from a seed.

#![deny(unsafe_code)]

pub mod client;
pub mod frame;
pub mod proto;
pub mod queue;
pub mod service;
pub mod transport;

pub use client::{ClientError, ClientStats, NetClient};
pub use frame::{
    encode_frame, encode_frame_vec, frame_message, FrameDecoder, FrameError, RecvError,
    FRAME_HEADER_LEN, MAX_FRAME_LEN,
};
pub use proto::{
    decode_message, encode_message, encode_message_vec, Message, ProtoError, VisualProbe, WireHit,
    WireVisualHit, MAX_SEARCH_HITS, MAX_VISUAL_HITS, PROTOCOL_VERSION,
};
pub use queue::{PushOutcome, SendQueue};
pub use service::{ClientInfo, DropReason, NetConfig, NetService, PollReport};
pub use transport::{LoopbackTransport, Readiness, TcpTransport, Transport, TransportError};
