//! The client side of a dv-net connection.
//!
//! [`NetClient`] is a stateless-display remote viewer in the THINC
//! mold: it holds no application state, only a framebuffer that it
//! mutates by applying the display commands and keyframes the server
//! streams at it. On top of the live stream it multiplexes the two
//! recorded-history RPCs — timeline seeks and text-index searches —
//! over the same connection, correlated by request id.
//!
//! Everything is poll-driven and non-blocking: [`NetClient::poll`]
//! pumps outbound bytes, drains inbound bytes, and applies whatever
//! complete messages arrived. Call it from a loop (or a test that
//! interleaves it with the server's poll) until the work of interest
//! completes.

use std::collections::HashMap;

use dv_display::viewer::InputEvent;
use dv_display::{Framebuffer, Screenshot};
use dv_index::RankOrder;
use dv_time::Timestamp;

use crate::frame::{frame_message, FrameDecoder, FrameError, RecvError};
use crate::proto::{
    decode_message, Message, ProtoError, VisualProbe, WireHit, WireVisualHit, PROTOCOL_VERSION,
};
use crate::transport::{Transport, TransportError};

/// Terminal failures of a client connection.
#[derive(Clone, Debug)]
pub enum ClientError {
    /// The transport died (reset) or closed before the goodbye.
    Transport(TransportError),
    /// The inbound byte stream failed framing (CRC / length).
    Frame(FrameError),
    /// A frame decoded to an ill-formed message.
    Proto(ProtoError),
    /// The server refused the handshake.
    Rejected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Transport(e) => write!(f, "transport: {e}"),
            ClientError::Frame(e) => write!(f, "framing: {e}"),
            ClientError::Proto(e) => write!(f, "protocol: {e}"),
            ClientError::Rejected(reason) => write!(f, "handshake rejected: {reason}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<TransportError> for ClientError {
    fn from(e: TransportError) -> Self {
        ClientError::Transport(e)
    }
}

impl From<RecvError> for ClientError {
    fn from(e: RecvError) -> Self {
        match e {
            RecvError::Transport(e) => ClientError::Transport(e),
            RecvError::Frame(e) => ClientError::Frame(e),
        }
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

/// Counters a test or bench can read off a client.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientStats {
    /// Live display commands applied to the local framebuffer.
    pub commands_applied: u64,
    /// Catch-up keyframes applied (each one implies the server
    /// coalesced this client's backlog).
    pub keyframes_applied: u64,
    /// Complete frames received, of any kind.
    pub frames_received: u64,
    /// Raw bytes received off the transport.
    pub bytes_received: u64,
}

/// A poll-driven remote viewer + RPC client over any [`Transport`].
pub struct NetClient<T: Transport> {
    transport: T,
    decoder: FrameDecoder,
    /// Outbound bytes not yet accepted by the transport.
    outbox: Vec<u8>,
    outbox_off: usize,
    fb: Option<Framebuffer>,
    welcomed: bool,
    closed: bool,
    next_req: u32,
    seek_replies: HashMap<u32, Screenshot>,
    search_replies: HashMap<u32, Vec<WireHit>>,
    visual_replies: HashMap<u32, Vec<WireVisualHit>>,
    rpc_errors: HashMap<u32, String>,
    stats: ClientStats,
}

impl<T: Transport> NetClient<T> {
    /// Wraps `transport` and queues the `Hello` handshake under `name`.
    pub fn connect(transport: T, name: &str) -> Self {
        let mut client = NetClient {
            transport,
            decoder: FrameDecoder::new(),
            outbox: Vec::new(),
            outbox_off: 0,
            fb: None,
            welcomed: false,
            closed: false,
            next_req: 1,
            seek_replies: HashMap::new(),
            search_replies: HashMap::new(),
            visual_replies: HashMap::new(),
            rpc_errors: HashMap::new(),
            stats: ClientStats::default(),
        };
        client.queue(&Message::Hello {
            version: PROTOCOL_VERSION,
            name: name.to_string(),
        });
        client
    }

    fn queue(&mut self, msg: &Message) {
        if self.outbox_off > 0 && self.outbox_off >= self.outbox.len() {
            self.outbox.clear();
            self.outbox_off = 0;
        }
        frame_message(msg, &mut self.outbox);
    }

    /// Requests the live display stream (server answers with a
    /// keyframe, then display commands).
    pub fn attach_live(&mut self) {
        self.queue(&Message::AttachLive);
    }

    /// Requests the live stream scaled by `num`/`den` — the server
    /// sends scale-adjusted commands and keyframes sized for the
    /// smaller (or larger) screen. The local framebuffer adopts the
    /// scaled geometry from the first keyframe.
    pub fn attach_scaled(&mut self, num: u32, den: u32) {
        self.queue(&Message::AttachScaled { num, den });
    }

    /// Stops the live stream without dropping the connection.
    pub fn detach(&mut self) {
        self.queue(&Message::Detach);
    }

    /// Forwards a viewer input event to the server's desktop.
    pub fn send_input(&mut self, event: &InputEvent) {
        self.queue(&Message::Input { event: *event });
    }

    /// Asks for the recorded screen at time `t`; the reply is matched
    /// by the returned request id (see [`take_seek_reply`](Self::take_seek_reply)).
    pub fn seek(&mut self, t: Timestamp) -> u32 {
        let req_id = self.next_req;
        self.next_req += 1;
        self.queue(&Message::Seek { req_id, t });
        req_id
    }

    /// Submits a text-index search; the reply is matched by the
    /// returned request id (see [`take_search_reply`](Self::take_search_reply)).
    pub fn search(&mut self, query: &str, order: RankOrder) -> u32 {
        let req_id = self.next_req;
        self.next_req += 1;
        self.queue(&Message::Search {
            req_id,
            order,
            query: query.to_string(),
        });
        req_id
    }

    /// Submits a visual-recall query — an image, or a recorded moment
    /// via [`VisualProbe::At`] — for the `k` nearest instances; the
    /// reply is matched by the returned request id (see
    /// [`take_visual_reply`](Self::take_visual_reply)).
    pub fn visual_query(&mut self, probe: VisualProbe, k: u32) -> u32 {
        let req_id = self.next_req;
        self.next_req += 1;
        self.queue(&Message::VisualQuery { req_id, k, probe });
        req_id
    }

    /// Announces a graceful disconnect.
    pub fn bye(&mut self) {
        self.queue(&Message::Bye);
    }

    /// Takes a completed seek reply, if it has arrived.
    pub fn take_seek_reply(&mut self, req_id: u32) -> Option<Screenshot> {
        self.seek_replies.remove(&req_id)
    }

    /// Takes a completed search reply, if it has arrived.
    pub fn take_search_reply(&mut self, req_id: u32) -> Option<Vec<WireHit>> {
        self.search_replies.remove(&req_id)
    }

    /// Takes a completed visual reply, if it has arrived.
    pub fn take_visual_reply(&mut self, req_id: u32) -> Option<Vec<WireVisualHit>> {
        self.visual_replies.remove(&req_id)
    }

    /// Takes a server-side error reply for `req_id`, if one arrived.
    pub fn take_rpc_error(&mut self, req_id: u32) -> Option<String> {
        self.rpc_errors.remove(&req_id)
    }

    /// Whether the server accepted the handshake.
    pub fn is_welcomed(&self) -> bool {
        self.welcomed
    }

    /// Whether the connection ended (gracefully or not).
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Content hash of the local framebuffer, once welcomed. Comparing
    /// this against the server's `screen_fingerprint()` proves the
    /// remote view is byte-for-byte the local one.
    pub fn fingerprint(&self) -> Option<u64> {
        self.fb.as_ref().map(|fb| fb.content_hash())
    }

    /// The local framebuffer, once welcomed.
    pub fn framebuffer(&self) -> Option<&Framebuffer> {
        self.fb.as_ref()
    }

    /// Receive/apply counters.
    pub fn stats(&self) -> ClientStats {
        ClientStats {
            bytes_received: self.decoder.received(),
            ..self.stats
        }
    }

    /// Pumps outbound bytes, drains inbound bytes, applies complete
    /// messages. Returns how many messages were applied this call.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport reset, corrupt framing, protocol
    /// violation, or a rejected handshake. An orderly close (peer EOF
    /// or `Bye`) is not an error: the client flips to
    /// [`is_closed`](Self::is_closed) and returns `Ok`.
    pub fn poll(&mut self) -> Result<usize, ClientError> {
        if self.closed {
            return Ok(0);
        }
        // Outbound first, so handshakes and RPCs reach the server even
        // when nothing has arrived yet.
        while self.outbox_off < self.outbox.len() {
            match self.transport.send(&self.outbox[self.outbox_off..]) {
                Ok(0) => break,
                Ok(n) => self.outbox_off += n,
                Err(TransportError::Closed) => {
                    self.closed = true;
                    return Ok(0);
                }
                Err(e) => return Err(e.into()),
            }
        }
        if self.outbox_off >= self.outbox.len() {
            self.outbox.clear();
            self.outbox_off = 0;
        }
        let mut applied = 0;
        loop {
            let msg = match self.decoder.recv_frame(&mut self.transport) {
                Ok(Some(payload)) => {
                    self.stats.frames_received += 1;
                    decode_message(payload)?
                }
                Ok(None) => break,
                Err(RecvError::Transport(TransportError::Closed)) => {
                    self.closed = true;
                    break;
                }
                Err(e) => return Err(e.into()),
            };
            self.apply(msg)?;
            applied += 1;
        }
        Ok(applied)
    }

    fn apply(&mut self, msg: Message) -> Result<(), ClientError> {
        match msg {
            Message::Welcome { width, height, .. } => {
                self.welcomed = true;
                self.fb = Some(Framebuffer::new(width, height));
            }
            Message::Reject { reason } => {
                self.closed = true;
                return Err(ClientError::Rejected(reason));
            }
            Message::Command { cmd, .. } => {
                if let Some(fb) = &mut self.fb {
                    fb.apply(&cmd);
                    self.stats.commands_applied += 1;
                }
            }
            Message::Keyframe { shot, .. } => {
                self.fb = Some(Framebuffer::from_screenshot(&shot));
                self.stats.keyframes_applied += 1;
            }
            Message::SeekReply { req_id, shot } => {
                self.seek_replies.insert(req_id, shot);
            }
            Message::SearchReply { req_id, hits } => {
                self.search_replies.insert(req_id, hits);
            }
            Message::VisualReply { req_id, hits } => {
                self.visual_replies.insert(req_id, hits);
            }
            Message::Error { req_id, message } => {
                self.rpc_errors.insert(req_id, message);
            }
            Message::Ping { nonce } => {
                self.queue(&Message::Pong { nonce });
            }
            Message::Bye => {
                self.closed = true;
            }
            // Client-bound traffic only; anything else is a server-side
            // message echoed by a confused peer. Ignore rather than
            // kill a healthy connection.
            _ => {}
        }
        Ok(())
    }
}
