//! The session-multiplexing remote-access service.
//!
//! [`NetService`] wraps an owned [`DejaView`] server and serves three
//! kinds of traffic to many concurrent clients over any [`Transport`]:
//!
//! 1. **Live viewing** — every display command the virtual display
//!    driver emits is tapped (via a [`CommandSink`] teed next to the
//!    recorder's) and fanned out to each attached client's bounded
//!    [`SendQueue`]. A client that falls behind is coalesced to a
//!    single catch-up keyframe rather than stalling the server or
//!    other clients.
//! 2. **Timeline playback** — `Seek` RPCs reconstruct the recorded
//!    screen at an arbitrary time through the core server's playback
//!    engine (O(log n) keyframe seek + delta replay).
//! 3. **Search** — `Search` RPCs run the §4.4 text-index query and
//!    return ranked hit intervals; the client follows up with `Seek`s
//!    to portal into results.
//!
//! The service is poll-driven and single-threaded over the session
//! clock: [`NetService::poll`] drains client input, handles RPCs, fans
//! out live traffic, and pumps transports, all without blocking.
//! Transport failures are absorbed per client — a reset, stall, or
//! corrupt stream disconnects *that* client (with a traced event and a
//! bumped counter) and never disturbs the rest.
//!
//! Three structural decisions let one poll turn scale to a thousand
//! mostly-idle viewers:
//!
//! - **Readiness reactor.** Each turn consults the transport's
//!   [`Readiness`](crate::transport::Readiness) edge before touching a
//!   connection: quiet inbound sides are skipped without a recv, and
//!   empty queues without a send. The `net.conn_visits` /
//!   `net.conn_skips` counters expose the ratio.
//! - **Zero-copy fan-out.** Each tapped command batch is encoded into
//!   its wire frame exactly once per active output scale, into an
//!   `Arc<Vec<u8>>` that is never copied again; every viewer's
//!   [`SendQueue`] holds a refcount, not a copy. `net.encodes_per_batch`
//!   against `net.live_batches` proves the single encode regardless of
//!   viewer count.
//! - **One catch-up keyframe.** A viewer that attaches or falls behind
//!   gets one full RLE keyframe of the present screen, encoded once per
//!   output scale per poll and shared by every viewer catching up in
//!   that poll. The live path accumulates nothing to serve it.
//!
//! Viewers may also attach through a scaled virtual output
//! ([`Message::AttachScaled`]): the service registers a headless
//! [`OutputPool`] output at the requested rational scale and feeds
//! that viewer scaled keyframes and commands, so one session drives
//! several independently-sized remote screens.

use std::collections::VecDeque;
use std::sync::Arc;

use dejaview::{DejaView, ServerError};
use dv_display::driver::CommandSink;
use dv_display::{scale_command, DisplayCommand, OutputPool, ScaleFactor};
use dv_obs::{names, Obs};
use dv_time::{Duration, Timestamp};
use parking_lot::Mutex;

use crate::frame::{frame_message, FrameDecoder, FrameError, RecvError};
use crate::proto::{
    acts_before_hello, decode_message_within, Message, ProtoError, VisualProbe, WireHit,
    WireVisualHit, MAX_SEARCH_HITS, MAX_VISUAL_HITS, PROTOCOL_VERSION,
};
use crate::queue::{PushOutcome, SendQueue};
use crate::transport::{Transport, TransportError};

/// Tuning knobs for the service.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Connections beyond this are rejected at handshake.
    pub max_clients: usize,
    /// Live frames a client may have queued before coalescing.
    pub send_queue_frames: usize,
    /// Disconnect a client silent for this long (session time). A
    /// `Ping` goes out at half this; any inbound frame resets it.
    pub idle_timeout: Duration,
    /// First retry delay after a send stall; doubles per consecutive
    /// stall (bounded exponential backoff on the session clock).
    pub retry_backoff: Duration,
    /// Consecutive stalled sends tolerated before disconnecting.
    pub max_send_retries: u32,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_clients: 64,
            send_queue_frames: 32,
            idle_timeout: Duration::from_secs(60),
            retry_backoff: Duration::from_millis(2),
            max_send_retries: 8,
        }
    }
}

/// Why a client left, as reported in [`PollReport`] and trace events.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DropReason {
    /// The client sent `Bye` or closed its transport in order.
    Graceful,
    /// The transport reset under the connection.
    Reset,
    /// The inbound stream failed CRC/framing or protocol decode.
    Corrupt,
    /// Send retries exhausted against a persistent stall.
    Stalled,
    /// The idle timeout elapsed with no inbound traffic.
    Idle,
    /// Handshake version mismatch or server full.
    Rejected,
}

impl DropReason {
    fn as_str(self) -> &'static str {
        match self {
            DropReason::Graceful => "graceful",
            DropReason::Reset => "reset",
            DropReason::Corrupt => "corrupt",
            DropReason::Stalled => "stalled",
            DropReason::Idle => "idle",
            DropReason::Rejected => "rejected",
        }
    }
}

/// What one [`NetService::poll`] accomplished.
#[derive(Clone, Debug, Default)]
pub struct PollReport {
    /// Complete inbound messages handled.
    pub messages_handled: u64,
    /// Bytes moved into client transports.
    pub bytes_sent: u64,
    /// Clients disconnected this poll, with reasons.
    pub dropped: Vec<(u64, DropReason)>,
}

/// Aggregate per-client counters, for tests and the bench.
#[derive(Clone, Debug, Default)]
pub struct ClientInfo {
    /// Service-assigned connection id.
    pub id: u64,
    /// Name from the client's `Hello`.
    pub name: String,
    /// Whether the client subscribed to the live stream.
    pub attached: bool,
    /// Frames fully handed to this client's transport.
    pub sent_frames: u64,
    /// Times this client's backlog collapsed into a keyframe.
    pub coalesce_events: u64,
    /// Live frames dropped by coalescing.
    pub dropped_frames: u64,
    /// Consecutive send retries currently pending.
    pub retries: u32,
}

/// Tee sink: captures live display commands for network fan-out.
///
/// Attached to the driver alongside the recorder's sink, so recording
/// and remote viewing observe the identical command stream.
#[derive(Default)]
struct CommandTap {
    buf: VecDeque<(Timestamp, DisplayCommand)>,
}

impl CommandSink for CommandTap {
    fn submit(&mut self, ts: Timestamp, cmd: &DisplayCommand) {
        self.buf.push_back((ts, cmd.clone()));
    }
}

struct ClientConn {
    id: u64,
    name: String,
    transport: Box<dyn Transport>,
    decoder: FrameDecoder,
    queue: SendQueue,
    /// Output scale this viewer attached at; identity for plain
    /// `AttachLive`.
    scale: ScaleFactor,
    hello_done: bool,
    attached: bool,
    closing: bool,
    last_inbound: Timestamp,
    pinged: bool,
    retries: u32,
    retry_at: Option<Timestamp>,
}

/// The multiplexing remote-access front end over an owned [`DejaView`].
pub struct NetService {
    dv: DejaView,
    config: NetConfig,
    obs: Obs,
    tap: Arc<Mutex<CommandTap>>,
    /// Headless outputs for scaled viewers, teed off the driver like
    /// the tap so they observe the identical command stream.
    outputs: Arc<Mutex<OutputPool>>,
    clients: Vec<ClientConn>,
    next_id: u64,
}

impl NetService {
    /// Wraps `dv`, teeing its display command stream for fan-out.
    pub fn new(dv: DejaView, config: NetConfig) -> Self {
        let mut dv = dv;
        let obs = dv.obs().clone();
        let tap: Arc<Mutex<CommandTap>> = Arc::new(Mutex::new(CommandTap::default()));
        dv.driver_mut().attach_sink(tap.clone());
        let outputs: Arc<Mutex<OutputPool>> = Arc::new(Mutex::new(OutputPool::new()));
        dv.driver_mut().attach_sink(outputs.clone());
        NetService {
            dv,
            config,
            obs,
            tap,
            outputs,
            clients: Vec::new(),
            next_id: 1,
        }
    }

    /// The wrapped core server (to drive workload, inspect state).
    pub fn dv(&self) -> &DejaView {
        &self.dv
    }

    /// Mutable access to the wrapped core server.
    pub fn dv_mut(&mut self) -> &mut DejaView {
        &mut self.dv
    }

    /// Accepts a connected transport, returning its connection id. The
    /// handshake completes during subsequent [`poll`](Self::poll)s.
    ///
    /// Total connections (handshaken or not) are bounded at twice
    /// `max_clients`: beyond that the connection is immediately queued
    /// a `Reject` and torn down once it flushes, so a flood of sockets
    /// that never speak cannot accumulate ahead of the handshake
    /// deadline.
    pub fn accept(&mut self, transport: impl Transport + 'static) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let now = self.dv.now();
        let over_backlog = self.clients.len() >= self.config.max_clients.saturating_mul(2);
        self.clients.push(ClientConn {
            id,
            name: String::new(),
            transport: Box::new(transport),
            decoder: FrameDecoder::new(),
            queue: SendQueue::new(self.config.send_queue_frames),
            scale: ScaleFactor::ONE,
            hello_done: false,
            attached: false,
            closing: false,
            last_inbound: now,
            pinged: false,
            retries: 0,
            retry_at: None,
        });
        if over_backlog {
            let conn = self.clients.last_mut().expect("just pushed");
            conn.push_control_msg(&Message::Reject {
                reason: "server full".to_string(),
            });
            conn.begin_close();
            self.obs.event(
                "net",
                names::EV_NET_DISCONNECT,
                format!("client={id} reason=rejected accept backlog full"),
            );
        }
        self.obs
            .gauge_set(names::NET_CLIENTS, self.clients.len() as u64);
        id
    }

    /// Connected client count (handshaken or not).
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// Per-client counters, in accept order.
    pub fn client_info(&self) -> Vec<ClientInfo> {
        self.clients
            .iter()
            .map(|c| ClientInfo {
                id: c.id,
                name: c.name.clone(),
                attached: c.attached,
                sent_frames: c.queue.sent_frames(),
                coalesce_events: c.queue.coalesce_events(),
                dropped_frames: c.queue.dropped_frames(),
                retries: c.retries,
            })
            .collect()
    }

    /// Queues a graceful `Bye` to every client; they drop on the next
    /// polls once the goodbye flushes.
    pub fn shutdown(&mut self) {
        let bye = framed(&Message::Bye);
        for conn in &mut self.clients {
            conn.queue.push_control(bye.clone());
            conn.begin_close();
        }
    }

    /// Fingerprint of the virtual output at exactly `num`/`den`, if a
    /// viewer ever attached at that scale. The authoritative answer to
    /// "what should a converged same-scale viewer's screen hash to".
    pub fn output_fingerprint(&self, num: u32, den: u32) -> Option<u64> {
        self.outputs
            .lock()
            .get(ScaleFactor::new(num, den))
            .map(|o| o.fingerprint())
    }

    /// Pixel geometry of the virtual output at exactly `num`/`den`.
    pub fn output_size(&self, num: u32, den: u32) -> Option<(u32, u32)> {
        self.outputs
            .lock()
            .get(ScaleFactor::new(num, den))
            .map(|o| o.size())
    }

    /// One non-blocking service turn: drain inbound, handle RPCs, fan
    /// out live traffic, pump transports, enforce timeouts.
    pub fn poll(&mut self) -> PollReport {
        let _flush = self.obs.span("net", names::NET_FLUSH);
        let mut report = PollReport::default();

        self.drain_inbound(&mut report);
        self.fan_out_live();
        self.satisfy_keyframes();
        self.pump_queues(&mut report);
        self.enforce_idle(&mut report);
        self.reap(&mut report);

        let depth: usize = self.clients.iter().map(|c| c.queue.depth()).sum();
        self.obs.gauge_set(names::NET_QUEUE_DEPTH, depth as u64);
        self.obs
            .gauge_set(names::NET_CLIENTS, self.clients.len() as u64);
        report
    }

    fn drain_inbound(&mut self, report: &mut PollReport) {
        let now = self.dv.now();
        let obs = self.obs.clone();
        let (width, height) = self.dv.screen_size();
        let probe_pixels = u64::from(width) * u64::from(height);
        let mut visited = 0u64;
        let mut skipped = 0u64;
        // Messages are collected first, then handled, because handling
        // needs `&mut self.dv` while draining borrows the clients.
        let mut todo: Vec<(usize, Message)> = Vec::new();
        for (ci, conn) in self.clients.iter_mut().enumerate() {
            if conn.closing {
                continue;
            }
            // The reactor edge: a connection with nothing readable and
            // no pending EOF gets no recv at all. Every frame is cut
            // the same poll its last byte arrives, so a quiet transport
            // really does mean nothing to do.
            if conn.transport.readiness().inbound_quiet() {
                skipped += 1;
                continue;
            }
            visited += 1;
            let received = conn.decoder.received();
            // Whether to parse what this peer sends: it has said
            // `Hello`, possibly earlier in this very drain (a client
            // may queue its first RPC right behind the handshake).
            let mut greeted = conn.hello_done;
            let ended = loop {
                let payload = match conn.decoder.recv_frame(&mut *conn.transport) {
                    Ok(Some(payload)) => payload,
                    Ok(None) => break None,
                    Err(RecvError::Transport(TransportError::Closed)) => {
                        break Some((DropReason::Graceful, String::new()));
                    }
                    Err(RecvError::Transport(TransportError::Reset)) => {
                        break Some((DropReason::Reset, String::new()));
                    }
                    Err(RecvError::Frame(e)) => {
                        let why = ProtoError::BadPayload(match e {
                            FrameError::TooLarge(_) => "frame too large",
                            FrameError::Corrupt { .. } => "frame CRC mismatch",
                        });
                        break Some((DropReason::Corrupt, format!(" {why}")));
                    }
                };
                obs.incr(names::NET_FRAMES_RECEIVED);
                conn.last_inbound = now;
                conn.pinged = false;
                if !greeted && !acts_before_hello(payload) {
                    continue;
                }
                match decode_message_within(payload, probe_pixels) {
                    Ok(msg) => {
                        greeted |= matches!(msg, Message::Hello { .. });
                        todo.push((ci, msg));
                    }
                    Err(e) => break Some((DropReason::Corrupt, format!(" {e}"))),
                }
            };
            obs.add(
                names::NET_BYTES_RECEIVED,
                conn.decoder.received() - received,
            );
            if let Some((reason, why)) = ended {
                match reason {
                    DropReason::Reset => obs.incr(names::NET_RESETS),
                    DropReason::Corrupt => obs.incr(names::NET_CORRUPT_FRAMES),
                    _ => {}
                }
                conn.begin_close();
                obs.event(
                    "net",
                    names::EV_NET_DISCONNECT,
                    format!("client={} reason={}{why}", conn.id, reason.as_str()),
                );
                report.dropped.push((conn.id, reason));
            }
        }
        for (ci, msg) in todo {
            if !self.clients[ci].closing {
                report.messages_handled += 1;
                self.handle_message(ci, msg, report);
            }
        }
        self.obs.add(names::NET_CONN_VISITS, visited);
        self.obs.add(names::NET_CONN_SKIPS, skipped);
    }

    fn handle_message(&mut self, ci: usize, msg: Message, report: &mut PollReport) {
        match msg {
            Message::Hello { version, name } => {
                // A retransmitted Hello from an admitted client is
                // dropped on the floor: re-admitting would count the
                // client against capacity a second time (getting it
                // Rejected at a full server) or re-send Welcome
                // mid-stream.
                if self.clients[ci].hello_done {
                    return;
                }
                let over_capacity =
                    self.clients.iter().filter(|c| c.hello_done).count() >= self.config.max_clients;
                let conn = &mut self.clients[ci];
                if version != PROTOCOL_VERSION {
                    conn.push_control_msg(&Message::Reject {
                        reason: format!(
                            "protocol version {version} unsupported (server speaks {PROTOCOL_VERSION})"
                        ),
                    });
                    conn.begin_close();
                    report.dropped.push((conn.id, DropReason::Rejected));
                    return;
                }
                if over_capacity {
                    conn.push_control_msg(&Message::Reject {
                        reason: "server full".to_string(),
                    });
                    conn.begin_close();
                    report.dropped.push((conn.id, DropReason::Rejected));
                    return;
                }
                conn.name = name;
                conn.hello_done = true;
                let (width, height) = self.dv.screen_size();
                self.clients[ci].push_control_msg(&Message::Welcome {
                    version: PROTOCOL_VERSION,
                    width,
                    height,
                });
            }
            Message::AttachLive => self.attach(ci, ScaleFactor::ONE),
            Message::AttachScaled { num, den } => {
                // num/den are validated nonzero at decode.
                self.attach(ci, ScaleFactor::new(num, den));
            }
            Message::Detach => {
                self.clients[ci].attached = false;
            }
            Message::Input { event } if self.clients[ci].hello_done => {
                self.dv.input(event);
            }
            Message::Input { .. } => {}
            Message::Seek { req_id, t } if self.clients[ci].hello_done => {
                let reply = {
                    let _span = self
                        .obs
                        .span("net", names::NET_RPC_SEEK)
                        .with_event(format!(
                            "client={} t={}ns",
                            self.clients[ci].id,
                            t.as_nanos()
                        ));
                    self.dv.browse(t)
                };
                let msg = match reply {
                    Ok(shot) => Message::SeekReply { req_id, shot },
                    Err(e) => Message::Error {
                        req_id,
                        message: format!("seek failed: {e}"),
                    },
                };
                self.clients[ci].push_control_msg(&msg);
            }
            Message::Search {
                req_id,
                order,
                query,
            } if self.clients[ci].hello_done => {
                let reply = {
                    let _span = self
                        .obs
                        .span("net", names::NET_RPC_SEARCH)
                        .with_event(format!("client={} query={query:?}", self.clients[ci].id));
                    // Hits only: `search` would also rebuild a portal per
                    // hit, which the wire reply does not carry.
                    dv_index::parse_query(&query)
                        .map_err(ServerError::from)
                        .and_then(|query| self.dv.search_hits(&query, order))
                };
                let msg = match reply {
                    Ok(results) => {
                        if results.len() > MAX_SEARCH_HITS {
                            self.obs.event(
                                "net",
                                names::NET_RPC_SEARCH,
                                format!(
                                    "client={} reply truncated {} -> {MAX_SEARCH_HITS} hits",
                                    self.clients[ci].id,
                                    results.len()
                                ),
                            );
                        }
                        let hits = results
                            .into_iter()
                            .take(MAX_SEARCH_HITS)
                            .map(|hit| WireHit {
                                time: hit.time,
                                until: hit.until,
                                persistence: hit.persistence,
                                matches: hit.matches.min(u32::MAX as usize) as u32,
                                snippet: hit.snippet,
                                apps: hit.apps,
                            })
                            .collect();
                        Message::SearchReply { req_id, hits }
                    }
                    Err(e) => Message::Error {
                        req_id,
                        message: format!("search failed: {e}"),
                    },
                };
                self.clients[ci].push_control_msg(&msg);
            }
            Message::VisualQuery { req_id, k, probe } if self.clients[ci].hello_done => {
                if k as usize > MAX_VISUAL_HITS {
                    self.obs.event(
                        "net",
                        names::NET_RPC_VISUAL,
                        format!(
                            "client={} k clamped {k} -> {MAX_VISUAL_HITS}",
                            self.clients[ci].id
                        ),
                    );
                }
                let want = (k as usize).min(MAX_VISUAL_HITS);
                let reply = {
                    let _span = self
                        .obs
                        .span("net", names::NET_RPC_VISUAL)
                        .with_event(format!("client={} k={k}", self.clients[ci].id));
                    match probe {
                        VisualProbe::Thumb(shot) => self.dv.visual_hits(&shot, want),
                        VisualProbe::At(t) => self.dv.visual_hits_at_time(t, want),
                    }
                };
                let msg = match reply {
                    Ok(hits) => Message::VisualReply {
                        req_id,
                        hits: hits
                            .into_iter()
                            .map(|h| WireVisualHit {
                                id: h.id,
                                distance: h.distance,
                                first: h.first,
                                last: h.last,
                                frames: h.frames,
                                thumb: h.thumb,
                            })
                            .collect(),
                    },
                    Err(e) => Message::Error {
                        req_id,
                        message: format!("visual query failed: {e}"),
                    },
                };
                self.clients[ci].push_control_msg(&msg);
            }
            Message::Ping { nonce } if self.clients[ci].hello_done => {
                self.clients[ci].push_control_msg(&Message::Pong { nonce });
            }
            Message::Pong { .. } => {
                // Liveness refreshed by the frame itself (last_inbound).
            }
            Message::Bye => {
                let conn = &mut self.clients[ci];
                conn.begin_close();
                self.obs.event(
                    "net",
                    names::EV_NET_DISCONNECT,
                    format!("client={} reason=graceful", conn.id),
                );
                // A Bye departure is as real as a transport EOF: it
                // must appear in PollReport.dropped exactly like one,
                // or departure accounting silently misses these
                // clients.
                report.dropped.push((conn.id, DropReason::Graceful));
            }
            // Server-bound traffic only; ignore echoes of our own
            // message kinds rather than killing the connection.
            _ => {}
        }
    }

    /// Subscribes a greeted, unattached client to the live stream at
    /// `scale`.
    fn attach(&mut self, ci: usize, scale: ScaleFactor) {
        if !self.clients[ci].hello_done || self.clients[ci].attached {
            return;
        }
        if !scale.is_identity() {
            // Register (or reuse) the headless output for this scale,
            // seeded from the current screen so its first keyframe is
            // the present, not black.
            let seed = self.dv.driver().snapshot();
            self.outputs.lock().ensure(scale, &seed);
        }
        let conn = &mut self.clients[ci];
        conn.scale = scale;
        conn.attached = true;
        // Seed the new viewer via satisfy_keyframes, which runs AFTER
        // fan_out_live: commands tapped before the snapshot must not
        // queue behind it, or they would be applied twice — fatal for
        // CopyArea, which reads the screen it scrolls.
        conn.queue.request_keyframe();
    }

    fn fan_out_live(&mut self) {
        let drained: Vec<(Timestamp, DisplayCommand)> = {
            let mut tap = self.tap.lock();
            tap.buf.drain(..).collect()
        };
        if drained.is_empty() {
            return;
        }
        let mut batches = 0u64;
        let mut encodes = 0u64;
        for (ts, cmd) in drained {
            // Zero-copy fan-out: the wire frame is encoded lazily, at
            // most once per active output scale, and shared by Arc —
            // a thousand identity viewers cost one encode and a
            // thousand refcount bumps.
            let mut frames: Vec<(ScaleFactor, Arc<Vec<u8>>)> = Vec::new();
            for conn in &mut self.clients {
                if !conn.attached || conn.closing || conn.queue.needs_keyframe() {
                    continue;
                }
                let scale = conn.scale;
                let frame = shared_frame(&mut frames, scale, || Message::Command {
                    ts,
                    cmd: if scale.is_identity() {
                        cmd.clone()
                    } else {
                        scale_command(&cmd, scale)
                    },
                });
                if conn.queue.push_live(frame) == PushOutcome::Coalesced {
                    self.obs.incr(names::NET_COALESCE_EVENTS);
                    self.obs.event(
                        "net",
                        names::EV_NET_COALESCE,
                        format!(
                            "client={} dropped={} backlog collapsed to keyframe",
                            conn.id,
                            conn.queue.dropped_frames()
                        ),
                    );
                }
            }
            if !frames.is_empty() {
                batches += 1;
                encodes += frames.len() as u64;
            }
        }
        self.obs.add(names::NET_LIVE_BATCHES, batches);
        self.obs.add(names::NET_ENCODES_PER_BATCH, encodes);
    }

    fn satisfy_keyframes(&mut self) {
        let ts = self.dv.now();
        // Encoded at most once per scale per poll, shared by every taker.
        let mut frames: Vec<(ScaleFactor, Arc<Vec<u8>>)> = Vec::new();
        for conn in &mut self.clients {
            if !conn.queue.needs_keyframe() || conn.closing {
                continue;
            }
            let scale = conn.scale;
            // Scaled viewers get the headless output's screen — the
            // same state their scaled command stream reproduces — never
            // a resampled session snapshot, which would disagree
            // pixel-for-pixel with the command-scaled stream.
            let frame = shared_frame(&mut frames, scale, || Message::Keyframe {
                ts,
                shot: if scale.is_identity() {
                    self.dv.driver().snapshot()
                } else {
                    self.outputs
                        .lock()
                        .get(scale)
                        .map(|o| o.snapshot())
                        .expect("scaled viewer always has its output registered")
                },
            });
            conn.queue.satisfy_keyframe(frame);
        }
        if !frames.is_empty() {
            self.obs
                .add(names::NET_KEYFRAME_ENCODES, frames.len() as u64);
        }
    }

    fn pump_queues(&mut self, report: &mut PollReport) {
        let now = self.dv.now();
        let mut visited = 0u64;
        let mut skipped = 0u64;
        let mut bytes = 0u64;
        let mut frames = 0u64;
        for conn in &mut self.clients {
            if conn.closing {
                // reap() flushes the farewell; pumping here too would
                // report a second drop with a conflicting reason.
                continue;
            }
            // The outbound reactor edge: nothing queued means no send
            // call, no stall bookkeeping, nothing. This is what keeps
            // per-poll cost proportional to *active* viewers.
            if conn.queue.depth() == 0 {
                skipped += 1;
                continue;
            }
            if let Some(at) = conn.retry_at {
                if now < at {
                    continue;
                }
                conn.retry_at = None;
            }
            visited += 1;
            let sent_before = conn.queue.sent_frames();
            match conn.queue.pump(&mut *conn.transport) {
                Ok(moved) => {
                    bytes += moved;
                    frames += conn.queue.sent_frames() - sent_before;
                    if moved == 0 {
                        // A stall with data pending: bounded backoff on
                        // the session clock before the next attempt.
                        conn.retries += 1;
                        self.obs.incr(names::NET_SEND_RETRIES);
                        if conn.retries > self.config.max_send_retries {
                            let retries = conn.retries;
                            conn.begin_close();
                            self.obs.event(
                                "net",
                                names::EV_NET_DISCONNECT,
                                format!("client={} reason=stalled retries={retries}", conn.id),
                            );
                            report.dropped.push((conn.id, DropReason::Stalled));
                        } else {
                            let exp = conn.retries.saturating_sub(1).min(16);
                            let backoff =
                                Duration::from_nanos(self.config.retry_backoff.as_nanos() << exp);
                            conn.retry_at = Some(now.saturating_add(backoff));
                            self.obs.event(
                                "net",
                                names::EV_NET_RETRY,
                                format!(
                                    "client={} retry={} backoff={}ns",
                                    conn.id,
                                    conn.retries,
                                    backoff.as_nanos()
                                ),
                            );
                        }
                    } else if moved > 0 {
                        conn.retries = 0;
                    }
                }
                Err(e) => {
                    conn.begin_close();
                    let reason = match e {
                        TransportError::Reset => {
                            self.obs.incr(names::NET_RESETS);
                            DropReason::Reset
                        }
                        TransportError::Closed => DropReason::Graceful,
                    };
                    self.obs.event(
                        "net",
                        names::EV_NET_DISCONNECT,
                        format!("client={} reason={}", conn.id, reason.as_str()),
                    );
                    report.dropped.push((conn.id, reason));
                }
            }
        }
        report.bytes_sent += bytes;
        self.obs.add(names::NET_BYTES_SENT, bytes);
        self.obs.add(names::NET_FRAMES_SENT, frames);
        self.obs.add(names::NET_CONN_VISITS, visited);
        self.obs.add(names::NET_CONN_SKIPS, skipped);
    }

    fn enforce_idle(&mut self, report: &mut PollReport) {
        let now = self.dv.now();
        let timeout = self.config.idle_timeout;
        let half = Duration::from_nanos(timeout.as_nanos() / 2);
        for conn in &mut self.clients {
            if conn.closing {
                continue;
            }
            let silent = now.saturating_since(conn.last_inbound);
            if !conn.hello_done {
                // A connection that never completes its handshake gets
                // half the idle budget to produce a Hello, then goes:
                // silent or hostile sockets must not accumulate.
                if silent >= half {
                    conn.begin_close();
                    self.obs.incr(names::NET_IDLE_DISCONNECTS);
                    self.obs.event(
                        "net",
                        names::EV_NET_DISCONNECT,
                        format!(
                            "client={} reason=idle handshake deadline silent={}ns",
                            conn.id,
                            silent.as_nanos()
                        ),
                    );
                    report.dropped.push((conn.id, DropReason::Idle));
                }
                continue;
            }
            if silent >= timeout {
                conn.push_control_msg(&Message::Bye);
                conn.begin_close();
                self.obs.incr(names::NET_IDLE_DISCONNECTS);
                self.obs.event(
                    "net",
                    names::EV_NET_DISCONNECT,
                    format!(
                        "client={} reason=idle silent={}ns",
                        conn.id,
                        silent.as_nanos()
                    ),
                );
                report.dropped.push((conn.id, DropReason::Idle));
            } else if silent >= half && !conn.pinged {
                conn.pinged = true;
                conn.push_control_msg(&Message::Ping {
                    nonce: conn.id ^ now.as_nanos(),
                });
            }
        }
    }

    fn reap(&mut self, report: &mut PollReport) {
        // A closing client lingers until its farewell bytes flush (or
        // its transport dies, or the flush itself stalls out), then the
        // connection is torn down. Its drop was already reported when
        // `closing` was set; nothing is re-reported here.
        let obs = self.obs.clone();
        let max_retries = self.config.max_send_retries;
        self.clients.retain_mut(|conn| {
            if !conn.closing {
                return true;
            }
            let sent_before = conn.queue.sent_frames();
            match conn.queue.pump(&mut *conn.transport) {
                Ok(moved) => {
                    report.bytes_sent += moved;
                    obs.add(names::NET_BYTES_SENT, moved);
                    obs.add(
                        names::NET_FRAMES_SENT,
                        conn.queue.sent_frames() - sent_before,
                    );
                    if conn.queue.depth() == 0 {
                        conn.transport.close();
                        return false;
                    }
                    // The farewell is best-effort: a stalled flush must
                    // not keep the corpse around forever.
                    if moved == 0 {
                        conn.retries += 1;
                        if conn.retries > max_retries {
                            conn.transport.close();
                            return false;
                        }
                    }
                    true
                }
                Err(_) => {
                    conn.transport.close();
                    false
                }
            }
        });
    }
}

impl ClientConn {
    fn push_control_msg(&mut self, msg: &Message) {
        self.queue.push_control(framed(msg));
    }

    /// Moves the connection into the closing state. The retry budget
    /// is reset here so `reap`'s farewell flush starts fresh: retries
    /// inherited from pre-close live stalls would truncate (possibly
    /// to zero) the budget for flushing the goodbye.
    fn begin_close(&mut self) {
        self.closing = true;
        self.retries = 0;
        self.retry_at = None;
    }
}

/// The frame `frames` holds for `scale`, framing `msg()` into it the
/// first time a scale asks: one encode per scale, shared by every taker.
fn shared_frame(
    frames: &mut Vec<(ScaleFactor, Arc<Vec<u8>>)>,
    scale: ScaleFactor,
    msg: impl FnOnce() -> Message,
) -> Arc<Vec<u8>> {
    if let Some((_, frame)) = frames.iter().find(|(s, _)| *s == scale) {
        return frame.clone();
    }
    let frame = framed(&msg());
    frames.push((scale, frame.clone()));
    frame
}

/// Frames a message into the shared buffer every taker's queue holds a
/// refcount on: the unit of zero-copy fan-out. The buffer is shared as
/// encoded, without copying it into a slice of its own, so it must hold
/// no spare capacity: a `Command` is reserved exactly, and the other
/// messages, whose size is known only once encoded (a keyframe's runs),
/// give back what their buffer grew past.
fn framed(msg: &Message) -> Arc<Vec<u8>> {
    let mut wire = Vec::new();
    frame_message(msg, &mut wire);
    wire.shrink_to_fit();
    Arc::new(wire)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode_frame_vec;
    use crate::proto::encode_message_vec;
    use dv_display::{DisplayCommand, Rect, Screenshot};

    /// The buffer every queue shares holds the wire frame and nothing
    /// more: for the message sized exactly up front (`Command`), and
    /// for those whose size is known only once encoded, where the
    /// buffer grows by doubling. A small keyframe and a `Pong` end
    /// short of a doubling; a slack buffer held by a lagging viewer's
    /// queue is heap that a copy into a slice of its own never kept.
    #[test]
    fn a_shared_frame_holds_no_slack() {
        let shot = |width: u32, height: u32| Screenshot {
            width,
            height,
            pixels: (0..width * height)
                .map(|i| i / 3 * 0x10101)
                .collect::<Vec<_>>()
                .into(),
        };
        let ts = Timestamp::from_nanos(7);
        for msg in [
            Message::Command {
                ts,
                cmd: DisplayCommand::Raw {
                    rect: Rect::new(0, 0, 16, 8),
                    pixels: Arc::new((0..128).collect()),
                },
            },
            Message::Keyframe {
                ts,
                shot: shot(4, 3),
            },
            Message::Keyframe {
                ts,
                shot: shot(64, 32),
            },
            Message::SeekReply {
                req_id: 3,
                shot: shot(64, 32),
            },
            Message::Pong { nonce: 9 },
        ] {
            let frame = framed(&msg);
            assert_eq!(frame.capacity(), frame.len(), "{msg:?}");
            assert_eq!(*frame, encode_frame_vec(&encode_message_vec(&msg)));
        }
    }
}
