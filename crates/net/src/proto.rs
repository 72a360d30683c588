//! The dv-net session protocol.
//!
//! One message per frame payload: `[tag: u8][body...]`. The display
//! command stream reuses the display codec byte-for-byte (the record
//! format is the wire format, §3 of the paper), screenshots reuse the
//! record's RLE screenshot encoding, and input events reuse the viewer
//! wire encoding — dv-net adds only the session envelope: handshake,
//! stream subscription, RPCs, and liveness.
//!
//! Direction conventions: `Hello`, `AttachLive`, `AttachScaled`,
//! `Detach`, `Input`, `Seek`, `Search`, `Ping`, and `Bye` travel
//! client → server; `Welcome`, `Reject`, `Command`, `Keyframe`,
//! `SeekReply`, `SearchReply`, `Pong`, and `Error` travel server →
//! client.

use dv_display::{
    decode_command, decode_input, encode_command, encode_input, CodecError, DisplayCommand,
    InputEvent, Screenshot,
};
use dv_fault::{Put, ReadError, Reader};
use dv_index::RankOrder;
use dv_record::{decode_screenshot, encode_screenshot, screenshot_dims, MAX_SCREEN_SIDE};
use dv_time::{Duration, Timestamp};

/// Version carried in the handshake; a server rejects clients speaking
/// a different version.
///
/// Version 2 added `KeyframeDelta` (damage-rect catch-ups) and
/// `AttachScaled` (independently-sized virtual outputs); version 3
/// added the visual-recall RPC pair (`VisualQuery`/`VisualReply`);
/// version 4 removed `KeyframeDelta`, so every catch-up is a whole
/// `Keyframe`; version 5 lets the screenshots `Keyframe`, `SeekReply`
/// and visual thumbnails carry hold literal spans, which a version-4
/// decoder refuses as over-long runs. Each changes what a peer must
/// understand, so the bumps are incompatible by design.
pub const PROTOCOL_VERSION: u16 = 5;

/// Most hits a single `SearchReply` carries. The server truncates to
/// this bound so a broad query can never frame a payload past
/// [`MAX_FRAME_LEN`](crate::frame::MAX_FRAME_LEN) — an oversized frame
/// would pass encoding in release builds and then kill the connection
/// at the receiving decoder. Hits are ranked, so the tail cut is the
/// least relevant end.
pub const MAX_SEARCH_HITS: usize = 1024;

/// Most hits a single `VisualReply` carries. Visual hits embed an RLE
/// thumbnail each, so the bound is far lower than
/// [`MAX_SEARCH_HITS`]; hits are distance-ranked and the tail cut is
/// the least similar end.
pub const MAX_VISUAL_HITS: usize = 64;

const TAG_HELLO: u8 = 1;
const TAG_WELCOME: u8 = 2;
const TAG_REJECT: u8 = 3;
const TAG_ATTACH_LIVE: u8 = 4;
const TAG_DETACH: u8 = 5;
const TAG_INPUT: u8 = 6;
const TAG_SEEK: u8 = 7;
const TAG_SEEK_REPLY: u8 = 8;
const TAG_SEARCH: u8 = 9;
const TAG_SEARCH_REPLY: u8 = 10;
const TAG_COMMAND: u8 = 11;
const TAG_KEYFRAME: u8 = 12;
const TAG_PING: u8 = 13;
const TAG_PONG: u8 = 14;
const TAG_BYE: u8 = 15;
const TAG_ERROR: u8 = 16;
// 17 was `KeyframeDelta` (versions 2 and 3); it decodes as unknown.
const TAG_ATTACH_SCALED: u8 = 18;
const TAG_VISUAL_QUERY: u8 = 19;
const TAG_VISUAL_REPLY: u8 = 20;

/// Errors produced while decoding a protocol message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProtoError {
    /// Unknown message tag.
    BadTag(u8),
    /// The body ended before the message was complete.
    Truncated,
    /// A field was internally inconsistent.
    BadPayload(&'static str),
    /// An embedded display command failed to decode.
    Codec(CodecError),
    /// A `VisualQuery` probe claims more pixels than the receiver
    /// accepts; refused before any of them is materialised.
    ProbeTooLarge {
        /// Pixels the probe's header claims.
        pixels: u64,
        /// Most the receiver takes.
        limit: u64,
    },
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::BadTag(t) => write!(f, "unknown message tag {t}"),
            ProtoError::Truncated => write!(f, "truncated message body"),
            ProtoError::BadPayload(why) => write!(f, "malformed message: {why}"),
            ProtoError::Codec(e) => write!(f, "embedded command: {e}"),
            ProtoError::ProbeTooLarge { pixels, limit } => {
                write!(f, "probe of {pixels} pixels exceeds {limit}")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<ReadError> for ProtoError {
    fn from(e: ReadError) -> Self {
        match e {
            ReadError::Truncated => ProtoError::Truncated,
            ReadError::Trailing => ProtoError::BadPayload("trailing bytes after message"),
            other => ProtoError::BadPayload(other.as_str()),
        }
    }
}

impl From<CodecError> for ProtoError {
    fn from(e: CodecError) -> Self {
        ProtoError::Codec(e)
    }
}

/// One search hit as carried on the wire: the index metadata without
/// the screenshot portals (a client seeks to `time` to view a hit,
/// keeping replies small).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WireHit {
    /// When the query first became satisfied.
    pub time: Timestamp,
    /// When it stopped being satisfied.
    pub until: Timestamp,
    /// How long the matching text persisted.
    pub persistence: Duration,
    /// Number of matching text instances overlapping the interval.
    pub matches: u32,
    /// A text snippet from a matching instance.
    pub snippet: String,
    /// Applications contributing matches.
    pub apps: Vec<String>,
}

/// What a `VisualQuery` probes with.
#[derive(Clone, PartialEq, Debug)]
pub enum VisualProbe {
    /// An image carried by the client (any geometry; the server
    /// resamples it into fingerprint space).
    Thumb(Screenshot),
    /// A moment in the record: "find when the screen looked like it
    /// did at this time" — the server reconstructs the probe itself,
    /// so the query costs a timestamp, not a screenshot, on the wire.
    At(Timestamp),
}

/// One visual hit as carried on the wire: the instance metadata plus
/// its RLE-encoded representative thumbnail
/// ([`dv_record::decode_screenshot`] renders it). A client seeks to
/// `last` to view the full-resolution moment.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WireVisualHit {
    /// Visual instance id (stable across seals).
    pub id: u64,
    /// Hamming distance from the query fingerprint.
    pub distance: u32,
    /// When the screen first looked like this.
    pub first: Timestamp,
    /// The last keyframe that still looked like this.
    pub last: Timestamp,
    /// Keyframes coalesced into the instance.
    pub frames: u64,
    /// The representative thumbnail, RLE-encoded.
    pub thumb: Vec<u8>,
}

/// One protocol message.
#[derive(Clone, PartialEq, Debug)]
pub enum Message {
    /// Client introduction; the server answers `Welcome` or `Reject`.
    Hello {
        /// Client protocol version.
        version: u16,
        /// Client name (diagnostics only).
        name: String,
    },
    /// Handshake accepted; carries the live screen geometry.
    Welcome {
        /// Server protocol version.
        version: u16,
        /// Live screen width in pixels.
        width: u32,
        /// Live screen height in pixels.
        height: u32,
    },
    /// Handshake refused (version mismatch); the server closes after.
    Reject {
        /// Human-readable refusal reason.
        reason: String,
    },
    /// Subscribe to the live display stream; the server replies with a
    /// `Keyframe` of the current screen, then `Command`s.
    AttachLive,
    /// Subscribe to the live display stream through a virtual output
    /// scaled by the rational factor `num/den` — a PDA attaching at
    /// 1/2, a projector at 3/2. The server drives a headless output at
    /// the scaled geometry and sends its keyframes and commands, so
    /// one session feeds several independently-sized remote screens.
    AttachScaled {
        /// Scale numerator (nonzero).
        num: u32,
        /// Scale denominator (nonzero).
        den: u32,
    },
    /// Unsubscribe from the live display stream.
    Detach,
    /// One user input event forwarded to the server (never recorded).
    Input {
        /// The forwarded event.
        event: InputEvent,
    },
    /// Playback-seek RPC: reconstruct the screen at `t`.
    Seek {
        /// Request id echoed in the reply.
        req_id: u32,
        /// Target session time.
        t: Timestamp,
    },
    /// Reply to `Seek`.
    SeekReply {
        /// Request id from the `Seek`.
        req_id: u32,
        /// The reconstructed screen.
        shot: Screenshot,
    },
    /// Text-index search RPC.
    Search {
        /// Request id echoed in the reply.
        req_id: u32,
        /// Result ordering.
        order: RankOrder,
        /// Query in the §4.4 string syntax.
        query: String,
    },
    /// Reply to `Search`.
    SearchReply {
        /// Request id from the `Search`.
        req_id: u32,
        /// Matching intervals, in the requested order.
        hits: Vec<WireHit>,
    },
    /// Visual-recall RPC: the `k` recorded moments nearest to the
    /// probe.
    VisualQuery {
        /// Request id echoed in the reply.
        req_id: u32,
        /// How many hits the client wants (the server additionally
        /// truncates to [`MAX_VISUAL_HITS`]).
        k: u32,
        /// The query image or moment.
        probe: VisualProbe,
    },
    /// Reply to `VisualQuery`: nearest instances, distance-ranked.
    VisualReply {
        /// Request id from the `VisualQuery`.
        req_id: u32,
        /// Nearest visual instances, most similar first.
        hits: Vec<WireVisualHit>,
    },
    /// One live display command (server → subscribed client).
    Command {
        /// Session time the command was generated.
        ts: Timestamp,
        /// The command itself, display-codec encoded on the wire.
        cmd: DisplayCommand,
    },
    /// A whole-screen keyframe: sent on attach and after slow-client
    /// coalescing; the client replaces its framebuffer wholesale.
    Keyframe {
        /// Session time of the snapshot.
        ts: Timestamp,
        /// The screen contents.
        shot: Screenshot,
    },
    /// Liveness probe.
    Ping {
        /// Echoed in the `Pong`.
        nonce: u64,
    },
    /// Liveness answer.
    Pong {
        /// Nonce from the `Ping`.
        nonce: u64,
    },
    /// Graceful disconnect (either direction); the sender closes after.
    Bye,
    /// An RPC failed server-side.
    Error {
        /// Request id of the failed RPC (0 when not tied to one).
        req_id: u32,
        /// Human-readable failure description.
        message: String,
    },
}

impl Message {
    /// A lower bound on the encoded length, exact for `Command` — the
    /// one message that carries video planes and pixel slices — so a
    /// sender reserves once instead of doubling its buffer under a
    /// video frame.
    pub(crate) fn encoded_len_hint(&self) -> usize {
        match self {
            Message::Command { cmd, .. } => 1 + 8 + cmd.wire_size(),
            _ => 1,
        }
    }
}

fn order_tag(order: RankOrder) -> u8 {
    match order {
        RankOrder::Chronological => 0,
        RankOrder::ReverseChronological => 1,
        RankOrder::PersistenceAscending => 2,
        RankOrder::MatchCount => 3,
        RankOrder::PersistenceWeighted => 4,
    }
}

fn order_from_tag(tag: u8) -> Result<RankOrder, ProtoError> {
    Ok(match tag {
        0 => RankOrder::Chronological,
        1 => RankOrder::ReverseChronological,
        2 => RankOrder::PersistenceAscending,
        3 => RankOrder::MatchCount,
        4 => RankOrder::PersistenceWeighted,
        _ => return Err(ProtoError::BadPayload("unknown rank order")),
    })
}

/// Appends the encoded form of `msg` to `out`.
pub fn encode_message(msg: &Message, out: &mut Vec<u8>) {
    match msg {
        Message::Hello { version, name } => {
            out.push(TAG_HELLO);
            out.extend_from_slice(&version.to_le_bytes());
            out.put_str_u32(name);
        }
        Message::Welcome {
            version,
            width,
            height,
        } => {
            out.push(TAG_WELCOME);
            out.extend_from_slice(&version.to_le_bytes());
            out.extend_from_slice(&width.to_le_bytes());
            out.extend_from_slice(&height.to_le_bytes());
        }
        Message::Reject { reason } => {
            out.push(TAG_REJECT);
            out.put_str_u32(reason);
        }
        Message::AttachLive => out.push(TAG_ATTACH_LIVE),
        Message::AttachScaled { num, den } => {
            out.push(TAG_ATTACH_SCALED);
            out.extend_from_slice(&num.to_le_bytes());
            out.extend_from_slice(&den.to_le_bytes());
        }
        Message::Detach => out.push(TAG_DETACH),
        Message::Input { event } => {
            out.push(TAG_INPUT);
            encode_input(event, out);
        }
        Message::Seek { req_id, t } => {
            out.push(TAG_SEEK);
            out.extend_from_slice(&req_id.to_le_bytes());
            out.extend_from_slice(&t.as_nanos().to_le_bytes());
        }
        Message::SeekReply { req_id, shot } => {
            out.push(TAG_SEEK_REPLY);
            out.extend_from_slice(&req_id.to_le_bytes());
            out.put_bytes_u32(&encode_screenshot(shot));
        }
        Message::Search {
            req_id,
            order,
            query,
        } => {
            out.push(TAG_SEARCH);
            out.extend_from_slice(&req_id.to_le_bytes());
            out.push(order_tag(*order));
            out.put_str_u32(query);
        }
        Message::SearchReply { req_id, hits } => {
            out.push(TAG_SEARCH_REPLY);
            out.extend_from_slice(&req_id.to_le_bytes());
            out.extend_from_slice(&(hits.len() as u32).to_le_bytes());
            for hit in hits {
                out.extend_from_slice(&hit.time.as_nanos().to_le_bytes());
                out.extend_from_slice(&hit.until.as_nanos().to_le_bytes());
                out.extend_from_slice(&hit.persistence.as_nanos().to_le_bytes());
                out.extend_from_slice(&hit.matches.to_le_bytes());
                out.put_str_u32(&hit.snippet);
                out.extend_from_slice(&(hit.apps.len() as u32).to_le_bytes());
                for app in &hit.apps {
                    out.put_str_u32(app);
                }
            }
        }
        Message::VisualQuery { req_id, k, probe } => {
            out.push(TAG_VISUAL_QUERY);
            out.extend_from_slice(&req_id.to_le_bytes());
            out.extend_from_slice(&k.to_le_bytes());
            match probe {
                VisualProbe::Thumb(shot) => {
                    out.push(0);
                    out.put_bytes_u32(&encode_screenshot(shot));
                }
                VisualProbe::At(t) => {
                    out.push(1);
                    out.extend_from_slice(&t.as_nanos().to_le_bytes());
                }
            }
        }
        Message::VisualReply { req_id, hits } => {
            out.push(TAG_VISUAL_REPLY);
            out.extend_from_slice(&req_id.to_le_bytes());
            out.extend_from_slice(&(hits.len() as u32).to_le_bytes());
            for hit in hits {
                out.extend_from_slice(&hit.id.to_le_bytes());
                out.extend_from_slice(&hit.distance.to_le_bytes());
                out.extend_from_slice(&hit.first.as_nanos().to_le_bytes());
                out.extend_from_slice(&hit.last.as_nanos().to_le_bytes());
                out.extend_from_slice(&hit.frames.to_le_bytes());
                out.put_bytes_u32(&hit.thumb);
            }
        }
        Message::Command { ts, cmd } => {
            out.push(TAG_COMMAND);
            out.extend_from_slice(&ts.as_nanos().to_le_bytes());
            encode_command(cmd, out);
        }
        Message::Keyframe { ts, shot } => {
            out.push(TAG_KEYFRAME);
            out.extend_from_slice(&ts.as_nanos().to_le_bytes());
            out.put_bytes_u32(&encode_screenshot(shot));
        }
        Message::Ping { nonce } => {
            out.push(TAG_PING);
            out.extend_from_slice(&nonce.to_le_bytes());
        }
        Message::Pong { nonce } => {
            out.push(TAG_PONG);
            out.extend_from_slice(&nonce.to_le_bytes());
        }
        Message::Bye => out.push(TAG_BYE),
        Message::Error { req_id, message } => {
            out.push(TAG_ERROR);
            out.extend_from_slice(&req_id.to_le_bytes());
            out.put_str_u32(message);
        }
    }
}

/// Encodes a message into a fresh buffer.
pub fn encode_message_vec(msg: &Message) -> Vec<u8> {
    let mut out = Vec::new();
    encode_message(msg, &mut out);
    out
}

/// Whether a frame from a peer that has not yet said `Hello` is worth
/// decoding at all: only the handshake and a goodbye act on such a
/// connection, so nothing else it sends is parsed.
pub(crate) fn acts_before_hello(payload: &[u8]) -> bool {
    matches!(payload.first(), Some(&(TAG_HELLO | TAG_BYE)))
}

/// Decodes one message from a complete frame payload.
///
/// # Errors
///
/// [`ProtoError`] when the payload is malformed; the connection should
/// be dropped (framing guarantees the payload arrived intact, so a
/// decode failure is a peer bug, not line noise).
pub fn decode_message(payload: &[u8]) -> Result<Message, ProtoError> {
    decode_message_within(payload, u64::from(MAX_SCREEN_SIDE).pow(2))
}

/// [`decode_message`] for a receiver that takes `VisualQuery` probes of
/// at most `probe_pixels` pixels. A run-length probe costs its sender a
/// few bytes however large it claims to be, so the serving side bounds
/// the claim by its session screen: a larger probe carries no extra
/// information, since it is resampled into fingerprint space anyway.
///
/// # Errors
///
/// As [`decode_message`], plus [`ProtoError::ProbeTooLarge`].
pub(crate) fn decode_message_within(
    payload: &[u8],
    probe_pixels: u64,
) -> Result<Message, ProtoError> {
    let mut r = Reader::new(payload);
    let msg = match r.u8()? {
        TAG_HELLO => Message::Hello {
            version: r.u16()?,
            name: r.str_u32()?.to_owned(),
        },
        TAG_WELCOME => Message::Welcome {
            version: r.u16()?,
            width: r.u32()?,
            height: r.u32()?,
        },
        TAG_REJECT => Message::Reject {
            reason: r.str_u32()?.to_owned(),
        },
        TAG_ATTACH_LIVE => Message::AttachLive,
        TAG_ATTACH_SCALED => {
            let num = r.u32()?;
            let den = r.u32()?;
            if num == 0 || den == 0 {
                return Err(ProtoError::BadPayload("zero scale component"));
            }
            Message::AttachScaled { num, den }
        }
        TAG_DETACH => Message::Detach,
        TAG_INPUT => {
            let mut rest = r.rest();
            let event = decode_input(&mut rest)?.ok_or(ProtoError::Truncated)?;
            r = Reader::new(rest);
            Message::Input { event }
        }
        TAG_SEEK => Message::Seek {
            req_id: r.u32()?,
            t: Timestamp::from_nanos(r.u64()?),
        },
        TAG_SEEK_REPLY => {
            let req_id = r.u32()?;
            let shot = decode_screenshot(r.bytes_u32()?)
                .ok_or(ProtoError::BadPayload("undecodable screenshot"))?;
            Message::SeekReply { req_id, shot }
        }
        TAG_SEARCH => {
            let req_id = r.u32()?;
            let order = order_from_tag(r.u8()?)?;
            Message::Search {
                req_id,
                order,
                query: r.str_u32()?.to_owned(),
            }
        }
        TAG_SEARCH_REPLY => {
            let req_id = r.u32()?;
            // Three times, a match count, a snippet length, an app count.
            let count = r.count(36)?;
            let mut hits = Vec::with_capacity(count);
            for _ in 0..count {
                hits.push(WireHit {
                    time: Timestamp::from_nanos(r.u64()?),
                    until: Timestamp::from_nanos(r.u64()?),
                    persistence: Duration::from_nanos(r.u64()?),
                    matches: r.u32()?,
                    snippet: r.str_u32()?.to_owned(),
                    apps: (0..r.count(4)?)
                        .map(|_| r.str_u32().map(str::to_owned))
                        .collect::<Result<_, _>>()?,
                });
            }
            Message::SearchReply { req_id, hits }
        }
        TAG_VISUAL_QUERY => {
            let req_id = r.u32()?;
            let k = r.u32()?;
            let probe = match r.u8()? {
                0 => {
                    let encoded = r.bytes_u32()?;
                    if let Some((width, height)) = screenshot_dims(encoded) {
                        let pixels = u64::from(width) * u64::from(height);
                        if pixels > probe_pixels {
                            return Err(ProtoError::ProbeTooLarge {
                                pixels,
                                limit: probe_pixels,
                            });
                        }
                    }
                    let shot = decode_screenshot(encoded)
                        .ok_or(ProtoError::BadPayload("undecodable probe"))?;
                    VisualProbe::Thumb(shot)
                }
                1 => VisualProbe::At(Timestamp::from_nanos(r.u64()?)),
                _ => return Err(ProtoError::BadPayload("unknown probe kind")),
            };
            Message::VisualQuery { req_id, k, probe }
        }
        TAG_VISUAL_REPLY => {
            let req_id = r.u32()?;
            // Id, distance, two times, frames, a thumbnail length.
            let count = r.count(40)?;
            let mut hits = Vec::with_capacity(count);
            for _ in 0..count {
                let hit = WireVisualHit {
                    id: r.u64()?,
                    distance: r.u32()?,
                    first: Timestamp::from_nanos(r.u64()?),
                    last: Timestamp::from_nanos(r.u64()?),
                    frames: r.u64()?,
                    thumb: r.bytes_u32()?.to_vec(),
                };
                if decode_screenshot(&hit.thumb).is_none() {
                    return Err(ProtoError::BadPayload("undecodable thumbnail"));
                }
                hits.push(hit);
            }
            Message::VisualReply { req_id, hits }
        }
        TAG_COMMAND => {
            let ts = Timestamp::from_nanos(r.u64()?);
            let mut rest = r.rest();
            let cmd = decode_command(&mut rest)?;
            r = Reader::new(rest);
            Message::Command { ts, cmd }
        }
        TAG_KEYFRAME => {
            let ts = Timestamp::from_nanos(r.u64()?);
            let shot = decode_screenshot(r.bytes_u32()?)
                .ok_or(ProtoError::BadPayload("undecodable screenshot"))?;
            Message::Keyframe { ts, shot }
        }
        TAG_PING => Message::Ping { nonce: r.u64()? },
        TAG_PONG => Message::Pong { nonce: r.u64()? },
        TAG_BYE => Message::Bye,
        TAG_ERROR => Message::Error {
            req_id: r.u32()?,
            message: r.str_u32()?.to_owned(),
        },
        other => return Err(ProtoError::BadTag(other)),
    };
    r.finish()?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv_display::Rect;

    fn shot() -> Screenshot {
        Screenshot {
            width: 4,
            height: 2,
            pixels: vec![0xAA55AA, 0xAA55AA, 1, 2, 3, 3, 3, 0].into(),
        }
    }

    fn round_trip(msg: Message) {
        let bytes = encode_message_vec(&msg);
        let exact = matches!(msg, Message::Command { .. });
        let hint = msg.encoded_len_hint();
        assert!(hint <= bytes.len() && (!exact || hint == bytes.len()));
        assert_eq!(decode_message(&bytes).expect("decode"), msg);
    }

    #[test]
    fn all_message_kinds_round_trip() {
        round_trip(Message::Hello {
            version: PROTOCOL_VERSION,
            name: "pda-viewer".into(),
        });
        round_trip(Message::Welcome {
            version: PROTOCOL_VERSION,
            width: 1024,
            height: 768,
        });
        round_trip(Message::Reject {
            reason: "version mismatch".into(),
        });
        round_trip(Message::AttachLive);
        round_trip(Message::AttachScaled { num: 1, den: 2 });
        round_trip(Message::Detach);
        round_trip(Message::Input {
            event: InputEvent::Key {
                ch: 'ф',
                ctrl: true,
                alt: false,
            },
        });
        round_trip(Message::Seek {
            req_id: 7,
            t: Timestamp::from_millis(1500),
        });
        round_trip(Message::SeekReply {
            req_id: 7,
            shot: shot(),
        });
        round_trip(Message::Search {
            req_id: 9,
            order: RankOrder::MatchCount,
            query: "app:editor quick fox".into(),
        });
        round_trip(Message::SearchReply {
            req_id: 9,
            hits: vec![WireHit {
                time: Timestamp::from_secs(1),
                until: Timestamp::from_secs(3),
                persistence: Duration::from_secs(2),
                matches: 4,
                snippet: "the quick brown fox".into(),
                apps: vec!["editor".into(), "browser".into()],
            }],
        });
        round_trip(Message::VisualQuery {
            req_id: 11,
            k: 5,
            probe: VisualProbe::Thumb(shot()),
        });
        round_trip(Message::VisualQuery {
            req_id: 12,
            k: 3,
            probe: VisualProbe::At(Timestamp::from_millis(4500)),
        });
        round_trip(Message::VisualReply {
            req_id: 11,
            hits: vec![WireVisualHit {
                id: 42,
                distance: 7,
                first: Timestamp::from_secs(1),
                last: Timestamp::from_secs(3),
                frames: 4,
                thumb: encode_screenshot(&shot()),
            }],
        });
        round_trip(Message::VisualReply {
            req_id: 13,
            hits: Vec::new(),
        });
        round_trip(Message::Command {
            ts: Timestamp::from_millis(250),
            cmd: DisplayCommand::SolidFill {
                rect: Rect::new(0, 0, 8, 8),
                color: 0x123456,
            },
        });
        round_trip(Message::Keyframe {
            ts: Timestamp::from_secs(2),
            shot: shot(),
        });
        round_trip(Message::Ping { nonce: 99 });
        round_trip(Message::Pong { nonce: 99 });
        round_trip(Message::Bye);
        round_trip(Message::Error {
            req_id: 3,
            message: "no checkpoint".into(),
        });
    }

    #[test]
    fn truncated_bodies_error_cleanly() {
        let full = encode_message_vec(&Message::Search {
            req_id: 1,
            order: RankOrder::Chronological,
            query: "hello".into(),
        });
        for cut in 0..full.len() {
            let err = decode_message(&full[..cut]);
            assert!(err.is_err(), "cut at {cut} decoded: {err:?}");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_message_vec(&Message::Bye);
        bytes.push(0);
        assert_eq!(
            decode_message(&bytes),
            Err(ProtoError::BadPayload("trailing bytes after message"))
        );
    }

    #[test]
    fn unknown_tag_is_rejected() {
        assert_eq!(decode_message(&[200]), Err(ProtoError::BadTag(200)));
        // The retired `KeyframeDelta` tag is not a message any more.
        assert_eq!(decode_message(&[17, 0]), Err(ProtoError::BadTag(17)));
    }

    #[test]
    fn zero_scale_component_is_rejected() {
        for (num, den) in [(0u32, 2u32), (1, 0)] {
            let mut bytes = vec![18]; // TAG_ATTACH_SCALED
            bytes.extend_from_slice(&num.to_le_bytes());
            bytes.extend_from_slice(&den.to_le_bytes());
            assert_eq!(
                decode_message(&bytes),
                Err(ProtoError::BadPayload("zero scale component"))
            );
        }
    }

    #[test]
    fn truncated_visual_messages_error_cleanly() {
        let query = encode_message_vec(&Message::VisualQuery {
            req_id: 1,
            k: 4,
            probe: VisualProbe::Thumb(shot()),
        });
        for cut in 0..query.len() {
            assert!(decode_message(&query[..cut]).is_err(), "query cut at {cut}");
        }
        let reply = encode_message_vec(&Message::VisualReply {
            req_id: 1,
            hits: vec![WireVisualHit {
                id: 1,
                distance: 0,
                first: Timestamp::ZERO,
                last: Timestamp::from_secs(1),
                frames: 1,
                thumb: encode_screenshot(&shot()),
            }],
        });
        for cut in 0..reply.len() {
            assert!(decode_message(&reply[..cut]).is_err(), "reply cut at {cut}");
        }
    }

    #[test]
    fn undecodable_visual_thumbnail_is_rejected() {
        let mut bytes = vec![20u8]; // TAG_VISUAL_REPLY
        bytes.extend_from_slice(&1u32.to_le_bytes()); // req_id
        bytes.extend_from_slice(&1u32.to_le_bytes()); // count
        bytes.extend_from_slice(&[0u8; 36]); // id/distance/first/last/frames
        bytes.extend_from_slice(&3u32.to_le_bytes()); // thumb len
        bytes.extend_from_slice(&[9, 9, 9]); // not RLE
        assert_eq!(
            decode_message(&bytes),
            Err(ProtoError::BadPayload("undecodable thumbnail"))
        );
    }

    #[test]
    fn a_probe_is_refused_by_its_header_past_the_receivers_limit() {
        let query = |width: u32, height: u32| {
            let mut bytes = vec![TAG_VISUAL_QUERY];
            bytes.extend_from_slice(&1u32.to_le_bytes()); // req_id
            bytes.extend_from_slice(&4u32.to_le_bytes()); // k
            bytes.push(0); // VisualProbe::Thumb
            bytes.extend_from_slice(&16u32.to_le_bytes());
            for v in [width, height, width * height, 7] {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
            bytes
        };
        assert!(decode_message_within(&query(4, 2), 8).is_ok());
        assert_eq!(
            decode_message_within(&query(4, 3), 8),
            Err(ProtoError::ProbeTooLarge {
                pixels: 12,
                limit: 8
            })
        );
    }

    #[test]
    fn only_a_handshake_or_a_goodbye_acts_before_hello() {
        let seek = encode_message_vec(&Message::Seek {
            req_id: 1,
            t: Timestamp::ZERO,
        });
        assert!(!acts_before_hello(&seek));
        assert!(!acts_before_hello(&[]));
        for msg in [
            Message::Bye,
            Message::Hello {
                version: PROTOCOL_VERSION,
                name: "x".into(),
            },
        ] {
            assert!(acts_before_hello(&encode_message_vec(&msg)));
        }
    }

    #[test]
    fn unknown_probe_kind_is_rejected() {
        let mut bytes = vec![19u8]; // TAG_VISUAL_QUERY
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.push(7); // bogus discriminant
        assert_eq!(
            decode_message(&bytes),
            Err(ProtoError::BadPayload("unknown probe kind"))
        );
    }
}
