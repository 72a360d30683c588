//! Length-prefixed CRC-framed messages.
//!
//! The transport layer delivers an undifferentiated byte stream in
//! arbitrary chunks; the frame layer cuts it back into messages. Every
//! frame is
//!
//! ```text
//! [payload_len: u32 LE][crc32(payload): u32 LE][payload...]
//! ```
//!
//! The CRC (the same IEEE CRC32 that guards the lsfs journal,
//! [`dv_fault::checksum`]) turns silent in-flight corruption into a
//! clean [`FrameError::Corrupt`] instead of a garbage message handed to
//! the protocol layer. Truncation at any byte offset is never an
//! error: the decoder simply reports "need more data" (an `Ok(None)`)
//! until the rest arrives or the connection dies.
//!
//! Both directions touch a frame's bytes once per pass. The sender
//! encodes a message straight behind a placeholder header and patches
//! length and CRC in ([`frame_message`]); the receiver lends its own
//! spare room to [`Transport::recv`], checks the CRC where the bytes
//! landed and lends the payload out from there
//! ([`FrameDecoder::recv_frame`]).

use std::ops::Range;

use dv_fault::checksum::crc32;

use crate::proto::{encode_message, Message};
use crate::transport::{Transport, TransportError};

/// Bytes of fixed header preceding every frame payload.
pub const FRAME_HEADER_LEN: usize = 8;

/// Upper bound on a single frame's payload, a defense against a
/// corrupt or hostile length prefix causing a huge allocation. Large
/// enough for a keyframe of a 4K screen (RLE-encoded) with room to
/// spare.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Room the decoder offers a transport per receive call beyond what the
/// frame being assembled still needs.
const RECV_ROOM: usize = 4096;

/// Errors produced while cutting frames out of the byte stream.
///
/// Both variants are fatal for the connection: after either, the
/// stream offset can no longer be trusted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrameError {
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    TooLarge(usize),
    /// The payload failed its CRC check.
    Corrupt {
        /// CRC carried by the frame header.
        expected: u32,
        /// CRC computed over the received payload.
        actual: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooLarge(len) => write!(f, "frame length {len} exceeds {MAX_FRAME_LEN}"),
            FrameError::Corrupt { expected, actual } => {
                write!(
                    f,
                    "frame CRC mismatch: header {expected:#010x}, payload {actual:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Why [`FrameDecoder::recv_frame`] produced no frame and never will
/// again on this connection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RecvError {
    /// The transport closed or reset.
    Transport(TransportError),
    /// The bytes it delivered do not frame.
    Frame(FrameError),
}

impl From<TransportError> for RecvError {
    fn from(e: TransportError) -> Self {
        RecvError::Transport(e)
    }
}

impl From<FrameError> for RecvError {
    fn from(e: FrameError) -> Self {
        RecvError::Frame(e)
    }
}

/// Appends one framed `payload` to `out`.
pub fn encode_frame(payload: &[u8], out: &mut Vec<u8>) {
    debug_assert!(payload.len() <= MAX_FRAME_LEN);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Frames `payload` into a fresh buffer.
pub fn encode_frame_vec(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    encode_frame(payload, &mut out);
    out
}

/// Appends `msg` to `out` as one frame: the message is encoded once,
/// directly behind a placeholder header, and length and CRC are patched
/// in over the bytes where they lie. Same wire bytes as
/// `encode_frame(&encode_message_vec(msg), out)`.
pub fn frame_message(msg: &Message, out: &mut Vec<u8>) {
    let start = out.len();
    out.reserve(FRAME_HEADER_LEN + msg.encoded_len_hint());
    out.extend_from_slice(&[0; FRAME_HEADER_LEN]);
    encode_message(msg, out);
    let (header, payload) = out[start..].split_at_mut(FRAME_HEADER_LEN);
    debug_assert!(payload.len() <= MAX_FRAME_LEN);
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
}

/// Incremental frame reassembler: stream bytes in, in whatever chunks
/// the transport produced, complete payloads out, lent from the
/// decoder's own buffer.
///
/// `buf[head..filled]` is the unconsumed stream; `buf[filled..]` is
/// room a transport may write into. Invariants: `head <= filled <=
/// buf.len()`; a frame handed out lies wholly below `head` and stays
/// put until the next call that takes `&mut self`; both cursors return
/// to zero whenever they meet. Live bytes move only when the frame at
/// `head` cannot complete where it lies: they slide to the front once,
/// at the first receive after its header is in, so what moves is the
/// piece of it that arrived behind the previous frame. The buffer grows
/// only when that still leaves no room for a chunk, and at most doubles,
/// so a length prefix alone never sizes an allocation. Capacity stays
/// within the largest frame seen plus one chunk.
#[derive(Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    head: usize,
    filled: usize,
    received: u64,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends a chunk of stream bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.room(bytes.len())[..bytes.len()].copy_from_slice(bytes);
        self.commit(bytes.len());
    }

    /// Returns how many bytes are buffered awaiting a complete frame.
    pub fn buffered(&self) -> usize {
        self.filled - self.head
    }

    /// Bytes the buffer currently spans, consumed and spare included.
    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Stream bytes taken in since creation.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Extracts the next complete payload, or `Ok(None)` when the
    /// buffer holds only a partial frame ("need more data").
    ///
    /// # Errors
    ///
    /// [`FrameError`] when the stream is corrupt; the connection should
    /// be dropped.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, FrameError> {
        Ok(self.cut()?.map(|payload| &self.buf[payload]))
    }

    /// The fill-and-cut loop of a connection's inbound side: returns
    /// the next complete payload, receiving from `transport` into the
    /// decoder's spare room for as long as none is buffered, or
    /// `Ok(None)` once the transport has nothing more for now.
    ///
    /// # Errors
    ///
    /// [`RecvError`] when the transport ended or the stream is corrupt;
    /// either way the connection is over.
    pub fn recv_frame(
        &mut self,
        transport: &mut dyn Transport,
    ) -> Result<Option<&[u8]>, RecvError> {
        loop {
            if let Some(payload) = self.cut()? {
                return Ok(Some(&self.buf[payload]));
            }
            let got = transport.recv(self.room(RECV_ROOM))?;
            if got == 0 {
                return Ok(None);
            }
            self.commit(got);
        }
    }

    /// Length and CRC of the frame at `head`, once its header is in.
    fn header(&self) -> Result<Option<(usize, u32)>, FrameError> {
        let Some(header) = self.buf[self.head..self.filled].first_chunk::<FRAME_HEADER_LEN>()
        else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*header.first_chunk().expect("four bytes")) as usize;
        if len > MAX_FRAME_LEN {
            return Err(FrameError::TooLarge(len));
        }
        let crc = u32::from_le_bytes(*header.last_chunk().expect("four bytes"));
        Ok(Some((len, crc)))
    }

    /// Verifies the frame at `head` in place and steps over it,
    /// returning where its payload lies.
    fn cut(&mut self) -> Result<Option<Range<usize>>, FrameError> {
        let Some((len, expected)) = self.header()? else {
            return Ok(None);
        };
        let payload = self.head + FRAME_HEADER_LEN..self.head + FRAME_HEADER_LEN + len;
        if payload.end > self.filled {
            return Ok(None);
        }
        let actual = crc32(&self.buf[payload.clone()]);
        if actual != expected {
            return Err(FrameError::Corrupt { expected, actual });
        }
        self.head = payload.end;
        Ok(Some(payload))
    }

    /// Spare room of at least `min` bytes behind the buffered stream.
    fn room(&mut self, min: usize) -> &mut [u8] {
        if self.head == self.filled {
            self.head = 0;
            self.filled = 0;
        }
        // What the frame at `head` still lacks; an unframeable header is
        // `cut`'s to report.
        let live = self.filled - self.head;
        let lacking = match self.header() {
            Ok(Some((len, _))) => (FRAME_HEADER_LEN + len).saturating_sub(live),
            _ => 0,
        };
        if self.head > 0 && self.buf.len() - self.filled < lacking + min {
            self.buf.copy_within(self.head..self.filled, 0);
            self.head = 0;
            self.filled = live;
        }
        if self.buf.len() - self.filled < min {
            let wanted = self.filled + lacking + min;
            let doubled = (2 * self.buf.len()).max(self.filled + min);
            self.buf.resize(wanted.min(doubled), 0);
        }
        &mut self.buf[self.filled..]
    }

    /// Counts `n` bytes written into [`room`](Self::room) as received.
    fn commit(&mut self, n: usize) {
        self.filled += n;
        self.received += n as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_in_order() {
        let mut wire = Vec::new();
        encode_frame(b"first", &mut wire);
        encode_frame(b"", &mut wire);
        encode_frame(b"third message", &mut wire);
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        assert_eq!(dec.next_frame().unwrap().unwrap(), b"first");
        assert_eq!(dec.next_frame().unwrap().unwrap(), b"");
        assert_eq!(dec.next_frame().unwrap().unwrap(), b"third message");
        assert_eq!(dec.next_frame().unwrap(), None);
        assert_eq!(dec.buffered(), 0);
    }

    /// The frame is a wire format: one encoded message's bytes are
    /// pinned, checksum included, so the CRC implementation cannot drift
    /// with both ends still agreeing.
    #[test]
    fn encoded_frame_is_pinned() {
        let ping = crate::proto::Message::Ping {
            nonce: 0x0123_4567_89AB_CDEF,
        };
        let payload = crate::proto::encode_message_vec(&ping);
        let wire = encode_frame_vec(&payload);
        assert_eq!(wire[..4], (payload.len() as u32).to_le_bytes());
        assert_eq!(wire[4..8], 0x365F_CED7u32.to_le_bytes());
        assert_eq!(wire[8..], payload);
        // Framing a message in place writes the same bytes, wherever in
        // the buffer the frame starts.
        let mut in_place = vec![0xAA; 3];
        frame_message(&ping, &mut in_place);
        assert_eq!(in_place[3..], wire);
    }

    #[test]
    fn byte_at_a_time_delivery_reassembles() {
        let wire = encode_frame_vec(b"fragmented payload");
        let mut dec = FrameDecoder::new();
        for (i, b) in wire.iter().enumerate() {
            dec.feed(std::slice::from_ref(b));
            let got = dec.next_frame().unwrap();
            if i + 1 < wire.len() {
                assert_eq!(got, None, "complete frame before byte {i}");
            } else {
                assert_eq!(got.unwrap(), b"fragmented payload");
            }
        }
    }

    #[test]
    fn corrupt_payload_is_detected() {
        let mut wire = encode_frame_vec(b"precious bytes");
        let last = wire.len() - 1;
        wire[last] ^= 0x40;
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        assert!(matches!(dec.next_frame(), Err(FrameError::Corrupt { .. })));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        wire.extend_from_slice(&0u32.to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        assert_eq!(
            dec.next_frame(),
            Err(FrameError::TooLarge(u32::MAX as usize))
        );
    }

    /// The decoder this one replaced: append every chunk, copy each
    /// payload out, memmove the rest down. Kept as the reference for
    /// what comes out and where errors land.
    #[derive(Default)]
    struct CopyingDecoder {
        buf: Vec<u8>,
    }

    impl CopyingDecoder {
        fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
            if self.buf.len() < FRAME_HEADER_LEN {
                return Ok(None);
            }
            let len = u32::from_le_bytes(self.buf[..4].try_into().unwrap()) as usize;
            if len > MAX_FRAME_LEN {
                return Err(FrameError::TooLarge(len));
            }
            let expected = u32::from_le_bytes(self.buf[4..8].try_into().unwrap());
            if self.buf.len() < FRAME_HEADER_LEN + len {
                return Ok(None);
            }
            let payload = self.buf[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len].to_vec();
            let actual = crc32(&payload);
            if actual != expected {
                return Err(FrameError::Corrupt { expected, actual });
            }
            self.buf.drain(..FRAME_HEADER_LEN + len);
            Ok(Some(payload))
        }
    }

    /// A seeded draw in `0..bound`.
    fn draw(rng: &mut u64, bound: usize) -> usize {
        *rng = rng
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (*rng >> 33) as usize % bound
    }

    /// Frames of every awkward size, tiny ones back to back, two large
    /// enough to span hundreds of chunks.
    fn mixed_stream() -> (Vec<u8>, usize) {
        let sizes = [
            0usize, 0, 1, 7, 8, 9, 600_000, 0, 3, 1_391, 1_392, 1_393, 4_087, 4_088, 4_089, 2, 2,
            2, 460_837, 0, 70_000, 5,
        ];
        let mut rng = 41u64;
        let mut wire = Vec::new();
        for len in sizes {
            let payload: Vec<u8> = (0..len).map(|_| draw(&mut rng, 256) as u8).collect();
            encode_frame(&payload, &mut wire);
        }
        (wire, *sizes.iter().max().unwrap())
    }

    /// Feeds `wire` to both decoders in chunks drawn by `chunk` and
    /// checks they agree after every chunk: same payloads in the same
    /// order, "need more data" at the same truncations, the same error
    /// at the same byte. Returns the error the stream ended in, if any.
    fn check_against_reference(
        wire: &[u8],
        largest: usize,
        mut chunk: impl FnMut() -> usize,
    ) -> Option<FrameError> {
        let mut reference = CopyingDecoder::default();
        let mut dec = FrameDecoder::new();
        let mut at = 0;
        let mut largest_chunk = 0;
        while at < wire.len() {
            let n = chunk().clamp(1, wire.len() - at);
            largest_chunk = largest_chunk.max(n);
            reference.buf.extend_from_slice(&wire[at..at + n]);
            dec.feed(&wire[at..at + n]);
            at += n;
            loop {
                let want = reference.next_frame();
                let got = dec.next_frame().map(|p| p.map(<[u8]>::to_vec));
                assert_eq!(got, want, "after byte {at}");
                match want {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(e) => return Some(e),
                }
            }
            assert_eq!(dec.buffered(), reference.buf.len(), "after byte {at}");
            // The buffer never shrinks, so the chunk that counts is the
            // largest fed so far.
            assert!(
                dec.capacity() <= FRAME_HEADER_LEN + largest + largest_chunk,
                "capacity {} at byte {at}, chunks up to {largest_chunk}",
                dec.capacity()
            );
        }
        None
    }

    #[test]
    fn any_chunking_yields_what_the_copying_decoder_yielded() {
        let (wire, largest) = mixed_stream();
        let mut rng = 43u64;
        let mut draw = move |bound: usize| draw(&mut rng, bound);
        assert_eq!(check_against_reference(&wire, largest, || 1), None);
        assert_eq!(check_against_reference(&wire, largest, || 1_400), None);
        assert_eq!(check_against_reference(&wire, largest, || usize::MAX), None);
        let mixed = || match draw(4) {
            0 => 1,
            1 => 1_400,
            2 => 1 + draw(9),
            _ => 1 + draw(100_000),
        };
        assert_eq!(check_against_reference(&wire, largest, mixed), None);
    }

    #[test]
    fn errors_land_on_the_byte_the_copying_decoder_reported_them() {
        let (wire, largest) = mixed_stream();
        let mut rng = 47u64;
        let mut draw = move |bound: usize| draw(&mut rng, bound);
        for _ in 0..24 {
            let mut mangled = wire.clone();
            let at = draw(mangled.len());
            mangled[at] ^= 1 << draw(8);
            // A flipped length bit may leave the stream waiting for
            // bytes that never come; both decoders must then agree on
            // that too, which the lockstep check covers.
            let chunk = [1_400, 1 + draw(5_000), usize::MAX][draw(3)];
            let ended = check_against_reference(&mangled, largest + (1 << 20), || chunk);
            if let Some(FrameError::TooLarge(len)) = ended {
                assert!(len > MAX_FRAME_LEN);
            }
        }
        // An oversized prefix behind good frames is refused where it
        // starts, not when its body would have ended.
        let mut oversized = encode_frame_vec(b"fine");
        oversized.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        oversized.extend_from_slice(&[0; 4]);
        assert_eq!(
            check_against_reference(&oversized, 4, || 3),
            Some(FrameError::TooLarge(MAX_FRAME_LEN + 1))
        );
    }

    /// The transport path: the decoder lends its own room to `recv` and
    /// cuts frames where the bytes landed, at the default 1,400-byte
    /// chunk, a one-byte trickle and an unbounded pipe.
    #[test]
    fn recv_frame_reassembles_from_lent_room() {
        use crate::transport::LoopbackTransport;
        let (wire, largest) = mixed_stream();
        let mut reference = CopyingDecoder { buf: wire.clone() };
        let mut expected = Vec::new();
        while let Some(payload) = reference.next_frame().unwrap() {
            expected.push(payload);
        }
        for chunk in [1usize, 1_400, usize::MAX] {
            let (tx, rx) = LoopbackTransport::pair();
            let (mut tx, mut rx) = (tx.with_chunk(usize::MAX), rx.with_chunk(chunk));
            assert_eq!(tx.send(&wire).unwrap(), wire.len());
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            while let Some(payload) = dec.recv_frame(&mut rx).unwrap() {
                got.push(payload.to_vec());
                assert!(dec.capacity() <= FRAME_HEADER_LEN + largest + 2 * RECV_ROOM);
            }
            assert_eq!(got, expected, "chunk {chunk}");
            assert_eq!(dec.received(), wire.len() as u64);
            assert_eq!(dec.buffered(), 0);
            tx.close();
            assert_eq!(
                dec.recv_frame(&mut rx),
                Err(RecvError::Transport(TransportError::Closed))
            );
        }
    }

    /// A length prefix is a claim: the buffer follows the bytes that
    /// actually arrive, not the number in the header.
    #[test]
    fn a_large_length_prefix_alone_reserves_nothing() {
        let mut dec = FrameDecoder::new();
        dec.feed(&(MAX_FRAME_LEN as u32).to_le_bytes());
        dec.feed(&[0; 4]);
        assert_eq!(dec.next_frame(), Ok(None));
        dec.feed(&[0; 100]);
        assert_eq!(dec.next_frame(), Ok(None));
        assert!(dec.capacity() <= 2 * RECV_ROOM, "{}", dec.capacity());
    }
}
