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

use dv_fault::checksum::crc32;

/// Bytes of fixed header preceding every frame payload.
pub const FRAME_HEADER_LEN: usize = 8;

/// Upper bound on a single frame's payload, a defense against a
/// corrupt or hostile length prefix causing a huge allocation. Large
/// enough for a keyframe of a 4K screen (RLE-encoded) with room to
/// spare.
pub const MAX_FRAME_LEN: usize = 64 << 20;

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

/// Frames `payload` into a shared slice, the currency of zero-copy
/// fan-out: the service encodes once and every viewer's queue holds a
/// refcount on the same wire bytes.
pub fn encode_frame_shared(payload: &[u8]) -> std::sync::Arc<[u8]> {
    encode_frame_vec(payload).into()
}

/// Incremental frame reassembler: feed bytes in whatever chunks the
/// transport produced, take complete payloads out.
#[derive(Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends a chunk of stream bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Returns how many bytes are buffered awaiting a complete frame.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Extracts the next complete payload, or `Ok(None)` when the
    /// buffer holds only a partial frame ("need more data").
    ///
    /// # Errors
    ///
    /// [`FrameError`] when the stream is corrupt; the connection should
    /// be dropped.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        if self.buf.len() < FRAME_HEADER_LEN {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME_LEN {
            return Err(FrameError::TooLarge(len));
        }
        let expected = u32::from_le_bytes(self.buf[4..8].try_into().expect("4 bytes"));
        if self.buf.len() < FRAME_HEADER_LEN + len {
            return Ok(None);
        }
        let payload: Vec<u8> = self.buf[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len].to_vec();
        let actual = crc32(&payload);
        if actual != expected {
            return Err(FrameError::Corrupt { expected, actual });
        }
        self.buf.drain(..FRAME_HEADER_LEN + len);
        Ok(Some(payload))
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
        let payload = crate::proto::encode_message_vec(&crate::proto::Message::Ping {
            nonce: 0x0123_4567_89AB_CDEF,
        });
        let wire = encode_frame_vec(&payload);
        assert_eq!(wire[..4], (payload.len() as u32).to_le_bytes());
        assert_eq!(wire[4..8], 0x365F_CED7u32.to_le_bytes());
        assert_eq!(wire[8..], payload);
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
}
