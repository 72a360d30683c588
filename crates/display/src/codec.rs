//! Wire format for display commands.
//!
//! The same encoding serves both purposes the paper gives the protocol:
//! shipping commands to (possibly remote) viewers, and appending them to
//! the on-disk display record. The format is a tagged binary layout:
//!
//! ```text
//! [tag: u8][rect: 4 x u32 LE][payload_len: u32 LE][payload...]
//! ```

use std::fmt;
use std::sync::Arc;

use bytes::{Buf, BufMut};

use crate::command::{CommandMeta, DisplayCommand, Pattern, Pixel, YuvFrame};
use crate::rect::Rect;

/// Encoded size of the fixed per-command header.
pub const HEADER_LEN: usize = 1 + 16 + 4;

const TAG_RAW: u8 = 1;
const TAG_COPY: u8 = 2;
const TAG_SFILL: u8 = 3;
const TAG_PFILL: u8 = 4;
const TAG_GLYPH: u8 = 5;
const TAG_VIDEO: u8 = 6;

/// Errors produced while decoding a command stream.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CodecError {
    /// The buffer ended before a complete command was read.
    UnexpectedEof,
    /// An unknown command tag was encountered.
    BadTag(u8),
    /// A payload was internally inconsistent (for example, a raw payload
    /// whose length does not match its rectangle).
    BadPayload(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of command stream"),
            CodecError::BadTag(t) => write!(f, "unknown command tag {t}"),
            CodecError::BadPayload(why) => write!(f, "malformed command payload: {why}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends `pixels` to `out`, four little-endian bytes each — the one
/// pixel layout of the log, the wire and delta keyframes. The whole
/// slice moves in one pass the compiler can turn into a block copy.
pub fn encode_pixels(pixels: &[Pixel], out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + pixels.len() * 4, 0);
    for (bytes, px) in out[start..].chunks_exact_mut(4).zip(pixels) {
        bytes.copy_from_slice(&px.to_le_bytes());
    }
}

/// Reads back what [`encode_pixels`] wrote; trailing bytes short of a
/// pixel are ignored (callers check the length against a rectangle).
pub fn decode_pixels(bytes: &[u8]) -> Vec<Pixel> {
    bytes
        .chunks_exact(4)
        .map(|px| Pixel::from_le_bytes(px.try_into().expect("four bytes")))
        .collect()
}

/// Appends the encoded form of `cmd` to `out`.
pub fn encode_command(cmd: &DisplayCommand, out: &mut Vec<u8>) {
    let tag = match cmd {
        DisplayCommand::Raw { .. } => TAG_RAW,
        DisplayCommand::CopyArea { .. } => TAG_COPY,
        DisplayCommand::SolidFill { .. } => TAG_SFILL,
        DisplayCommand::PatternFill { .. } => TAG_PFILL,
        DisplayCommand::Glyph { .. } => TAG_GLYPH,
        DisplayCommand::Video { .. } => TAG_VIDEO,
    };
    out.put_u8(tag);
    let rect = cmd.rect();
    out.put_u32_le(rect.x);
    out.put_u32_le(rect.y);
    out.put_u32_le(rect.w);
    out.put_u32_le(rect.h);
    out.put_u32_le(cmd.payload_size() as u32);
    match cmd {
        DisplayCommand::Raw { pixels, .. } => encode_pixels(pixels, out),
        DisplayCommand::CopyArea { src_x, src_y, .. } => {
            out.put_u32_le(*src_x);
            out.put_u32_le(*src_y);
        }
        DisplayCommand::SolidFill { color, .. } => out.put_u32_le(*color),
        DisplayCommand::PatternFill { pattern, .. } => {
            out.put_u64_le(pattern.bits);
            out.put_u32_le(pattern.fg);
            out.put_u32_le(pattern.bg);
        }
        DisplayCommand::Glyph { bits, fg, bg, .. } => {
            out.put_u32_le(*fg);
            out.put_u32_le(*bg);
            out.extend_from_slice(bits);
        }
        DisplayCommand::Video { frame, .. } => {
            out.put_u32_le(frame.width);
            out.put_u32_le(frame.height);
            out.extend_from_slice(&frame.y);
            out.extend_from_slice(&frame.u);
            out.extend_from_slice(&frame.v);
        }
    }
}

/// Encodes a command into a fresh buffer.
pub fn encode_command_vec(cmd: &DisplayCommand) -> Vec<u8> {
    let mut out = Vec::with_capacity(cmd.wire_size());
    encode_command(cmd, &mut out);
    out
}

/// One encoded command split into its parts, the payload length already
/// checked against the tag and rectangle.
struct Parts<'a> {
    tag: u8,
    rect: Rect,
    payload: &'a [u8],
}

/// Splits the command at the front of `buf` and validates its payload
/// length, in constant time and without copying. Every length is
/// computed in checked 64-bit arithmetic: the header comes from disk or
/// the network.
fn split_command(buf: &[u8]) -> Result<Parts<'_>, CodecError> {
    if buf.len() < HEADER_LEN {
        return Err(CodecError::UnexpectedEof);
    }
    let (mut head, rest) = buf.split_at(HEADER_LEN);
    let tag = head.get_u8();
    let rect = Rect::new(
        head.get_u32_le(),
        head.get_u32_le(),
        head.get_u32_le(),
        head.get_u32_le(),
    );
    let payload_len = head.get_u32_le() as usize;
    let payload = rest.get(..payload_len).ok_or(CodecError::UnexpectedEof)?;
    let (expected, why) = match tag {
        TAG_RAW => (rect.area().checked_mul(4), "raw payload size mismatch"),
        TAG_COPY => (Some(8), "copy payload size mismatch"),
        TAG_SFILL => (Some(4), "sfill payload size mismatch"),
        TAG_PFILL => (Some(16), "pfill payload size mismatch"),
        TAG_GLYPH => (
            Some(8 + u64::from(rect.w.div_ceil(8)) * u64::from(rect.h)),
            "glyph payload size mismatch",
        ),
        TAG_VIDEO => {
            let Some(mut dims) = payload.get(..8) else {
                return Err(CodecError::BadPayload("video payload too short"));
            };
            let (width, height) = (dims.get_u32_le(), dims.get_u32_le());
            // Such a frame cannot be sampled; its planes would be empty
            // and the length check below would let it through.
            if width == 0 || height == 0 {
                return Err(CodecError::BadPayload("video frame has no pixels"));
            }
            let luma = u64::from(width) * u64::from(height);
            let chroma = u64::from(width.div_ceil(2)) * u64::from(height.div_ceil(2));
            (
                luma.checked_add(2 * chroma).and_then(|n| n.checked_add(8)),
                "video plane size mismatch",
            )
        }
        other => return Err(CodecError::BadTag(other)),
    };
    if expected != Some(payload.len() as u64) {
        return Err(CodecError::BadPayload(why));
    }
    Ok(Parts { tag, rect, payload })
}

/// Reads the pruning metadata of the command at the front of `buf`
/// without decoding its payload. Succeeds exactly when
/// [`decode_command`] would, and `len` is what it would consume.
pub fn peek_command(buf: &[u8]) -> Result<CommandMeta, CodecError> {
    let Parts {
        tag,
        rect,
        mut payload,
    } = split_command(buf)?;
    let len = HEADER_LEN + payload.len();
    let reads = (tag == TAG_COPY)
        .then(|| Rect::new(payload.get_u32_le(), payload.get_u32_le(), rect.w, rect.h));
    Ok(CommandMeta {
        rect,
        opaque: tag != TAG_COPY,
        reads,
        len,
    })
}

/// Decodes one command from the front of `buf`, advancing it.
pub fn decode_command(buf: &mut &[u8]) -> Result<DisplayCommand, CodecError> {
    let Parts {
        tag,
        rect,
        mut payload,
    } = split_command(buf)?;
    *buf = &buf[HEADER_LEN + payload.len()..];
    Ok(match tag {
        TAG_RAW => DisplayCommand::Raw {
            rect,
            pixels: Arc::new(decode_pixels(payload)),
        },
        TAG_COPY => DisplayCommand::CopyArea {
            src_x: payload.get_u32_le(),
            src_y: payload.get_u32_le(),
            rect,
        },
        TAG_SFILL => DisplayCommand::SolidFill {
            rect,
            color: payload.get_u32_le(),
        },
        TAG_PFILL => DisplayCommand::PatternFill {
            rect,
            pattern: Pattern {
                bits: payload.get_u64_le(),
                fg: payload.get_u32_le(),
                bg: payload.get_u32_le(),
            },
        },
        TAG_GLYPH => {
            let fg = payload.get_u32_le();
            let bg = payload.get_u32_le();
            DisplayCommand::Glyph {
                rect,
                bits: Arc::new(payload.to_vec()),
                fg,
                bg,
            }
        }
        // `split_command` admits no other tag.
        _ => {
            let width = payload.get_u32_le();
            let height = payload.get_u32_le();
            let y_len = (width as usize) * (height as usize);
            let c_len = (payload.len() - y_len) / 2;
            DisplayCommand::Video {
                rect,
                frame: Arc::new(YuvFrame {
                    width,
                    height,
                    y: payload[..y_len].to_vec(),
                    u: payload[y_len..y_len + c_len].to_vec(),
                    v: payload[y_len + c_len..].to_vec(),
                }),
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::rgb;

    fn round_trip(cmd: DisplayCommand) {
        let encoded = encode_command_vec(&cmd);
        assert_eq!(encoded.len(), cmd.wire_size(), "wire_size must be exact");
        let mut slice = encoded.as_slice();
        let decoded = decode_command(&mut slice).expect("decode");
        assert!(slice.is_empty(), "decoder must consume the whole command");
        assert_eq!(decoded, cmd);
    }

    #[test]
    fn round_trip_all_kinds() {
        round_trip(DisplayCommand::Raw {
            rect: Rect::new(1, 2, 3, 2),
            pixels: Arc::new((0..6).collect()),
        });
        round_trip(DisplayCommand::CopyArea {
            src_x: 9,
            src_y: 8,
            rect: Rect::new(0, 0, 4, 4),
        });
        round_trip(DisplayCommand::SolidFill {
            rect: Rect::new(5, 5, 2, 2),
            color: rgb(1, 2, 3),
        });
        round_trip(DisplayCommand::PatternFill {
            rect: Rect::new(0, 0, 8, 8),
            pattern: Pattern {
                bits: 0xDEAD_BEEF_F00D_CAFE,
                fg: 1,
                bg: 2,
            },
        });
        round_trip(DisplayCommand::Glyph {
            rect: Rect::new(2, 2, 9, 3),
            bits: Arc::new(vec![0xFF, 0x80, 0x01, 0x00, 0xAA, 0x55]),
            fg: 3,
            bg: 4,
        });
        round_trip(DisplayCommand::Video {
            rect: Rect::new(0, 0, 16, 16),
            frame: Arc::new(YuvFrame::from_luma(3, 3, vec![1; 9])),
        });
    }

    #[test]
    fn decode_rejects_truncation() {
        let cmd = DisplayCommand::SolidFill {
            rect: Rect::new(0, 0, 1, 1),
            color: 7,
        };
        let encoded = encode_command_vec(&cmd);
        for cut in 0..encoded.len() {
            let mut slice = &encoded[..cut];
            assert_eq!(
                decode_command(&mut slice),
                Err(CodecError::UnexpectedEof),
                "cut at {cut}"
            );
        }
    }

    /// The slice-wise pixel codec writes what the per-pixel loop it
    /// replaced wrote, and reads it back, at ragged sizes; a raw command
    /// cut anywhere is still "need more bytes".
    #[test]
    fn raw_encoding_is_pinned_to_the_per_pixel_layout() {
        for (w, h) in [(0u32, 0u32), (1, 1), (3, 5), (704, 32)] {
            let rect = Rect::new(7, 9, w, h);
            let pixels: Vec<Pixel> = (0..w * h)
                .map(|i| i.wrapping_mul(2_654_435_761) ^ 0x00C0_FFEE)
                .collect();
            let mut reference = vec![TAG_RAW];
            for v in [rect.x, rect.y, rect.w, rect.h, w * h * 4] {
                reference.put_u32_le(v);
            }
            for px in &pixels {
                reference.put_u32_le(*px);
            }
            let cmd = DisplayCommand::Raw {
                rect,
                pixels: Arc::new(pixels),
            };
            // Appended behind bytes already in the buffer, as the log does.
            let mut encoded = vec![0xAB; 5];
            encode_command(&cmd, &mut encoded);
            assert_eq!(encoded[5..], reference, "{w}x{h}");
            assert_eq!(decode_command(&mut &reference[..]), Ok(cmd), "{w}x{h}");
            for cut in 0..reference.len() {
                assert_eq!(
                    decode_command(&mut &reference[..cut]),
                    Err(CodecError::UnexpectedEof),
                    "{w}x{h} cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn decode_rejects_bad_tag() {
        let mut encoded = encode_command_vec(&DisplayCommand::SolidFill {
            rect: Rect::new(0, 0, 1, 1),
            color: 7,
        });
        encoded[0] = 99;
        let mut slice = encoded.as_slice();
        assert_eq!(decode_command(&mut slice), Err(CodecError::BadTag(99)));
    }

    #[test]
    fn decode_rejects_inconsistent_raw() {
        // A raw command whose rect says 2x2 but carries 1 pixel.
        let mut out = Vec::new();
        out.put_u8(1);
        for v in [0u32, 0, 2, 2] {
            out.put_u32_le(v);
        }
        out.put_u32_le(4);
        out.put_u32_le(0xAABB);
        let mut slice = out.as_slice();
        assert!(matches!(
            decode_command(&mut slice),
            Err(CodecError::BadPayload(_))
        ));
    }

    #[test]
    fn peek_reads_what_pruning_needs() {
        let copy = DisplayCommand::CopyArea {
            src_x: 9,
            src_y: 8,
            rect: Rect::new(1, 2, 4, 3),
        };
        let raw = DisplayCommand::Raw {
            rect: Rect::new(1, 2, 3, 2),
            pixels: Arc::new((0..6).collect()),
        };
        let mut buf = encode_command_vec(&copy);
        encode_command(&raw, &mut buf);
        let first = peek_command(&buf).unwrap();
        assert_eq!(first, copy.meta());
        assert_eq!(first.reads, Some(Rect::new(9, 8, 4, 3)));
        assert!(!first.opaque);
        let second = peek_command(&buf[first.len..]).unwrap();
        assert_eq!(second, raw.meta());
        assert_eq!(first.len + second.len, buf.len());
    }

    #[test]
    fn header_sizes_cannot_overflow() {
        // A raw command over a 2^32-1 square: its pixel count times four
        // does not fit in 64 bits.
        let mut out = vec![TAG_RAW];
        for v in [0u32, 0, u32::MAX, u32::MAX, 0] {
            out.put_u32_le(v);
        }
        assert!(matches!(peek_command(&out), Err(CodecError::BadPayload(_))));
        assert!(matches!(
            decode_command(&mut out.as_slice()),
            Err(CodecError::BadPayload(_))
        ));
    }

    /// Regression: a frame 0 wide or 0 high has empty planes, so its
    /// eight-byte payload passed the length check, and applying the
    /// decoded command panicked.
    #[test]
    fn video_frames_without_pixels_are_rejected() {
        for (width, height) in [(0u32, 0u32), (0, 7), (7, 0)] {
            let mut out = vec![TAG_VIDEO];
            for v in [0u32, 0, 10, 10, 8, width, height] {
                out.put_u32_le(v);
            }
            let why = CodecError::BadPayload("video frame has no pixels");
            assert_eq!(peek_command(&out), Err(why.clone()));
            assert_eq!(decode_command(&mut out.as_slice()), Err(why));
        }
    }

    #[test]
    fn stream_of_commands_decodes_in_order() {
        let cmds = vec![
            DisplayCommand::SolidFill {
                rect: Rect::new(0, 0, 2, 2),
                color: 1,
            },
            DisplayCommand::CopyArea {
                src_x: 1,
                src_y: 1,
                rect: Rect::new(3, 3, 2, 2),
            },
            DisplayCommand::SolidFill {
                rect: Rect::new(4, 4, 1, 1),
                color: 2,
            },
        ];
        let mut buf = Vec::new();
        for c in &cmds {
            encode_command(c, &mut buf);
        }
        let mut slice = buf.as_slice();
        let mut decoded = Vec::new();
        while !slice.is_empty() {
            decoded.push(decode_command(&mut slice).unwrap());
        }
        assert_eq!(decoded, cmds);
    }
}
