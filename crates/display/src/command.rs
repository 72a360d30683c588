//! The display protocol command set.
//!
//! DejaView records display output as a log of THINC protocol commands
//! (§4.1). The command set mirrors THINC's: raw pixel updates,
//! screen-to-screen copies, solid and pattern fills, glyph (bitmap)
//! renders for text, and pass-through video frames in a subsampled YUV
//! format. Commands are translation-level primitives a display driver
//! produces, so "only those parts of the screen that change are recorded"
//! and each change uses the cheapest representation that describes it.

use std::sync::Arc;

use crate::rect::Rect;

/// A 32-bit XRGB pixel (`0x00RRGGBB`); the alpha byte is ignored.
pub type Pixel = u32;

/// Packs RGB components into a [`Pixel`].
#[inline]
pub const fn rgb(r: u8, g: u8, b: u8) -> Pixel {
    ((r as u32) << 16) | ((g as u32) << 8) | b as u32
}

/// An 8x8 two-color tiling pattern.
///
/// Bit `(row * 8 + col)` of `bits` selects `fg` (1) or `bg` (0) for the
/// pixel at `(col, row)` within each tile; tiles are anchored at the
/// target rectangle's origin.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Pattern {
    /// 64 pattern bits, row-major.
    pub bits: u64,
    /// Color for set bits.
    pub fg: Pixel,
    /// Color for clear bits.
    pub bg: Pixel,
}

impl Pattern {
    /// Returns the pixel the pattern produces at tile-relative `(x, y)`.
    #[inline]
    pub fn pixel_at(&self, x: u32, y: u32) -> Pixel {
        let bit = ((y % 8) * 8 + (x % 8)) as u64;
        if self.bits >> bit & 1 == 1 {
            self.fg
        } else {
            self.bg
        }
    }
}

/// A planar YUV 4:2:0 video frame, as produced by a media player's
/// overlay path and passed through by the driver without conversion.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct YuvFrame {
    /// Frame width in pixels.
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
    /// Luma plane, `width * height` bytes, row-major.
    pub y: Vec<u8>,
    /// Chroma U plane, `ceil(w/2) * ceil(h/2)` bytes.
    pub u: Vec<u8>,
    /// Chroma V plane, `ceil(w/2) * ceil(h/2)` bytes.
    pub v: Vec<u8>,
}

impl YuvFrame {
    /// Builds a frame from per-pixel luma with neutral chroma.
    ///
    /// # Panics
    ///
    /// Panics if `luma.len() != width * height`.
    pub fn from_luma(width: u32, height: u32, luma: Vec<u8>) -> Self {
        assert_eq!(luma.len(), (width * height) as usize, "luma plane size");
        let cw = width.div_ceil(2) as usize;
        let ch = height.div_ceil(2) as usize;
        YuvFrame {
            width,
            height,
            y: luma,
            u: vec![128; cw * ch],
            v: vec![128; cw * ch],
        }
    }

    /// Returns whether the frame has no pixels.
    pub fn is_empty(&self) -> bool {
        self.width == 0 || self.height == 0
    }

    /// Returns the total payload size in bytes (≈1.5 bytes per pixel).
    fn byte_len(&self) -> usize {
        self.y.len() + self.u.len() + self.v.len()
    }

    /// Converts the pixel at `(x, y)` to RGB using integer BT.601 math:
    /// the oracle the video kernel's property test checks against.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is outside the frame.
    #[cfg(test)]
    pub(crate) fn pixel_at(&self, x: u32, y: u32) -> Pixel {
        assert!(x < self.width && y < self.height, "pixel out of frame");
        let cw = self.width.div_ceil(2);
        let ci = ((y / 2) * cw + x / 2) as usize;
        yuv_to_rgb(
            self.y[(y * self.width + x) as usize],
            self.u[ci],
            self.v[ci],
        )
    }
}

/// Converts one YUV sample to RGB: integer BT.601 with limited-range
/// luma and chroma centred on 128,
///
/// ```text
/// r = (298 c            + 409 cr + 128) >> 8
/// g = (298 c - 100 cb   - 208 cr + 128) >> 8
/// b = (298 c + 516 cb            + 128) >> 8
/// ```
///
/// for `c = luma - 16`, `cb = u - 128`, `cr = v - 128`, each channel
/// clamped to `0..=255`. The multiples of 256 are taken out of the
/// shifts (`(256 a + m) >> 8 == a + (m >> 8)`), which leaves every
/// intermediate within 16 bits: a row of these converts eight pixels per
/// vector operation where 32-bit terms manage four.
#[inline]
pub(crate) fn yuv_to_rgb(luma: u8, u: u8, v: u8) -> Pixel {
    let c = luma as i16 - 16;
    let cb = u as i16 - 128;
    let cr = v as i16 - 128;
    let luma_term = 42 * c + 128; // 298 = 256 + 42
    let r = c + cr + ((luma_term + 153 * cr) >> 8); // 409 = 256 + 153
    let g = c - cr + ((luma_term - 100 * cb + 48 * cr) >> 8); // -208 = -256 + 48
    let b = c + 2 * cb + ((luma_term + 4 * cb) >> 8); // 516 = 512 + 4
    rgb(
        r.clamp(0, 255) as u8,
        g.clamp(0, 255) as u8,
        b.clamp(0, 255) as u8,
    )
}

/// One display protocol command.
///
/// Every command fully determines the pixels inside its target rectangle;
/// only [`DisplayCommand::CopyArea`] additionally *reads* the screen, which
/// matters for playback pruning (a later opaque command over the same area
/// makes earlier ones irrelevant, §4.3).
#[derive(Clone, PartialEq, Debug)]
pub enum DisplayCommand {
    /// Raw pixel data for a rectangle; the most expensive representation,
    /// used when no structured encoding applies.
    Raw {
        /// Target rectangle.
        rect: Rect,
        /// `rect.w * rect.h` pixels, row-major. Shared so the driver can
        /// duplicate a command into the viewer and record streams without
        /// copying the payload.
        pixels: Arc<Vec<Pixel>>,
    },
    /// Copies `rect`-sized screen contents from `(src_x, src_y)` to
    /// `rect`'s origin; used for scrolling.
    CopyArea {
        /// Source top-left X.
        src_x: u32,
        /// Source top-left Y.
        src_y: u32,
        /// Destination rectangle.
        rect: Rect,
    },
    /// Fills a rectangle with a single color.
    SolidFill {
        /// Target rectangle.
        rect: Rect,
        /// Fill color.
        color: Pixel,
    },
    /// Fills a rectangle with a tiled 8x8 two-color pattern.
    PatternFill {
        /// Target rectangle.
        rect: Rect,
        /// The tile.
        pattern: Pattern,
    },
    /// Renders a 1-bit-per-pixel bitmap (text glyphs) with foreground and
    /// background colors.
    Glyph {
        /// Target rectangle.
        rect: Rect,
        /// Bit `i` of the bitmap selects fg/bg for pixel `i` in row-major
        /// order; rows are padded to byte boundaries.
        bits: Arc<Vec<u8>>,
        /// Color for set bits.
        fg: Pixel,
        /// Color for clear bits.
        bg: Pixel,
    },
    /// A pass-through YUV video frame scaled to fill `rect`.
    Video {
        /// Target rectangle.
        rect: Rect,
        /// The frame; may be a different resolution than `rect` (the
        /// driver scales on application).
        frame: Arc<YuvFrame>,
    },
}

/// What overwrite pruning needs to know about a command. Everything here
/// is readable from the encoded form's fixed header (plus a copy's
/// eight-byte source) without materialising the payload — see
/// [`peek_command`](crate::codec::peek_command).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CommandMeta {
    /// The rectangle whose pixels the command determines.
    pub rect: Rect,
    /// Whether the command overwrites every pixel of `rect`
    /// ([`DisplayCommand::is_opaque`]).
    pub opaque: bool,
    /// The screen area the command reads ([`DisplayCommand::reads`]).
    pub reads: Option<Rect>,
    /// Encoded length in bytes, header included.
    pub len: usize,
}

impl DisplayCommand {
    /// Returns the command's pruning metadata.
    pub fn meta(&self) -> CommandMeta {
        CommandMeta {
            rect: self.rect(),
            opaque: self.is_opaque(),
            reads: self.reads(),
            len: self.wire_size(),
        }
    }

    /// Returns the rectangle whose pixels this command determines.
    pub fn rect(&self) -> Rect {
        match self {
            DisplayCommand::Raw { rect, .. }
            | DisplayCommand::CopyArea { rect, .. }
            | DisplayCommand::SolidFill { rect, .. }
            | DisplayCommand::PatternFill { rect, .. }
            | DisplayCommand::Glyph { rect, .. }
            | DisplayCommand::Video { rect, .. } => *rect,
        }
    }

    /// Returns whether the command deterministically overwrites every
    /// pixel of its rectangle. [`DisplayCommand::CopyArea`] does not: if
    /// its source extends past the screen edge, the clamped copy writes
    /// fewer pixels than its destination rectangle, so it must never be
    /// treated as covering earlier output.
    pub fn is_opaque(&self) -> bool {
        !matches!(self, DisplayCommand::CopyArea { .. })
    }

    /// Returns the screen area this command *reads*, if any. Only
    /// [`DisplayCommand::CopyArea`] depends on prior screen contents.
    pub fn reads(&self) -> Option<Rect> {
        match self {
            DisplayCommand::CopyArea { src_x, src_y, rect } => {
                Some(Rect::new(*src_x, *src_y, rect.w, rect.h))
            }
            _ => None,
        }
    }

    /// Returns the approximate wire size in bytes: a fixed header plus
    /// the payload. This drives the storage accounting for Figure 4.
    pub fn wire_size(&self) -> usize {
        crate::codec::HEADER_LEN + self.payload_size()
    }

    /// Returns the payload size in bytes.
    pub fn payload_size(&self) -> usize {
        match self {
            DisplayCommand::Raw { pixels, .. } => pixels.len() * 4,
            DisplayCommand::CopyArea { .. } => 8,
            DisplayCommand::SolidFill { .. } => 4,
            DisplayCommand::PatternFill { .. } => 16,
            DisplayCommand::Glyph { bits, .. } => bits.len() + 8,
            DisplayCommand::Video { frame, .. } => frame.byte_len() + 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rgb_packs_components() {
        assert_eq!(rgb(0xAB, 0xCD, 0xEF), 0x00ABCDEF);
    }

    #[test]
    fn pattern_tiles_every_8_pixels() {
        let p = Pattern {
            bits: 1, // Only (0, 0) within each tile is fg.
            fg: rgb(255, 0, 0),
            bg: rgb(0, 0, 255),
        };
        assert_eq!(p.pixel_at(0, 0), p.fg);
        assert_eq!(p.pixel_at(8, 8), p.fg);
        assert_eq!(p.pixel_at(1, 0), p.bg);
        assert_eq!(p.pixel_at(0, 1), p.bg);
    }

    #[test]
    fn yuv_frame_sizes() {
        let f = YuvFrame::from_luma(5, 3, vec![0; 15]);
        assert_eq!(f.u.len(), 3 * 2);
        assert_eq!(f.byte_len(), 15 + 12);
    }

    #[test]
    fn yuv_neutral_chroma_is_grayscale() {
        let f = YuvFrame::from_luma(2, 2, vec![16, 128, 235, 16]);
        // Y=16 with neutral chroma is black; Y=235 is white.
        assert_eq!(f.pixel_at(0, 0), rgb(0, 0, 0));
        let white = f.pixel_at(0, 1);
        assert_eq!(white, rgb(255, 255, 255));
    }

    /// The 16-bit conversion equals the 32-bit BT.601 formula it was
    /// derived from, for every sample; in a debug build this also shows
    /// that no intermediate overflows.
    #[test]
    fn yuv_to_rgb_equals_the_32_bit_formula() {
        for luma in 0..=255u8 {
            for u in 0..=255u8 {
                for v in 0..=255u8 {
                    let c = luma as i32 - 16;
                    let cb = u as i32 - 128;
                    let cr = v as i32 - 128;
                    let r = (298 * c + 409 * cr + 128) >> 8;
                    let g = (298 * c - 100 * cb - 208 * cr + 128) >> 8;
                    let b = (298 * c + 516 * cb + 128) >> 8;
                    let expected = rgb(
                        r.clamp(0, 255) as u8,
                        g.clamp(0, 255) as u8,
                        b.clamp(0, 255) as u8,
                    );
                    assert_eq!(yuv_to_rgb(luma, u, v), expected, "y {luma} u {u} v {v}");
                }
            }
        }
    }

    #[test]
    fn command_rect_and_reads() {
        let copy = DisplayCommand::CopyArea {
            src_x: 5,
            src_y: 6,
            rect: Rect::new(0, 0, 10, 4),
        };
        assert_eq!(copy.rect(), Rect::new(0, 0, 10, 4));
        assert_eq!(copy.reads(), Some(Rect::new(5, 6, 10, 4)));
        let fill = DisplayCommand::SolidFill {
            rect: Rect::new(0, 0, 3, 3),
            color: 0,
        };
        assert_eq!(fill.reads(), None);
    }

    #[test]
    fn wire_sizes_reflect_payloads() {
        let raw = DisplayCommand::Raw {
            rect: Rect::new(0, 0, 10, 10),
            pixels: Arc::new(vec![0; 100]),
        };
        let fill = DisplayCommand::SolidFill {
            rect: Rect::new(0, 0, 10, 10),
            color: 0,
        };
        // A raw update of the same rectangle costs far more than a fill.
        assert!(raw.wire_size() > 50 * fill.wire_size() / 10);
        assert_eq!(raw.payload_size(), 400);
        assert_eq!(fill.payload_size(), 4);
    }
}
