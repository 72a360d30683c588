//! Resolution scaling of commands and screenshots.
//!
//! DejaView "can easily adjust the recording quality in terms of both the
//! resolution and frequency of display updates" (§4.1): the recorded
//! command stream can be resized independently of what the viewer shows,
//! e.g. recording at full desktop resolution while viewing on a PDA, or
//! recording at reduced resolution to save storage. Scaling is expressed
//! as a rational `num/den` so repeated scaling stays exact on rectangle
//! bookkeeping.

use std::sync::Arc;

use crate::command::{DisplayCommand, Pixel};
use crate::framebuffer::Screenshot;

/// A rational scaling factor applied to recorded output.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ScaleFactor {
    /// Numerator.
    pub num: u32,
    /// Denominator.
    pub den: u32,
}

impl ScaleFactor {
    /// The identity scale.
    pub const ONE: ScaleFactor = ScaleFactor { num: 1, den: 1 };

    /// Creates a scale factor.
    ///
    /// # Panics
    ///
    /// Panics if either component is zero.
    pub fn new(num: u32, den: u32) -> Self {
        assert!(num > 0 && den > 0, "scale factor must be positive");
        ScaleFactor { num, den }
    }

    /// Returns whether this is the identity scale.
    pub fn is_identity(&self) -> bool {
        self.num == self.den
    }

    /// Scales a single coordinate (rounding down).
    pub fn apply(&self, v: u32) -> u32 {
        (v as u64 * self.num as u64 / self.den as u64) as u32
    }
}

/// Scales a command to the recording resolution.
///
/// Raw payloads and glyph bitmaps are resampled with nearest-neighbour;
/// fills and video frames only need their rectangles adjusted (video
/// frames are scaled at application time anyway). Scaling is lossy for
/// raw content, exactly as in the paper: a record saved at reduced
/// resolution cannot recover full-resolution detail.
pub fn scale_command(cmd: &DisplayCommand, scale: ScaleFactor) -> DisplayCommand {
    if scale.is_identity() {
        return cmd.clone();
    }
    match cmd {
        DisplayCommand::Raw { rect, pixels } => {
            let out_rect = rect.scale(scale.num, scale.den);
            let data = resample_pixels(pixels, rect.w, rect.h, out_rect.w, out_rect.h);
            DisplayCommand::Raw {
                rect: out_rect,
                pixels: Arc::new(data),
            }
        }
        DisplayCommand::CopyArea { src_x, src_y, rect } => DisplayCommand::CopyArea {
            src_x: scale.apply(*src_x),
            src_y: scale.apply(*src_y),
            rect: rect.scale(scale.num, scale.den),
        },
        DisplayCommand::SolidFill { rect, color } => DisplayCommand::SolidFill {
            rect: rect.scale(scale.num, scale.den),
            color: *color,
        },
        DisplayCommand::PatternFill { rect, pattern } => DisplayCommand::PatternFill {
            rect: rect.scale(scale.num, scale.den),
            pattern: *pattern,
        },
        DisplayCommand::Glyph { rect, bits, fg, bg } => {
            let out_rect = rect.scale(scale.num, scale.den);
            let out_bits = resample_bits(bits, rect.w, rect.h, out_rect.w, out_rect.h);
            DisplayCommand::Glyph {
                rect: out_rect,
                bits: Arc::new(out_bits),
                fg: *fg,
                bg: *bg,
            }
        }
        DisplayCommand::Video { rect, frame } => DisplayCommand::Video {
            rect: rect.scale(scale.num, scale.den),
            frame: frame.clone(),
        },
    }
}

/// Scales a screenshot with nearest-neighbour resampling.
pub fn scale_screenshot(shot: &Screenshot, scale: ScaleFactor) -> Screenshot {
    if scale.is_identity() {
        return shot.clone();
    }
    let w = scale.apply(shot.width).max(1);
    let h = scale.apply(shot.height).max(1);
    let pixels = resample_pixels(&shot.pixels, shot.width, shot.height, w, h);
    Screenshot {
        width: w,
        height: h,
        pixels: Arc::new(pixels),
    }
}

/// Resamples a screenshot to an exact target geometry, independently
/// per axis (nearest-neighbour, like [`scale_screenshot`] but
/// anisotropic). This is the thumbnail path: a fixed-size thumbnail of
/// an arbitrary-aspect screen needs `w x h` exactly, not one rational
/// factor applied to both axes.
pub fn resample_screenshot(shot: &Screenshot, w: u32, h: u32) -> Screenshot {
    let w = w.max(1);
    let h = h.max(1);
    if w == shot.width && h == shot.height {
        return shot.clone();
    }
    let pixels = if shot.width == 0 || shot.height == 0 {
        vec![0; (w * h) as usize]
    } else {
        resample_pixels(&shot.pixels, shot.width, shot.height, w, h)
    };
    Screenshot {
        width: w,
        height: h,
        pixels: Arc::new(pixels),
    }
}

/// Nearest-neighbour source index of each of `dst` destination
/// positions along an axis `src` long: the one divide per position.
/// Collected once per call for the columns, walked once for the rows.
fn axis_map(src: u32, dst: u32) -> impl Iterator<Item = usize> {
    (0..u64::from(dst))
        .map(move |d| (d * u64::from(src) / u64::from(dst)).min(u64::from(src) - 1) as usize)
}

fn resample_pixels(src: &[Pixel], sw: u32, sh: u32, dw: u32, dh: u32) -> Vec<Pixel> {
    if dw == 0 || dh == 0 || sw == 0 || sh == 0 {
        return Vec::new();
    }
    let columns: Vec<usize> = axis_map(sw, dw).collect();
    let mut out = Vec::with_capacity((dw * dh) as usize);
    for sy in axis_map(sh, dh) {
        let row = &src[sy * sw as usize..][..sw as usize];
        out.extend(columns.iter().map(|&sx| row[sx]));
    }
    out
}

fn resample_bits(src: &[u8], sw: u32, sh: u32, dw: u32, dh: u32) -> Vec<u8> {
    if dw == 0 || dh == 0 || sw == 0 || sh == 0 {
        return Vec::new();
    }
    let src_stride = (sw as usize).div_ceil(8);
    let dst_stride = (dw as usize).div_ceil(8);
    let columns: Vec<usize> = axis_map(sw, dw).collect();
    let mut out = vec![0u8; dst_stride * dh as usize];
    for (sy, dst_row) in axis_map(sh, dh).zip(out.chunks_exact_mut(dst_stride)) {
        let row = &src[sy * src_stride..][..src_stride];
        for (x, &sx) in columns.iter().enumerate() {
            let bit = row[sx / 8] >> (7 - sx % 8) & 1;
            dst_row[x / 8] |= bit << (7 - x % 8);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::Pattern;
    use crate::rect::Rect;

    #[test]
    fn identity_scale_is_a_clone() {
        let cmd = DisplayCommand::SolidFill {
            rect: Rect::new(3, 3, 5, 5),
            color: 9,
        };
        assert_eq!(scale_command(&cmd, ScaleFactor::ONE), cmd);
    }

    #[test]
    fn raw_halving_quarters_payload() {
        let cmd = DisplayCommand::Raw {
            rect: Rect::new(0, 0, 8, 8),
            pixels: Arc::new((0..64).collect()),
        };
        let half = scale_command(&cmd, ScaleFactor::new(1, 2));
        match half {
            DisplayCommand::Raw { rect, pixels } => {
                assert_eq!(rect, Rect::new(0, 0, 4, 4));
                assert_eq!(pixels.len(), 16);
                // Nearest neighbour keeps the top-left sample.
                assert_eq!(pixels[0], 0);
            }
            other => panic!("expected raw, got {other:?}"),
        }
    }

    #[test]
    fn copy_scales_source_too() {
        let cmd = DisplayCommand::CopyArea {
            src_x: 10,
            src_y: 20,
            rect: Rect::new(30, 40, 8, 8),
        };
        match scale_command(&cmd, ScaleFactor::new(1, 2)) {
            DisplayCommand::CopyArea { src_x, src_y, rect } => {
                assert_eq!((src_x, src_y), (5, 10));
                assert_eq!(rect, Rect::new(15, 20, 4, 4));
            }
            other => panic!("expected copy, got {other:?}"),
        }
    }

    #[test]
    fn glyph_bits_resample() {
        let cmd = DisplayCommand::Glyph {
            rect: Rect::new(0, 0, 8, 2),
            bits: Arc::new(vec![0b1111_0000, 0b0000_1111]),
            fg: 1,
            bg: 0,
        };
        match scale_command(&cmd, ScaleFactor::new(1, 2)) {
            DisplayCommand::Glyph { rect, bits, .. } => {
                assert_eq!(rect, Rect::new(0, 0, 4, 1));
                // Left half of row 0 was set -> first two bits set.
                assert_eq!(bits[0] & 0b1100_0000, 0b1100_0000);
                assert_eq!(bits[0] & 0b0011_0000, 0);
            }
            other => panic!("expected glyph, got {other:?}"),
        }
    }

    #[test]
    fn pattern_rect_scales() {
        let cmd = DisplayCommand::PatternFill {
            rect: Rect::new(4, 4, 16, 16),
            pattern: Pattern {
                bits: 1,
                fg: 1,
                bg: 0,
            },
        };
        match scale_command(&cmd, ScaleFactor::new(3, 4)) {
            DisplayCommand::PatternFill { rect, .. } => {
                assert_eq!(rect, Rect::new(3, 3, 12, 12));
            }
            other => panic!("expected pattern, got {other:?}"),
        }
    }

    #[test]
    fn screenshot_scaling_changes_dims() {
        let shot = Screenshot {
            width: 8,
            height: 4,
            pixels: Arc::new((0..32).collect()),
        };
        let scaled = scale_screenshot(&shot, ScaleFactor::new(1, 2));
        assert_eq!((scaled.width, scaled.height), (4, 2));
        assert_eq!(scaled.pixels.len(), 8);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_rejected() {
        let _ = ScaleFactor::new(0, 2);
    }

    #[test]
    fn resample_hits_exact_target_geometry() {
        let shot = Screenshot {
            width: 10,
            height: 7,
            pixels: Arc::new((0..70).collect()),
        };
        let thumb = resample_screenshot(&shot, 4, 4);
        assert_eq!((thumb.width, thumb.height), (4, 4));
        assert_eq!(thumb.pixels.len(), 16);
        // Top-left sample survives; identity is a cheap clone.
        assert_eq!(thumb.pixels[0], 0);
        let same = resample_screenshot(&shot, 10, 7);
        assert_eq!(same, shot);
        // Upscaling a tiny screen fills the full target.
        let up = resample_screenshot(&thumb, 8, 2);
        assert_eq!(up.pixels.len(), 16);
    }

    /// The axis maps are the per-pixel formula hoisted, nothing else:
    /// every destination pixel and bit still comes from
    /// `floor(d * src / dst)` on each axis, clamped to the last source.
    #[test]
    fn resampling_matches_the_per_pixel_formula() {
        let nearest = |d: u32, src: u32, dst: u32| {
            (u64::from(d) * u64::from(src) / u64::from(dst)).min(u64::from(src) - 1) as usize
        };
        let mut rng = 0x5eed_u64;
        let mut next = move |bound: u32| {
            rng = rng
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (rng >> 33) as u32 % bound
        };
        for _ in 0..200 {
            let (sw, sh, dw, dh) = (1 + next(40), 1 + next(24), 1 + next(40), 1 + next(24));
            let pixels: Vec<Pixel> = (0..sw * sh).map(|_| next(u32::MAX)).collect();
            let got = resample_pixels(&pixels, sw, sh, dw, dh);
            let stride = (sw as usize).div_ceil(8);
            let bits: Vec<u8> = (0..stride * sh as usize).map(|_| next(256) as u8).collect();
            let got_bits = resample_bits(&bits, sw, sh, dw, dh);
            let dst_stride = (dw as usize).div_ceil(8);
            assert_eq!(got.len(), (dw * dh) as usize);
            assert_eq!(got_bits.len(), dst_stride * dh as usize);
            for y in 0..dh {
                let sy = nearest(y, sh, dh);
                for x in 0..dw {
                    let sx = nearest(x, sw, dw);
                    let at = (y * dw + x) as usize;
                    assert_eq!(
                        got[at],
                        pixels[sy * sw as usize + sx],
                        "{sw}x{sh}->{dw}x{dh}"
                    );
                    let want = bits[sy * stride + sx / 8] >> (7 - sx % 8) & 1;
                    let have =
                        got_bits[y as usize * dst_stride + x as usize / 8] >> (7 - x % 8) & 1;
                    assert_eq!(have, want, "bit {x},{y} of {sw}x{sh}->{dw}x{dh}");
                }
            }
            // Padding bits past the last column stay clear.
            if dw % 8 != 0 {
                for y in 0..dh as usize {
                    let last = got_bits[y * dst_stride + dst_stride - 1];
                    assert_eq!(last & (0xFF >> (dw % 8)), 0);
                }
            }
        }
    }
}
