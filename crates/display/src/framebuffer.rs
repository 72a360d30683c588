//! The software framebuffer commands are applied to.

use std::sync::Arc;

use crate::command::{DisplayCommand, Pixel};
use crate::rect::Rect;

/// A full-screen pixel snapshot.
///
/// Screenshots are the self-contained keyframes of the display record
/// (§4.1): playback starts from the closest prior screenshot and replays
/// subsequent commands. The pixel buffer is shared so screenshots can be
/// cached and handed to search results without copying.
#[derive(Clone, PartialEq, Debug)]
pub struct Screenshot {
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
    /// Row-major pixel data, `width * height` entries.
    pub pixels: Arc<Vec<Pixel>>,
}

impl Screenshot {
    /// Returns a 64-bit FNV-1a hash of the pixel contents; used to decide
    /// whether "the screen has changed enough since the previous"
    /// screenshot, and by tests to compare replays.
    pub fn content_hash(&self) -> u64 {
        fnv1a(&self.pixels)
    }

    /// Returns the number of pixels that differ from `other`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn diff_pixels(&self, other: &Screenshot) -> u64 {
        assert_eq!(
            (self.width, self.height),
            (other.width, other.height),
            "screenshot dimensions differ"
        );
        self.pixels
            .iter()
            .zip(other.pixels.iter())
            .filter(|(a, b)| a != b)
            .count() as u64
    }
}

/// FNV-1a over the little-endian bytes of `pixels`.
fn fnv1a(pixels: &[Pixel]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for px in pixels {
        for b in px.to_le_bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// A `width` x `height` software framebuffer.
///
/// Both the server's virtual display driver and the stateless viewer keep
/// one; the playback engine keeps another for offscreen reconstruction.
///
/// The pixel buffer is copy-on-write: [`Framebuffer::snapshot`] and
/// [`Framebuffer::from_screenshot`] share it with the [`Screenshot`], and
/// the first [`Framebuffer::apply`] while a screenshot still holds it
/// copies the frame once. A screenshot therefore never changes after it
/// is taken, and taking one costs nothing if it is dropped before the
/// next command.
#[derive(Clone, PartialEq, Debug)]
pub struct Framebuffer {
    width: u32,
    height: u32,
    pixels: Arc<Vec<Pixel>>,
}

impl Framebuffer {
    /// Creates a black framebuffer.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "framebuffer must be non-empty");
        Framebuffer {
            width,
            height,
            pixels: Arc::new(vec![0; (width * height) as usize]),
        }
    }

    /// Reconstructs a framebuffer from a screenshot, sharing its pixels.
    pub fn from_screenshot(shot: &Screenshot) -> Self {
        Framebuffer {
            width: shot.width,
            height: shot.height,
            pixels: Arc::clone(&shot.pixels),
        }
    }

    /// Returns the width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Returns the height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Returns the full-screen rectangle.
    pub fn screen_rect(&self) -> Rect {
        Rect::screen(self.width, self.height)
    }

    /// Returns the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn pixel(&self, x: u32, y: u32) -> Pixel {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.pixels[(y * self.width + x) as usize]
    }

    /// Reads back the pixels of `rect` (clamped to the screen), row-major.
    pub fn read_rect(&self, rect: &Rect) -> Vec<Pixel> {
        read_rect(
            &self.pixels,
            self.width,
            &rect.intersect(&self.screen_rect()),
        )
    }

    /// Takes a full-screen snapshot, sharing the pixels.
    pub fn snapshot(&self) -> Screenshot {
        Screenshot {
            width: self.width,
            height: self.height,
            pixels: Arc::clone(&self.pixels),
        }
    }

    /// Returns a 64-bit hash of the current contents.
    pub fn content_hash(&self) -> u64 {
        fnv1a(&self.pixels)
    }

    /// Applies one display command, clamping it to the screen.
    pub fn apply(&mut self, cmd: &DisplayCommand) {
        let screen = self.screen_rect();
        // Nothing lands on screen: leave a shared buffer shared.
        if cmd.rect().intersect(&screen).is_empty() {
            return;
        }
        let pixels = Arc::make_mut(&mut self.pixels);
        paint(pixels, self.width, &screen, cmd);
    }
}

/// Paints `cmd` into the row-major `pixels` of a `width`-wide `screen`.
///
/// Kept apart from [`Framebuffer::apply`], like the per-kind helpers
/// below, so the pixel loops see `pixels` as a `noalias` parameter:
/// written against the `Arc::make_mut` borrow directly, the glyph loop
/// reloaded its bitmap's pointer per pixel and ran 11 % slower.
fn paint(pixels: &mut [Pixel], width: u32, screen: &Rect, cmd: &DisplayCommand) {
    match cmd {
        DisplayCommand::Raw { rect, pixels: data } => apply_raw(pixels, width, screen, rect, data),
        DisplayCommand::CopyArea { src_x, src_y, rect } => {
            apply_copy(pixels, width, screen, *src_x, *src_y, rect)
        }
        DisplayCommand::SolidFill { rect, color } => {
            let r = rect.intersect(screen);
            for y in r.y..r.bottom() {
                let start = (y * width + r.x) as usize;
                pixels[start..start + r.w as usize].fill(*color);
            }
        }
        DisplayCommand::PatternFill { rect, pattern } => {
            let r = rect.intersect(screen);
            for y in r.y..r.bottom() {
                for x in r.x..r.right() {
                    // Anchor the tile at the command rect's origin so
                    // the pattern is stable under clamping.
                    let px = pattern.pixel_at(x - rect.x, y - rect.y);
                    pixels[(y * width + x) as usize] = px;
                }
            }
        }
        DisplayCommand::Glyph { rect, bits, fg, bg } => {
            apply_glyph(pixels, width, screen, rect, bits, *fg, *bg)
        }
        DisplayCommand::Video { rect, frame } => {
            let r = rect.intersect(screen);
            if rect.is_empty() || r.is_empty() {
                return;
            }
            // Nearest-neighbour scale with precomputed column map
            // and per-row RGB conversion of only the source pixels
            // actually sampled; video is the hottest apply path.
            let col_map: Vec<u32> = (r.x..r.right())
                .map(|x| {
                    (((x - rect.x) as u64 * frame.width as u64 / rect.w as u64)
                        .min(frame.width as u64 - 1)) as u32
                })
                .collect();
            let mut cached_fy = u32::MAX;
            let mut row_rgb: Vec<Pixel> = Vec::new();
            for y in r.y..r.bottom() {
                let fy = (((y - rect.y) as u64 * frame.height as u64 / rect.h as u64)
                    .min(frame.height as u64 - 1)) as u32;
                if fy != cached_fy {
                    cached_fy = fy;
                    row_rgb.clear();
                    row_rgb.extend((0..frame.width).map(|fx| frame.pixel_at(fx, fy)));
                }
                let dst = (y * width + r.x) as usize;
                for (i, &fx) in col_map.iter().enumerate() {
                    pixels[dst + i] = row_rgb[fx as usize];
                }
            }
        }
    }
}

/// Reads the pixels of `r`, which lies within the screen, row-major.
fn read_rect(pixels: &[Pixel], width: u32, r: &Rect) -> Vec<Pixel> {
    let mut out = Vec::with_capacity(r.area() as usize);
    for y in r.y..r.bottom() {
        let start = (y * width + r.x) as usize;
        out.extend_from_slice(&pixels[start..start + r.w as usize]);
    }
    out
}

fn apply_raw(pixels: &mut [Pixel], width: u32, screen: &Rect, rect: &Rect, data: &[Pixel]) {
    let r = rect.intersect(screen);
    for y in r.y..r.bottom() {
        let src_row = (y - rect.y) as usize * rect.w as usize + (r.x - rect.x) as usize;
        let dst = (y * width + r.x) as usize;
        pixels[dst..dst + r.w as usize].copy_from_slice(&data[src_row..src_row + r.w as usize]);
    }
}

fn apply_copy(
    pixels: &mut [Pixel],
    width: u32,
    screen: &Rect,
    src_x: u32,
    src_y: u32,
    rect: &Rect,
) {
    // Read the source through a temporary buffer so overlapping
    // source/destination (scrolling) behaves like a simultaneous copy.
    let clamped_src = Rect::new(src_x, src_y, rect.w, rect.h).intersect(screen);
    if clamped_src.is_empty() {
        return;
    }
    let src = read_rect(pixels, width, &clamped_src);
    // Pixels copy position-for-position: destination offset mirrors
    // the clamped source offset.
    let dst_rect = Rect::new(
        rect.x + (clamped_src.x - src_x),
        rect.y + (clamped_src.y - src_y),
        clamped_src.w,
        clamped_src.h,
    );
    let r = dst_rect.intersect(screen);
    for y in r.y..r.bottom() {
        let src_row =
            (y - dst_rect.y) as usize * clamped_src.w as usize + (r.x - dst_rect.x) as usize;
        let dst = (y * width + r.x) as usize;
        pixels[dst..dst + r.w as usize].copy_from_slice(&src[src_row..src_row + r.w as usize]);
    }
}

fn apply_glyph(
    pixels: &mut [Pixel],
    width: u32,
    screen: &Rect,
    rect: &Rect,
    bits: &[u8],
    fg: Pixel,
    bg: Pixel,
) {
    let r = rect.intersect(screen);
    let stride = (rect.w as usize).div_ceil(8);
    for y in r.y..r.bottom() {
        let row = (y - rect.y) as usize;
        for x in r.x..r.right() {
            let col = (x - rect.x) as usize;
            let byte = bits.get(row * stride + col / 8).copied().unwrap_or(0);
            let px = if byte >> (7 - col % 8) & 1 == 1 {
                fg
            } else {
                bg
            };
            pixels[(y * width + x) as usize] = px;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{rgb, Pattern, YuvFrame};

    fn fb() -> Framebuffer {
        Framebuffer::new(16, 16)
    }

    #[test]
    fn solid_fill_clamps_to_screen() {
        let mut f = fb();
        f.apply(&DisplayCommand::SolidFill {
            rect: Rect::new(12, 12, 10, 10),
            color: rgb(1, 2, 3),
        });
        assert_eq!(f.pixel(15, 15), rgb(1, 2, 3));
        assert_eq!(f.pixel(11, 11), 0);
    }

    #[test]
    fn raw_update_writes_row_major() {
        let mut f = fb();
        let pixels: Vec<Pixel> = (0..6).collect();
        f.apply(&DisplayCommand::Raw {
            rect: Rect::new(1, 1, 3, 2),
            pixels: Arc::new(pixels),
        });
        assert_eq!(f.pixel(1, 1), 0);
        assert_eq!(f.pixel(3, 1), 2);
        assert_eq!(f.pixel(1, 2), 3);
        assert_eq!(f.pixel(3, 2), 5);
    }

    #[test]
    fn raw_update_partially_offscreen() {
        let mut f = fb();
        let pixels: Vec<Pixel> = (0..4).collect();
        f.apply(&DisplayCommand::Raw {
            rect: Rect::new(15, 15, 2, 2),
            pixels: Arc::new(pixels),
        });
        assert_eq!(f.pixel(15, 15), 0);
    }

    #[test]
    fn copy_area_moves_content() {
        let mut f = fb();
        f.apply(&DisplayCommand::SolidFill {
            rect: Rect::new(0, 0, 2, 2),
            color: 7,
        });
        f.apply(&DisplayCommand::CopyArea {
            src_x: 0,
            src_y: 0,
            rect: Rect::new(10, 10, 2, 2),
        });
        assert_eq!(f.pixel(10, 10), 7);
        assert_eq!(f.pixel(11, 11), 7);
        assert_eq!(f.pixel(0, 0), 7, "source is preserved");
    }

    #[test]
    fn overlapping_scroll_copy_is_simultaneous() {
        let mut f = fb();
        // Rows 0..4 hold their row index.
        for y in 0..4 {
            f.apply(&DisplayCommand::SolidFill {
                rect: Rect::new(0, y, 16, 1),
                color: y,
            });
        }
        // Scroll up by one: dst rows 0..3 <- src rows 1..4.
        f.apply(&DisplayCommand::CopyArea {
            src_x: 0,
            src_y: 1,
            rect: Rect::new(0, 0, 16, 3),
        });
        assert_eq!(f.pixel(0, 0), 1);
        assert_eq!(f.pixel(0, 1), 2);
        assert_eq!(f.pixel(0, 2), 3);
        assert_eq!(f.pixel(0, 3), 3, "row 3 untouched");
    }

    #[test]
    fn pattern_fill_is_anchored_at_rect_origin() {
        let mut f = fb();
        let pat = Pattern {
            bits: 0xAAAA_AAAA_AAAA_AAAA, // Alternating columns.
            fg: 1,
            bg: 2,
        };
        f.apply(&DisplayCommand::PatternFill {
            rect: Rect::new(3, 3, 8, 8),
            pattern: pat,
        });
        // Tile coordinate (0,0) -> bit 0 of 0xAA.. row = 0b10101010:
        // bit 0 is 0, so bg.
        assert_eq!(f.pixel(3, 3), 2);
        assert_eq!(f.pixel(4, 3), 1);
    }

    #[test]
    fn glyph_renders_bits() {
        let mut f = fb();
        // A 9x2 glyph needs 2 bytes per row.
        let bits = vec![0b1000_0000, 0b1000_0000, 0b0000_0001, 0b0000_0000];
        f.apply(&DisplayCommand::Glyph {
            rect: Rect::new(0, 0, 9, 2),
            bits: Arc::new(bits),
            fg: 9,
            bg: 4,
        });
        assert_eq!(f.pixel(0, 0), 9);
        assert_eq!(f.pixel(8, 0), 9);
        assert_eq!(f.pixel(1, 0), 4);
        assert_eq!(f.pixel(7, 1), 9);
        assert_eq!(f.pixel(0, 1), 4);
    }

    #[test]
    fn video_scales_frame_to_rect() {
        let mut f = fb();
        let frame = YuvFrame::from_luma(2, 2, vec![235, 16, 16, 235]);
        f.apply(&DisplayCommand::Video {
            rect: Rect::new(0, 0, 16, 16),
            frame: Arc::new(frame),
        });
        assert_eq!(f.pixel(0, 0), rgb(255, 255, 255));
        assert_eq!(f.pixel(15, 0), rgb(0, 0, 0));
        assert_eq!(f.pixel(0, 15), rgb(0, 0, 0));
        assert_eq!(f.pixel(15, 15), rgb(255, 255, 255));
    }

    #[test]
    fn snapshot_round_trips() {
        let mut f = fb();
        f.apply(&DisplayCommand::SolidFill {
            rect: Rect::new(2, 2, 5, 5),
            color: 42,
        });
        let shot = f.snapshot();
        let g = Framebuffer::from_screenshot(&shot);
        assert_eq!(f, g);
        assert_eq!(shot.content_hash(), g.content_hash());
    }

    /// Benchmark and test fingerprints are stored FNV-1a values over the
    /// little-endian pixel bytes: the hash must never drift.
    #[test]
    fn content_hash_is_pinned() {
        let mut f = Framebuffer::new(3, 2);
        f.apply(&DisplayCommand::Raw {
            rect: Rect::new(0, 0, 3, 2),
            pixels: Arc::new(vec![0x00AB_CDEF, 0, 1, 0xFFFF_FFFF, 0x0102_0304, 7]),
        });
        assert_eq!(f.content_hash(), 0xddc9_68ab_f1fd_72a0);
        assert_eq!(f.snapshot().content_hash(), 0xddc9_68ab_f1fd_72a0);
        assert_eq!(Framebuffer::new(4, 4).content_hash(), 0xb9b2_3f3a_46fd_0825);
    }

    #[test]
    fn snapshots_share_pixels_until_the_next_write() {
        let mut f = fb();
        let shot = f.snapshot();
        assert!(Arc::ptr_eq(&shot.pixels, &f.snapshot().pixels));
        // Nothing lands on screen: still shared.
        f.apply(&DisplayCommand::SolidFill {
            rect: Rect::new(16, 0, 4, 4),
            color: 1,
        });
        assert!(Arc::ptr_eq(&shot.pixels, &f.snapshot().pixels));
        f.apply(&DisplayCommand::SolidFill {
            rect: Rect::new(0, 0, 1, 1),
            color: 1,
        });
        assert_eq!(shot.pixels[0], 0, "the screenshot kept the old frame");
        assert_eq!(f.pixel(0, 0), 1);
        let g = Framebuffer::from_screenshot(&shot);
        assert!(Arc::ptr_eq(&shot.pixels, &g.snapshot().pixels));
    }

    #[test]
    fn diff_pixels_counts_changes() {
        let mut f = fb();
        let a = f.snapshot();
        f.apply(&DisplayCommand::SolidFill {
            rect: Rect::new(0, 0, 3, 1),
            color: 5,
        });
        let b = f.snapshot();
        assert_eq!(a.diff_pixels(&b), 3);
    }

    #[test]
    fn read_rect_returns_row_major_contents() {
        let mut f = fb();
        f.apply(&DisplayCommand::SolidFill {
            rect: Rect::new(1, 1, 2, 2),
            color: 3,
        });
        let data = f.read_rect(&Rect::new(0, 0, 3, 3));
        assert_eq!(data.len(), 9);
        assert_eq!(data[4], 3); // (1,1)
        assert_eq!(data[0], 0); // (0,0)
    }
}
