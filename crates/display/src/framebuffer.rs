//! The software framebuffer commands are applied to.

use std::sync::Arc;

use dv_fault::checksum::{fnv1a_update, FNV1A_BASIS};

use crate::command::{yuv_to_rgb, DisplayCommand, Pattern, Pixel, YuvFrame};
use crate::coverage::{CoveragePass, BLOCK_H};
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

/// A stretch of a screen given row-major, as a keyframe stores it: one
/// pixel repeated, or pixels given one by one as their little-endian
/// bytes. [`Screenshot::from_runs`] and [`Framebuffer::rebase_runs`]
/// take spans, or plain `(length, pixel)` runs, on which they are
/// instantiated with no literal arm to test.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Span<'a> {
    /// `length` copies of one pixel.
    Run(usize, Pixel),
    /// Pixels one by one.
    Literal(&'a [[u8; 4]]),
}

impl Span<'_> {
    /// Returns how many pixels the span covers.
    pub fn pixel_count(self) -> usize {
        match self {
            Span::Run(len, _) => len,
            Span::Literal(literal) => literal.len(),
        }
    }
}

impl From<(usize, Pixel)> for Span<'_> {
    fn from((len, pixel): (usize, Pixel)) -> Self {
        Span::Run(len, pixel)
    }
}

impl Screenshot {
    /// Builds a `width` x `height` screenshot from spans, row-major,
    /// extending its pixels span by span rather than zero-filling them
    /// first. Spans past the screen's end are cut; pixels they fall
    /// short of are black.
    pub fn from_runs<'a>(
        width: u32,
        height: u32,
        runs: impl IntoIterator<Item = impl Into<Span<'a>>>,
    ) -> Self {
        let total = width as usize * height as usize;
        let mut pixels = Vec::with_capacity(total);
        for span in runs {
            let span = span.into();
            let end = total.min(pixels.len().saturating_add(span.pixel_count()));
            match span {
                Span::Run(_, pixel) => {
                    // Sixteen at a time, as `rebase_runs` stores a run,
                    // then cut back to its end (made up to it near the
                    // screen's).
                    while pixels.len() < end && pixels.len() + 16 <= total {
                        pixels.extend_from_slice(&[pixel; 16]);
                    }
                    pixels.resize(end, pixel);
                }
                Span::Literal(literal) => {
                    let kept = &literal[..end - pixels.len()];
                    pixels.extend(kept.iter().map(|bytes| Pixel::from_le_bytes(*bytes)));
                }
            }
        }
        pixels.resize(total, 0);
        Screenshot {
            width,
            height,
            pixels: Arc::new(pixels),
        }
    }

    /// Returns a 64-bit FNV-1a hash of the pixel contents; used to decide
    /// whether "the screen has changed enough since the previous"
    /// screenshot, and by tests to compare replays.
    pub fn content_hash(&self) -> u64 {
        fnv1a(&self.pixels)
    }
}

/// FNV-1a over the little-endian bytes of `pixels`.
fn fnv1a(pixels: &[Pixel]) -> u64 {
    pixels.iter().fold(FNV1A_BASIS, |hash, px| {
        fnv1a_update(hash, &px.to_le_bytes())
    })
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
/// next command. [`Framebuffer::rebase`] brings a frame to a screenshot
/// copying only what a command run will not paint over, and
/// [`Framebuffer::rebase_runs`] to a screen given as pixel runs.
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
            pixels: Arc::new(vec![0; width as usize * height as usize]),
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
        let r = rect.intersect(&self.screen_rect());
        let mut out = Vec::with_capacity(r.area() as usize);
        for y in r.y..r.bottom() {
            let start = (y * self.width + r.x) as usize;
            out.extend_from_slice(&self.pixels[start..start + r.w as usize]);
        }
        out
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

    /// Returns whether a screenshot still holds the frame's pixels, so
    /// that the next command landing on screen copies them first.
    pub fn is_shared(&self) -> bool {
        Arc::strong_count(&self.pixels) > 1
    }

    /// Makes the frame private and equal to `base` everywhere but the
    /// blocks `cover` marks — those the commands it was run over paint
    /// over before anything reads them — and returns how many pixels
    /// it copied from `base`. Applying those commands next gives what
    /// applying them to `base` itself gives.
    ///
    /// The pixels go into the frame's own buffer when no screenshot
    /// holds it, else into `spare`, a frame handed back; a marked block
    /// keeps whatever that buffer held. With neither, the frame is left
    /// as it was and `None` returned. A screenshot never changes.
    ///
    /// # Panics
    ///
    /// Panics if `base`, `cover` or `spare` is of another size than the
    /// frame.
    pub fn rebase(
        &mut self,
        base: &Screenshot,
        cover: &CoveragePass,
        spare: &mut Option<Vec<Pixel>>,
    ) -> Option<u64> {
        let (width, height) = (self.width, self.height);
        assert_eq!((base.width, base.height), (width, height), "base size");
        assert_eq!(cover.screen(), (width, height), "coverage size");
        if Arc::get_mut(&mut self.pixels).is_none() {
            let buffer = spare.take()?;
            assert_eq!(buffer.len(), base.pixels.len(), "spare frame size");
            self.pixels = Arc::new(buffer);
        }
        let pixels = Arc::get_mut(&mut self.pixels).expect("the buffer is private");
        let mut copied = 0;
        kept_ranges(width, height, cover, |kept| {
            copied += kept.len() as u64;
            pixels[kept.clone()].copy_from_slice(&base.pixels[kept]);
        });
        Some(copied)
    }

    /// [`Framebuffer::rebase`] on a screen given as spans, row-major,
    /// whose lengths add up to the frame's pixels: a keyframe decoded
    /// straight into the frame. Returns how many pixels it wrote. With
    /// neither a private buffer nor `spare`, the spans fill a new buffer
    /// ([`Screenshot::from_runs`]). A marked block, and any pixel the
    /// spans fall short of, is left undefined.
    ///
    /// # Panics
    ///
    /// Panics if `cover` or `spare` is of another size than the frame.
    pub fn rebase_runs<'a>(
        &mut self,
        runs: impl IntoIterator<Item = impl Into<Span<'a>>>,
        cover: &CoveragePass,
        spare: &mut Option<Vec<Pixel>>,
    ) -> u64 {
        let (width, height) = (self.width, self.height);
        assert_eq!(cover.screen(), (width, height), "coverage size");
        if Arc::get_mut(&mut self.pixels).is_none() {
            let Some(buffer) = spare.take() else {
                self.pixels = Screenshot::from_runs(width, height, runs).pixels;
                return self.pixels.len() as u64;
            };
            assert_eq!(buffer.len(), self.pixels.len(), "spare frame size");
            self.pixels = Arc::new(buffer);
        }
        let pixels = Arc::get_mut(&mut self.pixels).expect("the buffer is private");
        let mut runs = runs.into_iter().map(Into::into);
        // The span last taken covers `start..end`.
        let (mut start, mut end, mut span, mut written) = (0usize, 0usize, Span::Run(0, 0), 0u64);
        kept_ranges(width, height, cover, |kept| {
            written += kept.len() as u64;
            let mut at = kept.start;
            while at < kept.end {
                while end <= at {
                    let Some(next) = runs.next() else {
                        return;
                    };
                    (start, end, span) = (end, end.saturating_add(next.pixel_count()), next);
                }
                let stop = end.min(kept.end);
                match span {
                    // Sixteen at a time beats a fill's call on the short
                    // runs of text. A store past `stop` lands where a
                    // later span writes or in a marked block.
                    Span::Run(_, pixel) if stop + 16 <= pixels.len() => {
                        while at < stop {
                            pixels[at..at + 16].fill(pixel);
                            at += 16;
                        }
                    }
                    Span::Run(_, pixel) => pixels[at..stop].fill(pixel),
                    Span::Literal(literal) => {
                        let from = &literal[at - start..];
                        for (px, bytes) in pixels[at..stop].iter_mut().zip(from) {
                            *px = Pixel::from_le_bytes(*bytes);
                        }
                    }
                }
                at = stop;
            }
        });
        written
    }

    /// Applies one display command, clamping it to the screen.
    pub fn apply(&mut self, cmd: &DisplayCommand) {
        let screen = self.screen_rect();
        // Nothing lands on screen: leave a shared buffer shared.
        if cmd.rect().intersect(&screen).is_empty() {
            return;
        }
        let pixels = Arc::make_mut(&mut self.pixels);
        paint(pixels, self.width, &screen, cmd, &cmd.rect());
    }
}

/// A replay's frame writer: applies commands as [`Framebuffer::apply`]
/// does, but scrolls a region by moving its row origin, not its rows.
///
/// A scroll is a copy straight up or down by `d` rows whose source and
/// destination lie wholly on screen and fill a region T between them,
/// with `2·d <= T.h`. The writer keeps T as a ring: logical row `y` of T
/// lives at physical row `(y + k) mod T.h`. A scroll of T adds `d` (up)
/// or `T.h - d` (down) to `k` and copies only the `d` rows the copy
/// leaves in place; a command that reads nothing and lies wholly inside
/// T, not across the seam where the physical rows wrap, is drawn at its
/// physical rows. T's rows go back in order, in one pass, before any
/// other command touches T — another region's scroll, a command partly
/// in T or across the seam, a copy reading or writing T — and when the
/// writer is finished or dropped.
///
/// Between commands the frame is out of order, so only a replay that
/// shows nobody the frames in between writes through one; the borrow
/// keeps anyone from looking. A screenshot taken before never changes.
pub struct ScrollRing<'a> {
    fb: &'a mut Framebuffer,
    /// T and its origin `k`.
    ring: Option<(Rect, u32)>,
    rows: RingRows,
    /// The rows a partial-width restore puts aside.
    aside: Vec<Pixel>,
}

/// The rows a [`ScrollRing`] wrote, beside the rows one copy per
/// command would have.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RingRows {
    /// Rows the ring wrote: those each scroll left in place, and all of
    /// T's on each restore.
    pub written: u64,
    /// Rows the scrolls it took would have moved, one copy each.
    pub per_command: u64,
}

impl<'a> ScrollRing<'a> {
    /// Starts writing into `fb`.
    pub fn new(fb: &'a mut Framebuffer) -> Self {
        ScrollRing {
            fb,
            ring: None,
            rows: RingRows::default(),
            aside: Vec::new(),
        }
    }

    /// Applies one display command, clamping it to the screen.
    pub fn apply(&mut self, cmd: &DisplayCommand) {
        let screen = self.fb.screen_rect();
        if let Some((region, d, up)) = scroll(cmd, &screen) {
            if self.ring.is_some_and(|(t, _)| t != region) {
                self.restore();
            }
            let (h, k) = (region.h, self.ring.map_or(0, |(_, k)| k));
            // Up, the bottom `d` rows stay put; down, the top `d`.
            let (kept, shift) = if up { (h - d, d) } else { (0, h - d) };
            let width = self.fb.width as usize;
            let row = |y: u32| (region.y + y) as usize * width + region.x as usize;
            let pixels = Arc::make_mut(&mut self.fb.pixels);
            for y in kept..kept + d {
                let from = row((y + k) % h);
                pixels.copy_within(from..from + region.w as usize, row((y + k + shift) % h));
            }
            self.rows.written += u64::from(d);
            self.rows.per_command += u64::from(h - d);
            self.ring = Some((region, (k + shift) % h));
            return;
        }
        if let Some((t, k)) = self.ring {
            let rect = cmd.rect();
            let reads = cmd.reads();
            if reads.is_none() && !rect.is_empty() && t.contains(&rect) {
                let top = (rect.y - t.y + k) % t.h;
                if top + rect.h <= t.h {
                    let at = Rect {
                        y: t.y + top,
                        ..rect
                    };
                    let pixels = Arc::make_mut(&mut self.fb.pixels);
                    paint(pixels, self.fb.width, &screen, cmd, &at);
                    return;
                }
            }
            if rect.overlaps(&t) || reads.is_some_and(|src| src.overlaps(&t)) {
                self.restore();
            }
        }
        self.fb.apply(cmd);
    }

    /// Puts T's rows back in order and returns what the writer wrote.
    pub fn finish(mut self) -> RingRows {
        self.restore();
        self.rows
    }

    /// Rotates T's rows left by `k`: one `rotate_left` when they are
    /// whole screen rows, else through `min(k, T.h - k)` rows set aside.
    fn restore(&mut self) {
        let Some((t, k)) = self.ring.take().filter(|&(_, k)| k != 0) else {
            return;
        };
        let (width, w, h, k) = (
            self.fb.width as usize,
            t.w as usize,
            t.h as usize,
            k as usize,
        );
        let start = t.y as usize * width + t.x as usize;
        let pixels = Arc::get_mut(&mut self.fb.pixels).expect("a scroll made the frame private");
        if w == width {
            pixels[start..start + h * width].rotate_left(k * width);
        } else {
            let row = |y: usize| start + y * width;
            let (aside, put) = if 2 * k <= h { (0..k, h - k) } else { (k..h, 0) };
            self.aside.clear();
            for y in aside {
                self.aside.extend_from_slice(&pixels[row(y)..row(y) + w]);
            }
            if 2 * k <= h {
                for y in 0..h - k {
                    pixels.copy_within(row(y + k)..row(y + k) + w, row(y));
                }
            } else {
                for y in (h - k..h).rev() {
                    pixels.copy_within(row(y + k - h)..row(y + k - h) + w, row(y));
                }
            }
            for (j, saved) in self.aside.chunks_exact(w).enumerate() {
                pixels[row(put + j)..row(put + j) + w].copy_from_slice(saved);
            }
        }
        self.rows.written += u64::from(t.h);
    }
}

impl Drop for ScrollRing<'_> {
    fn drop(&mut self) {
        self.restore();
    }
}

/// The region T a pure vertical scroll fills, how many rows `d` it
/// moves, and whether up: `cmd` copies straight up or down, source and
/// destination wholly on screen, and `2·d <= T.h`.
fn scroll(cmd: &DisplayCommand, screen: &Rect) -> Option<(Rect, u32, bool)> {
    let DisplayCommand::CopyArea { src_x, src_y, rect } = *cmd else {
        return None;
    };
    let d = src_y.abs_diff(rect.y);
    let on_screen =
        screen.contains(&Rect::new(src_x, src_y, rect.w, rect.h)) && screen.contains(&rect);
    if src_x != rect.x || d == 0 || d > rect.h || rect.is_empty() || !on_screen {
        return None;
    }
    let region = Rect::new(rect.x, src_y.min(rect.y), rect.w, rect.h + d);
    Some((region, d, src_y > rect.y))
}

/// Calls `kept` with each range of row-major pixel indices whose block
/// `cover` does not mark, in memory order. Spans that follow on from
/// each other — whole rows, band after band — come as one.
fn kept_ranges(
    width: u32,
    height: u32,
    cover: &CoveragePass,
    mut kept: impl FnMut(std::ops::Range<usize>),
) {
    let stride = width as usize;
    let mut run = 0..0;
    for y in 0..height {
        let at = y as usize * stride;
        cover.kept_spans(y / BLOCK_H, |x0, x1| {
            let (start, end) = (at + x0 as usize, at + x1 as usize);
            if start != run.end {
                kept(run.clone());
                run.start = start;
            }
            run.end = end;
        });
    }
    kept(run);
}

/// Paints `cmd` into the row-major `pixels` of a `width`-wide `screen`,
/// at `rect`: the command's own rectangle, or, for a command that reads
/// nothing, that rectangle moved by whole rows.
///
/// Kept apart from [`Framebuffer::apply`], like the per-kind helpers
/// below, so the pixel loops see `pixels` as a `noalias` parameter:
/// written against the `Arc::make_mut` borrow directly, the glyph loop
/// reloaded its bitmap's pointer per pixel and ran 11 % slower.
fn paint(pixels: &mut [Pixel], width: u32, screen: &Rect, cmd: &DisplayCommand, rect: &Rect) {
    match cmd {
        DisplayCommand::Raw { pixels: data, .. } => apply_raw(pixels, width, screen, rect, data),
        DisplayCommand::CopyArea { src_x, src_y, .. } => {
            apply_copy(pixels, width, screen, *src_x, *src_y, rect)
        }
        DisplayCommand::SolidFill { color, .. } => {
            let r = rect.intersect(screen);
            for y in r.y..r.bottom() {
                let start = (y * width + r.x) as usize;
                pixels[start..start + r.w as usize].fill(*color);
            }
        }
        DisplayCommand::PatternFill { pattern, .. } => {
            apply_pattern(pixels, width, screen, rect, pattern)
        }
        DisplayCommand::Glyph { bits, fg, bg, .. } => {
            apply_glyph(pixels, width, screen, rect, bits, *fg, *bg)
        }
        DisplayCommand::Video { frame, .. } => apply_video(pixels, width, screen, rect, frame),
    }
}

fn apply_raw(pixels: &mut [Pixel], width: u32, screen: &Rect, rect: &Rect, data: &[Pixel]) {
    let r = rect.intersect(screen);
    for y in r.y..r.bottom() {
        let src_row = (y - rect.y) as usize * rect.w as usize + (r.x - rect.x) as usize;
        let dst = (y * width + r.x) as usize;
        pixels[dst..dst + r.w as usize].copy_from_slice(&data[src_row..src_row + r.w as usize]);
    }
}

/// Copies the `rect`-sized block at `(src_x, src_y)` to `rect`, as if
/// every pixel moved at once: the part of the source on screen lands
/// position-for-position, and of that the part whose destination is on
/// screen is kept.
///
/// Each row moves once, in place. Rows go top-down when the destination
/// lies above its source and bottom-up otherwise, so a source row is
/// always read before an overlapping destination row overwrites it; a
/// row shifted along itself is one overlapping `copy_within`.
fn apply_copy(
    pixels: &mut [Pixel],
    width: u32,
    screen: &Rect,
    src_x: u32,
    src_y: u32,
    rect: &Rect,
) {
    let src = Rect::new(src_x, src_y, rect.w, rect.h).intersect(screen);
    if src.is_empty() {
        return;
    }
    // An origin pushed past `u32::MAX` is off any screen either way.
    let dst = Rect::new(
        rect.x.saturating_add(src.x - src_x),
        rect.y.saturating_add(src.y - src_y),
        src.w,
        src.h,
    );
    let r = dst.intersect(screen);
    if r.is_empty() {
        return;
    }
    let (stride, len) = (width as usize, r.w as usize);
    let from_y = src.y + (r.y - dst.y);
    let from = from_y as usize * stride + (src.x + (r.x - dst.x)) as usize;
    let to = r.y as usize * stride + r.x as usize;
    let mut move_row = |row: usize| {
        let start = from + row * stride;
        pixels.copy_within(start..start + len, to + row * stride);
    };
    if r.y < from_y {
        (0..r.h as usize).for_each(&mut move_row);
    } else {
        (0..r.h as usize).rev().for_each(&mut move_row);
    }
}

/// Tiles `pattern` over `rect`, anchored at the command rectangle's
/// origin so the pattern is stable under clamping: the eight pixels a
/// scanline repeats are expanded once, then copied along it.
fn apply_pattern(pixels: &mut [Pixel], width: u32, screen: &Rect, rect: &Rect, pattern: &Pattern) {
    let r = rect.intersect(screen);
    if r.is_empty() {
        return;
    }
    let first_col = (r.x - rect.x) % 8;
    for y in r.y..r.bottom() {
        let tile: [Pixel; 8] =
            std::array::from_fn(|i| pattern.pixel_at(first_col + i as u32, y - rect.y));
        let dst = y as usize * width as usize + r.x as usize;
        let mut chunks = pixels[dst..dst + r.w as usize].chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&tile);
        }
        let rest = chunks.into_remainder();
        rest.copy_from_slice(&tile[..rest.len()]);
    }
}

/// Scales `frame` into `rect`, nearest-neighbour: destination pixel
/// `(x, y)` shows source pixel `((x - rect.x) * frame.width / rect.w,
/// (y - rect.y) * frame.height / rect.h)`. A frame without pixels paints
/// nothing.
///
/// Video is the hottest apply path, so a source pixel is converted to
/// RGB only for a destination pixel that shows it. A destination row
/// showing the same source row as the row above is copied from there;
/// for any other, the samples its columns show are laid out plane by
/// plane and converted in one pass.
fn apply_video(pixels: &mut [Pixel], width: u32, screen: &Rect, rect: &Rect, frame: &YuvFrame) {
    let r = rect.intersect(screen);
    if r.is_empty() || frame.is_empty() {
        return;
    }
    let (fw, fh) = (frame.width as usize, frame.height as usize);
    let cw = fw.div_ceil(2);
    // Sliced once, so the row loop indexes planes of a known size.
    let y_plane = &frame.y[..fw * fh];
    let u_plane = &frame.u[..cw * fh.div_ceil(2)];
    let v_plane = &frame.v[..cw * fh.div_ceil(2)];
    // `d < dst_len` for every pixel of `r`, so the sample is in range.
    let sample = |d: u32, src_len: u32, dst_len: u32| {
        (u64::from(d) * u64::from(src_len) / u64::from(dst_len)) as usize
    };
    let first_col = (r.x - rect.x) as usize;
    let row_len = r.w as usize;
    // At 1:1 a row shows the run of columns from `first_col`; otherwise
    // the source column of each destination column.
    let unscaled = rect.w == frame.width;
    let cols: Vec<usize> = if unscaled {
        Vec::new()
    } else {
        (r.x..r.right())
            .map(|x| sample(x - rect.x, frame.width, rect.w))
            .collect()
    };
    // The luma, U and V samples of one destination row. At 1:1 the
    // chroma runs start `lead` columns early, on an even column, and
    // cover whole pairs of columns.
    let lead = first_col % 2;
    let paired = (lead + row_len).next_multiple_of(2);
    let mut samples = vec![0u8; row_len + 2 * (row_len + 2)];
    let (ys, chroma) = samples.split_at_mut(row_len);
    let (us, vs) = chroma.split_at_mut(row_len + 2);
    let mut fy_above = usize::MAX;
    for y in r.y..r.bottom() {
        let fy = sample(y - rect.y, frame.height, rect.h);
        let dst = (y * width + r.x) as usize;
        if fy == fy_above {
            let above = dst - width as usize;
            pixels.copy_within(above..above + row_len, dst);
            continue;
        }
        fy_above = fy;
        let y_row = &y_plane[fy * fw..][..fw];
        let u_row = &u_plane[fy / 2 * cw..][..cw];
        let v_row = &v_plane[fy / 2 * cw..][..cw];
        let out = &mut pixels[dst..dst + row_len];
        if unscaled {
            twice_each(&mut us[..paired], &u_row[first_col / 2..]);
            twice_each(&mut vs[..paired], &v_row[first_col / 2..]);
            convert_row(out, &y_row[first_col..], &us[lead..], &vs[lead..]);
        } else {
            for (i, &fx) in cols.iter().enumerate() {
                ys[i] = y_row[fx];
                us[i] = u_row[fx / 2];
                vs[i] = v_row[fx / 2];
            }
            convert_row(out, ys, us, vs);
        }
    }
}

/// Fills `out` (of even length) with each byte of `src` twice over: the
/// chroma samples of a run of columns that starts on an even one.
fn twice_each(out: &mut [u8], src: &[u8]) {
    for (pair, &sample) in out.chunks_exact_mut(2).zip(src) {
        pair[0] = sample;
        pair[1] = sample;
    }
}

/// Converts `out.len()` samples, taken from the front of each plane.
///
/// Never inlined: as part of [`paint`] the loop was not vectorised and
/// ran several times slower than compiled alone.
#[inline(never)]
fn convert_row(out: &mut [Pixel], ys: &[u8], us: &[u8], vs: &[u8]) {
    for (((px, &y), &u), &v) in out.iter_mut().zip(ys).zip(us).zip(vs) {
        *px = yuv_to_rgb(y, u, v);
    }
}

/// Paints a one-bit-per-pixel bitmap, most significant bit leftmost,
/// each row starting on a byte: set bits `fg`, clear bits `bg`.
///
/// A bitmap shorter than `ceil(rect.w / 8) * rect.h` bytes is not an
/// error: the rows and bytes it lacks read as zero, so they paint `bg`.
/// One byte expands into eight pixels of the clipped row at a time; the
/// pixels before the first whole byte (a clip on the left) and after
/// the last are looked up singly.
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
    if r.is_empty() {
        return;
    }
    let stride = (rect.w as usize).div_ceil(8);
    let first_col = (r.x - rect.x) as usize;
    let ink = |byte: u8, bit: usize| if byte & (0x80 >> bit) != 0 { fg } else { bg };
    for y in r.y..r.bottom() {
        let row = bits.get((y - rect.y) as usize * stride..).unwrap_or(&[]);
        let byte = |i: usize| row.get(i).copied().unwrap_or(0);
        let single = |col: usize| ink(byte(col / 8), col % 8);
        let dst = y as usize * width as usize + r.x as usize;
        let out = &mut pixels[dst..dst + r.w as usize];
        let (head, body) =
            out.split_at_mut((first_col.next_multiple_of(8) - first_col).min(r.w as usize));
        for (i, px) in head.iter_mut().enumerate() {
            *px = single(first_col + i);
        }
        let body_col = first_col + head.len();
        let mut chunks = body.chunks_exact_mut(8);
        for (i, chunk) in (&mut chunks).enumerate() {
            let byte = byte(body_col / 8 + i);
            for (bit, px) in chunk.iter_mut().enumerate() {
                *px = ink(byte, bit);
            }
        }
        let rest = chunks.into_remainder();
        let rest_col = first_col + r.w as usize - rest.len();
        for (i, px) in rest.iter_mut().enumerate() {
            *px = single(rest_col + i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{rgb, Pattern, YuvFrame};
    use proptest::prelude::*;

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

    /// Regression: a well-framed command whose `x + w` (or a copy's
    /// `src_x + w`) passes `u32::MAX` decodes fine, then overflowed in
    /// `Rect::intersect` — a panic in debug builds, a wrapped rectangle
    /// and so a wrong clip in release builds.
    #[test]
    fn decoded_commands_past_the_coordinate_space_clip() {
        use crate::codec::{decode_command, encode_command_vec};
        let decoded = |cmd: &DisplayCommand| {
            decode_command(&mut encode_command_vec(cmd).as_slice()).expect("well framed")
        };
        let mut f = fb();
        f.apply(&decoded(&DisplayCommand::SolidFill {
            rect: Rect::new(0, 0, 16, 16),
            color: 5,
        }));
        let before = f.snapshot();
        for off_screen in [
            DisplayCommand::SolidFill {
                rect: Rect::new(u32::MAX, 0, 2, 1),
                color: 9,
            },
            DisplayCommand::CopyArea {
                src_x: u32::MAX - 1,
                src_y: 0,
                rect: Rect::new(0, 0, 4, 4),
            },
            DisplayCommand::CopyArea {
                src_x: 0,
                src_y: 0,
                rect: Rect::new(u32::MAX - 1, u32::MAX, 4, 4),
            },
            DisplayCommand::Glyph {
                rect: Rect::new(3, u32::MAX - 2, 8, 8),
                bits: Arc::new(vec![0xFF; 8]),
                fg: 1,
                bg: 2,
            },
        ] {
            f.apply(&decoded(&off_screen));
            assert_eq!(f.snapshot(), before, "{off_screen:?} painted");
        }
        // Over-wide and over-tall: the part on screen is painted.
        f.apply(&decoded(&DisplayCommand::SolidFill {
            rect: Rect::new(10, 3, u32::MAX - 5, 1),
            color: 9,
        }));
        f.apply(&decoded(&DisplayCommand::CopyArea {
            src_x: 8,
            src_y: 3,
            rect: Rect::new(0, 8, u32::MAX, u32::MAX - 2),
        }));
        for x in 0..16 {
            assert_eq!(
                f.pixel(x, 3),
                if x < 10 { 5 } else { 9 },
                "fill, column {x}"
            );
            assert_eq!(
                f.pixel(x, 8),
                if (2..8).contains(&x) { 9 } else { 5 },
                "copy, column {x}"
            );
        }
        assert_eq!(f.pixel(15, 2), 5);
        assert_eq!(f.pixel(15, 4), 5);
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

    /// A frame with every plane drawn from `seed`.
    fn noise_frame(width: u32, height: u32, seed: u64) -> YuvFrame {
        let mut rng = TestRng::from_seed(seed);
        let mut plane = |len: u32| (0..len).map(|_| rng.next_u64() as u8).collect::<Vec<u8>>();
        let chroma = width.div_ceil(2) * height.div_ceil(2);
        YuvFrame {
            width,
            height,
            y: plane(width * height),
            u: plane(chroma),
            v: plane(chroma),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The video kernel shows, in every pixel of its rectangle that
        /// the clip lets through, what `YuvFrame::pixel_at` says of the
        /// source pixel nearest-neighbour scaling picks — and touches
        /// nothing else. Frames of odd and even sizes; rectangles the
        /// frame's size, a multiple, a fraction or unrelated; clips that
        /// cut the rectangle on any side, on odd and even columns.
        #[test]
        fn video_kernel_equals_per_pixel_sampling(
            frame_size in (1..=33u32, 1..=33u32),
            fit in (0..4u32, 0..4u32),
            free_size in (1..80u32, 1..80u32),
            origin in (0..40u32, 0..40u32),
            clip in (0..24u32, 0..24u32, 1..=48u32, 1..=48u32),
            seed in any::<u64>(),
        ) {
            const SIDE: u32 = 48;
            const UNTOUCHED: Pixel = 0xDEAD_BEEF;
            let fitted = |fit: u32, frame_len: u32, free: u32| match fit {
                0 => frame_len,
                1 => frame_len * 2,
                2 => frame_len.div_ceil(2),
                _ => free,
            };
            let (fw, fh) = frame_size;
            let rect = Rect::new(
                origin.0,
                origin.1,
                fitted(fit.0, fw, free_size.0),
                fitted(fit.1, fh, free_size.1),
            );
            let clip = Rect::new(clip.0, clip.1, clip.2, clip.3).intersect(&Rect::screen(SIDE, SIDE));
            let frame = noise_frame(fw, fh, seed);
            let mut pixels = vec![UNTOUCHED; (SIDE * SIDE) as usize];
            apply_video(&mut pixels, SIDE, &clip, &rect, &frame);
            let shown = rect.intersect(&clip);
            for y in 0..SIDE {
                for x in 0..SIDE {
                    let expected = if shown.contains(&Rect::new(x, y, 1, 1)) {
                        frame.pixel_at((x - rect.x) * fw / rect.w, (y - rect.y) * fh / rect.h)
                    } else {
                        UNTOUCHED
                    };
                    prop_assert_eq!(
                        pixels[(y * SIDE + x) as usize], expected,
                        "pixel ({}, {}) of {:?} clipped by {:?}", x, y, rect, clip
                    );
                }
            }
        }
    }

    /// Side of the square buffer the kernel properties paint into.
    const SIDE: u32 = 40;

    /// The loops the row kernels replaced, kept as their oracle:
    /// `CopyArea` through a copy of the source block, `Glyph` and
    /// `PatternFill` one pixel at a time.
    fn reference_paint(pixels: &mut [Pixel], width: u32, screen: &Rect, cmd: &DisplayCommand) {
        match cmd {
            DisplayCommand::CopyArea { src_x, src_y, rect } => {
                let clamped_src = Rect::new(*src_x, *src_y, rect.w, rect.h).intersect(screen);
                if clamped_src.is_empty() {
                    return;
                }
                let mut src = Vec::new();
                for y in clamped_src.y..clamped_src.bottom() {
                    let start = (y * width + clamped_src.x) as usize;
                    src.extend_from_slice(&pixels[start..start + clamped_src.w as usize]);
                }
                let dst_rect = Rect::new(
                    rect.x + (clamped_src.x - src_x),
                    rect.y + (clamped_src.y - src_y),
                    clamped_src.w,
                    clamped_src.h,
                );
                let r = dst_rect.intersect(screen);
                for y in r.y..r.bottom() {
                    let src_row = (y - dst_rect.y) as usize * clamped_src.w as usize
                        + (r.x - dst_rect.x) as usize;
                    let dst = (y * width + r.x) as usize;
                    pixels[dst..dst + r.w as usize]
                        .copy_from_slice(&src[src_row..src_row + r.w as usize]);
                }
            }
            DisplayCommand::PatternFill { rect, pattern } => {
                let r = rect.intersect(screen);
                for y in r.y..r.bottom() {
                    for x in r.x..r.right() {
                        pixels[(y * width + x) as usize] = pattern.pixel_at(x - rect.x, y - rect.y);
                    }
                }
            }
            DisplayCommand::Glyph { rect, bits, fg, bg } => {
                let r = rect.intersect(screen);
                let stride = (rect.w as usize).div_ceil(8);
                for y in r.y..r.bottom() {
                    let row = (y - rect.y) as usize;
                    for x in r.x..r.right() {
                        let col = (x - rect.x) as usize;
                        let byte = bits.get(row * stride + col / 8).copied().unwrap_or(0);
                        let set = byte >> (7 - col % 8) & 1 == 1;
                        pixels[(y * width + x) as usize] = if set { *fg } else { *bg };
                    }
                }
            }
            other => panic!("no reference loop for {other:?}"),
        }
    }

    /// Paints `cmd`, clipped by `clip`, over the same noise with the
    /// kernel and with the reference loop: `(kernel, reference)`.
    fn kernel_and_reference(
        cmd: &DisplayCommand,
        clip: (u32, u32, u32, u32),
        seed: u64,
    ) -> (Vec<Pixel>, Vec<Pixel>) {
        let clip = Rect::new(clip.0, clip.1, clip.2, clip.3).intersect(&Rect::screen(SIDE, SIDE));
        let mut rng = TestRng::from_seed(seed);
        let mut kernel: Vec<Pixel> = (0..SIDE * SIDE).map(|_| rng.next_u64() as Pixel).collect();
        let mut reference = kernel.clone();
        paint(&mut kernel, SIDE, &clip, cmd, &cmd.rect());
        reference_paint(&mut reference, SIDE, &clip, cmd);
        (kernel, reference)
    }

    /// A clip that is the whole buffer half the time, else any part.
    fn clips() -> impl Strategy<Value = (u32, u32, u32, u32)> {
        prop_oneof![
            Just((0, 0, SIDE, SIDE)),
            (0..SIDE / 2, 0..SIDE / 2, 1..=SIDE, 1..=SIDE),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// In-place row moves equal a copy through a buffer: every
        /// direction of overlap (the distance is drawn per axis from
        /// negative, zero and positive, so all nine combinations and a
        /// copy onto itself occur), one-pixel-wide, full-width and
        /// larger-than-screen blocks, and a source, a destination or
        /// both cut by any edge of the clip or lying wholly outside it.
        #[test]
        fn copy_kernel_equals_copy_through_a_buffer(
            src in (0..SIDE + 4, 0..SIDE + 4),
            distance in (0..=12u32, 0..=12u32),
            toward in (0..3u32, 0..3u32),
            size in (
                prop_oneof![Just(1), Just(SIDE), 1..SIDE + 8],
                prop_oneof![Just(1), Just(SIDE), 1..SIDE + 8],
            ),
            clip in clips(),
            seed in any::<u64>(),
        ) {
            let moved = |from: u32, by: u32, toward: u32| match toward {
                0 => from,
                1 => from.saturating_sub(by),
                _ => from + by,
            };
            let cmd = DisplayCommand::CopyArea {
                src_x: src.0,
                src_y: src.1,
                rect: Rect::new(
                    moved(src.0, distance.0, toward.0),
                    moved(src.1, distance.1, toward.1),
                    size.0,
                    size.1,
                ),
            };
            let (kernel, reference) = kernel_and_reference(&cmd, clip, seed);
            prop_assert_eq!(kernel, reference, "{:?} clipped by {:?}", cmd, clip);
        }

        /// Byte-wise expansion equals the per-pixel lookup: widths that
        /// end inside, on and past a byte, bitmaps of the full length,
        /// shorter (whole rows and part of a row missing) and empty,
        /// clips on every side, and `fg == bg`.
        #[test]
        fn glyph_kernel_equals_per_pixel_lookup(
            origin in (0..SIDE, 0..SIDE),
            size in (1..=33u32, 1..=9u32),
            kept in prop_oneof![Just(u32::MAX), 0..48u32],
            colours in prop_oneof![Just((7, 7)), (any::<u32>(), any::<u32>())],
            clip in clips(),
            seed in any::<u64>(),
        ) {
            let mut rng = TestRng::from_seed(seed ^ 0x5EED);
            let full = size.0.div_ceil(8) * size.1;
            let bits: Vec<u8> = (0..full.min(kept)).map(|_| rng.next_u64() as u8).collect();
            let cmd = DisplayCommand::Glyph {
                rect: Rect::new(origin.0, origin.1, size.0, size.1),
                bits: Arc::new(bits),
                fg: colours.0,
                bg: colours.1,
            };
            let (kernel, reference) = kernel_and_reference(&cmd, clip, seed);
            prop_assert_eq!(kernel, reference, "{:?} clipped by {:?}", cmd, clip);
        }

        /// Tiling an expanded pattern row equals `Pattern::pixel_at`
        /// per pixel: rectangles that neither start nor end on a tile
        /// boundary, clipped on every side.
        #[test]
        fn pattern_kernel_equals_per_pixel_lookup(
            origin in (0..SIDE, 0..SIDE),
            size in (1..SIDE + 8, 1..SIDE + 8),
            bits in any::<u64>(),
            clip in clips(),
            seed in any::<u64>(),
        ) {
            let cmd = DisplayCommand::PatternFill {
                rect: Rect::new(origin.0, origin.1, size.0, size.1),
                pattern: Pattern { bits, fg: 0x00FF_FFFF, bg: 0x0000_0001 },
            };
            let (kernel, reference) = kernel_and_reference(&cmd, clip, seed);
            prop_assert_eq!(kernel, reference, "{:?} clipped by {:?}", cmd, clip);
        }
    }

    /// A coordinate on an axis of `len` pixels cut in blocks of `side`:
    /// on a block edge, one pixel either side of one, or anywhere up to
    /// a little past the screen's edge.
    fn coordinate(rng: &mut TestRng, len: u32, side: u32) -> u32 {
        let edge = rng.below(u64::from(len / side + 2)) as u32 * side;
        match rng.below(4) {
            0 => edge,
            1 => edge + 1,
            2 => edge.saturating_sub(1),
            _ => rng.below(u64::from(len + 8)) as u32,
        }
    }

    /// `count` commands on a `width` x `height` screen: rectangles that
    /// straddle block edges and hang over the screen's, whole-screen
    /// fills, and copies that read anywhere, on screen or not.
    fn command_run(width: u32, height: u32, count: usize, seed: u64) -> Vec<DisplayCommand> {
        use crate::coverage::{BLOCK_H, BLOCK_W};
        let mut rng = TestRng::from_seed(seed);
        (0..count)
            .map(|_| {
                let rng = &mut rng;
                let x = coordinate(rng, width, BLOCK_W);
                let y = coordinate(rng, height, BLOCK_H);
                let w = coordinate(rng, width, BLOCK_W).max(1);
                let h = coordinate(rng, height, BLOCK_H).max(1);
                let rect = Rect::new(x, y, w, h);
                match rng.below(9) {
                    0..=1 => drawn(rng, rect, 0),
                    2 => drawn(rng, Rect::screen(width, height), 0),
                    3..=4 => DisplayCommand::CopyArea {
                        src_x: coordinate(rng, width, BLOCK_W),
                        src_y: coordinate(rng, height, BLOCK_H),
                        rect,
                    },
                    kind => drawn(rng, rect, kind - 4),
                }
            })
            .collect()
    }

    /// A command that reads nothing at `rect`: by `kind`, a fill, a
    /// pattern, raw pixels, a glyph or a video frame.
    fn drawn(rng: &mut TestRng, rect: Rect, kind: u64) -> DisplayCommand {
        let colour = rng.next_u64() as Pixel;
        match kind {
            0 => DisplayCommand::SolidFill {
                rect,
                color: colour,
            },
            1 => DisplayCommand::PatternFill {
                rect,
                pattern: Pattern {
                    bits: rng.next_u64(),
                    fg: colour,
                    bg: !colour,
                },
            },
            2 => DisplayCommand::Raw {
                rect,
                pixels: Arc::new((0..rect.area()).map(|_| rng.next_u64() as Pixel).collect()),
            },
            3 => DisplayCommand::Glyph {
                rect,
                bits: Arc::new(
                    (0..(rect.w as usize).div_ceil(8) * rect.h as usize)
                        .map(|_| rng.next_u64() as u8)
                        .collect(),
                ),
                fg: colour,
                bg: !colour,
            },
            _ => DisplayCommand::Video {
                rect,
                frame: Arc::new(noise_frame(
                    1 + rng.below(9) as u32,
                    1 + rng.below(9) as u32,
                    rng.next_u64(),
                )),
            },
        }
    }

    /// `count` commands on a `width` x `height` screen with one to three
    /// regions that scroll, full-width or not: scrolls of a region up or
    /// down by up to all but one of its rows, draws wholly inside one
    /// (across its seam or not), copies that read one, and whatever
    /// [`command_run`] makes — partly in a region, or off screen.
    fn scroll_run(width: u32, height: u32, count: usize, seed: u64) -> Vec<DisplayCommand> {
        let mut rng = TestRng::from_seed(seed);
        let within = |rng: &mut TestRng, from: u32, len: u32| {
            let at = from + rng.below(u64::from(len)) as u32;
            (at, 1 + rng.below(u64::from(from + len - at)) as u32)
        };
        let regions: Vec<Rect> = (0..1 + rng.below(3))
            .map(|_| {
                let (y, h) = within(&mut rng, 0, height);
                let (x, w) = match rng.below(2) {
                    0 => (0, width),
                    _ => within(&mut rng, 0, width),
                };
                Rect::new(x, y, w, h)
            })
            .collect();
        let mut others = command_run(width, height, count, seed ^ 0x5C20).into_iter();
        (0..count)
            .map(|_| {
                let t = regions[rng.below(regions.len() as u64) as usize];
                match rng.below(8) {
                    0..=3 if t.h > 1 => {
                        let d = 1 + rng.below(u64::from(t.h - 1)) as u32;
                        let (src_y, y) = match rng.below(2) {
                            0 => (t.y + d, t.y),
                            _ => (t.y, t.y + d),
                        };
                        DisplayCommand::CopyArea {
                            src_x: t.x,
                            src_y,
                            rect: Rect::new(t.x, y, t.w, t.h - d),
                        }
                    }
                    4..=5 => {
                        let (x, w) = within(&mut rng, t.x, t.w);
                        let (y, h) = within(&mut rng, t.y, t.h);
                        let kind = rng.below(5);
                        drawn(&mut rng, Rect::new(x, y, w, h), kind)
                    }
                    6 => DisplayCommand::CopyArea {
                        src_x: within(&mut rng, t.x, t.w).0,
                        src_y: within(&mut rng, t.y, t.h).0,
                        rect: Rect::new(
                            rng.below(u64::from(width)) as u32,
                            rng.below(u64::from(height)) as u32,
                            1 + rng.below(u64::from(width)) as u32,
                            1 + rng.below(u64::from(height)) as u32,
                        ),
                    },
                    _ => others.next().expect("one per command"),
                }
            })
            .collect()
    }

    /// A `width` x `height` buffer of noise.
    fn noise(width: u32, height: u32, seed: u64) -> Vec<Pixel> {
        let mut rng = TestRng::from_seed(seed);
        (0..width * height)
            .map(|_| rng.next_u64() as Pixel)
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Rebasing on a keyframe, then applying a run, equals applying
        /// the run to the keyframe itself (shared, so the first command
        /// copies it whole) — whether the rebase writes into the frame's
        /// own stale buffer or, because a screenshot holds the frame,
        /// into a handed-back one full of garbage. Screens of any width,
        /// most not a multiple of a block or of a word of blocks; runs
        /// that read what they later cover, and the reverse. No
        /// screenshot changes, a held frame with nothing handed back is
        /// left alone, and a run that paints nothing over leaves the
        /// whole frame to copy. Decoding the keyframe's pixel runs, or
        /// spans mixing literals of up to 40 pixels with runs, so that
        /// covered blocks cut through literals, instead writes what the
        /// copy does, into the same buffers, or into a new one when the
        /// frame is held and nothing handed back.
        #[test]
        fn rebase_then_replay_equals_replay_on_the_base(
            size in (1..=150u32, 1..=40u32),
            count in 0..20usize,
            seed in any::<u64>(),
        ) {
            let (width, height) = size;
            let run = command_run(width, height, count, seed);
            let frame = |seed: u64| Framebuffer {
                width,
                height,
                pixels: Arc::new(noise(width, height, seed)),
            };
            // Noise, with a solid corner for runs longer than one.
            let mut base = frame(seed ^ 1);
            base.apply(&DisplayCommand::SolidFill {
                rect: Rect::new(0, 0, width / 2 + 1, height / 2 + 1),
                color: 5,
            });
            let base = base.snapshot();
            let keyframe = base.pixels.as_ref().clone();
            let mut cover = CoveragePass::default();
            let painted = cover.cover(width, height, &run, DisplayCommand::meta);
            let mut oracle = Framebuffer::from_screenshot(&base);
            for cmd in &run {
                oracle.apply(cmd);
            }

            let mut own = frame(seed ^ 2);
            let restored = own.rebase(&base, &cover, &mut None).expect("a private frame");
            let whole = u64::from(width * height);
            prop_assert!(restored <= whole);
            prop_assert_eq!(painted == 0, restored == whole);

            let mut handed = frame(seed ^ 3);
            let holder = handed.snapshot();
            let held = holder.pixels.as_ref().clone();
            prop_assert_eq!(handed.rebase(&base, &cover, &mut None), None);
            prop_assert!(handed.is_shared(), "a held frame was replaced with nothing to write into");
            let mut spare = Some(noise(width, height, seed ^ 4));
            prop_assert_eq!(handed.rebase(&base, &cover, &mut spare), Some(restored));
            prop_assert!(spare.is_none(), "the handed-back frame was not used");

            // The same screen as runs, decoded straight into the frame:
            // its own buffer, a handed-back one, or — held, with nothing
            // handed back — a new one the runs fill whole.
            let mut runs: Vec<(usize, Pixel)> = Vec::new();
            for &px in base.pixels.iter() {
                match runs.last_mut() {
                    Some((len, last)) if *last == px => *len += 1,
                    _ => runs.push((1, px)),
                }
            }
            let mut decoded = frame(seed ^ 5);
            prop_assert_eq!(decoded.rebase_runs(runs.iter().copied(), &cover, &mut None), restored);
            let mut decoded_handed = frame(seed ^ 6);
            let decoded_holder = decoded_handed.snapshot();
            let mut spare = Some(noise(width, height, seed ^ 7));
            prop_assert_eq!(decoded_handed.rebase_runs(runs.iter().copied(), &cover, &mut spare), restored);
            prop_assert!(spare.is_none(), "the handed-back frame was not used");
            let mut decoded_fresh = frame(seed ^ 8);
            let fresh_holder = decoded_fresh.snapshot();
            prop_assert_eq!(decoded_fresh.rebase_runs(runs.iter().copied(), &cover, &mut None), whole);
            prop_assert!(decoded_fresh == Framebuffer::from_screenshot(&base));

            // The same screen as spans: stretches of 1 to 40 pixels, each
            // a literal or that stretch's runs.
            let bytes: Vec<[u8; 4]> = base.pixels.iter().map(|px| px.to_le_bytes()).collect();
            let mut rng = TestRng::from_seed(seed ^ 9);
            let (mut spans, mut at) = (Vec::new(), 0);
            while at < bytes.len() {
                let end = bytes.len().min(at + 1 + rng.next_u64() as usize % 40);
                if rng.next_u64().is_multiple_of(2) {
                    spans.push(Span::Literal(&bytes[at..end]));
                } else {
                    for &px in &base.pixels[at..end] {
                        match spans.last_mut() {
                            Some(Span::Run(len, last)) if *last == px => *len += 1,
                            _ => spans.push(Span::Run(1, px)),
                        }
                    }
                }
                at = end;
            }
            prop_assert!(Screenshot::from_runs(width, height, spans.iter().copied()) == base);
            let mut spanned = frame(seed ^ 10);
            prop_assert_eq!(spanned.rebase_runs(spans.iter().copied(), &cover, &mut None), restored);
            let mut spanned_handed = frame(seed ^ 11);
            let spanned_holder = spanned_handed.snapshot();
            let mut spare = Some(noise(width, height, seed ^ 12));
            prop_assert_eq!(spanned_handed.rebase_runs(spans.iter().copied(), &cover, &mut spare), restored);
            prop_assert!(spare.is_none(), "the handed-back frame was not used");
            let mut spanned_fresh = frame(seed ^ 13);
            let spanned_fresh_holder = spanned_fresh.snapshot();
            prop_assert_eq!(spanned_fresh.rebase_runs(spans.iter().copied(), &cover, &mut None), whole);
            prop_assert!(spanned_fresh == Framebuffer::from_screenshot(&base));
            for (what, fb) in [
                ("own", &mut own),
                ("handed-back", &mut handed),
                ("own, from runs", &mut decoded),
                ("handed-back, from runs", &mut decoded_handed),
                ("new, from runs", &mut decoded_fresh),
                ("own, from spans", &mut spanned),
                ("handed-back, from spans", &mut spanned_handed),
                ("new, from spans", &mut spanned_fresh),
            ] {
                prop_assert!(!fb.is_shared(), "the {} frame is shared", what);
                for cmd in &run {
                    fb.apply(cmd);
                }
                prop_assert!(
                    *fb == oracle,
                    "the {} frame differs: {}x{} after {:?}", what, width, height, run
                );
            }
            prop_assert_eq!(base.pixels.as_ref(), &keyframe);
            prop_assert_eq!(holder.pixels.as_ref(), &held);
            prop_assert_eq!(decoded_holder.pixels.as_ref(), &noise(width, height, seed ^ 6));
            prop_assert_eq!(fresh_holder.pixels.as_ref(), &noise(width, height, seed ^ 8));
            prop_assert_eq!(spanned_holder.pixels.as_ref(), &noise(width, height, seed ^ 11));
            prop_assert_eq!(spanned_fresh_holder.pixels.as_ref(), &noise(width, height, seed ^ 13));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Writing a run through a scroll ring equals applying each
        /// command to the frame, whether the writer is finished or
        /// dropped part-way, and a screenshot held from before never
        /// changes.
        #[test]
        fn scroll_ring_equals_applying_each_command(
            size in (1..=150u32, 1..=60u32),
            count in 0..48usize,
            cut in 0..48usize,
            seed in any::<u64>(),
        ) {
            let (width, height) = size;
            let run = scroll_run(width, height, count, seed);
            let start = Framebuffer {
                width,
                height,
                pixels: Arc::new(noise(width, height, seed)),
            };
            let held = start.snapshot();
            let before = held.pixels.as_ref().clone();
            let mut oracle = start.clone();
            for cmd in &run {
                oracle.apply(cmd);
            }

            let mut own = Framebuffer {
                pixels: Arc::new(before.clone()),
                ..start.clone()
            };
            let mut ring = ScrollRing::new(&mut own);
            for cmd in &run {
                ring.apply(cmd);
            }
            let rows = ring.finish();
            prop_assert!(own == oracle, "{}x{} after {:?}", width, height, run);
            let scrolls = run.iter().filter(|cmd| scroll(cmd, &start.screen_rect()).is_some());
            prop_assert_eq!(rows.per_command == 0, scrolls.count() == 0);

            let cut = cut.min(count);
            let mut shared = start.clone();
            let mut ring = ScrollRing::new(&mut shared);
            for cmd in &run[..cut] {
                ring.apply(cmd);
            }
            drop(ring);
            let mut prefix = start.clone();
            for cmd in &run[..cut] {
                prefix.apply(cmd);
            }
            prop_assert!(shared == prefix, "{}x{} after {:?}", width, height, &run[..cut]);
            prop_assert_eq!(held.pixels.as_ref(), &before);
        }
    }

    /// A ten-line terminal that scrolls a line at a time writes the
    /// line each scroll leaves in place and, once, every row to put the
    /// ring back in order.
    #[test]
    fn ring_writes_the_rows_a_scroll_leaves_in_place() {
        for width in [64, 80] {
            let mut f = Framebuffer::new(80, 80);
            let mut ring = ScrollRing::new(&mut f);
            for _ in 0..9 {
                ring.apply(&DisplayCommand::CopyArea {
                    src_x: 0,
                    src_y: 8,
                    rect: Rect::new(0, 0, width, 72),
                });
            }
            let rows = ring.finish();
            assert_eq!(
                rows,
                RingRows {
                    written: 9 * 8 + 80,
                    per_command: 9 * 72
                }
            );
        }
    }

    #[test]
    fn video_frame_without_pixels_paints_nothing() {
        for (width, height) in [(0, 0), (0, 4), (4, 0)] {
            let mut f = fb();
            let shot = f.snapshot();
            f.apply(&DisplayCommand::Video {
                rect: Rect::new(2, 2, 10, 10),
                frame: Arc::new(YuvFrame {
                    width,
                    height,
                    y: Vec::new(),
                    u: Vec::new(),
                    v: Vec::new(),
                }),
            });
            assert_eq!(f.snapshot(), shot);
        }
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
