//! Which parts of the screen a command run paints over.
//!
//! A seek replays the survivors of the [`OverwritePass`] over a base
//! frame: a keyframe, or the frame the engine already holds. Where the
//! first survivor to touch a block is opaque, contains the whole block
//! and nothing read the block before it, the block's final pixels do
//! not depend on the base at all, so copying it from the base is wasted
//! work. [`CoveragePass`] finds those blocks from the same
//! [`CommandMeta`] headers the overwrite pass reads, and
//! [`Framebuffer::rebase`](crate::Framebuffer::rebase) copies the rest.
//!
//! [`OverwritePass`]: crate::OverwritePass

use crate::command::CommandMeta;
use crate::rect::Rect;

/// Block width in pixels.
pub const BLOCK_W: u32 = 16;
/// Block height in pixels: one band of rows.
pub const BLOCK_H: u32 = 8;

/// The blocks of a `width` x `height` screen that a command run, oldest
/// first, paints over before anything reads them: one bit per
/// [`BLOCK_W`] x [`BLOCK_H`] block, a band of blocks in `u64` words. A
/// block on the right or bottom edge is the part of it on screen.
///
/// The pass is conservative: a block it leaves unmarked may well be
/// overwritten, but a marked block is one whose pixels no command of the
/// run depends on and whose final pixels no base can change. That rests
/// on an opaque command writing every on-screen pixel of its rectangle,
/// which holds for every command the codec admits (it refuses a `Video`
/// frame without pixels, the one command that would paint nothing).
#[derive(Clone, Debug, Default)]
pub struct CoveragePass {
    width: u32,
    height: u32,
    /// Words per band.
    words: usize,
    /// Blocks painted over, band after band.
    painted: Vec<u64>,
    /// Blocks an earlier command already read or wrote.
    touched: Vec<u64>,
}

impl CoveragePass {
    /// Marks the blocks `items` (oldest first) paint over on a
    /// `width` x `height` screen, replacing what an earlier run marked,
    /// and returns how many there are.
    pub fn cover<T>(
        &mut self,
        width: u32,
        height: u32,
        items: &[T],
        meta: impl Fn(&T) -> CommandMeta,
    ) -> usize {
        self.width = width;
        self.height = height;
        self.words = self.columns().div_ceil(64);
        let len = self.words * height.div_ceil(BLOCK_H) as usize;
        for mask in [&mut self.painted, &mut self.touched] {
            mask.clear();
            mask.resize(len, 0);
        }
        let screen = Rect::screen(width, height);
        for item in items {
            let meta = meta(item);
            // A command reads before it writes.
            if let Some(read) = meta.reads {
                self.touch(&read.intersect(&screen));
            }
            let rect = meta.rect.intersect(&screen);
            if meta.opaque {
                self.paint(&rect);
            }
            self.touch(&rect);
        }
        self.painted.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Blocks in one band.
    fn columns(&self) -> usize {
        self.width.div_ceil(BLOCK_W) as usize
    }

    /// Marks every block `rect` overlaps as touched.
    fn touch(&mut self, rect: &Rect) {
        if rect.is_empty() {
            return;
        }
        let cols = (rect.x / BLOCK_W) as usize..(rect.right() - 1) as usize / BLOCK_W as usize + 1;
        let bands = rect.y / BLOCK_H..(rect.bottom() - 1) / BLOCK_H + 1;
        for band in bands {
            let at = band as usize * self.words;
            for_bits(cols.clone(), |i, bits| self.touched[at + i] |= bits);
        }
    }

    /// Marks as painted every untouched block `rect` contains whole.
    fn paint(&mut self, rect: &Rect) {
        if rect.is_empty() {
            return;
        }
        // The first block starting at or after the edge, and the end
        // of the last block ending at or before it (the screen's edge
        // ends the partial block there).
        let first = |from: u32, side: u32| from.div_ceil(side);
        let end = |to: u32, limit: u32, side: u32| {
            if to == limit {
                limit.div_ceil(side)
            } else {
                to / side
            }
        };
        let cols = first(rect.x, BLOCK_W) as usize..end(rect.right(), self.width, BLOCK_W) as usize;
        let bands = first(rect.y, BLOCK_H)..end(rect.bottom(), self.height, BLOCK_H);
        if cols.is_empty() {
            return;
        }
        for band in bands {
            let at = band as usize * self.words;
            for_bits(cols.clone(), |i, bits| {
                self.painted[at + i] |= bits & !self.touched[at + i];
            });
        }
    }

    /// Calls `run` with each row span `[x0, x1)` of band `band` (rows
    /// `band * BLOCK_H ..`) that is not painted over, left to right.
    pub fn kept_spans(&self, band: u32, mut run: impl FnMut(u32, u32)) {
        let words = &self.painted[band as usize * self.words..][..self.words];
        let columns = self.columns();
        let mut at = 0;
        while let Some(start) = next_bit(words, at, false).filter(|&i| i < columns) {
            let end = next_bit(words, start, true).map_or(columns, |i| i.min(columns));
            run(
                start as u32 * BLOCK_W,
                (end as u32 * BLOCK_W).min(self.width),
            );
            at = end;
        }
    }

    /// Returns how many blocks the screen of the last
    /// [`CoveragePass::cover`] has.
    pub fn blocks(&self) -> usize {
        self.height.div_ceil(BLOCK_H) as usize * self.columns()
    }

    /// Returns the screen size the last [`CoveragePass::cover`] was for.
    pub fn screen(&self) -> (u32, u32) {
        (self.width, self.height)
    }
}

/// The index of the first bit at or after `from` that is set (`set`)
/// or clear (`!set`) in `words`.
fn next_bit(words: &[u64], from: usize, set: bool) -> Option<usize> {
    let word = |w: usize| if set { words[w] } else { !words[w] };
    let mut w = from / 64;
    if w == words.len() {
        return None;
    }
    let mut bits = word(w) & (u64::MAX << (from % 64));
    loop {
        if bits != 0 {
            return Some(w * 64 + bits.trailing_zeros() as usize);
        }
        w += 1;
        if w == words.len() {
            return None;
        }
        bits = word(w);
    }
}

/// Calls `f(word, bits)` for each word of a band holding blocks of
/// `cols`, with those blocks' bits set.
fn for_bits(cols: std::ops::Range<usize>, mut f: impl FnMut(usize, u64)) {
    let mut i = cols.start;
    while i < cols.end {
        let word = i / 64;
        let stop = cols.end.min((word + 1) * 64);
        let len = stop - i;
        let bits = if len == 64 {
            u64::MAX
        } else {
            ((1u64 << len) - 1) << (i % 64)
        };
        f(word, bits);
        i = stop;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::DisplayCommand;

    fn fill(x: u32, y: u32, w: u32, h: u32) -> CommandMeta {
        DisplayCommand::SolidFill {
            rect: Rect::new(x, y, w, h),
            color: 1,
        }
        .meta()
    }

    fn copy(src_x: u32, src_y: u32, rect: Rect) -> CommandMeta {
        DisplayCommand::CopyArea { src_x, src_y, rect }.meta()
    }

    fn painted(pass: &CoveragePass) -> Vec<(u32, u32)> {
        let (w, h) = pass.screen();
        let mut out = Vec::new();
        for band in 0..h.div_ceil(BLOCK_H) {
            for bx in 0..w.div_ceil(BLOCK_W) {
                let i = bx as usize;
                if pass.painted[band as usize * pass.words + i / 64] >> (i % 64) & 1 == 1 {
                    out.push((bx, band));
                }
            }
        }
        out
    }

    #[test]
    fn a_fill_paints_the_blocks_it_contains() {
        let mut pass = CoveragePass::default();
        // Columns 8..40 hold block 1 whole and half of 0 and 2.
        let n = pass.cover(64, 32, &[fill(8, 0, 32, 16)], |m| *m);
        assert_eq!((n, pass.blocks()), (2, 16));
        assert_eq!(painted(&pass), vec![(1, 0), (1, 1)]);
    }

    #[test]
    fn the_screen_edge_closes_a_partial_block() {
        let mut pass = CoveragePass::default();
        // 20 x 10: block (1, 1) is 4 x 2 pixels, all of them filled.
        pass.cover(20, 10, &[fill(16, 8, 100, 100)], |m| *m);
        assert_eq!(painted(&pass), vec![(1, 1)]);
        assert_eq!(pass.blocks(), 4);
        pass.cover(20, 10, &[fill(0, 0, 19, 10)], |m| *m);
        assert_eq!(painted(&pass), vec![(0, 0), (0, 1)]);
    }

    #[test]
    fn a_block_read_or_written_first_is_kept() {
        let mut pass = CoveragePass::default();
        let whole = fill(0, 0, 32, 8);
        // A copy reads block 0 before the fill covers it.
        pass.cover(
            32,
            8,
            &[copy(0, 0, Rect::new(100, 100, 4, 4)), whole],
            |m| *m,
        );
        assert_eq!(painted(&pass), vec![(1, 0)]);
        // A copy writes block 1 first: its source may lie off screen.
        pass.cover(32, 8, &[copy(0, 100, Rect::new(16, 0, 4, 4)), whole], |m| {
            *m
        });
        assert_eq!(painted(&pass), vec![(0, 0)]);
        // A fill covering part of block 0 first; a later fill of the
        // whole block no longer decides it.
        pass.cover(32, 8, &[fill(0, 0, 4, 4), whole], |m| *m);
        assert_eq!(painted(&pass), vec![(1, 0)]);
        // Reads and writes after the cover change nothing.
        pass.cover(32, 8, &[whole, copy(0, 0, Rect::new(16, 0, 16, 8))], |m| *m);
        assert_eq!(painted(&pass), vec![(0, 0), (1, 0)]);
    }

    #[test]
    fn spans_skip_painted_blocks_across_words() {
        let mut pass = CoveragePass::default();
        // 1100 pixels: 69 blocks, two words a band; paint blocks 2..66.
        pass.cover(1100, 8, &[fill(32, 0, 64 * 16, 8)], |m| *m);
        let mut spans = Vec::new();
        pass.kept_spans(0, |x0, x1| spans.push((x0, x1)));
        assert_eq!(spans, vec![(0, 32), (66 * 16, 1100)]);
        // 1024 pixels: one word a band, all of it painted but block 0.
        pass.cover(1024, 8, &[fill(16, 0, 1008, 8)], |m| *m);
        spans.clear();
        pass.kept_spans(0, |x0, x1| spans.push((x0, x1)));
        assert_eq!(spans, vec![(0, 16)]);
        pass.cover(1100, 8, &[], |m: &CommandMeta| *m);
        spans.clear();
        pass.kept_spans(0, |x0, x1| spans.push((x0, x1)));
        assert_eq!(spans, vec![(0, 1100)]);
    }
}
