//! Rectangles and damage regions.
//!
//! Display commands target axis-aligned rectangles; the recorder and the
//! checkpoint policy reason about how much of the screen a batch of
//! commands touches (the policy skips checkpoints when "at most 5% of the
//! screen" changed, §5.1.3). [`Region`] maintains a set of disjoint
//! rectangles for exact coverage accounting.

/// An axis-aligned rectangle in screen coordinates.
///
/// `x`/`y` is the top-left corner; `w`/`h` are in pixels. A rectangle with
/// zero width or height is empty.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Rect {
    /// Left edge, in pixels from the screen's left.
    pub x: u32,
    /// Top edge, in pixels from the screen's top.
    pub y: u32,
    /// Width in pixels.
    pub w: u32,
    /// Height in pixels.
    pub h: u32,
}

impl Rect {
    /// Creates a rectangle from its top-left corner and size.
    pub const fn new(x: u32, y: u32, w: u32, h: u32) -> Self {
        Rect { x, y, w, h }
    }

    /// Returns the rectangle covering an entire `w` x `h` screen.
    pub const fn screen(w: u32, h: u32) -> Self {
        Rect { x: 0, y: 0, w, h }
    }

    /// Returns whether the rectangle contains no pixels.
    pub const fn is_empty(&self) -> bool {
        self.w == 0 || self.h == 0
    }

    /// Returns the number of pixels covered.
    pub const fn area(&self) -> u64 {
        self.w as u64 * self.h as u64
    }

    /// Returns the exclusive right edge, saturating at `u32::MAX`.
    ///
    /// A decoded command may carry any `x` and `w`; an edge past the
    /// coordinate space is past every screen, so saturating leaves each
    /// clip against a screen exact and nothing overflows.
    pub const fn right(&self) -> u32 {
        self.x.saturating_add(self.w)
    }

    /// Returns the exclusive bottom edge, saturating at `u32::MAX`.
    pub const fn bottom(&self) -> u32 {
        self.y.saturating_add(self.h)
    }

    /// Returns whether `other` lies entirely within `self`.
    pub fn contains(&self, other: &Rect) -> bool {
        if other.is_empty() {
            return true;
        }
        self.x <= other.x
            && self.y <= other.y
            && self.right() >= other.right()
            && self.bottom() >= other.bottom()
    }

    /// Returns the overlap of two rectangles, or an empty rectangle if
    /// they are disjoint.
    pub fn intersect(&self, other: &Rect) -> Rect {
        let x = self.x.max(other.x);
        let y = self.y.max(other.y);
        let right = self.right().min(other.right());
        let bottom = self.bottom().min(other.bottom());
        if right <= x || bottom <= y {
            Rect::default()
        } else {
            Rect::new(x, y, right - x, bottom - y)
        }
    }

    /// Returns whether the rectangles share at least one pixel.
    pub fn overlaps(&self, other: &Rect) -> bool {
        !self.intersect(other).is_empty()
    }

    /// Returns `self` minus `other` as up to four disjoint rectangles.
    fn subtract(&self, other: &Rect) -> Vec<Rect> {
        let inter = self.intersect(other);
        if inter.is_empty() {
            return if self.is_empty() { vec![] } else { vec![*self] };
        }
        if inter == *self {
            return vec![];
        }
        let mut out = Vec::with_capacity(4);
        // Band above the intersection.
        if inter.y > self.y {
            out.push(Rect::new(self.x, self.y, self.w, inter.y - self.y));
        }
        // Band below the intersection.
        if inter.bottom() < self.bottom() {
            out.push(Rect::new(
                self.x,
                inter.bottom(),
                self.w,
                self.bottom() - inter.bottom(),
            ));
        }
        // Left sliver within the intersection's vertical band.
        if inter.x > self.x {
            out.push(Rect::new(self.x, inter.y, inter.x - self.x, inter.h));
        }
        // Right sliver within the intersection's vertical band.
        if inter.right() < self.right() {
            out.push(Rect::new(
                inter.right(),
                inter.y,
                self.right() - inter.right(),
                inter.h,
            ));
        }
        out
    }

    /// Scales the rectangle by `num/den`, rounding the origin down and the
    /// far edges up so the scaled rectangle covers at least the source.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    pub fn scale(&self, num: u32, den: u32) -> Rect {
        assert!(den > 0, "scale denominator must be non-zero");
        if self.is_empty() {
            return Rect::default();
        }
        let x = self.x as u64 * num as u64 / den as u64;
        let y = self.y as u64 * num as u64 / den as u64;
        let right = (self.right() as u64 * num as u64).div_ceil(den as u64);
        let bottom = (self.bottom() as u64 * num as u64).div_ceil(den as u64);
        Rect::new(x as u32, y as u32, (right - x) as u32, (bottom - y) as u32)
    }
}

/// A set of disjoint rectangles with exact area accounting.
///
/// Insertion keeps the invariant that stored rectangles never overlap, so
/// its covered area is exact even when callers add overlapping damage.
#[derive(Clone, Debug, Default)]
pub struct Region {
    rects: Vec<Rect>,
}

impl Region {
    /// Creates an empty region.
    pub fn new() -> Self {
        Region::default()
    }

    /// Returns the exact number of pixels covered.
    pub(crate) fn area(&self) -> u64 {
        self.rects.iter().map(Rect::area).sum()
    }

    /// Adds a rectangle, splitting it around existing coverage so the
    /// disjointness invariant holds.
    pub fn add(&mut self, rect: Rect) {
        if rect.is_empty() {
            return;
        }
        let mut pending = vec![rect];
        for existing in &self.rects {
            let mut next = Vec::new();
            for piece in pending {
                next.extend(piece.subtract(existing));
            }
            pending = next;
            if pending.is_empty() {
                return;
            }
        }
        self.rects.extend(pending);
    }

    /// Removes all coverage.
    pub fn clear(&mut self) {
        self.rects.clear();
    }

    /// Returns the fraction of a `w` x `h` screen this region covers, in
    /// `[0, 1]`.
    pub fn coverage_of(&self, w: u32, h: u32) -> f64 {
        let screen = (w as u64 * h as u64) as f64;
        if screen == 0.0 {
            return 0.0;
        }
        self.area() as f64 / screen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intersect_basic() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(5, 5, 10, 10);
        assert_eq!(a.intersect(&b), Rect::new(5, 5, 5, 5));
        assert_eq!(b.intersect(&a), Rect::new(5, 5, 5, 5));
    }

    #[test]
    fn intersect_disjoint_is_empty() {
        let a = Rect::new(0, 0, 5, 5);
        let b = Rect::new(5, 0, 5, 5);
        assert!(a.intersect(&b).is_empty());
        assert!(!a.overlaps(&b));
    }

    #[test]
    fn contains_and_points() {
        let a = Rect::new(2, 2, 4, 4);
        assert!(a.contains(&Rect::new(3, 3, 2, 2)));
        assert!(!a.contains(&Rect::new(3, 3, 4, 4)));
        assert!(a.contains(&Rect::new(2, 2, 1, 1)));
        assert!(!a.contains(&Rect::new(6, 6, 1, 1)));
    }

    #[test]
    fn subtract_produces_disjoint_cover() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(3, 3, 4, 4);
        let parts = a.subtract(&b);
        let total: u64 = parts.iter().map(Rect::area).sum();
        assert_eq!(total, a.area() - b.area());
        for (i, p) in parts.iter().enumerate() {
            assert!(!p.overlaps(&b), "piece {i} overlaps the hole");
            for q in &parts[i + 1..] {
                assert!(!p.overlaps(q), "pieces overlap each other");
            }
        }
    }

    #[test]
    fn subtract_full_cover_is_empty() {
        let a = Rect::new(2, 2, 3, 3);
        assert!(a.subtract(&Rect::new(0, 0, 10, 10)).is_empty());
    }

    /// Edges past `u32::MAX` saturate: clips stay exact and nothing
    /// overflows, in debug or release.
    #[test]
    fn edges_past_the_coordinate_space_saturate() {
        let screen = Rect::screen(100, 50);
        let far = Rect::new(u32::MAX, u32::MAX - 1, 2, 7);
        assert_eq!((far.right(), far.bottom()), (u32::MAX, u32::MAX));
        assert!(far.intersect(&screen).is_empty());
        assert!(!screen.contains(&far));
        let wide = Rect::new(10, 5, u32::MAX - 5, u32::MAX);
        assert_eq!(wide.intersect(&screen), Rect::new(10, 5, 90, 45));
        assert!(wide.contains(&Rect::new(10, 5, 90, 45)));
        assert_eq!(
            screen.subtract(&wide).iter().map(Rect::area).sum::<u64>(),
            5_000 - 90 * 45
        );
    }

    #[test]
    fn scale_covers_source() {
        let r = Rect::new(3, 5, 7, 9);
        let half = r.scale(1, 2);
        assert_eq!(half, Rect::new(1, 2, 4, 5));
        let same = r.scale(4, 4);
        assert_eq!(same, r);
    }

    #[test]
    fn region_area_ignores_overlap() {
        let mut region = Region::new();
        region.add(Rect::new(0, 0, 10, 10));
        region.add(Rect::new(5, 5, 10, 10));
        assert_eq!(region.area(), 100 + 100 - 25);
    }

    #[test]
    fn region_coverage_fraction() {
        let mut region = Region::new();
        region.add(Rect::new(0, 0, 10, 10));
        let cov = region.coverage_of(100, 10);
        assert!((cov - 0.1).abs() < 1e-9);
    }

    #[test]
    fn region_duplicate_add_is_idempotent() {
        let mut region = Region::new();
        region.add(Rect::new(1, 1, 4, 4));
        region.add(Rect::new(1, 1, 4, 4));
        assert_eq!(region.area(), 16);
    }
}
