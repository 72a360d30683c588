//! A built-in 8x8 cell font for glyph rendering.
//!
//! The workloads render text through the driver's glyph path the way a
//! toolkit would. A full typeface is out of scope; the font is procedural:
//! every printable ASCII character gets a deterministic, distinct 8x8
//! bitmap derived from its code point, with a real blank for space. The
//! properties the system cares about — distinct pixels per character,
//! 1 bit/pixel glyph payloads, stable output for replay comparison — all
//! hold.

/// Width of a character cell in pixels.
pub const GLYPH_WIDTH: u32 = 8;
/// Height of a character cell in pixels.
pub const GLYPH_HEIGHT: u32 = 8;

/// Returns the 8-byte (8x8, one byte per row) bitmap for `ch`.
///
/// Identical characters always map to identical bitmaps, and distinct
/// printable ASCII characters map to distinct bitmaps.
fn glyph_bitmap(ch: char) -> [u8; 8] {
    if ch == ' ' || ch == '\u{0}' {
        return [0; 8];
    }
    let code = ch as u32;
    let mut rows = [0u8; 8];
    // An 8x8 cell: solid top bar encodes "ink present"; middle rows mix
    // the code point so characters differ; bottom row leaves a baseline
    // gap, which keeps adjacent text lines visually separable.
    let mut state = code.wrapping_mul(0x9E37_79B9) | 1;
    for (i, row) in rows.iter_mut().enumerate().take(7) {
        state ^= state << 13;
        state ^= state >> 17;
        state ^= state << 5;
        *row = (state >> (i % 3 * 8)) as u8 | 0x18; // Keep a visible core stroke.
    }
    rows
}

/// Renders `text` into a row-major 1bpp bitmap of `text.len()` cells laid
/// out horizontally. Returns `(bits, width, height)` where rows are padded
/// to byte boundaries (one byte per cell column, so no padding is needed).
pub fn render_line(text: &str) -> (Vec<u8>, u32, u32) {
    let chars: Vec<char> = text.chars().collect();
    let width = chars.len() as u32 * GLYPH_WIDTH;
    let height = GLYPH_HEIGHT;
    let stride = chars.len(); // One byte per glyph column per row.
    let mut bits = vec![0u8; stride * height as usize];
    for (col, ch) in chars.iter().enumerate() {
        let glyph = glyph_bitmap(*ch);
        for (row, byte) in glyph.iter().enumerate() {
            bits[row * stride + col] = *byte;
        }
    }
    (bits, width, height)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_is_blank() {
        assert_eq!(glyph_bitmap(' '), [0; 8]);
    }

    #[test]
    fn glyphs_are_deterministic() {
        assert_eq!(glyph_bitmap('a'), glyph_bitmap('a'));
        assert_eq!(glyph_bitmap('Z'), glyph_bitmap('Z'));
    }

    #[test]
    fn printable_ascii_glyphs_are_distinct() {
        let mut seen = std::collections::HashMap::new();
        for code in 0x21u8..=0x7E {
            let ch = code as char;
            if let Some(prev) = seen.insert(glyph_bitmap(ch), ch) {
                panic!("glyph collision between {prev:?} and {ch:?}");
            }
        }
    }

    #[test]
    fn render_line_dimensions() {
        let (bits, w, h) = render_line("hello");
        assert_eq!(w, 40);
        assert_eq!(h, 8);
        assert_eq!(bits.len(), 5 * 8);
    }

    #[test]
    fn render_line_places_glyphs_by_column() {
        let (bits, _, _) = render_line("ab");
        let a = glyph_bitmap('a');
        let b = glyph_bitmap('b');
        for row in 0..8 {
            assert_eq!(bits[row * 2], a[row]);
            assert_eq!(bits[row * 2 + 1], b[row]);
        }
    }

    #[test]
    fn empty_line_renders_empty() {
        let (bits, w, h) = render_line("");
        assert!(bits.is_empty());
        assert_eq!(w, 0);
        assert_eq!(h, 8);
    }
}
