//! Keyframe screenshot storage with run-length compression.
//!
//! "DejaView also periodically saves full screenshots of the display ...
//! screenshots represent self-contained independent frames from which
//! playback can start" (§4.1). Desktop content is synthetic — large
//! uniform areas — so a simple run-length encoding of identical pixels
//! compresses it well without the cost or loss of a video codec, which
//! the paper explicitly argues against. Video and photos have no runs:
//! a stretch of them is stored as a literal, its pixels as they are.

use dv_display::{CoveragePass, Framebuffer, Pixel, Screenshot, Span};
use dv_fault::{Put, Reader};

/// The widest or tallest screen a stored header may claim. Decoders
/// refuse anything larger before sizing an allocation from it.
pub const MAX_SCREEN_SIDE: u32 = 16_384;

/// The bit of a span's head that opens a literal. A head with it set
/// reads as a run longer than any screen, so a decoder that knows only
/// runs refuses a literal.
pub const LITERAL: u32 = 1 << 31;

/// The fewest pixels, each unlike the next, stored as a literal rather
/// than as runs of one. Shorter stretches stay runs, so a screen with
/// none this long encodes as it did before literals existed.
pub const MIN_LITERAL: usize = 8;

const _: () = assert!((MAX_SCREEN_SIDE as u64).pow(2) < LITERAL as u64);

/// Encodes a screenshot as `[w u32][h u32]` followed by 8-byte chunks:
/// a run `[len u32][pixel u32]` with `len < 2^31`, or a literal of `n`
/// pixels, `[2^31 | n][first pixel u32]` and the other `n - 1` pixels,
/// zero-padded to a whole chunk. A literal holds every stretch of at
/// least [`MIN_LITERAL`] pixels that each differ from the next; every
/// other pixel is in a run, as long as it can be.
pub fn encode_screenshot(shot: &Screenshot) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&shot.width.to_le_bytes());
    out.extend_from_slice(&shot.height.to_le_bytes());
    let pixels = &shot.pixels[..];
    let longest = (LITERAL - 1) as usize;
    let mut at = 0;
    while at < pixels.len() {
        let pixel = pixels[at];
        let same = pixels[at + 1..].iter().take(longest - 1);
        let run = 1 + same.take_while(|&&px| px == pixel).count();
        // Pixels from `at` on that each differ from the next: the runs
        // of one that follow, the last pixel of the screen among them.
        let singles = if run > 1 {
            0
        } else {
            let pairs = pixels[at..].windows(2).take(longest);
            let unlike = pairs.take_while(|pair| pair[0] != pair[1]).count();
            let last = usize::from(at + unlike + 1 == pixels.len());
            (unlike + last).min(longest)
        };
        if singles >= MIN_LITERAL {
            out.extend_from_slice(&(LITERAL | singles as u32).to_le_bytes());
            for px in &pixels[at..at + singles] {
                out.extend_from_slice(&px.to_le_bytes());
            }
            if singles % 2 == 0 {
                out.extend_from_slice(&[0; 4]);
            }
            at += singles;
        } else {
            out.extend_from_slice(&(run as u32).to_le_bytes());
            out.extend_from_slice(&pixel.to_le_bytes());
            at += run;
        }
    }
    out
}

/// Reads the `(width, height)` an encoded screenshot claims, without
/// looking at its runs.
pub fn screenshot_dims(data: &[u8]) -> Option<(u32, u32)> {
    let mut r = Reader::new(data);
    Some((r.u32().ok()?, r.u32().ok()?))
}

/// One chunk read as a run, `[len u32][pixel u32]`; a literal's head
/// reads as one of at least 2^31 pixels.
fn split_run(run: &[u8; 8]) -> (usize, Pixel) {
    let [l0, l1, l2, l3, p0, p1, p2, p3] = *run;
    (
        u32::from_le_bytes([l0, l1, l2, l3]) as usize,
        Pixel::from_le_bytes([p0, p1, p2, p3]),
    )
}

/// The chunks a literal of `n` pixels takes, its head's included.
fn literal_chunks(n: usize) -> usize {
    n / 2 + 1
}

/// The spans of an encoded screenshot, checked against a screen size.
#[derive(Clone, Copy, Debug)]
pub struct ScreenshotRuns<'a> {
    width: u32,
    height: u32,
    chunks: &'a [[u8; 8]],
    /// Whether any chunk opens a literal: if none does, the chunks are
    /// decoded as plain runs, with no literal arm to test.
    literals: bool,
}

impl<'a> ScreenshotRuns<'a> {
    /// Returns the spans, row-major. Their lengths add up to the
    /// screen's pixels.
    pub fn spans(&self) -> impl Iterator<Item = Span<'a>> + 'a {
        let mut chunks = self.chunks;
        std::iter::from_fn(move || {
            let (head, rest) = chunks.split_first()?;
            let (len, pixel) = split_run(head);
            if len < LITERAL as usize {
                chunks = rest;
                return Some(Span::Run(len, pixel));
            }
            let n = len - LITERAL as usize;
            let literal;
            (literal, chunks) = chunks.split_at(literal_chunks(n));
            Some(Span::Literal(
                literal.as_flattened()[4..4 + 4 * n].as_chunks().0,
            ))
        })
    }

    /// The chunks as `(length, pixel)` runs: the spans of a screenshot
    /// that holds no literal.
    fn runs(&self) -> impl Iterator<Item = (usize, Pixel)> + 'a {
        self.chunks.iter().map(split_run)
    }

    /// Decodes the spans into a screenshot of their own.
    pub fn to_screenshot(&self) -> Screenshot {
        if self.literals {
            Screenshot::from_runs(self.width, self.height, self.spans())
        } else {
            Screenshot::from_runs(self.width, self.height, self.runs())
        }
    }

    /// Decodes the spans straight into `fb` around the blocks `cover`
    /// marks ([`Framebuffer::rebase_runs`]); returns the pixels written.
    ///
    /// # Panics
    ///
    /// Panics if `fb`, `cover` or `spare` is of another size than the
    /// screen.
    pub fn write_into(
        &self,
        fb: &mut Framebuffer,
        cover: &CoveragePass,
        spare: &mut Option<Vec<Pixel>>,
    ) -> u64 {
        assert_eq!(
            (fb.width(), fb.height()),
            (self.width, self.height),
            "frame size"
        );
        if self.literals {
            fb.rebase_runs(self.spans(), cover, spare)
        } else {
            fb.rebase_runs(self.runs(), cover, spare)
        }
    }
}

/// Checks a screenshot produced by [`encode_screenshot`] against a
/// `width` x `height` screen without decoding it: its header must name
/// that size, no side may pass [`MAX_SCREEN_SIDE`], and its span
/// lengths must add up to exactly the screen's pixels, with no byte to
/// spare and a literal's padding zero, before anything is written from
/// them.
///
/// The runs are walked at a fixed stride, a chunk each: the next
/// chunk's address never waits on the last head. A literal's head stops
/// that loop as a run longer than the screen, and is checked and
/// stepped over on its own before the loop resumes.
///
/// Returns `None` if the data is malformed or of another size.
pub fn decode_screenshot_runs(data: &[u8], width: u32, height: u32) -> Option<ScreenshotRuns<'_>> {
    let mut r = Reader::new(data);
    if (r.u32().ok()?, r.u32().ok()?) != (width, height)
        || width > MAX_SCREEN_SIDE
        || height > MAX_SCREEN_SIDE
    {
        return None;
    }
    let (chunks, partial) = r.rest().as_chunks::<8>();
    if !partial.is_empty() {
        return None;
    }
    let mut left = width as usize * height as usize;
    let (mut at, mut literals) = (0, false);
    loop {
        for run in &chunks[at..] {
            // A run after the screen is full is a trailing byte.
            let len = split_run(run).0;
            if left == 0 || len > left {
                break;
            }
            left -= len;
            at += 1;
        }
        let Some(head) = chunks.get(at) else {
            break;
        };
        let n = split_run(head).0.checked_sub(LITERAL as usize)?;
        let end = at + literal_chunks(n);
        if n == 0 || n > left || end > chunks.len() {
            return None;
        }
        if n % 2 == 0 && chunks[end - 1][4..] != [0; 4] {
            return None;
        }
        (left, at, literals) = (left - n, end, true);
    }
    (left == 0).then_some(ScreenshotRuns {
        width,
        height,
        chunks,
        literals,
    })
}

/// Decodes a screenshot produced by [`encode_screenshot`].
///
/// Returns `None` if the data is malformed. The header is a claim, not
/// a size: its pixels are reserved only once the span lengths add up to
/// them.
pub fn decode_screenshot(data: &[u8]) -> Option<Screenshot> {
    let (width, height) = screenshot_dims(data)?;
    Some(decode_screenshot_runs(data, width, height)?.to_screenshot())
}

/// Append-only storage for encoded screenshots.
#[derive(Debug, Default)]
pub struct ScreenshotStore {
    data: Vec<u8>,
    count: u64,
}

impl ScreenshotStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ScreenshotStore::default()
    }

    /// Appends a screenshot, returning its byte offset.
    pub fn append(&mut self, shot: &Screenshot) -> u64 {
        self.append_encoded(&encode_screenshot(shot))
    }

    /// Appends what [`encode_screenshot`] returned for a screenshot,
    /// returning its byte offset.
    pub fn append_encoded(&mut self, encoded: &[u8]) -> u64 {
        let offset = self.data.len() as u64;
        self.data.put_bytes_u64(encoded);
        self.count += 1;
        offset
    }

    /// Returns the encoded screenshot stored at `offset`, as
    /// [`encode_screenshot`] wrote it, or `None` when a corrupt or huge
    /// offset (e.g. from a damaged timeline) or length prefix names no
    /// whole record.
    pub fn encoded_at(&self, offset: u64) -> Option<&[u8]> {
        let mut r = Reader::new(&self.data);
        r.bytes(usize::try_from(offset).ok()?).ok()?;
        r.bytes_u64().ok()
    }

    /// Loads the screenshot stored at `offset`; `None` if there is no
    /// well-formed record there.
    pub fn load(&self, offset: u64) -> Option<Screenshot> {
        decode_screenshot(self.encoded_at(offset)?)
    }

    /// Returns the number of stored screenshots.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Returns whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Returns total stored bytes.
    pub fn byte_len(&self) -> u64 {
        self.data.len() as u64
    }

    /// Returns the raw on-disk bytes of the store.
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Reconstructs a store from its on-disk bytes, validating every
    /// screenshot. Returns `None` on malformed data.
    pub fn from_bytes(data: Vec<u8>) -> Option<ScreenshotStore> {
        let mut r = Reader::new(&data);
        let mut count = 0;
        while !r.is_empty() {
            decode_screenshot(r.bytes_u64().ok()?)?;
            count += 1;
        }
        Some(ScreenshotStore { data, count })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv_display::{DisplayCommand, Rect};
    use std::sync::Arc;

    fn test_shot() -> Screenshot {
        let mut fb = Framebuffer::new(64, 48);
        fb.apply(&DisplayCommand::SolidFill {
            rect: Rect::new(0, 0, 64, 48),
            color: 7,
        });
        fb.apply(&DisplayCommand::SolidFill {
            rect: Rect::new(10, 10, 20, 20),
            color: 3,
        });
        fb.snapshot()
    }

    #[test]
    fn encode_decode_round_trip() {
        let shot = test_shot();
        let encoded = encode_screenshot(&shot);
        let decoded = decode_screenshot(&encoded).unwrap();
        assert_eq!(decoded, shot);
    }

    #[test]
    fn uniform_screens_compress_well() {
        let fb = Framebuffer::new(1024, 768);
        let shot = fb.snapshot();
        let encoded = encode_screenshot(&shot);
        // One run covers the whole screen: 8 bytes header + 8 bytes run.
        assert_eq!(encoded.len(), 16);
        assert_eq!(decode_screenshot(&encoded).unwrap(), shot);
    }

    #[test]
    fn noisy_screens_still_round_trip() {
        let pixels: Vec<u32> = (0..32 * 32)
            .map(|i| (i as u32).wrapping_mul(2_654_435_761))
            .collect();
        let shot = Screenshot {
            width: 32,
            height: 32,
            pixels: Arc::new(pixels),
        };
        assert_eq!(decode_screenshot(&encode_screenshot(&shot)).unwrap(), shot);
    }

    #[test]
    fn decode_rejects_truncation_and_trailing_garbage() {
        let encoded = encode_screenshot(&test_shot());
        assert!(decode_screenshot(&encoded[..encoded.len() - 1]).is_none());
        let mut extra = encoded.clone();
        extra.extend_from_slice(&[0; 8]);
        assert!(decode_screenshot(&extra).is_none());
        assert!(decode_screenshot(&[1, 2, 3]).is_none());
    }

    /// A header alone reserves nothing: a few bytes claiming a huge
    /// screen are refused on their run lengths before the vector exists.
    #[test]
    fn a_claim_the_runs_do_not_back_is_refused_before_reserving() {
        let mut hostile = Vec::new();
        for v in [MAX_SCREEN_SIDE, MAX_SCREEN_SIDE, MAX_SCREEN_SIDE, 7] {
            hostile.extend_from_slice(&v.to_le_bytes());
        }
        // One run of 16,384 pixels under a header claiming 16,384².
        assert!(decode_screenshot(&hostile).is_none());
        assert_eq!(
            screenshot_dims(&hostile),
            Some((MAX_SCREEN_SIDE, MAX_SCREEN_SIDE))
        );
        assert_eq!(screenshot_dims(&hostile[..7]), None);
    }

    /// The run view is checked against the record's size: a header
    /// naming another size, runs that overrun or under-fill the screen,
    /// a run past its end and a cut run are refused.
    #[test]
    fn runs_are_checked_against_the_record_size() {
        let shot = test_shot();
        let encoded = encode_screenshot(&shot);
        let runs = decode_screenshot_runs(&encoded, 64, 48).unwrap();
        assert_eq!(runs.to_screenshot(), shot);
        assert_eq!(runs.spans().map(Span::pixel_count).sum::<usize>(), 64 * 48);
        assert!(decode_screenshot_runs(&encoded, 48, 64).is_none());
        assert!(decode_screenshot_runs(&encoded, 64, 47).is_none());
        let first_run = |len: u32| {
            let mut bad = encoded.clone();
            bad[8..12].copy_from_slice(&len.to_le_bytes());
            bad
        };
        let first = u32::from_le_bytes(encoded[8..12].try_into().unwrap());
        for len in [first + 1, u32::MAX, first - 1, 0] {
            assert!(
                decode_screenshot_runs(&first_run(len), 64, 48).is_none(),
                "{len}"
            );
        }
        let mut past = encoded.clone();
        past.extend_from_slice(&[0; 8]);
        assert!(decode_screenshot_runs(&past, 64, 48).is_none());
        assert!(decode_screenshot_runs(&encoded[..encoded.len() - 3], 64, 48).is_none());
    }

    /// A literal's head is checked out of the run loop: its length must
    /// be at least one pixel and fit the screen and the stream, and the
    /// padding of an even one must be zero. Runs resume after it.
    #[test]
    fn literals_are_checked_and_stepped_over() {
        let mut pixels: Vec<Pixel> = (0..10).map(|i| 0x0100 + i).collect();
        pixels.extend([4; 6]);
        let shot = Screenshot {
            width: 8,
            height: 2,
            pixels: Arc::new(pixels),
        };
        let encoded = encode_screenshot(&shot);
        // Header, head and first pixel, nine pixels and the padding, run.
        assert_eq!(encoded.len(), 8 + 8 + 40 + 8);
        assert_eq!(encoded[8..12], (LITERAL | 10).to_le_bytes());
        let runs = decode_screenshot_runs(&encoded, 8, 2).unwrap();
        assert_eq!(runs.to_screenshot(), shot);
        let lens: Vec<usize> = runs.spans().map(Span::pixel_count).collect();
        assert_eq!(lens, [10, 6]);
        let mut fb = Framebuffer::new(8, 2);
        let mut cover = CoveragePass::default();
        cover.cover(8, 2, &[] as &[DisplayCommand], DisplayCommand::meta);
        assert_eq!(runs.write_into(&mut fb, &cover, &mut None), 16);
        assert_eq!(fb.snapshot(), shot);
        let with = |at: usize, bytes: [u8; 4]| {
            let mut bad = encoded.clone();
            bad[at..at + 4].copy_from_slice(&bytes);
            decode_screenshot_runs(&bad, 8, 2).map(|r| r.to_screenshot())
        };
        for n in [0, 9, 11, 17, LITERAL - 1] {
            assert_eq!(with(8, (LITERAL | n).to_le_bytes()), None, "{n}");
        }
        assert_eq!(with(52, [0, 0, 0, 1]), None, "padding");
        assert_eq!(with(56, 7u32.to_le_bytes()), None, "the run after");
        assert!(decode_screenshot_runs(&encoded[..56], 8, 2).is_none());
        // A literal where the screen is already full is a trailing one.
        let mut past = encode_screenshot(&Framebuffer::new(8, 2).snapshot());
        past.extend_from_slice(&(LITERAL | 1).to_le_bytes());
        past.extend_from_slice(&[0; 4]);
        assert!(decode_screenshot_runs(&past, 8, 2).is_none());
    }

    #[test]
    fn store_bytes_round_trip() {
        let mut store = ScreenshotStore::new();
        let shot = test_shot();
        let offsets: Vec<u64> = (0..3).map(|_| store.append(&shot)).collect();
        let restored = ScreenshotStore::from_bytes(store.as_bytes().to_vec()).unwrap();
        assert_eq!(restored.len(), 3);
        for off in offsets {
            assert_eq!(restored.load(off).unwrap(), shot);
        }
        assert!(ScreenshotStore::from_bytes(store.as_bytes()[..5].to_vec()).is_none());
    }

    /// A length prefix of `u64::MAX` used to overflow `start + 8 + len`
    /// in debug builds; checked arithmetic must reject it instead.
    #[test]
    fn corrupt_huge_length_prefix_is_rejected_not_overflowed() {
        let data = u64::MAX.to_le_bytes().to_vec();
        assert!(ScreenshotStore::from_bytes(data.clone()).is_none());
        let store = ScreenshotStore { data, count: 1 };
        assert!(store.load(0).is_none());
        // A huge *offset* (damaged timeline entry) is equally harmless.
        let mut good = ScreenshotStore::new();
        good.append(&test_shot());
        assert!(good.load(u64::MAX).is_none());
        assert!(good.load(u64::MAX - 4).is_none());
    }

    #[test]
    fn store_appends_and_loads_many() {
        let mut store = ScreenshotStore::new();
        let shot = test_shot();
        let offsets: Vec<u64> = (0..5).map(|_| store.append(&shot)).collect();
        assert_eq!(store.len(), 5);
        for off in offsets {
            assert_eq!(store.load(off).unwrap(), shot);
        }
        assert!(store.load(store.byte_len()).is_none());
    }
}
