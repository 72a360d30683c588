//! Keyframe screenshot storage with run-length compression.
//!
//! "DejaView also periodically saves full screenshots of the display ...
//! screenshots represent self-contained independent frames from which
//! playback can start" (§4.1). Desktop content is synthetic — large
//! uniform areas — so a simple run-length encoding of identical pixels
//! compresses it well without the cost or loss of a video codec, which
//! the paper explicitly argues against.

use dv_display::{Pixel, Screenshot};
use dv_fault::{Put, Reader};

/// The widest or tallest screen a stored header may claim. Decoders
/// refuse anything larger before sizing an allocation from it.
pub const MAX_SCREEN_SIDE: u32 = 16_384;

/// Encodes a screenshot as `[w u32][h u32]` followed by
/// `[run_len u32][pixel u32]` pairs.
pub fn encode_screenshot(shot: &Screenshot) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&shot.width.to_le_bytes());
    out.extend_from_slice(&shot.height.to_le_bytes());
    let mut pixels = shot.pixels.iter();
    if let Some(&first) = pixels.next() {
        let mut run_pixel = first;
        let mut run_len: u32 = 1;
        for &px in pixels {
            if px == run_pixel && run_len < u32::MAX {
                run_len += 1;
            } else {
                out.extend_from_slice(&run_len.to_le_bytes());
                out.extend_from_slice(&run_pixel.to_le_bytes());
                run_pixel = px;
                run_len = 1;
            }
        }
        out.extend_from_slice(&run_len.to_le_bytes());
        out.extend_from_slice(&run_pixel.to_le_bytes());
    }
    out
}

/// Reads the `(width, height)` an encoded screenshot claims, without
/// looking at its runs.
pub fn screenshot_dims(data: &[u8]) -> Option<(u32, u32)> {
    let mut r = Reader::new(data);
    Some((r.u32().ok()?, r.u32().ok()?))
}

/// One `[run_len u32][pixel u32]` run.
fn split_run(run: &[u8; 8]) -> (usize, Pixel) {
    let [l0, l1, l2, l3, p0, p1, p2, p3] = *run;
    (
        u32::from_le_bytes([l0, l1, l2, l3]) as usize,
        Pixel::from_le_bytes([p0, p1, p2, p3]),
    )
}

/// The runs of an encoded screenshot, checked against a screen size.
#[derive(Clone, Copy, Debug)]
pub struct ScreenshotRuns<'a> {
    width: u32,
    height: u32,
    runs: &'a [[u8; 8]],
}

impl ScreenshotRuns<'_> {
    /// Returns the `(length, pixel)` runs, row-major. Their lengths add
    /// up to the screen's pixels.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Pixel)> + '_ {
        self.runs.iter().map(split_run)
    }

    /// Decodes the runs into a screenshot of their own.
    pub fn to_screenshot(&self) -> Screenshot {
        Screenshot::from_runs(self.width, self.height, self.iter())
    }
}

/// Checks a screenshot produced by [`encode_screenshot`] against a
/// `width` x `height` screen without decoding it: its header must name
/// that size and its run lengths add up to exactly the screen's pixels,
/// with no byte to spare, before anything is written from them.
///
/// Returns `None` if the data is malformed or of another size.
pub fn decode_screenshot_runs(data: &[u8], width: u32, height: u32) -> Option<ScreenshotRuns<'_>> {
    let mut r = Reader::new(data);
    if (r.u32().ok()?, r.u32().ok()?) != (width, height) {
        return None;
    }
    let (runs, partial) = r.rest().as_chunks::<8>();
    if !partial.is_empty() {
        return None;
    }
    let mut left = width as usize * height as usize;
    for run in runs {
        // A run after the screen is full is a trailing byte.
        let len = split_run(run).0;
        if left == 0 || len > left {
            return None;
        }
        left -= len;
    }
    (left == 0).then_some(ScreenshotRuns {
        width,
        height,
        runs,
    })
}

/// Decodes a screenshot produced by [`encode_screenshot`].
///
/// Returns `None` if the data is malformed. The header is a claim, not
/// a size: its pixels are reserved only once the run lengths add up to
/// them.
pub fn decode_screenshot(data: &[u8]) -> Option<Screenshot> {
    let (width, height) = screenshot_dims(data)?;
    if width > MAX_SCREEN_SIDE || height > MAX_SCREEN_SIDE {
        return None;
    }
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
    use dv_display::{DisplayCommand, Framebuffer, Rect};
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
        assert_eq!(runs.iter().map(|(len, _)| len).sum::<usize>(), 64 * 48);
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
