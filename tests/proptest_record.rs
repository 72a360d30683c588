//! Property tests for the sealed-segment record formats and the
//! visual-recall fingerprint (§4.4 recall by appearance).
//!
//! Three families of invariants:
//!
//! - **Corruption is caught**: any changed byte of a sealed segment is
//!   refused by its frame. (That every decoder survives hostile bytes
//!   is `tests/decoders.rs`'s table.)
//! - **Round trips**: what a seal writes is what recovery decodes,
//!   for arbitrary instances, manifests, and screenshot geometries.
//! - **Keyframe spans**: a stream the runs-only encoder wrote still
//!   decodes; a screen with no stretch of [`MIN_LITERAL`] pixels that
//!   each differ from the next encodes to exactly those bytes; no
//!   screen encodes larger; and a decoder that knows only runs refuses
//!   a literal.
//! - **Fingerprint geometry**: the properties the dHash-style
//!   fingerprint must hold for near-duplicate coalescing and
//!   band-index search to be meaningful — determinism, symmetry,
//!   brightness invariance, a bounded blast radius for single-pixel
//!   edits, and separation of unrelated scenes.
//!
//! Deterministic by the harness's fixed base seed; replay one case
//! with `PROPTEST_RNG_SEED=<seed> PROPTEST_CASES=1`.

use std::sync::Arc;

use proptest::prelude::*;

use dv_display::Screenshot;
use dv_fault::FaultPlane;
use dv_lsfs::sealed::{decode_manifest, encode_manifest, frame};
use dv_lsfs::{Lifecycle, Manifest, Payload, SealedLog, SegmentMeta, SharedBlobStore};
use dv_obs::Obs;
use dv_record::{
    decode_screenshot, decode_screenshot_runs, encode_screenshot, LITERAL, MAX_SCREEN_SIDE,
    MIN_LITERAL,
};
use dv_time::Timestamp;
use dv_vidx::{Fingerprint, Strips, VidxEngine, VisualInstance, VisualStrip, EXACT_RADIUS};

/// Builds a `w x h` screenshot from a pixel pool, cycling when the
/// pool is shorter than the screen.
fn shot_from_pool(w: u32, h: u32, pool: &[u32]) -> Screenshot {
    let n = (w * h) as usize;
    let pixels = (0..n).map(|i| pool[i % pool.len()]).collect();
    Screenshot {
        width: w,
        height: h,
        pixels: Arc::new(pixels),
    }
}

/// The bench's full-coverage mosaic, shrunk to a helper: every
/// fingerprint grid row sees pseudo-random tile content derived from
/// `seed`. Used here as a realistic thumbnail payload.
fn mosaic(seed: u64) -> Screenshot {
    let (w, h) = (64u32, 48u32);
    let pixels = (0..h)
        .flat_map(|y| {
            (0..w).map(move |x| {
                let (tx, ty) = (x / 8, y / 8);
                let hash = seed
                    .wrapping_add(((ty as u64) << 32) | tx as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15);
                ((hash >> 40) & 0x00FF_FFFF) as u32
            })
        })
        .collect();
    Screenshot {
        width: w,
        height: h,
        pixels: Arc::new(pixels),
    }
}

/// One pixel per fingerprint grid cell (17x16): every gradient bit
/// sees independent content. Flat-tiled screens like [`mosaic`] carry
/// far fewer informative bits (tile interiors have zero gradient), so
/// the separation property is stated in the full-entropy regime.
fn noise_screen(seed: u64) -> Screenshot {
    let (w, h) = (17u32, 16u32);
    let pixels = (0..h)
        .flat_map(|y| {
            (0..w).map(move |x| {
                let hash = seed
                    .wrapping_add(((y as u64) << 32) | x as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15);
                ((hash >> 40) & 0x00FF_FFFF) as u32
            })
        })
        .collect();
    Screenshot {
        width: w,
        height: h,
        pixels: Arc::new(pixels),
    }
}

fn strip_engine(store: &SharedBlobStore) -> VidxEngine {
    let (plane, obs) = (FaultPlane::disabled(), Obs::disabled());
    VidxEngine::new(store.clone(), plane, obs, Default::default())
}

/// Stores `blob` as segment 0 and as the manifest of checkpoint 1 of
/// `log`'s index, then reads both back the way a query and a recovery
/// do. Errors are fine; panics are not.
fn read_back<P: Payload>(store: &SharedBlobStore, log: &SealedLog<P>, blob: &[u8]) -> bool {
    let stem = log.names().stem;
    for name in [format!("{stem}seg-00000000"), format!("{stem}man-00000001")] {
        store
            .lock()
            .put(&name, blob.to_vec())
            .expect("in-memory put");
    }
    let _ = log.manifest_at_or_before(1);
    let _ = log.recover_latest();
    log.segment(0).is_ok()
}

fn valid_segment_bytes() -> Vec<u8> {
    let strip = VisualStrip::from_instances(vec![VisualInstance {
        id: 7,
        fp: Fingerprint([1, 2, 3, 4]),
        first: Timestamp::from_millis(10),
        last: Timestamp::from_millis(30),
        frames: 3,
        thumb: encode_screenshot(&mosaic(1)),
    }]);
    frame(b"DVVSEG01", &Strips.encode(&strip).expect("strips encode"))
}

/// The keyframe encoder before literals: `[w][h]`, then one
/// `[len u32][pixel u32]` run per stretch of equal pixels.
fn runs_only_encoding(shot: &Screenshot) -> Vec<u8> {
    let mut out = [shot.width, shot.height].map(u32::to_le_bytes).concat();
    for run in shot.pixels.chunk_by(|a, b| a == b) {
        out.extend_from_slice(&(run.len() as u32).to_le_bytes());
        out.extend_from_slice(&run[0].to_le_bytes());
    }
    out
}

/// The rule the runs-only decoder checked a stream by: whole chunks,
/// each a run no longer than what is left of the screen, adding up to
/// the screen.
fn old_rule_accepts(encoded: &[u8]) -> bool {
    let (header, body) = encoded.split_at(8);
    let side = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().unwrap());
    if side(0) > MAX_SCREEN_SIDE || side(4) > MAX_SCREEN_SIDE {
        return false;
    }
    let (chunks, partial) = body.as_chunks::<8>();
    let mut left = side(0) as usize * side(4) as usize;
    for chunk in chunks {
        let len = u32::from_le_bytes(chunk[..4].try_into().unwrap()) as usize;
        if left == 0 || len > left {
            return false;
        }
        left -= len;
    }
    partial.is_empty() && left == 0
}

/// Whether `shot` has [`MIN_LITERAL`] pixels in a row that each differ
/// from the next, the last pixel of the screen differing from none.
fn has_literal_stretch(shot: &Screenshot) -> bool {
    let px = &shot.pixels;
    let single =
        |i: usize| (i == 0 || px[i - 1] != px[i]) && (i + 1 == px.len() || px[i] != px[i + 1]);
    let mut stretch = 0;
    (0..px.len()).any(|i| {
        stretch = if single(i) { stretch + 1 } else { 0 };
        stretch >= MIN_LITERAL
    })
}

/// A `w` x `h` screen of one of four kinds, from `seed`: noise, one
/// colour, text-like (runs of 1 to 5 pixels from four colours, never
/// [`MIN_LITERAL`] single pixels in a row) or rows of each mixed.
fn keyframe_screen(kind: u8, w: u32, h: u32, seed: u64) -> Screenshot {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let n = (w * h) as usize;
    let mut pixels = Vec::with_capacity(n);
    let mut singles = 0;
    while pixels.len() < n {
        let row_kind = match kind {
            3 => (pixels.len() / w as usize * 7 + seed as usize) % 3,
            kind => kind as usize,
        };
        let r = next();
        match row_kind {
            0 => pixels.push(r as u32),
            1 => pixels.push(0x0020_2020),
            _ => {
                let mut len = 1 + (r >> 8) as usize % 5;
                singles = if len == 1 { singles + 1 } else { 0 };
                if singles == MIN_LITERAL - 2 {
                    (len, singles) = (2, 0);
                }
                let color = [0x00FF_FFFF, 0, 0x0033_3333, 0x0080_8080][(r >> 16) as usize % 4];
                let color = match pixels.last() {
                    Some(&last) if last == color => color ^ 1,
                    _ => color,
                };
                pixels.extend(std::iter::repeat_n(color, len));
            }
        }
    }
    pixels.truncate(n);
    Screenshot {
        width: w,
        height: h,
        pixels: Arc::new(pixels),
    }
}

/// A 12x3 keyframe as the runs-only encoder wrote it, pinned: twelve
/// pixels each unlike the next (runs of one), a row of one colour, and
/// a row of short runs.
const RUNS_ONLY_FIXTURE: &str = "0c00000003000000010000000000a000010000000302a100010000000604a2000100\
    00000906a300010000000c08a400010000000f0aa50001000000120ca60001000000150ea700010000001810a800010000\
    001b12a900010000001e14aa00010000002116ab000c000000050000000100000001000000010000000200000001000000\
    0100000001000000020000000300000003000000020000000700000001000000010000000200000002000000";

#[test]
fn a_runs_only_stream_decodes_to_the_same_pixels() {
    let bytes: Vec<u8> = (0..RUNS_ONLY_FIXTURE.len())
        .step_by(2)
        .map(|at| u8::from_str_radix(&RUNS_ONLY_FIXTURE[at..at + 2], 16).unwrap())
        .collect();
    let mut pixels: Vec<u32> = (0..12).map(|i| 0x00A0_0000 + i * 0x0001_0203).collect();
    pixels.extend([5; 12]);
    pixels.extend([1, 2, 1, 2, 3, 3, 3, 7, 7, 1, 2, 2]);
    let shot = Screenshot {
        width: 12,
        height: 3,
        pixels: Arc::new(pixels),
    };
    assert_eq!(bytes.len(), 176);
    assert_eq!(bytes, runs_only_encoding(&shot));
    assert_eq!(decode_screenshot(&bytes), Some(shot.clone()));
    let runs = decode_screenshot_runs(&bytes, 12, 3).expect("the runs check");
    assert_eq!(runs.to_screenshot(), shot);
    // Today the twelve pixels are one literal: a head and 12 pixels,
    // padded to 56 bytes where twelve runs took 96.
    let encoded = encode_screenshot(&shot);
    assert_eq!(encoded[8..12], (LITERAL | 12).to_le_bytes());
    assert_eq!(encoded.len(), 176 - 96 + 56);
    assert_eq!(decode_screenshot(&encoded), Some(shot));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Over noise, one colour, text-like and mixed screens of any size:
    /// a keyframe decodes to its screen, never encodes larger than the
    /// runs-only encoder wrote it, and encodes to exactly those bytes
    /// when no stretch makes a literal. The runs-only rule accepts it
    /// exactly then: a literal's head reads as a run longer than any
    /// screen.
    #[test]
    fn keyframe_spans_round_trip_no_larger_and_only_where_they_pay(
        kind in 0u8..4,
        w in 1u32..80,
        h in 1u32..24,
        seed in any::<u64>(),
    ) {
        let shot = keyframe_screen(kind, w, h, seed);
        let encoded = encode_screenshot(&shot);
        let runs_only = runs_only_encoding(&shot);
        prop_assert_eq!(decode_screenshot(&encoded), Some(shot.clone()));
        prop_assert!(encoded.len() <= runs_only.len(), "{} > {}", encoded.len(), runs_only.len());
        let literal = has_literal_stretch(&shot);
        prop_assert_eq!(encoded == runs_only, !literal);
        prop_assert_eq!(old_rule_accepts(&encoded), !literal);
        prop_assert!(old_rule_accepts(&runs_only));
        if kind == 2 {
            prop_assert!(!literal, "a text-like screen has no literal");
        }
        let heads = encoded[8..].as_chunks::<8>().0.iter();
        let longest = heads.map(|c| u32::from_le_bytes(c[..4].try_into().unwrap())).max();
        prop_assert_eq!(longest.is_some_and(|len| len >= LITERAL), literal);
    }
}

/// A literal's head is longer than the largest screen a header may
/// claim, so the runs-only rule stops on it whatever the screen.
#[test]
fn a_literal_head_is_a_run_longer_than_any_screen() {
    assert!(LITERAL as u64 > MAX_SCREEN_SIDE as u64 * MAX_SCREEN_SIDE as u64);
    let shot = keyframe_screen(0, 40, 3, 7);
    let encoded = encode_screenshot(&shot);
    assert_eq!(encoded.len(), 8 + 4 + 4 * 120 + 4);
    assert!(!old_rule_accepts(&encoded));
    assert!(old_rule_accepts(&runs_only_encoding(&shot)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Mutating one byte of a valid sealed segment either errors
    /// cleanly (the CRC or framing caught it) or still decodes — and
    /// a decodable result re-encodes without panicking.
    #[test]
    fn mutated_segments_never_panic(idx in 0usize..10_000, value in any::<u8>()) {
        let mut bytes = valid_segment_bytes();
        let store = SharedBlobStore::in_memory();
        let engine = strip_engine(&store);
        prop_assert!(read_back(&store, engine.log(), &bytes), "the unmutated segment decodes");
        let idx = idx % bytes.len();
        let changed = bytes[idx] != value;
        bytes[idx] = value;
        let fresh = strip_engine(&store);
        prop_assert_eq!(read_back(&store, fresh.log(), &bytes), !changed);
        if let Ok(strip) = fresh.log().segment(0) {
            let _ = Strips.encode(&strip);
        }
    }

    /// Arbitrary instances survive the seal/recover round trip
    /// byte-identically.
    #[test]
    fn segments_round_trip(
        seeds in prop::collection::vec((any::<u64>(), 0u64..1 << 40, 0u64..1 << 20, 1u64..64), 0..8)
    ) {
        let instances: Vec<VisualInstance> = seeds
            .iter()
            .enumerate()
            .map(|(i, &(fp_seed, first_ms, span_ms, frames))| VisualInstance {
                id: i as u64 + 1,
                fp: Fingerprint([
                    fp_seed,
                    fp_seed.wrapping_mul(3),
                    fp_seed.rotate_left(17),
                    !fp_seed,
                ]),
                first: Timestamp::from_millis(first_ms),
                last: Timestamp::from_millis(first_ms + span_ms),
                frames,
                thumb: encode_screenshot(&mosaic(fp_seed)),
            })
            .collect();
        let sealed = Strips.encode(&VisualStrip::from_instances(instances.clone()));
        let decoded = Strips.decode(&sealed.expect("strips encode")).expect("round trip");
        prop_assert_eq!(decoded.instances(), &instances[..]);
    }

    /// Arbitrary manifests survive the write/recover round trip.
    #[test]
    fn manifests_round_trip(
        counter in any::<u64>(),
        next_segment in any::<u64>(),
        next_instance in any::<u64>(),
        open_ms in 0u64..1 << 40,
        oldest_revivable in any::<u64>(),
        metas in prop::collection::vec(
            (any::<u64>(), 0u64..1 << 40, 0u64..1 << 20, any::<u64>(), 0u64..1 << 20, 1u64..256),
            0..12
        ),
        retired in 0usize..12
    ) {
        let mut live: Vec<SegmentMeta> = metas
            .iter()
            .map(|&(id, start_ms, span_ms, sealed_at, bytes, instances)| SegmentMeta {
                id,
                level: (id % 5) as u32,
                start: Timestamp::from_millis(start_ms),
                end: Timestamp::from_millis(start_ms + span_ms),
                sealed_at,
                bytes,
                instances,
            })
            .collect();
        let retired = live
            .split_off(live.len().saturating_sub(retired))
            .into_iter()
            .map(|meta| {
                let reclaim_after = meta.sealed_at.wrapping_add(1);
                (meta, reclaim_after)
            })
            .collect();
        let manifest = Manifest {
            counter,
            next_segment,
            next_instance,
            open_start: Timestamp::from_millis(open_ms),
            oldest_revivable,
            live,
            retired,
        };
        let decoded = decode_manifest(&encode_manifest(&manifest)).expect("round trip");
        prop_assert_eq!(decoded, manifest);
    }

    /// Screenshots of arbitrary geometry round-trip through the
    /// thumbnail codec.
    #[test]
    fn screenshots_round_trip(
        w in 1u32..32,
        h in 1u32..32,
        pool in prop::collection::vec(any::<u32>(), 1..256)
    ) {
        let shot = shot_from_pool(w, h, &pool);
        let decoded = decode_screenshot(&encode_screenshot(&shot)).expect("round trip");
        prop_assert_eq!(decoded, shot);
    }

    /// Fingerprinting is a pure function: distance to self is zero,
    /// and distance is symmetric — for any pair of geometries.
    #[test]
    fn fingerprint_is_deterministic_and_symmetric(
        w in 1u32..40,
        h in 1u32..40,
        pool_a in prop::collection::vec(any::<u32>(), 1..128),
        pool_b in prop::collection::vec(any::<u32>(), 1..128)
    ) {
        let a = Fingerprint::from_screenshot(&shot_from_pool(w, h, &pool_a));
        let again = Fingerprint::from_screenshot(&shot_from_pool(w, h, &pool_a));
        let b = Fingerprint::from_screenshot(&shot_from_pool(w, h, &pool_b));
        prop_assert_eq!(a, again);
        prop_assert_eq!(a.distance(&a), 0);
        prop_assert_eq!(a.distance(&b), b.distance(&a));
    }

    /// A uniform brightness shift never changes the fingerprint: the
    /// gradient comparison sees every grid cell move by the same
    /// amount. Channels stay under 0xF0 so the shift cannot clip.
    #[test]
    fn fingerprint_ignores_uniform_brightness(
        pool in prop::collection::vec(any::<u32>(), 1..128),
        shift in 1u32..0x0F
    ) {
        let dim: Vec<u32> = pool.iter().map(|&px| px & 0x00E0_E0E0).collect();
        let lifted: Vec<u32> = dim
            .iter()
            .map(|&px| px + (shift << 16 | shift << 8 | shift))
            .collect();
        let a = Fingerprint::from_screenshot(&shot_from_pool(64, 48, &dim));
        let b = Fingerprint::from_screenshot(&shot_from_pool(64, 48, &lifted));
        prop_assert_eq!(a.distance(&b), 0);
    }

    /// A single-pixel edit lands in at most two grid cells per axis,
    /// so it can flip at most a handful of gradient bits — always
    /// within the pigeonhole radius, and within the default near-dup
    /// threshold (8 bits): one stray pixel never splits an instance.
    #[test]
    fn single_pixel_noise_stays_near(
        pool in prop::collection::vec(any::<u32>(), 1..128),
        x in 0u32..64,
        y in 0u32..48,
        value in any::<u32>()
    ) {
        let base = shot_from_pool(64, 48, &pool);
        let mut pixels = (*base.pixels).clone();
        pixels[(y * 64 + x) as usize] = value;
        let edited = Screenshot {
            width: 64,
            height: 48,
            pixels: Arc::new(pixels),
        };
        let d = Fingerprint::from_screenshot(&base)
            .distance(&Fingerprint::from_screenshot(&edited));
        prop_assert!(d <= 8, "single-pixel edit moved {d} bits");
        prop_assert!(d <= EXACT_RADIUS);
    }

    /// Unrelated full-entropy scenes separate far beyond the exact
    /// radius — the property that gives band buckets their
    /// selectivity. Deterministic under the harness's fixed seed.
    #[test]
    fn unrelated_scenes_separate(a in any::<u64>(), b in any::<u64>()) {
        if a != b {
            let d = Fingerprint::from_screenshot(&noise_screen(a))
                .distance(&Fingerprint::from_screenshot(&noise_screen(b)));
            prop_assert!(
                d > EXACT_RADIUS,
                "seeds {a}/{b} collided at {d} bits"
            );
        }
    }
}
