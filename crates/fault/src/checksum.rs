//! CRC32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the
//! checksum guarding journal record frames in `dv-lsfs`, `dv-net` wire
//! frames, `dv-cas` root slots and the tidx/vidx segments. Lives here so
//! the stores and the crash harness agree on one implementation without
//! a dependency cycle. [`fnv1a_update`], the one FNV-1a, lives beside it
//! for the same reason.
//!
//! The update is slicing-by-8: eight input bytes fold into the state
//! with eight independent table loads, where the classic loop needs one
//! dependent load per byte. `TABLES[0]` is that classic table; it still
//! serves the tail of fewer than eight bytes.
//!
//! One slicing-by-8 chain is still serial from word to word, so from
//! `BLOCK` bytes up the input is cut into blocks of three `LANE`s
//! whose chains run interleaved, one word of each per turn, and are
//! joined at the end of the block. The join rests on the update being
//! affine in the state: `update(s, D) = shift_|D|(s) ^ update(0, D)`,
//! where `shift_n` carries a state over `n` zero bytes and is linear
//! over GF(2). For a block `A‖B‖C` of equal lanes that gives
//!
//! ```text
//! update(s, A‖B‖C) = shift(shift(update(s, A)) ^ update(0, B)) ^ update(0, C)
//! ```
//!
//! with `shift = shift_LANE`, which `LANE_SHIFT` tabulates a state
//! byte at a time.
//!
//! That table kernel is the portable one, [`crc32_portable`]. On x86-64
//! with PCLMULQDQ and SSE4.1, [`crc32`] folds inputs of 64 bytes and
//! more 64 bytes a step with carry-less multiplies instead (Intel, "Fast
//! CRC Computation for Generic Polynomials Using PCLMULQDQ", 2009),
//! about eight times the table kernel's rate on a `Video` frame, and
//! hands the last bytes of fewer than 16 to the table kernel. Both
//! return the same value for every input: which one ran never shows in
//! a stored or wire checksum.

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// `tables[k][b]` is the CRC state after byte `b` followed by `k` zero
/// bytes, so a byte `k` places from the end of an eight-byte word is
/// looked up in `tables[k]`.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [build_table(); 8];
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Bytes each of a block's three interleaved chains covers.
const LANE: usize = 1024;

/// Bytes one interleaved pass covers; shorter inputs (and the tail of a
/// longer one) take the single chain.
const BLOCK: usize = 3 * LANE;

/// `tables[k][b]` is the state `b << 8k` carried over [`LANE`] zero
/// bytes. Carrying is linear, so the 32 one-bit states span it.
const fn build_lane_shift() -> [[u32; 256]; 4] {
    let bytewise = build_table();
    let mut basis = [0u32; 32];
    let mut bit = 0;
    while bit < 32 {
        let mut state = 1u32 << bit;
        let mut n = 0;
        while n < LANE {
            state = (state >> 8) ^ bytewise[(state & 0xFF) as usize];
            n += 1;
        }
        basis[bit] = state;
        bit += 1;
    }
    let mut tables = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut b = 0;
        while b < 256 {
            let mut bit = 0;
            while bit < 8 {
                if b >> bit & 1 != 0 {
                    tables[k][b] ^= basis[8 * k + bit];
                }
                bit += 1;
            }
            b += 1;
        }
        k += 1;
    }
    tables
}

static LANE_SHIFT: [[u32; 256]; 4] = build_lane_shift();

/// Carries `state` over [`LANE`] zero bytes.
fn lane_shift(state: u32) -> u32 {
    LANE_SHIFT[0][(state & 0xFF) as usize]
        ^ LANE_SHIFT[1][(state >> 8 & 0xFF) as usize]
        ^ LANE_SHIFT[2][(state >> 16 & 0xFF) as usize]
        ^ LANE_SHIFT[3][(state >> 24) as usize]
}

/// Folds one eight-byte word into `state`.
#[inline(always)]
fn fold_word(state: u32, word: &[u8]) -> u32 {
    let word = u64::from_le_bytes(word.try_into().expect("eight bytes"));
    let lo = state ^ word as u32;
    let hi = (word >> 32) as u32;
    TABLES[7][(lo & 0xFF) as usize]
        ^ TABLES[6][(lo >> 8 & 0xFF) as usize]
        ^ TABLES[5][(lo >> 16 & 0xFF) as usize]
        ^ TABLES[4][(lo >> 24) as usize]
        ^ TABLES[3][(hi & 0xFF) as usize]
        ^ TABLES[2][(hi >> 8 & 0xFF) as usize]
        ^ TABLES[1][(hi >> 16 & 0xFF) as usize]
        ^ TABLES[0][(hi >> 24) as usize]
}

/// CRC32 of `data` in one shot, on the fastest kernel this CPU runs.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// CRC32 of `data` on the table kernel alone, whatever the CPU: the
/// value [`crc32`] returns, at the portable kernel's speed.
pub fn crc32_portable(data: &[u8]) -> u32 {
    crc32_update_portable(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Streaming form: feed chunks into `state` (start from
/// `0xFFFF_FFFF`, finish by XOR with `0xFFFF_FFFF`).
fn crc32_update(state: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= clmul::MIN_LEN
        && is_x86_feature_detected!("pclmulqdq")
        && is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: `clmul::update` is safe code compiled for PCLMULQDQ
        // and SSE4.1; calling it is sound exactly when the CPU has both,
        // which the two detections just above established.
        #[allow(unsafe_code)]
        return unsafe { clmul::update(state, data) };
    }
    crc32_update_portable(state, data)
}

/// [`crc32_update`] on the table kernel.
fn crc32_update_portable(mut state: u32, data: &[u8]) -> u32 {
    let mut blocks = data.chunks_exact(BLOCK);
    for block in &mut blocks {
        let (first, rest) = block.split_at(LANE);
        let (second, third) = rest.split_at(LANE);
        let (mut a, mut b, mut c) = (state, 0, 0);
        let words = first
            .chunks_exact(8)
            .zip(second.chunks_exact(8))
            .zip(third.chunks_exact(8));
        for ((wa, wb), wc) in words {
            a = fold_word(a, wa);
            b = fold_word(b, wb);
            c = fold_word(c, wc);
        }
        state = lane_shift(lane_shift(a) ^ b) ^ c;
    }
    let mut words = blocks.remainder().chunks_exact(8);
    for word in &mut words {
        state = fold_word(state, word);
    }
    for &byte in words.remainder() {
        state = (state >> 8) ^ TABLES[0][((state ^ byte as u32) & 0xFF) as usize];
    }
    state
}

/// The carry-less-multiply kernel. The state and the input are
/// polynomials over GF(2), bit-reflected as CRC32-IEEE keeps them, so a
/// 64-bit carry-less multiply by `x^n mod P` carries 64 bits of them `n`
/// bits further along the message. Four 128-bit accumulators take 64
/// input bytes a step, each folded 512 bits forward onto the next
/// block; at the end they fold into one, which a 128-bit step at a
/// time takes over the remaining whole 16-byte words, and a Barrett
/// reduction brings to the 32-bit state.
///
/// Every function here is safe code compiled for PCLMULQDQ and SSE4.1
/// and loads through `i64::from_le_bytes`, never a raw pointer: the one
/// `unsafe` is the call from [`crc32_update`], after the CPU was asked.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Shortest input the kernel takes: one 64-byte block. Timed at
    /// every length from 64 to 127 bytes it took 6-17 ns where the
    /// table kernel took 25-64 ns. Shorter inputs have no block to
    /// load its four lanes from and stay on the table kernel.
    pub(super) const MIN_LEN: usize = 64;

    /// The CRC32-IEEE generator, `x^32 + ...`, unreflected.
    const POLY: u64 = 0x1_04C1_1DB7;

    /// `x^n mod P`, unreflected.
    const fn x_pow_mod(n: u32) -> u64 {
        let mut v = 1u64;
        let mut i = 0;
        while i < n {
            v <<= 1;
            if v >> 32 & 1 != 0 {
                v ^= POLY;
            }
            i += 1;
        }
        v
    }

    /// The low `bits` bits of `v` in reverse order.
    const fn reflect(v: u64, bits: u32) -> u64 {
        v.reverse_bits() >> (64 - bits)
    }

    /// The fold multiplier for `n` bits: `x^n mod P`, reflected and
    /// shifted one place, as the reflected product comes out one bit
    /// short.
    const fn fold_key(n: u32) -> i64 {
        (reflect(x_pow_mod(n), 32) << 1) as i64
    }

    /// `floor(x^64 / P)`, reflected over its 33 bits: Barrett's `mu`.
    const fn barrett_mu() -> i64 {
        let (mut rem, mut quot) = (1u128 << 64, 0u64);
        let mut i = 64;
        while i >= 32 {
            if rem >> i & 1 != 0 {
                quot |= 1 << (i - 32);
                rem ^= (POLY as u128) << (i - 32);
            }
            i -= 1;
        }
        reflect(quot, 33) as i64
    }

    /// Carries a 128-bit accumulator 512 bits on: four lanes ahead.
    const FOLD_512: (i64, i64) = (fold_key(4 * 128 + 32), fold_key(4 * 128 - 32));
    /// Carries a 128-bit accumulator 128 bits on: the next word.
    const FOLD_128: (i64, i64) = (fold_key(128 + 32), fold_key(128 - 32));
    /// Carries the low 64 bits over 64 more during the reduction.
    const FOLD_64: i64 = fold_key(64);
    /// `P` reflected over its 33 bits.
    const POLY_REFLECTED: i64 = reflect(POLY, 33) as i64;
    const MU: i64 = barrett_mu();

    /// `bytes[..16]` as one 128-bit lane, little-endian.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(bytes: &[u8]) -> __m128i {
        let half =
            |at: usize| i64::from_le_bytes(bytes[at..at + 8].try_into().expect("eight bytes"));
        _mm_set_epi64x(half(8), half(0))
    }

    /// `acc` carried over the bits `keys` was built for, onto `next`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// [`super::crc32_update`] for inputs of at least [`MIN_LEN`] bytes.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(state: u32, data: &[u8]) -> u32 {
        assert!(data.len() >= MIN_LEN, "short inputs take the table kernel");
        let (first, rest) = data.split_at(64);
        let mut lanes = [
            load(&first[..16]),
            load(&first[16..32]),
            load(&first[32..48]),
            load(&first[48..]),
        ];
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(state as i32));
        let keys = _mm_set_epi64x(FOLD_512.1, FOLD_512.0);
        let mut blocks = rest.chunks_exact(64);
        for block in &mut blocks {
            lanes[0] = fold(lanes[0], load(&block[..16]), keys);
            lanes[1] = fold(lanes[1], load(&block[16..32]), keys);
            lanes[2] = fold(lanes[2], load(&block[32..48]), keys);
            lanes[3] = fold(lanes[3], load(&block[48..]), keys);
        }
        let keys = _mm_set_epi64x(FOLD_128.1, FOLD_128.0);
        let mut acc = fold(lanes[0], lanes[1], keys);
        acc = fold(acc, lanes[2], keys);
        acc = fold(acc, lanes[3], keys);
        let mut words = blocks.remainder().chunks_exact(16);
        for word in &mut words {
            acc = fold(acc, load(word), keys);
        }
        // 128 bits to 64: the high half onto the low one, then the low
        // 32 bits over 64 more onto the rest.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        acc = _mm_xor_si128(
            _mm_clmulepi64_si128(acc, keys, 0x10),
            _mm_srli_si128(acc, 8),
        );
        acc = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(acc, low32), _mm_set_epi64x(0, FOLD_64), 0x00),
            _mm_srli_si128(acc, 4),
        );
        // Barrett: the quotient's estimate from the low 32 bits times
        // `mu`, its low 32 bits times `P`, and the remainder in the
        // high half of what is left.
        let barrett = _mm_set_epi64x(MU, POLY_REFLECTED);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), barrett, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), barrett, 0x00);
        let state = _mm_extract_epi32(_mm_xor_si128(acc, t2), 1) as u32;
        super::crc32_update_portable(state, words.remainder())
    }
}

/// The FNV-1a (64-bit) state before any byte: its offset basis.
pub const FNV1A_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a (64-bit), streaming form: folds `data` into `state`. Start
/// from [`FNV1A_BASIS`]; the state after the last chunk is the hash, so
/// a hash over several fields is one update per field. Not a checksum
/// for stored bytes — the content keys (screens, captured text,
/// restored histories) that equality is judged by.
#[inline]
pub fn fnv1a_update(mut state: u64, data: &[u8]) -> u64 {
    for &byte in data {
        state = (state ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::splitmix64;

    /// The published FNV-1a 64-bit vectors, fed whole and in pieces.
    #[test]
    fn fnv1a_is_pinned() {
        assert_eq!(fnv1a_update(FNV1A_BASIS, b""), FNV1A_BASIS);
        assert_eq!(fnv1a_update(FNV1A_BASIS, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_update(FNV1A_BASIS, b"foobar"), 0x8594_4171_f739_67e8);
        let pieces = fnv1a_update(fnv1a_update(FNV1A_BASIS, b"foo"), b"bar");
        assert_eq!(pieces, 0x8594_4171_f739_67e8);
    }

    /// The byte-at-a-time loop `crc32_update` replaced, kept as the
    /// reference the word-wise kernel must equal.
    fn crc32_update_bytewise(mut state: u32, data: &[u8]) -> u32 {
        for &byte in data {
            state = (state >> 8) ^ TABLES[0][((state ^ byte as u32) & 0xFF) as usize];
        }
        state
    }

    #[test]
    fn known_vectors() {
        // Standard CRC32-IEEE check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"journal record body with some length to it";
        let mut state = 0xFFFF_FFFF;
        for chunk in data.chunks(7) {
            state = crc32_update(state, chunk);
        }
        assert_eq!(state ^ 0xFFFF_FFFF, crc32(data));
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let mut data = b"sensitive".to_vec();
        let before = crc32(&data);
        data[3] ^= 0x01;
        assert_ne!(before, crc32(&data));
    }

    /// Lengths that cover the single chain, four whole blocks and
    /// every tail either can leave.
    const MAX_LEN: usize = 4 * BLOCK + 16;

    #[test]
    fn word_wise_equals_bytewise_at_every_length_and_alignment() {
        let mut rng = 17u64;
        let data: Vec<u8> = (0..MAX_LEN + 8)
            .map(|_| splitmix64(&mut rng) as u8)
            .collect();
        for len in 0..=MAX_LEN {
            for start in 0..8usize {
                let slice = &data[start..start + len];
                let state = splitmix64(&mut rng) as u32;
                assert_eq!(
                    crc32_update_portable(state, slice),
                    crc32_update_bytewise(state, slice),
                    "len {len} start {start}"
                );
            }
        }
    }

    /// Both kernels against the byte-at-a-time reference: the
    /// dispatched `crc32` (the carry-less-multiply kernel from
    /// `clmul::MIN_LEN` bytes up, where the CPU has it) and
    /// `crc32_portable`, over every length to 4 KiB at 16 start offsets,
    /// a `Video`-frame-sized buffer, and the lengths either side of the
    /// 64-byte dispatch threshold and of two blocks.
    #[test]
    fn both_kernels_equal_bytewise_at_every_length_offset_and_edge() {
        let mut rng = 31u64;
        let data: Vec<u8> = (0..(460 << 10) + 16)
            .map(|_| splitmix64(&mut rng) as u8)
            .collect();
        let check = |slice: &[u8], reference: u32, what: &str| {
            assert_eq!(crc32(slice), reference, "dispatched, {what}");
            assert_eq!(crc32_portable(slice), reference, "portable, {what}");
        };
        for start in 0..16usize {
            // The reference grows a byte at a time with the length.
            let mut state = 0xFFFF_FFFF;
            for len in 0..=4096usize {
                check(
                    &data[start..start + len],
                    state ^ 0xFFFF_FFFF,
                    &format!("len {len} start {start}"),
                );
                state = crc32_update_bytewise(state, &data[start + len..=start + len]);
            }
        }
        let frame = &data[3..];
        check(
            frame,
            crc32_update_bytewise(0xFFFF_FFFF, frame) ^ 0xFFFF_FFFF,
            "460 KiB",
        );
        for len in [63, 64, 65, 127, 128, 129] {
            let slice = &data[..len];
            let reference = crc32_update_bytewise(0xFFFF_FFFF, slice) ^ 0xFFFF_FFFF;
            check(slice, reference, &format!("edge {len}"));
        }
    }

    #[test]
    fn arbitrary_splits_stream_to_the_same_state() {
        let mut rng = 23u64;
        let data: Vec<u8> = (0..MAX_LEN).map(|_| splitmix64(&mut rng) as u8).collect();
        for len in (0..=MAX_LEN).step_by(13).chain([MAX_LEN]) {
            let whole = crc32_update_bytewise(0xFFFF_FFFF, &data[..len]);
            // One to four cuts: anywhere (repeats make empty pieces), or
            // within a word of a lane boundary so a piece ends or starts
            // mid-lane.
            let mut cuts: Vec<usize> = (0..1 + splitmix64(&mut rng) % 4)
                .map(|_| {
                    let anywhere = splitmix64(&mut rng) as usize % (len + 1);
                    if splitmix64(&mut rng) & 1 == 0 {
                        return anywhere;
                    }
                    let near = (anywhere / LANE * LANE + splitmix64(&mut rng) as usize % 17)
                        .saturating_sub(8);
                    near.min(len)
                })
                .collect();
            cuts.push(len);
            cuts.sort_unstable();
            let mut state = 0xFFFF_FFFF;
            let mut from = 0;
            for cut in cuts {
                state = crc32_update(state, &data[from..cut]);
                from = cut;
            }
            assert_eq!(state, whole, "len {len}");
        }
    }

    /// The join's premise, checked directly: carrying a state over a
    /// lane of zeros is what `lane_shift` tabulates.
    #[test]
    fn lane_shift_carries_a_state_over_one_lane_of_zeros() {
        let mut rng = 29u64;
        let zeros = [0u8; LANE];
        for _ in 0..64 {
            let state = splitmix64(&mut rng) as u32;
            assert_eq!(lane_shift(state), crc32_update_bytewise(state, &zeros));
        }
    }
}
