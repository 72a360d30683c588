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

/// CRC32 of `data` in one shot.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Streaming form: feed chunks into `state` (start from
/// `0xFFFF_FFFF`, finish by XOR with `0xFFFF_FFFF`).
fn crc32_update(mut state: u32, data: &[u8]) -> u32 {
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
                    crc32_update(state, slice),
                    crc32_update_bytewise(state, slice),
                    "len {len} start {start}"
                );
            }
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
