//! CRC32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the
//! checksum guarding journal record frames in `dv-lsfs`, `dv-net` wire
//! frames, `dv-cas` root slots and the tidx/vidx segments. Lives here so
//! the stores and the crash harness agree on one implementation without
//! a dependency cycle.
//!
//! The update is slicing-by-8: eight input bytes fold into the state
//! with eight independent table loads, where the classic loop needs one
//! dependent load per byte. `TABLES[0]` is that classic table; it still
//! serves the tail of fewer than eight bytes.

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

/// CRC32 of `data` in one shot.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Streaming form: feed chunks into `state` (start from
/// `0xFFFF_FFFF`, finish by XOR with `0xFFFF_FFFF`).
pub fn crc32_update(mut state: u32, data: &[u8]) -> u32 {
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let lo = state ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        state = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][(lo >> 8 & 0xFF) as usize]
            ^ TABLES[5][(lo >> 16 & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][(hi >> 8 & 0xFF) as usize]
            ^ TABLES[1][(hi >> 16 & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        state = (state >> 8) ^ TABLES[0][((state ^ byte as u32) & 0xFF) as usize];
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::splitmix64;

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

    #[test]
    fn word_wise_equals_bytewise_at_every_length_and_alignment() {
        let mut rng = 17u64;
        let data: Vec<u8> = (0..4096 + 8).map(|_| splitmix64(&mut rng) as u8).collect();
        for len in 0..=4096usize {
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
        let data: Vec<u8> = (0..4096).map(|_| splitmix64(&mut rng) as u8).collect();
        for len in (0..=4096usize).step_by(13).chain([4096]) {
            let whole = crc32_update_bytewise(0xFFFF_FFFF, &data[..len]);
            // One to four cuts, anywhere (repeats make empty pieces).
            let mut cuts: Vec<usize> = (0..1 + splitmix64(&mut rng) % 4)
                .map(|_| splitmix64(&mut rng) as usize % (len + 1))
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
}
