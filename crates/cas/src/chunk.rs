//! Content-defined chunking and content addressing.
//!
//! Blobs are split with a gear rolling hash: a 64-bit state is shifted
//! and salted with a per-byte table entry, and a chunk boundary is
//! declared wherever the low bits of the state are zero. Because the
//! state depends only on the last few dozen bytes, an insertion or a
//! small edit moves at most the two chunks around it — the property
//! that lets consecutive checkpoints of a mostly-idle desktop share
//! almost all their chunks. Cut points are bounded below by
//! [`MIN_CHUNK`] (so tiny chunks never dominate index overhead) and
//! above by [`MAX_CHUNK`] (so pathological data cannot produce
//! unbounded chunks).
//!
//! Each chunk is addressed by a 128-bit content hash: two independently
//! seeded 64-bit multiply-xor hashes over the chunk bytes. The store
//! treats equal ids as equal content; 128 bits keeps accidental
//! collisions out of reach for any workload this repository models.

/// Lower bound on chunk size (bytes); boundaries are not considered
/// before this many bytes.
pub const MIN_CHUNK: usize = 2 * 1024;
/// Forced upper bound on chunk size (bytes).
pub const MAX_CHUNK: usize = 32 * 1024;
/// Boundary mask: a cut happens when the low 13 bits of the gear state
/// are zero, giving an expected chunk size of `MIN_CHUNK` + 8 KiB.
const BOUNDARY_MASK: u64 = (1 << 13) - 1;

const fn splitmix64(seed: u64) -> u64 {
    let x = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-byte salt table for the gear hash, generated deterministically
/// so every build (and every peer in a future replication story) cuts
/// blobs identically.
const GEAR: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        table[i] = splitmix64(0xDE7A_41E5_0000_0000 ^ (i as u64));
        i += 1;
    }
    table
};

/// A 128-bit content address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChunkId(pub u128);

impl std::fmt::Debug for ChunkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ChunkId({:032x})", self.0)
    }
}

const HI_SEED: u64 = 0x0C0F_FEE0_DEAD_BEEF;
const LO_SEED: u64 = 0x5EED_CA5C_ADE5_1DEA;

fn mix_word(h: u64, w: u64) -> u64 {
    let h = (h ^ w).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^ (h >> 29)
}

fn finish(h: u64, tail: u64) -> u64 {
    let h = (h ^ tail).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    let h = (h ^ (h >> 32)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^ (h >> 29)
}

/// Computes the content address of one chunk.
///
/// Both 64-bit halves are taken in one pass over the chunk, so their
/// two multiply chains overlap.
pub fn chunk_id(data: &[u8]) -> ChunkId {
    let length = (data.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let (mut hi, mut lo) = (HI_SEED ^ length, LO_SEED ^ length);
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let w = u64::from_le_bytes(word.try_into().expect("8 bytes"));
        hi = mix_word(hi, w);
        lo = mix_word(lo, w);
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    let tail = u64::from_le_bytes(tail);
    ChunkId(((finish(hi, tail) as u128) << 64) | finish(lo, tail) as u128)
}

/// One chunk of a split blob: its content address and the byte range it
/// covers in the source buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkSpan {
    /// Content address of the bytes in `offset..offset + len`.
    pub id: ChunkId,
    /// Start of the chunk in the source blob.
    pub offset: usize,
    /// Chunk length in bytes.
    pub len: usize,
}

/// Splits a blob at content-defined boundaries and hashes each chunk.
///
/// Deterministic: the same bytes always produce the same spans and ids.
/// An empty blob produces no spans. This is the expensive half of a
/// deduplicating write and takes no locks, so callers (checkpoint
/// commit workers) run it outside the shared store mutex.
///
/// # Examples
///
/// ```
/// let data = vec![7u8; 100_000];
/// let spans = dv_cas::split(&data);
/// assert_eq!(spans.iter().map(|s| s.len).sum::<usize>(), data.len());
/// assert!(spans.iter().all(|s| s.len <= dv_cas::MAX_CHUNK));
/// ```
pub fn split(data: &[u8]) -> Vec<ChunkSpan> {
    let mut spans = Vec::new();
    let mut offset = 0;
    while offset < data.len() {
        let len = cut(&data[offset..data.len().min(offset + MAX_CHUNK)]);
        spans.push(ChunkSpan {
            id: chunk_id(&data[offset..offset + len]),
            offset,
            len,
        });
        offset += len;
    }
    spans
}

/// Length of the chunk at the front of `window`, which holds at most
/// [`MAX_CHUNK`] bytes: the first content-defined boundary at or past
/// [`MIN_CHUNK`], else the whole window.
///
/// Each step shifts the gear state left by one, so the state after a
/// byte depends only on the last 64 bytes hashed. Hashing from 64 bytes
/// before `MIN_CHUNK` therefore gives the state at every tested byte
/// that hashing the chunk from its start would, and the bytes before
/// are skipped.
fn cut(window: &[u8]) -> usize {
    if window.len() <= MIN_CHUNK {
        return window.len();
    }
    let gear = |state: u64, &b: &u8| (state << 1).wrapping_add(GEAR[b as usize]);
    let mut state = window[MIN_CHUNK - 64..MIN_CHUNK - 1].iter().fold(0, gear);
    for (i, b) in window[MIN_CHUNK - 1..].iter().enumerate() {
        state = gear(state, b);
        if state & BOUNDARY_MASK == 0 {
            return MIN_CHUNK + i;
        }
    }
    window.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv_fault::checksum::crc32;

    fn pseudo_random(len: usize, seed: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut s = seed;
        while out.len() < len {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            out.extend_from_slice(&s.to_le_bytes());
        }
        out.truncate(len);
        out
    }

    /// The two-pass hash the one-pass `chunk_id` replaced.
    fn reference_hash64(data: &[u8], seed: u64) -> u64 {
        let mut h = seed ^ (data.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut chunks = data.chunks_exact(8);
        for word in &mut chunks {
            let w = u64::from_le_bytes(word.try_into().unwrap());
            h = (h ^ w).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            h ^= h >> 29;
        }
        let mut tail = 0u64;
        for (i, b) in chunks.remainder().iter().enumerate() {
            tail |= (*b as u64) << (8 * i);
        }
        h = (h ^ tail).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^= h >> 32;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^ (h >> 29)
    }

    fn reference_chunk_id(data: &[u8]) -> ChunkId {
        let hi = reference_hash64(data, HI_SEED);
        let lo = reference_hash64(data, LO_SEED);
        ChunkId(((hi as u128) << 64) | lo as u128)
    }

    /// The byte-at-a-time split the skipping one replaced: the gear
    /// state is stepped, and both bounds tested, on every byte.
    fn reference_split(data: &[u8]) -> Vec<ChunkSpan> {
        let mut spans = Vec::new();
        let mut start = 0usize;
        let mut state = 0u64;
        let mut pos = 0usize;
        while pos < data.len() {
            state = (state << 1).wrapping_add(GEAR[data[pos] as usize]);
            pos += 1;
            let len = pos - start;
            if (len >= MIN_CHUNK && state & BOUNDARY_MASK == 0) || len >= MAX_CHUNK {
                spans.push(ChunkSpan {
                    id: reference_chunk_id(&data[start..pos]),
                    offset: start,
                    len,
                });
                start = pos;
                state = 0;
            }
        }
        if start < data.len() {
            spans.push(ChunkSpan {
                id: reference_chunk_id(&data[start..]),
                offset: start,
                len: data.len() - start,
            });
        }
        spans
    }

    #[test]
    fn split_matches_the_reference() {
        let random = pseudo_random(1 << 20, 5);
        // Byte index of the first boundary past `MIN_CHUNK` in `random`.
        let first_cut = reference_split(&random)[0].len;
        let mut at_min = random.clone();
        // Moving the chunk start `first_cut - MIN_CHUNK` bytes on puts
        // that boundary exactly at `MIN_CHUNK`.
        at_min.drain(..first_cut - MIN_CHUNK);
        let inputs = [
            Vec::new(),
            random[..1].to_vec(),
            random[..MIN_CHUNK - 1].to_vec(),
            random[..MIN_CHUNK].to_vec(),
            random[..MIN_CHUNK + 1].to_vec(),
            vec![0; 3 * MAX_CHUNK + 100],
            vec![0xA5; MAX_CHUNK],
            at_min.clone(),
            random.clone(),
        ];
        assert_eq!(split(&at_min)[0].len, MIN_CHUNK, "a cut at MIN_CHUNK");
        assert!(split(&inputs[5])
            .iter()
            .rev()
            .skip(1)
            .all(|s| s.len == MAX_CHUNK));
        for data in &inputs {
            assert_eq!(split(data), reference_split(data), "{} bytes", data.len());
        }
        for len in 0..=70 {
            assert_eq!(chunk_id(&random[..len]), reference_chunk_id(&random[..len]));
        }
    }

    /// Cut points and ids are stored in every chunk manifest already
    /// written, and dedup against them depends on their staying put.
    #[test]
    fn cuts_and_ids_are_pinned() {
        let spans = split(&pseudo_random(1 << 20, 39));
        let mut listed = Vec::new();
        for s in &spans {
            listed.extend_from_slice(&(s.offset as u64).to_le_bytes());
            listed.extend_from_slice(&(s.len as u64).to_le_bytes());
            listed.extend_from_slice(&s.id.0.to_le_bytes());
        }
        assert_eq!((spans.len(), crc32(&listed)), (94, 0xB78B_B8A7));
    }

    #[test]
    fn split_covers_input_exactly() {
        for len in [0usize, 1, 100, MIN_CHUNK, 100_000] {
            let data = pseudo_random(len, 7);
            let spans = split(&data);
            let mut cursor = 0;
            for span in &spans {
                assert_eq!(span.offset, cursor);
                assert!(span.len > 0 && span.len <= MAX_CHUNK);
                cursor += span.len;
            }
            assert_eq!(cursor, len);
        }
    }

    #[test]
    fn split_is_deterministic() {
        let data = pseudo_random(200_000, 42);
        assert_eq!(split(&data), split(&data));
    }

    #[test]
    fn random_data_cuts_near_expected_size() {
        let data = pseudo_random(1 << 20, 3);
        let spans = split(&data);
        let avg = data.len() / spans.len();
        assert!(
            (4 * 1024..24 * 1024).contains(&avg),
            "average chunk {avg} far from target"
        );
    }

    #[test]
    fn small_edit_leaves_most_chunks_shared() {
        let mut data = pseudo_random(1 << 19, 11);
        let before = split(&data);
        let mid = data.len() / 2;
        data[mid] ^= 0xFF;
        let after = split(&data);
        let before_ids: std::collections::HashSet<ChunkId> = before.iter().map(|s| s.id).collect();
        let shared = after.iter().filter(|s| before_ids.contains(&s.id)).count();
        assert!(
            shared * 10 >= after.len() * 8,
            "one-byte edit should keep >=80% of chunks: {shared}/{}",
            after.len()
        );
    }

    #[test]
    fn chunk_id_distinguishes_content() {
        assert_eq!(chunk_id(b"hello"), chunk_id(b"hello"));
        assert_ne!(chunk_id(b"hello"), chunk_id(b"hellp"));
        assert_ne!(chunk_id(b""), chunk_id(b"\0"));
        assert_ne!(chunk_id(b"\0"), chunk_id(b"\0\0"));
    }
}
