//! Checkpoint image compression.
//!
//! "Since process checkpoint state is easily compressible" (§6, Figure
//! 4), images can be stored compressed. A byte-level run-length encoding
//! is used: process memory is dominated by zero pages and repeated
//! fill patterns, which RLE captures at a fraction of gzip's CPU cost —
//! the trade-off the paper's storage analysis assumes is cheap enough to
//! run online.
//!
//! Format: a stream of chunks, either `[0x00][len u32][literal bytes]`
//! or `[0x01][len u32][byte]` (a run).
//!
//! [`compress`] is the per-section codec: the commit pipeline compresses
//! the sections of an image (header, one per process, sockets) one
//! subtask each, and frames the results in a *chunked container* — the
//! one format a compressed image is stored in:
//! `[0x02][chunk count u32]` then, per chunk,
//! `[compressed len u32][compressed RLE stream]`. Decompressing the
//! container concatenates the chunks' plaintexts, so it is
//! interchangeable with a plain stream over the concatenated input.
//! The leading `0x02` cannot open a plain stream (whose chunks start
//! `0x00`/`0x01`), so [`decompress`] auto-detects the format.

/// Minimum run length worth encoding as a run chunk.
const MIN_RUN: usize = 8;

/// Compresses `data`.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 4 + 16);
    let mut literal_start = 0;
    let mut i = 0;
    while i < data.len() {
        // Measure the run at i.
        let b = data[i];
        let mut j = i + 1;
        while j < data.len() && data[j] == b {
            j += 1;
        }
        let run = j - i;
        if run >= MIN_RUN {
            flush_literal(&mut out, &data[literal_start..i]);
            out.push(0x01);
            out.extend_from_slice(&(run as u32).to_le_bytes());
            out.push(b);
            i = j;
            literal_start = i;
        } else {
            i = j;
        }
    }
    flush_literal(&mut out, &data[literal_start..]);
    out
}

fn flush_literal(out: &mut Vec<u8>, lit: &[u8]) {
    if lit.is_empty() {
        return;
    }
    out.push(0x00);
    out.extend_from_slice(&(lit.len() as u32).to_le_bytes());
    out.extend_from_slice(lit);
}

/// Largest output [`decompress`] will produce; corrupt run lengths must
/// not drive unbounded allocation. Checkpoint images are far smaller.
pub const MAX_DECOMPRESSED: usize = 1 << 30;

/// Frames independently [`compress`]ed chunks into one container blob.
/// [`decompress`] of the result yields the concatenation of the chunks'
/// plaintexts.
pub fn assemble_chunks(chunks: &[Vec<u8>]) -> Vec<u8> {
    let total: usize = chunks.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(5 + chunks.len() * 4 + total);
    out.push(0x02);
    out.extend_from_slice(&(chunks.len() as u32).to_le_bytes());
    for chunk in chunks {
        out.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
        out.extend_from_slice(chunk);
    }
    out
}

/// Decompresses a [`compress`] stream or an [`assemble_chunks`]
/// container (auto-detected by the leading byte).
///
/// Returns `None` on malformed input or if the output would exceed
/// [`MAX_DECOMPRESSED`].
pub fn decompress(data: &[u8]) -> Option<Vec<u8>> {
    if data.first() == Some(&0x02) {
        return decompress_container(&data[1..]);
    }
    let mut out = Vec::new();
    decompress_stream(&mut out, data)?;
    Some(out)
}

fn decompress_container(mut data: &[u8]) -> Option<Vec<u8>> {
    if data.len() < 4 {
        return None;
    }
    let count = u32::from_le_bytes(data[..4].try_into().ok()?) as usize;
    data = &data[4..];
    let mut out = Vec::new();
    for _ in 0..count {
        if data.len() < 4 {
            return None;
        }
        let len = u32::from_le_bytes(data[..4].try_into().ok()?) as usize;
        data = &data[4..];
        if data.len() < len {
            return None;
        }
        decompress_stream(&mut out, &data[..len])?;
        data = &data[len..];
    }
    if !data.is_empty() {
        return None;
    }
    Some(out)
}

fn decompress_stream(out: &mut Vec<u8>, mut data: &[u8]) -> Option<()> {
    while !data.is_empty() {
        if data.len() < 5 {
            return None;
        }
        let tag = data[0];
        let len = u32::from_le_bytes(data[1..5].try_into().ok()?) as usize;
        data = &data[5..];
        if out.len().saturating_add(len) > MAX_DECOMPRESSED {
            return None;
        }
        match tag {
            0x00 => {
                if data.len() < len {
                    return None;
                }
                out.extend_from_slice(&data[..len]);
                data = &data[len..];
            }
            0x01 => {
                if data.is_empty() {
                    return None;
                }
                out.extend(std::iter::repeat_n(data[0], len));
                data = &data[1..];
            }
            _ => return None,
        }
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        for data in [
            Vec::new(),
            vec![1, 2, 3],
            vec![0; 10_000],
            (0..255u8).collect::<Vec<u8>>(),
            [vec![7; 100], (0..50).collect(), vec![0; 4096]].concat(),
        ] {
            assert_eq!(decompress(&compress(&data)).unwrap(), data);
        }
    }

    #[test]
    fn zero_pages_compress_hard() {
        let page = vec![0u8; 4096];
        let compressed = compress(&page);
        assert!(compressed.len() < 16);
    }

    #[test]
    fn incompressible_data_grows_bounded() {
        let data: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        let compressed = compress(&data);
        assert!(compressed.len() <= data.len() + data.len() / 100 + 64);
        assert_eq!(decompress(&compressed).unwrap(), data);
    }

    #[test]
    fn short_runs_stay_literal() {
        let data = vec![1, 1, 1, 2, 2, 3];
        let compressed = compress(&data);
        assert_eq!(compressed[0], 0x00, "no run chunk for short runs");
        assert_eq!(decompress(&compressed).unwrap(), data);
    }

    #[test]
    fn garbage_rejected() {
        assert!(decompress(&[9, 9, 9]).is_none());
        assert!(decompress(&[0x00, 255, 0, 0, 0, 1]).is_none());
        assert!(decompress(&[0x01, 1, 0, 0, 0]).is_none());
    }

    #[test]
    fn chunked_container_round_trips_to_concatenation() {
        let sections = [
            vec![0u8; 5000],
            (0..200u8).collect::<Vec<u8>>(),
            Vec::new(),
            vec![7u8; 64],
        ];
        let chunks: Vec<Vec<u8>> = sections.iter().map(|s| compress(s)).collect();
        let container = assemble_chunks(&chunks);
        assert_eq!(container[0], 0x02);
        assert_eq!(decompress(&container).unwrap(), sections.concat());
    }

    #[test]
    fn malformed_containers_rejected() {
        assert!(decompress(&[0x02]).is_none(), "truncated count");
        assert!(
            decompress(&[0x02, 1, 0, 0, 0]).is_none(),
            "missing chunk header"
        );
        assert!(
            decompress(&[0x02, 1, 0, 0, 0, 9, 0, 0, 0, 0x00]).is_none(),
            "chunk shorter than its length"
        );
        let good = assemble_chunks(&[compress(&[1, 2, 3])]);
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(decompress(&trailing).is_none(), "trailing bytes");
        assert_eq!(decompress(&good).unwrap(), vec![1, 2, 3]);
        assert_eq!(
            decompress(&assemble_chunks(&[])).unwrap(),
            Vec::<u8>::new(),
            "empty container is the empty plaintext"
        );
    }
}
