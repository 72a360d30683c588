//! Checkpoint image compression.
//!
//! "Since process checkpoint state is easily compressible" (§6, Figure
//! 4), images can be stored compressed. A byte-level run-length encoding
//! is used: process memory is dominated by zero pages and repeated
//! fill patterns, which RLE captures at a fraction of gzip's CPU cost —
//! the trade-off the paper's storage analysis assumes is cheap enough to
//! run online.
//!
//! Format: a stream of tokens (chunks), either
//! `[0x00][len u32][literal bytes]` or `[0x01][len u32][byte]` (a run).
//! Tokens delimit themselves, so two streams joined end to end are the
//! stream of their plaintexts joined: the commit pipeline compresses an
//! image's sections (header, one per process, sockets) one at a time
//! and stores their concatenation, one stream whose plaintext is the
//! raw image.
//!
//! Revive does not decompress: it reads an image through an
//! `RleCursor`, which copies the plaintext of the pages it keeps
//! straight into their buffers and steps over the others by the token
//! headers alone, checking everything [`decompress`] checks.

use dv_fault::{Put, Reader};

/// Minimum run length worth encoding as a run chunk.
const MIN_RUN: usize = 8;

/// Compresses `data`: a run chunk for every maximal run of at least
/// eight equal bytes, literal chunks between them.
///
/// The scan works a word at a time. Every run of eight or more bytes
/// wholly contains a 4-byte group starting at a multiple of 4, so one
/// `u64` load tests two groups for four equal bytes, and a hit backs up
/// at most three bytes to the start of its run.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 4 + 16);
    let mut literal_start = 0;
    // The end of the last run measured: no run starts before it.
    let mut floor = 0;
    while let Some(group) = next_equal_group(data, floor) {
        let b = data[group];
        let mut start = group;
        while start > group.saturating_sub(3).max(floor) && data[start - 1] == b {
            start -= 1;
        }
        let end = run_end(data, group + 4, b);
        if end - start >= MIN_RUN {
            flush_literal(&mut out, &data[literal_start..start]);
            out.push(0x01);
            out.extend_from_slice(&((end - start) as u32).to_le_bytes());
            out.push(b);
            literal_start = end;
        }
        floor = end;
    }
    flush_literal(&mut out, &data[literal_start..]);
    out
}

/// Start of the first 4-byte group of equal bytes that begins at a
/// multiple of 4 no lower than `from`.
fn next_equal_group(data: &[u8], from: usize) -> Option<usize> {
    let mut group = from.next_multiple_of(4);
    while let Some(word) = data.get(group..group + 8) {
        let x = u64::from_le_bytes(word.try_into().expect("8 bytes"));
        // Byte k of `diff` is zero when bytes k and k + 1 are equal.
        let diff = x ^ (x >> 8);
        if diff & 0x00FF_FFFF == 0 {
            return Some(group);
        }
        if diff & 0x00FF_FFFF_0000_0000 == 0 {
            return Some(group + 4);
        }
        group += 8;
    }
    let tail = data.get(group..group + 4)?;
    tail.iter().all(|&c| c == tail[0]).then_some(group)
}

/// End of the run of `b` that reaches `from`.
fn run_end(data: &[u8], mut from: usize, b: u8) -> usize {
    let fill = u64::from_ne_bytes([b; 8]);
    while let Some(word) = data.get(from..from + 8) {
        let diff = u64::from_le_bytes(word.try_into().expect("8 bytes")) ^ fill;
        if diff != 0 {
            return from + diff.trailing_zeros() as usize / 8;
        }
        from += 8;
    }
    from + data[from..].iter().take_while(|&&c| c == b).count()
}

fn flush_literal(out: &mut Vec<u8>, lit: &[u8]) {
    if lit.is_empty() {
        return;
    }
    out.push(0x00);
    out.put_bytes_u32(lit);
}

/// Largest output [`decompress`] will produce; corrupt run lengths must
/// not drive unbounded allocation. Checkpoint images are far smaller.
pub const MAX_DECOMPRESSED: usize = 1 << 30;

/// Decompresses a [`compress`] stream, or several joined end to end.
///
/// Returns `None` on malformed input or if the output would exceed
/// [`MAX_DECOMPRESSED`].
pub fn decompress(data: &[u8]) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    let mut r = Reader::new(data);
    while !r.is_empty() {
        let &[tag, l0, l1, l2, l3] = r.array().ok()?;
        let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
        if out.len().saturating_add(len) > MAX_DECOMPRESSED {
            return None;
        }
        match tag {
            0x00 => out.extend_from_slice(r.bytes(len).ok()?),
            0x01 => out.extend(std::iter::repeat_n(r.u8().ok()?, len)),
            _ => return None,
        }
    }
    Some(out)
}

/// How far a short chunk may be copied past its end in one move: a
/// literal or run of at most this many bytes is written as exactly this
/// many when the destination (and, for a literal, the stream) has room,
/// and the bytes past its end are overwritten by the chunks after it.
const SLACK: usize = 64;

/// Why an [`RleCursor`] stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum CursorError {
    /// The plaintext ended first.
    End,
    /// The compressed bytes are malformed: anything [`decompress`]
    /// refuses.
    Corrupt,
}

/// A checked cursor over the plaintext of a [`compress`] stream, read
/// without building it: `read` copies literals and splats runs into the
/// caller's buffer, and `skip` steps over plaintext by the token
/// headers alone. A token is checked when it is reached, so a cursor
/// refuses everything [`decompress`] does once it has been read (or
/// drained) to the end.
#[derive(Clone)]
pub(crate) struct RleCursor<'a> {
    /// The stream from the current token's next byte on: a literal's
    /// unread bytes lead it.
    stream: &'a [u8],
    /// The current token's byte if it is a run, `None` for a literal.
    run: Option<u8>,
    /// Bytes of the current token not yet read.
    left: usize,
    /// Plaintext declared by the tokens reached so far.
    declared: usize,
}

impl<'a> RleCursor<'a> {
    /// A cursor at the start of `data`'s plaintext.
    pub(crate) fn new(data: &'a [u8]) -> Self {
        RleCursor {
            stream: data,
            run: None,
            left: 0,
            declared: 0,
        }
    }

    /// Plaintext bytes read or skipped so far.
    pub(crate) fn position(&self) -> usize {
        self.declared - self.left
    }

    /// Plaintext declared by the tokens reached so far.
    #[cfg(test)]
    pub(crate) fn declared(&self) -> usize {
        self.declared
    }

    /// Moves to the next token that holds plaintext.
    fn next_token(&mut self) -> Result<(), CursorError> {
        use CursorError::{Corrupt, End};
        while self.left == 0 {
            if self.stream.is_empty() {
                return Err(End);
            }
            let (&[tag, l0, l1, l2, l3], rest) = self.stream.split_first_chunk().ok_or(Corrupt)?;
            let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
            if self.declared.saturating_add(len) > MAX_DECOMPRESSED {
                return Err(Corrupt);
            }
            (self.run, self.stream) = match (tag, rest) {
                (0x00, rest) if rest.len() >= len => (None, rest),
                (0x01, [b, rest @ ..]) => (Some(*b), rest),
                _ => return Err(Corrupt),
            };
            self.declared += len;
            self.left = len;
        }
        Ok(())
    }

    /// Fills `out` with the next plaintext bytes.
    pub(crate) fn read(&mut self, mut out: &mut [u8]) -> Result<(), CursorError> {
        loop {
            let n = self.left.min(out.len());
            put(out, n, self.run, self.stream);
            self.consume(n);
            out = &mut out[n..];
            if out.is_empty() {
                return Ok(());
            }
            self.pass(out.len(), |len, run, rest| {
                put(out, len, run, rest);
                out = &mut std::mem::take(&mut out)[len..];
            })?;
        }
    }

    /// Steps over the next `n` plaintext bytes, reading only the headers
    /// of the tokens it passes.
    pub(crate) fn skip(&mut self, mut n: usize) -> Result<(), CursorError> {
        loop {
            let k = self.left.min(n);
            self.consume(k);
            n -= k;
            if n == 0 {
                return Ok(());
            }
            n -= self.pass(n, |_, _, _| {})?;
        }
    }

    /// From a token edge, hands `each` the whole tokens that end before
    /// the `n`th byte — length, run byte (`None` for a literal) and the
    /// bytes after the header — straight off the stream, and opens the
    /// token after them; returns the bytes passed. The stream's end, or
    /// a token past the limit or malformed, is left to
    /// [`RleCursor::next_token`].
    #[inline(always)]
    fn pass(
        &mut self,
        n: usize,
        mut each: impl FnMut(usize, Option<u8>, &[u8]),
    ) -> Result<usize, CursorError> {
        let (mut stream, mut passed) = (self.stream, 0);
        let limit = MAX_DECOMPRESSED - self.declared;
        while let Some((&[tag, l0, l1, l2, l3], rest)) = stream.split_first_chunk() {
            let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
            let body = if tag == 0 { len } else { 1 };
            if tag > 1 || rest.len() < body || len > limit - passed {
                break;
            }
            let run = (tag == 1).then(|| rest[0]);
            if passed + len >= n {
                self.run = run;
                self.left = len;
                // A literal's bytes stay at the front of the stream.
                self.stream = &rest[usize::from(run.is_some())..];
                self.declared += passed + len;
                return Ok(passed);
            }
            each(len, run, rest);
            passed += len;
            stream = &rest[body..];
        }
        (self.stream, self.declared) = (stream, self.declared + passed);
        self.next_token()?;
        Ok(passed)
    }

    /// Takes `k` bytes, at most `left`, off the current token.
    fn consume(&mut self, k: usize) {
        if self.run.is_none() {
            self.stream = &self.stream[k..];
        }
        self.left -= k;
    }

    /// Steps over the rest of the plaintext: its whole length, or `None`
    /// if the bytes behind the cursor are malformed.
    pub(crate) fn drain(&mut self) -> Option<usize> {
        // No stream holds `usize::MAX` bytes: only its end or a
        // malformed token stops this skip.
        match self.skip(usize::MAX) {
            Err(CursorError::End) => Some(self.declared),
            Ok(()) | Err(CursorError::Corrupt) => None,
        }
    }
}

/// Writes `n` bytes of a token to the front of `out`: its run byte, or
/// the front of `literal`. A short token is written as [`SLACK`] bytes
/// when `out` (and `literal`) have room.
#[inline(always)]
fn put(out: &mut [u8], n: usize, run: Option<u8>, literal: &[u8]) {
    let short = n <= SLACK && out.len() >= SLACK;
    match run {
        Some(b) if short => out[..SLACK].fill(b),
        Some(b) => out[..n].fill(b),
        None if short && literal.len() >= SLACK => out[..SLACK].copy_from_slice(&literal[..SLACK]),
        None => out[..n].copy_from_slice(&literal[..n]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv_fault::checksum::crc32;

    /// Runs of 1 to 64 equal bytes, each followed by 0 to 63 bytes of
    /// noise: the shape of a build heap.
    fn run_noise(len: usize, seed: u64) -> Vec<u8> {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut out = Vec::with_capacity(len + 128);
        while out.len() < len {
            let r = next();
            out.extend(std::iter::repeat_n(r as u8, 1 + (r >> 8) as usize % 64));
            for _ in 0..(r >> 16) % 64 {
                out.push(next() as u8);
            }
        }
        out.truncate(len);
        out
    }

    fn incompressible(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect()
    }

    /// The byte-at-a-time scan the word kernel replaced.
    fn reference_compress(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len() / 4 + 16);
        let mut literal_start = 0;
        let mut i = 0;
        while i < data.len() {
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
                literal_start = j;
            }
            i = j;
        }
        flush_literal(&mut out, &data[literal_start..]);
        out
    }

    fn assert_matches_reference(data: &[u8]) {
        assert_eq!(compress(data), reference_compress(data), "input {data:?}");
    }

    #[test]
    fn runs_at_every_offset_match_the_reference() {
        let noise = incompressible(300);
        for len in 0..=300 {
            assert_matches_reference(&noise[..len]);
            assert_matches_reference(&vec![5; len]);
            for run in [7, 8, 9] {
                for at in 0..len.saturating_sub(run) {
                    let mut data = noise[..len].to_vec();
                    data[at..at + run].fill(0xAA);
                    assert_matches_reference(&data);
                    // A short run of another byte right before it.
                    data[at.saturating_sub(4)..at].fill(0xBB);
                    assert_matches_reference(&data);
                }
            }
        }
    }

    #[test]
    fn runs_touching_either_end_match_the_reference() {
        for len in 8..=40 {
            for run in 1..=len {
                let mut data = incompressible(len);
                data[..run].fill(0);
                assert_matches_reference(&data);
                let mut data = incompressible(len);
                data[len - run..].fill(0);
                assert_matches_reference(&data);
            }
        }
    }

    #[test]
    fn megabyte_run_noise_matches_the_reference() {
        for seed in 1..=4 {
            assert_matches_reference(&run_noise(1 << 20, seed));
        }
    }

    /// The stored format: these bytes are in every compressed image
    /// already written.
    #[test]
    fn output_is_pinned() {
        let mixed = compress(&run_noise(1 << 16, 39));
        assert_eq!((mixed.len(), crc32(&mixed)), (41_866, 0xB8E9_4EFC));
        let literal = compress(&incompressible(4096));
        assert_eq!(literal.len(), 4096 + 5, "one literal chunk");
        assert_eq!(crc32(&literal), 0x6C30_1574);
    }

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
        let data = incompressible(4096);
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

    /// How an image is stored: its sections compressed one at a time
    /// and joined end to end.
    #[test]
    fn joined_streams_decompress_to_the_joined_plaintext() {
        let sections = [
            vec![0u8; 5000],
            (0..200u8).collect::<Vec<u8>>(),
            Vec::new(),
            vec![7u8; 64],
        ];
        let joined: Vec<u8> = sections.iter().flat_map(|s| compress(s)).collect();
        assert_eq!(decompress(&joined).unwrap(), sections.concat());
    }

    /// The chunked container older builds framed images in — `0x02`, a
    /// chunk count, then length-prefixed streams — is not a stream: no
    /// token opens with `0x02`.
    #[test]
    fn malformed_containers_rejected() {
        let stream = compress(&[1, 2, 3]);
        let container = [
            &[0x02, 1, 0, 0, 0][..],
            &(stream.len() as u32).to_le_bytes(),
            &stream,
        ]
        .concat();
        for bad in [&[0x02][..], &[0x02, 0, 0, 0, 0], &container] {
            assert!(decompress(bad).is_none(), "{bad:02x?}");
            assert_eq!(RleCursor::new(bad).drain(), None, "{bad:02x?}");
        }
        assert_eq!(decompress(&stream).unwrap(), vec![1, 2, 3]);
    }

    /// Compressed forms of `data`: one stream, and streams of pieces cut
    /// at every `cut` bytes of plaintext joined end to end (so tokens end
    /// wherever the cuts fall).
    fn forms(data: &[u8]) -> Vec<Vec<u8>> {
        let mut forms = vec![compress(data)];
        for cut in [1, 7, 100, 4096] {
            forms.push(data.chunks(cut).flat_map(compress).collect());
        }
        forms
    }

    /// The plaintext a cursor reads from `data`, checked to its end.
    fn cursor_plaintext(data: &[u8]) -> Option<Vec<u8>> {
        let mut cursor = RleCursor::new(data);
        let mut out = vec![0; cursor.clone().drain()?];
        cursor.read(&mut out).ok()?;
        Some(out)
    }

    /// A cursor reads what `decompress` makes of a valid stream and of
    /// each of its damaged versions, and refuses what it refuses.
    #[test]
    fn cursor_matches_decompress_on_damaged_input() {
        let mut seed = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let samples = [
            run_noise(3000, 7),
            incompressible(300),
            vec![0; 5000],
            Vec::new(),
        ];
        for sample in &samples {
            for form in forms(sample) {
                assert_eq!(cursor_plaintext(&form).as_deref(), Some(&sample[..]));
                for cut in 0..form.len().min(64) {
                    let cut = &form[..form.len() - cut];
                    assert_eq!(cursor_plaintext(cut), decompress(cut));
                }
                for _ in 0..200 {
                    let mut bad = form.clone();
                    for _ in 0..1 + next() % 3 {
                        if bad.is_empty() {
                            break;
                        }
                        let at = next() as usize % bad.len();
                        bad[at] = next() as u8;
                    }
                    // A changed length byte can declare up to a GiB, which
                    // both would build. Those are left to the limit case
                    // below.
                    let mut cursor = RleCursor::new(&bad);
                    cursor.drain();
                    let declared = cursor.declared();
                    if declared <= 1 << 16 {
                        assert_eq!(cursor_plaintext(&bad), decompress(&bad), "{bad:02x?}");
                    }
                }
            }
        }
        for bad in [
            &[0x00, 0, 0, 0, 0x40][..],
            &[0x01, 0, 0, 0, 0x40],
            &[0x00, 0, 0, 0, 0],
            &[0x02, 0, 0, 0, 0, 0],
            &[0x02, 1, 0, 0, 0, 0, 0, 0, 0],
            // One byte past the limit.
            &[0x01, 1, 0, 0, 0x40, 7],
        ] {
            assert_eq!(cursor_plaintext(bad), decompress(bad), "{bad:02x?}");
        }
    }

    /// Any sequence of reads and skips sees the plaintext, whatever the
    /// token edges, and ends where the plaintext does.
    #[test]
    fn cursor_reads_and_skips_across_every_edge() {
        let mut data = run_noise(6000, 3);
        data.extend_from_slice(&[9; 40]);
        data.extend_from_slice(&incompressible(50));
        for form in forms(&data) {
            for step in [1, 7, 8, 9, 31, 32, 33, 4096] {
                for skip_every in [2, 3] {
                    let mut cursor = RleCursor::new(&form);
                    let mut at = 0;
                    let mut i = 0;
                    while at < data.len() {
                        let n = step.min(data.len() - at);
                        if i % skip_every == 0 {
                            cursor.skip(n).unwrap();
                        } else {
                            let mut out = vec![0xEE; n];
                            cursor.read(&mut out).unwrap();
                            assert_eq!(out, &data[at..at + n], "step {step} at {at}");
                        }
                        at += n;
                        i += 1;
                        assert_eq!(cursor.position(), at);
                    }
                    assert_eq!(cursor.clone().read(&mut [0]), Err(CursorError::End));
                    assert_eq!(cursor.clone().skip(1), Err(CursorError::End));
                    assert_eq!(cursor.drain(), Some(data.len()));
                }
            }
        }
    }
}
