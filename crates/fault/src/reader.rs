//! The one checked reader for stored and wire bytes.
//!
//! Everything DejaView reads back — archives, the lsfs journal, sealed
//! segments, CAS root slots, checkpoint images, the live wire — is
//! untrusted, and every decoder reads it through [`Reader`]: a length is
//! checked before it is used, a count sizes an allocation only when the
//! bytes left could hold its entries, strings are borrowed and UTF-8
//! checked, [`Reader::finish`] refuses trailing bytes, and a failed read
//! leaves the reader where it was. Each format maps [`ReadError`] into
//! its own error type with `From`; [`Put`] is the write side.

/// Why a [`Reader`] refused a read.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReadError {
    /// Fewer bytes are left than the read — or a count's entries — need.
    Truncated,
    /// Bytes are left after the end of the format.
    Trailing,
    /// A length-prefixed string is not UTF-8.
    Utf8,
    /// The input does not open with the expected magic.
    Magic,
}

impl ReadError {
    /// A short description, for formats whose errors are strings.
    pub fn as_str(self) -> &'static str {
        match self {
            ReadError::Truncated => "truncated",
            ReadError::Trailing => "trailing bytes",
            ReadError::Utf8 => "invalid utf-8",
            ReadError::Magic => "bad magic",
        }
    }
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::error::Error for ReadError {}

/// A cursor over untrusted little-endian bytes. A fixed header is best
/// taken whole with [`Reader::array`] and its fields read from a reader
/// over that array: one length check, and the compiler sees the rest.
#[derive(Clone, Copy, Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Bytes not yet read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Whether every byte has been read.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The next `N` bytes.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<&'a [u8; N], ReadError> {
        let (head, rest) = self.buf.split_first_chunk().ok_or(ReadError::Truncated)?;
        self.buf = rest;
        Ok(head)
    }

    /// The next `n` bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], ReadError> {
        let (head, rest) = self.buf.split_at_checked(n).ok_or(ReadError::Truncated)?;
        self.buf = rest;
        Ok(head)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, ReadError> {
        self.array().map(|b| u8::from_le_bytes(*b))
    }

    /// One signed byte.
    #[inline]
    pub fn i8(&mut self) -> Result<i8, ReadError> {
        self.array().map(|b| i8::from_le_bytes(*b))
    }

    /// A little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, ReadError> {
        self.array().map(|b| u16::from_le_bytes(*b))
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, ReadError> {
        self.array().map(|b| u32::from_le_bytes(*b))
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, ReadError> {
        self.array().map(|b| u64::from_le_bytes(*b))
    }

    /// Bytes behind a `u32` length.
    #[inline]
    pub fn bytes_u32(&mut self) -> Result<&'a [u8], ReadError> {
        self.whole(|r| r.u32().and_then(|n| r.bytes(n as usize)))
    }

    /// Bytes behind a `u64` length.
    #[inline]
    pub fn bytes_u64(&mut self) -> Result<&'a [u8], ReadError> {
        self.whole(|r| r.u64().and_then(|n| r.bytes(saturating_usize(n))))
    }

    /// A UTF-8 string behind a `u32` length, borrowed from the input.
    #[inline]
    pub fn str_u32(&mut self) -> Result<&'a str, ReadError> {
        self.whole(|r| std::str::from_utf8(r.bytes_u32()?).map_err(|_| ReadError::Utf8))
    }

    /// A `u32` count of entries at least `min_entry_len` bytes each,
    /// refused when the bytes left could not hold that many — so the
    /// count may size a `Vec`.
    #[inline]
    pub fn count(&mut self, min_entry_len: usize) -> Result<usize, ReadError> {
        self.whole(|r| r.u32().and_then(|n| r.backed(n as usize, min_entry_len)))
    }

    /// [`Reader::count`] for a `u64` count.
    #[inline]
    pub fn count_u64(&mut self, min_entry_len: usize) -> Result<usize, ReadError> {
        self.whole(|r| {
            r.u64()
                .and_then(|n| r.backed(saturating_usize(n), min_entry_len))
        })
    }

    fn backed(&self, n: usize, min_entry_len: usize) -> Result<usize, ReadError> {
        match n.checked_mul(min_entry_len) {
            Some(need) if need <= self.buf.len() => Ok(n),
            _ => Err(ReadError::Truncated),
        }
    }

    /// Runs a read of several parts, advancing only if all of them
    /// succeed.
    #[inline]
    fn whole<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, ReadError>,
    ) -> Result<T, ReadError> {
        let mut r = *self;
        let value = read(&mut r)?;
        *self = r;
        Ok(value)
    }

    /// Steps over `magic`, or refuses an input that does not open with
    /// it.
    #[inline]
    pub fn magic(&mut self, magic: &[u8]) -> Result<(), ReadError> {
        self.buf = self.buf.strip_prefix(magic).ok_or(ReadError::Magic)?;
        Ok(())
    }

    /// Every byte not yet read.
    #[inline]
    pub fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.buf)
    }

    /// The bytes read since `mark`, an earlier copy of this reader.
    #[inline]
    pub fn since(&self, mark: Reader<'a>) -> &'a [u8] {
        &mark.buf[..mark.buf.len().saturating_sub(self.buf.len())]
    }

    /// Ends the format: refuses bytes left over.
    #[inline]
    pub fn finish(self) -> Result<(), ReadError> {
        match self.buf {
            [] => Ok(()),
            _ => Err(ReadError::Trailing),
        }
    }
}

/// A stored `u64` length or count as a `usize`; one past `usize::MAX`
/// could not be backed by any input anyway.
fn saturating_usize(n: u64) -> usize {
    usize::try_from(n).unwrap_or(usize::MAX)
}

/// The write side of [`Reader`]: little-endian appends.
pub trait Put {
    /// Appends `bytes` as they are.
    fn put(&mut self, bytes: &[u8]);

    /// Appends a little-endian `u16`.
    fn put_u16(&mut self, v: u16) {
        self.put(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }

    /// Appends `b` behind a `u32` length, as [`Reader::bytes_u32`] reads.
    fn put_bytes_u32(&mut self, b: &[u8]) {
        self.put_u32(b.len() as u32);
        self.put(b);
    }

    /// Appends `b` behind a `u64` length, as [`Reader::bytes_u64`] reads.
    fn put_bytes_u64(&mut self, b: &[u8]) {
        self.put_u64(b.len() as u64);
        self.put(b);
    }

    /// Appends `s` behind a `u32` length, as [`Reader::str_u32`] reads.
    fn put_str_u32(&mut self, s: &str) {
        self.put_bytes_u32(s.as_bytes());
    }
}

impl Put for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One of each read, in the layout [`Put`] writes.
    fn sample() -> Vec<u8> {
        let mut out = vec![7, 0xFB];
        out.put_u16(0x1234);
        out.put_u32(0xDEAD_BEEF);
        out.put_u64(0x0123_4567_89AB_CDEF);
        out.put_bytes_u32(b"abc");
        out.put_bytes_u64(b"de");
        out.put_str_u32("ф");
        out.put_u32(2); // count of two 3-byte entries
        out.extend_from_slice(b"xyzxyz");
        out.put_u64(1); // count of one 2-byte entry
        out.extend_from_slice(b"MG");
        out
    }

    /// Reads [`sample`] back, every method once.
    fn read_all(r: &mut Reader<'_>) -> Result<(), ReadError> {
        assert_eq!(r.u8()?, 7);
        assert_eq!(r.i8()?, -5);
        assert_eq!(r.u16()?, 0x1234);
        assert_eq!(r.u32()?, 0xDEAD_BEEF);
        assert_eq!(r.u64()?, 0x0123_4567_89AB_CDEF);
        assert_eq!(r.bytes_u32()?, b"abc");
        assert_eq!(r.bytes_u64()?, b"de");
        assert_eq!(r.str_u32()?, "ф");
        assert_eq!(r.count(3)?, 2);
        assert_eq!(r.bytes(3)?, b"xyz");
        assert_eq!(r.array::<3>()?, b"xyz");
        assert_eq!(r.count_u64(2)?, 1);
        r.magic(b"MG")?;
        Ok(())
    }

    #[test]
    fn every_method_reads_what_put_wrote() {
        let bytes = sample();
        let mut r = Reader::new(&bytes);
        read_all(&mut r).unwrap();
        assert!(r.is_empty());
        r.finish().unwrap();
    }

    type Read = fn(&mut Reader<'_>) -> Result<(), ReadError>;

    /// Every method, on every proper prefix of its own encoding, errors
    /// and leaves the reader where it was; the whole sample cut anywhere
    /// is refused.
    #[test]
    fn a_failed_read_never_advances() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            assert!(
                read_all(&mut Reader::new(&bytes[..cut])).is_err(),
                "cut {cut}"
            );
        }
        let cases: [(&[u8], Read); 9] = [
            (&[1, 2], |r| r.u16().map(drop)),
            (&[1, 2, 3, 4], |r| r.u32().map(drop)),
            (&[1; 8], |r| r.u64().map(drop)),
            (&[3, 0, 0, 0, b'a', b'b', b'c'], |r| r.bytes_u32().map(drop)),
            (&[1, 0, 0, 0, 0, 0, 0, 0, b'a'], |r| r.bytes_u64().map(drop)),
            (&[1, 0, 0, 0, b'a'], |r| r.str_u32().map(drop)),
            (&[1, 0, 0, 0, 9, 9], |r| r.count(2).map(drop)),
            (&[1, 0, 0, 0, 0, 0, 0, 0, 9], |r| r.count_u64(1).map(drop)),
            (b"MAGIC", |r| r.magic(b"MAGIC")),
        ];
        for (encoded, read) in cases {
            for cut in 0..encoded.len() {
                let mut r = Reader::new(&encoded[..cut]);
                assert!(read(&mut r).is_err(), "{encoded:?} cut at {cut}");
                assert_eq!(r.remaining(), cut, "{encoded:?} cut at {cut} advanced");
            }
            let mut r = Reader::new(encoded);
            read(&mut r).unwrap();
        }
    }

    #[test]
    fn a_count_its_entries_cannot_back_is_refused() {
        let mut bytes = Vec::new();
        bytes.put_u32(3);
        bytes.extend_from_slice(&[0; 11]);
        assert_eq!(Reader::new(&bytes).count(4), Err(ReadError::Truncated));
        assert_eq!(Reader::new(&bytes).count(3), Ok(3));
        bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Reader::new(&bytes).count(1), Err(ReadError::Truncated));
        let mut wide = Vec::new();
        wide.put_u64(u64::MAX);
        assert_eq!(Reader::new(&wide).count_u64(1), Err(ReadError::Truncated));
        // A count times an entry length past `usize::MAX` is refused, not
        // wrapped into a small product.
        wide[..8].copy_from_slice(&(1u64 << 62).to_le_bytes());
        assert_eq!(Reader::new(&wide).count_u64(8), Err(ReadError::Truncated));
        let mut huge_len = Vec::new();
        huge_len.put_u64(u64::MAX);
        assert_eq!(
            Reader::new(&huge_len).bytes_u64(),
            Err(ReadError::Truncated)
        );
    }

    #[test]
    fn finish_refuses_trailing_bytes() {
        assert_eq!(Reader::new(&[]).finish(), Ok(()));
        let mut r = Reader::new(&[1, 2]);
        r.u8().unwrap();
        assert_eq!(r.finish(), Err(ReadError::Trailing));
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(r.rest(), &[1, 2]);
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn strings_are_checked_and_magics_matched() {
        let mut bad = Vec::new();
        bad.put_bytes_u32(&[0xFF, 0xFE]);
        let mut r = Reader::new(&bad);
        assert_eq!(r.str_u32(), Err(ReadError::Utf8));
        assert_eq!(r.remaining(), bad.len(), "a refused string is not consumed");
        let mut r = Reader::new(b"DVXX0001rest");
        assert_eq!(r.magic(b"DVYY0001"), Err(ReadError::Magic));
        r.magic(b"DVXX0001").unwrap();
        assert_eq!(r.rest(), b"rest");
    }

    #[test]
    fn since_returns_the_bytes_read_after_a_mark() {
        let bytes = [1u8, 2, 3, 4, 5];
        let mut r = Reader::new(&bytes);
        r.u8().unwrap();
        let mark = r;
        r.u16().unwrap();
        assert_eq!(r.since(mark), &[2, 3]);
        assert_eq!(mark.since(r), &[] as &[u8], "a later mark reads nothing");
    }
}
