//! Index persistence.
//!
//! Serializes a [`TextIndex`] to a flat binary segment and back. The
//! inverted postings are not stored — they are rebuilt from the instance
//! records on load, which keeps the format simple and the invariant
//! "postings are derived state" explicit. Because the records are
//! stored sorted by id, encoded segments also merge without being
//! loaded at all ([`merge_segments`]).
//!
//! ```text
//! DVIDX001  horizon u64  count u64
//! count x   id u64  app_id u32  app, window, role, text (u32 len + utf-8)
//!           shown u64  hidden (0 | 1 + u64)  annotation u8
//! focus     count u64, then count x (app_id u32, gained_at u64)
//! ```
//!
//! `scan` is the only reader of that layout.

use bytes::{Buf, BufMut};

use dv_fault::FaultPlane;
use dv_time::Timestamp;

use crate::index::{IndexedInstance, TextIndex};

const MAGIC: &[u8; 8] = b"DVIDX001";

/// A decoding error.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StoreError(pub &'static str);

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "index store error: {}", self.0)
    }
}

impl std::error::Error for StoreError {}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.put_u32_le(s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn get_str<'a>(buf: &mut &'a [u8]) -> Result<&'a str, StoreError> {
    if buf.len() < 4 {
        return Err(StoreError("truncated string length"));
    }
    let len = buf.get_u32_le() as usize;
    if buf.len() < len {
        return Err(StoreError("truncated string body"));
    }
    let (s, rest) = buf.split_at(len);
    *buf = rest;
    std::str::from_utf8(s).map_err(|_| StoreError("invalid utf-8"))
}

fn put_header(out: &mut Vec<u8>, horizon: Timestamp, instances: usize) {
    out.extend_from_slice(MAGIC);
    out.put_u64_le(horizon.as_nanos());
    out.put_u64_le(instances as u64);
}

fn put_focus(out: &mut Vec<u8>, focus: &[(u32, Timestamp)]) {
    out.put_u64_le(focus.len() as u64);
    for (app, t) in focus {
        out.put_u32_le(*app);
        out.put_u64_le(t.as_nanos());
    }
}

/// Serializes the index.
pub fn encode_index(index: &TextIndex) -> Vec<u8> {
    let mut out = Vec::new();
    let mut instances: Vec<&IndexedInstance> = index.all_instances().collect();
    instances.sort_by_key(|i| i.id);
    put_header(&mut out, index.horizon(), instances.len());
    for inst in instances {
        out.put_u64_le(inst.id);
        out.put_u32_le(inst.app_id);
        put_str(&mut out, &inst.app);
        put_str(&mut out, &inst.window);
        put_str(&mut out, &inst.role);
        put_str(&mut out, &inst.text);
        out.put_u64_le(inst.shown.as_nanos());
        match inst.hidden {
            Some(t) => {
                out.put_u8(1);
                out.put_u64_le(t.as_nanos());
            }
            None => out.put_u8(0),
        }
        out.put_u8(inst.annotation as u8);
    }
    put_focus(&mut out, index.focus_history());
    out
}

/// Passes an encoded segment through the fault plane at site
/// `index.segment.flush`.
///
/// `Enospc`/`TornWrite`/`ShortRead` fail the flush (nothing usable is
/// produced); `Corrupt` yields a full-length segment with one mangled
/// byte and reports success — [`decode_index`] catches it on reload.
pub fn flush_encoded(mut out: Vec<u8>, plane: &FaultPlane) -> Result<Vec<u8>, StoreError> {
    use dv_fault::{sites, IoFault};
    match plane.check(sites::INDEX_SEGMENT_FLUSH) {
        None | Some(IoFault::LatencySpike) => Ok(out),
        Some(IoFault::Enospc) => Err(StoreError("no space left for index segment")),
        Some(IoFault::TornWrite) | Some(IoFault::ShortRead) => {
            Err(StoreError("index segment flush failed"))
        }
        Some(IoFault::Corrupt) => {
            plane.mangle(&mut out);
            Ok(out)
        }
    }
}

/// Serializes the index as a flushable segment through
/// [`flush_encoded`].
pub fn flush_segment(index: &TextIndex, plane: &FaultPlane) -> Result<Vec<u8>, StoreError> {
    let obs = index.obs().clone();
    let _span = obs.span("index", dv_obs::names::INDEX_FLUSH);
    let result = flush_encoded(encode_index(index), plane);
    if result.is_ok() {
        obs.incr(dv_obs::names::INDEX_FLUSHES);
    }
    result
}

/// One instance record of an encoded index, borrowed from its bytes.
struct Record<'a> {
    id: u64,
    app_id: u32,
    app: &'a str,
    window: &'a str,
    role: &'a str,
    text: &'a str,
    shown: Timestamp,
    hidden: Option<Timestamp>,
    annotation: bool,
    /// The record exactly as stored, id through annotation byte.
    bytes: &'a [u8],
}

/// An encoded index with every length, string, flag and the trailing
/// bytes checked.
struct Scanned<'a> {
    /// What the index's horizon is once loaded: the stored one, or any
    /// later time a record or focus entry carries.
    horizon: Timestamp,
    /// Instance records in stored order.
    records: Vec<Record<'a>>,
    focus: Vec<(u32, Timestamp)>,
}

/// Validates an encoded index. No allocation is sized by a stored
/// count: each entry is pushed only after its bytes were found.
fn scan(mut buf: &[u8]) -> Result<Scanned<'_>, StoreError> {
    if buf.len() < 8 || &buf[..8] != MAGIC {
        return Err(StoreError("bad magic"));
    }
    buf.advance(8);
    if buf.len() < 16 {
        return Err(StoreError("truncated header"));
    }
    let mut horizon = Timestamp::from_nanos(buf.get_u64_le());
    let count = buf.get_u64_le();
    let mut records = Vec::new();
    for _ in 0..count {
        let start = buf;
        if buf.len() < 12 {
            return Err(StoreError("truncated instance"));
        }
        let id = buf.get_u64_le();
        let app_id = buf.get_u32_le();
        let app = get_str(&mut buf)?;
        let window = get_str(&mut buf)?;
        let role = get_str(&mut buf)?;
        let text = get_str(&mut buf)?;
        if buf.len() < 9 {
            return Err(StoreError("truncated instance times"));
        }
        let shown = Timestamp::from_nanos(buf.get_u64_le());
        let hidden = match buf.get_u8() {
            0 => None,
            1 => {
                if buf.len() < 8 {
                    return Err(StoreError("truncated hidden time"));
                }
                Some(Timestamp::from_nanos(buf.get_u64_le()))
            }
            _ => return Err(StoreError("bad hidden flag")),
        };
        if buf.is_empty() {
            return Err(StoreError("truncated annotation flag"));
        }
        let annotation = buf.get_u8() != 0;
        horizon = horizon.max(shown).max(hidden.unwrap_or(shown));
        records.push(Record {
            id,
            app_id,
            app,
            window,
            role,
            text,
            shown,
            hidden,
            annotation,
            bytes: &start[..start.len() - buf.len()],
        });
    }
    if buf.len() < 8 {
        return Err(StoreError("truncated focus history"));
    }
    let focus_count = buf.get_u64_le();
    let mut focus = Vec::new();
    for _ in 0..focus_count {
        if buf.len() < 12 {
            return Err(StoreError("truncated focus entry"));
        }
        let app = buf.get_u32_le();
        let t = Timestamp::from_nanos(buf.get_u64_le());
        horizon = horizon.max(t);
        focus.push((app, t));
    }
    if !buf.is_empty() {
        return Err(StoreError("trailing bytes"));
    }
    Ok(Scanned {
        horizon,
        records,
        focus,
    })
}

/// Deserializes an index, rebuilding the inverted postings.
pub fn decode_index(buf: &[u8]) -> Result<TextIndex, StoreError> {
    let scanned = scan(buf)?;
    let mut index = TextIndex::new();
    for r in scanned.records {
        index.add_instance(IndexedInstance {
            id: r.id,
            app_id: r.app_id,
            app: r.app.to_owned(),
            window: r.window.to_owned(),
            role: r.role.to_owned(),
            text: r.text.to_owned(),
            shown: r.shown,
            hidden: r.hidden,
            annotation: r.annotation,
        });
    }
    for (app, t) in scanned.focus {
        index.focus_change(app, t);
    }
    index.advance_horizon(scanned.horizon);
    Ok(index)
}

/// Merges encoded indexes — oldest first — into the encoding of their
/// union, returning it with its instance count, without loading any of
/// them: a k-way merge of the id-sorted record streams that copies the
/// winning records' bytes. An error names the input (by position) that
/// failed validation.
///
/// An instance carried across a seal appears in several inputs under
/// one id, and only the newest copy knows whether (and when) it was
/// eventually hidden — an index encoded while it was still open says
/// `hidden: None` forever. The newest input's copy therefore wins
/// unconditionally (never by "latest end", which would let a stale
/// open copy outrank the real close time). Focus histories are
/// concatenated, stably sorted by time and deduplicated; the horizon is
/// the latest of the inputs'.
pub fn merge_segments(inputs: &[&[u8]]) -> Result<(Vec<u8>, u64), (usize, StoreError)> {
    let mut scanned = Vec::with_capacity(inputs.len());
    for (n, input) in inputs.iter().enumerate() {
        let s = scan(input).map_err(|e| (n, e))?;
        // The merge below is only right over sorted streams.
        if s.records.windows(2).any(|w| w[0].id >= w[1].id) {
            return Err((n, StoreError("instances out of id order")));
        }
        scanned.push(s);
    }
    let mut streams: Vec<&[Record]> = scanned.iter().map(|s| &s.records[..]).collect();
    let mut winners: Vec<&[u8]> = Vec::new();
    while let Some(id) = streams.iter().filter_map(|s| s.first()).map(|r| r.id).min() {
        let mut newest = None;
        for stream in &mut streams {
            if let Some((record, rest)) = stream.split_first().filter(|(r, _)| r.id == id) {
                // A later input's copy overwrites an earlier one's.
                newest = Some(record.bytes);
                *stream = rest;
            }
        }
        winners.extend(newest);
    }
    let horizon = scanned.iter().map(|s| s.horizon).max();
    let mut focus: Vec<(u32, Timestamp)> = Vec::new();
    for s in &scanned {
        focus.extend_from_slice(&s.focus);
    }
    focus.sort_by_key(|&(_, t)| t);
    focus.dedup();
    let mut out = Vec::with_capacity(inputs.iter().map(|input| input.len()).sum());
    put_header(&mut out, horizon.unwrap_or(Timestamp::ZERO), winners.len());
    for bytes in &winners {
        out.extend_from_slice(bytes);
    }
    put_focus(&mut out, &focus);
    Ok((out, winners.len() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::parse_query;
    use crate::search::evaluate;

    fn sample() -> TextIndex {
        let mut index = TextIndex::new();
        index.add_instance(IndexedInstance {
            id: 1,
            app_id: 7,
            app: "firefox".into(),
            window: "tab - firefox".into(),
            role: "link".into(),
            text: "click here for schedule".into(),
            shown: Timestamp::from_millis(100),
            hidden: Some(Timestamp::from_millis(900)),
            annotation: false,
        });
        index.add_instance(IndexedInstance {
            id: 2,
            app_id: 8,
            app: "editor".into(),
            window: "notes".into(),
            role: "paragraph".into(),
            text: "schedule draft".into(),
            shown: Timestamp::from_millis(500),
            hidden: None,
            annotation: true,
        });
        index.focus_change(7, Timestamp::from_millis(0));
        index.focus_change(8, Timestamp::from_millis(400));
        index.advance_horizon(Timestamp::from_millis(2_000));
        index
    }

    #[test]
    fn round_trip_preserves_query_results() {
        let index = sample();
        let decoded = decode_index(&encode_index(&index)).unwrap();
        assert_eq!(decoded.horizon(), index.horizon());
        for q in [
            "schedule",
            "app:firefox schedule",
            "annotation: schedule",
            "focused: click",
        ] {
            let query = parse_query(q).unwrap();
            assert_eq!(
                evaluate(&decoded, &query),
                evaluate(&index, &query),
                "query {q:?} diverged after round trip"
            );
        }
    }

    #[test]
    fn round_trip_preserves_stats() {
        let index = sample();
        let decoded = decode_index(&encode_index(&index)).unwrap();
        let a = index.stats();
        let b = decoded.stats();
        assert_eq!(a.instances, b.instances);
        assert_eq!(a.terms, b.terms);
        assert_eq!(a.postings, b.postings);
    }

    #[test]
    fn flush_segment_faults_fail_or_corrupt_detectably() {
        use dv_fault::{sites, FaultPlan, FaultPlane, IoFault};
        let index = sample();
        // Disabled plane: identical to encode_index.
        let clean = flush_segment(&index, &FaultPlane::disabled()).unwrap();
        assert_eq!(clean, encode_index(&index));
        // Failed flush.
        let plane = FaultPlan::new(1)
            .always(sites::INDEX_SEGMENT_FLUSH, IoFault::Enospc)
            .build();
        assert!(flush_segment(&index, &plane).is_err());
        // Silent corruption is caught by decode.
        let plane = FaultPlan::new(2)
            .always(sites::INDEX_SEGMENT_FLUSH, IoFault::Corrupt)
            .build();
        let corrupt = flush_segment(&index, &plane).unwrap();
        assert_ne!(corrupt, clean);
    }

    #[test]
    fn decode_rejects_garbage_and_truncation() {
        assert!(decode_index(b"not an index").is_err());
        let encoded = encode_index(&sample());
        for cut in [0, 8, 20, encoded.len() - 1] {
            assert!(decode_index(&encoded[..cut]).is_err(), "cut at {cut}");
        }
        let mut extra = encoded.clone();
        extra.push(0);
        assert!(decode_index(&extra).is_err());
    }

    #[test]
    fn merge_takes_the_newest_copy_and_rejects_unsorted_records() {
        let older = sample();
        let mut newer = TextIndex::new();
        newer.add_instance(IndexedInstance {
            hidden: Some(Timestamp::from_millis(2_500)),
            ..older.instance(2).unwrap().clone()
        });
        newer.focus_change(8, Timestamp::from_millis(400));
        newer.focus_change(7, Timestamp::from_millis(2_400));
        let (older, newer) = (encode_index(&older), encode_index(&newer));
        let (merged, instances) = merge_segments(&[&older, &newer]).unwrap();
        assert_eq!(instances, 2);
        let merged = decode_index(&merged).unwrap();
        let closed = merged.instance(2).unwrap();
        assert_eq!(closed.hidden, Some(Timestamp::from_millis(2_500)));
        assert_eq!(merged.focus_history().len(), 3, "the shared entry once");
        assert_eq!(merged.horizon(), Timestamp::from_millis(2_500));
        // The first record's id sits right after the 24-byte header.
        let mut unsorted = older.clone();
        unsorted[24] = 5;
        assert!(
            decode_index(&unsorted).is_ok(),
            "loading does not need the order"
        );
        let err = merge_segments(&[&newer, &unsorted]).unwrap_err();
        assert_eq!(err, (1, StoreError("instances out of id order")));
        let err = merge_segments(&[&older[..40], &newer]).unwrap_err();
        assert_eq!(err.0, 0);
    }
}
