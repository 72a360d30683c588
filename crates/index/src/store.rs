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

use dv_fault::{FaultPlane, Put, ReadError, Reader};
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

impl From<ReadError> for StoreError {
    fn from(e: ReadError) -> Self {
        StoreError(e.as_str())
    }
}

fn put_header(out: &mut Vec<u8>, horizon: Timestamp, instances: usize) {
    out.extend_from_slice(MAGIC);
    out.put_u64(horizon.as_nanos());
    out.put_u64(instances as u64);
}

fn put_focus(out: &mut Vec<u8>, focus: &[(u32, Timestamp)]) {
    out.put_u64(focus.len() as u64);
    for (app, t) in focus {
        out.put_u32(*app);
        out.put_u64(t.as_nanos());
    }
}

/// Serializes the index.
pub fn encode_index(index: &TextIndex) -> Vec<u8> {
    let mut out = Vec::new();
    let mut instances: Vec<&IndexedInstance> = index.all_instances().collect();
    instances.sort_by_key(|i| i.id);
    put_header(&mut out, index.horizon(), instances.len());
    for inst in instances {
        out.put_u64(inst.id);
        out.put_u32(inst.app_id);
        out.put_str_u32(&inst.app);
        out.put_str_u32(&inst.window);
        out.put_str_u32(&inst.role);
        out.put_str_u32(&inst.text);
        out.put_u64(inst.shown.as_nanos());
        match inst.hidden {
            Some(t) => {
                out.push(1);
                out.put_u64(t.as_nanos());
            }
            None => out.push(0),
        }
        out.push(inst.annotation as u8);
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

/// An encoded index with every length, string, flag, the id order and
/// the trailing bytes checked.
struct Scanned<'a> {
    /// What the index's horizon is once loaded: the stored one, or any
    /// later time a record or focus entry carries.
    horizon: Timestamp,
    /// Instance records in stored order.
    records: Vec<Record<'a>>,
    focus: Vec<(u32, Timestamp)>,
}

/// Validates an encoded index: records must be in strictly increasing
/// id order, as [`encode_index`] writes them, so no id is stored twice.
/// A stored count sizes a vector only once the bytes left could hold
/// that many entries.
fn scan(buf: &[u8]) -> Result<Scanned<'_>, StoreError> {
    let mut r = Reader::new(buf);
    r.magic(MAGIC)?;
    let mut horizon = Timestamp::from_nanos(r.u64()?);
    // Ids, four string lengths, the shown time and two flags.
    let count = r.count_u64(8 + 4 + 16 + 8 + 2)?;
    let mut records = Vec::with_capacity(count);
    for _ in 0..count {
        let start = r;
        let record = Record {
            id: r.u64()?,
            app_id: r.u32()?,
            app: r.str_u32()?,
            window: r.str_u32()?,
            role: r.str_u32()?,
            text: r.str_u32()?,
            shown: Timestamp::from_nanos(r.u64()?),
            hidden: match r.u8()? {
                0 => None,
                1 => Some(Timestamp::from_nanos(r.u64()?)),
                _ => return Err(StoreError("bad hidden flag")),
            },
            annotation: r.u8()? != 0,
            bytes: r.since(start),
        };
        if records
            .last()
            .is_some_and(|last: &Record| last.id >= record.id)
        {
            return Err(StoreError("instances out of id order"));
        }
        horizon = horizon
            .max(record.shown)
            .max(record.hidden.unwrap_or(record.shown));
        records.push(record);
    }
    let focus_count = r.count_u64(12)?;
    let mut focus = Vec::with_capacity(focus_count);
    for _ in 0..focus_count {
        let app = r.u32()?;
        let t = Timestamp::from_nanos(r.u64()?);
        horizon = horizon.max(t);
        focus.push((app, t));
    }
    r.finish()?;
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
        scanned.push(scan(input).map_err(|e| (n, e))?);
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
    use crate::search::{evaluate, search, RankOrder};

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
                evaluate(&[&decoded], &query),
                evaluate(&[&index], &query),
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

    /// One instance per index, both with id 1.
    fn one_instance(text: &str) -> Vec<u8> {
        let mut index = TextIndex::new();
        index.add_instance(IndexedInstance {
            id: 1,
            app_id: 7,
            app: "editor".into(),
            window: "notes".into(),
            role: "paragraph".into(),
            text: text.into(),
            shown: Timestamp::from_millis(100),
            hidden: None,
            annotation: false,
        });
        encode_index(&index)
    }

    /// A segment holding two records of one id is refused: loaded, the
    /// first copy's postings would point at the second copy's text, and
    /// a search for `alpha` would answer with the snippet `beta`.
    #[test]
    fn a_segment_with_two_records_of_one_id_is_refused() {
        let (alpha, beta) = (one_instance("alpha"), one_instance("beta"));
        // Header (magic, horizon, count), one record, one empty focus list.
        let record = |segment: &[u8]| segment[24..segment.len() - 8].to_vec();
        let mut joined = alpha[..24].to_vec();
        joined[16..24].copy_from_slice(&2u64.to_le_bytes());
        joined.extend(record(&alpha));
        joined.extend(record(&beta));
        joined.extend_from_slice(&0u64.to_le_bytes());
        let err = decode_index(&joined).err();
        assert_eq!(err, Some(StoreError("instances out of id order")));
        let err = merge_segments(&[&alpha, &joined]).unwrap_err();
        assert_eq!(err, (1, StoreError("instances out of id order")));
        // The same records under two ids load, and `alpha` finds its own.
        joined[24 + record(&alpha).len()] = 2;
        let index = decode_index(&joined).unwrap();
        let hits = search(
            &[&index],
            &parse_query("alpha").unwrap(),
            RankOrder::Chronological,
        );
        let snippets: Vec<&str> = hits.iter().map(|h| h.snippet.as_str()).collect();
        assert_eq!(snippets, ["alpha"]);
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
        assert_eq!(
            decode_index(&unsorted).err(),
            Some(StoreError("instances out of id order")),
            "one validator: loading refuses what merging refuses"
        );
        let err = merge_segments(&[&newer, &unsorted]).unwrap_err();
        assert_eq!(err, (1, StoreError("instances out of id order")));
        let err = merge_segments(&[&older[..40], &newer]).unwrap_err();
        assert_eq!(err.0, 0);
    }
}
