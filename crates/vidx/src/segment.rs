//! Thumbnail strips as sealed-segment payloads.
//!
//! A sealed strip segment is the instance list — count, then per
//! instance id, fingerprint, interval, frame count and RLE thumbnail,
//! all little-endian — inside the shared CRC frame
//! ([`dv_lsfs::sealed`]) under magic `DVVSEG01`. Framing, manifests,
//! blob names, publish order, GC and recovery are the lifecycle's;
//! this module says only what a strip's bytes are and how strips
//! merge.

use bytes::{Buf, BufMut};

use dv_fault::sites;
use dv_lsfs::{MergeError, Payload, SegmentNames};
use dv_obs::names;
use dv_time::Timestamp;

use crate::fingerprint::Fingerprint;
use crate::strip::{VisualInstance, VisualStrip};

pub(crate) static NAMES: SegmentNames = SegmentNames {
    stem: "vidx",
    seg_magic: b"DVVSEG01",
    seal_site: sites::VIDX_FLUSH,
    compact_site: sites::VIDX_COMPACT,
    compact_span: names::VIDX_COMPACT,
    seals: names::VIDX_SEALS,
    compactions: names::VIDX_COMPACTIONS,
    compact_failures: names::VIDX_COMPACT_FAILURES,
    gc_reclaimed: names::VIDX_GC_RECLAIMED,
    sealed_segments: names::VIDX_SEALED_SEGMENTS,
    sealed_bytes: names::VIDX_STRIP_BYTES,
    ev_seal: names::EV_VIDX_SEAL,
    ev_compact: names::EV_VIDX_COMPACT,
    ev_compact_failed: names::EV_VIDX_COMPACT_FAILED,
};

/// One instance record of an encoded strip, borrowed from its bytes.
struct Record<'a> {
    id: u64,
    fp: Fingerprint,
    first: Timestamp,
    last: Timestamp,
    frames: u64,
    thumb: &'a [u8],
    /// The record exactly as stored, id through thumbnail.
    bytes: &'a [u8],
}

/// Validates an encoded strip — the only reader of its layout. No
/// allocation is sized by the stored count: a record is pushed only
/// after its bytes were found.
fn scan(mut payload: &[u8]) -> Result<Vec<Record<'_>>, String> {
    if payload.len() < 8 {
        return Err("truncated instance count".into());
    }
    let count = payload.get_u64_le();
    let mut out = Vec::new();
    for _ in 0..count {
        let start = payload;
        // Fixed-size prefix: id + 4 fingerprint words + first + last
        // + frames + thumbnail length = 9 u64s.
        if payload.len() < 72 {
            return Err("truncated instance".into());
        }
        let id = payload.get_u64_le();
        let mut words = [0u64; 4];
        for word in &mut words {
            *word = payload.get_u64_le();
        }
        let first = Timestamp::from_nanos(payload.get_u64_le());
        let last = Timestamp::from_nanos(payload.get_u64_le());
        let frames = payload.get_u64_le();
        let thumb_len = payload.get_u64_le();
        if (payload.len() as u64) < thumb_len {
            return Err("truncated thumbnail".into());
        }
        let (thumb, rest) = payload.split_at(thumb_len as usize);
        payload = rest;
        out.push(Record {
            id,
            fp: Fingerprint(words),
            first,
            last,
            frames,
            thumb,
            bytes: &start[..start.len() - payload.len()],
        });
    }
    if !payload.is_empty() {
        return Err("trailing bytes".into());
    }
    Ok(out)
}

/// The thumbnail-strip payload: a segment decodes to a [`VisualStrip`]
/// (instances plus their band index).
pub struct Strips;

impl Payload for Strips {
    type Segment = VisualStrip;

    fn encode(&self, strip: &VisualStrip) -> Result<Vec<u8>, String> {
        let instances = strip.instances();
        let mut payload = Vec::new();
        payload.put_u64_le(instances.len() as u64);
        for inst in instances {
            payload.put_u64_le(inst.id);
            for word in inst.fp.0 {
                payload.put_u64_le(word);
            }
            payload.put_u64_le(inst.first.as_nanos());
            payload.put_u64_le(inst.last.as_nanos());
            payload.put_u64_le(inst.frames);
            payload.put_u64_le(inst.thumb.len() as u64);
            payload.extend_from_slice(&inst.thumb);
        }
        Ok(payload)
    }

    fn decode(&self, payload: &[u8]) -> Result<VisualStrip, String> {
        let instance = |r: Record| VisualInstance {
            id: r.id,
            fp: r.fp,
            first: r.first,
            last: r.last,
            frames: r.frames,
            thumb: r.thumb.to_vec(),
        };
        let instances = scan(payload)?.into_iter().map(instance).collect();
        Ok(VisualStrip::from_instances(instances))
    }

    /// Strips never share an instance (coalescing breaks at a seal), so
    /// merging is concatenation in time order.
    fn merge(&self, inputs: &[&[u8]]) -> Result<(Vec<u8>, u64), MergeError> {
        let mut all = Vec::new();
        for (n, input) in inputs.iter().enumerate() {
            all.extend(scan(input).map_err(|e| MergeError::Input(n, e))?);
        }
        all.sort_by_key(|r| (r.first, r.id));
        let mut payload = Vec::with_capacity(inputs.iter().map(|input| input.len()).sum());
        payload.put_u64_le(all.len() as u64);
        for record in &all {
            payload.extend_from_slice(record.bytes);
        }
        Ok((payload, all.len() as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst(id: u64) -> VisualInstance {
        VisualInstance {
            id,
            fp: Fingerprint([id, !id, id * 3, id ^ 0xFF]),
            first: Timestamp::from_millis(id * 10),
            last: Timestamp::from_millis(id * 10 + 5),
            frames: id + 1,
            thumb: vec![id as u8; (id as usize % 7) + 1],
        }
    }

    fn round_trip(instances: Vec<VisualInstance>) -> VisualStrip {
        let strip = VisualStrip::from_instances(instances);
        Strips.decode(&Strips.encode(&strip).unwrap()).unwrap()
    }

    #[test]
    fn strip_payload_round_trips_and_rejects_truncation() {
        let instances = vec![inst(1), inst(2), inst(9)];
        let decoded = round_trip(instances.clone());
        assert_eq!(decoded.instances(), instances);
        assert_eq!(decoded.next_id(), 10);
        assert_eq!(decoded.horizon, Timestamp::from_millis(95));
        assert!(round_trip(Vec::new()).is_empty());
        let payload = Strips
            .encode(&VisualStrip::from_instances(instances))
            .unwrap();
        for cut in 0..payload.len() {
            assert!(Strips.decode(&payload[..cut]).is_err(), "cut at {cut}");
        }
        let mut trailing = payload;
        trailing.push(0);
        assert!(Strips.decode(&trailing).is_err());
    }

    #[test]
    fn merge_concatenates_in_time_order() {
        let encode = |ids: &[u64]| {
            let strip = VisualStrip::from_instances(ids.iter().map(|&id| inst(id)).collect());
            Strips.encode(&strip).unwrap()
        };
        let (late, early) = (encode(&[5, 6]), encode(&[1, 2]));
        let (merged, count) = Strips.merge(&[&late, &early]).unwrap();
        assert_eq!(count, 4);
        assert_eq!(
            merged,
            encode(&[1, 2, 5, 6]),
            "what a seal of the union writes"
        );
        // The merged strip's band index addresses the merged order.
        let merged = Strips.decode(&merged).unwrap();
        let pos = merged.index().candidates(&inst(5).fp);
        assert!(pos.contains(&2));
        // A damaged input is named by its position.
        let cut = &late[..late.len() - 1];
        assert!(matches!(
            Strips.merge(&[&early, cut]),
            Err(MergeError::Input(1, _))
        ));
    }
}
