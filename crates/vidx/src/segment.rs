//! Thumbnail strips as sealed-segment payloads.
//!
//! A sealed strip segment is the instance list — count, then per
//! instance id, fingerprint, interval, frame count and RLE thumbnail,
//! all little-endian — inside the shared CRC frame
//! ([`dv_lsfs::sealed`]) under magic `DVVSEG01`. Framing, manifests,
//! blob names, sealing, publish order, GC, recovery and the archive's
//! open strip are the lifecycle's; this module says only what a
//! strip's bytes are, how strips merge, and what a strip seal covers.

use dv_fault::{sites, Put, ReadError, Reader};
use dv_lsfs::{MergeError, Payload, Sealed, SegmentNames};
use dv_obs::names;
use dv_time::Timestamp;

use crate::fingerprint::Fingerprint;
use crate::strip::{VisualInstance, VisualStrip};

pub(crate) static NAMES: SegmentNames = SegmentNames {
    stem: "vidx",
    seg_magic: b"DVVSEG01",
    seal_site: sites::VIDX_FLUSH,
    compact_site: sites::VIDX_COMPACT,
    seal_span: names::VIDX_SEAL,
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

/// Validates an encoded strip — the only reader of its layout. A stored
/// count sizes a vector only once the bytes left could hold that many
/// records.
fn scan(payload: &[u8]) -> Result<Vec<Record<'_>>, ReadError> {
    let mut r = Reader::new(payload);
    // Fixed-size prefix: id + 4 fingerprint words + first + last +
    // frames = 8 u64s; a thumbnail length follows.
    const PREFIX: usize = 64;
    let count = r.count_u64(PREFIX + 8)?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let start = r;
        let mut prefix = Reader::new(r.array::<PREFIX>()?);
        out.push(Record {
            id: prefix.u64()?,
            fp: Fingerprint([prefix.u64()?, prefix.u64()?, prefix.u64()?, prefix.u64()?]),
            first: Timestamp::from_nanos(prefix.u64()?),
            last: Timestamp::from_nanos(prefix.u64()?),
            frames: prefix.u64()?,
            thumb: r.bytes_u64()?,
            bytes: r.since(start),
        });
    }
    r.finish()?;
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
        payload.put_u64(instances.len() as u64);
        for inst in instances {
            payload.put_u64(inst.id);
            for word in inst.fp.0 {
                payload.put_u64(word);
            }
            payload.put_u64(inst.first.as_nanos());
            payload.put_u64(inst.last.as_nanos());
            payload.put_u64(inst.frames);
            payload.put_u64(inst.thumb.len() as u64);
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
        let records = scan(payload).map_err(|e| e.to_string())?;
        let instances = records.into_iter().map(instance).collect();
        Ok(VisualStrip::from_instances(instances))
    }

    /// Strips never share an instance (coalescing breaks at a seal), so
    /// merging is concatenation in time order.
    fn merge(&self, inputs: &[&[u8]]) -> Result<(Vec<u8>, u64), MergeError> {
        let mut all = Vec::new();
        for (n, input) in inputs.iter().enumerate() {
            all.extend(scan(input).map_err(|e| MergeError::Input(n, e.to_string()))?);
        }
        all.sort_by_key(|r| (r.first, r.id));
        let mut payload = Vec::with_capacity(inputs.iter().map(|input| input.len()).sum());
        payload.put_u64(all.len() as u64);
        for record in &all {
            payload.extend_from_slice(record.bytes);
        }
        Ok((payload, all.len() as u64))
    }

    fn extent(&self, strip: &VisualStrip, open_start: Timestamp) -> Sealed {
        let instances = strip.instances();
        Sealed {
            start: instances.first().map_or(open_start, |i| i.first),
            end: strip.horizon,
            instances: instances.len() as u64,
            next_instance: strip.next_id(),
        }
    }

    /// Coalescing never spans a seal: a screen still showing afterwards
    /// opens a new instance, exactly like a fresh appearance.
    fn carry(&self, _: &VisualStrip) -> VisualStrip {
        VisualStrip::default()
    }

    fn resume(&self, strip: &mut VisualStrip, next_instance: u64, horizon: Timestamp) {
        strip.next_id = strip.next_id.max(next_instance);
        strip.horizon = strip.horizon.max(horizon);
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
        assert!(round_trip(Vec::new()).instances().is_empty());
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
