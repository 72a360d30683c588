//! Thumbnail strips as sealed-segment payloads.
//!
//! A sealed strip segment is the instance list — count, then per
//! instance id, fingerprint, interval, frame count and RLE thumbnail,
//! all little-endian — inside the shared CRC frame
//! ([`dv_lsfs::sealed`]) under magic `DVVSEG01`. Framing, manifests,
//! blob names, publish order, GC and recovery are the lifecycle's;
//! this module says only what a strip's bytes are and how strips
//! merge.

use std::sync::Arc;

use bytes::{Buf, BufMut};

use dv_fault::sites;
use dv_lsfs::{Payload, SegmentNames};
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
    gc_reclaimed: names::VIDX_GC_RECLAIMED,
    sealed_segments: names::VIDX_SEALED_SEGMENTS,
    sealed_bytes: names::VIDX_STRIP_BYTES,
    ev_seal: names::EV_VIDX_SEAL,
    ev_compact: names::EV_VIDX_COMPACT,
};

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

    fn decode(&self, mut payload: &[u8]) -> Result<VisualStrip, String> {
        if payload.len() < 8 {
            return Err("truncated instance count".into());
        }
        let count = payload.get_u64_le();
        let mut out = Vec::new();
        for _ in 0..count {
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
            out.push(VisualInstance {
                id,
                fp: Fingerprint(words),
                first,
                last,
                frames,
                thumb: thumb.to_vec(),
            });
        }
        if !payload.is_empty() {
            return Err("trailing bytes".into());
        }
        Ok(VisualStrip::from_instances(out))
    }

    /// Strips never share an instance (coalescing breaks at a seal), so
    /// merging is concatenation in time order.
    fn merge(&self, inputs: &[Arc<VisualStrip>]) -> (VisualStrip, u64) {
        let mut all: Vec<VisualInstance> = inputs
            .iter()
            .flat_map(|strip| strip.instances().iter().cloned())
            .collect();
        all.sort_by_key(|inst| (inst.first, inst.id));
        let count = all.len() as u64;
        (VisualStrip::from_instances(all), count)
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
        let late = Arc::new(VisualStrip::from_instances(vec![inst(5), inst(6)]));
        let early = Arc::new(VisualStrip::from_instances(vec![inst(1), inst(2)]));
        let (merged, count) = Strips.merge(&[late, early]);
        assert_eq!(count, 4);
        let ids: Vec<u64> = merged.instances().iter().map(|i| i.id).collect();
        assert_eq!(ids, vec![1, 2, 5, 6]);
        // The merged strip's band index addresses the merged order.
        let pos = merged.index().candidates(&inst(5).fp);
        assert!(pos.contains(&2));
    }
}
