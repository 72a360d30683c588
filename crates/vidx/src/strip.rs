//! The open thumbnail strip: a time-ordered ribbon of visual
//! instances.
//!
//! Every persisted keyframe contributes a thumbnail + fingerprint;
//! consecutive near-duplicates (the same screen lingering across many
//! keyframes) coalesce into one **visual instance** carrying the time
//! interval it stayed on screen — the ScreenTrack model applied to
//! whole-screen appearance instead of text. The strip keeps its own
//! band index in sync so open-strip queries probe sub-linearly too.

use dv_time::Timestamp;

use crate::fingerprint::Fingerprint;
use crate::index::BandIndex;

/// One coalesced run of near-identical keyframes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VisualInstance {
    /// Globally monotonic instance id (never reused across seals).
    pub id: u64,
    /// Fingerprint of the run's first keyframe (the representative).
    pub fp: Fingerprint,
    /// When the screen first looked like this.
    pub first: Timestamp,
    /// The last keyframe that still looked like this.
    pub last: Timestamp,
    /// Keyframes coalesced into the run.
    pub frames: u64,
    /// The representative thumbnail, RLE-encoded
    /// ([`dv_record::encode_screenshot`]).
    pub thumb: Vec<u8>,
}

/// Outcome of observing one keyframe.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Observed {
    /// Extended the newest instance's interval.
    Coalesced,
    /// Opened a new visual instance.
    New,
}

/// The mutable open strip.
#[derive(Debug, Default)]
pub struct VisualStrip {
    instances: Vec<VisualInstance>,
    index: BandIndex,
    pub(crate) next_id: u64,
    /// Latest keyframe time observed (the seal horizon).
    pub horizon: Timestamp,
}

impl VisualStrip {
    /// Rebuilds a strip (and its band index) around decoded
    /// `instances`, oldest first: the horizon is the last keyframe
    /// they saw and ids allocate past the greatest one.
    pub fn from_instances(instances: Vec<VisualInstance>) -> Self {
        VisualStrip {
            index: BandIndex::build(instances.iter().map(|i| i.fp)),
            next_id: instances
                .iter()
                .map(|i| i.id.saturating_add(1))
                .max()
                .unwrap_or(0),
            horizon: instances
                .iter()
                .map(|i| i.last)
                .max()
                .unwrap_or(Timestamp::ZERO),
            instances,
        }
    }

    /// Observes one keyframe. A fingerprint within `near_dup_bits` of
    /// the *newest* instance extends that instance's interval;
    /// anything else opens a new one. Only the newest instance can
    /// coalesce — a screen that comes back after something else showed
    /// is a new appearance, exactly like text re-appearing on screen.
    pub fn observe(
        &mut self,
        now: Timestamp,
        fp: Fingerprint,
        thumb: Vec<u8>,
        near_dup_bits: u32,
    ) -> Observed {
        self.horizon = self.horizon.max(now);
        if let Some(last) = self.instances.last_mut() {
            if last.fp.distance(&fp) <= near_dup_bits {
                last.last = last.last.max(now);
                last.frames += 1;
                return Observed::Coalesced;
            }
        }
        let pos = self.instances.len() as u32;
        self.index.insert(pos, &fp);
        self.instances.push(VisualInstance {
            id: self.next_id,
            fp,
            first: now,
            last: now,
            frames: 1,
            thumb,
        });
        self.next_id += 1;
        Observed::New
    }

    /// The instances, oldest first.
    pub fn instances(&self) -> &[VisualInstance] {
        &self.instances
    }

    /// The strip's band index (positions into [`Self::instances`]).
    pub fn index(&self) -> &BandIndex {
        &self.index
    }

    /// Next id the strip would allocate.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    fn fp(word: u64) -> Fingerprint {
        Fingerprint([word, 0, 0, 0])
    }

    #[test]
    fn near_duplicates_coalesce_into_one_interval() {
        let mut strip = VisualStrip {
            next_id: 7,
            ..VisualStrip::default()
        };
        assert_eq!(strip.observe(ts(0), fp(0), b"a".to_vec(), 8), Observed::New);
        // 3 bits away: same screen, lingering.
        assert_eq!(
            strip.observe(ts(100), fp(0b111), b"b".to_vec(), 8),
            Observed::Coalesced
        );
        assert_eq!(
            strip.observe(ts(200), fp(0b11), b"c".to_vec(), 8),
            Observed::Coalesced
        );
        let inst = &strip.instances()[0];
        assert_eq!(inst.id, 7);
        assert_eq!((inst.first, inst.last), (ts(0), ts(200)));
        assert_eq!(inst.frames, 3);
        assert_eq!(inst.thumb, b"a", "representative thumbnail is the first");
        assert_eq!(strip.next_id(), 8);
    }

    #[test]
    fn distant_screens_and_returns_open_new_instances() {
        let mut strip = VisualStrip::default();
        strip.observe(ts(0), fp(0), Vec::new(), 8);
        // Far away: new instance.
        strip.observe(ts(100), fp(u64::MAX), Vec::new(), 8);
        // The first screen comes back: coalescing only looks at the
        // newest instance, so this is a new appearance.
        strip.observe(ts(200), fp(0), Vec::new(), 8);
        assert_eq!(strip.instances().len(), 3);
        assert_eq!(strip.horizon, ts(200));
        assert_eq!(
            strip.instances().iter().map(|i| i.id).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }
}
