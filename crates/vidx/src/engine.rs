//! The visual-recall engine.
//!
//! One engine serves one session (tenant). Persisted keyframes route
//! into the **open strip** — thumbnail + fingerprint, consecutive
//! near-duplicates coalescing into interval-carrying visual instances
//! — and at checkpoint boundaries the open strip **seals** into an
//! immutable segment under the shared [`SealedLog`] lifecycle (the
//! one dv-tidx uses: publish order, compaction, retirement, GC and
//! recovery are its), so visual recall is snapshot-consistent with
//! the filesystem: a revive at checkpoint N queries exactly the
//! instances sealed at or before N ([`VidxEngine::query_at`]).
//!
//! Queries are nearest-thumbnail searches. Candidates come from the
//! band-partitioned Hamming index; when at least `k` candidates fall
//! within the pigeonhole radius [`EXACT_RADIUS`], the candidate set
//! provably contains the linear-scan top-`k` (every instance that
//! close shares an exact band with the query), so ranking candidates
//! alone is byte-identical to the oracle. Only when the neighbourhood
//! is too sparse to prove that does the query fall back to a full
//! scan — so results always match [`VidxEngine::query_linear`] while
//! typical queries probe far fewer fingerprints.

use std::cmp::Reverse;

use parking_lot::Mutex;

use dv_display::{resample_screenshot, Screenshot};
use dv_fault::FaultPlane;
use dv_lsfs::{
    Payload, Sealed, SealedConfig, SealedLog, SegmentError, SegmentMeta, SharedBlobStore,
};
use dv_obs::{names, Obs};
use dv_record::encode_screenshot;
use dv_time::Timestamp;

use crate::fingerprint::{Fingerprint, EXACT_RADIUS};
use crate::segment::{Strips, NAMES};
use crate::strip::{Observed, VisualInstance, VisualStrip};

/// Thumbnail width every keyframe is resampled to.
pub const THUMB_W: u32 = 64;
/// Thumbnail height every keyframe is resampled to.
pub const THUMB_H: u32 = 48;
/// Hamming threshold under which consecutive keyframes coalesce into
/// one visual instance. At or below [`EXACT_RADIUS`], so distinct
/// instances remain separable.
pub const NEAR_DUP_BITS: u32 = 8;
const _: () = assert!(NEAR_DUP_BITS <= EXACT_RADIUS);

/// A visual-index operation failure.
pub type VidxError = SegmentError;

/// Engine tuning: the open strip's window and the blob namespace.
pub type VidxConfig = SealedConfig;

/// Aggregate strip-layout accounting.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct VidxStats {
    /// Visual instances in the open strip.
    pub open_instances: usize,
    /// Sealed segments serving queries.
    pub live_segments: usize,
    /// Visual instances across sealed segments.
    pub sealed_instances: u64,
    /// Bytes of sealed strip blobs.
    pub strip_bytes: u64,
    /// The checkpoint counter of the newest durable manifest (0 when
    /// nothing has sealed).
    pub last_sealed: u64,
    /// Next segment id to allocate.
    pub next_segment: u64,
}

/// One nearest-thumbnail hit.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VisualHit {
    /// The visual instance id.
    pub id: u64,
    /// Hamming distance from the query fingerprint.
    pub distance: u32,
    /// When the screen first looked like this.
    pub first: Timestamp,
    /// The last keyframe that still looked like this.
    pub last: Timestamp,
    /// Keyframes coalesced into the instance.
    pub frames: u64,
    /// The representative thumbnail, RLE-encoded
    /// ([`dv_record::decode_screenshot`] renders it).
    pub thumb: Vec<u8>,
}

impl VisualHit {
    fn of(inst: &VisualInstance, fp: &Fingerprint) -> Self {
        VisualHit {
            id: inst.id,
            distance: inst.fp.distance(fp),
            first: inst.first,
            last: inst.last,
            frames: inst.frames,
            thumb: inst.thumb.clone(),
        }
    }
}

/// Ranks hits by distance, most-recent-first among ties, newest id
/// last for full determinism, and truncates to `k`.
pub fn rank_visual_hits(hits: &mut Vec<VisualHit>, k: usize) {
    hits.sort_by_key(|h| (h.distance, Reverse(h.last), Reverse(h.id)));
    hits.truncate(k);
}

/// The visual-recall engine for one session.
pub struct VidxEngine {
    open: Mutex<VisualStrip>,
    obs: Obs,
    log: SealedLog<Strips>,
}

impl VidxEngine {
    /// Creates an engine over `store`.
    pub fn new(store: SharedBlobStore, plane: FaultPlane, obs: Obs, config: VidxConfig) -> Self {
        VidxEngine {
            open: Mutex::new(VisualStrip::new(0)),
            log: SealedLog::new(Strips, &NAMES, store, plane, obs.clone(), config),
            obs,
        }
    }

    /// The sealed-segment lifecycle under this engine (layouts by
    /// checkpoint, recovery, GC).
    pub fn log(&self) -> &SealedLog<Strips> {
        &self.log
    }

    /// Strip-layout accounting.
    pub fn stats(&self) -> VidxStats {
        let open_instances = self.open.lock().instances().len();
        let layout = self.log.layout();
        VidxStats {
            open_instances,
            live_segments: layout.live.len(),
            sealed_instances: layout.live.iter().map(|m| m.instances).sum(),
            strip_bytes: layout.live.iter().map(|m| m.bytes).sum(),
            last_sealed: layout.counter,
            next_segment: layout.next_segment,
        }
    }

    /// Derives the query/capture fingerprint of an arbitrary-geometry
    /// screenshot: resample to the thumbnail size, then hash — the
    /// exact capture path, so queries and stored instances live in the
    /// same space.
    pub fn fingerprint(&self, shot: &Screenshot) -> Fingerprint {
        Fingerprint::from_screenshot(&resample_screenshot(shot, THUMB_W, THUMB_H))
    }

    /// Observes one persisted keyframe: thumbnail it, fingerprint it,
    /// and append-or-coalesce into the open strip. Infallible — the
    /// strip is in-memory until sealed.
    pub fn observe(&self, now: Timestamp, shot: &Screenshot) {
        let thumb = resample_screenshot(shot, THUMB_W, THUMB_H);
        let fp = Fingerprint::from_screenshot(&thumb);
        let encoded = encode_screenshot(&thumb);
        let outcome = self.open.lock().observe(now, fp, encoded, NEAR_DUP_BITS);
        match outcome {
            Observed::Coalesced => self.obs.incr(names::VIDX_COALESCED),
            Observed::New => self.obs.incr(names::VIDX_KEYFRAMES),
        }
    }

    /// Seals the open strip if its window has elapsed, anchoring the
    /// segment to checkpoint `counter`. Call after each durable
    /// checkpoint. An empty strip slides its window without sealing.
    pub fn maybe_seal(&self, counter: u64) -> Result<Option<SegmentMeta>, VidxError> {
        let mut strip = self.open.lock();
        if !self.log.seal_due(strip.horizon, || strip.is_empty()) {
            return Ok(None);
        }
        self.seal_open(counter, &mut strip).map(Some)
    }

    /// Unconditionally seals the open strip into an immutable segment
    /// anchored to checkpoint `counter` and swaps in a fresh empty
    /// strip. Coalescing never spans a seal: a screen still showing
    /// afterwards opens a new instance, exactly like a fresh
    /// appearance.
    ///
    /// On any error the open strip and the previous layout stay
    /// authoritative; the seal retries at the next checkpoint.
    pub fn seal(&self, counter: u64) -> Result<SegmentMeta, VidxError> {
        self.seal_open(counter, &mut self.open.lock())
    }

    fn seal_open(&self, counter: u64, strip: &mut VisualStrip) -> Result<SegmentMeta, VidxError> {
        let _span = self.obs.span("vidx", names::VIDX_SEAL);
        let sealed = Sealed {
            start: strip
                .instances()
                .first()
                .map_or(self.log.layout().open_start, |i| i.first),
            end: strip.horizon,
            instances: strip.instances().len() as u64,
            next_instance: strip.next_id(),
        };
        let meta = self.log.publish(counter, strip, sealed)?;
        *strip = VisualStrip::new(sealed.next_instance);
        strip.horizon = sealed.end;
        Ok(meta)
    }

    /// Merges one batch of small same-level strip segments into a
    /// higher-level one if any level has enough of them
    /// ([`SealedLog::maybe_compact`]). Returns whether one ran.
    pub fn maybe_compact(&self) -> Result<bool, VidxError> {
        self.log.maybe_compact()
    }

    /// Ranks the `k` nearest instances to `fp` across `shards`.
    /// Returns the hits plus the number of fingerprint comparisons
    /// performed (the probe count).
    fn query_shards(shards: &[&VisualStrip], fp: &Fingerprint, k: usize) -> (Vec<VisualHit>, u64) {
        let total: usize = shards.iter().map(|s| s.instances().len()).sum();
        let mut hits: Vec<VisualHit> = shards
            .iter()
            .flat_map(|s| {
                let instances = s.instances();
                s.index()
                    .candidates(fp)
                    .into_iter()
                    .map(move |pos| VisualHit::of(&instances[pos as usize], fp))
            })
            .collect();
        let mut probes = hits.len() as u64;
        let near = hits.iter().filter(|h| h.distance <= EXACT_RADIUS).count();
        // Exactness rule: with >= k candidates inside the pigeonhole
        // radius, the oracle's top-k all lie within it and every such
        // instance is a candidate — ranking candidates is exact. A
        // sparser neighbourhood cannot prove that, so scan everything.
        if near < k && hits.len() < total {
            hits = Self::scan(shards, fp);
            probes += total as u64;
        }
        rank_visual_hits(&mut hits, k);
        (hits, probes)
    }

    fn scan(shards: &[&VisualStrip], fp: &Fingerprint) -> Vec<VisualHit> {
        shards
            .iter()
            .flat_map(|s| s.instances())
            .map(|inst| VisualHit::of(inst, fp))
            .collect()
    }

    /// Runs `f` over the strips a query reads, oldest first: the live
    /// sealed layout plus the open strip (`at` = `None`), or the
    /// layout as of a checkpoint alone.
    fn with_shards<R>(
        &self,
        at: Option<u64>,
        f: impl FnOnce(&[&VisualStrip]) -> R,
    ) -> Result<R, VidxError> {
        let sealed = self.log.segments_at(at, |_| true)?;
        let open = at.is_none().then(|| self.open.lock());
        let shards: Vec<&VisualStrip> = sealed
            .iter()
            .map(|s| s.as_ref())
            .chain(open.as_deref())
            .collect();
        Ok(f(&shards))
    }

    /// The `k` nearest visual instances to a query screenshot, over
    /// every sealed segment plus the open strip. Byte-identical to
    /// [`VidxEngine::query_linear`] by the exactness rule above.
    pub fn query(&self, probe: &Screenshot, k: usize) -> Result<Vec<VisualHit>, VidxError> {
        self.query_layout(None, probe, k)
    }

    /// The `k` nearest instances as of checkpoint `counter` — the
    /// newest durable manifest at or before it — and *not* the open
    /// strip. A revived session sees exactly the instances sealed at
    /// or before its checkpoint.
    pub fn query_at(
        &self,
        counter: u64,
        probe: &Screenshot,
        k: usize,
    ) -> Result<Vec<VisualHit>, VidxError> {
        self.query_layout(Some(counter), probe, k)
    }

    fn query_layout(
        &self,
        at: Option<u64>,
        probe: &Screenshot,
        k: usize,
    ) -> Result<Vec<VisualHit>, VidxError> {
        let fp = self.fingerprint(probe);
        self.obs.incr(names::VIDX_QUERIES);
        let _span = self.obs.span("vidx", names::VIDX_QUERY);
        let (hits, probes) = self.with_shards(at, |shards| Self::query_shards(shards, &fp, k))?;
        self.obs.observe(names::VIDX_PROBES, probes);
        Ok(hits)
    }

    /// The linear-scan oracle: ranks every instance with no index.
    /// The bench compares [`VidxEngine::query`] against this for
    /// recall and counts its probes as the brute-force baseline.
    pub fn query_linear(&self, probe: &Screenshot, k: usize) -> Result<Vec<VisualHit>, VidxError> {
        let fp = self.fingerprint(probe);
        let mut hits = self.with_shards(None, |shards| Self::scan(shards, &fp))?;
        rank_visual_hits(&mut hits, k);
        Ok(hits)
    }

    /// Total instances a linear scan would probe (sealed + open).
    pub fn linear_probe_cost(&self) -> u64 {
        let stats = self.stats();
        stats.sealed_instances + stats.open_instances as u64
    }

    /// The open strip in segment-payload form, so an archive carries
    /// what no seal has made durable yet.
    pub fn export_open(&self) -> Vec<u8> {
        Strips
            .encode(&self.open.lock())
            .expect("strip encoding cannot fail")
    }

    /// Rebuilds the strip layout from the newest durable manifest (an
    /// archive import or restored store). Returns the manifest's
    /// checkpoint counter, or `None` when the store has no manifests.
    pub fn recover_latest(&self) -> Result<Option<u64>, VidxError> {
        let Some(manifest) = self.log.recover_latest()? else {
            return Ok(None);
        };
        let mut strip = self.open.lock();
        *strip = VisualStrip::new(manifest.next_instance);
        strip.horizon = manifest.open_start;
        Ok(Some(manifest.counter))
    }

    /// Replaces the open strip with [`VidxEngine::export_open`] bytes,
    /// continuing after whatever [`VidxEngine::recover_latest`]
    /// restored.
    pub fn restore_open(&self, payload: &[u8]) -> Result<(), VidxError> {
        let mut restored = Strips.decode(payload).map_err(VidxError::Failed)?;
        let mut strip = self.open.lock();
        restored.resume(strip.next_id(), strip.horizon);
        *strip = restored;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv_fault::{sites, FaultPlan, IoFault};
    use std::sync::Arc as StdArc;

    fn engine(config: VidxConfig) -> VidxEngine {
        VidxEngine::new(
            SharedBlobStore::in_memory(),
            FaultPlane::disabled(),
            Obs::disabled(),
            config,
        )
    }

    fn ts(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    /// A deterministic synthetic "screen": seed selects the layout.
    fn scene(seed: u64) -> Screenshot {
        let (w, h) = (128u32, 96u32);
        let pixels = (0..h)
            .flat_map(|y| {
                (0..w).map(move |x| {
                    let v =
                        (x as u64 * (3 + seed % 11) + y as u64 * (7 + seed % 5) + seed * 31) % 256;
                    (v as u32) << 16 | (v as u32) << 8 | v as u32
                })
            })
            .collect();
        Screenshot {
            width: w,
            height: h,
            pixels: StdArc::new(pixels),
        }
    }

    /// `scene(seed)` with a small box drawn on it (a cursor or badge).
    fn perturbed(seed: u64) -> Screenshot {
        let base = scene(seed);
        let mut pixels = (*base.pixels).clone();
        for y in 0..4u32 {
            for x in 0..4u32 {
                pixels[((y + 20) * base.width + x + 30) as usize] = 0xFF_00_00;
            }
        }
        Screenshot {
            width: base.width,
            height: base.height,
            pixels: StdArc::new(pixels),
        }
    }

    #[test]
    fn near_duplicates_coalesce_and_distinct_scenes_do_not() {
        let eng = engine(VidxConfig::default());
        eng.observe(ts(0), &scene(1));
        eng.observe(ts(100), &perturbed(1));
        eng.observe(ts(200), &scene(1));
        eng.observe(ts(300), &scene(2));
        let stats = eng.stats();
        assert_eq!(stats.open_instances, 2, "run of scene 1, then scene 2");
        let hits = eng.query(&scene(1), 1).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].distance, 0);
        assert_eq!(hits[0].frames, 3);
        assert_eq!((hits[0].first, hits[0].last), (ts(0), ts(200)));
    }

    #[test]
    fn query_matches_linear_oracle_exactly() {
        let eng = engine(VidxConfig::default());
        for i in 0..40u64 {
            eng.observe(ts(i * 100), &scene(i));
        }
        eng.seal(1).unwrap();
        for i in 40..60u64 {
            eng.observe(ts(i * 100), &scene(i));
        }
        for probe_seed in [0u64, 13, 39, 41, 59, 77] {
            for k in [1usize, 3, 10] {
                let probe = perturbed(probe_seed);
                let fast = eng.query(&probe, k).unwrap();
                let slow = eng.query_linear(&probe, k).unwrap();
                assert_eq!(fast, slow, "seed {probe_seed} k {k} diverged from oracle");
            }
        }
    }

    #[test]
    fn perturbed_probe_finds_its_scene_at_distance_zero_or_near() {
        let eng = engine(VidxConfig::default());
        for i in 0..20u64 {
            eng.observe(ts(i * 100), &scene(i));
        }
        let hits = eng.query(&perturbed(7), 1).unwrap();
        assert_eq!(hits.len(), 1);
        let expect = eng.fingerprint(&scene(7));
        let got = eng.fingerprint(&perturbed(7));
        assert_eq!(hits[0].distance, expect.distance(&got));
        assert!(hits[0].distance <= NEAR_DUP_BITS);
    }

    #[test]
    fn query_at_is_snapshot_consistent() {
        let eng = engine(VidxConfig::default());
        eng.observe(ts(0), &scene(1));
        eng.seal(3).unwrap();
        eng.observe(ts(1_000), &scene(2));
        eng.seal(7).unwrap();
        eng.observe(ts(2_000), &scene(3));
        // Before any seal: nothing visible.
        assert!(eng.query_at(2, &scene(1), 5).unwrap().is_empty());
        let at3 = eng.query_at(3, &scene(1), 5).unwrap();
        assert_eq!(at3.len(), 1, "checkpoint 3 sees only the first seal");
        assert_eq!(at3[0].distance, 0);
        // Counters between manifests resolve to the newest at-or-before.
        assert_eq!(eng.query_at(5, &scene(1), 5).unwrap().len(), 1);
        let at7 = eng.query_at(7, &scene(1), 5).unwrap();
        assert_eq!(at7.len(), 2, "checkpoint 7 sees both seals");
        // The open strip is never visible to checkpoint queries.
        assert!(at7.iter().all(|h| h.distance == 0 || h.first < ts(2_000)));
        // The live query sees everything.
        assert_eq!(eng.query(&scene(1), 5).unwrap().len(), 3);
    }

    #[test]
    fn seal_faults_leave_the_open_strip_authoritative() {
        let plane = FaultPlan::new(11)
            .always(sites::VIDX_FLUSH, IoFault::Enospc)
            .build();
        let eng = VidxEngine::new(
            SharedBlobStore::in_memory(),
            plane,
            Obs::disabled(),
            VidxConfig::default(),
        );
        eng.observe(ts(0), &scene(5));
        assert!(eng.seal(1).is_err());
        assert_eq!(eng.stats().live_segments, 0);
        assert_eq!(eng.stats().open_instances, 1);
        let hits = eng.query(&scene(5), 1).unwrap();
        assert_eq!(hits.len(), 1, "failed seal keeps serving from the strip");
        assert_eq!(hits[0].distance, 0);
    }

    #[test]
    fn corrupt_seal_is_detected_on_probe() {
        let plane = FaultPlan::new(13)
            .always(sites::VIDX_FLUSH, IoFault::Corrupt)
            .build();
        let eng = VidxEngine::new(
            SharedBlobStore::in_memory(),
            plane,
            Obs::disabled(),
            VidxConfig::default(),
        );
        eng.observe(ts(0), &scene(5));
        eng.seal(1).unwrap();
        assert!(
            eng.query(&scene(5), 1).is_err(),
            "CRC framing catches the mangled segment"
        );
    }

    #[test]
    fn recover_latest_rebuilds_layout_and_id_allocators() {
        let store = SharedBlobStore::in_memory();
        let eng = VidxEngine::new(
            store.clone(),
            FaultPlane::disabled(),
            Obs::disabled(),
            VidxConfig::default(),
        );
        eng.observe(ts(0), &scene(1));
        eng.observe(ts(100), &scene(2));
        eng.seal(5).unwrap();
        let fresh = VidxEngine::new(
            store,
            FaultPlane::disabled(),
            Obs::disabled(),
            VidxConfig::default(),
        );
        assert_eq!(fresh.recover_latest().unwrap(), Some(5));
        assert_eq!(fresh.stats().live_segments, 1);
        assert_eq!(fresh.stats().sealed_instances, 2);
        assert_eq!(fresh.query(&scene(2), 1).unwrap()[0].distance, 0);
        // New instances allocate past the sealed ids.
        fresh.observe(ts(1_000), &scene(3));
        let ids: Vec<u64> = fresh
            .query(&scene(3), 3)
            .unwrap()
            .iter()
            .map(|h| h.id)
            .collect();
        assert!(ids.contains(&2), "recovered allocator continues at 2");
    }

    #[test]
    fn maybe_seal_respects_the_strip_window() {
        let eng = engine(VidxConfig {
            window: dv_time::Duration::from_secs(10),
            ..VidxConfig::default()
        });
        eng.observe(ts(1_000), &scene(1));
        assert!(eng.maybe_seal(1).unwrap().is_none(), "window not elapsed");
        eng.observe(ts(11_000), &scene(2));
        assert!(eng.maybe_seal(2).unwrap().is_some());
        assert_eq!(eng.stats().open_instances, 0);
        // Empty strip slides its window instead of sealing.
        assert!(eng.maybe_seal(3).unwrap().is_none());
    }

    #[test]
    fn coalescing_breaks_at_seal_boundaries() {
        let eng = engine(VidxConfig::default());
        eng.observe(ts(0), &scene(1));
        eng.seal(1).unwrap();
        // Same screen still showing: a new instance, not a carried one.
        eng.observe(ts(1_000), &scene(1));
        let hits = eng.query(&scene(1), 5).unwrap();
        assert_eq!(hits.len(), 2);
        assert_ne!(hits[0].id, hits[1].id);
    }

    #[test]
    fn thumbnails_decode_and_match_the_scene() {
        let eng = engine(VidxConfig::default());
        eng.observe(ts(0), &scene(4));
        let hits = eng.query(&scene(4), 1).unwrap();
        let thumb = dv_record::decode_screenshot(&hits[0].thumb).expect("decodable thumbnail");
        assert_eq!((thumb.width, thumb.height), (64, 48));
        assert_eq!(
            Fingerprint::from_screenshot(&thumb),
            eng.fingerprint(&scene(4)),
        );
    }
}
