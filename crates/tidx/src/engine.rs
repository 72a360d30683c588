//! The sharded temporal index engine.
//!
//! One engine serves one session (tenant). Text states route into the
//! **open shard** — the same mutable [`TextIndex`] the capture daemon
//! already writes into — and at checkpoint boundaries the open shard
//! **seals** into an immutable segment under the shared
//! [`SealedLog`] lifecycle, so index durability is snapshot-consistent
//! with the filesystem: a revive at checkpoint N queries exactly the
//! segments sealed at or before N ([`TidxEngine::search_at`]).
//! Publish order, compaction, retirement, GC and recovery are the
//! lifecycle's; what is this crate's is the open shard, what carries
//! across a seal (still-visible instances and the focus state), how
//! text segments merge (the newest copy of an instance wins), and
//! query evaluation.

use std::sync::Arc;

use parking_lot::Mutex;

use dv_fault::{sites, FaultPlane};
use dv_index::{
    decode_index, flush_encoded, flush_segment, merge_segments, Query, RankOrder, SearchHit,
    TextIndex,
};
use dv_lsfs::{
    MergeError, Payload, Sealed, SealedConfig, SealedLog, SegmentError, SegmentMeta, SegmentNames,
    SharedBlobStore,
};
use dv_obs::{names, Obs};
use dv_time::Timestamp;

use crate::search::{build_ranked_hits, eval_sharded, query_bounds};

/// A sharded-index operation failure.
pub type TidxError = SegmentError;

/// Engine tuning: the open shard's window and the blob namespace.
pub type TidxConfig = SealedConfig;

/// Aggregate shard-layout accounting.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TidxStats {
    /// Sealed segments serving queries.
    pub live_segments: usize,
    /// Superseded segments awaiting GC.
    pub retired_segments: usize,
    /// The checkpoint counter of the newest durable manifest (0 when
    /// nothing has sealed).
    pub last_sealed: u64,
    /// Next segment id to allocate.
    pub next_segment: u64,
    /// One past the greatest instance id any seal has seen — an
    /// archive restore bumps the capture daemon's allocator to it so
    /// new instances never collide with sealed ones.
    pub next_instance: u64,
}

static NAMES: SegmentNames = SegmentNames {
    stem: "tidx",
    seg_magic: b"DVTSEG01",
    seal_site: sites::TIDX_SEAL,
    compact_site: sites::TIDX_COMPACT,
    compact_span: names::TIDX_COMPACT,
    seals: names::TIDX_SEALS,
    compactions: names::TIDX_COMPACTIONS,
    compact_failures: names::TIDX_COMPACT_FAILURES,
    gc_reclaimed: names::TIDX_GC_RECLAIMED,
    sealed_segments: names::TIDX_SEALED_SEGMENTS,
    sealed_bytes: names::TIDX_SEGMENT_BYTES,
    ev_seal: names::EV_TIDX_SEAL,
    ev_compact: names::EV_TIDX_COMPACT,
    ev_compact_failed: names::EV_TIDX_COMPACT_FAILED,
};

/// Text shards as sealed-segment payloads: a segment is a whole
/// [`TextIndex`] in the `dv-index` flush format, written through the
/// `index.segment.flush` fault site `plane` arms.
pub struct TextShards {
    plane: FaultPlane,
}

impl Payload for TextShards {
    type Segment = TextIndex;

    fn encode(&self, index: &TextIndex) -> Result<Vec<u8>, String> {
        flush_segment(index, &self.plane).map_err(|e| e.to_string())
    }

    fn decode(&self, payload: &[u8]) -> Result<TextIndex, String> {
        decode_index(payload).map_err(|e| e.to_string())
    }

    /// The newest copy of a carried instance wins
    /// ([`merge_segments`]); the merged bytes pass the same
    /// `index.segment.flush` site a seal's do.
    fn merge(&self, inputs: &[&[u8]]) -> Result<(Vec<u8>, u64), MergeError> {
        let (merged, instances) =
            merge_segments(inputs).map_err(|(n, e)| MergeError::Input(n, e.to_string()))?;
        let merged =
            flush_encoded(merged, &self.plane).map_err(|e| MergeError::Output(e.to_string()))?;
        Ok((merged, instances))
    }
}

/// The sharded temporal index engine for one session.
pub struct TidxEngine {
    open: Arc<Mutex<TextIndex>>,
    obs: Obs,
    log: SealedLog<TextShards>,
}

impl TidxEngine {
    /// Wraps an existing open index (shared with the capture daemon)
    /// over `store`.
    pub fn new(
        open: Arc<Mutex<TextIndex>>,
        store: SharedBlobStore,
        plane: FaultPlane,
        obs: Obs,
        config: TidxConfig,
    ) -> Self {
        let payload = TextShards {
            plane: plane.clone(),
        };
        let log = SealedLog::new(payload, &NAMES, store, plane, obs.clone(), config);
        TidxEngine { open, obs, log }
    }

    /// The open-shard index handle (the capture daemon's sink target).
    pub fn open_index(&self) -> Arc<Mutex<TextIndex>> {
        self.open.clone()
    }

    /// The sealed-segment lifecycle under this engine (layouts by
    /// checkpoint, recovery, GC).
    pub fn log(&self) -> &SealedLog<TextShards> {
        &self.log
    }

    /// Shard-layout accounting.
    pub fn stats(&self) -> TidxStats {
        let layout = self.log.layout();
        TidxStats {
            live_segments: layout.live.len(),
            retired_segments: layout.retired.len(),
            last_sealed: layout.counter,
            next_segment: layout.next_segment,
            next_instance: layout.next_instance,
        }
    }

    /// Live segment metadata, ordered by start time.
    pub fn segments(&self) -> Vec<SegmentMeta> {
        self.log.layout().live
    }

    /// Seals the open shard if its window has elapsed, anchoring the
    /// segment to checkpoint `counter`. Call after each durable
    /// checkpoint. An empty shard slides its window without sealing.
    pub fn maybe_seal(&self, counter: u64) -> Result<Option<SegmentMeta>, TidxError> {
        let mut idx = self.open.lock();
        let is_empty = || idx.all_instances().next().is_none();
        if !self.log.seal_due(idx.horizon(), is_empty) {
            return Ok(None);
        }
        self.seal_open(counter, &mut idx).map(Some)
    }

    /// Unconditionally seals the open shard into an immutable segment
    /// anchored to checkpoint `counter` and swaps in a fresh open
    /// shard carrying still-visible instances (original ids and
    /// `shown` times) plus the current focus state.
    ///
    /// On any error the open shard and the previous layout stay
    /// authoritative; the seal retries at the next checkpoint.
    pub fn seal(&self, counter: u64) -> Result<SegmentMeta, TidxError> {
        self.seal_open(counter, &mut self.open.lock())
    }

    fn seal_open(&self, counter: u64, idx: &mut TextIndex) -> Result<SegmentMeta, TidxError> {
        let _span = self.obs.span("tidx", names::TIDX_SEAL);
        let horizon = idx.horizon();
        let open_start = self.log.layout().open_start;
        let sealed = Sealed {
            start: idx
                .all_instances()
                .map(|i| i.shown)
                .fold(open_start, Timestamp::min),
            end: horizon,
            instances: idx.stats().instances,
            next_instance: idx.max_instance_id().saturating_add(1),
        };
        let meta = self.log.publish(counter, idx, sealed)?;
        // Rebuild the open shard: still-visible instances carry over
        // with their original ids and shown times, so their global
        // visibility is the contiguous union across shards.
        let mut fresh = TextIndex::new();
        for instance in idx.all_instances() {
            if instance.hidden.is_none() && !instance.annotation {
                fresh.add_instance(instance.clone());
            }
        }
        if let Some(&(app, _)) = idx.focus_history().last() {
            fresh.focus_change(app, horizon);
        }
        fresh.advance_horizon(horizon);
        // Carried bytes were already counted when first indexed; reset
        // the gauge-like byte counter to the fresh shard's footprint.
        let obs = idx.obs().clone();
        obs.set_counter(names::INDEX_BYTES, fresh.stats().bytes);
        fresh.set_obs(obs);
        *idx = fresh;
        Ok(meta)
    }

    /// Merges one batch of small same-level segments into a
    /// higher-level segment if any level has enough of them
    /// ([`SealedLog::maybe_compact`]). Returns whether one ran.
    pub fn maybe_compact(&self) -> Result<bool, TidxError> {
        self.log.maybe_compact()
    }

    /// Evaluates `query` over the open shard plus every live segment
    /// overlapping the query's time bounds, returning globally ranked
    /// hits.
    pub fn search(&self, query: &Query, order: RankOrder) -> Result<Vec<SearchHit>, TidxError> {
        self.search_layout(None, query, order)
    }

    /// Evaluates `query` against the shard layout as of checkpoint
    /// `counter` — the newest durable manifest at or before it — and
    /// *not* the open shard. A revived session sees exactly the hits
    /// sealed at or before its checkpoint.
    pub fn search_at(
        &self,
        counter: u64,
        query: &Query,
        order: RankOrder,
    ) -> Result<Vec<SearchHit>, TidxError> {
        self.search_layout(Some(counter), query, order)
    }

    /// The one query body: the live layout plus the open shard
    /// (`at` = `None`), or the layout as of a checkpoint alone.
    fn search_layout(
        &self,
        at: Option<u64>,
        query: &Query,
        order: RankOrder,
    ) -> Result<Vec<SearchHit>, TidxError> {
        self.obs.incr(names::TIDX_QUERIES);
        let _span = self.obs.span("tidx", names::TIDX_QUERY);
        let bounds = query_bounds(query);
        let segments = self
            .log
            .segments_at(at, |m| bounds.is_none_or(|(s, e)| m.start < e && s < m.end))?;
        let open = at.is_none().then(|| self.open.lock());
        // Oldest first, open shard last: the dedup in hit building
        // keeps the most recent copy of a carried instance.
        let shards: Vec<&TextIndex> = segments
            .iter()
            .map(|a| a.as_ref())
            .chain(open.as_deref())
            .collect();
        self.obs
            .observe(names::TIDX_SEGMENT_PROBES, shards.len() as u64);
        let horizon = shards
            .iter()
            .map(|s| s.horizon())
            .max()
            .unwrap_or(Timestamp::ZERO);
        let satisfied = eval_sharded(&shards, horizon, query);
        Ok(build_ranked_hits(
            &shards, &satisfied, query, horizon, order,
        ))
    }

    /// Rebuilds the shard layout from the newest durable manifest (an
    /// archive import or restored store). Returns the manifest's
    /// checkpoint counter, or `None` when the store has no manifests.
    pub fn recover_latest(&self) -> Result<Option<u64>, TidxError> {
        Ok(self.log.recover_latest()?.map(|m| m.counter))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv_fault::{FaultPlan, IoFault};
    use dv_index::{parse_query, IndexedInstance};

    fn engine(config: TidxConfig) -> TidxEngine {
        TidxEngine::new(
            Arc::new(Mutex::new(TextIndex::new())),
            SharedBlobStore::in_memory(),
            FaultPlane::disabled(),
            Obs::disabled(),
            config,
        )
    }

    fn inst(
        id: u64,
        app: &str,
        text: &str,
        shown_ms: u64,
        hidden_ms: Option<u64>,
    ) -> IndexedInstance {
        IndexedInstance {
            id,
            app_id: app.len() as u32,
            app: app.into(),
            window: format!("{app} window"),
            role: "paragraph".into(),
            text: text.into(),
            shown: Timestamp::from_millis(shown_ms),
            hidden: hidden_ms.map(Timestamp::from_millis),
            annotation: false,
        }
    }

    /// Feeds the same stream to a sharded engine (sealing mid-way) and
    /// a single oracle index; queries must agree exactly.
    #[test]
    fn sharded_search_matches_unsharded_oracle() {
        let eng = engine(TidxConfig::default());
        let mut oracle = TextIndex::new();
        let stream = [
            inst(1, "firefox", "alpha beta conference", 0, Some(5_000)),
            inst(2, "editor", "gamma delta notes", 1_000, None), // crosses both seals
            inst(3, "firefox", "alpha gamma", 6_000, Some(9_000)),
            inst(4, "acroread", "beta delta paper", 11_000, Some(14_000)),
            inst(5, "editor", "alpha delta final", 16_000, None),
        ];
        let feed = |eng: &TidxEngine, oracle: &mut TextIndex, i: &IndexedInstance| {
            eng.open_index().lock().add_instance(i.clone());
            oracle.add_instance(i.clone());
        };
        for i in &stream[..3] {
            feed(&eng, &mut oracle, i);
        }
        eng.open_index()
            .lock()
            .advance_horizon(Timestamp::from_millis(10_000));
        oracle.advance_horizon(Timestamp::from_millis(10_000));
        eng.seal(1).unwrap();
        for i in &stream[3..] {
            feed(&eng, &mut oracle, i);
        }
        eng.open_index()
            .lock()
            .advance_horizon(Timestamp::from_millis(20_000));
        oracle.advance_horizon(Timestamp::from_millis(20_000));
        eng.seal(2).unwrap();
        assert_eq!(eng.stats().live_segments, 2);
        for q in [
            "alpha",
            "delta",
            "alpha delta",
            "alpha OR beta",
            "delta -alpha",
            "app:editor delta",
            "\"alpha beta\"",
            "from:2 to:12 gamma",
        ] {
            let query = parse_query(q).unwrap();
            for order in [
                RankOrder::Chronological,
                RankOrder::ReverseChronological,
                RankOrder::PersistenceAscending,
                RankOrder::MatchCount,
                RankOrder::PersistenceWeighted,
            ] {
                let sharded = eng.search(&query, order).unwrap();
                let single = dv_index::search(&oracle, &query, order);
                assert_eq!(sharded, single, "query {q:?} order {order:?} diverged");
            }
        }
    }

    /// A revive at checkpoint N sees exactly the segments sealed at or
    /// before N.
    #[test]
    fn search_at_is_snapshot_consistent() {
        let eng = engine(TidxConfig::default());
        let open = eng.open_index();
        open.lock()
            .add_instance(inst(1, "a", "early needle", 0, Some(1_000)));
        open.lock().advance_horizon(Timestamp::from_millis(2_000));
        eng.seal(3).unwrap();
        open.lock()
            .add_instance(inst(2, "a", "late needle", 3_000, Some(4_000)));
        open.lock().advance_horizon(Timestamp::from_millis(5_000));
        eng.seal(7).unwrap();
        let query = parse_query("needle").unwrap();
        assert!(eng
            .search_at(2, &query, RankOrder::Chronological)
            .unwrap()
            .is_empty());
        let at3 = eng.search_at(3, &query, RankOrder::Chronological).unwrap();
        assert_eq!(at3.len(), 1, "checkpoint 3 sees only the first seal");
        assert_eq!(at3[0].time, Timestamp::ZERO);
        // Counters between manifests resolve to the newest at-or-before.
        assert_eq!(
            eng.search_at(5, &query, RankOrder::Chronological)
                .unwrap()
                .len(),
            1
        );
        let at7 = eng.search_at(7, &query, RankOrder::Chronological).unwrap();
        assert_eq!(at7.len(), 2, "checkpoint 7 sees both seals");
        // The live query also sees everything.
        assert_eq!(
            eng.search(&query, RankOrder::Chronological).unwrap().len(),
            2
        );
    }

    #[test]
    fn compaction_preserves_results_and_reclaims_after_checkpoint() {
        let eng = engine(TidxConfig::default());
        let open = eng.open_index();
        for k in 0..4u64 {
            let base = k * 10_000;
            open.lock().add_instance(inst(
                k + 1,
                "app",
                &format!("needle batch{k}"),
                base,
                Some(base + 1_000),
            ));
            open.lock()
                .advance_horizon(Timestamp::from_millis(base + 2_000));
            eng.seal(k + 1).unwrap();
        }
        let query = parse_query("needle").unwrap();
        let before = eng.search(&query, RankOrder::Chronological).unwrap();
        assert_eq!(before.len(), 4);
        assert_eq!(eng.stats().live_segments, 4);
        assert!(eng.maybe_compact().unwrap());
        assert_eq!(eng.stats().live_segments, 1);
        assert_eq!(eng.stats().retired_segments, 4);
        let after = eng.search(&query, RankOrder::Chronological).unwrap();
        assert_eq!(before, after, "compaction must not change results");
        assert!(!eng.maybe_compact().unwrap(), "nothing left to merge");
        // Inputs are reclaimed only once a newer manifest is durable.
        open.lock()
            .add_instance(inst(9, "app", "needle fresh", 50_000, Some(51_000)));
        open.lock().advance_horizon(Timestamp::from_millis(52_000));
        eng.seal(5).unwrap();
        assert_eq!(eng.stats().retired_segments, 0, "GC ran at the next seal");
        let final_hits = eng.search(&query, RankOrder::Chronological).unwrap();
        assert_eq!(final_hits.len(), 5);
    }

    /// An instance carried open across one seal and closed before the
    /// next must stay closed after compaction: the newest copy (the
    /// one that saw the hide) is authoritative, even though the older
    /// segment's still-open copy has a "later" (unbounded) end.
    #[test]
    fn compaction_keeps_the_closed_copy_of_a_carried_instance() {
        let eng = engine(TidxConfig::default());
        let open = eng.open_index();
        // Still open at the first seal: segment 0 records hidden=None.
        open.lock()
            .add_instance(inst(1, "app", "carried needle", 0, None));
        open.lock().advance_horizon(Timestamp::from_millis(5_000));
        eng.seal(1).unwrap();
        // Closed before the second seal: segment 1 records hidden=6s.
        open.lock().close_instance(1, Timestamp::from_millis(6_000));
        open.lock()
            .add_instance(inst(2, "app", "later needle", 8_000, Some(9_000)));
        open.lock().advance_horizon(Timestamp::from_millis(10_000));
        eng.seal(2).unwrap();
        // Two more shards fill the compaction batch.
        for k in 3..=4u64 {
            open.lock()
                .add_instance(inst(k, "app", "filler", k * 10_000, Some(k * 10_000 + 500)));
            open.lock()
                .advance_horizon(Timestamp::from_millis(k * 10_000 + 1_000));
            eng.seal(k).unwrap();
        }
        let all = parse_query("needle").unwrap();
        let window = parse_query("from:6 to:8 carried").unwrap();
        let before = eng.search(&all, RankOrder::Chronological).unwrap();
        assert!(eng
            .search(&window, RankOrder::Chronological)
            .unwrap()
            .is_empty());
        assert!(eng.maybe_compact().unwrap());
        assert_eq!(eng.stats().live_segments, 1);
        let after = eng.search(&all, RankOrder::Chronological).unwrap();
        assert_eq!(before, after, "compaction must not change results");
        assert!(
            eng.search(&window, RankOrder::Chronological)
                .unwrap()
                .is_empty(),
            "the carried instance stays hidden after its close time"
        );
    }

    /// A segment mangled on its way through `index.segment.flush`
    /// carries a valid CRC, so only the merge's own validation can
    /// refuse it. The refusal is counted and traced, leaves every input
    /// live, and does not keep the other segments from compacting.
    #[test]
    fn a_segment_the_merge_refuses_is_reported_and_stepped_around() {
        // Seed 1 lands the flipped byte inside a string: invalid UTF-8.
        let plane = FaultPlan::new(1)
            .fail_nth(sites::INDEX_SEGMENT_FLUSH, 1, IoFault::Corrupt)
            .build();
        let obs = Obs::sim();
        let eng = TidxEngine::new(
            Arc::new(Mutex::new(TextIndex::new())),
            SharedBlobStore::in_memory(),
            plane,
            obs.clone(),
            TidxConfig::default(),
        );
        let open = eng.open_index();
        for k in 0..9u64 {
            let base = k * 10_000;
            let text = format!("needle batch{k}");
            open.lock()
                .add_instance(inst(k + 1, "app", &text, base, Some(base + 1_000)));
            open.lock()
                .advance_horizon(Timestamp::from_millis(base + 2_000));
            eng.seal(k + 1).unwrap();
        }
        let later = parse_query("from:10 to:90 needle").unwrap();
        let hits = eng.search(&later, RankOrder::Chronological).unwrap();
        assert_eq!(hits.len(), 8);
        let all = parse_query("needle").unwrap();
        assert!(eng.search(&all, RankOrder::Chronological).is_err());

        assert!(eng.maybe_compact().is_err(), "segment 0 does not scan");
        assert_eq!(obs.counter(names::TIDX_COMPACT_FAILURES), 1);
        let events = obs.events();
        let failed = |e: &&dv_obs::TraceEvent| e.name == names::EV_TIDX_COMPACT_FAILED;
        let event = events.iter().find(failed).expect("the failure is traced");
        assert!(event
            .detail
            .starts_with("inputs=[0, 1, 2, 3] error=segment 0 unreadable"));
        assert_eq!(eng.stats().live_segments, 9, "the inputs stay live");
        assert_eq!(eng.search(&later, RankOrder::Chronological).unwrap(), hits);

        assert_eq!(eng.maybe_compact(), Ok(true), "segments 1-4 merge");
        assert_eq!(eng.maybe_compact(), Ok(true), "segments 5-8 merge");
        assert_eq!(eng.maybe_compact(), Ok(false));
        assert_eq!(eng.stats().live_segments, 3);
        assert_eq!(obs.counter(names::TIDX_COMPACT_FAILURES), 1);
        assert_eq!(eng.search(&later, RankOrder::Chronological).unwrap(), hits);
    }

    /// The merged bytes pass `index.segment.flush` like a seal's; a
    /// fault there is the output's, not an input's, so the same batch
    /// merges on the next call.
    #[test]
    fn a_flush_fault_during_compaction_retries_the_same_batch() {
        // Checks one to four are the seals'; the fifth is the merge's.
        let plane = FaultPlan::new(7)
            .fail_nth(sites::INDEX_SEGMENT_FLUSH, 5, IoFault::Enospc)
            .build();
        let eng = TidxEngine::new(
            Arc::new(Mutex::new(TextIndex::new())),
            SharedBlobStore::in_memory(),
            plane.clone(),
            Obs::disabled(),
            TidxConfig::default(),
        );
        let open = eng.open_index();
        for k in 0..4u64 {
            open.lock()
                .add_instance(inst(k + 1, "app", "needle", k * 10_000, None));
            open.lock()
                .advance_horizon(Timestamp::from_millis(k * 10_000 + 2_000));
            eng.seal(k + 1).unwrap();
        }
        let err = eng.maybe_compact().unwrap_err();
        assert!(err.to_string().contains("no space left"), "{err}");
        assert_eq!(plane.injected_at(sites::INDEX_SEGMENT_FLUSH), 1);
        assert_eq!(eng.stats().live_segments, 4);
        assert_eq!(eng.maybe_compact(), Ok(true));
        assert_eq!(eng.stats().live_segments, 1);
    }

    /// GC reclaims manifests along with the segments they reference,
    /// and queries below the retention floor report a clean
    /// out-of-retention error instead of a missing-blob failure.
    #[test]
    fn gc_reclaims_stale_manifests_and_flags_out_of_retention() {
        let store = SharedBlobStore::in_memory();
        let eng = TidxEngine::new(
            Arc::new(Mutex::new(TextIndex::new())),
            store.clone(),
            FaultPlane::disabled(),
            Obs::disabled(),
            TidxConfig::default(),
        );
        let open = eng.open_index();
        for k in 0..4u64 {
            let base = k * 10_000;
            open.lock().add_instance(inst(
                k + 1,
                "app",
                &format!("needle batch{k}"),
                base,
                Some(base + 1_000),
            ));
            open.lock()
                .advance_horizon(Timestamp::from_millis(base + 2_000));
            eng.seal(k + 1).unwrap();
        }
        assert!(eng.maybe_compact().unwrap());
        let query = parse_query("needle").unwrap();
        // The inputs are still on disk, so old checkpoints revive.
        assert_eq!(
            eng.search_at(1, &query, RankOrder::Chronological)
                .unwrap()
                .len(),
            1
        );
        // Seal 5 makes a manifest referencing the compacted output
        // durable; GC then reclaims the inputs and every manifest that
        // still listed them as live.
        open.lock()
            .add_instance(inst(9, "app", "needle fresh", 50_000, Some(51_000)));
        open.lock().advance_horizon(Timestamp::from_millis(52_000));
        eng.seal(5).unwrap();
        assert_eq!(eng.stats().retired_segments, 0, "GC ran at the seal");
        match eng.search_at(4, &query, RankOrder::Chronological) {
            Err(TidxError::OutOfRetention {
                requested: 4,
                oldest: 5,
            }) => {}
            other => panic!("expected out-of-retention, got {other:?}"),
        }
        // The floor checkpoint and the live view still serve.
        assert_eq!(
            eng.search_at(5, &query, RankOrder::Chronological)
                .unwrap()
                .len(),
            5
        );
        assert_eq!(
            eng.search(&query, RankOrder::Chronological).unwrap().len(),
            5
        );
        // A recovered engine learns the retention floor from the
        // manifest and reports the same clean error.
        let fresh = TidxEngine::new(
            Arc::new(Mutex::new(TextIndex::new())),
            store,
            FaultPlane::disabled(),
            Obs::disabled(),
            TidxConfig::default(),
        );
        assert_eq!(fresh.recover_latest().unwrap(), Some(5));
        assert!(matches!(
            fresh.search_at(2, &query, RankOrder::Chronological),
            Err(TidxError::OutOfRetention { .. })
        ));
    }

    #[test]
    fn seal_faults_leave_the_open_shard_authoritative() {
        let plane = FaultPlan::new(11)
            .always(sites::TIDX_SEAL, IoFault::Enospc)
            .build();
        let eng = TidxEngine::new(
            Arc::new(Mutex::new(TextIndex::new())),
            SharedBlobStore::in_memory(),
            plane,
            Obs::disabled(),
            TidxConfig::default(),
        );
        let open = eng.open_index();
        open.lock()
            .add_instance(inst(1, "a", "survivor text", 0, Some(500)));
        open.lock().advance_horizon(Timestamp::from_millis(1_000));
        assert!(eng.seal(1).is_err());
        assert_eq!(eng.stats().live_segments, 0);
        let query = parse_query("survivor").unwrap();
        assert_eq!(
            eng.search(&query, RankOrder::Chronological).unwrap().len(),
            1,
            "failed seal keeps serving from the open shard"
        );
    }

    #[test]
    fn corrupt_seal_is_detected_on_probe() {
        let plane = FaultPlan::new(13)
            .always(sites::TIDX_SEAL, IoFault::Corrupt)
            .build();
        let eng = TidxEngine::new(
            Arc::new(Mutex::new(TextIndex::new())),
            SharedBlobStore::in_memory(),
            plane,
            Obs::disabled(),
            TidxConfig::default(),
        );
        let open = eng.open_index();
        open.lock()
            .add_instance(inst(1, "a", "mangled words", 0, Some(500)));
        open.lock().advance_horizon(Timestamp::from_millis(1_000));
        eng.seal(1).unwrap();
        let query = parse_query("mangled").unwrap();
        assert!(
            eng.search(&query, RankOrder::Chronological).is_err(),
            "CRC framing catches the mangled segment"
        );
    }

    #[test]
    fn recover_latest_rebuilds_layout_from_manifest() {
        let store = SharedBlobStore::in_memory();
        let eng = TidxEngine::new(
            Arc::new(Mutex::new(TextIndex::new())),
            store.clone(),
            FaultPlane::disabled(),
            Obs::disabled(),
            TidxConfig::default(),
        );
        let open = eng.open_index();
        open.lock()
            .add_instance(inst(1, "a", "persisted needle", 0, Some(500)));
        open.lock().advance_horizon(Timestamp::from_millis(1_000));
        eng.seal(5).unwrap();
        // A second engine over the same store recovers the layout.
        let fresh = TidxEngine::new(
            Arc::new(Mutex::new(TextIndex::new())),
            store,
            FaultPlane::disabled(),
            Obs::disabled(),
            TidxConfig::default(),
        );
        assert_eq!(fresh.recover_latest().unwrap(), Some(5));
        assert_eq!(fresh.stats().live_segments, 1);
        assert_eq!(fresh.stats().next_segment, 1);
        let query = parse_query("needle").unwrap();
        assert_eq!(
            fresh
                .search(&query, RankOrder::Chronological)
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn during_queries_prune_the_probe_set() {
        let eng = engine(TidxConfig::default());
        let open = eng.open_index();
        for k in 0..4u64 {
            let base = k * 10_000;
            open.lock().add_instance(inst(
                k + 1,
                "app",
                &format!("word{k} needle"),
                base,
                Some(base + 1_000),
            ));
            open.lock()
                .advance_horizon(Timestamp::from_millis(base + 2_000));
            eng.seal(k + 1).unwrap();
        }
        // Bounded query: only the first segment overlaps 0..2s.
        let query = parse_query("from:0 to:2 needle").unwrap();
        let hits = eng.search(&query, RankOrder::Chronological).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].time, Timestamp::ZERO);
    }
}
