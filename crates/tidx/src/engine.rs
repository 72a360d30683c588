//! The sharded temporal index engine.
//!
//! One engine serves one session (tenant). Text states route into the
//! **open shard** — the same mutable [`TextIndex`] the capture daemon
//! already writes into — which the shared [`SealedLog`] lifecycle owns:
//! at checkpoint boundaries it **seals** into an immutable segment, so
//! index durability is snapshot-consistent with the filesystem: a
//! revive at checkpoint N queries exactly the segments sealed at or
//! before N ([`TidxEngine::search_at`]). Sealing, publish order,
//! compaction, retirement, GC, recovery and the archive's open shard
//! are the lifecycle's; what is this crate's is what a text seal covers
//! and carries (still-visible instances and the focus state), how text
//! segments merge (the newest copy of an instance wins), and which
//! shards a query probes. Evaluation is `dv_index::search` over them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use dv_fault::{sites, FaultPlane};
use dv_index::{
    decode_index, flush_encoded, flush_segment, merge_segments, Query, RankOrder, SearchHit,
    TextIndex,
};
use dv_lsfs::{
    MergeError, Payload, Sealed, SealedConfig, SealedLog, SegmentError, SegmentNames,
    SharedBlobStore,
};
use dv_obs::{names, Obs};
use dv_time::Timestamp;

static NAMES: SegmentNames = SegmentNames {
    stem: "tidx",
    seg_magic: b"DVTSEG01",
    seal_site: sites::TIDX_SEAL,
    compact_site: sites::TIDX_COMPACT,
    seal_span: names::TIDX_SEAL,
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
/// `index.segment.flush` fault site `plane` arms. The open shard's ids
/// come from `ids`, the capture daemon's instance allocator.
pub struct TextShards {
    plane: FaultPlane,
    obs: Obs,
    ids: Arc<AtomicU64>,
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

    /// An instance carried across a seal keeps its original `shown`
    /// time, so a segment can start before its window.
    fn extent(&self, index: &TextIndex, open_start: Timestamp) -> Sealed {
        let (start, instances, max_id) = index
            .all_instances()
            .fold((open_start, 0, 0), |(start, n, max_id), i| {
                (start.min(i.shown), n + 1, max_id.max(i.id))
            });
        Sealed {
            start,
            end: index.horizon(),
            instances,
            next_instance: max_id.saturating_add(1),
        }
    }

    /// Still-visible instances carry over with their original ids and
    /// shown times, so their global visibility is the contiguous union
    /// across shards; so does the focus state.
    fn carry(&self, sealed: &TextIndex) -> TextIndex {
        let mut next = TextIndex::new();
        for instance in sealed.all_instances() {
            if instance.hidden.is_none() && !instance.annotation {
                next.add_instance(instance.clone());
            }
        }
        if let Some(&(app, _)) = sealed.focus_history().last() {
            next.focus_change(app, sealed.horizon());
        }
        next
    }

    /// Carried bytes were already counted when first indexed, so the
    /// gauge-like `index.bytes` counter restarts at the shard's own
    /// footprint.
    fn resume(&self, index: &mut TextIndex, next_instance: u64, horizon: Timestamp) {
        index.advance_horizon(horizon);
        index.set_obs(self.obs.clone());
        self.obs
            .set_counter(names::INDEX_BYTES, index.stats().bytes);
        let next = next_instance.max(index.max_instance_id().saturating_add(1));
        self.ids.fetch_max(next, Ordering::Relaxed);
    }
}

/// The sharded temporal index engine for one session.
pub struct TidxEngine {
    obs: Obs,
    log: SealedLog<TextShards>,
}

impl TidxEngine {
    /// Wraps an existing open index (shared with the capture daemon,
    /// which allocates instance ids from `ids`) over `store`.
    pub fn new(
        open: Arc<Mutex<TextIndex>>,
        ids: Arc<AtomicU64>,
        store: SharedBlobStore,
        plane: FaultPlane,
        obs: Obs,
        config: SealedConfig,
    ) -> Self {
        let payload = TextShards {
            plane: plane.clone(),
            obs: obs.clone(),
            ids,
        };
        let log = SealedLog::new(payload, &NAMES, open, store, plane, obs.clone(), config);
        TidxEngine { obs, log }
    }

    /// The sealed-segment lifecycle under this engine: the open shard,
    /// seals, layouts by checkpoint, recovery and GC.
    pub fn log(&self) -> &SealedLog<TextShards> {
        &self.log
    }

    /// Merges one batch of small same-level segments into a
    /// higher-level segment if any level has enough of them
    /// ([`SealedLog::maybe_compact`]). Returns whether one ran.
    pub fn maybe_compact(&self) -> Result<bool, SegmentError> {
        self.log.maybe_compact()
    }

    /// Evaluates `query` over the open shard plus every live segment
    /// overlapping the query's time bounds, returning globally ranked
    /// hits.
    pub fn search(&self, query: &Query, order: RankOrder) -> Result<Vec<SearchHit>, SegmentError> {
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
    ) -> Result<Vec<SearchHit>, SegmentError> {
        self.search_layout(Some(counter), query, order)
    }

    /// The one query body: the live layout plus the open shard
    /// (`at` = `None`), or the layout as of a checkpoint alone. Oldest
    /// first, open shard last: the evaluator keeps the most recent copy
    /// of a carried instance.
    fn search_layout(
        &self,
        at: Option<u64>,
        query: &Query,
        order: RankOrder,
    ) -> Result<Vec<SearchHit>, SegmentError> {
        self.obs.incr(names::TIDX_QUERIES);
        let _span = self.obs.span("tidx", names::TIDX_QUERY);
        let bounds = query_bounds(query);
        let overlaps =
            |m: &dv_lsfs::SegmentMeta| bounds.is_none_or(|(s, e)| m.start < e && s < m.end);
        self.log.with_shards(at, overlaps, |shards| {
            self.obs
                .observe(names::TIDX_SEGMENT_PROBES, shards.len() as u64);
            dv_index::search(shards, query, order)
        })
    }
}

/// The time window a query can possibly be satisfied in, used to prune
/// the segment probe set. `None` means unbounded (any `Not` — absence
/// is checkable anywhere — or a bare leaf). Conservative by design:
/// pruning only ever shrinks work, never results.
fn query_bounds(query: &Query) -> Option<(Timestamp, Timestamp)> {
    fn meet(
        a: Option<(Timestamp, Timestamp)>,
        b: Option<(Timestamp, Timestamp)>,
    ) -> Option<(Timestamp, Timestamp)> {
        match (a, b) {
            (None, other) | (other, None) => other,
            (Some((s1, e1)), Some((s2, e2))) => {
                let s = s1.max(s2);
                Some((s, e1.min(e2).max(s)))
            }
        }
    }
    match query {
        Query::During { from, to, q } => meet(Some((*from, *to)), query_bounds(q)),
        Query::And(a, b) => meet(query_bounds(a), query_bounds(b)),
        Query::Or(a, b) => match (query_bounds(a), query_bounds(b)) {
            (Some((s1, e1)), Some((s2, e2))) => Some((s1.min(s2), e1.max(e2))),
            _ => None,
        },
        Query::App(_, q) | Query::Window(_, q) | Query::Focused(q) | Query::Annotated(q) => {
            query_bounds(q)
        }
        Query::Any | Query::Term(_) | Query::Phrase(_) | Query::Not(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv_fault::{FaultPlan, IoFault};
    use dv_index::{parse_query, IndexedInstance};
    use dv_lsfs::Lifecycle;

    fn engine(config: SealedConfig) -> TidxEngine {
        TidxEngine::new(
            Default::default(),
            Default::default(),
            SharedBlobStore::in_memory(),
            FaultPlane::disabled(),
            Obs::disabled(),
            config,
        )
    }

    fn engine_over(store: SharedBlobStore, plane: FaultPlane, obs: Obs) -> TidxEngine {
        TidxEngine::new(
            Default::default(),
            Default::default(),
            store,
            plane,
            obs,
            SealedConfig::default(),
        )
    }

    fn live(eng: &TidxEngine) -> usize {
        eng.log().layout().live.len()
    }

    fn retired(eng: &TidxEngine) -> usize {
        eng.log().layout().retired.len()
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
        let eng = engine(SealedConfig::default());
        let mut oracle = TextIndex::new();
        let stream = [
            inst(1, "firefox", "alpha beta conference", 0, Some(5_000)),
            inst(2, "editor", "gamma delta notes", 1_000, None), // crosses both seals
            inst(3, "firefox", "alpha gamma", 6_000, Some(9_000)),
            inst(4, "acroread", "beta delta paper", 11_000, Some(14_000)),
            inst(5, "editor", "alpha delta final", 16_000, None),
        ];
        let feed = |eng: &TidxEngine, oracle: &mut TextIndex, i: &IndexedInstance| {
            eng.log().open().lock().add_instance(i.clone());
            oracle.add_instance(i.clone());
        };
        for i in &stream[..3] {
            feed(&eng, &mut oracle, i);
        }
        eng.log()
            .open()
            .lock()
            .advance_horizon(Timestamp::from_millis(10_000));
        oracle.advance_horizon(Timestamp::from_millis(10_000));
        eng.log().seal(1).unwrap();
        for i in &stream[3..] {
            feed(&eng, &mut oracle, i);
        }
        eng.log()
            .open()
            .lock()
            .advance_horizon(Timestamp::from_millis(20_000));
        oracle.advance_horizon(Timestamp::from_millis(20_000));
        eng.log().seal(2).unwrap();
        assert_eq!(live(&eng), 2);
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
                let single = dv_index::search(&[&oracle], &query, order);
                assert_eq!(sharded, single, "query {q:?} order {order:?} diverged");
            }
        }
    }

    /// A revive at checkpoint N sees exactly the segments sealed at or
    /// before N.
    #[test]
    fn search_at_is_snapshot_consistent() {
        let eng = engine(SealedConfig::default());
        let open = eng.log().open();
        open.lock()
            .add_instance(inst(1, "a", "early needle", 0, Some(1_000)));
        open.lock().advance_horizon(Timestamp::from_millis(2_000));
        eng.log().seal(3).unwrap();
        open.lock()
            .add_instance(inst(2, "a", "late needle", 3_000, Some(4_000)));
        open.lock().advance_horizon(Timestamp::from_millis(5_000));
        eng.log().seal(7).unwrap();
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
        let eng = engine(SealedConfig::default());
        let open = eng.log().open();
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
            eng.log().seal(k + 1).unwrap();
        }
        let query = parse_query("needle").unwrap();
        let before = eng.search(&query, RankOrder::Chronological).unwrap();
        assert_eq!(before.len(), 4);
        assert_eq!(live(&eng), 4);
        assert!(eng.maybe_compact().unwrap());
        assert_eq!(live(&eng), 1);
        assert_eq!(retired(&eng), 4);
        let after = eng.search(&query, RankOrder::Chronological).unwrap();
        assert_eq!(before, after, "compaction must not change results");
        assert!(!eng.maybe_compact().unwrap(), "nothing left to merge");
        // Inputs are reclaimed only once a newer manifest is durable.
        open.lock()
            .add_instance(inst(9, "app", "needle fresh", 50_000, Some(51_000)));
        open.lock().advance_horizon(Timestamp::from_millis(52_000));
        eng.log().seal(5).unwrap();
        assert_eq!(retired(&eng), 0, "GC ran at the next seal");
        let final_hits = eng.search(&query, RankOrder::Chronological).unwrap();
        assert_eq!(final_hits.len(), 5);
    }

    /// An instance carried open across one seal and closed before the
    /// next must stay closed after compaction: the newest copy (the
    /// one that saw the hide) is authoritative, even though the older
    /// segment's still-open copy has a "later" (unbounded) end.
    #[test]
    fn compaction_keeps_the_closed_copy_of_a_carried_instance() {
        let eng = engine(SealedConfig::default());
        let open = eng.log().open();
        // Still open at the first seal: segment 0 records hidden=None.
        open.lock()
            .add_instance(inst(1, "app", "carried needle", 0, None));
        open.lock().advance_horizon(Timestamp::from_millis(5_000));
        eng.log().seal(1).unwrap();
        // Closed before the second seal: segment 1 records hidden=6s.
        open.lock().close_instance(1, Timestamp::from_millis(6_000));
        open.lock()
            .add_instance(inst(2, "app", "later needle", 8_000, Some(9_000)));
        open.lock().advance_horizon(Timestamp::from_millis(10_000));
        eng.log().seal(2).unwrap();
        // Two more shards fill the compaction batch.
        for k in 3..=4u64 {
            open.lock()
                .add_instance(inst(k, "app", "filler", k * 10_000, Some(k * 10_000 + 500)));
            open.lock()
                .advance_horizon(Timestamp::from_millis(k * 10_000 + 1_000));
            eng.log().seal(k).unwrap();
        }
        let all = parse_query("needle").unwrap();
        let window = parse_query("from:6 to:8 carried").unwrap();
        let before = eng.search(&all, RankOrder::Chronological).unwrap();
        assert!(eng
            .search(&window, RankOrder::Chronological)
            .unwrap()
            .is_empty());
        assert!(eng.maybe_compact().unwrap());
        assert_eq!(live(&eng), 1);
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
        let eng = engine_over(SharedBlobStore::in_memory(), plane, obs.clone());
        let open = eng.log().open();
        for k in 0..9u64 {
            let base = k * 10_000;
            let text = format!("needle batch{k}");
            open.lock()
                .add_instance(inst(k + 1, "app", &text, base, Some(base + 1_000)));
            open.lock()
                .advance_horizon(Timestamp::from_millis(base + 2_000));
            eng.log().seal(k + 1).unwrap();
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
        assert_eq!(live(&eng), 9, "the inputs stay live");
        assert_eq!(eng.search(&later, RankOrder::Chronological).unwrap(), hits);

        assert_eq!(eng.maybe_compact(), Ok(true), "segments 1-4 merge");
        assert_eq!(eng.maybe_compact(), Ok(true), "segments 5-8 merge");
        assert_eq!(eng.maybe_compact(), Ok(false));
        assert_eq!(live(&eng), 3);
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
        let eng = engine_over(SharedBlobStore::in_memory(), plane.clone(), Obs::disabled());
        let open = eng.log().open();
        for k in 0..4u64 {
            open.lock()
                .add_instance(inst(k + 1, "app", "needle", k * 10_000, None));
            open.lock()
                .advance_horizon(Timestamp::from_millis(k * 10_000 + 2_000));
            eng.log().seal(k + 1).unwrap();
        }
        let err = eng.maybe_compact().unwrap_err();
        assert!(err.to_string().contains("no space left"), "{err}");
        assert_eq!(plane.injected_at(sites::INDEX_SEGMENT_FLUSH), 1);
        assert_eq!(live(&eng), 4);
        assert_eq!(eng.maybe_compact(), Ok(true));
        assert_eq!(live(&eng), 1);
    }

    /// GC reclaims manifests along with the segments they reference,
    /// and queries below the retention floor report a clean
    /// out-of-retention error instead of a missing-blob failure.
    #[test]
    fn gc_reclaims_stale_manifests_and_flags_out_of_retention() {
        let store = SharedBlobStore::in_memory();
        let eng = engine_over(store.clone(), FaultPlane::disabled(), Obs::disabled());
        let open = eng.log().open();
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
            eng.log().seal(k + 1).unwrap();
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
        eng.log().seal(5).unwrap();
        assert_eq!(retired(&eng), 0, "GC ran at the seal");
        match eng.search_at(4, &query, RankOrder::Chronological) {
            Err(SegmentError::OutOfRetention {
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
        let fresh = engine_over(store, FaultPlane::disabled(), Obs::disabled());
        assert_eq!(
            fresh.log().recover_latest().unwrap().map(|m| m.counter),
            Some(5)
        );
        assert!(matches!(
            fresh.search_at(2, &query, RankOrder::Chronological),
            Err(SegmentError::OutOfRetention { .. })
        ));
    }

    #[test]
    fn seal_faults_leave_the_open_shard_authoritative() {
        let plane = FaultPlan::new(11)
            .always(sites::TIDX_SEAL, IoFault::Enospc)
            .build();
        let eng = engine_over(SharedBlobStore::in_memory(), plane, Obs::disabled());
        let open = eng.log().open();
        open.lock()
            .add_instance(inst(1, "a", "survivor text", 0, Some(500)));
        open.lock().advance_horizon(Timestamp::from_millis(1_000));
        assert!(eng.log().seal(1).is_err());
        assert_eq!(live(&eng), 0);
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
        let eng = engine_over(SharedBlobStore::in_memory(), plane, Obs::disabled());
        let open = eng.log().open();
        open.lock()
            .add_instance(inst(1, "a", "mangled words", 0, Some(500)));
        open.lock().advance_horizon(Timestamp::from_millis(1_000));
        eng.log().seal(1).unwrap();
        let query = parse_query("mangled").unwrap();
        assert!(
            eng.search(&query, RankOrder::Chronological).is_err(),
            "CRC framing catches the mangled segment"
        );
    }

    #[test]
    fn recover_latest_rebuilds_layout_from_manifest() {
        let store = SharedBlobStore::in_memory();
        let eng = engine_over(store.clone(), FaultPlane::disabled(), Obs::disabled());
        let open = eng.log().open();
        open.lock()
            .add_instance(inst(1, "a", "persisted needle", 0, Some(500)));
        open.lock().advance_horizon(Timestamp::from_millis(1_000));
        eng.log().seal(5).unwrap();
        // A second engine over the same store recovers the layout.
        let fresh = engine_over(store, FaultPlane::disabled(), Obs::disabled());
        assert_eq!(
            fresh.log().recover_latest().unwrap().map(|m| m.counter),
            Some(5)
        );
        assert_eq!(live(&fresh), 1);
        assert_eq!(fresh.log().layout().next_segment, 1);
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
        let eng = engine(SealedConfig::default());
        let open = eng.log().open();
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
            eng.log().seal(k + 1).unwrap();
        }
        // Bounded query: only the first segment overlaps 0..2s.
        let query = parse_query("from:0 to:2 needle").unwrap();
        let hits = eng.search(&query, RankOrder::Chronological).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].time, Timestamp::ZERO);
    }
}
