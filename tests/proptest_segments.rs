//! Model test for the sealed-segment lifecycle (DESIGN.md §16) under
//! dv-tidx and dv-vidx.
//!
//! Random interleavings of publish / compact / gc / crash-and-recover
//! run against one shared blob store, with `Enospc`, `Corrupt` and
//! `TornWrite` firing at random at the seal and compaction sites, next
//! to a plain-list model. After every step:
//!
//! - the layout at checkpoint `N` equals the model's for every `N` at
//!   or above the retention floor and is `OutOfRetention` below it;
//! - every segment a surviving manifest names exists and decodes to
//!   the model's contents — or fails its CRC if the model saw it
//!   mangled; manifests below the floor are gone;
//! - a failed publish leaves the store and the layout as they were;
//! - an engine recovered from the store equals the last durable state.
//!
//! Beside it, the byte-level merges are held to the decode → merge →
//! encode sequence they replaced, written out here as the reference.

mod common;

use std::collections::BTreeMap;

use proptest::prelude::*;

use dv_fault::{FaultPlan, FaultPlane, IoFault};
use dv_index::{decode_index, encode_index, merge_segments, IndexedInstance, TextIndex};
use dv_lsfs::sealed::COMPACT_FANIN;
use dv_lsfs::{Manifest, Payload, Sealed, SealedLog, SegmentError, SharedBlobStore};
use dv_obs::Obs;
use dv_time::Timestamp;
use dv_vidx::{Fingerprint, Strips, VisualInstance, VisualStrip};

/// One index: how to open an engine over a store and reach its log,
/// how to build a segment holding entries `ids`, and how to list a
/// decoded segment's entries.
trait Kind: Sized {
    type P: Payload;
    fn open(store: &SharedBlobStore, plane: &FaultPlane) -> Self;
    fn log(&self) -> &SealedLog<Self::P>;
    fn segment(ids: &[u64]) -> <Self::P as Payload>::Segment;
    fn ids(segment: &<Self::P as Payload>::Segment) -> Vec<u64>;
}

impl Kind for dv_tidx::TidxEngine {
    type P = dv_tidx::TextShards;

    fn open(store: &SharedBlobStore, plane: &FaultPlane) -> Self {
        let (store, plane) = (store.clone(), plane.clone());
        Self::new(
            Default::default(),
            store,
            plane,
            Obs::disabled(),
            Default::default(),
        )
    }

    fn log(&self) -> &SealedLog<Self::P> {
        self.log()
    }

    fn segment(ids: &[u64]) -> TextIndex {
        let mut index = TextIndex::new();
        for &id in ids {
            index.add_instance(IndexedInstance {
                id,
                app_id: 1,
                app: "app".into(),
                window: "window".into(),
                role: "paragraph".into(),
                text: format!("entry {id}"),
                shown: Timestamp::from_millis(id),
                hidden: Some(Timestamp::from_millis(id + 1)),
                annotation: false,
            });
        }
        index
    }

    fn ids(index: &TextIndex) -> Vec<u64> {
        let mut ids: Vec<u64> = index.all_instances().map(|i| i.id).collect();
        ids.sort_unstable();
        ids
    }
}

impl Kind for dv_vidx::VidxEngine {
    type P = dv_vidx::Strips;

    fn open(store: &SharedBlobStore, plane: &FaultPlane) -> Self {
        Self::new(
            store.clone(),
            plane.clone(),
            Obs::disabled(),
            Default::default(),
        )
    }

    fn log(&self) -> &SealedLog<Self::P> {
        self.log()
    }

    fn segment(ids: &[u64]) -> VisualStrip {
        let instance = |&id: &u64| VisualInstance {
            id,
            fp: Fingerprint([id, !id, id << 7, 0]),
            first: Timestamp::from_millis(id),
            last: Timestamp::from_millis(id),
            frames: 1,
            thumb: vec![id as u8; 3],
        };
        VisualStrip::from_instances(ids.iter().map(instance).collect())
    }

    fn ids(strip: &VisualStrip) -> Vec<u64> {
        strip.instances().iter().map(|i| i.id).collect()
    }
}

#[derive(Clone, Debug)]
enum Op {
    /// Seal `entries` fresh entries at a checkpoint `gap` past the last.
    Publish {
        gap: u64,
        entries: u64,
    },
    Compact,
    Gc,
    /// Drop the engine; a fresh one recovers from the store.
    Crash,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (1..4u64, 1..4u64).prop_map(|(gap, entries)| Op::Publish { gap, entries }),
        3 => Just(Op::Compact),
        1 => Just(Op::Gc),
        1 => Just(Op::Crash),
    ]
}

/// What the store and the layout must hold, as plain lists.
#[derive(Clone, Default)]
struct Model {
    /// Every referenced segment blob: its level, and its entries — or
    /// `None` when a `Corrupt` fault mangled it on the way down.
    blobs: BTreeMap<u64, (u32, Option<Vec<u64>>)>,
    /// Live segment ids per durable checkpoint counter.
    manifests: BTreeMap<u64, Vec<u64>>,
    live: Vec<u64>,
    /// `(segment, reclaim_after)`.
    retired: Vec<(u64, u64)>,
    floor: u64,
    /// Segments a compaction of this engine found unreadable.
    damaged: Vec<u64>,
}

impl Model {
    /// The segments the next compaction merges: the lowest level's
    /// first `COMPACT_FANIN` neighbours with no segment among them that
    /// an earlier compaction found unreadable.
    fn full_batch(&self) -> Option<Vec<u64>> {
        (0..8u32).find_map(|level| {
            let at_level = |id: &&u64| self.blobs[*id].0 == level;
            let same: Vec<u64> = self.live.iter().filter(at_level).copied().collect();
            let sound = |batch: &&[u64]| batch.iter().all(|id| !self.damaged.contains(id));
            same.windows(COMPACT_FANIN).find(sound).map(<[u64]>::to_vec)
        })
    }
}

fn live_ids(layout: &Manifest) -> Vec<u64> {
    let mut ids: Vec<u64> = layout.live.iter().map(|m| m.id).collect();
    ids.sort_unstable();
    ids
}

fn check<K: Kind>(engine: &K, store: &SharedBlobStore, model: &Model, durable: u64) {
    let log = engine.log();
    let layout = log.layout();
    assert_eq!(live_ids(&layout), model.live, "live layout");
    let retired: Vec<(u64, u64)> = layout.retired.iter().map(|(m, r)| (m.id, *r)).collect();
    assert_eq!(retired, model.retired, "retired list");
    assert_eq!(
        (layout.counter, layout.oldest_revivable),
        (durable, model.floor)
    );
    // An engine with an empty cache, so every decode re-checks a CRC.
    let cold = K::open(store, &FaultPlane::disabled());
    for n in 0..durable + 2 {
        let at = log
            .manifest_at_or_before(n)
            .map(|m| m.map(|m| live_ids(&m)));
        if n < model.floor {
            let aged_out = SegmentError::OutOfRetention {
                requested: n,
                oldest: model.floor,
            };
            assert_eq!(at, Err(aged_out));
            assert!(!store
                .lock()
                .contains(&format!("{}man-{n:08}", log.names().stem)));
            continue;
        }
        let expect = model
            .manifests
            .range(..=n)
            .next_back()
            .map(|(_, ids)| ids.clone());
        assert_eq!(at, Ok(expect.clone()), "layout at checkpoint {n}");
        for id in expect.unwrap_or_default() {
            let decoded = cold.log().segment(id).map(|s| K::ids(&s)).ok();
            assert_eq!(
                decoded, model.blobs[&id].1,
                "segment {id} named at checkpoint {n}"
            );
        }
    }
}

fn run<K: Kind>(seed: u64, ops: &[Op]) {
    let store = SharedBlobStore::in_memory();
    let names = K::open(&store, &FaultPlane::disabled()).log().names();
    let mut plan = FaultPlan::new(seed);
    for site in [names.seal_site, names.compact_site] {
        for fault in [IoFault::Enospc, IoFault::Corrupt, IoFault::TornWrite] {
            plan = plan.probability(site, 0.03, fault);
        }
    }
    let plane = plan.build();
    let injected = || plane.injected_at(names.seal_site) + plane.injected_at(names.compact_site);
    let mut engine = K::open(&store, &plane);
    // `model` follows the engine; `durable` is the model as of the last
    // successful publish — what a crash falls back to.
    let (mut model, mut durable) = (Model::default(), Model::default());
    let (mut counter, mut sealed_at, mut next_entry) = (0u64, 0u64, 1u64);
    for op in ops {
        let (blobs_before, faults_before) = (store.lock().names(), injected());
        match *op {
            Op::Publish { gap, entries } => {
                counter += gap;
                let ids: Vec<u64> = (next_entry..next_entry + entries).collect();
                let sealed = Sealed {
                    start: Timestamp::from_millis(next_entry),
                    end: Timestamp::from_millis(next_entry + entries),
                    instances: entries,
                    next_instance: next_entry + entries,
                };
                match engine.log().publish(counter, &K::segment(&ids), sealed) {
                    Err(_) => assert_eq!(store.lock().names(), blobs_before, "orphan blob"),
                    Ok(meta) => {
                        let intact = injected() == faults_before;
                        model.blobs.insert(meta.id, (0, intact.then_some(ids)));
                        model.live.push(meta.id);
                        model.live.sort_unstable();
                        model.manifests.insert(counter, model.live.clone());
                        if model.retired.iter().any(|&(_, after)| after <= counter) {
                            model.retired.retain(|&(_, after)| after > counter);
                            model.floor = counter;
                            model.manifests = model.manifests.split_off(&counter);
                        }
                        (sealed_at, next_entry) = (counter, next_entry + entries);
                        durable = model.clone();
                    }
                }
            }
            Op::Compact => {
                let batch = model.full_batch();
                let inputs: Option<Vec<Vec<u64>>> = batch
                    .as_ref()
                    .and_then(|batch| batch.iter().map(|id| model.blobs[id].1.clone()).collect());
                let ran = engine.log().maybe_compact();
                let faulted = injected() > faults_before;
                match (&batch, &inputs) {
                    (None, _) => assert_eq!(ran, Ok(false), "no level is full"),
                    (Some(batch), None) => {
                        assert!(ran.is_err(), "a mangled input fails its CRC");
                        // Later compactions step around it.
                        let mangled = |id: &&u64| model.blobs[*id].1.is_none();
                        model.damaged.extend(batch.iter().find(mangled));
                    }
                    (Some(_), Some(_)) => assert!(ran == Ok(true) || faulted, "{ran:?}"),
                }
                if ran == Ok(true) {
                    let (batch, inputs) = (batch.expect("ran"), inputs.expect("ran"));
                    let after = live_ids(&engine.log().layout());
                    let output = after.iter().find(|id| !model.live.contains(id));
                    let output = *output.expect("the merged segment is live");
                    let mut merged = inputs.concat();
                    merged.sort_unstable();
                    let level = model.blobs[&batch[0]].0 + 1;
                    model
                        .blobs
                        .insert(output, (level, (!faulted).then_some(merged)));
                    model.live.retain(|id| !batch.contains(id));
                    model.live.push(output);
                    model.live.sort_unstable();
                    let retire = batch.iter().map(|&id| (id, sealed_at + 1));
                    model.retired.extend(retire);
                }
            }
            Op::Gc => {
                assert_eq!(
                    engine.log().gc(),
                    0,
                    "every publish already reclaimed all it could"
                );
                assert_eq!(store.lock().names(), blobs_before);
            }
            Op::Crash => {
                engine = K::open(&store, &plane);
                let recovered = engine
                    .log()
                    .recover_latest()
                    .expect("newest manifest is intact");
                assert_eq!(recovered.is_some(), sealed_at > 0);
                let next_instance = engine.log().layout().next_instance;
                assert_eq!(next_instance, if sealed_at > 0 { next_entry } else { 0 });
                // Blobs of an undone compaction stay behind unreferenced.
                let blobs = std::mem::take(&mut model.blobs);
                model = durable.clone();
                model.blobs = blobs;
                model.damaged.clear();
            }
        }
        check(&engine, &store, &model, sealed_at);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lifecycle_matches_the_plain_list_model(
        salt in any::<u64>(),
        ops in prop::collection::vec(arb_op(), 1..96)
    ) {
        run::<dv_tidx::TidxEngine>(common::seed_for("segments-text") ^ salt, &ops);
        run::<dv_vidx::VidxEngine>(common::seed_for("segments-strips") ^ salt, &ops);
    }
}

/// Context and text strings: empty, ASCII and multi-byte.
const STRINGS: [&str; 6] = [
    "",
    "a",
    "needle alpha",
    "héllo wörld",
    "日本語 テキスト",
    "title — draft",
];

/// `(id, string picks, shown, hidden after, annotation)`: ids come from
/// a small pool so inputs share instances, as carried ones do.
type InstanceSeed = (u64, usize, u64, u64, bool);
/// `(instances, focus entries, horizon)`.
type TextSeed = (Vec<InstanceSeed>, Vec<(u32, u64)>, u64);

fn arb_text_segment() -> impl Strategy<Value = TextSeed> {
    let instance = (1..10u64, 0..1296usize, 0..50u64, 0..4u64, any::<bool>());
    (
        prop::collection::vec(instance, 0..6),
        // Few apps and times: duplicates and out-of-order entries.
        prop::collection::vec((0..3u32, 0..8u64), 0..5),
        0..100u64,
    )
}

fn text_segment((instances, focus, horizon): &TextSeed) -> TextIndex {
    let mut index = TextIndex::new();
    for &(id, pick, shown, hidden_after, annotation) in instances {
        let string = |n: usize| STRINGS[pick / 6usize.pow(n as u32) % 6].to_string();
        index.add_instance(IndexedInstance {
            id,
            app_id: (pick % 6) as u32,
            app: string(0),
            window: string(1),
            role: string(2),
            text: string(3),
            shown: Timestamp::from_millis(shown),
            hidden: (hidden_after > 0).then(|| Timestamp::from_millis(shown + hidden_after)),
            annotation,
        });
    }
    for &(app, t) in focus {
        index.focus_change(app, Timestamp::from_millis(t));
    }
    index.advance_horizon(Timestamp::from_millis(*horizon));
    index
}

/// The merge compaction ran before it read encoded records: every
/// instance cloned into a map (a later input's copy replacing an
/// earlier one's) and indexed again.
fn reference_text_merge(inputs: &[TextIndex]) -> TextIndex {
    let mut merged: BTreeMap<u64, IndexedInstance> = BTreeMap::new();
    let mut focus: Vec<(u32, Timestamp)> = Vec::new();
    let mut out = TextIndex::new();
    for index in inputs {
        out.advance_horizon(index.horizon());
        for instance in index.all_instances() {
            merged.insert(instance.id, instance.clone());
        }
        focus.extend_from_slice(index.focus_history());
    }
    focus.sort_by_key(|&(_, t)| t);
    focus.dedup();
    for instance in merged.into_values() {
        out.add_instance(instance);
    }
    for (app, t) in focus {
        out.focus_change(app, t);
    }
    out
}

fn sorted_instances(index: &TextIndex) -> Vec<IndexedInstance> {
    let mut all: Vec<IndexedInstance> = index.all_instances().cloned().collect();
    all.sort_by_key(|i| i.id);
    all
}

/// `(id, first, span, thumbnail length)`.
type StripSeed = (u64, u64, u64, usize);

fn strip_instances(seeds: &[StripSeed]) -> Vec<VisualInstance> {
    let instance = |&(id, first, span, thumb): &StripSeed| VisualInstance {
        id,
        fp: Fingerprint([id, !id, first, span]),
        first: Timestamp::from_millis(first),
        last: Timestamp::from_millis(first + span),
        frames: span + 1,
        thumb: vec![id as u8; thumb],
    };
    seeds.iter().map(instance).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Merging encoded text segments gives, byte for byte, what
    /// encoding the reference merge of the loaded ones gives.
    #[test]
    fn text_merge_equals_decode_merge_encode(
        batch in prop::collection::vec(arb_text_segment(), 1..7)
    ) {
        let inputs: Vec<TextIndex> = batch.iter().map(text_segment).collect();
        let encoded: Vec<Vec<u8>> = inputs.iter().map(encode_index).collect();
        let slices: Vec<&[u8]> = encoded.iter().map(Vec::as_slice).collect();
        let reference = reference_text_merge(&inputs);
        let (merged, instances) = merge_segments(&slices).expect("sound inputs merge");
        prop_assert_eq!(instances, reference.stats().instances);
        prop_assert_eq!(&merged, &encode_index(&reference));
        let loaded = decode_index(&merged).expect("the merge's output loads");
        prop_assert_eq!(sorted_instances(&loaded), sorted_instances(&reference));
        prop_assert_eq!(loaded.focus_history(), reference.focus_history());
        prop_assert_eq!(loaded.horizon(), reference.horizon());
    }

    /// The same for strips, against sort-and-`from_instances`.
    #[test]
    fn strip_merge_equals_decode_merge_encode(
        batch in prop::collection::vec(
            prop::collection::vec((0..20u64, 0..10u64, 0..5u64, 0..5usize), 0..5),
            1..7,
        )
    ) {
        let encode = |instances| Strips.encode(&VisualStrip::from_instances(instances));
        let inputs: Vec<Vec<VisualInstance>> = batch.iter().map(|s| strip_instances(s)).collect();
        let encoded: Vec<Vec<u8>> = inputs.iter().map(|i| encode(i.clone()).unwrap()).collect();
        let slices: Vec<&[u8]> = encoded.iter().map(Vec::as_slice).collect();
        let mut reference = inputs.concat();
        reference.sort_by_key(|inst| (inst.first, inst.id));
        let (merged, instances) = Strips.merge(&slices).expect("sound inputs merge");
        prop_assert_eq!(instances, reference.len() as u64);
        prop_assert_eq!(&merged, &encode(reference.clone()).unwrap());
        let loaded = Strips.decode(&merged).expect("the merge's output loads");
        prop_assert_eq!(loaded.instances(), &reference[..]);
    }
}
