//! Robustness: what hostile bytes must not get past.
//!
//! `tests/decoders.rs` runs every decoder over random, mutated,
//! truncated and length-inflated bytes. This file keeps the properties
//! that table does not state: a compaction merge refuses whatever the
//! decoder of the same layout refuses, an engine reopened over a cut
//! image lists neither it nor what chains through it, and every proper
//! prefix of an image is refused.

use proptest::prelude::*;

use dv_checkpoint::{decode_image, Checkpointer, EngineConfig};
use dv_index::{decode_index, encode_index, merge_segments, IndexedInstance, TextIndex};
use dv_lsfs::{Lsfs, MergeError, Payload, SharedBlobStore};
use dv_time::{SimClock, Timestamp};
use dv_vee::{HostPidAllocator, Prot, Vee, PAGE_SIZE};
use dv_vidx::{Fingerprint, Strips, VisualInstance, VisualStrip};

/// A store holding the four images of an engine that checkpointed
/// a process with one dirty page four times, a full every second
/// checkpoint: `1 <- 2`, `3 <- 4`.
fn four_images() -> SharedBlobStore {
    let clock = SimClock::new();
    let fs = Box::new(Lsfs::new());
    let mut vee = Vee::new(1, clock.shared(), fs, HostPidAllocator::new());
    let app = vee.spawn(None, "app").unwrap();
    let addr = vee.mmap(app, PAGE_SIZE as u64, Prot::ReadWrite).unwrap();
    let config = EngineConfig {
        full_every: 2,
        ..EngineConfig::default()
    };
    let store = SharedBlobStore::in_memory();
    let pool = config.commit_pool(store.clone(), &clock);
    let mut engine = Checkpointer::new(config, pool, clock);
    for round in 0..4u8 {
        vee.mem_write(app, addr, &[round; 64]).unwrap();
        engine.checkpoint(&mut vee).unwrap();
    }
    store
}

/// The counters an engine reopened over `store` lists.
fn reopened(store: &SharedBlobStore) -> Vec<u64> {
    let (config, clock) = (EngineConfig::default(), SimClock::new());
    let pool = config.commit_pool(SharedBlobStore::in_memory(), &clock);
    let mut engine = Checkpointer::new(config, pool, clock);
    engine.reopen("ckpt", &mut store.lock(), &[]);
    engine.images().map(|m| m.counter).collect()
}

/// One byte edit: anywhere, or — as often — within the first 40 bytes,
/// where the headers whose fields size allocations live.
fn edit() -> impl Strategy<Value = (usize, u8)> {
    (prop_oneof![0usize..40, 0usize..1 << 16], any::<u8>())
}

/// `valid` with each edit applied (positions wrap) and at most `keep`
/// bytes kept.
fn damaged(valid: &[u8], edits: &[(usize, u8)], keep: usize) -> Vec<u8> {
    let mut bytes = valid.to_vec();
    for &(at, value) in edits {
        bytes[at % valid.len()] = value;
    }
    bytes.truncate(keep);
    bytes
}

/// A compaction merge over encoded payloads, beside the decoder that
/// reads the same layout: a sound payload, whether bytes decode, and
/// the merge.
struct MergeCase {
    valid: Vec<u8>,
    decodes: fn(&[u8]) -> bool,
    merge: Merge,
}

/// The merged bytes, or the position of the input the merge blames
/// (if it blames one).
type Merge = fn(&[&[u8]]) -> Result<Vec<u8>, Option<usize>>;

fn merge_cases() -> [MergeCase; 2] {
    let mut index = TextIndex::new();
    for (id, text, hidden) in [(3, "some words — émigré", None), (9, "", Some(40))] {
        index.add_instance(IndexedInstance {
            id,
            app_id: 2,
            app: "editor".into(),
            window: "日本語".into(),
            role: String::new(),
            text: text.into(),
            shown: Timestamp::from_millis(id),
            hidden: hidden.map(Timestamp::from_millis),
            annotation: hidden.is_some(),
        });
    }
    index.focus_change(2, Timestamp::from_millis(5));
    let strip = VisualStrip::from_instances(
        [(4u64, 3usize), (6, 0)]
            .map(|(id, thumb)| VisualInstance {
                id,
                fp: Fingerprint([id; 4]),
                first: Timestamp::from_millis(id),
                last: Timestamp::from_millis(id + 1),
                frames: 2,
                thumb: vec![7; thumb],
            })
            .to_vec(),
    );
    [
        MergeCase {
            valid: encode_index(&index),
            decodes: |bytes| decode_index(bytes).is_ok(),
            merge: |inputs| match merge_segments(inputs) {
                Ok((merged, _)) => Ok(merged),
                Err((input, _)) => Err(Some(input)),
            },
        },
        MergeCase {
            valid: Strips.encode(&strip).expect("strips encode"),
            decodes: |bytes| Strips.decode(bytes).is_ok(),
            merge: |inputs| match Strips.merge(inputs) {
                Ok((merged, _)) => Ok(merged),
                Err(MergeError::Input(input, _)) => Err(Some(input)),
                Err(MergeError::Output(_)) => Err(None),
            },
        },
    ]
}

impl MergeCase {
    /// Merges `hostile` beside the sound payload, on either side: the
    /// merge refuses — blaming the hostile input — whatever the decoder
    /// refuses, and whatever it produces decodes.
    fn check(&self, hostile: &[u8]) {
        for hostile_at in [0, 1] {
            let mut inputs = [&self.valid[..]; 2];
            inputs[hostile_at] = hostile;
            match (self.merge)(&inputs) {
                Ok(merged) => {
                    assert!((self.decodes)(hostile), "merged what decode refuses");
                    assert!((self.decodes)(&merged), "the merge's output is refused");
                }
                Err(blamed) => assert_eq!(blamed, Some(hostile_at)),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random bytes, and sound payloads with one to three bytes changed
    /// (as often in the header as anywhere) and half the time cut
    /// short, never panic a compaction merge or get past it when the
    /// decoder would have refused them.
    #[test]
    fn merges_refuse_what_decoders_refuse(
        data in prop::collection::vec(any::<u8>(), 0..512),
        edits in prop::collection::vec(edit(), 1..4),
        keep in prop_oneof![Just(usize::MAX), 0usize..256],
    ) {
        for case in merge_cases() {
            case.check(&data);
            case.check(&[&case.valid[..8], &data[..]].concat());
            case.check(&damaged(&case.valid, &edits, keep));
        }
    }

    /// Truncations of a valid image never panic the image decoder.
    #[test]
    fn truncated_images_error_cleanly(cut in 0usize..4_000) {
        let image = dv_checkpoint::CheckpointImage {
            counter: 3,
            time: Timestamp::from_secs(1),
            kind: dv_checkpoint::ImageKind::Full,
            hostname: "h".into(),
            network_enabled: true,
            processes: vec![],
            sockets: vec![],
        };
        let bytes = dv_checkpoint::encode_image(&image);
        let cut = cut % (bytes.len() + 1);
        if cut < bytes.len() {
            prop_assert!(decode_image(&bytes[..cut]).is_err());
        } else {
            prop_assert!(decode_image(&bytes).is_ok());
        }
    }
}

/// Every truncation of a stored image drops it on reopen, with the
/// incremental chained through it; the other chain stays listed.
#[test]
fn truncated_image_blobs_are_dropped_on_reopen() {
    let store = four_images();
    assert_eq!(reopened(&store), [1, 2, 3, 4]);
    for (name, kept) in [("ckpt-00000001", [3, 4]), ("ckpt-00000003", [1, 2])] {
        let bytes = store.lock().get(name).unwrap().to_vec();
        for cut in 0..bytes.len() {
            store.lock().put(name, bytes[..cut].to_vec()).unwrap();
            assert_eq!(reopened(&store), kept, "{name} cut at {cut}");
        }
        store.lock().put(name, bytes).unwrap();
    }
    assert_eq!(reopened(&store), [1, 2, 3, 4]);
}

/// Every truncation of a sound payload, and every 4- and 8-byte field
/// position overwritten with a length that cannot be met (`MAX`, `MAX -
/// 15`, one past the payload), is refused by the merges as by the
/// decoders — by running out of bytes, never by sizing an allocation
/// from the count.
#[test]
fn merges_refuse_truncated_and_inflated_payloads() {
    for case in merge_cases() {
        for cut in 0..case.valid.len() {
            assert!(!(case.decodes)(&case.valid[..cut]), "cut at {cut}");
            case.check(&case.valid[..cut]);
        }
        let len = case.valid.len() as u64;
        for at in 0..case.valid.len() {
            for value in [u64::MAX, u64::MAX - 15, len + 1] {
                for width in [4, 8] {
                    let mut hostile = case.valid.clone();
                    // The low bytes: `value as u32` for a 4-byte field.
                    let field = value.to_le_bytes();
                    let end = (at + width).min(hostile.len());
                    hostile[at..end].copy_from_slice(&field[..end - at]);
                    case.check(&hostile);
                }
            }
        }
    }
}
