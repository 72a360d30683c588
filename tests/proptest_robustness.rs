//! Robustness: decoders over hostile bytes.
//!
//! Every on-disk/wire format must reject arbitrary corruption with an
//! error — never a panic, never an out-of-bounds access. Proptest feeds
//! each decoder random bytes and randomly mutated valid encodings.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use dejaview::{Config, DejaView};
use dv_checkpoint::{decode_image, decompress, Checkpointer, EngineConfig};
use dv_display::{decode_command, encode_command_vec, DisplayCommand, Rect};
use dv_index::{decode_index, encode_index, merge_segments, IndexedInstance, TextIndex};
use dv_lsfs::journal::FsOp;
use dv_lsfs::{BlobStore, Disk, Filesystem, Lsfs, MergeError, Payload, SharedBlobStore};
use dv_record::{decode_record, decode_screenshot, Timeline};
use dv_time::{SimClock, Timestamp};
use dv_vee::{HostPidAllocator, Vee};
use dv_vidx::{Fingerprint, Strips, VisualInstance, VisualStrip};

fn engine() -> Checkpointer {
    Checkpointer::with_sim_clock(EngineConfig::default(), SimClock::new())
}

/// The metadata of an engine that has taken a few checkpoints.
fn valid_engine_meta() -> Vec<u8> {
    let clock = SimClock::new();
    let fs = Box::new(Lsfs::new());
    let mut vee = Vee::new(1, clock.shared(), fs, HostPidAllocator::new());
    vee.spawn(None, "app").unwrap();
    let config = EngineConfig {
        full_every: 2,
        ..EngineConfig::default()
    };
    let mut engine = Checkpointer::with_sim_clock(config, clock).with_blob_prefix("tenant");
    let store = SharedBlobStore::in_memory();
    for _ in 0..3 {
        engine.checkpoint(&mut vee, &store).unwrap();
    }
    engine.export_meta()
}

/// A small but complete session archive — a display record, an open
/// text shard, two checkpoints and a file — and the file system image
/// inside it.
fn valid_archive_and_fs_image() -> &'static (Vec<u8>, Vec<u8>) {
    static VALID: OnceLock<(Vec<u8>, Vec<u8>)> = OnceLock::new();
    VALID.get_or_init(|| {
        let mut dv = DejaView::new(Config {
            width: 64,
            height: 48,
            ..Config::default()
        });
        dv.vee_mut().fs.write_all("/doc", b"draft").unwrap();
        let app = dv.desktop_mut().register_app("editor");
        let root = dv.desktop_mut().root(app).unwrap();
        dv.desktop_mut()
            .add_node(app, root, dv_access::Role::Paragraph, "some words");
        for color in [0x11_22_33, 0x44_55_66] {
            dv.driver_mut().fill_rect(Rect::new(0, 0, 64, 48), color);
            dv.clock().advance(dv_time::Duration::from_secs(1));
            dv.checkpoint_now().unwrap();
        }
        let archive = dv.save_archive().unwrap();
        let fs_image = dv.session_fs_handle().with(|fs| fs.save()).unwrap();
        (archive, fs_image)
    })
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

fn valid_command_bytes() -> Vec<u8> {
    encode_command_vec(&DisplayCommand::Raw {
        rect: Rect::new(1, 2, 8, 4),
        pixels: Arc::new((0..32).collect()),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random bytes never panic any decoder.
    #[test]
    fn decoders_survive_random_bytes(data in prop::collection::vec(any::<u8>(), 0..512)) {
        let mut slice = data.as_slice();
        let _ = decode_command(&mut slice);
        let _ = decode_screenshot(&data);
        let _ = Timeline::decode(&data);
        let _ = decode_image(&data);
        let _ = decode_index(&data);
        let _ = decode_record(&data);
        let _ = decompress(&data);
        let _ = FsOp::decode(&data);
        // Both are reached from `load_archive` with file contents; the
        // engine's decoder is also fed past its magic.
        let _ = engine().import_meta(&data);
        let _ = engine().import_meta(&[b"DVENG001", &data[..]].concat());
        let _ = BlobStore::in_memory().import(&data);
        // The archive and the file system image inside it, bare and
        // past their magics.
        let _ = Disk::from_bytes(&data);
        let _ = Lsfs::load(&data);
        let _ = Lsfs::load(&[b"DVLSF002", &data[..]].concat());
        let _ = DejaView::load_archive(Config::default(), &data);
        let _ = DejaView::load_archive(Config::default(), &[b"DVARC002", &data[..]].concat());
    }

    /// A valid archive with one to three bytes changed, and half the
    /// time cut short, loads or is refused — it never panics, overflows
    /// or asks the allocator for what a damaged length field says. The
    /// same holds for the file system image and the raw log inside it.
    #[test]
    fn damaged_archives_load_or_are_refused(
        edits in prop::collection::vec(edit(), 1..4),
        keep in prop_oneof![Just(usize::MAX), 0usize..1 << 14],
    ) {
        let (archive, fs_image) = valid_archive_and_fs_image();
        let _ = DejaView::load_archive(Config::default(), &damaged(archive, &edits, keep));
        let _ = Lsfs::load(&damaged(fs_image, &edits, keep));
        let _ = Disk::from_bytes(&damaged(&fs_image[16..], &edits, keep));
    }

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

    /// Mutating one byte of a valid command either still decodes (the
    /// flip hit payload data) or errors cleanly — and a re-decodable
    /// result re-encodes without panicking.
    #[test]
    fn mutated_commands_never_panic(idx in 0usize..100, value in any::<u8>()) {
        let mut bytes = valid_command_bytes();
        let idx = idx % bytes.len();
        bytes[idx] = value;
        let mut slice = bytes.as_slice();
        if let Ok(cmd) = decode_command(&mut slice) {
            let _ = encode_command_vec(&cmd);
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

/// Every truncation of an engine's exported metadata is refused whole:
/// the engine keeps the history it had.
#[test]
fn truncated_engine_meta_is_refused_cleanly() {
    let bytes = valid_engine_meta();
    let mut target = engine();
    for cut in 0..bytes.len() {
        assert!(target.import_meta(&bytes[..cut]).is_none(), "cut at {cut}");
        assert_eq!(target.images().count(), 0);
    }
    assert!(target.import_meta(&bytes).is_some());
    assert_eq!(target.images().count(), 3);
    assert_eq!(target.blob_prefix(), "tenant");
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
