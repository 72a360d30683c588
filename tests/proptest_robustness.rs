//! Robustness: decoders over hostile bytes.
//!
//! Every on-disk/wire format must reject arbitrary corruption with an
//! error — never a panic, never an out-of-bounds access. Proptest feeds
//! each decoder random bytes and randomly mutated valid encodings.

use std::sync::Arc;

use proptest::prelude::*;

use dv_checkpoint::{decode_image, decompress, Checkpointer, EngineConfig};
use dv_display::{decode_command, encode_command_vec, DisplayCommand, Rect};
use dv_index::decode_index;
use dv_lsfs::journal::FsOp;
use dv_lsfs::{BlobStore, Lsfs, SharedBlobStore};
use dv_record::{decode_record, decode_screenshot, Timeline};
use dv_time::{SimClock, Timestamp};
use dv_vee::{HostPidAllocator, Vee};

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
