//! Property tests for log cleaning and persistence.
//!
//! * Compaction must be invisible: after arbitrary operations and
//!   snapshot points, compacting the log changes no observable state —
//!   not the live tree, not any retained snapshot — while never growing
//!   the log.
//! * Save/load must be lossless: a reloaded file system equals the
//!   original, including snapshots.
//! * A session archive reopens the checkpoint history from its images:
//!   the restored engine lists what the saved one listed, field for
//!   field, and its first checkpoint is full.

use proptest::prelude::*;

use dejaview::{Config, DejaView};
use dv_checkpoint::{EngineConfig, ImageKind};
use dv_lsfs::{FileType, Filesystem, Lsfs};
use dv_time::Duration;
use dv_vee::{Prot, Vpid};

#[derive(Clone, Debug)]
enum Op {
    Write {
        path_seed: usize,
        size: usize,
        fill: u8,
    },
    Mkdir {
        path_seed: usize,
    },
    Unlink {
        path_seed: usize,
    },
    Snapshot,
    Sync,
}

const PATHS: &[&str] = &["/a", "/b", "/d/x", "/d/y", "/d/z"];

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (any::<usize>(), 1..20_000usize, any::<u8>())
            .prop_map(|(path_seed, size, fill)| Op::Write { path_seed, size, fill }),
        1 => any::<usize>().prop_map(|path_seed| Op::Mkdir { path_seed }),
        1 => any::<usize>().prop_map(|path_seed| Op::Unlink { path_seed }),
        1 => Just(Op::Snapshot),
        1 => Just(Op::Sync),
    ]
}

fn apply(fs: &mut Lsfs, op: &Op, next_snapshot: &mut u64) {
    match op {
        Op::Write {
            path_seed,
            size,
            fill,
        } => {
            let path = PATHS[path_seed % PATHS.len()];
            let _ = fs.mkdir_all("/d");
            let _ = fs.write_all(path, &vec![*fill; *size]);
        }
        Op::Mkdir { path_seed } => {
            let _ = fs.mkdir(&format!("/dir{}", path_seed % 3));
        }
        Op::Unlink { path_seed } => {
            let path = PATHS[path_seed % PATHS.len()];
            let _ = fs.unlink(path);
        }
        Op::Snapshot => {
            *next_snapshot += 1;
            fs.snapshot_point(*next_snapshot).unwrap();
        }
        Op::Sync => {
            fs.sync().unwrap();
        }
    }
}

/// Captures every observable fact about a file system: the full tree
/// plus all file contents, for the live state and each snapshot.
fn observe(fs: &Lsfs) -> Vec<(String, Vec<u8>)> {
    fn walk(fs: &dyn Filesystem, path: &str, out: &mut Vec<(String, Vec<u8>)>) {
        for entry in fs.readdir(path).unwrap_or_default() {
            let child = if path == "/" {
                format!("/{}", entry.name)
            } else {
                format!("{path}/{}", entry.name)
            };
            match entry.ftype {
                FileType::Regular => {
                    out.push((child.clone(), fs.read_all(&child).unwrap()));
                }
                FileType::Directory => {
                    out.push((child.clone(), Vec::new()));
                    walk(fs, &child, out);
                }
            }
        }
    }
    let mut out = Vec::new();
    walk(fs, "/", &mut out);
    for counter in fs.snapshot_counters() {
        let snap = fs.snapshot(counter).unwrap();
        let mut snap_out = Vec::new();
        walk(&snap, "/", &mut snap_out);
        for (path, data) in snap_out {
            out.push((format!("snap{counter}:{path}"), data));
        }
    }
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Compaction preserves all observable state and never grows the log.
    #[test]
    fn compaction_is_invisible(
        ops in prop::collection::vec(arb_op(), 1..40),
        more in prop::collection::vec(arb_op(), 0..20),
    ) {
        let mut fs = Lsfs::new();
        let mut next_snapshot = 0;
        for op in &ops {
            apply(&mut fs, op, &mut next_snapshot);
        }
        fs.sync().unwrap();
        let before = observe(&fs);
        let size_before = fs.gc_stats().disk_bytes;
        fs.compact().unwrap();
        let after = observe(&fs);
        prop_assert_eq!(&before, &after, "compaction changed observable state");
        if let Err(why) = fs.check() {
            prop_assert!(false, "fsck after compaction: {}", why);
        }
        prop_assert!(fs.gc_stats().disk_bytes <= size_before);
        // The rewritten states share metadata as before: writing on
        // through them must leave every earlier snapshot as it was,
        // also across a second compaction.
        for op in &more {
            apply(&mut fs, op, &mut next_snapshot);
        }
        fs.compact().unwrap();
        let old_snapshots = |seen: Vec<(String, Vec<u8>)>| -> Vec<(String, Vec<u8>)> {
            seen.into_iter().filter(|(path, _)| before.iter().any(|(p, _)| p == path)
                && path.starts_with("snap")).collect()
        };
        let frozen: Vec<_> = before.iter().filter(|(p, _)| p.starts_with("snap")).cloned().collect();
        prop_assert_eq!(old_snapshots(observe(&fs)), frozen, "an old snapshot moved");
        if let Err(why) = fs.check() {
            prop_assert!(false, "fsck after the second compaction: {}", why);
        }
        // The compacted fs stays fully functional.
        fs.write_all("/post-compact", b"still alive").unwrap();
        fs.sync().unwrap();
        prop_assert_eq!(fs.read_all("/post-compact").unwrap(), b"still alive".to_vec());
    }

    /// Save/load round-trips every observable fact, including snapshots.
    #[test]
    fn save_load_is_lossless(ops in prop::collection::vec(arb_op(), 1..40)) {
        let mut fs = Lsfs::new();
        let mut next_snapshot = 0;
        for op in &ops {
            apply(&mut fs, op, &mut next_snapshot);
        }
        let saved = fs.save().unwrap();
        let loaded = Lsfs::load(&saved).unwrap();
        prop_assert_eq!(observe(&fs), observe(&loaded));
    }

    /// Save/load after compaction also round-trips the live state (the
    /// documented caveat: snapshots are in-memory only after compaction,
    /// so only the live tree is compared).
    #[test]
    fn compact_then_save_load_keeps_live_state(ops in prop::collection::vec(arb_op(), 1..30)) {
        let mut fs = Lsfs::new();
        let mut next_snapshot = 0;
        for op in &ops {
            apply(&mut fs, op, &mut next_snapshot);
        }
        fs.compact().unwrap();
        let live_before: Vec<(String, Vec<u8>)> = observe(&fs)
            .into_iter()
            .filter(|(p, _)| !p.starts_with("snap"))
            .collect();
        let saved = fs.save().unwrap();
        let loaded = Lsfs::load(&saved).unwrap();
        let live_after: Vec<(String, Vec<u8>)> = observe(&loaded)
            .into_iter()
            .filter(|(p, _)| !p.starts_with("snap"))
            .collect();
        prop_assert_eq!(live_before, live_after);
    }
}

/// A small server over `engine`.
fn server(engine: EngineConfig) -> DejaView {
    DejaView::new(Config {
        width: 64,
        height: 48,
        engine,
        ..Config::default()
    })
}

/// Spawns an `app` under the session's init process with `len` bytes
/// mapped; its vpid and the mapping's address.
fn spawn_app(dv: &mut DejaView, len: usize) -> (Vpid, u64) {
    let init = dv.init_vpid();
    let vee = dv.vee_mut();
    let app = vee.spawn(Some(init), "app").unwrap();
    let addr = vee.mmap(app, len as u64, Prot::ReadWrite).unwrap();
    (app, addr)
}

/// The checkpoint taken after `load_archive` is full, and reviving it
/// reads back the new session's memory. An incremental there would
/// chain onto dirty-page state the restored engine never had: the
/// revive would fill the new process's pages from the archived image.
#[test]
fn the_first_checkpoint_after_a_restore_is_full() {
    const LEN: usize = 16 << 10;
    let mut dv = server(EngineConfig::default());
    let (app, addr) = spawn_app(&mut dv, LEN);
    dv.vee_mut().mem_write(app, addr, &[0xAA; LEN]).unwrap();
    dv.clock().advance(Duration::from_secs(1));
    dv.checkpoint_now().unwrap();
    let archive = dv.save_archive().unwrap();

    let mut restored = DejaView::load_archive(Config::default(), &archive).unwrap();
    let (again, at) = spawn_app(&mut restored, LEN);
    assert_eq!((again, at), (app, addr), "the same vpid and address");
    restored
        .vee_mut()
        .mem_write(again, at, &[0xBB; 16])
        .unwrap();
    restored.clock().advance(Duration::from_secs(1));
    let report = restored.checkpoint_now().unwrap();
    assert_eq!((report.counter, report.full), (2, true));
    let written = restored.vee().mem_read(again, at, LEN).unwrap();
    let sid = restored.revive_counter(report.counter).unwrap();
    let revived = restored.session(sid).unwrap().vee.mem_read(again, at, LEN);
    let revived = revived.unwrap();
    let differ = written.iter().zip(&revived).filter(|(a, b)| a != b).count();
    assert_eq!(differ, 0, "{differ} of {LEN} bytes differ");
}

/// An archive round trip leaves the engine's image list equal field
/// for field — counter, time, kind, blob, stored and raw size — for a
/// raw and a compressing engine.
#[test]
fn an_archive_round_trip_keeps_the_image_list() {
    for compress in [false, true] {
        let mut dv = server(EngineConfig {
            full_every: 3,
            compress,
            ..EngineConfig::default()
        });
        let (app, addr) = spawn_app(&mut dv, 4 << 12);
        for round in 0..5u8 {
            dv.vee_mut().mem_write(app, addr, &[round; 64]).unwrap();
            dv.clock().advance(Duration::from_secs(1));
            dv.checkpoint_now().unwrap();
        }
        let archive = dv.save_archive().unwrap();
        let restored = DejaView::load_archive(Config::default(), &archive).unwrap();
        let saved: Vec<_> = dv.engine().images().cloned().collect();
        let listed: Vec<_> = restored.engine().images().cloned().collect();
        assert_eq!(listed, saved, "compress: {compress}");
        assert_eq!(saved.len(), 5);
        assert!(saved
            .iter()
            .any(|m| matches!(m.kind, ImageKind::Incremental { .. })));
        let shrunk = saved.iter().all(|m| m.stored_bytes < m.raw_bytes);
        assert_eq!(shrunk, compress, "compress: {compress}");
    }
}

/// A session revived after a restore takes an id no archived revived
/// session holds: its images land under a new blob prefix, and the
/// archived session's images stay byte for byte as they were saved.
#[test]
fn a_session_revived_after_a_restore_writes_under_a_new_id() {
    let mut dv = server(EngineConfig::default());
    let (app, addr) = spawn_app(&mut dv, 4 << 12);
    dv.vee_mut().mem_write(app, addr, &[1; 64]).unwrap();
    dv.clock().advance(Duration::from_secs(1));
    let counter = dv.checkpoint_now().unwrap().counter;
    // Revives `counter`, dirties the session and checkpoints it;
    // returns its blob prefix.
    let revive_and_checkpoint = |dv: &mut DejaView, fill: u8| {
        let id = dv.revive_counter(counter).unwrap();
        let session = dv.session_mut(id).unwrap();
        session.vee.mem_write(app, addr, &[fill; 64]).unwrap();
        dv.checkpoint_session(id).unwrap();
        let engine = &mut dv.session_mut(id).unwrap().engine;
        engine.flush().unwrap();
        engine.blob_prefix().to_string()
    };
    let archived_prefix = revive_and_checkpoint(&mut dv, 2);
    let archived_blob = format!("{archived_prefix}-00000001");
    let archived = dv.store_mut().get(&archived_blob).expect("committed");
    let archive = dv.save_archive().unwrap();

    let mut restored = DejaView::load_archive(Config::default(), &archive).unwrap();
    let prefix = revive_and_checkpoint(&mut restored, 3);
    assert_ne!(prefix, archived_prefix, "a new session id");
    assert!(restored.store_mut().contains(&format!("{prefix}-00000001")));
    let kept = restored.store_mut().get(&archived_blob).expect("archived");
    assert!(kept == archived, "the archived revived blob is untouched");
}
