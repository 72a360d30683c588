//! Property tests for log cleaning and persistence.
//!
//! * Compaction must be invisible: after arbitrary operations and
//!   snapshot points, compacting the log changes no observable state —
//!   not the live tree, not any retained snapshot — while never growing
//!   the log.
//! * Save/load must be lossless: a reloaded file system equals the
//!   original, including snapshots.

use proptest::prelude::*;

use dv_lsfs::{FileType, Filesystem, Lsfs};

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
