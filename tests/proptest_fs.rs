//! Property tests for the file system substrates.
//!
//! Oracle testing: the log-structured file system and the union file
//! system must implement the same POSIX semantics as the plain in-memory
//! file system, for arbitrary operation sequences. Snapshot isolation
//! and journal recovery are additionally checked against recorded
//! expectations.

use proptest::prelude::*;

use dv_lsfs::{FileType, Filesystem, FsResult, Lsfs, MemFs, UnionFs};

/// A file system operation for random sequences.
#[derive(Clone, Debug)]
enum Op {
    Create(String),
    Mkdir(String),
    Write(String, u64, Vec<u8>),
    Truncate(String, u64),
    Unlink(String),
    Rmdir(String),
    Rename(String, String),
    Sync,
}

/// Small path universe so operations collide often.
fn arb_path() -> impl Strategy<Value = String> {
    prop_oneof![
        prop_oneof![Just("a"), Just("b"), Just("dir")].prop_map(|s| format!("/{s}")),
        (
            prop_oneof![Just("dir"), Just("deep")],
            prop_oneof![Just("x"), Just("y"), Just("z")]
        )
            .prop_map(|(d, f)| format!("/{d}/{f}")),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_path().prop_map(Op::Create),
        arb_path().prop_map(Op::Mkdir),
        (
            arb_path(),
            0..6_000u64,
            prop::collection::vec(any::<u8>(), 1..600)
        )
            .prop_map(|(p, off, data)| Op::Write(p, off, data)),
        (arb_path(), 0..8_000u64).prop_map(|(p, size)| Op::Truncate(p, size)),
        arb_path().prop_map(Op::Unlink),
        arb_path().prop_map(Op::Rmdir),
        (arb_path(), arb_path()).prop_map(|(a, b)| Op::Rename(a, b)),
        Just(Op::Sync),
    ]
}

fn apply(fs: &mut dyn Filesystem, op: &Op) -> FsResult<()> {
    match op {
        Op::Create(p) => fs.create(p),
        Op::Mkdir(p) => fs.mkdir(p),
        Op::Write(p, off, data) => fs.write_at(p, *off, data),
        Op::Truncate(p, size) => fs.truncate(p, *size),
        Op::Unlink(p) => fs.unlink(p),
        Op::Rmdir(p) => fs.rmdir(p),
        Op::Rename(a, b) => fs.rename(a, b),
        Op::Sync => fs.sync(),
    }
}

/// Compares two file systems' entire visible state.
fn assert_equivalent(a: &dyn Filesystem, b: &dyn Filesystem, path: &str) -> Result<(), String> {
    let sa = a.stat(path);
    let sb = b.stat(path);
    match (&sa, &sb) {
        (Err(ea), Err(eb)) => {
            if ea != eb {
                return Err(format!("{path}: errors differ: {ea:?} vs {eb:?}"));
            }
            Ok(())
        }
        (Ok(ma), Ok(mb)) => {
            if ma.ftype != mb.ftype {
                return Err(format!("{path}: types differ"));
            }
            if ma.ftype == FileType::Regular {
                if ma.size != mb.size {
                    return Err(format!("{path}: sizes differ: {} vs {}", ma.size, mb.size));
                }
                let ca = a.read_all(path).map_err(|e| format!("{path}: {e}"))?;
                let cb = b.read_all(path).map_err(|e| format!("{path}: {e}"))?;
                if ca != cb {
                    return Err(format!("{path}: contents differ"));
                }
            } else {
                let da = a.readdir(path).map_err(|e| format!("{path}: {e}"))?;
                let db = b.readdir(path).map_err(|e| format!("{path}: {e}"))?;
                if da != db {
                    return Err(format!("{path}: listings differ: {da:?} vs {db:?}"));
                }
                for entry in da {
                    let child = if path == "/" {
                        format!("/{}", entry.name)
                    } else {
                        format!("{path}/{}", entry.name)
                    };
                    assert_equivalent(a, b, &child)?;
                }
            }
            Ok(())
        }
        _ => Err(format!("{path}: presence differs: {sa:?} vs {sb:?}")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The log-structured FS behaves exactly like the in-memory oracle.
    #[test]
    fn lsfs_matches_memfs_oracle(ops in prop::collection::vec(arb_op(), 1..60)) {
        let mut lsfs = Lsfs::new();
        let mut memfs = MemFs::new();
        for op in &ops {
            let a = apply(&mut lsfs, op);
            let b = apply(&mut memfs, op);
            prop_assert_eq!(a, b, "op {:?} diverged", op);
        }
        if let Err(why) = assert_equivalent(&lsfs, &memfs, "/") {
            prop_assert!(false, "state divergence: {}", why);
        }
        lsfs.sync().unwrap();
        if let Err(why) = lsfs.check() {
            prop_assert!(false, "fsck: {}", why);
        }
    }

    /// The union FS over a populated lower layer behaves like an oracle
    /// that started from the same contents, and never mutates the lower
    /// layer.
    #[test]
    fn union_matches_memfs_oracle(ops in prop::collection::vec(arb_op(), 1..60)) {
        // Populate a lower layer.
        let mut lower = MemFs::new();
        lower.mkdir("/dir").unwrap();
        lower.mkdir("/deep").unwrap();
        lower.write_all("/a", b"lower a").unwrap();
        lower.write_all("/dir/x", b"lower x").unwrap();
        lower.write_all("/deep/z", b"lower z").unwrap();
        let lower_copy = lower.clone();

        let mut union = UnionFs::new(lower, MemFs::new());
        let mut oracle = lower_copy.clone();
        for op in &ops {
            let a = apply(&mut union, op);
            let b = apply(&mut oracle, op);
            prop_assert_eq!(a, b, "op {:?} diverged", op);
        }
        if let Err(why) = assert_equivalent(&union, &oracle, "/") {
            prop_assert!(false, "state divergence: {}", why);
        }
        // The lower layer is untouched.
        if let Err(why) = assert_equivalent(union.lower(), &lower_copy, "/") {
            prop_assert!(false, "lower layer mutated: {}", why);
        }
    }

    /// Every retained snapshot reflects exactly the state at its
    /// snapshot point, no matter what happens afterwards — later
    /// writes, later snapshots sharing its metadata, a save/load round
    /// trip, or a compaction that rewrites every block pointer.
    #[test]
    fn lsfs_snapshot_isolation(
        rounds in prop::collection::vec(prop::collection::vec(arb_op(), 1..20), 1..6),
        after in prop::collection::vec(arb_op(), 1..30),
    ) {
        let mut lsfs = Lsfs::new();
        let mut oracle = MemFs::new();
        let mut frozen = Vec::new();
        for (i, ops) in rounds.iter().enumerate() {
            for op in ops {
                let _ = apply(&mut lsfs, op);
                let _ = apply(&mut oracle, op);
            }
            lsfs.snapshot_point(i as u64 + 1).unwrap();
            frozen.push(oracle.clone());
        }
        for op in &after {
            let _ = apply(&mut lsfs, op);
        }
        let drift = |fs: &Lsfs| -> Result<(), String> {
            if fs.snapshot_counters().len() != frozen.len() {
                return Err(format!("{:?} retained", fs.snapshot_counters()));
            }
            for (i, oracle) in frozen.iter().enumerate() {
                let snap = fs.snapshot(i as u64 + 1).map_err(|e| e.to_string())?;
                assert_equivalent(&snap, oracle, "/").map_err(|why| format!("snapshot {}: {why}", i + 1))?;
            }
            Ok(())
        };
        if let Err(why) = drift(&lsfs) {
            prop_assert!(false, "drift after later writes: {}", why);
        }
        let loaded = Lsfs::load(&lsfs.save().unwrap()).unwrap();
        if let Err(why) = drift(&loaded) {
            prop_assert!(false, "drift across save/load: {}", why);
        }
        lsfs.compact().unwrap();
        if let Err(why) = drift(&lsfs) {
            prop_assert!(false, "drift across compaction: {}", why);
        }
        for op in &after {
            let _ = apply(&mut lsfs, op);
        }
        lsfs.sync().unwrap();
        if let Err(why) = drift(&lsfs) {
            prop_assert!(false, "drift after writes to the compacted log: {}", why);
        }
        if let Err(why) = lsfs.check() {
            prop_assert!(false, "fsck: {}", why);
        }
    }

    /// Journal recovery reconstructs the synced state exactly.
    #[test]
    fn lsfs_recovery_round_trips(ops in prop::collection::vec(arb_op(), 1..50)) {
        let mut lsfs = Lsfs::new();
        for op in &ops {
            let _ = apply(&mut lsfs, op);
        }
        lsfs.sync().unwrap();
        let head = lsfs.journal_head();
        let disk = lsfs.disk();
        let recovered = Lsfs::recover(disk, head).unwrap();
        if let Err(why) = assert_equivalent(&recovered, &lsfs, "/") {
            prop_assert!(false, "recovery divergence: {}", why);
        }
    }
}
