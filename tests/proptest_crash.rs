//! Crash-consistency property tests for the log-structured file system.
//!
//! The invariant (DESIGN.md §5): for ANY sequence of committed
//! transactions and ANY power-cut point in the serialized log,
//! `Lsfs::load` recovers a state that (a) equals the state after some
//! prefix of the committed transactions, (b) passes the `check()` fsck,
//! and (c) resolves every snapshot it still reports. A cut at the full
//! log length must recover the final state exactly.

mod common;

use proptest::prelude::*;

use dv_checkpoint::{revive, Checkpointer, EngineConfig, NetworkPolicy};
use dv_fault::{crash, sites, FaultPlan, IoFault};
use dv_lsfs::{FileType, Filesystem, Lsfs, SharedBlobStore};
use dv_obs::{names, Obs};
use dv_time::SimClock;
use dv_vee::{HostPidAllocator, Prot, Vee, PAGE_SIZE};

/// A committed transaction: every op here reaches the journal before it
/// returns, so the live tree always equals the recoverable state.
#[derive(Clone, Debug)]
enum Txn {
    Mkdir(String),
    Create(String),
    /// Write then sync — the data blocks and the Write journal record
    /// are both on disk when this op completes.
    WriteSync(String, u64, Vec<u8>),
    Snapshot,
    Unlink(String),
    Rename(String, String),
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

fn arb_txn() -> impl Strategy<Value = Txn> {
    prop_oneof![
        arb_path().prop_map(Txn::Mkdir),
        arb_path().prop_map(Txn::Create),
        (
            arb_path(),
            0..4_000u64,
            prop::collection::vec(any::<u8>(), 1..400)
        )
            .prop_map(|(p, off, data)| Txn::WriteSync(p, off, data)),
        Just(Txn::Snapshot),
        arb_path().prop_map(Txn::Unlink),
        (arb_path(), arb_path()).prop_map(|(a, b)| Txn::Rename(a, b)),
    ]
}

/// Applies one transaction; errors (missing paths, non-empty dirs) are
/// legitimate outcomes of random sequences and leave no journal record.
fn apply(fs: &mut Lsfs, txn: &Txn, next_snapshot: &mut u64) {
    match txn {
        Txn::Mkdir(p) => {
            let _ = fs.mkdir(p);
        }
        Txn::Create(p) => {
            let _ = fs.create(p);
        }
        Txn::WriteSync(p, off, data) => {
            if fs.write_at(p, *off, data).is_ok() {
                fs.sync().expect("sync without faults");
            }
        }
        Txn::Snapshot => {
            fs.snapshot_point(*next_snapshot).expect("snapshot");
            *next_snapshot += 1;
        }
        Txn::Unlink(p) => {
            let _ = fs.unlink(p);
        }
        Txn::Rename(a, b) => {
            let _ = fs.rename(a, b);
        }
    }
}

/// A layout-independent fingerprint of the entire visible state: the
/// tree (paths, types, contents) plus the resolvable snapshot set.
fn fingerprint(fs: &Lsfs) -> String {
    let mut out = String::new();
    walk(fs, "/", &mut out);
    out.push_str("snapshots:");
    for c in fs.snapshot_counters() {
        out.push_str(&format!(" {c}"));
    }
    out
}

fn walk(fs: &Lsfs, path: &str, out: &mut String) {
    let meta = fs.stat(path).expect("stat of listed path");
    if meta.ftype == FileType::Regular {
        let data = fs.read_all(path).expect("read of listed file");
        out.push_str(&format!("f {path} {} {:08x}\n", meta.size, fnv(&data)));
    } else {
        out.push_str(&format!("d {path}\n"));
        for entry in fs.readdir(path).expect("readdir of listed dir") {
            let child = if path == "/" {
                format!("/{}", entry.name)
            } else {
                format!("{path}/{}", entry.name)
            };
            walk(fs, &child, out);
        }
    }
}

fn fnv(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in data {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn recovery_lands_on_a_committed_prefix(
        txns in prop::collection::vec(arb_txn(), 1..20),
        cut_sel in any::<u64>(),
    ) {
        let mut fs = Lsfs::new();
        let mut next_snapshot = 1u64;
        // The valid recovery targets: the state after each committed
        // prefix of the transaction sequence (including the empty one).
        let mut prefixes = vec![fingerprint(&fs)];
        for txn in &txns {
            apply(&mut fs, txn, &mut next_snapshot);
            prefixes.push(fingerprint(&fs));
        }

        let image = fs.save().expect("serialize");
        let log_len = crash::log_len(&image);
        let cut = (cut_sel % (log_len as u64 + 1)) as usize;
        let cut_image = crash::power_cut(&image, cut);

        // Reopening never fails: the scan falls back to the newest
        // intact journal record (or an empty file system).
        let recovered = Lsfs::load(&cut_image).expect("load after power cut");

        // (b) fsck passes.
        prop_assert!(
            recovered.check().is_ok(),
            "fsck failed after cut at {cut}/{log_len}: {:?}",
            recovered.check()
        );

        // (a) the recovered state is exactly some committed prefix.
        let fp = fingerprint(&recovered);
        prop_assert!(
            prefixes.contains(&fp),
            "recovered state after cut at {cut}/{log_len} matches no committed prefix:\n{fp}"
        );

        // A full-length cut is not a crash at all: the final state.
        if cut == log_len {
            prop_assert_eq!(&fp, prefixes.last().unwrap());
        }

        // (c) every snapshot the recovered fs reports still resolves.
        for counter in recovered.snapshot_counters() {
            prop_assert!(
                recovered.snapshot(counter).is_ok(),
                "snapshot {counter} no longer resolves after cut at {cut}"
            );
        }
    }

    /// Deferred write-back crash consistency: if the store dies between
    /// a capture and its commit (every write-back from check `crash_at`
    /// onward fails), the retained history is exactly the chain up to
    /// the last committed counter — and a fresh engine reopened over
    /// the store lists that chain and revives its last counter to the
    /// state the session had at capture time.
    #[test]
    fn deferred_crash_recovers_the_last_committed_chain(
        rounds in 3..7u64,
        crash_sel in any::<u64>(),
        data_seed in any::<u64>(),
    ) {
        let crash_at = 2 + (crash_sel % (rounds - 1)); // in 2..=rounds
        let plane = FaultPlan::new(common::seed_for("deferred-crash"))
            .from_nth(sites::CHECKPOINT_WRITEBACK, crash_at, IoFault::Enospc)
            .build();

        let clock = SimClock::new();
        let mut vee = Vee::new(
            1,
            clock.shared(),
            Box::new(Lsfs::new()),
            HostPidAllocator::new(),
        );
        let p = vee.spawn(None, "app").unwrap();
        const PAGES: u64 = 8;
        let addr = vee.mmap(p, PAGES * PAGE_SIZE as u64, Prot::ReadWrite).unwrap();
        let config = EngineConfig {
            full_every: 3,
            compress: true,
            commit_workers: 2,
            commit_queue_depth: 16,
            commit_retry_limit: 0,
            ..EngineConfig::default()
        };
        let store = SharedBlobStore::in_memory();
        let mut engine = Checkpointer::new(config, config.commit_pool(store.clone(), &clock), clock.clone());
        let obs = Obs::sim();
        engine.set_obs(obs.clone());
        engine.set_fault_plane(plane);

        // Deterministic writes per round, captured-state snapshots taken
        // at checkpoint time (what each capture must preserve).
        let mut x = data_seed | 1;
        let mut captured: Vec<Vec<u8>> = Vec::new();
        for _round in 1..=rounds {
            for _ in 0..6 {
                x ^= x << 13; x ^= x >> 7; x ^= x << 17;
                let page = x % PAGES;
                let byte = (x >> 8) as u8;
                vee.mem_write(p, addr + page * PAGE_SIZE as u64 + (x % 100), &[byte; 64]).unwrap();
            }
            engine.checkpoint(&mut vee).expect("capture never fails");
            captured.push(vee.mem_read(p, addr, (PAGES * PAGE_SIZE as u64) as usize).unwrap());
            clock.advance(dv_time::Duration::from_secs(1));
        }

        // The crash: at least one deferred commit failed.
        prop_assert!(engine.flush().is_err());
        prop_assert_eq!(obs.counter(names::CHECKPOINT_WRITE_FAILURES), rounds - crash_at + 1);

        // Retained history is exactly the committed prefix; failed and
        // cascaded counters leave no metadata and no blob behind.
        let retained: Vec<u64> = engine.images().map(|m| m.counter).collect();
        let expected: Vec<u64> = (1..crash_at).collect();
        prop_assert_eq!(&retained, &expected);
        for counter in crash_at..=rounds {
            prop_assert!(
                !store.lock().contains(&format!("ckpt-{counter:08}")),
                "failed commit {counter} left a blob"
            );
        }

        // Restart: a fresh engine reopened over the store lists the
        // committed prefix and revives the last committed counter to
        // its capture-time state.
        let mut restarted =
            Checkpointer::new(EngineConfig::default(), engine.pool().clone(), clock.clone());
        restarted.reopen("ckpt", &mut store.lock(), &[]);
        let listed: Vec<u64> = restarted.images().map(|m| m.counter).collect();
        prop_assert_eq!(&listed, &expected);
        let last = crash_at - 1;
        let chain = restarted.chain_for(last).expect("committed chain resolves");
        let (revived, _) = revive(
            &mut store.lock(),
            "ckpt",
            &chain,
            2,
            clock.shared(),
            Box::new(Lsfs::new()),
            HostPidAllocator::new(),
            &NetworkPolicy::default(),
        )
        .expect("revive from committed chain");
        let restored = revived.mem_read(p, addr, (PAGES * PAGE_SIZE as u64) as usize).unwrap();
        prop_assert_eq!(&restored, &captured[last as usize - 1]);
    }
}
