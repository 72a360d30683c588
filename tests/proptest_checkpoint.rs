//! Property tests for incremental checkpointing.
//!
//! The §5.1.2 completeness invariant: restoring from a chain of
//! full + incremental checkpoint images must reproduce the address-space
//! contents exactly as they were at the last checkpoint, under arbitrary
//! interleavings of memory writes and the region operations DejaView
//! intercepts (`mmap`, `munmap`, `mprotect`, `mremap`).

use proptest::prelude::*;

use std::sync::Arc;

use dv_checkpoint::{
    revive, Checkpointer, CommitPipeline, EngineConfig, FairPolicy, NetworkPolicy, PipelineConfig,
};
use dv_fault::{sites, FaultPlan, FaultPlane, IoFault};
use dv_lsfs::{Lsfs, SharedBlobStore};
use dv_time::{SimClock, Sleeper};
use dv_vee::{HostPidAllocator, Prot, Vee, Vpid, PAGE_SIZE};

/// A memory operation over a bounded set of region slots.
#[derive(Clone, Debug)]
enum MemOp {
    /// Write `data` at `offset` within region `slot`.
    Write {
        slot: usize,
        offset: u64,
        data: Vec<u8>,
    },
    /// Map a new region into `slot` (unmapping any previous one).
    Map { slot: usize, pages: u64 },
    /// Unmap the region in `slot`.
    Unmap { slot: usize },
    /// Grow/shrink the region in `slot`.
    Remap { slot: usize, pages: u64 },
    /// Toggle protection of `slot`.
    Protect { slot: usize, writable: bool },
    /// Take a checkpoint here.
    Checkpoint,
}

const SLOTS: usize = 3;
const MAX_PAGES: u64 = 6;

fn arb_op() -> impl Strategy<Value = MemOp> {
    prop_oneof![
        4 => (0..SLOTS, 0..(MAX_PAGES * PAGE_SIZE as u64 - 600), prop::collection::vec(any::<u8>(), 1..600))
            .prop_map(|(slot, offset, data)| MemOp::Write { slot, offset, data }),
        1 => (0..SLOTS, 1..=MAX_PAGES).prop_map(|(slot, pages)| MemOp::Map { slot, pages }),
        1 => (0..SLOTS).prop_map(|slot| MemOp::Unmap { slot }),
        1 => (0..SLOTS, 1..=MAX_PAGES).prop_map(|(slot, pages)| MemOp::Remap { slot, pages }),
        1 => (0..SLOTS, any::<bool>()).prop_map(|(slot, writable)| MemOp::Protect { slot, writable }),
        2 => Just(MemOp::Checkpoint),
    ]
}

struct Harness {
    vee: Vee,
    clock: SimClock,
    engine: Checkpointer,
    store: SharedBlobStore,
    p: Vpid,
    slots: [Option<(u64, u64, Prot)>; SLOTS], // (addr, pages, prot)
    checkpoints: u64,
    /// Wait out every commit before the next op, and let commits fail:
    /// under injected faults this makes *when* a failure is noticed —
    /// and so which capture re-anchors — the same at any worker count.
    settle_each: bool,
}

/// `workers` commit threads, a lane deep enough never to fill.
fn engine_config(compress: bool, workers: usize) -> EngineConfig {
    EngineConfig {
        full_every: 3,
        compress,
        commit_workers: workers,
        commit_queue_depth: 64,
        ..EngineConfig::default()
    }
}

impl Harness {
    fn new() -> Self {
        Harness::alone(engine_config(false, 0))
    }

    fn alone(config: EngineConfig) -> Self {
        Harness::with_engine(config, SharedBlobStore::in_memory(), SimClock::new())
    }

    /// A session recording into `store` through an engine with
    /// `config`, whose pool (built at its first checkpoint) is its own.
    fn with_engine(config: EngineConfig, store: SharedBlobStore, clock: SimClock) -> Self {
        let mut vee = Vee::new(
            1,
            clock.shared(),
            Box::new(Lsfs::new()),
            HostPidAllocator::new(),
        );
        let p = vee.spawn(None, "app").unwrap();
        let engine = Checkpointer::with_sim_clock(config, clock.clone());
        Harness {
            vee,
            clock,
            engine,
            store,
            p,
            slots: [None; SLOTS],
            checkpoints: 0,
            settle_each: false,
        }
    }

    /// Two sessions on one store and one host-style pool of `workers`
    /// threads: the session under test and a neighbour (blob prefix
    /// `other`) that keeps its own lane busy.
    fn on_a_shared_pool(compress: bool, workers: usize) -> (Self, Self) {
        let (store, clock) = (SharedBlobStore::in_memory(), SimClock::new());
        let pool = Arc::new(CommitPipeline::new(
            PipelineConfig {
                workers,
                retry_limit: EngineConfig::default().commit_retry_limit,
                retry_backoff: EngineConfig::default().commit_retry_backoff,
                compress,
                fairness: FairPolicy::RoundRobin,
            },
            store.clone(),
            Sleeper::Sim(clock.clone()),
        ));
        let config = engine_config(compress, 0);
        let mut main = Harness::with_engine(config, store.clone(), clock);
        // The neighbour keeps session time of its own, so the session
        // under test reads the clock it would read alone.
        let mut neighbour = Harness::with_engine(config, store, SimClock::new());
        neighbour.engine =
            Checkpointer::with_sim_clock(config, neighbour.clock.clone()).with_blob_prefix("other");
        main.engine.attach_pipeline(pool.clone(), 1);
        neighbour.engine.attach_pipeline(pool, 1);
        (main, neighbour)
    }

    /// Everything the engine retained, with the bytes it stored.
    fn retained(&self) -> Vec<(u64, dv_checkpoint::ImageKind, String, u64, u64, Vec<u8>)> {
        self.engine
            .images()
            .map(|m| {
                let bytes = self.store.lock().get(&m.blob).expect("retained blob");
                (
                    m.counter,
                    m.kind,
                    m.blob.clone(),
                    m.time.as_nanos(),
                    m.raw_bytes,
                    bytes.to_vec(),
                )
            })
            .collect()
    }

    fn apply(&mut self, op: &MemOp) {
        match op {
            MemOp::Write { slot, offset, data } => {
                if let Some((addr, pages, prot)) = self.slots[*slot] {
                    if prot == Prot::ReadWrite {
                        let len = pages * PAGE_SIZE as u64;
                        if *offset + data.len() as u64 <= len {
                            self.vee.mem_write(self.p, addr + offset, data).unwrap();
                        }
                    }
                }
            }
            MemOp::Map { slot, pages } => {
                if let Some((addr, old_pages, _)) = self.slots[*slot].take() {
                    self.vee
                        .munmap(self.p, addr, old_pages * PAGE_SIZE as u64)
                        .unwrap();
                }
                let addr = self
                    .vee
                    .mmap(self.p, pages * PAGE_SIZE as u64, Prot::ReadWrite)
                    .unwrap();
                self.slots[*slot] = Some((addr, *pages, Prot::ReadWrite));
            }
            MemOp::Unmap { slot } => {
                if let Some((addr, pages, _)) = self.slots[*slot].take() {
                    self.vee
                        .munmap(self.p, addr, pages * PAGE_SIZE as u64)
                        .unwrap();
                }
            }
            MemOp::Remap { slot, pages } => {
                if let Some((addr, _, prot)) = self.slots[*slot] {
                    let new_addr = self
                        .vee
                        .mremap(self.p, addr, pages * PAGE_SIZE as u64)
                        .unwrap()
                        .expect("region mapped");
                    self.slots[*slot] = Some((new_addr, *pages, prot));
                }
            }
            MemOp::Protect { slot, writable } => {
                if let Some((addr, pages, _)) = self.slots[*slot] {
                    let prot = if *writable {
                        Prot::ReadWrite
                    } else {
                        Prot::ReadOnly
                    };
                    self.vee.mprotect(self.p, addr, prot).unwrap();
                    self.slots[*slot] = Some((addr, pages, prot));
                }
            }
            MemOp::Checkpoint => {
                self.clock.advance(dv_time::Duration::from_secs(1));
                let taken = self.engine.checkpoint(&mut self.vee, &self.store);
                if self.settle_each {
                    let _ = self.engine.flush();
                } else {
                    taken.expect("no fault is armed");
                }
                self.checkpoints += 1;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// After any op sequence ending in a checkpoint, reviving from the
    /// incremental chain reproduces every mapped byte.
    #[test]
    fn incremental_chain_restores_exact_memory(ops in prop::collection::vec(arb_op(), 1..50)) {
        let mut h = Harness::new();
        for op in &ops {
            h.apply(op);
        }
        // Final checkpoint so the restore target covers everything.
        h.apply(&MemOp::Checkpoint);
        let counter = h.checkpoints;
        let chain = h.engine.chain_for(counter).expect("chain");

        let (revived, _) = revive(
            &mut h.store.lock(),
            "ckpt",
            &chain,
            2,
            h.clock.shared(),
            Box::new(Lsfs::new()),
            HostPidAllocator::new(),
            &NetworkPolicy::default(),
        )
        .expect("revive");

        // Every mapped region's full contents must match.
        for (slot, entry) in h.slots.iter().enumerate() {
            if let Some((addr, pages, _)) = entry {
                let len = (pages * PAGE_SIZE as u64) as usize;
                let live = h.vee.mem_read(h.p, *addr, len).unwrap();
                let restored = revived.mem_read(h.p, *addr, len).unwrap();
                prop_assert_eq!(
                    live, restored,
                    "slot {} at {:#x} ({} pages) diverged", slot, addr, pages
                );
            }
        }
        // Region tables must match too.
        let live_regions: Vec<_> = h
            .vee
            .process(h.p)
            .unwrap()
            .mem
            .regions()
            .map(|r| (r.start, r.len, r.prot))
            .collect();
        let revived_regions: Vec<_> = revived
            .process(h.p)
            .unwrap()
            .mem
            .regions()
            .map(|r| (r.start, r.len, r.prot))
            .collect();
        prop_assert_eq!(live_regions, revived_regions);
    }

    /// Checkpoint image encode/decode round-trips byte-for-byte at the
    /// page level for arbitrary memory states.
    #[test]
    fn image_round_trip_under_random_state(ops in prop::collection::vec(arb_op(), 1..30)) {
        let mut h = Harness::new();
        for op in &ops {
            h.apply(op);
        }
        h.apply(&MemOp::Checkpoint);
        let meta = h.engine.image_meta(h.checkpoints).unwrap();
        let blob = h.store.lock().get(&meta.blob).unwrap();
        let image = dv_checkpoint::decode_image(&blob).expect("decode");
        let reencoded = dv_checkpoint::encode_image(&image);
        prop_assert_eq!(&*blob, &reencoded);
    }

    /// One commit path: who runs the commit steps — the session thread
    /// (zero workers), 1, 2 or 4 threads of the engine's own pool, or a
    /// pool shared with a busy neighbour — changes nothing about what
    /// is retained or stored, compressed or not, down to the byte.
    #[test]
    fn deferred_pipeline_commits_identical_blobs(ops in prop::collection::vec(arb_op(), 1..40)) {
        for compress in [false, true] {
            let fresh = |workers| Harness::alone(engine_config(compress, workers));
            let run = |mut under_test: Harness, mut neighbour: Option<Harness>| {
                for op in ops.iter().chain([&MemOp::Checkpoint]) {
                    under_test.apply(op);
                    if let Some(neighbour) = &mut neighbour {
                        neighbour.apply(op);
                    }
                }
                under_test.engine.flush().expect("drained");
                under_test.retained()
            };
            let reference = run(fresh(0), None);
            prop_assert!(!reference.is_empty());
            prop_assert_eq!(reference[0].5[0] == 0x02, compress, "container iff compressed");
            for workers in [0, 1, 2, 4] {
                if workers > 0 {
                    let own = run(fresh(workers), None);
                    prop_assert!(own == reference, "own pool, {workers} workers, compress={compress}");
                }
                let (under_test, neighbour) = Harness::on_a_shared_pool(compress, workers);
                let shared = run(under_test, Some(neighbour));
                prop_assert!(shared == reference, "shared pool, {workers} workers, compress={compress}");
            }
        }
    }

    /// One retry policy, one fault schedule: with a fault armed at both
    /// checkpoint sites, the session thread and a two-worker pool
    /// retry, fail, cascade and re-anchor alike — same retained images
    /// and bytes (a `Corrupt` flip included), same counts, same number
    /// of injections.
    #[test]
    fn faults_land_alike_at_zero_and_two_workers(
        ops in prop::collection::vec(arb_op(), 1..40),
        kind in 0..3usize,
        encode_every in 2..6u64,
        writeback_every in 2..5u64,
        commit_retry_limit in 0..2u32,
        seed in any::<u64>(),
    ) {
        let fault = [IoFault::Enospc, IoFault::Corrupt, IoFault::LatencySpike][kind];
        let run = |workers: usize| {
            let plane: FaultPlane = FaultPlan::new(seed)
                .every_nth(sites::CHECKPOINT_IMAGE_ENCODE, encode_every, fault)
                .every_nth(sites::CHECKPOINT_WRITEBACK, writeback_every, fault)
                .build();
            let mut h = Harness::alone(EngineConfig {
                commit_retry_limit,
                ..engine_config(true, workers)
            });
            h.engine.set_fault_plane(plane.clone());
            h.settle_each = true;
            for op in ops.iter().chain([&MemOp::Checkpoint]) {
                h.apply(op);
            }
            let stats = h.engine.stats();
            (
                h.retained(),
                (stats.checkpoints, stats.full_checkpoints, stats.committed, stats.write_failures),
                plane.injected_at(sites::CHECKPOINT_IMAGE_ENCODE),
                plane.injected_at(sites::CHECKPOINT_WRITEBACK),
            )
        };
        let (on_the_caller, on_two_workers) = (run(0), run(2));
        prop_assert!(on_the_caller == on_two_workers, "{fault:?}: {:?} vs {:?}", on_the_caller.1, on_two_workers.1);
        let (_, (checkpoints, _, committed, failed), ..) = on_the_caller;
        prop_assert_eq!(checkpoints, committed + failed);
    }
}
