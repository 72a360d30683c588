//! Integration tests for the deferred checkpoint write-back pipeline.
//!
//! Two invariants beyond the engine's unit tests:
//!
//! 1. **Capture isolation** — the session may dirty pages the instant
//!    `checkpoint` returns, while the commit is still in flight on a
//!    worker thread; every committed image must nevertheless restore
//!    the capture-time state, not the later one.
//! 2. **Drain accounting** — when the store fails mid-queue, `flush()`
//!    surfaces the error and every queued image is accounted for as
//!    either committed or failed; the next checkpoint re-anchors full.

mod common;

use dv_checkpoint::{revive, Checkpointer, EngineConfig, NetworkPolicy};
use dv_fault::{sites, FaultPlan, IoFault};
use dv_lsfs::{FsError, Lsfs, SharedBlobStore};
use dv_obs::{names, Obs};
use dv_time::SimClock;
use dv_vee::{HostPidAllocator, Prot, Vee, Vpid, PAGE_SIZE};

const PAGES: u64 = 16;

fn session(clock: &SimClock) -> (Vee, Vpid, u64) {
    let mut vee = Vee::new(
        1,
        clock.shared(),
        Box::new(Lsfs::new()),
        HostPidAllocator::new(),
    );
    let p = vee.spawn(None, "app").unwrap();
    let addr = vee
        .mmap(p, PAGES * PAGE_SIZE as u64, Prot::ReadWrite)
        .unwrap();
    (vee, p, addr)
}

fn fill(vee: &mut Vee, p: Vpid, addr: u64, round: u64) {
    // Touch every page with round-tagged contents so each checkpoint's
    // capture-time state is distinct from every other round's.
    for page in 0..PAGES {
        let byte = (round * 31 + page * 7 + 1) as u8;
        vee.mem_write(p, addr + page * PAGE_SIZE as u64, &[byte; 256])
            .unwrap();
    }
}

/// Checkpoints race with the session dirtying pages: each committed
/// image restores its capture-time snapshot even though the memory was
/// overwritten before (and while) the commit ran.
#[test]
fn commits_in_flight_are_isolated_from_later_writes() {
    let clock = SimClock::new();
    let (mut vee, p, addr) = session(&clock);
    let config = EngineConfig {
        full_every: 3,
        compress: true,
        commit_workers: 2,
        commit_queue_depth: 32,
        ..EngineConfig::default()
    };
    let store = SharedBlobStore::in_memory();
    let pool = config.commit_pool(store.clone(), &clock);
    let mut engine = Checkpointer::new(config, pool, clock.clone());
    let obs = Obs::sim();
    engine.set_obs(obs.clone());

    let rounds = 8u64;
    let mut captured = Vec::new();
    for round in 1..=rounds {
        fill(&mut vee, p, addr, round);
        let report = engine.checkpoint(&mut vee).unwrap();
        assert_eq!(report.counter, round);
        captured.push(
            vee.mem_read(p, addr, (PAGES * PAGE_SIZE as u64) as usize)
                .unwrap(),
        );
        // Immediately clobber the pages the in-flight commit is
        // compressing — capture must have copied them already.
        fill(&mut vee, p, addr, round + 1000);
        clock.advance(dv_time::Duration::from_secs(1));
    }
    engine.flush().unwrap();

    assert_eq!(obs.counter(names::CHECKPOINT_QUEUED), rounds);
    assert_eq!(obs.counter(names::CHECKPOINT_COMMITTED), rounds);
    assert_eq!(obs.counter(names::CHECKPOINT_WRITE_FAILURES), 0);

    for round in 1..=rounds {
        let chain = engine.chain_for(round).expect("chain");
        let (revived, _) = revive(
            &mut store.lock(),
            engine.blob_prefix(),
            &chain,
            2,
            clock.shared(),
            Box::new(Lsfs::new()),
            HostPidAllocator::new(),
            &NetworkPolicy::default(),
        )
        .expect("revive");
        let restored = revived
            .mem_read(p, addr, (PAGES * PAGE_SIZE as u64) as usize)
            .unwrap();
        assert_eq!(
            restored,
            captured[round as usize - 1],
            "checkpoint {round} restored post-capture writes"
        );
    }
}

/// ENOSPC mid-queue: `flush()` returns the failure, every queued image
/// is accounted as committed or failed, the failed suffix is dropped
/// from the history, and the next checkpoint re-anchors with a full.
#[test]
fn drain_under_fault_accounts_every_queued_image() {
    let plane = FaultPlan::new(common::seed_for("deferred-drain"))
        .fail_nth(sites::CHECKPOINT_WRITEBACK, 3, IoFault::Enospc)
        .build();
    let clock = SimClock::new();
    let (mut vee, p, addr) = session(&clock);
    let config = EngineConfig {
        // One long incremental chain so the failed commit cascades
        // into every later one still in the queue.
        full_every: 100,
        compress: true,
        commit_workers: 1,
        commit_queue_depth: 8,
        commit_retry_limit: 0,
        ..EngineConfig::default()
    };
    let store = SharedBlobStore::in_memory();
    let pool = config.commit_pool(store.clone(), &clock);
    let mut engine = Checkpointer::new(config, pool, clock.clone());
    let obs = Obs::sim();
    engine.set_obs(obs.clone());
    engine.set_fault_plane(plane);

    // Hold the store lock while every round enqueues: the worker's
    // first commit blocks on the store, so the faulted third commit
    // cannot resolve (and the engine cannot reap it and re-anchor
    // full) until the whole incremental chain is queued. Without this
    // the cascade accounting below would race the worker thread.
    let rounds = 6u64;
    {
        let _pin_commits = store.lock();
        for round in 1..=rounds {
            fill(&mut vee, p, addr, round);
            engine.checkpoint(&mut vee).unwrap();
            clock.advance(dv_time::Duration::from_secs(1));
        }
    }
    assert_eq!(engine.flush(), Err(FsError::NoSpace));

    // Accounting: nothing queued goes missing.
    let queued = obs.counter(names::CHECKPOINT_QUEUED);
    let committed = obs.counter(names::CHECKPOINT_COMMITTED);
    let write_failures = obs.counter(names::CHECKPOINT_WRITE_FAILURES);
    assert_eq!(queued, rounds);
    assert_eq!(queued, committed + write_failures);
    assert_eq!(committed, 2, "commits before the fault survive");
    assert_eq!(
        write_failures, 4,
        "one direct failure plus three cascaded incrementals"
    );

    // The retained history is exactly the committed prefix.
    let counters: Vec<u64> = engine.images().map(|m| m.counter).collect();
    assert_eq!(counters, vec![1, 2]);
    assert_eq!(engine.inflight(), 0);

    // The next checkpoint re-anchors: a full image that commits fine
    // (the one-shot fault has already fired) and revives on its own.
    fill(&mut vee, p, addr, 42);
    let expected = vee
        .mem_read(p, addr, (PAGES * PAGE_SIZE as u64) as usize)
        .unwrap();
    let report = engine.checkpoint(&mut vee).unwrap();
    assert!(report.full, "post-failure checkpoint must re-anchor full");
    engine.flush().unwrap();
    let chain = engine.chain_for(report.counter).expect("chain");
    assert_eq!(chain, vec![report.counter], "full image needs no parents");
    let (revived, _) = revive(
        &mut store.lock(),
        engine.blob_prefix(),
        &chain,
        2,
        clock.shared(),
        Box::new(Lsfs::new()),
        HostPidAllocator::new(),
        &NetworkPolicy::default(),
    )
    .expect("revive after re-anchor");
    let restored = revived
        .mem_read(p, addr, (PAGES * PAGE_SIZE as u64) as usize)
        .unwrap();
    assert_eq!(restored, expected);
}
