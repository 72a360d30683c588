//! A commit's outcome reaches the session one way at every worker
//! count.
//!
//! Whether the session thread runs a commit's steps (no workers) or a
//! pool's threads do, a failed commit is counted when the engine reaps
//! it, consumes its counter, forces the next checkpoint full, and is
//! returned once by the next `flush_checkpoints` — never by the
//! `policy_tick` or `checkpoint_now` that captured it, and never
//! answered with a second checkpoint. Under each fault plan a server
//! at 0, 1 and 2 commit workers keeps the same images, spends the same
//! counters and retries, and reports the same degraded events.
//!
//! Every tick is settled with `flush_checkpoints` before the next, so
//! an unsettled pool's timing (capturing N+1 before N's failure is
//! reaped) plays no part. Counters and kinds are compared, not times:
//! retry backoff advances the shared sim clock from worker threads.

use dejaview::{Config, DejaView};
use dv_checkpoint::{EngineConfig, ImageKind};
use dv_display::Rect;
use dv_fault::{sites, FaultPlan, IoFault};
use dv_obs::names;
use dv_time::Duration;
use dv_vee::Prot;

const TICKS: u32 = 4;

/// What one run shows of its commits' outcomes.
#[derive(Debug, PartialEq)]
struct Outcomes {
    /// Per tick: the counter of the checkpoint it reported, if any,
    /// and whether the flush after it returned a failure.
    ticks: Vec<(Option<u64>, bool)>,
    /// The retained images' counters and kinds.
    images: Vec<(u64, ImageKind)>,
    /// `checkpoint.{count, full, committed, write_failures,
    /// commit_retries}`.
    counts: [u64; 5],
    degraded_events: u64,
    injected: u64,
}

/// Drives `TICKS` policy ticks, each after a memory write and a screen
/// change, on a server at `workers` commit workers under `plan`'s
/// faults at `site`, settling each tick with a flush.
fn run(plan: FaultPlan, site: &str, engine: EngineConfig, workers: usize) -> Outcomes {
    let plane = plan.build();
    let mut dv = DejaView::new(Config {
        width: 64,
        height: 64,
        fault_plane: plane.clone(),
        engine: EngineConfig {
            commit_workers: workers,
            ..engine
        },
        ..Config::default()
    });
    let init = dv.init_vpid();
    let app = dv.vee_mut().spawn(Some(init), "app").unwrap();
    let addr = dv.vee_mut().mmap(app, 4 << 12, Prot::ReadWrite).unwrap();
    let ticks = (0..TICKS)
        .map(|tick| {
            let page = addr + u64::from(tick % 4) * 4096;
            dv.vee_mut()
                .mem_write(app, page, &[tick as u8 + 1; 64])
                .unwrap();
            dv.driver_mut().fill_rect(Rect::new(0, 0, 64, 64), tick + 1);
            dv.clock().advance(Duration::from_secs(1));
            let report = dv.policy_tick().unwrap().report;
            (report.map(|r| r.counter), dv.flush_checkpoints().is_err())
        })
        .collect();
    let c = |name| dv.obs().counter(name);
    Outcomes {
        ticks,
        images: dv.engine().images().map(|m| (m.counter, m.kind)).collect(),
        counts: [
            c(names::CHECKPOINT_COUNT),
            c(names::CHECKPOINT_FULL),
            c(names::CHECKPOINT_COMMITTED),
            c(names::CHECKPOINT_WRITE_FAILURES),
            c(names::CHECKPOINT_COMMIT_RETRIES),
        ],
        degraded_events: dv.degraded_events(),
        injected: plane.injected_at(site),
    }
}

/// Runs `plan` at 0, 1 and 2 workers and checks the three alike;
/// returns the zero-worker run.
fn alike(plan: impl Fn() -> FaultPlan, site: &str, engine: EngineConfig) -> Outcomes {
    let on_the_caller = run(plan(), site, engine, 0);
    for workers in [1, 2] {
        assert_eq!(
            run(plan(), site, engine, workers),
            on_the_caller,
            "{site} at {workers} workers against the session thread"
        );
    }
    assert!(on_the_caller.injected > 0, "{site}: the plan fired");
    on_the_caller
}

#[test]
fn one_failed_write_without_retries_loses_one_checkpoint() {
    let out = alike(
        || FaultPlan::new(41).fail_nth(sites::CHECKPOINT_WRITEBACK, 1, IoFault::Enospc),
        sites::CHECKPOINT_WRITEBACK,
        EngineConfig {
            commit_retry_limit: 0,
            ..EngineConfig::default()
        },
    );
    // The first tick's capture is reported; its commit is lost and
    // its flush says so. The next checkpoint re-anchors.
    assert_eq!(out.ticks[0], (Some(1), true));
    assert_eq!(out.images.first(), Some(&(2, ImageKind::Full)));
    assert_eq!(out.counts[3], 1, "one write failure");
    assert_eq!(out.degraded_events, 1);
}

#[test]
fn a_store_that_always_fails_spends_one_commit_per_tick() {
    let out = alike(
        || FaultPlan::new(42).always(sites::CHECKPOINT_WRITEBACK, IoFault::Enospc),
        sites::CHECKPOINT_WRITEBACK,
        EngineConfig::default(),
    );
    let retries = u64::from(EngineConfig::default().commit_retry_limit);
    let ticks = u64::from(TICKS);
    // Every tick's capture is reported, and every flush returns its
    // commit's failure.
    let each: Vec<_> = (1..=ticks).map(|counter| (Some(counter), true)).collect();
    assert_eq!(out.ticks, each);
    assert!(out.images.is_empty());
    // count, full, committed, write failures, commit retries.
    assert_eq!(out.counts, [ticks, ticks, 0, ticks, ticks * retries]);
    assert_eq!(out.degraded_events, ticks);
}

#[test]
fn torn_encodes_and_puts_land_alike() {
    alike(
        || FaultPlan::new(43).every_nth(sites::CHECKPOINT_IMAGE_ENCODE, 2, IoFault::TornWrite),
        sites::CHECKPOINT_IMAGE_ENCODE,
        EngineConfig::default(),
    );
    alike(
        || FaultPlan::new(44).every_nth(sites::LSFS_BLOB_PUT, 2, IoFault::TornWrite),
        sites::LSFS_BLOB_PUT,
        EngineConfig::default(),
    );
}
