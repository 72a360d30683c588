//! Observability integration: the dv-obs spine must give one coherent
//! account of a session — injected storage faults surface as BOTH
//! traced ring events AND bumped counters, the pipeline breakdown
//! agrees with the registry it reads, and the storage breakdown with
//! the stores it reads, also after a store is replaced wholesale.

mod common;

use dejaview::{Config, DejaView};
use dv_access::Role;
use dv_display::Rect;
use dv_fault::{sites, FaultPlan, FaultPlane, IoFault};
use dv_obs::names;
use dv_time::Duration;

const W: u32 = 96;
const H: u32 = 64;

fn server_with(plane: FaultPlane) -> DejaView {
    DejaView::new(Config {
        width: W,
        height: H,
        fault_plane: plane,
        ..Config::default()
    })
}

/// Deterministic pre-checkpoint activity, identical across phases.
fn setup(dv: &mut DejaView) {
    let app = dv.desktop_mut().register_app("editor");
    let root = dv.desktop_mut().root(app).unwrap();
    let win = dv.desktop_mut().add_node(app, root, Role::Window, "notes");
    dv.desktop_mut()
        .add_node(app, win, Role::Paragraph, "observability probe");
    dv.driver_mut().fill_rect(Rect::new(0, 0, W, H), 0x123456);
    dv.clock().advance(Duration::from_secs(1));
}

#[test]
fn injected_lsfs_fault_is_traced_and_counted() {
    // Probe phase: an armed plane with no rules injects nothing but
    // counts checks, measuring how many blob puts the setup performs
    // before the checkpoint whose first put we want to fail.
    let probe = FaultPlan::new(common::seed_for("obs-probe")).build();
    let mut dv = server_with(probe.clone());
    setup(&mut dv);
    let puts_before = probe
        .stats()
        .sites
        .get(sites::LSFS_BLOB_PUT)
        .map_or(0, |s| s.checks);

    // Fault phase: identical session, but the checkpoint's first blob
    // put hits ENOSPC in the lsfs blob store. The commit step's retry
    // must absorb it.
    let plane = FaultPlan::new(common::seed_for("obs-fault"))
        .fail_nth(sites::LSFS_BLOB_PUT, puts_before + 1, IoFault::Enospc)
        .build();
    let mut dv = server_with(plane.clone());
    setup(&mut dv);
    dv.checkpoint_now()
        .expect("one retry absorbs a single injected fault");
    assert_eq!(plane.injected_at(sites::LSFS_BLOB_PUT), 1);

    let snap = dv.observability();

    // The fault surfaced as a bumped retry counter...
    assert_eq!(snap.counter(names::CHECKPOINT_COMMIT_RETRIES), 1);
    assert_eq!(snap.counter(names::FAULT_INJECTED), 1);

    // ...AND as a traced event in the ring, naming the site.
    let faults = snap.events_named(names::EV_FAULT_INJECTED);
    assert_eq!(faults.len(), 1, "one injected fault, one trace event");
    assert!(
        faults[0].detail.contains(sites::LSFS_BLOB_PUT),
        "event detail names the site: {:?}",
        faults[0].detail
    );
    assert!(
        snap.events_named(names::EV_COMMIT_RETRY)
            .iter()
            .any(|e| e.detail.contains("counter=1 attempt=1")),
        "the commit step's retry is traced too"
    );

    // The retry landed the image: nothing was lost, so nothing counts
    // as a write failure or a degradation, and the server's own
    // (re-quiesce, re-capture) retry never ran.
    assert_eq!(snap.counter(names::CHECKPOINT_WRITE_FAILURES), 0);
    assert_eq!(snap.counter(names::SERVER_CHECKPOINT_RETRIES), 0);
    assert_eq!(dv.degraded_events(), 0);
    assert_eq!(dv.storage().degraded_events, 0);
    assert_eq!(dv.engine().images().count(), 1);
}

#[test]
fn storage_breakdown_matches_registry_counters() {
    let mut dv = server_with(FaultPlane::disabled());
    setup(&mut dv);
    dv.vee_mut().fs.mkdir_all("/data").unwrap();
    dv.vee_mut()
        .fs
        .write_all("/data/file", &vec![7u8; 4 << 10])
        .unwrap();
    dv.vee_mut().fs.sync().unwrap();
    dv.clock().advance(Duration::from_secs(1));
    let report = dv.policy_tick().unwrap().report.expect("checkpoint");
    dv.force_keyframe();

    let snap = dv.observability();
    let storage = dv.storage();
    assert_eq!(
        storage.display_bytes,
        snap.counter(names::DISPLAY_COMMAND_BYTES)
            + snap.counter(names::DISPLAY_SCREENSHOT_BYTES)
            + snap.counter(names::DISPLAY_TIMELINE_BYTES),
    );
    assert_eq!(storage.index_bytes, snap.counter(names::INDEX_BYTES));
    assert_eq!(
        storage.checkpoint_stored_bytes,
        snap.counter(names::CHECKPOINT_STORED_BYTES)
    );
    assert_eq!(
        storage.fs_bytes,
        snap.counter(names::LSFS_DATA_BYTES) + snap.counter(names::LSFS_JOURNAL_BYTES),
    );
    assert!(storage.display_bytes > 0, "display stream recorded");
    assert!(storage.fs_bytes > 0, "fs stream recorded");
    assert!(storage.checkpoint_stored_bytes > 0, "checkpoint recorded");

    // The commit path's counts are in the registry too: with no commit
    // workers the one capture was queued, committed by the session
    // thread, and is no longer in flight when the tick returns.
    let sync_downtime = snap.counter(names::CHECKPOINT_SYNC_DOWNTIME_NANOS);
    assert!(sync_downtime > 0);
    assert_eq!(
        (
            snap.counter(names::CHECKPOINT_QUEUED),
            snap.counter(names::CHECKPOINT_COMMITTED)
        ),
        (1, 1)
    );
    assert_eq!(dv.engine().inflight(), 0);
    assert_eq!(sync_downtime, report.downtime.as_nanos());
}

/// What the stores hold, as `(display, checkpoint raw, checkpoint
/// stored, fs)`: the display record's three files, the main engine's
/// image metadata and the session disk's log.
fn held(dv: &DejaView) -> (u64, u64, u64, u64) {
    let record = dv.record();
    let record = record.read();
    let images = || dv.engine().images();
    (
        record.log.byte_len() + record.shots.byte_len() + record.timeline.byte_len(),
        images().map(|m| m.raw_bytes).sum(),
        images().map(|m| m.stored_bytes).sum(),
        dv.session_fs_handle()
            .with(|fs| fs.disk().read().bytes_written()),
    )
}

/// [`DejaView::storage`] in the order [`held`] reads the stores.
fn split(dv: &DejaView) -> (u64, u64, u64, u64) {
    let s = dv.storage();
    (
        s.display_bytes,
        s.checkpoint_raw_bytes,
        s.checkpoint_stored_bytes,
        s.fs_bytes,
    )
}

/// An archive restore and a log compaction each replace a store
/// wholesale; the storage split still reports what the stores hold.
#[test]
fn storage_split_matches_the_stores_after_restore_and_compaction() {
    let mut dv = server_with(FaultPlane::disabled());
    setup(&mut dv);
    dv.vee_mut().fs.mkdir_all("/data").unwrap();
    for round in 1..=3u8 {
        dv.vee_mut()
            .fs
            .write_all("/data/file", &vec![round; 8 << 10])
            .unwrap();
        dv.driver_mut()
            .fill_rect(Rect::new(0, 0, W, H), u32::from(round));
        dv.clock().advance(Duration::from_secs(1));
        dv.checkpoint_now().unwrap();
    }
    dv.force_keyframe();
    let recorded = split(&dv);
    assert_eq!(recorded, held(&dv));
    let (display, raw, stored, fs) = recorded;
    assert!(
        display > 0 && raw > 0 && stored > 0 && fs > 0,
        "{recorded:?}"
    );

    // The restored server holds what the saved one did.
    let archive = dv.save_archive().unwrap();
    let saved = split(&dv);
    let mut restored = DejaView::load_archive(
        Config {
            width: W,
            height: H,
            ..Config::default()
        },
        &archive,
    )
    .unwrap();
    assert_eq!(split(&restored), held(&restored));
    assert_eq!(split(&restored), saved);

    // Compaction shrinks the log, and the split follows it down.
    let last = restored.engine().images().last().unwrap().counter;
    assert!(restored.retire_snapshots_before(last) > 0);
    let reclaimed = restored.compact_storage().unwrap();
    assert!(reclaimed > 0);
    assert_eq!(split(&restored), held(&restored));
    assert_eq!(split(&restored).3, saved.3 - reclaimed);
}
