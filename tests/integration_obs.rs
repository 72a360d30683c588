//! Observability integration: the dv-obs spine must give one coherent
//! account of a session — injected storage faults surface as BOTH
//! traced ring events AND bumped counters, and the server's breakdown
//! accessors agree with the registry they are derived from.

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
    dv.policy_tick().unwrap();
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

    // The pipeline view is registry-derived too: with no commit
    // workers the one capture was queued, committed by the session
    // thread, and is no longer in flight when the tick returns.
    let pipeline = dv.pipeline_stats();
    assert!(pipeline.sync_downtime > Duration::ZERO);
    assert_eq!((pipeline.queued, pipeline.committed), (1, 1));
    assert_eq!(pipeline.inflight, 0);
    assert_eq!(
        pipeline.sync_downtime.as_nanos(),
        snap.counter(names::CHECKPOINT_SYNC_DOWNTIME_NANOS)
    );
}
