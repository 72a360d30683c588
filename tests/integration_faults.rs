//! Fault-injection integration matrix: every storage fault site crossed
//! with every fault kind, armed against a live recording DejaView
//! session.
//!
//! For each combination the session must (1) never panic, (2) surface
//! injected failures as counted degradation rather than silent loss,
//! (3) leave every process that was running, running, and (4) keep
//! every byte of the pre-fault record usable: browse reproduces the
//! same screen, search still finds the recorded text, and revive
//! restores the pre-fault checkpoint.

mod common;

use dejaview::{Config, DejaView};
use dv_access::Role;
use dv_display::Rect;
use dv_fault::{sites, FaultPlan, FaultPlane, IoFault};
use dv_index::RankOrder;
use dv_obs::names;
use dv_time::Duration;
use dv_vee::{Prot, RunState, Vpid};

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

/// Paints, writes files, syncs, ticks the policy, and takes a keyframe,
/// tolerating injected storage errors; returns how many fs operations
/// reported an error to this caller.
fn activity(dv: &mut DejaView, phase: u64, steps: u64) -> u64 {
    let mut fs_errors = 0u64;
    for i in 0..steps {
        // Advance first so this step's commands land strictly after the
        // previous phase's end time (browse at a phase boundary must not
        // pick up the next phase's paint).
        dv.clock().advance(Duration::from_secs(1));
        let shade = 0x20_20_20 + (phase + i) as u32 * 41;
        dv.driver_mut().fill_rect(Rect::new(0, 0, W, H), shade);
        if dv
            .vee_mut()
            .fs
            .write_all("/data/file", &vec![(phase + i) as u8; 2 << 10])
            .is_err()
        {
            fs_errors += 1;
        }
        if dv.vee_mut().fs.sync().is_err() {
            fs_errors += 1;
        }
        let _ = dv.policy_tick();
        dv.force_keyframe();
    }
    fs_errors
}

fn runnable(dv: &DejaView) -> Vec<Vpid> {
    let running = |p: &&dv_vee::Process| p.state == RunState::Runnable;
    dv.vee()
        .processes()
        .filter(running)
        .map(|p| p.vpid)
        .collect()
}

#[test]
fn every_site_and_fault_degrades_gracefully() {
    let kinds = [
        IoFault::Enospc,
        IoFault::TornWrite,
        IoFault::ShortRead,
        IoFault::Corrupt,
        IoFault::LatencySpike,
    ];
    for site in sites::ALL {
        for (ki, fault) in kinds.iter().enumerate() {
            let label = format!("{site}/{fault:?}");
            let plane = FaultPlan::new(common::seed_for(site) ^ ki as u64)
                .every_nth(site, 2, *fault)
                .build();
            plane.disarm();
            let mut dv = server_with(plane.clone());

            // --- Clean pre-fault history the record must retain. ---
            dv.vee_mut().fs.mkdir_all("/data").expect("clean mkdir");
            let app = dv.desktop_mut().register_app("editor");
            let root = dv.desktop_mut().root(app).expect("app root");
            let win = dv
                .desktop_mut()
                .add_node(app, root, Role::Window, "notes - editor");
            dv.desktop_mut()
                .add_node(app, win, Role::Paragraph, "prefault sentinel text");
            dv.desktop_mut().focus(app);
            assert_eq!(activity(&mut dv, 0, 3), 0, "{label}: clean run erred");
            let pre_time = dv.now();
            let pre_shot = dv
                .browse(pre_time)
                .expect("pre-fault browse")
                .content_hash();

            // --- Armed phase: the session absorbs the faults. ---
            let running = runnable(&dv);
            plane.arm();
            let fs_errors = activity(&mut dv, 3, 4);
            // A revive under fault reads blobs back; it may fail, but
            // must not panic or corrupt the live session.
            if let Ok(sid) = dv.take_me_back(dv.now()) {
                let _ = dv.close_session(sid);
            }
            let _ = dv.save_archive();
            let _ = dv.save_archive();
            plane.disarm();

            let injected = plane.injected_at(site);
            assert!(injected > 0, "{label}: site was never exercised");
            assert_eq!(
                runnable(&dv),
                running,
                "{label}: a process was left stopped"
            );

            // --- Failures are visible, not silent. ---
            let damaging = matches!(
                fault,
                IoFault::Enospc | IoFault::TornWrite | IoFault::ShortRead
            );
            if damaging && site != sites::LSFS_BLOB_GET {
                // A store fault the commit step's retry absorbed is
                // counted there.
                let visible = dv.storage().degraded_events
                    + dv.engine().stats().write_failures
                    + dv.observability().counter(names::CHECKPOINT_COMMIT_RETRIES)
                    + fs_errors;
                assert!(visible > 0, "{label}: {injected} faults left no trace");
            }

            // --- Zero lost pre-fault data. ---
            let post_shot = dv
                .browse(pre_time)
                .unwrap_or_else(|e| panic!("{label}: pre-fault browse broke: {e}"))
                .content_hash();
            assert_eq!(pre_shot, post_shot, "{label}: pre-fault screen changed");

            let hits = dv
                .search("sentinel", RankOrder::Chronological)
                .unwrap_or_else(|e| panic!("{label}: search broke: {e}"));
            assert!(!hits.is_empty(), "{label}: pre-fault text unsearchable");

            let sid = dv
                .take_me_back(pre_time)
                .unwrap_or_else(|e| panic!("{label}: pre-fault revive broke: {e:?}"));
            let revived = dv.session(sid).expect("revived session");
            assert_eq!(
                revived.vee.fs.read_all("/data/file").expect("revived file")[0],
                2,
                "{label}: revived file is not the pre-fault version"
            );
            dv.close_session(sid).expect("close revived session");
        }
    }
}

/// A snapshot point that fails mid-checkpoint costs one retry, not the
/// session and not the memory dirtied since the last image: the tick
/// still yields a checkpoint, everything runs on, and "Take me back"
/// to it sees what the live session holds.
#[test]
fn failed_snapshot_point_is_retried_into_a_faithful_checkpoint() {
    // With no file activity a checkpoint's only journal record is its
    // snapshot mark: the second checkpoint's first attempt fails.
    let plane = FaultPlan::new(common::seed_for("snapshot-point"))
        .fail_nth(sites::LSFS_JOURNAL_COMMIT, 2, IoFault::Enospc)
        .build();
    let mut dv = server_with(plane.clone());
    let init = dv.init_vpid();
    let app = dv.vee_mut().spawn(Some(init), "app").expect("spawn");
    let addr = dv.vee_mut().mmap(app, 4096, Prot::ReadWrite).expect("mmap");
    let running = runnable(&dv);
    let mut reports = Vec::new();
    for value in [1u8, 2] {
        dv.vee_mut().mem_write(app, addr, &[value]).expect("write");
        dv.driver_mut()
            .fill_rect(Rect::new(0, 0, W, H), u32::from(value));
        dv.clock().advance(Duration::from_secs(1));
        let tick = dv.policy_tick().expect("tick");
        reports.push(tick.report.expect("the retry recovered the checkpoint"));
    }
    assert_eq!(plane.injected_at(sites::LSFS_JOURNAL_COMMIT), 1);
    assert_eq!(dv.degraded_events(), 1, "one failed attempt, counted");
    assert_eq!(dv.engine().stats().write_failures, 1);
    assert_eq!(runnable(&dv), running);
    assert!(
        reports[1].full,
        "the failed capture's dirty pages are re-captured"
    );
    assert_eq!(reports[1].counter, 2, "its counter was not consumed");

    let sid = dv.take_me_back(dv.now()).expect("revive");
    let revived = dv.session(sid).expect("revived session");
    assert_eq!(revived.counter, 2);
    assert_eq!(revived.vee.mem_read(app, addr, 1).expect("read"), [2]);
}
