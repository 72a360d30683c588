//! Cross-crate integration: full DejaView lifecycles over the Table 1
//! workloads — record, browse, search, revive, diverge, and account
//! storage — exercising every layer of the stack together.

use dejaview::{Config, DejaView};
use dv_checkpoint::{Decision, LoadRule, SkipReason};
use dv_display::Rect;
use dv_index::RankOrder;
use dv_lsfs::Filesystem;
use dv_record::PlaybackEngine;
use dv_time::{Duration, Timestamp};
use dv_vee::{RunState, Vpid};
use dv_workloads::{
    run_scenario, CheckpointMode, MakeScenario, RunOptions, UntarScenario, WebScenario,
};

#[test]
fn web_session_full_lifecycle() {
    let mut dv = DejaView::new(Config::default());
    let mut scenario = WebScenario::new(0.2); // ~11 pages.
    let summary = run_scenario(&mut dv, &mut scenario, RunOptions::default());
    assert!(summary.checkpoints >= 4);

    // Downtime per checkpoint stayed well under the paper's 150 ms
    // human-perception threshold.
    for downtime in &summary.downtimes {
        assert!(
            downtime.as_millis() < 150,
            "checkpoint downtime {downtime} too long"
        );
    }

    // Browse to the middle of the record.
    let mid = Timestamp::ZERO + summary.virtual_elapsed.scale(0.5);
    let shot = dv.browse(mid).unwrap();
    assert_eq!((shot.width, shot.height), (1024, 768));

    // Full-text search over captured page text returns portals. With
    // ~3000 word draws from a 64-word vocabulary (fixed seed), common
    // words are certainly present.
    let results = dv
        .search(
            "app:firefox kernel OR app:firefox driver OR app:firefox module",
            RankOrder::Chronological,
        )
        .unwrap();
    assert!(!results.is_empty());

    // Revive near the end; the browser process is back with its heap.
    let sid = dv.take_me_back(dv.now()).unwrap();
    let session = dv.session(sid).unwrap();
    assert!(session.report.processes >= 2);
    let browser = session
        .vee
        .processes()
        .find(|p| p.name == "firefox")
        .expect("browser revived");
    assert_eq!(browser.state, RunState::Runnable);
    assert!(browser.mem.mapped_bytes() > 16 << 20, "grown heap restored");
    // The revived browser's TCP connection was reset and network is off.
    assert_eq!(session.report.connections_reset, 1);
    assert!(!session.vee.network_enabled());
}

#[test]
fn untar_revive_sees_partial_tree() {
    let mut dv = DejaView::new(Config::default());
    let mut scenario = UntarScenario::new(0.1); // 200 files.
    let summary = run_scenario(&mut dv, &mut scenario, RunOptions::default());
    assert!(summary.checkpoints >= 1);

    // Revive at the first checkpoint: only the files extracted by then
    // exist; the live session has all of them.
    let sid = dv.revive_counter(1).unwrap();
    let session = dv.session(sid).unwrap();
    let count_tree = |fs: &dyn Filesystem| -> usize {
        fn walk(fs: &dyn Filesystem, path: &str, acc: &mut usize) {
            for entry in fs.readdir(path).unwrap_or_default() {
                let child = if path == "/" {
                    format!("/{}", entry.name)
                } else {
                    format!("{path}/{}", entry.name)
                };
                match entry.ftype {
                    dv_lsfs::FileType::Regular => *acc += 1,
                    dv_lsfs::FileType::Directory => walk(fs, &child, acc),
                }
            }
        }
        let mut acc = 0;
        walk(fs, "/usr/src/linux", &mut acc);
        acc
    };
    let revived_files = count_tree(&*session.vee.fs);
    let live_files = count_tree(&*dv.vee().fs);
    assert!(revived_files > 0, "some files existed at the checkpoint");
    assert!(
        revived_files < live_files,
        "revive must not see later files ({revived_files} vs {live_files})"
    );

    // The revived session can keep extracting into its own branch
    // without affecting the live tree.
    let session = dv.session_mut(sid).unwrap();
    session
        .vee
        .fs
        .write_all("/usr/src/linux/branch-only.c", b"int main;")
        .unwrap();
    assert!(session.vee.fs.exists("/usr/src/linux/branch-only.c"));
    assert!(!dv.vee().fs.exists("/usr/src/linux/branch-only.c"));
}

#[test]
fn make_process_forest_revives_mid_build() {
    let mut dv = DejaView::new(Config::default());
    let mut scenario = MakeScenario::new(0.15); // 30 units.
    let summary = run_scenario(&mut dv, &mut scenario, RunOptions::default());
    assert!(summary.checkpoints >= 2);

    // Revive at an early checkpoint: make exists, most objects don't.
    let sid = dv.revive_counter(1).unwrap();
    let session = dv.session(sid).unwrap();
    assert!(session.vee.processes().any(|p| p.name == "make"));
    assert!(session.vee.fs.exists("/usr/src/build/unit_1.o"));
    assert!(!session.vee.fs.exists("/usr/src/build/unit_30.o"));
    assert!(dv.vee().fs.exists("/usr/src/build/unit_30.o"));
}

#[test]
fn policy_driven_recording_skips_idle_time() {
    let mut dv = DejaView::new(Config::default());
    let clock = dv.clock();
    // Activity for 3 seconds.
    for i in 0..3 {
        dv.driver_mut()
            .fill_rect(Rect::new(0, 0, 1024, 768), 100 + i);
        clock.advance(Duration::from_secs(1));
        dv.policy_tick().unwrap();
    }
    // Idle for 5 seconds.
    for _ in 0..5 {
        clock.advance(Duration::from_secs(1));
        dv.policy_tick().unwrap();
    }
    let stats = dv.policy_stats();
    assert_eq!(stats.checkpoints, 3);
    assert_eq!(stats.no_display, 5);
}

/// §5.1.3's example extension rule, through the server: a `LoadRule`
/// skips checkpoints while the load the server was told exceeds its
/// threshold, and lets them through once it drops.
#[test]
fn a_load_rule_skips_checkpoints_under_high_system_load() {
    let mut config = Config::default();
    config.policy.rules = vec![Box::new(LoadRule { max_load: 0.5 })];
    let mut dv = DejaView::new(config);
    let clock = dv.clock();

    dv.set_system_load(0.9);
    dv.driver_mut().fill_rect(Rect::new(0, 0, 1024, 768), 1);
    clock.advance(Duration::from_secs(1));
    let tick = dv.policy_tick().unwrap();
    assert_eq!(
        tick.decision,
        Decision::Skip(SkipReason::Rule("system-load"))
    );
    assert!(tick.report.is_none());

    dv.set_system_load(0.1);
    dv.driver_mut().fill_rect(Rect::new(0, 0, 1024, 768), 2);
    clock.advance(Duration::from_secs(1));
    let tick = dv.policy_tick().unwrap();
    assert_eq!(tick.decision, Decision::Checkpoint);
    assert!(tick.report.is_some());
    assert_eq!(dv.policy_stats().custom_rule, 1);
}

/// An application that exits takes its text off the screen (§4.2): a
/// search finds its text only up to the moment it closed, while an
/// application still running keeps its text visible.
#[test]
fn a_closed_application_stops_matching_searches_when_it_exits() {
    let mut dv = DejaView::new(Config::default());
    let clock = dv.clock();
    let closed = dv.desktop_mut().register_app("scratchpad");
    let root = dv.desktop_mut().root(closed).unwrap();
    dv.desktop_mut()
        .add_node(closed, root, dv_access::Role::Paragraph, "ephemeral draft");
    let open = dv.desktop_mut().register_app("notes");
    let root = dv.desktop_mut().root(open).unwrap();
    dv.desktop_mut()
        .add_node(open, root, dv_access::Role::Paragraph, "durable draft");
    dv.driver_mut().fill_rect(Rect::new(0, 0, 1024, 768), 1);
    clock.advance(Duration::from_secs(2));
    dv.desktop_mut().unregister_app(closed);
    clock.advance(Duration::from_secs(3));
    dv.policy_tick().unwrap();

    let closed_hits = dv.search("ephemeral", RankOrder::Chronological).unwrap();
    assert_eq!(closed_hits.len(), 1);
    assert_eq!(closed_hits[0].hit.until, Timestamp::from_secs(2));
    let open_hits = dv.search("durable", RankOrder::Chronological).unwrap();
    assert_eq!(open_hits.len(), 1);
    assert!(open_hits[0].hit.until >= Timestamp::from_secs(5));
}

#[test]
fn record_streams_stay_consistent_across_components() {
    // The same instant must be consistent across all three records:
    // display playback, text index, and checkpoint metadata.
    let mut dv = DejaView::new(Config::default());
    let clock = dv.clock();
    let app = dv.desktop_mut().register_app("editor");
    let root = dv.desktop_mut().root(app).unwrap();
    let win = dv
        .desktop_mut()
        .add_node(app, root, dv_access::Role::Window, "w");

    for i in 0..5u32 {
        let text = format!("epoch{i} content");
        dv.desktop_mut()
            .add_node(app, win, dv_access::Role::Paragraph, &text);
        dv.driver_mut()
            .fill_rect(Rect::new(0, 0, 1024, 768), 0x1000 * i);
        dv.driver_mut().draw_text(10, 10, &text, 0xFFFFFF, 0);
        clock.advance(Duration::from_secs(1));
        dv.policy_tick().unwrap();
    }

    // Search for epoch2: its hit time must fall in the recorded span,
    // browsing there must work, and a checkpoint must exist at or
    // before it.
    let results = dv.search("epoch2", RankOrder::Chronological).unwrap();
    assert_eq!(results.len(), 1);
    let t = results[0].hit.time;
    let shot = dv.browse(t).unwrap();
    assert!(shot.pixels.iter().any(|&p| p != 0));
    let counter = dv.engine().counter_at_or_before(t);
    assert!(counter.is_some());
    let sid = dv.take_me_back(t).unwrap();
    assert!(dv.session(sid).is_ok());
}

#[test]
fn reduced_quality_recording_shrinks_storage() {
    use dv_display::ScaleFactor;
    use dv_record::RecorderConfig;
    let run = |config: Config| -> u64 {
        let mut dv = DejaView::with_clock(config, dv_time::SimClock::new());
        let mut scenario = WebScenario::new(0.1);
        run_scenario(
            &mut dv,
            &mut scenario,
            RunOptions {
                checkpoints: CheckpointMode::Disabled,
                ..RunOptions::default()
            },
        );
        dv.storage().display_bytes
    };
    let full = run(Config::default());
    let half = run(Config {
        recorder: RecorderConfig {
            scale: ScaleFactor::new(1, 2),
            ..RecorderConfig::default()
        },
        ..Config::default()
    });
    let throttled = run(Config {
        recorder: RecorderConfig {
            flush_interval: Duration::from_secs(2),
            ..RecorderConfig::default()
        },
        ..Config::default()
    });
    assert!(
        half * 3 < full,
        "half resolution should shrink display storage ~4x ({half} vs {full})"
    );
    assert!(
        throttled < full,
        "frequency limiting should merge page repaints ({throttled} vs {full})"
    );
}

#[test]
fn playback_of_workload_record_is_faithful() {
    // Replay a recorded untar session from scratch and compare the final
    // screen against the live driver framebuffer.
    let mut dv = DejaView::new(Config::default());
    let mut scenario = UntarScenario::new(0.05);
    run_scenario(&mut dv, &mut scenario, RunOptions::default());
    let live_hash = dv.driver_mut().snapshot().content_hash();
    let mut engine = PlaybackEngine::new(dv.record());
    engine.seek(dv.now()).unwrap();
    assert_eq!(engine.screenshot().content_hash(), live_hash);
}

#[test]
fn revived_session_vpids_match_and_host_pids_do_not() {
    let mut dv = DejaView::new(Config::default());
    let init = dv.init_vpid();
    dv.vee_mut().spawn(Some(init), "app-a").unwrap();
    dv.vee_mut().spawn(Some(init), "app-b").unwrap();
    dv.driver_mut().fill_rect(Rect::new(0, 0, 1024, 768), 7);
    dv.clock().advance(Duration::from_secs(1));
    dv.policy_tick().unwrap();

    let sid = dv.take_me_back(dv.now()).unwrap();
    let session = dv.session(sid).unwrap();
    for vpid in [Vpid(1), Vpid(2), Vpid(3)] {
        let live = dv.vee().process(vpid).unwrap();
        let revived = session.vee.process(vpid).unwrap();
        assert_eq!(live.name, revived.name);
        assert_ne!(live.host_pid, revived.host_pid);
    }
}

#[test]
fn workload_runs_are_deterministic() {
    // The whole stack is driven by the virtual clock and seeded RNGs:
    // two runs of the same scenario must produce byte-identical records
    // and identical policy decisions.
    let run = || {
        let mut dv = DejaView::with_clock(Config::default(), dv_time::SimClock::new());
        let mut scenario = dv_workloads::UntarScenario::new(0.05);
        run_scenario(
            &mut dv,
            &mut scenario,
            RunOptions {
                checkpoints: CheckpointMode::Policy,
                ..RunOptions::default()
            },
        );
        let record = dv.record();
        let store = record.read();
        let log_bytes = store.log.as_bytes().to_vec();
        let index_stats = dv.index().lock().stats();
        (
            log_bytes,
            store.shots.len(),
            dv.policy_stats().checkpoints,
            index_stats.instances,
            index_stats.postings,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "command logs must be byte-identical");
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
    assert_eq!(a.3, b.3);
    assert_eq!(a.4, b.4);
}

#[test]
fn full_stack_archive_after_workload() {
    // Archive a recorded workload, reopen, and revive from the middle.
    let mut dv = DejaView::new(Config::default());
    let mut scenario = MakeScenario::new(0.1); // 20 units.
    run_scenario(&mut dv, &mut scenario, RunOptions::default());
    let counters: Vec<u64> = dv.engine().images().map(|m| m.counter).collect();
    let archive = dv.save_archive().unwrap();
    drop(dv);

    let mut restored = DejaView::load_archive(Config::default(), &archive).unwrap();
    let mid = counters[counters.len() / 2];
    let sid = restored.revive_counter(mid).unwrap();
    let session = restored.session(sid).unwrap();
    assert!(session.vee.processes().any(|p| p.name == "make"));
    assert!(session.vee.fs.exists("/usr/src/build/unit_1.o"));
    // And searching the archived terminal output works.
    let results = restored.search("\"CC kernel\"", RankOrder::Chronological);
    assert!(!results.unwrap().is_empty());
}

/// Paper-scale soak: one hour of desktop usage under the policy, with
/// search, browse and revive afterwards. Slow; run explicitly with
/// `cargo test --release -- --ignored`.
#[test]
#[ignore = "paper-scale soak test (~minutes)"]
fn desktop_hour_soak() {
    let mut dv = DejaView::with_clock(
        Config {
            width: 1280,
            height: 1024,
            ..Config::default()
        },
        dv_time::SimClock::new(),
    );
    let mut scenario = dv_workloads::DesktopScenario::new(1.0); // 1 hour.
    let summary = run_scenario(
        &mut dv,
        &mut scenario,
        RunOptions {
            checkpoints: CheckpointMode::Policy,
            ..RunOptions::default()
        },
    );
    assert_eq!(summary.steps, 3_600);
    let stats = dv.policy_stats();
    let frac = stats.checkpoints as f64 / stats.total() as f64;
    assert!((0.15..0.30).contains(&frac), "checkpoint fraction {frac}");
    // Everything still works after an hour of recording.
    let results = dv.search("meeting OR deadline OR report", RankOrder::Chronological);
    assert!(results.is_ok());
    let shot = dv.browse(Timestamp::from_secs(1_800)).unwrap();
    assert_eq!(shot.width, 1280);
    let sid = dv.take_me_back(Timestamp::from_secs(3_000)).unwrap();
    assert!(dv.session(sid).unwrap().report.processes >= 5);
}
