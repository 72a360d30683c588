//! PVR controls over a recorded session: pause/seek, fast forward,
//! rewind, rate-scaled play, and a result interval's first and last
//! screens (§4.3, §4.4).
//!
//! Drives the `cat` workload to build a display-intensive record, then
//! exercises every time-shifting operation the paper describes.
//!
//! Run with: `cargo run --example pvr_playback`

use dejaview::{Config, DejaView};
use dv_record::{PlaybackEngine, RecorderConfig};
use dv_time::{Duration, Timestamp};
use dv_workloads::{run_scenario, CatScenario, RunOptions};

fn main() {
    // Keyframe every second so fast-forward has frames to walk.
    let mut dv = DejaView::new(Config {
        recorder: RecorderConfig {
            keyframe_interval: Duration::from_secs(1),
            keyframe_min_change: 0.0,
            ..RecorderConfig::default()
        },
        ..Config::default()
    });

    // Record several virtual seconds of a terminal dumping a log file.
    let mut scenario = CatScenario::new(0.5);
    let summary = run_scenario(&mut dv, &mut scenario, RunOptions::default());
    println!(
        "recorded {} steps over {} of virtual time ({} checkpoints)",
        summary.steps, summary.virtual_elapsed, summary.checkpoints
    );

    let record = dv.record();
    let (duration, commands) = {
        let store = record.read();
        (store.duration(), store.log.len())
    };
    println!("display record: {commands} commands spanning {duration}");

    // --- Skip (the slider): binary search + bounded replay. ------------
    let mut engine = PlaybackEngine::new(record.clone());
    let mid = Timestamp::ZERO + duration.scale(0.5);
    let stats = engine.seek(mid).unwrap();
    println!(
        "seek to {mid}: applied {} commands ({} pruned as overwritten)",
        stats.commands_applied, stats.commands_pruned
    );

    // --- Play at 2x: inter-command delays are halved. -------------------
    let mut slept = Duration::ZERO;
    let end = Timestamp::ZERO + duration;
    engine
        .play_realtime_until(end, 2.0, None, |gap| slept += gap)
        .unwrap();
    println!(
        "2x playback of the second half would sleep {} (recorded span {})",
        slept,
        duration.scale(0.5)
    );

    // --- Fastest-possible playback (the Figure 6 measurement). ----------
    let mut engine = PlaybackEngine::new(record.clone());
    engine.seek(Timestamp::ZERO).unwrap();
    let started = std::time::Instant::now();
    engine.play_until(end, None).unwrap();
    let wall = started.elapsed();
    let speedup = duration.as_secs_f64() / wall.as_secs_f64();
    println!("fastest playback: {wall:?} wall for {duration} recorded = {speedup:.0}x real time");

    // --- Fast forward and rewind walk the keyframes. --------------------
    let mut engine = PlaybackEngine::new(record.clone());
    engine.seek(Timestamp::ZERO).unwrap();
    let ff = engine.fast_forward(end, None).unwrap();
    println!(
        "fast forward presented {} keyframes then {} commands",
        ff.keyframes_presented, ff.commands_applied
    );
    let rw = engine.rewind(mid, None).unwrap();
    println!(
        "rewind presented {} keyframes back to {mid}",
        rw.keyframes_presented
    );

    // --- A result interval's first and last screens: two seeks. --------
    let mut engine = PlaybackEngine::new(record);
    engine.seek(mid).unwrap();
    let first = engine.screenshot();
    engine.seek(end).unwrap();
    let last = engine.screenshot();
    println!(
        "interval [{mid} .. {end}]: first/last screenshots {} / {}",
        first.content_hash(),
        last.content_hash()
    );
    assert_ne!(first.content_hash(), last.content_hash());
}
