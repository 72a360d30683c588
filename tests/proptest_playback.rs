//! Property tests for display recording and playback.
//!
//! The core invariant of §4.1/§4.3: replaying the record — nearest
//! keyframe plus subsequent commands, with overwrite pruning — must
//! reproduce exactly the screen that applying the full command stream
//! from the start produces, for arbitrary command sequences and
//! arbitrary target times.

use std::sync::Arc;

use proptest::prelude::*;

use dejaview::{Config, DejaView};
use dv_access::Role;
use dv_display::{
    decode_command, encode_command_vec, peek_command, CodecError, CommandQueue, CommandSink,
    DisplayCommand, Framebuffer, Pattern, Rect, ScaleFactor, Screenshot, VirtualDisplayDriver,
    VirtualOutput, YuvFrame, HEADER_LEN,
};
use dv_fault::{sites, FaultPlan, IoFault};
use dv_index::RankOrder;
use dv_obs::{names, Obs};
use dv_record::{CommandLog, DisplayRecorder, PlaybackEngine, PlaybackError, RecorderConfig};
use dv_time::{Duration, SimClock, Timestamp};

const W: u32 = 48;
const H: u32 = 48;

fn arb_rect() -> impl Strategy<Value = Rect> {
    (0..W, 0..H, 1..W, 1..H).prop_map(|(x, y, w, h)| Rect::new(x, y, w, h))
}

fn arb_command() -> impl Strategy<Value = DisplayCommand> {
    prop_oneof![
        (arb_rect(), any::<u32>())
            .prop_map(|(rect, color)| DisplayCommand::SolidFill { rect, color }),
        (arb_rect(), any::<u64>(), any::<u32>(), any::<u32>()).prop_map(|(rect, bits, fg, bg)| {
            DisplayCommand::PatternFill {
                rect,
                pattern: Pattern { bits, fg, bg },
            }
        }),
        // Sources overlap their destination, hang over the screen edge
        // and lie wholly off screen.
        (arb_rect(), 0..W + 8, 0..H + 8)
            .prop_map(|(rect, src_x, src_y)| { DisplayCommand::CopyArea { src_x, src_y, rect } }),
        (arb_rect(), any::<u32>()).prop_map(|(rect, seed)| {
            let pixels: Vec<u32> = (0..rect.area())
                .map(|i| (i as u32).wrapping_mul(seed | 1))
                .collect();
            DisplayCommand::Raw {
                rect,
                pixels: Arc::new(pixels),
            }
        }),
        (arb_rect(), any::<u32>(), any::<u32>(), any::<u8>()).prop_map(|(rect, fg, bg, seed)| {
            let stride = (rect.w as usize).div_ceil(8);
            let bits: Vec<u8> = (0..stride * rect.h as usize)
                .map(|i| (i as u8).wrapping_mul(seed | 1))
                .collect();
            DisplayCommand::Glyph {
                rect,
                bits: Arc::new(bits),
                fg,
                bg,
            }
        }),
        (arb_rect(), 1..16u32, 1..16u32, any::<u8>()).prop_map(|(rect, fw, fh, seed)| {
            let luma: Vec<u8> = (0..(fw * fh) as usize)
                .map(|i| (i as u8).wrapping_add(seed))
                .collect();
            DisplayCommand::Video {
                rect,
                frame: Arc::new(YuvFrame::from_luma(fw, fh, luma)),
            }
        }),
    ]
}

/// The bytes of a command whose payload length is the one its tag, its
/// rectangle and (for video) its frame size call for, over degenerate
/// geometry: rectangles and frames with a side of zero, one or two.
fn arb_framed_bytes() -> impl Strategy<Value = Vec<u8>> {
    (
        1..=6u8,
        (0..3u32, 0..3u32, 0..3u32, 0..3u32),
        (0..3u32, 0..3u32),
        any::<u8>(),
    )
        .prop_map(|(tag, (x, y, w, h), (fw, fh), fill)| {
            let payload_len = match tag {
                1 => 4 * w * h,
                2 => 8,
                3 => 4,
                4 => 16,
                5 => 8 + w.div_ceil(8) * h,
                _ => 8 + fw * fh + 2 * fw.div_ceil(2) * fh.div_ceil(2),
            };
            let mut bytes = vec![tag];
            for field in [x, y, w, h, payload_len] {
                bytes.extend_from_slice(&field.to_le_bytes());
            }
            let mut payload = vec![fill; payload_len as usize];
            if tag == 6 {
                payload[..4].copy_from_slice(&fw.to_le_bytes());
                payload[4..8].copy_from_slice(&fh.to_le_bytes());
            }
            bytes.extend_from_slice(&payload);
            bytes
        })
}

/// One step of a session in which a recorder and one long-lived playback
/// engine take turns. Read targets are per-mille of the time recorded so
/// far.
#[derive(Clone, Debug)]
enum Step {
    /// Submits `count` commands `advance_ms` after the previous batch —
    /// zero keeps the timestamp the engine may already have reached —
    /// then takes a keyframe if asked.
    Record {
        count: usize,
        advance_ms: u64,
        keyframe: bool,
    },
    Seek(u64),
    PlayUntil(u64),
    FastForward(u64),
    Rewind(u64),
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => (1..6usize, prop_oneof![Just(0u64), 1..300u64], any::<bool>()).prop_map(
            |(count, advance_ms, keyframe)| Step::Record { count, advance_ms, keyframe }
        ),
        3 => (0..=1000u64).prop_map(Step::Seek),
        1 => (0..=1000u64).prop_map(Step::PlayUntil),
        1 => (0..=1000u64).prop_map(Step::FastForward),
        1 => (0..=1000u64).prop_map(Step::Rewind),
    ]
}

/// The screen after applying, unpruned and from black, every submitted
/// command stamped at or before `t`.
fn linear_replay(submitted: &[(Timestamp, DisplayCommand)], t: Timestamp) -> Framebuffer {
    let mut fb = Framebuffer::new(W, H);
    for (_, cmd) in submitted.iter().filter(|(at, _)| *at <= t) {
        fb.apply(cmd);
    }
    fb
}

/// A terminal's log in region `t`, 20 ms a command: per entry of
/// `lines`, by kind, a line printed (a scroll up by `line` rows, a fill
/// and a glyph row at the bottom), a burst that jumps several lines at
/// once, a reverse scroll that opens a line at the top, or a fill that
/// lies partly in the region.
fn terminal_log(t: Rect, line: u32, lines: &[(u32, u32)]) -> Vec<(Timestamp, DisplayCommand)> {
    let mut cmds = Vec::new();
    let scroll = |src_y: u32, y: u32, d: u32| DisplayCommand::CopyArea {
        src_x: t.x,
        src_y,
        rect: Rect::new(t.x, y, t.w, t.h - d),
    };
    for &(kind, color) in lines {
        match kind {
            0..=4 => {
                let bottom = Rect::new(t.x, t.bottom() - line, t.w, line);
                cmds.push(scroll(t.y + line, t.y, line));
                cmds.push(DisplayCommand::SolidFill {
                    rect: bottom,
                    color,
                });
                let bits = (0..t.w.div_ceil(8) * line).map(|i| (color >> (i % 4 * 8)) as u8);
                cmds.push(DisplayCommand::Glyph {
                    rect: Rect::new(t.x, bottom.y, t.w, line),
                    bits: Arc::new(bits.collect()),
                    fg: color,
                    bg: !color,
                });
            }
            5 => {
                let jump = (2 + color % 8) * line;
                if jump < t.h {
                    cmds.push(scroll(t.y + jump, t.y, jump));
                }
                let rect = Rect::new(t.x, t.bottom() - jump.min(t.h), t.w, jump.min(t.h));
                cmds.push(DisplayCommand::SolidFill { rect, color });
            }
            6 => {
                cmds.push(scroll(t.y, t.y + line, line));
                let rect = Rect::new(t.x, t.y, t.w, line);
                cmds.push(DisplayCommand::SolidFill { rect, color });
            }
            _ => {
                let rect = Rect::new(t.x + t.w / 2, t.y + color % t.h, 24, 6);
                cmds.push(DisplayCommand::SolidFill { rect, color });
            }
        }
    }
    cmds.into_iter()
        .enumerate()
        .map(|(i, cmd)| (Timestamp::from_millis(i as u64 * 20), cmd))
        .collect()
}

/// Asserts that `shot` still holds the pixels it was taken with.
fn assert_isolated(shot: &Screenshot, before: &[u32], what: &str) {
    assert!(
        shot.pixels.as_slice() == before,
        "{what}: a screenshot changed after it was taken"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One long-lived engine, driven through any interleaving of seeks,
    /// plays, fast-forwards and rewinds while the recorder keeps
    /// appending (also at the timestamp the engine stands on) and taking
    /// keyframes, always shows what unpruned linear replay and a fresh
    /// engine's seek show.
    #[test]
    fn long_lived_engine_equals_linear_replay(
        cmds in prop::collection::vec(arb_command(), 8..80),
        steps in prop::collection::vec(arb_step(), 4..40),
    ) {
        let config = RecorderConfig {
            keyframe_interval: Duration::from_millis(400),
            keyframe_min_change: 0.0,
            ..RecorderConfig::default()
        };
        let mut recorder = DisplayRecorder::new(W, H, config);
        let mut engine = PlaybackEngine::new(recorder.record());
        let mut pool = cmds.iter().cycle();
        let mut submitted: Vec<(Timestamp, DisplayCommand)> = Vec::new();
        let mut now_ms = 0u64;
        // Where the engine's framebuffer stands, once it stands anywhere.
        let mut position = Timestamp::ZERO;
        for step in &steps {
            let target = |permille: u64| Timestamp::from_millis(now_ms * permille / 1000);
            let (outcome, expected) = match *step {
                Step::Record { count, advance_ms, keyframe } => {
                    now_ms += advance_ms;
                    let now = Timestamp::from_millis(now_ms);
                    for cmd in pool.by_ref().take(count) {
                        recorder.submit(now, cmd);
                        submitted.push((now, cmd.clone()));
                    }
                    if keyframe {
                        recorder.force_keyframe(now);
                    }
                    continue;
                }
                Step::Seek(p) => (engine.seek(target(p)), target(p)),
                Step::Rewind(p) => (engine.rewind(target(p), None), target(p)),
                // Playing forward to a time the engine has passed is a
                // no-op that would leave it behind same-timestamp
                // appends, so these two aim at or after its position.
                Step::PlayUntil(p) => {
                    let t = target(p).max(position);
                    (engine.play_until(t, None), t)
                }
                Step::FastForward(p) => {
                    let t = target(p).max(position);
                    (engine.fast_forward(t, None), t)
                }
            };
            let first = submitted.first().map(|(at, _)| *at);
            match outcome {
                Ok(_) => position = expected,
                Err(PlaybackError::EmptyRecord) => {
                    prop_assert!(first.is_none());
                    continue;
                }
                Err(PlaybackError::BeforeRecord) => {
                    prop_assert!(first.is_some_and(|first| expected < first));
                    continue;
                }
                Err(PlaybackError::Corrupt) => prop_assert!(false, "{:?} found the log corrupt", step),
            }
            prop_assert_eq!(engine.position(), position);
            prop_assert!(
                *engine.framebuffer() == linear_replay(&submitted, position),
                "after {:?} the engine at {:?} differs from linear replay", step, position
            );
            let mut fresh = PlaybackEngine::new(recorder.record());
            if fresh.seek(position).is_ok() {
                prop_assert!(
                    engine.framebuffer() == fresh.framebuffer(),
                    "after {:?} the engine at {:?} differs from a fresh seek", step, position
                );
            }
        }
    }

    /// The header peek and the full decode agree on everything pruning
    /// reads, and on where the command ends.
    #[test]
    fn peek_agrees_with_decode(cmd in arb_command()) {
        let encoded = encode_command_vec(&cmd);
        let meta = peek_command(&encoded).expect("peek");
        // Rect, opacity, read area and length in one comparison.
        prop_assert_eq!(meta, cmd.meta());
        let mut slice = encoded.as_slice();
        decode_command(&mut slice).expect("decode");
        prop_assert_eq!(meta.len, encoded.len() - slice.len());
        // Trailing bytes belong to the next command.
        let mut two = encoded.clone();
        two.extend_from_slice(&encoded);
        prop_assert_eq!(peek_command(&two), Ok(meta));
        // Every truncation, in the header or the payload.
        for cut in 0..encoded.len() {
            prop_assert_eq!(peek_command(&encoded[..cut]), Err(CodecError::UnexpectedEof));
        }
        // Unknown tags.
        for tag in [0u8, 7, 0x80, 0xFF] {
            let mut bad = encoded.clone();
            bad[0] = tag;
            prop_assert_eq!(peek_command(&bad), Err(CodecError::BadTag(tag)));
        }
        // A payload length that overruns the buffer, or that the buffer
        // covers but the command's rectangle does not allow.
        for claimed in [encoded.len() as u32 - HEADER_LEN as u32 + 1, u32::MAX] {
            let mut bad = two.clone();
            bad[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&claimed.to_le_bytes());
            let peeked = peek_command(&bad);
            prop_assert!(peeked.is_err(), "claimed {} peeked as {:?}", claimed, peeked);
            prop_assert_eq!(peeked.err(), decode_command(&mut bad.as_slice()).err());
        }
    }

    /// Neither reader panics on arbitrary bytes, the peek accepts
    /// exactly what the decoder accepts, and whatever decodes also
    /// applies without panicking.
    #[test]
    fn peek_never_panics_on_arbitrary_bytes(
        tag in 0..9u8,
        dims in prop::collection::vec(prop_oneof![0..4u32, any::<u32>()], 5),
        tail in prop::collection::vec(any::<u8>(), 0..80),
        framed in arb_framed_bytes(),
    ) {
        let mut bytes = vec![tag];
        for field in &dims {
            bytes.extend_from_slice(&field.to_le_bytes());
        }
        bytes.extend_from_slice(&tail);
        // With the drawn header in front, as pure noise, and as a
        // command that is well framed but degenerate.
        for buf in [bytes.as_slice(), tail.as_slice(), framed.as_slice()] {
            let peeked = peek_command(buf);
            let mut rest = buf;
            let decoded = decode_command(&mut rest);
            match (peeked, decoded) {
                (Ok(meta), Ok(cmd)) => {
                    prop_assert_eq!(meta, cmd.meta());
                    prop_assert_eq!(meta.len, buf.len() - rest.len());
                    let mut fb = Framebuffer::new(W, H);
                    fb.apply(&cmd);
                    // The same bytes as a stored log entry and as a
                    // live command on the way to a headless screen.
                    let mut entry = 7u64.to_le_bytes().to_vec();
                    entry.extend_from_slice(&buf[..meta.len]);
                    let log = CommandLog::from_bytes(entry).expect("a one-entry log");
                    let (_, logged, _) = log.read_at(0).expect("read").expect("entry");
                    prop_assert_eq!(&logged, &cmd);
                    let black = Framebuffer::new(W, H).snapshot();
                    let mut output = VirtualOutput::new(ScaleFactor::ONE, &black);
                    output.apply(&logged);
                    prop_assert_eq!(output.snapshot(), fb.snapshot());
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => prop_assert!(false, "peek {:?} but decode {:?}", a, b.map(|c| c.meta())),
            }
        }
    }

    /// Copy-on-write isolation: a screenshot shares the framebuffer's
    /// pixels, yet no later command shows through it — for the driver,
    /// a framebuffer, a virtual output and the playback engine, also when
    /// the engine is handed back the frame a screenshot still holds.
    #[test]
    fn screenshots_are_isolated_from_later_commands(
        first in arb_command(),
        second in arb_command(),
    ) {
        let mut reference = Framebuffer::new(W, H);
        reference.apply(&first);
        let before = reference.snapshot().pixels.as_ref().clone();
        reference.apply(&second);
        let after = reference.snapshot();

        let mut driver = VirtualDisplayDriver::new(W, H, SimClock::new().shared());
        driver.submit(first.clone());
        let shot = driver.snapshot();
        driver.submit(second.clone());
        assert_isolated(&shot, &before, "driver");
        prop_assert_eq!(driver.snapshot(), after.clone());

        let mut fb = Framebuffer::new(W, H);
        fb.apply(&first);
        let shot = fb.snapshot();
        fb.apply(&second);
        assert_isolated(&shot, &before, "framebuffer");
        prop_assert_eq!(fb.snapshot(), after.clone());
        // A framebuffer opened on a screenshot shares it too.
        let mut fb = Framebuffer::from_screenshot(&shot);
        fb.apply(&second);
        assert_isolated(&shot, &before, "framebuffer opened on a screenshot");
        prop_assert_eq!(fb.snapshot(), after.clone());

        let seed = Screenshot { width: W, height: H, pixels: Arc::new(before.clone()) };
        let mut output = VirtualOutput::new(ScaleFactor::ONE, &seed);
        let shot = output.snapshot();
        output.apply(&second);
        assert_isolated(&seed, &before, "output seed");
        assert_isolated(&shot, &before, "output");
        prop_assert_eq!(output.snapshot(), after.clone());

        let mut recorder = DisplayRecorder::new(W, H, RecorderConfig::default());
        recorder.submit(Timestamp::from_millis(1), &first);
        recorder.submit(Timestamp::from_millis(2), &second);
        let mut engine = PlaybackEngine::new(recorder.record());
        engine.seek(Timestamp::from_millis(1)).expect("seek");
        let shot = engine.screenshot();
        engine.seek(Timestamp::from_millis(2)).expect("resumed seek");
        assert_isolated(&shot, &before, "playback seek");
        prop_assert_eq!(engine.screenshot(), after.clone());
        engine.seek(Timestamp::from_millis(1)).expect("seek back");
        let shot = engine.screenshot();
        engine.play_until(Timestamp::from_millis(2), None).expect("play");
        assert_isolated(&shot, &before, "playback play");
        prop_assert_eq!(engine.screenshot(), after.clone());
        // A frame handed back while a screenshot still holds it is not
        // taken: neither a resumed seek nor one from the keyframe writes
        // into it.
        engine.seek(Timestamp::from_millis(1)).expect("seek back");
        let shot = engine.screenshot();
        engine.recycle(shot.clone());
        engine.seek(Timestamp::from_millis(2)).expect("resumed seek");
        assert_isolated(&shot, &before, "playback seek, frame handed back");
        let at_two = engine.screenshot();
        engine.recycle(at_two.clone());
        engine.seek(Timestamp::from_millis(1)).expect("seek back");
        assert_isolated(&at_two, after.pixels.as_slice(), "playback seek back, frame handed back");
        let back = engine.screenshot();
        prop_assert_eq!(back.pixels.as_slice(), before.as_slice());
    }

    /// A seek copies from its base only what its replay does not paint
    /// over first, and shows the same screen whatever frame it writes:
    /// the engine's own stale one; a handed-back one full of garbage,
    /// because a screenshot still holds the engine's; or — held, with
    /// nothing handed back — the copy-on-write copy of the whole base.
    /// Screen widths mostly not a multiple of 16 or 64 pixels, so
    /// rectangles are clipped at the edge or stop short of it; keyframe
    /// seeks and resumed ones, in any order. Records of up to 40
    /// keyframes, more than the engine caches: once its cache is full,
    /// a keyframe it does not hold is decoded straight into the frame —
    /// the engine's own, the handed-back one, or a new one while a
    /// screenshot holds the frame. No held screenshot changes, and a
    /// screenshot handed back while held is not taken.
    #[test]
    fn seeks_equal_linear_replay_whatever_frame_they_write(
        size in (17..=90u32, 9..=60u32),
        cmds in prop::collection::vec(arb_command(), 1..120),
        probes in prop::collection::vec(0..=1000u64, 20..48),
        noise in any::<u32>(),
    ) {
        let (width, height) = size;
        let config = RecorderConfig {
            keyframe_interval: Duration::from_millis(100),
            keyframe_min_change: 0.0,
            ..RecorderConfig::default()
        };
        let mut recorder = DisplayRecorder::new(width, height, config);
        let stamped: Vec<(Timestamp, &DisplayCommand)> = cmds
            .iter()
            .enumerate()
            .map(|(i, cmd)| (Timestamp::from_millis(i as u64 * 40), cmd))
            .collect();
        for &(at, cmd) in &stamped {
            recorder.submit(at, cmd);
        }
        let linear = |t: Timestamp| {
            let mut fb = Framebuffer::new(width, height);
            for (_, cmd) in stamped.iter().filter(|(at, _)| *at <= t) {
                fb.apply(cmd);
            }
            fb.snapshot()
        };
        let garbage = || Screenshot {
            width,
            height,
            pixels: Arc::new((0..width * height).map(|i| i.wrapping_mul(noise | 1)).collect()),
        };
        let end_ms = stamped.last().expect("a command").0.as_millis();
        let mut own = PlaybackEngine::new(recorder.record());
        let mut handed = PlaybackEngine::new(recorder.record());
        let mut held = PlaybackEngine::new(recorder.record());
        let mut holds = Vec::new();
        for &p in &probes {
            let t = Timestamp::from_millis(end_ms * p / 1000);
            let want = linear(t);
            handed.recycle(garbage());
            for (what, engine) in [("own", &mut own), ("handed-back", &mut handed), ("held", &mut held)] {
                engine.seek(t).expect("seek");
                prop_assert!(
                    engine.screenshot() == want,
                    "the {} frame differs at {:?} on a {}x{} screen", what, t, width, height
                );
            }
            // The two held frames stay held: their next seek must write
            // elsewhere. One is also handed back, which must not take it.
            let shot = handed.screenshot();
            handed.recycle(shot.clone());
            holds.push((shot, want.clone()));
            holds.push((held.screenshot(), want));
        }
        for (shot, want) in &holds {
            prop_assert!(shot == want, "a held screenshot changed");
        }
    }

    /// On a terminal-shaped log — a region scrolled a line at a time,
    /// with bursts past half its height, reverse scrolls, and draws
    /// partly in it — keyframe seeks, resumed seeks, seeks while a
    /// screenshot holds the frame, `play_until` in slices,
    /// `fast_forward` and `rewind` all show what linear replay shows,
    /// every command is played, and no held screenshot changes.
    #[test]
    fn terminal_scroll_log_plays_as_linear_replay(
        term in (0..12u32, 0..12u32, 8..=64u32, 2..=6u32, 2..=12u32),
        lines in prop::collection::vec((0..8u32, any::<u32>()), 4..120),
        probes in prop::collection::vec(0..=1000u64, 1..6),
        slices in 1..8u64,
    ) {
        const SIDE: u32 = 64;
        let (x, y, w, line, rows) = term;
        let rows = rows.min((SIDE - y) / line).max(2);
        let t = Rect::new(x, y, w.min(SIDE - x), rows * line);
        let log = terminal_log(t, line, &lines);
        let config = RecorderConfig {
            keyframe_interval: Duration::from_millis(300),
            keyframe_min_change: 0.0,
            ..RecorderConfig::default()
        };
        let mut recorder = DisplayRecorder::new(SIDE, SIDE, config);
        for (at, cmd) in &log {
            recorder.submit(*at, cmd);
        }
        recorder.flush();
        let linear = |t: Timestamp| {
            let mut fb = Framebuffer::new(SIDE, SIDE);
            for (_, cmd) in log.iter().filter(|(at, _)| *at <= t) {
                fb.apply(cmd);
            }
            fb.snapshot()
        };
        let end = log.last().expect("a command").0;
        let mut targets: Vec<Timestamp> = probes
            .iter()
            .map(|p| Timestamp::from_millis(end.as_millis() * p / 1000))
            .collect();
        let engine = || PlaybackEngine::new(recorder.record());

        let obs = Obs::sim();
        let mut sliced = engine().with_obs(obs.clone());
        let mut played = 0;
        for k in 1..=slices {
            let until = Timestamp::from_millis(end.as_millis() * k / slices);
            played += sliced.play_until(until, None).expect("play").commands_applied;
            prop_assert!(sliced.screenshot() == linear(until), "slice {} of {}", k, slices);
        }
        prop_assert_eq!(played, log.len() as u64);
        prop_assert_eq!(obs.counter(names::RECORD_PLAYBACK_COMMANDS), played);
        if lines.iter().any(|&(kind, _)| kind <= 4 || kind == 6) {
            prop_assert!(obs.counter(names::RECORD_REPLAY_COPY_ROWS) > 0, "no scroll went round the ring");
        }

        let mut holds = Vec::new();
        let mut held = engine();
        for &t in &targets {
            let mut fresh = engine();
            fresh.seek(t).expect("keyframe seek");
            prop_assert!(fresh.screenshot() == linear(t), "keyframe seek to {:?}", t);
            held.seek(t).expect("held seek");
            prop_assert!(held.screenshot() == linear(t), "held seek to {:?}", t);
            holds.push((held.screenshot(), linear(t)));
            let mut back = engine();
            back.seek(end).expect("seek");
            back.rewind(t, None).expect("rewind");
            prop_assert!(back.screenshot() == linear(t), "rewind to {:?}", t);
        }
        targets.sort();
        let (mut resumed, mut forward) = (engine(), engine());
        forward.seek(Timestamp::ZERO).expect("seek");
        for &t in &targets {
            resumed.seek(t).expect("resumed seek");
            prop_assert!(resumed.screenshot() == linear(t), "resumed seek to {:?}", t);
            forward.fast_forward(t, None).expect("fast forward");
            prop_assert!(forward.screenshot() == linear(t), "fast forward to {:?}", t);
        }
        for (shot, want) in &holds {
            prop_assert!(shot == want, "a held screenshot changed");
        }
    }

    /// Round-trip through the wire codec is lossless for every command
    /// shape.
    #[test]
    fn codec_round_trips(cmd in arb_command()) {
        let encoded = encode_command_vec(&cmd);
        prop_assert_eq!(encoded.len(), cmd.wire_size());
        let mut slice = encoded.as_slice();
        let decoded = decode_command(&mut slice).expect("decode");
        prop_assert_eq!(decoded, cmd);
        prop_assert!(slice.is_empty());
    }

    /// Seeking to any time reproduces the exact framebuffer that a full
    /// linear replay produces.
    #[test]
    fn seek_equals_linear_replay(
        cmds in prop::collection::vec(arb_command(), 1..60),
        probe_denominator in 1..20u64,
    ) {
        // Record with keyframes forced at a short interval so seeks
        // exercise the keyframe + tail-replay path.
        let config = RecorderConfig {
            keyframe_interval: Duration::from_millis(200),
            keyframe_min_change: 0.0,
            ..RecorderConfig::default()
        };
        let mut recorder = DisplayRecorder::new(W, H, config);
        let mut reference = Framebuffer::new(W, H);
        let total = cmds.len() as u64;
        for (i, cmd) in cmds.iter().enumerate() {
            let ts = Timestamp::from_millis(i as u64 * 100);
            dv_display::CommandSink::submit(&mut recorder, ts, cmd);
        }
        // Reference state at the probe time.
        let probe_ms = (total * 100).saturating_sub(1) * probe_denominator / 20;
        let probe = Timestamp::from_millis(probe_ms);
        for (i, cmd) in cmds.iter().enumerate() {
            if Timestamp::from_millis(i as u64 * 100) <= probe {
                reference.apply(cmd);
            }
        }
        let mut engine = PlaybackEngine::new(recorder.record());
        engine.seek(probe).expect("seek");
        prop_assert_eq!(
            engine.screenshot().content_hash(),
            reference.snapshot().content_hash(),
            "divergence at probe {}ms of {} commands", probe_ms, total
        );
    }

    /// Every keyframe a recorder stores — its framebuffer caught up by
    /// the pruned replay — is byte for byte the screen that applying its
    /// log linearly, from black up to the keyframe's command offset,
    /// shows: with copies reading areas later overwritten, bursts merged
    /// by a flush interval, keyframes forced at arbitrary points and a
    /// flush lost to an injected `record.log.append` fault.
    #[test]
    fn recorder_keyframes_equal_linear_replay_of_its_log(
        cmds in prop::collection::vec(arb_command(), 8..80),
        batches in prop::collection::vec((1..8usize, 0..120u64, any::<bool>()), 2..24),
        flush_ms in prop_oneof![Just(0u64), 20..200u64],
        dropped_flush in 0..12u64,
    ) {
        let config = RecorderConfig {
            flush_interval: Duration::from_millis(flush_ms),
            keyframe_interval: Duration::from_millis(150),
            keyframe_min_change: 0.0,
            ..RecorderConfig::default()
        };
        let mut recorder = DisplayRecorder::new(W, H, config);
        if dropped_flush > 0 {
            recorder.set_fault_plane(
                FaultPlan::new(dropped_flush)
                    .fail_nth(sites::RECORD_LOG_APPEND, dropped_flush, IoFault::Enospc)
                    .build(),
            );
        }
        let mut pool = cmds.iter().cycle();
        let mut now_ms = 0u64;
        for &(count, advance_ms, keyframe) in &batches {
            now_ms += advance_ms;
            let now = Timestamp::from_millis(now_ms);
            for cmd in pool.by_ref().take(count) {
                recorder.submit(now, cmd);
            }
            if keyframe {
                recorder.force_keyframe(now);
            }
        }
        recorder.force_keyframe(Timestamp::from_millis(now_ms + 1));

        let record = recorder.record();
        let store = record.read();
        let mut linear = Framebuffer::new(W, H);
        let mut at = 0;
        for entry in store.timeline.entries() {
            while at < entry.command_offset {
                let (_, cmd, next) = store.log.read_at(at).expect("read").expect("entry");
                linear.apply(&cmd);
                at = next;
            }
            prop_assert_eq!(at, entry.command_offset);
            let stored = store.shots.load(entry.screenshot_offset).expect("keyframe");
            prop_assert!(
                stored == linear.snapshot(),
                "the keyframe at {:?} differs from linear replay of its log", entry.time
            );
        }
    }

    /// Merging a queue never changes the final screen contents.
    #[test]
    fn queue_merge_preserves_final_state(cmds in prop::collection::vec(arb_command(), 1..40)) {
        let mut direct = Framebuffer::new(W, H);
        for cmd in &cmds {
            direct.apply(cmd);
        }
        let mut queue = CommandQueue::new();
        for (i, cmd) in cmds.iter().enumerate() {
            queue.push(Timestamp::from_millis(i as u64), cmd.clone());
        }
        let mut merged = Framebuffer::new(W, H);
        for entry in queue.flush() {
            merged.apply(&entry.command);
        }
        prop_assert_eq!(direct.content_hash(), merged.content_hash());
    }

    /// Incremental play_until from any split point matches a single
    /// replay (pause/resume correctness).
    #[test]
    fn split_playback_equals_continuous(
        cmds in prop::collection::vec(arb_command(), 2..40),
        split_at in 0..40usize,
    ) {
        let mut recorder = DisplayRecorder::new(W, H, RecorderConfig::default());
        for (i, cmd) in cmds.iter().enumerate() {
            dv_display::CommandSink::submit(
                &mut recorder,
                Timestamp::from_millis(i as u64 * 10),
                cmd,
            );
        }
        let end = Timestamp::from_millis(cmds.len() as u64 * 10);
        let split = Timestamp::from_millis((split_at % cmds.len()) as u64 * 10);

        let mut continuous = PlaybackEngine::new(recorder.record());
        continuous.seek(Timestamp::ZERO).expect("seek");
        continuous.play_until(end, None).expect("play");

        let mut paused = PlaybackEngine::new(recorder.record());
        paused.seek(Timestamp::ZERO).expect("seek");
        paused.play_until(split, None).expect("first half");
        paused.play_until(end, None).expect("second half");

        prop_assert_eq!(
            continuous.screenshot().content_hash(),
            paused.screenshot().content_hash()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `search_query` rebuilds its portals in time order and hands them
    /// back in rank order: with more portals than the search cache
    /// holds and a rank order that is not chronological, every result
    /// still carries the screens a fresh engine reconstructs for it.
    /// Portals still held — by these results, or as the screen a
    /// revived session's viewer opened on — are never handed back to
    /// the engine or written: a second search and a revive that push
    /// them out of the cache leave them as they were.
    #[test]
    fn search_portals_match_per_hit_reconstruction(
        shown_secs in prop::collection::vec(1..9u64, 36..44),
        order in prop_oneof![
            Just(RankOrder::ReverseChronological),
            Just(RankOrder::PersistenceAscending),
        ],
    ) {
        let mut dv = DejaView::new(Config { width: W, height: H, ..Config::default() });
        let clock = dv.clock();
        let app = dv.desktop_mut().register_app("editor");
        let root = dv.desktop_mut().root(app).expect("root");
        let node = dv.desktop_mut().add_node(app, root, Role::Paragraph, "idle");
        dv.desktop_mut().focus(app);
        let mut checkpointed = Timestamp::ZERO;
        for (i, &secs) in shown_secs.iter().enumerate() {
            let i = i as u32;
            if i == 2 {
                dv.checkpoint_now().expect("checkpoint");
                checkpointed = dv.now();
            }
            clock.advance(Duration::from_secs(1));
            dv.desktop_mut().set_text(app, node, &format!("needle number{i}"));
            dv.driver_mut().fill_rect(Rect::new(i % W, 0, 1, H), 0x10_0000 + i);
            // Something changes while the text stays up, so a
            // substream's last screen differs from its first.
            clock.advance(Duration::from_secs(secs));
            dv.driver_mut().fill_rect(Rect::new(0, i % H, W, 1), 0x20_0000 + i);
            dv.desktop_mut().set_text(app, node, "idle");
        }
        clock.advance(Duration::from_secs(1));

        let query = dv_index::parse_query("needle").expect("query");
        let hits = dv.search_hits(&query, order).expect("hits");
        let revived = dv.take_me_back(checkpointed).expect("revive");
        let opened_on = dv.session(revived).expect("revived").screen.clone();
        let opened_pixels = opened_on.pixels.as_ref().clone();
        let results = dv.search_query(&query, order).expect("search");
        prop_assert_eq!(results.len(), shown_secs.len());
        prop_assert!(
            results.windows(2).any(|w| w[0].hit.time > w[1].hit.time),
            "{:?} ranked the hits chronologically", order
        );
        let portals: usize = results.iter().map(|r| 1 + r.last_screenshot.iter().count()).sum();
        prop_assert!(portals > Config::default().search_cache, "only {} portals", portals);
        let unheld: Vec<Vec<u32>> = results
            .iter()
            .map(|r| r.screenshot.pixels.as_ref().clone())
            .collect();
        let again = dv.search_query(&query, RankOrder::Chronological).expect("search again");
        prop_assert_eq!(again.len(), results.len());
        dv.close_session(revived).expect("close");
        let now = dv.now();
        dv.take_me_back(now).expect("revive again");
        prop_assert!(opened_on.pixels.as_slice() == opened_pixels.as_slice(), "the revived viewer's screen changed");
        for (result, pixels) in results.iter().zip(&unheld) {
            prop_assert!(result.screenshot.pixels.as_slice() == pixels.as_slice(), "a held portal changed");
        }

        let (start, end) = {
            let record = dv.record();
            let store = record.read();
            (store.start.expect("recorded"), store.end)
        };
        let rebuilt = |t: Timestamp| {
            let mut engine = dv.playback();
            engine.seek(t.max(start).min(end)).expect("seek");
            engine.screenshot()
        };
        for (result, hit) in results.iter().zip(&hits) {
            prop_assert_eq!((result.hit.time, result.hit.until), (hit.time, hit.until));
            prop_assert!(result.screenshot == rebuilt(hit.time), "first screen of {:?}", hit);
            let substream = hit.persistence >= Duration::from_secs(5);
            prop_assert_eq!(result.last_screenshot.is_some(), substream);
            if let Some(last) = &result.last_screenshot {
                prop_assert!(*last == rebuilt(hit.until), "last screen of {:?}", hit);
            }
        }
    }
}
