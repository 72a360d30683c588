//! Component micro-benchmarks: the hot paths under each figure, each
//! timed alone as the least of its rounds on a warmed core. Report-only:
//! absolute times hold on one machine, so nothing here is gated. The
//! CRC, `Raw` strip encode and snapshot-point kernels are timed, and
//! gated, by [`kernel_experiment`](crate::kernel_experiment) and
//! [`fs_snapshot_experiment`](crate::fs_snapshot_experiment).

use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use dv_checkpoint::{compress, decompress, Checkpointer, EngineConfig};
use dv_display::{
    decode_command, encode_command_vec, CommandSink, DisplayCommand, Framebuffer, Pattern, Rect,
    ScrollRing, YuvFrame,
};
use dv_index::{parse_query, IndexedInstance, RankOrder, TextIndex};
use dv_lsfs::{Filesystem, Lsfs, SharedBlobStore};
use dv_net::{decode_message, frame_message, FrameDecoder, LoopbackTransport, Message, Transport};
use dv_record::{decode_screenshot, encode_screenshot, DisplayRecorder, RecorderConfig};
use dv_time::{SimClock, Timestamp};
use dv_vee::{HostPidAllocator, Prot, Vee};

use crate::experiments::{least_of, timed};

/// One micro-benchmark's least time.
pub struct MicroRow {
    /// Component group.
    pub group: &'static str,
    /// What one round does.
    pub name: &'static str,
    /// Least time of one round.
    pub least: Duration,
}

/// A framebuffer of pixels that differ from their neighbours.
fn noise_fb(width: u32, height: u32) -> Framebuffer {
    let mut fb = Framebuffer::new(width, height);
    fb.apply(&DisplayCommand::Raw {
        rect: Rect::new(0, 0, width, height),
        pixels: Arc::new(
            (0..width * height)
                .map(|i| i.wrapping_mul(2_654_435_761))
                .collect(),
        ),
    });
    fb
}

/// A session of one process with 16 MiB written, and an engine over it
/// on a pool of its own.
fn process_16mb(config: EngineConfig) -> (Vee, Checkpointer, dv_vee::Vpid, u64) {
    let clock = SimClock::new();
    let fs = Box::new(Lsfs::new());
    let mut vee = Vee::new(1, clock.shared(), fs, HostPidAllocator::new());
    let p = vee.spawn(None, "app").unwrap();
    let addr = vee.mmap(p, 16 << 20, Prot::ReadWrite).unwrap();
    vee.mem_write(p, addr, &vec![3u8; 16 << 20]).unwrap();
    let pool = config.commit_pool(SharedBlobStore::in_memory(), &clock);
    let engine = Checkpointer::new(config, pool, clock);
    (vee, engine, p, addr)
}

/// The rows so far, and how many rounds each gets.
struct Rows {
    rounds: usize,
    rows: Vec<MicroRow>,
}

impl Rows {
    /// Adds the least of `round`'s times; each round returns what it
    /// timed.
    fn add(&mut self, group: &'static str, name: &'static str, round: impl FnMut() -> Duration) {
        let least = least_of(self.rounds, round);
        self.rows.push(MicroRow { group, name, least });
    }
}

/// Runs every micro-benchmark `64 * scale` rounds (at least eight).
pub fn micro_experiment(scale: f64) -> Vec<MicroRow> {
    let mut rows = Rows {
        rounds: ((64.0 * scale) as usize).max(8),
        rows: Vec::new(),
    };

    let raw = DisplayCommand::Raw {
        rect: Rect::new(0, 0, 256, 256),
        pixels: Arc::new((0..256 * 256).collect()),
    };
    rows.add("display", "encode_raw_256x256", || {
        timed(|| encode_command_vec(black_box(&raw)))
    });
    let encoded = encode_command_vec(&raw);
    rows.add("display", "decode_raw_256x256", || {
        timed(|| decode_command(&mut black_box(encoded.as_slice())).unwrap())
    });
    // One document-scroll strip, as each viewer and seek decodes it.
    let strip = encode_command_vec(&DisplayCommand::Raw {
        rect: Rect::new(0, 368, 704, 32),
        pixels: Arc::new(
            (0..704 * 32u32)
                .map(|i| i.wrapping_mul(2_654_435_761))
                .collect(),
        ),
    });
    rows.add("display", "raw_strip_decode", || {
        timed(|| decode_command(&mut black_box(strip.as_slice())).unwrap())
    });
    let applies = [
        (
            "fb_apply_fill_1024x768",
            Framebuffer::new(1024, 768),
            DisplayCommand::SolidFill {
                rect: Rect::new(0, 0, 1024, 768),
                color: 7,
            },
        ),
        // One text line of scroll on a terminal: rows move up in place.
        (
            "fb_apply_copy_scroll_640x368",
            noise_fb(640, 384),
            DisplayCommand::CopyArea {
                src_x: 0,
                src_y: 16,
                rect: Rect::new(0, 0, 640, 368),
            },
        ),
        // Every row overlaps itself: a pan to the right by eight pixels.
        (
            "fb_apply_copy_overlap_horizontal",
            noise_fb(640, 384),
            DisplayCommand::CopyArea {
                src_x: 0,
                src_y: 0,
                rect: Rect::new(8, 0, 632, 384),
            },
        ),
        // A line of 80 cells of the 8x16 font: one command, as
        // `draw_text` issues it.
        (
            "fb_apply_glyph_line_640x16",
            Framebuffer::new(640, 384),
            DisplayCommand::Glyph {
                rect: Rect::new(0, 32, 640, 16),
                bits: Arc::new((0..80 * 16u32).map(|i| (i * 37) as u8).collect()),
                fg: 0x00FF_FFFF,
                bg: 0x0010_1010,
            },
        ),
        (
            "fb_apply_pattern_fill_1024x768",
            Framebuffer::new(1024, 768),
            DisplayCommand::PatternFill {
                rect: Rect::new(3, 5, 1024, 768),
                pattern: Pattern {
                    bits: 0x8040_2010_0804_0201,
                    fg: 0x00FF_FFFF,
                    bg: 0,
                },
            },
        ),
    ];
    for (name, mut fb, cmd) in applies {
        rows.add("display", name, || timed(|| fb.apply(black_box(&cmd))));
    }
    // A replay of 64 lines on an 800x160 terminal (ten lines of the
    // 8x16 font) at the top of an 800x600 screen: per line a scroll, a
    // fill and a glyph row on the bottom line, written through one
    // scroll ring, as playback writes them.
    let line = Rect::new(0, 144, 800, 16);
    let terminal = [
        DisplayCommand::CopyArea {
            src_x: 0,
            src_y: 16,
            rect: Rect::new(0, 0, 800, 144),
        },
        DisplayCommand::SolidFill {
            rect: line,
            color: 0x0010_1010,
        },
        DisplayCommand::Glyph {
            rect: line,
            bits: Arc::new((0..100 * 16u32).map(|i| (i * 37) as u8).collect()),
            fg: 0x00FF_FFFF,
            bg: 0x0010_1010,
        },
    ];
    let mut fb = noise_fb(800, 600);
    rows.add("display", "replay_scroll_64_lines_800x160", || {
        timed(|| {
            let mut ring = ScrollRing::new(&mut fb);
            for _ in 0..64 {
                for cmd in &terminal {
                    ring.apply(black_box(cmd));
                }
            }
            ring.finish()
        })
    });
    // A keyframe falling due over a screen that has not changed since
    // the last one: what the recorder pays to find that out.
    let mut recorder = DisplayRecorder::new(1024, 768, RecorderConfig::default());
    let stripes = |i: u32| DisplayCommand::SolidFill {
        rect: Rect::new(i * 16, 0, 16, 768),
        color: i % 5,
    };
    for i in 0..64u32 {
        recorder.submit(Timestamp::from_millis(u64::from(i)), &stripes(i));
    }
    recorder.force_keyframe(Timestamp::from_secs(1));
    let mut now = 1;
    rows.add("display", "keyframe_unchanged_check_1024x768", || {
        timed(|| {
            now += 1;
            recorder.force_keyframe(Timestamp::from_secs(now));
        })
    });
    assert_eq!(
        recorder.stats().keyframes,
        2,
        "every timed keyframe was suppressed"
    );
    let mut fb = Framebuffer::new(1024, 768);
    for i in 0..64u32 {
        fb.apply(&stripes(i));
    }
    let shot = fb.snapshot();
    rows.add("display", "screenshot_rle_1024x768", || {
        timed(|| decode_screenshot(&encode_screenshot(black_box(&shot))).unwrap())
    });

    // One viewer's share of a video step: frame the command, move it
    // through a loopback pipe at the default 1,400-byte chunk, cut it
    // out of the decoder, decode it and apply it.
    let luma: Vec<u8> = (0..640 * 480usize).map(|i| (i * 7) as u8).collect();
    let msg = Message::Command {
        ts: Timestamp::from_millis(40),
        cmd: DisplayCommand::Video {
            rect: Rect::new(192, 144, 640, 480),
            frame: Arc::new(YuvFrame::from_luma(640, 480, luma)),
        },
    };
    let (mut server, mut viewer) = LoopbackTransport::pair();
    let mut decoder = FrameDecoder::new();
    let mut fb = Framebuffer::new(1024, 768);
    let mut wire = Vec::new();
    rows.add("wire", "wire_video_frame", || {
        timed(|| {
            wire.clear();
            frame_message(&msg, &mut wire);
            let mut sent = 0;
            while sent < wire.len() {
                sent += server.send(&wire[sent..]).unwrap();
            }
            let payload = decoder
                .recv_frame(&mut viewer)
                .unwrap()
                .expect("whole frame");
            match decode_message(payload).unwrap() {
                Message::Command { cmd, .. } => fb.apply(&cmd),
                other => panic!("sent a command, received {other:?}"),
            }
        })
    });

    let words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"];
    let instance = |i: u64| IndexedInstance {
        id: i,
        app_id: (i % 4) as u32,
        app: format!("app{}", i % 4),
        window: "w".into(),
        role: "paragraph".into(),
        text: format!(
            "{} {} {}",
            words[i as usize % 6],
            words[(i as usize + 1) % 6],
            words[(i as usize * 7 + 2) % 6]
        ),
        shown: Timestamp::from_millis(i * 10),
        hidden: Some(Timestamp::from_millis(i * 10 + 500)),
        annotation: false,
    };
    let mut index = TextIndex::new();
    // The same instances as four sealed segments of a quarter each.
    let mut quarters: Vec<TextIndex> = (0..4).map(|_| TextIndex::new()).collect();
    for i in 0..5_000u64 {
        index.add_instance(instance(i));
        quarters[(i / 1_250) as usize].add_instance(instance(i));
    }
    index.advance_horizon(Timestamp::from_secs(60));
    for (name, query, order) in [
        (
            "query_single_term_5k_instances",
            "alpha",
            RankOrder::Chronological,
        ),
        (
            "query_contextual_5k_instances",
            "app:app1 alpha beta -gamma from:1 to:50",
            RankOrder::PersistenceAscending,
        ),
    ] {
        let query = parse_query(query).unwrap();
        rows.add("index", name, || {
            timed(|| dv_index::search(&[&index], black_box(&query), order))
        });
    }
    let segments: Vec<Vec<u8>> = quarters.iter().map(dv_index::encode_index).collect();
    let inputs: Vec<&[u8]> = segments.iter().map(Vec::as_slice).collect();
    rows.add("index", "compact_4x", || {
        timed(|| dv_index::merge_segments(black_box(&inputs)).expect("sound segments"))
    });

    let mut fs = Lsfs::new();
    let (mut file, data) = (0u64, vec![7u8; 4096]);
    rows.add("lsfs", "create_write_sync_4k", || {
        timed(|| {
            file += 1;
            fs.write_all(&format!("/f{file}"), &data).unwrap();
            fs.sync().unwrap();
        })
    });
    let mut fs = Lsfs::new();
    for i in 0..16_384 {
        fs.write_all(&format!("/file_{i}"), b"contents").unwrap();
    }
    fs.snapshot_point(1).unwrap();
    rows.add("lsfs", "snapshot_view_open_16k_files", || {
        timed(|| fs.snapshot(1).unwrap())
    });

    // A fresh 16 MiB process each round; only the checkpoint is timed.
    rows.add("checkpoint", "full_checkpoint_16mb", || {
        let (mut vee, mut engine, ..) = process_16mb(EngineConfig::default());
        timed(|| engine.checkpoint(&mut vee).unwrap())
    });
    let (mut vee, mut engine, p, addr) = process_16mb(EngineConfig {
        full_every: u64::MAX,
        ..EngineConfig::default()
    });
    engine.checkpoint(&mut vee).unwrap();
    rows.add(
        "checkpoint",
        "incremental_checkpoint_64_dirty_pages",
        || {
            timed(|| {
                for i in 0..64u64 {
                    vee.mem_write(p, addr + i * 4096, &[1]).unwrap();
                }
                engine.checkpoint(&mut vee).unwrap()
            })
        },
    );
    let data: Vec<u8> = (0..1 << 20)
        .map(|i| if i % 4096 < 3000 { 0 } else { (i % 251) as u8 })
        .collect();
    rows.add("checkpoint", "rle_compress_1mb_page_data", || {
        timed(|| decompress(&compress(black_box(&data))).unwrap())
    });
    rows.rows
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_micro_benchmark_runs_once_named() {
        let rows = super::micro_experiment(0.01);
        let mut names: Vec<&str> = rows.iter().map(|r| r.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 20);
    }
}
