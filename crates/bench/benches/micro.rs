//! Component micro-benchmarks: the hot paths under each figure.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use dv_checkpoint::{compress, decompress, Checkpointer, EngineConfig};
use dv_display::{
    decode_command, encode_command, encode_command_vec, CommandSink, DisplayCommand, Framebuffer,
    Pattern, Rect, YuvFrame,
};
use dv_fault::checksum::crc32;
use dv_index::{parse_query, IndexedInstance, RankOrder, TextIndex};
use dv_lsfs::{Filesystem, Lsfs, SharedBlobStore};
use dv_net::{decode_message, frame_message, FrameDecoder, LoopbackTransport, Message, Transport};
use dv_record::{decode_screenshot, encode_screenshot, DisplayRecorder, RecorderConfig};
use dv_time::{SimClock, Timestamp};
use dv_vee::{HostPidAllocator, Prot, Vee};

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

fn bench_display(c: &mut Criterion) {
    let mut group = c.benchmark_group("display");
    let raw = DisplayCommand::Raw {
        rect: Rect::new(0, 0, 256, 256),
        pixels: Arc::new((0..256 * 256).collect()),
    };
    group.bench_function("encode_raw_256x256", |b| {
        b.iter(|| encode_command_vec(&raw));
    });
    let encoded = encode_command_vec(&raw);
    group.bench_function("decode_raw_256x256", |b| {
        b.iter(|| {
            let mut slice = encoded.as_slice();
            decode_command(&mut slice).unwrap()
        });
    });
    // One document-scroll strip, as the log append and each viewer's
    // wire frame encode it and each viewer and seek decode it.
    let strip = DisplayCommand::Raw {
        rect: Rect::new(0, 368, 704, 32),
        pixels: Arc::new(
            (0..704 * 32u32)
                .map(|i| i.wrapping_mul(2_654_435_761))
                .collect(),
        ),
    };
    group.bench_function("raw_strip_encode", |b| {
        let mut out = Vec::with_capacity(strip.wire_size());
        b.iter(|| {
            out.clear();
            encode_command(&strip, &mut out);
        });
    });
    let strip_bytes = encode_command_vec(&strip);
    group.bench_function("raw_strip_decode", |b| {
        b.iter(|| decode_command(&mut strip_bytes.as_slice()).unwrap());
    });
    group.bench_function("fb_apply_fill_1024x768", |b| {
        let mut fb = Framebuffer::new(1024, 768);
        let cmd = DisplayCommand::SolidFill {
            rect: Rect::new(0, 0, 1024, 768),
            color: 7,
        };
        b.iter(|| fb.apply(&cmd));
    });
    // One text line of scroll on a terminal: rows move up in place.
    group.bench_function("fb_apply_copy_scroll_640x368", |b| {
        let mut fb = noise_fb(640, 384);
        let cmd = DisplayCommand::CopyArea {
            src_x: 0,
            src_y: 16,
            rect: Rect::new(0, 0, 640, 368),
        };
        b.iter(|| fb.apply(&cmd));
    });
    // Every row overlaps itself: a pan to the right by eight pixels.
    group.bench_function("fb_apply_copy_overlap_horizontal", |b| {
        let mut fb = noise_fb(640, 384);
        let cmd = DisplayCommand::CopyArea {
            src_x: 0,
            src_y: 0,
            rect: Rect::new(8, 0, 632, 384),
        };
        b.iter(|| fb.apply(&cmd));
    });
    // A line of 80 cells of the 8x16 font: one command, as `draw_text`
    // issues it.
    group.bench_function("fb_apply_glyph_line_640x16", |b| {
        let mut fb = Framebuffer::new(640, 384);
        let cmd = DisplayCommand::Glyph {
            rect: Rect::new(0, 32, 640, 16),
            bits: Arc::new((0..80 * 16u32).map(|i| (i * 37) as u8).collect()),
            fg: 0x00FF_FFFF,
            bg: 0x0010_1010,
        };
        b.iter(|| fb.apply(&cmd));
    });
    group.bench_function("fb_apply_pattern_fill_1024x768", |b| {
        let mut fb = Framebuffer::new(1024, 768);
        let cmd = DisplayCommand::PatternFill {
            rect: Rect::new(3, 5, 1024, 768),
            pattern: Pattern {
                bits: 0x8040_2010_0804_0201,
                fg: 0x00FF_FFFF,
                bg: 0,
            },
        };
        b.iter(|| fb.apply(&cmd));
    });
    // A keyframe falling due over a screen that has not changed since
    // the last one: what the recorder pays to find that out.
    group.bench_function("keyframe_unchanged_check_1024x768", |b| {
        let mut recorder = DisplayRecorder::new(1024, 768, RecorderConfig::default());
        for i in 0..64u32 {
            let cmd = DisplayCommand::SolidFill {
                rect: Rect::new(i * 16, 0, 16, 768),
                color: i % 5,
            };
            recorder.submit(Timestamp::from_millis(u64::from(i)), &cmd);
        }
        recorder.force_keyframe(Timestamp::from_secs(1));
        let mut now = 1;
        b.iter(|| {
            now += 1;
            recorder.force_keyframe(Timestamp::from_secs(now));
        });
        assert_eq!(
            recorder.stats().keyframes,
            2,
            "every timed keyframe was suppressed"
        );
    });
    group.bench_function("screenshot_rle_1024x768", |b| {
        let mut fb = Framebuffer::new(1024, 768);
        for i in 0..64u32 {
            fb.apply(&DisplayCommand::SolidFill {
                rect: Rect::new(i * 16, 0, 16, 768),
                color: i % 5,
            });
        }
        let shot = fb.snapshot();
        b.iter(|| {
            let encoded = encode_screenshot(&shot);
            decode_screenshot(&encoded).unwrap()
        });
    });
    group.finish();
}

fn bench_wire(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire");
    // The bytes of one 640x480 video frame, CRC'd once by each side.
    let frame_sized: Vec<u8> = (0..448usize << 10).map(|i| (i * 131) as u8).collect();
    group.bench_function("crc32_448k", |b| {
        b.iter(|| crc32(&frame_sized));
    });
    // One viewer's share of a video step: frame the command, move it
    // through a loopback pipe at the default 1,400-byte chunk, cut it
    // out of the decoder, decode it and apply it.
    group.bench_function("wire_video_frame", |b| {
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
        b.iter(|| {
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
        });
    });
    group.finish();
}

fn bench_index(c: &mut Criterion) {
    let mut group = c.benchmark_group("index");
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
    let simple = parse_query("alpha").unwrap();
    let complex = parse_query("app:app1 alpha beta -gamma from:1 to:50").unwrap();
    group.bench_function("query_single_term_5k_instances", |b| {
        b.iter(|| dv_index::search(&index, &simple, RankOrder::Chronological));
    });
    group.bench_function("query_contextual_5k_instances", |b| {
        b.iter(|| dv_index::search(&index, &complex, RankOrder::PersistenceAscending));
    });
    let segments: Vec<Vec<u8>> = quarters.iter().map(dv_index::encode_index).collect();
    let inputs: Vec<&[u8]> = segments.iter().map(Vec::as_slice).collect();
    group.bench_function("compact_4x", |b| {
        b.iter(|| dv_index::merge_segments(&inputs).expect("sound segments"));
    });
    group.finish();
}

fn bench_lsfs(c: &mut Criterion) {
    let mut group = c.benchmark_group("lsfs");
    group.bench_function("create_write_sync_4k", |b| {
        let mut fs = Lsfs::new();
        let mut i = 0u64;
        let data = vec![7u8; 4096];
        b.iter(|| {
            i += 1;
            let path = format!("/f{i}");
            fs.write_all(&path, &data).unwrap();
            fs.sync().unwrap();
        });
    });
    let populated = |files: usize| {
        let mut fs = Lsfs::new();
        for i in 0..files {
            fs.write_all(&format!("/file_{i}"), b"contents").unwrap();
        }
        fs.sync().unwrap();
        fs
    };
    for (name, files) in [
        ("snapshot_point_1k_files", 1_000),
        ("snapshot_point_16k_files", 16_384),
    ] {
        group.bench_function(name, |b| {
            let mut fs = populated(files);
            let mut counter = 0;
            b.iter(|| {
                counter += 1;
                fs.snapshot_point(counter).unwrap();
            });
        });
    }
    group.bench_function("snapshot_view_open_16k_files", |b| {
        let mut fs = populated(16_384);
        fs.snapshot_point(1).unwrap();
        b.iter(|| fs.snapshot(1).unwrap());
    });
    group.finish();
}

fn bench_checkpoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("checkpoint");
    group.sample_size(20);
    // Full checkpoint of a 16 MiB process.
    group.bench_function("full_checkpoint_16mb", |b| {
        b.iter_batched(
            || {
                let clock = SimClock::new();
                let mut vee = Vee::new(
                    1,
                    clock.shared(),
                    Box::new(Lsfs::new()),
                    HostPidAllocator::new(),
                );
                let p = vee.spawn(None, "app").unwrap();
                let addr = vee.mmap(p, 16 << 20, Prot::ReadWrite).unwrap();
                vee.mem_write(p, addr, &vec![3u8; 16 << 20]).unwrap();
                let engine = Checkpointer::with_sim_clock(EngineConfig::default(), clock);
                (vee, engine, SharedBlobStore::in_memory())
            },
            |(mut vee, mut engine, store)| engine.checkpoint(&mut vee, &store).unwrap(),
            BatchSize::LargeInput,
        );
    });
    // Incremental with 64 dirty pages.
    group.bench_function("incremental_checkpoint_64_dirty_pages", |b| {
        let clock = SimClock::new();
        let mut vee = Vee::new(
            1,
            clock.shared(),
            Box::new(Lsfs::new()),
            HostPidAllocator::new(),
        );
        let p = vee.spawn(None, "app").unwrap();
        let addr = vee.mmap(p, 16 << 20, Prot::ReadWrite).unwrap();
        vee.mem_write(p, addr, &vec![3u8; 16 << 20]).unwrap();
        let mut engine = Checkpointer::with_sim_clock(
            EngineConfig {
                full_every: u64::MAX,
                ..EngineConfig::default()
            },
            clock,
        );
        let store = SharedBlobStore::in_memory();
        engine.checkpoint(&mut vee, &store).unwrap();
        b.iter(|| {
            for i in 0..64u64 {
                vee.mem_write(p, addr + i * 4096, &[1]).unwrap();
            }
            engine.checkpoint(&mut vee, &store).unwrap()
        });
    });
    group.bench_function("rle_compress_1mb_page_data", |b| {
        let data: Vec<u8> = (0..1 << 20)
            .map(|i| if i % 4096 < 3000 { 0 } else { (i % 251) as u8 })
            .collect();
        b.iter(|| {
            let compressed = compress(&data);
            decompress(&compressed).unwrap()
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_display,
    bench_wire,
    bench_index,
    bench_lsfs,
    bench_checkpoint
);
criterion_main!(benches);
