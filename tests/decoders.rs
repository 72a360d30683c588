//! One decoder table: every decoder of stored or wire bytes under one
//! hostile-input driver.
//!
//! Each row names a decoder, makes a valid input from a seed and decodes
//! (re-encoding whatever comes back). The driver runs four attacks on
//! every row — random bytes (bare and behind the valid input's magic),
//! one to three changed bytes biased to the headers and half the time
//! cut short, a cut at every byte, and every 4- and 8-byte field set to
//! `MAX`, `MAX - 15` and one past the input's length. A CRC-framed row
//! gets the mutations twice: on the framed input, where the checksum
//! refuses them, and re-framed under a CRC that verifies, so the parser
//! behind the checksum sees them.
//!
//! The properties: every input decodes or is refused — never a panic —
//! and no input makes a decoder ask the allocator for more than its
//! valid input did plus `K` bytes per input byte. `every_decoder_has_a_row`
//! keeps the table complete: a `pub fn decode*`, `from_bytes*`,
//! `import*` or `load*` under `crates/*/src` without a row fails it.

#[path = "common/alloc.rs"]
mod alloc;
mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

use dejaview::{Config, DejaView};
use dv_cas::ChunkStore;
use dv_checkpoint::compress::MAX_DECOMPRESSED;
use dv_checkpoint::image::encode_image_sections;
use dv_checkpoint::{
    compress, decode_image, decompress, encode_image, load_image, CheckpointImage, Checkpointer,
    EngineConfig, FdRecord, ImageKind, ProcessRecord, ReviveError, SocketRecord,
};
use dv_display::{
    decode_command, decode_input, decode_pixels, encode_command, encode_command_vec, encode_input,
    encode_pixels, peek_command, CommandSink, DisplayCommand, Framebuffer, InputEvent, Pattern,
    Rect, ScaleFactor, Screenshot, Span, VirtualOutput, YuvFrame,
};
use dv_fault::checksum::crc32;
use dv_fault::{FaultPlane, Put, Reader};
use dv_index::{
    decode_index, encode_index, merge_segments, parse_query, IndexedInstance, RankOrder, TextIndex,
};
use dv_lsfs::journal::FsOp;
use dv_lsfs::sealed::{decode_manifest, encode_manifest, frame, unframe};
use dv_lsfs::{
    BlobStore, Disk, Filesystem, Lifecycle, Lsfs, Manifest, Payload, SegmentMeta, SharedBlobStore,
    BLOCK_SIZE, MAX_FILE_SIZE,
};
use dv_net::{
    decode_message, encode_frame_vec, encode_message_vec, FrameDecoder, Message, VisualProbe,
    WireHit, WireVisualHit,
};
use dv_obs::Obs;
use dv_record::{
    decode_record, decode_screenshot, decode_screenshot_runs, encode_record, encode_screenshot,
    screenshot_dims, CommandLog, DisplayRecorder, RecorderConfig, ScreenshotStore, Timeline,
    TimelineEntry, LITERAL, MAX_SCREEN_SIDE,
};
use dv_tidx::TidxEngine;
use dv_time::{Duration, SimClock, Timestamp};
use dv_vee::{Credentials, FpuState, MemRegion, Prot, Registers, SchedParams, PAGE_SIZE};
use dv_vidx::{Fingerprint, Strips, VidxEngine, VisualInstance, VisualStrip};

/// Bytes a decoder may ask for per input byte beyond what its valid
/// input cost.
const K: u64 = 64;

/// Makes a decoder's input out of other bytes.
type Wrap = fn(&[u8]) -> Vec<u8>;

/// One decoder of stored or wire bytes.
struct Row {
    /// The decoder, as `every_decoder_has_a_row` finds it (`Type::fn` for
    /// a method), optionally followed by `/` and what the row feeds it.
    name: &'static str,
    /// A valid input made from a seed — for a CRC-framed format, the
    /// bytes the checksum covers.
    valid: fn(u64) -> Vec<u8>,
    /// For a CRC-framed format: wraps covered bytes into the decoder's
    /// input under a checksum that verifies.
    frame: Option<Wrap>,
    /// Decodes, re-encoding what comes back; whether it was accepted.
    decode: fn(&[u8]) -> bool,
    /// What the input may cost beyond `K` bytes per input byte: the
    /// plaintext a run-length stream holds, the screens an archive
    /// header sizes. Zero where the input's own bytes back the output.
    expands: fn(&[u8]) -> u64,
    /// Most cuts, and most inflated field positions, tried: every one up
    /// to this many, then a spread. Rows whose decode builds a whole
    /// server get fewer.
    positions: usize,
}

const EVERYWHERE: usize = 1024;

/// A seeded splitmix64 stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }
}

/// Runs `row.decode` on `input`: it must return, and ask the allocator
/// for at most `base` plus `K` bytes per input byte plus what the input
/// legitimately expands into.
fn check(row: &Row, attack: &str, input: &[u8], base: u64) {
    let allowed = base + K * input.len() as u64 + (row.expands)(input);
    let before = alloc::requested();
    let returned = catch_unwind(AssertUnwindSafe(|| (row.decode)(input)));
    let asked = alloc::requested() - before;
    let shown = &input[..input.len().min(48)];
    assert!(
        returned.is_ok(),
        "{}: {attack}: panicked on {} bytes starting {shown:02x?}",
        row.name,
        input.len()
    );
    assert!(
        asked <= allowed,
        "{}: {attack}: {} bytes asked {asked} of the allocator (valid input: {base}, allowed {allowed}), starting {shown:02x?}",
        row.name,
        input.len()
    );
}

/// Every position below `len` when there are at most `n`, else the
/// first `n / 2` and `n / 2` spread over the rest.
fn positions(len: usize, n: usize) -> Vec<usize> {
    if len <= n {
        return (0..len).collect();
    }
    let head = n / 2;
    let step = (len - head) / (n - head);
    (0..head).chain((head..len).step_by(step.max(1))).collect()
}

/// The mutation, truncation and inflation attacks on `valid`, each
/// handed to `feed` with its name.
fn mutate(row: &Row, rng: &mut Rng, valid: &[u8], mut feed: impl FnMut(&str, &[u8])) {
    for _ in 0..256 {
        let mut bytes = valid.to_vec();
        for _ in 0..1 + rng.below(3) {
            let at = if rng.next() & 1 == 0 {
                rng.below(40)
            } else {
                rng.below(bytes.len())
            };
            if let Some(b) = bytes.get_mut(at) {
                *b = rng.next() as u8;
            }
        }
        if rng.next() & 1 == 0 {
            bytes.truncate(rng.below(bytes.len() + 1));
        }
        feed("mutation", &bytes);
    }
    for cut in positions(valid.len(), row.positions) {
        feed("truncation", &valid[..cut]);
    }
    let len = valid.len() as u64;
    for at in positions(valid.len(), row.positions) {
        for value in [u64::MAX, u64::MAX - 15, len + 1] {
            for width in [4, 8] {
                let mut bytes = valid.to_vec();
                let end = (at + width).min(bytes.len());
                bytes[at..end].copy_from_slice(&value.to_le_bytes()[..end - at]);
                feed("inflation", &bytes);
            }
        }
    }
}

fn drive(row: &Row) {
    let mut rng = Rng(common::seed_for(row.name));
    let covered = (row.valid)(rng.next());
    let valid = row.frame.map_or(covered.clone(), |frame| frame(&covered));
    let before = alloc::requested();
    assert!(
        (row.decode)(&valid),
        "{}: the valid input is refused",
        row.name
    );
    let base = alloc::requested() - before;
    for _ in 0..64 {
        let len = rng.below(512);
        let noise = rng.bytes(len);
        check(row, "random bytes", &noise, base);
        let behind_magic = [&valid[..valid.len().min(8)], &noise[..]].concat();
        check(row, "random bytes behind the magic", &behind_magic, base);
    }
    mutate(row, &mut rng, &valid, |attack, bytes| {
        check(row, attack, bytes, base)
    });
    if let Some(frame) = row.frame {
        mutate(row, &mut rng, &covered, |attack, bytes| {
            check(
                row,
                &format!("{attack} under a valid CRC"),
                &frame(bytes),
                base,
            )
        });
    }
}

macro_rules! table {
    ($($test:ident => $row:expr,)*) => {
        const ROWS: &[Row] = &[$($row),*];
        $(
            #[test]
            fn $test() {
                drive(&$row);
            }
        )*
    };
}

// ----- Valid inputs. ------------------------------------------------------

fn shot(seed: u64) -> Screenshot {
    let (w, h) = (6 + (seed % 3) as u32, 4);
    let pixels = (0..w * h).map(|i| [7, 7, 9, 3][(i as usize + seed as usize) % 4]);
    Screenshot {
        width: w,
        height: h,
        pixels: Arc::new(pixels.collect()),
    }
}

/// [`shot`] behind ten pixels that each differ from the next: the
/// encoding opens with a literal, whose even length pads its last chunk.
fn literal_shot(seed: u64) -> Screenshot {
    let mut shot = shot(seed);
    let pixels = Arc::make_mut(&mut shot.pixels);
    for (i, px) in pixels[..10].iter_mut().enumerate() {
        *px = 0x8000_0000 | (i as u32) << 8 | seed as u8 as u32;
    }
    pixels[10] = pixels[11];
    shot
}

fn message(msg: Message) -> Vec<u8> {
    encode_message_vec(&msg)
}

fn commands(seed: u64) -> Vec<DisplayCommand> {
    let rect = Rect::new(seed as u32 % 8, 2, 4, 3);
    vec![
        DisplayCommand::Raw {
            rect,
            pixels: Arc::new((0..12).map(|i| i * 0x0101 + seed as u32).collect()),
        },
        DisplayCommand::CopyArea {
            src_x: 1,
            src_y: 5,
            rect,
        },
        DisplayCommand::SolidFill {
            rect,
            color: 0x445566,
        },
        DisplayCommand::PatternFill {
            rect,
            pattern: Pattern {
                bits: seed ^ 0xAA55,
                fg: 1,
                bg: 2,
            },
        },
        DisplayCommand::Glyph {
            rect: Rect::new(0, 0, 9, 2),
            bits: Arc::new(vec![0xF0, 0x80, 0x0F, 0x01]),
            fg: 3,
            bg: 4,
        },
        DisplayCommand::Video {
            rect: Rect::new(0, 0, 8, 8),
            frame: Arc::new(YuvFrame::from_luma(3, 2, vec![seed as u8; 6])),
        },
    ]
}

fn command_stream(seed: u64) -> Vec<u8> {
    let mut out = Vec::new();
    for cmd in commands(seed) {
        encode_command(&cmd, &mut out);
    }
    out
}

/// Well-framed commands over degenerate geometry: every tag with a
/// payload as long as its rectangle and (for video) its frame call for,
/// with sides of zero, one or two.
fn degenerate_commands(seed: u64) -> Vec<u8> {
    let mut out = Vec::new();
    for (tag, w, h) in [
        (1u8, 0u32, 2u32),
        (2, 1, 0),
        (3, 2, 1),
        (4, 0, 0),
        (5, 2, 2),
        (6, 1, 2),
    ] {
        let (fw, fh) = (h, w);
        let payload_len = match tag {
            1 => 4 * w * h,
            2 => 8,
            3 => 4,
            4 => 16,
            5 => 8 + w.div_ceil(8) * h,
            _ => 8 + fw * fh + 2 * fw.div_ceil(2) * fh.div_ceil(2),
        };
        out.push(tag);
        for field in [seed as u32 % 3, 1, w, h, payload_len] {
            out.put_u32(field);
        }
        let mut payload = vec![seed as u8; payload_len as usize];
        if tag == 6 {
            payload[..4].copy_from_slice(&fw.to_le_bytes());
            payload[4..8].copy_from_slice(&fh.to_le_bytes());
        }
        out.extend_from_slice(&payload);
    }
    out
}

/// The header peek and the full decode, command by command: both
/// accept or both refuse with one error; what decodes has the peeked
/// header and length, applies, reads back from a one-entry log, and
/// paints a headless output as it paints a framebuffer.
fn peek_agrees_with_decode(mut b: &[u8]) -> bool {
    let mut fb = Framebuffer::new(48, 48);
    let mut output = VirtualOutput::new(ScaleFactor::ONE, &fb.snapshot());
    while !b.is_empty() {
        let mut rest = b;
        match (peek_command(b), decode_command(&mut rest)) {
            (Ok(meta), Ok(cmd)) => {
                assert_eq!(meta, cmd.meta());
                assert_eq!(meta.len, b.len() - rest.len());
                fb.apply(&cmd);
                let entry = [&7u64.to_le_bytes()[..], &b[..meta.len]].concat();
                let log = CommandLog::from_bytes(entry).expect("a one-entry log");
                let (_, logged, _) = log.read_at(0).expect("read").expect("entry");
                assert_eq!(logged, cmd);
                output.apply(&logged);
                assert_eq!(output.snapshot(), fb.snapshot());
            }
            (Err(peeked), Err(decoded)) => {
                assert_eq!(peeked, decoded);
                return false;
            }
            (peeked, decoded) => {
                panic!("peek {peeked:?} but decode {:?}", decoded.map(|c| c.meta()))
            }
        }
        b = rest;
    }
    true
}

fn text_index(seed: u64) -> TextIndex {
    let mut index = TextIndex::new();
    for (id, text, hidden) in [
        (3, "some words — émigré", None),
        (9 + seed % 4, "", Some(40)),
    ] {
        index.add_instance(IndexedInstance {
            id,
            app_id: 2,
            app: "editor".into(),
            window: "日本語".into(),
            role: String::new(),
            text: text.into(),
            shown: Timestamp::from_millis(id),
            hidden: hidden.map(Timestamp::from_millis),
            annotation: hidden.is_some(),
        });
    }
    index.focus_change(2, Timestamp::from_millis(5));
    index
}

fn strip(seed: u64) -> VisualStrip {
    VisualStrip::from_instances(
        [(4u64, seed), (6, seed + 1)]
            .map(|(id, seed)| VisualInstance {
                id,
                fp: Fingerprint([id, seed, !id, seed ^ id]),
                first: Timestamp::from_millis(id),
                last: Timestamp::from_millis(id + 1),
                frames: 2,
                thumb: encode_screenshot(&shot(seed)),
            })
            .to_vec(),
    )
}

fn image(seed: u64) -> CheckpointImage {
    let mut page = [0u8; PAGE_SIZE];
    page[..8].copy_from_slice(&seed.to_le_bytes());
    CheckpointImage {
        counter: 2,
        time: Timestamp::from_secs(1),
        kind: ImageKind::Incremental { prev: 1 },
        hostname: "host".into(),
        network_enabled: true,
        processes: vec![ProcessRecord {
            vpid: 1,
            parent: None,
            name: "init".into(),
            regs: Registers {
                pc: 1,
                sp: 2,
                gpr: [seed; 8],
            },
            fpu: FpuState {
                control: 0x37f,
                st: [0; 8],
            },
            sched: SchedParams {
                nice: -1,
                rt_priority: 0,
            },
            creds: Credentials { uid: 1, gid: 1 },
            blocked: 0,
            handled: 2,
            pending: vec![3],
            ptraced_by: None,
            cwd: "/".into(),
            net_allowed: true,
            regions: vec![MemRegion {
                start: 0x1000,
                len: 2 * PAGE_SIZE as u64,
                prot: Prot::ReadWrite,
            }],
            pages: vec![
                (0x1000, page.into()),
                (0x2000, [seed as u8; PAGE_SIZE].into()),
            ],
            fds: vec![
                FdRecord::File {
                    fd: 3,
                    path: "/doc".into(),
                    offset: 7,
                    unlinked: true,
                    relink: Some("/.dejaview/relink".into()),
                },
                FdRecord::Socket { fd: 4, id: 9 },
            ],
        }],
        sockets: vec![SocketRecord {
            id: 9,
            proto: 0,
            local_port: 80,
            remote: Some(("peer".into(), 443)),
            state: 1,
            tx_bytes: 5,
            rx_bytes: 6,
        }],
    }
}

/// A saved file system: a directory, two files, a snapshot between
/// them, a rename after it.
fn fs_image() -> &'static [u8] {
    static IMAGE: OnceLock<Vec<u8>> = OnceLock::new();
    IMAGE.get_or_init(|| {
        let mut fs = Lsfs::new();
        fs.mkdir("/d").unwrap();
        fs.write_all("/d/a", b"first").unwrap();
        fs.snapshot_point(1).unwrap();
        fs.write_all("/d/b", &[7; 5000]).unwrap();
        fs.rename("/d/b", "/d/c").unwrap();
        fs.save().unwrap()
    })
}

/// `image` (an `Lsfs::save` output) with one more journal record, whose
/// body is `body`, chained after its head under a CRC that verifies.
fn with_journal_record(image: &[u8], body: &[u8]) -> Vec<u8> {
    let field = |at: usize| u64::from_le_bytes(image[at..at + 8].try_into().unwrap());
    let (head, log_len) = (field(8), field(24));
    let mut covered = Vec::new();
    covered.put_u64(head);
    covered.put_bytes_u32(body);
    let mut out = image[..8].to_vec();
    out.put_u64(log_len);
    out.extend_from_slice(&image[16..24]);
    out.put_u64(log_len + 8 + covered.len() as u64);
    out.extend_from_slice(&image[32..]);
    out.extend_from_slice(b"DVJR");
    out.put_u32(crc32(&covered));
    out.extend_from_slice(&covered);
    out
}

fn archive() -> &'static [u8] {
    static ARCHIVE: OnceLock<Vec<u8>> = OnceLock::new();
    ARCHIVE.get_or_init(|| {
        let mut dv = DejaView::new(Config {
            width: 32,
            height: 24,
            ..Config::default()
        });
        dv.vee_mut().fs.write_all("/doc", b"draft").unwrap();
        let app = dv.desktop_mut().register_app("editor");
        let root = dv.desktop_mut().root(app).unwrap();
        dv.desktop_mut()
            .add_node(app, root, dv_access::Role::Paragraph, "some words");
        for color in [0x11_22_33, 0x44_55_66] {
            dv.driver_mut().fill_rect(Rect::new(0, 0, 32, 24), color);
            dv.clock().advance(Duration::from_secs(1));
            dv.checkpoint_now().unwrap();
        }
        dv.save_archive().unwrap()
    })
}

/// An archive's open-buffer section through the lifecycle: restored
/// into a fresh log's open buffer, then exported again.
fn restore_and_export(log: &dyn Lifecycle, b: &[u8]) -> bool {
    log.restore_open(b).and_then(|()| log.export_open()).is_ok()
}

/// `load_image` of `b` stored as image 2, keeping the pages of even
/// page numbers.
fn load_kept(b: &[u8]) -> Result<CheckpointImage, dv_checkpoint::ReviveError> {
    let mut store = BlobStore::in_memory();
    store.put("img-00000002", b.to_vec()).unwrap();
    load_image(&mut store, "img", 2, |_, addr| addr & 0x1000 == 0)
}

fn nothing(_: &[u8]) -> u64 {
    0
}

/// The dense block list of the largest file a replayed `Write` may
/// size, twice over for the copy a resize makes.
fn block_list(_: &[u8]) -> u64 {
    2 * 8 * (MAX_FILE_SIZE / BLOCK_SIZE as u64)
}

/// What `decompress` may ask for before it refuses `b`: what the token
/// headers claim up to the first that does not parse — capped where
/// `decompress` stops — four times over, for a vector that grows by
/// doubling and counts every reallocation whole.
fn plaintext(b: &[u8]) -> u64 {
    let mut r = Reader::new(b);
    let mut claimed = 0;
    while let Ok(&[tag, l0, l1, l2, l3]) = r.array::<5>() {
        let len = u32::from_le_bytes([l0, l1, l2, l3]);
        claimed += u64::from(len);
        let read = match tag {
            0 => r.bytes(len as usize).map(drop),
            1 => r.u8().map(drop),
            _ => break,
        };
        if read.is_err() {
            break;
        }
    }
    4 * claimed.min(MAX_DECOMPRESSED as u64)
}

/// Four screens of the size an archive header claims: the driver's,
/// the recorder's and the outputs' framebuffers.
fn archive_screens(b: &[u8]) -> u64 {
    let side = |at: usize| {
        let side = b
            .get(at..at + 4)
            .map_or(0, |f| u32::from_le_bytes(f.try_into().unwrap()));
        u64::from(side).min(u64::from(MAX_SCREEN_SIDE))
    };
    4 * 4 * side(8) * side(12)
}

/// `image` as an engine stores it: raw, or each section compressed
/// and the streams joined.
fn stored(image: &CheckpointImage, compressed: bool) -> Vec<u8> {
    if compressed {
        let sections = encode_image_sections(image);
        sections.iter().flat_map(|s| compress(s)).collect()
    } else {
        encode_image(image)
    }
}

/// Reopens an engine over a store holding `b` as image 2, a sound full
/// image 1 and a sound image 3 chained through 2 (stored compressed
/// when `compressed`); whether image 2 is listed. A blob `load_image`
/// refuses is not listed, and image 3 is listed exactly when 2 is.
fn reopen_over(b: &[u8], compressed: bool) -> bool {
    let sound = |counter, kind| CheckpointImage {
        counter,
        kind,
        ..image(counter)
    };
    let mut store = BlobStore::in_memory();
    let one = stored(&sound(1, ImageKind::Full), compressed);
    let three = stored(&sound(3, ImageKind::Incremental { prev: 2 }), compressed);
    store.put("img-00000001", one).unwrap();
    store.put("img-00000002", b.to_vec()).unwrap();
    store.put("img-00000003", three).unwrap();
    let (config, clock) = (EngineConfig::default(), SimClock::new());
    let pool = config.commit_pool(SharedBlobStore::in_memory(), &clock);
    let mut engine = Checkpointer::new(config, pool, clock);
    engine.reopen("img", &mut store, &[]);
    let listed: Vec<u64> = engine.images().map(|m| m.counter).collect();
    let two = listed.contains(&2);
    assert!(
        listed.contains(&1) && listed.contains(&3) == two,
        "{listed:?}"
    );
    if two {
        assert!(load_image(&mut store, "img", 2, |_, _| false).is_ok());
    }
    two
}

fn man_magic() -> [u8; 8] {
    encode_manifest(&Manifest::default())[..8]
        .try_into()
        .unwrap()
}

// ----- The table. ---------------------------------------------------------

table! {
    search_reply => Row {
        name: "decode_message/SearchReply",
        valid: |seed| message(Message::SearchReply {
            req_id: seed as u32,
            hits: (0..2)
                .map(|i| WireHit {
                    time: Timestamp::from_secs(i),
                    until: Timestamp::from_secs(i + 2),
                    persistence: Duration::from_secs(2),
                    matches: 4,
                    snippet: "the quick brown fox".into(),
                    apps: vec!["editor".into(), "browser".into()],
                })
                .collect(),
        }),
        frame: None,
        decode: |b| decode_message(b).map(|m| encode_message_vec(&m)).is_ok(),
        expands: nothing,
        positions: EVERYWHERE,
    },
    visual_reply => Row {
        name: "decode_message/VisualReply",
        valid: |seed| message(Message::VisualReply {
            req_id: 1,
            hits: (0..2)
                .map(|i| WireVisualHit {
                    id: i,
                    distance: 3,
                    first: Timestamp::from_secs(i),
                    last: Timestamp::from_secs(i + 1),
                    frames: 2,
                    thumb: encode_screenshot(&shot(seed + i)),
                })
                .collect(),
        }),
        frame: None,
        decode: |b| decode_message(b).map(|m| encode_message_vec(&m)).is_ok(),
        expands: nothing,
        positions: EVERYWHERE,
    },
    visual_query => Row {
        name: "decode_message/VisualQuery",
        valid: |seed| message(Message::VisualQuery {
            req_id: 1,
            k: 4,
            probe: VisualProbe::Thumb(shot(seed)),
        }),
        frame: None,
        decode: |b| decode_message(b).map(|m| encode_message_vec(&m)).is_ok(),
        expands: nothing,
        positions: EVERYWHERE,
    },
    command_message => Row {
        name: "decode_message/Command",
        valid: |seed| message(Message::Command {
            ts: Timestamp::from_millis(seed % 1000),
            cmd: commands(seed).swap_remove(0),
        }),
        frame: None,
        decode: |b| decode_message(b).map(|m| encode_message_vec(&m)).is_ok(),
        expands: nothing,
        positions: EVERYWHERE,
    },
    search_message => Row {
        name: "decode_message/Search",
        valid: |seed| message(Message::Search {
            req_id: seed as u32,
            order: RankOrder::PersistenceWeighted,
            query: "app:editor quick fox".into(),
        }),
        frame: None,
        decode: |b| decode_message(b).map(|m| encode_message_vec(&m)).is_ok(),
        expands: nothing,
        positions: EVERYWHERE,
    },
    net_frame => Row {
        name: "FrameDecoder/decode_message",
        valid: |seed| message(Message::Keyframe {
            ts: Timestamp::from_secs(1),
            shot: shot(seed),
        }),
        frame: Some(encode_frame_vec),
        decode: |b| {
            let mut dec = FrameDecoder::new();
            dec.feed(b);
            let mut decoded = true;
            loop {
                match dec.next_frame() {
                    Ok(Some(payload)) => decoded &= decode_message(payload).is_ok(),
                    Ok(None) => return decoded && dec.buffered() == 0,
                    Err(_) => return false,
                }
            }
        },
        expands: nothing,
        positions: EVERYWHERE,
    },
    display_commands => Row {
        name: "decode_command",
        valid: command_stream,
        frame: None,
        decode: |mut b| {
            while !b.is_empty() {
                match decode_command(&mut b) {
                    Ok(cmd) => drop(encode_command_vec(&cmd)),
                    Err(_) => return false,
                }
            }
            true
        },
        expands: nothing,
        positions: EVERYWHERE,
    },
    display_peek => Row {
        name: "peek_command",
        valid: |seed| [command_stream(seed), degenerate_commands(seed)].concat(),
        frame: None,
        decode: peek_agrees_with_decode,
        expands: nothing,
        positions: EVERYWHERE,
    },
    input_events => Row {
        name: "decode_input",
        valid: |seed| {
            let mut out = Vec::new();
            for event in [
                InputEvent::Key { ch: 'ф', ctrl: true, alt: false },
                InputEvent::MouseMove { x: seed as u32, y: 600 },
                InputEvent::MouseButton { x: 10, y: 20, button: 2, pressed: true },
            ] {
                encode_input(&event, &mut out);
            }
            out
        },
        frame: None,
        decode: |mut b| loop {
            match decode_input(&mut b) {
                Ok(Some(event)) => encode_input(&event, &mut Vec::new()),
                Ok(None) => return b.is_empty(),
                Err(_) => return false,
            }
        },
        expands: nothing,
        positions: EVERYWHERE,
    },
    pixels => Row {
        name: "decode_pixels",
        valid: |seed| {
            let mut out = Vec::new();
            encode_pixels(&[1, 2, seed as u32], &mut out);
            out
        },
        frame: None,
        decode: |b| {
            encode_pixels(&decode_pixels(b), &mut Vec::new());
            b.len() % 4 == 0
        },
        expands: nothing,
        positions: EVERYWHERE,
    },
    screenshot => Row {
        name: "decode_screenshot",
        valid: |seed| {
            let encoded = encode_screenshot(&literal_shot(seed));
            assert_eq!(encoded[8..12], (LITERAL | 10).to_le_bytes(), "a literal");
            encoded
        },
        frame: None,
        decode: |b| {
            let _ = screenshot_dims(b);
            decode_screenshot(b).map(|s| encode_screenshot(&s)).is_some()
        },
        expands: nothing,
        positions: EVERYWHERE,
    },
    screenshot_runs => Row {
        name: "decode_screenshot_runs",
        // Every seed's screenshot at the one size the record has.
        valid: |seed| encode_screenshot(&literal_shot(seed - seed % 3)),
        frame: None,
        decode: |b| {
            let runs = decode_screenshot_runs(b, 6, 4);
            // The view takes exactly what the decoder takes at that size:
            // runs that overrun or under-fill the screen, and a header
            // naming another size, are refused.
            let decoded = decode_screenshot(b).filter(|s| (s.width, s.height) == (6, 4));
            assert_eq!(runs.map(|r| r.to_screenshot()), decoded);
            runs.is_some_and(|r| r.spans().map(Span::pixel_count).sum::<usize>() == 24)
        },
        expands: nothing,
        positions: EVERYWHERE,
    },
    screenshot_store => Row {
        name: "ScreenshotStore::from_bytes",
        valid: |seed| {
            let mut store = ScreenshotStore::new();
            for i in 0..3 {
                store.append(&shot(seed + i));
            }
            store.as_bytes().to_vec()
        },
        frame: None,
        decode: |b| ScreenshotStore::from_bytes(b.to_vec()).is_some(),
        expands: nothing,
        positions: EVERYWHERE,
    },
    screenshot_at => Row {
        name: "ScreenshotStore::load",
        valid: |seed| encode_screenshot(&shot(seed)),
        frame: None,
        decode: |b| {
            // The stored bytes, then an offset read from them (a damaged
            // timeline entry).
            let mut store = ScreenshotStore::new();
            store.append_encoded(b);
            let offset = b.first_chunk().map_or(0, |o| u64::from_le_bytes(*o));
            let _ = store.encoded_at(offset).map(|e| e.len());
            let _ = store.load(offset);
            store.load(0).is_some()
        },
        expands: nothing,
        positions: EVERYWHERE,
    },
    timeline => Row {
        name: "Timeline::decode",
        valid: |seed| {
            let mut timeline = Timeline::new();
            for ms in [0, 100, 250 + seed % 50, 600] {
                timeline.push(TimelineEntry {
                    time: Timestamp::from_millis(ms),
                    screenshot_offset: ms * 100,
                    command_offset: ms * 1000,
                });
            }
            timeline.encode()
        },
        frame: None,
        decode: |b| Timeline::decode(b).map(|t| t.encode()).is_some(),
        expands: nothing,
        positions: EVERYWHERE,
    },
    command_log => Row {
        name: "CommandLog::from_bytes",
        valid: |seed| {
            let mut log = CommandLog::new();
            for (i, cmd) in commands(seed).iter().enumerate() {
                log.append(Timestamp::from_millis(i as u64), cmd);
            }
            log.as_bytes().to_vec()
        },
        frame: None,
        decode: |b| match CommandLog::from_bytes(b.to_vec()) {
            Ok(log) => log.iter_from(0).count() as u64 == log.len(),
            Err(_) => false,
        },
        expands: nothing,
        positions: EVERYWHERE,
    },
    display_record => Row {
        name: "decode_record",
        valid: |seed| {
            let config = RecorderConfig {
                keyframe_interval: Duration::from_millis(300),
                keyframe_min_change: 0.0,
                ..RecorderConfig::default()
            };
            let mut rec = DisplayRecorder::new(16, 12, config);
            for (i, cmd) in commands(seed).iter().enumerate() {
                CommandSink::submit(&mut rec, Timestamp::from_millis(i as u64 * 200), cmd);
            }
            let record = rec.record();
            let store = record.read();
            encode_record(&store)
        },
        frame: None,
        decode: |b| decode_record(b).map(|s| encode_record(&s)).is_ok(),
        expands: nothing,
        positions: EVERYWHERE,
    },
    manifest => Row {
        name: "decode_manifest",
        valid: |seed| {
            let meta = |id: u64| SegmentMeta {
                id,
                level: 1,
                start: Timestamp::from_millis(id * 10),
                end: Timestamp::from_millis(id * 10 + 10),
                sealed_at: id,
                bytes: 100 + id,
                instances: id * 3,
            };
            let manifest = Manifest {
                counter: 42 + seed % 10,
                next_segment: 7,
                next_instance: 120,
                open_start: Timestamp::from_millis(500),
                oldest_revivable: 40,
                live: vec![meta(1), meta(4)],
                retired: vec![(meta(2), 43)],
            };
            unframe(&man_magic(), &encode_manifest(&manifest)).unwrap().to_vec()
        },
        frame: Some(|b| frame(&man_magic(), b)),
        decode: |b| decode_manifest(b).map(|m| encode_manifest(&m)).is_ok(),
        expands: nothing,
        positions: EVERYWHERE,
    },
    text_segment => Row {
        name: "unframe/text segment",
        valid: |seed| encode_index(&text_index(seed)),
        frame: Some(|b| frame(b"DVTSEG01", b)),
        decode: |b| match unframe(b"DVTSEG01", b) {
            Ok(payload) => {
                let merged = merge_segments(&[payload, payload]).is_ok();
                decode_index(payload).map(|i| encode_index(&i)).is_ok() && merged
            }
            Err(_) => false,
        },
        expands: nothing,
        positions: EVERYWHERE,
    },
    strip_segment => Row {
        name: "unframe/strip segment",
        valid: |seed| Strips.encode(&strip(seed)).unwrap(),
        frame: Some(|b| frame(b"DVVSEG01", b)),
        decode: |b| match unframe(b"DVVSEG01", b) {
            Ok(payload) => {
                let merged = Strips.merge(&[payload, payload]).is_ok();
                let decoded = Strips.decode(payload);
                decoded.map(|s| Strips.encode(&s)).is_ok() && merged
            }
            Err(_) => false,
        },
        expands: nothing,
        positions: EVERYWHERE,
    },
    text_index_row => Row {
        name: "decode_index",
        valid: |seed| encode_index(&text_index(seed)),
        frame: None,
        decode: |b| decode_index(b).map(|i| encode_index(&i)).is_ok(),
        expands: nothing,
        positions: EVERYWHERE,
    },
    open_strip => Row {
        name: "SealedLog::restore_open/strip",
        valid: |seed| Strips.encode(&strip(seed)).unwrap(),
        frame: None,
        decode: |b| {
            let engine = VidxEngine::new(
                SharedBlobStore::in_memory(),
                FaultPlane::disabled(),
                Obs::disabled(),
                Default::default(),
            );
            restore_and_export(engine.log(), b)
        },
        expands: nothing,
        positions: EVERYWHERE,
    },
    open_text => Row {
        name: "SealedLog::restore_open/text",
        valid: |seed| encode_index(&text_index(seed)),
        frame: None,
        decode: |b| {
            let engine = TidxEngine::new(
                Default::default(),
                Default::default(),
                SharedBlobStore::in_memory(),
                FaultPlane::disabled(),
                Obs::disabled(),
                Default::default(),
            );
            restore_and_export(engine.log(), b)
        },
        expands: nothing,
        positions: EVERYWHERE,
    },
    fs_op => Row {
        name: "FsOp::decode",
        valid: |seed| {
            let mut out = Vec::new();
            FsOp::Write {
                ino: 2,
                size: 3 * 4096 + seed % 4096,
                extents: vec![(0, 0), (1, 4096), (3, 8192)],
            }
            .encode_into(&mut out);
            out
        },
        frame: None,
        decode: |b| FsOp::decode(b).map(|op| op.encode_into(&mut Vec::new())).is_ok(),
        expands: nothing,
        positions: EVERYWHERE,
    },
    fs_load => Row {
        name: "Lsfs::load",
        valid: |_| fs_image().to_vec(),
        frame: None,
        decode: |b| Lsfs::load(b).is_ok_and(|fs| fs.check().is_ok()),
        expands: nothing,
        positions: 256,
    },
    journal_record => Row {
        name: "Lsfs::load/journal record",
        valid: |seed| {
            let mut out = Vec::new();
            FsOp::Rename {
                from_parent: 2,
                from_name: "a".into(),
                to_parent: 1,
                to_name: format!("moved-{}", seed % 10),
            }
            .encode_into(&mut out);
            out
        },
        frame: Some(|b| with_journal_record(fs_image(), b)),
        decode: |b| Lsfs::load(b).is_ok_and(|fs| fs.check().is_ok()),
        expands: nothing,
        positions: EVERYWHERE,
    },
    journal_write => Row {
        // A `Write` pointing `/d/c` at two short blocks: a block pointer
        // holds the log offset in its low 48 bits and the bytes the log
        // stores above them, so the mutations reach the length field.
        name: "Lsfs::load/journal write of short blocks",
        valid: |seed| {
            let short = |offset: u64, len: u64| offset | len << 48;
            let mut out = Vec::new();
            FsOp::Write {
                ino: 4,
                size: 4096 + 900 - seed % 100,
                extents: vec![(0, short(0, 5)), (1, short(64, 900 - seed % 100))],
            }
            .encode_into(&mut out);
            out
        },
        frame: Some(|b| with_journal_record(fs_image(), b)),
        // Reads the two blocks, not the whole file: a mutated size may
        // name a sparse gigabyte.
        decode: |b| Lsfs::load(b).is_ok_and(|fs| fs.check().is_ok() && fs.read_at("/d/c", 0, 8192).is_ok()),
        expands: block_list,
        positions: EVERYWHERE,
    },
    disk => Row {
        name: "Disk::from_bytes",
        valid: |_| fs_image()[16..].to_vec(),
        frame: None,
        decode: |b| Disk::from_bytes(b).map(|d| d.to_bytes()).is_some(),
        expands: nothing,
        positions: 256,
    },
    blob_store => Row {
        name: "BlobStore::import",
        valid: |seed| {
            let mut store = BlobStore::in_memory();
            for i in 0..3u64 {
                store.put(&format!("blob-{i}"), vec![i as u8; (seed % 7 + i) as usize]).unwrap();
            }
            store.export()
        },
        frame: None,
        decode: |b| BlobStore::in_memory().import(b).is_some(),
        expands: nothing,
        positions: EVERYWHERE,
    },
    cas_root => Row {
        name: "ChunkStore::decode_root",
        valid: |seed| {
            let mut store = ChunkStore::new();
            for i in 0..3u64 {
                store.put(&format!("blob-{i}"), &vec![(seed + i) as u8; 3000]).unwrap();
            }
            let generation = store.persist_root().unwrap();
            let slot = &store.root_slots()[generation as usize % dv_cas::ROOT_SLOTS];
            slot[..slot.len() - 4].to_vec()
        },
        frame: Some(|b| [b, &crc32(b).to_le_bytes()[..]].concat()),
        decode: |b| ChunkStore::decode_root(b).is_some(),
        expands: nothing,
        positions: EVERYWHERE,
    },
    checkpoint_image => Row {
        name: "decode_image",
        valid: |seed| encode_image(&image(seed)),
        frame: None,
        decode: |b| decode_image(b).map(|i| encode_image(&i)).is_ok(),
        expands: nothing,
        positions: 512,
    },
    stored_image => Row {
        name: "load_image",
        // Raw, so kept pages are windows into the blob. Every other page
        // is stepped over, as revive steps over what a newer image
        // already supplied.
        valid: |seed| encode_image(&image(seed)),
        frame: None,
        decode: |b| load_kept(b).is_ok(),
        expands: plaintext,
        positions: 512,
    },
    stored_compressed_image => Row {
        name: "load_image/compressed",
        // The engine's form: each section compressed, the streams
        // joined. Read as a stream, the kept page decoded into a buffer
        // of its own and the other stepped over by its token headers; no
        // plaintext is built.
        valid: |seed| stored(&image(seed), true),
        frame: None,
        decode: |b| load_kept(b).is_ok(),
        expands: plaintext,
        positions: 512,
    },
    rle_stream => Row {
        name: "decompress",
        valid: |seed| compress(&Rng(seed).bytes(300)),
        frame: None,
        decode: |b| decompress(b).is_some(),
        expands: plaintext,
        positions: EVERYWHERE,
    },
    rle_container => Row {
        // Joined streams, the engine's form. Behind a `0x02` — the tag of
        // the chunked container earlier builds framed streams in — every
        // input is refused as malformed: by `decompress`, and by the
        // cursor `load_image` reads a compressed image through.
        name: "decompress/joined streams",
        valid: |seed| [compress(&Rng(seed).bytes(100)), compress(b"plain text")].concat(),
        frame: None,
        decode: |b| {
            let tagged = [&[0x02][..], b].concat();
            assert!(decompress(&tagged).is_none(), "a container is refused");
            let loaded = load_kept(&tagged);
            assert!(matches!(loaded, Err(ReviveError::BadCompression(2))), "{loaded:?}");
            decompress(b).is_some()
        },
        expands: plaintext,
        positions: EVERYWHERE,
    },
    engine_reopen => Row {
        // An engine reopened over a store holding the input as image 2,
        // between a full image 1 and an image 3 chained through it.
        name: "Checkpointer::reopen",
        valid: |seed| encode_image(&image(seed)),
        frame: None,
        decode: |b| reopen_over(b, false),
        expands: plaintext,
        positions: 512,
    },
    engine_reopen_compressed => Row {
        name: "Checkpointer::reopen/compressed",
        valid: |seed| stored(&image(seed), true),
        frame: None,
        decode: |b| reopen_over(b, true),
        expands: plaintext,
        positions: 512,
    },
    query_text => Row {
        name: "parse_query",
        valid: |seed| format!("app:editor \"quick fox\" -lazy from:{} to:90", seed % 50).into_bytes(),
        frame: None,
        decode: |b| parse_query(&String::from_utf8_lossy(b)).is_ok(),
        expands: nothing,
        positions: EVERYWHERE,
    },
    session_archive => Row {
        name: "DejaView::load_archive",
        valid: |_| archive().to_vec(),
        frame: None,
        decode: |b| DejaView::load_archive(Config::default(), b).is_ok(),
        expands: archive_screens,
        positions: 48,
    },
}

/// The table covers every decoder: each `pub fn` under `crates/*/src`
/// whose name starts `decode`, `from_bytes`, `import` or `load` (outside
/// test modules) has a row named after it.
#[test]
fn every_decoder_has_a_row() {
    let named: Vec<&str> = ROWS
        .iter()
        .map(|row| row.name.split('/').next().unwrap())
        .collect();
    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut found = Vec::new();
    for krate in std::fs::read_dir(&crates).unwrap() {
        let mut dirs = vec![krate.unwrap().path().join("src")];
        while let Some(dir) = dirs.pop() {
            let Ok(entries) = std::fs::read_dir(&dir) else {
                continue;
            };
            for entry in entries {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    dirs.push(path);
                } else if path.extension().is_some_and(|e| e == "rs") {
                    let source = std::fs::read_to_string(&path).unwrap();
                    found.extend(decoders_in(&source).into_iter().map(|d| (path.clone(), d)));
                }
            }
        }
    }
    assert!(found.len() >= 20, "the scan found only {found:?}");
    let missing: Vec<_> = found
        .iter()
        .filter(|(_, name)| !named.contains(&name.as_str()))
        .collect();
    assert!(missing.is_empty(), "decoders without a row: {missing:?}");
    assert!(ROWS.len() >= 37);
}

/// The decoders a source file defines, `Type::fn` for a method.
fn decoders_in(source: &str) -> Vec<String> {
    let mut owner = "";
    let mut out = Vec::new();
    for line in source.lines() {
        if line.starts_with("#[cfg(test)]") {
            break;
        }
        if let Some(header) = line.strip_prefix("impl") {
            let header = header.split('{').next().unwrap();
            let ty = header.rsplit(" for ").next().unwrap().trim();
            owner = ty.rsplit(' ').next().unwrap().split('<').next().unwrap();
        }
        let Some(rest) = line.trim_start().strip_prefix("pub fn ") else {
            continue;
        };
        let name = rest.split(['(', '<']).next().unwrap();
        if ["decode", "from_bytes", "import", "load"]
            .iter()
            .any(|prefix| name.starts_with(prefix))
        {
            out.push(if line.starts_with("pub fn") {
                name.to_string()
            } else {
                format!("{owner}::{name}")
            });
        }
    }
    out
}

/// An archive whose file-system image ends in an intact journal record
/// naming a directory that does not exist loads — on the journal before
/// that record. Replaying it used to panic `load_archive`.
#[test]
fn an_archive_whose_journal_names_a_missing_directory_loads() {
    let archive = archive();
    let mut body = Vec::new();
    FsOp::Create {
        parent: 999,
        name: "orphan".into(),
        ino: 77,
    }
    .encode_into(&mut body);
    // The file system is the archive's last section.
    let start = fs_section_start(archive);
    let mut damaged = archive[..start - 8].to_vec();
    damaged.put_bytes_u64(&with_journal_record(&archive[start..], &body));
    let mut restored = DejaView::load_archive(Config::default(), &damaged).unwrap();
    let sid = restored.take_me_back(Timestamp::from_secs(2)).unwrap();
    let session = restored.session(sid).unwrap();
    assert_eq!(session.vee.fs.read_all("/doc").unwrap(), b"draft");
}

/// Where the last section's bytes begin: walk the four length-prefixed
/// sections behind the header, which ends in the engine's blob prefix.
fn fs_section_start(archive: &[u8]) -> usize {
    let prefix = u32::from_le_bytes(archive[24..28].try_into().unwrap());
    let mut at = 28 + prefix as usize;
    for _ in 0..4 {
        let len = u64::from_le_bytes(archive[at..at + 8].try_into().unwrap());
        at += 8 + len as usize;
    }
    at + 8
}
