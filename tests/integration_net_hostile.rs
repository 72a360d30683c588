//! What a hostile peer can make the service allocate.
//!
//! A run-length screenshot costs its sender a few bytes however large
//! it claims to be, so a `VisualQuery` probe is the cheapest lever a
//! client has on the server's memory: 38 bytes on the wire once asked
//! the single-threaded service for a gibibyte. The rule under test: an
//! `N`-byte inbound frame never makes the service request more than
//! `K × N` bytes plus one session screen, on top of what the smallest
//! query of its kind costs — before the handshake or after it.
//!
//! The counting allocator is `tests/common/alloc.rs`.

#[path = "common/alloc.rs"]
mod alloc;

use dejaview::{Config, DejaView};
use dv_net::{
    decode_message, encode_frame_vec, encode_message_vec, DropReason, FrameDecoder,
    LoopbackTransport, Message, NetConfig, NetService, Transport, PROTOCOL_VERSION,
};

use alloc::requested;

const W: u32 = 320;
const H: u32 = 240;
const SCREEN_BYTES: u64 = W as u64 * H as u64 * 4;

/// Bytes the service may request per inbound byte: room for the
/// receive buffer's first few kilobytes, the poll's own bookkeeping and
/// a trace line.
const K: u64 = 256;

fn service() -> NetService {
    NetService::new(
        DejaView::new(Config {
            width: W,
            height: H,
            ..Config::default()
        }),
        NetConfig::default(),
    )
}

/// A framed `VisualQuery{Thumb}` whose probe claims `width × height`
/// pixels and fills them with a single run: 38 bytes on the wire.
fn probe_frame(width: u32, height: u32) -> Vec<u8> {
    let mut shot = Vec::new();
    for v in [width, height, width * height, 0x00AB_CDEF] {
        shot.extend_from_slice(&v.to_le_bytes());
    }
    let mut payload = vec![19u8]; // TAG_VISUAL_QUERY
    payload.extend_from_slice(&1u32.to_le_bytes()); // req_id
    payload.extend_from_slice(&4u32.to_le_bytes()); // k
    payload.push(0); // VisualProbe::Thumb
    payload.extend_from_slice(&(shot.len() as u32).to_le_bytes());
    payload.extend_from_slice(&shot);
    let frame = encode_frame_vec(&payload);
    assert_eq!(frame.len(), 38);
    frame
}

fn send_all(wire: &mut LoopbackTransport, bytes: &[u8]) {
    let mut off = 0;
    while off < bytes.len() {
        off += wire.send(&bytes[off..]).unwrap();
    }
}

/// Polls the service a few turns and returns what it asked the
/// allocator for meanwhile, with every drop it reported.
fn polled(svc: &mut NetService) -> (u64, Vec<(u64, DropReason)>) {
    let before = requested();
    let mut dropped = Vec::new();
    for _ in 0..4 {
        dropped.extend(svc.poll().dropped);
    }
    (requested() - before, dropped)
}

fn replies(wire: &mut LoopbackTransport) -> Vec<Message> {
    let mut dec = FrameDecoder::new();
    let mut out = Vec::new();
    while let Ok(Some(payload)) = dec.recv_frame(wire) {
        out.push(decode_message(payload).unwrap());
    }
    out
}

#[test]
fn a_probe_from_a_stranger_is_not_even_parsed() {
    let mut svc = service();
    let (server_end, mut wire) = LoopbackTransport::pair();
    svc.accept(server_end);
    // Let the connection's fixed set-up happen outside the measurement.
    svc.poll();

    // 16,384² pixels = 1 GiB, from a peer that never said Hello.
    let frame = probe_frame(16_384, 16_384);
    send_all(&mut wire, &frame);
    let (asked, dropped) = polled(&mut svc);
    assert!(
        asked <= K * frame.len() as u64,
        "{asked} bytes requested for a {}-byte frame before the handshake",
        frame.len()
    );
    assert_eq!(dropped, Vec::new());
    assert_eq!(svc.client_count(), 1, "parked, awaiting its handshake");
    assert_eq!(replies(&mut wire), Vec::new());
}

#[test]
fn a_welcomed_client_may_claim_one_session_screen_and_no_more() {
    let mut svc = service();
    let (server_end, mut wire) = LoopbackTransport::pair();
    let id = svc.accept(server_end);
    send_all(
        &mut wire,
        &encode_frame_vec(&encode_message_vec(&Message::Hello {
            version: PROTOCOL_VERSION,
            name: "prober".to_string(),
        })),
    );
    svc.poll();
    assert!(matches!(replies(&mut wire)[..], [Message::Welcome { .. }]));

    // What serving a visual query costs whatever it carries: the
    // one-pixel probe.
    send_all(&mut wire, &probe_frame(1, 1));
    let (fixed, _) = polled(&mut svc);
    assert!(matches!(
        replies(&mut wire)[..],
        [Message::VisualReply { req_id: 1, .. }]
    ));

    // A probe the size of the screen is served: its pixels are
    // materialised once, and the (empty) answer comes back.
    let frame = probe_frame(W, H);
    send_all(&mut wire, &frame);
    let (asked, dropped) = polled(&mut svc);
    assert!(
        asked <= fixed + K * frame.len() as u64 + SCREEN_BYTES,
        "{asked} bytes requested for a screen-sized probe, {fixed} for a one-pixel one"
    );
    assert_eq!(dropped, Vec::new());
    assert!(matches!(
        replies(&mut wire)[..],
        [Message::VisualReply { req_id: 1, .. }]
    ));

    // One pixel row more is refused from its header alone, and the
    // connection that sent it is closed as a protocol violation.
    let frame = probe_frame(W, H + 1);
    send_all(&mut wire, &frame);
    let (asked, dropped) = polled(&mut svc);
    assert!(
        asked <= K * frame.len() as u64,
        "{asked} bytes requested for a refused probe"
    );
    assert_eq!(dropped, vec![(id, DropReason::Corrupt)]);
    assert_eq!(svc.client_count(), 0);
}
