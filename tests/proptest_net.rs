//! Property tests for the dv-net wire layer.
//!
//! Three invariants keep remote viewing trustworthy:
//!
//! 1. The frame codec is chunking-agnostic: however the transport
//!    fragments the byte stream, the reassembled payload sequence is
//!    exactly what was framed.
//! 2. Damage to the stream is always *detected*: truncation reads as
//!    "need more data" and any single-byte flip reads as a clean
//!    framing error — never a silently different payload, never a
//!    panic.
//! 3. Slow-client coalescing never delivers stale display state: after
//!    a backlog collapses, the next live thing a client sees is a
//!    keyframe covering everything dropped, and no frame older than
//!    that keyframe ever follows it.

use proptest::prelude::*;

use dv_net::queue::PushOutcome;
use dv_net::{
    encode_frame, encode_frame_vec, FrameDecoder, LoopbackTransport, SendQueue, Transport,
};

/// Splits `wire` at the given fractional cut points and feeds the
/// chunks in order, collecting every decoded payload.
fn decode_chunked(wire: &[u8], cuts: &[usize]) -> Vec<Vec<u8>> {
    let mut offsets: Vec<usize> = cuts.iter().map(|c| c % (wire.len() + 1)).collect();
    offsets.push(0);
    offsets.push(wire.len());
    offsets.sort_unstable();
    let mut dec = FrameDecoder::new();
    let mut out = Vec::new();
    for pair in offsets.windows(2) {
        dec.feed(&wire[pair[0]..pair[1]]);
        while let Some(payload) = dec.next_frame().expect("clean stream") {
            out.push(payload.to_vec());
        }
    }
    out
}

proptest! {
    /// Invariant 1: arbitrary payload sequences survive arbitrary
    /// re-chunking byte-for-byte.
    #[test]
    fn frames_round_trip_under_arbitrary_chunking(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..300), 1..8),
        cuts in prop::collection::vec(any::<usize>(), 0..24),
    ) {
        let mut wire = Vec::new();
        for p in &payloads {
            encode_frame(p, &mut wire);
        }
        let decoded = decode_chunked(&wire, &cuts);
        prop_assert_eq!(decoded, payloads);
    }

    /// Invariant 2a: truncation at every byte offset is "need more
    /// data" for the cut frame — complete frames before the cut still
    /// decode, nothing after the cut does, and nothing panics.
    #[test]
    fn truncation_at_every_offset_is_clean(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..120), 1..5),
    ) {
        let mut wire = Vec::new();
        let mut boundaries = Vec::new(); // wire offset where frame i ends
        for p in &payloads {
            encode_frame(p, &mut wire);
            boundaries.push(wire.len());
        }
        for cut in 0..wire.len() {
            let mut dec = FrameDecoder::new();
            dec.feed(&wire[..cut]);
            let mut got = Vec::new();
            while let Some(p) = dec.next_frame().expect("truncation is never corruption") {
                got.push(p.to_vec());
            }
            let complete = boundaries.iter().filter(|b| **b <= cut).count();
            prop_assert_eq!(got.len(), complete, "cut at {}", cut);
            prop_assert_eq!(&got[..], &payloads[..complete]);
            // Feeding the remainder completes the stream exactly.
            dec.feed(&wire[cut..]);
            let mut rest = got;
            while let Some(p) = dec.next_frame().expect("clean stream") {
                rest.push(p.to_vec());
            }
            prop_assert_eq!(&rest[..], &payloads[..]);
        }
    }

    /// Invariant 2b: a single flipped byte anywhere in a frame is
    /// *detected* — the decoder yields an error or waits for more
    /// bytes, but never hands back a payload as if nothing happened.
    #[test]
    fn any_single_byte_flip_is_detected(
        payload in prop::collection::vec(any::<u8>(), 0..200),
        flip in any::<u8>().prop_map(|b| b | 1),
    ) {
        let wire = encode_frame_vec(&payload);
        for pos in 0..wire.len() {
            let mut mangled = wire.clone();
            mangled[pos] ^= flip;
            let mut dec = FrameDecoder::new();
            dec.feed(&mangled);
            match dec.next_frame() {
                // Length prefix grew: the decoder waits for bytes that
                // will never come (the connection dies by timeout).
                Ok(None) => {}
                Ok(Some(_)) => prop_assert!(false, "flip at {} went undetected", pos),
                // CRC mismatch or oversized length: clean rejection.
                Err(_) => {}
            }
        }
    }

    /// Invariant 3: under arbitrary interleavings of live pushes and
    /// transport pumping (with a stingy queue bound forcing frequent
    /// coalescing), a client never observes display state older than
    /// the latest keyframe it received — every live frame delivered
    /// after a keyframe carries a sequence number above everything the
    /// keyframe covered, and live frames arrive in increasing order.
    #[test]
    fn coalescing_never_delivers_stale_before_keyframe(
        ops in prop::collection::vec(any::<u8>(), 1..200),
        max_live in 1usize..4,
    ) {
        // 9-byte records as "frames": [kind][seq: u64 LE]. Kind 0 is a
        // live delta, kind 1 a keyframe whose seq is the highest delta
        // it covers.
        fn rec(kind: u8, seq: u64) -> Vec<u8> {
            let mut v = vec![kind];
            v.extend_from_slice(&seq.to_le_bytes());
            v
        }

        let (mut tx, mut rx) = LoopbackTransport::pair();
        let mut q = SendQueue::new(max_live);
        let mut seq: u64 = 0;
        let mut delivered = Vec::new();
        let drain = |rx: &mut LoopbackTransport, delivered: &mut Vec<u8>| {
            let mut buf = [0u8; 4096];
            loop {
                match rx.recv(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => delivered.extend_from_slice(&buf[..n]),
                }
            }
        };

        for op in ops {
            match op % 3 {
                // A burst of live deltas.
                0 | 1 => {
                    for _ in 0..(op % 5) + 1 {
                        seq += 1;
                        if q.push_live(rec(0, seq)) == PushOutcome::Coalesced {
                            // The service answers a coalesce with a
                            // fresh keyframe covering everything so far.
                            q.satisfy_keyframe(rec(1, seq));
                        }
                    }
                }
                // The transport drains for a while.
                _ => {
                    q.pump(&mut tx).expect("loopback never fails");
                    drain(&mut rx, &mut delivered);
                }
            }
        }
        q.pump(&mut tx).expect("loopback never fails");
        drain(&mut rx, &mut delivered);

        // Replay the delivered records against the invariant.
        prop_assert_eq!(delivered.len() % 9, 0, "torn record");
        let mut floor: u64 = 0; // highest state the client must exceed
        for chunk in delivered.chunks(9) {
            let kind = chunk[0];
            let seq = u64::from_le_bytes(chunk[1..9].try_into().unwrap());
            match kind {
                0 => {
                    prop_assert!(
                        seq > floor,
                        "stale delta {} delivered after state {}",
                        seq,
                        floor
                    );
                    floor = seq;
                }
                1 => {
                    prop_assert!(
                        seq >= floor,
                        "keyframe {} regressed below state {}",
                        seq,
                        floor
                    );
                    floor = seq;
                }
                _ => prop_assert!(false, "unknown record kind {}", kind),
            }
        }
    }
}
