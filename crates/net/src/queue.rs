//! Per-client bounded send queue with THINC-style slow-client
//! coalescing.
//!
//! A remote viewer that falls behind the display command stream must
//! not make the server buffer without bound (memory) or force every
//! other client to the slowest client's pace (latency). The classic
//! THINC answer, which DejaView inherits for its viewers, is that
//! display state is *coalesceable*: any backlog of display commands is
//! equivalent to one keyframe of the current framebuffer. So when a
//! client's queue hits its bound, the queue drops **all** pending live
//! frames and marks the client as needing a keyframe; the service then
//! enqueues a single fresh keyframe that already embodies every dropped
//! command. The client never observes a stale command after the
//! keyframe — the stream it sees is always a prefix of the truth plus
//! one atomic catch-up.
//!
//! Control frames (RPC replies, pings, the goodbye) are never
//! coalesced: they are small, latency-sensitive, and not expressible as
//! framebuffer state.
//!
//! Frames are held as `Arc<Vec<u8>>`, the buffer the frame was encoded
//! into, so fanning one encoded wire frame out to a thousand viewers is
//! a thousand refcount bumps, not a thousand copies — nor one: the
//! queue is the cheap half of the service's zero-copy fan-out.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::transport::{Transport, TransportError};

/// What happened to a frame offered to [`SendQueue::push_live`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PushOutcome {
    /// The frame was queued for delivery.
    Queued,
    /// The queue was full: the backlog (including this frame) was
    /// replaced by a pending-keyframe marker.
    Coalesced,
}

#[derive(PartialEq, Eq, Clone, Copy)]
enum Class {
    /// RPC replies, pings, goodbyes: never coalesced.
    Control,
    /// Live display commands: the coalesceable backlog.
    Live,
    /// A catch-up keyframe: not counted against the live bound (it is
    /// the *product* of coalescing) and superseded, not dropped, when
    /// the client falls behind again.
    Keyframe,
}

struct Outbound {
    bytes: Arc<Vec<u8>>,
    class: Class,
}

/// Bounded outbound frame queue for one client connection.
pub struct SendQueue {
    queue: VecDeque<Outbound>,
    /// Wire bytes of the frame currently being transmitted; a frame is
    /// popped from `queue` only once these drain, so a mid-frame stall
    /// never interleaves two frames.
    in_flight: Arc<Vec<u8>>,
    in_flight_off: usize,
    max_live: usize,
    /// Live frames currently queued, maintained incrementally so
    /// `push_live` stays O(1) instead of rescanning the queue on every
    /// fan-out push.
    live_count: usize,
    needs_keyframe: bool,
    coalesce_events: u64,
    dropped_frames: u64,
    sent_frames: u64,
}

impl SendQueue {
    /// Creates a queue admitting at most `max_live` pending live frames.
    pub fn new(max_live: usize) -> Self {
        SendQueue {
            queue: VecDeque::new(),
            in_flight: Arc::new(Vec::new()),
            in_flight_off: 0,
            max_live: max_live.max(1),
            live_count: 0,
            needs_keyframe: false,
            coalesce_events: 0,
            dropped_frames: 0,
            sent_frames: 0,
        }
    }

    /// Enqueues a control frame (never coalesced, never dropped).
    pub fn push_control(&mut self, bytes: impl Into<Arc<Vec<u8>>>) {
        self.queue.push_back(Outbound {
            bytes: bytes.into(),
            class: Class::Control,
        });
    }

    /// Offers a live display frame. When the live backlog is at its
    /// bound, the whole backlog *and this frame* are discarded and the
    /// client is flagged for one catch-up keyframe instead.
    ///
    /// The frame is shared, not owned: the service encodes each tapped
    /// command once and hands every viewer's queue the same `Arc`.
    pub fn push_live(&mut self, bytes: impl Into<Arc<Vec<u8>>>) -> PushOutcome {
        if self.live_count >= self.max_live {
            self.dropped_frames += self.live_count as u64 + 1;
            self.queue.retain(|o| o.class != Class::Live);
            self.live_count = 0;
            self.needs_keyframe = true;
            self.coalesce_events += 1;
            return PushOutcome::Coalesced;
        }
        self.queue.push_back(Outbound {
            bytes: bytes.into(),
            class: Class::Live,
        });
        self.live_count += 1;
        PushOutcome::Queued
    }

    /// Whether a coalesce left this client waiting for a keyframe.
    pub fn needs_keyframe(&self) -> bool {
        self.needs_keyframe
    }

    /// Flags this client for a catch-up keyframe without counting a
    /// coalesce. Used to seed a freshly attached viewer: the flag makes
    /// the fan-out skip commands tapped *before* the snapshot, and the
    /// keyframe itself is taken after fan-out, so non-idempotent
    /// commands (`CopyArea`) already embodied by the snapshot are never
    /// replayed on top of it.
    pub fn request_keyframe(&mut self) {
        self.needs_keyframe = true;
    }

    /// Consumes the pending-keyframe flag. The fresh keyframe embodies
    /// every frame ever dropped, so it *supersedes* whatever live state
    /// is still queued: stale live frames and older keyframes are
    /// discarded, and nothing newer can outrun it (later commands only
    /// ever queue behind it).
    pub fn satisfy_keyframe(&mut self, bytes: impl Into<Arc<Vec<u8>>>) {
        self.queue.retain(|o| o.class == Class::Control);
        self.live_count = 0;
        self.queue.push_back(Outbound {
            bytes: bytes.into(),
            class: Class::Keyframe,
        });
        self.needs_keyframe = false;
    }

    /// Frames (live + control) awaiting transmission, including the one
    /// partially on the wire.
    pub fn depth(&self) -> usize {
        self.queue.len() + usize::from(self.in_flight_off < self.in_flight.len())
    }

    /// Times the backlog collapsed into a keyframe.
    pub fn coalesce_events(&self) -> u64 {
        self.coalesce_events
    }

    /// Live frames discarded by coalescing.
    pub fn dropped_frames(&self) -> u64 {
        self.dropped_frames
    }

    /// Frames fully handed to the transport.
    pub fn sent_frames(&self) -> u64 {
        self.sent_frames
    }

    /// Pushes queued bytes into `transport` until it stops accepting
    /// them or the queue drains. Returns bytes moved this call.
    ///
    /// # Errors
    ///
    /// Propagates the transport's terminal errors.
    pub fn pump(&mut self, transport: &mut dyn Transport) -> Result<u64, TransportError> {
        let mut moved = 0u64;
        loop {
            if self.in_flight_off >= self.in_flight.len() {
                match self.queue.pop_front() {
                    Some(next) => {
                        if next.class == Class::Live {
                            self.live_count -= 1;
                        }
                        self.in_flight = next.bytes;
                        self.in_flight_off = 0;
                    }
                    None => return Ok(moved),
                }
            }
            let n = transport.send(&self.in_flight[self.in_flight_off..])?;
            if n == 0 {
                return Ok(moved);
            }
            self.in_flight_off += n;
            moved += n as u64;
            if self.in_flight_off >= self.in_flight.len() {
                self.sent_frames += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::LoopbackTransport;

    #[test]
    fn overflow_collapses_backlog_into_keyframe_marker() {
        let mut q = SendQueue::new(2);
        assert_eq!(q.push_live(vec![1]), PushOutcome::Queued);
        assert_eq!(q.push_live(vec![2]), PushOutcome::Queued);
        assert_eq!(q.push_live(vec![3]), PushOutcome::Coalesced);
        assert!(q.needs_keyframe());
        assert_eq!(q.depth(), 0, "live backlog dropped");
        assert_eq!(q.coalesce_events(), 1);
        assert_eq!(q.dropped_frames(), 3);
        q.satisfy_keyframe(vec![9]);
        assert!(!q.needs_keyframe());
        assert_eq!(q.depth(), 1);
    }

    #[test]
    fn control_frames_survive_coalescing() {
        let mut q = SendQueue::new(1);
        q.push_control(vec![0xC0]);
        q.push_live(vec![1]);
        q.push_live(vec![2]);
        assert!(q.needs_keyframe());
        assert_eq!(q.depth(), 1, "control frame kept");
    }

    #[test]
    fn keyframe_goes_out_before_newer_live_frames() {
        let mut q = SendQueue::new(1);
        q.push_live(vec![1]);
        q.push_live(vec![2]); // coalesce
        q.satisfy_keyframe(vec![0xAB]);
        q.push_live(vec![3]);
        let (mut a, mut b) = LoopbackTransport::pair();
        q.pump(&mut a).unwrap();
        let mut buf = [0u8; 16];
        let n = b.recv(&mut buf).unwrap();
        assert_eq!(&buf[..n], &[0xAB, 3]);
    }

    #[test]
    fn pump_resumes_mid_frame_after_stall() {
        let mut q = SendQueue::new(4);
        q.push_live(vec![7; 5000]);
        let (mut a, mut b) = LoopbackTransport::pair(); // 1400-byte chunks
        let first = q.pump(&mut a).unwrap();
        assert!(first >= 1400);
        let mut total = first;
        while total < 5000 {
            let moved = q.pump(&mut a).unwrap();
            assert!(moved > 0);
            total += moved;
            let mut sink = [0u8; 4096];
            while b.recv(&mut sink).unwrap() > 0 {}
        }
        assert_eq!(q.sent_frames(), 1);
        assert_eq!(q.depth(), 0);
    }

    /// Regression for the O(queue²) fan-out scan: the live counter is
    /// maintained incrementally and stays consistent across every
    /// operation that adds, drops, or transmits live frames.
    #[test]
    fn live_counter_tracks_pushes_pumps_and_retains() {
        let mut q = SendQueue::new(3);
        assert_eq!(q.live_count, 0);
        q.push_control(vec![0xC0]);
        q.push_live(vec![1]);
        q.push_live(vec![2]);
        assert_eq!(q.live_count, 2, "controls don't count");

        // Pumping pops frames into flight: the counter follows.
        let (mut a, mut b) = LoopbackTransport::pair();
        q.pump(&mut a).unwrap();
        assert_eq!(q.live_count, 0);
        let mut sink = [0u8; 64];
        while b.recv(&mut sink).unwrap() > 0 {}

        // A coalesce resets it along with the backlog...
        q.push_live(vec![3]);
        q.push_live(vec![4]);
        q.push_live(vec![5]);
        assert_eq!(q.live_count, 3);
        assert_eq!(q.push_live(vec![6]), PushOutcome::Coalesced);
        assert_eq!(q.live_count, 0);

        // ...and so does satisfy_keyframe's retain, even with live
        // frames queued after the flag (keyframe supersedes them).
        q.push_live(vec![7]);
        assert_eq!(q.live_count, 1);
        q.satisfy_keyframe(vec![0xAB]);
        assert_eq!(q.live_count, 0);
        q.push_live(vec![8]);
        assert_eq!(q.live_count, 1);
        assert_eq!(q.depth(), 2, "keyframe + one live");
    }

    /// Fan-out shares one allocation: pushing the same Arc to many
    /// queues must not clone the payload.
    #[test]
    fn live_frames_share_the_encoded_allocation() {
        let frame = Arc::new(vec![1, 2, 3]);
        let mut queues: Vec<SendQueue> = (0..64).map(|_| SendQueue::new(4)).collect();
        for q in &mut queues {
            q.push_live(frame.clone());
        }
        // 64 queue references + ours.
        assert_eq!(Arc::strong_count(&frame), 65);
    }
}
