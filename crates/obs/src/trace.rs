//! Span tracing and the bounded event ring.
//!
//! Discrete happenings — an injected fault, a retried commit, an inline
//! fallback — become [`TraceEvent`]s in a bounded ring buffer; when the
//! ring is full the oldest event is dropped and a drop counter bumped,
//! so a long session can never grow memory without bound. Event
//! timestamps come from the session clock (`dv-time`), which is the
//! `SimClock` in tests — sim-time runs produce deterministic traces.

use std::collections::VecDeque;

use dv_time::Timestamp;

/// Default ring capacity.
pub const DEFAULT_RING_CAPACITY: usize = 1024;

/// One structured event in the trace ring.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// Monotonic sequence number (survives ring wrap-around).
    pub seq: u64,
    /// Session time at which the event was recorded.
    pub time: Timestamp,
    /// Stream the event belongs to (`"lsfs"`, `"checkpoint"`, ...).
    pub stream: &'static str,
    /// Event name (`"fault.injected"`, `"server.retry"`, ...).
    pub name: &'static str,
    /// Free-form detail (site, error, attempt number).
    pub detail: String,
    /// Span duration in nanoseconds; 0 for instantaneous events.
    pub duration_nanos: u64,
}

/// Fixed-capacity ring of [`TraceEvent`]s.
#[derive(Debug)]
pub struct TraceRing {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
}

impl TraceRing {
    /// Creates a ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            buf: VecDeque::with_capacity(capacity.min(DEFAULT_RING_CAPACITY)),
            capacity: capacity.max(1),
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Appends an event, evicting the oldest when full.
    pub fn push(
        &mut self,
        time: Timestamp,
        stream: &'static str,
        name: &'static str,
        detail: String,
        duration_nanos: u64,
    ) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.buf.push_back(TraceEvent {
            seq,
            time,
            stream,
            name,
            detail,
            duration_nanos,
        });
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.buf.iter().cloned().collect()
    }

    /// Events evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut ring = TraceRing::new(2);
        for i in 0..5u64 {
            ring.push(Timestamp::from_nanos(i), "s", "e", format!("{i}"), 0);
        }
        let events = ring.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 3);
        assert_eq!(events[1].seq, 4);
        assert_eq!(ring.dropped(), 3);
        assert_eq!(ring.next_seq, 5);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut ring = TraceRing::new(0);
        ring.push(Timestamp::ZERO, "s", "a", String::new(), 0);
        ring.push(Timestamp::ZERO, "s", "b", String::new(), 0);
        assert_eq!(ring.events().len(), 1);
        assert_eq!(ring.events()[0].name, "b");
    }
}
