//! The timeline index file.
//!
//! "DejaView indexes recorded command and screenshot data using a special
//! timeline file ... chronologically ordered, fixed-size entries of the
//! time at which a screenshot was taken, the file location in which its
//! data was stored, and the file location of the first display command
//! that follows that screenshot" (§4.1). Fixed-size entries make the
//! lookup a binary search.

use dv_time::Timestamp;

/// One fixed-size timeline entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TimelineEntry {
    /// When the screenshot was taken.
    pub time: Timestamp,
    /// Offset of the screenshot in the screenshot store.
    pub screenshot_offset: u64,
    /// Offset of the first command logged after the screenshot.
    pub command_offset: u64,
}

/// Encoded size of one entry.
pub const ENTRY_LEN: usize = 24;

/// The chronologically ordered timeline index.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    entries: Vec<TimelineEntry>,
}

impl Timeline {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Appends an entry.
    ///
    /// # Panics
    ///
    /// Panics if `entry.time` is earlier than the last entry's time —
    /// the index must stay chronologically ordered.
    pub fn push(&mut self, entry: TimelineEntry) {
        if let Some(last) = self.entries.last() {
            assert!(
                entry.time >= last.time,
                "timeline entries must be chronological"
            );
        }
        self.entries.push(entry);
    }

    /// Returns the number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns whether the timeline is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns all entries.
    pub fn entries(&self) -> &[TimelineEntry] {
        &self.entries
    }

    /// Returns the size the index file occupies on disk.
    pub fn byte_len(&self) -> u64 {
        (self.entries.len() * ENTRY_LEN) as u64
    }

    /// Binary-searches for the entry with the greatest time less than or
    /// equal to `t` (§4.3).
    pub fn entry_at_or_before(&self, t: Timestamp) -> Option<&TimelineEntry> {
        let idx = self.entries.partition_point(|e| e.time <= t);
        idx.checked_sub(1).map(|i| &self.entries[i])
    }

    /// Returns the entries strictly between `after` and up to and
    /// including time `t`, used by fast-forward's screenshot walk. Empty
    /// when `t` is not after `after`.
    pub fn entries_in(&self, after: Timestamp, t: Timestamp) -> &[TimelineEntry] {
        let hi = self.entries.partition_point(|e| e.time <= t);
        let lo = self.entries[..hi].partition_point(|e| e.time <= after);
        &self.entries[lo..hi]
    }

    /// Serializes the index to its on-disk fixed-entry format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.entries.len() * ENTRY_LEN);
        for e in &self.entries {
            out.extend_from_slice(&e.time.as_nanos().to_le_bytes());
            out.extend_from_slice(&e.screenshot_offset.to_le_bytes());
            out.extend_from_slice(&e.command_offset.to_le_bytes());
        }
        out
    }

    /// Deserializes an index from [`Timeline::encode`] output.
    ///
    /// Returns `None` if the data is not a whole number of entries or is
    /// out of order.
    pub fn decode(data: &[u8]) -> Option<Timeline> {
        if !data.len().is_multiple_of(ENTRY_LEN) {
            return None;
        }
        let mut timeline = Timeline::new();
        for chunk in data.chunks_exact(ENTRY_LEN) {
            let time = Timestamp::from_nanos(u64::from_le_bytes(chunk[..8].try_into().ok()?));
            let screenshot_offset = u64::from_le_bytes(chunk[8..16].try_into().ok()?);
            let command_offset = u64::from_le_bytes(chunk[16..24].try_into().ok()?);
            if timeline.entries.last().is_some_and(|last| time < last.time) {
                return None;
            }
            timeline.entries.push(TimelineEntry {
                time,
                screenshot_offset,
                command_offset,
            });
        }
        Some(timeline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(ms: u64) -> TimelineEntry {
        TimelineEntry {
            time: Timestamp::from_millis(ms),
            screenshot_offset: ms * 100,
            command_offset: ms * 1000,
        }
    }

    fn sample() -> Timeline {
        let mut t = Timeline::new();
        for ms in [0, 100, 250, 600] {
            t.push(entry(ms));
        }
        t
    }

    #[test]
    fn lookup_finds_max_entry_at_or_before() {
        let t = sample();
        assert_eq!(
            t.entry_at_or_before(Timestamp::from_millis(100)).unwrap(),
            &entry(100)
        );
        assert_eq!(
            t.entry_at_or_before(Timestamp::from_millis(249)).unwrap(),
            &entry(100)
        );
        assert_eq!(
            t.entry_at_or_before(Timestamp::from_millis(10_000))
                .unwrap(),
            &entry(600)
        );
    }

    #[test]
    fn lookup_before_first_entry_is_none() {
        let mut t = Timeline::new();
        t.push(entry(100));
        assert!(t.entry_at_or_before(Timestamp::from_millis(99)).is_none());
        assert!(Timeline::new()
            .entry_at_or_before(Timestamp::from_millis(0))
            .is_none());
    }

    #[test]
    fn entries_in_range() {
        let t = sample();
        let range = t.entries_in(Timestamp::from_millis(0), Timestamp::from_millis(250));
        assert_eq!(range, &[entry(100), entry(250)]);
        let none = t.entries_in(Timestamp::from_millis(600), Timestamp::from_millis(700));
        assert!(none.is_empty());
        // A reversed range (fast-forward to the past) is empty, not a panic.
        let reversed = t.entries_in(Timestamp::from_millis(600), Timestamp::from_millis(100));
        assert!(reversed.is_empty());
    }

    #[test]
    #[should_panic(expected = "chronological")]
    fn out_of_order_push_panics() {
        let mut t = Timeline::new();
        t.push(entry(100));
        t.push(entry(50));
    }

    #[test]
    fn encode_decode_round_trip() {
        let t = sample();
        let encoded = t.encode();
        assert_eq!(encoded.len() as u64, t.byte_len());
        let decoded = Timeline::decode(&encoded).unwrap();
        assert_eq!(decoded.entries(), t.entries());
    }

    #[test]
    fn decode_rejects_bad_data() {
        assert!(Timeline::decode(&[0; 10]).is_none());
        // Out-of-order entries.
        let mut a = Timeline::new();
        a.push(entry(100));
        let mut b = Timeline::new();
        b.push(entry(0));
        let mut bytes = a.encode();
        bytes.extend_from_slice(&b.encode());
        assert!(Timeline::decode(&bytes).is_none());
    }
}
