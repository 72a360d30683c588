//! Display-record persistence.
//!
//! The original stores the display record as three on-disk files — the
//! command log, the screenshot file, and the timeline index (§4.1). This
//! module serializes a whole [`RecordStore`] into one archival blob and
//! back, validating all three files on load.

use std::sync::Arc;

use parking_lot::RwLock;

use dv_fault::{Put, ReadError, Reader};
use dv_time::Timestamp;

use crate::log::CommandLog;
use crate::recorder::{DisplayRecord, RecordStore};
use crate::screenshot::ScreenshotStore;
use crate::timeline::Timeline;

const MAGIC: &[u8; 8] = b"DVREC001";

/// A record decoding error.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RecordError(pub &'static str);

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "display record error: {}", self.0)
    }
}

impl std::error::Error for RecordError {}

impl From<ReadError> for RecordError {
    fn from(e: ReadError) -> Self {
        RecordError(e.as_str())
    }
}

/// Serializes a record store to an archival blob.
pub fn encode_record(store: &RecordStore) -> Vec<u8> {
    let log = store.log.as_bytes();
    let shots = store.shots.as_bytes();
    let timeline = store.timeline.encode();
    let mut out = Vec::with_capacity(MAGIC.len() + 50 + log.len() + shots.len() + timeline.len());
    out.extend_from_slice(MAGIC);
    out.put_u32(store.width);
    out.put_u32(store.height);
    match store.start {
        Some(t) => {
            out.push(1);
            out.put_u64(t.as_nanos());
        }
        None => out.push(0),
    }
    out.put_u64(store.end.as_nanos());
    out.put_bytes_u64(log);
    out.put_bytes_u64(shots);
    out.put_bytes_u64(&timeline);
    out
}

/// Deserializes a record store, validating the log, every screenshot,
/// and the timeline ordering.
pub fn decode_record(buf: &[u8]) -> Result<RecordStore, RecordError> {
    let mut r = Reader::new(buf);
    r.magic(MAGIC)?;
    let width = r.u32()?;
    let height = r.u32()?;
    let start = match r.u8()? {
        0 => None,
        1 => Some(Timestamp::from_nanos(r.u64()?)),
        _ => return Err(RecordError("bad start flag")),
    };
    let end = Timestamp::from_nanos(r.u64()?);
    let log = CommandLog::from_bytes(r.bytes_u64()?.to_vec())
        .map_err(|_| RecordError("corrupt command log"))?;
    let shots = ScreenshotStore::from_bytes(r.bytes_u64()?.to_vec())
        .ok_or(RecordError("corrupt screenshot store"))?;
    let timeline = Timeline::decode(r.bytes_u64()?).ok_or(RecordError("corrupt timeline"))?;
    r.finish()?;
    Ok(RecordStore {
        log,
        shots,
        timeline,
        width,
        height,
        start,
        end,
    })
}

/// Loads an archived record into a shareable handle for playback.
pub fn open_record(bytes: &[u8]) -> Result<DisplayRecord, RecordError> {
    Ok(Arc::new(RwLock::new(decode_record(bytes)?)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::playback::PlaybackEngine;
    use crate::recorder::{DisplayRecorder, RecorderConfig};
    use dv_display::{CommandSink, DisplayCommand, Rect};
    use dv_time::Duration;

    fn recorded() -> DisplayRecord {
        let config = RecorderConfig {
            keyframe_interval: Duration::from_secs(1),
            keyframe_min_change: 0.0,
            ..RecorderConfig::default()
        };
        let mut rec = DisplayRecorder::new(32, 32, config);
        for i in 0..30u32 {
            rec.submit(
                Timestamp::from_millis(i as u64 * 100),
                &DisplayCommand::SolidFill {
                    rect: Rect::new(i % 32, 0, 1, 32),
                    color: i,
                },
            );
        }
        rec.record()
    }

    #[test]
    fn archive_round_trips_with_identical_playback() {
        let record = recorded();
        let bytes = {
            let store = record.read();
            encode_record(&store)
        };
        let restored = open_record(&bytes).unwrap();
        for probe in [0u64, 500, 1_500, 2_900] {
            let mut a = PlaybackEngine::new(record.clone());
            let mut b = PlaybackEngine::new(restored.clone());
            a.seek(Timestamp::from_millis(probe)).unwrap();
            b.seek(Timestamp::from_millis(probe)).unwrap();
            assert_eq!(
                a.screenshot().content_hash(),
                b.screenshot().content_hash(),
                "probe {probe}ms"
            );
        }
        let (a, b) = (record.read(), restored.read());
        assert_eq!(a.width, b.width);
        assert_eq!(a.start, b.start);
        assert_eq!(a.end, b.end);
        assert_eq!(a.log.len(), b.log.len());
        assert_eq!(a.shots.len(), b.shots.len());
        assert_eq!(a.timeline.entries(), b.timeline.entries());
    }

    #[test]
    fn corrupt_archives_are_rejected() {
        let record = recorded();
        let bytes = encode_record(&record.read());
        assert!(decode_record(b"not a record").is_err());
        assert!(decode_record(&bytes[..bytes.len() / 2]).is_err());
        let mut extra = bytes.clone();
        extra.push(7);
        assert!(decode_record(&extra).is_err());
        // Flipping a byte inside the screenshot section breaks
        // validation rather than silently corrupting playback.
        let mut flipped = bytes.clone();
        let log_len = record.read().log.byte_len() as usize;
        let idx = 8 + 17 + 8 + log_len + 8 + 4; // Into the first screenshot.
        flipped[idx] ^= 0xFF;
        assert!(decode_record(&flipped).is_err());
    }
}
