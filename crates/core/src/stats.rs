//! Storage accounting across the record streams.
//!
//! Figure 4 decomposes storage growth into display state, display
//! indexing, process checkpoint state (raw and compressed), and file
//! system snapshot state; [`StorageBreakdown`] is that decomposition,
//! and [`StorageBreakdown::rates`] converts it to the MB/s the paper
//! plots.

use dv_time::Duration;

/// Absolute bytes per stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StorageBreakdown {
    /// Display record: command log + keyframes + timeline.
    pub display_bytes: u64,
    /// Text index.
    pub index_bytes: u64,
    /// Checkpoint images before compression.
    pub checkpoint_raw_bytes: u64,
    /// Checkpoint images as stored.
    pub checkpoint_stored_bytes: u64,
    /// File system log growth (data + journal).
    pub fs_bytes: u64,
    /// Storage failures absorbed as graceful degradation: failed
    /// checkpoint attempts, failed index flushes, and recorder batches
    /// or keyframes dropped by injected faults. Zero in a healthy run.
    pub degraded_events: u64,
}

impl StorageBreakdown {
    /// Total stored bytes (with checkpoints as stored).
    pub fn total_stored(&self) -> u64 {
        self.display_bytes + self.index_bytes + self.checkpoint_stored_bytes + self.fs_bytes
    }

    /// Returns the growth since an earlier measurement (saturating), so
    /// experiments can exclude setup-time seeding from growth rates.
    pub fn delta_since(&self, earlier: &StorageBreakdown) -> StorageBreakdown {
        StorageBreakdown {
            display_bytes: self.display_bytes.saturating_sub(earlier.display_bytes),
            index_bytes: self.index_bytes.saturating_sub(earlier.index_bytes),
            checkpoint_raw_bytes: self
                .checkpoint_raw_bytes
                .saturating_sub(earlier.checkpoint_raw_bytes),
            checkpoint_stored_bytes: self
                .checkpoint_stored_bytes
                .saturating_sub(earlier.checkpoint_stored_bytes),
            fs_bytes: self.fs_bytes.saturating_sub(earlier.fs_bytes),
            degraded_events: self.degraded_events.saturating_sub(earlier.degraded_events),
        }
    }

    /// Converts to per-stream MB/s over `elapsed` session time.
    ///
    /// A zero `elapsed` yields all-zero rates rather than NaN/infinity:
    /// a measurement window that never advanced has recorded no growth,
    /// and callers (reports, JSON exports) must never see non-finite
    /// numbers.
    pub fn rates(&self, elapsed: Duration) -> StorageRates {
        let secs = elapsed.as_secs_f64();
        if secs <= 0.0 {
            return StorageRates::default();
        }
        let mbps = |bytes: u64| bytes as f64 / 1e6 / secs;
        StorageRates {
            display_mbps: mbps(self.display_bytes),
            index_mbps: mbps(self.index_bytes),
            checkpoint_raw_mbps: mbps(self.checkpoint_raw_bytes),
            checkpoint_stored_mbps: mbps(self.checkpoint_stored_bytes),
            fs_mbps: mbps(self.fs_bytes),
        }
    }
}

/// Deferred write-back pipeline accounting for one checkpoint engine
/// (§5.1.2: "deferring writing the checkpoint image to disk until after
/// the session resumes").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineBreakdown {
    /// Captures handed to the commit pipeline.
    pub queued: u64,
    /// Captures whose blobs have committed.
    pub committed: u64,
    /// Captures currently queued or committing.
    pub inflight: u64,
    /// Captures the session thread settled because the queue was full.
    pub inline_fallbacks: u64,
    /// Session-thread downtime: quiesce + capture + snapshot (and,
    /// with write-back deferral ablated, the commit).
    pub sync_downtime: Duration,
    /// Enqueue-to-resolve time of commits, on the engine's sleeper
    /// timebase — work deferred past the downtime window.
    pub async_commit: Duration,
}

impl PipelineBreakdown {
    /// Fraction of total checkpoint work overlapped with the running
    /// session. A zero denominator (no checkpoint work at all) yields
    /// 0.0 rather than NaN, so the value is always a finite fraction in
    /// `[0, 1]`.
    pub fn overlap_fraction(&self) -> f64 {
        let sync = self.sync_downtime.as_secs_f64();
        let async_ = self.async_commit.as_secs_f64();
        if sync + async_ <= 0.0 {
            return 0.0;
        }
        async_ / (sync + async_)
    }
}

/// Per-stream growth rates in MB/s.
#[derive(Clone, Copy, Debug, Default)]
pub struct StorageRates {
    /// Display record growth.
    pub display_mbps: f64,
    /// Index growth.
    pub index_mbps: f64,
    /// Uncompressed checkpoint growth.
    pub checkpoint_raw_mbps: f64,
    /// Stored (possibly compressed) checkpoint growth.
    pub checkpoint_stored_mbps: f64,
    /// File system growth.
    pub fs_mbps: f64,
}

impl StorageRates {
    /// Total stored growth rate.
    pub fn total_mbps(&self) -> f64 {
        self.display_mbps + self.index_mbps + self.checkpoint_stored_mbps + self.fs_mbps
    }

    /// Total growth rate with uncompressed checkpoints (the upper series
    /// in Figure 4).
    pub fn total_raw_mbps(&self) -> f64 {
        self.display_mbps + self.index_mbps + self.checkpoint_raw_mbps + self.fs_mbps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_divide_by_elapsed() {
        let b = StorageBreakdown {
            display_bytes: 10_000_000,
            index_bytes: 1_000_000,
            checkpoint_raw_bytes: 40_000_000,
            checkpoint_stored_bytes: 8_000_000,
            fs_bytes: 2_000_000,
            degraded_events: 0,
        };
        let r = b.rates(Duration::from_secs(10));
        assert!((r.display_mbps - 1.0).abs() < 1e-9);
        assert!((r.checkpoint_raw_mbps - 4.0).abs() < 1e-9);
        assert!((r.checkpoint_stored_mbps - 0.8).abs() < 1e-9);
        assert!((r.total_mbps() - (1.0 + 0.1 + 0.8 + 0.2)).abs() < 1e-9);
        assert!(r.total_raw_mbps() > r.total_mbps());
    }

    #[test]
    fn totals_sum_streams() {
        let b = StorageBreakdown {
            display_bytes: 1,
            index_bytes: 2,
            checkpoint_raw_bytes: 100,
            checkpoint_stored_bytes: 4,
            fs_bytes: 8,
            degraded_events: 0,
        };
        assert_eq!(b.total_stored(), 15);
    }

    #[test]
    fn zero_elapsed_yields_zero_rates() {
        let b = StorageBreakdown {
            display_bytes: 123,
            index_bytes: 456,
            checkpoint_raw_bytes: 789,
            checkpoint_stored_bytes: 101,
            fs_bytes: 112,
            degraded_events: 0,
        };
        let r = b.rates(Duration::ZERO);
        assert_eq!(r.display_mbps, 0.0);
        assert_eq!(r.index_mbps, 0.0);
        assert_eq!(r.checkpoint_raw_mbps, 0.0);
        assert_eq!(r.checkpoint_stored_mbps, 0.0);
        assert_eq!(r.fs_mbps, 0.0);
        assert!(r.total_mbps().is_finite());
        assert!(r.total_raw_mbps().is_finite());
    }

    #[test]
    fn overlap_fraction_zero_denominator_is_zero_not_nan() {
        let p = PipelineBreakdown {
            queued: 3,
            committed: 3,
            sync_downtime: Duration::ZERO,
            async_commit: Duration::ZERO,
            ..PipelineBreakdown::default()
        };
        let f = p.overlap_fraction();
        assert_eq!(f, 0.0);
        assert!(f.is_finite());
    }

    #[test]
    fn overlap_fraction_splits_sync_and_async_work() {
        let p = PipelineBreakdown {
            sync_downtime: Duration::from_millis(10),
            async_commit: Duration::from_millis(30),
            ..PipelineBreakdown::default()
        };
        assert!((p.overlap_fraction() - 0.75).abs() < 1e-9);
        assert_eq!(PipelineBreakdown::default().overlap_fraction(), 0.0);
    }
}
