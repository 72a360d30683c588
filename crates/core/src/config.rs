//! DejaView configuration.
//!
//! "DejaView users can choose to trade-off record quality versus storage
//! consumption" (§2): display resolution and update frequency, the
//! checkpoint policy parameters, full/incremental cadence, compression,
//! search-cache size, and the revive-time network policy are all
//! configurable here.

use dv_checkpoint::{EngineConfig, NetworkPolicy, PolicyConfig};
use dv_fault::FaultPlane;
use dv_lsfs::ReadLatency;
use dv_obs::Obs;
use dv_record::RecorderConfig;
use dv_time::Duration;

/// Top-level configuration for a DejaView server.
pub struct Config {
    /// Live screen width in pixels.
    pub width: u32,
    /// Live screen height in pixels.
    pub height: u32,
    /// Display recording quality (resolution scale, update frequency,
    /// keyframe cadence).
    pub recorder: RecorderConfig,
    /// Checkpoint engine parameters (full cadence, the lane's queue
    /// depth, and — for a lone session, which builds its commit pool
    /// from them — compression and the pool's worker count and retry
    /// policy; with `commit_workers == 0` the session thread runs the
    /// commit steps itself). Sessions revived from this one commit
    /// through the same pool.
    pub engine: EngineConfig,
    /// Checkpoint policy parameters and extension rules.
    pub policy: PolicyConfig,
    /// Network policy applied to revived sessions.
    pub revive_network: NetworkPolicy,
    /// Capacity of the search-result screenshot cache (the paper's
    /// tunable LRU, §4.4).
    pub search_cache: usize,
    /// Optional read-latency model for a lone session's checkpoint
    /// store (used by the Figure 7 cached/uncached comparison).
    pub store_latency: Option<ReadLatency>,
    /// Attach the display recorder (disable to measure a run without
    /// display recording, as in Figure 2's component isolation).
    pub enable_display_recording: bool,
    /// Attach the text-capture daemon and the time-sharded index it
    /// feeds (dv-tidx): the open shard seals into immutable segments
    /// at checkpoint boundaries and queries fan out across shards.
    pub enable_text_capture: bool,
    /// Session-time width of the open index shard and the open visual
    /// strip; once the horizon has advanced this far past the buffer's
    /// start, the next checkpoint seals it.
    pub index_shard_window: Duration,
    /// Thumbnail-keyed visual recall: fingerprint every persisted
    /// keyframe into the dv-vidx strip, sealed at checkpoint
    /// boundaries like the sharded text index. Requires display
    /// recording.
    pub enable_visual_index: bool,
    /// Fault-injection plane installed into every storage component
    /// (disk log, journal, blob store, checkpoint writeback, recorder
    /// persistence, index flush). Disabled by default: the sites are
    /// no-ops until a test arms a plan.
    pub fault_plane: FaultPlane,
    /// Observability handle threaded through every recording stream.
    /// Left disabled (the default), the server builds its own
    /// session-time handle so [`crate::DejaView::observability`] always
    /// works; pass [`Obs::wall`] to profile with wall-clock span
    /// durations instead.
    pub obs: Obs,
    /// Blob-name prefix for this session's checkpoints. `None` keeps
    /// the engine default (`ckpt`); a host sets a per-tenant prefix so
    /// tenants sharing a store can never collide.
    pub blob_prefix: Option<String>,
    /// Initial backoff between storage retries; doubles per attempt
    /// (advanced on the session clock, so it is deterministic).
    pub io_retry_backoff: Duration,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            width: 1024,
            height: 768,
            recorder: RecorderConfig::default(),
            engine: EngineConfig::default(),
            policy: PolicyConfig::default(),
            revive_network: NetworkPolicy::default(),
            search_cache: 32,
            store_latency: None,
            enable_display_recording: true,
            enable_text_capture: true,
            index_shard_window: Duration::from_secs(30),
            enable_visual_index: true,
            fault_plane: FaultPlane::disabled(),
            obs: Obs::disabled(),
            blob_prefix: None,
            io_retry_backoff: Duration::from_millis(50),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let config = Config::default();
        assert_eq!(config.width, 1024);
        assert_eq!(config.height, 768);
        assert_eq!(config.policy.min_interval.as_millis(), 1_000);
        assert_eq!(config.policy.text_edit_interval.as_millis(), 10_000);
        assert!((config.policy.min_display_fraction - 0.05).abs() < 1e-9);
        assert!(!config.revive_network.default_enabled);
        assert!(config.revive_network.new_apps_enabled);
        // The shard window is far wider than the policy's checkpoint
        // cadence, so short sessions never leave the open shard.
        assert!(config.enable_text_capture);
        assert_eq!(config.index_shard_window.as_millis(), 30_000);
        // Visual recall ships on; its PDA-sized thumbnail and a
        // coalescing threshold safely inside the exact-recall radius
        // are dv-vidx constants, like the lifecycle's fan-in and cache.
        assert!(config.enable_visual_index);
        assert_eq!((dv_vidx::THUMB_W, dv_vidx::THUMB_H), (64, 48));
        assert_eq!(dv_vidx::NEAR_DUP_BITS, 8);
        assert_eq!(dv_lsfs::sealed::COMPACT_FANIN, 4);
        assert_eq!(dv_lsfs::sealed::SEGMENT_CACHE, 16);
        // The commit pool ships without threads: the session thread
        // commits, after resume, until a deployment opts into workers.
        assert_eq!(config.engine.commit_workers, 0);
        assert_eq!(config.engine.commit_queue_depth, 4);
        assert_eq!(config.engine.commit_retry_limit, 3);
        assert_eq!(config.engine.commit_retry_backoff.as_millis(), 50);
    }
}
