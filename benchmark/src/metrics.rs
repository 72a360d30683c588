//! The metric catalogue: every name the benchmark reports, with its
//! unit, its better direction and, for end-to-end metrics, the share
//! of the parent's median by which it may worsen. `BENCHMARK.json` at
//! the repository root records the same table; a unit test holds the
//! two together.

/// `(name, unit, better, bound)`.
pub const END_TO_END: [(&str, &str, &str, f64); 13] = [
    ("setup_s", "s", "lower", 0.25),
    ("record_steps_per_s", "1/s", "higher", 0.25),
    ("input_to_pixel_p50_ms", "ms", "lower", 0.25),
    ("checkpoint_stall_p90_ms", "ms", "lower", 0.25),
    ("browse_p50_ms", "ms", "lower", 0.25),
    ("browse_p90_ms", "ms", "lower", 0.25),
    ("search_p50_ms", "ms", "lower", 0.25),
    ("search_p90_ms", "ms", "lower", 0.25),
    ("revive_p50_ms", "ms", "lower", 0.25),
    ("revive_p90_ms", "ms", "lower", 0.25),
    ("playback_x_realtime", "x", "higher", 0.25),
    ("storage_bytes_per_s", "bytes/s", "lower", 0.02),
    ("peak_heap_mb", "MB", "lower", 0.05),
];

/// `(name, unit, better)`. Layer is the crate name before the first
/// dot; times are benchmark-side spans around the layer's public
/// calls, counts come from the program's public observability
/// snapshot and API return values.
pub const PER_LAYER: [(&str, &str, &str); 113] = [
    // display
    ("display.driver_busy_s", "s", "lower"),
    ("display.bare_apply_s", "s", "lower"),
    ("display.commands", "count", "lower"),
    ("display.command_bytes", "bytes", "lower"),
    // record
    ("record.sink_busy_s", "s", "lower"),
    ("record.log_bytes", "bytes", "lower"),
    ("record.keyframes", "count", "lower"),
    ("record.keyframe_bytes", "bytes", "lower"),
    ("record.seek_busy_s", "s", "lower"),
    ("record.seek_commands_per_seek", "count", "lower"),
    ("record.playback_commands_per_s", "1/s", "higher"),
    // access
    ("access.update_busy_s", "s", "lower"),
    ("access.text_events", "count", "lower"),
    ("access.text_shown", "count", "lower"),
    // index / tidx
    ("tidx.query_busy_s", "s", "lower"),
    ("tidx.ingested", "count", "lower"),
    ("tidx.filtered", "count", "higher"),
    ("tidx.filter_ratio", "ratio", "lower"),
    ("tidx.seals", "count", "lower"),
    ("tidx.compactions", "count", "higher"),
    ("tidx.compact_busy_s", "s", "lower"),
    ("tidx.segment_probes_per_query", "count", "lower"),
    ("index.bytes", "bytes", "lower"),
    ("core.portal_busy_s", "s", "lower"),
    // vidx
    ("vidx.keyframes", "count", "lower"),
    ("vidx.coalesced", "count", "higher"),
    ("vidx.strip_bytes", "bytes", "lower"),
    ("vidx.query_busy_s", "s", "lower"),
    ("vidx.probes_per_query", "count", "lower"),
    // vee
    ("vee.op_busy_s", "s", "lower"),
    // checkpoint
    ("checkpoint.call_busy_s", "s", "lower"),
    ("checkpoint.count", "count", "lower"),
    ("checkpoint.full", "count", "lower"),
    ("checkpoint.skip_ratio", "ratio", "higher"),
    ("checkpoint.raw_bytes", "bytes", "lower"),
    ("checkpoint.stored_bytes", "bytes", "lower"),
    ("checkpoint.sync_downtime_s", "s", "lower"),
    ("checkpoint.async_commit_s", "s", "lower"),
    ("checkpoint.inline_fallbacks", "count", "lower"),
    ("checkpoint.flush_wait_s", "s", "lower"),
    ("checkpoint.stall_p50_ms", "ms", "lower"),
    ("checkpoint.stall_p99_ms", "ms", "lower"),
    ("checkpoint.restore_busy_s", "s", "lower"),
    ("checkpoint.restore_chain_len", "count", "lower"),
    // lsfs (an in-memory device: sandbox numbers, not disk numbers)
    ("lsfs.blob_puts", "count", "lower"),
    ("lsfs.blob_put_bytes", "bytes", "lower"),
    ("lsfs.blob_gets", "count", "lower"),
    ("lsfs.journal_bytes", "bytes", "lower"),
    ("lsfs.data_bytes", "bytes", "lower"),
    ("lsfs.snapshots", "count", "lower"),
    ("lsfs.sync_busy_s", "s", "lower"),
    // cas (same in-memory store)
    ("cas.puts", "count", "lower"),
    ("cas.dedup_hits", "count", "higher"),
    ("cas.dedup_misses", "count", "lower"),
    ("cas.dedup_ratio", "ratio", "higher"),
    ("cas.physical_bytes", "bytes", "lower"),
    ("cas.gc_busy_s", "s", "lower"),
    ("cas.gc_reclaimed_bytes", "bytes", "higher"),
    // net
    ("net.service_poll_busy_s", "s", "lower"),
    ("net.client_poll_busy_s", "s", "lower"),
    ("net.bytes_sent", "bytes", "lower"),
    ("net.frames_sent", "count", "lower"),
    ("net.coalesce_events", "count", "lower"),
    ("net.encodes_per_batch", "ratio", "lower"),
    ("net.keyframe_encodes", "count", "lower"),
    ("net.rpc_seek_busy_s", "s", "lower"),
    // host
    ("host.checkpoint_busy_s", "s", "lower"),
    ("host.search_all_busy_s", "s", "lower"),
    ("host.visual_all_busy_s", "s", "lower"),
    ("host.compact_round_busy_s", "s", "lower"),
    ("host.compaction_rounds", "count", "lower"),
    ("host.quota_rejections", "count", "lower"),
    ("host.tenant_stall_spread", "ratio", "lower"),
    // core / obs / harness
    ("core.baseline_steps_per_s", "1/s", "higher"),
    ("core.input_busy_s", "s", "lower"),
    ("core.unattributed_frac.record", "ratio", "lower"),
    ("core.unattributed_frac.browse", "ratio", "lower"),
    ("core.unattributed_frac.search", "ratio", "lower"),
    ("core.unattributed_frac.revive", "ratio", "lower"),
    ("core.unattributed_frac.playback", "ratio", "lower"),
    ("core.input_to_pixel_p90_ms", "ms", "lower"),
    ("core.input_to_pixel_p99_ms", "ms", "lower"),
    ("core.browse_p99_ms", "ms", "lower"),
    ("core.search_p99_ms", "ms", "lower"),
    ("core.revive_p99_ms", "ms", "lower"),
    ("obs.trace_overhead_frac", "ratio", "lower"),
    ("obs.spans", "count", "lower"),
    ("harness.prefault_s", "s", "lower"),
    ("harness.alloc_bytes_per_step", "bytes", "lower"),
    ("harness.alloc_calls_per_step", "count", "lower"),
    ("harness.phase_wall_s.record", "s", "lower"),
    ("harness.phase_wall_s.flush", "s", "lower"),
    ("harness.phase_wall_s.browse", "s", "lower"),
    ("harness.phase_wall_s.search", "s", "lower"),
    ("harness.phase_wall_s.revive", "s", "lower"),
    ("harness.phase_wall_s.playback", "s", "lower"),
    ("harness.samples.input_to_pixel", "count", "higher"),
    ("harness.samples.checkpoint_stall", "count", "higher"),
    ("harness.samples.browse", "count", "higher"),
    ("harness.samples.search", "count", "higher"),
    ("harness.samples.revive", "count", "higher"),
    // record-phase self time per layer: the separation the workloads
    // were built to show
    ("layer.core.record_self_s", "s", "lower"),
    ("layer.display.record_self_s", "s", "lower"),
    ("layer.record.record_self_s", "s", "lower"),
    ("layer.access.record_self_s", "s", "lower"),
    ("layer.tidx.record_self_s", "s", "lower"),
    ("layer.vidx.record_self_s", "s", "lower"),
    ("layer.vee.record_self_s", "s", "lower"),
    ("layer.checkpoint.record_self_s", "s", "lower"),
    ("layer.cas.record_self_s", "s", "lower"),
    ("layer.net.record_self_s", "s", "lower"),
    ("layer.host.record_self_s", "s", "lower"),
    ("layer.harness.record_self_s", "s", "lower"),
];

/// A measured value under its catalogue name.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects measured values against one of the catalogues; a name that
/// is not in the catalogue is a bug in the harness.
pub struct MetricSet {
    catalogue: Vec<(&'static str, &'static str)>,
    values: Vec<Option<f64>>,
}

impl MetricSet {
    pub fn end_to_end() -> Self {
        MetricSet::over(END_TO_END.iter().map(|m| (m.0, m.1)).collect())
    }

    pub fn per_layer() -> Self {
        MetricSet::over(PER_LAYER.iter().map(|m| (m.0, m.1)).collect())
    }

    fn over(catalogue: Vec<(&'static str, &'static str)>) -> Self {
        let values = vec![None; catalogue.len()];
        MetricSet { catalogue, values }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .catalogue
            .iter()
            .position(|m| m.0 == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        self.values[i] = Some(value);
    }

    /// Every catalogue entry in order; one the workload has no layer
    /// for (host metrics on a single session, say) reads zero.
    pub fn finish(self) -> Vec<Metric> {
        self.catalogue
            .into_iter()
            .zip(self.values)
            .map(|((name, unit), value)| Metric {
                name,
                value: value.unwrap_or(0.0),
                unit,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` sits one level above this package.
    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    #[test]
    fn catalogue_and_benchmark_json_agree() {
        let json = benchmark_json();
        for (name, unit, better, bound) in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(json.contains(&entry), "missing or different: {entry}");
        }
        for (name, unit, better) in PER_LAYER {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(json.contains(&entry), "missing or different: {entry}");
        }
        let run_seconds = format!("\"run_seconds\": {},", crate::workloads::RUN_SECONDS);
        assert!(
            json.contains(&run_seconds),
            "missing or different: {run_seconds}"
        );
        let listed = json.matches("{\"name\": ").count();
        assert_eq!(listed, 4 + END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        for n in names {
            assert!(n.len() <= 64);
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
