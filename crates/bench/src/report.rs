//! Paper-style table printing for the `reproduce` binary.

use crate::experiments::{
    AblationRow, BrowseSearchRow, CheckpointRow, CrashRow, DedupRow, DeferredRow, FaultRow,
    HostReport, IndexReport, MirrorAblationRow, NetRow, ObsReport, OverheadRow, PlaybackRow,
    QualityRow, ReviveRow, StorageRow, Table1Row, VisualReport,
};
use dv_checkpoint::PolicyStats;
use std::sync::atomic::{AtomicBool, Ordering};

static QUIET: AtomicBool = AtomicBool::new(false);

/// Mutes every table printer in this module. Tests that drive the
/// experiment harness flip this on so `cargo test -q` output stays
/// clean; the `reproduce` binary leaves it off.
pub fn set_quiet(quiet: bool) {
    QUIET.store(quiet, Ordering::Relaxed);
}

/// Whether report printing is muted.
pub fn is_quiet() -> bool {
    QUIET.load(Ordering::Relaxed)
}

/// `println!` that respects [`set_quiet`].
macro_rules! out {
    ($($arg:tt)*) => {
        if !is_quiet() {
            println!($($arg)*);
        }
    };
}

/// `print!` that respects [`set_quiet`].
macro_rules! outp {
    ($($arg:tt)*) => {
        if !is_quiet() {
            print!($($arg)*);
        }
    };
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn vms(d: dv_time::Duration) -> f64 {
    d.as_nanos() as f64 / 1e6
}

/// Prints the deferred write-back comparison.
pub fn print_deferred(rows: &[DeferredRow]) {
    out!("Deferred write-back: per-checkpoint session-thread stall, 0 commit workers (inline) vs 1/2/4");
    out!(
        "{:<14} {:>6} {:>11} {:>11} {:>10} {:>8} {:>9}  {:<18}",
        "config",
        "ckpts",
        "stall(ms)",
        "max(ms)",
        "wall(ms)",
        "MB/s",
        "fallback",
        "fingerprint"
    );
    out!("{:-<96}", "");
    for row in rows {
        out!(
            "{:<14} {:>6} {:>11.3} {:>11.3} {:>10.1} {:>8.1} {:>9}  {:016x}",
            row.config,
            row.checkpoints,
            ms(row.mean_stall),
            ms(row.max_stall),
            ms(row.total_wall),
            row.throughput_mbps,
            row.inline_fallbacks,
            row.fingerprint,
        );
    }
    if let Some(inline) = rows.iter().find(|r| r.workers == 0) {
        let matched = rows.iter().all(|r| r.fingerprint == inline.fingerprint);
        for row in rows.iter().filter(|r| r.workers >= 1) {
            out!(
                "  {}: stall {:.2}x lower than inline",
                row.config,
                inline.mean_stall.as_secs_f64() / row.mean_stall.as_secs_f64().max(1e-12),
            );
        }
        out!(
            "  restore results across configurations: {}",
            if matched { "identical" } else { "DIVERGED" }
        );
    }
}

/// Prints the fault-injection matrix.
pub fn print_faults(rows: &[FaultRow]) {
    out!("Fault injection: every storage site x every fault kind (every 2nd check fails)");
    out!(
        "{:<26} {:<11} {:>8} {:>8} {:>6} {:>7} {:>7}",
        "site",
        "fault",
        "injected",
        "degraded",
        "ckpts",
        "browse",
        "search"
    );
    out!("{:-<80}", "");
    for row in rows {
        out!(
            "{:<26} {:<11} {:>8} {:>8} {:>6} {:>7} {:>7}",
            row.site,
            row.fault,
            row.injected,
            row.degraded,
            row.checkpoints,
            if row.browse_ok { "ok" } else { "FAIL" },
            if row.search_ok { "ok" } else { "FAIL" },
        );
    }
}

/// Prints the power-cut recovery sweep.
pub fn print_crash(rows: &[CrashRow]) {
    out!("Crash consistency: power cut at increasing log prefixes, then reopen");
    out!(
        "{:<10} {:>10} {:>10} {:>10}",
        "cut",
        "log-bytes",
        "recovered",
        "snapshots"
    );
    out!("{:-<44}", "");
    for row in rows {
        out!(
            "{:<10} {:>10} {:>10} {:>10}",
            format!("{:.0}%", row.cut_fraction * 100.0),
            row.cut_bytes,
            if row.recovered { "ok" } else { "FAIL" },
            row.snapshots,
        );
    }
}

/// Prints Table 1.
pub fn print_table1(rows: &[Table1Row]) {
    out!("Table 1: Application scenarios");
    out!("{:-<100}", "");
    for row in rows {
        out!("{:<8} {}", row.name, row.description);
        out!(
            "{:<8}   -> {} steps over {}, {} display commands, {} text instances",
            "",
            row.steps,
            row.duration,
            row.commands,
            row.text_instances
        );
    }
}

/// Prints Figure 2 as normalized execution times.
pub fn print_fig2(rows: &[OverheadRow]) {
    out!("Figure 2: Recording runtime overhead (normalized execution time, baseline = 1.00)");
    out!(
        "{:<8} {:>10} {:>9} {:>9} {:>9} {:>9}",
        "scenario",
        "base(ms)",
        "display",
        "process",
        "index",
        "full"
    );
    out!("{:-<60}", "");
    for row in rows {
        out!(
            "{:<8} {:>10.1} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
            row.name,
            ms(row.baseline),
            row.display,
            row.process,
            row.index,
            row.full
        );
    }
}

/// Prints Figure 3 as per-phase mean latencies.
pub fn print_fig3(rows: &[CheckpointRow]) {
    out!("Figure 3: Total checkpoint latency (mean per checkpoint, ms)");
    out!(
        "{:<8} {:>6} {:>9} {:>8} {:>8} {:>8} {:>10} {:>9} {:>9}",
        "scenario",
        "ckpts",
        "pre-ckpt",
        "quiesce",
        "capture",
        "fs-snap",
        "writeback",
        "downtime",
        "max-down"
    );
    out!("{:-<92}", "");
    for row in rows {
        out!(
            "{:<8} {:>6} {:>9.3} {:>8.3} {:>8.3} {:>8.3} {:>10.3} {:>9.3} {:>9.3}",
            row.name,
            row.checkpoints,
            vms(row.pre_checkpoint),
            vms(row.quiesce),
            vms(row.capture),
            vms(row.fs_snapshot),
            vms(row.writeback),
            vms(row.downtime),
            vms(row.max_downtime),
        );
    }
}

/// Prints Figure 4 as per-stream storage growth rates.
pub fn print_fig4(rows: &[StorageRow]) {
    out!("Figure 4: Recording storage growth (MB/s of session time)");
    out!(
        "{:<8} {:>9} {:>7} {:>7} {:>9} {:>11} {:>8} {:>10}",
        "scenario",
        "display",
        "index",
        "fs",
        "process",
        "proc(gz)",
        "total",
        "total(gz)"
    );
    out!("{:-<78}", "");
    for row in rows {
        out!(
            "{:<8} {:>9.3} {:>7.3} {:>7.3} {:>9.3} {:>11.3} {:>8.3} {:>10.3}",
            row.name,
            row.display_mbps,
            row.index_mbps,
            row.fs_mbps,
            row.process_mbps,
            row.process_compressed_mbps,
            row.total_mbps(),
            row.total_compressed_mbps(),
        );
    }
}

/// Prints Figure 5 as browse/search latencies.
pub fn print_fig5(rows: &[BrowseSearchRow]) {
    out!("Figure 5: Browse and search latency (mean, ms)");
    out!(
        "{:<8} {:>10} {:>9} {:>10} {:>13}",
        "scenario",
        "search",
        "browse",
        "queries",
        "browse-points"
    );
    out!("{:-<55}", "");
    for row in rows {
        out!(
            "{:<8} {:>10.3} {:>9.3} {:>10} {:>13}",
            row.name,
            ms(row.search),
            ms(row.browse),
            row.queries,
            row.browse_points
        );
    }
}

/// Prints Figure 6 as playback speedups.
pub fn print_fig6(rows: &[PlaybackRow]) {
    out!("Figure 6: Playback speedup (entire record, fastest rate)");
    out!(
        "{:<8} {:>12} {:>12} {:>9}",
        "scenario",
        "recorded(s)",
        "wall(ms)",
        "speedup"
    );
    out!("{:-<45}", "");
    for row in rows {
        out!(
            "{:<8} {:>12.2} {:>12.1} {:>8.0}x",
            row.name,
            row.recorded.as_secs_f64(),
            ms(row.wall),
            row.speedup
        );
    }
}

/// Prints Figure 7 as five revive points per scenario.
pub fn print_fig7(rows: &[ReviveRow]) {
    out!("Figure 7: Revive latency (ms) at five points, uncached / cached");
    out!("{:-<76}", "");
    for row in rows {
        outp!("{:<8}", row.name);
        for point in &row.points {
            outp!(
                "  [#{} {:.0}/{:.1}]",
                point.counter,
                ms(point.uncached),
                ms(point.cached)
            );
        }
        out!();
    }
    out!("(uncached = checkpoint-store cache dropped, 2007-disk latency model)");
}

/// Prints the §5.1.2 optimization ablation.
pub fn print_ablation(rows: &[AblationRow]) {
    out!("Ablation: checkpoint downtime with §5.1.2 optimizations disabled (octave, ms)");
    out!(
        "{:<36} {:>12} {:>12} {:>12}",
        "configuration",
        "mean-down",
        "max-down",
        "mean-total"
    );
    out!("{:-<76}", "");
    for row in rows {
        out!(
            "{:<36} {:>12.3} {:>12.3} {:>12.3}",
            row.config,
            vms(row.mean_downtime),
            vms(row.max_downtime),
            vms(row.mean_total)
        );
    }
    out!("(the paper reports the unoptimized mechanism could not sustain 1 checkpoint/s)");
}

/// Prints the recording-quality trade-off.
pub fn print_quality(rows: &[QualityRow]) {
    out!("Recording quality vs storage (§2 trade-off, web workload)");
    out!(
        "{:<26} {:>14} {:>10} {:>10}",
        "setting",
        "display(KB)",
        "commands",
        "rel-size"
    );
    out!("{:-<64}", "");
    let full = rows.first().map(|r| r.display_bytes.max(1)).unwrap_or(1);
    for row in rows {
        out!(
            "{:<26} {:>14.1} {:>10} {:>9.2}x",
            row.setting,
            row.display_bytes as f64 / 1e3,
            row.commands,
            row.display_bytes as f64 / full as f64
        );
    }
}

/// Prints the mirror-tree ablation.
pub fn print_mirror_ablation(rows: &[MirrorAblationRow]) {
    out!("Ablation: capture daemon with vs without the mirror tree (§4.2)");
    out!(
        "{:<32} {:>8} {:>14} {:>12} {:>14}",
        "daemon",
        "events",
        "delivery(ms)",
        "per-evt(us)",
        "tree-accesses"
    );
    out!("{:-<84}", "");
    for row in rows {
        out!(
            "{:<32} {:>8} {:>14.3} {:>12.1} {:>14}",
            row.daemon,
            row.events,
            vms(row.total_delivery),
            row.per_event.as_nanos() as f64 / 1e3,
            row.tree_accesses
        );
    }
    out!("(events are delivered synchronously: delivery time blocks the application)");
}

/// Prints the dv-obs per-stream profile and the instrumentation
/// overhead measurement.
pub fn print_obs(report: &ObsReport) {
    out!("Observability: per-stream instrumented busy time (wall-clock spans, web workload)");
    out!("{:-<52}", "");
    for line in report.snapshot.render_breakdown().lines() {
        out!("{line}");
    }
    out!(
        "trace ring: {} events ({} dropped), checkpoints profiled: {}",
        report.snapshot.events.len(),
        report.snapshot.dropped_events,
        report.checkpoints,
    );
    out!(
        "instrumentation overhead: {:.3}x wall ({:.1} ms instrumented vs {:.1} ms disabled, deferred-pipeline workload, min of 3)",
        report.overhead_ratio(),
        ms(report.instrumented_wall),
        ms(report.baseline_wall),
    );
}

/// Prints a dv-net fan-out sweep (classic or wide).
pub fn print_net(rows: &[NetRow]) {
    out!("Remote access: dv-net loopback fan-out (one live session, N viewers)");
    out!(
        "{:<7} {:>9} {:>11} {:>11} {:>9} {:>9} {:>11} {:>11} {:>10} {:>10}",
        "clients",
        "commands",
        "frames",
        "KB-sent",
        "p50(ms)",
        "p99(ms)",
        "thru(f/s)",
        "coalesce%",
        "enc/batch",
        "converged"
    );
    out!("{:-<107}", "");
    for row in rows {
        out!(
            "{:<7} {:>9} {:>11} {:>11.1} {:>9.3} {:>9.3} {:>11.0} {:>10.2}% {:>10.3} {:>10}",
            row.fanout,
            row.commands,
            row.frames_delivered,
            row.bytes_sent as f64 / 1e3,
            ms(row.round_p50),
            ms(row.round_p99),
            row.throughput_fps(),
            100.0 * row.coalesce_rate(),
            row.encode_ratio(),
            if row.all_converged { "ok" } else { "DIVERGED" },
        );
    }
    // Unit-cost growth vs the sweep's smallest point (1 viewer in the
    // classic sweep, 64 in the wide one).
    if let Some(base) = rows.iter().min_by_key(|r| r.fanout) {
        for row in rows.iter().filter(|r| r.fanout > base.fanout) {
            out!(
                "  {} clients: {:.3}x per-client unit cost vs {}-viewer baseline",
                row.fanout,
                row.per_client_command_us() / base.per_client_command_us().max(1e-9),
                base.fanout,
            );
        }
    }
}

/// Prints the dv-host session sweep and interference measurement.
pub fn print_host(report: &HostReport) {
    out!("Multi-tenant host: N sessions over one shared commit pool");
    out!(
        "{:<9} {:>12} {:>11} {:>9} {:>12} {:>18}",
        "sessions",
        "checkpoints",
        "committed",
        "inline",
        "us/ckpt",
        "fingerprint"
    );
    out!("{:-<78}", "");
    for row in &report.rows {
        out!(
            "{:<9} {:>12} {:>11} {:>9} {:>12.2} {:>18x}",
            row.sessions,
            row.checkpoints,
            row.committed,
            row.inline_fallbacks,
            row.per_checkpoint_us(),
            row.fingerprint,
        );
    }
    for row in report.rows.iter().filter(|r| r.sessions > 1) {
        out!(
            "  {} sessions: {:.3}x per-checkpoint unit cost vs single session",
            row.sessions,
            row.per_session_ratio,
        );
    }
    let i = &report.interference;
    out!(
        "  interference ({} clean neighbours of 1 faulted tenant): median neighbour \
         checkpoint {:.2}us clean vs {:.2}us faulted ({:.3}x)",
        i.neighbors,
        i.clean_stall_p50.as_secs_f64() * 1e6,
        i.faulted_stall_p50.as_secs_f64() * 1e6,
        i.interference_ratio(),
    );
    out!(
        "  neighbour degradations {}, faulted tenant degradations {}, neighbour \
         fingerprints {}, fault trace {}",
        i.neighbors_degraded,
        i.faulted_degraded,
        if i.fingerprints_match {
            "unchanged"
        } else {
            "CHANGED"
        },
        if i.faulted_traced {
            "labelled"
        } else {
            "MISSING"
        },
    );
}

/// Prints the sharded-index measurement.
pub fn print_index(report: &IndexReport) {
    out!("Sharded index: ingest + cross-session query fan-out");
    out!(
        "{:<9} {:>8} {:>9} {:>12} {:>11} {:>11}",
        "sessions",
        "states",
        "segments",
        "states/s",
        "qry p50 us",
        "qry p99 us"
    );
    out!("{:-<66}", "");
    for row in &report.rows {
        out!(
            "{:<9} {:>8} {:>9} {:>12.0} {:>11.2} {:>11.2}",
            row.sessions,
            row.states,
            row.segments,
            row.ingest_per_s,
            row.query_p50.as_secs_f64() * 1e6,
            row.query_p99.as_secs_f64() * 1e6,
        );
    }
    for row in report.rows.iter().filter(|r| r.sessions > 1) {
        out!(
            "  {} sessions: {:.3}x per-tenant p99 unit cost vs single session",
            row.sessions,
            row.unit_ratio,
        );
    }
    let c = &report.compaction;
    out!(
        "  compaction: {} -> {} live segments, {:.1} -> {:.1} probes/query ({:.2}x fewer), \
         p99 {:.2}us -> {:.2}us, answers {}",
        c.segments_before,
        c.segments_after,
        c.probes_before,
        c.probes_after,
        c.probe_reduction(),
        c.query_p99_before.as_secs_f64() * 1e6,
        c.query_p99_after.as_secs_f64() * 1e6,
        if c.results_identical {
            "identical"
        } else {
            "CHANGED"
        },
    );
    out!(
        "  revive snapshot consistency: {}",
        if report.snapshot_consistent {
            "exactly the hits sealed at or before each checkpoint"
        } else {
            "VIOLATED"
        },
    );
}

/// Prints the dv-vidx visual-recall measurement.
pub fn print_visual(report: &VisualReport) {
    out!("Visual recall: nearest-thumbnail query fan-out vs the linear-scan oracle");
    out!(
        "{:<9} {:>9} {:>9} {:>9} {:>8} {:>9} {:>9} {:>11} {:>11}",
        "sessions",
        "keyframes",
        "instances",
        "segments",
        "recall",
        "identical",
        "probe dn",
        "qry p50 us",
        "qry p99 us"
    );
    out!("{:-<92}", "");
    for row in &report.rows {
        out!(
            "{:<9} {:>9} {:>9} {:>9} {:>8.3} {:>9.3} {:>8.1}x {:>11.2} {:>11.2}",
            row.sessions,
            row.keyframes,
            row.instances,
            row.segments,
            row.recall,
            row.identical,
            row.probe_reduction,
            row.query_p50.as_secs_f64() * 1e6,
            row.query_p99.as_secs_f64() * 1e6,
        );
    }
    for row in report.rows.iter().filter(|r| r.sessions > 1) {
        out!(
            "  {} sessions: {:.3}x per-tenant p99 unit cost vs single session",
            row.sessions,
            row.unit_ratio,
        );
    }
    out!(
        "  revive snapshot consistency: {}",
        if report.snapshot_consistent {
            "exactly the instances sealed at or before each checkpoint"
        } else {
            "VIOLATED"
        },
    );
}

/// Prints the dv-cas dedup measurement.
pub fn print_dedup(rows: &[DedupRow]) {
    out!("Dedup: content-addressed chunk store under checkpoint traffic (vs dedup off)");
    out!(
        "{:<14} {:>7} {:>6} {:>12} {:>13} {:>7} {:>7} {:>9} {:>10} {:>12}",
        "workload",
        "tenants",
        "ckpts",
        "logical(KB)",
        "physical(KB)",
        "ratio",
        "chunks",
        "MB/s",
        "plain-MB/s",
        "restores"
    );
    out!("{:-<104}", "");
    for row in rows {
        out!(
            "{:<14} {:>7} {:>6} {:>12.1} {:>13.1} {:>6.2}x {:>7} {:>9.1} {:>10.1} {:>12}",
            row.workload,
            row.tenants,
            row.checkpoints,
            row.logical_bytes as f64 / 1e3,
            row.physical_bytes as f64 / 1e3,
            row.dedup_ratio(),
            row.live_chunks,
            row.dedup_mbps,
            row.plain_mbps,
            if row.fingerprints_match {
                "identical"
            } else {
                "DIVERGED"
            },
        );
    }
    for row in rows {
        out!(
            "  {}: {} chunk hits, stored {:.1}x less than dedup-off",
            row.workload,
            row.dedup_hits,
            row.dedup_ratio(),
        );
    }
}

/// Prints the §6 policy-effectiveness analysis.
pub fn print_policy(stats: &PolicyStats) {
    let total = stats.total() as f64;
    let skips = (stats.total() - stats.checkpoints) as f64;
    out!("Checkpoint policy effectiveness (desktop trace, §6)");
    out!("{:-<60}", "");
    out!(
        "evaluations: {}   checkpoints taken: {} ({:.0}% of the time; paper: ~20%)",
        stats.total(),
        stats.checkpoints,
        100.0 * stats.checkpoint_fraction()
    );
    if skips > 0.0 {
        out!(
            "skips: {:.0}% no display activity (paper 13%), {:.0}% low display activity (paper 69%), {:.0}% text-edit rate (paper 18%), {:.0}% fullscreen/rate/other",
            100.0 * stats.no_display as f64 / skips,
            100.0 * stats.low_display as f64 / skips,
            100.0 * stats.text_edit as f64 / skips,
            100.0 * (stats.fullscreen + stats.rate_limited + stats.custom_rule) as f64 / skips,
        );
    }
    let _ = total;
}
