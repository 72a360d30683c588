//! Paper-style table printing for the `reproduce` binary.

use crate::experiments::{
    AblationRow, BrowseSearchRow, CheckpointRow, CrashRow, DedupRow, DeferredRow, FaultRow,
    FsSnapshotRow, HostReport, IndexReport, KernelRow, MirrorAblationRow, NetRow, ObsReport,
    OverheadRow, PlaybackRow, QualityRow, ReplayScrollReport, ReviveRow, SeekRestoreReport,
    StorageRow, Table1Row, VisualReport,
};
use crate::micro::MicroRow;
use dv_checkpoint::PolicyStats;

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn vms(d: dv_time::Duration) -> f64 {
    d.as_nanos() as f64 / 1e6
}

/// Prints the deferred write-back comparison.
pub fn print_deferred(rows: &[DeferredRow]) {
    println!("Deferred write-back: per-checkpoint session-thread stall, 0 commit workers (inline) vs 1/2/4");
    println!(
        "{:<14} {:>6} {:>11} {:>11} {:>10} {:>8} {:>9}  {:<18}",
        "config", "ckpts", "stall(ms)", "max(ms)", "wall(ms)", "MB/s", "fallback", "fingerprint"
    );
    println!("{:-<96}", "");
    for row in rows {
        println!(
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
            println!(
                "  {}: stall {:.2}x lower than inline",
                row.config,
                inline.mean_stall.as_secs_f64() / row.mean_stall.as_secs_f64().max(1e-12),
            );
        }
        println!(
            "  restore results across configurations: {}",
            if matched { "identical" } else { "DIVERGED" }
        );
        let longest = &inline.longest_chain;
        println!(
            "  longest chain: {} images, {} pages decoded for {} installed",
            longest.images_loaded, longest.pages_decoded, longest.pages_installed
        );
    }
}

/// Prints the fault-injection matrix.
pub fn print_faults(rows: &[FaultRow]) {
    println!("Fault injection: every storage site x every fault kind (every 2nd check fails)");
    println!(
        "{:<26} {:<11} {:>8} {:>8} {:>6} {:>7} {:>7}",
        "site", "fault", "injected", "degraded", "ckpts", "browse", "search"
    );
    println!("{:-<80}", "");
    for row in rows {
        println!(
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
    println!("Crash consistency: power cut at increasing log prefixes, then reopen");
    println!(
        "{:<10} {:>10} {:>10} {:>10}",
        "cut", "log-bytes", "recovered", "snapshots"
    );
    println!("{:-<44}", "");
    for row in rows {
        println!(
            "{:<10} {:>10} {:>10} {:>10}",
            format!("{:.0}%", row.cut_fraction * 100.0),
            row.cut_bytes,
            if row.recovered { "ok" } else { "FAIL" },
            row.snapshots,
        );
    }
}

/// Prints the snapshot-cost sweep.
pub fn print_fs_snapshot(rows: &[FsSnapshotRow]) {
    println!("File-system snapshot: one 4 KiB write, then snapshot_point, by tree size");
    println!("{:<10} {:>14} {:>10}", "inodes", "snapshot-p50", "ratio");
    println!("{:-<36}", "");
    for row in rows {
        println!(
            "{:<10} {:>11.1} us {:>10.2}",
            row.inodes,
            row.snapshot_p50.as_secs_f64() * 1e6,
            row.unit_ratio,
        );
    }
}

/// Prints what keyframe seeks copied from their keyframes.
pub fn print_seek_restore(report: &SeekRestoreReport) {
    println!(
        "Seek restore: keyframe seeks over an office-shaped {}x{} session",
        report.width, report.height
    );
    println!(
        "{:>6} {:>15} {:>18} {:>14}",
        "seeks", "keyframe seeks", "pixels restored", "of the frame"
    );
    println!("{:-<56}", "");
    let frame = u64::from(report.width) * u64::from(report.height);
    println!(
        "{:>6} {:>15} {:>18} {:>14.3}",
        report.seeks,
        report.keyframe_seeks,
        report.pixels_restored,
        report.restored_frac(),
    );
    println!("(a seek that copies its keyframe whole restores {frame} pixels)");
}

/// Prints the rows a replay of a scrolling terminal wrote.
pub fn print_replay_scroll(report: &ReplayScrollReport) {
    println!(
        "Replay scroll: one playback pass over a {}-line terminal",
        report.term_lines
    );
    println!(
        "{:>6} {:>7} {:>9} {:>10} {:>10} {:>9}",
        "lines", "slices", "commands", "ring rows", "copy rows", "fraction"
    );
    println!("{:-<56}", "");
    println!(
        "{:>6} {:>7} {:>9} {:>10} {:>10} {:>9.3}",
        report.lines,
        report.slices,
        report.commands,
        report.ring_rows,
        report.copy_rows,
        report.rows_frac(),
    );
    println!("(a replay that moves every row of every scroll reads 1)");
}

/// Prints the byte kernels beside their yardsticks.
pub fn print_kernels(rows: &[KernelRow]) {
    println!("Byte kernels: least time of each beside its yardstick, same run");
    println!(
        "{:<44} {:>12} {:>12} {:>8}",
        "kernel / yardstick", "kernel", "yardstick", "ratio"
    );
    println!("{:-<80}", "");
    for row in rows {
        println!(
            "{:<44} {:>9.1} us {:>9.1} us {:>8.2}",
            row.what,
            row.kernel.as_secs_f64() * 1e6,
            row.yardstick.as_secs_f64() * 1e6,
            row.ratio(),
        );
    }
}

/// Prints the micro-benchmarks.
pub fn print_micro(rows: &[MicroRow]) {
    println!("Micro-benchmarks: least time of one round (report-only)");
    println!("{:<12} {:<40} {:>12}", "group", "round", "least");
    println!("{:-<66}", "");
    for row in rows {
        println!(
            "{:<12} {:<40} {:>9.1} us",
            row.group,
            row.name,
            row.least.as_secs_f64() * 1e6,
        );
    }
}

/// Prints Table 1.
pub fn print_table1(rows: &[Table1Row]) {
    println!("Table 1: Application scenarios");
    println!("{:-<100}", "");
    for row in rows {
        println!("{:<8} {}", row.name, row.description);
        println!(
            "{:<8}   -> {} steps over {}, {} display commands, {} text instances",
            "", row.steps, row.duration, row.commands, row.text_instances
        );
    }
}

/// Prints Figure 2 as normalized execution times.
pub fn print_fig2(rows: &[OverheadRow]) {
    println!("Figure 2: Recording runtime overhead (normalized execution time, baseline = 1.00)");
    println!(
        "{:<8} {:>10} {:>9} {:>9} {:>9} {:>9}",
        "scenario", "base(ms)", "display", "process", "index", "full"
    );
    println!("{:-<60}", "");
    for row in rows {
        println!(
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
    println!("Figure 3: Total checkpoint latency (mean per checkpoint, ms)");
    println!(
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
    println!("{:-<92}", "");
    for row in rows {
        println!(
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
    println!("Figure 4: Recording storage growth (MB/s of session time)");
    println!(
        "{:<8} {:>9} {:>7} {:>7} {:>9} {:>11} {:>8} {:>10}",
        "scenario", "display", "index", "fs", "process", "proc(gz)", "total", "total(gz)"
    );
    println!("{:-<78}", "");
    for row in rows {
        println!(
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
    println!("Figure 5: Browse and search latency (mean, ms)");
    println!(
        "{:<8} {:>10} {:>9} {:>10} {:>13}",
        "scenario", "search", "browse", "queries", "browse-points"
    );
    println!("{:-<55}", "");
    for row in rows {
        println!(
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
    println!("Figure 6: Playback speedup (entire record, fastest rate)");
    println!(
        "{:<8} {:>12} {:>12} {:>9}",
        "scenario", "recorded(s)", "wall(ms)", "speedup"
    );
    println!("{:-<45}", "");
    for row in rows {
        println!(
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
    println!("Figure 7: Revive latency (ms) at five points, uncached / cached");
    println!("{:-<76}", "");
    for row in rows {
        print!("{:<8}", row.name);
        for point in &row.points {
            print!(
                "  [#{} {:.0}/{:.1}]",
                point.counter,
                ms(point.uncached),
                ms(point.cached)
            );
        }
        println!();
    }
    println!("(uncached = checkpoint-store cache dropped, 2007-disk latency model)");
}

/// Prints the §5.1.2 optimization ablation.
pub fn print_ablation(rows: &[AblationRow]) {
    println!("Ablation: checkpoint downtime with §5.1.2 optimizations disabled (octave, ms)");
    println!(
        "{:<36} {:>12} {:>12} {:>12}",
        "configuration", "mean-down", "max-down", "mean-total"
    );
    println!("{:-<76}", "");
    for row in rows {
        println!(
            "{:<36} {:>12.3} {:>12.3} {:>12.3}",
            row.config,
            vms(row.mean_downtime),
            vms(row.max_downtime),
            vms(row.mean_total)
        );
    }
    println!("(the paper reports the unoptimized mechanism could not sustain 1 checkpoint/s)");
}

/// Prints the recording-quality trade-off.
pub fn print_quality(rows: &[QualityRow]) {
    println!("Recording quality vs storage (§2 trade-off, web workload)");
    println!(
        "{:<26} {:>14} {:>10} {:>10}",
        "setting", "display(KB)", "commands", "rel-size"
    );
    println!("{:-<64}", "");
    let full = rows.first().map(|r| r.display_bytes.max(1)).unwrap_or(1);
    for row in rows {
        println!(
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
    println!("Ablation: capture daemon with vs without the mirror tree (§4.2)");
    println!(
        "{:<32} {:>8} {:>14} {:>12} {:>14}",
        "daemon", "events", "delivery(ms)", "per-evt(us)", "tree-accesses"
    );
    println!("{:-<84}", "");
    for row in rows {
        println!(
            "{:<32} {:>8} {:>14.3} {:>12.1} {:>14}",
            row.daemon,
            row.events,
            vms(row.total_delivery),
            row.per_event.as_nanos() as f64 / 1e3,
            row.tree_accesses
        );
    }
    println!("(events are delivered synchronously: delivery time blocks the application)");
}

/// Prints the dv-obs per-stream profile and the instrumentation
/// overhead measurement.
pub fn print_obs(report: &ObsReport) {
    println!("Observability: per-stream instrumented busy time (wall-clock spans, web workload)");
    println!("{:-<52}", "");
    for line in report.snapshot.render_breakdown().lines() {
        println!("{line}");
    }
    println!(
        "trace ring: {} events ({} dropped), checkpoints profiled: {}",
        report.snapshot.events.len(),
        report.snapshot.dropped_events,
        report.checkpoints,
    );
    println!(
        "instrumentation overhead: {:.3}x wall ({:.1} ms instrumented vs {:.1} ms disabled, deferred-pipeline workload, min of 3)",
        report.overhead_ratio(),
        ms(report.instrumented_wall),
        ms(report.baseline_wall),
    );
}

/// Prints a dv-net fan-out sweep (classic or wide). Unit-cost ratios
/// between rows are gate metrics, printed with the suite's other metrics.
pub fn print_net(rows: &[NetRow]) {
    println!("Remote access: dv-net loopback fan-out (one live session, N viewers)");
    println!(
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
    println!("{:-<107}", "");
    for row in rows {
        println!(
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
}

/// Prints the dv-host session sweep and interference measurement.
pub fn print_host(report: &HostReport) {
    println!("Multi-tenant host: N sessions over one shared commit pool");
    println!(
        "{:<9} {:>12} {:>11} {:>9} {:>12} {:>18}",
        "sessions", "checkpoints", "committed", "inline", "us/ckpt", "fingerprint"
    );
    println!("{:-<78}", "");
    for row in &report.rows {
        println!(
            "{:<9} {:>12} {:>11} {:>9} {:>12.2} {:>18x}",
            row.sessions,
            row.checkpoints,
            row.committed,
            row.inline_fallbacks,
            row.checkpoint_p50.as_secs_f64() * 1e6,
            row.fingerprint,
        );
    }
    let i = &report.interference;
    println!(
        "  interference ({} clean neighbours of 1 faulted tenant): median neighbour \
         checkpoint {:.2}us clean vs {:.2}us faulted ({:.3}x)",
        i.neighbors,
        i.clean_stall_p50.as_secs_f64() * 1e6,
        i.faulted_stall_p50.as_secs_f64() * 1e6,
        i.interference_ratio(),
    );
    println!(
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
    println!("Sharded index: ingest + cross-session query fan-out");
    println!(
        "{:<9} {:>8} {:>9} {:>12} {:>11} {:>11}",
        "sessions", "states", "segments", "states/s", "qry p50 us", "qry p99 us"
    );
    println!("{:-<66}", "");
    for row in &report.rows {
        println!(
            "{:<9} {:>8} {:>9} {:>12.0} {:>11.2} {:>11.2}",
            row.sessions,
            row.states,
            row.segments,
            row.ingest_per_s,
            row.query_p50.as_secs_f64() * 1e6,
            row.query_p99.as_secs_f64() * 1e6,
        );
    }
    let c = &report.compaction;
    println!(
        "  compaction: {} -> {} live segments, {:.1} -> {:.1} probes/query ({:.2}x fewer), \
         p99 {:.2}us -> {:.2}us, merged at {:.0} MB/s, answers {}",
        c.segments_before,
        c.segments_after,
        c.probes_before,
        c.probes_after,
        c.probe_reduction(),
        c.query_p99_before.as_secs_f64() * 1e6,
        c.query_p99_after.as_secs_f64() * 1e6,
        c.compact_mb_per_s,
        if c.results_identical {
            "identical"
        } else {
            "CHANGED"
        },
    );
    println!(
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
    println!("Visual recall: nearest-thumbnail query fan-out vs the linear-scan oracle");
    println!(
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
    println!("{:-<92}", "");
    for row in &report.rows {
        println!(
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
    println!(
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
    println!("Dedup: content-addressed chunk store under checkpoint traffic (vs dedup off)");
    println!(
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
    println!("{:-<104}", "");
    for row in rows {
        println!(
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
        println!(
            "  {}: {} chunk hits, stored {:.1}x less than dedup-off",
            row.workload,
            row.dedup_hits,
            row.dedup_ratio(),
        );
    }
}

/// Prints the §6 policy-effectiveness analysis.
pub fn print_policy(stats: &PolicyStats) {
    let skips = (stats.total() - stats.checkpoints) as f64;
    println!("Checkpoint policy effectiveness (desktop trace, §6)");
    println!("{:-<60}", "");
    println!(
        "evaluations: {}   checkpoints taken: {} ({:.0}% of the time; paper: ~20%)",
        stats.total(),
        stats.checkpoints,
        100.0 * stats.checkpoint_fraction()
    );
    if skips > 0.0 {
        println!(
            "skips: {:.0}% no display activity (paper 13%), {:.0}% low display activity (paper 69%), {:.0}% text-edit rate (paper 18%), {:.0}% fullscreen/rate/other",
            100.0 * stats.no_display as f64 / skips,
            100.0 * stats.low_display as f64 / skips,
            100.0 * stats.text_edit as f64 / skips,
            100.0 * (stats.fullscreen + stats.rate_limited + stats.custom_rule) as f64 / skips,
        );
    }
}
