//! The gate table: what each `reproduce` gate suite measures and what
//! every metric it emits must satisfy.
//!
//! A [`Suite`] is a name, a measurement (runs its experiments, prints
//! their tables, returns flat `(key, value)` metrics) and the [`Rule`]
//! for each metric name. [`SUITES`] is the only place a threshold is
//! written down: the runner, `reproduce summary`, CI and the docs all
//! read it. A rule also fixes which way its metric is compared with
//! `BENCH_baseline.json`, so a metric name carries no meaning.

use crate::experiments::{
    crash_consistency, dedup_experiment, deferred_experiment, faults_experiment,
    fs_snapshot_experiment, host_experiment, index_experiment, kernel_experiment, net_experiment,
    net_wide_experiment, obs_experiment, raw_revive_experiment, replay_scroll_experiment,
    seek_restore_experiment, visual_experiment, CrashRow, DedupRow, DeferredRow, FaultRow,
    FsSnapshotRow, HostReport, IndexReport, KernelRow, NetRow, ObsReport, ReplayScrollReport,
    SeekRestoreReport, VisualReport, VisualRow,
};
use crate::report::{
    print_crash, print_dedup, print_deferred, print_faults, print_fs_snapshot, print_host,
    print_index, print_kernels, print_net, print_obs, print_raw_revive, print_replay_scroll,
    print_seek_restore, print_visual,
};

/// How far over its baseline an at-most metric may run before its gate
/// fails. At-least metrics get no slack: they are floors on counts and
/// reductions, which do not jitter.
pub const BASELINE_TOLERANCE: f64 = 1.20;

/// Where a bound's number comes from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Limit {
    /// A fixed number: both sides of the metric come from one run, so
    /// the bound holds on any machine.
    Is(f64),
    /// The value `BENCH_baseline.json` holds under the metric's key
    /// (times [`BASELINE_TOLERANCE`] for an at-most rule). The key
    /// missing from the file fails the gate.
    Baseline,
}

/// What a metric must satisfy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Rule {
    /// Printed and written, never tested.
    Report,
    /// Lower is better; fails above the limit.
    AtMost(Limit),
    /// Higher is better; fails below the limit.
    AtLeast(Limit),
    /// A flag, or a fraction of cases that all must pass; fails
    /// under 1.
    MustHold,
}

use Limit::{Baseline, Is};
use Rule::{AtLeast, AtMost, MustHold, Report};

impl Rule {
    /// Whether the rule's limit is read from the baseline file.
    pub fn reads_baseline(self) -> bool {
        matches!(self, AtMost(Baseline) | AtLeast(Baseline))
    }

    /// The enforced bound given the baseline's value for the key, or
    /// `None` when there is nothing to test against (a report-only
    /// metric, or a baseline limit whose key the file lacks).
    fn bound(self, base: Option<f64>) -> Option<f64> {
        match self {
            Report => None,
            MustHold => Some(1.0),
            AtMost(Is(x)) | AtLeast(Is(x)) => Some(x),
            AtMost(Baseline) => base.map(|b| b * BASELINE_TOLERANCE),
            AtLeast(Baseline) => base,
        }
    }

    /// The rule as `reproduce summary` and failure lines print it: the
    /// number actually enforced, and where it came from.
    pub fn threshold(self, base: Option<f64>) -> String {
        let bound = self.bound(base);
        match (self, bound) {
            (Report, _) => "-".to_string(),
            (MustHold, _) => "= 1".to_string(),
            (AtMost(Is(_)), Some(x)) => format!("<= {x:.2}"),
            (AtLeast(Is(_)), Some(x)) => format!(">= {x:.2}"),
            (AtMost(_), Some(x)) => format!("<= {x:.2} (baseline x{BASELINE_TOLERANCE:.2})"),
            (AtLeast(_), Some(x)) => format!(">= {x:.2} (baseline)"),
            (AtMost(_), None) => "<= baseline (key not in the baseline file)".to_string(),
            (AtLeast(_), None) => ">= baseline (key not in the baseline file)".to_string(),
        }
    }
}

/// One measured metric together with what it must satisfy.
#[derive(Clone, Debug, PartialEq)]
pub struct Gate {
    /// Metric name, as written to `BENCH_<suite>.json`.
    pub key: String,
    /// Measured value.
    pub value: f64,
    /// The rule the suite's table assigns to the key.
    pub rule: Rule,
}

impl Gate {
    /// The gate as one `| metric | value | baseline | threshold |` row
    /// of the `reproduce summary` markdown table.
    pub fn summary_row(&self, baseline: &[(String, f64)]) -> String {
        let base = lookup(baseline, &self.key);
        let shown = base.map_or("-".to_string(), |b| format!("{b:.4}"));
        format!(
            "| `{}` | {:.4} | {shown} | {} |",
            self.key,
            self.value,
            self.rule.threshold(base)
        )
    }
}

/// A gate suite: one `reproduce <name>` subcommand, one
/// `BENCH_<name>.json`.
pub struct Suite {
    /// Subcommand and output-file name.
    pub name: &'static str,
    /// The rule for every metric the suite emits. A `*` in a metric
    /// name stands for a sweep point or a workload tag.
    pub rules: &'static [(&'static str, Rule)],
    /// Runs the suite's experiments at a scale, prints their tables,
    /// and returns the metrics in output order.
    measure: fn(f64) -> Vec<(String, f64)>,
}

/// The gate table.
///
/// Unit-cost ratios divide one sweep point by the sweep's first point
/// measured in the same run (or the same interleaved pass), so fixed
/// limits hold across machines; the baseline-limited ones were
/// calibrated on the reference box and carry the tolerance instead.
pub const SUITES: &[Suite] = &[
    Suite {
        name: "ci",
        rules: &[
            // Session-thread stall with N commit workers over the
            // stall with none.
            ("deferred_stall_w*_ratio", AtMost(Baseline)),
            ("deferred_restore_identical", MustHold),
            // Revive copies a page out of one image only: the newest
            // that holds it. Decoding every image of the chain read 1.86.
            ("revive_pages_decoded_ratio", AtMost(Is(1.0))),
            // Revive installs a raw image's pages as windows into the
            // stored blob. Copying each page out read 1.0.
            ("revive_pages_copied_frac", AtMost(Is(0.0))),
            ("faults_browse_ok_fraction", MustHold),
            ("faults_search_ok_fraction", MustHold),
            ("crash_recovered_fraction", MustHold),
            // A snapshot point costs what was written since the last
            // one, not what the file system holds.
            ("fs_snapshot_i*_ratio", AtMost(Is(2.0))),
            // A frame-sized CRC runs interleaved lanes; a short one
            // cannot. One chain at every length reads 1.0.
            ("crc_per_byte_448k_ratio", AtMost(Is(0.7))),
            // Pixels move as a slice: a zero-fill and a copy, not a
            // push per pixel (which read 46).
            ("raw_strip_encode_memcpy_ratio", AtMost(Is(8.0))),
            // The commit path's RLE scan tests two aligned 4-byte groups
            // per word load (22-27). A scan a byte at a time read 47-68.
            ("image_compress_memcpy_ratio", AtMost(Is(36.0))),
            // Chunking starts each chunk's gear hash 64 bytes before
            // MIN_CHUNK and takes both id halves in one pass (29-35).
            // Hashing every byte and each chunk twice read 46-59.
            ("cas_split_memcpy_ratio", AtMost(Is(40.0))),
            // Revive steps over a compressed page it does not keep by
            // its RLE token headers (0.45-0.55). Decoding each skipped
            // page into a scratch buffer read 0.71-0.79; decompressing
            // the image before stepping over its pages, 1.01-1.08.
            ("revive_compressed_skip_ratio", AtMost(Is(0.65))),
            // A keyframe seek copies from its keyframe only what its
            // replay does not paint over first. Copying the keyframe
            // whole before replaying read 1.0.
            ("seek_restored_frac", AtMost(Is(0.25))),
            // A replay scrolls a terminal by moving its row origin and
            // copies only the line each scroll leaves in place, plus one
            // restore a slice. One copy per scroll read 1.0.
            ("replay_scroll_rows_frac", AtMost(Is(0.25))),
        ],
        measure: |scale| {
            let deferred = deferred_experiment(scale);
            print_deferred(&deferred);
            let raw_revive = raw_revive_experiment(scale);
            print_raw_revive(&raw_revive);
            println!();
            let faults = faults_experiment(scale.min(0.25));
            print_faults(&faults);
            println!();
            let crash = crash_consistency(scale.min(0.25));
            print_crash(&crash);
            println!();
            let fs_snapshot = fs_snapshot_experiment(scale);
            print_fs_snapshot(&fs_snapshot);
            println!();
            let kernels = kernel_experiment(scale);
            print_kernels(&kernels);
            println!();
            let seek_restore = seek_restore_experiment(scale);
            print_seek_restore(&seek_restore);
            println!();
            let replay_scroll = replay_scroll_experiment(scale);
            print_replay_scroll(&replay_scroll);
            ci_metrics(
                (&deferred, &raw_revive),
                &faults,
                &crash,
                &fs_snapshot,
                &kernels,
                &seek_restore,
                &replay_scroll,
            )
        },
    },
    Suite {
        name: "obs",
        // Instrumented over uninstrumented wall time.
        rules: &[("overhead_ratio", AtMost(Is(1.05)))],
        measure: |scale| {
            let report = obs_experiment(scale);
            print_obs(&report);
            obs_metrics(&report)
        },
    },
    Suite {
        name: "net",
        rules: &[
            ("net_converged_f*", MustHold),
            ("net_throughput_fps_f*", Report),
            ("net_round_p99_ms_f*", Report),
            ("net_coalesce_rate_f*", Report),
            // Fixed costs amortize across clients, so a healthy
            // multiplexer sits well under 1.0.
            ("net_per_client_overhead_f*_ratio", AtMost(Is(1.20))),
            ("net_wide_converged_f*", MustHold),
            ("net_encodes_per_batch_f*", Report),
            ("net_per_viewer_cpu_f*_ratio", AtMost(Baseline)),
            ("net_round_p99_per_viewer_f*_ratio", AtMost(Baseline)),
            // Every row of both sweeps: fan-out is refcount bumps,
            // never a second encode.
            ("net_one_encode_per_batch", MustHold),
        ],
        measure: |scale| {
            let classic = net_experiment(scale);
            print_net(&classic);
            println!();
            let wide = net_wide_experiment(scale);
            print_net(&wide);
            net_metrics(&classic, &wide)
        },
    },
    Suite {
        name: "host",
        rules: &[
            ("host_checkpoints_s*", Report),
            ("host_committed_s*", Report),
            ("host_per_session_overhead_s*_ratio", AtMost(Is(1.25))),
            ("host_fingerprint_stable", MustHold),
            // Fair lane scheduling keeps a faulted tenant's retry storm
            // off its neighbours' threads; a healthy host sits near 1.
            ("host_interference_ratio", AtMost(Is(1.50))),
            ("host_fingerprints_match", MustHold),
            ("host_neighbors_isolated", MustHold),
            // The interference run proves nothing unless the fault bit
            // and left a trace under the tenant's label.
            ("host_faulted_tenant_degraded", MustHold),
            ("host_fault_traced", MustHold),
        ],
        measure: |scale| {
            let report = host_experiment(scale);
            print_host(&report);
            host_metrics(&report)
        },
    },
    Suite {
        name: "dedup",
        rules: &[
            // Both workloads repeat checkpoint content; a store that
            // finds under half the redundancy has stopped deduping.
            ("dedup_factor_*", AtLeast(Is(2.0))),
            ("dedup_mbps_*", Report),
            ("dedup_plain_mbps_*", Report),
            ("dedup_restore_identical", MustHold),
        ],
        measure: |scale| {
            let rows = dedup_experiment(scale);
            print_dedup(&rows);
            dedup_metrics(&rows)
        },
    },
    Suite {
        name: "index",
        rules: &[
            ("index_states_s*", Report),
            ("index_segments_s*", Report),
            ("index_query_p99_s*_ratio", AtMost(Baseline)),
            ("index_probe_reduction", AtLeast(Baseline)),
            ("index_compact_mb_per_s", Report),
            ("index_segments_reduced", MustHold),
            ("index_compaction_identical", MustHold),
            ("index_snapshot_consistent", MustHold),
        ],
        measure: |scale| {
            let report = index_experiment(scale);
            print_index(&report);
            index_metrics(&report)
        },
    },
    Suite {
        name: "visual",
        rules: &[
            ("visual_keyframes_s*", Report),
            ("visual_instances_s*", Report),
            ("visual_segments_s*", Report),
            // The weakest sweep point: one bad point is a correctness
            // bug however the others look.
            ("visual_recall", MustHold),
            ("visual_identical", MustHold),
            ("visual_query_p99_s*_ratio", AtMost(Baseline)),
            ("visual_probe_reduction", AtLeast(Baseline)),
            ("visual_snapshot_consistent", MustHold),
        ],
        measure: |scale| {
            let report = visual_experiment(scale);
            print_visual(&report);
            visual_metrics(&report)
        },
    },
];

/// Whether `key` is an instance of `pattern`, whose one optional `*`
/// stands for a non-empty sweep point or workload tag.
fn matches(pattern: &str, key: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == key,
        Some((head, tail)) => {
            key.len() > head.len() + tail.len() && key.starts_with(head) && key.ends_with(tail)
        }
    }
}

fn lookup(metrics: &[(String, f64)], key: &str) -> Option<f64> {
    metrics.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
}

impl Suite {
    /// The rule the suite's table assigns to `key`, if it names it.
    pub fn rule_for(&self, key: &str) -> Option<Rule> {
        self.rules
            .iter()
            .find(|(pattern, _)| matches(pattern, key))
            .map(|&(_, rule)| rule)
    }

    /// Runs the suite and pairs every metric with its rule.
    pub fn gates(&self, scale: f64) -> Vec<Gate> {
        self.pair((self.measure)(scale))
    }

    /// Pairs measured metrics with their rules.
    ///
    /// # Panics
    ///
    /// Panics if the metrics and the rule table disagree about which
    /// metrics exist — a bug in this file, not a failed gate.
    fn pair(&self, metrics: Vec<(String, f64)>) -> Vec<Gate> {
        for (pattern, _) in self.rules {
            assert!(
                metrics.iter().any(|(key, _)| matches(pattern, key)),
                "suite {}: no metric was emitted for rule `{pattern}`",
                self.name
            );
        }
        metrics
            .into_iter()
            .map(|(key, value)| {
                let rule = self.rule_for(&key).unwrap_or_else(|| {
                    panic!("suite {}: no rule for emitted metric `{key}`", self.name)
                });
                Gate { key, value, rule }
            })
            .collect()
    }
}

/// Applies every gate's rule and returns one line per failure. A value
/// that is not a number fails any rule but report-only. When `baseline` is not
/// empty, a key in it that no suite gates against the baseline also
/// fails: the file must not hold limits nothing enforces.
pub fn failures(gates: &[Gate], baseline: &[(String, f64)]) -> Vec<String> {
    let mut failed = Vec::new();
    for gate in gates {
        let base = lookup(baseline, &gate.key);
        let holds = match (gate.rule, gate.rule.bound(base)) {
            (Report, _) => true,
            (AtMost(_), Some(limit)) => gate.value <= limit,
            (AtLeast(_) | MustHold, Some(limit)) => gate.value >= limit,
            (_, None) => false,
        };
        if !holds {
            failed.push(format!(
                "{}: {:.4} violates {}",
                gate.key,
                gate.value,
                gate.rule.threshold(base)
            ));
        }
    }
    for (key, _) in baseline {
        let claimed = SUITES
            .iter()
            .any(|suite| suite.rule_for(key).is_some_and(Rule::reads_baseline));
        if !claimed {
            failed.push(format!(
                "{key}: in the baseline file, but no suite gates it against the baseline"
            ));
        }
    }
    failed
}

/// Serializes gates as a flat JSON object, one metric per line.
pub fn to_flat_json(gates: &[Gate]) -> String {
    let mut out = String::from("{\n");
    for (i, gate) in gates.iter().enumerate() {
        let comma = if i + 1 == gates.len() { "" } else { "," };
        out.push_str(&format!("  \"{}\": {:.6}{comma}\n", gate.key, gate.value));
    }
    out.push_str("}\n");
    out
}

/// Parses the flat JSON produced by [`to_flat_json`] (string keys to
/// numbers only — not a general JSON parser).
pub fn parse_flat_json(text: &str) -> Option<Vec<(String, f64)>> {
    let body = text.trim().strip_prefix('{')?.strip_suffix('}')?;
    let mut metrics = Vec::new();
    for entry in body.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (key, value) = entry.split_once(':')?;
        let key = key.trim().strip_prefix('"')?.strip_suffix('"')?;
        let value: f64 = value.trim().parse().ok()?;
        metrics.push((key.to_string(), value));
    }
    Some(metrics)
}

fn flag(holds: bool) -> f64 {
    f64::from(u8::from(holds))
}

/// The deferred write-back comparison and what a revive of its raw run
/// copied, the fault and power-cut matrices, snapshot cost against
/// file-system size, the byte kernels against their yardsticks, what a
/// keyframe seek copies, and the rows a replay of a scrolling terminal
/// writes.
fn ci_metrics(
    (deferred, raw_revive): (&[DeferredRow], &DeferredRow),
    faults: &[FaultRow],
    crash: &[CrashRow],
    fs_snapshot: &[FsSnapshotRow],
    kernels: &[KernelRow],
    seek_restore: &SeekRestoreReport,
    replay_scroll: &ReplayScrollReport,
) -> Vec<(String, f64)> {
    let inline = &deferred[0];
    let stall = |r: &DeferredRow| r.mean_stall.as_secs_f64();
    let mut m: Vec<(String, f64)> = deferred[1..]
        .iter()
        .map(|r| {
            (
                format!("deferred_stall_w{}_ratio", r.workers),
                stall(r) / stall(inline).max(1e-12),
            )
        })
        .collect();
    let identical = deferred.iter().all(|r| r.fingerprint == inline.fingerprint);
    let fraction = |passed: usize, of: usize| passed as f64 / of.max(1) as f64;
    let browse_ok = faults.iter().filter(|r| r.browse_ok).count();
    let search_ok = faults.iter().filter(|r| r.search_ok).count();
    let recovered = crash.iter().filter(|r| r.recovered).count();
    m.extend(
        [
            ("deferred_restore_identical", flag(identical)),
            (
                "revive_pages_decoded_ratio",
                deferred
                    .iter()
                    .map(DeferredRow::pages_decoded_ratio)
                    .fold(0.0, f64::max),
            ),
            ("revive_pages_copied_frac", raw_revive.pages_copied_frac()),
            (
                "faults_browse_ok_fraction",
                fraction(browse_ok, faults.len()),
            ),
            (
                "faults_search_ok_fraction",
                fraction(search_ok, faults.len()),
            ),
            ("crash_recovered_fraction", fraction(recovered, crash.len())),
        ]
        .map(|(key, value)| (key.to_string(), value)),
    );
    for row in &fs_snapshot[1..] {
        let key = format!("fs_snapshot_i{}_ratio", row.inodes);
        m.push((key, row.unit_ratio));
    }
    m.extend(kernels.iter().map(|row| (row.key.to_string(), row.ratio())));
    m.push((
        "seek_restored_frac".to_string(),
        seek_restore.restored_frac(),
    ));
    m.push((
        "replay_scroll_rows_frac".to_string(),
        replay_scroll.rows_frac(),
    ));
    m
}

/// The per-stream profile and the cost of the instrumentation itself.
fn obs_metrics(report: &ObsReport) -> Vec<(String, f64)> {
    vec![("overhead_ratio".to_string(), report.overhead_ratio())]
}

/// The classic 1/4/16/64 fan-out at full resolution, then the wide
/// 64/256/1024 sweep that stresses the readiness reactor.
fn net_metrics(classic: &[NetRow], wide: &[NetRow]) -> Vec<(String, f64)> {
    let mut m = Vec::new();
    for row in classic {
        let f = row.fanout;
        m.extend([
            (format!("net_converged_f{f}"), flag(row.all_converged)),
            (format!("net_throughput_fps_f{f}"), row.throughput_fps()),
            (
                format!("net_round_p99_ms_f{f}"),
                row.round_p99.as_secs_f64() * 1e3,
            ),
            (format!("net_coalesce_rate_f{f}"), row.coalesce_rate()),
        ]);
    }
    let cost = |row: &NetRow| row.per_client_command_us().max(1e-9);
    for row in &classic[1..] {
        let key = format!("net_per_client_overhead_f{}_ratio", row.fanout);
        m.push((key, cost(row) / cost(&classic[0])));
    }
    // The 64-viewer row anchors the wide ratios, so the 256- and
    // 1024-viewer points gate reactor scaling, not machine speed.
    let anchor = &wide[0];
    let p99 = |row: &NetRow| row.p99_per_viewer_us().max(1e-9);
    m.push((
        format!("net_wide_converged_f{}", anchor.fanout),
        flag(anchor.all_converged),
    ));
    for row in &wide[1..] {
        let f = row.fanout;
        m.extend([
            (format!("net_wide_converged_f{f}"), flag(row.all_converged)),
            (format!("net_encodes_per_batch_f{f}"), row.encode_ratio()),
            (
                format!("net_per_viewer_cpu_f{f}_ratio"),
                cost(row) / cost(anchor),
            ),
            (
                format!("net_round_p99_per_viewer_f{f}_ratio"),
                p99(row) / p99(anchor),
            ),
        ]);
    }
    let once = |row: &NetRow| (row.encode_ratio() - 1.0).abs() < 1e-9;
    let all_once = classic.iter().chain(wide).all(once);
    m.push(("net_one_encode_per_batch".to_string(), flag(all_once)));
    m
}

/// The 1/16/128/1024-session sweep over one shared commit pool, plus
/// clean neighbours beside one tenant whose every store write fails.
fn host_metrics(report: &HostReport) -> Vec<(String, f64)> {
    let mut m = Vec::new();
    for row in &report.rows {
        m.push((
            format!("host_checkpoints_s{}", row.sessions),
            row.checkpoints as f64,
        ));
        m.push((
            format!("host_committed_s{}", row.sessions),
            row.committed as f64,
        ));
    }
    for row in &report.rows[1..] {
        let key = format!("host_per_session_overhead_s{}_ratio", row.sessions);
        m.push((key, row.per_session_ratio));
    }
    // The per-tenant workload is the same at every point, so a tenant's
    // record must not depend on how many neighbours share the pool.
    let first = report.rows[0].fingerprint;
    let stable = report.rows.iter().all(|r| r.fingerprint == first);
    let i = &report.interference;
    m.extend(
        [
            ("host_fingerprint_stable", flag(stable)),
            ("host_interference_ratio", i.interference_ratio()),
            ("host_fingerprints_match", flag(i.fingerprints_match)),
            ("host_neighbors_isolated", flag(i.neighbors_degraded == 0)),
            ("host_faulted_tenant_degraded", flag(i.faulted_degraded > 0)),
            ("host_fault_traced", flag(i.faulted_traced)),
        ]
        .map(|(key, value)| (key.to_string(), value)),
    );
    m
}

/// A repetitive single tenant and sixteen similar tenants through the
/// content-addressed store, each against the same run with dedup off.
fn dedup_metrics(rows: &[DedupRow]) -> Vec<(String, f64)> {
    let mut m = Vec::new();
    for row in rows {
        let tag = row.workload.replace('-', "_");
        m.extend([
            (format!("dedup_factor_{tag}"), row.dedup_ratio()),
            (format!("dedup_mbps_{tag}"), row.dedup_mbps),
            (format!("dedup_plain_mbps_{tag}"), row.plain_mbps),
        ]);
    }
    let identical = rows.iter().all(|r| r.fingerprints_match);
    m.push(("dedup_restore_identical".to_string(), flag(identical)));
    m
}

/// The 1/16/128-session sharded-index sweep, the with/without
/// compaction comparison, and the archive-revive snapshot check.
fn index_metrics(report: &IndexReport) -> Vec<(String, f64)> {
    let mut m = Vec::new();
    for row in &report.rows {
        m.push((format!("index_states_s{}", row.sessions), row.states as f64));
        m.push((
            format!("index_segments_s{}", row.sessions),
            row.segments as f64,
        ));
    }
    for row in &report.rows[1..] {
        m.push((
            format!("index_query_p99_s{}_ratio", row.sessions),
            row.unit_ratio,
        ));
    }
    let c = &report.compaction;
    m.extend(
        [
            ("index_probe_reduction", c.probe_reduction()),
            ("index_compact_mb_per_s", c.compact_mb_per_s),
            (
                "index_segments_reduced",
                flag(c.segments_after < c.segments_before),
            ),
            ("index_compaction_identical", flag(c.results_identical)),
            (
                "index_snapshot_consistent",
                flag(report.snapshot_consistent),
            ),
        ]
        .map(|(key, value)| (key.to_string(), value)),
    );
    m
}

/// The 1/16/128-session visual-recall sweep against the linear-scan
/// oracle, and the archive-revive snapshot check.
fn visual_metrics(report: &VisualReport) -> Vec<(String, f64)> {
    let mut m = Vec::new();
    for row in &report.rows {
        let s = row.sessions;
        m.extend([
            (format!("visual_keyframes_s{s}"), row.keyframes as f64),
            (format!("visual_instances_s{s}"), row.instances as f64),
            (format!("visual_segments_s{s}"), row.segments as f64),
        ]);
    }
    let weakest = |of: fn(&VisualRow) -> f64| report.rows.iter().map(of).fold(1.0, f64::min);
    m.push(("visual_recall".to_string(), weakest(|r| r.recall)));
    m.push(("visual_identical".to_string(), weakest(|r| r.identical)));
    for row in &report.rows[1..] {
        m.push((
            format!("visual_query_p99_s{}_ratio", row.sessions),
            row.unit_ratio,
        ));
    }
    // The widest point is where the band index has to earn its keep.
    let widest = report.rows.last().expect("sweep has points");
    m.push(("visual_probe_reduction".to_string(), widest.probe_reduction));
    let consistent = flag(report.snapshot_consistent);
    m.push(("visual_snapshot_consistent".to_string(), consistent));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(key: &str, value: f64, rule: Rule) -> Gate {
        Gate {
            key: key.to_string(),
            value,
            rule,
        }
    }

    fn checked_in_baseline() -> Vec<(String, f64)> {
        parse_flat_json(include_str!("../../../BENCH_baseline.json")).expect("flat JSON")
    }

    /// Keys every suite from the smoke-scale runs the experiment tests
    /// share (plus obs, which has none). Timing ratios are noise at this
    /// size (and in a debug build), so only the deterministic rules are
    /// asserted; what the test pins is the table: which keys exist,
    /// which rule each gets, and that the baseline file and the rules
    /// name the same keys.
    #[test]
    fn suites_emit_exactly_their_table_and_the_baseline_agrees() {
        use crate::experiments::tests as smoke;
        let baseline = checked_in_baseline();
        let metrics = [
            ci_metrics(
                (&smoke::DEFERRED, &smoke::RAW_REVIVE),
                &smoke::FAULTS,
                &smoke::CRASH,
                &smoke::FS_SNAPSHOT,
                &smoke::KERNELS,
                &smoke::SEEK_RESTORE,
                &smoke::REPLAY_SCROLL,
            ),
            obs_metrics(&obs_experiment(0.01)),
            net_metrics(&smoke::NET, &smoke::NET_WIDE),
            host_metrics(&smoke::HOST),
            dedup_metrics(&smoke::DEDUP),
            index_metrics(&smoke::INDEX),
            visual_metrics(&smoke::VISUAL),
        ];
        let mut emitted: Vec<Gate> = Vec::new();
        for (suite, metrics) in SUITES.iter().zip(metrics) {
            // `pair` itself panics on a rule with no metric or a metric
            // with no rule.
            for gate in suite.pair(metrics) {
                let owners = suite.rules.iter().filter(|(p, _)| matches(p, &gate.key));
                assert_eq!(owners.count(), 1, "{}: rules overlap on it", gate.key);
                if gate.rule == MustHold {
                    assert_eq!(gate.value, 1.0, "{} does not hold", gate.key);
                }
                let twice = emitted.iter().any(|g| g.key == gate.key);
                assert!(!twice, "{} is emitted twice", gate.key);
                emitted.push(gate);
            }
        }
        for (key, _) in &baseline {
            let emitted_by_some = emitted.iter().any(|g| &g.key == key);
            assert!(emitted_by_some, "baseline key {key} is emitted by no suite");
        }
        for gate in &emitted {
            assert_eq!(
                gate.rule.reads_baseline(),
                lookup(&baseline, &gate.key).is_some(),
                "{}: baseline-gated keys and the baseline file must match",
                gate.key
            );
        }
        // The `## CI gates` table of EXPERIMENTS.md is a pasted
        // `reproduce summary`: same metrics, same enforced thresholds.
        let documented: Vec<(&str, &str)> = include_str!("../../../EXPERIMENTS.md")
            .lines()
            .skip_while(|line| *line != "## CI gates")
            .skip(1)
            .take_while(|line| !line.starts_with('#'))
            .filter_map(|line| line.strip_prefix("| `")?.strip_suffix(" |"))
            .filter_map(|row| {
                let (key, rest) = row.split_once("` | ")?;
                Some((key, rest.rsplit_once(" | ")?.1))
            })
            .collect();
        let enforced: Vec<(&str, String)> = emitted
            .iter()
            .map(|g| (g.key.as_str(), g.rule.threshold(lookup(&baseline, &g.key))))
            .collect();
        assert_eq!(documented.len(), enforced.len());
        for ((doc_key, doc_threshold), (key, threshold)) in documented.iter().zip(&enforced) {
            assert_eq!((doc_key, doc_threshold), (key, &threshold.as_str()));
        }
    }

    #[test]
    fn rules_fix_direction_limit_and_baseline_tolerance() {
        let baseline = vec![
            ("net_per_viewer_cpu_f256_ratio".to_string(), 1.0),
            ("index_probe_reduction".to_string(), 2.0),
        ];
        let passing = [
            gate("anything", f64::NAN, Report),
            gate("host_interference_ratio", 1.5, AtMost(Is(1.5))),
            gate("dedup_factor_x", 2.0, AtLeast(Is(2.0))),
            gate("net_per_viewer_cpu_f256_ratio", 1.2, AtMost(Baseline)),
            gate("index_probe_reduction", 2.0, AtLeast(Baseline)),
            gate("visual_recall", 1.0, MustHold),
        ];
        assert_eq!(failures(&passing, &baseline), Vec::<String>::new());

        let failing = [
            gate("host_interference_ratio", 1.51, AtMost(Is(1.5))),
            gate("dedup_factor_x", 1.99, AtLeast(Is(2.0))),
            gate("net_per_viewer_cpu_f256_ratio", 1.21, AtMost(Baseline)),
            gate("index_probe_reduction", 1.99, AtLeast(Baseline)),
            gate("visual_recall", 0.99, MustHold),
            gate("overhead_ratio", f64::NAN, AtMost(Is(1.05))),
            // Baseline-gated, but the file does not name it.
            gate("visual_probe_reduction", 9.0, AtLeast(Baseline)),
        ];
        let failed = failures(&failing, &baseline);
        assert_eq!(failed.len(), failing.len(), "{failed:#?}");
        assert_eq!(
            failed[2],
            "net_per_viewer_cpu_f256_ratio: 1.2100 violates <= 1.20 (baseline x1.20)"
        );
    }

    #[test]
    fn a_baseline_key_nothing_gates_is_a_failure() {
        let stale = vec![("index_query_p99_s16".to_string(), 1.0)];
        let failed = failures(&[], &stale);
        assert_eq!(failed.len(), 1);
        assert!(failed[0].starts_with("index_query_p99_s16:"), "{failed:?}");
        // Emitted, but under a fixed limit: its number in the file
        // would be a second, unenforced copy.
        let shadow = vec![("host_interference_ratio".to_string(), 1.0)];
        assert_eq!(failures(&[], &shadow).len(), 1);
        assert_eq!(failures(&[], &checked_in_baseline()), Vec::<String>::new());
    }

    #[test]
    fn summary_threshold_column_is_rendered_from_the_rule() {
        let baseline = vec![("net_round_p99_per_viewer_f256_ratio".to_string(), 1.25)];
        let p99 = "net_round_p99_per_viewer_f256_ratio";
        for (gate, row) in [
            (
                gate(p99, 0.9, AtMost(Baseline)),
                format!("| `{p99}` | 0.9000 | 1.2500 | <= 1.50 (baseline x1.20) |"),
            ),
            (
                gate("a", 0.4, AtMost(Is(1.5))),
                "| `a` | 0.4000 | - | <= 1.50 |".to_string(),
            ),
            (
                gate("b", 40.0, AtLeast(Is(2.0))),
                "| `b` | 40.0000 | - | >= 2.00 |".to_string(),
            ),
            (
                gate("c", 1.0, MustHold),
                "| `c` | 1.0000 | - | = 1 |".to_string(),
            ),
            (
                gate("d", 3.0, Report),
                "| `d` | 3.0000 | - | - |".to_string(),
            ),
            (
                gate("e", 2.5, AtLeast(Baseline)),
                "| `e` | 2.5000 | - | >= baseline (key not in the baseline file) |".to_string(),
            ),
        ] {
            assert_eq!(gate.summary_row(&baseline), row);
        }
        // What the table says about the two rows the old summary got
        // wrong, against the checked-in numbers.
        let checked_in = checked_in_baseline();
        let threshold = |suite: usize, key: &str| {
            let rule = SUITES[suite].rule_for(key).expect("in the table");
            rule.threshold(lookup(&checked_in, key))
        };
        assert_eq!(
            threshold(2, "net_round_p99_per_viewer_f1024_ratio"),
            "<= 1.50 (baseline x1.20)"
        );
        assert_eq!(
            threshold(5, "index_query_p99_s128_ratio"),
            "<= 1.20 (baseline x1.20)"
        );
    }

    #[test]
    fn flat_json_round_trips() {
        let gates = [
            gate("a_ratio", 0.25, AtMost(Is(1.0))),
            gate("b", 3.0, Report),
        ];
        let text = to_flat_json(&gates);
        assert_eq!(text, "{\n  \"a_ratio\": 0.250000,\n  \"b\": 3.000000\n}\n");
        assert_eq!(
            parse_flat_json(&text),
            Some(vec![("a_ratio".to_string(), 0.25), ("b".to_string(), 3.0)])
        );
        assert_eq!(parse_flat_json("{\"nested\": {\"x\": 1}}"), None);
    }
}
