//! The gate table: what each `reproduce` gate suite measures and what
//! every metric it emits must satisfy.
//!
//! A [`Suite`] is a name, the experiments it runs (each builds its
//! tables and flat `(key, value)` metrics where it measures them) and
//! the [`Rule`] for each metric name. [`SUITES`] is the only place a
//! threshold is written down: the runner, `reproduce summary`, CI and
//! the docs all read it. A rule also fixes which way its metric is
//! compared with its limit, so a metric name carries no meaning.

use crate::experiments::{
    crash_consistency, dedup_experiment, deferred_experiment, faults_experiment,
    fs_snapshot_experiment, host_experiment, index_experiment, kernel_experiment, net_experiment,
    obs_experiment, raw_revive_experiment, replay_scroll_experiment, run,
    seek_keyframe_writes_experiment, seek_restore_experiment, visual_experiment, Experiment,
};

/// What a metric must satisfy. Every limit is a literal in [`SUITES`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Rule {
    /// Printed and written, never tested.
    Report,
    /// Lower is better; fails above the limit.
    AtMost(f64),
    /// Higher is better; fails below the limit.
    AtLeast(f64),
    /// A flag, or a fraction of cases that all must pass; fails
    /// under 1.
    MustHold,
}

use Rule::{AtLeast, AtMost, MustHold, Report};

impl Rule {
    /// Whether `value` satisfies the rule. A value that is not a number
    /// fails any rule but report-only.
    fn holds(self, value: f64) -> bool {
        match self {
            Report => true,
            AtMost(limit) => value <= limit,
            AtLeast(limit) => value >= limit,
            MustHold => value >= 1.0,
        }
    }

    /// The rule as `reproduce summary` and failure lines print it.
    fn threshold(self) -> String {
        match self {
            Report => "-".to_string(),
            MustHold => "= 1".to_string(),
            AtMost(limit) => format!("<= {limit:.2}"),
            AtLeast(limit) => format!(">= {limit:.2}"),
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
    /// The gate as one `| metric | value | limit |` row of the
    /// `reproduce summary` markdown table.
    pub fn summary_row(&self) -> String {
        format!(
            "| `{}` | {:.4} | {} |",
            self.key,
            self.value,
            self.rule.threshold()
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
    /// The experiments the suite runs, in order; each emits its
    /// metrics where it measures them.
    experiments: &'static [Experiment],
}

/// The gate table.
///
/// Unit-cost ratios divide one sweep point by the sweep's first point
/// measured in the same run (or the same interleaved pass), so a fixed
/// limit holds across machines. A ceiling fitted on runs is the worst
/// read over 20 runs on a 2-vCPU VM times 1.2, rounded up to 0.01; the
/// row's comment gives the range read.
pub const SUITES: &[Suite] = &[
    Suite {
        name: "ci",
        rules: &[
            // The cores the commit workers could run on: the deferred
            // stall ratios are read beside it.
            ("nproc", Report),
            // Session-thread stall with N commit workers over the
            // stall with none, the median of 16 order-alternating
            // pairs: 0.028-0.034, 0.028-0.034 and 0.074-0.153. Every
            // configuration forced inline reads ~1.0. The workers need
            // a core of their own: on one CPU the rows read 0.37-0.90
            // and fail (DESIGN.md §6).
            ("deferred_stall_w1_ratio", AtMost(0.05)),
            ("deferred_stall_w2_ratio", AtMost(0.05)),
            ("deferred_stall_w4_ratio", AtMost(0.19)),
            ("deferred_restore_identical", MustHold),
            // Revive copies a page out of one image only: the newest
            // that holds it. Decoding every image of the chain read 1.86.
            ("revive_pages_decoded_ratio", AtMost(1.0)),
            // Revive installs a raw image's pages as windows into the
            // stored blob. Copying each page out read 1.0.
            ("revive_pages_copied_frac", AtMost(0.0)),
            ("faults_browse_ok_fraction", MustHold),
            ("faults_search_ok_fraction", MustHold),
            ("crash_recovered_fraction", MustHold),
            // A snapshot point costs what was written since the last
            // one, not what the file system holds.
            ("fs_snapshot_i*_ratio", AtMost(2.0)),
            // A frame-sized CRC runs interleaved lanes; a short one
            // cannot (0.38-0.57). One chain at every length reads 1.0.
            ("crc_per_byte_448k_ratio", AtMost(0.69)),
            // Pixels move as a slice: a zero-fill and a copy (1.78-1.92),
            // not a push per pixel (which read 8.6-15).
            ("raw_strip_encode_memcpy_ratio", AtMost(2.31)),
            // The commit path's RLE scan tests two aligned 4-byte groups
            // per word load (22-27). A scan a byte at a time read 47-68.
            ("image_compress_memcpy_ratio", AtMost(36.0)),
            // Chunking starts each chunk's gear hash 64 bytes before
            // MIN_CHUNK and takes both id halves in one pass (29-35).
            // Hashing every byte and each chunk twice read 46-59.
            ("cas_split_memcpy_ratio", AtMost(40.0)),
            // Revive steps over a compressed page it does not keep by
            // its RLE token headers (0.50-0.58). Decoding each skipped
            // page into a scratch buffer read 0.68-0.91, under the
            // fitted 0.70 once in ten, so the limit sits below it;
            // decompressing the image before stepping over its pages
            // read 1.02.
            ("revive_compressed_skip_ratio", AtMost(0.65)),
            // A keyframe seek copies from its keyframe only what its
            // replay does not paint over first. Copying the keyframe
            // whole before replaying read 1.0.
            ("seek_restored_frac", AtMost(0.25)),
            // Once the engine's keyframe cache is full, a keyframe seek
            // writes its frame from a keyframe once: copied out of the
            // cache, or decoded straight into the frame. Decoding a miss
            // into an evicting cache first read 1 + the miss fraction.
            ("seek_keyframe_writes_frac", AtMost(1.0)),
            // A replay scrolls a terminal by moving its row origin and
            // copies only the line each scroll leaves in place, plus one
            // restore a slice. One copy per scroll read 1.0.
            ("replay_scroll_rows_frac", AtMost(0.25)),
        ],
        experiments: &[
            |scale| deferred_experiment(scale).0,
            |scale| raw_revive_experiment(scale).0,
            |scale| faults_experiment(scale.min(0.25)),
            |scale| crash_consistency(scale.min(0.25)),
            fs_snapshot_experiment,
            kernel_experiment,
            seek_restore_experiment,
            seek_keyframe_writes_experiment,
            replay_scroll_experiment,
        ],
    },
    Suite {
        name: "obs",
        // Instrumented over uninstrumented wall time, the median of 16
        // order-alternating pairs.
        rules: &[("overhead_ratio", AtMost(1.05))],
        experiments: &[obs_experiment],
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
            ("net_per_client_overhead_f*_ratio", AtMost(1.20)),
            ("net_wide_converged_f*", MustHold),
            ("net_encodes_per_batch_f*", Report),
            // Server CPU per viewer at 256 and 1024 viewers over the
            // 64-viewer run's of the same pass, the least of three
            // interleaved passes: 0.57-0.79 and 0.56-0.74.
            ("net_per_viewer_cpu_f256_ratio", AtMost(0.95)),
            ("net_per_viewer_cpu_f1024_ratio", AtMost(0.90)),
            // Round p99 per viewer over the 64-viewer row's, the least
            // of three interleaved passes: 0.21-0.71 and 0.21-0.79.
            ("net_round_p99_per_viewer_f256_ratio", AtMost(0.86)),
            ("net_round_p99_per_viewer_f1024_ratio", AtMost(0.96)),
            // Every row of both sweeps: fan-out is refcount bumps,
            // never a second encode.
            ("net_one_encode_per_batch", MustHold),
        ],
        experiments: &[net_experiment],
    },
    Suite {
        name: "host",
        rules: &[
            ("host_checkpoints_s*", Report),
            ("host_committed_s*", Report),
            ("host_per_session_overhead_s*_ratio", AtMost(1.25)),
            ("host_fingerprint_stable", MustHold),
            // Fair lane scheduling keeps a faulted tenant's retry storm
            // off its neighbours' threads; a healthy host sits near 1
            // (0.93-1.10, the median of 16 order-alternating pairs).
            ("host_interference_ratio", AtMost(1.33)),
            ("host_fingerprints_match", MustHold),
            ("host_neighbors_isolated", MustHold),
            // The interference run proves nothing unless the fault bit
            // and left a trace under the tenant's label.
            ("host_faulted_tenant_degraded", MustHold),
            ("host_fault_traced", MustHold),
        ],
        experiments: &[host_experiment],
    },
    Suite {
        name: "dedup",
        rules: &[
            // Both workloads repeat checkpoint content; a store that
            // finds under half the redundancy has stopped deduping.
            ("dedup_factor_*", AtLeast(2.0)),
            ("dedup_mbps_*", Report),
            ("dedup_plain_mbps_*", Report),
            ("dedup_restore_identical", MustHold),
        ],
        experiments: &[dedup_experiment],
    },
    Suite {
        name: "index",
        rules: &[
            ("index_states_s*", Report),
            ("index_segments_s*", Report),
            // Query p99 at 16 and 128 sessions over 16 and 128 times
            // the one-session p99: 0.027-0.097 and 0.051-0.106.
            // Decoding every segment for every query (no decoded-segment
            // cache) read 0.72-0.81.
            ("index_query_p99_s16_ratio", AtMost(0.12)),
            ("index_query_p99_s128_ratio", AtMost(0.13)),
            // Compaction cuts probes per query from 25 to 5, every run.
            // Compaction that stops at the first level read 3.12.
            ("index_probe_reduction", AtLeast(5.0)),
            ("index_compact_mb_per_s", Report),
            ("index_segments_reduced", MustHold),
            ("index_compaction_identical", MustHold),
            ("index_snapshot_consistent", MustHold),
        ],
        experiments: &[index_experiment],
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
            // Query p99 at 16 and 128 sessions over 16 and 128 times
            // the one-session p99: 0.089-0.272 and 0.082-0.477. With no
            // decoded-segment cache: 0.64-0.82 and 0.85-0.96.
            ("visual_query_p99_s16_ratio", AtMost(0.33)),
            ("visual_query_p99_s128_ratio", AtMost(0.58)),
            // A linear scan's comparisons over the band index's: 9.2632
            // every run. Buckets keyed on 8 of a band's 16 bits read 3.03.
            ("visual_probe_reduction", AtLeast(9.26)),
            ("visual_snapshot_consistent", MustHold),
        ],
        experiments: &[visual_experiment],
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

impl Suite {
    /// The rule the suite's table assigns to `key`, if it names it.
    pub fn rule_for(&self, key: &str) -> Option<Rule> {
        self.rules
            .iter()
            .find(|(pattern, _)| matches(pattern, key))
            .map(|&(_, rule)| rule)
    }

    /// Runs the suite's experiments, prints their tables, and pairs
    /// every metric they emitted with its rule.
    pub fn gates(&self, scale: f64) -> Vec<Gate> {
        self.pair(run(self.experiments, scale))
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

/// Applies every gate's rule and returns one line per failure.
pub fn failures(gates: &[Gate]) -> Vec<String> {
    gates
        .iter()
        .filter(|gate| !gate.rule.holds(gate.value))
        .map(|gate| {
            format!(
                "{}: {:.4} violates {}",
                gate.key,
                gate.value,
                gate.rule.threshold()
            )
        })
        .collect()
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

    /// Keys every suite from the smoke-scale runs the experiment tests
    /// share (plus obs, which has none). Timing ratios are noise at this
    /// size (and in a debug build), so only the deterministic rules are
    /// asserted; what the test pins is the table: which keys exist and
    /// which rule each gets.
    #[test]
    fn suites_emit_exactly_their_table() {
        use crate::experiments::tests as smoke;
        use crate::report::Report;
        let obs = obs_experiment(0.01);
        let reports: [Vec<&Report>; 7] = [
            vec![
                &smoke::DEFERRED.0,
                &smoke::RAW_REVIVE.0,
                &smoke::FAULTS,
                &smoke::CRASH,
                &smoke::FS_SNAPSHOT,
                &smoke::KERNELS,
                &smoke::SEEK_RESTORE,
                &smoke::SEEK_WRITES,
                &smoke::REPLAY_SCROLL,
            ],
            vec![&obs],
            vec![&smoke::NET],
            vec![&smoke::HOST],
            vec![&smoke::DEDUP],
            vec![&smoke::INDEX],
            vec![&smoke::VISUAL],
        ];
        let mut emitted: Vec<Gate> = Vec::new();
        for (suite, reports) in SUITES.iter().zip(reports) {
            assert_eq!(
                reports.len(),
                suite.experiments.len(),
                "suite {}",
                suite.name
            );
            let metrics = reports.iter().flat_map(|r| r.metrics.clone()).collect();
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
        // The `## CI gates` table of EXPERIMENTS.md is a pasted
        // `reproduce summary`: same metrics, same limits.
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
            .map(|g| (g.key.as_str(), g.rule.threshold()))
            .collect();
        assert_eq!(documented.len(), enforced.len());
        for ((doc_key, doc_threshold), (key, threshold)) in documented.iter().zip(&enforced) {
            assert_eq!((doc_key, doc_threshold), (key, &threshold.as_str()));
        }
    }

    #[test]
    fn rules_fix_direction_and_limit() {
        let passing = [
            gate("anything", f64::NAN, Report),
            gate("host_interference_ratio", 1.5, AtMost(1.5)),
            gate("dedup_factor_x", 2.0, AtLeast(2.0)),
            gate("visual_recall", 1.0, MustHold),
        ];
        assert_eq!(failures(&passing), Vec::<String>::new());

        let failing = [
            gate("host_interference_ratio", 1.51, AtMost(1.5)),
            gate("dedup_factor_x", 1.99, AtLeast(2.0)),
            gate("visual_recall", 0.99, MustHold),
            gate("overhead_ratio", f64::NAN, AtMost(1.05)),
            gate("index_probe_reduction", f64::NAN, AtLeast(2.0)),
        ];
        let failed = failures(&failing);
        assert_eq!(failed.len(), failing.len(), "{failed:#?}");
        assert_eq!(
            failed[0],
            "host_interference_ratio: 1.5100 violates <= 1.50"
        );
    }

    #[test]
    fn summary_threshold_column_is_rendered_from_the_rule() {
        for (gate, row) in [
            (gate("a", 0.4, AtMost(1.5)), "| `a` | 0.4000 | <= 1.50 |"),
            (gate("b", 40.0, AtLeast(2.0)), "| `b` | 40.0000 | >= 2.00 |"),
            (gate("c", 1.0, MustHold), "| `c` | 1.0000 | = 1 |"),
            (gate("d", 3.0, Report), "| `d` | 3.0000 | - |"),
        ] {
            assert_eq!(gate.summary_row(), row);
        }
        // What the table says about the two rows an older summary got
        // wrong.
        let threshold = |suite: usize, key: &str| {
            SUITES[suite]
                .rule_for(key)
                .expect("in the table")
                .threshold()
        };
        assert_eq!(
            threshold(2, "net_round_p99_per_viewer_f1024_ratio"),
            "<= 0.96"
        );
        assert_eq!(threshold(5, "index_query_p99_s128_ratio"), "<= 0.13");
    }

    #[test]
    fn flat_json_round_trips() {
        let gates = [gate("a_ratio", 0.25, AtMost(1.0)), gate("b", 3.0, Report)];
        let text = to_flat_json(&gates);
        assert_eq!(text, "{\n  \"a_ratio\": 0.250000,\n  \"b\": 3.000000\n}\n");
        assert_eq!(
            parse_flat_json(&text),
            Some(vec![("a_ratio".to_string(), 0.25), ("b".to_string(), 3.0)])
        );
        assert_eq!(parse_flat_json("{\"nested\": {\"x\": 1}}"), None);
    }
}
