//! Regenerates the paper's evaluation tables and figures, and runs the
//! CI gate suites.
//!
//! ```text
//! reproduce [EXPERIMENT] [--scale S] [--out P] [--baseline P]
//!
//! EXPERIMENT: a paper experiment (table1, fig2..fig7, policy, quality,
//!             deferred, faults, ablation), `all` of those (the
//!             default), a gate suite (ci, obs, net, host, dedup,
//!             index, visual) or `summary`. `--help` lists them.
//! --scale S:    workload scale factor, 1.0 = paper-sized (default 0.25;
//!               gate suites default to 1.0 for stable ratios)
//! --out P:      gate suites: where to write the metrics
//!               (default BENCH_<suite>.json)
//! --baseline P: gate suites and summary: the checked-in baseline
//!               (default BENCH_baseline.json)
//! ```
//!
//! A gate suite runs its experiments, prints their tables, writes every
//! metric to `--out` as flat `{key: number}` JSON — ratios, fractions
//! and counts, never absolute times, so one machine's run can be held to
//! another machine's baseline — and applies the rule the gate table
//! ([`dv_bench::gates::SUITES`]) gives each metric. It exits 1 if a gate
//! fails and 2 if a file it needs cannot be read or written; the
//! baseline file is needed exactly when a rule takes its limit from it.
//! What each suite measures is said where its metrics are computed, in
//! `gates.rs`.
//!
//! `summary` runs no workload: it reads the `BENCH_<suite>.json` files
//! in the current directory and prints one GitHub-flavored markdown
//! table (metric, value, baseline, threshold) for `$GITHUB_STEP_SUMMARY`,
//! the threshold column rendered from the same gate table.

use dv_bench::gates::{failures, parse_flat_json, to_flat_json, Gate, Rule, Suite, SUITES};
use dv_bench::{
    ablation_checkpoint_optimizations, ablation_mirror_tree, crash_consistency,
    deferred_experiment, faults_experiment, fig2_overhead, fig3_checkpoint_latency, fig4_storage,
    fig5_browse_search, fig6_playback, fig7_revive, policy_effectiveness, print_ablation,
    print_crash, print_deferred, print_faults, print_fig2, print_fig3, print_fig4, print_fig5,
    print_fig6, print_fig7, print_mirror_ablation, print_policy, print_quality, print_table1,
    quality_tradeoff, table1,
};

/// A paper experiment: its subcommand, and a function that runs it at a
/// scale and prints its table.
type Experiment = (&'static str, fn(f64));

/// The paper experiments `all` runs, in the paper's order.
const PAPER: &[Experiment] = &[
    ("table1", |s| print_table1(&table1(s))),
    ("fig2", |s| print_fig2(&fig2_overhead(s))),
    ("fig3", |s| print_fig3(&fig3_checkpoint_latency(s))),
    ("fig4", |s| print_fig4(&fig4_storage(s))),
    ("fig5", |s| print_fig5(&fig5_browse_search(s))),
    ("fig6", |s| print_fig6(&fig6_playback(s))),
    ("fig7", |s| print_fig7(&fig7_revive(s))),
    ("policy", |s| print_policy(&policy_effectiveness(s))),
    ("quality", |s| print_quality(&quality_tradeoff(s))),
    ("deferred", |s| print_deferred(&deferred_experiment(s))),
    ("faults", |s| {
        print_faults(&faults_experiment(s));
        println!();
        print_crash(&crash_consistency(s));
    }),
    ("ablation", |s| {
        print_ablation(&ablation_checkpoint_optimizations(s));
        println!();
        print_mirror_ablation(&ablation_mirror_tree((400.0 * s) as usize));
    }),
];

fn die(message: String) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

fn read_baseline(path: &str) -> Vec<(String, f64)> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(format!("cannot read the baseline {path}: {e}")));
    parse_flat_json(&text).unwrap_or_else(|| die(format!("{path} is not valid metrics JSON")))
}

/// Runs one gate suite: prints its tables, writes the flat metrics
/// JSON, applies every rule, lists the failures, sets the exit code.
fn run_suite(suite: &Suite, scale: f64, out: &str, baseline_path: &str) {
    let gates = suite.gates(scale);
    let json = to_flat_json(&gates);
    if let Err(e) = std::fs::write(out, &json) {
        die(format!("failed to write {out}: {e}"));
    }
    println!("\nwrote {out}:\n{json}");
    let baseline = if gates.iter().any(|g| g.rule.reads_baseline()) {
        read_baseline(baseline_path)
    } else {
        Vec::new()
    };
    let failed = failures(&gates, &baseline);
    if failed.is_empty() {
        let gated = gates.iter().filter(|g| g.rule != Rule::Report).count();
        println!(
            "{} gate: {gated} gated metrics within their limits, {} report-only",
            suite.name,
            gates.len() - gated
        );
    } else {
        eprintln!("{} gate FAILED:", suite.name);
        for failure in &failed {
            eprintln!("  {failure}");
        }
        std::process::exit(1);
    }
}

/// Prints one markdown table over every `BENCH_<suite>.json` in the
/// working directory. Runs no workload.
fn run_summary(baseline_path: &str) {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .ok()
            .and_then(|t| parse_flat_json(&t))
    };
    let baseline = read(baseline_path).unwrap_or_default();
    println!("### Benchmark summary\n");
    println!("| metric | value | baseline | threshold |");
    println!("|---|---:|---:|---|");
    let mut printed = 0usize;
    for suite in SUITES {
        for (key, value) in read(&format!("BENCH_{}.json", suite.name)).unwrap_or_default() {
            // A key the table no longer names (a file from an older
            // build) is shown, not gated.
            let rule = suite.rule_for(&key).unwrap_or(Rule::Report);
            println!("{}", Gate { key, value, rule }.summary_row(&baseline));
            printed += 1;
        }
    }
    if printed == 0 {
        println!("| _no BENCH_*.json files found_ | | | |");
    }
}

fn main() {
    let mut experiment = "all".to_string();
    let mut scale: Option<f64> = None;
    let mut out: Option<String> = None;
    let mut baseline = "BENCH_baseline.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                scale = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| die("--scale requires a positive number".to_string())),
                );
            }
            "--out" => {
                out = Some(
                    args.next()
                        .unwrap_or_else(|| die("--out requires a path".to_string())),
                );
            }
            "--baseline" => {
                baseline = args
                    .next()
                    .unwrap_or_else(|| die("--baseline requires a path".to_string()));
            }
            "--help" | "-h" => {
                let paper: Vec<&str> = PAPER.iter().map(|p| p.0).collect();
                let suites: Vec<&str> = SUITES.iter().map(|s| s.name).collect();
                eprintln!(
                    "usage: reproduce [{}|all|{}|summary] [--scale S] [--out P] [--baseline P]",
                    paper.join("|"),
                    suites.join("|"),
                );
                return;
            }
            _ => experiment = arg,
        }
    }
    if experiment == "summary" {
        // Pure markdown to stdout: no banner, so the output can be
        // appended to $GITHUB_STEP_SUMMARY as-is.
        run_summary(&baseline);
        return;
    }
    let suite = SUITES.iter().find(|s| s.name == experiment);
    let all = experiment == "all";
    if suite.is_none() && !all && !PAPER.iter().any(|p| p.0 == experiment) {
        die(format!(
            "unknown experiment {experiment:?}; --help lists them"
        ));
    }
    // The gated experiments favor paper-sized runs for stable ratios.
    let scale = scale.unwrap_or(if suite.is_some() { 1.0 } else { 0.25 });
    if scale.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        die("scale must be positive".to_string());
    }
    println!(
        "DejaView reproduction — experiment {experiment:?} at scale {scale} (1.0 = paper-sized)\n"
    );
    let started = std::time::Instant::now();
    if let Some(suite) = suite {
        let out = out.unwrap_or_else(|| format!("BENCH_{}.json", suite.name));
        run_suite(suite, scale, &out, &baseline);
    }
    for (name, run) in PAPER {
        if all || experiment == *name {
            run(scale);
            println!();
        }
    }
    eprintln!("done in {:?}", started.elapsed());
}
