//! Regenerates the paper's evaluation tables and figures, and runs the
//! CI gate suites.
//!
//! ```text
//! reproduce [EXPERIMENT] [--scale S] [--out P]
//!
//! EXPERIMENT: a paper experiment (table1, fig2..fig7, policy, quality,
//!             deferred, faults, ablation), `all` of those (the
//!             default), the report-only `micro`, a gate suite (ci,
//!             obs, net, host, dedup, index, visual) or `summary`.
//!             `--help` lists them.
//! --scale S: workload scale factor, 1.0 = paper-sized (default 0.25;
//!            gate suites default to 1.0 for stable ratios)
//! --out P:   gate suites: where to write the metrics
//!            (default BENCH_<suite>.json)
//! ```
//!
//! A gate suite runs its experiments, prints their tables, writes every
//! metric to `--out` as flat `{key: number}` JSON — ratios, fractions
//! and counts, never absolute times, so one limit holds on any machine —
//! and applies the rule the gate table ([`dv_bench::gates::SUITES`])
//! gives each metric. It exits 1 if a gate fails and 2 on a bad
//! argument or an `--out` it cannot write. What each metric measures is
//! said where it is emitted, in the experiment that measures it
//! (`experiments.rs`).
//!
//! `summary` runs no workload: it reads the `BENCH_<suite>.json` files
//! in the current directory and prints one GitHub-flavored markdown
//! table (metric, value, limit) for `$GITHUB_STEP_SUMMARY`, the limit
//! column rendered from the same gate table.

#![deny(unsafe_code)]

use dv_bench::experiments::{run, Experiment, PAPER, REPORTS};
use dv_bench::gates::{failures, parse_flat_json, to_flat_json, Gate, Rule, Suite, SUITES};

fn die(message: String) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

/// Runs one gate suite: prints its tables, writes the flat metrics
/// JSON, applies every rule, lists the failures, sets the exit code.
fn run_suite(suite: &Suite, scale: f64, out: &str) {
    let gates = suite.gates(scale);
    let json = to_flat_json(&gates);
    if let Err(e) = std::fs::write(out, &json) {
        die(format!("failed to write {out}: {e}"));
    }
    println!("wrote {out}:\n{json}");
    let failed = failures(&gates);
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
fn run_summary() {
    println!("### Benchmark summary\n");
    println!("| metric | value | limit |");
    println!("|---|---:|---|");
    let mut printed = 0usize;
    for suite in SUITES {
        let metrics = std::fs::read_to_string(format!("BENCH_{}.json", suite.name))
            .ok()
            .and_then(|t| parse_flat_json(&t));
        for (key, value) in metrics.unwrap_or_default() {
            // A key the table no longer names (a file from an older
            // build) is shown, not gated.
            let rule = suite.rule_for(&key).unwrap_or(Rule::Report);
            println!("{}", Gate { key, value, rule }.summary_row());
            printed += 1;
        }
    }
    if printed == 0 {
        println!("| _no BENCH_*.json files found_ | | |");
    }
}

fn main() {
    let mut experiment = "all".to_string();
    let mut scale: Option<f64> = None;
    let mut out: Option<String> = None;
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
            "--help" | "-h" => {
                let names = |list: &[(&'static str, &[Experiment])]| {
                    list.iter().map(|p| p.0).collect::<Vec<_>>()
                };
                let suites: Vec<&str> = SUITES.iter().map(|s| s.name).collect();
                eprintln!(
                    "usage: reproduce [{}|all|{}|{}|summary] [--scale S] [--out P]",
                    names(PAPER).join("|"),
                    names(REPORTS).join("|"),
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
        run_summary();
        return;
    }
    let suite = SUITES.iter().find(|s| s.name == experiment);
    let all = experiment == "all";
    let known = PAPER.iter().chain(REPORTS).any(|p| p.0 == experiment);
    if suite.is_none() && !all && !known {
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
        run_suite(suite, scale, &out);
    }
    for (name, experiments) in PAPER {
        if all || experiment == *name {
            run(experiments, scale);
        }
    }
    for (name, experiments) in REPORTS {
        if experiment == *name {
            run(experiments, scale);
        }
    }
    eprintln!("done in {:?}", started.elapsed());
}
