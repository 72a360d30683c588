//! `--selfcheck`: does the benchmark agree with itself?
//!
//! Runs two interleaved sets (A, B, A, B, A, B) of every workload on
//! this same binary and compares the sets' medians metric by metric
//! against the bound recorded for each. Same code on both sides, so
//! any difference is the benchmark's own noise; a difference beyond a
//! bound means a later change could be accepted or refused by chance.

use std::process::{Command, ExitCode};

use crate::metrics::END_TO_END;
use crate::stats::{median, quartiles};
use crate::workloads::Workload;

const RUNS_PER_SET: usize = 3;
const SEED: u64 = 1;

/// What one child run reported.
struct Child {
    values: Vec<(String, f64)>,
    failed: u64,
    rules_ok: bool,
    report: Vec<String>,
}

/// Pulls `"name": {"value": v, ...}` pairs out of a result line. The
/// line is this program's own output, so the format is fixed.
pub fn metric_values(line: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(at) = rest.find("\": {\"value\": ") {
        let name_start = rest[..at].rfind('"').map_or(0, |i| i + 1);
        let name = rest[name_start..at].to_string();
        let tail = &rest[at + "\": {\"value\": ".len()..];
        let end = tail.find(',').unwrap_or(tail.len());
        if let Ok(value) = tail[..end].trim().parse::<f64>() {
            out.push((name, value));
        }
        rest = &tail[end..];
    }
    out
}

fn run_child(w: Workload, seconds: u64) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &SEED.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    let last = lines.last().ok_or("child printed nothing")?;
    let failed = last
        .split("\"failed\": ")
        .nth(1)
        .and_then(|t| t.split(',').next())
        .and_then(|n| n.trim().parse().ok())
        .ok_or("child's result line has no failed count")?;
    Ok(Child {
        values: metric_values(last),
        failed,
        rules_ok: lines.iter().any(|l| l.starts_with("rules: ok")),
        report: lines
            .iter()
            .filter(|l| {
                l.starts_with("phase walls:")
                    || l.starts_with("samples:")
                    || l.starts_with("rules:")
            })
            .map(|l| l.to_string())
            .collect(),
    })
}

pub fn run(seconds: u64) -> ExitCode {
    let mut ok = true;
    for w in Workload::ALL {
        println!("== {} ==", w.name());
        let mut sets: [Vec<Child>; 2] = [Vec::new(), Vec::new()];
        for i in 0..2 * RUNS_PER_SET {
            match run_child(w, seconds) {
                Ok(child) => {
                    println!("run {} (set {}):", i + 1, ["A", "B"][i % 2]);
                    for line in &child.report {
                        println!("  {line}");
                    }
                    if child.failed > 0 || !child.rules_ok {
                        println!(
                            "  FAILED: {} operations failed, rules ok: {}",
                            child.failed, child.rules_ok
                        );
                        ok = false;
                    }
                    sets[i % 2].push(child);
                }
                Err(e) => {
                    println!("run {} failed to report: {e}", i + 1);
                    return ExitCode::FAILURE;
                }
            }
        }
        println!(
            "{:<26} {:>14} {:>14} {:>14} {:>14} {:>14} {:>14} {:>8} {:>6}",
            "metric", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "diff", "bound"
        );
        for (name, _, better, bound) in END_TO_END {
            let of = |set: &[Child]| -> Vec<f64> {
                set.iter()
                    .filter_map(|c| c.values.iter().find(|v| v.0 == name).map(|v| v.1))
                    .collect()
            };
            let (a, b) = (of(&sets[0]), of(&sets[1]));
            let (ma, mb) = (median(&a), median(&b));
            let ((a1, a3), (b1, b3)) = (quartiles(&a), quartiles(&b));
            // Positive when set B reads worse than set A.
            let diff = if better == "lower" {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            let within = diff.abs() <= bound;
            ok &= within;
            println!(
                "{name:<26} {a1:>14.4} {ma:>14.4} {a3:>14.4} {b1:>14.4} {mb:>14.4} {b3:>14.4} {:>7.2}% {:>5.0}%{}",
                diff * 100.0,
                bound * 100.0,
                if within { "" } else { "  BEYOND BOUND" }
            );
        }
    }
    if ok {
        println!("selfcheck: both sets agree within every bound");
        ExitCode::SUCCESS
    } else {
        println!("selfcheck: FAILED");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let line = r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"setup_s": {"value": 0.8127, "unit": "s"}, "record_steps_per_s": {"value": 1234.5, "unit": "1/s"}}}"#;
        assert_eq!(
            metric_values(line),
            vec![
                ("setup_s".to_string(), 0.8127),
                ("record_steps_per_s".to_string(), 1234.5)
            ]
        );
    }
}
