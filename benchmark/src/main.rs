//! `dv-benchmark`: the repository's end-to-end benchmark.
//!
//! ```text
//! dv-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! dv-benchmark --selfcheck [--seconds <s>]
//! ```
//!
//! One run generates the workload from the seed, plays it against the
//! real stack, checks every output against the generator's oracle, and
//! prints a report followed by one JSON line: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.

mod alloc;
mod calib;
mod host;
mod metrics;
mod player;
mod rng;
mod script;
mod selfcheck;
mod single;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use single::RunResult;
use workloads::Workload;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set in the environment of the re-executed process.
const CHILD_MARK: &str = "DV_BENCHMARK_REEXEC";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: workloads::RUN_SECONDS,
        trace: false,
        selfcheck: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !args.selfcheck && args.workload.is_none() {
        return Err("--workload <name> or --selfcheck is required".into());
    }
    Ok(args)
}

/// Re-executes this binary once with the allocator settings that keep
/// faulted pages mapped: one arena, everything up to the largest
/// threshold glibc accepts served from the `brk` heap, and no trimming.
/// Returns only if the re-exec could not happen.
fn reexec_with_malloc_env() -> std::io::Error {
    use std::os::unix::process::CommandExt;
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return e,
    };
    std::process::Command::new(exe)
        .args(std::env::args_os().skip(1))
        .env(CHILD_MARK, "1")
        .env("MALLOC_ARENA_MAX", "1")
        .env("MALLOC_MMAP_THRESHOLD_", alloc::MMAP_THRESHOLD.to_string())
        .env("MALLOC_TRIM_THRESHOLD_", (64u64 << 30).to_string())
        .env("MALLOC_TOP_PAD_", (64u64 << 20).to_string())
        .exec()
}

/// Pins the process, and so every thread it will start, to the CPU it
/// is on now.
///
/// The reference box shows its two vCPUs as two cores, but how much of
/// the second one a run gets changes for minutes at a time: with a
/// commit worker beside the player, `host_tenants` read
/// `checkpoint_stall_p90_ms` 0.97 ms in one spell and 1.9–2.0 ms in the
/// next, and pinned to one CPU it reads 1.9 ms in both. On one CPU the
/// worker still runs off the session's critical path, it just takes
/// turns with the player, and the numbers stop depending on the spell.
fn pin_to_one_cpu() -> std::io::Result<()> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only reads.
    let cpu = unsafe { sched_getcpu() };
    if !(0..1024).contains(&cpu) {
        return Err(std::io::Error::last_os_error());
    }
    let mut mask = [0u64; 16];
    mask[cpu as usize / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live 128-byte buffer, the size of glibc's
    // `cpu_set_t`, and pid 0 names the calling thread.
    match unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } {
        0 => Ok(()),
        _ => Err(std::io::Error::last_os_error()),
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(r: &RunResult) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.tally.failed == 0,
        r.tally.attempted,
        r.tally.failed
    );
    for (i, m) in r.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dv-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.selfcheck {
        return selfcheck::run(args.seconds);
    }
    if std::env::var_os(CHILD_MARK).is_none() {
        let e = reexec_with_malloc_env();
        eprintln!("dv-benchmark: re-exec failed ({e}); continuing without allocator settings");
    }
    if let Err(e) = pin_to_one_cpu() {
        eprintln!("dv-benchmark: could not pin to one CPU ({e}); continuing unpinned");
    }
    let w = args.workload.expect("checked by parse_args");
    let t0 = Instant::now();
    alloc::prefault(w.peak_heap_mib_per_second() * args.seconds * (1 << 20) * 5 / 4);
    let prefault_s = t0.elapsed().as_secs_f64();

    let result = if w == Workload::HostTenants {
        host::run(args.seed, args.seconds, args.trace, prefault_s)
    } else {
        single::run(w, args.seed, args.seconds, args.trace, prefault_s)
    };
    print!("{}", result.text);
    println!("why: {}", workloads::why(w));
    println!(
        "prefault {prefault_s:.3} s, whole run {:.3} s, peak heap {:.1} MB",
        t0.elapsed().as_secs_f64(),
        alloc::stats().peak as f64 / 1e6
    );
    for m in &result.metrics {
        println!("{:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(&result));
    if result.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
