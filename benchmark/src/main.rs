//! The repo benchmark. One invocation runs one workload once:
//!
//! ```text
//! rsched-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! and prints, as the last line of standard output, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics on an untraced run, the per-layer metrics on a
//! traced one. `--all` and `--selfcheck` run every workload through
//! child processes of this same binary; see `README.md`.

mod batch;
mod json;
mod metrics;
mod probes;
mod schedule;
mod serve;
mod stats;
mod suite;
mod trace;

use metrics::{Outcome, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

/// Worker threads of every workload: fixed, not derived from the host,
/// so that hosts compare.
pub const THREADS: usize = 2;
/// Synthetic service time of one serve request, ns.
pub const WORK_NS: u64 = 20_000;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["sssp-random", "bfs-random", "serve-open", "serve-closed"];

/// Where traces and summaries go, relative to the checkout root.
pub const OUT_DIR: &str = "benchmark/out";

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Ask the server for EDF scheduling (serve workloads). Off only
    /// for the control run that shows what arrival order would miss.
    pub edf: bool,
}

impl RunArgs {
    pub fn trace_path(&self) -> PathBuf {
        PathBuf::from(OUT_DIR).join(format!("{}.trace.json", self.workload))
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Set in the environment of a process that [`pinned_rerun`] started.
const PINNED_ENV: &str = "BENCH_PINNED_CPU";

/// The open-loop workload runs with the whole process pinned to one
/// CPU. On a small virtual machine, waking an idle CPU costs about as
/// much as a whole request, and whether the kernel wakes the idle CPU
/// or preempts the waker flips between whole runs (and over hours):
/// the median sojourn at 4000/s was 59 us or 119 us with nothing
/// changed. On one CPU every hand-off is a context switch, which is
/// the program's own cost and repeats. Saturated workloads never idle
/// and stay unpinned.
///
/// Re-runs this process under `taskset` on the highest allowed CPU and
/// returns its exit code; `None` means run here (already pinned, only
/// one CPU, or no `taskset` — the run then says it is not pinned).
fn pinned_rerun(args: &RunArgs) -> Option<ExitCode> {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if args.workload != "serve-open" || cpus == 1 || std::env::var_os(PINNED_ENV).is_some() {
        return None;
    }
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let cpu = allowed.trim().rsplit([',', '-']).next()?.to_string();
    let exe = std::env::current_exe().ok()?;
    let child = std::process::Command::new("taskset")
        .arg("-c")
        .arg(&cpu)
        .arg(exe)
        .args(std::env::args_os().skip(1))
        .env(PINNED_ENV, &cpu)
        .status()
        .ok()?;
    Some(ExitCode::from(child.code().unwrap_or(1) as u8))
}

fn run_workload(args: &RunArgs) -> Result<Outcome, String> {
    Ok(match args.workload.as_str() {
        "sssp-random" => batch::run(batch::Algo::Sssp, args),
        "bfs-random" => batch::run(batch::Algo::Bfs, args),
        "serve-open" => serve::run(serve::Mode::Open, args),
        "serve-closed" => serve::run(serve::Mode::Closed, args),
        other => return Err(format!("unknown workload {other:?}; one of {WORKLOADS:?}")),
    })
}

enum Command {
    One(RunArgs),
    All { seed: u64, seconds: f64 },
    Selfcheck { seed: u64, seconds: f64 },
}

fn parse_args(argv: &[String]) -> Result<Command, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut edf) =
        (None, 42u64, None, false, true);
    let (mut all, mut selfcheck) = (false, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let switch = |v: &str| match v {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(format!("{flag} takes 0 or 1, not {v:?}")),
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = switch(value()?)?,
            "--edf" => edf = switch(value()?)?,
            "--all" => all = true,
            "--selfcheck" => selfcheck = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if seconds.is_some_and(|s| !(s > 0.0 && s <= 600.0)) {
        return Err("--seconds must be in (0, 600]".into());
    }
    match (workload, all, selfcheck) {
        (Some(workload), false, false) => Ok(Command::One(RunArgs {
            workload,
            seed,
            seconds: seconds.ok_or("--seconds is required with --workload")?,
            trace,
            edf,
        })),
        (None, true, false) => Ok(Command::All {
            seed,
            seconds: seconds.unwrap_or(suite::DEFAULT_SECONDS),
        }),
        (None, false, true) => Ok(Command::Selfcheck {
            seed,
            seconds: seconds.unwrap_or(suite::DEFAULT_SECONDS),
        }),
        _ => Err("give exactly one of --workload <name>, --all, --selfcheck".into()),
    }
}

fn main() -> ExitCode {
    // The program's RSCHED_* knobs stay at their defaults, whatever
    // the caller's environment holds. Nothing else is running yet.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("RSCHED_") {
            std::env::remove_var(key);
        }
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("rsched-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let args = match command {
        Command::One(args) => args,
        Command::All { seed, seconds } => return suite::all(seed, seconds),
        Command::Selfcheck { seed, seconds } => return suite::selfcheck(seed, seconds),
    };
    if let Some(code) = pinned_rerun(&args) {
        return code;
    }
    let outcome = match run_workload(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("rsched-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "workload {} seed {} seconds {} trace {} threads {} cpus_usable {} pinned_to {}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        THREADS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        std::env::var(PINNED_ENV).unwrap_or("none".into()),
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    print!("{}", outcome.table(table));
    println!(
        "ops_attempted {} ops_failed {} correct {}",
        outcome.attempted, outcome.failed, outcome.correct
    );
    println!("{}", outcome.result_line(table, args.trace));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
