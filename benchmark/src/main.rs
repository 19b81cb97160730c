//! The repository benchmark: end-to-end metrics per workload, or with
//! `--trace 1` the per-layer ledger, checked for correctness in the same
//! run. See README.md in this directory.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload gemm_fleet --seed 1 --seconds 25 --trace 0
//! ```
//!
//! The last line of standard output is the result object
//! (`correct`, `attempted`, `failed`, `metrics`); the line before it holds
//! the machine and run facts.

mod fleet;
mod model;
mod report;
mod schedule;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;
use std::sync::OnceLock;
use std::time::Instant;

use dlpic_repro::engine::json::{obj, Json};

use report::{Outcome, END_TO_END, PER_LAYER};

/// Every workload, in BENCHMARK.json order.
pub const WORKLOADS: [&str; 3] = ["gemm_fleet", "paper_fleet", "serve_open"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (knows {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(25.0),
        trace: trace.unwrap_or(false),
    })
}

static START: OnceLock<Instant> = OnceLock::new();

/// Logs a phase of the run to standard error with the seconds since start.
pub fn progress(what: &str) {
    let t = START.get_or_init(Instant::now).elapsed().as_secs_f64();
    eprintln!("[{t:8.2}s] {what}");
}

/// A `/proc/self/status` field in kB, when the kernel provides it.
fn proc_status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Resident high-water mark of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Resets the resident high-water mark so `peak_rss_mb` covers the
/// workload's run, not training. Records whether the kernel allowed it.
pub fn reset_peak_rss(out: &mut Outcome) {
    let reset = std::fs::write("/proc/self/clear_refs", "5").is_ok();
    out.fact("peak_rss_reset_after_setup", Json::Bool(reset));
}

/// Writes the traced run's spans to `benchmark/traces/` under the
/// working directory (the checkout root).
pub fn write_trace(args: &Args, tracer: &trace::Tracer) {
    let dir = std::path::Path::new("benchmark/traces");
    let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
    let doc = obj(vec![
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::Num(args.seed as f64)),
        ("spans", tracer.to_json()),
    ]);
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc.to_compact()));
    match written {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn machine_facts(args: &Args, out: &mut Outcome) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.fact("workload", Json::Str(args.workload.clone()));
    out.fact("seed", Json::Num(args.seed as f64));
    out.fact("seconds", Json::Num(args.seconds));
    out.fact("trace", Json::Bool(args.trace));
    out.fact("nproc", Json::Num(nproc as f64));
    out.fact(
        "threads",
        Json::Num(dlpic_repro::core::pool::available_threads() as f64),
    );
    out.fact(
        "simd_level",
        Json::Str(dlpic_repro::nn::linalg::simd_level().into()),
    );
    out.fact("model_arch", Json::Str(model::arch_name()));
    out.fact("model_train_seed", Json::Num(model::TRAIN_SEED as f64));
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dlpic-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    progress(&format!("{} seed {}", args.workload, args.seed));
    let result = match args.workload.as_str() {
        "serve_open" => serve::run(&args),
        _ => fleet::run(&args),
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("dlpic-benchmark: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    out.metric("failed_share", out.failed_share());
    machine_facts(&args, &mut out);
    println!("{}", out.facts_line());
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", out.result_line(names));
    ExitCode::SUCCESS
}
