//! Outside-in benchmark of the tensor-casting system.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train_skewed|train_uniform|serve_open|train_serve> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, sets the system up
//! several times (reporting the median set-up time), measures one window
//! of `--seconds`, checks the outputs, and prints a header, readable
//! detail lines, every metric by name and unit, and — as the last line —
//! one JSON result. `--trace 1` measures an untraced window and then a
//! traced one, reports the per-layer metrics and the tracing overhead,
//! and writes the spans as Chrome trace-event JSON under `perfbench/out`.

mod host;
mod inputs;
mod openloop;
mod report;
mod serving;
mod stats;
mod trace;
mod train;
mod workloads;

use std::path::Path;
use std::process::ExitCode;

use workloads::{Args, WORKLOADS};

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        traced: traced.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Inputs and traces stay inside the benchmark's own directory.
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let work = out.join(format!("inputs-{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let report = workloads::run(&args, &work, &out);
    // Best effort: a leftover input directory only costs disk space.
    let _ = std::fs::remove_dir_all(&work);
    report.print(args.traced);
    ExitCode::SUCCESS
}
