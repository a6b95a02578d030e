//! Wall-clock benchmark of the PASTA-on-Edge HHE stack.
//!
//! ```text
//! wallbench --workload <edge-stream|transcipher-pasta4|service-mixed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs two lanes of work (see `README.md`) on inputs
//! generated from `--seed`, measures for `--seconds` of wall clock,
//! verifies every output outside the timed window, and prints one JSON
//! object as the last line of stdout. With `--trace 0` it holds the
//! end-to-end metrics; with `--trace 1` the run records spans around the
//! calls into each layer and reports the per-layer metrics instead. A
//! record with the run's environment is written next to the span file
//! under the cargo target directory (`compare.py` reads it).

mod edge;
mod metrics;
mod service;
mod sys;
mod trace;
mod transcipher;

use metrics::Report;
use std::process::ExitCode;
use std::time::Duration;

/// The parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["edge-stream", "transcipher-pasta4", "service-mixed"];

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
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                });
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("wallbench: {e}");
            return ExitCode::from(2);
        }
    };
    let env = sys::Environment::capture();
    eprintln!("wallbench: {}", env.summary());
    let budget = Duration::from_secs_f64(args.seconds);
    let mut tracer = trace::Tracer::new(args.trace);
    let report: Report = match args.workload.as_str() {
        "edge-stream" => edge::run(&args, budget, &mut tracer),
        "transcipher-pasta4" => transcipher::run(&args, budget, &mut tracer),
        _ => service::run(&args, budget, &mut tracer),
    };
    let report = report.finish(&args, &env, &tracer);
    println!("{}", report.result_line(args.trace));
    ExitCode::SUCCESS
}
