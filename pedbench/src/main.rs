//! `pedbench --workload <batch|kernels|session> --seed <n> --seconds <s>
//! --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. The line
//! before it carries the run's provenance (seed, cores, threads, input
//! sizes, tail percentiles and sample counts). `--trace 1` reports the
//! per-layer metrics and writes the spans as Chrome trace-event JSON to
//! `.pedbench/` in the working directory.

use ped_obs::json::Json;
use pedbench::workload::{self, Args, Workload};
use pedbench::{result_line, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: pedbench --workload <batch|kernels|session> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        out_dir: PathBuf::from(".pedbench"),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pedbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = workload::run(&args);
    // The graph store is scratch; the trace file stays.
    let _ = std::fs::remove_dir_all(args.out_dir.join("store"));
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pedbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for f in &report.tally.failures {
        eprintln!("pedbench: check failed: {f}");
    }
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    match result_line(&report.metrics, &report.tally, defs) {
        Ok(line) => {
            let prov = Json::Obj(
                report
                    .provenance
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            );
            println!(
                "{}",
                Json::obj(vec![("provenance", prov)]).to_string_compact()
            );
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pedbench: {e}");
            ExitCode::FAILURE
        }
    }
}
