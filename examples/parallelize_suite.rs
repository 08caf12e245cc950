//! Parallelize the whole evaluation suite and measure real threaded
//! speedups on this host (contrast with the deterministic simulated
//! numbers from `cargo run -p ped-bench --bin speedups`).
//!
//! ```sh
//! cargo run --release -p ped-bench --example parallelize_suite
//! ```

use ped_bench::apply_suite_assertions;
use ped_core::{autoparallelize, Ped};
use ped_runtime::{ExecConfig, ParallelMode};
use std::time::Instant;

fn main() {
    println!(
        "{:<8} {:>6} {:>12} {:>12} {:>9}  output",
        "program", "loops", "serial", "threads(4)", "outputs"
    );
    for w in ped_workloads::all_programs() {
        let mut ped = Ped::open(w.source).unwrap();
        apply_suite_assertions(&mut ped, w.name);
        let n = autoparallelize(&mut ped);

        let t0 = Instant::now();
        let serial = ped.run(ExecConfig::default()).unwrap();
        let ts = t0.elapsed();

        let t0 = Instant::now();
        let par = ped
            .run(ExecConfig { mode: ParallelMode::Threads(4), ..Default::default() })
            .unwrap();
        let tp = t0.elapsed();

        println!(
            "{:<8} {:>6} {:>12?} {:>12?} {:>9}  {}",
            w.name,
            n,
            ts,
            tp,
            if serial.printed == par.printed { "match ✓" } else { "DIFFER ✗" },
            serial.printed.join(" | ")
        );
        assert_eq!(serial.printed, par.printed, "{} diverged", w.name);
    }
    println!("\n(the interpreter is the bottleneck at these program sizes; the");
    println!(" deterministic machine model in `--bin speedups` isolates the");
    println!(" parallelization shapes from host noise)");
}
