//! E5 — per-program speedups on the simulated machine.
//!
//! Compares three versions of every program on P ∈ {1, 2, 4, 8} simulated
//! processors: the serial original, a naive automatic baseline
//! (innermost-only, no interprocedural analysis — the Cray fpp / KAP
//! stand-in whose results the related-work section calls "less than 2×"),
//! and the Ped-parallelized version (assertions + full analysis + outer
//! loops). Shapes to check against the paper: the baseline stays small,
//! Ped wins where outer-loop parallelism exists, and granularity decides
//! the crossovers.

use ped_bench::{
    apply_suite_assertions, parallelize_innermost_auto, parallelize_profitable, Table,
};
use ped_core::{autoparallelize, Ped};
use ped_runtime::{ExecConfig, Machine, ParallelMode};
use ped_workloads::all_programs;

fn vtime(ped: &Ped, procs: usize) -> f64 {
    let mode = if procs <= 1 {
        ParallelMode::Serial
    } else {
        ParallelMode::Simulate(Machine::with_procs(procs))
    };
    ped.run(ExecConfig { mode, ..Default::default() }).expect("runs").vtime
}

fn main() {
    let mut t = Table::new(&[
        "program", "auto P=8", "ped P=2", "ped P=4", "ped P=8", "ped+est P=8",
    ]);
    for w in all_programs() {
        let serial = {
            let ped = Ped::open(w.source).unwrap();
            vtime(&ped, 1)
        };
        let auto8 = {
            let mut ped = Ped::open(w.source).unwrap();
            parallelize_innermost_auto(&mut ped);
            serial / vtime(&ped, 8)
        };
        let mut ped = Ped::open(w.source).unwrap();
        apply_suite_assertions(&mut ped, w.name);
        autoparallelize(&mut ped);
        let sp = |p: usize| serial / vtime(&ped, p);
        // Profitability-gated variant (estimator-guided navigation).
        let est8 = {
            let mut ped2 = Ped::open(w.source).unwrap();
            apply_suite_assertions(&mut ped2, w.name);
            parallelize_profitable(&mut ped2);
            serial / vtime(&ped2, 8)
        };
        t.row(vec![
            w.name.to_string(),
            format!("{auto8:.2}x"),
            format!("{:.2}x", sp(2)),
            format!("{:.2}x", sp(4)),
            format!("{:.2}x", sp(8)),
            format!("{est8:.2}x"),
        ]);
    }
    println!("Speedups over the serial original (simulated Alliant-like machine)");
    println!("auto = innermost-only, no interprocedural analysis (KAP/fpp stand-in)");
    println!("{}", t.render());
}
