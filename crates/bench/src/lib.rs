//! # ped-bench — experiment harness
//!
//! Shared machinery for the table/figure reproduction binaries (see
//! DESIGN.md's experiment index E1–E12) and the [`harness`]-based benches.
//! Each binary prints one paper artifact; `EXPERIMENTS.md` records the
//! outputs against the paper's claims.

pub mod harness;

use ped_core::{Assertion, Ped};
use ped_fortran::StmtId;
use ped_interproc::IpFlags;
use ped_workloads::Workload;

/// Count loops the session can parallelize right now (marks included).
pub fn count_parallel_loops(ped: &mut Ped) -> usize {
    let mut count = 0;
    for ui in 0..ped.program().units.len() {
        for (h, _) in ped.loops(ui) {
            if ped.parallelizable(ui, h).unwrap_or(false) {
                count += 1;
            }
        }
    }
    count
}

/// Total loops in the program.
pub fn count_loops(ped: &Ped) -> usize {
    (0..ped.program().units.len()).map(|ui| ped.loops(ui).len()).sum()
}

/// Parallel loops under a flag configuration.
pub fn parallel_loops_under(w: &Workload, flags: IpFlags) -> usize {
    let mut ped = Ped::open(w.source).expect("workload parses");
    ped.set_flags(flags);
    count_parallel_loops(&mut ped)
}

/// Apply the workload's documented user assertions (the workshop step);
/// returns the number of dependences rejected.
pub fn apply_suite_assertions(ped: &mut Ped, name: &str) -> usize {
    let mut rejected = 0;
    match name {
        "onedim" => {
            let ui = 0;
            if let Some(ind) = ped.program().units[ui].symbols.lookup("ind") {
                rejected += ped
                    .assert_fact(Assertion::Permutation { unit: ui, array: ind })
                    .unwrap_or(0);
            }
        }
        "banded" => {
            // The paper's users asserted symbolic sizes; our banded kernel
            // resolves via PARAMETER already, so assert in the subroutines
            // where n is a dummy argument.
            for uname in ["form", "scalerows"] {
                if let Ok(ui) = ped.unit_index(uname) {
                    if let Some(n) = ped.program().units[ui].symbols.lookup("n") {
                        let _ = ped.assert_fact(Assertion::Value { unit: ui, sym: n, value: 24 });
                    }
                }
            }
        }
        _ => {}
    }
    rejected
}

/// Parallelize only loops the static estimator predicts profitable — the
/// performance-guided workflow the paper's users wanted (E6). Returns the
/// number converted.
pub fn parallelize_profitable(ped: &mut Ped) -> usize {
    let mut converted = 0;
    for ui in 0..ped.program().units.len() {
        // Estimate before mutating (estimates are stable under the
        // parallel-annotation-only rewrite).
        let estimates: Vec<(StmtId, bool)> = {
            let program = ped.program();
            let mut est =
                ped_perf::Estimator::new(program, ped_runtime::Machine::alliant8());
            est.rank_loops(ui)
                .into_iter()
                .map(|(s, e)| (s, e.profitable()))
                .collect()
        };
        let mut covered: Vec<StmtId> = Vec::new();
        for (h, profitable) in estimates {
            if !profitable || covered.contains(&h) {
                continue;
            }
            if ped.parallelizable(ui, h).unwrap_or(false)
                && ped.apply(ui, h, &ped_transform::Xform::Parallelize).is_ok()
            {
                converted += 1;
                ped_core::autopar::cover_nested(&ped.program().units[ui], h, &mut covered);
            }
        }
    }
    converted
}

/// A parallelization baseline imitating a simple automatic compiler:
/// innermost loops only, no interprocedural analysis, no user interaction.
pub fn parallelize_innermost_auto(ped: &mut Ped) -> usize {
    ped.set_flags(IpFlags::none());
    let mut converted = 0;
    for ui in 0..ped.program().units.len() {
        let tree = ped_fortran::visit::loop_tree(&ped.program().units[ui]);
        let innermost: Vec<StmtId> =
            tree.iter().filter(|n| n.children.is_empty()).map(|n| n.stmt).collect();
        for h in innermost {
            if ped.parallelizable(ui, h).unwrap_or(false)
                && ped.apply(ui, h, &ped_transform::Xform::Parallelize).is_ok()
            {
                converted += 1;
            }
        }
    }
    converted
}

/// Simple fixed-width table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with headers.
    pub fn new(headers: &[&str]) -> Table {
        Table { headers: headers.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncol = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate().take(ncol) {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                s.push_str(&format!("{:<w$}  ", c, w = widths[i]));
            }
            s.trim_end().to_string()
        };
        out.push_str(&line(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * ncol));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&line(r, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ped_workloads::all_programs;

    #[test]
    fn full_flags_dominate_none() {
        for w in all_programs() {
            let full = parallel_loops_under(&w, IpFlags::all());
            let none = parallel_loops_under(&w, IpFlags::none());
            assert!(
                full >= none,
                "{}: more analysis can never lose parallel loops ({full} vs {none})",
                w.name
            );
        }
    }

    #[test]
    fn suite_has_blocked_and_parallel_loops() {
        // The suite must be non-trivial in both directions.
        let mut any_blocked = false;
        let mut any_parallel = false;
        for w in all_programs() {
            let mut ped = Ped::open(w.source).unwrap();
            let total = count_loops(&ped);
            let par = count_parallel_loops(&mut ped);
            if par < total {
                any_blocked = true;
            }
            if par > 0 {
                any_parallel = true;
            }
        }
        assert!(any_blocked && any_parallel);
    }

    #[test]
    fn onedim_assertion_unlocks() {
        let w = ped_workloads::program_by_name("onedim").unwrap();
        let mut ped = Ped::open(w.source).unwrap();
        let before = count_parallel_loops(&mut ped);
        let rejected = apply_suite_assertions(&mut ped, "onedim");
        assert!(rejected > 0);
        let after = count_parallel_loops(&mut ped);
        assert!(after > before, "{before} → {after}");
    }

    #[test]
    fn parallelize_everything_keeps_output() {
        for w in all_programs() {
            let serial = ped_runtime::interp::run_source(
                w.source,
                ped_runtime::ExecConfig::default(),
            )
            .unwrap();
            let mut ped = Ped::open(w.source).unwrap();
            apply_suite_assertions(&mut ped, w.name);
            let n = ped_core::autoparallelize(&mut ped);
            let sim = ped
                .run(ped_runtime::ExecConfig {
                    mode: ped_runtime::ParallelMode::Simulate(
                        ped_runtime::Machine::alliant8(),
                    ),
                    ..Default::default()
                })
                .unwrap();
            assert_eq!(serial.printed, sim.printed, "{} changed output", w.name);
            let report = ped.check(ped_runtime::ExecConfig::default()).unwrap();
            assert!(
                report.clean(),
                "{}: races after parallelization:\n{}",
                w.name,
                report.render_text()
            );
            if w.name == "pneoss" {
                assert!(n >= 2, "pneoss should parallelize several loops");
            }
        }
    }

    #[test]
    fn analyze_all_deterministic_on_generated_programs() {
        use ped_workloads::generator::{gen_source, GenConfig};
        for (units, loops, seed) in [(3usize, 4usize, 1u64), (6, 5, 2), (9, 3, 3)] {
            let src = gen_source(GenConfig {
                units,
                loops_per_unit: loops,
                seed,
                ..GenConfig::default()
            });
            let mut seq = Ped::open(&src).unwrap();
            let mut expected = Vec::new();
            for ui in 0..seq.program().units.len() {
                for (h, _) in seq.loops(ui) {
                    expected.push((ui, h, seq.graph(ui, h).unwrap()));
                }
            }
            let mut batch = Ped::open(&src).unwrap();
            let report = batch.analyze_all();
            assert_eq!(report.built, expected.len(), "seed {seed}");
            for (ui, h, g) in &expected {
                assert_eq!(
                    &batch.graph(*ui, *h).unwrap(),
                    g,
                    "seed {seed}: unit {ui} loop {h} differs between parallel and sequential"
                );
            }
        }
    }

    #[test]
    fn table_renders() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["x".into(), "1".into()]);
        let s = t.render();
        assert!(s.contains("name"));
        assert!(s.contains('x'));
    }
}
