//! # ped-perf — static performance estimation
//!
//! "ParaScope now includes a static performance estimator used to predict
//! the relative execution time of loops and subroutines in parallel
//! programs" — the enhancement the workshop users asked for, so navigation
//! can lead with the loops that matter instead of making users bring gprof
//! output. The estimator mirrors the interpreter's virtual-time cost model
//! (so estimates and measurements are in the same unit), assumes a default
//! trip count for loops whose bounds it cannot resolve, and predicts the
//! parallel charge of a loop under a [`ped_runtime::Machine`].

pub mod calibrate;

pub use calibrate::{CalibrationState, Sample};

use ped_analysis::constants::{eval, Facts};
use ped_fortran::symbols::Const;
use ped_fortran::visit::loop_tree;
use ped_fortran::{Expr, Program, StmtId, StmtKind, SymId};
use ped_runtime::Machine;
use std::collections::HashMap;

/// Trip count assumed when bounds are symbolic and no assertion helps.
pub const DEFAULT_TRIP: i64 = 100;

/// Cost estimate for one loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoopEstimate {
    /// Trip count used (resolved or [`DEFAULT_TRIP`]).
    pub trip: i64,
    /// True when the trip count was resolved from constants.
    pub trip_known: bool,
    /// Cost of one iteration (virtual ops).
    pub iter_cost: f64,
    /// Serial cost of the whole loop.
    pub serial_cost: f64,
    /// Cost if this loop ran as a `PARALLEL DO` on the machine.
    pub parallel_cost: f64,
}

impl LoopEstimate {
    /// Predicted speedup from parallelizing this loop. A degenerate
    /// estimate (zero/negative parallel cost, e.g. a zero-trip loop on a
    /// zero-overhead machine) reports 1.0 — never NaN or infinity, so
    /// rankings that lead with the best loop cannot be poisoned.
    pub fn speedup(&self) -> f64 {
        if self.parallel_cost > 0.0 {
            self.serial_cost / self.parallel_cost
        } else {
            1.0
        }
    }

    /// Is parallelization predicted profitable at all? Degenerate
    /// estimates are never profitable.
    pub fn profitable(&self) -> bool {
        self.parallel_cost > 0.0 && self.parallel_cost < self.serial_cost
    }
}

/// The estimator, memoizing procedure body costs across queries.
pub struct Estimator<'p> {
    program: &'p Program,
    machine: Machine,
    proc_memo: HashMap<usize, f64>,
    /// Integer facts used to resolve bounds (constants + assertions).
    resolve: Box<dyn Fn(usize, SymId) -> Option<i64> + 'p>,
}

impl<'p> Estimator<'p> {
    /// New estimator with no symbol knowledge.
    pub fn new(program: &'p Program, machine: Machine) -> Estimator<'p> {
        Estimator { program, machine, proc_memo: HashMap::new(), resolve: Box::new(|_, _| None) }
    }

    /// New estimator with a per-unit integer resolver (unit index, symbol).
    pub fn with_resolver(
        program: &'p Program,
        machine: Machine,
        resolve: Box<dyn Fn(usize, SymId) -> Option<i64> + 'p>,
    ) -> Estimator<'p> {
        Estimator { program, machine, proc_memo: HashMap::new(), resolve }
    }

    /// Estimate one loop of a unit.
    pub fn estimate_loop(&mut self, unit_idx: usize, header: StmtId) -> LoopEstimate {
        let unit = &self.program.units[unit_idx];
        let d = unit.loop_of(header);
        let (trip, trip_known) = self.trip_count(unit_idx, header);
        let iter_cost: f64 =
            2.0 + d.body.iter().map(|&s| self.stmt_cost(unit_idx, s)).sum::<f64>();
        let serial_cost = trip as f64 * iter_cost;
        // Uniform iterations: the O(1) fast path avoids materializing a
        // trip-sized vector (8 MB per estimate for a 10^6-trip loop).
        let parallel_cost =
            self.machine.parallel_charge_uniform(iter_cost, trip.max(0) as usize);
        LoopEstimate { trip, trip_known, iter_cost, serial_cost, parallel_cost }
    }

    /// Composed-nest charge for a candidate transformation plan: the cost
    /// of the loops the plan leaves behind, charged on the *transformed*
    /// program — parallel charge for loops the plan made parallel, serial
    /// cost for the rest. Scoring a sequence this way, rather than summing
    /// per-step estimates taken against the original nest, is what lets
    /// interchange-then-parallelize rank on the post-interchange trip
    /// counts (the autopilot's plan-composition rule).
    pub fn nest_cost(&mut self, unit_idx: usize, loops: &[(StmtId, bool)]) -> f64 {
        loops
            .iter()
            .map(|&(header, parallel)| {
                let e = self.estimate_loop(unit_idx, header);
                if parallel {
                    e.parallel_cost
                } else {
                    e.serial_cost
                }
            })
            .sum()
    }

    /// Estimate the per-call cost of a whole unit body.
    pub fn unit_cost(&mut self, unit_idx: usize) -> f64 {
        if let Some(&c) = self.proc_memo.get(&unit_idx) {
            return c;
        }
        // Guard recursion with a provisional value.
        self.proc_memo.insert(unit_idx, 1_000.0);
        let body = self.program.units[unit_idx].body.clone();
        let cost: f64 = body.iter().map(|&s| self.stmt_cost(unit_idx, s)).sum();
        self.proc_memo.insert(unit_idx, cost);
        cost
    }

    /// Rank every loop of a unit by estimated serial cost, descending —
    /// the order performance-based navigation presents loops in.
    pub fn rank_loops(&mut self, unit_idx: usize) -> Vec<(StmtId, LoopEstimate)> {
        let unit = &self.program.units[unit_idx];
        let mut out: Vec<(StmtId, LoopEstimate)> = loop_tree(unit)
            .into_iter()
            .map(|n| (n.stmt, self.estimate_loop(unit_idx, n.stmt)))
            .collect();
        out.sort_by(|a, b| b.1.serial_cost.total_cmp(&a.1.serial_cost));
        out
    }

    /// Rank all loops program-wide as (unit index, loop, estimate).
    pub fn rank_program(&mut self) -> Vec<(usize, StmtId, LoopEstimate)> {
        let mut out = Vec::new();
        for ui in 0..self.program.units.len() {
            for (s, e) in self.rank_loops(ui) {
                out.push((ui, s, e));
            }
        }
        out.sort_by(|a, b| b.2.serial_cost.total_cmp(&a.2.serial_cost));
        out
    }

    fn trip_count(&self, unit_idx: usize, header: StmtId) -> (i64, bool) {
        let unit = &self.program.units[unit_idx];
        let d = unit.loop_of(header);
        let lo = self.int_value(unit_idx, &d.lo);
        let hi = self.int_value(unit_idx, &d.hi);
        let step = match &d.step {
            None => Some(1),
            Some(e) => self.int_value(unit_idx, e),
        };
        match (lo, hi, step) {
            (Some(lo), Some(hi), Some(st)) if st != 0 => {
                (((hi - lo + st) / st).max(0), true)
            }
            _ => (DEFAULT_TRIP, false),
        }
    }

    fn int_value(&self, unit_idx: usize, e: &Expr) -> Option<i64> {
        let unit = &self.program.units[unit_idx];
        // Literals/PARAMETERs first, then the resolver (assertions, interproc).
        if let Some(Const::Int(v)) = eval(unit, &Facts::new(), e) {
            return Some(v);
        }
        // Single-variable case through the resolver.
        if let Expr::Var(s) = e {
            return (self.resolve)(unit_idx, *s);
        }
        None
    }

    /// Cost of executing one statement once (nested loops included).
    pub fn stmt_cost(&mut self, unit_idx: usize, sid: StmtId) -> f64 {
        let unit = &self.program.units[unit_idx];
        match unit.stmt(sid).kind.clone() {
            StmtKind::Assign { lhs, rhs } => {
                let mut c = 1.0 + expr_cost(&rhs);
                if let ped_fortran::LValue::ArrayElem(_, subs) = &lhs {
                    c += subs.iter().map(expr_cost).sum::<f64>() + 1.0;
                }
                c += self.calls_cost_in_stmt(unit_idx, sid);
                c
            }
            StmtKind::If { arms, else_block } => {
                // Conditions plus the most expensive branch (conservative).
                let cond_cost: f64 = arms.iter().map(|(c, _)| expr_cost(c)).sum();
                let mut branch: f64 = 0.0;
                for (_, b) in &arms {
                    let c: f64 = b.iter().map(|&s| self.stmt_cost(unit_idx, s)).sum();
                    branch = branch.max(c);
                }
                if let Some(b) = &else_block {
                    let c: f64 = b.iter().map(|&s| self.stmt_cost(unit_idx, s)).sum();
                    branch = branch.max(c);
                }
                1.0 + cond_cost + branch
            }
            StmtKind::Do(_) => {
                let est = self.estimate_loop(unit_idx, sid);
                est.serial_cost
            }
            StmtKind::Call { name, args } => {
                let args_cost: f64 = args.iter().map(expr_cost).sum();
                let callee = self.program.unit_index(&name);
                let body = match callee {
                    Some(ci) => self.unit_cost(ci),
                    None => 100.0, // unknown external
                };
                8.0 + args_cost + body
            }
            StmtKind::Print { items } => {
                4.0 + items.iter().map(expr_cost).sum::<f64>()
            }
            _ => 1.0,
        }
    }

    /// Extra cost of function references inside one statement.
    fn calls_cost_in_stmt(&mut self, unit_idx: usize, sid: StmtId) -> f64 {
        let unit = &self.program.units[unit_idx];
        let mut names = Vec::new();
        ped_fortran::visit::for_each_expr_of_stmt(&unit.stmt(sid).kind, &mut |e| {
            if let Expr::Call { name, .. } = e {
                names.push(name.clone());
            }
        });
        names
            .into_iter()
            .map(|n| match self.program.unit_index(&n) {
                Some(ci) => 8.0 + self.unit_cost(ci),
                None => 100.0,
            })
            .sum()
    }
}

/// Pure expression cost, matching the interpreter's per-node charging.
pub fn expr_cost(e: &Expr) -> f64 {
    let mut c = 0.0;
    ped_fortran::visit::walk_expr(e, &mut |node| {
        c += match node {
            Expr::Intrinsic { .. } => 7.0,
            Expr::Call { .. } => 0.0, // charged separately via unit_cost
            _ => 1.0,
        }
    });
    c
}

/// Compare an estimate ranking with a measured profile: the fraction of the
/// top-`k` estimated loops that are also in the top-`k` measured loops
/// (E6's agreement metric).
pub fn ranking_agreement(
    estimated: &[(usize, StmtId, LoopEstimate)],
    measured: &HashMap<(String, StmtId), ped_runtime::interp::LoopStats>,
    program: &Program,
    k: usize,
) -> f64 {
    let top_est: Vec<(String, StmtId)> = estimated
        .iter()
        .take(k)
        .map(|&(ui, s, _)| (program.units[ui].name.clone(), s))
        .collect();
    let mut measured_sorted: Vec<(&(String, StmtId), f64)> =
        measured.iter().map(|(k2, v)| (k2, v.ops)).collect();
    measured_sorted.sort_by(|a, b| b.1.total_cmp(&a.1));
    let top_meas: Vec<(String, StmtId)> =
        measured_sorted.iter().take(k).map(|(k2, _)| (*k2).clone()).collect();
    if top_est.is_empty() {
        return 1.0;
    }
    let hits = top_est.iter().filter(|e| top_meas.contains(e)).count();
    hits as f64 / top_est.len().min(k) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ped_fortran::parse_program;

    fn first_loop(p: &Program, ui: usize) -> StmtId {
        *p.units[ui].body.iter().find(|&&s| p.units[ui].is_loop(s)).unwrap()
    }

    #[test]
    fn constant_trip_resolved() {
        let p = parse_program(
            "program t\nreal a(50)\ndo i = 1, 50\na(i) = 1.0\nenddo\nend\n",
        )
        .unwrap();
        let mut est = Estimator::new(&p, Machine::alliant8());
        let e = est.estimate_loop(0, first_loop(&p, 0));
        assert!(e.trip_known);
        assert_eq!(e.trip, 50);
        assert!(e.serial_cost > 0.0);
    }

    #[test]
    fn symbolic_trip_uses_default_until_asserted() {
        let src = "subroutine s(a, n)\ninteger n\nreal a(n)\ndo i = 1, n\na(i) = 1.0\nenddo\nend\n";
        let p = parse_program(src).unwrap();
        let mut est = Estimator::new(&p, Machine::alliant8());
        let e = est.estimate_loop(0, first_loop(&p, 0));
        assert!(!e.trip_known);
        assert_eq!(e.trip, DEFAULT_TRIP);
        // With an assertion n = 1000 the estimate sharpens.
        let n = p.units[0].symbols.lookup("n").unwrap();
        let mut est2 = Estimator::with_resolver(
            &p,
            Machine::alliant8(),
            Box::new(move |_, s| (s == n).then_some(1000)),
        );
        let e2 = est2.estimate_loop(0, first_loop(&p, 0));
        assert!(e2.trip_known);
        assert_eq!(e2.trip, 1000);
    }

    #[test]
    fn nested_loop_multiplies() {
        let p = parse_program(
            "program t\nreal a(10,10)\ndo i = 1, 10\ndo j = 1, 10\na(i,j) = 1.0\nenddo\nenddo\nend\n",
        )
        .unwrap();
        let mut est = Estimator::new(&p, Machine::alliant8());
        let outer = est.estimate_loop(0, first_loop(&p, 0));
        assert!(outer.serial_cost > 10.0 * 10.0, "cost {}", outer.serial_cost);
    }

    #[test]
    fn ranking_puts_hot_loop_first() {
        let p = parse_program(
            "program t\nreal a(1000), b(5)\ndo i = 1, 1000\na(i) = sqrt(i * 1.0)\nenddo\n\
             do i = 1, 5\nb(i) = 0.0\nenddo\nend\n",
        )
        .unwrap();
        let mut est = Estimator::new(&p, Machine::alliant8());
        let ranked = est.rank_loops(0);
        assert_eq!(ranked.len(), 2);
        assert!(ranked[0].1.serial_cost > ranked[1].1.serial_cost);
        assert_eq!(ranked[0].1.trip, 1000);
    }

    #[test]
    fn granularity_verdict() {
        let p = parse_program(
            "program t\nreal a(4), b(100000)\ndo i = 1, 4\na(i) = 1.0\nenddo\n\
             do i = 1, 100000\nb(i) = sqrt(i * 1.0)\nenddo\nend\n",
        )
        .unwrap();
        let mut est = Estimator::new(&p, Machine::alliant8());
        let small = est.estimate_loop(0, p.units[0].body[0]);
        let big = est.estimate_loop(0, p.units[0].body[1]);
        assert!(!small.profitable(), "tiny loop must not profit");
        assert!(big.profitable());
        assert!(big.speedup() > 4.0, "speedup {}", big.speedup());
    }

    #[test]
    fn zero_trip_loop_has_defined_speedup() {
        // `do i = 1, 0` never executes: serial cost 0. On a machine with
        // no overheads the parallel cost is 0 too — speedup must still be
        // a defined, finite value and the loop must not rank profitable.
        let p = parse_program(
            "program t\nreal a(10)\ndo i = 1, 0\na(i) = 1.0\nenddo\nend\n",
        )
        .unwrap();
        let free = Machine { procs: 8, fork_cost: 0.0, barrier_cost: 0.0, dispatch_cost: 0.0 };
        let mut est = Estimator::new(&p, free);
        let e = est.estimate_loop(0, first_loop(&p, 0));
        assert_eq!(e.trip, 0);
        assert_eq!(e.parallel_cost, 0.0);
        assert!(e.speedup().is_finite(), "speedup {}", e.speedup());
        assert_eq!(e.speedup(), 1.0);
        assert!(!e.profitable());

        // With real overheads the zero-trip loop pays fork+barrier and is
        // likewise not profitable.
        let mut est2 = Estimator::new(&p, Machine::alliant8());
        let e2 = est2.estimate_loop(0, first_loop(&p, 0));
        assert!(e2.speedup().is_finite());
        assert!(!e2.profitable());
    }

    #[test]
    fn estimate_uses_uniform_fast_path_result() {
        // The estimator's parallel cost must equal what the materialized
        // vec path would have produced, including big trip counts that the
        // old code allocated megabytes for.
        let p = parse_program(
            "program t\nreal a(1000000)\ndo i = 1, 1000000\na(i) = a(i) + 1.0\nenddo\nend\n",
        )
        .unwrap();
        let m = Machine::alliant8();
        let mut est = Estimator::new(&p, m);
        let e = est.estimate_loop(0, first_loop(&p, 0));
        assert_eq!(e.trip, 1_000_000);
        assert_eq!(
            e.parallel_cost,
            m.parallel_charge(&vec![e.iter_cost; e.trip as usize]),
        );
    }

    #[test]
    fn call_cost_includes_callee() {
        let p = parse_program(
            "program t\nreal a(10)\ndo i = 1, 10\ncall work(a, 10)\nenddo\nend\n\
             subroutine work(x, n)\ninteger n\nreal x(n)\ndo j = 1, n\nx(j) = x(j) + 1.0\nenddo\nend\n",
        )
        .unwrap();
        let mut est = Estimator::new(&p, Machine::alliant8());
        let e = est.estimate_loop(0, first_loop(&p, 0));
        // 10 iterations × (call + ~10-iteration callee loop) ≫ 100 ops.
        assert!(e.serial_cost > 300.0, "cost {}", e.serial_cost);
    }

    #[test]
    fn nest_cost_charges_parallel_loops_as_parallel() {
        let p = parse_program(
            "program t\nreal a(1000), b(1000)\ndo i = 1, 1000\na(i) = 1.0\nenddo\n\
             do i = 1, 1000\nb(i) = 2.0\nenddo\nend\n",
        )
        .unwrap();
        let mut est = Estimator::new(&p, Machine::alliant8());
        let l1 = p.units[0].body[0];
        let l2 = p.units[0].body[1];
        let serial_both = est.nest_cost(0, &[(l1, false), (l2, false)]);
        let par_first = est.nest_cost(0, &[(l1, true), (l2, false)]);
        let e1 = est.estimate_loop(0, l1);
        let e2 = est.estimate_loop(0, l2);
        assert_eq!(serial_both, e1.serial_cost + e2.serial_cost);
        assert_eq!(par_first, e1.parallel_cost + e2.serial_cost);
        assert!(par_first < serial_both);
    }

    #[test]
    fn estimate_correlates_with_measurement() {
        let src = "program t\nreal a(2000), b(10)\ndo i = 1, 2000\na(i) = sqrt(i * 1.0)\nenddo\n\
                   do i = 1, 10\nb(i) = 1.0\nenddo\nprint *, a(1), b(1)\nend\n";
        let p = parse_program(src).unwrap();
        let mut est = Estimator::new(&p, Machine::alliant8());
        let ranked = est.rank_program();
        let run = ped_runtime::interp::run_source(src, ped_runtime::ExecConfig::default())
            .expect("runs");
        let agree = ranking_agreement(&ranked, &run.profile, &p, 1);
        assert_eq!(agree, 1.0, "hottest loop must agree");
    }
}
