//! The push-button parallelization policy shared by `ped --autopar`, the
//! campaign engine, and the benchmark suite: convert every provably-safe
//! loop to `PARALLEL DO`, outermost-first, with an `ArrayPrivatize`
//! fallback for loops blocked only by section-privatizable workspace
//! arrays. One implementation so the CLI, the fuzzing campaign, and the
//! experiment harness can never drift apart on what "auto-parallelized"
//! means.

use crate::session::Ped;
use ped_fortran::visit::for_each_stmt;
use ped_fortran::{ProgramUnit, StmtId, SymId};
use ped_transform::Xform;

/// Convert every currently-parallelizable loop into a `PARALLEL DO`,
/// outermost-first, skipping loops nested inside an already-parallel one.
/// Loops blocked only by dependences on section-privatizable arrays
/// convert via [`Xform::ArrayPrivatize`]. Returns how many loops were
/// converted.
pub fn autoparallelize(ped: &mut Ped) -> usize {
    let mut converted = 0;
    for ui in 0..ped.program().units.len() {
        let loops: Vec<(StmtId, usize)> = ped.loops(ui);
        let mut covered: Vec<StmtId> = Vec::new();
        for (h, _) in loops {
            if covered.contains(&h) {
                continue;
            }
            let done = (ped.parallelizable(ui, h).unwrap_or(false)
                && ped.apply(ui, h, &Xform::Parallelize).is_ok())
                || try_array_privatize(ped, ui, h);
            if done {
                converted += 1;
                cover_nested(&ped.program().units[ui], h, &mut covered);
            }
        }
    }
    converted
}

/// Add every loop nested inside `header` to `covered`, so an
/// outermost-first traversal never converts a loop inside one it already
/// converted.
pub fn cover_nested(unit: &ProgramUnit, header: StmtId, covered: &mut Vec<StmtId>) {
    if !unit.is_loop(header) {
        return;
    }
    for_each_stmt(unit, &unit.loop_of(header).body, &mut |s| {
        if unit.is_loop(s) {
            covered.push(s);
        }
    });
}

/// Arrays whose dependences block parallelization of `header` but which
/// the section analysis proved privatizable: the privatization recipe's
/// ingredient list. `None` when the loop is blocked by anything else (or
/// by nothing at all, when plain `Parallelize` covers it).
pub(crate) fn privatizable_blockers(
    ped: &mut Ped,
    ui: usize,
    header: StmtId,
) -> Option<Vec<SymId>> {
    let g = ped.graph(ui, header).ok()?;
    let mut needed: Vec<SymId> = Vec::new();
    for d in g.deps.iter().filter(|d| d.blocks_parallel()) {
        let v = d.var?;
        if !g.array_classes.get(&v).is_some_and(|c| c.privatizable) {
            return None;
        }
        if !needed.contains(&v) {
            needed.push(v);
        }
    }
    if needed.is_empty() {
        return None;
    }
    needed.sort();
    Some(needed)
}

/// Parallelize-via-privatization fallback: when every blocking dependence
/// of the loop sits on arrays the section analysis proved privatizable,
/// apply [`Xform::ArrayPrivatize`] to each — the first application
/// promotes the loop to `PARALLEL DO` with full scalar clauses. Returns
/// whether the loop converted.
fn try_array_privatize(ped: &mut Ped, ui: usize, h: StmtId) -> bool {
    let Some(needed) = privatizable_blockers(ped, ui, h) else { return false };
    needed.into_iter().all(|v| ped.apply(ui, h, &Xform::ArrayPrivatize { var: v }).is_ok())
}
