//! The incremental-correctness oracle: a canonical, id-free rendering of a
//! session's dependence graphs.
//!
//! Transforms keep [`StmtId`]s stable (the arena tombstones removed
//! statements), but re-parsing the printed source renumbers everything, so
//! an incrementally-maintained session and a fresh-from-source session can
//! never be compared through raw ids. [`canonical_graphs`] renders every
//! graph with statements named by their pre-order position (plus printed
//! text, which catches position misalignment as a readable diff) and
//! variables named by symbol name. Two sessions over the same program must
//! produce identical canonical forms — that equality is the acceptance
//! criterion for every fingerprint-scoped retention, resurrection, and
//! interprocedural fast-path decision the incremental engine makes.
//!
//! The execution-equivalence oracles (campaign, autopilot, the engine and
//! property tests) compare final memory instead; [`unspecified_privates`]
//! names the variables such a comparison must skip.

use crate::session::Ped;
use ped_analysis::scalars::ScalarClass;
use ped_dep::DepGraph;
use ped_fortran::printer::{print_expr, print_stmt};
use ped_fortran::visit::stmts_recursive;
use ped_fortran::{Program, ProgramUnit, StmtId, StmtKind};
use std::collections::{BTreeMap, HashMap};

/// One loop's graph in canonical form: sorted dependence lines followed by
/// sorted scalar-classification lines.
pub type CanonicalGraph = Vec<String>;

/// All graphs of a session, keyed by `(unit name, loop pre-order position)`.
pub type CanonicalGraphs = BTreeMap<(String, usize), CanonicalGraph>;

fn positions(unit: &ProgramUnit) -> HashMap<StmtId, usize> {
    stmts_recursive(unit, &unit.body)
        .into_iter()
        .enumerate()
        .map(|(i, id)| (id, i))
        .collect()
}

fn stmt_ref(unit: &ProgramUnit, pos: &HashMap<StmtId, usize>, id: StmtId) -> String {
    let mut text = String::new();
    print_stmt(unit, id, 0, &mut text);
    format!("#{}:{}", pos.get(&id).map_or(-1i64, |&p| p as i64), text.trim_end())
}

fn class_str(unit: &ProgramUnit, c: &ScalarClass) -> String {
    match c {
        // The step expression embeds `SymId`s; render it by name.
        ScalarClass::AuxInduction { step } => {
            format!("aux_induction(step={})", print_expr(unit, step))
        }
        other => format!("{other:?}"),
    }
}

/// Canonical rendering of one loop's graph (see module docs).
pub fn canonical_graph(unit: &ProgramUnit, g: &DepGraph) -> CanonicalGraph {
    let pos = positions(unit);
    let mut deps: Vec<String> = g
        .deps
        .iter()
        .map(|d| {
            format!(
                "dep {} -> {} var={} kind={:?} cause={:?} dirs={:?} dist={:?} \
                 level={:?} proven={} tests={:?}",
                stmt_ref(unit, &pos, d.src),
                stmt_ref(unit, &pos, d.dst),
                d.var.map_or_else(|| "<control>".to_string(), |s| unit.symbols.name(s).to_string()),
                d.kind,
                d.cause,
                d.dirs,
                d.dist,
                d.level,
                d.proven,
                d.tests,
            )
        })
        .collect();
    deps.sort();
    let mut classes: Vec<String> = g
        .scalar_classes
        .iter()
        .map(|(s, c)| format!("class {} = {}", unit.symbols.name(*s), class_str(unit, c)))
        .collect();
    classes.sort();
    deps.extend(classes);
    deps
}

/// Canonical rendering of every loop graph of every unit in the session.
pub fn canonical_graphs(ped: &mut Ped) -> CanonicalGraphs {
    let mut out = BTreeMap::new();
    for ui in 0..ped.program().units.len() {
        let loops: Vec<StmtId> = ped.loops(ui).into_iter().map(|(h, _)| h).collect();
        for h in loops {
            let g = ped.graph(ui, h).expect("loop listed by the session");
            let unit = &ped.program().units[ui];
            let key = (unit.name.clone(), positions(unit)[&h]);
            out.insert(key, canonical_graph(unit, &g));
        }
    }
    out
}

/// Assert an incrementally-maintained session agrees with a session opened
/// fresh from its printed source. Panics with a labelled diff otherwise.
pub fn assert_matches_fresh(ped: &mut Ped, label: &str) {
    let incremental = canonical_graphs(ped);
    let mut fresh = Ped::open(&ped.source()).expect("printed source re-parses");
    let fresh_graphs = canonical_graphs(&mut fresh);
    assert_eq!(
        incremental, fresh_graphs,
        "incremental graphs diverged from fresh-from-source graphs after {label}"
    );
}

/// Scalars of the main unit that are `private` (but not `lastprivate`) in
/// some parallel loop. Their post-loop value is unspecified by the dialect
/// — serial leaves the last iteration's value, a worker pool leaves some
/// worker's — so memory comparisons across execution modes exclude them.
/// Everything else (arrays, reductions, lastprivates, loop variables) must
/// match bitwise.
pub fn unspecified_privates(program: &Program) -> Vec<String> {
    let Some(main) = program.main() else { return Vec::new() };
    let mut names = Vec::new();
    for stmt in &main.stmts {
        if let StmtKind::Do(d) = &stmt.kind {
            if let Some(info) = &d.parallel {
                for &p in &info.private {
                    if !info.lastprivate.contains(&p) {
                        names.push(main.symbols.name(p).to_string());
                    }
                }
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_form_is_id_free() {
        // Two sources differing only by leading comments parse to different
        // StmtIds... here we instead compare a session against its own
        // re-parse, which renumbers ids when transforms tombstone slots.
        let src = "program t\nreal a(101)\ninteger s\ns = 0\ndo i = 2, 101\n\
                   a(i) = a(i-1)\ns = s + 1\nenddo\nend\n";
        let mut ped = Ped::open(src).unwrap();
        assert_matches_fresh(&mut ped, "open");
        let h = ped.loops(0)[0].0;
        ped.apply(0, h, &ped_transform::Xform::Unroll { factor: 2 }).unwrap();
        assert_matches_fresh(&mut ped, "unroll");
    }

    #[test]
    fn canonical_graph_names_variables() {
        let src = "program t\nreal a(100)\ndo i = 2, 100\na(i) = a(i-1)\nenddo\nend\n";
        let mut ped = Ped::open(src).unwrap();
        let h = ped.loops(0)[0].0;
        let g = ped.graph(0, h).unwrap();
        let lines = canonical_graph(&ped.program().units[0], &g);
        assert!(lines.iter().any(|l| l.contains("var=a")), "{lines:?}");
        assert!(lines.iter().any(|l| l.starts_with("class i = LoopIndex")), "{lines:?}");
    }
}
