//! The two oracles every other check leans on.
//!
//! **Incremental correctness:** a canonical, id-free rendering of a
//! session's dependence graphs. Transforms keep [`StmtId`]s stable (the
//! arena tombstones removed statements), but re-parsing the printed source
//! renumbers everything, so an incrementally-maintained session and a
//! fresh-from-source session can never be compared through raw ids.
//! [`canonical_graphs`] renders every graph with statements named by their
//! pre-order position (plus printed text, which catches position
//! misalignment as a readable diff) and variables named by symbol name.
//! Two sessions over the same program must produce identical canonical
//! forms — that equality is the acceptance criterion for every
//! fingerprint-scoped retention, resurrection, and interprocedural
//! fast-path decision the incremental engine makes.
//!
//! **Execution equivalence:** one mode matrix ([`modes`]) and one run
//! comparison ([`compare`]), which the campaign's equivalence stage and
//! the autopilot's plan verification both call through [`check_modes`].
//! A mismatch is a typed [`Divergence`] that says where the runs part:
//! the first differing printed line, or the first differing element of a
//! variable's final memory, with both values. [`unspecified_privates`]
//! names the variables a comparison across execution modes must skip.

use crate::session::Ped;
use ped_analysis::scalars::ScalarClass;
use ped_dep::DepGraph;
use ped_fortran::printer::{print_expr, print_stmt};
use ped_fortran::visit::stmts_recursive;
use ped_fortran::{Program, ProgramUnit, StmtId, StmtKind};
use ped_runtime::{Engine, ExecConfig, Machine, MemorySnapshot, ParallelMode, RunResult, Schedule};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

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

/// A finished run: its result (printed output included) and the main
/// unit's final memory.
pub type Run = (RunResult, MemorySnapshot);

/// The execution modes a parallelized program must agree across, by
/// stable label: the tree walker serially, the simulated 4-processor
/// machine, and the worker pool under two schedules.
pub fn modes() -> [(&'static str, ExecConfig); 4] {
    let bytecode = ExecConfig::default();
    [
        ("tree-serial", ExecConfig { engine: Engine::Tree, ..bytecode }),
        (
            "simulate-4",
            ExecConfig { mode: ParallelMode::Simulate(Machine::with_procs(4)), ..bytecode },
        ),
        (
            "threads-2-static",
            ExecConfig { mode: ParallelMode::Threads(2), schedule: Schedule::Static, ..bytecode },
        ),
        (
            "threads-4-dynamic",
            ExecConfig {
                mode: ParallelMode::Threads(4),
                schedule: Schedule::Dynamic(3),
                ..bytecode
            },
        ),
    ]
}

/// Where a run first parts from its reference. `None` marks a line or an
/// element that side does not have.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Divergence {
    /// Printed line `line` (0-based) differs.
    Printed { line: usize, reference: Option<String>, run: Option<String> },
    /// Element `element` (column-major) of `var` differs, as raw bits.
    Memory { var: String, element: usize, reference: Option<u64>, run: Option<u64> },
    /// The reference holds `var`; the run does not.
    Missing { var: String },
}

impl Divergence {
    /// The campaign's verdict class.
    pub fn class(&self) -> &'static str {
        match self {
            Divergence::Printed { .. } => "divergence:printed",
            Divergence::Memory { .. } | Divergence::Missing { .. } => "divergence:memory",
        }
    }
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn side<T>(v: &Option<T>, show: impl Fn(&T) -> String) -> String {
            v.as_ref().map_or_else(|| "nothing".to_string(), show)
        }
        match self {
            Divergence::Printed { line, reference, run } => write!(
                f,
                "printed line {line}: reference {}, run {}",
                side(reference, |l| format!("{l:?}")),
                side(run, |l| format!("{l:?}"))
            ),
            Divergence::Memory { var, element, reference, run } => write!(
                f,
                "'{var}' element {element}: reference {}, run {}",
                side(reference, |b| format!("{b:#018x}")),
                side(run, |b| format!("{b:#018x}"))
            ),
            Divergence::Missing { var } => write!(f, "'{var}': missing from the run"),
        }
    }
}

/// Compare `run` with `reference`: printed output line by line, then every
/// reference variable not in `skip`, bit for bit. A variable only the run
/// holds (a transform's fresh scalar, such as strip-mine's tile index) is
/// ignored.
pub fn compare(reference: &Run, run: &Run, skip: &[String]) -> Result<(), Divergence> {
    let (want, got) = (&reference.0.printed, &run.0.printed);
    if want != got {
        let line = want.iter().zip(got).take_while(|(a, b)| a == b).count();
        return Err(Divergence::Printed {
            line,
            reference: want.get(line).cloned(),
            run: got.get(line).cloned(),
        });
    }
    for (var, want) in reference.1.iter().filter(|(n, _)| !skip.contains(n)) {
        // Snapshots are sorted by name.
        let Ok(k) = run.1.binary_search_by(|(n, _)| n.cmp(var)) else {
            return Err(Divergence::Missing { var: var.clone() });
        };
        let got = &run.1[k].1;
        if want != got {
            let element = want.iter().zip(got).take_while(|(a, b)| a == b).count();
            return Err(Divergence::Memory {
                var: var.clone(),
                element,
                reference: want.get(element).copied(),
                run: got.get(element).copied(),
            });
        }
    }
    Ok(())
}

/// How one of the [`modes`] failed [`check_modes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModeFailure {
    /// The run did not finish.
    Runtime { mode: &'static str, error: String },
    /// The run parted from the reference.
    Diverged { mode: &'static str, divergence: Divergence },
}

impl ModeFailure {
    /// The campaign's verdict class: `runtime-error:<mode>` or the
    /// divergence's own.
    pub fn class(&self) -> String {
        match self {
            ModeFailure::Runtime { mode, .. } => format!("runtime-error:{mode}"),
            ModeFailure::Diverged { divergence, .. } => divergence.class().to_string(),
        }
    }
}

impl fmt::Display for ModeFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModeFailure::Runtime { mode, error } => write!(f, "{mode}: {error}"),
            ModeFailure::Diverged { mode, divergence } => write!(f, "{mode}: {divergence}"),
        }
    }
}

/// Run the session's program in every one of the [`modes`] and compare
/// each run with `reference`, skipping [`unspecified_privates`]. The runs
/// go through [`Ped::run_with_memory`], so a profiled session folds them
/// into its report.
pub fn check_modes(ped: &Ped, reference: &Run) -> Result<(), ModeFailure> {
    let skip = unspecified_privates(ped.program());
    for (mode, config) in modes() {
        let run = ped
            .run_with_memory(config)
            .map_err(|e| ModeFailure::Runtime { mode, error: e.to_string() })?;
        compare(reference, &run, &skip)
            .map_err(|divergence| ModeFailure::Diverged { mode, divergence })?;
    }
    Ok(())
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

    /// A run that printed `printed` and ended with `memory`.
    fn run(printed: &[&str], memory: &[(&str, &[u64])]) -> Run {
        let printed = printed.iter().map(|l| l.to_string()).collect();
        let result = RunResult { printed, ..RunResult::default() };
        let mut memory: MemorySnapshot =
            memory.iter().map(|(n, bits)| (n.to_string(), bits.to_vec())).collect();
        memory.sort();
        (result, memory)
    }

    #[test]
    fn compare_names_the_first_differing_printed_line_and_both_lines() {
        let reference = run(&["1.0", "2.5"], &[]);
        let d = compare(&reference, &run(&["1.0", "2.50001"], &[]), &[]).unwrap_err();
        assert_eq!(
            d,
            Divergence::Printed {
                line: 1,
                reference: Some("2.5".into()),
                run: Some("2.50001".into())
            }
        );
        assert_eq!(d.class(), "divergence:printed");
        assert_eq!(d.to_string(), "printed line 1: reference \"2.5\", run \"2.50001\"");
        // A line the run never printed parts the runs too.
        let short = compare(&reference, &run(&["1.0"], &[]), &[]).unwrap_err();
        assert_eq!(short.to_string(), "printed line 1: reference \"2.5\", run nothing");
    }

    #[test]
    fn compare_names_the_variable_its_first_differing_element_and_both_values() {
        let reference = run(&["x"], &[("a", &[1, 2, 3]), ("s", &[7])]);
        let d = compare(&reference, &run(&["x"], &[("a", &[1, 2, 4]), ("s", &[8])]), &[])
            .unwrap_err();
        assert_eq!(
            d,
            Divergence::Memory { var: "a".into(), element: 2, reference: Some(3), run: Some(4) }
        );
        assert_eq!(d.class(), "divergence:memory");
        assert_eq!(
            d.to_string(),
            "'a' element 2: reference 0x0000000000000003, run 0x0000000000000004"
        );
    }

    #[test]
    fn compare_flags_a_missing_reference_variable_and_ignores_a_run_only_one() {
        let reference = run(&[], &[("a", &[1]), ("s", &[2])]);
        let d = compare(&reference, &run(&[], &[("a", &[1])]), &[]).unwrap_err();
        assert_eq!(d, Divergence::Missing { var: "s".into() });
        assert_eq!(d.class(), "divergence:memory");
        // A transform's fresh scalar (strip-mine's tile index) is ignored.
        let with_tile = run(&[], &[("a", &[1]), ("i_tile", &[9]), ("s", &[2])]);
        assert_eq!(compare(&reference, &with_tile, &[]), Ok(()));
    }

    #[test]
    fn compare_honours_skip() {
        let reference = run(&["x"], &[("a", &[1]), ("t", &[5])]);
        let skip = ["t".to_string()];
        assert!(compare(&reference, &run(&["x"], &[("a", &[1]), ("t", &[6])]), &[]).is_err());
        assert_eq!(compare(&reference, &run(&["x"], &[("a", &[1]), ("t", &[6])]), &skip), Ok(()));
        assert_eq!(compare(&reference, &run(&["x"], &[("a", &[1])]), &skip), Ok(()));
    }

    #[test]
    fn check_modes_accepts_a_parallel_program_and_names_a_diverging_mode() {
        let src = "program t\nreal a(100)\ns = 0.0\nparallel do i = 1, 100\n\
                   a(i) = i * 0.5\nenddo\nparallel do i = 1, 100 reduction(+:s)\n\
                   s = s + a(i)\nenddo\nprint *, s\nend\n";
        let ped = Ped::open(src).unwrap();
        let reference = ped.run_with_memory(ExecConfig::default()).unwrap();
        assert_eq!(check_modes(&ped, &reference), Ok(()));
        let mut wrong = reference.clone();
        wrong.0.printed[0].push('0');
        let failure = check_modes(&ped, &wrong).unwrap_err();
        assert_eq!(failure.class(), "divergence:printed");
        assert!(failure.to_string().starts_with("tree-serial: printed line 0"), "{failure}");
        let runtime = ModeFailure::Runtime { mode: "simulate-4", error: "boom".into() };
        assert_eq!(runtime.class(), "runtime-error:simulate-4");
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
