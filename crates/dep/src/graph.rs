//! The per-loop dependence graph — what Ped's dependence pane displays.
//!
//! For a selected loop, the graph holds every data dependence among the
//! statements of its body (array dependences from the test driver, scalar
//! dependences from scalar classification, call-induced dependences refined
//! by interprocedural MOD/REF when available) plus control dependences.
//! Each edge carries its type (true/anti/output/input), direction vector,
//! carried level, and provenance — and whether it was *proven* by an exact
//! test or is merely *pending* (the paper's dependence-marking states; user
//! marks themselves live in `ped-core`).

use crate::driver::{test_pair, TestName};
use crate::nest::{bounds_vary, NestCtx};
use crate::vectors::{DirSet, DirVector};
use ped_analysis::scalars::{classify_scalars_with, ScalarClass};
use ped_fortran::visit::{enclosing_loops, for_each_stmt, stmt_accesses, AccessKind};
use ped_fortran::{Expr, ProgramUnit, RedOp, StmtId, SymId};
use std::collections::HashMap;

/// Dependence type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DepKind {
    /// Write → read (flow).
    True,
    /// Read → write.
    Anti,
    /// Write → write.
    Output,
    /// Read → read (reuse information).
    Input,
}

impl std::fmt::Display for DepKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DepKind::True => "true",
            DepKind::Anti => "anti",
            DepKind::Output => "output",
            DepKind::Input => "input",
        };
        write!(f, "{s}")
    }
}

/// Why the dependence exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepCause {
    /// Array subscript conflict.
    Array,
    /// Shared scalar.
    Scalar,
    /// Recognized reduction on a scalar (parallelizable with a clause).
    Reduction(RedOp),
    /// Auxiliary induction variable (substitutable).
    Induction,
    /// Procedure call side effect.
    Call,
    /// Control dependence.
    Control,
}

/// One dependence edge.
#[derive(Debug, Clone, PartialEq)]
pub struct Dependence {
    /// Dense id within the graph (stable for marking).
    pub id: usize,
    /// Source statement (executes first).
    pub src: StmtId,
    /// Sink statement.
    pub dst: StmtId,
    /// Variable carrying the dependence (`None` for control).
    pub var: Option<SymId>,
    /// Dependence type.
    pub kind: DepKind,
    /// Why it exists.
    pub cause: DepCause,
    /// Direction vector over the nest rooted at the analyzed loop.
    pub dirs: DirVector,
    /// Distances where known.
    pub dist: Vec<Option<i64>>,
    /// Carried level (1 = the analyzed loop); `None` = loop-independent.
    pub level: Option<usize>,
    /// Proven by an exact test vs pending (conservative assumption).
    pub proven: bool,
    /// Which tests fired.
    pub tests: Vec<TestName>,
}

impl Dependence {
    /// Does this dependence prevent running the analyzed loop in parallel?
    /// (Carried at level 1 and not a recognized reduction/induction or a
    /// control dependence.)
    pub fn blocks_parallel(&self) -> bool {
        self.level == Some(1)
            && !matches!(
                self.cause,
                DepCause::Reduction(_) | DepCause::Induction | DepCause::Control
            )
            && self.kind != DepKind::Input
    }
}

/// Interprocedural side-effect oracle used to refine call-site dependences
/// (implemented over MOD/REF analysis by `ped-interproc`; the default
/// worst-case oracle assumes a call may read and write every argument and
/// COMMON member).
pub trait SideEffects {
    /// May the call at `stmt` write `sym`?
    fn may_mod(&self, unit: &ProgramUnit, stmt: StmtId, sym: SymId) -> bool;
    /// May the call at `stmt` read `sym`?
    fn may_ref(&self, unit: &ProgramUnit, stmt: StmtId, sym: SymId) -> bool;
    /// Regular-section refinement of a write effect: per-dimension exact
    /// subscripts in *caller* terms (`None` in a slot = whole dimension).
    /// Returning `None` means no section information (whole array).
    fn mod_section(
        &self,
        _unit: &ProgramUnit,
        _stmt: StmtId,
        _sym: SymId,
    ) -> Option<Vec<Option<Expr>>> {
        None
    }
    /// Regular-section refinement of a read effect.
    fn ref_section(
        &self,
        _unit: &ProgramUnit,
        _stmt: StmtId,
        _sym: SymId,
    ) -> Option<Vec<Option<Expr>>> {
        None
    }
}

/// Placeholder subscript for an unconstrained section dimension: non-affine
/// by construction, so the tests yield `*` for that level and the
/// dependence stays pending.
pub fn any_subscript() -> Expr {
    Expr::Call { name: "__any__".to_string(), args: Vec::new() }
}

/// Turn a section (per-dim exact-or-any) into testable subscripts.
fn section_subs(dims: Vec<Option<Expr>>) -> Vec<Expr> {
    dims.into_iter().map(|d| d.unwrap_or_else(any_subscript)).collect()
}

/// The conservative default: calls touch their arguments and all COMMONs.
pub struct WorstCaseEffects;

impl SideEffects for WorstCaseEffects {
    fn may_mod(&self, unit: &ProgramUnit, stmt: StmtId, sym: SymId) -> bool {
        call_touches(unit, stmt, sym)
    }
    fn may_ref(&self, unit: &ProgramUnit, stmt: StmtId, sym: SymId) -> bool {
        call_touches(unit, stmt, sym)
    }
}

fn call_touches(unit: &ProgramUnit, stmt: StmtId, sym: SymId) -> bool {
    if unit.symbols.sym(sym).common.is_some() {
        return true;
    }
    stmt_accesses(unit, stmt)
        .iter()
        .any(|a| a.kind == AccessKind::CallArg && a.sym == sym)
}

/// Options for graph construction.
pub struct GraphConfig<'a> {
    /// Include read-read (input) dependences.
    pub include_input: bool,
    /// Side-effect oracle for calls (array effects).
    pub effects: &'a dyn SideEffects,
    /// Scalar call effects (MOD/REF/KILL) for scalar classification.
    pub call_info: &'a dyn ped_analysis::scalars::CallInfo,
    /// Integer resolver (constants + assertions) for subscript analysis.
    pub resolve: Box<dyn Fn(SymId) -> Option<i64> + 'a>,
    /// Memo table for subscript-pair tests, shared across loops/units/
    /// threads (`None` = test every pair directly).
    pub pair_cache: Option<&'a crate::cache::PairCache>,
    /// Instrumentation registry: phase timers plus the per-pair decision
    /// and per-edge test histograms (`None` or disabled = no recording).
    pub obs: Option<&'a ped_obs::Obs>,
}

impl<'a> GraphConfig<'a> {
    /// Worst-case calls, no input deps, no constant knowledge, no memo.
    pub fn conservative() -> GraphConfig<'static> {
        GraphConfig {
            include_input: false,
            effects: &WorstCaseEffects,
            call_info: &ped_analysis::scalars::ConservativeCalls,
            resolve: Box::new(|_| None),
            pair_cache: None,
            obs: None,
        }
    }
}

/// The obs-layer name of a dependence test.
pub fn test_obs_kind(t: TestName) -> ped_obs::TestKind {
    match t {
        TestName::Ziv => ped_obs::TestKind::Ziv,
        TestName::StrongSiv => ped_obs::TestKind::StrongSiv,
        TestName::WeakZeroSiv => ped_obs::TestKind::WeakZeroSiv,
        TestName::WeakCrossingSiv => ped_obs::TestKind::WeakCrossingSiv,
        TestName::ExactSiv => ped_obs::TestKind::ExactSiv,
        TestName::Gcd => ped_obs::TestKind::Gcd,
        TestName::Banerjee => ped_obs::TestKind::Banerjee,
        TestName::NonAffine => ped_obs::TestKind::NonAffine,
        TestName::Symbolic => ped_obs::TestKind::Symbolic,
    }
}

/// Which test (or conservative cause) justifies an emitted edge: the last
/// test the driver ran decided the pair; scalar and control edges come from
/// classification, not subscript testing.
fn edge_obs_kind(d: &Dependence) -> ped_obs::TestKind {
    match d.cause {
        DepCause::Scalar | DepCause::Reduction(_) | DepCause::Induction => {
            ped_obs::TestKind::Scalar
        }
        DepCause::Control => ped_obs::TestKind::Control,
        DepCause::Array | DepCause::Call => d
            .tests
            .last()
            .map(|&t| test_obs_kind(t))
            .unwrap_or(ped_obs::TestKind::NonAffine),
    }
}

/// The dependence graph of one loop. `PartialEq` compares the full edge
/// list and scalar classification — the batch-analysis determinism test
/// relies on it.
#[derive(Debug, Clone, PartialEq)]
pub struct DepGraph {
    /// The analyzed loop's header.
    pub header: StmtId,
    /// All dependences.
    pub deps: Vec<Dependence>,
    /// Scalar classification (the variable pane's contents).
    pub scalar_classes: HashMap<SymId, ScalarClass>,
    /// Array classification from bounded regular sections (kill/exposed).
    pub array_classes: HashMap<SymId, ped_analysis::sections::ArrayClass>,
}

impl DepGraph {
    /// Dependences carried by the analyzed loop (level 1).
    pub fn carried(&self) -> impl Iterator<Item = &Dependence> {
        self.deps.iter().filter(|d| d.level == Some(1))
    }

    /// Dependences that block parallelizing the analyzed loop.
    pub fn blocking(&self) -> Vec<&Dependence> {
        self.deps.iter().filter(|d| d.blocks_parallel()).collect()
    }

    /// True when nothing blocks a DOALL (before user marking).
    pub fn parallelizable(&self) -> bool {
        self.blocking().is_empty()
    }

    /// Filter by variable name (a dependence-pane view filter).
    pub fn deps_on(&self, sym: SymId) -> impl Iterator<Item = &Dependence> {
        self.deps.iter().filter(move |d| d.var == Some(sym))
    }
}

/// An array access inside the loop, with its nest path.
struct ArrAccess {
    stmt: StmtId,
    sym: SymId,
    subs: Option<Vec<Expr>>, // None = whole array (call argument)
    write: bool,
    call: bool,
    /// Loops enclosing the access, from the analyzed loop inward.
    path: Vec<StmtId>,
    /// Pre-order position for textual ordering.
    order: usize,
}

/// Build the dependence graph of the loop at `header`.
pub fn build_graph(
    unit: &ProgramUnit,
    header: StmtId,
    config: &GraphConfig<'_>,
) -> DepGraph {
    let body = unit.loop_of(header).body.clone();

    // Pre-order positions for textual order decisions.
    let mut order: HashMap<StmtId, usize> = HashMap::new();
    order.insert(header, 0);
    for_each_stmt(unit, &body, &mut |sid| {
        let n = order.len();
        order.insert(sid, n);
    });

    // Collect array accesses (and call-statement whole-array effects).
    let mut accesses: Vec<ArrAccess> = Vec::new();
    for_each_stmt(unit, &body, &mut |sid| {
        let path = nest_path(unit, header, sid);
        let is_call = matches!(unit.stmt(sid).kind, ped_fortran::StmtKind::Call { .. });
        for acc in stmt_accesses(unit, sid) {
            if !unit.symbols.sym(acc.sym).is_array() {
                continue;
            }
            match acc.kind {
                AccessKind::Read | AccessKind::Write => accesses.push(ArrAccess {
                    stmt: sid,
                    sym: acc.sym,
                    subs: acc.subs.clone(),
                    write: acc.kind == AccessKind::Write,
                    call: false,
                    path: path.clone(),
                    order: order[&sid],
                }),
                AccessKind::CallArg => {
                    // Whole-array (or element) passed to a procedure: both a
                    // potential read and a potential write, refined by the
                    // side-effect oracle and regular sections.
                    if config.effects.may_ref(unit, sid, acc.sym) {
                        accesses.push(ArrAccess {
                            stmt: sid,
                            sym: acc.sym,
                            subs: config
                                .effects
                                .ref_section(unit, sid, acc.sym)
                                .map(section_subs),
                            write: false,
                            call: true,
                            path: path.clone(),
                            order: order[&sid],
                        });
                    }
                    if config.effects.may_mod(unit, sid, acc.sym) {
                        accesses.push(ArrAccess {
                            stmt: sid,
                            sym: acc.sym,
                            subs: config
                                .effects
                                .mod_section(unit, sid, acc.sym)
                                .map(section_subs),
                            write: true,
                            call: true,
                            path: path.clone(),
                            order: order[&sid],
                        });
                    }
                }
            }
        }
        // COMMON arrays may be touched by a call even if not an argument.
        if is_call {
            for (id, sym) in unit.symbols.iter() {
                if sym.is_array() && sym.common.is_some() {
                    if config.effects.may_ref(unit, sid, id) {
                        accesses.push(ArrAccess {
                            stmt: sid,
                            sym: id,
                            subs: config.effects.ref_section(unit, sid, id).map(section_subs),
                            write: false,
                            call: true,
                            path: path.clone(),
                            order: order[&sid],
                        });
                    }
                    if config.effects.may_mod(unit, sid, id) {
                        accesses.push(ArrAccess {
                            stmt: sid,
                            sym: id,
                            subs: config.effects.mod_section(unit, sid, id).map(section_subs),
                            write: true,
                            call: true,
                            path: path.clone(),
                            order: order[&sid],
                        });
                    }
                }
            }
        }
    });

    // One enabled-check up front; every record below is gated on it.
    let obs = config.obs.filter(|o| o.enabled());

    let mut deps: Vec<Dependence> = Vec::new();

    // Array dependences: test each unordered pair once.
    {
        let _t = ped_obs::PhaseTimer::start(obs, ped_obs::Phase::DepTest);
        for i in 0..accesses.len() {
            for j in i..accesses.len() {
                let (a, b) = (&accesses[i], &accesses[j]);
                if a.sym != b.sym {
                    continue;
                }
                if !a.write && !b.write && !config.include_input {
                    continue;
                }
                if i == j && !a.write {
                    continue;
                }
                // Common nest: shared path prefix (includes the analyzed loop).
                let depth = a
                    .path
                    .iter()
                    .zip(&b.path)
                    .take_while(|(x, y)| x == y)
                    .count();
                debug_assert!(depth >= 1);
                let common: Vec<StmtId> = a.path[..depth].to_vec();
                let nest = NestCtx::from_headers(
                    unit,
                    &common,
                    Box::new(|s| (config.resolve)(s)),
                );
                let exact = !bounds_vary(unit, &common);
                emit_pair(a, b, &nest, exact, i == j, config.pair_cache, obs, &mut deps);
            }
        }
    }

    // Scalar dependences from classification.
    let scalar_timer = ped_obs::PhaseTimer::start(obs, ped_obs::Phase::ScalarAnalysis);
    let cfg = ped_analysis::cfg::Cfg::build(unit);
    let live = ped_analysis::liveness::Liveness::compute(unit, &cfg);
    let scalar_classes =
        classify_scalars_with(
            unit,
            header,
            &|s| live.live_after_loop(unit, &cfg, header, s),
            config.call_info,
        );
    let mut scalar_sites: HashMap<SymId, (Vec<StmtId>, Vec<StmtId>)> = HashMap::new();
    for_each_stmt(unit, &body, &mut |sid| {
        for acc in stmt_accesses(unit, sid) {
            if unit.symbols.sym(acc.sym).is_array() || acc.subs.is_some() {
                continue;
            }
            let entry = scalar_sites.entry(acc.sym).or_default();
            if acc.kind.may_read() {
                entry.0.push(sid);
            }
            if acc.kind.may_write() {
                entry.1.push(sid);
            }
        }
    });
    for (&sym, class) in &scalar_classes {
        let cause = match class {
            ScalarClass::Shared => DepCause::Scalar,
            ScalarClass::Reduction(op) => DepCause::Reduction(*op),
            ScalarClass::AuxInduction { .. } => DepCause::Induction,
            _ => continue,
        };
        let Some((reads, writes)) = scalar_sites.get(&sym) else { continue };
        // One representative carried dependence per (write, read/write)
        // pair; scalars conflict on every iteration pair.
        for &w in writes {
            for &r in reads {
                push_scalar_dep(&mut deps, w, r, sym, DepKind::True, cause);
            }
            for &w2 in writes {
                if w != w2 || writes.len() == 1 {
                    push_scalar_dep(&mut deps, w, w2, sym, DepKind::Output, cause);
                }
            }
            // Including r == w: a statement reading then writing the
            // scalar carries an anti dependence onto itself (the read at
            // iteration i precedes the write at i+1) — the shadow
            // validator observes it, so the static set must contain it.
            for &r in reads {
                push_scalar_dep(&mut deps, r, w, sym, DepKind::Anti, cause);
            }
        }
    }

    // Control dependences among body statements.
    let cd = ped_analysis::controldep::ControlDeps::compute(&cfg);
    let in_body: std::collections::HashSet<StmtId> = order.keys().copied().collect();
    for &(c, d) in &cd.pairs {
        if c != header && in_body.contains(&c) && in_body.contains(&d) {
            let id = deps.len();
            deps.push(Dependence {
                id,
                src: c,
                dst: d,
                var: None,
                kind: DepKind::True,
                cause: DepCause::Control,
                dirs: DirVector(vec![DirSet::EQ]),
                dist: vec![Some(0)],
                level: None,
                proven: true,
                tests: Vec::new(),
            });
        }
    }
    // Array classification from bounded regular sections. An array with no
    // upward-exposed reads carries no cross-iteration flow — every read is
    // covered by a same-iteration kill — so carried level-1 true
    // dependences on it are provably spurious and dropped. An array already
    // in the loop's PRIVATE clause loses *all* its level-1 edges: each
    // worker owns a copy, so nothing on it crosses iterations.
    let array_classes = ped_analysis::sections::classify_arrays(
        unit,
        header,
        &|s| live.live_after_loop(unit, &cfg, header, s),
        &|s| (config.resolve)(s),
        config.call_info,
    );
    let clause_arrays: std::collections::HashSet<SymId> = unit
        .loop_of(header)
        .parallel
        .as_ref()
        .map(|info| {
            info.private
                .iter()
                .copied()
                .filter(|s| unit.symbols.sym(*s).is_array())
                .collect()
        })
        .unwrap_or_default();
    deps.retain(|d| {
        let Some(v) = d.var else { return true };
        if d.level != Some(1) || !matches!(d.cause, DepCause::Array | DepCause::Call) {
            return true;
        }
        if clause_arrays.contains(&v) {
            return false;
        }
        !(d.kind == DepKind::True
            && array_classes.get(&v).is_some_and(|c| c.no_carried_flow))
    });
    if let Some(o) = obs.filter(|o| o.enabled()) {
        let classes = array_classes.values();
        o.record_sections(&ped_obs::SectionsReport {
            arrays_classified: array_classes.len() as u64,
            exposed_bottom: classes.clone().filter(|c| c.exposed_bottom).count() as u64,
            privatizable: classes.filter(|c| c.privatizable).count() as u64,
        });
    }
    drop(scalar_timer);

    deps.sort_by(|x, y| {
        (x.src, x.dst, x.var, x.kind, &x.dirs.0, x.level)
            .cmp(&(y.src, y.dst, y.var, y.kind, &y.dirs.0, y.level))
    });
    deps.dedup_by(|x, y| {
        x.src == y.src
            && x.dst == y.dst
            && x.var == y.var
            && x.kind == y.kind
            && x.dirs == y.dirs
            && x.cause == y.cause
    });
    for (i, d) in deps.iter_mut().enumerate() {
        d.id = i;
    }
    // Per-edge histogram, recorded after dedup so its total equals the
    // graph's edge count exactly.
    if let Some(o) = obs {
        for d in &deps {
            o.record_edge(edge_obs_kind(d));
        }
    }
    DepGraph { header, deps, scalar_classes, array_classes }
}

fn push_scalar_dep(
    deps: &mut Vec<Dependence>,
    src: StmtId,
    dst: StmtId,
    sym: SymId,
    kind: DepKind,
    cause: DepCause,
) {
    let id = deps.len();
    deps.push(Dependence {
        id,
        src,
        dst,
        var: Some(sym),
        kind,
        cause,
        dirs: DirVector(vec![DirSet::ANY]),
        dist: vec![None],
        level: Some(1),
        proven: true,
        tests: Vec::new(),
    });
}

/// Loops enclosing `stmt` from (and including) `header` inward.
fn nest_path(unit: &ProgramUnit, header: StmtId, stmt: StmtId) -> Vec<StmtId> {
    let mut enc = enclosing_loops(unit, stmt).unwrap_or_default();
    if unit.is_loop(stmt) {
        enc.push(stmt);
    }
    match enc.iter().position(|&h| h == header) {
        Some(p) => enc[p..].to_vec(),
        None => vec![header],
    }
}

/// `exact` is false over a nest whose bounds vary with an enclosing index
/// ([`bounds_vary`]): no outcome there is proven.
#[allow(clippy::too_many_arguments)]
fn emit_pair(
    a: &ArrAccess,
    b: &ArrAccess,
    nest: &NestCtx<'_>,
    exact: bool,
    same_access: bool,
    cache: Option<&crate::cache::PairCache>,
    obs: Option<&ped_obs::Obs>,
    deps: &mut Vec<Dependence>,
) {
    // Whole-array (call) endpoints: conservative all-star dependence.
    let mut outcome = match (&a.subs, &b.subs) {
        (Some(sa), Some(sb)) => match cache {
            Some(c) => c.test_pair(sa, sb, nest),
            None => test_pair(sa, sb, nest),
        },
        _ => crate::driver::PairOutcome {
            independent: false,
            vectors: vec![crate::driver::DepVec {
                dirs: DirVector::any(nest.depth()),
                dist: vec![None; nest.depth()],
            }],
            proven: false,
            tests_used: vec![TestName::NonAffine],
        },
    };
    outcome.proven &= exact;
    if let Some(o) = obs {
        // The last test the driver ran is the one that decided the pair.
        let decider = outcome.tests_used.last().copied().unwrap_or(TestName::Symbolic);
        let verdict = if outcome.independent {
            ped_obs::PairVerdict::Independent
        } else if outcome.proven {
            ped_obs::PairVerdict::Proven
        } else {
            ped_obs::PairVerdict::Pending
        };
        o.record_pair(test_obs_kind(decider), verdict);
    }
    if outcome.independent {
        return;
    }
    for v in &outcome.vectors {
        for (oriented, swapped) in v.dirs.orient() {
            let (mut src, mut dst) = if swapped { (b, a) } else { (a, b) };
            let mut dist_sign = if swapped { -1i64 } else { 1 };
            if oriented.all_eq() {
                // Loop-independent: flows from the textually earlier to the
                // later statement. Within one statement (or for the same
                // access) there is no in-iteration dependence to show.
                if same_access || src.stmt == dst.stmt {
                    continue;
                }
                if src.order > dst.order {
                    std::mem::swap(&mut src, &mut dst);
                    dist_sign = -dist_sign;
                }
            }
            let kind = match (src.write, dst.write) {
                (true, false) => DepKind::True,
                (false, true) => DepKind::Anti,
                (true, true) => DepKind::Output,
                (false, false) => DepKind::Input,
            };
            let dist: Vec<Option<i64>> =
                v.dist.iter().map(|d| d.map(|x| dist_sign * x)).collect();
            let cause = if src.call || dst.call { DepCause::Call } else { DepCause::Array };
            let level = oriented.carried_level();
            let id = deps.len();
            deps.push(Dependence {
                id,
                src: src.stmt,
                dst: dst.stmt,
                var: Some(a.sym),
                kind,
                cause,
                dirs: oriented,
                dist,
                level,
                proven: outcome.proven,
                tests: outcome.tests_used.clone(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ped_fortran::parse_program;

    fn graph(src: &str) -> (ProgramUnit, DepGraph) {
        let u = parse_program(src).unwrap().units.remove(0);
        let header = *u.body.iter().find(|&&s| u.is_loop(s)).unwrap();
        let g = build_graph(&u, header, &GraphConfig::conservative());
        (u, g)
    }

    /// A tile loop's `u(i, j)` output dependence cannot occur: the tiles
    /// cover disjoint ranges of `j`. Only the inner loop's `min(..)` bound
    /// says so, and the tests read each level as a rectangle, so the edge
    /// survives but must stay pending (the user may reject it). The
    /// rectangular twin, whose `j` loop repeats in every tile, really has
    /// it, and it stays proven.
    #[test]
    fn tiled_nest_dependence_is_pending_and_its_rectangular_twin_proven() {
        let nest = |j_loop: &str| {
            format!(
                "subroutine init(u, n, m)\ninteger n, m\nreal u(n, m)\ndo jt = 1, m, 64\n\
                 {j_loop}\ndo i = 1, n\nu(i, j) = 0.01 * i + 0.02 * j\nenddo\nenddo\nenddo\n\
                 return\nend\n"
            )
        };
        let tile_output = |src: String| {
            let (u, g) = graph(&src);
            let var = u.symbols.lookup("u");
            g.deps
                .iter()
                .find(|d| d.var == var && d.kind == DepKind::Output && d.level == Some(1))
                .map(|d| d.proven)
                .expect("tile-level output dependence on u")
        };
        assert!(!tile_output(nest("do j = jt, min(jt + 63, m)")), "tiled: pending");
        assert!(tile_output(nest("do j = 1, 64")), "rectangular twin: proven");
    }

    #[test]
    fn vector_copy_is_parallel() {
        let (_, g) = graph(
            "program t\nreal a(100), b(100)\ndo i = 1, 100\na(i) = b(i) + 1.0\nenddo\nend\n",
        );
        assert!(g.parallelizable(), "blocking: {:?}", g.blocking());
    }

    #[test]
    fn fully_killed_workspace_drops_carried_flow() {
        // w is fully overwritten by the first inner loop before the second
        // reads it: the carried true edges on w are spurious and dropped;
        // carried anti/output stay (the clause, not the kill, removes them).
        let (u, g) = graph(
            "program t\nreal w(32), a(16,32)\ndo is = 1, 16\ndo ip = 1, 32\n\
             w(ip) = real(is + ip)\nenddo\ndo ip = 1, 32\na(is,ip) = w(ip)\nenddo\n\
             enddo\nend\n",
        );
        let w = u.symbols.lookup("w").unwrap();
        let cls = &g.array_classes[&w];
        assert!(cls.no_carried_flow && cls.privatizable);
        assert!(
            !g.deps.iter().any(|d| d.var == Some(w)
                && d.kind == DepKind::True
                && d.level == Some(1)),
            "carried true edges on w must be dropped"
        );
        assert!(
            g.deps.iter().any(|d| d.var == Some(w)
                && d.level == Some(1)
                && matches!(d.kind, DepKind::Anti | DepKind::Output)),
            "anti/output edges on w stay until privatized"
        );
    }

    #[test]
    fn partial_kill_keeps_carried_flow() {
        let (u, g) = graph(
            "program t\nreal w(32), a(16,32)\ndo is = 1, 16\ndo ip = 1, 31\n\
             w(ip) = real(is + ip)\nenddo\ndo ip = 1, 32\na(is,ip) = w(ip)\nenddo\n\
             enddo\nend\n",
        );
        let w = u.symbols.lookup("w").unwrap();
        let cls = &g.array_classes[&w];
        assert!(!cls.no_carried_flow && !cls.privatizable);
        assert!(
            g.deps.iter().any(|d| d.var == Some(w)
                && d.kind == DepKind::True
                && d.level == Some(1)),
            "the w(32) carried flow must survive"
        );
    }

    #[test]
    fn recurrence_blocks() {
        let (_, g) = graph(
            "program t\nreal a(100)\ndo i = 2, 100\na(i) = a(i-1) + 1.0\nenddo\nend\n",
        );
        assert!(!g.parallelizable());
        let blocking = g.blocking();
        assert!(blocking.iter().any(|d| d.kind == DepKind::True && d.level == Some(1)));
        assert!(blocking.iter().all(|d| d.proven), "strong SIV proves it");
        assert!(blocking.iter().any(|d| d.dist[0] == Some(1)));
    }

    #[test]
    fn anti_dependence_direction() {
        // a(i) = a(i+1): reads next element → carried anti dependence.
        let (_, g) = graph(
            "program t\nreal a(101)\ndo i = 1, 100\na(i) = a(i+1)\nenddo\nend\n",
        );
        assert!(!g.parallelizable());
        assert!(g.blocking().iter().any(|d| d.kind == DepKind::Anti));
        assert!(g.blocking().iter().all(|d| d.kind != DepKind::True));
    }

    #[test]
    fn inner_loop_dep_does_not_block_outer() {
        // Dependence carried by j (level 2): outer i loop stays parallel.
        let (_, g) = graph(
            "program t\nreal a(10,20)\ndo i = 1, 10\ndo j = 2, 20\n\
             a(i,j) = a(i,j-1) + 1.0\nenddo\nenddo\nend\n",
        );
        assert!(g.parallelizable(), "blocking: {:?}", g.blocking());
        assert!(g.deps.iter().any(|d| d.level == Some(2)));
    }

    #[test]
    fn reduction_recognized_not_blocking() {
        let (_, g) = graph(
            "program t\nreal a(100)\ns = 0.0\ndo i = 1, 100\ns = s + a(i)\nenddo\n\
             print *, s\nend\n",
        );
        assert!(g.parallelizable());
        assert!(g
            .deps
            .iter()
            .any(|d| matches!(d.cause, DepCause::Reduction(RedOp::Sum))));
    }

    #[test]
    fn shared_scalar_blocks() {
        let (_, g) = graph(
            "program t\nreal a(100)\ndo i = 1, 100\na(i) = t1\nt1 = a(i) * 2.0\nenddo\nend\n",
        );
        assert!(!g.parallelizable());
        assert!(g.blocking().iter().any(|d| d.cause == DepCause::Scalar));
    }

    /// Regression (found by the shadow validator's observed⊆static
    /// property): a single statement that reads and writes a shared scalar
    /// carries an anti dependence onto itself, which the emitter used to
    /// drop — the runtime observed an anti pair no static edge accounted
    /// for.
    #[test]
    fn self_statement_shared_scalar_has_anti_edge() {
        let (u, g) = graph(
            "program t\nreal a(100)\ndo i = 1, 100\ns = s + a(i) + a(i)\nenddo\nend\n",
        );
        let s = u.symbols.lookup("s").unwrap();
        // The double-spine defeats the reduction recognizer: s is Shared.
        assert!(matches!(g.scalar_classes[&s], ScalarClass::Shared));
        for kind in [DepKind::True, DepKind::Anti, DepKind::Output] {
            assert!(
                g.deps.iter().any(|d| d.var == Some(s) && d.kind == kind && d.src == d.dst),
                "missing carried {kind:?} self-edge on s"
            );
        }
    }

    #[test]
    fn private_scalar_no_deps() {
        let (u, g) = graph(
            "program t\nreal a(100)\ndo i = 1, 100\nt1 = a(i) * 2.0\na(i) = t1\nenddo\nend\n",
        );
        let t1 = u.symbols.lookup("t1").unwrap();
        assert!(g.parallelizable());
        assert!(g.deps_on(t1).next().is_none());
        assert!(matches!(g.scalar_classes[&t1], ScalarClass::Private { .. }));
    }

    #[test]
    fn call_in_loop_blocks_conservatively() {
        let (_, g) = graph(
            "program t\nreal a(100)\ndo i = 1, 100\ncall f(a, i)\nenddo\nend\n",
        );
        assert!(!g.parallelizable());
        assert!(g.blocking().iter().any(|d| d.cause == DepCause::Call));
        assert!(g.blocking().iter().all(|d| !d.proven), "call deps are pending");
    }

    #[test]
    fn index_array_pending_dep() {
        let (_, g) = graph(
            "program t\nreal a(100)\ninteger ind(100)\ndo i = 1, 100\n\
             a(ind(i)) = a(ind(i)) + 1.0\nenddo\nend\n",
        );
        assert!(!g.parallelizable());
        assert!(g.blocking().iter().all(|d| !d.proven), "index-array deps are pending");
    }

    #[test]
    fn control_dep_present_not_blocking() {
        let (_, g) = graph(
            "program t\nreal a(100)\ndo i = 1, 100\nif (a(i) .gt. 0.0) then\n\
             a(i) = 0.0\nendif\nenddo\nend\n",
        );
        assert!(g.deps.iter().any(|d| d.cause == DepCause::Control));
        assert!(g.parallelizable());
    }

    #[test]
    fn crossing_dep_detected() {
        let (_, g) = graph(
            "program t\nreal a(100)\ndo i = 1, 49\na(i) = a(100-i)\nenddo\nend\n",
        );
        // i vs 100-i crossing at 50: reads touch 51..99, writes 1..49 — no
        // overlap, independent!
        assert!(g.parallelizable(), "{:?}", g.blocking());
        let (_, g2) = graph(
            "program t\nreal a(100)\ndo i = 1, 99\na(i) = a(100-i)\nenddo\nend\n",
        );
        assert!(!g2.parallelizable());
    }
}
