//! # Autopilot — cost-model-driven transform search on top of power steering
//!
//! Ped's paradigm is user-picks-transform; the estimator already ranks
//! loops and predicts speedup. This module closes the loop: a planner
//! that enumerates short sequences from the transformation catalog
//! (interchange → distribution → privatization → parallelize, fusion for
//! locality, strip-mine for chunking), prunes candidates through the
//! existing dependence machinery for safety, scores survivors with the
//! estimator — charging the *composed* nest, never a per-step sum — and
//! verifies winners by actually executing them: a clean shadow-validator
//! pass whose serial run is bit-identical to the pre-transform program,
//! then the execution oracle's mode matrix ([`crate::equiv::check_modes`])
//! against that run. Measuring real speedups is the E18 bench's business,
//! not the product's.
//!
//! Every candidate is trial-applied through the session's transform
//! machinery and rolled back with [`Ped::abandon`], so a rejected plan
//! leaves the undo journal — and therefore the dependence graphs — exactly
//! as the search found them. Applied plans sit on the ordinary undo stack
//! like any user transformation.

use crate::autopar::{cover_nested, privatizable_blockers};
use crate::equiv::{self, Run};
use crate::session::Ped;
use ped_fortran::visit::for_each_stmt;
use ped_fortran::{ProgramUnit, StmtId};
use ped_obs::AutopilotReport;
use ped_perf::Estimator;
use ped_runtime::{Engine, ExecConfig, Machine};
use ped_transform::{Safety, Xform};

/// Predicted speedup a candidate must beat to survive profitability
/// pruning.
const MIN_SPEEDUP: f64 = 1.05;

/// Planner configuration.
#[derive(Debug, Clone)]
pub struct AutopilotConfig {
    /// Machine model the estimator scores candidates against.
    pub machine: Machine,
    /// Execute applied plans and roll back any that fail the shadow
    /// validator or the execution oracle.
    pub verify: bool,
}

impl Default for AutopilotConfig {
    fn default() -> AutopilotConfig {
        AutopilotConfig { machine: Machine::alliant8(), verify: true }
    }
}

/// One applied (or attempted) transformation inside a plan.
#[derive(Debug, Clone)]
pub struct PlanStep {
    /// Statement the transform targeted (strip-mine's parallelize step
    /// targets the new tile loop, not the original header).
    pub target: StmtId,
    /// The transformation.
    pub xform: Xform,
}

/// The winning candidate for one nest.
#[derive(Debug, Clone)]
pub struct NestPlan {
    /// Unit index.
    pub unit: usize,
    /// Unit name.
    pub unit_name: String,
    /// Original nest header the search started from.
    pub header: StmtId,
    /// Steps in application order.
    pub steps: Vec<PlanStep>,
    /// Loops the plan leaves behind, with their parallel flag — the
    /// composed nest the estimator charged.
    pub result_loops: Vec<(StmtId, bool)>,
    /// Predicted speedup of the composed nest over the original serial
    /// nest.
    pub predicted: f64,
    /// Stable strategy slug (`parallelize`, `interchange+parallelize`, …).
    pub strategy: &'static str,
}

/// One nest's final disposition after the apply/verify loop.
#[derive(Debug, Clone)]
pub struct PlanOutcome {
    /// The plan.
    pub plan: NestPlan,
    /// Whether it is still applied in the session.
    pub applied: bool,
    /// `applied`, or the rejection reason.
    pub verdict: String,
}

/// Everything `ped --autopilot` produces.
#[derive(Debug, Clone, Default)]
pub struct AutopilotOutcome {
    /// Per-nest winners with their dispositions.
    pub plans: Vec<PlanOutcome>,
    /// Search counters: the `autopilot` profile block. Its calibration
    /// ratios stay zero; only the E18 bench measures.
    pub stats: AutopilotReport,
    /// Non-fatal notes (e.g. the reference run failed so verification was
    /// skipped).
    pub notes: Vec<String>,
}

impl AutopilotOutcome {
    /// One-line summary for batch-mode stderr.
    pub fn summary(&self) -> String {
        format!(
            "autopilot: {} candidates, {} pruned unsafe, {} unprofitable; \
             {} plans applied, {} rejected",
            self.stats.candidates,
            self.stats.pruned_unsafe,
            self.stats.pruned_unprofitable,
            self.stats.plans_applied,
            self.stats.plans_rejected
        )
    }
}

/// Advisory verdict for one nest (the `suggest` pane's row).
#[derive(Debug, Clone)]
pub struct NestSuggestion {
    /// Unit index.
    pub unit: usize,
    /// Unit name.
    pub unit_name: String,
    /// Nest header.
    pub header: StmtId,
    /// Loop nesting depth (0 = outermost).
    pub depth: usize,
    /// Loop index variable name.
    pub var: String,
    /// Estimated serial cost of the nest (the ranking key).
    pub baseline_serial: f64,
    /// Best plan found, if any survived safety and profitability.
    pub plan: Option<NestPlan>,
    /// Why no plan: the blocking dependence (unsafe) or the
    /// profitability verdict.
    pub blocked: String,
}

/// The `suggest` result: ranked rows plus the search counters.
#[derive(Debug, Clone, Default)]
pub struct Suggestions {
    /// Rows, grouped by unit and ranked by estimated serial cost within
    /// each unit.
    pub nests: Vec<NestSuggestion>,
    /// Search counters for the footer (calibration ratios unused).
    pub stats: AutopilotReport,
}

/// Why a candidate died during trial application.
enum Prune {
    /// The dependence machinery said the semantics would change.
    Unsafe(String),
    /// Syntactically inapplicable to this nest (not counted as a
    /// candidate: fusion without a following loop is a non-event, not a
    /// pruned plan). The reason is kept for debugging the planner.
    Inapplicable(#[allow(dead_code)] String),
}

/// A trial-applied candidate, still in effect in the session.
struct Trial {
    steps: Vec<PlanStep>,
    result_loops: Vec<(StmtId, bool)>,
}

/// The strategy catalog, in search order.
const STRATEGIES: &[&str] = &[
    "parallelize",
    "privatize+parallelize",
    "interchange+parallelize",
    "distribute+parallelize",
    "fuse+parallelize",
    "stripmine+parallelize",
];

/// Diagnose, then apply one step through the session, returning it with
/// the statements the rewrite created. Unsafe or inapplicable verdicts
/// prune; the caller owns rollback of any steps already applied.
fn step(
    ped: &mut Ped,
    ui: usize,
    target: StmtId,
    xform: Xform,
) -> Result<(PlanStep, Vec<StmtId>), Prune> {
    let diag = ped
        .diagnose(ui, target, &xform)
        .map_err(|e| Prune::Inapplicable(e.to_string()))?;
    if let Err(reason) = diag.applicable {
        return Err(Prune::Inapplicable(reason));
    }
    if let Safety::Unsafe(reason) = diag.safe {
        return Err(Prune::Unsafe(reason));
    }
    ped.apply(ui, target, &xform)
        .map(|applied| (PlanStep { target, xform }, applied.new_stmts))
        .map_err(|e| Prune::Inapplicable(e.to_string()))
}

/// The loop directly following `header` in its enclosing block — the
/// fusion strategy's partner, if any.
fn following_loop(unit: &ProgramUnit, header: StmtId) -> Option<StmtId> {
    fn scan(unit: &ProgramUnit, block: &[StmtId], header: StmtId) -> Option<StmtId> {
        if let Some(k) = block.iter().position(|&s| s == header) {
            return block.get(k + 1).copied().filter(|&next| unit.is_loop(next));
        }
        for &s in block {
            if unit.is_loop(s) {
                if let Some(found) = scan(unit, &unit.loop_of(s).body, header) {
                    return Some(found);
                }
            }
        }
        None
    }
    scan(unit, &unit.body, header)
}

/// Is the statement still reachable from the unit body (distribution
/// replaces the original header; fusion removes the partner)?
fn stmt_in_unit(unit: &ProgramUnit, target: StmtId) -> bool {
    let mut found = false;
    for_each_stmt(unit, &unit.body, &mut |s| {
        if s == target {
            found = true;
        }
    });
    found
}

/// Trial-apply one strategy. On success the steps are LEFT APPLIED (the
/// caller scores the composed program, then rolls back with
/// [`Ped::abandon`]); on a prune, everything this function applied has
/// already been rolled back.
fn run_strategy(
    ped: &mut Ped,
    ui: usize,
    header: StmtId,
    strategy: &str,
) -> Result<Trial, Prune> {
    let mut steps: Vec<PlanStep> = Vec::new();
    // Roll back what we applied before surfacing the prune.
    macro_rules! prune {
        ($ped:expr, $e:expr) => {{
            let n = steps.len();
            $ped.abandon(n);
            return Err($e);
        }};
    }
    let result = match strategy {
        "parallelize" => {
            steps.push(step(ped, ui, header, Xform::Parallelize)?.0);
            vec![(header, true)]
        }
        "privatize+parallelize" => {
            let Some(arrays) = privatizable_blockers(ped, ui, header) else {
                return Err(Prune::Inapplicable(
                    "no blocking dependences on privatizable arrays".into(),
                ));
            };
            for v in arrays {
                // The first privatization promotes the loop to PARALLEL DO
                // with full scalar clauses; later ones extend it.
                match step(ped, ui, header, Xform::ArrayPrivatize { var: v }) {
                    Ok((s, _)) => steps.push(s),
                    Err(e) => prune!(ped, e),
                }
            }
            vec![(header, true)]
        }
        "interchange+parallelize" => {
            steps.push(step(ped, ui, header, Xform::Interchange)?.0);
            match step(ped, ui, header, Xform::Parallelize) {
                Ok((s, _)) => steps.push(s),
                Err(e) => prune!(ped, e),
            }
            vec![(header, true)]
        }
        "distribute+parallelize" => {
            let (first, new_stmts) = step(ped, ui, header, Xform::Distribute)?;
            steps.push(first);
            // The distributed pieces: surviving original header plus the
            // created loops. Parallelize whichever pieces are safe.
            let unit = &ped.program().units[ui];
            let mut pieces: Vec<StmtId> = Vec::new();
            if stmt_in_unit(unit, header) && unit.is_loop(header) {
                pieces.push(header);
            }
            for s in new_stmts {
                if ped.program().units[ui].is_loop(s) {
                    pieces.push(s);
                }
            }
            let mut result: Vec<(StmtId, bool)> = Vec::new();
            for piece in pieces {
                match step(ped, ui, piece, Xform::Parallelize) {
                    Ok((s, _)) => {
                        steps.push(s);
                        result.push((piece, true));
                    }
                    Err(_) => result.push((piece, false)),
                }
            }
            if !result.iter().any(|&(_, par)| par) {
                prune!(
                    ped,
                    Prune::Unsafe("no distributed piece is parallelizable".into())
                );
            }
            result
        }
        "fuse+parallelize" => {
            let Some(partner) = following_loop(&ped.program().units[ui], header) else {
                return Err(Prune::Inapplicable("no directly-following loop to fuse".into()));
            };
            steps.push(step(ped, ui, header, Xform::Fuse { with: partner })?.0);
            match step(ped, ui, header, Xform::Parallelize) {
                Ok((s, _)) => steps.push(s),
                Err(e) => prune!(ped, e),
            }
            vec![(header, true)]
        }
        "stripmine+parallelize" => {
            let (first, new_stmts) = step(ped, ui, header, Xform::StripMine { size: 64 })?;
            steps.push(first);
            let Some(&tile) = new_stmts.iter().find(|&&s| ped.program().units[ui].is_loop(s))
            else {
                prune!(ped, Prune::Inapplicable("strip mining created no tile loop".into()));
            };
            match step(ped, ui, tile, Xform::Parallelize) {
                Ok((s, _)) => steps.push(s),
                Err(e) => prune!(ped, e),
            }
            vec![(tile, true)]
        }
        other => return Err(Prune::Inapplicable(format!("unknown strategy {other}"))),
    };
    Ok(Trial { steps, result_loops: result })
}

/// Score the composed nest currently in the session against the
/// pre-search serial baseline. This charges the *transformed* program —
/// post-interchange trip counts, post-distribution pieces — never a sum
/// of per-step estimates taken against the original nest.
fn composed_speedup(
    ped: &Ped,
    ui: usize,
    result_loops: &[(StmtId, bool)],
    baseline_serial: f64,
    machine: Machine,
) -> f64 {
    let mut est = Estimator::new(ped.program(), machine);
    let composed = est.nest_cost(ui, result_loops);
    if composed > 0.0 {
        baseline_serial / composed
    } else {
        1.0
    }
}

/// Search one nest: trial-apply every strategy, score the survivors,
/// roll everything back, and return the best candidate (not applied).
/// Also reports the blocking reason of the plain-parallelize candidate,
/// for the `suggest` pane.
fn search_nest(
    ped: &mut Ped,
    ui: usize,
    header: StmtId,
    cfg: &AutopilotConfig,
    stats: &mut AutopilotReport,
) -> (Option<NestPlan>, String) {
    let baseline_serial = {
        let mut est = Estimator::new(ped.program(), cfg.machine);
        est.estimate_loop(ui, header).serial_cost
    };
    let unit_name = ped.program().units[ui].name.clone();
    let mut best: Option<NestPlan> = None;
    let mut blocked = String::new();
    for &strategy in STRATEGIES {
        match run_strategy(ped, ui, header, strategy) {
            Ok(trial) => {
                stats.candidates += 1;
                let predicted =
                    composed_speedup(ped, ui, &trial.result_loops, baseline_serial, cfg.machine);
                ped.abandon(trial.steps.len());
                if predicted <= MIN_SPEEDUP {
                    stats.pruned_unprofitable += 1;
                    if blocked.is_empty() {
                        blocked = format!("below profitability floor ({predicted:.2}x)");
                    }
                    continue;
                }
                if best.as_ref().is_none_or(|b| predicted > b.predicted) {
                    best = Some(NestPlan {
                        unit: ui,
                        unit_name: unit_name.clone(),
                        header,
                        steps: trial.steps,
                        result_loops: trial.result_loops,
                        predicted,
                        strategy,
                    });
                }
            }
            Err(Prune::Unsafe(reason)) => {
                stats.candidates += 1;
                stats.pruned_unsafe += 1;
                if blocked.is_empty() {
                    blocked = format!("blocked: {reason}");
                }
            }
            Err(Prune::Inapplicable(_)) => {}
        }
    }
    if blocked.is_empty() {
        blocked = "no applicable candidate".into();
    }
    (best, blocked)
}

/// Execution verification of an applied plan: one shadow-checked serial
/// run that must be race-free and bit-identical to the pre-transform
/// reference (nothing skipped), then every oracle mode against that run.
fn verify_plan(ped: &mut Ped, reference: &Run) -> Result<(), String> {
    let (report, run, memory) = ped
        .check_logged(ExecConfig::default())
        .map_err(|e| format!("shadow check failed to run: {e}"))?;
    if !report.clean() {
        return Err(format!("shadow check found {} race(s)", report.race_count()));
    }
    let serial = (run, memory);
    equiv::compare(reference, &serial, &[])
        .map_err(|d| format!("differs from the pre-transform serial run at {d}"))?;
    equiv::check_modes(ped, &serial).map_err(|f| f.to_string())
}

/// Run the planner over every nest of every unit: search, apply the
/// winner, verify (rolling back failures).
pub fn autopilot(ped: &mut Ped, cfg: &AutopilotConfig) -> AutopilotOutcome {
    let mut outcome = AutopilotOutcome::default();
    // The pre-transform serial reference for bit-identity verification.
    let reference = if cfg.verify {
        match ped.run_with_memory(ExecConfig { engine: Engine::Tree, ..ExecConfig::default() }) {
            Ok(r) => Some(r),
            Err(e) => {
                outcome
                    .notes
                    .push(format!("reference run failed ({e}); plans applied unverified"));
                None
            }
        }
    } else {
        None
    };
    for ui in 0..ped.program().units.len() {
        let mut processed: Vec<StmtId> = Vec::new();
        let mut covered: Vec<StmtId> = Vec::new();
        loop {
            let next = ped
                .loops(ui)
                .into_iter()
                .map(|(h, _)| h)
                .find(|h| !processed.contains(h) && !covered.contains(h));
            let Some(header) = next else { break };
            processed.push(header);
            let (best, _blocked) = search_nest(ped, ui, header, cfg, &mut outcome.stats);
            let Some(plan) = best else { continue };
            // Re-apply the winner (deterministic replay of the trial).
            let Ok(trial) = run_strategy(ped, ui, header, plan.strategy) else { continue };
            let verdict = match &reference {
                Some(reference) => verify_plan(ped, reference),
                None => Ok(()),
            };
            let (applied, verdict) = match verdict {
                Ok(()) => {
                    outcome.stats.plans_applied += 1;
                    let unit = &ped.program().units[ui];
                    for &(piece, _) in &trial.result_loops {
                        cover_nested(unit, piece, &mut covered);
                        if !processed.contains(&piece) {
                            processed.push(piece);
                        }
                    }
                    (true, "applied".to_string())
                }
                Err(reason) => {
                    ped.abandon(trial.steps.len());
                    outcome.stats.plans_rejected += 1;
                    (false, format!("rejected: {reason}"))
                }
            };
            outcome.plans.push(PlanOutcome { plan, applied, verdict });
        }
    }
    outcome
}

/// Advisory search: the same planner, but every candidate — including
/// the winner — is rolled back, leaving the session (graphs, journal,
/// marks, redo history) exactly as it was. Returns the ranked plan per
/// nest.
pub fn suggest(ped: &mut Ped, cfg: &AutopilotConfig) -> Suggestions {
    ped.keeping_redo(|ped| search_program(ped, cfg))
}

fn search_program(ped: &mut Ped, cfg: &AutopilotConfig) -> Suggestions {
    let mut out = Suggestions::default();
    for ui in 0..ped.program().units.len() {
        let unit_name = ped.program().units[ui].name.clone();
        let mut covered: Vec<StmtId> = Vec::new();
        let mut rows: Vec<NestSuggestion> = Vec::new();
        for (header, depth) in ped.loops(ui) {
            if covered.contains(&header) {
                continue;
            }
            let (var, baseline_serial) = {
                let unit = &ped.program().units[ui];
                let var = unit.symbols.name(unit.loop_of(header).var).to_string();
                let mut est = Estimator::new(ped.program(), cfg.machine);
                (var, est.estimate_loop(ui, header).serial_cost)
            };
            let (plan, blocked) = search_nest(ped, ui, header, cfg, &mut out.stats);
            if let Some(p) = &plan {
                // A planned nest covers its inner loops, exactly as the
                // applying traversal would.
                cover_nested(&ped.program().units[ui], p.header, &mut covered);
            }
            rows.push(NestSuggestion {
                unit: ui,
                unit_name: unit_name.clone(),
                header,
                depth,
                var,
                baseline_serial,
                plan,
                blocked,
            });
        }
        // Ranked: most expensive nest first within the unit.
        rows.sort_by(|a, b| b.baseline_serial.total_cmp(&a.baseline_serial));
        out.nests.extend(rows);
    }
    out
}

/// Human-readable plan text, e.g. `loop interchange -> parallelize`.
pub fn plan_text(unit: &ProgramUnit, steps: &[PlanStep]) -> String {
    steps
        .iter()
        .map(|s| match &s.xform {
            Xform::ArrayPrivatize { var } => {
                format!("privatize {}", unit.symbols.name(*var))
            }
            Xform::StripMine { size } => format!("strip-mine {size}"),
            Xform::Fuse { .. } => "fuse next loop".to_string(),
            x => x.name().to_string(),
        })
        .collect::<Vec<_>>()
        .join(" -> ")
}

/// Render the `suggest` pane: the ranked plan per nest with predicted
/// speedup and safety verdict.
pub fn render_suggest(ped: &Ped, suggestions: &Suggestions, procs: usize) -> String {
    let bar = "─".repeat(78);
    let mut out = String::new();
    out.push_str(&format!("┌{bar}\n"));
    out.push_str(&format!(
        "│ autopilot — ranked plan per nest ({procs} procs)\n"
    ));
    let mut current_unit = usize::MAX;
    for n in &suggestions.nests {
        if n.unit != current_unit {
            current_unit = n.unit;
            out.push_str(&format!("├{bar}\n"));
            out.push_str(&format!("│ unit {}\n", n.unit_name));
        }
        let label = format!("{}{}  do {}", "  ".repeat(n.depth), n.header, n.var);
        match &n.plan {
            Some(p) => {
                out.push_str(&format!(
                    "│   {label:<24} est {:>12.0} ops  predicted {:>6.2}x  safe: {}\n",
                    n.baseline_serial,
                    p.predicted,
                    plan_text(&ped.program().units[n.unit], &p.steps)
                ));
            }
            None => {
                out.push_str(&format!(
                    "│   {label:<24} est {:>12.0} ops  no plan — {}\n",
                    n.baseline_serial, n.blocked
                ));
            }
        }
    }
    out.push_str(&format!("├{bar}\n"));
    out.push_str(&format!(
        "│ searched {} candidates · pruned {} unsafe · {} unprofitable\n",
        suggestions.stats.candidates,
        suggestions.stats.pruned_unsafe,
        suggestions.stats.pruned_unprofitable
    ));
    out.push_str(&format!("└{bar}\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equiv::assert_matches_fresh;

    #[test]
    fn autopilot_parallelizes_simple_loop() {
        let src = "program t\nreal a(50000)\ndo i = 1, 50000\na(i) = i * 2.0\nenddo\n\
                   print *, a(1), a(50000)\nend\n";
        let mut ped = Ped::open(src).unwrap();
        let out = autopilot(&mut ped, &AutopilotConfig::default());
        assert_eq!(out.stats.plans_applied, 1, "{}", out.summary());
        assert_eq!(out.stats.plans_rejected, 0);
        assert!(ped.source().contains("parallel do"), "{}", ped.source());
        assert_matches_fresh(&mut ped, "autopilot apply");
    }

    #[test]
    fn unsafe_recurrence_gets_no_plan() {
        let src = "program t\nreal a(1000)\na(1) = 1.0\ndo i = 2, 1000\na(i) = a(i-1) + 1.0\n\
                   enddo\nprint *, a(1000)\nend\n";
        let mut ped = Ped::open(src).unwrap();
        let before = ped.source();
        let out = autopilot(&mut ped, &AutopilotConfig::default());
        assert_eq!(out.stats.plans_applied, 0, "{}", out.summary());
        assert!(out.stats.pruned_unsafe > 0, "{}", out.summary());
        assert_eq!(ped.source(), before, "rejected search must not change the program");
    }

    #[test]
    fn suggest_rolls_back_every_trial() {
        let src = "program t\nreal a(50000), b(200)\ndo i = 1, 50000\na(i) = i * 2.0\nenddo\n\
                   do i = 2, 200\nb(i) = b(i-1)\nenddo\nprint *, a(1), b(200)\nend\n";
        let mut ped = Ped::open(src).unwrap();
        let before_src = ped.source();
        let before_graphs = crate::equiv::canonical_graphs(&mut ped);
        let s = suggest(&mut ped, &AutopilotConfig::default());
        assert_eq!(ped.source(), before_src);
        assert_eq!(crate::equiv::canonical_graphs(&mut ped), before_graphs);
        assert!(!ped.undo(), "journal must be empty after advisory search");
        assert!(!ped.redo(), "no redo entries may leak from trials");
        // The hot loop gets a plan; the recurrence is blocked.
        let hot = s.nests.iter().find(|n| n.var == "i" && n.plan.is_some());
        assert!(hot.is_some(), "{s:?}");
        assert!(
            s.nests.iter().any(|n| n.plan.is_none() && n.blocked.contains("blocked")),
            "{s:?}"
        );
        assert_matches_fresh(&mut ped, "suggest");
    }

    /// Trial applies clear redo like any transform; `suggest` must still
    /// hand the user's redo history back untouched.
    #[test]
    fn suggest_keeps_the_users_redo_history() {
        let src = "program t\nreal a(50000), b(50000)\ndo i = 1, 50000\na(i) = i * 2.0\nenddo\n\
                   do i = 1, 50000\nb(i) = i * 3.0\nenddo\nprint *, a(1), b(1)\nend\n";
        let mut ped = Ped::open(src).unwrap();
        let first = ped.loops(0)[0].0;
        ped.apply(0, first, &Xform::Parallelize).unwrap();
        let parallel = ped.source();
        assert!(ped.undo());
        let s = suggest(&mut ped, &AutopilotConfig::default());
        assert!(s.nests.iter().any(|n| n.plan.is_some()), "{s:?}");
        assert!(ped.redo(), "redo after suggest must re-apply the undone transform");
        assert_eq!(ped.source(), parallel);
        assert_matches_fresh(&mut ped, "redo after suggest");
    }

    /// The plan-composition rule: scoring a sequence charges the
    /// *composed* nest (interchange-then-parallelize uses the
    /// post-interchange trip counts), never a sum of per-step estimates
    /// against the original nest. On a 4 × 100000 nest the per-step view
    /// caps parallelize's gain at the outer trip count (4 ≤ procs), so it
    /// cannot separate plain parallelize from interchange-first; the
    /// composed view ranks interchange-first strictly higher and the
    /// search must pick it.
    #[test]
    fn plan_composition_charges_composed_nest_not_per_step_sum() {
        let src = "program t\nreal a(4,100000)\ndo i = 1, 4\ndo j = 1, 100000\n\
                   a(i,j) = i * j * 1.0\nenddo\nenddo\nend\n";
        let mut ped = Ped::open(src).unwrap();
        let machine = Machine::alliant8();
        let header = ped.loops(0)[0].0;

        // Per-step view, charged on the ORIGINAL nest: interchange alone
        // changes no costs (speedup 1.0), and parallelize's speedup is
        // bounded by the outer trip count of 4 — so per-step scoring gives
        // interchange+parallelize no edge over plain parallelize.
        let (direct_per_step, interchange_per_step) = {
            let mut est = Estimator::new(ped.program(), machine);
            let e = est.estimate_loop(0, header);
            (e.speedup(), 1.0 * e.speedup())
        };
        assert!(direct_per_step <= 4.0 + 1e-9, "outer trip bounds it: {direct_per_step}");
        assert!(
            (interchange_per_step - direct_per_step).abs() < 1e-9,
            "per-step sums cannot separate the orderings"
        );

        // The composed view must: the search picks interchange-first and
        // predicts more than the outer-trip bound.
        let s = suggest(&mut ped, &AutopilotConfig::default());
        let plan = s.nests[0].plan.as_ref().expect("hot nest gets a plan");
        assert_eq!(plan.strategy, "interchange+parallelize", "{s:?}");
        assert!(
            plan.predicted > direct_per_step + 0.5,
            "composed {} must beat per-step bound {}",
            plan.predicted,
            direct_per_step
        );
    }

    #[test]
    fn privatization_strategy_converts_workspace_loop() {
        // A workspace array fully overwritten before every read: blocked
        // for plain parallelize, convertible via ArrayPrivatize.
        let src = "program t\nreal w(10), out(4000)\ndo i = 1, 4000\n\
                   do k = 1, 10\nw(k) = i * k * 1.0\nenddo\n\
                   out(i) = w(1) + w(10)\nenddo\nprint *, out(1), out(4000)\nend\n";
        let mut ped = Ped::open(src).unwrap();
        let out = autopilot(&mut ped, &AutopilotConfig::default());
        assert_eq!(out.stats.plans_applied, 1, "{}", out.summary());
        let applied = &out.plans[0];
        assert!(applied.applied);
        assert!(
            applied.plan.steps.iter().any(|s| matches!(s.xform, Xform::ArrayPrivatize { .. })),
            "{:?}",
            applied.plan
        );
        assert_matches_fresh(&mut ped, "privatize plan");
    }

    #[test]
    fn render_suggest_is_deterministic() {
        let src = "program t\nreal a(50000)\ndo i = 1, 50000\na(i) = i * 2.0\nenddo\n\
                   print *, a(1)\nend\n";
        let mut ped = Ped::open(src).unwrap();
        let cfg = AutopilotConfig::default();
        let sa = suggest(&mut ped, &cfg);
        let a = render_suggest(&ped, &sa, 8);
        let sb = suggest(&mut ped, &cfg);
        let b = render_suggest(&ped, &sb, 8);
        assert_eq!(a, b);
        assert!(a.contains("parallelize"), "{a}");
    }
}
