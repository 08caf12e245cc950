//! Shadow-runtime dependence validation: cross-check the static dependence
//! graphs against what the program *actually did*.
//!
//! [`Ped::check`] runs the program once with the interpreter's shadow-memory
//! logger on ([`ped_runtime::shadow`]), then compares each loop's observed
//! cross-iteration dependences with its static graph overlaid by the user's
//! marks:
//!
//! * **soundness** — an observed loop-carried dependence on a
//!   parallel-marked loop is a race. The verdict pinpoints *why* the system
//!   let it through: a user deletion the execution contradicts (with the
//!   exact [`DepKey`]), a privatization/reduction clause the executed text
//!   lost, a force-parallelized loop whose blocking edge the user overrode,
//!   or — worst — a dependence the analysis missed entirely.
//! * **conservatism** — static carried edges that never materialized in the
//!   observed run are counted, not flagged: they measure how much
//!   parallelism the conservative analysis leaves on the table (the gap the
//!   paper's marking/assertion workflow exists to close).
//! * **validated deletions** — user-rejected edges that indeed never showed
//!   up, i.e. runs that *support* the user's assertions.
//!
//! The comparison is name-level per loop: observation keys are
//! `(variable name, access kind)` because the shadow log is collected by
//! cell identity and resolved to source names, while static edges carry
//! `SymId`s. Accesses masked by the loop's private/lastprivate/reduction
//! clauses (and the loop variable itself) never reach the log, so a clean
//! report means the *remaining shared* accesses are dependence-free — the
//! run-time analogue of [`Dependence::blocks_parallel`].

use crate::session::{DepKey, DepStatus, Ped, PedError};
use ped_dep::{DepCause, DepKind, Dependence};
use ped_fortran::StmtId;
use ped_obs::ValidationSummary;
use ped_runtime::{ExecConfig, ObsKind, ShadowLog};
use std::collections::HashSet;

/// Why an observed carried dependence on a parallel loop was able to race.
#[derive(Debug, Clone, PartialEq)]
pub enum RaceVerdict {
    /// The execution contradicts a user-deleted dependence: the rejected
    /// edge (pinpointed) really occurs. The paper's safety net for wrong
    /// assertions.
    ContradictsDeletion(DepKey),
    /// The static analysis knew — this active edge blocks parallelization —
    /// but the loop was force-parallelized anyway.
    ForcedParallel(DepKey),
    /// The analysis classified the variable as privatizable or a reduction,
    /// but the executed loop carries no such clause (e.g. it was stripped
    /// by a later edit).
    MissingClause,
    /// Carried flow observed through an array in the loop's private
    /// clause: the privatization (section-proven or user-forced) was
    /// invalid — some iteration read a value a different iteration wrote.
    /// Private-array cells are watched in "true-only" mode precisely so
    /// this witness survives the clause masking.
    InvalidArrayPrivatization,
    /// No static edge, no deletion, no clause: the analysis missed a real
    /// dependence. A soundness bug in the dependence tests.
    MissedByAnalysis,
}

impl std::fmt::Display for RaceVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RaceVerdict::ContradictsDeletion(k) => {
                write!(f, "contradicts deleted {} dependence {}->{}", k.kind, k.src, k.dst)
            }
            RaceVerdict::ForcedParallel(k) => {
                write!(f, "loop was force-parallelized over {} dependence {}->{}", k.kind, k.src, k.dst)
            }
            RaceVerdict::MissingClause => write!(f, "missing private/reduction clause"),
            RaceVerdict::InvalidArrayPrivatization => {
                write!(f, "invalid array privatization: carried flow through a private array")
            }
            RaceVerdict::MissedByAnalysis => write!(f, "missed by static analysis"),
        }
    }
}

/// One observed race: a cross-iteration dependence the shadow logger saw on
/// a loop that executed in parallel.
#[derive(Debug, Clone, PartialEq)]
pub struct RaceFinding {
    /// Unit name.
    pub unit: String,
    /// The racing loop's header.
    pub header: StmtId,
    /// Variable name carrying the dependence.
    pub var: String,
    /// Observed dependence kind.
    pub kind: ObsKind,
    /// How many cross-iteration pairs were observed.
    pub count: u64,
    /// Smallest observed iteration distance.
    pub min_dist: u64,
    /// Largest observed iteration distance.
    pub max_dist: u64,
    /// Why the system let it through.
    pub verdict: RaceVerdict,
}

/// One static carried edge the run never exhibited, with the section
/// analysis' self-diagnosis of why the edge survived static analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct UnobservedEdge {
    /// Variable name carrying the static edge.
    pub var: String,
    /// Static dependence kind.
    pub kind: DepKind,
    /// For arrays the section pass analyzed: why the kill analysis could
    /// not prove the edge spurious — "kill-gap" (partial overwrite, with
    /// the exposed/kill sections) or "symbolic-bound ⊤" (a subscript or
    /// bound it could not bound). `None` when sections are not to blame
    /// (scalars, or arrays the pass never saw).
    pub reason: Option<String>,
}

/// Validation outcome for one executed loop.
#[derive(Debug, Clone)]
pub struct LoopValidation {
    /// Unit name.
    pub unit: String,
    /// Unit index.
    pub unit_idx: usize,
    /// Loop header.
    pub header: StmtId,
    /// Was the loop marked `PARALLEL DO`?
    pub parallel: bool,
    /// Times the loop was entered.
    pub invocations: u64,
    /// Total iterations across invocations.
    pub iterations: u64,
    /// Observed carried dependences (input/read-read excluded).
    pub observed: usize,
    /// Races (non-empty only on parallel-marked loops).
    pub races: Vec<RaceFinding>,
    /// Static carried edges that never materialized, each naming the
    /// responsible variable and (for arrays) the section analysis' reason.
    pub unobserved: Vec<UnobservedEdge>,
    /// User-rejected edges the run never contradicted.
    pub validated: Vec<DepKey>,
}

/// Whole-program cross-check: one entry per *executed* loop.
#[derive(Debug, Clone, Default)]
pub struct ValidationReport {
    /// Per-loop results, program order.
    pub loops: Vec<LoopValidation>,
    /// Total observed carried dependences.
    pub observed_deps: usize,
    /// Total static carried edges never observed (conservatism measure).
    pub static_unobserved: usize,
    /// Total user deletions the run supported.
    pub validated_deletions: usize,
}

impl ValidationReport {
    /// All races across all loops.
    pub fn races(&self) -> impl Iterator<Item = &RaceFinding> {
        self.loops.iter().flat_map(|l| l.races.iter())
    }

    /// Number of observed races.
    pub fn race_count(&self) -> usize {
        self.loops.iter().map(|l| l.races.len()).sum()
    }

    /// No races: every parallel-marked loop's shared accesses were
    /// dependence-free in this run.
    pub fn clean(&self) -> bool {
        self.race_count() == 0
    }

    /// Editor-pane text rendering.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let parallel = self.loops.iter().filter(|l| l.parallel).count();
        out.push_str(&format!(
            "shadow check: {} loops executed ({} parallel), {} observed carried deps\n",
            self.loops.len(),
            parallel,
            self.observed_deps
        ));
        for l in &self.loops {
            for r in &l.races {
                out.push_str(&format!(
                    "  RACE {}:{} var {} {} x{} dist {}..{} -- {}\n",
                    r.unit, r.header, r.var, r.kind, r.count, r.min_dist, r.max_dist, r.verdict
                ));
            }
        }
        out.push_str(&format!(
            "  conservatism: {} static carried edges never observed\n",
            self.static_unobserved
        ));
        for l in &self.loops {
            for e in &l.unobserved {
                match &e.reason {
                    Some(r) => out.push_str(&format!(
                        "    {}:{} {} {} -- {}\n",
                        l.unit, l.header, e.kind, e.var, r
                    )),
                    None => out.push_str(&format!(
                        "    {}:{} {} {}\n",
                        l.unit, l.header, e.kind, e.var
                    )),
                }
            }
        }
        out.push_str(&format!(
            "  validated deletions: {}\n",
            self.validated_deletions
        ));
        out.push_str(if self.clean() { "verdict: clean\n" } else { "verdict: RACES\n" });
        out
    }
}

/// Name-level kind match between an observed access pair and a static edge.
fn kind_matches(obs: ObsKind, dep: DepKind) -> bool {
    matches!(
        (obs, dep),
        (ObsKind::True, DepKind::True)
            | (ObsKind::Anti, DepKind::Anti)
            | (ObsKind::Output, DepKind::Output)
            | (ObsKind::Input, DepKind::Input)
    )
}

impl Ped {
    /// Run the program once with the shadow logger on and cross-check every
    /// executed loop against its static graph. Folds a [`ValidationSummary`]
    /// into the session's profile (the report's `validation` section) when
    /// profiling is enabled.
    pub fn check(&mut self, config: ExecConfig) -> Result<ValidationReport, PedError> {
        self.check_logged(config).map(|(report, _, _)| report)
    }

    /// [`Ped::check`], but also returning the instrumented run's printed
    /// output and final main-unit memory. Shadow logging observes without
    /// perturbing results, so a serial-mode check run doubles as the
    /// bit-equality reference — the campaign engine validates and gets its
    /// reference execution from one run instead of two.
    #[allow(clippy::type_complexity)]
    pub fn check_logged(
        &mut self,
        config: ExecConfig,
    ) -> Result<(ValidationReport, ped_runtime::RunResult, ped_runtime::MemorySnapshot), PedError>
    {
        let mut cfg = config;
        cfg.shadow = true;
        let (mut result, memory) = self.run_with_memory(cfg)?;
        let log = result
            .shadow
            .take()
            .ok_or_else(|| PedError("shadow log missing from instrumented run".into()))?;
        let report = self.validate_log(&log)?;
        self.obs().record_validation(&ValidationSummary {
            checks: 1,
            loops_checked: report.loops.len() as u64,
            races: report.race_count() as u64,
            observed_deps: report.observed_deps as u64,
            static_unobserved: report.static_unobserved as u64,
            validated_deletions: report.validated_deletions as u64,
        });
        Ok((report, result, memory))
    }

    /// Cross-check an already-collected shadow log (so tests and benches
    /// can validate logs from runs they configured themselves).
    pub fn validate_log(&mut self, log: &ShadowLog) -> Result<ValidationReport, PedError> {
        let mut report = ValidationReport::default();
        for unit_idx in 0..self.program().units.len() {
            let headers: Vec<StmtId> =
                self.loops(unit_idx).into_iter().map(|(h, _)| h).collect();
            for header in headers {
                let unit_name = self.program().units[unit_idx].name.clone();
                let Some(obs) = log.loops.get(&(unit_name.clone(), header)) else {
                    continue; // never executed: nothing to validate
                };
                let graph = self.graph(unit_idx, header)?;
                let unit = &self.program().units[unit_idx];
                let dl = unit.loop_of(header);
                let parallel = dl.parallel.is_some();
                // Accesses masked at run time never reach the log: the loop
                // variable plus every clause variable. Static edges on those
                // names are *expected* to go unobserved.
                let mut masked: HashSet<String> = HashSet::new();
                masked.insert(unit.symbols.name(dl.var).to_string());
                if let Some(info) = &dl.parallel {
                    for &s in info.private.iter().chain(&info.lastprivate) {
                        masked.insert(unit.symbols.name(s).to_string());
                    }
                    for &(_, s) in &info.reductions {
                        masked.insert(unit.symbols.name(s).to_string());
                    }
                }
                let carried: Vec<&Dependence> = graph.carried().collect();
                let statuses: Vec<DepStatus> =
                    carried.iter().map(|d| self.status(unit_idx, d)).collect();
                let dep_name = |d: &Dependence| {
                    d.var.map(|s| unit.symbols.name(s).to_string())
                };

                let mut lv = LoopValidation {
                    unit: unit_name,
                    unit_idx,
                    header,
                    parallel,
                    invocations: obs.invocations,
                    iterations: obs.iterations,
                    observed: 0,
                    races: Vec::new(),
                    unobserved: Vec::new(),
                    validated: Vec::new(),
                };

                // Soundness: each observed carried dependence (reads-only
                // pairs excluded) on a parallel-marked loop is a race;
                // classify why the system allowed it.
                for ((var, kind), stat) in &obs.carried {
                    if *kind == ObsKind::Input {
                        continue;
                    }
                    lv.observed += 1;
                    if !parallel {
                        continue;
                    }
                    let matching: Vec<usize> = carried
                        .iter()
                        .enumerate()
                        .filter(|(_, d)| {
                            dep_name(d).as_deref() == Some(var.as_str())
                                && kind_matches(*kind, d.kind)
                        })
                        .map(|(i, _)| i)
                        .collect();
                    let key_of = |d: &Dependence| DepKey {
                        unit: unit_idx,
                        src: d.src,
                        dst: d.dst,
                        var: d.var,
                        kind: d.kind,
                    };
                    let active_blocking = matching.iter().find(|&&i| {
                        statuses[i] != DepStatus::Rejected && carried[i].blocks_parallel()
                    });
                    let rejected =
                        matching.iter().find(|&&i| statuses[i] == DepStatus::Rejected);
                    // A private *array* cell is watched in true-only mode:
                    // an observed carried flow through it means the
                    // privatization itself was wrong (its static edges
                    // were dropped on the clause's authority, so no
                    // matching edge exists to pin it on).
                    let private_array = dl.parallel.as_ref().is_some_and(|info| {
                        unit.symbols.lookup(var).is_some_and(|s| {
                            unit.symbols.sym(s).is_array() && info.private.contains(&s)
                        })
                    });
                    // A blocking edge on an array the section analysis
                    // itself proved privatizable means the private clause
                    // was dropped, not that the user overrode the
                    // analysis — the fix is restoring the clause.
                    let privatizable_array = unit
                        .symbols
                        .lookup(var)
                        .and_then(|s| graph.array_classes.get(&s))
                        .is_some_and(|c| c.privatizable);
                    let verdict = if let Some(&i) = active_blocking {
                        if privatizable_array && !private_array {
                            RaceVerdict::MissingClause
                        } else {
                            RaceVerdict::ForcedParallel(key_of(carried[i]))
                        }
                    } else if let Some(&i) = rejected {
                        RaceVerdict::ContradictsDeletion(key_of(carried[i]))
                    } else if private_array {
                        RaceVerdict::InvalidArrayPrivatization
                    } else {
                        let clause_class = unit
                            .symbols
                            .lookup(var)
                            .and_then(|s| graph.scalar_classes.get(&s));
                        match clause_class {
                            Some(
                                ped_analysis::scalars::ScalarClass::Private { .. }
                                | ped_analysis::scalars::ScalarClass::Reduction(_),
                            ) => RaceVerdict::MissingClause,
                            _ => RaceVerdict::MissedByAnalysis,
                        }
                    };
                    lv.races.push(RaceFinding {
                        unit: lv.unit.clone(),
                        header,
                        var: var.clone(),
                        kind: *kind,
                        count: stat.count,
                        min_dist: stat.min_dist,
                        max_dist: stat.max_dist,
                        verdict,
                    });
                }

                // Conservatism and validated deletions: walk the static
                // carried edges and ask whether the run ever exhibited them.
                for (i, d) in carried.iter().enumerate() {
                    let Some(name) = dep_name(d) else { continue }; // control
                    if d.kind == DepKind::Input {
                        continue;
                    }
                    let observed = obs
                        .carried
                        .keys()
                        .any(|(v, k)| v == &name && kind_matches(*k, d.kind));
                    if statuses[i] == DepStatus::Rejected {
                        if !observed {
                            lv.validated.push(DepKey {
                                unit: unit_idx,
                                src: d.src,
                                dst: d.dst,
                                var: d.var,
                                kind: d.kind,
                            });
                        }
                        continue;
                    }
                    // Induction/control/call edges and clause-masked names
                    // are invisible to the logger by construction — not
                    // evidence of conservatism.
                    if matches!(d.cause, DepCause::Induction | DepCause::Control | DepCause::Call)
                        || masked.contains(&name)
                    {
                        continue;
                    }
                    if !observed {
                        // Self-diagnosis: when the section pass analyzed
                        // this array but could not kill the edge, say why
                        // (kill-gap vs symbolic ⊤) with the sections.
                        let reason = d
                            .var
                            .and_then(|s| graph.array_classes.get(&s))
                            .and_then(|c| {
                                c.reason.map(|r| {
                                    format!(
                                        "{r}: exposed {}, kill {}",
                                        c.exposed_desc, c.kill_desc
                                    )
                                })
                            });
                        lv.unobserved.push(UnobservedEdge { var: name, kind: d.kind, reason });
                    }
                }

                report.observed_deps += lv.observed;
                report.static_unobserved += lv.unobserved.len();
                report.validated_deletions += lv.validated.len();
                report.loops.push(lv);
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{Assertion, Mark};
    use ped_runtime::{Engine, Machine, ParallelMode};
    use ped_transform::Xform;

    fn check_default(ped: &mut Ped) -> ValidationReport {
        ped.check(ExecConfig::default()).unwrap()
    }

    #[test]
    fn serial_recurrence_is_observed_not_a_race() {
        let mut ped = Ped::open(
            "program t\nreal a(50)\na(1) = 1.0\ndo i = 2, 50\na(i) = a(i-1) + 1.0\nenddo\nend\n",
        )
        .unwrap();
        let r = check_default(&mut ped);
        assert!(r.clean());
        // The recurrence on `a` plus the index's own write-write/read-write
        // pairs (a serial DO variable is an ordinary shared cell).
        assert_eq!(r.observed_deps, 3, "{r:?}");
        let lv = &r.loops[0];
        assert!(!lv.parallel);
        assert_eq!(lv.iterations, 49);
    }

    #[test]
    fn parallelized_independent_loop_is_clean() {
        let mut ped = Ped::open(
            "program t\nreal a(50), b(50)\ndo i = 1, 50\nb(i) = 2.0\nenddo\n\
             do i = 1, 50\na(i) = b(i)\nenddo\nend\n",
        )
        .unwrap();
        for (h, _) in ped.loops(0) {
            ped.apply(0, h, &Xform::Parallelize).unwrap();
        }
        let r = check_default(&mut ped);
        assert!(r.clean(), "{}", r.render_text());
        assert_eq!(r.observed_deps, 0);
    }

    #[test]
    fn contradicted_deletion_is_pinpointed() {
        // A gather through an index array with a duplicate entry: the user
        // asserts it is a permutation (wrongly), Ped deletes the pending
        // dependences, the loop parallelizes — and the checker catches the
        // lie, naming the deleted edge.
        let src = "program t\nreal a(50)\ninteger ind(50)\ndo i = 1, 50\nind(i) = i\nenddo\n\
            ind(7) = 3\ndo i = 1, 50\na(ind(i)) = a(ind(i)) + 1.0\nenddo\nend\n";
        let mut ped = Ped::open(src).unwrap();
        let scatter = ped.loops(0)[1].0;
        let ind = ped.program().units[0].symbols.lookup("ind").unwrap();
        let rejected =
            ped.assert_fact(Assertion::Permutation { unit: 0, array: ind }).unwrap();
        assert!(rejected > 0);
        ped.apply(0, scatter, &Xform::Parallelize).unwrap();
        let r = check_default(&mut ped);
        assert!(!r.clean());
        let race = r.races().next().unwrap();
        assert_eq!(race.var, "a");
        assert!(
            matches!(race.verdict, RaceVerdict::ContradictsDeletion(_)),
            "{:?}",
            race.verdict
        );
        // Every race on this loop traces back to the bad deletion, and only
        // the mutated loop is flagged.
        let flagged: Vec<_> = r.loops.iter().filter(|l| !l.races.is_empty()).collect();
        assert_eq!(flagged.len(), 1);
        assert_eq!(flagged[0].header, scatter);
    }

    #[test]
    fn valid_permutation_deletions_are_validated() {
        let src = "program t\nreal a(50)\ninteger ind(50)\ndo i = 1, 50\nind(i) = 51 - i\nenddo\n\
            do i = 1, 50\na(ind(i)) = a(ind(i)) + 1.0\nenddo\nend\n";
        let mut ped = Ped::open(src).unwrap();
        let scatter = ped.loops(0)[1].0;
        let ind = ped.program().units[0].symbols.lookup("ind").unwrap();
        ped.assert_fact(Assertion::Permutation { unit: 0, array: ind }).unwrap();
        ped.apply(0, scatter, &Xform::Parallelize).unwrap();
        let r = check_default(&mut ped);
        assert!(r.clean(), "{}", r.render_text());
        assert!(r.validated_deletions > 0, "{r:?}");
    }

    #[test]
    fn stripped_private_clause_is_diagnosed() {
        let mut ped = Ped::open(
            "program t\nreal a(50), t1\ndo i = 1, 50\nt1 = i * 2.0\na(i) = t1\nenddo\nend\n",
        )
        .unwrap();
        let h = ped.loops(0)[0].0;
        ped.apply(0, h, &Xform::Parallelize).unwrap();
        assert!(ped.source().contains("private(t1)"), "{}", ped.source());
        // Mutation: re-edit the unit with the clause stripped but the loop
        // still marked parallel.
        let mutated = ped.source().replace(" private(t1)", "");
        ped.edit_unit("t", &mutated).unwrap();
        let r = check_default(&mut ped);
        assert!(!r.clean());
        let race = r.races().next().unwrap();
        assert_eq!(race.var, "t1");
        assert_eq!(race.verdict, RaceVerdict::MissingClause);
    }

    #[test]
    fn forced_parallelization_is_reported() {
        let mut ped = Ped::open(
            "program t\nreal a(50)\na(1) = 1.0\ndo i = 2, 50\na(i) = a(i-1) + 1.0\nenddo\nend\n",
        )
        .unwrap();
        let h = ped.loops(0)[0].0;
        // The user overrides safety (diagnose would refuse; apply allows).
        ped.apply(0, h, &Xform::Parallelize).unwrap();
        let r = check_default(&mut ped);
        assert!(!r.clean());
        assert!(r
            .races()
            .any(|f| matches!(f.verdict, RaceVerdict::ForcedParallel(_))));
    }

    #[test]
    fn conservative_pending_edge_counts_as_unobserved() {
        // A gather through an index array with no permutation assertion:
        // the static analysis keeps pending carried dependences on `a`, but
        // at run time `ind` is a permutation, so they never materialize.
        let src = "program t\nreal a(50)\ninteger ind(50)\ndo i = 1, 50\nind(i) = 51 - i\nenddo\n\
            do i = 1, 50\na(ind(i)) = a(ind(i)) + 1.0\nenddo\nend\n";
        let mut ped = Ped::open(src).unwrap();
        let r = check_default(&mut ped);
        assert!(r.clean());
        assert!(r.static_unobserved > 0, "{r:?}");
        let scatter = ped.loops(0)[1].0;
        let lv = r.loops.iter().find(|l| l.header == scatter).unwrap();
        assert!(lv.unobserved.iter().any(|e| e.var == "a"), "{:?}", lv.unobserved);
    }

    #[test]
    fn partial_kill_conservatism_names_array_and_reason() {
        // The w(32) element survives the per-iteration overwrite [1:31]:
        // the static carried flow stays, the run (where w(32) is only the
        // stale zero) never exhibits it… and the report must say which
        // array and why the section analysis kept the edge.
        let src = "program t\nreal w(32), a(16,32)\ndo is = 1, 16\ndo ip = 1, 31\n\
             w(ip) = real(is + ip)\nenddo\ndo ip = 1, 32\na(is,ip) = w(ip)\nenddo\n\
             enddo\nprint *, a(1,1)\nend\n";
        let mut ped = Ped::open(src).unwrap();
        let r = check_default(&mut ped);
        assert!(r.clean(), "{}", r.render_text());
        let edge = r
            .loops
            .iter()
            .flat_map(|l| l.unobserved.iter())
            .find(|e| e.var == "w")
            .unwrap_or_else(|| panic!("{}", r.render_text()));
        let reason = edge.reason.as_deref().unwrap();
        assert!(reason.contains("kill-gap"), "{reason}");
        assert!(r.render_text().contains("kill-gap"), "{}", r.render_text());
    }

    #[test]
    fn array_privatization_validates_clean() {
        // The slab2d shape: w fully overwritten per is-iteration. The
        // section analysis privatizes it, the loop parallelizes, and the
        // shadow check observes nothing on w in any mode.
        let src = "program t\nreal w(32), a(16,32)\ndo is = 1, 16\ndo ip = 1, 32\n\
             w(ip) = real(is + ip)\nenddo\ndo ip = 1, 32\na(is,ip) = w(ip)\nenddo\n\
             enddo\nprint *, a(7,7)\nend\n";
        let mut ped = Ped::open(src).unwrap();
        let h = ped.loops(0)[0].0;
        let w = ped.program().units[0].symbols.lookup("w").unwrap();
        let d = ped.diagnose(0, h, &Xform::ArrayPrivatize { var: w }).unwrap();
        assert!(d.ok(), "{d:?}");
        ped.apply(0, h, &Xform::ArrayPrivatize { var: w }).unwrap();
        let r = check_default(&mut ped);
        assert!(r.clean(), "{}", r.render_text());
        let lv = r.loops.iter().find(|l| l.header == h).unwrap();
        assert!(lv.parallel);
        assert!(lv.unobserved.iter().all(|e| e.var != "w"), "{:?}", lv.unobserved);
    }

    #[test]
    fn forced_partial_kill_privatization_is_caught() {
        // Mutation test: the kill analysis rejects privatizing w (the
        // w(32) element carries real flow), the user forces the clause
        // anyway — the true-only shadow watch must surface the carried
        // flow as an InvalidArrayPrivatization race, however the checked
        // run is scheduled and whichever engine runs it.
        let src = "program t\nreal w(32), a(16,32)\ndo is = 1, 16\ndo ip = 1, 31\n\
             w(ip) = real(is + ip)\nenddo\ndo ip = 1, 32\na(is,ip) = w(ip)\nenddo\n\
             w(32) = w(1)\nenddo\nprint *, a(1,1)\nend\n";
        let mut ped = Ped::open(src).unwrap();
        let h = ped.loops(0)[0].0;
        let w = ped.program().units[0].symbols.lookup("w").unwrap();
        let d = ped.diagnose(0, h, &Xform::ArrayPrivatize { var: w }).unwrap();
        assert!(!d.ok(), "diagnose must reject the partial kill: {d:?}");
        ped.apply(0, h, &Xform::ArrayPrivatize { var: w }).unwrap();
        let modes = [
            ParallelMode::Serial,
            ParallelMode::Simulate(Machine::with_procs(4)),
            ParallelMode::Threads(2),
        ];
        for engine in [Engine::Bytecode, Engine::Tree] {
            for mode in modes {
                let r = ped.check(ExecConfig { mode, engine, ..ExecConfig::default() }).unwrap();
                let sub = format!("{engine} {mode:?}");
                assert!(!r.clean(), "{sub}: {}", r.render_text());
                let race = r.races().find(|f| f.var == "w");
                let race = race.unwrap_or_else(|| panic!("{sub}: {}", r.render_text()));
                assert_eq!(race.kind, ObsKind::True, "{sub}");
                assert_eq!(race.verdict, RaceVerdict::InvalidArrayPrivatization, "{sub}");
            }
        }
    }

    #[test]
    fn check_feeds_profile_validation_section() {
        let mut ped = Ped::open_profiled(
            "program t\nreal a(50)\na(1) = 1.0\ndo i = 2, 50\na(i) = a(i-1) + 1.0\nenddo\nend\n",
        )
        .unwrap();
        ped.check(ExecConfig::default()).unwrap();
        let report = ped.profile_report();
        assert_eq!(report.validation.checks, 1);
        assert_eq!(report.validation.loops_checked, 1);
        assert_eq!(report.validation.observed_deps, 3);
        assert_eq!(report.validation.races, 0);
        let text = report.render_text();
        assert!(text.contains("validation:"), "{text}");
    }

    #[test]
    fn accepted_pending_edge_on_parallel_loop_is_forced_not_missed() {
        // Accepting (rather than rejecting) a pending dependence and then
        // force-parallelizing must classify as ForcedParallel.
        let src = "program t\nreal a(50)\ninteger ind(50)\ndo i = 1, 50\nind(i) = i\nenddo\n\
            ind(7) = 3\ndo i = 1, 50\na(ind(i)) = a(ind(i)) + 1.0\nenddo\nend\n";
        let mut ped = Ped::open(src).unwrap();
        let scatter = ped.loops(0)[1].0;
        let blocking: Vec<usize> = {
            let g = ped.graph(0, scatter).unwrap();
            g.blocking().iter().map(|d| d.id).collect()
        };
        for id in blocking {
            ped.mark(0, scatter, id, Mark::Accepted).unwrap();
        }
        ped.apply(0, scatter, &Xform::Parallelize).unwrap();
        let r = check_default(&mut ped);
        assert!(!r.clean());
        assert!(r.races().all(|f| matches!(f.verdict, RaceVerdict::ForcedParallel(_))));
    }
}
