//! Mutation and property tests for the shadow-runtime dependence validator.
//!
//! The mutation harness is the proof that [`ped_core::Ped::check`] catches
//! *real* races: for suite programs we undo exactly one enabling ingredient
//! of a correct parallelization — drop a privatization clause, break a
//! reduction clause, make a user-deleted dependence real again — and assert
//! the checker flags exactly the mutated loop with the right verdict.
//!
//! The property tests pin the soundness side: auto-parallelizer-accepted
//! loops are checker-clean on generated programs, every observed carried
//! dependence under serial execution is accounted for by the static
//! analysis (an edge or a scalar classification), and the shadow log is
//! bit-identical between serial and threaded execution.

use ped_bench::apply_suite_assertions;
use ped_core::{autoparallelize, Ped, RaceVerdict, ValidationReport};
use ped_runtime::{ExecConfig, Machine, ObsKind, ParallelMode};
use ped_workloads::generator::{gen_source, GenConfig};
use ped_workloads::{all_programs, racy};

/// Open a suite program, apply its documented user assertions, and convert
/// every provably-parallel loop — the workshop workflow.
fn parallelized(name: &str, source: &str) -> Ped {
    let mut ped = Ped::open(source).unwrap();
    apply_suite_assertions(&mut ped, name);
    assert!(autoparallelize(&mut ped) > 0, "{name}: nothing parallelized");
    ped
}

fn check(ped: &mut Ped) -> ValidationReport {
    ped.check(ExecConfig::default()).unwrap()
}

/// Remove the first `kind(...)` clause from a `parallel do` header and
/// return the mutated source plus the variable names the clause covered.
fn strip_first_clause(src: &str, kind: &str) -> Option<(String, Vec<String>)> {
    let needle = format!(" {kind}(");
    let p = src.find(&needle)?;
    let close = p + src[p..].find(')')?;
    let inner = &src[p + needle.len()..close];
    let vars: Vec<String> = inner
        .split(',')
        .map(|v| v.rsplit(':').next().unwrap().trim().to_string())
        .collect();
    let mut out = String::with_capacity(src.len());
    out.push_str(&src[..p]);
    out.push_str(&src[close + 1..]);
    Some((out, vars))
}

fn flagged_loops(r: &ValidationReport) -> Vec<&ped_core::LoopValidation> {
    r.loops.iter().filter(|l| !l.races.is_empty()).collect()
}

#[test]
fn parallelized_suite_is_checker_clean() {
    for w in all_programs() {
        let mut ped = parallelized(w.name, w.source);
        let r = check(&mut ped);
        assert!(r.clean(), "{}:\n{}", w.name, r.render_text());
        assert!(
            r.loops.iter().any(|l| l.parallel),
            "{}: no parallel loop executed",
            w.name
        );
    }
}

/// The onedim narrative with a falsified assertion: a duplicate index makes
/// the user's permutation claim a lie, the deleted dependences are real,
/// and the checker pinpoints the contradicted deletion on exactly the
/// scatter loop.
#[test]
fn duplicate_index_contradicts_the_permutation_deletion() {
    let src = racy::onedim_duplicate_index();
    let mut ped = Ped::open(&src).unwrap();
    let rejected = apply_suite_assertions(&mut ped, "onedim");
    assert!(rejected > 0, "the (false) permutation assertion deletes pending deps");
    autoparallelize(&mut ped);
    assert!(ped.source().contains("parallel do"));
    let r = check(&mut ped);
    assert!(!r.clean(), "duplicate index must race:\n{}", r.render_text());
    let flagged = flagged_loops(&r);
    assert_eq!(flagged.len(), 1, "exactly the scatter loop:\n{}", r.render_text());
    for f in &flagged[0].races {
        assert_eq!(f.var, "a");
        assert!(
            matches!(f.verdict, RaceVerdict::ContradictsDeletion(_)),
            "verdict must name the deleted edge: {:?}",
            f.verdict
        );
    }
}

/// Control: with the genuine (valid) index array the same session is clean
/// and the deletions are *validated* by the run.
#[test]
fn valid_onedim_deletions_are_validated_not_contradicted() {
    let mut ped =
        parallelized("onedim", ped_workloads::program_by_name("onedim").unwrap().source);
    let r = check(&mut ped);
    assert!(r.clean(), "{}", r.render_text());
    assert!(r.validated_deletions > 0, "{r:?}");
}

/// Per suite program: drop the first privatization clause from the
/// parallelized text and assert the checker flags exactly that loop, with
/// the missing-clause verdict on exactly the un-privatized variables.
#[test]
fn stripped_privatization_is_flagged_per_program() {
    let mut tested = 0;
    for w in all_programs() {
        let ped = parallelized(w.name, w.source);
        let Some((mutated, vars)) = strip_first_clause(&ped.source(), "private") else {
            continue;
        };
        tested += 1;
        let mut mp = Ped::open(&mutated).unwrap();
        let r = check(&mut mp);
        assert!(!r.clean(), "{}: stripped private must race", w.name);
        let flagged = flagged_loops(&r);
        assert_eq!(
            flagged.len(),
            1,
            "{}: exactly the mutated loop:\n{}",
            w.name,
            r.render_text()
        );
        for f in &flagged[0].races {
            assert!(
                vars.contains(&f.var),
                "{}: race on {} not in stripped {vars:?}",
                w.name,
                f.var
            );
            assert_eq!(f.verdict, RaceVerdict::MissingClause, "{}: {:?}", w.name, f.verdict);
        }
    }
    assert!(tested >= 5, "only {tested} programs had a private clause");
}

/// Per suite program: break the first reduction clause the same way.
#[test]
fn broken_reduction_is_flagged_per_program() {
    let mut tested = 0;
    for w in all_programs() {
        let ped = parallelized(w.name, w.source);
        let Some((mutated, vars)) = strip_first_clause(&ped.source(), "reduction") else {
            continue;
        };
        tested += 1;
        let mut mp = Ped::open(&mutated).unwrap();
        let r = check(&mut mp);
        assert!(!r.clean(), "{}: broken reduction must race", w.name);
        let flagged = flagged_loops(&r);
        assert_eq!(
            flagged.len(),
            1,
            "{}: exactly the mutated loop:\n{}",
            w.name,
            r.render_text()
        );
        for f in &flagged[0].races {
            assert!(
                vars.contains(&f.var),
                "{}: race on {} not in stripped {vars:?}",
                w.name,
                f.var
            );
            assert_eq!(f.verdict, RaceVerdict::MissingClause, "{}: {:?}", w.name, f.verdict);
        }
    }
    assert!(tested >= 8, "only {tested} programs had a reduction clause");
}

/// Property: every loop the auto-parallelizer accepts on generated
/// programs is checker-clean — static safety implies observed safety.
#[test]
fn autoparallelized_generated_programs_are_clean() {
    for seed in 0..10 {
        let src = gen_source(GenConfig {
            seed,
            extent: 24,
            units: 2,
            loops_per_unit: 4,
            stmts_per_loop: 3,
        });
        let mut ped = Ped::open(&src).unwrap();
        autoparallelize(&mut ped);
        let r = check(&mut ped);
        assert!(r.clean(), "seed {seed}:\n{}", r.render_text());
    }
}

/// Property: under serial execution, every observed carried dependence is
/// accounted for statically — by a matching carried edge or by the scalar
/// classification (privatizable/reduction/induction scalars get a class
/// instead of edges). Loops with interprocedural (call) edges are skipped:
/// their observations carry callee-local names.
#[test]
fn observed_deps_are_covered_by_static_analysis_under_serial() {
    for seed in 0..10 {
        let src = gen_source(GenConfig {
            seed,
            extent: 24,
            units: 2,
            loops_per_unit: 4,
            stmts_per_loop: 3,
        });
        let mut ped = Ped::open(&src).unwrap();
        let cfg = ExecConfig { shadow: true, ..ExecConfig::default() };
        let log = ped.run(cfg).unwrap().shadow.expect("shadow on");
        for ((uname, stmt), obs) in &log.loops {
            let ui = ped.unit_index(uname).unwrap();
            let g = ped.graph(ui, *stmt).unwrap();
            if g.carried().any(|d| matches!(d.cause, ped_dep::DepCause::Call)) {
                continue;
            }
            for (var, kind) in obs.carried.keys() {
                if *kind == ObsKind::Input {
                    continue;
                }
                let unit = &ped.program().units[ui];
                let edge = g.carried().any(|d| {
                    d.var.map(|s| unit.symbols.name(s)) == Some(var.as_str())
                        && d.kind.to_string() == kind.name()
                });
                let classified = unit
                    .symbols
                    .lookup(var)
                    .and_then(|s| g.scalar_classes.get(&s))
                    .is_some_and(|c| !matches!(c, ped_analysis::scalars::ScalarClass::Shared));
                assert!(
                    edge || classified,
                    "seed {seed} loop {uname}:{stmt}: observed ({var}, {kind}) \
                     has neither a static edge nor a scalar class"
                );
            }
        }
    }
}

/// Property: the shadow log is bit-identical between serial execution,
/// the worker pool at 2 and 4 threads, and the 4-processor simulator, for
/// every parallelized suite program — observation must not depend on the
/// execution mode.
#[test]
fn shadow_log_agrees_between_serial_and_threads_across_suite() {
    let modes = [
        ParallelMode::Threads(2),
        ParallelMode::Threads(4),
        ParallelMode::Simulate(Machine::with_procs(4)),
    ];
    for w in all_programs() {
        let ped = parallelized(w.name, w.source);
        let cfg = ExecConfig { shadow: true, ..ExecConfig::default() };
        let serial = ped.run(cfg).unwrap().shadow.expect("shadow on");
        assert!(!serial.loops.is_empty(), "{}", w.name);
        for mode in modes {
            let log = ped
                .run(ExecConfig { mode, ..cfg })
                .unwrap()
                .shadow
                .expect("shadow on");
            assert_eq!(serial, log, "{} diverges under {mode:?}", w.name);
        }
    }
}

/// Property: programs whose loops parallelize via `ArrayPrivatize` print
/// bit-identical output across both engines, serial and 1/2/4-thread
/// execution, and every schedule — the per-worker private array copies
/// must be invisible to the program. slab2d (the motivating workspace
/// program) plus generated workspace-kill programs are the subjects.
#[test]
fn array_privatized_loops_are_bit_identical_across_engines_modes_schedules() {
    use ped_runtime::{Engine, Schedule};
    let mut subjects: Vec<(String, String)> = Vec::new();

    let slab = ped_workloads::program_by_name("slab2d").unwrap();
    let ped = parallelized("slab2d", slab.source);
    let src = ped.source();
    let clause = src.lines().find(|l| l.contains("private(")).unwrap_or("");
    assert!(
        clause.contains('w'),
        "slab2d's workspace array must land in a private clause: {src}"
    );
    subjects.push(("slab2d".into(), src));

    for seed in [1u64, 3, 5] {
        let gsrc = gen_source(GenConfig {
            seed,
            extent: 12,
            units: 2,
            loops_per_unit: 6,
            stmts_per_loop: 2,
        });
        let mut ped = Ped::open(&gsrc).unwrap();
        autoparallelize(&mut ped);
        subjects.push((format!("gen-{seed}"), ped.source()));
    }
    assert!(
        subjects.iter().any(|(_, s)| {
            s.lines().any(|l| l.contains("private(") && l.contains('w'))
        }),
        "at least one subject must privatize the workspace array"
    );

    for (name, src) in &subjects {
        let base = ped_runtime::interp::run_source(src, ExecConfig::default())
            .unwrap()
            .printed;
        for engine in [Engine::Bytecode, Engine::Tree] {
            for mode in [
                ParallelMode::Serial,
                ParallelMode::Threads(1),
                ParallelMode::Threads(2),
                ParallelMode::Threads(4),
            ] {
                for schedule in [Schedule::Static, Schedule::Dynamic(3), Schedule::Guided] {
                    let cfg = ExecConfig {
                        mode,
                        engine,
                        schedule,
                        ..ExecConfig::default()
                    };
                    let r = ped_runtime::interp::run_source(src, cfg).unwrap();
                    assert_eq!(
                        base, r.printed,
                        "{name}: output diverged under {engine:?}/{mode:?}/{schedule:?}"
                    );
                }
            }
        }
    }
}

/// Shadow-off runs carry no log and behave identically: same printed
/// output as a shadow-on run (the logger must be observation-only).
#[test]
fn shadow_logging_is_observation_only() {
    for w in all_programs() {
        let ped = Ped::open(w.source).unwrap();
        let plain = ped.run(ExecConfig::default()).unwrap();
        assert!(plain.shadow.is_none());
        let shadowed =
            ped.run(ExecConfig { shadow: true, ..ExecConfig::default() }).unwrap();
        assert_eq!(plain.printed, shadowed.printed, "{}", w.name);
        assert!(shadowed.shadow.is_some());
    }
}

