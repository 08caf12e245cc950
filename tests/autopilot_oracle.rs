//! End-to-end oracle for the autopilot planner.
//!
//! Every plan the planner applies must be *observationally invisible*:
//! bit-identical printed output and final memory against the
//! untransformed program's serial run, across both engines,
//! Serial/Threads{1,2,4}, and every schedule — and the transformed
//! program must exit the shadow check clean. Every plan the planner
//! merely *tries* (advisory `suggest`, verification-rejected winners)
//! must leave the session exactly as the search found it: same source,
//! same canonical dependence graphs, an empty undo/redo journal.

use ped_core::equiv::{compare, unspecified_privates};
use ped_core::{AutopilotConfig, Ped};
use ped_runtime::{interp, Engine, ExecConfig, ParallelMode, Schedule};
use ped_workloads::generator::{gen_source, GenConfig};

fn tree(config: ExecConfig) -> ExecConfig {
    ExecConfig { engine: Engine::Tree, ..config }
}

fn bytecode(config: ExecConfig) -> ExecConfig {
    ExecConfig { engine: Engine::Bytecode, ..config }
}

/// Serial plus Threads{1,2,4} × {static, dynamic, guided}.
fn all_modes() -> Vec<ExecConfig> {
    let mut configs = vec![ExecConfig::default()];
    for threads in [1usize, 2, 4] {
        for schedule in [Schedule::Static, Schedule::Dynamic(3), Schedule::Guided] {
            configs.push(ExecConfig {
                mode: ParallelMode::Threads(threads),
                schedule,
                ..ExecConfig::default()
            });
        }
    }
    configs
}

/// The tentpole property: over ≥20 generated seeds, every
/// autopilot-applied plan is bit-identical to the untransformed serial
/// run under both engines × Serial/Threads{1,2,4} × all schedules, and
/// the transformed program exits the shadow check clean. Undoing every
/// applied plan restores the original source, and the session's
/// incremental graphs match a fresh analysis at every point.
#[test]
fn autopilot_plans_are_bit_identical_over_generated_seeds() {
    let mut applied_total = 0u64;
    for seed in 0u64..22 {
        let src = gen_source(GenConfig {
            units: 2,
            loops_per_unit: 4,
            stmts_per_loop: 3,
            extent: 24,
            seed,
        });
        let label = format!("seed {seed}");
        // The oracle: the UNTRANSFORMED program, serial, tree walker.
        let reference = interp::run_source_with_memory(&src, tree(ExecConfig::default()))
            .unwrap_or_else(|e| panic!("{label}: reference run: {e}"));

        let mut ped = Ped::open(&src).unwrap();
        let out = ped_core::autopilot(&mut ped, &AutopilotConfig::default());
        applied_total += out.stats.plans_applied;
        assert!(out.notes.is_empty(), "{label}: {:?}", out.notes);

        let transformed = ped.source();
        let privates = unspecified_privates(ped.program());
        for config in all_modes() {
            // Serial runs must match every variable; parallel runs leave
            // the clause-unspecified privates free.
            let skip: &[String] =
                if matches!(config.mode, ParallelMode::Serial) { &[] } else { &privates };
            for (engine_name, cfg) in [("tree", tree(config)), ("bytecode", bytecode(config))] {
                let sub = format!("{label}: {engine_name} {:?}/{}", cfg.mode, cfg.schedule);
                let run = interp::run_source_with_memory(&transformed, cfg)
                    .unwrap_or_else(|e| panic!("{sub}: {e}"));
                if let Err(d) = compare(&reference, &run, skip) {
                    panic!("{sub}: {d}");
                }
            }
        }

        // `--check` clean on the transformed program.
        let report = ped
            .check(ExecConfig::default())
            .unwrap_or_else(|e| panic!("{label}: shadow check: {e}"));
        assert!(report.clean(), "{label}: shadow check found races after autopilot");
        ped_core::equiv::assert_matches_fresh(&mut ped, &label);

        // The journal holds exactly the applied plans: undoing them all
        // restores the original program.
        let mut undone = 0;
        while ped.undo() {
            undone += 1;
            assert!(undone <= 64, "{label}: runaway undo journal");
        }
        assert_eq!(
            ped.source(),
            Ped::open(&src).unwrap().source(),
            "{label}: undoing every applied plan must restore the original program"
        );
        if out.stats.plans_applied > 0 {
            assert!(undone > 0, "{label}: applied plans must sit on the undo journal");
        }
        ped_core::equiv::assert_matches_fresh(&mut ped, &format!("{label} after undo"));
    }
    assert!(applied_total > 0, "the planner never applied a plan across 22 seeds");
}

/// Advisory search is free of side effects: over the same seeds,
/// `suggest` leaves source, canonical dependence graphs, and the
/// undo/redo journal exactly as found (a trial rollback may not leave a
/// redo entry a later `redo` could replay).
#[test]
fn suggest_round_trips_the_session_over_generated_seeds() {
    for seed in 0u64..22 {
        let src = gen_source(GenConfig {
            units: 2,
            loops_per_unit: 4,
            stmts_per_loop: 3,
            extent: 24,
            seed,
        });
        let label = format!("seed {seed}");
        let mut ped = Ped::open(&src).unwrap();
        let before_src = ped.source();
        let before_graphs = ped_core::equiv::canonical_graphs(&mut ped);
        let s = ped_core::suggest(&mut ped, &AutopilotConfig::default());
        assert_eq!(ped.source(), before_src, "{label}: suggest changed the program");
        assert_eq!(
            ped_core::equiv::canonical_graphs(&mut ped),
            before_graphs,
            "{label}: suggest changed the dependence graphs"
        );
        assert!(!ped.undo(), "{label}: suggest left an undo entry");
        assert!(!ped.redo(), "{label}: suggest left a redo entry");
        ped_core::equiv::assert_matches_fresh(&mut ped, &label);
        // The searches are real: across 22 seeds at least one nest must
        // have been looked at (checked per-seed below via stats).
        assert!(
            s.stats.candidates + s.stats.pruned_unsafe > 0 || s.nests.is_empty(),
            "{label}: nests present but nothing searched"
        );
    }
}

/// A verification rejection rolls the plan back completely. The nest is
/// a floating-point sum whose value depends on summation order with an
/// inner trip count far above the outer one, so the planner prefers
/// interchange-then-parallelize; interchange passes dependence legality
/// (the sum is a recognized reduction) but reorders the FP additions, so
/// bit-identity fails and the verify loop must reject the plan, naming
/// the printed line where the runs part and both values — leaving the
/// session graph-identical to pre-search.
#[test]
fn verification_rejects_fp_reordering_plans_and_rolls_back() {
    let src = "program fpsum\n\
        real s, x\n\
        integer i, j\n\
        s = 0.0\n\
        do i = 1, 3\n\
        do j = 1, 7000\n\
        x = 1.0 / (i * 1000.0 + j)\n\
        s = s + x\n\
        enddo\n\
        enddo\n\
        print *, s\n\
        end\n";
    let mut ped = Ped::open(src).unwrap();
    let before_src = ped.source();
    let before_graphs = ped_core::equiv::canonical_graphs(&mut ped);
    let out = ped_core::autopilot(&mut ped, &AutopilotConfig::default());
    let rejected = out.plans.iter().find(|p| !p.applied).expect("the reordering plan is rejected");
    for needle in ["printed line 0", "4.7867432419326414", "4.786743241932668"] {
        assert!(rejected.verdict.contains(needle), "{needle} missing: {}", rejected.verdict);
    }
    // Whatever the planner decided, the program it leaves behind must be
    // bit-identical to the original serial semantics.
    let (reference, _) = interp::run_source_with_memory(src, tree(ExecConfig::default())).unwrap();
    let (after, _) =
        interp::run_source_with_memory(&ped.source(), tree(ExecConfig::default())).unwrap();
    assert_eq!(reference.printed, after.printed, "autopilot broke bit-identity");
    if out.stats.plans_applied == 0 {
        // Nothing survived: the rejection path must have restored the
        // session exactly.
        assert_eq!(ped.source(), before_src, "rejected plan left residue: {out:?}");
        assert_eq!(
            ped_core::equiv::canonical_graphs(&mut ped),
            before_graphs,
            "rejected plan left the graphs changed"
        );
        assert!(!ped.redo(), "rejected plan left a redo entry");
    }
    ped_core::equiv::assert_matches_fresh(&mut ped, "fp reordering");
}
