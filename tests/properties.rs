//! Property-based tests on the core invariants.
//!
//! * **Conservativeness** — the dependence test suite must never claim
//!   independence when the brute-force oracle finds a dependence, and every
//!   realized direction vector must be covered by some reported vector.
//! * **Round-trip** — the pretty printer is a fixpoint under re-parsing.
//! * **Parallel semantics** — analysis-approved parallelization preserves
//!   interpreter-observable behavior on generated programs.
//!
//! The case generators are deterministic (seeded [`ped_workloads::rng`]),
//! so every run tests the same inputs: a failure here is reproducible by
//! running the named test again, and the failing case prints its own
//! construction parameters.

use ped_core::equiv::unspecified_privates;
use ped_dep::driver::test_pair;
use ped_dep::nest::{LoopCtx, NestCtx};
use ped_dep::oracle::{covers, enumerate_deps, OracleLoop};
use ped_fortran::{Expr, StmtId, SymId};
use ped_workloads::rng::Rng;
use std::collections::HashMap;

/// An affine subscript `c0 + c1·i [+ c2·j] [+ m]` over up to two index
/// variables (SymId 0, 1) and one symbolic (SymId 9), built exactly the way
/// real parsed subscripts look (explicit Mul/Add nodes, zero coefficients
/// included — the `Mul(Int(0), Var)` shape once hid a regression).
fn affine_subscript(depth: usize, c0: i64, c1: i64, c2: i64, with_sym: bool) -> Expr {
    let mut e = Expr::Int(c0);
    e = Expr::bin(
        ped_fortran::BinOp::Add,
        e,
        Expr::bin(ped_fortran::BinOp::Mul, Expr::Int(c1), Expr::Var(SymId(0))),
    );
    if depth > 1 {
        e = Expr::bin(
            ped_fortran::BinOp::Add,
            e,
            Expr::bin(ped_fortran::BinOp::Mul, Expr::Int(c2), Expr::Var(SymId(1))),
        );
    }
    if with_sym {
        e = Expr::bin(ped_fortran::BinOp::Add, e, Expr::Var(SymId(9)));
    }
    e
}

/// Draw the parameters of one random subscript: coefficients in `-3..=3`,
/// a coin flip for the symbolic term.
fn draw_subscript(rng: &mut Rng, depth: usize) -> (Expr, (i64, i64, i64, bool)) {
    let c0 = rng.range(0, 7) as i64 - 3;
    let c1 = rng.range(0, 7) as i64 - 3;
    let c2 = rng.range(0, 7) as i64 - 3;
    let with_sym = rng.range(0, 2) == 1;
    (affine_subscript(depth, c0, c1, c2, with_sym), (c0, c1, c2, with_sym))
}

fn make_nest(depth: usize, lo: i64, hi: i64) -> NestCtx<'static> {
    NestCtx {
        loops: (0..depth as u32)
            .map(|v| LoopCtx {
                header: StmtId(v),
                var: SymId(v),
                lo: Some(ped_analysis::Affine::constant(lo)),
                hi: Some(ped_analysis::Affine::constant(hi)),
                lo_const: Some(lo),
                hi_const: Some(hi),
                step: Some(1),
            })
            .collect(),
        resolve: Box::new(|_| None),
    }
}

/// One conservativeness check: the driver vs the brute-force oracle with
/// the symbolic `m` fixed. Panics with the full case description.
fn check_conservative(depth: usize, hi: i64, src: &Expr, sink: &Expr, m: i64, label: &str) {
    let nest = make_nest(depth, 1, hi);
    let outcome = test_pair(
        std::slice::from_ref(src),
        std::slice::from_ref(sink),
        &nest,
    );
    let mut syms = HashMap::new();
    syms.insert(SymId(9), m);
    let oracle_nest: Vec<OracleLoop> = (0..depth as u32)
        .map(|v| OracleLoop { var: SymId(v), lo: 1, hi, step: 1 })
        .collect();
    let oracle = enumerate_deps(
        std::slice::from_ref(src),
        std::slice::from_ref(sink),
        &oracle_nest,
        &syms,
    )
    .expect("affine always evaluates");
    if outcome.independent {
        assert!(
            oracle.is_empty(),
            "{label}: claimed independent but oracle found {oracle:?}\nsrc={src:?}\nsink={sink:?}\nm={m}"
        );
    } else {
        // Coverage is checked against the *unoriented* vectors (the
        // driver's source→sink perspective); orientation reverses some of
        // them for display only.
        let reported: Vec<ped_dep::DirVector> =
            outcome.vectors.iter().map(|v| v.dirs.clone()).collect();
        for real in &oracle {
            assert!(
                covers(&reported, real),
                "{label}: vector {real:?} not covered by {reported:?}\nsrc={src:?}\nsink={sink:?}\nm={m}"
            );
        }
    }
}

/// 1-deep nests: never claim independence against the oracle, and the
/// reported vectors cover every realized direction.
#[test]
fn dep_tests_conservative_1d() {
    let mut rng = Rng::seed_from_u64(0x1D);
    for case in 0..400 {
        let (src, sp) = draw_subscript(&mut rng, 1);
        let (sink, kp) = draw_subscript(&mut rng, 1);
        let m = rng.range(0, 5) as i64 - 2;
        check_conservative(1, 8, &src, &sink, m, &format!("case {case} {sp:?}/{kp:?}"));
    }
}

/// 2-deep nests (exercises GCD/Banerjee refinement).
#[test]
fn dep_tests_conservative_2d() {
    let mut rng = Rng::seed_from_u64(0x2D);
    for case in 0..400 {
        let (src, sp) = draw_subscript(&mut rng, 2);
        let (sink, kp) = draw_subscript(&mut rng, 2);
        let m = rng.range(0, 5) as i64 - 2;
        check_conservative(2, 5, &src, &sink, m, &format!("case {case} {sp:?}/{kp:?}"));
    }
}

/// Exhaustive sweep of the pure-coefficient 1-d space (no symbolic term):
/// small, so we can afford every combination rather than a sample.
#[test]
fn dep_tests_conservative_1d_exhaustive() {
    for c0s in -3i64..4 {
        for c1s in -3i64..4 {
            for c0k in -3i64..4 {
                for c1k in -3i64..4 {
                    let src = affine_subscript(1, c0s, c1s, 0, false);
                    let sink = affine_subscript(1, c0k, c1k, 0, false);
                    check_conservative(
                        1,
                        6,
                        &src,
                        &sink,
                        0,
                        &format!("exhaustive ({c0s},{c1s})/({c0k},{c1k})"),
                    );
                }
            }
        }
    }
}

/// Printer fixpoint over generated programs of random shape.
#[test]
fn printer_fixpoint_on_generated() {
    let mut rng = Rng::seed_from_u64(0xF1);
    for case in 0..40 {
        let seed = rng.range(0, 500);
        let units = rng.range(1, 5) as usize;
        let loops = rng.range(1, 6) as usize;
        let src = ped_workloads::generator::gen_source(ped_workloads::generator::GenConfig {
            units,
            loops_per_unit: loops,
            stmts_per_loop: 3,
            extent: 8,
            seed,
        });
        let p1 = ped_fortran::parse_program(&src).expect("generated source parses");
        let s1 = ped_fortran::print_program(&p1);
        let p2 = ped_fortran::parse_program(&s1).expect("printed source re-parses");
        let s2 = ped_fortran::print_program(&p2);
        assert_eq!(s1, s2, "case {case}: seed={seed} units={units} loops={loops}");
    }
}

/// Analysis-approved parallelization never changes program output
/// (simulated mode: deterministic) and passes the shadow race check.
#[test]
fn parallelization_preserves_semantics() {
    for seed in 0u64..24 {
        let src = ped_workloads::generator::gen_source(ped_workloads::generator::GenConfig {
            units: 2,
            loops_per_unit: 4,
            stmts_per_loop: 3,
            extent: 12,
            seed,
        });
        let serial = ped_runtime::interp::run_source(&src, ped_runtime::ExecConfig::default())
            .expect("generated programs run");
        let mut ped = ped_core::Ped::open(&src).unwrap();
        ped_core::autoparallelize(&mut ped);
        let sim = ped
            .run(ped_runtime::ExecConfig {
                mode: ped_runtime::ParallelMode::Simulate(ped_runtime::Machine::alliant8()),
                ..Default::default()
            })
            .unwrap();
        assert_eq!(serial.printed, sim.printed, "seed {seed}");
        let report = ped.check(ped_runtime::ExecConfig::default()).unwrap();
        assert!(
            report.clean(),
            "seed {seed} races:\n{}",
            report.render_text()
        );
    }
}

/// Serial, simulated, and threaded execution agree *exactly*: identical
/// printed output (full-precision float formatting, so string equality is
/// bit equality) and bit-identical final memory, across schedules and
/// thread counts — including float reductions, which the threaded runtime
/// recombines in serial iteration order.
#[test]
fn execution_modes_agree_bitwise() {
    use ped_runtime::{interp, ExecConfig, Machine, ParallelMode, Schedule};
    for seed in 0u64..10 {
        let src = ped_workloads::generator::gen_source(ped_workloads::generator::GenConfig {
            units: 2,
            loops_per_unit: 4,
            stmts_per_loop: 3,
            extent: 24,
            seed,
        });
        let mut ped = ped_core::Ped::open(&src).unwrap();
        let converted = ped_core::autoparallelize(&mut ped);
        let par_src = ped.source();
        let skip = unspecified_privates(ped.program());

        let (serial, serial_mem) =
            interp::run_source_with_memory(&par_src, ExecConfig::default())
                .expect("serial run succeeds");
        let serial_mem: Vec<_> =
            serial_mem.into_iter().filter(|(n, _)| !skip.contains(n)).collect();

        let mut configs = vec![ExecConfig {
            mode: ParallelMode::Simulate(Machine::with_procs(4)),
            ..ExecConfig::default()
        }];
        for threads in [1usize, 2, 4] {
            for schedule in [Schedule::Static, Schedule::Dynamic(3), Schedule::Guided] {
                configs.push(ExecConfig {
                    mode: ParallelMode::Threads(threads),
                    schedule,
                    ..ExecConfig::default()
                });
            }
        }
        for config in configs {
            let label = format!(
                "seed {seed} ({converted} parallel loops) under {:?}/{}",
                config.mode, config.schedule
            );
            let (r, mem) = interp::run_source_with_memory(&par_src, config)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(serial.printed, r.printed, "{label}: printed output diverged");
            let mem: Vec<_> = mem.into_iter().filter(|(n, _)| !skip.contains(n)).collect();
            assert_eq!(serial_mem, mem, "{label}: final memory diverged");
        }
    }
}

/// The oracle itself sanity-checks against hand calculations (fixed cases).
#[test]
fn oracle_hand_cases() {
    let nest = [OracleLoop { var: SymId(0), lo: 1, hi: 6, step: 1 }];
    // a(2i) vs a(i+3): 2I = J+3 → (I,J) ∈ {(2,1),(3,3),(4,5)}.
    let deps = enumerate_deps(
        &[Expr::bin(ped_fortran::BinOp::Mul, Expr::Int(2), Expr::Var(SymId(0)))],
        &[Expr::bin(ped_fortran::BinOp::Add, Expr::Var(SymId(0)), Expr::Int(3))],
        &nest,
        &HashMap::new(),
    )
    .unwrap();
    use ped_dep::vectors::Direction::*;
    let dirs: Vec<Vec<_>> = deps.iter().map(|d| d.dirs.clone()).collect();
    assert!(dirs.contains(&vec![Gt])); // (2,1)
    assert!(dirs.contains(&vec![Eq])); // (3,3)
    assert!(dirs.contains(&vec![Lt])); // (4,5)
}
