//! End-to-end integration tests across crates: the full Ped pipeline on
//! the evaluation suite and the program-specific capability claims that
//! Table 3 summarizes.

use ped_bench::{apply_suite_assertions, count_parallel_loops};
use ped_core::{autoparallelize, Assertion, Ped};
use ped_interproc::IpFlags;
use ped_runtime::{ExecConfig, Machine, ParallelMode};
use ped_workloads::{all_programs, program_by_name};

/// Serial, simulated-parallel, and threaded runs print identically for
/// every suite program after full parallelization: the merge replays
/// reductions in serial order, so threaded output is bit-identical.
#[test]
fn suite_parallel_execution_agrees_with_serial() {
    for w in all_programs() {
        let mut ped = Ped::open(w.source).unwrap();
        apply_suite_assertions(&mut ped, w.name);
        autoparallelize(&mut ped);
        let serial = ped.run(ExecConfig::default()).unwrap();
        let sim = ped
            .run(ExecConfig {
                mode: ParallelMode::Simulate(Machine::alliant8()),
                ..Default::default()
            })
            .unwrap();
        assert_eq!(serial.printed, sim.printed, "{}: simulate diverged", w.name);
        let thr = ped
            .run(ExecConfig { mode: ParallelMode::Threads(4), ..Default::default() })
            .unwrap();
        assert_eq!(serial.printed, thr.printed, "{}: threads diverged", w.name);
    }
}

/// The paper's nxsns claim: interprocedural KILL is what makes the loop
/// with the call parallelizable.
#[test]
fn nxsns_requires_interprocedural_kill() {
    let w = program_by_name("nxsns").unwrap();
    let mut full = Ped::open(w.source).unwrap();
    let with_kill = count_parallel_loops(&mut full);
    let mut nokill = Ped::open(w.source).unwrap();
    nokill.set_flags(IpFlags { kill: false, ..IpFlags::all() });
    let without = count_parallel_loops(&mut nokill);
    assert!(with_kill > without, "KILL must matter: {with_kill} vs {without}");
}

/// The spec77/gloop claim: regular sections parallelize loops around calls
/// that write a single column.
#[test]
fn sections_parallelize_call_loops() {
    for name in ["spec77", "gloop"] {
        let w = program_by_name(name).unwrap();
        let mut full = Ped::open(w.source).unwrap();
        let with_sections = count_parallel_loops(&mut full);
        let mut nosec = Ped::open(w.source).unwrap();
        nosec.set_flags(IpFlags { sections: false, ..IpFlags::all() });
        let without = count_parallel_loops(&mut nosec);
        assert!(with_sections > without, "{name}: sections must matter");
    }
}

/// The onedim claim: the index-array loop is blocked until the user
/// asserts the permutation, and the run-time checker validates the result.
#[test]
fn onedim_assertion_validated_by_race_detector() {
    let w = program_by_name("onedim").unwrap();
    let mut ped = Ped::open(w.source).unwrap();
    let scatter = ped.loops(0)[1].0;
    assert!(!ped.parallelizable(0, scatter).unwrap());
    let ind = ped.program().units[0].symbols.lookup("ind").unwrap();
    ped.assert_fact(Assertion::Permutation { unit: 0, array: ind }).unwrap();
    assert!(ped.parallelizable(0, scatter).unwrap());
    ped.apply(0, scatter, &ped_transform::Xform::Parallelize).unwrap();
    let report = ped
        .check(ExecConfig {
            mode: ParallelMode::Simulate(Machine::alliant8()),
            ..Default::default()
        })
        .unwrap();
    assert!(
        report.clean(),
        "the assertion was truthful:\n{}",
        report.render_text()
    );
}

/// A *false* assertion is caught by run-time dependence testing: mark the
/// recurrence's deps rejected by hand (lying), parallelize, and the shadow
/// check reports the conflict in serial and threaded runs alike.
#[test]
fn false_assertion_caught_by_race_detector() {
    let src = "program lie\nreal a(100)\ninteger ind(100)\ndo i = 1, 100\nind(i) = 1 + mod(i, 3)\n\
               enddo\ndo i = 1, 100\na(ind(i)) = a(ind(i)) + 1.0\nenddo\nprint *, a(1)\nend\n";
    let mut ped = Ped::open(src).unwrap();
    let scatter = ped.loops(0)[1].0;
    let ind = ped.program().units[0].symbols.lookup("ind").unwrap();
    // `ind` is NOT a permutation here — the user asserts it anyway.
    ped.assert_fact(Assertion::Permutation { unit: 0, array: ind }).unwrap();
    assert!(ped.parallelizable(0, scatter).unwrap());
    ped.apply(0, scatter, &ped_transform::Xform::Parallelize).unwrap();
    for mode in [ParallelMode::Serial, ParallelMode::Threads(2)] {
        let report = ped
            .check(ExecConfig {
                mode,
                ..Default::default()
            })
            .unwrap();
        assert!(!report.clean(), "the lie must be caught under {mode:?}");
        assert!(
            report.races().any(|r| r.var == "a"),
            "{}",
            report.render_text()
        );
    }
}

/// The arc3d claims: the symbolic-offset recurrence is *proven* (strong
/// SIV through cancelled symbolic terms), and the privatizable-scalar
/// sweep loops parallelize.
#[test]
fn arc3d_symbolic_and_kill_behavior() {
    let w = program_by_name("arc3d").unwrap();
    let mut ped = Ped::open(w.source).unwrap();
    let fu = ped.unit_index("filter").unwrap();
    let loops = ped.loops(fu);
    // First filter loop is parallel, the recurrence is not, and its
    // dependence is proven (exact symbolic cancellation).
    assert!(ped.parallelizable(fu, loops[0].0).unwrap());
    assert!(!ped.parallelizable(fu, loops[1].0).unwrap());
    let g = ped.graph(fu, loops[1].0).unwrap();
    assert!(g.blocking().iter().all(|d| d.proven), "symbolic terms must cancel exactly");
    // The k-sweep in the main program: plain parallelization is blocked
    // (the shared workspace carries real anti/output conflicts — the
    // paper's arc3d finding), but the interprocedural section kill
    // through `sweep` proves `work` privatizable, and ArrayPrivatize
    // converts the loop.
    let main = ped.unit_index("arc3d").unwrap();
    let ksweep = ped
        .loops(main)
        .into_iter()
        .map(|(h, _)| h)
        .find(|&h| {
            let unit = &ped.program().units[main];
            let body = &unit.loop_of(h).body;
            body.iter().any(|&s| {
                matches!(&unit.stmt(s).kind, ped_fortran::StmtKind::Call { name, .. } if name == "sweep")
            })
        })
        .expect("sweep loop exists");
    assert!(
        !ped.parallelizable(main, ksweep).unwrap(),
        "plain parallelize must stay blocked on the shared workspace"
    );
    let work = ped.program().units[main].symbols.lookup("work").unwrap();
    let g = ped.graph(main, ksweep).unwrap();
    assert!(
        g.array_classes.get(&work).is_some_and(|c| c.privatizable),
        "interprocedural kill through sweep must prove work privatizable: {:?}",
        g.array_classes.get(&work)
    );
    ped.apply(main, ksweep, &ped_transform::Xform::ArrayPrivatize { var: work }).unwrap();
    let src = ped.source();
    let header = src
        .lines()
        .find(|l| l.contains("parallel do") && l.contains("private(") && l.contains("work"))
        .unwrap_or_else(|| panic!("k-sweep must become parallel with work private:\n{src}"));
    assert!(header.contains("work"), "{header}");
}

/// Whole-workflow session: open spec77, navigate to the hottest loop,
/// check it is the advect driver region, parallelize everything, undo all
/// the way back.
#[test]
fn full_session_with_undo_chain() {
    let w = program_by_name("spec77").unwrap();
    let mut ped = Ped::open(w.source).unwrap();
    let before_src = ped.source();
    let n = autoparallelize(&mut ped);
    assert!(n >= 5, "spec77 has plenty of parallel loops, got {n}");
    assert!(ped.source().contains("parallel do"));
    let mut undone = 0;
    while ped.undo() {
        undone += 1;
    }
    assert_eq!(undone, n);
    assert_eq!(ped.source(), before_src, "undo chain must restore the original");
}

/// Performance-estimator navigation agrees with measurement on the suite:
/// the top-3 sets overlap for every program (top-1 can differ on programs
/// whose two hottest loops are near-identical in cost).
#[test]
fn navigation_ranking_overlaps_measurement() {
    for w in all_programs() {
        let program = ped_fortran::parse_program(w.source).unwrap();
        let mut est = ped_perf::Estimator::new(&program, Machine::alliant8());
        let ranked = est.rank_program();
        let measured = ped_runtime::interp::run_source(w.source, ExecConfig::default())
            .unwrap()
            .profile;
        let a3 = ped_perf::ranking_agreement(&ranked, &measured, &program, 3);
        assert!(a3 >= 1.0 / 3.0, "{}: top-3 agreement {a3}", w.name);
    }
}

/// Fixed-form sources work end to end (the front end's second dialect).
#[test]
fn fixed_form_end_to_end() {
    let src = "\
C     classic fixed-form kernel
      PROGRAM FIXED
      REAL A(10)
      DO 10 I = 1, 10
      A(I) = I * 2.0
   10 CONTINUE
      S = 0.0
      DO 20 I = 1, 10
      S = S + A(I)
   20 CONTINUE
      PRINT *, S
      END
";
    let p = ped_fortran::parser::parse_program_fixed(src).unwrap();
    let mut ped = Ped::from_program(p);
    assert_eq!(ped.loops(0).len(), 2);
    assert!(ped.parallelizable(0, ped.loops(0)[0].0).unwrap());
    let r = ped.run(ExecConfig::default()).unwrap();
    assert_eq!(r.printed, vec!["110.0"]);
}

/// The euler claim: the crossing loop `qr(i) = q(n+1-i)` over the lower
/// half is proven independent by the weak-crossing machinery (reads and
/// writes touch disjoint halves).
#[test]
fn euler_crossing_loop_is_parallel() {
    let w = program_by_name("euler").unwrap();
    let mut ped = Ped::open(w.source).unwrap();
    let main = ped.unit_index("euler").unwrap();
    let crossing = ped.loops(main)[0].0;
    assert!(ped.parallelizable(main, crossing).unwrap());
    // And the max-reduction loop parallelizes with a clause.
    let red = ped.loops(main)[1].0;
    ped.apply(main, red, &ped_transform::Xform::Parallelize).unwrap();
    assert!(ped.source().contains("reduction(max:cmax)"), "{}", ped.source());
}

/// The banded claim: linearized subscripts `ab(i + n*(j-1))` are MIV;
/// with interprocedural constants (n = 24 at every call site) the zeroing
/// nest still parallelizes.
#[test]
fn banded_linearized_subscripts_parallelize() {
    let w = program_by_name("banded").unwrap();
    let mut ped = Ped::open(w.source).unwrap();
    let form = ped.unit_index("form").unwrap();
    let outer = ped.loops(form)[0].0;
    assert!(
        ped.parallelizable(form, outer).unwrap(),
        "linearized zeroing loop must parallelize with interprocedural constants"
    );
    // The diagonal write loop ab(i + n*(i-1)) is a coupled-MIV single-index
    // subscript: distinct i → distinct element; GCD/Banerjee keep it
    // parallel too.
    let diag = ped.loops(form)[2].0;
    assert!(ped.parallelizable(form, diag).unwrap());
}

/// pneoss: the private temporary and both reductions land in the clauses.
#[test]
fn pneoss_classification_in_clauses() {
    let w = program_by_name("pneoss").unwrap();
    let mut ped = Ped::open(w.source).unwrap();
    let main = ped.unit_index("pneoss").unwrap();
    let h = ped
        .loops(main)
        .into_iter()
        .map(|(h, _)| h)
        .find(|&h| {
            let g = ped.graph(main, h).unwrap();
            !g.scalar_classes.is_empty()
                && ped.program().units[main].loop_of(h).body.len() >= 3
        })
        .expect("the energy loop");
    ped.apply(main, h, &ped_transform::Xform::Parallelize).unwrap();
    let src = ped.source();
    assert!(src.contains("private(work)"), "{src}");
    assert!(src.contains("reduction(+:esum)"), "{src}");
    assert!(src.contains("reduction(max:pmax)"), "{src}");
}

/// Regression for the threaded-reduction throughput bug E14 exposed:
/// `dotred` ran at 0.067–0.075x serial at every thread count because each
/// accumulator store escaped through `RedGate` to the tree walker's
/// per-store slow path. With compile-time spine recognition the fast
/// path logs operands directly (`RedLog` into per-worker buffers), so
/// threaded wall time must stay within 1.2x serial on multi-core hosts —
/// while remaining bit-identical to the serial fold.
#[test]
fn threaded_reduction_keeps_fast_path_throughput() {
    let n = 200_000;
    let src = format!(
        "program dotred\n\
         integer n\n\
         parameter (n = {n})\n\
         real a(n), b(n)\n\
         real s\n\
         do i = 1, n\n\
           a(i) = 0.001 * i\n\
           b(i) = 1.0 / i\n\
         enddo\n\
         s = 0.0\n\
         parallel do i = 1, n reduction(+:s)\n\
           s = s + a(i) * b(i)\n\
         enddo\n\
         print *, s\n\
         end\n"
    );
    let program = ped_fortran::parse_program(&src).unwrap();
    let unit = &program.units[0];
    let header = unit
        .stmts
        .iter()
        .find_map(|s| match &s.kind {
            ped_fortran::StmtKind::Do(d) if d.is_parallel() => Some(s.id),
            _ => None,
        })
        .expect("reduction loop header");
    let key = (unit.name.clone(), header);
    let wall = |config: ExecConfig| {
        let mut best = u64::MAX;
        let mut printed = Vec::new();
        for _ in 0..3 {
            let r = ped_runtime::interp::run_source(&src, config).unwrap();
            best = best.min(r.profile[&key].wall_ns.max(1));
            printed = r.printed;
        }
        (best, printed)
    };
    let (serial_wall, serial_out) = wall(ExecConfig::default());
    for t in [2usize, 4] {
        let (thr_wall, thr_out) =
            wall(ExecConfig { mode: ParallelMode::Threads(t), ..Default::default() });
        assert_eq!(serial_out, thr_out, "threads({t}): reduction diverged from serial");
        let cores = std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1);
        if cores >= 4 {
            let ratio = thr_wall as f64 / serial_wall as f64;
            assert!(
                ratio <= 1.2,
                "threads({t}): reduction loop wall {thr_wall}ns is {ratio:.2}x serial \
                 {serial_wall}ns — the fast-path reduction logging has regressed"
            );
        }
    }
}
