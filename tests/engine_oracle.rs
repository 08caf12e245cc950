//! Differential oracle: two engines, one semantics.
//!
//! The bytecode register machine (`ped_runtime::bytecode`) and the
//! AST-walking tree interpreter must be observationally identical — same
//! printed lines (full-precision float formatting, so string equality is
//! bit equality), bit-identical final memory, the same step counts and
//! virtual time, the same shadow-memory dependence logs, and the same
//! error messages at the same step on every runtime fault. These tests
//! sweep the nine-program suite and generated programs across
//! Serial/Threads{1,2,4} × {static, dynamic, guided}/Simulate{2,4,8} with
//! the tree walker as the reference; the interpreter-bug regression cases
//! (negative and INT_MIN subscripts, division overflow, budget-abort
//! parity) pin down the faults that used to hide behind the tree walker's
//! Rust panics.

use ped_core::equiv::unspecified_privates;
use ped_runtime::{interp, Engine, ExecConfig, Machine, ParallelMode, RunResult, Schedule};

fn tree(config: ExecConfig) -> ExecConfig {
    ExecConfig { engine: Engine::Tree, ..config }
}

fn bytecode(config: ExecConfig) -> ExecConfig {
    ExecConfig { engine: Engine::Bytecode, ..config }
}

fn simulate(procs: usize) -> ExecConfig {
    ExecConfig { mode: ParallelMode::Simulate(Machine::with_procs(procs)), ..ExecConfig::default() }
}

/// Parallel configurations both engines are swept over.
fn parallel_configs() -> Vec<ExecConfig> {
    let mut configs = Vec::new();
    for threads in [1usize, 2, 4] {
        for schedule in [Schedule::Static, Schedule::Dynamic(3), Schedule::Guided] {
            configs.push(ExecConfig {
                mode: ParallelMode::Threads(threads),
                schedule,
                ..ExecConfig::default()
            });
        }
    }
    configs.extend([2, 4, 8].map(simulate));
    configs
}

/// Per-loop profile ops, invocations and iterations, bitwise and in key
/// order (wall time is left out).
fn profile_ops(r: &RunResult) -> Vec<(String, u32, u64, u64, u64)> {
    let mut rows: Vec<_> = r
        .profile
        .iter()
        .map(|((unit, sid), s)| (unit.clone(), sid.0, s.invocations, s.iterations, s.ops.to_bits()))
        .collect();
    rows.sort();
    rows
}

/// Tree serial is the oracle; bytecode must match it bitwise in serial
/// (printed, memory, steps, vtime) and across every parallel configuration
/// (printed, memory minus unspecified privates). Simulate is deterministic,
/// so there the two engines must also charge the same `vtime`, `steps`
/// and per-loop profile ops.
fn assert_engines_agree(label: &str, src: &str) {
    let skip = unspecified_privates(&ped_fortran::parse_program(src).expect("source parses"));
    let (oracle, oracle_mem) = interp::run_source_with_memory(src, tree(ExecConfig::default()))
        .unwrap_or_else(|e| panic!("{label}: tree serial: {e}"));
    let (fast, fast_mem) = interp::run_source_with_memory(src, bytecode(ExecConfig::default()))
        .unwrap_or_else(|e| panic!("{label}: bytecode serial: {e}"));
    assert_eq!(oracle.printed, fast.printed, "{label}: serial printed output diverged");
    assert_eq!(oracle_mem, fast_mem, "{label}: serial final memory diverged");
    assert_eq!(oracle.steps, fast.steps, "{label}: serial step counts diverged");
    assert!(
        oracle.vtime == fast.vtime,
        "{label}: serial vtime diverged ({} vs {})",
        oracle.vtime,
        fast.vtime
    );

    let oracle_mem: Vec<_> = oracle_mem.into_iter().filter(|(n, _)| !skip.contains(n)).collect();
    for config in parallel_configs() {
        let mut runs = Vec::new();
        for (engine_name, cfg) in [("tree", tree(config)), ("bytecode", bytecode(config))] {
            let sub = format!("{label}: {engine_name} {:?}/{}", cfg.mode, cfg.schedule);
            let (r, mem) = interp::run_source_with_memory(src, cfg)
                .unwrap_or_else(|e| panic!("{sub}: {e}"));
            assert_eq!(oracle.printed, r.printed, "{sub}: printed output diverged");
            let mem: Vec<_> = mem.into_iter().filter(|(n, _)| !skip.contains(n)).collect();
            assert_eq!(oracle_mem, mem, "{sub}: final memory diverged");
            runs.push(r);
        }
        if let ParallelMode::Simulate(m) = config.mode {
            let sub = format!("{label}: Simulate({})", m.procs);
            let (t, b) = (&runs[0], &runs[1]);
            assert!(t.vtime == b.vtime, "{sub}: vtime diverged ({} vs {})", t.vtime, b.vtime);
            assert_eq!(t.steps, b.steps, "{sub}: step counts diverged");
            assert_eq!(profile_ops(t), profile_ops(b), "{sub}: loop profiles diverged");
        }
    }
}

/// Engine-vs-engine bit-equality over the nine-program suite.
#[test]
fn engines_agree_on_suite() {
    for w in ped_workloads::all_programs() {
        assert_engines_agree(w.name, w.source);
    }
}

/// Engine-vs-engine bit-equality over ≥20 generated seeds, after the
/// editor parallelizes everything it can prove safe.
#[test]
fn engines_agree_on_generated_programs() {
    for seed in 0u64..22 {
        let src = ped_workloads::generator::gen_source(ped_workloads::generator::GenConfig {
            units: 2,
            loops_per_unit: 4,
            stmts_per_loop: 3,
            extent: 24,
            seed,
        });
        let mut ped = ped_core::Ped::open(&src).unwrap();
        ped_core::autoparallelize(&mut ped);
        assert_engines_agree(&format!("seed {seed}"), &ped.source());
    }
}

/// Shadow-on runs: the observed-dependence log is event-order-sensitive,
/// so equality here means the bytecode engine replays the tree walker's
/// exact access sequence (reads before writes, argument bindings in
/// order, reduction taps included).
#[test]
fn shadow_logs_agree_across_engines() {
    let shadow_cfg = ExecConfig { shadow: true, ..ExecConfig::default() };
    for w in ped_workloads::all_programs() {
        let oracle = interp::run_source(w.source, tree(shadow_cfg))
            .unwrap_or_else(|e| panic!("{}: tree shadow: {e}", w.name));
        let fast = interp::run_source(w.source, bytecode(shadow_cfg))
            .unwrap_or_else(|e| panic!("{}: bytecode shadow: {e}", w.name));
        assert_eq!(oracle.printed, fast.printed, "{}: shadow-on printed output", w.name);
        assert_eq!(
            oracle.shadow, fast.shadow,
            "{}: observed-dependence logs diverged between engines",
            w.name
        );
    }
    for seed in 0u64..8 {
        let src = ped_workloads::generator::gen_source(ped_workloads::generator::GenConfig {
            units: 2,
            loops_per_unit: 3,
            stmts_per_loop: 3,
            extent: 16,
            seed,
        });
        let mut ped = ped_core::Ped::open(&src).unwrap();
        ped_core::autoparallelize(&mut ped);
        let src = ped.source();
        let oracle = interp::run_source(&src, tree(shadow_cfg))
            .unwrap_or_else(|e| panic!("seed {seed}: tree shadow: {e}"));
        let fast = interp::run_source(&src, bytecode(shadow_cfg))
            .unwrap_or_else(|e| panic!("seed {seed}: bytecode shadow: {e}"));
        assert_eq!(oracle.printed, fast.printed, "seed {seed}: shadow-on printed output");
        assert_eq!(oracle.shadow, fast.shadow, "seed {seed}: shadow logs diverged");
    }
}

/// Run `src` under both engines and expect the same named runtime error.
fn assert_same_error(label: &str, src: &str, want: &str) {
    for (engine_name, cfg) in
        [("tree", tree(ExecConfig::default())), ("bytecode", bytecode(ExecConfig::default()))]
    {
        let err = interp::run_source(src, cfg)
            .expect_err(&format!("{label}: {engine_name} must fail"));
        assert!(
            err.message.contains(want),
            "{label}: {engine_name} said {:?}, wanted substring {want:?}",
            err.message
        );
    }
    // And identically: both engines word-for-word.
    let te = interp::run_source(src, tree(ExecConfig::default())).unwrap_err();
    let be = interp::run_source(src, bytecode(ExecConfig::default())).unwrap_err();
    assert_eq!(te.message, be.message, "{label}: error messages differ between engines");
}

/// A negative subscript is a named out-of-bounds error, not an `as usize`
/// wrap into a huge index.
#[test]
fn negative_subscript_is_named_error_in_both_engines() {
    let src = "program neg\n\
        real a(10)\n\
        integer k\n\
        k = -3\n\
        a(k) = 1.0\n\
        print *, a(1)\n\
        end\n";
    assert_same_error("negative store", src, "subscript out of bounds");
    let load = "program negl\n\
        real a(10)\n\
        integer k\n\
        k = -3\n\
        print *, a(k)\n\
        end\n";
    assert_same_error("negative load", load, "subscript out of bounds");
}

/// INT_MIN as a subscript: the checked linearization reports it instead of
/// wrapping. `(-2) ** 63` lands exactly on `i64::MIN` via `wrapping_pow`.
#[test]
fn int_min_subscript_is_named_error_in_both_engines() {
    let src = "program imin\n\
        real a(10)\n\
        integer k\n\
        k = (-2) ** 63\n\
        a(k) = 1.0\n\
        print *, a(1)\n\
        end\n";
    assert_same_error("INT_MIN subscript", src, "subscript out of bounds");
}

/// Integer division faults are deterministic named errors in both engines:
/// division by zero and the `i64::MIN / -1` two's-complement overflow
/// (which used to be a Rust panic under the tree walker).
#[test]
fn integer_division_faults_are_named_errors_in_both_engines() {
    let by_zero = "program dz\n\
        integer i, j\n\
        i = 7\n\
        j = i / (i - 7)\n\
        print *, j\n\
        end\n";
    assert_same_error("division by zero", by_zero, "integer division by zero");

    let overflow = "program dov\n\
        integer i, j\n\
        i = (-2) ** 63\n\
        j = i / (-1)\n\
        print *, j\n\
        end\n";
    assert_same_error("MIN / -1", overflow, "integer division overflow");
}

/// A subscripted store to a name never declared as an array is refused
/// when the program loads, naming the symbol, so neither engine indexes
/// the scalar's cell.
#[test]
fn undeclared_array_store_is_named_error_in_both_engines() {
    let src = "program t\n\
        do i = 1, 10\n\
        a(i) = 1.0\n\
        enddo\n\
        end\n";
    let want = "t: `a` is subscripted but not declared as an array";
    assert_same_error("undeclared array", src, want);
}

/// MOD/ABS/SIGN/negation on `i64::MIN` wrap deterministically (identical
/// values from both engines) instead of panicking in debug builds.
#[test]
fn int_min_intrinsics_agree_across_engines() {
    let src = "program wrap\n\
        integer i, m, a, s, n\n\
        i = (-2) ** 63\n\
        m = mod(i, -1)\n\
        a = abs(i)\n\
        s = sign(i, -1)\n\
        n = -i\n\
        print *, m, a, s, n\n\
        end\n";
    let oracle = interp::run_source(src, tree(ExecConfig::default())).expect("tree runs");
    let fast = interp::run_source(src, bytecode(ExecConfig::default())).expect("bytecode runs");
    assert_eq!(oracle.printed, fast.printed);
    // MOD(MIN,-1) = 0; ABS/SIGN/negation of MIN wrap back to MIN.
    assert!(oracle.printed[0].contains('0'), "{:?}", oracle.printed);
}

/// Step-budget parity: `max_steps` aborts at the same statement with the
/// same recorded step count in both engines, serially and simulated (the
/// simulated machine runs its blocks in iteration order, so it stops
/// exactly where serial execution does); under threads the abort stays
/// within the cap in both. Swept across budgets so the abort lands in
/// different loop phases.
#[test]
fn step_budget_aborts_identically_across_engines() {
    for seed in 0u64..6 {
        let src = ped_workloads::generator::gen_source(ped_workloads::generator::GenConfig {
            units: 2,
            loops_per_unit: 3,
            stmts_per_loop: 3,
            extent: 24,
            seed,
        });
        let mut ped = ped_core::Ped::open(&src).unwrap();
        ped_core::autoparallelize(&mut ped);
        let src = ped.source();
        let total = interp::run_source(&src, ExecConfig::default()).expect("runs").steps;
        for cap in [total / 7, total / 3, (2 * total) / 3] {
            let cap = cap.max(1);
            let label = format!("seed {seed} cap {cap}/{total}");
            let cfg = ExecConfig { max_steps: cap, ..ExecConfig::default() };
            let te = interp::run_source(&src, tree(cfg))
                .expect_err(&format!("{label}: tree must abort"));
            let be = interp::run_source(&src, bytecode(cfg))
                .expect_err(&format!("{label}: bytecode must abort"));
            assert_eq!(te.message, be.message, "{label}: abort messages differ");
            assert_eq!(te.steps, be.steps, "{label}: abort step counts differ");
            assert_eq!(te.steps, cap, "{label}: serial abort overshot the cap");

            for procs in [2usize, 4] {
                let scfg = ExecConfig { max_steps: cap, ..simulate(procs) };
                for (engine_name, cfg) in [("tree", tree(scfg)), ("bytecode", bytecode(scfg))] {
                    let e = interp::run_source(&src, cfg).expect_err(&format!(
                        "{label}: {engine_name} simulate({procs}) must abort"
                    ));
                    let sub = format!("{label}: {engine_name} simulate({procs})");
                    assert_eq!(e.message, te.message, "{sub}: abort message differs from serial");
                    assert_eq!(e.steps, te.steps, "{sub}: abort step count differs from serial");
                }
            }

            for threads in [2usize, 4] {
                let tcfg = ExecConfig {
                    mode: ParallelMode::Threads(threads),
                    max_steps: cap,
                    ..ExecConfig::default()
                };
                for (engine_name, cfg) in [("tree", tree(tcfg)), ("bytecode", bytecode(tcfg))] {
                    let e = interp::run_source(&src, cfg).expect_err(&format!(
                        "{label}: {engine_name} threads({threads}) must abort"
                    ));
                    assert!(
                        e.steps <= cap,
                        "{label}: {engine_name} threads({threads}) overshot: {} > {cap}",
                        e.steps
                    );
                }
            }
        }
    }
}

/// Simulate runs a `PARALLEL DO` through the same chunk and merge code as
/// Threads, so it has Threads' semantics where the dialect leaves a
/// choice: a private variable read after the loop keeps its pre-loop
/// value, RETURN/STOP inside the loop is an error, and a profiled run
/// reports the engine that ran it.
#[test]
fn simulate_has_the_threaded_semantics() {
    let private = "program p\nreal a(8)\nt1 = -1.0\nparallel do i = 1, 8 private(t1)\n\
        t1 = i * 2.0\na(i) = t1\nenddo\nprint *, t1, a(8)\nend\n";
    let early_exit = "program r\nreal a(8)\nparallel do i = 1, 8\na(i) = 1.0\n\
        if (i .eq. 3) then\nstop\nendif\nenddo\nprint *, a(1)\nend\n";
    let threads = ExecConfig { mode: ParallelMode::Threads(2), ..ExecConfig::default() };
    for config in [simulate(4), threads] {
        for cfg in [tree(config), bytecode(config)] {
            let sub = format!("{:?} {:?}", cfg.engine, cfg.mode);
            let r = interp::run_source(private, cfg).unwrap_or_else(|e| panic!("{sub}: {e}"));
            assert_eq!(r.printed, vec!["-1.0 16.0"], "{sub}: private leaked out of the loop");
            let e = interp::run_source(early_exit, cfg).expect_err(&format!("{sub}: must fail"));
            assert_eq!(e.message, "RETURN/STOP inside a PARALLEL DO is not supported", "{sub}");
        }
    }

    let ped = ped_core::Ped::open_profiled(private).unwrap();
    ped.run(bytecode(simulate(4))).unwrap();
    assert_eq!(ped.profile_report().engine, "bytecode");
    ped.run(tree(simulate(4))).unwrap();
    assert_eq!(ped.profile_report().engine, "tree");
}
