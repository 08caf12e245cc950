//! Round-trip and emptiness tests for the observability layer's profile
//! report: emit from a suite program, parse back, check the schema
//! version, the phase names, and that the dependence-test histogram
//! accounts for every graph edge; verify that a session with
//! instrumentation off produces the all-empty report; and check that every
//! run, `check` runs included, folds into one loop-profile row per loop.

use ped_core::{autoparallelize, Ped, ProfileReport, PROFILE_SCHEMA_VERSION};
use ped_obs::json::Json;
use ped_runtime::{ExecConfig, ParallelMode};

const STENCIL: &str = include_str!("../examples/fortran/stencil.f");

fn suite_source() -> String {
    ped_workloads::program_by_name("onedim")
        .expect("suite has onedim")
        .source
        .to_string()
}

#[test]
fn profile_report_round_trips_through_json() {
    let src = suite_source();
    let mut ped = Ped::open_profiled(&src).unwrap();
    let batch = ped.analyze_all();
    assert!(batch.built > 0, "suite program must have loops to analyze");
    ped.run(ped_runtime::ExecConfig::default()).unwrap();

    let report = ped.profile_report();
    assert!(report.enabled);
    let stamp = report
        .to_json()
        .get("schema_version")
        .and_then(Json::as_u64);
    assert_eq!(stamp, Some(PROFILE_SCHEMA_VERSION));
    assert_eq!(report.engine, "bytecode", "default engine is the register machine");

    // Emit → parse must reproduce the report exactly, pretty or compact.
    for text in [
        report.to_json().to_string_pretty(),
        report.to_json().to_string_compact(),
    ] {
        let back = ProfileReport::from_json_str(&text).unwrap();
        assert_eq!(back, report);
    }
}

#[test]
fn profile_report_contents_match_session() {
    let src = suite_source();
    let mut ped = Ped::open_profiled(&src).unwrap();
    let batch = ped.analyze_all();
    let run = ped.run(ped_runtime::ExecConfig::default()).unwrap();
    let report = ped.profile_report();

    // Phase names: the session parsed, propagated interprocedural facts,
    // tested dependences, ran scalar analysis, and interpreted the program.
    let names: Vec<&str> = report.phases.iter().map(|p| p.name.as_str()).collect();
    for expected in ["parse", "scalar_analysis", "interproc", "dep_test", "interpret"] {
        assert!(names.contains(&expected), "missing phase {expected}: {names:?}");
    }
    for p in &report.phases {
        assert!(p.calls > 0, "phase {} listed without calls", p.name);
    }

    // The per-edge histogram is recorded post-dedup, so its total equals
    // the combined edge count of every graph the batch pass built.
    assert_eq!(report.total_edges() as usize, batch.deps);
    assert!(report.total_pairs() > 0, "subscript pairs were tested");

    // Cache counters flow from the session: every batch-built graph is
    // counted, and the suite workload produces pair-cache traffic.
    assert_eq!(report.cache.graphs_built as usize, batch.built);
    assert!(report.cache.pair_hits + report.cache.pair_misses > 0);

    // Per-unit rows cover exactly the graphs built.
    let unit_graphs: u64 = report.units.iter().map(|u| u.graphs).sum();
    assert_eq!(unit_graphs as usize, batch.built);

    // The run's loop profiles were folded in.
    assert_eq!(report.loop_profiles.len(), run.profile.len());

    // The sections block counts the arrays each graph build classified.
    assert!(report.sections.arrays_classified > 0, "{:?}", report.sections);

    // Re-requesting a cached graph bumps the reuse counter.
    let before = report.cache.graphs_reused;
    let h = ped.loops(0)[0].0;
    ped.graph(0, h).unwrap();
    assert_eq!(ped.profile_report().cache.graphs_reused, before + 1);
}

/// The `engine` field tracks the engine of the most recent run.
#[test]
fn report_stamps_the_run_engine() {
    let src = suite_source();
    let ped = Ped::open_profiled(&src).unwrap();
    let tree = ped_runtime::ExecConfig {
        engine: ped_runtime::Engine::Tree,
        ..ped_runtime::ExecConfig::default()
    };
    ped.run(tree).unwrap();
    assert_eq!(ped.profile_report().engine, "tree");
    ped.run(ped_runtime::ExecConfig::default()).unwrap();
    assert_eq!(ped.profile_report().engine, "bytecode");
}

#[test]
fn disabled_instrumentation_leaves_report_empty() {
    let src = suite_source();
    let mut ped = Ped::open(&src).unwrap();
    let batch = ped.analyze_all();
    assert!(batch.built > 0);
    ped.run(ped_runtime::ExecConfig::default()).unwrap();
    assert!(!ped.profiling());
    assert_eq!(ped.profile_report(), ProfileReport::empty());
}

#[test]
fn profiling_toggles_mid_session() {
    let src = suite_source();
    let mut ped = Ped::open(&src).unwrap();
    assert_eq!(ped.profile_report(), ProfileReport::empty());
    ped.set_profiling(true);
    ped.analyze_all();
    let report = ped.profile_report();
    assert!(report.total_edges() > 0);
    // `open` (unprofiled) never timed the parse.
    assert!(report.phases.iter().all(|p| p.name != "parse"));
    ped.set_profiling(false);
    assert_eq!(ped.profile_report(), ProfileReport::empty());
}

/// The `incremental` section reflects what the session actually did:
/// a transform journals one delta, its undo resurrects retired graphs, and
/// summary-preserving edits are absorbed without an ip recompute.
#[test]
fn report_carries_incremental_counters() {
    let src = "program t\nreal a(100), b(100)\ndo i = 1, 100\ncall probe(a, b, i)\nenddo\nend\n\
        subroutine probe(x, y, k)\ninteger k\nreal x(100), y(100)\ny(k) = x(k)\nreturn\nend\n";
    let mut ped = Ped::open_profiled(src).unwrap();
    ped.analyze_all();
    let h = ped.loops(0)[0].0;
    ped.apply(0, h, &ped_transform::Xform::Reverse).unwrap();
    ped.analyze_all();
    assert!(ped.undo());
    ped.analyze_all();

    let inc = ped.profile_report().incremental;
    assert_eq!(inc, ped.incremental_stats());
    assert_eq!(inc.undo_entries + inc.redo_entries, 1, "{inc:?}");
    assert!(inc.journal_bytes > 0 && inc.journal_bytes < inc.snapshot_bytes, "{inc:?}");
    assert!(inc.ip_recomputes_skipped >= 1, "reversal takes the fast path: {inc:?}");
    assert!(inc.graphs_resurrected >= 1, "undo resurrects the loop's graph: {inc:?}");

    // And it round-trips like every other section.
    let text = ped.profile_report().to_json().to_string_compact();
    let back = ProfileReport::from_json_str(&text).unwrap();
    assert_eq!(back.incremental, inc);
}

#[test]
fn validator_rejects_tampered_reports() {
    let src = suite_source();
    let mut ped = Ped::open_profiled(&src).unwrap();
    ped.analyze_all();
    let good = ped.profile_report().to_json().to_string_compact();
    assert!(ProfileReport::from_json_str(&good).is_ok());

    // One schema: older stamps are rejected just like unknown ones.
    for version in [1, PROFILE_SCHEMA_VERSION - 1, 42] {
        let bad_version = good.replacen(
            &format!("\"schema_version\":{PROFILE_SCHEMA_VERSION}"),
            &format!("\"schema_version\":{version}"),
            1,
        );
        assert!(
            ProfileReport::from_json_str(&bad_version).is_err(),
            "v{version} accepted"
        );
    }
    assert!(ProfileReport::from_json_str("{not json").is_err());
    assert!(ProfileReport::from_json_str("{}").is_err());
}

/// A profiled `check` is a run like any other: its interpret time and loop
/// profiles land in the report, and a later run of the same program folds
/// into the same rows instead of listing every loop again.
#[test]
fn check_runs_fold_into_one_row_per_loop() {
    let mut ped = Ped::open_profiled(STENCIL).unwrap();
    ped.analyze_all();
    ped.check(ExecConfig::default()).unwrap();
    let once = ped.profile_report();
    assert_eq!(once.validation.checks, 1);
    assert_eq!(once.loop_profiles.len(), 4, "stencil.f has four loops, all executed");

    ped.run(ExecConfig::default()).unwrap();
    let twice = ped.profile_report();
    let interpret = twice.phases.iter().find(|p| p.name == "interpret").unwrap();
    assert_eq!(interpret.calls, 2, "the check and the run are both timed");
    assert_eq!(twice.loop_profiles.len(), 4, "one row per loop, summed over runs");
    for (a, b) in once.loop_profiles.iter().zip(&twice.loop_profiles) {
        assert_eq!((&a.unit, a.stmt), (&b.unit, b.stmt));
        assert_eq!((b.invocations, b.iterations), (2 * a.invocations, 2 * a.iterations));
    }
}

/// A threaded run sends each parallel loop to the pool or runs it inline
/// by its static bound, and the scheduler block counts both. At n = 1,500
/// the stencil's init loop (3 steps an iteration) is above the inline
/// bound and goes to the pool; its eight sweeps (2 steps an iteration)
/// run inline. A threaded `check` has no pool and runs all nine inline.
#[test]
fn threaded_check_counts_in_the_scheduler_block() {
    let mut ped = Ped::open_profiled(&STENCIL.replace("n = 64", "n = 1500")).unwrap();
    assert!(autoparallelize(&mut ped) > 0);
    let threads = ExecConfig { mode: ParallelMode::Threads(2), ..ExecConfig::default() };
    ped.run(threads).unwrap();
    let run_only = ped.profile_report().scheduler;
    assert_eq!((run_only.parallel_loops, run_only.inline_loops), (1, 8));
    ped.check(threads).unwrap();
    let both = ped.profile_report().scheduler;
    assert_eq!(both.parallel_loops, run_only.parallel_loops);
    assert_eq!(both.inline_loops, run_only.inline_loops + 9);
}
