//! Golden snapshot tests for the three-pane renders of the nine-program
//! evaluation suite.
//!
//! For every suite program this renders, per unit, the navigation overview
//! plus the full loop view (source pane, dependence pane, variable pane) of
//! every loop, and compares the concatenation byte-for-byte against
//! `tests/snapshots/<name>.txt`. The snapshots pin what the user actually
//! sees: dependence kinds/vectors/statuses, test attributions, and scalar
//! classifications. Any analysis change that shifts a pane shows up as a
//! reviewable text diff.
//!
//! Bless flow: `UPDATE_SNAPSHOTS=1 cargo test -p ped-bench --test snapshots`
//! rewrites the files; commit the diff together with the change that caused
//! it.

use ped_bench::apply_suite_assertions;
use ped_core::{autoparallelize, render, AutopilotConfig, DepFilter, Ped, SourceFilter};
use ped_runtime::{Engine, ExecConfig, Machine, ParallelMode, ShadowLog};
use ped_workloads::all_programs;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

fn snapshot_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/snapshots")
}

fn blessing() -> bool {
    std::env::var("UPDATE_SNAPSHOTS").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Render every pane of every loop of every unit, in stable order.
fn render_program(source: &str) -> String {
    let mut ped = Ped::open(source).unwrap();
    let mut out = String::new();
    for u in 0..ped.program().units.len() {
        out.push_str(&render::render_unit_overview(&mut ped, u).unwrap());
        let headers: Vec<_> = ped.loops(u).iter().map(|&(h, _)| h).collect();
        for h in headers {
            let view = render::render_loop_view(
                &mut ped,
                u,
                h,
                &DepFilter::default(),
                &SourceFilter::All,
            )
            .unwrap();
            out.push_str(&view);
        }
    }
    out
}

/// First differing line, for a reviewable failure message.
fn first_diff(got: &str, want: &str) -> String {
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        if g != w {
            return format!("line {}:\n  snapshot: {w}\n  rendered: {g}", i + 1);
        }
    }
    format!(
        "line counts differ: snapshot {} lines, rendered {} lines",
        want.lines().count(),
        got.lines().count()
    )
}

#[test]
fn suite_pane_renders_match_snapshots() {
    let dir = snapshot_dir();
    let mut failures = Vec::new();
    for w in all_programs() {
        let got = render_program(w.source);
        assert!(got.contains("dependences:"), "{}: no dependence pane", w.name);
        assert!(got.contains("variables:"), "{}: no variable pane", w.name);
        let path = dir.join(format!("{}.txt", w.name));
        if blessing() {
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(&path, &got).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing snapshot {} ({e}); bless with UPDATE_SNAPSHOTS=1",
                path.display()
            )
        });
        if got != want {
            failures.push(format!("{}: {}", w.name, first_diff(&got, &want)));
        }
    }
    assert!(
        failures.is_empty(),
        "pane renders diverged from snapshots (re-bless with UPDATE_SNAPSHOTS=1 \
         if the change is intended):\n{}",
        failures.join("\n")
    );
}

/// The renders the snapshots pin must themselves be deterministic: two
/// sessions over the same source produce identical text.
#[test]
fn pane_renders_are_deterministic() {
    for w in all_programs() {
        assert_eq!(
            render_program(w.source),
            render_program(w.source),
            "{}: render not deterministic",
            w.name
        );
    }
}

/// The autopilot `suggest` pane: ranked plan per nest with predicted
/// speedup and safety verdict.
fn render_suggest_pane(source: &str) -> String {
    let mut ped = Ped::open(source).unwrap();
    let cfg = AutopilotConfig::default();
    let s = ped_core::suggest(&mut ped, &cfg);
    ped_core::render_suggest(&ped, &s, cfg.machine.procs)
}

/// Golden snapshots of the `suggest` pane over the nine-program suite
/// (`tests/snapshots/<name>.suggest.txt`), blessed through the same
/// `UPDATE_SNAPSHOTS=1` flow. These pin the planner's verdicts: which
/// nest gets which plan, the predicted speedup, and the blocking
/// dependence shown for unsafe nests.
#[test]
fn suggest_pane_matches_snapshots() {
    let dir = snapshot_dir();
    let mut failures = Vec::new();
    for w in all_programs() {
        let got = render_suggest_pane(w.source);
        assert!(got.contains("autopilot"), "{}: no pane header", w.name);
        assert!(got.contains("searched"), "{}: no search footer", w.name);
        let path = dir.join(format!("{}.suggest.txt", w.name));
        if blessing() {
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(&path, &got).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing snapshot {} ({e}); bless with UPDATE_SNAPSHOTS=1",
                path.display()
            )
        });
        if got != want {
            failures.push(format!("{}: {}", w.name, first_diff(&got, &want)));
        }
    }
    assert!(
        failures.is_empty(),
        "suggest panes diverged from snapshots (re-bless with UPDATE_SNAPSHOTS=1 \
         if the change is intended):\n{}",
        failures.join("\n")
    );
}

/// `vtime` and `steps` of every suite program, after its assertions and
/// autopar, on the simulated machine with 2, 4 and 8 processors: one line
/// per (program, processors). `vtime` prints in shortest round-trip form,
/// so equal text means bit-equal charges.
fn render_simulate(engine: Engine) -> String {
    let mut out = String::new();
    for w in all_programs() {
        let mut ped = Ped::open(w.source).unwrap();
        apply_suite_assertions(&mut ped, w.name);
        autoparallelize(&mut ped);
        for procs in [2, 4, 8] {
            let config = ExecConfig {
                mode: ParallelMode::Simulate(Machine::with_procs(procs)),
                engine,
                ..ExecConfig::default()
            };
            let r = ped.run(config).unwrap();
            writeln!(out, "{} p={procs} vtime={:?} steps={}", w.name, r.vtime, r.steps).unwrap();
        }
    }
    out
}

/// The shadow log of one run, one line per loop: unit, header,
/// invocations, iterations, then each observed `(var, kind)` with its
/// pair count and min/max distance, in the log's (sorted) order.
fn render_shadow_log(log: &ShadowLog) -> String {
    let mut out = String::new();
    for ((unit, header), obs) in &log.loops {
        write!(out, "{unit} {header} inv={} iters={}", obs.invocations, obs.iterations).unwrap();
        for ((var, kind), s) in &obs.carried {
            write!(out, " {var}:{kind}={}@{}..{}", s.count, s.min_dist, s.max_dist).unwrap();
        }
        out.push('\n');
    }
    out
}

/// Golden shadow logs of the nine autoparallelized suite programs
/// (`tests/snapshots/<name>.shadow.txt`), blessed through the same
/// `UPDATE_SNAPSHOTS=1` flow. They pin what the recorder observes, so a
/// change to its bookkeeping must leave every byte in place; `Simulate`
/// and `Threads(2)` must observe exactly what the serial run does, on
/// both engines.
#[test]
fn shadow_logs_match_snapshots() {
    let dir = snapshot_dir();
    let mut failures = Vec::new();
    for w in all_programs() {
        let mut ped = Ped::open(w.source).unwrap();
        apply_suite_assertions(&mut ped, w.name);
        autoparallelize(&mut ped);
        let log_of = |mode, engine| {
            let config = ExecConfig { mode, engine, shadow: true, ..ExecConfig::default() };
            ped.run(config).unwrap().shadow.expect("shadow on")
        };
        let serial = log_of(ParallelMode::Serial, Engine::Bytecode);
        for engine in [Engine::Bytecode, Engine::Tree] {
            for mode in [ParallelMode::Simulate(Machine::with_procs(4)), ParallelMode::Threads(2)]
            {
                assert!(
                    log_of(mode, engine) == serial,
                    "{}: {mode:?} on {engine} observed a different shadow log",
                    w.name
                );
            }
        }
        let got = render_shadow_log(&serial);
        assert!(!got.is_empty(), "{}: no loop observed", w.name);
        let path = dir.join(format!("{}.shadow.txt", w.name));
        if blessing() {
            std::fs::write(&path, &got).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("missing snapshot {} ({e}); bless with UPDATE_SNAPSHOTS=1", path.display())
        });
        if got != want {
            failures.push(format!("{}: {}", w.name, first_diff(&got, &want)));
        }
    }
    assert!(
        failures.is_empty(),
        "shadow logs diverged from snapshots (re-bless with UPDATE_SNAPSHOTS=1 \
         only if what the recorder observes is meant to change):\n{}",
        failures.join("\n")
    );
}

/// The simulated machine's charges (`tests/snapshots/simulate.txt`) are
/// the same on both engines: the speedup tables and the estimator's
/// calibration read them.
#[test]
fn simulate_charges_match_snapshot() {
    let path = snapshot_dir().join("simulate.txt");
    if blessing() {
        std::fs::write(&path, render_simulate(Engine::Tree)).unwrap();
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing snapshot {} ({e}); bless with UPDATE_SNAPSHOTS=1", path.display())
    });
    for engine in [Engine::Tree, Engine::Bytecode] {
        let got = render_simulate(engine);
        assert!(got == want, "{engine}: simulated charges diverged: {}", first_diff(&got, &want));
    }
}
