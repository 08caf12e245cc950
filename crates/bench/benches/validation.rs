//! E15 — shadow-runtime dependence validation.
//!
//! Reproduces the paper's onedim narrative end-to-end: asserting that the
//! index array is a permutation deletes the pending scatter dependences and
//! the loop parallelizes; the shadow checker *validates* those deletions on
//! a real run. Injecting a duplicate index makes the same assertion a lie —
//! the checker catches the race and pinpoints the contradicted deletion.
//!
//! Alongside the narrative it measures, per suite program, the checker's
//! conservatism (static carried edges never observed at run time) and the
//! cost of observation: shadow-off must add no measurable overhead (an A/A
//! comparison of two interleaved shadow-off medians bounds measurement
//! noise; shadow-off vs baseline must sit inside that bound), while
//! shadow-on pays a reported slowdown. The bounded regular-section
//! analysis must close slab2d's workspace gap: its loop-carried edge on
//! `w` is killed statically (and the loop privatizes), so slab2d reports
//! zero unobserved static edges. It also times `Ped::check` itself, serial
//! and on two threads, on every autoparallelized suite program, and gates
//! the recorder's cost: shadow-on may cost at most 6x shadow-off. Results
//! land in `target/BENCH_E15.json` (with a profile report carrying the
//! validation and sections blocks).

use ped_bench::apply_suite_assertions;
use ped_bench::harness::{bench, fmt_ns};
use ped_core::{autoparallelize, Ped, RaceVerdict};
use ped_obs::json::Json;
use ped_runtime::{ExecConfig, ParallelMode};
use ped_workloads::{all_programs, racy};
use std::hint::black_box;

/// Samples per `check` timing.
const CHECK_SAMPLES: usize = 21;

/// The most a shadow-on run may cost, in shadow-off runs.
const MAX_SHADOW_ON_RATIO: f64 = 6.0;

fn shadow_cfg() -> ExecConfig {
    ExecConfig { shadow: true, ..ExecConfig::default() }
}

/// Two shadow-off measurements with samples interleaved A,B,A,B,... so both
/// see the same drift; returns the pair of medians. Their ratio bounds this
/// run's measurement noise — an honest A/A baseline for the overhead claim.
fn interleaved_off_medians(src: &str, n: usize) -> (u128, u128) {
    let run = || {
        black_box(ped_runtime::interp::run_source(src, ExecConfig::default()).unwrap())
    };
    run(); // warmup
    let (mut a, mut b) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for _ in 0..n {
        let t = std::time::Instant::now();
        run();
        a.push(t.elapsed().as_nanos());
        let t = std::time::Instant::now();
        run();
        b.push(t.elapsed().as_nanos());
    }
    a.sort_unstable();
    b.sort_unstable();
    (a[n / 2], b[n / 2])
}

fn main() {
    println!("E15: shadow-runtime dependence validation");

    // ---- the onedim narrative ------------------------------------------
    let w = ped_workloads::program_by_name("onedim").unwrap();
    let mut ped = Ped::open(w.source).unwrap();
    let rejected = apply_suite_assertions(&mut ped, "onedim");
    assert!(rejected > 0, "the permutation assertion must delete pending deps");
    autoparallelize(&mut ped);
    let valid = ped.check(ExecConfig::default()).unwrap();
    assert!(valid.clean(), "valid permutation must be clean:\n{}", valid.render_text());
    assert!(valid.validated_deletions > 0, "deletions must be validated");
    println!(
        "onedim (valid index): clean, {} deletion(s) validated, {} observed deps",
        valid.validated_deletions, valid.observed_deps
    );

    let mut mutated = Ped::open(&racy::onedim_duplicate_index()).unwrap();
    apply_suite_assertions(&mut mutated, "onedim");
    autoparallelize(&mut mutated);
    let caught = mutated.check(ExecConfig::default()).unwrap();
    assert!(!caught.clean(), "duplicate index must race");
    let finding = caught.races().next().unwrap();
    assert!(
        matches!(finding.verdict, RaceVerdict::ContradictsDeletion(_)),
        "verdict must pinpoint the deletion: {:?}",
        finding.verdict
    );
    println!(
        "onedim (duplicate index): caught — {} on {} ({} pair(s))",
        finding.verdict, finding.var, finding.count
    );

    // ---- conservatism across the suite ---------------------------------
    println!("conservatism per program (static carried edges never observed):");
    let mut conservatism = Vec::new();
    let mut check_ms = Vec::new();
    for w in all_programs() {
        let mut ped = Ped::open(w.source).unwrap();
        apply_suite_assertions(&mut ped, w.name);
        autoparallelize(&mut ped);
        let r = ped.check(ExecConfig::default()).unwrap();
        assert!(r.clean(), "{} must be race-free:\n{}", w.name, r.render_text());
        // What a user waits for: the whole `check`, shadow run and
        // validation, median of CHECK_SAMPLES.
        let mut median_ms = |label: &str, mode| {
            let cfg = ExecConfig { mode, ..ExecConfig::default() };
            let stats = bench(&format!("check {} {label}", w.name), CHECK_SAMPLES, || {
                ped.check(cfg).unwrap()
            });
            stats.median_ns() as f64 / 1e6
        };
        let serial = median_ms("serial", ParallelMode::Serial);
        let threads2 = median_ms("threads 2", ParallelMode::Threads(2));
        check_ms.push((w.name, serial, threads2));
        println!(
            "  {:<8} {:>2} loops, {:>3} observed, {:>2} unobserved static, {} validated",
            w.name,
            r.loops.len(),
            r.observed_deps,
            r.static_unobserved,
            r.validated_deletions
        );
        conservatism.push((w.name, r));
    }
    // The section analysis closes the slab2d gap: the workspace array's
    // carried edge is statically killed, so nothing is left unobserved.
    let slab = conservatism.iter().find(|(n, _)| *n == "slab2d").unwrap();
    assert_eq!(
        slab.1.static_unobserved, 0,
        "slab2d's workspace edge must be dropped by the section kill analysis"
    );

    // ---- overhead: shadow-off must be free, shadow-on is reported ------
    // A/A protocol: interleave two shadow-off measurements; their ratio
    // bounds the noise of this machine/run. The baseline-vs-shadow-off
    // ratio must stay inside that bound * 1.10.
    let w = ped_workloads::program_by_name("spec77").unwrap();
    let mut ped = Ped::open(w.source).unwrap();
    apply_suite_assertions(&mut ped, w.name);
    autoparallelize(&mut ped);
    let src = ped.source();
    let (off_a, off_b) = interleaved_off_medians(&src, 30);
    let on = bench("shadow_on", 30, || {
        black_box(ped_runtime::interp::run_source(&src, shadow_cfg()).unwrap())
    });
    let ratio = |x: u128, y: u128| x.max(1) as f64 / y.max(1) as f64;
    let aa = ratio(off_a.max(off_b), off_a.min(off_b));
    let overhead_ok = aa <= 1.10;
    assert!(
        overhead_ok,
        "interleaved shadow-off medians diverge ({aa:.3} > 1.10); \
         shadow-off must add no measurable overhead"
    );
    let on_ratio = ratio(on.median_ns(), off_a.min(off_b));
    assert!(
        on_ratio <= MAX_SHADOW_ON_RATIO,
        "shadow-on costs {on_ratio:.2}x shadow-off (at most {MAX_SHADOW_ON_RATIO}x)"
    );
    println!(
        "shadow off A/A medians {} / {} -> ratio {aa:.3} (must be <= 1.10: \
         shadow-off is a no-op branch) -> overhead_ok={overhead_ok}",
        fmt_ns(off_a),
        fmt_ns(off_b)
    );
    println!(
        "shadow on: {} vs off {} -> {on_ratio:.2}x (the price of observation)",
        fmt_ns(on.median_ns()),
        fmt_ns(off_a.min(off_b))
    );

    // ---- one profiled session feeding the validation + sections blocks -
    let mut profiled = Ped::open_profiled(&src).unwrap();
    profiled.analyze_all();
    profiled.check(ExecConfig::default()).unwrap();
    let profile = profiled.profile_report();
    assert_eq!(profile.validation.checks, 1);
    assert!(
        profile.sections.arrays_classified > 0,
        "graph builds must feed the sections block"
    );
    println!(
        "sections: {} arrays classified, {} fully killed, {} privatizable",
        profile.sections.arrays_classified,
        profile.sections.exposed_bottom,
        profile.sections.privatizable
    );

    let doc = Json::obj(vec![
        ("bench", Json::str("E15")),
        ("schema_version", Json::int(2)),
        ("onedim_valid_clean", Json::Bool(valid.clean())),
        ("onedim_validated_deletions", Json::int(valid.validated_deletions as u64)),
        ("onedim_duplicate_caught", Json::Bool(!caught.clean())),
        ("overhead_ok", Json::Bool(overhead_ok)),
        ("shadow_off_aa_ratio", Json::Num(aa)),
        ("shadow_on_ratio", Json::Num(on_ratio)),
        (
            "conservatism",
            Json::Arr(
                conservatism
                    .iter()
                    .map(|(name, r)| {
                        Json::obj(vec![
                            ("program", Json::str(name)),
                            ("loops", Json::int(r.loops.len() as u64)),
                            ("observed_deps", Json::int(r.observed_deps as u64)),
                            ("static_unobserved", Json::int(r.static_unobserved as u64)),
                            (
                                "validated_deletions",
                                Json::int(r.validated_deletions as u64),
                            ),
                            ("races", Json::int(r.race_count() as u64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "check_ms",
            Json::obj(
                check_ms
                    .iter()
                    .map(|&(name, serial, threads2)| {
                        let times =
                            vec![("serial", Json::Num(serial)), ("threads2", Json::Num(threads2))];
                        (name, Json::obj(times))
                    })
                    .collect(),
            ),
        ),
        ("profile", profile.to_json()),
    ]);
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/BENCH_E15.json");
    match std::fs::write(&out, doc.to_string_pretty()) {
        Ok(()) => println!("wrote {}", out.display()),
        Err(e) => println!("could not write {}: {e}", out.display()),
    }
}
