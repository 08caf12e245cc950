//! E18 — the autopilot closes the loop: search → prune → score → apply →
//! verify → measure → calibrate.
//!
//! The three E14 kernels are fed to the planner **with every parallel
//! annotation stripped**: plain serial `do` loops. The autopilot must
//! rediscover the parallelization by itself — enumerate candidate plans,
//! prune them through the dependence machinery, pick the winner by
//! composed-nest estimate, apply it, and prove bit-identity against the
//! pre-transform serial run. The bench then measures each applied plan's
//! parallel loop on the worker pool itself (the product never measures):
//! the minimum loop wall over `REPEATS` runs, serial over
//! `Threads(THREADS)`. Each (predicted, measured) pair feeds the
//! calibration state, and the post-calibration worst-case ratio must be
//! ≤ 2 on every applied plan — and no looser than the uncalibrated ratio,
//! which the log-midpoint correction guarantees by construction.
//!
//! The measured marks are compared against the hand-parallelized E14
//! variants of the same kernels (same min-of-repeats protocol): the
//! machine-chosen plan must reach what hand annotation reached. Both the
//! speedup and comparison gates only assert on hosts with ≥ 4 cores;
//! plan discovery, verification, and calibration tightening assert
//! everywhere.
//!
//! A verify-only sweep over the nine-program suite closes E18: every
//! applied plan shadow-validated, zero rejections left in the session.
//! Results go to `target/BENCH_E18.json`.

use ped_bench::Table;
use ped_core::{autopilot, AutopilotConfig, NestPlan, Ped};
use ped_obs::json::Json;
use ped_perf::CalibrationState;
use ped_runtime::{interp, ExecConfig, Machine, ParallelMode};
use ped_workloads::all_programs;

/// Threads used for measurement (matches the E14 `meas(4)` column).
const THREADS: usize = 4;
/// Timed repeats; the minimum wall time is kept.
const REPEATS: usize = 3;

/// The E14 kernels, serial: the `parallel do` annotations (and their
/// clauses) replaced with plain `do`. The planner has to earn them back.
fn serial_kernels() -> Vec<(&'static str, String)> {
    let vscale = format!(
        "program vscale\n\
         integer n\n\
         parameter (n = {n})\n\
         real a(n), b(n)\n\
         real t\n\
         do i = 1, n\n\
           a(i) = 0.001 * i\n\
         enddo\n\
         do i = 1, n\n\
           t = a(i) * 2.0 + 1.0\n\
           b(i) = t * t + a(i)\n\
         enddo\n\
         print *, b(1), b(n / 2), b(n)\n\
         end\n",
        n = 150_000
    );
    let dotred = format!(
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
         do i = 1, n\n\
           s = s + a(i) * b(i)\n\
         enddo\n\
         print *, s\n\
         end\n",
        n = 200_000
    );
    let tri = format!(
        "program tri\n\
         integer n\n\
         parameter (n = {n})\n\
         real a(n), b(n)\n\
         real t\n\
         do i = 1, n\n\
           a(i) = 0.002 * i\n\
         enddo\n\
         do i = 1, n\n\
           t = 0.0\n\
           do j = 1, i\n\
             t = t + a(j) * 0.5\n\
           enddo\n\
           b(i) = t\n\
         enddo\n\
         print *, b(1), b(n / 2), b(n)\n\
         end\n",
        n = 1_200
    );
    vec![("vscale", vscale), ("dotred", dotred), ("tri", tri)]
}

/// Hand-annotated E14 variants of the same kernels (the annotations the
/// planner has to earn back), for the machine-vs-hand comparison. In all
/// three kernels the hot loop is the LAST `do i = 1, n` (the first is an
/// init loop), so the splice annotates the final occurrence.
fn hand_kernels() -> Vec<(&'static str, String)> {
    serial_kernels()
        .into_iter()
        .map(|(name, mut src)| {
            let clauses = match name {
                "vscale" => "lastprivate(t)",
                "dotred" => "reduction(+:s)",
                "tri" => "lastprivate(t, j)",
                other => panic!("unknown kernel {other}"),
            };
            let header = "do i = 1, n";
            let pos = src.rfind(header).expect("hot loop header present");
            src.replace_range(pos..pos + header.len(), &format!("parallel {header} {clauses}"));
            assert!(src.contains("parallel do"), "{name}: annotation splice failed");
            (name, src)
        })
        .collect()
}

/// Minimum whole-program wall time over `REPEATS` runs of `src`.
fn timed_wall(label: &str, src: &str, config: &ExecConfig) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..REPEATS {
        let t = std::time::Instant::now();
        interp::run_source(src, *config).unwrap_or_else(|e| panic!("{label}: {e}"));
        best = best.min((t.elapsed().as_nanos() as u64).max(1));
    }
    best
}

/// Measured speedup of an applied plan's parallel loop, from the loop
/// profile: minimum serial loop wall over `REPEATS` runs divided by the
/// minimum `Threads(THREADS)` loop wall (the E14 protocol). `None` when
/// the loop never shows up in the profile.
fn plan_speedup(ped: &Ped, plan: &NestPlan) -> Option<f64> {
    let par_header = plan.result_loops.iter().find(|&&(_, p)| p).map(|&(h, _)| h)?;
    let key = (plan.unit_name.clone(), par_header);
    let wall = |config: ExecConfig| -> Option<u64> {
        let walls: Option<Vec<u64>> = (0..REPEATS)
            .map(|_| Some(ped.run(config).ok()?.profile.get(&key)?.wall_ns))
            .collect();
        walls?.into_iter().min()
    };
    let serial = wall(ExecConfig::default())? as f64;
    let par = wall(ExecConfig { mode: ParallelMode::Threads(THREADS), ..ExecConfig::default() })?
        as f64;
    (serial > 0.0 && par > 0.0).then(|| serial / par)
}

/// Measured whole-program speedup of `src`: serial wall / Threads(N) wall.
fn measured_speedup(label: &str, src: &str) -> f64 {
    let serial = timed_wall(&format!("{label}/serial"), src, &ExecConfig::default());
    let threaded = timed_wall(
        &format!("{label}/threads{THREADS}"),
        src,
        &ExecConfig { mode: ParallelMode::Threads(THREADS), ..ExecConfig::default() },
    );
    serial as f64 / threaded as f64
}

fn main() {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("E18: autopilot — search, verify, measure, calibrate");
    println!("host cores: {cores} (speedup acceptance {})", if cores >= 4 { "ON" } else { "OFF" });

    let cfg = AutopilotConfig { machine: Machine::with_procs(THREADS), verify: true };

    let mut table =
        Table::new(&["kernel", "plan", "pred", "meas(4)", "hand(4)", "calib", "verdict"]);
    let mut plan_rows: Vec<Json> = Vec::new();
    let mut calibration = CalibrationState::new();
    let hand: Vec<(&str, f64)> = hand_kernels()
        .iter()
        .map(|(name, src)| (*name, measured_speedup(&format!("{name}/hand"), src)))
        .collect();

    for (name, src) in &serial_kernels() {
        let mut ped = Ped::open(src).unwrap();
        let out = autopilot(&mut ped, &cfg);
        assert!(out.notes.is_empty(), "{name}: {:?}", out.notes);
        assert!(out.stats.plans_applied > 0, "{name}: the planner found no plan");
        assert_eq!(out.stats.plans_rejected, 0, "{name}: a plan failed verification");

        // Bit-identity one more time, end to end: the transformed source
        // against the untransformed serial reference.
        let reference = interp::run_source(src, ExecConfig::default())
            .unwrap_or_else(|e| panic!("{name} serial: {e}"));
        let transformed = ped.source();
        let threaded = interp::run_source(
            &transformed,
            ExecConfig { mode: ParallelMode::Threads(THREADS), ..ExecConfig::default() },
        )
        .unwrap_or_else(|e| panic!("{name} threads: {e}"));
        assert_eq!(reference.printed, threaded.printed, "{name}: output diverged");

        // Every applied plan's loop, measured; the hot kernel loop's plan
        // is the one with the largest predicted speedup (the init loops
        // are smaller fry).
        let applied: Vec<_> = out
            .plans
            .iter()
            .filter(|p| p.applied)
            .map(|p| (p, plan_speedup(&ped, &p.plan)))
            .collect();
        let &(hot, hot_measured) = applied
            .iter()
            .max_by(|a, b| a.0.plan.predicted.total_cmp(&b.0.plan.predicted))
            .unwrap_or_else(|| panic!("{name}: no applied plan"));
        let measured =
            hot_measured.unwrap_or_else(|| panic!("{name}: hot plan was not measured"));
        let hand_mark = hand.iter().find(|(n, _)| n == name).expect("hand mark").1;
        if cores >= 4 {
            assert!(
                measured > 1.5,
                "{name}: autopilot plan only {measured:.2}x on a {cores}-core host"
            );
            assert!(
                measured >= hand_mark * 0.8,
                "{name}: autopilot {measured:.2}x fell far below the \
                 hand-parallelized mark {hand_mark:.2}x"
            );
        }
        for &(p, m) in &applied {
            if let Some(m) = m {
                calibration.record(p.plan.predicted, m);
            }
        }

        let plan_str = ped_core::autopilot::plan_text(
            &ped.program().units[hot.plan.unit],
            &hot.plan.steps,
        );
        let calib = CalibrationState::ratio(hot.plan.predicted, measured);
        table.row(vec![
            name.to_string(),
            plan_str.clone(),
            format!("{:.2}x", hot.plan.predicted),
            format!("{measured:.2}x"),
            format!("{hand_mark:.2}x"),
            format!("{calib:.2}"),
            hot.verdict.clone(),
        ]);
        plan_rows.push(Json::obj(vec![
            ("kernel", Json::str(name)),
            ("plan", Json::str(&plan_str)),
            ("strategy", Json::str(hot.plan.strategy)),
            ("predicted_speedup", Json::Num(hot.plan.predicted)),
            ("measured_speedup", Json::Num(measured)),
            ("hand_measured_speedup", Json::Num(hand_mark)),
            ("calibration_ratio", Json::Num(calib)),
            ("survived_check", Json::Bool(hot.applied)),
            ("plans_applied", Json::int(out.stats.plans_applied)),
            ("plans_rejected", Json::int(out.stats.plans_rejected)),
            ("candidates", Json::int(out.stats.candidates)),
        ]));
    }
    print!("{}", table.render());

    // Calibration must tighten (log-midpoint correction: provable) and,
    // post-calibration, every kernel plan must sit within 2x.
    let before = calibration.ratio_before();
    let after = calibration.ratio_after();
    assert!(
        after <= before + 1e-9,
        "calibration loosened the fit: {before:.3} -> {after:.3}"
    );
    if cores >= 4 {
        assert!(
            after <= 2.0,
            "post-calibration worst ratio {after:.2} exceeds 2x on a {cores}-core host"
        );
    }
    println!(
        "calibration: worst predicted-vs-measured ratio {before:.2} -> {after:.2} \
         over {} plan(s) (correction {:.3})",
        calibration.len(),
        calibration.correction()
    );

    // Verify-only sweep over the nine-program suite: every applied plan
    // shadow-validated, nothing left rejected in the session.
    let mut suite_rows = Vec::new();
    let mut suite_applied = 0u64;
    for w in all_programs() {
        let mut ped = Ped::open(w.source).unwrap();
        let out = autopilot(&mut ped, &cfg);
        assert!(out.notes.is_empty(), "{}: {:?}", w.name, out.notes);
        let report = ped
            .check(ExecConfig::default())
            .unwrap_or_else(|e| panic!("{}: shadow check: {e}", w.name));
        assert!(report.clean(), "{}: races after autopilot", w.name);
        suite_applied += out.stats.plans_applied;
        suite_rows.push(Json::obj(vec![
            ("program", Json::str(w.name)),
            ("candidates", Json::int(out.stats.candidates)),
            ("pruned_unsafe", Json::int(out.stats.pruned_unsafe)),
            ("pruned_unprofitable", Json::int(out.stats.pruned_unprofitable)),
            ("plans_applied", Json::int(out.stats.plans_applied)),
            ("plans_rejected", Json::int(out.stats.plans_rejected)),
            ("check_clean", Json::Bool(true)),
        ]));
    }
    assert!(suite_applied > 0, "the planner applied nothing across the whole suite");
    println!(
        "suite: {} program(s), {suite_applied} plan(s) applied, every session check-clean",
        suite_rows.len()
    );

    let doc = Json::obj(vec![
        ("bench", Json::str("E18")),
        ("schema_version", Json::int(1)),
        ("cores", Json::int(cores as u64)),
        ("speedup_asserted", Json::Bool(cores >= 4)),
        ("threads", Json::int(THREADS as u64)),
        ("plans_applied", Json::int(plan_rows.len() as u64)),
        ("calibration_ratio_before", Json::Num(before)),
        ("calibration_ratio_after", Json::Num(after)),
        ("calibration_correction", Json::Num(calibration.correction())),
        ("plans", Json::Arr(plan_rows)),
        ("suite", Json::Arr(suite_rows)),
    ]);
    let out =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/BENCH_E18.json");
    match std::fs::write(&out, doc.to_string_pretty()) {
        Ok(()) => println!("wrote {}", out.display()),
        Err(e) => println!("could not write {}: {e}", out.display()),
    }
}
