//! E13 — the interactive edit/transform/undo loop.
//!
//! The paper's core promise is editing-speed reanalysis: "the editor
//! updates the dependence information after each transformation". This
//! bench drives a live session through the steering loop — apply a
//! transformation, re-derive the affected graphs, undo, redo — over the
//! checked-in example programs and a generated multi-unit workload, and
//! measures per-op latency against the cost of a full from-scratch
//! reanalysis. Each program's op sequence is oracle-checked: the
//! incremental session's graphs must equal a fresh-from-source session's
//! (see `ped_core::equiv`), so every retention, resurrection, and
//! interprocedural fast-path decision taken along the way is validated.
//!
//! Results go to `target/BENCH_E13.json` (per-op medians plus the
//! session's incremental counters). The bench asserts the incremental
//! machinery actually engaged: graphs served from cache, at least one
//! whole-program interprocedural recompute skipped, and undo/redo cheaper
//! than the original apply path.
//!
//! A second section times `autoparallelize` on generated programs of 5,
//! 10, 20 and 40 concatenated copies (~1k to ~8k lines). Every converted
//! loop is one `apply`, so autopar time per converted loop is the cost of
//! one edit: it must stay flat as the program grows.

use ped_bench::harness::bench;
use ped_core::equiv::assert_matches_fresh;
use ped_core::{IncrementalReport, Ped};
use ped_obs::json::Json;
use ped_transform::Xform;
use ped_workloads::generator::{gen_concat_source, gen_source, GenConfig};
use std::hint::black_box;
use std::time::Instant;

fn graphs_of_unit(ped: &mut Ped, ui: usize) -> usize {
    let mut n = 0;
    for (h, _) in ped.loops(ui) {
        n += ped.graph(ui, h).unwrap().deps.len();
    }
    n
}

fn graphs_of_all(ped: &mut Ped) -> usize {
    let mut total = 0;
    for ui in 0..ped.program().units.len() {
        total += graphs_of_unit(ped, ui);
    }
    total
}

/// Drive one program through the interactive loop; returns its JSON row.
fn session_loop(name: &str, src: &str) -> Json {
    let lines = src.lines().count();
    println!("-- {name} ({lines} lines)");

    // Profiled session: the report's cache section (graphs built/reused)
    // goes into the JSON row alongside the incremental counters.
    let mut ped = Ped::open_profiled(src).unwrap();
    ped.analyze_all();
    // First loop of the program: the steering target.
    let (ui, h) = (0..ped.program().units.len())
        .find_map(|u| ped.loops(u).first().map(|&(h, _)| (u, h)))
        .expect("bench program has at least one loop");

    // Per-op latency of the steering loop's workhorse: apply a (always
    // applicable, summary-preserving) reversal and re-derive the edited
    // unit's graphs — what the editor does between two keystrokes.
    let apply_stats = bench(&format!("apply_reverse/{name}"), 10, || {
        ped.apply(ui, h, &Xform::Reverse).unwrap();
        black_box(graphs_of_unit(&mut ped, ui))
    });
    assert_matches_fresh(&mut ped, &format!("{name}: after apply sequence"));

    // Undo/redo round trip with graph re-derivation on both sides — the
    // near-free path: retired graphs resurrect by fingerprint.
    let undo_redo_stats = bench(&format!("undo_redo/{name}"), 10, || {
        assert!(ped.undo());
        let a = graphs_of_all(&mut ped);
        assert!(ped.redo());
        black_box(a + graphs_of_all(&mut ped))
    });
    assert_matches_fresh(&mut ped, &format!("{name}: after undo/redo sequence"));

    // Baseline: what the same answers cost without the incremental engine.
    let scratch_stats = bench(&format!("full_reanalysis/{name}"), 10, || {
        let mut fresh = Ped::open(src).unwrap();
        black_box(fresh.analyze_all().deps)
    });

    let inc = ped.incremental_stats();
    let cache = ped.profile_report().cache;
    println!(
        "   retained {} resurrected {} ip skipped {}/{} journal {}B (snapshots {}B)",
        inc.graphs_retained,
        inc.graphs_resurrected,
        inc.ip_recomputes_skipped,
        inc.ip_recomputes_skipped + inc.ip_recomputes,
        inc.journal_bytes,
        inc.snapshot_bytes
    );
    assert!(
        inc.graphs_resurrected > 0,
        "{name}: undo/redo never resurrected a retired graph ({inc:?})"
    );
    assert!(
        undo_redo_stats.median_ns() < 2 * scratch_stats.median_ns().max(1),
        "{name}: undo/redo round trip should beat two from-scratch reanalyses"
    );

    Json::obj(vec![
        ("program", Json::str(name)),
        ("lines", Json::int(lines as u64)),
        ("apply_median_ns", Json::int(apply_stats.median_ns() as u64)),
        ("undo_redo_median_ns", Json::int(undo_redo_stats.median_ns() as u64)),
        ("full_reanalysis_median_ns", Json::int(scratch_stats.median_ns() as u64)),
        ("graphs_built", Json::int(cache.graphs_built)),
        ("graphs_reused", Json::int(cache.graphs_reused)),
        ("incremental", inc.to_json()),
    ])
}

/// Autopar time per converted loop at each program size: the median of
/// three timed runs after one warm-up, each on a fresh session whose
/// graphs `analyze_all` has already built (only autopar is timed).
fn autopar_scaling() -> (Json, f64) {
    println!("-- autopar per converted loop vs program size");
    let mut rows = Vec::new();
    let mut per_loop = Vec::new();
    for copies in [5usize, 10, 20, 40] {
        let src = gen_concat_source(GenConfig::default(), copies);
        let lines = src.lines().count();
        let mut converted = 0;
        let mut ns: Vec<u128> = (0..4)
            .map(|_| {
                let mut ped = Ped::open(&src).unwrap();
                ped.analyze_all();
                let t0 = Instant::now();
                converted = ped_core::autoparallelize(&mut ped);
                t0.elapsed().as_nanos()
            })
            .skip(1)
            .collect();
        ns.sort_unstable();
        let median = ns[ns.len() / 2];
        let ms_per_loop = median as f64 / 1e6 / converted.max(1) as f64;
        let ms = median as f64 / 1e6;
        println!(
            "   {copies:>2} copies {lines:>5} lines {converted:>4} loops  \
             autopar {ms:>9.1} ms  {ms_per_loop:.3} ms/loop"
        );
        per_loop.push(ms_per_loop);
        rows.push(Json::obj(vec![
            ("copies", Json::int(copies as u64)),
            ("lines", Json::int(lines as u64)),
            ("loops_converted", Json::int(converted as u64)),
            ("autopar_median_ns", Json::int(median as u64)),
            ("autopar_ms_per_loop", Json::Num(ms_per_loop)),
        ]));
    }
    // 40 copies against 10: 1.0 is perfectly flat; whole-program work per
    // edit would make it about 4.
    let ratio = per_loop[3] / per_loop[1];
    println!("   per-loop cost, 40 vs 10 copies: {ratio:.2}x");
    (Json::Arr(rows), ratio)
}

fn main() {
    println!("E13: interactive edit/transform/undo loop");
    let mut rows: Vec<Json> = Vec::new();
    let mut totals = IncrementalReport::default();
    let mut graphs_reused = 0u64;

    let examples = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/fortran");
    let mut names: Vec<_> = std::fs::read_dir(&examples)
        .expect("examples/fortran exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "f"))
        .collect();
    names.sort();
    for path in names {
        let name = path.file_stem().unwrap().to_string_lossy().to_string();
        let src = std::fs::read_to_string(&path).unwrap();
        let row = session_loop(&name, &src);
        accumulate(&mut totals, &mut graphs_reused, &row);
        rows.push(row);
    }

    let gen_src = gen_source(GenConfig { units: 4, loops_per_unit: 4, ..GenConfig::default() });
    let row = session_loop("generated_4x4", &gen_src);
    accumulate(&mut totals, &mut graphs_reused, &row);
    rows.push(row);

    // Acceptance: the incremental engine must have engaged across the run.
    assert!(graphs_reused > 0, "no graph was ever served from cache");
    assert!(totals.graphs_resurrected > 0, "no graph was ever resurrected: {totals:?}");
    assert!(
        totals.ip_recomputes_skipped >= 1,
        "no interprocedural recompute was ever skipped: {totals:?}"
    );
    assert!(totals.journal_bytes < totals.snapshot_bytes, "journal not cheaper: {totals:?}");

    let (scaling, ratio) = autopar_scaling();
    // Loose enough for a noisy host, tight enough to catch per-edit work
    // that grows with the program again.
    assert!(ratio < 2.0, "autopar per converted loop grew {ratio:.2}x from 10 to 40 copies");

    let doc = Json::obj(vec![
        ("bench", Json::str("E13")),
        ("schema_version", Json::int(1)),
        ("graphs_reused", Json::int(graphs_reused)),
        ("graphs_resurrected", Json::int(totals.graphs_resurrected)),
        ("graphs_retained", Json::int(totals.graphs_retained)),
        ("ip_recomputes_skipped", Json::int(totals.ip_recomputes_skipped)),
        ("journal_bytes", Json::int(totals.journal_bytes)),
        ("snapshot_bytes", Json::int(totals.snapshot_bytes)),
        ("rows", Json::Arr(rows)),
        ("autopar_scaling", scaling),
        ("autopar_per_loop_ratio_40_vs_10", Json::Num(ratio)),
    ]);
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/BENCH_E13.json");
    match std::fs::write(&out, doc.to_string_pretty()) {
        Ok(()) => println!("wrote {}", out.display()),
        Err(e) => println!("could not write {}: {e}", out.display()),
    }
}

/// Pull a row's cache and incremental sections back into the running totals.
fn accumulate(totals: &mut IncrementalReport, graphs_reused: &mut u64, row: &Json) {
    *graphs_reused += row.get("graphs_reused").and_then(Json::as_u64).unwrap_or(0);
    let inc = row.get("incremental").expect("row has incremental section");
    let f = |k: &str| inc.get(k).and_then(Json::as_u64).unwrap_or(0);
    totals.graphs_retained += f("graphs_retained");
    totals.graphs_resurrected += f("graphs_resurrected");
    totals.ip_recomputes += f("ip_recomputes");
    totals.ip_recomputes_skipped += f("ip_recomputes_skipped");
    totals.journal_bytes += f("journal_bytes");
    totals.snapshot_bytes += f("snapshot_bytes");
}
