//! E17 — the `ped --campaign` differential-fuzzing campaign engine at
//! throughput.
//!
//! Three measurements, one artifact (`target/BENCH_E17.json`):
//!
//! 1. **Main campaign** — 1000 generated seeds through the full pipelined
//!    generate→analyze→autopar→check→bit-equality oracle on the
//!    work-stealing pool with one shared pair cache and recycled
//!    sessions. Asserted: every seed clean, every stage timed, and the
//!    campaign-wide pair-cache hit rate strictly positive (the shared
//!    cache is the architecture, not an option).
//! 2. **Seeded-fault campaign** — `--mutate private` over a small corpus:
//!    every mutant must be caught and delta-debugged to a reproducer that
//!    is no larger than the original and still on disk.
//! 3. **Concatenated-unit stress** — one `gen_concat_source` program of
//!    many namespaced copies analyzed in a single session, reporting
//!    source lines/sec through whole-program analysis.

use ped_bench::harness::fmt_ns;
use ped_core::campaign::STAGE_NAMES;
use ped_core::{CampaignConfig, Ped};
use ped_obs::json::Json;
use ped_obs::ProfileReport;
use ped_workloads::generator::{gen_concat_source, GenConfig};
use std::time::Instant;

/// Seeds in the main pipelined campaign (the E17 headline corpus).
const CAMPAIGN_SEEDS: usize = 1000;
/// Seeds in the seeded-fault (mutation) campaign.
const MUTANT_SEEDS: usize = 12;
/// Copies in the concatenated-unit stress program.
const CONCAT_COPIES: usize = 120;

fn gen_cfg() -> GenConfig {
    GenConfig { units: 3, loops_per_unit: 4, stmts_per_loop: 3, extent: 12, seed: 0 }
}

fn main() {
    println!("E17: differential-fuzzing campaign engine");
    println!("=========================================");

    // 1. Main pipelined campaign.
    let cfg = CampaignConfig {
        seeds: CAMPAIGN_SEEDS,
        seed_start: 1,
        gen: gen_cfg(),
        ..CampaignConfig::default()
    };
    let out = ped_core::run_campaign(&cfg);
    assert_eq!(out.seeds, CAMPAIGN_SEEDS);
    assert!(
        out.clean(),
        "trunk campaign found discrepancies: {:?}",
        out.discrepancies
    );
    assert!(
        out.cache.hits > 0 && out.cache.hit_rate() > 0.0,
        "campaign-wide pair cache never hit: {:?}",
        out.cache
    );
    let pps = out.stage_programs_per_cpu_sec();
    println!(
        "campaign: {} seeds on {} workers in {} — {:.1} programs/sec, \
         {}/{} loops parallelized, pair cache {:.1}% hit",
        out.seeds,
        out.workers,
        fmt_ns(out.elapsed_ns as u128),
        out.programs_per_sec(),
        out.loops_parallelized,
        out.loops_total,
        out.cache.hit_rate() * 100.0
    );
    for (i, name) in STAGE_NAMES.iter().enumerate() {
        assert!(out.stage_ns[i] > 0, "stage {name} recorded no time");
        println!("  stage {name:<12} {:>12}  {:>10.1} programs/cpu-sec", fmt_ns(out.stage_ns[i] as u128), pps[i]);
    }
    print!("  conservatism (loops left serial -> seeds):");
    for &(left, n) in &out.conservatism {
        print!("  {left}:{n}");
    }
    println!();

    // 2. Seeded-fault campaign: strip private clauses, demand the checker
    // catches every mutant and minimization preserves the verdict.
    let repro_dir =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/e17_repros");
    let _ = std::fs::remove_dir_all(&repro_dir);
    let mutant_cfg = CampaignConfig {
        seeds: MUTANT_SEEDS,
        seed_start: 1,
        gen: gen_cfg(),
        mutate: Some("private".to_string()),
        repro_dir: Some(repro_dir.clone()),
        ..CampaignConfig::default()
    };
    let mutants = ped_core::run_campaign(&mutant_cfg);
    assert!(
        !mutants.clean(),
        "seeded private-clause faults went entirely unnoticed"
    );
    let mut total_before = 0usize;
    let mut total_after = 0usize;
    for d in &mutants.discrepancies {
        let before = d.source.lines().count();
        let after = d.minimized.lines().count();
        assert!(after <= before, "minimizer grew seed {}", d.seed);
        let path = d.repro_path.as_ref().expect("repro_dir was set");
        assert!(std::path::Path::new(path).exists(), "missing reproducer {path}");
        total_before += before;
        total_after += after;
    }
    println!(
        "mutation: {}/{} mutants caught; minimized {} -> {} lines total ({} reproducers in {})",
        mutants.discrepancies.len(),
        mutants.seeds,
        total_before,
        total_after,
        mutants.discrepancies.len(),
        repro_dir.display()
    );

    // 3. Concatenated-unit stress: one giant multi-copy program through
    // whole-program analysis in a single session.
    let concat = gen_concat_source(gen_cfg(), CONCAT_COPIES);
    let concat_lines = concat.lines().count();
    let t0 = Instant::now();
    let mut ped = Ped::open(&concat).expect("concatenated program parses");
    let batch = ped.analyze_all();
    let concat_ns = t0.elapsed().as_nanos() as u64;
    assert!(batch.loops > 0 && batch.units > CONCAT_COPIES);
    let lines_per_sec = concat_lines as f64 / (concat_ns as f64 / 1e9);
    println!(
        "concat: {CONCAT_COPIES} copies, {concat_lines} lines, {} units, {} loops analyzed in {} ({:.0} lines/sec)",
        batch.units,
        batch.loops,
        fmt_ns(concat_ns as u128),
        lines_per_sec
    );

    // Artifact: campaign summary + a profile report whose `campaign`
    // section CI schema-checks.
    let mut report = ProfileReport::empty();
    report.campaign = out.campaign_report();
    report.cache.pair_hits = out.cache.hits;
    report.cache.pair_misses = out.cache.misses;
    let parsed = ProfileReport::from_json(&report.to_json()).expect("profile round-trips");
    assert_eq!(parsed.campaign, report.campaign);

    let doc = Json::obj(vec![
        ("experiment", Json::str("E17")),
        ("campaign", out.to_json()),
        (
            "mutation",
            Json::obj(vec![
                ("seeds", Json::int(mutants.seeds as u64)),
                ("caught", Json::int(mutants.discrepancies.len() as u64)),
                ("minimized_lines_before", Json::int(total_before as u64)),
                ("minimized_lines_after", Json::int(total_after as u64)),
            ]),
        ),
        (
            "concat",
            Json::obj(vec![
                ("copies", Json::int(CONCAT_COPIES as u64)),
                ("lines", Json::int(concat_lines as u64)),
                ("units", Json::int(batch.units as u64)),
                ("loops", Json::int(batch.loops as u64)),
                ("analyze_ns", Json::int(concat_ns)),
                ("lines_per_sec", Json::Num(lines_per_sec)),
            ]),
        ),
        ("profile", report.to_json()),
    ]);
    let out_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/BENCH_E17.json");
    match std::fs::write(&out_path, doc.to_string_pretty()) {
        Ok(()) => println!("wrote {}", out_path.display()),
        Err(e) => println!("could not write {}: {e}", out_path.display()),
    }
}
