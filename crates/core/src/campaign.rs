//! `ped --campaign` — the high-throughput differential-fuzzing campaign
//! engine (E17).
//!
//! A campaign pushes every seed of a generated corpus through the full
//! trust pipeline: **generate → parse/analyze → autopar → shadow check →
//! bit-equality across engines and execution modes**. The last stage is
//! the execution oracle's [`check_modes`] against the check stage's
//! serial run; the autopilot verifies its plans through the same call.
//!
//! The engineering point is throughput: seeds are claimed from a shared
//! atomic counter by a fixed pool of workers (work stealing at seed
//! granularity — different seeds occupy different pipeline stages
//! concurrently), every worker recycles one [`Ped`] session and one
//! source buffer across all its seeds ([`Ped::reopen`] resets, it does
//! not rebuild), and all sessions share one content-addressed
//! [`PairCache`], so a subscript pair proved independent for seed 17 is a
//! cache hit for seed 901. Results stream to the aggregator over a
//! bounded channel, keeping memory O(workers), not O(corpus).
//!
//! Any discrepancy — a race verdict from the shadow checker, bit
//! divergence between engines/modes (whose detail names the mode and the
//! printed line or memory element where the runs part, with both values),
//! an analyzer panic, a parse or runtime error — is delta-debugged against
//! the same oracle down to a small reproducer that still fails with the
//! same verdict class, and (optionally) written to disk for regression
//! harvesting.

use crate::autopar::autoparallelize;
use crate::equiv::check_modes;
use crate::session::Ped;
use ped_dep::{CacheStats, PairCache};
use ped_obs::json::Json;
use ped_obs::{AutopilotReport, CampaignReport};
use ped_runtime::ExecConfig;
use ped_workloads::generator::{gen_source_into, GenConfig};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

/// Pipeline stages, in order; indexes into the per-stage timing arrays.
pub const STAGE_NAMES: [&str; 5] = ["generate", "analyze", "autopar", "check", "equivalence"];

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Seeds to run: `seed_start .. seed_start + seeds`.
    pub seeds: usize,
    /// First generator seed.
    pub seed_start: u64,
    /// Worker threads (0 = one per available core).
    pub workers: usize,
    /// Generator shape parameters; the `seed` field is overridden per seed.
    pub gen: GenConfig,
    /// Seeded-mutation mode: after autopar, strip this clause kind
    /// (`private` | `lastprivate` | `reduction`) from every `parallel do`
    /// header and validate the mutant — the checker must catch the
    /// reintroduced race, so a clean campaign over mutants is a FAILED
    /// campaign of the checker itself.
    pub mutate: Option<String>,
    /// Where minimized reproducers are written (`repro_seed<N>.f` plus a
    /// `.class.txt` sidecar naming the verdict class). None = don't write.
    pub repro_dir: Option<std::path::PathBuf>,
    /// Replace the push-button autopar stage with the autopilot planner:
    /// cost-model-driven transform search per nest (verification is left
    /// to the campaign's own check and equivalence stages, which cross-
    /// check whatever the planner applied).
    pub autopilot: bool,
    /// Oracle-call budget per minimization (ddmin candidates tried).
    pub minimize_budget: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seeds: 200,
            seed_start: 1,
            workers: 0,
            gen: GenConfig { units: 3, loops_per_unit: 4, stmts_per_loop: 3, extent: 12, seed: 0 },
            mutate: None,
            repro_dir: None,
            autopilot: false,
            minimize_budget: 300,
        }
    }
}

/// One confirmed discrepancy, minimized.
#[derive(Debug, Clone)]
pub struct Discrepancy {
    /// Generator seed that produced it.
    pub seed: u64,
    /// Stable verdict class, e.g. `race:missing-clause`,
    /// `divergence:memory`, `analyzer-panic`. Minimization preserves it.
    pub class: String,
    /// Human-readable detail from the failing oracle.
    pub detail: String,
    /// The failing program text (post-autopar/mutation when the failure
    /// happened after those stages).
    pub source: String,
    /// ddmin-reduced program that still fails with the same class.
    pub minimized: String,
    /// Where the reproducer was written, when `repro_dir` was set.
    pub repro_path: Option<String>,
}

/// Aggregated result of one campaign run.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Seeds run.
    pub seeds: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Total loops across all seeds' programs.
    pub loops_total: u64,
    /// Loops converted to `PARALLEL DO` by autopar.
    pub loops_parallelized: u64,
    /// The planner's search counters summed over clean seeds (zero unless
    /// the campaign ran `--autopilot`). The calibration ratios stay zero:
    /// the campaign never measures.
    pub autopilot: AutopilotReport,
    /// Per-stage nanoseconds summed across workers (CPU time, not wall).
    pub stage_ns: [u64; 5],
    /// Wall-clock nanoseconds for the whole campaign.
    pub elapsed_ns: u64,
    /// Conservatism histogram: (loops left serial in a seed's program →
    /// number of seeds), ascending.
    pub conservatism: Vec<(usize, u64)>,
    /// All discrepancies found, minimized.
    pub discrepancies: Vec<Discrepancy>,
    /// Campaign-wide shared pair-cache totals.
    pub cache: CacheStats,
}

impl CampaignOutcome {
    /// No discrepancies found.
    pub fn clean(&self) -> bool {
        self.discrepancies.is_empty()
    }

    /// End-to-end throughput in programs per wall-clock second.
    pub fn programs_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.seeds as f64 / (self.elapsed_ns as f64 / 1e9)
    }

    /// Per-stage throughput in programs per CPU-second spent in that
    /// stage (the per-stage split the E17 report tabulates).
    pub fn stage_programs_per_cpu_sec(&self) -> [f64; 5] {
        let mut out = [0.0; 5];
        for (i, &ns) in self.stage_ns.iter().enumerate() {
            if ns > 0 {
                out[i] = self.seeds as f64 / (ns as f64 / 1e9);
            }
        }
        out
    }

    /// The `campaign` profile block this run describes.
    pub fn campaign_report(&self) -> CampaignReport {
        CampaignReport {
            seeds: self.seeds as u64,
            loops_parallelized: self.loops_parallelized,
            discrepancies: self.discrepancies.len() as u64,
            reproducers: self
                .discrepancies
                .iter()
                .filter(|d| d.repro_path.is_some())
                .count() as u64,
            generate_ns: self.stage_ns[0],
            analyze_ns: self.stage_ns[1],
            autopar_ns: self.stage_ns[2],
            check_ns: self.stage_ns[3],
            equivalence_ns: self.stage_ns[4],
        }
    }

    /// Machine-readable summary (the body of `BENCH_E17.json`'s campaign
    /// section and of `ped --campaign --json`).
    pub fn to_json(&self) -> Json {
        let pps = self.stage_programs_per_cpu_sec();
        Json::obj(vec![
            ("seeds", Json::int(self.seeds as u64)),
            ("workers", Json::int(self.workers as u64)),
            ("loops_total", Json::int(self.loops_total)),
            ("loops_parallelized", Json::int(self.loops_parallelized)),
            ("discrepancies", Json::int(self.discrepancies.len() as u64)),
            ("elapsed_ns", Json::int(self.elapsed_ns)),
            ("programs_per_sec", Json::Num(self.programs_per_sec())),
            (
                "stages",
                Json::Arr(
                    STAGE_NAMES
                        .iter()
                        .enumerate()
                        .map(|(i, name)| {
                            Json::obj(vec![
                                ("stage", Json::str(name)),
                                ("ns", Json::int(self.stage_ns[i])),
                                ("programs_per_cpu_sec", Json::Num(pps[i])),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "conservatism",
                Json::Arr(
                    self.conservatism
                        .iter()
                        .map(|&(serial_left, seeds)| {
                            Json::obj(vec![
                                ("loops_left_serial", Json::int(serial_left as u64)),
                                ("seeds", Json::int(seeds)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("pair_cache_hits", Json::int(self.cache.hits)),
            ("pair_cache_misses", Json::int(self.cache.misses)),
            ("pair_cache_hit_rate", Json::Num(self.cache.hit_rate())),
            (
                "reproducers",
                Json::Arr(
                    self.discrepancies
                        .iter()
                        .map(|d| {
                            Json::obj(vec![
                                ("seed", Json::int(d.seed)),
                                ("class", Json::str(&d.class)),
                                ("detail", Json::str(&d.detail)),
                                (
                                    "minimized_lines",
                                    Json::int(d.minimized.lines().count() as u64),
                                ),
                                (
                                    "original_lines",
                                    Json::int(d.source.lines().count() as u64),
                                ),
                                (
                                    "path",
                                    match &d.repro_path {
                                        Some(p) => Json::str(p),
                                        None => Json::Null,
                                    },
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Per-seed record streamed from workers to the aggregator.
struct SeedOutcome {
    loops_total: usize,
    loops_parallelized: usize,
    autopilot: AutopilotReport,
    stage_ns: [u64; 5],
    discrepancy: Option<Discrepancy>,
}

/// Run a campaign. Deterministic modulo timing: the corpus, the verdicts,
/// and every reproducer depend only on the config.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignOutcome {
    let workers = if cfg.workers == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
    } else {
        cfg.workers
    };
    let shared = Arc::new(PairCache::new());
    if let Some(dir) = &cfg.repro_dir {
        let _ = std::fs::create_dir_all(dir);
    }
    let next = AtomicUsize::new(0);
    // Bounded: a stalled aggregator back-pressures workers instead of
    // buffering the whole corpus.
    let (tx, rx) = mpsc::sync_channel::<SeedOutcome>(workers * 2);
    let t0 = Instant::now();
    let mut outcome = std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let shared = &shared;
            scope.spawn(move || {
                // Worker-recycled state: one source buffer, one session.
                let mut buf = String::new();
                let mut session: Option<Ped> = None;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= cfg.seeds {
                        break;
                    }
                    let seed = cfg.seed_start + i as u64;
                    let out = run_seed(cfg, seed, shared, &mut buf, &mut session);
                    if tx.send(out).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        aggregate(rx, workers)
    });
    outcome.elapsed_ns = t0.elapsed().as_nanos() as u64;
    outcome.cache = shared.stats();
    outcome
}

fn aggregate(rx: mpsc::Receiver<SeedOutcome>, workers: usize) -> CampaignOutcome {
    let mut seeds = 0usize;
    let mut loops_total = 0u64;
    let mut loops_parallelized = 0u64;
    let mut autopilot = AutopilotReport::default();
    let mut stage_ns = [0u64; 5];
    let mut conservatism: BTreeMap<usize, u64> = BTreeMap::new();
    let mut discrepancies = Vec::new();
    for out in rx {
        seeds += 1;
        loops_total += out.loops_total as u64;
        loops_parallelized += out.loops_parallelized as u64;
        let a = &out.autopilot;
        autopilot.candidates += a.candidates;
        autopilot.pruned_unsafe += a.pruned_unsafe;
        autopilot.pruned_unprofitable += a.pruned_unprofitable;
        autopilot.plans_applied += a.plans_applied;
        autopilot.plans_rejected += a.plans_rejected;
        for (acc, ns) in stage_ns.iter_mut().zip(out.stage_ns) {
            *acc += ns;
        }
        *conservatism
            .entry(out.loops_total.saturating_sub(out.loops_parallelized))
            .or_insert(0) += 1;
        if let Some(d) = out.discrepancy {
            discrepancies.push(d);
        }
    }
    discrepancies.sort_by_key(|d| d.seed);
    CampaignOutcome {
        seeds,
        workers,
        loops_total,
        loops_parallelized,
        autopilot,
        stage_ns,
        elapsed_ns: 0,
        conservatism: conservatism.into_iter().collect(),
        discrepancies,
        cache: CacheStats { hits: 0, misses: 0 },
    }
}

/// Run one seed through the whole pipeline; minimize and record any
/// discrepancy.
fn run_seed(
    cfg: &CampaignConfig,
    seed: u64,
    shared: &Arc<PairCache>,
    buf: &mut String,
    session: &mut Option<Ped>,
) -> SeedOutcome {
    let mut stage_ns = [0u64; 5];
    let t = Instant::now();
    gen_source_into(buf, GenConfig { seed, ..cfg.gen });
    stage_ns[0] = t.elapsed().as_nanos() as u64;

    let result = pipeline(
        buf,
        cfg.mutate.as_deref(),
        true,
        cfg.autopilot,
        Some(shared),
        session,
        &mut stage_ns,
    );
    match result {
        Ok((loops_total, loops_parallelized, autopilot)) => SeedOutcome {
            loops_total,
            loops_parallelized,
            autopilot,
            stage_ns,
            discrepancy: None,
        },
        Err((class, detail, source)) => SeedOutcome {
            loops_total: 0,
            loops_parallelized: 0,
            autopilot: AutopilotReport::default(),
            stage_ns,
            discrepancy: Some(minimize_and_record(cfg, seed, shared, class, detail, source)),
        },
    }
}

/// The per-program oracle: analyze → \[autopar\] → (mutate) → shadow
/// check → cross-engine/mode bit-equality. `Ok((loops, parallelized,
/// planner counters))` on a clean pass; `Err((class, detail,
/// failing_source))` at the first discrepancy. Both the campaign workers and the minimizer run
/// candidates through this same function, so a reproducer fails the exact
/// oracle that flagged it — except that replay passes `autopar = false`:
/// the captured source is already post-autopar, and re-running the
/// parallelizer would regenerate the very clauses a seeded mutation
/// stripped, healing the reproducer.
#[allow(clippy::type_complexity)]
fn pipeline(
    src: &str,
    mutate: Option<&str>,
    autopar: bool,
    autopilot: bool,
    shared: Option<&Arc<PairCache>>,
    session: &mut Option<Ped>,
    stage_ns: &mut [u64; 5],
) -> Result<(usize, usize, AutopilotReport), (String, String, String)> {
    // Analyze: parse into the recycled session and fan out graph builds.
    let t = Instant::now();
    let loops_total = {
        let opened = catch_unwind(AssertUnwindSafe(|| match session.as_mut() {
            Some(p) => p.reopen(src),
            None => Ped::open(src).map(|mut p| {
                if let Some(cache) = shared {
                    p.set_pair_cache(Arc::clone(cache));
                }
                *session = Some(p);
            }),
        }));
        match opened {
            Err(panic) => {
                *session = None;
                return Err(("analyzer-panic".into(), panic_text(panic), src.to_string()));
            }
            Ok(Err(e)) => return Err(("parse-error".into(), e.to_string(), src.to_string())),
            Ok(Ok(())) => {}
        }
        let ped = session.as_mut().expect("session was just opened");
        match catch_unwind(AssertUnwindSafe(|| ped.analyze_all())) {
            Err(panic) => {
                *session = None;
                return Err(("analyzer-panic".into(), panic_text(panic), src.to_string()));
            }
            Ok(report) => report.loops,
        }
    };
    stage_ns[1] += t.elapsed().as_nanos() as u64;

    // Autopar: convert every provably-safe loop.
    let t = Instant::now();
    let ped = session.as_mut().expect("session is open");
    let (converted, planner) = if autopar && autopilot {
        // Planner-driven stage: search, score, apply. Verification is
        // deliberately off — the campaign's own check and equivalence
        // stages cross-check whatever the planner applied, which is the
        // whole point of fuzzing the autopilot.
        let cfg = crate::autopilot::AutopilotConfig {
            verify: false,
            ..crate::autopilot::AutopilotConfig::default()
        };
        match catch_unwind(AssertUnwindSafe(|| crate::autopilot::autopilot(ped, &cfg))) {
            Err(panic) => {
                *session = None;
                return Err(("analyzer-panic".into(), panic_text(panic), src.to_string()));
            }
            Ok(out) => (out.stats.plans_applied as usize, out.stats),
        }
    } else if autopar {
        match catch_unwind(AssertUnwindSafe(|| autoparallelize(ped))) {
            Err(panic) => {
                *session = None;
                return Err(("analyzer-panic".into(), panic_text(panic), src.to_string()));
            }
            Ok(n) => (n, AutopilotReport::default()),
        }
    } else {
        (0, AutopilotReport::default())
    };
    stage_ns[2] += t.elapsed().as_nanos() as u64;

    // Seeded mutation: undo one enabling ingredient in the program text
    // and re-open, exactly like the careless later edit it simulates.
    if let Some(kind) = mutate {
        let mutated = ped_workloads::racy::strip_clause(&ped.source(), kind);
        if let Err(e) = ped.reopen(&mutated) {
            return Err(("parse-error".into(), e.to_string(), mutated));
        }
    }

    // Shadow check: run once under the access logger (serial bytecode,
    // which is also the bit-equality reference) and diff observed
    // dependences against the static graphs.
    let t = Instant::now();
    let ped = session.as_mut().expect("session is open");
    let par_src = ped.source();
    let checked = catch_unwind(AssertUnwindSafe(|| ped.check_logged(ExecConfig::default())));
    let (report, run, memory) = match checked {
        Err(panic) => {
            *session = None;
            stage_ns[3] += t.elapsed().as_nanos() as u64;
            return Err(("analyzer-panic".into(), panic_text(panic), par_src));
        }
        Ok(Err(e)) => {
            stage_ns[3] += t.elapsed().as_nanos() as u64;
            return Err(("runtime-error:check".into(), e.to_string(), par_src));
        }
        Ok(Ok(r)) => r,
    };
    stage_ns[3] += t.elapsed().as_nanos() as u64;
    if !report.clean() {
        let first = report.races().next().expect("unclean report has a race");
        let class = format!("race:{}", verdict_class(&first.verdict));
        let detail = format!(
            "{} on {} in loop s{} of {}",
            first.verdict, first.var, first.header.0, first.unit
        );
        return Err((class, detail, par_src));
    }

    // Equivalence: the check stage's instrumented serial bytecode run is
    // the reference; every oracle mode must match it bit for bit.
    let t = Instant::now();
    let equiv = check_modes(ped, &(run, memory));
    stage_ns[4] += t.elapsed().as_nanos() as u64;
    match equiv {
        Ok(()) => Ok((loops_total, converted, planner)),
        Err(failure) => Err((failure.class(), failure.to_string(), par_src)),
    }
}

/// Replay a program — typically a written reproducer — against the
/// campaign oracle: analyze → shadow check → bit-equality, with autopar
/// disabled (the text is already parallelized; re-running the
/// parallelizer would regenerate clauses a seeded mutation stripped).
/// Returns the discrepancy `(class, detail)`, or `None` when clean.
pub fn classify(src: &str) -> Option<(String, String)> {
    let mut session = None;
    let mut ns = [0u64; 5];
    match pipeline(src, None, false, false, None, &mut session, &mut ns) {
        Err((class, detail, _)) => Some((class, detail)),
        Ok(_) => None,
    }
}

/// Stable slug for a race verdict class (minimization matches on it).
fn verdict_class(v: &crate::check::RaceVerdict) -> &'static str {
    use crate::check::RaceVerdict::*;
    match v {
        ContradictsDeletion(_) => "contradicts-deletion",
        ForcedParallel(_) => "forced-parallel",
        MissingClause => "missing-clause",
        InvalidArrayPrivatization => "invalid-array-privatization",
        MissedByAnalysis => "missed-by-analysis",
    }
}

/// The message a caught panic carried.
pub(crate) fn panic_text(panic: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic (non-string payload)".to_string()
    }
}

/// Delta-debug a failing program and write the reproducer.
fn minimize_and_record(
    cfg: &CampaignConfig,
    seed: u64,
    shared: &Arc<PairCache>,
    class: String,
    detail: String,
    source: String,
) -> Discrepancy {
    let mut budget = cfg.minimize_budget;
    let minimized = minimize(&source, &class, &mut budget, &mut |candidate| {
        // The minimization oracle is the same pipeline the campaign runs.
        // Mutation is NOT re-applied: the captured source already carries
        // the failure (mutated text included), and autopar on an already-
        // parallelized program leaves the marked loops alone.
        let mut session = None;
        let mut ns = [0u64; 5];
        match pipeline(candidate, None, false, false, Some(shared), &mut session, &mut ns) {
            Err((c, _, _)) => Some(c),
            Ok(_) => None,
        }
    });
    let repro_path = cfg.repro_dir.as_ref().map(|dir| {
        let path = dir.join(format!("repro_seed{seed}.f"));
        let _ = std::fs::write(&path, &minimized);
        let _ = std::fs::write(
            dir.join(format!("repro_seed{seed}.class.txt")),
            format!("{class}\n{detail}\n"),
        );
        path.display().to_string()
    });
    Discrepancy { seed, class, detail, source, minimized, repro_path }
}

/// ddmin over source lines: repeatedly try removing chunks; keep a
/// candidate only when the oracle reports the *same* discrepancy class
/// (candidates that fail differently — e.g. stop parsing — are rejected).
/// `budget` bounds oracle calls; returns the best reduction found.
pub fn minimize(
    src: &str,
    class: &str,
    budget: &mut usize,
    oracle: &mut dyn FnMut(&str) -> Option<String>,
) -> String {
    let mut lines: Vec<&str> = src.lines().collect();
    let mut granularity = 2usize;
    while lines.len() >= 2 && granularity <= lines.len() {
        let chunk = lines.len().div_ceil(granularity);
        let mut reduced = false;
        let mut start = 0;
        while start < lines.len() && chunk > 0 {
            if *budget == 0 {
                return join_lines(&lines);
            }
            let end = (start + chunk).min(lines.len());
            let candidate: Vec<&str> = lines[..start]
                .iter()
                .chain(lines[end..].iter())
                .copied()
                .collect();
            if candidate.is_empty() {
                start = end;
                continue;
            }
            *budget -= 1;
            if oracle(&join_lines(&candidate)).as_deref() == Some(class) {
                lines = candidate;
                granularity = granularity.saturating_sub(1).max(2);
                reduced = true;
                // Same start index now points at the next chunk.
            } else {
                start = end;
            }
        }
        if !reduced {
            if granularity >= lines.len() {
                break;
            }
            granularity = (granularity * 2).min(lines.len());
        }
    }
    join_lines(&lines)
}

fn join_lines(lines: &[&str]) -> String {
    let mut out = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
    for l in lines {
        out.push_str(l);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg(seeds: usize) -> CampaignConfig {
        CampaignConfig {
            seeds,
            seed_start: 1,
            workers: 2,
            gen: GenConfig { units: 2, loops_per_unit: 3, stmts_per_loop: 2, extent: 8, seed: 0 },
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn clean_campaign_over_trunk_generator() {
        let out = run_campaign(&tiny_cfg(20));
        assert_eq!(out.seeds, 20);
        assert!(out.clean(), "unexpected discrepancies: {:?}", out.discrepancies);
        assert!(out.loops_total > 0);
        assert!(out.loops_parallelized > 0);
        assert!(
            out.cache.hits > 0,
            "campaign-wide pair cache never hit: {:?}",
            out.cache
        );
        let hist_seeds: u64 = out.conservatism.iter().map(|&(_, n)| n).sum();
        assert_eq!(hist_seeds, 20);
        // Every stage was exercised and timed.
        for (name, ns) in STAGE_NAMES.iter().zip(out.stage_ns) {
            assert!(ns > 0, "stage {name} recorded no time");
        }
    }

    #[test]
    fn mutation_campaign_catches_and_minimizes_races() {
        let dir = std::env::temp_dir().join("ped_campaign_test_repro");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = CampaignConfig {
            mutate: Some("private".to_string()),
            repro_dir: Some(dir.clone()),
            minimize_budget: 120,
            ..tiny_cfg(6)
        };
        let out = run_campaign(&cfg);
        assert!(!out.clean(), "stripping private clauses must reintroduce races");
        for d in &out.discrepancies {
            // The reproducer still fails the same oracle with the same
            // verdict class, and minimization never grows the program.
            assert!(d.minimized.lines().count() <= d.source.lines().count());
            let mut session = None;
            let mut ns = [0u64; 5];
            let replay = pipeline(&d.minimized, None, false, false, None, &mut session, &mut ns);
            assert_eq!(
                replay.as_ref().err().map(|(c, _, _)| c.as_str()),
                Some(d.class.as_str()),
                "reproducer for seed {} lost its verdict class",
                d.seed
            );
            let path = d.repro_path.as_ref().expect("repro written");
            assert!(std::path::Path::new(path).exists());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn minimizer_shrinks_against_a_line_oracle() {
        // Oracle: "fails" with class "x" iff the text still contains both
        // marker lines; everything else is deletable.
        let src: String = (0..40)
            .map(|i| {
                if i == 7 || i == 31 {
                    format!("KEEP {i}\n")
                } else {
                    format!("filler {i}\n")
                }
            })
            .collect();
        let mut budget = 500;
        let min = minimize(&src, "x", &mut budget, &mut |s| {
            (s.contains("KEEP 7") && s.contains("KEEP 31")).then(|| "x".to_string())
        });
        assert!(min.contains("KEEP 7") && min.contains("KEEP 31"));
        assert!(
            min.lines().count() <= 4,
            "ddmin left {} lines:\n{min}",
            min.lines().count()
        );
    }

    #[test]
    fn autopilot_stage_stays_clean_under_the_oracle() {
        // The planner replaces the autopar stage; the campaign's own
        // check and equivalence stages must still find nothing wrong
        // with whatever plans it applied.
        let cfg = CampaignConfig { autopilot: true, ..tiny_cfg(12) };
        let out = run_campaign(&cfg);
        assert_eq!(out.seeds, 12);
        assert!(out.clean(), "autopilot discrepancies: {:?}", out.discrepancies);
        assert!(out.loops_total > 0);
        // The planner's counters reach the outcome: what it searched, and
        // one applied plan per parallelized loop.
        assert!(out.autopilot.candidates > 0, "{:?}", out.autopilot);
        assert_eq!(out.autopilot.plans_applied, out.loops_parallelized);
    }

    #[test]
    fn outcome_json_has_report_fields() {
        let out = run_campaign(&tiny_cfg(3));
        let j = out.to_json();
        for key in [
            "seeds",
            "loops_parallelized",
            "programs_per_sec",
            "stages",
            "conservatism",
            "pair_cache_hit_rate",
            "reproducers",
        ] {
            assert!(j.get(key).is_some(), "missing {key}");
        }
        let rep = out.campaign_report();
        assert_eq!(rep.seeds, 3);
        assert!(rep.analyze_ns > 0);
    }
}
