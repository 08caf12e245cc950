//! The execution section: run each autoparallelized program on the
//! bytecode engine, serially and on `Threads(nproc)`, and compare every
//! run bit for bit with the tree walker's serial run of the original
//! (printed lines and final memory, less the scalars whose value after a
//! parallel loop the dialect leaves unspecified).

use crate::stats::median;
use crate::trace::{Ctx, Tracer};
use crate::{traced_turn, Budget, Tally};
use ped_fortran::{Program, StmtId, StmtKind};
use ped_runtime::{Engine, ExecConfig, Interp, MemorySnapshot, ParallelMode, RunResult};
use std::collections::HashSet;
use std::time::Instant;

/// What a program observably did: printed lines and final memory bits.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub printed: Vec<String>,
    pub memory: MemorySnapshot,
}

/// The correctness reference: the tree walker, serial. Also returns the
/// loop trips the run executed (iterations summed over every loop).
pub fn reference(src: &str) -> Result<(Outcome, u64), String> {
    let program = ped_fortran::parse_program(src).map_err(|e| e.to_string())?;
    let cfg = ExecConfig {
        engine: Engine::Tree,
        ..ExecConfig::default()
    };
    let (r, memory) = Interp::new(&program, cfg)
        .and_then(|i| i.run_with_memory())
        .map_err(|e| e.message)?;
    let trips = r.profile.values().map(|ls| ls.iterations).sum();
    Ok((
        Outcome {
            printed: r.printed,
            memory,
        },
        trips,
    ))
}

/// An autoparallelized program and the reference its runs must match.
pub struct Target {
    pub name: String,
    pub program: Program,
    pub reference: Outcome,
}

/// One execution job: lower (`Interp::new`) then run.
#[derive(Debug)]
pub struct Job {
    pub req: u64,
    pub input: usize,
    pub threads: bool,
    pub ms: f64,
    pub traced: bool,
    pub steps: u64,
    /// Wall time inside the program's `PARALLEL DO` loops.
    pub par_loop_ms: f64,
    pub chunks: u64,
    pub stolen: u64,
    pub imbalance: f64,
}

#[derive(Debug, Default)]
pub struct Exec {
    pub jobs: Vec<Job>,
    pub inputs: usize,
}

impl Exec {
    /// Untraced jobs' field `f` grouped by input, for one mode.
    fn per_input(&self, threads: bool, f: impl Fn(&Job) -> f64) -> Vec<Vec<f64>> {
        let mut v = vec![Vec::new(); self.inputs];
        for j in self
            .jobs
            .iter()
            .filter(|j| j.threads == threads && !j.traced)
        {
            v[j.input].push(f(j));
        }
        v
    }

    /// Sum over inputs of the median of `f` in one mode; with `f` the job
    /// time, the time to run every program once.
    pub fn round_sum(&self, threads: bool, f: impl Fn(&Job) -> f64) -> f64 {
        self.per_input(threads, f).iter().map(|v| median(v)).sum()
    }
}

/// Scalars of the main unit that are `private` but not `lastprivate` in
/// some parallel loop. The dialect leaves their value after the loop
/// unspecified, so memory comparisons skip them.
fn unspecified_privates(program: &Program) -> Vec<String> {
    let Some(main) = program.main() else {
        return Vec::new();
    };
    let mut names: Vec<String> = main
        .stmts
        .iter()
        .filter_map(|s| match &s.kind {
            StmtKind::Do(d) => d.parallel.as_ref(),
            _ => None,
        })
        .flat_map(|info| {
            info.private
                .iter()
                .filter(|p| !info.lastprivate.contains(p))
        })
        .map(|&p| main.symbols.name(p).to_string())
        .collect();
    names.sort();
    names.dedup();
    names
}

/// Do two final memories agree bit for bit, skipping `skip`'s scalars?
fn same_memory(a: &MemorySnapshot, b: &MemorySnapshot, skip: &[String]) -> bool {
    let keep = |e: &&(String, Vec<u64>)| !skip.contains(&e.0);
    a.iter().filter(keep).eq(b.iter().filter(keep))
}

/// `PARALLEL DO` headers of a program, keyed as in `RunResult::profile`.
fn parallel_loops(program: &Program) -> HashSet<(String, StmtId)> {
    let mut out = HashSet::new();
    for unit in &program.units {
        for s in &unit.stmts {
            if let StmtKind::Do(d) = &s.kind {
                if d.is_parallel() {
                    out.insert((unit.name.clone(), s.id));
                }
            }
        }
    }
    out
}

fn job(
    program: &Program,
    cfg: ExecConfig,
    tracer: Option<&Tracer>,
    req: u64,
) -> Result<(RunResult, MemorySnapshot), String> {
    let run_name = if matches!(cfg.mode, ParallelMode::Serial) {
        "runtime.serial"
    } else {
        "runtime.threads"
    };
    match tracer {
        None => Interp::new(program, cfg)
            .and_then(|i| i.run_with_memory())
            .map_err(|e| e.message),
        Some(t) => t.span("runtime.job", Ctx::root(req), |c| {
            let interp = t
                .span("runtime.lower", c, |_| Interp::new(program, cfg))
                .map_err(|e| e.message)?;
            t.span(run_name, c, |_| interp.run_with_memory())
                .map_err(|e| e.message)
        }),
    }
}

/// Run rounds (every program serial, then on `threads` workers) within
/// `budget`. With a tracer, odd rounds are traced.
pub fn run(
    targets: &[Target],
    threads: usize,
    budget: Budget,
    tracer: Option<&Tracer>,
    req_base: u64,
    tally: &mut Tally,
) -> Exec {
    let par: Vec<HashSet<(String, StmtId)>> =
        targets.iter().map(|t| parallel_loops(&t.program)).collect();
    let skips: Vec<Vec<String>> = targets
        .iter()
        .map(|t| unspecified_privates(&t.program))
        .collect();
    let mut out = Exec {
        inputs: targets.len(),
        ..Exec::default()
    };
    let start = Instant::now();
    let mut round = 0usize;
    let mut req = req_base;
    while budget.more(start, round) {
        let traced = tracer.filter(|_| traced_turn(round, 1));
        for (k, target) in targets.iter().enumerate() {
            for threaded in [false, true] {
                let mode = if threaded {
                    ParallelMode::Threads(threads)
                } else {
                    ParallelMode::Serial
                };
                let cfg = ExecConfig {
                    mode,
                    ..ExecConfig::default()
                };
                let t0 = Instant::now();
                let r = job(&target.program, cfg, traced, req);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                let job_req = req;
                req += 1;
                let (r, memory) = match r {
                    Ok(x) => x,
                    Err(e) => {
                        tally.fail(format!("{}: run failed: {e}", target.name));
                        continue;
                    }
                };
                tally.check(
                    r.printed == target.reference.printed
                        && same_memory(&memory, &target.reference.memory, &skips[k]),
                    || {
                        format!(
                            "{} ({}): output differs from the tree-walker reference",
                            target.name,
                            mode_name(threaded)
                        )
                    },
                );
                let par_loop_ns: u64 = r
                    .profile
                    .iter()
                    .filter(|(key, _)| par[k].contains(*key))
                    .map(|(_, ls)| ls.wall_ns)
                    .sum();
                out.jobs.push(Job {
                    req: job_req,
                    input: k,
                    threads: threaded,
                    ms,
                    traced: traced.is_some(),
                    steps: r.steps,
                    par_loop_ms: par_loop_ns as f64 / 1e6,
                    chunks: r.sched.chunks_executed,
                    stolen: r.sched.chunks_stolen,
                    imbalance: r.sched.imbalance_ratio(),
                });
            }
        }
        round += 1;
    }
    out
}

fn mode_name(threaded: bool) -> &'static str {
    if threaded {
        "threads"
    } else {
        "serial"
    }
}
