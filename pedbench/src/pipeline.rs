//! The analysis pipeline section: each operation takes one input program
//! through `Ped::open` → `analyze_all` → `autoparallelize`, the path
//! `ped --batch --autopar` runs.

use crate::inputs::Input;
use crate::stats::median;
use crate::trace::{Ctx, Tracer};
use crate::{traced_turn, Budget, Tally};
use ped_core::{autoparallelize, build_unit_graph, Ped};
use ped_interproc::{IpAnalysis, IpFlags};
use std::hint::black_box;
use std::time::Instant;

/// One pipeline operation.
#[derive(Debug, Clone)]
pub struct Op {
    pub input: usize,
    pub ms: f64,
    pub traced: bool,
}

/// What the section did.
#[derive(Debug, Default)]
pub struct Pipeline {
    pub ops: Vec<Op>,
    /// Loops `autoparallelize` converted, per input.
    pub converted: Vec<usize>,
    /// The autoparallelized source of each input.
    pub parallel: Vec<String>,
}

impl Pipeline {
    /// Source lines per second: every input's lines over the sum of the
    /// inputs' median (untraced) operation times.
    pub fn lines_per_s(&self, inputs: &[Input]) -> f64 {
        let mut ms = vec![Vec::new(); inputs.len()];
        for o in self.ops.iter().filter(|o| !o.traced) {
            ms[o.input].push(o.ms);
        }
        let lines: usize = inputs.iter().map(Input::lines).sum();
        lines as f64 / (ms.iter().map(|v| median(v)).sum::<f64>() / 1e3)
    }

    pub fn loops_parallelized(&self) -> usize {
        self.converted.iter().sum()
    }
}

/// One untraced operation: open, analyze, autoparallelize.
fn op_bare(src: &str) -> Result<(Ped, usize), String> {
    let mut ped = Ped::open(src).map_err(|e| e.to_string())?;
    black_box(ped.analyze_all());
    let n = autoparallelize(&mut ped);
    Ok((ped, n))
}

/// The same operation with a span around each layer call.
fn op_traced(t: &Tracer, src: &str, req: u64) -> Result<(Ped, usize), String> {
    t.span("core.program", Ctx::root(req), |c| {
        let program = t.span("fortran.parse", c, |_| ped_fortran::parse_program(src));
        let mut ped = Ped::from_program(program.map_err(|e| e.to_string())?);
        t.span("core.analyze_all", c, |_| black_box(ped.analyze_all()));
        let n = t.span("core.autopar", c, |_| autoparallelize(&mut ped));
        Ok((ped, n))
    })
}

/// Run pipeline operations round-robin over `inputs` within `budget`.
/// With a tracer, every other operation is traced and the rest run bare,
/// so the traced run measures its own overhead.
pub fn run(
    inputs: &[Input],
    budget: Budget,
    tracer: Option<&Tracer>,
    req_base: u64,
    tally: &mut Tally,
) -> Pipeline {
    let mut out = Pipeline {
        converted: vec![0; inputs.len()],
        parallel: vec![String::new(); inputs.len()],
        ..Pipeline::default()
    };
    let start = Instant::now();
    let mut i = 0usize;
    let n = inputs.len();
    while i < n || budget.more(start, i) {
        let k = i % n;
        let traced = tracer.filter(|_| traced_turn(i, n));
        let t0 = Instant::now();
        let r = match traced {
            Some(t) => op_traced(t, &inputs[k].source, req_base + i as u64),
            None => op_bare(&inputs[k].source),
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match r {
            Ok((ped, conv)) => {
                if i < n {
                    out.converted[k] = conv;
                    out.parallel[k] = ped.source();
                }
                tally.check(conv == out.converted[k], || {
                    format!(
                        "{}: autopar converted {conv} loops, first pass {}",
                        inputs[k].name, out.converted[k]
                    )
                });
            }
            Err(e) => tally.fail(format!("{}: pipeline failed: {e}", inputs[k].name)),
        }
        out.ops.push(Op {
            input: k,
            ms,
            traced: traced.is_some(),
        });
        i += 1;
    }
    out
}

/// Layer counts from the probe of one input.
#[derive(Debug, Default, Clone, Copy)]
pub struct ProbeCounts {
    pub graphs: u64,
    pub edges: u64,
    pub pair_hits: u64,
    pub pair_misses: u64,
}

/// Time the layers under `analyze_all` one call at a time, from outside:
/// `IpAnalysis::analyze`, `UnitAnalysis::run` per unit, and
/// `build_unit_graph` per loop on one thread with a fresh pair cache.
/// The probe is its own request, so its spans never count toward the
/// pipeline operation's wall time.
pub fn probe(t: &Tracer, input: &Input, req: u64) -> Result<ProbeCounts, String> {
    let program = ped_fortran::parse_program(&input.source).map_err(|e| e.to_string())?;
    let ped = Ped::from_program(program);
    let program = ped.program();
    let mut counts = ProbeCounts::default();
    t.span("probe", Ctx::root(req), |c| {
        let ip = t.span("interproc.analyze", c, |_| IpAnalysis::analyze(program));
        for unit in &program.units {
            t.span("analysis.unit", c, |_| {
                black_box(ped_analysis::UnitAnalysis::run(unit))
            });
        }
        let cache = ped_dep::PairCache::new();
        for u in 0..program.units.len() {
            for (h, _) in ped.loops(u) {
                let g = t.span("dep.graph", c, |_| {
                    build_unit_graph(
                        program,
                        &ip,
                        u,
                        h,
                        IpFlags::all(),
                        false,
                        &[],
                        Some(&cache),
                        None,
                    )
                });
                counts.graphs += 1;
                counts.edges += g.deps.len() as u64;
            }
        }
        let st = cache.stats();
        counts.pair_hits = st.hits;
        counts.pair_misses = st.misses;
    });
    Ok(counts)
}
