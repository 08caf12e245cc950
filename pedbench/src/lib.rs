//! Seeded benchmark of the ParaScope Editor reproduction.
//!
//! Three workloads, each a function of `--seed`:
//!
//! - `batch`: generated multi-unit programs of about 2,000 lines taken
//!   through open → `analyze_all` → `autoparallelize`; analysis and
//!   autopar do nearly all the work.
//! - `kernels`: three serial kernels, auto-parallelized during set-up and
//!   run serially and on `Threads(nproc)`; loop bodies, the pool and
//!   reduction replay do nearly all the work.
//! - `session`: `nproc` closed-loop clients drive one in-process daemon
//!   over the nine suite programs; incremental analysis with edits mixed
//!   into reads.
//!
//! Every workload runs the three sections ([`pipeline`], [`exec`],
//! [`serve`]) on its own programs; the workload decides which section gets
//! the measured time. The untraced run (`--trace 0`) reports the
//! [`END_TO_END`] metrics; the traced run (`--trace 1`) records spans
//! around each call into a layer and reports the [`PER_LAYER`] metrics.

pub mod exec;
pub mod inputs;
pub mod pipeline;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod workload;

use std::time::{Duration, Instant};

/// How long a section runs: until `time` has passed, but at least
/// `min_ops` operations.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub time: Duration,
    pub min_ops: usize,
}

impl Budget {
    pub fn secs(secs: f64, min_ops: usize) -> Budget {
        Budget {
            time: Duration::from_secs_f64(secs),
            min_ops,
        }
    }

    /// Should operation number `done` (0-based) still run?
    pub fn more(&self, start: Instant, done: usize) -> bool {
        done < self.min_ops || start.elapsed() < self.time
    }
}

/// Is operation `i`, cycling over `n` inputs, one of the traced half? Ops
/// alternate; with an even `n` the parity flips every pass so each input
/// is traced on alternate passes.
pub fn traced_turn(i: usize, n: usize) -> bool {
    let i = if n.is_multiple_of(2) { i + i / n } else { i };
    i % 2 == 1
}

/// Correctness checks made and the ones that failed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn fail(&mut self, what: String) {
        self.check(false, || what);
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Metrics of the untraced run, reported by every workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ok_frac", "ratio", "higher", 0.01),
    e2e("peak_rss_mb", "MiB", "lower", 0.25),
    e2e("batch_lines_per_s", "lines/s", "higher", 0.25),
    e2e("loops_parallelized", "count", "higher", 0.1),
    e2e("exec_serial_s", "s", "lower", 0.25),
    e2e("exec_threads_s", "s", "lower", 0.25),
    e2e("req_p50_us", "us", "lower", 0.25),
    e2e("req_p99_us", "us", "lower", 0.25),
    e2e("req_per_s", "req/s", "higher", 0.25),
];

/// Metrics of the traced run, reported by every workload.
pub const PER_LAYER: &[MetricDef] = &[
    layer("fortran.parse_ms", "ms", "lower"),
    layer("interproc.analyze_ms", "ms", "lower"),
    layer("analysis.unit_ms", "ms", "lower"),
    layer("dep.graph_ms", "ms", "lower"),
    layer("dep.graphs", "count", "higher"),
    layer("dep.edges", "count", "lower"),
    layer("dep.pair_cache_hit_ratio", "ratio", "higher"),
    layer("dep.pair_tests", "count", "lower"),
    layer("core.program_ms", "ms", "lower"),
    layer("core.analyze_all_ms", "ms", "lower"),
    layer("core.autopar_ms", "ms", "lower"),
    layer("core.autopar_ms_per_loop", "ms", "lower"),
    layer("transform.loops_converted", "count", "higher"),
    layer("runtime.lower_ms", "ms", "lower"),
    layer("runtime.serial_ms", "ms", "lower"),
    layer("runtime.threads_ms", "ms", "lower"),
    layer("runtime.par_loop_ms", "ms", "lower"),
    layer("runtime.speedup", "ratio", "higher"),
    layer("runtime.chunks", "count", "lower"),
    layer("runtime.chunks_stolen", "count", "lower"),
    layer("runtime.imbalance", "ratio", "lower"),
    layer("runtime.steps", "count", "lower"),
    layer("serve.open_p50_us", "us", "lower"),
    layer("serve.open_tail_us", "us", "lower"),
    layer("serve.analyze_p50_us", "us", "lower"),
    layer("serve.analyze_tail_us", "us", "lower"),
    layer("serve.suggest_p50_us", "us", "lower"),
    layer("serve.suggest_tail_us", "us", "lower"),
    layer("serve.transform_p50_us", "us", "lower"),
    layer("serve.transform_tail_us", "us", "lower"),
    layer("serve.undo_p50_us", "us", "lower"),
    layer("serve.undo_tail_us", "us", "lower"),
    layer("serve.redo_p50_us", "us", "lower"),
    layer("serve.redo_tail_us", "us", "lower"),
    layer("serve.check_p50_us", "us", "lower"),
    layer("serve.check_tail_us", "us", "lower"),
    layer("serve.close_p50_us", "us", "lower"),
    layer("serve.close_tail_us", "us", "lower"),
    layer("core.graph_reuse_ratio", "ratio", "higher"),
    layer("autopilot.candidates", "count", "higher"),
    layer("autopilot.pruned_unsafe", "count", "lower"),
    layer("autopilot.pruned_unprofitable", "count", "lower"),
    layer("check.loops_checked", "count", "higher"),
    layer("store.graphs_loaded", "count", "higher"),
    layer("store.graphs_persisted", "count", "higher"),
    layer("trace.overhead_us", "us", "lower"),
    layer("trace.unaccounted_us", "us", "lower"),
    layer("trace.spans", "count", "lower"),
];

/// The result line: `{"correct", "attempted", "failed", "metrics"}` with
/// every metric of `defs` present exactly once and finite, and no other.
/// Anything else is a benchmark bug and yields no line.
pub fn result_line(
    metrics: &[(&str, f64)],
    tally: &Tally,
    defs: &[MetricDef],
) -> Result<String, String> {
    let mut fields = Vec::new();
    for d in defs {
        let mut found = metrics.iter().filter(|(n, _)| *n == d.name);
        let (_, v) = found
            .next()
            .ok_or(format!("metric {} was not measured", d.name))?;
        if found.next().is_some() {
            return Err(format!("metric {} measured twice", d.name));
        }
        if !v.is_finite() {
            return Err(format!("metric {} is not finite: {v}", d.name));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            d.name, d.unit
        ));
    }
    if let Some((n, _)) = metrics
        .iter()
        .find(|(n, _)| !defs.iter().any(|d| d.name == *n))
    {
        return Err(format!("metric {n} is not declared"));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed() == 0,
        tally.attempted.max(1),
        tally.failed(),
        fields.join(", ")
    ))
}

/// Is `name` a valid metric name (`[A-Za-z0-9_.-]+`, leading letter or
/// digit, at most 64 characters)?
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
