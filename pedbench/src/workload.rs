//! The three workloads: set-up, the measured run, correctness checks and
//! the metrics.

use crate::exec::{self, Exec};
use crate::inputs::{self, Input};
use crate::pipeline::{self, Pipeline, ProbeCounts};
use crate::serve::{self, Serve, VERBS};
use crate::stats::{median, tail, Tail};
use crate::trace::{self, Tracer};
use crate::{Budget, Tally};
use ped_core::{Daemon, GraphStore, Ped};
use ped_obs::json::Json;
use ped_runtime::{ExecConfig, Interp, ParallelMode};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    Batch,
    Kernels,
    Session,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Batch, Workload::Kernels, Workload::Session];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Batch => "batch",
            Workload::Kernels => "kernels",
            Workload::Session => "session",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The workload's programs for `seed`.
    pub fn inputs(self, seed: u64) -> Vec<Input> {
        match self {
            Workload::Batch => inputs::batch_corpus(seed),
            Workload::Kernels => inputs::kernels(seed),
            Workload::Session => inputs::suite(),
        }
    }
}

/// Checked command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory for the graph store and the trace file.
    pub out_dir: PathBuf,
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// What a finished run reports.
pub struct Report {
    pub metrics: Vec<(&'static str, f64)>,
    pub tally: Tally,
    pub provenance: Vec<(&'static str, Json)>,
}

/// State a set-up leaves for the run.
struct Prepared {
    inputs: Vec<Input>,
    /// Autoparallelized sources made during set-up (`kernels`).
    parallel: Option<Vec<String>>,
    /// The warmed-up daemon (`session`).
    daemon: Option<Daemon>,
    tally: Tally,
}

/// A daemon persisting to a fresh graph store in `dir`.
fn open_store_daemon(dir: &Path) -> Result<Daemon, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    let store =
        GraphStore::open(dir).map_err(|e| format!("opening store {}: {e}", dir.display()))?;
    Ok(Daemon::new(Some(store)))
}

fn autopar_source(src: &str) -> Result<String, String> {
    let mut ped = Ped::open(src).map_err(|e| e.to_string())?;
    ped.analyze_all();
    ped_core::autoparallelize(&mut ped);
    Ok(ped.source())
}

/// Generate the inputs, do the set-up work a user pays once, and warm up.
fn setup(args: &Args, threads: usize) -> Result<Prepared, String> {
    let inputs = args.workload.inputs(args.seed);
    let mut p = Prepared {
        inputs,
        parallel: None,
        daemon: None,
        tally: Tally::default(),
    };
    match args.workload {
        Workload::Batch => {
            black_box(autopar_source(&p.inputs[0].source)?);
        }
        Workload::Kernels => {
            let parallel: Vec<String> = p
                .inputs
                .iter()
                .map(|i| autopar_source(&i.source))
                .collect::<Result<_, _>>()?;
            for src in &parallel {
                let program = ped_fortran::parse_program(src).map_err(|e| e.to_string())?;
                for mode in [ParallelMode::Serial, ParallelMode::Threads(threads)] {
                    let cfg = ExecConfig {
                        mode,
                        ..ExecConfig::default()
                    };
                    black_box(
                        Interp::new(&program, cfg)
                            .and_then(|i| i.run())
                            .map_err(|e| e.message)?,
                    );
                }
            }
            p.parallel = Some(parallel);
        }
        Workload::Session => {
            let daemon = Daemon::new(None);
            let orders = inputs::client_orders(args.seed, threads, p.inputs.len());
            let warm = Budget::secs(0.0, p.inputs.len());
            let mode = serve::Mode::Timed(warm, None);
            serve::run(&daemon, &p.inputs, &orders, threads, mode, &mut p.tally);
            p.daemon = Some(daemon);
        }
    }
    Ok(p)
}

/// Peak resident set size of this process (MiB), from `/proc`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The sections' budgets: the workload's own section gets the measured
/// time (half of it when traced); the others get a short slice.
struct Plan {
    pipeline: Budget,
    exec: Budget,
    /// Session budget per client and the clients to run. Only the traced
    /// run probes the daemon on `batch` and `kernels`, with one client on
    /// the first program: a session script on a 2,000-line program takes
    /// seconds.
    serve: Option<(Budget, usize)>,
}

fn plan(w: Workload, secs: f64, traced: bool, n: usize, threads: usize) -> Plan {
    let main = if traced { secs / 2.0 } else { secs };
    let side = if traced { secs / 4.0 } else { secs * 0.15 };
    match w {
        // Threaded runs of the generated programs dispatch tens of
        // thousands of small chunks and scatter widely; batch gives them
        // more rounds so the per-program medians settle.
        Workload::Batch => Plan {
            pipeline: Budget::secs(main, 2 * n),
            exec: Budget::secs(side * 3.0, 8),
            serve: traced.then(|| (Budget::secs(0.0, 2), 1)),
        },
        Workload::Kernels => Plan {
            pipeline: Budget::secs(side / 4.0, 100 * n),
            exec: Budget::secs(main, 5),
            serve: traced.then(|| (Budget::secs(0.0, 2), 1)),
        },
        Workload::Session => Plan {
            pipeline: Budget::secs(side, 3 * n),
            exec: Budget::secs(side, 10),
            serve: Some((Budget::secs(main, n), threads)),
        },
    }
}

/// First request ids of the sections, so their spans never share one
/// (session requests are `client << 32 | n`, far below these).
const PIPELINE_REQ: u64 = 1 << 40;
const EXEC_REQ: u64 = 2 << 40;
const PROBE_REQ: u64 = 3 << 40;

/// Everything the sections produced.
struct Sections {
    pipeline: Pipeline,
    exec: Exec,
    serve: Option<Serve>,
    probes: Vec<ProbeCounts>,
    trips: Vec<u64>,
}

pub fn run(args: &Args) -> Result<Report, String> {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let threads = cores;
    let w = args.workload;

    let mut setup_s = Vec::new();
    let mut prepared: Option<Prepared> = None;
    for _ in 0..SETUP_REPS {
        drop(prepared.take());
        let t0 = Instant::now();
        prepared = Some(setup(args, threads)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let p = prepared.expect("at least one set-up ran");
    let mut tally = Tally::default();
    tally.absorb(p.tally);

    let tracer = args.trace.then(Tracer::default);
    let t = tracer.as_ref();
    let plan = plan(w, args.seconds, args.trace, p.inputs.len(), threads);

    // The serve section runs first so the session workload measures it
    // right after set-up. The measured daemon keeps graphs in memory only:
    // with a store on disk every `close` rewrites each unchanged graph
    // file, and the replace-by-rename waits on the disk (0.4-0.7 s per
    // close on a shared virtual disk), so the figures would measure the
    // disk. The store is exercised by the verification at the end instead.
    let serve_programs = if w == Workload::Session {
        &p.inputs[..]
    } else {
        &p.inputs[..1]
    };
    let mut serve = plan.serve.map(|(budget, clients)| {
        let own;
        let daemon = match &p.daemon {
            Some(d) => d,
            None => {
                own = Daemon::new(None);
                &own
            }
        };
        let orders = inputs::client_orders(args.seed, clients, serve_programs.len());
        let mode = serve::Mode::Timed(budget, t);
        serve::run(daemon, serve_programs, &orders, threads, mode, &mut tally)
    });

    let pipe = pipeline::run(&p.inputs, plan.pipeline, t, PIPELINE_REQ, &mut tally);
    if let Some(parallel) = &p.parallel {
        tally.check(&pipe.parallel == parallel, || {
            "autopar output differs from the set-up's".to_string()
        });
    }
    let mut trips = Vec::new();
    let mut targets = Vec::new();
    for (k, input) in p.inputs.iter().enumerate() {
        let (reference, n) = exec::reference(&input.source)?;
        // The autoparallelized program must print the same lines and leave
        // bit-identical memory under the serial tree walker.
        let (parallel, _) = exec::reference(&pipe.parallel[k])?;
        tally.check(parallel == reference, || {
            format!(
                "{}: autoparallelized program changed its output",
                input.name
            )
        });
        trips.push(n);
        targets.push(exec::Target {
            name: input.name.clone(),
            program: ped_fortran::parse_program(&pipe.parallel[k]).map_err(|e| e.to_string())?,
            reference,
        });
    }
    let exec = exec::run(&targets, threads, plan.exec, t, EXEC_REQ, &mut tally);
    let probes = match t {
        Some(t) => p
            .inputs
            .iter()
            .enumerate()
            .map(|(k, i)| pipeline::probe(t, i, PROBE_REQ + k as u64))
            .collect::<Result<_, _>>()?,
        None => Vec::new(),
    };
    // Untimed, after every measurement: one client runs the script over
    // the programs twice against a daemon with a graph store, comparing
    // final graphs with a fresh session's. The second pass loads the graphs
    // of every loop the first pass left unchanged.
    if let Some(s) = &mut serve {
        let stored = open_store_daemon(&args.out_dir.join("store"))?;
        let order = inputs::client_orders(args.seed, 1, serve_programs.len());
        let mut episodes = 0;
        for _ in 0..2 {
            episodes += serve::run(
                &stored,
                serve_programs,
                &order,
                threads,
                serve::Mode::Verify,
                &mut tally,
            )
            .counts
            .episodes;
        }
        let st = stored.stats();
        s.store_loaded_per_episode = st.graphs_loaded as f64 / episodes.max(1) as f64;
        s.store_persisted_per_episode = st.graphs_persisted as f64 / episodes.max(1) as f64;
    }
    let sec = Sections {
        pipeline: pipe,
        exec,
        serve,
        probes,
        trips,
    };

    let mut provenance = vec![
        ("workload", Json::str(w.name())),
        ("seed", Json::int(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("available_parallelism", Json::int(cores as u64)),
        ("threads", Json::int(threads as u64)),
        (
            "clients",
            Json::int(sec.serve.as_ref().map_or(0, |s| s.clients as u64)),
        ),
        (
            "setup_reps",
            Json::Arr(setup_s.iter().map(|&s| Json::Num(s)).collect()),
        ),
        ("inputs", inputs_json(&p.inputs, &sec)),
    ];
    let metrics = match t {
        None => end_to_end(
            w,
            &p.inputs,
            &sec,
            median(&setup_s),
            &tally,
            &mut provenance,
        )?,
        Some(t) => {
            let spans = t.spans();
            let path = args
                .out_dir
                .join(format!("trace-{}-seed{}.json", w.name(), args.seed));
            trace::write_chrome(&spans, &path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            provenance.push(("trace_file", Json::str(&path.display().to_string())));
            per_layer(w, &sec, &spans, &mut provenance)
        }
    };
    provenance.push((
        "failures",
        Json::Arr(
            tally
                .failures
                .iter()
                .take(20)
                .map(|f| Json::str(f))
                .collect(),
        ),
    ));
    Ok(Report {
        metrics,
        tally,
        provenance,
    })
}

fn inputs_json(inputs: &[Input], sec: &Sections) -> Json {
    Json::Arr(
        inputs
            .iter()
            .enumerate()
            .map(|(k, i)| {
                Json::obj(vec![
                    ("name", Json::str(&i.name)),
                    ("lines", Json::int(i.lines() as u64)),
                    ("loops", Json::int(loop_count(&i.source) as u64)),
                    ("trips", Json::int(sec.trips[k])),
                    ("parallelized", Json::int(sec.pipeline.converted[k] as u64)),
                ])
            })
            .collect(),
    )
}

fn loop_count(src: &str) -> usize {
    Ped::open(src).map_or(0, |ped| {
        (0..ped.program().units.len())
            .map(|u| ped.loops(u).len())
            .sum()
    })
}

fn tail_json(t: &Tail) -> Json {
    Json::obj(vec![
        ("percentile", Json::Num(t.percentile)),
        ("samples", Json::int(t.samples as u64)),
    ])
}

/// The highest-percentile tail (p99 or lower, see [`tail`]).
fn tail_of(xs: &[f64]) -> Result<Tail, String> {
    tail(xs, 99.0)
        .ok_or_else(|| format!("only {} samples: too few for a tail percentile", xs.len()))
}

fn end_to_end(
    w: Workload,
    inputs: &[Input],
    sec: &Sections,
    setup_s: f64,
    tally: &Tally,
    prov: &mut Vec<(&'static str, Json)>,
) -> Result<Vec<(&'static str, f64)>, String> {
    // The workload's own operations: one program pipeline, one threaded
    // kernel run, or one daemon request. A single sequential client
    // completes one per median latency; the session's concurrent clients
    // are counted in half-second windows.
    let (lat_us, req_per_s): (Vec<f64>, f64) = match w {
        Workload::Batch => {
            let v: Vec<f64> = sec.pipeline.ops.iter().map(|o| o.ms * 1e3).collect();
            let rate = 1e6 / median(&v);
            (v, rate)
        }
        Workload::Kernels => {
            let v: Vec<f64> = sec
                .exec
                .jobs
                .iter()
                .filter(|j| j.threads)
                .map(|j| j.ms * 1e3)
                .collect();
            let rate = 1e6 / median(&v);
            (v, rate)
        }
        Workload::Session => {
            let s = sec.serve.as_ref().expect("session runs the serve section");
            (s.requests.iter().map(|r| r.us).collect(), s.req_per_s())
        }
    };
    let t = tail_of(&lat_us)?;
    prov.push(("req_tail", tail_json(&t)));
    let ok_frac = 1.0 - tally.failed() as f64 / tally.attempted.max(1) as f64;
    Ok(vec![
        ("setup_s", setup_s),
        ("ok_frac", ok_frac),
        ("peak_rss_mb", peak_rss_mb()?),
        ("batch_lines_per_s", sec.pipeline.lines_per_s(inputs)),
        (
            "loops_parallelized",
            sec.pipeline.loops_parallelized() as f64,
        ),
        ("exec_serial_s", sec.exec.round_sum(false, |j| j.ms) / 1e3),
        ("exec_threads_s", sec.exec.round_sum(true, |j| j.ms) / 1e3),
        ("req_p50_us", median(&lat_us)),
        ("req_p99_us", t.value),
        ("req_per_s", req_per_s),
    ])
}

/// Median of the per-input medians of per-request span self times, summed
/// over inputs: the cost of one pass over the programs.
fn exec_span_round_ms(exec: &Exec, spans: &[trace::Span], name: &str, threads: bool) -> f64 {
    let by_req = trace::self_ms_by_req(spans, name);
    let mut per_input = vec![Vec::new(); exec.inputs];
    for j in exec.jobs.iter().filter(|j| j.threads == threads) {
        if let Some(&ms) = by_req.get(&j.req) {
            per_input[j.input].push(ms);
        }
    }
    per_input
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| median(v))
        .sum()
}

fn med_or_zero(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        median(xs)
    }
}

fn per_layer(
    w: Workload,
    sec: &Sections,
    spans: &[trace::Span],
    prov: &mut Vec<(&'static str, Json)>,
) -> Vec<(&'static str, f64)> {
    let n = sec.probes.len().max(1) as f64;
    let per_req = |name: &str| med_or_zero(&trace::self_ms_per_req(spans, name));
    let mut m: Vec<(&'static str, f64)> = Vec::new();

    // Pipeline layers, per program.
    let sum = |f: fn(&ProbeCounts) -> u64| sec.probes.iter().map(f).sum::<u64>() as f64;
    let tests = sum(|p| p.pair_hits + p.pair_misses);
    m.push(("fortran.parse_ms", per_req("fortran.parse")));
    m.push(("interproc.analyze_ms", per_req("interproc.analyze")));
    m.push(("analysis.unit_ms", per_req("analysis.unit")));
    m.push(("dep.graph_ms", per_req("dep.graph")));
    m.push(("dep.graphs", sum(|p| p.graphs) / n));
    m.push(("dep.edges", sum(|p| p.edges) / n));
    m.push((
        "dep.pair_cache_hit_ratio",
        sum(|p| p.pair_hits) / tests.max(1.0),
    ));
    m.push(("dep.pair_tests", tests / n));
    m.push((
        "core.program_ms",
        med_or_zero(&trace::durations_ms(spans, "core.program")),
    ));
    m.push(("core.analyze_all_ms", per_req("core.analyze_all")));
    m.push(("core.autopar_ms", per_req("core.autopar")));
    let converted: usize = sec
        .pipeline
        .ops
        .iter()
        .filter(|o| o.traced)
        .map(|o| sec.pipeline.converted[o.input])
        .sum();
    let autopar_total: f64 = trace::durations_ms(spans, "core.autopar").iter().sum();
    m.push((
        "core.autopar_ms_per_loop",
        autopar_total / converted.max(1) as f64,
    ));
    m.push((
        "transform.loops_converted",
        sec.pipeline.loops_parallelized() as f64 / n,
    ));

    // Runtime layers, per pass over the programs.
    let ex = &sec.exec;
    let serial_ms = exec_span_round_ms(ex, spans, "runtime.serial", false);
    let threads_ms = exec_span_round_ms(ex, spans, "runtime.threads", true);
    let lower_ms = (exec_span_round_ms(ex, spans, "runtime.lower", false)
        + exec_span_round_ms(ex, spans, "runtime.lower", true))
        / 2.0;
    m.push(("runtime.lower_ms", lower_ms));
    m.push(("runtime.serial_ms", serial_ms));
    m.push(("runtime.threads_ms", threads_ms));
    m.push(("runtime.par_loop_ms", ex.round_sum(true, |j| j.par_loop_ms)));
    m.push(("runtime.speedup", serial_ms / threads_ms));
    m.push(("runtime.chunks", ex.round_sum(true, |j| j.chunks as f64)));
    m.push((
        "runtime.chunks_stolen",
        ex.round_sum(true, |j| j.stolen as f64),
    ));
    let imb: Vec<f64> = ex
        .jobs
        .iter()
        .filter(|j| j.threads && j.chunks > 0)
        .map(|j| j.imbalance)
        .collect();
    m.push((
        "runtime.imbalance",
        if imb.is_empty() { 1.0 } else { median(&imb) },
    ));
    m.push(("runtime.steps", ex.round_sum(false, |j| j.steps as f64)));

    // Serve layers, per request and per episode.
    let s = sec
        .serve
        .as_ref()
        .expect("traced runs include the serve section");
    let mut tails = Vec::new();
    for verb in VERBS {
        let us: Vec<f64> = s
            .requests
            .iter()
            .filter(|r| r.traced && r.verb == verb)
            .map(|r| r.us)
            .collect();
        let (p50, tl) = match tail(&us, 99.0) {
            Some(t) => (median(&us), t),
            None => {
                // Too few samples for the tail rule: report the maximum.
                let max = us.iter().copied().fold(0.0, f64::max);
                (
                    med_or_zero(&us),
                    Tail {
                        percentile: 100.0,
                        value: max,
                        samples: us.len(),
                    },
                )
            }
        };
        tails.push((verb, tl));
        m.push((SERVE_P50[verb_index(verb)], p50));
        m.push((SERVE_TAIL[verb_index(verb)], tl.value));
    }
    prov.push((
        "serve_tails",
        Json::Obj(
            tails
                .iter()
                .map(|(v, t)| (v.to_string(), tail_json(t)))
                .collect(),
        ),
    ));
    let c = &s.counts;
    let eps = c.episodes.max(1) as f64;
    m.push((
        "core.graph_reuse_ratio",
        c.graphs_reused as f64 / (c.graphs_built + c.graphs_reused).max(1) as f64,
    ));
    m.push(("autopilot.candidates", c.candidates as f64 / eps));
    m.push(("autopilot.pruned_unsafe", c.pruned_unsafe as f64 / eps));
    m.push((
        "autopilot.pruned_unprofitable",
        c.pruned_unprofitable as f64 / eps,
    ));
    m.push(("check.loops_checked", c.loops_checked as f64 / eps));
    m.push(("store.graphs_loaded", s.store_loaded_per_episode));
    m.push(("store.graphs_persisted", s.store_persisted_per_episode));

    // Trace cost: traced minus untraced operations of the workload's own
    // section, and the part of a traced pipeline operation that no child
    // span covers.
    let (traced, untraced): (Keyed, Keyed) = match w {
        Workload::Batch => split(
            sec.pipeline
                .ops
                .iter()
                .map(|o| (o.traced, o.input, o.ms * 1e3)),
        ),
        Workload::Kernels => split(
            ex.jobs
                .iter()
                .map(|j| (j.traced, j.input * 2 + j.threads as usize, j.ms * 1e3)),
        ),
        Workload::Session => split(
            s.requests
                .iter()
                .map(|r| (r.traced, verb_index(r.verb), r.us)),
        ),
    };
    let overhead_us = paired_overhead(&traced, &untraced);
    m.push(("trace.overhead_us", overhead_us));
    m.push((
        "trace.unaccounted_us",
        med_or_zero(&trace::self_ms_per_req(spans, "core.program")) * 1e3,
    ));
    m.push(("trace.spans", spans.len() as f64));
    m
}

const SERVE_P50: [&str; 8] = [
    "serve.open_p50_us",
    "serve.analyze_p50_us",
    "serve.suggest_p50_us",
    "serve.transform_p50_us",
    "serve.undo_p50_us",
    "serve.redo_p50_us",
    "serve.check_p50_us",
    "serve.close_p50_us",
];
const SERVE_TAIL: [&str; 8] = [
    "serve.open_tail_us",
    "serve.analyze_tail_us",
    "serve.suggest_tail_us",
    "serve.transform_tail_us",
    "serve.undo_tail_us",
    "serve.redo_tail_us",
    "serve.check_tail_us",
    "serve.close_tail_us",
];

/// Samples keyed by what they should be compared with.
type Keyed = Vec<(usize, f64)>;

/// Split `(traced, key, value)` samples into traced and untraced lists.
fn split(xs: impl Iterator<Item = (bool, usize, f64)>) -> (Keyed, Keyed) {
    let (mut tr, mut un) = (Vec::new(), Vec::new());
    for (traced, k, v) in xs {
        if traced { &mut tr } else { &mut un }.push((k, v));
    }
    (tr, un)
}

fn verb_index(verb: &str) -> usize {
    VERBS
        .iter()
        .position(|v| *v == verb)
        .expect("script verbs are in VERBS")
}

/// Median over keys (input, mode or verb) of the difference between the
/// key's traced and untraced medians: comparing like with like.
fn paired_overhead(traced: &Keyed, untraced: &Keyed) -> f64 {
    let group = |xs: &[(usize, f64)]| {
        let mut m: std::collections::BTreeMap<usize, Vec<f64>> = Default::default();
        for &(k, v) in xs {
            m.entry(k).or_default().push(v);
        }
        m
    };
    let (tr, un) = (group(traced), group(untraced));
    let diffs: Vec<f64> = tr
        .iter()
        .filter_map(|(k, t)| un.get(k).map(|u| median(t) - median(u)))
        .collect();
    med_or_zero(&diffs)
}
