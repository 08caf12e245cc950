//! `ped` — the ParaScope Editor, as an interactive command-line session.
//!
//! ```sh
//! cargo run -p ped-core --bin ped -- path/to/program.f
//! cargo run -p ped-core --bin ped -- --workload onedim
//! cargo run -p ped-core --bin ped -- --batch path/to/program.f
//! echo "loops\nview 0 s4\nquit" | cargo run -p ped-core --bin ped -- --workload onedim
//! ```
//!
//! Commands (see `help`): navigation (`units`, `loops`, `view`), analysis
//! editing (`mark`, `assert`), whole-program analysis (`analyze`), power
//! steering (`diagnose`, `apply`, `undo`, `redo`), execution (`run`,
//! `threads`, `schedule`, `estimate`, `source`), and instrumentation
//! (`profile`). `--batch` analyzes every loop of every unit in parallel,
//! prints the batch report, and exits; with `--profile` it instead emits
//! the versioned JSON profile report on stdout. `--threads <N>` makes
//! batch mode also *execute* the program on the persistent worker pool
//! (and sets the interactive default); `--schedule <spec>` picks the
//! chunking policy (`static`, `dynamic[(N)]`, `guided`).
//! `--validate-profile <file>` parses a previously emitted report and
//! exits nonzero when it is malformed (the CI smoke check).
//! `--engine <bytecode|tree>` picks the execution engine: `bytecode`
//! (default) runs programs on the lowered register machine, `tree` on the
//! AST-walking oracle; the interactive `engine` command switches it
//! mid-session. Both produce bit-identical output.
//!
//! `--check` (batch) runs the program once under the shadow-memory logger
//! and cross-checks the observed cross-iteration dependences against the
//! static graphs: races on parallel-marked loops are reported with a
//! verdict (contradicted deletion, missing clause, forced parallelization,
//! or analysis miss) and make the process exit nonzero. `--autopar` first
//! converts every provably-safe loop to `PARALLEL DO` (outermost-first),
//! so `--batch --autopar --check` is the push-button
//! analyze→parallelize→validate pipeline.
//!
//! `--campaign <seeds>` runs the differential-fuzzing campaign engine
//! (E17): generate `<seeds>` programs and push each through
//! generate→analyze→autopar→check→bit-equality on a pipelined worker
//! pool with a shared pair cache and recycled sessions. Discrepancies
//! are delta-debugged to minimized reproducers (written under
//! `--repro-dir`) and make the exit status nonzero. `--mutate <clause>`
//! strips that clause kind from every `PARALLEL DO` after autopar — a
//! seeded-fault mode where a *clean* run means the checker failed.
//! `--json` prints the machine-readable campaign summary; `--profile`
//! prints the profile report with the `campaign` section filled.

use ped_core::{
    autoparallelize, autopilot, parse_xform, render, render_suggest, suggest, Assertion,
    AutopilotConfig, CampaignConfig, DepFilter, Mark, Ped, ProfileReport, SourceFilter,
    PROFILE_SCHEMA_VERSION,
};
use ped_runtime::{Engine, ExecConfig, Machine, ParallelMode, Schedule};
use std::io::{BufRead, Write};

const USAGE: &str = "usage: ped [--batch] [--profile] [--autopar|--autopilot] [--check] [--threads <N>] [--schedule <spec>] [--engine <bytecode|tree>] <file.f>\n\
       ped [--batch] [--profile] [--autopar|--autopilot] [--check] [--threads <N>] [--schedule <spec>] [--engine <bytecode|tree>] --workload <name>\n\
       ped --campaign <seeds> [--seed-start <N>] [--workers <N>] [--mutate <clause>] [--autopilot] [--repro-dir <dir>] [--json | --profile]\n\
           [--gen-units <N>] [--gen-loops <N>] [--gen-stmts <N>] [--gen-extent <N>]\n\
       ped serve [--listen <addr>] [--store <dir>]\n\
       ped --validate-profile <report.json>";

/// Session-level execution defaults, set by `--threads`/`--schedule` and
/// the interactive `threads`/`schedule` commands; `run` starts from these.
#[derive(Clone, Copy, Default)]
struct RunDefaults {
    /// When set, a bare `run` uses `threads <N>` instead of serial.
    threads: Option<usize>,
    /// Chunking policy for Threads mode.
    schedule: Schedule,
    /// Execution engine (bytecode register machine by default).
    engine: Engine,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        serve_main(&args[1..]);
        return;
    }
    let mut batch = false;
    let mut profile = false;
    let mut check = false;
    let mut autopar = false;
    let mut autopilot_flag = false;
    let mut defaults = RunDefaults::default();
    let mut workload: Option<String> = None;
    let mut path: Option<String> = None;
    let mut campaign: Option<CampaignConfig> = None;
    let mut json = false;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--batch" => batch = true,
            "--profile" => profile = true,
            "--check" => check = true,
            "--autopar" => autopar = true,
            "--autopilot" => autopilot_flag = true,
            "--json" => json = true,
            "--campaign" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n > 0 => {
                    campaign.get_or_insert_with(CampaignConfig::default).seeds = n;
                }
                _ => exit_usage("--campaign needs a positive seed count"),
            },
            "--seed-start" => match it.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) => campaign.get_or_insert_with(CampaignConfig::default).seed_start = n,
                None => exit_usage("--seed-start needs a number"),
            },
            "--workers" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) => campaign.get_or_insert_with(CampaignConfig::default).workers = n,
                None => exit_usage("--workers needs a count"),
            },
            "--mutate" => match it.next() {
                Some(kind) if ["private", "lastprivate", "reduction"].contains(&kind.as_str()) => {
                    campaign.get_or_insert_with(CampaignConfig::default).mutate = Some(kind);
                }
                _ => exit_usage("--mutate needs private | lastprivate | reduction"),
            },
            "--repro-dir" => match it.next() {
                Some(dir) => {
                    campaign.get_or_insert_with(CampaignConfig::default).repro_dir =
                        Some(dir.into());
                }
                None => exit_usage("--repro-dir needs a directory"),
            },
            "--gen-units" | "--gen-loops" | "--gen-stmts" | "--gen-extent" => {
                let Some(n) = it.next().and_then(|n| n.parse::<usize>().ok()).filter(|&n| n > 0)
                else {
                    exit_usage(&format!("{a} needs a positive number"));
                    unreachable!()
                };
                let gen = &mut campaign.get_or_insert_with(CampaignConfig::default).gen;
                match a.as_str() {
                    "--gen-units" => gen.units = n,
                    "--gen-loops" => gen.loops_per_unit = n,
                    "--gen-stmts" => gen.stmts_per_loop = n,
                    _ => gen.extent = n,
                }
            }
            "--threads" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n > 0 => defaults.threads = Some(n),
                _ => exit_usage("--threads needs a positive count"),
            },
            "--schedule" => match it.next() {
                Some(spec) => match Schedule::parse(&spec) {
                    Ok(s) => defaults.schedule = s,
                    Err(e) => exit_usage(&e),
                },
                None => exit_usage("--schedule needs static | dynamic[(N)] | guided"),
            },
            "--engine" => match it.next().as_deref().and_then(Engine::from_name) {
                Some(e) => defaults.engine = e,
                None => exit_usage("--engine needs bytecode | tree"),
            },
            "--workload" => match it.next() {
                Some(n) => workload = Some(n),
                None => exit_usage("--workload needs a name"),
            },
            "--validate-profile" => match it.next() {
                Some(f) => {
                    validate_profile(&f);
                    return;
                }
                None => exit_usage("--validate-profile needs a file"),
            },
            other if !other.starts_with('-') && path.is_none() => path = Some(a),
            other => exit_usage(&format!("unknown argument {other}")),
        }
    }
    if let Some(mut cfg) = campaign {
        cfg.autopilot = autopilot_flag;
        campaign_main(&cfg, json, profile);
        return;
    }
    let src = match (&workload, &path) {
        (Some(name), None) => match ped_workloads_source(name) {
            Some(s) => s,
            None => {
                eprintln!("unknown workload {name}");
                std::process::exit(1);
            }
        },
        (None, Some(path)) => match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            }
        },
        _ => {
            exit_usage("need exactly one of <file.f> or --workload <name>");
            unreachable!()
        }
    };
    let open = if profile { Ped::open_profiled } else { Ped::open };
    let mut ped = match open(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("parse error: {e}");
            std::process::exit(1);
        }
    };
    if batch {
        if autopar {
            let n = autoparallelize(&mut ped);
            eprintln!("auto-parallelized {n} loop(s)");
        }
        let mut ap_report = None;
        if autopilot_flag {
            let out = autopilot(&mut ped, &AutopilotConfig::default());
            eprintln!("{}", out.summary());
            for note in &out.notes {
                eprintln!("  note: {note}");
            }
            for p in &out.plans {
                eprintln!(
                    "  {} {}: {} — predicted {:.2}x — {}",
                    p.plan.unit_name,
                    p.plan.header,
                    ped_core::autopilot::plan_text(
                        &ped.program().units[p.plan.unit],
                        &p.plan.steps
                    ),
                    p.plan.predicted,
                    p.verdict
                );
            }
            ap_report = Some(out.stats);
        }
        let mut clean = true;
        if profile {
            // Human-readable batch summary on stderr; the machine-readable
            // profile report alone on stdout. A threaded execution (if
            // requested) and the shadow check happen before the report is
            // emitted, so their loop profiles, scheduler counters, and
            // validation section land in the JSON.
            let mut err = std::io::stderr();
            let r = ped.analyze_all();
            writeln!(err, "analyzed {} loop(s) across {} unit(s)", r.loops, r.units).ok();
            if defaults.threads.is_some() {
                batch_run_threads(&ped, defaults, true);
            }
            if check {
                clean = batch_check(&mut ped, defaults, true);
            }
            let mut rep = ped.profile_report();
            if let Some(ap) = ap_report {
                rep.autopilot = ap;
            }
            println!("{}", rep.to_json().to_string_pretty());
        } else {
            print_batch_report(&mut ped);
            if defaults.threads.is_some() {
                batch_run_threads(&ped, defaults, false);
            }
            if check {
                clean = batch_check(&mut ped, defaults, false);
            }
        }
        if !clean {
            std::process::exit(1);
        }
        return;
    }
    println!("ParaScope Editor — {} unit(s) loaded; `help` lists commands", ped.program().units.len());
    let stdin = std::io::stdin();
    let mut cur_unit = 0usize;
    loop {
        print!("ped> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // clean EOF
            Ok(_) => {}
            Err(e) => {
                // An I/O failure is not EOF: say so and exit nonzero so
                // scripts driving the REPL can tell the two apart.
                eprintln!("ped: stdin read error: {e}");
                std::process::exit(1);
            }
        }
        let words: Vec<&str> = line.split_whitespace().collect();
        match run_command(&mut ped, &mut cur_unit, &mut defaults, &words) {
            Ok(true) => break,
            Ok(false) => {}
            Err(e) => println!("error: {e}"),
        }
    }
}

fn ped_workloads_source(name: &str) -> Option<String> {
    ped_workloads::program_by_name(name).map(|w| w.source.to_string())
}

/// `ped serve [--listen <addr>] [--store <dir>]`: run the multi-session
/// analysis daemon. With `--listen` it serves the line-delimited JSON
/// protocol over TCP (printing the bound address, so `--listen
/// 127.0.0.1:0` works for scripts); without, over stdin/stdout. With
/// `--store` analyzed dependence graphs persist across restarts.
fn serve_main(args: &[String]) {
    let mut listen: Option<String> = None;
    let mut store_dir: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--listen" => match it.next() {
                Some(addr) => listen = Some(addr.clone()),
                None => exit_usage("--listen needs an address (e.g. 127.0.0.1:7777)"),
            },
            "--store" => match it.next() {
                Some(dir) => store_dir = Some(dir.clone()),
                None => exit_usage("--store needs a directory"),
            },
            other => exit_usage(&format!("unknown serve argument {other}")),
        }
    }
    let store = store_dir.map(|dir| match ped_core::GraphStore::open(&dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot open graph store {dir}: {e}");
            std::process::exit(1);
        }
    });
    let daemon = ped_core::Daemon::new(store);
    let result = match listen {
        Some(addr) => match std::net::TcpListener::bind(&addr) {
            Ok(listener) => {
                match listener.local_addr() {
                    Ok(a) => println!("listening on {a}"),
                    Err(_) => println!("listening on {addr}"),
                }
                std::io::stdout().flush().ok();
                daemon.serve_listener(listener)
            }
            Err(e) => {
                eprintln!("cannot listen on {addr}: {e}");
                std::process::exit(1);
            }
        },
        None => daemon.serve_stdio(),
    };
    if let Err(e) = result {
        eprintln!("ped serve: {e}");
        std::process::exit(1);
    }
}

/// `ped --campaign <seeds> …`: run the differential-fuzzing campaign and
/// report. Human-readable summary on stderr; `--json` puts the campaign
/// summary on stdout, `--profile` the profile report with the `campaign`
/// section (and the campaign-wide pair-cache counters) filled.
/// Exits 1 when any discrepancy survived minimization.
fn campaign_main(cfg: &CampaignConfig, json: bool, profile: bool) {
    let out = ped_core::run_campaign(cfg);
    let mut err = std::io::stderr();
    let pps = out.stage_programs_per_cpu_sec();
    writeln!(
        err,
        "campaign: {} seed(s) on {} worker(s) in {:.2}s — {:.1} programs/sec end-to-end",
        out.seeds,
        out.workers,
        out.elapsed_ns as f64 / 1e9,
        out.programs_per_sec()
    )
    .ok();
    writeln!(
        err,
        "  {} loop(s) seen, {} parallelized; pair cache {:.1}% hit ({} hits / {} misses)",
        out.loops_total,
        out.loops_parallelized,
        out.cache.hit_rate() * 100.0,
        out.cache.hits,
        out.cache.misses
    )
    .ok();
    for (i, name) in ped_core::campaign::STAGE_NAMES.iter().enumerate() {
        writeln!(
            err,
            "  stage {name:12} {:>10.1} programs/cpu-sec",
            pps[i]
        )
        .ok();
    }
    for d in &out.discrepancies {
        writeln!(
            err,
            "  DISCREPANCY seed {}: {} — {} (minimized {} → {} lines{})",
            d.seed,
            d.class,
            d.detail,
            d.source.lines().count(),
            d.minimized.lines().count(),
            match &d.repro_path {
                Some(p) => format!(", {p}"),
                None => String::new(),
            }
        )
        .ok();
    }
    if profile {
        let mut rep = ProfileReport::empty();
        rep.campaign = out.campaign_report();
        rep.autopilot = out.autopilot.clone();
        rep.cache.pair_hits = out.cache.hits;
        rep.cache.pair_misses = out.cache.misses;
        println!("{}", rep.to_json().to_string_pretty());
    } else if json {
        println!("{}", out.to_json().to_string_pretty());
    }
    if !out.clean() {
        std::process::exit(1);
    }
}

fn exit_usage(msg: &str) {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

/// Parse a profile report emitted by `--batch --profile`; exit 0 when it is
/// well-formed and schema-compatible, 1 otherwise.
fn validate_profile(file: &str) {
    let text = match std::fs::read_to_string(file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {file}: {e}");
            std::process::exit(1);
        }
    };
    match ProfileReport::from_json_str(&text) {
        Ok(r) => {
            println!(
                "{file}: valid profile report (schema v{PROFILE_SCHEMA_VERSION}, {} phase(s), {} pair decision(s), {} edge(s))",
                r.phases.len(),
                r.total_pairs(),
                r.total_edges()
            );
        }
        Err(e) => {
            eprintln!("{file}: invalid profile report: {e}");
            std::process::exit(1);
        }
    }
}

/// Execute the program on the worker pool with the batch-mode defaults.
/// With `quiet`, everything goes to stderr so stdout stays machine-readable
/// (the `--profile` JSON contract).
fn batch_run_threads(ped: &Ped, defaults: RunDefaults, quiet: bool) {
    let n = defaults.threads.unwrap_or(1);
    let config = ExecConfig {
        mode: ParallelMode::Threads(n),
        schedule: defaults.schedule,
        engine: defaults.engine,
        ..ExecConfig::default()
    };
    match ped.run(config) {
        Ok(r) => {
            let mut err = std::io::stderr();
            if quiet {
                for l in &r.printed {
                    writeln!(err, "  {l}").ok();
                }
            } else {
                for l in &r.printed {
                    println!("  {l}");
                }
            }
            writeln!(
                err,
                "ran with {n} thread(s), {} schedule: {} statement(s), \
                 {} parallel loop(s), {} chunk(s) ({} stolen), imbalance {:.2}",
                defaults.schedule,
                r.steps,
                r.sched.parallel_loops,
                r.sched.chunks_executed,
                r.sched.chunks_stolen,
                r.sched.imbalance_ratio()
            )
            .ok();
        }
        Err(e) => {
            eprintln!("run failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Build the execution config the session defaults describe.
fn exec_config(defaults: RunDefaults) -> ExecConfig {
    ExecConfig {
        mode: match defaults.threads {
            Some(n) => ParallelMode::Threads(n),
            None => ParallelMode::Serial,
        },
        schedule: defaults.schedule,
        engine: defaults.engine,
        ..ExecConfig::default()
    }
}

/// Shadow-runtime validation of the current (possibly just parallelized)
/// program. Prints the verdict report — to stderr with `quiet`, keeping
/// stdout machine-readable — and returns whether the run was race-free.
fn batch_check(ped: &mut Ped, defaults: RunDefaults, quiet: bool) -> bool {
    match ped.check(exec_config(defaults)) {
        Ok(r) => {
            let text = r.render_text();
            if quiet {
                eprint!("{text}");
            } else {
                print!("{text}");
            }
            r.clean()
        }
        Err(e) => {
            eprintln!("check failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Run whole-program analysis and print the [`ped_core::BatchReport`].
fn print_batch_report(ped: &mut Ped) {
    let t0 = std::time::Instant::now();
    let r = ped.analyze_all();
    let elapsed = t0.elapsed();
    println!(
        "analyzed {} loop(s) across {} unit(s) in {:.1} ms",
        r.loops,
        r.units,
        elapsed.as_secs_f64() * 1e3
    );
    println!("  graphs built: {:4}   reused from cache: {}", r.built, r.reused);
    println!("  dependences:  {:4}   worker threads:    {}", r.deps, r.threads);
    println!(
        "  pair cache:   {} hit(s), {} miss(es) ({:.0}% hit rate this pass)",
        r.cache.hits,
        r.cache.misses,
        r.cache.hit_rate() * 100.0
    );
}

/// Execute one command; Ok(true) = quit.
fn run_command(
    ped: &mut Ped,
    cur_unit: &mut usize,
    defaults: &mut RunDefaults,
    words: &[&str],
) -> Result<bool, String> {
    let parse_stmt = |s: &str| -> Result<ped_fortran::StmtId, String> {
        let t = s.trim_start_matches('s');
        t.parse::<u32>().map(ped_fortran::StmtId).map_err(|_| format!("bad statement id {s}"))
    };
    match words {
        [] => Ok(false),
        ["quit"] | ["exit"] | ["q"] => Ok(true),
        ["help"] => {
            println!(
                "\
units                         list program units
unit <i>                      switch the current unit
loops                         loops of the current unit (ranked by est. cost)
analyze                       build graphs for every loop of every unit, in parallel
view <stmt>                   three-pane view of a loop (e.g. `view s4`)
deps <stmt>                   dependence pane only, blocking filter
mark <stmt> <dep-id> reject|accept
assert <var> = <int>          value assertion in the current unit
assert perm <array>           permutation assertion (deletes its pending deps)
diagnose <stmt> <xform>       advice for: parallelize interchange distribute
                              reverse stripmine:<n> unroll:<n> unrolljam:<n>
                              skew:<n> expand:<scalar> ivsub:<scalar>
                              privatize:<array>
apply <stmt> <xform>          apply a transformation
suggest                       autopilot advisory: ranked transform plan per
                              nest with predicted speedup and safety verdict
undo / redo
source                        print the regenerated source
run [serial|sim <P>|threads <N>]
check                         shadow-runtime validation: run once with the
                              access logger on, cross-check observed deps
                              against the static graphs, report races
threads [<N>|off]             default thread count for bare `run`
schedule [static|dynamic[(N)]|guided]
                              chunking policy for threaded runs
engine [bytecode|tree]        execution engine: lowered register machine
                              (default) or the AST-walking oracle
estimate                      loop cost table for the current unit
profile [on|off|json]         session profile: phase timings, dep-test
                              histogram, cache hit rates (alias: stats)
quit"
            );
            Ok(false)
        }
        ["units"] => {
            for (i, u) in ped.program().units.iter().enumerate() {
                println!("  {i}: {} ({:?}, {} symbols)", u.name, u.kind, u.symbols.len());
            }
            Ok(false)
        }
        ["unit", i] => {
            let i: usize = i.parse().map_err(|_| "bad unit index".to_string())?;
            if i >= ped.program().units.len() {
                return Err("no such unit".into());
            }
            *cur_unit = i;
            println!("current unit: {}", ped.program().units[i].name);
            Ok(false)
        }
        ["analyze"] => {
            print_batch_report(ped);
            Ok(false)
        }
        ["loops"] | ["estimate"] => {
            print!("{}", render::render_unit_overview(ped, *cur_unit).map_err(|e| e.to_string())?);
            Ok(false)
        }
        ["view", s] => {
            let h = parse_stmt(s)?;
            let v = render::render_loop_view(ped, *cur_unit, h, &DepFilter::default(), &SourceFilter::All)
                .map_err(|e| e.to_string())?;
            print!("{v}");
            Ok(false)
        }
        ["deps", s] => {
            let h = parse_stmt(s)?;
            let v = render::render_loop_view(ped, *cur_unit, h, &DepFilter::blocking(), &SourceFilter::LoopHeadersOnly)
                .map_err(|e| e.to_string())?;
            print!("{v}");
            Ok(false)
        }
        ["mark", s, id, what] => {
            let h = parse_stmt(s)?;
            let id: usize = id.parse().map_err(|_| "bad dep id".to_string())?;
            let mark = match *what {
                "reject" => Mark::Rejected,
                "accept" => Mark::Accepted,
                _ => return Err("mark must be reject|accept".into()),
            };
            ped.mark(*cur_unit, h, id, mark).map_err(|e| e.to_string())?;
            println!("marked");
            Ok(false)
        }
        ["assert", "perm", arr] => {
            let sym = ped.program().units[*cur_unit]
                .symbols
                .lookup(arr)
                .ok_or_else(|| format!("no symbol {arr}"))?;
            let n = ped
                .assert_fact(Assertion::Permutation { unit: *cur_unit, array: sym })
                .map_err(|e| e.to_string())?;
            println!("deleted {n} pending dependence(s)");
            Ok(false)
        }
        ["assert", var, "=", val] => {
            let sym = ped.program().units[*cur_unit]
                .symbols
                .lookup(var)
                .ok_or_else(|| format!("no symbol {var}"))?;
            let value: i64 = val.parse().map_err(|_| "bad integer".to_string())?;
            ped.assert_fact(Assertion::Value { unit: *cur_unit, sym, value })
                .map_err(|e| e.to_string())?;
            println!("asserted {var} = {value}");
            Ok(false)
        }
        ["diagnose", s, xf] | ["apply", s, xf] => {
            let h = parse_stmt(s)?;
            let xform = parse_xform(&ped.program().units[*cur_unit], xf)?;
            if words[0] == "diagnose" {
                let d = ped.diagnose(*cur_unit, h, &xform).map_err(|e| e.to_string())?;
                println!("applicable: {:?}", d.applicable);
                println!("safety:     {:?}", d.safe);
                println!("profitable: {:?}", d.profitable);
            } else {
                let a = ped.apply(*cur_unit, h, &xform).map_err(|e| e.to_string())?;
                println!("applied: {}", a.description);
            }
            Ok(false)
        }
        ["suggest"] => {
            let cfg = AutopilotConfig::default();
            let s = suggest(ped, &cfg);
            print!("{}", render_suggest(ped, &s, cfg.machine.procs));
            Ok(false)
        }
        ["undo"] => {
            println!("{}", if ped.undo() { "undone" } else { "nothing to undo" });
            Ok(false)
        }
        ["redo"] => {
            println!("{}", if ped.redo() { "redone" } else { "nothing to redo" });
            Ok(false)
        }
        ["source"] => {
            println!("{}", ped.source());
            Ok(false)
        }
        ["profile"] | ["stats"] => {
            print!("{}", ped.profile_report().render_text());
            Ok(false)
        }
        ["profile", "on"] => {
            ped.set_profiling(true);
            println!("profiling on");
            Ok(false)
        }
        ["profile", "off"] => {
            ped.set_profiling(false);
            println!("profiling off");
            Ok(false)
        }
        ["profile", "json"] => {
            println!("{}", ped.profile_report().to_json().to_string_pretty());
            Ok(false)
        }
        ["threads"] => {
            match defaults.threads {
                Some(n) => println!("default: threads {n} ({} schedule)", defaults.schedule),
                None => println!("default: serial (set with `threads <N>`)"),
            }
            Ok(false)
        }
        ["threads", "off"] => {
            defaults.threads = None;
            println!("bare `run` is serial again");
            Ok(false)
        }
        ["threads", n] => {
            let n: usize = n.parse().map_err(|_| "threads needs a count or `off`".to_string())?;
            if n == 0 {
                return Err("thread count must be positive (use `threads off`)".into());
            }
            defaults.threads = Some(n);
            println!("bare `run` now uses threads {n} ({} schedule)", defaults.schedule);
            Ok(false)
        }
        ["schedule"] => {
            println!("schedule: {}", defaults.schedule);
            Ok(false)
        }
        ["schedule", spec] => {
            defaults.schedule = Schedule::parse(spec)?;
            println!("schedule: {}", defaults.schedule);
            Ok(false)
        }
        ["engine"] => {
            println!("engine: {}", defaults.engine);
            Ok(false)
        }
        ["engine", name] => {
            defaults.engine =
                Engine::from_name(name).ok_or("engine needs bytecode | tree".to_string())?;
            println!("engine: {}", defaults.engine);
            Ok(false)
        }
        ["check"] => {
            let config = exec_config(*defaults);
            let r = ped.check(config).map_err(|e| e.to_string())?;
            print!("{}", r.render_text());
            Ok(false)
        }
        ["run", rest @ ..] => {
            let mut config = exec_config(*defaults);
            let mut it = rest.iter();
            while let Some(w) = it.next() {
                match *w {
                    "serial" => config.mode = ParallelMode::Serial,
                    "sim" => {
                        let p: usize = it
                            .next()
                            .and_then(|x| x.parse().ok())
                            .ok_or("sim needs a processor count")?;
                        config.mode = ParallelMode::Simulate(Machine::with_procs(p));
                    }
                    "threads" => {
                        let n: usize = it
                            .next()
                            .and_then(|x| x.parse().ok())
                            .ok_or("threads needs a count")?;
                        config.mode = ParallelMode::Threads(n);
                    }
                    other => return Err(format!("unknown run option {other}")),
                }
            }
            let r = ped.run(config).map_err(|e| e.to_string())?;
            for l in &r.printed {
                println!("  {l}");
            }
            println!("(vtime {:.0} ops, {} statements)", r.vtime, r.steps);
            if r.sched.parallel_loops > 0 {
                println!(
                    "(scheduler: {} parallel loop(s), {} chunk(s), {} stolen, imbalance {:.2})",
                    r.sched.parallel_loops,
                    r.sched.chunks_executed,
                    r.sched.chunks_stolen,
                    r.sched.imbalance_ratio()
                );
            }
            Ok(false)
        }
        other => Err(format!("unknown command {:?} (try `help`)", other[0])),
    }
}
