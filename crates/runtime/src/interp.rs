//! The interpreter: serial, simulated-parallel, and threaded execution.

use crate::bytecode::LoopBody;
use crate::machine::Machine;
use crate::memory::{Cell, Frame};
use crate::pool::{
    plan_chunks, Chunk, ChunkQueues, Pool, SchedStats, Schedule, ShutdownOnDrop, StepBudget,
    INLINE_STEPS,
};
use crate::shadow::{ShadowLog, ShadowRec};
use crate::value::Value;
use ped_fortran::ast::Intrinsic;
use ped_fortran::symbols::Const;
use ped_fortran::{
    BinOp, Expr, LValue, Program, ProgramUnit, RedOp, StmtId, StmtKind, SymId, Ty, UnOp,
};
use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How `PARALLEL DO` loops execute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParallelMode {
    /// Ignore annotations; pure reference semantics.
    Serial,
    /// The machine's static blocks run on the calling thread, in iteration
    /// order, through the same chunk and merge path as `Threads`; each
    /// loop is charged as the machine's schedule (deterministic).
    Simulate(Machine),
    /// Real host threads. A shadow run (see [`ExecConfig::shadow`]) keeps
    /// the threaded semantics but executes every `PARALLEL DO` on the
    /// calling thread.
    Threads(usize),
}

/// Which execution engine runs program bodies.
///
/// Both engines implement one semantics — "two engines, one semantics" is
/// enforced by differential property tests — and run in every
/// [`ParallelMode`]: the register **bytecode** engine lowers every unit
/// once at [`Interp::new`] (names resolved to frame slots, subscripts to
/// stride+offset fast paths, per-node cost model coalesced into one charge
/// per straight-line region) and is the default; the **tree** walker
/// interprets the AST directly and stays on as the differential oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Compile to register bytecode first (see [`crate::bytecode`]), then
    /// execute the compact form. Default.
    #[default]
    Bytecode,
    /// Walk the AST directly (the reference oracle).
    Tree,
}

impl Engine {
    /// Stable lower-case name (used by the profile report's `engine` field
    /// and the `--engine` CLI flag).
    pub fn name(self) -> &'static str {
        match self {
            Engine::Bytecode => "bytecode",
            Engine::Tree => "tree",
        }
    }

    /// Parse a CLI spelling.
    pub fn from_name(s: &str) -> Option<Engine> {
        match s {
            "bytecode" => Some(Engine::Bytecode),
            "tree" => Some(Engine::Tree),
            _ => None,
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Execution configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Parallel-loop handling.
    pub mode: ParallelMode,
    /// How Threads mode cuts parallel loops into chunks.
    pub schedule: Schedule,
    /// Abort after this many statement executions (runaway guard). The cap
    /// is global: in Threads mode it is shared by all workers combined.
    pub max_steps: u64,
    /// Shadow-memory access logging: record every touch per loop
    /// iteration and derive the observed cross-iteration dependence set
    /// (see [`crate::shadow`]). Works in every mode; the result lands in
    /// [`RunResult::shadow`]. A shadow run executes every `PARALLEL DO` on
    /// the calling thread, so the one recorder observes each chunk
    /// directly.
    pub shadow: bool,
    /// Which engine executes program bodies (see [`Engine`]), in every
    /// mode.
    pub engine: Engine,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            mode: ParallelMode::Serial,
            schedule: Schedule::default(),
            max_steps: 500_000_000,
            shadow: false,
            engine: Engine::default(),
        }
    }
}

/// A runtime error.
#[derive(Debug, Clone, PartialEq)]
pub struct RtError {
    /// Description, including the offending unit.
    pub message: String,
    /// Statements executed before the error (across all threads).
    pub steps: u64,
}

impl RtError {
    pub(crate) fn new(msg: impl Into<String>) -> RtError {
        RtError { message: msg.into(), steps: 0 }
    }
}

impl std::fmt::Display for RtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for RtError {}

/// Per-loop execution statistics (the loop-level profile Ped's users got
/// from Forge; feeds performance-estimation-based navigation).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LoopStats {
    /// Times the loop was entered.
    pub invocations: u64,
    /// Total iterations executed.
    pub iterations: u64,
    /// Virtual operations spent inside (inclusive).
    pub ops: f64,
    /// Wall-clock nanoseconds spent inside (inclusive). For a loop
    /// executed *within* parallel chunks this sums across workers, i.e.
    /// it is CPU time; for a top-level `PARALLEL DO` it is the real
    /// elapsed time the submitting thread waited, which is what the E14
    /// measured-speedup comparison reads.
    pub wall_ns: u64,
}

/// Result of running a program.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Lines produced by `PRINT *`.
    pub printed: Vec<String>,
    /// Virtual time (op count, with parallel charging applied).
    pub vtime: f64,
    /// Statements executed.
    pub steps: u64,
    /// Loop-level profile keyed by (unit name, DO statement).
    pub profile: HashMap<(String, StmtId), LoopStats>,
    /// Scheduler counters (all zero outside Threads mode).
    pub sched: SchedStats,
    /// Observed-dependence log (present iff [`ExecConfig::shadow`]).
    pub shadow: Option<ShadowLog>,
}

/// Final memory of the main unit, captured by [`Interp::run_with_memory`]:
/// one `(name, element bits)` entry per bound symbol, sorted by name.
/// Arrays dump every element in column-major order; scalars are
/// single-element vectors. Bits compare exactly, so two snapshots agree
/// iff the final memories are bit-identical.
pub type MemorySnapshot = Vec<(String, Vec<u64>)>;

pub(crate) enum Flow {
    Normal,
    Return,
    Stop,
}

/// A DO loop's iteration space, fixed at entry: `count` values from
/// `first` by `step`, in wrapping `i64` arithmetic.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IterSpace {
    first: i64,
    step: i64,
    pub(crate) count: u64,
}

impl IterSpace {
    /// The space of `DO v = lo, hi, step` (F77 trip count).
    pub(crate) fn new(lo: i64, hi: i64, step: i64) -> Result<IterSpace, RtError> {
        if step == 0 {
            return Err(RtError::new("DO step is zero"));
        }
        let count = if (step > 0 && hi < lo) || (step < 0 && hi > lo) {
            0
        } else {
            ((hi as i128 - lo as i128) / step as i128 + 1) as u64
        };
        Ok(IterSpace { first: lo, step, count })
    }

    /// The value of iteration `k`.
    pub(crate) fn at(&self, k: u64) -> i64 {
        self.first.wrapping_add(self.step.wrapping_mul(k as i64))
    }

    /// The values of iterations `k..count`.
    pub(crate) fn values_from(&self, k: u64) -> impl Iterator<Item = i64> {
        let (first, step) = (self.at(k), self.step);
        (0..self.count - k).map(move |i| first.wrapping_add(step.wrapping_mul(i as i64)))
    }
}

/// One `PARALLEL DO` invocation packaged for the worker pool, or for the
/// calling thread (under `Simulate`, in a shadow run, and under `Threads`
/// when the loop runs inline). Fully owned payload (the loop is named by
/// its statement and looked up in the program; the frame's cells are
/// `Arc`s), so a job outlives the submitting stack frame without lifetime
/// juggling.
pub(crate) struct LoopJob {
    unit_idx: usize,
    /// The `PARALLEL DO` statement (see [`Interp::parallel_loop`]).
    sid: StmtId,
    space: IterSpace,
    /// The submitting frame, when the pool runs the job: each worker
    /// overlays private slots on a clone. The calling thread clones its
    /// own frame instead.
    base_frame: Option<Frame>,
    budget: Arc<StepBudget>,
    queues: ChunkQueues,
    chunks_stolen: AtomicU64,
    /// Start of the earliest chunk that faulted: later chunks are skipped,
    /// since the merge reports the first fault in iteration order. It
    /// publishes nothing else, so relaxed access suffices: a stale read
    /// only runs a chunk more, and the merge still reports the first fault.
    first_fault: AtomicUsize,
    outs: Mutex<Vec<ChunkOut>>,
    /// The first panic a pool worker caught in this job's chunks. The
    /// submitter resumes it after the join, so it surfaces on the calling
    /// thread exactly as a serial run's panic would.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Index into the unit's compiled-loop table when the bytecode engine
    /// submitted this job: workers execute the compiled body instead of
    /// walking the loop's AST.
    cdo: Option<u32>,
}

/// What one executed chunk hands back for the deterministic merge.
struct ChunkOut {
    /// First iteration offset — the merge sort key (iteration order).
    start: usize,
    /// Iterations in the chunk.
    len: usize,
    worker: usize,
    printed: Vec<String>,
    steps: u64,
    vtime: f64,
    profile: HashMap<(String, StmtId), LoopStats>,
    /// Per-iteration reduction contributions:
    /// `[reduction][iteration-in-chunk]`.
    red_contribs: Vec<Vec<RedContrib>>,
    /// Values of the lastprivate cells when the chunk finished.
    lastprivates: Vec<(SymId, Value)>,
    err: Option<RtError>,
}

/// One iteration's contribution to a reduction variable.
enum RedContrib {
    /// Recognized accumulation operands, in execution order. The merge
    /// replays `cur = cur ⊕ x` per operand, which reproduces the serial
    /// fold bit-for-bit even when one iteration accumulates several times
    /// (e.g. an inner serial loop summing into the reduction variable).
    Ops(Vec<Value>),
    /// Fallback when some store to the cell was not a recognized
    /// accumulation: the iteration's whole effect folded from the
    /// identity. Exact for single accumulations and for min/max (which
    /// are associative-commutative even in floats).
    Delta(Value),
}

/// A reduction cell observed during chunk execution so accumulation
/// operands can be logged at their store sites (see [`RedContrib`]).
pub(crate) struct RedWatch {
    cell: Arc<Cell>,
    op: RedOp,
    ty: Ty,
    /// Operands logged since the last iteration boundary.
    log: Vec<Value>,
    /// Cleared when a store bypassed the accumulation recognizer.
    clean: bool,
}

/// What a worker chunk adds to the iteration driver
/// ([`Interp::drive`]): its reductions, re-seeded before each slow
/// iteration and logged per iteration for the merge, and the global
/// iteration index the shadow recorder's parallel scope observes.
pub(crate) struct ChunkTap {
    /// The chunk's first iteration (offset into the loop's space).
    start: u64,
    /// Operands `RedLog` ops append during fast iterations, one buffer
    /// per reduction; flushed into `red_contribs` as one `Ops` run
    /// whenever the slow path takes over (and once at chunk end), which
    /// keeps global iteration order across fast/slow transitions.
    pub(crate) red_bufs: Vec<Vec<Value>>,
    /// Per-iteration contributions: `[reduction][iteration-in-chunk]`.
    red_contribs: Vec<Vec<RedContrib>>,
}

impl ChunkTap {
    /// Before slow iteration `k` of the chunk. Each slow iteration
    /// accumulates into a fresh identity while the store sites log the
    /// actual operands (see `red_assign`). The merge replays operands —
    /// or, when a store defeated the recognizer, the iteration's delta —
    /// in global iteration order: the same fold the serial loop performs,
    /// which is what makes float reductions bit-identical to serial no
    /// matter the chunking, schedule, or thread count. (Fast iterations
    /// skip this: a promoted flush may have parked a meaningless
    /// accumulated register value in the cell, and the re-seed restores
    /// the slow path's invariant.)
    pub(crate) fn begin_iter(&mut self, st: &mut ExecState<'_>, k: u64) {
        flush_red(&mut self.red_bufs, &mut self.red_contribs);
        for w in &mut st.red_watch {
            w.cell.store_scalar(red_identity(w.op, w.ty));
            w.log.clear();
            w.clean = true;
        }
        if let Some(sh) = st.shadow.as_deref_mut() {
            sh.set_iter(self.start + k);
        }
    }

    /// After a slow iteration that completed normally.
    pub(crate) fn end_iter(&mut self, st: &mut ExecState<'_>) {
        for (w, contribs) in st.red_watch.iter_mut().zip(&mut self.red_contribs) {
            contribs.push(if w.clean {
                RedContrib::Ops(std::mem::take(&mut w.log))
            } else {
                RedContrib::Delta(w.cell.load_scalar())
            });
        }
    }
}

pub(crate) struct ExecState<'a> {
    pub(crate) printed: Vec<String>,
    pub(crate) vtime: f64,
    pub(crate) steps: u64,
    /// The global statement budget, shared with every worker.
    budget: Arc<StepBudget>,
    /// Steps claimed from the budget but not yet spent by `tick`.
    pub(crate) granted: u64,
    pub(crate) profile: HashMap<(String, StmtId), LoopStats>,
    pub(crate) in_parallel: bool,
    /// The worker pool, when Threads mode spawned one for this run.
    pool: Option<&'a Pool<LoopJob>>,
    sched: SchedStats,
    /// Reduction cells under operand logging (non-empty only while a
    /// worker executes a chunk of a loop with reductions).
    pub(crate) red_watch: Vec<RedWatch>,
    /// Shadow-memory recorder (present iff `ExecConfig::shadow`).
    pub(crate) shadow: Option<Box<ShadowRec>>,
}

impl<'a> ExecState<'a> {
    fn new(budget: Arc<StepBudget>) -> ExecState<'a> {
        ExecState {
            printed: Vec::new(),
            vtime: 0.0,
            steps: 0,
            budget,
            granted: 0,
            profile: HashMap::new(),
            in_parallel: false,
            pool: None,
            sched: SchedStats::default(),
            red_watch: Vec::new(),
            shadow: None,
        }
    }

    /// Index of the reduction watch bound to exactly this cell, if any.
    pub(crate) fn watched(&self, cell: &Arc<Cell>) -> Option<usize> {
        self.red_watch.iter().position(|w| Arc::ptr_eq(&w.cell, cell))
    }

    pub(crate) fn tick(&mut self, ops: f64) -> Result<(), RtError> {
        self.vtime += ops;
        if self.granted == 0 {
            // Refill in blocks so the shared counter is touched rarely.
            self.granted = self.budget.acquire(crate::pool::BUDGET_BLOCK);
            if self.granted == 0 {
                return Err(RtError::new("statement step limit exceeded"));
            }
        }
        self.granted -= 1;
        self.steps += 1;
        Ok(())
    }

    /// Hand unspent steps back to the shared budget.
    pub(crate) fn release_grant(&mut self) {
        self.budget.release(self.granted);
        self.granted = 0;
    }

    /// Report one memory touch to the shadow recorder, if one is on.
    pub(crate) fn record(
        &mut self,
        cell: &Arc<Cell>,
        element: usize,
        write: bool,
        unit_idx: usize,
        sym: SymId,
    ) {
        if let Some(sh) = self.shadow.as_deref_mut() {
            sh.record(cell, element, write, unit_idx, sym);
        }
    }
}

/// The interpreter for one program.
pub struct Interp<'p> {
    pub(crate) program: &'p Program,
    pub(crate) config: ExecConfig,
    commons: HashMap<String, Vec<Arc<Cell>>>,
    /// Lowered form of every unit, built once when the engine is
    /// [`Engine::Bytecode`] (see [`crate::bytecode`]).
    pub(crate) compiled: Option<crate::bytecode::CompiledProgram<'p>>,
}

impl<'p> Interp<'p> {
    /// Build an interpreter; rejects subscripted references to non-array
    /// symbols, allocates COMMON storage and, for the bytecode engine,
    /// lowers every unit to register code.
    pub fn new(program: &'p Program, config: ExecConfig) -> Result<Interp<'p>, RtError> {
        for unit in &program.units {
            check_subscripted_arrays(unit)?;
        }
        let mut commons: HashMap<String, Vec<Arc<Cell>>> = HashMap::new();
        for unit in &program.units {
            for blk in &unit.commons {
                let cells = commons.entry(blk.name.clone()).or_default();
                for (i, &m) in blk.members.iter().enumerate() {
                    if cells.len() <= i {
                        let sym = unit.symbols.sym(m);
                        let cell = if sym.is_array() {
                            let dims = static_dims(unit, m)?;
                            alloc_array(sym.ty, dims, &sym.name, &unit.name)?
                        } else {
                            Cell::scalar(sym.ty)
                        };
                        cells.push(cell);
                    }
                }
            }
        }
        let compiled = (config.engine == Engine::Bytecode)
            .then(|| crate::bytecode::compile_program(program, config.shadow));
        Ok(Interp { program, config, commons, compiled })
    }

    /// Run the main program.
    pub fn run(&self) -> Result<RunResult, RtError> {
        Ok(self.run_inner(false)?.0)
    }

    /// Run the main program and also capture its final memory (see
    /// [`MemorySnapshot`]) — the oracle the equivalence tests compare
    /// across execution modes.
    pub fn run_with_memory(&self) -> Result<(RunResult, MemorySnapshot), RtError> {
        let (r, m) = self.run_inner(true)?;
        Ok((r, m.unwrap_or_default()))
    }

    fn run_inner(
        &self,
        want_memory: bool,
    ) -> Result<(RunResult, Option<MemorySnapshot>), RtError> {
        let main_idx = self
            .program
            .units
            .iter()
            .position(|u| u.kind == ped_fortran::UnitKind::Main)
            .ok_or_else(|| RtError::new("no main program unit"))?;
        // The worker pool is built lazily in the sense that a run whose
        // program has no parallel loop (or isn't in Threads mode) never
        // spawns a thread, and neither does a shadow run, whose one
        // recorder lives on this thread. When it is built, it is built
        // once and reused by every PARALLEL DO of the run: fork cost per
        // loop is a condvar wakeup, not nthreads thread spawns.
        let workers = match self.config.mode {
            ParallelMode::Threads(n) if !self.config.shadow && self.has_parallel_loop() => n.max(1),
            _ => 0,
        };
        if workers == 0 {
            return self.run_main(main_idx, None, want_memory);
        }
        let pool: Pool<LoopJob> = Pool::new(workers);
        std::thread::scope(|scope| {
            for w in 0..workers {
                let pool = &pool;
                scope.spawn(move || self.worker_main(pool, w));
            }
            // Shut down on every way out, unwinding included: the scope
            // joins the workers, which only exit on shutdown.
            let _shutdown = ShutdownOnDrop(&pool);
            self.run_main(main_idx, Some(&pool), want_memory)
        })
    }

    fn run_main(
        &self,
        main_idx: usize,
        pool: Option<&Pool<LoopJob>>,
        want_memory: bool,
    ) -> Result<(RunResult, Option<MemorySnapshot>), RtError> {
        let mut state = ExecState::new(Arc::new(StepBudget::new(self.config.max_steps)));
        state.pool = pool;
        if self.config.shadow {
            state.shadow = Some(Box::default());
        }
        let res = self.make_frame(main_idx, &[], &mut state).and_then(|frame| {
            let flow = if self.compiled.is_some() {
                self.bexec_unit(main_idx, &frame, &mut state)
            } else {
                self.exec_unit(main_idx, &frame, &mut state)
            };
            flow.map(|_| frame)
        });
        match res {
            Ok(frame) => {
                let mem = want_memory.then(|| self.snapshot_memory(main_idx, &frame));
                Ok((
                    RunResult {
                        printed: state.printed,
                        vtime: state.vtime,
                        steps: state.steps,
                        profile: state.profile,
                        sched: state.sched,
                        shadow: state.shadow.take().map(|s| s.into_log()),
                    },
                    mem,
                ))
            }
            Err(mut e) => {
                e.steps = state.steps;
                Err(e)
            }
        }
    }

    /// Does any unit contain a `PARALLEL DO`? Decides whether Threads mode
    /// spawns workers at all.
    fn has_parallel_loop(&self) -> bool {
        self.program.units.iter().any(|u| {
            let mut found = false;
            ped_fortran::visit::for_each_stmt(u, &u.body, &mut |sid| {
                if let StmtKind::Do(d) = &u.stmt(sid).kind {
                    found |= d.is_parallel();
                }
            });
            found
        })
    }

    fn snapshot_memory(&self, unit_idx: usize, frame: &Frame) -> MemorySnapshot {
        let unit = &self.program.units[unit_idx];
        let mut out: MemorySnapshot = Vec::new();
        for (id, sym) in unit.symbols.iter() {
            let Some(cell) = frame.get(id) else { continue };
            let bits = if cell.is_array() {
                let a = cell.as_array();
                (0..a.len()).map(|i| a.load_flat(i).to_bits()).collect()
            } else {
                vec![cell.load_scalar().to_bits()]
            };
            out.push((sym.name.clone(), bits));
        }
        out.sort();
        out
    }

    /// Worker thread body: serve `PARALLEL DO` jobs until shutdown. A
    /// panic in a chunk is caught and parked in the job for the submitter
    /// to resume, and the job is still finished: the submitter never waits
    /// on a dead worker, and the worker stays alive for later jobs.
    fn worker_main(&self, pool: &Pool<LoopJob>, worker: usize) {
        let mut generation = 0u64;
        while let Some(job) = pool.next_job(&mut generation) {
            let base = job.base_frame.as_ref().expect("a pool job carries its frame");
            let chunks = || self.run_job_chunks(&job, worker, base, &mut None);
            if let Err(p) = catch_unwind(AssertUnwindSafe(chunks)) {
                job.panic.lock().expect("no panic while the slot is held").get_or_insert(p);
            }
            pool.finish_job();
        }
    }

    /// The `PARALLEL DO` at `sid` and its clauses, borrowed from the
    /// program.
    fn parallel_loop(
        &self,
        unit_idx: usize,
        sid: StmtId,
    ) -> (&'p ped_fortran::DoLoop, &'p ped_fortran::ParallelInfo) {
        let d = self.program.units[unit_idx].loop_of(sid);
        (d, d.parallel.as_ref().expect("only a PARALLEL DO forks"))
    }

    /// One worker's share of a job: bind per-worker private slots once on
    /// a clone of the submitting frame `base`, then drain chunks (own
    /// deque first, stealing when it runs dry). A shadow run's recorder
    /// (`shadow`, on the calling thread) masks the rebound cells at the
    /// loop's scope, records every chunk, and forgets the rebound cells
    /// once the job is done with them.
    fn run_job_chunks(
        &self,
        job: &LoopJob,
        worker: usize,
        base: &Frame,
        shadow: &mut Option<Box<ShadowRec>>,
    ) {
        let unit = &self.program.units[job.unit_idx];
        let (d, info) = self.parallel_loop(job.unit_idx, job.sid);
        let mut fr = base.clone();
        let var_cell = Cell::scalar(Ty::Integer);
        fr.bind(d.var, var_cell.clone());
        for &s in info.private.iter().chain(info.lastprivate.iter()) {
            // Private arrays (section-proven privatization) get a fresh
            // zeroed copy shaped like the shared cell; scalars a fresh slot.
            match fr.get(s).filter(|c| c.is_array()) {
                Some(base) => {
                    let a = base.as_array();
                    let (ty, dims) = (a.ty, a.dims.clone());
                    fr.bind(s, Cell::array(ty, dims));
                }
                None => fr.bind(s, Cell::scalar(unit.symbols.sym(s).ty)),
            }
        }
        let mut red_cells = Vec::with_capacity(info.reductions.len());
        for &(op, s) in &info.reductions {
            let ty = unit.symbols.sym(s).ty;
            let c = Cell::scalar(ty);
            fr.bind(s, c.clone());
            red_cells.push((op, ty, c));
        }
        let last_cells: Vec<(SymId, Arc<Cell>)> = info
            .lastprivate
            .iter()
            .map(|&s| (s, fr.get(s).expect("bound above").clone()))
            .collect();
        let rebound = shadow.as_deref_mut().map(|sh| {
            let (excluded, true_only) = shadow_masks(&var_cell, info, &fr);
            sh.mask(excluded.iter().copied(), true_only.iter().copied());
            [excluded, true_only].concat()
        });
        while let Some((chunk, stolen)) = job.queues.take(worker) {
            if stolen {
                job.chunks_stolen.fetch_add(1, Ordering::Relaxed);
            }
            if chunk.start > job.first_fault.load(Ordering::Relaxed) {
                continue;
            }
            let out = self.exec_chunk(
                job,
                chunk,
                worker,
                &fr,
                &var_cell,
                &red_cells,
                &last_cells,
                shadow,
            );
            if out.err.is_some() {
                job.first_fault.fetch_min(chunk.start, Ordering::Relaxed);
            }
            job.outs.lock().unwrap().push(out);
        }
        if let (Some(sh), Some(rebound)) = (shadow.as_deref_mut(), rebound) {
            sh.forget(rebound);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_chunk(
        &self,
        job: &LoopJob,
        chunk: Chunk,
        worker: usize,
        fr: &Frame,
        var_cell: &Arc<Cell>,
        red_cells: &[(RedOp, Ty, Arc<Cell>)],
        last_cells: &[(SymId, Arc<Cell>)],
        shadow: &mut Option<Box<ShadowRec>>,
    ) -> ChunkOut {
        let (d, _) = self.parallel_loop(job.unit_idx, job.sid);
        let mut st = ExecState::new(job.budget.clone());
        st.in_parallel = true;
        // Claim the block the first tick would, so that a fast body runs
        // its first iteration in fast form too.
        st.granted = job.budget.acquire(crate::pool::BUDGET_BLOCK);
        // The recorder records the chunk, whose iterations `ChunkTap`
        // numbers for the loop's scope, and goes back to the caller after.
        st.shadow = shadow.take();
        st.red_watch = red_cells
            .iter()
            .map(|&(op, ty, ref c)| RedWatch {
                cell: c.clone(),
                op,
                ty,
                log: Vec::new(),
                clean: true,
            })
            .collect();
        let mut tap = ChunkTap {
            start: chunk.start as u64,
            red_bufs: vec![Vec::new(); red_cells.len()],
            red_contribs: red_cells.iter().map(|_| Vec::new()).collect(),
        };
        // Bytecode jobs carry the compiled body: workers execute register
        // code, not an AST walk.
        let (body, mut regs) = match (job.cdo, self.compiled.as_ref()) {
            (Some(ci), Some(cp)) => {
                let cu = &cp.units[job.unit_idx];
                let regs = vec![Value::Int(0); cu.nregs()];
                (LoopBody::Code(cu.loop_body(ci), cu.loop_fast(ci)), regs)
            }
            _ => (LoopBody::Tree(&d.body), Vec::new()),
        };
        let var = (d.var, var_cell);
        let first = job.space.at(chunk.start as u64);
        let space = IterSpace { first, count: chunk.len as u64, ..job.space };
        let run =
            self.drive(job.unit_idx, body, fr, &mut st, &mut regs, var, space, Some(&mut tap));
        let err = match run {
            Ok(Flow::Normal) => None,
            Ok(_) => Some(RtError::new("RETURN/STOP inside a PARALLEL DO is not supported")),
            Err(e) => Some(e),
        };
        // Trailing fast iterations' operands (no slow iteration followed
        // to flush them). Faulted chunks may flush partial logs too —
        // harmless, since an erroring run returns before the merge ever
        // replays contributions.
        flush_red(&mut tap.red_bufs, &mut tap.red_contribs);
        st.release_grant();
        *shadow = st.shadow.take();
        // Capture lastprivate values now — the cells are reused by this
        // worker's next chunk.
        let lastprivates = last_cells.iter().map(|(s, c)| (*s, c.load_scalar())).collect();
        ChunkOut {
            start: chunk.start,
            len: chunk.len,
            worker,
            printed: st.printed,
            steps: st.steps,
            vtime: st.vtime,
            profile: st.profile,
            red_contribs: tap.red_contribs,
            lastprivates,
            err,
        }
    }

    /// Allocate a frame for a unit invocation; `bound` pairs formal symbols
    /// with pre-bound cells (actual arguments).
    pub(crate) fn make_frame(
        &self,
        unit_idx: usize,
        bound: &[(SymId, Arc<Cell>)],
        state: &mut ExecState<'_>,
    ) -> Result<Frame, RtError> {
        let unit = &self.program.units[unit_idx];
        let mut frame = Frame::with_capacity(unit.symbols.len());
        for (s, c) in bound {
            frame.bind(*s, c.clone());
        }
        // COMMON members alias global storage.
        for blk in &unit.commons {
            let cells = &self.commons[&blk.name];
            for (i, &m) in blk.members.iter().enumerate() {
                frame.bind(m, cells[i].clone());
            }
        }
        // Locals (anything unbound, except PARAMETERs).
        for (id, sym) in unit.symbols.iter() {
            if frame.get(id).is_some() || sym.param.is_some() {
                continue;
            }
            let cell = if sym.is_array() {
                let mut dims = Vec::with_capacity(sym.dims.len());
                for d in &sym.dims {
                    let lo = self.eval(unit_idx, &d.lo, &frame, state)?.as_int();
                    let hi = match &d.hi {
                        Some(e) => self.eval(unit_idx, e, &frame, state)?.as_int(),
                        None => {
                            return Err(RtError::new(format!(
                                "assumed-size local array {} in {}",
                                sym.name, unit.name
                            )))
                        }
                    };
                    dims.push((lo, hi));
                }
                alloc_array(sym.ty, dims, &sym.name, &unit.name)?
            } else {
                Cell::scalar(sym.ty)
            };
            frame.bind(id, cell);
        }
        Ok(frame)
    }

    fn exec_unit(
        &self,
        unit_idx: usize,
        frame: &Frame,
        state: &mut ExecState<'_>,
    ) -> Result<Flow, RtError> {
        let body = self.program.units[unit_idx].body.clone();
        self.exec_block(unit_idx, &body, frame, state)
    }

    pub(crate) fn exec_block(
        &self,
        unit_idx: usize,
        block: &[StmtId],
        frame: &Frame,
        state: &mut ExecState<'_>,
    ) -> Result<Flow, RtError> {
        for &sid in block {
            match self.exec_stmt(unit_idx, sid, frame, state)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(
        &self,
        unit_idx: usize,
        sid: StmtId,
        frame: &Frame,
        state: &mut ExecState<'_>,
    ) -> Result<Flow, RtError> {
        let unit = &self.program.units[unit_idx];
        state.tick(1.0)?;
        match &unit.stmt(sid).kind {
            StmtKind::Assign { lhs, rhs } => {
                // Scalar stores to a watched reduction cell go through the
                // operand recognizer (cell identity, so cross-unit stores
                // through arguments and COMMON are caught too).
                if !state.red_watch.is_empty() {
                    if let LValue::Var(s) = lhs {
                        let cell = self.cell(unit, frame, *s)?.clone();
                        if let Some(wi) = state.watched(&cell) {
                            self.red_assign(unit_idx, wi, *s, rhs, &cell, frame, state)?;
                            return Ok(Flow::Normal);
                        }
                    }
                }
                let v = self.eval(unit_idx, rhs, frame, state)?;
                match lhs {
                    LValue::Var(s) => {
                        let cell = self.cell(unit, frame, *s)?;
                        state.record(cell, 0, true, unit_idx, *s);
                        cell.store_scalar(v);
                    }
                    LValue::ArrayElem(s, subs) => {
                        let mut idx = Vec::with_capacity(subs.len());
                        for e in subs {
                            idx.push(self.eval(unit_idx, e, frame, state)?.as_int());
                        }
                        let cell = self.cell(unit, frame, *s)?;
                        let arr = cell.as_array();
                        let flat = arr.linearize(&idx).ok_or_else(|| {
                            RtError::new(format!(
                                "subscript out of bounds: {}({idx:?}) in {}",
                                unit.symbols.name(*s),
                                unit.name
                            ))
                        })?;
                        state.record(cell, flat, true, unit_idx, *s);
                        arr.store_flat(flat, v);
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::If { arms, else_block } => {
                for (cond, blk) in arms {
                    if self.eval(unit_idx, cond, frame, state)?.as_logical() {
                        return self.exec_block(unit_idx, blk, frame, state);
                    }
                }
                if let Some(blk) = else_block {
                    return self.exec_block(unit_idx, blk, frame, state);
                }
                Ok(Flow::Normal)
            }
            StmtKind::Do(_) => self.exec_do(unit_idx, sid, frame, state),
            StmtKind::Call { name, args } => {
                self.exec_call(unit_idx, name, args, frame, state)?;
                Ok(Flow::Normal)
            }
            StmtKind::Print { items } => {
                let mut parts = Vec::with_capacity(items.len());
                for e in items {
                    match e {
                        Expr::Str(s) => parts.push(s.clone()),
                        _ => parts.push(self.eval(unit_idx, e, frame, state)?.display()),
                    }
                }
                state.printed.push(parts.join(" "));
                Ok(Flow::Normal)
            }
            StmtKind::Return => Ok(Flow::Return),
            StmtKind::Stop => Ok(Flow::Stop),
            StmtKind::Continue | StmtKind::Removed => Ok(Flow::Normal),
        }
    }

    fn exec_do(
        &self,
        unit_idx: usize,
        sid: StmtId,
        frame: &Frame,
        state: &mut ExecState<'_>,
    ) -> Result<Flow, RtError> {
        let d = self.program.units[unit_idx].loop_of(sid);
        // The header is evaluated once at entry (F77 rules).
        let lo = self.eval(unit_idx, &d.lo, frame, state)?.as_int();
        let hi = self.eval(unit_idx, &d.hi, frame, state)?.as_int();
        let step = match &d.step {
            None => 1,
            Some(e) => self.eval(unit_idx, e, frame, state)?.as_int(),
        };
        let space = IterSpace::new(lo, hi, step)?;
        self.scoped_do(unit_idx, sid, d, frame, state, |state| {
            if self.forks(d, state) {
                Ok((self.run_parallel(unit_idx, sid, space, frame, state, None)?, space.count))
            } else {
                let vals = iteration_values(lo, hi, step);
                Ok((self.run_serial(unit_idx, d, &vals, frame, state)?, vals.len() as u64))
            }
        })
    }

    /// One DO execution with the bookkeeping both engines share around
    /// `run`, which executes the iterations and reports their count: the
    /// loop's shadow scope and its profile entry. A parallel loop's scope
    /// masks exactly what a worker rebinds: its variable plus the clause
    /// cells. A serial DO masks nothing — its index is an ordinary shared
    /// cell whose per-iteration store must stay visible to enclosing
    /// scopes (a missing private() on an inner loop's index is a real race
    /// the checker has to observe).
    pub(crate) fn scoped_do<'a>(
        &self,
        unit_idx: usize,
        sid: StmtId,
        d: &ped_fortran::DoLoop,
        frame: &Frame,
        state: &mut ExecState<'a>,
        run: impl FnOnce(&mut ExecState<'a>) -> Result<(Flow, u64), RtError>,
    ) -> Result<Flow, RtError> {
        let unit = &self.program.units[unit_idx];
        let vt0 = state.vtime;
        let wall0 = Instant::now();
        if state.shadow.is_some() {
            let (excluded, true_only) = match &d.parallel {
                Some(info) => shadow_masks(self.cell(unit, frame, d.var)?, info, frame),
                None => Default::default(),
            };
            if let Some(sh) = state.shadow.as_mut() {
                sh.push_scope(sid, excluded, true_only);
            }
        }
        let (flow, trips) = run(state)?;
        if let Some(sh) = state.shadow.as_deref_mut() {
            let prog = self.program;
            sh.pop_scope(&unit.name, trips, |u, s| prog.units[u].symbols.name(s).to_string());
        }
        let entry = state.profile.entry((unit.name.clone(), sid)).or_default();
        entry.invocations += 1;
        entry.iterations += trips;
        entry.ops += state.vtime - vt0;
        entry.wall_ns += wall0.elapsed().as_nanos() as u64;
        Ok(flow)
    }

    fn run_serial(
        &self,
        unit_idx: usize,
        d: &ped_fortran::DoLoop,
        vals: &[i64],
        frame: &Frame,
        state: &mut ExecState<'_>,
    ) -> Result<Flow, RtError> {
        let unit = &self.program.units[unit_idx];
        let var_cell = self.cell(unit, frame, d.var)?.clone();
        for (k, &v) in vals.iter().enumerate() {
            if let Some(sh) = state.shadow.as_deref_mut() {
                sh.set_iter(k as u64);
            }
            state.tick(2.0)?;
            state.record(&var_cell, 0, true, unit_idx, d.var);
            var_cell.store_scalar(Value::Int(v));
            match self.exec_block(unit_idx, &d.body, frame, state)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    /// Does this execution of `d` go through the job/chunk/merge path? A
    /// `PARALLEL DO` does when it is not already inside one, under
    /// `Simulate` and `Threads`.
    pub(crate) fn forks(&self, d: &ped_fortran::DoLoop, state: &ExecState<'_>) -> bool {
        d.is_parallel() && !state.in_parallel && self.config.mode != ParallelMode::Serial
    }

    /// Does this `Threads` execution of a `PARALLEL DO` with `trip`
    /// iterations run on the calling thread instead of the pool? Yes when
    /// its work is statically bounded by [`INLINE_STEPS`]. The bound is the
    /// trip times the exact step count of one iteration, which only a
    /// straight-line body lowered to fast form has. So the decision depends
    /// on the program and the trip alone, never on timing: scheduler
    /// counters repeat run to run. The tree engine lowers nothing, so its
    /// loops have no bound and always go to the pool; its `Threads` runs
    /// are thereby the pool-path oracle for the bytecode engine's inline
    /// ones. (A shadow run has no pool: everything runs inline.)
    fn runs_inline(&self, unit_idx: usize, cdo: Option<u32>, trip: u64) -> bool {
        let fast =
            cdo.zip(self.compiled.as_ref()).and_then(|(ci, cp)| cp.units[unit_idx].loop_fast(ci));
        fast.is_some_and(|f| f.steps.saturating_mul(trip) <= INLINE_STEPS)
    }

    /// Run a `PARALLEL DO` as chunks and merge their results
    /// deterministically: printed lines in iteration order, reductions
    /// recombined in serial fold order, lastprivate from the chunk holding
    /// the final iteration. Output is therefore bit-identical to serial
    /// execution. Under `Threads` the pool runs the schedule's chunks,
    /// unless the loop [runs inline](Self::runs_inline) or the run has no
    /// pool (a shadow run): then this thread runs it as one chunk. Under
    /// `Simulate` this thread runs the machine's static blocks in
    /// iteration order and charges them through [`Machine::block_charge`].
    pub(crate) fn run_parallel(
        &self,
        unit_idx: usize,
        sid: StmtId,
        space: IterSpace,
        frame: &Frame,
        state: &mut ExecState<'_>,
        cdo: Option<u32>,
    ) -> Result<Flow, RtError> {
        let unit = &self.program.units[unit_idx];
        let (d, info) = self.parallel_loop(unit_idx, sid);
        let n = space.count as usize;
        let (chunks, pool) = match (self.config.mode, state.pool) {
            (ParallelMode::Simulate(m), _) => (plan_chunks(Schedule::Static, n, m.procs), None),
            // An empty loop under Threads: nothing to dispatch or charge.
            _ if n == 0 => return Ok(Flow::Normal),
            (_, Some(pool)) if !self.runs_inline(unit_idx, cdo, space.count) => {
                (plan_chunks(self.config.schedule, n, pool.workers()), Some(pool))
            }
            _ => (plan_chunks(Schedule::Static, n, 1), None),
        };
        let workers = pool.map_or(1, Pool::workers);
        // The chunks draw on the whole remaining budget, so a budget abort
        // lands on the same step as in a serial run.
        state.release_grant();
        let job = Arc::new(LoopJob {
            unit_idx,
            sid,
            space,
            base_frame: pool.map(|_| frame.clone()),
            budget: state.budget.clone(),
            queues: ChunkQueues::seed(&chunks, workers),
            chunks_stolen: AtomicU64::new(0),
            first_fault: AtomicUsize::new(usize::MAX),
            outs: Mutex::new(Vec::with_capacity(chunks.len())),
            panic: Mutex::new(None),
            cdo,
        });
        match pool {
            Some(pool) => {
                pool.run_job(job.clone());
                if let Some(p) = job.panic.lock().expect("no panic while the slot is held").take() {
                    resume_unwind(p);
                }
            }
            None => self.run_job_chunks(&job, 0, frame, &mut state.shadow),
        }

        let mut outs = std::mem::take(&mut *job.outs.lock().unwrap());
        outs.sort_by_key(|o| o.start);

        // Fold executed statements in before any error return, so budget
        // accounting covers aborted chunks too.
        for o in &outs {
            state.steps += o.steps;
        }
        if let ParallelMode::Simulate(m) = self.config.mode {
            state.vtime += m.block_charge(outs.iter().map(|o| (o.vtime, o.len)));
        } else {
            // Parallel time charge: the busiest worker's total (inline, the
            // one chunk's).
            let mut worker_vtime = vec![0.0f64; workers];
            for o in &outs {
                worker_vtime[o.worker] += o.vtime;
            }
            state.vtime += worker_vtime.iter().copied().fold(0.0, f64::max);
            let sched = &mut state.sched;
            if pool.is_none() {
                sched.inline_loops += 1;
            } else {
                sched.parallel_loops += 1;
                sched.chunks_executed += outs.len() as u64;
                sched.chunks_stolen += job.chunks_stolen.load(Ordering::Relaxed);
                if sched.worker_iterations.len() < workers {
                    sched.worker_iterations.resize(workers, 0);
                }
                for o in &outs {
                    sched.worker_iterations[o.worker] += o.len as u64;
                }
            }
        }
        for o in &outs {
            for (k, v) in &o.profile {
                let e = state.profile.entry(k.clone()).or_default();
                e.invocations += v.invocations;
                e.iterations += v.iterations;
                e.ops += v.ops;
                e.wall_ns += v.wall_ns;
            }
        }
        // First error in iteration order wins.
        if let Some(e) = outs.iter().find_map(|o| o.err.clone()) {
            return Err(e);
        }
        for o in &outs {
            state.printed.extend_from_slice(&o.printed);
        }
        // Reductions: replay each iteration's logged accumulation operands
        // (or its fallback delta) in global iteration order — exactly the
        // serial fold, bit for bit.
        for (ri, &(op, s)) in info.reductions.iter().enumerate() {
            let cell = self.cell(unit, frame, s)?;
            let mut cur = cell.load_scalar();
            for o in &outs {
                for contrib in &o.red_contribs[ri] {
                    match contrib {
                        RedContrib::Ops(xs) => {
                            for &x in xs {
                                cur = combine(op, cur, x);
                            }
                        }
                        RedContrib::Delta(d) => cur = combine(op, cur, *d),
                    }
                }
            }
            cell.store_scalar(cur);
        }
        // Lastprivate: the chunk containing the final iteration.
        if let Some(last_out) = outs.last() {
            for &(s, v) in &last_out.lastprivates {
                self.cell(unit, frame, s)?.store_scalar(v);
            }
        }
        // The loop variable's final value: the serial interpreter leaves
        // it at the last executed iteration value, so match that exactly.
        if n > 0 {
            self.cell(unit, frame, d.var)?.store_scalar(Value::Int(space.at(space.count - 1)));
        }
        Ok(Flow::Normal)
    }

    fn exec_call(
        &self,
        unit_idx: usize,
        name: &str,
        args: &[Expr],
        frame: &Frame,
        state: &mut ExecState<'_>,
    ) -> Result<Option<Value>, RtError> {
        let unit = &self.program.units[unit_idx];
        let callee_idx = self
            .program
            .unit_index(name)
            .ok_or_else(|| RtError::new(format!("call to unknown procedure {name}")))?;
        let callee = &self.program.units[callee_idx];
        if callee.args.len() != args.len() {
            return Err(RtError::new(format!(
                "{name} expects {} arguments, got {}",
                callee.args.len(),
                args.len()
            )));
        }
        state.tick(8.0)?; // call overhead
        let mut bound: Vec<(SymId, Arc<Cell>)> = Vec::with_capacity(args.len());
        // Copy-out obligations: (caller cell, flat index, temp cell).
        let mut writebacks: Vec<(Arc<Cell>, usize, Arc<Cell>)> = Vec::new();
        for (&formal, actual) in callee.args.iter().zip(args) {
            match actual {
                Expr::Var(s) if unit.symbols.sym(*s).param.is_none() => {
                    // Binding by reference is not itself a data access; the
                    // callee's actual reads/writes are recorded as they run.
                    let cell = self.cell(unit, frame, *s)?.clone();
                    bound.push((formal, cell));
                }
                Expr::Var(s) => {
                    // PARAMETER constant: pass by value in a temp cell.
                    let tmp = Cell::scalar(callee.symbols.sym(formal).ty);
                    tmp.store_scalar(const_value(
                        unit.symbols.sym(*s).param.expect("checked above"),
                    ));
                    bound.push((formal, tmp));
                }
                Expr::ArrayRef { sym, subs } => {
                    // Element passed by reference: copy-in/copy-out.
                    let mut idx = Vec::with_capacity(subs.len());
                    for e in subs {
                        idx.push(self.eval(unit_idx, e, frame, state)?.as_int());
                    }
                    let cell = self.cell(unit, frame, *sym)?.clone();
                    let arr = cell.as_array();
                    let flat = arr.linearize(&idx).ok_or_else(|| {
                        RtError::new(format!(
                            "argument subscript out of bounds in call to {name}"
                        ))
                    })?;
                    state.record(&cell, flat, true, unit_idx, *sym);
                    let tmp = Cell::scalar(callee.symbols.sym(formal).ty);
                    tmp.store_scalar(arr.load_flat(flat));
                    writebacks.push((cell.clone(), flat, tmp.clone()));
                    bound.push((formal, tmp));
                }
                other => {
                    let v = self.eval(unit_idx, other, frame, state)?;
                    let tmp = Cell::scalar(callee.symbols.sym(formal).ty);
                    tmp.store_scalar(v);
                    bound.push((formal, tmp));
                }
            }
        }
        let callee_frame = self.make_frame(callee_idx, &bound, state)?;
        if let Flow::Stop = self.exec_unit(callee_idx, &callee_frame, state)? {
            return Err(RtError::new("STOP inside a procedure"));
        }
        for (cell, flat, tmp) in writebacks {
            cell.as_array().store_flat(flat, tmp.load_scalar());
        }
        // Function result.
        if let ped_fortran::UnitKind::Function(_) = callee.kind {
            let ret = callee
                .symbols
                .lookup(&callee.name)
                .ok_or_else(|| RtError::new(format!("function {name} has no result var")))?;
            let v = callee_frame
                .get(ret)
                .ok_or_else(|| RtError::new("unbound function result"))?
                .load_scalar();
            Ok(Some(v))
        } else {
            Ok(None)
        }
    }

    /// Store to a watched reduction cell. When `rhs` has the recognized
    /// accumulation shape `cell ⊕ x₁ ⊕ x₂ …`, only the operands are
    /// evaluated (the spine merely reloads the cell) and they are logged
    /// so the merge can replay the exact serial fold — this is what keeps
    /// iterations that accumulate *several times* (an inner serial loop
    /// summing into the reduction variable, say) bit-identical to serial.
    /// Any other store voids the iteration's log; it falls back to the
    /// per-iteration delta.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn red_assign(
        &self,
        unit_idx: usize,
        wi: usize,
        sym: SymId,
        rhs: &Expr,
        cell: &Arc<Cell>,
        frame: &Frame,
        state: &mut ExecState<'_>,
    ) -> Result<(), RtError> {
        let op = state.red_watch[wi].op;
        let mut operands = Vec::new();
        if self.match_accum(unit_idx, rhs, frame, op, cell, &mut operands) {
            // Charge what the plain evaluation would have: one node per
            // spine operator plus the reload of the cell itself.
            state.vtime += operands.len() as f64 + 1.0;
            let mut vals = Vec::with_capacity(operands.len());
            for e in &operands {
                vals.push(self.eval(unit_idx, e, frame, state)?);
            }
            // The recognizer replaced the spine reload with a direct load;
            // the shadow log still needs the read-then-write the plain
            // evaluation would have recorded (inner serial scopes observe
            // the accumulator exactly as they do in serial execution).
            state.record(cell, 0, false, unit_idx, sym);
            let mut v = cell.load_scalar();
            for &x in &vals {
                v = combine(op, v, x);
            }
            state.red_watch[wi].log.extend(vals);
            state.record(cell, 0, true, unit_idx, sym);
            cell.store_scalar(v);
        } else {
            state.red_watch[wi].clean = false;
            let v = self.eval(unit_idx, rhs, frame, state)?;
            state.record(cell, 0, true, unit_idx, sym);
            cell.store_scalar(v);
        }
        Ok(())
    }

    /// Recognize `e` as an accumulation spine over the watched cell:
    /// `cell`, `spine ⊕ x`, or `x ⊕ spine-var` (IEEE `+` and `*` commute
    /// bitwise, so both orientations fold identically). Operands are
    /// pushed in serial application order; each must be pure (no calls —
    /// a call could read or write the cell) and must not read the cell.
    fn match_accum<'e>(
        &self,
        unit_idx: usize,
        e: &'e Expr,
        frame: &Frame,
        op: RedOp,
        cell: &Arc<Cell>,
        out: &mut Vec<&'e Expr>,
    ) -> bool {
        let spine_op = match op {
            RedOp::Sum => BinOp::Add,
            RedOp::Product => BinOp::Mul,
            // MIN/MAX are exactly associative-commutative, so the delta
            // fallback already matches serial bit-for-bit.
            _ => return false,
        };
        match e {
            Expr::Var(s) => self.resolves_to(unit_idx, *s, frame, cell),
            Expr::Bin { op: b, l, r } if *b == spine_op => {
                let mark = out.len();
                if self.match_accum(unit_idx, l, frame, op, cell, out) {
                    if self.expr_avoids(unit_idx, r, frame, cell) {
                        out.push(r);
                        return true;
                    }
                    out.truncate(mark);
                    return false;
                }
                if matches!(&**r, Expr::Var(s) if self.resolves_to(unit_idx, *s, frame, cell))
                    && self.expr_avoids(unit_idx, l, frame, cell)
                {
                    out.push(l);
                    return true;
                }
                false
            }
            _ => false,
        }
    }

    /// True when `s` is a runtime variable bound to exactly this cell.
    fn resolves_to(&self, unit_idx: usize, s: SymId, frame: &Frame, cell: &Arc<Cell>) -> bool {
        self.program.units[unit_idx].symbols.sym(s).param.is_none()
            && frame.get(s).is_some_and(|c| Arc::ptr_eq(c, cell))
    }

    /// Pure and cell-free: no calls anywhere, and no load of the watched
    /// scalar. Array cells are distinct allocations from any scalar cell,
    /// so walking their subscripts suffices.
    fn expr_avoids(&self, unit_idx: usize, e: &Expr, frame: &Frame, cell: &Arc<Cell>) -> bool {
        match e {
            Expr::Int(_) | Expr::Real(_) | Expr::Double(_) | Expr::Logical(_) | Expr::Str(_) => {
                true
            }
            Expr::Var(s) => !self.resolves_to(unit_idx, *s, frame, cell),
            Expr::ArrayRef { subs, .. } => {
                subs.iter().all(|x| self.expr_avoids(unit_idx, x, frame, cell))
            }
            Expr::Un { e, .. } => self.expr_avoids(unit_idx, e, frame, cell),
            Expr::Bin { l, r, .. } => {
                self.expr_avoids(unit_idx, l, frame, cell)
                    && self.expr_avoids(unit_idx, r, frame, cell)
            }
            Expr::Intrinsic { args, .. } => {
                args.iter().all(|x| self.expr_avoids(unit_idx, x, frame, cell))
            }
            Expr::Call { .. } => false,
        }
    }

    pub(crate) fn cell<'f>(
        &self,
        unit: &ProgramUnit,
        frame: &'f Frame,
        sym: SymId,
    ) -> Result<&'f Arc<Cell>, RtError> {
        frame.get(sym).ok_or_else(|| {
            RtError::new(format!("unbound symbol {} in {}", unit.symbols.name(sym), unit.name))
        })
    }

    fn eval(
        &self,
        unit_idx: usize,
        e: &Expr,
        frame: &Frame,
        state: &mut ExecState<'_>,
    ) -> Result<Value, RtError> {
        let unit = &self.program.units[unit_idx];
        state.vtime += 1.0;
        match e {
            Expr::Int(v) => Ok(Value::Int(*v)),
            Expr::Real(v) | Expr::Double(v) => Ok(Value::Real(*v)),
            Expr::Logical(b) => Ok(Value::Logical(*b)),
            Expr::Str(_) => Err(RtError::new("character value outside PRINT")),
            Expr::Var(s) => {
                if let Some(c) = unit.symbols.sym(*s).param {
                    return Ok(const_value(c));
                }
                let cell = self.cell(unit, frame, *s)?;
                state.record(cell, 0, false, unit_idx, *s);
                Ok(cell.load_scalar())
            }
            Expr::ArrayRef { sym, subs } => {
                let mut idx = Vec::with_capacity(subs.len());
                for s in subs {
                    idx.push(self.eval(unit_idx, s, frame, state)?.as_int());
                }
                let cell = self.cell(unit, frame, *sym)?;
                let arr = cell.as_array();
                let flat = arr.linearize(&idx).ok_or_else(|| {
                    RtError::new(format!(
                        "subscript out of bounds: {}({idx:?}) in {}",
                        unit.symbols.name(*sym),
                        unit.name
                    ))
                })?;
                state.record(cell, flat, false, unit_idx, *sym);
                Ok(arr.load_flat(flat))
            }
            Expr::Un { op: UnOp::Neg, e } => {
                let v = self.eval(unit_idx, e, frame, state)?;
                eval_neg(v)
            }
            Expr::Un { op: UnOp::Not, e } => {
                let v = self.eval(unit_idx, e, frame, state)?;
                Ok(Value::Logical(!v.as_logical()))
            }
            Expr::Bin { op, l, r } => {
                let lv = self.eval(unit_idx, l, frame, state)?;
                // Short-circuit logicals for speed (F77 leaves order free).
                if *op == BinOp::And && !lv.as_logical() {
                    return Ok(Value::Logical(false));
                }
                if *op == BinOp::Or && lv.as_logical() {
                    return Ok(Value::Logical(true));
                }
                let rv = self.eval(unit_idx, r, frame, state)?;
                eval_bin(*op, lv, rv)
            }
            Expr::Intrinsic { op, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(unit_idx, a, frame, state)?);
                }
                state.vtime += 6.0;
                eval_intrinsic(*op, &vals)
            }
            Expr::Call { name, args } => {
                let v = self.exec_call(unit_idx, name, args, frame, state)?;
                v.ok_or_else(|| RtError::new(format!("{name} is a subroutine, not a function")))
            }
        }
    }
}

/// Unary negation, shared by both engines. Integer negation wraps
/// (`-i64::MIN` stays `i64::MIN`, Fortran's usual two's-complement story)
/// rather than tripping Rust's debug overflow panic.
pub(crate) fn eval_neg(v: Value) -> Result<Value, RtError> {
    match v {
        Value::Int(i) => Ok(Value::Int(i.wrapping_neg())),
        Value::Real(r) => Ok(Value::Real(-r)),
        Value::Logical(_) => Err(RtError::new("negating a LOGICAL")),
    }
}

pub(crate) fn const_value(c: Const) -> Value {
    match c {
        Const::Int(v) => Value::Int(v),
        Const::Real(v) => Value::Real(v),
        Const::Logical(b) => Value::Logical(b),
    }
}

fn red_identity(op: RedOp, ty: Ty) -> Value {
    match (op, ty) {
        (RedOp::Sum, Ty::Integer) => Value::Int(0),
        (RedOp::Sum, _) => Value::Real(0.0),
        (RedOp::Product, Ty::Integer) => Value::Int(1),
        (RedOp::Product, _) => Value::Real(1.0),
        (RedOp::Min, Ty::Integer) => Value::Int(i64::MAX),
        (RedOp::Min, _) => Value::Real(f64::INFINITY),
        (RedOp::Max, Ty::Integer) => Value::Int(i64::MIN),
        (RedOp::Max, _) => Value::Real(f64::NEG_INFINITY),
    }
}

fn combine(op: RedOp, a: Value, b: Value) -> Value {
    match op {
        RedOp::Sum => num2(a, b, |x, y| x + y, |x, y| x + y),
        RedOp::Product => num2(a, b, |x, y| x * y, |x, y| x * y),
        RedOp::Min => num2(a, b, i64::min, f64::min),
        RedOp::Max => num2(a, b, i64::max, f64::max),
    }
}

/// Drain fast-path reduction operand buffers into the chunk's ordered
/// contribution lists: each non-empty buffer becomes one `Ops` run,
/// exactly as if `red_assign` had logged the same operands.
fn flush_red(bufs: &mut [Vec<Value>], contribs: &mut [Vec<RedContrib>]) {
    for (b, c) in bufs.iter_mut().zip(contribs.iter_mut()) {
        if !b.is_empty() {
            c.push(RedContrib::Ops(std::mem::take(b)));
        }
    }
}

#[inline]
pub(crate) fn num2(
    a: Value,
    b: Value,
    fi: impl Fn(i64, i64) -> i64,
    fr: impl Fn(f64, f64) -> f64,
) -> Value {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Value::Int(fi(x, y)),
        _ => Value::Real(fr(a.as_real(), b.as_real())),
    }
}

#[inline]
pub(crate) fn eval_bin(op: BinOp, l: Value, r: Value) -> Result<Value, RtError> {
    use BinOp::*;
    match op {
        Add => Ok(num2(l, r, |a, b| a.wrapping_add(b), |a, b| a + b)),
        Sub => Ok(num2(l, r, |a, b| a.wrapping_sub(b), |a, b| a - b)),
        Mul => Ok(num2(l, r, |a, b| a.wrapping_mul(b), |a, b| a * b)),
        Div => match (l, r) {
            (Value::Int(_), Value::Int(0)) => Err(RtError::new("integer division by zero")),
            (Value::Int(i64::MIN), Value::Int(-1)) => {
                Err(RtError::new("integer division overflow"))
            }
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a / b)),
            _ => Ok(Value::Real(l.as_real() / r.as_real())),
        },
        Pow => match (l, r) {
            (Value::Int(a), Value::Int(b)) if b >= 0 => {
                Ok(Value::Int(a.wrapping_pow(b.min(63) as u32)))
            }
            _ => Ok(Value::Real(l.as_real().powf(r.as_real()))),
        },
        Lt | Le | Gt | Ge | Eq | Ne => {
            let res = match (l, r) {
                (Value::Int(a), Value::Int(b)) => cmp(op, a.partial_cmp(&b)),
                _ => cmp(op, l.as_real().partial_cmp(&r.as_real())),
            };
            Ok(Value::Logical(res))
        }
        And => Ok(Value::Logical(l.as_logical() && r.as_logical())),
        Or => Ok(Value::Logical(l.as_logical() || r.as_logical())),
        Concat => Err(RtError::new("character concatenation outside PRINT")),
    }
}

fn cmp(op: BinOp, ord: Option<std::cmp::Ordering>) -> bool {
    use std::cmp::Ordering::*;
    matches!(
        (op, ord),
        (BinOp::Lt, Some(Less))
            | (BinOp::Le, Some(Less | Equal))
            | (BinOp::Gt, Some(Greater))
            | (BinOp::Ge, Some(Greater | Equal))
            | (BinOp::Eq, Some(Equal))
            | (BinOp::Ne, Some(Less | Greater))
    )
}

pub(crate) fn eval_intrinsic(op: Intrinsic, vals: &[Value]) -> Result<Value, RtError> {
    use Intrinsic::*;
    let need = |n: usize| -> Result<(), RtError> {
        if vals.len() == n {
            Ok(())
        } else {
            Err(RtError::new(format!("{} expects {n} arguments", op.name())))
        }
    };
    match op {
        Min | Max => {
            if vals.is_empty() {
                return Err(RtError::new("MIN/MAX need arguments"));
            }
            let mut acc = vals[0];
            for &v in &vals[1..] {
                acc = match op {
                    Min => num2(acc, v, i64::min, f64::min),
                    _ => num2(acc, v, i64::max, f64::max),
                };
            }
            Ok(acc)
        }
        Mod => {
            need(2)?;
            match (vals[0], vals[1]) {
                (Value::Int(_), Value::Int(0)) => Err(RtError::new("MOD by zero")),
                // wrapping_rem: MOD(i64::MIN, -1) is 0, not a panic.
                (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_rem(b))),
                (a, b) => Ok(Value::Real(a.as_real() % b.as_real())),
            }
        }
        Abs => {
            need(1)?;
            Ok(match vals[0] {
                // wrapping_abs: ABS(i64::MIN) wraps to itself, never panics.
                Value::Int(v) => Value::Int(v.wrapping_abs()),
                v => Value::Real(v.as_real().abs()),
            })
        }
        Sqrt => {
            need(1)?;
            Ok(Value::Real(vals[0].as_real().sqrt()))
        }
        Sin => {
            need(1)?;
            Ok(Value::Real(vals[0].as_real().sin()))
        }
        Cos => {
            need(1)?;
            Ok(Value::Real(vals[0].as_real().cos()))
        }
        Exp => {
            need(1)?;
            Ok(Value::Real(vals[0].as_real().exp()))
        }
        Log => {
            need(1)?;
            Ok(Value::Real(vals[0].as_real().ln()))
        }
        Float | Dble => {
            need(1)?;
            Ok(Value::Real(vals[0].as_real()))
        }
        Int => {
            need(1)?;
            Ok(Value::Int(vals[0].as_int()))
        }
        Sign => {
            need(2)?;
            let mag = vals[0].as_real().abs();
            let s = if vals[1].as_real() < 0.0 { -mag } else { mag };
            Ok(match (vals[0], vals[1]) {
                (Value::Int(a), Value::Int(b)) => {
                    let m = a.wrapping_abs();
                    Value::Int(if b < 0 { m.wrapping_neg() } else { m })
                }
                _ => Value::Real(s),
            })
        }
    }
}

/// Allocate an array cell with validated dimensions: a bound list whose
/// element count overflows or exceeds the allocation cap becomes a named
/// `RtError` instead of a panic/abort inside `ArrayCell::new`.
pub(crate) fn alloc_array(
    ty: Ty,
    dims: Vec<(i64, i64)>,
    name: &str,
    unit: &str,
) -> Result<Arc<Cell>, RtError> {
    if crate::memory::ArrayCell::checked_len(&dims).is_none() {
        return Err(RtError::new(format!(
            "array {name} in {unit} has dimensions too large to allocate"
        )));
    }
    Ok(Cell::array(ty, dims))
}

/// Every subscripted name must be a declared array. The parser reads an
/// undeclared `a(i) = …` as an element store to the scalar `a` (there is
/// no storage to index), so this is checked before either engine runs.
fn check_subscripted_arrays(unit: &ProgramUnit) -> Result<(), RtError> {
    let mut bad: Option<SymId> = None;
    ped_fortran::visit::for_each_stmt(unit, &unit.body, &mut |sid| {
        let kind = &unit.stmt(sid).kind;
        if let StmtKind::Assign { lhs: LValue::ArrayElem(sym, _), .. } = kind {
            if !unit.symbols.sym(*sym).is_array() {
                bad = bad.or(Some(*sym));
            }
        }
        ped_fortran::visit::for_each_expr_of_stmt(kind, &mut |e| {
            if let Expr::ArrayRef { sym, .. } = e {
                if !unit.symbols.sym(*sym).is_array() {
                    bad = bad.or(Some(*sym));
                }
            }
        });
    });
    match bad {
        None => Ok(()),
        Some(sym) => Err(RtError::new(format!(
            "{}: `{}` is subscripted but not declared as an array",
            unit.name,
            unit.symbols.sym(sym).name
        ))),
    }
}

/// Evaluate constant array dims for COMMON allocation (literals/PARAMETERs).
fn static_dims(unit: &ProgramUnit, sym: SymId) -> Result<Vec<(i64, i64)>, RtError> {
    let mut out = Vec::new();
    for d in &unit.symbols.sym(sym).dims {
        let lo = static_int(unit, &d.lo)?;
        let hi = match &d.hi {
            Some(e) => static_int(unit, e)?,
            None => return Err(RtError::new("assumed-size COMMON array")),
        };
        out.push((lo, hi));
    }
    Ok(out)
}

/// Values the loop variable takes: the walker's serial loop, which runs
/// over a materialized list.
fn iteration_values(lo: i64, hi: i64, step: i64) -> Vec<i64> {
    let mut vals = Vec::new();
    let mut x = lo;
    if step > 0 {
        while x <= hi {
            vals.push(x);
            x += step;
        }
    } else {
        while x >= hi {
            vals.push(x);
            x += step;
        }
    }
    vals
}

/// Split a parallel loop's clause cells into the shadow-scope mask pair:
/// the loop variable and scalar clause cells are fully `excluded` (Threads
/// mode rebinds them per worker, so no mode can observe them), while
/// private *array* cells go in `true_only` — the scope keeps watching them
/// for carried flow, the observed witness that a section-proven (or
/// user-forced) array privatization was invalid.
fn shadow_masks(
    var_cell: &Arc<Cell>,
    info: &ped_fortran::ParallelInfo,
    frame: &Frame,
) -> (Vec<usize>, Vec<usize>) {
    let mut excluded = vec![Arc::as_ptr(var_cell) as usize];
    let mut true_only = Vec::new();
    for &s in info
        .private
        .iter()
        .chain(info.lastprivate.iter())
        .chain(info.reductions.iter().map(|(_, s)| s))
    {
        if let Some(c) = frame.get(s) {
            let ptr = Arc::as_ptr(c) as usize;
            if c.is_array() {
                true_only.push(ptr);
            } else {
                excluded.push(ptr);
            }
        }
    }
    (excluded, true_only)
}

fn static_int(unit: &ProgramUnit, e: &Expr) -> Result<i64, RtError> {
    match ped_analysis::constants::eval(unit, &ped_analysis::constants::Facts::new(), e) {
        Some(Const::Int(v)) => Ok(v),
        _ => Err(RtError::new("COMMON array bound is not a constant")),
    }
}

/// Parse-and-run helper used across tests and benches.
pub fn run_source(src: &str, config: ExecConfig) -> Result<RunResult, RtError> {
    let program =
        ped_fortran::parse_program(src).map_err(|e| RtError::new(format!("parse: {e}")))?;
    Interp::new(&program, config)?.run()
}

/// Like [`run_source`], but also captures the main unit's final memory.
pub fn run_source_with_memory(
    src: &str,
    config: ExecConfig,
) -> Result<(RunResult, MemorySnapshot), RtError> {
    let program =
        ped_fortran::parse_program(src).map_err(|e| RtError::new(format!("parse: {e}")))?;
    Interp::new(&program, config)?.run_with_memory()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shadow::ObsKind;

    fn run(src: &str) -> RunResult {
        run_source(src, ExecConfig::default()).expect("run failed")
    }

    #[test]
    fn arithmetic_and_print() {
        let r = run("program t\nx = 2.0\ny = x ** 2 + 1.0\nn = 7 / 2\nprint *, y, n\nend\n");
        assert_eq!(r.printed, vec!["5.0 3"]);
    }

    #[test]
    fn loops_and_arrays() {
        let r = run(
            "program t\nreal a(10)\ndo i = 1, 10\na(i) = i * 2.0\nenddo\ns = 0.0\n\
             do i = 1, 10\ns = s + a(i)\nenddo\nprint *, s\nend\n",
        );
        assert_eq!(r.printed, vec!["110.0"]);
    }

    #[test]
    fn two_dim_column_major() {
        let r = run(
            "program t\nreal a(3,3)\ndo j = 1, 3\ndo i = 1, 3\na(i,j) = i * 10 + j\nenddo\n\
             enddo\nprint *, a(2,3)\nend\n",
        );
        assert_eq!(r.printed, vec!["23.0"]);
    }

    #[test]
    fn if_elseif_else() {
        let r = run(
            "program t\nx = 5.0\nif (x .lt. 0.0) then\nprint *, 'neg'\nelse if (x .lt. 10.0) then\n\
             print *, 'small'\nelse\nprint *, 'big'\nendif\nend\n",
        );
        assert_eq!(r.printed, vec!["small"]);
    }

    #[test]
    fn subroutine_by_reference() {
        let r = run(
            "program t\nreal a(5)\ncall fill(a, 5)\nprint *, a(1), a(5)\nend\n\
             subroutine fill(x, n)\ninteger n\nreal x(n)\ndo i = 1, n\nx(i) = i * 1.0\nenddo\nend\n",
        );
        assert_eq!(r.printed, vec!["1.0 5.0"]);
    }

    #[test]
    fn function_result() {
        let r = run(
            "program t\nreal v(4)\ndo i = 1, 4\nv(i) = 1.0\nenddo\nprint *, norm2(v, 4)\nend\n\
             real function norm2(x, n)\ninteger n\nreal x(n)\nnorm2 = 0.0\ndo i = 1, n\n\
             norm2 = norm2 + x(i) * x(i)\nenddo\nnorm2 = sqrt(norm2)\nend\n",
        );
        assert_eq!(r.printed, vec!["2.0"]);
    }

    #[test]
    fn common_shared_between_units() {
        let r = run(
            "program t\ncommon /c/ g\ng = 1.0\ncall bump()\ncall bump()\nprint *, g\nend\n\
             subroutine bump()\ncommon /c/ h\nh = h + 1.0\nend\n",
        );
        assert_eq!(r.printed, vec!["3.0"]);
    }

    #[test]
    fn out_of_bounds_caught() {
        let e = run_source(
            "program t\nreal a(5)\na(6) = 1.0\nend\n",
            ExecConfig::default(),
        )
        .unwrap_err();
        assert!(e.message.contains("out of bounds"), "{e}");
    }

    #[test]
    fn step_limit_catches_runaway() {
        let e = run_source(
            "program t\nreal a(5)\ndo i = 1, 1000000\ndo j = 1, 1000000\na(1) = 1.0\nenddo\nenddo\nend\n",
            ExecConfig { max_steps: 10_000, ..ExecConfig::default() },
        )
        .unwrap_err();
        assert!(e.message.contains("step limit"), "{e}");
    }

    /// A 10^12-trip `PARALLEL DO` carries its iteration space as
    /// first/step/count, so both parallel modes reach the step limit
    /// instead of allocating a value per iteration.
    #[test]
    fn huge_parallel_loop_stops_at_the_step_limit() {
        let src = "program t\nreal a(10)\nparallel do i = 1, 1000000000000\na(1) = i\nenddo\nend\n";
        for mode in [ParallelMode::Threads(2), ParallelMode::Simulate(Machine::with_procs(4))] {
            let config = ExecConfig {
                mode,
                schedule: Schedule::Guided,
                max_steps: 100_000,
                ..ExecConfig::default()
            };
            let e = run_source(src, config).unwrap_err();
            assert_eq!(e.message, "statement step limit exceeded", "{mode:?}");
        }
    }

    #[test]
    fn parameters_fold() {
        let r = run(
            "program t\ninteger n\nparameter (n = 4)\nreal a(n)\ndo i = 1, n\na(i) = 1.0\nenddo\n\
             print *, n\nend\n",
        );
        assert_eq!(r.printed, vec!["4"]);
    }

    #[test]
    fn do_with_step_and_negative() {
        let r = run(
            "program t\nk = 0\ndo i = 1, 10, 3\nk = k + 1\nenddo\nm = 0\ndo i = 5, 1, -2\n\
             m = m + 1\nenddo\nprint *, k, m\nend\n",
        );
        assert_eq!(r.printed, vec!["4 3"]);
    }

    #[test]
    fn parallel_threads_match_serial() {
        let src = "program t\nreal a(1000), b(1000)\ndo i = 1, 1000\nb(i) = i * 1.0\nenddo\n\
                   parallel do i = 1, 1000 private(t1)\nt1 = b(i) * 2.0\na(i) = t1 + 1.0\nenddo\n\
                   s = 0.0\ndo i = 1, 1000\ns = s + a(i)\nenddo\nprint *, s\nend\n";
        let serial = run_source(src, ExecConfig::default()).unwrap();
        let par = run_source(
            src,
            ExecConfig { mode: ParallelMode::Threads(4), ..ExecConfig::default() },
        )
        .unwrap();
        assert_eq!(serial.printed, par.printed);
    }

    #[test]
    fn parallel_reduction_matches_serial() {
        let src = "program t\nreal a(1000)\ndo i = 1, 1000\na(i) = 1.5\nenddo\ns = 0.0\n\
                   parallel do i = 1, 1000 reduction(+:s)\ns = s + a(i)\nenddo\nprint *, s\nend\n";
        let serial = run_source(src, ExecConfig::default()).unwrap();
        let par = run_source(
            src,
            ExecConfig { mode: ParallelMode::Threads(8), ..ExecConfig::default() },
        )
        .unwrap();
        assert_eq!(serial.printed, par.printed);
        assert_eq!(par.printed, vec!["1500.0"]);
    }

    #[test]
    fn lastprivate_writes_back() {
        let src = "program t\nreal a(100)\nparallel do i = 1, 100 lastprivate(t1)\n\
                   t1 = i * 1.0\na(i) = t1\nenddo\nprint *, t1\nend\n";
        let par = run_source(
            src,
            ExecConfig { mode: ParallelMode::Threads(4), ..ExecConfig::default() },
        )
        .unwrap();
        assert_eq!(par.printed, vec!["100.0"]);
    }

    #[test]
    fn threaded_step_budget_is_global() {
        // The budget is one shared atomic pool: however many workers run,
        // the total number of executed statements can never exceed
        // max_steps (the old per-thread budgets allowed ~nthreads× that).
        let src = "program t\nreal a(100000)\nparallel do i = 1, 100000\na(i) = i * 1.0\nenddo\nend\n";
        let e = run_source(
            src,
            ExecConfig {
                mode: ParallelMode::Threads(4),
                max_steps: 10_000,
                ..ExecConfig::default()
            },
        )
        .unwrap_err();
        assert!(e.message.contains("step limit"), "{e}");
        assert!(e.steps > 0 && e.steps <= 10_000, "executed {} steps > cap", e.steps);
    }

    #[test]
    fn nested_parallel_runs_serially_under_threads() {
        let src = "program t\nreal a(64,64)\nparallel do j = 1, 64 private(i)\n\
                   parallel do i = 1, 64\na(i,j) = i * 1.0 + j\nenddo\nenddo\n\
                   s = 0.0\ndo j = 1, 64\ndo i = 1, 64\ns = s + a(i,j)\nenddo\nenddo\n\
                   print *, s\nend\n";
        let serial = run_source(src, ExecConfig::default()).unwrap();
        let par = run_source(
            src,
            ExecConfig { mode: ParallelMode::Threads(4), ..ExecConfig::default() },
        )
        .unwrap();
        assert_eq!(serial.printed, par.printed);
        // Only the outer loop was dispatched to the pool: the inner
        // PARALLEL DO ran serially inside the workers (in_parallel guard).
        assert_eq!(par.sched.parallel_loops, 1);
        // Its iterations are still charged, to its own profile entry,
        // inside the outer loop's inclusive ops.
        let program = ped_fortran::parse_program(src).unwrap();
        let unit = &program.units[0];
        let tree = ped_fortran::visit::loop_tree(unit);
        let outer = tree.iter().find(|n| n.depth == 1 && !n.children.is_empty()).unwrap();
        let inner_sid = outer.children[0];
        let outer_st = par.profile[&(unit.name.clone(), outer.stmt)];
        let inner_st = par.profile[&(unit.name.clone(), inner_sid)];
        assert_eq!(outer_st.iterations, 64);
        assert_eq!(inner_st.iterations, 64 * 64);
        assert_eq!(inner_st.invocations, 64);
        // The outer entry's ops are the parallel (busiest-worker) charge —
        // smaller than the inner entries' serial sum, but present.
        assert!(outer_st.ops > 0.0);
        assert!(inner_st.ops > 0.0);
    }

    #[test]
    fn threads_and_schedules_bit_identical_to_serial() {
        // Sum of squares of 0.1*i: the float fold is order-sensitive, so
        // string equality (full-precision Debug formatting) means the
        // threaded combine reproduced the serial fold bit for bit. Both
        // loops take 2 steps an iteration: 7,777 trips go to the pool,
        // 777 run inline as one chunk.
        for (trip, pooled) in [(7777, true), (777, false)] {
            let src = format!(
                "program t\nreal a({trip})\nparallel do i = 1, {trip}\na(i) = 0.1 * i\nenddo\n\
                 s = 0.0\nparallel do i = 1, {trip} reduction(+:s)\ns = s + a(i) * a(i)\n\
                 enddo\nprint *, s\nend\n"
            );
            let serial = run_source(&src, ExecConfig::default()).unwrap();
            for k in [1usize, 2, 3, 4, 8] {
                for schedule in [Schedule::Static, Schedule::Dynamic(5), Schedule::Guided] {
                    let par = run_source(
                        &src,
                        ExecConfig {
                            mode: ParallelMode::Threads(k),
                            schedule,
                            ..ExecConfig::default()
                        },
                    )
                    .unwrap();
                    let sub = format!("trip={trip} threads={k} schedule={schedule}");
                    assert_eq!(serial.printed, par.printed, "{sub}");
                    if pooled {
                        assert_eq!(par.sched.parallel_loops, 2, "{sub}");
                        assert!(par.sched.chunks_executed > 0, "{sub}");
                    } else {
                        assert_eq!(par.sched.inline_loops, 2, "{sub}");
                        assert_eq!(par.sched.parallel_loops, 0, "{sub}");
                    }
                }
            }
        }
    }

    /// A `Threads` loop runs inline exactly when its static bound, trip
    /// times per-iteration steps, is within `INLINE_STEPS`. A CALL body
    /// has no bound, and the tree engine bounds nothing, so both go to
    /// the pool. A shadow run has no pool and runs all of them inline.
    /// Output and memory are the serial run's in every case.
    #[test]
    fn inline_boundary_is_the_static_step_bound() {
        let straight = |trip: u64| {
            format!(
                "program t\nreal a({trip})\nparallel do i = 1, {trip}\na(i) = 0.5 * i\nenddo\n\
                 print *, a({trip})\nend\n"
            )
        };
        let call = "program t\nreal a(8)\nparallel do i = 1, 8\ncall g(a, i)\nenddo\n\
                    print *, a(8)\nend\nsubroutine g(x, k)\nreal x(8)\nx(k) = k * 0.5\nend\n"
            .to_string();
        // The body is one statement: 2 steps an iteration.
        let edge = INLINE_STEPS / 2;
        let threads = ExecConfig { mode: ParallelMode::Threads(2), ..ExecConfig::default() };
        let tree = ExecConfig { engine: Engine::Tree, ..threads };
        let (shadow, shadow_tree) =
            (ExecConfig { shadow: true, ..threads }, ExecConfig { shadow: true, ..tree });
        for (src, config, inline) in [
            (straight(edge), threads, true),
            (straight(edge + 1), threads, false),
            (call.clone(), threads, false),
            (straight(edge), tree, false),
            (straight(edge + 1), shadow, true),
            (call, shadow, true),
            (straight(edge), shadow_tree, true),
        ] {
            let line = src.lines().nth(2).unwrap();
            let sub = format!("{:?} shadow={} {line}", config.engine, config.shadow);
            let (serial, serial_mem) = run_source_with_memory(&src, ExecConfig::default()).unwrap();
            let (r, mem) = run_source_with_memory(&src, config).unwrap();
            assert_eq!(r.printed, serial.printed, "{sub}");
            assert_eq!(mem, serial_mem, "{sub}");
            let expect = if inline { (1, 0) } else { (0, 1) };
            assert_eq!((r.sched.inline_loops, r.sched.parallel_loops), expect, "{sub}");
            assert_eq!(r.sched.chunks_executed > 0, !inline, "{sub}");
        }
    }

    /// A panic in a pool worker ends the run on the calling thread, as a
    /// serial run's panic would, instead of leaving it waiting on the
    /// worker. The CALL body has no static bound, so the loop reaches the
    /// pool.
    #[test]
    fn worker_panic_surfaces_on_the_calling_thread() {
        let src = "program t\nx = 1.0\nparallel do i = 1, 4\ncall f(x)\nenddo\nend\n\
                   subroutine f(a)\nreal a(10)\na(1) = 2.0\nend\n";
        for engine in [Engine::Bytecode, Engine::Tree] {
            let config =
                ExecConfig { mode: ParallelMode::Threads(2), engine, ..ExecConfig::default() };
            let (tx, rx) = std::sync::mpsc::channel();
            let run = std::thread::spawn(move || {
                let payload = catch_unwind(|| run_source(src, config)).err();
                let text = payload.map(|p| match p.downcast::<String>() {
                    Ok(s) => *s,
                    Err(p) => p.downcast_ref::<&str>().map_or_else(String::new, |s| s.to_string()),
                });
                tx.send(text).unwrap();
            });
            let text = rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("{engine}: the run hung on a panicking worker"));
            run.join().unwrap();
            assert_eq!(text.as_deref(), Some("array access to scalar cell"), "{engine}");
        }
    }

    #[test]
    fn multi_accumulation_reduction_bit_identical() {
        // Each parallel iteration folds several operands into the reduction
        // variable through an inner serial loop (the spec77 `energy` shape).
        // Per-iteration delta merging would differ in the last ulp; operand
        // logging must replay the exact serial fold.
        let src = "program t\nreal a(40)\nparallel do i = 1, 40\na(i) = 0.3 * i\nenddo\n\
                   e = 0.0\nparallel do i = 1, 40 reduction(+:e) lastprivate(j)\n\
                   do j = 1, 7\ne = e + a(i) * 0.1 * j\nenddo\nenddo\n\
                   print *, e\nend\n";
        let serial = run_source(src, ExecConfig::default()).unwrap();
        for k in [2usize, 3, 4] {
            for schedule in [Schedule::Static, Schedule::Dynamic(3), Schedule::Guided] {
                let par = run_source(
                    src,
                    ExecConfig {
                        mode: ParallelMode::Threads(k),
                        schedule,
                        ..ExecConfig::default()
                    },
                )
                .unwrap();
                assert_eq!(serial.printed, par.printed, "threads={k} schedule={schedule}");
            }
        }
    }

    #[test]
    fn run_with_memory_matches_across_modes() {
        let src = "program t\nreal a(50)\nparallel do i = 1, 50\na(i) = i * 2.0\nenddo\n\
                   print *, a(25)\nend\n";
        let (rs, ms) = run_source_with_memory(src, ExecConfig::default()).unwrap();
        let (rt, mt) = run_source_with_memory(
            src,
            ExecConfig { mode: ParallelMode::Threads(3), ..ExecConfig::default() },
        )
        .unwrap();
        assert_eq!(rs.printed, rt.printed);
        assert_eq!(ms, mt, "final memory must be bit-identical");
        assert!(ms.iter().any(|(n, bits)| n == "a" && bits.len() == 50));
    }

    #[test]
    fn simulate_charges_less_than_serial_sum() {
        let src = "program t\nreal a(10000)\nparallel do i = 1, 10000\n\
                   a(i) = sqrt(i * 1.0)\nenddo\nprint *, a(100)\nend\n";
        let serial = run_source(src, ExecConfig::default()).unwrap();
        let sim = run_source(
            src,
            ExecConfig {
                mode: ParallelMode::Simulate(Machine::with_procs(8)),
                ..ExecConfig::default()
            },
        )
        .unwrap();
        assert_eq!(serial.printed, sim.printed);
        let speedup = serial.vtime / sim.vtime;
        assert!(speedup > 4.0, "speedup was {speedup}");
        // Simulate runs on the calling thread: the scheduler counters stay
        // zero, and an empty loop still pays fork + barrier.
        assert_eq!(sim.sched, SchedStats::default());
        let m = Machine::with_procs(8);
        let empty = src.replace("1, 10000", "1, 0");
        let serial = run_source(&empty, ExecConfig::default()).unwrap();
        let config = ExecConfig { mode: ParallelMode::Simulate(m), ..ExecConfig::default() };
        let sim = run_source(&empty, config).unwrap();
        assert_eq!(sim.vtime - serial.vtime, m.fork_cost + m.barrier_cost);
    }

    /// Carried (variable, kind) dependences other than read-read that the
    /// shadow log observed when running `src` under `mode`.
    fn observed_races(src: &str, mode: ParallelMode) -> Vec<(String, ObsKind)> {
        let config = ExecConfig { mode, shadow: true, ..ExecConfig::default() };
        let r = run_source(src, config).unwrap();
        r.shadow
            .expect("shadow on")
            .loops
            .into_values()
            .flat_map(|l| l.carried.into_keys())
            .filter(|(_, k)| *k != ObsKind::Input)
            .collect()
    }

    fn race_modes() -> [ParallelMode; 3] {
        [
            ParallelMode::Serial,
            ParallelMode::Simulate(Machine::alliant8()),
            ParallelMode::Threads(2),
        ]
    }

    #[test]
    fn race_detector_flags_bad_parallelization() {
        // A genuine recurrence wrongly marked parallel.
        let src = "program t\nreal a(100)\na(1) = 1.0\nparallel do i = 2, 100\n\
                   a(i) = a(i-1) + 1.0\nenddo\nprint *, a(100)\nend\n";
        for mode in race_modes() {
            let races = observed_races(src, mode);
            assert!(races.contains(&("a".to_string(), ObsKind::True)), "{mode:?}: {races:?}");
        }
    }

    #[test]
    fn race_detector_clean_on_good_parallelization() {
        let src = "program t\nreal a(100)\nparallel do i = 1, 100 private(t1)\nt1 = i * 1.0\n\
                   a(i) = t1\nenddo\nprint *, a(5)\nend\n";
        for mode in race_modes() {
            let races = observed_races(src, mode);
            assert!(races.is_empty(), "{mode:?}: {races:?}");
        }
    }

    #[test]
    fn profile_counts_loops() {
        let r = run(
            "program t\nreal a(10)\ndo i = 1, 10\na(i) = 1.0\nenddo\ndo i = 1, 5\na(i) = 2.0\n\
             enddo\nend\n",
        );
        let mut iters: Vec<u64> = r.profile.values().map(|s| s.iterations).collect();
        iters.sort();
        assert_eq!(iters, vec![5, 10]);
    }

    #[test]
    fn intrinsics_work() {
        let r = run(
            "program t\nprint *, max(1, 7, 3), min(2.0, 1.5), mod(10, 3), abs(-4)\nend\n",
        );
        assert_eq!(r.printed, vec!["7 1.5 1 4"]);
    }

    #[test]
    fn shadow_off_by_default_and_absent_from_result() {
        let r = run("program t\nreal a(10)\ndo i = 1, 10\na(i) = 1.0\nenddo\nend\n");
        assert!(r.shadow.is_none());
    }

    #[test]
    fn shadow_observes_recurrence() {
        use crate::shadow::ObsKind;
        let src = "program t\nreal a(50)\na(1) = 1.0\ndo i = 2, 50\na(i) = a(i-1) + 1.0\n\
                   enddo\nprint *, a(50)\nend\n";
        let r = run_source(src, ExecConfig { shadow: true, ..ExecConfig::default() }).unwrap();
        let log = r.shadow.expect("shadow log");
        let obs = log.loops.values().find(|l| !l.carried.is_empty()).expect("observed deps");
        let flow = obs.carried[&("a".to_string(), ObsKind::True)];
        assert_eq!((flow.count, flow.min_dist, flow.max_dist), (48, 1, 1));
    }

    #[test]
    fn shadow_clean_on_privatized_parallel_loop() {
        let src = "program t\nreal a(40)\nparallel do i = 1, 40 private(t1)\nt1 = i * 2.0\n\
                   a(i) = t1 + 1.0\nenddo\nprint *, a(7)\nend\n";
        let r = run_source(src, ExecConfig { shadow: true, ..ExecConfig::default() }).unwrap();
        let log = r.shadow.unwrap();
        assert_eq!(log.loops.len(), 1);
        let obs = log.loops.values().next().unwrap();
        assert!(obs.carried.is_empty(), "{:?}", obs.carried);
        assert_eq!((obs.invocations, obs.iterations), (1, 40));
    }

    #[test]
    fn shadow_unprivatized_scalar_is_observed() {
        // The same loop without the private clause: t1 crosses iterations.
        let src = "program t\nreal a(40)\nparallel do i = 1, 40\nt1 = i * 2.0\n\
                   a(i) = t1 + 1.0\nenddo\nprint *, a(7)\nend\n";
        let r = run_source(src, ExecConfig { shadow: true, ..ExecConfig::default() }).unwrap();
        let log = r.shadow.unwrap();
        let obs = log.loops.values().next().unwrap();
        assert!(
            obs.carried.keys().any(|(n, _)| n == "t1"),
            "expected observed dep on t1: {:?}",
            obs.carried
        );
    }

    #[test]
    fn shadow_log_identical_across_modes_and_schedules() {
        // Parallel loops with private scalars, a reduction, an inner
        // serial loop, and a serial recurrence: the observed log must be
        // bit-identical whether executed serially, simulated, or threaded
        // under any schedule.
        let mixed = "program t\nreal a(60), b(60)\ndo i = 1, 60\nb(i) = 0.1 * i\nenddo\n\
                     parallel do i = 1, 60 private(t1) lastprivate(j)\nt1 = b(i) * 2.0\n\
                     do j = 1, 5\na(i) = b(i) + t1 * j\nenddo\nenddo\n\
                     s = 0.0\nparallel do i = 1, 60 reduction(+:s)\ns = s + a(i)\nenddo\n\
                     a(1) = 0.0\ndo i = 2, 60\na(i) = a(i-1) + b(i)\nenddo\nprint *, s, a(60)\nend\n";
        // An invalid array privatization: w(32) carries flow from one `is`
        // iteration to the next, which the parallel loop must observe
        // through every mode's copy of w.
        let forced = "program mutw\nreal w(32), a(16,32)\nparallel do is = 1, 16 private(w, ip)\n\
                      do ip = 1, 31\nw(ip) = real(is + ip)\nenddo\ndo ip = 1, 32\n\
                      a(is,ip) = w(ip)\nenddo\nw(32) = w(1)\nenddo\nprint *, a(1,1)\nend\n";
        for src in [mixed, forced] {
            let log = |mode, schedule| {
                let config = ExecConfig { shadow: true, mode, schedule, ..ExecConfig::default() };
                run_source(src, config).unwrap().shadow.unwrap()
            };
            let base = log(ParallelMode::Serial, Schedule::default());
            assert!(base.observed_deps() > 0);
            assert_eq!(base, log(ParallelMode::Simulate(Machine::alliant8()), Schedule::default()));
            for k in [2usize, 4] {
                for schedule in [Schedule::Static, Schedule::Dynamic(7), Schedule::Guided] {
                    let par = log(ParallelMode::Threads(k), schedule);
                    assert_eq!(base, par, "threads={k} schedule={schedule}");
                }
            }
            if src == forced {
                let par = base.loops.values().find(|l| l.invocations == 1).unwrap();
                assert!(par.carried.contains_key(&("w".to_string(), ObsKind::True)), "{par:?}");
            }
        }
    }

    #[test]
    fn element_argument_copy_in_out() {
        let r = run(
            "program t\nreal a(3)\na(2) = 5.0\ncall twice(a(2))\nprint *, a(2)\nend\n\
             subroutine twice(x)\nreal x\nx = x * 2.0\nend\n",
        );
        assert_eq!(r.printed, vec!["10.0"]);
    }

    /// Regression (shrunk from spec77's energy routine): a reduction
    /// accumulated inside an inner serial loop. Workers route the store
    /// through the operand recognizer, which used to bypass shadow
    /// recording entirely — the inner loop's scope observed the
    /// accumulator under serial execution but not under Threads, so the
    /// logs diverged.
    #[test]
    fn shadow_sees_reduction_accumulator_in_inner_loop_across_modes() {
        use crate::shadow::ObsKind;
        let src = "program t\nreal a(12)\nreal s\ndo i = 1, 12\na(i) = 0.5 * i\nenddo\n\
                   s = 0.0\nparallel do j = 1, 6 private(i) reduction(+:s)\ndo i = 1, 12\n\
                   s = s + a(i)\nenddo\nenddo\nprint *, s\nend\n";
        let serial =
            run_source(src, ExecConfig { shadow: true, ..ExecConfig::default() }).unwrap();
        // The accumulating inner loop runs 6 invocations x 12 iterations.
        let inner = serial
            .shadow
            .as_ref()
            .unwrap()
            .loops
            .values()
            .find(|l| l.iterations == 72)
            .unwrap();
        assert!(
            inner.carried.contains_key(&("s".to_string(), ObsKind::True)),
            "inner loop must observe the accumulator: {:?}",
            inner.carried
        );
        let par = run_source(
            src,
            ExecConfig {
                shadow: true,
                mode: ParallelMode::Threads(3),
                ..ExecConfig::default()
            },
        )
        .unwrap();
        assert_eq!(serial.shadow, par.shadow);
        assert_eq!(serial.printed, par.printed);
    }

    /// Regression (shrunk from the stripped-`private(i)` mutation of
    /// spec77's init routine): an inner serial loop's index that the
    /// parallel loop fails to privatize is a shared cell every worker
    /// writes. The old scope masking excluded every loop's own variable,
    /// so the parallel scope never saw the carried write-write and the
    /// checker called the race-y program clean.
    #[test]
    fn shadow_observes_unprivatized_inner_loop_index_at_parallel_scope() {
        use crate::shadow::ObsKind;
        let src = "program t\nreal a(6, 6)\nparallel do j = 1, 6\ndo i = 1, 6\n\
                   a(i, j) = 1.0\nenddo\nenddo\nprint *, a(3, 3)\nend\n";
        let r = run_source(src, ExecConfig { shadow: true, ..ExecConfig::default() }).unwrap();
        let log = r.shadow.unwrap();
        // The parallel loop is the one entered once for 6 iterations.
        let par_of =
            |log: &ShadowLog| log.loops.values().find(|l| l.invocations == 1).cloned().unwrap();
        let par = par_of(&log);
        assert!(
            par.carried.contains_key(&("i".to_string(), ObsKind::Output)),
            "parallel scope must see the shared index: {:?}",
            par.carried
        );
        // With the clause the index is worker-local: invisible outward,
        // still observed by the inner loop's own scope.
        let fixed = src.replace("parallel do j = 1, 6", "parallel do j = 1, 6 private(i)");
        let r = run_source(&fixed, ExecConfig { shadow: true, ..ExecConfig::default() })
            .unwrap();
        let log = r.shadow.unwrap();
        let par = par_of(&log);
        assert!(
            par.carried.keys().all(|(n, _)| n != "i"),
            "privatized index must be masked: {:?}",
            par.carried
        );
        let inner = log.loops.values().find(|l| l.invocations == 6).unwrap();
        assert!(inner.carried.contains_key(&("i".to_string(), ObsKind::Output)));
    }
}
