//! The persistent parallel runtime: schedules, chunk queues, worker pool.
//!
//! The paper's premise is that a loop the user turns into `PARALLEL DO` is
//! rewarded with real speedup on the target machine. The pieces that make
//! the `Threads` execution mode deliver that live here:
//!
//! * [`Schedule`] — how a loop's iteration space is cut into chunks
//!   (`static`, `dynamic(c)`, `guided`; guided is the default because it
//!   amortizes scheduling overhead while still load-balancing triangular
//!   and otherwise imbalanced loops);
//! * [`ChunkQueues`] — one deque per worker with chunk-level work stealing
//!   (owners pop from the front, thieves from the back);
//! * [`Pool`] — a set of workers created once per run and reused by every
//!   `PARALLEL DO` large enough to pay for it (see [`INLINE_STEPS`]), so
//!   fork cost is a condvar wakeup rather than a `thread::spawn` per loop;
//! * [`StepBudget`] — one shared atomic statement budget, so the global
//!   `max_steps` runaway guard holds across all workers combined;
//! * [`SchedStats`] — pool and inline loop, chunk, steal and iteration
//!   counters surfaced through the profile report's `scheduler` block.
//!
//! Everything here is hand-rolled on `std` primitives — no external
//! crates — and deliberately simple: the unit of stealing is a chunk
//! (tens-to-thousands of iterations), so a `Mutex<VecDeque>` per worker is
//! far from being a bottleneck next to interpreting the loop body.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

// ----------------------------------------------------------- schedules ----

/// Iteration-scheduling policy for `PARALLEL DO` loops under
/// [`ParallelMode::Threads`](crate::interp::ParallelMode::Threads).
///
/// Whatever the schedule, results are bit-identical to serial execution:
/// scheduling decides *who* runs an iteration and *when*, while the merge
/// logic in the interpreter restores serial order for everything
/// observable (printed lines, reduction combine order, lastprivate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Schedule {
    /// One contiguous chunk per worker, assigned up front. Lowest
    /// overhead; best for uniform iteration costs.
    Static,
    /// Fixed-size chunks of the given length, handed out as workers go
    /// idle (via stealing). Best when iteration costs vary wildly.
    Dynamic(usize),
    /// Exponentially shrinking chunks: large chunks first to amortize
    /// overhead, small chunks last to even out the finish line.
    #[default]
    Guided,
}

impl Schedule {
    /// Parse a user-facing spec: `static`, `guided`, `dynamic`,
    /// `dynamic(64)`, or `dynamic:64`.
    pub fn parse(spec: &str) -> Result<Schedule, String> {
        let s = spec.trim().to_ascii_lowercase();
        match s.as_str() {
            "static" => return Ok(Schedule::Static),
            "guided" => return Ok(Schedule::Guided),
            "dynamic" => return Ok(Schedule::Dynamic(DEFAULT_DYNAMIC_CHUNK)),
            _ => {}
        }
        let digits = s
            .strip_prefix("dynamic(")
            .and_then(|r| r.strip_suffix(')'))
            .or_else(|| s.strip_prefix("dynamic:"));
        if let Some(d) = digits {
            return match d.trim().parse::<usize>() {
                Ok(n) if n > 0 => Ok(Schedule::Dynamic(n)),
                _ => Err(format!("bad dynamic chunk size in '{spec}'")),
            };
        }
        Err(format!("unknown schedule '{spec}' (want static | dynamic[(N)] | guided)"))
    }
}

impl std::fmt::Display for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Schedule::Static => write!(f, "static"),
            Schedule::Dynamic(c) => write!(f, "dynamic({c})"),
            Schedule::Guided => write!(f, "guided"),
        }
    }
}

/// Chunk size used for a bare `dynamic` spec.
pub const DEFAULT_DYNAMIC_CHUNK: usize = 16;

/// A contiguous slice of a loop's iteration space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// Position in the planned chunk sequence (iteration order).
    pub index: usize,
    /// First iteration (offset into the loop's value vector).
    pub start: usize,
    /// Number of iterations.
    pub len: usize,
}

/// Cut `total` iterations into chunks for `workers` workers. Deterministic:
/// depends only on the arguments, never on timing. Every chunk is
/// non-empty and the chunks exactly cover `0..total` in order.
pub fn plan_chunks(schedule: Schedule, total: usize, workers: usize) -> Vec<Chunk> {
    let workers = workers.max(1);
    let mut out = Vec::new();
    if total == 0 {
        return out;
    }
    let mut start = 0usize;
    let push = |out: &mut Vec<Chunk>, start: &mut usize, len: usize| {
        out.push(Chunk { index: out.len(), start: *start, len });
        *start += len;
    };
    match schedule {
        Schedule::Static => {
            let base = total.div_ceil(workers);
            while start < total {
                let len = base.min(total - start);
                push(&mut out, &mut start, len);
            }
        }
        Schedule::Dynamic(c) => {
            let c = c.max(1);
            while start < total {
                let len = c.min(total - start);
                push(&mut out, &mut start, len);
            }
        }
        Schedule::Guided => {
            while start < total {
                let remaining = total - start;
                let len = remaining.div_ceil(2 * workers).max(1).min(remaining);
                push(&mut out, &mut start, len);
            }
        }
    }
    out
}

// --------------------------------------------------------- work queues ----

/// Per-worker chunk deques with work stealing. Owners pop from the front
/// of their own deque (preserving iteration order locally, which keeps
/// caches warm on adjacent array elements); thieves scan the other deques
/// and steal from the back (the chunks the owner would reach last).
pub struct ChunkQueues {
    queues: Vec<Mutex<VecDeque<Chunk>>>,
}

impl ChunkQueues {
    /// Distribute planned chunks round-robin over `workers` deques. With a
    /// static schedule this is exactly one chunk per worker; with dynamic
    /// and guided it interleaves, so each worker starts with local work
    /// and stealing only kicks in when loads diverge.
    pub fn seed(chunks: &[Chunk], workers: usize) -> ChunkQueues {
        let workers = workers.max(1);
        let mut queues: Vec<Mutex<VecDeque<Chunk>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for &c in chunks {
            queues[c.index % workers].get_mut().expect("a new mutex is not poisoned").push_back(c);
        }
        ChunkQueues { queues }
    }

    /// Next chunk for worker `w`: their own front, else steal from the
    /// back of another worker's deque. The boolean is true for a steal.
    pub fn take(&self, w: usize) -> Option<(Chunk, bool)> {
        if let Some(c) = self.queues[w].lock().unwrap().pop_front() {
            return Some((c, false));
        }
        let n = self.queues.len();
        for off in 1..n {
            let victim = (w + off) % n;
            if let Some(c) = self.queues[victim].lock().unwrap().pop_back() {
                return Some((c, true));
            }
        }
        None
    }
}

// ---------------------------------------------------------- step budget ----

/// The one global statement budget shared by the main thread and every
/// worker. Executors acquire blocks of steps up front and return what they
/// did not use, so the invariant is structural: the total number of
/// statements executed anywhere can never exceed the configured cap,
/// no matter how many threads are running.
pub struct StepBudget {
    remaining: AtomicU64,
}

/// How many steps an executor grabs per refill. Large enough that the
/// shared counter is touched ~once per thousand statements, small enough
/// that a tight budget still aborts promptly.
pub const BUDGET_BLOCK: u64 = 1024;

/// The most statement steps a `PARALLEL DO` execution may hold and still
/// run on the calling thread instead of the pool. The bound is the trip
/// count times the lowered body's exact per-iteration step count, so only
/// straight-line bytecode bodies have one (see `Interp::run_parallel`).
/// Chosen from measurements on a 2-vCPU x86-64 host. Through the pool, a
/// 64-trip straight-line loop run 30,000 times cost 25–29 µs per
/// execution more than serially: that is the fork, join and merge. A
/// serial fast-path step cost 11–14 ns. With two workers, the pool pays
/// off above about 2 × dispatch / step ≈ 3.6k–5.3k steps.
pub const INLINE_STEPS: u64 = 4096;

impl StepBudget {
    /// A budget with `cap` total steps.
    pub fn new(cap: u64) -> StepBudget {
        StepBudget { remaining: AtomicU64::new(cap) }
    }

    /// Claim up to `want` steps; returns how many were granted (zero when
    /// the budget is exhausted).
    pub fn acquire(&self, want: u64) -> u64 {
        let mut cur = self.remaining.load(Ordering::Relaxed);
        loop {
            let grant = cur.min(want);
            if grant == 0 {
                return 0;
            }
            match self.remaining.compare_exchange_weak(
                cur,
                cur - grant,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return grant,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Return unused steps from an earlier grant.
    pub fn release(&self, unused: u64) {
        if unused > 0 {
            self.remaining.fetch_add(unused, Ordering::Relaxed);
        }
    }
}

// -------------------------------------------------------------- counters ----

/// Scheduler counters accumulated over a run; exported through the
/// profile report's `scheduler` block.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchedStats {
    /// `PARALLEL DO` invocations dispatched to the pool.
    pub parallel_loops: u64,
    /// `PARALLEL DO` invocations within [`INLINE_STEPS`], run as one chunk
    /// on the calling thread.
    pub inline_loops: u64,
    /// Chunks executed across all loops and workers.
    pub chunks_executed: u64,
    /// Chunks a worker stole from another worker's deque.
    pub chunks_stolen: u64,
    /// Iterations executed per worker (index = worker id).
    pub worker_iterations: Vec<u64>,
}

impl SchedStats {
    /// Max-over-mean of per-worker iteration counts: 1.0 is a perfect
    /// balance, N means the busiest worker did N× the average.
    pub fn imbalance_ratio(&self) -> f64 {
        let n = self.worker_iterations.len();
        let total: u64 = self.worker_iterations.iter().sum();
        if n == 0 || total == 0 {
            return 1.0;
        }
        let max = *self.worker_iterations.iter().max().unwrap() as f64;
        max / (total as f64 / n as f64)
    }

    /// Fold another run's counters into this one.
    pub fn absorb(&mut self, other: &SchedStats) {
        self.parallel_loops += other.parallel_loops;
        self.inline_loops += other.inline_loops;
        self.chunks_executed += other.chunks_executed;
        self.chunks_stolen += other.chunks_stolen;
        if self.worker_iterations.len() < other.worker_iterations.len() {
            self.worker_iterations.resize(other.worker_iterations.len(), 0);
        }
        for (a, b) in self.worker_iterations.iter_mut().zip(&other.worker_iterations) {
            *a += b;
        }
    }
}

// ----------------------------------------------------------------- pool ----

struct PoolState<J> {
    job: Option<std::sync::Arc<J>>,
    generation: u64,
    active: usize,
    shutdown: bool,
}

/// A persistent pool of `n` workers driven by a job slot. The submitter
/// publishes one job at a time ([`Pool::run_job`]) and blocks until every
/// worker has finished it; workers loop on [`Pool::next_job`] /
/// [`Pool::finish_job`] until [`Pool::shutdown`]. Thread handles are owned
/// by the caller (scoped threads), which keeps the pool free of lifetime
/// juggling: the job type `J` carries whatever owned payload a loop needs.
pub struct Pool<J> {
    workers: usize,
    state: Mutex<PoolState<J>>,
    work_cv: Condvar,
    done_cv: Condvar,
}

impl<J> Pool<J> {
    /// A pool slot for `workers` workers (the caller spawns the threads).
    pub fn new(workers: usize) -> Pool<J> {
        Pool {
            workers: workers.max(1),
            state: Mutex::new(PoolState {
                job: None,
                generation: 0,
                active: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        }
    }

    /// Number of workers this pool was built for.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Publish `job` to every worker and block until all have finished it.
    pub fn run_job(&self, job: std::sync::Arc<J>) {
        let mut st = self.state.lock().unwrap();
        st.job = Some(job);
        st.generation += 1;
        st.active = self.workers;
        self.work_cv.notify_all();
        while st.active > 0 {
            st = self.done_cv.wait(st).unwrap();
        }
        st.job = None;
    }

    /// Worker side: block until a job newer than `last_gen` is published
    /// (updating `last_gen`), or return `None` on shutdown.
    pub fn next_job(&self, last_gen: &mut u64) -> Option<std::sync::Arc<J>> {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.shutdown {
                return None;
            }
            if st.generation != *last_gen {
                if let Some(j) = &st.job {
                    *last_gen = st.generation;
                    return Some(j.clone());
                }
            }
            st = self.work_cv.wait(st).unwrap();
        }
    }

    /// Worker side: signal completion of the current job.
    pub fn finish_job(&self) {
        let mut st = self.state.lock().unwrap();
        st.active -= 1;
        if st.active == 0 {
            self.done_cv.notify_all();
        }
    }

    /// Wake all workers and make them exit their job loop. Never panics,
    /// so [`ShutdownOnDrop`] may call it while a panic unwinds: raising
    /// the flag leaves the state valid even if a holder of the lock
    /// panicked.
    pub fn shutdown(&self) {
        let mut st = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        st.shutdown = true;
        self.work_cv.notify_all();
    }
}

/// Shuts a pool down when dropped, so its workers exit however the
/// submitter's scope ends, a panic unwinding out of it included.
pub struct ShutdownOnDrop<'a, J>(pub &'a Pool<J>);

impl<J> Drop for ShutdownOnDrop<'_, J> {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn covers(chunks: &[Chunk], total: usize) {
        let mut next = 0;
        for (i, c) in chunks.iter().enumerate() {
            assert_eq!(c.index, i);
            assert_eq!(c.start, next);
            assert!(c.len > 0);
            next += c.len;
        }
        assert_eq!(next, total);
    }

    #[test]
    fn schedules_cover_iteration_space() {
        for total in [0usize, 1, 7, 64, 1000] {
            for workers in [1usize, 2, 4, 8] {
                for s in [Schedule::Static, Schedule::Dynamic(7), Schedule::Guided] {
                    covers(&plan_chunks(s, total, workers), total);
                }
            }
        }
    }

    #[test]
    fn static_is_one_chunk_per_worker() {
        let chunks = plan_chunks(Schedule::Static, 100, 4);
        assert_eq!(chunks.len(), 4);
        assert!(chunks.iter().all(|c| c.len == 25));
        // Fewer iterations than workers: one single-iteration chunk each.
        assert_eq!(plan_chunks(Schedule::Static, 3, 8).len(), 3);
    }

    #[test]
    fn guided_chunks_shrink() {
        let chunks = plan_chunks(Schedule::Guided, 1000, 4);
        assert!(chunks.len() > 4, "guided should produce more chunks than workers");
        for w in chunks.windows(2) {
            assert!(w[0].len >= w[1].len, "guided chunks must not grow: {chunks:?}");
        }
    }

    #[test]
    fn schedule_parsing_round_trips() {
        assert_eq!(Schedule::parse("static").unwrap(), Schedule::Static);
        assert_eq!(Schedule::parse("GUIDED").unwrap(), Schedule::Guided);
        assert_eq!(
            Schedule::parse("dynamic").unwrap(),
            Schedule::Dynamic(DEFAULT_DYNAMIC_CHUNK)
        );
        assert_eq!(Schedule::parse("dynamic(64)").unwrap(), Schedule::Dynamic(64));
        assert_eq!(Schedule::parse("dynamic:8").unwrap(), Schedule::Dynamic(8));
        assert!(Schedule::parse("dynamic(0)").is_err());
        assert!(Schedule::parse("interleaved").is_err());
        for s in [Schedule::Static, Schedule::Dynamic(64), Schedule::Guided] {
            assert_eq!(Schedule::parse(&s.to_string()).unwrap(), s);
        }
    }

    #[test]
    fn stealing_drains_all_chunks() {
        let chunks = plan_chunks(Schedule::Dynamic(3), 50, 4);
        let q = ChunkQueues::seed(&chunks, 4);
        // Worker 2 drains everything: its own chunks plus steals.
        let mut got = Vec::new();
        let mut steals = 0;
        while let Some((c, stolen)) = q.take(2) {
            got.push(c);
            steals += usize::from(stolen);
        }
        assert_eq!(got.len(), chunks.len());
        assert!(steals > 0, "a lone drainer must have stolen");
        let mut starts: Vec<_> = got.iter().map(|c| c.start).collect();
        starts.sort_unstable();
        assert_eq!(starts, chunks.iter().map(|c| c.start).collect::<Vec<_>>());
    }

    #[test]
    fn budget_never_overgrants() {
        let b = StepBudget::new(2500);
        let mut granted = 0;
        loop {
            let g = b.acquire(BUDGET_BLOCK);
            if g == 0 {
                break;
            }
            granted += g;
        }
        assert_eq!(granted, 2500);
        b.release(100);
        assert_eq!(b.acquire(BUDGET_BLOCK), 100);
        assert_eq!(b.acquire(1), 0);
    }

    #[test]
    fn imbalance_ratio_basics() {
        let mut s = SchedStats::default();
        assert_eq!(s.imbalance_ratio(), 1.0);
        s.worker_iterations = vec![100, 100, 100, 100];
        assert_eq!(s.imbalance_ratio(), 1.0);
        s.worker_iterations = vec![300, 100, 0, 0];
        assert_eq!(s.imbalance_ratio(), 3.0);
        let mut t = SchedStats { parallel_loops: 1, ..SchedStats::default() };
        t.absorb(&s);
        assert_eq!(t.worker_iterations, vec![300, 100, 0, 0]);
    }

    #[test]
    fn pool_runs_jobs_to_completion() {
        struct CountJob {
            hits: AtomicUsize,
        }
        let pool: Pool<CountJob> = Pool::new(3);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let pool = &pool;
                scope.spawn(move || {
                    let mut gen = 0u64;
                    while let Some(job) = pool.next_job(&mut gen) {
                        job.hits.fetch_add(1, Ordering::Relaxed);
                        pool.finish_job();
                    }
                });
            }
            for _ in 0..5 {
                let job = std::sync::Arc::new(CountJob { hits: AtomicUsize::new(0) });
                pool.run_job(job.clone());
                // Every worker touched the job exactly once, and run_job
                // only returned after all of them were done.
                assert_eq!(job.hits.load(Ordering::Relaxed), 3);
            }
            pool.shutdown();
        });
    }
}
