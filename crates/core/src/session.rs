//! The editor session: program database, marking, assertions, steering.

use ped_dep::cache::PairCache;
use ped_dep::graph::{build_graph, GraphConfig};
use ped_dep::{DepGraph, DepKind};
use ped_fortran::symbols::Const;
use ped_fortran::visit::{loop_tree, stmts_recursive};
use ped_fortran::{parse_program, Program, ProgramUnit, StmtId, SymId};
use ped_interproc::{EditProbe, IpAnalysis, IpFlags};
use ped_obs::{
    CacheReport, IncrementalReport, LoopProfileStat, Obs, Phase, PhaseTimer, ProfileReport,
    SchedulerReport,
};
use ped_runtime::Machine;
use ped_transform::{Applied, Diagnosis, Xform};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// User marking of one dependence (the system sets proven/pending; the user
/// may accept or reject pending dependences).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mark {
    /// User confirmed the dependence is real.
    Accepted,
    /// User asserted the dependence cannot occur (deleted).
    Rejected,
}

/// Displayed status of a dependence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepStatus {
    /// Proven by an exact test.
    Proven,
    /// Conservatively assumed; the user may mark it.
    Pending,
    /// User accepted.
    Accepted,
    /// User rejected (excluded from safety decisions).
    Rejected,
}

impl std::fmt::Display for DepStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DepStatus::Proven => "proven",
            DepStatus::Pending => "pending",
            DepStatus::Accepted => "accepted",
            DepStatus::Rejected => "rejected",
        };
        write!(f, "{s}")
    }
}

/// Stable identity of a dependence across graph rebuilds.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DepKey {
    /// Unit index.
    pub unit: usize,
    /// Source statement.
    pub src: StmtId,
    /// Sink statement.
    pub dst: StmtId,
    /// Variable (None = control).
    pub var: Option<SymId>,
    /// Dependence type.
    pub kind: DepKind,
}

/// A user assertion about program values.
#[derive(Debug, Clone, PartialEq)]
pub enum Assertion {
    /// `sym` holds this integer value in the given unit (e.g. "n is 512").
    Value {
        /// Unit index.
        unit: usize,
        /// The scalar.
        sym: SymId,
        /// Asserted value.
        value: i64,
    },
    /// The named integer array is a permutation (distinct elements), so
    /// identical indirect subscripts collide only at equal iterations —
    /// Ped realizes this by deleting the pending dependences it induces.
    Permutation {
        /// Unit index.
        unit: usize,
        /// The index array.
        array: SymId,
    },
}

/// Session errors.
#[derive(Debug, Clone, PartialEq)]
pub struct PedError(pub String);

impl std::fmt::Display for PedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for PedError {}

/// A cached dependence graph plus the fingerprints it was built under.
/// `loop_fp` is the nest's structural hash ([`ped_fortran::visit::loop_fingerprint`]),
/// `ctx_fp` hashes everything the graph read from the *rest of the unit*
/// (constants reaching the header, liveness past the loop, control context,
/// assertions, flags), and `vis_fp` is the unit's visible interprocedural
/// fingerprint. A cached entry is valid exactly when all three still match
/// the current program state — which is also the resurrection criterion for
/// retired entries on undo/redo.
#[derive(Clone)]
struct GraphEntry {
    graph: DepGraph,
    loop_fp: u64,
    ctx_fp: u64,
    vis_fp: u64,
}

/// One undo/redo journal entry: the delta of a single-unit edit — the
/// pre-edit unit and the marks that referred to it — rather than a clone of
/// the whole `Program` plus the whole mark map. `bytes` approximates the
/// journaled payload; `snapshot_bytes` what the old full-snapshot scheme
/// would have stored, so the observability layer can report the saving.
/// `unit_bytes` is the unit's own printed size, so restoring the delta
/// needs no reprint to keep the session's size table current.
struct Delta {
    unit_idx: usize,
    unit: ProgramUnit,
    unit_bytes: u64,
    marks: Vec<(DepKey, Mark)>,
    bytes: u64,
    snapshot_bytes: u64,
}

/// Pre-edit capture for incremental invalidation: the edited unit's
/// interprocedural contribution probe and its own interface fingerprint
/// ([`IpAnalysis::unit_fingerprint`]). Both must be taken *before* the
/// program mutates.
struct PreEdit {
    probe: EditProbe,
    unit_fp: u64,
}

/// Retired graphs kept for resurrection (undo/redo round trips). Bounded:
/// the journal must stay cheaper than the snapshots it replaced.
const MAX_RETIRED: usize = 512;

/// One editor session over one program.
pub struct Ped {
    program: Program,
    flags: IpFlags,
    ip: Option<IpAnalysis>,
    /// Visible fingerprints of `ip` over the current program (empty iff
    /// `ip` is `None`); kept in lockstep so edit paths and resurrection
    /// checks don't rehash every unit per query.
    vis_fps: Vec<u64>,
    /// Ordered by unit, so an edit can visit one unit's entries by range.
    graphs: BTreeMap<(usize, StmtId), GraphEntry>,
    /// Printed size of each unit for journal accounting ([`unit_bytes`]),
    /// filled on the first edit; `None` marks a unit edited since. Keeps
    /// an edit's `snapshot_bytes` from reprinting the whole program.
    unit_sizes: Vec<Option<u64>>,
    /// Evicted graphs, newest last. A cache miss whose fingerprints match a
    /// retired entry resurrects it instead of rebuilding — this is what
    /// makes undo of an analyzed transform near-free.
    retired: VecDeque<((usize, StmtId), GraphEntry)>,
    marks: HashMap<DepKey, Mark>,
    assertions: Vec<Assertion>,
    undo: Vec<Delta>,
    redo: Vec<Delta>,
    /// Memoized subscript-pair outcomes, shared by interactive queries and
    /// `analyze_all` workers. Never invalidated: its key canonicalizes the
    /// *resolved* subscripts and bounds, so edits and new assertions simply
    /// produce different keys. Behind an `Arc` so a daemon can hand many
    /// sessions the same cache ([`Ped::set_pair_cache`]) — the keys are
    /// content-addressed, so cross-program sharing is sound.
    pair_cache: Arc<PairCache>,
    /// Session-owned instrumentation registry (one per session, so parallel
    /// sessions/tests never cross-contaminate). Disabled by default; every
    /// record site is one relaxed load when off.
    obs: Arc<Obs>,
    /// Dependence graphs built from scratch over the session's lifetime.
    graphs_built_total: u64,
    /// Graph requests served from the (fingerprint-validated) cache.
    graphs_reused_total: u64,
    /// Graphs that survived an edit in place (fingerprint-scoped retention).
    graphs_retained_total: u64,
    /// Graphs brought back from the retired store by fingerprint match.
    graphs_resurrected_total: u64,
    /// Graphs preloaded from a persistent [`crate::store::GraphStore`]
    /// (warm opens across daemon restarts).
    graphs_warm_total: u64,
    /// Whole-program interprocedural recomputations performed.
    ip_recomputes_total: u64,
    /// Edits absorbed by the summary-preserving fast path (no recompute).
    ip_recomputes_skipped_total: u64,
    /// Analysis recomputations (interprocedural passes + dependence-graph
    /// builds) performed since the most recent *edit* (`edit_unit`,
    /// `apply`, `undo`, `redo`). Flag toggles and cache rebuilds accumulate
    /// here; only an explicit edit resets the counter — the E10 experiment
    /// reads it as "work done to re-answer queries after an edit".
    pub reanalysis_count: usize,
    /// Engine of the most recent [`Ped::run`], stamped into the profile
    /// report. `true` means the tree walker; the default is the bytecode
    /// engine.
    last_run_tree: std::sync::atomic::AtomicBool,
}

/// What one [`Ped::analyze_all`] batch run did.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Program units in the session.
    pub units: usize,
    /// Total loops across all units.
    pub loops: usize,
    /// Graphs built by this call.
    pub built: usize,
    /// Graphs already cached and left untouched.
    pub reused: usize,
    /// Total dependences across all cached graphs after the run.
    pub deps: usize,
    /// Worker threads used (0 when nothing needed building).
    pub threads: usize,
    /// Pair-cache hits/misses incurred by this call.
    pub cache: ped_dep::CacheStats,
}

impl Ped {
    /// Open a program from source text.
    pub fn open(src: &str) -> Result<Ped, PedError> {
        Ped::open_with_obs(src, Arc::new(Obs::new()))
    }

    /// Open a program with instrumentation enabled from the start, so even
    /// the initial parse is timed. (`open` + `set_profiling(true)` works
    /// too but misses the parse phase.)
    pub fn open_profiled(src: &str) -> Result<Ped, PedError> {
        let obs = Arc::new(Obs::new());
        obs.set_enabled(true);
        Ped::open_with_obs(src, obs)
    }

    fn open_with_obs(src: &str, obs: Arc<Obs>) -> Result<Ped, PedError> {
        let program = {
            let _t = PhaseTimer::start(Some(&obs), Phase::Parse);
            parse_program(src).map_err(|e| PedError(format!("parse: {e}")))?
        };
        let mut ped = Ped::from_program(program);
        ped.obs = obs;
        Ok(ped)
    }

    /// Open an already-parsed program.
    pub fn from_program(program: Program) -> Ped {
        Ped {
            program,
            flags: IpFlags::all(),
            ip: None,
            vis_fps: Vec::new(),
            graphs: BTreeMap::new(),
            unit_sizes: Vec::new(),
            retired: VecDeque::new(),
            marks: HashMap::new(),
            assertions: Vec::new(),
            undo: Vec::new(),
            redo: Vec::new(),
            pair_cache: Arc::new(PairCache::new()),
            obs: Arc::new(Obs::new()),
            graphs_built_total: 0,
            graphs_reused_total: 0,
            graphs_retained_total: 0,
            graphs_resurrected_total: 0,
            graphs_warm_total: 0,
            ip_recomputes_total: 0,
            ip_recomputes_skipped_total: 0,
            reanalysis_count: 0,
            last_run_tree: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Re-point the session at a new program, keeping everything worth
    /// keeping across programs: the shared pair cache (content-addressed,
    /// so cross-program reuse is sound), the instrumentation registry, the
    /// lifetime counters, and the container capacity of the per-program
    /// state (maps are cleared, not dropped). Campaign workers call this
    /// once per seed instead of building a fresh session, so thousands of
    /// seeds amortize one session's allocations.
    pub fn reopen(&mut self, src: &str) -> Result<(), PedError> {
        let program = {
            let _t = PhaseTimer::start(Some(&self.obs), Phase::Parse);
            parse_program(src).map_err(|e| PedError(format!("parse: {e}")))?
        };
        self.program = program;
        self.ip = None;
        self.vis_fps.clear();
        self.graphs.clear();
        self.unit_sizes.clear();
        self.retired.clear();
        self.marks.clear();
        self.assertions.clear();
        self.undo.clear();
        self.redo.clear();
        self.reanalysis_count = 0;
        Ok(())
    }

    /// Turn instrumentation on or off mid-session.
    pub fn set_profiling(&self, on: bool) {
        self.obs.set_enabled(on);
    }

    /// Is instrumentation currently recording?
    pub fn profiling(&self) -> bool {
        self.obs.enabled()
    }

    /// The session's instrumentation registry (for external recorders,
    /// e.g. benches timing their own phases into the same report).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    fn obs_ref(&self) -> Option<&Obs> {
        Some(&self.obs)
    }

    /// Snapshot everything the instrumentation layer recorded: per-phase
    /// wall-clock timings, the dependence-test decision histograms, pair-
    /// cache and graph-reuse hit rates, per-unit analysis timings, and loop
    /// profiles from runs. Returns the all-empty report when profiling is
    /// off — callers can rely on `report == ProfileReport::empty()`.
    pub fn profile_report(&self) -> ProfileReport {
        if !self.obs.enabled() {
            return ProfileReport::empty();
        }
        let st = self.pair_cache.stats();
        let mut report = self.obs.report();
        report.cache = CacheReport {
            pair_hits: st.hits,
            pair_misses: st.misses,
            graphs_built: self.graphs_built_total,
            graphs_reused: self.graphs_reused_total,
        };
        report.incremental = self.incremental_stats();
        if self.last_run_tree.load(std::sync::atomic::Ordering::Relaxed) {
            report.engine = "tree".to_string();
        }
        report
    }

    /// Counters of the incremental engine: graphs retained across edits,
    /// graphs resurrected on undo/redo, interprocedural recomputes run vs
    /// skipped, and the memory held by the delta journal vs what full
    /// program snapshots would cost. Available whether or not phase
    /// profiling is on (these are plain session counters, not timers).
    pub fn incremental_stats(&self) -> IncrementalReport {
        let journal: u64 = self.undo.iter().chain(&self.redo).map(|d| d.bytes).sum();
        let snapshot: u64 =
            self.undo.iter().chain(&self.redo).map(|d| d.snapshot_bytes).sum();
        IncrementalReport {
            graphs_retained: self.graphs_retained_total,
            graphs_resurrected: self.graphs_resurrected_total,
            ip_recomputes: self.ip_recomputes_total,
            ip_recomputes_skipped: self.ip_recomputes_skipped_total,
            undo_entries: self.undo.len() as u64,
            redo_entries: self.redo.len() as u64,
            journal_bytes: journal,
            snapshot_bytes: snapshot,
        }
    }

    /// The current program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Select which interprocedural capabilities run (Table 3 toggles).
    pub fn set_flags(&mut self, flags: IpFlags) {
        self.flags = flags;
        self.invalidate_all();
    }

    /// Current source text (regenerated from the AST, as Ped did).
    pub fn source(&self) -> String {
        ped_fortran::print_program(&self.program)
    }

    fn invalidate_all(&mut self) {
        // Deliberately does NOT touch `reanalysis_count`: invalidation from
        // a flag toggle is not an edit, and the E10 instrumentation must
        // keep accumulating across it.
        self.ip = None;
        self.vis_fps.clear();
        self.graphs.clear();
        self.retired.clear();
    }

    /// Capture everything incremental invalidation needs *before* the
    /// program mutates. `None` when no interprocedural results exist —
    /// then no graph is cached either.
    fn pre_edit(&self, unit_idx: usize) -> Option<PreEdit> {
        self.ip.as_ref().map(|ip| PreEdit {
            probe: ip.edit_probe(&self.program, unit_idx),
            unit_fp: ip.unit_fingerprint(&self.program, unit_idx),
        })
    }

    /// Move a cache entry to the bounded retired store.
    fn retire(&mut self, key: (usize, StmtId), entry: GraphEntry) {
        if self.retired.len() == MAX_RETIRED {
            self.retired.pop_front();
        }
        self.retired.push_back((key, entry));
    }

    /// Loop-granular incremental invalidation after `unit_idx` changed.
    ///
    /// Interprocedural results first: if the edited unit's visible
    /// contribution is unchanged (summary, call sites, jump constants — the
    /// case for unroll, reverse, interchange, strip-mine…), the existing
    /// analysis is patched in place and the whole-program recompute is
    /// skipped; otherwise it reruns eagerly.
    ///
    /// Visible fingerprints second. On the fast path every summary, every
    /// constant seed and every call edge is kept, so the edited unit's own
    /// [`IpAnalysis::unit_fingerprint`] is the only input to any unit's
    /// visible fingerprint that can move: when it is unchanged too, the old
    /// fingerprints are kept without rehashing the program.
    ///
    /// Graphs last: a cached graph survives when its unit's visible
    /// interprocedural fingerprint is unchanged AND — for the edited unit —
    /// the nest's structural fingerprint and unit-context fingerprint both
    /// still match, i.e. the transform touched a *different* nest. Only the
    /// edited unit's entries and those of units whose visible fingerprint
    /// moved are examined; everything else stays in place and counts as
    /// retained. Dropped entries are retired (not freed) so an undo can
    /// resurrect them.
    fn invalidate_unit(&mut self, unit_idx: usize, pre: Option<PreEdit>) {
        let fast = match (self.ip.as_mut(), pre.as_ref()) {
            (Some(ip), Some(pre)) => ip.try_update_unit(&self.program, &pre.probe),
            _ => false,
        };
        if fast {
            self.ip_recomputes_skipped_total += 1;
        } else {
            self.ip = Some(IpAnalysis::analyze_obs(&self.program, self.obs_ref()));
            self.ip_recomputes_total += 1;
        }
        let ip = self.ip.as_ref().expect("set above");
        let fps_kept = match &pre {
            Some(p) if fast => ip.unit_fingerprint(&self.program, unit_idx) == p.unit_fp,
            _ => false,
        };
        // Units whose entries must be examined, ascending, and whether the
        // edited unit's visible fingerprint held (its entries may survive).
        let (examine, edited_visible_kept): (Vec<usize>, bool) = if fps_kept {
            (vec![unit_idx], true)
        } else {
            let new_fps = ip.visible_fingerprints(&self.program);
            let old = std::mem::replace(&mut self.vis_fps, new_fps);
            if pre.is_some() && old.len() == self.vis_fps.len() {
                let changed = (0..old.len())
                    .filter(|&u| u == unit_idx || old[u] != self.vis_fps[u])
                    .collect();
                (changed, old[unit_idx] == self.vis_fps[unit_idx])
            } else {
                ((0..self.program.units.len()).collect(), false)
            }
        };
        for u in examine {
            let keys: Vec<StmtId> = self
                .graphs
                .range((u, StmtId(0))..=(u, StmtId(u32::MAX)))
                .map(|(&(_, h), _)| h)
                .collect();
            let loop_fps = (u == unit_idx && edited_visible_kept && !keys.is_empty()).then(|| {
                unit_loop_fingerprints(
                    &self.program,
                    self.ip.as_ref().expect("set above"),
                    u,
                    self.flags,
                    &self.assertions,
                )
            });
            for h in keys {
                let e = &self.graphs[&(u, h)];
                let keep = loop_fps
                    .as_ref()
                    .and_then(|m| m.get(&h))
                    .is_some_and(|&(lfp, cfp)| e.loop_fp == lfp && e.ctx_fp == cfp);
                if !keep {
                    let e = self.graphs.remove(&(u, h)).expect("key listed above");
                    self.retire((u, h), e);
                }
            }
        }
        self.graphs_retained_total += self.graphs.len() as u64;
    }

    fn ip(&mut self) -> &IpAnalysis {
        if self.ip.is_none() {
            let ip = IpAnalysis::analyze_obs(&self.program, self.obs_ref());
            self.vis_fps = ip.visible_fingerprints(&self.program);
            self.ip = Some(ip);
            self.ip_recomputes_total += 1;
            self.reanalysis_count += 1;
        }
        self.ip.as_ref().expect("set above")
    }

    /// Unit index by name.
    pub fn unit_index(&self, name: &str) -> Result<usize, PedError> {
        self.program
            .unit_index(name)
            .ok_or_else(|| PedError(format!("no unit named {name}")))
    }

    /// All loops of a unit in pre-order, with nesting depth.
    pub fn loops(&self, unit_idx: usize) -> Vec<(StmtId, usize)> {
        loop_tree(&self.program.units[unit_idx])
            .into_iter()
            .map(|n| (n.stmt, n.depth))
            .collect()
    }

    /// Loops of a unit ranked by the performance estimator (navigation
    /// guidance: look at the expensive loops first).
    pub fn loops_by_cost(&mut self, unit_idx: usize) -> Vec<(StmtId, f64)> {
        self.ip(); // ensure interprocedural constants exist
        let mut est = ped_perf::Estimator::new(&self.program, Machine::alliant8());
        est.rank_loops(unit_idx)
            .into_iter()
            .map(|(s, e)| (s, e.serial_cost))
            .collect()
    }

    /// The dependence graph of a loop (cached; returns a clone so the
    /// session stays usable while the caller inspects it). On a live-cache
    /// miss the retired store is consulted first: an entry whose structural,
    /// context, and visible fingerprints all match the current program state
    /// is resurrected instead of rebuilt — the near-free undo path.
    pub fn graph(&mut self, unit_idx: usize, header: StmtId) -> Result<DepGraph, PedError> {
        if let Some(e) = self.graphs.get(&(unit_idx, header)) {
            self.graphs_reused_total += 1;
            return Ok(e.graph.clone());
        }
        if !self.program.units[unit_idx].is_loop(header) {
            return Err(PedError(format!("{header} is not a loop")));
        }
        self.ip();
        let (loop_fp, ctx_fp) = {
            let ip = self.ip.as_ref().expect("built above");
            let fps = unit_loop_fingerprints(
                &self.program,
                ip,
                unit_idx,
                self.flags,
                &self.assertions,
            );
            *fps.get(&header).expect("is_loop checked above")
        };
        let vis_fp = self.vis_fps[unit_idx];
        if let Some(pos) = self.retired.iter().position(|(k, e)| {
            *k == (unit_idx, header)
                && e.loop_fp == loop_fp
                && e.ctx_fp == ctx_fp
                && e.vis_fp == vis_fp
        }) {
            let (k, e) = self.retired.remove(pos).expect("position found above");
            let g = e.graph.clone();
            self.graphs.insert(k, e);
            self.graphs_resurrected_total += 1;
            self.graphs_reused_total += 1;
            return Ok(g);
        }
        let t0 = self.obs.enabled().then(std::time::Instant::now);
        let g = build_unit_graph(
            &self.program,
            self.ip.as_ref().expect("built above"),
            unit_idx,
            header,
            self.flags,
            false,
            &self.assertions,
            Some(self.pair_cache.as_ref()),
            self.obs_ref(),
        );
        if let Some(t0) = t0 {
            self.obs.record_unit(
                &self.program.units[unit_idx].name,
                t0.elapsed().as_nanos() as u64,
            );
        }
        self.graphs.insert(
            (unit_idx, header),
            GraphEntry { graph: g.clone(), loop_fp, ctx_fp, vis_fp },
        );
        self.graphs_built_total += 1;
        self.reanalysis_count += 1;
        Ok(g)
    }

    /// Analyze every loop of every unit, in parallel, filling the session
    /// cache. Graph construction is a pure function of the shared read-only
    /// state ([`build_unit_graph`]), so workers race only on the pair
    /// cache's internal shards; results are merged back deterministically
    /// and are bit-identical to what sequential [`Self::graph`] calls
    /// produce. Already-cached graphs are reused, which is what makes the
    /// incremental story compose: edit → fingerprint invalidation →
    /// `analyze_all` rebuilds only what actually changed.
    pub fn analyze_all(&mut self) -> BatchReport {
        self.ip();
        let mut all: Vec<(usize, StmtId)> = Vec::new();
        for u in 0..self.program.units.len() {
            for (h, _) in self.loops(u) {
                all.push((u, h));
            }
        }
        let mut pending: Vec<(usize, StmtId)> =
            all.iter().copied().filter(|k| !self.graphs.contains_key(k)).collect();
        // Fingerprint every unit that has uncached loops (once per unit, not
        // per loop), then resurrect retired entries that still match before
        // spending any build work on them.
        let mut fps_by_unit: HashMap<usize, HashMap<StmtId, (u64, u64)>> = HashMap::new();
        {
            let ip = self.ip.as_ref().expect("built above");
            let units: HashSet<usize> = pending.iter().map(|&(u, _)| u).collect();
            for u in units {
                fps_by_unit.insert(
                    u,
                    unit_loop_fingerprints(
                        &self.program,
                        ip,
                        u,
                        self.flags,
                        &self.assertions,
                    ),
                );
            }
        }
        let mut resurrected = 0usize;
        pending.retain(|&(u, h)| {
            let (lfp, cfp) = fps_by_unit[&u][&h];
            let vfp = self.vis_fps[u];
            let hit = self.retired.iter().position(|(k, e)| {
                *k == (u, h) && e.loop_fp == lfp && e.ctx_fp == cfp && e.vis_fp == vfp
            });
            match hit {
                Some(pos) => {
                    let (k, e) = self.retired.remove(pos).expect("position found above");
                    self.graphs.insert(k, e);
                    resurrected += 1;
                    false
                }
                None => true,
            }
        });
        let before = self.pair_cache.stats();
        let threads = if pending.is_empty() {
            0
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(pending.len())
        };
        let results: Vec<((usize, StmtId), DepGraph)> = if pending.is_empty() {
            Vec::new()
        } else {
            let program = &self.program;
            let ip = self.ip.as_ref().expect("built above");
            let flags = self.flags;
            let assertions = &self.assertions[..];
            let cache = self.pair_cache.as_ref();
            let obs = &*self.obs;
            let next = AtomicUsize::new(0);
            let next = &next;
            let pending = &pending;
            std::thread::scope(|s| {
                let workers: Vec<_> = (0..threads)
                    .map(|_| {
                        s.spawn(move || {
                            let mut out = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                let Some(&(u, h)) = pending.get(i) else { break };
                                let t0 = obs.enabled().then(std::time::Instant::now);
                                let g = build_unit_graph(
                                    program,
                                    ip,
                                    u,
                                    h,
                                    flags,
                                    false,
                                    assertions,
                                    Some(cache),
                                    Some(obs),
                                );
                                if let Some(t0) = t0 {
                                    obs.record_unit(
                                        &program.units[u].name,
                                        t0.elapsed().as_nanos() as u64,
                                    );
                                }
                                out.push(((u, h), g));
                            }
                            out
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .flat_map(|w| w.join().expect("analysis worker panicked"))
                    .collect()
            })
        };
        let built = results.len();
        for ((u, h), g) in results {
            let (loop_fp, ctx_fp) = fps_by_unit[&u][&h];
            self.graphs.insert(
                (u, h),
                GraphEntry { graph: g, loop_fp, ctx_fp, vis_fp: self.vis_fps[u] },
            );
        }
        self.graphs_built_total += built as u64;
        self.graphs_reused_total += (all.len() - built) as u64;
        self.graphs_resurrected_total += resurrected as u64;
        self.reanalysis_count += built;
        let after = self.pair_cache.stats();
        BatchReport {
            units: self.program.units.len(),
            loops: all.len(),
            built,
            reused: all.len() - built,
            deps: self.graphs.values().map(|e| e.graph.deps.len()).sum(),
            threads,
            cache: ped_dep::CacheStats {
                hits: after.hits - before.hits,
                misses: after.misses - before.misses,
            },
        }
    }

    /// Pair-cache counters (for benchmarks and the `analyze` command).
    pub fn pair_cache_stats(&self) -> ped_dep::CacheStats {
        self.pair_cache.stats()
    }

    /// Replace the session's pair cache with a shared one. A daemon calls
    /// this right after `open` so every session memoizes into (and hits
    /// from) one global cache; the cache's keys canonicalize the resolved
    /// subscripts and bounds, so entries from unrelated programs can only
    /// collide when the answer is identical anyway.
    pub fn set_pair_cache(&mut self, cache: Arc<PairCache>) {
        self.pair_cache = cache;
    }

    /// A handle to the session's pair cache (to share with other sessions).
    pub fn pair_cache(&self) -> Arc<PairCache> {
        Arc::clone(&self.pair_cache)
    }

    /// Write every live cached graph — with its three-part validity
    /// certificate — to a persistent store. Returns the number persisted.
    /// Called by the daemon on `close` and shutdown so the next process
    /// can start warm.
    pub fn persist_graphs(&self, store: &crate::store::GraphStore) -> usize {
        let mut written = 0;
        for (&(unit_idx, header), e) in &self.graphs {
            let entry = crate::store::StoredGraph {
                unit: self.program.units[unit_idx].name.clone(),
                header: header.0,
                loop_fp: e.loop_fp,
                ctx_fp: e.ctx_fp,
                vis_fp: e.vis_fp,
                graph: e.graph.clone(),
            };
            if store.save(&entry).is_ok() {
                written += 1;
            }
        }
        written
    }

    /// Seed the live graph cache from a persistent store: for every loop
    /// whose freshly computed `(loop_fp, ctx_fp, vis_fp)` certificate
    /// matches a persisted entry, adopt the stored graph instead of
    /// rebuilding it later. Returns the number adopted. The certificate is
    /// recomputed from the *current* program, so a stale store entry (any
    /// source, flag, or assertion drift) simply never matches — the same
    /// soundness argument as in-memory retention. Subsequent
    /// [`Self::graph`]/[`Self::analyze_all`] calls count these as reuses.
    pub fn preload_graphs(&mut self, store: &crate::store::GraphStore) -> usize {
        self.ip();
        let mut adopted = 0;
        for u in 0..self.program.units.len() {
            let fps = {
                let ip = self.ip.as_ref().expect("built above");
                unit_loop_fingerprints(
                    &self.program,
                    ip,
                    u,
                    self.flags,
                    &self.assertions,
                )
            };
            let vis_fp = self.vis_fps[u];
            let name = self.program.units[u].name.clone();
            for (header, (loop_fp, ctx_fp)) in fps {
                if self.graphs.contains_key(&(u, header)) {
                    continue;
                }
                if let Some(graph) = store.load(&name, header.0, loop_fp, ctx_fp, vis_fp) {
                    self.graphs.insert(
                        (u, header),
                        GraphEntry { graph, loop_fp, ctx_fp, vis_fp },
                    );
                    adopted += 1;
                }
            }
        }
        self.graphs_warm_total += adopted as u64;
        adopted
    }

    /// Graphs adopted from a persistent store by [`Self::preload_graphs`].
    pub fn graphs_warm_total(&self) -> u64 {
        self.graphs_warm_total
    }

    /// Status of a dependence (system marking overlaid with user marks).
    pub fn status(&self, unit_idx: usize, dep: &ped_dep::Dependence) -> DepStatus {
        let key = DepKey {
            unit: unit_idx,
            src: dep.src,
            dst: dep.dst,
            var: dep.var,
            kind: dep.kind,
        };
        match self.marks.get(&key) {
            Some(Mark::Accepted) => DepStatus::Accepted,
            Some(Mark::Rejected) => DepStatus::Rejected,
            None if dep.proven => DepStatus::Proven,
            None => DepStatus::Pending,
        }
    }

    /// Mark a dependence by its id in the loop's current graph. Proven
    /// dependences cannot be rejected (Ped refused to delete proven
    /// dependences; assertions must remove them analytically).
    pub fn mark(
        &mut self,
        unit_idx: usize,
        header: StmtId,
        dep_id: usize,
        mark: Mark,
    ) -> Result<(), PedError> {
        let dep = {
            let g = self.graph(unit_idx, header)?;
            g.deps
                .get(dep_id)
                .ok_or_else(|| PedError(format!("no dependence #{dep_id}")))?
                .clone()
        };
        if dep.proven && mark == Mark::Rejected {
            return Err(PedError(
                "dependence was proven by an exact test; rejection is not allowed".into(),
            ));
        }
        self.marks.insert(
            DepKey { unit: unit_idx, src: dep.src, dst: dep.dst, var: dep.var, kind: dep.kind },
            mark,
        );
        Ok(())
    }

    /// Add an assertion and fold it into analysis. Value assertions refine
    /// the resolver (graphs rebuild); permutation assertions reject the
    /// pending dependences the index array induces.
    pub fn assert_fact(&mut self, a: Assertion) -> Result<usize, PedError> {
        let mut rejected = 0usize;
        match &a {
            Assertion::Value { .. } => {
                // Retire rather than drop: the context fingerprint covers
                // the asserted unit's values, so loops of *other* units
                // resurrect on their next request instead of rebuilding.
                for (k, e) in std::mem::take(&mut self.graphs) {
                    self.retire(k, e);
                }
            }
            Assertion::Permutation { unit, array } => {
                // Find pending deps whose endpoints subscript through the
                // asserted index array with identical subscript text.
                let unit_idx = *unit;
                let headers: Vec<StmtId> =
                    self.loops(unit_idx).into_iter().map(|(s, _)| s).collect();
                for h in headers {
                    let g = self.graph(unit_idx, h)?;
                    let unit = &self.program.units[unit_idx];
                    let to_mark: Vec<usize> = g
                        .deps
                        .iter()
                        .filter(|d| {
                            !d.proven
                                && d.level == Some(1)
                                && d.var.is_some()
                                && dep_uses_index_array(unit, d, *array)
                        })
                        .map(|d| d.id)
                        .collect();
                    for id in to_mark {
                        self.mark(unit_idx, h, id, Mark::Rejected)?;
                        rejected += 1;
                    }
                }
            }
        }
        self.assertions.push(a);
        Ok(rejected)
    }

    /// Can the loop be parallelized given current marks?
    pub fn parallelizable(&mut self, unit_idx: usize, header: StmtId) -> Result<bool, PedError> {
        let g = self.graph(unit_idx, header)?;
        let live = g
            .deps
            .iter()
            .map(|d| {
                (
                    d.id,
                    matches!(
                        match self.marks.get(&DepKey {
                            unit: unit_idx,
                            src: d.src,
                            dst: d.dst,
                            var: d.var,
                            kind: d.kind
                        }) {
                            Some(Mark::Rejected) => DepStatus::Rejected,
                            _ => DepStatus::Pending,
                        },
                        DepStatus::Rejected
                    ),
                )
            })
            .collect::<HashMap<usize, bool>>();
        Ok(g.deps.iter().all(|d| !d.blocks_parallel() || live[&d.id]))
    }

    /// Power steering: diagnose a transformation.
    pub fn diagnose(
        &mut self,
        unit_idx: usize,
        target: StmtId,
        xform: &Xform,
    ) -> Result<Diagnosis, PedError> {
        let header = self.owning_loop(unit_idx, target)?;
        let marks = self.marks.clone();
        let g = self.graph_or_empty(unit_idx, header)?;
        let live_flags: Vec<bool> = g
            .deps
            .iter()
            .map(|d| {
                marks.get(&DepKey {
                    unit: unit_idx,
                    src: d.src,
                    dst: d.dst,
                    var: d.var,
                    kind: d.kind,
                }) != Some(&Mark::Rejected)
            })
            .collect();
        let unit = &self.program.units[unit_idx];
        Ok(ped_transform::diagnose(unit, target, xform, &g, &|id| {
            live_flags.get(id).copied().unwrap_or(true)
        }))
    }

    /// Power steering: apply a transformation (with undo support). The
    /// caller is expected to have consulted [`Self::diagnose`]; applying an
    /// unsafe transformation is allowed — overriding safety is the user's
    /// prerogative after marking — but an inapplicable one is not.
    pub fn apply(
        &mut self,
        unit_idx: usize,
        target: StmtId,
        xform: &Xform,
    ) -> Result<Applied, PedError> {
        let header = self.owning_loop(unit_idx, target)?;
        let graph = self.graph_or_empty(unit_idx, header)?;
        let pre = self.pre_edit(unit_idx);
        let saved = self.delta_of(unit_idx);
        // Clone the registry handle so the timer's borrow doesn't pin
        // `self` while the transform mutates the program.
        let obs = Arc::clone(&self.obs);
        let result = {
            let _t = PhaseTimer::start(Some(&obs), Phase::Transform);
            if let Xform::Inline { call } = xform {
                ped_transform::apply_inline(&mut self.program, unit_idx, *call)
            } else {
                ped_transform::apply(&mut self.program.units[unit_idx], target, xform, &graph)
            }
        };
        match result {
            Ok(applied) => {
                self.unit_sizes[unit_idx] = None;
                self.undo.push(saved);
                // Only a *successful* transform invalidates redo history; an
                // inapplicable one must leave the user's redo stack intact.
                self.redo.clear();
                self.invalidate_unit(unit_idx, pre);
                self.reanalysis_count = 0;
                Ok(applied)
            }
            Err(e) => {
                // Transforms mutate only the target unit; restoring it from
                // the pre-transform clone undoes any partial mutation. The
                // journal was never pushed, so undo/redo are untouched.
                self.program.units[unit_idx] = saved.unit;
                Err(PedError(e.0))
            }
        }
    }

    /// Undo the last transformation/edit. Incremental like any other edit:
    /// only the restored unit reanalyzes, the interprocedural fast path
    /// applies, and graphs retired by the original edit resurrect by
    /// fingerprint — undoing an already-analyzed transform is near-free.
    pub fn undo(&mut self) -> bool {
        let Some(delta) = self.undo.pop() else { return false };
        let unit_idx = delta.unit_idx;
        let pre = self.pre_edit(unit_idx);
        let inverse = self.delta_of(unit_idx);
        self.restore_delta(delta);
        self.redo.push(inverse);
        self.invalidate_unit(unit_idx, pre);
        self.reanalysis_count = 0;
        true
    }

    /// Redo the last undone change (same incremental path as [`Self::undo`]).
    pub fn redo(&mut self) -> bool {
        let Some(delta) = self.redo.pop() else { return false };
        let unit_idx = delta.unit_idx;
        let pre = self.pre_edit(unit_idx);
        let inverse = self.delta_of(unit_idx);
        self.restore_delta(delta);
        self.undo.push(inverse);
        self.invalidate_unit(unit_idx, pre);
        self.reanalysis_count = 0;
        true
    }

    /// Roll back the last `n` successful applications *without leaving
    /// redo history*: undo each one and drop the redo entry the undo
    /// produced. This is the autopilot planner's trial-rollback — a
    /// rejected candidate plan must leave the journal exactly as it found
    /// it, so a later user `redo` can never resurrect a plan the planner
    /// decided against. Returns how many changes were rolled back (fewer
    /// than `n` only when the undo stack runs dry).
    pub fn abandon(&mut self, n: usize) -> usize {
        let mut undone = 0;
        for _ in 0..n {
            if !self.undo() {
                break;
            }
            self.redo.pop();
            undone += 1;
        }
        undone
    }

    /// Journal delta capturing the current state of one unit and the marks
    /// that refer to it. Every caller goes on to edit `unit_idx`, which
    /// must then refresh its [`Self::unit_sizes`] entry.
    fn delta_of(&mut self, unit_idx: usize) -> Delta {
        let units = &self.program.units;
        self.unit_sizes.resize(units.len(), None);
        for (size, unit) in self.unit_sizes.iter_mut().zip(units) {
            size.get_or_insert_with(|| unit_bytes(unit));
        }
        let unit = units[unit_idx].clone();
        let unit_bytes = self.unit_sizes[unit_idx].expect("filled above");
        let marks: Vec<(DepKey, Mark)> = self
            .marks
            .iter()
            .filter(|(k, _)| k.unit == unit_idx)
            .map(|(k, m)| (k.clone(), *m))
            .collect();
        let mark_cost = std::mem::size_of::<(DepKey, Mark)>() as u64;
        let bytes = unit_bytes + marks.len() as u64 * mark_cost;
        let snapshot_bytes =
            self.unit_sizes.iter().map(|s| s.expect("filled above")).sum::<u64>()
                + self.marks.len() as u64 * mark_cost;
        Delta { unit_idx, unit, unit_bytes, marks, bytes, snapshot_bytes }
    }

    /// Swap a journal delta into the session (unit and its marks).
    fn restore_delta(&mut self, d: Delta) {
        self.program.units[d.unit_idx] = d.unit;
        self.unit_sizes[d.unit_idx] = Some(d.unit_bytes);
        self.marks.retain(|k, _| k.unit != d.unit_idx);
        self.marks.extend(d.marks);
    }

    /// Replace one unit's source text (the editing path). The edited unit's
    /// analyses are invalidated; interprocedural results are recomputed at
    /// once, and other units keep their cached graphs when their visible
    /// summary fingerprints are unchanged.
    pub fn edit_unit(&mut self, name: &str, new_src: &str) -> Result<(), PedError> {
        let unit_idx = self.unit_index(name)?;
        let parsed = {
            let _t = PhaseTimer::start(self.obs_ref(), Phase::Parse);
            parse_program(new_src).map_err(|e| PedError(format!("parse: {e}")))?
        };
        let new_unit = parsed
            .units
            .into_iter()
            .find(|u| u.name == name.to_ascii_lowercase())
            .ok_or_else(|| PedError(format!("replacement source lacks unit {name}")))?;
        let pre = self.pre_edit(unit_idx);
        let saved = self.delta_of(unit_idx);
        self.program.units[unit_idx] = new_unit;
        self.unit_sizes[unit_idx] = None;
        self.undo.push(saved);
        self.redo.clear();
        self.invalidate_unit(unit_idx, pre);
        self.reanalysis_count = 0;
        Ok(())
    }

    /// Like [`Self::graph`], but yields an empty graph when the target has
    /// no enclosing loop (statement-level transformations outside loops,
    /// e.g. inlining a top-level call).
    fn graph_or_empty(&mut self, unit_idx: usize, header: StmtId) -> Result<DepGraph, PedError> {
        if self.program.units[unit_idx].is_loop(header) {
            self.graph(unit_idx, header)
        } else {
            Ok(DepGraph {
                header,
                deps: Vec::new(),
                scalar_classes: std::collections::HashMap::new(),
                array_classes: std::collections::HashMap::new(),
            })
        }
    }

    /// The innermost loop containing `target` (or `target` itself if it is
    /// a loop; falls back to the first loop of the unit). An error when the
    /// unit's body does not contain `target`.
    fn owning_loop(&self, unit_idx: usize, target: StmtId) -> Result<StmtId, PedError> {
        let unit = &self.program.units[unit_idx];
        if unit.is_loop(target) {
            return Ok(target);
        }
        let enc = ped_fortran::visit::enclosing_loops(unit, target)
            .ok_or_else(|| PedError(format!("{target} is not a statement of {}", unit.name)))?;
        Ok(match enc.last() {
            Some(&h) => h,
            None => self
                .loops(unit_idx)
                .first()
                .map(|&(s, _)| s)
                .unwrap_or(target),
        })
    }

    /// Execute the current program. When profiling is on, the run is timed
    /// as the `interpret` phase and its loop profiles and scheduler
    /// counters are folded into the session's report.
    pub fn run(&self, config: ped_runtime::ExecConfig) -> Result<ped_runtime::RunResult, PedError> {
        self.execute(config, false).map(|(result, _)| result)
    }

    /// Like [`Ped::run`], but also captures the main unit's final memory —
    /// the campaign engine's bit-equality oracle compares it across
    /// engines and execution modes.
    pub fn run_with_memory(
        &self,
        config: ped_runtime::ExecConfig,
    ) -> Result<(ped_runtime::RunResult, ped_runtime::MemorySnapshot), PedError> {
        self.execute(config, true)
    }

    /// The one run path behind [`Ped::run`] and [`Ped::run_with_memory`]:
    /// they differ only in whether the final memory is captured (the
    /// snapshot is empty when it is not).
    fn execute(
        &self,
        config: ped_runtime::ExecConfig,
        capture_memory: bool,
    ) -> Result<(ped_runtime::RunResult, ped_runtime::MemorySnapshot), PedError> {
        self.last_run_tree.store(
            config.engine == ped_runtime::Engine::Tree,
            std::sync::atomic::Ordering::Relaxed,
        );
        let (result, memory) = {
            let _t = PhaseTimer::start(self.obs_ref(), Phase::Interpret);
            let interp = ped_runtime::Interp::new(&self.program, config)
                .map_err(|e| PedError(e.message.clone()))?;
            let run = if capture_memory {
                interp.run_with_memory()
            } else {
                interp.run().map(|r| (r, ped_runtime::MemorySnapshot::default()))
            };
            run.map_err(|e| PedError(e.message))?
        };
        if self.obs.enabled() {
            for ((unit, stmt), ls) in &result.profile {
                self.obs.record_loop(LoopProfileStat {
                    unit: unit.clone(),
                    stmt: stmt.0,
                    invocations: ls.invocations,
                    iterations: ls.iterations,
                    ops: ls.ops,
                });
            }
            self.obs.record_sched(&SchedulerReport {
                parallel_loops: result.sched.parallel_loops,
                inline_loops: result.sched.inline_loops,
                chunks_executed: result.sched.chunks_executed,
                chunks_stolen: result.sched.chunks_stolen,
                worker_iterations: result.sched.worker_iterations.clone(),
            });
        }
        Ok((result, memory))
    }
}

/// Build one loop's dependence graph as a pure function of shared
/// read-only state: the program, the interprocedural results, the
/// capability flags, and the user's assertions. No session mutation — this
/// is what lets [`Ped::analyze_all`] fan out over `(unit, header)` pairs
/// from plain worker threads, and a sequential call produces bit-identical
/// output because [`build_graph`] sorts and re-ids its edges.
#[allow(clippy::too_many_arguments)]
pub fn build_unit_graph(
    program: &Program,
    ip: &IpAnalysis,
    unit_idx: usize,
    header: StmtId,
    flags: IpFlags,
    include_input: bool,
    assertions: &[Assertion],
    pair_cache: Option<&PairCache>,
    obs: Option<&Obs>,
) -> DepGraph {
    // Resolver layering (innermost wins): user assertions, then
    // interprocedural constant seeds, then intraprocedural constant
    // propagation at the loop header.
    let asserted: HashMap<SymId, i64> = assertions
        .iter()
        .filter_map(|a| match a {
            Assertion::Value { unit, sym, value } if *unit == unit_idx => Some((*sym, *value)),
            _ => None,
        })
        .collect();
    let ip_seeds = &ip.const_seeds[unit_idx];
    let unit_ref = &program.units[unit_idx];
    let cfg = ped_analysis::cfg::Cfg::build(unit_ref);
    let seeds = if flags.constants {
        ip_seeds.clone()
    } else {
        ped_analysis::constants::Facts::new()
    };
    let env = ped_analysis::constants::ConstEnv::compute_seeded(unit_ref, &cfg, &seeds);
    let header_facts: ped_analysis::constants::Facts = env.at(header).clone();
    let resolve = move |s: SymId| {
        asserted.get(&s).copied().or_else(|| match ip_seeds.get(&s) {
            Some(Const::Int(v)) => Some(*v),
            _ => match header_facts.get(&s) {
                Some(Const::Int(v)) => Some(*v),
                _ => None,
            },
        })
    };
    let oracle = ip.oracle(program, unit_idx, flags);
    let config = GraphConfig {
        include_input,
        effects: &oracle,
        call_info: &oracle,
        resolve: Box::new(resolve),
        pair_cache,
        obs,
    };
    build_graph(unit_ref, header, &config)
}

/// Parse a transformation spec (`parallelize`, `unroll:4`, `expand:t`, …)
/// against the symbols of `unit`: the one grammar of the interactive
/// `apply`/`diagnose` commands and the `serve` daemon's `transform` verb.
/// An error names the argument the word needs (`privatize needs :<array>`).
pub fn parse_xform(unit: &ProgramUnit, spec: &str) -> Result<Xform, String> {
    let (name, arg) = match spec.split_once(':') {
        Some((n, a)) => (n, Some(a)),
        None => (spec, None),
    };
    let int = || -> Result<i64, String> {
        arg.and_then(|a| a.parse().ok()).ok_or_else(|| format!("{name} needs :<n>"))
    };
    let sym = |kind: &str| -> Result<SymId, String> {
        arg.and_then(|a| unit.symbols.lookup(a)).ok_or_else(|| format!("{name} needs :<{kind}>"))
    };
    Ok(match name {
        "parallelize" => Xform::Parallelize,
        "interchange" => Xform::Interchange,
        "distribute" => Xform::Distribute,
        "reverse" => Xform::Reverse,
        "stripmine" => Xform::StripMine { size: int()? },
        "unroll" => Xform::Unroll { factor: int()? as u32 },
        "unrolljam" => Xform::UnrollAndJam { factor: int()? as u32 },
        "skew" => Xform::Skew { factor: int()? },
        "expand" => Xform::ScalarExpand { var: sym("scalar")? },
        "ivsub" => Xform::IvSub { var: sym("scalar")? },
        "privatize" => Xform::ArrayPrivatize { var: sym("array")? },
        other => return Err(format!("unknown transformation {other}")),
    })
}

/// Per-loop fingerprints of one unit under the current analysis results:
/// for each loop header, `(loop_fp, ctx_fp)`. `loop_fp` is the nest's
/// structural hash from [`ped_fortran::visit::loop_fingerprint`]; `ctx_fp`
/// hashes everything [`build_unit_graph`] reads from *outside* the nest —
/// capability flags, the input-dependence setting, the unit's value
/// assertions, COMMON array declarations (call-effect targets), constant
/// facts reaching the header, per-symbol liveness after the loop, and the
/// control-dependence pairs inside the nest. Together with the unit's
/// visible interprocedural fingerprint, equality of both hashes means a
/// cached graph of this loop is still exactly what a rebuild would produce.
fn unit_loop_fingerprints(
    program: &Program,
    ip: &IpAnalysis,
    unit_idx: usize,
    flags: IpFlags,
    assertions: &[Assertion],
) -> HashMap<StmtId, (u64, u64)> {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let unit = &program.units[unit_idx];
    let cfg = ped_analysis::cfg::Cfg::build(unit);
    let seeds = if flags.constants {
        ip.const_seeds[unit_idx].clone()
    } else {
        ped_analysis::constants::Facts::new()
    };
    let env = ped_analysis::constants::ConstEnv::compute_seeded(unit, &cfg, &seeds);
    let live = ped_analysis::liveness::Liveness::compute(unit, &cfg);
    let cd = ped_analysis::controldep::ControlDeps::compute(&cfg);
    let mut asserted: Vec<(SymId, i64)> = assertions
        .iter()
        .filter_map(|a| match a {
            Assertion::Value { unit, sym, value } if *unit == unit_idx => Some((*sym, *value)),
            _ => None,
        })
        .collect();
    asserted.sort();
    let commons = {
        let mut h = DefaultHasher::new();
        for (id, s) in unit.symbols.iter() {
            if s.common.is_some() && s.is_array() {
                id.hash(&mut h);
                format!("{s:?}").hash(&mut h);
            }
        }
        h.finish()
    };
    let mut out = HashMap::new();
    for node in loop_tree(unit) {
        let header = node.stmt;
        let mut h = DefaultHasher::new();
        [flags.modref, flags.kill, flags.sections, flags.constants].hash(&mut h);
        asserted.hash(&mut h);
        commons.hash(&mut h);
        let mut facts: Vec<(SymId, String)> =
            env.at(header).iter().map(|(s, c)| (*s, format!("{c:?}"))).collect();
        facts.sort();
        facts.hash(&mut h);
        for (sid, _) in unit.symbols.iter() {
            live.live_after_loop(unit, &cfg, header, sid).hash(&mut h);
        }
        let in_body: HashSet<StmtId> = std::iter::once(header)
            .chain(stmts_recursive(unit, &unit.loop_of(header).body))
            .collect();
        let mut pairs: Vec<(StmtId, StmtId)> = cd
            .pairs
            .iter()
            .filter(|&&(c, d)| c != header && in_body.contains(&c) && in_body.contains(&d))
            .copied()
            .collect();
        pairs.sort();
        pairs.hash(&mut h);
        out.insert(header, (node.fingerprint, h.finish()));
    }
    out
}

/// Approximate size of one unit for journal accounting: the printed source
/// form, a stable proxy for the AST's heap footprint.
fn unit_bytes(unit: &ProgramUnit) -> u64 {
    let mut s = String::new();
    ped_fortran::printer::print_unit(unit, &mut s);
    s.len() as u64
}

/// Does a dependence run through `array`-indexed subscripts on both ends?
fn dep_uses_index_array(
    unit: &ped_fortran::ProgramUnit,
    dep: &ped_dep::Dependence,
    array: SymId,
) -> bool {
    let uses = |stmt: StmtId| {
        let mut found = false;
        ped_fortran::visit::for_each_expr_of_stmt(&unit.stmt(stmt).kind, &mut |e| {
            if let ped_fortran::Expr::ArrayRef { sym, .. } = e {
                if *sym == array {
                    found = true;
                }
            }
        });
        found
    };
    uses(dep.src) && uses(dep.dst)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every word of the CLI help, a missing argument, and an unknown word.
    #[test]
    fn xform_specs_parse() {
        let ped = Ped::open("program t\nreal a(10)\ndo i = 1, 10\nt = i\na(i) = t\nenddo\nend\n")
            .unwrap();
        let unit = &ped.program().units[0];
        let (a, t) = (unit.symbols.lookup("a").unwrap(), unit.symbols.lookup("t").unwrap());
        for (spec, want) in [
            ("parallelize", Ok(Xform::Parallelize)),
            ("interchange", Ok(Xform::Interchange)),
            ("distribute", Ok(Xform::Distribute)),
            ("reverse", Ok(Xform::Reverse)),
            ("stripmine:8", Ok(Xform::StripMine { size: 8 })),
            ("unroll:4", Ok(Xform::Unroll { factor: 4 })),
            ("unrolljam:2", Ok(Xform::UnrollAndJam { factor: 2 })),
            ("skew:1", Ok(Xform::Skew { factor: 1 })),
            ("expand:t", Ok(Xform::ScalarExpand { var: t })),
            ("ivsub:t", Ok(Xform::IvSub { var: t })),
            ("privatize:a", Ok(Xform::ArrayPrivatize { var: a })),
            ("unroll", Err("unroll needs :<n>")),
            ("privatize:", Err("privatize needs :<array>")),
            ("expand:nosuch", Err("expand needs :<scalar>")),
            ("frobnicate", Err("unknown transformation frobnicate")),
        ] {
            assert_eq!(parse_xform(unit, spec), want.map_err(String::from), "{spec}");
        }
    }

    const INDEX_ARRAY_SRC: &str = "program scatter\nreal a(100)\ninteger ind(100)\n\
        do i = 1, 100\nind(i) = i\nenddo\ndo i = 1, 100\na(ind(i)) = a(ind(i)) + 1.0\nenddo\nend\n";

    #[test]
    fn open_and_list_loops() {
        let mut ped = Ped::open(INDEX_ARRAY_SRC).unwrap();
        let loops = ped.loops(0);
        assert_eq!(loops.len(), 2);
        let ranked = ped.loops_by_cost(0);
        assert_eq!(ranked.len(), 2);
    }

    #[test]
    fn marking_workflow_unlocks_parallelization() {
        let mut ped = Ped::open(INDEX_ARRAY_SRC).unwrap();
        let scatter = ped.loops(0)[1].0;
        assert!(!ped.parallelizable(0, scatter).unwrap());
        // All blocking deps are pending (index array): reject them.
        let pending: Vec<usize> = {
            let g = ped.graph(0, scatter).unwrap();
            g.blocking().iter().map(|d| d.id).collect()
        };
        assert!(!pending.is_empty());
        for id in pending {
            ped.mark(0, scatter, id, Mark::Rejected).unwrap();
        }
        assert!(ped.parallelizable(0, scatter).unwrap());
    }

    #[test]
    fn out_of_range_statement_ids_are_errors_not_panics() {
        let mut ped = Ped::open(INDEX_ARRAY_SRC).unwrap();
        let bogus = StmtId(999);
        assert!(ped.graph(0, bogus).is_err());
        assert!(ped.mark(0, bogus, 0, Mark::Rejected).is_err());
        assert!(ped.diagnose(0, bogus, &Xform::Parallelize).is_err());
        assert!(ped.apply(0, bogus, &Xform::Parallelize).is_err());
        // Nothing was applied, and the session still answers.
        assert!(!ped.undo());
        assert_eq!(ped.loops(0).len(), 2);
    }

    #[test]
    fn proven_dependences_cannot_be_rejected() {
        let mut ped = Ped::open(
            "program t\nreal a(100)\ndo i = 2, 100\na(i) = a(i-1)\nenddo\nend\n",
        )
        .unwrap();
        let h = ped.loops(0)[0].0;
        let blocking: Vec<usize> = {
            let g = ped.graph(0, h).unwrap();
            g.blocking().iter().map(|d| d.id).collect()
        };
        let err = ped.mark(0, h, blocking[0], Mark::Rejected).unwrap_err();
        assert!(err.0.contains("proven"));
    }

    #[test]
    fn permutation_assertion_rejects_pending_deps() {
        let mut ped = Ped::open(INDEX_ARRAY_SRC).unwrap();
        let scatter = ped.loops(0)[1].0;
        assert!(!ped.parallelizable(0, scatter).unwrap());
        let ind = ped.program().units[0].symbols.lookup("ind").unwrap();
        let rejected =
            ped.assert_fact(Assertion::Permutation { unit: 0, array: ind }).unwrap();
        assert!(rejected > 0);
        assert!(ped.parallelizable(0, scatter).unwrap());
    }

    #[test]
    fn value_assertion_sharpens_bounds() {
        // a(i) vs a(i+m): unknown m keeps a pending dep; asserting m = 200
        // (≥ trip count) kills it via the strong SIV trip check… the
        // subscripts then provably never overlap inside 1..100.
        let src = "program t\nreal a(400)\ninteger m\nm = 200\ndo i = 1, 100\n\
                   a(i) = a(i + m)\nenddo\nend\n";
        let mut ped = Ped::open(src).unwrap();
        let h = ped.loops(0)[0].0;
        // Constant propagation already finds m = 200 here; force the
        // harder case by asserting on a formal-like unknown instead.
        let ok = ped.parallelizable(0, h).unwrap();
        assert!(ok, "constant propagation should already resolve m");
        // Now the genuinely unknown case:
        let src2 = "subroutine s(a, m)\ninteger m\nreal a(400)\ndo i = 1, 100\n\
                    a(i) = a(i + m)\nenddo\nend\nprogram t\nend\n";
        let mut ped2 = Ped::open(src2).unwrap();
        let su = ped2.unit_index("s").unwrap();
        let h2 = ped2.loops(su)[0].0;
        assert!(!ped2.parallelizable(su, h2).unwrap());
        let m = ped2.program().units[su].symbols.lookup("m").unwrap();
        ped2.assert_fact(Assertion::Value { unit: su, sym: m, value: 200 }).unwrap();
        assert!(ped2.parallelizable(su, h2).unwrap(), "assertion kills the dependence");
    }

    #[test]
    fn steering_apply_and_undo() {
        let mut ped = Ped::open(
            "program t\nreal a(100), b(100)\ndo i = 1, 100\na(i) = b(i)\nenddo\nend\n",
        )
        .unwrap();
        let h = ped.loops(0)[0].0;
        let d = ped.diagnose(0, h, &Xform::Parallelize).unwrap();
        assert!(d.ok(), "{d:?}");
        ped.apply(0, h, &Xform::Parallelize).unwrap();
        assert!(ped.source().contains("parallel do"));
        assert!(ped.undo());
        assert!(!ped.source().contains("parallel do"));
        assert!(ped.redo());
        assert!(ped.source().contains("parallel do"));
    }

    #[test]
    fn failed_apply_rolls_back() {
        let mut ped = Ped::open(
            "program t\nreal a(10)\ndo i = 1, 10\na(i) = 1.0\nenddo\nend\n",
        )
        .unwrap();
        let h = ped.loops(0)[0].0;
        let before = ped.source();
        // Unroll by 3 does not divide 10: inapplicable.
        let err = ped.apply(0, h, &Xform::Unroll { factor: 3 }).unwrap_err();
        assert!(err.0.contains("divisible"), "{err}");
        assert_eq!(ped.source(), before);
        assert!(!ped.undo(), "failed apply must not leave an undo entry");
    }

    /// Satellite regression: a *failed* apply must leave the redo stack
    /// alone — only a successful transform forks history.
    #[test]
    fn failed_apply_preserves_redo_stack() {
        let mut ped = Ped::open(
            "program t\nreal a(10)\ndo i = 1, 10\na(i) = 1.0\nenddo\nend\n",
        )
        .unwrap();
        let h = ped.loops(0)[0].0;
        ped.apply(0, h, &Xform::Parallelize).unwrap();
        assert!(ped.undo());
        assert_eq!(ped.incremental_stats().redo_entries, 1);
        // Unroll by 3 does not divide 10: inapplicable, must not clear redo.
        ped.apply(0, h, &Xform::Unroll { factor: 3 }).unwrap_err();
        assert_eq!(ped.incremental_stats().redo_entries, 1);
        assert!(ped.redo(), "redo survives a failed apply");
        assert!(ped.source().contains("parallel do"));
        // A *successful* apply after an undo does clear redo.
        assert!(ped.undo());
        ped.apply(0, h, &Xform::Unroll { factor: 2 }).unwrap();
        assert_eq!(ped.incremental_stats().redo_entries, 0);
        assert!(!ped.redo());
    }

    /// Satellite: undo/redo are edits for E10 purposes — they reset
    /// `reanalysis_count` exactly like `apply` and `edit_unit` do.
    #[test]
    fn undo_redo_reset_reanalysis_count_like_edits() {
        let mut ped = Ped::open(CALLER_SRC).unwrap();
        let h = ped.loops(0)[0].0;
        ped.graph(0, h).unwrap();
        assert!(ped.reanalysis_count > 0);
        ped.apply(0, h, &Xform::Reverse).unwrap();
        assert_eq!(ped.reanalysis_count, 0, "apply resets");
        ped.graph(0, h).unwrap();
        let after_graph = ped.reanalysis_count;
        assert!(after_graph > 0, "rebuild after the edit accumulates");
        assert!(ped.undo());
        assert_eq!(ped.reanalysis_count, 0, "undo resets");
        ped.graph(0, h).unwrap();
        assert!(ped.redo());
        assert_eq!(ped.reanalysis_count, 0, "redo resets");
    }

    /// Undo of an analyzed edit resurrects the retired graphs by
    /// fingerprint instead of rebuilding them.
    #[test]
    fn undo_resurrects_retired_graphs() {
        let mut ped = Ped::open(CALLER_SRC).unwrap();
        let h = ped.loops(0)[0].0;
        let before = ped.graph(0, h).unwrap();
        // Summary-changing callee edit: the caller's graph is retired.
        ped.edit_unit("probe", PROBE_WRITES_X).unwrap();
        ped.graph(0, h).unwrap();
        let built_before_undo = ped.incremental_stats();
        assert_eq!(built_before_undo.graphs_resurrected, 0);
        assert!(ped.undo());
        let after = ped.graph(0, h).unwrap();
        assert_eq!(before, after);
        let stats = ped.incremental_stats();
        assert!(
            stats.graphs_resurrected >= 1,
            "undo must resurrect the retired caller graph, not rebuild it: {stats:?}"
        );
        assert_eq!(ped.reanalysis_count, 0, "resurrection is free for E10");
    }

    /// A summary-preserving transform takes the interprocedural fast path:
    /// no whole-program recompute.
    #[test]
    fn summary_preserving_transform_skips_ip_recompute() {
        let mut ped = Ped::open(CALLER_SRC).unwrap();
        let h = ped.loops(0)[0].0;
        ped.graph(0, h).unwrap();
        let before = ped.incremental_stats();
        ped.apply(0, h, &Xform::Reverse).unwrap();
        let after = ped.incremental_stats();
        assert_eq!(
            after.ip_recomputes, before.ip_recomputes,
            "reversal must not rerun the whole-program fixpoint"
        );
        assert_eq!(after.ip_recomputes_skipped, before.ip_recomputes_skipped + 1);
    }

    /// The delta journal stores one unit per entry, not the whole program —
    /// its accounting must come out strictly cheaper on a multi-unit
    /// program.
    #[test]
    fn journal_is_cheaper_than_snapshots() {
        let mut ped = Ped::open(CALLER_SRC).unwrap();
        let h = ped.loops(0)[0].0;
        ped.apply(0, h, &Xform::Reverse).unwrap();
        ped.apply(0, h, &Xform::Reverse).unwrap();
        let stats = ped.incremental_stats();
        assert_eq!(stats.undo_entries, 2);
        assert!(
            stats.journal_bytes < stats.snapshot_bytes,
            "deltas ({}) must be smaller than full snapshots ({})",
            stats.journal_bytes,
            stats.snapshot_bytes
        );
    }

    #[test]
    fn edit_unit_invalidates_and_reanalyzes() {
        let mut ped = Ped::open(
            "program t\nreal a(100)\ndo i = 2, 100\na(i) = a(i-1)\nenddo\nend\n",
        )
        .unwrap();
        let h = ped.loops(0)[0].0;
        assert!(!ped.parallelizable(0, h).unwrap());
        ped.edit_unit(
            "t",
            "program t\nreal a(100)\ndo i = 2, 100\na(i) = a(i) + 1.0\nenddo\nend\n",
        )
        .unwrap();
        let h2 = ped.loops(0)[0].0;
        assert!(ped.parallelizable(0, h2).unwrap(), "edited loop is parallel");
        assert!(ped.undo());
        let h3 = ped.loops(0)[0].0;
        assert!(!ped.parallelizable(0, h3).unwrap());
    }

    /// The caller's loop is parallel only while the callee merely *reads*
    /// the shared array through `x`. A read-only probe and a probe that
    /// also writes `x(k+1)` — used to flip the callee's MOD set mid-session.
    const CALLER_SRC: &str = "program t\nreal a(100), b(100)\ndo i = 1, 100\n\
        call probe(a, b, i)\nenddo\nend\n\
        subroutine probe(x, y, k)\ninteger k\nreal x(100), y(100)\n\
        y(k) = x(k)\nreturn\nend\n";
    const PROBE_WRITES_X: &str = "subroutine probe(x, y, k)\ninteger k\n\
        real x(100), y(100)\ny(k) = x(k)\nx(k+1) = 0.0\nreturn\nend\n";

    /// The headline staleness bug: editing a callee so its MOD set changes
    /// must be reflected by the caller's next `graph()`. The old
    /// `invalidate_unit` retained the caller's cached graph (built against
    /// the pre-edit oracle), so this test was red before fingerprint
    /// invalidation.
    #[test]
    fn callee_mod_change_invalidates_caller_graph() {
        let mut ped = Ped::open(CALLER_SRC).unwrap();
        let h = ped.loops(0)[0].0;
        assert!(
            ped.parallelizable(0, h).unwrap(),
            "x only read, y written at exact k: parallel"
        );
        ped.edit_unit("probe", PROBE_WRITES_X).unwrap();
        assert!(
            !ped.parallelizable(0, h).unwrap(),
            "callee now writes x(k+1): the caller's i loop carries a dependence"
        );
        // And back: undo restores the read-only callee and the parallelism.
        assert!(ped.undo());
        assert!(ped.parallelizable(0, h).unwrap());
    }

    /// The flip side of fingerprinting: an edit whose visible summaries are
    /// unchanged must *keep* other units' graphs — measured through
    /// `reanalysis_count`, which an edit resets and only real rebuilds
    /// increment.
    #[test]
    fn summary_preserving_edit_keeps_caller_graphs() {
        let mut ped = Ped::open(CALLER_SRC).unwrap();
        let h = ped.loops(0)[0].0;
        let before = ped.graph(0, h).unwrap();
        // Re-edit the callee with an internally different but summary-
        // equivalent body (an extra private temporary).
        ped.edit_unit(
            "probe",
            "subroutine probe(x, y, k)\ninteger k\nreal x(100), y(100)\n\
             t1 = x(k)\ny(k) = t1\nreturn\nend\n",
        )
        .unwrap();
        assert_eq!(ped.reanalysis_count, 0, "edit resets the counter");
        let after = ped.graph(0, h).unwrap();
        assert_eq!(before, after, "caller graph unchanged");
        assert_eq!(
            ped.reanalysis_count, 0,
            "caller graph must be served from cache after a summary-preserving edit"
        );
    }

    /// Toggling flags invalidates caches but must not corrupt the E10
    /// counter (it used to be zeroed by `invalidate_all`).
    #[test]
    fn flag_toggle_preserves_reanalysis_count() {
        let mut ped = Ped::open(CALLER_SRC).unwrap();
        let h = ped.loops(0)[0].0;
        ped.graph(0, h).unwrap();
        let counted = ped.reanalysis_count;
        assert!(counted > 0);
        ped.set_flags(IpFlags::none());
        assert_eq!(ped.reanalysis_count, counted, "toggle is not an edit");
        ped.graph(0, h).unwrap();
        assert!(ped.reanalysis_count > counted, "rebuild keeps accumulating");
    }

    /// `analyze_all` fills the whole cache and matches sequential `graph()`
    /// bit for bit; a second call reuses everything.
    #[test]
    fn analyze_all_matches_sequential_graphs() {
        let src = "program t\nreal a(100), b(100)\ndo i = 1, 100\ncall probe(a, b, i)\nenddo\n\
            do i = 2, 100\na(i) = a(i-1) + b(i)\nenddo\nend\n\
            subroutine probe(x, y, k)\ninteger k\nreal x(100), y(100)\ny(k) = x(k)\nreturn\nend\n";
        let mut seq = Ped::open(src).unwrap();
        let mut expected = Vec::new();
        for u in 0..seq.program().units.len() {
            for (h, _) in seq.loops(u) {
                expected.push(((u, h), seq.graph(u, h).unwrap()));
            }
        }
        let mut batch = Ped::open(src).unwrap();
        let report = batch.analyze_all();
        assert_eq!(report.built, expected.len());
        assert_eq!(report.reused, 0);
        assert_eq!(report.units, 2);
        for ((u, h), g) in &expected {
            assert_eq!(&batch.graph(*u, *h).unwrap(), g, "unit {u} loop {h}");
        }
        let again = batch.analyze_all();
        assert_eq!(again.built, 0);
        assert_eq!(again.reused, expected.len());
        assert_eq!(again.threads, 0);
        assert_eq!(again.deps, report.deps);
    }

    /// Every `Xform` the catalog has, aimed at loop `h` of unit `ui`:
    /// symbol- and statement-parameterized variants pick the loop's first
    /// assigned scalar, first assigned array, first two body statements,
    /// the next loop at the same depth, and every call in the unit.
    fn catalog_for(ped: &Ped, ui: usize, h: StmtId) -> Vec<Xform> {
        use ped_fortran::{LValue, StmtKind};
        let unit = &ped.program().units[ui];
        let body = &unit.loop_of(h).body;
        let mut out = vec![
            Xform::Parallelize,
            Xform::Interchange,
            Xform::Distribute,
            Xform::Reverse,
            Xform::Skew { factor: 1 },
            Xform::StripMine { size: 4 },
            Xform::Unroll { factor: 2 },
            Xform::UnrollAndJam { factor: 2 },
        ];
        let loops = ped.loops(ui);
        let at = loops.iter().position(|&(l, _)| l == h).expect("h is a loop of ui");
        if let Some(&(next, _)) = loops[at + 1..].iter().find(|&&(_, d)| d == loops[at].1) {
            out.push(Xform::Fuse { with: next });
        }
        if let [a, b, ..] = body[..] {
            out.push(Xform::StatementInterchange { a, b });
        }
        let stmts = stmts_recursive(unit, body);
        let assigned = |want_array: bool| {
            stmts.iter().find_map(|&s| match &unit.stmt(s).kind {
                StmtKind::Assign { lhs: LValue::Var(v), .. } if !want_array => Some(*v),
                StmtKind::Assign { lhs: LValue::ArrayElem(v, _), .. } if want_array => Some(*v),
                _ => None,
            })
        };
        if let Some(var) = assigned(false) {
            out.push(Xform::ScalarExpand { var });
            out.push(Xform::IvSub { var });
        }
        if let Some(var) = assigned(true) {
            out.push(Xform::ArrayPrivatize { var });
        }
        for s in stmts_recursive(unit, &unit.body) {
            if matches!(unit.stmt(s).kind, StmtKind::Call { .. }) {
                out.push(Xform::Inline { call: s });
            }
        }
        out
    }

    /// What `snapshot_bytes` must be for a delta taken right now: the
    /// whole program printed, plus every mark.
    fn whole_snapshot_bytes(ped: &Ped) -> u64 {
        let mark_cost = std::mem::size_of::<(DepKey, Mark)>() as u64;
        ped.program.units.iter().map(unit_bytes).sum::<u64>() + ped.marks.len() as u64 * mark_cost
    }

    /// The visible fingerprints the session kept must be what a full
    /// rehash of its analysis produces — and, with `fresh`, what a fresh
    /// whole-program analysis produces.
    fn assert_fingerprints(ped: &Ped, fresh: bool, label: &str) {
        let ip = ped.ip.as_ref().expect("edits keep an analysis");
        assert_eq!(ped.vis_fps, ip.visible_fingerprints(&ped.program), "{label}: rehash");
        if fresh {
            let ip = IpAnalysis::analyze(&ped.program);
            assert_eq!(ped.vis_fps, ip.visible_fingerprints(&ped.program), "{label}: fresh");
        }
    }

    /// The journal entry an edit just pushed carries the whole-program
    /// size from before the edit and its own unit's printed size.
    fn assert_delta(d: Option<&Delta>, snapshot: u64, label: &str) {
        let d = d.unwrap_or_else(|| panic!("{label}: no journal entry"));
        assert_eq!(d.snapshot_bytes, snapshot, "{label}: snapshot_bytes");
        assert_eq!(d.unit_bytes, unit_bytes(&d.unit), "{label}: unit_bytes");
    }

    /// Apply, undo, redo, and undo back, checking the bookkeeping after
    /// each step. Returns whether the apply succeeded.
    fn round_trip(ped: &mut Ped, ui: usize, h: StmtId, xf: &Xform, label: &str) -> bool {
        let snap = whole_snapshot_bytes(ped);
        let depth = ped.undo.len();
        if ped.apply(ui, h, xf).is_err() {
            assert_eq!(ped.undo.len(), depth, "{label}: failed apply journaled");
            return false;
        }
        assert_delta(ped.undo.last(), snap, &format!("{label} apply"));
        assert_fingerprints(ped, true, &format!("{label} apply"));
        for step in ["undo", "redo", "undo back"] {
            let snap = whole_snapshot_bytes(ped);
            let redoing = step == "redo";
            assert!(if redoing { ped.redo() } else { ped.undo() }, "{label} {step}");
            let pushed = if redoing { ped.undo.last() } else { ped.redo.last() };
            assert_delta(pushed, snap, &format!("{label} {step}"));
            assert_fingerprints(ped, false, &format!("{label} {step}"));
        }
        true
    }

    /// The per-edit bookkeeping reuses fingerprints and cached unit sizes
    /// instead of recomputing them over the whole program; after every
    /// apply, undo, redo and `edit_unit` it must equal the full recompute.
    #[test]
    fn edit_bookkeeping_equals_full_recompute() {
        use ped_workloads::generator::{gen_source, GenConfig};
        let mut programs: Vec<(String, String)> = ped_workloads::suite::all_programs()
            .iter()
            .map(|w| (w.name.to_string(), w.source.to_string()))
            .collect();
        for seed in [2u64, 13] {
            let cfg =
                GenConfig { units: 3, loops_per_unit: 3, stmts_per_loop: 3, extent: 64, seed };
            programs.push((format!("gen seed {seed}"), gen_source(cfg)));
        }
        for (name, src) in programs {
            let mut ped = Ped::open(&src).unwrap();
            ped.analyze_all();
            let mut applied = 0usize;
            for ui in 0..ped.program().units.len() {
                let headers: Vec<StmtId> = ped.loops(ui).into_iter().map(|(h, _)| h).collect();
                for h in headers {
                    for xf in catalog_for(&ped, ui, h) {
                        let label = format!("{name} unit {ui} loop {h} {}", xf.name());
                        applied += round_trip(&mut ped, ui, h, &xf, &label) as usize;
                    }
                }
            }
            assert!(applied > 0, "{name}: no transformation applied");
            // Source edits: the unit's own text (summary kept), then one
            // with an added external call (summary and callers' move).
            for ui in 0..ped.program().units.len() {
                let unit_name = ped.program().units[ui].name.clone();
                let mut text = String::new();
                ped_fortran::printer::print_unit(&ped.program().units[ui], &mut text);
                let at = text.rfind("end").expect("printed unit ends with END");
                let mut probed = text.clone();
                probed.insert_str(at, "call xprobe\n");
                for (kind, new_src) in [("same text", &text), ("external call", &probed)] {
                    let label = format!("{name} edit {unit_name} ({kind})");
                    let snap = whole_snapshot_bytes(&ped);
                    ped.edit_unit(&unit_name, new_src).unwrap();
                    assert_delta(ped.undo.last(), snap, &label);
                    assert_fingerprints(&ped, true, &label);
                    let snap = whole_snapshot_bytes(&ped);
                    assert!(ped.undo());
                    assert_delta(ped.redo.last(), snap, &format!("{label} undo"));
                    assert_fingerprints(&ped, false, &format!("{label} undo"));
                }
            }
        }
    }

    /// A fast-path edit can still move what callers see: a PARAMETER in a
    /// callee's section expression leaves the summary equal but changes
    /// its translation into caller terms, so the callee's
    /// `unit_fingerprint` moves and every fingerprint is recomputed.
    #[test]
    fn fast_path_edit_of_a_translated_parameter_refreshes_fingerprints() {
        let src = |k: i64| {
            format!(
                "program t\nreal x(10)\ndo i = 1, 10\ncall f(x, 1.0)\nenddo\nend\n\
                 subroutine f(a, y)\ninteger k\nparameter (k = {k})\nreal a(10), y\n\
                 if (y .gt. 0.0) then\na(k) = 1.0\nendif\nend\n"
            )
        };
        let mut ped = Ped::open(&src(3)).unwrap();
        ped.analyze_all();
        let before = ped.incremental_stats();
        let caller_fp = ped.vis_fps[0];
        ped.edit_unit("f", &src(4)).unwrap();
        let after = ped.incremental_stats();
        assert_eq!(after.ip_recomputes, before.ip_recomputes, "summary kept: fast path");
        assert_ne!(ped.vis_fps[0], caller_fp, "the caller sees a(4), not a(3)");
        assert_fingerprints(&ped, true, "k = 4");
    }

    #[test]
    fn run_through_session() {
        let ped = Ped::open(
            "program t\nreal a(10)\ndo i = 1, 10\na(i) = i * 1.0\nenddo\nprint *, a(10)\nend\n",
        )
        .unwrap();
        let r = ped.run(ped_runtime::ExecConfig::default()).unwrap();
        assert_eq!(r.printed, vec!["10.0"]);
    }
}
