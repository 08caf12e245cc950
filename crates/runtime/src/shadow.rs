//! Shadow-memory access logging: the observed-dependence side of the
//! validation checker.
//!
//! When [`crate::ExecConfig::shadow`] is on, the interpreter reports every
//! memory touch (cell, flat element, read/write) to a [`ShadowRec`]. The
//! recorder maintains one [`ShadowScope`] per active DO loop and derives,
//! online, the *observed* cross-iteration dependences of each loop: for
//! every (cell, element) it keeps only the nearest prior read/write
//! iteration, so a touch at iteration `i` immediately yields the carried
//! flow/anti/output/input pairs ending at `i` with their distances. Memory
//! stays proportional to the touched footprint, not the run length. That
//! history lives in one place per location, with a slot per scope depth
//! stamped by the scope invocation that owns it (see [`ShadowRec`]), so an
//! access costs one lookup however deep the nest, and entering a loop
//! allocates nothing.
//!
//! Privatized names are handled by *masking*: a parallel loop's scope
//! carries the cell addresses Threads mode rebinds per worker — the loop
//! variable plus `private`/`lastprivate`/`reduction` clause cells. A touch
//! walks the scope stack innermost-out and stops at the first scope that
//! excludes the cell — an inner serial loop still observes the clause
//! locals, while the privatizing loop and everything enclosing it never
//! sees them, exactly mirroring what the worker-local rebinding makes
//! invisible in Threads mode. Serial loops mask nothing: even their own
//! index is an ordinary shared cell, and its per-iteration store must stay
//! visible to any enclosing parallel scope whose parallelization failed to
//! privatize it.
//!
//! Threads mode keeps the observation deterministic by construction:
//! workers do not update the parallel loop's scope concurrently. Instead
//! each chunk logs its raw events through an [`EventTap`] (inner serial
//! loops inside the chunk use ordinary local scopes) and the merge replays
//! the event streams on the submitting thread in chunk-start order — the
//! serial iteration order — through the same scope stack. The resulting
//! [`ShadowLog`] is therefore identical under Serial, Simulate, and
//! Threads execution of the same program.

use crate::memory::Cell;
use ped_fortran::{StmtId, SymId};
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Kind of an observed cross-iteration dependence, aligned with the static
/// graph's `DepKind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ObsKind {
    /// Write then later read (flow).
    True,
    /// Read then later write.
    Anti,
    /// Write then later write.
    Output,
    /// Read then later read.
    Input,
}

impl ObsKind {
    /// Stable machine-readable name, matching `DepKind`'s display form.
    pub fn name(self) -> &'static str {
        match self {
            ObsKind::True => "true",
            ObsKind::Anti => "anti",
            ObsKind::Output => "output",
            ObsKind::Input => "input",
        }
    }
}

impl std::fmt::Display for ObsKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Occurrence statistics of one observed (variable, kind) dependence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsStat {
    /// Access pairs observed.
    pub count: u64,
    /// Smallest iteration distance seen.
    pub min_dist: u64,
    /// Largest iteration distance seen.
    pub max_dist: u64,
}

impl ObsStat {
    fn new(dist: u64) -> ObsStat {
        ObsStat { count: 1, min_dist: dist, max_dist: dist }
    }

    fn merge(&mut self, other: ObsStat) {
        self.count += other.count;
        self.min_dist = self.min_dist.min(other.min_dist);
        self.max_dist = self.max_dist.max(other.max_dist);
    }
}

/// What one loop's executions observed, across all invocations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoopObs {
    /// Times the loop was entered with shadow recording active.
    pub invocations: u64,
    /// Total iterations executed.
    pub iterations: u64,
    /// Observed loop-carried dependences keyed by (variable name, kind).
    pub carried: BTreeMap<(String, ObsKind), ObsStat>,
}

/// The observed-dependence log of a whole run, keyed by
/// (unit name, DO statement). Deterministic: equal runs produce equal logs
/// regardless of execution mode, schedule, or thread count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShadowLog {
    /// Per-loop observations.
    pub loops: BTreeMap<(String, StmtId), LoopObs>,
}

impl ShadowLog {
    /// Merge another log (worker-local inner-loop observations).
    pub fn fold(&mut self, other: ShadowLog) {
        for (key, obs) in other.loops {
            let e = self.loops.entry(key).or_default();
            e.invocations += obs.invocations;
            e.iterations += obs.iterations;
            for (k, stat) in obs.carried {
                match e.carried.get_mut(&k) {
                    Some(s) => s.merge(stat),
                    None => {
                        e.carried.insert(k, stat);
                    }
                }
            }
        }
    }

    /// Total observed carried (variable, kind) dependences over all loops.
    pub fn observed_deps(&self) -> usize {
        self.loops.values().map(|l| l.carried.len()).sum()
    }
}

/// The recorder's hasher for cell addresses: FxHash's multiply–rotate per
/// word. `finish` rotates the product so that its well-mixed high bits
/// land in the low bits the table indexes by: 16-byte-aligned addresses
/// would otherwise share their low bits and crowd a few buckets.
#[derive(Debug, Clone, Copy, Default)]
struct WordHasher(u64);

impl WordHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.add(x as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

type WordBuild = BuildHasherDefault<WordHasher>;

/// "No such access yet" in a [`Slot`] field. Iteration indices never
/// reach it, and it compares greater than all of them.
const NONE: u64 = u64::MAX;

/// Nearest-access history of one (cell, element) at one scope depth. It is
/// valid only for the scope invocation whose stamp it carries: a slot
/// stamped by an earlier invocation reads as empty. `prev_read` matters
/// when an iteration reads a location it later writes: the write's carried
/// anti-dependence must pair with the last read of an *earlier* iteration,
/// which `last_read` alone (already advanced to the current iteration)
/// would mask.
#[derive(Debug, Clone, Copy)]
struct Slot {
    stamp: u64,
    last_read: u64,
    prev_read: u64,
    last_write: u64,
}

impl Slot {
    const EMPTY: Slot = Slot { stamp: 0, last_read: NONE, prev_read: NONE, last_write: NONE };

    /// Apply one access at iteration `i`, returning the carried pairs it
    /// closes as (kind, distance).
    #[inline]
    fn touch(&mut self, i: u64, write: bool) -> [Option<(ObsKind, u64)>; 2] {
        let mut noted = [None, None];
        if write {
            let prior_read = if self.last_read == i { self.prev_read } else { self.last_read };
            if prior_read != NONE {
                noted[0] = Some((ObsKind::Anti, i - prior_read));
            }
            if self.last_write < i {
                noted[1] = Some((ObsKind::Output, i - self.last_write));
            }
            self.last_write = i;
        } else {
            if self.last_write < i {
                noted[0] = Some((ObsKind::True, i - self.last_write));
            }
            if self.last_read != i {
                if self.last_read != NONE {
                    noted[1] = Some((ObsKind::Input, i - self.last_read));
                }
                self.prev_read = self.last_read;
                self.last_read = i;
            }
        }
        noted
    }
}

/// Where one (cell, element)'s slots live in [`ShadowRec::slots`]: `len`
/// consecutive slots from `at`, one per scope depth from the outermost
/// (`len` 0 until a scope sees the element).
#[derive(Debug, Clone, Copy)]
struct Span {
    at: u32,
    len: u32,
}

/// One raw access event captured in a worker chunk, replayed at the merge.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    ptr: usize,
    /// The cell's index in the chunk's recorder (its place in the chunk's
    /// kept cells).
    ci: u32,
    elem: usize,
    write: bool,
    /// Global (serial) iteration index of the enclosing parallel loop.
    iter: u64,
    unit: usize,
    sym: SymId,
}

/// Worker-side event buffer standing in for the parallel loop's scope
/// (which lives on the submitting thread).
struct EventTap {
    /// Cells the chunk rebinds per worker; a handful, so a vector.
    excluded: Vec<usize>,
    iter: u64,
    events: Vec<Event>,
}

/// One cell a scope privatizes. A `flow_only` cell is an array privatized
/// via a section proof: its scope still watches it, but records only
/// carried *flow* — anti/output are exactly what a valid privatization
/// removes, while a carried true dependence means the kill analysis was
/// wrong (or the user forced the clause) and must surface as an observed
/// race. Any other masked cell is invisible to its scope. Either way the
/// cell is invisible to every scope enclosing it.
#[derive(Debug, Clone, Copy)]
struct Mask {
    ptr: usize,
    depth: usize,
    flow_only: bool,
}

/// The per-loop observation state while the loop is running.
struct ShadowScope {
    stmt: StmtId,
    iter: u64,
    /// This invocation's stamp on the slots it owns.
    stamp: u64,
    /// Where this scope's entries start in [`ShadowRec::masks`].
    masks_from: usize,
    /// Carried dependences keyed by the sink access's (unit, symbol, kind),
    /// resolved to names when the scope pops.
    obs: ObsList,
}

/// A scope's carried stats. A loop observes a handful of names, so a
/// short vector beats a map.
type ObsList = Vec<((usize, SymId, ObsKind), ObsStat)>;

impl ShadowScope {
    fn note(&mut self, key: (usize, SymId, ObsKind), dist: u64) {
        match self.obs.iter_mut().find(|(k, _)| *k == key) {
            Some((_, stat)) => stat.merge(ObsStat::new(dist)),
            None => self.obs.push((key, ObsStat::new(dist))),
        }
    }
}

thread_local! {
    /// The last finished chunk's tables, emptied: the next chunk on this
    /// thread starts from their capacity instead of growing its own.
    static SPARE: std::cell::Cell<Option<Tables>> = const { std::cell::Cell::new(None) };
}

/// A recorder's cell index, element spans and slots (see [`ShadowRec`]).
type Tables = (HashMap<usize, u32, WordBuild>, Vec<Vec<Span>>, Vec<Slot>);

/// Everything one worker chunk observed, handed back for the merge.
pub struct ShadowChunk {
    events: Vec<Event>,
    log: ShadowLog,
    keep: Vec<Arc<Cell>>,
}

/// The per-execution-context shadow recorder: a scope stack plus, in
/// worker chunks, the event tap standing in for the parallel loop.
///
/// Every recorded cell gets a dense index (its position in `keep`), and
/// each of its elements a [`Span`] of `slots`: one lookup per access
/// serves every active scope, and consecutive elements of an array sit
/// side by side in `spans`.
pub struct ShadowRec {
    scopes: Vec<ShadowScope>,
    /// The active scopes' masked cells, outermost scope first; each scope
    /// masks a handful of cells, so a scan beats a set per scope.
    masks: Vec<Mask>,
    /// Popped scopes' emptied stat lists, reused by later pushes: a loop
    /// invocation allocates nothing.
    free: Vec<ObsList>,
    /// Stamp of the most recently pushed scope (0 marks an unused slot).
    stamp: u64,
    /// Cell address to cell index.
    cells: HashMap<usize, u32, WordBuild>,
    /// The last cell looked up and its index: a run of touches to one
    /// cell skips the table.
    last_cell: (usize, u32),
    /// Per cell index, each element's slots (empty until a scope sees it).
    /// May run longer than `keep`: an emptied chunk table keeps its rows.
    spans: Vec<Vec<Span>>,
    slots: Vec<Slot>,
    tap: Option<EventTap>,
    /// Every recorded cell, by cell index. Keeping them alive means a
    /// freed cell's address is never reused, which would alias distinct
    /// per-invocation locals.
    keep: Vec<Arc<Cell>>,
    log: ShadowLog,
}

impl ShadowRec {
    /// Recorder for the submitting (serial/simulate/main) thread.
    pub fn serial() -> ShadowRec {
        ShadowRec::with_tables(Tables::default(), None)
    }

    /// Recorder for one worker chunk: accesses that fall past every local
    /// scope land in the event tap unless the chunk privatizes them.
    pub fn tapped(excluded: impl IntoIterator<Item = usize>) -> ShadowRec {
        let excluded = excluded.into_iter().collect();
        let tap = EventTap { excluded, iter: 0, events: Vec::new() };
        ShadowRec::with_tables(SPARE.with(|s| s.take()).unwrap_or_default(), Some(tap))
    }

    fn with_tables((cells, spans, slots): Tables, tap: Option<EventTap>) -> ShadowRec {
        ShadowRec {
            scopes: Vec::new(),
            masks: Vec::new(),
            free: Vec::new(),
            stamp: 0,
            cells,
            last_cell: (0, 0),
            spans,
            slots,
            tap,
            keep: Vec::new(),
            log: ShadowLog::default(),
        }
    }

    /// Enter a loop. `excluded` holds the cell addresses the loop
    /// privatizes: the variable + scalar clause cells for a parallel loop,
    /// nothing for a serial one. `true_only` holds section-privatized
    /// *array* cells: invisible outward like `excluded`, but this scope
    /// still records carried flow through them — the observed witness that
    /// an (asserted or forced) array privatization was invalid.
    pub fn push_scope(
        &mut self,
        stmt: StmtId,
        excluded: impl IntoIterator<Item = usize>,
        true_only: impl IntoIterator<Item = usize>,
    ) {
        self.stamp += 1;
        let (depth, masks_from) = (self.scopes.len(), self.masks.len());
        // Flow-only entries first: a cell in both lists is excluded, since
        // the innermost-out scan meets the later entry first.
        let flow_only = true_only.into_iter().map(|ptr| Mask { ptr, depth, flow_only: true });
        let hidden = excluded.into_iter().map(|ptr| Mask { ptr, depth, flow_only: false });
        self.masks.extend(flow_only.chain(hidden));
        let obs = self.free.pop().unwrap_or_default();
        self.scopes.push(ShadowScope { stmt, iter: 0, stamp: self.stamp, masks_from, obs });
    }

    /// Set the innermost loop's current iteration index.
    pub fn set_iter(&mut self, iter: u64) {
        if let Some(top) = self.scopes.last_mut() {
            top.iter = iter;
        }
    }

    /// Set the global iteration index chunk events are stamped with.
    pub fn set_tap_iter(&mut self, iter: u64) {
        if let Some(tap) = self.tap.as_mut() {
            tap.iter = iter;
        }
    }

    /// Leave the innermost loop, folding what it observed into the log.
    /// `resolve` maps the sink access's (unit, symbol) to a variable name.
    /// The fold only sums, takes minima and takes maxima, so the order in
    /// which the scope met its dependences cannot reach the log.
    pub fn pop_scope(
        &mut self,
        unit_name: &str,
        iterations: u64,
        resolve: impl Fn(usize, SymId) -> String,
    ) {
        let Some(mut scope) = self.scopes.pop() else { return };
        self.masks.truncate(scope.masks_from);
        let e = self.log.loops.entry((unit_name.to_string(), scope.stmt)).or_default();
        e.invocations += 1;
        e.iterations += iterations;
        for ((u, s, kind), stat) in scope.obs.drain(..) {
            let key = (resolve(u, s), kind);
            match e.carried.get_mut(&key) {
                Some(cur) => cur.merge(stat),
                None => {
                    e.carried.insert(key, stat);
                }
            }
        }
        self.free.push(scope.obs);
    }

    /// Record one access. Walks active scopes innermost-out, stopping at
    /// the first scope that privatizes the cell; accesses that pass every
    /// scope reach the event tap (worker chunks only).
    pub fn record(&mut self, cell: &Arc<Cell>, elem: usize, write: bool, unit: usize, sym: SymId) {
        let ptr = Arc::as_ptr(cell) as usize;
        let ci = match self.last_cell {
            (last, ci) if last == ptr => ci,
            _ => self.keep_cell(cell),
        };
        if !self.feed(ptr, ci, elem, write, unit, sym) {
            return;
        }
        if let Some(tap) = self.tap.as_mut() {
            if !tap.excluded.contains(&ptr) {
                tap.events.push(Event { ptr, ci, elem, write, iter: tap.iter, unit, sym });
            }
        }
    }

    /// The index of `cell`, kept alive from its first record on.
    fn keep_cell(&mut self, cell: &Arc<Cell>) -> u32 {
        let ptr = Arc::as_ptr(cell) as usize;
        let next = u32::try_from(self.keep.len()).expect("shadow recorder exceeds u32 cells");
        let ci = *self.cells.entry(ptr).or_insert(next);
        if ci == next {
            self.keep.push(cell.clone());
            if self.spans.len() == self.keep.len() - 1 {
                self.spans.push(Vec::new());
            }
        }
        self.last_cell = (ptr, ci);
        ci
    }

    /// Feed every scope the access reaches; false when some scope masks
    /// the cell.
    fn feed(
        &mut self,
        ptr: usize,
        ci: u32,
        elem: usize,
        write: bool,
        unit: usize,
        sym: SymId,
    ) -> bool {
        // Find the outermost scope that observes the access: an excluding
        // scope hides the cell from itself and from every scope enclosing
        // it; a true-only scope observes it (flow only) and hides it from
        // every scope enclosing it.
        let depth = self.scopes.len();
        let (first, flow_only, passes) = match self.masks.iter().rev().find(|m| m.ptr == ptr) {
            None => (0, None, true),
            Some(m) if m.flow_only => (m.depth, Some(m.depth), false),
            Some(m) => (m.depth + 1, None, false),
        };
        if first == depth {
            return passes;
        }
        let at = self.slots_of(ci, elem, depth);
        let scopes = self.scopes[first..].iter_mut();
        let slots = self.slots[at + first..at + depth].iter_mut();
        for (d, (scope, slot)) in (first..).zip(scopes.zip(slots)) {
            if slot.stamp != scope.stamp {
                *slot = Slot { stamp: scope.stamp, ..Slot::EMPTY };
            }
            for (kind, dist) in slot.touch(scope.iter, write).into_iter().flatten() {
                if flow_only != Some(d) || kind == ObsKind::True {
                    scope.note((unit, sym, kind), dist);
                }
            }
        }
        passes
    }

    /// Index of the first of (at least) `depth` slots held by element
    /// `elem` of cell `ci`. An element first seen at a shallower depth
    /// moves to a longer span at the end of `slots`; its old slots go
    /// unused.
    fn slots_of(&mut self, ci: u32, elem: usize, depth: usize) -> usize {
        let row = &mut self.spans[ci as usize];
        if row.len() <= elem {
            row.resize(elem + 1, Span { at: 0, len: 0 });
        }
        let span = &mut row[elem];
        if (span.len as usize) < depth {
            let at = self.slots.len();
            let old = span.at as usize..(span.at + span.len) as usize;
            self.slots.extend_from_within(old);
            self.slots.resize(at + depth, Slot::EMPTY);
            let at = u32::try_from(at).expect("shadow history exceeds u32 slots");
            *span = Span { at, len: depth as u32 };
        }
        span.at as usize
    }

    /// Merge one chunk's observations: replay its event stream through the
    /// live scope stack (the innermost scope is the parallel loop the
    /// chunk belongs to) and fold its inner-loop log. Chunks must be
    /// absorbed in iteration (chunk-start) order.
    pub fn absorb_chunk(&mut self, chunk: ShadowChunk) {
        // The chunk's cell indices, translated to this recorder's.
        let ci: Vec<u32> = chunk.keep.iter().map(|cell| self.keep_cell(cell)).collect();
        for e in &chunk.events {
            self.set_iter(e.iter);
            self.feed(e.ptr, ci[e.ci as usize], e.elem, e.write, e.unit, e.sym);
        }
        self.log.fold(chunk.log);
    }

    /// Finish a worker chunk: hand the raw events + local log to the merge,
    /// and leave the emptied tables to the next chunk on this thread.
    pub fn into_chunk(mut self) -> ShadowChunk {
        self.cells.clear();
        for row in &mut self.spans {
            row.clear();
        }
        self.slots.clear();
        SPARE.with(|s| s.set(Some((self.cells, self.spans, self.slots))));
        ShadowChunk {
            events: self.tap.map(|t| t.events).unwrap_or_default(),
            log: self.log,
            keep: self.keep,
        }
    }

    /// Finish the run.
    pub fn into_log(self) -> ShadowLog {
        self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn sym(n: u32) -> SymId {
        SymId(n)
    }

    fn scoped() -> ShadowRec {
        let mut rec = ShadowRec::serial();
        rec.push_scope(StmtId(1), HashSet::new(), HashSet::new());
        rec
    }

    fn pop(mut rec: ShadowRec, iters: u64) -> LoopObs {
        rec.pop_scope("main", iters, |_, s| format!("v{}", s.0));
        rec.into_log().loops.remove(&("main".to_string(), StmtId(1))).unwrap()
    }

    fn cell() -> Arc<Cell> {
        Cell::scalar(ped_fortran::Ty::Real)
    }

    #[test]
    fn flow_and_output_distances() {
        let c = cell();
        let mut rec = scoped();
        for i in 0..4u64 {
            rec.set_iter(i);
            rec.record(&c, 0, false, 0, sym(7)); // read
            rec.record(&c, 0, true, 0, sym(7)); // write
        }
        let obs = pop(rec, 4);
        let flow = obs.carried[&("v7".to_string(), ObsKind::True)];
        assert_eq!((flow.count, flow.min_dist, flow.max_dist), (3, 1, 1));
        let out = obs.carried[&("v7".to_string(), ObsKind::Output)];
        assert_eq!((out.count, out.min_dist, out.max_dist), (3, 1, 1));
    }

    #[test]
    fn same_iteration_accesses_are_loop_independent() {
        let c = cell();
        let mut rec = scoped();
        rec.set_iter(2);
        rec.record(&c, 0, true, 0, sym(1));
        rec.record(&c, 0, false, 0, sym(1));
        rec.record(&c, 0, true, 0, sym(1));
        let obs = pop(rec, 1);
        assert!(obs.carried.is_empty(), "{:?}", obs.carried);
    }

    #[test]
    fn prev_read_unmasks_carried_anti() {
        // Regression shape: every iteration reads x, one later iteration
        // also writes it. The write at iteration 2 pairs with the read at
        // iteration 1 (anti, distance 1); with only `last_read` the same-
        // iteration read at 2 would hide it.
        let c = cell();
        let mut rec = scoped();
        for i in 0..3u64 {
            rec.set_iter(i);
            rec.record(&c, 0, false, 0, sym(3));
            if i == 2 {
                rec.record(&c, 0, true, 0, sym(3));
            }
        }
        let obs = pop(rec, 3);
        let anti = obs.carried[&("v3".to_string(), ObsKind::Anti)];
        assert_eq!((anti.count, anti.min_dist), (1, 1));
    }

    #[test]
    fn excluded_cells_invisible_to_excluding_scope_and_outward() {
        let private = cell();
        let shared = cell();
        let mut rec = ShadowRec::serial();
        rec.push_scope(StmtId(1), HashSet::new(), HashSet::new()); // outer
        let mut excl = HashSet::new();
        excl.insert(Arc::as_ptr(&private) as usize);
        rec.push_scope(StmtId(2), excl, HashSet::new()); // parallel loop privatizing
        rec.push_scope(StmtId(3), HashSet::new(), HashSet::new()); // inner serial loop
        for i in 0..2u64 {
            // Inner scope sees the private cell (carried there is fine);
            // the privatizing scope and the outer one must not.
            if let Some(s) = rec.scopes.get_mut(2) {
                s.iter = i;
            }
            rec.record(&private, 0, true, 0, sym(5));
            rec.record(&private, 0, false, 0, sym(5));
            rec.record(&shared, 0, true, 0, sym(6));
        }
        rec.pop_scope("main", 2, |_, s| format!("v{}", s.0));
        rec.pop_scope("main", 1, |_, s| format!("v{}", s.0));
        rec.pop_scope("main", 1, |_, s| format!("v{}", s.0));
        let log = rec.into_log();
        // Each iteration writes then reads the private cell: the read is
        // satisfied same-iteration (no carried flow), but the write at
        // iteration 1 pairs with iteration 0's read/write.
        let inner = &log.loops[&("main".to_string(), StmtId(3))];
        assert!(inner.carried.contains_key(&("v5".to_string(), ObsKind::Anti)));
        assert!(inner.carried.contains_key(&("v5".to_string(), ObsKind::Output)));
        let par = &log.loops[&("main".to_string(), StmtId(2))];
        assert!(par.carried.keys().all(|(n, _)| n != "v5"), "{:?}", par.carried);
        // Shared writes at iteration 0 of the parallel scope only (its
        // iter never advanced) — no carried dep, but also no crash.
        let outer = &log.loops[&("main".to_string(), StmtId(1))];
        assert!(outer.carried.keys().all(|(n, _)| n != "v5"));
    }

    #[test]
    fn true_only_cells_record_flow_but_not_anti_output() {
        // A valid array privatization: every iteration writes then reads
        // its cell. Only anti/output are carried — and the true_only set
        // suppresses exactly those while hiding the cell from outer scopes.
        let priv_arr = cell();
        let mut valid = ShadowRec::serial();
        valid.push_scope(StmtId(1), HashSet::new(), HashSet::new()); // outer
        let mut tonly = HashSet::new();
        tonly.insert(Arc::as_ptr(&priv_arr) as usize);
        valid.push_scope(StmtId(2), HashSet::new(), tonly.clone());
        for i in 0..3u64 {
            valid.set_iter(i);
            valid.record(&priv_arr, 0, true, 0, sym(5));
            valid.record(&priv_arr, 0, false, 0, sym(5));
        }
        valid.pop_scope("main", 3, |_, s| format!("v{}", s.0));
        valid.pop_scope("main", 1, |_, s| format!("v{}", s.0));
        let log = valid.into_log();
        let par = &log.loops[&("main".to_string(), StmtId(2))];
        assert!(par.carried.is_empty(), "{:?}", par.carried);
        let outer = &log.loops[&("main".to_string(), StmtId(1))];
        assert!(outer.carried.is_empty(), "{:?}", outer.carried);

        // An INVALID privatization: iteration i reads what i-1 wrote.
        // The carried flow must survive the filter as the race witness.
        let mut forced = ShadowRec::serial();
        forced.push_scope(StmtId(2), HashSet::new(), tonly);
        for i in 0..3u64 {
            forced.set_iter(i);
            forced.record(&priv_arr, 0, false, 0, sym(5)); // read first…
            forced.record(&priv_arr, 0, true, 0, sym(5)); // …then write
        }
        forced.pop_scope("main", 3, |_, s| format!("v{}", s.0));
        let log = forced.into_log();
        let par = &log.loops[&("main".to_string(), StmtId(2))];
        let flow = par.carried[&("v5".to_string(), ObsKind::True)];
        assert_eq!((flow.count, flow.min_dist), (2, 1));
        assert!(
            !par.carried.contains_key(&("v5".to_string(), ObsKind::Anti)),
            "{:?}",
            par.carried
        );
    }

    #[test]
    fn tap_replay_matches_direct_recording() {
        let shared = cell();
        let worker_private = cell();
        // Direct: one scope observing iterations 0..4 of a(0) writes.
        let mut direct = ShadowRec::serial();
        direct.push_scope(StmtId(9), HashSet::new(), HashSet::new());
        for i in 0..4u64 {
            direct.set_iter(i);
            direct.record(&shared, 0, true, 0, sym(2));
        }
        direct.pop_scope("main", 4, |_, s| format!("v{}", s.0));
        // Tapped: two chunks recording the same accesses, replayed.
        let mut main = ShadowRec::serial();
        main.push_scope(StmtId(9), HashSet::new(), HashSet::new());
        let mut excl = HashSet::new();
        excl.insert(Arc::as_ptr(&worker_private) as usize);
        let mut chunks = Vec::new();
        for (start, len) in [(0u64, 2u64), (2, 2)] {
            let mut w = ShadowRec::tapped(excl.clone());
            for i in start..start + len {
                w.set_tap_iter(i);
                w.record(&shared, 0, true, 0, sym(2));
                w.record(&worker_private, 0, true, 0, sym(4));
            }
            chunks.push(w.into_chunk());
        }
        for c in chunks {
            main.absorb_chunk(c);
        }
        main.pop_scope("main", 4, |_, s| format!("v{}", s.0));
        assert_eq!(direct.into_log(), main.into_log());
    }
}
