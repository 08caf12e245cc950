//! The versioned profile report: a plain-data record of one session's
//! instrumentation, convertible to/from JSON (schema-checked) and
//! renderable as the interactive `profile` command's text table.
//!
//! Each flat counter block is declared once with `block!`: its field list
//! yields the struct, the JSON writer and reader, and, for blocks the
//! registry folds run by run, a field-wise `add`. The list-valued sections
//! (`phases`, `dep_tests`, `scheduler`, `units`, `loop_profiles`) and the
//! text rendering are written out by hand.

use crate::json::{self, Json};
use crate::{Phase, TestKind};

/// One scalar of the report: how it is written to JSON and read back.
/// `KIND` names the expected JSON type in a reader's error.
trait Field: Sized {
    const KIND: &'static str;
    fn to_json(&self) -> Json;
    fn from_json(v: &Json) -> Option<Self>;
}

impl Field for u64 {
    const KIND: &'static str = "integer";
    fn to_json(&self) -> Json {
        Json::int(*self)
    }
    fn from_json(v: &Json) -> Option<u64> {
        v.as_u64()
    }
}

impl Field for u32 {
    const KIND: &'static str = "integer";
    fn to_json(&self) -> Json {
        Json::int(u64::from(*self))
    }
    fn from_json(v: &Json) -> Option<u32> {
        v.as_u64().map(|n| n as u32)
    }
}

impl Field for f64 {
    const KIND: &'static str = "number";
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
    fn from_json(v: &Json) -> Option<f64> {
        v.as_f64()
    }
}

impl Field for String {
    const KIND: &'static str = "string";
    fn to_json(&self) -> Json {
        Json::str(self)
    }
    fn from_json(v: &Json) -> Option<String> {
        v.as_str().map(str::to_string)
    }
}

impl Field for bool {
    const KIND: &'static str = "bool";
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
    fn from_json(v: &Json) -> Option<bool> {
        v.as_bool()
    }
}

/// Read `key` of `obj`, failing with a message that names the key.
fn field<T: Field>(obj: &Json, key: &str) -> Result<T, String> {
    obj.get(key)
        .and_then(T::from_json)
        .ok_or_else(|| format!("missing or non-{} field '{key}'", T::KIND))
}

/// Read the array `key` of `obj`, one `row` call per element.
fn rows<T>(
    obj: &Json,
    key: &str,
    row: impl FnMut(&Json) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    obj.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing or non-array field '{key}'"))?
        .iter()
        .map(row)
        .collect()
}

/// Declare a flat counter block: the struct plus its JSON writer and
/// reader, whose keys are the field names in declaration order. A leading
/// `fold` also defines `add`, the field-wise sum the registry uses to
/// accumulate one run's counters into the session's.
macro_rules! block {
    (fold $(#[$meta:meta])* pub struct $name:ident {
        $($(#[$fmeta:meta])* pub $field:ident: $ty:ty,)*
    }) => {
        block! { $(#[$meta])* pub struct $name { $($(#[$fmeta])* pub $field: $ty,)* } }

        impl $name {
            /// Add `other` into `self`, field by field.
            pub(crate) fn add(&mut self, other: &$name) {
                $(self.$field += other.$field;)*
            }
        }
    };
    ($(#[$meta:meta])* pub struct $name:ident {
        $($(#[$fmeta:meta])* pub $field:ident: $ty:ty,)*
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)*
        }

        impl $name {
            /// This block as its JSON object.
            pub fn to_json(&self) -> Json {
                Json::obj(vec![$((stringify!($field), self.$field.to_json()),)*])
            }

            /// Read the block back from its JSON object.
            pub(crate) fn from_json(v: &Json) -> Result<$name, String> {
                Ok($name { $($field: field(v, stringify!($field))?,)* })
            }
        }
    };
}

block! {
    fold
    /// Shadow-runtime validation counters. All zero in sessions that never
    /// ran `check`.
    pub struct ValidationSummary {
        /// Checked runs performed.
        pub checks: u64,
        /// Loops whose observations were cross-checked against a graph.
        pub loops_checked: u64,
        /// Soundness violations found (observed carried dependences on
        /// parallel loops the static story does not license).
        pub races: u64,
        /// Observed carried (variable, kind) dependences across all loops.
        pub observed_deps: u64,
        /// Active static carried edges never observed on any tested input
        /// (the conservatism count).
        pub static_unobserved: u64,
        /// User-deleted edges no tested input ever contradicted.
        pub validated_deletions: u64,
    }
}

block! {
    fold
    /// Bounded regular-section analysis counters. All zero in sessions that
    /// never built a dependence graph.
    pub struct SectionsReport {
        /// Arrays classified by the section walk across all graph builds.
        pub arrays_classified: u64,
        /// Arrays whose exposed-read section was ⊥ (fully killed before use).
        pub exposed_bottom: u64,
        /// Arrays proven privatizable (killed, not live after the loop).
        pub privatizable: u64,
    }
}

block! {
    /// Campaign-mode throughput counters. All zero in sessions that never
    /// ran `--campaign`. Like [`ServeReport`], the registry knows nothing
    /// about campaigns; the campaign engine fills this in from its own
    /// counters before emitting.
    pub struct CampaignReport {
        /// Seeds pushed through the full pipeline.
        pub seeds: u64,
        /// Loops converted to `PARALLEL DO` across all seeds.
        pub loops_parallelized: u64,
        /// Discrepancies found (race verdicts, bit divergence, panics).
        pub discrepancies: u64,
        /// Minimized reproducers written to disk.
        pub reproducers: u64,
        /// Wall-clock nanoseconds summed across workers, per pipeline stage.
        pub generate_ns: u64,
        /// Parse + whole-program analysis stage, summed worker nanoseconds.
        pub analyze_ns: u64,
        /// Autopar (transform application) stage, summed worker nanoseconds.
        pub autopar_ns: u64,
        /// Shadow `--check` stage, summed worker nanoseconds.
        pub check_ns: u64,
        /// Cross-engine/mode bit-equality stage, summed worker nanoseconds.
        pub equivalence_ns: u64,
    }
}

block! {
    /// Autopilot planner counters. All zero in sessions that never ran the
    /// planner. The search counts straight into this block; the autopilot
    /// driver adds the calibration ratios before emitting.
    pub struct AutopilotReport {
        /// Candidate plans enumerated across all nests.
        pub candidates: u64,
        /// Candidates pruned by the dependence machinery (unsafe or
        /// inapplicable).
        pub pruned_unsafe: u64,
        /// Candidates that survived safety but scored below the
        /// profitability floor.
        pub pruned_unprofitable: u64,
        /// Winning plans applied and kept.
        pub plans_applied: u64,
        /// Winning plans rolled back after failing execution verification.
        pub plans_rejected: u64,
        /// Worst predicted-vs-measured speedup ratio before calibration
        /// (0 when nothing was measured: only the E18 bench measures).
        pub calibration_before: f64,
        /// Worst ratio after the learned correction (0 when nothing was
        /// measured; never exceeds `calibration_before`).
        pub calibration_after: f64,
    }
}

block! {
    /// Cache and reuse counters.
    pub struct CacheReport {
        /// Subscript-pair cache hits.
        pub pair_hits: u64,
        /// Subscript-pair cache misses.
        pub pair_misses: u64,
        /// Dependence graphs built from scratch this session.
        pub graphs_built: u64,
        /// Graph requests served from the fingerprint-validated cache.
        pub graphs_reused: u64,
    }
}

block! {
    /// Counters of the loop-granular incremental engine.
    pub struct IncrementalReport {
        /// Cached graphs that survived an edit in place because their loop,
        /// context, and visible fingerprints were unchanged.
        pub graphs_retained: u64,
        /// Graphs brought back from the retired store by fingerprint match
        /// (the near-free undo/redo path).
        pub graphs_resurrected: u64,
        /// Whole-program interprocedural recomputations performed.
        pub ip_recomputes: u64,
        /// Edits absorbed by the summary-preserving fast path instead of a
        /// whole-program recompute.
        pub ip_recomputes_skipped: u64,
        /// Entries currently on the undo stack.
        pub undo_entries: u64,
        /// Entries currently on the redo stack.
        pub redo_entries: u64,
        /// Approximate bytes held by the delta journal (undo + redo).
        pub journal_bytes: u64,
        /// Approximate bytes the same history would cost as full program
        /// snapshots — `journal_bytes / snapshot_bytes` is the journal's
        /// memory saving.
        pub snapshot_bytes: u64,
    }
}

block! {
    /// Daemon-mode request counters. All zero in sessions never served by a
    /// `ped serve` daemon, which fills this in from its own counters.
    pub struct ServeReport {
        /// Requests handled (well-formed or not).
        pub requests: u64,
        /// Requests answered with a structured error.
        pub errors: u64,
        /// Sessions opened over the daemon's lifetime.
        pub sessions_opened: u64,
        /// Sessions closed (explicitly or by client disconnect).
        pub sessions_closed: u64,
        /// Opens that adopted at least one graph from the persistent store.
        pub warm_opens: u64,
        /// Graphs adopted from the persistent store across all opens.
        pub graphs_loaded: u64,
        /// Graphs written to the persistent store across all closes.
        pub graphs_persisted: u64,
        /// Wall-clock nanoseconds spent handling requests, summed.
        pub total_request_ns: u64,
        /// Slowest single request, nanoseconds.
        pub max_request_ns: u64,
    }
}

/// Version stamped into every emitted report. Parsing accepts this version
/// only, and requires every section and the `engine` field.
pub const PROFILE_SCHEMA_VERSION: u64 = 9;

/// Wall-clock total and call count for one pipeline phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStat {
    /// Stable phase name (see [`Phase::name`]).
    pub name: String,
    /// Timed invocations.
    pub calls: u64,
    /// Accumulated nanoseconds.
    pub ns: u64,
}

/// Decision histogram row for one dependence test.
#[derive(Debug, Clone, PartialEq)]
pub struct DepTestStat {
    /// Stable test name (see [`TestKind::name`]).
    pub test: String,
    /// Pairs this test proved independent.
    pub independent: u64,
    /// Pairs this test proved dependent.
    pub proven: u64,
    /// Pairs left conservatively assumed.
    pub pending: u64,
    /// Graph edges this test (or cause) justified, post-dedup.
    pub edges: u64,
}

/// Parallel-runtime scheduler counters. All zero in sessions that never
/// ran threaded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchedulerReport {
    /// `PARALLEL DO` invocations dispatched to the worker pool.
    pub parallel_loops: u64,
    /// Chunks executed across all loops and workers.
    pub chunks_executed: u64,
    /// Chunks served by work stealing.
    pub chunks_stolen: u64,
    /// Iterations executed per worker (index = worker id).
    pub worker_iterations: Vec<u64>,
}

impl SchedulerReport {
    /// Max-over-mean of per-worker iteration counts: 1.0 is a perfect
    /// balance. Derived, so it is written to JSON for readers but
    /// recomputed (never trusted) on parse.
    pub fn imbalance_ratio(&self) -> f64 {
        let n = self.worker_iterations.len();
        let total: u64 = self.worker_iterations.iter().sum();
        if n == 0 || total == 0 {
            return 1.0;
        }
        let max = *self.worker_iterations.iter().max().unwrap() as f64;
        max / (total as f64 / n as f64)
    }

    /// Add one run's counters into `self`; per-worker rows add by worker
    /// id.
    pub(crate) fn add(&mut self, run: &SchedulerReport) {
        self.parallel_loops += run.parallel_loops;
        self.chunks_executed += run.chunks_executed;
        self.chunks_stolen += run.chunks_stolen;
        if self.worker_iterations.len() < run.worker_iterations.len() {
            self.worker_iterations.resize(run.worker_iterations.len(), 0);
        }
        for (a, b) in self.worker_iterations.iter_mut().zip(&run.worker_iterations) {
            *a += b;
        }
    }
}

/// Per-unit analysis timing.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitStat {
    /// Program-unit name.
    pub unit: String,
    /// Dependence graphs built for this unit.
    pub graphs: u64,
    /// Nanoseconds spent building them.
    pub ns: u64,
}

/// One profiled loop, summed over the session's runs.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopProfileStat {
    /// Program-unit name.
    pub unit: String,
    /// DO-statement id.
    pub stmt: u32,
    /// Times the loop was entered.
    pub invocations: u64,
    /// Total iterations executed.
    pub iterations: u64,
    /// Virtual ops spent inside.
    pub ops: f64,
}

/// The complete session profile.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Which execution engine ran the session's programs: `"bytecode"`
    /// (the lowered register machine, the default) or `"tree"` (the
    /// AST-walking oracle).
    pub engine: String,
    /// Whether instrumentation was on when the report was taken.
    pub enabled: bool,
    /// Per-phase wall-clock totals, in pipeline order.
    pub phases: Vec<PhaseStat>,
    /// Per-test decision histogram, in hierarchy order.
    pub dep_tests: Vec<DepTestStat>,
    /// Cache and reuse counters.
    pub cache: CacheReport,
    /// Incremental-engine counters.
    pub incremental: IncrementalReport,
    /// Parallel-runtime scheduler counters.
    pub scheduler: SchedulerReport,
    /// Shadow-runtime validation counters.
    pub validation: ValidationSummary,
    /// Daemon-mode request counters (filled by `ped serve`, zero for
    /// single-process sessions).
    pub serve: ServeReport,
    /// Regular-section analysis counters.
    pub sections: SectionsReport,
    /// Campaign-mode throughput counters (filled by `ped --campaign`, zero
    /// otherwise).
    pub campaign: CampaignReport,
    /// Autopilot planner counters (filled by `ped --autopilot`, zero
    /// otherwise).
    pub autopilot: AutopilotReport,
    /// Per-unit graph-build timings, sorted by unit.
    pub units: Vec<UnitStat>,
    /// Loop profiles from runs, one row per loop, sorted by unit and
    /// statement.
    pub loop_profiles: Vec<LoopProfileStat>,
}

impl ProfileReport {
    /// An all-zero report (what a disabled session produces).
    pub fn empty() -> ProfileReport {
        ProfileReport {
            engine: "bytecode".to_string(),
            enabled: false,
            phases: Vec::new(),
            dep_tests: Vec::new(),
            cache: CacheReport::default(),
            incremental: IncrementalReport::default(),
            scheduler: SchedulerReport::default(),
            validation: ValidationSummary::default(),
            serve: ServeReport::default(),
            sections: SectionsReport::default(),
            campaign: CampaignReport::default(),
            autopilot: AutopilotReport::default(),
            units: Vec::new(),
            loop_profiles: Vec::new(),
        }
    }

    /// Total dependence edges across the histogram (equals the analyzed
    /// graphs' combined edge counts).
    pub fn total_edges(&self) -> u64 {
        self.dep_tests.iter().map(|t| t.edges).sum()
    }

    /// Total subscript-pair decisions recorded.
    pub fn total_pairs(&self) -> u64 {
        self.dep_tests.iter().map(|t| t.independent + t.proven + t.pending).sum()
    }

    /// Serialize to the versioned JSON form.
    pub fn to_json(&self) -> Json {
        let sched = &self.scheduler;
        Json::obj(vec![
            ("schema_version", PROFILE_SCHEMA_VERSION.to_json()),
            ("tool", Json::str("ped")),
            ("engine", self.engine.to_json()),
            ("enabled", self.enabled.to_json()),
            (
                "phases",
                Json::Arr(
                    self.phases
                        .iter()
                        .map(|p| {
                            Json::obj(vec![
                                ("name", p.name.to_json()),
                                ("calls", p.calls.to_json()),
                                ("ns", p.ns.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "dep_tests",
                Json::Arr(
                    self.dep_tests
                        .iter()
                        .map(|t| {
                            Json::obj(vec![
                                ("test", t.test.to_json()),
                                ("independent", t.independent.to_json()),
                                ("proven", t.proven.to_json()),
                                ("pending", t.pending.to_json()),
                                ("edges", t.edges.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("cache", self.cache.to_json()),
            ("incremental", self.incremental.to_json()),
            (
                "scheduler",
                Json::obj(vec![
                    ("parallel_loops", sched.parallel_loops.to_json()),
                    ("chunks_executed", sched.chunks_executed.to_json()),
                    ("chunks_stolen", sched.chunks_stolen.to_json()),
                    (
                        "worker_iterations",
                        Json::Arr(sched.worker_iterations.iter().map(Field::to_json).collect()),
                    ),
                    // Derived convenience value for readers; recomputed
                    // (never trusted) on parse.
                    ("imbalance_ratio", sched.imbalance_ratio().to_json()),
                ]),
            ),
            ("validation", self.validation.to_json()),
            ("serve", self.serve.to_json()),
            ("sections", self.sections.to_json()),
            ("campaign", self.campaign.to_json()),
            ("autopilot", self.autopilot.to_json()),
            (
                "units",
                Json::Arr(
                    self.units
                        .iter()
                        .map(|u| {
                            Json::obj(vec![
                                ("unit", u.unit.to_json()),
                                ("graphs", u.graphs.to_json()),
                                ("ns", u.ns.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "loop_profiles",
                Json::Arr(
                    self.loop_profiles
                        .iter()
                        .map(|l| {
                            Json::obj(vec![
                                ("unit", l.unit.to_json()),
                                ("stmt", l.stmt.to_json()),
                                ("invocations", l.invocations.to_json()),
                                ("iterations", l.iterations.to_json()),
                                ("ops", l.ops.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parse a report back from JSON text, validating the schema version.
    pub fn from_json_str(text: &str) -> Result<ProfileReport, String> {
        let v = json::parse(text).map_err(|e| e.to_string())?;
        ProfileReport::from_json(&v)
    }

    /// Parse a report back from a JSON value, validating the schema version.
    pub fn from_json(v: &Json) -> Result<ProfileReport, String> {
        let schema_version: u64 = field(v, "schema_version")?;
        if schema_version != PROFILE_SCHEMA_VERSION {
            return Err(format!(
                "unsupported profile schema version {schema_version} \
                 (expected {PROFILE_SCHEMA_VERSION})"
            ));
        }
        let engine: String = field(v, "engine")?;
        if !matches!(engine.as_str(), "tree" | "bytecode") {
            return Err(format!("unknown engine '{engine}'"));
        }
        let block = |key: &str| v.get(key).ok_or_else(|| format!("missing field '{key}'"));
        // Fields are read in document order, so the first problem in the
        // document is the one reported.
        Ok(ProfileReport {
            engine,
            enabled: field(v, "enabled")?,
            phases: rows(v, "phases", |p| {
                let name: String = field(p, "name")?;
                if !Phase::ALL.iter().any(|ph| ph.name() == name) {
                    return Err(format!("unknown phase '{name}'"));
                }
                Ok(PhaseStat { name, calls: field(p, "calls")?, ns: field(p, "ns")? })
            })?,
            dep_tests: rows(v, "dep_tests", |t| {
                let test: String = field(t, "test")?;
                if !TestKind::ALL.iter().any(|k| k.name() == test) {
                    return Err(format!("unknown dependence test '{test}'"));
                }
                Ok(DepTestStat {
                    test,
                    independent: field(t, "independent")?,
                    proven: field(t, "proven")?,
                    pending: field(t, "pending")?,
                    edges: field(t, "edges")?,
                })
            })?,
            cache: CacheReport::from_json(block("cache")?)?,
            incremental: IncrementalReport::from_json(block("incremental")?)?,
            // The emitted `imbalance_ratio` is derived, so it is ignored
            // here and recomputed on demand.
            scheduler: {
                let s = block("scheduler")?;
                SchedulerReport {
                    parallel_loops: field(s, "parallel_loops")?,
                    chunks_executed: field(s, "chunks_executed")?,
                    chunks_stolen: field(s, "chunks_stolen")?,
                    worker_iterations: rows(s, "worker_iterations", |w| {
                        w.as_u64().ok_or_else(|| "non-integer entry in 'worker_iterations'".into())
                    })?,
                }
            },
            validation: ValidationSummary::from_json(block("validation")?)?,
            serve: ServeReport::from_json(block("serve")?)?,
            sections: SectionsReport::from_json(block("sections")?)?,
            campaign: CampaignReport::from_json(block("campaign")?)?,
            autopilot: AutopilotReport::from_json(block("autopilot")?)?,
            units: rows(v, "units", |u| {
                Ok(UnitStat {
                    unit: field(u, "unit")?,
                    graphs: field(u, "graphs")?,
                    ns: field(u, "ns")?,
                })
            })?,
            loop_profiles: rows(v, "loop_profiles", |l| {
                Ok(LoopProfileStat {
                    unit: field(l, "unit")?,
                    stmt: field(l, "stmt")?,
                    invocations: field(l, "invocations")?,
                    iterations: field(l, "iterations")?,
                    ops: field(l, "ops")?,
                })
            })?,
        })
    }

    /// Human-readable rendering for the interactive `profile` command.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if !self.enabled {
            out.push_str("profiling is off (use `profile on` or start with --profile)\n");
        }
        out.push_str(&format!("engine: {}\n", self.engine));
        out.push_str("phase timings:\n");
        if self.phases.is_empty() {
            out.push_str("  (none recorded)\n");
        }
        for p in &self.phases {
            out.push_str(&format!(
                "  {:<16} {:>6} calls  {:>12}\n",
                p.name,
                p.calls,
                fmt_ns(p.ns)
            ));
        }
        out.push_str("dependence tests (pairs: indep/proven/assumed; edges):\n");
        if self.dep_tests.is_empty() {
            out.push_str("  (none recorded)\n");
        }
        for t in &self.dep_tests {
            out.push_str(&format!(
                "  {:<18} {:>6} / {:<6} / {:<6}  edges {:>5}\n",
                t.test, t.independent, t.proven, t.pending, t.edges
            ));
        }
        let cache = &self.cache;
        out.push_str(&format!(
            "pair cache: {} hits / {} misses ({:.1}% hit rate)\n",
            cache.pair_hits,
            cache.pair_misses,
            percent(cache.pair_hits, cache.pair_hits + cache.pair_misses)
        ));
        out.push_str(&format!(
            "graphs: {} built, {} reused from cache ({:.1}% reuse)\n",
            cache.graphs_built,
            cache.graphs_reused,
            percent(cache.graphs_reused, cache.graphs_built + cache.graphs_reused)
        ));
        let inc = &self.incremental;
        if *inc != IncrementalReport::default() {
            out.push_str(&format!(
                "incremental: {} graphs retained, {} resurrected; \
                 ip recomputes {} done / {} skipped\n",
                inc.graphs_retained,
                inc.graphs_resurrected,
                inc.ip_recomputes,
                inc.ip_recomputes_skipped
            ));
            out.push_str(&format!(
                "journal: {} undo / {} redo entries, {} bytes (full snapshots: {} bytes)\n",
                inc.undo_entries, inc.redo_entries, inc.journal_bytes, inc.snapshot_bytes
            ));
        }
        let sched = &self.scheduler;
        if *sched != SchedulerReport::default() {
            out.push_str(&format!(
                "scheduler: {} parallel loops, {} chunks ({} stolen), \
                 imbalance {:.2}\n",
                sched.parallel_loops,
                sched.chunks_executed,
                sched.chunks_stolen,
                sched.imbalance_ratio()
            ));
        }
        let val = &self.validation;
        if *val != ValidationSummary::default() {
            out.push_str(&format!(
                "validation: {} checked runs, {} loops; {} races, \
                 {} observed deps, {} static edges unobserved, {} deletions validated\n",
                val.checks,
                val.loops_checked,
                val.races,
                val.observed_deps,
                val.static_unobserved,
                val.validated_deletions
            ));
        }
        let sec = &self.sections;
        if *sec != SectionsReport::default() {
            out.push_str(&format!(
                "sections: {} arrays classified, {} fully killed, {} privatizable\n",
                sec.arrays_classified, sec.exposed_bottom, sec.privatizable
            ));
        }
        let srv = &self.serve;
        if *srv != ServeReport::default() {
            out.push_str(&format!(
                "serve: {} requests ({} errors), {} sessions opened / {} closed; \
                 {} warm opens loaded {} graphs, {} persisted; \
                 request time {} total, {} max\n",
                srv.requests,
                srv.errors,
                srv.sessions_opened,
                srv.sessions_closed,
                srv.warm_opens,
                srv.graphs_loaded,
                srv.graphs_persisted,
                fmt_ns(srv.total_request_ns),
                fmt_ns(srv.max_request_ns)
            ));
        }
        let camp = &self.campaign;
        if *camp != CampaignReport::default() {
            out.push_str(&format!(
                "campaign: {} seeds, {} loops parallelized, {} discrepancies \
                 ({} reproducers); stages gen {} / analyze {} / autopar {} / \
                 check {} / equiv {}\n",
                camp.seeds,
                camp.loops_parallelized,
                camp.discrepancies,
                camp.reproducers,
                fmt_ns(camp.generate_ns),
                fmt_ns(camp.analyze_ns),
                fmt_ns(camp.autopar_ns),
                fmt_ns(camp.check_ns),
                fmt_ns(camp.equivalence_ns)
            ));
        }
        let ap = &self.autopilot;
        if *ap != AutopilotReport::default() {
            out.push_str(&format!(
                "autopilot: {} candidates ({} unsafe, {} unprofitable pruned), \
                 {} plans applied / {} rejected; calibration {:.2} -> {:.2}\n",
                ap.candidates,
                ap.pruned_unsafe,
                ap.pruned_unprofitable,
                ap.plans_applied,
                ap.plans_rejected,
                ap.calibration_before,
                ap.calibration_after
            ));
        }
        if !self.units.is_empty() {
            out.push_str("per-unit analysis:\n");
            for u in &self.units {
                out.push_str(&format!(
                    "  {:<16} {:>4} graphs  {:>12}\n",
                    u.unit,
                    u.graphs,
                    fmt_ns(u.ns)
                ));
            }
        }
        if !self.loop_profiles.is_empty() {
            out.push_str("loop profiles (from runs):\n");
            for l in &self.loop_profiles {
                out.push_str(&format!(
                    "  {:<12} stmt {:<5} {:>6} invocations  {:>9} iters  {:>12.0} ops\n",
                    l.unit, l.stmt, l.invocations, l.iterations, l.ops
                ));
            }
        }
        out
    }
}

/// `part` as a percentage of `total`; 0 when `total` is 0.
fn percent(part: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        part as f64 / total as f64 * 100.0
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Obs, PairVerdict, Phase, TestKind};

    /// A report with every section populated, recorded through the
    /// registry where the registry owns the block.
    fn sample_report() -> ProfileReport {
        let obs = Obs::new();
        obs.set_enabled(true);
        obs.add_phase_ns(Phase::Parse, 1_500);
        obs.add_phase_ns(Phase::DepTest, 42_000);
        obs.record_pair(TestKind::Ziv, PairVerdict::Independent);
        obs.record_pair(TestKind::StrongSiv, PairVerdict::Proven);
        obs.record_edge(TestKind::StrongSiv);
        obs.record_edge(TestKind::Scalar);
        obs.record_unit("main", 9_000);
        // Two runs of the same loop fold into one row.
        for _ in 0..2 {
            obs.record_loop(LoopProfileStat {
                unit: "main".into(),
                stmt: 3,
                invocations: 1,
                iterations: 10,
                ops: 61.75,
            });
        }
        obs.record_sched(&SchedulerReport {
            parallel_loops: 3,
            chunks_executed: 24,
            chunks_stolen: 5,
            worker_iterations: vec![40, 60, 50, 50],
        });
        obs.record_validation(&ValidationSummary {
            checks: 1,
            loops_checked: 6,
            races: 1,
            observed_deps: 11,
            static_unobserved: 2,
            validated_deletions: 3,
        });
        obs.record_sections(&SectionsReport {
            arrays_classified: 2,
            exposed_bottom: 1,
            privatizable: 1,
        });
        let mut r = obs.report();
        r.cache = CacheReport { pair_hits: 5, pair_misses: 3, graphs_built: 2, graphs_reused: 1 };
        r.incremental = IncrementalReport {
            graphs_retained: 7,
            graphs_resurrected: 2,
            ip_recomputes: 3,
            ip_recomputes_skipped: 4,
            undo_entries: 2,
            redo_entries: 1,
            journal_bytes: 640,
            snapshot_bytes: 9_000,
        };
        r.serve = ServeReport {
            requests: 12,
            errors: 1,
            sessions_opened: 3,
            sessions_closed: 2,
            warm_opens: 1,
            graphs_loaded: 4,
            graphs_persisted: 5,
            total_request_ns: 87_000,
            max_request_ns: 30_000,
        };
        r.campaign = CampaignReport {
            seeds: 200,
            loops_parallelized: 410,
            discrepancies: 1,
            reproducers: 1,
            generate_ns: 5_000,
            analyze_ns: 90_000,
            autopar_ns: 15_000,
            check_ns: 70_000,
            equivalence_ns: 120_000,
        };
        r.autopilot = AutopilotReport {
            candidates: 18,
            pruned_unsafe: 5,
            pruned_unprofitable: 4,
            plans_applied: 3,
            plans_rejected: 1,
            calibration_before: 2.5,
            calibration_after: 1.25,
        };
        r
    }

    /// The emitted JSON and the `profile` text are pinned byte for byte.
    #[test]
    fn json_and_text_match_golden_files() {
        let r = sample_report();
        assert_eq!(r.to_json().to_string_pretty(), include_str!("../golden/sample_report.json"));
        assert_eq!(r.render_text(), include_str!("../golden/sample_report.txt"));
    }

    #[test]
    fn json_round_trip_is_exact() {
        let r = sample_report();
        for text in [r.to_json().to_string_pretty(), r.to_json().to_string_compact()] {
            let back = ProfileReport::from_json_str(&text).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn rejects_wrong_schema_version() {
        let text = sample_report().to_json().to_string_compact();
        // Older stamps are rejected even on an otherwise complete report.
        for version in (1..PROFILE_SCHEMA_VERSION).chain([999]) {
            let stamped = text.replacen(
                &format!("\"schema_version\":{PROFILE_SCHEMA_VERSION}"),
                &format!("\"schema_version\":{version}"),
                1,
            );
            let err = ProfileReport::from_json_str(&stamped).unwrap_err();
            assert!(err.contains("schema version"), "v{version}: {err}");
        }
    }

    /// Drops the top-level `key` from the sample report and asserts the
    /// rejection names it.
    fn assert_requires(key: &str) {
        let Json::Obj(doc) = sample_report().to_json() else { unreachable!() };
        assert!(doc.iter().any(|(k, _)| k == key), "no top-level '{key}'");
        let without = Json::Obj(doc.iter().filter(|(k, _)| k != key).cloned().collect());
        let err = ProfileReport::from_json(&without).unwrap_err();
        assert!(err.contains(&format!("'{key}'")), "without {key}: {err}");
    }

    /// Every top-level key but the informational `tool` is required.
    #[test]
    fn report_requires_every_section() {
        let Json::Obj(doc) = sample_report().to_json() else { unreachable!() };
        let keys: Vec<&String> = doc.iter().map(|(k, _)| k).filter(|k| *k != "tool").collect();
        for key in &keys {
            assert_requires(key);
        }
        assert_eq!(keys.len(), 15, "schema_version, engine, enabled and 12 sections");
    }

    #[test]
    fn v2_report_requires_incremental_section() {
        assert_requires("incremental");
    }

    #[test]
    fn v3_report_requires_scheduler_section() {
        assert_requires("scheduler");
    }

    #[test]
    fn v4_report_requires_validation_section() {
        assert_requires("validation");
    }

    #[test]
    fn v5_report_requires_engine_field() {
        assert_requires("engine");
    }

    #[test]
    fn v6_report_requires_serve_section() {
        assert_requires("serve");
    }

    #[test]
    fn v7_report_requires_sections_section() {
        assert_requires("sections");
    }

    #[test]
    fn v8_report_requires_campaign_section() {
        assert_requires("campaign");
    }

    #[test]
    fn v9_report_requires_autopilot_section() {
        assert_requires("autopilot");
    }

    #[test]
    fn rejects_unknown_engine() {
        let r = sample_report();
        let v = r.to_json().to_string_compact().replacen("\"bytecode\"", "\"quantum\"", 1);
        let err = ProfileReport::from_json_str(&v).unwrap_err();
        assert!(err.contains("unknown engine"), "{err}");
    }

    #[test]
    fn imbalance_ratio_is_recomputed_not_trusted() {
        let r = sample_report();
        let forged = r
            .to_json()
            .to_string_compact()
            .replacen("\"imbalance_ratio\":", "\"imbalance_ratio\":99.0,\"x\":", 1);
        let back = ProfileReport::from_json_str(&forged).unwrap();
        assert!((back.scheduler.imbalance_ratio() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn rejects_unknown_names() {
        let r = sample_report();
        let text = r.to_json().to_string_compact().replace("strong_siv", "bogus_test");
        assert!(ProfileReport::from_json_str(&text).is_err());
    }

    #[test]
    fn empty_report_from_disabled_registry() {
        let obs = Obs::new();
        obs.record_pair(TestKind::Ziv, PairVerdict::Proven);
        let r = obs.report();
        assert_eq!(r, ProfileReport::empty());
        assert_eq!(r.total_edges(), 0);
        assert_eq!(r.total_pairs(), 0);
    }

    #[test]
    fn rates_and_totals() {
        let r = sample_report();
        assert_eq!(r.total_pairs(), 2);
        assert_eq!(r.total_edges(), 2);
        assert_eq!(percent(5, 8), 62.5);
        assert_eq!(percent(0, 0), 0.0);
        let text = r.render_text();
        assert!(text.contains("(62.5% hit rate)") && text.contains("(33.3% reuse)"), "{text}");
    }
}
