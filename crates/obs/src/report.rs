//! The versioned profile report: a plain-data snapshot of one session's
//! instrumentation, convertible to/from JSON (schema-checked) and
//! renderable as the interactive `profile` command's text table.

use crate::json::{self, Json};
use crate::{ObsSnapshot, Phase, TestKind};

/// Shadow-runtime validation counters. All zero in sessions that never
/// ran `check`.
#[derive(Debug, Clone, Default, PartialEq)]
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
    /// Active static carried edges never observed on any tested input.
    pub static_unobserved: u64,
    /// User-deleted edges no tested input ever contradicted.
    pub validated_deletions: u64,
}

/// Bounded regular-section analysis counters. All zero in sessions that
/// never built a dependence graph.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SectionsReport {
    /// Arrays classified by the section walk across all graph builds.
    pub arrays_classified: u64,
    /// Arrays whose exposed-read section was ⊥ (fully killed before use).
    pub exposed_bottom: u64,
    /// Arrays proven privatizable (killed, not live after the loop).
    pub privatizable: u64,
}

/// Campaign-mode throughput counters. All zero in sessions that never ran
/// `--campaign`. Like [`ServeReport`], the registry knows nothing about
/// campaigns; the campaign engine fills this in from its own counters
/// before emitting.
#[derive(Debug, Clone, Default, PartialEq)]
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

/// Autopilot planner counters. All zero in sessions that never ran the
/// planner. Like [`CampaignReport`], the registry knows nothing about the
/// planner; the autopilot driver fills this in from its search outcome
/// before emitting.
#[derive(Debug, Clone, Default, PartialEq)]
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
    /// (1.0 when nothing was measured).
    pub calibration_before: f64,
    /// Worst ratio after the learned correction (1.0 when nothing was
    /// measured; never exceeds `calibration_before`).
    pub calibration_after: f64,
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

/// Cache and reuse counters.
#[derive(Debug, Clone, Default, PartialEq)]
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

impl CacheReport {
    /// Pair-cache hit rate in [0, 1]; 0 when nothing was looked up.
    pub fn pair_hit_rate(&self) -> f64 {
        let total = self.pair_hits + self.pair_misses;
        if total == 0 {
            0.0
        } else {
            self.pair_hits as f64 / total as f64
        }
    }

    /// Graph reuse rate in [0, 1]; 0 when nothing was requested.
    pub fn graph_reuse_rate(&self) -> f64 {
        let total = self.graphs_built + self.graphs_reused;
        if total == 0 {
            0.0
        } else {
            self.graphs_reused as f64 / total as f64
        }
    }
}

/// Counters of the loop-granular incremental engine.
#[derive(Debug, Clone, Default, PartialEq)]
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
}

/// Daemon-mode request counters. All zero in sessions never served by a
/// `ped serve` daemon.
#[derive(Debug, Clone, Default, PartialEq)]
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

/// One profiled loop from a program run.
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
    /// Whether instrumentation was on when the snapshot was taken.
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
    /// Per-unit graph-build timings.
    pub units: Vec<UnitStat>,
    /// Loop profiles from runs, if any.
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

    /// Assemble a report from a registry snapshot plus the session-level
    /// cache and incremental-engine counters (which live outside the
    /// registry). Scheduler counters come from the snapshot itself.
    pub fn from_snapshot(
        snap: &ObsSnapshot,
        cache: CacheReport,
        incremental: IncrementalReport,
    ) -> ProfileReport {
        let phases = Phase::ALL
            .iter()
            .zip(&snap.phases)
            .filter(|(_, &(ns, calls))| ns > 0 || calls > 0)
            .map(|(p, &(ns, calls))| PhaseStat { name: p.name().to_string(), calls, ns })
            .collect();
        let dep_tests = TestKind::ALL
            .iter()
            .enumerate()
            .filter(|&(i, _)| {
                snap.pairs[i].iter().any(|&c| c > 0) || snap.edges[i] > 0
            })
            .map(|(i, k)| DepTestStat {
                test: k.name().to_string(),
                independent: snap.pairs[i][0],
                proven: snap.pairs[i][1],
                pending: snap.pairs[i][2],
                edges: snap.edges[i],
            })
            .collect();
        ProfileReport {
            engine: "bytecode".to_string(),
            enabled: snap.enabled,
            phases,
            dep_tests,
            cache,
            incremental,
            scheduler: SchedulerReport {
                parallel_loops: snap.sched.parallel_loops,
                chunks_executed: snap.sched.chunks_executed,
                chunks_stolen: snap.sched.chunks_stolen,
                worker_iterations: snap.sched.worker_iterations.clone(),
            },
            validation: ValidationSummary {
                checks: snap.validation.checks,
                loops_checked: snap.validation.loops_checked,
                races: snap.validation.races,
                observed_deps: snap.validation.observed_deps,
                static_unobserved: snap.validation.static_unobserved,
                validated_deletions: snap.validation.validated_deletions,
            },
            // The registry knows nothing about daemons; `ped serve` fills
            // this in from its own counters before emitting.
            serve: ServeReport::default(),
            sections: SectionsReport {
                arrays_classified: snap.sections.arrays_classified,
                exposed_bottom: snap.sections.exposed_bottom,
                privatizable: snap.sections.privatizable,
            },
            // Like `serve`: filled by the campaign engine before emitting.
            campaign: CampaignReport::default(),
            // Filled by the autopilot driver before emitting.
            autopilot: AutopilotReport::default(),
            units: snap
                .units
                .iter()
                .map(|(u, g, ns)| UnitStat { unit: u.clone(), graphs: *g, ns: *ns })
                .collect(),
            loop_profiles: snap
                .loops
                .iter()
                .map(|l| LoopProfileStat {
                    unit: l.unit.clone(),
                    stmt: l.stmt,
                    invocations: l.invocations,
                    iterations: l.iterations,
                    ops: l.ops,
                })
                .collect(),
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
        Json::obj(vec![
            ("schema_version", Json::int(PROFILE_SCHEMA_VERSION)),
            ("tool", Json::str("ped")),
            ("engine", Json::str(&self.engine)),
            ("enabled", Json::Bool(self.enabled)),
            (
                "phases",
                Json::Arr(
                    self.phases
                        .iter()
                        .map(|p| {
                            Json::obj(vec![
                                ("name", Json::str(&p.name)),
                                ("calls", Json::int(p.calls)),
                                ("ns", Json::int(p.ns)),
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
                                ("test", Json::str(&t.test)),
                                ("independent", Json::int(t.independent)),
                                ("proven", Json::int(t.proven)),
                                ("pending", Json::int(t.pending)),
                                ("edges", Json::int(t.edges)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "cache",
                Json::obj(vec![
                    ("pair_hits", Json::int(self.cache.pair_hits)),
                    ("pair_misses", Json::int(self.cache.pair_misses)),
                    ("graphs_built", Json::int(self.cache.graphs_built)),
                    ("graphs_reused", Json::int(self.cache.graphs_reused)),
                ]),
            ),
            (
                "incremental",
                Json::obj(vec![
                    ("graphs_retained", Json::int(self.incremental.graphs_retained)),
                    ("graphs_resurrected", Json::int(self.incremental.graphs_resurrected)),
                    ("ip_recomputes", Json::int(self.incremental.ip_recomputes)),
                    ("ip_recomputes_skipped", Json::int(self.incremental.ip_recomputes_skipped)),
                    ("undo_entries", Json::int(self.incremental.undo_entries)),
                    ("redo_entries", Json::int(self.incremental.redo_entries)),
                    ("journal_bytes", Json::int(self.incremental.journal_bytes)),
                    ("snapshot_bytes", Json::int(self.incremental.snapshot_bytes)),
                ]),
            ),
            (
                "scheduler",
                Json::obj(vec![
                    ("parallel_loops", Json::int(self.scheduler.parallel_loops)),
                    ("chunks_executed", Json::int(self.scheduler.chunks_executed)),
                    ("chunks_stolen", Json::int(self.scheduler.chunks_stolen)),
                    (
                        "worker_iterations",
                        Json::Arr(
                            self.scheduler
                                .worker_iterations
                                .iter()
                                .map(|&n| Json::int(n))
                                .collect(),
                        ),
                    ),
                    // Derived convenience value for readers; recomputed
                    // (never trusted) on parse.
                    ("imbalance_ratio", Json::Num(self.scheduler.imbalance_ratio())),
                ]),
            ),
            (
                "validation",
                Json::obj(vec![
                    ("checks", Json::int(self.validation.checks)),
                    ("loops_checked", Json::int(self.validation.loops_checked)),
                    ("races", Json::int(self.validation.races)),
                    ("observed_deps", Json::int(self.validation.observed_deps)),
                    ("static_unobserved", Json::int(self.validation.static_unobserved)),
                    ("validated_deletions", Json::int(self.validation.validated_deletions)),
                ]),
            ),
            (
                "serve",
                Json::obj(vec![
                    ("requests", Json::int(self.serve.requests)),
                    ("errors", Json::int(self.serve.errors)),
                    ("sessions_opened", Json::int(self.serve.sessions_opened)),
                    ("sessions_closed", Json::int(self.serve.sessions_closed)),
                    ("warm_opens", Json::int(self.serve.warm_opens)),
                    ("graphs_loaded", Json::int(self.serve.graphs_loaded)),
                    ("graphs_persisted", Json::int(self.serve.graphs_persisted)),
                    ("total_request_ns", Json::int(self.serve.total_request_ns)),
                    ("max_request_ns", Json::int(self.serve.max_request_ns)),
                ]),
            ),
            (
                "sections",
                Json::obj(vec![
                    ("arrays_classified", Json::int(self.sections.arrays_classified)),
                    ("exposed_bottom", Json::int(self.sections.exposed_bottom)),
                    ("privatizable", Json::int(self.sections.privatizable)),
                ]),
            ),
            (
                "campaign",
                Json::obj(vec![
                    ("seeds", Json::int(self.campaign.seeds)),
                    ("loops_parallelized", Json::int(self.campaign.loops_parallelized)),
                    ("discrepancies", Json::int(self.campaign.discrepancies)),
                    ("reproducers", Json::int(self.campaign.reproducers)),
                    ("generate_ns", Json::int(self.campaign.generate_ns)),
                    ("analyze_ns", Json::int(self.campaign.analyze_ns)),
                    ("autopar_ns", Json::int(self.campaign.autopar_ns)),
                    ("check_ns", Json::int(self.campaign.check_ns)),
                    ("equivalence_ns", Json::int(self.campaign.equivalence_ns)),
                ]),
            ),
            (
                "autopilot",
                Json::obj(vec![
                    ("candidates", Json::int(self.autopilot.candidates)),
                    ("pruned_unsafe", Json::int(self.autopilot.pruned_unsafe)),
                    (
                        "pruned_unprofitable",
                        Json::int(self.autopilot.pruned_unprofitable),
                    ),
                    ("plans_applied", Json::int(self.autopilot.plans_applied)),
                    ("plans_rejected", Json::int(self.autopilot.plans_rejected)),
                    (
                        "calibration_before",
                        Json::Num(self.autopilot.calibration_before),
                    ),
                    (
                        "calibration_after",
                        Json::Num(self.autopilot.calibration_after),
                    ),
                ]),
            ),
            (
                "units",
                Json::Arr(
                    self.units
                        .iter()
                        .map(|u| {
                            Json::obj(vec![
                                ("unit", Json::str(&u.unit)),
                                ("graphs", Json::int(u.graphs)),
                                ("ns", Json::int(u.ns)),
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
                                ("unit", Json::str(&l.unit)),
                                ("stmt", Json::int(l.stmt as u64)),
                                ("invocations", Json::int(l.invocations)),
                                ("iterations", Json::int(l.iterations)),
                                ("ops", Json::Num(l.ops)),
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
        let need_u64 = |obj: &Json, key: &str| -> Result<u64, String> {
            obj.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing or non-integer field '{key}'"))
        };
        let need_str = |obj: &Json, key: &str| -> Result<String, String> {
            obj.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing or non-string field '{key}'"))
        };
        let need_arr = |obj: &Json, key: &str| -> Result<Vec<Json>, String> {
            obj.get(key)
                .and_then(Json::as_arr)
                .map(<[Json]>::to_vec)
                .ok_or_else(|| format!("missing or non-array field '{key}'"))
        };

        let need_obj = |key: &str| -> Result<&Json, String> {
            v.get(key).ok_or_else(|| format!("missing field '{key}'"))
        };

        let schema_version = need_u64(v, "schema_version")?;
        if schema_version != PROFILE_SCHEMA_VERSION {
            return Err(format!(
                "unsupported profile schema version {schema_version} \
                 (expected {PROFILE_SCHEMA_VERSION})"
            ));
        }
        let engine = need_str(v, "engine")?;
        if !matches!(engine.as_str(), "tree" | "bytecode") {
            return Err(format!("unknown engine '{engine}'"));
        }
        let enabled = v
            .get("enabled")
            .and_then(Json::as_bool)
            .ok_or("missing or non-bool field 'enabled'")?;

        let mut phases = Vec::new();
        for p in need_arr(v, "phases")? {
            let name = need_str(&p, "name")?;
            if !Phase::ALL.iter().any(|ph| ph.name() == name) {
                return Err(format!("unknown phase '{name}'"));
            }
            phases.push(PhaseStat { name, calls: need_u64(&p, "calls")?, ns: need_u64(&p, "ns")? });
        }

        let mut dep_tests = Vec::new();
        for t in need_arr(v, "dep_tests")? {
            let test = need_str(&t, "test")?;
            if !TestKind::ALL.iter().any(|k| k.name() == test) {
                return Err(format!("unknown dependence test '{test}'"));
            }
            dep_tests.push(DepTestStat {
                test,
                independent: need_u64(&t, "independent")?,
                proven: need_u64(&t, "proven")?,
                pending: need_u64(&t, "pending")?,
                edges: need_u64(&t, "edges")?,
            });
        }

        let c = need_obj("cache")?;
        let cache = CacheReport {
            pair_hits: need_u64(c, "pair_hits")?,
            pair_misses: need_u64(c, "pair_misses")?,
            graphs_built: need_u64(c, "graphs_built")?,
            graphs_reused: need_u64(c, "graphs_reused")?,
        };

        let inc = need_obj("incremental")?;
        let incremental = IncrementalReport {
            graphs_retained: need_u64(inc, "graphs_retained")?,
            graphs_resurrected: need_u64(inc, "graphs_resurrected")?,
            ip_recomputes: need_u64(inc, "ip_recomputes")?,
            ip_recomputes_skipped: need_u64(inc, "ip_recomputes_skipped")?,
            undo_entries: need_u64(inc, "undo_entries")?,
            redo_entries: need_u64(inc, "redo_entries")?,
            journal_bytes: need_u64(inc, "journal_bytes")?,
            snapshot_bytes: need_u64(inc, "snapshot_bytes")?,
        };

        // The emitted `imbalance_ratio` is derived, so it is ignored here
        // and recomputed on demand.
        let s = need_obj("scheduler")?;
        let scheduler = SchedulerReport {
            parallel_loops: need_u64(s, "parallel_loops")?,
            chunks_executed: need_u64(s, "chunks_executed")?,
            chunks_stolen: need_u64(s, "chunks_stolen")?,
            worker_iterations: need_arr(s, "worker_iterations")?
                .iter()
                .map(|w| {
                    w.as_u64()
                        .ok_or_else(|| "non-integer entry in 'worker_iterations'".to_string())
                })
                .collect::<Result<Vec<u64>, String>>()?,
        };

        let s = need_obj("validation")?;
        let validation = ValidationSummary {
            checks: need_u64(s, "checks")?,
            loops_checked: need_u64(s, "loops_checked")?,
            races: need_u64(s, "races")?,
            observed_deps: need_u64(s, "observed_deps")?,
            static_unobserved: need_u64(s, "static_unobserved")?,
            validated_deletions: need_u64(s, "validated_deletions")?,
        };

        let s = need_obj("serve")?;
        let serve = ServeReport {
            requests: need_u64(s, "requests")?,
            errors: need_u64(s, "errors")?,
            sessions_opened: need_u64(s, "sessions_opened")?,
            sessions_closed: need_u64(s, "sessions_closed")?,
            warm_opens: need_u64(s, "warm_opens")?,
            graphs_loaded: need_u64(s, "graphs_loaded")?,
            graphs_persisted: need_u64(s, "graphs_persisted")?,
            total_request_ns: need_u64(s, "total_request_ns")?,
            max_request_ns: need_u64(s, "max_request_ns")?,
        };

        let s = need_obj("sections")?;
        let sections = SectionsReport {
            arrays_classified: need_u64(s, "arrays_classified")?,
            exposed_bottom: need_u64(s, "exposed_bottom")?,
            privatizable: need_u64(s, "privatizable")?,
        };

        let s = need_obj("campaign")?;
        let campaign = CampaignReport {
            seeds: need_u64(s, "seeds")?,
            loops_parallelized: need_u64(s, "loops_parallelized")?,
            discrepancies: need_u64(s, "discrepancies")?,
            reproducers: need_u64(s, "reproducers")?,
            generate_ns: need_u64(s, "generate_ns")?,
            analyze_ns: need_u64(s, "analyze_ns")?,
            autopar_ns: need_u64(s, "autopar_ns")?,
            check_ns: need_u64(s, "check_ns")?,
            equivalence_ns: need_u64(s, "equivalence_ns")?,
        };

        let s = need_obj("autopilot")?;
        let autopilot = AutopilotReport {
            candidates: need_u64(s, "candidates")?,
            pruned_unsafe: need_u64(s, "pruned_unsafe")?,
            pruned_unprofitable: need_u64(s, "pruned_unprofitable")?,
            plans_applied: need_u64(s, "plans_applied")?,
            plans_rejected: need_u64(s, "plans_rejected")?,
            calibration_before: s
                .get("calibration_before")
                .and_then(Json::as_f64)
                .ok_or("missing or non-number field 'calibration_before'")?,
            calibration_after: s
                .get("calibration_after")
                .and_then(Json::as_f64)
                .ok_or("missing or non-number field 'calibration_after'")?,
        };

        let mut units = Vec::new();
        for u in need_arr(v, "units")? {
            units.push(UnitStat {
                unit: need_str(&u, "unit")?,
                graphs: need_u64(&u, "graphs")?,
                ns: need_u64(&u, "ns")?,
            });
        }

        let mut loop_profiles = Vec::new();
        for l in need_arr(v, "loop_profiles")? {
            loop_profiles.push(LoopProfileStat {
                unit: need_str(&l, "unit")?,
                stmt: need_u64(&l, "stmt")? as u32,
                invocations: need_u64(&l, "invocations")?,
                iterations: need_u64(&l, "iterations")?,
                ops: l
                    .get("ops")
                    .and_then(Json::as_f64)
                    .ok_or("missing or non-number field 'ops'")?,
            });
        }

        Ok(ProfileReport {
            engine,
            enabled,
            phases,
            dep_tests,
            cache,
            incremental,
            scheduler,
            validation,
            serve,
            sections,
            campaign,
            autopilot,
            units,
            loop_profiles,
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
        out.push_str(&format!(
            "pair cache: {} hits / {} misses ({:.1}% hit rate)\n",
            self.cache.pair_hits,
            self.cache.pair_misses,
            self.cache.pair_hit_rate() * 100.0
        ));
        out.push_str(&format!(
            "graphs: {} built, {} reused from cache ({:.1}% reuse)\n",
            self.cache.graphs_built,
            self.cache.graphs_reused,
            self.cache.graph_reuse_rate() * 100.0
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
    use crate::{LoopSample, Obs, PairVerdict, Phase, SchedSample, TestKind, ValidationSample};

    /// Delete a `,"name":{...}` object from compact JSON text. Works for
    /// sections whose object nests arrays but no sub-objects.
    fn strip_section(v: &mut String, name: &str) {
        let start = v.find(&format!(",\"{name}\":{{")).unwrap();
        let end = v[start..].find('}').unwrap() + start + 1;
        v.replace_range(start..end, "");
    }

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
        obs.record_loop(LoopSample {
            unit: "main".into(),
            stmt: 3,
            invocations: 2,
            iterations: 20,
            ops: 123.5,
        });
        obs.record_sched(&SchedSample {
            parallel_loops: 3,
            chunks_executed: 24,
            chunks_stolen: 5,
            worker_iterations: vec![40, 60, 50, 50],
        });
        obs.record_validation(&ValidationSample {
            checks: 1,
            loops_checked: 6,
            races: 1,
            observed_deps: 11,
            static_unobserved: 2,
            validated_deletions: 3,
        });
        obs.record_array_class(true, true);
        obs.record_array_class(false, false);
        let mut r = ProfileReport::from_snapshot(
            &obs.snapshot(),
            CacheReport { pair_hits: 5, pair_misses: 3, graphs_built: 2, graphs_reused: 1 },
            IncrementalReport {
                graphs_retained: 7,
                graphs_resurrected: 2,
                ip_recomputes: 3,
                ip_recomputes_skipped: 4,
                undo_entries: 2,
                redo_entries: 1,
                journal_bytes: 640,
                snapshot_bytes: 9_000,
            },
        );
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

    #[test]
    fn v2_report_requires_incremental_section() {
        let r = sample_report();
        let mut v = r.to_json().to_string_compact();
        strip_section(&mut v, "incremental");
        let err = ProfileReport::from_json_str(&v).unwrap_err();
        assert!(err.contains("incremental"), "{err}");
    }

    #[test]
    fn v3_report_requires_scheduler_section() {
        let r = sample_report();
        let mut v = r.to_json().to_string_compact();
        strip_section(&mut v, "scheduler");
        let err = ProfileReport::from_json_str(&v).unwrap_err();
        assert!(err.contains("scheduler"), "{err}");
    }

    #[test]
    fn v4_report_requires_validation_section() {
        let r = sample_report();
        let mut v = r.to_json().to_string_compact();
        strip_section(&mut v, "validation");
        let err = ProfileReport::from_json_str(&v).unwrap_err();
        assert!(err.contains("validation"), "{err}");
    }

    #[test]
    fn v6_report_requires_serve_section() {
        let r = sample_report();
        let mut v = r.to_json().to_string_compact();
        strip_section(&mut v, "serve");
        let err = ProfileReport::from_json_str(&v).unwrap_err();
        assert!(err.contains("serve"), "{err}");
    }

    #[test]
    fn v7_report_requires_sections_section() {
        let r = sample_report();
        let mut v = r.to_json().to_string_compact();
        strip_section(&mut v, "sections");
        let err = ProfileReport::from_json_str(&v).unwrap_err();
        assert!(err.contains("sections"), "{err}");
    }

    #[test]
    fn v8_report_requires_campaign_section() {
        let r = sample_report();
        let mut v = r.to_json().to_string_compact();
        strip_section(&mut v, "campaign");
        let err = ProfileReport::from_json_str(&v).unwrap_err();
        assert!(err.contains("campaign"), "{err}");
    }

    #[test]
    fn v9_report_requires_autopilot_section() {
        let r = sample_report();
        let mut v = r.to_json().to_string_compact();
        strip_section(&mut v, "autopilot");
        let err = ProfileReport::from_json_str(&v).unwrap_err();
        assert!(err.contains("autopilot"), "{err}");
    }

    #[test]
    fn autopilot_counters_survive_round_trip() {
        let r = sample_report();
        let back = ProfileReport::from_json_str(&r.to_json().to_string_compact()).unwrap();
        assert_eq!(back.autopilot, r.autopilot);
        assert!(
            r.render_text().contains("autopilot: 18 candidates"),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn campaign_counters_survive_round_trip() {
        let r = sample_report();
        let back = ProfileReport::from_json_str(&r.to_json().to_string_compact()).unwrap();
        assert_eq!(back.campaign, r.campaign);
        assert!(r.render_text().contains("campaign: 200 seeds"), "{}", r.render_text());
    }

    #[test]
    fn sections_counters_survive_round_trip() {
        let r = sample_report();
        assert_eq!(
            r.sections,
            SectionsReport { arrays_classified: 2, exposed_bottom: 1, privatizable: 1 }
        );
        let back = ProfileReport::from_json_str(&r.to_json().to_string_compact()).unwrap();
        assert_eq!(back.sections, r.sections);
        assert!(r.render_text().contains("sections: 2 arrays classified"), "{}", r.render_text());
    }

    #[test]
    fn v5_report_requires_engine_field() {
        let r = sample_report();
        let v = r.to_json().to_string_compact().replacen(",\"engine\":\"bytecode\"", "", 1);
        let err = ProfileReport::from_json_str(&v).unwrap_err();
        assert!(err.contains("engine"), "{err}");
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
        let r = ProfileReport::from_snapshot(
            &obs.snapshot(),
            CacheReport::default(),
            IncrementalReport::default(),
        );
        assert_eq!(r, ProfileReport::empty());
        assert_eq!(r.total_edges(), 0);
        assert_eq!(r.total_pairs(), 0);
    }

    #[test]
    fn rates_and_totals() {
        let r = sample_report();
        assert_eq!(r.total_pairs(), 2);
        assert_eq!(r.total_edges(), 2);
        assert!((r.cache.pair_hit_rate() - 5.0 / 8.0).abs() < 1e-12);
        assert!((r.cache.graph_reuse_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(CacheReport::default().pair_hit_rate(), 0.0);
        let text = r.render_text();
        assert!(text.contains("dep_test") || text.contains("strong_siv"));
        assert!(text.contains("hit rate"));
    }
}
