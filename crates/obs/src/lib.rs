//! # ped-obs — pipeline observability
//!
//! "Users should not have to bring gprof output": Ped's estimator and loop
//! profiles exist so the tool itself can show where effort goes. This crate
//! extends that philosophy to the *analysis pipeline*: an always-compiled,
//! near-zero-cost-when-disabled instrumentation layer that the whole system
//! threads through — phase wall-clock timers (parse → scalar/control
//! analysis → interprocedural propagation → dependence testing → transform
//! → interpretation), a per-subscript-pair decision histogram (which test
//! in the ZIV → SIV → GCD → Banerjee hierarchy resolved each pair, and
//! how), per-unit graph-build timings, and the runtime's loop profiles.
//!
//! The [`Obs`] registry is plain atomics behind an `enabled` flag: every
//! recording entry point is one relaxed load and a branch when profiling is
//! off, so the instrumentation can stay compiled into release builds (the
//! E11 bench guards the disabled-path overhead). A session snapshot is
//! published as a versioned, machine-readable [`report::ProfileReport`]
//! via the dependency-free [`json`] module.

pub mod json;
pub mod report;

pub use report::{
    AutopilotReport, CacheReport, CampaignReport, DepTestStat, IncrementalReport,
    LoopProfileStat, PhaseStat, ProfileReport, SchedulerReport, ServeReport, UnitStat,
    ValidationSummary, PROFILE_SCHEMA_VERSION,
};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One phase of the Ped pipeline, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Fortran front end (initial open and re-parses on edit).
    Parse,
    /// Intra-unit scalar/control analysis: CFG, constants, liveness,
    /// scalar classification, control dependences.
    ScalarAnalysis,
    /// Interprocedural propagation: call graph, MOD/REF + section
    /// summaries, constants.
    Interproc,
    /// Subscript-pair dependence testing (the array-pair loop).
    DepTest,
    /// Power-steering transformations.
    Transform,
    /// Program interpretation (serial, simulated, or threaded).
    Interpret,
}

impl Phase {
    /// Number of phases (array sizing).
    pub const COUNT: usize = 6;

    /// Every phase, in pipeline order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Parse,
        Phase::ScalarAnalysis,
        Phase::Interproc,
        Phase::DepTest,
        Phase::Transform,
        Phase::Interpret,
    ];

    /// Stable machine-readable name (also the JSON field value).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::ScalarAnalysis => "scalar_analysis",
            Phase::Interproc => "interproc",
            Phase::DepTest => "dep_test",
            Phase::Transform => "transform",
            Phase::Interpret => "interpret",
        }
    }

    fn idx(self) -> usize {
        match self {
            Phase::Parse => 0,
            Phase::ScalarAnalysis => 1,
            Phase::Interproc => 2,
            Phase::DepTest => 3,
            Phase::Transform => 4,
            Phase::Interpret => 5,
        }
    }
}

/// Which dependence test (or conservative category) decided a subscript
/// pair / justified a graph edge. Mirrors `ped-dep`'s provenance enum plus
/// the non-array edge causes, so one histogram covers every edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TestKind {
    /// Zero-index-variable test.
    Ziv,
    /// Strong SIV.
    StrongSiv,
    /// Weak-zero SIV.
    WeakZeroSiv,
    /// Weak-crossing SIV.
    WeakCrossingSiv,
    /// Exact SIV.
    ExactSiv,
    /// MIV GCD test.
    Gcd,
    /// Banerjee bounds / direction refinement.
    Banerjee,
    /// Non-affine subscript (conservative).
    NonAffine,
    /// Unresolved symbolic terms (conservative).
    Symbolic,
    /// Scalar dependence (classification, not subscript testing).
    Scalar,
    /// Control dependence.
    Control,
}

impl TestKind {
    /// Number of kinds (array sizing).
    pub const COUNT: usize = 11;

    /// Every kind, in hierarchy order.
    pub const ALL: [TestKind; TestKind::COUNT] = [
        TestKind::Ziv,
        TestKind::StrongSiv,
        TestKind::WeakZeroSiv,
        TestKind::WeakCrossingSiv,
        TestKind::ExactSiv,
        TestKind::Gcd,
        TestKind::Banerjee,
        TestKind::NonAffine,
        TestKind::Symbolic,
        TestKind::Scalar,
        TestKind::Control,
    ];

    /// Stable machine-readable name (also the JSON field value).
    pub fn name(self) -> &'static str {
        match self {
            TestKind::Ziv => "ziv",
            TestKind::StrongSiv => "strong_siv",
            TestKind::WeakZeroSiv => "weak_zero_siv",
            TestKind::WeakCrossingSiv => "weak_crossing_siv",
            TestKind::ExactSiv => "exact_siv",
            TestKind::Gcd => "gcd",
            TestKind::Banerjee => "banerjee",
            TestKind::NonAffine => "non_affine",
            TestKind::Symbolic => "symbolic",
            TestKind::Scalar => "scalar",
            TestKind::Control => "control",
        }
    }

    fn idx(self) -> usize {
        Self::ALL.iter().position(|&k| k == self).expect("kind listed")
    }
}

/// How a tested subscript pair came out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairVerdict {
    /// Every dependence disproved.
    Independent,
    /// Dependence proven by an exact test.
    Proven,
    /// Dependence conservatively assumed.
    Pending,
}

impl PairVerdict {
    fn idx(self) -> usize {
        match self {
            PairVerdict::Independent => 0,
            PairVerdict::Proven => 1,
            PairVerdict::Pending => 2,
        }
    }
}

/// One per-unit graph-build sample.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitSample {
    /// Unit name.
    pub unit: String,
    /// Nanoseconds spent building one graph of the unit.
    pub ns: u64,
}

/// One loop-profile sample from a program run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopSample {
    /// Unit name.
    pub unit: String,
    /// DO-statement id of the loop.
    pub stmt: u32,
    /// Times entered.
    pub invocations: u64,
    /// Total iterations.
    pub iterations: u64,
    /// Virtual ops spent inside.
    pub ops: f64,
}

/// Scheduler counters from threaded runs (feeds the schema-v3
/// `scheduler` section of the profile report).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchedSample {
    /// `PARALLEL DO` invocations dispatched to the worker pool.
    pub parallel_loops: u64,
    /// Chunks executed across all loops and workers.
    pub chunks_executed: u64,
    /// Chunks served by work stealing.
    pub chunks_stolen: u64,
    /// Iterations executed per worker (index = worker id).
    pub worker_iterations: Vec<u64>,
}

/// Bounded regular-section counters from graph builds (feeds the schema v7
/// `sections` block of the profile report).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SectionsSample {
    /// Arrays classified by the section walk across all graph builds.
    pub arrays_classified: u64,
    /// Arrays whose exposed-read section was ⊥ (fully killed before use).
    pub exposed_bottom: u64,
    /// Arrays proven privatizable (killed, not live after the loop).
    pub privatizable: u64,
}

/// Shadow-runtime validation counters from checked runs (feeds the schema
/// v4 `validation` section of the profile report).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ValidationSample {
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
    /// User-deleted edges that no tested input ever contradicted.
    pub validated_deletions: u64,
}

/// Plain-data snapshot of an [`Obs`] registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsSnapshot {
    /// Whether recording was enabled at snapshot time.
    pub enabled: bool,
    /// Per phase: (accumulated nanoseconds, timed calls), indexed like
    /// [`Phase::ALL`].
    pub phases: Vec<(u64, u64)>,
    /// Per test kind: (independent, proven, pending) pair decisions,
    /// indexed like [`TestKind::ALL`].
    pub pairs: Vec<[u64; 3]>,
    /// Per test kind: emitted graph edges this test justified.
    pub edges: Vec<u64>,
    /// Per-unit graph-build timings, aggregated (unit, graphs, ns).
    pub units: Vec<(String, u64, u64)>,
    /// Loop profiles recorded from runs.
    pub loops: Vec<LoopSample>,
    /// Parallel-runtime scheduler counters accumulated over runs.
    pub sched: SchedSample,
    /// Shadow-runtime validation counters accumulated over checked runs.
    pub validation: ValidationSample,
    /// Regular-section counters accumulated over graph builds.
    pub sections: SectionsSample,
}

/// The instrumentation registry: atomic counters behind an enable flag.
/// Recording is thread-safe (`analyze_all` workers share one registry) and
/// a single relaxed load + branch when disabled.
pub struct Obs {
    enabled: AtomicBool,
    phase_ns: [AtomicU64; Phase::COUNT],
    phase_calls: [AtomicU64; Phase::COUNT],
    pair_hist: [[AtomicU64; 3]; TestKind::COUNT],
    edge_hist: [AtomicU64; TestKind::COUNT],
    units: Mutex<Vec<UnitSample>>,
    loops: Mutex<Vec<LoopSample>>,
    sched: Mutex<SchedSample>,
    validation: Mutex<ValidationSample>,
    sections: Mutex<SectionsSample>,
}

impl Default for Obs {
    fn default() -> Self {
        Self::new()
    }
}

impl Obs {
    /// A fresh registry, disabled.
    pub fn new() -> Obs {
        Obs {
            enabled: AtomicBool::new(false),
            phase_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            phase_calls: std::array::from_fn(|_| AtomicU64::new(0)),
            pair_hist: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            edge_hist: std::array::from_fn(|_| AtomicU64::new(0)),
            units: Mutex::new(Vec::new()),
            loops: Mutex::new(Vec::new()),
            sched: Mutex::new(SchedSample::default()),
            validation: Mutex::new(ValidationSample::default()),
            sections: Mutex::new(SectionsSample::default()),
        }
    }

    /// Turn recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Is recording on? (The single check every hot path makes.)
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Start timing a phase; the guard adds the elapsed time on drop.
    /// No-op (no clock read) when disabled.
    pub fn time(&self, phase: Phase) -> PhaseTimer<'_> {
        PhaseTimer::start(Some(self), phase)
    }

    /// Add raw nanoseconds to a phase (used by the drop guard).
    pub fn add_phase_ns(&self, phase: Phase, ns: u64) {
        self.phase_ns[phase.idx()].fetch_add(ns, Ordering::Relaxed);
        self.phase_calls[phase.idx()].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one subscript-pair decision: `test` resolved the pair with
    /// `verdict`.
    #[inline]
    pub fn record_pair(&self, test: TestKind, verdict: PairVerdict) {
        if !self.enabled() {
            return;
        }
        self.pair_hist[test.idx()][verdict.idx()].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one emitted dependence edge justified by `test`.
    #[inline]
    pub fn record_edge(&self, test: TestKind) {
        if !self.enabled() {
            return;
        }
        self.edge_hist[test.idx()].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one per-unit graph-build timing.
    pub fn record_unit(&self, unit: &str, ns: u64) {
        if !self.enabled() {
            return;
        }
        self.units.lock().unwrap().push(UnitSample { unit: unit.to_string(), ns });
    }

    /// Record one loop-profile sample from a run.
    pub fn record_loop(&self, sample: LoopSample) {
        if !self.enabled() {
            return;
        }
        self.loops.lock().unwrap().push(sample);
    }

    /// Fold one run's parallel-scheduler counters into the registry.
    pub fn record_sched(&self, sample: &SchedSample) {
        if !self.enabled() {
            return;
        }
        let mut s = self.sched.lock().unwrap();
        s.parallel_loops += sample.parallel_loops;
        s.chunks_executed += sample.chunks_executed;
        s.chunks_stolen += sample.chunks_stolen;
        if s.worker_iterations.len() < sample.worker_iterations.len() {
            s.worker_iterations.resize(sample.worker_iterations.len(), 0);
        }
        for (a, b) in s.worker_iterations.iter_mut().zip(&sample.worker_iterations) {
            *a += b;
        }
    }

    /// Fold one checked run's validation counters into the registry.
    pub fn record_validation(&self, sample: &ValidationSample) {
        if !self.enabled() {
            return;
        }
        let mut s = self.validation.lock().unwrap();
        s.checks += sample.checks;
        s.loops_checked += sample.loops_checked;
        s.races += sample.races;
        s.observed_deps += sample.observed_deps;
        s.static_unobserved += sample.static_unobserved;
        s.validated_deletions += sample.validated_deletions;
    }

    /// Record one array's section classification from a graph build.
    #[inline]
    pub fn record_array_class(&self, exposed_bottom: bool, privatizable: bool) {
        if !self.enabled() {
            return;
        }
        let mut s = self.sections.lock().unwrap();
        s.arrays_classified += 1;
        s.exposed_bottom += exposed_bottom as u64;
        s.privatizable += privatizable as u64;
    }

    /// Copy out everything recorded so far. Per-unit samples are aggregated
    /// and both unit and loop lists are sorted for deterministic reports.
    pub fn snapshot(&self) -> ObsSnapshot {
        let mut agg: std::collections::HashMap<String, (u64, u64)> =
            std::collections::HashMap::new();
        for s in self.units.lock().unwrap().iter() {
            let e = agg.entry(s.unit.clone()).or_insert((0, 0));
            e.0 += 1;
            e.1 += s.ns;
        }
        let mut units: Vec<(String, u64, u64)> =
            agg.into_iter().map(|(u, (g, ns))| (u, g, ns)).collect();
        units.sort();
        let mut loops = self.loops.lock().unwrap().clone();
        loops.sort_by(|a, b| (&a.unit, a.stmt).cmp(&(&b.unit, b.stmt)));
        ObsSnapshot {
            enabled: self.enabled(),
            phases: (0..Phase::COUNT)
                .map(|i| {
                    (
                        self.phase_ns[i].load(Ordering::Relaxed),
                        self.phase_calls[i].load(Ordering::Relaxed),
                    )
                })
                .collect(),
            pairs: (0..TestKind::COUNT)
                .map(|i| {
                    [
                        self.pair_hist[i][0].load(Ordering::Relaxed),
                        self.pair_hist[i][1].load(Ordering::Relaxed),
                        self.pair_hist[i][2].load(Ordering::Relaxed),
                    ]
                })
                .collect(),
            edges: (0..TestKind::COUNT)
                .map(|i| self.edge_hist[i].load(Ordering::Relaxed))
                .collect(),
            units,
            loops,
            sched: self.sched.lock().unwrap().clone(),
            validation: self.validation.lock().unwrap().clone(),
            sections: self.sections.lock().unwrap().clone(),
        }
    }

    /// Zero every counter (the enable flag is untouched).
    pub fn reset(&self) {
        for a in &self.phase_ns {
            a.store(0, Ordering::Relaxed);
        }
        for a in &self.phase_calls {
            a.store(0, Ordering::Relaxed);
        }
        for row in &self.pair_hist {
            for a in row {
                a.store(0, Ordering::Relaxed);
            }
        }
        for a in &self.edge_hist {
            a.store(0, Ordering::Relaxed);
        }
        self.units.lock().unwrap().clear();
        self.loops.lock().unwrap().clear();
        *self.sched.lock().unwrap() = SchedSample::default();
        *self.validation.lock().unwrap() = ValidationSample::default();
    }
}

/// RAII phase timer: reads the clock only when the registry is present and
/// enabled; adds the elapsed nanoseconds on drop.
pub struct PhaseTimer<'a> {
    live: Option<(&'a Obs, Phase, Instant)>,
}

impl<'a> PhaseTimer<'a> {
    /// Start timing `phase` against `obs` (no-op on `None` or disabled).
    pub fn start(obs: Option<&'a Obs>, phase: Phase) -> PhaseTimer<'a> {
        let live = match obs {
            Some(o) if o.enabled() => Some((o, phase, Instant::now())),
            _ => None,
        };
        PhaseTimer { live }
    }
}

impl Drop for PhaseTimer<'_> {
    fn drop(&mut self) {
        if let Some((obs, phase, t0)) = self.live.take() {
            obs.add_phase_ns(phase, t0.elapsed().as_nanos() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let obs = Obs::new();
        obs.record_pair(TestKind::Ziv, PairVerdict::Independent);
        obs.record_edge(TestKind::StrongSiv);
        obs.record_unit("main", 100);
        obs.record_loop(LoopSample {
            unit: "main".into(),
            stmt: 1,
            invocations: 1,
            iterations: 10,
            ops: 5.0,
        });
        {
            let _t = obs.time(Phase::Parse);
        }
        let s = obs.snapshot();
        assert!(!s.enabled);
        assert!(s.phases.iter().all(|&(ns, calls)| ns == 0 && calls == 0));
        assert!(s.pairs.iter().all(|r| r.iter().all(|&c| c == 0)));
        assert!(s.edges.iter().all(|&c| c == 0));
        assert!(s.units.is_empty());
        assert!(s.loops.is_empty());
    }

    #[test]
    fn enabled_records_and_aggregates() {
        let obs = Obs::new();
        obs.set_enabled(true);
        obs.record_pair(TestKind::StrongSiv, PairVerdict::Proven);
        obs.record_pair(TestKind::StrongSiv, PairVerdict::Independent);
        obs.record_edge(TestKind::StrongSiv);
        obs.record_unit("main", 100);
        obs.record_unit("main", 50);
        obs.record_unit("aux", 10);
        {
            let _t = obs.time(Phase::DepTest);
            std::hint::black_box(0);
        }
        let s = obs.snapshot();
        assert!(s.enabled);
        let strong = TestKind::ALL.iter().position(|&k| k == TestKind::StrongSiv).unwrap();
        assert_eq!(s.pairs[strong], [1, 1, 0]);
        assert_eq!(s.edges[strong], 1);
        assert_eq!(s.units, vec![("aux".into(), 1, 10), ("main".into(), 2, 150)]);
        let dep = Phase::DepTest.idx();
        assert_eq!(s.phases[dep].1, 1, "one timed call");
        obs.reset();
        let s2 = obs.snapshot();
        assert!(s2.units.is_empty());
        assert_eq!(s2.pairs[strong], [0, 0, 0]);
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let obs = Obs::new();
        obs.set_enabled(true);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        obs.record_pair(TestKind::Gcd, PairVerdict::Pending);
                        obs.record_edge(TestKind::Gcd);
                    }
                });
            }
        });
        let snap = obs.snapshot();
        let gcd = TestKind::ALL.iter().position(|&k| k == TestKind::Gcd).unwrap();
        assert_eq!(snap.pairs[gcd][2], 4000);
        assert_eq!(snap.edges[gcd], 4000);
    }
}
