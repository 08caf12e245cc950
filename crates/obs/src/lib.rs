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
//! E11 bench guards the disabled-path overhead). [`Obs::report`] publishes
//! what was recorded as a versioned, machine-readable
//! [`report::ProfileReport`] via the dependency-free [`json`] module.

pub mod json;
pub mod report;

pub use report::{
    AutopilotReport, CacheReport, CampaignReport, DepTestStat, IncrementalReport, LoopProfileStat,
    PhaseStat, ProfileReport, SchedulerReport, SectionsReport, ServeReport, UnitStat,
    ValidationSummary, PROFILE_SCHEMA_VERSION,
};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// One phase of the Ped pipeline, in execution order. The registry indexes
/// its counters by discriminant, so the declaration order is
/// [`Phase::ALL`]'s.
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
}

/// Which dependence test (or conservative category) decided a subscript
/// pair / justified a graph edge. Mirrors `ped-dep`'s provenance enum plus
/// the non-array edge causes, so one histogram covers every edge. Declared
/// in [`TestKind::ALL`]'s order (the registry indexes by discriminant).
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
}

/// How a tested subscript pair came out (the histogram column, by
/// discriminant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairVerdict {
    /// Every dependence disproved.
    Independent,
    /// Dependence proven by an exact test.
    Proven,
    /// Dependence conservatively assumed.
    Pending,
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
    /// The report's locked blocks, recorded in place: unit and loop rows
    /// (kept sorted, one per key) and the folded scheduler, validation
    /// and sections counters. [`Obs::report`] adds the atomic rows.
    recorded: Mutex<ProfileReport>,
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
            recorded: Mutex::new(ProfileReport::empty()),
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
        self.phase_ns[phase as usize].fetch_add(ns, Ordering::Relaxed);
        self.phase_calls[phase as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one subscript-pair decision: `test` resolved the pair with
    /// `verdict`.
    #[inline]
    pub fn record_pair(&self, test: TestKind, verdict: PairVerdict) {
        if !self.enabled() {
            return;
        }
        self.pair_hist[test as usize][verdict as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one emitted dependence edge justified by `test`.
    #[inline]
    pub fn record_edge(&self, test: TestKind) {
        if !self.enabled() {
            return;
        }
        self.edge_hist[test as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one graph build of `unit` that took `ns` nanoseconds.
    pub fn record_unit(&self, unit: &str, ns: u64) {
        if !self.enabled() {
            return;
        }
        let units = &mut self.recorded().units;
        match units.binary_search_by(|u| u.unit.as_str().cmp(unit)) {
            Ok(i) => {
                units[i].graphs += 1;
                units[i].ns += ns;
            }
            Err(i) => units.insert(i, UnitStat { unit: unit.to_string(), graphs: 1, ns }),
        }
    }

    /// Fold one run's profile of one loop into that loop's row.
    pub fn record_loop(&self, run: LoopProfileStat) {
        if !self.enabled() {
            return;
        }
        let loops = &mut self.recorded().loop_profiles;
        match loops.binary_search_by(|l| (&l.unit, l.stmt).cmp(&(&run.unit, run.stmt))) {
            Ok(i) => {
                loops[i].invocations += run.invocations;
                loops[i].iterations += run.iterations;
                loops[i].ops += run.ops;
            }
            Err(i) => loops.insert(i, run),
        }
    }

    /// Fold one run's parallel-scheduler counters into the registry.
    pub fn record_sched(&self, run: &SchedulerReport) {
        if !self.enabled() {
            return;
        }
        self.recorded().scheduler.add(run);
    }

    /// Fold one checked run's validation counters into the registry.
    pub fn record_validation(&self, run: &ValidationSummary) {
        if !self.enabled() {
            return;
        }
        self.recorded().validation.add(run);
    }

    /// Fold one graph build's array-section counters into the registry.
    pub fn record_sections(&self, build: &SectionsReport) {
        if !self.enabled() {
            return;
        }
        self.recorded().sections.add(build);
    }

    fn recorded(&self) -> MutexGuard<'_, ProfileReport> {
        self.recorded.lock().expect("no recording thread panics while holding the report")
    }

    /// Everything recorded so far, as a report. Blocks the registry does
    /// not own (`cache`, `incremental`, `serve`, `campaign`, `autopilot`)
    /// are zero; their owners fill them in before emitting.
    pub fn report(&self) -> ProfileReport {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let mut report = self.recorded().clone();
        report.enabled = self.enabled();
        report.phases = Phase::ALL
            .iter()
            .zip(self.phase_ns.iter().zip(&self.phase_calls))
            .map(|(p, (ns, calls))| PhaseStat {
                name: p.name().to_string(),
                calls: load(calls),
                ns: load(ns),
            })
            .filter(|p| p.ns > 0 || p.calls > 0)
            .collect();
        report.dep_tests = TestKind::ALL
            .iter()
            .zip(self.pair_hist.iter().zip(&self.edge_hist))
            .map(|(k, ([independent, proven, pending], edges))| DepTestStat {
                test: k.name().to_string(),
                independent: load(independent),
                proven: load(proven),
                pending: load(pending),
                edges: load(edges),
            })
            .filter(|t| t.independent + t.proven + t.pending + t.edges > 0)
            .collect();
        report
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

    fn one_loop_run() -> LoopProfileStat {
        LoopProfileStat { unit: "main".into(), stmt: 1, invocations: 1, iterations: 10, ops: 5.0 }
    }

    #[test]
    fn disabled_records_nothing() {
        let obs = Obs::new();
        obs.record_pair(TestKind::Ziv, PairVerdict::Independent);
        obs.record_edge(TestKind::StrongSiv);
        obs.record_unit("main", 100);
        obs.record_loop(one_loop_run());
        obs.record_sections(&SectionsReport { arrays_classified: 1, ..Default::default() });
        {
            let _t = obs.time(Phase::Parse);
        }
        assert_eq!(obs.report(), ProfileReport::empty());
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
        obs.record_loop(one_loop_run());
        obs.record_loop(one_loop_run());
        {
            let _t = obs.time(Phase::DepTest);
            std::hint::black_box(0);
        }
        let r = obs.report();
        assert!(r.enabled);
        let strong = DepTestStat {
            test: "strong_siv".into(),
            independent: 1,
            proven: 1,
            pending: 0,
            edges: 1,
        };
        assert_eq!(r.dep_tests, vec![strong]);
        let unit = |u: &str, graphs, ns| UnitStat { unit: u.into(), graphs, ns };
        assert_eq!(r.units, vec![unit("aux", 1, 10), unit("main", 2, 150)]);
        let twice = LoopProfileStat { invocations: 2, iterations: 20, ops: 10.0, ..one_loop_run() };
        assert_eq!(r.loop_profiles, vec![twice], "one row per loop, summed over runs");
        assert_eq!(r.phases.len(), 1);
        assert_eq!((r.phases[0].name.as_str(), r.phases[0].calls), ("dep_test", 1));
        // The counters are indexed by discriminant: declaration order must
        // be the listed order.
        assert!(Phase::ALL.iter().enumerate().all(|(i, &p)| p as usize == i));
        assert!(TestKind::ALL.iter().enumerate().all(|(i, &k)| k as usize == i));
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
        let gcd = &obs.report().dep_tests[0];
        assert_eq!((gcd.test.as_str(), gcd.pending, gcd.edges), ("gcd", 4000, 4000));
    }
}
