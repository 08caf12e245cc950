//! # ped-runtime — the execution substrate
//!
//! The paper's users ran their parallelized codes on an 8-processor
//! Alliant FX/8 or a Cray Y-MP; our stand-in is an interpreter for the
//! `ped-fortran` subset with three execution modes, each on either engine
//! (register bytecode by default, the AST walker as the oracle):
//!
//! * **serial** — reference semantics, with loop-level profiling (the role
//!   gprof / Forge loop profiles played for the workshop users) and a
//!   virtual-time cost model;
//! * **simulated parallel** — deterministic: a `PARALLEL DO` is cut into
//!   the P-processor machine's static blocks, which run inline on the
//!   calling thread in iteration order through the same job, chunk and
//!   merge code as real parallel execution, and the loop is *charged* as
//!   that schedule (fork + worst block + barrier, [`Machine::block_charge`]),
//!   so speedup curves and crossover points are stable across host
//!   machines — this mode regenerates the paper's performance shapes;
//! * **real parallel** — `PARALLEL DO` iterations actually run on a
//!   persistent pool of host threads (see [`pool`]) built once per run and
//!   reused by every parallel loop: per-worker deques with chunk-level
//!   work stealing, selectable schedules (static / dynamic / guided), and
//!   deterministic merges that keep threaded output bit-identical to
//!   serial execution, with private/reduction/lastprivate semantics. All
//!   storage cells are relaxed atomics, so concurrent element access is
//!   data-race-free by construction; *correctness* of a parallelization is
//!   still the analysis' job, which is why [`shadow`](interp::ExecConfig::shadow)
//!   logging exists: in every mode and on both engines it records each
//!   loop's observed cross-iteration dependences, which the session's
//!   check cross-examines for races — the "run-time dependence testing"
//!   the paper's related work points to, and the safety net for
//!   user-deleted dependences.

pub mod bytecode;
pub mod interp;
pub mod machine;
pub mod memory;
pub mod pool;
pub mod shadow;
pub mod value;

pub use interp::{Engine, ExecConfig, Interp, MemorySnapshot, ParallelMode, RtError, RunResult};
pub use machine::Machine;
pub use memory::{ArrayCell, Cell, Frame};
pub use pool::{SchedStats, Schedule};
pub use shadow::{LoopObs, ObsKind, ObsStat, ShadowLog};
pub use value::Value;
