//! # ped-core — the ParaScope Editor session
//!
//! This crate is Ped itself, minus the X11 widgets: the program database
//! with cached analyses and unit-level incremental invalidation, dependence
//! display with **view filtering**, **dependence marking**
//! (proven/pending/accepted/rejected), **user assertions** that sharpen the
//! analyses, the **power-steering** transformation driver with undo/redo,
//! and the book-metaphor text rendering of the editor's three panes
//! (source, dependences, variables).
//!
//! The GUI substitution is deliberate (see DESIGN.md): every claim the
//! paper makes about the interface is about *what the panes contain and how
//! marking/filtering/steering behave*, all of which [`render`] and
//! [`session`] expose as data and text.

pub mod autopar;
pub mod autopilot;
pub mod campaign;
pub mod check;
pub mod equiv;
pub mod filters;
pub mod render;
pub mod serve;
pub mod session;
pub mod store;

pub use autopar::autoparallelize;
pub use autopilot::{
    autopilot, render_suggest, suggest, AutopilotConfig, AutopilotOutcome, NestPlan,
    NestSuggestion, PlanOutcome, PlanStep, Suggestions,
};
pub use campaign::{classify, run_campaign, CampaignConfig, CampaignOutcome, Discrepancy};
pub use check::{LoopValidation, RaceFinding, RaceVerdict, ValidationReport};
pub use filters::{DepFilter, SourceFilter};
pub use ped_obs::{IncrementalReport, ProfileReport, PROFILE_SCHEMA_VERSION};
pub use serve::{Daemon, ServeStats};
pub use session::{
    build_unit_graph, parse_xform, Assertion, BatchReport, DepKey, DepStatus, Mark, Ped, PedError,
};
pub use store::{GraphStore, StoredGraph};
