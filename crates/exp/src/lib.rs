//! `leaky_exp` — deterministic parallel experiment orchestration.
//!
//! The paper's headline results (Tables II–VII, Figs. 8–12) are
//! parameter sweeps: a grid of channel × machine × parameter cells, each
//! cell an independent simulation. This crate turns those sweeps into a
//! subsystem (DESIGN.md §7):
//!
//! * [`grid`] expands a declarative [`ParamGrid`] into ordered
//!   [`JobCell`]s, each with a stable *content key* naming its
//!   coordinates.
//! * [`seed`] derives a per-cell RNG seed by running splitmix64 over the
//!   cell's content key, so a cell's random stream depends only on *what*
//!   it computes — never on scheduling, worker count, or sibling cells.
//! * [`pool`] runs cells on a hand-rolled scoped worker pool
//!   (`std::thread::scope`; the container has no crates.io access) and
//!   [`collect::OrderedCollector`] re-sequences completions by cell
//!   index, so downstream folds see results in grid order regardless of
//!   which worker finished first.
//! * [`runner`] ties it together: an [`Experiment`] produces named f64
//!   metrics per cell; summaries fold per-cell Welford accumulators with
//!   `leaky_stats::summary::merge_ordered`, keeping output bit-identical
//!   at any `--jobs N`. A panicking cell is caught per-attempt and
//!   becomes a structured [`CellOutcome::Failed`] row (with bounded,
//!   deterministically re-seeded retries) instead of killing the sweep,
//!   and [`RunConfig`] wires in the `leaky_store` result store for
//!   crash-safe, resumable sweeps.
//! * [`fault`] is the deterministic fault-injection harness: a
//!   [`FaultPlan`] keyed by cell content key injects panics, errors,
//!   mid-grid aborts, and store corruption, so the recovery paths above
//!   are exercised by tests and CI drills, not just believed in.
//! * [`experiments`] registers the paper sweeps (`tab3_all_channels`,
//!   `tab2_mt_patterns`, `fig8_d_sweep`, `tab5_power_channels`,
//!   `tab7_spectre_miss_rates`, `tab3_uarch`) plus an RNG-stream demo
//!   grid; the `leaky_sweep` binary in `leaky_bench` is the one CLI
//!   over this registry.

#![forbid(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod collect;
pub mod experiments;
pub mod fault;
pub mod grid;
pub mod pool;
pub mod runner;
pub mod seed;

pub use collect::OrderedCollector;
pub use experiments::standard_registry;
pub use fault::{Fault, FaultKind, FaultParseError, FaultPlan};
pub use grid::{Axis, AxisValue, JobCell, ParamGrid};
pub use pool::{run_ordered, run_ordered_observed, CellPanic, Flow, PoolRun};
pub use runner::{
    code_fingerprint, run_experiment, run_experiment_with, CellMeasurement, CellOutcome,
    CellProvenance, CellResult, DuplicateExperiment, Experiment, Metric, Registry, RunConfig,
    SweepError, SweepRun,
};
pub use seed::{attempt_seed, cell_rng, derive_seed};
