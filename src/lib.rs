//! Umbrella crate for the `leaky-frontends` reproduction workspace.
//!
//! Re-exports every subsystem so that examples and integration tests can use
//! one coherent namespace. See the individual crates for full documentation:
//!
//! * [`isa`] — x86-like instruction & code-layout model
//! * [`uarch`] — microarchitecture profiles (geometry + cost model registry)
//! * [`frontend`] — MITE / DSB / LSD frontend simulator
//! * [`backend`] — execution-engine model (ports, IPC)
//! * [`cache`] — L1I / L1D cache models and attack helpers
//! * [`power`] — RAPL-style energy counter
//! * [`cpu`] — composed SMT core with Table I processor presets
//! * [`attacks`] — the paper's covert channels, side channels and
//!   fingerprinting attacks
//! * [`spectre`] — Spectre v1 variants over six covert channels
//! * [`workloads`] — synthetic victim workloads for fingerprinting
//! * [`stats`] — histograms, edit distance, threshold calibration
//! * [`store`] — content-addressed on-disk result store (resumable sweeps)
//! * [`exp`] — deterministic parallel experiment orchestration (sweeps)
//! * [`scenario`] — data-driven profile & scenario files (TOML subset)
//! * [`trace`] — zero-cost-when-off structured trace & telemetry layer

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub use leaky_backend as backend;
pub use leaky_cache as cache;
pub use leaky_cpu as cpu;
pub use leaky_exp as exp;
pub use leaky_frontend as frontend;
pub use leaky_frontends as attacks;
pub use leaky_isa as isa;
pub use leaky_power as power;
pub use leaky_scenario as scenario;
pub use leaky_spectre as spectre;
pub use leaky_stats as stats;
pub use leaky_store as store;
pub use leaky_trace as trace;
pub use leaky_uarch as uarch;
pub use leaky_workloads as workloads;
