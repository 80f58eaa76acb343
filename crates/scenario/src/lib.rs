//! `leaky_scenario` — data-driven microarchitecture profiles and
//! scenario bundles (DESIGN.md §13).
//!
//! The paper's cross-microarchitecture results historically lived in
//! exactly three hardcoded [`UarchProfile`](leaky_uarch::UarchProfile)s
//! and code-only sweep specs. This crate turns both registries into
//! *data*: versioned `leaky-frontends/scenario/v1` files that users
//! write, commit and run without recompiling.
//!
//! * [`toml`] is a hand-rolled, comment-aware TOML-subset parser — the
//!   workspace builds with no crates.io access, so the grammar is scoped
//!   to exactly what scenario files need (tables, strings, integers,
//!   floats, booleans, arrays) and rejects everything else with
//!   line-numbered errors.
//! * [`profile`] maps `kind = "profile"` files onto
//!   [`UarchProfile`](leaky_uarch::UarchProfile), validated
//!   field-by-field against `FrontendGeometry`/`CostModel`: a missing or
//!   unknown key is an error, never a silent default. The string-keyed
//!   [`ProfileRegistry`] merges the compiled-in profiles with a
//!   directory of files.
//! * [`bundle`] maps `kind = "scenario"` files — channel × profile ×
//!   params grid axes plus message, workload and optional noise tables —
//!   onto a [`ParamGrid`](leaky_exp::ParamGrid)-backed
//!   [`Experiment`](leaky_exp::Experiment), so loaded bundles run
//!   through the standard sweep runner with content keys derived from
//!   the loaded values: store, resume and telemetry work unchanged.
//!
//! The committed `scenarios/` library at the repository root holds the
//! three legacy profiles re-expressed as files (byte-identity with the
//! built-ins is pinned by tests), three new profiles (`goldencove`,
//! `efficiency_core`, `riscv_c920`) and runnable bundles;
//! `leaky_sweep --scenario FILE` is the CLI entry point.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod bundle;
pub mod profile;
pub mod toml;

pub use bundle::{load_bundle, parse_bundle, ScenarioBundle};
pub use profile::{encode_profile, parse_profile, ProfileFileExt, ProfileRegistry};

use std::fmt;

/// An error from parsing or validating a scenario file.
///
/// Carries the 1-based line number when the error is anchored to a
/// specific line (`0` for document-level errors such as a missing
/// table). Messages are stable — the malformed-file corpus tests pin
/// them — so downstream tooling can match on them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// 1-based line the error is anchored to; 0 for document-level
    /// errors.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl ScenarioError {
    /// An error anchored to a line.
    pub fn at(line: usize, message: impl Into<String>) -> Self {
        ScenarioError {
            line,
            message: message.into(),
        }
    }

    /// A document-level error (no line anchor).
    pub fn doc(message: impl Into<String>) -> Self {
        Self::at(0, message)
    }

    /// Prefixes the rendered error with a file path, for callers that
    /// read from disk.
    pub fn in_file(self, path: &std::path::Path) -> Self {
        ScenarioError::doc(format!("{}: {self}", path.display()))
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            f.write_str(&self.message)
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Interns a loaded string for APIs that want `&'static str`
/// ([`Experiment::name`](leaky_exp::Experiment::name), profile keys).
/// Scenario files are loaded once per process, so the leak is bounded
/// by the file contents.
pub(crate) fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}
