//! `leaky_lint`: the workspace's custom static-analysis pass.
//!
//! Every guarantee this reproduction makes — sweeps byte-identical at
//! any `--jobs N`, scheduling-independent per-cell seeds, (chain key,
//! profile key)-safe memo caches — is a *determinism invariant*. This
//! crate machine-checks the invariants that no type, compile error or
//! single test can, over the workspace source instead of trusting
//! convention:
//!
//! * **determinism** — `wall-clock`, `unordered-collections` in the
//!   crates that feed content keys, sweep output or goldens (`exp`,
//!   `bench`, `stats`, `core`, ...);
//! * **panic-freedom** — `panic-path`: no `pub` library function
//!   reaches a panicking construct, transitively through the
//!   [`graph`] call graph, without a `# Panics` contract on the entry
//!   point;
//! * **zero-cost-tracing** — `trace-zero-cost`: `TraceHook::emit`
//!   stays closure-form so the off-mode hot path builds nothing;
//! * **cache-keys** — `key-completeness`: configuration structs and
//!   their key/provenance functions stay field-complete;
//! * **hygiene** — `stale-allow`: every escape suppresses something.
//!
//! The tool is self-contained (hand-rolled comment/string/raw-string
//! aware lexer, item parser and name-resolution call graph, no
//! dependencies) and runs as `cargo run -p leaky_lint -- check`.
//! Intentional exceptions are escaped per line with
//! `// lint: allow(<rule>)`; reviewed findings can instead be pinned in
//! the committed `lint-baseline.json` ratchet (see [`baseline`]). `--format json`
//! emits a stable machine-readable document. See DESIGN.md §10 for the
//! invariant catalogue.
//!
//! # Examples
//!
//! ```no_run
//! use leaky_lint::{check_workspace, LintConfig};
//!
//! let diags = check_workspace(std::path::Path::new("."), &LintConfig::default())?;
//! for d in &diags {
//!     eprintln!("{d}");
//! }
//! assert!(diags.is_empty(), "workspace must be lint-clean");
//! # Ok::<(), leaky_lint::LintError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod baseline;
pub mod cli;
pub mod config;
pub mod diag;
pub mod graph;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod source;
pub mod workspace;

pub use config::{KeyPair, LintConfig};
pub use diag::Diagnostic;
pub use rules::{RuleInfo, RULES};
pub use workspace::{find_root, LintError, Workspace};

use std::path::Path;

/// Loads the workspace at `root` and runs every rule, returning the
/// surviving (non-escaped) diagnostics sorted by file and line.
///
/// # Errors
///
/// [`LintError`] when the workspace cannot be read.
pub fn check_workspace(root: &Path, cfg: &LintConfig) -> Result<Vec<Diagnostic>, LintError> {
    let ws = Workspace::load(root)?;
    Ok(rules::run_all(&ws, cfg))
}
