//! `leaky_store` — on-disk content-addressed result store for sweeps.
//!
//! Every `leaky_exp` cell carries a deterministic content key
//! (`exp/axis=value/...`) and a scheduling-independent seed, so a cell's
//! measurement is a pure function of `(content key, code fingerprint)`.
//! This crate persists those measurements (DESIGN.md §11), which is what
//! makes sweeps crash-safe:
//!
//! * interrupted sweeps **resume**: a rerun recomputes only the cells the
//!   store does not hold;
//! * code changes **invalidate** selectively: entries written under a
//!   different fingerprint are stale and recomputed, never served;
//! * on-disk damage **quarantines**: an entry that fails structural or
//!   checksum validation is moved to `quarantine/` (never deleted, never
//!   trusted) and its cell is recomputed.
//!
//! Writes are atomic (temp file + rename on the same filesystem), entries
//! are versioned self-describing text ([`entry`]), and metric values are
//! stored as exact IEEE-754 bit patterns so a warm-store rerun renders
//! byte-identical output to a cold run. Nothing in an entry depends on
//! wall-clock time — the store is itself deterministic, and the crate is
//! covered by the workspace determinism lints.
//!
//! The layout follows probe-rs's data-driven store discipline: flat,
//! human-inspectable files under a versioned root, no database.
//!
//! ```text
//! <root>/
//!   format          the store format version marker
//!   entries/        one .entry file per cell, named by FNV-1a(key)
//!   quarantine/     corrupt entries, moved aside for post-mortems
//!   tmp/            staging area for atomic writes
//! ```

#![forbid(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(missing_docs)]

pub mod entry;
pub mod store;

pub use entry::{Entry, EntryError, StoredMetric, StoredOutcome, StoredProvenance, FORMAT_VERSION};
pub use store::{Lookup, ResultStore, StoreError, StoreStats};
