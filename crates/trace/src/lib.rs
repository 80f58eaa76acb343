//! `leaky_trace` — zero-cost-when-off structured trace & telemetry.
//!
//! The observability layer of the Leaky Frontends workspace (DESIGN.md
//! §12). A [`TraceHook`] handle is carried by `Frontend`, `Core` and the
//! covert channels; emission sites call [`TraceHook::emit`] with a
//! closure, so a disabled hook costs one discriminant branch and builds
//! nothing — `perf_report`'s `trace_off_*` metrics pin the overhead at
//! ≤1.02× the untraced medians.
//!
//! Three layers:
//!
//! - **Events** ([`TraceEvent`]): per-iteration delivery-path verdicts
//!   ([`Source`] transitions, LSD lock/unlock with [`UnlockReason`],
//!   LCP pre-decode stalls with cycle costs) and per-cell channel
//!   events (calibration thresholds, per-bit decode outcomes, session
//!   framing).
//! - **Summary** ([`StallSummary`]): per-source cycle/µop totals plus
//!   `leaky_stats::OnlineStats` stall histograms that merge
//!   bit-identically in any deterministic fold order.
//! - **Sinks & telemetry**: the [`TraceSink`] trait with its
//!   [`CsvSink`] for per-cell trace files, and a [`Telemetry`] record
//!   (schema `leaky_codec::schema::TRACE`) that rides along
//!   `leaky_exp::CellMeasurement` into sweep JSON.
//!
//! Every simulation crate links this crate, so it must not widen their
//! build graphs: its only dependency is the dependency-free leaf
//! `leaky_stats`.
//!
//! # Examples
//!
//! ```
//! use leaky_trace::{Source, TraceEvent, TraceHook, TraceMode};
//!
//! let mut hook = TraceHook::new(TraceMode::Summary);
//! hook.emit(|| TraceEvent::LcpStall { thread: 0, stall_cycles: 6.0 });
//! let summary = hook.summary().expect("hook is on");
//! assert_eq!(summary.lcp_stall.count(), 1);
//!
//! let mut off = TraceHook::Off;
//! off.emit(|| unreachable!("never built when off"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod codec;
pub mod event;
pub mod hook;
pub mod sink;
pub mod summary;
pub mod telemetry;

pub use codec::CodecError;
pub use event::{Source, TraceEvent, UnlockReason, CSV_HEADER};
pub use hook::{EventBuffer, TraceHook, TraceMode};
pub use sink::{drain, CsvSink, TraceSink};
pub use summary::{SourceTotals, StallSummary};
pub use telemetry::Telemetry;
