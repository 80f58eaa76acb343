//! Processor-frontend simulator: MITE, DSB (micro-op cache), LSD, IDQ path
//! selection, SMT arbitration and per-path performance counters.
//!
//! This crate is the substrate on which every attack in the paper runs. It
//! models the three µop-delivery paths of a Skylake-family frontend
//! (paper §IV, Fig. 1):
//!
//! * **MITE** — legacy fetch + pre-decode + 5-way decode; slow and
//!   power-hungry; shared between hyper-threads; stalls on Length-Changing
//!   Prefixes (§IV-H);
//! * **DSB** — the micro-op cache: 32 sets × 8 ways of 32-byte windows
//!   holding ≤ 6 µops each (§IV-B); competitively shared/partitioned under
//!   SMT;
//! * **LSD** — streams loops of ≤ 64 µops spanning ≤ 8 windows directly from
//!   the IDQ (§IV-A, §IV-G).
//!
//! The structures are **inclusive** (MITE ⊇ DSB ⊇ LSD, §IV): evicting a DSB
//! line flushes any LSD loop that contains it, and redirects delivery back to
//! the MITE — exactly the transition the paper's covert channels modulate.
//!
//! Simulation granularity is the *loop iteration over a block chain*: the
//! unit at which the paper's attacks measure timing. Per-instruction effects
//! (LCP stalls, per-instruction path switches) are modeled inside blocks that
//! contain LCP-prefixed instructions.
//!
//! # Examples
//!
//! ```
//! use leaky_frontend::{Frontend, FrontendConfig, ThreadId, UopSource};
//! use leaky_isa::{same_set_chain, Alignment, DsbSet};
//!
//! let mut fe = Frontend::new(FrontendConfig::default());
//! let chain = same_set_chain(0x0041_8000, DsbSet::new(0), 8, Alignment::Aligned);
//!
//! // First iteration decodes through the MITE and fills the DSB...
//! let cold = fe.run_iteration(ThreadId::T0, &chain);
//! assert!(cold.uops_from(UopSource::Mite) > 0);
//! // ...after the LSD's warm-up streak the whole loop streams from it.
//! for _ in 0..3 {
//!     fe.run_iteration(ThreadId::T0, &chain);
//! }
//! let warm = fe.run_iteration(ThreadId::T0, &chain);
//! assert_eq!(warm.uops_from(UopSource::Lsd), chain.total_uops() as u64);
//! assert!(warm.cycles < cold.cycles);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod costs;
pub mod counters;
pub mod dsb;
pub mod engine;
pub mod lsd;
mod plan;
pub mod reference;

pub use costs::CostModel;
pub use counters::{detect_report_period, IterationReport, UopSource};
pub use dsb::{Dsb, LineId, SmtDsbPolicy};
pub use engine::{EdgeNote, Frontend, FrontendConfig, MemoStats, SmtWalk, ThreadId};
// Re-exported so frontend consumers can install hooks without naming
// `leaky_trace` themselves (the hook rides on `Frontend`, not the config).
pub use leaky_trace::{TraceHook, TraceMode};
pub use leaky_uarch::UarchProfile;
pub use lsd::{lsd_qualifies, LsdVerdict};
pub use reference::NaiveFrontend;
