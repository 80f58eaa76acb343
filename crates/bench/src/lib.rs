//! Benchmark harness regenerating every table and figure of the *Leaky
//! Frontends* paper (HPCA 2022).
//!
//! The parameter sweeps (Tables II, III, V and VII, Fig. 8 and the
//! cross-uarch grids) are registered `leaky_exp` specs, run on its
//! deterministic worker pool by the `leaky_sweep` binary; the [`sweep`]
//! module holds its table and JSON renderers (DESIGN.md §7). The other
//! tables and figures have a dedicated binary (`fig2_path_histogram`,
//! `tab4_slow_switch`, ...) that prints the rows/series the paper
//! reports; the `perf_report` binary times the frontend primitives,
//! per-bit channel costs and model ablations against the committed
//! `BENCH_frontend.json` baseline ([`perf`]). See DESIGN.md §3 for the
//! experiment index and EXPERIMENTS.md for paper-vs-measured results.

#![forbid(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod perf;
pub mod sweep;
pub mod table;

pub use table::TableWriter;
