//! Benchmark harness regenerating every table and figure of the *Leaky
//! Frontends* paper (HPCA 2022).
//!
//! Each table/figure has a dedicated binary (`fig2_path_histogram`,
//! `tab3_all_channels`, ...) that prints the same rows/series the paper
//! reports; the `perf_report` binary times the frontend primitives,
//! per-bit channel costs and model ablations against the committed
//! `BENCH_frontend.json` baseline ([`perf`]). See DESIGN.md §3 for the
//! experiment index and EXPERIMENTS.md for paper-vs-measured results.
//!
//! The heavy parameter sweeps (Table III, Fig. 8, Tables V and VII) are
//! registered as `leaky_exp` specs and run on its deterministic worker
//! pool; the `leaky_sweep` binary is the unified CLI and the [`sweep`]
//! module holds its renderers (DESIGN.md §7).

#![forbid(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod debug;
pub mod perf;
pub mod sweep;
pub mod table;

pub use table::TableWriter;
