//! Statistics utilities shared by the `leaky-frontends` reproduction.
//!
//! The paper ("Leaky Frontends", HPCA 2022) relies on a small set of
//! statistical tools that this crate implements from scratch:
//!
//! * running summary statistics ([`OnlineStats`], Welford's algorithm) used to
//!   summarise timing and power measurements,
//! * fixed-bin [`Histogram`]s used to regenerate the timing/power histograms
//!   of Figures 2 and 9,
//! * the **Wagner-Fischer** edit distance (paper §VI) used to compute covert
//!   channel error rates between sent and received bit strings,
//! * the **Euclidean distance** (paper §XI) used to compare attacker IPC
//!   traces for application fingerprinting,
//! * threshold calibration for the timing decoder (paper §VI-B),
//! * exact repeated addition ([`add_repeated`]), which lets the simulator
//!   serve many identical steps at once with bit-identical `f64` sums.
//!
//! # Examples
//!
//! ```
//! use leaky_stats::{OnlineStats, edit_distance};
//!
//! let mut s = OnlineStats::new();
//! for x in [1.0, 2.0, 3.0] {
//!     s.push(x);
//! }
//! assert_eq!(s.mean(), 2.0);
//! assert_eq!(edit_distance(&[true, false, true], &[true, true, true]), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod distance;
pub mod histogram;
pub mod repeat;
pub mod summary;
pub mod threshold;

pub use distance::{
    edit_distance, edit_distance_bits, error_rate, euclidean_distance, mean_pairwise_distance,
    DistanceError,
};
pub use histogram::Histogram;
pub use repeat::add_repeated;
pub use summary::OnlineStats;
pub use threshold::{ThresholdDecoder, ThresholdDecoderBuilder};
