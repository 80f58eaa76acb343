//! Synthetic victim workload models for the fingerprinting side channel
//! (paper §XI).
//!
//! The paper fingerprints co-located victims — Geekbench 5 mobile workloads
//! (§XI-B) and TVM CNN inference (§XI-C) — purely through the *time-varying
//! frontend demand* they exert on the shared MITE, observed as fluctuation
//! in the attacker's own IPC. Since the real benchmark suites are
//! proprietary (and irrelevant beyond their demand waveforms), this crate
//! substitutes **phase-trace models**: deterministic demand waveforms whose
//! shapes mirror each workload's published structure (convolution layer
//! schedules, fire modules, dense blocks, bursty UI workloads...). See
//! DESIGN.md for the substitution rationale.
//!
//! A demand sample is a value in `[0, 1]`: the fraction of peak frontend
//! (MITE) pressure the victim exerts during one attacker sampling window
//! (100 ms at the paper's 10 Hz low-precision timer).
//!
//! # Examples
//!
//! ```
//! use leaky_workloads::{cnn, Workload};
//!
//! let models = cnn::models();
//! assert_eq!(models.len(), 4);
//! let alexnet = &models[0];
//! let trace = alexnet.demand_trace(100);
//! assert_eq!(trace.len(), 100);
//! assert!(trace.iter().all(|&d| (0.0..=1.0).contains(&d)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

use std::fmt;

/// A deterministic demand waveform.
#[derive(Debug, Clone, PartialEq)]
pub enum Pattern {
    /// Constant demand.
    Constant(f64),
    /// Square wave: `period` samples, the first `duty` of them at `hi`,
    /// the rest at `lo`.
    Square {
        /// Period in samples.
        period: usize,
        /// Samples per period spent at `hi`.
        duty: usize,
        /// High level.
        hi: f64,
        /// Low level.
        lo: f64,
    },
    /// Rising sawtooth from `lo` to `hi` over `period` samples.
    Sawtooth {
        /// Period in samples.
        period: usize,
        /// Start level.
        lo: f64,
        /// End level.
        hi: f64,
    },
    /// Sinusoid with the given period, midpoint and amplitude.
    Sine {
        /// Period in samples.
        period: usize,
        /// Midpoint level.
        mid: f64,
        /// Amplitude.
        amp: f64,
    },
    /// Explicit repeating phase schedule: `(length_in_samples, level)`
    /// segments (models layer-by-layer inference schedules).
    Phases(Vec<(usize, f64)>),
}

impl Pattern {
    /// Demand at sample index `i`, clamped to `[0, 1]`.
    pub fn demand_at(&self, i: usize) -> f64 {
        let v = match self {
            Pattern::Constant(level) => *level,
            Pattern::Square {
                period,
                duty,
                hi,
                lo,
            } => {
                if i % period < *duty {
                    *hi
                } else {
                    *lo
                }
            }
            Pattern::Sawtooth { period, lo, hi } => {
                let frac = (i % period) as f64 / *period as f64;
                lo + (hi - lo) * frac
            }
            Pattern::Sine { period, mid, amp } => {
                mid + amp
                    * (2.0 * std::f64::consts::PI * (i % period) as f64 / *period as f64).sin()
            }
            Pattern::Phases(phases) => {
                let total: usize = phases.iter().map(|(len, _)| len).sum();
                debug_assert!(total > 0, "phase schedule must be non-empty");
                let mut pos = i % total;
                for &(len, level) in phases {
                    if pos < len {
                        return level.clamp(0.0, 1.0);
                    }
                    pos -= len;
                }
                unreachable!("pos < total by construction")
            }
        };
        v.clamp(0.0, 1.0)
    }
}

/// A named victim workload with a demand waveform.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    name: &'static str,
    pattern: Pattern,
}

impl Workload {
    /// Creates a workload.
    pub fn new(name: &'static str, pattern: Pattern) -> Self {
        Workload { name, pattern }
    }

    /// The workload's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The underlying waveform.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// Demand at one attacker sampling window.
    pub fn demand_at(&self, sample: usize) -> f64 {
        self.pattern.demand_at(sample)
    }

    /// The first `n` demand samples.
    pub fn demand_trace(&self, n: usize) -> Vec<f64> {
        (0..n).map(|i| self.demand_at(i)).collect()
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)
    }
}

/// CNN inference victims (§XI-C): demand schedules shaped after each
/// network's layer structure.
pub mod cnn {
    use super::{Pattern, Workload};

    /// AlexNet: 5 convolution layers of decreasing spatial size followed by
    /// 3 dense layers — a few long, distinct phases per inference.
    pub fn alexnet() -> Workload {
        Workload::new(
            "AlexNet",
            Pattern::Phases(vec![
                (6, 0.95),
                (5, 0.75),
                (4, 0.85),
                (4, 0.70),
                (3, 0.60),
                (4, 0.30),
                (3, 0.25),
                (2, 0.20),
            ]),
        )
    }

    /// SqueezeNet: eight fire modules, each a short squeeze (1×1, cheap)
    /// followed by a wider expand — rapid alternation.
    pub fn squeezenet() -> Workload {
        Workload::new(
            "SqueezeNet",
            Pattern::Square {
                period: 4,
                duty: 1,
                hi: 0.85,
                lo: 0.35,
            },
        )
    }

    /// VGG: sixteen nearly uniform 3×3 convolution layers — long, flat,
    /// heavy demand with a small dip between blocks.
    pub fn vgg() -> Workload {
        Workload::new(
            "VGG",
            Pattern::Phases(vec![(12, 0.92), (2, 0.80), (12, 0.95), (2, 0.78)]),
        )
    }

    /// DenseNet: dense blocks whose layer cost grows with concatenated
    /// inputs — a rising sawtooth per block.
    pub fn densenet() -> Workload {
        Workload::new(
            "DenseNet",
            Pattern::Sawtooth {
                period: 10,
                lo: 0.30,
                hi: 0.95,
            },
        )
    }

    /// The four models of Fig. 11, in the paper's order.
    pub fn models() -> Vec<Workload> {
        vec![alexnet(), squeezenet(), vgg(), densenet()]
    }
}

/// Mobile benchmark victims (§XI-B): ten profiles shaped after Geekbench 5
/// workload categories.
pub mod mobile {
    use super::{Pattern, Workload};

    /// The ten benchmark profiles used for §XI-B.
    pub fn benchmarks() -> Vec<Workload> {
        vec![
            Workload::new(
                "camera",
                Pattern::Square {
                    period: 6,
                    duty: 4,
                    hi: 0.90,
                    lo: 0.50,
                },
            ),
            Workload::new(
                "navigation",
                Pattern::Sine {
                    period: 14,
                    mid: 0.55,
                    amp: 0.25,
                },
            ),
            Workload::new(
                "speech-recognition",
                Pattern::Phases(vec![(3, 0.85), (2, 0.40), (4, 0.75), (3, 0.30)]),
            ),
            Workload::new(
                "text-rendering",
                Pattern::Square {
                    period: 3,
                    duty: 1,
                    hi: 0.65,
                    lo: 0.15,
                },
            ),
            Workload::new(
                "html5-parse",
                Pattern::Sawtooth {
                    period: 7,
                    lo: 0.20,
                    hi: 0.80,
                },
            ),
            Workload::new(
                "pdf-rendering",
                Pattern::Phases(vec![(5, 0.70), (5, 0.95), (4, 0.45)]),
            ),
            Workload::new(
                "image-inpainting",
                Pattern::Sine {
                    period: 9,
                    mid: 0.70,
                    amp: 0.20,
                },
            ),
            Workload::new("gaussian-blur", Pattern::Constant(0.88)),
            Workload::new(
                "ray-tracing",
                Pattern::Phases(vec![(8, 0.97), (1, 0.55), (8, 0.93), (1, 0.50)]),
            ),
            Workload::new(
                "machine-translation",
                Pattern::Square {
                    period: 10,
                    duty: 6,
                    hi: 0.75,
                    lo: 0.25,
                },
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_bounded_and_deterministic() {
        for w in cnn::models().iter().chain(mobile::benchmarks().iter()) {
            let a = w.demand_trace(200);
            let b = w.demand_trace(200);
            assert_eq!(a, b, "{} must be deterministic", w.name());
            assert!(
                a.iter().all(|&d| (0.0..=1.0).contains(&d)),
                "{} demand out of range",
                w.name()
            );
        }
    }

    #[test]
    fn ten_mobile_benchmarks_with_unique_names() {
        let b = mobile::benchmarks();
        assert_eq!(b.len(), 10);
        let names: std::collections::BTreeSet<&str> = b.iter().map(|w| w.name()).collect();
        assert_eq!(names.len(), 10);
    }

    #[test]
    fn cnn_traces_are_mutually_distinct() {
        // The waveforms must be separable — the whole point of §XI-C.
        let models = cnn::models();
        for i in 0..models.len() {
            for j in (i + 1)..models.len() {
                let a = models[i].demand_trace(60);
                let b = models[j].demand_trace(60);
                let dist: f64 = a
                    .iter()
                    .zip(&b)
                    .map(|(x, y)| (x - y).powi(2))
                    .sum::<f64>()
                    .sqrt();
                assert!(
                    dist > 0.5,
                    "{} and {} traces too similar ({dist})",
                    models[i].name(),
                    models[j].name()
                );
            }
        }
    }

    #[test]
    fn patterns_repeat_with_their_period() {
        let w = cnn::squeezenet();
        for i in 0..40 {
            assert_eq!(w.demand_at(i), w.demand_at(i + 4));
        }
        let phases = cnn::alexnet();
        let total = 6 + 5 + 4 + 4 + 3 + 4 + 3 + 2;
        for i in 0..total {
            assert_eq!(phases.demand_at(i), phases.demand_at(i + total));
        }
    }

    #[test]
    fn sawtooth_rises_within_period() {
        let w = cnn::densenet();
        for i in 0..9 {
            assert!(w.demand_at(i) < w.demand_at(i + 1));
        }
        assert!(w.demand_at(10) < w.demand_at(9), "resets at period");
    }

    #[test]
    fn display_uses_name() {
        assert_eq!(cnn::vgg().to_string(), "VGG");
    }
}
