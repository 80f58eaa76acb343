//! The noisy `rdtscp` timing source.
//!
//! All the paper's timing attacks run at user level using `rdtscp` (§III).
//! Real measurements carry pipeline jitter and occasional interrupt spikes.
//! The §XI side channel's *low-frequency* (10 Hz) timer is the sample
//! window of `leaky_frontends`' IPC sampler, not a reading of this one.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Measurement-noise parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Gaussian jitter per reading (σ, cycles).
    pub sigma_cycles: f64,
    /// Probability that a reading lands on an interrupt/SMI spike.
    pub spike_probability: f64,
    /// Magnitude of a spike (cycles).
    pub spike_cycles: f64,
}

impl NoiseModel {
    /// A noise model with a given jitter and the default spike behaviour.
    pub fn with_sigma(sigma_cycles: f64) -> Self {
        NoiseModel {
            sigma_cycles,
            spike_probability: 0.002,
            spike_cycles: 400.0,
        }
    }

    /// A perfectly clean timer (for property tests: zero noise must give
    /// zero channel error).
    pub const fn noiseless() -> Self {
        NoiseModel {
            sigma_cycles: 0.0,
            spike_probability: 0.0,
            spike_cycles: 0.0,
        }
    }
}

/// A deterministic (seeded) noisy timer over an externally maintained cycle
/// clock.
#[derive(Debug, Clone)]
pub struct Timer {
    noise: NoiseModel,
    rng: StdRng,
}

impl Timer {
    /// Creates a timer with a noise model and seed.
    pub fn new(noise: NoiseModel, seed: u64) -> Self {
        Timer {
            noise,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The noise model.
    pub fn noise(&self) -> NoiseModel {
        self.noise
    }

    /// Produces an `rdtscp`-style reading of `clock_cycles`: the true value
    /// plus jitter and occasional spikes. Readings are not guaranteed
    /// monotonic at σ-scale, matching real back-to-back `rdtscp` behaviour.
    pub fn read(&mut self, clock_cycles: f64) -> f64 {
        let mut value = clock_cycles + self.gaussian() * self.noise.sigma_cycles;
        if self.noise.spike_probability > 0.0 && self.rng.gen_bool(self.noise.spike_probability) {
            value += self.noise.spike_cycles;
        }
        value
    }

    fn gaussian(&mut self) -> f64 {
        let u1: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noiseless_timer_is_exact() {
        let mut t = Timer::new(NoiseModel::noiseless(), 0);
        for v in [0.0, 123.0, 1e9] {
            assert_eq!(t.read(v), v);
        }
    }

    #[test]
    fn noise_is_centered_and_bounded() {
        let mut t = Timer::new(
            NoiseModel {
                sigma_cycles: 10.0,
                spike_probability: 0.0,
                spike_cycles: 0.0,
            },
            7,
        );
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| t.read(1000.0)).sum::<f64>() / n as f64;
        assert!((mean - 1000.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn spikes_occur_at_configured_rate() {
        let mut t = Timer::new(
            NoiseModel {
                sigma_cycles: 0.0,
                spike_probability: 0.1,
                spike_cycles: 1000.0,
            },
            3,
        );
        let n = 20_000;
        let spikes = (0..n).filter(|_| t.read(0.0) > 500.0).count();
        let rate = spikes as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.02, "spike rate {rate}");
    }

    #[test]
    fn seeded_timers_are_reproducible() {
        let mut a = Timer::new(NoiseModel::with_sigma(5.0), 99);
        let mut b = Timer::new(NoiseModel::with_sigma(5.0), 99);
        for _ in 0..100 {
            assert_eq!(a.read(50.0), b.read(50.0));
        }
    }
}
