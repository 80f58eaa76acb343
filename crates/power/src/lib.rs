//! RAPL-style energy counter and frontend power model.
//!
//! The paper's power-based channels (§VII) observe that delivering µops via
//! the LSD, the DSB or the MITE draws measurably different package power
//! (Fig. 9: roughly 50 W / 55 W / 65 W on the Xeon Gold 6226), and read the
//! difference through Intel's Running Average Power Limit (RAPL) interface.
//! Two properties of RAPL shape the attacks and are modeled here:
//!
//! * the counter is **cumulative energy** (µJ), so attackers compute power as
//!   ΔE/Δt between two reads;
//! * it only **updates at ~20 kHz** (every ~50 µs, §VII), which caps the
//!   channel bandwidth — hence the paper's p = q = 240 000 iterations per
//!   bit and ~0.6 Kbps rates (Table V).
//!
//! # Examples
//!
//! ```
//! use leaky_power::{DeliveryClass, PowerModel, Rapl};
//!
//! let model = PowerModel::gold6226();
//! let mut rapl = Rapl::new(42);
//! // 1 ms of pure-MITE delivery at 2.7 GHz:
//! let joules = model.energy_joules(DeliveryClass::Mite, 2_700_000.0, 2.7e9);
//! rapl.deposit(joules, 0.001);
//! let reading = rapl.read(0.0011);
//! assert!(reading > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Which frontend structure delivered a span of µops, for power accounting.
///
/// This mirrors the frontend simulator's delivery paths without depending on
/// it, so the power model stays reusable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeliveryClass {
    /// µops streamed from the Loop Stream Detector (lowest power).
    Lsd,
    /// µops delivered from the DSB / micro-op cache.
    Dsb,
    /// µops decoded by the legacy MITE pipeline (highest power).
    Mite,
    /// Frontend idle / other activity (baseline package power).
    Idle,
}

impl fmt::Display for DeliveryClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeliveryClass::Lsd => "LSD",
            DeliveryClass::Dsb => "DSB",
            DeliveryClass::Mite => "MITE",
            DeliveryClass::Idle => "idle",
        };
        f.write_str(s)
    }
}

/// Package power by frontend delivery class, in watts.
///
/// Values fitted to the paper's Fig. 9 histogram for the Xeon Gold 6226
/// (LSD ≈ 50 W, DSB ≈ 55 W, MITE+DSB ≈ 65 W).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Package power while streaming from the LSD.
    pub lsd_watts: f64,
    /// Package power while delivering from the DSB.
    pub dsb_watts: f64,
    /// Package power while the MITE decoders are active.
    pub mite_watts: f64,
    /// Idle package power.
    pub idle_watts: f64,
    /// Gaussian noise (σ, watts) on instantaneous power — thermal and
    /// workload noise visible in Fig. 9's overlapping distributions.
    pub noise_sigma_watts: f64,
}

impl PowerModel {
    /// Fig. 9 fit for the Intel Xeon Gold 6226.
    pub const fn gold6226() -> Self {
        PowerModel {
            lsd_watts: 50.0,
            dsb_watts: 55.0,
            mite_watts: 65.0,
            idle_watts: 38.0,
            noise_sigma_watts: 1.6,
        }
    }

    /// Mean power for a delivery class.
    pub const fn watts(&self, class: DeliveryClass) -> f64 {
        match class {
            DeliveryClass::Lsd => self.lsd_watts,
            DeliveryClass::Dsb => self.dsb_watts,
            DeliveryClass::Mite => self.mite_watts,
            DeliveryClass::Idle => self.idle_watts,
        }
    }

    /// Energy in joules for `cycles` of execution in `class` at `freq_hz`.
    ///
    /// # Panics
    ///
    /// Panics if `freq_hz` is not positive.
    pub fn energy_joules(&self, class: DeliveryClass, cycles: f64, freq_hz: f64) -> f64 {
        assert!(freq_hz > 0.0, "frequency must be positive");
        self.watts(class) * cycles / freq_hz
    }

    /// A noisy instantaneous power sample for `class`, using the supplied
    /// RNG (Box-Muller transform; no extra dependencies).
    pub fn sample_watts<R: Rng>(&self, class: DeliveryClass, rng: &mut R) -> f64 {
        self.watts(class) + gaussian(rng) * self.noise_sigma_watts
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        Self::gold6226()
    }
}

/// Standard normal sample via Box-Muller.
fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A simulated RAPL package-energy counter.
///
/// Energy deposits accumulate continuously, but reads only observe the value
/// as of the most recent *update boundary* (every [`Rapl::UPDATE_INTERVAL_S`]),
/// reproducing the ~20 kHz quantization that limits power-channel bandwidth
/// (§VII). Reads also carry a small quantization jitter.
///
/// Two counters compare equal when their whole state does — exact and
/// visible energy, last boundary and jitter RNG — so a test can check
/// that two ways of depositing the same work agree on every later read.
#[derive(Debug, Clone, PartialEq)]
pub struct Rapl {
    /// Energy deposited so far, microjoules (exact).
    energy_uj: f64,
    /// Energy visible at the last update boundary.
    visible_uj: f64,
    /// Time of the last update boundary, seconds.
    last_update_s: f64,
    rng: StdRng,
}

impl Rapl {
    /// RAPL update interval: 50 µs ≈ 20 kHz (paper §VII, citing PLATYPUS).
    pub const UPDATE_INTERVAL_S: f64 = 50e-6;

    /// Counter quantization in microjoules (RAPL's energy-status unit is
    /// ~61 µJ on server parts).
    pub const QUANTUM_UJ: f64 = 61.0;

    /// Creates a counter with a deterministic noise seed.
    pub fn new(seed: u64) -> Self {
        Rapl {
            energy_uj: 0.0,
            visible_uj: 0.0,
            last_update_s: 0.0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Deposits `joules` of consumption occurring up to time `now_s`.
    ///
    /// # Panics
    ///
    /// Panics if `joules` is negative.
    pub fn deposit(&mut self, joules: f64, now_s: f64) {
        self.deposit_quiet(joules);
        self.advance(now_s);
    }

    /// Deposits `joules` at a time that does not reach the next update
    /// boundary ([`Rapl::reaches_update`] is false for it): a plain
    /// energy add, exactly what [`Rapl::deposit`] does at such a time.
    ///
    /// # Panics
    ///
    /// Panics if `joules` is negative.
    #[inline]
    pub fn deposit_quiet(&mut self, joules: f64) {
        assert!(joules >= 0.0, "energy cannot decrease");
        self.energy_uj += joules * 1e6;
    }

    /// The time of the next update boundary, seconds. It never
    /// decreases: deposits and reads only move the boundary forward.
    pub fn next_update_s(&self) -> f64 {
        self.last_update_s + Self::UPDATE_INTERVAL_S
    }

    /// Whether a deposit or read at `now_s` reaches the next update
    /// boundary. Non-decreasing in `now_s`.
    pub fn reaches_update(&self, now_s: f64) -> bool {
        Self::crosses(self.last_update_s, now_s)
    }

    /// Deposits `joules` `n` times, exactly as `n` calls of
    /// [`Rapl::deposit`] would, where the `k`-th call (from 1) happens at
    /// `now_at(k)`. `now_at` must not decrease in `k`.
    ///
    /// The energy goes through [`leaky_stats::add_repeated`]. Between two
    /// update boundaries nothing else changes, and whether a call crosses
    /// one depends monotonically on its time, so each crossing is found
    /// by binary search and served by the same `advance` the `k`-th
    /// deposit would run: the same energy, the same boundary snap and
    /// the same jitter draw. The cost is O(log n) evaluations of
    /// `now_at` per boundary crossed.
    ///
    /// # Panics
    ///
    /// Panics if `joules` is negative.
    pub fn deposit_repeated(&mut self, joules: f64, n: u64, now_at: impl Fn(u64) -> f64) {
        assert!(joules >= 0.0, "energy cannot decrease");
        let x = joules * 1e6;
        let mut done = 0;
        while done < n {
            let last = self.last_update_s;
            let fires = |k| Self::crosses(last, now_at(k));
            if !fires(n) {
                self.energy_uj = leaky_stats::add_repeated(self.energy_uj, x, n - done);
                return;
            }
            // The first deposit in `done + 1..=n` that crosses a boundary.
            let (mut lo, mut hi) = (done + 1, n);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if fires(mid) {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            self.energy_uj = leaky_stats::add_repeated(self.energy_uj, x, lo - done);
            self.advance(now_at(lo));
            done = lo;
        }
    }

    /// Reads the counter at time `now_s`, returning quantized microjoules as
    /// the hardware MSR would.
    pub fn read(&mut self, now_s: f64) -> u64 {
        self.advance(now_s);
        (self.visible_uj / Self::QUANTUM_UJ).floor() as u64 * Self::QUANTUM_UJ as u64
    }

    /// Exact (un-quantized) energy for test assertions.
    pub fn exact_uj(&self) -> f64 {
        self.energy_uj
    }

    /// Whether time `now_s` is at or past the update boundary after
    /// `last_update_s`.
    fn crosses(last_update_s: f64, now_s: f64) -> bool {
        now_s - last_update_s >= Self::UPDATE_INTERVAL_S
    }

    fn advance(&mut self, now_s: f64) {
        if Self::crosses(self.last_update_s, now_s) {
            // Snap to the boundary grid; visible value catches up with a
            // ±1 quantum sampling jitter.
            let boundaries = ((now_s - self.last_update_s) / Self::UPDATE_INTERVAL_S).floor();
            self.last_update_s += boundaries * Self::UPDATE_INTERVAL_S;
            let jitter = self.rng.gen_range(-1.0..1.0) * Self::QUANTUM_UJ;
            self.visible_uj = (self.energy_uj + jitter).max(self.visible_uj);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_ordering_matches_fig9() {
        let m = PowerModel::gold6226();
        assert!(m.watts(DeliveryClass::Lsd) < m.watts(DeliveryClass::Dsb));
        assert!(m.watts(DeliveryClass::Dsb) < m.watts(DeliveryClass::Mite));
        assert!(m.watts(DeliveryClass::Idle) < m.watts(DeliveryClass::Lsd));
    }

    #[test]
    fn energy_scales_with_cycles_and_frequency() {
        let m = PowerModel::gold6226();
        let e1 = m.energy_joules(DeliveryClass::Dsb, 1e6, 1e9);
        let e2 = m.energy_joules(DeliveryClass::Dsb, 2e6, 1e9);
        let e3 = m.energy_joules(DeliveryClass::Dsb, 1e6, 2e9);
        assert!((e2 - 2.0 * e1).abs() < 1e-12);
        assert!((e3 - e1 / 2.0).abs() < 1e-12);
    }

    #[test]
    fn rapl_reads_are_monotonic() {
        let mut r = Rapl::new(1);
        let mut last = 0;
        for i in 1..100 {
            r.deposit(0.001, i as f64 * 30e-6);
            let v = r.read(i as f64 * 30e-6);
            assert!(v >= last, "RAPL went backwards at step {i}");
            last = v;
        }
    }

    #[test]
    fn reads_within_update_interval_are_stale() {
        let mut r = Rapl::new(2);
        r.deposit(0.01, 10e-6); // well within the first 50 µs window
        let v = r.read(20e-6);
        assert_eq!(v, 0, "counter must not update before the 50 µs boundary");
        let v2 = r.read(60e-6);
        assert!(v2 > 0, "counter must update after the boundary");
    }

    #[test]
    fn quantization_floor() {
        let mut r = Rapl::new(3);
        r.deposit(100e-6, 0.1); // 100 µJ
        let v = r.read(0.2);
        assert_eq!(v % Rapl::QUANTUM_UJ as u64, 0);
        assert!(v <= 161); // 100 µJ + ≤1 quantum jitter
    }

    #[test]
    fn gaussian_noise_is_centered() {
        let m = PowerModel::gold6226();
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| m.sample_watts(DeliveryClass::Dsb, &mut rng))
            .sum::<f64>()
            / n as f64;
        assert!((mean - m.dsb_watts).abs() < 0.1, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "cannot decrease")]
    fn negative_deposit_rejected() {
        Rapl::new(0).deposit(-1.0, 0.0);
    }
}
