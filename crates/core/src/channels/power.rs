//! Power-based covert channels over RAPL (paper §VII).
//!
//! Same Init/Encode/Decode structure as the non-MT timing channels, but the
//! receiver reads Intel RAPL energy counters instead of a timer. Because
//! RAPL updates only every ~50 µs, each bit must span many update intervals:
//! p = q = 240 000 iterations per bit (§VII), which caps the bandwidth near
//! 0.6 Kbps (Table V).
//!
//! The per-bit work simulates a warm-up prefix of rounds exactly, in one
//! [`leaky_cpu::Core::run_rounds`] call, and then fast-forwards the rest
//! with [`leaky_cpu::Core::replay`], which charges them as copies of the
//! last simulated round.

use leaky_cpu::ProcessorModel;
use leaky_frontend::UarchProfile;
use leaky_isa::BlockChain;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::channels::driver::{run_rounds, watts_over, Driver, Measure, MeasureCtx};
use crate::channels::layout;
use crate::channels::non_mt::NonMtKind;
use crate::params::ChannelParams;

/// System power noise on a per-bit watts estimate (σ, watts): co-running
/// package activity that RAPL cannot separate from the attack (§VII's
/// error-rate source).
const WATTS_NOISE_SIGMA: f64 = 1.8;

/// A power-based non-MT covert channel (§VII, Table V).
///
/// # Examples
///
/// ```
/// use leaky_cpu::ProcessorModel;
/// use leaky_frontends::channels::non_mt::NonMtKind;
/// use leaky_frontends::channels::power::PowerChannel;
/// use leaky_frontends::params::{ChannelParams, MessagePattern};
///
/// let mut ch = PowerChannel::new(
///     ProcessorModel::gold_6226(),
///     NonMtKind::Eviction,
///     ChannelParams::power_defaults(),
///     3,
/// );
/// let msg = MessagePattern::Alternating.generate(8, 0);
/// let run = ch.transmit(&msg);
/// assert!(run.rate_kbps() < 10.0, "power channels are slow");
/// ```
pub type PowerChannel = Driver<Power>;

/// The power receiver: average package watts over `p` Init/Encode/Decode
/// rounds (stealthy zero-encoding), plus system power noise.
#[derive(Debug, Clone)]
pub struct Power {
    kind: NonMtKind,
    recv: BlockChain,
    send_one: BlockChain,
    send_zero: BlockChain,
    rng: StdRng,
}

impl Measure for Power {
    const WARMUP_BITS: usize = 4;
    const CALIBRATION_BITS: usize = 16;
    const MAX_RESAMPLE: u32 = 0;
    const BOTH_THREADS: bool = false;

    fn name(&self) -> &'static str {
        match self.kind {
            NonMtKind::Eviction => "power-eviction",
            NonMtKind::Misalignment => "power-misalignment",
        }
    }

    fn measure(&mut self, bit: bool, ctx: MeasureCtx<'_>) -> f64 {
        let encode = if bit { &self.send_one } else { &self.send_zero };
        let watts = watts_over(ctx.core, |core| {
            run_rounds(core, &self.recv, Some(encode), ctx.params.p);
        });
        let u1: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        let noise =
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos() * WATTS_NOISE_SIGMA;
        watts + noise
    }
}

impl PowerChannel {
    /// Builds the channel (stealthy zero-encoding, as in the paper's power
    /// evaluation) under the default (`skylake`) profile.
    ///
    /// # Panics
    ///
    /// Panics if the channel parameters violate the §V constraints
    /// (`ChannelParams::validate`).
    pub fn new(model: ProcessorModel, kind: NonMtKind, params: ChannelParams, seed: u64) -> Self {
        Self::with_profile(model, kind, params, &UarchProfile::skylake(), seed)
    }

    /// Builds the channel under an explicit microarchitecture profile
    /// (layout geometry and cost model from the profile).
    ///
    /// # Panics
    ///
    /// Panics if the channel parameters violate the §V constraints under
    /// the profile's geometry, or the geometry lacks a DSB set the layout
    /// uses (see [`validate_params`](crate::channels::registry::validate_params)).
    pub fn with_profile(
        model: ProcessorModel,
        kind: NonMtKind,
        params: ChannelParams,
        profile: &UarchProfile,
        seed: u64,
    ) -> Self {
        let (recv, send_one, send_zero) = layout(kind, &params, &profile.geometry);
        let primitive = Power {
            kind,
            recv,
            send_one,
            send_zero,
            rng: StdRng::seed_from_u64(seed ^ 0x70f_f4e7),
        };
        Driver::on_profile(model, profile, params, seed, primitive)
    }

    /// The underlying frontend primitive.
    pub fn kind(&self) -> NonMtKind {
        self.primitive.kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MessagePattern;

    #[test]
    fn power_eviction_channel_is_slow_but_works() {
        let mut ch = PowerChannel::new(
            ProcessorModel::gold_6226(),
            NonMtKind::Eviction,
            ChannelParams::power_defaults(),
            21,
        );
        let msg = MessagePattern::Alternating.generate(24, 0);
        let run = ch.transmit(&msg);
        // Table V: ~0.66 Kbps, 18.87% error. Require the same regime.
        assert!(
            run.rate_kbps() < 5.0,
            "power channel too fast: {:.3} Kbps",
            run.rate_kbps()
        );
        assert!(
            run.rate_kbps() > 0.05,
            "power channel unusably slow: {:.4} Kbps",
            run.rate_kbps()
        );
        assert!(
            run.error_rate() < 0.35,
            "error {:.1}%",
            run.error_rate() * 100.0
        );
    }

    #[test]
    fn power_misalignment_channel_works() {
        let mut ch = PowerChannel::new(
            ProcessorModel::gold_6226(),
            NonMtKind::Misalignment,
            ChannelParams {
                d: 5,
                ..ChannelParams::power_defaults()
            },
            22,
        );
        let msg = MessagePattern::Alternating.generate(24, 0);
        let run = ch.transmit(&msg);
        assert!(
            run.error_rate() < 0.35,
            "misalignment power error {:.1}%",
            run.error_rate() * 100.0
        );
    }

    #[test]
    fn rapl_energy_grows_during_transmission() {
        let mut ch = PowerChannel::new(
            ProcessorModel::gold_6226(),
            NonMtKind::Eviction,
            ChannelParams::power_defaults(),
            23,
        );
        let before = ch.core.read_rapl();
        ch.transmit(&MessagePattern::AllOnes.generate(4, 0));
        let after = ch.core.read_rapl();
        assert!(after > before);
    }

    #[test]
    fn round_walk_counters_are_pinned() {
        // One seeded 16-bit transmission: every measure simulates its
        // warm-up rounds in one round walk (then replays the rest), so
        // all but the first round or two of each walk follow recorded
        // edges, and no round graph outlives its walk.
        let mut ch = PowerChannel::new(
            ProcessorModel::gold_6226(),
            NonMtKind::Eviction,
            ChannelParams::power_defaults(),
            5,
        );
        ch.transmit(&MessagePattern::Random.generate(16, 5));
        let stats = ch.core.frontend().memo_stats();
        assert_eq!((stats.states, stats.edges), (0, 0), "{stats:?}");
        assert_eq!(
            stats,
            leaky_frontend::MemoStats {
                followed: 2_454,
                simulated: 138,
                ..leaky_frontend::MemoStats::default()
            }
        );
    }
}
