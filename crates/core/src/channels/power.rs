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
//! last simulated round. That fast-forward is an approximation, not an
//! exact shortcut: see `Core::replay` for what it moves.

use leaky_isa::BlockChain;
use rand::rngs::StdRng;
use rand::Rng;

use crate::channels::driver::{run_rounds, watts_over, Driver, Measure, MeasureCtx};
use crate::channels::non_mt::NonMtKind;

/// System power noise on a per-bit watts estimate (σ, watts): co-running
/// package activity that RAPL cannot separate from the attack (§VII's
/// error-rate source).
const WATTS_NOISE_SIGMA: f64 = 1.8;

/// A power-based non-MT covert channel (§VII, Table V).
///
/// # Examples
///
/// ```
/// use leaky_frontends::channels::ChannelSpec;
/// use leaky_frontends::params::MessagePattern;
///
/// let mut ch = ChannelSpec::new("power-eviction").seed(3).build().unwrap();
/// let msg = MessagePattern::Alternating.generate(8, 0);
/// let run = ch.transmit(&msg);
/// assert!(run.rate_kbps() < 10.0, "power channels are slow");
/// ```
pub(crate) type PowerChannel = Driver<Power>;

/// The power receiver: average package watts over `p` Init/Encode/Decode
/// rounds (stealthy zero-encoding), plus system power noise.
#[derive(Debug, Clone)]
pub(crate) struct Power {
    pub(crate) kind: NonMtKind,
    pub(crate) recv: BlockChain,
    pub(crate) send_one: BlockChain,
    pub(crate) send_zero: BlockChain,
    pub(crate) rng: StdRng,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channels::ChannelSpec;
    use crate::params::{ChannelParams, MessagePattern};

    #[test]
    fn power_eviction_channel_is_slow_but_works() {
        let mut ch = ChannelSpec::new("power-eviction").seed(21).build().unwrap();
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
        // The registry default for this channel is the power operating
        // point at d = 5.
        let mut ch = ChannelSpec::new("power-misalignment")
            .seed(22)
            .build()
            .unwrap();
        assert_eq!(ch.params().d, 5);
        let msg = MessagePattern::Alternating.generate(24, 0);
        let run = ch.transmit(&msg);
        assert!(
            run.error_rate() < 0.35,
            "misalignment power error {:.1}%",
            run.error_rate() * 100.0
        );
    }

    fn eviction_channel(seed: u64) -> PowerChannel {
        ChannelSpec::new("power-eviction")
            .seed(seed)
            .power(NonMtKind::Eviction, ChannelParams::power_defaults())
    }

    #[test]
    fn rapl_energy_grows_during_transmission() {
        let mut ch = eviction_channel(23);
        let before = ch.core.read_rapl();
        ch.transmit(&MessagePattern::AllOnes.generate(4, 0));
        let after = ch.core.read_rapl();
        assert!(after > before);
    }

    #[test]
    fn round_walk_counters_are_pinned() {
        // One seeded 16-bit transmission: every measure walks its
        // warm-up rounds (then replays the rest) on the graphs stored
        // for the whole call, calibration included, so only the first
        // walks of each encoding simulate, and `transmit` releases the
        // graphs.
        let mut ch = eviction_channel(5);
        ch.transmit(&MessagePattern::Random.generate(16, 5));
        let stats = ch.core.frontend().memo_stats();
        assert_eq!((stats.states, stats.edges), (0, 0), "{stats:?}");
        assert_eq!(
            stats,
            leaky_frontend::MemoStats {
                followed: 2_576,
                simulated: 16,
                ..leaky_frontend::MemoStats::default()
            }
        );
    }
}
