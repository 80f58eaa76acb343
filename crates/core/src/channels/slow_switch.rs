//! The slow-switch covert channel (paper §V-E): encoding bits in
//! Length-Changing-Prefix stall and DSB↔MITE switch behaviour.
//!
//! The 1-encoding alternates normal and LCP `add`s ("mixed issue"),
//! maximising path switches; the 0-encoding groups them ("ordered issue"),
//! serialising LCP pre-decode stalls instead. The two loop bodies contain
//! identical instruction multisets, so the channel is invisible to
//! instruction-count monitoring — only the *interleaving* differs (§IV-H,
//! Fig. 4).

use leaky_cpu::ProcessorModel;
use leaky_frontend::{ThreadId, UarchProfile};
use leaky_isa::{BlockChain, CodeRegion, LcpPattern};

use crate::channels::driver::{cycles_over, Driver, Measure, MeasureCtx};
use crate::params::ChannelParams;

/// Per-bit protocol overhead (cycles), calibrated alongside the non-MT
/// channels.
const PER_BIT_OVERHEAD_CYCLES: f64 = 2_200.0;

/// The §V-E slow-switch channel.
///
/// # Examples
///
/// ```
/// use leaky_cpu::ProcessorModel;
/// use leaky_frontends::channels::slow_switch::SlowSwitchChannel;
/// use leaky_frontends::params::{ChannelParams, MessagePattern};
///
/// let mut ch = SlowSwitchChannel::new(
///     ProcessorModel::xeon_e2288g(),
///     ChannelParams::slow_switch_defaults(),
///     3,
/// );
/// let msg = MessagePattern::Alternating.generate(16, 0);
/// let run = ch.transmit(&msg);
/// assert!(run.error_rate() < 0.2);
/// ```
pub type SlowSwitchChannel = Driver<SlowSwitch>;

/// The slow-switch receiver: it times `p` iterations of the mixed (1) or
/// ordered (0) loop body.
#[derive(Debug, Clone)]
pub struct SlowSwitch {
    mixed: BlockChain,
    ordered: BlockChain,
}

impl Measure for SlowSwitch {
    const WARMUP_BITS: usize = 0;
    const CALIBRATION_BITS: usize = 32;
    const MAX_RESAMPLE: u32 = 3;
    const BOTH_THREADS: bool = false;

    fn name(&self) -> &'static str {
        "slow-switch"
    }

    /// One bit measurement: the receiver brackets `p` iterations of the
    /// secret-selected loop body with the timer (§V-E: Init starts the
    /// timer, Decode stops it).
    fn measure(&mut self, bit: bool, ctx: MeasureCtx<'_>) -> f64 {
        let chain = if bit { &self.mixed } else { &self.ordered };
        let value = cycles_over(ctx.core, |core| {
            for _ in 0..ctx.params.p {
                core.run_once(ThreadId::T0, chain);
            }
        });
        ctx.core.idle(ThreadId::T0, PER_BIT_OVERHEAD_CYCLES);
        value
    }
}

impl SlowSwitchChannel {
    /// Builds the channel under the default (`skylake`) profile: two loop
    /// bodies of `2r` adds each (mixed and ordered interleavings) in
    /// disjoint code regions.
    ///
    /// # Panics
    ///
    /// Panics if the derived block chain is empty (`BlockChain::new`).
    pub fn new(model: ProcessorModel, params: ChannelParams, seed: u64) -> Self {
        Self::with_profile(model, params, &UarchProfile::skylake(), seed)
    }

    /// Builds the channel under an explicit microarchitecture profile:
    /// the loop bodies live in a geometry-aware code region and the core
    /// runs the profile's cost model — the LCP stall and path-switch
    /// penalties the channel rides on come from the profile (§V-E works,
    /// or dies, per microarchitecture).
    ///
    /// # Panics
    ///
    /// Panics if the derived block chain is empty (`BlockChain::new`).
    pub fn with_profile(
        model: ProcessorModel,
        params: ChannelParams,
        profile: &UarchProfile,
        seed: u64,
    ) -> Self {
        assert!(params.r > 0, "r must be positive");
        let mut region =
            CodeRegion::with_geometry(crate::channels::SENDER_REGION, profile.geometry);
        let mixed = BlockChain::new(vec![region.lcp_block(LcpPattern::Mixed, params.r)]);
        let ordered = BlockChain::new(vec![region.lcp_block(LcpPattern::Ordered, params.r)]);
        Driver::on_profile(model, profile, params, seed, SlowSwitch { mixed, ordered })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MessagePattern;

    #[test]
    fn transmits_on_table4_machines() {
        // Table IV evaluates the Gold 6226 and E-2288G.
        for model in [ProcessorModel::gold_6226(), ProcessorModel::xeon_e2288g()] {
            let mut ch = SlowSwitchChannel::new(model, ChannelParams::slow_switch_defaults(), 9);
            let msg = MessagePattern::Alternating.generate(48, 0);
            let run = ch.transmit(&msg);
            assert!(
                run.error_rate() < 0.10,
                "{}: slow-switch error {:.2}%",
                model.name,
                run.error_rate() * 100.0
            );
            assert!(
                run.rate_kbps() > 100.0,
                "{}: rate {:.1} Kbps",
                model.name,
                run.rate_kbps()
            );
        }
    }

    #[test]
    fn mixed_and_ordered_have_identical_instruction_multisets() {
        let ch = SlowSwitchChannel::new(
            ProcessorModel::gold_6226(),
            ChannelParams::slow_switch_defaults(),
            1,
        );
        let count = |c: &BlockChain, lcp: bool| {
            c.blocks()[0]
                .instructions()
                .iter()
                .filter(|i| i.has_lcp() == lcp)
                .count()
        };
        assert_eq!(
            count(&ch.primitive.mixed, true),
            count(&ch.primitive.ordered, true)
        );
        assert_eq!(
            count(&ch.primitive.mixed, false),
            count(&ch.primitive.ordered, false)
        );
    }

    #[test]
    fn random_message_roundtrip() {
        let mut ch = SlowSwitchChannel::new(
            ProcessorModel::xeon_e2288g(),
            ChannelParams::slow_switch_defaults(),
            5,
        );
        let msg = MessagePattern::Random.generate(64, 77);
        let run = ch.transmit(&msg);
        assert!(run.error_rate() < 0.15);
    }
}
