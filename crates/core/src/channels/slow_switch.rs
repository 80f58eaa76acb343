//! The slow-switch covert channel (paper §V-E): encoding bits in
//! Length-Changing-Prefix stall and DSB↔MITE switch behaviour.
//!
//! The 1-encoding alternates normal and LCP `add`s ("mixed issue"),
//! maximising path switches; the 0-encoding groups them ("ordered issue"),
//! serialising LCP pre-decode stalls instead. The two loop bodies contain
//! identical instruction multisets, so the channel is invisible to
//! instruction-count monitoring — only the *interleaving* differs (§IV-H,
//! Fig. 4).

use leaky_frontend::ThreadId;
use leaky_isa::BlockChain;

use crate::channels::driver::{cycles_over, Driver, Measure, MeasureCtx};

/// Per-bit protocol overhead (cycles), calibrated alongside the non-MT
/// channels.
const PER_BIT_OVERHEAD_CYCLES: f64 = 2_200.0;

/// The §V-E slow-switch channel.
///
/// # Examples
///
/// ```
/// use leaky_cpu::ProcessorModel;
/// use leaky_frontends::channels::ChannelSpec;
/// use leaky_frontends::params::MessagePattern;
///
/// let mut ch = ChannelSpec::new("slow-switch")
///     .model(ProcessorModel::xeon_e2288g())
///     .seed(3)
///     .build()
///     .unwrap();
/// let msg = MessagePattern::Alternating.generate(16, 0);
/// let run = ch.transmit(&msg);
/// assert!(run.error_rate() < 0.2);
/// ```
pub(crate) type SlowSwitchChannel = Driver<SlowSwitch>;

/// The slow-switch receiver: it times `p` iterations of the mixed (1) or
/// ordered (0) loop body.
#[derive(Debug, Clone)]
pub(crate) struct SlowSwitch {
    pub(crate) mixed: BlockChain,
    pub(crate) ordered: BlockChain,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channels::ChannelSpec;
    use crate::params::{ChannelParams, MessagePattern};
    use leaky_cpu::ProcessorModel;

    #[test]
    fn transmits_on_table4_machines() {
        // Table IV evaluates the Gold 6226 and E-2288G.
        for model in [ProcessorModel::gold_6226(), ProcessorModel::xeon_e2288g()] {
            let mut ch = ChannelSpec::new("slow-switch")
                .model(model)
                .seed(9)
                .build()
                .unwrap();
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
        let ch = ChannelSpec::new("slow-switch")
            .seed(1)
            .slow_switch(ChannelParams::slow_switch_defaults());
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
        let mut ch = ChannelSpec::new("slow-switch")
            .model(ProcessorModel::xeon_e2288g())
            .seed(5)
            .build()
            .unwrap();
        let msg = MessagePattern::Random.generate(64, 77);
        let run = ch.transmit(&msg);
        assert!(run.error_rate() < 0.15);
    }
}
