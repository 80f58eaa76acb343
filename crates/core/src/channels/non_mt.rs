//! Non-multithreaded covert channels (paper §V-C, §V-D).
//!
//! Sender and receiver run on the *same* hardware thread; the receiver
//! times the sender's whole Init-Encode-Decode sequence and the signal is
//! the sender's **internal interference**: the 1-encoding perturbs the
//! frontend path of the blocks that the Init and Decode steps execute,
//! while the 0-encoding (silent or decoy-set) leaves them alone.

use leaky_cpu::ProcessorModel;
use leaky_frontend::{ThreadId, UarchProfile};
use leaky_isa::BlockChain;

use crate::channels::driver::{cycles_over, round, Driver, Measure, MeasureCtx};
use crate::channels::layout;
use crate::params::{ChannelParams, EncodeMode};

/// Which frontend primitive the channel modulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NonMtKind {
    /// DSB set-collision evictions (§V-C): the 1-encoding pushes the set
    /// over its 8 ways, forcing receiver blocks back to the MITE.
    Eviction,
    /// Misaligned (window-crossing) accesses (§V-D): the 1-encoding's
    /// crossing blocks perturb LSD/DSB residency without full evictions.
    Misalignment,
}

impl std::fmt::Display for NonMtKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NonMtKind::Eviction => f.write_str("eviction"),
            NonMtKind::Misalignment => f.write_str("misalignment"),
        }
    }
}

/// Fixed per-bit protocol overhead (loop management, synchronisation,
/// decision logic) in cycles; calibrated so absolute rates land in the
/// paper's range (Table III). The stealthy mode pays extra for its decoy
/// work and activity masking.
const FAST_OVERHEAD_CYCLES: f64 = 2_200.0;
const STEALTHY_OVERHEAD_CYCLES: f64 = 2_600.0;

/// A non-MT covert channel (§V-C eviction or §V-D misalignment variant, in
/// stealthy or fast mode).
///
/// See the [crate-level documentation](crate) for an end-to-end example.
pub type NonMtChannel = Driver<NonMt>;

/// The non-MT receiver: it times `p` whole Init-Encode-Decode rounds.
#[derive(Debug, Clone)]
pub struct NonMt {
    kind: NonMtKind,
    mode: EncodeMode,
    recv: BlockChain,
    send_one: BlockChain,
    /// The stealthy decoy encoding of a 0 (`None`: silent, fast mode).
    send_zero: Option<BlockChain>,
}

impl Measure for NonMt {
    const WARMUP_BITS: usize = 8;
    const CALIBRATION_BITS: usize = 32;
    const MAX_RESAMPLE: u32 = 3;
    const BOTH_THREADS: bool = false;

    fn name(&self) -> &'static str {
        match (self.kind, self.mode) {
            (NonMtKind::Eviction, EncodeMode::Stealthy) => "non-mt-stealthy-eviction",
            (NonMtKind::Eviction, EncodeMode::Fast) => "non-mt-fast-eviction",
            (NonMtKind::Misalignment, EncodeMode::Stealthy) => "non-mt-stealthy-misalignment",
            (NonMtKind::Misalignment, EncodeMode::Fast) => "non-mt-fast-misalignment",
        }
    }

    /// One complete Init-Encode-Decode measurement for a bit (§V-C): the
    /// receiver's timer brackets `p` rounds of the three steps; the
    /// eviction/misalignment effects of the encode step show up when the
    /// Decode step re-accesses the `d` blocks.
    fn measure(&mut self, bit: bool, ctx: MeasureCtx<'_>) -> f64 {
        let encode = if bit {
            Some(&self.send_one)
        } else {
            self.send_zero.as_ref()
        };
        let value = cycles_over(ctx.core, |core| {
            for _ in 0..ctx.params.p {
                round(core, &self.recv, encode);
            }
        });
        let overhead = match self.mode {
            EncodeMode::Fast => FAST_OVERHEAD_CYCLES,
            EncodeMode::Stealthy => STEALTHY_OVERHEAD_CYCLES,
        };
        ctx.core.idle(ThreadId::T0, overhead);
        value
    }
}

impl NonMtChannel {
    /// Builds the channel on a fresh core for `model`, under the default
    /// (`skylake`) microarchitecture profile.
    ///
    /// # Panics
    ///
    /// Panics if `params` violate the §V constraints (see
    /// [`ChannelParams::validate`]).
    pub fn new(
        model: ProcessorModel,
        kind: NonMtKind,
        mode: EncodeMode,
        params: ChannelParams,
        seed: u64,
    ) -> Self {
        Self::with_profile(model, kind, mode, params, &UarchProfile::skylake(), seed)
    }

    /// Builds the channel for an explicit microarchitecture profile: the
    /// code layout is derived from the profile's geometry (sender block
    /// counts follow its DSB way count) and the core runs the profile's
    /// cost model, with loop streaming gated by both the profile and the
    /// machine.
    ///
    /// # Panics
    ///
    /// Panics if `params` violate the §V constraints under the profile's
    /// geometry.
    pub fn with_profile(
        model: ProcessorModel,
        kind: NonMtKind,
        mode: EncodeMode,
        params: ChannelParams,
        profile: &UarchProfile,
        seed: u64,
    ) -> Self {
        let (recv, send_one, send_zero) = layout(kind, &params, &profile.geometry);
        let send_zero = (mode == EncodeMode::Stealthy).then_some(send_zero);
        let primitive = NonMt {
            kind,
            mode,
            recv,
            send_one,
            send_zero,
        };
        Driver::on_profile(model, profile, params, seed, primitive)
    }

    /// Replaces the channel's core with one built from an explicit frontend
    /// configuration — used by the §XII defense evaluation to attack a
    /// hardened (e.g. constant-time) frontend.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate cache geometry (`SetAssocCache::new`).
    pub fn with_frontend_config(
        mut self,
        config: leaky_frontend::FrontendConfig,
        seed: u64,
    ) -> Self {
        self.reset_frontend(config, seed);
        self
    }

    /// The channel variant.
    pub fn kind(&self) -> NonMtKind {
        self.primitive.kind
    }

    /// The zero-encoding mode.
    pub fn mode(&self) -> EncodeMode {
        self.primitive.mode
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channels::CovertChannel;
    use crate::params::MessagePattern;

    fn channel(model: ProcessorModel, kind: NonMtKind, mode: EncodeMode) -> NonMtChannel {
        let params = match kind {
            NonMtKind::Eviction => ChannelParams::eviction_defaults(),
            NonMtKind::Misalignment => ChannelParams::misalignment_defaults(),
        };
        NonMtChannel::new(model, kind, mode, params, 42)
    }

    #[test]
    fn fast_eviction_transmits_cleanly_on_quiet_machine() {
        let mut ch = channel(
            ProcessorModel::xeon_e2288g(),
            NonMtKind::Eviction,
            EncodeMode::Fast,
        );
        let msg = MessagePattern::Alternating.generate(64, 0);
        let run = ch.transmit(&msg);
        assert!(
            run.error_rate() < 0.05,
            "fast eviction error {:.2}%",
            run.error_rate() * 100.0
        );
        // Table III: 2288G non-MT fast eviction ≈ 1.4 Mbps; require the
        // right order of magnitude.
        assert!(
            run.rate_kbps() > 300.0 && run.rate_kbps() < 5000.0,
            "rate {:.1} Kbps",
            run.rate_kbps()
        );
    }

    #[test]
    fn fast_misalignment_transmits_cleanly() {
        let mut ch = channel(
            ProcessorModel::xeon_e2288g(),
            NonMtKind::Misalignment,
            EncodeMode::Fast,
        );
        let msg = MessagePattern::Alternating.generate(64, 0);
        let run = ch.transmit(&msg);
        assert!(
            run.error_rate() < 0.05,
            "fast misalignment error {:.2}%",
            run.error_rate() * 100.0
        );
    }

    #[test]
    fn stealthy_variants_work_on_all_machines() {
        for model in ProcessorModel::all() {
            for kind in [NonMtKind::Eviction, NonMtKind::Misalignment] {
                let mut ch = channel(model, kind, EncodeMode::Stealthy);
                let msg = MessagePattern::Alternating.generate(48, 0);
                let run = ch.transmit(&msg);
                assert!(
                    run.error_rate() < 0.30,
                    "{} stealthy {kind} error {:.2}%",
                    model.name,
                    run.error_rate() * 100.0
                );
            }
        }
    }

    #[test]
    fn fast_beats_stealthy_rate() {
        // Table III: fast variants transmit faster than stealthy ones.
        let msg = MessagePattern::Alternating.generate(64, 0);
        let mut fast = channel(
            ProcessorModel::gold_6226(),
            NonMtKind::Eviction,
            EncodeMode::Fast,
        );
        let mut stealthy = channel(
            ProcessorModel::gold_6226(),
            NonMtKind::Eviction,
            EncodeMode::Stealthy,
        );
        let rf = fast.transmit(&msg);
        let rs = stealthy.transmit(&msg);
        assert!(
            rf.rate_kbps() > rs.rate_kbps(),
            "fast {:.1} vs stealthy {:.1} Kbps",
            rf.rate_kbps(),
            rs.rate_kbps()
        );
    }

    #[test]
    fn works_without_lsd_hardware() {
        // E-2174G has the LSD disabled (Table I); both channels must still
        // function through pure DSB/MITE effects.
        for kind in [NonMtKind::Eviction, NonMtKind::Misalignment] {
            let mut ch = channel(ProcessorModel::xeon_e2174g(), kind, EncodeMode::Fast);
            let msg = MessagePattern::Alternating.generate(48, 0);
            let run = ch.transmit(&msg);
            assert!(
                run.error_rate() < 0.10,
                "{kind} on LSD-less machine: {:.2}%",
                run.error_rate() * 100.0
            );
        }
    }

    #[test]
    fn icelake_profile_still_leaks_through_the_dsb() {
        // The Ice-Lake-class profile has no LSD, but eviction channels work
        // through pure DSB/MITE transitions (like the LSD-less E-2174G).
        let mut ch = NonMtChannel::with_profile(
            ProcessorModel::xeon_e2288g(),
            NonMtKind::Eviction,
            EncodeMode::Fast,
            ChannelParams::eviction_defaults(),
            &UarchProfile::icelake(),
            42,
        );
        let msg = MessagePattern::Alternating.generate(48, 0);
        let run = ch.transmit(&msg);
        assert!(
            run.error_rate() < 0.10,
            "icelake eviction error {:.2}%",
            run.error_rate() * 100.0
        );
    }

    #[test]
    fn constant_time_profile_kills_the_channel() {
        // The registered defense profile reproduces the §XII result without
        // hand-building a FrontendConfig.
        let mut ch = NonMtChannel::with_profile(
            ProcessorModel::xeon_e2288g(),
            NonMtKind::Eviction,
            EncodeMode::Stealthy,
            ChannelParams::eviction_defaults(),
            &UarchProfile::constant_time(),
            5,
        );
        match ch.try_calibrate() {
            Err(_) => {} // indistinguishable classes: perfect defense
            Ok(()) => {
                let run = ch.transmit(&MessagePattern::Random.generate(64, 9));
                assert!(
                    run.error_rate() > 0.25,
                    "constant-time profile leaked: {:.1}% error",
                    run.error_rate() * 100.0
                );
            }
        }
    }

    #[test]
    fn skylake_profile_is_the_default_construction() {
        // `new` and `with_profile(skylake)` must be byte-equivalent runs.
        let msg = MessagePattern::Alternating.generate(32, 0);
        let mut a = channel(
            ProcessorModel::gold_6226(),
            NonMtKind::Eviction,
            EncodeMode::Fast,
        );
        let mut b = NonMtChannel::with_profile(
            ProcessorModel::gold_6226(),
            NonMtKind::Eviction,
            EncodeMode::Fast,
            ChannelParams::eviction_defaults(),
            &UarchProfile::skylake(),
            42,
        );
        let ra = a.transmit(&msg);
        let rb = b.transmit(&msg);
        assert_eq!(ra.received(), rb.received());
        assert_eq!(ra.rate_kbps(), rb.rate_kbps());
    }

    #[test]
    fn trace_captures_channel_events_without_changing_the_run() {
        use leaky_trace::{TraceHook, TraceMode};
        let msg = MessagePattern::Alternating.generate(16, 0);
        let mut plain = channel(
            ProcessorModel::xeon_e2288g(),
            NonMtKind::Eviction,
            EncodeMode::Fast,
        );
        let mut traced = channel(
            ProcessorModel::xeon_e2288g(),
            NonMtKind::Eviction,
            EncodeMode::Fast,
        );
        traced.set_trace(TraceHook::new(TraceMode::Summary));
        let rp = plain.transmit(&msg);
        let rt = traced.transmit(&msg);
        assert_eq!(rp.received(), rt.received());
        assert_eq!(rp.rate_kbps(), rt.rate_kbps());
        let summary = traced.take_trace().summary().expect("hook was on");
        assert_eq!(summary.calibrations, 1);
        assert_eq!(summary.bits, 16);
        assert_eq!(summary.error_rate(), rt.error_rate());
        // Warm-up + calibration + per-bit decodes all measure.
        assert!(
            summary.channel_measures as usize >= NonMt::WARMUP_BITS + NonMt::CALIBRATION_BITS + 16
        );
        assert!(summary.iterations > 0, "frontend events flow through too");
        assert!(summary.last_calibration.is_some());
    }

    #[test]
    fn random_messages_roundtrip_reasonably() {
        let mut ch = channel(
            ProcessorModel::xeon_e2286g(),
            NonMtKind::Eviction,
            EncodeMode::Fast,
        );
        let msg = MessagePattern::Random.generate(64, 5);
        let run = ch.transmit(&msg);
        assert!(run.error_rate() < 0.15);
    }
}
