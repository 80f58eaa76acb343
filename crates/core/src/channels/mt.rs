//! Multi-threaded covert channels (paper §V-A, §V-B).
//!
//! Sender and receiver occupy the two hardware threads of one physical
//! core. The receiver continuously times its own d-block loop; the sender's
//! 1-encoding perturbs the shared frontend — by DSB way evictions (§V-A) or
//! by misaligned accesses that collide in LSD window tracking (§V-B) — and
//! the 0-encoding stays idle.
//!
//! Per transmitted bit the receiver performs `p` decode iterations while
//! the sender performs `q` encode iterations (§VI-A: p = 1000, q = 100).
//! Decoding works on the receiver's mean per-iteration time and supports
//! early bit declaration once the signal is decisive, which is why all-1s
//! messages transmit faster than all-0s (Table II).

use leaky_cpu::{Core, ProcessorModel, ThreadWork};
use leaky_frontend::{ThreadId, UarchProfile};
use leaky_isa::BlockChain;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::channels::driver::{Driver, Measure, MeasureCtx};
use crate::channels::layout;
use crate::channels::non_mt::NonMtKind;
use crate::params::ChannelParams;

/// Which frontend primitive the MT channel modulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MtKind {
    /// Cross-thread DSB way evictions (§V-A).
    Eviction,
    /// Cross-thread LSD misalignment collisions (§V-B).
    Misalignment,
}

impl std::fmt::Display for MtKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MtKind::Eviction => f.write_str("eviction"),
            MtKind::Misalignment => f.write_str("misalignment"),
        }
    }
}

/// Environmental-noise model for the MT setting. Two hyper-threads sharing
/// a core in a real system suffer scheduling jitter and interference that
/// the single-thread channels do not (§VI: MT error rates are an order of
/// magnitude higher); these parameters reproduce that regime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MtNoise {
    /// Probability that a bit slot suffers an interference burst.
    pub burst_probability: f64,
    /// Burst magnitude relative to the receiver's mean per-iteration time
    /// (co-runner interference slows everything proportionally).
    pub burst_relative: f64,
    /// Probability that sender and receiver desynchronise so the encode
    /// only partially overlaps the decode window.
    pub desync_probability: f64,
    /// Probability that a bit *transition* causes a phase slip: part of the
    /// previous bit's frontend state bleeds into the measurement window.
    /// Messages with many transitions (alternating, random) suffer more
    /// (Table II's pattern-dependent error rates).
    pub phase_slip_probability: f64,
}

impl Default for MtNoise {
    fn default() -> Self {
        MtNoise {
            burst_probability: 0.10,
            burst_relative: 0.2,
            desync_probability: 0.08,
            phase_slip_probability: 0.30,
        }
    }
}

/// Receiver decode batches per bit; early declaration is possible after
/// [`MIN_BATCHES`].
const BATCHES: u64 = 10;
const MIN_BATCHES: u64 = 3;

/// Extra confirmation batches when a bit decodes as 0: a present signal is
/// positive evidence, but *absence* of interference needs longer
/// observation to rule out desynchronisation — which is why all-1s
/// messages transmit faster than all-0s (Table II).
const ZERO_CONFIRM_BATCHES: u64 = 5;

/// Per-bit synchronisation overhead between the threads (cycles).
const PER_BIT_SYNC_CYCLES: f64 = 1_500.0;

/// Absolute per-iteration margin (cycles) required for early declaration.
const NOISE_FLOOR_CYCLES: f64 = 2.5;

/// A multi-threaded covert channel (§V-A / §V-B).
pub type MtChannel = Driver<Mt>;

/// The MT receiver: it times its own `d`-block loop on `T0` while the
/// sender encodes on `T1`, under the environmental-noise model.
#[derive(Debug, Clone)]
pub struct Mt {
    kind: MtKind,
    noise: MtNoise,
    recv: BlockChain,
    send_one: BlockChain,
    rng: StdRng,
}

impl Mt {
    /// One receiver batch of `p` iterations, against `q` concurrent sender
    /// iterations when `contended`; returns the receiver's cycles.
    fn batch(&self, core: &mut Core, contended: bool, p: u64, q: u64) -> f64 {
        if contended {
            let (r, _s) = core.run_concurrent(
                ThreadWork {
                    chain: &self.recv,
                    iterations: p,
                },
                ThreadWork {
                    chain: &self.send_one,
                    iterations: q,
                },
            );
            r.cycles
        } else {
            core.run_loop(ThreadId::T0, &self.recv, p).cycles
        }
    }
}

impl Measure for Mt {
    const WARMUP_BITS: usize = 8;
    const CALIBRATION_BITS: usize = 24;
    const MAX_RESAMPLE: u32 = 0;
    const BOTH_THREADS: bool = true;

    fn name(&self) -> &'static str {
        match self.kind {
            MtKind::Eviction => "mt-eviction",
            MtKind::Misalignment => "mt-misalignment",
        }
    }

    /// Measures one bit: mean receiver per-iteration cycles across up to
    /// `BATCHES` batches, with early declaration once decisive (given a
    /// decoder). A bit that differs from the previous one is a
    /// *transition*, exposed to desynchronisation and phase slips.
    fn measure(&mut self, m: bool, ctx: MeasureCtx<'_>) -> f64 {
        let MeasureCtx {
            core,
            params,
            decoder,
            prev,
        } = ctx;
        let transition = prev.is_some_and(|p| p != m);
        let p_batch = (params.p / BATCHES).max(1);
        // The sender keeps encoding for the whole decode window (the paper's
        // q encode *steps* repeat until the bit slot ends). Iterations are
        // balanced by block count so sender and receiver finish their batch
        // at roughly the same wall time regardless of d.
        let recv_blocks = self.recv.len().max(1) as u64;
        let send_blocks = self.send_one.len().max(1) as u64;
        // Sender blocks decode via the contended MITE (~2x a receiver
        // block), so halve the iteration ratio to balance wall time.
        let q_batch = (p_batch * recv_blocks / (2 * send_blocks)).max(1);
        let burst = self.rng.gen_bool(self.noise.burst_probability);
        // Sender/receiver desynchronisation mostly happens when the sender
        // switches activity between bits (§VI-D: constant patterns are
        // stable); constant runs stay in lock-step.
        let desync = transition && self.rng.gen_bool(self.noise.desync_probability);

        let mut cycles = 0.0;
        let mut iters = 0u64;
        let t0 = core.rdtscp(ThreadId::T0);
        // Phase slip on transitions: the first measured batches still see
        // the *previous* bit's frontend state — stale contention bleeds in
        // after a 1, a quiet prefix dilutes the signal after a 0.
        if transition && self.rng.gen_bool(self.noise.phase_slip_probability) {
            for _ in 0..2 {
                cycles += self.batch(core, !m, p_batch, q_batch);
                iters += p_batch;
            }
        }
        for batch in 0..BATCHES {
            // Desync: the sender misses most of the decode window.
            let q_eff = if desync { q_batch / 4 } else { q_batch };
            cycles += self.batch(core, m, p_batch, q_eff.max(1));
            if burst {
                // Interference inflates the receiver's wall time in
                // proportion to its current pace.
                let pace = cycles / (iters + p_batch) as f64;
                let extra = self.noise.burst_relative * pace * p_batch as f64;
                core.idle(ThreadId::T0, extra);
                cycles += extra;
            }
            iters += p_batch;
            // Early declaration: a decisively slow/fast signal lets the
            // receiver move to the next bit without burning all batches.
            if let Some(dec) = decoder {
                if batch + 1 >= MIN_BATCHES {
                    let avg = cycles / iters as f64;
                    let decided_one = dec.decode(avg);
                    let margin = (avg - dec.threshold()).abs();
                    // Early declaration needs the margin to clear both the
                    // relative band and an absolute noise floor — small-d
                    // channels (tiny timing deltas) must keep sampling,
                    // which is why rate grows with d (Fig. 8).
                    if decided_one && margin > (dec.separation() * 0.4).max(NOISE_FLOOR_CYCLES) {
                        break;
                    }
                }
            }
        }
        // Confirmation pass: a 0-looking measurement is re-observed before
        // the receiver commits to "no signal".
        if let Some(dec) = decoder {
            if !dec.decode(cycles / iters as f64) {
                for _ in 0..ZERO_CONFIRM_BATCHES {
                    self.batch(core, m, p_batch, q_batch);
                    iters += p_batch;
                }
            }
        }
        let t1 = core.rdtscp(ThreadId::T0);
        core.idle(ThreadId::T0, PER_BIT_SYNC_CYCLES);
        // Per-iteration average over the rdtscp bracket (the receiver-only
        // `cycles` above only steer early declaration); timer noise and
        // bursts are folded into the bracket, and calibration absorbs
        // fixed offsets.
        (t1 - t0).max(1.0) / iters as f64
    }
}

impl MtChannel {
    /// Builds the channel on a fresh core.
    ///
    /// # Errors
    ///
    /// Returns [`MtUnsupported`] if the processor model has hyper-threading
    /// disabled (the Azure E-2288G — Table III's missing MT column).
    ///
    /// # Panics
    ///
    /// Panics if the channel parameters violate the §V constraints
    /// (`ChannelParams::validate`).
    pub fn new(
        model: ProcessorModel,
        kind: MtKind,
        params: ChannelParams,
        seed: u64,
    ) -> Result<Self, MtUnsupported> {
        Self::with_profile(model, kind, params, &UarchProfile::skylake(), seed)
    }

    /// Builds the channel under an explicit microarchitecture profile
    /// (layout geometry and cost model from the profile; see
    /// [`NonMtChannel::with_profile`](crate::channels::non_mt::NonMtChannel::with_profile)).
    ///
    /// # Errors
    ///
    /// Returns [`MtUnsupported`] if the processor model has hyper-threading
    /// disabled.
    ///
    /// # Panics
    ///
    /// Panics if the channel parameters violate the §V constraints
    /// (`ChannelParams::validate`).
    pub fn with_profile(
        model: ProcessorModel,
        kind: MtKind,
        params: ChannelParams,
        profile: &UarchProfile,
        seed: u64,
    ) -> Result<Self, MtUnsupported> {
        if !model.smt_enabled {
            return Err(MtUnsupported { model: model.name });
        }
        let layout_kind = match kind {
            MtKind::Eviction => NonMtKind::Eviction,
            MtKind::Misalignment => NonMtKind::Misalignment,
        };
        let (recv, send_one, _) = layout(layout_kind, &params, &profile.geometry);
        let primitive = Mt {
            kind,
            noise: MtNoise::default(),
            recv,
            send_one,
            rng: StdRng::seed_from_u64(seed ^ 0xc0ff_ee00),
        };
        Ok(Driver::on_profile(model, profile, params, seed, primitive))
    }

    /// Overrides the environmental-noise model (for ablations; the default
    /// reproduces the paper's MT error regime).
    pub fn set_noise(&mut self, noise: MtNoise) {
        self.primitive.noise = noise;
    }

    /// Rebuilds the channel's core with an explicit frontend configuration
    /// (defense evaluation and DSB-policy ablations). Resets calibration.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate cache geometry (`SetAssocCache::new`).
    pub fn set_frontend_config(&mut self, config: leaky_frontend::FrontendConfig) {
        self.reset_frontend(config, 0xab1a7e);
    }

    /// The channel variant.
    pub fn kind(&self) -> MtKind {
        self.primitive.kind
    }
}

/// Error: the processor model cannot host MT attacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MtUnsupported {
    /// The offending model.
    pub model: &'static str,
}

impl std::fmt::Display for MtUnsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} has hyper-threading disabled", self.model)
    }
}

impl std::error::Error for MtUnsupported {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MessagePattern;

    fn eviction_channel(seed: u64) -> MtChannel {
        MtChannel::new(
            ProcessorModel::gold_6226(),
            MtKind::Eviction,
            ChannelParams::mt_defaults(),
            seed,
        )
        .expect("6226 supports SMT")
    }

    #[test]
    fn profile_construction_matches_default_and_respects_smt() {
        // skylake profile == legacy construction, bit for bit.
        let msg = MessagePattern::Alternating.generate(16, 0);
        let mut a = eviction_channel(7);
        let mut b = MtChannel::with_profile(
            ProcessorModel::gold_6226(),
            MtKind::Eviction,
            ChannelParams::mt_defaults(),
            &UarchProfile::skylake(),
            7,
        )
        .unwrap();
        assert_eq!(a.transmit(&msg).received(), b.transmit(&msg).received());
        // SMT-less machines stay unsupported on every profile.
        assert!(MtChannel::with_profile(
            ProcessorModel::xeon_e2288g(),
            MtKind::Eviction,
            ChannelParams::mt_defaults(),
            &UarchProfile::icelake(),
            7,
        )
        .is_err());
    }

    #[test]
    fn icelake_profile_eviction_channel_still_works() {
        // No LSD on the profile: the eviction channel leaks through DSB
        // way contention alone; try_calibrate must succeed.
        let mut ch = MtChannel::with_profile(
            ProcessorModel::gold_6226(),
            MtKind::Eviction,
            ChannelParams::mt_defaults(),
            &UarchProfile::icelake(),
            11,
        )
        .unwrap();
        ch.try_calibrate().expect("DSB contention is calibratable");
        let run = ch.transmit(&MessagePattern::Alternating.generate(24, 0));
        assert!(
            run.error_rate() < 0.35,
            "icelake MT eviction error {:.1}%",
            run.error_rate() * 100.0
        );
    }

    #[test]
    fn smt_disabled_machine_is_rejected() {
        let err = MtChannel::new(
            ProcessorModel::xeon_e2288g(),
            MtKind::Eviction,
            ChannelParams::mt_defaults(),
            1,
        )
        .unwrap_err();
        assert!(err.to_string().contains("E-2288G"));
    }

    #[test]
    fn mt_eviction_transmits() {
        let mut ch = eviction_channel(11);
        let msg = MessagePattern::Alternating.generate(32, 0);
        let run = ch.transmit(&msg);
        assert!(
            run.error_rate() < 0.30,
            "MT eviction error {:.1}%",
            run.error_rate() * 100.0
        );
        // Table III: MT rates are tens to ~200 Kbps.
        assert!(
            run.rate_kbps() > 10.0 && run.rate_kbps() < 1000.0,
            "MT rate {:.1} Kbps",
            run.rate_kbps()
        );
    }

    #[test]
    fn mt_misalignment_transmits() {
        let mut ch = MtChannel::new(
            ProcessorModel::gold_6226(),
            MtKind::Misalignment,
            ChannelParams::mt_misalignment_defaults(),
            13,
        )
        .unwrap();
        let msg = MessagePattern::Alternating.generate(32, 0);
        let run = ch.transmit(&msg);
        assert!(
            run.error_rate() < 0.30,
            "MT misalignment error {:.1}%",
            run.error_rate() * 100.0
        );
    }

    #[test]
    fn noiseless_mt_channel_is_error_free() {
        let mut ch = eviction_channel(17);
        ch.set_noise(MtNoise {
            burst_probability: 0.0,
            burst_relative: 0.0,
            desync_probability: 0.0,
            phase_slip_probability: 0.0,
        });
        let msg = MessagePattern::Alternating.generate(32, 0);
        let run = ch.transmit(&msg);
        assert_eq!(
            run.error_rate(),
            0.0,
            "without environmental noise the channel must be clean"
        );
    }

    #[test]
    fn all_ones_faster_than_all_zeros() {
        // Table II: early declaration makes 1-heavy messages faster.
        let ones = MessagePattern::AllOnes.generate(24, 0);
        let zeros = MessagePattern::AllZeros.generate(24, 0);
        let r1 = eviction_channel(23).transmit(&ones);
        let r0 = eviction_channel(23).transmit(&zeros);
        assert!(
            r1.rate_kbps() > r0.rate_kbps(),
            "all-1s {:.1} vs all-0s {:.1} Kbps",
            r1.rate_kbps(),
            r0.rate_kbps()
        );
    }
}
