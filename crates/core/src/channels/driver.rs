//! The one channel driver (DESIGN.md §9).
//!
//! Every covert channel of §V, §VII and §VIII runs the same
//! Init/Encode/Decode protocol and is evaluated the same way (§VI); the
//! channels differ only in what the receiver observes per bit — an
//! `rdtscp` bracket, a RAPL energy reading, or an enclave call timed
//! from outside. [`Driver`] owns the protocol: warm-up, threshold
//! calibration, the per-bit decode-and-resample loop, the trace events,
//! the transmission clock and the [`ChannelRun`] with its provenance. A
//! [`Measure`] primitive supplies the per-bit observation and the few
//! protocol constants that differ between channels.

use leaky_cpu::{Core, MicrocodePatch, ProcessorModel};
use leaky_frontend::{FrontendConfig, ThreadId};
use leaky_isa::BlockChain;
use leaky_stats::threshold::CalibrationError;
use leaky_stats::ThresholdDecoder;
use leaky_trace::{TraceEvent, TraceHook};

use crate::channels::{try_calibrate_decoder, CovertChannel};
use crate::params::ChannelParams;
use crate::run::{ChannelRun, Provenance};

/// A channel's receiver-side observation of one bit, plus the protocol
/// constants that differ between channels.
pub trait Measure: std::fmt::Debug {
    /// Bits measured and discarded before calibration (cold-start
    /// transients).
    const WARMUP_BITS: usize;

    /// Alternating bits the threshold decoder is calibrated on (§VI-B).
    const CALIBRATION_BITS: usize;

    /// Re-measurements of a bit whose reading falls in the decoder's
    /// ambiguity band.
    const MAX_RESAMPLE: u32;

    /// Whether the transmission clock spans both hyper-threads
    /// (`max(T0, T1)`, the MT channels) rather than the receiver's `T0`.
    const BOTH_THREADS: bool;

    /// The channel's stable name (its registry name, for registered
    /// channels).
    fn name(&self) -> &'static str;

    /// One raw measurement of `bit`: cycles, cycles per iteration or
    /// watts, whatever the receiver observes.
    fn measure(&mut self, bit: bool, ctx: MeasureCtx<'_>) -> f64;
}

/// What the driver lends a [`Measure`] primitive for one measurement.
pub struct MeasureCtx<'a> {
    /// The simulated core sender and receiver share.
    pub core: &'a mut Core,
    /// The channel's §V parameters.
    pub params: &'a ChannelParams,
    /// The calibrated decoder while transmitting; `None` during warm-up
    /// and calibration.
    pub decoder: Option<&'a ThresholdDecoder>,
    /// The message's previous bit while transmitting.
    pub prev: Option<bool>,
}

/// A covert channel: the shared protocol over a [`Measure`] primitive.
///
/// The concrete channels are aliases of this type: the registry's are
/// built by [`ChannelSpec::build`](crate::channels::ChannelSpec::build),
/// the §VIII SGX channels ([`SgxMtChannel`](crate::sgx::SgxMtChannel), …)
/// by their own constructors.
#[derive(Debug, Clone)]
pub struct Driver<M> {
    pub(crate) core: Core,
    pub(crate) params: ChannelParams,
    pub(crate) profile_key: &'static str,
    pub(crate) decoder: Option<ThresholdDecoder>,
    pub(crate) primitive: M,
}

impl<M: Measure> Driver<M> {
    /// A channel on a fresh core for `model` running the frontend
    /// `config`, reported under `profile_key` (the profile `config` was
    /// resolved from, or `"custom"` for an explicit override).
    ///
    /// # Panics
    ///
    /// Panics on a degenerate cache geometry (`SetAssocCache::new`).
    pub(crate) fn on_frontend(
        model: ProcessorModel,
        config: FrontendConfig,
        profile_key: &'static str,
        params: ChannelParams,
        seed: u64,
        primitive: M,
    ) -> Self {
        Driver {
            core: Core::with_frontend_config(model, MicrocodePatch::Patch1, config, seed),
            params,
            profile_key,
            decoder: None,
            primitive,
        }
    }

    /// One measurement through the primitive, traced.
    fn sample(&mut self, bit: bool, decoder: Option<&ThresholdDecoder>, prev: Option<bool>) -> f64 {
        let value = self.primitive.measure(
            bit,
            MeasureCtx {
                core: &mut self.core,
                params: &self.params,
                decoder,
                prev,
            },
        );
        self.core
            .trace_mut()
            .emit(|| TraceEvent::ChannelMeasure { sent: bit, value });
        value
    }

    /// The transmission clock (cycles).
    fn clock(&self) -> f64 {
        let t0 = self.core.clock(ThreadId::T0);
        if M::BOTH_THREADS {
            t0.max(self.core.clock(ThreadId::T1))
        } else {
            t0
        }
    }

    /// The calibrated decoder, calibrating first if necessary.
    fn calibrated(&mut self) -> Result<ThresholdDecoder, CalibrationError> {
        if let Some(decoder) = self.decoder {
            return Ok(decoder);
        }
        for i in 0..M::WARMUP_BITS {
            self.sample(i % 2 == 1, None, None);
        }
        match try_calibrate_decoder(|bit| self.sample(bit, None, None), M::CALIBRATION_BITS) {
            Ok(decoder) => {
                self.core.trace_mut().emit(|| TraceEvent::Calibration {
                    zero_mean: decoder.zero_mean(),
                    one_mean: decoder.one_mean(),
                    threshold: decoder.threshold(),
                    separation: decoder.separation(),
                });
                self.decoder = Some(decoder);
                Ok(decoder)
            }
            Err(err) => {
                self.core.trace_mut().emit(|| TraceEvent::CalibrationFailed);
                Err(err)
            }
        }
    }

    /// Attempts calibration, reporting failure instead of panicking: a
    /// hardened frontend may present no difference between the bit
    /// classes, which is the §XII defense succeeding rather than a
    /// harness error. Idempotent once calibrated. Like
    /// [`Driver::transmit`], it returns with the core's state graphs
    /// released ([`Core::release_graphs`]).
    ///
    /// # Errors
    ///
    /// [`CalibrationError`] when the two bit classes are
    /// indistinguishable.
    ///
    /// # Panics
    ///
    /// Panics if a negative cost reaches the simulated core
    /// (`Core::idle`); simulated costs are non-negative.
    pub fn try_calibrate(&mut self) -> Result<(), CalibrationError> {
        let calibrated = self.calibrated().map(drop);
        self.core.release_graphs();
        calibrated
    }

    /// Transmits a message, returning sent/received bits and timing.
    /// Calibration (if not yet done) happens first and is excluded from
    /// the reported transmission time, matching the paper's methodology.
    /// The core's state graphs live through the whole call, calibration
    /// included, and are released when it returns, so a channel at rest
    /// holds none (DESIGN.md §6). One call walks the graphs calibration
    /// built; [`Driver::try_calibrate`] then `try_transmit` rebuilds them.
    ///
    /// # Errors
    ///
    /// [`CalibrationError`] when calibration finds the two bit classes
    /// indistinguishable; nothing is transmitted.
    ///
    /// # Panics
    ///
    /// Panics if the transmission spans no cycles (`ChannelRun::new`),
    /// which a calibrated channel never does, or if a negative cost
    /// reaches the simulated core (`Core::idle`).
    pub fn try_transmit(&mut self, message: &[bool]) -> Result<ChannelRun, CalibrationError> {
        let decoder = match self.calibrated() {
            Ok(decoder) => decoder,
            Err(err) => {
                self.core.release_graphs();
                return Err(err);
            }
        };
        let start = self.clock();
        self.core.trace_mut().emit(|| TraceEvent::SessionStart {
            bits: message.len() as u64,
        });
        let mut received = Vec::with_capacity(message.len());
        let mut errors = 0u64;
        let mut prev = None;
        for (index, &bit) in message.iter().enumerate() {
            let mut value = self.sample(bit, Some(&decoder), prev);
            let mut decoded = decoder.decode_checked(value);
            let mut tries = 0;
            while decoded.is_ambiguous() && tries < M::MAX_RESAMPLE {
                value = self.sample(bit, Some(&decoder), prev);
                decoded = decoder.decode_checked(value);
                tries += 1;
            }
            let out = decoded.bit();
            errors += u64::from(out != bit);
            self.core.trace_mut().emit(|| TraceEvent::BitDecoded {
                index: index as u64,
                sent: bit,
                received: out,
                value,
                resamples: tries,
            });
            received.push(out);
            prev = Some(bit);
        }
        self.core.trace_mut().emit(|| TraceEvent::SessionEnd {
            bits: message.len() as u64,
            errors,
        });
        self.core.release_graphs();
        Ok(ChannelRun::new(
            message.to_vec(),
            received,
            self.clock() - start,
            self.core.model().freq_hz(),
        )
        .with_provenance(Provenance {
            channel: self.primitive.name(),
            profile: self.profile_key,
            params: self.params,
        }))
    }

    /// [`Driver::try_transmit`] for a channel known to calibrate.
    ///
    /// # Panics
    ///
    /// Panics if calibration finds indistinguishable bit classes, and
    /// where [`Driver::try_transmit`] panics.
    pub fn transmit(&mut self, message: &[bool]) -> ChannelRun {
        self.try_transmit(message)
            .expect("calibration produced indistinguishable classes")
    }
}

impl<M: Measure> CovertChannel for Driver<M> {
    fn name(&self) -> &'static str {
        self.primitive.name()
    }

    fn profile_key(&self) -> &'static str {
        self.profile_key
    }

    fn params(&self) -> ChannelParams {
        self.params
    }

    fn try_calibrate(&mut self) -> Result<(), CalibrationError> {
        Driver::try_calibrate(self)
    }

    fn try_transmit(&mut self, message: &[bool]) -> Result<ChannelRun, CalibrationError> {
        Driver::try_transmit(self, message)
    }

    fn set_trace(&mut self, hook: TraceHook) {
        self.core.set_trace(hook);
    }

    fn take_trace(&mut self) -> TraceHook {
        self.core.take_trace()
    }
}

/// Rounds simulated exactly before the steady state is fast-forwarded.
const WARM_ROUNDS: u64 = 24;

/// Runs `rounds` identical Init/Encode/Decode rounds on `T0`: the first
/// [`WARM_ROUNDS`] through [`Core::run_rounds`], the rest fast-forwarded
/// with [`Core::replay`], which charges them to the clock and the RAPL
/// counter as copies of the last simulated round (the power channels run
/// p = 240 000 rounds per bit).
pub(crate) fn run_rounds(
    core: &mut Core,
    recv: &BlockChain,
    encode: Option<&BlockChain>,
    rounds: u64,
) {
    let warm = WARM_ROUNDS.min(rounds);
    let last = core.run_rounds(ThreadId::T0, recv, encode, warm);
    core.replay(ThreadId::T0, &last, rounds - warm);
}

/// Cycles `work` takes on `T0`, bracketed by two `rdtscp` reads (the
/// timing channels' receiver).
pub(crate) fn cycles_over(core: &mut Core, work: impl FnOnce(&mut Core)) -> f64 {
    let t0 = core.rdtscp(ThreadId::T0);
    work(core);
    core.rdtscp(ThreadId::T0) - t0
}

/// Average package watts over `work`, bracketed by RAPL energy and
/// wall-clock reads (the power channels' receiver, §VII).
pub(crate) fn watts_over(core: &mut Core, work: impl FnOnce(&mut Core)) -> f64 {
    let e0 = core.read_rapl();
    let t0 = core.seconds();
    work(core);
    let e1 = core.read_rapl();
    let t1 = core.seconds();
    e1.saturating_sub(e0) as f64 * 1e-6 / (t1 - t0).max(1e-9)
}
