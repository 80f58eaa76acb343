//! SGX enclave exfiltration attacks (paper §VIII).
//!
//! The sender runs *inside* an enclave and modulates frontend paths; the
//! receiver decodes from outside. Two settings:
//!
//! * **non-MT** (§VIII-2): the receiver triggers the enclave and times the
//!   whole call (one `EENTER`/`EEXIT` per bit); the signal is the sender's
//!   internal interference, so it survives disabled hyper-threading.
//! * **MT** (§VIII-1): the sender thread stays inside the enclave and
//!   encodes continuously; the receiver on the sibling thread times its own
//!   loop, observing DSB partitioning and evictions.
//!
//! The channels are [`Measure`] primitives on the shared [`Driver`], so
//! they calibrate, decode and trace exactly like the registry channels;
//! they are not registry rows.

use leaky_cpu::{ProcessorModel, ThreadWork};
use leaky_frontend::{ThreadId, UarchProfile};
use leaky_isa::BlockChain;
use leaky_sgx::Enclave;

use crate::channels::driver::{cycles_over, run_rounds, watts_over, Driver, Measure, MeasureCtx};
use crate::channels::layout;
use crate::channels::non_mt::NonMtKind;
use crate::params::{ChannelParams, EncodeMode};

/// Errors from SGX attack construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SgxAttackError {
    /// The processor lacks SGX (Gold 6226 in Table I).
    NoSgx {
        /// Model name.
        model: &'static str,
    },
    /// MT attack requested on a machine with hyper-threading disabled.
    NoSmt {
        /// Model name.
        model: &'static str,
    },
}

impl std::fmt::Display for SgxAttackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SgxAttackError::NoSgx { model } => write!(f, "{model} has no SGX support"),
            SgxAttackError::NoSmt { model } => {
                write!(f, "{model} has hyper-threading disabled")
            }
        }
    }
}

impl std::error::Error for SgxAttackError {}

/// Checks the machine can host an SGX attack (and SMT, for the MT one),
/// then builds the channel's layout under the `skylake` geometry and its
/// core under the `skylake` profile.
///
/// # Panics
///
/// Panics if `params` violate the §V constraints
/// (`ChannelParams::validate`).
fn sgx_driver<M: Measure>(
    model: ProcessorModel,
    needs_smt: bool,
    kind: NonMtKind,
    params: ChannelParams,
    seed: u64,
    primitive: impl FnOnce(BlockChain, BlockChain, BlockChain) -> M,
) -> Result<Driver<M>, SgxAttackError> {
    if !model.sgx {
        return Err(SgxAttackError::NoSgx { model: model.name });
    }
    if needs_smt && !model.smt_enabled {
        return Err(SgxAttackError::NoSmt { model: model.name });
    }
    let profile = UarchProfile::skylake();
    let (recv, one, zero) = layout(kind, &params, &profile.geometry);
    let primitive = primitive(recv, one, zero);
    Ok(Driver::on_profile(model, &profile, params, seed, primitive))
}

/// Non-MT SGX covert channel (§VIII-2): one enclave entry and exit per bit,
/// timed from outside.
pub type SgxNonMtChannel = Driver<SgxNonMt>;

/// The non-MT SGX receiver: it times one whole enclave call that runs `p`
/// Init/Encode/Decode rounds inside.
#[derive(Debug, Clone)]
pub struct SgxNonMt {
    enclave: Enclave,
    kind: NonMtKind,
    mode: EncodeMode,
    recv: BlockChain,
    send_one: BlockChain,
    /// The stealthy decoy encoding of a 0 (`None`: silent, fast mode).
    send_zero: Option<BlockChain>,
}

impl Measure for SgxNonMt {
    const WARMUP_BITS: usize = 4;
    const CALIBRATION_BITS: usize = 16;
    const MAX_RESAMPLE: u32 = 0;
    const BOTH_THREADS: bool = false;

    fn name(&self) -> &'static str {
        match (self.kind, self.mode) {
            (NonMtKind::Eviction, EncodeMode::Stealthy) => "sgx-non-mt-stealthy-eviction",
            (NonMtKind::Eviction, EncodeMode::Fast) => "sgx-non-mt-fast-eviction",
            (NonMtKind::Misalignment, EncodeMode::Stealthy) => "sgx-non-mt-stealthy-misalignment",
            (NonMtKind::Misalignment, EncodeMode::Fast) => "sgx-non-mt-fast-misalignment",
        }
    }

    fn measure(&mut self, bit: bool, ctx: MeasureCtx<'_>) -> f64 {
        let encode = if bit {
            Some(&self.send_one)
        } else {
            self.send_zero.as_ref()
        };
        cycles_over(ctx.core, |core| {
            self.enclave.call(core, ThreadId::T0, |core, _| {
                run_rounds(core, &self.recv, encode, ctx.params.p);
            });
        })
    }
}

impl SgxNonMtChannel {
    /// Builds the channel.
    ///
    /// # Errors
    ///
    /// Returns [`SgxAttackError::NoSgx`] for non-SGX processors.
    ///
    /// # Panics
    ///
    /// Panics if the channel parameters violate the §V constraints
    /// (`ChannelParams::validate`).
    pub fn new(
        model: ProcessorModel,
        kind: NonMtKind,
        mode: EncodeMode,
        params: ChannelParams,
        seed: u64,
    ) -> Result<Self, SgxAttackError> {
        sgx_driver(model, false, kind, params, seed, |recv, send_one, zero| {
            SgxNonMt {
                enclave: Enclave::default(),
                kind,
                mode,
                recv,
                send_one,
                send_zero: (mode == EncodeMode::Stealthy).then_some(zero),
            }
        })
    }
}

/// Power-based SGX covert channel (§VIII-3, sketched in the paper and
/// implemented here as an extension): even when unprivileged RAPL access is
/// disabled, a *privileged* (malicious-OS) attacker can read the package
/// energy counter around enclave calls — SGX explicitly distrusts the OS,
/// yet leaks through it. One RAPL-bracketed enclave call per bit.
pub type SgxPowerChannel = Driver<SgxPower>;

/// The SGX power receiver: average package watts over one enclave call
/// that runs `p` rounds (stealthy zero-encoding, matching the §VII power
/// channels).
#[derive(Debug, Clone)]
pub struct SgxPower {
    enclave: Enclave,
    kind: NonMtKind,
    recv: BlockChain,
    send_one: BlockChain,
    send_zero: BlockChain,
}

impl Measure for SgxPower {
    const WARMUP_BITS: usize = 4;
    const CALIBRATION_BITS: usize = 16;
    const MAX_RESAMPLE: u32 = 0;
    const BOTH_THREADS: bool = false;

    fn name(&self) -> &'static str {
        match self.kind {
            NonMtKind::Eviction => "sgx-power-eviction",
            NonMtKind::Misalignment => "sgx-power-misalignment",
        }
    }

    fn measure(&mut self, bit: bool, ctx: MeasureCtx<'_>) -> f64 {
        let encode = if bit { &self.send_one } else { &self.send_zero };
        watts_over(ctx.core, |core| {
            self.enclave.call(core, ThreadId::T0, |core, _| {
                run_rounds(core, &self.recv, Some(encode), ctx.params.p);
            });
        })
    }
}

impl SgxPowerChannel {
    /// Builds the channel.
    ///
    /// # Errors
    ///
    /// Returns [`SgxAttackError::NoSgx`] for non-SGX processors.
    ///
    /// # Panics
    ///
    /// Panics if the channel parameters violate the §V constraints
    /// (`ChannelParams::validate`).
    pub fn new(
        model: ProcessorModel,
        kind: NonMtKind,
        params: ChannelParams,
        seed: u64,
    ) -> Result<Self, SgxAttackError> {
        sgx_driver(
            model,
            false,
            kind,
            params,
            seed,
            |recv, send_one, send_zero| SgxPower {
                enclave: Enclave::default(),
                kind,
                recv,
                send_one,
                send_zero,
            },
        )
    }
}

/// MT SGX covert channel (§VIII-1): the sender encodes from inside the
/// enclave on the sibling thread; the receiver times its own loop.
pub type SgxMtChannel = Driver<SgxMt>;

/// The MT SGX receiver: mean cycles per iteration of its own `p`-iteration
/// loop, against `q` sender iterations inside the enclave for a 1.
#[derive(Debug, Clone)]
pub struct SgxMt {
    enclave: Enclave,
    kind: NonMtKind,
    recv: BlockChain,
    send_one: BlockChain,
}

impl Measure for SgxMt {
    const WARMUP_BITS: usize = 4;
    const CALIBRATION_BITS: usize = 16;
    const MAX_RESAMPLE: u32 = 0;
    const BOTH_THREADS: bool = true;

    fn name(&self) -> &'static str {
        match self.kind {
            NonMtKind::Eviction => "sgx-mt-eviction",
            NonMtKind::Misalignment => "sgx-mt-misalignment",
        }
    }

    fn measure(&mut self, bit: bool, ctx: MeasureCtx<'_>) -> f64 {
        let p = ctx.params.p;
        let cycles = cycles_over(ctx.core, |core| {
            if bit {
                // The sender enters the enclave on T1 (paying the
                // transition) and encodes concurrently.
                core.idle(ThreadId::T1, self.enclave.round_trip_cycles());
                core.frontend_mut().flush_thread_state(ThreadId::T1);
                core.run_concurrent(
                    ThreadWork {
                        chain: &self.recv,
                        iterations: p,
                    },
                    ThreadWork {
                        chain: &self.send_one,
                        iterations: ctx.params.q,
                    },
                );
            } else {
                core.run_loop(ThreadId::T0, &self.recv, p);
            }
        });
        cycles.max(1.0) / p as f64
    }
}

impl SgxMtChannel {
    /// Builds the channel.
    ///
    /// # Errors
    ///
    /// Returns [`SgxAttackError::NoSgx`] or [`SgxAttackError::NoSmt`] when
    /// the processor cannot host the attack.
    ///
    /// # Panics
    ///
    /// Panics if the channel parameters violate the §V constraints
    /// (`ChannelParams::validate`).
    pub fn new(
        model: ProcessorModel,
        kind: NonMtKind,
        params: ChannelParams,
        seed: u64,
    ) -> Result<Self, SgxAttackError> {
        sgx_driver(model, true, kind, params, seed, |recv, send_one, _| SgxMt {
            enclave: Enclave::default(),
            kind,
            recv,
            send_one,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MessagePattern;

    #[test]
    fn non_sgx_machine_rejected() {
        let err = SgxNonMtChannel::new(
            ProcessorModel::gold_6226(),
            NonMtKind::Eviction,
            EncodeMode::Fast,
            ChannelParams::sgx_non_mt_defaults(),
            1,
        )
        .unwrap_err();
        assert_eq!(err, SgxAttackError::NoSgx { model: "Gold 6226" });
    }

    #[test]
    fn smt_disabled_rejected_for_mt() {
        let err = SgxMtChannel::new(
            ProcessorModel::xeon_e2288g(),
            NonMtKind::Eviction,
            ChannelParams::sgx_mt_defaults(),
            1,
        )
        .unwrap_err();
        assert_eq!(
            err,
            SgxAttackError::NoSmt {
                model: "Xeon E-2288G"
            }
        );
    }

    #[test]
    fn non_mt_sgx_eviction_transmits() {
        let mut ch = SgxNonMtChannel::new(
            ProcessorModel::xeon_e2288g(),
            NonMtKind::Eviction,
            EncodeMode::Fast,
            ChannelParams::sgx_non_mt_defaults(),
            31,
        )
        .unwrap();
        let msg = MessagePattern::Alternating.generate(24, 0);
        let run = ch.transmit(&msg);
        assert!(
            run.error_rate() < 0.10,
            "SGX non-MT error {:.1}%",
            run.error_rate() * 100.0
        );
        // Table VI: tens of Kbps — two orders below the non-SGX channels.
        assert!(
            run.rate_kbps() > 1.0 && run.rate_kbps() < 300.0,
            "SGX rate {:.1} Kbps",
            run.rate_kbps()
        );
    }

    #[test]
    fn mt_sgx_eviction_transmits() {
        let mut ch = SgxMtChannel::new(
            ProcessorModel::xeon_e2174g(),
            NonMtKind::Eviction,
            ChannelParams::sgx_mt_defaults(),
            37,
        )
        .unwrap();
        let msg = MessagePattern::Alternating.generate(16, 0);
        let run = ch.transmit(&msg);
        assert!(
            run.error_rate() < 0.25,
            "SGX MT error {:.1}%",
            run.error_rate() * 100.0
        );
    }

    #[test]
    fn mt_sgx_memo_counters_are_pinned() {
        // One seeded 16-bit transmission per SGX MT channel: every
        // 1-bit's `run_concurrent` walks the receiver/sender state graph.
        // The E-2174G has no LSD; once the sender is done, the receiver
        // follows one self-loop edge for thousands of steps.
        let pinned = [
            (NonMtKind::Eviction, [175_982, 18, 16, 18, 0]),
            (NonMtKind::Misalignment, [175_978, 22, 17, 22, 0]),
        ];
        for (kind, [followed, simulated, states, edges, resets]) in pinned {
            let mut ch = SgxMtChannel::new(
                ProcessorModel::xeon_e2174g(),
                kind,
                ChannelParams::sgx_mt_defaults(),
                5,
            )
            .unwrap();
            ch.transmit(&MessagePattern::Random.generate(16, 5));
            let stats = ch.core.frontend().memo_stats();
            assert!(
                100 * stats.followed >= 99 * (stats.followed + stats.simulated),
                "{kind:?}: {stats:?}"
            );
            assert_eq!(stats.resets, 0, "{kind:?}");
            assert_eq!(
                stats,
                leaky_frontend::MemoStats {
                    followed,
                    simulated,
                    states: states as usize,
                    edges: edges as usize,
                    resets,
                },
                "{kind:?}"
            );
        }
    }

    #[test]
    fn sgx_power_channel_leaks_despite_rapl_lockdown() {
        // §VIII-3: the privileged-OS power attack. Slow (power-channel
        // iteration counts) but functional.
        let mut ch = SgxPowerChannel::new(
            ProcessorModel::xeon_e2286g(),
            NonMtKind::Eviction,
            ChannelParams::power_defaults(),
            51,
        )
        .unwrap();
        let msg = MessagePattern::Alternating.generate(16, 0);
        let run = ch.transmit(&msg);
        assert!(
            run.error_rate() < 0.30,
            "SGX power error {:.1}%",
            run.error_rate() * 100.0
        );
        assert!(run.rate_kbps() < 5.0, "power channels are RAPL-limited");
    }

    #[test]
    fn sgx_power_channel_requires_sgx() {
        assert!(SgxPowerChannel::new(
            ProcessorModel::gold_6226(),
            NonMtKind::Eviction,
            ChannelParams::power_defaults(),
            1,
        )
        .is_err());
    }

    #[test]
    fn sgx_slower_than_direct_channel() {
        // Table VI vs Table III: SGX rates are roughly 1/25 – 1/30 of the
        // direct non-MT rates.
        use crate::channels::non_mt::NonMtChannel;
        let msg = MessagePattern::Alternating.generate(24, 0);
        let mut direct = NonMtChannel::new(
            ProcessorModel::xeon_e2288g(),
            NonMtKind::Eviction,
            EncodeMode::Fast,
            ChannelParams::eviction_defaults(),
            41,
        );
        let mut sgx = SgxNonMtChannel::new(
            ProcessorModel::xeon_e2288g(),
            NonMtKind::Eviction,
            EncodeMode::Fast,
            ChannelParams::sgx_non_mt_defaults(),
            41,
        )
        .unwrap();
        let rd = direct.transmit(&msg);
        let rs = sgx.transmit(&msg);
        let ratio = rd.rate_kbps() / rs.rate_kbps();
        assert!(
            (5.0..=200.0).contains(&ratio),
            "direct/SGX ratio {ratio:.1} (direct {:.1}, sgx {:.1})",
            rd.rate_kbps(),
            rs.rate_kbps()
        );
    }
}
