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

use leaky_cpu::{Core, ThreadWork};
use leaky_frontend::ThreadId;
use leaky_isa::BlockChain;
use rand::rngs::StdRng;
use rand::Rng;

use crate::channels::driver::{Driver, Measure, MeasureCtx};
use crate::channels::non_mt::NonMtKind;

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

/// A multi-threaded covert channel: cross-thread DSB way evictions
/// (§V-A) or LSD misalignment collisions (§V-B).
pub(crate) type MtChannel = Driver<Mt>;

/// The MT receiver: it times its own `d`-block loop on `T0` while the
/// sender encodes on `T1`, under the environmental-noise model.
#[derive(Debug, Clone)]
pub(crate) struct Mt {
    pub(crate) kind: NonMtKind,
    pub(crate) noise: MtNoise,
    pub(crate) recv: BlockChain,
    pub(crate) send_one: BlockChain,
    pub(crate) rng: StdRng,
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
            NonMtKind::Eviction => "mt-eviction",
            NonMtKind::Misalignment => "mt-misalignment",
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channels::{BuildError, ChannelSpec, CovertChannel};
    use crate::params::{ChannelParams, MessagePattern};
    use leaky_cpu::ProcessorModel;
    use leaky_frontend::UarchProfile;

    fn eviction_channel(seed: u64) -> Box<dyn CovertChannel> {
        ChannelSpec::new("mt-eviction")
            .seed(seed)
            .build()
            .expect("6226 supports SMT")
    }

    #[test]
    fn profile_construction_matches_default_and_respects_smt() {
        // The skylake profile is the default, bit for bit.
        let msg = MessagePattern::Alternating.generate(16, 0);
        let mut a = eviction_channel(7);
        let mut b = ChannelSpec::new("mt-eviction")
            .profile(UarchProfile::skylake())
            .seed(7)
            .build()
            .unwrap();
        assert_eq!(a.transmit(&msg).received(), b.transmit(&msg).received());
        // SMT-less machines stay unsupported on every profile.
        assert!(ChannelSpec::new("mt-eviction")
            .model(ProcessorModel::xeon_e2288g())
            .profile(UarchProfile::icelake())
            .seed(7)
            .build()
            .is_err());
    }

    #[test]
    fn icelake_profile_eviction_channel_still_works() {
        // No LSD on the profile: the eviction channel leaks through DSB
        // way contention alone; try_calibrate must succeed.
        let mut ch = ChannelSpec::new("mt-eviction")
            .profile(UarchProfile::icelake())
            .seed(11)
            .build()
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
    fn a_solo_batch_after_a_contended_one_simulates_two_iterations() {
        // The uncontended batch of `Mt::batch`: 100 solo receiver
        // iterations right after a 100 + 100-step contended batch.
        // `run_iterations` simulates two of them, then finds the period-1
        // cycle and charges the other 98 at once, on both profiles:
        // `icelake` has no LSD, so its two come from the DSB, but it
        // simulates no more of them than `skylake`.
        use leaky_trace::{Source, TraceEvent, TraceHook, TraceMode};
        for (profile, source) in [("skylake", Source::Lsd), ("icelake", Source::Dsb)] {
            let mut ch = ChannelSpec::new("mt-eviction")
                .profile(UarchProfile::by_key(profile).unwrap())
                .seed(5)
                .mt(NonMtKind::Eviction, ChannelParams::mt_defaults());
            ch.primitive.batch(&mut ch.core, true, 100, 100);
            ch.core.set_trace(TraceHook::new(TraceMode::Events));
            ch.primitive.batch(&mut ch.core, false, 100, 0);
            let trace = ch.core.take_trace();
            let iterations: Vec<(u64, Source)> = trace
                .events()
                .unwrap_or_default()
                .iter()
                .filter_map(|event| match *event {
                    TraceEvent::Iteration { weight, source, .. } => Some((weight, source)),
                    _ => None,
                })
                .collect();
            assert_eq!(
                iterations,
                [(1, source), (1, source), (98, source)],
                "{profile}"
            );
        }
    }

    #[test]
    fn memo_counters_are_pinned() {
        // One seeded 16-bit transmission per MT configuration that
        // `channel_stream` runs: every `run_concurrent` walks its chain
        // pair's state graph. Nearly every step follows a recorded edge,
        // no graph outgrows its state cap, the last entry of each row
        // counts the lone-tail steps served in bulk, and `transmit`
        // releases the graph.
        let pinned = [
            (NonMtKind::Eviction, "skylake", [37_340, 60, 14_789]),
            (NonMtKind::Misalignment, "skylake", [55_474, 26, 5_981]),
            (NonMtKind::Eviction, "icelake", [37_378, 22, 15_690]),
            (NonMtKind::Misalignment, "icelake", [62_980, 20, 16_834]),
        ];
        for (kind, profile, [followed, simulated, bulk]) in pinned {
            let mut ch = ChannelSpec::new(format!("mt-{kind}"))
                .profile(UarchProfile::by_key(profile).unwrap())
                .seed(5)
                .mt(kind, ChannelParams::mt_defaults());
            ch.transmit(&MessagePattern::Random.generate(16, 5));
            let stats = ch.core.frontend().memo_stats();
            let label = format!("{kind:?}@{profile}");
            assert!(
                100 * stats.followed >= 99 * (stats.followed + stats.simulated),
                "{label}: {stats:?}"
            );
            assert_eq!(
                stats,
                leaky_frontend::MemoStats {
                    followed,
                    bulk,
                    simulated,
                    ..leaky_frontend::MemoStats::default()
                },
                "{label}"
            );
        }
    }

    #[test]
    fn one_call_transmission_walks_the_calibration_graphs() {
        // `try_transmit` calibrates and transmits in one call, so the
        // message walks the graphs calibration built: the counters are
        // the skylake eviction row of `memo_counters_are_pinned`.
        // Calibrating in a call of its own releases those graphs, and the
        // message re-simulates the steps calibration had recorded, for
        // the same run.
        let build = || {
            ChannelSpec::new("mt-eviction")
                .profile(UarchProfile::skylake())
                .seed(5)
                .mt(NonMtKind::Eviction, ChannelParams::mt_defaults())
        };
        let message = MessagePattern::Random.generate(16, 5);
        let mut one = build();
        let run = one.try_transmit(&message).expect("calibrates");
        let mut two = build();
        two.try_calibrate().expect("calibrates");
        assert_eq!(two.transmit(&message), run);
        let stats = [&one, &two].map(|ch| ch.core.frontend().memo_stats());
        assert_eq!(
            stats,
            [
                leaky_frontend::MemoStats {
                    followed: 37_340,
                    bulk: 14_789,
                    simulated: 60,
                    ..leaky_frontend::MemoStats::default()
                },
                leaky_frontend::MemoStats {
                    followed: 37_289,
                    bulk: 14_785,
                    simulated: 111,
                    ..leaky_frontend::MemoStats::default()
                },
            ]
        );
    }

    #[test]
    fn smt_disabled_machine_is_rejected() {
        let err = ChannelSpec::new("mt-eviction")
            .model(ProcessorModel::xeon_e2288g())
            .seed(1)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            BuildError::SmtUnavailable {
                model: "Xeon E-2288G"
            }
        );
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
        let mut ch = ChannelSpec::new("mt-misalignment")
            .seed(13)
            .build()
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
        let mut ch = ChannelSpec::new("mt-eviction")
            .noise(MtNoise {
                burst_probability: 0.0,
                burst_relative: 0.0,
                desync_probability: 0.0,
                phase_slip_probability: 0.0,
            })
            .seed(17)
            .build()
            .unwrap();
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
