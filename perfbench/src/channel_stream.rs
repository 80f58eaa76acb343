//! `channel_stream`: framed payloads streamed round-robin through every
//! covert channel, single-threaded.

use crate::experiments::Counts;
use crate::harness::{median, splitmix, Ctx, Fnv, Metric, OpOut, Workload};
use crate::spans::{Tracer, SETUP_OP};
use leaky_cpu::ProcessorModel;
use leaky_frontends::channels::non_mt::NonMtKind;
use leaky_frontends::channels::{ChannelSpec, CovertChannel, REGISTRY};
use leaky_frontends::coding::{Code, Repetition};
use leaky_frontends::params::{bytes_to_bits, ChannelParams, EncodeMode};
use leaky_frontends::run::ChannelRun;
use leaky_frontends::sgx::{SgxMtChannel, SgxNonMtChannel};
use leaky_frontends::Session;
use leaky_stats::error_rate;
use leaky_trace::{TraceHook, TraceMode};
use leaky_uarch::UarchProfile;

const PAYLOAD_BYTES: usize = 16;
const REPEAT: usize = 3;

/// The channel classes `core.transmit_ms.*` reports.
const CLASSES: [&str; 6] = [
    "non_mt",
    "mt",
    "power",
    "slow_switch",
    "sgx_non_mt",
    "sgx_mt",
];

enum Kind {
    Registry(Box<dyn CovertChannel>),
    SgxNonMt(SgxNonMtChannel),
    SgxMt(SgxMtChannel),
}

struct Channel {
    label: String,
    class: &'static str,
    kind: Kind,
}

fn class_of(name: &str) -> &'static str {
    match name {
        "slow-switch" => "slow_switch",
        n if n.starts_with("mt-") => "mt",
        n if n.starts_with("power-") => "power",
        _ => "non_mt",
    }
}

pub struct ChannelStream {
    seed: u64,
    channels: Vec<Channel>,
    /// Identical channels for the traced executions of a traced run.
    twins: Vec<Channel>,
    /// Calibration measures of the registry channels (traced set-up).
    calibration_measures: u64,
    /// Telemetry counts of the first traced cycle, over every channel
    /// and over the non-MT channels alone.
    counts: Counts,
    non_mt: Counts,
    counted: usize,
    telemetry: Fnv,
    /// Traced ops whose channel reported telemetry, and the frontend
    /// iterations they simulated.
    telemetry_ops: std::collections::BTreeSet<u64>,
    telemetry_iterations: u64,
}

/// Builds and calibrates every channel: the registry on Gold 6226 and on
/// Xeon E-2288G (no SMT, so no MT channels) under the `skylake` and
/// `icelake` profiles, then the Table VI SGX channels.
fn build_channels(
    seed: u64,
    ctx: Option<Ctx<'_>>,
    calibration_measures: &mut u64,
) -> Result<Vec<Channel>, String> {
    let mut out = Vec::new();
    let mut next_seed = {
        let mut n = 0u64;
        move || {
            n += 1;
            splitmix(seed ^ splitmix(n))
        }
    };
    for profile in ["skylake", "icelake"] {
        let p = UarchProfile::by_key(profile).ok_or_else(|| format!("no profile {profile}"))?;
        for model in [ProcessorModel::gold_6226(), ProcessorModel::xeon_e2288g()] {
            for info in REGISTRY.iter() {
                if info.requires_smt && !model.smt_enabled {
                    continue;
                }
                let spec = ChannelSpec::new(info.name)
                    .model(model)
                    .profile(p)
                    .seed(next_seed());
                let label = format!("{}@{}/{profile}", info.name, model.name);
                let built = match ctx {
                    Some(ctx) => ctx.span("core.build", None, |_| spec.build()),
                    None => spec.build(),
                };
                let mut ch = built.map_err(|e| format!("{label}: {e}"))?;
                let calibrated = match ctx {
                    Some(ctx) => {
                        ch.set_trace(TraceHook::new(TraceMode::Summary));
                        let r = ctx.span("core.calibrate", None, |_| ch.try_calibrate());
                        if let Some(t) = ch.take_trace().into_telemetry() {
                            *calibration_measures += t.summary.channel_measures;
                        }
                        r
                    }
                    None => ch.try_calibrate(),
                };
                calibrated.map_err(|e| format!("{label}: calibration failed: {e:?}"))?;
                out.push(Channel {
                    label,
                    class: class_of(info.name),
                    kind: Kind::Registry(ch),
                });
            }
        }
    }
    let e2288g = ProcessorModel::xeon_e2288g();
    for kind in [NonMtKind::Eviction, NonMtKind::Misalignment] {
        for mode in [EncodeMode::Stealthy, EncodeMode::Fast] {
            let ch = SgxNonMtChannel::new(
                e2288g,
                kind,
                mode,
                ChannelParams::sgx_non_mt_defaults(),
                next_seed(),
            )
            .map_err(|e| e.to_string())?;
            out.push(Channel {
                label: format!("sgx-non-mt-{mode}-{kind:?}@{}", e2288g.name),
                class: "sgx_non_mt",
                kind: Kind::SgxNonMt(ch),
            });
        }
    }
    let e2174g = ProcessorModel::xeon_e2174g();
    for kind in [NonMtKind::Eviction, NonMtKind::Misalignment] {
        let ch = SgxMtChannel::new(e2174g, kind, ChannelParams::sgx_mt_defaults(), next_seed())
            .map_err(|e| e.to_string())?;
        out.push(Channel {
            label: format!("sgx-mt-{kind:?}@{}", e2174g.name),
            class: "sgx_mt",
            kind: Kind::SgxMt(ch),
        });
    }
    Ok(out)
}

/// The op's payload: 16 seed-derived bytes.
fn payload(seed: u64, i: u64) -> Vec<u8> {
    (0..PAYLOAD_BYTES as u64 / 8)
        .flat_map(|k| splitmix(seed ^ splitmix(i << 8 | k)).to_le_bytes())
        .collect()
}

/// The frame `Session::send_bytes` transmits: a 16-bit big-endian length
/// header, then the payload.
fn frame(payload: &[u8]) -> Vec<bool> {
    let mut bits = bytes_to_bits(&(payload.len() as u16).to_be_bytes());
    bits.extend(bytes_to_bits(payload));
    bits
}

fn timed<R>(ctx: Option<Ctx<'_>>, name: &str, f: impl FnOnce() -> R) -> R {
    match ctx {
        Some(ctx) => ctx.span(name, None, |_| f()),
        None => f(),
    }
}

/// Sends one framed payload through `ch` and checks what came back.
fn send(
    ch: &mut Channel,
    payload: &[u8],
    ctx: Option<Ctx<'_>>,
) -> Result<(OpOut, Option<Counts>), String> {
    let code = Repetition::new(REPEAT);
    let frame = frame(payload);
    let coded = timed(ctx, "core.code", || code.encode(&frame));
    let transmit = format!("core.transmit.{}", ch.class);
    let mut counts = None;
    let (raw, session_decoded): (ChannelRun, Option<Vec<bool>>) = match &mut ch.kind {
        Kind::Registry(c) => {
            if ctx.is_some() {
                c.set_trace(TraceHook::new(TraceMode::Summary));
            }
            let run = timed(ctx, &transmit, || {
                Session::new(c.as_mut(), Repetition::new(REPEAT)).send_bytes(payload)
            });
            if ctx.is_some() {
                if let Some(t) = c.take_trace().into_telemetry() {
                    let mut n = Counts::default();
                    n.add(&t.summary);
                    counts = Some(n);
                }
            }
            (run.raw().clone(), Some(run.data().received().to_vec()))
        }
        Kind::SgxNonMt(c) => (timed(ctx, &transmit, || c.transmit(&coded)), None),
        Kind::SgxMt(c) => (timed(ctx, &transmit, || c.transmit(&coded)), None),
    };
    if raw.sent() != coded.as_slice() {
        return Err(format!(
            "{}: channel sent other bits than the coded frame",
            ch.label
        ));
    }
    if raw.received().len() != coded.len() {
        return Err(format!(
            "{}: received {} of {} bits",
            ch.label,
            raw.received().len(),
            coded.len()
        ));
    }
    let mut decoded = timed(ctx, "core.code", || code.decode(raw.received()));
    decoded.truncate(frame.len());
    if session_decoded.is_some_and(|s| s != decoded) {
        return Err(format!(
            "{}: session decoded other bits than the code",
            ch.label
        ));
    }
    let err = timed(ctx, "stats.error_rate", || error_rate(&frame, &decoded));
    let cycles_ok = raw.cycles() > 0.0;
    if !(0.0..=1.0).contains(&err) || !cycles_ok {
        return Err(format!(
            "{}: error rate {err} over {} cycles",
            ch.label,
            raw.cycles()
        ));
    }
    let mut h = Fnv::new();
    h.bits(raw.received());
    h.f64(raw.cycles());
    h.f64(err);
    Ok((
        OpOut {
            cells: 1,
            bits: Some(coded.len() as u64),
            digest: h.finish(),
        },
        counts,
    ))
}

impl Workload for ChannelStream {
    const NAME: &'static str = "channel_stream";

    fn setup(seed: u64, tracer: Option<&Tracer>) -> Result<Self, String> {
        let mut calibration_measures = 0;
        let mut channels = build_channels(seed, None, &mut calibration_measures)?;
        let mut twins = match tracer {
            Some(t) => t.scope("setup.channel_stream", None, SETUP_OP, |root| {
                let ctx = Ctx {
                    tracer: t,
                    root,
                    op: SETUP_OP,
                };
                build_channels(seed, Some(ctx), &mut calibration_measures)
            })?,
            None => Vec::new(),
        };
        // Untimed warm-up: one op per channel (SGX channels calibrate on
        // their first transmission).
        for set in [&mut channels, &mut twins] {
            for (k, ch) in set.iter_mut().enumerate() {
                send(ch, &payload(seed, u64::MAX - k as u64), None)?;
            }
        }
        Ok(ChannelStream {
            seed,
            channels,
            twins,
            calibration_measures,
            counts: Counts::default(),
            non_mt: Counts::default(),
            counted: 0,
            telemetry: Fnv::new(),
            telemetry_ops: Default::default(),
            telemetry_iterations: 0,
        })
    }

    fn cycle_len(&self) -> usize {
        self.channels.len()
    }

    fn op(&mut self, i: u64, ctx: Option<Ctx<'_>>) -> Result<OpOut, String> {
        let slot = i as usize % self.channels.len();
        let payload = payload(self.seed, i);
        let set = if ctx.is_some() {
            &mut self.twins
        } else {
            &mut self.channels
        };
        let (out, counts) = send(&mut set[slot], &payload, ctx)?;
        let non_mt = set[slot].class == "non_mt";
        if let Some(c) = counts.filter(|c| c.iterations > 0) {
            self.telemetry_ops.insert(i);
            self.telemetry_iterations += c.iterations;
        }
        if ctx.is_some() && self.counted < self.channels.len() {
            self.counted += 1;
            if let Some(c) = counts {
                self.counts.add_counts(&c);
                if non_mt {
                    self.non_mt.add_counts(&c);
                }
                c.digest(&mut self.telemetry);
            }
        }
        Ok(out)
    }

    fn layer_metrics(&self, tracer: &Tracer) -> Vec<Metric> {
        let ms = |name: &str| -> Vec<f64> {
            tracer
                .timings(name)
                .iter()
                .map(|t| t.self_ns as f64 / 1e6)
                .collect()
        };
        let c = &self.counts;
        let bits = c.bits.max(1) as f64;
        let mut out = vec![
            Metric::new(
                "frontend.iterations_per_bit",
                self.non_mt.iterations as f64 / self.non_mt.bits.max(1) as f64,
                "count",
            ),
            Metric::new("frontend.iterations.lsd", c.per_source[0] as f64, "count"),
            Metric::new("frontend.iterations.dsb", c.per_source[1] as f64, "count"),
            Metric::new("frontend.iterations.mite", c.per_source[2] as f64, "count"),
            Metric::new("frontend.dsb_evictions", c.dsb_evictions as f64, "count"),
            Metric::new("frontend.lsd_locks", c.lsd_locks as f64, "count"),
            Metric::new("core.build_us", median(&ms("core.build")) * 1e3, "us"),
            Metric::new("core.calibrate_ms", median(&ms("core.calibrate")), "ms"),
            Metric::new(
                "core.calibration_measures",
                self.calibration_measures as f64,
                "count",
            ),
            Metric::new(
                "core.measures_per_bit",
                c.channel_measures as f64 / bits,
                "count",
            ),
            Metric::new("core.resamples", c.resamples as f64, "count"),
            Metric::new("core.bit_errors", c.bit_errors as f64, "count"),
        ];
        for class in CLASSES {
            out.push(Metric::new(
                format!("core.transmit_ms.{class}"),
                median(&ms(&format!("core.transmit.{class}"))),
                "ms",
            ));
        }
        // Host time per simulated frontend iteration, over the ops whose
        // channels count iterations in their telemetry (non-MT and MT).
        let transmit_ns: u64 = CLASSES
            .iter()
            .flat_map(|class| tracer.timings(&format!("core.transmit.{class}")))
            .filter(|t| self.telemetry_ops.contains(&t.op))
            .map(|t| t.self_ns)
            .sum();
        out.push(Metric::new(
            "frontend.ns_per_iteration",
            transmit_ns as f64 / self.telemetry_iterations.max(1) as f64,
            "ns",
        ));
        // Encode plus decode per op, and error-rate scoring per op.
        let per_op_us = |name: &str| {
            let us: Vec<f64> = tracer
                .per_op_ns(name)
                .values()
                .map(|&ns| ns as f64 / 1e3)
                .collect();
            median(&us)
        };
        out.push(Metric::new("core.code_us", per_op_us("core.code"), "us"));
        out.push(Metric::new(
            "stats.error_rate_us",
            per_op_us("stats.error_rate"),
            "us",
        ));
        out
    }

    fn telemetry_digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.telemetry.finish());
        h.u64(self.calibration_measures);
        h.finish()
    }
}
