//! The closed loop shared by every workload: set-up, timed op cycles,
//! op accounting, percentiles, digests and interference diagnostics.

use crate::spans::{SpanId, Tracer};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Host-speed probe: how often the timed phase runs it (between two ops),
/// and its median CPU time on the reference host. Every host time a run
/// reports is scaled by reference ÷ the local probe time, the median of
/// the probes taken within `PROBE_WINDOW` probes of it, so a host that is
/// slower for a while (a busy SMT sibling, contended caches, a hypervisor
/// taking cycles) reports the times the reference host would have
/// measured.
const PROBE_EVERY: std::time::Duration = std::time::Duration::from_millis(50);
const PROBE_WINDOW: usize = 4;
const PROBE_REFERENCE_NS: f64 = 1.5e6;

/// Set-ups per untraced run; `setup_s` reports their median. The first
/// runs before the timed phase; the others run at evenly spaced points of
/// it, between op cycles and off the phase clock, so interference that
/// lasts seconds reaches a minority of them, as it does the ops.
pub const SETUPS: usize = 5;
/// A run's tail is its p90, which needs ten ops beyond it.
pub const MIN_OPS: usize = 100;
/// No new op cycle starts after this many seconds of timed phase, so a
/// run ends well inside its time limit even on a slow host.
const HARD_STOP_S: f64 = 120.0;

/// The trace context a traced op records its spans under.
#[derive(Clone, Copy)]
pub struct Ctx<'t> {
    pub tracer: &'t Tracer,
    /// The op's root span.
    pub root: SpanId,
    pub op: u64,
}

impl Ctx<'_> {
    /// Runs `f` in a span that is a child of `parent` (the op's root
    /// span when `None`).
    pub fn span<R>(
        &self,
        name: impl Into<String>,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        self.tracer
            .scope(name, Some(parent.unwrap_or(self.root)), self.op, f)
    }
}

/// What one op produced.
#[derive(Debug, Clone, Default)]
pub struct OpOut {
    /// Sweep cells (or channel transmissions) the op completed.
    pub cells: u64,
    /// Raw channel bits the op completed, when the op itself knows them.
    pub bits: Option<u64>,
    /// FNV-1a over every simulated output of the op. The traced and the
    /// untraced execution of one op must agree on it.
    pub digest: u64,
}

/// One workload: set-up plus a fixed cycle of op slots.
pub trait Workload: Sized {
    const NAME: &'static str;

    /// Builds the workload's state. With a `tracer` (the traced run) the
    /// set-up records its spans and prepares what the traced executions
    /// need.
    fn setup(seed: u64, tracer: Option<&Tracer>) -> Result<Self, String>;

    /// Op slots per cycle; op `i` runs slot `i % cycle_len()`.
    fn cycle_len(&self) -> usize;

    /// Runs op `i`; `ctx` is `Some` for the traced execution.
    fn op(&mut self, i: u64, ctx: Option<Ctx<'_>>) -> Result<OpOut, String>;

    /// Untimed housekeeping after each op, such as removing scratch
    /// files the op left behind.
    fn tidy(&mut self) {}

    /// CPU time that pool worker threads added to the critical path since
    /// the last call: per sweep, the busiest worker's. Workloads whose
    /// sweeps run on the calling thread keep the default.
    fn take_worker_ns(&mut self) -> u64 {
        0
    }

    /// Raw channel bits that op slot `slot` completes, for ops whose
    /// `OpOut::bits` is `None`. Called after the timed phase.
    fn slot_bits(&mut self, slot: usize) -> Result<u64, String> {
        let _ = slot;
        Ok(0)
    }

    /// The workload's per-layer metrics from a traced run's spans and
    /// the counts it gathered.
    fn layer_metrics(&self, tracer: &Tracer) -> Vec<Metric>;

    /// FNV-1a over the telemetry counts of the first traced cycle.
    fn telemetry_digest(&self) -> u64;
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

struct Sample {
    slot: usize,
    /// Probes taken before the op ran.
    probes: usize,
    /// Host time of the op: its critical path in CPU time.
    ns: u64,
    wall_ns: u64,
    out: Option<OpOut>,
}

fn run_op<W: Workload>(w: &mut W, i: u64, ctx: Option<Ctx<'_>>) -> Result<OpOut, String> {
    match catch_unwind(AssertUnwindSafe(|| w.op(i, ctx))) {
        Ok(r) => r,
        Err(payload) => Err(payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_string())),
    }
}

/// Runs op `i`, traced under its own root span when `tracer` is given,
/// and returns its result with its host time and wall time in
/// nanoseconds. Host time is the critical path in CPU time: the calling
/// thread's CPU time plus the busiest pool worker's of each sweep.
fn timed_op<W: Workload>(
    w: &mut W,
    i: u64,
    tracer: Option<&Tracer>,
) -> (Result<OpOut, String>, u64, u64) {
    w.take_worker_ns();
    let cpu = thread_cpu_ns();
    let t = Instant::now();
    let r = match tracer {
        None => run_op(w, i, None),
        Some(tracer) => tracer.scope(format!("op.{}", W::NAME), None, i, |root| {
            run_op(
                w,
                i,
                Some(Ctx {
                    tracer,
                    root,
                    op: i,
                }),
            )
        }),
    };
    let wall = t.elapsed().as_nanos() as u64;
    (r, thread_cpu_ns() - cpu + w.take_worker_ns(), wall)
}

/// Runs whole op cycles until `seconds` of op time have passed and at
/// least `min_ops` ops ran. `step` runs one op and returns its sample.
/// `between` runs before each cycle with the index of the cycle's first
/// op and the op time so far; its own time is kept off the phase clock.
/// Returns the samples and the op time.
fn cycles(
    cycle_len: usize,
    seconds: f64,
    min_ops: usize,
    mut step: impl FnMut(u64) -> Sample,
    mut between: impl FnMut(u64, f64) -> Result<(), String>,
) -> Result<(Vec<Sample>, f64), String> {
    let start = Instant::now();
    let mut paused = 0.0;
    let mut samples = Vec::new();
    let mut i = 0u64;
    loop {
        let t = Instant::now();
        between(i, start.elapsed().as_secs_f64() - paused)?;
        paused += t.elapsed().as_secs_f64();
        for _ in 0..cycle_len {
            samples.push(step(i));
            i += 1;
        }
        let elapsed = start.elapsed().as_secs_f64() - paused;
        if (elapsed >= seconds && samples.len() >= min_ops)
            || start.elapsed().as_secs_f64() >= HARD_STOP_S
        {
            return Ok((samples, elapsed));
        }
    }
}

/// Builds one instance of the workload and returns it with its host time
/// and wall time in seconds.
fn timed_setup<W: Workload>(seed: u64) -> Result<(W, f64, f64), String> {
    let cpu = thread_cpu_ns();
    let t = Instant::now();
    let mut w = W::setup(seed, None)?;
    let ns = thread_cpu_ns() - cpu + w.take_worker_ns();
    Ok((w, ns as f64 / 1e9, t.elapsed().as_secs_f64()))
}

fn note_failures(report: &mut Report, failures: &[(u64, String)]) {
    for (i, why) in failures.iter().take(5) {
        report.notes.push(format!("op {i} failed: {why}"));
    }
}

/// The host-time metrics after `setup_s`, with their units.
const FIGURES: [(&str, &str); 5] = [
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("cells_per_s", "cells/s"),
    ("bit_host_us", "us"),
    ("kbit_per_s", "kbit/s"),
];

struct Figures {
    values: [f64; 5],
    /// Ops beyond the p90.
    beyond: usize,
}

/// The `FIGURES` of a run whose op `i` took `ns[i]` of host time and
/// completed `op_bits[i]` raw channel bits.
fn figures(samples: &[Sample], ns: &[f64], op_bits: &[u64], cycle_len: usize) -> Figures {
    // Throughputs are those of a cycle in which every op slot takes its
    // median time. A rate over the summed times of the whole phase, or
    // over each cycle's, moves with the few slow ops an interference burst
    // leaves in the tail; the per-slot medians do not.
    let mut cycle_ns = 0.0;
    let mut cycle_cells = 0;
    let mut cycle_bits = 0;
    let mut bit_ns = 0.0;
    for slot in 0..cycle_len {
        let ok = || {
            samples
                .iter()
                .zip(ns)
                .zip(op_bits)
                .filter(move |((s, _), _)| s.slot == slot && s.out.is_some())
        };
        let slot_ns = median(&ok().map(|((_, &t), _)| t).collect::<Vec<_>>());
        let bits = ok().map(|(_, &b)| b).max().unwrap_or(0);
        cycle_ns += slot_ns;
        cycle_cells += ok()
            .filter_map(|((s, _), _)| s.out.as_ref())
            .map(|o| o.cells)
            .max()
            .unwrap_or(0);
        cycle_bits += bits;
        if bits > 0 {
            bit_ns += slot_ns;
        }
    }
    // Host time per bit: the median over ops when every op slot that
    // carries bits carries the same count (then a median over ops is a
    // median of comparable costs); otherwise the bit-carrying slots'
    // median times over their bits, since op types whose costs per bit
    // differ up to a hundredfold put a median over ops on the edge
    // between two types.
    let per_op_us: Vec<f64> = ns
        .iter()
        .zip(op_bits)
        .filter(|(_, &b)| b > 0)
        .map(|(t, &b)| t / 1e3 / b as f64)
        .collect();
    let mut bit_counts: Vec<u64> = op_bits.iter().copied().filter(|&b| b > 0).collect();
    bit_counts.sort_unstable();
    bit_counts.dedup();
    let bit_host_us = if bit_counts.len() <= 1 {
        median(&per_op_us)
    } else {
        bit_ns / 1e3 / cycle_bits.max(1) as f64
    };
    let ms: Vec<f64> = ns.iter().map(|t| t / 1e6).collect();
    let (op_p90, beyond) = p90(&ms);
    Figures {
        values: [
            median(&ms),
            op_p90,
            cycle_cells as f64 / (cycle_ns / 1e9),
            bit_host_us,
            cycle_bits as f64 / (cycle_ns / 1e9) / 1e3,
        ],
        beyond,
    }
}

/// The untraced run: every end-to-end metric of one workload.
pub fn run_untraced<W: Workload>(seed: u64, seconds: f64) -> Result<Report, String> {
    let (mut w, setup, wall) = timed_setup::<W>(seed)?;
    // Set-up host times with the op each ran before.
    let mut setups = vec![(setup, 0)];
    let mut setup_wall_s = vec![wall];
    let cycle_len = w.cycle_len();

    let diag_start = Diagnostics::now();
    let mut failures = Vec::new();
    let mut probe = SpeedProbe::new();
    let mut probes = Vec::new();
    let mut last_probe: Option<Instant> = None;
    let between = |next: u64, elapsed: f64| {
        if setups.len() < SETUPS && elapsed >= seconds * setups.len() as f64 / SETUPS as f64 {
            let (_, setup, wall) = timed_setup::<W>(seed)?;
            setups.push((setup, next as usize));
            setup_wall_s.push(wall);
        }
        Ok(())
    };
    let step = |i: u64| {
        if last_probe.is_none_or(|t| t.elapsed() >= PROBE_EVERY) {
            probes.push(probe.run() as f64);
            last_probe = Some(Instant::now());
        }
        let (r, ns, wall_ns) = timed_op(&mut w, i, None);
        w.tidy();
        let out = r.map_err(|e| failures.push((i, e))).ok();
        Sample {
            slot: i as usize % cycle_len,
            probes: probes.len(),
            ns,
            wall_ns,
            out,
        }
    };
    let (samples, phase_s) = cycles(cycle_len, seconds, MIN_OPS, step, between)?;
    let diag = Diagnostics::now().since(&diag_start);

    // Bits of every op: its own count, or its slot's census.
    let mut census = vec![None; cycle_len];
    let mut op_bits = Vec::with_capacity(samples.len());
    for s in &samples {
        let b = match s.out.as_ref().and_then(|o| o.bits) {
            Some(b) => b,
            None if s.out.is_none() => 0,
            None => match census[s.slot] {
                Some(b) => b,
                None => {
                    let b = w.slot_bits(s.slot)?;
                    census[s.slot] = Some(b);
                    b
                }
            },
        };
        op_bits.push(b);
    }
    // Each host time scaled by the probes around it.
    let scale = |taken: usize| {
        let lo = taken.saturating_sub(PROBE_WINDOW + 1);
        let hi = (taken + PROBE_WINDOW).min(probes.len());
        PROBE_REFERENCE_NS / median(&probes[lo.min(hi.saturating_sub(1))..hi])
    };
    let raw_ns: Vec<f64> = samples.iter().map(|s| s.ns as f64).collect();
    let scaled_ns: Vec<f64> = samples
        .iter()
        .map(|s| s.ns as f64 * scale(s.probes))
        .collect();
    let raw = figures(&samples, &raw_ns, &op_bits, cycle_len);
    let scaled = figures(&samples, &scaled_ns, &op_bits, cycle_len);
    let setup_raw: Vec<f64> = setups.iter().map(|&(s, _)| s).collect();
    // The first set-up ran before any probe; the others right before one.
    let setup_scaled: Vec<f64> = setups
        .iter()
        .map(|&(s, next)| s * scale(samples.get(next).map_or(0, |x| x.probes)))
        .collect();
    let wall_ms: Vec<f64> = samples.iter().map(|s| s.wall_ns as f64 / 1e6).collect();

    let mut report = Report {
        attempted: samples.len() as u64,
        failed: failures.len() as u64,
        ..Report::default()
    };
    report.correct = failures.is_empty();
    let unscaled = [median(&setup_raw)].into_iter().chain(raw.values);
    report.metrics = vec![Metric::new("setup_s", median(&setup_scaled), "s")];
    for ((name, unit), value) in FIGURES.iter().zip(scaled.values) {
        report.metrics.push(Metric::new(*name, value, unit));
    }
    report
        .metrics
        .push(Metric::new("peak_rss_mb", peak_rss_mib()?, "MiB"));
    report.notes.push(format!(
        "host speed: probe median {:.0} ns over {} probes (reference {PROBE_REFERENCE_NS:.0} ns); \
         unscaled: {}",
        median(&probes),
        probes.len(),
        report.metrics[..6]
            .iter()
            .zip(unscaled)
            .map(|(m, v)| format!("{} {v:.6}", m.name))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    report.notes.push(format!(
        "{} ops in {} cycles of {cycle_len} over {phase_s:.2} s; tail: op_p90_ms is the \
         p90 of {} ops with {} ops beyond it",
        samples.len(),
        samples.len() / cycle_len,
        samples.len(),
        scaled.beyond,
    ));
    report.notes.push(format!(
        "raw channel bits per op slot: {}",
        op_bits[..cycle_len.min(op_bits.len())]
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let list = |xs: &[f64]| {
        xs.iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    report.notes.push(format!(
        "set-up host times (s), scaled: {}; unscaled: {}; wall: {}",
        list(&setup_scaled),
        list(&setup_raw),
        list(&setup_wall_s)
    ));
    report.notes.push(format!(
        "wall clock: op p50 {:.4} ms, op p90 {:.4} ms, {:.4} cells/s over the timed phase",
        median(&wall_ms),
        p90(&wall_ms).0,
        samples
            .iter()
            .filter_map(|s| s.out.as_ref())
            .map(|o| o.cells)
            .sum::<u64>() as f64
            / phase_s,
    ));
    let digest = first_cycle_digest(&samples[..cycle_len.min(samples.len())]);
    report
        .notes
        .push(format!("digest.sim {digest:016x} (first cycle, untraced)"));
    report.notes.push(diag.line());
    note_failures(&mut report, &failures);
    Ok(report)
}

fn first_cycle_digest(samples: &[Sample]) -> u64 {
    let mut h = Fnv::new();
    for s in samples {
        h.u64(s.out.as_ref().map_or(0, |o| o.digest));
    }
    h.finish()
}

/// The traced run of one workload: every op runs untraced, then traced;
/// both must produce the same simulated outputs. The per-layer metrics
/// come from the traced executions' spans, and the ratio of the two
/// executions' host time is the tracing overhead.
pub fn run_traced<W: Workload>(
    seed: u64,
    seconds: f64,
    spans_csv: &std::path::Path,
) -> Result<Report, String> {
    let tracer = Tracer::new();
    let mut w = W::setup(seed, Some(&tracer))?;
    let cycle_len = w.cycle_len();
    let mut failures = Vec::new();
    let mut untraced_ns = 0u64;
    let mut traced_ns = 0u64;
    let step = |i: u64| {
        // Alternate which execution goes first, so neither always runs
        // on caches the other warmed.
        let ((plain, plain_ns, _), (traced, ns, wall_ns)) = if i % 2 == 0 {
            let p = timed_op(&mut w, i, None);
            w.tidy();
            (p, timed_op(&mut w, i, Some(&tracer)))
        } else {
            let t = timed_op(&mut w, i, Some(&tracer));
            w.tidy();
            (timed_op(&mut w, i, None), t)
        };
        w.tidy();
        untraced_ns += plain_ns;
        traced_ns += ns;
        let out = match (plain, traced) {
            (Ok(a), Ok(b)) if a.digest == b.digest => Some(a),
            (Ok(_), Ok(_)) => {
                failures.push((i, "traced and untraced outputs differ".to_string()));
                None
            }
            (Err(e), _) | (_, Err(e)) => {
                failures.push((i, e));
                None
            }
        };
        Sample {
            slot: i as usize % cycle_len,
            probes: 0,
            ns,
            wall_ns,
            out,
        }
    };
    let (samples, _) = cycles(cycle_len, seconds, cycle_len, step, |_, _| Ok(()))?;

    let mut report = Report {
        attempted: samples.len() as u64,
        failed: failures.len() as u64,
        correct: failures.is_empty(),
        ..Report::default()
    };
    report.metrics = w.layer_metrics(&tracer);
    report.metrics.push(Metric::new(
        format!("trace.overhead.{}", W::NAME),
        traced_ns as f64 / untraced_ns.max(1) as f64,
        "ratio",
    ));
    let digest = first_cycle_digest(&samples[..cycle_len.min(samples.len())]);
    report.notes.push(format!(
        "{}: {} traced ops; digest.sim {digest:016x} digest.telemetry {:016x}",
        W::NAME,
        samples.len(),
        w.telemetry_digest()
    ));
    note_failures(&mut report, &failures);
    tracer
        .write_csv(spans_csv)
        .map_err(|e| format!("{}: {e}", spans_csv.display()))?;
    Ok(report)
}

#[repr(C)]
struct Timespec {
    sec: std::ffi::c_long,
    nsec: std::ffi::c_long,
}

extern "C" {
    fn clock_gettime(clock: std::ffi::c_int, tp: *mut Timespec) -> std::ffi::c_int;
}

/// CPU time of the calling thread, in nanoseconds:
/// `CLOCK_THREAD_CPUTIME_ID`. Unlike wall time it leaves out time the
/// hypervisor steals from the guest and time other tasks hold the CPU,
/// which on a shared host swing wall times of identical work by up to
/// twofold between minutes.
pub fn thread_cpu_ns() -> u64 {
    const CLOCK_THREAD_CPUTIME_ID: std::ffi::c_int = 3;
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `Timespec` matches `struct timespec` on 64-bit Linux (two
    // longs), and the pointer is to a live, writable value of that type.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) cannot fail");
    t.sec as u64 * 1_000_000_000 + t.nsec as u64
}

/// A fixed piece of work owned by the benchmark, so no change to the
/// program can move it: sorting 20 000 pseudo-random words (branchy,
/// cache-bound compute, like the simulator's), then formatting 1 500
/// short keys and values into an ordered map (allocation and string
/// building, like the store and renderers). Of the kernels tried (random
/// table walks of 16 KiB to 8 MiB, set-associative cache lookups,
/// hash-map updates, file reads and writes), these two tracked the
/// workloads' host times across runs most closely.
struct SpeedProbe {
    words: Vec<u64>,
}

impl SpeedProbe {
    fn new() -> Self {
        SpeedProbe {
            words: Vec::with_capacity(PROBE_WORDS),
        }
    }

    /// Runs the probe once and returns its CPU time in nanoseconds.
    fn run(&mut self) -> u64 {
        let start = thread_cpu_ns();
        self.words.clear();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..PROBE_WORDS {
            x = splitmix(x);
            self.words.push(x);
        }
        self.words.sort_unstable();
        let mut map = std::collections::BTreeMap::new();
        let keys = self.words.iter().step_by(PROBE_WORDS / PROBE_STRINGS);
        for (i, w) in keys.take(PROBE_STRINGS).enumerate() {
            map.insert(
                format!("cell/{w:016x}"),
                format!("{{\"i\": {i}, \"v\": {}}}", w >> 7),
            );
        }
        std::hint::black_box((&self.words, map));
        thread_cpu_ns() - start
    }
}

const PROBE_WORDS: usize = 20_000;
const PROBE_STRINGS: usize = 1_500;

/// Median, interpolating between the two middle values; 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank p90 and the number of samples beyond it.
pub fn p90(xs: &[f64]) -> (f64, usize) {
    if xs.is_empty() {
        return (0.0, 0);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (v.len() * 9).div_ceil(10);
    (v[rank - 1], v.len() - rank)
}

/// FNV-1a, 64-bit.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn bits(&mut self, bits: &[bool]) {
        self.u64(bits.len() as u64);
        for chunk in bits.chunks(8) {
            self.bytes(&[chunk.iter().fold(0u8, |acc, &b| (acc << 1) | b as u8)]);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// SplitMix64: derives independent seeds and payload bytes from the
/// workload seed.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [std::ffi::c_long; 2],
    stime: [std::ffi::c_long; 2],
    maxrss: std::ffi::c_long,
    ixrss: std::ffi::c_long,
    idrss: std::ffi::c_long,
    isrss: std::ffi::c_long,
    minflt: std::ffi::c_long,
    majflt: std::ffi::c_long,
    nswap: std::ffi::c_long,
    inblock: std::ffi::c_long,
    oublock: std::ffi::c_long,
    msgsnd: std::ffi::c_long,
    msgrcv: std::ffi::c_long,
    nsignals: std::ffi::c_long,
    nvcsw: std::ffi::c_long,
    nivcsw: std::ffi::c_long,
}

extern "C" {
    fn getrusage(who: std::ffi::c_int, usage: *mut RUsage) -> std::ffi::c_int;
}

/// Resource usage of the whole process, worker threads included (the
/// per-thread counters in /proc lose threads that have exited).
fn rusage() -> RUsage {
    let mut r = RUsage::default();
    // SAFETY: `RUsage` matches the layout of `struct rusage` on Linux
    // (two `struct timeval`s of two longs each, then fourteen longs), and
    // the pointer is to a live, writable value of that type.
    let rc = unsafe {
        getrusage(0 /* RUSAGE_SELF */, &mut r)
    };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    r
}

/// Peak resident set of this process, in MiB: `VmHWM` of
/// /proc/self/status (`getrusage`'s figure also counts the image the
/// process replaced at exec).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or("no VmHWM in /proc/self/status".to_string())
}

/// Interference seen by a run: context switches the process did not ask
/// for, and host CPU time stolen from this machine.
pub struct Diagnostics {
    involuntary: std::ffi::c_long,
    voluntary: std::ffi::c_long,
    steal_ticks: u64,
}

impl Diagnostics {
    pub fn now() -> Self {
        let r = rusage();
        Diagnostics {
            involuntary: r.nivcsw,
            voluntary: r.nvcsw,
            steal_ticks: steal_ticks(),
        }
    }

    pub fn since(&self, start: &Diagnostics) -> Diagnostics {
        Diagnostics {
            involuntary: self.involuntary - start.involuntary,
            voluntary: self.voluntary - start.voluntary,
            steal_ticks: self.steal_ticks.saturating_sub(start.steal_ticks),
        }
    }

    pub fn line(&self) -> String {
        format!(
            "diagnostics (timed phase): involuntary_ctx_switches {} voluntary_ctx_switches {} \
             host_steal_ticks {}",
            self.involuntary, self.voluntary, self.steal_ticks
        )
    }
}

/// The `steal` column of the aggregate `cpu` line of /proc/stat (0 where
/// the file or column is missing).
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_keeps_ten_samples_beyond_it_at_one_hundred() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p90(&xs), (90.0, 10));
        assert_eq!(median(&xs), 50.5);
    }
}
