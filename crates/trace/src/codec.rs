//! Bit-exact line encoding of [`Telemetry`] for `leaky_store` entries.
//!
//! The store persists every cell's measurement as a line-oriented,
//! checksummed text entry; this module extends that grammar with a
//! telemetry block so `--resume` can serve cached cells *with* their
//! traces. Floats are encoded as `0x`-prefixed IEEE-754 bit patterns
//! (the CSV renderings in [`crate::event`] / [`crate::summary`] are
//! decimal and lossy, so they cannot round-trip), which makes
//! `decode(encode(t)) == t` exact for every value including NaN, ±inf
//! and -0.0.
//!
//! Block grammar (one telemetry per entry, all lines `\n`-terminated):
//!
//! ```text
//! telemetry <mode-label>
//! tsum iterations <u64>
//! tsum source <label> <iterations> <cycles:hex> <uops>      (x3, Source::ALL order)
//! tsum hist <name> <count> <mean:hex> <m2:hex> <min:hex> <max:hex>   (x3)
//! tsum unlocks <u64> <u64> <u64> <u64>
//! tsum counters <lsd_locks> <lsd_flushes> <dsb_evictions> <l1i_misses>
//!               <channel_measures> <calibrations> <failed_calibrations>
//!               <bits> <bit_errors> <resamples>
//! tsum calibration <hex> <hex> <hex> <hex>                  (only if Some)
//! tev <kind> <fields...>                                    (events mode only)
//! ```
//!
//! Decoding is strict: unknown tags, wrong field counts, out-of-order
//! summary lines and unparseable tokens are all [`CodecError`]s, never
//! silent defaults — the same discipline as the store's own entry
//! parser, which quarantines what it cannot prove intact.

use crate::event::{Source, TraceEvent, UnlockReason};
use crate::hook::TraceMode;
use crate::summary::StallSummary;
use crate::telemetry::Telemetry;
use leaky_stats::OnlineStats;

/// Why a telemetry block failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// A line did not match the grammar; carries a human-readable
    /// reason naming the offending construct.
    Malformed(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Malformed(reason) => write!(f, "malformed telemetry: {reason}"),
        }
    }
}

impl std::error::Error for CodecError {}

fn hex(v: f64) -> String {
    format!("0x{:016x}", v.to_bits())
}

fn push_hist(out: &mut String, name: &str, w: &OnlineStats) {
    let (count, mean, m2, min, max) = w.raw_parts();
    out.push_str(&format!(
        "tsum hist {name} {count} {} {} {} {}\n",
        hex(mean),
        hex(m2),
        hex(min),
        hex(max)
    ));
}

/// Encodes a telemetry record as its line block (every line
/// `\n`-terminated). The output is a pure function of the record, so
/// store entries stay byte-identical at any worker count.
pub fn encode(t: &Telemetry) -> String {
    let s = &t.summary;
    let mut out = String::with_capacity(512 + t.events.len() * 64);
    out.push_str(&format!("telemetry {}\n", t.mode.label()));
    out.push_str(&format!("tsum iterations {}\n", s.iterations));
    for src in Source::ALL {
        let tot = &s.per_source[src.index()];
        out.push_str(&format!(
            "tsum source {} {} {} {}\n",
            src.label(),
            tot.iterations,
            hex(tot.cycles),
            tot.uops
        ));
    }
    push_hist(&mut out, "iteration_cycles", &s.iteration_cycles);
    push_hist(&mut out, "lcp_stall", &s.lcp_stall);
    push_hist(&mut out, "switch_stall", &s.switch_stall);
    out.push_str(&format!(
        "tsum unlocks {} {} {} {}\n",
        s.lsd_unlocks[0], s.lsd_unlocks[1], s.lsd_unlocks[2], s.lsd_unlocks[3]
    ));
    out.push_str(&format!(
        "tsum counters {} {} {} {} {} {} {} {} {} {}\n",
        s.lsd_locks,
        s.lsd_flushes,
        s.dsb_evictions,
        s.l1i_misses,
        s.channel_measures,
        s.calibrations,
        s.failed_calibrations,
        s.bits,
        s.bit_errors,
        s.resamples
    ));
    if let Some([zero, one, thr, sep]) = s.last_calibration {
        out.push_str(&format!(
            "tsum calibration {} {} {} {}\n",
            hex(zero),
            hex(one),
            hex(thr),
            hex(sep)
        ));
    }
    for e in &t.events {
        out.push_str(&encode_event(e));
        out.push('\n');
    }
    out
}

fn encode_event(e: &TraceEvent) -> String {
    match e {
        TraceEvent::Iteration {
            thread,
            source,
            weight,
            cycles,
            lsd_uops,
            dsb_uops,
            mite_uops,
            lcp_stall_cycles,
            switch_penalty_cycles,
            dsb_to_mite_switches,
            dsb_evictions,
            lsd_flushes,
            l1i_misses,
        } => format!(
            "tev iteration {thread} {} {weight} {} {lsd_uops} {dsb_uops} {mite_uops} {} {} \
             {dsb_to_mite_switches} {dsb_evictions} {lsd_flushes} {l1i_misses}",
            source.label(),
            hex(*cycles),
            hex(*lcp_stall_cycles),
            hex(*switch_penalty_cycles)
        ),
        TraceEvent::SourceSwitch {
            thread,
            from,
            to,
            penalty_cycles,
        } => format!(
            "tev source_switch {thread} {} {} {}",
            from.label(),
            to.label(),
            hex(*penalty_cycles)
        ),
        TraceEvent::LsdLock {
            thread,
            uops,
            lines,
        } => format!("tev lsd_lock {thread} {uops} {lines}"),
        TraceEvent::LsdUnlock { thread, reason } => {
            format!("tev lsd_unlock {thread} {}", reason.label())
        }
        TraceEvent::LsdFlushPenalty { thread, cycles } => {
            format!("tev lsd_flush_penalty {thread} {}", hex(*cycles))
        }
        TraceEvent::LcpStall {
            thread,
            stall_cycles,
        } => format!("tev lcp_stall {thread} {}", hex(*stall_cycles)),
        TraceEvent::Calibration {
            zero_mean,
            one_mean,
            threshold,
            separation,
        } => format!(
            "tev calibration {} {} {} {}",
            hex(*zero_mean),
            hex(*one_mean),
            hex(*threshold),
            hex(*separation)
        ),
        TraceEvent::CalibrationFailed => "tev calibration_failed".to_string(),
        TraceEvent::ChannelMeasure { sent, value } => {
            format!("tev channel_measure {} {}", u8::from(*sent), hex(*value))
        }
        TraceEvent::BitDecoded {
            index,
            sent,
            received,
            value,
            resamples,
        } => format!(
            "tev bit_decoded {index} {} {} {} {resamples}",
            u8::from(*sent),
            u8::from(*received),
            hex(*value)
        ),
        TraceEvent::SessionStart { bits } => format!("tev session_start {bits}"),
        TraceEvent::SessionEnd { bits, errors } => {
            format!("tev session_end {bits} {errors}")
        }
    }
}

fn malformed(reason: impl Into<String>) -> CodecError {
    CodecError::Malformed(reason.into())
}

fn parse_u64(tok: &str, what: &str) -> Result<u64, CodecError> {
    tok.parse::<u64>()
        .map_err(|_| malformed(format!("bad {what} {tok:?}")))
}

fn parse_u32(tok: &str, what: &str) -> Result<u32, CodecError> {
    tok.parse::<u32>()
        .map_err(|_| malformed(format!("bad {what} {tok:?}")))
}

fn parse_u8(tok: &str, what: &str) -> Result<u8, CodecError> {
    tok.parse::<u8>()
        .map_err(|_| malformed(format!("bad {what} {tok:?}")))
}

fn parse_f64(tok: &str, what: &str) -> Result<f64, CodecError> {
    let digits = tok
        .strip_prefix("0x")
        .ok_or_else(|| malformed(format!("bad {what} {tok:?}: missing 0x")))?;
    let bits =
        u64::from_str_radix(digits, 16).map_err(|_| malformed(format!("bad {what} {tok:?}")))?;
    Ok(f64::from_bits(bits))
}

fn parse_bool(tok: &str, what: &str) -> Result<bool, CodecError> {
    match tok {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(malformed(format!("bad {what} {tok:?}"))),
    }
}

fn parse_source(tok: &str) -> Result<Source, CodecError> {
    Source::ALL
        .into_iter()
        .find(|s| s.label() == tok)
        .ok_or_else(|| malformed(format!("unknown source {tok:?}")))
}

fn parse_reason(tok: &str) -> Result<UnlockReason, CodecError> {
    UnlockReason::ALL
        .into_iter()
        .find(|r| r.label() == tok)
        .ok_or_else(|| malformed(format!("unknown unlock reason {tok:?}")))
}

fn parse_hist(fields: &[&str]) -> Result<OnlineStats, CodecError> {
    if fields.len() != 5 {
        return Err(malformed("hist line needs 5 fields"));
    }
    Ok(OnlineStats::from_raw_parts(
        parse_u64(fields[0], "hist count")?,
        parse_f64(fields[1], "hist mean")?,
        parse_f64(fields[2], "hist m2")?,
        parse_f64(fields[3], "hist min")?,
        parse_f64(fields[4], "hist max")?,
    ))
}

/// Decodes a telemetry block from its lines (no trailing-newline
/// tokens; split the block on `\n` first). The slice must start with
/// the `telemetry <mode>` header and contain the complete block in
/// [`encode`]'s order.
///
/// # Errors
///
/// [`CodecError::Malformed`] on any deviation from the grammar.
pub fn decode(lines: &[&str]) -> Result<Telemetry, CodecError> {
    let mut it = lines.iter();
    let header = it.next().ok_or_else(|| malformed("empty block"))?;
    let mode_label = header
        .strip_prefix("telemetry ")
        .ok_or_else(|| malformed(format!("bad header {header:?}")))?;
    let mode = match mode_label {
        "summary" => TraceMode::Summary,
        "events" => TraceMode::Events,
        other => return Err(malformed(format!("unknown trace mode {other:?}"))),
    };

    let mut summary = StallSummary::new();
    let mut next_summary_line = |want: &str| -> Result<Vec<&str>, CodecError> {
        let line = it
            .next()
            .ok_or_else(|| malformed(format!("missing {want} line")))?;
        let rest = line
            .strip_prefix("tsum ")
            .ok_or_else(|| malformed(format!("expected tsum {want}, got {line:?}")))?;
        let toks: Vec<&str> = rest.split(' ').collect();
        if toks.first() != Some(&want) {
            return Err(malformed(format!("expected tsum {want}, got {line:?}")));
        }
        Ok(toks[1..].to_vec())
    };

    let toks = next_summary_line("iterations")?;
    if toks.len() != 1 {
        return Err(malformed("iterations line needs 1 field"));
    }
    summary.iterations = parse_u64(toks[0], "iterations")?;

    for src in Source::ALL {
        let toks = next_summary_line("source")?;
        if toks.len() != 4 {
            return Err(malformed("source line needs 4 fields"));
        }
        if toks[0] != src.label() {
            return Err(malformed(format!(
                "source lines out of order: expected {}, got {}",
                src.label(),
                toks[0]
            )));
        }
        let tot = &mut summary.per_source[src.index()];
        tot.iterations = parse_u64(toks[1], "source iterations")?;
        tot.cycles = parse_f64(toks[2], "source cycles")?;
        tot.uops = parse_u64(toks[3], "source uops")?;
    }

    for name in ["iteration_cycles", "lcp_stall", "switch_stall"] {
        let toks = next_summary_line("hist")?;
        if toks.first() != Some(&name) {
            return Err(malformed(format!(
                "hist lines out of order: expected {name}"
            )));
        }
        let hist = parse_hist(&toks[1..])?;
        match name {
            "iteration_cycles" => summary.iteration_cycles = hist,
            "lcp_stall" => summary.lcp_stall = hist,
            _ => summary.switch_stall = hist,
        }
    }

    let toks = next_summary_line("unlocks")?;
    if toks.len() != 4 {
        return Err(malformed("unlocks line needs 4 fields"));
    }
    for (slot, tok) in summary.lsd_unlocks.iter_mut().zip(&toks) {
        *slot = parse_u64(tok, "unlock count")?;
    }

    let toks = next_summary_line("counters")?;
    if toks.len() != 10 {
        return Err(malformed("counters line needs 10 fields"));
    }
    summary.lsd_locks = parse_u64(toks[0], "lsd_locks")?;
    summary.lsd_flushes = parse_u64(toks[1], "lsd_flushes")?;
    summary.dsb_evictions = parse_u64(toks[2], "dsb_evictions")?;
    summary.l1i_misses = parse_u64(toks[3], "l1i_misses")?;
    summary.channel_measures = parse_u64(toks[4], "channel_measures")?;
    summary.calibrations = parse_u64(toks[5], "calibrations")?;
    summary.failed_calibrations = parse_u64(toks[6], "failed_calibrations")?;
    summary.bits = parse_u64(toks[7], "bits")?;
    summary.bit_errors = parse_u64(toks[8], "bit_errors")?;
    summary.resamples = parse_u64(toks[9], "resamples")?;

    let mut events = Vec::new();
    let rest: Vec<&str> = it.copied().collect();
    let mut rest_it = rest.iter().peekable();
    if let Some(line) = rest_it.peek() {
        if let Some(cal) = line.strip_prefix("tsum calibration ") {
            let toks: Vec<&str> = cal.split(' ').collect();
            if toks.len() != 4 {
                return Err(malformed("calibration line needs 4 fields"));
            }
            summary.last_calibration = Some([
                parse_f64(toks[0], "calibration zero_mean")?,
                parse_f64(toks[1], "calibration one_mean")?,
                parse_f64(toks[2], "calibration threshold")?,
                parse_f64(toks[3], "calibration separation")?,
            ]);
            rest_it.next();
        }
    }
    for line in rest_it {
        let rest = line
            .strip_prefix("tev ")
            .or_else(|| (*line == "tev").then_some(""))
            .ok_or_else(|| malformed(format!("expected tev line, got {line:?}")))?;
        if mode != TraceMode::Events {
            return Err(malformed("event lines in a summary-mode block"));
        }
        events.push(decode_event(rest)?);
    }
    Ok(Telemetry {
        mode,
        summary,
        events,
    })
}

fn decode_event(rest: &str) -> Result<TraceEvent, CodecError> {
    let toks: Vec<&str> = rest.split(' ').collect();
    let (kind, f) = toks
        .split_first()
        .ok_or_else(|| malformed("empty event line"))?;
    let arity = |n: usize| -> Result<(), CodecError> {
        if f.len() == n {
            Ok(())
        } else {
            Err(malformed(format!(
                "event {kind} needs {n} fields, got {}",
                f.len()
            )))
        }
    };
    Ok(match *kind {
        "iteration" => {
            arity(13)?;
            TraceEvent::Iteration {
                thread: parse_u8(f[0], "thread")?,
                source: parse_source(f[1])?,
                weight: parse_u64(f[2], "weight")?,
                cycles: parse_f64(f[3], "cycles")?,
                lsd_uops: parse_u64(f[4], "lsd_uops")?,
                dsb_uops: parse_u64(f[5], "dsb_uops")?,
                mite_uops: parse_u64(f[6], "mite_uops")?,
                lcp_stall_cycles: parse_f64(f[7], "lcp_stall_cycles")?,
                switch_penalty_cycles: parse_f64(f[8], "switch_penalty_cycles")?,
                dsb_to_mite_switches: parse_u64(f[9], "dsb_to_mite_switches")?,
                dsb_evictions: parse_u64(f[10], "dsb_evictions")?,
                lsd_flushes: parse_u64(f[11], "lsd_flushes")?,
                l1i_misses: parse_u64(f[12], "l1i_misses")?,
            }
        }
        "source_switch" => {
            arity(4)?;
            TraceEvent::SourceSwitch {
                thread: parse_u8(f[0], "thread")?,
                from: parse_source(f[1])?,
                to: parse_source(f[2])?,
                penalty_cycles: parse_f64(f[3], "penalty_cycles")?,
            }
        }
        "lsd_lock" => {
            arity(3)?;
            TraceEvent::LsdLock {
                thread: parse_u8(f[0], "thread")?,
                uops: parse_u32(f[1], "uops")?,
                lines: parse_u8(f[2], "lines")?,
            }
        }
        "lsd_unlock" => {
            arity(2)?;
            TraceEvent::LsdUnlock {
                thread: parse_u8(f[0], "thread")?,
                reason: parse_reason(f[1])?,
            }
        }
        "lsd_flush_penalty" => {
            arity(2)?;
            TraceEvent::LsdFlushPenalty {
                thread: parse_u8(f[0], "thread")?,
                cycles: parse_f64(f[1], "cycles")?,
            }
        }
        "lcp_stall" => {
            arity(2)?;
            TraceEvent::LcpStall {
                thread: parse_u8(f[0], "thread")?,
                stall_cycles: parse_f64(f[1], "stall_cycles")?,
            }
        }
        "calibration" => {
            arity(4)?;
            TraceEvent::Calibration {
                zero_mean: parse_f64(f[0], "zero_mean")?,
                one_mean: parse_f64(f[1], "one_mean")?,
                threshold: parse_f64(f[2], "threshold")?,
                separation: parse_f64(f[3], "separation")?,
            }
        }
        "calibration_failed" => {
            arity(0)?;
            TraceEvent::CalibrationFailed
        }
        "channel_measure" => {
            arity(2)?;
            TraceEvent::ChannelMeasure {
                sent: parse_bool(f[0], "sent")?,
                value: parse_f64(f[1], "value")?,
            }
        }
        "bit_decoded" => {
            arity(5)?;
            TraceEvent::BitDecoded {
                index: parse_u64(f[0], "index")?,
                sent: parse_bool(f[1], "sent")?,
                received: parse_bool(f[2], "received")?,
                value: parse_f64(f[3], "value")?,
                resamples: parse_u32(f[4], "resamples")?,
            }
        }
        "session_start" => {
            arity(1)?;
            TraceEvent::SessionStart {
                bits: parse_u64(f[0], "bits")?,
            }
        }
        "session_end" => {
            arity(2)?;
            TraceEvent::SessionEnd {
                bits: parse_u64(f[0], "bits")?,
                errors: parse_u64(f[1], "errors")?,
            }
        }
        other => return Err(malformed(format!("unknown event kind {other:?}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hook::TraceHook;

    fn full_summary() -> StallSummary {
        let mut s = StallSummary::new();
        for e in &all_events() {
            s.fold(e);
        }
        s
    }

    fn all_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::SessionStart { bits: 2 },
            TraceEvent::Iteration {
                thread: 1,
                source: Source::Dsb,
                weight: 3,
                cycles: 12.75,
                lsd_uops: 4,
                dsb_uops: 10,
                mite_uops: 2,
                lcp_stall_cycles: 1.5,
                switch_penalty_cycles: 8.0,
                dsb_to_mite_switches: 1,
                dsb_evictions: 2,
                lsd_flushes: 1,
                l1i_misses: 1,
            },
            TraceEvent::SourceSwitch {
                thread: 0,
                from: Source::Dsb,
                to: Source::Mite,
                penalty_cycles: 8.0,
            },
            TraceEvent::LsdLock {
                thread: 0,
                uops: 48,
                lines: 6,
            },
            TraceEvent::LsdUnlock {
                thread: 0,
                reason: UnlockReason::SiblingCollapse,
            },
            TraceEvent::LsdFlushPenalty {
                thread: 0,
                cycles: 6.0,
            },
            TraceEvent::LcpStall {
                thread: 1,
                stall_cycles: 1.5,
            },
            TraceEvent::Calibration {
                zero_mean: 2295.0,
                one_mean: 2897.25,
                threshold: 2596.125,
                separation: 602.25,
            },
            TraceEvent::CalibrationFailed,
            TraceEvent::ChannelMeasure {
                sent: true,
                value: 2900.5,
            },
            TraceEvent::BitDecoded {
                index: 0,
                sent: true,
                received: false,
                value: 2300.0,
                resamples: 2,
            },
            TraceEvent::SessionEnd { bits: 2, errors: 1 },
        ]
    }

    #[test]
    fn summary_mode_round_trips_exactly() {
        let t = Telemetry {
            mode: TraceMode::Summary,
            summary: full_summary(),
            events: Vec::new(),
        };
        let block = encode(&t);
        let lines: Vec<&str> = block.lines().collect();
        assert_eq!(decode(&lines).unwrap(), t);
        // And the encoding itself is deterministic.
        assert_eq!(block, encode(&t));
    }

    #[test]
    fn events_mode_round_trips_every_variant() {
        let t = Telemetry {
            mode: TraceMode::Events,
            summary: full_summary(),
            events: all_events(),
        };
        let lines_owned = encode(&t);
        let lines: Vec<&str> = lines_owned.lines().collect();
        assert_eq!(decode(&lines).unwrap(), t);
    }

    #[test]
    fn exotic_floats_survive() {
        let mut s = StallSummary::new();
        s.fold(&TraceEvent::LcpStall {
            thread: 0,
            stall_cycles: -0.0,
        });
        s.fold(&TraceEvent::Calibration {
            zero_mean: f64::NAN,
            one_mean: f64::INFINITY,
            threshold: f64::NEG_INFINITY,
            separation: 1e-310, // subnormal
        });
        let t = Telemetry {
            mode: TraceMode::Summary,
            summary: s,
            events: Vec::new(),
        };
        let block = encode(&t);
        let lines: Vec<&str> = block.lines().collect();
        let back = decode(&lines).unwrap();
        let [zero, one, thr, sep] = back.summary.last_calibration.unwrap();
        assert!(zero.is_nan());
        assert_eq!(one, f64::INFINITY);
        assert_eq!(thr, f64::NEG_INFINITY);
        assert_eq!(sep.to_bits(), 1e-310f64.to_bits());
        // The empty-histogram ±inf extrema survive too.
        assert_eq!(back.summary.iteration_cycles.min(), f64::INFINITY);
        assert_eq!(back.summary.iteration_cycles.max(), f64::NEG_INFINITY);
        // -0.0 is distinguishable from 0.0 only through the bits.
        assert_eq!(back.summary.lcp_stall.min().to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn welford_raw_parts_round_trip() {
        let mut w = OnlineStats::new();
        for x in [2.0, 4.5, -1.25, 1e9] {
            w.push(x);
        }
        let (c, mean, m2, min, max) = w.raw_parts();
        assert_eq!(OnlineStats::from_raw_parts(c, mean, m2, min, max), w);
    }

    #[test]
    fn strict_errors_not_defaults() {
        let t = Telemetry {
            mode: TraceMode::Summary,
            summary: full_summary(),
            events: Vec::new(),
        };
        let block = encode(&t);
        let lines: Vec<&str> = block.lines().collect();

        // Unknown mode.
        let mut bad = lines.clone();
        bad[0] = "telemetry verbose";
        assert!(decode(&bad).is_err());
        // Missing (required) line — cut inside the fixed summary block.
        assert!(decode(&lines[..4]).is_err());
        // Reordered summary lines.
        let mut bad = lines.clone();
        bad.swap(2, 3);
        assert!(decode(&bad).is_err());
        // Event lines in a summary block.
        let mut bad = lines.clone();
        bad.push("tev calibration_failed");
        assert!(decode(&bad).is_err());
        // Unknown event kind.
        let t_ev = Telemetry {
            mode: TraceMode::Events,
            summary: StallSummary::new(),
            events: vec![TraceEvent::CalibrationFailed],
        };
        let block = encode(&t_ev);
        let mut lines: Vec<&str> = block.lines().collect();
        let n = lines.len();
        lines[n - 1] = "tev warp_drive_engaged";
        let err = decode(&lines).unwrap_err();
        assert!(err.to_string().contains("unknown event kind"));
    }

    #[test]
    fn hook_telemetry_round_trips_through_codec() {
        let mut hook = TraceHook::new(TraceMode::Events);
        for e in all_events() {
            hook.emit(|| e.clone());
        }
        let t = hook.into_telemetry().expect("hook was on");
        let block = encode(&t);
        let lines: Vec<&str> = block.lines().collect();
        assert_eq!(decode(&lines).unwrap(), t);
    }
}
