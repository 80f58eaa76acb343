//! Bit-exact line encoding of [`Telemetry`] for `leaky_store` entries.
//!
//! The store persists every cell's measurement as a line-oriented,
//! checksummed text entry; this module extends that grammar with a
//! telemetry block so `--resume` can serve cached cells *with* their
//! traces. Floats are encoded as their IEEE-754 bit patterns in the
//! [`leaky_codec::token`] hex form (the CSV renderings in [`crate::event`] / [`crate::summary`] are
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
use leaky_codec::token::{hex_f64, parse_hex_f64};
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

fn push_hist(out: &mut String, name: &str, w: &OnlineStats) {
    let (count, mean, m2, min, max) = w.raw_parts();
    out.push_str(&format!(
        "tsum hist {name} {count} {} {} {} {}\n",
        hex_f64(mean),
        hex_f64(m2),
        hex_f64(min),
        hex_f64(max)
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
            hex_f64(tot.cycles),
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
            hex_f64(zero),
            hex_f64(one),
            hex_f64(thr),
            hex_f64(sep)
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
            hex_f64(*cycles),
            hex_f64(*lcp_stall_cycles),
            hex_f64(*switch_penalty_cycles)
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
            hex_f64(*penalty_cycles)
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
            format!("tev lsd_flush_penalty {thread} {}", hex_f64(*cycles))
        }
        TraceEvent::LcpStall {
            thread,
            stall_cycles,
        } => format!("tev lcp_stall {thread} {}", hex_f64(*stall_cycles)),
        TraceEvent::Calibration {
            zero_mean,
            one_mean,
            threshold,
            separation,
        } => format!(
            "tev calibration {} {} {} {}",
            hex_f64(*zero_mean),
            hex_f64(*one_mean),
            hex_f64(*threshold),
            hex_f64(*separation)
        ),
        TraceEvent::CalibrationFailed => "tev calibration_failed".to_string(),
        TraceEvent::ChannelMeasure { sent, value } => {
            format!(
                "tev channel_measure {} {}",
                u8::from(*sent),
                hex_f64(*value)
            )
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
            hex_f64(*value)
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

/// The space-separated fields of one line, read left to right. Each
/// read names the field it expects, so a decode error says which one
/// was missing or bad.
struct Fields<'a>(std::str::Split<'a, char>);

impl<'a> Fields<'a> {
    fn new(line: &'a str) -> Self {
        Fields(line.split(' '))
    }

    fn tok(&mut self, what: &str) -> Result<&'a str, CodecError> {
        self.0
            .next()
            .ok_or_else(|| malformed(format!("missing {what}")))
    }

    fn int<T: std::str::FromStr>(&mut self, what: &str) -> Result<T, CodecError> {
        let tok = self.tok(what)?;
        tok.parse()
            .map_err(|_| malformed(format!("bad {what} {tok:?}")))
    }

    fn float(&mut self, what: &str) -> Result<f64, CodecError> {
        let tok = self.tok(what)?;
        parse_hex_f64(tok).ok_or_else(|| malformed(format!("bad {what} {tok:?}")))
    }

    fn flag(&mut self, what: &str) -> Result<bool, CodecError> {
        match self.tok(what)? {
            "0" => Ok(false),
            "1" => Ok(true),
            tok => Err(malformed(format!("bad {what} {tok:?}"))),
        }
    }

    fn source(&mut self) -> Result<Source, CodecError> {
        let tok = self.tok("source")?;
        Source::ALL
            .into_iter()
            .find(|s| s.label() == tok)
            .ok_or_else(|| malformed(format!("unknown source {tok:?}")))
    }

    fn reason(&mut self) -> Result<UnlockReason, CodecError> {
        let tok = self.tok("unlock reason")?;
        UnlockReason::ALL
            .into_iter()
            .find(|r| r.label() == tok)
            .ok_or_else(|| malformed(format!("unknown unlock reason {tok:?}")))
    }

    /// `value`, provided every field was consumed.
    fn end<T>(mut self, value: T) -> Result<T, CodecError> {
        match self.0.next() {
            None => Ok(value),
            Some(tok) => Err(malformed(format!("unexpected field {tok:?}"))),
        }
    }
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
    let mut it = lines.iter().peekable();
    let header = it.next().ok_or_else(|| malformed("empty block"))?;
    let mode = match header.strip_prefix("telemetry ") {
        Some("summary") => TraceMode::Summary,
        Some("events") => TraceMode::Events,
        _ => return Err(malformed(format!("bad header {header:?}"))),
    };

    // The fixed summary lines, in encode order: `tsum <tag> <fields...>`.
    let mut tsum = |tag: &str| -> Result<Fields, CodecError> {
        let line = it
            .next()
            .ok_or_else(|| malformed(format!("missing tsum {tag} line")))?;
        let mut f = Fields::new(line);
        if f.tok("tsum")? != "tsum" || f.tok(tag)? != tag {
            return Err(malformed(format!("expected tsum {tag}, got {line:?}")));
        }
        Ok(f)
    };
    let mut s = StallSummary::new();
    let mut f = tsum("iterations")?;
    s.iterations = f.int("iterations")?;
    f.end(())?;
    for src in Source::ALL {
        let mut f = tsum("source")?;
        if f.source()? != src {
            return Err(malformed(format!(
                "source lines out of order: expected {}",
                src.label()
            )));
        }
        let tot = &mut s.per_source[src.index()];
        tot.iterations = f.int("source iterations")?;
        tot.cycles = f.float("source cycles")?;
        tot.uops = f.int("source uops")?;
        f.end(())?;
    }
    for (name, hist) in [
        ("iteration_cycles", &mut s.iteration_cycles),
        ("lcp_stall", &mut s.lcp_stall),
        ("switch_stall", &mut s.switch_stall),
    ] {
        let mut f = tsum("hist")?;
        if f.tok("hist name")? != name {
            return Err(malformed(format!(
                "hist lines out of order: expected {name}"
            )));
        }
        *hist = OnlineStats::from_raw_parts(
            f.int("hist count")?,
            f.float("hist mean")?,
            f.float("hist m2")?,
            f.float("hist min")?,
            f.float("hist max")?,
        );
        f.end(())?;
    }
    let mut f = tsum("unlocks")?;
    for slot in &mut s.lsd_unlocks {
        *slot = f.int("unlock count")?;
    }
    f.end(())?;
    let mut f = tsum("counters")?;
    for slot in [
        &mut s.lsd_locks,
        &mut s.lsd_flushes,
        &mut s.dsb_evictions,
        &mut s.l1i_misses,
        &mut s.channel_measures,
        &mut s.calibrations,
        &mut s.failed_calibrations,
        &mut s.bits,
        &mut s.bit_errors,
        &mut s.resamples,
    ] {
        *slot = f.int("counter")?;
    }
    f.end(())?;

    if let Some(cal) = it.peek().and_then(|l| l.strip_prefix("tsum calibration ")) {
        let mut f = Fields::new(cal);
        s.last_calibration = Some([
            f.float("calibration zero_mean")?,
            f.float("calibration one_mean")?,
            f.float("calibration threshold")?,
            f.float("calibration separation")?,
        ]);
        f.end(())?;
        it.next();
    }
    let events = it
        .map(|line| {
            let rest = line
                .strip_prefix("tev ")
                .or_else(|| (*line == "tev").then_some(""))
                .ok_or_else(|| malformed(format!("expected tev line, got {line:?}")))?;
            if mode != TraceMode::Events {
                return Err(malformed("event lines in a summary-mode block"));
            }
            decode_event(rest)
        })
        .collect::<Result<_, _>>()?;
    Ok(Telemetry {
        mode,
        summary: s,
        events,
    })
}

fn decode_event(rest: &str) -> Result<TraceEvent, CodecError> {
    let mut f = Fields::new(rest);
    let event = match f.tok("event kind")? {
        "iteration" => TraceEvent::Iteration {
            thread: f.int("thread")?,
            source: f.source()?,
            weight: f.int("weight")?,
            cycles: f.float("cycles")?,
            lsd_uops: f.int("lsd_uops")?,
            dsb_uops: f.int("dsb_uops")?,
            mite_uops: f.int("mite_uops")?,
            lcp_stall_cycles: f.float("lcp_stall_cycles")?,
            switch_penalty_cycles: f.float("switch_penalty_cycles")?,
            dsb_to_mite_switches: f.int("dsb_to_mite_switches")?,
            dsb_evictions: f.int("dsb_evictions")?,
            lsd_flushes: f.int("lsd_flushes")?,
            l1i_misses: f.int("l1i_misses")?,
        },
        "source_switch" => TraceEvent::SourceSwitch {
            thread: f.int("thread")?,
            from: f.source()?,
            to: f.source()?,
            penalty_cycles: f.float("penalty_cycles")?,
        },
        "lsd_lock" => TraceEvent::LsdLock {
            thread: f.int("thread")?,
            uops: f.int("uops")?,
            lines: f.int("lines")?,
        },
        "lsd_unlock" => TraceEvent::LsdUnlock {
            thread: f.int("thread")?,
            reason: f.reason()?,
        },
        "lsd_flush_penalty" => TraceEvent::LsdFlushPenalty {
            thread: f.int("thread")?,
            cycles: f.float("cycles")?,
        },
        "lcp_stall" => TraceEvent::LcpStall {
            thread: f.int("thread")?,
            stall_cycles: f.float("stall_cycles")?,
        },
        "calibration" => TraceEvent::Calibration {
            zero_mean: f.float("zero_mean")?,
            one_mean: f.float("one_mean")?,
            threshold: f.float("threshold")?,
            separation: f.float("separation")?,
        },
        "calibration_failed" => TraceEvent::CalibrationFailed,
        "channel_measure" => TraceEvent::ChannelMeasure {
            sent: f.flag("sent")?,
            value: f.float("value")?,
        },
        "bit_decoded" => TraceEvent::BitDecoded {
            index: f.int("index")?,
            sent: f.flag("sent")?,
            received: f.flag("received")?,
            value: f.float("value")?,
            resamples: f.int("resamples")?,
        },
        "session_start" => TraceEvent::SessionStart {
            bits: f.int("bits")?,
        },
        "session_end" => TraceEvent::SessionEnd {
            bits: f.int("bits")?,
            errors: f.int("errors")?,
        },
        other => return Err(malformed(format!("unknown event kind {other:?}"))),
    };
    f.end(event)
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
