//! The JSON telemetry record that rides along `CellMeasurement` into
//! sweep JSON, and the per-cell trace-file renderings.

use crate::event::{Source, TraceEvent, UnlockReason, CSV_HEADER};
use crate::hook::TraceMode;
use crate::summary::StallSummary;
use leaky_codec::json::number;
use leaky_codec::schema;
use std::fmt::Write as _;

/// A finished trace, detached from its hook: the stall summary plus (in
/// events mode) the raw event stream.
///
/// The JSON rendering deliberately carries only the summary and the
/// event *count* — full event streams go to per-cell trace files via
/// [`Telemetry::trace_file_contents`], keeping sweep documents compact.
#[derive(Debug, Clone, PartialEq)]
pub struct Telemetry {
    /// The mode the producing hook ran in (never `Off`).
    pub mode: TraceMode,
    /// The folded stall summary.
    pub summary: StallSummary,
    /// The raw events (empty unless `mode == Events`).
    pub events: Vec<TraceEvent>,
}

impl Telemetry {
    /// Renders the telemetry as one inline JSON object (no trailing
    /// newline), a pure function of the trace contents — byte-identical
    /// at any sweep worker count.
    pub fn to_json_inline(&self) -> String {
        let s = &self.summary;
        let mut out = String::with_capacity(1024);
        let _ = write!(
            out,
            "{{\"schema\": \"{}\", \"mode\": \"{}\", \"events\": {}, \
             \"iterations\": {}, \"sources\": {{",
            schema::TRACE,
            self.mode.label(),
            self.events.len(),
            s.iterations
        );
        for (i, src) in Source::ALL.iter().enumerate() {
            let t = &s.per_source[src.index()];
            let _ = write!(
                out,
                "{}\"{}\": {{\"iterations\": {}, \"cycles\": {}, \"uops\": {}, \
                 \"mean_cycles\": {}}}",
                if i > 0 { ", " } else { "" },
                src.label(),
                t.iterations,
                number(t.cycles),
                t.uops,
                number(s.mean_cycles(*src)),
            );
        }
        let _ = write!(out, "}}, \"dsb_mite_gap\": {}, ", number(s.dsb_mite_gap()));
        for (name, w) in [
            ("iteration_cycles", &s.iteration_cycles),
            ("lcp_stall", &s.lcp_stall),
            ("switch_stall", &s.switch_stall),
        ] {
            let _ = write!(
                out,
                "\"{name}\": {{\"count\": {}, \"mean\": {}, \"stddev\": {}, \"min\": {}, \
                 \"max\": {}}}, ",
                w.count(),
                number(w.mean()),
                number(w.std_dev()),
                number(w.min()),
                number(w.max()),
            );
        }
        let _ = write!(out, "\"lsd_locks\": {}, \"lsd_unlocks\": {{", s.lsd_locks);
        for (i, r) in UnlockReason::ALL.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(out, "{sep}\"{}\": {}", r.label(), s.lsd_unlocks[r.index()]);
        }
        let _ = write!(
            out,
            "}}, \"lsd_flushes\": {}, \"dsb_evictions\": {}, \"l1i_misses\": {}, \
             \"channel\": {{\"measures\": {}, \"calibrations\": {}, \"failed_calibrations\": {}, ",
            s.lsd_flushes,
            s.dsb_evictions,
            s.l1i_misses,
            s.channel_measures,
            s.calibrations,
            s.failed_calibrations
        );
        if let Some([zero, one, thr, sep]) = s.last_calibration {
            let _ = write!(
                out,
                "\"calibration\": {{\"zero_mean\": {}, \"one_mean\": {}, \
                 \"threshold\": {}, \"separation\": {}}}, ",
                number(zero),
                number(one),
                number(thr),
                number(sep),
            );
        }
        let _ = write!(
            out,
            "\"bits\": {}, \"bit_errors\": {}, \"error_rate\": {}, \"resamples\": {}}}}}",
            s.bits,
            s.bit_errors,
            number(s.error_rate()),
            s.resamples
        );
        out
    }

    /// Renders the per-cell trace file: in events mode the full CSV
    /// event stream under [`CSV_HEADER`], in summary mode the
    /// `stat,value` rows of [`StallSummary::csv_rows`].
    pub fn trace_file_contents(&self) -> String {
        match self.mode {
            TraceMode::Events => {
                let mut out = String::with_capacity(64 + self.events.len() * 48);
                out.push_str(CSV_HEADER);
                out.push('\n');
                for e in &self.events {
                    out.push_str(&e.csv_row());
                    out.push('\n');
                }
                out
            }
            _ => self.summary.csv_rows(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hook::TraceHook;

    fn sample_telemetry(mode: TraceMode) -> Telemetry {
        let mut hook = TraceHook::new(mode);
        hook.emit(|| TraceEvent::Iteration {
            thread: 0,
            source: Source::Dsb,
            weight: 2,
            cycles: 12.5,
            lsd_uops: 0,
            dsb_uops: 10,
            mite_uops: 2,
            lcp_stall_cycles: 0.0,
            switch_penalty_cycles: 4.0,
            dsb_to_mite_switches: 1,
            dsb_evictions: 0,
            lsd_flushes: 0,
            l1i_misses: 1,
        });
        hook.emit(|| TraceEvent::Calibration {
            zero_mean: 2295.0,
            one_mean: 2897.25,
            threshold: 2596.125,
            separation: 602.25,
        });
        hook.into_telemetry().expect("hook was on")
    }

    #[test]
    fn json_is_schema_tagged_and_stable() {
        let t = sample_telemetry(TraceMode::Summary);
        let json = t.to_json_inline();
        assert!(
            json.starts_with("{\"schema\": \"leaky-frontends/trace/v1\", \"mode\": \"summary\"")
        );
        let doc = leaky_codec::json::parse(&json).expect("telemetry is JSON");
        assert_eq!(
            doc.get("schema").and_then(leaky_codec::json::Json::as_str),
            Some(schema::TRACE)
        );
        assert!(json.contains("\"dsb\": {\"iterations\": 2, \"cycles\": 25.0"));
        assert!(json.contains("\"threshold\": 2596.125"));
        assert!(json.ends_with("}}"));
        assert_eq!(json, t.to_json_inline());
        // Empty-histogram min/max (±inf) must render as null, not Inf.
        assert!(json.contains("\"lcp_stall\": {\"count\": 0, \"mean\": 0.0, \"stddev\": 0.0, \"min\": null, \"max\": null}"));
    }

    #[test]
    fn trace_file_matches_mode() {
        let events = sample_telemetry(TraceMode::Events);
        let file = events.trace_file_contents();
        assert!(file.starts_with("event,thread,cycles,detail\n"));
        assert_eq!(file.lines().count(), 3);
        let summary = sample_telemetry(TraceMode::Summary);
        assert!(summary.trace_file_contents().starts_with("stat,value\n"));
        // Events-mode summary and summary-mode summary agree.
        assert_eq!(events.summary, summary.summary);
    }
}
