//! Perf-trajectory harness: wall-clock timing of the simulator's hot
//! primitives and the `BENCH_frontend.json` report layout.
//!
//! The `perf_report` binary uses this module to time the frontend's
//! per-iteration paths and per-bit channel costs, emit the results as a
//! `perf-report/v1` document, and (in `--check` mode) read a committed
//! baseline back with [`leaky_codec::json::parse`] and compare, so CI
//! catches large simulator regressions.

use leaky_codec::json::{quoted, Json};
use leaky_codec::schema;
use std::fmt::Write as _;
use std::time::Instant;

/// One named measurement, in nanoseconds per operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable metric name (JSON key).
    pub name: String,
    /// Nanoseconds per operation (median over samples).
    pub ns_per_op: f64,
    /// Operations per timed sample (for context in the report).
    pub ops_per_sample: u64,
}

/// Times `op`, returning the median nanoseconds per operation.
///
/// Runs `warmup` untimed operations, then `samples` timed samples of
/// `ops` operations each, and reports the median sample to shed
/// scheduler noise. The closure should already hold any setup state.
///
/// # Panics
///
/// Panics if `samples` or `ops` is zero.
pub fn time_ns_per_op<F: FnMut()>(warmup: u64, samples: usize, ops: u64, mut op: F) -> f64 {
    assert!(samples > 0 && ops > 0, "need at least one sample of one op");
    for _ in 0..warmup {
        op();
    }
    let mut per_op: Vec<f64> = (0..samples)
        .map(|_| {
            #[expect(
                clippy::disallowed_methods,
                reason = "perf smoke measures real elapsed time; its output never reaches keys or goldens"
            )]
            let start = Instant::now();
            for _ in 0..ops {
                op();
            }
            start.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    per_op.sort_by(|a, b| a.total_cmp(b));
    per_op[per_op.len() / 2]
}

/// Serializes metrics into the `BENCH_frontend.json` document shape.
pub fn render_report(metrics: &[Metric]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{\n  \"schema\": \"{}\",", schema::PERF_REPORT);
    out.push_str("  \"unit\": \"ns_per_op\",\n  \"metrics\": {\n");
    for (i, m) in metrics.iter().enumerate() {
        let comma = if i + 1 < metrics.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {}: {{ \"ns_per_op\": {:.2}, \"ops_per_sample\": {} }}{comma}",
            quoted(&m.name),
            m.ns_per_op,
            m.ops_per_sample
        );
    }
    out.push_str("  }\n}\n");
    out
}

/// Extracts the `metrics` map of a parsed report as `(name, ns_per_op)`
/// pairs.
///
/// # Errors
///
/// Returns an error when the document's `schema` is not
/// [`schema::PERF_REPORT`] or it lacks a well-formed `metrics` object.
pub fn report_metrics(doc: &Json) -> Result<Vec<(String, f64)>, String> {
    if doc.get("schema").and_then(Json::as_str) != Some(schema::PERF_REPORT) {
        return Err(format!(
            "report has no \"schema\": \"{}\" tag",
            schema::PERF_REPORT
        ));
    }
    let metrics = doc
        .get("metrics")
        .ok_or_else(|| "report has no \"metrics\" object".to_string())?;
    let Json::Obj(pairs) = metrics else {
        return Err("\"metrics\" is not an object".into());
    };
    pairs
        .iter()
        .map(|(name, v)| {
            let ns = v
                .get("ns_per_op")
                .and_then(Json::as_num)
                .ok_or_else(|| format!("metric {name:?} has no numeric ns_per_op"))?;
            Ok((name.clone(), ns))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use leaky_codec::json::parse;

    #[test]
    fn render_then_parse_roundtrips() {
        let metrics = vec![
            Metric {
                name: "lsd_iteration".into(),
                ns_per_op: 123.45,
                ops_per_sample: 1000,
            },
            Metric {
                name: "dsb_lookup_hit".into(),
                ns_per_op: 7.0,
                ops_per_sample: 100_000,
            },
        ];
        let text = render_report(&metrics);
        let doc = parse(&text).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(schema::PERF_REPORT)
        );
        let parsed = report_metrics(&doc).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, "lsd_iteration");
        assert!((parsed[0].1 - 123.45).abs() < 1e-9);
        assert_eq!(parsed[1], ("dsb_lookup_hit".to_string(), 7.0));
    }

    #[test]
    fn missing_metrics_is_an_error() {
        let doc = parse("{\"schema\": \"leaky-frontends/perf-report/v1\"}").unwrap();
        assert!(report_metrics(&doc).is_err());
    }

    #[test]
    fn any_other_schema_tag_is_an_error() {
        let metrics = "\"metrics\": {\"lsd_iteration\": {\"ns_per_op\": 1.0}}";
        for head in [
            "\"schema\": \"leaky-frontends/sweep/v1\", ",
            "\"schema\": 1, ",
            "",
        ] {
            let doc = parse(&format!("{{{head}{metrics}}}")).unwrap();
            assert!(report_metrics(&doc).is_err(), "accepted {{{head}...}}");
        }
        let good = parse(&format!(
            "{{\"schema\": \"{}\", {metrics}}}",
            schema::PERF_REPORT
        ));
        assert_eq!(
            report_metrics(&good.unwrap()),
            Ok(vec![("lsd_iteration".to_string(), 1.0)])
        );
    }

    #[test]
    fn timer_returns_positive_medians() {
        let mut acc = 0u64;
        let ns = time_ns_per_op(2, 3, 100, || acc = acc.wrapping_add(1));
        assert!(ns >= 0.0);
        assert!(acc > 0);
    }
}
