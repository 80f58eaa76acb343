//! Renderers and entry points for `leaky_exp` sweeps.
//!
//! Two output formats over one [`SweepRun`]:
//!
//! * [`render_table`] — the `leaky_sweep` fixed-width table; the golden
//!   test in `tests/sweep_golden.rs` pins every registered spec's full
//!   grid in it.
//! * [`render_json`] — the `leaky-frontends/sweep/v1` JSON document
//!   (readable back with [`leaky_codec::json::parse`]; every string
//!   and number goes through the `leaky_codec` writers).
//!
//! Every rendering is a pure function of the sweep's deterministic state
//! (cells + ordered summaries); wall-time and worker count are never
//! printed, which is what makes `--jobs 1` and `--jobs 4` byte-identical.

use crate::table::{fmt, TableWriter};
use leaky_codec::json::{number, quoted};
use leaky_codec::schema;
use leaky_codec::token;
use leaky_exp::runner::SweepRun;
use leaky_exp::{
    run_experiment, run_experiment_with, standard_registry, CellOutcome, Experiment, RunConfig,
};
use leaky_trace::TraceMode;
use std::fmt::Write as _;
use std::path::Path;

/// Worker threads to use when the caller does not say: all available
/// cores.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Always `None`: every sweep now has one rendering, [`render_table`]
/// (or [`render_json`]). Kept only so the benchmark harness, whose
/// `render` falls back to this for goldens that do not start with
/// `== `, still builds; every committed golden starts with `== `, so
/// nothing calls it.
pub fn render_legacy(_run: &SweepRun) -> Option<String> {
    None
}

/// Formats a metric value for the unified table: integers plainly,
/// everything else with four decimals.
fn metric_cell(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e12 {
        format!("{v}")
    } else {
        fmt(v, 4)
    }
}

/// Renders the unified fixed-width table of one sweep.
///
/// # Panics
///
/// Panics if a cell lacks an axis of the first cell; the cells of one
/// run all come from one grid.
pub fn render_table(run: &SweepRun) -> String {
    let mut out = String::new();
    let profile = if run.quick { "quick" } else { "full" };
    let _ = writeln!(out, "== {} [{profile}] — {}", run.name, run.title);

    // Column set: axes (minus the redundant profile axis) then metrics
    // in first-appearance order.
    let axes: Vec<&str> = run
        .cells
        .first()
        .map(|c| {
            c.cell
                .coords
                .iter()
                .map(|(name, _)| name.as_str())
                .filter(|n| *n != "profile")
                .collect()
        })
        .unwrap_or_default();
    let metrics: Vec<&str> = run.summaries.iter().map(|(n, _)| n.as_str()).collect();

    let header: Vec<String> = axes.iter().chain(&metrics).map(|s| s.to_string()).collect();
    let mut rows: Vec<Vec<String>> = vec![header];
    for result in &run.cells {
        let mut row: Vec<String> = axes
            .iter()
            .map(|a| result.cell.get(a).expect("axis present").to_string())
            .collect();
        for m in &metrics {
            row.push(match (&result.outcome, result.metric(m)) {
                (_, Some(v)) => metric_cell(v),
                // `!!` distinguishes a cell that *died* from a structural
                // `--` gap; the detail line below carries the message.
                (CellOutcome::Failed { .. }, None) => "!!".to_string(),
                (_, None) => "--".to_string(),
            });
        }
        rows.push(row);
    }

    let ncols = rows[0].len();
    let widths: Vec<usize> = (0..ncols)
        .map(|c| rows.iter().map(|r| r[c].len()).max().unwrap_or(0))
        .collect();
    let writer = TableWriter::new(&widths);
    for (i, row) in rows.iter().enumerate() {
        let _ = writeln!(out, "{}", writer.row(row));
        if i == 0 {
            let _ = writeln!(
                out,
                "{}",
                "-".repeat(widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1)))
            );
        }
    }

    let unsupported = run
        .cells
        .iter()
        .filter(|c| c.outcome == CellOutcome::Unsupported)
        .count();
    let failed = run.failed_cells();
    let _ = write!(out, "cells: {}", run.cells.len());
    if unsupported > 0 {
        let _ = write!(out, " ({unsupported} unsupported)");
    }
    if failed > 0 {
        let _ = write!(out, " ({failed} failed)");
    }
    let _ = writeln!(out);
    // Failure detail lines appear only when something failed, so a clean
    // sweep's bytes are untouched by the fault-tolerance machinery.
    for result in &run.cells {
        if let Some((message, attempts)) = result.failure() {
            let _ = writeln!(
                out,
                "failed {}: {message} ({attempts} attempt{})",
                result.cell.key,
                if attempts == 1 { "" } else { "s" }
            );
        }
    }
    for (name, stats) in &run.summaries {
        let _ = writeln!(
            out,
            "summary {name}: n={} mean={} std_dev={} min={} max={}",
            stats.count(),
            metric_cell(stats.mean()),
            metric_cell(stats.std_dev()),
            metric_cell(stats.min()),
            metric_cell(stats.max()),
        );
    }
    out
}

/// Renders one sweep as a JSON object (schema `leaky-frontends/sweep/v1`
/// wraps a list of these; see [`render_json_document`]).
pub fn render_json(run: &SweepRun) -> String {
    let mut out = String::new();
    let profile = if run.quick { "quick" } else { "full" };
    let _ = writeln!(out, "    {{");
    let _ = writeln!(out, "      \"experiment\": {},", quoted(run.name));
    let _ = writeln!(out, "      \"title\": {},", quoted(run.title));
    let _ = writeln!(out, "      \"profile\": \"{profile}\",");
    let _ = writeln!(out, "      \"cells\": [");
    for (i, result) in run.cells.iter().enumerate() {
        let comma = if i + 1 < run.cells.len() { "," } else { "" };
        let _ = write!(
            out,
            "        {{ \"key\": {}, \"seed\": \"{}\", ",
            quoted(&result.cell.key),
            token::hex(result.cell.seed)
        );
        if let Some(p) = result.provenance() {
            let _ = write!(
                out,
                "\"provenance\": {{ \"channel\": {}, \"profile\": {}, \"params\": {} }}, ",
                quoted(&p.channel),
                quoted(&p.profile),
                quoted(&p.params)
            );
        }
        // Telemetry (schema leaky-frontends/trace/v1) appears only on
        // traced runs, so untraced documents are byte-identical to the
        // pre-trace format.
        if let Some(t) = result.telemetry() {
            let _ = write!(out, "\"telemetry\": {}, ", t.to_json_inline());
        }
        match &result.outcome {
            CellOutcome::Unsupported => {
                let _ = write!(out, "\"supported\": false");
            }
            CellOutcome::Failed { message, attempts } => {
                let _ = write!(
                    out,
                    "\"supported\": false, \"failed\": true, \"error\": {}, \"attempts\": {attempts}",
                    quoted(message)
                );
            }
            CellOutcome::Measured(meas) => {
                let _ = write!(out, "\"supported\": true, \"metrics\": {{");
                for (j, m) in meas.metrics.iter().enumerate() {
                    let sep = if j == 0 { " " } else { ", " };
                    let _ = write!(out, "{sep}{}: {}", quoted(&m.name), number(m.value));
                }
                let _ = write!(out, " }}");
            }
        }
        let _ = writeln!(out, " }}{comma}");
    }
    let _ = writeln!(out, "      ],");
    let _ = writeln!(out, "      \"summary\": {{");
    for (i, (name, stats)) in run.summaries.iter().enumerate() {
        let comma = if i + 1 < run.summaries.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "        {}: {{ \"count\": {}, \"mean\": {}, \"std_dev\": {}, \"min\": {}, \"max\": {} }}{comma}",
            quoted(name),
            stats.count(),
            number(stats.mean()),
            number(stats.std_dev()),
            number(stats.min()),
            number(stats.max()),
        );
    }
    let _ = writeln!(out, "      }}");
    let _ = write!(out, "    }}");
    out
}

/// Wraps rendered sweeps into the full JSON document.
pub fn render_json_document(sweeps: &[SweepRun]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"");
    out.push_str(schema::SWEEP);
    out.push_str("\",\n  \"sweeps\": [\n");
    for (i, run) in sweeps.iter().enumerate() {
        out.push_str(&render_json(run));
        out.push_str(if i + 1 < sweeps.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Times one quick sweep of every registered experiment at the given
/// worker count, returning total cells and wall nanoseconds (the
/// `perf_report` sweep-throughput metric).
///
/// # Panics
///
/// Panics if two compiled-in experiments share a name
/// (`Registry::register`).
pub fn quick_sweep_throughput(jobs: usize) -> (usize, u128) {
    let registry = standard_registry();
    let mut cells = 0usize;
    let mut ns = 0u128;
    for exp in registry.iter() {
        let run = run_experiment(exp, true, jobs);
        cells += run.cells.len();
        ns += run.elapsed_ns;
    }
    (cells, ns)
}

/// Ranks registered experiment names by closeness to an unknown CLI
/// filter, for the "did you mean" half of the error message. A name is
/// suggested when it contains the typo as a substring (`fig8` →
/// `fig8_d_sweep`) or is within an edit distance scaled to the typo's
/// length; closest first, ties in registry order.
pub fn suggest_experiments<'a>(unknown: &str, names: &[&'a str]) -> Vec<&'a str> {
    let typo: Vec<char> = unknown.chars().collect();
    let budget = (typo.len() / 3).max(2);
    let mut scored: Vec<(usize, &'a str)> = names
        .iter()
        .filter_map(|name| {
            if name.contains(unknown) || unknown.contains(*name) {
                return Some((0, *name));
            }
            let d =
                leaky_stats::distance::edit_distance(&typo, &name.chars().collect::<Vec<char>>());
            (d <= budget).then_some((d, *name))
        })
        .collect();
    scored.sort_by_key(|(d, _)| *d);
    scored.into_iter().map(|(_, name)| name).collect()
}

/// Runs one registered experiment by name (panicking on unknown names —
/// CLI-level validation happens in `leaky_sweep`).
///
/// # Panics
///
/// Panics for a name absent from `standard_registry`.
pub fn run_by_name(name: &str, quick: bool, jobs: usize) -> SweepRun {
    run_by_name_traced(name, quick, jobs, TraceMode::Off)
}

/// [`run_by_name`] with a trace level. Metrics and renderings (other
/// than the JSON `telemetry` field) are bit-identical to the untraced
/// run at any `jobs`; the trace layer observes, it never steers.
///
/// # Panics
///
/// Panics on unknown names — CLI-level validation happens in
/// `leaky_sweep`.
pub fn run_by_name_traced(name: &str, quick: bool, jobs: usize, trace: TraceMode) -> SweepRun {
    let registry = standard_registry();
    let exp: &dyn Experiment = registry
        .get(name)
        .unwrap_or_else(|| panic!("unregistered experiment {name:?}"));
    let cfg = RunConfig {
        quick,
        jobs,
        trace,
        ..RunConfig::default()
    };
    run_experiment_with(exp, &cfg).expect("no store attached, so no store errors")
}

/// Maps a cell's content key onto a trace filename: every byte outside
/// `[A-Za-z0-9._=-]` becomes `_`, so axis separators (`/`) and spaces in
/// machine names flatten into one filesystem-safe token. Keys are
/// unique per sweep and the mapping is injective enough in practice
/// (axis names never differ only by punctuation).
pub fn trace_file_name(key: &str) -> String {
    let mut name: String = key
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '=' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect();
    name.push_str(".csv");
    name
}

/// Writes one trace file per traced cell (cells without telemetry —
/// untraced channels, unsupported/failed/cached cells — are skipped)
/// under `dir`, creating it if needed. Files are written in grid order
/// with deterministic contents, so two runs at different `--jobs` agree
/// byte-for-byte. Returns the number of files written.
pub fn write_trace_files(runs: &[SweepRun], dir: &Path) -> std::io::Result<usize> {
    std::fs::create_dir_all(dir)?;
    let mut written = 0;
    for run in runs {
        for cell in &run.cells {
            if let Some(telemetry) = cell.telemetry() {
                std::fs::write(
                    dir.join(trace_file_name(&cell.cell.key)),
                    telemetry.trace_file_contents(),
                )?;
                written += 1;
            }
        }
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use leaky_codec::json::{parse, Json};

    #[test]
    fn unified_renderings_are_jobs_invariant() {
        let a = run_by_name("rng_stream_grid", true, 1);
        let b = run_by_name("rng_stream_grid", true, 3);
        assert_eq!(render_table(&a), render_table(&b));
        assert_eq!(render_json(&a), render_json(&b));
    }

    #[test]
    fn json_document_parses_and_carries_cells() {
        let runs = vec![run_by_name("rng_stream_grid", true, 2)];
        let doc = parse(&render_json_document(&runs)).expect("valid JSON");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(schema::SWEEP)
        );
        let sweeps = doc.get("sweeps").and_then(Json::as_array).expect("sweeps");
        let cells = sweeps[0]
            .get("cells")
            .and_then(Json::as_array)
            .expect("cells");
        assert_eq!(cells.len(), 8);
        let mean = sweeps[0]
            .get("summary")
            .and_then(|s| s.get("mean"))
            .and_then(|m| m.get("mean"))
            .and_then(Json::as_num)
            .expect("summary.mean.mean");
        // 8 cells of 512 uniform draws: the grand mean is near 0.5.
        assert!((mean - 0.5).abs() < 0.1, "grand mean {mean} implausible");
    }

    #[test]
    fn traced_json_and_trace_files_are_jobs_invariant() {
        let a = run_by_name_traced("tab3_all_channels", true, 1, TraceMode::Summary);
        let b = run_by_name_traced("tab3_all_channels", true, 3, TraceMode::Summary);
        let json = render_json(&a);
        assert_eq!(json, render_json(&b));
        assert!(json.contains("\"telemetry\""), "telemetry missing:\n{json}");
        assert!(json.contains("\"schema\": \"leaky-frontends/trace/v1\""));

        let dir = std::env::temp_dir().join(format!("leaky_trace_ji_{}", std::process::id()));
        let dir_a = dir.join("a");
        let dir_b = dir.join("b");
        let na = write_trace_files(std::slice::from_ref(&a), &dir_a).expect("write");
        let nb = write_trace_files(std::slice::from_ref(&b), &dir_b).expect("write");
        assert_eq!(na, nb);
        // Every supported cell in quick tab3 is a traced channel cell.
        let supported = a
            .cells
            .iter()
            .filter(|c| matches!(c.outcome, CellOutcome::Measured(_)))
            .count();
        assert_eq!(na, supported);
        for cell in &a.cells {
            if cell.telemetry().is_some() {
                let name = trace_file_name(&cell.cell.key);
                let fa = std::fs::read(dir_a.join(&name)).expect("file written");
                let fb = std::fs::read(dir_b.join(&name)).expect("file written");
                assert_eq!(fa, fb, "{name} differs across jobs");
                assert!(fa.starts_with(b"stat,value\n"), "{name} not a summary CSV");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_file_names_are_sanitized() {
        assert_eq!(
            trace_file_name(
                "tab3_all_channels/profile=quick/channel=mt-eviction/machine=Gold 6226"
            ),
            "tab3_all_channels_profile=quick_channel=mt-eviction_machine=Gold_6226.csv"
        );
    }

    #[test]
    fn metric_cell_formats() {
        assert_eq!(metric_cell(2295.0), "2295");
        assert_eq!(metric_cell(0.00390625), "0.0039");
    }
}
