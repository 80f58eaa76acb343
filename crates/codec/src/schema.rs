//! Every versioned schema tag the workspace writes or reads, in one
//! table. Each writer embeds its entry and each reader compares against
//! it, so a tag is spelled exactly once; `tests/schema_tags.rs` keeps
//! the docs to this table.

/// `leaky_sweep --format json` sweep documents.
pub const SWEEP: &str = "leaky-frontends/sweep/v1";

/// The per-cell telemetry object inside sweep documents.
pub const TRACE: &str = "leaky-frontends/trace/v1";

/// `leaky_lint check --format json` diagnostics documents.
pub const LINT: &str = "leaky-frontends/lint/v1";

/// The committed `lint-baseline.json` ratchet.
pub const LINT_BASELINE: &str = "leaky-frontends/lint-baseline/v1";

/// Profile files and scenario bundles under `scenarios/`.
pub const SCENARIO: &str = "leaky-frontends/scenario/v1";

/// `perf_report` output and the committed `BENCH_frontend.json`.
pub const PERF_REPORT: &str = "leaky-frontends/perf-report/v1";

/// The whole table.
pub const ALL: [&str; 6] = [SWEEP, TRACE, LINT, LINT_BASELINE, SCENARIO, PERF_REPORT];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_values_are_the_published_ones() {
        // Committed artifacts, goldens and docs carry these exact bytes;
        // a version bump is a deliberate edit here and in its reader.
        assert_eq!(
            ALL,
            [
                "leaky-frontends/sweep/v1",
                "leaky-frontends/trace/v1",
                "leaky-frontends/lint/v1",
                "leaky-frontends/lint-baseline/v1",
                "leaky-frontends/scenario/v1",
                "leaky-frontends/perf-report/v1",
            ]
        );
    }
}
