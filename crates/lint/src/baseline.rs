//! The baseline ratchet: a committed pin of accepted findings.
//!
//! `lint-baseline.json` lets a new rule land *strict on new code* while
//! pre-existing, individually-reviewed findings stay pinned. Entries
//! match on `(file, rule, message)` and deliberately **not** on line:
//! unrelated edits move lines constantly, and the rendered messages are
//! themselves line-free, so a pin survives reformatting but dies the
//! moment the finding's substance changes.
//!
//! The document is JSON written and read through `leaky_codec` like
//! every other artifact in this workspace: byte-stable output with one
//! finding per line so diffs review well, read back by the strict
//! reader.

use std::collections::BTreeSet;

use leaky_codec::json::{self, quoted, Json};
use leaky_codec::schema;

use crate::diag::Diagnostic;

/// Conventional baseline file name at the workspace root.
pub const BASELINE_FILE: &str = "lint-baseline.json";

/// A parsed baseline: the set of pinned `(file, rule, message)` keys.
#[derive(Debug, Default)]
pub struct Baseline {
    entries: BTreeSet<(String, String, String)>,
}

impl Baseline {
    /// The empty baseline (nothing pinned).
    pub fn empty() -> Baseline {
        Baseline::default()
    }

    /// Number of pinned findings.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is pinned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `d` is pinned by this baseline.
    pub fn contains(&self, d: &Diagnostic) -> bool {
        self.entries
            .contains(&(d.file.clone(), d.rule.to_string(), d.message.clone()))
    }

    /// Pinned entries matching none of `diags` — pins the ratchet
    /// should shed, reported so the baseline cannot rot silently.
    pub fn stale(&self, diags: &[Diagnostic]) -> Vec<&(String, String, String)> {
        self.entries
            .iter()
            .filter(|(file, rule, message)| {
                !diags
                    .iter()
                    .any(|d| d.file == *file && d.rule == *rule && d.message == *message)
            })
            .collect()
    }

    /// Parses a baseline document.
    ///
    /// # Errors
    ///
    /// A description of the first malformed construct: invalid JSON, a
    /// wrong or missing schema tag, or a finding missing one of the three
    /// string keys.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let doc = json::parse(text).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
        if doc.get("schema").and_then(Json::as_str) != Some(schema::LINT_BASELINE) {
            return Err(format!(
                "baseline has no \"schema\": \"{}\" tag (wrong or outdated file?)",
                schema::LINT_BASELINE
            ));
        }
        let findings = doc
            .get("findings")
            .and_then(Json::as_array)
            .ok_or("baseline has no \"findings\" array")?;
        let mut entries = BTreeSet::new();
        for (idx, finding) in findings.iter().enumerate() {
            let key = |k| finding.get(k).and_then(Json::as_str).map(str::to_string);
            let (Some(file), Some(rule), Some(message)) =
                (key("file"), key("rule"), key("message"))
            else {
                return Err(format!(
                    "baseline finding {}: expected string \"file\", \"rule\" and \"message\" keys",
                    idx + 1
                ));
            };
            entries.insert((file, rule, message));
        }
        Ok(Baseline { entries })
    }

    /// Renders `diags` as a baseline document: sorted by (file, rule,
    /// message), deduplicated, line-free, byte-stable.
    pub fn render(diags: &[Diagnostic]) -> String {
        let entries: BTreeSet<(&str, &str, &str)> = diags
            .iter()
            .map(|d| (d.file.as_str(), d.rule, d.message.as_str()))
            .collect();
        let mut out = format!(
            "{{\n  \"schema\": \"{}\",\n  \"findings\": [\n",
            schema::LINT_BASELINE
        );
        let rows: Vec<String> = entries
            .iter()
            .map(|(file, rule, message)| {
                format!(
                    "    {{\"file\": {}, \"rule\": {}, \"message\": {}}}",
                    quoted(file),
                    quoted(rule),
                    quoted(message)
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        if !rows.is_empty() {
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(file: &str, rule: &'static str, message: &str) -> Diagnostic {
        Diagnostic::new(file, 10, rule, message.to_string())
    }

    #[test]
    fn render_parse_round_trips_and_ignores_lines() {
        let diags = vec![
            diag("crates/a/src/lib.rs", "panic-path", "path \"x\" → y"),
            diag("crates/b/src/lib.rs", "wall-clock", "Instant::now()"),
        ];
        let text = Baseline::render(&diags);
        let parsed = Baseline::parse(&text).expect("round trip");
        assert_eq!(parsed.len(), 2);
        // Same finding on a different line still matches.
        let moved = Diagnostic::new(
            "crates/a/src/lib.rs",
            99,
            "panic-path",
            "path \"x\" → y".into(),
        );
        assert!(parsed.contains(&moved));
        assert!(!parsed.contains(&diag("crates/a/src/lib.rs", "panic-path", "other")));
        assert!(parsed.stale(&diags).is_empty());
        assert_eq!(parsed.stale(&diags[..1]).len(), 1);
        // Byte-stable render.
        assert_eq!(text, Baseline::render(&diags));
    }

    #[test]
    fn committed_arrow_pins_survive_render_and_parse() {
        // A pin as committed in lint-baseline.json: its `→` call path must
        // decode as UTF-8, not byte by byte, or the pin stops matching.
        let pin = diag(
            "crates/exp/src/fault.rs",
            "panic-path",
            "pub fn `FaultPlan::with` lacks a `# Panics` doc but can reach a panic: \
             FaultPlan::with → OrderedCollector::insert (documented `# Panics`); document \
             the contract on the entry point or break the path",
        );
        let parsed =
            Baseline::parse(&Baseline::render(std::slice::from_ref(&pin))).expect("round trip");
        assert!(parsed.contains(&pin));
        assert!(parsed.stale(&[pin]).is_empty());
    }

    #[test]
    fn schema_tag_is_mandatory() {
        assert!(Baseline::parse("{}").is_err());
        let wrong = Baseline::render(&[]).replace(schema::LINT_BASELINE, schema::LINT);
        assert!(Baseline::parse(&wrong).is_err());
        let empty = Baseline::render(&[]);
        let doc = json::parse(&empty).expect("rendered baseline is JSON");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(schema::LINT_BASELINE)
        );
        assert!(Baseline::parse(&empty).expect("empty ok").is_empty());
        let keyless = empty.replace("[\n  ]", "[{\"file\": \"a.rs\", \"rule\": \"x\"}]");
        assert!(Baseline::parse(&keyless)
            .unwrap_err()
            .starts_with("baseline finding 1:"));
    }
}
