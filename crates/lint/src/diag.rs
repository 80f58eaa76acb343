//! Diagnostics: what a rule reports and how it renders — human text and
//! the stable machine-readable JSON document.

use leaky_codec::json::quoted;
use leaky_codec::schema;
use std::fmt;

/// One rule violation, anchored to a file and line so a
/// `// lint: allow(<rule>)` escape on that line can suppress it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path the violation anchors to.
    pub file: String,
    /// 1-based anchor line.
    pub line: u32,
    /// Stable rule name (see [`crate::rules::RULES`]).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic.
    pub fn new(file: impl Into<String>, line: u32, rule: &'static str, message: String) -> Self {
        Diagnostic {
            file: file.into(),
            line,
            rule,
            message,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Renders the full diagnostics document for `--format json`: sorted
/// input in, byte-identical output out. `baselined(d)` marks findings
/// pinned by the baseline ratchet (they don't fail the run).
pub fn render_json(diags: &[Diagnostic], baselined: impl Fn(&Diagnostic) -> bool) -> String {
    let mut new_count = 0usize;
    let mut rows = Vec::with_capacity(diags.len());
    for d in diags {
        let pinned = baselined(d);
        if !pinned {
            new_count += 1;
        }
        rows.push(format!(
            "    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}, \
             \"baselined\": {}}}",
            quoted(&d.file),
            d.line,
            quoted(d.rule),
            quoted(&d.message),
            pinned
        ));
    }
    let mut out = format!("{{\n  \"schema\": \"{}\",\n", schema::LINT);
    out.push_str(&format!(
        "  \"total\": {}, \"new\": {}, \"baselined\": {},\n",
        diags.len(),
        new_count,
        diags.len() - new_count
    ));
    out.push_str("  \"diagnostics\": [\n");
    out.push_str(&rows.join(",\n"));
    if !rows.is_empty() {
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use leaky_codec::json::Json;

    #[test]
    fn json_document_is_stable_and_escaped() {
        let diags = vec![
            Diagnostic::new("a.rs", 3, "panic-path", "path \"quoted\" → deep".into()),
            Diagnostic::new("b.rs", 7, "stale-allow", "nothing".into()),
        ];
        let json = render_json(&diags, |d| d.rule == "stale-allow");
        assert!(json.starts_with("{\n  \"schema\": \"leaky-frontends/lint/v1\",\n"));
        assert!(json.contains("\"total\": 2, \"new\": 1, \"baselined\": 1"));
        // The document is real JSON: the message survives the strict reader.
        let doc = leaky_codec::json::parse(&json).expect("lint/v1 parses");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(schema::LINT));
        let first = &doc
            .get("diagnostics")
            .and_then(Json::as_array)
            .expect("array")[0];
        assert_eq!(
            first.get("message").and_then(Json::as_str),
            Some("path \"quoted\" → deep")
        );
        assert!(json.contains("\"baselined\": true"));
        assert_eq!(json, render_json(&diags, |d| d.rule == "stale-allow"));
        let empty = render_json(&[], |_| false);
        assert!(empty.contains("\"diagnostics\": [\n  ]\n"));
    }
}
