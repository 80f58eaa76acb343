//! The rule families and the catalogue the CLI prints.

pub mod allows;
pub mod determinism;
pub mod keys;
pub mod panics;
pub mod zero_cost;

use crate::config::LintConfig;
use crate::diag::Diagnostic;
use crate::graph::CallGraph;
use crate::source::SourceFile;
use crate::workspace::Workspace;

/// One catalogue row: rule name plus what it protects.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable rule name (the `lint: allow(<name>)` vocabulary).
    pub name: &'static str,
    /// Rule family, as in DESIGN.md §10.
    pub family: &'static str,
    /// One-line description of the protected invariant.
    pub description: &'static str,
}

/// Every rule, in family order. `leaky_lint rules` prints this table;
/// DESIGN.md §10 documents the rationale per row.
pub const RULES: [RuleInfo; 6] = [
    RuleInfo {
        name: "wall-clock",
        family: "determinism",
        description: "no Instant::now()/SystemTime in crates feeding content keys, sweep output or goldens",
    },
    RuleInfo {
        name: "unordered-collections",
        family: "determinism",
        description: "no HashMap/HashSet/RandomState in determinism-critical crates — use BTree collections or sort",
    },
    RuleInfo {
        name: "panic-path",
        family: "panic-freedom",
        description: "no pub library fn reaches unwrap/expect/panic! without a # Panics doc on the entry point (call graph, transitive)",
    },
    RuleInfo {
        name: "trace-zero-cost",
        family: "zero-cost-tracing",
        description: "TraceHook::emit takes a closure and TraceEvent is only built inside emit closure arguments",
    },
    RuleInfo {
        name: "key-completeness",
        family: "cache-keys",
        description: "every field of FrontendGeometry/CostModel/FrontendConfig/ChannelParams reaches its key/provenance function",
    },
    RuleInfo {
        name: "stale-allow",
        family: "hygiene",
        description: "every lint: allow(<rule>) escape suppresses at least one diagnostic and names a real rule",
    },
];

/// Runs every rule over the loaded workspace and returns the surviving
/// (non-escaped) diagnostics, sorted by file, line and rule.
pub fn run_all(ws: &Workspace, cfg: &LintConfig) -> Vec<Diagnostic> {
    let files: Vec<&SourceFile> = ws.files.values().collect();
    let graph = CallGraph::build(&files);

    let mut diags = Vec::new();
    determinism::check(ws, cfg, &mut diags);
    let used_site_allows = panics::check(&files, &graph, &mut diags);
    zero_cost::check(ws, &mut diags);
    keys::check(ws, cfg, &mut diags);

    // The stale-allow audit runs over the *raw* diagnostics — an escape
    // is live exactly when it would suppress one of them (or absorbed a
    // panic site during reachability).
    let mut stale = Vec::new();
    allows::check(ws, &diags, &used_site_allows, &mut stale);
    diags.append(&mut stale);

    diags.retain(|d| {
        !ws.files
            .get(&d.file)
            .is_some_and(|file| file.is_allowed(d.rule, d.line))
    });
    diags.sort();
    diags.dedup();
    diags
}
