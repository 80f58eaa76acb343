//! Stale-allow audit (`stale-allow`): the escape inventory stays honest.
//!
//! Every `lint: allow(<rule>)` escape must either suppress at least one
//! diagnostic the rules would otherwise emit, or (for `panic-path`)
//! neutralize a concrete panic site the reachability pass consulted.
//! An escape that suppresses nothing is dead weight that will silently
//! mask a *future* violation on its line, so it is itself a finding; so
//! is an escape naming a rule that does not exist (typo, or a rule
//! renamed out from under it).
//!
//! `lint: allow(stale-allow)` is exempt from the audit (auditing the
//! auditor's own escapes would recurse); it exists so a deliberately
//! retained escape — e.g. a fixture — can be pinned.

use std::collections::BTreeSet;

use crate::diag::Diagnostic;
use crate::rules::RULES;
use crate::workspace::Workspace;

/// Audits every escape against the raw (pre-escape-filter) diagnostics
/// in `raw` and the panic sites in `used_site_allows`.
pub fn check(
    ws: &Workspace,
    raw: &[Diagnostic],
    used_site_allows: &BTreeSet<(String, u32)>,
    diags: &mut Vec<Diagnostic>,
) {
    let known: BTreeSet<&str> = RULES.iter().map(|r| r.name).collect();
    let mut audit = |file: &str, line: u32, rule: &str| {
        if rule == "stale-allow" {
            return;
        }
        if !known.contains(rule) {
            diags.push(Diagnostic::new(
                file,
                line,
                "stale-allow",
                format!("`lint: allow({rule})` names an unknown rule; see `leaky_lint rules`"),
            ));
            return;
        }
        let live = raw
            .iter()
            .any(|d| d.rule == rule && d.line == line && d.file == file)
            || (rule == "panic-path" && used_site_allows.contains(&(file.to_string(), line)));
        if !live {
            diags.push(Diagnostic::new(
                file,
                line,
                "stale-allow",
                format!("`lint: allow({rule})` suppresses no diagnostic; remove the stale escape"),
            ));
        }
    };
    for file in ws.files.values() {
        for (&line, rules) in file.allow_entries() {
            for rule in rules {
                audit(&file.rel_path, line, rule);
            }
        }
    }
}
