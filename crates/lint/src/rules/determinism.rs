//! Determinism rules: the crates that feed content keys, sweep output
//! or goldens (`exp`, `bench`, `stats`, `core`) must not read wall
//! clocks or iterate unordered collections. (Ambient randomness needs
//! no rule: the workspace's `rand` exports no `thread_rng` or `random`,
//! so using either is a compile error — see `leaky_exp::seed`.)
//!
//! One stray `Instant::now()` in a metric, one `HashMap` iteration in a
//! table renderer, and "byte-identical at any `--jobs N`" silently
//! stops being true — these rules make the convention machine-checked.

use crate::config::LintConfig;
use crate::diag::Diagnostic;
use crate::source::SourceFile;
use crate::workspace::Workspace;

/// Runs the two determinism rules over every file of the
/// determinism-critical crates (binaries and test code included: bins
/// render goldens, and a nondeterministic test is a flaky test).
pub fn check(ws: &Workspace, cfg: &LintConfig, diags: &mut Vec<Diagnostic>) {
    for file in ws.files.values() {
        let in_scope = file
            .crate_dir
            .as_deref()
            .is_some_and(|c| cfg.determinism_crates.contains(&c));
        if !in_scope {
            continue;
        }
        check_file(file, diags);
    }
}

fn check_file(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    let code = &file.code;
    for (i, tok) in code.iter().enumerate() {
        // wall-clock: `Instant::now()` and any use of `SystemTime`.
        if tok.is_ident("Instant")
            && code.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && code.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && code.get(i + 3).is_some_and(|t| t.is_ident("now"))
        {
            diags.push(Diagnostic::new(
                &file.rel_path,
                tok.line,
                "wall-clock",
                "`Instant::now()` in a determinism-critical crate: wall time must never \
                 reach content keys, sweep output or goldens"
                    .into(),
            ));
        }
        if tok.is_ident("SystemTime") {
            diags.push(Diagnostic::new(
                &file.rel_path,
                tok.line,
                "wall-clock",
                "`SystemTime` in a determinism-critical crate: wall time must never \
                 reach content keys, sweep output or goldens"
                    .into(),
            ));
        }

        // unordered-collections: HashMap/HashSet iteration order is
        // scheduling- and seed-dependent (a `RandomState` hasher is what
        // makes it so); `BTreeMap`/`BTreeSet` (or explicit sorting) is
        // the sanctioned alternative. Any mention is flagged — proving a
        // map is never iterated is harder than using an ordered one.
        if tok.is_ident("HashMap") || tok.is_ident("HashSet") {
            diags.push(Diagnostic::new(
                &file.rel_path,
                tok.line,
                "unordered-collections",
                format!(
                    "`{}` in a determinism-critical crate: iteration order is unstable; \
                     use `BTree{}` or sort explicitly",
                    tok.text,
                    tok.text.trim_start_matches("Hash")
                ),
            ));
        }
        if tok.is_ident("RandomState") {
            diags.push(Diagnostic::new(
                &file.rel_path,
                tok.line,
                "unordered-collections",
                "`RandomState` in a determinism-critical crate: its per-process seed makes \
                 hash iteration order unstable; use BTree collections or sort explicitly"
                    .into(),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_state_is_an_unordered_collection() {
        let file = SourceFile::new(
            "crates/exp/src/lib.rs".into(),
            "fn f() { let s = RandomState::new(); }\n",
        );
        let mut diags = Vec::new();
        check_file(&file, &mut diags);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "unordered-collections");
    }
}
