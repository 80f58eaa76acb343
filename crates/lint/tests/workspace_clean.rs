//! Self-test: the real workspace must be lint-clean modulo the committed
//! baseline ratchet (`lint-baseline.json`). This is the same
//! check CI runs via `cargo run -p leaky_lint -- check`, wired into
//! `cargo test` so a violation fails the ordinary test suite too.

use std::path::PathBuf;

use leaky_lint::baseline::{Baseline, BASELINE_FILE};
use leaky_lint::{check_workspace, LintConfig, Workspace};

fn workspace_root() -> PathBuf {
    // crates/lint/../.. == the workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

#[test]
fn the_workspace_is_lint_clean_modulo_the_committed_baseline() {
    let root = workspace_root();
    let diags = check_workspace(&root, &LintConfig::default()).expect("workspace loads");
    let baseline = match std::fs::read_to_string(root.join(BASELINE_FILE)) {
        Ok(text) => Baseline::parse(&text).expect("committed baseline parses"),
        Err(_) => Baseline::empty(),
    };
    let new: Vec<_> = diags.iter().filter(|d| !baseline.contains(d)).collect();
    assert!(
        new.is_empty(),
        "workspace has unbaselined lint violations:\n{}",
        new.iter()
            .map(|d| format!("  {d}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The ratchet only tightens: every pinned finding must still exist,
    // so a fixed violation cannot silently come back later.
    let stale = baseline.stale(&diags);
    assert!(
        stale.is_empty(),
        "baseline pins findings that no longer fire — shrink {BASELINE_FILE}:\n{stale:#?}"
    );
}

#[test]
fn the_scan_actually_covers_the_workspace() {
    // Guard against a silent no-op: if the walker ever stops finding the
    // crates (renamed dirs, broken root detection), an "all clean" result
    // would be meaningless. The workspace has well over 50 source files.
    let ws = Workspace::load(&workspace_root()).expect("workspace loads");
    assert!(
        ws.files.len() > 50,
        "suspiciously few files scanned: {}",
        ws.files.len()
    );
}
