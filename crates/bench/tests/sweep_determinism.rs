//! Tier-1 determinism gates for the `leaky_sweep` CLI: worker count must
//! never leak into output. Runs the quick grids of a small experiment
//! subset (the full grids are covered by `sweep_golden.rs` and CI's
//! release-mode smoke step).

use std::process::Command;

fn sweep(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_leaky_sweep"))
        .args(args)
        .env_remove("LEAKY_SWEEP_JOBS")
        .output()
        .expect("leaky_sweep runs");
    (
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
        out.status.success(),
    )
}

/// The small grid the determinism gate sweeps: cheap even in debug
/// builds, yet covering a migrated channel sweep, the derived-seed demo
/// grid, and the cross-microarchitecture sweep (whose cells build
/// per-profile cores, exercising the profile-keyed caches in parallel).
const GRID: [&str; 4] = [
    "tab5_power_channels",
    "fig8_d_sweep",
    "tab3_uarch",
    "rng_stream_grid",
];

#[test]
fn table_output_is_byte_identical_across_jobs() {
    let mut args1 = GRID.to_vec();
    args1.extend(["--quick", "--jobs", "1", "--format", "table"]);
    let mut args4 = GRID.to_vec();
    args4.extend(["--quick", "--jobs", "4", "--format", "table"]);
    let (stdout1, _, ok1) = sweep(&args1);
    let (stdout4, _, ok4) = sweep(&args4);
    assert!(ok1 && ok4, "leaky_sweep must exit 0");
    assert!(!stdout1.is_empty());
    assert_eq!(stdout1, stdout4, "--jobs must not change table output");
}

#[test]
fn json_output_is_byte_identical_across_jobs() {
    let mut args1 = GRID.to_vec();
    args1.extend(["--quick", "--jobs", "1", "--format", "json"]);
    let mut args4 = GRID.to_vec();
    args4.extend(["--quick", "--jobs", "4", "--format", "json"]);
    let (stdout1, _, ok1) = sweep(&args1);
    let (stdout4, _, ok4) = sweep(&args4);
    assert!(ok1 && ok4, "leaky_sweep must exit 0");
    assert_eq!(stdout1, stdout4, "--jobs must not change JSON output");
    // And the bytes must actually be a valid sweep document.
    let doc = leaky_codec::json::parse(&stdout1).expect("valid JSON");
    assert!(doc.get("sweeps").is_some(), "document has a sweeps array");
}

#[test]
fn unknown_experiment_is_rejected_before_running() {
    let (stdout, stderr, ok) = sweep(&["no_such_experiment"]);
    assert!(!ok, "unknown name must fail");
    assert!(stdout.is_empty());
    assert!(
        stderr.contains("no_such_experiment") && stderr.contains("tab3_all_channels"),
        "error must name the offender and the registered sweeps: {stderr}"
    );
}

#[test]
fn list_names_every_registered_experiment() {
    let (stdout, _, ok) = sweep(&["--list"]);
    assert!(ok);
    for name in [
        "tab3_all_channels",
        "fig8_d_sweep",
        "tab5_power_channels",
        "tab7_spectre_miss_rates",
        "rng_stream_grid",
    ] {
        assert!(stdout.contains(name), "--list must mention {name}");
    }
}
