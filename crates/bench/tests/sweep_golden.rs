//! Wrapper-vs-migrated golden tests: the four thin wrapper binaries must
//! produce byte-identical stdout to their pre-migration versions (the
//! committed `tests/golden/*.txt` captures, taken at the commit before
//! the sweeps moved onto `leaky_exp`).
//!
//! `LEAKY_SWEEP_JOBS=3` forces the parallel pool path, so these tests
//! also pin full-grid determinism, not just rendering.

use std::process::Command;

fn golden_matches_args(bin_path: &str, args: &[&str], golden_name: &str) {
    let golden = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(golden_name),
    )
    .expect("committed golden output");
    let out = Command::new(bin_path)
        .args(args)
        .env("LEAKY_SWEEP_JOBS", "3")
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{bin_path} must exit 0");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert_eq!(
        stdout, golden,
        "{golden_name}: binary diverged from committed output"
    );
}

fn golden_matches(bin_path: &str, golden_name: &str) {
    golden_matches_args(bin_path, &[], golden_name);
}

#[test]
fn fig8_d_sweep_matches_pre_migration_output() {
    golden_matches(env!("CARGO_BIN_EXE_fig8_d_sweep"), "fig8_d_sweep.txt");
}

#[test]
fn tab5_power_channels_matches_pre_migration_output() {
    golden_matches(
        env!("CARGO_BIN_EXE_tab5_power_channels"),
        "tab5_power_channels.txt",
    );
}

#[test]
fn tab3_all_channels_matches_pre_migration_output() {
    golden_matches(
        env!("CARGO_BIN_EXE_tab3_all_channels"),
        "tab3_all_channels.txt",
    );
}

#[test]
fn tab2_mt_patterns_matches_pre_migration_output() {
    golden_matches(
        env!("CARGO_BIN_EXE_tab2_mt_patterns"),
        "tab2_mt_patterns.txt",
    );
}

#[test]
fn tab4_slow_switch_matches_committed_output() {
    golden_matches(
        env!("CARGO_BIN_EXE_tab4_slow_switch"),
        "tab4_slow_switch.txt",
    );
}

#[test]
fn tab6_sgx_matches_committed_output() {
    // The SGX channels are not registry rows, so this binary is their
    // only determinism pin.
    golden_matches(env!("CARGO_BIN_EXE_tab6_sgx"), "tab6_sgx.txt");
}

#[test]
fn tab7_spectre_miss_rates_matches_pre_migration_output() {
    golden_matches(
        env!("CARGO_BIN_EXE_tab7_spectre_miss_rates"),
        "tab7_spectre_miss_rates.txt",
    );
}

#[test]
fn rng_stream_grid_matches_committed_output() {
    // Pins the derived per-cell seed streams themselves: if content-key
    // hashing or the seed derivation ever changes, every value in this
    // table moves and the diff points straight at the cause.
    golden_matches_args(
        env!("CARGO_BIN_EXE_leaky_sweep"),
        &["rng_stream_grid", "--format", "table"],
        "rng_stream_grid.txt",
    );
}

#[test]
fn tab3_uarch_matches_committed_output() {
    // The cross-microarchitecture sweep has no legacy binary; its golden
    // pins the full grid through the unified CLI — the skylake rows are
    // the Table III operating point, and any change to profile geometry,
    // cost models, plan keying or per-cell seed derivation shows up here.
    golden_matches_args(
        env!("CARGO_BIN_EXE_leaky_sweep"),
        &["tab3_uarch", "--format", "table"],
        "tab3_uarch.txt",
    );
}

#[test]
fn traced_sweep_emits_the_committed_golden_trace() {
    // One tab3 cell's full event stream, byte-for-byte: pins the event
    // vocabulary, the CSV rendering, the per-cell trace filenames AND
    // (at LEAKY_SWEEP_JOBS=3) that the event stream is independent of
    // worker scheduling. Regenerate with:
    //   leaky_sweep --quick tab3_all_channels --trace=events --trace-dir DIR
    let name =
        "tab3_all_channels_profile=quick_channel=non-mt-fast-eviction_machine=Xeon_E-2288G.csv";
    let dir = std::env::temp_dir().join(format!("leaky_trace_golden_{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_leaky_sweep"))
        .args([
            "--quick",
            "tab3_all_channels",
            "--trace=events",
            "--trace-dir",
        ])
        .arg(&dir)
        .env("LEAKY_SWEEP_JOBS", "3")
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "leaky_sweep must exit 0");
    let produced = std::fs::read_to_string(dir.join(name)).expect("trace file written");
    let golden = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(name),
    )
    .expect("committed golden trace");
    assert_eq!(
        produced, golden,
        "{name}: trace diverged from committed golden"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_spec_has_a_golden_and_every_channel_is_documented() {
    // Reads the live registries: a spec registered without a committed
    // golden has nothing pinning its output bytes, and a channel missing
    // from EXPERIMENTS.md is invisible to users of the sweep CLI.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    for name in leaky_exp::experiments::standard_registry().names() {
        let golden = root.join("tests/golden").join(format!("{name}.txt"));
        let text = std::fs::read_to_string(&golden).unwrap_or_default();
        assert!(
            !text.is_empty(),
            "spec `{name}` has no committed golden at {}",
            golden.display()
        );
    }
    let docs = std::fs::read_to_string(root.join("../../EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    for channel in &leaky_frontends::channels::REGISTRY {
        assert!(
            docs.contains(channel.name),
            "channel `{}` is registered but never mentioned in EXPERIMENTS.md",
            channel.name
        );
    }
}
