//! Golden tests: every registered sweep spec's full grid, rendered by
//! `leaky_sweep --format table`, and the stdout of the two table
//! binaries that are not specs (`tab4_slow_switch`, `tab6_sgx`) must
//! match the committed `tests/golden/*.txt` captures byte for byte.
//!
//! `LEAKY_SWEEP_JOBS=3` forces the parallel pool path, so these tests
//! also pin full-grid determinism, not just rendering.

use std::path::Path;
use std::process::Command;

/// The one committed trace golden: a quick tab3 cell's event stream.
const TRACE_GOLDEN: &str =
    "tab3_all_channels_profile=quick_channel=non-mt-fast-eviction_machine=Xeon_E-2288G.csv";

/// Committed goldens that are not a registered spec's table: the
/// RISC-V scenario bundle (`tests/sweep_scenario.rs`), the two table
/// binaries pinned below and the trace CSV.
const NON_SPEC_GOLDENS: [&str; 4] = [
    "tab3_riscv.txt",
    "tab4_slow_switch.txt",
    "tab6_sgx.txt",
    TRACE_GOLDEN,
];

fn golden_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn golden(name: &str) -> String {
    std::fs::read_to_string(golden_dir().join(name)).expect("committed golden output")
}

/// Runs `bin_path args` at `LEAKY_SWEEP_JOBS=3` and returns its stdout.
fn stdout_of(bin_path: &str, args: &[&str]) -> String {
    let out = Command::new(bin_path)
        .args(args)
        .env("LEAKY_SWEEP_JOBS", "3")
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{bin_path} {args:?} must exit 0");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

fn golden_matches(bin_path: &str, golden_name: &str) {
    assert_eq!(
        stdout_of(bin_path, &[]),
        golden(golden_name),
        "{golden_name}: binary diverged from committed output"
    );
}

/// Asserts that `leaky_sweep NAME --format table` reproduces
/// `golden/NAME.txt`. Each golden pins the spec's full grid: profile
/// geometry, cost models, plan keying and per-cell seed derivation.
fn spec_matches_golden(name: &str) {
    assert_eq!(
        stdout_of(
            env!("CARGO_BIN_EXE_leaky_sweep"),
            &[name, "--format", "table"]
        ),
        golden(&format!("{name}.txt")),
        "{name}: leaky_sweep diverged from its committed golden"
    );
}

/// Specs pinned by a test of their own below; every other registered
/// spec is pinned by `every_spec_matches_its_table_golden`.
const NAMED_SPEC_TESTS: [&str; 7] = [
    "fig8_d_sweep",
    "rng_stream_grid",
    "tab2_mt_patterns",
    "tab3_all_channels",
    "tab3_uarch",
    "tab5_power_channels",
    "tab7_spectre_miss_rates",
];

#[test]
fn every_spec_matches_its_table_golden() {
    // Driven by the live registry, so a newly registered spec is pinned
    // as soon as its golden is committed (and the orphan check below
    // fails until it is). Specs with a named test are skipped here so
    // no full grid runs twice; a named spec that leaves the registry
    // fails its own test, since `leaky_sweep` rejects an unknown name.
    for name in leaky_exp::experiments::standard_registry().names() {
        if !NAMED_SPEC_TESTS.contains(&name) {
            spec_matches_golden(name);
        }
    }
}

// The `*_pre_migration_output` names date from when these goldens were
// the pre-migration stdout of per-table wrapper binaries; they now pin
// the canonical `--format table` rendering of the same grids.

#[test]
fn fig8_d_sweep_matches_pre_migration_output() {
    spec_matches_golden("fig8_d_sweep");
}

#[test]
fn tab5_power_channels_matches_pre_migration_output() {
    spec_matches_golden("tab5_power_channels");
}

#[test]
fn tab3_all_channels_matches_pre_migration_output() {
    spec_matches_golden("tab3_all_channels");
}

#[test]
fn tab2_mt_patterns_matches_pre_migration_output() {
    spec_matches_golden("tab2_mt_patterns");
}

#[test]
fn tab7_spectre_miss_rates_matches_pre_migration_output() {
    spec_matches_golden("tab7_spectre_miss_rates");
}

#[test]
fn rng_stream_grid_matches_committed_output() {
    // Pins the derived per-cell seed streams themselves: if content-key
    // hashing or the seed derivation ever changes, every value in this
    // table moves and the diff points straight at the cause.
    spec_matches_golden("rng_stream_grid");
}

#[test]
fn tab3_uarch_matches_committed_output() {
    // The skylake rows are the Table III operating point, so a change to
    // one microarchitecture's profile shows up against the others here.
    spec_matches_golden("tab3_uarch");
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
fn traced_sweep_emits_the_committed_golden_trace() {
    // One tab3 cell's full event stream, byte-for-byte: pins the event
    // vocabulary, the CSV rendering, the per-cell trace filenames AND
    // (at LEAKY_SWEEP_JOBS=3) that the event stream is independent of
    // worker scheduling. Regenerate with:
    //   leaky_sweep --quick tab3_all_channels --trace=events --trace-dir DIR
    let name = TRACE_GOLDEN;
    let dir = std::env::temp_dir().join(format!("leaky_trace_golden_{}", std::process::id()));
    stdout_of(
        env!("CARGO_BIN_EXE_leaky_sweep"),
        &[
            "--quick",
            "tab3_all_channels",
            "--trace=events",
            "--trace-dir",
            dir.to_str().expect("utf-8 temp dir"),
        ],
    );
    let produced = std::fs::read_to_string(dir.join(name)).expect("trace file written");
    assert_eq!(
        produced,
        golden(name),
        "{name}: trace diverged from committed golden"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_spec_has_a_golden_and_every_channel_is_documented() {
    // Reads the live registries: a spec registered without a committed
    // golden has nothing pinning its output bytes, a golden that is
    // neither a spec's nor a listed non-spec pin is left over from a
    // deleted binary or spec, and a channel missing from EXPERIMENTS.md
    // is invisible to users of the sweep CLI.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut expected: Vec<String> = NON_SPEC_GOLDENS.iter().map(|g| g.to_string()).collect();
    for name in leaky_exp::experiments::standard_registry().names() {
        let path = golden_dir().join(format!("{name}.txt"));
        let text = std::fs::read_to_string(&path).unwrap_or_default();
        assert!(
            !text.is_empty(),
            "spec `{name}` has no committed golden at {}",
            path.display()
        );
        expected.push(format!("{name}.txt"));
    }
    let mut committed: Vec<String> = std::fs::read_dir(golden_dir())
        .expect("golden directory")
        .map(|entry| {
            let entry = entry.expect("readable golden directory entry");
            entry.file_name().to_string_lossy().into_owned()
        })
        .collect();
    expected.sort();
    committed.sort();
    assert_eq!(
        committed, expected,
        "tests/golden must hold exactly the spec goldens plus NON_SPEC_GOLDENS"
    );
    let docs = std::fs::read_to_string(root.join("../../EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    for channel in &leaky_frontends::channels::REGISTRY {
        assert!(
            docs.contains(channel.name),
            "channel `{}` is registered but never mentioned in EXPERIMENTS.md",
            channel.name
        );
    }
}
