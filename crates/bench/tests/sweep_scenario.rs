//! Scenario-file integration tests: the committed `scenarios/` library
//! must load, validate, and — for the bundle restating the compiled-in
//! `tab3_uarch` spec — reproduce its committed golden *byte-identically*
//! from file-loaded profiles. That identity is the tentpole claim of the
//! scenario subsystem: a sweep expressed as data is the same sweep.
//!
//! `--jobs 3` forces the parallel pool path for the golden runs;
//! `tab3_riscv` is additionally pinned jobs 1 vs jobs 4.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root")
}

fn scenarios_dir() -> PathBuf {
    repo_root().join("scenarios")
}

/// Runs `leaky_sweep args --jobs jobs` from the repository root.
fn sweep(args: &[&str], jobs: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_leaky_sweep"))
        .args(args)
        .args(["--jobs", jobs])
        .current_dir(repo_root())
        .output()
        .expect("leaky_sweep runs")
}

fn golden(name: &str) -> String {
    std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(name),
    )
    .expect("committed golden output")
}

#[test]
fn scenario_bundle_reproduces_the_tab3_uarch_golden() {
    // The file bundle restates the compiled-in spec; with the profile
    // directory loaded, every profile it sweeps is the *file* copy
    // (identical restatement replaces the built-in in the registry), so
    // byte-identity here proves faithful lowering end to end.
    let out = sweep(
        &[
            "--scenario",
            "scenarios/tab3_uarch.toml",
            "--profile-dir",
            "scenarios",
            "--format",
            "table",
        ],
        "3",
    );
    assert!(out.status.success(), "scenario sweep must exit 0");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert_eq!(
        stdout,
        golden("tab3_uarch.txt"),
        "file-loaded tab3_uarch diverged from the compiled-in spec's golden"
    );
}

#[test]
fn riscv_bundle_matches_golden_and_is_parallel_deterministic() {
    let args = [
        "--scenario",
        "scenarios/tab3_riscv.toml",
        "--profile-dir",
        "scenarios",
        "--format",
        "table",
    ];
    let j1 = sweep(&args, "1");
    assert!(j1.status.success(), "tab3_riscv must exit 0");
    let j1 = String::from_utf8(j1.stdout).expect("utf-8 stdout");
    assert_eq!(
        j1,
        golden("tab3_riscv.txt"),
        "tab3_riscv diverged from committed output"
    );

    let j4 = sweep(&args, "4");
    assert!(j4.status.success());
    assert_eq!(
        j1,
        String::from_utf8(j4.stdout).expect("utf-8 stdout"),
        "tab3_riscv diverged between --jobs 1 and --jobs 4"
    );
}

#[test]
fn every_committed_scenario_file_validates() {
    // The CI scenario-validation step runs this same loop from the
    // shell; the test keeps it honest locally. Each file must also be
    // named in EXPERIMENTS.md, so the library and its walkthrough
    // cannot drift apart.
    let docs = std::fs::read_to_string(repo_root().join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let mut seen = 0;
    let mut entries: Vec<_> = std::fs::read_dir(scenarios_dir())
        .expect("scenarios/ directory")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    entries.sort();
    for path in entries {
        let file_name = path.file_name().expect("file name").to_string_lossy();
        assert!(
            docs.contains(file_name.as_ref()),
            "{file_name} is not mentioned in EXPERIMENTS.md (document the scenario library)"
        );
        let out = sweep(
            &[
                "--scenario",
                path.to_str().expect("utf-8 path"),
                "--profile-dir",
                "scenarios",
                "--validate",
            ],
            "1",
        );
        assert!(
            out.status.success(),
            "{}: --validate failed:\n{}",
            path.display(),
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        assert!(
            stdout.contains(": ok"),
            "{}: unexpected --validate report: {stdout}",
            path.display()
        );
        seen += 1;
    }
    assert_eq!(seen, 8, "the committed scenario library has 8 files");
}

#[test]
fn committed_profile_files_are_byte_identical_to_the_builtins() {
    // The three legacy profiles re-expressed as files are exactly
    // `encode_profile` of the compiled-in constants — regenerate, don't
    // hand-edit.
    for builtin in leaky_uarch::UarchProfile::all() {
        let path = scenarios_dir().join(format!("{}.toml", builtin.key));
        let text = std::fs::read_to_string(&path).expect("committed profile file");
        assert_eq!(
            text,
            leaky_scenario::encode_profile(&builtin),
            "{}: file drifted from the built-in profile",
            path.display()
        );
    }
}

#[test]
fn scenario_errors_exit_2_with_stable_messages() {
    let dir = std::env::temp_dir().join("leaky_scenario_cli_errors");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let bad = dir.join("bad.toml");
    std::fs::write(
        &bad,
        "schema = \"leaky-frontends/scenario/v2\"\nkind = \"scenario\"\n",
    )
    .expect("write temp scenario");
    let out = sweep(&["--scenario", bad.to_str().expect("utf-8 path")], "1");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(
        stderr.contains(
            "line 1: schema must be \"leaky-frontends/scenario/v1\", got \"leaky-frontends/scenario/v2\""
        ),
        "unexpected stderr: {stderr}"
    );

    // A profile file is not runnable on its own.
    let out = sweep(&["--scenario", "scenarios/skylake.toml"], "1");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(
        stderr.contains("is a profile, not a scenario"),
        "unexpected stderr: {stderr}"
    );

    // Flag dependencies are usage errors.
    let out = sweep(&["--validate"], "1");
    assert_eq!(out.status.code(), Some(2));
    let out = sweep(&["--profile-dir", "scenarios"], "1");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn invalid_d_values_are_rejected_at_load_time() {
    // `d = 8` leaves the misalignment channels no room for M = 8 blocks
    // (d < M <= N): the bundle must fail at the `d` axis line instead of
    // panicking in a cell at run time.
    let text = std::fs::read_to_string(scenarios_dir().join("tab3_riscv.toml"))
        .expect("committed bundle")
        .replace(
            "machine = [\"Xeon E-2288G\"]",
            "machine = [\"Xeon E-2288G\"]\nd = [1, 8]",
        );
    let d_line = text
        .lines()
        .position(|l| l.starts_with("d = "))
        .expect("d axis inserted")
        + 1;
    let mut profiles = leaky_scenario::ProfileRegistry::builtins();
    profiles.load_dir(scenarios_dir()).expect("profile library");
    let err = leaky_scenario::parse_bundle(&text, &profiles).expect_err("d = 8 is invalid");
    assert_eq!(
        err.to_string(),
        format!(
            "line {d_line}: channel `non-mt-stealthy-misalignment` with d = 8 under uarch \
             `skylake`: M = 8 must satisfy d < M <= N (d = 8, N = 8)"
        )
    );

    let dir = std::env::temp_dir().join(format!("leaky_scenario_bad_d_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let bad = dir.join("tab3_riscv_bad_d.toml");
    std::fs::write(&bad, &text).expect("write temp scenario");
    let out = sweep(
        &[
            "--scenario",
            bad.to_str().expect("utf-8 path"),
            "--profile-dir",
            "scenarios",
            "--validate",
        ],
        "1",
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!out.status.success(), "--validate must reject the bundle");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(
        stderr.contains(&format!(
            "line {d_line}: channel `non-mt-stealthy-misalignment`"
        )),
        "unexpected stderr: {stderr}"
    );
}

#[test]
fn a_dsb_too_small_for_the_channel_layout_fails_validation() {
    // Every channel layout collides in DSB set 3 (and the eviction decoy
    // in set 19), so a 3-set copy of `constant_time` must fail at the
    // `uarch` axis line under --validate instead of panicking in a cell.
    let profile = std::fs::read_to_string(scenarios_dir().join("constant_time.toml"))
        .expect("committed profile")
        .replace("key = \"constant_time\"", "key = \"constant_time_3set\"")
        .replace("dsb_sets = 32", "dsb_sets = 3");
    let bundle = std::fs::read_to_string(scenarios_dir().join("tab3_uarch.toml"))
        .expect("committed bundle")
        .replace("\"constant_time\"]", "\"constant_time_3set\"]");
    let uarch_line = bundle
        .lines()
        .position(|l| l.starts_with("uarch = "))
        .expect("uarch axis")
        + 1;

    let dir = std::env::temp_dir().join(format!("leaky_scenario_3set_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    std::fs::write(dir.join("constant_time_3set.toml"), profile).expect("write profile");
    let bundle_path = dir.join("tab3_uarch_3set.toml");
    std::fs::write(&bundle_path, bundle).expect("write bundle");
    let out = sweep(
        &[
            "--scenario",
            bundle_path.to_str().expect("utf-8 path"),
            "--profile-dir",
            dir.to_str().expect("utf-8 path"),
            "--validate",
        ],
        "1",
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        out.status.code(),
        Some(2),
        "--validate must reject the bundle"
    );
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(
        stderr.contains(&format!(
            "line {uarch_line}: channel `non-mt-stealthy-eviction` with d = 6 under uarch \
             `constant_time_3set`: the layout uses DSB set 19, beyond a 3-set DSB"
        )),
        "unexpected stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn control_characters_in_a_title_still_yield_valid_json() {
    // The TOML subset passes a raw tab through a string value; the
    // sweep/v1 writer must escape it (and the quote) or the document is
    // not JSON.
    let title = "Tab\there \"quoted\" → ok";
    let text = std::fs::read_to_string(scenarios_dir().join("tab3_riscv.toml"))
        .expect("committed bundle")
        .replace(
            "title = \"Table III rates across ISAs and core classes (Xeon E-2288G, SMT off), \
             alternating message\"",
            "title = \"Tab\there \\\"quoted\\\" → ok\"",
        );
    assert!(text.contains('\t'), "title replacement must apply");
    let dir = std::env::temp_dir().join(format!("leaky_scenario_tab_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("tab3_riscv.toml");
    std::fs::write(&path, &text).expect("write temp scenario");
    let out = sweep(
        &[
            "--scenario",
            path.to_str().expect("utf-8 path"),
            "--profile-dir",
            "scenarios",
            "--quick",
            "--format",
            "json",
        ],
        "1",
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert!(out.status.success(), "scenario sweep must exit 0");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let doc = leaky_codec::json::parse(&stdout).expect("sweep/v1 output is valid JSON");
    let sweeps = doc
        .get("sweeps")
        .and_then(leaky_codec::json::Json::as_array)
        .expect("sweeps array");
    assert_eq!(
        sweeps[0]
            .get("title")
            .and_then(leaky_codec::json::Json::as_str),
        Some(title)
    );
}

#[test]
fn scenario_sweeps_resume_from_the_store() {
    // A loaded bundle runs through the same store/resume machinery as
    // the compiled-in sweeps: second run serves every cell from cache.
    let dir = std::env::temp_dir().join(format!("leaky_scenario_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = dir.to_str().expect("utf-8 path");
    let args = [
        "--scenario",
        "scenarios/tab3_uarch.toml",
        "--profile-dir",
        "scenarios",
        "--quick",
        "--store",
        store,
        "--resume",
    ];
    let first = sweep(&args, "2");
    assert!(first.status.success());
    let second = sweep(&args, "2");
    assert!(second.status.success());
    assert_eq!(
        first.stdout, second.stdout,
        "cached run must render identically"
    );
    let stderr = String::from_utf8(second.stderr).expect("utf-8 stderr");
    assert!(
        stderr.contains("18 cells, 18 hits, 0 recomputed"),
        "second run must be all cache hits: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
