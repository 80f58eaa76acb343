//! Tier-1 gates for crash-safe resumable sweeps (DESIGN.md §11): the
//! result store, kill-and-resume, fault-injected failure rows, and
//! corruption quarantine, all driven through the `leaky_sweep` binary so
//! the whole stack (CLI flags → runner → store → renderers) is under
//! test, and a planned abort kills a *subprocess*, not the test harness.

use std::path::PathBuf;
use std::process::Command;

/// Exit status plus captured streams of one `leaky_sweep` invocation.
struct Sweep {
    stdout: String,
    stderr: String,
    code: i32,
}

fn sweep(args: &[&str]) -> Sweep {
    let out = Command::new(env!("CARGO_BIN_EXE_leaky_sweep"))
        .args(args)
        .output()
        .expect("leaky_sweep runs");
    Sweep {
        stdout: String::from_utf8(out.stdout).expect("utf-8 stdout"),
        stderr: String::from_utf8(out.stderr).expect("utf-8 stderr"),
        code: out.status.code().expect("exit code"),
    }
}

/// A per-test scratch directory under the system temp dir, removed on
/// drop so repeated `cargo test` runs never see each other's stores.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("leaky-sweep-resume-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("utf-8 temp path")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The cheap test vehicle: 8 cells of derived-seed RNG streams.
const EXP: &str = "rng_stream_grid";
/// A mid-grid cell of the quick grid (cells are stream=0..8).
const MID_KEY: &str = "rng_stream_grid/profile=quick/stream=5";
const PANIC_KEY: &str = "rng_stream_grid/profile=quick/stream=3";

#[test]
fn warm_store_rerun_recomputes_nothing_and_is_byte_identical() {
    let store = Scratch::new("warm");
    for format in ["table", "json"] {
        let base = [
            EXP,
            "--quick",
            "--format",
            format,
            "--store",
            store.path(),
            "--resume",
        ];
        let cold = sweep(&[&base[..], &["--jobs", "2"]].concat());
        assert_eq!(cold.code, 0, "cold run: {}", cold.stderr);
        let warm = sweep(&[&base[..], &["--jobs", "4"]].concat());
        assert_eq!(warm.code, 0, "warm run: {}", warm.stderr);
        assert_eq!(
            cold.stdout, warm.stdout,
            "a fully cached rerun must be byte-identical ({format})"
        );
        // First format's warm run onward: every cell is a hit.
        assert!(
            warm.stderr.contains("8 cells, 8 hits, 0 recomputed"),
            "warm rerun must recompute nothing: {}",
            warm.stderr
        );
        assert!(
            warm.stderr.contains("0 quarantined, 0 writes"),
            "warm rerun must write nothing: {}",
            warm.stderr
        );
    }
}

#[test]
fn killed_sweep_resumes_to_the_uninterrupted_bytes() {
    // References: uninterrupted single-threaded runs, no store at all.
    let table_ref = sweep(&[EXP, "--quick", "--jobs", "1", "--format", "table"]);
    let json_ref = sweep(&[EXP, "--quick", "--jobs", "1", "--format", "json"]);
    assert_eq!(table_ref.code, 0);
    assert_eq!(json_ref.code, 0);

    for jobs in ["1", "4"] {
        let store = Scratch::new(&format!("kill{jobs}"));
        // Phase 1: the fault plan aborts the sweep mid-grid.
        let killed = sweep(&[
            EXP,
            "--quick",
            "--jobs",
            jobs,
            "--store",
            store.path(),
            "--faults",
            &format!("abort:{MID_KEY}"),
        ]);
        assert_eq!(killed.code, 3, "planned abort exits 3: {}", killed.stderr);
        assert!(
            killed.stdout.is_empty(),
            "an aborted sweep renders nothing (jobs {jobs})"
        );
        let persisted = std::fs::read_dir(PathBuf::from(store.path()).join("entries"))
            .expect("entries dir exists")
            .count();
        assert!(
            persisted > 0,
            "cells completed before the abort stay persisted (jobs {jobs})"
        );
        assert!(
            persisted < 8,
            "the abort must land mid-grid, not after it (jobs {jobs}, {persisted} persisted)"
        );

        // Phase 2: resume merges cached + fresh cells in grid order,
        // byte-identical to the run that never died — in both formats.
        let resumed = sweep(&[
            EXP,
            "--quick",
            "--jobs",
            jobs,
            "--store",
            store.path(),
            "--resume",
        ]);
        assert_eq!(resumed.code, 0, "resume: {}", resumed.stderr);
        assert_eq!(
            resumed.stdout, table_ref.stdout,
            "resumed table (jobs {jobs}) must match the uninterrupted run"
        );
        let resumed_json = sweep(&[
            EXP,
            "--quick",
            "--jobs",
            jobs,
            "--store",
            store.path(),
            "--resume",
            "--format",
            "json",
        ]);
        assert_eq!(resumed_json.code, 0);
        assert_eq!(
            resumed_json.stdout, json_ref.stdout,
            "resumed JSON (jobs {jobs}) must match the uninterrupted run"
        );
    }
}

#[test]
fn injected_panic_becomes_exactly_one_failure_row() {
    let fault = format!("panic:{PANIC_KEY}");
    let one = sweep(&[EXP, "--quick", "--jobs", "1", "--faults", &fault]);
    let four = sweep(&[EXP, "--quick", "--jobs", "4", "--faults", &fault]);
    // A failed cell is a row, not an error: the sweep still exits 0.
    assert_eq!(one.code, 0);
    assert_eq!(four.code, 0);
    assert_eq!(
        one.stdout, four.stdout,
        "failure rows must be jobs-invariant"
    );
    assert!(
        one.stdout.contains("cells: 8 (1 failed)"),
        "exactly one failure is accounted: {}",
        one.stdout
    );
    assert_eq!(
        one.stdout.matches("\nfailed ").count(),
        1,
        "exactly one failure detail line: {}",
        one.stdout
    );
    assert!(
        one.stdout
            .contains(&format!("failed {PANIC_KEY}: injected panic")),
        "the detail line names the cell and cause: {}",
        one.stdout
    );

    // The JSON rendering carries the same single failure, jobs-invariant.
    let json1 = sweep(&[
        EXP, "--quick", "--jobs", "1", "--faults", &fault, "--format", "json",
    ]);
    let json4 = sweep(&[
        EXP, "--quick", "--jobs", "4", "--faults", &fault, "--format", "json",
    ]);
    assert_eq!(json1.code, 0);
    assert_eq!(json1.stdout, json4.stdout);
    assert_eq!(json1.stdout.matches("\"failed\": true").count(), 1);
    assert!(json1.stdout.contains("\"attempts\": 1"));
}

#[test]
fn retries_rescue_a_cell_that_panics_once() {
    // panic@1 sabotages only attempt 0; one retry rescues the cell on a
    // deterministically re-seeded second attempt.
    let fault = format!("panic@1:{PANIC_KEY}");
    let rescued = sweep(&[
        EXP,
        "--quick",
        "--jobs",
        "2",
        "--faults",
        &fault,
        "--retries",
        "1",
    ]);
    assert_eq!(rescued.code, 0);
    assert!(
        rescued.stdout.contains("cells: 8\n"),
        "no failure marker when the retry rescues: {}",
        rescued.stdout
    );
    // Without the retry budget the same plan kills the cell.
    let exhausted = sweep(&[EXP, "--quick", "--jobs", "2", "--faults", &fault]);
    assert_eq!(exhausted.code, 0);
    assert!(exhausted.stdout.contains("cells: 8 (1 failed)"));
}

#[test]
fn corrupt_entry_is_quarantined_and_selectively_recomputed() {
    let store = Scratch::new("corrupt");
    let base = [
        EXP,
        "--quick",
        "--jobs",
        "2",
        "--store",
        store.path(),
        "--resume",
    ];
    let cold = sweep(&base);
    assert_eq!(cold.code, 0);

    // Damage exactly one entry on disk (what a crash mid-write, a bad
    // disk, or bit rot would leave behind).
    let entries = PathBuf::from(store.path()).join("entries");
    let victim = std::fs::read_dir(&entries)
        .expect("entries dir")
        .next()
        .expect("at least one entry")
        .expect("readable dir entry")
        .path();
    let mut bytes = std::fs::read(&victim).expect("entry readable");
    bytes.extend_from_slice(b"trailing garbage\n");
    std::fs::write(&victim, bytes).expect("entry writable");

    let healed = sweep(&base);
    assert_eq!(
        healed.code, 0,
        "corruption must not abort: {}",
        healed.stderr
    );
    assert_eq!(
        healed.stdout, cold.stdout,
        "healing rerun is byte-identical to the cold run"
    );
    assert!(
        healed
            .stderr
            .contains("7 hits, 1 recomputed, 0 stale, 1 quarantined, 1 writes"),
        "exactly the damaged cell is quarantined and recomputed: {}",
        healed.stderr
    );
    let quarantined = std::fs::read_dir(PathBuf::from(store.path()).join("quarantine"))
        .expect("quarantine dir")
        .count();
    assert_eq!(quarantined, 1, "the bad entry is preserved for forensics");

    // And the store is healthy again: everything hits.
    let warm = sweep(&base);
    assert_eq!(warm.code, 0);
    assert!(warm.stderr.contains("8 hits, 0 recomputed"));
}

#[test]
fn unknown_experiment_suggests_near_misses() {
    let typo = sweep(&["rng_stream_gird"]);
    assert_eq!(typo.code, 2);
    assert!(typo.stdout.is_empty());
    assert!(
        typo.stderr
            .contains("unknown experiment \"rng_stream_gird\""),
        "stderr names the offender: {}",
        typo.stderr
    );
    assert!(
        typo.stderr.contains("did you mean: rng_stream_grid"),
        "stderr suggests the near miss: {}",
        typo.stderr
    );
    // A hopeless name still errors usefully, without fabricating a match.
    let hopeless = sweep(&["totally_unrelated_zzz"]);
    assert_eq!(hopeless.code, 2);
    assert!(!hopeless.stderr.contains("did you mean"));
    assert!(hopeless.stderr.contains("tab3_all_channels"));
}

#[test]
fn resume_without_store_is_a_usage_error() {
    let bad = sweep(&[EXP, "--quick", "--resume"]);
    assert_eq!(bad.code, 2);
    assert!(bad.stderr.contains("--resume needs --store"));
}

#[test]
fn resume_with_trace_serves_cached_cells_with_telemetry() {
    // The store schema (leaky-store/v2) persists telemetry, so a fully
    // cached traced rerun is byte-identical to the cold traced run —
    // telemetry included — and the old "--resume serves cached cells
    // without telemetry" warning is gone for good.
    // `tab3_all_channels` rather than the usual cheap vehicle: its cells
    // are real channel runs, the only quick grids that carry telemetry.
    let store = Scratch::new("trace-resume");
    let base = [
        "tab3_all_channels",
        "--quick",
        "--trace",
        "--format",
        "json",
        "--store",
        store.path(),
        "--resume",
    ];
    let cold = sweep(&base);
    assert_eq!(cold.code, 0, "cold run: {}", cold.stderr);
    assert_eq!(
        cold.stderr.matches("without telemetry").count(),
        0,
        "the retired warning must not reappear: {}",
        cold.stderr
    );
    assert!(
        cold.stdout.contains("telemetry"),
        "traced cells carry telemetry: {}",
        cold.stdout
    );
    let warm = sweep(&base);
    assert_eq!(warm.code, 0, "warm run: {}", warm.stderr);
    assert!(
        warm.stderr.contains(" hits, 0 recomputed"),
        "warm rerun serves every cell from the store: {}",
        warm.stderr
    );
    assert_eq!(
        warm.stdout, cold.stdout,
        "cached traced cells reproduce the cold run byte-for-byte, telemetry included"
    );

    // An *untraced* resume against the same (traced) store still hits —
    // it just strips the telemetry it didn't ask for, matching a plain
    // no-store untraced run byte-for-byte.
    let untraced = sweep(&[
        "tab3_all_channels",
        "--quick",
        "--format",
        "json",
        "--store",
        store.path(),
        "--resume",
    ]);
    assert_eq!(untraced.code, 0, "untraced resume: {}", untraced.stderr);
    assert!(
        untraced.stderr.contains(" hits, 0 recomputed"),
        "traced entries serve untraced sweeps: {}",
        untraced.stderr
    );
    let plain = sweep(&["tab3_all_channels", "--quick", "--format", "json"]);
    assert_eq!(untraced.stdout, plain.stdout);

    // The other direction recomputes: entries written without telemetry
    // cannot serve a traced sweep.
    let untraced_store = Scratch::new("trace-upgrade");
    let seeded = sweep(&[
        "tab3_all_channels",
        "--quick",
        "--store",
        untraced_store.path(),
        "--resume",
    ]);
    assert_eq!(seeded.code, 0);
    let upgraded = sweep(&[
        "tab3_all_channels",
        "--quick",
        "--trace",
        "--format",
        "json",
        "--store",
        untraced_store.path(),
        "--resume",
    ]);
    assert_eq!(upgraded.code, 0, "upgrade run: {}", upgraded.stderr);
    // Measured cells recompute (only the telemetry-free *unsupported*
    // rows, which have nothing to trace, may still hit).
    assert!(
        !upgraded.stderr.contains(" 0 recomputed"),
        "untraced measured entries cannot serve a traced sweep: {}",
        upgraded.stderr
    );
    assert!(
        upgraded.stdout.contains("telemetry"),
        "recomputed cells carry telemetry: {}",
        upgraded.stdout
    );
}
