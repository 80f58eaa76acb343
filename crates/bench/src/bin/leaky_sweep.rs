//! `leaky_sweep`: the unified experiment-sweep CLI (DESIGN.md §7, §11).
//!
//! Runs registered `leaky_exp` experiments on the deterministic scoped
//! worker pool and renders them as a table or as JSON. Output is
//! byte-identical at any `--jobs N` (pinned by `tests/sweep_determinism.rs`),
//! and — with `--store`/`--resume` — byte-identical whether cells were
//! computed fresh or served from the on-disk result store (pinned by
//! `tests/sweep_resume.rs`).
//!
//! ```text
//! leaky_sweep                          # run every registered sweep, table format
//! leaky_sweep fig8_d_sweep tab5_power_channels
//! leaky_sweep --list                   # registered names, grid sizes, titles
//! leaky_sweep --channels               # the covert-channel registry
//! leaky_sweep --quick --jobs 4         # CI smoke grids on 4 workers
//! leaky_sweep --format json            # leaky-frontends/sweep/v1 document
//! leaky_sweep --store results/ --resume --quick   # crash-safe resumable sweep
//! leaky_sweep --retries 2              # re-seeded retries for dying cells
//! leaky_sweep --faults 'panic:k1;abort:k2'        # deterministic fault drill
//! leaky_sweep --quick --trace --format json       # stall telemetry in the JSON
//! leaky_sweep --trace=events --trace-dir traces/ tab3_all_channels  # per-cell event CSVs
//! leaky_sweep --scenario scenarios/tab3_uarch.toml --jobs 4         # run a bundle file
//! leaky_sweep --scenario s.toml --profile-dir scenarios/            # with file profiles
//! leaky_sweep --scenario scenarios/skylake.toml --validate          # schema check only
//! ```
//!
//! Store traffic is reported on *stderr* (`store[...]: ...` lines);
//! stdout stays a pure function of the sweep's deterministic state.
//!
//! Exit codes: 0 success (even with failed cells — they are rows, not
//! errors), 2 usage error, 3 sweep aborted by the fault plan, 1 store
//! I/O failure.

use std::path::Path;
use std::process::ExitCode;

use leaky_bench::sweep::{
    default_jobs, render_json_document, render_table, suggest_experiments, write_trace_files,
};
use leaky_exp::{
    run_experiment_with, standard_registry, FaultPlan, Registry, RunConfig, SweepError,
};
use leaky_frontends::channels::REGISTRY;
use leaky_scenario::profile::document_kind;
use leaky_scenario::toml::Doc;
use leaky_scenario::{parse_bundle, parse_profile, ProfileRegistry, ScenarioError};
use leaky_store::ResultStore;
use leaky_trace::TraceMode;

enum Format {
    Table,
    Json,
}

fn usage() -> &'static str {
    "usage: leaky_sweep [EXPERIMENT...] [--list] [--channels] [--quick] [--jobs N] \
     [--format table|json] [--store DIR] [--resume] [--retries K] [--faults SPEC] \
     [--trace[=summary|events]] [--trace-dir DIR] \
     [--scenario FILE] [--profile-dir DIR] [--validate]"
}

/// Loads `--scenario FILE` into a single-experiment registry (merging
/// `--profile-dir` files over the built-in profiles first).
///
/// `Ok(None)` means `--validate` ran and reported success — the caller
/// exits 0 without sweeping. A `kind = "profile"` file is only valid
/// under `--validate` (profiles feed sweeps via `--profile-dir`; they
/// are not runnable on their own).
fn load_scenario(
    file: &str,
    profile_dir: Option<&str>,
    validate: bool,
) -> Result<Option<Registry>, ScenarioError> {
    let mut profiles = ProfileRegistry::builtins();
    if let Some(dir) = profile_dir {
        let loaded = profiles.load_dir(dir)?;
        eprintln!("profiles[{dir}]: {loaded} loaded");
    }
    let path = Path::new(file);
    let text = std::fs::read_to_string(path)
        .map_err(|e| ScenarioError::doc(format!("{}: {e}", path.display())))?;
    let doc = Doc::parse(&text).map_err(|e| e.in_file(path))?;
    let kind = document_kind(&doc)
        .map_err(|e| e.in_file(path))?
        .to_string();
    if kind == "profile" {
        let profile = parse_profile(&text).map_err(|e| e.in_file(path))?;
        if validate {
            println!("profile {}: ok", profile.key);
            return Ok(None);
        }
        return Err(ScenarioError::doc(format!(
            "{file} is a profile, not a scenario (profiles feed sweeps via --profile-dir)"
        )));
    }
    let bundle = parse_bundle(&text, &profiles).map_err(|e| e.in_file(path))?;
    if validate {
        println!(
            "scenario {}: ok ({} cells)",
            bundle.name,
            bundle.cell_count()
        );
        return Ok(None);
    }
    let registry = Registry::from_experiments([bundle.into_experiment()])
        .map_err(|e| ScenarioError::doc(e.to_string()))?;
    Ok(Some(registry))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();

    let mut names: Vec<String> = Vec::new();
    let mut quick = false;
    let mut list = false;
    let mut channels = false;
    let mut jobs = default_jobs();
    let mut format = Format::Table;
    let mut store_dir: Option<String> = None;
    let mut resume = false;
    let mut retries: u32 = 0;
    let mut faults_spec: Option<String> = None;
    let mut trace = TraceMode::Off;
    let mut trace_dir: Option<String> = None;
    let mut scenario: Option<String> = None;
    let mut profile_dir: Option<String> = None;
    let mut validate = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--list" => list = true,
            "--channels" => channels = true,
            "--resume" => resume = true,
            "--validate" => validate = true,
            "--scenario" => {
                let Some(file) = it.next() else {
                    eprintln!("--scenario needs a file\n{}", usage());
                    return ExitCode::from(2);
                };
                scenario = Some(file.clone());
            }
            "--profile-dir" => {
                let Some(dir) = it.next() else {
                    eprintln!("--profile-dir needs a directory\n{}", usage());
                    return ExitCode::from(2);
                };
                profile_dir = Some(dir.clone());
            }
            "--trace" => trace = TraceMode::Summary,
            "--trace-dir" => {
                let Some(dir) = it.next() else {
                    eprintln!("--trace-dir needs a directory\n{}", usage());
                    return ExitCode::from(2);
                };
                trace_dir = Some(dir.clone());
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            "--jobs" => {
                let Some(n) = it
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n > 0)
                else {
                    eprintln!("--jobs needs a positive integer\n{}", usage());
                    return ExitCode::from(2);
                };
                jobs = n;
            }
            "--retries" => {
                let Some(n) = it.next().and_then(|v| v.parse::<u32>().ok()) else {
                    eprintln!("--retries needs a non-negative integer\n{}", usage());
                    return ExitCode::from(2);
                };
                retries = n;
            }
            "--store" => {
                let Some(dir) = it.next() else {
                    eprintln!("--store needs a directory\n{}", usage());
                    return ExitCode::from(2);
                };
                store_dir = Some(dir.clone());
            }
            "--faults" => {
                let Some(spec) = it.next() else {
                    eprintln!("--faults needs a spec string\n{}", usage());
                    return ExitCode::from(2);
                };
                faults_spec = Some(spec.clone());
            }
            "--format" => {
                format = match it.next().map(String::as_str) {
                    Some("table") => Format::Table,
                    Some("json") => Format::Json,
                    other => {
                        eprintln!("unknown format {other:?}\n{}", usage());
                        return ExitCode::from(2);
                    }
                };
            }
            flag if flag.starts_with("--trace=") => {
                trace = match flag["--trace=".len()..].parse() {
                    Ok(mode) => mode,
                    Err(e) => {
                        eprintln!("{e}\n{}", usage());
                        return ExitCode::from(2);
                    }
                };
            }
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag {flag:?}\n{}", usage());
                return ExitCode::from(2);
            }
            name => names.push(name.to_string()),
        }
    }

    if scenario.is_none() {
        if profile_dir.is_some() {
            eprintln!(
                "--profile-dir needs --scenario FILE (profiles feed a scenario sweep)\n{}",
                usage()
            );
            return ExitCode::from(2);
        }
        if validate {
            eprintln!("--validate needs --scenario FILE\n{}", usage());
            return ExitCode::from(2);
        }
    }
    let registry = match &scenario {
        Some(file) => match load_scenario(file, profile_dir.as_deref(), validate) {
            Ok(Some(registry)) => registry,
            // --validate reported success; there is nothing to run.
            Ok(None) => return ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        },
        None => standard_registry(),
    };

    if list {
        for exp in registry.iter() {
            println!(
                "{:<26} {:>3} cells ({:>2} quick)  {}",
                exp.name(),
                exp.grid(false).len(),
                exp.grid(true).len(),
                exp.title()
            );
        }
        return ExitCode::SUCCESS;
    }
    if channels {
        for info in &REGISTRY {
            println!(
                "{:<30} §{:<4} {:<7} {}",
                info.name,
                info.section,
                if info.requires_smt { "smt" } else { "any" },
                info.description
            );
        }
        return ExitCode::SUCCESS;
    }

    if resume && store_dir.is_none() {
        eprintln!(
            "--resume needs --store DIR (there is nothing to resume from)\n{}",
            usage()
        );
        return ExitCode::from(2);
    }
    if trace_dir.is_some() && trace == TraceMode::Off {
        eprintln!(
            "--trace-dir needs --trace (there are no trace files to write)\n{}",
            usage()
        );
        return ExitCode::from(2);
    }
    // Validate filters before running anything expensive.
    for name in &names {
        if registry.get(name).is_none() {
            let registered = registry.names();
            eprintln!(
                "unknown experiment {name:?}; registered: {}",
                registered.join(", ")
            );
            let near = suggest_experiments(name, &registered);
            if !near.is_empty() {
                eprintln!("did you mean: {}?", near.join(", "));
            }
            eprintln!("(run `leaky_sweep --list` for grid sizes and titles)");
            return ExitCode::from(2);
        }
    }
    let selected: Vec<&str> = if names.is_empty() {
        registry.names()
    } else {
        names.iter().map(String::as_str).collect()
    };

    let faults = match FaultPlan::parse(faults_spec.as_deref().unwrap_or("")) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("bad fault spec: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };

    let store = match &store_dir {
        Some(dir) => match ResultStore::open(dir) {
            Ok(store) => Some(store),
            Err(e) => {
                eprintln!("cannot open result store: {e}");
                return ExitCode::from(1);
            }
        },
        None => None,
    };

    let mut runs = Vec::with_capacity(selected.len());
    for name in &selected {
        let cfg = RunConfig {
            quick,
            jobs,
            retries,
            resume,
            store: store.as_ref(),
            faults: faults.clone(),
            trace,
        };
        let exp = registry.get(name).expect("validated");
        match run_experiment_with(exp, &cfg) {
            Ok(run) => {
                if let Some(stats) = &run.store_stats {
                    let recomputed = run.cells.len() - stats.hits;
                    eprintln!(
                        "store[{name}]: {} cells, {} hits, {recomputed} recomputed, {} stale, {} quarantined, {} writes",
                        run.cells.len(),
                        stats.hits,
                        stats.stale,
                        stats.quarantined,
                        stats.writes,
                    );
                }
                runs.push(run);
            }
            Err(SweepError::Aborted { key }) => {
                eprintln!("sweep {name} aborted by fault plan at cell {key:?}");
                eprintln!("completed cells are persisted; rerun with --resume to continue");
                return ExitCode::from(3);
            }
            Err(SweepError::Store(e)) => {
                eprintln!("sweep {name}: result store failed: {e}");
                return ExitCode::from(1);
            }
        }
    }

    if let Some(dir) = &trace_dir {
        match write_trace_files(&runs, Path::new(dir)) {
            // Stderr, like the store traffic lines: stdout stays a pure
            // function of the sweep's deterministic state.
            Ok(n) => eprintln!("trace[{dir}]: {n} files"),
            Err(e) => {
                eprintln!("cannot write trace files: {e}");
                return ExitCode::from(1);
            }
        }
    }

    match format {
        Format::Table => {
            for (i, run) in runs.iter().enumerate() {
                if i > 0 {
                    println!();
                }
                print!("{}", render_table(run));
            }
        }
        Format::Json => print!("{}", render_json_document(&runs)),
    }
    ExitCode::SUCCESS
}
