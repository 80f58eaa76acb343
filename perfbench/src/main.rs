//! End-to-end and per-layer benchmark of the Leaky Frontends reproduction.
//!
//! ```text
//! perfbench --workload paper_regen|channel_stream|sweep_resume \
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` runs one workload closed-loop with tracing off and prints
//! its end-to-end metrics. `--trace 1` is the traced run: it runs every
//! workload, each in its own process for a third of the time, with spans
//! around each layer call, and prints every per-layer metric. Either way
//! the last line of stdout is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `perfbench/README.md` for the workloads and metrics.

mod channel_stream;
mod experiments;
mod harness;
mod paper_regen;
mod spans;
mod sweep_resume;

use harness::{Metric, Report, Workload};
use std::process::{Command, ExitCode};

const WORKLOADS: [&str; 3] = ["paper_regen", "channel_stream", "sweep_resume"];

/// Every per-layer metric the traced run must print, with its unit.
const PER_LAYER: [(&str, &str); 56] = [
    ("frontend.iterations_per_bit", "count"),
    ("frontend.ns_per_iteration", "ns"),
    ("frontend.iterations.lsd", "count"),
    ("frontend.iterations.dsb", "count"),
    ("frontend.iterations.mite", "count"),
    ("frontend.dsb_evictions", "count"),
    ("frontend.lsd_locks", "count"),
    ("core.build_us", "us"),
    ("core.calibrate_ms", "ms"),
    ("core.calibration_measures", "count"),
    ("core.transmit_ms.non_mt", "ms"),
    ("core.transmit_ms.mt", "ms"),
    ("core.transmit_ms.power", "ms"),
    ("core.transmit_ms.slow_switch", "ms"),
    ("core.transmit_ms.sgx_non_mt", "ms"),
    ("core.transmit_ms.sgx_mt", "ms"),
    ("core.measures_per_bit", "count"),
    ("core.resamples", "count"),
    ("core.bit_errors", "count"),
    ("core.code_us", "us"),
    ("stats.error_rate_us", "us"),
    ("spectre.leak_ms.mem_fr", "ms"),
    ("spectre.leak_ms.l1d_fr", "ms"),
    ("spectre.leak_ms.l1d_lru", "ms"),
    ("spectre.leak_ms.l1i_fr", "ms"),
    ("spectre.leak_ms.l1i_pp", "ms"),
    ("spectre.leak_ms.frontend", "ms"),
    ("exp.sweep_ms.tab3_all_channels", "ms"),
    ("exp.sweep_ms.tab2_mt_patterns", "ms"),
    ("exp.sweep_ms.fig8_d_sweep", "ms"),
    ("exp.sweep_ms.tab5_power_channels", "ms"),
    ("exp.sweep_ms.tab7_spectre_miss_rates", "ms"),
    ("exp.sweep_ms.tab3_uarch", "ms"),
    ("exp.sweep_ms.rng_stream_grid", "ms"),
    ("exp.sweep_ms.tab3_riscv", "ms"),
    ("exp.cell_ms_sum.tab3_all_channels", "ms"),
    ("exp.cell_ms_sum.tab2_mt_patterns", "ms"),
    ("exp.cell_ms_sum.fig8_d_sweep", "ms"),
    ("exp.cell_ms_sum.tab5_power_channels", "ms"),
    ("exp.cell_ms_sum.tab7_spectre_miss_rates", "ms"),
    ("exp.cell_ms_sum.tab3_uarch", "ms"),
    ("exp.cell_ms_sum.rng_stream_grid", "ms"),
    ("exp.cell_ms_sum.tab3_riscv", "ms"),
    ("exp.worker_idle_frac", "ratio"),
    ("exp.resume_ms", "ms"),
    ("bench.render_table_us", "us"),
    ("bench.render_json_us", "us"),
    ("store.get_us", "us"),
    ("store.put_us", "us"),
    ("store.entry_bytes", "bytes"),
    ("store.hits", "count"),
    ("store.writes", "count"),
    ("scenario.load_ms", "ms"),
    ("trace.overhead.paper_regen", "ratio"),
    ("trace.overhead.channel_stream", "ratio"),
    ("trace.overhead.sweep_resume", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set on the per-workload processes of the traced run.
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut child = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--child" {
            child = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        child,
    })
}

fn run_one<W: Workload>(args: &Args) -> Result<Report, String> {
    if args.trace {
        let csv = experiments::repo_root().join("perfbench/out").join(format!(
            "spans-{}-seed{}.csv",
            W::NAME,
            args.seed
        ));
        harness::run_traced::<W>(args.seed, args.seconds, &csv)
    } else {
        harness::run_untraced::<W>(args.seed, args.seconds)
    }
}

fn run_workload(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "paper_regen" => run_one::<paper_regen::PaperRegen>(args),
        "channel_stream" => run_one::<channel_stream::ChannelStream>(args),
        "sweep_resume" => run_one::<sweep_resume::SweepResume>(args),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// The traced run: each workload traced in its own process, then every
/// per-layer metric merged and checked present.
fn run_all_traced(args: &Args) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    for workload in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &(args.seconds / 3.0).to_string(),
                "--trace",
                "1",
                "--child",
            ])
            .output()
            .map_err(|e| format!("{workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        if !out.status.success() {
            return Err(format!(
                "traced {workload} exited with {}: {}",
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        for line in stdout.lines() {
            let mut f = line.split(' ');
            match (f.next(), f.next(), f.next(), f.next()) {
                (Some("metric"), Some(name), Some(value), Some(unit)) => {
                    let value = value
                        .parse()
                        .map_err(|_| format!("bad metric line {line:?}"))?;
                    let unit = PER_LAYER
                        .iter()
                        .find(|(n, _)| *n == name)
                        .map(|(_, u)| *u)
                        .filter(|u| *u == unit)
                        .ok_or(format!("unexpected metric line {line:?}"))?;
                    report.metrics.push(Metric::new(name, value, unit));
                }
                (Some("ops"), Some(correct), Some(attempted), Some(failed)) => {
                    report.correct &= correct == "true";
                    report.attempted += attempted.parse::<u64>().unwrap_or(0);
                    report.failed += failed.parse::<u64>().unwrap_or(1);
                }
                _ => report.notes.push(line.to_string()),
            }
        }
    }
    for (name, _) in PER_LAYER {
        if !report.metrics.iter().any(|m| m.name == name) {
            return Err(format!("traced run did not produce {name}"));
        }
    }
    report.metrics.sort_by_key(|m| {
        PER_LAYER
            .iter()
            .position(|(n, _)| *n == m.name)
            .unwrap_or(usize::MAX)
    });
    Ok(report)
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn print_result(r: &Report) {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace && !args.child {
        run_all_traced(&args)
    } else {
        run_workload(&args)
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not a number ({})", m.name, m.value);
        return ExitCode::FAILURE;
    }
    if args.child {
        // Line protocol read by the parent's `run_all_traced`.
        for note in &report.notes {
            println!("{note}");
        }
        for m in &report.metrics {
            println!("metric {} {} {}", m.name, m.value, m.unit);
        }
        println!(
            "ops {} {} {}",
            report.correct, report.attempted, report.failed
        );
        return ExitCode::SUCCESS;
    }
    println!(
        "perfbench {} seed {} trace {}: {} ops attempted, {} failed",
        args.workload, args.seed, args.trace as u8, report.attempted, report.failed
    );
    for note in &report.notes {
        println!("  {note}");
    }
    for m in &report.metrics {
        println!("  {:<42} {:>16.6} {}", m.name, m.value, m.unit);
    }
    print_result(&report);
    ExitCode::SUCCESS
}
