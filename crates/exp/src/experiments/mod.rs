//! Registered paper sweeps (EXPERIMENTS.md lists each spec's grid and
//! pinned seed).
//!
//! Each paper spec reproduces the grid of the figure/table binary it
//! replaced cell-for-cell, pinning that binary's RNG seeds so the
//! numbers stay bit-identical (the derived `JobCell::seed` streams are
//! for new experiments; `rng_stream_grid` demonstrates them).

mod fig8;
mod rng_grid;
mod tab2;
mod tab3;
mod tab3_uarch;
mod tab5;
mod tab7;

pub use fig8::Fig8DSweep;
pub use rng_grid::RngStreamGrid;
pub use tab2::Tab2MtPatterns;
pub use tab3::Tab3AllChannels;
pub use tab3_uarch::Tab3Uarch;
pub use tab5::Tab5PowerChannels;
pub use tab7::Tab7SpectreMissRates;

use crate::runner::{CellMeasurement, Metric, Registry};
use leaky_cpu::ProcessorModel;
use leaky_frontends::channels::{BuildError, ChannelSpec};
use leaky_frontends::run::Provenance;
use leaky_uarch::UarchProfile;

/// The registry every frontend (CLI, wrappers, perf harness) shares.
///
/// # Panics
///
/// Panics if two compiled-in experiments share a name
/// (`Registry::register`).
pub fn standard_registry() -> Registry {
    let mut reg = Registry::new();
    reg.register(Box::new(Tab3AllChannels));
    reg.register(Box::new(Tab2MtPatterns));
    reg.register(Box::new(Fig8DSweep));
    reg.register(Box::new(Tab5PowerChannels));
    reg.register(Box::new(Tab7SpectreMissRates));
    reg.register(Box::new(Tab3Uarch));
    reg.register(Box::new(RngStreamGrid));
    reg
}

/// Resolves a Table I machine by its display name (the axis value).
/// Public so dynamically loaded specs (`leaky_scenario` bundles) share
/// the compiled-in sweeps' resolution path.
///
/// # Panics
///
/// Panics on an unknown name — grids only emit names from
/// [`ProcessorModel::all`], so this is a spec bug.
pub fn machine(name: &str) -> ProcessorModel {
    ProcessorModel::all()
        .into_iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("unknown machine {name:?}"))
}

/// The quick/full profile axis: a single-valued axis, so the sweep's
/// content keys (and therefore derived seeds) distinguish the two
/// workload sizes.
pub(crate) fn profile(quick: bool) -> &'static str {
    if quick {
        "quick"
    } else {
        "full"
    }
}

/// Resolves a microarchitecture profile by its registry key (the `uarch`
/// axis value).
///
/// # Panics
///
/// Panics on an unknown key — grids only emit keys from
/// [`UarchProfile::keys`], so this is a spec bug.
pub(crate) fn uarch(key: &str) -> UarchProfile {
    UarchProfile::by_key(key).unwrap_or_else(|| panic!("unknown uarch profile {key:?}"))
}

/// Runs one covert-channel cell: builds the spec's channel from the
/// registry, transmits `message`, and reports the standard rate /
/// error / capacity metrics with the run's provenance attached.
///
/// Structural gaps and defended frontends map to the sweep vocabulary:
/// an SMT channel on an SMT-less machine is `None` (the paper's missing
/// MT columns), and a channel whose calibration finds no class
/// separation is a *dead channel* row — rate 0, error 0.5, capacity 0,
/// the §XII defense's success metric.
///
/// The trace hook is installed before calibration, so the telemetry
/// covers the whole cell — including dead-channel rows, whose stall
/// summary is exactly what explains the death (the trace layer's
/// reason for existing). The metrics are bit-identical to the untraced
/// path ([`TraceMode::Off`](leaky_trace::TraceMode::Off)): the hook
/// observes, it never steers.
///
/// Public so dynamically loaded specs (`leaky_scenario` bundles) run
/// their cells through exactly the same path as the compiled-in sweeps.
///
/// # Panics
///
/// Panics on spec errors that indicate a grid bug (unknown channel
/// name, unsupported override) rather than a structural gap.
pub fn channel_cell_traced(
    spec: &ChannelSpec,
    message: &[bool],
    trace: leaky_trace::TraceMode,
) -> Option<CellMeasurement> {
    let mut ch = match spec.build() {
        Ok(ch) => ch,
        Err(BuildError::SmtUnavailable(_)) => return None,
        Err(e) => panic!("channel spec invalid: {e}"),
    };
    ch.set_trace(leaky_trace::TraceHook::new(trace));
    let provenance = Provenance {
        channel: ch.name(),
        profile: ch.profile_key(),
        params: ch.params(),
    };
    if ch.try_calibrate().is_err() {
        return Some(
            CellMeasurement::with_provenance(
                vec![
                    Metric::new("rate_kbps", 0.0),
                    Metric::new("error_rate", 0.5),
                    Metric::new("capacity_kbps", 0.0),
                ],
                Some(provenance),
            )
            .with_telemetry(ch.take_trace().into_telemetry()),
        );
    }
    let run = ch.transmit(message);
    Some(
        CellMeasurement::with_provenance(
            vec![
                Metric::new("rate_kbps", run.rate_kbps()),
                Metric::new("error_rate", run.error_rate()),
                Metric::new("capacity_kbps", run.capacity_kbps()),
            ],
            run.provenance().cloned(),
        )
        .with_telemetry(ch.take_trace().into_telemetry()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_experiment, run_experiment_with, RunConfig};
    use leaky_trace::TraceMode;

    #[test]
    fn registry_contains_the_migrated_sweeps() {
        let reg = standard_registry();
        assert_eq!(
            reg.names(),
            vec![
                "tab3_all_channels",
                "tab2_mt_patterns",
                "fig8_d_sweep",
                "tab5_power_channels",
                "tab7_spectre_miss_rates",
                "tab3_uarch",
                "rng_stream_grid",
            ]
        );
    }

    #[test]
    fn machine_lookup_roundtrips() {
        for m in ProcessorModel::all() {
            assert_eq!(machine(m.name).name, m.name);
        }
    }

    #[test]
    #[should_panic(expected = "unknown machine")]
    fn unknown_machine_panics() {
        let _ = machine("Pentium II");
    }

    #[test]
    fn traced_sweeps_keep_metrics_and_attach_telemetry() {
        // Summary tracing must never steer the simulation: the traced
        // sweep's metrics are bit-identical to the untraced run, every
        // supported channel cell carries telemetry, and the telemetry
        // itself is invariant under the worker count.
        let cfg = |jobs| RunConfig {
            quick: true,
            jobs,
            trace: TraceMode::Summary,
            ..RunConfig::default()
        };
        let plain = run_experiment(&Tab3AllChannels, true, 1);
        let traced = run_experiment_with(&Tab3AllChannels, &cfg(1)).expect("no store attached");
        let traced4 = run_experiment_with(&Tab3AllChannels, &cfg(4)).expect("no store attached");
        assert_eq!(plain.cells.len(), traced.cells.len());
        for ((p, t), t4) in plain.cells.iter().zip(&traced.cells).zip(&traced4.cells) {
            assert_eq!(p.metrics(), t.metrics(), "{}", p.cell.key);
            assert_eq!(t.telemetry(), t4.telemetry(), "{}", p.cell.key);
            if t.metrics().is_some() {
                let tel = t.telemetry().expect("channel cells attach telemetry");
                assert_eq!(tel.mode, TraceMode::Summary, "{}", p.cell.key);
                assert!(tel.summary.iterations > 0, "{}", p.cell.key);
            }
        }
    }

    #[test]
    fn quick_grids_are_parallel_deterministic() {
        // The heavyweight full grids are covered by the golden-output
        // integration tests in leaky_bench; here the quick variants of
        // every registered sweep must be bit-identical at jobs 1 vs 4.
        let reg = standard_registry();
        for exp in reg.iter() {
            let a = run_experiment(exp, true, 1);
            let b = run_experiment(exp, true, 4);
            assert_eq!(a.cells.len(), b.cells.len(), "{}", exp.name());
            for (x, y) in a.cells.iter().zip(&b.cells) {
                assert_eq!(x, y, "{} diverged at jobs 4", exp.name());
            }
            assert_eq!(a.summaries.len(), b.summaries.len());
            for (x, y) in a.summaries.iter().zip(&b.summaries) {
                assert_eq!(x, y, "{} summary diverged", exp.name());
            }
        }
    }
}
