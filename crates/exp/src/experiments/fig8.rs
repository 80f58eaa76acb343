//! Figure 8: MT eviction channel vs receiver way number `d` (spec
//! behind the `fig8_d_sweep` binary). Channels come from the registry
//! with a per-cell `d` parameter override.

use super::{machine, profile};
use crate::grid::{JobCell, ParamGrid};
use crate::runner::{CellMeasurement, Experiment, Metric};
use leaky_frontends::channels::ChannelSpec;
use leaky_frontends::params::{ChannelParams, MessagePattern};
use leaky_trace::{TraceHook, TraceMode};

/// The three SMT machines the legacy binary sweeps, in its order.
pub const MACHINES: [&str; 3] = ["Gold 6226", "Xeon E-2174G", "Xeon E-2286G"];

/// Receiver way numbers swept (paper Fig. 8's x-axis).
pub const D_RANGE: std::ops::RangeInclusive<i64> = 1..=8;

/// Fig. 8 sweep: machine × d.
pub struct Fig8DSweep;

impl Experiment for Fig8DSweep {
    fn name(&self) -> &'static str {
        "fig8_d_sweep"
    }

    fn title(&self) -> &'static str {
        "Figure 8: MT Eviction-Based channel vs receiver way number d"
    }

    fn grid(&self, quick: bool) -> ParamGrid {
        ParamGrid::new(self.name())
            .axis_strs("profile", [profile(quick)])
            .axis_strs("machine", MACHINES)
            .axis_ints("d", D_RANGE)
    }

    fn run_cell(&self, cell: &JobCell) -> Option<CellMeasurement> {
        self.run_cell_traced(cell, TraceMode::Off)
    }

    fn run_cell_traced(&self, cell: &JobCell, trace: TraceMode) -> Option<CellMeasurement> {
        let bits = if cell.str("profile") == "quick" {
            16
        } else {
            96
        };
        let d = cell.int("d") as usize;
        // Legacy seed schedule (1000 + d), pinned by the pre-migration
        // binary; all three machines are SMT-capable, so `expect` holds.
        let mut ch = ChannelSpec::new("mt-eviction")
            .model(machine(cell.str("machine")))
            .params(ChannelParams::mt_defaults().with_d(d))
            .seed(1000 + d as u64)
            .build()
            .expect("SMT machine");
        ch.set_trace(TraceHook::new(trace));
        let run = ch.transmit(&MessagePattern::Alternating.generate(bits, 0));
        Some(
            CellMeasurement::with_provenance(
                vec![
                    Metric::new("rate_kbps", run.rate_kbps()),
                    Metric::new("error_rate", run.error_rate()),
                    Metric::new("effective_kbps", run.effective_rate_kbps()),
                    Metric::new("capacity_kbps", run.capacity_kbps()),
                ],
                run.provenance().cloned(),
            )
            .with_telemetry(ch.take_trace().into_telemetry()),
        )
    }
}
