//! Table VII: Spectre v1 L1 miss rates per disclosure channel (spec
//! behind the `tab7_spectre_miss_rates` binary).

use super::profile;
use crate::grid::{JobCell, ParamGrid};
use crate::runner::{CellMeasurement, Experiment, Metric};
use leaky_spectre::{ChannelKind, SpectreV1};

/// Legacy seed pinned by the pre-migration binary.
const SEED: u64 = 2024;

/// Table VII sweep: one cell per disclosure channel; each cell runs the
/// full Spectre v1 attack and reports cache-footprint metrics. The
/// legacy binary's `table7()` loop is embarrassingly parallel — every
/// attack owns its core, victim, and RNG — so cells are independent.
pub struct Tab7SpectreMissRates;

/// The legacy binary's secret: 5-bit chunks `(i·7 + 3) mod 32`.
fn secret(chunks: usize) -> Vec<u8> {
    (0..chunks as u8).map(|i| (i * 7 + 3) % 32).collect()
}

impl Experiment for Tab7SpectreMissRates {
    fn name(&self) -> &'static str {
        "tab7_spectre_miss_rates"
    }

    fn title(&self) -> &'static str {
        "Table VII: Spectre v1 L1 miss rates by disclosure channel (Gold 6226)"
    }

    fn grid(&self, quick: bool) -> ParamGrid {
        ParamGrid::new(self.name())
            .axis_strs("profile", [profile(quick)])
            .axis_strs("channel", ChannelKind::all().map(ChannelKind::label))
    }

    fn run_cell(&self, cell: &JobCell) -> Option<CellMeasurement> {
        let chunks = if cell.str("profile") == "quick" {
            6
        } else {
            24
        };
        let kind = ChannelKind::all()
            .into_iter()
            .find(|k| k.label() == cell.str("channel"))
            .unwrap_or_else(|| panic!("unknown channel {:?}", cell.str("channel")));
        let mut attack = SpectreV1::new(kind, secret(chunks), SEED);
        let result = attack.leak();
        Some(
            vec![
                Metric::new("l1_miss_rate", result.l1_miss_rate()),
                Metric::new("accuracy", result.accuracy()),
                Metric::new("l1i_misses", result.l1i_misses as f64),
                Metric::new("l1d_misses", result.l1d_misses as f64),
            ]
            .into(),
        )
    }
}
