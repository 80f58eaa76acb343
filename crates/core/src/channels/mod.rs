//! Covert-channel implementations (paper §V, §VII).
//!
//! All channels share the three-step Init/Encode/Decode structure, run
//! by the one [`driver::Driver`], and the same code layout discipline:
//! receiver and sender occupy disjoint virtual address regions whose
//! instruction mix blocks collide in one chosen DSB set (Fig. 3).

pub mod driver;
pub mod mt;
pub mod non_mt;
pub mod power;
pub mod registry;
pub mod slow_switch;

use leaky_isa::{Alignment, BlockChain, CodeRegion, DsbSet, FrontendGeometry};
use leaky_stats::threshold::CalibrationError;
use leaky_stats::{ThresholdDecoder, ThresholdDecoderBuilder};

use crate::channels::non_mt::NonMtKind;
use crate::params::{ChannelParams, ParamsError};
use crate::run::ChannelRun;

pub use registry::{channel_info, channel_names, BuildError, ChannelInfo, ChannelSpec, REGISTRY};

/// The uniform surface every §V/§VII covert channel presents: the
/// Init/Encode/Decode protocol behind one object-safe trait, so sweeps,
/// CLIs and tests can hold a `Box<dyn CovertChannel>` built from a
/// [`ChannelSpec`] instead of matching on concrete types.
///
/// Implemented once, by [`driver::Driver`], so every channel — the
/// registry's and the §VIII SGX channels in [`crate::sgx`] — calibrates,
/// decodes and traces the same way; the concrete constructors
/// ([`non_mt::NonMtChannel::new`], …) remain available as thin shims.
pub trait CovertChannel: std::fmt::Debug {
    /// The channel's stable registry name (e.g. `"mt-eviction"`; see
    /// [`registry::REGISTRY`]).
    fn name(&self) -> &'static str;

    /// Registry key of the microarchitecture profile the channel was
    /// built under (`"custom"` after a frontend-config override).
    fn profile_key(&self) -> &'static str;

    /// The §V parameters the channel was built with.
    fn params(&self) -> ChannelParams;

    /// Attempts threshold calibration, reporting failure instead of
    /// panicking: a hardened frontend may present no timing difference
    /// between the bit classes, which is the §XII defense succeeding
    /// rather than a harness error. Idempotent once calibrated.
    fn try_calibrate(&mut self) -> Result<(), CalibrationError>;

    /// Transmits a message, calibrating first if necessary (calibration
    /// is excluded from the reported rate, matching §VI methodology).
    ///
    /// # Panics
    ///
    /// Panics if calibration finds indistinguishable bit classes; use
    /// [`CovertChannel::try_calibrate`] first to observe that outcome.
    fn transmit(&mut self, message: &[bool]) -> ChannelRun;

    /// Debug hook: one raw per-bit measurement (cycles or watts,
    /// whatever the channel's receiver observes), exposed for
    /// diagnostics and `perf_report`'s per-bit metrics.
    fn debug_measure(&mut self, bit: bool) -> f64;

    /// Installs a trace hook (DESIGN.md §12); behavior-free. The hook
    /// reaches the channel's simulated `Frontend` and also receives the
    /// driver's calibration and per-bit decode events.
    fn set_trace(&mut self, hook: leaky_trace::TraceHook);

    /// Detaches the trace hook installed by
    /// [`CovertChannel::set_trace`], leaving tracing off.
    fn take_trace(&mut self) -> leaky_trace::TraceHook;
}

/// Virtual-address region bases for the two parties (arbitrary, disjoint;
/// receiver base mirrors the paper's Fig. 3 example addresses).
pub(crate) const RECEIVER_REGION: u64 = 0x0041_8000;
pub(crate) const SENDER_REGION: u64 = 0x0082_0000;
pub(crate) const SENDER_ALT_REGION: u64 = 0x00c3_0000;

/// The DSB set all channel layouts collide in (`x` in the paper's attack
/// descriptions) and the decoy set used by stealthy zero-encoding (`y`).
pub(crate) const SET_X: u8 = 3;
pub(crate) const SET_Y: u8 = 19;

/// Whether [`layout`] can lay out a `kind` channel with `params` under
/// `geom`: the §V constraints ([`ChannelParams::validate`]) hold, and the
/// geometry has the DSB sets the layout collides in (`SET_X`, plus the
/// eviction decoy set `SET_Y`).
pub(crate) fn check_layout(
    kind: NonMtKind,
    params: &ChannelParams,
    geom: &FrontendGeometry,
) -> Result<(), ParamsError> {
    let misaligned = kind == NonMtKind::Misalignment;
    params.validate(geom.dsb_ways, misaligned)?;
    let set = if misaligned { SET_X } else { SET_X.max(SET_Y) };
    if usize::from(set) >= geom.dsb_sets {
        return Err(ParamsError::DsbSet {
            set,
            sets: geom.dsb_sets,
        });
    }
    Ok(())
}

/// The code layout of a §V channel, `(recv, one, zero)`: the receiver
/// holds `d` aligned blocks of set `x`.
///
/// * Eviction (§V-A/§V-C): the 1-encoding accesses `N + 1 − d` aligned
///   blocks of set `x`; the stealthy 0-encoding accesses the same number
///   of blocks mapping to set `y`.
/// * Misalignment (§V-B/§V-D): the 1-encoding accesses `M − d`
///   *misaligned* blocks of set `x`; the stealthy 0-encoding accesses
///   `M − d` aligned blocks of set `x` (same work, no collision).
///
/// # Panics
///
/// Panics if [`check_layout`] rejects the layout. A channel built through
/// the registry never gets here, as `ChannelSpec::build` checks first.
pub(crate) fn layout(
    kind: NonMtKind,
    params: &ChannelParams,
    geom: &FrontendGeometry,
) -> (BlockChain, BlockChain, BlockChain) {
    if let Err(err) = check_layout(kind, params, geom) {
        panic!("invalid channel parameters: {err}");
    }
    let misaligned = kind == NonMtKind::Misalignment;
    let mut recv_region = CodeRegion::with_geometry(RECEIVER_REGION, *geom);
    let mut send_region = CodeRegion::with_geometry(SENDER_REGION, *geom);
    let mut alt_region = CodeRegion::with_geometry(SENDER_ALT_REGION, *geom);
    let x = DsbSet::new(SET_X);
    let recv = recv_region.same_set_chain(x, params.d, Alignment::Aligned);
    let (one, zero) = if misaligned {
        let sender = params.sender_blocks_misalignment();
        (
            send_region.same_set_chain(x, sender, Alignment::Misaligned),
            alt_region.same_set_chain(x, sender, Alignment::Aligned),
        )
    } else {
        let sender = params.sender_blocks_eviction(geom.dsb_ways);
        (
            send_region.same_set_chain(x, sender, Alignment::Aligned),
            alt_region.same_set_chain(DsbSet::new(SET_Y), sender, Alignment::Aligned),
        )
    };
    (recv, one, zero)
}

/// Calibrates a threshold decoder by transmitting a known alternating
/// pattern and averaging the 0-bit and 1-bit measurements (§VI-B),
/// reporting failure when the two classes coincide. This is the single
/// home of the decoder settings (ambiguity band, robust averaging); the
/// [`driver::Driver`] calibrates every channel through it.
pub(crate) fn try_calibrate_decoder(
    mut measure: impl FnMut(bool) -> f64,
    calibration_bits: usize,
) -> Result<ThresholdDecoder, leaky_stats::threshold::CalibrationError> {
    let mut builder = ThresholdDecoderBuilder::new();
    builder.ambiguity_band(0.2).robust(true);
    for i in 0..calibration_bits {
        let bit = i % 2 == 1;
        builder.push(bit, measure(bit));
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use leaky_isa::FrontendGeometry;

    #[test]
    fn eviction_layout_collides_in_set_x() {
        let params = ChannelParams::eviction_defaults();
        let g = FrontendGeometry::skylake();
        let (recv, one, zero) = layout(NonMtKind::Eviction, &params, &g);
        assert_eq!(recv.len(), 6);
        assert_eq!(one.len(), 3);
        assert_eq!(zero.len(), 3);
        for b in recv.blocks().iter().chain(one.blocks()) {
            assert_eq!(b.dsb_set().index(), SET_X);
        }
        for b in zero.blocks() {
            assert_eq!(b.dsb_set().index(), SET_Y);
        }
        // Receiver + 1-sender exceed the ways; receiver + 0-sender do not
        // share a set at all.
        assert!(recv.dsb_lines(&g) + one.dsb_lines(&g) > g.dsb_ways);
    }

    #[test]
    fn misalignment_layout_fits_ways_but_crosses_windows() {
        let params = ChannelParams::misalignment_defaults();
        let g = FrontendGeometry::skylake();
        let (recv, one, zero) = layout(NonMtKind::Misalignment, &params, &g);
        assert_eq!(recv.len(), 5);
        assert_eq!(one.misaligned_count(), 3);
        assert_eq!(zero.misaligned_count(), 0);
        // Head lines in set x: 5 + 3 = 8 ≤ ways — no eviction, only LSD
        // window-tracking collisions.
        assert!(recv.len() + one.len() <= g.dsb_ways);
    }

    #[test]
    fn regions_are_disjoint() {
        let params = ChannelParams::eviction_defaults();
        let (recv, one, _) = layout(NonMtKind::Eviction, &params, &FrontendGeometry::skylake());
        let recv_end = recv.blocks().last().unwrap().end().value();
        let send_start = one.blocks()[0].base().value();
        assert!(recv_end <= send_start);
    }

    #[test]
    fn calibration_learns_polarity() {
        // Synthetic measurements: 1 → ~50, 0 → ~100 (inverted polarity).
        let mut i = 0usize;
        let decoder = try_calibrate_decoder(
            |bit| {
                i += 1;
                if bit {
                    50.0 + (i % 3) as f64
                } else {
                    100.0 - (i % 3) as f64
                }
            },
            16,
        )
        .expect("the classes are well separated");
        assert!(decoder.decode(52.0));
        assert!(!decoder.decode(97.0));
    }
}
