//! Property test: no geometry a profile file can carry makes a channel
//! panic. Random geometries that survive `encode_profile` →
//! `parse_profile` go through every `REGISTRY` channel's
//! `ChannelSpec::build` and, when that succeeds, one `try_calibrate`.
//! Each build is `Ok` or a `BuildError` (an unsupported geometry, a §V
//! parameter or DSB-set violation, a missing SMT sibling); nothing may
//! panic on the way.
//!
//! Most cases draw every field from a Table-I-scale range, so builds
//! succeed often enough to reach calibration. In four cases out of
//! five one field is instead any `u32` (zero included, which the parser
//! rejects), which probes the bounds `check_geometry` enforces.

use leaky_frontends::{ChannelSpec, REGISTRY};
use leaky_isa::FrontendGeometry;
use leaky_scenario::{encode_profile, parse_profile};
use leaky_uarch::UarchProfile;
use proptest::collection::vec;
use proptest::prelude::*;

/// A draw from field `field`'s Table-I-scale range (the DSB set count
/// includes 1..=19, where the channel layouts' sets 3 and 19 are
/// missing).
fn tame(field: usize, raw: u32) -> usize {
    let raw = raw as usize;
    match field {
        0 => 1 + raw % 64,     // dsb_sets
        4 => 1 + raw % 128,    // lsd_uops
        6 => 1 + raw % 128,    // l1i_sets
        8 => 1 << (raw % 8),   // l1i_line_bytes
        2 | 9 => 1 + raw % 64, // dsb_window_bytes, iq_entries
        _ => 1 + raw % 16,
    }
}

fn geometry(fields: &[usize]) -> FrontendGeometry {
    FrontendGeometry {
        dsb_sets: fields[0],
        dsb_ways: fields[1],
        dsb_window_bytes: fields[2],
        dsb_line_uops: fields[3],
        lsd_uops: fields[4],
        lsd_windows: fields[5],
        l1i_sets: fields[6],
        l1i_ways: fields[7],
        l1i_line_bytes: fields[8],
        iq_entries: fields[9],
        decode_width: fields[10],
        idq_delivery_width: fields[11],
    }
}

proptest! {
    #[test]
    fn parsed_geometries_build_or_error_and_never_panic(
        raws in vec(any::<u32>(), 12..13),
        wild in 0usize..15,
        wild_value in any::<u32>(),
    ) {
        let mut fields: Vec<usize> = raws.iter().enumerate().map(|(i, &r)| tame(i, r)).collect();
        if let Some(field) = fields.get_mut(wild) {
            *field = wild_value as usize;
        }
        let profile = UarchProfile {
            key: "generated",
            geometry: geometry(&fields),
            ..UarchProfile::skylake()
        };
        let parsed = parse_profile(&encode_profile(&profile));
        prop_assume!(parsed.is_ok());
        let parsed = parsed.expect("assumed");
        prop_assert_eq!(parsed.geometry, profile.geometry);
        for info in &REGISTRY {
            if let Ok(mut channel) = ChannelSpec::new(info.name).profile(parsed).build() {
                // Either verdict is fine: a geometry may leave no signal.
                let _ = channel.try_calibrate();
            }
        }
    }
}
