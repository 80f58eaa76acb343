//! Public-API smoke test (CI gate): every channel-registry entry builds
//! under every microarchitecture profile and round-trips one coded byte
//! through a `Session` — the whole redesigned surface (registry → spec →
//! trait object → coded session) in one sweep. A profile that defeats a
//! channel (failed calibration) is a valid outcome, not a failure; the
//! quiet `skylake` timing channels must additionally deliver the byte
//! intact. Every entry must also trace the same way: a traced twin at
//! the same seed transmits identically and reports one calibration and
//! every decoded bit.

use leaky_frontends_repro::attacks::channels::{ChannelSpec, REGISTRY};
use leaky_frontends_repro::attacks::coding::Repetition;
use leaky_frontends_repro::attacks::session::Session;
use leaky_frontends_repro::cpu::ProcessorModel;
use leaky_frontends_repro::trace::{TraceHook, TraceMode};
use leaky_frontends_repro::uarch::UarchProfile;

#[test]
fn every_registry_entry_builds_and_round_trips_one_coded_byte() {
    let payload = [0xa5u8];
    for profile in UarchProfile::all() {
        for info in &REGISTRY {
            let label = format!("{} on {}", info.name, profile.key);
            // Each family's paper-preferred machine: the MT and power
            // evaluations run on the Gold 6226, the same-thread timing
            // channels on the E-2288G (Table III's non-MT reference).
            let model = if info.requires_smt || info.section == "VII" {
                ProcessorModel::gold_6226()
            } else {
                ProcessorModel::xeon_e2288g()
            };
            let spec = ChannelSpec::new(info.name)
                .model(model)
                .profile(profile)
                .seed(7);
            let mut ch = spec
                .build()
                .unwrap_or_else(|e| panic!("{label}: build failed: {e}"));
            assert_eq!(ch.name(), info.name, "{label}");
            assert_eq!(ch.profile_key(), profile.key, "{label}");
            if ch.try_calibrate().is_err() {
                // A dead channel is the §XII defense succeeding; only the
                // cost-equalized profile may do that.
                assert_eq!(
                    profile.key, "constant_time",
                    "{label}: unexpectedly uncalibratable"
                );
                continue;
            }
            let run = Session::new(ch.as_mut(), Repetition::new(3)).send_bytes(&payload);
            // Framing: 16 header bits + 8 payload bits, tripled.
            assert_eq!(run.raw().sent().len(), 72, "{label}");
            let got = run
                .payload()
                .unwrap_or_else(|| panic!("{label}: no payload"));
            assert!(got.len() <= 1, "{label}: frame decoded too long");
            // The quiet same-thread timing channels on the default profile
            // must deliver the byte intact; MT and power channels carry
            // environmental noise (and perturbed profiles weaker signals),
            // so recovery there is best-effort.
            let quiet = !info.requires_smt && info.section != "VII";
            if quiet && profile.key == "skylake" {
                assert_eq!(got, payload, "{label}: payload corrupted");
                assert_eq!(run.data().error_rate(), 0.0, "{label}");
            }
            // The traced twin: tracing observes, it never steers.
            let mut traced = spec.build().expect("built above");
            traced.set_trace(TraceHook::new(TraceMode::Summary));
            traced.try_calibrate().expect("calibrated above");
            let traced_run = Session::new(traced.as_mut(), Repetition::new(3)).send_bytes(&payload);
            assert_eq!(traced_run, run, "{label}: tracing changed the run");
            let summary = traced
                .take_trace()
                .summary()
                .unwrap_or_else(|| panic!("{label}: no telemetry"));
            assert_eq!(summary.calibrations, 1, "{label}");
            assert_eq!(summary.bits, 72, "{label}");
        }
    }
}
