//! Defense evaluation (paper §XII): what actually stops the frontend
//! attacks?
//!
//! The paper argues that (a) disabling SMT kills the MT attacks but not the
//! non-MT ones, (b) the existing DSB/LSD partitioning does *not* stop the
//! attacks, and (c) only making all frontend paths time-identical removes
//! the channel — at the cost of the multi-path design's entire benefit.
//! These tests demonstrate all three claims against the simulator.

use leaky_frontends_repro::attacks::channels::non_mt::NonMtKind;
use leaky_frontends_repro::attacks::channels::ChannelSpec;
use leaky_frontends_repro::attacks::params::MessagePattern;
use leaky_frontends_repro::cpu::ProcessorModel;
use leaky_frontends_repro::frontend::{CostModel, FrontendConfig, SmtDsbPolicy};
use leaky_frontends_repro::stats::threshold::CalibrationError;

#[test]
fn disabling_smt_stops_mt_but_not_non_mt_attacks() {
    // §XII: "the SMT can always be disabled ... which would eliminate the
    // MT attacks. Even with SMT disabled, the non-MT attacks are possible."
    let no_smt = ProcessorModel::xeon_e2288g();
    assert!(ChannelSpec::new("mt-eviction")
        .model(no_smt)
        .seed(1)
        .build()
        .is_err());

    let mut non_mt = ChannelSpec::new("non-mt-fast-eviction")
        .model(no_smt)
        .seed(1)
        .build()
        .unwrap();
    let run = non_mt.transmit(&MessagePattern::Alternating.generate(48, 0));
    assert!(
        run.error_rate() < 0.05,
        "non-MT attack must survive SMT-off"
    );
}

#[test]
fn set_partitioning_does_not_stop_the_mt_channel() {
    // §I: "the already partitioned DSB and LSB in Intel processors do not
    // provide a full protection as all our attacks work despite the
    // partitioning." Under the strict set-partitioned policy the partition
    // *transition* (activity detection) still carries the bit.
    let config = FrontendConfig {
        dsb_policy: SmtDsbPolicy::SetPartitioned,
        ..FrontendConfig::default()
    };
    let mut ch = ChannelSpec::new("mt-eviction")
        .model(ProcessorModel::gold_6226())
        .frontend_config(config)
        .seed(3)
        .build()
        .unwrap();
    let run = ch.transmit(&MessagePattern::Alternating.generate(48, 0));
    assert!(
        run.error_rate() < 0.30,
        "set partitioning must not stop the channel ({:.1}% error)",
        run.error_rate() * 100.0
    );
}

#[test]
fn constant_time_frontend_kills_the_non_mt_channels() {
    // §XII: equalising the paths removes the signal. The attacker either
    // fails to calibrate (identical class means) or decodes noise.
    for kind in [NonMtKind::Eviction, NonMtKind::Misalignment] {
        let config = FrontendConfig {
            costs: CostModel::constant_time(),
            ..FrontendConfig::default()
        };
        // The stealthier variant: equal dummy work.
        let mut ch = ChannelSpec::new(format!("non-mt-stealthy-{kind}"))
            .model(ProcessorModel::xeon_e2288g())
            .frontend_config(config)
            .seed(5)
            .build()
            .unwrap();
        match ch.try_calibrate() {
            Err(CalibrationError::DegenerateClasses) => {} // perfect defense
            Err(CalibrationError::EmptyClass) => panic!("harness bug"),
            Ok(()) => {
                // Timer noise may still produce a spurious "threshold";
                // the decoded message must then be garbage (~50% error).
                let msg = MessagePattern::Random.generate(64, 9);
                let run = ch.transmit(&msg);
                assert!(
                    run.error_rate() > 0.25,
                    "constant-time frontend leaked {kind}: {:.1}% error",
                    run.error_rate() * 100.0
                );
            }
        }
    }
}

#[test]
fn constant_time_frontend_sacrifices_the_performance_benefit() {
    // §XII's flip side: "Eliminating these timing or power signatures would
    // reduce the performance or power benefits." A DSB-resident loop on the
    // constant-time frontend is slower than on the real one.
    use leaky_frontends_repro::frontend::{Frontend, ThreadId};
    use leaky_frontends_repro::isa::{same_set_chain, Alignment, DsbSet};
    let chain = same_set_chain(0x0041_8000, DsbSet::new(0), 8, Alignment::Aligned);
    let mut fast = Frontend::new(FrontendConfig {
        lsd_enabled: false,
        ..FrontendConfig::default()
    });
    let mut defended = Frontend::new(FrontendConfig {
        lsd_enabled: false,
        costs: CostModel::constant_time(),
        ..FrontendConfig::default()
    });
    for _ in 0..4 {
        fast.run_iteration(ThreadId::T0, &chain);
        defended.run_iteration(ThreadId::T0, &chain);
    }
    let r_fast = fast.run_iteration(ThreadId::T0, &chain);
    let r_def = defended.run_iteration(ThreadId::T0, &chain);
    assert!(
        r_def.cycles > r_fast.cycles * 1.5,
        "defense must cost DSB throughput ({:.1} vs {:.1})",
        r_def.cycles,
        r_fast.cycles
    );
}
