//! End-to-end covert-channel integration tests spanning the whole stack:
//! ISA layout → frontend simulation → core timing → channel protocol →
//! threshold decoding (paper §V-§VII).

use leaky_frontends_repro::attacks::channels::non_mt::NonMtKind;
use leaky_frontends_repro::attacks::channels::{ChannelSpec, CovertChannel};
use leaky_frontends_repro::attacks::params::{
    bits_to_bytes, bytes_to_bits, EncodeMode, MessagePattern,
};
use leaky_frontends_repro::cpu::ProcessorModel;

/// A registered channel at its default §V parameters.
fn channel(name: &str, model: ProcessorModel, seed: u64) -> Box<dyn CovertChannel> {
    ChannelSpec::new(name)
        .model(model)
        .seed(seed)
        .build()
        .expect("registered channel on a supporting machine")
}

#[test]
fn every_non_mt_variant_works_on_every_machine() {
    let msg = MessagePattern::Alternating.generate(64, 0);
    for model in ProcessorModel::all() {
        for kind in [NonMtKind::Eviction, NonMtKind::Misalignment] {
            for mode in [EncodeMode::Stealthy, EncodeMode::Fast] {
                let mut ch = channel(&format!("non-mt-{mode}-{kind}"), model, 5);
                let run = ch.transmit(&msg);
                assert!(
                    run.error_rate() < 0.30,
                    "{} {kind} {mode}: error {:.1}%",
                    model.name,
                    run.error_rate() * 100.0
                );
                assert!(
                    run.rate_kbps() > 100.0,
                    "{} {kind} {mode}: rate {:.1} Kbps",
                    model.name,
                    run.rate_kbps()
                );
            }
        }
    }
}

#[test]
fn ascii_text_survives_the_fastest_channel() {
    let mut ch = channel("non-mt-fast-misalignment", ProcessorModel::xeon_e2288g(), 9);
    let text = b"attack at dawn";
    let run = ch.transmit(&bytes_to_bits(text));
    assert_eq!(bits_to_bytes(run.received()), text);
}

#[test]
fn mt_channels_work_on_smt_machines_and_not_on_2288g() {
    let msg = MessagePattern::Alternating.generate(48, 0);
    for model in [
        ProcessorModel::gold_6226(),
        ProcessorModel::xeon_e2174g(),
        ProcessorModel::xeon_e2286g(),
    ] {
        for name in ["mt-eviction", "mt-misalignment"] {
            let mut ch = channel(name, model, 5);
            let run = ch.transmit(&msg);
            assert!(
                run.error_rate() < 0.30,
                "{} {name}: {:.1}%",
                model.name,
                run.error_rate() * 100.0
            );
        }
    }
    assert!(ChannelSpec::new("mt-eviction")
        .model(ProcessorModel::xeon_e2288g())
        .seed(5)
        .build()
        .is_err());
}

#[test]
fn non_mt_is_roughly_an_order_faster_than_mt() {
    // Table III's central comparison.
    let msg = MessagePattern::Alternating.generate(64, 0);
    let mut non_mt = channel("non-mt-fast-eviction", ProcessorModel::gold_6226(), 5);
    let mut mt = channel("mt-eviction", ProcessorModel::gold_6226(), 5);
    let r_non_mt = non_mt.transmit(&msg);
    let r_mt = mt.transmit(&msg);
    let ratio = r_non_mt.rate_kbps() / r_mt.rate_kbps();
    assert!(
        ratio > 3.0,
        "non-MT {:.0} Kbps vs MT {:.0} Kbps (ratio {ratio:.1})",
        r_non_mt.rate_kbps(),
        r_mt.rate_kbps()
    );
}

#[test]
fn slow_switch_matches_table4_regime() {
    let msg = MessagePattern::Alternating.generate(96, 0);
    for (model, max_err) in [
        (ProcessorModel::gold_6226(), 0.15),
        (ProcessorModel::xeon_e2288g(), 0.05),
    ] {
        let mut ch = channel("slow-switch", model, 5);
        let run = ch.transmit(&msg);
        assert!(
            run.error_rate() <= max_err,
            "{}: {:.1}%",
            model.name,
            run.error_rate() * 100.0
        );
        assert!(
            run.rate_kbps() > 200.0 && run.rate_kbps() < 3000.0,
            "{}: {:.0} Kbps",
            model.name,
            run.rate_kbps()
        );
    }
}

#[test]
fn power_channels_are_rapl_limited() {
    // Table V: three orders of magnitude below the timing channels.
    let msg = MessagePattern::Alternating.generate(16, 0);
    let mut ch = channel("power-eviction", ProcessorModel::gold_6226(), 5);
    let run = ch.transmit(&msg);
    assert!(run.rate_kbps() < 5.0);
    assert!(run.rate_kbps() > 0.05);
    assert!(run.error_rate() < 0.4);
}

#[test]
fn rates_scale_with_clock_frequency() {
    // Identical protocol, different clocks: the 4.0 GHz E-2286G must beat
    // the 2.7 GHz Gold 6226 in absolute rate.
    let msg = MessagePattern::Alternating.generate(64, 0);
    let rate = |model| {
        channel("non-mt-fast-eviction", model, 5)
            .transmit(&msg)
            .rate_kbps()
    };
    assert!(rate(ProcessorModel::xeon_e2286g()) > rate(ProcessorModel::gold_6226()));
}

#[test]
fn transmissions_are_reproducible_by_seed() {
    let msg = MessagePattern::Random.generate(48, 3);
    let run = |seed| {
        let r = channel("non-mt-fast-eviction", ProcessorModel::gold_6226(), seed).transmit(&msg);
        (r.received().to_vec(), r.cycles())
    };
    assert_eq!(run(77), run(77));
    // Different seeds may still transmit in identical time when no
    // resampling triggers; only bit-exact reproducibility is guaranteed.
}
