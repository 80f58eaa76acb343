//! The covert-channel zoo: run every timing and power channel the paper
//! demonstrates, on its preferred machine, and compare.
//!
//! Covers §V-A..§V-E and §VII: eviction- and misalignment-based channels
//! (non-MT stealthy/fast and MT), the LCP slow-switch channel, and the two
//! RAPL power channels.
//!
//! Run with: `cargo run --release --example covert_channel_zoo`

use leaky_frontends_repro::attacks::channels::ChannelSpec;
use leaky_frontends_repro::attacks::params::{EncodeMode, MessagePattern};
use leaky_frontends_repro::attacks::run::ChannelRun;
use leaky_frontends_repro::cpu::ProcessorModel;

fn report(name: &str, run: &ChannelRun) {
    println!(
        "{name:<42} {:>10.2} Kbps {:>7.2}% error",
        run.rate_kbps(),
        run.error_rate() * 100.0
    );
}

fn main() {
    let msg = MessagePattern::Alternating.generate(96, 0);
    let power_msg = MessagePattern::Alternating.generate(24, 0);
    println!(
        "channel                                          rate          error\n{}",
        "-".repeat(72)
    );

    // Every channel at its registry default parameters, seed 7.
    let run = |name: &str, model: ProcessorModel, msg: &[bool]| {
        ChannelSpec::new(name)
            .model(model)
            .seed(7)
            .build()
            .expect("registered channel on a supporting machine")
            .transmit(msg)
    };

    for kind in ["eviction", "misalignment"] {
        for mode in [EncodeMode::Stealthy, EncodeMode::Fast] {
            let name = format!("non-mt-{mode}-{kind}");
            report(
                &format!("non-MT {mode} {kind} (E-2288G)"),
                &run(&name, ProcessorModel::xeon_e2288g(), &msg),
            );
        }
    }

    for kind in ["eviction", "misalignment"] {
        let name = format!("mt-{kind}");
        report(
            &format!("MT {kind} (Gold 6226)"),
            &run(&name, ProcessorModel::gold_6226(), &msg),
        );
    }

    report(
        "non-MT slow-switch / LCP (E-2288G)",
        &run("slow-switch", ProcessorModel::xeon_e2288g(), &msg),
    );

    for kind in ["eviction", "misalignment"] {
        let name = format!("power-{kind}");
        report(
            &format!("non-MT power {kind} via RAPL (Gold 6226)"),
            &run(&name, ProcessorModel::gold_6226(), &power_msg),
        );
    }

    println!("\nObservations (paper §VI-§VII):");
    println!(" * non-MT channels reach Mbps-class rates; MT channels are ~10x slower;");
    println!(" * fast variants beat stealthy ones; power channels sit near 0.5 Kbps,");
    println!("   capped by RAPL's ~20 kHz update interval.");
}
