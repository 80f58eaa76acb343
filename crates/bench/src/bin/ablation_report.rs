//! Behavioural ablations of the simulator's design choices (DESIGN.md §2):
//! what happens to the headline attacks when each mechanism is changed?
//!
//! * SMT DSB sharing policy (Competitive / SetPartitioned / Shared) vs the
//!   MT eviction channel;
//! * the partition-transition flush vs the MT channel;
//! * LSD warm-up length vs the non-MT fast channels;
//! * window-crossing penalty vs the misalignment channel;
//! * the §XII constant-time defense vs everything.

use leaky_bench::table::fmt;
use leaky_cpu::ProcessorModel;
use leaky_frontend::{CostModel, FrontendConfig, SmtDsbPolicy};
use leaky_frontends::channels::non_mt::NonMtKind;
use leaky_frontends::channels::ChannelSpec;
use leaky_frontends::params::{EncodeMode, MessagePattern};

const BITS: usize = 64;

/// Builds a registered timing channel with its frontend replaced by
/// `config` (the ChannelSpec ablation hook) and transmits the standard
/// message; a channel whose calibration finds no class separation
/// reports `(0, 0.5)` — dead.
fn with_config(channel: &str, model: ProcessorModel, config: FrontendConfig) -> (f64, f64) {
    let mut ch = ChannelSpec::new(channel)
        .model(model)
        .seed(4)
        .frontend_config(config)
        .build()
        .expect("registered timing channel");
    match ch.try_transmit(&MessagePattern::Alternating.generate(BITS, 0)) {
        Ok(run) => (run.rate_kbps(), run.error_rate()),
        Err(_) => (0.0, 0.5), // uncalibratable: channel dead
    }
}

fn mt_with(config: FrontendConfig) -> (f64, f64) {
    with_config("mt-eviction", ProcessorModel::gold_6226(), config)
}

fn non_mt_with(kind: NonMtKind, mode: EncodeMode, config: FrontendConfig) -> (f64, f64) {
    with_config(
        &format!("non-mt-{mode}-{kind}"),
        ProcessorModel::xeon_e2288g(),
        config,
    )
}

fn main() {
    println!("Ablation report: attack viability under model variations\n");

    println!("-- SMT DSB sharing policy vs MT eviction channel (Gold 6226) --");
    for policy in [
        SmtDsbPolicy::Competitive,
        SmtDsbPolicy::SetPartitioned,
        SmtDsbPolicy::Shared,
    ] {
        for flush in [true, false] {
            let (rate, err) = mt_with(FrontendConfig {
                dsb_policy: policy,
                flush_on_partition: flush,
                ..FrontendConfig::default()
            });
            println!(
                "  {policy:?} (partition flush {}): {} Kbps, {}% error",
                if flush { "on" } else { "off" },
                fmt(rate, 1),
                fmt(err * 100.0, 1)
            );
        }
    }
    println!("  -> the channel survives every sharing discipline (§I: partitioning alone");
    println!("     is not a defense); only the transition-flush strength shifts the rate.\n");

    println!("-- LSD warm-up length vs non-MT fast eviction (E-2288G) --");
    for warmup in [1u32, 3, 8, 32] {
        let (rate, err) = non_mt_with(
            NonMtKind::Eviction,
            EncodeMode::Fast,
            FrontendConfig {
                lsd_warmup_iterations: warmup,
                ..FrontendConfig::default()
            },
        );
        println!(
            "  warmup {warmup:>2}: {} Kbps, {}% error",
            fmt(rate, 1),
            fmt(err * 100.0, 1)
        );
    }
    println!("  -> the eviction signal is robust to how eagerly the LSD locks.\n");

    // The *stealthy* variant does identical work for both bits; only the
    // alignment differs, so it isolates the split-fetch effect.
    println!("-- window-crossing penalty vs non-MT STEALTHY misalignment (E-2288G) --");
    for penalty in [0.0f64, 1.5, 4.5, 9.0] {
        let mut config = FrontendConfig::default();
        config.costs.window_crossing_penalty = penalty;
        let (rate, err) = non_mt_with(NonMtKind::Misalignment, EncodeMode::Stealthy, config);
        if rate == 0.0 {
            println!("  penalty {penalty:>4}: channel DEAD (no timing difference)");
        } else {
            println!(
                "  penalty {penalty:>4}: {} Kbps, {}% error",
                fmt(rate, 1),
                fmt(err * 100.0, 1)
            );
        }
    }
    println!("  -> the stealthy misalignment signal shrinks with the split-fetch cost:");
    println!("     the §V-D channel rides on window-crossing overhead.\n");

    println!("-- §XII constant-time frontend vs the non-MT channels (E-2288G) --");
    for mode in [EncodeMode::Stealthy, EncodeMode::Fast] {
        for kind in [NonMtKind::Eviction, NonMtKind::Misalignment] {
            let (rate, err) = non_mt_with(
                kind,
                mode,
                FrontendConfig {
                    costs: CostModel::constant_time(),
                    ..FrontendConfig::default()
                },
            );
            if rate == 0.0 || err > 0.25 {
                println!("  {mode} {kind}: channel DEAD");
            } else {
                println!(
                    "  {mode} {kind}: still {} Kbps at {}% error",
                    fmt(rate, 1),
                    fmt(err * 100.0, 1)
                );
            }
        }
    }
    println!("  -> equal path timing kills the *stealthy* (equal-work) channels; the fast");
    println!("     variants survive because they modulate the amount of work, not the path —");
    println!("     exactly why §XII says defended code must make total timing secret-independent.");
}
