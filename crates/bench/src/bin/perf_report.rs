//! `perf_report`: the repo's perf-trajectory harness.
//!
//! Times the frontend simulator's hot primitives (one iteration per
//! delivery path, raw DSB operations, long-run steady-state collapse),
//! representative per-bit covert-channel costs and one warm iteration
//! under each model ablation (SMT DSB policy, LSD warm-up length,
//! window-crossing penalty), then emits the results as JSON in the
//! `BENCH_frontend.json` schema. It is the workspace's only
//! micro-benchmark harness.
//!
//! Usage:
//!
//! ```text
//! perf_report                 # print JSON report to stdout
//! perf_report --out FILE      # also write the report to FILE
//! perf_report --check FILE    # compare against a committed baseline;
//!                             # exit 1 if FILE is malformed or any
//!                             # metric regressed more than 3x
//! perf_report --quick         # fewer samples (CI smoke mode)
//! ```

use std::process::ExitCode;

use leaky_bench::perf::{render_report, report_metrics, time_ns_per_op, Metric};
use leaky_codec::json;
use leaky_cpu::ProcessorModel;
use leaky_frontend::{
    Dsb, Frontend, FrontendConfig, LineId, SmtDsbPolicy, ThreadId, TraceHook, TraceMode,
};
use leaky_frontends::channels::non_mt::NonMtKind;
use leaky_frontends::channels::{ChannelSpec, CovertChannel};
use leaky_frontends::params::ChannelParams;
use leaky_frontends::sgx::SgxMtChannel;
use leaky_isa::{same_set_chain, Alignment, Block, BlockChain, DsbSet, FrontendGeometry};
use leaky_stats::error_rate;
use std::hint::black_box;

/// Maximum tolerated slowdown of any metric versus the committed
/// baseline before `--check` fails (generous: CI machines vary).
const MAX_REGRESSION: f64 = 3.0;

/// Tolerated slowdown of the `trace_off_*` metrics — the zero-cost-
/// when-off trace contract: a dormant [`TraceHook`] may cost at most 2%
/// on the hot paths it instruments. Scaled by the same machine factor
/// as everything else. `--quick`'s few samples are too noisy for a 2%
/// gate, so quick checks fall back to [`MAX_REGRESSION`].
const TRACE_OFF_REGRESSION: f64 = 1.02;

struct Budget {
    samples: usize,
    iter_ops: u64,
    raw_ops: u64,
    bit_ops: u64,
}

impl Budget {
    fn new(quick: bool) -> Self {
        if quick {
            Budget {
                samples: 5,
                iter_ops: 2_000,
                raw_ops: 200_000,
                bit_ops: 64,
            }
        } else {
            Budget {
                samples: 9,
                iter_ops: 10_000,
                raw_ops: 1_000_000,
                bit_ops: 256,
            }
        }
    }
}

fn warm_frontend(config: FrontendConfig, chain: &BlockChain) -> Frontend {
    let mut fe = Frontend::new(config);
    for _ in 0..8 {
        fe.run_iteration(ThreadId::T0, chain);
    }
    fe
}

fn measure(budget: &Budget) -> Vec<Metric> {
    let mut metrics = Vec::new();
    let mut push = |name: &str, ns: f64, ops: u64| {
        metrics.push(Metric {
            name: name.to_string(),
            ns_per_op: ns,
            ops_per_sample: ops,
        });
    };

    // One warm LSD-streaming iteration (8 aligned same-set blocks).
    let chain8 = same_set_chain(0x0041_8000, DsbSet::new(0), 8, Alignment::Aligned);
    let mut fe = warm_frontend(FrontendConfig::default(), &chain8);
    let ns = time_ns_per_op(
        budget.iter_ops / 10,
        budget.samples,
        budget.iter_ops,
        || {
            black_box(fe.run_iteration(ThreadId::T0, &chain8));
        },
    );
    push("lsd_iteration", ns, budget.iter_ops);

    // The same warm-LSD iteration with the dormant trace hook
    // explicitly installed: the zero-cost-when-off contract, gated at
    // `TRACE_OFF_REGRESSION` (not `MAX_REGRESSION`) by `--check`.
    let mut fe = warm_frontend(FrontendConfig::default(), &chain8);
    fe.set_trace(TraceHook::new(TraceMode::Off));
    let ns = time_ns_per_op(
        budget.iter_ops / 10,
        budget.samples,
        budget.iter_ops,
        || {
            black_box(fe.run_iteration(ThreadId::T0, &chain8));
        },
    );
    push("trace_off_lsd_iteration", ns, budget.iter_ops);

    // One warm DSB-delivery iteration (LSD disabled).
    let mut fe = warm_frontend(
        FrontendConfig {
            lsd_enabled: false,
            ..FrontendConfig::default()
        },
        &chain8,
    );
    let ns = time_ns_per_op(
        budget.iter_ops / 10,
        budget.samples,
        budget.iter_ops,
        || {
            black_box(fe.run_iteration(ThreadId::T0, &chain8));
        },
    );
    push("dsb_iteration", ns, budget.iter_ops);

    // One MITE-thrashing iteration (9 same-set blocks overflow the ways).
    let chain9 = same_set_chain(0x0041_8000, DsbSet::new(0), 9, Alignment::Aligned);
    let mut fe = warm_frontend(FrontendConfig::default(), &chain9);
    let ns = time_ns_per_op(
        budget.iter_ops / 10,
        budget.samples,
        budget.iter_ops,
        || {
            black_box(fe.run_iteration(ThreadId::T0, &chain9));
        },
    );
    push("mite_iteration", ns, budget.iter_ops);

    // One LCP-block iteration (instruction-granular decode model).
    let lcp = BlockChain::new(vec![Block::lcp_adds(
        leaky_isa::Addr::new(0x10_0000),
        leaky_isa::LcpPattern::Mixed,
        16,
    )]);
    let mut fe = warm_frontend(FrontendConfig::default(), &lcp);
    let ns = time_ns_per_op(
        budget.iter_ops / 10,
        budget.samples,
        budget.iter_ops,
        || {
            black_box(fe.run_iteration(ThreadId::T0, &lcp));
        },
    );
    push("lcp_iteration", ns, budget.iter_ops);

    // Misaligned chain under SMT: streaming-path sibling-crossing
    // bookkeeping plus window-crossing penalties.
    let mis = same_set_chain(0x0082_0000, DsbSet::new(0), 3, Alignment::Misaligned);
    let mut fe = Frontend::new(FrontendConfig::default());
    fe.set_active(ThreadId::T0, true);
    fe.set_active(ThreadId::T1, true);
    for _ in 0..8 {
        fe.run_iteration(ThreadId::T1, &mis);
    }
    let ns = time_ns_per_op(
        budget.iter_ops / 10,
        budget.samples,
        budget.iter_ops,
        || {
            black_box(fe.run_iteration(ThreadId::T1, &mis));
        },
    );
    push("smt_crossing_iteration", ns, budget.iter_ops);

    // Raw DSB primitives.
    let geom = FrontendGeometry::skylake();
    let mut dsb = Dsb::new(geom, SmtDsbPolicy::Competitive);
    let hit_line = LineId {
        thread: 0,
        window: 64,
        chunk: 0,
    };
    dsb.insert(hit_line);
    let ns = time_ns_per_op(budget.raw_ops / 10, budget.samples, budget.raw_ops, || {
        black_box(dsb.lookup(hit_line));
    });
    push("dsb_lookup_hit", ns, budget.raw_ops);

    // Cyclic inserts of 9 same-set lines: every insert misses and evicts.
    let mut dsb = Dsb::new(geom, SmtDsbPolicy::Competitive);
    let mut next = 0u64;
    let ns = time_ns_per_op(budget.raw_ops / 10, budget.samples, budget.raw_ops, || {
        black_box(dsb.insert(LineId {
            thread: 0,
            window: next * 32,
            chunk: 0,
        }));
        next = (next + 1) % 9;
    });
    push("dsb_insert_evict", ns, budget.raw_ops);

    // Steady-state collapse: Fig. 4-scale run (800 M iterations) must be
    // handled in ~constant time by the period detector.
    let ns = time_ns_per_op(1, budget.samples, 10, || {
        let mut fe = Frontend::new(FrontendConfig::default());
        black_box(fe.run_iterations(ThreadId::T0, &chain8, 800_000_000));
    });
    push("run_iterations_800m", ns, 10);

    // One warm LSD run through the full Core layer (frontend + backend
    // throughput memo + power deposit + clocks): the delta against
    // `lsd_iteration` is the per-run bookkeeping the channels pay.
    let mut core = leaky_cpu::Core::new(ProcessorModel::xeon_e2288g(), 7);
    for _ in 0..8 {
        core.run_once(ThreadId::T0, &chain8);
    }
    let ns = time_ns_per_op(
        budget.iter_ops / 10,
        budget.samples,
        budget.iter_ops,
        || {
            black_box(core.run_once(ThreadId::T0, &chain8));
        },
    );
    push("core_run_once_lsd", ns, budget.iter_ops);

    // One Core run while cycling over 96 distinct single-block chains:
    // more than the 64-entry backend-throughput memo and the 32-entry
    // plan cache hold, so every run misses both (the access pattern of
    // Table VII's L1I Prime+Probe attack).
    let chains: Vec<BlockChain> = (0..96u64)
        .map(|i| BlockChain::new(vec![Block::mix(leaky_isa::Addr::new(0x0300_0000 + i * 64))]))
        .collect();
    let mut core = leaky_cpu::Core::new(ProcessorModel::xeon_e2288g(), 7);
    let mut next = 0;
    let ns = time_ns_per_op(
        budget.iter_ops / 10,
        budget.samples,
        budget.iter_ops,
        || {
            black_box(core.run_once(ThreadId::T0, &chains[next]));
            next = (next + 1) % chains.len();
        },
    );
    push("core_run_once_memo_miss", ns, budget.iter_ops);

    // Per-bit covert-channel costs (the quantity that bounds how many
    // Table II-VI scenarios a sweep can afford); channels come from the
    // registry and are measured through the CovertChannel debug hook.
    for (metric, channel) in [
        ("bit_non_mt_eviction", "non-mt-fast-eviction"),
        ("bit_non_mt_misalignment", "non-mt-fast-misalignment"),
    ] {
        let mut ch = ChannelSpec::new(channel)
            .model(ProcessorModel::xeon_e2288g())
            .seed(1)
            .build()
            .expect("registered non-MT channel");
        let mut bit = false;
        let ns = time_ns_per_op(budget.bit_ops / 4, budget.samples, budget.bit_ops, || {
            bit = !bit;
            black_box(ch.debug_measure(bit));
        });
        push(metric, ns, budget.bit_ops);

        // Re-measured with the dormant hook explicitly installed — the
        // per-bit half of the zero-cost-when-off contract.
        ch.set_trace(TraceHook::new(TraceMode::Off));
        let ns = time_ns_per_op(budget.bit_ops / 4, budget.samples, budget.bit_ops, || {
            bit = !bit;
            black_box(ch.debug_measure(bit));
        });
        push(&format!("trace_off_{metric}"), ns, budget.bit_ops);
    }

    // The MT channels' per-bit cost (both SMT threads walk the chain
    // pair's state graph per measure): the eviction channel, and the
    // misalignment channel, whose steps ping-pong between the threads.
    // Then one 2-bit slow-switch transmission: the whole decode path,
    // ambiguity-band resamples included.
    for (metric, channel) in [
        ("bit_mt_eviction", "mt-eviction"),
        ("bit_mt_misalignment", "mt-misalignment"),
    ] {
        let mut mt = ChannelSpec::new(channel)
            .model(ProcessorModel::gold_6226())
            .seed(1)
            .build()
            .expect("registered SMT channel");
        let mut bit = false;
        let ns = time_ns_per_op(budget.bit_ops / 4, budget.samples, budget.bit_ops, || {
            bit = !bit;
            black_box(mt.debug_measure(bit));
        });
        push(metric, ns, budget.bit_ops);
    }

    // One SGX MT 1-bit (§VIII-1): a single `run_concurrent` of 10 000
    // receiver and 1 000 in-enclave sender iterations, the per-bit cost
    // that dominates Table VI. Every step walks the SMT state graph.
    let mut sgx_mt = SgxMtChannel::new(
        ProcessorModel::xeon_e2174g(),
        NonMtKind::Eviction,
        ChannelParams::sgx_mt_defaults(),
        1,
    )
    .expect("the E-2174G hosts SGX with SMT");
    let sgx_ops = budget.bit_ops / 16;
    let ns = time_ns_per_op(sgx_ops / 4, budget.samples, sgx_ops, || {
        black_box(sgx_mt.debug_measure(true));
    });
    push("bit_sgx_mt_eviction", ns, sgx_ops);
    let mut slow = ChannelSpec::new("slow-switch")
        .model(ProcessorModel::xeon_e2288g())
        .seed(1)
        .build()
        .expect("registered channel");
    let ns = time_ns_per_op(budget.bit_ops / 4, budget.samples, budget.bit_ops, || {
        black_box(slow.transmit(&[false, true]));
    });
    push("bit_slow_switch", ns, budget.bit_ops);

    // Model ablations (DESIGN.md §2): one warm iteration per variant.
    // `ablation_report` prints what each mechanism does to the channels;
    // these time what it costs the simulator. The DSB-policy variants
    // run a receiver and a sender iteration on the two SMT threads.
    let recv = same_set_chain(0x0041_8000, DsbSet::new(0), 6, Alignment::Aligned);
    let send = same_set_chain(0x0082_0000, DsbSet::new(0), 3, Alignment::Aligned);
    for (label, policy) in [
        ("competitive", SmtDsbPolicy::Competitive),
        ("set_partitioned", SmtDsbPolicy::SetPartitioned),
        ("shared", SmtDsbPolicy::Shared),
    ] {
        let mut fe = Frontend::new(FrontendConfig {
            dsb_policy: policy,
            ..FrontendConfig::default()
        });
        fe.set_active(ThreadId::T0, true);
        fe.set_active(ThreadId::T1, true);
        let ns = time_ns_per_op(
            budget.iter_ops / 10,
            budget.samples,
            budget.iter_ops,
            || {
                black_box(fe.run_iteration(ThreadId::T0, &recv));
                black_box(fe.run_iteration(ThreadId::T1, &send));
            },
        );
        push(&format!("ablation_dsb_policy_{label}"), ns, budget.iter_ops);
    }
    let mis4 = same_set_chain(0x0041_8000, DsbSet::new(0), 4, Alignment::Misaligned);
    let lsd_warmups = [1u32, 3, 8, 32].map(|warmup| {
        let config = FrontendConfig {
            lsd_warmup_iterations: warmup,
            ..FrontendConfig::default()
        };
        (format!("ablation_lsd_warmup_{warmup}"), config, &chain8)
    });
    let crossing_penalties =
        [("0", 0.0), ("1_5", 1.5), ("4_5", 4.5), ("9", 9.0)].map(|(label, penalty)| {
            let mut config = FrontendConfig::default();
            config.costs.window_crossing_penalty = penalty;
            (format!("ablation_crossing_penalty_{label}"), config, &mis4)
        });
    for (name, config, chain) in lsd_warmups.into_iter().chain(crossing_penalties) {
        let mut fe = warm_frontend(config, chain);
        let ns = time_ns_per_op(
            budget.iter_ops / 10,
            budget.samples,
            budget.iter_ops,
            || {
                black_box(fe.run_iteration(ThreadId::T0, chain));
            },
        );
        push(&name, ns, budget.iter_ops);
    }

    // Bit-string scoring: 4096-bit sent/received pair (§VI error rates).
    let sent: Vec<bool> = (0..4096u32)
        .map(|i| i.wrapping_mul(2654435761) & 64 != 0)
        .collect();
    let mut received = sent.clone();
    for i in (0..received.len()).step_by(17) {
        received[i] = !received[i];
    }
    let ns = time_ns_per_op(2, budget.samples, 20, || {
        black_box(error_rate(&sent, &received));
    });
    push("error_rate_4096", ns, 20);

    // Sweep-orchestration throughput: ns per grid cell for one quick
    // sweep of the whole leaky_exp registry, at 1 worker and at 4
    // workers (the layer Tables II-VI and Fig. 8 execute on; the
    // 4-worker number tracks pool overhead and, on multi-core runners,
    // scaling). Median of a few whole-registry runs.
    for jobs in [1usize, 4] {
        let runs = 3;
        let mut per_cell = Vec::with_capacity(runs);
        let mut cells = 0;
        for _ in 0..runs {
            let (n, ns) = leaky_bench::sweep::quick_sweep_throughput(jobs);
            cells = n as u64;
            per_cell.push(ns as f64 / n as f64);
        }
        per_cell.sort_by(|a, b| a.total_cmp(b));
        push(
            &format!("sweep_cell_quick_jobs{jobs}"),
            per_cell[per_cell.len() / 2],
            cells,
        );
    }

    metrics
}

fn check(metrics: &[Metric], baseline_path: &str, quick: bool) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read {baseline_path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{baseline_path} is malformed: {e}"))?;
    let baseline = report_metrics(&doc).map_err(|e| format!("{baseline_path}: {e}"))?;
    let mut failures = Vec::new();
    // A baseline metric the harness no longer measures means the gate
    // silently lost coverage — fail loudly instead.
    for (name, _) in &baseline {
        if !metrics.iter().any(|m| &m.name == name) {
            failures.push(format!(
                "baseline metric {name:?} is no longer measured; update {baseline_path}"
            ));
        }
    }
    // Normalize by the median now/baseline ratio: the committed numbers
    // come from one machine, so a uniformly slower (or faster) runner
    // shifts every metric together, and only a metric regressing beyond
    // the tolerance *relative to its peers in the same run* is a real
    // simulator regression.
    let mut ratios: Vec<(String, f64, f64)> = Vec::new();
    for m in metrics {
        let Some((_, base)) = baseline.iter().find(|(name, _)| *name == m.name) else {
            println!(
                "{:<26} {:>12} {:>12.1} {:>8}",
                m.name, "--", m.ns_per_op, "new"
            );
            continue;
        };
        let ratio = if *base > 0.0 {
            m.ns_per_op / base
        } else {
            f64::INFINITY
        };
        ratios.push((m.name.clone(), *base, ratio));
    }
    let mut sorted: Vec<f64> = ratios.iter().map(|(_, _, r)| *r).collect();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let machine_factor = if sorted.is_empty() {
        1.0
    } else {
        sorted[sorted.len() / 2].max(1.0)
    };
    let limit = MAX_REGRESSION * machine_factor;
    // The zero-cost-when-off metrics get the tight gate in full mode;
    // quick samples are too noisy for a 2% tolerance.
    let tight = if quick {
        limit
    } else {
        TRACE_OFF_REGRESSION * machine_factor
    };
    println!("machine factor (median ratio, floored at 1): {machine_factor:.2}");
    println!(
        "{:<34} {:>12} {:>12} {:>8}",
        "metric", "baseline ns", "now ns", "ratio"
    );
    for (name, base, ratio) in &ratios {
        println!(
            "{:<34} {:>12.1} {:>12.1} {:>7.2}x",
            name,
            base,
            base * ratio,
            ratio
        );
        let metric_limit = if name.starts_with("trace_off_") {
            tight
        } else {
            limit
        };
        if *ratio > metric_limit {
            failures.push(format!(
                "{name}: {:.1} ns vs baseline {base:.1} ns ({ratio:.2}x > {metric_limit:.2}x limit)",
                base * ratio
            ));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("perf regression:\n  {}", failures.join("\n  ")))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let arg_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out = arg_value("--out");
    let baseline = arg_value("--check");

    let metrics = measure(&Budget::new(quick));

    if let Some(path) = &baseline {
        return match check(&metrics, path, quick) {
            Ok(()) => {
                println!(
                    "perf check OK (metrics within {MAX_REGRESSION}x, trace_off within {}x)",
                    if quick {
                        MAX_REGRESSION
                    } else {
                        TRACE_OFF_REGRESSION
                    }
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }

    let report = render_report(&metrics);
    if let Some(path) = &out {
        if let Err(e) = std::fs::write(path, &report) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    print!("{report}");
    ExitCode::SUCCESS
}
