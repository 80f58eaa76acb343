//! `paper_regen`: regenerate every pinned paper artifact, one full-grid
//! sweep per op, on the sweep pool at two workers.

use crate::experiments::{digest_sweep, load_bundles, read, Counts, Timed, WorkerClock};
use crate::harness::{median, Ctx, Fnv, Metric, OpOut, Workload};
use crate::spans::{Tracer, SETUP_OP};
use leaky_bench::sweep::{render_legacy, render_table};
use leaky_exp::{
    run_experiment_with, standard_registry, Experiment, Registry, RunConfig, SweepRun,
};
use leaky_spectre::{ChannelKind, SpectreV1};
use leaky_trace::TraceMode;

/// Workers of the sweep pool: the CLI default on a two-core host.
const JOBS: usize = 2;
/// Secret length of the Spectre probes: the Table VII full grid's.
const SPECTRE_CHUNKS: usize = 24;

pub struct PaperRegen {
    registry: Registry,
    bundles: Vec<Box<dyn Experiment>>,
    goldens: Vec<String>,
    /// The seed rotates where the cycle starts.
    rotation: usize,
    seed: u64,
    /// Telemetry counts of the first traced cycle, and the Spectre
    /// probes' miss counts.
    counts: Vec<Option<Counts>>,
    spectre_digest: u64,
    clock: WorkerClock,
}

impl PaperRegen {
    fn specs(&self) -> Vec<&dyn Experiment> {
        self.registry
            .iter()
            .chain(self.bundles.iter().map(|b| b.as_ref()))
            .collect()
    }

    /// Index of the spec that op `i` (or op slot `i`) sweeps.
    fn spec(&self, i: u64) -> usize {
        (self.rotation + i as usize) % self.goldens.len()
    }

    fn run(&self, slot: usize, trace: TraceMode, ctx: Option<Ctx<'_>>) -> SweepRun {
        let exp = self.specs()[slot];
        let cfg = RunConfig {
            jobs: JOBS,
            trace,
            ..RunConfig::default()
        };
        let sweep = |span| {
            let timed = Timed {
                inner: exp,
                span,
                clock: Some(&self.clock),
            };
            run_experiment_with(&timed, &cfg)
        };
        let run = match ctx {
            Some(ctx) => ctx.span(format!("exp.sweep.{}", exp.name()), None, |id| {
                sweep(Some((ctx, id)))
            }),
            None => sweep(None),
        };
        self.clock.end_sweep();
        run.expect("a sweep without store or fault plan cannot fail")
    }
}

/// Renders a sweep the way its committed golden was captured: the unified
/// table for goldens in that format, else the pre-migration layout.
fn render(run: &SweepRun, golden: &str) -> String {
    if golden.starts_with("== ") {
        render_table(run)
    } else {
        render_legacy(run).unwrap_or_default()
    }
}

fn spectre_label(kind: ChannelKind) -> &'static str {
    match kind {
        ChannelKind::MemFlushReload => "mem_fr",
        ChannelKind::L1dFlushReload => "l1d_fr",
        ChannelKind::L1dLru => "l1d_lru",
        ChannelKind::L1iFlushReload => "l1i_fr",
        ChannelKind::L1iPrimeProbe => "l1i_pp",
        ChannelKind::Frontend => "frontend",
    }
}

impl Workload for PaperRegen {
    const NAME: &'static str = "paper_regen";

    fn setup(seed: u64, tracer: Option<&Tracer>) -> Result<Self, String> {
        let build = |ctx: Option<Ctx<'_>>| -> Result<Self, String> {
            let registry = standard_registry();
            let bundles = load_bundles(&["tab3_riscv"], ctx)?;
            let mut w = PaperRegen {
                registry,
                bundles,
                goldens: Vec::new(),
                rotation: 0,
                seed,
                counts: Vec::new(),
                spectre_digest: 0,
                clock: WorkerClock::new(),
            };
            let names: Vec<&str> = w.specs().iter().map(|e| e.name()).collect();
            w.goldens = names
                .iter()
                .map(|n| read(&format!("crates/bench/tests/golden/{n}.txt")))
                .collect::<Result<_, _>>()?;
            w.rotation = (seed % names.len() as u64) as usize;
            w.counts = vec![None; names.len()];
            // Untimed warm-up pass, checked like any op.
            for (slot, golden) in w.goldens.iter().enumerate() {
                let run = w.run(slot, TraceMode::Off, None);
                if render(&run, golden) != *golden {
                    return Err(format!("warm-up: {} differs from its golden", run.name));
                }
            }
            if let Some(ctx) = ctx {
                w.probe_spectre(ctx);
            }
            Ok(w)
        };
        match tracer {
            Some(t) => t.scope("setup.paper_regen", None, SETUP_OP, |root| {
                build(Some(Ctx {
                    tracer: t,
                    root,
                    op: SETUP_OP,
                }))
            }),
            None => build(None),
        }
    }

    fn cycle_len(&self) -> usize {
        self.goldens.len()
    }

    fn take_worker_ns(&mut self) -> u64 {
        self.clock.take()
    }

    fn op(&mut self, i: u64, ctx: Option<Ctx<'_>>) -> Result<OpOut, String> {
        let slot = self.spec(i);
        let trace = if ctx.is_some() {
            TraceMode::Summary
        } else {
            TraceMode::Off
        };
        let run = self.run(slot, trace, ctx);
        let golden = &self.goldens[slot];
        let rendered = match ctx {
            Some(ctx) => ctx.span("bench.render", None, |_| render(&run, golden)),
            None => render(&run, golden),
        };
        if rendered != *golden {
            return Err(format!("{} differs from its golden", run.name));
        }
        let mut h = Fnv::new();
        digest_sweep(&mut h, &run);
        if ctx.is_some() && self.counts[slot].is_none() {
            self.counts[slot] = Some(Counts::of_sweep(&run));
        }
        Ok(OpOut {
            cells: run.cells.len() as u64,
            bits: None,
            digest: h.finish(),
        })
    }

    /// Channel bits of a slot's sweep, counted by the trace layer in one
    /// traced sweep run after the timed phase.
    fn slot_bits(&mut self, slot: usize) -> Result<u64, String> {
        let run = self.run(self.spec(slot as u64), TraceMode::Summary, None);
        Ok(Counts::of_sweep(&run).bits)
    }

    fn layer_metrics(&self, tracer: &Tracer) -> Vec<Metric> {
        let mut out = Vec::new();
        for kind in ChannelKind::all() {
            let name = format!("spectre.leak.{}", spectre_label(kind));
            let ms: Vec<f64> = tracer
                .timings(&name)
                .iter()
                .map(|t| t.total_ns as f64 / 1e6)
                .collect();
            out.push(Metric::new(
                format!("spectre.leak_ms.{}", spectre_label(kind)),
                median(&ms),
                "ms",
            ));
        }
        let mut cell_ns_all = 0u64;
        let mut sweep_ns_all = 0u64;
        for exp in self.specs() {
            let sweeps = tracer.timings(&format!("exp.sweep.{}", exp.name()));
            let cells = tracer.per_op_ns(&format!("exp.cell.{}", exp.name()));
            let sweep_ms: Vec<f64> = sweeps.iter().map(|t| t.total_ns as f64 / 1e6).collect();
            let cell_ms: Vec<f64> = cells.values().map(|&ns| ns as f64 / 1e6).collect();
            sweep_ns_all += sweeps.iter().map(|t| t.total_ns).sum::<u64>();
            cell_ns_all += cells.values().sum::<u64>();
            out.push(Metric::new(
                format!("exp.sweep_ms.{}", exp.name()),
                median(&sweep_ms),
                "ms",
            ));
            out.push(Metric::new(
                format!("exp.cell_ms_sum.{}", exp.name()),
                median(&cell_ms),
                "ms",
            ));
        }
        out.push(Metric::new(
            "exp.worker_idle_frac",
            1.0 - cell_ns_all as f64 / (JOBS as f64 * sweep_ns_all.max(1) as f64),
            "ratio",
        ));
        out
    }

    fn telemetry_digest(&self) -> u64 {
        let mut h = Fnv::new();
        for c in self.counts.iter().flatten() {
            c.digest(&mut h);
        }
        h.u64(self.spectre_digest);
        h.finish()
    }
}

impl PaperRegen {
    /// Calls `SpectreV1::leak` once per disclosure channel with a
    /// seed-derived secret of the Table VII length (traced set-up only,
    /// so the probes do not count as tracing overhead).
    fn probe_spectre(&mut self, ctx: Ctx<'_>) {
        let secret: Vec<u8> = (0..SPECTRE_CHUNKS as u64)
            .map(|i| (crate::harness::splitmix(self.seed ^ (i << 32)) % 32) as u8)
            .collect();
        let mut h = Fnv::new();
        for kind in ChannelKind::all() {
            let mut attack = SpectreV1::new(kind, secret.clone(), self.seed);
            let r = ctx.span(
                format!("spectre.leak.{}", spectre_label(kind)),
                None,
                |_| attack.leak(),
            );
            h.u64(r.l1i_misses as u64);
            h.u64(r.l1d_misses as u64);
            h.f64(r.accuracy());
        }
        self.spectre_digest = h.finish();
    }
}
