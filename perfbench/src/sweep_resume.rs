//! `sweep_resume`: warm resumes of a populated result store, with a cold
//! sweep into an empty store every fourth op.

use crate::experiments::{digest_sweep, load_bundles, repo_root, Counts, Timed};
use crate::harness::{median, Ctx, Fnv, Metric, OpOut, Workload};
use crate::spans::{Tracer, SETUP_OP};
use leaky_bench::sweep::{render_json_document, render_table};
use leaky_exp::{
    code_fingerprint, run_experiment_with, standard_registry, Experiment, Registry, RunConfig,
    SweepRun,
};
use leaky_store::{Lookup, ResultStore, StoreStats};
use leaky_trace::TraceMode;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Op slots per cycle; the last one is the cold sweep.
const CYCLE: usize = 4;
/// The spec the cold op sweeps: eight cells of negligible compute, so
/// the op is mostly store writes.
const COLD_SPEC: &str = "rng_stream_grid";
/// Repetitions of the scenario-file loads and of the direct store reads
/// and writes timed in a traced set-up.
const PROBE_ROUNDS: usize = 20;

pub struct SweepResume {
    registry: Registry,
    bundles: Vec<Box<dyn Experiment>>,
    dir: PathBuf,
    store: ResultStore,
    cold_tables: Vec<String>,
    cold_json: String,
    rotation: usize,
    /// The cold op's store. After each cold op, outside the op's time, its
    /// `entries` directory is moved aside into `spent/` and replaced by an
    /// empty one, so every cold op writes into an empty store without
    /// creating or deleting anything on the timed path. The spent entries
    /// are deleted with the rest of the scratch directory when the run
    /// ends: deleting them after each op kept the file system busy freeing
    /// blocks, which made the next ops' file creation up to eight times
    /// slower, and by an amount that changed from run to run.
    cold_dir: PathBuf,
    /// Entry directories moved into `spent/` so far.
    spent: usize,
    /// Store traffic of the set-up and the first traced cycle.
    stats: StoreStats,
    entry_bytes: u64,
    counted: usize,
    census: Option<u64>,
}

/// A store directory of its own for each set-up, so a set-up sampled
/// while another instance runs does not touch that instance's stores.
fn scratch_dir() -> PathBuf {
    static INSTANCES: AtomicUsize = AtomicUsize::new(0);
    let n = INSTANCES.fetch_add(1, Ordering::Relaxed);
    repo_root()
        .join("perfbench/out")
        .join(format!("store-{}-{n}", std::process::id()))
}

fn add_stats(acc: &mut StoreStats, s: &StoreStats) {
    acc.hits += s.hits;
    acc.misses += s.misses;
    acc.stale += s.stale;
    acc.quarantined += s.quarantined;
    acc.writes += s.writes;
}

fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut total = 0;
    for e in entries {
        let meta = e.and_then(|e| e.metadata()).map_err(|e| e.to_string())?;
        total += meta.len();
    }
    Ok(total)
}

impl SweepResume {
    fn specs(&self) -> Vec<&dyn Experiment> {
        self.registry
            .iter()
            .chain(self.bundles.iter().map(|b| b.as_ref()))
            .collect()
    }

    fn sweep(
        exp: &dyn Experiment,
        store: &ResultStore,
        resume: bool,
        ctx: Option<Ctx<'_>>,
        span: &str,
    ) -> Result<SweepRun, String> {
        let cfg = RunConfig {
            quick: true,
            jobs: 1,
            resume,
            store: Some(store),
            ..RunConfig::default()
        };
        let run = match ctx {
            Some(ctx) => ctx.span(span, None, |id| {
                run_experiment_with(
                    &Timed {
                        inner: exp,
                        span: Some((ctx, id)),
                        clock: None,
                    },
                    &cfg,
                )
            }),
            None => run_experiment_with(exp, &cfg),
        };
        run.map_err(|e| format!("{}: {e}", exp.name()))
    }

    fn render(runs: &[SweepRun], ctx: Option<Ctx<'_>>) -> (Vec<String>, String) {
        match ctx {
            Some(ctx) => (
                runs.iter()
                    .map(|r| ctx.span("bench.render_table", None, |_| render_table(r)))
                    .collect(),
                ctx.span("bench.render_json", None, |_| render_json_document(runs)),
            ),
            None => (
                runs.iter().map(render_table).collect(),
                render_json_document(runs),
            ),
        }
    }

    fn warm(&mut self, ctx: Option<Ctx<'_>>) -> Result<OpOut, String> {
        let mut runs = Vec::new();
        let mut stats = StoreStats::default();
        for exp in self.specs() {
            let run = Self::sweep(exp, &self.store, true, ctx, "exp.resume")?;
            let s = run.store_stats.unwrap_or_default();
            if s.hits != run.cells.len() || s.writes != 0 {
                return Err(format!(
                    "{}: warm resume served {} of {} cells from the store and wrote {}",
                    run.name,
                    s.hits,
                    run.cells.len(),
                    s.writes
                ));
            }
            add_stats(&mut stats, &s);
            runs.push(run);
        }
        let (tables, json) = Self::render(&runs, ctx);
        if tables != self.cold_tables || json != self.cold_json {
            return Err("warm resume output differs from the cold output".to_string());
        }
        self.count(ctx, &stats);
        let mut h = Fnv::new();
        runs.iter().for_each(|r| digest_sweep(&mut h, r));
        Ok(OpOut {
            cells: runs.iter().map(|r| r.cells.len() as u64).sum(),
            bits: None,
            digest: h.finish(),
        })
    }

    fn cold(&mut self, ctx: Option<Ctx<'_>>) -> Result<OpOut, String> {
        let (run, stats) = self.cold_into(&self.cold_dir, ctx)?;
        self.count(ctx, &stats);
        let mut h = Fnv::new();
        digest_sweep(&mut h, &run);
        Ok(OpOut {
            cells: run.cells.len() as u64,
            bits: None,
            digest: h.finish(),
        })
    }

    /// Sweeps the cold spec into the empty store at `dir`; every cell must be
    /// written and render as it did in the set-up.
    fn cold_into(
        &self,
        dir: &Path,
        ctx: Option<Ctx<'_>>,
    ) -> Result<(SweepRun, StoreStats), String> {
        let specs = self.specs();
        let slot = specs
            .iter()
            .position(|e| e.name() == COLD_SPEC)
            .ok_or(format!("{COLD_SPEC} is not registered"))?;
        let store = ResultStore::open(dir).map_err(|e| e.to_string())?;
        let run = Self::sweep(specs[slot], &store, true, ctx, "exp.sweep")?;
        let s = run.store_stats.unwrap_or_default();
        if s.writes != run.cells.len() || s.hits != 0 {
            return Err(format!(
                "cold sweep wrote {} of {} cells",
                s.writes,
                run.cells.len()
            ));
        }
        let table = match ctx {
            Some(ctx) => ctx.span("bench.render_table", None, |_| render_table(&run)),
            None => render_table(&run),
        };
        if table != self.cold_tables[slot] {
            return Err("cold sweep output differs from the set-up's".to_string());
        }
        Ok((run, s))
    }

    /// Times direct `ResultStore::get` calls for every populated entry
    /// and `ResultStore::put` calls that write the entries read back into
    /// a scratch store (traced set-up only, so the probes do not count as
    /// tracing overhead).
    fn probe_store(&self, ctx: Ctx<'_>, runs: &[SweepRun]) -> Result<(), String> {
        let scratch = ResultStore::open(self.dir.join("probe")).map_err(|e| e.to_string())?;
        for _ in 0..PROBE_ROUNDS {
            for (exp, run) in self.specs().into_iter().zip(runs) {
                let fingerprint = code_fingerprint(exp);
                for c in &run.cells {
                    let hit = ctx.span("store.get", None, |_| {
                        self.store.get(&c.cell.key, fingerprint)
                    });
                    let Ok(Lookup::Hit(outcome)) = hit else {
                        return Err(format!("{}: direct read missed", c.cell.key));
                    };
                    ctx.span("store.put", None, |_| {
                        scratch.put(&c.cell.key, fingerprint, &outcome)
                    })
                    .map_err(|e| e.to_string())?;
                }
            }
        }
        Ok(())
    }

    fn count(&mut self, ctx: Option<Ctx<'_>>, s: &StoreStats) {
        if ctx.is_some() && self.counted < CYCLE {
            self.counted += 1;
            add_stats(&mut self.stats, s);
        }
    }
}

impl Drop for SweepResume {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Workload for SweepResume {
    const NAME: &'static str = "sweep_resume";

    fn setup(seed: u64, tracer: Option<&Tracer>) -> Result<Self, String> {
        let build = |ctx: Option<Ctx<'_>>| -> Result<Self, String> {
            if let Some(ctx) = ctx {
                for _ in 1..PROBE_ROUNDS {
                    load_bundles(&["tab3_uarch", "tab3_riscv"], Some(ctx))?;
                }
            }
            let bundles = load_bundles(&["tab3_uarch", "tab3_riscv"], ctx)?;
            let dir = scratch_dir();
            let _ = std::fs::remove_dir_all(&dir);
            let store = ResultStore::open(dir.join("warm")).map_err(|e| e.to_string())?;
            let cold_dir = dir.join("cold");
            let mut w = SweepResume {
                registry: standard_registry(),
                bundles,
                dir,
                store,
                cold_tables: Vec::new(),
                cold_json: String::new(),
                rotation: (seed % CYCLE as u64) as usize,
                cold_dir,
                spent: 0,
                stats: StoreStats::default(),
                entry_bytes: 0,
                counted: 0,
                census: None,
            };
            // Cold populate: every cell is computed and written.
            let mut runs = Vec::new();
            let mut stats = StoreStats::default();
            for exp in w.specs() {
                let run = Self::sweep(exp, &w.store, false, None, "")?;
                let s = run.store_stats.unwrap_or_default();
                if s.writes != run.cells.len() {
                    return Err(format!(
                        "{}: cold populate wrote {} of {} cells",
                        run.name,
                        s.writes,
                        run.cells.len()
                    ));
                }
                add_stats(&mut stats, &s);
                runs.push(run);
            }
            w.stats = stats;
            (w.cold_tables, w.cold_json) = Self::render(&runs, None);
            w.entry_bytes = dir_bytes(&w.store.root().join("entries"))?;
            if let Some(ctx) = ctx {
                w.probe_store(ctx, &runs)?;
            }
            Ok(w)
        };
        match tracer {
            Some(t) => t.scope("setup.sweep_resume", None, SETUP_OP, |root| {
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
        CYCLE
    }

    fn tidy(&mut self) {
        let entries = self.cold_dir.join("entries");
        if std::fs::read_dir(&entries).is_ok_and(|mut d| d.next().is_some()) {
            let spent = self.dir.join("spent");
            let _ = std::fs::create_dir_all(&spent);
            let _ = std::fs::rename(&entries, spent.join(self.spent.to_string()));
            let _ = std::fs::create_dir(&entries);
            self.spent += 1;
        }
    }

    fn op(&mut self, i: u64, ctx: Option<Ctx<'_>>) -> Result<OpOut, String> {
        if (self.rotation + i as usize) % CYCLE == CYCLE - 1 {
            self.cold(ctx)
        } else {
            self.warm(ctx)
        }
    }

    /// Channel bits the warm ops' cells stand for, counted by the trace
    /// layer in one traced pass over the quick grids (no store) after the
    /// timed phase. The cold op's sweep transmits nothing.
    fn slot_bits(&mut self, slot: usize) -> Result<u64, String> {
        if (self.rotation + slot) % CYCLE == CYCLE - 1 {
            return Ok(0);
        }
        if let Some(bits) = self.census {
            return Ok(bits);
        }
        let mut bits = 0;
        for exp in self.specs() {
            let cfg = RunConfig {
                quick: true,
                jobs: 1,
                trace: TraceMode::Summary,
                ..RunConfig::default()
            };
            let run = run_experiment_with(exp, &cfg).map_err(|e| e.to_string())?;
            bits += Counts::of_sweep(&run).bits;
        }
        self.census = Some(bits);
        Ok(bits)
    }

    fn layer_metrics(&self, tracer: &Tracer) -> Vec<Metric> {
        // Span time summed per op, then the median over ops. Table
        // rendering counts warm ops only: a cold op renders one table.
        let resume = tracer.per_op_ns("exp.resume");
        let per_op = |by_op: &BTreeMap<u64, u64>, scale: f64| {
            median(
                &by_op
                    .values()
                    .map(|&ns| ns as f64 / scale)
                    .collect::<Vec<_>>(),
            )
        };
        let mut render_table = tracer.per_op_ns("bench.render_table");
        render_table.retain(|op, _| resume.contains_key(op));
        let each = |name: &str, scale: f64| {
            let v: Vec<f64> = tracer
                .timings(name)
                .iter()
                .map(|t| t.total_ns as f64 / scale)
                .collect();
            median(&v)
        };
        vec![
            Metric::new("exp.resume_ms", per_op(&resume, 1e6), "ms"),
            Metric::new("bench.render_table_us", per_op(&render_table, 1e3), "us"),
            Metric::new(
                "bench.render_json_us",
                per_op(&tracer.per_op_ns("bench.render_json"), 1e3),
                "us",
            ),
            Metric::new("store.get_us", each("store.get", 1e3), "us"),
            Metric::new("store.put_us", each("store.put", 1e3), "us"),
            Metric::new("store.entry_bytes", self.entry_bytes as f64, "bytes"),
            Metric::new("store.hits", self.stats.hits as f64, "count"),
            Metric::new("store.writes", self.stats.writes as f64, "count"),
            Metric::new("scenario.load_ms", each("scenario.load", 1e6), "ms"),
        ]
    }

    fn telemetry_digest(&self) -> u64 {
        let mut h = Fnv::new();
        for v in [
            self.stats.hits,
            self.stats.misses,
            self.stats.stale,
            self.stats.quarantined,
            self.stats.writes,
        ] {
            h.u64(v as u64);
        }
        h.u64(self.entry_bytes);
        h.finish()
    }
}
