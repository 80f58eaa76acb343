//! Shared access to the repository's sweeps: the spec registry, the
//! scenario bundles, the committed goldens and a wrapper around
//! `Experiment::run_cell` that records spans and worker CPU time.

use crate::harness::{thread_cpu_ns, Ctx, Fnv};
use crate::spans::SpanId;
use leaky_exp::{CellMeasurement, CellOutcome, Experiment, JobCell, ParamGrid, SweepRun};
use leaky_scenario::{parse_bundle, ProfileRegistry};
use leaky_trace::TraceMode;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;

/// The repository checkout the benchmark was built from.
pub fn repo_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

pub fn read(rel: &str) -> Result<String, String> {
    let path = repo_root().join(rel);
    std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Loads the committed profile library (`scenarios/`) over the built-in
/// profiles, then parses each named bundle against it.
pub fn load_bundles(
    names: &[&str],
    ctx: Option<Ctx<'_>>,
) -> Result<Vec<Box<dyn Experiment>>, String> {
    let load = || -> Result<Vec<Box<dyn Experiment>>, String> {
        let mut profiles = ProfileRegistry::builtins();
        profiles
            .load_dir(repo_root().join("scenarios"))
            .map_err(|e| e.to_string())?;
        names
            .iter()
            .map(|name| {
                let text = read(&format!("scenarios/{name}.toml"))?;
                let bundle = parse_bundle(&text, &profiles).map_err(|e| e.to_string())?;
                Ok(bundle.into_experiment())
            })
            .collect()
    };
    match ctx {
        Some(ctx) => ctx.span("scenario.load", None, |_| load()),
        None => load(),
    }
}

/// CPU time of the sweep pool's worker threads, so a workload whose
/// sweeps run at `jobs > 1` can report its critical path: the calling
/// thread's CPU time plus, per sweep, the busiest worker's. Summing every
/// thread instead would hide a worker left waiting on a straggler.
pub struct WorkerClock {
    /// The thread that owns the workload. Cells it runs itself (a pool
    /// clamped to one job runs inline) are already in its own CPU time.
    caller: ThreadId,
    /// CPU time per worker thread in the current sweep.
    sweep: Mutex<Vec<(ThreadId, u64)>>,
    /// Busiest-worker CPU time of the finished sweeps since the last take.
    critical: AtomicU64,
}

impl WorkerClock {
    /// A clock whose caller is the current thread.
    pub fn new() -> Self {
        WorkerClock {
            caller: std::thread::current().id(),
            sweep: Mutex::new(Vec::new()),
            critical: AtomicU64::new(0),
        }
    }

    fn add(&self, ns: u64) {
        let id = std::thread::current().id();
        if id == self.caller {
            return;
        }
        let mut sweep = self.sweep.lock().unwrap_or_else(|e| e.into_inner());
        match sweep.iter_mut().find(|(t, _)| *t == id) {
            Some((_, total)) => *total += ns,
            None => sweep.push((id, ns)),
        }
    }

    /// Closes a sweep: adds its busiest worker's CPU time to the critical
    /// path.
    pub fn end_sweep(&self) {
        let mut sweep = self.sweep.lock().unwrap_or_else(|e| e.into_inner());
        let busiest = sweep.iter().map(|&(_, ns)| ns).max().unwrap_or(0);
        sweep.clear();
        self.critical.fetch_add(busiest, Ordering::Relaxed);
    }

    /// The workers' share of the critical path since the last call.
    pub fn take(&self) -> u64 {
        self.critical.swap(0, Ordering::Relaxed)
    }
}

/// Wraps an experiment's cells: in `exp.cell.<name>` spans when `span`
/// holds the op's context and the sweep span to nest under, and on
/// `clock` when one is given. Name, grid and code version are the
/// wrapped spec's, so store keys and fingerprints are unchanged.
pub struct Timed<'a> {
    pub inner: &'a dyn Experiment,
    pub span: Option<(Ctx<'a>, SpanId)>,
    pub clock: Option<&'a WorkerClock>,
}

impl Timed<'_> {
    fn cell<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = thread_cpu_ns();
        let r = match self.span {
            Some((ctx, parent)) => {
                ctx.span(format!("exp.cell.{}", self.name()), Some(parent), |_| f())
            }
            None => f(),
        };
        if let Some(clock) = self.clock {
            clock.add(thread_cpu_ns() - start);
        }
        r
    }
}

impl Experiment for Timed<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn title(&self) -> &'static str {
        self.inner.title()
    }
    fn grid(&self, quick: bool) -> ParamGrid {
        self.inner.grid(quick)
    }
    fn run_cell(&self, cell: &JobCell) -> Option<CellMeasurement> {
        self.cell(|| self.inner.run_cell(cell))
    }
    fn run_cell_traced(&self, cell: &JobCell, trace: TraceMode) -> Option<CellMeasurement> {
        self.cell(|| self.inner.run_cell_traced(cell, trace))
    }
    fn code_version(&self) -> u32 {
        self.inner.code_version()
    }
}

/// Folds every simulated output of a sweep (cell outcomes, metric values
/// bit for bit, provenance) into `h`. Telemetry is left out: it exists
/// only in traced runs.
pub fn digest_sweep(h: &mut Fnv, run: &SweepRun) {
    h.str(run.name);
    for c in &run.cells {
        h.str(&c.cell.key);
        match &c.outcome {
            CellOutcome::Measured(m) => {
                h.u64(1);
                for metric in &m.metrics {
                    h.str(&metric.name);
                    h.f64(metric.value);
                }
                if let Some(p) = &m.provenance {
                    h.str(&p.channel);
                    h.str(&p.profile);
                    h.str(&p.params);
                }
            }
            CellOutcome::Unsupported => h.u64(2),
            CellOutcome::Failed { message, .. } => {
                h.u64(3);
                h.str(message);
            }
        }
    }
}

/// Telemetry counts of a sweep's cells, summed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub iterations: u64,
    pub per_source: [u64; 3],
    pub dsb_evictions: u64,
    pub lsd_locks: u64,
    pub channel_measures: u64,
    pub bits: u64,
    pub bit_errors: u64,
    pub resamples: u64,
}

impl Counts {
    pub fn add(&mut self, s: &leaky_trace::StallSummary) {
        self.iterations += s.iterations;
        for (acc, src) in self.per_source.iter_mut().zip(&s.per_source) {
            *acc += src.iterations;
        }
        self.dsb_evictions += s.dsb_evictions;
        self.lsd_locks += s.lsd_locks;
        self.channel_measures += s.channel_measures;
        self.bits += s.bits;
        self.bit_errors += s.bit_errors;
        self.resamples += s.resamples;
    }

    pub fn add_counts(&mut self, o: &Counts) {
        self.iterations += o.iterations;
        for (a, b) in self.per_source.iter_mut().zip(o.per_source) {
            *a += b;
        }
        self.dsb_evictions += o.dsb_evictions;
        self.lsd_locks += o.lsd_locks;
        self.channel_measures += o.channel_measures;
        self.bits += o.bits;
        self.bit_errors += o.bit_errors;
        self.resamples += o.resamples;
    }

    pub fn of_sweep(run: &SweepRun) -> Counts {
        let mut c = Counts::default();
        for cell in &run.cells {
            if let Some(t) = cell.telemetry() {
                c.add(&t.summary);
            }
        }
        c
    }

    pub fn digest(&self, h: &mut Fnv) {
        for v in [
            self.iterations,
            self.per_source[0],
            self.per_source[1],
            self.per_source[2],
            self.dsb_evictions,
            self.lsd_locks,
            self.channel_measures,
            self.bits,
            self.bit_errors,
            self.resamples,
        ] {
            h.u64(v);
        }
    }
}
