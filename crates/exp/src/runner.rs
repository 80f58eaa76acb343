//! Experiment specs, fault-tolerant sweep execution, and the registry.

use crate::fault::{FaultKind, FaultPlan};
use crate::grid::{JobCell, ParamGrid};
use crate::pool::{panic_message, run_ordered_observed, Flow};
use leaky_frontends::run::Provenance;
use leaky_stats::summary::merge_ordered;
use leaky_stats::OnlineStats;
use leaky_store::{
    Lookup, ResultStore, StoreError, StoreStats, StoredMetric, StoredOutcome, StoredProvenance,
};
use leaky_trace::{Telemetry, TraceMode};
use leaky_uarch::Fnv1a;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// One named measurement produced by a cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable metric name (table column / JSON key). Owned, so a cached
    /// cell loaded from the result store carries it unchanged.
    pub name: String,
    /// Measured value.
    pub value: f64,
}

impl Metric {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, value: f64) -> Self {
        Metric {
            name: name.into(),
            value,
        }
    }
}

/// Owned channel provenance, as the sweep layer persists and renders it:
/// the strings of [`Provenance`], decoupled from the channel registry's
/// `&'static` lifetimes so store round-trips are exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellProvenance {
    /// Registry name of the channel that transmitted.
    pub channel: String,
    /// Microarchitecture profile key the channel was built under.
    pub profile: String,
    /// Rendered §V parameter string.
    pub params: String,
}

impl From<&Provenance> for CellProvenance {
    fn from(p: &Provenance) -> Self {
        CellProvenance {
            channel: p.channel.to_string(),
            profile: p.profile.to_string(),
            params: p.params.to_string(),
        }
    }
}

/// Everything one cell measured: metric values plus (for channel sweeps)
/// the provenance of the transmission that produced them, which the JSON
/// rendering surfaces so a result row is self-describing.
#[derive(Debug, Clone, PartialEq)]
pub struct CellMeasurement {
    /// Named metric values (table columns / JSON keys).
    pub metrics: Vec<Metric>,
    /// Channel provenance, when the cell ran a covert channel.
    pub provenance: Option<CellProvenance>,
    /// Trace telemetry, when the sweep ran with tracing on and the spec
    /// implements [`Experiment::run_cell_traced`]. A pure function of
    /// the cell's content, like the metrics — never of scheduling.
    /// Boxed so the common untraced measurement stays small.
    pub telemetry: Option<Box<Telemetry>>,
}

impl CellMeasurement {
    /// Bundles metrics with the provenance a [`ChannelRun`] carries.
    ///
    /// [`ChannelRun`]: leaky_frontends::run::ChannelRun
    pub fn with_provenance(metrics: Vec<Metric>, provenance: Option<Provenance>) -> Self {
        CellMeasurement {
            metrics,
            provenance: provenance.as_ref().map(CellProvenance::from),
            telemetry: None,
        }
    }

    /// Attaches trace telemetry (builder style).
    pub fn with_telemetry(mut self, telemetry: Option<Telemetry>) -> Self {
        self.telemetry = telemetry.map(Box::new);
        self
    }
}

impl From<Vec<Metric>> for CellMeasurement {
    fn from(metrics: Vec<Metric>) -> Self {
        CellMeasurement {
            metrics,
            provenance: None,
            telemetry: None,
        }
    }
}

/// A declarative experiment: a grid plus a per-cell measurement.
///
/// Implementations must be pure in the cell: `run_cell` may not depend
/// on which other cells ran, in what order, or on which thread — that is
/// what makes `--jobs N` bit-identical. Cells needing randomness take it
/// from [`crate::seed::cell_rng`] (or a spec-pinned legacy seed, for
/// sweeps whose committed outputs predate this subsystem).
pub trait Experiment: Sync {
    /// Registry name (also the CLI filter argument), e.g. `"fig8_d_sweep"`.
    fn name(&self) -> &'static str;

    /// One-line human description (CLI `--list`, table headers).
    fn title(&self) -> &'static str;

    /// The parameter grid; `quick` selects a cheaper variant of the same
    /// sweep for CI smoke runs (typically fewer message bits).
    fn grid(&self, quick: bool) -> ParamGrid;

    /// Measures one cell. `None` marks a structurally unsupported cell
    /// (e.g. an SMT channel on a machine with SMT disabled) — it stays in
    /// the output as a gap but contributes nothing to summaries. Plain
    /// metric vectors convert via `Into`; channel sweeps attach
    /// provenance with [`CellMeasurement::with_provenance`].
    fn run_cell(&self, cell: &JobCell) -> Option<CellMeasurement>;

    /// Measures one cell with tracing. The default ignores the mode and
    /// delegates to [`Experiment::run_cell`], so untraced specs work
    /// unchanged under `--trace` (their cells simply carry no
    /// telemetry). Implementations must keep the metrics bit-identical
    /// to the untraced path — tracing is observability, never behavior —
    /// and attach the hook's telemetry via
    /// [`CellMeasurement::with_telemetry`].
    fn run_cell_traced(&self, cell: &JobCell, trace: TraceMode) -> Option<CellMeasurement> {
        let _ = trace;
        self.run_cell(cell)
    }

    /// Version of this spec's *measurement code*. The result store keys
    /// entries by `(content key, code fingerprint)` and the fingerprint
    /// folds this in — bump it whenever `run_cell`'s semantics change,
    /// and every cached cell of this experiment (and only this
    /// experiment) is invalidated on the next resumed sweep.
    fn code_version(&self) -> u32 {
        1
    }
}

/// The fingerprint cached results are keyed under: entry-format version,
/// workspace version, experiment name and the spec's own
/// [`Experiment::code_version`], condensed through the workspace FNV-1a.
/// A pure function of the code: to force a cold sweep, point `--store`
/// at a fresh directory.
pub fn code_fingerprint(exp: &dyn Experiment) -> u64 {
    let mut h = Fnv1a::new();
    h.write_bytes(leaky_store::FORMAT_VERSION.as_bytes());
    h.write_bytes(env!("CARGO_PKG_VERSION").as_bytes());
    h.write_bytes(exp.name().as_bytes());
    h.write_u64(exp.code_version() as u64);
    h.finish()
}

/// How one cell ended.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome {
    /// The cell measured successfully.
    Measured(CellMeasurement),
    /// The cell is structurally unsupported on this configuration (the
    /// paper's missing MT columns); a gap, not an error.
    Unsupported,
    /// Every attempt of the cell panicked or errored. The sweep keeps
    /// going; the failure becomes a row (excluded from summaries, like
    /// unsupported cells) instead of killing the run.
    Failed {
        /// The final attempt's panic/error message.
        message: String,
        /// How many attempts were made (1 + retries).
        attempts: u32,
    },
}

/// The outcome of one cell: its coordinates plus how it ended.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// The cell that was run.
    pub cell: JobCell,
    /// How it ended.
    pub outcome: CellOutcome,
}

impl CellResult {
    /// The measured metrics, if the cell measured.
    pub fn metrics(&self) -> Option<&[Metric]> {
        match &self.outcome {
            CellOutcome::Measured(m) => Some(&m.metrics),
            _ => None,
        }
    }

    /// Channel provenance, when the cell's measurement attached any.
    pub fn provenance(&self) -> Option<&CellProvenance> {
        match &self.outcome {
            CellOutcome::Measured(m) => m.provenance.as_ref(),
            _ => None,
        }
    }

    /// Trace telemetry, when the cell ran traced.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        match &self.outcome {
            CellOutcome::Measured(m) => m.telemetry.as_deref(),
            _ => None,
        }
    }

    /// Looks up a metric value by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics()?
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The failure message and attempt count, if the cell failed.
    pub fn failure(&self) -> Option<(&str, u32)> {
        match &self.outcome {
            CellOutcome::Failed { message, attempts } => Some((message.as_str(), *attempts)),
            _ => None,
        }
    }
}

/// A completed sweep: ordered cell results plus per-metric summaries.
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// Experiment name.
    pub name: &'static str,
    /// Experiment title.
    pub title: &'static str,
    /// Whether the quick grid was used.
    pub quick: bool,
    /// Worker threads the sweep ran on (affects wall time only).
    pub jobs: usize,
    /// Cell results, in grid order.
    pub cells: Vec<CellResult>,
    /// Per-metric Welford summaries over all measured cells, keyed by
    /// metric name in first-appearance order. Built by merging per-cell
    /// accumulators in grid order (`merge_ordered`), so they are
    /// bit-identical at any `jobs`.
    pub summaries: Vec<(String, OnlineStats)>,
    /// Store traffic of this run, when it ran against a result store.
    /// Operator telemetry (stderr), never part of deterministic output.
    pub store_stats: Option<StoreStats>,
    /// Wall-clock nanoseconds of the execution phase. Excluded from all
    /// deterministic renderings; `perf_report`'s sweep-throughput
    /// metrics aggregate it via `leaky_bench::sweep::quick_sweep_throughput`.
    pub elapsed_ns: u128,
}

impl SweepRun {
    /// Number of cells that failed every attempt.
    pub fn failed_cells(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| matches!(c.outcome, CellOutcome::Failed { .. }))
            .count()
    }
}

/// Everything configurable about one sweep execution. `Default` is the
/// plain path: full grid, one worker, no retries, no store, no faults.
#[derive(Debug, Default)]
pub struct RunConfig<'s> {
    /// Use the quick (CI smoke) grid.
    pub quick: bool,
    /// Worker threads (clamped to at least 1).
    pub jobs: usize,
    /// Extra attempts for a panicked/errored cell, each re-seeded by
    /// folding the attempt index into the cell stream
    /// ([`crate::seed::attempt_seed`]).
    pub retries: u32,
    /// Serve cells from the store when a valid entry exists (otherwise
    /// the store, if any, is write-through only).
    pub resume: bool,
    /// The result store to persist into / resume from.
    pub store: Option<&'s ResultStore>,
    /// Deterministic fault injection (tests and drills; empty in
    /// production).
    pub faults: FaultPlan,
    /// Trace level passed to [`Experiment::run_cell_traced`]
    /// (`TraceMode::Off`, the default, uses the plain `run_cell` path).
    pub trace: TraceMode,
}

/// Why a sweep did not complete. Cell failures are *not* errors — they
/// become [`CellOutcome::Failed`] rows; this type covers the sweep-level
/// stops.
#[derive(Debug)]
pub enum SweepError {
    /// A planned [`FaultKind::Abort`] stopped the sweep mid-grid (the
    /// kill-and-resume drill). Cells completed before the stop were
    /// already persisted if a store was attached.
    Aborted {
        /// Content key of the cell whose dispatch stopped the sweep.
        key: String,
    },
    /// The result store failed with a real I/O error.
    Store(StoreError),
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Aborted { key } => {
                write!(f, "sweep aborted by fault plan at cell {key:?}")
            }
            SweepError::Store(e) => write!(f, "result store: {e}"),
        }
    }
}

impl std::error::Error for SweepError {}

fn to_stored(outcome: &CellOutcome) -> Option<StoredOutcome> {
    match outcome {
        CellOutcome::Measured(m) => Some(StoredOutcome::Measured {
            metrics: m
                .metrics
                .iter()
                .map(|m| StoredMetric {
                    name: m.name.clone(),
                    value: m.value,
                })
                .collect(),
            provenance: m.provenance.as_ref().map(|p| StoredProvenance {
                channel: p.channel.clone(),
                profile: p.profile.clone(),
                params: p.params.clone(),
            }),
            telemetry: m.telemetry.clone(),
        }),
        CellOutcome::Unsupported => Some(StoredOutcome::Unsupported),
        // Failures are never cached: the next run must retry, not
        // resurrect a dead cell from disk.
        CellOutcome::Failed { .. } => None,
    }
}

fn from_stored(stored: StoredOutcome) -> CellOutcome {
    match stored {
        StoredOutcome::Measured {
            metrics,
            provenance,
            telemetry,
        } => CellOutcome::Measured(CellMeasurement {
            metrics: metrics
                .into_iter()
                .map(|m| Metric {
                    name: m.name,
                    value: m.value,
                })
                .collect(),
            provenance: provenance.map(|p| CellProvenance {
                channel: p.channel,
                profile: p.profile,
                params: p.params,
            }),
            telemetry,
        }),
        StoredOutcome::Unsupported => CellOutcome::Unsupported,
    }
}

/// Whether a stored hit can serve the sweep's trace mode. An untraced
/// sweep accepts any entry (extra telemetry is stripped); a traced sweep
/// accepts only entries whose persisted telemetry was captured in the
/// *same* mode — anything else recomputes, and the write-through put
/// upgrades the entry. Unsupported cells carry no telemetry by nature
/// and always serve.
fn hit_serves_trace(stored: &StoredOutcome, trace: TraceMode) -> bool {
    match stored {
        StoredOutcome::Unsupported => true,
        StoredOutcome::Measured { telemetry, .. } => match trace {
            TraceMode::Off => true,
            mode => telemetry.as_ref().is_some_and(|t| t.mode == mode),
        },
    }
}

/// What a worker hands back for one cell.
enum Computed {
    /// The cell finished with an outcome (`cached` when it was served
    /// from the store without recomputation).
    Done { outcome: CellOutcome, cached: bool },
    /// The cell carries a planned abort: stop the sweep.
    Abort,
}

/// Expands, executes, collects, and summarizes one experiment under the
/// given configuration.
///
/// Fault tolerance, in dispatch order per cell: a valid store entry
/// (under [`code_fingerprint`]) short-circuits the cell entirely;
/// otherwise up to `1 + retries` attempts run, each wrapped in
/// `catch_unwind` with the attempt index folded into the cell's RNG
/// stream, and a cell that exhausts its attempts becomes a
/// [`CellOutcome::Failed`] row rather than killing the sweep. Freshly
/// computed outcomes are written through to the store *as they
/// complete*, so even a sweep that later aborts resumes for free.
///
/// # Panics
///
/// Panics if a cell's channel spec violates the §V constraints
/// (`ChannelSpec::build`).
pub fn run_experiment_with(
    exp: &dyn Experiment,
    cfg: &RunConfig<'_>,
) -> Result<SweepRun, SweepError> {
    let cells = exp.grid(cfg.quick).expand();
    let fingerprint = code_fingerprint(exp);
    let mut stats = cfg.store.map(|_| StoreStats::default());

    // Resume phase: consult the store for every cell up front (cheap
    // reads, deterministic order), so the pool only sees real work.
    let mut cached_outcomes: Vec<Option<CellOutcome>> = (0..cells.len()).map(|_| None).collect();
    if let (Some(store), Some(stats), true) = (cfg.store, stats.as_mut(), cfg.resume) {
        for (cell, slot) in cells.iter().zip(&mut cached_outcomes) {
            match store
                .get(&cell.key, fingerprint)
                .map_err(SweepError::Store)?
            {
                Lookup::Hit(stored) => {
                    if hit_serves_trace(&stored, cfg.trace) {
                        stats.hits += 1;
                        let mut outcome = from_stored(stored);
                        if cfg.trace == TraceMode::Off {
                            // A traced entry serves an untraced sweep,
                            // minus the telemetry it didn't ask for.
                            if let CellOutcome::Measured(m) = &mut outcome {
                                m.telemetry = None;
                            }
                        }
                        *slot = Some(outcome);
                    } else {
                        // Cached without (or under a different) trace
                        // mode: the entry cannot supply the telemetry
                        // this sweep wants, so recompute it.
                        stats.misses += 1;
                    }
                }
                Lookup::Miss => stats.misses += 1,
                Lookup::Stale => stats.stale += 1,
                Lookup::Quarantined => stats.quarantined += 1,
            }
        }
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "elapsed_ns is operator telemetry only; renderers and content keys never consume it"
    )]
    let start = Instant::now();

    let worker = |i: usize| -> Computed {
        if let Some(outcome) = &cached_outcomes[i] {
            return Computed::Done {
                outcome: outcome.clone(),
                cached: true,
            };
        }
        let cell = &cells[i];
        let fault = cfg.faults.get(&cell.key);
        if fault.map(|f| f.kind) == Some(FaultKind::Abort) {
            return Computed::Abort;
        }
        let attempts = cfg.retries.saturating_add(1);
        let mut last_message = String::new();
        for attempt in 0..attempts {
            let injected = fault.filter(|f| attempt < f.attempts).map(|f| f.kind);
            if injected == Some(FaultKind::Error) {
                last_message = format!("injected error on {} (attempt {attempt})", cell.key);
                continue;
            }
            let attempt_cell = cell.with_attempt(attempt);
            let ran = catch_unwind(AssertUnwindSafe(|| {
                if injected == Some(FaultKind::Panic) {
                    // Deliberate fault injection: the surrounding
                    // catch_unwind is the system under test.
                    panic!("injected panic on {} (attempt {attempt})", attempt_cell.key);
                }
                if cfg.trace == TraceMode::Off {
                    exp.run_cell(&attempt_cell)
                } else {
                    exp.run_cell_traced(&attempt_cell, cfg.trace)
                }
            }));
            match ran {
                Ok(Some(m)) => {
                    return Computed::Done {
                        outcome: CellOutcome::Measured(m),
                        cached: false,
                    }
                }
                Ok(None) => {
                    return Computed::Done {
                        outcome: CellOutcome::Unsupported,
                        cached: false,
                    }
                }
                Err(payload) => last_message = panic_message(payload).message,
            }
        }
        Computed::Done {
            outcome: CellOutcome::Failed {
                message: last_message,
                attempts,
            },
            cached: false,
        }
    };

    // Collection: write-through persistence happens here, on the caller
    // thread, as completions arrive — so a later crash or abort loses
    // nothing that already finished.
    let mut store_error: Option<StoreError> = None;
    let mut aborted: Option<String> = None;
    let pool_run = run_ordered_observed(cfg.jobs.max(1), cells.len(), worker, |i, result| {
        let Ok(computed) = result else {
            return Flow::Continue;
        };
        match computed {
            Computed::Abort => {
                aborted = Some(cells[i].key.clone());
                Flow::Stop
            }
            Computed::Done { outcome, cached } => {
                let (Some(store), false) = (cfg.store, *cached) else {
                    return Flow::Continue;
                };
                let Some(stored) = to_stored(outcome) else {
                    return Flow::Continue;
                };
                match store.put(&cells[i].key, fingerprint, &stored) {
                    Ok(()) => {
                        if let Some(s) = stats.as_mut() {
                            s.writes += 1;
                        }
                        // A planned corruption damages the entry we just
                        // wrote, so the *next* resumed run exercises
                        // quarantine + selective recompute.
                        if cfg.faults.get(&cells[i].key).map(|f| f.kind) == Some(FaultKind::Corrupt)
                        {
                            if let Err(e) = store.corrupt_entry(&cells[i].key) {
                                store_error = Some(e);
                                return Flow::Stop;
                            }
                        }
                        Flow::Continue
                    }
                    Err(e) => {
                        store_error = Some(e);
                        Flow::Stop
                    }
                }
            }
        }
    });
    let elapsed_ns = start.elapsed().as_nanos();

    if let Some(e) = store_error {
        return Err(SweepError::Store(e));
    }
    if let Some(key) = aborted {
        return Err(SweepError::Aborted { key });
    }

    let results: Vec<CellResult> = cells
        .into_iter()
        .zip(pool_run.slots)
        .map(|(cell, slot)| {
            let outcome = match slot {
                Some(Ok(Computed::Done { outcome, .. })) => outcome,
                // A panic that somehow escaped the per-attempt catch
                // (defensive: the pool's own isolation caught it).
                Some(Err(p)) => CellOutcome::Failed {
                    message: p.message,
                    attempts: cfg.retries.saturating_add(1),
                },
                // Only reachable if the pool stopped without an abort or
                // store error, which the branches above already returned
                // on — keep the row total anyway.
                Some(Ok(Computed::Abort)) | None => CellOutcome::Failed {
                    message: "cell never ran (sweep stopped early)".to_string(),
                    attempts: 0,
                },
            };
            CellResult { cell, outcome }
        })
        .collect();

    // Summaries: one single-sample Welford accumulator per (cell, metric),
    // merged strictly in grid order. The grouping of merges is part of the
    // bit-identical contract (f64 addition is not associative), which is
    // why this happens after ordered collection, not inside the workers.
    // Failed cells contribute nothing, exactly like unsupported ones.
    let mut names: Vec<String> = Vec::new();
    for r in &results {
        for m in r.metrics().into_iter().flatten() {
            if !names.contains(&m.name) {
                names.push(m.name.clone());
            }
        }
    }
    let summaries = names
        .into_iter()
        .map(|name| {
            let stats = merge_ordered(
                results
                    .iter()
                    .filter_map(|r| r.metric(&name).map(|v| OnlineStats::from_iter([v]))),
            );
            (name, stats)
        })
        .collect();

    Ok(SweepRun {
        name: exp.name(),
        title: exp.title(),
        quick: cfg.quick,
        jobs: cfg.jobs.max(1),
        cells: results,
        summaries,
        store_stats: stats,
        elapsed_ns,
    })
}

/// Expands, executes, collects, and summarizes one experiment on the
/// plain path: no store, no faults, no retries.
///
/// # Panics
///
/// Panics if a cell's channel spec violates the §V constraints
/// (`ChannelSpec::build`).
pub fn run_experiment(exp: &dyn Experiment, quick: bool, jobs: usize) -> SweepRun {
    let cfg = RunConfig {
        quick,
        jobs,
        ..RunConfig::default()
    };
    match run_experiment_with(exp, &cfg) {
        Ok(run) => run,
        // With no store and no fault plan, neither sweep-level error
        // source exists.
        Err(e) => unreachable!("fault-free sweep failed: {e}"),
    }
}

/// A registration clash: two experiments answering to one name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DuplicateExperiment {
    /// The contested name.
    pub name: &'static str,
}

impl fmt::Display for DuplicateExperiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "duplicate experiment {:?}: two specs answering to one CLI filter would make \
             \"which sweep ran?\" ambiguous",
            self.name
        )
    }
}

impl std::error::Error for DuplicateExperiment {}

/// The set of registered experiments, looked up by name.
#[derive(Default)]
pub struct Registry {
    entries: Vec<Box<dyn Experiment>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Builds a registry from experiments, rejecting duplicates as a
    /// value — the path for dynamically assembled registries (config
    /// files, tests, future scenario bundles).
    pub fn from_experiments(
        exps: impl IntoIterator<Item = Box<dyn Experiment>>,
    ) -> Result<Registry, DuplicateExperiment> {
        let mut reg = Registry::new();
        for exp in exps {
            reg.try_register(exp)?;
        }
        Ok(reg)
    }

    /// Adds an experiment, rejecting a duplicate name as a value.
    pub fn try_register(&mut self, exp: Box<dyn Experiment>) -> Result<(), DuplicateExperiment> {
        if self.get(exp.name()).is_some() {
            return Err(DuplicateExperiment { name: exp.name() });
        }
        self.entries.push(exp);
        Ok(())
    }

    /// Adds an experiment.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate name. This is the *static registration*
    /// variant for compiled-in specs (`standard_registry`), where a
    /// duplicate is a code bug caught by the first test that builds the
    /// registry; fallible callers use [`try_register`](Self::try_register).
    pub fn register(&mut self, exp: Box<dyn Experiment>) {
        // Static registration of compiled-in specs; dynamic paths use
        // try_register.
        self.try_register(exp).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Looks up an experiment by name.
    pub fn get(&self, name: &str) -> Option<&dyn Experiment> {
        self.entries
            .iter()
            .find(|e| e.name() == name)
            .map(|e| e.as_ref())
    }

    /// All experiments, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Experiment> {
        self.entries.iter().map(|e| e.as_ref())
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|e| e.name()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Fault, FaultKind};
    use crate::seed::cell_rng;
    use rand::Rng as _;

    /// A cheap spec exercising the full machinery, including derived
    /// per-cell streams and unsupported cells.
    struct Demo;

    impl Experiment for Demo {
        fn name(&self) -> &'static str {
            "demo"
        }
        fn title(&self) -> &'static str {
            "machinery demo"
        }
        fn grid(&self, quick: bool) -> ParamGrid {
            let hi = if quick { 4 } else { 16 };
            ParamGrid::new(self.name())
                .axis_strs("mode", ["on", "off"])
                .axis_ints("i", 0..hi)
        }
        fn run_cell(&self, cell: &JobCell) -> Option<CellMeasurement> {
            if cell.str("mode") == "off" && cell.int("i") % 5 == 4 {
                return None; // exercise unsupported cells
            }
            let mut rng = cell_rng(cell);
            let noise: f64 = rng.gen_range(0.0..1e-3);
            Some(
                vec![
                    Metric::new("value", cell.int("i") as f64 + noise),
                    Metric::new("noise", noise),
                ]
                .into(),
            )
        }
    }

    fn flat(run: &SweepRun) -> Vec<(String, CellOutcome)> {
        run.cells
            .iter()
            .map(|c| (c.cell.key.clone(), c.outcome.clone()))
            .collect()
    }

    #[test]
    fn jobs_count_does_not_change_results() {
        let reference = run_experiment(&Demo, false, 1);
        for jobs in [2, 4, 9] {
            let parallel = run_experiment(&Demo, false, jobs);
            assert_eq!(flat(&parallel), flat(&reference), "jobs = {jobs}");
            assert_eq!(parallel.summaries.len(), reference.summaries.len());
            for (a, b) in parallel.summaries.iter().zip(&reference.summaries) {
                assert_eq!(a.0, b.0);
                // Bit-identical, not approximately equal.
                assert_eq!(a.1, b.1, "summary {:?} drifted at jobs = {jobs}", a.0);
            }
        }
    }

    #[test]
    fn summaries_skip_unsupported_cells() {
        let run = run_experiment(&Demo, false, 3);
        let unsupported = run
            .cells
            .iter()
            .filter(|c| c.outcome == CellOutcome::Unsupported)
            .count();
        assert!(unsupported > 0, "demo grid must contain gaps");
        let (name, stats) = &run.summaries[0];
        assert_eq!(name, "value");
        assert_eq!(stats.count() as usize, run.cells.len() - unsupported);
    }

    #[test]
    fn quick_grid_is_smaller() {
        assert!(Demo.grid(true).len() < Demo.grid(false).len());
    }

    #[test]
    fn registry_lookup_and_duplicate_rejection() {
        let mut reg = Registry::new();
        reg.register(Box::new(Demo));
        assert_eq!(reg.names(), vec!["demo"]);
        assert!(reg.get("demo").is_some());
        assert!(reg.get("nope").is_none());
        let dup = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            reg.register(Box::new(Demo))
        }));
        assert!(dup.is_err());
    }

    #[test]
    fn try_register_reports_duplicates_as_values() {
        let mut reg = Registry::new();
        assert!(reg.try_register(Box::new(Demo)).is_ok());
        assert_eq!(
            reg.try_register(Box::new(Demo)),
            Err(DuplicateExperiment { name: "demo" })
        );
        assert_eq!(reg.names(), vec!["demo"], "the duplicate was not added");

        let built = Registry::from_experiments([Box::new(Demo) as Box<dyn Experiment>])
            .expect("unique names build");
        assert!(built.get("demo").is_some());
        let clash = Registry::from_experiments([
            Box::new(Demo) as Box<dyn Experiment>,
            Box::new(Demo) as Box<dyn Experiment>,
        ]);
        assert_eq!(clash.err(), Some(DuplicateExperiment { name: "demo" }));
    }

    #[test]
    fn a_panicking_cell_becomes_a_failed_row_not_a_crash() {
        let faults = FaultPlan::none().with(
            "demo/mode=on/i=2",
            Fault {
                kind: FaultKind::Panic,
                attempts: 99,
            },
        );
        let reference = run_experiment_with(
            &Demo,
            &RunConfig {
                quick: true,
                jobs: 1,
                faults: faults.clone(),
                ..RunConfig::default()
            },
        )
        .expect("sweep completes despite the dead cell");
        assert_eq!(reference.failed_cells(), 1);
        let dead = reference
            .cells
            .iter()
            .find(|c| c.cell.key == "demo/mode=on/i=2")
            .expect("cell present");
        let (message, attempts) = dead.failure().expect("failed row");
        assert!(message.contains("injected panic"), "message: {message}");
        assert_eq!(attempts, 1, "no retries configured");
        // Failed cells stay out of summaries, like unsupported ones.
        let (name, stats) = &reference.summaries[0];
        assert_eq!(name, "value");
        let measured = reference
            .cells
            .iter()
            .filter(|c| c.metrics().is_some())
            .count();
        assert_eq!(stats.count() as usize, measured);
        // And the whole run, failure row included, is jobs-invariant.
        for jobs in [2, 4] {
            let parallel = run_experiment_with(
                &Demo,
                &RunConfig {
                    quick: true,
                    jobs,
                    faults: faults.clone(),
                    ..RunConfig::default()
                },
            )
            .expect("parallel sweep completes");
            assert_eq!(flat(&parallel), flat(&reference), "jobs = {jobs}");
        }
    }

    #[test]
    fn bounded_retries_rescue_a_flaky_cell() {
        // panic@2 sabotages attempts 0 and 1: with --retries 2 the third
        // attempt (attempt index 2) succeeds; with fewer it fails.
        let faults = FaultPlan::none().with(
            "demo/mode=on/i=1",
            Fault {
                kind: FaultKind::Panic,
                attempts: 2,
            },
        );
        let rescued = run_experiment_with(
            &Demo,
            &RunConfig {
                quick: true,
                jobs: 2,
                retries: 2,
                faults: faults.clone(),
                ..RunConfig::default()
            },
        )
        .expect("sweep completes");
        assert_eq!(rescued.failed_cells(), 0);
        let cell = rescued
            .cells
            .iter()
            .find(|c| c.cell.key == "demo/mode=on/i=1")
            .expect("cell present");
        // The rescue ran on attempt 2, whose stream is deliberately
        // different from attempt 0's (attempt_seed fold).
        let attempt0 = run_experiment(&Demo, true, 1);
        let plain = attempt0
            .cells
            .iter()
            .find(|c| c.cell.key == "demo/mode=on/i=1")
            .expect("cell present");
        assert_ne!(
            cell.metric("noise"),
            plain.metric("noise"),
            "a retried cell must draw from the attempt-folded stream"
        );

        let exhausted = run_experiment_with(
            &Demo,
            &RunConfig {
                quick: true,
                jobs: 2,
                retries: 1,
                faults,
                ..RunConfig::default()
            },
        )
        .expect("sweep completes");
        assert_eq!(exhausted.failed_cells(), 1);
        let (_, attempts) = exhausted
            .cells
            .iter()
            .find_map(|c| c.failure())
            .expect("failed row");
        assert_eq!(attempts, 2, "1 + retries attempts were made");
    }

    #[test]
    fn error_faults_take_the_structured_failure_path() {
        let faults = FaultPlan::none().with(
            "demo/mode=off/i=0",
            Fault {
                kind: FaultKind::Error,
                attempts: 1,
            },
        );
        let run = run_experiment_with(
            &Demo,
            &RunConfig {
                quick: true,
                jobs: 1,
                faults,
                ..RunConfig::default()
            },
        )
        .expect("sweep completes");
        let (message, _) = run
            .cells
            .iter()
            .find_map(|c| c.failure())
            .expect("failed row");
        assert!(message.contains("injected error"), "message: {message}");
    }

    /// A spec whose traced path attaches real telemetry, for the store
    /// round-trip tests.
    struct TracedDemo;

    impl Experiment for TracedDemo {
        fn name(&self) -> &'static str {
            "traced_demo"
        }
        fn title(&self) -> &'static str {
            "telemetry persistence demo"
        }
        fn grid(&self, _quick: bool) -> ParamGrid {
            ParamGrid::new(self.name()).axis_ints("i", 0..4)
        }
        fn run_cell(&self, cell: &JobCell) -> Option<CellMeasurement> {
            Some(vec![Metric::new("value", cell.int("i") as f64)].into())
        }
        fn run_cell_traced(&self, cell: &JobCell, trace: TraceMode) -> Option<CellMeasurement> {
            let mut hook = leaky_trace::TraceHook::new(trace);
            hook.emit(|| leaky_trace::TraceEvent::LcpStall {
                thread: 0,
                stall_cycles: cell.int("i") as f64 + 0.5,
            });
            Some(
                CellMeasurement::from(vec![Metric::new("value", cell.int("i") as f64)])
                    .with_telemetry(hook.into_telemetry()),
            )
        }
    }

    #[test]
    fn resume_serves_cached_cells_with_telemetry() {
        let root =
            std::env::temp_dir().join(format!("leaky_exp_telemetry_resume_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = ResultStore::open(&root).expect("store opens");
        let traced_cfg = |jobs| RunConfig {
            quick: true,
            jobs,
            resume: true,
            store: Some(&store),
            trace: TraceMode::Summary,
            ..RunConfig::default()
        };

        let cold = run_experiment_with(&TracedDemo, &traced_cfg(1)).expect("cold run");
        let stats = cold.store_stats.expect("stats");
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.writes, cold.cells.len());

        // Warm traced run: every cell is a hit AND carries the exact
        // telemetry the cold run computed.
        let warm = run_experiment_with(&TracedDemo, &traced_cfg(2)).expect("warm run");
        let stats = warm.store_stats.expect("stats");
        assert_eq!(stats.hits, warm.cells.len(), "all served from cache");
        assert_eq!(stats.writes, 0);
        for (a, b) in cold.cells.iter().zip(&warm.cells) {
            let t_cold = a.telemetry().expect("cold cell traced");
            let t_warm = b.telemetry().expect("cached cell still traced");
            assert_eq!(t_cold, t_warm, "telemetry survives the store round-trip");
        }

        // An untraced resume serves the same entries, telemetry stripped.
        let untraced = run_experiment_with(
            &TracedDemo,
            &RunConfig {
                quick: true,
                jobs: 1,
                resume: true,
                store: Some(&store),
                ..RunConfig::default()
            },
        )
        .expect("untraced run");
        let stats = untraced.store_stats.expect("stats");
        assert_eq!(stats.hits, untraced.cells.len());
        assert!(untraced.cells.iter().all(|c| c.telemetry().is_none()));

        // A different trace mode cannot be served from summary-mode
        // entries: those cells recompute (and upgrade the entries).
        let events = run_experiment_with(
            &TracedDemo,
            &RunConfig {
                quick: true,
                jobs: 1,
                resume: true,
                store: Some(&store),
                trace: TraceMode::Events,
                ..RunConfig::default()
            },
        )
        .expect("events run");
        let stats = events.store_stats.expect("stats");
        assert_eq!(stats.hits, 0, "summary entries cannot serve --trace=events");
        assert_eq!(stats.misses, events.cells.len());
        assert_eq!(stats.writes, events.cells.len());
        assert!(events
            .cells
            .iter()
            .all(|c| c.telemetry().is_some_and(|t| t.mode == TraceMode::Events)));

        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn abort_faults_stop_the_sweep() {
        let faults = FaultPlan::none().with(
            "demo/mode=on/i=3",
            Fault {
                kind: FaultKind::Abort,
                attempts: 1,
            },
        );
        let err = run_experiment_with(
            &Demo,
            &RunConfig {
                quick: true,
                jobs: 1,
                faults,
                ..RunConfig::default()
            },
        )
        .expect_err("abort must surface");
        match err {
            SweepError::Aborted { key } => assert_eq!(key, "demo/mode=on/i=3"),
            other => panic!("expected Aborted, got {other:?}"),
        }
    }
}
