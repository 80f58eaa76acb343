//! The composed core: frontend + backend + power + timers + SMT driver.

use leaky_backend::Backend;
use leaky_frontend::{
    CostModel, EdgeNote, Frontend, FrontendConfig, IterationReport, SmtDsbPolicy, ThreadId,
    UarchProfile,
};
use leaky_isa::BlockChain;
use leaky_power::{DeliveryClass, PowerModel, Rapl};
use leaky_stats::add_repeated;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::model::{MicrocodePatch, ProcessorModel};
use crate::timer::{NoiseModel, Timer};

/// Upper bound on memoised backend-throughput entries per core.
///
/// The covert channels juggle at most a handful of chains and always hit.
/// The Table VII L1I Prime+Probe attack does not: it cycles through 256
/// prime chains, 32 probe functions and its driver loop in a fixed order,
/// so this MRU list (like the frontend's 32-plan cache) misses on every
/// one of its runs. A miss recomputes [`Backend::throughput_cycles`]
/// without allocating, in O(255·k) for the chain's k distinct port masks.
const BACKEND_CACHE_CAPACITY: usize = 64;

/// The result of running a loop on one thread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoopRun {
    /// Wall cycles the loop occupied on its thread (frontend/backend
    /// bottleneck combined).
    pub cycles: f64,
    /// Iterations executed.
    pub iterations: u64,
    /// Frontend activity during the run.
    pub report: IterationReport,
}

impl LoopRun {
    /// Instructions retired per cycle over this run.
    pub fn ipc(&self, instructions_per_iteration: u64) -> f64 {
        if self.cycles <= 0.0 {
            0.0
        } else {
            (self.iterations * instructions_per_iteration) as f64 / self.cycles
        }
    }
}

/// Work description for [`Core::run_concurrent`].
#[derive(Debug, Clone)]
pub struct ThreadWork<'a> {
    /// The loop body.
    pub chain: &'a BlockChain,
    /// Iterations to run.
    pub iterations: u64,
}

/// A simulated physical core with two hardware threads.
///
/// Owns per-thread cycle clocks, the shared frontend, the RAPL energy
/// counter and a seeded noise source, so whole experiments are
/// reproducible from a single seed.
#[derive(Debug, Clone)]
pub struct Core {
    patch: MicrocodePatch,
    frontend: Frontend,
    timer: Timer,
    accounts: Accounts,
}

/// Everything a step is charged to apart from the frontend: clocks,
/// backend, energy and the scheduling RNG. It is a field of its own so
/// that [`Core::run_concurrent`] can charge steps while its
/// [`leaky_frontend::SmtWalk`] holds the frontend.
#[derive(Debug, Clone)]
struct Accounts {
    model: ProcessorModel,
    backend: Backend,
    power: PowerModel,
    rapl: Rapl,
    /// A thread clock below which no RAPL deposit reaches an update
    /// boundary ([`quiet_clock`]), refreshed whenever `apply` deposits
    /// past it.
    rapl_quiet: f64,
    clock: [f64; 2],
    /// Sibling frontend demand (0..~1) used by the fingerprinting victim
    /// model to modulate SMT sharing.
    sibling_demand: [f64; 2],
    /// Whether `sibling_demand` is driven by a trace-based victim model
    /// (fingerprinting) rather than simulated sibling code.
    trace_sibling: [bool; 2],
    /// Each thread's recent µops-per-cycle, used to share backend width
    /// proportionally under SMT.
    recent_upc: [f64; 2],
    /// Memoised backend throughput per chain, keyed by the precomputed
    /// ([`BlockChain::key`], frontend profile key) pair and kept
    /// MRU-first — `finish_run` is the hottest path, so the common case
    /// is one equality probe on the front slot. The profile-key half
    /// makes a [`Frontend::reconfigure`] through [`Core::frontend_mut`]
    /// safe: entries memoised under a previous configuration stop
    /// matching instead of leaking into the new one.
    backend_cache: Vec<((u64, u64), f64)>,
    rng: StdRng,
}

/// The inputs of a charge that the frontend supplies, plus the SMT
/// backend factor ([`Accounts::smt_factor`]).
struct Cost<'a> {
    profile_key: u64,
    costs: &'a CostModel,
    factor: f64,
}

/// What one run costs its thread: wall cycles and energy.
#[derive(Debug, Clone, Copy, Default)]
struct Charge {
    cycles: f64,
    joules: f64,
}

impl Core {
    /// Creates a core for a processor model under the default (LSD-enabled)
    /// microcode, with a deterministic seed.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate cache geometry (`SetAssocCache::new`).
    pub fn new(model: ProcessorModel, seed: u64) -> Self {
        Self::with_microcode(model, MicrocodePatch::Patch1, seed)
    }

    /// Creates a core under an explicit microcode patch (§X: switching
    /// patches requires a restart, hence a fresh core).
    ///
    /// # Panics
    ///
    /// Panics on a degenerate cache geometry (`SetAssocCache::new`).
    pub fn with_microcode(model: ProcessorModel, patch: MicrocodePatch, seed: u64) -> Self {
        let config = FrontendConfig {
            lsd_enabled: model.lsd_enabled_under(patch),
            dsb_policy: SmtDsbPolicy::Competitive,
            ..FrontendConfig::default()
        };
        Self::with_frontend_config(model, patch, config, seed)
    }

    /// Creates a core running a registered (or perturbed) microarchitecture
    /// profile: geometry, cost model and LSD availability come from the
    /// profile, further gated by the processor model / microcode patch
    /// (a patch can disable loop streaming, never enable it on a profile
    /// that lacks it). The `skylake` profile reproduces
    /// [`Core::with_microcode`] bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate cache geometry (`SetAssocCache::new`).
    pub fn with_profile(
        model: ProcessorModel,
        patch: MicrocodePatch,
        profile: &UarchProfile,
        seed: u64,
    ) -> Self {
        Self::with_frontend_config(model, patch, model.profile_config(patch, profile), seed)
    }

    /// Creates a core with a fully explicit frontend configuration — the
    /// hook used by defense evaluations (§XII: constant-time frontends) and
    /// policy ablations.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate cache geometry (`SetAssocCache::new`).
    pub fn with_frontend_config(
        model: ProcessorModel,
        patch: MicrocodePatch,
        config: FrontendConfig,
        seed: u64,
    ) -> Self {
        let rapl = Rapl::new(seed ^ 0x9e37_79b9);
        Core {
            frontend: Frontend::new(config),
            timer: Timer::new(NoiseModel::with_sigma(model.timing_noise_sigma), seed),
            accounts: Accounts {
                backend: Backend::skylake(),
                power: PowerModel::gold6226(),
                rapl_quiet: quiet_clock(&model, &rapl),
                rapl,
                clock: [0.0, 0.0],
                sibling_demand: [0.0, 0.0],
                trace_sibling: [false, false],
                recent_upc: [0.0, 0.0],
                backend_cache: Vec::new(),
                rng: StdRng::seed_from_u64(seed ^ 0x5851_f42d),
                model,
            },
            patch,
        }
    }

    /// The processor model.
    pub fn model(&self) -> &ProcessorModel {
        &self.accounts.model
    }

    /// The active microcode patch.
    pub fn microcode(&self) -> MicrocodePatch {
        self.patch
    }

    /// The frontend (for assertions and advanced drivers).
    pub fn frontend(&self) -> &Frontend {
        &self.frontend
    }

    /// Mutable frontend access (attack drivers use this for partition
    /// control and state flushes).
    pub fn frontend_mut(&mut self) -> &mut Frontend {
        &mut self.frontend
    }

    /// Installs a trace hook on the frontend (see
    /// [`Frontend::set_trace`]); behavior-free observability.
    pub fn set_trace(&mut self, hook: leaky_frontend::TraceHook) {
        self.frontend.set_trace(hook);
    }

    /// Mutable access to the frontend's trace hook, for emitting
    /// channel-level events from drivers above the core.
    pub fn trace_mut(&mut self) -> &mut leaky_frontend::TraceHook {
        self.frontend.trace_mut()
    }

    /// Detaches the frontend's trace hook, leaving tracing off.
    pub fn take_trace(&mut self) -> leaky_frontend::TraceHook {
        self.frontend.take_trace()
    }

    /// Drops the frontend's state graphs (see
    /// [`Frontend::release_graphs`]); the walks of later calls rebuild
    /// them. Behavior-free: every result stays bit-identical.
    pub fn release_graphs(&mut self) {
        self.frontend.release_graphs();
    }

    /// The backend model.
    pub fn backend(&self) -> &Backend {
        &self.accounts.backend
    }

    /// Current cycle clock of a thread.
    pub fn clock(&self, tid: ThreadId) -> f64 {
        self.accounts.clock[tid.index()]
    }

    /// Wall-clock seconds elapsed (max over thread clocks).
    pub fn seconds(&self) -> f64 {
        self.accounts.seconds()
    }

    /// Marks a thread active/idle (delegates to the frontend's partition
    /// logic).
    pub fn set_active(&mut self, tid: ThreadId, active: bool) {
        self.frontend.set_active(tid, active);
    }

    /// Sets the sibling-demand factor used when `tid`'s sibling runs a
    /// modeled (trace-based) victim rather than simulated code.
    ///
    /// # Panics
    ///
    /// Panics if `demand` is outside `0.0..=4.0`.
    pub fn set_sibling_demand(&mut self, tid: ThreadId, demand: f64) {
        assert!((0.0..=4.0).contains(&demand), "demand out of range");
        self.accounts.sibling_demand[tid.index()] = demand;
        self.accounts.trace_sibling[tid.index()] = true;
        self.frontend.set_external_mite_pressure(tid, demand);
    }

    /// A noisy `rdtscp` reading for a thread; costs timer overhead cycles.
    pub fn rdtscp(&mut self, tid: ThreadId) -> f64 {
        let overhead = self.frontend.config().costs.timer_overhead;
        self.accounts.clock[tid.index()] += overhead;
        self.timer.read(self.accounts.clock[tid.index()])
    }

    /// Advances a thread's clock without doing frontend work (spin/sleep).
    ///
    /// # Panics
    ///
    /// Panics if a negative energy deposit reaches the RAPL model
    /// (`Rapl::deposit`); simulated costs are non-negative.
    pub fn idle(&mut self, tid: ThreadId, cycles: f64) {
        assert!(cycles >= 0.0, "cannot idle negative cycles");
        let accounts = &mut self.accounts;
        let dt = accounts.model.cycles_to_seconds(cycles);
        let joules = accounts.power.watts(DeliveryClass::Idle) * dt;
        accounts.apply(tid.index(), Charge { cycles, joules });
    }

    /// Runs `iterations` of a loop on one thread, advancing its clock and
    /// depositing energy. Total time is the frontend/backend bottleneck.
    ///
    /// # Panics
    ///
    /// Panics if a negative energy deposit reaches the RAPL model
    /// (`Rapl::deposit`); simulated costs are non-negative.
    pub fn run_loop(&mut self, tid: ThreadId, chain: &BlockChain, iterations: u64) -> LoopRun {
        let report = self.frontend.run_iterations(tid, chain, iterations);
        self.accounts
            .finish_run(&self.frontend, tid, chain, iterations, report)
    }

    /// Runs a single loop iteration (fine-grained driver for channel
    /// protocols).
    ///
    /// # Panics
    ///
    /// Panics if a negative energy deposit reaches the RAPL model
    /// (`Rapl::deposit`); simulated costs are non-negative.
    pub fn run_once(&mut self, tid: ThreadId, chain: &BlockChain) -> LoopRun {
        let report = self.frontend.run_iteration(tid, chain);
        self.accounts
            .finish_run(&self.frontend, tid, chain, 1, report)
    }

    /// Runs both threads concurrently, interleaving loop iterations by
    /// simulated wall time with scheduling jitter. Threads are activated on
    /// entry; each is deactivated when its work completes (which triggers
    /// the DSB partition transitions of §IV-B).
    ///
    /// Every step draws its jitter, even once only one thread has work
    /// left: the draw keeps the RNG stream, and with it every later run
    /// on this core, independent of how the steps were served. The steps
    /// walk the chain pair's state graph ([`Frontend::smt_walk`]): a step
    /// whose edge is recorded follows it instead of simulating. Its
    /// cycles and energy depend only on the edge and on the SMT backend
    /// factor (the sibling's recent µops per cycle, or a trace-driven
    /// sibling's demand), so they are cached on the edge under that
    /// factor. A step on an edge whose note is keyed under the current
    /// factor takes the fast path,
    /// [`SmtWalk::follow_noted`](leaky_frontend::SmtWalk::follow_noted),
    /// which follows the edge and hands back the noted charge; any other
    /// step runs [`SmtWalk::step`](leaky_frontend::SmtWalk::step) and
    /// charges it from its note or anew, re-keying the note. A step
    /// advances the clock, deposits its energy (a plain
    /// add between RAPL update boundaries, see `Accounts::apply`) and
    /// adds its cycles to its [`LoopRun`] in the plain loop's order. The
    /// runs' reports are the walk's lane totals
    /// ([`SmtWalk::finish`](leaky_frontend::SmtWalk::finish)):
    /// the walk adds each step's cycle fields in order and folds the
    /// counts in once, so no step adds a whole report here.
    ///
    /// Once one thread is done, the other's *lone tail* often reaches a
    /// state whose edge is a self-loop with its charge noted under the
    /// current factor. Every remaining step then follows that same edge
    /// at the same cost, so all of them are served at once: the
    /// remaining jitters are drawn, and the clock, the [`LoopRun`] and
    /// the RAPL counter advance through exact repeated-addition helpers
    /// ([`leaky_stats::add_repeated`], [`Rapl::deposit_repeated`]) that
    /// leave every value bit-identical to the step-by-step loop.
    ///
    /// # Panics
    ///
    /// Panics if a negative energy deposit reaches the RAPL model
    /// (`Rapl::deposit`); simulated costs are non-negative.
    pub fn run_concurrent(
        &mut self,
        work0: ThreadWork<'_>,
        work1: ThreadWork<'_>,
    ) -> (LoopRun, LoopRun) {
        // Sync both clocks to a common start.
        let start = self.accounts.clock[0].max(self.accounts.clock[1]);
        self.accounts.clock = [start, start];
        self.set_active(ThreadId::T0, true);
        self.set_active(ThreadId::T1, true);

        let mut remaining = [work0.iterations, work1.iterations];
        let mut runs = [LoopRun::empty(), LoopRun::empty()];
        let chains = [work0.chain, work1.chain];
        let accounts = &mut self.accounts;
        let mut walk = self.frontend.smt_walk(chains);
        let profile_key = walk.profile_key();
        let costs = walk.config().costs;
        while let Some(pick) = accounts.pick(&remaining) {
            let tid = [ThreadId::T0, ThreadId::T1][pick];
            let factor = accounts.smt_factor(tid, walk.both_active());
            // A lone tail on a self-loop charged under this factor. The
            // factor cannot change while only this thread runs: no
            // thread (de)activates and the sibling's µops per cycle and
            // demand stand still.
            let tail = if remaining[1 - pick] == 0 && remaining[pick] > 1 {
                walk.self_loop(pick)
                    .flatten()
                    .filter(|&(key, _)| key == factor.to_bits())
            } else {
                None
            };
            let steps = match tail {
                Some((_, [cycles, joules, upc])) => {
                    let n = remaining[pick];
                    walk.follow_repeated(pick, n);
                    let charge = Charge { cycles, joules };
                    accounts.apply_repeated(pick, charge, upc, n);
                    runs[pick].cycles = add_repeated(runs[pick].cycles, cycles, n);
                    n
                }
                None => {
                    let charge = match walk.follow_noted(pick, factor.to_bits()) {
                        Some(noted) => accounts.charge_of_note(pick, noted),
                        None => {
                            let (report, note) = walk.step(pick);
                            let cost = Cost {
                                profile_key,
                                costs: &costs,
                                factor,
                            };
                            match note {
                                Some(note) => {
                                    accounts.charge_noted(&cost, tid, chains[pick], report, note)
                                }
                                None => accounts.charge_at(&cost, tid, chains[pick], 1, report),
                            }
                        }
                    };
                    accounts.apply(pick, charge);
                    runs[pick].cycles += charge.cycles;
                    1
                }
            };
            runs[pick].iterations += steps;
            remaining[pick] -= steps;
            if remaining[pick] == 0 {
                walk.deactivate(tid);
            }
        }
        for (run, report) in runs.iter_mut().zip(walk.finish()) {
            run.report = report;
        }
        let [r0, r1] = runs;
        (r0, r1)
    }

    /// Runs `rounds` Init/Encode/Decode rounds on one thread, the per-bit
    /// work of the single-thread channels: each round runs `recv`, then
    /// `encode` when there is one, then `recv` again. Returns the last
    /// round's combined run (an empty run for no rounds).
    ///
    /// The result and every piece of state are bit-identical to one
    /// [`Core::run_once`] per step. The steps walk a round walk
    /// ([`Frontend::round_walk`]) on the lanes' stored graph, which
    /// later calls reuse until [`Core::release_graphs`]: a step whose
    /// edge is recorded follows it instead of simulating, and its cycles
    /// and energy come from the edge's note as in
    /// [`Core::run_concurrent`], through its fast path in every round but
    /// the last, whose reports the returned run keeps. The SMT factor
    /// stands still across the
    /// call, since no thread (de)activates and the sibling's µops per
    /// cycle and demand do not move; a note taken under another call's
    /// factor is re-keyed. Each step is applied to the clock and the
    /// RAPL counter in the plain loop's order; only the last round's
    /// steps are added to the returned run.
    ///
    /// # Panics
    ///
    /// Panics if a negative energy deposit reaches the RAPL model
    /// (`Rapl::deposit`); simulated costs are non-negative.
    pub fn run_rounds(
        &mut self,
        tid: ThreadId,
        recv: &BlockChain,
        encode: Option<&BlockChain>,
        rounds: u64,
    ) -> LoopRun {
        let mut last = LoopRun::empty();
        if rounds == 0 {
            return last;
        }
        let chains = [recv, encode.unwrap_or(recv)];
        let lanes: &[usize] = if encode.is_some() {
            &[0, 1, 0]
        } else {
            &[0, 0]
        };
        let accounts = &mut self.accounts;
        let mut walk = self.frontend.round_walk(tid, recv, encode);
        let costs = walk.config().costs;
        let cost = Cost {
            profile_key: walk.profile_key(),
            costs: &costs,
            factor: accounts.smt_factor(tid, walk.both_active()),
        };
        let key = cost.factor.to_bits();
        for round in 1..=rounds {
            for &lane in lanes {
                if round < rounds {
                    if let Some(noted) = walk.follow_noted(lane, key) {
                        let charge = accounts.charge_of_note(tid.index(), noted);
                        accounts.apply(tid.index(), charge);
                        continue;
                    }
                }
                let (report, note) = walk.step(lane);
                let charge = match note {
                    Some(note) => accounts.charge_noted(&cost, tid, chains[lane], report, note),
                    None => accounts.charge_at(&cost, tid, chains[lane], 1, report),
                };
                accounts.apply(tid.index(), charge);
                if round == rounds {
                    last.cycles += charge.cycles;
                    last.iterations += 1;
                    last.report += *report;
                }
            }
        }
        last
    }

    /// Runs a loop repeatedly until roughly `cycle_budget` cycles elapse on
    /// the thread; returns the run. Used by the §XI IPC sampler.
    ///
    /// # Panics
    ///
    /// Panics if a negative energy deposit reaches the RAPL model
    /// (`Rapl::deposit`); simulated costs are non-negative.
    pub fn run_for_cycles(
        &mut self,
        tid: ThreadId,
        chain: &BlockChain,
        cycle_budget: f64,
    ) -> LoopRun {
        let mut total = LoopRun::empty();
        // Batch iterations, re-estimating the per-iteration cost as the loop
        // warms up (cold iterations are much slower than steady state).
        while total.cycles < cycle_budget {
            let probe = self.run_once(tid, chain);
            total.cycles += probe.cycles;
            total.iterations += 1;
            total.report += probe.report;
            let per_iter = probe.cycles.max(1e-9);
            let more = ((cycle_budget - total.cycles) / per_iter) as u64;
            if more > 0 {
                let rest = self.run_loop(tid, chain, more);
                total.cycles += rest.cycles;
                total.iterations += rest.iterations;
                total.report += rest.report;
            }
        }
        total
    }

    /// Fast-forwards a thread through `times` repetitions of an
    /// already-measured steady-state round, without re-running the
    /// frontend: one clock advance of `round.cycles × times` and one
    /// energy deposit at the round's mean power. Used by the power
    /// channels, whose p = q = 240 000 iterations per bit (§VII) would
    /// otherwise dominate simulation time.
    ///
    /// This is an approximation, not a shortcut with the same result.
    /// The clock matches stepping every round, but the energy does not:
    /// one deposit crosses all of a bit's RAPL update boundaries at once,
    /// so the watts read through RAPL differ from stepping by up to
    /// 1.4 W, and stepping instead moves Table V's error rates from 0 to
    /// 1.56% (eviction) and from 7.81% to 17.19% (misalignment). See
    /// ROADMAP.md, "Exact fast-forward".
    ///
    /// # Panics
    ///
    /// Panics if a negative energy deposit reaches the RAPL model
    /// (`Rapl::deposit`); simulated costs are non-negative.
    pub fn replay(&mut self, tid: ThreadId, round: &LoopRun, times: u64) {
        if times == 0 {
            return;
        }
        let accounts = &mut self.accounts;
        let cycles = round.cycles * times as f64;
        let dt = accounts.model.cycles_to_seconds(cycles);
        let watts = mean_watts(
            &accounts.power,
            &self.frontend.config().costs,
            &round.report,
        );
        accounts.apply(
            tid.index(),
            Charge {
                cycles,
                joules: watts * dt,
            },
        );
    }

    /// Reads the package RAPL counter (µJ), as the power attacks do.
    pub fn read_rapl(&mut self) -> u64 {
        let now = self.seconds();
        self.accounts.rapl.read(now)
    }

    /// A noisy instantaneous package-power sample for a run, classified by
    /// its dominant delivery path — the observable of Fig. 9 / Fig. 10.
    pub fn sample_power_watts(&mut self, report: &IterationReport) -> f64 {
        let class = dominant_class(report);
        let accounts = &mut self.accounts;
        accounts.power.sample_watts(class, &mut accounts.rng)
    }

    /// Average power (watts) implied by a report's path mix, without noise.
    pub fn mean_power_watts(&self, report: &IterationReport) -> f64 {
        mean_watts(&self.accounts.power, &self.frontend.config().costs, report)
    }
}

impl LoopRun {
    /// A run of no iterations.
    fn empty() -> Self {
        LoopRun {
            cycles: 0.0,
            iterations: 0,
            report: IterationReport::default(),
        }
    }
}

impl Accounts {
    /// Wall-clock seconds elapsed (max over thread clocks).
    fn seconds(&self) -> f64 {
        seconds_at(&self.model, self.clock)
    }

    /// One step's scheduling jitter, in cycles.
    fn jitter(&mut self) -> f64 {
        self.rng.gen_range(-2.0..2.0)
    }

    /// Draws the scheduling jitter and picks the thread that is behind
    /// in wall time among those with work left; `None` (and no draw)
    /// once neither has any.
    fn pick(&mut self, remaining: &[u64; 2]) -> Option<usize> {
        if remaining == &[0, 0] {
            return None;
        }
        let jitter = self.jitter();
        Some(if remaining[0] == 0 {
            1
        } else if remaining[1] == 0 || self.clock[0] + jitter <= self.clock[1] {
            0
        } else {
            1
        })
    }

    /// Charges a run of `iterations` with frontend `report` to `tid`'s
    /// clock and the RAPL counter. Total time is the frontend/backend
    /// bottleneck.
    fn finish_run(
        &mut self,
        frontend: &Frontend,
        tid: ThreadId,
        chain: &BlockChain,
        iterations: u64,
        report: IterationReport,
    ) -> LoopRun {
        let cost = Cost {
            profile_key: frontend.profile_key(),
            costs: &frontend.config().costs,
            factor: self.smt_factor(tid, frontend.both_active()),
        };
        let charge = self.charge_at(&cost, tid, chain, iterations, &report);
        self.apply(tid.index(), charge);
        LoopRun {
            cycles: charge.cycles,
            iterations,
            report,
        }
    }

    /// The factor by which SMT stretches `tid`'s backend time: 1 alone.
    /// Rename/retire bandwidth is shared between threads in proportion
    /// to demand. A trace-driven victim (fingerprinting model) contends
    /// for its full share plus its demand level; a simulated sibling
    /// contends only for the µop bandwidth it actually used recently —
    /// the §IV-D mix blocks are designed to leave backend headroom, so
    /// light siblings barely slow each other down.
    fn smt_factor(&self, tid: ThreadId, both_active: bool) -> f64 {
        let t = tid.index();
        if !both_active {
            1.0
        } else if self.trace_sibling[t] {
            2.0 + self.sibling_demand[t]
        } else {
            let other = tid.other().index();
            1.0 + (self.recent_upc[other] / self.backend.config().rename_width).min(1.0)
        }
    }

    /// [`Accounts::charge_at`] for one step along a graph edge, cached in
    /// the edge's note under the SMT factor: everything else the charge
    /// reads is fixed for the edge (its report, its thread's chain, the
    /// core's models), so a note with the same factor holds exactly what
    /// `charge_at` would compute, including the recent µops per cycle it
    /// leaves behind.
    fn charge_noted(
        &mut self,
        cost: &Cost<'_>,
        tid: ThreadId,
        chain: &BlockChain,
        report: &IterationReport,
        note: &mut EdgeNote,
    ) -> Charge {
        let t = tid.index();
        let key = cost.factor.to_bits();
        if let Some((k, noted)) = *note {
            if k == key {
                return self.charge_of_note(t, noted);
            }
        }
        let charge = self.charge_at(cost, tid, chain, 1, report);
        *note = Some((key, [charge.cycles, charge.joules, self.recent_upc[t]]));
        charge
    }

    /// The charge a note under the current SMT factor holds for thread
    /// `t`'s step, leaving behind the recent µops per cycle it records,
    /// exactly as [`Accounts::charge_at`] would.
    #[inline]
    fn charge_of_note(&mut self, t: usize, [cycles, joules, upc]: [f64; 3]) -> Charge {
        if cycles > 0.0 {
            self.recent_upc[t] = upc;
        }
        Charge { cycles, joules }
    }

    /// What a run costs: the frontend/backend bottleneck in cycles, and
    /// the energy of its delivery mix over that time. Updates the
    /// backend memo and the thread's recent µops per cycle.
    fn charge_at(
        &mut self,
        cost: &Cost<'_>,
        tid: ThreadId,
        chain: &BlockChain,
        iterations: u64,
        report: &IterationReport,
    ) -> Charge {
        let key = (chain.key(), cost.profile_key);
        let per_iter = match self.backend_cache.first() {
            Some(&(k, v)) if k == key => v,
            _ => match self.backend_cache.iter().position(|&(k, _)| k == key) {
                Some(pos) => {
                    // Promote to MRU so the steady-state probe stays O(1).
                    self.backend_cache[..=pos].rotate_right(1);
                    self.backend_cache[0].1
                }
                None => {
                    let v = self
                        .backend
                        .throughput_cycles(chain.blocks().iter().flat_map(|b| b.instructions()));
                    self.backend_cache.insert(0, (key, v));
                    self.backend_cache.truncate(BACKEND_CACHE_CAPACITY);
                    v
                }
            },
        };
        let backend_cycles = per_iter * iterations as f64 * cost.factor;
        let cycles = report.cycles.max(backend_cycles);
        if cycles > 0.0 {
            self.recent_upc[tid.index()] = report.total_uops() as f64 / cycles;
        }

        // Energy: apportion cycles to delivery classes via the cost model.
        let dt = self.model.cycles_to_seconds(cycles);
        let watts = mean_watts(&self.power, cost.costs, report);
        Charge {
            cycles,
            joules: watts * dt,
        }
    }

    /// Advances thread `t`'s clock by the charge and deposits its energy.
    /// Below the quiet clock the deposit is a plain energy add
    /// ([`Rapl::deposit_quiet`]), with no seconds division and no
    /// boundary test; at or past it [`Rapl::deposit`] runs and the quiet
    /// clock is derived anew. Reads and bulk deposits move the boundary
    /// only forward, so a quiet clock derived before them stays
    /// conservative.
    fn apply(&mut self, t: usize, charge: Charge) {
        self.clock[t] += charge.cycles;
        if self.clock[0].max(self.clock[1]) < self.rapl_quiet {
            self.rapl.deposit_quiet(charge.joules);
        } else {
            let now = self.seconds();
            self.rapl.deposit(charge.joules, now);
            self.rapl_quiet = quiet_clock(&self.model, &self.rapl);
        }
    }

    /// `n` lone steps of thread `t` along one self-loop edge, whose note
    /// holds `charge` and the recent µops per cycle `upc` it leaves
    /// behind: exactly what `n` rounds of [`Accounts::pick`],
    /// [`Accounts::charge_noted`] and [`Accounts::apply`] do, given that
    /// the caller's `pick` drew the first jitter. The sibling's clock
    /// stands still, so the time of the `k`-th deposit is a function of
    /// `k` alone.
    fn apply_repeated(&mut self, t: usize, charge: Charge, upc: f64, n: u64) {
        for _ in 1..n {
            self.jitter();
        }
        if charge.cycles > 0.0 {
            self.recent_upc[t] = upc;
        }
        let start = self.clock;
        let clock_at = |k| {
            let mut clock = start;
            clock[t] = add_repeated(start[t], charge.cycles, k);
            clock
        };
        self.clock = clock_at(n);
        let model = &self.model;
        self.rapl
            .deposit_repeated(charge.joules, n, |k| seconds_at(model, clock_at(k)));
    }
}

/// A clock (cycles) at and below which a deposit reaches no update
/// boundary of `rapl`: the next boundary's clock, less a relative margin
/// of 1e-9, far wider than the rounding of the conversion to seconds and
/// of RAPL's boundary test, checked at the clock itself. The check
/// covers every lower clock, because the conversion (a division by the
/// frequency) and the boundary test are both non-decreasing in the
/// clock. Should the check ever fail, no clock is quiet.
fn quiet_clock(model: &ProcessorModel, rapl: &Rapl) -> f64 {
    let clock = rapl.next_update_s() * model.freq_hz() * (1.0 - 1e-9);
    if rapl.reaches_update(model.cycles_to_seconds(clock)) {
        f64::NEG_INFINITY
    } else {
        clock
    }
}

/// Wall-clock seconds at thread clocks `clock` (their max).
fn seconds_at(model: &ProcessorModel, clock: [f64; 2]) -> f64 {
    model.cycles_to_seconds(clock[0].max(clock[1]))
}

/// Estimated mean package power for a report's delivery mix.
fn mean_watts(
    power: &PowerModel,
    costs: &leaky_frontend::CostModel,
    report: &IterationReport,
) -> f64 {
    let lsd_c = report.lsd_uops as f64 * costs.lsd_per_uop;
    let dsb_c = report.dsb_uops as f64 * costs.dsb_per_uop;
    let mite_c = report.mite_uops as f64 * (costs.mite_per_uop + costs.mite_line_base / 6.0)
        + report.lcp_stall_cycles
        + report.switch_penalty_cycles
        + report.crossing_penalty_cycles;
    let total = lsd_c + dsb_c + mite_c;
    if total <= 0.0 {
        return power.watts(DeliveryClass::Idle);
    }
    let idle = power.watts(DeliveryClass::Idle);
    idle + (lsd_c * (power.watts(DeliveryClass::Lsd) - idle)
        + dsb_c * (power.watts(DeliveryClass::Dsb) - idle)
        + mite_c * (power.watts(DeliveryClass::Mite) - idle))
        / total
}

/// Classifies a report by dominant delivery class for power sampling.
fn dominant_class(report: &IterationReport) -> DeliveryClass {
    if report.total_uops() == 0 {
        DeliveryClass::Idle
    } else if report.mite_uops > 0 && report.mite_uops * 4 >= report.total_uops() {
        DeliveryClass::Mite
    } else if report.dsb_uops >= report.lsd_uops {
        DeliveryClass::Dsb
    } else {
        DeliveryClass::Lsd
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leaky_frontend::{TraceHook, TraceMode};
    use leaky_isa::{same_set_chain, Alignment, DsbSet};

    const RECV: u64 = 0x0041_8000;
    const SEND: u64 = 0x0082_0000;

    fn chain(base: u64, set: u8, n: usize) -> BlockChain {
        same_set_chain(base, DsbSet::new(set), n, Alignment::Aligned)
    }

    #[test]
    fn clock_advances_with_work() {
        let mut core = Core::new(ProcessorModel::gold_6226(), 1);
        assert_eq!(core.clock(ThreadId::T0), 0.0);
        let run = core.run_loop(ThreadId::T0, &chain(RECV, 0, 8), 100);
        assert!(run.cycles > 0.0);
        assert!((core.clock(ThreadId::T0) - run.cycles).abs() < 1e-9);
        assert_eq!(core.clock(ThreadId::T1), 0.0);
    }

    #[test]
    fn lsd_warm_loop_is_faster_per_iteration() {
        let mut core = Core::new(ProcessorModel::gold_6226(), 1);
        let c = chain(RECV, 0, 8);
        let cold = core.run_once(ThreadId::T0, &c);
        // LSD lock engages after the configured warm-up streak.
        for _ in 0..3 {
            core.run_once(ThreadId::T0, &c);
        }
        let warm = core.run_once(ThreadId::T0, &c);
        assert!(warm.cycles < cold.cycles);
        assert!(warm.report.lsd_uops > 0);
    }

    #[test]
    fn lsd_disabled_machine_never_streams_lsd() {
        let mut core = Core::new(ProcessorModel::xeon_e2174g(), 1);
        let c = chain(RECV, 0, 8);
        for _ in 0..5 {
            let run = core.run_once(ThreadId::T0, &c);
            assert_eq!(run.report.lsd_uops, 0);
        }
    }

    #[test]
    fn microcode_patch2_disables_lsd_on_6226() {
        let mut core = Core::with_microcode(ProcessorModel::gold_6226(), MicrocodePatch::Patch2, 1);
        let c = chain(RECV, 0, 8);
        for _ in 0..5 {
            assert_eq!(core.run_once(ThreadId::T0, &c).report.lsd_uops, 0);
        }
    }

    #[test]
    fn rdtscp_is_noisy_but_ordered_over_work() {
        let mut core = Core::new(ProcessorModel::gold_6226(), 1);
        let t0 = core.rdtscp(ThreadId::T0);
        core.run_loop(ThreadId::T0, &chain(RECV, 0, 8), 1000);
        let t1 = core.rdtscp(ThreadId::T0);
        assert!(t1 - t0 > 1000.0);
    }

    #[test]
    fn concurrent_sender_evicts_receiver() {
        // The MT eviction mechanism end-to-end at the core level.
        let mut core = Core::new(ProcessorModel::gold_6226(), 1);
        let recv = chain(RECV, 0, 6);
        let send = chain(SEND, 0, 3);
        // Warm receiver solo.
        core.run_loop(ThreadId::T0, &recv, 3);
        let warm = core.run_once(ThreadId::T0, &recv);
        // Now run sender concurrently: receiver must slow down.
        let (r_recv, r_send) = core.run_concurrent(
            ThreadWork {
                chain: &recv,
                iterations: 50,
            },
            ThreadWork {
                chain: &send,
                iterations: 50,
            },
        );
        assert!(r_send.iterations == 50);
        let per_iter = r_recv.cycles / 50.0;
        assert!(
            per_iter > warm.cycles * 1.5,
            "contended receiver iteration {per_iter:.1} vs warm {:.1}",
            warm.cycles
        );
        assert!(r_recv.report.mite_uops > 0);
    }

    #[test]
    fn only_run_concurrent_allocates_the_transition_memo() {
        let mut core = Core::new(ProcessorModel::gold_6226(), 1);
        let recv = chain(RECV, 0, 6);
        let send = chain(SEND, 0, 3);
        core.run_loop(ThreadId::T0, &recv, 100);
        core.run_once(ThreadId::T0, &send);
        core.run_for_cycles(ThreadId::T0, &recv, 10_000.0);
        assert_eq!(
            core.frontend().memo_stats(),
            leaky_frontend::MemoStats::default(),
            "single-thread runs must not build a state graph"
        );
        core.run_concurrent(
            ThreadWork {
                chain: &recv,
                iterations: 50,
            },
            ThreadWork {
                chain: &send,
                iterations: 50,
            },
        );
        let stats = core.frontend().memo_stats();
        assert_eq!(stats.followed + stats.simulated, 100);
        assert!(stats.followed > 0 && stats.edges as u64 <= stats.simulated);
        assert!(stats.states > 0 && stats.edges <= 2 * stats.states);
    }

    #[test]
    fn concurrent_disjoint_sets_do_not_interfere_after_wake() {
        let mut core = Core::new(ProcessorModel::gold_6226(), 1);
        let recv = chain(RECV, 0, 6);
        let send_y = chain(SEND, 9, 3);
        core.run_loop(ThreadId::T0, &recv, 3);
        let (r_recv, _) = core.run_concurrent(
            ThreadWork {
                chain: &recv,
                iterations: 50,
            },
            ThreadWork {
                chain: &send_y,
                iterations: 50,
            },
        );
        // The wake transition itself displaces some receiver lines, but
        // steady-state interference must vanish: late iterations are clean.
        let tail_miss_rate = r_recv.report.mite_uops as f64 / r_recv.report.total_uops() as f64;
        assert!(
            tail_miss_rate < 0.2,
            "steady state should be conflict-free, mite fraction {tail_miss_rate}"
        );
    }

    #[test]
    fn rapl_accumulates_energy() {
        let mut core = Core::new(ProcessorModel::gold_6226(), 1);
        core.run_loop(ThreadId::T0, &chain(RECV, 0, 9), 50_000);
        let e = core.read_rapl();
        assert!(e > 0, "energy must accumulate: {e}");
    }

    #[test]
    fn mite_heavy_run_draws_more_power_than_lsd_run() {
        let mut core = Core::new(ProcessorModel::gold_6226(), 1);
        let lsd_chain = chain(RECV, 0, 8);
        core.run_loop(ThreadId::T0, &lsd_chain, 3);
        let lsd_run = core.run_once(ThreadId::T0, &lsd_chain);
        let mite_chain = chain(SEND, 1, 9);
        core.run_loop(ThreadId::T0, &mite_chain, 3);
        let mite_run = core.run_once(ThreadId::T0, &mite_chain);
        let p_lsd = core.mean_power_watts(&lsd_run.report);
        let p_mite = core.mean_power_watts(&mite_run.report);
        assert!(
            p_mite > p_lsd + 5.0,
            "MITE {p_mite:.1} W vs LSD {p_lsd:.1} W"
        );
    }

    #[test]
    fn run_for_cycles_meets_budget() {
        let mut core = Core::new(ProcessorModel::gold_6226(), 1);
        let c = chain(RECV, 0, 4);
        let run = core.run_for_cycles(ThreadId::T0, &c, 10_000.0);
        assert!(run.cycles >= 9_000.0 && run.cycles <= 12_000.0);
        assert!(run.iterations > 100);
    }

    #[test]
    fn nop_loop_ipc_near_rename_width() {
        // §XI baseline: attacker nop loop IPC ≈ 3.58 on real HW; our model
        // gives the rename-width bound ≈ 4 solo.
        use leaky_isa::{Addr, Block};
        let mut core = Core::new(ProcessorModel::gold_6226(), 1);
        let nop_chain = BlockChain::new(vec![Block::nops(Addr::new(0x10_0000), 100)]);
        core.run_loop(ThreadId::T0, &nop_chain, 3);
        let run = core.run_loop(ThreadId::T0, &nop_chain, 1000);
        let ipc = run.ipc(101);
        assert!(
            (3.0..=4.2).contains(&ipc),
            "solo nop IPC should be near 4, got {ipc:.2}"
        );
    }

    #[test]
    fn smt_halves_nop_ipc() {
        use leaky_isa::{Addr, Block};
        let mut core = Core::new(ProcessorModel::gold_6226(), 1);
        let nop_chain = BlockChain::new(vec![Block::nops(Addr::new(0x10_0000), 100)]);
        core.run_loop(ThreadId::T0, &nop_chain, 3);
        core.set_active(ThreadId::T0, true);
        core.set_active(ThreadId::T1, true);
        core.set_sibling_demand(ThreadId::T0, 0.0); // trace-driven victim
        core.run_loop(ThreadId::T0, &nop_chain, 3);
        let run = core.run_loop(ThreadId::T0, &nop_chain, 1000);
        let ipc = run.ipc(101);
        assert!(
            (1.6..=2.4).contains(&ipc),
            "SMT nop IPC should be near 2, got {ipc:.2}"
        );
    }

    #[test]
    fn sibling_demand_modulates_smt_ipc() {
        use leaky_isa::{Addr, Block};
        let mut core = Core::new(ProcessorModel::gold_6226(), 1);
        let nop_chain = BlockChain::new(vec![Block::nops(Addr::new(0x10_0000), 100)]);
        core.set_active(ThreadId::T0, true);
        core.set_active(ThreadId::T1, true);
        core.run_loop(ThreadId::T0, &nop_chain, 3);
        core.set_sibling_demand(ThreadId::T0, 0.0);
        let low = core.run_loop(ThreadId::T0, &nop_chain, 500).ipc(101);
        core.set_sibling_demand(ThreadId::T0, 0.4);
        let high = core.run_loop(ThreadId::T0, &nop_chain, 500).ipc(101);
        assert!(high < low, "more sibling demand must lower IPC");
    }

    #[test]
    fn with_profile_skylake_matches_historical_construction() {
        // The default profile must reproduce `Core::new` bit-for-bit.
        let run = |mut core: Core| {
            let c = chain(RECV, 0, 8);
            let r = core.run_loop(ThreadId::T0, &c, 50);
            (r.cycles, core.rdtscp(ThreadId::T0))
        };
        let legacy = run(Core::new(ProcessorModel::gold_6226(), 7));
        let profiled = run(Core::with_profile(
            ProcessorModel::gold_6226(),
            MicrocodePatch::Patch1,
            &UarchProfile::skylake(),
            7,
        ));
        assert_eq!(legacy, profiled);
    }

    #[test]
    fn profile_lsd_gating_composes_with_the_machine() {
        // icelake fuses the LSD off regardless of machine/microcode...
        let mut icl = Core::with_profile(
            ProcessorModel::gold_6226(),
            MicrocodePatch::Patch1,
            &UarchProfile::icelake(),
            1,
        );
        let c = chain(RECV, 0, 8);
        for _ in 0..5 {
            assert_eq!(icl.run_once(ThreadId::T0, &c).report.lsd_uops, 0);
        }
        // ...and a machine without the LSD cannot re-enable it under the
        // skylake profile either.
        let mut sky = Core::with_profile(
            ProcessorModel::xeon_e2174g(),
            MicrocodePatch::Patch1,
            &UarchProfile::skylake(),
            1,
        );
        for _ in 0..5 {
            assert_eq!(sky.run_once(ThreadId::T0, &c).report.lsd_uops, 0);
        }
    }

    #[test]
    fn reconfigure_rekeys_the_backend_memo() {
        // Backend throughput memoised under one profile must not leak into
        // another: after a reconfigure, a fresh equivalent core and the
        // reconfigured core must agree exactly on the same chain.
        let c = chain(RECV, 0, 8);
        let icl_config = FrontendConfig::from_profile(&UarchProfile::icelake());
        let mut reconfigured = Core::new(ProcessorModel::gold_6226(), 9);
        reconfigured.run_loop(ThreadId::T0, &c, 10); // populate the memo
        reconfigured.frontend_mut().reconfigure(icl_config);
        let after = reconfigured.run_once(ThreadId::T0, &c);

        let mut fresh = Core::with_frontend_config(
            ProcessorModel::gold_6226(),
            MicrocodePatch::Patch1,
            icl_config,
            9,
        );
        // Match the clock state the reconfigured core accumulated, then
        // compare the frontend work (cycles depend only on frontend state
        // and the memoised backend throughput).
        let fresh_cold = fresh.run_once(ThreadId::T0, &c);
        assert_eq!(after.report, fresh_cold.report);
        assert!((after.cycles - fresh_cold.cycles).abs() < 1e-12);
    }

    #[test]
    fn seeded_cores_reproduce_exactly() {
        let run = |seed| {
            let mut core = Core::new(ProcessorModel::gold_6226(), seed);
            let recv = chain(RECV, 0, 6);
            let send = chain(SEND, 0, 3);
            let (a, b) = core.run_concurrent(
                ThreadWork {
                    chain: &recv,
                    iterations: 20,
                },
                ThreadWork {
                    chain: &send,
                    iterations: 20,
                },
            );
            (a.cycles, b.cycles, core.rdtscp(ThreadId::T0))
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    /// The plain reference for [`Core::run_concurrent`]: the same jitter
    /// draws, one [`Frontend::run_iteration`] and one `finish_run` per
    /// step, no state graph. Also returns how often consecutive steps
    /// ran on different threads.
    fn run_concurrent_plain(core: &mut Core, work: [(&BlockChain, u64); 2]) -> ([LoopRun; 2], u64) {
        let start = core.accounts.clock[0].max(core.accounts.clock[1]);
        core.accounts.clock = [start, start];
        core.set_active(ThreadId::T0, true);
        core.set_active(ThreadId::T1, true);
        let mut remaining = [work[0].1, work[1].1];
        let mut runs = [LoopRun::empty(), LoopRun::empty()];
        let mut switches = 0;
        let mut last = None;
        while remaining[0] > 0 || remaining[1] > 0 {
            let jitter: f64 = core.accounts.rng.gen_range(-2.0..2.0);
            let clock = core.accounts.clock;
            let pick = if remaining[0] == 0 {
                1
            } else if remaining[1] == 0 || clock[0] + jitter <= clock[1] {
                0
            } else {
                1
            };
            switches += u64::from(last.is_some_and(|l| l != pick));
            last = Some(pick);
            let tid = [ThreadId::T0, ThreadId::T1][pick];
            let chain = work[pick].0;
            let report = core.frontend.run_iteration(tid, chain);
            let run = core
                .accounts
                .finish_run(&core.frontend, tid, chain, 1, report);
            runs[pick].cycles += run.cycles;
            runs[pick].iterations += 1;
            runs[pick].report += run.report;
            remaining[pick] -= 1;
            if remaining[pick] == 0 {
                core.set_active(tid, false);
            }
        }
        (runs, switches)
    }

    fn report_bits(r: &IterationReport) -> [u64; 13] {
        [
            r.cycles.to_bits(),
            r.lsd_uops,
            r.dsb_uops,
            r.mite_uops,
            r.lcp_stall_cycles.to_bits(),
            r.switch_penalty_cycles.to_bits(),
            r.crossing_penalty_cycles.to_bits(),
            r.dsb_to_mite_switches,
            r.dsb_evictions,
            r.lsd_flushes,
            r.l1i_misses,
            r.l1i_accesses,
            0,
        ]
    }

    fn run_bits(run: &LoopRun) -> [u64; 13] {
        let mut bits = report_bits(&run.report);
        bits[12] = run.cycles.to_bits() ^ run.iterations.rotate_left(32);
        bits
    }

    /// Everything observable that a step can change, bit for bit: both
    /// clocks, the recent µops per cycle, the scheduling RNG, the whole
    /// RAPL counter (exact and visible energy, last update boundary,
    /// jitter RNG), the cumulative counters, the L1I statistics and sets,
    /// every DSB set in MRU order, and the trace.
    fn state_diff(fast: &Core, plain: &Core) -> Option<String> {
        let (a, b) = (&fast.accounts, &plain.accounts);
        if a.clock.map(f64::to_bits) != b.clock.map(f64::to_bits) {
            return Some(format!("clocks {:?} vs {:?}", a.clock, b.clock));
        }
        if a.recent_upc.map(f64::to_bits) != b.recent_upc.map(f64::to_bits) {
            return Some("recent µops per cycle".into());
        }
        if a.rng != b.rng {
            return Some("scheduling RNG".into());
        }
        if a.rapl.exact_uj().to_bits() != b.rapl.exact_uj().to_bits() || a.rapl != b.rapl {
            return Some(format!("RAPL {:?} vs {:?}", a.rapl, b.rapl));
        }
        let (fa, fb) = (fast.frontend(), plain.frontend());
        for tid in [ThreadId::T0, ThreadId::T1] {
            if report_bits(fa.counters(tid)) != report_bits(fb.counters(tid)) {
                return Some(format!("{tid} counters"));
            }
        }
        if fa.trace().events() != fb.trace().events() {
            return Some("trace events".into());
        }
        if fa.trace().summary() != fb.trace().summary() {
            return Some("trace summary".into());
        }
        if fa.l1i().stats() != fb.l1i().stats() {
            return Some(format!(
                "L1I stats {:?} vs {:?}",
                fa.l1i().stats(),
                fb.l1i().stats()
            ));
        }
        let geometry = fa.config().geometry;
        for set in 0..geometry.l1i_sets {
            if fa.l1i().set_lines(set) != fb.l1i().set_lines(set) {
                return Some(format!("L1I set {set}"));
            }
        }
        for thread in 0..2u8 {
            for window in 0..geometry.dsb_sets as u64 {
                let probe = leaky_frontend::LineId {
                    thread,
                    window,
                    chunk: 0,
                };
                if !fa
                    .dsb()
                    .set_lines_for(probe)
                    .eq(fb.dsb().set_lines_for(probe))
                {
                    return Some(format!("DSB set {window} (thread {thread})"));
                }
            }
        }
        None
    }

    /// A chain of `n` mix blocks `stride` bytes apart: 1 KiB keeps them
    /// in one DSB set, 4 KiB also puts them in one L1I set.
    fn strided(base: u64, n: usize, stride: u64) -> BlockChain {
        use leaky_isa::{Addr, Block};
        (0..n as u64)
            .map(|i| Block::mix(Addr::new(base + i * stride)))
            .collect()
    }

    fn config(lsd_enabled: bool, shared: bool) -> FrontendConfig {
        FrontendConfig {
            lsd_enabled,
            dsb_policy: if shared {
                SmtDsbPolicy::Shared
            } else {
                SmtDsbPolicy::Competitive
            },
            ..FrontendConfig::default()
        }
    }

    /// Runs `schedule` (chain pair and iteration counts per
    /// `run_concurrent`) on a graph-walking core and a plain one,
    /// comparing both runs, the LSD locks on every chain and the whole
    /// observable state after each call. `before(i, core)` runs on both
    /// cores ahead of call `i`. Returns the walking core's graph counters
    /// and how often consecutive steps switched threads.
    fn differential(
        config: FrontendConfig,
        seed: u64,
        chains: &[BlockChain],
        schedule: &[(usize, usize, u64, u64)],
        mut before: impl FnMut(usize, &mut Core),
    ) -> Result<(leaky_frontend::MemoStats, u64), String> {
        let model = ProcessorModel::gold_6226();
        let mut fast = Core::with_frontend_config(model, MicrocodePatch::Patch1, config, seed);
        let mut plain = fast.clone();
        let mut switches = 0;
        for (i, &(c0, c1, p, q)) in schedule.iter().enumerate() {
            before(i, &mut fast);
            before(i, &mut plain);
            let (w0, w1) = (&chains[c0 % chains.len()], &chains[c1 % chains.len()]);
            let (r0, r1) = fast.run_concurrent(
                ThreadWork {
                    chain: w0,
                    iterations: p,
                },
                ThreadWork {
                    chain: w1,
                    iterations: q,
                },
            );
            let ([e0, e1], n) = run_concurrent_plain(&mut plain, [(w0, p), (w1, q)]);
            switches += n;
            if run_bits(&r0) != run_bits(&e0) || run_bits(&r1) != run_bits(&e1) {
                return Err(format!(
                    "run {i}: LoopRuns diverged: {r0:?} {r1:?} vs {e0:?} {e1:?}"
                ));
            }
            if let Some(diff) = state_diff(&fast, &plain) {
                return Err(format!("run {i}: {diff} diverged"));
            }
            // The frontends' `Debug` shows their whole state but leaves
            // out the memos, graphs and plans.
            let (a, b) = (
                format!("{:?}", fast.frontend()),
                format!("{:?}", plain.frontend()),
            );
            if a != b {
                return Err(format!("run {i}: frontends diverged: {a} vs {b}"));
            }
            for c in chains {
                for tid in [ThreadId::T0, ThreadId::T1] {
                    if fast.frontend().lsd_locked(tid, c) != plain.frontend().lsd_locked(tid, c) {
                        return Err(format!("run {i}: {tid} LSD lock diverged"));
                    }
                }
            }
        }
        Ok((fast.frontend().memo_stats(), switches))
    }

    #[test]
    fn stationary_tails_repeat_exactly() {
        // The SGX MT shape (receiver p ≫ sender q on a machine without
        // the LSD), its mirror (q ≫ p), and an L1I-thrashing receiver:
        // nine blocks 4 KiB apart miss in the L1I on every pass while the
        // rest of the frontend returns to the same state. Each tail
        // follows edges (a self-loop for the stationary ones), and the
        // thrashing tail's L1I statistics come from its edges' deltas.
        let recv = strided(RECV, 6, 1024);
        let send = strided(SEND, 3, 1024);
        let thrash = strided(0x00c3_0000, 9, 4096);
        let chains = [recv, send, thrash];
        for shared in [false, true] {
            let sgx = [(0, 1, 400, 20), (1, 0, 20, 400)];
            let (stats, _) =
                differential(config(false, shared), 3, &chains, &sgx, |_, _| {}).unwrap();
            assert!(
                stats.followed > 600,
                "tails must follow edges, got {stats:?}"
            );
            let thrashing = [(2, 1, 200, 10), (1, 2, 10, 200)];
            let (stats, _) =
                differential(config(false, shared), 5, &chains, &thrashing, |_, _| {}).unwrap();
            assert!(
                stats.followed > 300,
                "thrashing tails follow edges, got {stats:?}"
            );
        }
    }

    #[test]
    fn lone_tails_are_served_in_bulk_exactly() {
        // Lone tails of 20,000 steps of a DSB-thrashing chain (nine
        // blocks in one 8-way set, ~64 cycles a step) span about nine
        // 50 µs RAPL update boundaries, so serving them in bulk must
        // reproduce each boundary's deposit and jitter draw. Receiver
        // tails (the SGX MT shape) and sender tails, with and without the
        // LSD, under both sharing policies.
        let chains = [strided(RECV, 9, 1024), strided(SEND, 9, 1024)];
        let tails = [(0, 1, 20_000, 20), (0, 1, 15, 20_000)];
        for lsd_enabled in [false, true] {
            for shared in [false, true] {
                let config = config(lsd_enabled, shared);
                let (stats, _) = differential(config, 11, &chains, &tails, |_, _| {}).unwrap();
                assert!(
                    stats.bulk > 39_000,
                    "lone tails must be served in bulk, got {stats:?}"
                );
            }
        }
        let mut core = Core::with_frontend_config(
            ProcessorModel::gold_6226(),
            MicrocodePatch::Patch1,
            config(false, false),
            11,
        );
        core.run_concurrent(
            ThreadWork {
                chain: &chains[0],
                iterations: 20_000,
            },
            ThreadWork {
                chain: &chains[1],
                iterations: 20,
            },
        );
        assert!(
            core.seconds() > 3.0 * Rapl::UPDATE_INTERVAL_S,
            "the tail spans {} s",
            core.seconds()
        );
    }

    /// The plain reference for [`Core::run_rounds`]: one
    /// [`Core::run_once`] per step, each round's runs summed in order.
    fn run_rounds_plain(
        core: &mut Core,
        tid: ThreadId,
        recv: &BlockChain,
        encode: Option<&BlockChain>,
        rounds: u64,
    ) -> LoopRun {
        let mut last = LoopRun::empty();
        for _ in 0..rounds {
            last = core.run_once(tid, recv);
            for chain in encode.into_iter().chain([recv]) {
                let next = core.run_once(tid, chain);
                last.cycles += next.cycles;
                last.iterations += next.iterations;
                last.report += next.report;
            }
        }
        last
    }

    /// Runs `schedule` (receiver, encoding, rounds and thread per
    /// [`Core::run_rounds`] call) on a round-walking core and a plain one,
    /// comparing the runs, the LSD locks on every chain and the whole
    /// observable state after each call. The walking core keeps its
    /// graphs across the calls; a third core releases them before each
    /// call. With `smt` T1 first runs one iteration and both threads
    /// stay active, so the steps are charged under an SMT factor.
    /// `before(i, core)` runs on every core ahead of call `i`. Returns
    /// the graph counters of the keeping core and of the releasing one.
    fn rounds_differential(
        config: FrontendConfig,
        seed: u64,
        smt: bool,
        chains: &[BlockChain],
        schedule: &[(usize, Option<usize>, u64, ThreadId)],
        mut before: impl FnMut(usize, &mut Core),
    ) -> Result<[leaky_frontend::MemoStats; 2], String> {
        let model = ProcessorModel::gold_6226();
        let mut fast = Core::with_frontend_config(model, MicrocodePatch::Patch1, config, seed);
        if smt {
            fast.run_once(ThreadId::T1, &chains[chains.len() - 1]);
            fast.set_active(ThreadId::T0, true);
            fast.set_active(ThreadId::T1, true);
        }
        let mut plain = fast.clone();
        let mut releasing = fast.clone();
        for (i, &(r, e, rounds, tid)) in schedule.iter().enumerate() {
            before(i, &mut fast);
            before(i, &mut plain);
            before(i, &mut releasing);
            let recv = &chains[r % chains.len()];
            let encode = e.map(|e| &chains[e % chains.len()]);
            releasing.release_graphs();
            releasing.run_rounds(tid, recv, encode, rounds);
            let run = fast.run_rounds(tid, recv, encode, rounds);
            let expected = run_rounds_plain(&mut plain, tid, recv, encode, rounds);
            if run_bits(&run) != run_bits(&expected) {
                return Err(format!("call {i}: {run:?} vs {expected:?}"));
            }
            if let Some(diff) = state_diff(&fast, &plain) {
                return Err(format!("call {i}: {diff} diverged"));
            }
            for c in chains {
                for tid in [ThreadId::T0, ThreadId::T1] {
                    if fast.frontend().lsd_locked(tid, c) != plain.frontend().lsd_locked(tid, c) {
                        return Err(format!("call {i}: {tid} LSD lock diverged"));
                    }
                }
            }
        }
        Ok([
            fast.frontend().memo_stats(),
            releasing.frontend().memo_stats(),
        ])
    }

    /// Random chains from `(base, set, blocks, kind)` specs: aligned or
    /// misaligned same-set chains, or mix blocks 4 KiB apart.
    fn chains_from(specs: &[(u64, u8, usize, u8)]) -> Vec<BlockChain> {
        specs
            .iter()
            .map(|&(base, set, n, kind)| {
                let base = RECV + base * 0x40_0000 + u64::from(set) * 32;
                match kind {
                    0 => chain(base, set, n),
                    1 => same_set_chain(base, DsbSet::new(set), n, Alignment::Misaligned),
                    _ => strided(base, n, 4096),
                }
            })
            .collect()
    }

    proptest::proptest! {
        /// `run_concurrent` is bit-identical to the plain step loop over
        /// random chain pairs and lopsided iteration counts, on LSD-enabled
        /// and LSD-disabled models under both sharing policies.
        #[test]
        fn run_concurrent_matches_the_plain_step_loop(
            specs in proptest::collection::vec((0u64..3, 0u8..4, 1usize..12, 0u8..3), 2..5),
            schedule in proptest::collection::vec(
                (0usize..5, 0usize..5, 100u64..600, 1u64..40, proptest::prelude::any::<bool>()),
                1..4),
            lsd_enabled in proptest::prelude::any::<bool>(),
            shared in proptest::prelude::any::<bool>(),
            seed in 0u64..1_000,
        ) {
            let chains = chains_from(&specs);
            let schedule: Vec<_> = schedule
                .into_iter()
                .map(|(c0, c1, big, small, flip)| {
                    if flip { (c0, c1, small, big) } else { (c0, c1, big, small) }
                })
                .collect();
            let outcome =
                differential(config(lsd_enabled, shared), seed, &chains, &schedule, |_, _| {});
            proptest::prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }

        /// The SMT factor moves between and within calls, so steps meet
        /// edge notes taken under another factor and re-key them mid-walk
        /// (the fallback of the noted-edge fast path). Between calls a
        /// trace-driven sibling's demand changes on either thread; within
        /// a call the receiver's aligned chain runs beside a misaligned or
        /// L1I-thrashing sender, whose µops per cycle differ from step to
        /// step, and so does the factor it leaves its simulated sibling.
        #[test]
        fn run_concurrent_matches_the_plain_step_loop_when_the_smt_factor_moves(
            recv in (0u8..4, 1usize..9),
            send in (0u8..4, 1usize..9, 1u8..3),
            runs in proptest::collection::vec((50u64..300, 20u64..300, 0u8..3, 0u8..5), 2..6),
            lsd_enabled in proptest::prelude::any::<bool>(),
            shared in proptest::prelude::any::<bool>(),
            seed in 0u64..1_000,
        ) {
            let chains = chains_from(&[(0, recv.0, recv.1, 0), (1, send.0, send.1, send.2)]);
            let schedule: Vec<_> = runs.iter().map(|&(p, q, _, _)| (0, 1, p, q)).collect();
            let outcome = differential(config(lsd_enabled, shared), seed, &chains, &schedule, |i, core| {
                let (_, _, thread, level) = runs[i];
                let demand = 0.25 * f64::from(level);
                match thread {
                    1 => core.set_sibling_demand(ThreadId::T0, demand),
                    2 => core.set_sibling_demand(ThreadId::T1, demand),
                    _ => {}
                }
            });
            proptest::prop_assert!(outcome.is_ok(), "{}", outcome.as_ref().unwrap_err());
            let (stats, _) = outcome.unwrap();
            proptest::prop_assert!(stats.followed > 0, "no step followed: {:?}", stats);
        }

        /// Balanced ping-pong: two chains of the same shape (so the same
        /// per-step cost) with p ≈ q, so the jitter hands the core back
        /// and forth and most steps switch threads.
        #[test]
        fn run_concurrent_matches_the_plain_step_loop_under_ping_pong(
            spec in (0u8..4, 1usize..12, 0u8..3),
            sets in (0u8..4, 0u8..4),
            runs in proptest::collection::vec((50u64..400, 0u64..3), 1..4),
            lsd_enabled in proptest::prelude::any::<bool>(),
            shared in proptest::prelude::any::<bool>(),
            seed in 0u64..1_000,
        ) {
            let (_, n, kind) = spec;
            let chains = chains_from(&[(0, sets.0, n, kind), (1, sets.1, n, kind)]);
            let schedule: Vec<_> = runs.iter().map(|&(p, d)| (0, 1, p, p + d)).collect();
            let steps: u64 = schedule.iter().map(|&(_, _, p, q)| p + q).sum();
            let outcome =
                differential(config(lsd_enabled, shared), seed, &chains, &schedule, |_, _| {});
            proptest::prop_assert!(outcome.is_ok(), "{}", outcome.as_ref().unwrap_err());
            let (_, switches) = outcome.unwrap();
            proptest::prop_assert!(4 * switches > steps, "{} switches in {} steps", switches, steps);
        }

        /// One thread has only a few iterations, so it finishes and is
        /// deactivated while its sibling is mid-walk; the sibling walks on
        /// alone, and the next call starts from the solo state. With
        /// `victim`, T1's backend share comes from a trace-driven sibling
        /// demand that changes between calls (the other SMT factor the
        /// edge notes are keyed on).
        #[test]
        fn run_concurrent_matches_the_plain_step_loop_when_a_thread_finishes_mid_walk(
            specs in proptest::collection::vec((0u64..3, 0u8..4, 1usize..12, 0u8..3), 2..4),
            runs in proptest::collection::vec(
                (0usize..4, 0usize..4, 20u64..300, 1u64..4, proptest::prelude::any::<bool>()),
                1..5),
            victim in proptest::prelude::any::<bool>(),
            lsd_enabled in proptest::prelude::any::<bool>(),
            shared in proptest::prelude::any::<bool>(),
            seed in 0u64..1_000,
        ) {
            let chains = chains_from(&specs);
            let schedule: Vec<_> = runs
                .into_iter()
                .map(|(c0, c1, long, short, flip)| {
                    if flip { (c0, c1, short, long) } else { (c0, c1, long, short) }
                })
                .collect();
            let outcome = differential(config(lsd_enabled, shared), seed, &chains, &schedule, |i, core| {
                if victim && i > 0 {
                    core.set_sibling_demand(ThreadId::T1, 0.25 * (i % 3) as f64);
                }
            });
            proptest::prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }

        /// A trace hook installed between two calls: the later call walks
        /// edges recorded untraced, which must not serve its traced steps.
        #[test]
        fn run_concurrent_matches_the_plain_step_loop_with_a_hook_installed_between_calls(
            specs in proptest::collection::vec((0u64..3, 0u8..4, 1usize..12, 0u8..3), 2..4),
            runs in proptest::collection::vec((20u64..300, 1u64..40, proptest::prelude::any::<bool>()), 2..4),
            events in proptest::prelude::any::<bool>(),
            lsd_enabled in proptest::prelude::any::<bool>(),
            seed in 0u64..1_000,
        ) {
            let chains = chains_from(&specs);
            let schedule: Vec<_> = runs
                .iter()
                .map(|&(big, small, flip)| if flip { (0, 1, small, big) } else { (0, 1, big, small) })
                .collect();
            let late = schedule.len() - 1;
            let mode = if events { TraceMode::Events } else { TraceMode::Summary };
            let outcome = differential(config(lsd_enabled, false), seed, &chains, &schedule, |i, core| {
                if i == late {
                    core.set_trace(TraceHook::new(mode));
                }
            });
            proptest::prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }

        /// A graph that outgrows its state cap is cleared mid-walk: every
        /// call runs under a new MITE pressure on T0, so every call adds
        /// at least three states (both, one and no threads active) and
        /// 180 calls pass the 512-state cap; the walk must carry on
        /// exactly across the reset.
        #[test]
        fn run_concurrent_matches_the_plain_step_loop_across_a_graph_reset(
            specs in proptest::collection::vec((0u64..3, 0u8..4, 1usize..12, 0u8..3), 2..3),
            counts in (2u64..8, 2u64..8),
            lsd_enabled in proptest::prelude::any::<bool>(),
            seed in 0u64..1_000,
        ) {
            let chains = chains_from(&specs);
            let schedule = vec![(0, 1, counts.0, counts.1); 180];
            let outcome = differential(config(lsd_enabled, false), seed, &chains, &schedule, |i, core| {
                core.frontend_mut()
                    .set_external_mite_pressure(ThreadId::T0, 0.01 * i as f64);
            });
            proptest::prop_assert!(outcome.is_ok(), "{}", outcome.as_ref().unwrap_err());
            let (stats, _) = outcome.unwrap();
            proptest::prop_assert!(stats.resets > 0, "no reset: {:?}", stats);
        }

        /// `run_rounds` is bit-identical to the plain `run_once` round
        /// loop over random aligned (eviction), misaligned and
        /// L1I-thrashing layouts, with and without an encoding, each call
        /// on either thread, alone or beside an active sibling, with the
        /// LSD on and off. The calls run twice in a row on graphs kept
        /// across calls: the second pass walks the first pass's graphs,
        /// the two threads' walks over the same chains keep graphs of
        /// their own, and a trace hook installed before the last call
        /// makes a traced walk run on an untraced call's graph. The kept
        /// graphs walk the same steps as graphs released before every
        /// call, simulating no more of them.
        #[test]
        fn run_rounds_matches_the_plain_round_loop(
            specs in proptest::collection::vec((0u64..3, 0u8..4, 1usize..12, 0u8..3), 2..5),
            calls in proptest::collection::vec(
                (0usize..5, 0usize..6, 0u64..40, proptest::prelude::any::<bool>()),
                1..4),
            smt in proptest::prelude::any::<bool>(),
            hook in (proptest::prelude::any::<bool>(), proptest::prelude::any::<bool>()),
            lsd_enabled in proptest::prelude::any::<bool>(),
            seed in 0u64..1_000,
        ) {
            let chains = chains_from(&specs);
            // An encoding index past the chains is a silent 0.
            let schedule: Vec<_> = calls
                .iter()
                .chain(&calls)
                .map(|&(r, e, rounds, t1)| {
                    let tid = if t1 { ThreadId::T1 } else { ThreadId::T0 };
                    (r, (e < chains.len()).then_some(e), rounds, tid)
                })
                .collect();
            let (traced, events) = hook;
            let mode = if events { TraceMode::Events } else { TraceMode::Summary };
            let late = schedule.len() - 1;
            let outcome = rounds_differential(
                config(lsd_enabled, false),
                seed,
                smt,
                &chains,
                &schedule,
                |i, core| {
                    if traced && i == late {
                        core.set_trace(TraceHook::new(mode));
                    }
                },
            );
            proptest::prop_assert!(outcome.is_ok(), "{}", outcome.as_ref().unwrap_err());
            let [kept, released] = outcome.unwrap();
            let walked = calls.iter().any(|&(_, _, rounds, _)| rounds > 0);
            proptest::prop_assert_eq!(kept.states > 0, walked, "{:?}", kept);
            proptest::prop_assert_eq!(
                kept.followed + kept.simulated,
                released.followed + released.simulated
            );
            proptest::prop_assert!(
                kept.simulated <= released.simulated,
                "{:?} vs {:?}",
                kept,
                released
            );
        }

        /// `Accounts::apply`, which skips RAPL's boundary math below its
        /// quiet clock, leaves the clocks and the whole RAPL counter
        /// equal to a plain `Rapl::deposit` at every step: random cycles
        /// on either thread (so the other thread's clock may lead), reads
        /// in between, and deposits whose clock lands exactly on the
        /// quiet clock, just below it, and on the update boundary.
        #[test]
        fn rapl_quiet_deposits_match_plain_deposits(
            steps in proptest::collection::vec(
                (0u8..7, 0.0f64..400_000.0, 0.0f64..1e-4, proptest::prelude::any::<bool>()),
                1..200),
            model in 0usize..4,
            seed in 0u64..1_000,
        ) {
            let model = ProcessorModel::all()[model];
            let mut core = Core::new(model, seed);
            let mut plain = Rapl::new(seed ^ 0x9e37_79b9);
            let mut clock = [0.0f64; 2];
            let mut quiet = 0;
            for (i, &(kind, cycles, joules, t1)) in steps.iter().enumerate() {
                let t = usize::from(t1);
                let landing = |target: f64| (target - clock[t]).max(0.0);
                let cycles = match kind {
                    0 => cycles,
                    1 => cycles / 1_000.0,
                    2 => landing(core.accounts.rapl_quiet),
                    3 => landing(f64::from_bits(core.accounts.rapl_quiet.to_bits() - 1)),
                    4 => landing(plain.next_update_s() * model.freq_hz()),
                    _ => {
                        let now = seconds_at(&model, clock);
                        proptest::prop_assert_eq!(core.read_rapl(), plain.read(now), "step {}", i);
                        continue;
                    }
                };
                quiet += u32::from(
                    (clock[t] + cycles).max(clock[1 - t]) < core.accounts.rapl_quiet,
                );
                core.accounts.apply(t, Charge { cycles, joules });
                clock[t] += cycles;
                plain.deposit(joules, seconds_at(&model, clock));
                proptest::prop_assert_eq!(core.accounts.clock, clock, "step {}", i);
                proptest::prop_assert_eq!(&core.accounts.rapl, &plain, "step {}", i);
                proptest::prop_assert!(core.accounts.rapl_quiet.is_finite());
            }
            proptest::prop_assert!(quiet > 0 || steps.len() < 60, "no quiet deposit");
        }
    }
}
