//! The composed core: frontend + backend + power + timers + SMT driver.

use leaky_backend::Backend;
use leaky_frontend::{
    CostModel, EdgeNote, Frontend, FrontendConfig, IterationReport, SmtDsbPolicy, ThreadId,
    UarchProfile,
};
use leaky_isa::BlockChain;
use leaky_power::{DeliveryClass, PowerModel, Rapl};
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
    /// makes [`Core::reconfigure_frontend`] safe: entries memoised under
    /// a previous configuration stop matching instead of leaking into
    /// the new one.
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
        let config = FrontendConfig {
            lsd_enabled: profile.lsd_enabled && model.lsd_enabled_under(patch),
            ..FrontendConfig::from_profile(profile)
        };
        Self::with_frontend_config(model, patch, config, seed)
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
        Core {
            frontend: Frontend::new(config),
            timer: Timer::new(NoiseModel::with_sigma(model.timing_noise_sigma), seed),
            accounts: Accounts {
                backend: Backend::skylake(),
                power: PowerModel::gold6226(),
                rapl: Rapl::new(seed ^ 0x9e37_79b9),
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

    /// Swaps the frontend onto a new configuration in place (microcode
    /// update / machine change semantics — see
    /// [`Frontend::reconfigure`]), keeping clocks, RAPL state and RNG
    /// streams. The backend-throughput memo needs no flush: its entries
    /// are keyed by (chain, profile key), so values memoised under the
    /// old configuration simply stop matching.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate cache geometry (`SetAssocCache::new`).
    pub fn reconfigure_frontend(&mut self, config: FrontendConfig) {
        self.frontend.reconfigure(config);
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

    /// A low-precision (10 Hz) timer reading for the §XI side channel.
    ///
    /// # Panics
    ///
    /// Panics if the configured timer resolution is not positive
    /// (`Timer::read_low_res`).
    pub fn low_res_time(&mut self, tid: ThreadId) -> f64 {
        let resolution = self.accounts.model.freq_hz() / 10.0;
        self.timer
            .read_low_res(self.accounts.clock[tid.index()], resolution)
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
    /// factor. Each step still advances the clock, deposits its energy
    /// and adds to its [`LoopRun`] one step at a time, in the plain
    /// loop's order.
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
        let profile_key = walk.frontend().profile_key();
        let costs = walk.frontend().config().costs;
        while let Some(pick) = accounts.pick(&remaining) {
            let tid = [ThreadId::T0, ThreadId::T1][pick];
            let factor = accounts.smt_factor(tid, walk.frontend().both_active());
            let (report, note) = walk.step(tid);
            let cost = Cost {
                profile_key,
                costs: &costs,
                factor,
            };
            let charge = match note {
                Some(note) => accounts.charge_noted(&cost, tid, chains[pick], report, note),
                None => accounts.charge_at(&cost, tid, chains[pick], 1, report),
            };
            accounts.apply(pick, charge);
            runs[pick].cycles += charge.cycles;
            runs[pick].iterations += 1;
            runs[pick].report += *report;
            remaining[pick] -= 1;
            if remaining[pick] == 0 {
                walk.deactivate(tid);
            }
        }
        drop(walk);
        let [r0, r1] = runs;
        (r0, r1)
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
    /// already-measured steady-state round: advances the clock and deposits
    /// energy exactly as if the work had been simulated, without re-running
    /// the frontend. Used by the power channels, whose p = q = 240 000
    /// iterations per bit (§VII) would otherwise dominate simulation time.
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
        self.model
            .cycles_to_seconds(self.clock[0].max(self.clock[1]))
    }

    /// Draws the scheduling jitter and picks the thread that is behind
    /// in wall time among those with work left; `None` (and no draw)
    /// once neither has any.
    fn pick(&mut self, remaining: &[u64; 2]) -> Option<usize> {
        if remaining == &[0, 0] {
            return None;
        }
        let jitter: f64 = self.rng.gen_range(-2.0..2.0);
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
        if let Some((k, [cycles, joules, upc])) = *note {
            if k == key {
                if cycles > 0.0 {
                    self.recent_upc[t] = upc;
                }
                return Charge { cycles, joules };
            }
        }
        let charge = self.charge_at(cost, tid, chain, 1, report);
        *note = Some((key, [charge.cycles, charge.joules, self.recent_upc[t]]));
        charge
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
    fn apply(&mut self, t: usize, charge: Charge) {
        self.clock[t] += charge.cycles;
        let now = self.seconds();
        self.rapl.deposit(charge.joules, now);
    }
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
        reconfigured.reconfigure_frontend(icl_config);
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
    /// clocks, the RAPL energy, the cumulative counters, the L1I
    /// statistics and sets, every DSB set in MRU order, and the trace.
    fn state_diff(fast: &Core, plain: &Core) -> Option<String> {
        let (a, b) = (&fast.accounts, &plain.accounts);
        if a.clock.map(f64::to_bits) != b.clock.map(f64::to_bits) {
            return Some(format!("clocks {:?} vs {:?}", a.clock, b.clock));
        }
        if a.rapl.exact_uj().to_bits() != b.rapl.exact_uj().to_bits() {
            return Some("RAPL energy".into());
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
    }
}
