//! The frontend engine: path selection, inclusive eviction handling, SMT
//! arbitration and per-iteration cycle accounting.
//!
//! The per-iteration hot path is zero-allocation: chain identity comes
//! from the precomputed [`BlockChain::key`], delivery walks the flat
//! slices of a memoized `DeliveryPlan` (the private `plan` module), the
//! DSB is one
//! contiguous buffer, and LSD lock bookkeeping lives in inline sorted
//! arrays. The retained [`crate::reference::NaiveFrontend`] oracle plus
//! the differential property tests prove the reports are bit-identical
//! to the naive implementation.

use leaky_cache::{CacheConfig, SetAssocCache};
use leaky_isa::{BlockChain, FrontendGeometry};
use leaky_trace::{Source, TraceEvent, TraceHook, UnlockReason};
use leaky_uarch::{CostModel, UarchProfile};

use crate::counters::{detect_report_period, IterationReport, UopSource};
use crate::dsb::{Dsb, LineId, SmtDsbPolicy};
use crate::plan::{pack_lock_member, DeliveryPlan, PlanBlock, PlanCache};

mod graph;

pub use graph::{EdgeNote, MemoStats, SmtWalk};

/// One of the two hardware threads sharing the physical core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ThreadId {
    /// Hardware thread 0.
    T0,
    /// Hardware thread 1.
    T1,
}

impl ThreadId {
    /// Array index of this thread.
    pub const fn index(self) -> usize {
        match self {
            ThreadId::T0 => 0,
            ThreadId::T1 => 1,
        }
    }

    /// The sibling hardware thread.
    pub const fn other(self) -> ThreadId {
        match self {
            ThreadId::T0 => ThreadId::T1,
            ThreadId::T1 => ThreadId::T0,
        }
    }
}

impl std::fmt::Display for ThreadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HT{}", self.index())
    }
}

/// Static configuration of a frontend instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontendConfig {
    /// Structure geometry (Table I).
    pub geometry: FrontendGeometry,
    /// Cycle-cost calibration.
    pub costs: CostModel,
    /// Whether the LSD exists and is enabled. Microcode patch2 disables it
    /// (§X); the E-2174G/E-2286G machines ship with it disabled (Table I).
    pub lsd_enabled: bool,
    /// SMT sharing discipline for the DSB.
    pub dsb_policy: SmtDsbPolicy,
    /// Under the competitive policy, whether a partition *transition*
    /// additionally flushes the previously-solo thread's DSB lines
    /// (§IV-B's "forces DSB evictions ... to occur").
    pub flush_on_partition: bool,
    /// Consecutive clean iterations of the same loop required before the
    /// LSD locks it. Real loop-stream detection engages only after the
    /// loop has repeated identically several times; this also means a loop
    /// interrupted every iteration (e.g. by an interleaved encode phase)
    /// never streams from the LSD.
    pub lsd_warmup_iterations: u32,
}

impl FrontendConfig {
    /// Builds a configuration from a microarchitecture profile: geometry,
    /// cost model and LSD availability come from the profile, SMT policy
    /// and warm-up from the defaults. The `skylake` profile reproduces
    /// [`FrontendConfig::default`] exactly.
    pub fn from_profile(profile: &UarchProfile) -> Self {
        FrontendConfig {
            geometry: profile.geometry,
            costs: profile.costs,
            lsd_enabled: profile.lsd_enabled,
            ..FrontendConfig::default()
        }
    }

    /// Content hash over every configuration field — the *profile key*
    /// that memoization layers (the delivery-plan cache, `leaky_cpu`'s
    /// backend-throughput memo) pair with chain keys, so state cached
    /// under one configuration can never serve another.
    pub fn profile_key(&self) -> u64 {
        // Destructured without `..`, so a new configuration field is a
        // compile error (E0027) here until it joins the key.
        let FrontendConfig {
            geometry,
            costs,
            lsd_enabled,
            dsb_policy,
            flush_on_partition,
            lsd_warmup_iterations,
        } = self;
        leaky_uarch::config_fingerprint(
            geometry,
            costs,
            &[
                *lsd_enabled as u64,
                match dsb_policy {
                    SmtDsbPolicy::Competitive => 0,
                    SmtDsbPolicy::SetPartitioned => 1,
                    SmtDsbPolicy::Shared => 2,
                },
                *flush_on_partition as u64,
                *lsd_warmup_iterations as u64,
            ],
        )
    }

    /// The L1I cache geometry this configuration implies (Table I values
    /// live in [`FrontendGeometry`]; a perturbed geometry gets a matching
    /// perturbed cache instead of the hardcoded Skylake preset).
    pub(crate) fn l1i_config(&self) -> CacheConfig {
        CacheConfig {
            sets: self.geometry.l1i_sets,
            ways: self.geometry.l1i_ways,
            line_bytes: self.geometry.l1i_line_bytes,
        }
    }
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig {
            geometry: FrontendGeometry::skylake(),
            costs: CostModel::skylake(),
            lsd_enabled: true,
            dsb_policy: SmtDsbPolicy::Competitive,
            flush_on_partition: true,
            lsd_warmup_iterations: 3,
        }
    }
}

/// Upper bound on lock-membership lines: a locked loop streams at most
/// [`FrontendGeometry::lsd_uops`] µops and every DSB line stores at
/// least one µop, so a qualifying loop never spans more lines than its
/// LSD capacity — 64 on every Table I machine; 128 leaves headroom for
/// ablation profiles that double it. [`check_geometry`] caps `lsd_uops`
/// here and [`Frontend::new`] enforces it, so a lock's lines always fit.
const MAX_LOCK_LINES: usize = 128;

/// Upper bound on tracked distinct sibling crossings: the lock collapses
/// once `lines + 2 × crossings` exceeds the 8-window tracking capacity,
/// so the live set stays tiny; 16 covers any plausible ablation geometry.
/// Overflow is treated as a collapse.
const MAX_LOCK_CROSSINGS: usize = 16;

/// Upper bound on L1I lines (`l1i_sets × l1i_ways`): 8 MiB of tags,
/// 2048 times a Table I L1I (512 lines).
const MAX_L1I_LINES: usize = 1 << 20;

/// Checks that the frontend can model `geometry`: every field is
/// positive and within the bounds the DSB, LSD and L1I models are built
/// with. [`Frontend::new`] and [`Frontend::reconfigure`] panic with its
/// message; profile files and channel specs are checked before anything
/// is constructed, so on those paths an unsupported geometry is an
/// error value instead.
///
/// # Errors
///
/// The first unsupported field, named with its bound.
pub fn check_geometry(geometry: &FrontendGeometry) -> Result<(), String> {
    let FrontendGeometry {
        dsb_sets,
        dsb_ways,
        dsb_window_bytes,
        dsb_line_uops,
        lsd_uops,
        lsd_windows,
        l1i_sets,
        l1i_ways,
        l1i_line_bytes,
        iq_entries,
        decode_width,
        idq_delivery_width,
    } = *geometry;
    let positive = [
        dsb_sets,
        dsb_ways,
        dsb_window_bytes,
        dsb_line_uops,
        lsd_uops,
        lsd_windows,
        l1i_sets,
        l1i_ways,
        l1i_line_bytes,
        iq_entries,
        decode_width,
        idq_delivery_width,
    ];
    if positive.contains(&0) {
        return Err("every geometry field must be positive".to_string());
    }
    if dsb_sets > 64 {
        return Err(format!(
            "dsb_sets = {dsb_sets} exceeds the 64 sets a lock's set mask holds"
        ));
    }
    if dsb_ways > usize::from(u8::MAX) {
        return Err(format!("dsb_ways = {dsb_ways} exceeds 255"));
    }
    if u32::try_from(dsb_line_uops).is_err() {
        return Err(format!("dsb_line_uops = {dsb_line_uops} exceeds u32::MAX"));
    }
    if lsd_uops > MAX_LOCK_LINES {
        return Err(format!(
            "lsd_uops = {lsd_uops} exceeds the {MAX_LOCK_LINES} lines a lock tracks"
        ));
    }
    if !l1i_line_bytes.is_power_of_two() {
        return Err(format!(
            "l1i_line_bytes = {l1i_line_bytes} must be a power of two"
        ));
    }
    if l1i_ways > usize::from(u16::MAX) {
        return Err(format!("l1i_ways = {l1i_ways} exceeds 65535"));
    }
    if l1i_sets.saturating_mul(l1i_ways) > MAX_L1I_LINES {
        return Err(format!(
            "l1i_sets × l1i_ways = {l1i_sets} × {l1i_ways} exceeds {MAX_L1I_LINES} lines"
        ));
    }
    Ok(())
}

/// Panics with [`check_geometry`]'s message on an unsupported geometry.
fn assert_supported(geometry: &FrontendGeometry) {
    if let Err(err) = check_geometry(geometry) {
        panic!("unsupported frontend geometry: {err}");
    }
}

/// Longest report cycle `run_iterations` recognises as steady state.
const MAX_STEADY_PERIOD: usize = 16;

/// A loop currently locked into the LSD of one thread. All bookkeeping is
/// inline (no heap): membership is a sorted array of packed
/// `(window << 8) | chunk` entries copied from the delivery plan, probed
/// by binary search on evictions. Its `Debug` shows only the
/// meaningful prefixes of the two arrays.
#[derive(Clone)]
struct LoopLock {
    key: u64,
    uops: u32,
    /// Bitmask of DSB sets the loop's lines occupy (one bit per set;
    /// wide enough for ablation geometries of up to 64 sets).
    set_mask: u64,
    /// Sorted packed line members (inclusive property: evicting any of
    /// them flushes the lock). Only `lines[..n_lines]` is meaningful.
    lines: [u64; MAX_LOCK_LINES],
    n_lines: u8,
    /// Head windows of *sibling-thread* window-crossing blocks executed in
    /// overlapping sets while this lock is live. The shared window-tracking
    /// model (§IV-G, Fig. 6): the lock collapses once
    /// `lines + 2 × crossings` exceeds the LSD's window capacity — without
    /// any DSB eviction, so delivery falls back to the (faster) DSB.
    /// Only `crossings[..n_crossings]` is meaningful.
    crossings: [u64; MAX_LOCK_CROSSINGS],
    n_crossings: u8,
}

impl std::fmt::Debug for LoopLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoopLock")
            .field("key", &self.key)
            .field("uops", &self.uops)
            .field("set_mask", &self.set_mask)
            .field("lines", &&self.lines[..self.n_lines as usize])
            .field("crossings", &&self.crossings[..self.n_crossings as usize])
            .finish()
    }
}

impl LoopLock {
    /// A fresh lock on `plan`'s loop with no sibling crossings yet.
    fn from_plan(plan: &DeliveryPlan) -> LoopLock {
        let mut lines = [0u64; MAX_LOCK_LINES];
        lines[..plan.lock_lines.len()].copy_from_slice(&plan.lock_lines);
        LoopLock {
            key: plan.key,
            uops: plan.total_uops,
            set_mask: plan.set_mask,
            lines,
            n_lines: plan.lock_lines.len() as u8,
            crossings: [0; MAX_LOCK_CROSSINGS],
            n_crossings: 0,
        }
    }

    fn contains_line(&self, packed: u64) -> bool {
        self.lines[..self.n_lines as usize]
            .binary_search(&packed)
            .is_ok()
    }

    /// Records a (deduplicated) sibling crossing; returns the updated
    /// distinct-crossing count, or `None` when the inline capacity would
    /// overflow (callers treat that as a collapse — reachable only with
    /// window-tracking capacities far beyond any Table I machine).
    fn note_crossing(&mut self, window: u64) -> Option<usize> {
        let n = self.n_crossings as usize;
        if self.crossings[..n].contains(&window) {
            return Some(n);
        }
        if n >= MAX_LOCK_CROSSINGS {
            return None;
        }
        self.crossings[n] = window;
        self.n_crossings += 1;
        Some(n + 1)
    }
}

/// The simulated frontend shared by two hardware threads.
///
/// See the [crate-level documentation](crate) for the model, and
/// [`Frontend::run_iteration`] for the central operation. Its `Debug`
/// output shows the model's state; the memos and scratch buffers (plans,
/// state graphs, flush victims, run history), which never change a
/// result, are left out.
#[derive(Clone)]
pub struct Frontend {
    config: FrontendConfig,
    dsb: Dsb,
    l1i: SetAssocCache,
    locks: [Option<LoopLock>; 2],
    last_source: [UopSource; 2],
    active: [bool; 2],
    /// Pending LSD-flush penalty to charge when the thread next runs.
    pending_lsd_flush: [bool; 2],
    /// Extra MITE decode pressure exerted by the sibling thread (used by the
    /// §XI fingerprinting victim model); 0.0 = none.
    external_mite_pressure: [f64; 2],
    /// Per thread: (chain key, consecutive clean iterations) for LSD
    /// warm-up tracking. The count saturates at the warm-up length: it
    /// is only ever compared with `<` against it, and a bounded count
    /// keeps the state graphs finite.
    lock_streak: [(u64, u32); 2],
    cumulative: [IterationReport; 2],
    /// Memoized delivery plans for the chains this frontend executes,
    /// keyed by (chain key, `config_key`).
    plans: PlanCache,
    /// Cached [`FrontendConfig::profile_key`] of the active configuration
    /// (hashing per iteration would put FNV on the hot path).
    config_key: u64,
    /// Observability hook (DESIGN.md §12). Deliberately *not* part of
    /// [`FrontendConfig`]: tracing must never reach the profile key, the
    /// plan cache, or any other behavior-bearing state.
    trace: TraceHook,
    /// State graphs behind [`Frontend::smt_walk`] and
    /// [`Frontend::round_walk`], one per walked lane pair (a few at
    /// most), kept until [`Frontend::release_graphs`].
    graphs: graph::Graphs,
    /// The victims of the last [`Dsb::flush_thread`], kept so a warm
    /// flush does not allocate.
    victims: Vec<LineId>,
    /// The recent reports [`Frontend::run_iterations`] looks for a
    /// steady-state cycle in, kept so a warm run does not allocate.
    history: Vec<IterationReport>,
}

impl std::fmt::Debug for Frontend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Destructured without `..`, so a new field is a compile error
        // here until it is shown or left out on purpose.
        let Frontend {
            config,
            dsb,
            l1i,
            locks,
            last_source,
            active,
            pending_lsd_flush,
            external_mite_pressure,
            lock_streak,
            cumulative,
            plans: _,
            config_key,
            trace,
            graphs: _,
            victims: _,
            history: _,
        } = self;
        f.debug_struct("Frontend")
            .field("config", config)
            .field("dsb", dsb)
            .field("l1i", l1i)
            .field("locks", locks)
            .field("last_source", last_source)
            .field("active", active)
            .field("pending_lsd_flush", pending_lsd_flush)
            .field("external_mite_pressure", external_mite_pressure)
            .field("lock_streak", lock_streak)
            .field("cumulative", cumulative)
            .field("config_key", config_key)
            .field("trace", trace)
            .finish_non_exhaustive()
    }
}

/// [`UopSource`] → trace [`Source`] (the trace crate sits below this one
/// in the dependency graph, so it mirrors the enum rather than using it).
const fn trace_source(source: UopSource) -> Source {
    match source {
        UopSource::Lsd => Source::Lsd,
        UopSource::Dsb => Source::Dsb,
        UopSource::Mite => Source::Mite,
    }
}

impl Frontend {
    /// Creates an idle frontend.
    ///
    /// # Panics
    ///
    /// Panics with [`check_geometry`]'s message if the frontend cannot
    /// model `config.geometry`. Profile files and channel specs are
    /// checked before they reach here, so only a hand-built geometry can.
    pub fn new(config: FrontendConfig) -> Self {
        assert_supported(&config.geometry);
        Frontend {
            dsb: Dsb::new(config.geometry, config.dsb_policy),
            l1i: SetAssocCache::new(config.l1i_config()),
            locks: [None, None],
            last_source: [UopSource::Dsb, UopSource::Dsb],
            active: [false, false],
            pending_lsd_flush: [false, false],
            external_mite_pressure: [0.0, 0.0],
            lock_streak: [(0, 0), (0, 0)],
            cumulative: [IterationReport::default(), IterationReport::default()],
            plans: PlanCache::default(),
            config_key: config.profile_key(),
            trace: TraceHook::Off,
            graphs: graph::Graphs::default(),
            victims: Vec::new(),
            history: Vec::new(),
            config,
        }
    }

    /// Creates an idle frontend for a microarchitecture profile (see
    /// [`FrontendConfig::from_profile`]).
    ///
    /// # Panics
    ///
    /// Panics if the profile's geometry fails [`check_geometry`].
    pub fn with_profile(profile: &UarchProfile) -> Self {
        Self::new(FrontendConfig::from_profile(profile))
    }

    /// The configuration in use.
    pub fn config(&self) -> &FrontendConfig {
        &self.config
    }

    /// The cached profile key of the active configuration — what the
    /// plan cache (and `leaky_cpu`'s backend memo) pair with chain keys.
    pub fn profile_key(&self) -> u64 {
        self.config_key
    }

    /// Swaps in a new configuration, modeling a microcode update /
    /// machine change: the DSB and L1I are rebuilt empty for the new
    /// geometry and all LSD locks, streaks and pending penalties are
    /// dropped. Cumulative counters survive (callers that want a clean
    /// slate call [`Frontend::reset_counters`]); so does the memoized
    /// plan cache — its (chain, profile-key) entries make stale plans
    /// unreachable rather than requiring a flush, and switching *back*
    /// to a previous configuration rehits its plans. The state graphs
    /// are cleared: their edges assume the configuration they were
    /// recorded under.
    ///
    /// # Panics
    ///
    /// Panics with [`check_geometry`]'s message if the frontend cannot
    /// model `config.geometry`; the frontend is then left unchanged.
    pub fn reconfigure(&mut self, config: FrontendConfig) {
        assert_supported(&config.geometry);
        self.dsb = Dsb::new(config.geometry, config.dsb_policy);
        self.l1i = SetAssocCache::new(config.l1i_config());
        self.locks = [None, None];
        self.last_source = [UopSource::Dsb, UopSource::Dsb];
        self.pending_lsd_flush = [false, false];
        self.lock_streak = [(0, 0), (0, 0)];
        self.config_key = config.profile_key();
        self.config = config;
        self.graphs.clear();
    }

    /// Installs a trace hook. [`TraceHook::Off`] (the construction
    /// default) makes every emission site a single dead branch; the
    /// reports are bit-identical either way (pinned by the
    /// `trace_differential` property test).
    pub fn set_trace(&mut self, hook: TraceHook) {
        self.trace = hook;
    }

    /// The installed trace hook.
    pub fn trace(&self) -> &TraceHook {
        &self.trace
    }

    /// Mutable access to the trace hook (for emitting events from layers
    /// above, e.g. the covert channels' calibration/decode events).
    pub fn trace_mut(&mut self) -> &mut TraceHook {
        &mut self.trace
    }

    /// Detaches the trace hook, leaving tracing off.
    pub fn take_trace(&mut self) -> TraceHook {
        std::mem::take(&mut self.trace)
    }

    /// The DSB state (for probing/assertions).
    pub fn dsb(&self) -> &Dsb {
        &self.dsb
    }

    /// The shared L1 instruction cache.
    pub fn l1i(&self) -> &SetAssocCache {
        &self.l1i
    }

    /// Mutable access to the L1 instruction cache. Used by attack code that
    /// manipulates instruction-cache state directly (e.g. the L1I
    /// Flush+Reload Spectre baseline of Table VII).
    pub fn l1i_mut(&mut self) -> &mut SetAssocCache {
        &mut self.l1i
    }

    /// Whether both hardware threads are currently active.
    #[inline]
    pub fn both_active(&self) -> bool {
        self.active[0] && self.active[1]
    }

    /// Marks a hardware thread active or idle. Transitions between solo and
    /// dual mode repartition the DSB (§IV-B) and may flush lines and LSD
    /// locks depending on [`FrontendConfig::dsb_policy`].
    pub fn set_active(&mut self, tid: ThreadId, active: bool) {
        let was_both = self.both_active();
        let previously_solo = if self.active[0] {
            Some(ThreadId::T0)
        } else if self.active[1] {
            Some(ThreadId::T1)
        } else {
            None
        };
        self.active[tid.index()] = active;
        let now_both = self.both_active();
        if was_both == now_both {
            return;
        }
        let flushed = self.dsb.set_partitioned(now_both);
        for line in &flushed {
            self.invalidate_lock_if_member(*line);
        }
        if now_both {
            // Competitive policy: the waking thread displaces the resident
            // thread's footprint (paper: partitioning "forces DSB evictions
            // of micro-ops of the first thread").
            if self.config.flush_on_partition && self.config.dsb_policy == SmtDsbPolicy::Competitive
            {
                if let Some(solo) = previously_solo {
                    if solo != tid {
                        let mut victims = std::mem::take(&mut self.victims);
                        victims.clear();
                        self.dsb.flush_thread(solo.index() as u8, &mut victims);
                        for &line in &victims {
                            self.invalidate_lock_if_member(line);
                        }
                        self.victims = victims;
                    }
                }
            }
            // LSD µop capacity halves: re-validate both locks.
            for t in 0..2 {
                let invalid = match &self.locks[t] {
                    Some(lock) => lock.uops as usize > self.config.geometry.lsd_uops / 2,
                    None => false,
                };
                if invalid {
                    self.locks[t] = None;
                    self.pending_lsd_flush[t] = true;
                    self.lock_streak[t].1 = 0;
                    self.trace.emit(|| TraceEvent::LsdUnlock {
                        thread: t as u8,
                        reason: UnlockReason::Partition,
                    });
                }
            }
        }
    }

    /// Sets the sibling-pressure factor on this thread's MITE decode costs
    /// (victim-model hook for the §XI side channel).
    ///
    /// # Panics
    ///
    /// Panics if `pressure` is negative.
    pub fn set_external_mite_pressure(&mut self, tid: ThreadId, pressure: f64) {
        assert!(pressure >= 0.0, "pressure must be non-negative");
        self.external_mite_pressure[tid.index()] = pressure;
    }

    /// Cumulative counters for one thread since construction or
    /// [`Frontend::reset_counters`].
    pub fn counters(&self, tid: ThreadId) -> &IterationReport {
        &self.cumulative[tid.index()]
    }

    /// Clears cumulative counters (state is preserved).
    pub fn reset_counters(&mut self) {
        self.cumulative = [IterationReport::default(), IterationReport::default()];
    }

    /// Whether `tid`'s LSD currently streams the given chain.
    pub fn lsd_locked(&self, tid: ThreadId, chain: &BlockChain) -> bool {
        self.locks[tid.index()]
            .as_ref()
            .is_some_and(|l| l.key == chain.key())
    }

    /// Executes one iteration of a loop over `chain` on thread `tid`,
    /// returning what the frontend did.
    ///
    /// The first iteration of a cold loop decodes through the MITE and fills
    /// the DSB; once every backing line is resident and the loop qualifies
    /// (see [`crate::lsd_qualifies`]) the LSD locks it, and subsequent
    /// iterations stream from the LSD until an inclusive eviction or
    /// partition event flushes the lock.
    ///
    /// The first call for a given chain memoizes its delivery plan;
    /// subsequent iterations are allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if the geometry's µops-per-line is zero
    /// (`Block::line_slots_for`).
    pub fn run_iteration(&mut self, tid: ThreadId, chain: &BlockChain) -> IterationReport {
        let plan = self
            .plans
            .get_or_build(chain, &self.config.geometry, self.config_key);
        self.run_iteration_plan(tid, &plan)
    }

    /// The hot path: one iteration over a prebuilt delivery plan.
    fn run_iteration_plan(&mut self, tid: ThreadId, plan: &DeliveryPlan) -> IterationReport {
        let t = tid.index();
        let mut report = IterationReport::new();

        if std::mem::take(&mut self.pending_lsd_flush[t]) {
            report.cycles += self.config.costs.lsd_flush;
            report.lsd_flushes += 1;
            self.last_source[t] = UopSource::Dsb;
            self.trace.emit(|| TraceEvent::LsdFlushPenalty {
                thread: t as u8,
                cycles: self.config.costs.lsd_flush,
            });
        }

        let key = plan.key;
        if self.lock_streak[t].0 == key {
            self.lock_streak[t].1 = self.lock_streak[t]
                .1
                .saturating_add(1)
                .min(self.config.lsd_warmup_iterations);
        } else {
            self.lock_streak[t] = (key, 1);
        }
        if let Some(lock) = &self.locks[t] {
            if lock.key == key {
                // LSD streaming: the rest of the frontend is off.
                let uops = plan.total_uops;
                report.cycles +=
                    self.config.costs.lsd_stream(uops) + self.config.costs.loop_overhead;
                report.add_uops(UopSource::Lsd, uops as u64);
                self.last_source[t] = UopSource::Lsd;
                // A streaming loop still occupies shared window-tracking
                // entries: its window-crossing blocks keep pressuring the
                // sibling's loop tracking (§IV-G, Fig. 6).
                if self.both_active() {
                    for i in 0..plan.crossing_head_windows.len() {
                        let window = plan.crossing_head_windows[i];
                        self.note_sibling_crossing(tid, window);
                    }
                }
                self.emit_iteration(t, &report, 1);
                self.cumulative[t] += report;
                return report;
            }
            // Different loop: the old lock dies (loop exit).
            self.locks[t] = None;
            self.trace.emit(|| TraceEvent::LsdUnlock {
                thread: t as u8,
                reason: UnlockReason::LoopExit,
            });
        }

        for &blk in &plan.blocks {
            let fetched = blk.cache_start as usize..blk.cache_end as usize;
            self.fetch_l1i(&plan.cache_lines[fetched], &mut report);
            if blk.has_lcp {
                self.deliver_lcp_block(tid, plan, blk, &mut report);
            } else {
                self.deliver_block(tid, plan, blk, &mut report);
            }
        }
        report.cycles += self.config.costs.loop_overhead;

        self.maybe_lock_lsd(tid, plan, key);
        self.emit_iteration(t, &report, 1);
        self.cumulative[t] += report;
        report
    }

    /// Emits the per-iteration event; `weight > 1` stands for that many
    /// identical iterations (the steady-state collapse).
    #[inline]
    fn emit_iteration(&mut self, t: usize, report: &IterationReport, weight: u64) {
        self.trace.emit(|| TraceEvent::Iteration {
            thread: t as u8,
            source: trace_source(report.dominant_source()),
            weight,
            cycles: report.cycles,
            lsd_uops: report.lsd_uops,
            dsb_uops: report.dsb_uops,
            mite_uops: report.mite_uops,
            lcp_stall_cycles: report.lcp_stall_cycles,
            switch_penalty_cycles: report.switch_penalty_cycles,
            dsb_to_mite_switches: report.dsb_to_mite_switches,
            dsb_evictions: report.dsb_evictions,
            lsd_flushes: report.lsd_flushes,
            l1i_misses: report.l1i_misses,
        });
    }

    /// Runs `n` iterations, detecting steady state to avoid simulating every
    /// iteration of very long runs (e.g. Fig. 4's 800 M). Steady state is a
    /// *report cycle* of period `k ≤ 16` observed twice in a row (period 1 —
    /// exact repetition — is the seed's rule and the common case;
    /// oscillating delivery patterns settle into longer cycles). Counts
    /// then match the plain loop exactly and cycle totals agree up to
    /// `f64` summation order.
    ///
    /// **Known approximation** (inherited from the seed's period-1 rule,
    /// and load-bearing for the committed Table VII numbers): report
    /// equality is trusted even while the LSD warm-up streak is still
    /// counting, so a loop whose pre-lock iterations repeat exactly is
    /// extrapolated on its pre-lock delivery path rather than
    /// transitioning to LSD streaming mid-run. With the default
    /// three-iteration warm-up the cold-start transient breaks the
    /// repetition and the collapse is faithful; longer warm-ups can pin a
    /// qualifying loop to the DSB path (see
    /// `steady_state_collapse_can_freeze_lsd_warmup` and DESIGN.md §6).
    ///
    /// # Panics
    ///
    /// Panics if the geometry's µops-per-line is zero
    /// (`Block::line_slots_for`).
    pub fn run_iterations(&mut self, tid: ThreadId, chain: &BlockChain, n: u64) -> IterationReport {
        let plan = self
            .plans
            .get_or_build(chain, &self.config.geometry, self.config_key);
        let mut total = IterationReport::new();
        let mut history = std::mem::take(&mut self.history);
        history.clear();
        history.reserve(2 * MAX_STEADY_PERIOD);
        let mut done = 0u64;
        while done < n {
            let r = self.run_iteration_plan(tid, &plan);
            done += 1;
            if history.len() == 2 * MAX_STEADY_PERIOD {
                history.remove(0);
            }
            history.push(r);
            if done < n {
                if let Some(k) = detect_report_period(&history, MAX_STEADY_PERIOD) {
                    // The last k reports form a cycle: charge all complete
                    // remaining cycles at once.
                    let full_cycles = (n - done) / k as u64;
                    if full_cycles > 0 {
                        for rep in &history[history.len() - k..] {
                            let s = rep.scaled(full_cycles);
                            total += s;
                            self.cumulative[tid.index()] += s;
                            // One weighted event per cycle member keeps
                            // traced totals equal to the plain loop.
                            self.emit_iteration(tid.index(), rep, full_cycles);
                        }
                        done += full_cycles * k as u64;
                    }
                }
            }
            total += r;
        }
        self.history = history;
        total
    }

    /// Removes every DSB line and LSD lock belonging to `tid` (models
    /// context-switch / enclave teardown).
    pub fn flush_thread_state(&mut self, tid: ThreadId) {
        self.victims.clear();
        self.dsb.flush_thread(tid.index() as u8, &mut self.victims);
        self.locks[tid.index()] = None;
        self.pending_lsd_flush[tid.index()] = false;
    }

    fn fetch_l1i(&mut self, cache_lines: &[u64], report: &mut IterationReport) {
        for &line in cache_lines {
            report.l1i_accesses += 1;
            if !self.l1i.access_line(line).hit() {
                report.l1i_misses += 1;
                report.cycles += self.config.costs.l1i_miss;
            }
        }
    }

    fn mite_pressure_factor(&self, t: usize) -> f64 {
        1.0 + self.external_mite_pressure[t]
    }

    fn charge_switch(&mut self, t: usize, new_source: UopSource, report: &mut IterationReport) {
        let old = self.last_source[t];
        if old == new_source {
            return;
        }
        match (old, new_source) {
            (UopSource::Dsb | UopSource::Lsd, UopSource::Mite) => {
                let penalty = self.config.costs.dsb_to_mite_switch;
                report.cycles += penalty;
                report.switch_penalty_cycles += penalty;
                report.dsb_to_mite_switches += 1;
                self.emit_switch(t, old, new_source, penalty);
            }
            (UopSource::Mite, _) => {
                let penalty = self.config.costs.mite_to_dsb_switch;
                report.cycles += penalty;
                report.switch_penalty_cycles += penalty;
                self.emit_switch(t, old, new_source, penalty);
            }
            _ => {}
        }
        self.last_source[t] = new_source;
    }

    #[inline]
    fn emit_switch(&mut self, t: usize, from: UopSource, to: UopSource, penalty: f64) {
        self.trace.emit(|| TraceEvent::SourceSwitch {
            thread: t as u8,
            from: trace_source(from),
            to: trace_source(to),
            penalty_cycles: penalty,
        });
    }

    fn deliver_block(
        &mut self,
        tid: ThreadId,
        plan: &DeliveryPlan,
        blk: PlanBlock,
        report: &mut IterationReport,
    ) {
        let t = tid.index();
        let smt = self.both_active();
        if blk.crossing {
            report.cycles += self.config.costs.window_crossing_penalty;
            report.crossing_penalty_cycles += self.config.costs.window_crossing_penalty;
            if smt {
                self.note_sibling_crossing(tid, blk.head_window);
            }
        }
        for line in &plan.lines[blk.lines_start as usize..blk.lines_end as usize] {
            let lid = LineId {
                thread: t as u8,
                window: line.window,
                chunk: line.chunk,
            };
            let (hit, evicted) = self.dsb.access(lid);
            if hit {
                self.charge_switch(t, UopSource::Dsb, report);
                report.cycles += self.config.costs.dsb_line(line.uops);
                report.add_uops(UopSource::Dsb, line.uops as u64);
            } else {
                self.charge_switch(t, UopSource::Mite, report);
                report.cycles +=
                    self.config.costs.mite_line(line.uops, smt) * self.mite_pressure_factor(t);
                report.add_uops(UopSource::Mite, line.uops as u64);
                if let Some(evicted) = evicted {
                    report.dsb_evictions += 1;
                    self.invalidate_lock_if_member(evicted);
                }
            }
        }
    }

    /// Records that `tid` executed a window-crossing block (head window
    /// `window`) and, if the sibling thread has an LSD-locked loop
    /// occupying one of the same DSB sets, accounts it against the shared
    /// window-tracking capacity (the §IV-G / Fig. 6 misalignment-collision
    /// mechanism). The sibling's lock collapses — without DSB evictions —
    /// once `lock lines + 2 × distinct crossings > lsd_windows`.
    fn note_sibling_crossing(&mut self, tid: ThreadId, window: u64) {
        let sets = self.config.geometry.dsb_sets as u64;
        let other = tid.other().index();
        let head_set = window % sets;
        let window_cap = self.config.geometry.lsd_windows;
        let collapse = match &mut self.locks[other] {
            Some(lock) if lock.set_mask & (1u64 << head_set) != 0 => {
                match lock.note_crossing(window) {
                    Some(crossings) => lock.n_lines as usize + 2 * crossings > window_cap,
                    // Inline tracking overflow: only reachable with a
                    // window capacity far beyond Table I; treat as collapse.
                    None => true,
                }
            }
            _ => false,
        };
        if collapse {
            self.locks[other] = None;
            self.pending_lsd_flush[other] = true;
            // Loop-stream detection must re-warm from scratch.
            self.lock_streak[other].1 = 0;
            self.trace.emit(|| TraceEvent::LsdUnlock {
                thread: other as u8,
                reason: UnlockReason::SiblingCollapse,
            });
        }
    }

    /// Instruction-granular delivery for blocks containing LCP-prefixed
    /// instructions (§IV-H): LCP instructions always decode through the
    /// MITE with a pre-decode stall (amplified when LCPs are back-to-back),
    /// while plain instructions hit the DSB once warm. Path switches are
    /// charged per transition — this is what separates the paper's "mixed"
    /// and "ordered" issue patterns (Fig. 4).
    fn deliver_lcp_block(
        &mut self,
        tid: ThreadId,
        plan: &DeliveryPlan,
        blk: PlanBlock,
        report: &mut IterationReport,
    ) {
        let t = tid.index();
        let smt = self.both_active();
        let costs = self.config.costs;
        let pressure = self.mite_pressure_factor(t);
        let smt_factor = if smt { costs.smt_mite_factor } else { 1.0 };
        // Instruction-granular switch accounting with pipelined (reduced)
        // effective penalties — see CostModel::lcp_dsb_to_mite_switch.
        let charge_lcp_switch =
            |last: &mut UopSource, new_source: UopSource, report: &mut IterationReport| {
                if *last == new_source {
                    return;
                }
                match (*last, new_source) {
                    (UopSource::Dsb | UopSource::Lsd, UopSource::Mite) => {
                        report.cycles += costs.lcp_dsb_to_mite_switch;
                        report.switch_penalty_cycles += costs.lcp_dsb_to_mite_switch;
                        report.dsb_to_mite_switches += 1;
                    }
                    (UopSource::Mite, _) => {
                        report.cycles += costs.lcp_mite_to_dsb_switch;
                        report.switch_penalty_cycles += costs.lcp_mite_to_dsb_switch;
                    }
                    _ => {}
                }
                *last = new_source;
            };
        let mut last = self.last_source[t];
        let mut prev_lcp = false;
        let stall_before = report.lcp_stall_cycles;
        for instr in &plan.instrs[blk.instr_start as usize..blk.instr_end as usize] {
            if instr.has_lcp {
                charge_lcp_switch(&mut last, UopSource::Mite, report);
                let stall = costs.lcp_stall
                    + if prev_lcp {
                        costs.lcp_sequential_extra
                    } else {
                        0.0
                    };
                report.cycles += (costs.mite_per_instr + stall) * smt_factor * pressure;
                report.lcp_stall_cycles += stall * smt_factor;
                report.add_uops(UopSource::Mite, instr.uops as u64);
                prev_lcp = true;
            } else {
                let lid = LineId {
                    thread: t as u8,
                    window: instr.window,
                    chunk: 0,
                };
                let (hit, evicted) = self.dsb.access(lid);
                if hit {
                    charge_lcp_switch(&mut last, UopSource::Dsb, report);
                    report.cycles += costs.dsb_per_uop * instr.uops as f64;
                    report.add_uops(UopSource::Dsb, instr.uops as u64);
                } else {
                    charge_lcp_switch(&mut last, UopSource::Mite, report);
                    report.cycles += costs.mite_per_instr * smt_factor * pressure;
                    report.add_uops(UopSource::Mite, instr.uops as u64);
                    if let Some(evicted) = evicted {
                        report.dsb_evictions += 1;
                        self.invalidate_lock_if_member(evicted);
                    }
                }
                prev_lcp = false;
            }
        }
        self.last_source[t] = last;
        // One event per stalled block; the per-instruction switch charges
        // stay inside the iteration counters (emitting per instruction
        // would dwarf every other event class).
        let block_stall = report.lcp_stall_cycles - stall_before;
        if block_stall > 0.0 {
            self.trace.emit(|| TraceEvent::LcpStall {
                thread: t as u8,
                stall_cycles: block_stall,
            });
        }
    }

    fn maybe_lock_lsd(&mut self, tid: ThreadId, plan: &DeliveryPlan, key: u64) {
        if !self.config.lsd_enabled {
            return;
        }
        // Loop-stream detection needs several identical iterations before
        // it engages (the streak was updated for this iteration already).
        debug_assert_eq!(self.lock_streak[tid.index()].0, key);
        if self.lock_streak[tid.index()].1 < self.config.lsd_warmup_iterations {
            return;
        }
        // LCP-bearing loops never stream from the LSD: the LCP forces the
        // MITE path every iteration (§IV-H).
        if plan.has_lcp {
            return;
        }
        let smt = self.both_active();
        if !plan.lsd_fits[usize::from(smt)] {
            return;
        }
        // Every backing DSB line must be resident (DSB ⊇ LSD).
        let t = tid.index();
        for line in &plan.lines {
            let lid = LineId {
                thread: t as u8,
                window: line.window,
                chunk: line.chunk,
            };
            if !self.dsb.resident(lid) {
                return;
            }
        }
        self.locks[t] = Some(LoopLock::from_plan(plan));
        self.trace.emit(|| TraceEvent::LsdLock {
            thread: t as u8,
            uops: plan.total_uops,
            lines: plan.lock_lines.len() as u8,
        });
    }

    fn invalidate_lock_if_member(&mut self, evicted: LineId) {
        let t = evicted.thread as usize;
        let packed = pack_lock_member(evicted.window, evicted.chunk);
        let member = self.locks[t]
            .as_ref()
            .is_some_and(|l| l.contains_line(packed));
        if member {
            self.locks[t] = None;
            self.pending_lsd_flush[t] = true;
            self.lock_streak[t].1 = 0;
            self.trace.emit(|| TraceEvent::LsdUnlock {
                thread: t as u8,
                reason: UnlockReason::Eviction,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leaky_isa::{same_set_chain, Alignment, DsbSet};

    const RECV_BASE: u64 = 0x0041_8000;
    const SEND_BASE: u64 = 0x0082_0000;

    fn frontend() -> Frontend {
        Frontend::new(FrontendConfig::default())
    }

    fn aligned(base: u64, set: u8, n: usize) -> BlockChain {
        same_set_chain(base, DsbSet::new(set), n, Alignment::Aligned)
    }

    #[test]
    #[should_panic(expected = "lsd_uops = 1728 exceeds the 128 lines a lock tracks")]
    fn new_rejects_a_geometry_check_geometry_rejects() {
        let mut config = FrontendConfig::default();
        config.geometry.lsd_uops = 1728;
        let _ = Frontend::new(config);
    }

    #[test]
    fn cold_loop_decodes_via_mite_then_locks_lsd() {
        let mut fe = frontend();
        let chain = aligned(RECV_BASE, 0, 8);
        let cold = fe.run_iteration(ThreadId::T0, &chain);
        assert_eq!(cold.mite_uops, 40);
        assert_eq!(cold.lsd_uops, 0);
        // Lock engages only after the warm-up streak (3 iterations).
        assert!(!fe.lsd_locked(ThreadId::T0, &chain));
        fe.run_iteration(ThreadId::T0, &chain);
        fe.run_iteration(ThreadId::T0, &chain);
        assert!(fe.lsd_locked(ThreadId::T0, &chain));
        let warm = fe.run_iteration(ThreadId::T0, &chain);
        assert_eq!(warm.lsd_uops, 40);
        assert_eq!(warm.mite_uops, 0);
        assert!(warm.cycles < cold.cycles / 2.0);
    }

    #[test]
    fn nine_way_chain_never_locks_and_keeps_missing() {
        // §IV-F: 9 same-set blocks exceed both the 8 DSB ways and the LSD
        // window tracking; delivery oscillates DSB/MITE forever.
        let mut fe = frontend();
        let chain = aligned(RECV_BASE, 0, 9);
        for _ in 0..5 {
            let r = fe.run_iteration(ThreadId::T0, &chain);
            assert!(r.mite_uops > 0, "set conflicts must keep MITE busy");
            assert_eq!(r.lsd_uops, 0);
        }
        assert!(!fe.lsd_locked(ThreadId::T0, &chain));
    }

    #[test]
    fn eight_vs_nine_blocks_is_the_paper_timing_signal() {
        // The §IV-F eviction primitive: 8 blocks fast (LSD), 9 slow (MITE).
        let mut fe = frontend();
        let eight = aligned(RECV_BASE, 0, 8);
        let mut warm8 = IterationReport::new();
        for _ in 0..4 {
            warm8 = fe.run_iteration(ThreadId::T0, &eight);
        }
        let mut fe2 = frontend();
        let nine = aligned(RECV_BASE, 0, 9);
        let mut warm9 = IterationReport::new();
        for _ in 0..4 {
            warm9 = fe2.run_iteration(ThreadId::T0, &nine);
        }
        let per_block8 = warm8.cycles / 8.0;
        let per_block9 = warm9.cycles / 9.0;
        assert!(
            per_block9 > per_block8 * 1.5,
            "9-block chain must be much slower per block ({per_block8:.2} vs {per_block9:.2})"
        );
    }

    #[test]
    fn no_l1i_misses_after_warmup_for_nine_blocks() {
        // §IV-F: changing chain length 8 → 9 causes no L1I misses.
        let mut fe = frontend();
        let chain = aligned(RECV_BASE, 0, 9);
        fe.run_iteration(ThreadId::T0, &chain); // cold fills
        for _ in 0..3 {
            let r = fe.run_iteration(ThreadId::T0, &chain);
            assert_eq!(r.l1i_misses, 0);
        }
    }

    #[test]
    fn misaligned_chain_uses_dsb_not_lsd() {
        // §IV-G: 4 misaligned same-set blocks collide in the LSD but fit the
        // DSB (8 lines), so steady state is pure DSB delivery.
        let mut fe = frontend();
        let chain = same_set_chain(RECV_BASE, DsbSet::new(0), 4, Alignment::Misaligned);
        fe.run_iteration(ThreadId::T0, &chain);
        let warm = fe.run_iteration(ThreadId::T0, &chain);
        assert_eq!(warm.mite_uops, 0);
        assert_eq!(warm.lsd_uops, 0);
        assert_eq!(warm.dsb_uops, 20);
    }

    #[test]
    fn lsd_vs_dsb_timing_polarity() {
        // Fig. 2 / §V-B: steady-state LSD delivery is *slower* per µop than
        // DSB delivery — the misalignment channel's polarity.
        let mut fe = frontend();
        let lsd_chain = aligned(RECV_BASE, 0, 4);
        for _ in 0..3 {
            fe.run_iteration(ThreadId::T0, &lsd_chain);
        }
        let lsd_warm = fe.run_iteration(ThreadId::T0, &lsd_chain);
        assert_eq!(lsd_warm.lsd_uops, 20);

        // The same aligned loop, forced onto the DSB path (LSD off), streams
        // faster per iteration — the §V-B "LSD is slower in delivery" fact.
        let mut fe2 = Frontend::new(FrontendConfig {
            lsd_enabled: false,
            ..FrontendConfig::default()
        });
        fe2.run_iteration(ThreadId::T0, &lsd_chain);
        fe2.run_iteration(ThreadId::T0, &lsd_chain); // absorb MITE→DSB switch
        let dsb_warm = fe2.run_iteration(ThreadId::T0, &lsd_chain);
        assert_eq!(dsb_warm.dsb_uops, 20);

        assert!(dsb_warm.cycles < lsd_warm.cycles);
    }

    #[test]
    fn cross_thread_eviction_breaks_lsd_lock() {
        // The MT eviction channel mechanism (§V-A): sender inserts
        // N+1-d same-set lines, evicting receiver lines and flushing the
        // receiver's LSD.
        let mut fe = frontend();
        fe.set_active(ThreadId::T0, true);
        let recv = aligned(RECV_BASE, 0, 6);
        for _ in 0..3 {
            fe.run_iteration(ThreadId::T0, &recv);
        }
        assert!(fe.lsd_locked(ThreadId::T0, &recv));

        fe.set_active(ThreadId::T1, true);
        let send = aligned(SEND_BASE, 0, 3);
        // With flush_on_partition the wake itself flushed T0; re-warm to
        // test pure way-contention too.
        for _ in 0..4 {
            fe.run_iteration(ThreadId::T0, &recv);
        }
        assert!(fe.lsd_locked(ThreadId::T0, &recv));
        fe.run_iteration(ThreadId::T1, &send); // 6 + 3 > 8 ways
        assert!(!fe.lsd_locked(ThreadId::T0, &recv));
        let after = fe.run_iteration(ThreadId::T0, &recv);
        assert!(after.mite_uops > 0, "receiver must re-decode via MITE");
        assert!(after.lsd_flushes > 0, "flush penalty charged");
    }

    #[test]
    fn sender_to_different_set_leaves_receiver_alone() {
        // Stealthy m=0 encoding (§V-C): same work, different set, no signal.
        let mut fe = frontend();
        fe.set_active(ThreadId::T0, true);
        fe.set_active(ThreadId::T1, true);
        let recv = aligned(RECV_BASE, 0, 6);
        let send_y = aligned(SEND_BASE, 7, 3);
        for _ in 0..3 {
            fe.run_iteration(ThreadId::T0, &recv);
        }
        // Receiver (30 µops) locks into the (halved) LSD even under SMT.
        let warm_before = fe.run_iteration(ThreadId::T0, &recv);
        fe.run_iteration(ThreadId::T1, &send_y);
        let warm_after = fe.run_iteration(ThreadId::T0, &recv);
        assert_eq!(warm_before.mite_uops, 0);
        assert_eq!(warm_after.mite_uops, 0, "different set: no interference");
        assert_eq!(warm_before.cycles, warm_after.cycles);
    }

    #[test]
    fn sibling_misalignment_collapses_lsd_without_evictions() {
        // Fig. 6 mechanism: sender executes misaligned same-set blocks; the
        // receiver's LSD lock collapses but its DSB lines survive, so the
        // receiver's next iteration is pure (fast) DSB delivery.
        let mut fe = frontend();
        fe.set_active(ThreadId::T0, true);
        fe.set_active(ThreadId::T1, true);
        let recv = aligned(RECV_BASE, 0, 5); // d = 5 (paper §V-B)
        for _ in 0..3 {
            fe.run_iteration(ThreadId::T0, &recv);
        }
        assert!(fe.lsd_locked(ThreadId::T0, &recv));
        let lsd_iter = fe.run_iteration(ThreadId::T0, &recv);
        assert_eq!(lsd_iter.lsd_uops, 25);

        // One misaligned sender block: 5 + 2 = 7 ≤ 8, lock survives.
        let send1 = same_set_chain(SEND_BASE, DsbSet::new(0), 1, Alignment::Misaligned);
        fe.run_iteration(ThreadId::T1, &send1);
        assert!(fe.lsd_locked(ThreadId::T0, &recv));

        // Two more misaligned sender blocks ({5 aligned + 3 misaligned} is a
        // §IV-G collision pair): 5 + 2·3 > 8 collapses the receiver's lock.
        // Sender heads total 3 lines, so set 0 holds 5 + 3 = 8 lines and no
        // DSB eviction occurs.
        let send2 = same_set_chain(
            SEND_BASE + 0x10_0000,
            DsbSet::new(0),
            2,
            Alignment::Misaligned,
        );
        fe.run_iteration(ThreadId::T1, &send2);
        assert!(!fe.lsd_locked(ThreadId::T0, &recv));

        let after = fe.run_iteration(ThreadId::T0, &recv);
        assert_eq!(after.mite_uops, 0, "no DSB evictions: no MITE refetch");
        assert_eq!(after.dsb_uops, 25, "delivery falls back to the DSB");
        // DSB delivery is *faster* than LSD streaming — the paper's
        // misalignment-channel polarity (§V-B): m = 1 gives faster access.
        let dsb_iter = fe.run_iteration(ThreadId::T0, &recv);
        if dsb_iter.dsb_uops == 25 {
            assert!(dsb_iter.cycles < lsd_iter.cycles);
        }
    }

    #[test]
    fn sibling_misalignment_to_other_set_is_harmless() {
        let mut fe = frontend();
        fe.set_active(ThreadId::T0, true);
        fe.set_active(ThreadId::T1, true);
        let recv = aligned(RECV_BASE, 0, 5);
        for _ in 0..3 {
            fe.run_iteration(ThreadId::T0, &recv);
        }
        assert!(fe.lsd_locked(ThreadId::T0, &recv));
        let send = same_set_chain(SEND_BASE, DsbSet::new(9), 3, Alignment::Misaligned);
        fe.run_iteration(ThreadId::T1, &send);
        assert!(
            fe.lsd_locked(ThreadId::T0, &recv),
            "disjoint sets: no collision"
        );
    }

    #[test]
    fn crossing_blocks_pay_split_fetch_penalty() {
        // §V-D basis: executing misaligned blocks is measurably slower than
        // the same blocks aligned, even without any conflicts.
        let aligned3 = same_set_chain(RECV_BASE, DsbSet::new(0), 3, Alignment::Aligned);
        let mis3 = same_set_chain(RECV_BASE, DsbSet::new(0), 3, Alignment::Misaligned);
        // LSD disabled so both warm to steady DSB delivery, isolating the
        // crossing penalty.
        let no_lsd = FrontendConfig {
            lsd_enabled: false,
            ..FrontendConfig::default()
        };
        let mut fe_a = Frontend::new(no_lsd);
        let mut fe_m = Frontend::new(no_lsd);
        for _ in 0..3 {
            fe_a.run_iteration(ThreadId::T0, &aligned3);
            fe_m.run_iteration(ThreadId::T0, &mis3);
        }
        let a = fe_a.run_iteration(ThreadId::T0, &aligned3);
        let m = fe_m.run_iteration(ThreadId::T0, &mis3);
        assert!(m.cycles > a.cycles, "crossing blocks must cost extra");
    }

    #[test]
    fn partition_wake_flushes_solo_thread() {
        let mut fe = frontend();
        fe.set_active(ThreadId::T0, true);
        let recv = aligned(RECV_BASE, 3, 4);
        fe.run_iteration(ThreadId::T0, &recv);
        assert!(fe.dsb().occupancy(0) > 0);
        fe.set_active(ThreadId::T1, true);
        assert_eq!(
            fe.dsb().occupancy(0),
            0,
            "waking sibling must displace solo thread's lines"
        );
    }

    #[test]
    fn lsd_disabled_machines_never_lock() {
        let mut fe = Frontend::new(FrontendConfig {
            lsd_enabled: false,
            ..FrontendConfig::default()
        });
        let chain = aligned(RECV_BASE, 0, 4);
        for _ in 0..4 {
            fe.run_iteration(ThreadId::T0, &chain);
        }
        assert!(!fe.lsd_locked(ThreadId::T0, &chain));
        let warm = fe.run_iteration(ThreadId::T0, &chain);
        assert_eq!(warm.dsb_uops, 20, "falls back to DSB, not LSD");
    }

    #[test]
    fn lcp_mixed_vs_ordered_shapes() {
        // Fig. 4 shape: mixed issue has far more DSB→MITE switches; ordered
        // issue has more LCP stall cycles; mixed achieves higher IPC
        // (fewer total cycles for the same instruction count).
        use leaky_isa::{Addr, Block, LcpPattern};
        let mut fe_m = frontend();
        let mixed = BlockChain::new(vec![Block::lcp_adds(
            Addr::new(0x10_0000),
            LcpPattern::Mixed,
            16,
        )]);
        let mut fe_o = frontend();
        let ordered = BlockChain::new(vec![Block::lcp_adds(
            Addr::new(0x10_0000),
            LcpPattern::Ordered,
            16,
        )]);
        // Warm both, then compare steady-state iterations.
        for _ in 0..3 {
            fe_m.run_iteration(ThreadId::T0, &mixed);
            fe_o.run_iteration(ThreadId::T0, &ordered);
        }
        let m = fe_m.run_iteration(ThreadId::T0, &mixed);
        let o = fe_o.run_iteration(ThreadId::T0, &ordered);
        assert!(
            m.dsb_to_mite_switches > 10 * o.dsb_to_mite_switches,
            "mixed must switch far more ({} vs {})",
            m.dsb_to_mite_switches,
            o.dsb_to_mite_switches
        );
        assert!(
            o.lcp_stall_cycles > m.lcp_stall_cycles,
            "ordered must stall longer ({} vs {})",
            o.lcp_stall_cycles,
            m.lcp_stall_cycles
        );
        assert!(m.mite_uops > 0 && o.mite_uops > 0);
        assert_eq!(m.total_uops(), o.total_uops());
    }

    #[test]
    fn run_iterations_steady_state_matches_explicit_loop() {
        let chain = aligned(RECV_BASE, 0, 8);
        let mut fe_a = frontend();
        let total_fast = fe_a.run_iterations(ThreadId::T0, &chain, 1000);
        let mut fe_b = frontend();
        let mut total_slow = IterationReport::new();
        for _ in 0..1000 {
            total_slow += fe_b.run_iteration(ThreadId::T0, &chain);
        }
        // Counts match exactly; cycle sums only up to f64 summation order.
        assert_eq!(total_fast.total_uops(), total_slow.total_uops());
        assert_eq!(total_fast.lsd_uops, total_slow.lsd_uops);
        assert_eq!(total_fast.dsb_evictions, total_slow.dsb_evictions);
        assert!((total_fast.cycles - total_slow.cycles).abs() / total_slow.cycles < 1e-9);
    }

    #[test]
    fn run_iterations_collapses_mite_thrash_in_constant_time() {
        // The 9-way §IV-F chain repeats the same all-miss report, so even a
        // Fig. 4-scale run must cost a handful of live iterations. 800 M
        // naive iterations would take minutes; this must be instant.
        let chain = aligned(RECV_BASE, 0, 9);
        let mut fe = frontend();
        let total = fe.run_iterations(ThreadId::T0, &chain, 800_000_000);
        assert_eq!(total.total_uops(), 800_000_000 * 45);
        assert_eq!(total.lsd_uops, 0);
        // Exact-arithmetic cross-check on a small prefix.
        let mut fe2 = frontend();
        let small = fe2.run_iterations(ThreadId::T0, &chain, 100);
        let mut fe3 = frontend();
        let mut slow = IterationReport::new();
        for _ in 0..100 {
            slow += fe3.run_iteration(ThreadId::T0, &chain);
        }
        assert_eq!(small.total_uops(), slow.total_uops());
        assert_eq!(small.dsb_evictions, slow.dsb_evictions);
    }

    #[test]
    fn run_iterations_matches_plain_loop_at_default_warmup() {
        // With the default warm-up, the cold-start transient (one-off
        // MITE→DSB switch penalties) breaks report repetition until the
        // lock decision is behind us, so the collapse is faithful to the
        // plain loop including the LSD transition.
        let chain = aligned(RECV_BASE, 0, 8);
        let mut fast = frontend();
        let total_fast = fast.run_iterations(ThreadId::T0, &chain, 100);
        let mut slow = frontend();
        let mut total_slow = IterationReport::new();
        for _ in 0..100 {
            total_slow += slow.run_iteration(ThreadId::T0, &chain);
        }
        assert!(total_slow.lsd_uops > 0, "the loop must eventually stream");
        assert_eq!(total_fast.lsd_uops, total_slow.lsd_uops);
        assert_eq!(total_fast.dsb_uops, total_slow.dsb_uops);
        assert_eq!(total_fast.mite_uops, total_slow.mite_uops);
    }

    #[test]
    fn steady_state_collapse_can_freeze_lsd_warmup() {
        // Characterizes the documented approximation inherited from the
        // seed (see `run_iterations` docs): with a warm-up longer than the
        // default, the pre-lock DSB iterations repeat exactly and the
        // detector extrapolates them, so the loop never transitions to LSD
        // streaming inside `run_iterations`. The committed Table VII
        // miss-rate numbers depend on this rule; revisiting it is a
        // calibration-level change, not a hot-path one.
        let config = FrontendConfig {
            lsd_warmup_iterations: 5,
            ..FrontendConfig::default()
        };
        let chain = aligned(RECV_BASE, 0, 8);
        let mut collapsed = Frontend::new(config);
        let fast = collapsed.run_iterations(ThreadId::T0, &chain, 100);
        assert_eq!(fast.lsd_uops, 0, "pre-lock path extrapolated (documented)");
        let mut slow = Frontend::new(config);
        let mut plain = IterationReport::new();
        for _ in 0..100 {
            plain += slow.run_iteration(ThreadId::T0, &chain);
        }
        assert!(plain.lsd_uops > 0, "the plain loop locks after warm-up");
        // Totals still conserve work: same µop count, different paths.
        assert_eq!(fast.total_uops(), plain.total_uops());
    }

    #[test]
    fn run_iterations_handles_period_two_report_cycles() {
        // Force an oscillating report sequence by alternating a warm LSD
        // loop with a one-off pending flush: simulate the generalized
        // period detector on a crafted frontend where iteration reports
        // alternate between two values. We synthesize this by running a
        // chain whose warm-up transient differs from steady state and
        // checking that the totals still match the naive loop exactly on
        // counts for several n values (the detector must never over- or
        // under-count whatever period it snaps to).
        let chain = same_set_chain(RECV_BASE, DsbSet::new(0), 4, Alignment::Misaligned);
        for n in [1u64, 2, 3, 7, 50, 1000] {
            let mut fast = frontend();
            let total_fast = fast.run_iterations(ThreadId::T0, &chain, n);
            let mut slow = frontend();
            let mut total_slow = IterationReport::new();
            for _ in 0..n {
                total_slow += slow.run_iteration(ThreadId::T0, &chain);
            }
            assert_eq!(total_fast.total_uops(), total_slow.total_uops(), "n={n}");
            assert_eq!(total_fast.dsb_uops, total_slow.dsb_uops, "n={n}");
            assert_eq!(total_fast.dsb_evictions, total_slow.dsb_evictions);
            assert!((total_fast.cycles - total_slow.cycles).abs() <= 1e-9 * total_slow.cycles);
        }
    }

    #[test]
    fn reconfigure_invalidates_stale_plans_and_state() {
        use leaky_uarch::UarchProfile;
        // A 31-nop window: 6 DSB lines at the Skylake 6-µop capacity but
        // only 4 at the Ice-Lake-class 8-µop capacity. If reconfiguring
        // reused the memoized Skylake plan, the line accounting (and with
        // it every counter) would be wrong.
        use leaky_isa::{Addr, Block};
        let chain = BlockChain::new(vec![Block::nops(Addr::new(0x3000), 31)]);
        let mut fe = Frontend::with_profile(&UarchProfile::skylake());
        let sky_cold = fe.run_iteration(ThreadId::T0, &chain);
        let icl_config = FrontendConfig::from_profile(&UarchProfile::icelake());
        fe.reconfigure(icl_config);
        assert_eq!(fe.profile_key(), icl_config.profile_key());
        let icl_cold = fe.run_iteration(ThreadId::T0, &chain);
        // Both are cold MITE fills of the same 32 + 5 µops...
        assert_eq!(icl_cold.total_uops(), sky_cold.total_uops());
        // ...but a fresh Ice-Lake frontend must agree exactly with the
        // reconfigured one — the reconfigured engine may not have reused
        // the Skylake plan's splits.
        let mut fresh = Frontend::new(icl_config);
        let fresh_cold = fresh.run_iteration(ThreadId::T0, &chain);
        assert_eq!(icl_cold, fresh_cold);
        // Switching back rehits the original plan and the original costs.
        fe.reconfigure(FrontendConfig::default());
        let sky_again = fe.run_iteration(ThreadId::T0, &chain);
        assert_eq!(sky_again, sky_cold);
    }

    #[test]
    fn l1i_follows_the_configured_geometry() {
        let mut geom = FrontendGeometry::skylake();
        geom.l1i_ways = 12;
        geom.l1i_sets = 32;
        let fe = Frontend::new(FrontendConfig {
            geometry: geom,
            ..FrontendConfig::default()
        });
        assert_eq!(fe.l1i().config().ways, 12);
        assert_eq!(fe.l1i().config().sets, 32);
        // Default remains the Table I 32 KB / 8-way / 64-set shape.
        let default_fe = frontend();
        assert_eq!(default_fe.l1i().config().sets, 64);
        assert_eq!(default_fe.l1i().config().ways, 8);
    }

    #[test]
    fn skylake_profile_config_is_bit_identical_to_default() {
        let from_profile = FrontendConfig::from_profile(&leaky_uarch::UarchProfile::skylake());
        assert_eq!(from_profile, FrontendConfig::default());
        assert_eq!(
            from_profile.profile_key(),
            FrontendConfig::default().profile_key()
        );
        // Any field change moves the key.
        let perturbed = FrontendConfig {
            lsd_warmup_iterations: 4,
            ..FrontendConfig::default()
        };
        assert_ne!(perturbed.profile_key(), from_profile.profile_key());
    }

    #[test]
    fn cumulative_counters_accumulate() {
        let mut fe = frontend();
        let chain = aligned(RECV_BASE, 0, 4);
        let a = fe.run_iteration(ThreadId::T0, &chain);
        let b = fe.run_iteration(ThreadId::T0, &chain);
        assert_eq!(
            fe.counters(ThreadId::T0).total_uops(),
            a.total_uops() + b.total_uops()
        );
        fe.reset_counters();
        assert_eq!(fe.counters(ThreadId::T0).total_uops(), 0);
    }

    #[test]
    fn flush_thread_state_forces_cold_restart() {
        let mut fe = frontend();
        let chain = aligned(RECV_BASE, 0, 4);
        fe.run_iteration(ThreadId::T0, &chain);
        fe.run_iteration(ThreadId::T0, &chain);
        fe.flush_thread_state(ThreadId::T0);
        let r = fe.run_iteration(ThreadId::T0, &chain);
        assert_eq!(r.mite_uops, 20, "all lines must refill after flush");
    }

    #[test]
    fn external_pressure_slows_mite_only() {
        let chain = aligned(RECV_BASE, 0, 9); // permanent MITE traffic
        let mut base = frontend();
        for _ in 0..3 {
            base.run_iteration(ThreadId::T0, &chain);
        }
        let r0 = base.run_iteration(ThreadId::T0, &chain);
        let mut loaded = frontend();
        loaded.set_external_mite_pressure(ThreadId::T0, 1.0);
        for _ in 0..3 {
            loaded.run_iteration(ThreadId::T0, &chain);
        }
        let r1 = loaded.run_iteration(ThreadId::T0, &chain);
        assert!(r1.cycles > r0.cycles);

        // A pure-LSD loop is immune to MITE pressure.
        let lsd_chain = aligned(RECV_BASE, 1, 4);
        let mut a = frontend();
        a.run_iteration(ThreadId::T0, &lsd_chain);
        let wa = a.run_iteration(ThreadId::T0, &lsd_chain);
        let mut b = frontend();
        b.set_external_mite_pressure(ThreadId::T0, 1.0);
        b.run_iteration(ThreadId::T0, &lsd_chain);
        let wb = b.run_iteration(ThreadId::T0, &lsd_chain);
        assert_eq!(wa.cycles, wb.cycles);
    }

    #[test]
    fn tracing_never_changes_reports_or_profile_key() {
        use leaky_trace::TraceMode;
        let chain = aligned(RECV_BASE, 0, 8);
        let mut off = frontend();
        let mut traced = frontend();
        traced.set_trace(TraceHook::new(TraceMode::Events));
        assert_eq!(off.profile_key(), traced.profile_key());
        for _ in 0..6 {
            let a = off.run_iteration(ThreadId::T0, &chain);
            let b = traced.run_iteration(ThreadId::T0, &chain);
            assert_eq!(a, b);
        }
        assert_eq!(
            off.counters(ThreadId::T0),
            traced.counters(ThreadId::T0),
            "trace hook must be behavior-free"
        );
        assert_eq!(off.profile_key(), traced.profile_key());
        let events = traced.take_trace().events().map(<[_]>::len);
        assert!(
            events.is_some_and(|n| n >= 6),
            "events recorded: {events:?}"
        );
        assert!(traced.trace().is_off(), "take_trace leaves tracing off");
    }

    #[test]
    fn traced_run_iterations_weights_match_plain_counts() {
        use leaky_trace::{TraceHook, TraceMode};
        let chain = aligned(RECV_BASE, 2, 4);
        let n = 10_000u64;
        let mut fe = frontend();
        fe.set_trace(TraceHook::new(TraceMode::Summary));
        let total = fe.run_iterations(ThreadId::T0, &chain, n);
        let summary = fe.take_trace().summary().expect("hook was on");
        // The steady-state collapse stands behind weighted events, so the
        // folded iteration count still matches the requested n ...
        assert_eq!(summary.iterations, n);
        // ... and the weighted per-source uop totals match the report.
        let lsd = summary.per_source[leaky_trace::Source::Lsd.index()].uops;
        let mite = summary.per_source[leaky_trace::Source::Mite.index()].uops;
        assert_eq!(lsd, total.lsd_uops);
        assert_eq!(mite, total.mite_uops);
        assert!(summary.lsd_locks >= 1);
    }

    #[test]
    fn lock_streak_saturates_at_the_warmup_length() {
        let mut fe = Frontend::new(FrontendConfig {
            lsd_enabled: false,
            ..FrontendConfig::default()
        });
        let chain = aligned(RECV_BASE, 0, 4);
        for _ in 0..10 {
            fe.run_iteration(ThreadId::T0, &chain);
        }
        assert_eq!(fe.lock_streak[0], (chain.key(), 3));
    }

    /// One step of `tid` as a one-step walk over `pair`.
    fn walk_step(fe: &mut Frontend, pair: [&BlockChain; 2], tid: ThreadId) -> IterationReport {
        *fe.smt_walk(pair).step(tid.index()).0
    }

    #[test]
    fn memoized_steps_match_plain_steps_and_count_work() {
        // Receiver (6 lines) against a sender (3 lines) in the same set —
        // the §V-A MT eviction thrash — then against a sender in another
        // set, where the receiver locks into the LSD and streams. Every
        // step is a one-step walk: it interns its entry state, follows or
        // records one edge and materializes. LSD-streaming steps are
        // edges too.
        let recv = aligned(RECV_BASE, 0, 6);
        let send = aligned(SEND_BASE, 0, 3);
        let quiet = aligned(SEND_BASE, 9, 3);
        let mut plain = frontend();
        let mut memo = frontend();
        for fe in [&mut plain, &mut memo] {
            fe.set_active(ThreadId::T0, true);
            fe.set_active(ThreadId::T1, true);
        }
        assert_eq!(memo.memo_stats(), MemoStats::default());
        for i in 0..300 {
            let sender = if i < 150 { &send } else { &quiet };
            let (tid, chain) = match i % 2 {
                0 => (ThreadId::T0, &recv),
                _ => (ThreadId::T1, sender),
            };
            let expected = plain.run_iteration(tid, chain);
            assert_eq!(
                walk_step(&mut memo, [&recv, sender], tid),
                expected,
                "step {i}"
            );
        }
        for tid in [ThreadId::T0, ThreadId::T1] {
            assert_eq!(memo.counters(tid), plain.counters(tid));
            assert_eq!(memo.l1i().stats(), plain.l1i().stats());
        }
        assert!(memo.lsd_locked(ThreadId::T0, &recv));
        assert_eq!(
            memo.memo_stats(),
            MemoStats {
                followed: 282,
                bulk: 0,
                simulated: 18,
                states: 17,
                edges: 18,
                resets: 0,
            }
        );
        memo.reconfigure(FrontendConfig::default());
        assert_eq!(memo.memo_stats().states, 0, "reconfigure clears the graphs");
    }

    #[test]
    fn memoized_steps_carry_sibling_crossings() {
        // §IV-G window tracking across memoized steps: T0 streams a
        // two-line loop; T1 alternates two single-block misaligned loops
        // in the same set (two distinct crossings, 2 + 2·2 ≤ 8: the lock
        // survives) long enough for its steps to follow recorded edges,
        // then runs two more (2 + 2·4 > 8: the lock collapses). A replay
        // that dropped the crossings would keep T0 streaming.
        let recv = aligned(RECV_BASE, 0, 2);
        let senders: Vec<BlockChain> = (0..4)
            .map(|i| {
                same_set_chain(
                    SEND_BASE + i * 0x10_0000,
                    DsbSet::new(0),
                    1,
                    Alignment::Misaligned,
                )
            })
            .collect();
        let mut plain = frontend();
        let mut memo = frontend();
        for fe in [&mut plain, &mut memo] {
            fe.set_active(ThreadId::T0, true);
            fe.set_active(ThreadId::T1, true);
            for _ in 0..4 {
                fe.run_iteration(ThreadId::T0, &recv);
            }
            assert!(fe.lsd_locked(ThreadId::T0, &recv));
        }
        let schedule = (0..20)
            .map(|i| &senders[i % 2])
            .chain([&senders[2], &senders[3]]);
        for (i, chain) in schedule.enumerate() {
            let expected = plain.run_iteration(ThreadId::T1, chain);
            assert_eq!(
                walk_step(&mut memo, [&recv, chain], ThreadId::T1),
                expected,
                "step {i}"
            );
            assert_eq!(
                memo.lsd_locked(ThreadId::T0, &recv),
                plain.lsd_locked(ThreadId::T0, &recv),
                "step {i}"
            );
        }
        assert!(memo.memo_stats().followed > 0);
        assert!(
            !plain.lsd_locked(ThreadId::T0, &recv),
            "four crossings collapse the lock"
        );
        let expected = plain.run_iteration(ThreadId::T0, &recv);
        assert_eq!(walk_step(&mut memo, [&recv, &recv], ThreadId::T0), expected);
    }

    #[test]
    fn unlock_reasons_are_attributed() {
        use leaky_trace::{TraceHook, TraceMode, UnlockReason};
        // Loop-exit unlock: lock loop A, then run a different loop.
        let a = aligned(RECV_BASE, 0, 4);
        let b = aligned(SEND_BASE, 1, 4);
        let mut fe = frontend();
        fe.set_trace(TraceHook::new(TraceMode::Summary));
        for _ in 0..4 {
            fe.run_iteration(ThreadId::T0, &a);
        }
        assert!(fe.lsd_locked(ThreadId::T0, &a));
        fe.run_iteration(ThreadId::T0, &b);
        assert!(!fe.lsd_locked(ThreadId::T0, &a));
        let summary = fe.take_trace().summary().expect("hook was on");
        assert_eq!(summary.lsd_unlocks[UnlockReason::LoopExit.index()], 1);
        assert!(summary.lsd_locks >= 1);
    }
}
