//! A retained naive reference implementation of the frontend engine.
//!
//! [`NaiveFrontend`] is the pre-optimization engine kept verbatim as the
//! *differential-testing oracle* for [`crate::Frontend`]: per-set
//! `Vec<Vec<LineId>>` DSB storage, `HashSet`-based LSD lock bookkeeping,
//! windows/chunks re-derived from the [`BlockChain`] every iteration, and
//! a `run_iterations` that simulates every iteration with no steady-state
//! collapse. It is deliberately allocation-heavy and slow; its sole job
//! is to produce bit-identical [`IterationReport`]s so property tests can
//! prove the optimized engine changed *speed* and nothing else.
#![expect(
    clippy::disallowed_types,
    reason = "the oracle keeps its verbatim HashSet bookkeeping; membership only, never iterated"
)]

use std::collections::HashSet;

use leaky_cache::SetAssocCache;
use leaky_isa::{Block, BlockChain};

use crate::counters::{IterationReport, UopSource};
use crate::dsb::{LineId, SmtDsbPolicy};
use crate::engine::{FrontendConfig, ThreadId};
use crate::lsd::lsd_qualifies;

/// The naive per-set MRU-list DSB (the optimized engine packs the same
/// state into one flat buffer).
#[derive(Debug, Clone)]
struct NaiveDsb {
    sets_count: usize,
    ways: usize,
    policy: SmtDsbPolicy,
    partitioned: bool,
    /// Per physical set: resident lines, MRU first.
    sets: Vec<Vec<LineId>>,
}

impl NaiveDsb {
    fn new(sets: usize, ways: usize, policy: SmtDsbPolicy) -> Self {
        // Mirror of the optimized Dsb's limit: lock set masks are one u64
        // bit per set.
        assert!(sets <= 64, "set masks support at most 64 DSB sets");
        NaiveDsb {
            sets_count: sets,
            ways,
            policy,
            partitioned: false,
            sets: vec![Vec::with_capacity(ways); sets],
        }
    }

    fn set_partitioned(&mut self, partitioned: bool) -> Vec<LineId> {
        if self.partitioned == partitioned {
            return Vec::new();
        }
        self.partitioned = partitioned;
        match self.policy {
            SmtDsbPolicy::SetPartitioned => self.flush_all(),
            SmtDsbPolicy::Competitive | SmtDsbPolicy::Shared => Vec::new(),
        }
    }

    fn set_index(&self, line: LineId) -> usize {
        let full = (line.window % self.sets_count as u64) as usize;
        match self.policy {
            SmtDsbPolicy::SetPartitioned if self.partitioned => {
                let half = self.sets_count / 2;
                (full % half) + line.thread as usize * half
            }
            _ => full,
        }
    }

    fn resident(&self, line: LineId) -> bool {
        self.sets[self.set_index(line)].contains(&line)
    }

    fn lookup(&mut self, line: LineId) -> bool {
        let set = self.set_index(line);
        let ways = &mut self.sets[set];
        if let Some(pos) = ways.iter().position(|&l| l == line) {
            let l = ways.remove(pos);
            ways.insert(0, l);
            true
        } else {
            false
        }
    }

    fn insert(&mut self, line: LineId) -> Option<LineId> {
        let ways_limit = self.ways;
        let set = self.set_index(line);
        let ways = &mut self.sets[set];
        debug_assert!(!ways.contains(&line), "inserting an already-resident line");
        let evicted = if ways.len() >= ways_limit {
            ways.pop()
        } else {
            None
        };
        ways.insert(0, line);
        evicted
    }

    fn flush_thread(&mut self, thread: u8) -> Vec<LineId> {
        let mut flushed = Vec::new();
        for set in &mut self.sets {
            set.retain(|l| {
                if l.thread == thread {
                    flushed.push(*l);
                    false
                } else {
                    true
                }
            });
        }
        flushed
    }

    fn flush_all(&mut self) -> Vec<LineId> {
        let mut flushed = Vec::new();
        for set in &mut self.sets {
            flushed.append(set);
        }
        flushed
    }

    fn occupancy(&self, thread: u8) -> usize {
        self.sets
            .iter()
            .map(|s| s.iter().filter(|l| l.thread == thread).count())
            .sum()
    }
}

/// A loop locked into the LSD, tracked with hash sets.
#[derive(Debug, Clone)]
struct NaiveLock {
    key: u64,
    lines: HashSet<(u64, u8)>,
    uops: u32,
    set_mask: u64,
    foreign_crossings: HashSet<u64>,
}

/// The naive reference frontend (see the module docs).
#[derive(Debug, Clone)]
pub struct NaiveFrontend {
    config: FrontendConfig,
    dsb: NaiveDsb,
    l1i: SetAssocCache,
    locks: [Option<NaiveLock>; 2],
    last_source: [UopSource; 2],
    active: [bool; 2],
    pending_lsd_flush: [bool; 2],
    external_mite_pressure: [f64; 2],
    lock_streak: [(u64, u32); 2],
    cumulative: [IterationReport; 2],
}

impl NaiveFrontend {
    /// Creates an idle naive frontend.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate cache geometry (`SetAssocCache::new`).
    pub fn new(config: FrontendConfig) -> Self {
        NaiveFrontend {
            dsb: NaiveDsb::new(
                config.geometry.dsb_sets,
                config.geometry.dsb_ways,
                config.dsb_policy,
            ),
            l1i: SetAssocCache::new(config.l1i_config()),
            locks: [None, None],
            last_source: [UopSource::Dsb, UopSource::Dsb],
            active: [false, false],
            pending_lsd_flush: [false, false],
            external_mite_pressure: [0.0, 0.0],
            lock_streak: [(0, 0), (0, 0)],
            cumulative: [IterationReport::default(), IterationReport::default()],
            config,
        }
    }

    /// Swaps in a new configuration (same semantics as
    /// [`crate::Frontend::reconfigure`]): DSB and L1I rebuilt empty for
    /// the new geometry, locks/streaks/pending penalties dropped,
    /// cumulative counters kept.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate cache geometry (`SetAssocCache::new`).
    pub fn reconfigure(&mut self, config: FrontendConfig) {
        self.dsb = NaiveDsb::new(
            config.geometry.dsb_sets,
            config.geometry.dsb_ways,
            config.dsb_policy,
        );
        self.l1i = SetAssocCache::new(config.l1i_config());
        self.locks = [None, None];
        self.last_source = [UopSource::Dsb, UopSource::Dsb];
        self.pending_lsd_flush = [false, false];
        self.lock_streak = [(0, 0), (0, 0)];
        self.config = config;
    }

    /// Whether both hardware threads are currently active.
    pub fn both_active(&self) -> bool {
        self.active[0] && self.active[1]
    }

    /// Resident DSB lines owned by a thread.
    pub fn dsb_occupancy(&self, thread: u8) -> usize {
        self.dsb.occupancy(thread)
    }

    /// Cumulative counters for one thread.
    pub fn counters(&self, tid: ThreadId) -> &IterationReport {
        &self.cumulative[tid.index()]
    }

    /// Marks a hardware thread active or idle (same semantics as
    /// [`crate::Frontend::set_active`]).
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
            if self.config.flush_on_partition && self.config.dsb_policy == SmtDsbPolicy::Competitive
            {
                if let Some(solo) = previously_solo {
                    if solo != tid {
                        let victims = self.dsb.flush_thread(solo.index() as u8);
                        for line in victims {
                            self.invalidate_lock_if_member(line);
                        }
                    }
                }
            }
            for t in 0..2 {
                let invalid = match &self.locks[t] {
                    Some(lock) => lock.uops as usize > self.config.geometry.lsd_uops / 2,
                    None => false,
                };
                if invalid {
                    self.locks[t] = None;
                    self.pending_lsd_flush[t] = true;
                    self.lock_streak[t].1 = 0;
                }
            }
        }
    }

    /// Sets the sibling-pressure factor on this thread's MITE decode costs.
    ///
    /// # Panics
    ///
    /// Panics if `pressure` is negative.
    pub fn set_external_mite_pressure(&mut self, tid: ThreadId, pressure: f64) {
        assert!(pressure >= 0.0, "pressure must be non-negative");
        self.external_mite_pressure[tid.index()] = pressure;
    }

    /// Mutable access to the L1 instruction cache (same role as
    /// [`crate::Frontend::l1i_mut`]).
    pub fn l1i_mut(&mut self) -> &mut SetAssocCache {
        &mut self.l1i
    }

    /// Whether `tid`'s LSD currently streams the given chain.
    pub fn lsd_locked(&self, tid: ThreadId, chain: &BlockChain) -> bool {
        self.locks[tid.index()]
            .as_ref()
            .is_some_and(|l| l.key == chain.key())
    }

    /// Executes one iteration of a loop over `chain` on thread `tid`.
    pub fn run_iteration(&mut self, tid: ThreadId, chain: &BlockChain) -> IterationReport {
        let t = tid.index();
        let mut report = IterationReport::new();

        if std::mem::take(&mut self.pending_lsd_flush[t]) {
            report.cycles += self.config.costs.lsd_flush;
            report.lsd_flushes += 1;
            self.last_source[t] = UopSource::Dsb;
        }

        let key = chain.key();
        if self.lock_streak[t].0 == key {
            self.lock_streak[t].1 = self.lock_streak[t].1.saturating_add(1);
        } else {
            self.lock_streak[t] = (key, 1);
        }
        if let Some(lock) = &self.locks[t] {
            if lock.key == key {
                let uops = chain.total_uops();
                report.cycles +=
                    self.config.costs.lsd_stream(uops) + self.config.costs.loop_overhead;
                report.add_uops(UopSource::Lsd, uops as u64);
                self.last_source[t] = UopSource::Lsd;
                if self.both_active() && chain.misaligned_count() > 0 {
                    let blocks: Vec<Block> = chain
                        .blocks()
                        .iter()
                        .filter(|b| !b.is_aligned())
                        .cloned()
                        .collect();
                    for block in &blocks {
                        self.note_sibling_crossing(tid, block);
                    }
                }
                self.cumulative[t] += report;
                return report;
            }
            self.locks[t] = None;
        }

        for block in chain.blocks() {
            self.fetch_l1i(block, &mut report);
            if block.lcp_count() > 0 {
                self.deliver_lcp_block(tid, block, &mut report);
            } else {
                self.deliver_block(tid, block, &mut report);
            }
        }
        report.cycles += self.config.costs.loop_overhead;

        self.maybe_lock_lsd(tid, chain, key);
        self.cumulative[t] += report;
        report
    }

    /// Runs `n` iterations by simulating every single one (no steady-state
    /// detection) — the semantic baseline for
    /// [`crate::Frontend::run_iterations`].
    ///
    /// # Panics
    ///
    /// Panics if the geometry's µops-per-line is zero
    /// (`Block::line_slots_for`).
    pub fn run_iterations(&mut self, tid: ThreadId, chain: &BlockChain, n: u64) -> IterationReport {
        let mut total = IterationReport::new();
        for _ in 0..n {
            total += self.run_iteration(tid, chain);
        }
        total
    }

    /// Removes every DSB line and LSD lock belonging to `tid`.
    pub fn flush_thread_state(&mut self, tid: ThreadId) {
        self.dsb.flush_thread(tid.index() as u8);
        self.locks[tid.index()] = None;
        self.pending_lsd_flush[tid.index()] = false;
    }

    fn fetch_l1i(&mut self, block: &Block, report: &mut IterationReport) {
        for &line in block.cache_lines() {
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
        let costs = self.config.costs;
        match (old, new_source) {
            (UopSource::Dsb | UopSource::Lsd, UopSource::Mite) => {
                report.cycles += costs.dsb_to_mite_switch;
                report.switch_penalty_cycles += costs.dsb_to_mite_switch;
                report.dsb_to_mite_switches += 1;
            }
            (UopSource::Mite, _) => {
                report.cycles += costs.mite_to_dsb_switch;
                report.switch_penalty_cycles += costs.mite_to_dsb_switch;
            }
            _ => {}
        }
        self.last_source[t] = new_source;
    }

    fn deliver_block(&mut self, tid: ThreadId, block: &Block, report: &mut IterationReport) {
        let t = tid.index();
        let line_uops = self.config.geometry.dsb_line_uops as u32;
        let smt = self.both_active();
        let crossing = !block.is_aligned();
        if crossing {
            report.cycles += self.config.costs.window_crossing_penalty;
            report.crossing_penalty_cycles += self.config.costs.window_crossing_penalty;
            if smt {
                self.note_sibling_crossing(tid, block);
            }
        }
        for fp in block.windows() {
            let mut remaining = fp.uops;
            let mut chunk = 0u8;
            while remaining > 0 {
                let uops = remaining.min(line_uops);
                let lid = LineId {
                    thread: t as u8,
                    window: fp.window,
                    chunk,
                };
                if self.dsb.lookup(lid) {
                    self.charge_switch(t, UopSource::Dsb, report);
                    report.cycles += self.config.costs.dsb_line(uops);
                    report.add_uops(UopSource::Dsb, uops as u64);
                } else {
                    self.charge_switch(t, UopSource::Mite, report);
                    report.cycles +=
                        self.config.costs.mite_line(uops, smt) * self.mite_pressure_factor(t);
                    report.add_uops(UopSource::Mite, uops as u64);
                    if let Some(evicted) = self.dsb.insert(lid) {
                        report.dsb_evictions += 1;
                        self.invalidate_lock_if_member(evicted);
                    }
                }
                remaining -= uops;
                chunk += 1;
            }
        }
    }

    fn note_sibling_crossing(&mut self, tid: ThreadId, block: &Block) {
        let sets = self.config.geometry.dsb_sets as u64;
        let other = tid.other().index();
        let head_window = block.base().window();
        let head_set = head_window % sets;
        let window_cap = self.config.geometry.lsd_windows;
        let collapse = match &mut self.locks[other] {
            Some(lock) if lock.set_mask & (1u64 << head_set) != 0 => {
                lock.foreign_crossings.insert(head_window);
                lock.lines.len() + 2 * lock.foreign_crossings.len() > window_cap
            }
            _ => false,
        };
        if collapse {
            self.locks[other] = None;
            self.pending_lsd_flush[other] = true;
            self.lock_streak[other].1 = 0;
        }
    }

    fn deliver_lcp_block(&mut self, tid: ThreadId, block: &Block, report: &mut IterationReport) {
        let t = tid.index();
        let smt = self.both_active();
        let costs = self.config.costs;
        let pressure = self.mite_pressure_factor(t);
        let smt_factor = if smt { costs.smt_mite_factor } else { 1.0 };
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
        for (addr, instr) in block.placed_instructions() {
            if instr.has_lcp() {
                charge_lcp_switch(&mut last, UopSource::Mite, report);
                let stall = costs.lcp_stall
                    + if prev_lcp {
                        costs.lcp_sequential_extra
                    } else {
                        0.0
                    };
                report.cycles += (costs.mite_per_instr + stall) * smt_factor * pressure;
                report.lcp_stall_cycles += stall * smt_factor;
                report.add_uops(UopSource::Mite, instr.uops() as u64);
                prev_lcp = true;
            } else {
                let lid = LineId {
                    thread: t as u8,
                    window: addr.window(),
                    chunk: 0,
                };
                if self.dsb.lookup(lid) {
                    charge_lcp_switch(&mut last, UopSource::Dsb, report);
                    report.cycles += costs.dsb_per_uop * instr.uops() as f64;
                    report.add_uops(UopSource::Dsb, instr.uops() as u64);
                } else {
                    charge_lcp_switch(&mut last, UopSource::Mite, report);
                    report.cycles += costs.mite_per_instr * smt_factor * pressure;
                    report.add_uops(UopSource::Mite, instr.uops() as u64);
                    if let Some(evicted) = self.dsb.insert(lid) {
                        report.dsb_evictions += 1;
                        self.invalidate_lock_if_member(evicted);
                    }
                }
                prev_lcp = false;
            }
        }
        self.last_source[t] = last;
    }

    fn maybe_lock_lsd(&mut self, tid: ThreadId, chain: &BlockChain, key: u64) {
        if !self.config.lsd_enabled {
            return;
        }
        debug_assert_eq!(self.lock_streak[tid.index()].0, key);
        if self.lock_streak[tid.index()].1 < self.config.lsd_warmup_iterations {
            return;
        }
        if chain.blocks().iter().any(|b| b.lcp_count() > 0) {
            return;
        }
        let smt = self.both_active();
        if !lsd_qualifies(chain, &self.config.geometry, smt).qualifies() {
            return;
        }
        let t = tid.index();
        let sets = self.config.geometry.dsb_sets as u64;
        let mut lines = HashSet::new();
        let mut set_mask = 0u64;
        for block in chain.blocks() {
            let line_uops = self.config.geometry.dsb_line_uops as u32;
            for fp in block.windows() {
                let chunks = fp.uops.div_ceil(line_uops) as u8;
                for chunk in 0..chunks {
                    let lid = LineId {
                        thread: t as u8,
                        window: fp.window,
                        chunk,
                    };
                    if !self.dsb.resident(lid) {
                        return;
                    }
                    lines.insert((fp.window, chunk));
                    set_mask |= 1u64 << (fp.window % sets);
                }
            }
        }
        self.locks[t] = Some(NaiveLock {
            key,
            lines,
            uops: chain.total_uops(),
            set_mask,
            foreign_crossings: HashSet::new(),
        });
    }

    fn invalidate_lock_if_member(&mut self, evicted: LineId) {
        let t = evicted.thread as usize;
        let member = self.locks[t]
            .as_ref()
            .is_some_and(|l| l.lines.contains(&(evicted.window, evicted.chunk)));
        if member {
            self.locks[t] = None;
            self.pending_lsd_flush[t] = true;
            self.lock_streak[t].1 = 0;
        }
    }
}
