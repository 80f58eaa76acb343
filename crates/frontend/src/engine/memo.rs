//! The SMT transition memo behind [`Frontend::run_iteration_memoized`]
//! (DESIGN.md §6).
//!
//! Two threads interleaving a handful of loops revisit the same few
//! frontend states over and over: one MT covert-channel bit walks a few
//! dozen distinct states thousands of times. The memo maps the complete
//! local pre-state an iteration can read to the post-state it writes,
//! its report and the trace events it emitted, so a revisited state is
//! replayed instead of re-simulated. A hash only picks the slot; a hit
//! compares the whole encoded key, so replay is exact by construction.
//!
//! Both encodings are flat `u64` words:
//!
//! * **key** — chain key; thread and both activity bits; the thread's
//!   external MITE pressure; the *thread block*
//!   (both threads' streak, pending flush and lock with its sibling
//!   crossings, plus the running thread's last source); the DSB sets in
//!   the plan's set mask, MRU first; the iteration's L1I miss bits.
//! * **post** — the thread block and the same DSB sets after the step.
//!
//! The L1I is not snapshotted: its accesses depend only on the plan, so
//! a keyed step performs them for real (LRU order and statistics stay
//! live) and the resulting miss pattern joins the key.
//!
//! An entry is **stationary** when its post-state equals the state part
//! of its key and none of its L1I fetches missed: the step rewrote the
//! frontend exactly as it found it. The next step of the same thread on
//! the same chain then has the same key again, so
//! [`Frontend::run_memoized_while`] serves it as a *repeat* without
//! re-keying it (DESIGN.md §6).

use leaky_isa::BlockChain;
use leaky_trace::{TraceEvent, TraceHook, TraceMode};

use super::{Frontend, LoopLock, ThreadId};
use crate::counters::{IterationReport, UopSource};
use crate::dsb::SmtDsbPolicy;
use crate::plan::DeliveryPlan;

/// Slots per table: 128 two-way buckets. One channel configuration
/// visits at most a few hundred distinct transitions; the second way keeps
/// two recurring states whose keys share a bucket from evicting each
/// other on every step.
const SLOTS: usize = 256;

/// Key words ahead of the thread block: chain key, thread and activity
/// bits, external MITE pressure.
const KEY_HEAD: usize = 3;

/// Deterministic work counters of a frontend's SMT transition memo (see
/// [`Frontend::memo_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Steps replayed from a recorded transition, repeats included.
    pub hits: u64,
    /// Hits served as stationary repeats, without re-keying the step.
    pub repeats: u64,
    /// Steps simulated and recorded.
    pub misses: u64,
    /// LSD-streaming steps, which bypass the memo: streaming is cheaper
    /// than building any key.
    pub streaming: u64,
    /// Occupied slots.
    pub entries: usize,
    /// Allocated slots: 0 until the first memoized step.
    pub slots: usize,
}

/// One recorded transition.
#[derive(Debug, Clone, Default)]
struct Entry {
    /// The encoded pre-state (`words[..key_len]`) followed by the
    /// encoded post-state.
    words: Vec<u64>,
    key_len: usize,
    report: IterationReport,
    /// Whether `events` was captured with tracing on: an untraced entry
    /// never serves a traced step.
    traced: bool,
    /// Whether the post-state equals the key's state part and no L1I
    /// fetch missed (see the module docs).
    stationary: bool,
    events: Vec<TraceEvent>,
}

/// The bounded transition table plus its reusable scratch buffers.
#[derive(Debug, Clone, Default)]
pub(super) struct SmtMemo {
    /// `SLOTS` slots once allocated, empty before the first step; bucket
    /// `b` is slots `2b` (most recently used) and `2b + 1`. An entry is
    /// boxed only once recorded, so a table costs a pointer per slot
    /// plus its live transitions.
    slots: Vec<Option<Box<Entry>>>,
    /// Scratch for the current step's key.
    key: Vec<u64>,
    /// Scratch for the current step's L1I miss bits.
    misses: Vec<u64>,
    stats: MemoStats,
}

impl Entry {
    /// Whether this entry records `key` and may serve a step whose
    /// tracing state is `traced`.
    fn serves(&self, key: &[u64], traced: bool) -> bool {
        self.words[..self.key_len] == *key && (self.traced || !traced)
    }
}

impl SmtMemo {
    /// Vacates every slot (the table stays allocated).
    pub(super) fn clear(&mut self) {
        self.slots.fill(None);
        self.stats.entries = 0;
    }

    /// The first slot of the bucket a key maps to, allocating the table
    /// on first use.
    fn bucket_for(&mut self, key: &[u64]) -> usize {
        if self.slots.is_empty() {
            self.slots.resize(SLOTS, None);
        }
        // Position-salted words multiplied independently (no serial
        // multiply chain on the hit path), then one finalising mix.
        let mut h = key.len() as u64;
        for (i, &word) in key.iter().enumerate() {
            let salted = word ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            h = h.wrapping_add(salted.wrapping_mul(0x517c_c1b7_2722_0a95));
        }
        h = (h ^ (h >> 31)).wrapping_mul(0x94d0_49bb_1331_11eb);
        2 * (h >> (65 - SLOTS.trailing_zeros())) as usize
    }
}

const fn source_code(source: UopSource) -> u64 {
    match source {
        UopSource::Lsd => 0,
        UopSource::Dsb => 1,
        UopSource::Mite => 2,
    }
}

const fn source_from(code: u64) -> UopSource {
    match code {
        0 => UopSource::Lsd,
        1 => UopSource::Dsb,
        _ => UopSource::Mite,
    }
}

/// The physical DSB sets of a plan's set mask, ascending.
fn sets_of(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let set = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            set
        })
    })
}

impl Frontend {
    /// [`Frontend::run_iteration`] through the SMT transition memo: the
    /// report, every piece of frontend state and the emitted trace
    /// events are identical to the plain call; only the host cost
    /// differs. One step of [`Frontend::run_memoized_while`].
    ///
    /// LSD-streaming steps, LCP-bearing chains and the `SetPartitioned`
    /// ablation policy run the plain path. The table is bounded and
    /// allocated on the first memoized step; [`Frontend::reconfigure`]
    /// clears it, and every other mutator is covered because the key is
    /// read from live state.
    ///
    /// # Panics
    ///
    /// Panics if the geometry's µops-per-line is zero
    /// (`Block::line_slots_for`).
    pub fn run_iteration_memoized(&mut self, tid: ThreadId, chain: &BlockChain) -> IterationReport {
        let mut out = IterationReport::new();
        self.run_memoized_while(tid, chain, |_, report, _| {
            out = *report;
            false
        });
        out
    }

    /// Runs consecutive iterations of `chain` on `tid` through the SMT
    /// transition memo, as many as `more` asks for. After each step,
    /// `more(self, report, repeat)` sees the frontend and the step's
    /// report, and returns whether the thread steps again at once;
    /// `leaky_cpu`'s `Core::run_concurrent` charges the step and draws
    /// the next pick there.
    ///
    /// Once a step lands on a stationary entry, every further step is a
    /// *repeat* (`repeat == true`): the report is the same, and so is
    /// everything `more` can read of the frontend. A repeat skips the
    /// key and performs the plain step's counter updates only: memo hit,
    /// cumulative counters, L1I statistics of an all-hit pass, and the
    /// entry's recorded events when traced. `more` gets the frontend by
    /// shared reference, so nothing can change it between two repeats.
    /// Each step is otherwise [`Frontend::run_iteration_memoized`].
    ///
    /// # Panics
    ///
    /// Panics if the geometry's µops-per-line is zero
    /// (`Block::line_slots_for`).
    pub fn run_memoized_while<F>(&mut self, tid: ThreadId, chain: &BlockChain, mut more: F)
    where
        F: FnMut(&Frontend, &IterationReport, bool) -> bool,
    {
        let plan = self
            .plans
            .get_or_build(chain, &self.config.geometry, self.config_key);
        loop {
            let (report, stationary) = self.step_memoized(tid, &plan);
            if !more(self, &report, false) {
                return;
            }
            if let Some(base) = stationary {
                loop {
                    self.repeat(tid.index(), &plan, base, &report);
                    if !more(self, &report, true) {
                        return;
                    }
                }
            }
        }
    }

    /// One memoized step; also returns the bucket of the entry it
    /// landed on when that entry is stationary.
    fn step_memoized(
        &mut self,
        tid: ThreadId,
        plan: &DeliveryPlan,
    ) -> (IterationReport, Option<usize>) {
        if plan.has_lcp || self.config.dsb_policy == SmtDsbPolicy::SetPartitioned {
            return (self.run_iteration_plan(tid, plan, None), None);
        }
        if self.locks[tid.index()]
            .as_ref()
            .is_some_and(|lock| lock.key == plan.key)
        {
            self.memo.stats.streaming += 1;
            return (self.run_iteration_plan(tid, plan, None), None);
        }
        let mut key = std::mem::take(&mut self.memo.key);
        let mut misses = std::mem::take(&mut self.memo.misses);
        self.fetch_l1i_misses(plan, &mut misses);
        self.encode_key(tid, plan, &misses, &mut key);
        let traced = !self.trace.is_off();
        let base = self.memo.bucket_for(&key);
        let slots = &mut self.memo.slots;
        let hit = (0..2).find_map(|way| {
            let slot = &mut slots[base + way];
            if slot.as_ref().is_some_and(|e| e.serves(&key, traced)) {
                slot.take().map(|entry| (way, entry))
            } else {
                None
            }
        });
        let entry = match hit {
            Some((way, entry)) => {
                self.memo.stats.hits += 1;
                if way == 1 {
                    self.memo.slots[base + 1] = self.memo.slots[base].take();
                }
                self.replay(tid, plan, &entry, traced);
                entry
            }
            None => {
                // The least recently used way is recycled; the other ages.
                self.memo.stats.misses += 1;
                let stale = self.memo.slots[base + 1].take();
                self.memo.slots[base + 1] = self.memo.slots[base].take();
                self.record(tid, plan, stale, &key, &misses, traced)
            }
        };
        let report = entry.report;
        let stationary = entry.stationary.then_some(base);
        self.memo.slots[base] = Some(entry);
        self.memo.key = key;
        self.memo.misses = misses;
        (report, stationary)
    }

    /// A repeat of the stationary entry in slot `base`, whose report is
    /// `report`: the plain step's counter updates, nothing else. The
    /// step's fetches would all hit again, so the L1I only counts them.
    /// The entry served the landing step under the same hook, so it is
    /// traced whenever tracing is on.
    fn repeat(&mut self, t: usize, plan: &DeliveryPlan, base: usize, report: &IterationReport) {
        self.memo.stats.hits += 1;
        self.memo.stats.repeats += 1;
        self.l1i.count_repeated_hits(plan.cache_lines.len() as u64);
        self.cumulative[t] += *report;
        if !self.trace.is_off() {
            if let Some(entry) = &self.memo.slots[base] {
                for event in &entry.events {
                    self.trace.emit(|| event.clone());
                }
            }
        }
    }

    /// Work counters of the SMT transition memo: hits and the repeats
    /// among them, misses, bypassed streaming steps and table occupancy. Deterministic for a seeded
    /// run; a frontend that never took a memoized step reports
    /// `slots == 0`.
    pub fn memo_stats(&self) -> MemoStats {
        MemoStats {
            slots: self.memo.slots.len(),
            ..self.memo.stats
        }
    }

    /// Performs the plan's L1I fetches for real, in fetch order, and
    /// leaves one miss bit per fetched line in `bits`.
    fn fetch_l1i_misses(&mut self, plan: &DeliveryPlan, bits: &mut Vec<u64>) {
        bits.clear();
        bits.resize(plan.cache_lines.len().div_ceil(64), 0);
        for (i, &line) in plan.cache_lines.iter().enumerate() {
            if !self.l1i.access_line(line).hit() {
                bits[i / 64] |= 1 << (i % 64);
            }
        }
    }

    /// Encodes everything a non-streaming step of `plan` on `tid` can
    /// read (see the module docs).
    fn encode_key(&self, tid: ThreadId, plan: &DeliveryPlan, misses: &[u64], out: &mut Vec<u64>) {
        let t = tid.index();
        out.clear();
        out.push(plan.key);
        out.push(t as u64 | (self.active[0] as u64) << 1 | (self.active[1] as u64) << 2);
        out.push(self.external_mite_pressure[t].to_bits());
        self.encode_threads(t, out);
        self.encode_sets(plan.set_mask, out);
        out.extend_from_slice(misses);
    }

    /// Appends the post-state of a step: the thread block and the DSB
    /// sets.
    fn encode_post(&self, t: usize, plan: &DeliveryPlan, out: &mut Vec<u64>) {
        self.encode_threads(t, out);
        self.encode_sets(plan.set_mask, out);
    }

    /// Per thread: streak key, then one word holding the streak count
    /// (bits 0-31), the pending flush (32), lock presence (33) and its
    /// crossing count (34+), then the lock key and crossings. Last, the
    /// running thread's `last_source`.
    fn encode_threads(&self, t: usize, out: &mut Vec<u64>) {
        for u in 0..2 {
            let (streak_key, streak) = self.lock_streak[u];
            out.push(streak_key);
            let word = streak as u64 | (self.pending_lsd_flush[u] as u64) << 32;
            match &self.locks[u] {
                Some(lock) => {
                    let n = lock.n_crossings as usize;
                    out.push(word | 1 << 33 | (n as u64) << 34);
                    out.push(lock.key);
                    out.extend_from_slice(&lock.crossings[..n]);
                }
                None => out.push(word),
            }
        }
        out.push(source_code(self.last_source[t]));
    }

    fn encode_sets(&self, mask: u64, out: &mut Vec<u64>) {
        for set in sets_of(mask) {
            self.dsb.push_set(set, out);
        }
    }

    /// Writes a recorded post-state back. The only lock a step can
    /// create is the running thread's lock on `plan`; every other lock
    /// in the post-state is the live one with updated crossings.
    fn restore(&mut self, t: usize, plan: &DeliveryPlan, post: &[u64]) {
        let mut at = 0;
        for u in 0..2 {
            let word = post[at + 1];
            self.lock_streak[u] = (post[at], word as u32);
            self.pending_lsd_flush[u] = word >> 32 & 1 != 0;
            at += 2;
            if word >> 33 & 1 != 0 {
                let key = post[at];
                let n = (word >> 34) as usize;
                let lock = match &mut self.locks[u] {
                    Some(lock) if lock.key == key => lock,
                    slot => slot.insert(LoopLock::from_plan(plan)),
                };
                lock.crossings[..n].copy_from_slice(&post[at + 1..at + 1 + n]);
                lock.n_crossings = n as u8;
                at += 1 + n;
            } else {
                self.locks[u] = None;
            }
        }
        self.last_source[t] = source_from(post[at]);
        at += 1;
        for set in sets_of(plan.set_mask) {
            let len = post[at] as usize;
            self.dsb.load_set(set, &post[at + 1..at + 1 + len]);
            at += 1 + len;
        }
    }

    /// A hit: restore the post-state, account the report, re-emit the
    /// recorded events.
    fn replay(&mut self, tid: ThreadId, plan: &DeliveryPlan, entry: &Entry, traced: bool) {
        let t = tid.index();
        self.restore(t, plan, &entry.words[entry.key_len..]);
        self.cumulative[t] += entry.report;
        if traced {
            for event in &entry.events {
                self.trace.emit(|| event.clone());
            }
        }
    }

    /// A miss: simulate the step on the already-fetched L1I miss pattern,
    /// capturing its events when traced, and record the transition
    /// (reusing the allocation of the `stale` entry it replaces).
    fn record(
        &mut self,
        tid: ThreadId,
        plan: &DeliveryPlan,
        stale: Option<Box<Entry>>,
        key: &[u64],
        misses: &[u64],
        traced: bool,
    ) -> Box<Entry> {
        let outer =
            traced.then(|| std::mem::replace(&mut self.trace, TraceHook::new(TraceMode::Events)));
        let report = self.run_iteration_plan(tid, plan, Some(misses));
        let mut entry = stale.unwrap_or_else(|| {
            self.memo.stats.entries += 1;
            Box::default()
        });
        entry.events.clear();
        if let Some(outer) = outer {
            if let TraceHook::Events(buffer) = std::mem::replace(&mut self.trace, outer) {
                entry.events = buffer.events;
            }
            for event in &entry.events {
                self.trace.emit(|| event.clone());
            }
        }
        entry.words.clear();
        entry.words.extend_from_slice(key);
        entry.key_len = key.len();
        self.encode_post(tid.index(), plan, &mut entry.words);
        entry.report = report;
        entry.traced = traced;
        let state = &key[KEY_HEAD..key.len() - misses.len()];
        entry.stationary =
            misses.iter().all(|&word| word == 0) && entry.words[key.len()..] == *state;
        entry
    }
}
