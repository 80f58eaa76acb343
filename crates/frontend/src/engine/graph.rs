//! The whole-run state graph behind [`Frontend::smt_walk`] (DESIGN.md §6).
//!
//! Two threads interleaving a pair of loops revisit the same few frontend
//! states over and over: one MT covert-channel transmission takes
//! hundreds of thousands of steps over a few dozen distinct states. A
//! walk interns the *run region* of its chain pair — everything a step
//! of either loop can read or write — as a state, and records each
//! simulated step as an *edge* from its pre-state to its post-state.
//! Each state has one out-edge per thread, so the interleaving is a walk
//! on a digraph of out-degree two; a step whose edge is known follows it
//! instead of simulating.
//!
//! The region is encoded as flat `u64` words:
//!
//! * the activity bits and both threads' external MITE pressure;
//! * per thread: the LSD streak, the pending flush, `last_source` and
//!   the lock with its sibling crossings;
//! * the DSB sets of both plans' set masks, each MRU first;
//! * the L1I sets of both plans' cache lines, each MRU first.
//!
//! An edge holds what a step changes outside the region: its report
//! (added to the thread's cumulative counters), its L1I statistics delta
//! and, when it was captured traced, its events. The live frontend is
//! written back (*materialized*) only where something outside the walk
//! reads it: before a missing edge is simulated, before a finished thread
//! is deactivated, and when the walk ends.

use std::collections::BTreeMap;
use std::rc::Rc;

use leaky_cache::CacheStats;
use leaky_isa::BlockChain;
use leaky_trace::{TraceEvent, TraceHook, TraceMode};

use super::{Frontend, LoopLock, ThreadId};
use crate::counters::{IterationReport, UopSource};
use crate::dsb::SmtDsbPolicy;
use crate::plan::DeliveryPlan;

/// States one graph holds at most; interning one more clears the graph
/// first (counted in [`MemoStats::resets`]). One channel configuration
/// walks at most a few dozen states.
const MAX_STATES: usize = 512;

/// Chain pairs whose graphs a frontend keeps; a new pair beyond this
/// drops them all. A channel walks one pair.
const MAX_GRAPHS: usize = 8;

/// Deterministic work counters of a frontend's state graphs (see
/// [`Frontend::memo_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Steps served by following a recorded edge.
    pub followed: u64,
    /// Steps simulated on the live frontend. Each records its edge (an
    /// untraced edge is re-recorded traced) unless interning its target
    /// cleared the graph.
    pub simulated: u64,
    /// Interned states across the live graphs.
    pub states: usize,
    /// Recorded edges across the live graphs.
    pub edges: usize,
    /// Graphs cleared because they reached their state cap.
    pub resets: u64,
}

/// A slot on each graph edge that the walk's caller may fill with data
/// derived from that edge alone: a key and three values. `leaky_cpu`'s
/// `Core::run_concurrent` caches a step's cycles and energy there. The
/// frontend never reads a note and drops it with its edge.
pub type EdgeNote = Option<(u64, [f64; 3])>;

/// One recorded step.
#[derive(Debug, Clone)]
struct Edge {
    target: u32,
    report: IterationReport,
    /// The step's L1I statistics delta.
    l1i: CacheStats,
    /// Whether `events` was captured with tracing on: an untraced edge
    /// never serves a traced step.
    traced: bool,
    events: Vec<TraceEvent>,
    note: EdgeNote,
}

#[derive(Debug, Clone)]
struct State {
    code: Rc<[u64]>,
    /// Out-edge per thread.
    edges: [Option<Edge>; 2],
}

/// Which DSB and L1I sets a chain pair's steps touch.
#[derive(Debug, Clone, Default)]
struct Region {
    dsb_mask: u64,
    l1i_sets: Box<[usize]>,
}

/// The interned states and edges of one chain pair.
#[derive(Debug, Clone, Default)]
struct StateGraph {
    region: Region,
    ids: BTreeMap<Rc<[u64]>, u32>,
    states: Vec<State>,
    edges: usize,
}

impl StateGraph {
    fn clear(&mut self) {
        self.ids.clear();
        self.states.clear();
        self.edges = 0;
    }
}

/// A frontend's graphs, keyed by the (T0, T1) chain-key pair, plus the
/// encoding scratch buffer and the counters.
#[derive(Debug, Clone, Default)]
pub(super) struct Graphs {
    by_pair: BTreeMap<(u64, u64), StateGraph>,
    scratch: Vec<u64>,
    stats: MemoStats,
}

impl Graphs {
    /// Drops every graph (the counters stay).
    pub(super) fn clear(&mut self) {
        self.by_pair.clear();
    }

    /// Takes the pair's graph out of the map for a walk, creating it
    /// (after dropping every graph when the map is full).
    fn take(&mut self, pair: (u64, u64), region: impl FnOnce() -> Region) -> StateGraph {
        self.by_pair.remove(&pair).unwrap_or_else(|| {
            if self.by_pair.len() >= MAX_GRAPHS {
                self.by_pair.clear();
            }
            StateGraph {
                region: region(),
                ..StateGraph::default()
            }
        })
    }
}

/// A walk of two threads over one chain pair through the pair's state
/// graph (see the module docs), created by [`Frontend::smt_walk`].
///
/// Every step is bit-identical to [`Frontend::run_iteration`] on the
/// same thread and chain: the report, the cumulative counters, the L1I
/// statistics, the emitted trace events and — once materialized — every
/// piece of frontend state. The live frontend is materialized before a
/// missing edge is simulated, in [`SmtWalk::deactivate`], and when the
/// walk is dropped.
#[derive(Debug)]
pub struct SmtWalk<'f> {
    fe: &'f mut Frontend,
    plans: [Rc<DeliveryPlan>; 2],
    pair: (u64, u64),
    /// Whether every step runs the plain path: LCP-bearing chains and
    /// the `SetPartitioned` ablation policy. `graph` then stays empty.
    plain: bool,
    graph: StateGraph,
    cur: u32,
    /// Whether the live frontend holds state `cur`; following an edge
    /// moves the walk ahead of it.
    live: bool,
    traced: bool,
    /// The report of the last step served without an edge.
    last: IterationReport,
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

/// The physical DSB sets of a set mask, ascending.
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
    /// Starts a walk of `chains[0]` on T0 and `chains[1]` on T1 through
    /// the pair's whole-run state graph (see [`SmtWalk`]). The graph
    /// persists across walks of the same pair; [`Frontend::reconfigure`]
    /// clears it, and every other mutator is covered because a walk
    /// interns its entry state from live state.
    ///
    /// # Panics
    ///
    /// Panics if the geometry's µops-per-line is zero
    /// (`Block::line_slots_for`).
    pub fn smt_walk(&mut self, chains: [&BlockChain; 2]) -> SmtWalk<'_> {
        let plans = chains.map(|chain| {
            self.plans
                .get_or_build(chain, &self.config.geometry, self.config_key)
        });
        let pair = (plans[0].key, plans[1].key);
        let plain = plans.iter().any(|p| p.has_lcp)
            || self.config.dsb_policy == SmtDsbPolicy::SetPartitioned;
        let graph = if plain {
            StateGraph::default()
        } else {
            let l1i = self.l1i.config();
            self.graphs.take(pair, || {
                let mut l1i_sets: Vec<usize> = plans
                    .iter()
                    .flat_map(|p| p.cache_lines.iter().map(|&line| l1i.set_of_line(line)))
                    .collect();
                l1i_sets.sort_unstable();
                l1i_sets.dedup();
                Region {
                    dsb_mask: plans[0].set_mask | plans[1].set_mask,
                    l1i_sets: l1i_sets.into(),
                }
            })
        };
        let traced = !self.trace.is_off();
        let mut walk = SmtWalk {
            fe: self,
            plans,
            pair,
            plain,
            graph,
            cur: 0,
            live: true,
            traced,
            last: IterationReport::new(),
        };
        walk.intern_live();
        walk
    }

    /// Work counters of the state graphs: steps followed and simulated,
    /// live states and edges, and overflow resets. Deterministic for a
    /// seeded run; a frontend that never walked reports all zeros.
    pub fn memo_stats(&self) -> MemoStats {
        let live = self.graphs.by_pair.values();
        MemoStats {
            states: live.clone().map(|g| g.states.len()).sum(),
            edges: live.map(|g| g.edges).sum(),
            ..self.graphs.stats
        }
    }

    /// Encodes the run region (see the module docs) into `out`.
    fn encode_region(&self, region: &Region, out: &mut Vec<u64>) {
        out.clear();
        out.push(self.active[0] as u64 | (self.active[1] as u64) << 1);
        out.push(self.external_mite_pressure[0].to_bits());
        out.push(self.external_mite_pressure[1].to_bits());
        // Per thread: streak key, then one word holding the streak count
        // (bits 0-31), the pending flush (32), lock presence (33), the
        // last source (34-35) and the lock's crossing count (36+), then
        // the lock key and crossings.
        for u in 0..2 {
            let (streak_key, streak) = self.lock_streak[u];
            out.push(streak_key);
            let word = streak as u64
                | (self.pending_lsd_flush[u] as u64) << 32
                | source_code(self.last_source[u]) << 34;
            match &self.locks[u] {
                Some(lock) => {
                    let n = lock.n_crossings as usize;
                    out.push(word | 1 << 33 | (n as u64) << 36);
                    out.push(lock.key);
                    out.extend_from_slice(&lock.crossings[..n]);
                }
                None => out.push(word),
            }
        }
        for set in sets_of(region.dsb_mask) {
            self.dsb.push_set(set, out);
        }
        for &set in region.l1i_sets.iter() {
            let lines = self.l1i.set_lines(set);
            out.push(lines.len() as u64);
            out.extend_from_slice(lines);
        }
    }

    /// Writes an encoded region back. The activity bits and pressures
    /// are skipped: nothing inside a walk changes them. A lock on one of
    /// the pair's chains is rebuilt from its plan when the live lock
    /// differs; any other lock in `code` is the live one (a step can
    /// only drop such a lock or add crossings to it).
    fn load_region(&mut self, plans: &[Rc<DeliveryPlan>; 2], region: &Region, code: &[u64]) {
        debug_assert_eq!(
            code[0],
            self.active[0] as u64 | (self.active[1] as u64) << 1
        );
        let mut at = 3;
        for (u, plan) in plans.iter().enumerate() {
            let word = code[at + 1];
            self.lock_streak[u] = (code[at], word as u32);
            self.pending_lsd_flush[u] = word >> 32 & 1 != 0;
            self.last_source[u] = source_from(word >> 34 & 3);
            at += 2;
            if word >> 33 & 1 != 0 {
                let key = code[at];
                let n = (word >> 36) as usize;
                let lock = match &mut self.locks[u] {
                    Some(lock) if lock.key == key => lock,
                    slot => {
                        debug_assert_eq!(plan.key, key, "a foreign lock must be live");
                        slot.insert(LoopLock::from_plan(plan))
                    }
                };
                lock.crossings[..n].copy_from_slice(&code[at + 1..at + 1 + n]);
                lock.n_crossings = n as u8;
                at += 1 + n;
            } else {
                self.locks[u] = None;
            }
        }
        for set in sets_of(region.dsb_mask) {
            let len = code[at] as usize;
            self.dsb.load_set(set, &code[at + 1..at + 1 + len]);
            at += 1 + len;
        }
        for &set in region.l1i_sets.iter() {
            let len = code[at] as usize;
            self.l1i.load_set(set, &code[at + 1..at + 1 + len]);
            at += 1 + len;
        }
        debug_assert_eq!(at, code.len());
    }
}

impl SmtWalk<'_> {
    /// The frontend, as of the last materialization plus every followed
    /// step's counters.
    pub fn frontend(&self) -> &Frontend {
        self.fe
    }

    /// One iteration of `tid`'s chain: follows the state's edge for
    /// `tid` when one is recorded (and was captured traced, if tracing
    /// is on), else materializes, simulates and records it. Returns the
    /// step's report and, for a step on the graph, its edge's note.
    pub fn step(&mut self, tid: ThreadId) -> (&IterationReport, Option<&mut EdgeNote>) {
        let t = tid.index();
        if self.plain {
            self.last = self.fe.run_iteration_plan(tid, &self.plans[t]);
            return (&self.last, None);
        }
        let traced = self.traced;
        let cur = self.cur as usize;
        let known = self.graph.states[cur].edges[t]
            .as_ref()
            .is_some_and(|edge| edge.traced || !traced);
        if !known {
            return self.simulate(tid);
        }
        let Some(edge) = self.graph.states[cur].edges[t].as_mut() else {
            unreachable!("the edge was just found");
        };
        let fe = &mut *self.fe;
        fe.cumulative[t] += edge.report;
        fe.l1i.add_stats(edge.l1i);
        if traced {
            for event in &edge.events {
                fe.trace.emit(|| event.clone());
            }
        }
        fe.graphs.stats.followed += 1;
        self.cur = edge.target;
        self.live = false;
        (&edge.report, Some(&mut edge.note))
    }

    /// Marks `tid` idle once its work is done: materializes, applies
    /// [`Frontend::set_active`] and interns the resulting state.
    pub fn deactivate(&mut self, tid: ThreadId) {
        self.materialize();
        self.fe.set_active(tid, false);
        self.intern_live();
    }

    /// Simulates `tid`'s step on the materialized frontend (capturing
    /// its events when traced) and records the edge.
    fn simulate(&mut self, tid: ThreadId) -> (&IterationReport, Option<&mut EdgeNote>) {
        let t = tid.index();
        self.materialize();
        let fe = &mut *self.fe;
        let before = fe.l1i.stats();
        let outer = self
            .traced
            .then(|| std::mem::replace(&mut fe.trace, TraceHook::new(TraceMode::Events)));
        let report = fe.run_iteration_plan(tid, &self.plans[t]);
        let mut events = Vec::new();
        if let Some(outer) = outer {
            if let TraceHook::Events(buffer) = std::mem::replace(&mut fe.trace, outer) {
                events = buffer.events;
            }
            for event in &events {
                fe.trace.emit(|| event.clone());
            }
        }
        let l1i = fe.l1i.stats().since(before);
        fe.graphs.stats.simulated += 1;
        let from = self.cur as usize;
        if self.intern_live() {
            // The graph was cleared to make room: `from` is gone.
            self.last = report;
            return (&self.last, None);
        }
        let slot = &mut self.graph.states[from].edges[t];
        if slot.is_none() {
            self.graph.edges += 1;
        }
        let edge = slot.insert(Edge {
            target: self.cur,
            report,
            l1i,
            traced: self.traced,
            events,
            note: None,
        });
        (&edge.report, Some(&mut edge.note))
    }

    /// Makes the live frontend hold state `cur`.
    fn materialize(&mut self) {
        if !self.live {
            let code = &self.graph.states[self.cur as usize].code;
            self.fe.load_region(&self.plans, &self.graph.region, code);
            self.live = true;
        }
    }

    /// Interns the live frontend's region as the current state, first
    /// clearing the graph when it is full. Returns whether it cleared.
    fn intern_live(&mut self) -> bool {
        if self.plain {
            return false;
        }
        let graph = &mut self.graph;
        let mut code = std::mem::take(&mut self.fe.graphs.scratch);
        self.fe.encode_region(&graph.region, &mut code);
        let mut reset = false;
        self.cur = match graph.ids.get(&code[..]) {
            Some(&id) => id,
            None => {
                if graph.states.len() >= MAX_STATES {
                    graph.clear();
                    self.fe.graphs.stats.resets += 1;
                    reset = true;
                }
                let id = graph.states.len() as u32;
                let interned: Rc<[u64]> = Rc::from(&code[..]);
                graph.ids.insert(Rc::clone(&interned), id);
                graph.states.push(State {
                    code: interned,
                    edges: [None, None],
                });
                id
            }
        };
        self.fe.graphs.scratch = code;
        self.live = true;
        reset
    }
}

impl Drop for SmtWalk<'_> {
    /// Materializes the walk's final state and hands the graph back to
    /// the frontend.
    fn drop(&mut self) {
        self.materialize();
        if !self.plain {
            let graph = std::mem::take(&mut self.graph);
            self.fe.graphs.by_pair.insert(self.pair, graph);
        }
    }
}
