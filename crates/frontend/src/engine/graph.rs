//! The state graphs behind [`Frontend::smt_walk`] and
//! [`Frontend::round_walk`] (DESIGN.md §6).
//!
//! A walk has two *lanes*, each a (hardware thread, chain) pair. An SMT
//! walk runs one chain on each thread: two threads interleaving a pair
//! of loops revisit the same few frontend states over and over, and one
//! MT covert-channel transmission takes hundreds of thousands of steps
//! over a few dozen distinct states. A round walk runs a receiver and an
//! encoding chain on one thread, the Init/Encode/Decode rounds of the
//! single-thread channels. A walk interns the *run region* of its lanes
//! — everything a step of either lane can read or write — as a state,
//! and records each simulated step as an *edge* from its pre-state to its
//! post-state. Each state has one out-edge per lane, so the walk runs on
//! a digraph of out-degree two; a step whose edge is known follows it
//! instead of simulating.
//!
//! The region is encoded as flat `u64` words:
//!
//! * the activity bits and both threads' external MITE pressure;
//! * per thread: the LSD streak, the pending flush, `last_source` and
//!   the lock with its sibling crossings;
//! * the DSB sets of both lanes' set masks, each MRU first;
//! * the L1I sets of both lanes' cache lines, each MRU first.
//!
//! An edge holds what a step changes outside the region: its report
//! (added to the thread's cumulative counters), its L1I statistics delta
//! and, when it was captured traced, its events. Following an edge does
//! only the work that must stay in step order: it adds the report's four
//! `f64` cycle fields to the thread's counters and to the lane's total
//! for the walk, and counts the follow on the edge. The integer fields
//! and the L1I delta commute, so they are *folded* in as `count ×` their
//! value once per walk, when it ends, and before a full graph is
//! cleared. The live frontend is written back (*materialized*) only
//! where something outside the walk reads it: before a missing edge is
//! simulated and when the walk ends. Deactivating a finished thread is
//! not one of them: it changes only the activity bits (and a flag of the
//! DSB that the region does not hold), so its successor is the current
//! state with its first word patched, recorded once per state and
//! thread.

use std::collections::BTreeMap;
use std::rc::Rc;

use leaky_cache::CacheStats;
use leaky_isa::BlockChain;
use leaky_trace::{TraceEvent, TraceHook, TraceMode};

use super::{Frontend, FrontendConfig, LoopLock, ThreadId};
use crate::counters::{IterationReport, UopSource};
use crate::dsb::SmtDsbPolicy;
use crate::plan::DeliveryPlan;

/// States one graph holds at most; interning one more clears the graph
/// first (counted in [`MemoStats::resets`]). One channel configuration
/// walks at most a few dozen states.
const MAX_STATES: usize = 512;

/// Lane pairs whose graphs a frontend keeps; a new pair beyond this
/// drops them all. A channel walks one or two pairs.
const MAX_GRAPHS: usize = 8;

/// Deterministic work counters of a frontend's state graphs (see
/// [`Frontend::memo_stats`]). `followed`, `bulk` and `simulated` count
/// the steps of every walk; `states` and `edges` count the graphs the
/// frontend holds, which [`Frontend::release_graphs`] drops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Steps served by following a recorded edge.
    pub followed: u64,
    /// The steps among `followed` served in bulk, by repeating a
    /// self-loop edge ([`SmtWalk::follow_repeated`]).
    pub bulk: u64,
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
    /// Follows whose counts (the report's integer fields and `l1i`) are
    /// not yet folded in (see [`SmtWalk::fold`]).
    pending: u64,
    /// Whether `events` was captured with tracing on: an untraced edge
    /// never serves a traced step.
    traced: bool,
    events: Vec<TraceEvent>,
    note: EdgeNote,
}

#[derive(Debug, Clone)]
struct State {
    code: Rc<[u64]>,
    /// Out-edge per lane.
    edges: [Option<Edge>; 2],
    /// Per thread, the state [`SmtWalk::deactivate`] leads to, once
    /// recorded.
    off: [Option<u32>; 2],
}

/// Which DSB and L1I sets a walk's steps touch.
#[derive(Debug, Clone, Default)]
struct Region {
    dsb_mask: u64,
    l1i_sets: Box<[usize]>,
}

/// The interned states and edges of one walk's lanes.
#[derive(Debug, Clone, Default)]
struct StateGraph {
    region: Region,
    ids: BTreeMap<Rc<[u64]>, u32>,
    states: Vec<State>,
    edges: usize,
    /// The (state, lane) edges whose `pending` count is not zero.
    pending: Vec<(u32, usize)>,
}

impl StateGraph {
    /// Drops every state and edge; the caller folds pending counts first.
    fn clear(&mut self) {
        debug_assert!(self.pending.is_empty());
        self.ids.clear();
        self.states.clear();
        self.edges = 0;
    }
}

/// A graph's key: each lane's thread and plan key. The threads keep a
/// round walk's `[(T0, recv), (T0, encode)]` apart from an SMT walk's
/// `[(T0, c0), (T1, c1)]` over the same chains.
type LanesKey = [(ThreadId, u64); 2];

/// A frontend's state graphs with their lanes, plus the encoding
/// scratch buffer and the counters. At most [`MAX_GRAPHS`] graphs, so
/// they sit in a `Vec` searched linearly; taking one out and handing it
/// back moves it without allocating once the `Vec` has room.
#[derive(Debug, Clone, Default)]
pub(super) struct Graphs {
    by_lanes: Vec<(LanesKey, StateGraph)>,
    scratch: Vec<u64>,
    stats: MemoStats,
}

impl Graphs {
    /// Drops every graph and the scratch buffer (the counters stay).
    pub(super) fn clear(&mut self) {
        self.by_lanes.clear();
        self.scratch = Vec::new();
    }

    /// Takes the lanes' graph out for a walk; `None` when they have none
    /// (after dropping every graph when all slots are taken, so the
    /// walk's graph fits when it is handed back).
    fn take(&mut self, key: &LanesKey) -> Option<StateGraph> {
        match self.by_lanes.iter().position(|(k, _)| k == key) {
            Some(at) => Some(self.by_lanes.swap_remove(at).1),
            None => {
                if self.by_lanes.len() >= MAX_GRAPHS {
                    self.by_lanes.clear();
                }
                None
            }
        }
    }
}

/// A walk of two lanes through their state graph (see the module docs),
/// created by [`Frontend::smt_walk`] or [`Frontend::round_walk`].
///
/// Every step is bit-identical to [`Frontend::run_iteration`] on the
/// lane's thread and chain: the report, the cumulative counters, the L1I
/// statistics, the emitted trace events and — once materialized and
/// folded — every piece of frontend state. The live frontend is
/// materialized before a missing edge is simulated and when the walk is
/// dropped; the counts of followed steps are folded in when the walk
/// ends. So while it runs, a walk lends out only what no step changes
/// ([`SmtWalk::both_active`], [`SmtWalk::profile_key`],
/// [`SmtWalk::config`]).
#[derive(Debug)]
pub struct SmtWalk<'f> {
    fe: &'f mut Frontend,
    /// Lane `i`'s hardware thread and its chain's plan.
    lanes: [(ThreadId, Rc<DeliveryPlan>); 2],
    /// Whether every step runs the plain path: LCP-bearing chains and
    /// the `SetPartitioned` ablation policy. `graph` then stays empty
    /// and is not stored.
    plain: bool,
    graph: StateGraph,
    cur: u32,
    /// Whether the live frontend holds state `cur`; following an edge
    /// moves the walk ahead of it.
    live: bool,
    traced: bool,
    /// The report of the last step served without an edge.
    last: IterationReport,
    /// Each lane's report over the walk: cycle fields added per step,
    /// counts folded in with the cumulative counters'.
    totals: [IterationReport; 2],
    /// The region-encoding buffer, the frontend's, handed back when the
    /// walk ends.
    scratch: Vec<u64>,
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

/// The key a walk of `lanes` stores its graph under.
fn key_of(lanes: &[(ThreadId, Rc<DeliveryPlan>); 2]) -> LanesKey {
    lanes.each_ref().map(|(tid, plan)| (*tid, plan.key))
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
    /// Starts a walk of `chains[0]` on T0 (lane 0) and `chains[1]` on T1
    /// (lane 1) through their state graph (see [`SmtWalk`]). The graph
    /// persists across walks of the same lanes until
    /// [`Frontend::release_graphs`] or [`Frontend::reconfigure`]; every
    /// other mutator is covered because a walk interns its entry state
    /// from live state.
    ///
    /// # Panics
    ///
    /// Panics if the geometry's µops-per-line is zero
    /// (`Block::line_slots_for`).
    pub fn smt_walk(&mut self, chains: [&BlockChain; 2]) -> SmtWalk<'_> {
        self.walk([(ThreadId::T0, chains[0]), (ThreadId::T1, chains[1])])
    }

    /// Starts a walk of one thread's Init/Encode/Decode rounds: lane 0
    /// runs `recv` and lane 1 `encode` (`recv` again when there is no
    /// encoding), both on `tid`. The graph is stored like an SMT walk's,
    /// under its lanes, until [`Frontend::release_graphs`] (DESIGN.md
    /// §6).
    ///
    /// # Panics
    ///
    /// Panics if the geometry's µops-per-line is zero
    /// (`Block::line_slots_for`).
    pub fn round_walk(
        &mut self,
        tid: ThreadId,
        recv: &BlockChain,
        encode: Option<&BlockChain>,
    ) -> SmtWalk<'_> {
        self.walk([(tid, recv), (tid, encode.unwrap_or(recv))])
    }

    /// Starts a walk of `lanes` on their stored graph, if any.
    fn walk(&mut self, lanes: [(ThreadId, &BlockChain); 2]) -> SmtWalk<'_> {
        let lanes = lanes.map(|(tid, chain)| {
            let plan = self
                .plans
                .get_or_build(chain, &self.config.geometry, self.config_key);
            (tid, plan)
        });
        let plain = lanes.iter().any(|(_, p)| p.has_lcp)
            || self.config.dsb_policy == SmtDsbPolicy::SetPartitioned;
        let stored = if plain {
            None
        } else {
            self.graphs.take(&key_of(&lanes))
        };
        let graph = match stored {
            Some(graph) => graph,
            None if plain => StateGraph::default(),
            None => {
                let l1i = self.l1i.config();
                let mut l1i_sets: Vec<usize> = lanes
                    .iter()
                    .flat_map(|(_, p)| p.cache_lines.iter().map(|&line| l1i.set_of_line(line)))
                    .collect();
                l1i_sets.sort_unstable();
                l1i_sets.dedup();
                StateGraph {
                    region: Region {
                        dsb_mask: lanes[0].1.set_mask | lanes[1].1.set_mask,
                        l1i_sets: l1i_sets.into(),
                    },
                    ..StateGraph::default()
                }
            }
        };
        let traced = !self.trace.is_off();
        let scratch = std::mem::take(&mut self.graphs.scratch);
        let mut walk = SmtWalk {
            fe: self,
            lanes,
            plain,
            graph,
            cur: 0,
            live: true,
            traced,
            last: IterationReport::new(),
            totals: [IterationReport::new(); 2],
            scratch,
        };
        walk.intern_live();
        walk
    }

    /// Work counters of the state graphs: steps followed and simulated,
    /// the states and edges of the graphs held, and overflow resets.
    /// Deterministic for a seeded run; a frontend that never walked
    /// reports all zeros.
    pub fn memo_stats(&self) -> MemoStats {
        let live = self.graphs.by_lanes.iter().map(|(_, graph)| graph);
        MemoStats {
            states: live.clone().map(|g| g.states.len()).sum(),
            edges: live.map(|g| g.edges).sum(),
            ..self.graphs.stats
        }
    }

    /// Drops every state graph (the counters stay). A caller that owns
    /// the frontend between calls, such as a covert channel, releases
    /// the graphs once its call is done, so a frontend at rest holds
    /// none (DESIGN.md §6).
    pub fn release_graphs(&mut self) {
        self.graphs.clear();
    }

    /// The region's first word: the activity bits.
    fn activity_word(&self) -> u64 {
        self.active[0] as u64 | (self.active[1] as u64) << 1
    }

    /// Encodes the run region (see the module docs) into `out`.
    fn encode_region(&self, region: &Region, out: &mut Vec<u64>) {
        out.clear();
        out.push(self.activity_word());
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
    /// the lanes' chains is rebuilt from whichever lane's plan carries
    /// its key when the live lock differs; any other lock in `code` is
    /// the live one (a step can only drop such a lock or add crossings
    /// to it).
    fn load_region(
        &mut self,
        lanes: &[(ThreadId, Rc<DeliveryPlan>); 2],
        region: &Region,
        code: &[u64],
    ) {
        debug_assert_eq!(code[0], self.activity_word());
        let mut at = 3;
        for u in 0..2 {
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
                        let Some((_, plan)) = lanes.iter().find(|(_, p)| p.key == key) else {
                            unreachable!("a foreign lock must be live");
                        };
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
    /// Whether both hardware threads are active (see
    /// [`Frontend::both_active`]).
    #[inline]
    pub fn both_active(&self) -> bool {
        self.fe.both_active()
    }

    /// The frontend's profile key (see [`Frontend::profile_key`]).
    pub fn profile_key(&self) -> u64 {
        self.fe.profile_key()
    }

    /// The frontend's configuration.
    pub fn config(&self) -> &FrontendConfig {
        self.fe.config()
    }

    /// One iteration of `lane`'s chain on its thread: follows the
    /// state's edge for `lane` when one is recorded (and was captured
    /// traced, if tracing is on), else materializes, simulates and
    /// records it. Returns the step's report and, for a step on the
    /// graph, its edge's note.
    ///
    /// A followed step adds the report's four cycle fields to the
    /// thread's cumulative counters and to the lane's total, re-emits
    /// the edge's events when traced, counts the follow on the edge and
    /// moves to its target. The report's counts and the L1I delta wait
    /// for the next fold (see the module docs).
    #[inline]
    pub fn step(&mut self, lane: usize) -> (&IterationReport, Option<&mut EdgeNote>) {
        if self.plain {
            let (tid, plan) = &self.lanes[lane];
            self.last = self.fe.run_iteration_plan(*tid, plan);
            self.totals[lane] += self.last;
            return (&self.last, None);
        }
        let traced = self.traced;
        let cur = self.cur;
        let known = self.graph.states[cur as usize].edges[lane]
            .as_ref()
            .is_some_and(|edge| edge.traced || !traced);
        if !known {
            return self.simulate(lane);
        }
        let StateGraph {
            states, pending, ..
        } = &mut self.graph;
        let Some(edge) = states[cur as usize].edges[lane].as_mut() else {
            unreachable!("the edge was just found");
        };
        let fe = &mut *self.fe;
        fe.cumulative[self.lanes[lane].0.index()].add_cycles(&edge.report);
        self.totals[lane].add_cycles(&edge.report);
        if traced {
            for event in &edge.events {
                fe.trace.emit(|| event.clone());
            }
        }
        if edge.pending == 0 {
            pending.push((cur, lane));
        }
        edge.pending += 1;
        fe.graphs.stats.followed += 1;
        self.cur = edge.target;
        self.live = false;
        (&edge.report, Some(&mut edge.note))
    }

    /// The fast path of [`SmtWalk::step`] for a caller that needs only
    /// the note: on an untraced walk whose recorded edge for `lane`
    /// holds a note keyed `key`, follows that edge exactly as `step`'s
    /// followed branch does (the cycle fields into the thread's
    /// counters and the lane's total, one more pending follow, the move
    /// to the target) and returns the note's values. Returns `None`,
    /// and does nothing, otherwise: a plain or traced walk, no edge, no
    /// note or a note under another key.
    #[inline]
    pub fn follow_noted(&mut self, lane: usize, key: u64) -> Option<[f64; 3]> {
        // The follow is written out here and in `step`: one helper
        // shared by both read ~11% fewer `channel_stream` kbit/s (2-core
        // x86-64, thin LTO), from how the two callers were inlined.
        if self.plain || self.traced {
            return None;
        }
        let cur = self.cur;
        let StateGraph {
            states, pending, ..
        } = &mut self.graph;
        let edge = states[cur as usize].edges[lane].as_mut()?;
        let values = match edge.note {
            Some((k, values)) if k == key => values,
            _ => return None,
        };
        let fe = &mut *self.fe;
        fe.cumulative[self.lanes[lane].0.index()].add_cycles(&edge.report);
        self.totals[lane].add_cycles(&edge.report);
        if edge.pending == 0 {
            pending.push((cur, lane));
        }
        edge.pending += 1;
        fe.graphs.stats.followed += 1;
        self.cur = edge.target;
        self.live = false;
        Some(values)
    }

    /// The note of `lane`'s out-edge when that edge is a self-loop the
    /// walk may repeat with [`SmtWalk::follow_repeated`]: recorded, leading
    /// back to the current state, on an untraced walk (a traced walk
    /// re-emits each step's events, so it steps one at a time).
    pub fn self_loop(&self, lane: usize) -> Option<EdgeNote> {
        if self.plain || self.traced {
            return None;
        }
        let edge = self.graph.states[self.cur as usize].edges[lane].as_ref()?;
        (edge.target == self.cur).then_some(edge.note)
    }

    /// Follows `lane`'s self-loop edge `n` times at once, bit-identical
    /// to `n` calls of [`SmtWalk::step`]: the cycle fields go into the
    /// lane thread's cumulative counters and the lane's total through
    /// [`leaky_stats::add_repeated`], the edge counts `n` more follows,
    /// and `followed` (and [`MemoStats::bulk`]) grow by `n`. The region
    /// does not move, so the live frontend stays as current as it was.
    ///
    /// # Panics
    ///
    /// Panics if [`SmtWalk::self_loop`] finds no self-loop for `lane`.
    pub fn follow_repeated(&mut self, lane: usize, n: u64) {
        assert!(
            self.self_loop(lane).is_some(),
            "lane {lane} is not on a self-loop"
        );
        let cur = self.cur;
        let StateGraph {
            states, pending, ..
        } = &mut self.graph;
        let Some(edge) = states[cur as usize].edges[lane].as_mut() else {
            unreachable!("the self-loop was just found");
        };
        let fe = &mut *self.fe;
        fe.cumulative[self.lanes[lane].0.index()].add_cycles_repeated(&edge.report, n);
        self.totals[lane].add_cycles_repeated(&edge.report, n);
        if edge.pending == 0 {
            pending.push((cur, lane));
        }
        edge.pending += n;
        fe.graphs.stats.followed += n;
        fe.graphs.stats.bulk += n;
    }

    /// Marks `tid` idle once its work is done, as
    /// [`Frontend::set_active`] does, without materializing. A walk that
    /// is not plain runs under the `Competitive` or `Shared` policy, so
    /// `set_active(tid, false)` changes only the activity bits and
    /// [`Dsb`](crate::Dsb)'s partition flag, which the region does not
    /// hold: it applies to the live frontend as it stands, and the
    /// successor is the current state with its activity word patched.
    /// The successor is interned once per (state, thread) and recorded
    /// on the state; later deactivations follow the record.
    pub fn deactivate(&mut self, tid: ThreadId) {
        self.fe.set_active(tid, false);
        if self.plain {
            return;
        }
        let state = &self.graph.states[self.cur as usize];
        if let Some(next) = state.off[tid.index()] {
            self.cur = next;
            return;
        }
        let from = self.cur as usize;
        self.scratch.clear();
        self.scratch.extend_from_slice(&state.code);
        self.scratch[0] = self.fe.activity_word();
        if !self.intern() {
            self.graph.states[from].off[tid.index()] = Some(self.cur);
        }
    }

    /// Ends the walk, returning each lane's report over it: exactly the
    /// sum of the reports of its steps, in step order.
    pub fn finish(mut self) -> [IterationReport; 2] {
        self.fold();
        self.totals
    }

    /// Simulates `lane`'s step on the materialized frontend (capturing
    /// its events when traced) and records the edge.
    fn simulate(&mut self, lane: usize) -> (&IterationReport, Option<&mut EdgeNote>) {
        self.materialize();
        let fe = &mut *self.fe;
        let before = fe.l1i.stats();
        let outer = self
            .traced
            .then(|| std::mem::replace(&mut fe.trace, TraceHook::new(TraceMode::Events)));
        let (tid, plan) = &self.lanes[lane];
        let report = fe.run_iteration_plan(*tid, plan);
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
        self.totals[lane] += report;
        let from = self.cur as usize;
        if self.intern_live() {
            // The graph was cleared to make room: `from` is gone.
            self.last = report;
            return (&self.last, None);
        }
        let slot = &mut self.graph.states[from].edges[lane];
        // An edge is re-recorded only by a traced walk, which never
        // follows an untraced edge, after earlier walks folded theirs.
        debug_assert!(slot.as_ref().is_none_or(|edge| edge.pending == 0));
        if slot.is_none() {
            self.graph.edges += 1;
        }
        let edge = slot.insert(Edge {
            target: self.cur,
            report,
            l1i,
            pending: 0,
            traced: self.traced,
            events,
            note: None,
        });
        (&edge.report, Some(&mut edge.note))
    }

    /// Folds the pending follows' counts into the cumulative counters,
    /// the lanes' totals and the L1I statistics: `n` follows of an edge
    /// add `n ×` its report's integer fields and its L1I delta.
    fn fold(&mut self) {
        let StateGraph {
            states, pending, ..
        } = &mut self.graph;
        for (state, lane) in pending.drain(..) {
            let Some(edge) = states[state as usize].edges[lane].as_mut() else {
                unreachable!("a pending edge is recorded");
            };
            let n = std::mem::take(&mut edge.pending);
            self.fe.cumulative[self.lanes[lane].0.index()].add_counts(&edge.report, n);
            self.totals[lane].add_counts(&edge.report, n);
            self.fe.l1i.add_stats(edge.l1i.times(n));
        }
    }

    /// Makes the live frontend hold state `cur`.
    fn materialize(&mut self) {
        if !self.live {
            let code = &self.graph.states[self.cur as usize].code;
            self.fe.load_region(&self.lanes, &self.graph.region, code);
            self.live = true;
        }
    }

    /// Interns the live frontend's region as the current state (see
    /// [`SmtWalk::intern`]).
    fn intern_live(&mut self) -> bool {
        if self.plain {
            return false;
        }
        self.fe.encode_region(&self.graph.region, &mut self.scratch);
        self.live = true;
        self.intern()
    }

    /// Interns the encoded region in the scratch buffer as the current
    /// state, first folding and clearing the graph when it is full.
    /// Returns whether it cleared.
    fn intern(&mut self) -> bool {
        let code = &self.scratch[..];
        if let Some(&id) = self.graph.ids.get(code) {
            self.cur = id;
            return false;
        }
        let reset = self.graph.states.len() >= MAX_STATES;
        if reset {
            self.fold();
            self.graph.clear();
            self.fe.graphs.stats.resets += 1;
        }
        let graph = &mut self.graph;
        let id = graph.states.len() as u32;
        let interned: Rc<[u64]> = Rc::from(&self.scratch[..]);
        graph.ids.insert(Rc::clone(&interned), id);
        graph.states.push(State {
            code: interned,
            edges: [None, None],
            off: [None, None],
        });
        self.cur = id;
        reset
    }
}

impl Drop for SmtWalk<'_> {
    /// Materializes the walk's final state, folds the pending counts and
    /// hands the graph (unless the walk is plain) and the scratch buffer
    /// back to the frontend.
    fn drop(&mut self) {
        self.materialize();
        self.fold();
        if !self.plain {
            let graph = std::mem::take(&mut self.graph);
            self.fe.graphs.by_lanes.push((key_of(&self.lanes), graph));
        }
        self.fe.graphs.scratch = std::mem::take(&mut self.scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leaky_isa::{same_set_chain, Alignment, DsbSet};
    use proptest::prelude::any;

    impl SmtWalk<'_> {
        /// Deactivation as a materialization point: materialize, apply
        /// [`Frontend::set_active`] and intern the live region.
        fn deactivate_materialized(&mut self, tid: ThreadId) {
            self.materialize();
            self.fe.set_active(tid, false);
            self.intern_live();
        }
    }

    /// Whether a graph of `fe` holds a recorded successor.
    fn has_successor(fe: &Frontend) -> bool {
        fe.graphs
            .by_lanes
            .iter()
            .flat_map(|(_, graph)| &graph.states)
            .any(|state| state.off.iter().any(Option::is_some))
    }

    proptest::proptest! {
        /// A deactivation served from a recorded successor equals
        /// materializing, `set_active` and interning: the same state id,
        /// and after each walk is dropped the same frontend, under both
        /// policies a walk runs on, whichever thread finishes first. Each
        /// walk runs twice, so the second meets the successors the first
        /// recorded.
        #[test]
        fn recorded_deactivation_matches_a_materialized_one(
            specs in proptest::collection::vec((0u8..4, 1usize..10, any::<bool>()), 2..3),
            walks in proptest::collection::vec(
                (0u64..80, 0u64..40, any::<bool>(), any::<u64>()),
                1..4),
            shared in any::<bool>(),
            lsd_enabled in any::<bool>(),
        ) {
            let chains: Vec<BlockChain> = specs
                .iter()
                .enumerate()
                .map(|(i, &(set, n, misaligned))| {
                    let align = if misaligned { Alignment::Misaligned } else { Alignment::Aligned };
                    let base = 0x0041_8000 + i as u64 * 0x0040_0000 + u64::from(set) * 32;
                    same_set_chain(base, DsbSet::new(set), n, align)
                })
                .collect();
            let config = FrontendConfig {
                lsd_enabled,
                dsb_policy: if shared { SmtDsbPolicy::Shared } else { SmtDsbPolicy::Competitive },
                ..FrontendConfig::default()
            };
            let mut recorded = Frontend::new(config);
            let mut materialized = Frontend::new(config);
            for &(both, lone, t1_first, pattern) in walks.iter().flat_map(|w| [w, w]) {
                let first = if t1_first { ThreadId::T1 } else { ThreadId::T0 };
                let mut ids = Vec::new();
                for (fe, served) in [(&mut recorded, true), (&mut materialized, false)] {
                    fe.set_active(ThreadId::T0, true);
                    fe.set_active(ThreadId::T1, true);
                    let mut walk = fe.smt_walk([&chains[0], &chains[1]]);
                    let mut at = Vec::new();
                    for k in 0..both {
                        walk.step((pattern >> (k % 64) & 1) as usize);
                    }
                    for (tid, steps) in [(first, lone), (first.other(), 0)] {
                        if served {
                            walk.deactivate(tid);
                        } else {
                            walk.deactivate_materialized(tid);
                        }
                        at.push(walk.cur);
                        for _ in 0..steps {
                            walk.step(first.other().index());
                        }
                    }
                    drop(walk);
                    ids.push(at);
                }
                proptest::prop_assert_eq!(&ids[0], &ids[1]);
                // The frontends' `Debug` leaves out the graphs, which
                // differ in the recorded successors.
                proptest::prop_assert_eq!(format!("{recorded:?}"), format!("{materialized:?}"));
                proptest::prop_assert_eq!(recorded.memo_stats(), materialized.memo_stats());
            }
            proptest::prop_assert!(has_successor(&recorded));
        }
    }
}
