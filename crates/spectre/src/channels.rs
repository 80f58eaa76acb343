//! The six disclosure channels of Table VII.
//!
//! Three are this paper's (frontend/DSB, L1I Flush+Reload, L1I
//! Prime+Probe); three are the data-cache baselines it compares against
//! (MEM Flush+Reload, L1D Flush+Reload via eviction sets, and the L1D-LRU
//! channel of Xiong & Szefer). Each channel implements the same three
//! hooks — `prepare` (set state before the transient trigger), `transmit`
//! (the gadget body, run transiently by the victim) and `decode` (recover
//! the chunk afterwards) — over a shared [`AttackContext`].

use leaky_cache::{CacheConfig, CacheHierarchy};
use leaky_cpu::{Core, ProcessorModel};
use leaky_frontend::ThreadId;
use leaky_isa::{same_set_chain, Alignment, BlockChain, CodeRegion, DsbSet};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Which disclosure channel carries the transient secret (Table VII
/// columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelKind {
    /// This paper's frontend channel: the gadget executes a mix block
    /// mapping to DSB set = secret; the attacker probes DSB sets by timing
    /// its own pre-primed chains. No cache lines are displaced.
    Frontend,
    /// L1I Flush+Reload: the gadget executes probe function `secret`; the
    /// attacker flushed all probe functions from L1I beforehand and times
    /// re-execution.
    L1iFlushReload,
    /// L1I Prime+Probe: the attacker fills L1I sets with its own code; the
    /// gadget's fetch evicts one line.
    L1iPrimeProbe,
    /// Flush+Reload on victim-shared memory (`clflush` + timed reload).
    MemFlushReload,
    /// Flush+Reload on the L1D using eviction sets instead of `clflush`.
    L1dFlushReload,
    /// The L1D LRU-state channel: the gadget *hits* a cached line, changing
    /// only replacement metadata.
    L1dLru,
}

impl ChannelKind {
    /// All six channels in Table VII order.
    pub fn all() -> [ChannelKind; 6] {
        [
            ChannelKind::MemFlushReload,
            ChannelKind::L1dFlushReload,
            ChannelKind::L1dLru,
            ChannelKind::L1iFlushReload,
            ChannelKind::L1iPrimeProbe,
            ChannelKind::Frontend,
        ]
    }

    /// Display label matching the paper's column headers.
    pub fn label(self) -> &'static str {
        match self {
            ChannelKind::Frontend => "Frontend",
            ChannelKind::L1iFlushReload => "L1I F+R",
            ChannelKind::L1iPrimeProbe => "L1I P+P",
            ChannelKind::MemFlushReload => "MEM F+R",
            ChannelKind::L1dFlushReload => "L1D F+R",
            ChannelKind::L1dLru => "L1D LRU",
        }
    }

    /// Data-cache channels repeat their decode to overcome measurement
    /// noise (as the published attacks do); frontend/L1I decodes are
    /// single-shot.
    pub(crate) fn decode_rounds(self) -> usize {
        match self {
            ChannelKind::Frontend | ChannelKind::L1iFlushReload | ChannelKind::L1iPrimeProbe => 1,
            ChannelKind::MemFlushReload => 3,
            ChannelKind::L1dFlushReload | ChannelKind::L1dLru => 3,
        }
    }

    /// Per-chunk attacker bookkeeping: `(data accesses, driver-loop
    /// iterations)`. Each published attack has a very different footprint
    /// (training harness, synchronisation, result handling); these values
    /// are calibrated so steady-state miss rates land in the regimes of
    /// Table VII.
    pub(crate) fn background_profile(self) -> (usize, u64) {
        match self {
            ChannelKind::Frontend => (0, 40),
            ChannelKind::L1iFlushReload => (0, 3400),
            ChannelKind::L1iPrimeProbe => (0, 2700),
            ChannelKind::MemFlushReload => (3300, 40),
            ChannelKind::L1dFlushReload => (18_500, 40),
            ChannelKind::L1dLru => (19_700, 40),
        }
    }
}

impl std::fmt::Display for ChannelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Number of values a chunk can take = number of DSB sets.
pub const CHUNK_VALUES: usize = 32;

/// Shared attacker state: a core (frontend + L1I) and an L1D hierarchy,
/// plus the code/data layouts every channel uses.
#[derive(Debug, Clone)]
pub struct AttackContext {
    /// The simulated core (frontend paths + L1I).
    pub core: Core,
    /// The data-cache hierarchy.
    pub l1d: CacheHierarchy,
    /// Attacker probe chains: 8 same-set mix blocks per DSB set.
    pub(crate) probe_chains: Vec<BlockChain>,
    /// Victim gadget blocks: one mix block per DSB set, in victim code
    /// space.
    pub(crate) victim_blocks: Vec<BlockChain>,
    /// L1I probe functions: one single-block chain per chunk value, each in
    /// its own L1I set.
    pub(crate) probe_fns: Vec<BlockChain>,
    /// L1I prime chains: 8 code lines per L1I set used by Prime+Probe.
    pub(crate) l1i_prime: Vec<Vec<BlockChain>>,
    /// Victim-shared data array: one 64-byte line per chunk value.
    pub(crate) array_lines: Vec<u64>,
    /// Attacker eviction lines per L1D set (for the no-`clflush` variant).
    pub(crate) evict_lines: Vec<Vec<u64>>,
    /// Attacker working-set lines for background work.
    pub(crate) work_lines: Vec<u64>,
    /// The attacker's main-loop code (background fetches).
    pub(crate) driver_chain: BlockChain,
    pub(crate) rng: StdRng,
}

impl AttackContext {
    /// Builds the shared layouts on a fresh core.
    ///
    /// # Panics
    ///
    /// Panics on a DSB set index ≥ 32 (`DsbSet::new`).
    pub fn new(seed: u64) -> Self {
        let core = Core::new(ProcessorModel::gold_6226(), seed);
        let l1d = CacheHierarchy::new(CacheConfig::l1d());

        // Frontend probe chains (attacker region) and victim gadget blocks.
        let mut attacker_region = CodeRegion::new(0x0100_0000);
        let probe_chains: Vec<BlockChain> = (0..CHUNK_VALUES)
            .map(|s| attacker_region.same_set_chain(DsbSet::new(s as u8), 8, Alignment::Aligned))
            .collect();
        let victim_blocks: Vec<BlockChain> = (0..CHUNK_VALUES)
            .map(|s| {
                same_set_chain(
                    0x0040_0000 + s as u64 * 0x400,
                    DsbSet::new(s as u8),
                    1,
                    Alignment::Aligned,
                )
            })
            .collect();

        // L1I probe functions: one per chunk value, 2048 B apart so each
        // lives in a distinct L1I set (64-byte lines, 64 sets).
        let probe_fns: Vec<BlockChain> = (0..CHUNK_VALUES)
            .map(|s| {
                let base = 0x0200_0000 + s as u64 * 64; // distinct lines/sets
                BlockChain::new(vec![leaky_isa::Block::mix(leaky_isa::Addr::new(base))])
            })
            .collect();

        // L1I prime chains: 8 attacker code lines mapping to each of the 32
        // probe-fn L1I sets (stride 4096 = 64 sets x 64 B).
        let l1i_prime: Vec<Vec<BlockChain>> = (0..CHUNK_VALUES)
            .map(|s| {
                (0..8u64)
                    .map(|w| {
                        let base = 0x0300_0000 + s as u64 * 64 + w * 4096;
                        BlockChain::new(vec![leaky_isa::Block::mix(leaky_isa::Addr::new(base))])
                    })
                    .collect()
            })
            .collect();

        // Victim-shared data array: 32 lines, one per chunk value.
        let array_base: u64 = 0x7f00_0000 / 64;
        let array_lines: Vec<u64> = (0..CHUNK_VALUES as u64).map(|s| array_base + s).collect();

        // Eviction lines: 8 lines per array line's L1D set.
        let cfg = CacheConfig::l1d();
        let evict_lines: Vec<Vec<u64>> = array_lines
            .iter()
            .map(|&line| (1..=8u64).map(|w| line + w * cfg.sets as u64).collect())
            .collect();

        // Background working set: 128 lines (8 KB), fits easily.
        let work_lines: Vec<u64> = (0..128u64).map(|i| 0x0500_0000 / 64 + i).collect();

        let mut driver_region = CodeRegion::new(0x0600_0000);
        let driver_chain = BlockChain::new(vec![driver_region.nop_block(60)]);

        AttackContext {
            core,
            l1d,
            probe_chains,
            victim_blocks,
            probe_fns,
            l1i_prime,
            array_lines,
            evict_lines,
            work_lines,
            driver_chain,
            rng: StdRng::seed_from_u64(seed ^ 0x5bec_7e11),
        }
    }

    /// The attacker's per-chunk background work (bookkeeping, training
    /// harness, synchronisation), sized per channel.
    pub(crate) fn background_work(&mut self, kind: ChannelKind) {
        let (data_accesses, driver_iterations) = kind.background_profile();
        for i in 0..data_accesses {
            let line = self.work_lines[i % self.work_lines.len()];
            self.l1d.access_line(line);
        }
        self.core
            .run_loop(ThreadId::T0, &self.driver_chain, driver_iterations);
    }

    /// Channel-specific preparation before the transient trigger.
    pub(crate) fn prepare(&mut self, kind: ChannelKind) {
        match kind {
            ChannelKind::Frontend => {
                // Prime every DSB set with the attacker's 8 ways.
                for s in 0..CHUNK_VALUES {
                    self.core.run_once(ThreadId::T0, &self.probe_chains[s]);
                }
            }
            ChannelKind::L1iFlushReload => {
                // Ensure present, then flush from L1I.
                for s in 0..CHUNK_VALUES {
                    self.core.run_once(ThreadId::T0, &self.probe_fns[s]);
                }
                for s in 0..CHUNK_VALUES {
                    let line = self.probe_fns[s].blocks()[0].cache_lines()[0];
                    self.core.frontend_mut().l1i_mut().flush_line(line);
                }
            }
            ChannelKind::L1iPrimeProbe => {
                for s in 0..CHUNK_VALUES {
                    for w in 0..8 {
                        self.core.run_once(ThreadId::T0, &self.l1i_prime[s][w]);
                    }
                }
            }
            ChannelKind::MemFlushReload => {
                for &line in &self.array_lines {
                    self.l1d.access_line(line);
                }
                for &line in &self.array_lines {
                    self.l1d.flush_line(line);
                }
            }
            ChannelKind::L1dFlushReload => {
                // Evict each array line from L1D via its eviction set
                // (no clflush available to this attacker).
                for s in 0..CHUNK_VALUES {
                    for &e in &self.evict_lines[s] {
                        self.l1d.access_line(e);
                    }
                }
            }
            ChannelKind::L1dLru => {
                // Prime: bring every array line into cache, each as the
                // oldest (LRU) entry of its set by touching the eviction
                // lines afterwards (7 of them, leaving the set full).
                for s in 0..CHUNK_VALUES {
                    self.l1d.access_line(self.array_lines[s]);
                    for &e in self.evict_lines[s].iter().take(7) {
                        self.l1d.access_line(e);
                    }
                }
            }
        }
    }

    /// The gadget body: runs *transiently* with the secret chunk value.
    /// Only microarchitectural effects persist.
    pub(crate) fn transmit(&mut self, kind: ChannelKind, secret: u8) {
        let s = secret as usize;
        match kind {
            ChannelKind::Frontend => {
                // Transient fetch+decode of a mix block mapping to DSB set
                // `secret`: inserts a victim line, evicting one attacker
                // way. No L1D traffic, no L1I displacement.
                self.core.run_once(ThreadId::T0, &self.victim_blocks[s]);
            }
            ChannelKind::L1iFlushReload | ChannelKind::L1iPrimeProbe => {
                self.core.run_once(ThreadId::T0, &self.probe_fns[s]);
            }
            ChannelKind::MemFlushReload | ChannelKind::L1dFlushReload => {
                self.l1d.access_line(self.array_lines[s]);
            }
            ChannelKind::L1dLru => {
                // A cache *hit* — only LRU metadata changes.
                self.l1d.access_line(self.array_lines[s]);
            }
        }
    }

    /// Recovers the chunk from microarchitectural state.
    pub(crate) fn decode(&mut self, kind: ChannelKind) -> u8 {
        match kind {
            ChannelKind::Frontend => {
                // Probe each set: the set holding the victim line shows a
                // MITE refetch (DSB miss) for the attacker's evicted way.
                let mut hot = 0u8;
                let mut hot_cycles = 0.0;
                for s in 0..CHUNK_VALUES {
                    let run = self.core.run_once(ThreadId::T0, &self.probe_chains[s]);
                    if run.report.mite_uops > 0 && run.cycles > hot_cycles {
                        hot_cycles = run.cycles;
                        hot = s as u8;
                    }
                }
                hot
            }
            ChannelKind::L1iFlushReload => {
                // Reload each probe fn; the resident one fetches without an
                // L1I miss.
                let mut found = 0u8;
                for s in 0..CHUNK_VALUES {
                    let run = self.core.run_once(ThreadId::T0, &self.probe_fns[s]);
                    if run.report.l1i_misses == 0 {
                        found = s as u8;
                    }
                }
                found
            }
            ChannelKind::L1iPrimeProbe => {
                // Probe each primed set: a miss means the victim's fetch
                // displaced one of our lines.
                let mut found = 0u8;
                for s in 0..CHUNK_VALUES {
                    let mut misses = 0u64;
                    for w in 0..8 {
                        let run = self.core.run_once(ThreadId::T0, &self.l1i_prime[s][w]);
                        misses += run.report.l1i_misses;
                    }
                    if misses > 0 {
                        found = s as u8;
                    }
                }
                found
            }
            ChannelKind::MemFlushReload => {
                // Reload in random order until the fast (resident) line is
                // found, as the real attack does to save probes.
                let mut order: Vec<usize> = (0..CHUNK_VALUES).collect();
                order.shuffle(&mut self.rng);
                let mut found = 0u8;
                for &s in &order {
                    let threshold = self.l1d.latency_model().l2_hit + 1;
                    let fast = self.l1d.would_reload_fast(self.array_lines[s], threshold);
                    self.l1d.access_line(self.array_lines[s]);
                    if fast {
                        found = s as u8;
                        break;
                    }
                }
                found
            }
            ChannelKind::L1dFlushReload => {
                let mut found = 0u8;
                for s in 0..CHUNK_VALUES {
                    let (outcome, _) = self.l1d.access_line(self.array_lines[s]);
                    if outcome.hit() {
                        found = s as u8;
                    }
                }
                found
            }
            ChannelKind::L1dLru => {
                // Insert one fresh line per set: the evicted victim line is
                // the LRU one. In the secret's set, the victim line was
                // promoted to MRU, so it survives; everywhere else it is the
                // eviction victim.
                let mut found = 0u8;
                for s in 0..CHUNK_VALUES {
                    let fresh = self.evict_lines[s][7];
                    self.l1d.access_line(fresh);
                    if self.l1d.l1().contains_line(self.array_lines[s]) {
                        found = s as u8;
                    }
                }
                found
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layouts_are_disjoint_and_complete() {
        let ctx = AttackContext::new(1);
        assert_eq!(ctx.probe_chains.len(), 32);
        assert_eq!(ctx.victim_blocks.len(), 32);
        assert_eq!(ctx.probe_fns.len(), 32);
        // Victim gadget block s maps to DSB set s but a different window
        // than any attacker probe block.
        for s in 0..32usize {
            assert_eq!(ctx.victim_blocks[s].blocks()[0].dsb_set().index(), s as u8);
            let vw = ctx.victim_blocks[s].blocks()[0].base().window();
            for chain in &ctx.probe_chains {
                for b in chain.blocks() {
                    assert_ne!(b.base().window(), vw);
                }
            }
        }
        // L1I probe fns occupy 32 distinct L1I sets.
        let sets: std::collections::HashSet<u64> = ctx
            .probe_fns
            .iter()
            .map(|c| c.blocks()[0].base().l1i_set())
            .collect();
        assert_eq!(sets.len(), 32);
    }

    #[test]
    fn eviction_lines_share_sets_with_targets() {
        let ctx = AttackContext::new(2);
        let cfg = CacheConfig::l1d();
        for s in 0..32 {
            let target_set = cfg.set_of_line(ctx.array_lines[s]);
            for &e in &ctx.evict_lines[s] {
                assert_eq!(cfg.set_of_line(e), target_set);
                assert_ne!(e, ctx.array_lines[s]);
            }
        }
    }

    #[test]
    fn channel_labels_match_table7() {
        let labels: Vec<&str> = ChannelKind::all().iter().map(|c| c.label()).collect();
        assert_eq!(
            labels,
            vec!["MEM F+R", "L1D F+R", "L1D LRU", "L1I F+R", "L1I P+P", "Frontend"]
        );
    }
}
