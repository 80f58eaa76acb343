//! Memoized per-chain delivery plans.
//!
//! A [`DeliveryPlan`] is everything `Frontend::run_iteration` needs to
//! know about a [`BlockChain`] that does **not** depend on mutable
//! frontend state: the flat list of DSB lines each block occupies (in
//! delivery order), per-instruction decode footprints for LCP blocks,
//! L1I cache-line footprints, window-crossing head windows, the LSD
//! qualification verdicts, and the sorted lock-membership array. Plans
//! are built once per `(chain, frontend)` pair and cached MRU-first in a
//! small [`PlanCache`], so the per-iteration hot path walks precomputed
//! flat slices instead of re-deriving windows, chunks and hashes — and
//! performs zero heap allocations.

use std::rc::Rc;

use leaky_isa::{BlockChain, FrontendGeometry};

use crate::lsd::lsd_qualifies;

/// One DSB line in delivery order (thread id is bound at execution time).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PlanLine {
    /// Window number (`addr >> 5`).
    pub window: u64,
    /// Chunk index within the window.
    pub chunk: u8,
    /// µops delivered from this line.
    pub uops: u32,
}

/// One instruction of an LCP-bearing block (instruction-granular path).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PlanInstr {
    /// Window of the instruction's start address.
    pub window: u64,
    /// µop count.
    pub uops: u32,
    /// Whether the instruction carries a length-changing prefix.
    pub has_lcp: bool,
}

/// Per-block slice boundaries into the plan's flat arrays.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PlanBlock {
    /// `lines[lines_start..lines_end]` backs this block.
    pub lines_start: u32,
    /// Exclusive end of the block's line range.
    pub lines_end: u32,
    /// `cache_lines[cache_start..cache_end]` is the L1I footprint.
    pub cache_start: u32,
    /// Exclusive end of the block's cache-line range.
    pub cache_end: u32,
    /// `instrs[instr_start..instr_end]` (empty unless `has_lcp`).
    pub instr_start: u32,
    /// Exclusive end of the block's instruction range.
    pub instr_end: u32,
    /// Window of the block's base address (crossing bookkeeping).
    pub head_window: u64,
    /// Whether the block straddles two windows (misaligned).
    pub crossing: bool,
    /// Whether the block contains LCP-prefixed instructions.
    pub has_lcp: bool,
}

/// The immutable, precomputed delivery recipe for one chain under one
/// frontend geometry.
#[derive(Debug)]
pub(crate) struct DeliveryPlan {
    /// The chain's identity key ([`BlockChain::key`]).
    pub key: u64,
    /// The profile key of the configuration this plan was built under
    /// ([`crate::FrontendConfig::profile_key`]). Cache lookups match on
    /// `(key, config_key)`, so reconfiguring a frontend's geometry or
    /// cost model can never resurrect a stale plan.
    pub config_key: u64,
    /// Total µops per iteration.
    pub total_uops: u32,
    /// Per-block ranges and flags, in execution order.
    pub blocks: Vec<PlanBlock>,
    /// All DSB lines, flat, in delivery order.
    pub lines: Vec<PlanLine>,
    /// All L1I cache lines, flat, in fetch order.
    pub cache_lines: Vec<u64>,
    /// Instruction footprints of LCP-bearing blocks, flat.
    pub instrs: Vec<PlanInstr>,
    /// Head windows of misaligned blocks, in execution order (the
    /// streaming path's sibling-crossing walk, §IV-G).
    pub crossing_head_windows: Vec<u64>,
    /// Sorted, deduplicated `(window << 8) | chunk` members for LSD lock
    /// bookkeeping (binary-searched on every eviction).
    pub lock_lines: Vec<u64>,
    /// Bitmask of DSB sets the chain's windows map to (one bit per set;
    /// wide enough for ablation geometries of up to 64 sets).
    pub set_mask: u64,
    /// Whether any block carries an LCP (such chains never lock the LSD).
    pub has_lcp: bool,
    /// LSD qualification verdict, indexed by `[solo, smt]`.
    pub lsd_fits: [bool; 2],
}

/// Packs a lock-membership entry the way [`DeliveryPlan::lock_lines`]
/// stores it.
pub(crate) fn pack_lock_member(window: u64, chunk: u8) -> u64 {
    (window << 8) | chunk as u64
}

impl DeliveryPlan {
    /// Precomputes the delivery recipe for `chain` under `geom`,
    /// stamping it with the owning configuration's `config_key`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry's µops-per-line is zero
    /// (`Block::line_slots_for`).
    pub fn build(chain: &BlockChain, geom: &FrontendGeometry, config_key: u64) -> DeliveryPlan {
        let line_uops = geom.dsb_line_uops as u32;
        let sets = geom.dsb_sets as u64;
        let mut plan = DeliveryPlan {
            key: chain.key(),
            config_key,
            total_uops: chain.total_uops(),
            blocks: Vec::with_capacity(chain.len()),
            lines: Vec::new(),
            cache_lines: Vec::new(),
            instrs: Vec::new(),
            crossing_head_windows: Vec::new(),
            lock_lines: Vec::new(),
            set_mask: 0,
            has_lcp: false,
            lsd_fits: [
                lsd_qualifies(chain, geom, false).qualifies(),
                lsd_qualifies(chain, geom, true).qualifies(),
            ],
        };
        for block in chain.blocks() {
            let lines_start = plan.lines.len() as u32;
            // `line_slots_for` reuses the block's precomputed slots only
            // when the active geometry matches the capacity they were
            // derived for (the block records it), so a perturbed geometry
            // can never pick up cached Skylake splits.
            plan.lines
                .extend(block.line_slots_for(line_uops).iter().map(|s| PlanLine {
                    window: s.window,
                    chunk: s.chunk,
                    uops: s.uops,
                }));
            let cache_start = plan.cache_lines.len() as u32;
            plan.cache_lines.extend_from_slice(block.cache_lines());
            let instr_start = plan.instrs.len() as u32;
            let has_lcp = block.lcp_count() > 0;
            if has_lcp {
                plan.has_lcp = true;
                plan.instrs
                    .extend(block.placed_instructions().map(|(addr, instr)| PlanInstr {
                        window: addr.window(),
                        uops: instr.uops() as u32,
                        has_lcp: instr.has_lcp(),
                    }));
            }
            let head_window = block.base().window();
            let crossing = !block.is_aligned();
            if crossing {
                plan.crossing_head_windows.push(head_window);
            }
            for line in &plan.lines[lines_start as usize..] {
                plan.set_mask |= 1u64 << (line.window % sets);
            }
            plan.blocks.push(PlanBlock {
                lines_start,
                lines_end: plan.lines.len() as u32,
                cache_start,
                cache_end: plan.cache_lines.len() as u32,
                instr_start,
                instr_end: plan.instrs.len() as u32,
                head_window,
                crossing,
                has_lcp,
            });
        }
        plan.lock_lines = plan
            .lines
            .iter()
            .map(|l| pack_lock_member(l.window, l.chunk))
            .collect();
        plan.lock_lines.sort_unstable();
        plan.lock_lines.dedup();
        plan
    }
}

/// Small MRU cache of delivery plans, keyed by *(chain identity,
/// configuration profile key)*.
///
/// Capacity covers every chain a covert channel juggles at once
/// (receiver, sender 1/0 encodings, decoys) with ample slack. It does not
/// cover the Table VII L1I Prime+Probe attack, which cycles through 289
/// chains (256 prime lines, 32 probe functions, the driver loop) in a
/// fixed order and so misses on every run; each miss rebuilds the plan,
/// and the core's backend memo misses with it. The profile-key half
/// of the cache key is what makes [`crate::Frontend::reconfigure`] safe:
/// plans built under the old geometry or cost model simply stop
/// matching, so a reconfigured frontend rebuilds rather than reusing
/// stale splits. Hits cost one equality probe on the MRU slot.
#[derive(Debug, Clone, Default)]
pub(crate) struct PlanCache {
    plans: Vec<Rc<DeliveryPlan>>,
}

/// Upper bound on retained plans per frontend.
const PLAN_CACHE_CAPACITY: usize = 32;

impl PlanCache {
    /// Returns the plan for `chain` under the configuration identified by
    /// `config_key`, building and caching it on first use.
    ///
    /// # Panics
    ///
    /// Panics if the geometry's µops-per-line is zero
    /// (`Block::line_slots_for`).
    pub fn get_or_build(
        &mut self,
        chain: &BlockChain,
        geom: &FrontendGeometry,
        config_key: u64,
    ) -> Rc<DeliveryPlan> {
        let key = chain.key();
        if let Some(front) = self.plans.first() {
            if front.key == key && front.config_key == config_key {
                return Rc::clone(front);
            }
        }
        if let Some(pos) = self
            .plans
            .iter()
            .position(|p| p.key == key && p.config_key == config_key)
        {
            self.plans[..=pos].rotate_right(1);
            return Rc::clone(&self.plans[0]);
        }
        let plan = Rc::new(DeliveryPlan::build(chain, geom, config_key));
        self.plans.insert(0, Rc::clone(&plan));
        self.plans.truncate(PLAN_CACHE_CAPACITY);
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leaky_isa::{same_set_chain, Alignment, DsbSet};

    const BASE: u64 = 0x0041_8000;

    #[test]
    fn plan_matches_chain_shape() {
        let geom = FrontendGeometry::skylake();
        let chain = same_set_chain(BASE, DsbSet::new(0), 8, Alignment::Aligned);
        let plan = DeliveryPlan::build(&chain, &geom, 7);
        assert_eq!(plan.key, chain.key());
        assert_eq!(plan.config_key, 7);
        assert_eq!(plan.total_uops, 40);
        assert_eq!(plan.blocks.len(), 8);
        assert_eq!(plan.lines.len(), chain.dsb_lines(&geom));
        assert_eq!(plan.lock_lines.len(), 8);
        assert!(plan.lock_lines.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(plan.set_mask, 1 << 0);
        assert!(!plan.has_lcp);
        assert!(plan.crossing_head_windows.is_empty());
        assert_eq!(plan.lsd_fits, [true, false]); // 40 µops > 32 under SMT
    }

    #[test]
    fn misaligned_plan_tracks_crossings() {
        let geom = FrontendGeometry::skylake();
        let chain = same_set_chain(BASE, DsbSet::new(3), 4, Alignment::Misaligned);
        let plan = DeliveryPlan::build(&chain, &geom, 0);
        assert_eq!(plan.crossing_head_windows.len(), 4);
        assert!(plan.blocks.iter().all(|b| b.crossing));
        // Two windows per block: head set 3 and the spill into set 4.
        assert_eq!(plan.lines.len(), 8);
        assert_eq!(plan.set_mask, (1 << 3) | (1 << 4));
        assert_eq!(plan.lsd_fits, [false, false]); // §IV-G collision
    }

    #[test]
    fn lcp_plan_carries_instruction_footprints() {
        use leaky_isa::{Addr, Block, LcpPattern};
        let geom = FrontendGeometry::skylake();
        let chain = BlockChain::new(vec![Block::lcp_adds(
            Addr::new(0x10_0000),
            LcpPattern::Mixed,
            16,
        )]);
        let plan = DeliveryPlan::build(&chain, &geom, 0);
        assert!(plan.has_lcp);
        assert_eq!(plan.instrs.len(), 33);
        assert_eq!(plan.instrs.iter().filter(|i| i.has_lcp).count(), 16);
        let blk = plan.blocks[0];
        assert_eq!((blk.instr_start, blk.instr_end), (0, 33));
    }

    #[test]
    fn cache_is_mru_and_bounded() {
        let geom = FrontendGeometry::skylake();
        let mut cache = PlanCache::default();
        let chains: Vec<BlockChain> = (0..40)
            .map(|i| {
                same_set_chain(
                    BASE + (i as u64) * 0x10_0000,
                    DsbSet::new(0),
                    2,
                    Alignment::Aligned,
                )
            })
            .collect();
        for c in &chains {
            let p = cache.get_or_build(c, &geom, 1);
            assert_eq!(p.key, c.key());
        }
        assert!(cache.plans.len() <= PLAN_CACHE_CAPACITY);
        // Re-fetch returns the identical (shared) plan, promoted to MRU.
        let again = cache.get_or_build(chains.last().unwrap(), &geom, 1);
        assert_eq!(Rc::strong_count(&again), 2); // the cache slot + `again`
        assert_eq!(cache.plans[0].key, chains.last().unwrap().key());
        // Evicted early entries rebuild rather than error.
        let rebuilt = cache.get_or_build(&chains[0], &geom, 1);
        assert_eq!(rebuilt.key, chains[0].key());
    }

    #[test]
    fn cache_never_crosses_profile_keys() {
        // The satellite bugfix: the same chain under two configurations
        // (e.g. before/after a geometry reconfigure) must get two distinct
        // plans, and re-fetching under either key must return that key's
        // plan — never the other's.
        let sky = FrontendGeometry::skylake();
        let wide = FrontendGeometry {
            dsb_line_uops: 8,
            ..sky
        };
        // A 31-nop block: one 32-µop window → 6 chunks at 6 µops/line
        // but only 4 chunks at 8 µops/line.
        let chain = BlockChain::new(vec![leaky_isa::Block::nops(
            leaky_isa::Addr::new(0x3000),
            31,
        )]);
        let mut cache = PlanCache::default();
        let a = cache.get_or_build(&chain, &sky, 10);
        let b = cache.get_or_build(&chain, &wide, 20);
        assert_eq!(a.key, b.key, "same chain");
        assert_ne!(a.lines.len(), b.lines.len(), "splits must differ");
        let a2 = cache.get_or_build(&chain, &sky, 10);
        assert_eq!(a2.lines.len(), a.lines.len());
        assert_eq!(a2.config_key, 10);
        let b2 = cache.get_or_build(&chain, &wide, 20);
        assert_eq!(b2.lines.len(), b.lines.len());
        assert_eq!(b2.config_key, 20);
    }
}
