//! Non-overlapping code region allocation for multi-party experiments.
//!
//! Sender, receiver and victim code must live at disjoint virtual addresses
//! (they are different programs), yet the attacks require them to collide in
//! chosen DSB sets. [`CodeRegion`] hands out chains and blocks from a
//! private address range, tracking a bump pointer so nothing overlaps.

use crate::addr::{Addr, DsbSet};
use crate::block::Block;
use crate::chain::{same_set_chain_with, Alignment, BlockChain};
use crate::geom::FrontendGeometry;

/// A bump allocator over a private virtual-address range for placing attack
/// code.
///
/// # Examples
///
/// ```
/// use leaky_isa::{Alignment, CodeRegion, DsbSet};
///
/// let mut region = CodeRegion::new(0x0041_8000);
/// let recv = region.same_set_chain(DsbSet::new(3), 6, Alignment::Aligned);
/// let send = region.same_set_chain(DsbSet::new(3), 3, Alignment::Aligned);
/// // Same DSB set, disjoint addresses.
/// assert!(send.blocks()[0].base() > recv.blocks().last().unwrap().end());
/// ```
#[derive(Debug, Clone)]
pub struct CodeRegion {
    cursor: u64,
    geom: FrontendGeometry,
}

impl CodeRegion {
    /// Creates a region starting at `base`.
    pub fn new(base: u64) -> Self {
        CodeRegion {
            cursor: base,
            geom: FrontendGeometry::skylake(),
        }
    }

    /// Creates a region with explicit geometry (for ablations).
    pub fn with_geometry(base: u64, geom: FrontendGeometry) -> Self {
        CodeRegion { cursor: base, geom }
    }

    /// The next free address.
    pub fn cursor(&self) -> Addr {
        Addr::new(self.cursor)
    }

    /// Allocates a chain of `count` mix blocks all mapping to `set`
    /// (paper Fig. 3 layout) under the region's geometry, advancing the
    /// region cursor past it.
    ///
    /// # Panics
    ///
    /// Panics if the block count is zero or the set indexes beyond the
    /// geometry's DSB sets (`same_set_chain_with`).
    pub fn same_set_chain(
        &mut self,
        set: DsbSet,
        count: usize,
        alignment: Alignment,
    ) -> BlockChain {
        let chain = same_set_chain_with(self.cursor, set, count, alignment, &self.geom);
        let end = chain
            .blocks()
            .iter()
            .map(|b| b.end().value())
            .max()
            .expect("chain is non-empty");
        // Round up to the next full set period so a following chain cannot
        // share any window with this one.
        let period = (self.geom.dsb_window_bytes * self.geom.dsb_sets) as u64;
        self.cursor = end.div_ceil(period) * period;
        chain
    }

    /// Allocates a nop block of `n` nops (§XI receiver), window aligned.
    ///
    /// # Panics
    ///
    /// Panics if the requested nop count is zero (`Block::nops`).
    pub fn nop_block(&mut self, n: usize) -> Block {
        let base = self.aligned_cursor();
        let block = Block::nops(base, n);
        self.cursor = block.end().value();
        block
    }

    /// Allocates an LCP `add` loop body (§IV-H), window aligned.
    ///
    /// # Panics
    ///
    /// Panics if the repeat count is zero (`Block::lcp_adds`).
    pub fn lcp_block(&mut self, pattern: crate::instr::LcpPattern, r: usize) -> Block {
        let base = self.aligned_cursor();
        let block = Block::lcp_adds(base, pattern, r);
        self.cursor = block.end().value();
        block
    }

    /// Allocates a single mix block mapping to `set`.
    ///
    /// # Panics
    ///
    /// Panics if the block count is zero or the set indexes beyond the
    /// geometry's DSB sets (`same_set_chain_with`).
    pub fn mix_block(&mut self, set: DsbSet, alignment: Alignment) -> Block {
        let chain = self.same_set_chain(set, 1, alignment);
        chain.blocks()[0].clone()
    }

    fn aligned_cursor(&mut self) -> Addr {
        let w = self.geom.dsb_window_bytes as u64;
        self.cursor = self.cursor.div_ceil(w) * w;
        Addr::new(self.cursor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::LcpPattern;

    #[test]
    fn sequential_chains_never_overlap() {
        let mut r = CodeRegion::new(0x0041_8000);
        let mut prev_end = 0u64;
        for set in [0u8, 0, 5, 5, 31] {
            let c = r.same_set_chain(DsbSet::new(set), 9, Alignment::Aligned);
            let start = c.blocks()[0].base().value();
            let end = c.blocks().iter().map(|b| b.end().value()).max().unwrap();
            assert!(start >= prev_end, "chain overlaps previous allocation");
            prev_end = end;
        }
    }

    #[test]
    fn chains_to_same_set_use_distinct_windows() {
        let mut r = CodeRegion::new(0x0041_8000);
        let a = r.same_set_chain(DsbSet::new(9), 8, Alignment::Aligned);
        let b = r.same_set_chain(DsbSet::new(9), 8, Alignment::Aligned);
        let wa: std::collections::BTreeSet<u64> =
            a.blocks().iter().map(|x| x.base().window()).collect();
        let wb: std::collections::BTreeSet<u64> =
            b.blocks().iter().map(|x| x.base().window()).collect();
        assert!(wa.is_disjoint(&wb));
    }

    #[test]
    fn nop_and_lcp_blocks_are_window_aligned() {
        let mut r = CodeRegion::new(0x0082_0013); // deliberately unaligned base
        let n = r.nop_block(100);
        assert!(n.base().is_window_aligned());
        let l = r.lcp_block(LcpPattern::Mixed, 16);
        assert!(l.base().is_window_aligned());
        assert!(l.base() >= n.end());
    }

    #[test]
    fn mix_block_lands_on_requested_set() {
        let mut r = CodeRegion::new(0x0100_0000);
        for set in 0..32u8 {
            let b = r.mix_block(DsbSet::new(set), Alignment::Aligned);
            assert_eq!(b.dsb_set().index(), set);
        }
    }
}
