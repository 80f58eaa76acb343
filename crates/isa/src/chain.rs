//! Chains of instruction mix blocks linked by their trailing `jmp`s.
//!
//! The paper builds its eviction and misalignment primitives from chains of
//! mix blocks whose start addresses all map to the *same DSB set* but to
//! different windows/tags, 1024 bytes apart (Fig. 3). The final block's `jmp`
//! returns to the first block, so executing the first `mov` walks the whole
//! chain, and the chain as a whole forms a loop that may or may not qualify
//! for the LSD.

use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::addr::{Addr, DsbSet};
use crate::block::Block;
use crate::geom::FrontendGeometry;

/// Whether chain blocks are placed on 32-byte window boundaries or offset by
/// half a window (16 bytes), the paper's misalignment trick (§IV-G).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Alignment {
    /// Blocks start exactly on window boundaries.
    Aligned,
    /// Blocks start 16 bytes into a window, so each block straddles two
    /// windows and occupies two DSB lines.
    Misaligned,
}

impl fmt::Display for Alignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Alignment::Aligned => f.write_str("aligned"),
            Alignment::Misaligned => f.write_str("misaligned"),
        }
    }
}

/// An ordered chain of blocks executed per loop iteration.
///
/// # Examples
///
/// ```
/// use leaky_isa::{same_set_chain, Alignment, DsbSet};
///
/// let chain = same_set_chain(0x0041_8000, DsbSet::new(0), 9, Alignment::Aligned);
/// // 9 blocks of 5 µops: more ways than the 8-way DSB set -> evictions.
/// assert_eq!(chain.total_uops(), 45);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockChain {
    blocks: Vec<Block>,
    /// Loop-identity key over the blocks' content keys, maintained on
    /// every structural change so hot loops never re-hash the chain.
    key: u64,
    /// Cached µop total (same maintenance discipline as `key`).
    total_uops: u32,
}

impl BlockChain {
    /// Builds a chain from blocks. The blocks are executed in order; the
    /// last block is assumed to jump back to the first.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is empty.
    pub fn new(blocks: Vec<Block>) -> Self {
        assert!(!blocks.is_empty(), "a chain needs at least one block");
        let mut chain = BlockChain {
            blocks,
            key: 0,
            total_uops: 0,
        };
        chain.refresh_cached();
        chain
    }

    /// Recomputes the cached key and µop total after a structural change.
    fn refresh_cached(&mut self) {
        let mut h = DefaultHasher::new();
        self.blocks.len().hash(&mut h);
        for b in &self.blocks {
            b.key().hash(&mut h);
        }
        self.key = h.finish();
        self.total_uops = self.blocks.iter().map(Block::uop_count).sum();
    }

    /// The chain's loop-identity key: a content hash over every block's
    /// placement and instruction stream, precomputed at construction.
    /// The frontend uses it to recognise "the same loop again" in O(1)
    /// per iteration (LSD streak tracking, lock identity, memoized
    /// delivery plans).
    #[inline]
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The blocks in execution order.
    #[inline]
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the chain has no blocks (never true for constructed chains).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Total µops per loop iteration (cached at construction).
    #[inline]
    pub fn total_uops(&self) -> u32 {
        self.total_uops
    }

    /// Total instructions per loop iteration.
    pub fn total_instructions(&self) -> usize {
        self.blocks.iter().map(Block::instr_count).sum()
    }

    /// Number of distinct 32-byte windows touched per iteration. This is the
    /// quantity the LSD tracking rule is phrased in (DESIGN.md): a loop
    /// qualifies only if its window count fits the LSD's capacity.
    pub fn window_count(&self) -> usize {
        self.blocks.iter().map(|b| b.windows().len()).sum()
    }

    /// Number of DSB lines needed per iteration.
    pub fn dsb_lines(&self, geom: &FrontendGeometry) -> usize {
        self.blocks.iter().map(|b| b.dsb_lines(geom)).sum()
    }

    /// Number of misaligned (window-crossing) blocks.
    pub fn misaligned_count(&self) -> usize {
        self.blocks.iter().filter(|b| !b.is_aligned()).count()
    }

    /// Concatenates two chains (used to combine aligned and misaligned
    /// sub-chains in the §IV-G experiments).
    pub fn concat(mut self, mut other: BlockChain) -> BlockChain {
        self.blocks.append(&mut other.blocks);
        self.refresh_cached();
        self
    }

    /// Splits off the first `n` blocks into a new chain, leaving the rest.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `n >= self.len()` (both sides must remain
    /// non-empty).
    pub fn split_at(mut self, n: usize) -> (BlockChain, BlockChain) {
        assert!(
            n > 0 && n < self.blocks.len(),
            "split must leave both sides non-empty"
        );
        let tail = self.blocks.split_off(n);
        self.refresh_cached();
        (self, BlockChain::new(tail))
    }
}

impl FromIterator<Block> for BlockChain {
    fn from_iter<I: IntoIterator<Item = Block>>(iter: I) -> Self {
        BlockChain::new(iter.into_iter().collect())
    }
}

impl Extend<Block> for BlockChain {
    fn extend<I: IntoIterator<Item = Block>>(&mut self, iter: I) {
        self.blocks.extend(iter);
        self.refresh_cached();
    }
}

impl<'a> IntoIterator for &'a BlockChain {
    type Item = &'a Block;
    type IntoIter = std::slice::Iter<'a, Block>;

    fn into_iter(self) -> Self::IntoIter {
        self.blocks.iter()
    }
}

/// Builds the paper's canonical same-set chain: `count` instruction mix
/// blocks whose start addresses all map to `set`, spaced 1024 bytes apart so
/// they occupy distinct DSB windows (tags) and stride across L1I sets
/// (Fig. 3).
///
/// With [`Alignment::Misaligned`], every block is additionally offset by 16
/// bytes; its *first* window still maps to `set` but the block straddles two
/// windows (§IV-G).
///
/// # Examples
///
/// ```
/// use leaky_isa::{same_set_chain, Alignment, DsbSet};
///
/// let c = same_set_chain(0x0041_8000, DsbSet::new(4), 8, Alignment::Misaligned);
/// assert_eq!(c.misaligned_count(), 8);
/// assert_eq!(c.window_count(), 16);
/// ```
///
/// # Panics
///
/// Panics if the block count is zero or the set indexes beyond the
/// geometry's DSB sets (`same_set_chain_with`).
pub fn same_set_chain(
    region_base: u64,
    set: DsbSet,
    count: usize,
    alignment: Alignment,
) -> BlockChain {
    same_set_chain_with(
        region_base,
        set,
        count,
        alignment,
        &FrontendGeometry::skylake(),
    )
}

/// [`same_set_chain`] under an explicit geometry: block stride is one
/// full pass over `geom`'s DSB sets and misalignment is half a window,
/// so the layout stays a same-set chain on any profile whose window/set
/// parameters differ from Table I.
///
/// # Panics
///
/// Panics if `count` is zero or `set` indexes beyond `geom.dsb_sets`.
pub fn same_set_chain_with(
    region_base: u64,
    set: DsbSet,
    count: usize,
    alignment: Alignment,
    geom: &FrontendGeometry,
) -> BlockChain {
    assert!(count > 0, "chain needs at least one block");
    assert!(
        (set.index() as usize) < geom.dsb_sets,
        "set {set} out of range for a {}-set DSB",
        geom.dsb_sets
    );
    let start = Addr::new(region_base).align_up_to_set(set, geom);
    let stride = (geom.dsb_window_bytes * geom.dsb_sets) as u64; // 1024 B on Table I
    let mis = match alignment {
        Alignment::Aligned => 0,
        Alignment::Misaligned => geom.dsb_window_bytes as u64 / 2, // 16 B on Table I
    };
    (0..count as u64)
        .map(|i| Block::mix(start.offset(i * stride + mis)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: u64 = 0x0041_8000;

    #[test]
    fn aligned_chain_all_same_set() {
        for set in [0u8, 13, 31] {
            let c = same_set_chain(BASE, DsbSet::new(set), 9, Alignment::Aligned);
            assert_eq!(c.len(), 9);
            for b in c.blocks() {
                assert_eq!(b.dsb_set().index(), set);
                assert!(b.is_aligned());
            }
            // Distinct windows (tags) for every block.
            let mut windows: Vec<u64> = c.blocks().iter().map(|b| b.base().window()).collect();
            windows.dedup();
            assert_eq!(windows.len(), 9);
        }
    }

    #[test]
    fn misaligned_chain_keeps_head_set() {
        let c = same_set_chain(BASE, DsbSet::new(7), 4, Alignment::Misaligned);
        for b in c.blocks() {
            assert_eq!(b.dsb_set().index(), 7);
            assert!(!b.is_aligned());
            assert_eq!(b.base().dsb_offset(), 16);
            assert_eq!(b.windows().len(), 2);
        }
    }

    #[test]
    fn paper_lsd_arithmetic_8_blocks_fit() {
        // Fig. 3: 8 x 5 = 40 µops < 64 LSD limit, 8 ways fit the set.
        let g = FrontendGeometry::skylake();
        let c = same_set_chain(BASE, DsbSet::new(0), 8, Alignment::Aligned);
        assert!(c.total_uops() as usize <= g.lsd_uops);
        assert_eq!(c.window_count(), 8);
        assert_eq!(c.dsb_lines(&g), 8);
    }

    #[test]
    fn nine_blocks_exceed_set_ways() {
        let g = FrontendGeometry::skylake();
        let c = same_set_chain(BASE, DsbSet::new(0), 9, Alignment::Aligned);
        assert!(c.dsb_lines(&g) > g.dsb_ways);
    }

    #[test]
    fn chain_l1i_footprint_stays_within_associativity() {
        // §IV-F: 9 same-DSB-set blocks cause no L1I conflicts.
        let c = same_set_chain(BASE, DsbSet::new(0), 9, Alignment::Aligned);
        let mut per_set = std::collections::BTreeMap::new();
        for b in c.blocks() {
            for line in b.cache_lines() {
                *per_set.entry(line & 0x3f).or_insert(0usize) += 1;
            }
        }
        for (&set, &n) in &per_set {
            assert!(n <= 8, "L1I set {set} holds {n} lines > 8 ways");
        }
    }

    #[test]
    fn concat_and_split() {
        let a = same_set_chain(BASE, DsbSet::new(0), 5, Alignment::Aligned);
        let b = same_set_chain(BASE + 64 * 1024, DsbSet::new(0), 3, Alignment::Misaligned);
        let joined = a.concat(b);
        assert_eq!(joined.len(), 8);
        assert_eq!(joined.misaligned_count(), 3);
        // §IV-G: {5 aligned + 3 misaligned} = 5 + 6 = 11 windows.
        assert_eq!(joined.window_count(), 11);
        let (head, tail) = joined.split_at(5);
        assert_eq!(head.len(), 5);
        assert_eq!(tail.len(), 3);
        assert_eq!(tail.misaligned_count(), 3);
    }

    #[test]
    fn chains_in_different_regions_do_not_overlap() {
        let a = same_set_chain(0x0041_8000, DsbSet::new(0), 9, Alignment::Aligned);
        let b = same_set_chain(0x0082_0000, DsbSet::new(0), 9, Alignment::Aligned);
        let a_end = a.blocks().last().unwrap().end();
        assert!(a_end.value() < 0x0082_0000);
        assert_eq!(b.blocks()[0].dsb_set(), a.blocks()[0].dsb_set());
        assert_ne!(b.blocks()[0].base().window(), a.blocks()[0].base().window());
    }

    #[test]
    fn chain_keys_track_structural_changes() {
        let a = same_set_chain(BASE, DsbSet::new(0), 5, Alignment::Aligned);
        let same = same_set_chain(BASE, DsbSet::new(0), 5, Alignment::Aligned);
        assert_eq!(a.key(), same.key());
        // Different length, alignment, or placement: different key.
        assert_ne!(
            a.key(),
            same_set_chain(BASE, DsbSet::new(0), 6, Alignment::Aligned).key()
        );
        assert_ne!(
            a.key(),
            same_set_chain(BASE, DsbSet::new(0), 5, Alignment::Misaligned).key()
        );
        // concat / split_at / extend keep key and µop totals current.
        let b = same_set_chain(BASE + 0x10_0000, DsbSet::new(0), 3, Alignment::Aligned);
        let joined = a.clone().concat(b.clone());
        assert_ne!(joined.key(), a.key());
        assert_eq!(joined.total_uops(), a.total_uops() + b.total_uops());
        let (head, tail) = joined.clone().split_at(5);
        assert_eq!(head.key(), a.key());
        assert_eq!(tail.key(), b.key());
        let mut grown = a.clone();
        grown.extend(b.blocks().to_vec());
        assert_eq!(grown.key(), joined.key());
        assert_eq!(grown.total_uops(), joined.total_uops());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn split_rejects_degenerate() {
        let c = same_set_chain(BASE, DsbSet::new(0), 3, Alignment::Aligned);
        let _ = c.split_at(3);
    }
}
