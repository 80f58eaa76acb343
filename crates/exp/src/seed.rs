//! Per-cell seed derivation: splitmix64 over the cell's content key.
//!
//! A sweep cell's random stream must depend only on *what* the cell
//! computes (its content key), never on execution order or worker
//! count — otherwise `--jobs 4` would reshuffle the noise and break
//! bit-identical output. The derivation is: FNV-1a over the key bytes
//! to condense the string, then one [`SplitMix64::split`] to decorrelate
//! keys that differ in few bits (FNV is fast but weakly avalanching).
//!
//! Ambient randomness cannot creep in: the workspace's `rand` exports
//! no thread-local generator and no `random`, so neither compiles.
//!
//! ```compile_fail,E0425
//! let _ = rand::thread_rng();
//! ```
//!
//! ```compile_fail,E0425
//! let _ = rand::random::<u64>();
//! ```

use leaky_uarch::Fnv1a;
use rand::rngs::{SplitMix64, StdRng};
use rand::{RngCore as _, SeedableRng as _};

use crate::grid::JobCell;

/// Derives the deterministic RNG seed of a content key. The FNV-1a
/// accumulator is the shared [`leaky_uarch::Fnv1a`] (also behind
/// profile fingerprints), so the workspace has exactly one set of FNV
/// constants; the pinned-value test below keeps this derivation
/// byte-stable regardless.
pub fn derive_seed(key: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.write_bytes(key.as_bytes());
    SplitMix64::new(h.finish()).split().next_u64()
}

/// Folds a retry attempt into a cell seed: attempt 0 *is* the seed
/// (pinning every committed golden), and each later attempt takes one
/// more [`SplitMix64::split`] hop so a retried cell replays fresh — but
/// scheduling-independent — randomness. A cell that panicked from an
/// unlucky draw would otherwise retry into the identical draw and fail
/// forever.
pub fn attempt_seed(seed: u64, attempt: u32) -> u64 {
    if attempt == 0 {
        return seed;
    }
    // Weyl-increment the seed by the attempt before splitting, so
    // attempts decorrelate even though they share the base seed.
    let shifted = seed.wrapping_add((attempt as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    SplitMix64::new(shifted).split().next_u64()
}

/// The cell's independent random stream: a [`StdRng`] over the derived
/// seed, with the cell's retry attempt folded in (see [`attempt_seed`]).
/// Two cells never share a stream; re-running a cell always replays the
/// same stream.
pub fn cell_rng(cell: &JobCell) -> StdRng {
    StdRng::seed_from_u64(attempt_seed(cell.seed, cell.attempt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::ParamGrid;
    use rand::Rng as _;

    #[test]
    fn derivation_is_pinned() {
        // Literal pinned values: any change to the FNV constants or the
        // post-FNV split silently re-seeds every derived-stream sweep
        // (and the jobs-1-vs-4 diff cannot catch it, since both sides
        // shift together) — so make it loud instead.
        assert_eq!(derive_seed("tab3_all_channels"), 0x8c19_f8b0_621c_bdb0);
        assert_eq!(derive_seed("x/d=1"), 0x370b_4a6e_2840_3e66);
        assert_eq!(derive_seed("x/d=2"), 0xbbc4_45b0_ea0e_d0a5);
    }

    #[test]
    fn attempt_zero_is_the_plain_seed() {
        // Goldens depend on this: adding the retry machinery must not
        // move any first-attempt stream.
        for seed in [0u64, 1, 0x8c19_f8b0_621c_bdb0, u64::MAX] {
            assert_eq!(attempt_seed(seed, 0), seed);
        }
    }

    #[test]
    fn attempt_seeds_are_pinned_and_distinct() {
        // Pinned literals, same reasoning as `derivation_is_pinned`: a
        // silent change to the fold would re-seed every retried cell.
        let base = derive_seed("x/d=1");
        assert_eq!(attempt_seed(base, 1), 0x4b96_7a91_2435_4b02);
        assert_eq!(attempt_seed(base, 2), 0xd6f5_49e9_d592_92ce);
        let mut seen: Vec<u64> = (0..16).map(|a| attempt_seed(base, a)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 16, "attempt seeds collided");
    }

    #[test]
    fn near_identical_keys_decorrelate() {
        // Keys differing by one trailing digit must not produce nearby
        // seeds (the reason for the post-FNV split()).
        let seeds: Vec<u64> = (0..64)
            .map(|i| derive_seed(&format!("exp/cell={i}")))
            .collect();
        for w in seeds.windows(2) {
            assert_ne!(w[0], w[1]);
            // Crude avalanche check: adjacent cells differ in many bits.
            assert!((w[0] ^ w[1]).count_ones() > 8);
        }
    }

    #[test]
    fn cell_rngs_are_independent_streams() {
        let cells = ParamGrid::new("s").axis_ints("i", 0..8).expand();
        let firsts: Vec<f64> = cells
            .iter()
            .map(|c| cell_rng(c).gen_range(0.0..1.0))
            .collect();
        let replay: Vec<f64> = cells
            .iter()
            .map(|c| cell_rng(c).gen_range(0.0..1.0))
            .collect();
        assert_eq!(firsts, replay, "streams must replay exactly");
        let mut sorted = firsts.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        sorted.dedup();
        assert_eq!(sorted.len(), firsts.len(), "streams collided");
    }
}
