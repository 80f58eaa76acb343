//! A small two-level latency model over the L1 caches.
//!
//! The Spectre baselines (Table VII) need access *timing*, not just hit/miss
//! booleans: Flush+Reload decides secrets by comparing reload latency against
//! the L1/L2/memory thresholds. [`CacheHierarchy`] wraps an L1 cache with a
//! latency model so probes observe realistic cycle counts.

use crate::lru::{AccessOutcome, CacheConfig, SetAssocCache};

/// Access latencies in cycles for each level that can service a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// L1 hit latency (Skylake: ~4 cycles).
    pub l1_hit: u64,
    /// L2 hit latency, charged on L1 miss that stays on-chip (~12 cycles).
    pub l2_hit: u64,
    /// DRAM latency, charged when the line was flushed to memory
    /// (~200 cycles).
    pub memory: u64,
}

impl LatencyModel {
    /// Skylake-like default latencies.
    pub const fn skylake() -> Self {
        LatencyModel {
            l1_hit: 4,
            l2_hit: 12,
            memory: 200,
        }
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self::skylake()
    }
}

/// An L1 cache plus a model of where misses are serviced.
///
/// Lines explicitly flushed with [`CacheHierarchy::flush_line`] are evicted
/// all the way to memory (as `clflush` does); lines merely displaced by
/// capacity stay in the (unmodeled) L2 and refill at `l2_hit` latency.
///
/// # Examples
///
/// ```
/// use leaky_cache::{CacheConfig, CacheHierarchy};
///
/// let mut h = CacheHierarchy::new(CacheConfig::l1d());
/// h.access_line(7);                    // cold: L2 fill
/// assert_eq!(h.access_line(7).1, 4);   // L1 hit
/// h.flush_line(7);                     // clflush: to memory
/// assert_eq!(h.access_line(7).1, 200); // memory reload
/// ```
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: SetAssocCache,
    latency: LatencyModel,
    /// Lines known to have been flushed to memory (not merely L1-evicted).
    #[expect(
        clippy::disallowed_types,
        reason = "membership only, never iterated; on the Spectre hot path"
    )]
    flushed: std::collections::HashSet<u64>,
}

impl CacheHierarchy {
    /// Creates a hierarchy with default Skylake latencies.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate cache geometry (`SetAssocCache::new`).
    pub fn new(config: CacheConfig) -> Self {
        Self::with_latency(config, LatencyModel::skylake())
    }

    /// Creates a hierarchy with an explicit latency model.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate cache geometry (`SetAssocCache::new`).
    #[expect(
        clippy::disallowed_types,
        reason = "the `flushed` set is membership only, never iterated"
    )]
    pub fn with_latency(config: CacheConfig, latency: LatencyModel) -> Self {
        CacheHierarchy {
            l1: SetAssocCache::new(config),
            latency,
            flushed: std::collections::HashSet::new(),
        }
    }

    /// The underlying L1 cache.
    pub fn l1(&self) -> &SetAssocCache {
        &self.l1
    }

    /// Mutable access to the underlying L1 cache (for priming helpers).
    pub fn l1_mut(&mut self) -> &mut SetAssocCache {
        &mut self.l1
    }

    /// The latency model in use.
    pub fn latency_model(&self) -> LatencyModel {
        self.latency
    }

    /// Accesses a line, returning the outcome and the cycles it took.
    pub fn access_line(&mut self, line: u64) -> (AccessOutcome, u64) {
        let outcome = self.l1.access_line(line);
        let cycles = match outcome {
            AccessOutcome::Hit => self.latency.l1_hit,
            AccessOutcome::Miss { .. } => {
                if self.flushed.remove(&line) {
                    self.latency.memory
                } else {
                    self.latency.l2_hit
                }
            }
        };
        (outcome, cycles)
    }

    /// Accesses a byte address.
    pub fn access_addr(&mut self, addr: u64) -> (AccessOutcome, u64) {
        self.access_line(self.l1.config().line_of(addr))
    }

    /// `clflush`: evicts the line from the whole hierarchy, so the next
    /// access pays full memory latency.
    pub fn flush_line(&mut self, line: u64) {
        self.l1.flush_line(line);
        self.flushed.insert(line);
    }

    /// Flushes a byte address' line.
    pub fn flush_addr(&mut self, addr: u64) {
        self.flush_line(self.l1.config().line_of(addr));
    }

    /// Whether a reload of `line` would be "fast" (below the Flush+Reload
    /// threshold), without disturbing state.
    pub fn would_reload_fast(&self, line: u64, threshold: u64) -> bool {
        let latency = if self.l1.contains_line(line) {
            self.latency.l1_hit
        } else if self.flushed.contains(&line) {
            self.latency.memory
        } else {
            self.latency.l2_hit
        };
        latency < threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_is_l2_fill_not_memory() {
        let mut h = CacheHierarchy::new(CacheConfig::l1d());
        let (out, cyc) = h.access_line(1);
        assert!(!out.hit());
        assert_eq!(cyc, LatencyModel::skylake().l2_hit);
    }

    #[test]
    fn flush_reload_cycle() {
        let mut h = CacheHierarchy::new(CacheConfig::l1d());
        h.access_line(9);
        h.flush_line(9);
        let (_, cyc) = h.access_line(9);
        assert_eq!(cyc, LatencyModel::skylake().memory);
        // Second reload is an L1 hit again.
        let (_, cyc2) = h.access_line(9);
        assert_eq!(cyc2, LatencyModel::skylake().l1_hit);
    }

    #[test]
    fn capacity_eviction_refills_from_l2() {
        let cfg = CacheConfig {
            sets: 1,
            ways: 2,
            line_bytes: 64,
        };
        let mut h = CacheHierarchy::new(cfg);
        h.access_line(0);
        h.access_line(1);
        h.access_line(2); // evicts 0 (capacity, not clflush)
        let (_, cyc) = h.access_line(0);
        assert_eq!(cyc, LatencyModel::skylake().l2_hit);
    }

    #[test]
    fn would_reload_fast_predicts_without_mutating() {
        let mut h = CacheHierarchy::new(CacheConfig::l1d());
        h.access_line(3);
        let before = h.l1().stats();
        assert!(h.would_reload_fast(3, 100));
        h.flush_line(3);
        assert!(!h.would_reload_fast(3, 100));
        assert_eq!(h.l1().stats().accesses, before.accesses);
    }
}
