//! Generic set-associative cache with true-LRU replacement.

use std::fmt;

use leaky_isa::Addr;

/// Geometry and identity of a cache instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Number of sets.
    pub sets: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes (must be a power of two).
    pub line_bytes: usize,
}

impl CacheConfig {
    /// L1 instruction cache per Table I: 32 KB, 8-way, 64 B lines, 64 sets.
    pub const fn l1i() -> Self {
        CacheConfig {
            sets: 64,
            ways: 8,
            line_bytes: 64,
        }
    }

    /// L1 data cache per Table I: 32 KB, 8-way, 64 B lines, 64 sets.
    pub const fn l1d() -> Self {
        CacheConfig {
            sets: 64,
            ways: 8,
            line_bytes: 64,
        }
    }

    /// Total capacity in bytes.
    pub const fn capacity_bytes(&self) -> usize {
        self.sets * self.ways * self.line_bytes
    }

    /// Line number for an address.
    pub const fn line_of(&self, addr: u64) -> u64 {
        addr / self.line_bytes as u64
    }

    /// Set index for a line number.
    pub const fn set_of_line(&self, line: u64) -> usize {
        (line % self.sets as u64) as usize
    }
}

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was filled; `evicted` is the line it displaced, if any.
    Miss {
        /// Line number evicted to make room, or `None` if a way was free.
        evicted: Option<u64>,
    },
}

impl AccessOutcome {
    /// Whether the access hit.
    pub fn hit(self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }

    /// The evicted line, if this was a miss that displaced one.
    pub fn evicted(self) -> Option<u64> {
        match self {
            AccessOutcome::Hit => None,
            AccessOutcome::Miss { evicted } => evicted,
        }
    }
}

/// Running access statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Misses that evicted a valid line.
    pub evictions: u64,
    /// Lines invalidated by explicit flushes.
    pub flushes: u64,
}

impl CacheStats {
    /// Miss rate in `[0, 1]`, or `0` with no accesses.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// A set-associative cache with true-LRU replacement and explicit flush
/// support (for `clflush`-style attacks).
///
/// Lines are tracked by *line number* (`addr / line_bytes`); the tag is the
/// full line number so distinct lines never alias.
///
/// Storage is one contiguous `sets × ways` buffer with per-set occupancy
/// counters: set `s` occupies `lines[s*ways .. s*ways + lens[s]]`, MRU
/// first. LRU maintenance is a `rotate_right` on the set's slice, so the
/// per-access hot path (this backs every simulated L1I fetch) allocates
/// nothing.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    config: CacheConfig,
    /// Flat `sets × ways` slots; only each set's occupied prefix is valid.
    lines: Box<[u64]>,
    /// Per-set occupancy.
    lens: Box<[u16]>,
    /// `sets - 1` when the set count is a power of two, turning the
    /// per-access set index into an AND instead of a 64-bit division.
    index_mask: Option<u64>,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if any geometry parameter is zero, `line_bytes` is not a
    /// power of two, or the associativity exceeds `u16`.
    pub fn new(config: CacheConfig) -> Self {
        assert!(
            config.sets > 0 && config.ways > 0,
            "degenerate cache geometry"
        );
        assert!(
            config.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(config.ways <= u16::MAX as usize, "ways must fit a u16");
        SetAssocCache {
            config,
            lines: vec![0; config.sets * config.ways].into_boxed_slice(),
            lens: vec![0; config.sets].into_boxed_slice(),
            index_mask: config
                .sets
                .is_power_of_two()
                .then_some(config.sets as u64 - 1),
            stats: CacheStats::default(),
        }
    }

    /// Set index of a line under this cache's geometry (mask fast path).
    #[inline]
    fn set_of_line(&self, line: u64) -> usize {
        match self.index_mask {
            Some(mask) => (line & mask) as usize,
            None => self.config.set_of_line(line),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Access by byte address.
    #[inline]
    pub fn access_addr(&mut self, addr: u64) -> AccessOutcome {
        self.access_line(self.config.line_of(addr))
    }

    /// Access by [`Addr`].
    pub fn access(&mut self, addr: Addr) -> AccessOutcome {
        self.access_addr(addr.value())
    }

    /// Access by line number, updating LRU state and statistics.
    #[inline]
    pub fn access_line(&mut self, line: u64) -> AccessOutcome {
        self.stats.accesses += 1;
        let ways = self.config.ways;
        let set = self.set_of_line(line);
        let base = set * ways;
        let len = self.lens[set] as usize;
        let occupied = &mut self.lines[base..base + len];
        if let Some(pos) = occupied.iter().position(|&l| l == line) {
            self.stats.hits += 1;
            // Promote to MRU: the hit slot rotates to the set's front.
            occupied[..=pos].rotate_right(1);
            return AccessOutcome::Hit;
        }
        self.stats.misses += 1;
        let evicted = if len == ways {
            self.stats.evictions += 1;
            Some(self.lines[base + ways - 1])
        } else {
            self.lens[set] = (len + 1) as u16;
            None
        };
        let new_len = self.lens[set] as usize;
        self.lines[base..base + new_len].rotate_right(1);
        self.lines[base] = line;
        AccessOutcome::Miss { evicted }
    }

    /// Whether a byte address' line is present (does not disturb LRU state).
    pub fn contains_addr(&self, addr: u64) -> bool {
        self.contains_line(self.config.line_of(addr))
    }

    /// Whether a line is present (does not disturb LRU state).
    #[inline]
    pub fn contains_line(&self, line: u64) -> bool {
        self.set_lines(self.set_of_line(line)).contains(&line)
    }

    /// LRU rank of a line within its set: `Some(0)` = most recently used,
    /// `Some(ways-1)` = next eviction victim, `None` = absent. This is the
    /// observable exploited by the L1D-LRU covert channel (Table VII's
    /// "L1D LRU" baseline, after Xiong & Szefer).
    pub fn lru_rank(&self, line: u64) -> Option<usize> {
        self.set_lines(self.set_of_line(line))
            .iter()
            .position(|&l| l == line)
    }

    /// Flushes one line (`clflush`): removes it without touching LRU order
    /// of other lines.
    pub fn flush_line(&mut self, line: u64) {
        let set = self.set_of_line(line);
        let base = set * self.config.ways;
        let len = self.lens[set] as usize;
        let occupied = &mut self.lines[base..base + len];
        if let Some(pos) = occupied.iter().position(|&l| l == line) {
            // Close the gap, preserving the LRU order of the survivors.
            occupied[pos..].rotate_left(1);
            self.lens[set] = (len - 1) as u16;
            self.stats.flushes += 1;
        }
    }

    /// Flushes a byte address' line.
    pub fn flush_addr(&mut self, addr: u64) {
        self.flush_line(self.config.line_of(addr));
    }

    /// Invalidates the entire cache (keeps statistics).
    pub fn flush_all(&mut self) {
        for len in &mut self.lens {
            self.stats.flushes += *len as u64;
            *len = 0;
        }
    }

    /// Number of valid lines in a set.
    ///
    /// # Panics
    ///
    /// Panics if `set >= config.sets`.
    pub fn set_occupancy(&self, set: usize) -> usize {
        self.lens[set] as usize
    }

    /// Lines currently resident in a set, MRU first.
    #[inline]
    pub fn set_lines(&self, set: usize) -> &[u64] {
        let base = set * self.config.ways;
        &self.lines[base..base + self.lens[set] as usize]
    }

    /// Counts `n` accesses that all hit, without touching contents or LRU
    /// order. This is exact for repeating an access sequence that has
    /// just run and hit throughout: every line is still resident, and a
    /// true-LRU pass of the same all-hit sequence leaves each set's
    /// lines in the same order it found them.
    pub fn count_repeated_hits(&mut self, n: u64) {
        self.stats.accesses += n;
        self.stats.hits += n;
    }

    /// Running statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics (contents are preserved).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

impl fmt::Display for SetAssocCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{} cache ({} B lines): {} accesses, {:.2}% miss",
            self.config.sets,
            self.config.ways,
            self.config.line_bytes,
            self.stats.accesses,
            self.stats.miss_rate() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        SetAssocCache::new(CacheConfig {
            sets: 2,
            ways: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn l1_presets_match_table1() {
        assert_eq!(CacheConfig::l1i().capacity_bytes(), 32 * 1024);
        assert_eq!(CacheConfig::l1d().capacity_bytes(), 32 * 1024);
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert!(!c.access_line(0).hit());
        assert!(c.access_line(0).hit());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn same_line_different_bytes_hit() {
        let mut c = SetAssocCache::new(CacheConfig::l1i());
        c.access_addr(0x1000);
        assert!(c.access_addr(0x103f).hit());
        assert!(!c.access_addr(0x1040).hit());
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (line % 2).
        c.access_line(0);
        c.access_line(2);
        c.access_line(0); // 0 becomes MRU; 2 is LRU
        let out = c.access_line(4);
        assert_eq!(out.evicted(), Some(2));
        assert!(c.contains_line(0));
        assert!(!c.contains_line(2));
    }

    #[test]
    fn lru_rank_tracks_recency() {
        let mut c = tiny();
        c.access_line(0);
        c.access_line(2);
        assert_eq!(c.lru_rank(2), Some(0));
        assert_eq!(c.lru_rank(0), Some(1));
        assert_eq!(c.lru_rank(4), None);
        // Re-touching 0 promotes it without a miss — the LRU channel's core
        // observable: hits still change replacement state.
        assert!(c.access_line(0).hit());
        assert_eq!(c.lru_rank(0), Some(0));
        assert_eq!(c.lru_rank(2), Some(1));
    }

    #[test]
    fn flush_removes_without_reordering() {
        let mut c = tiny();
        c.access_line(0);
        c.access_line(2);
        c.flush_line(0);
        assert!(!c.contains_line(0));
        assert!(c.contains_line(2));
        assert_eq!(c.stats().flushes, 1);
        // Flushing an absent line is a no-op.
        c.flush_line(40);
        assert_eq!(c.stats().flushes, 1);
    }

    #[test]
    fn flush_all_empties_every_set() {
        let mut c = tiny();
        for l in 0..4 {
            c.access_line(l);
        }
        c.flush_all();
        for l in 0..4 {
            assert!(!c.contains_line(l));
        }
        assert_eq!(c.set_occupancy(0), 0);
        assert_eq!(c.set_occupancy(1), 0);
    }

    #[test]
    fn miss_rate_math() {
        let mut c = tiny();
        c.access_line(0);
        c.access_line(0);
        c.access_line(0);
        c.access_line(0);
        assert!((c.stats().miss_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn filling_a_set_beyond_ways_evicts_in_order() {
        let mut c = SetAssocCache::new(CacheConfig::l1i());
        // 9 lines mapping to set 0 on a 64-set cache: lines 0, 64, 128, ...
        for i in 0..9u64 {
            c.access_line(i * 64);
        }
        assert!(!c.contains_line(0), "oldest line evicted");
        for i in 1..9u64 {
            assert!(c.contains_line(i * 64));
        }
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn repeated_hits_match_rerunning_an_all_hit_pass() {
        // Lines 0, 2, 4 share set 0 of a 2-set, 4-way cache; line 6 is
        // resident but untouched by the pass.
        let mut c = SetAssocCache::new(CacheConfig {
            sets: 2,
            ways: 4,
            line_bytes: 64,
        });
        for line in [6, 0, 2, 4, 1] {
            c.access_line(line);
        }
        let pass = [2, 0, 2, 4];
        assert!(pass.iter().all(|&l| c.access_line(l).hit()));
        let mut rerun = c.clone();
        assert!(pass.iter().all(|&l| rerun.access_line(l).hit()));
        c.count_repeated_hits(pass.len() as u64);
        assert_eq!(c.stats(), rerun.stats());
        for set in 0..2 {
            assert_eq!(c.set_lines(set), rerun.set_lines(set));
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_lines() {
        let _ = SetAssocCache::new(CacheConfig {
            sets: 1,
            ways: 1,
            line_bytes: 48,
        });
    }
}
