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
    /// What was counted between `earlier` and `self`, field by field
    /// (wrapping, so [`SetAssocCache::add_stats`] restores `self` exactly).
    pub fn since(self, earlier: CacheStats) -> CacheStats {
        CacheStats {
            accesses: self.accesses.wrapping_sub(earlier.accesses),
            hits: self.hits.wrapping_sub(earlier.hits),
            misses: self.misses.wrapping_sub(earlier.misses),
            evictions: self.evictions.wrapping_sub(earlier.evictions),
            flushes: self.flushes.wrapping_sub(earlier.flushes),
        }
    }

    /// The delta `n` passes of `self` add up to, field by field (wrapping,
    /// like [`SetAssocCache::add_stats`], so adding it once equals adding
    /// `self` `n` times).
    pub fn times(self, n: u64) -> CacheStats {
        CacheStats {
            accesses: self.accesses.wrapping_mul(n),
            hits: self.hits.wrapping_mul(n),
            misses: self.misses.wrapping_mul(n),
            evictions: self.evictions.wrapping_mul(n),
            flushes: self.flushes.wrapping_mul(n),
        }
    }

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

    /// Overwrites set `set` with `lines`, MRU first: the inverse of
    /// [`SetAssocCache::set_lines`]. Statistics are untouched.
    ///
    /// # Panics
    ///
    /// Panics if `set >= config.sets` or `lines` holds more lines than
    /// the cache has ways.
    pub fn load_set(&mut self, set: usize, lines: &[u64]) {
        assert!(lines.len() <= self.config.ways, "more lines than ways");
        let base = set * self.config.ways;
        self.lines[base..base + lines.len()].copy_from_slice(lines);
        self.lens[set] = lines.len() as u16;
    }

    /// Adds a statistics delta (see [`CacheStats::since`]) without
    /// touching contents or LRU order: replaying the delta of an access
    /// pass counts exactly what re-running that pass from the same
    /// contents would count.
    pub fn add_stats(&mut self, delta: CacheStats) {
        let s = &mut self.stats;
        s.accesses = s.accesses.wrapping_add(delta.accesses);
        s.hits = s.hits.wrapping_add(delta.hits);
        s.misses = s.misses.wrapping_add(delta.misses);
        s.evictions = s.evictions.wrapping_add(delta.evictions);
        s.flushes = s.flushes.wrapping_add(delta.flushes);
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
    fn load_set_round_trips_set_lines() {
        let mut c = SetAssocCache::new(CacheConfig {
            sets: 2,
            ways: 4,
            line_bytes: 64,
        });
        for line in [6, 0, 2, 4, 1, 2, 8] {
            c.access_line(line);
        }
        let saved: Vec<Vec<u64>> = (0..2).map(|set| c.set_lines(set).to_vec()).collect();
        let stats = c.stats();
        let mut other = SetAssocCache::new(c.config());
        other.access_line(3);
        other.access_line(10);
        for (set, lines) in saved.iter().enumerate() {
            other.load_set(set, lines);
            assert_eq!(other.set_lines(set), &lines[..]);
        }
        // The loaded cache behaves exactly like the original from here on.
        for line in [0, 12, 6, 3, 8] {
            assert_eq!(other.access_line(line), c.access_line(line), "line {line}");
        }
        for set in 0..2 {
            assert_eq!(other.set_lines(set), c.set_lines(set));
        }
        // Loading touches no statistics.
        c.load_set(0, &[]);
        assert_eq!(c.set_occupancy(0), 0);
        assert_eq!(c.stats().accesses, stats.accesses + 5);
    }

    #[test]
    fn stats_delta_matches_rerunning_the_pass() {
        // A pass that hits, misses and evicts in set 0 of a 2-set, 2-way
        // cache. Following it from the same starting contents — load the
        // recorded post-state, add the recorded delta — ends exactly
        // where simulating it again ends.
        let mut c = SetAssocCache::new(CacheConfig {
            sets: 2,
            ways: 2,
            line_bytes: 64,
        });
        for line in [0, 2, 1] {
            c.access_line(line);
        }
        let mut rerun = c.clone();
        let mut replay = c.clone();
        let pass = [2, 4, 0, 1, 2];
        let before = c.stats();
        for &line in &pass {
            c.access_line(line);
        }
        let delta = c.stats().since(before);
        assert_eq!((delta.accesses, delta.misses, delta.evictions), (5, 3, 3));
        for &line in &pass {
            rerun.access_line(line);
        }
        for set in 0..2 {
            replay.load_set(set, c.set_lines(set));
        }
        replay.add_stats(delta);
        assert_eq!(replay.stats(), rerun.stats());
        for set in 0..2 {
            assert_eq!(replay.set_lines(set), rerun.set_lines(set));
        }
    }

    #[test]
    fn repeated_hits_match_rerunning_an_all_hit_pass() {
        // Lines 0, 2, 4 share set 0 of a 2-set, 4-way cache; line 6 is
        // resident but untouched by the pass. A true-LRU all-hit pass
        // leaves the sets as it found them, so its delta alone replays a
        // repeat of it.
        let mut c = SetAssocCache::new(CacheConfig {
            sets: 2,
            ways: 4,
            line_bytes: 64,
        });
        for line in [6, 0, 2, 4, 1] {
            c.access_line(line);
        }
        let pass = [2, 0, 2, 4];
        let before = c.stats();
        assert!(pass.iter().all(|&l| c.access_line(l).hit()));
        let delta = c.stats().since(before);
        let mut rerun = c.clone();
        assert!(pass.iter().all(|&l| rerun.access_line(l).hit()));
        c.add_stats(delta);
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
