//! The Decoded Stream Buffer (micro-op cache) model.
//!
//! 32 sets × 8 ways of 32-byte windows, ≤ 6 µops per line (§IV-B). Lines are
//! tagged with their owning hardware thread. Under SMT the paper observes
//! that a solo thread owns the whole DSB, and the second thread becoming
//! active forces evictions of the first thread's µops (§IV-B); the exact
//! sharing discipline is configurable via [`SmtDsbPolicy`] (see DESIGN.md).
//!
//! Storage is a single contiguous `sets × ways` buffer of packed line ids
//! with per-set occupancy counters and ring heads — no per-access
//! allocation, no pointer chasing — because this structure sits on the
//! innermost loop of every covert-channel bit the reproduction simulates.
//! See [`Dsb`] for the ring layout.

use leaky_isa::FrontendGeometry;

/// Identity of one DSB line: owning thread, 32-byte window number, and chunk
/// index (windows holding more than 6 µops need multiple lines, §IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LineId {
    /// Owning hardware thread (0 or 1).
    pub thread: u8,
    /// Window number (`addr >> 5`).
    pub window: u64,
    /// Chunk index within the window (0 unless the window exceeds 6 µops).
    pub chunk: u8,
}

/// Packed wire format of a [`LineId`]: `window << 9 | thread << 8 | chunk`.
/// One `u64` per line keeps a whole DSB set in a single cache line.
/// Windows are `addr >> 5`, so any address below 2^60 packs losslessly.
#[inline]
pub(crate) fn pack_line(line: LineId) -> u64 {
    debug_assert!(line.window < 1 << 55, "window exceeds packed capacity");
    debug_assert!(line.thread < 2, "thread must be 0 or 1");
    (line.window << 9) | ((line.thread as u64) << 8) | line.chunk as u64
}

/// Inverse of [`pack_line`].
#[inline]
pub(crate) fn unpack_line(packed: u64) -> LineId {
    LineId {
        thread: ((packed >> 8) & 1) as u8,
        window: packed >> 9,
        chunk: (packed & 0xff) as u8,
    }
}

/// How the DSB is shared between two active hyper-threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SmtDsbPolicy {
    /// Default model: both threads index the full 32 sets and *compete for
    /// ways* within each set. Reproduces the paper's observation that
    /// receiver ways + sender ways > 8 forces cross-thread evictions
    /// (§V-A), and that a waking thread displaces the other's lines.
    #[default]
    Competitive,
    /// Strict set partitioning: when both threads are active each thread
    /// sees 16 private sets (index folds to `addr[8:5]`); all lines are
    /// flushed on every partition transition. Matches the paper's §IV-B
    /// description most literally; kept for ablation.
    SetPartitioned,
    /// No isolation and no transition effects (insecure baseline for
    /// ablation).
    Shared,
}

/// Result of inserting a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertOutcome {
    /// The line that was displaced, if the set was full.
    pub evicted: Option<LineId>,
}

/// The DSB: a flat fixed-capacity buffer of packed lines.
///
/// Each set is a *ring*: slot `heads[s] + i (mod ways)` of the set's
/// segment holds the `i`-th line in MRU-first order. The ring makes the
/// two patterns the paper's attacks hammer O(1) instead of O(ways)
/// memmoves — promoting the LRU tail (a warm loop walking its lines
/// cyclically) and evict-plus-fill (a thrashing set) are both just a head
/// decrement and one slot write. Where the head sits is not state, so
/// the `Debug` output shows each set's lines in MRU order instead.
#[derive(Clone)]
pub struct Dsb {
    geom: FrontendGeometry,
    policy: SmtDsbPolicy,
    /// `true` while both threads are active (set by the engine).
    partitioned: bool,
    /// `sets × ways` packed line slots (ring per set, see type docs).
    lines: Box<[u64]>,
    /// Per-set occupancy.
    lens: Box<[u8]>,
    /// Per-set ring head: physical slot of the MRU line.
    heads: Box<[u8]>,
    /// `sets - 1` when the set count is a power of two (the Table I
    /// geometry), letting the per-access index be an AND instead of a
    /// 64-bit division; `None` falls back to `%` for odd ablations.
    index_mask: Option<u64>,
}

impl std::fmt::Debug for Dsb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        /// One set's resident lines, MRU first.
        struct Set<'a>(&'a Dsb, usize);
        impl std::fmt::Debug for Set<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_list().entries(self.0.lines_of(self.1)).finish()
            }
        }
        f.debug_struct("Dsb")
            .field("geom", &self.geom)
            .field("policy", &self.policy)
            .field("partitioned", &self.partitioned)
            .field(
                "sets",
                &(0..self.lens.len())
                    .map(|set| Set(self, set))
                    .collect::<Vec<_>>(),
            )
            .finish_non_exhaustive()
    }
}

impl Dsb {
    /// Creates an empty DSB.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has more than 255 ways or more than 64 sets.
    pub fn new(geom: FrontendGeometry, policy: SmtDsbPolicy) -> Self {
        assert!(geom.dsb_ways <= u8::MAX as usize, "ways must fit a u8");
        // The engine's LSD-lock set masks are one u64 bit per set; a wider
        // ablation geometry would silently wrap the shift in release
        // builds, so refuse it loudly here (both engines construct a DSB).
        assert!(geom.dsb_sets <= 64, "set masks support at most 64 DSB sets");
        Dsb {
            lines: vec![0; geom.dsb_sets * geom.dsb_ways].into_boxed_slice(),
            lens: vec![0; geom.dsb_sets].into_boxed_slice(),
            heads: vec![0; geom.dsb_sets].into_boxed_slice(),
            index_mask: geom
                .dsb_sets
                .is_power_of_two()
                .then_some(geom.dsb_sets as u64 - 1),
            geom,
            policy,
            partitioned: false,
        }
    }

    /// Physical slot (within a set's segment) of logical MRU position `i`.
    #[inline]
    fn phys(head: usize, i: usize, ways: usize) -> usize {
        let p = head + i;
        if p >= ways {
            p - ways
        } else {
            p
        }
    }

    /// The sharing policy.
    pub fn policy(&self) -> SmtDsbPolicy {
        self.policy
    }

    /// Switches between solo and two-thread mode. Returns the lines flushed
    /// by the transition (the paper's partition-transition evictions).
    pub fn set_partitioned(&mut self, partitioned: bool) -> Vec<LineId> {
        if self.partitioned == partitioned {
            return Vec::new();
        }
        self.partitioned = partitioned;
        match self.policy {
            // Set partitioning re-indexes every line: flush all.
            SmtDsbPolicy::SetPartitioned => self.flush_all(),
            // Competitive sharing keeps contents; contention does the rest.
            SmtDsbPolicy::Competitive | SmtDsbPolicy::Shared => Vec::new(),
        }
    }

    /// The physical set index a line maps to under the current mode.
    #[inline]
    fn set_index(&self, line: LineId) -> usize {
        let full = match self.index_mask {
            Some(mask) => (line.window & mask) as usize,
            None => (line.window % self.geom.dsb_sets as u64) as usize,
        };
        match self.policy {
            SmtDsbPolicy::SetPartitioned if self.partitioned => {
                // Fold to 16 sets per thread: low 4 index bits + thread half.
                let half = self.geom.dsb_sets / 2;
                (full % half) + line.thread as usize * half
            }
            _ => full,
        }
    }

    /// Logical MRU position of `packed` in a set, if resident. Probes the
    /// MRU slot first, then scans from the LRU end: a loop re-touching the
    /// same window hits at position 0, and a warm loop walking its lines
    /// cyclically hits at the tail — both in one or two compares.
    #[inline]
    fn find(
        &self,
        base: usize,
        head: usize,
        len: usize,
        ways: usize,
        packed: u64,
    ) -> Option<usize> {
        if len == 0 {
            return None;
        }
        if self.lines[base + head] == packed {
            return Some(0);
        }
        (1..len)
            .rev()
            .find(|&i| self.lines[base + Self::phys(head, i, ways)] == packed)
    }

    /// Makes the line at logical position `pos` the MRU of its set.
    #[inline]
    fn promote(&mut self, set: usize, base: usize, pos: usize, packed: u64) {
        if pos == 0 {
            return;
        }
        let ways = self.geom.dsb_ways;
        let head = self.heads[set] as usize;
        let len = self.lens[set] as usize;
        if pos == len - 1 {
            // Tail promotion: the ring rotates wholesale — move the head
            // back one slot and park the tail's value there (a no-op write
            // when the set is full, because head-1 *is* the tail's slot).
            let new_head = Self::phys(head, ways - 1, ways);
            self.lines[base + new_head] = packed;
            self.heads[set] = new_head as u8;
            return;
        }
        // Middle promotion: shift logical [0, pos) down one, then place
        // the hit line at the front.
        for i in (1..=pos).rev() {
            self.lines[base + Self::phys(head, i, ways)] =
                self.lines[base + Self::phys(head, i - 1, ways)];
        }
        self.lines[base + head] = packed;
    }

    /// Fills a (verified-absent) line as the new MRU, evicting the LRU
    /// when the set is full.
    #[inline]
    fn fill(&mut self, set: usize, base: usize, packed: u64) -> Option<LineId> {
        let ways = self.geom.dsb_ways;
        let head = self.heads[set] as usize;
        let len = self.lens[set] as usize;
        let new_head = Self::phys(head, ways - 1, ways);
        let evicted = if len >= ways {
            // The slot before the head is the LRU tail: overwrite in place.
            Some(unpack_line(self.lines[base + new_head]))
        } else {
            self.lens[set] = (len + 1) as u8;
            None
        };
        self.lines[base + new_head] = packed;
        self.heads[set] = new_head as u8;
        evicted
    }

    /// Whether a line is resident (does not disturb recency).
    #[inline]
    pub fn resident(&self, line: LineId) -> bool {
        let ways = self.geom.dsb_ways;
        let set = self.set_index(line);
        self.find(
            set * ways,
            self.heads[set] as usize,
            self.lens[set] as usize,
            ways,
            pack_line(line),
        )
        .is_some()
    }

    /// Looks a line up, promoting it to MRU on hit.
    #[inline]
    pub fn lookup(&mut self, line: LineId) -> bool {
        let ways = self.geom.dsb_ways;
        let set = self.set_index(line);
        let base = set * ways;
        let packed = pack_line(line);
        match self.find(
            base,
            self.heads[set] as usize,
            self.lens[set] as usize,
            ways,
            packed,
        ) {
            Some(pos) => {
                self.promote(set, base, pos, packed);
                true
            }
            None => false,
        }
    }

    /// Looks a line up and, on a miss, fills it in the same pass (the
    /// frontend's per-line delivery step): returns whether the line hit
    /// and, on a miss into a full set, the LRU line it displaced.
    /// Equivalent to `lookup` followed by `insert` on miss, with a single
    /// scan of the set.
    #[inline]
    pub fn access(&mut self, line: LineId) -> (bool, Option<LineId>) {
        let ways = self.geom.dsb_ways;
        let set = self.set_index(line);
        let base = set * ways;
        let packed = pack_line(line);
        match self.find(
            base,
            self.heads[set] as usize,
            self.lens[set] as usize,
            ways,
            packed,
        ) {
            Some(pos) => {
                self.promote(set, base, pos, packed);
                (true, None)
            }
            None => (false, self.fill(set, base, packed)),
        }
    }

    /// Inserts a line (after a MITE fill), evicting the LRU way if needed.
    #[inline]
    pub fn insert(&mut self, line: LineId) -> InsertOutcome {
        let ways = self.geom.dsb_ways;
        let set = self.set_index(line);
        let base = set * ways;
        let packed = pack_line(line);
        debug_assert!(
            self.find(
                base,
                self.heads[set] as usize,
                self.lens[set] as usize,
                ways,
                packed
            )
            .is_none(),
            "inserting an already-resident line"
        );
        InsertOutcome {
            evicted: self.fill(set, base, packed),
        }
    }

    /// Flushes every line owned by one thread, appending them to
    /// `victims` set by set, each set's MRU first. Each set is compacted
    /// in place: its ring is rotated so the MRU sits in slot 0, then the
    /// survivors move down over the victims in MRU order.
    pub fn flush_thread(&mut self, thread: u8, victims: &mut Vec<LineId>) {
        let ways = self.geom.dsb_ways;
        let thread_bit = (thread as u64) << 8;
        for set in 0..self.lens.len() {
            let base = set * ways;
            let ring = &mut self.lines[base..base + ways];
            ring.rotate_left(self.heads[set] as usize);
            let mut kept = 0usize;
            for i in 0..self.lens[set] as usize {
                let packed = ring[i];
                if packed & (1 << 8) == thread_bit {
                    victims.push(unpack_line(packed));
                } else {
                    ring[kept] = packed;
                    kept += 1;
                }
            }
            self.heads[set] = 0;
            self.lens[set] = kept as u8;
        }
    }

    /// Flushes everything; returns the flushed lines.
    pub fn flush_all(&mut self) -> Vec<LineId> {
        let ways = self.geom.dsb_ways;
        let mut flushed = Vec::new();
        for set in 0..self.lens.len() {
            let base = set * ways;
            let head = self.heads[set] as usize;
            let len = std::mem::take(&mut self.lens[set]) as usize;
            flushed.extend(
                (0..len).map(|i| unpack_line(self.lines[base + Self::phys(head, i, ways)])),
            );
            self.heads[set] = 0;
        }
        flushed
    }

    /// Number of resident lines owned by a thread.
    pub fn occupancy(&self, thread: u8) -> usize {
        let ways = self.geom.dsb_ways;
        let thread_bit = (thread as u64) << 8;
        (0..self.lens.len())
            .map(|set| {
                let base = set * ways;
                let head = self.heads[set] as usize;
                let len = self.lens[set] as usize;
                (0..len)
                    .filter(|&i| {
                        self.lines[base + Self::phys(head, i, ways)] & (1 << 8) == thread_bit
                    })
                    .count()
            })
            .sum()
    }

    /// Appends physical set `set`'s occupancy, then its packed lines MRU
    /// first — the ring's logical content, independent of where its
    /// head happens to sit (the state graph's DSB encoding).
    pub(crate) fn push_set(&self, set: usize, out: &mut Vec<u64>) {
        let ways = self.geom.dsb_ways;
        let base = set * ways;
        let head = self.heads[set] as usize;
        let len = self.lens[set] as usize;
        out.push(len as u64);
        out.extend((0..len).map(|i| self.lines[base + Self::phys(head, i, ways)]));
    }

    /// Overwrites physical set `set` with packed lines given MRU first
    /// (the inverse of [`Dsb::push_set`]'s line list).
    pub(crate) fn load_set(&mut self, set: usize, packed: &[u64]) {
        let base = set * self.geom.dsb_ways;
        self.lines[base..base + packed.len()].copy_from_slice(packed);
        self.heads[set] = 0;
        self.lens[set] = packed.len() as u8;
    }

    /// Resident lines (MRU first) in the physical set that `line` maps to.
    pub fn set_lines_for(&self, line: LineId) -> impl Iterator<Item = LineId> + '_ {
        self.lines_of(self.set_index(line))
    }

    /// Resident lines (MRU first) in physical set `set`.
    fn lines_of(&self, set: usize) -> impl Iterator<Item = LineId> + '_ {
        let ways = self.geom.dsb_ways;
        let base = set * ways;
        let head = self.heads[set] as usize;
        let len = self.lens[set] as usize;
        (0..len).map(move |i| unpack_line(self.lines[base + Self::phys(head, i, ways)]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(thread: u8, window: u64) -> LineId {
        LineId {
            thread,
            window,
            chunk: 0,
        }
    }

    fn dsb(policy: SmtDsbPolicy) -> Dsb {
        Dsb::new(FrontendGeometry::skylake(), policy)
    }

    #[test]
    fn pack_roundtrips() {
        for l in [
            line(0, 0),
            line(1, 0x20c00),
            LineId {
                thread: 1,
                window: (1 << 55) - 1,
                chunk: 255,
            },
        ] {
            assert_eq!(unpack_line(pack_line(l)), l);
        }
    }

    #[test]
    fn lookup_after_insert_hits() {
        let mut d = dsb(SmtDsbPolicy::Competitive);
        let l = line(0, 0x20c00);
        assert!(!d.lookup(l));
        d.insert(l);
        assert!(d.lookup(l));
        assert!(d.resident(l));
    }

    #[test]
    fn nine_ways_evict_lru_in_one_set() {
        // §IV-F: chains of 9 same-set blocks exceed the 8 ways.
        let mut d = dsb(SmtDsbPolicy::Competitive);
        // Windows i*32 all map to set 0 (window % 32 == 0).
        let lines: Vec<LineId> = (0..9).map(|i| line(0, i * 32)).collect();
        let mut evicted = None;
        for &l in &lines {
            let out = d.insert(l);
            if out.evicted.is_some() {
                evicted = out.evicted;
            }
        }
        assert_eq!(evicted, Some(lines[0]), "LRU (first inserted) evicted");
        assert!(!d.resident(lines[0]));
        for &l in &lines[1..] {
            assert!(d.resident(l));
        }
    }

    #[test]
    fn eight_ways_fit_without_eviction() {
        let mut d = dsb(SmtDsbPolicy::Competitive);
        for i in 0..8 {
            assert_eq!(d.insert(line(0, i * 32)).evicted, None);
        }
        assert_eq!(d.occupancy(0), 8);
    }

    #[test]
    fn lookup_promotes_to_mru() {
        let mut d = dsb(SmtDsbPolicy::Competitive);
        for i in 0..8 {
            d.insert(line(0, i * 32));
        }
        // Re-touch the LRU line (first inserted); the next insert must then
        // evict the second-oldest instead.
        assert!(d.lookup(line(0, 0)));
        let out = d.insert(line(0, 8 * 32));
        assert_eq!(out.evicted, Some(line(0, 32)));
        assert!(d.resident(line(0, 0)));
    }

    #[test]
    fn cross_thread_way_competition() {
        // §V-A arithmetic: receiver d=6 ways + sender 3 ways > 8 evicts
        // receiver lines under the competitive policy.
        let mut d = dsb(SmtDsbPolicy::Competitive);
        d.set_partitioned(true);
        for i in 0..6 {
            d.insert(line(0, i * 32)); // receiver
        }
        let mut receiver_evicted = 0;
        for i in 100..103 {
            if let Some(e) = d.insert(line(1, i * 32)).evicted {
                if e.thread == 0 {
                    receiver_evicted += 1;
                }
            }
        }
        assert_eq!(receiver_evicted, 1, "6 + 3 = 9 > 8: exactly one eviction");
    }

    #[test]
    fn set_partition_transition_flushes_everything() {
        let mut d = dsb(SmtDsbPolicy::SetPartitioned);
        for i in 0..4 {
            d.insert(line(0, i * 32));
        }
        let flushed = d.set_partitioned(true);
        assert_eq!(flushed.len(), 4);
        assert_eq!(d.occupancy(0), 0);
        // Transition back also flushes.
        d.insert(line(0, 0));
        assert_eq!(d.set_partitioned(false).len(), 1);
    }

    #[test]
    fn set_partitioned_threads_use_disjoint_sets() {
        let mut d = dsb(SmtDsbPolicy::SetPartitioned);
        d.set_partitioned(true);
        // Same window, different threads: must land in different halves and
        // never compete.
        for i in 0..8 {
            d.insert(line(0, i * 32));
            d.insert(line(1, i * 32));
        }
        assert_eq!(d.occupancy(0), 8);
        assert_eq!(d.occupancy(1), 8);
        // A ninth line from thread 1 evicts thread 1's LRU, not thread 0's.
        let out = d.insert(line(1, 8 * 32));
        assert_eq!(out.evicted.map(|l| l.thread), Some(1));
    }

    #[test]
    fn competitive_transition_keeps_contents() {
        let mut d = dsb(SmtDsbPolicy::Competitive);
        d.insert(line(0, 0));
        assert!(d.set_partitioned(true).is_empty());
        assert!(d.resident(line(0, 0)));
    }

    #[test]
    fn flush_thread_is_selective() {
        let mut d = dsb(SmtDsbPolicy::Competitive);
        d.insert(line(0, 0));
        d.insert(line(1, 32));
        let mut flushed = Vec::new();
        d.flush_thread(0, &mut flushed);
        assert_eq!(flushed, [line(0, 0)]);
        assert_eq!(d.occupancy(0), 0);
        assert_eq!(d.occupancy(1), 1);
    }

    #[test]
    fn flush_thread_preserves_survivor_recency() {
        let mut d = dsb(SmtDsbPolicy::Competitive);
        // Interleave two threads in one set, then flush thread 0: thread
        // 1's lines must keep their MRU-first relative order.
        d.insert(line(1, 0));
        d.insert(line(0, 32));
        d.insert(line(1, 2 * 32));
        d.insert(line(0, 3 * 32));
        d.insert(line(1, 4 * 32));
        d.flush_thread(0, &mut Vec::new());
        let order: Vec<u64> = d.set_lines_for(line(1, 0)).map(|l| l.window).collect();
        assert_eq!(order, vec![4 * 32, 2 * 32, 0]);
    }

    impl Dsb {
        /// The reference for [`Dsb::flush_thread`], a copy-out flush:
        /// each set's survivors are copied out in MRU order, then laid
        /// back from slot 0; the victims come back in a new `Vec`.
        fn flush_thread_copy_out(&mut self, thread: u8) -> Vec<LineId> {
            let ways = self.geom.dsb_ways;
            let thread_bit = (thread as u64) << 8;
            let mut flushed = Vec::new();
            let mut kept_buf = vec![0u64; ways];
            for set in 0..self.lens.len() {
                let base = set * ways;
                let head = self.heads[set] as usize;
                let len = self.lens[set] as usize;
                let mut kept = 0usize;
                for i in 0..len {
                    let packed = self.lines[base + Self::phys(head, i, ways)];
                    if packed & (1 << 8) == thread_bit {
                        flushed.push(unpack_line(packed));
                    } else {
                        kept_buf[kept] = packed;
                        kept += 1;
                    }
                }
                self.lines[base..base + kept].copy_from_slice(&kept_buf[..kept]);
                self.heads[set] = 0;
                self.lens[set] = kept as u8;
            }
            flushed
        }

        /// Each set's occupancy, ring head and lines, MRU first.
        fn sets(&self) -> Vec<(u8, u8, Vec<LineId>)> {
            (0..self.lens.len())
                .map(|set| {
                    (
                        self.lens[set],
                        self.heads[set],
                        self.lines_of(set).collect(),
                    )
                })
                .collect()
        }
    }

    proptest::proptest! {
        /// The in-place flush equals the copy-out one on random
        /// geometries: fills from both threads and hits that promote
        /// lines and move ring heads, with flushes of either thread in
        /// between. After each flush both DSBs hold the same lines per
        /// set in MRU order, with the same occupancy and head, and the
        /// victims come out in the same order (it decides the order of
        /// the `LsdUnlock` events their locks emit).
        #[test]
        fn in_place_flush_matches_the_copy_out_flush(
            geometry in (1usize..40, 1usize..12),
            ops in proptest::collection::vec((0u8..8, 0u8..2, 0u64..256, 0u8..2), 1..300),
        ) {
            let (dsb_sets, dsb_ways) = geometry;
            let geom = FrontendGeometry {
                dsb_sets,
                dsb_ways,
                ..FrontendGeometry::skylake()
            };
            let mut in_place = Dsb::new(geom, SmtDsbPolicy::Competitive);
            let mut copy_out = in_place.clone();
            let mut victims = Vec::new();
            for (op, thread, window, chunk) in ops {
                let line = LineId { thread, window, chunk };
                match op {
                    // Mostly accesses: a hit promotes (the tail rotates
                    // the ring), a miss into a full set evicts.
                    0..=6 => {
                        proptest::prop_assert_eq!(in_place.access(line), copy_out.access(line));
                    }
                    _ => {
                        victims.clear();
                        in_place.flush_thread(thread, &mut victims);
                        let expected = copy_out.flush_thread_copy_out(thread);
                        proptest::prop_assert_eq!(&victims, &expected);
                        proptest::prop_assert_eq!(in_place.sets(), copy_out.sets());
                    }
                }
            }
        }
    }

    #[test]
    fn chunked_windows_occupy_distinct_ways() {
        let mut d = dsb(SmtDsbPolicy::Competitive);
        let a = LineId {
            thread: 0,
            window: 64,
            chunk: 0,
        };
        let b = LineId {
            thread: 0,
            window: 64,
            chunk: 1,
        };
        d.insert(a);
        d.insert(b);
        assert!(d.resident(a) && d.resident(b));
        assert_eq!(d.set_lines_for(a).count(), 2);
    }
}
