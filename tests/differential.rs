//! Differential property tests: the zero-allocation [`Frontend`] must be
//! bit-identical to the retained naive reference engine
//! ([`NaiveFrontend`]) across random chains, SMT schedules and sharing
//! policies. Three engines execute the same random interleavings of
//! iterations, activity transitions, thread and L1I flushes and MITE
//! pressure changes: the plain optimized path, the same engine stepped
//! through its state graph (one-step [`Frontend::smt_walk`]s, which
//! intern the entry state, follow or record one edge and materialize)
//! and the naive oracle. Every
//! single [`IterationReport`] (an exact `f64`-carrying struct) is
//! compared with `==`, and the two optimized engines must end in the
//! same observable state — any divergence in delivery order, cost
//! arithmetic, lock bookkeeping or replayed state fails.

use leaky_frontends_repro::frontend::{
    Frontend, FrontendConfig, LineId, NaiveFrontend, SmtDsbPolicy, ThreadId,
};
use leaky_frontends_repro::isa::{
    same_set_chain, Addr, Alignment, Block, BlockChain, DsbSet, FrontendGeometry, LcpPattern,
};
use proptest::prelude::*;

/// Decodes one byte into a random (but valid) chain. The generator
/// covers the paper's whole layout space: aligned/misaligned same-set
/// chains of 1-10 blocks on any set, nop blocks, LCP blocks of both
/// interleavings, and concatenations of aligned + misaligned runs.
fn chain_from(spec: (u8, u8, u8)) -> BlockChain {
    let (kind, set, count) = spec;
    let set = DsbSet::new(set % 32);
    let count = (count % 10) as usize + 1;
    let base = 0x0041_8000 + (kind as u64 % 7) * 0x10_0000;
    match kind % 6 {
        0 => same_set_chain(base, set, count, Alignment::Aligned),
        1 => same_set_chain(base, set, count, Alignment::Misaligned),
        2 => same_set_chain(base, set, count.min(5), Alignment::Aligned).concat(same_set_chain(
            base + 0x20_0000,
            set,
            count.min(4),
            Alignment::Misaligned,
        )),
        3 => BlockChain::new(vec![Block::nops(Addr::new(base), count * 17 + 1)]),
        4 => BlockChain::new(vec![Block::lcp_adds(
            Addr::new(base),
            LcpPattern::Mixed,
            count * 3,
        )]),
        _ => BlockChain::new(vec![Block::lcp_adds(
            Addr::new(base),
            LcpPattern::Ordered,
            count * 3,
        )]),
    }
}

fn config_from(policy: u8, lsd_enabled: bool, flush_on_partition: bool) -> FrontendConfig {
    FrontendConfig {
        lsd_enabled,
        flush_on_partition,
        dsb_policy: match policy % 3 {
            0 => SmtDsbPolicy::Competitive,
            1 => SmtDsbPolicy::SetPartitioned,
            _ => SmtDsbPolicy::Shared,
        },
        // Vary the LSD warm-up too: steady-state detection must respect
        // pending lock transitions at every threshold.
        lsd_warmup_iterations: (policy / 3 % 6) as u32 + 1,
        ..FrontendConfig::default()
    }
}

/// Decodes one byte into a perturbed frontend geometry. Covers the
/// profile registry's spread and beyond: non-canonical DSB line
/// capacities (the PR-2 fast path precomputed 6-µop splits — these must
/// never leak), halved set counts, narrow ways, larger/smaller LSDs and
/// window-tracking capacities, and a perturbed L1I. The code layouts
/// stay Table I-placed (layout generation is part of the *attack*, not
/// the machine), so every geometry interprets the same addresses.
fn geometry_from(g: (u8, u8, u8)) -> FrontendGeometry {
    let (a, b, c) = g;
    FrontendGeometry {
        dsb_line_uops: [1, 2, 3, 4, 6, 8][a as usize % 6],
        dsb_sets: [16, 32][b as usize % 2],
        dsb_ways: [4, 8][(b / 2) as usize % 2],
        lsd_uops: [32, 64, 96][c as usize % 3],
        lsd_windows: [4, 8, 12][(c / 3) as usize % 3],
        l1i_sets: [32, 64][(c / 9) as usize % 2],
        l1i_ways: [8, 12][(a / 6) as usize % 2],
        ..FrontendGeometry::skylake()
    }
}

/// The engines under test: the plain optimized path, the optimized
/// engine stepped through its state graph, and the naive oracle.
struct Engines {
    fast: Frontend,
    memo: Frontend,
    naive: NaiveFrontend,
}

impl Engines {
    fn new(config: FrontendConfig) -> Self {
        Engines {
            fast: Frontend::new(config),
            memo: Frontend::new(config),
            naive: NaiveFrontend::new(config),
        }
    }

    fn set_active(&mut self, tid: ThreadId, active: bool) {
        self.fast.set_active(tid, active);
        self.memo.set_active(tid, active);
        self.naive.set_active(tid, active);
    }

    fn flush_thread_state(&mut self, tid: ThreadId) {
        self.fast.flush_thread_state(tid);
        self.memo.flush_thread_state(tid);
        self.naive.flush_thread_state(tid);
    }

    fn reconfigure(&mut self, config: FrontendConfig) {
        self.fast.reconfigure(config);
        self.memo.reconfigure(config);
        self.naive.reconfigure(config);
    }

    /// Flushes one L1I line of `chain` (picked by `pick`) behind the
    /// engines' backs, the way the Table VII L1I attacks do.
    fn flush_l1i_line(&mut self, chain: &BlockChain, pick: u8) {
        let lines: Vec<u64> = chain
            .blocks()
            .iter()
            .flat_map(|b| b.cache_lines().iter().copied())
            .collect();
        let line = lines[pick as usize % lines.len()];
        self.fast.l1i_mut().flush_line(line);
        self.memo.l1i_mut().flush_line(line);
        self.naive.l1i_mut().flush_line(line);
    }

    fn set_external_mite_pressure(&mut self, tid: ThreadId, pick: u8) {
        let pressure = f64::from(pick % 4) * 0.5;
        self.fast.set_external_mite_pressure(tid, pressure);
        self.memo.set_external_mite_pressure(tid, pressure);
        self.naive.set_external_mite_pressure(tid, pressure);
    }

    /// One iteration on all three engines: identical reports and locks.
    fn iterate(&mut self, tid: ThreadId, chain: &BlockChain) -> Result<(), TestCaseError> {
        let fast_report = self.fast.run_iteration(tid, chain);
        let memo_report = *self.memo.smt_walk([chain, chain]).step(tid).0;
        let naive_report = self.naive.run_iteration(tid, chain);
        prop_assert_eq!(fast_report, naive_report, "iteration reports diverged");
        prop_assert_eq!(memo_report, naive_report, "memoized report diverged");
        let locked = self.naive.lsd_locked(tid, chain);
        prop_assert_eq!(
            self.fast.lsd_locked(tid, chain),
            locked,
            "lock state diverged"
        );
        prop_assert_eq!(
            self.memo.lsd_locked(tid, chain),
            locked,
            "memoized lock diverged"
        );
        Ok(())
    }

    fn check_occupancy(&self) -> Result<(), TestCaseError> {
        for t in 0..2u8 {
            let naive = self.naive.dsb_occupancy(t);
            prop_assert_eq!(
                self.fast.dsb().occupancy(t),
                naive,
                "DSB occupancy diverged"
            );
            prop_assert_eq!(
                self.memo.dsb().occupancy(t),
                naive,
                "memoized occupancy diverged"
            );
        }
        Ok(())
    }

    /// End of a schedule: counters agree on all three engines, and the
    /// memoized engine's observable state is the plain engine's —
    /// every DSB set in MRU order, every L1I set, LSD locks and L1I
    /// statistics.
    fn check_final(&self, chains: &[BlockChain]) -> Result<(), TestCaseError> {
        for tid in [ThreadId::T0, ThreadId::T1] {
            let naive = self.naive.counters(tid);
            prop_assert_eq!(
                self.fast.counters(tid),
                naive,
                "cumulative counters diverged"
            );
            prop_assert_eq!(self.memo.counters(tid), naive, "memoized counters diverged");
            for chain in chains {
                prop_assert_eq!(
                    self.memo.lsd_locked(tid, chain),
                    self.fast.lsd_locked(tid, chain)
                );
            }
        }
        let geometry = self.fast.config().geometry;
        for thread in 0..2u8 {
            for window in 0..geometry.dsb_sets as u64 {
                let probe = LineId {
                    thread,
                    window,
                    chunk: 0,
                };
                let fast: Vec<LineId> = self.fast.dsb().set_lines_for(probe).collect();
                let memo: Vec<LineId> = self.memo.dsb().set_lines_for(probe).collect();
                prop_assert_eq!(memo, fast, "memoized DSB set diverged");
            }
        }
        for set in 0..geometry.l1i_sets {
            prop_assert_eq!(
                self.memo.l1i().set_lines(set),
                self.fast.l1i().set_lines(set),
                "memoized L1I set diverged"
            );
        }
        prop_assert_eq!(
            self.memo.l1i().stats(),
            self.fast.l1i().stats(),
            "L1I stats diverged"
        );
        Ok(())
    }
}

fn thread(tsel: u8) -> ThreadId {
    if tsel % 2 == 0 {
        ThreadId::T0
    } else {
        ThreadId::T1
    }
}

proptest! {
    /// Core differential property: arbitrary interleavings of iterations,
    /// thread activity changes, thread and L1I flushes and MITE pressure
    /// changes produce identical reports, lock states and DSB
    /// occupancies on all three engines.
    #[test]
    fn optimized_frontend_matches_naive_reference(
        chain_specs in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..4),
        schedule in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..120),
        policy in any::<u8>(),
        lsd_enabled in any::<bool>(),
        flush_on_partition in any::<bool>(),
    ) {
        let chains: Vec<BlockChain> = chain_specs.into_iter().map(chain_from).collect();
        let mut engines = Engines::new(config_from(policy, lsd_enabled, flush_on_partition));
        for (op, tsel, csel) in schedule {
            let tid = thread(tsel);
            let chain = &chains[csel as usize % chains.len()];
            match op % 10 {
                // Iterations are the bulk (5/10); activity transitions
                // (2/10), thread flushes, L1I flushes and pressure
                // changes share the rest.
                0 => engines.set_active(tid, csel % 2 == 0),
                1 => engines.set_active(tid, true),
                2 => engines.flush_thread_state(tid),
                3 => engines.flush_l1i_line(chain, op / 10),
                4 => engines.set_external_mite_pressure(tid, op / 10),
                _ => engines.iterate(tid, chain)?,
            }
            engines.check_occupancy()?;
        }
        engines.check_final(&chains)?;
    }

    /// Geometry-randomized differential property: under perturbed
    /// frontend geometries (non-default `dsb_line_uops`, `dsb_sets`,
    /// `dsb_ways`, `lsd_uops`, `lsd_windows`, L1I shape) — including
    /// mid-schedule `reconfigure` switches between geometries — the
    /// optimized engine, plain and memoized, must remain bit-identical
    /// to the naive reference. This is the regression net for the fast
    /// path's precomputed 6-µop line splits, for the (chain,
    /// profile-key) plan-cache keying and for the graphs' reconfigure
    /// clear: reusing a stale split, plan or edge diverges the
    /// line/chunk walk and fails on the first report.
    #[test]
    fn optimized_frontend_matches_naive_under_random_geometry(
        chain_specs in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..4),
        geom_specs in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 2..4),
        schedule in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..120),
        policy in any::<u8>(),
        lsd_enabled in any::<bool>(),
        flush_on_partition in any::<bool>(),
    ) {
        let chains: Vec<BlockChain> = chain_specs.into_iter().map(chain_from).collect();
        let geometries: Vec<FrontendGeometry> = geom_specs.into_iter().map(geometry_from).collect();
        let mut engines = Engines::new(FrontendConfig {
            geometry: geometries[0],
            ..config_from(policy, lsd_enabled, flush_on_partition)
        });
        for (op, tsel, csel) in schedule {
            let tid = thread(tsel);
            let chain = &chains[csel as usize % chains.len()];
            match op % 12 {
                // Iterations dominate (7/12); activity transitions,
                // flushes, reconfigures and pressure changes share the
                // rest.
                0 => engines.set_active(tid, csel % 2 == 0),
                1 => engines.flush_thread_state(tid),
                // Reconfigure onto another random geometry (and
                // policy/warm-up): the optimized engine keeps its plan
                // cache across this — stale plans must be unreachable.
                2 => engines.reconfigure(FrontendConfig {
                    geometry: geometries[csel as usize % geometries.len()],
                    ..config_from(csel, tsel % 2 == 0, op % 2 == 0)
                }),
                3 => engines.flush_l1i_line(chain, op / 12),
                4 => engines.set_external_mite_pressure(tid, op / 12),
                _ => engines.iterate(tid, chain)?,
            }
            engines.check_occupancy()?;
        }
        engines.check_final(&chains)?;
    }

    /// `run_iterations`' steady-state collapse also holds under perturbed
    /// geometries: counts exact, cycles up to f64 summation order.
    #[test]
    fn run_iterations_matches_naive_loop_under_random_geometry(
        spec in (any::<u8>(), any::<u8>(), any::<u8>()),
        geom in (any::<u8>(), any::<u8>(), any::<u8>()),
        n in 1u64..300,
        policy in any::<u8>(),
        lsd_enabled in any::<bool>(),
    ) {
        let chain = chain_from(spec);
        let config = FrontendConfig {
            geometry: geometry_from(geom),
            lsd_warmup_iterations: FrontendConfig::default().lsd_warmup_iterations,
            ..config_from(policy, lsd_enabled, true)
        };
        let mut fast = Frontend::new(config);
        let mut naive = NaiveFrontend::new(config);
        let total_fast = fast.run_iterations(ThreadId::T0, &chain, n);
        let total_naive = naive.run_iterations(ThreadId::T0, &chain, n);
        prop_assert_eq!(total_fast.total_uops(), total_naive.total_uops());
        prop_assert_eq!(total_fast.lsd_uops, total_naive.lsd_uops);
        prop_assert_eq!(total_fast.dsb_uops, total_naive.dsb_uops);
        prop_assert_eq!(total_fast.mite_uops, total_naive.mite_uops);
        prop_assert_eq!(total_fast.dsb_evictions, total_naive.dsb_evictions);
        prop_assert_eq!(total_fast.lsd_flushes, total_naive.lsd_flushes);
        let scale = total_naive.cycles.abs().max(1.0);
        prop_assert!(
            (total_fast.cycles - total_naive.cycles).abs() <= 1e-9 * scale,
            "cycles diverged: {} vs {}",
            total_fast.cycles,
            total_naive.cycles
        );
    }

    /// `run_iterations`' period-k steady-state collapse is semantically
    /// the plain loop: counts match exactly, cycles up to f64 summation
    /// order.
    #[test]
    fn run_iterations_matches_naive_loop(
        spec in (any::<u8>(), any::<u8>(), any::<u8>()),
        n in 1u64..400,
        policy in any::<u8>(),
        lsd_enabled in any::<bool>(),
    ) {
        let chain = chain_from(spec);
        // Default warm-up only: with longer warm-ups the steady-state rule
        // intentionally diverges from the plain loop (the documented
        // approximation characterized by
        // `steady_state_collapse_can_freeze_lsd_warmup` in leaky_frontend).
        let config = FrontendConfig {
            lsd_warmup_iterations: FrontendConfig::default().lsd_warmup_iterations,
            ..config_from(policy, lsd_enabled, true)
        };
        let mut fast = Frontend::new(config);
        let mut naive = NaiveFrontend::new(config);
        let total_fast = fast.run_iterations(ThreadId::T0, &chain, n);
        let total_naive = naive.run_iterations(ThreadId::T0, &chain, n);
        prop_assert_eq!(total_fast.total_uops(), total_naive.total_uops());
        prop_assert_eq!(total_fast.lsd_uops, total_naive.lsd_uops);
        prop_assert_eq!(total_fast.dsb_uops, total_naive.dsb_uops);
        prop_assert_eq!(total_fast.mite_uops, total_naive.mite_uops);
        prop_assert_eq!(total_fast.dsb_evictions, total_naive.dsb_evictions);
        prop_assert_eq!(total_fast.lsd_flushes, total_naive.lsd_flushes);
        prop_assert_eq!(total_fast.dsb_to_mite_switches, total_naive.dsb_to_mite_switches);
        prop_assert_eq!(total_fast.l1i_accesses, total_naive.l1i_accesses);
        prop_assert_eq!(total_fast.l1i_misses, total_naive.l1i_misses);
        let scale = total_naive.cycles.abs().max(1.0);
        prop_assert!(
            (total_fast.cycles - total_naive.cycles).abs() <= 1e-9 * scale,
            "cycles diverged: {} vs {}",
            total_fast.cycles,
            total_naive.cycles
        );
        // After the run both engines hold the same lock state, so resuming
        // from steady state stays bit-identical too.
        prop_assert_eq!(
            fast.lsd_locked(ThreadId::T0, &chain),
            naive.lsd_locked(ThreadId::T0, &chain)
        );
        let fast_next = fast.run_iteration(ThreadId::T0, &chain);
        let naive_next = naive.run_iteration(ThreadId::T0, &chain);
        prop_assert_eq!(fast_next, naive_next, "post-run state diverged");
    }

    /// Myers bit-parallel edit distance (used by `error_rate`) agrees with
    /// the Wagner-Fischer row DP on arbitrary bit strings.
    #[test]
    fn bit_parallel_edit_distance_matches_dp(
        a in proptest::collection::vec(any::<bool>(), 0..300),
        b in proptest::collection::vec(any::<bool>(), 0..300),
    ) {
        use leaky_frontends_repro::stats::{edit_distance, edit_distance_bits};
        prop_assert_eq!(edit_distance_bits(&a, &b), edit_distance(&a, &b));
    }

    /// Message framing round-trip: bytes → bits is lossless and MSB-first;
    /// bits → bytes keeps every full byte and drops exactly the documented
    /// trailing partial byte (`len % 8` bits), so appending up to 7 junk
    /// bits to a received stream never corrupts the decoded payload.
    #[test]
    fn byte_bit_framing_roundtrips_with_trailing_truncation(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
        trailing in proptest::collection::vec(any::<bool>(), 0..8),
    ) {
        use leaky_frontends_repro::attacks::params::{bits_to_bytes, bytes_to_bits};
        let bits = bytes_to_bits(&bytes);
        prop_assert_eq!(bits.len(), bytes.len() * 8);
        // MSB-first framing: bit 0 of the stream is bit 7 of byte 0.
        if let Some(&first) = bytes.first() {
            prop_assert_eq!(bits[0], first & 0x80 != 0);
            prop_assert_eq!(bits[7], first & 0x01 != 0);
        }
        prop_assert_eq!(bits_to_bytes(&bits), bytes.clone());
        // Trailing bits that do not fill a byte are dropped — and only
        // they are.
        let mut padded = bits.clone();
        padded.extend_from_slice(&trailing);
        prop_assert_eq!(bits_to_bytes(&padded), bytes.clone());
        // The truncation boundary is exact: a *full* extra byte survives.
        let mut extended = bits;
        extended.extend(std::iter::repeat_n(true, 8));
        let mut expect = bytes;
        expect.push(0xff);
        prop_assert_eq!(bits_to_bytes(&extended), expect);
    }
}
