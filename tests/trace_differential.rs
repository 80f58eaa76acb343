//! Differential property tests for the trace layer (the zero-cost
//! contract's functional half): a [`TraceHook`], in any mode, must
//! never change what the frontend computes. Reports are bit-identical
//! with tracing off, summary-traced and events-traced, and a drained
//! event stream folds to exactly the summary the summary hook kept
//! online. The SMT transition memo replays recorded events instead of
//! simulating, so its stream must be the plain path's, event for event.

use leaky_frontends_repro::frontend::{Frontend, FrontendConfig, ThreadId, TraceHook, TraceMode};
use leaky_frontends_repro::isa::{same_set_chain, Alignment, BlockChain, DsbSet};
use proptest::prelude::*;

/// Distinct chain base addresses (different code pages, so chains from
/// different bases never alias in the DSB).
const BASES: [u64; 3] = [0x0041_8000, 0x0082_0000, 0x00c3_0000];

fn chain(base: usize, set: u8, blocks: usize, misaligned: bool) -> BlockChain {
    same_set_chain(
        BASES[base],
        DsbSet::new(set),
        blocks,
        if misaligned {
            Alignment::Misaligned
        } else {
            Alignment::Aligned
        },
    )
}

proptest! {
    /// Three frontends run an identical random schedule of chains over
    /// one or two threads; the untraced one is the reference, and both
    /// traced ones must reproduce its reports exactly while the two
    /// trace modes must agree on the folded summary.
    #[test]
    fn tracing_is_invisible_to_the_simulation(
        specs in proptest::collection::vec(
            (0usize..3, 0u8..8, 1usize..10, any::<bool>()), 1..4),
        schedule in proptest::collection::vec(
            (any::<bool>(), 0usize..4, 1u64..40), 1..24),
        smt in any::<bool>(),
    ) {
        let chains: Vec<BlockChain> = specs
            .iter()
            .map(|&(b, s, n, m)| chain(b, s, n, m))
            .collect();
        let mut off = Frontend::new(FrontendConfig::default());
        let mut summary = Frontend::new(FrontendConfig::default());
        summary.set_trace(TraceHook::new(TraceMode::Summary));
        let mut events = Frontend::new(FrontendConfig::default());
        events.set_trace(TraceHook::new(TraceMode::Events));
        if smt {
            for fe in [&mut off, &mut summary, &mut events] {
                fe.set_active(ThreadId::T0, true);
                fe.set_active(ThreadId::T1, true);
            }
        }
        for &(t1, ci, iters) in &schedule {
            let tid = if t1 && smt { ThreadId::T1 } else { ThreadId::T0 };
            let ch = &chains[ci % chains.len()];
            let a = off.run_iterations(tid, ch, iters);
            let b = summary.run_iterations(tid, ch, iters);
            let c = events.run_iterations(tid, ch, iters);
            prop_assert_eq!(a, b, "summary-traced report diverged");
            prop_assert_eq!(a, c, "events-traced report diverged");
        }
        let s = summary.take_trace().summary().expect("summary mode folds online");
        let e = events.take_trace().summary().expect("events mode folds on demand");
        prop_assert_eq!(s, e, "event stream does not fold to the online summary");
    }

    /// Stepping two threads through the SMT transition memo emits
    /// exactly the plain path's event stream under the events hook and
    /// folds to exactly its summary under the summary hook — also when
    /// the hooks are installed mid-run, over transitions recorded
    /// untraced.
    #[test]
    fn memoized_steps_replay_the_plain_event_stream(
        specs in proptest::collection::vec(
            (0usize..3, 0u8..8, 1usize..10, any::<bool>()), 1..4),
        schedule in proptest::collection::vec((any::<u8>(), 0usize..4), 1..200),
        untraced_prefix in 0usize..100,
    ) {
        let chains: Vec<BlockChain> = specs
            .iter()
            .map(|&(b, s, n, m)| chain(b, s, n, m))
            .collect();
        let mut plain_summary = Frontend::new(FrontendConfig::default());
        let mut memo_summary = Frontend::new(FrontendConfig::default());
        let mut plain_events = Frontend::new(FrontendConfig::default());
        let mut memo_events = Frontend::new(FrontendConfig::default());
        let mut all = [&mut plain_summary, &mut memo_summary, &mut plain_events, &mut memo_events];
        for fe in &mut all {
            fe.set_active(ThreadId::T0, true);
            fe.set_active(ThreadId::T1, true);
        }
        let mut sibling_active = true;
        for (i, &(op, ci)) in schedule.iter().enumerate() {
            if i == untraced_prefix.min(schedule.len() - 1) {
                let [ps, ms, pe, me] = &mut all;
                ps.set_trace(TraceHook::new(TraceMode::Summary));
                ms.set_trace(TraceHook::new(TraceMode::Summary));
                pe.set_trace(TraceHook::new(TraceMode::Events));
                me.set_trace(TraceHook::new(TraceMode::Events));
            }
            if op % 8 == 0 {
                // The sibling leaves or rejoins: partition transitions.
                sibling_active = !sibling_active;
                for fe in &mut all {
                    fe.set_active(ThreadId::T1, sibling_active);
                }
                continue;
            }
            let tid = if op % 2 == 1 { ThreadId::T1 } else { ThreadId::T0 };
            let ch = &chains[ci % chains.len()];
            let [ps, ms, pe, me] = &mut all;
            let a = ps.run_iteration(tid, ch);
            prop_assert_eq!(a, ms.run_iteration_memoized(tid, ch), "memoized report diverged");
            prop_assert_eq!(a, pe.run_iteration(tid, ch), "events-traced report diverged");
            prop_assert_eq!(a, me.run_iteration_memoized(tid, ch), "memoized report diverged");
        }
        prop_assert_eq!(
            memo_events.trace().events(),
            plain_events.trace().events(),
            "memoized event stream diverged"
        );
        let plain = plain_summary.take_trace().summary().expect("summary mode folds online");
        let memo = memo_summary.take_trace().summary().expect("summary mode folds online");
        prop_assert_eq!(&memo, &plain, "memoized summary diverged");
        let folded = memo_events.take_trace().summary().expect("events mode folds on demand");
        prop_assert_eq!(&folded, &plain, "memoized events do not fold to the summary");
    }
}
