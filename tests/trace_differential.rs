//! Differential property tests for the trace layer (the zero-cost
//! contract's functional half): a [`TraceHook`], in any mode, must
//! never change what the frontend computes. Reports are bit-identical
//! with tracing off, summary-traced and events-traced, and a drained
//! event stream folds to exactly the summary the summary hook kept
//! online. A walk through the SMT state graph re-emits an edge's
//! recorded events instead of simulating, in one-step walks and in
//! `Core::run_concurrent`, so both streams must be the plain path's,
//! event for event.

use leaky_frontends_repro::cpu::{Core, LoopRun, MicrocodePatch, ProcessorModel, ThreadWork};
use leaky_frontends_repro::frontend::{
    Frontend, FrontendConfig, SmtDsbPolicy, ThreadId, TraceHook, TraceMode,
};
use leaky_frontends_repro::isa::{same_set_chain, Alignment, BlockChain, DsbSet};
use leaky_frontends_repro::trace::{StallSummary, TraceEvent};
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

    /// Stepping two threads through the SMT state graph emits
    /// exactly the plain path's event stream under the events hook and
    /// folds to exactly its summary under the summary hook — also when
    /// the hooks are installed mid-run, over edges recorded untraced.
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
            let walked = *ms.smt_walk([ch, ch]).step(tid.index()).0;
            prop_assert_eq!(a, walked, "memoized report diverged");
            prop_assert_eq!(a, pe.run_iteration(tid, ch), "events-traced report diverged");
            let walked = *me.smt_walk([ch, ch]).step(tid.index()).0;
            prop_assert_eq!(a, walked, "memoized report diverged");
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

    /// `Core::run_concurrent` under the events and summary hooks against
    /// a plain frontend, over random chain pairs with lopsided iteration
    /// counts whose long tails follow self-loop edges.
    #[test]
    fn run_concurrent_replays_the_plain_event_stream(
        specs in proptest::collection::vec((0usize..3, 0u8..4, 1usize..10, any::<bool>()), 2..3),
        runs in proptest::collection::vec((100u64..500, 1u64..30, any::<bool>()), 1..4),
        lsd_enabled in any::<bool>(),
        shared in any::<bool>(),
        seed in 0u64..1_000,
    ) {
        let chains: Vec<BlockChain> = specs
            .iter()
            .map(|&(b, s, n, m)| chain(b, s, n, m))
            .collect();
        let runs: Vec<(u64, u64)> = runs
            .into_iter()
            .map(|(big, small, flip)| if flip { (small, big) } else { (big, small) })
            .collect();
        let config = concurrent_config(lsd_enabled, shared);
        check_concurrent_tracing(config, seed, [&chains[0], &chains[1]], &runs)?;
    }
}

fn concurrent_config(lsd_enabled: bool, shared: bool) -> FrontendConfig {
    FrontendConfig {
        lsd_enabled,
        dsb_policy: if shared {
            SmtDsbPolicy::Shared
        } else {
            SmtDsbPolicy::Competitive
        },
        ..FrontendConfig::default()
    }
}

fn run_pair(core: &mut Core, chains: [&BlockChain; 2], (p, q): (u64, u64)) -> (LoopRun, LoopRun) {
    core.run_concurrent(
        ThreadWork {
            chain: chains[0],
            iterations: p,
        },
        ThreadWork {
            chain: chains[1],
            iterations: q,
        },
    )
}

/// The plain reference of one `run_concurrent`: steps a plain frontend
/// in the thread order that the `Iteration` events of `stream` record
/// (one per step), with `run_concurrent`'s activity transitions.
fn replay_plain(
    frontend: &mut Frontend,
    chains: [&BlockChain; 2],
    (p, q): (u64, u64),
    stream: &[TraceEvent],
) -> Result<(), TestCaseError> {
    let tids = [ThreadId::T0, ThreadId::T1];
    frontend.set_active(ThreadId::T0, true);
    frontend.set_active(ThreadId::T1, true);
    let mut remaining = [p, q];
    for event in stream {
        if let TraceEvent::Iteration { thread, .. } = *event {
            let t = usize::from(thread);
            prop_assert!(remaining[t] > 0, "thread {} stepped past its work", t);
            frontend.run_iteration(tids[t], chains[t]);
            remaining[t] -= 1;
            if remaining[t] == 0 {
                frontend.set_active(tids[t], false);
            }
        }
    }
    prop_assert_eq!(remaining, [0, 0], "the stream is missing steps");
    Ok(())
}

fn fold(stream: &[TraceEvent]) -> StallSummary {
    let mut summary = StallSummary::default();
    for event in stream {
        summary.fold(event);
    }
    summary
}

/// Runs `runs` on four cores (events hook throughout, summary hook
/// throughout, and an events and a summary hook installed only for the
/// last run, over edges recorded untraced) and a plain frontend that
/// replays the recorded thread order. Returns the followed steps of the
/// core traced throughout, and those of the late events-traced core in
/// the last run.
fn check_concurrent_tracing(
    config: FrontendConfig,
    seed: u64,
    chains: [&BlockChain; 2],
    runs: &[(u64, u64)],
) -> Result<(u64, u64), TestCaseError> {
    let core = |hook| {
        let mut core = Core::with_frontend_config(
            ProcessorModel::gold_6226(),
            MicrocodePatch::Patch1,
            config,
            seed,
        );
        core.set_trace(hook);
        core
    };
    let mut events = core(TraceHook::new(TraceMode::Events));
    let mut summary = core(TraceHook::new(TraceMode::Summary));
    let mut late_events = core(TraceHook::Off);
    let mut late_summary = core(TraceHook::Off);
    let mut plain = Frontend::new(config);
    plain.set_trace(TraceHook::new(TraceMode::Events));
    let mut last_start = 0;
    let mut late_followed = 0;
    for (i, &counts) in runs.iter().enumerate() {
        if i + 1 == runs.len() {
            late_followed = late_events.frontend().memo_stats().followed;
            late_events.set_trace(TraceHook::new(TraceMode::Events));
            late_summary.set_trace(TraceHook::new(TraceMode::Summary));
        }
        last_start = events.frontend().trace().events().map_or(0, <[_]>::len);
        let expected = run_pair(&mut events, chains, counts);
        prop_assert_eq!(expected, run_pair(&mut summary, chains, counts));
        prop_assert_eq!(expected, run_pair(&mut late_events, chains, counts));
        prop_assert_eq!(expected, run_pair(&mut late_summary, chains, counts));
        let stream = &events.frontend().trace().events().unwrap_or_default()[last_start..];
        replay_plain(&mut plain, chains, counts, stream)?;
    }
    let stream = events.frontend().trace().events().unwrap_or_default();
    prop_assert_eq!(
        stream,
        plain.trace().events().unwrap_or_default(),
        "run_concurrent event stream diverged"
    );
    prop_assert_eq!(
        summary.frontend().trace().summary(),
        Some(fold(stream)),
        "run_concurrent summary diverged"
    );
    let last = &stream[last_start..];
    prop_assert_eq!(
        late_events.frontend().trace().events().unwrap_or_default(),
        last,
        "an untraced edge served a traced step"
    );
    prop_assert_eq!(
        late_summary.frontend().trace().summary(),
        Some(fold(last)),
        "an untraced edge served a summary-traced step"
    );
    Ok((
        events.frontend().memo_stats().followed,
        late_events.frontend().memo_stats().followed - late_followed,
    ))
}

#[test]
fn stationary_tails_re_emit_their_events() {
    // The SGX MT shape: a long receiver against a short sender on a
    // machine without the LSD, then the mirror image, then again. Every
    // tail follows a self-loop edge, recorded untraced by the late cores
    // until their hooks go in.
    let recv = chain(0, 0, 6, false);
    let send = chain(1, 0, 3, false);
    for shared in [false, true] {
        let runs = [(400, 20), (20, 400), (400, 20)];
        let (traced, late) =
            check_concurrent_tracing(concurrent_config(false, shared), 7, [&recv, &send], &runs)
                .unwrap();
        assert!(traced > 600, "tails must follow edges, got {traced}");
        assert!(late > 300, "the traced tail must follow edges, got {late}");
    }
}
