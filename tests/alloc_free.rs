//! A warm MT batch allocates nothing (DESIGN.md §6, §10).
//!
//! The MT channels (§V-A eviction, §V-B misalignment) spend each bit on
//! batches of `Core::run_concurrent` beside solo `Core::run_loop`s, and
//! their SGX twins flush the sender's thread state before each
//! contended batch. Once the chain pair's state graph and its edge notes
//! are recorded, none of these calls may touch the heap: the walk's
//! entry and exit, the activation flush, the followed steps and the solo
//! history all reuse buffers the frontend owns.
//!
//! A counting global allocator counts the allocations of the current
//! thread, so the other tests of this binary cannot disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use leaky_cpu::{Core, MicrocodePatch, ProcessorModel, ThreadWork};
use leaky_frontend::{ThreadId, UarchProfile};
use leaky_frontends::ChannelParams;
use leaky_isa::{Alignment, BlockChain, CodeRegion, DsbSet, FrontendGeometry};

/// The system allocator, counting each allocation on the calling
/// thread. `GlobalAlloc`'s provided `alloc_zeroed` and `realloc` go
/// through `alloc`, so they are counted too.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: both calls are forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a const-initialized
// thread-local `Cell` without a destructor, so touching it never
// allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // A thread being torn down may allocate after its counter is gone.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract for `alloc` is passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from `alloc` above, which
        // hands out `System`'s blocks.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations on this thread while `f` runs.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// The MT channel layout: `d` aligned receiver blocks in DSB set 3 and
/// the 1-encoding's sender blocks, on the channel's code regions.
fn chain_pair(params: &ChannelParams, misaligned: bool) -> [BlockChain; 2] {
    let geom = FrontendGeometry::skylake();
    let set = DsbSet::new(3);
    let recv = CodeRegion::with_geometry(0x0041_8000, geom).same_set_chain(
        set,
        params.d,
        Alignment::Aligned,
    );
    let (sender, alignment) = if misaligned {
        (params.sender_blocks_misalignment(), Alignment::Misaligned)
    } else {
        (
            params.sender_blocks_eviction(geom.dsb_ways),
            Alignment::Aligned,
        )
    };
    let send = CodeRegion::with_geometry(0x0082_0000, geom).same_set_chain(set, sender, alignment);
    [recv, send]
}

fn batch(core: &mut Core, [recv, send]: &[BlockChain; 2], p: u64, q: u64) {
    core.run_concurrent(
        ThreadWork {
            chain: recv,
            iterations: p,
        },
        ThreadWork {
            chain: send,
            iterations: q,
        },
    );
}

/// Runs `call` 100 times on `core` and returns how many of the calls
/// were warm, walking only recorded edges (no step simulated), and how
/// many allocations those warm calls made.
fn warm_calls(core: &mut Core, mut call: impl FnMut(&mut Core)) -> (u64, u64) {
    let (mut warm, mut allocations) = (0, 0);
    for _ in 0..100 {
        let simulated = core.frontend().memo_stats().simulated;
        let n = allocations_in(|| call(core));
        if core.frontend().memo_stats().simulated == simulated {
            warm += 1;
            allocations += n;
        }
    }
    (warm, allocations)
}

/// 100 calls each, in turn, of a contended batch, a solo receiver loop
/// and an SGX MT 1-bit's flush and contended batch; per phase, the
/// warm calls and their allocations (see [`warm_calls`]).
fn phases(core: &mut Core, chains: &[BlockChain; 2], p: u64, q: u64) -> [(u64, u64); 3] {
    [
        warm_calls(core, |core| batch(core, chains, p, q)),
        warm_calls(core, |core| {
            core.run_loop(ThreadId::T0, &chains[0], p);
        }),
        warm_calls(core, |core| {
            core.frontend_mut().flush_thread_state(ThreadId::T1);
            batch(core, chains, p, q);
        }),
    ]
}

#[test]
fn warm_mt_batches_do_not_allocate() {
    // A default MT batch: p / 10 receiver steps against sender steps
    // balanced by block count (`Mt::batch`): 100 + 100 for eviction
    // (d = 6, 3 sender blocks), 100 + 83 for misalignment (d = 5, 3).
    let cases = [
        ("eviction", ChannelParams::mt_defaults(), false, 100),
        (
            "misalignment",
            ChannelParams::mt_misalignment_defaults(),
            true,
            83,
        ),
    ];
    for (name, params, misaligned, q) in cases {
        let chains = chain_pair(&params, misaligned);
        let p = params.p / 10;
        let mut core = Core::with_profile(
            ProcessorModel::gold_6226(),
            MicrocodePatch::Patch1,
            &UarchProfile::skylake(),
            7,
        );
        // The first pass records most of the graph's states and edges
        // and their notes. Rare interleavings still add a state now and
        // then, and recording one allocates, so only the calls that
        // walk recorded edges alone count.
        phases(&mut core, &chains, p, q);
        let names = [
            "run_concurrent",
            "run_loop",
            "flush_thread_state + run_concurrent",
        ];
        for (phase, (warm, allocations)) in names.into_iter().zip(phases(&mut core, &chains, p, q))
        {
            assert!(
                warm >= 95,
                "{name}: {phase}: only {warm} of 100 calls were warm"
            );
            assert_eq!(
                allocations, 0,
                "{name}: {phase}: {warm} warm calls allocated"
            );
        }
    }
}
