//! The exact repeated-addition helpers against their naive loops.
//!
//! `Core::run_concurrent` serves a lone thread's self-loop tail in one
//! step through these helpers, and its outputs are compared bit for bit
//! with the step-by-step loop. So each helper must equal `n` plain calls
//! exactly: compared by `to_bits` or by full state, never within a
//! tolerance.

use leaky_frontends_repro::frontend::IterationReport;
use leaky_frontends_repro::power::Rapl;
use leaky_frontends_repro::stats::add_repeated;
use proptest::prelude::*;

/// A positive normal value with a random significand from `bits` in
/// binade `2^(exp - 1023)`.
fn normal(exp: u64, bits: u64) -> f64 {
    f64::from_bits(exp << 52 | bits & ((1 << 52) - 1))
}

/// The spacing of the binade holding `s` (a normal, positive value).
fn spacing(s: f64) -> f64 {
    let exp = s.to_bits() >> 52;
    f64::from_bits((exp - 52) << 52)
}

/// An `(s, x)` pair of one of the shapes where repeated addition is
/// delicate: `a` and `b` are raw random words.
fn operands(shape: u8, a: u64, b: u64) -> (f64, f64) {
    let exp = 900 + a % 200; // binades 2^-123 ..= 2^76
    let s = normal(exp, a >> 8);
    match shape {
        // Random magnitudes, x at most 2^40 below s.
        0 => (s, normal(exp - b % 40, b >> 8)),
        // A tie: x an odd multiple of half the spacing.
        1 => (s, (2 * (b % 64) + 1) as f64 * spacing(s) / 2.0),
        // Just under the binade top, with x a few spacings.
        2 => {
            let top = f64::from_bits((exp + 1) << 52);
            let u = spacing(s);
            (
                top - (1 + a % 16) as f64 * u,
                (b % 7) as f64 * u + u / (1 + b % 3) as f64,
            )
        }
        // x = 0.
        3 => (s, 0.0),
        // x ≫ s.
        4 => (s, s * f64::from_bits((1023 + 10 + b % 30) << 52)),
        // Tiny or subnormal s and x.
        _ => (f64::from_bits(a % (1 << 54)), f64::from_bits(b % (1 << 44))),
    }
}

fn naive(mut s: f64, x: f64, n: u64) -> f64 {
    for _ in 0..n {
        s += x;
    }
    s
}

fn report_bits(r: &IterationReport) -> [u64; 12] {
    [
        r.cycles.to_bits(),
        r.lsd_uops,
        r.dsb_uops,
        r.mite_uops,
        r.lcp_stall_cycles.to_bits(),
        r.switch_penalty_cycles.to_bits(),
        r.crossing_penalty_cycles.to_bits(),
        r.dsb_to_mite_switches,
        r.dsb_evictions,
        r.lsd_flushes,
        r.l1i_misses,
        r.l1i_accesses,
    ]
}

fn report(a: u64, b: u64, shape: u8) -> (IterationReport, IterationReport) {
    let (s, x) = operands(shape, a, b);
    let (s2, x2) = operands((shape + 1) % 6, b, a);
    let start = IterationReport {
        cycles: s,
        lsd_uops: a % 1000,
        mite_uops: b % 1000,
        switch_penalty_cycles: s2,
        crossing_penalty_cycles: x2,
        l1i_accesses: a % 77,
        ..IterationReport::default()
    };
    let step = IterationReport {
        cycles: x,
        dsb_uops: b % 13,
        mite_uops: a % 5,
        lcp_stall_cycles: x2,
        switch_penalty_cycles: x,
        crossing_penalty_cycles: x2,
        dsb_to_mite_switches: a % 3,
        dsb_evictions: b % 4,
        lsd_flushes: 1,
        l1i_misses: a % 2,
        l1i_accesses: 6,
        ..IterationReport::default()
    };
    (start, step)
}

proptest! {
    /// `add_repeated` equals `n` sequential `+=`, bit for bit.
    #[test]
    fn add_repeated_matches_sequential_adds(
        shape in 0u8..6,
        a in any::<u64>(),
        b in any::<u64>(),
        n in 0u64..3000,
    ) {
        let (s, x) = operands(shape, a, b);
        prop_assert_eq!(
            add_repeated(s, x, n).to_bits(),
            naive(s, x, n).to_bits(),
            "s = {:e}, x = {:e}, n = {}", s, x, n
        );
    }

    /// `IterationReport::add_repeated` equals `n` sequential `+=`.
    #[test]
    fn report_add_repeated_matches_sequential_adds(
        shape in 0u8..6,
        a in any::<u64>(),
        b in any::<u64>(),
        n in 0u64..2000,
    ) {
        let (start, step) = report(a, b, shape);
        let mut bulk = start;
        bulk.add_repeated(&step, n);
        let mut plain = start;
        for _ in 0..n {
            plain += step;
        }
        prop_assert_eq!(report_bits(&bulk), report_bits(&plain));
    }

    /// `Rapl::deposit_repeated` leaves the whole counter state (exact and
    /// visible energy, last update boundary, jitter RNG) where `n` calls
    /// of `deposit` do, over runs that cross several 50 µs boundaries,
    /// with times that advance evenly or in bursts of equal times.
    #[test]
    fn rapl_deposit_repeated_matches_sequential_deposits(
        seed in 0u64..1_000,
        warmup in 0u64..20,
        joules in 1e-9f64..1e-5,
        dt in 1e-9f64..2e-7,
        burst in 1u64..4,
        n in 0u64..3000,
    ) {
        let mut bulk = Rapl::new(seed);
        for i in 0..warmup {
            bulk.deposit(joules * i as f64, i as f64 * 7e-6);
        }
        let mut plain = bulk.clone();
        let t0 = warmup as f64 * 7e-6;
        let now_at = |k: u64| t0 + (k / burst) as f64 * dt;
        bulk.deposit_repeated(joules, n, now_at);
        for k in 1..=n {
            plain.deposit(joules, now_at(k));
        }
        prop_assert_eq!(bulk.exact_uj().to_bits(), plain.exact_uj().to_bits());
        prop_assert!(bulk == plain, "{:?} vs {:?}", bulk, plain);
        let later = now_at(n) + 1e-3;
        prop_assert_eq!(bulk.read(later), plain.read(later));
    }
}
