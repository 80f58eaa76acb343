//! Exact repeated floating-point addition.
//!
//! A simulator that serves `n` identical steps at once must still leave
//! every `f64` accumulator exactly where `n` sequential `s += x` would:
//! the clocks, energies and cycle totals it produces are compared bit for
//! bit. `s + n as f64 * x` is not that value (each sequential add rounds),
//! but the sequence of rounded sums is regular within one binade, which
//! [`add_repeated`] exploits.

/// Returns exactly what `n` sequential `s += x` leave in `s`, in work
/// proportional to the number of binades the sum crosses rather than to
/// `n`.
///
/// The argument, for finite `s, x ≥ 0` under round-to-nearest-even: within
/// one binade `[2^e, 2^(e+1))` every value is a multiple of the spacing
/// `u`, and so is the binade's top `2^(e+1)`. As `s` is itself a multiple
/// of `u`, `s + x` rounds to `s + δ`, where `δ` is `x` rounded to a
/// multiple of `u` — the same `δ` for every `s` in the binade, except when
/// `x` is an odd multiple of `u/2` (a tie), where the even-significand
/// rule makes `δ` depend on the parity of `s / u`. A tie's result is even,
/// so from the second add on a tie repeats the same `δ` too. The helper
/// therefore computes `s + x` and `(s + x) + x`; when both stay in `s`'s
/// binade and their increments agree, every further add adds the same `δ`
/// until the sum would reach the top, and it jumps `k` adds at once with
/// `k·δ < top − s`. Within a binade the bit patterns are consecutive
/// integers, so the jump is an integer addition on the bits. Anything
/// else (a binade crossing, disagreeing increments, a negative, infinite
/// or NaN operand) takes one plain add and looks again.
///
/// # Examples
///
/// ```
/// use leaky_stats::add_repeated;
///
/// let mut naive = 0.0_f64;
/// for _ in 0..1_000 {
///     naive += 0.1;
/// }
/// assert_eq!(add_repeated(0.0, 0.1, 1_000).to_bits(), naive.to_bits());
/// assert_ne!(naive, 1_000.0 * 0.1);
/// ```
pub fn add_repeated(mut s: f64, x: f64, mut n: u64) -> f64 {
    while n > 0 {
        let s1 = s + x;
        let s2 = s1 + x;
        let (b, b1, b2) = (s.to_bits(), s1.to_bits(), s2.to_bits());
        let binade = b >> 52;
        // `x >= 0` and a clear sign bit on a finite `s` (binade below the
        // infinity/NaN exponent) make `b <= b1 <= b2`.
        let same_binade = x >= 0.0 && binade < 0x7ff && b1 >> 52 == binade && b2 >> 52 == binade;
        if n > 1 && same_binade && b1 - b == b2 - b1 {
            let delta = b1 - b;
            if delta == 0 {
                // `x` rounds away entirely: no add moves `s`.
                return s;
            }
            // Steps of `delta` that keep the sum strictly below the top;
            // at least 2, since `s2` is below it.
            let room = ((binade + 1) << 52) - b;
            let k = ((room - 1) / delta).min(n);
            s = f64::from_bits(b + k * delta);
            n -= k;
        } else {
            s = s1;
            n -= 1;
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(mut s: f64, x: f64, n: u64) -> f64 {
        for _ in 0..n {
            s += x;
        }
        s
    }

    fn check(s: f64, x: f64, n: u64) {
        assert_eq!(
            add_repeated(s, x, n).to_bits(),
            naive(s, x, n).to_bits(),
            "s = {s:e}, x = {x:e}, n = {n}"
        );
    }

    #[test]
    fn matches_the_plain_loop_on_edge_cases() {
        let ulp_of_one = f64::EPSILON;
        for n in [0, 1, 2, 3, 7, 1_000, 100_000] {
            check(0.0, 0.1, n);
            check(1.0, 0.0, n);
            check(1.0, ulp_of_one / 2.0, n); // a tie at the smallest δ
            check(1.0 + ulp_of_one, ulp_of_one / 2.0, n); // odd start
            check(1.0, 1.5 * ulp_of_one, n); // a tie with δ = 2u
            check(1.0, 2.5 * ulp_of_one, n);
            check(2.0 - ulp_of_one, ulp_of_one, n); // just under the top
            check(1.0, 1e6, n); // x ≫ s
            check(f64::from_bits(1), f64::from_bits(3), n); // subnormal
            check(f64::MIN_POSITIVE - f64::from_bits(5), f64::from_bits(1), n);
            check(123_456.789, 19.25, n);
            check(f64::MAX / 2.0, f64::MAX / 4.0, n); // overflow to ∞
            check(1.0, -0.25, n); // negative x: plain adds
            check(-0.0, 0.0, n);
        }
    }

    #[test]
    fn long_runs_cross_many_binades_exactly() {
        // Clock- and energy-like sums over a million steps.
        check(0.0, 19.3, 1_000_000);
        check(1e8, 0.017, 1_000_000);
    }
}
