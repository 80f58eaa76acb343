//! Attack parameters (paper §V) and message patterns (§VI-D).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Parameters shared by the covert channels, named as in the paper (§V):
///
/// * `N` — DSB ways (8, fixed by geometry);
/// * `d` — instruction mix blocks accessed by the receiver, `d < N + 1`;
/// * `m_total` — the misalignment channels' `M`: total blocks used by sender
///   plus receiver, `M < N + 1`;
/// * `p` — receiver iterations (init + decode);
/// * `q` — sender iterations (encode);
/// * `r` — LCP instructions for slow-switch channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelParams {
    /// Receiver way count `d`.
    pub d: usize,
    /// Misalignment total `M` (ignored by eviction channels).
    pub m_total: usize,
    /// Receiver iterations `p`.
    pub p: u64,
    /// Sender iterations `q`.
    pub q: u64,
    /// LCP instruction count `r` (slow-switch only).
    pub r: usize,
}

impl ChannelParams {
    /// Non-MT eviction defaults (§VI: d = 6, p = q = 10).
    pub const fn eviction_defaults() -> Self {
        ChannelParams {
            d: 6,
            m_total: 8,
            p: 10,
            q: 10,
            r: 16,
        }
    }

    /// Non-MT misalignment defaults (§VI: d = 5, M = 8, p = q = 10).
    pub const fn misalignment_defaults() -> Self {
        ChannelParams {
            d: 5,
            m_total: 8,
            p: 10,
            q: 10,
            r: 16,
        }
    }

    /// MT defaults (§VI-A: p = 1000 decode iterations, q = 100 encode
    /// iterations per bit).
    pub const fn mt_defaults() -> Self {
        ChannelParams {
            d: 6,
            m_total: 8,
            p: 1000,
            q: 100,
            r: 16,
        }
    }

    /// MT misalignment defaults (d = 5, M = 8).
    pub const fn mt_misalignment_defaults() -> Self {
        ChannelParams {
            d: 5,
            m_total: 8,
            p: 1000,
            q: 100,
            r: 16,
        }
    }

    /// Slow-switch defaults (§V-E: r = 16, p = q = 10).
    pub const fn slow_switch_defaults() -> Self {
        ChannelParams {
            d: 6,
            m_total: 8,
            p: 10,
            q: 10,
            r: 16,
        }
    }

    /// Power-channel defaults (§VII: p = q = 240 000 to span RAPL update
    /// intervals).
    pub const fn power_defaults() -> Self {
        ChannelParams {
            d: 6,
            m_total: 8,
            p: 240_000,
            q: 240_000,
            r: 16,
        }
    }

    /// SGX non-MT defaults (§VIII-2: p = q = 1000–5000; we use 2000).
    pub const fn sgx_non_mt_defaults() -> Self {
        ChannelParams {
            d: 6,
            m_total: 8,
            p: 2000,
            q: 2000,
            r: 16,
        }
    }

    /// SGX MT defaults (§VIII-1: p = 10 000, q = 1000).
    pub const fn sgx_mt_defaults() -> Self {
        ChannelParams {
            d: 6,
            m_total: 8,
            p: 10_000,
            q: 1000,
            r: 16,
        }
    }

    /// Returns a copy with a different `d` (Fig. 8 sweep).
    pub const fn with_d(mut self, d: usize) -> Self {
        self.d = d;
        self
    }

    /// Sender block count for eviction channels: `N + 1 - d` (§V-A).
    pub const fn sender_blocks_eviction(&self, ways: usize) -> usize {
        ways + 1 - self.d
    }

    /// Sender block count for misalignment channels: `M - d` (§V-B).
    pub const fn sender_blocks_misalignment(&self) -> usize {
        self.m_total - self.d
    }

    /// Checks the paper's constraints (`0 < d ≤ N`, `p, q > 0`, `r > 0`;
    /// for misalignment channels additionally `d < M ≤ N`) against a DSB
    /// of `ways` ways.
    ///
    /// # Errors
    ///
    /// The first violated constraint, as a [`ParamsError`].
    pub fn validate(&self, ways: usize, uses_m: bool) -> Result<(), ParamsError> {
        if !(1..=ways).contains(&self.d) {
            return Err(ParamsError::D { d: self.d, ways });
        }
        if uses_m && !(self.m_total > self.d && self.m_total <= ways) {
            return Err(ParamsError::M {
                d: self.d,
                m_total: self.m_total,
                ways,
            });
        }
        if self.p == 0 || self.q == 0 {
            return Err(ParamsError::Iterations);
        }
        if self.r == 0 {
            return Err(ParamsError::R);
        }
        Ok(())
    }
}

/// A violated §V parameter constraint (see [`ChannelParams::validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamsError {
    /// `d` outside `1..=N`.
    D {
        /// The receiver way count.
        d: usize,
        /// The DSB way count `N`.
        ways: usize,
    },
    /// A misalignment channel's `M` outside `d < M ≤ N`.
    M {
        /// The receiver way count.
        d: usize,
        /// The misalignment total `M`.
        m_total: usize,
        /// The DSB way count `N`.
        ways: usize,
    },
    /// `p` or `q` is zero.
    Iterations,
    /// The slow-switch channel's `p` (loop iterations per bit) is zero.
    P,
    /// `r` is zero.
    R,
    /// The channel's code layout collides in DSB set `set`, which a
    /// geometry of `sets` sets does not have.
    DsbSet {
        /// The highest DSB set index the layout uses.
        set: u8,
        /// The geometry's DSB set count.
        sets: usize,
    },
}

impl fmt::Display for ParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamsError::D { d, ways } => write!(f, "d = {d} must be in 1..={ways} (N)"),
            ParamsError::M { d, m_total, ways } => {
                write!(
                    f,
                    "M = {m_total} must satisfy d < M <= N (d = {d}, N = {ways})"
                )
            }
            ParamsError::Iterations => f.write_str("iteration counts p and q must be positive"),
            ParamsError::P => f.write_str("p must be positive"),
            ParamsError::R => f.write_str("r must be positive"),
            ParamsError::DsbSet { set, sets } => {
                write!(f, "the layout uses DSB set {set}, beyond a {sets}-set DSB")
            }
        }
    }
}

impl std::error::Error for ParamsError {}

impl fmt::Display for ChannelParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Destructured without `..`: this string is the run identity in
        // sweep provenance, so a new field is a compile error (E0027)
        // here until it is part of it.
        let ChannelParams {
            d,
            m_total,
            p,
            q,
            r,
        } = self;
        write!(f, "d={d} M={m_total} p={p} q={q} r={r}")
    }
}

/// Whether the sender's 0-encoding is silent (fast) or does matched dummy
/// work on an unrelated DSB set (stealthy) — §V-C.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EncodeMode {
    /// m = 0 performs equivalent accesses to a different set — harder to
    /// detect by activity monitoring, slightly slower and noisier.
    Stealthy,
    /// m = 0 sends nothing — faster, at the cost of an obvious idle gap.
    Fast,
}

impl fmt::Display for EncodeMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeMode::Stealthy => f.write_str("stealthy"),
            EncodeMode::Fast => f.write_str("fast"),
        }
    }
}

/// The four message patterns of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessagePattern {
    /// All zero bits.
    AllZeros,
    /// All one bits.
    AllOnes,
    /// Alternating `0101...`.
    Alternating,
    /// Uniformly random bits (seeded).
    Random,
}

impl MessagePattern {
    /// Generates a message of `len` bits; `seed` only matters for
    /// [`MessagePattern::Random`].
    pub fn generate(self, len: usize, seed: u64) -> Vec<bool> {
        match self {
            MessagePattern::AllZeros => vec![false; len],
            MessagePattern::AllOnes => vec![true; len],
            MessagePattern::Alternating => (0..len).map(|i| i % 2 == 1).collect(),
            MessagePattern::Random => {
                let mut rng = StdRng::seed_from_u64(seed);
                (0..len).map(|_| rng.gen_bool(0.5)).collect()
            }
        }
    }

    /// All four patterns in Table II's column order.
    pub fn all() -> [MessagePattern; 4] {
        [
            MessagePattern::AllZeros,
            MessagePattern::AllOnes,
            MessagePattern::Alternating,
            MessagePattern::Random,
        ]
    }
}

/// Converts bytes to a bit vector (MSB first) for transmission over a
/// covert channel.
///
/// # Examples
///
/// ```
/// use leaky_frontends::params::{bits_to_bytes, bytes_to_bits};
///
/// let bits = bytes_to_bits(b"hi");
/// assert_eq!(bits.len(), 16);
/// assert_eq!(bits_to_bytes(&bits), b"hi");
/// ```
pub fn bytes_to_bits(bytes: &[u8]) -> Vec<bool> {
    bytes
        .iter()
        .flat_map(|&b| (0..8).rev().map(move |i| (b >> i) & 1 == 1))
        .collect()
}

/// Converts a received bit vector back to bytes (MSB first); trailing bits
/// that do not fill a byte are dropped.
pub fn bits_to_bytes(bits: &[bool]) -> Vec<u8> {
    bits.chunks_exact(8)
        .map(|chunk| chunk.iter().fold(0u8, |acc, &b| (acc << 1) | b as u8))
        .collect()
}

impl fmt::Display for MessagePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MessagePattern::AllZeros => "all-0s",
            MessagePattern::AllOnes => "all-1s",
            MessagePattern::Alternating => "alternating",
            MessagePattern::Random => "random",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let e = ChannelParams::eviction_defaults();
        assert_eq!((e.d, e.p, e.q), (6, 10, 10));
        let m = ChannelParams::misalignment_defaults();
        assert_eq!((m.d, m.m_total), (5, 8));
        let mt = ChannelParams::mt_defaults();
        assert_eq!((mt.p, mt.q), (1000, 100));
        assert_eq!(ChannelParams::power_defaults().p, 240_000);
    }

    #[test]
    fn sender_block_arithmetic() {
        // §V-A example: d = 6, N = 8 → sender accesses blocks 7–9 (3 blocks).
        let p = ChannelParams::eviction_defaults();
        assert_eq!(p.sender_blocks_eviction(8), 3);
        // §V-B example: d = 5, M = 8 → sender accesses blocks 6–8 (3).
        let m = ChannelParams::misalignment_defaults();
        assert_eq!(m.sender_blocks_misalignment(), 3);
    }

    #[test]
    fn validation_accepts_paper_configs_and_rejects_nonsense() {
        assert!(ChannelParams::eviction_defaults()
            .validate(8, false)
            .is_ok());
        assert!(ChannelParams::misalignment_defaults()
            .validate(8, true)
            .is_ok());
        // Fig. 8 sweeps every d; eviction channels do not use M.
        for d in 1..=8 {
            assert!(ChannelParams::mt_defaults()
                .with_d(d)
                .validate(8, false)
                .is_ok());
        }
        let bad = ChannelParams {
            d: 0,
            ..ChannelParams::eviction_defaults()
        };
        assert!(bad.validate(8, false).is_err());
        let bad_m = ChannelParams {
            d: 8,
            ..ChannelParams::misalignment_defaults()
        };
        assert!(bad_m.validate(8, true).is_err());
    }

    #[test]
    fn byte_bit_roundtrip() {
        let data = b"Leaky Frontends!";
        assert_eq!(bits_to_bytes(&bytes_to_bits(data)), data);
        // Trailing partial byte is dropped.
        let mut bits = bytes_to_bits(b"A");
        bits.push(true);
        assert_eq!(bits_to_bytes(&bits), b"A");
    }

    #[test]
    fn patterns_generate_expected_bits() {
        assert_eq!(
            MessagePattern::AllZeros.generate(3, 0),
            vec![false, false, false]
        );
        assert_eq!(MessagePattern::AllOnes.generate(2, 0), vec![true, true]);
        assert_eq!(
            MessagePattern::Alternating.generate(4, 0),
            vec![false, true, false, true]
        );
        let r1 = MessagePattern::Random.generate(64, 9);
        let r2 = MessagePattern::Random.generate(64, 9);
        assert_eq!(r1, r2, "seeded random is reproducible");
        assert!(r1.iter().any(|&b| b) && r1.iter().any(|&b| !b));
    }
}
