//! Channel coding for the covert channels (paper §VI-B: "the simple
//! encoding can in future be replaced with other channel coding methods for
//! possibly faster transmission" — implemented here as an extension).
//!
//! Two classic codes are provided:
//!
//! * [`Repetition`] — each bit sent `k` times, majority-decoded; trades
//!   rate 1/k for exponentially better error rates;
//! * [`Hamming74`] — the (7,4) Hamming code: 4 data bits per 7 channel
//!   bits with single-error correction per block.
//!
//! Both implement [`Code`], so any channel's raw bit stream can be wrapped.

/// A binary channel code.
pub trait Code {
    /// Expands data bits into channel bits.
    fn encode(&self, data: &[bool]) -> Vec<bool>;
    /// Recovers data bits from (possibly corrupted) channel bits.
    fn decode(&self, channel: &[bool]) -> Vec<bool>;
    /// Code rate (data bits per channel bit).
    fn rate(&self) -> f64;
    /// Human-readable label (session provenance, sweep JSON).
    fn label(&self) -> String {
        "custom".to_string()
    }
}

/// The identity code: channel bits are data bits (rate 1). The uncoded
/// baseline a [`crate::session::Session`] compares coded runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Uncoded;

impl Code for Uncoded {
    fn encode(&self, data: &[bool]) -> Vec<bool> {
        data.to_vec()
    }

    fn decode(&self, channel: &[bool]) -> Vec<bool> {
        channel.to_vec()
    }

    fn rate(&self) -> f64 {
        1.0
    }

    fn label(&self) -> String {
        "uncoded".to_string()
    }
}

/// Repetition code: every data bit is transmitted `k` times and decoded by
/// majority vote.
///
/// # Examples
///
/// ```
/// use leaky_frontends::coding::{Code, Repetition};
///
/// let code = Repetition::new(3);
/// let mut tx = code.encode(&[true, false]);
/// tx[1] = false; // one corrupted repetition
/// assert_eq!(code.decode(&tx), vec![true, false]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repetition {
    k: usize,
}

impl Repetition {
    /// Creates a k-repetition code.
    ///
    /// # Panics
    ///
    /// Panics if `k` is even or zero (majority must be unambiguous).
    pub fn new(k: usize) -> Self {
        assert!(k % 2 == 1, "repetition factor must be odd");
        Repetition { k }
    }

    /// The repetition factor.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl Code for Repetition {
    fn encode(&self, data: &[bool]) -> Vec<bool> {
        data.iter()
            .flat_map(|&b| std::iter::repeat_n(b, self.k))
            .collect()
    }

    fn decode(&self, channel: &[bool]) -> Vec<bool> {
        channel
            .chunks(self.k)
            .map(|chunk| chunk.iter().filter(|&&b| b).count() * 2 > chunk.len())
            .collect()
    }

    fn rate(&self) -> f64 {
        1.0 / self.k as f64
    }

    fn label(&self) -> String {
        format!("repetition-{}", self.k)
    }
}

/// The (7,4) Hamming code: corrects any single bit error per 7-bit block.
///
/// Data is padded with zeros to a multiple of 4 bits; callers that need
/// exact length should track it externally (e.g. via byte framing).
///
/// # Examples
///
/// ```
/// use leaky_frontends::coding::{Code, Hamming74};
///
/// let code = Hamming74;
/// let data = [true, false, true, true];
/// let mut tx = code.encode(&data);
/// tx[2] = !tx[2]; // flip any single bit
/// assert_eq!(&code.decode(&tx)[..4], &data);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Hamming74;

impl Code for Hamming74 {
    fn encode(&self, data: &[bool]) -> Vec<bool> {
        let mut out = Vec::with_capacity(data.len().div_ceil(4) * 7);
        for chunk in data.chunks(4) {
            let d: [bool; 4] = [
                chunk.first().copied().unwrap_or(false),
                chunk.get(1).copied().unwrap_or(false),
                chunk.get(2).copied().unwrap_or(false),
                chunk.get(3).copied().unwrap_or(false),
            ];
            // Codeword layout [p1, p2, d1, p3, d2, d3, d4] (positions 1..7).
            let p1 = d[0] ^ d[1] ^ d[3];
            let p2 = d[0] ^ d[2] ^ d[3];
            let p3 = d[1] ^ d[2] ^ d[3];
            out.extend_from_slice(&[p1, p2, d[0], p3, d[1], d[2], d[3]]);
        }
        out
    }

    fn decode(&self, channel: &[bool]) -> Vec<bool> {
        let mut out = Vec::with_capacity(channel.len() / 7 * 4);
        for block in channel.chunks(7) {
            if block.len() < 7 {
                break; // truncated trailing block: drop
            }
            let mut w: [bool; 7] = block.try_into().expect("length checked");
            // Syndrome: which parity checks fail (1-indexed position).
            let s1 = w[0] ^ w[2] ^ w[4] ^ w[6];
            let s2 = w[1] ^ w[2] ^ w[5] ^ w[6];
            let s3 = w[3] ^ w[4] ^ w[5] ^ w[6];
            let pos = (s1 as usize) | ((s2 as usize) << 1) | ((s3 as usize) << 2);
            if pos != 0 {
                w[pos - 1] = !w[pos - 1];
            }
            out.extend_from_slice(&[w[2], w[4], w[5], w[6]]);
        }
        out
    }

    fn rate(&self) -> f64 {
        4.0 / 7.0
    }

    fn label(&self) -> String {
        "hamming-7-4".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_bits(n: usize, seed: u64) -> Vec<bool> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_bool(0.5)).collect()
    }

    #[test]
    fn repetition_roundtrip_clean() {
        let code = Repetition::new(5);
        let data = random_bits(64, 1);
        assert_eq!(code.decode(&code.encode(&data)), data);
        assert!((code.rate() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn repetition_corrects_minority_errors() {
        let code = Repetition::new(3);
        let data = random_bits(32, 2);
        let mut tx = code.encode(&data);
        // Corrupt one repetition of every bit.
        for i in 0..data.len() {
            tx[i * 3] = !tx[i * 3];
        }
        assert_eq!(code.decode(&tx), data);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_repetition_rejected() {
        let _ = Repetition::new(4);
    }

    #[test]
    fn hamming_roundtrip_clean() {
        let data = random_bits(64, 3);
        let code = Hamming74;
        assert_eq!(code.decode(&code.encode(&data)), data);
    }

    #[test]
    fn hamming_corrects_any_single_error_per_block() {
        let code = Hamming74;
        let data = random_bits(4, 4);
        let clean = code.encode(&data);
        for i in 0..7 {
            let mut tx = clean.clone();
            tx[i] = !tx[i];
            assert_eq!(code.decode(&tx), data, "error at position {i}");
        }
    }

    #[test]
    fn hamming_pads_partial_blocks_with_zeros() {
        let code = Hamming74;
        let data = [true, true]; // 2 bits -> padded to 4
        let decoded = code.decode(&code.encode(&data));
        assert_eq!(&decoded[..2], &data);
        assert_eq!(&decoded[2..], &[false, false]);
    }

    #[test]
    fn coded_transmission_beats_raw_over_a_noisy_channel() {
        // Simulate a binary symmetric channel at 8% flip probability: the
        // regime of the paper's noisy MT channels.
        let flip_p = 0.08;
        let mut rng = StdRng::seed_from_u64(5);
        let data = random_bits(400, 6);

        let transmit = |bits: &[bool], rng: &mut StdRng| -> Vec<bool> {
            bits.iter().map(|&b| b ^ rng.gen_bool(flip_p)).collect()
        };

        let raw_rx = transmit(&data, &mut rng);
        let raw_errors = data.iter().zip(&raw_rx).filter(|(a, b)| a != b).count();

        let code = Repetition::new(5);
        let coded_rx = code.decode(&transmit(&code.encode(&data), &mut rng));
        let coded_errors = data.iter().zip(&coded_rx).filter(|(a, b)| a != b).count();

        assert!(
            coded_errors * 4 < raw_errors,
            "coding must slash errors ({coded_errors} vs {raw_errors})"
        );
    }
}
