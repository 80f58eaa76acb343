//! The end-to-end Spectre v1 attack driver and Table VII evaluation.

use leaky_frontend::ThreadId;

use crate::channels::{AttackContext, ChannelKind, CHUNK_VALUES};
use crate::victim::{Victim, VictimOutcome};

/// Result of leaking a whole secret.
#[derive(Debug, Clone, PartialEq)]
pub struct SpectreResult {
    /// The chunks the attacker recovered.
    pub recovered: Vec<u8>,
    /// The chunks actually stored in the victim (for accuracy scoring).
    pub actual: Vec<u8>,
    /// L1I accesses over the whole attack.
    pub l1i_accesses: u64,
    /// L1I misses over the whole attack.
    pub l1i_misses: u64,
    /// L1D accesses over the whole attack.
    pub l1d_accesses: u64,
    /// L1D misses over the whole attack.
    pub l1d_misses: u64,
}

impl SpectreResult {
    /// Fraction of chunks recovered correctly.
    pub fn accuracy(&self) -> f64 {
        if self.actual.is_empty() {
            return 1.0;
        }
        let correct = self
            .recovered
            .iter()
            .zip(&self.actual)
            .filter(|(a, b)| a == b)
            .count();
        correct as f64 / self.actual.len() as f64
    }

    /// Combined L1 (instruction + data) miss rate — the Table VII metric.
    pub fn l1_miss_rate(&self) -> f64 {
        let accesses = self.l1i_accesses + self.l1d_accesses;
        if accesses == 0 {
            0.0
        } else {
            (self.l1i_misses + self.l1d_misses) as f64 / accesses as f64
        }
    }

    /// L1I-only miss rate.
    pub fn l1i_miss_rate(&self) -> f64 {
        if self.l1i_accesses == 0 {
            0.0
        } else {
            self.l1i_misses as f64 / self.l1i_accesses as f64
        }
    }
}

/// An in-domain Spectre v1 attack using one disclosure channel.
#[derive(Debug, Clone)]
pub struct SpectreV1 {
    kind: ChannelKind,
    victim: Victim,
    ctx: AttackContext,
    trains_per_chunk: usize,
}

impl SpectreV1 {
    /// Builds the attack around a victim holding `secret` (5-bit chunks).
    ///
    /// # Panics
    ///
    /// Panics if any chunk is ≥ 32.
    pub fn new(kind: ChannelKind, secret: Vec<u8>, seed: u64) -> Self {
        SpectreV1 {
            kind,
            victim: Victim::new(secret, 16),
            ctx: AttackContext::new(seed),
            trains_per_chunk: 4,
        }
    }

    /// The disclosure channel in use.
    pub fn kind(&self) -> ChannelKind {
        self.kind
    }

    /// Leaks every chunk of the secret and returns the result with
    /// miss-rate accounting over the whole attack.
    ///
    /// # Panics
    ///
    /// Panics if a negative energy deposit reaches the RAPL model
    /// (`Rapl::deposit`); simulated costs are non-negative.
    pub fn leak(&mut self) -> SpectreResult {
        // Warm the attacker's own code and data so the reported miss rates
        // reflect steady-state attack behaviour, not one-time cold fills.
        self.ctx.background_work(self.kind);
        self.ctx.prepare(self.kind);
        let _ = self.ctx.decode(self.kind);
        // Reset counters so the result covers exactly this attack. L1I
        // traffic is taken from the frontend's cumulative reports (which
        // account steady-state-scaled iterations correctly).
        self.ctx.core.frontend_mut().reset_counters();
        self.ctx.l1d.l1_mut().reset_stats();

        let chunks = self.victim.secret_len();
        let mut recovered = Vec::with_capacity(chunks);
        let mut actual = Vec::with_capacity(chunks);
        for chunk in 0..chunks {
            self.ctx.background_work(self.kind);
            let rounds = self.kind.decode_rounds();
            let mut votes = [0u32; CHUNK_VALUES];
            for _ in 0..rounds {
                self.ctx.prepare(self.kind);
                self.victim.train(self.trains_per_chunk);
                // Transient trigger: out-of-bounds call. The gadget body is
                // the channel's transmit hook.
                let mut transmitted = None;
                let kind = self.kind;
                // Split-borrow: move the context out for the gadget call.
                let ctx = &mut self.ctx;
                let outcome = self.victim.call(16 + chunk, |secret| {
                    transmitted = Some(secret);
                    ctx.transmit(kind, secret);
                });
                debug_assert_eq!(outcome, VictimOutcome::Transient);
                if let Some(s) = transmitted {
                    if actual.len() == chunk {
                        actual.push(s);
                    }
                }
                let guess = self.ctx.decode(self.kind);
                votes[guess as usize] += 1;
            }
            let best = votes
                .iter()
                .enumerate()
                .max_by_key(|&(_, v)| v)
                .map(|(i, _)| i as u8)
                .expect("non-empty votes");
            recovered.push(best);
        }

        let l1i = *self.ctx.core.frontend().counters(ThreadId::T0);
        let l1d = self.ctx.l1d.l1().stats();
        SpectreResult {
            recovered,
            actual,
            l1i_accesses: l1i.l1i_accesses,
            l1i_misses: l1i.l1i_misses,
            l1d_accesses: l1d.accesses,
            l1d_misses: l1d.misses,
        }
    }
}

/// Runs Table VII: every channel against the same secret; returns
/// `(channel, result)` rows in the paper's column order.
///
/// # Panics
///
/// Panics if any secret chunk is ≥ 32 (`SpectreV1::new`).
pub fn table7(secret: &[u8], seed: u64) -> Vec<(ChannelKind, SpectreResult)> {
    ChannelKind::all()
        .into_iter()
        .map(|kind| {
            let mut attack = SpectreV1::new(kind, secret.to_vec(), seed);
            (kind, attack.leak())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secret() -> Vec<u8> {
        vec![3, 31, 0, 17, 8, 25, 12, 1]
    }

    #[test]
    fn every_channel_recovers_the_secret() {
        for kind in ChannelKind::all() {
            let mut attack = SpectreV1::new(kind, secret(), 11);
            let result = attack.leak();
            assert_eq!(
                result.recovered,
                secret(),
                "{kind} failed to recover the secret"
            );
            assert_eq!(result.accuracy(), 1.0);
        }
    }

    #[test]
    fn frontend_channel_has_lowest_miss_rate() {
        let rows = table7(&secret(), 23);
        let get = |k: ChannelKind| {
            rows.iter()
                .find(|(kind, _)| *kind == k)
                .map(|(_, r)| r.l1_miss_rate())
                .expect("channel present")
        };
        let frontend = get(ChannelKind::Frontend);
        for kind in ChannelKind::all() {
            if kind != ChannelKind::Frontend {
                assert!(
                    frontend < get(kind),
                    "frontend ({:.4}) must beat {kind} ({:.4})",
                    frontend,
                    get(kind)
                );
            }
        }
    }

    #[test]
    fn miss_rate_ordering_matches_table7() {
        // Table VII: Frontend < L1I F+R ~ L1I P+P << MEM F+R < L1D LRU <
        // L1D F+R.
        let rows = table7(&secret(), 29);
        let get = |k: ChannelKind| {
            rows.iter()
                .find(|(kind, _)| *kind == k)
                .map(|(_, r)| r.l1_miss_rate())
                .unwrap()
        };
        assert!(get(ChannelKind::Frontend) < get(ChannelKind::L1iFlushReload));
        assert!(get(ChannelKind::L1iFlushReload) < get(ChannelKind::MemFlushReload));
        assert!(get(ChannelKind::L1iPrimeProbe) < get(ChannelKind::MemFlushReload));
        assert!(get(ChannelKind::MemFlushReload) < get(ChannelKind::L1dFlushReload));
        assert!(get(ChannelKind::L1dLru) < get(ChannelKind::L1dFlushReload));
        assert!(get(ChannelKind::MemFlushReload) < get(ChannelKind::L1dLru));
    }

    #[test]
    fn frontend_attack_displaces_no_data_cache_lines() {
        // §IX: "our frontend attack does not cause any cache misses at all"
        // beyond cold start — in particular zero L1D traffic.
        let mut attack = SpectreV1::new(ChannelKind::Frontend, secret(), 31);
        let result = attack.leak();
        // Background work is the only L1D traffic; it stays cache-resident.
        let work_misses = result.l1d_misses;
        assert!(
            work_misses <= 128,
            "only cold working-set fills allowed, got {work_misses}"
        );
    }

    #[test]
    fn longer_secrets_amortise_cold_misses() {
        let short = SpectreV1::new(ChannelKind::Frontend, vec![5; 2], 37).leak();
        let long = SpectreV1::new(ChannelKind::Frontend, vec![5; 16], 37).leak();
        assert!(long.l1_miss_rate() < short.l1_miss_rate());
    }
}
