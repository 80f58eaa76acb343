//! Welford-folded stall summaries.
//!
//! [`StallSummary`] is the in-memory aggregator sink: it folds the event
//! stream down to per-[`Source`] cycle/µop totals, stall histograms and
//! channel counters. The histograms are `leaky_stats::OnlineStats`
//! accumulators, so two summaries merge exactly like `leaky_stats`
//! summaries do: left-fold in a deterministic order and the result is
//! bit-identical at any worker count.

use crate::event::{Source, TraceEvent, UnlockReason};
use leaky_stats::OnlineStats;

/// Per-[`Source`] running totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SourceTotals {
    /// Weighted iterations whose dominant path was this source.
    pub iterations: u64,
    /// Cycles of those iterations (weighted).
    pub cycles: f64,
    /// µops this source delivered, across *all* iterations (weighted).
    pub uops: u64,
}

/// The per-run stall summary: the answer to "why is this channel fast,
/// slow, or dead".
///
/// Iteration cycles are attributed to the iteration's *dominant* source,
/// while µop totals count every path's contribution, so a
/// `constant_time` run shows up as the DSB and MITE rows converging on
/// the same per-iteration cycle mean (see EXPERIMENTS.md, "reading a
/// trace").
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StallSummary {
    /// Weighted frontend iterations folded in.
    pub iterations: u64,
    /// Per-source totals, indexed by [`Source::index`].
    pub per_source: [SourceTotals; 3],
    /// Per-iteration cycle histogram (weighted).
    pub iteration_cycles: OnlineStats,
    /// LCP pre-decode stall histogram, one sample per stalled block.
    pub lcp_stall: OnlineStats,
    /// Path-switch penalty histogram, one sample per switch.
    pub switch_stall: OnlineStats,
    /// LSD locks established.
    pub lsd_locks: u64,
    /// LSD unlocks, indexed by [`UnlockReason::index`].
    pub lsd_unlocks: [u64; 4],
    /// Deferred LSD flush penalties charged.
    pub lsd_flushes: u64,
    /// Inclusive DSB evictions (weighted).
    pub dsb_evictions: u64,
    /// L1I misses (weighted).
    pub l1i_misses: u64,
    /// Raw channel measurements taken.
    pub channel_measures: u64,
    /// Successful threshold calibrations.
    pub calibrations: u64,
    /// Failed (dead-channel) calibrations.
    pub failed_calibrations: u64,
    /// Last successful calibration's `(zero_mean, one_mean, threshold,
    /// separation)`, if any.
    pub last_calibration: Option<[f64; 4]>,
    /// Bits decoded across sessions.
    pub bits: u64,
    /// Bits decoded wrongly.
    pub bit_errors: u64,
    /// Ambiguity-band re-measurements taken.
    pub resamples: u64,
}

impl StallSummary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        StallSummary::default()
    }

    /// Folds one event into the summary.
    pub fn fold(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::Iteration {
                source,
                weight,
                cycles,
                lsd_uops,
                dsb_uops,
                mite_uops,
                dsb_evictions,
                l1i_misses,
                ..
            } => {
                let w = *weight;
                self.iterations += w;
                let dom = &mut self.per_source[source.index()];
                dom.iterations += w;
                dom.cycles += cycles * w as f64;
                self.per_source[Source::Lsd.index()].uops += lsd_uops * w;
                self.per_source[Source::Dsb.index()].uops += dsb_uops * w;
                self.per_source[Source::Mite.index()].uops += mite_uops * w;
                self.iteration_cycles.push_repeated(*cycles, w);
                self.dsb_evictions += dsb_evictions * w;
                self.l1i_misses += l1i_misses * w;
            }
            TraceEvent::SourceSwitch { penalty_cycles, .. } => {
                self.switch_stall.push(*penalty_cycles);
            }
            TraceEvent::LsdLock { .. } => self.lsd_locks += 1,
            TraceEvent::LsdUnlock { reason, .. } => {
                self.lsd_unlocks[reason.index()] += 1;
            }
            TraceEvent::LsdFlushPenalty { .. } => self.lsd_flushes += 1,
            TraceEvent::LcpStall { stall_cycles, .. } => {
                self.lcp_stall.push(*stall_cycles);
            }
            TraceEvent::Calibration {
                zero_mean,
                one_mean,
                threshold,
                separation,
            } => {
                self.calibrations += 1;
                self.last_calibration = Some([*zero_mean, *one_mean, *threshold, *separation]);
            }
            TraceEvent::CalibrationFailed => self.failed_calibrations += 1,
            TraceEvent::ChannelMeasure { .. } => self.channel_measures += 1,
            TraceEvent::BitDecoded {
                sent,
                received,
                resamples,
                ..
            } => {
                self.bits += 1;
                if sent != received {
                    self.bit_errors += 1;
                }
                self.resamples += u64::from(*resamples);
            }
            TraceEvent::SessionStart { .. } | TraceEvent::SessionEnd { .. } => {}
        }
    }

    /// Merges another summary into this one. Counters add; histograms
    /// merge via the parallel Welford merge, so a left-fold over
    /// per-shard summaries in a deterministic order is bit-identical at
    /// any worker count (the `leaky_stats::summary::merge_ordered`
    /// discipline).
    pub fn merge(&mut self, other: &StallSummary) {
        self.iterations += other.iterations;
        for (d, s) in self.per_source.iter_mut().zip(other.per_source.iter()) {
            d.iterations += s.iterations;
            d.cycles += s.cycles;
            d.uops += s.uops;
        }
        self.iteration_cycles.merge(&other.iteration_cycles);
        self.lcp_stall.merge(&other.lcp_stall);
        self.switch_stall.merge(&other.switch_stall);
        self.lsd_locks += other.lsd_locks;
        for (d, s) in self.lsd_unlocks.iter_mut().zip(other.lsd_unlocks.iter()) {
            *d += s;
        }
        self.lsd_flushes += other.lsd_flushes;
        self.dsb_evictions += other.dsb_evictions;
        self.l1i_misses += other.l1i_misses;
        self.channel_measures += other.channel_measures;
        self.calibrations += other.calibrations;
        self.failed_calibrations += other.failed_calibrations;
        if other.last_calibration.is_some() {
            self.last_calibration = other.last_calibration;
        }
        self.bits += other.bits;
        self.bit_errors += other.bit_errors;
        self.resamples += other.resamples;
    }

    /// Mean per-iteration cycle cost of iterations dominated by `source`,
    /// or `0.0` if none were.
    pub fn mean_cycles(&self, source: Source) -> f64 {
        let t = &self.per_source[source.index()];
        if t.iterations == 0 {
            0.0
        } else {
            t.cycles / t.iterations as f64
        }
    }

    /// The DSB-vs-MITE per-iteration stall gap in cycles — the quantity
    /// whose collapse to ~0 is the signature of a `constant_time`-killed
    /// channel.
    pub fn dsb_mite_gap(&self) -> f64 {
        let dsb = self.mean_cycles(Source::Dsb);
        let mite = self.mean_cycles(Source::Mite);
        if dsb == 0.0 || mite == 0.0 {
            0.0
        } else {
            mite - dsb
        }
    }

    /// Observed bit error rate, or `0.0` before any bit was decoded.
    pub fn error_rate(&self) -> f64 {
        if self.bits == 0 {
            0.0
        } else {
            self.bit_errors as f64 / self.bits as f64
        }
    }

    /// Renders the summary as deterministic `stat,value` CSV rows — the
    /// per-cell trace-file format of `--trace=summary`.
    pub fn csv_rows(&self) -> String {
        let mut out = String::new();
        out.push_str("stat,value\n");
        let mut row = |k: &str, v: String| {
            out.push_str(k);
            out.push(',');
            out.push_str(&v);
            out.push('\n');
        };
        row("iterations", self.iterations.to_string());
        for s in Source::ALL {
            let t = &self.per_source[s.index()];
            row(
                &format!("{}_iterations", s.label()),
                t.iterations.to_string(),
            );
            row(&format!("{}_cycles", s.label()), t.cycles.to_string());
            row(&format!("{}_uops", s.label()), t.uops.to_string());
            row(
                &format!("{}_mean_cycles", s.label()),
                self.mean_cycles(s).to_string(),
            );
        }
        row("dsb_mite_gap", self.dsb_mite_gap().to_string());
        row(
            "iteration_cycles_mean",
            self.iteration_cycles.mean().to_string(),
        );
        row(
            "iteration_cycles_stddev",
            self.iteration_cycles.std_dev().to_string(),
        );
        row("lcp_stalls", self.lcp_stall.count().to_string());
        row("lcp_stall_mean", self.lcp_stall.mean().to_string());
        row("switch_stalls", self.switch_stall.count().to_string());
        row("switch_stall_mean", self.switch_stall.mean().to_string());
        row("lsd_locks", self.lsd_locks.to_string());
        for r in UnlockReason::ALL {
            row(
                &format!("lsd_unlocks_{}", r.label()),
                self.lsd_unlocks[r.index()].to_string(),
            );
        }
        row("lsd_flushes", self.lsd_flushes.to_string());
        row("dsb_evictions", self.dsb_evictions.to_string());
        row("l1i_misses", self.l1i_misses.to_string());
        row("channel_measures", self.channel_measures.to_string());
        row("calibrations", self.calibrations.to_string());
        row("failed_calibrations", self.failed_calibrations.to_string());
        if let Some([zero, one, thr, sep]) = self.last_calibration {
            row("calibration_zero_mean", zero.to_string());
            row("calibration_one_mean", one.to_string());
            row("calibration_threshold", thr.to_string());
            row("calibration_separation", sep.to_string());
        }
        row("bits", self.bits.to_string());
        row("bit_errors", self.bit_errors.to_string());
        row("error_rate", self.error_rate().to_string());
        row("resamples", self.resamples.to_string());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iteration(source: Source, weight: u64, cycles: f64) -> TraceEvent {
        TraceEvent::Iteration {
            thread: 0,
            source,
            weight,
            cycles,
            lsd_uops: 0,
            dsb_uops: if source == Source::Dsb { 10 } else { 0 },
            mite_uops: if source == Source::Mite { 10 } else { 0 },
            lcp_stall_cycles: 0.0,
            switch_penalty_cycles: 0.0,
            dsb_to_mite_switches: 0,
            dsb_evictions: 1,
            lsd_flushes: 0,
            l1i_misses: 0,
        }
    }

    #[test]
    fn fold_attributes_cycles_to_dominant_source() {
        let mut s = StallSummary::new();
        s.fold(&iteration(Source::Dsb, 2, 10.0));
        s.fold(&iteration(Source::Mite, 1, 40.0));
        assert_eq!(s.iterations, 3);
        assert_eq!(s.mean_cycles(Source::Dsb), 10.0);
        assert_eq!(s.mean_cycles(Source::Mite), 40.0);
        assert_eq!(s.dsb_mite_gap(), 30.0);
        assert_eq!(s.per_source[Source::Dsb.index()].uops, 20);
        assert_eq!(s.dsb_evictions, 3);
        assert_eq!(s.iteration_cycles.count(), 3);
    }

    #[test]
    fn merge_equals_sequential_fold() {
        let events = [
            iteration(Source::Lsd, 1, 5.0),
            iteration(Source::Dsb, 3, 11.0),
            TraceEvent::LcpStall {
                thread: 0,
                stall_cycles: 3.0,
            },
            TraceEvent::LsdUnlock {
                thread: 1,
                reason: UnlockReason::Eviction,
            },
            TraceEvent::BitDecoded {
                index: 0,
                sent: true,
                received: false,
                value: 100.0,
                resamples: 1,
            },
        ];
        let mut whole = StallSummary::new();
        for e in &events {
            whole.fold(e);
        }
        let mut left = StallSummary::new();
        let mut right = StallSummary::new();
        for e in &events[..2] {
            left.fold(e);
        }
        for e in &events[2..] {
            right.fold(e);
        }
        left.merge(&right);
        assert_eq!(left, whole);
        assert_eq!(whole.error_rate(), 1.0);
        assert_eq!(whole.lsd_unlocks[UnlockReason::Eviction.index()], 1);
    }

    #[test]
    fn csv_rows_are_deterministic_and_labelled() {
        let mut s = StallSummary::new();
        s.fold(&iteration(Source::Dsb, 2, 10.0));
        s.fold(&TraceEvent::Calibration {
            zero_mean: 1.0,
            one_mean: 3.0,
            threshold: 2.0,
            separation: 2.0,
        });
        let rows = s.csv_rows();
        assert!(rows.starts_with("stat,value\n"));
        assert!(rows.contains("dsb_iterations,2\n"));
        assert!(rows.contains("calibration_threshold,2\n"));
        assert_eq!(rows, s.clone().csv_rows());
    }
}
