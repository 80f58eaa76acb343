//! Per-iteration delivery reports and cumulative performance counters.

use std::fmt;
use std::ops::{Add, AddAssign};

/// Which structure delivered a span of µops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UopSource {
    /// Loop Stream Detector.
    Lsd,
    /// Decoded Stream Buffer (micro-op cache).
    Dsb,
    /// Legacy decode pipeline.
    Mite,
}

impl fmt::Display for UopSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UopSource::Lsd => "LSD",
            UopSource::Dsb => "DSB",
            UopSource::Mite => "MITE",
        };
        f.write_str(s)
    }
}

/// Everything the frontend did while delivering one loop iteration (or any
/// batch of work): cycles consumed, µops per source, and event counts.
///
/// Reports are additive: summing the per-iteration reports of a run yields
/// the run totals, which is how the Fig. 4 counter readings and all channel
/// timings are produced.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IterationReport {
    /// Cycles consumed by the frontend for this work.
    pub cycles: f64,
    /// µops streamed from the LSD.
    pub lsd_uops: u64,
    /// µops delivered from the DSB.
    pub dsb_uops: u64,
    /// µops decoded by the MITE.
    pub mite_uops: u64,
    /// Cycles lost to Length-Changing-Prefix pre-decode stalls.
    pub lcp_stall_cycles: f64,
    /// Cycles lost to DSB↔MITE switch penalties.
    pub switch_penalty_cycles: f64,
    /// Cycles lost to window-crossing (misaligned) fetch splits.
    pub crossing_penalty_cycles: f64,
    /// Number of DSB→MITE switches.
    pub dsb_to_mite_switches: u64,
    /// Lines evicted from the DSB.
    pub dsb_evictions: u64,
    /// LSD loop flushes (inclusive evictions or misalignment collisions).
    pub lsd_flushes: u64,
    /// L1 instruction-cache misses.
    pub l1i_misses: u64,
    /// L1 instruction-cache accesses.
    pub l1i_accesses: u64,
}

impl IterationReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total µops delivered from all sources.
    pub fn total_uops(&self) -> u64 {
        self.lsd_uops + self.dsb_uops + self.mite_uops
    }

    /// µops delivered from one source.
    pub fn uops_from(&self, source: UopSource) -> u64 {
        match source {
            UopSource::Lsd => self.lsd_uops,
            UopSource::Dsb => self.dsb_uops,
            UopSource::Mite => self.mite_uops,
        }
    }

    /// Records µop delivery from a source.
    #[inline]
    pub fn add_uops(&mut self, source: UopSource, uops: u64) {
        match source {
            UopSource::Lsd => self.lsd_uops += uops,
            UopSource::Dsb => self.dsb_uops += uops,
            UopSource::Mite => self.mite_uops += uops,
        }
    }

    /// The dominant source of this report, for classifying delivery modes
    /// (used by the Fig. 2 / Fig. 9 histograms). Ties favour the slower
    /// path.
    pub fn dominant_source(&self) -> UopSource {
        if self.mite_uops >= self.dsb_uops && self.mite_uops >= self.lsd_uops {
            if self.mite_uops == 0 {
                UopSource::Lsd
            } else {
                UopSource::Mite
            }
        } else if self.dsb_uops >= self.lsd_uops {
            UopSource::Dsb
        } else {
            UopSource::Lsd
        }
    }

    /// L1I miss rate over this report.
    pub fn l1i_miss_rate(&self) -> f64 {
        if self.l1i_accesses == 0 {
            0.0
        } else {
            self.l1i_misses as f64 / self.l1i_accesses as f64
        }
    }

    /// Adds `r` to `self` `n` times, bit-identical to `n` sequential
    /// `*self += *r`: the float fields go through
    /// [`leaky_stats::add_repeated`], the counts add `n ×` their value.
    pub fn add_repeated(&mut self, r: &IterationReport, n: u64) {
        self.add_cycles_repeated(r, n);
        self.add_counts(r, n);
    }

    /// The cycle-field half of [`IterationReport::add_repeated`].
    pub(crate) fn add_cycles_repeated(&mut self, r: &IterationReport, n: u64) {
        use leaky_stats::add_repeated;
        self.cycles = add_repeated(self.cycles, r.cycles, n);
        self.lcp_stall_cycles = add_repeated(self.lcp_stall_cycles, r.lcp_stall_cycles, n);
        self.switch_penalty_cycles =
            add_repeated(self.switch_penalty_cycles, r.switch_penalty_cycles, n);
        self.crossing_penalty_cycles =
            add_repeated(self.crossing_penalty_cycles, r.crossing_penalty_cycles, n);
    }

    /// Adds `r`'s four cycle fields, the `f64` half of `*self += *r`:
    /// the only part whose order across additions matters.
    #[inline]
    pub(crate) fn add_cycles(&mut self, r: &IterationReport) {
        self.cycles += r.cycles;
        self.lcp_stall_cycles += r.lcp_stall_cycles;
        self.switch_penalty_cycles += r.switch_penalty_cycles;
        self.crossing_penalty_cycles += r.crossing_penalty_cycles;
    }

    /// Adds `n ×` `r`'s eight count fields, the integer half of `n`
    /// additions of `r`. Integer adds commute, so the counts of many
    /// steps can be added in any order.
    #[inline]
    pub(crate) fn add_counts(&mut self, r: &IterationReport, n: u64) {
        self.lsd_uops += r.lsd_uops * n;
        self.dsb_uops += r.dsb_uops * n;
        self.mite_uops += r.mite_uops * n;
        self.dsb_to_mite_switches += r.dsb_to_mite_switches * n;
        self.dsb_evictions += r.dsb_evictions * n;
        self.lsd_flushes += r.lsd_flushes * n;
        self.l1i_misses += r.l1i_misses * n;
        self.l1i_accesses += r.l1i_accesses * n;
    }

    /// Scales every additive quantity by `n` — used to extrapolate a
    /// steady-state iteration to a long run (e.g. Fig. 4's 800 M
    /// iterations) without simulating each one.
    pub fn scaled(&self, n: u64) -> IterationReport {
        IterationReport {
            cycles: self.cycles * n as f64,
            lsd_uops: self.lsd_uops * n,
            dsb_uops: self.dsb_uops * n,
            mite_uops: self.mite_uops * n,
            lcp_stall_cycles: self.lcp_stall_cycles * n as f64,
            switch_penalty_cycles: self.switch_penalty_cycles * n as f64,
            crossing_penalty_cycles: self.crossing_penalty_cycles * n as f64,
            dsb_to_mite_switches: self.dsb_to_mite_switches * n,
            dsb_evictions: self.dsb_evictions * n,
            lsd_flushes: self.lsd_flushes * n,
            l1i_misses: self.l1i_misses * n,
            l1i_accesses: self.l1i_accesses * n,
        }
    }
}

/// Finds the smallest period `k ≤ max_period` such that the last `2k`
/// reports of `history` form the same `k`-report cycle twice in a row,
/// i.e. the run has (apparently) entered a steady state of period `k`.
///
/// Period 1 — two identical consecutive reports — is the classic steady
/// state; longer periods capture delivery patterns that oscillate between
/// a few alternating iteration shapes. `Frontend::run_iterations` uses
/// this to collapse the remainder of an 800 M-iteration run (Fig. 4
/// scale) into `O(k)` scaled additions.
///
/// Reports are compared exactly (including `f64` cycle counts), which is
/// meaningful because the simulator is deterministic.
///
/// # Examples
///
/// ```
/// use leaky_frontend::{detect_report_period, IterationReport};
///
/// let a = IterationReport { cycles: 1.0, ..Default::default() };
/// let b = IterationReport { cycles: 2.0, ..Default::default() };
/// assert_eq!(detect_report_period(&[a, a], 8), Some(1));
/// assert_eq!(detect_report_period(&[a, b, a, b], 8), Some(2));
/// assert_eq!(detect_report_period(&[a, b], 8), None);
/// ```
pub fn detect_report_period(history: &[IterationReport], max_period: usize) -> Option<usize> {
    for k in 1..=max_period {
        if history.len() < 2 * k {
            break;
        }
        let tail = &history[history.len() - k..];
        let prev = &history[history.len() - 2 * k..history.len() - k];
        if tail == prev {
            return Some(k);
        }
    }
    None
}

impl Add for IterationReport {
    type Output = IterationReport;

    fn add(mut self, rhs: IterationReport) -> IterationReport {
        self += rhs;
        self
    }
}

impl AddAssign for IterationReport {
    #[inline]
    fn add_assign(&mut self, rhs: IterationReport) {
        self.add_cycles(&rhs);
        self.add_counts(&rhs, 1);
    }
}

impl std::iter::Sum for IterationReport {
    fn sum<I: Iterator<Item = IterationReport>>(iter: I) -> Self {
        iter.fold(IterationReport::default(), |a, b| a + b)
    }
}

impl fmt::Display for IterationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.1} cyc | uops LSD {} / DSB {} / MITE {} | LCP {:.1} cyc | {} switches ({:.1} cyc) | {} evictions | {} LSD flushes",
            self.cycles,
            self.lsd_uops,
            self.dsb_uops,
            self.mite_uops,
            self.lcp_stall_cycles,
            self.dsb_to_mite_switches,
            self.switch_penalty_cycles,
            self.dsb_evictions,
            self.lsd_flushes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_are_additive() {
        let mut a = IterationReport::new();
        a.add_uops(UopSource::Dsb, 10);
        a.cycles = 5.0;
        let mut b = IterationReport::new();
        b.add_uops(UopSource::Mite, 3);
        b.cycles = 7.0;
        b.dsb_to_mite_switches = 1;
        let sum = a + b;
        assert_eq!(sum.total_uops(), 13);
        assert_eq!(sum.cycles, 12.0);
        assert_eq!(sum.dsb_to_mite_switches, 1);
    }

    #[test]
    fn sum_over_iterator() {
        let reports = vec![
            IterationReport {
                cycles: 1.0,
                lsd_uops: 2,
                ..Default::default()
            };
            5
        ];
        let total: IterationReport = reports.into_iter().sum();
        assert_eq!(total.cycles, 5.0);
        assert_eq!(total.lsd_uops, 10);
    }

    #[test]
    fn scaled_matches_repeated_add() {
        let r = IterationReport {
            cycles: 2.5,
            mite_uops: 4,
            lcp_stall_cycles: 1.0,
            ..Default::default()
        };
        let s = r.scaled(4);
        let mut acc = IterationReport::new();
        for _ in 0..4 {
            acc += r;
        }
        assert_eq!(s, acc);
    }

    #[test]
    fn dominant_source_classification() {
        let mut r = IterationReport::new();
        r.add_uops(UopSource::Lsd, 40);
        assert_eq!(r.dominant_source(), UopSource::Lsd);
        r.add_uops(UopSource::Dsb, 50);
        assert_eq!(r.dominant_source(), UopSource::Dsb);
        r.add_uops(UopSource::Mite, 50);
        assert_eq!(r.dominant_source(), UopSource::Mite);
        assert_eq!(IterationReport::new().dominant_source(), UopSource::Lsd);
    }

    #[test]
    fn miss_rate_handles_zero_accesses() {
        assert_eq!(IterationReport::new().l1i_miss_rate(), 0.0);
    }

    #[test]
    fn period_detection_prefers_smallest_cycle() {
        let r = |c: f64| IterationReport {
            cycles: c,
            ..Default::default()
        };
        let (a, b, c) = (r(1.0), r(2.0), r(3.0));
        // Too little history.
        assert_eq!(detect_report_period(&[a], 8), None);
        assert_eq!(detect_report_period(&[a, b], 8), None);
        // Period 1 wins even when longer periods also match.
        assert_eq!(detect_report_period(&[b, a, a], 8), Some(1));
        assert_eq!(detect_report_period(&[a, a, a, a], 8), Some(1));
        // Genuine period 2 and 3 cycles.
        assert_eq!(detect_report_period(&[a, b, a, b], 8), Some(2));
        assert_eq!(detect_report_period(&[c, a, b, c, a, b], 8), Some(3));
        // A period above the cap is not detected.
        assert_eq!(detect_report_period(&[c, a, b, c, a, b], 2), None);
        // Transient prefixes don't confuse the tail comparison.
        assert_eq!(detect_report_period(&[c, c, a, b, a, b], 8), Some(2));
        // Near-cycles differing only in one float are rejected.
        let almost = r(2.0 + 1e-12);
        assert_eq!(detect_report_period(&[a, b, a, almost], 8), None);
    }
}
