//! Application fingerprinting through the attacker's own IPC (paper §XI).
//!
//! The attacker loops through 100 `nop`s on one hardware thread — too many
//! µops for the LSD, resident in two L1I lines and the DSB, no backend
//! traffic — and samples its own instructions-per-cycle at 10 Hz using only
//! a low-precision timer. A victim on the sibling thread modulates the
//! shared frontend; the attacker's IPC waveform fingerprints the victim
//! (Figs. 11 and 12; §XI-B mobile benchmarks, §XI-C CNN models).

use leaky_cpu::{Core, ProcessorModel};
use leaky_frontend::ThreadId;
use leaky_isa::{Addr, Block, BlockChain};
use leaky_stats::distance::mean_pairwise_distance;
use leaky_workloads::Workload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of nops in the attacker's probe loop (§XI-A).
const PROBE_NOPS: usize = 100;

/// The IPC-trace sampler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IpcSampler {
    /// Seconds per sample (paper: 0.1 s — a 10 Hz timer).
    pub window_seconds: f64,
    /// Samples per trace (paper Fig. 11 shows 100).
    pub samples: usize,
    /// Relative measurement noise on each IPC sample (low-precision timer
    /// quantisation and residual system noise).
    pub noise_rel_sigma: f64,
}

impl Default for IpcSampler {
    fn default() -> Self {
        IpcSampler {
            window_seconds: 0.1,
            samples: 100,
            noise_rel_sigma: 0.012,
        }
    }
}

impl IpcSampler {
    /// The attacker's probe loop: 100 nops + loop branch.
    ///
    /// # Panics
    ///
    /// Panics if the sampler's probe length is zero (`Block::nops`).
    pub fn probe_chain() -> BlockChain {
        BlockChain::new(vec![Block::nops(Addr::new(0x0010_0000), PROBE_NOPS)])
    }

    /// Measures the attacker's *solo* baseline IPC (paper: 3.58).
    ///
    /// # Panics
    ///
    /// Panics if the sampler's probe length is zero (`Block::nops`).
    pub fn baseline_ipc(&self, model: ProcessorModel, seed: u64) -> f64 {
        let mut core = Core::new(model, seed);
        let chain = Self::probe_chain();
        core.run_loop(ThreadId::T0, &chain, 8); // warm
        let window = self.window_seconds * model.freq_hz();
        let run = core.run_for_cycles(ThreadId::T0, &chain, window);
        run.ipc(PROBE_NOPS as u64 + 1)
    }

    /// Records the attacker's IPC trace while `victim` runs on the sibling
    /// thread. Each 100 ms window applies the victim's demand level for
    /// that window and samples the attacker's IPC.
    ///
    /// # Panics
    ///
    /// Panics if the sampler's probe length is zero (`Block::nops`).
    pub fn trace(&self, model: ProcessorModel, victim: &Workload, seed: u64) -> Vec<f64> {
        let mut core = Core::new(model, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xf1f0_57a7);
        let chain = Self::probe_chain();
        // The victim occupies the sibling thread for the whole trace.
        core.set_active(ThreadId::T0, true);
        core.set_active(ThreadId::T1, true);
        core.run_loop(ThreadId::T0, &chain, 8); // warm under SMT
        let window = self.window_seconds * model.freq_hz();
        (0..self.samples)
            .map(|i| {
                core.set_sibling_demand(ThreadId::T0, victim.demand_at(i));
                let run = core.run_for_cycles(ThreadId::T0, &chain, window);
                let ipc = run.ipc(PROBE_NOPS as u64 + 1);
                ipc * (1.0 + gaussian(&mut rng) * self.noise_rel_sigma)
            })
            .collect()
    }

    /// Collects `trials` traces per workload (different seeds — different
    /// runs of the attack).
    ///
    /// # Panics
    ///
    /// Panics if the sampler's probe length is zero (`Block::nops`).
    pub fn trace_set(
        &self,
        model: ProcessorModel,
        victim: &Workload,
        trials: usize,
        seed: u64,
    ) -> Vec<Vec<f64>> {
        (0..trials)
            .map(|t| self.trace(model, victim, seed + t as u64))
            .collect()
    }
}

fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Intra- vs inter-workload Euclidean distances (the §XI-B / Fig. 12
/// metric).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistanceSummary {
    /// Mean distance between traces of the *same* workload.
    pub intra: f64,
    /// Mean distance between traces of *different* workloads.
    pub inter: f64,
}

impl DistanceSummary {
    /// Whether fingerprinting separates the workloads (inter ≫ intra).
    pub fn separable(&self) -> bool {
        self.inter > self.intra * 1.5
    }
}

/// Computes intra/inter distance over a set of per-workload trace sets.
///
/// # Panics
///
/// Panics if traces have inconsistent lengths (programming error).
pub fn distance_summary(trace_sets: &[Vec<Vec<f64>>]) -> DistanceSummary {
    let mut intra = 0.0;
    let mut intra_n = 0usize;
    for set in trace_sets {
        intra += mean_pairwise_distance(set, set).expect("equal-length traces");
        intra_n += 1;
    }
    let mut inter = 0.0;
    let mut inter_n = 0usize;
    for i in 0..trace_sets.len() {
        for j in 0..trace_sets.len() {
            if i == j {
                continue;
            }
            inter += mean_pairwise_distance(&trace_sets[i], &trace_sets[j])
                .expect("equal-length traces");
            inter_n += 1;
        }
    }
    DistanceSummary {
        intra: intra / intra_n.max(1) as f64,
        inter: inter / inter_n.max(1) as f64,
    }
}

/// A nearest-reference classifier over IPC traces.
#[derive(Debug, Clone)]
pub struct FingerprintLibrary {
    references: Vec<(String, Vec<Vec<f64>>)>,
}

impl FingerprintLibrary {
    /// Builds a library from labelled reference trace sets.
    ///
    /// # Panics
    ///
    /// Panics if `references` is empty.
    pub fn new(references: Vec<(String, Vec<Vec<f64>>)>) -> Self {
        assert!(!references.is_empty(), "library needs references");
        FingerprintLibrary { references }
    }

    /// Classifies a trace by minimum mean distance to each reference set.
    ///
    /// # Panics
    ///
    /// Panics if probe and reference traces have inconsistent lengths
    /// (`mean_pairwise_distance`).
    pub fn classify(&self, trace: &[f64]) -> &str {
        let probe = vec![trace.to_vec()];
        self.references
            .iter()
            .map(|(name, set)| {
                let d = mean_pairwise_distance(&probe, set).expect("equal-length traces");
                (name.as_str(), d)
            })
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"))
            .expect("non-empty library")
            .0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leaky_workloads::{cnn, mobile};

    fn fast_sampler() -> IpcSampler {
        IpcSampler {
            window_seconds: 0.002, // shrink windows to keep tests quick
            samples: 40,
            ..IpcSampler::default()
        }
    }

    #[test]
    fn baseline_ipc_near_four() {
        let s = fast_sampler();
        let ipc = s.baseline_ipc(ProcessorModel::gold_6226(), 1);
        assert!((3.0..=4.2).contains(&ipc), "baseline IPC {ipc:.2}");
    }

    #[test]
    fn smt_traces_fluctuate_below_baseline() {
        let s = fast_sampler();
        let baseline = s.baseline_ipc(ProcessorModel::gold_6226(), 1);
        let trace = s.trace(ProcessorModel::gold_6226(), &cnn::alexnet(), 2);
        let max = trace.iter().cloned().fold(f64::MIN, f64::max);
        let min = trace.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max < baseline * 0.75, "SMT must roughly halve IPC");
        assert!(max - min > 0.1, "victim phases must show in the trace");
    }

    #[test]
    fn cnn_models_are_separable() {
        let s = fast_sampler();
        let sets: Vec<Vec<Vec<f64>>> = cnn::models()
            .iter()
            .map(|w| s.trace_set(ProcessorModel::gold_6226(), w, 3, 100))
            .collect();
        let d = distance_summary(&sets);
        assert!(
            d.separable(),
            "inter {:.3} must exceed intra {:.3}",
            d.inter,
            d.intra
        );
    }

    #[test]
    fn classifier_identifies_all_cnn_models() {
        let s = fast_sampler();
        let refs: Vec<(String, Vec<Vec<f64>>)> = cnn::models()
            .iter()
            .map(|w| {
                (
                    w.name().to_string(),
                    s.trace_set(ProcessorModel::gold_6226(), w, 3, 200),
                )
            })
            .collect();
        let lib = FingerprintLibrary::new(refs);
        for w in cnn::models() {
            let probe = s.trace(ProcessorModel::gold_6226(), &w, 999);
            assert_eq!(lib.classify(&probe), w.name());
        }
    }

    #[test]
    fn mobile_benchmarks_are_separable() {
        let s = IpcSampler {
            samples: 30,
            ..fast_sampler()
        };
        let sets: Vec<Vec<Vec<f64>>> = mobile::benchmarks()
            .iter()
            .map(|w| s.trace_set(ProcessorModel::gold_6226(), w, 2, 300))
            .collect();
        let d = distance_summary(&sets);
        assert!(d.separable());
    }
}
