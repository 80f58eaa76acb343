//! Execution-engine model: ports, issue/retire bandwidth and IPC
//! accounting.
//!
//! The paper's attack code is deliberately frontend-bound (§IV-D): the
//! 4-`mov`-+-1-`jmp` mix block spreads across ALU ports and avoids loads and
//! stores so the backend never becomes the bottleneck, and the §XI receiver
//! uses `nop`s that are renamed away entirely. This crate models just enough
//! of the backend to (a) verify that property, (b) bound throughput by
//! rename width and port contention, and (c) compute the IPC values used by
//! Fig. 4 and the fingerprinting side channel.
//!
//! Total loop time is `max(frontend delivery cycles, backend throughput
//! cycles)` — the classic bottleneck combination.
//!
//! # Examples
//!
//! ```
//! use leaky_backend::Backend;
//! use leaky_isa::{Addr, Block};
//!
//! let be = Backend::skylake();
//! let block = Block::mix(Addr::new(0x1000));
//! // 5 µops over ≥4-wide rename and 4 ALU ports: ~1.25 cycles.
//! let cyc = be.throughput_cycles(block.instructions());
//! assert!(cyc < 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

use leaky_isa::Instruction;

/// Backend width parameters (Skylake-like).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendConfig {
    /// µops renamed/allocated per cycle (Fig. 1: 4).
    pub rename_width: f64,
    /// Instructions retired per cycle.
    pub retire_width: f64,
    /// Number of execution ports (Fig. 1: 8).
    pub ports: usize,
}

impl BackendConfig {
    /// Skylake-family widths per the paper's Fig. 1.
    pub const fn skylake() -> Self {
        BackendConfig {
            rename_width: 4.0,
            retire_width: 4.0,
            ports: 8,
        }
    }
}

impl Default for BackendConfig {
    fn default() -> Self {
        Self::skylake()
    }
}

/// The execution-engine model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Backend {
    config: BackendConfig,
}

impl Backend {
    /// Creates a backend with explicit widths.
    pub fn new(config: BackendConfig) -> Self {
        Backend { config }
    }

    /// Creates the default Skylake-like backend.
    pub fn skylake() -> Self {
        Backend {
            config: BackendConfig::skylake(),
        }
    }

    /// The width parameters.
    pub fn config(&self) -> BackendConfig {
        self.config
    }

    /// Minimum cycles the backend needs to execute the instruction sequence,
    /// bounded by rename bandwidth and by execution-port contention.
    ///
    /// Port contention uses the exact steady-state (fluid) bound: for every
    /// subset `S` of ports, the µops that can *only* issue to ports in `S`
    /// need at least `demand(S) / |S|` cycles; the binding constraint is the
    /// maximum over all subsets. This models loop throughput, where µops
    /// from adjacent iterations overlap freely.
    ///
    /// `nop`s consume rename bandwidth but no port.
    ///
    /// Cost: one pass over the instructions plus `255 · k` steps for the
    /// `k` distinct port masks that carry demand (`k` ≤ 8 with today's
    /// opcodes); the result is bit-identical to summing all 256 masks per
    /// subset, which the tests keep as an oracle. It allocates nothing, so
    /// callers may pass a flattened iterator over a chain's blocks.
    pub fn throughput_cycles<'a>(&self, instrs: impl IntoIterator<Item = &'a Instruction>) -> f64 {
        debug_assert!(self.config.ports <= 8, "port masks are 8 bits");
        let mut uops = 0u64;
        // (mask, µops whose port mask is exactly `mask`), for the first
        // `distinct` masks that carry demand.
        let mut demand_by_mask = [(0u8, 0u64); 255];
        let mut distinct = 0;
        for instr in instrs {
            let n = instr.uops() as u64;
            uops += n;
            let mask = instr.port_mask().bits();
            if mask == 0 {
                continue; // renamed away (nop)
            }
            match demand_by_mask[..distinct]
                .iter_mut()
                .find(|(m, _)| *m == mask)
            {
                Some((_, d)) => *d += n,
                None => {
                    demand_by_mask[distinct] = (mask, n);
                    distinct += 1;
                }
            }
        }
        let demand_by_mask = &demand_by_mask[..distinct];
        let mut port_bound: f64 = 0.0;
        for subset in 1u8..=255 {
            let demand: u64 = demand_by_mask
                .iter()
                .filter(|&&(mask, _)| mask & !subset == 0)
                .map(|&(_, d)| d)
                .sum();
            if demand > 0 {
                port_bound = port_bound.max(demand as f64 / subset.count_ones() as f64);
            }
        }
        let rename_bound = uops as f64 / self.config.rename_width;
        rename_bound.max(port_bound)
    }

    /// Combines frontend delivery time with backend throughput: the loop
    /// runs at the pace of its bottleneck.
    pub fn bottleneck_cycles<'a>(
        &self,
        frontend_cycles: f64,
        instrs: impl IntoIterator<Item = &'a Instruction>,
    ) -> f64 {
        frontend_cycles.max(self.throughput_cycles(instrs))
    }

    /// Whether a sequence is frontend-bound given its frontend delivery
    /// cost — true for all the paper's attack blocks.
    pub fn is_frontend_bound<'a>(
        &self,
        frontend_cycles: f64,
        instrs: impl IntoIterator<Item = &'a Instruction>,
    ) -> bool {
        frontend_cycles >= self.throughput_cycles(instrs)
    }
}

/// Accumulates instructions and cycles to compute IPC (instructions per
/// cycle), the observable of the §XI fingerprinting side channel and the
/// Fig. 4 metric.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IpcMeter {
    instructions: u64,
    cycles: f64,
}

impl IpcMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a batch of retired instructions and the cycles they took.
    pub fn record(&mut self, instructions: u64, cycles: f64) {
        self.instructions += instructions;
        self.cycles += cycles;
    }

    /// Retired instruction count.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Elapsed cycles.
    pub fn cycles(&self) -> f64 {
        self.cycles
    }

    /// Instructions per cycle, or 0 with no cycles.
    pub fn ipc(&self) -> f64 {
        if self.cycles <= 0.0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles
        }
    }

    /// Resets the meter.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leaky_isa::{Addr, Block, Instruction, LcpPattern, Opcode};
    use proptest::prelude::*;

    const OPCODES: [Opcode; 11] = [
        Opcode::MovImm,
        Opcode::AddImm,
        Opcode::Nop,
        Opcode::Jmp,
        Opcode::Jcc,
        Opcode::Load,
        Opcode::Store,
        Opcode::Lea,
        Opcode::Rdtscp,
        Opcode::Lfence,
        Opcode::Clflush,
    ];

    /// The reference bound: every one of the 255 port subsets against
    /// every one of the 256 masks.
    fn dense_throughput_cycles(be: &Backend, instrs: &[Instruction]) -> f64 {
        let mut uops = 0u64;
        let mut demand_by_mask = [0u64; 256];
        for instr in instrs {
            uops += instr.uops() as u64;
            let mask = instr.port_mask();
            if mask.count() == 0 {
                continue;
            }
            demand_by_mask[mask.bits() as usize] += instr.uops() as u64;
        }
        let mut port_bound: f64 = 0.0;
        for subset in 1usize..256 {
            let mut demand = 0u64;
            for (mask, &d) in demand_by_mask.iter().enumerate() {
                if d > 0 && mask & !subset == 0 {
                    demand += d;
                }
            }
            if demand > 0 {
                port_bound = port_bound.max(demand as f64 / subset.count_ones() as f64);
            }
        }
        let rename_bound = uops as f64 / be.config().rename_width;
        rename_bound.max(port_bound)
    }

    /// Interleaves `counts[i]` copies of `OPCODES[i]` round-robin, so
    /// masks first appear in varying orders.
    fn mix(counts: &[usize]) -> Vec<Instruction> {
        let rounds = counts.iter().copied().max().unwrap_or(0);
        (0..rounds)
            .flat_map(|r| {
                OPCODES
                    .iter()
                    .zip(counts)
                    .filter(move |&(_, &n)| r < n)
                    .map(|(&op, _)| Instruction::new(op))
            })
            .collect()
    }

    fn assert_matches_dense(instrs: &[Instruction]) {
        let be = Backend::skylake();
        let sparse = be.throughput_cycles(instrs);
        let dense = dense_throughput_cycles(&be, instrs);
        assert_eq!(sparse.to_bits(), dense.to_bits(), "{sparse} vs {dense}");
    }

    proptest! {
        #[test]
        fn sparse_bound_is_bit_identical_to_dense(
            counts in proptest::collection::vec(0usize..64, OPCODES.len()..OPCODES.len() + 1),
            rename_width in 1.0f64..16.0
        ) {
            // Widths above Skylake's 4 let the 4-port ALU subset bind
            // instead of hiding behind the rename bound.
            let be = Backend::new(BackendConfig {
                rename_width,
                ..BackendConfig::skylake()
            });
            let instrs = mix(&counts);
            prop_assert_eq!(
                be.throughput_cycles(&instrs).to_bits(),
                dense_throughput_cycles(&be, &instrs).to_bits()
            );
        }
    }

    #[test]
    fn sparse_bound_matches_dense_on_edge_cases() {
        let ops = |list: &[(Opcode, usize)]| -> Vec<Instruction> {
            list.iter()
                .flat_map(|&(op, n)| std::iter::repeat_n(Instruction::new(op), n))
                .collect()
        };
        // Empty: no rename and no port demand.
        assert_matches_dense(&[]);
        assert_eq!(Backend::skylake().throughput_cycles(&[]), 0.0);
        // All `nop`: rename bandwidth only, no mask carries demand.
        assert_matches_dense(&ops(&[(Opcode::Nop, 37)]));
        // Single-port-only µops: `jmp` on port 6, `lfence` on port 5.
        assert_matches_dense(&ops(&[(Opcode::Jmp, 9), (Opcode::Lfence, 5)]));
        // All 8 ports, `store`'s port 7 included.
        let all_ports = ops(&[
            (Opcode::MovImm, 11),
            (Opcode::Load, 6),
            (Opcode::Store, 13),
            (Opcode::Jcc, 3),
        ]);
        let used = all_ports
            .iter()
            .fold(0u8, |acc, i| acc | i.port_mask().bits());
        assert_eq!(used, 0xff);
        assert_matches_dense(&all_ports);
    }

    #[test]
    fn mix_block_is_frontend_bound() {
        // §IV-D requirement 3: the mix block must not bottleneck on ports.
        let be = Backend::skylake();
        let block = Block::mix(Addr::new(0x1000));
        let backend = be.throughput_cycles(block.instructions());
        // Frontend needs ≥1.8 cycles (DSB) for this block; backend less.
        assert!(backend <= 1.8, "backend cost {backend}");
        assert!(be.is_frontend_bound(1.8, block.instructions()));
    }

    #[test]
    fn nops_cost_only_rename_bandwidth() {
        let be = Backend::skylake();
        let nops = vec![Instruction::new(Opcode::Nop); 100];
        let cyc = be.throughput_cycles(&nops);
        assert_eq!(cyc, 25.0); // 100 / rename width 4
    }

    #[test]
    fn port_contention_binds_single_port_ops() {
        let be = Backend::skylake();
        // 8 jmps can only use port 6: 8 cycles despite rename allowing 2.
        let jmps = vec![Instruction::new(Opcode::Jmp); 8];
        assert_eq!(be.throughput_cycles(&jmps), 8.0);
    }

    #[test]
    fn greedy_spreads_alu_ops() {
        let be = Backend::skylake();
        // 8 movs over 4 ALU ports: 2 cycles each port; rename bound also 2.
        let movs = vec![Instruction::new(Opcode::MovImm); 8];
        assert_eq!(be.throughput_cycles(&movs), 2.0);
    }

    #[test]
    fn lcp_loop_is_frontend_bound_by_far() {
        // Fig. 4's IPC ≈ 0.6: backend could do ~8 IPC; frontend dominates.
        let be = Backend::skylake();
        let block = Block::lcp_adds(Addr::new(0x1000), LcpPattern::Mixed, 16);
        let backend = be.throughput_cycles(block.instructions());
        assert!(backend < 10.0);
    }

    #[test]
    fn bottleneck_takes_max() {
        let be = Backend::skylake();
        let jmps = vec![Instruction::new(Opcode::Jmp); 8];
        assert_eq!(be.bottleneck_cycles(2.0, &jmps), 8.0);
        assert_eq!(be.bottleneck_cycles(20.0, &jmps), 20.0);
    }

    #[test]
    fn ipc_meter_math() {
        let mut m = IpcMeter::new();
        m.record(100, 50.0);
        assert_eq!(m.ipc(), 2.0);
        m.record(100, 50.0);
        assert_eq!(m.ipc(), 2.0);
        m.reset();
        assert_eq!(m.ipc(), 0.0);
    }
}
