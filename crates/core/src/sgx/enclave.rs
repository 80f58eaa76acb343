//! The SGX enclave execution context the §VIII channels run their sender in.
//!
//! The paper's SGX attacks need only two properties of SGX, both modeled
//! here:
//!
//! * **Expensive, measurable transitions.** `EENTER`/`EEXIT` cost thousands
//!   of cycles and flush the instruction TLB; the non-MT SGX attack performs
//!   exactly *one* entry and exit per transmitted bit and times the whole
//!   call from outside (§VIII-2).
//! * **No frontend isolation.** The enclave shares the MITE/DSB/LSD with
//!   non-enclave code on the same core, so a sender inside the enclave can
//!   modulate frontend paths that a receiver outside (same thread, non-MT)
//!   or on the sibling thread (MT) observes.

use leaky_cpu::Core;
use leaky_frontend::ThreadId;

/// Transition-cost configuration for a simulated enclave.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct EnclaveConfig {
    /// Cycles consumed by `EENTER` (ring transition, TLB work, checks).
    pub eenter_cycles: f64,
    /// Cycles consumed by `EEXIT`.
    pub eexit_cycles: f64,
    /// Whether transitions flush the calling thread's frontend state
    /// (iTLB flush forces instruction refetch; we conservatively flush the
    /// thread's DSB lines and LSD lock).
    pub flush_frontend_on_transition: bool,
}

impl EnclaveConfig {
    /// Costs in line with measured SGX1 transition overheads
    /// (~7 k + ~4 k cycles).
    pub const fn sgx1() -> Self {
        EnclaveConfig {
            eenter_cycles: 7_000.0,
            eexit_cycles: 4_000.0,
            flush_frontend_on_transition: true,
        }
    }
}

impl Default for EnclaveConfig {
    fn default() -> Self {
        Self::sgx1()
    }
}

/// A simulated SGX enclave: a context whose body runs with transition costs
/// and frontend flushes applied around it.
///
/// # Examples
///
/// ```
/// use leaky_cpu::{Core, ProcessorModel};
/// use leaky_frontend::ThreadId;
/// use leaky_isa::{same_set_chain, Alignment, DsbSet};
/// use leaky_frontends::sgx::Enclave;
///
/// let mut core = Core::new(ProcessorModel::xeon_e2174g(), 7);
/// let enclave = Enclave::default();
/// let chain = same_set_chain(0x0041_8000, DsbSet::new(0), 6, Alignment::Aligned);
///
/// let t0 = core.rdtscp(ThreadId::T0);
/// enclave.call(&mut core, ThreadId::T0, |core, tid| {
///     core.run_loop(tid, &chain, 100);
/// });
/// let t1 = core.rdtscp(ThreadId::T0);
/// assert!(t1 - t0 > Enclave::default().round_trip_cycles());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Enclave {
    config: EnclaveConfig,
}

impl Enclave {
    /// Total EENTER + EEXIT cycles for one call.
    pub fn round_trip_cycles(&self) -> f64 {
        self.config.eenter_cycles + self.config.eexit_cycles
    }

    /// Executes `body` inside the enclave on `tid`: pays `EENTER`, flushes
    /// frontend state if configured, runs the body, flushes again and pays
    /// `EEXIT`. Returns the body's result.
    ///
    /// # Panics
    ///
    /// Panics if the core's processor model has no SGX support (the Gold
    /// 6226 in Table I; the SGX channels reject such a machine before
    /// any call), or if a negative energy deposit reaches the RAPL model
    /// (`Rapl::deposit`); simulated costs are non-negative.
    pub fn call<R>(
        &self,
        core: &mut Core,
        tid: ThreadId,
        body: impl FnOnce(&mut Core, ThreadId) -> R,
    ) -> R {
        let model = core.model();
        assert!(model.sgx, "processor {} does not support SGX", model.name);
        core.idle(tid, self.config.eenter_cycles);
        if self.config.flush_frontend_on_transition {
            core.frontend_mut().flush_thread_state(tid);
        }
        let result = body(core, tid);
        if self.config.flush_frontend_on_transition {
            core.frontend_mut().flush_thread_state(tid);
        }
        core.idle(tid, self.config.eexit_cycles);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leaky_cpu::ProcessorModel;
    use leaky_isa::{same_set_chain, Alignment, BlockChain, DsbSet};

    fn chain() -> BlockChain {
        same_set_chain(0x0041_8000, DsbSet::new(0), 6, Alignment::Aligned)
    }

    #[test]
    fn call_charges_transition_overhead() {
        let mut core = Core::new(ProcessorModel::xeon_e2288g(), 1);
        let enclave = Enclave::default();
        let before = core.clock(ThreadId::T0);
        enclave.call(&mut core, ThreadId::T0, |_, _| {});
        let elapsed = core.clock(ThreadId::T0) - before;
        assert!((elapsed - enclave.round_trip_cycles()).abs() < 1e-9);
    }

    #[test]
    fn transition_flushes_frontend_state() {
        let mut core = Core::new(ProcessorModel::xeon_e2288g(), 1);
        let c = chain();
        core.run_loop(ThreadId::T0, &c, 3); // warm outside
        Enclave::default().call(&mut core, ThreadId::T0, |core, tid| {
            // Inside: the outside-warmed lines are gone; first iteration
            // must re-decode through the MITE.
            let run = core.run_once(tid, &c);
            assert!(run.report.mite_uops > 0);
        });
    }

    #[test]
    fn body_result_is_returned() {
        let mut core = Core::new(ProcessorModel::xeon_e2174g(), 1);
        let out = Enclave::default().call(&mut core, ThreadId::T0, |_, _| 41 + 1);
        assert_eq!(out, 42);
    }

    #[test]
    fn non_sgx_machine_is_rejected() {
        let mut core = Core::new(ProcessorModel::gold_6226(), 1);
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Enclave::default().call(&mut core, ThreadId::T0, |_, _| ())
        }))
        .unwrap_err();
        let msg = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert_eq!(msg, "processor Gold 6226 does not support SGX");
        assert_eq!(core.clock(ThreadId::T0), 0.0, "rejected before EENTER");
    }

    #[test]
    fn no_flush_config_preserves_state() {
        let mut core = Core::new(ProcessorModel::xeon_e2288g(), 1);
        let c = chain();
        core.run_loop(ThreadId::T0, &c, 3);
        let enclave = Enclave {
            config: EnclaveConfig {
                flush_frontend_on_transition: false,
                ..EnclaveConfig::sgx1()
            },
        };
        enclave.call(&mut core, ThreadId::T0, |core, tid| {
            let run = core.run_once(tid, &c);
            assert_eq!(run.report.mite_uops, 0, "state must survive entry");
        });
    }
}
