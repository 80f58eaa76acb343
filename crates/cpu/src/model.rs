//! The paper's evaluated processors (Table I) and microcode patches (§X).

use std::fmt;

use leaky_frontend::{FrontendConfig, UarchProfile};

/// A microcode patch level for the Gold 6226 test machine (§X). The paper
/// found that the newer patch silently disables the LSD — the observable its
/// fingerprinting attack detects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MicrocodePatch {
    /// `3.20180312.0ubuntu18.04.1`: LSD enabled.
    Patch1,
    /// `3.20210608.0ubuntu0.18.04.1`: LSD disabled (mitigates CVE-2021-24489
    /// among others).
    Patch2,
}

impl MicrocodePatch {
    /// The Ubuntu package version string of this patch.
    pub const fn version(self) -> &'static str {
        match self {
            MicrocodePatch::Patch1 => "3.20180312.0ubuntu18.04.1",
            MicrocodePatch::Patch2 => "3.20210608.0ubuntu0.18.04.1",
        }
    }

    /// Whether this patch leaves the LSD enabled.
    pub const fn lsd_enabled(self) -> bool {
        matches!(self, MicrocodePatch::Patch1)
    }
}

impl fmt::Display for MicrocodePatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.version())
    }
}

/// One of the paper's evaluated CPUs (Table I).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessorModel {
    /// Marketing name, e.g. `"Gold 6226"`.
    pub name: &'static str,
    /// Microarchitecture family.
    pub microarchitecture: &'static str,
    /// Core clock in GHz.
    pub freq_ghz: f64,
    /// Physical cores.
    pub cores: u32,
    /// Hardware threads.
    pub threads: u32,
    /// Whether the LSD is available (the E-2174G and E-2286G ship with it
    /// disabled, Table I note b).
    pub lsd_available: bool,
    /// Whether hyper-threading is enabled (the Azure E-2288G has it
    /// disabled, Table I note a).
    pub smt_enabled: bool,
    /// SGX support.
    pub sgx: bool,
    /// Timing-measurement noise (σ, cycles per `rdtscp` read), fitted per
    /// machine to the paper's channel error rates.
    pub timing_noise_sigma: f64,
}

impl ProcessorModel {
    /// Intel Xeon Gold 6226 (Cascade Lake, 2.7 GHz, LSD on, SMT on, no SGX).
    pub const fn gold_6226() -> Self {
        ProcessorModel {
            name: "Gold 6226",
            microarchitecture: "Cascade Lake",
            freq_ghz: 2.7,
            cores: 12,
            threads: 24,
            lsd_available: true,
            smt_enabled: true,
            sgx: false,
            timing_noise_sigma: 14.0,
        }
    }

    /// Intel Xeon E-2174G (Coffee Lake, 3.8 GHz, LSD disabled, SMT on, SGX).
    pub const fn xeon_e2174g() -> Self {
        ProcessorModel {
            name: "Xeon E-2174G",
            microarchitecture: "Coffee Lake",
            freq_ghz: 3.8,
            cores: 4,
            threads: 8,
            lsd_available: false,
            smt_enabled: true,
            sgx: true,
            timing_noise_sigma: 10.0,
        }
    }

    /// Intel Xeon E-2286G (Coffee Lake, 4.0 GHz, LSD disabled, SMT on, SGX).
    pub const fn xeon_e2286g() -> Self {
        ProcessorModel {
            name: "Xeon E-2286G",
            microarchitecture: "Coffee Lake",
            freq_ghz: 4.0,
            cores: 6,
            threads: 12,
            lsd_available: false,
            smt_enabled: true,
            sgx: true,
            timing_noise_sigma: 10.0,
        }
    }

    /// Intel Xeon E-2288G as provisioned on Microsoft Azure (Coffee Lake,
    /// 3.7 GHz, LSD on, hyper-threading disabled, SGX).
    pub const fn xeon_e2288g() -> Self {
        ProcessorModel {
            name: "Xeon E-2288G",
            microarchitecture: "Coffee Lake",
            freq_ghz: 3.7,
            cores: 8,
            threads: 8,
            lsd_available: true,
            smt_enabled: false,
            sgx: true,
            timing_noise_sigma: 4.0,
        }
    }

    /// All four Table I machines in the paper's column order.
    pub fn all() -> [ProcessorModel; 4] {
        [
            Self::gold_6226(),
            Self::xeon_e2174g(),
            Self::xeon_e2286g(),
            Self::xeon_e2288g(),
        ]
    }

    /// Clock frequency in Hz.
    pub fn freq_hz(&self) -> f64 {
        self.freq_ghz * 1e9
    }

    /// Converts cycles to seconds on this machine.
    pub fn cycles_to_seconds(&self, cycles: f64) -> f64 {
        cycles / self.freq_hz()
    }

    /// Whether the LSD is active under a given microcode patch.
    pub fn lsd_enabled_under(&self, patch: MicrocodePatch) -> bool {
        self.lsd_available && patch.lsd_enabled()
    }

    /// The frontend this machine runs under `profile`: the profile's
    /// geometry, costs and LSD, with the LSD further gated by the
    /// machine and `patch` (a patch can disable loop streaming, never
    /// enable it on a profile that lacks it).
    pub fn profile_config(&self, patch: MicrocodePatch, profile: &UarchProfile) -> FrontendConfig {
        FrontendConfig {
            lsd_enabled: profile.lsd_enabled && self.lsd_enabled_under(patch),
            ..FrontendConfig::from_profile(profile)
        }
    }
}

impl fmt::Display for ProcessorModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}, {:.1} GHz, LSD {}, SMT {}, SGX {})",
            self.name,
            self.microarchitecture,
            self.freq_ghz,
            if self.lsd_available { "on" } else { "off" },
            if self.smt_enabled { "on" } else { "off" },
            if self.sgx { "yes" } else { "no" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_facts() {
        let all = ProcessorModel::all();
        assert_eq!(all[0].freq_ghz, 2.7);
        assert_eq!(all[1].freq_ghz, 3.8);
        assert_eq!(all[2].freq_ghz, 4.0);
        assert_eq!(all[3].freq_ghz, 3.7);
        // LSD: enabled on 6226 and 2288G, disabled on the middle two.
        assert!(all[0].lsd_available && all[3].lsd_available);
        assert!(!all[1].lsd_available && !all[2].lsd_available);
        // SMT disabled only on the Azure 2288G.
        assert!(all[0].smt_enabled && all[1].smt_enabled && all[2].smt_enabled);
        assert!(!all[3].smt_enabled);
        // SGX on all but the 6226.
        assert!(!all[0].sgx && all[1].sgx && all[2].sgx && all[3].sgx);
    }

    #[test]
    fn microcode_controls_lsd_only_when_available() {
        let g = ProcessorModel::gold_6226();
        assert!(g.lsd_enabled_under(MicrocodePatch::Patch1));
        assert!(!g.lsd_enabled_under(MicrocodePatch::Patch2));
        let e = ProcessorModel::xeon_e2174g();
        assert!(!e.lsd_enabled_under(MicrocodePatch::Patch1));
    }

    #[test]
    fn cycle_time_conversion() {
        let m = ProcessorModel::gold_6226();
        assert!((m.cycles_to_seconds(2.7e9) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn patch_versions_are_distinct() {
        assert_ne!(
            MicrocodePatch::Patch1.version(),
            MicrocodePatch::Patch2.version()
        );
    }
}
