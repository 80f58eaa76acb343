//! The string-keyed covert-channel registry and [`ChannelSpec`] builder.
//!
//! The paper's §V/§VII channels all share the Init/Encode/Decode protocol
//! and the §VI evaluation; this module makes them *enumerable data* the
//! way `leaky_exp`'s experiment registry treats sweeps: every channel
//! variant is a [`ChannelInfo`] row under a stable name, and a
//! [`ChannelSpec`] turns a name plus configuration (machine, profile,
//! parameters, noise, seed) into a `Box<dyn CovertChannel>` — fallibly,
//! so structurally unsupported combinations (an MT channel on an SMT-less
//! machine) surface as values instead of panics.
//!
//! # Examples
//!
//! ```
//! use leaky_frontends::channels::{channel_names, ChannelSpec, CovertChannel};
//! use leaky_frontends::params::MessagePattern;
//!
//! // Enumerate instead of matching on types:
//! assert!(channel_names().contains(&"slow-switch"));
//!
//! let mut ch = ChannelSpec::new("non-mt-fast-eviction")
//!     .seed(7)
//!     .build()
//!     .expect("registered channel on an SMT-independent machine");
//! let run = ch.transmit(&MessagePattern::Alternating.generate(32, 0));
//! assert!(run.error_rate() < 0.1);
//! assert_eq!(run.provenance().unwrap().channel, "non-mt-fast-eviction");
//! ```

use leaky_cpu::ProcessorModel;
use leaky_frontend::{FrontendConfig, UarchProfile};
use leaky_isa::FrontendGeometry;

use crate::channels::mt::{MtChannel, MtKind, MtNoise, MtUnsupported};
use crate::channels::non_mt::{NonMtChannel, NonMtKind};
use crate::channels::power::PowerChannel;
use crate::channels::slow_switch::SlowSwitchChannel;
use crate::channels::CovertChannel;
use crate::params::{ChannelParams, EncodeMode, ParamsError};

/// One registry row: a channel variant under its stable name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelInfo {
    /// Stable registry name (sweep axis value, CLI argument).
    pub name: &'static str,
    /// The paper section that introduces the channel.
    pub section: &'static str,
    /// One-line human description.
    pub description: &'static str,
    /// Whether the channel needs both hyper-threads of a core (builds
    /// fail with [`BuildError::SmtUnavailable`] on SMT-less machines).
    pub requires_smt: bool,
    /// Whether the channel has an environmental-noise knob
    /// ([`ChannelSpec::noise`]; only the MT channels model co-runner
    /// jitter).
    pub supports_noise: bool,
    /// Whether the channel has a frontend-config override hook
    /// ([`ChannelSpec::frontend_config`]; the §XII/ablation surface of
    /// the timing channels).
    pub supports_frontend_override: bool,
}

/// Every registered channel, in paper-section order. Names double as the
/// sweep axis vocabulary (`tab3_*` grids) so results, specs and CLIs all
/// speak the same strings.
pub const REGISTRY: [ChannelInfo; 9] = [
    ChannelInfo {
        name: "mt-eviction",
        section: "V-A",
        description: "cross-thread DSB way-eviction timing channel",
        requires_smt: true,
        supports_noise: true,
        supports_frontend_override: true,
    },
    ChannelInfo {
        name: "mt-misalignment",
        section: "V-B",
        description: "cross-thread LSD misalignment-collision timing channel",
        requires_smt: true,
        supports_noise: true,
        supports_frontend_override: true,
    },
    ChannelInfo {
        name: "non-mt-stealthy-eviction",
        section: "V-C",
        description: "same-thread DSB eviction channel, decoy-set 0-encoding",
        requires_smt: false,
        supports_noise: false,
        supports_frontend_override: true,
    },
    ChannelInfo {
        name: "non-mt-fast-eviction",
        section: "V-C",
        description: "same-thread DSB eviction channel, silent 0-encoding",
        requires_smt: false,
        supports_noise: false,
        supports_frontend_override: true,
    },
    ChannelInfo {
        name: "non-mt-stealthy-misalignment",
        section: "V-D",
        description: "same-thread misalignment channel, aligned-decoy 0-encoding",
        requires_smt: false,
        supports_noise: false,
        supports_frontend_override: true,
    },
    ChannelInfo {
        name: "non-mt-fast-misalignment",
        section: "V-D",
        description: "same-thread misalignment channel, silent 0-encoding",
        requires_smt: false,
        supports_noise: false,
        supports_frontend_override: true,
    },
    ChannelInfo {
        name: "slow-switch",
        section: "V-E",
        description: "LCP stall / DSB-MITE switch-interleaving channel",
        requires_smt: false,
        supports_noise: false,
        supports_frontend_override: false,
    },
    ChannelInfo {
        name: "power-eviction",
        section: "VII",
        description: "RAPL power reading of the DSB eviction channel",
        requires_smt: false,
        supports_noise: false,
        supports_frontend_override: false,
    },
    ChannelInfo {
        name: "power-misalignment",
        section: "VII",
        description: "RAPL power reading of the misalignment channel",
        requires_smt: false,
        supports_noise: false,
        supports_frontend_override: false,
    },
];

/// All registered channel names, in paper-section order.
pub fn channel_names() -> [&'static str; REGISTRY.len()] {
    REGISTRY.map(|c| c.name)
}

/// Looks a channel up by its registry name.
pub fn channel_info(name: &str) -> Option<&'static ChannelInfo> {
    REGISTRY.iter().find(|c| c.name == name)
}

/// The §V/§VII default parameters of a registered channel (the operating
/// points Tables II-V evaluate).
pub fn default_params(name: &str) -> Option<ChannelParams> {
    Some(match name {
        "mt-eviction" => ChannelParams::mt_defaults(),
        "mt-misalignment" => ChannelParams::mt_misalignment_defaults(),
        "non-mt-stealthy-eviction" | "non-mt-fast-eviction" => ChannelParams::eviction_defaults(),
        "non-mt-stealthy-misalignment" | "non-mt-fast-misalignment" => {
            ChannelParams::misalignment_defaults()
        }
        "slow-switch" => ChannelParams::slow_switch_defaults(),
        "power-eviction" => ChannelParams::power_defaults(),
        "power-misalignment" => ChannelParams {
            d: 5,
            ..ChannelParams::power_defaults()
        },
        _ => return None,
    })
}

/// Checks `params` against the §V constraints the named channel enforces
/// under `geometry`: the way budget `d ≤ N` for every channel that lays
/// out same-set chains, plus `d < M ≤ N` for the misalignment channels.
/// Slow-switch builds an LCP chain instead and takes any parameters.
///
/// # Errors
///
/// The first violated constraint (see [`ChannelParams::validate`]).
pub fn validate_params(
    name: &str,
    params: &ChannelParams,
    geometry: &FrontendGeometry,
) -> Result<(), ParamsError> {
    if name == "slow-switch" {
        return Ok(());
    }
    params.validate(geometry.dsb_ways, name.ends_with("misalignment"))
}

/// Why a [`ChannelSpec`] could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The requested name is not in [`REGISTRY`].
    UnknownChannel(String),
    /// The channel needs SMT and the processor model has it disabled.
    SmtUnavailable(MtUnsupported),
    /// A noise model was supplied but the channel has no environmental
    /// noise knob (only the MT channels do).
    NoiseUnsupported(&'static str),
    /// A frontend-config override was supplied but the channel has no
    /// such hook (only the timing channels used by the §XII/ablation
    /// evaluations do).
    FrontendOverrideUnsupported(&'static str),
    /// The parameters violate the §V constraints under the profile's
    /// geometry (see [`ChannelParams::validate`]).
    InvalidParams(ParamsError),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::UnknownChannel(name) => write!(f, "unknown channel {name:?}"),
            BuildError::SmtUnavailable(e) => write!(f, "{e}"),
            BuildError::NoiseUnsupported(name) => {
                write!(f, "{name} has no environmental-noise model")
            }
            BuildError::FrontendOverrideUnsupported(name) => {
                write!(f, "{name} has no frontend-config override hook")
            }
            BuildError::InvalidParams(e) => write!(f, "invalid channel parameters: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// A declarative channel configuration: registry name plus everything a
/// build needs. Unset options fall back to the paper's operating point
/// (Gold 6226, `skylake` profile, per-channel default parameters,
/// default noise, seed 0).
#[derive(Debug, Clone)]
pub struct ChannelSpec {
    kind: String,
    model: ProcessorModel,
    profile: UarchProfile,
    params: Option<ChannelParams>,
    noise: Option<MtNoise>,
    frontend: Option<(FrontendConfig, u64)>,
    seed: u64,
}

impl ChannelSpec {
    /// Starts a spec for a registered channel name (validated at
    /// [`ChannelSpec::build`] time, so specs can be carried around as
    /// data).
    pub fn new(kind: impl Into<String>) -> Self {
        ChannelSpec {
            kind: kind.into(),
            model: ProcessorModel::gold_6226(),
            profile: UarchProfile::skylake(),
            params: None,
            noise: None,
            frontend: None,
            seed: 0,
        }
    }

    /// Selects another registered channel (same validation as
    /// [`ChannelSpec::new`]).
    pub fn kind(mut self, kind: impl Into<String>) -> Self {
        self.kind = kind.into();
        self
    }

    /// The Table I machine to run on (default: Gold 6226, the paper's
    /// primary test machine).
    pub fn model(mut self, model: ProcessorModel) -> Self {
        self.model = model;
        self
    }

    /// The microarchitecture profile (default: `skylake`; perturbed
    /// copies are fine — caches key on the profile's content).
    pub fn profile(mut self, profile: UarchProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Overrides the channel's default §V parameters.
    pub fn params(mut self, params: ChannelParams) -> Self {
        self.params = Some(params);
        self
    }

    /// Overrides the environmental-noise model (MT channels only; other
    /// channels fail the build with [`BuildError::NoiseUnsupported`]).
    pub fn noise(mut self, noise: MtNoise) -> Self {
        self.noise = Some(noise);
        self
    }

    /// Replaces the built channel's frontend with an explicit
    /// configuration (the §XII defense-evaluation and ablation hook;
    /// only channels with `supports_frontend_override` accept it).
    ///
    /// `seed` re-seeds the rebuilt core exactly as the concrete
    /// channels' legacy override methods do — which means it applies to
    /// the non-MT channels only: `MtChannel::set_frontend_config`
    /// re-seeds with a fixed internal constant, a legacy semantic kept
    /// so the committed ablation outputs stay byte-identical.
    pub fn frontend_config(mut self, config: FrontendConfig, seed: u64) -> Self {
        self.frontend = Some((config, seed));
        self
    }

    /// The channel's RNG/core seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the channel.
    ///
    /// # Errors
    ///
    /// [`BuildError::UnknownChannel`] for names outside [`REGISTRY`];
    /// [`BuildError::SmtUnavailable`] for MT channels on SMT-less
    /// machines; [`BuildError::NoiseUnsupported`] /
    /// [`BuildError::FrontendOverrideUnsupported`] when an override has
    /// no hook on the selected channel; [`BuildError::InvalidParams`]
    /// when the parameters violate the §V constraints under the
    /// profile's geometry (the concrete constructors panic instead).
    ///
    /// # Panics
    ///
    /// Panics on a degenerate cache geometry (`SetAssocCache::new`), as
    /// the concrete constructors do.
    pub fn build(&self) -> Result<Box<dyn CovertChannel>, BuildError> {
        let info = channel_info(&self.kind)
            .ok_or_else(|| BuildError::UnknownChannel(self.kind.clone()))?;
        let params = match self.params {
            Some(params) => params,
            None => default_params(info.name)
                .ok_or_else(|| BuildError::UnknownChannel(self.kind.clone()))?,
        };
        if self.noise.is_some() && !info.supports_noise {
            return Err(BuildError::NoiseUnsupported(info.name));
        }
        if self.frontend.is_some() && !info.supports_frontend_override {
            return Err(BuildError::FrontendOverrideUnsupported(info.name));
        }
        if info.requires_smt && !self.model.smt_enabled {
            return Err(BuildError::SmtUnavailable(MtUnsupported {
                model: self.model.name,
            }));
        }
        validate_params(info.name, &params, &self.profile.geometry)
            .map_err(BuildError::InvalidParams)?;
        let non_mt = |kind, mode| {
            let mut ch = NonMtChannel::with_profile(
                self.model,
                kind,
                mode,
                params,
                &self.profile,
                self.seed,
            );
            if let Some((config, fseed)) = &self.frontend {
                ch = ch.with_frontend_config(*config, *fseed);
            }
            Box::new(ch) as Box<dyn CovertChannel>
        };
        let mt = |kind| -> Result<Box<dyn CovertChannel>, BuildError> {
            let mut ch =
                MtChannel::with_profile(self.model, kind, params, &self.profile, self.seed)
                    .map_err(BuildError::SmtUnavailable)?;
            if let Some(noise) = self.noise {
                ch.set_noise(noise);
            }
            if let Some((config, _)) = &self.frontend {
                // MtChannel's legacy hook re-seeds internally.
                ch.set_frontend_config(*config);
            }
            Ok(Box::new(ch))
        };
        Ok(match info.name {
            "mt-eviction" => mt(MtKind::Eviction)?,
            "mt-misalignment" => mt(MtKind::Misalignment)?,
            "non-mt-stealthy-eviction" => non_mt(NonMtKind::Eviction, EncodeMode::Stealthy),
            "non-mt-fast-eviction" => non_mt(NonMtKind::Eviction, EncodeMode::Fast),
            "non-mt-stealthy-misalignment" => non_mt(NonMtKind::Misalignment, EncodeMode::Stealthy),
            "non-mt-fast-misalignment" => non_mt(NonMtKind::Misalignment, EncodeMode::Fast),
            "slow-switch" => Box::new(SlowSwitchChannel::with_profile(
                self.model,
                params,
                &self.profile,
                self.seed,
            )),
            "power-eviction" => Box::new(PowerChannel::with_profile(
                self.model,
                NonMtKind::Eviction,
                params,
                &self.profile,
                self.seed,
            )),
            "power-misalignment" => Box::new(PowerChannel::with_profile(
                self.model,
                NonMtKind::Misalignment,
                params,
                &self.profile,
                self.seed,
            )),
            other => unreachable!("registered but unbuilt channel {other:?}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MessagePattern;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let names = channel_names();
        let mut sorted = names.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate registry names");
        for name in names {
            assert_eq!(channel_info(name).unwrap().name, name);
            assert!(default_params(name).is_some(), "{name} lacks defaults");
        }
        assert!(channel_info("prime-and-probe").is_none());
        assert!(default_params("prime-and-probe").is_none());
    }

    #[test]
    fn built_channels_report_their_registry_identity() {
        for info in &REGISTRY {
            let mut spec = ChannelSpec::new(info.name).seed(3);
            if info.requires_smt {
                spec = spec.model(ProcessorModel::gold_6226());
            }
            let ch = spec.build().expect("6226 supports every channel");
            assert_eq!(ch.name(), info.name);
            assert_eq!(ch.profile_key(), "skylake");
            assert_eq!(
                ch.params(),
                default_params(info.name).unwrap(),
                "{} defaults",
                info.name
            );
        }
    }

    #[test]
    fn invalid_params_are_a_value_not_a_panic() {
        // d = 8 leaves no room for M = 8 misalignment blocks (d < M <= N).
        let err = ChannelSpec::new("mt-misalignment")
            .params(ChannelParams::mt_misalignment_defaults().with_d(8))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            BuildError::InvalidParams(ParamsError::M {
                d: 8,
                m_total: 8,
                ways: 8,
            })
        );
        assert!(err.to_string().contains("d < M <= N"));
        // The same d is fine for an eviction channel (d <= N) ...
        assert!(ChannelSpec::new("mt-eviction")
            .params(ChannelParams::mt_defaults().with_d(8))
            .build()
            .is_ok());
        // ... and SMT availability is still reported first.
        let err = ChannelSpec::new("mt-misalignment")
            .model(ProcessorModel::xeon_e2288g())
            .params(ChannelParams::mt_misalignment_defaults().with_d(8))
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::SmtUnavailable(_)));
    }

    #[test]
    fn unknown_channel_is_a_value_not_a_panic() {
        let err = ChannelSpec::new("flush-reload").build().unwrap_err();
        assert_eq!(err, BuildError::UnknownChannel("flush-reload".into()));
        assert!(err.to_string().contains("flush-reload"));
    }

    #[test]
    fn smt_requirement_is_enforced_per_registry_row() {
        for info in &REGISTRY {
            let built = ChannelSpec::new(info.name)
                .model(ProcessorModel::xeon_e2288g())
                .build();
            if info.requires_smt {
                assert!(
                    matches!(built, Err(BuildError::SmtUnavailable(_))),
                    "{} must fail on the SMT-less E-2288G",
                    info.name
                );
            } else {
                assert!(built.is_ok(), "{} must build on the E-2288G", info.name);
            }
        }
    }

    #[test]
    fn noise_override_is_mt_only() {
        let quiet = MtNoise {
            burst_probability: 0.0,
            burst_relative: 0.0,
            desync_probability: 0.0,
            phase_slip_probability: 0.0,
        };
        let mut ch = ChannelSpec::new("mt-eviction")
            .noise(quiet)
            .seed(17)
            .build()
            .expect("MT channel accepts noise");
        let run = ch.transmit(&MessagePattern::Alternating.generate(32, 0));
        assert_eq!(run.error_rate(), 0.0, "noiseless MT channel is clean");

        let err = ChannelSpec::new("slow-switch").noise(quiet).build();
        assert_eq!(
            err.unwrap_err(),
            BuildError::NoiseUnsupported("slow-switch")
        );
    }

    #[test]
    fn spec_build_matches_legacy_constructors_bit_for_bit() {
        // The registry is a relabeling, not a re-implementation: a spec
        // build and the concrete constructor produce identical runs.
        let msg = MessagePattern::Alternating.generate(32, 0);
        let mut legacy = NonMtChannel::new(
            ProcessorModel::xeon_e2288g(),
            NonMtKind::Eviction,
            EncodeMode::Fast,
            ChannelParams::eviction_defaults(),
            42,
        );
        let mut spec = ChannelSpec::new("non-mt-fast-eviction")
            .model(ProcessorModel::xeon_e2288g())
            .seed(42)
            .build()
            .unwrap();
        let a = legacy.transmit(&msg);
        let b = spec.transmit(&msg);
        assert_eq!(a.received(), b.received());
        assert_eq!(a.cycles(), b.cycles());

        let mut legacy = SlowSwitchChannel::new(
            ProcessorModel::xeon_e2288g(),
            ChannelParams::slow_switch_defaults(),
            77,
        );
        let mut spec = ChannelSpec::new("slow-switch")
            .model(ProcessorModel::xeon_e2288g())
            .seed(77)
            .build()
            .unwrap();
        let a = legacy.transmit(&msg);
        let b = spec.transmit(&msg);
        assert_eq!(a.received(), b.received());
        assert_eq!(a.cycles(), b.cycles());
    }

    #[test]
    fn frontend_override_reaches_the_built_channel() {
        use leaky_frontend::CostModel;
        // A constant-time frontend kills the stealthy channel through the
        // spec exactly as through the concrete hook (§XII).
        let config = FrontendConfig {
            costs: CostModel::constant_time(),
            ..FrontendConfig::default()
        };
        let mut ch = ChannelSpec::new("non-mt-stealthy-eviction")
            .model(ProcessorModel::xeon_e2288g())
            .frontend_config(config, 5)
            .seed(5)
            .build()
            .unwrap();
        assert_eq!(ch.profile_key(), "custom");
        match ch.try_calibrate() {
            Err(_) => {}
            Ok(()) => {
                let run = ch.transmit(&MessagePattern::Random.generate(64, 9));
                assert!(run.error_rate() > 0.25, "defended channel leaked");
            }
        }
        // ...and has no hook on the power channels.
        let err = ChannelSpec::new("power-eviction")
            .frontend_config(FrontendConfig::default(), 5)
            .build();
        assert_eq!(
            err.unwrap_err(),
            BuildError::FrontendOverrideUnsupported("power-eviction")
        );
    }

    #[test]
    fn dyn_channels_transmit_through_the_trait() {
        // The uniform surface: every 6226-supported channel calibrates
        // and transmits behind the trait object. (Power channels ride a
        // 16-bit message to keep the test fast.)
        for info in &REGISTRY {
            let bits = if info.section == "VII" { 16 } else { 24 };
            let mut ch = ChannelSpec::new(info.name).seed(9).build().unwrap();
            ch.try_calibrate().expect("skylake profile calibrates");
            let run = ch.transmit(&MessagePattern::Alternating.generate(bits, 0));
            assert_eq!(run.sent().len(), bits);
            let prov = run.provenance().expect("channels attach provenance");
            assert_eq!(prov.channel, info.name);
            assert_eq!(prov.profile, "skylake");
        }
    }
}
