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

use leaky_cpu::{MicrocodePatch, ProcessorModel};
use leaky_frontend::{check_geometry, FrontendConfig, UarchProfile};
use leaky_isa::{BlockChain, CodeRegion, FrontendGeometry, LcpPattern};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::channels::driver::{Driver, Measure};
use crate::channels::mt::{Mt, MtChannel, MtNoise};
use crate::channels::non_mt::{NonMt, NonMtChannel, NonMtKind};
use crate::channels::power::{Power, PowerChannel};
use crate::channels::slow_switch::{SlowSwitch, SlowSwitchChannel};
use crate::channels::{check_layout, layout, CovertChannel, SENDER_REGION};
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
    /// These are also the channels with an environmental-noise knob
    /// ([`ChannelSpec::noise`]): only they model co-runner jitter.
    pub requires_smt: bool,
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
    },
    ChannelInfo {
        name: "mt-misalignment",
        section: "V-B",
        description: "cross-thread LSD misalignment-collision timing channel",
        requires_smt: true,
    },
    ChannelInfo {
        name: "non-mt-stealthy-eviction",
        section: "V-C",
        description: "same-thread DSB eviction channel, decoy-set 0-encoding",
        requires_smt: false,
    },
    ChannelInfo {
        name: "non-mt-fast-eviction",
        section: "V-C",
        description: "same-thread DSB eviction channel, silent 0-encoding",
        requires_smt: false,
    },
    ChannelInfo {
        name: "non-mt-stealthy-misalignment",
        section: "V-D",
        description: "same-thread misalignment channel, aligned-decoy 0-encoding",
        requires_smt: false,
    },
    ChannelInfo {
        name: "non-mt-fast-misalignment",
        section: "V-D",
        description: "same-thread misalignment channel, silent 0-encoding",
        requires_smt: false,
    },
    ChannelInfo {
        name: "slow-switch",
        section: "V-E",
        description: "LCP stall / DSB-MITE switch-interleaving channel",
        requires_smt: false,
    },
    ChannelInfo {
        name: "power-eviction",
        section: "VII",
        description: "RAPL power reading of the DSB eviction channel",
        requires_smt: false,
    },
    ChannelInfo {
        name: "power-misalignment",
        section: "VII",
        description: "RAPL power reading of the misalignment channel",
        requires_smt: false,
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
/// out same-set chains, plus `d < M ≤ N` for the misalignment channels,
/// and room in the DSB for the sets the layout collides in
/// ([`ParamsError::DsbSet`]).
/// Slow-switch builds an LCP block of `2r` adds instead and times `p`
/// iterations of it per bit, so it needs only `p > 0` and `r > 0`.
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
        return match (params.p, params.r) {
            (0, _) => Err(ParamsError::P),
            (_, 0) => Err(ParamsError::R),
            _ => Ok(()),
        };
    }
    let kind = if name.ends_with("misalignment") {
        NonMtKind::Misalignment
    } else {
        NonMtKind::Eviction
    };
    check_layout(kind, params, geometry)
}

/// Why a [`ChannelSpec`] could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The requested name is not in [`REGISTRY`].
    UnknownChannel(String),
    /// The channel needs SMT and the processor model has it disabled.
    SmtUnavailable {
        /// The offending model's name.
        model: &'static str,
    },
    /// A noise model was supplied but the channel has no environmental
    /// noise knob (only the MT channels do).
    NoiseUnsupported(&'static str),
    /// The parameters violate the §V constraints under the channel's
    /// frontend geometry (see [`ChannelParams::validate`]).
    InvalidParams(ParamsError),
    /// The channel's frontend geometry is outside what the frontend can
    /// model (see [`check_geometry`]).
    UnsupportedGeometry(String),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::UnknownChannel(name) => write!(f, "unknown channel {name:?}"),
            BuildError::SmtUnavailable { model } => {
                write!(f, "{model} has hyper-threading disabled")
            }
            BuildError::NoiseUnsupported(name) => {
                write!(f, "{name} has no environmental-noise model")
            }
            BuildError::InvalidParams(e) => write!(f, "invalid channel parameters: {e}"),
            BuildError::UnsupportedGeometry(e) => write!(f, "unsupported geometry: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// The core seed of an MT channel under a frontend override: a fixed
/// constant, not the spec's seed (which still seeds the channel's noise
/// RNG), so the committed ablation outputs stay put.
const MT_OVERRIDE_SEED: u64 = 0xab1a7e;

/// A declarative channel configuration: registry name plus everything a
/// build needs, and the one way to construct a registered channel. Unset
/// options fall back to the paper's operating point (Gold 6226, `skylake`
/// profile, per-channel default parameters, default noise, seed 0).
#[derive(Debug, Clone)]
pub struct ChannelSpec {
    kind: String,
    model: ProcessorModel,
    profile: UarchProfile,
    params: Option<ChannelParams>,
    noise: Option<MtNoise>,
    frontend_override: Option<FrontendConfig>,
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
            frontend_override: None,
            seed: 0,
        }
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

    /// Runs the channel on an explicit frontend configuration instead of
    /// the profile's (the §XII defense-evaluation and ablation hook). The
    /// channel is laid out, checked and reported (profile key
    /// `"custom"`) under `config` as given: the machine does not gate its
    /// LSD. An MT channel's core then takes a fixed internal seed, which
    /// the committed ablation outputs depend on.
    pub fn frontend_config(mut self, config: FrontendConfig) -> Self {
        self.frontend_override = Some(config);
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
    /// machines; [`BuildError::NoiseUnsupported`] for a noise model on a
    /// channel without one; [`BuildError::UnsupportedGeometry`] for a
    /// geometry the frontend cannot model; [`BuildError::InvalidParams`]
    /// when the parameters violate the §V constraints under the
    /// channel's geometry. Every check reads the one frontend the
    /// channel then runs on: the profile's, with the LSD gated by the
    /// machine, or the [`ChannelSpec::frontend_config`] override as
    /// given.
    pub fn build(&self) -> Result<Box<dyn CovertChannel>, BuildError> {
        let info = channel_info(&self.kind)
            .ok_or_else(|| BuildError::UnknownChannel(self.kind.clone()))?;
        let params = match self.params {
            Some(params) => params,
            None => default_params(info.name)
                .ok_or_else(|| BuildError::UnknownChannel(self.kind.clone()))?,
        };
        if self.noise.is_some() && !info.requires_smt {
            return Err(BuildError::NoiseUnsupported(info.name));
        }
        if info.requires_smt && !self.model.smt_enabled {
            return Err(BuildError::SmtUnavailable {
                model: self.model.name,
            });
        }
        let (config, _) = self.frontend();
        check_geometry(&config.geometry).map_err(BuildError::UnsupportedGeometry)?;
        validate_params(info.name, &params, &config.geometry).map_err(BuildError::InvalidParams)?;
        use EncodeMode::{Fast, Stealthy};
        use NonMtKind::{Eviction, Misalignment};
        Ok(match info.name {
            "mt-eviction" => Box::new(self.mt(Eviction, params)),
            "mt-misalignment" => Box::new(self.mt(Misalignment, params)),
            "non-mt-stealthy-eviction" => Box::new(self.non_mt(Eviction, Stealthy, params)),
            "non-mt-fast-eviction" => Box::new(self.non_mt(Eviction, Fast, params)),
            "non-mt-stealthy-misalignment" => Box::new(self.non_mt(Misalignment, Stealthy, params)),
            "non-mt-fast-misalignment" => Box::new(self.non_mt(Misalignment, Fast, params)),
            "slow-switch" => Box::new(self.slow_switch(params)),
            "power-eviction" => Box::new(self.power(Eviction, params)),
            "power-misalignment" => Box::new(self.power(Misalignment, params)),
            other => unreachable!("registered but unbuilt channel {other:?}"),
        })
    }

    /// The one frontend the channel runs on, and the profile key its
    /// runs report: the profile's configuration with the LSD gated by the
    /// machine (exactly as [`Core::with_profile`](leaky_cpu::Core::with_profile)
    /// builds it), or an override as given under the key `"custom"`.
    pub(crate) fn frontend(&self) -> (FrontendConfig, &'static str) {
        match self.frontend_override {
            Some(config) => (config, "custom"),
            None => (
                self.model
                    .profile_config(MicrocodePatch::Patch1, &self.profile),
                self.profile.key,
            ),
        }
    }

    /// A channel on [`ChannelSpec::frontend`], its primitive laid out
    /// under that frontend's geometry.
    fn driver<M: Measure>(
        &self,
        params: ChannelParams,
        seed: u64,
        primitive: impl FnOnce(&FrontendGeometry) -> M,
    ) -> Driver<M> {
        let (config, profile_key) = self.frontend();
        let primitive = primitive(&config.geometry);
        Driver::on_frontend(self.model, config, profile_key, params, seed, primitive)
    }

    // The typed builders behind `build`'s arms, which have checked the
    // spec first; crate tests call them directly to read a channel's core.

    /// A §V-C/§V-D non-MT channel.
    pub(crate) fn non_mt(
        &self,
        kind: NonMtKind,
        mode: EncodeMode,
        params: ChannelParams,
    ) -> NonMtChannel {
        self.driver(params, self.seed, |geom| {
            let (recv, send_one, send_zero) = layout(kind, &params, geom);
            NonMt {
                kind,
                mode,
                recv,
                send_one,
                send_zero: (mode == EncodeMode::Stealthy).then_some(send_zero),
            }
        })
    }

    /// A §V-A/§V-B MT channel.
    pub(crate) fn mt(&self, kind: NonMtKind, params: ChannelParams) -> MtChannel {
        let seed = match self.frontend_override {
            Some(_) => MT_OVERRIDE_SEED,
            None => self.seed,
        };
        self.driver(params, seed, |geom| {
            let (recv, send_one, _) = layout(kind, &params, geom);
            Mt {
                kind,
                noise: self.noise.unwrap_or_default(),
                recv,
                send_one,
                rng: StdRng::seed_from_u64(self.seed ^ 0xc0ff_ee00),
            }
        })
    }

    /// A §VII power channel (stealthy zero-encoding, as in the paper's
    /// power evaluation).
    pub(crate) fn power(&self, kind: NonMtKind, params: ChannelParams) -> PowerChannel {
        self.driver(params, self.seed, |geom| {
            let (recv, send_one, send_zero) = layout(kind, &params, geom);
            Power {
                kind,
                recv,
                send_one,
                send_zero,
                rng: StdRng::seed_from_u64(self.seed ^ 0x70f_f4e7),
            }
        })
    }

    /// The §V-E slow-switch channel: two loop bodies of `2r` adds each
    /// (mixed and ordered interleavings) in a geometry-aware code region;
    /// the LCP stall and path-switch penalties come from the frontend's
    /// cost model.
    pub(crate) fn slow_switch(&self, params: ChannelParams) -> SlowSwitchChannel {
        self.driver(params, self.seed, |geom| {
            let mut region = CodeRegion::with_geometry(SENDER_REGION, *geom);
            let mixed = BlockChain::new(vec![region.lcp_block(LcpPattern::Mixed, params.r)]);
            let ordered = BlockChain::new(vec![region.lcp_block(LcpPattern::Ordered, params.r)]);
            SlowSwitch { mixed, ordered }
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
        assert!(matches!(err, BuildError::SmtUnavailable { .. }));
        // One input per remaining family, each a value where a panicking
        // constructor once sat: d beyond the N = 8 ways (non-MT), no
        // rounds per bit (power), and an empty LCP block (slow-switch);
        // plus a slow-switch bit with no timed iterations, which would
        // calibrate on timer noise alone.
        let cases = [
            (
                "non-mt-fast-eviction",
                ChannelParams::eviction_defaults().with_d(9),
                ParamsError::D { d: 9, ways: 8 },
            ),
            (
                "power-eviction",
                ChannelParams {
                    p: 0,
                    ..ChannelParams::power_defaults()
                },
                ParamsError::Iterations,
            ),
            (
                "slow-switch",
                ChannelParams {
                    r: 0,
                    ..ChannelParams::slow_switch_defaults()
                },
                ParamsError::R,
            ),
            (
                "slow-switch",
                ChannelParams {
                    p: 0,
                    ..ChannelParams::slow_switch_defaults()
                },
                ParamsError::P,
            ),
        ];
        for (name, params, expected) in cases {
            let err = ChannelSpec::new(name).params(params).build().unwrap_err();
            assert_eq!(err, BuildError::InvalidParams(expected), "{name}");
        }
    }

    #[test]
    fn a_dsb_too_small_for_the_layout_is_a_value_not_a_panic() {
        let profile = |dsb_sets| {
            let mut p = UarchProfile::skylake();
            p.geometry.dsb_sets = dsb_sets;
            p
        };
        // Every layout collides in set 3, so a 3-set DSB fits none ...
        for info in REGISTRY.iter().filter(|i| i.name != "slow-switch") {
            let err = ChannelSpec::new(info.name)
                .profile(profile(3))
                .build()
                .unwrap_err();
            let set = if info.name.ends_with("misalignment") {
                3
            } else {
                19
            };
            assert_eq!(
                err,
                BuildError::InvalidParams(ParamsError::DsbSet { set, sets: 3 }),
                "{}",
                info.name
            );
        }
        // ... while 16 sets hold set 3 but not the eviction decoy set 19.
        assert!(ChannelSpec::new("non-mt-fast-misalignment")
            .profile(profile(16))
            .build()
            .is_ok());
        let err = ChannelSpec::new("non-mt-stealthy-eviction")
            .profile(profile(16))
            .build()
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid channel parameters: the layout uses DSB set 19, beyond a 16-set DSB"
        );
        assert!(ChannelSpec::new("slow-switch")
            .profile(profile(3))
            .build()
            .is_ok());
        // Beyond the 64 sets the frontend models, no channel builds.
        let err = ChannelSpec::new("slow-switch")
            .profile(profile(65))
            .build()
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "unsupported geometry: dsb_sets = 65 exceeds the 64 sets a lock's set mask holds"
        );
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
                    matches!(built, Err(BuildError::SmtUnavailable { .. })),
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
    fn frontend_override_reaches_the_built_channel() {
        use leaky_frontend::CostModel;
        // A constant-time frontend kills the stealthy channel (§XII).
        let config = FrontendConfig {
            costs: CostModel::constant_time(),
            ..FrontendConfig::default()
        };
        let mut ch = ChannelSpec::new("non-mt-stealthy-eviction")
            .model(ProcessorModel::xeon_e2288g())
            .frontend_config(config)
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
        // ...and every channel runs on an override.
        for info in &REGISTRY {
            let ch = ChannelSpec::new(info.name)
                .frontend_config(FrontendConfig::default())
                .build()
                .unwrap();
            assert_eq!(ch.profile_key(), "custom", "{}", info.name);
        }
    }

    #[test]
    fn an_override_geometry_is_checked_like_a_profile_geometry() {
        // The eviction decoy set 19 is beyond a 16-set DSB, whether the
        // geometry arrives through a profile or an explicit override.
        let mut profile = UarchProfile::skylake();
        profile.geometry.dsb_sets = 16;
        let expected = BuildError::InvalidParams(ParamsError::DsbSet { set: 19, sets: 16 });
        let spec = ChannelSpec::new("non-mt-stealthy-eviction");
        let err = spec.clone().profile(profile).build().unwrap_err();
        assert_eq!(err, expected);
        let err = spec
            .frontend_config(FrontendConfig::from_profile(&profile))
            .build()
            .unwrap_err();
        assert_eq!(err, expected);
    }

    /// Calibrates `ch`, then transmits on it, checking that neither call
    /// leaves a state graph behind and that the walks ran at all.
    fn holds_no_graph_at_rest<M: crate::channels::driver::Measure>(mut ch: Driver<M>) {
        let name = ch.primitive.name();
        ch.try_calibrate().expect("default parameters calibrate");
        let stats = ch.core.frontend().memo_stats();
        assert_eq!((stats.states, stats.edges), (0, 0), "{name}: {stats:?}");
        ch.transmit(&MessagePattern::Alternating.generate(4, 0));
        let stats = ch.core.frontend().memo_stats();
        assert_eq!((stats.states, stats.edges), (0, 0), "{name}: {stats:?}");
        // Slow-switch runs LCP chains, which never walk a graph.
        assert!(
            stats.followed > 0 || name == "slow-switch",
            "{name}: {stats:?}"
        );
    }

    #[test]
    fn channels_at_rest_hold_no_state_graph() {
        use crate::sgx::{SgxMtChannel, SgxNonMtChannel, SgxPowerChannel};
        use EncodeMode::{Fast, Stealthy};
        use NonMtKind::{Eviction, Misalignment};
        for info in &REGISTRY {
            let spec = ChannelSpec::new(info.name).seed(3);
            let params = default_params(info.name).unwrap();
            match info.name {
                "mt-eviction" => holds_no_graph_at_rest(spec.mt(Eviction, params)),
                "mt-misalignment" => holds_no_graph_at_rest(spec.mt(Misalignment, params)),
                "non-mt-stealthy-eviction" => {
                    holds_no_graph_at_rest(spec.non_mt(Eviction, Stealthy, params));
                }
                "non-mt-fast-eviction" => {
                    holds_no_graph_at_rest(spec.non_mt(Eviction, Fast, params));
                }
                "non-mt-stealthy-misalignment" => {
                    holds_no_graph_at_rest(spec.non_mt(Misalignment, Stealthy, params));
                }
                "non-mt-fast-misalignment" => {
                    holds_no_graph_at_rest(spec.non_mt(Misalignment, Fast, params));
                }
                "slow-switch" => holds_no_graph_at_rest(spec.slow_switch(params)),
                "power-eviction" => holds_no_graph_at_rest(spec.power(Eviction, params)),
                "power-misalignment" => holds_no_graph_at_rest(spec.power(Misalignment, params)),
                other => panic!("no typed builder for {other:?}"),
            }
        }
        for kind in [Eviction, Misalignment] {
            let sgx = ProcessorModel::xeon_e2174g();
            holds_no_graph_at_rest(
                SgxNonMtChannel::new(sgx, kind, Fast, ChannelParams::sgx_non_mt_defaults(), 3)
                    .unwrap(),
            );
            holds_no_graph_at_rest(
                SgxPowerChannel::new(sgx, kind, ChannelParams::power_defaults(), 3).unwrap(),
            );
            holds_no_graph_at_rest(
                SgxMtChannel::new(sgx, kind, ChannelParams::sgx_mt_defaults(), 3).unwrap(),
            );
        }
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
