//! **Leaky Frontends** — the paper's contribution: covert channels, side
//! channels and fingerprinting attacks built on processor-frontend path
//! switching (HPCA 2022).
//!
//! The root cause exploited throughout is that µop delivery can take three
//! paths — MITE, DSB (micro-op cache) or LSD — with distinct timing and
//! power signatures, and that attackers can force *switches* between the
//! paths (paper §IV). This crate implements every attack the paper
//! evaluates:
//!
//! | Paper section | Module | Attack |
//! |---|---|---|
//! | §V-A | [`channels::mt`] | MT eviction-based timing channel |
//! | §V-B | [`channels::mt`] | MT misalignment-based timing channel |
//! | §V-C | [`channels::non_mt`] | non-MT eviction channel (stealthy/fast) |
//! | §V-D | [`channels::non_mt`] | non-MT misalignment channel |
//! | §V-E | [`channels::slow_switch`] | LCP slow-switch channel |
//! | §VII | [`channels::power`] | power (RAPL) channels |
//! | §VIII | [`sgx`] | SGX enclave exfiltration (MT + non-MT) |
//! | §X | [`fingerprint::microcode`] | microcode-patch fingerprinting |
//! | §XI | [`fingerprint::ipc`] | application fingerprinting side channel |
//!
//! Every channel follows the paper's three-step pattern — **Init** (place
//! µops on a known path), **Encode** (the sender perturbs the path according
//! to the secret bit), **Decode** (the receiver measures timing or power) —
//! and is evaluated by transmission rate and Wagner-Fischer error rate
//! exactly as in §VI.
//!
//! All covert channels present one surface: the [`CovertChannel`] trait,
//! built from the string-keyed [`channels::registry`] via [`ChannelSpec`]
//! (enumerate with [`channel_names`]). Channel codes
//! ([`coding::Repetition`], [`coding::Hamming74`]) wire into the transmit
//! path through [`session::Session`]. See DESIGN.md §9.
//!
//! # Examples
//!
//! Build a registered channel and transmit:
//!
//! ```
//! use leaky_frontends::channels::ChannelSpec;
//! use leaky_frontends::params::MessagePattern;
//!
//! let mut ch = ChannelSpec::new("non-mt-fast-eviction")
//!     .model(leaky_cpu::ProcessorModel::xeon_e2288g())
//!     .seed(7)
//!     .build()
//!     .expect("registered, SMT-independent channel");
//! let message = MessagePattern::Alternating.generate(32, 1);
//! let run = ch.transmit(&message);
//! assert!(run.error_rate() < 0.1);
//! assert!(run.rate_kbps() > 100.0);
//! ```
//!
//! Send bytes through a channel code (§VI-B extension):
//!
//! ```
//! use leaky_frontends::channels::ChannelSpec;
//! use leaky_frontends::coding::Repetition;
//! use leaky_frontends::session::Session;
//!
//! let mut ch = ChannelSpec::new("non-mt-fast-eviction")
//!     .model(leaky_cpu::ProcessorModel::xeon_e2288g())
//!     .seed(7)
//!     .build()
//!     .unwrap();
//! let run = Session::new(ch.as_mut(), Repetition::new(3)).send_bytes(b"hi");
//! assert_eq!(run.payload(), Some(&b"hi"[..]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod channels;
pub mod coding;
pub mod fingerprint;
pub mod params;
pub mod run;
pub mod session;
pub mod sgx;

pub use channels::{
    channel_info, channel_names, BuildError, ChannelInfo, ChannelSpec, CovertChannel, REGISTRY,
};
pub use params::{ChannelParams, EncodeMode, MessagePattern, ParamsError};
pub use run::{ChannelRun, Evaluation, Provenance};
pub use session::{Session, SessionRun};
