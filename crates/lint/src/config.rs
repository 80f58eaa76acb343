//! Lint configuration: which crates are determinism-critical and which
//! (struct, key-function) pairs must stay field-complete.
//!
//! The defaults describe *this* workspace; fixture tests reuse them
//! over miniature workspace trees that mirror the same paths.

/// One structural cache-key completeness obligation: every field of
/// `struct_name` must be consumed by `fn_name`, or a memo cache keyed by
/// that function can serve stale results after the struct grows a field
/// (the PR 4 class of bug).
#[derive(Debug, Clone)]
pub struct KeyPair {
    /// Struct whose fields define the configuration space.
    pub struct_name: &'static str,
    /// Workspace-relative file declaring the struct.
    pub struct_file: &'static str,
    /// Function that must consume every field.
    pub fn_name: &'static str,
    /// Workspace-relative file declaring the function.
    pub fn_file: &'static str,
    /// When set, the function is resolved inside the `impl` block whose
    /// header mentions this type (disambiguates e.g. multiple `fn fmt`).
    pub impl_for: Option<&'static str>,
    /// What the function keys (for diagnostics).
    pub role: &'static str,
}

/// Full rule configuration.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Directory names under `crates/` whose code feeds content keys,
    /// sweep output or goldens.
    pub determinism_crates: Vec<&'static str>,
    /// Structural key-completeness obligations.
    pub key_pairs: Vec<KeyPair>,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            determinism_crates: vec![
                "exp", "bench", "stats", "core", "store", "trace", "lint", "scenario", "codec",
            ],
            key_pairs: vec![
                KeyPair {
                    struct_name: "FrontendGeometry",
                    struct_file: "crates/isa/src/geom.rs",
                    fn_name: "hash_geometry",
                    fn_file: "crates/uarch/src/profile.rs",
                    impl_for: None,
                    role: "profile fingerprints / plan-cache keys",
                },
                KeyPair {
                    struct_name: "CostModel",
                    struct_file: "crates/uarch/src/costs.rs",
                    fn_name: "hash_costs",
                    fn_file: "crates/uarch/src/profile.rs",
                    impl_for: None,
                    role: "profile fingerprints / plan-cache keys",
                },
                KeyPair {
                    struct_name: "FrontendConfig",
                    struct_file: "crates/frontend/src/engine.rs",
                    fn_name: "profile_key",
                    fn_file: "crates/frontend/src/engine.rs",
                    impl_for: Some("FrontendConfig"),
                    role: "delivery-plan and backend-throughput memo keys",
                },
                KeyPair {
                    struct_name: "ChannelParams",
                    struct_file: "crates/core/src/params.rs",
                    fn_name: "fmt",
                    fn_file: "crates/core/src/params.rs",
                    impl_for: Some("ChannelParams"),
                    role: "sweep provenance (run identity in JSON output)",
                },
            ],
        }
    }
}
