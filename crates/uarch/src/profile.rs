//! The microarchitecture profile registry.

use leaky_isa::FrontendGeometry;

use crate::costs::CostModel;

/// A named microarchitecture: frontend geometry, fitted cycle costs, and
/// the feature switches they imply, bundled under a stable key.
///
/// Profiles are plain values (`Copy`), so experiments can perturb a copy
/// for ablations; the [`UarchProfile::fingerprint`] content hash is what
/// caches key on, so a perturbed profile can never alias the canonical
/// one's memoized state (delivery plans, backend throughput).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UarchProfile {
    /// Stable registry key (CLI axis value, cache namespaces).
    pub key: &'static str,
    /// One-line human description.
    pub description: &'static str,
    /// Frontend structure geometry (Table I or an ablation of it).
    pub geometry: FrontendGeometry,
    /// Cycle-cost calibration.
    pub costs: CostModel,
    /// Whether the microarchitecture ships with the LSD operational. A
    /// processor model / microcode patch can only further *disable* loop
    /// streaming, never enable it on a profile that lacks it.
    pub lsd_enabled: bool,
}

impl UarchProfile {
    /// The Skylake-family profile shared by every Table I machine —
    /// bit-identical to the historical hardcoded
    /// `FrontendGeometry::skylake()` + `CostModel::skylake()` defaults.
    pub const fn skylake() -> Self {
        UarchProfile {
            key: "skylake",
            description: "Skylake-family Table I machine (default)",
            geometry: FrontendGeometry::skylake(),
            costs: CostModel::skylake(),
            lsd_enabled: true,
        }
    }

    /// An Ice-Lake-class ablation profile: larger DSB lines (8 µops, for a
    /// 2 K-µop-class DSB), a wider decode cluster, a deeper instruction
    /// queue, a 48 KB L1I — and the LSD fused off, as the post-Skylake
    /// erratum mitigations ship it.
    pub const fn icelake() -> Self {
        UarchProfile {
            key: "icelake",
            description: "Ice-Lake-class: 8-uop DSB lines, wider decode, 48 KB L1I, LSD fused off",
            geometry: FrontendGeometry {
                dsb_line_uops: 8,
                decode_width: 6,
                iq_entries: 70,
                l1i_ways: 12,
                ..FrontendGeometry::skylake()
            },
            costs: CostModel::icelake(),
            lsd_enabled: false,
        }
    }

    /// The §XII defense profile: Skylake geometry with every delivery path
    /// equalized ([`CostModel::constant_time`]) so no timing signature
    /// distinguishes DSB, LSD and MITE delivery.
    pub const fn constant_time() -> Self {
        UarchProfile {
            key: "constant_time",
            description: "Skylake geometry with all delivery paths cost-equalized (defense, §XII)",
            geometry: FrontendGeometry::skylake(),
            costs: CostModel::constant_time(),
            lsd_enabled: true,
        }
    }

    /// Every registered profile, in sweep-axis order.
    pub const fn all() -> [UarchProfile; 3] {
        [Self::skylake(), Self::icelake(), Self::constant_time()]
    }

    /// Looks a profile up by its stable key.
    pub fn by_key(key: &str) -> Option<UarchProfile> {
        Self::all().into_iter().find(|p| p.key == key)
    }

    /// The registered keys, in sweep-axis order.
    pub fn keys() -> [&'static str; 3] {
        Self::all().map(|p| p.key)
    }

    /// Content fingerprint over the geometry, cost model and feature
    /// switches. Two profiles agree on their fingerprint iff they describe
    /// the same microarchitecture, regardless of `key`/`description` — this
    /// is what memoization layers (delivery-plan caches, backend-throughput
    /// memos) key on, so perturbing a profile for an ablation invalidates
    /// every cached artifact derived from the original.
    pub fn fingerprint(&self) -> u64 {
        config_fingerprint(&self.geometry, &self.costs, &[self.lsd_enabled as u64])
    }
}

/// Content hash over a (geometry, cost-model) pair plus arbitrary extra
/// configuration words — the primitive behind
/// [`UarchProfile::fingerprint`] and the frontend's per-configuration
/// profile key. FNV-1a over the field values (f64s by bit pattern), so
/// the result is stable across platforms and runs.
pub fn config_fingerprint(geometry: &FrontendGeometry, costs: &CostModel, extra: &[u64]) -> u64 {
    let mut h = Fnv1a::new();
    hash_geometry(&mut h, geometry);
    hash_costs(&mut h, costs);
    for &v in extra {
        h.write_u64(v);
    }
    h.finish()
}

impl Default for UarchProfile {
    fn default() -> Self {
        Self::skylake()
    }
}

/// Minimal FNV-1a accumulator — stable across platforms and Rust
/// versions, unlike `DefaultHasher` (cache keys never cross process
/// boundaries, but a stable hash keeps fingerprints printable/diffable in
/// debugging sessions). Public because it is the workspace's single
/// FNV-1a home: `leaky_exp`'s content-key seed derivation folds its key
/// bytes through the same accumulator, so the constants can never
/// drift apart.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// Starts an accumulator at the FNV-1a offset basis.
    #[expect(
        clippy::new_without_default,
        reason = "a hash accumulator starts from an explicit basis, not a default"
    )]
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds raw bytes into the hash.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one little-endian `u64` into the hash.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// The accumulated hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Folds every geometry field into `h`, in declaration order.
pub(crate) fn hash_geometry(h: &mut Fnv1a, g: &FrontendGeometry) {
    // Destructured without `..`, so a new geometry field is a compile
    // error (E0027) here until it joins the fingerprint.
    let FrontendGeometry {
        dsb_sets,
        dsb_ways,
        dsb_window_bytes,
        dsb_line_uops,
        lsd_uops,
        lsd_windows,
        l1i_sets,
        l1i_ways,
        l1i_line_bytes,
        iq_entries,
        decode_width,
        idq_delivery_width,
    } = *g;
    for v in [
        dsb_sets,
        dsb_ways,
        dsb_window_bytes,
        dsb_line_uops,
        lsd_uops,
        lsd_windows,
        l1i_sets,
        l1i_ways,
        l1i_line_bytes,
        iq_entries,
        decode_width,
        idq_delivery_width,
    ] {
        h.write_u64(v as u64);
    }
}

/// Folds every cost-model field (bit pattern) into `h`.
pub(crate) fn hash_costs(h: &mut Fnv1a, c: &CostModel) {
    // Destructured without `..` (see `hash_geometry`).
    let CostModel {
        dsb_per_uop,
        lsd_per_uop,
        mite_line_base,
        mite_per_uop,
        dsb_to_mite_switch,
        mite_to_dsb_switch,
        lsd_flush,
        lcp_stall,
        lcp_sequential_extra,
        mite_per_instr,
        lcp_dsb_to_mite_switch,
        lcp_mite_to_dsb_switch,
        window_crossing_penalty,
        l1i_miss,
        loop_overhead,
        smt_mite_factor,
        timer_overhead,
    } = *c;
    for v in [
        dsb_per_uop,
        lsd_per_uop,
        mite_line_base,
        mite_per_uop,
        dsb_to_mite_switch,
        mite_to_dsb_switch,
        lsd_flush,
        lcp_stall,
        lcp_sequential_extra,
        mite_per_instr,
        lcp_dsb_to_mite_switch,
        lcp_mite_to_dsb_switch,
        window_crossing_penalty,
        l1i_miss,
        loop_overhead,
        smt_mite_factor,
        timer_overhead,
    ] {
        h.write_u64(v.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skylake_profile_matches_historical_defaults() {
        let p = UarchProfile::skylake();
        assert_eq!(p.geometry, FrontendGeometry::skylake());
        assert_eq!(p.costs, CostModel::skylake());
        assert!(p.lsd_enabled);
        assert_eq!(UarchProfile::default(), p);
    }

    #[test]
    fn registry_keys_are_unique_and_resolvable() {
        let keys = UarchProfile::keys();
        assert_eq!(keys, ["skylake", "icelake", "constant_time"]);
        for key in keys {
            assert_eq!(UarchProfile::by_key(key).unwrap().key, key);
        }
        assert!(UarchProfile::by_key("pentium4").is_none());
    }

    #[test]
    fn icelake_diverges_where_documented() {
        let icl = UarchProfile::icelake();
        let sky = UarchProfile::skylake();
        assert_eq!(icl.geometry.dsb_line_uops, 8);
        assert!(icl.geometry.dsb_capacity_uops() > sky.geometry.dsb_capacity_uops());
        assert_eq!(icl.geometry.l1i_capacity_bytes(), 48 * 1024);
        assert!(icl.geometry.decode_width > sky.geometry.decode_width);
        assert!(!icl.lsd_enabled);
        // Layout-relevant fields stay Skylake so Fig. 3 placements remain
        // valid on every profile.
        assert_eq!(icl.geometry.dsb_sets, sky.geometry.dsb_sets);
        assert_eq!(icl.geometry.dsb_window_bytes, sky.geometry.dsb_window_bytes);
    }

    #[test]
    fn fingerprints_distinguish_profiles_and_perturbations() {
        let prints: Vec<u64> = UarchProfile::all()
            .iter()
            .map(|p| p.fingerprint())
            .collect();
        let mut sorted = prints.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), prints.len(), "profile fingerprints collided");

        // Same contents, different label: same fingerprint (content hash).
        let mut relabeled = UarchProfile::skylake();
        relabeled.key = "skylake-prime";
        assert_eq!(
            relabeled.fingerprint(),
            UarchProfile::skylake().fingerprint()
        );

        // Any geometry or cost perturbation moves the fingerprint.
        let mut geom = UarchProfile::skylake();
        geom.geometry.dsb_line_uops = 5;
        assert_ne!(geom.fingerprint(), UarchProfile::skylake().fingerprint());
        let mut cost = UarchProfile::skylake();
        cost.costs.dsb_per_uop = 0.19;
        assert_ne!(cost.fingerprint(), UarchProfile::skylake().fingerprint());
        let mut lsd = UarchProfile::skylake();
        lsd.lsd_enabled = false;
        assert_ne!(lsd.fingerprint(), UarchProfile::skylake().fingerprint());
    }
}
