//! `kind = "profile"` files: a full [`UarchProfile`] — key, geometry,
//! cost model and LSD switch — validated field-by-field.
//!
//! The schema is deliberately total: every [`FrontendGeometry`] and
//! [`CostModel`] field must be present, unknown keys are errors, and
//! integers never coerce to floats. A profile file therefore pins the
//! *entire* microarchitecture it names; there is no way to inherit a
//! default silently and not notice.
//!
//! [`encode_profile`] writes the same schema back out canonically —
//! float formatting is shortest-round-trip, so `parse ∘ encode` is the
//! identity bit-for-bit (pinned by proptest), and the committed
//! `scenarios/{skylake,icelake,constant_time}.toml` are byte-identical
//! to `encode_profile` of the built-ins.

use std::fmt::Write as _;
use std::path::Path;

use leaky_isa::FrontendGeometry;
use leaky_uarch::{CostModel, UarchProfile};

use crate::toml::{is_bare_key, Doc, Table, Value};
use crate::{leak, ScenarioError};
use leaky_codec::schema;

/// Every [`FrontendGeometry`] field, in declaration order — drives both
/// validation and [`encode_profile`], so the two cannot drift.
pub const GEOMETRY_KEYS: [&str; 12] = [
    "dsb_sets",
    "dsb_ways",
    "dsb_window_bytes",
    "dsb_line_uops",
    "lsd_uops",
    "lsd_windows",
    "l1i_sets",
    "l1i_ways",
    "l1i_line_bytes",
    "iq_entries",
    "decode_width",
    "idq_delivery_width",
];

/// Every [`CostModel`] field, in declaration order.
pub const COST_KEYS: [&str; 17] = [
    "dsb_per_uop",
    "lsd_per_uop",
    "mite_line_base",
    "mite_per_uop",
    "dsb_to_mite_switch",
    "mite_to_dsb_switch",
    "lsd_flush",
    "lcp_stall",
    "lcp_sequential_extra",
    "mite_per_instr",
    "lcp_dsb_to_mite_switch",
    "lcp_mite_to_dsb_switch",
    "window_crossing_penalty",
    "l1i_miss",
    "loop_overhead",
    "smt_mite_factor",
    "timer_overhead",
];

fn set_geometry(g: &mut FrontendGeometry, key: &str, v: usize) -> bool {
    match key {
        "dsb_sets" => g.dsb_sets = v,
        "dsb_ways" => g.dsb_ways = v,
        "dsb_window_bytes" => g.dsb_window_bytes = v,
        "dsb_line_uops" => g.dsb_line_uops = v,
        "lsd_uops" => g.lsd_uops = v,
        "lsd_windows" => g.lsd_windows = v,
        "l1i_sets" => g.l1i_sets = v,
        "l1i_ways" => g.l1i_ways = v,
        "l1i_line_bytes" => g.l1i_line_bytes = v,
        "iq_entries" => g.iq_entries = v,
        "decode_width" => g.decode_width = v,
        "idq_delivery_width" => g.idq_delivery_width = v,
        _ => return false,
    }
    true
}

fn geometry_value(g: &FrontendGeometry, key: &str) -> usize {
    match key {
        "dsb_sets" => g.dsb_sets,
        "dsb_ways" => g.dsb_ways,
        "dsb_window_bytes" => g.dsb_window_bytes,
        "dsb_line_uops" => g.dsb_line_uops,
        "lsd_uops" => g.lsd_uops,
        "lsd_windows" => g.lsd_windows,
        "l1i_sets" => g.l1i_sets,
        "l1i_ways" => g.l1i_ways,
        "l1i_line_bytes" => g.l1i_line_bytes,
        "iq_entries" => g.iq_entries,
        "decode_width" => g.decode_width,
        "idq_delivery_width" => g.idq_delivery_width,
        other => panic!("not a geometry key: {other}"), // lint: allow(panic-path) — callers iterate GEOMETRY_KEYS
    }
}

fn set_cost(c: &mut CostModel, key: &str, v: f64) -> bool {
    match key {
        "dsb_per_uop" => c.dsb_per_uop = v,
        "lsd_per_uop" => c.lsd_per_uop = v,
        "mite_line_base" => c.mite_line_base = v,
        "mite_per_uop" => c.mite_per_uop = v,
        "dsb_to_mite_switch" => c.dsb_to_mite_switch = v,
        "mite_to_dsb_switch" => c.mite_to_dsb_switch = v,
        "lsd_flush" => c.lsd_flush = v,
        "lcp_stall" => c.lcp_stall = v,
        "lcp_sequential_extra" => c.lcp_sequential_extra = v,
        "mite_per_instr" => c.mite_per_instr = v,
        "lcp_dsb_to_mite_switch" => c.lcp_dsb_to_mite_switch = v,
        "lcp_mite_to_dsb_switch" => c.lcp_mite_to_dsb_switch = v,
        "window_crossing_penalty" => c.window_crossing_penalty = v,
        "l1i_miss" => c.l1i_miss = v,
        "loop_overhead" => c.loop_overhead = v,
        "smt_mite_factor" => c.smt_mite_factor = v,
        "timer_overhead" => c.timer_overhead = v,
        _ => return false,
    }
    true
}

fn cost_value(c: &CostModel, key: &str) -> f64 {
    match key {
        "dsb_per_uop" => c.dsb_per_uop,
        "lsd_per_uop" => c.lsd_per_uop,
        "mite_line_base" => c.mite_line_base,
        "mite_per_uop" => c.mite_per_uop,
        "dsb_to_mite_switch" => c.dsb_to_mite_switch,
        "mite_to_dsb_switch" => c.mite_to_dsb_switch,
        "lsd_flush" => c.lsd_flush,
        "lcp_stall" => c.lcp_stall,
        "lcp_sequential_extra" => c.lcp_sequential_extra,
        "mite_per_instr" => c.mite_per_instr,
        "lcp_dsb_to_mite_switch" => c.lcp_dsb_to_mite_switch,
        "lcp_mite_to_dsb_switch" => c.lcp_mite_to_dsb_switch,
        "window_crossing_penalty" => c.window_crossing_penalty,
        "l1i_miss" => c.l1i_miss,
        "loop_overhead" => c.loop_overhead,
        "smt_mite_factor" => c.smt_mite_factor,
        "timer_overhead" => c.timer_overhead,
        other => panic!("not a cost key: {other}"), // lint: allow(panic-path) — callers iterate COST_KEYS
    }
}

/// Validates the top-level `schema`/`kind` header and returns the file's
/// kind (`"profile"` or `"scenario"`).
pub fn document_kind(doc: &Doc) -> Result<&str, ScenarioError> {
    for e in &doc.root.entries {
        if e.key != "schema" && e.key != "kind" {
            return Err(ScenarioError::at(
                e.line,
                format!("unknown top-level key `{}`", e.key),
            ));
        }
    }
    let Some(tag) = doc.root.get("schema") else {
        return Err(ScenarioError::doc("missing top-level `schema` key"));
    };
    match &tag.value {
        Value::Str(s) if s == schema::SCENARIO => {}
        Value::Str(s) => {
            return Err(ScenarioError::at(
                tag.line,
                format!("schema must be \"{}\", got \"{s}\"", schema::SCENARIO),
            ));
        }
        other => {
            return Err(ScenarioError::at(
                tag.line,
                format!("key `schema`: expected string, got {}", other.type_name()),
            ));
        }
    }
    let Some(kind) = doc.root.get("kind") else {
        return Err(ScenarioError::doc("missing top-level `kind` key"));
    };
    match &kind.value {
        Value::Str(s) if s == "profile" || s == "scenario" => Ok(s),
        Value::Str(s) => Err(ScenarioError::at(
            kind.line,
            format!("kind must be \"profile\" or \"scenario\", got \"{s}\""),
        )),
        other => Err(ScenarioError::at(
            kind.line,
            format!("key `kind`: expected string, got {}", other.type_name()),
        )),
    }
}

/// Checks the header names the expected kind.
fn expect_kind(doc: &Doc, expected: &str) -> Result<(), ScenarioError> {
    let kind = document_kind(doc)?;
    if kind != expected {
        return Err(ScenarioError::doc(format!(
            "expected a {expected} file, got kind = \"{kind}\""
        )));
    }
    Ok(())
}

/// Rejects tables outside `allowed` and requires every one in
/// `required`.
pub(crate) fn check_tables(
    doc: &Doc,
    allowed: &[&str],
    required: &[&str],
) -> Result<(), ScenarioError> {
    for t in &doc.tables {
        if !allowed.contains(&t.name.as_str()) {
            return Err(ScenarioError::at(
                t.line,
                format!("unknown table [{}]", t.name),
            ));
        }
    }
    for name in required {
        if doc.table(name).is_none() {
            return Err(ScenarioError::doc(format!("missing table [{name}]")));
        }
    }
    Ok(())
}

/// Typed getter: a required string key.
pub(crate) fn get_str<'t>(t: &'t Table, key: &str) -> Result<&'t str, ScenarioError> {
    match t.get(key) {
        Some(e) => match &e.value {
            Value::Str(s) => Ok(s),
            other => Err(ScenarioError::at(
                e.line,
                format!(
                    "key `{key}` in [{}]: expected string, got {}",
                    t.name,
                    other.type_name()
                ),
            )),
        },
        None => Err(ScenarioError::at(
            t.line,
            format!("missing key `{key}` in [{}]", t.name),
        )),
    }
}

/// Typed getter: a required boolean key.
pub(crate) fn get_bool(t: &Table, key: &str) -> Result<bool, ScenarioError> {
    match t.get(key) {
        Some(e) => match e.value {
            Value::Bool(b) => Ok(b),
            ref other => Err(ScenarioError::at(
                e.line,
                format!(
                    "key `{key}` in [{}]: expected boolean, got {}",
                    t.name,
                    other.type_name()
                ),
            )),
        },
        None => Err(ScenarioError::at(
            t.line,
            format!("missing key `{key}` in [{}]", t.name),
        )),
    }
}

/// Typed getter: a required non-negative integer key.
pub(crate) fn get_uint(t: &Table, key: &str) -> Result<u64, ScenarioError> {
    match t.get(key) {
        Some(e) => match e.value {
            Value::Int(v) if v >= 0 => Ok(v as u64),
            Value::Int(_) => Err(ScenarioError::at(
                e.line,
                format!("key `{key}` in [{}]: must be non-negative", t.name),
            )),
            ref other => Err(ScenarioError::at(
                e.line,
                format!(
                    "key `{key}` in [{}]: expected integer, got {}",
                    t.name,
                    other.type_name()
                ),
            )),
        },
        None => Err(ScenarioError::at(
            t.line,
            format!("missing key `{key}` in [{}]", t.name),
        )),
    }
}

/// Parses a profile file body into a [`UarchProfile`].
///
/// Every geometry and cost field must be present with the right type;
/// unknown keys and unknown tables are errors with stable messages (the
/// malformed-file corpus pins them).
pub fn parse_profile(text: &str) -> Result<UarchProfile, ScenarioError> {
    let doc = Doc::parse(text)?;
    expect_kind(&doc, "profile")?;
    check_tables(
        &doc,
        &["profile", "geometry", "costs"],
        &["profile", "geometry", "costs"],
    )?;

    let meta = doc.table("profile").expect("required above"); // lint: allow(panic-path) — check_tables guarantees presence
    for e in &meta.entries {
        if !matches!(e.key.as_str(), "key" | "description" | "lsd_enabled") {
            return Err(ScenarioError::at(
                e.line,
                format!("unknown key `{}` in [profile]", e.key),
            ));
        }
    }
    let key = get_str(meta, "key")?;
    if !is_bare_key(key) {
        return Err(ScenarioError::at(
            meta.get("key").expect("just read").line, // lint: allow(panic-path) — key was read above
            format!("profile key `{key}` must contain only [A-Za-z0-9_-]"),
        ));
    }
    let description = get_str(meta, "description")?.to_string();
    let lsd_enabled = get_bool(meta, "lsd_enabled")?;

    let gt = doc.table("geometry").expect("required above"); // lint: allow(panic-path) — check_tables guarantees presence
    let mut geometry = FrontendGeometry::skylake();
    for e in &gt.entries {
        let v = match e.value {
            Value::Int(v) if v > 0 => v as usize,
            Value::Int(_) => {
                return Err(ScenarioError::at(
                    e.line,
                    format!("key `{}` in [geometry]: must be a positive integer", e.key),
                ));
            }
            ref other => {
                return Err(ScenarioError::at(
                    e.line,
                    format!(
                        "key `{}` in [geometry]: expected integer, got {}",
                        e.key,
                        other.type_name()
                    ),
                ));
            }
        };
        if !set_geometry(&mut geometry, &e.key, v) {
            return Err(ScenarioError::at(
                e.line,
                format!("unknown key `{}` in [geometry]", e.key),
            ));
        }
    }
    for key in GEOMETRY_KEYS {
        if gt.get(key).is_none() {
            return Err(ScenarioError::at(
                gt.line,
                format!("missing key `{key}` in [geometry]"),
            ));
        }
    }

    let ct = doc.table("costs").expect("required above"); // lint: allow(panic-path) — check_tables guarantees presence
    let mut costs = CostModel::skylake();
    for e in &ct.entries {
        let v = match e.value {
            Value::Float(v) if v >= 0.0 => v,
            Value::Float(_) => {
                return Err(ScenarioError::at(
                    e.line,
                    format!("key `{}` in [costs]: must be non-negative", e.key),
                ));
            }
            Value::Int(_) => {
                return Err(ScenarioError::at(
                    e.line,
                    format!(
                        "key `{}` in [costs]: expected float, got integer (write `4` as `4.0`)",
                        e.key
                    ),
                ));
            }
            ref other => {
                return Err(ScenarioError::at(
                    e.line,
                    format!(
                        "key `{}` in [costs]: expected float, got {}",
                        e.key,
                        other.type_name()
                    ),
                ));
            }
        };
        if !set_cost(&mut costs, &e.key, v) {
            return Err(ScenarioError::at(
                e.line,
                format!("unknown key `{}` in [costs]", e.key),
            ));
        }
    }
    for key in COST_KEYS {
        if ct.get(key).is_none() {
            return Err(ScenarioError::at(
                ct.line,
                format!("missing key `{key}` in [costs]"),
            ));
        }
    }

    Ok(UarchProfile {
        key: leak(key.to_string()),
        description: leak(description),
        geometry,
        costs,
        lsd_enabled,
    })
}

/// Formats a float so it parses back bit-identically *as a float*:
/// shortest round-trip decimal, with `.0` forced onto integral values so
/// the token keeps a decimal point.
fn fmt_float(v: f64) -> String {
    if v == v.trunc() {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Writes a profile back out in the canonical file layout.
/// `parse_profile(&encode_profile(p))` reproduces `p` exactly (proptest
/// pins this), and the committed legacy profile files are byte-identical
/// to the encodings of the built-ins.
pub fn encode_profile(p: &UarchProfile) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "schema = \"{}\"", schema::SCENARIO);
    let _ = writeln!(out, "kind = \"profile\"");
    let _ = writeln!(out);
    let _ = writeln!(out, "[profile]");
    let _ = writeln!(out, "key = \"{}\"", escape(p.key));
    let _ = writeln!(out, "description = \"{}\"", escape(p.description));
    let _ = writeln!(out, "lsd_enabled = {}", p.lsd_enabled);
    let _ = writeln!(out);
    let _ = writeln!(out, "[geometry]");
    for key in GEOMETRY_KEYS {
        let _ = writeln!(out, "{key} = {}", geometry_value(&p.geometry, key));
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "[costs]");
    for key in COST_KEYS {
        let _ = writeln!(out, "{key} = {}", fmt_float(cost_value(&p.costs, key)));
    }
    out
}

/// `UarchProfile::from_file` — the extension that loads a profile file
/// from disk (inherent methods cannot be added outside `leaky_uarch`,
/// and the parser lives here).
pub trait ProfileFileExt: Sized {
    /// Loads and validates a `kind = "profile"` scenario file.
    fn from_file(path: impl AsRef<Path>) -> Result<Self, ScenarioError>;
}

impl ProfileFileExt for UarchProfile {
    fn from_file(path: impl AsRef<Path>) -> Result<Self, ScenarioError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| ScenarioError::doc(format!("{}: {e}", path.display())))?;
        parse_profile(&text).map_err(|e| e.in_file(path))
    }
}

/// The string-keyed profile registry: compiled-in profiles merged with
/// directory-loaded ones, in deterministic order (built-ins first, then
/// files sorted by name).
#[derive(Debug, Clone)]
pub struct ProfileRegistry {
    entries: Vec<UarchProfile>,
}

impl ProfileRegistry {
    /// A registry holding exactly the compiled-in profiles
    /// ([`UarchProfile::all`]).
    pub fn builtins() -> Self {
        ProfileRegistry {
            entries: UarchProfile::all().to_vec(),
        }
    }

    /// An empty registry (for tests that want file-only resolution).
    pub fn empty() -> Self {
        ProfileRegistry {
            entries: Vec::new(),
        }
    }

    /// Adds a profile. Re-registering a key with *identical* contents
    /// replaces the existing entry (so a file restating a built-in is
    /// legal and the file copy is the one served — the byte-identity
    /// tests rely on this); a key collision with different contents is
    /// an error.
    pub fn add(&mut self, p: UarchProfile) -> Result<(), ScenarioError> {
        if let Some(existing) = self.entries.iter_mut().find(|e| e.key == p.key) {
            if existing.fingerprint() != p.fingerprint() {
                return Err(ScenarioError::doc(format!(
                    "profile `{}` is already registered with different contents",
                    p.key
                )));
            }
            *existing = p;
            return Ok(());
        }
        self.entries.push(p);
        Ok(())
    }

    /// Loads every `kind = "profile"` `.toml` file in `dir` (sorted by
    /// file name; `kind = "scenario"` bundles in the same directory are
    /// skipped). Returns how many profiles were loaded.
    pub fn load_dir(&mut self, dir: impl AsRef<Path>) -> Result<usize, ScenarioError> {
        let dir = dir.as_ref();
        let entries = std::fs::read_dir(dir)
            .map_err(|e| ScenarioError::doc(format!("{}: {e}", dir.display())))?;
        let mut paths: Vec<_> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "toml"))
            .collect();
        paths.sort();
        let mut loaded = 0;
        for path in paths {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| ScenarioError::doc(format!("{}: {e}", path.display())))?;
            let doc = Doc::parse(&text).map_err(|e| e.in_file(&path))?;
            if document_kind(&doc).map_err(|e| e.in_file(&path))? != "profile" {
                continue;
            }
            let profile = parse_profile(&text).map_err(|e| e.in_file(&path))?;
            self.add(profile).map_err(|e| e.in_file(&path))?;
            loaded += 1;
        }
        Ok(loaded)
    }

    /// Looks a profile up by key.
    pub fn get(&self, key: &str) -> Option<UarchProfile> {
        self.entries.iter().find(|p| p.key == key).copied()
    }

    /// Registered keys, in registration order.
    pub fn keys(&self) -> Vec<&'static str> {
        self.entries.iter().map(|p| p.key).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_profiles_round_trip_through_the_codec() {
        for builtin in UarchProfile::all() {
            let text = encode_profile(&builtin);
            assert!(text.starts_with(&format!("schema = \"{}\"\n", schema::SCENARIO)));
            let parsed = parse_profile(&text).expect("canonical encoding parses");
            assert_eq!(parsed.key, builtin.key);
            assert_eq!(parsed.description, builtin.description);
            assert_eq!(parsed.geometry, builtin.geometry);
            assert_eq!(parsed.costs, builtin.costs);
            assert_eq!(parsed.lsd_enabled, builtin.lsd_enabled);
            assert_eq!(parsed.fingerprint(), builtin.fingerprint());
        }
    }

    #[test]
    fn registry_merges_and_rejects_conflicts() {
        let mut reg = ProfileRegistry::builtins();
        assert_eq!(reg.keys(), vec!["skylake", "icelake", "constant_time"]);

        // Identical restatement of a built-in: accepted, replaces.
        let restated = parse_profile(&encode_profile(&UarchProfile::skylake())).unwrap();
        reg.add(restated).expect("identical restatement is legal");
        assert_eq!(reg.keys().len(), 3);

        // Same key, different contents: rejected.
        let mut forked = UarchProfile::skylake();
        forked.costs.dsb_per_uop = 0.5;
        let err = reg.add(forked).unwrap_err();
        assert_eq!(
            err.to_string(),
            "profile `skylake` is already registered with different contents"
        );

        // New key: appended.
        let mut fresh = UarchProfile::icelake();
        fresh.key = "icelake_v2";
        reg.add(fresh).expect("new key");
        assert_eq!(reg.get("icelake_v2").unwrap().key, "icelake_v2");
    }

    #[test]
    fn float_formatting_keeps_the_decimal_point() {
        assert_eq!(fmt_float(4.0), "4.0");
        assert_eq!(fmt_float(0.18), "0.18");
        assert_eq!(fmt_float(0.0), "0.0");
    }
}
