//! `kind = "scenario"` files: a sweep bundle — grid axes (uarch ×
//! channel × machine × optional d / pattern), message, workload sizes
//! and optional MT noise — validated against the channel registry and
//! the caller's [`ProfileRegistry`], then lowered onto a
//! [`ParamGrid`]-backed [`Experiment`].
//!
//! The lowering mirrors the compiled-in `tab3_uarch` spec exactly: the
//! same `profile` quick/full axis first, the same axis ordering as the
//! file, the same [`channel_cell_traced`] measurement path, and content
//! keys derived from the loaded axis values — so a bundle restating a
//! compiled-in sweep produces byte-identical output (pinned by the
//! `scenarios/tab3_uarch.toml` golden test), and the store / resume /
//! telemetry machinery works on loaded bundles unchanged.

use std::path::Path;

use leaky_cpu::ProcessorModel;
use leaky_exp::experiments::{channel_cell_traced, machine};
use leaky_exp::{CellMeasurement, Experiment, JobCell, ParamGrid};
use leaky_frontend::check_geometry;
use leaky_frontends::channels::mt::MtNoise;
use leaky_frontends::channels::registry::{default_params, validate_params};
use leaky_frontends::channels::{channel_info, ChannelSpec};
use leaky_frontends::params::MessagePattern;
use leaky_trace::TraceMode;
use leaky_uarch::UarchProfile;

use crate::profile::{check_tables, document_kind, get_str, get_uint, table, ProfileRegistry};
use crate::toml::{is_bare_key, Doc, Entry, Table, Value};
use crate::{leak, ScenarioError};

/// Axis names a `[grid]` table may declare, in the error message's
/// order.
const AXES: [&str; 5] = ["uarch", "channel", "machine", "d", "pattern"];

/// Axes every bundle must declare.
const REQUIRED_AXES: [&str; 3] = ["uarch", "channel", "machine"];

/// One grid axis loaded from a bundle file, in file order.
#[derive(Debug, Clone)]
enum AxisValues {
    /// Categorical coordinates (`uarch`, `channel`, `machine`,
    /// `pattern`).
    Strs(Vec<String>),
    /// Integer coordinates (`d`).
    Ints(Vec<i64>),
}

impl AxisValues {
    fn len(&self) -> usize {
        match self {
            AxisValues::Strs(v) => v.len(),
            AxisValues::Ints(v) => v.len(),
        }
    }
}

/// A parsed, fully validated scenario bundle, ready to lower onto an
/// [`Experiment`] with [`ScenarioBundle::into_experiment`].
#[derive(Debug, Clone)]
pub struct ScenarioBundle {
    /// Registry/sweep name (`[scenario] name`; also the content-key
    /// prefix).
    pub name: &'static str,
    /// One-line human title (`[scenario] title`).
    pub title: &'static str,
    axes: Vec<(String, AxisValues)>,
    /// Profiles resolved from the `uarch` axis, in axis order.
    profiles: Vec<UarchProfile>,
    /// Fixed message pattern (`[message] pattern`), or `None` when the
    /// bundle sweeps a `pattern` axis instead.
    pattern: Option<MessagePattern>,
    message_seed: u64,
    bits: usize,
    quick_bits: usize,
    mt_bits: usize,
    quick_mt_bits: usize,
    noise: Option<MtNoise>,
}

fn get_float(t: &Table, key: &str) -> Result<f64, ScenarioError> {
    match t.get(key) {
        Some(e) => match e.value {
            Value::Float(v) => Ok(v),
            Value::Int(_) => Err(ScenarioError::at(
                e.line,
                format!(
                    "key `{key}` in [{}]: expected float, got integer (write `0` as `0.0`)",
                    t.name
                ),
            )),
            ref other => Err(ScenarioError::at(
                e.line,
                format!(
                    "key `{key}` in [{}]: expected float, got {}",
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

fn reject_unknown_keys(t: &Table, allowed: &[&str]) -> Result<(), ScenarioError> {
    for e in &t.entries {
        if !allowed.contains(&e.key.as_str()) {
            return Err(ScenarioError::at(
                e.line,
                format!("unknown key `{}` in [{}]", e.key, t.name),
            ));
        }
    }
    Ok(())
}

/// Pulls an axis entry's value out as a non-empty duplicate-free string
/// array.
fn str_axis(e: &Entry) -> Result<Vec<String>, ScenarioError> {
    let Value::Array(items) = &e.value else {
        return Err(ScenarioError::at(
            e.line,
            format!("axis `{}` in [grid] must be a non-empty array", e.key),
        ));
    };
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        match item {
            Value::Str(s) => {
                if out.contains(s) {
                    return Err(ScenarioError::at(
                        e.line,
                        format!("axis `{}` in [grid] repeats `{s}`", e.key),
                    ));
                }
                out.push(s.clone());
            }
            other => {
                return Err(ScenarioError::at(
                    e.line,
                    format!(
                        "axis `{}` in [grid]: expected an array of strings, got {}",
                        e.key,
                        other.type_name()
                    ),
                ));
            }
        }
    }
    if out.is_empty() {
        return Err(ScenarioError::at(
            e.line,
            format!("axis `{}` in [grid] must be a non-empty array", e.key),
        ));
    }
    Ok(out)
}

fn int_axis(e: &Entry) -> Result<Vec<i64>, ScenarioError> {
    let Value::Array(items) = &e.value else {
        return Err(ScenarioError::at(
            e.line,
            format!("axis `{}` in [grid] must be a non-empty array", e.key),
        ));
    };
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        match item {
            Value::Int(v) => {
                if out.contains(v) {
                    return Err(ScenarioError::at(
                        e.line,
                        format!("axis `{}` in [grid] repeats `{v}`", e.key),
                    ));
                }
                out.push(*v);
            }
            other => {
                return Err(ScenarioError::at(
                    e.line,
                    format!(
                        "axis `{}` in [grid]: expected an array of integers, got {}",
                        e.key,
                        other.type_name()
                    ),
                ));
            }
        }
    }
    if out.is_empty() {
        return Err(ScenarioError::at(
            e.line,
            format!("axis `{}` in [grid] must be a non-empty array", e.key),
        ));
    }
    Ok(out)
}

fn resolve_pattern(label: &str) -> Option<MessagePattern> {
    MessagePattern::all()
        .into_iter()
        .find(|p| p.to_string() == label)
}

/// Rejects a grid whose cells would fail to build a channel: every
/// uarch profile's geometry must pass [`check_geometry`] (the error
/// points at the `uarch` axis line), and every channel × `d` (the axis
/// values, or the channel's default) × uarch profile combination must
/// pass [`validate_params`] under that profile's geometry (the error
/// points at the `d` axis line, or at the `uarch` axis when there is
/// none).
fn check_params(
    channels: &[String],
    profiles: &[UarchProfile],
    d_axis: Option<&(usize, Vec<i64>)>,
    uarch_line: usize,
) -> Result<(), ScenarioError> {
    for profile in profiles {
        if let Err(err) = check_geometry(&profile.geometry) {
            return Err(ScenarioError::at(
                uarch_line,
                format!("uarch `{}`: unsupported geometry: {err}", profile.key),
            ));
        }
    }
    for channel in channels {
        let Some(defaults) = default_params(channel) else {
            continue;
        };
        let ds = match d_axis {
            Some((_, values)) => values.iter().map(|&d| d as usize).collect(),
            None => vec![defaults.d],
        };
        for profile in profiles {
            for &d in &ds {
                if let Err(err) = validate_params(channel, &defaults.with_d(d), &profile.geometry) {
                    return Err(ScenarioError::at(
                        d_axis.map_or(uarch_line, |(line, _)| *line),
                        format!(
                            "channel `{channel}` with d = {d} under uarch `{}`: {err}",
                            profile.key
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Parses and validates a scenario bundle against `profiles`.
///
/// Every axis value is resolved eagerly — unknown uarch keys, channel
/// names, machine names and pattern labels are load-time errors with
/// stable messages, never run-time panics.
pub fn parse_bundle(
    text: &str,
    profiles: &ProfileRegistry,
) -> Result<ScenarioBundle, ScenarioError> {
    let doc = Doc::parse(text)?;
    let kind = document_kind(&doc)?;
    if kind != "scenario" {
        return Err(ScenarioError::doc(format!(
            "expected a scenario file, got kind = \"{kind}\""
        )));
    }
    check_tables(
        &doc,
        &["scenario", "grid", "message", "workload", "noise"],
        &["scenario", "grid", "message", "workload"],
    )?;

    let meta = table(&doc, "scenario")?;
    reject_unknown_keys(meta, &["name", "title"])?;
    let name = get_str(meta, "name")?;
    if !is_bare_key(name) {
        return Err(ScenarioError::at(
            meta.line_of("name"),
            format!("scenario name `{name}` must contain only [A-Za-z0-9_-]"),
        ));
    }
    let title = get_str(meta, "title")?.to_string();

    let grid = table(&doc, "grid")?;
    let mut axes = Vec::new();
    let mut bundle_profiles = Vec::new();
    let mut channels: Vec<String> = Vec::new();
    let mut uarch_line = grid.line;
    let mut d_axis: Option<(usize, Vec<i64>)> = None;
    let mut has_pattern_axis = false;
    for e in &grid.entries {
        match e.key.as_str() {
            "uarch" => {
                let keys = str_axis(e)?;
                for key in &keys {
                    match profiles.get(key) {
                        Some(p) => bundle_profiles.push(p),
                        None => {
                            return Err(ScenarioError::at(
                                e.line,
                                format!(
                                    "unknown uarch profile `{key}` (known: {})",
                                    profiles.keys().join(", ")
                                ),
                            ));
                        }
                    }
                }
                uarch_line = e.line;
                axes.push((e.key.clone(), AxisValues::Strs(keys)));
            }
            "channel" => {
                let names = str_axis(e)?;
                for ch in &names {
                    if channel_info(ch).is_none() {
                        return Err(ScenarioError::at(e.line, format!("unknown channel `{ch}`")));
                    }
                }
                channels = names.clone();
                axes.push((e.key.clone(), AxisValues::Strs(names)));
            }
            "machine" => {
                let names = str_axis(e)?;
                for m in &names {
                    if !ProcessorModel::all().iter().any(|p| p.name == *m) {
                        return Err(ScenarioError::at(
                            e.line,
                            format!(
                                "unknown machine `{m}` (known: {})",
                                ProcessorModel::all()
                                    .iter()
                                    .map(|p| p.name)
                                    .collect::<Vec<_>>()
                                    .join(", ")
                            ),
                        ));
                    }
                }
                axes.push((e.key.clone(), AxisValues::Strs(names)));
            }
            "pattern" => {
                let labels = str_axis(e)?;
                for label in &labels {
                    if resolve_pattern(label).is_none() {
                        return Err(ScenarioError::at(
                            e.line,
                            format!(
                                "unknown message pattern `{label}` (supported: all-0s, all-1s, alternating, random)"
                            ),
                        ));
                    }
                }
                has_pattern_axis = true;
                axes.push((e.key.clone(), AxisValues::Strs(labels)));
            }
            "d" => {
                let values = int_axis(e)?;
                if values.iter().any(|&v| !(1..=8).contains(&v)) {
                    return Err(ScenarioError::at(
                        e.line,
                        "axis `d` values must be in 1..=8".to_string(),
                    ));
                }
                d_axis = Some((e.line, values.clone()));
                axes.push((e.key.clone(), AxisValues::Ints(values)));
            }
            other => {
                return Err(ScenarioError::at(
                    e.line,
                    format!(
                        "unknown axis `{other}` in [grid] (supported: {})",
                        AXES.join(", ")
                    ),
                ));
            }
        }
    }
    for required in REQUIRED_AXES {
        if !axes.iter().any(|(name, _)| name == required) {
            return Err(ScenarioError::at(
                grid.line,
                format!("missing axis `{required}` in [grid]"),
            ));
        }
    }
    check_params(&channels, &bundle_profiles, d_axis.as_ref(), uarch_line)?;

    let message = table(&doc, "message")?;
    reject_unknown_keys(message, &["seed", "pattern"])?;
    let message_seed = get_uint(message, "seed")?;
    let pattern = match message.get("pattern") {
        Some(_) if has_pattern_axis => {
            return Err(ScenarioError::doc(
                "pattern is both a [grid] axis and a [message] key — pick one",
            ));
        }
        Some(_) => {
            let label = get_str(message, "pattern")?;
            match resolve_pattern(label) {
                Some(p) => Some(p),
                None => {
                    return Err(ScenarioError::at(
                        message.line_of("pattern"),
                        format!(
                            "unknown message pattern `{label}` (supported: all-0s, all-1s, alternating, random)"
                        ),
                    ));
                }
            }
        }
        None if has_pattern_axis => None,
        None => {
            return Err(ScenarioError::at(
                message.line,
                "missing key `pattern` in [message] (or a `pattern` axis in [grid])",
            ));
        }
    };

    let workload = table(&doc, "workload")?;
    reject_unknown_keys(
        workload,
        &["bits", "quick_bits", "mt_bits", "quick_mt_bits"],
    )?;
    let positive = |key: &str| -> Result<usize, ScenarioError> {
        let v = get_uint(workload, key)?;
        if v == 0 {
            return Err(ScenarioError::at(
                workload.line_of(key),
                format!("key `{key}` in [workload]: must be a positive integer"),
            ));
        }
        Ok(v as usize)
    };
    let bits = positive("bits")?;
    let quick_bits = positive("quick_bits")?;
    let mt_bits = positive("mt_bits")?;
    let quick_mt_bits = positive("quick_mt_bits")?;

    let noise = match doc.table("noise") {
        Some(t) => {
            reject_unknown_keys(
                t,
                &[
                    "burst_probability",
                    "burst_relative",
                    "desync_probability",
                    "phase_slip_probability",
                ],
            )?;
            let probability = |key: &str| -> Result<f64, ScenarioError> {
                let v = get_float(t, key)?;
                if !(0.0..=1.0).contains(&v) {
                    return Err(ScenarioError::at(
                        t.line_of(key),
                        format!("key `{key}` in [noise]: must be a probability in 0.0..=1.0"),
                    ));
                }
                Ok(v)
            };
            let burst_relative = get_float(t, "burst_relative")?;
            if !burst_relative.is_finite() || burst_relative < 0.0 {
                return Err(ScenarioError::at(
                    t.line_of("burst_relative"),
                    "key `burst_relative` in [noise]: must be a non-negative float",
                ));
            }
            let noise = MtNoise {
                burst_probability: probability("burst_probability")?,
                burst_relative,
                desync_probability: probability("desync_probability")?,
                phase_slip_probability: probability("phase_slip_probability")?,
            };
            for ch in &channels {
                // Only the MT channels model co-runner jitter.
                if !channel_info(ch).is_some_and(|i| i.requires_smt) {
                    return Err(ScenarioError::at(
                        t.line,
                        format!(
                            "channel `{ch}` has no environmental-noise model ([noise] requires MT channels)"
                        ),
                    ));
                }
            }
            Some(noise)
        }
        None => None,
    };

    Ok(ScenarioBundle {
        name: leak(name.to_string()),
        title: leak(title),
        axes,
        profiles: bundle_profiles,
        pattern,
        message_seed,
        bits,
        quick_bits,
        mt_bits,
        quick_mt_bits,
        noise,
    })
}

/// Loads and validates a `kind = "scenario"` bundle from disk.
pub fn load_bundle(
    path: impl AsRef<Path>,
    profiles: &ProfileRegistry,
) -> Result<ScenarioBundle, ScenarioError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| ScenarioError::doc(format!("{}: {e}", path.display())))?;
    parse_bundle(&text, profiles).map_err(|e| e.in_file(path))
}

impl ScenarioBundle {
    /// Cells in the bundle's full grid (the `--validate` report; the
    /// quick grid has the same shape — only the workload shrinks).
    pub fn cell_count(&self) -> usize {
        self.axes.iter().map(|(_, v)| v.len()).product()
    }

    /// Lowers the bundle onto the [`Experiment`] trait. The result
    /// registers into the standard [`Registry`](leaky_exp::Registry) and
    /// runs through the same runner, store and trace machinery as the
    /// compiled-in sweeps.
    pub fn into_experiment(self) -> Box<dyn Experiment> {
        Box::new(ScenarioExperiment { bundle: self })
    }
}

/// The lowered form: [`ScenarioBundle`] behind the [`Experiment`] trait.
struct ScenarioExperiment {
    bundle: ScenarioBundle,
}

impl ScenarioExperiment {
    fn profile_for(&self, key: &str) -> UarchProfile {
        self.bundle
            .profiles
            .iter()
            .find(|p| p.key == key)
            .copied()
            // parse_bundle resolved every axis value.
            .unwrap_or_else(|| panic!("unresolved uarch profile {key:?}"))
    }
}

impl Experiment for ScenarioExperiment {
    fn name(&self) -> &'static str {
        self.bundle.name
    }

    fn title(&self) -> &'static str {
        self.bundle.title
    }

    fn grid(&self, quick: bool) -> ParamGrid {
        // Same leading quick/full axis as the compiled-in sweeps, then
        // the file's axes in file order — a bundle restating a built-in
        // spec therefore reproduces its content keys (and so its seeds
        // and its store entries) exactly.
        let mut grid = ParamGrid::new(self.bundle.name)
            .axis_strs("profile", [if quick { "quick" } else { "full" }]);
        for (name, values) in &self.bundle.axes {
            grid = match values {
                AxisValues::Strs(v) => grid.axis_strs(name, v.iter().cloned()),
                AxisValues::Ints(v) => grid.axis_ints(name, v.iter().copied()),
            };
        }
        grid
    }

    fn run_cell(&self, cell: &JobCell) -> Option<CellMeasurement> {
        self.run_cell_traced(cell, TraceMode::Off)
    }

    fn run_cell_traced(&self, cell: &JobCell, trace: TraceMode) -> Option<CellMeasurement> {
        let quick = cell.str("profile") == "quick";
        let channel = cell.str("channel").to_string();
        let (mut bits, mt_bits) = if quick {
            (self.bundle.quick_bits, self.bundle.quick_mt_bits)
        } else {
            (self.bundle.bits, self.bundle.mt_bits)
        };
        if channel_info(&channel).is_some_and(|i| i.requires_smt) {
            bits = mt_bits;
        }
        let mut spec = ChannelSpec::new(&channel)
            .model(machine(cell.str("machine")))
            .profile(self.profile_for(cell.str("uarch")))
            .seed(cell.seed);
        if cell.get("d").is_some() {
            // parse_bundle validated the channel name.
            let params = default_params(&channel)
                .unwrap_or_else(|| panic!("no default params for {channel:?}"))
                .with_d(cell.int("d") as usize);
            spec = spec.params(params);
        }
        if let Some(noise) = self.bundle.noise {
            spec = spec.noise(noise);
        }
        let pattern = match self.bundle.pattern {
            Some(p) => p,
            // parse_bundle resolved every axis value.
            None => resolve_pattern(cell.str("pattern"))
                .unwrap_or_else(|| panic!("unresolved pattern {:?}", cell.str("pattern"))),
        };
        let message = pattern.generate(bits, self.bundle.message_seed);
        channel_cell_traced(&spec, &message, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leaky_exp::run_experiment;

    fn minimal() -> String {
        r#"
schema = "leaky-frontends/scenario/v1"
kind = "scenario"

[scenario]
name = "mini"
title = "Minimal bundle"

[grid]
uarch = ["skylake"]
channel = ["non-mt-fast-eviction"]
machine = ["Gold 6226"]

[message]
pattern = "alternating"
seed = 0

[workload]
bits = 16
quick_bits = 8
mt_bits = 8
quick_mt_bits = 4
"#
        .to_string()
    }

    #[test]
    fn minimal_bundle_parses_and_runs() {
        let reg = ProfileRegistry::builtins();
        let bundle = parse_bundle(&minimal(), &reg).expect("valid bundle");
        assert_eq!(bundle.name, "mini");
        assert_eq!(bundle.cell_count(), 1);
        let exp = bundle.into_experiment();
        let run = run_experiment(exp.as_ref(), true, 1);
        assert_eq!(run.cells.len(), 1);
        assert_eq!(
            run.cells[0].cell.key,
            "mini/profile=quick/uarch=skylake/channel=non-mt-fast-eviction/machine=Gold 6226"
        );
        assert!(run.cells[0].metrics().is_some());
    }

    #[test]
    fn bundle_grids_are_parallel_deterministic() {
        let reg = ProfileRegistry::builtins();
        let text = minimal().replace(
            "channel = [\"non-mt-fast-eviction\"]",
            "channel = [\"non-mt-fast-eviction\", \"mt-eviction\"]",
        );
        let bundle = parse_bundle(&text, &reg).expect("valid bundle");
        let exp = bundle.into_experiment();
        let a = run_experiment(exp.as_ref(), true, 1);
        let b = run_experiment(exp.as_ref(), true, 4);
        assert_eq!(a.cells, b.cells);
    }

    #[test]
    fn validation_errors_are_stable() {
        let reg = ProfileRegistry::builtins();
        let cases: [(&str, &str, &str); 6] = [
            (
                "uarch = [\"skylake\"]",
                "uarch = [\"pentium\"]",
                "line 10: unknown uarch profile `pentium` (known: skylake, icelake, constant_time)",
            ),
            (
                "channel = [\"non-mt-fast-eviction\"]",
                "channel = [\"warp-drive\"]",
                "line 11: unknown channel `warp-drive`",
            ),
            (
                "machine = [\"Gold 6226\"]",
                "machine = [\"Gold 6226\", \"Gold 6226\"]",
                "line 12: axis `machine` in [grid] repeats `Gold 6226`",
            ),
            (
                "pattern = \"alternating\"",
                "pattern = \"checkerboard\"",
                "line 15: unknown message pattern `checkerboard` (supported: all-0s, all-1s, alternating, random)",
            ),
            (
                "bits = 16",
                "bits = 0",
                "line 19: key `bits` in [workload]: must be a positive integer",
            ),
            (
                "machine = [\"Gold 6226\"]",
                "machine = []",
                "line 12: axis `machine` in [grid] must be a non-empty array",
            ),
        ];
        for (from, to, want) in cases {
            let text = minimal().replace(from, to);
            let err = parse_bundle(&text, &reg).expect_err(want);
            assert_eq!(err.to_string(), want);
        }
    }

    #[test]
    fn unsupported_geometries_fail_at_the_uarch_line() {
        let mut reg = ProfileRegistry::builtins();
        let mut odd = UarchProfile::skylake();
        odd.key = "odd_lines";
        odd.geometry.l1i_line_bytes = 48;
        reg.add(odd).expect("new key");
        let text = minimal().replace("uarch = [\"skylake\"]", "uarch = [\"odd_lines\"]");
        let err = parse_bundle(&text, &reg).expect_err("48-byte L1I lines");
        assert_eq!(
            err.to_string(),
            "line 10: uarch `odd_lines`: unsupported geometry: l1i_line_bytes = 48 must be a power of two"
        );
    }

    #[test]
    fn noise_requires_mt_channels() {
        let reg = ProfileRegistry::builtins();
        let text = minimal()
            + "\n[noise]\nburst_probability = 0.1\nburst_relative = 0.2\ndesync_probability = 0.08\nphase_slip_probability = 0.3\n";
        let err = parse_bundle(&text, &reg).expect_err("non-MT channel with noise");
        assert_eq!(
            err.to_string(),
            "line 24: channel `non-mt-fast-eviction` has no environmental-noise model ([noise] requires MT channels)"
        );
        let mt = text.replace(
            "channel = [\"non-mt-fast-eviction\"]",
            "channel = [\"mt-eviction\"]",
        );
        let bundle = parse_bundle(&mt, &reg).expect("MT channel with noise");
        assert!(bundle.noise.is_some());
    }

    #[test]
    fn pattern_axis_and_message_pattern_are_exclusive() {
        let reg = ProfileRegistry::builtins();
        let both = minimal().replace(
            "machine = [\"Gold 6226\"]",
            "machine = [\"Gold 6226\"]\npattern = [\"all-0s\"]",
        );
        let err = parse_bundle(&both, &reg).expect_err("both pattern sources");
        assert_eq!(
            err.to_string(),
            "pattern is both a [grid] axis and a [message] key — pick one"
        );

        let axis_only = both.replace("pattern = \"alternating\"\n", "");
        let bundle = parse_bundle(&axis_only, &reg).expect("pattern axis alone");
        assert!(bundle.pattern.is_none());
        assert_eq!(bundle.cell_count(), 1);
    }
}
