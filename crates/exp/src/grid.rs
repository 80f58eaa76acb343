//! Declarative parameter grids and their expansion into job cells.

use crate::seed::derive_seed;
use std::fmt;

/// One coordinate value of a grid axis.
///
/// Integers cover counts and distances (`d = 1..8`, message bits);
/// strings cover categorical axes (channel kind, machine name). Floats
/// are deliberately absent: a float in a content key would make seeds
/// hostage to formatting, and no paper sweep needs one as a *coordinate*.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AxisValue {
    /// An integer coordinate.
    Int(i64),
    /// A categorical coordinate.
    Str(String),
}

impl fmt::Display for AxisValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AxisValue::Int(v) => write!(f, "{v}"),
            AxisValue::Str(s) => f.write_str(s),
        }
    }
}

/// A named axis with its ordered coordinate values.
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    /// Axis name as it appears in content keys and table headers.
    pub name: String,
    /// Coordinate values, in sweep order.
    pub values: Vec<AxisValue>,
}

/// A declarative parameter grid: the cross product of its axes.
///
/// # Examples
///
/// ```
/// use leaky_exp::ParamGrid;
///
/// let grid = ParamGrid::new("demo")
///     .axis_ints("d", 1..=3)
///     .axis_strs("machine", ["A", "B"]);
/// assert_eq!(grid.len(), 6);
/// let cells = grid.expand();
/// // Row-major: the last axis varies fastest.
/// assert_eq!(cells[0].key, "demo/d=1/machine=A");
/// assert_eq!(cells[1].key, "demo/d=1/machine=B");
/// assert_eq!(cells[5].key, "demo/d=3/machine=B");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ParamGrid {
    experiment: String,
    axes: Vec<Axis>,
}

impl ParamGrid {
    /// Creates an empty grid for the named experiment.
    pub fn new(experiment: impl Into<String>) -> Self {
        ParamGrid {
            experiment: experiment.into(),
            axes: Vec::new(),
        }
    }

    /// Appends an axis of integer coordinates.
    pub fn axis_ints<I: IntoIterator<Item = i64>>(self, name: &str, values: I) -> Self {
        self.push_axis(name, values.into_iter().map(AxisValue::Int).collect())
    }

    /// Appends an axis of categorical coordinates.
    pub fn axis_strs<I, S>(self, name: &str, values: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.push_axis(
            name,
            values
                .into_iter()
                .map(|s| AxisValue::Str(s.into()))
                .collect(),
        )
    }

    fn push_axis(mut self, name: &str, values: Vec<AxisValue>) -> Self {
        assert!(!values.is_empty(), "axis {name:?} has no values");
        assert!(
            !self.axes.iter().any(|a| a.name == name),
            "duplicate axis {name:?}"
        );
        self.axes.push(Axis {
            name: name.to_string(),
            values,
        });
        self
    }

    /// The experiment name this grid belongs to.
    pub fn experiment(&self) -> &str {
        &self.experiment
    }

    /// The axes, in declaration order.
    pub fn axes(&self) -> &[Axis] {
        &self.axes
    }

    /// Number of cells (product of axis lengths; 1 for an axis-less grid).
    #[expect(
        clippy::len_without_is_empty,
        reason = "the cell count sizes work; no caller asks for emptiness"
    )]
    pub fn len(&self) -> usize {
        self.axes.iter().map(|a| a.values.len()).product()
    }

    /// Expands the grid into ordered cells, row-major (the *last* axis
    /// varies fastest), each with its content key and derived seed.
    pub fn expand(&self) -> Vec<JobCell> {
        let n = self.len();
        let mut cells = Vec::with_capacity(n);
        for index in 0..n {
            // Decompose the flat index into per-axis coordinates.
            let mut rem = index;
            let mut coords = vec![0usize; self.axes.len()];
            for (slot, axis) in coords.iter_mut().zip(&self.axes).rev() {
                *slot = rem % axis.values.len();
                rem /= axis.values.len();
            }
            let coords: Vec<(String, AxisValue)> = self
                .axes
                .iter()
                .zip(coords)
                .map(|(axis, i)| (axis.name.clone(), axis.values[i].clone()))
                .collect();
            let mut key = self.experiment.clone();
            for (name, value) in &coords {
                key.push('/');
                key.push_str(name);
                key.push('=');
                key.push_str(&value.to_string());
            }
            let seed = derive_seed(&key);
            cells.push(JobCell {
                index,
                key,
                coords,
                seed,
                attempt: 0,
            });
        }
        cells
    }
}

/// One executable cell of an expanded grid.
#[derive(Debug, Clone, PartialEq)]
pub struct JobCell {
    /// Position in grid order; the ordered collector merges by this.
    pub index: usize,
    /// Content key: `experiment/axis=value/...` — names *what* the cell
    /// computes, independent of scheduling.
    pub key: String,
    /// Axis coordinates, in axis declaration order.
    pub coords: Vec<(String, AxisValue)>,
    /// Deterministic RNG seed, derived from `key` (see [`crate::seed`]).
    pub seed: u64,
    /// Which execution attempt this is (0 on first execution; the
    /// runner's bounded retry re-dispatches a panicked cell with the
    /// attempt bumped, which [`crate::seed::cell_rng`] folds into the
    /// cell's stream so a retry replays *different* — but still fully
    /// deterministic — randomness).
    pub attempt: u32,
}

impl JobCell {
    /// A copy of this cell marked as retry attempt `attempt`
    /// (attempt 0 is the cell itself).
    pub fn with_attempt(&self, attempt: u32) -> JobCell {
        JobCell {
            attempt,
            ..self.clone()
        }
    }
    /// The coordinate of the named axis, if present.
    pub fn get(&self, axis: &str) -> Option<&AxisValue> {
        self.coords
            .iter()
            .find(|(name, _)| name == axis)
            .map(|(_, v)| v)
    }

    /// The integer coordinate of the named axis.
    ///
    /// # Panics
    ///
    /// Panics if the axis is missing or not an integer — both are spec
    /// bugs, not runtime conditions.
    pub fn int(&self, axis: &str) -> i64 {
        match self.get(axis) {
            Some(AxisValue::Int(v)) => *v,
            other => panic!("axis {axis:?}: expected Int, got {other:?}"),
        }
    }

    /// The categorical coordinate of the named axis.
    ///
    /// # Panics
    ///
    /// Panics if the axis is missing or not categorical.
    pub fn str(&self, axis: &str) -> &str {
        match self.get(axis) {
            Some(AxisValue::Str(s)) => s,
            other => panic!("axis {axis:?}: expected Str, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> ParamGrid {
        ParamGrid::new("t")
            .axis_strs("ch", ["a", "b", "c"])
            .axis_ints("d", 1..=4)
    }

    #[test]
    fn expansion_is_row_major_and_complete() {
        let cells = demo().expand();
        assert_eq!(cells.len(), 12);
        assert_eq!(cells[0].key, "t/ch=a/d=1");
        assert_eq!(cells[3].key, "t/ch=a/d=4");
        assert_eq!(cells[4].key, "t/ch=b/d=1");
        assert_eq!(cells[11].key, "t/ch=c/d=4");
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
    }

    #[test]
    fn coordinate_accessors() {
        let cells = demo().expand();
        assert_eq!(cells[5].str("ch"), "b");
        assert_eq!(cells[5].int("d"), 2);
        assert_eq!(cells[5].get("missing"), None);
    }

    #[test]
    fn seeds_are_distinct_and_content_addressed() {
        let a = demo().expand();
        let b = demo().expand();
        // Same content ⇒ same seeds; distinct cells ⇒ distinct seeds.
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.seed, y.seed);
        }
        let mut seeds: Vec<u64> = a.iter().map(|c| c.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 12, "cell seeds collided");
        // A different experiment name shifts every stream.
        let other = ParamGrid::new("u")
            .axis_strs("ch", ["a", "b", "c"])
            .axis_ints("d", 1..=4)
            .expand();
        assert!(a.iter().zip(&other).all(|(x, y)| x.seed != y.seed));
    }

    #[test]
    fn axis_less_grid_is_one_cell() {
        let cells = ParamGrid::new("solo").expand();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].key, "solo");
    }

    #[test]
    #[should_panic(expected = "duplicate axis")]
    fn duplicate_axis_rejected() {
        let _ = ParamGrid::new("t")
            .axis_ints("d", 0..2)
            .axis_ints("d", 0..2);
    }

    #[test]
    #[should_panic(expected = "no values")]
    fn empty_axis_rejected() {
        let _ = ParamGrid::new("t").axis_ints("d", 0..0);
    }
}
