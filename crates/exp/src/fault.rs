//! Deterministic fault injection: exercising the recovery path on purpose.
//!
//! A [`FaultPlan`] maps cell content keys to faults the runner injects
//! while executing exactly those cells. Because the plan is keyed by
//! content (never by index, worker, or timing), an injected failure is
//! perfectly reproducible at any `--jobs N` — which is what lets tier-1
//! tests assert that a sweep with one panicking cell renders
//! byte-identically at one and four workers.
//!
//! Plans are written as a compact spec string (CLI `--faults`):
//!
//! ```text
//! panic@2:demo/i=3;error:demo/i=5;abort:demo/i=6;corrupt:demo/i=0
//! ```
//!
//! Entries are `;`-separated; each is `kind[@attempts]:key` where
//! `attempts` (default 1) is how many leading attempts of that cell the
//! fault sabotages — `panic@2` fails attempts 0 and 1, so the cell
//! succeeds only if the sweep allows at least `--retries 2`.

use std::collections::BTreeMap;
use std::fmt;

/// What to inject on a matched cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside `run_cell` (exercises `catch_unwind` recovery and
    /// deterministic re-seeded retries).
    Panic,
    /// Fail the attempt without unwinding (exercises the structured
    /// failure-row path).
    Error,
    /// Stop the whole sweep when this cell is dispatched (exercises
    /// kill-and-resume: completed cells stay persisted in the store).
    Abort,
    /// Let the cell succeed, then damage its freshly written store entry
    /// (exercises corruption detection and quarantine on the next
    /// resumed run).
    Corrupt,
}

impl FaultKind {
    fn parse(s: &str) -> Option<FaultKind> {
        match s {
            "panic" => Some(FaultKind::Panic),
            "error" => Some(FaultKind::Error),
            "abort" => Some(FaultKind::Abort),
            "corrupt" => Some(FaultKind::Corrupt),
            _ => None,
        }
    }
}

/// One planned fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// What to inject.
    pub kind: FaultKind,
    /// How many leading attempts to sabotage (`Panic`/`Error` only;
    /// `Abort` and `Corrupt` ignore it).
    pub attempts: u32,
}

/// Why a fault spec string did not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultParseError {
    /// An entry had no `kind:key` separator.
    MissingKey(String),
    /// The kind is not one of `panic`/`error`/`abort`/`corrupt`.
    UnknownKind(String),
    /// The `@attempts` suffix is not a positive integer.
    BadAttempts(String),
    /// The same key appears twice.
    DuplicateKey(String),
}

impl fmt::Display for FaultParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultParseError::MissingKey(entry) => {
                write!(f, "fault entry {entry:?} has no `kind:key` separator")
            }
            FaultParseError::UnknownKind(kind) => write!(
                f,
                "unknown fault kind {kind:?} (expected panic, error, abort or corrupt)"
            ),
            FaultParseError::BadAttempts(entry) => {
                write!(
                    f,
                    "fault entry {entry:?}: `@attempts` must be a positive integer"
                )
            }
            FaultParseError::DuplicateKey(key) => {
                write!(f, "fault key {key:?} appears more than once")
            }
        }
    }
}

impl std::error::Error for FaultParseError {}

/// The set of planned faults, keyed by cell content key.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    entries: BTreeMap<String, Fault>,
}

impl FaultPlan {
    /// An empty plan (the default: no faults).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Parses a spec string (see the module docs for the grammar).
    /// Empty entries are skipped, so `""` parses to the empty plan.
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultParseError> {
        let mut plan = FaultPlan::default();
        for raw in spec.split(';') {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            let (head, key) = raw
                .split_once(':')
                .ok_or_else(|| FaultParseError::MissingKey(raw.to_string()))?;
            let (kind_str, attempts) = match head.split_once('@') {
                Some((k, n)) => {
                    let n: u32 = n
                        .parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| FaultParseError::BadAttempts(raw.to_string()))?;
                    (k, n)
                }
                None => (head, 1),
            };
            let kind = FaultKind::parse(kind_str)
                .ok_or_else(|| FaultParseError::UnknownKind(kind_str.to_string()))?;
            if plan
                .entries
                .insert(key.to_string(), Fault { kind, attempts })
                .is_some()
            {
                return Err(FaultParseError::DuplicateKey(key.to_string()));
            }
        }
        Ok(plan)
    }

    /// Adds one fault (test/builder convenience).
    pub fn with(mut self, key: impl Into<String>, fault: Fault) -> FaultPlan {
        self.entries.insert(key.into(), fault);
        self
    }

    /// The fault planned for `key`, if any.
    pub fn get(&self, key: &str) -> Option<Fault> {
        self.entries.get(key).copied()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_grammar() {
        let plan =
            FaultPlan::parse("panic@2:demo/i=3; error:demo/i=5;abort:demo/i=6;corrupt:demo/i=0")
                .expect("valid spec");
        assert_eq!(
            plan.get("demo/i=3"),
            Some(Fault {
                kind: FaultKind::Panic,
                attempts: 2
            })
        );
        assert_eq!(
            plan.get("demo/i=5"),
            Some(Fault {
                kind: FaultKind::Error,
                attempts: 1
            })
        );
        assert_eq!(plan.get("demo/i=6").map(|f| f.kind), Some(FaultKind::Abort));
        assert_eq!(
            plan.get("demo/i=0").map(|f| f.kind),
            Some(FaultKind::Corrupt)
        );
        assert_eq!(plan.get("demo/i=1"), None);
    }

    #[test]
    fn empty_specs_are_no_faults() {
        assert!(FaultPlan::parse("").expect("empty ok").is_empty());
        assert!(FaultPlan::parse(" ; ;").expect("blanks ok").is_empty());
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn keys_may_contain_axis_syntax() {
        // Content keys carry `/` and `=`; only the *first* `:` splits.
        let plan = FaultPlan::parse("panic:tab3/machine=Gold 6226/ch=mt-eviction")
            .expect("axis syntax ok");
        assert!(plan.get("tab3/machine=Gold 6226/ch=mt-eviction").is_some());
    }

    #[test]
    fn rejects_malformed_specs() {
        assert_eq!(
            FaultPlan::parse("panic"),
            Err(FaultParseError::MissingKey("panic".to_string()))
        );
        assert_eq!(
            FaultPlan::parse("explode:k"),
            Err(FaultParseError::UnknownKind("explode".to_string()))
        );
        assert_eq!(
            FaultPlan::parse("panic@0:k"),
            Err(FaultParseError::BadAttempts("panic@0:k".to_string()))
        );
        assert_eq!(
            FaultPlan::parse("panic@x:k"),
            Err(FaultParseError::BadAttempts("panic@x:k".to_string()))
        );
        assert_eq!(
            FaultPlan::parse("panic:k;error:k"),
            Err(FaultParseError::DuplicateKey("k".to_string()))
        );
    }
}
