//! The versioned on-disk entry format (`leaky-store/v2`).
//!
//! An entry is line-oriented, self-describing text:
//!
//! ```text
//! leaky-store/v2
//! key rng_stream_grid/profile=quick/stream=3
//! fingerprint 0x8c19f8b0621cbdb0
//! outcome measured
//! provenance mt-eviction<TAB>skylake<TAB>d=6 q=1
//! metric rate_kbps<TAB>0x40639581062ae148<TAB>156.672
//! telemetry summary
//! tsum iterations 182476
//! ...
//! checksum 0x1f0e9c4b2a3d5e6f
//! ```
//!
//! * the `provenance` line is present only when the measurement carried
//!   channel provenance; `metric` lines repeat, in measurement order;
//! * fingerprint, metric values and checksum are [`leaky_codec::token`]
//!   hex tokens; a metric value is its **exact** IEEE-754 bit pattern
//!   (the decimal third field is informational only), so a cached cell
//!   renders byte-identically to a recomputed one;
//! * the optional `telemetry` block (v2) persists the cell's trace via
//!   [`leaky_trace::codec`], floats again as exact bit patterns, so a
//!   resumed `--trace` sweep serves cached cells *with* telemetry;
//! * `checksum` is FNV-1a over every byte that precedes its line. Any
//!   structural deviation — wrong version, missing field, truncation,
//!   trailing bytes, checksum mismatch — decodes to an [`EntryError`],
//!   which the store treats as corruption and quarantines.
//!
//! The store is a cache, so there is no migration: an entry under any
//! other version line (the pre-telemetry `leaky-store/v1` included) is
//! an [`EntryError::WrongVersion`], quarantined and recomputed like any
//! other damage. The code fingerprint folds in [`FORMAT_VERSION`], so
//! such an entry could never have been served anyway.

use leaky_codec::token::{hex, hex_f64, parse_hex, parse_hex_f64};
use leaky_trace::Telemetry;
use leaky_uarch::Fnv1a;
use std::fmt;

/// The on-disk format version this build writes and reads.
pub const FORMAT_VERSION: &str = "leaky-store/v2";

/// One persisted metric: name plus exact f64 value.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredMetric {
    /// Metric name (table column / JSON key).
    pub name: String,
    /// Measured value, round-tripped through its bit pattern.
    pub value: f64,
}

/// Persisted channel provenance (owned mirror of the sweep layer's
/// provenance strings).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredProvenance {
    /// Registry name of the channel that transmitted.
    pub channel: String,
    /// Microarchitecture profile key the channel was built under.
    pub profile: String,
    /// Rendered §V parameter string.
    pub params: String,
}

/// The persistable outcome of one cell. Failed cells are deliberately
/// *not* persistable: a failure must be retried on the next run, never
/// served from cache.
#[derive(Debug, Clone, PartialEq)]
pub enum StoredOutcome {
    /// The cell measured successfully.
    Measured {
        /// Named metric values, in measurement order.
        metrics: Vec<StoredMetric>,
        /// Channel provenance, when the cell ran a covert channel.
        provenance: Option<StoredProvenance>,
        /// The cell's trace, when it was computed under `--trace`
        /// (absent in legacy v1 entries and untraced runs).
        telemetry: Option<Box<Telemetry>>,
    },
    /// The cell is structurally unsupported (e.g. an SMT channel on an
    /// SMT-less machine) — a stable fact worth caching.
    Unsupported,
}

/// A decoded store entry: the cell's identity plus its outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// The cell's content key.
    pub key: String,
    /// Code fingerprint the outcome was computed under.
    pub fingerprint: u64,
    /// The persisted outcome.
    pub outcome: StoredOutcome,
}

/// Why an entry failed to decode (all variants mean: quarantine it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryError {
    /// The first line is not the supported format version.
    WrongVersion(String),
    /// A required line is missing or appears out of order.
    MissingField(&'static str),
    /// A line exists but its payload does not parse.
    Malformed(&'static str),
    /// The checksum line disagrees with the bytes above it.
    ChecksumMismatch,
    /// Bytes follow the checksum line (truncation's mirror image).
    TrailingBytes,
    /// A field value contains a byte the line format cannot carry
    /// (newline, or a tab in a tab-delimited position). Raised on
    /// *encode*: such values never occur in real keys or metric names,
    /// and refusing loudly beats writing an entry that cannot decode.
    Unencodable(&'static str),
}

impl fmt::Display for EntryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EntryError::WrongVersion(found) => {
                write!(
                    f,
                    "unsupported entry version {found:?} (want {FORMAT_VERSION})"
                )
            }
            EntryError::MissingField(name) => write!(f, "missing or misplaced field `{name}`"),
            EntryError::Malformed(what) => write!(f, "malformed {what}"),
            EntryError::ChecksumMismatch => write!(f, "checksum mismatch"),
            EntryError::TrailingBytes => write!(f, "bytes after the checksum line"),
            EntryError::Unencodable(what) => {
                write!(f, "{what} contains bytes the entry format cannot carry")
            }
        }
    }
}

impl std::error::Error for EntryError {}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_bytes(bytes);
    h.finish()
}

/// Rejects values that would break the line structure: `\n` anywhere, or
/// `\t` in a tab-delimited (non-final) position.
fn check_field(value: &str, what: &'static str, tabs_forbidden: bool) -> Result<(), EntryError> {
    if value.contains('\n') || (tabs_forbidden && value.contains('\t')) {
        return Err(EntryError::Unencodable(what));
    }
    Ok(())
}

impl Entry {
    /// Encodes the entry into its on-disk text form.
    pub fn encode(&self) -> Result<String, EntryError> {
        check_field(&self.key, "key", true)?;
        let mut body = String::new();
        body.push_str(FORMAT_VERSION);
        body.push('\n');
        body.push_str("key ");
        body.push_str(&self.key);
        body.push('\n');
        body.push_str(&format!("fingerprint {}\n", hex(self.fingerprint)));
        match &self.outcome {
            StoredOutcome::Unsupported => body.push_str("outcome unsupported\n"),
            StoredOutcome::Measured {
                metrics,
                provenance,
                telemetry,
            } => {
                body.push_str("outcome measured\n");
                if let Some(p) = provenance {
                    check_field(&p.channel, "provenance channel", true)?;
                    check_field(&p.profile, "provenance profile", true)?;
                    check_field(&p.params, "provenance params", false)?;
                    body.push_str(&format!(
                        "provenance {}\t{}\t{}\n",
                        p.channel, p.profile, p.params
                    ));
                }
                for m in metrics {
                    check_field(&m.name, "metric name", true)?;
                    body.push_str(&format!(
                        "metric {}\t{}\t{}\n",
                        m.name,
                        hex_f64(m.value),
                        m.value
                    ));
                }
                if let Some(t) = telemetry {
                    body.push_str(&leaky_trace::codec::encode(t));
                }
            }
        }
        let checksum = fnv64(body.as_bytes());
        body.push_str(&format!("checksum {}\n", hex(checksum)));
        Ok(body)
    }

    /// Decodes on-disk text back into an entry, validating structure and
    /// checksum. Every failure mode maps to an [`EntryError`]; the store
    /// quarantines on any of them.
    pub fn decode(text: &str) -> Result<Entry, EntryError> {
        // Locate the checksum line: it must be the final line, newline-
        // terminated, with nothing after it.
        let trimmed = text
            .strip_suffix('\n')
            .ok_or(EntryError::Malformed("final newline"))?;
        let (body_end, checksum_line) = match trimmed.rfind('\n') {
            Some(pos) => (pos + 1, &trimmed[pos + 1..]),
            None => return Err(EntryError::MissingField("checksum")),
        };
        let claimed = checksum_line
            .strip_prefix("checksum ")
            .and_then(parse_hex)
            .ok_or(EntryError::MissingField("checksum"))?;
        let body = &text[..body_end];
        if fnv64(body.as_bytes()) != claimed {
            return Err(EntryError::ChecksumMismatch);
        }

        let mut lines = body.lines();
        let version = lines.next().ok_or(EntryError::MissingField("version"))?;
        if version != FORMAT_VERSION {
            return Err(EntryError::WrongVersion(version.to_string()));
        }
        let key = lines
            .next()
            .and_then(|l| l.strip_prefix("key "))
            .ok_or(EntryError::MissingField("key"))?
            .to_string();
        let fingerprint = lines
            .next()
            .and_then(|l| l.strip_prefix("fingerprint "))
            .and_then(parse_hex)
            .ok_or(EntryError::MissingField("fingerprint"))?;
        let outcome_kind = lines
            .next()
            .and_then(|l| l.strip_prefix("outcome "))
            .ok_or(EntryError::MissingField("outcome"))?;

        let outcome = match outcome_kind {
            "unsupported" => {
                if lines.next().is_some() {
                    return Err(EntryError::TrailingBytes);
                }
                StoredOutcome::Unsupported
            }
            "measured" => {
                let mut provenance = None;
                let mut metrics = Vec::new();
                let mut telemetry_lines: Vec<&str> = Vec::new();
                for (i, line) in lines.enumerate() {
                    if !telemetry_lines.is_empty() {
                        // Once the telemetry block opens it runs to the
                        // checksum; its own codec validates the lines.
                        telemetry_lines.push(line);
                    } else if line.starts_with("telemetry ") {
                        telemetry_lines.push(line);
                    } else if let Some(rest) = line.strip_prefix("provenance ") {
                        if i != 0 || provenance.is_some() {
                            return Err(EntryError::Malformed("provenance placement"));
                        }
                        let mut parts = rest.splitn(3, '\t');
                        let channel = parts.next().unwrap_or_default().to_string();
                        let profile = parts
                            .next()
                            .ok_or(EntryError::Malformed("provenance line"))?
                            .to_string();
                        let params = parts
                            .next()
                            .ok_or(EntryError::Malformed("provenance line"))?
                            .to_string();
                        provenance = Some(StoredProvenance {
                            channel,
                            profile,
                            params,
                        });
                    } else if let Some(rest) = line.strip_prefix("metric ") {
                        let mut parts = rest.splitn(3, '\t');
                        let name = parts.next().unwrap_or_default().to_string();
                        let value = parts
                            .next()
                            .and_then(parse_hex_f64)
                            .ok_or(EntryError::Malformed("metric value"))?;
                        // The third (decimal) field is informational; its
                        // integrity is still covered by the checksum.
                        if parts.next().is_none() {
                            return Err(EntryError::Malformed("metric line"));
                        }
                        metrics.push(StoredMetric { name, value });
                    } else {
                        return Err(EntryError::Malformed("entry line"));
                    }
                }
                let telemetry = if telemetry_lines.is_empty() {
                    None
                } else {
                    let t = leaky_trace::codec::decode(&telemetry_lines)
                        .map_err(|_| EntryError::Malformed("telemetry block"))?;
                    Some(Box::new(t))
                };
                StoredOutcome::Measured {
                    metrics,
                    provenance,
                    telemetry,
                }
            }
            _ => return Err(EntryError::Malformed("outcome kind")),
        };

        Ok(Entry {
            key,
            fingerprint,
            outcome,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leaky_trace::{StallSummary, TraceEvent, TraceMode};

    fn sample() -> Entry {
        Entry {
            key: "demo/ch=a/d=3".to_string(),
            fingerprint: 0x1234_5678_9abc_def0,
            outcome: StoredOutcome::Measured {
                metrics: vec![
                    StoredMetric {
                        name: "rate_kbps".to_string(),
                        value: 156.672,
                    },
                    StoredMetric {
                        name: "error_rate".to_string(),
                        value: 0.0,
                    },
                ],
                provenance: Some(StoredProvenance {
                    channel: "mt-eviction".to_string(),
                    profile: "skylake".to_string(),
                    params: "d=6 q=1 with spaces".to_string(),
                }),
                telemetry: None,
            },
        }
    }

    fn sample_telemetry() -> Telemetry {
        let mut summary = StallSummary::new();
        let events = vec![
            TraceEvent::Calibration {
                zero_mean: 2295.0,
                one_mean: 2897.25,
                threshold: 2596.125,
                separation: 602.25,
            },
            TraceEvent::BitDecoded {
                index: 0,
                sent: true,
                received: true,
                value: 2900.5,
                resamples: 1,
            },
        ];
        for e in &events {
            summary.fold(e);
        }
        Telemetry {
            mode: TraceMode::Events,
            summary,
            events,
        }
    }

    fn traced_sample() -> Entry {
        let mut entry = sample();
        let StoredOutcome::Measured { telemetry, .. } = &mut entry.outcome else {
            unreachable!()
        };
        *telemetry = Some(Box::new(sample_telemetry()));
        entry
    }

    #[test]
    fn round_trips_exactly() {
        let entry = sample();
        let text = entry.encode().expect("encodable");
        assert_eq!(Entry::decode(&text).expect("decodes"), entry);
    }

    #[test]
    fn telemetry_round_trips_exactly() {
        let entry = traced_sample();
        let text = entry.encode().expect("encodable");
        assert!(text.contains("telemetry events\n"));
        assert_eq!(Entry::decode(&text).expect("decodes"), entry);
    }

    #[test]
    fn v1_entries_are_rejected() {
        // A v1 entry is a v2 entry minus the telemetry block, under the
        // old version line. Build one by relabeling and re-checksumming:
        // its checksum holds, but the store no longer reads v1.
        let text = sample().encode().expect("encodable");
        let relabeled = text.replace(FORMAT_VERSION, "leaky-store/v1");
        let body_end = relabeled.rfind("checksum ").expect("checksum line");
        let body = &relabeled[..body_end];
        let v1 = format!("{body}checksum 0x{:016x}\n", fnv64(body.as_bytes()));
        assert_eq!(
            Entry::decode(&v1),
            Err(EntryError::WrongVersion("leaky-store/v1".into()))
        );
    }

    #[test]
    fn unsupported_round_trips() {
        let entry = Entry {
            key: "demo/ch=mt/machine=E-2288G".to_string(),
            fingerprint: 7,
            outcome: StoredOutcome::Unsupported,
        };
        let text = entry.encode().expect("encodable");
        assert_eq!(Entry::decode(&text).expect("decodes"), entry);
    }

    #[test]
    fn value_bits_survive_exotic_floats() {
        for value in [f64::NAN, f64::INFINITY, -0.0, f64::MIN_POSITIVE, 1e-310] {
            let entry = Entry {
                key: "k".to_string(),
                fingerprint: 1,
                outcome: StoredOutcome::Measured {
                    metrics: vec![StoredMetric {
                        name: "m".to_string(),
                        value,
                    }],
                    provenance: None,
                    telemetry: None,
                },
            };
            let text = entry.encode().expect("encodable");
            let back = Entry::decode(&text).expect("decodes");
            let StoredOutcome::Measured { metrics, .. } = back.outcome else {
                panic!("measured outcome expected");
            };
            assert_eq!(metrics[0].value.to_bits(), value.to_bits());
        }
    }

    #[test]
    fn any_byte_flip_is_detected() {
        // Telemetry lines sit inside the checksummed body, so the same
        // exhaustive flip sweep covers them too.
        for text in [entry_text(), traced_sample().encode().expect("encodable")] {
            for i in 0..text.len() {
                let mut bytes = text.clone().into_bytes();
                bytes[i] = bytes[i].wrapping_add(1);
                if let Ok(s) = String::from_utf8(bytes) {
                    assert!(
                        Entry::decode(&s).is_err(),
                        "flip at byte {i} went undetected"
                    );
                }
            }
        }
    }

    fn entry_text() -> String {
        sample().encode().expect("encodable")
    }

    #[test]
    fn truncation_and_trailing_garbage_are_detected() {
        let text = entry_text();
        for cut in [0, 1, text.len() / 2, text.len() - 1] {
            assert!(Entry::decode(&text[..cut]).is_err(), "cut at {cut}");
        }
        let mut appended = text.clone();
        appended.push_str("garbage");
        assert!(Entry::decode(&appended).is_err());
        let mut appended_line = text;
        appended_line.push_str("garbage\n");
        assert!(Entry::decode(&appended_line).is_err());
    }

    #[test]
    fn wrong_version_is_rejected() {
        let entry = sample();
        let text = entry.encode().expect("encodable");
        let bumped = text.replace("leaky-store/v2", "leaky-store/v9");
        // Re-checksum so the version check itself is what fires.
        let body_end = bumped.rfind("checksum ").expect("checksum line");
        let body = &bumped[..body_end];
        let fixed = format!("{body}checksum 0x{:016x}\n", fnv64(body.as_bytes()));
        assert_eq!(
            Entry::decode(&fixed),
            Err(EntryError::WrongVersion("leaky-store/v9".to_string()))
        );
    }

    #[test]
    fn unencodable_values_are_refused_at_write_time() {
        let mut entry = sample();
        entry.key = "bad\nkey".to_string();
        assert_eq!(entry.encode(), Err(EntryError::Unencodable("key")));
        let mut entry = sample();
        entry.key = "bad\tkey".to_string();
        assert_eq!(entry.encode(), Err(EntryError::Unencodable("key")));
    }
}
