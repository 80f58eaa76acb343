//! Property tests for the serialization leaf and the decoders built on
//! it.
//!
//! * Round trips: every string — control characters, quotes,
//!   backslashes and non-ASCII included — survives the quoted-string
//!   writer and the strict reader, and every `f64` survives the number
//!   writer bit-exactly (or becomes `null` when non-finite).
//! * Never panic: arbitrary bytes, single-byte mutations and
//!   truncations of valid documents make `json::parse`, store
//!   `Entry::decode`, trace `codec::decode` and scenario `parse_bundle`
//!   return a `Result` without panicking. Arbitrary bytes are always an
//!   error for store entries, trace blocks and scenario bundles, and so
//!   is any change to a checksummed store entry.

use leaky_codec::json::{self, number, quoted, Json};
use leaky_scenario::{parse_bundle, ProfileRegistry};
use leaky_store::{Entry, StoredMetric, StoredOutcome, StoredProvenance};
use leaky_trace::{Source, TraceEvent, TraceHook, TraceMode};
use proptest::collection::vec;
use proptest::prelude::*;
use std::path::Path;
use std::sync::OnceLock;

/// Maps raw draws onto chars, weighting the classes a JSON writer can
/// get wrong: controls, the two mandatory escapes, plain ASCII, and any
/// scalar value at all.
fn to_string(draws: &[u32]) -> String {
    draws
        .iter()
        .filter_map(|&x| match x % 4 {
            0 => char::from_u32((x >> 2) % 0x20),
            1 => ['"', '\\', '/', '\u{7f}']
                .get((x >> 2) as usize % 4)
                .copied(),
            2 => char::from_u32(0x20 + (x >> 2) % 0x5f),
            _ => char::from_u32((x >> 2) % 0x11_0000),
        })
        .collect()
}

/// `text` with byte `at` (mod its length) replaced by `with`, when the
/// result is still UTF-8 and differs from the original.
fn mutate(text: &str, at: usize, with: u8) -> Option<String> {
    let mut bytes = text.as_bytes().to_vec();
    let i = at % bytes.len();
    if bytes[i] == with {
        return None;
    }
    bytes[i] = with;
    String::from_utf8(bytes).ok()
}

fn sample_json() -> String {
    format!(
        "{{\n  \"schema\": {},\n  \"cells\": [\n    {{ \"key\": {}, \"metrics\": {{ \"rate\": {}, \"err\": {} }} }}\n  ],\n  \"ok\": [true, false, null, -1.5e-3]\n}}\n",
        quoted("leaky-frontends/sweep/v1"),
        quoted("tab\t\"→\"\\ key"),
        number(1410.84),
        number(f64::NAN),
    )
}

fn sample_telemetry() -> leaky_trace::Telemetry {
    let mut hook = TraceHook::new(TraceMode::Events);
    hook.emit(|| TraceEvent::Iteration {
        thread: 1,
        source: Source::Dsb,
        weight: 3,
        cycles: 12.75,
        lsd_uops: 4,
        dsb_uops: 10,
        mite_uops: 2,
        lcp_stall_cycles: 1.5,
        switch_penalty_cycles: 8.0,
        dsb_to_mite_switches: 1,
        dsb_evictions: 2,
        lsd_flushes: 1,
        l1i_misses: 1,
    });
    hook.emit(|| TraceEvent::Calibration {
        zero_mean: 2295.0,
        one_mean: 2897.25,
        threshold: 2596.125,
        separation: 602.25,
    });
    hook.emit(|| TraceEvent::BitDecoded {
        index: 0,
        sent: true,
        received: false,
        value: 2300.0,
        resamples: 2,
    });
    hook.into_telemetry().expect("hook was on")
}

fn sample_entry() -> String {
    Entry {
        key: "demo/ch=a/d=3".to_string(),
        fingerprint: 0x1234_5678_9abc_def0,
        outcome: StoredOutcome::Measured {
            metrics: vec![StoredMetric {
                name: "rate_kbps".to_string(),
                value: 156.672,
            }],
            provenance: Some(StoredProvenance {
                channel: "mt-eviction".to_string(),
                profile: "skylake".to_string(),
                params: "d=6 q=1".to_string(),
            }),
            telemetry: Some(Box::new(sample_telemetry())),
        },
    }
    .encode()
    .expect("encodable")
}

fn scenarios_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios"))
}

fn profiles() -> &'static ProfileRegistry {
    static PROFILES: OnceLock<ProfileRegistry> = OnceLock::new();
    PROFILES.get_or_init(|| {
        let mut profiles = ProfileRegistry::builtins();
        profiles.load_dir(scenarios_dir()).expect("profile library");
        profiles
    })
}

fn sample_bundle() -> &'static str {
    static BUNDLE: OnceLock<String> = OnceLock::new();
    BUNDLE.get_or_init(|| {
        std::fs::read_to_string(scenarios_dir().join("tab3_riscv.toml")).expect("committed bundle")
    })
}

#[test]
fn samples_are_valid_documents() {
    assert!(json::parse(&sample_json()).is_ok());
    assert!(Entry::decode(&sample_entry()).is_ok());
    let block = leaky_trace::codec::encode(&sample_telemetry());
    assert!(leaky_trace::codec::decode(&block.lines().collect::<Vec<_>>()).is_ok());
    assert!(parse_bundle(sample_bundle(), profiles()).is_ok());
}

proptest! {
    #[test]
    fn every_string_round_trips(draws in vec(any::<u32>(), 0..48)) {
        let s = to_string(&draws);
        let written = quoted(&s);
        prop_assert_eq!(json::parse(&written), Ok(Json::Str(s.clone())));
        // Also as an object key inside a document.
        let doc = format!("{{{}: [{}]}}", written, written);
        let back = json::parse(&doc).expect("document parses");
        prop_assert_eq!(back.get(&s), Some(&Json::Arr(vec![Json::Str(s.clone())])));
    }

    #[test]
    fn every_f64_round_trips_bit_exact(bits in any::<u64>(), small in any::<f64>()) {
        for v in [f64::from_bits(bits), small, small.trunc()] {
            let back = json::parse(&format!("[{}]", number(v))).expect("number parses");
            let items = back.as_array().expect("array");
            if v.is_finite() {
                let got = items[0].as_num().expect("a number");
                prop_assert_eq!(got.to_bits(), v.to_bits(), "{} came back as {}", v, got);
            } else {
                prop_assert_eq!(&items[0], &Json::Null);
            }
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic_and_garbage_is_an_error(bytes in vec(any::<u8>(), 0..256)) {
        // The decoders all take `&str`.
        let text = String::from_utf8_lossy(&bytes);
        // Short garbage can be a valid JSON scalar ("7"), so the reader
        // only owes a verdict here; the line formats and bundles cannot
        // be hit by chance.
        let _ = json::parse(&text);
        prop_assert!(Entry::decode(&text).is_err());
        prop_assert!(leaky_trace::codec::decode(&text.lines().collect::<Vec<_>>()).is_err());
        prop_assert!(parse_bundle(&text, profiles()).is_err());
    }

    #[test]
    fn single_byte_mutations_never_panic(at in any::<usize>(), with in any::<u8>()) {
        if let Some(text) = mutate(&sample_json(), at, with) {
            let _ = json::parse(&text);
        }
        // The checksum covers every byte, so any change is an error.
        if let Some(text) = mutate(&sample_entry(), at, with) {
            prop_assert!(Entry::decode(&text).is_err());
        }
        let block = leaky_trace::codec::encode(&sample_telemetry());
        if let Some(text) = mutate(&block, at, with) {
            let _ = leaky_trace::codec::decode(&text.lines().collect::<Vec<_>>());
        }
        if let Some(text) = mutate(sample_bundle(), at, with) {
            let _ = parse_bundle(&text, profiles());
        }
    }

    #[test]
    fn truncated_documents_never_panic(cut in any::<usize>()) {
        for doc in [sample_json(), sample_entry(), sample_bundle().to_string()] {
            let mut end = cut % doc.len();
            while !doc.is_char_boundary(end) {
                end -= 1;
            }
            let text = &doc[..end];
            let _ = json::parse(text);
            prop_assert!(Entry::decode(text).is_err());
            let _ = leaky_trace::codec::decode(&text.lines().collect::<Vec<_>>());
            let _ = parse_bundle(text, profiles());
        }
    }
}
