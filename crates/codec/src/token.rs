//! The hex token of the line formats: `0x` and exactly 16 lowercase hex
//! digits, carrying a `u64` or an `f64`'s exact bit pattern (NaN, ±inf,
//! -0.0 and subnormals included). The reader accepts only that form.

/// The token of `bits`.
pub fn hex(bits: u64) -> String {
    format!("0x{bits:016x}")
}

/// The token of `v`'s bit pattern.
pub fn hex_f64(v: f64) -> String {
    hex(v.to_bits())
}

/// Reads a [`hex`] token; `None` for anything else.
pub fn parse_hex(tok: &str) -> Option<u64> {
    let digits = tok.strip_prefix("0x")?;
    let lower_hex = |b: u8| matches!(b, b'0'..=b'9' | b'a'..=b'f');
    if digits.len() != 16 || !digits.bytes().all(lower_hex) {
        return None;
    }
    u64::from_str_radix(digits, 16).ok()
}

/// Reads a [`hex_f64`] token; `None` for anything else.
pub fn parse_hex_f64(tok: &str) -> Option<f64> {
    parse_hex(tok).map(f64::from_bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_round_trip_and_parse_strictly() {
        assert_eq!(hex(0x1234_5678_9abc_def0), "0x123456789abcdef0");
        assert_eq!(parse_hex("0x0000000000000007"), Some(7));
        for v in [f64::NAN, f64::NEG_INFINITY, -0.0, 1e-310, 2596.125] {
            let tok = hex_f64(v);
            assert_eq!(parse_hex_f64(&tok).map(f64::to_bits), Some(v.to_bits()));
        }
        for bad in [
            "",
            "0x",
            "0x7",
            "123456789abcdef0",
            "0X123456789abcdef0",
            "0x123456789ABCDEF0",
            "0x+23456789abcdef0",
            "0x123456789abcdef00",
            "0x123456789abcdeg0",
        ] {
            assert_eq!(parse_hex(bad), None, "{bad:?} must be rejected");
        }
    }
}
