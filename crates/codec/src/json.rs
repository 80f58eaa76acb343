//! JSON (RFC 8259): the one quoted-string writer ([`quoted`]), number
//! writer ([`number`]) and strict reader ([`parse`]). DESIGN.md §7
//! states their contract.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, as `f64`.
    Num(f64),
    /// A string literal.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object (the first occurrence wins).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// `s` as a quoted JSON string: `"`, `\\` and every char below U+0020
/// escaped, everything else verbatim. Unescaped runs are copied whole,
/// so a string with nothing to escape costs one `push_str`.
pub fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let named = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\t' => "\\t",
            b'\r' => "\\r",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[start..i]);
        out.push_str(named);
        if named.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
    out
}

/// `v` as a JSON number: integral values below 1e15 keep a trailing
/// `.0`, other finite values take the shortest round-trip form, and
/// non-finite values are `null`.
pub fn number(v: f64) -> String {
    if !v.is_finite() {
        "null".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Nesting depth past which [`parse`] refuses rather than recurses.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document.
///
/// # Errors
///
/// The first deviation from RFC 8259, with its byte offset.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut r = Reader { text, pos: 0 };
    let value = r.value(0)?;
    r.skip_ws();
    if r.pos < text.len() {
        return r.err("trailing content");
    }
    Ok(value)
}

struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl Reader<'_> {
    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        if depth > MAX_DEPTH {
            return self.err("nesting too deep");
        }
        match self.peek() {
            Some(b'{') => self
                .seq(b'}', |r| {
                    r.skip_ws();
                    let key = r.string()?;
                    r.skip_ws();
                    if !r.eat(b':') {
                        return r.err("expected ':'");
                    }
                    Ok((key, r.value(depth + 1)?))
                })
                .map(Json::Obj),
            Some(b'[') => self.seq(b']', |r| r.value(depth + 1)).map(Json::Arr),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => self.err("expected a value"),
        }
    }

    /// The comma-separated items of an array or object, from its opening
    /// bracket through `close`.
    fn seq<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        self.skip_ws();
        let mut items = Vec::new();
        while !self.eat(close) {
            if !items.is_empty() && !self.eat(b',') {
                return self.err("expected ',' or a closing bracket");
            }
            items.push(item(self)?);
            self.skip_ws();
        }
        Ok(items)
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if !self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            return self.err("invalid literal");
        }
        self.pos += word.len();
        Ok(value)
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?` and nothing else.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.eat(b'-');
        let leading_zero = self.peek() == Some(b'0');
        let int = self.digits();
        let mut ok = int == 1 || (int > 1 && !leading_zero);
        if self.eat(b'.') {
            ok &= self.digits() > 0;
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            ok &= self.digits() > 0;
        }
        match self.text[start..self.pos].parse() {
            Ok(v) if ok => Ok(Json::Num(v)),
            _ => self.err("invalid number"),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat(b'"') {
            return self.err("expected a string");
        }
        let mut out = String::new();
        let mut start = self.pos;
        loop {
            match self.peek() {
                Some(b'"' | b'\\') => {
                    out.push_str(&self.text[start..self.pos]);
                    if self.eat(b'"') {
                        return Ok(out);
                    }
                    self.pos += 1;
                    out.push(self.escape()?);
                    start = self.pos;
                }
                Some(0x20..) => self.pos += 1,
                Some(_) => return self.err("raw control character in string"),
                None => return self.err("unterminated string"),
            }
        }
    }

    /// The char of the escape after a `\`; a `\u` high surrogate must
    /// pair with a `\u` low one.
    fn escape(&mut self) -> Result<char, String> {
        let c = match self.peek() {
            Some(b'u') => {
                let mut units = vec![self.utf16_unit()?];
                if (0xD800..0xDC00).contains(&units[0]) && self.eat(b'\\') {
                    units.push(self.utf16_unit()?);
                }
                return match char::decode_utf16(units).collect::<Vec<_>>()[..] {
                    [Ok(c)] => Ok(c),
                    _ => self.err("lone surrogate in \\u escape"),
                };
            }
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(c @ (b'"' | b'\\' | b'/')) => char::from(c),
            _ => return self.err("invalid escape"),
        };
        self.pos += 1;
        Ok(c)
    }

    /// One `uXXXX` UTF-16 code unit.
    fn utf16_unit(&mut self) -> Result<u16, String> {
        let hex = self
            .text
            .get(self.pos..self.pos + 5)
            .and_then(|h| h.strip_prefix('u'));
        let hex = hex.filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
        let Some(unit) = hex.and_then(|h| u16::from_str_radix(h, 16).ok()) else {
            return self.err("invalid \\u escape");
        };
        self.pos += 5;
        Ok(unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn number_writer_keeps_floats_floaty() {
        assert_eq!(number(2295.0), "2295.0");
        assert_eq!(number(0.5), "0.5");
        assert_eq!(number(850.583), "850.583");
        assert_eq!(number(-0.0), "-0.0");
        assert_eq!(number(1e15), "1000000000000000");
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(number(v), "null");
        }
    }

    #[test]
    fn string_writer_escapes_quotes_backslashes_and_controls() {
        assert_eq!(
            quoted("path \"quoted\" → deep"),
            "\"path \\\"quoted\\\" → deep\""
        );
        assert_eq!(
            quoted("a\\b\tc\nd\re\u{1}\u{1f}"),
            "\"a\\\\b\\tc\\nd\\re\\u0001\\u001f\""
        );
        assert_eq!(quoted(""), "\"\"");
    }

    #[test]
    fn reader_decodes_utf8_and_every_escape() {
        assert_eq!(parse("\"→ é\""), Ok(Json::Str("→ é".into())));
        assert_eq!(
            parse(r#""\" \\ \/ \b \f \n \r \t \u00e9 \ud83d\ude00""#),
            Ok(Json::Str("\" \\ / \u{8} \u{c} \n \r \t é 😀".into()))
        );
        for lone in [r#""\ud83d""#, r#""\ude00""#, r#""\ud83d\u0041""#] {
            assert!(parse(lone).is_err(), "{lone} must be rejected");
        }
    }

    #[test]
    fn writers_round_trip_through_the_reader() {
        let doc = format!(
            "{{\"schema\": {}, \"metrics\": {{\"a\": {}, \"b\": {}}}, \"reference\": {{ \"note\": {}, \"n\": 3 }}}}",
            quoted("leaky-frontends/perf-report/v1"),
            number(123.45),
            number(f64::NAN),
            quoted("tab\there \"x\""),
        );
        let back = parse(&doc).expect("writer output parses");
        assert_eq!(
            back.get("schema").and_then(Json::as_str),
            Some("leaky-frontends/perf-report/v1")
        );
        let metrics = back.get("metrics").expect("metrics");
        assert_eq!(metrics.get("a").and_then(Json::as_num), Some(123.45));
        assert_eq!(metrics.get("b"), Some(&Json::Null));
        let reference = back.get("reference").expect("reference");
        assert_eq!(reference.get("n"), Some(&Json::Num(3.0)));
        assert_eq!(
            reference.get("note").and_then(Json::as_str),
            Some("tab\there \"x\"")
        );
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "{",
            "{\"a\": }",
            "{\"a\": 1} trailing",
            "[1, 2",
            "[1, 2,]",
            "\"open",
            "\"raw\ttab\"",
            "\"bad \\x escape\"",
            "\"\\u12\"",
            "+1",
            "01",
            ".5",
            "1.",
            "1e",
            "-",
            "NaN",
            "tru",
            "\u{c}1",
            "",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn parser_handles_nesting_and_scalars() {
        let doc = parse("{\"a\": [1, -2.5, true, null], \"b\": {\"c\": \"s\\\"t\"},\n \"d\": 1e3}")
            .unwrap();
        assert_eq!(doc.get("d"), Some(&Json::Num(1000.0)));
        let items = doc
            .get("a")
            .and_then(Json::as_array)
            .expect("a is an array");
        assert_eq!(items[1], Json::Num(-2.5));
        assert_eq!(items[2], Json::Bool(true));
        assert_eq!(items[3], Json::Null);
        assert_eq!(
            doc.get("b").unwrap().get("c"),
            Some(&Json::Str("s\"t".into()))
        );
        assert_eq!(parse(" 0 "), Ok(Json::Num(0.0)));
        assert_eq!(parse("-0.5E+2"), Ok(Json::Num(-50.0)));
        assert_eq!(parse("[]"), Ok(Json::Arr(Vec::new())));
        assert_eq!(parse("{ }"), Ok(Json::Obj(Vec::new())));
    }
}
