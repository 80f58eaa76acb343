//! The hand-rolled, comment-aware TOML-subset parser behind scenario
//! files.
//!
//! Supported grammar: full-line and trailing `#` comments, `[table]`
//! headers, `key = value` pairs with string / integer / float / boolean
//! / array values, and arrays spanning multiple lines. Deliberately
//! *not* supported (and rejected with an error): dotted or nested
//! tables, inline tables, dates, and multi-line strings — scenario
//! files need none of them, and a small grammar keeps every error exact
//! and line-numbered.

use crate::ScenarioError;

/// A parsed value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A `"..."` string (escapes `\"` and `\\` only).
    Str(String),
    /// An integer (optional `_` separators).
    Int(i64),
    /// A float — the token must contain `.`, `e` or `E`, so `4` and
    /// `4.0` stay distinct types.
    Float(f64),
    /// `true` / `false`.
    Bool(bool),
    /// A `[a, b, c]` array (possibly spanning lines).
    Array(Vec<Value>),
}

impl Value {
    /// The type label used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
            Value::Array(_) => "array",
        }
    }
}

/// One `key = value` pair with its source line.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// The bare key.
    pub key: String,
    /// 1-based source line of the pair.
    pub line: usize,
    /// The parsed value.
    pub value: Value,
}

/// One `[name]` table — or the implicit root table (`name` empty) that
/// holds keys appearing before any header. Entries keep file order, so
/// schema lowering can honor the author's axis order.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Table name (empty for the root table).
    pub name: String,
    /// 1-based line of the `[name]` header (0 for the root table).
    pub line: usize,
    /// Key/value pairs in file order.
    pub entries: Vec<Entry>,
}

impl Table {
    /// Looks up a key.
    pub fn get(&self, key: &str) -> Option<&Entry> {
        self.entries.iter().find(|e| e.key == key)
    }

    /// The line of `key`'s entry, or of the table header when absent
    /// (for error messages about a key already read).
    pub fn line_of(&self, key: &str) -> usize {
        self.get(key).map_or(self.line, |e| e.line)
    }

    /// Where this table is, for error messages: `at top level` or
    /// `in [name]`.
    pub fn place(&self) -> String {
        if self.name.is_empty() {
            "at top level".to_string()
        } else {
            format!("in [{}]", self.name)
        }
    }
}

/// A parsed document: the root table plus the `[name]` tables in file
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct Doc {
    /// Keys appearing before any `[table]` header.
    pub root: Table,
    /// The named tables, in file order.
    pub tables: Vec<Table>,
}

impl Doc {
    /// Parses a document, rejecting duplicate tables and duplicate keys.
    pub fn parse(text: &str) -> Result<Doc, ScenarioError> {
        let mut root = Table {
            name: String::new(),
            line: 0,
            entries: Vec::new(),
        };
        let mut tables: Vec<Table> = Vec::new();
        let mut lines = text.lines().enumerate();
        while let Some((idx, raw)) = lines.next() {
            let n = idx + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let Some(name) = rest.strip_suffix(']').map(str::trim) else {
                    return Err(ScenarioError::at(n, "table header must be `[name]`"));
                };
                if !is_bare_key(name) {
                    return Err(ScenarioError::at(n, format!("invalid table name `{name}`")));
                }
                if tables.iter().any(|t| t.name == name) {
                    return Err(ScenarioError::at(n, format!("duplicate table [{name}]")));
                }
                tables.push(Table {
                    name: name.to_string(),
                    line: n,
                    entries: Vec::new(),
                });
                continue;
            }
            let Some((k, v)) = line.split_once('=') else {
                return Err(ScenarioError::at(
                    n,
                    format!("expected `key = value` or `[table]`, got `{line}`"),
                ));
            };
            let key = k.trim();
            if !is_bare_key(key) {
                return Err(ScenarioError::at(n, format!("invalid key `{key}`")));
            }
            let mut vtext = v.trim().to_string();
            // A value whose brackets have not closed continues on the
            // following lines (multi-line arrays).
            while bracket_depth(&vtext) > 0 {
                let Some((_, next)) = lines.next() else {
                    return Err(ScenarioError::at(
                        n,
                        format!("unterminated array for key `{key}`"),
                    ));
                };
                vtext.push(' ');
                vtext.push_str(strip_comment(next).trim());
            }
            let value = parse_value(vtext.trim(), n)?;
            // Keys belong to the last table header, or to the root before one.
            let table = tables.last_mut().unwrap_or(&mut root);
            if table.get(key).is_some() {
                return Err(ScenarioError::at(
                    n,
                    format!("duplicate key `{key}` {}", table.place()),
                ));
            }
            table.entries.push(Entry {
                key: key.to_string(),
                line: n,
                value,
            });
        }
        Ok(Doc { root, tables })
    }

    /// Looks up a named table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.iter().find(|t| t.name == name)
    }
}

/// Whether `s` is a bare key: nonempty, only `[A-Za-z0-9_-]`.
pub fn is_bare_key(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

/// Cuts a trailing `#` comment, honoring `#` inside strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Net `[`/`]` nesting of `s`, ignoring brackets inside strings.
fn bracket_depth(s: &str) -> i32 {
    let mut depth = 0;
    let mut in_str = false;
    let mut escaped = false;
    for c in s.chars() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth
}

/// Parses one value token (already comment-stripped and trimmed).
fn parse_value(s: &str, line: usize) -> Result<Value, ScenarioError> {
    if s.starts_with('"') {
        let (v, rest) = parse_string(s, line)?;
        if !rest.trim().is_empty() {
            return Err(ScenarioError::at(
                line,
                format!("trailing characters after string: `{}`", rest.trim()),
            ));
        }
        return Ok(Value::Str(v));
    }
    if s == "true" {
        return Ok(Value::Bool(true));
    }
    if s == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(body) = s.strip_prefix('[') {
        let Some(body) = body.strip_suffix(']') else {
            return Err(ScenarioError::at(line, "unterminated array"));
        };
        let mut items = Vec::new();
        for part in split_top_level(body) {
            let part = part.trim();
            if part.is_empty() {
                continue; // trailing comma
            }
            items.push(parse_value(part, line)?);
        }
        return Ok(Value::Array(items));
    }
    let plain = s.replace('_', "");
    if let Ok(v) = plain.parse::<i64>() {
        return Ok(Value::Int(v));
    }
    if s.contains(['.', 'e', 'E']) {
        if let Ok(v) = plain.parse::<f64>() {
            if v.is_finite() {
                return Ok(Value::Float(v));
            }
        }
    }
    Err(ScenarioError::at(line, format!("cannot parse value `{s}`")))
}

/// Parses a leading `"..."` string, returning it and the remainder.
fn parse_string(s: &str, line: usize) -> Result<(String, &str), ScenarioError> {
    let mut out = String::new();
    let mut chars = s.char_indices().skip(1); // opening quote
    while let Some((_, c)) = chars.next() {
        match c {
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                other => {
                    let what = other.map(|(_, c)| c).unwrap_or(' ');
                    return Err(ScenarioError::at(
                        line,
                        format!("unsupported escape `\\{what}` (only \\\" and \\\\)"),
                    ));
                }
            },
            '"' => {
                let consumed = chars.next().map(|(i, _)| i).unwrap_or(s.len());
                return Ok((out, &s[consumed..]));
            }
            c => out.push(c),
        }
    }
    Err(ScenarioError::at(line, "unterminated string"))
}

/// Splits an array body at top-level commas (outside strings and nested
/// brackets).
fn split_top_level(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0;
    let mut depth = 0;
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            ',' if !in_str && depth == 0 => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&s[start..]);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_value_types_with_comments() {
        let doc = Doc::parse(concat!(
            "# header comment\n",
            "schema = \"v1\" # trailing\n",
            "\n",
            "[table]\n",
            "s = \"a # not a comment\"\n",
            "i = 240_000\n",
            "f = 0.18\n",
            "b = true\n",
            "a = [\"x\", \"y\"]\n",
            "multi = [\n",
            "    1, # one\n",
            "    2,\n",
            "]\n",
        ))
        .expect("valid document");
        assert_eq!(
            doc.root.get("schema").unwrap().value,
            Value::Str("v1".into())
        );
        let t = doc.table("table").expect("table present");
        assert_eq!(
            t.get("s").unwrap().value,
            Value::Str("a # not a comment".into())
        );
        assert_eq!(t.get("i").unwrap().value, Value::Int(240_000));
        assert_eq!(t.get("f").unwrap().value, Value::Float(0.18));
        assert_eq!(t.get("b").unwrap().value, Value::Bool(true));
        assert_eq!(
            t.get("a").unwrap().value,
            Value::Array(vec![Value::Str("x".into()), Value::Str("y".into())])
        );
        assert_eq!(
            t.get("multi").unwrap().value,
            Value::Array(vec![Value::Int(1), Value::Int(2)])
        );
    }

    #[test]
    fn ints_and_floats_stay_distinct_types() {
        let doc = Doc::parse("i = 4\nf = 4.0\ne = 1e3\n").expect("valid");
        assert_eq!(doc.root.get("i").unwrap().value, Value::Int(4));
        assert_eq!(doc.root.get("f").unwrap().value, Value::Float(4.0));
        assert_eq!(doc.root.get("e").unwrap().value, Value::Float(1000.0));
    }

    #[test]
    fn duplicate_tables_and_keys_are_rejected_with_lines() {
        let err = Doc::parse("[a]\nx = 1\n[a]\n").unwrap_err();
        assert_eq!(err.to_string(), "line 3: duplicate table [a]");
        let err = Doc::parse("[a]\nx = 1\nx = 2\n").unwrap_err();
        assert_eq!(err.to_string(), "line 3: duplicate key `x` in [a]");
        let err = Doc::parse("x = 1\nx = 2\n").unwrap_err();
        assert_eq!(err.to_string(), "line 2: duplicate key `x` at top level");
    }

    #[test]
    fn malformed_lines_are_rejected_with_lines() {
        assert_eq!(
            Doc::parse("[a\n").unwrap_err().to_string(),
            "line 1: table header must be `[name]`"
        );
        assert_eq!(
            Doc::parse("just words\n").unwrap_err().to_string(),
            "line 1: expected `key = value` or `[table]`, got `just words`"
        );
        assert_eq!(
            Doc::parse("x = \"open\n").unwrap_err().to_string(),
            "line 1: unterminated string"
        );
        assert_eq!(
            Doc::parse("x = [1, 2\n").unwrap_err().to_string(),
            "line 1: unterminated array for key `x`"
        );
        assert_eq!(
            Doc::parse("x = nope\n").unwrap_err().to_string(),
            "line 1: cannot parse value `nope`"
        );
        assert_eq!(
            Doc::parse("x = \"a\" b\n").unwrap_err().to_string(),
            "line 1: trailing characters after string: `b`"
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        let doc = Doc::parse("x = \"say \\\"hi\\\" \\\\ done\"\n").expect("valid");
        assert_eq!(
            doc.root.get("x").unwrap().value,
            Value::Str("say \"hi\" \\ done".into())
        );
        assert!(Doc::parse("x = \"bad \\n escape\"\n").is_err());
    }
}
