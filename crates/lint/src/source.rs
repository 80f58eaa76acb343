//! Per-file source model: code tokens, `#[cfg(test)]` line masking and
//! `// lint: allow(<rule>)` escape extraction.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{lex, Token, TokenKind};
use crate::parse::{parse_items, FileItems};

/// A lexed workspace source file with everything the rules consume.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub rel_path: String,
    /// Directory name under `crates/` (`"core"`, `"stats"`, ...); `None`
    /// for the root umbrella crate's `src/`.
    pub crate_dir: Option<String>,
    /// Whether the file is *library* code: inside a `src/` tree but not a
    /// binary target (`src/bin/**`, `src/main.rs`). The panic-freedom
    /// rule only applies to library code.
    pub is_library: bool,
    /// Token stream with comments removed.
    pub code: Vec<Token>,
    /// Item-level view of the file: functions (with qualification,
    /// visibility and `# Panics` contracts), types and imports. The item
    /// body ranges index into [`SourceFile::code`].
    pub items: FileItems,
    /// Line ranges (1-based, inclusive) covered by `#[cfg(test)]` items.
    test_ranges: Vec<(u32, u32)>,
    /// `lint: allow(rule)` escapes, keyed by the line they suppress.
    allows: BTreeMap<u32, BTreeSet<String>>,
}

impl SourceFile {
    /// Lexes and analyses one file.
    pub fn new(rel_path: String, src: &str) -> Self {
        let tokens = lex(src);
        let allows = collect_allows(&tokens);
        let (code, items) = parse_items(&tokens);
        let test_ranges = collect_test_ranges(&code);
        let crate_dir = rel_path
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .map(str::to_owned);
        let in_src = rel_path.contains("/src/") || rel_path.starts_with("src/");
        let is_library =
            in_src && !rel_path.contains("/src/bin/") && !rel_path.ends_with("src/main.rs");
        SourceFile {
            rel_path,
            crate_dir,
            is_library,
            code,
            items,
            test_ranges,
            allows,
        }
    }

    /// Whether `line` falls inside a `#[cfg(test)]` item.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(a, b)| a <= line && line <= b)
    }

    /// Whether `rule` is escaped on `line` via a `lint: allow` comment.
    pub fn is_allowed(&self, rule: &str, line: u32) -> bool {
        self.allows.get(&line).is_some_and(|set| set.contains(rule))
    }

    /// Every `lint: allow` escape in the file, keyed by the line it
    /// suppresses. The stale-allow audit iterates this to find escapes
    /// that no longer suppress anything.
    pub fn allow_entries(&self) -> &BTreeMap<u32, BTreeSet<String>> {
        &self.allows
    }
}

/// Parses `lint: allow(a, b)` escapes out of comment tokens.
///
/// A *trailing* comment (code earlier on the same line) suppresses its
/// own line; a *standalone* comment line suppresses the next line that
/// holds any code token. Returned map: suppressed line → rule names.
///
/// Doc comments never carry escapes: documentation *describing* the
/// escape syntax (as this crate's own rustdoc does) must not create
/// one. A `///`/`//!`/`/** */` comment lexes with `/`, `!` or `*` as
/// its first text character, which ordinary `//`/`/* */` comments
/// cannot reproduce (`// /` would, but reads as deliberate).
pub fn collect_allows(tokens: &[Token]) -> BTreeMap<u32, BTreeSet<String>> {
    let mut out: BTreeMap<u32, BTreeSet<String>> = BTreeMap::new();
    for (idx, tok) in tokens.iter().enumerate() {
        if tok.kind != TokenKind::Comment {
            continue;
        }
        if tok.text.starts_with(['/', '!', '*']) {
            continue;
        }
        let rules = parse_allow_rules(&tok.text);
        if rules.is_empty() {
            continue;
        }
        let trailing = tokens[..idx]
            .iter()
            .rev()
            .take_while(|t| t.line == tok.line)
            .any(|t| t.kind != TokenKind::Comment);
        let target = if trailing {
            Some(tok.line)
        } else {
            // First code token at or after the comment's line.
            tokens[idx + 1..]
                .iter()
                .find(|t| t.kind != TokenKind::Comment)
                .map(|t| t.line)
        };
        if let Some(line) = target {
            out.entry(line).or_default().extend(rules);
        }
    }
    out
}

/// Extracts rule names from a comment body containing
/// `lint: allow(rule1, rule2)`. Returns empty when the marker is absent.
fn parse_allow_rules(comment: &str) -> Vec<String> {
    let Some(pos) = comment.find("lint: allow(") else {
        return Vec::new();
    };
    let rest = &comment[pos + "lint: allow(".len()..];
    let Some(close) = rest.find(')') else {
        return Vec::new();
    };
    rest[..close]
        .split(',')
        .map(|r| r.trim().to_owned())
        // Rule names are lowercase-dash words; anything else is prose
        // *describing* the syntax (`allow(...)`, `allow(<rule>)`), not
        // an escape.
        .filter(|r| !r.is_empty() && r.chars().all(|c| c.is_ascii_lowercase() || c == '-'))
        .collect()
}

/// Finds line ranges covered by `#[cfg(test)]`-gated items (and `#[test]`
/// functions) so the panic-freedom rule can skip test code.
///
/// An attribute whose idents include `test` but not `not` marks the next
/// item; the item extends to its matching close brace (or terminating
/// semicolon). An *inner* `#![cfg(test)]` marks the whole file.
fn collect_test_ranges(code: &[Token]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if !code[i].is_punct('#') {
            i += 1;
            continue;
        }
        let inner = code.get(i + 1).is_some_and(|t| t.is_punct('!'));
        let open = i + 1 + usize::from(inner);
        if !code.get(open).is_some_and(|t| t.is_punct('[')) {
            i += 1;
            continue;
        }
        let Some(close) = matching(code, open, '[', ']') else {
            break;
        };
        let idents: Vec<&str> = code[open..close]
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        let is_test = idents.contains(&"test") && !idents.contains(&"not");
        if !is_test {
            i = close + 1;
            continue;
        }
        if inner {
            // `#![cfg(test)]`: the rest of the file is test code.
            ranges.push((code[i].line, u32::MAX));
            break;
        }
        // Skip any further outer attributes between the cfg and its item.
        let mut j = close + 1;
        while code.get(j).is_some_and(|t| t.is_punct('#'))
            && code.get(j + 1).is_some_and(|t| t.is_punct('['))
        {
            match matching(code, j + 1, '[', ']') {
                Some(c) => j = c + 1,
                None => break,
            }
        }
        // Item extent: a `;` before any brace (e.g. `mod tests;`), or the
        // matching close of its first `{`.
        let mut end = None;
        let mut k = j;
        while k < code.len() {
            if code[k].is_punct(';') {
                end = Some(k);
                break;
            }
            if code[k].is_punct('{') {
                end = matching(code, k, '{', '}');
                break;
            }
            k += 1;
        }
        match end {
            Some(e) => {
                ranges.push((code[i].line, code[e].line));
                i = e + 1;
            }
            None => {
                ranges.push((code[i].line, u32::MAX));
                break;
            }
        }
    }
    ranges
}

/// Index of the token closing the bracket opened at `open` (which must
/// hold `open_c`), or `None` when unbalanced.
pub fn matching(code: &[Token], open: usize, open_c: char, close_c: char) -> Option<usize> {
    let mut depth = 0usize;
    for (off, tok) in code[open..].iter().enumerate() {
        if tok.is_punct(open_c) {
            depth += 1;
        } else if tok.is_punct(close_c) {
            depth -= 1;
            if depth == 0 {
                return Some(open + off);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::new("crates/demo/src/lib.rs".into(), src)
    }

    #[test]
    fn cfg_test_mod_lines_are_masked() {
        let f = file("fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn live2() {}\n");
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(2));
        assert!(f.is_test_line(4));
        assert!(f.is_test_line(5));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn cfg_not_test_is_live_code() {
        let f = file("#[cfg(not(test))]\nfn live() {}\n");
        assert!(!f.is_test_line(2));
    }

    #[test]
    fn trailing_allow_covers_its_own_line() {
        let f = file("fn f() {\n    x.unwrap(); // lint: allow(panic) — justified\n}\n");
        assert!(f.is_allowed("panic", 2));
        assert!(!f.is_allowed("panic", 3));
    }

    #[test]
    fn standalone_allow_covers_the_next_code_line() {
        let f = file("// lint: allow(panic, wall-clock)\nx.unwrap();\n");
        assert!(f.is_allowed("panic", 2));
        assert!(f.is_allowed("wall-clock", 2));
        assert!(!f.is_allowed("panic", 1));
    }

    #[test]
    fn allow_in_a_string_is_inert() {
        let f = file("let s = \"lint: allow(panic)\";\nx.unwrap();\n");
        assert!(!f.is_allowed("panic", 1));
        assert!(!f.is_allowed("panic", 2));
    }

    #[test]
    fn classification_of_library_and_binary_code() {
        let lib = SourceFile::new("crates/core/src/run.rs".into(), "");
        assert!(lib.is_library);
        assert_eq!(lib.crate_dir.as_deref(), Some("core"));
        let bin = SourceFile::new("crates/bench/src/bin/foo.rs".into(), "");
        assert!(!bin.is_library);
        let main = SourceFile::new("crates/lint/src/main.rs".into(), "");
        assert!(!main.is_library);
        let root = SourceFile::new("src/lib.rs".into(), "");
        assert!(root.is_library);
        assert_eq!(root.crate_dir, None);
    }
}
