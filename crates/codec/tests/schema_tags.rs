//! The schema table is the only place a tag is born: every
//! `leaky-frontends/<name>/vN` string that README.md, DESIGN.md or
//! EXPERIMENTS.md mentions, or that any crate's `src/` tree spells out,
//! must be a `schema::ALL` entry — so the docs never advertise a tag
//! nothing writes or reads, and no writer invents one beside the table.
//! (Each writer's own tests pin its output to its table entry; `tests/`
//! trees are exempt, since they deliberately pin raw and wrong bytes.)

use std::path::{Path, PathBuf};

use leaky_codec::schema;

/// The prefix that marks a versioned schema tag in this workspace.
const SCHEMA_PREFIX: &str = "leaky-frontends/";

/// Whether `text` has the `leaky-frontends/<name>/v<digits>` shape.
fn is_schema_tag(text: &str) -> bool {
    let Some(rest) = text.strip_prefix(SCHEMA_PREFIX) else {
        return false;
    };
    let Some((name, version)) = rest.split_once('/') else {
        return false;
    };
    let Some(digits) = version.strip_prefix('v') else {
        return false;
    };
    !name.is_empty()
        && name.chars().all(|c| c.is_ascii_lowercase() || c == '-')
        && !digits.is_empty()
        && digits.chars().all(|c| c.is_ascii_digit())
}

/// Extracts schema-shaped substrings from a documentation line.
fn schema_tags_in(line: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(pos) = rest.find(SCHEMA_PREFIX) {
        let tail = &rest[pos..];
        let end = tail
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '/' || c == '-'))
            .unwrap_or(tail.len());
        let candidate = &tail[..end];
        if is_schema_tag(candidate) {
            out.push(candidate);
        }
        rest = &rest[pos + SCHEMA_PREFIX.len()..];
    }
    out
}

#[test]
fn schema_tag_shape_is_strict() {
    assert!(is_schema_tag("leaky-frontends/sweep/v1"));
    assert!(is_schema_tag("leaky-frontends/lint-baseline/v12"));
    assert!(!is_schema_tag("leaky-frontends/sweep/v"));
    assert!(!is_schema_tag("leaky-frontends/sweep"));
    assert!(!is_schema_tag("leaky-store/v1"));
    assert!(!is_schema_tag("leaky-frontends/Sweep/v1"));
}

#[test]
fn doc_lines_yield_embedded_tags() {
    let tags = schema_tags_in("tagged `leaky-frontends/trace/v1` and leaky-frontends/x/v2.");
    assert_eq!(tags, ["leaky-frontends/trace/v1", "leaky-frontends/x/v2"]);
    assert!(schema_tags_in("no tags here").is_empty());
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Asserts every tag in `path` is a table entry; returns how many it saw.
fn tags_are_in_the_table(path: &Path) -> usize {
    let text = std::fs::read_to_string(path).expect("readable workspace file");
    let mut seen = 0;
    for (idx, line) in text.lines().enumerate() {
        for tag in schema_tags_in(line) {
            assert!(
                schema::ALL.contains(&tag),
                "{}:{}: schema \"{tag}\" is not in leaky_codec::schema::ALL",
                path.display(),
                idx + 1
            );
            seen += 1;
        }
    }
    seen
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for path in entries.map(|e| e.expect("directory entry").path()) {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn every_documented_tag_is_in_the_table() {
    let root = workspace_root();
    let seen: usize = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
        .iter()
        .map(|doc| tags_are_in_the_table(&root.join(doc)))
        .sum();
    assert!(seen > 0, "the docs mention no schema tag at all");
}

#[test]
fn every_tag_spelled_in_library_source_is_in_the_table() {
    let root = workspace_root();
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        rust_files(&krate.expect("crate dir").path().join("src"), &mut files);
    }
    assert!(
        files.len() > 50,
        "suspiciously few sources: {}",
        files.len()
    );
    let seen: usize = files.iter().map(|f| tags_are_in_the_table(f)).sum();
    assert!(seen > 0, "the table's own definitions were not found");
}
