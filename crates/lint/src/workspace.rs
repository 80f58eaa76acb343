//! Workspace loading: deterministic walk of the `src/` trees.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::source::SourceFile;

/// Why the workspace could not be loaded.
#[derive(Debug)]
pub enum LintError {
    /// An I/O failure while reading the workspace, with the path involved.
    Io(PathBuf, io::Error),
    /// The given root is not a workspace (no `Cargo.toml` with a
    /// `[workspace]` table found there or above).
    NoWorkspaceRoot(PathBuf),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Io(path, e) => write!(f, "{}: {e}", path.display()),
            LintError::NoWorkspaceRoot(start) => write!(
                f,
                "no workspace root (Cargo.toml with [workspace]) at or above {}",
                start.display()
            ),
        }
    }
}

impl std::error::Error for LintError {}

/// The loaded workspace: every lexed source file.
#[derive(Debug)]
pub struct Workspace {
    /// All `.rs` files under the scanned `src/` trees, keyed by
    /// workspace-relative path (sorted, so every report is
    /// deterministic).
    pub files: BTreeMap<String, SourceFile>,
}

impl Workspace {
    /// Loads the workspace rooted at `root`: every `.rs` file under
    /// `src/` and `crates/*/src/`. `third_party/` stand-ins and
    /// `target/` are never scanned.
    pub fn load(root: &Path) -> Result<Workspace, LintError> {
        let mut files = BTreeMap::new();
        let mut src_dirs = vec![root.join("src")];
        for crate_dir in sorted_dirs(&root.join("crates"))? {
            src_dirs.push(crate_dir.join("src"));
        }
        for dir in src_dirs {
            walk_rs(root, &dir, &mut files)?;
        }

        Ok(Workspace { files })
    }
}

/// Ascends from `start` to the first directory whose `Cargo.toml`
/// declares a `[workspace]`.
pub fn find_root(start: &Path) -> Result<PathBuf, LintError> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = read(&manifest)?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err(LintError::NoWorkspaceRoot(start.to_path_buf()));
        }
    }
}

fn read(path: &Path) -> Result<String, LintError> {
    fs::read_to_string(path).map_err(|e| LintError::Io(path.to_path_buf(), e))
}

/// Immediate subdirectories of `dir`, sorted by name; empty when `dir`
/// does not exist (fixture workspaces omit trees they don't exercise).
fn sorted_dirs(dir: &Path) -> Result<Vec<PathBuf>, LintError> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(LintError::Io(dir.to_path_buf(), e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| LintError::Io(dir.to_path_buf(), e))?;
        if entry.path().is_dir() {
            out.push(entry.path());
        }
    }
    out.sort();
    Ok(out)
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Recursively collects `.rs` files under `dir` (sorted traversal).
fn walk_rs(
    root: &Path,
    dir: &Path,
    files: &mut BTreeMap<String, SourceFile>,
) -> Result<(), LintError> {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(LintError::Io(dir.to_path_buf(), e)),
    };
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        paths.push(
            entry
                .map_err(|e| LintError::Io(dir.to_path_buf(), e))?
                .path(),
        );
    }
    paths.sort();
    for path in paths {
        if path.is_dir() {
            walk_rs(root, &path, files)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let text = read(&path)?;
            let rel = rel_path(root, &path);
            files.insert(rel.clone(), SourceFile::new(rel, &text));
        }
    }
    Ok(())
}
