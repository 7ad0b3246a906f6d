//! `fedval-lint` — the workspace's determinism static-analysis pass.
//!
//! Every estimator in this repository stakes its value on three
//! bit-identity contracts (ARCHITECTURE.md): results are bit-identical
//! across thread counts, cache states, and service coalescing.
//! The equivalence suites enforce those contracts *dynamically* — a
//! violation is caught only if a test seed happens to exercise it. This
//! crate enforces the source-level preconditions *statically*: no
//! order-sensitive hash iteration in estimator code, no wall-clock reads
//! outside the timing whitelist, no RNG that does not flow from an
//! explicit seed, and no unexplained `#[allow(...)]` escape hatches.
//!
//! The scanner is dependency-free by construction (the build container
//! has no registry access): a hand-rolled lexer strips comments and
//! string literals (keeping line positions), a flat token scan
//! recognises the method chains and attribute spans the rules need, and
//! `#[cfg(test)]` item spans are skipped. See [`rules`] for the rule
//! catalog and the annotation grammar
//! (`// lint:order-insensitive(<reason>)`, `// lint:wall-clock(<reason>)`,
//! `// lint:seeded(<reason>)`).
//!
//! ```
//! use fedval_lint::scan_source;
//!
//! let findings = scan_source(
//!     "crates/core/src/demo.rs",
//!     "fn f(m: &std::collections::HashMap<u32, f64>) -> f64 {\n\
//!          m.values().sum()\n\
//!      }\n",
//! );
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].rule.id(), "hash-order");
//! ```

pub mod lexer;
pub mod rules;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use rules::{classify, scan_source, FileClass, Finding, Rule};

/// The annotation grammar, printed when findings fail a run — one line
/// per annotation kind. Kept here so the CLI and the CI job's failure
/// output stay in sync with the rules.
pub const ANNOTATION_GRAMMAR: &str = "\
Annotation grammar (trailing comment on the site line, or in the comment
block directly above; the reason inside the parentheses is mandatory):
  // lint:order-insensitive(<reason>)  hash iteration whose fold provably
                                       commutes (e.g. integer counters)
  // lint:wall-clock(<reason>)         timing gauge that never feeds a value
  // lint:seeded(<reason>)             RNG argument that is a seed by
                                       construction despite its name
Rules and contracts: ARCHITECTURE.md \u{00a7} Static guarantees.";

/// Scan every first-party Rust source under `root` (the workspace
/// checkout): `crates/`, `tests/`, `examples/`. `shims/` (vendored
/// third-party stand-ins), `target/` and lint fixtures are skipped.
/// Findings come back sorted by path and line.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut files: Vec<PathBuf> = Vec::new();
    for top in ["crates", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort();
    let mut findings = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        if classify(&rel).is_none() {
            continue;
        }
        let source = fs::read_to_string(&path)?;
        findings.extend(scan_source(&rel, &source));
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(findings)
}

/// Recursively collect `.rs` files, skipping `target/`, `fixtures/` and
/// hidden directories.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Locate the workspace root by walking up from `start` to the first
/// directory holding a `Cargo.toml` that declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
