//! `fedval-lint` CLI: scan the workspace (or explicit files) for
//! violations of the determinism contracts. Exit code 0 = clean,
//! 1 = findings, 2 = usage or I/O error.
//!
//! ```text
//! cargo run -p fedval-lint -- --workspace          # scan the whole tree
//! cargo run -p fedval-lint -- crates/core/src/x.rs # scan specific files
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use fedval_lint::{find_workspace_root, scan_source, scan_workspace, Finding, ANNOTATION_GRAMMAR};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workspace = false;
    let mut root_override: Option<PathBuf> = None;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--root" => match it.next() {
                Some(r) => root_override = Some(PathBuf::from(r)),
                None => return usage("--root needs a directory argument"),
            },
            "--help" | "-h" => {
                eprintln!(
                    "fedval-lint: determinism static analysis\n\n\
                     USAGE: fedval-lint [--workspace] [--root <dir>] [files...]\n\n\
                     --workspace   scan crates/, tests/ and examples/ under the\n\
                                   workspace root (found from --root or the cwd)\n\
                     --root <dir>  use <dir> as the workspace root\n\
                     files         scan specific files (paths are classified\n\
                                   relative to the workspace root)\n\n{ANNOTATION_GRAMMAR}"
                );
                return ExitCode::SUCCESS;
            }
            p if !p.starts_with('-') => paths.push(PathBuf::from(p)),
            other => return usage(&format!("unknown flag `{other}`")),
        }
    }
    if !workspace && paths.is_empty() {
        workspace = true; // default: lint the tree you are standing in
    }

    let cwd = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("fedval-lint: cannot read current directory: {e}");
            return ExitCode::from(2);
        }
    };
    let root = match root_override.or_else(|| find_workspace_root(&cwd)) {
        Some(r) => r,
        None => {
            eprintln!("fedval-lint: no workspace root found (no Cargo.toml with [workspace])");
            return ExitCode::from(2);
        }
    };

    let mut findings: Vec<Finding> = Vec::new();
    if workspace {
        match scan_workspace(&root) {
            Ok(f) => findings.extend(f),
            Err(e) => {
                eprintln!("fedval-lint: scan failed: {e}");
                return ExitCode::from(2);
            }
        }
    }
    for path in &paths {
        let abs = if path.is_absolute() {
            path.clone()
        } else {
            cwd.join(path)
        };
        let rel = abs
            .strip_prefix(&root)
            .unwrap_or(Path::new(path))
            .to_string_lossy()
            .replace('\\', "/");
        match std::fs::read_to_string(&abs) {
            Ok(source) => findings.extend(scan_source(&rel, &source)),
            Err(e) => {
                eprintln!("fedval-lint: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }

    if findings.is_empty() {
        println!("fedval-lint: clean (0 findings)");
        return ExitCode::SUCCESS;
    }
    for f in &findings {
        println!("{f}");
    }
    println!(
        "\nfedval-lint: {} finding{} — each one is a latent break of the\n\
         bit-identity contracts (thread-count / cache-state / coalescing).\n\
         Fix the site (sorted drain, BTreeMap, explicit seed) or annotate it:\n\n{}",
        findings.len(),
        if findings.len() == 1 { "" } else { "s" },
        ANNOTATION_GRAMMAR
    );
    ExitCode::FAILURE
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("fedval-lint: {msg} (try --help)");
    ExitCode::from(2)
}
