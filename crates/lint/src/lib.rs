//! `fedval-lint` — the one determinism check clippy cannot express.
//!
//! Every valuation replays bit for bit from its config, so every RNG in
//! library code must be built from an explicit seed. Clippy bans the
//! nondeterministic constructors (`clippy.toml`), but it cannot tell a
//! seed from any other integer. This crate flags a `seed_from_u64` /
//! `from_seed` call in library code whose argument names no identifier
//! containing `seed`, unless the site carries `// lint:seeded(<reason>)`
//! as a trailing comment or in the comment block directly above.
//! `#[cfg(test)]` items are skipped: fixed literal seeds are test inputs.
//!
//! Hash-order iteration, wall-clock reads and reasoned allows are
//! clippy's (ARCHITECTURE.md § Static guarantees). The scanner is
//! dependency-free: [`lexer`] strips comments and literals, keeping line
//! positions, and cuts the rest into tokens.
//!
//! ```
//! let findings = fedval_lint::scan_source(
//!     "crates/core/src/demo.rs",
//!     "fn f(run: u64) -> StdRng {\n    StdRng::seed_from_u64(run * 31)\n}\n",
//! );
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].line, 2);
//! ```

pub mod lexer;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use lexer::{prepare, tokenize, Prepared, Token};

/// Seeding constructors whose argument must name a seed.
const SEEDING: &[&str] = &["seed_from_u64", "from_seed"];

/// A seeding call whose argument names no seed.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line of the call.
    pub line: u32,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: the RNG seed does not flow from a seed parameter; thread an \
             explicit seed through, or annotate with `// lint:seeded(<reason>)`",
            self.file, self.line
        )
    }
}

/// Check one library source file.
pub fn scan_source(file: &str, source: &str) -> Vec<Finding> {
    let prep = prepare(source);
    let toks = tokenize(&prep.clean);
    let lines = Lines::mark(&prep, &toks);
    let mut findings = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_word
            || !SEEDING.contains(&t.text.as_str())
            || toks.get(i + 1).is_none_or(|p| p.text != "(")
            || lines.test[t.line as usize]
        {
            continue;
        }
        let close = match_bracket(&toks, i + 1, "(", ")");
        let names_a_seed = toks
            .get(i + 2..close)
            .unwrap_or_default()
            .iter()
            .any(|a| a.is_word && a.text.to_ascii_lowercase().contains("seed"));
        if !names_a_seed && !lines.annotated(&prep, t.line) {
            findings.push(Finding {
                file: file.to_string(),
                line: t.line,
            });
        }
    }
    findings
}

/// Check the library code of every crate under `root/crates`: each
/// `src/` tree except the bench harness, whose runs feed fixed literal
/// seeds by design. The gradient baselines it hosts, and the history
/// they replay, are estimator code and stay in scope. Findings come back
/// sorted by path and line.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    for krate in fs::read_dir(root.join("crates"))? {
        collect_rs_files(&krate?.path().join("src"), &mut files)?;
    }
    files.sort();
    let mut findings = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let harness = rel.starts_with("crates/bench/src/")
            && !rel.starts_with("crates/bench/src/gradient/")
            && rel != "crates/bench/src/history.rs";
        if !harness {
            findings.extend(scan_source(&rel, &fs::read_to_string(&path)?));
        }
    }
    Ok(findings)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Per-line facts, indexed by 1-based line.
struct Lines {
    /// Inside a `#[cfg(test)]` item.
    test: Vec<bool>,
    /// Carries attribute tokens and no other code: transparent when
    /// walking up to an annotation.
    attr_only: Vec<bool>,
    /// Carries any non-attribute token.
    code: Vec<bool>,
}

impl Lines {
    fn mark(prep: &Prepared, toks: &[Token]) -> Self {
        let n = prep.comments.len() + 1;
        let mut lines = Lines {
            test: vec![false; n],
            attr_only: vec![false; n],
            code: vec![false; n],
        };
        let mut in_attr = vec![false; toks.len()];
        let mut i = 0;
        while i < toks.len() {
            let Some((open, close)) = attribute_at(toks, i) else {
                i += 1;
                continue;
            };
            in_attr[i..=close].iter_mut().for_each(|a| *a = true);
            let body: Vec<&str> = toks[open + 1..close]
                .iter()
                .map(|t| t.text.as_str())
                .collect();
            let outer = open == i + 1;
            i = close + 1;
            if outer && body.first() == Some(&"cfg") && body.contains(&"test") {
                let end = item_end(toks, i);
                let last = toks.get(end).map_or(n - 1, |t| t.line as usize);
                lines.test[toks[open].line as usize..=last].fill(true);
                i = end + 1;
            }
        }
        for (t, attr) in toks.iter().zip(in_attr) {
            let l = t.line as usize;
            if !attr {
                lines.code[l] = true;
                lines.attr_only[l] = false;
            } else if !lines.code[l] {
                lines.attr_only[l] = true;
            }
        }
        lines
    }

    /// Is there a `lint:seeded(<reason>)` with a non-empty reason on
    /// `line`, or in the comment block directly above it (attribute-only
    /// lines may sit in between; the reason may wrap)?
    fn annotated(&self, prep: &Prepared, line: u32) -> bool {
        let has = |text: &str| {
            text.split_once("lint:seeded(")
                .and_then(|(_, rest)| rest.split_once(')'))
                .is_some_and(|(reason, _)| reason.chars().any(char::is_alphanumeric))
        };
        if has(prep.comment_on(line)) {
            return true;
        }
        let mut block = Vec::new();
        for l in (1..line).rev() {
            let (comment, attr) = (prep.comment_on(l), self.attr_only[l as usize]);
            if !attr && (self.code[l as usize] || comment.is_empty()) {
                break;
            }
            block.push(comment);
        }
        block.reverse();
        has(&block.join(" "))
    }
}

/// If token `i` starts an attribute (`#[…]` or `#![…]`), the indices of
/// its `[` and `]`.
fn attribute_at(toks: &[Token], i: usize) -> Option<(usize, usize)> {
    if toks.get(i)?.text != "#" {
        return None;
    }
    let open = i + 1 + usize::from(toks.get(i + 1).is_some_and(|t| t.text == "!"));
    (toks.get(open)?.text == "[").then(|| (open, match_bracket(toks, open, "[", "]")))
}

/// The index of the token ending the item that starts at `start` (after
/// any further attributes): its closing `}`, or `;` for a brace-less item.
fn item_end(toks: &[Token], mut start: usize) -> usize {
    while let Some((_, close)) = attribute_at(toks, start) {
        start = close + 1;
    }
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(start) {
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth == 0 => return match_bracket(toks, k, "{", "}"),
            ";" if depth == 0 => return k,
            _ => {}
        }
    }
    toks.len()
}

/// Index of the token matching the opener at `open`, or the last token
/// if unbalanced.
fn match_bracket(toks: &[Token], open: usize, open_sym: &str, close_sym: &str) -> usize {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.text == open_sym {
            depth += 1;
        } else if t.text == close_sym {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    toks.len().saturating_sub(1)
}
