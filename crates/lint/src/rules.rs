//! The determinism rule set.
//!
//! Four repo-specific rules that clippy cannot express, each mapped onto
//! one of the bit-identity contracts in ARCHITECTURE.md:
//!
//! * **`hash-order`** — in the estimator code (`fedval-core`, `fedval-fl`
//!   and the gradient baselines in `crates/bench/src/gradient/` with the
//!   `history.rs` they replay), no order-sensitive iteration of a
//!   `HashMap`/`HashSet`:
//!   `for` loops and `.iter()`/`.keys()`/`.values()`/`.drain()`-family
//!   calls on a hash-typed binding are findings unless the site is
//!   immediately sorted, ends in an order-insensitive terminal
//!   (`len`/`count`/`is_empty`/`contains`/`any`/`all`), or carries a
//!   `// lint:order-insensitive(<reason>)` annotation. Membership probes
//!   (`get`/`insert`/`contains`/`entry`) are free.
//! * **`wall-clock`** — no `Instant::now`/`SystemTime` outside the
//!   timing whitelist (the service's `coalescer.rs`, `run.rs` and
//!   `server.rs` under `crates/core/src/service/` — park-wait accounting —
//!   and the rest of the `crates/bench` harness); stray accounting sites carry
//!   `// lint:wall-clock(<reason>)`.
//! * **`unseeded-rng`** — RNG construction must flow from an explicit
//!   seed: nondeterministic constructors (`thread_rng`, `from_entropy`,
//!   `from_os_rng`) are findings everywhere, and a
//!   `seed_from_u64`/`from_seed` call whose argument names no
//!   seed-carrying identifier needs `// lint:seeded(<reason>)`.
//! * **`allow-justification`** — every `#[allow(...)]` /
//!   `#[cfg_attr(..., allow(...))]` in non-test library code carries a
//!   justification comment (same line or the comment block directly
//!   above).
//!
//! Test code — `#[cfg(test)]` spans, `tests/`, `benches/`, `examples/`
//! — is *driver* code: only the nondeterministic-constructor ban applies
//! there (determinism matters in tests too; the other rules guard
//! value-producing library paths). `shims/` is vendored third-party
//! stand-in code and is not scanned, exactly as a registry dependency
//! would not be.

use crate::lexer::{prepare, tokenize, Prepared, Token};

/// Rule identifiers, as printed in findings and used by the fixtures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    HashOrder,
    WallClock,
    UnseededRng,
    AllowJustification,
}

impl Rule {
    pub fn id(self) -> &'static str {
        match self {
            Rule::HashOrder => "hash-order",
            Rule::WallClock => "wall-clock",
            Rule::UnseededRng => "unseeded-rng",
            Rule::AllowJustification => "allow-justification",
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    pub rule: Rule,
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule.id(),
            self.message
        )
    }
}

/// How a file is scanned, derived from its workspace-relative path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// First-party library source under `crates/*/src`.
    Library {
        /// In the estimator code (`core`, `fl`, the bench's gradient
        /// baselines) the `hash-order` rule is active; elsewhere hash
        /// iteration has no bit-identity contract to break.
        estimator: bool,
        /// Wall-clock whitelist membership (the service files that account
        /// park-wait time).
        timing_whitelisted: bool,
    },
    /// Test/bench/example driver code, and the `crates/bench` harness
    /// outside its gradient baselines: only the nondeterministic-constructor
    /// ban applies.
    Driver,
}

/// The library files allowed to read the clock: the parts of the
/// valuation service that account park-wait time, flush windows and
/// request deadlines. The service's request types (`request.rs`) and
/// module root stay under the rule.
const TIMING_WHITELIST: &[&str] = &[
    "crates/core/src/service/coalescer.rs",
    "crates/core/src/service/run.rs",
    "crates/core/src/service/server.rs",
];

/// Classify a workspace-relative path; `None` means "do not scan"
/// (non-Rust files, vendored shims, lint fixtures).
pub fn classify(rel_path: &str) -> Option<FileClass> {
    let p = rel_path.replace('\\', "/");
    if !p.ends_with(".rs") {
        return None;
    }
    // Vendored stand-ins for registry crates: out of scope, like any
    // third-party dependency.
    if p.starts_with("shims/") {
        return None;
    }
    // Lint fixtures are rule *inputs* (they trip on purpose).
    if p.contains("/fixtures/") {
        return None;
    }
    if p.starts_with("tests/") || p.starts_with("examples/") {
        return Some(FileClass::Driver);
    }
    // Per-crate test and bench targets.
    if p.contains("/tests/") || p.contains("/benches/") || p.contains("/examples/") {
        return Some(FileClass::Driver);
    }
    // The bench harness: timing is its purpose, fixed literal seeds are
    // its inputs — driver code. The gradient baselines it hosts, and the
    // training history they replay, are estimators.
    let bench_estimator =
        p.starts_with("crates/bench/src/gradient/") || p == "crates/bench/src/history.rs";
    if p.starts_with("crates/bench/") && !bench_estimator {
        return Some(FileClass::Driver);
    }
    if p.starts_with("crates/") && p.contains("/src/") {
        let estimator =
            p.starts_with("crates/core/") || p.starts_with("crates/fl/") || bench_estimator;
        let timing_whitelisted = TIMING_WHITELIST.contains(&p.as_str());
        return Some(FileClass::Library {
            estimator,
            timing_whitelisted,
        });
    }
    None
}

/// Scan one file's source text under the classification its path implies.
/// Returns an empty vec for unscanned paths.
pub fn scan_source(rel_path: &str, source: &str) -> Vec<Finding> {
    let Some(class) = classify(rel_path) else {
        return Vec::new();
    };
    let prep = prepare(source);
    let toks = tokenize(&prep.clean);
    let ctx = FileContext::build(rel_path, class, &prep, &toks);
    let mut findings = Vec::new();
    ctx.check_unseeded_rng(&mut findings);
    if let FileClass::Library {
        estimator,
        timing_whitelisted,
    } = class
    {
        if estimator {
            ctx.check_hash_order(&mut findings);
        }
        if !timing_whitelisted {
            ctx.check_wall_clock(&mut findings);
        }
        ctx.check_allow_justification(&mut findings);
    }
    findings.sort_by_key(|f| f.line);
    findings
}

/// Iteration methods that expose a hash container's arbitrary order.
const ORDER_EXPOSING: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
    "extract_if",
];

/// Chain combinators that preserve "one finding per element" without
/// introducing order sensitivity on their own.
const SHAPE_COMBINATORS: &[&str] = &["copied", "cloned", "by_ref"];

/// Terminal chain calls whose result does not depend on iteration order.
const ORDER_FREE_TERMINALS: &[&str] = &["len", "count", "is_empty", "contains", "any", "all"];

/// Nondeterministic RNG constructors: banned tree-wide, no annotation
/// escape — a value produced from one can never be replayed.
const BANNED_RNG: &[&str] = &["thread_rng", "from_entropy", "from_os_rng"];

/// Seeding constructors whose argument must name a seed.
const SEEDING: &[&str] = &["seed_from_u64", "from_seed"];

/// Per-file scan state shared by the rules.
struct FileContext<'a> {
    rel_path: String,
    class: FileClass,
    prep: &'a Prepared,
    toks: &'a [Token],
    /// 1-based lines inside `#[cfg(test)]` item spans.
    test_lines: Vec<bool>,
    /// 1-based lines that carry attribute tokens (`#[...]`) and nothing
    /// else — transparent when walking up to a justification comment.
    attr_only_lines: Vec<bool>,
    /// 1-based lines that carry any non-attribute code token.
    code_lines: Vec<bool>,
    /// Identifiers known to be bound to `HashMap`/`HashSet` values
    /// (let bindings, fn params, struct fields, via type aliases too).
    hash_idents: Vec<String>,
}

impl<'a> FileContext<'a> {
    fn build(rel_path: &str, class: FileClass, prep: &'a Prepared, toks: &'a [Token]) -> Self {
        let n_lines = prep.comments.len() + 1;
        let mut ctx = FileContext {
            rel_path: rel_path.replace('\\', "/"),
            class,
            prep,
            toks,
            test_lines: vec![false; n_lines],
            attr_only_lines: vec![false; n_lines],
            code_lines: vec![false; n_lines],
            hash_idents: Vec::new(),
        };
        ctx.mark_attributes_and_tests();
        ctx.collect_hash_idents();
        ctx
    }

    fn in_test(&self, line: u32) -> bool {
        self.test_lines.get(line as usize).copied().unwrap_or(false)
    }

    fn finding(&self, out: &mut Vec<Finding>, line: u32, rule: Rule, message: String) {
        out.push(Finding {
            file: self.rel_path.clone(),
            line,
            rule,
            message,
        });
    }

    /// Walk attribute groups once: record which lines are attribute-only,
    /// find `#[cfg(test)]`-gated items and mark their line spans, and
    /// remember every line holding ordinary code.
    fn mark_attributes_and_tests(&mut self) {
        let toks = self.toks;
        let mut attr_token: Vec<bool> = vec![false; toks.len()];
        let mut i = 0usize;
        while i < toks.len() {
            if toks[i].text == "#" {
                // `#[...]` or `#![...]` — find the bracketed group.
                let mut j = i + 1;
                if j < toks.len() && toks[j].text == "!" {
                    j += 1;
                }
                if j < toks.len() && toks[j].text == "[" {
                    let close = match_bracket(toks, j, "[", "]");
                    for t in attr_token.iter_mut().take(close + 1).skip(i) {
                        *t = true;
                    }
                    // cfg(test) / cfg(all(test, ...)): mark the gated
                    // item's span as test code.
                    let is_outer = toks[i + 1].text != "!";
                    let body: Vec<&str> =
                        toks[j + 1..close].iter().map(|t| t.text.as_str()).collect();
                    if is_outer && body.first() == Some(&"cfg") && body.contains(&"test") {
                        let end = self.mark_test_item(close + 1, toks[i].line);
                        i = end;
                        continue;
                    }
                    i = close + 1;
                    continue;
                }
            }
            i += 1;
        }
        // Line bookkeeping from the token/attr classification.
        for (k, t) in toks.iter().enumerate() {
            let l = t.line as usize;
            if attr_token[k] {
                if !self.code_lines[l] {
                    self.attr_only_lines[l] = true;
                }
            } else {
                self.code_lines[l] = true;
                self.attr_only_lines[l] = false;
            }
        }
    }

    /// Starting just past a `#[cfg(test)]` attribute at token `start`,
    /// skip any further attributes, then span the gated item (to its
    /// matching close brace, or to `;` for a brace-less item). Marks the
    /// covered lines as test code and returns the index just past the
    /// item.
    fn mark_test_item(&mut self, mut start: usize, attr_line: u32) -> usize {
        let toks = self.toks;
        // Skip stacked attributes between cfg(test) and the item.
        while start < toks.len() && toks[start].text == "#" {
            let mut j = start + 1;
            if j < toks.len() && toks[j].text == "!" {
                j += 1;
            }
            if j < toks.len() && toks[j].text == "[" {
                start = match_bracket(toks, j, "[", "]") + 1;
            } else {
                break;
            }
        }
        // Find the item's opening `{` or terminating `;` at depth 0.
        let mut depth = 0i32;
        let mut k = start;
        while k < toks.len() {
            match toks[k].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    let close = match_bracket(toks, k, "{", "}");
                    let end_line = toks[close].line;
                    for l in attr_line as usize..=end_line as usize {
                        if l < self.test_lines.len() {
                            self.test_lines[l] = true;
                        }
                    }
                    return close + 1;
                }
                ";" if depth == 0 => {
                    let end_line = toks[k].line;
                    for l in attr_line as usize..=end_line as usize {
                        if l < self.test_lines.len() {
                            self.test_lines[l] = true;
                        }
                    }
                    return k + 1;
                }
                _ => {}
            }
            k += 1;
        }
        toks.len()
    }

    /// Collect identifiers bound to `HashMap`/`HashSet` (directly, or via
    /// a local `type` alias whose right-hand side is one).
    fn collect_hash_idents(&mut self) {
        let toks = self.toks;
        let mut hash_types: Vec<String> = vec!["HashMap".into(), "HashSet".into()];
        // Pass 1: type aliases — `type Name = ... HashMap<...>;`
        for i in 0..toks.len() {
            if toks[i].text == "type" && i + 2 < toks.len() && toks[i + 2].text == "=" {
                let alias = &toks[i + 1];
                let mut j = i + 3;
                while j < toks.len() && toks[j].text != ";" {
                    if toks[j].text == "HashMap" || toks[j].text == "HashSet" {
                        hash_types.push(alias.text.clone());
                        break;
                    }
                    j += 1;
                }
            }
        }
        let is_hash_type = |t: &str| hash_types.iter().any(|h| h == t);

        let mut idents: Vec<String> = Vec::new();
        for i in 0..toks.len() {
            // Typed binding / param / field: `name: [&|&mut|mut|path::]Hash<...>`
            // — the hash type must be the *outermost* type constructor, so
            // `shards: [RwLock<HashMap<..>>; N]` does not mark `shards`.
            if toks[i].text == ":" && i > 0 && toks[i - 1].is_word {
                let name = &toks[i - 1].text;
                let mut j = i + 1;
                while j < toks.len()
                    && matches!(
                        toks[j].text.as_str(),
                        "&" | "mut" | "'" | "std" | "collections" | ":"
                    )
                {
                    j += 1;
                }
                // Skip a lifetime name directly after `'`.
                if j > i + 1 && toks[j - 1].text == "'" {
                    j += 1;
                }
                if j < toks.len() && is_hash_type(&toks[j].text) {
                    idents.push(name.clone());
                }
            }
            // Untyped let with a hash constructor on the RHS:
            // `let [mut] name = [path::]Hash::new()/with_capacity(..)`.
            if toks[i].text == "let" {
                let mut j = i + 1;
                if j < toks.len() && toks[j].text == "mut" {
                    j += 1;
                }
                if j >= toks.len() || !toks[j].is_word {
                    continue;
                }
                let name = &toks[j].text;
                if j + 1 < toks.len() && toks[j + 1].text == "=" {
                    let mut k = j + 2;
                    let limit = (j + 14).min(toks.len());
                    while k < limit && toks[k].text != ";" && toks[k].text != "(" {
                        if is_hash_type(&toks[k].text) {
                            idents.push(name.clone());
                            break;
                        }
                        k += 1;
                    }
                }
            }
        }
        idents.sort();
        idents.dedup();
        self.hash_idents = idents;
    }

    /// Is there a `lint:<kind>(reason)` annotation covering `line`? Looks
    /// at the trailing comment of the line itself, then at the contiguous
    /// block of comment-only and attribute-only lines above it. The block
    /// is joined before matching, so a long reason may wrap across
    /// comment lines.
    fn annotated(&self, line: u32, kind: &str) -> bool {
        let needle = format!("lint:{kind}(");
        // Non-empty reason up to the closing paren, possibly with comment
        // markers interleaved where the reason wrapped.
        let has = |text: &str| {
            if let Some(pos) = text.find(&needle) {
                let rest = &text[pos + needle.len()..];
                return rest
                    .find(')')
                    .is_some_and(|close| rest[..close].chars().any(|c| c.is_alphanumeric()));
            }
            false
        };
        if has(self.prep.comment_on(line)) {
            return true;
        }
        // Collect the comment block directly above (attributes may sit
        // between it and the site) and match against the joined text.
        let mut block: Vec<&str> = Vec::new();
        let mut l = line.saturating_sub(1);
        while l >= 1 {
            let lu = l as usize;
            let code = self.code_lines.get(lu).copied().unwrap_or(false);
            let attr = self.attr_only_lines.get(lu).copied().unwrap_or(false);
            let comment = self.prep.comment_on(l);
            if code && !attr {
                break;
            }
            if !comment.is_empty() {
                block.push(comment);
            } else if !attr {
                break; // blank line ends the block
            }
            l -= 1;
        }
        block.reverse();
        has(&block.join(" "))
    }

    /// `hash-order`: order-sensitive iteration of hash containers.
    fn check_hash_order(&self, out: &mut Vec<Finding>) {
        let toks = self.toks;
        for i in 0..toks.len() {
            // `name.iter()` / `self.name.drain()` … method chains.
            if toks[i].is_word && self.hash_idents.contains(&toks[i].text) {
                let name = &toks[i].text;
                // Direct iteration method on the binding.
                if i + 3 < toks.len()
                    && toks[i + 1].text == "."
                    && ORDER_EXPOSING.contains(&toks[i + 2].text.as_str())
                    && toks[i + 3].text == "("
                {
                    let line = toks[i].line;
                    if self.in_test(line) || self.annotated(line, "order-insensitive") {
                        continue;
                    }
                    if self.chain_is_order_free(i + 2) || self.sorted_nearby(i, line) {
                        continue;
                    }
                    self.finding(
                        out,
                        line,
                        Rule::HashOrder,
                        format!(
                            "`{name}.{}()` iterates a HashMap/HashSet in arbitrary order; \
                             sort the drain, use a BTreeMap, or annotate the site with \
                             `// lint:order-insensitive(<reason>)`",
                            toks[i + 2].text
                        ),
                    );
                }
            }
            // `for x in [&[mut]] name {` — iteration by loop.
            if toks[i].text == "for" {
                // Find `in` at depth 0 (patterns may contain parens).
                let mut depth = 0i32;
                let mut j = i + 1;
                let mut in_idx = None;
                while j < toks.len() && j < i + 40 {
                    match toks[j].text.as_str() {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "in" if depth == 0 => {
                            in_idx = Some(j);
                            break;
                        }
                        "{" => break,
                        _ => {}
                    }
                    j += 1;
                }
                let Some(ix) = in_idx else { continue };
                // Expression = tokens to the loop `{` at depth 0.
                let mut k = ix + 1;
                let mut expr: Vec<usize> = Vec::new();
                let mut depth = 0i32;
                while k < toks.len() {
                    match toks[k].text.as_str() {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "{" if depth == 0 => break,
                        _ => {}
                    }
                    expr.push(k);
                    k += 1;
                }
                // Flag only the bare `name` / `&name` / `&mut name` forms;
                // method-call forms are caught by the chain rule above.
                let words: Vec<&str> = expr
                    .iter()
                    .map(|&t| toks[t].text.as_str())
                    .filter(|w| *w != "&" && *w != "mut")
                    .collect();
                if words.len() == 1 && self.hash_idents.iter().any(|h| h == words[0]) {
                    let line = toks[ix].line;
                    if self.in_test(line) || self.annotated(line, "order-insensitive") {
                        continue;
                    }
                    self.finding(
                        out,
                        line,
                        Rule::HashOrder,
                        format!(
                            "`for … in {}` iterates a HashMap/HashSet in arbitrary order; \
                             sort first, use a BTreeMap, or annotate with \
                             `// lint:order-insensitive(<reason>)`",
                            words[0]
                        ),
                    );
                }
            }
        }
    }

    /// Does the method chain starting at the iteration call (token index
    /// of `iter`/`keys`/…) end in an order-insensitive terminal, passing
    /// only through shape-preserving combinators?
    fn chain_is_order_free(&self, mut call: usize) -> bool {
        let toks = self.toks;
        loop {
            // `call` indexes the method name; skip its argument list.
            let open = call + 1;
            if open >= toks.len() || toks[open].text != "(" {
                return false;
            }
            let close = match_bracket(toks, open, "(", ")");
            // Turbofish between name and `(` is not handled — treated as
            // order-sensitive, which is the conservative direction.
            let mut next = close + 1;
            if next >= toks.len() || toks[next].text != "." {
                return false;
            }
            next += 1;
            if next >= toks.len() || !toks[next].is_word {
                return false;
            }
            let m = toks[next].text.as_str();
            if ORDER_FREE_TERMINALS.contains(&m) {
                return true;
            }
            if SHAPE_COMBINATORS.contains(&m) {
                call = next;
                continue;
            }
            return false;
        }
    }

    /// Is the iteration "immediately sorted"? True when the same
    /// statement, or either of the two following lines, sorts the result
    /// or collects it into a `BTreeMap`/`BTreeSet`.
    fn sorted_nearby(&self, site: usize, line: u32) -> bool {
        let toks = self.toks;
        // Same statement: scan forward to `;` (bounded).
        let mut k = site;
        let mut depth = 0i32;
        while k < toks.len() && k < site + 120 {
            match toks[k].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                ";" if depth <= 0 => break,
                _ => {}
            }
            if toks[k].is_word
                && (toks[k].text.starts_with("sort")
                    || toks[k].text == "BTreeMap"
                    || toks[k].text == "BTreeSet"
                    || toks[k].text == "BinaryHeap")
            {
                return true;
            }
            k += 1;
        }
        // The next two lines (the classic collect-then-sort shape).
        toks.iter()
            .filter(|t| t.line > line && t.line <= line + 2)
            .any(|t| t.is_word && t.text.starts_with("sort"))
    }

    /// `wall-clock`: `Instant::now` / `SystemTime` outside the whitelist.
    fn check_wall_clock(&self, out: &mut Vec<Finding>) {
        let toks = self.toks;
        for i in 0..toks.len() {
            let line = toks[i].line;
            if self.in_test(line) {
                continue;
            }
            let hit = match toks[i].text.as_str() {
                "SystemTime" => Some("SystemTime"),
                "Instant" => (i + 3 < toks.len()
                    && toks[i + 1].text == ":"
                    && toks[i + 2].text == ":"
                    && toks[i + 3].text == "now")
                    .then_some("Instant::now"),
                _ => None,
            };
            // `use std::time::Instant;` imports are fine — only the call
            // sites matter. `SystemTime` has no deterministic use at all,
            // so any mention outside `use` is flagged.
            if let Some(what) = hit {
                if i >= 1 && is_in_use_decl(toks, i) {
                    continue;
                }
                if self.annotated(line, "wall-clock") {
                    continue;
                }
                self.finding(
                    out,
                    line,
                    Rule::WallClock,
                    format!(
                        "`{what}` outside the timing whitelist \
                         (crates/core/src/service/{{coalescer,run,server}}.rs, \
                         crates/bench outside its gradient baselines); move the \
                         measurement there or annotate with `// lint:wall-clock(<reason>)`"
                    ),
                );
            }
        }
    }

    /// `unseeded-rng`: banned constructors everywhere; seeding calls in
    /// library code must reference a seed-carrying identifier.
    fn check_unseeded_rng(&self, out: &mut Vec<Finding>) {
        let toks = self.toks;
        for i in 0..toks.len() {
            let t = &toks[i];
            if !t.is_word {
                continue;
            }
            if BANNED_RNG.contains(&t.text.as_str())
                && i + 1 < toks.len()
                && toks[i + 1].text == "("
            {
                self.finding(
                    out,
                    t.line,
                    Rule::UnseededRng,
                    format!(
                        "`{}` constructs a nondeterministic RNG; every generator must \
                         be built from an explicit seed (`seed_from_u64`)",
                        t.text
                    ),
                );
                continue;
            }
            if matches!(self.class, FileClass::Library { .. })
                && !self.in_test(t.line)
                && SEEDING.contains(&t.text.as_str())
                && i + 1 < toks.len()
                && toks[i + 1].text == "("
            {
                let close = match_bracket(toks, i + 1, "(", ")");
                let args_name_a_seed = toks[i + 2..close]
                    .iter()
                    .any(|a| a.is_word && a.text.to_ascii_lowercase().contains("seed"));
                if !args_name_a_seed && !self.annotated(t.line, "seeded") {
                    self.finding(
                        out,
                        t.line,
                        Rule::UnseededRng,
                        format!(
                            "`{}` argument does not flow from a seed parameter; thread \
                             an explicit seed through, or annotate with \
                             `// lint:seeded(<reason>)`",
                            t.text
                        ),
                    );
                }
            }
        }
    }

    /// `allow-justification`: every `#[allow(...)]` (or
    /// `#[cfg_attr(..., allow(...))]`) in non-test library code needs a
    /// comment saying why.
    fn check_allow_justification(&self, out: &mut Vec<Finding>) {
        let toks = self.toks;
        let mut i = 0usize;
        while i < toks.len() {
            if toks[i].text != "#" {
                i += 1;
                continue;
            }
            let mut j = i + 1;
            if j < toks.len() && toks[j].text == "!" {
                j += 1;
            }
            if j >= toks.len() || toks[j].text != "[" {
                i += 1;
                continue;
            }
            let close = match_bracket(toks, j, "[", "]");
            let body: Vec<&str> = toks[j + 1..close].iter().map(|t| t.text.as_str()).collect();
            let is_allow = body.first() == Some(&"allow")
                || (body.first() == Some(&"cfg_attr") && body.contains(&"allow"));
            if is_allow {
                let line = toks[i].line;
                let end_line = toks[close].line;
                if !self.in_test(line) {
                    // Justified iff any spanned line has a trailing
                    // comment, or the comment block above explains it.
                    let mut justified =
                        (line..=end_line).any(|l| !self.prep.comment_on(l).is_empty());
                    if !justified {
                        justified = self.comment_block_above(line);
                    }
                    if !justified {
                        self.finding(
                            out,
                            line,
                            Rule::AllowJustification,
                            "`#[allow(...)]` without a justification comment (same line \
                             or the comment block directly above)"
                                .to_string(),
                        );
                    }
                }
            }
            i = close + 1;
        }
    }

    /// Is there a comment in the contiguous comment/attribute block
    /// directly above `line`?
    fn comment_block_above(&self, line: u32) -> bool {
        let mut l = line.saturating_sub(1);
        while l >= 1 {
            let lu = l as usize;
            let comment = !self.prep.comment_on(l).is_empty();
            let code = self.code_lines.get(lu).copied().unwrap_or(false);
            let attr = self.attr_only_lines.get(lu).copied().unwrap_or(false);
            if comment && !code {
                return true;
            }
            if attr && !code {
                l -= 1;
                continue;
            }
            return false;
        }
        false
    }
}

/// Index of the token matching the opener at `open` (`open_sym` …
/// `close_sym`), or the last token if unbalanced.
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

/// Is token `i` part of a `use …;` declaration? Walk back to the start
/// of the statement (`;` always terminates the previous one; braces are
/// allowed through, so `use std::time::{Duration, SystemTime};` counts).
fn is_in_use_decl(toks: &[Token], i: usize) -> bool {
    let mut k = i;
    while k > 0 {
        k -= 1;
        match toks[k].text.as_str() {
            ";" => return false,
            "use" => return true,
            _ => {}
        }
    }
    false
}
