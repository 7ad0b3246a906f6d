//! Fixture-based rule tests: every rule has a tripping fixture and a
//! near-miss fixture, each scanned under a synthetic workspace-relative
//! path (the fixtures themselves live under `tests/fixtures/`, which
//! [`fedval_lint::classify`] excludes from real scans). The final test
//! runs the full workspace scan and requires it clean — the same gate CI
//! applies.

// Driver code: test assertions panic by design, so unwrap/expect are
// the failure mechanism, not a robustness gap.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::{Path, PathBuf};

use fedval_lint::{classify, scan_source, scan_workspace, FileClass, Finding, Rule};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Scan a fixture as if it lived at `rel_path` inside the workspace.
fn scan_as(name: &str, rel_path: &str) -> Vec<Finding> {
    scan_source(rel_path, &fixture(name))
}

fn rules_of(findings: &[Finding]) -> Vec<Rule> {
    findings.iter().map(|f| f.rule).collect()
}

// ---------------------------------------------------------------- hash-order

#[test]
fn hash_order_trips_on_order_sensitive_iteration() {
    let findings = scan_as("hash_order_trip.rs", "crates/core/src/fixture.rs");
    assert_eq!(
        rules_of(&findings),
        vec![Rule::HashOrder; 4],
        "fold, drain, iter().next() and the bare for-loop must all trip: {findings:?}"
    );
    // The `for (_k, v) in memo.iter()` fold is the first site.
    assert_eq!(findings[0].line, 8, "{findings:?}");
}

#[test]
fn hash_order_ignores_probes_sorts_annotations_and_btree() {
    let findings = scan_as("hash_order_ok.rs", "crates/core/src/fixture.rs");
    assert!(findings.is_empty(), "near-misses must pass: {findings:?}");
}

#[test]
fn hash_order_only_applies_to_estimator_crates() {
    // The same tripping source is fine in a non-estimator crate (no
    // bit-identity contract covers, say, dataset bookkeeping)…
    let findings = scan_as("hash_order_trip.rs", "crates/data/src/fixture.rs");
    assert!(findings.is_empty(), "{findings:?}");
    // …and in driver code.
    let findings = scan_as("hash_order_trip.rs", "tests/tests/fixture.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn hash_order_tracks_tables_with_a_custom_hasher() {
    // The core crate keys its u128 tables with `MaskHash`; a third type
    // parameter must not hide a binding from the rule. Fields, typed
    // lets and untyped lets built with `default()` or
    // `with_capacity_and_hasher` each trip once when iterated.
    let src = "\
use std::collections::{HashMap, HashSet};
struct Memo {
    memo: HashMap<u128, f64, MaskHash>,
    seen: HashSet<u128, MaskHash>,
}
fn fields(m: &Memo) -> Option<u128> {
    let _ = m.memo.values().next();
    m.seen.iter().next().copied()
}
fn typed_lets() {
    let positions: HashMap<u128, usize, MaskHash> = HashMap::default();
    let chosen: HashSet<u128, MaskHash> = HashSet::default();
    for p in &positions {}
    for c in chosen.iter() {}
}
fn untyped_lets() {
    let mut by_mask = HashMap::default();
    by_mask.insert(1u128, 0.5);
    let pending = HashSet::with_capacity_and_hasher(8, MaskHash::default());
    for v in by_mask.values() {}
    for p in &pending {}
}
";
    let findings = scan_source("crates/core/src/fixture.rs", src);
    let lines: Vec<u32> = findings.iter().map(|f| f.line).collect();
    assert_eq!(
        rules_of(&findings),
        vec![Rule::HashOrder; 6],
        "{findings:?}"
    );
    assert_eq!(lines, vec![7, 8, 13, 14, 20, 21], "{findings:?}");
}

// ---------------------------------------------------------------- wall-clock

#[test]
fn wall_clock_trips_outside_the_whitelist() {
    let findings = scan_as("wall_clock_trip.rs", "crates/data/src/fixture.rs");
    assert_eq!(
        rules_of(&findings),
        vec![Rule::WallClock; 2],
        "Instant::now and SystemTime::now must trip: {findings:?}"
    );
}

#[test]
fn wall_clock_passes_annotated_gauges_and_clock_values() {
    let findings = scan_as("wall_clock_ok.rs", "crates/data/src/fixture.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn wall_clock_whitelist_covers_service_and_bench() {
    // The service files that account park-wait time are the whitelist…
    for file in ["coalescer.rs", "run.rs", "server.rs"] {
        let path = format!("crates/core/src/service/{file}");
        let findings = scan_as("wall_clock_trip.rs", &path);
        assert!(findings.is_empty(), "{path}: {findings:?}");
    }
    // …but not its request types or its module root.
    for path in [
        "crates/core/src/service/request.rs",
        "crates/core/src/service.rs",
    ] {
        assert!(!scan_as("wall_clock_trip.rs", path).is_empty(), "{path}");
    }
    // …and the bench harness is driver code, where timing is the point.
    let findings = scan_as("wall_clock_trip.rs", "crates/bench/src/fixture.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

// -------------------------------------------------------------- unseeded-rng

#[test]
fn unseeded_rng_trips_on_entropy_and_anonymous_seeds() {
    let findings = scan_as("unseeded_rng_trip.rs", "crates/data/src/fixture.rs");
    assert_eq!(
        rules_of(&findings),
        vec![Rule::UnseededRng; 3],
        "from_entropy, thread_rng and the seedless seed_from_u64 must trip: {findings:?}"
    );
}

#[test]
fn unseeded_rng_passes_seed_flow_and_annotation() {
    let findings = scan_as("unseeded_rng_ok.rs", "crates/data/src/fixture.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn nondeterministic_constructors_are_banned_even_in_driver_code() {
    // Driver code skips the seed-flow check (fixed literals are fine in
    // tests) but never the constructor ban — a test seeded from entropy
    // is unreproducible by construction.
    let findings = scan_as("unseeded_rng_trip.rs", "tests/tests/fixture.rs");
    assert_eq!(
        rules_of(&findings),
        vec![Rule::UnseededRng; 2],
        "{findings:?}"
    );
}

// ------------------------------------------------------- allow-justification

#[test]
fn allow_justification_trips_on_bare_allows() {
    let findings = scan_as("allow_trip.rs", "crates/data/src/fixture.rs");
    assert_eq!(
        rules_of(&findings),
        vec![Rule::AllowJustification; 2],
        "plain #[allow] and #[cfg_attr(..., allow(...))] must trip: {findings:?}"
    );
}

#[test]
fn allow_justification_passes_commented_and_test_allows() {
    let findings = scan_as("allow_ok.rs", "crates/data/src/fixture.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

// ------------------------------------------------------------ classification

#[test]
fn classification_matches_the_layout() {
    assert_eq!(
        classify("crates/core/src/sampling.rs"),
        Some(FileClass::Library {
            estimator: true,
            timing_whitelisted: false,
        })
    );
    assert_eq!(
        classify("crates/core/src/service/coalescer.rs"),
        Some(FileClass::Library {
            estimator: true,
            timing_whitelisted: true,
        })
    );
    assert_eq!(
        classify("crates/core/src/service/request.rs"),
        Some(FileClass::Library {
            estimator: true,
            timing_whitelisted: false,
        })
    );
    assert_eq!(
        classify("crates/gbdt/src/tree.rs"),
        Some(FileClass::Library {
            estimator: false,
            timing_whitelisted: false,
        })
    );
    assert_eq!(
        classify("crates/bench/src/runner.rs"),
        Some(FileClass::Driver)
    );
    // The gradient baselines and their history are estimator code inside
    // the harness crate.
    for path in [
        "crates/bench/src/gradient/mod.rs",
        "crates/bench/src/gradient/gtg.rs",
        "crates/bench/src/history.rs",
    ] {
        assert_eq!(
            classify(path),
            Some(FileClass::Library {
                estimator: true,
                timing_whitelisted: false,
            }),
            "{path}"
        );
    }
    assert_eq!(
        classify("tests/tests/service_faults.rs"),
        Some(FileClass::Driver)
    );
    assert_eq!(classify("examples/quickstart.rs"), Some(FileClass::Driver));
    // Out of scope: shims (vendored), fixtures (lint inputs), non-Rust.
    assert_eq!(classify("shims/rand/src/lib.rs"), None);
    assert_eq!(classify("crates/lint/tests/fixtures/allow_trip.rs"), None);
    assert_eq!(classify("crates/core/Cargo.toml"), None);
}

// ------------------------------------------------------------ workspace gate

#[test]
fn the_workspace_itself_is_clean() {
    // The same gate CI applies: the real tree must carry zero findings.
    // (A fix or a justified annotation, never an unexplained exception.)
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels under the root")
        .to_path_buf();
    assert!(
        root.join("Cargo.toml").exists(),
        "not a workspace root: {root:?}"
    );
    let findings = scan_workspace(&root).expect("workspace scan");
    assert!(
        findings.is_empty(),
        "the tree must stay lint-clean:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
