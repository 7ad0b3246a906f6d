//! Fixture tests for the determinism rules, and the workspace gate.
//!
//! The seed check is this crate's own: each fixture is scanned as if it
//! were library code. The other rules are clippy's, configured by the
//! workspace's `clippy.toml`: each `hash_order_*`, `wall_clock_*` and
//! `allow_*` fixture goes through `clippy-driver` as a library crate with
//! the two lints the workspace denies switched on, and the lines clippy
//! reports must be exactly the lines marked `//~`. These tests need the
//! `clippy` toolchain component.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use fedval_lint::{scan_source, scan_workspace};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture(name: &str) -> String {
    let path = fixtures().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// A library crate, checked only, with the two lints the workspace
/// denies switched on.
const CLIPPY_FLAGS: &str = "--edition=2021 --crate-type=lib --emit=metadata --error-format=short \
    -Wclippy::iter_over_hash_type -Wclippy::allow_attributes_without_reason";

/// The lines clippy reports for a fixture.
fn clippy_lines(name: &str) -> BTreeSet<u32> {
    let output = Command::new("clippy-driver")
        .current_dir(fixtures())
        .env("CLIPPY_CONF_DIR", root())
        .args(CLIPPY_FLAGS.split_whitespace())
        .args(["--out-dir", env!("CARGO_TARGET_TMPDIR"), name])
        .output()
        .unwrap_or_else(|e| panic!("clippy-driver (rustup component add clippy): {e}"));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{name}:\n{stderr}");
    let prefix = format!("{name}:");
    stderr
        .lines()
        .filter_map(|l| l.strip_prefix(&prefix)?.split(':').next()?.parse().ok())
        .collect()
}

/// Clippy must report exactly the fixture lines that end in `//~`.
fn check_clippy(name: &str) {
    let marked: BTreeSet<u32> = (1..)
        .zip(fixture(name).lines())
        .filter(|(_, l)| l.trim_end().ends_with("//~"))
        .map(|(n, _)| n)
        .collect();
    assert_eq!(clippy_lines(name), marked, "{name}: reported, then marked");
}

// ---------------------------------------------------------------- hash-order

#[test]
fn hash_order_trips_on_order_sensitive_iteration() {
    check_clippy("hash_order_trip.rs");
}

#[test]
fn hash_order_ignores_probes_sorts_annotations_and_btree() {
    check_clippy("hash_order_ok.rs");
}

#[test]
fn hash_order_tracks_tables_with_a_custom_hasher() {
    check_clippy("hash_order_hasher_trip.rs");
}

#[test]
fn hash_order_sees_aliases_macro_bodies_and_helpers() {
    check_clippy("hash_order_blind_spots_trip.rs");
}

#[test]
fn hash_order_by_value_and_extend_stay_uncaught() {
    check_clippy("hash_order_uncaught.rs");
}

// ---------------------------------------------------------------- wall-clock

#[test]
fn wall_clock_trips_outside_the_whitelist() {
    check_clippy("wall_clock_trip.rs");
}

#[test]
fn wall_clock_passes_annotated_gauges_and_clock_values() {
    check_clippy("wall_clock_ok.rs");
}

// ------------------------------------------------------- allow-justification

#[test]
fn allow_justification_trips_on_bare_allows() {
    check_clippy("allow_trip.rs");
}

#[test]
fn allow_justification_passes_reasoned_allows() {
    check_clippy("allow_ok.rs");
}

// -------------------------------------------------------------- seed check

#[test]
fn unseeded_rng_trips_on_anonymous_seeds() {
    let findings = scan_source("fixture.rs", &fixture("unseeded_rng_trip.rs"));
    let lines: Vec<u32> = findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, [8], "{findings:?}");
}

#[test]
fn unseeded_rng_passes_seed_flow_and_annotation() {
    let findings = scan_source("fixture.rs", &fixture("unseeded_rng_ok.rs"));
    assert!(findings.is_empty(), "{findings:?}");
}

// ------------------------------------------------------------ workspace gate

#[test]
fn the_workspace_itself_is_clean() {
    // The real tree must carry zero findings: a fix or a reasoned
    // annotation, never an unexplained exception.
    let findings = scan_workspace(&root()).unwrap_or_else(|e| panic!("workspace scan: {e}"));
    let listing: Vec<String> = findings.iter().map(ToString::to_string).collect();
    assert!(findings.is_empty(), "{}", listing.join("\n"));
}
