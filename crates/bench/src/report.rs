//! Machine-readable experiment reports: every bench target can export its
//! rows as JSON for downstream plotting/regression-tracking, alongside the
//! human-readable tables.
//!
//! Set `FEDVAL_JSON=<dir>` to make [`ExperimentReport::maybe_write`] drop
//! one JSON file per experiment into `<dir>`.

use std::io::Write as _;
use std::path::PathBuf;

use fedval_serve::json::{Json, Num};

/// One algorithm's measurement within an experiment cell.
#[derive(Clone, Debug, PartialEq)]
pub struct Measurement {
    pub algorithm: String,
    /// Wall-clock or τ-model seconds, depending on the experiment.
    pub seconds: f64,
    /// `l2` relative error (Eq. 21); `None` for exact methods.
    pub error: Option<f64>,
    /// Distinct utility evaluations, when the notion applies.
    pub evaluations: Option<usize>,
}

/// A full experiment report (one bench target / one paper artefact).
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentReport {
    /// Identifier matching the paper artefact, e.g. "table4".
    pub experiment: String,
    /// Free-form configuration description (model, n, γ, setup…).
    pub config: String,
    pub seed: u64,
    pub measurements: Vec<Measurement>,
}

impl ExperimentReport {
    pub fn new(experiment: &str, config: &str, seed: u64) -> Self {
        ExperimentReport {
            experiment: experiment.to_string(),
            config: config.to_string(),
            seed,
            measurements: Vec::new(),
        }
    }

    pub fn push(
        &mut self,
        algorithm: &str,
        seconds: f64,
        error: Option<f64>,
        evaluations: Option<usize>,
    ) {
        self.measurements.push(Measurement {
            algorithm: algorithm.to_string(),
            seconds,
            error,
            evaluations,
        });
    }

    /// Serialise to a JSON string (one line, via the wire's encoder).
    /// Non-finite seconds and absent errors/evaluations encode as `null`.
    pub fn to_json(&self) -> String {
        let finite = |x: f64| {
            if x.is_finite() {
                Json::f64(x)
            } else {
                Json::Null
            }
        };
        let count = |c: usize| Json::Num(Num::U64(c as u64));
        let measurements = self.measurements.iter().map(|m| {
            Json::obj([
                ("algorithm", Json::str(&m.algorithm)),
                ("seconds", finite(m.seconds)),
                ("error", m.error.map_or(Json::Null, finite)),
                ("evaluations", m.evaluations.map_or(Json::Null, count)),
            ])
        });
        let mut out = Json::obj([
            ("experiment", Json::str(&self.experiment)),
            ("config", Json::str(&self.config)),
            ("seed", Json::Num(Num::U64(self.seed))),
            ("measurements", Json::Arr(measurements.collect())),
        ])
        .encode();
        out.push('\n');
        out
    }

    /// Write `<dir>/<experiment>_<suffix>.json` when `FEDVAL_JSON=<dir>` is
    /// set; silently a no-op otherwise. Returns the path written to.
    pub fn maybe_write(&self, suffix: &str) -> Option<PathBuf> {
        let dir = std::env::var_os("FEDVAL_JSON")?;
        let dir = PathBuf::from(dir);
        std::fs::create_dir_all(&dir).ok()?;
        let path = dir.join(format!("{}_{suffix}.json", self.experiment));
        let mut file = std::fs::File::create(&path).ok()?;
        file.write_all(self.to_json().as_bytes()).ok()?;
        Some(path)
    }
}

#[cfg(test)]
// Tests assert invariants; an unwrap that trips IS the test failing.
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn sample_report() -> ExperimentReport {
        let mut r = ExperimentReport::new("table4", "FEMNIST/MLP/n=10", 42);
        r.push("IPSS", 0.14, Some(0.1567), Some(32));
        r.push("MC-Shap.", 12.08, None, Some(1024));
        r
    }

    #[test]
    fn json_round_trip_structure() {
        let r = sample_report();
        let json = r.to_json();
        assert!(json.contains("\"experiment\":\"table4\""));
        assert!(json.contains("\"algorithm\":\"IPSS\""));
        assert!(json.contains("\"error\":null"));
        assert!(json.contains("\"evaluations\":1024"));
        // Balanced braces/brackets.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_escapes_special_characters() {
        let mut r = ExperimentReport::new("x", "quote \" backslash \\ newline \n", 1);
        r.push("λ-MR", f64::INFINITY, Some(0.5), None);
        let json = r.to_json();
        assert!(json.contains("\\\""));
        assert!(json.contains("\\\\"));
        assert!(json.contains("\\n"));
        assert!(json.contains("\"seconds\":null"), "{json}");
    }

    #[test]
    fn maybe_write_respects_env() {
        // Without FEDVAL_JSON set the write is a no-op.
        std::env::remove_var("FEDVAL_JSON");
        assert!(sample_report().maybe_write("test").is_none());
        // With it set, the file appears.
        let dir = std::env::temp_dir().join("fedval_json_test");
        std::env::set_var("FEDVAL_JSON", &dir);
        let path = sample_report().maybe_write("unit").expect("write");
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("table4"));
        std::env::remove_var("FEDVAL_JSON");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn reports_are_cloneable_and_comparable() {
        let r = sample_report();
        let copy = r.clone();
        assert_eq!(r, copy);
    }
}
