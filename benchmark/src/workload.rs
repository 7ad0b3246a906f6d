//! What every workload shares: request descriptors that can travel
//! in-process or over the wire, the correctness gate, and the report a
//! finished run hands to `main`.

use fedval_core::adaptive::AdaptivePolicy;
use fedval_core::anytime::StoppingRule;
use fedval_core::service::{Estimator, ValuationRequest};
use fedval_serve::json::Json;
use fedval_serve::wire::estimator_name;

use crate::schema::Metrics;

/// Offset of the eight sampling seeds the accuracy search averages over:
/// `seed + 58 .. seed + 65` (100..107 at the default seed 42).
pub const EPS_SEED_OFFSET: u64 = 58;
pub const EPS_SEEDS: u64 = 8;

/// CI target no sampler can reach: a streaming request that carries it
/// runs its whole schedule on the streaming code path.
const UNREACHABLE_CI: f64 = 1e-9;

/// Which of a sampler's three code paths a request takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Classic fixed-budget run (the legacy estimator bodies).
    Fixed,
    /// Streaming fold under an unreachable CI target.
    Streaming,
    /// Neyman re-planned streaming fold, default policy.
    Adaptive,
}

/// One valuation request, independent of the transport that carries it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Spec {
    pub estimator: Estimator,
    pub budget: usize,
    pub seed: u64,
    pub mode: Mode,
}

impl Spec {
    pub fn fixed(estimator: Estimator, budget: usize, seed: u64) -> Spec {
        Spec {
            estimator,
            budget,
            seed,
            mode: Mode::Fixed,
        }
    }

    pub fn with_mode(mut self, mode: Mode) -> Spec {
        self.mode = mode;
        self
    }

    /// The in-process form.
    pub fn request(&self) -> ValuationRequest {
        let req = ValuationRequest::new(self.estimator, self.budget, self.seed);
        match self.mode {
            Mode::Fixed => req,
            Mode::Streaming => req.with_stopping(StoppingRule::ci_at_most(UNREACHABLE_CI)),
            Mode::Adaptive => req.with_adaptive(AdaptivePolicy::default()),
        }
    }

    /// The wire form (`POST /v1/value` body) of the same request.
    pub fn body(&self) -> String {
        let extra = match self.mode {
            Mode::Fixed => String::new(),
            Mode::Streaming => format!(r#","stopping":{{"ci_at_most":{UNREACHABLE_CI}}}"#),
            Mode::Adaptive => r#","adaptive":{}"#.to_string(),
        };
        format!(
            r#"{{"estimator":"{}","budget":{},"seed":{}{extra}}}"#,
            estimator_name(self.estimator),
            self.budget,
            self.seed
        )
    }

    pub fn label(&self) -> String {
        let mode = match self.mode {
            Mode::Fixed => "",
            Mode::Streaming => "+stopping",
            Mode::Adaptive => "+adaptive",
        };
        format!(
            "{}{mode} budget {} seed {}",
            estimator_name(self.estimator),
            self.budget,
            self.seed
        )
    }
}

/// The correctness gate: every operation the benchmark performs is
/// counted, and a non-2xx, an `Err`, or a value that is not bit-identical
/// to its in-process solo reference is a failed operation.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
}

impl Gate {
    /// Count one operation; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Count one operation that must reproduce `want` bit for bit.
    pub fn same_bits(&mut self, got: &[f64], want: &[f64], what: impl FnOnce() -> String) {
        let same = got.len() == want.len()
            && got
                .iter()
                .zip(want)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        self.check(same, || {
            format!("{}: values differ from the solo reference", what())
        });
    }
}

/// What a finished run reports.
pub struct Report {
    pub metrics: Metrics,
    pub gate: Gate,
    /// Workload parameters and findings for the result file (ε, ladder,
    /// γ\*, the errors visited, repetition counts, …).
    pub notes: Vec<(&'static str, Json)>,
}

/// A set-up step failed in a way that leaves nothing to measure.
pub fn fatal<T>(result: Result<T, impl std::fmt::Display>, what: &str) -> Result<T, String> {
    result.map_err(|e| format!("{what}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedval_serve::json::parse;
    use fedval_serve::wire::parse_valuation_request;

    #[test]
    fn wire_body_and_in_process_request_agree() {
        for mode in [Mode::Fixed, Mode::Streaming, Mode::Adaptive] {
            let spec = Spec::fixed(Estimator::Owen, 64, u64::MAX - 3).with_mode(mode);
            let doc = parse(&spec.body()).expect("body is JSON");
            let wired = parse_valuation_request(&doc).expect("body fits the schema");
            let direct = spec.request();
            assert_eq!(wired.estimator, direct.estimator);
            assert_eq!((wired.budget, wired.seed), (direct.budget, direct.seed));
            assert_eq!(wired.stopping, direct.stopping, "{mode:?}");
            assert_eq!(wired.adaptive, direct.adaptive, "{mode:?}");
        }
    }

    #[test]
    fn gate_counts_every_operation_and_keeps_the_first_failures() {
        let mut gate = Gate::default();
        gate.same_bits(&[1.0, -0.0], &[1.0, -0.0], || "same".into());
        gate.same_bits(&[0.0], &[-0.0], || "signed zero".into());
        gate.same_bits(&[1.0], &[1.0, 2.0], || "length".into());
        gate.check(true, String::new);
        assert_eq!((gate.attempted, gate.failed), (4, 2));
        assert!(gate.failures[0].starts_with("signed zero"));
        for i in 0..20 {
            gate.check(false, || format!("f{i}"));
        }
        assert_eq!(gate.failures.len(), 8);
        assert_eq!(gate.failed, 22);
    }
}
