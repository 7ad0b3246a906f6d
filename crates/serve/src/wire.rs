//! Wire protocol: translate HTTP/JSON requests into
//! [`ValuationRequest`]s and valuation results back into HTTP statuses
//! plus JSON bodies.
//!
//! # Request schema (`POST /v1/value`)
//!
//! ```json
//! {
//!   "estimator": "stratified_mc",        // required, see table below
//!   "budget": 30,                        // optional, default 0; see below
//!   "seed": 7,                           // optional u64, default 0
//!   "clients": [0, 2, 5],                // optional sub-game subset
//!   "deadline_ms": 250.0,                // optional wall-clock deadline
//!   "max_evals": 500,                    // optional evaluation cap
//!   "on_limit": "partial",               // or "fail"; default "partial"
//!   "stopping": {"ci_at_most": 0.05,     // optional: streaming fold
//!                "max_samples": 100},    //   {} = stream-only
//!   "adaptive": {"round_size": 8,        // optional: Neyman re-planning
//!                "min_observations": 2,  //   {} = AdaptivePolicy default
//!                "floor": 1}
//! }
//! ```
//!
//! Parsing is **strict**: unknown fields anywhere in the document,
//! unknown estimator names, and type mismatches are rejected with a 400
//! before the request reaches the valuation server — a misspelled knob
//! must fail loudly, not silently run with the default.
//!
//! Estimator names: `exact_mc`, `exact_cc`, `ipss`, `stratified_mc`,
//! `stratified_cc`, `owen`, `banzhaf_pruned`, `loo`.
//!
//! What `budget` counts depends on the estimator
//! ([`ValuationRequest::budget`]): `γ` for `ipss` and `banzhaf_pruned`;
//! coalitions drawn for `stratified_mc`/`stratified_cc`, which the memo
//! dedups, so they evaluate fewer distinct coalitions; an upper bound on
//! evaluations for `owen`; nothing for `exact_*` and `loo`.
//!
//! # Status codes
//!
//! Every [`ValuationError`] variant maps onto its own status, so a
//! client can dispatch on the status line alone; the body's
//! `error.kind` field repeats the variant name for logs.
//!
//! | status | meaning | source |
//! |--------|---------|--------|
//! | 200    | complete result | success |
//! | 206    | **partial** result (deadline/budget fired under `on_limit: "partial"`; body carries `"partial": true` plus the prefix fold) | success |
//! | 400    | malformed JSON / unknown field / unknown estimator, or [`ValuationError::InvalidRequest`] | wire + service |
//! | 402    | [`ValuationError::BudgetExhausted`] (`on_limit: "fail"`) | service |
//! | 404    | unknown path | wire |
//! | 405    | method not allowed on this path | wire |
//! | 411    | body-bearing request without `Content-Length` | wire |
//! | 413    | body larger than the configured cap | wire |
//! | 429    | admission control: too many requests in flight (`Retry-After` header set) | wire |
//! | 431    | request head larger than the configured cap | wire |
//! | 500    | [`ValuationError::EstimatorPanicked`] | service |
//! | 502    | [`ValuationError::UtilityPanicked`] | service |
//! | 503    | [`ValuationError::ServerShutdown`] (drain in progress) | service |
//! | 504    | [`ValuationError::DeadlineExceeded`] (`on_limit: "fail"`) | service |
//! | 520    | [`ValuationError::WorkerLost`] | service |
//!
//! The conformance suite (`tests/tests/wire_protocol.rs`) pins this
//! table: one test case per variant, asserting the status and the
//! serialized error body.

use std::time::Duration;

use fedval_core::adaptive::AdaptivePolicy;
use fedval_core::anytime::{ProgressSnapshot, StoppingRule};
use fedval_core::coalition::Coalition;
use fedval_core::service::{
    Estimator, LimitPolicy, RunStats, ServiceStats, ValuationError, ValuationRequest,
    ValuationResponse,
};

use crate::json::{Json, Num};

/// A schema violation found while translating a wire request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchemaError {
    /// What was wrong (field, expectation).
    pub detail: String,
}

impl SchemaError {
    fn new(detail: impl Into<String>) -> SchemaError {
        SchemaError {
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.detail)
    }
}

impl std::error::Error for SchemaError {}

/// Estimator names as they appear on the wire, paired with the enum.
pub const ESTIMATOR_NAMES: &[(&str, Estimator)] = &[
    ("exact_mc", Estimator::ExactMc),
    ("exact_cc", Estimator::ExactCc),
    ("ipss", Estimator::Ipss),
    ("stratified_mc", Estimator::StratifiedMc),
    ("stratified_cc", Estimator::StratifiedCc),
    ("owen", Estimator::Owen),
    ("banzhaf_pruned", Estimator::BanzhafPruned),
    ("loo", Estimator::Loo),
];

fn estimator_from_name(name: &str) -> Option<Estimator> {
    ESTIMATOR_NAMES
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, e)| e)
}

/// The wire name of an estimator.
pub fn estimator_name(e: Estimator) -> &'static str {
    match ESTIMATOR_NAMES.iter().find(|&&(_, v)| v == e) {
        Some(&(n, _)) => n,
        None => unreachable!("every Estimator variant is in ESTIMATOR_NAMES"),
    }
}

fn check_known_fields(obj: &Json, allowed: &[&str], ctx: &str) -> Result<(), SchemaError> {
    for key in obj.keys() {
        if !allowed.contains(&key) {
            return Err(SchemaError::new(format!(
                "unknown field `{key}` in {ctx} (allowed: {})",
                allowed.join(", ")
            )));
        }
    }
    Ok(())
}

fn field_u64(obj: &Json, key: &str) -> Result<Option<u64>, SchemaError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            SchemaError::new(format!("field `{key}` must be a non-negative integer"))
        }),
    }
}

fn field_usize(obj: &Json, key: &str) -> Result<Option<usize>, SchemaError> {
    Ok(field_u64(obj, key)?.map(|x| x as usize))
}

fn field_f64(obj: &Json, key: &str) -> Result<Option<f64>, SchemaError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => match v.as_f64() {
            Some(x) if x.is_finite() && x >= 0.0 => Ok(Some(x)),
            _ => Err(SchemaError::new(format!(
                "field `{key}` must be a finite non-negative number"
            ))),
        },
    }
}

/// Translate a parsed JSON document into a [`ValuationRequest`].
pub fn parse_valuation_request(doc: &Json) -> Result<ValuationRequest, SchemaError> {
    if !matches!(doc, Json::Obj(_)) {
        return Err(SchemaError::new("request body must be a JSON object"));
    }
    check_known_fields(
        doc,
        &[
            "estimator",
            "budget",
            "seed",
            "clients",
            "deadline_ms",
            "max_evals",
            "on_limit",
            "stopping",
            "adaptive",
        ],
        "the request",
    )?;
    let estimator_name = doc
        .get("estimator")
        .and_then(Json::as_str)
        .ok_or_else(|| SchemaError::new("field `estimator` (string) is required"))?;
    let estimator = estimator_from_name(estimator_name).ok_or_else(|| {
        SchemaError::new(format!(
            "unknown estimator `{estimator_name}` (known: {})",
            ESTIMATOR_NAMES
                .iter()
                .map(|&(n, _)| n)
                .collect::<Vec<_>>()
                .join(", ")
        ))
    })?;
    let mut req = ValuationRequest::new(
        estimator,
        field_usize(doc, "budget")?.unwrap_or(0),
        field_u64(doc, "seed")?.unwrap_or(0),
    );
    if let Some(clients) = doc.get("clients") {
        if !clients.is_null() {
            let members = clients
                .as_array()
                .ok_or_else(|| SchemaError::new("field `clients` must be an array of indices"))?;
            let mut subset = Vec::with_capacity(members.len());
            for m in members {
                let idx = m.as_usize().ok_or_else(|| {
                    SchemaError::new("field `clients` must contain non-negative integers")
                })?;
                if idx >= 128 {
                    return Err(SchemaError::new(format!(
                        "client index {idx} out of range (coalitions hold at most 128 clients)"
                    )));
                }
                subset.push(idx);
            }
            req = req.for_clients(Coalition::from_members(subset));
        }
    }
    if let Some(ms) = field_f64(doc, "deadline_ms")? {
        req = req.with_deadline(Duration::from_secs_f64(ms / 1e3));
    }
    if let Some(cap) = field_usize(doc, "max_evals")? {
        req = req.with_max_evals(cap);
    }
    match doc.get("on_limit").and_then(Json::as_str) {
        None => {
            if doc.get("on_limit").is_some_and(|v| !v.is_null()) {
                return Err(SchemaError::new(
                    "field `on_limit` must be \"partial\" or \"fail\"",
                ));
            }
        }
        Some("partial") => req = req.on_limit(LimitPolicy::Partial),
        Some("fail") => req = req.on_limit(LimitPolicy::Fail),
        Some(other) => {
            return Err(SchemaError::new(format!(
                "field `on_limit` must be \"partial\" or \"fail\", got `{other}`"
            )))
        }
    }
    if let Some(stopping) = doc.get("stopping") {
        if !stopping.is_null() {
            if !matches!(stopping, Json::Obj(_)) {
                return Err(SchemaError::new("field `stopping` must be an object"));
            }
            check_known_fields(stopping, &["ci_at_most", "max_samples"], "`stopping`")?;
            let mut rule = StoppingRule::stream_only();
            if let Some(eps) = field_f64(stopping, "ci_at_most")? {
                rule = rule.and_ci_at_most(eps);
            }
            if let Some(m) = field_usize(stopping, "max_samples")? {
                rule = rule.and_max_samples(m);
            }
            req = req.with_stopping(rule);
        }
    }
    if let Some(adaptive) = doc.get("adaptive") {
        if !adaptive.is_null() {
            if !matches!(adaptive, Json::Obj(_)) {
                return Err(SchemaError::new("field `adaptive` must be an object"));
            }
            check_known_fields(
                adaptive,
                &["round_size", "min_observations", "floor"],
                "`adaptive`",
            )?;
            let mut policy = AdaptivePolicy::default();
            if let Some(r) = field_usize(adaptive, "round_size")? {
                policy.round_size = Some(r);
            }
            if let Some(m) = field_usize(adaptive, "min_observations")? {
                policy.min_observations = m;
            }
            if let Some(f) = field_usize(adaptive, "floor")? {
                policy.floor = f;
            }
            req = req.with_adaptive(policy);
        }
    }
    Ok(req)
}

/// The documented status for a [`ValuationError`] variant (see the
/// [module docs](self) table). Statuses are pairwise distinct — the
/// conformance suite asserts it.
pub fn error_status(err: &ValuationError) -> u16 {
    match err {
        ValuationError::InvalidRequest { .. } => 400,
        ValuationError::BudgetExhausted { .. } => 402,
        ValuationError::EstimatorPanicked { .. } => 500,
        ValuationError::UtilityPanicked { .. } => 502,
        ValuationError::ServerShutdown => 503,
        ValuationError::DeadlineExceeded { .. } => 504,
        ValuationError::WorkerLost => 520,
    }
}

/// The `error.kind` string of a [`ValuationError`] variant.
pub fn error_kind(err: &ValuationError) -> &'static str {
    match err {
        ValuationError::UtilityPanicked { .. } => "utility_panicked",
        ValuationError::EstimatorPanicked { .. } => "estimator_panicked",
        ValuationError::InvalidRequest { .. } => "invalid_request",
        ValuationError::DeadlineExceeded { .. } => "deadline_exceeded",
        ValuationError::BudgetExhausted { .. } => "budget_exhausted",
        ValuationError::ServerShutdown => "server_shutdown",
        ValuationError::WorkerLost => "worker_lost",
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Encode a [`ValuationError`] as `(status, body)`. The body nests the
/// variant's payload under `error` so clients can log a structured
/// record: `{"error": {"kind": ..., "detail": ..., ...}}`.
pub fn encode_error(err: &ValuationError) -> (u16, Json) {
    let mut fields: Vec<(&'static str, Json)> = vec![("kind", Json::str(error_kind(err)))];
    match err {
        ValuationError::UtilityPanicked { attempts, detail } => {
            fields.push(("detail", Json::str(detail.clone())));
            fields.push(("attempts", Json::Num(Num::U64(*attempts as u64))));
        }
        ValuationError::EstimatorPanicked { detail }
        | ValuationError::InvalidRequest { detail } => {
            fields.push(("detail", Json::str(detail.clone())));
        }
        ValuationError::DeadlineExceeded { deadline, elapsed } => {
            fields.push(("detail", Json::str(err.to_string())));
            fields.push(("deadline_ms", Json::f64(ms(*deadline))));
            fields.push(("elapsed_ms", Json::f64(ms(*elapsed))));
        }
        ValuationError::BudgetExhausted {
            consumed,
            max_evals,
            next_batch,
        } => {
            fields.push(("detail", Json::str(err.to_string())));
            fields.push(("consumed", Json::Num(Num::U64(*consumed as u64))));
            fields.push(("max_evals", Json::Num(Num::U64(*max_evals as u64))));
            fields.push(("next_batch", Json::Num(Num::U64(*next_batch as u64))));
        }
        ValuationError::ServerShutdown | ValuationError::WorkerLost => {
            fields.push(("detail", Json::str(err.to_string())));
        }
    }
    let status = error_status(err);
    (
        status,
        Json::obj([
            ("error", Json::obj(fields)),
            ("status", Json::Num(Num::U64(status as u64))),
        ]),
    )
}

/// A wire-level (pre-service) failure body: same shape as
/// [`encode_error`], with wire-only kinds (`malformed_json`,
/// `bad_request`, `saturated`, …).
pub fn wire_error_body(status: u16, kind: &str, detail: String) -> Json {
    Json::obj([
        (
            "error",
            Json::obj([("kind", Json::str(kind)), ("detail", Json::str(detail))]),
        ),
        ("status", Json::Num(Num::U64(status as u64))),
    ])
}

fn encode_snapshot(s: &ProgressSnapshot) -> Json {
    Json::obj([
        ("values", Json::f64_array(&s.values)),
        ("ci_halfwidths", Json::f64_array(&s.ci_halfwidths)),
        ("samples_used", Json::Num(Num::U64(s.samples_used as u64))),
        ("batches_done", Json::Num(Num::U64(s.batches_done as u64))),
        (
            "allocation",
            match &s.allocation {
                Some(a) => Json::usize_array(a),
                None => Json::Null,
            },
        ),
    ])
}

fn encode_run_stats(r: &RunStats) -> Json {
    Json::obj([
        ("batches", Json::Num(Num::U64(r.batches as u64))),
        ("coalitions", Json::Num(Num::U64(r.coalitions as u64))),
        (
            "coalesced_batches",
            Json::Num(Num::U64(r.coalesced_batches as u64)),
        ),
        ("partial", Json::Bool(r.partial)),
        ("stopped_early", Json::Bool(r.stopped_early)),
        ("retries", Json::Num(Num::U64(r.retries as u64))),
        ("park_wait_max_ms", Json::f64(ms(r.park_wait_max))),
    ])
}

/// Encode cumulative [`ServiceStats`] (the `service` field of value
/// responses, and the whole body of `GET /v1/stats`).
pub fn encode_service_stats(s: &ServiceStats) -> Json {
    let mut fields: Vec<(&'static str, Json)> = vec![
        ("requests", Json::Num(Num::U64(s.requests as u64))),
        ("flushes", Json::Num(Num::U64(s.flushes as u64))),
        (
            "merged_batches",
            Json::Num(Num::U64(s.merged_batches as u64)),
        ),
        (
            "failed_flushes",
            Json::Num(Num::U64(s.failed_flushes as u64)),
        ),
        ("retries", Json::Num(Num::U64(s.retries as u64))),
        (
            "distinct_coalitions",
            Json::Num(Num::U64(s.distinct_coalitions as u64)),
        ),
        (
            "evaluations",
            Json::Num(Num::U64(s.eval.evaluations as u64)),
        ),
        ("lookups", Json::Num(Num::U64(s.eval.lookups as u64))),
    ];
    if let Some(traj) = &s.traj {
        fields.push((
            "traj",
            Json::obj([
                ("probes", Json::Num(Num::U64(traj.probes as u64))),
                ("hits", Json::Num(Num::U64(traj.hits as u64))),
                (
                    "local_trainings",
                    Json::Num(Num::U64(traj.local_trainings as u64)),
                ),
                ("entries", Json::Num(Num::U64(traj.entries as u64))),
                ("bytes", Json::Num(Num::U64(traj.bytes as u64))),
                ("evictions", Json::Num(Num::U64(traj.evictions as u64))),
            ]),
        ));
    }
    Json::obj(fields)
}

/// Encode a successful [`ValuationResponse`] as `(status, body)`:
/// **200** for a complete result, **206 Partial Content** when the run's
/// deadline or evaluation budget fired and the values are the
/// bit-reproducible partial-prefix fold (`"partial": true`, with the
/// run's `RunStats` and any allocation trace alongside).
pub fn encode_response(resp: &ValuationResponse) -> (u16, Json) {
    let status = if resp.run.partial { 206 } else { 200 };
    let body = Json::obj([
        (
            "estimator",
            Json::str(estimator_name(resp.request.estimator)),
        ),
        ("clients", Json::usize_array(&resp.clients)),
        ("values", Json::f64_array(&resp.values)),
        ("partial", Json::Bool(resp.run.partial)),
        ("stopped_early", Json::Bool(resp.run.stopped_early)),
        ("wall_time_ms", Json::f64(ms(resp.wall_time))),
        ("run", encode_run_stats(&resp.run)),
        ("service", encode_service_stats(&resp.service)),
        (
            "progress",
            match &resp.progress {
                Some(s) => encode_snapshot(s),
                None => Json::Null,
            },
        ),
    ]);
    (status, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn full_request_surface_round_trips() {
        let doc = parse(
            r#"{"estimator":"stratified_mc","budget":48,"seed":18446744073709551615,
                "clients":[1,3,4],"deadline_ms":250.5,"max_evals":100,
                "on_limit":"fail",
                "stopping":{"ci_at_most":0.05,"max_samples":64},
                "adaptive":{"round_size":8,"min_observations":3,"floor":2}}"#,
        )
        .unwrap();
        let req = parse_valuation_request(&doc).unwrap();
        assert_eq!(req.estimator, Estimator::StratifiedMc);
        assert_eq!(req.budget, 48);
        assert_eq!(req.seed, u64::MAX);
        assert_eq!(req.clients, Some(Coalition::from_members([1, 3, 4])));
        assert_eq!(req.deadline, Some(Duration::from_secs_f64(0.2505)));
        assert_eq!(req.max_evals, Some(100));
        assert_eq!(req.on_limit, LimitPolicy::Fail);
        let rule = req.stopping.unwrap();
        assert_eq!(rule.ci_at_most, Some(0.05));
        assert_eq!(rule.max_samples, Some(64));
        let policy = req.adaptive.unwrap();
        assert_eq!(policy.round_size, Some(8));
        assert_eq!(policy.min_observations, 3);
        assert_eq!(policy.floor, 2);
    }

    #[test]
    fn minimal_request_defaults() {
        let req = parse_valuation_request(&parse(r#"{"estimator":"loo"}"#).unwrap()).unwrap();
        assert_eq!(req.estimator, Estimator::Loo);
        assert_eq!(req.budget, 0);
        assert_eq!(req.seed, 0);
        assert!(req.clients.is_none());
        assert!(req.stopping.is_none());
        assert!(req.adaptive.is_none());
        assert_eq!(req.on_limit, LimitPolicy::Partial);
    }

    #[test]
    fn unknown_fields_and_estimators_are_rejected() {
        for doc in [
            r#"{"estimator":"loo","bugdet":3}"#,
            r#"{"estimator":"shapley"}"#,
            r#"{"budget":3}"#,
            r#"{"estimator":"loo","stopping":{"ci":0.1}}"#,
            r#"{"estimator":"loo","adaptive":{"rounds":2}}"#,
            r#"{"estimator":"loo","seed":-1}"#,
            r#"{"estimator":"loo","seed":1.5}"#,
            r#"{"estimator":"loo","seed":18446744073709551616}"#,
            r#"{"estimator":"loo","clients":"all"}"#,
            r#"{"estimator":"loo","clients":[200]}"#,
            r#"{"estimator":"loo","on_limit":"explode"}"#,
            r#"{"estimator":"loo","deadline_ms":-4}"#,
            r#"{"estimator":"loo","deadline_ms":"Infinity"}"#,
            r#"[1,2,3]"#,
        ] {
            let parsed = parse(doc).unwrap();
            assert!(
                parse_valuation_request(&parsed).is_err(),
                "doc {doc} must be rejected"
            );
        }
    }

    #[test]
    fn every_estimator_name_is_distinct_and_round_trips() {
        for &(name, est) in ESTIMATOR_NAMES {
            assert_eq!(estimator_from_name(name), Some(est));
            assert_eq!(estimator_name(est), name);
        }
        assert_eq!(ESTIMATOR_NAMES.len(), 8);
    }

    #[test]
    fn error_statuses_are_pairwise_distinct() {
        let variants = [
            ValuationError::UtilityPanicked {
                attempts: 3,
                detail: "boom".to_string(),
            },
            ValuationError::EstimatorPanicked {
                detail: "boom".to_string(),
            },
            ValuationError::InvalidRequest {
                detail: "bad".to_string(),
            },
            ValuationError::DeadlineExceeded {
                deadline: Duration::from_millis(5),
                elapsed: Duration::from_millis(6),
            },
            ValuationError::BudgetExhausted {
                consumed: 3,
                max_evals: 4,
                next_batch: 2,
            },
            ValuationError::ServerShutdown,
            ValuationError::WorkerLost,
        ];
        let statuses: Vec<u16> = variants.iter().map(error_status).collect();
        let mut dedup = statuses.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), variants.len(), "statuses: {statuses:?}");
        for (v, s) in variants.iter().zip(&statuses) {
            let (status, body) = encode_error(v);
            assert_eq!(status, *s);
            assert_eq!(
                body.get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(Json::as_str),
                Some(error_kind(v))
            );
        }
    }
}
