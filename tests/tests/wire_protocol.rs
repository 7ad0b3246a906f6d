//! Wire-conformance suite for `fedval-serve`: golden request/response
//! fixtures covering every estimator variant (plus streaming, adaptive,
//! sub-game and partial-response requests), and a table-driven test
//! pinning each [`ValuationError`] variant to its documented status code
//! and serialized error body.
//!
//! Fixtures live in `tests/wire_fixtures/*.json` as
//! `{"request": …, "status": …, "response": …}` documents with the
//! timing-dependent fields (`wall_time_ms`, `park_wait_max_ms`)
//! normalized to `null`. They are generated against
//! `HashUtility { n: 6, seed: 42 }`, whose values are independent of the
//! CI matrix axes (threads, trajectory cache), so the
//! same goldens hold in every cell. Regenerate after an intentional
//! schema change with `FEDVAL_REGEN_WIRE_FIXTURES=1 cargo test -p
//! fedval-tests --test wire_protocol`.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "helpers outside #[test] functions: a failed setup panics, which is the test failing"
)]

use std::time::Duration;

use fedval_core::service::{ValuationError, ValuationServer};
use fedval_core::utility::HashUtility;
use fedval_serve::http::Client;
use fedval_serve::json::{parse, Json};
use fedval_serve::wire::{encode_error, error_kind, error_status, ESTIMATOR_NAMES};
use fedval_serve::{WireConfig, WireServer};

/// The matrix-stable utility every fixture is generated against.
fn golden_server() -> WireServer<HashUtility> {
    let valuation = ValuationServer::start(HashUtility { n: 6, seed: 42 });
    WireServer::start(valuation, WireConfig::default()).expect("bind")
}

fn fixture_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("wire_fixtures")
}

/// Replace timing-dependent leaves with `null`, recursively, so goldens
/// compare structurally.
fn normalize(v: &mut Json) {
    match v {
        Json::Obj(pairs) => {
            for (k, val) in pairs.iter_mut() {
                if k == "wall_time_ms" || k == "park_wait_max_ms" {
                    *val = Json::Null;
                } else {
                    normalize(val);
                }
            }
        }
        Json::Arr(items) => {
            for item in items.iter_mut() {
                normalize(item);
            }
        }
        _ => {}
    }
}

/// The golden request set: one per estimator, plus the request-surface
/// corners (sub-game subset, streaming stop, adaptive allocation,
/// budget-capped partial).
fn golden_requests() -> Vec<(&'static str, String)> {
    vec![
        ("exact_mc", r#"{"estimator":"exact_mc","seed":1}"#.into()),
        ("exact_cc", r#"{"estimator":"exact_cc","seed":1}"#.into()),
        ("loo", r#"{"estimator":"loo"}"#.into()),
        (
            "ipss",
            r#"{"estimator":"ipss","budget":20,"seed":7}"#.into(),
        ),
        (
            "stratified_mc",
            r#"{"estimator":"stratified_mc","budget":30,"seed":7}"#.into(),
        ),
        (
            "stratified_cc",
            r#"{"estimator":"stratified_cc","budget":30,"seed":7}"#.into(),
        ),
        (
            "owen",
            r#"{"estimator":"owen","budget":56,"seed":7}"#.into(),
        ),
        (
            "banzhaf_pruned",
            r#"{"estimator":"banzhaf_pruned","budget":16,"seed":7}"#.into(),
        ),
        (
            "subgame",
            r#"{"estimator":"stratified_mc","budget":24,"seed":9,"clients":[1,3,5]}"#.into(),
        ),
        (
            "streaming_stop",
            r#"{"estimator":"stratified_mc","budget":60,"seed":11,"stopping":{"max_samples":24}}"#
                .into(),
        ),
        (
            "adaptive",
            r#"{"estimator":"stratified_mc","budget":24,"seed":13,"adaptive":{}}"#.into(),
        ),
        (
            "partial_budget",
            r#"{"estimator":"exact_mc","seed":1,"max_evals":16,"on_limit":"partial"}"#.into(),
        ),
    ]
}

#[test]
fn golden_fixtures_cover_every_estimator_and_match() {
    let requests = golden_requests();
    // Every estimator name appears in the fixture set.
    for &(name, _) in ESTIMATOR_NAMES {
        assert!(
            requests.iter().any(|(_, body)| body.contains(name)),
            "estimator {name} has no golden fixture"
        );
    }
    let regen = std::env::var("FEDVAL_REGEN_WIRE_FIXTURES").is_ok();
    let dir = fixture_dir();
    if regen {
        std::fs::create_dir_all(&dir).expect("create fixture dir");
    }
    for (name, body) in requests {
        // A fresh server per fixture keeps the cumulative `service`
        // stats deterministic.
        let wire = golden_server();
        let mut client = Client::connect(wire.addr()).expect("connect");
        let resp = client.post("/v1/value", &body).expect("roundtrip");
        let mut actual = resp.json().unwrap_or_else(|e| {
            panic!("fixture {name}: response is not JSON ({e})");
        });
        normalize(&mut actual);
        let path = dir.join(format!("{name}.json"));
        if regen {
            let doc = Json::obj([
                ("request", parse(&body).expect("fixture request parses")),
                (
                    "status",
                    Json::Num(fedval_serve::json::Num::U64(resp.status as u64)),
                ),
                ("response", actual.clone()),
            ]);
            std::fs::write(&path, doc.encode()).expect("write fixture");
            wire.shutdown();
            continue;
        }
        let golden_text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("fixture {name}: read {path:?} failed ({e}); regenerate with FEDVAL_REGEN_WIRE_FIXTURES=1"));
        let golden = parse(&golden_text).expect("fixture parses");
        assert_eq!(
            golden.get("status").and_then(Json::as_u64),
            Some(resp.status as u64),
            "fixture {name}: status drifted"
        );
        let mut expected = golden
            .get("response")
            .expect("fixture has response")
            .clone();
        normalize(&mut expected);
        assert_eq!(
            actual.encode(),
            expected.encode(),
            "fixture {name}: response drifted"
        );
        wire.shutdown();
    }
}

// ---------------------------------------------------------------------
// The error table: every ValuationError variant → a distinct documented
// status and a serialized body carrying the variant's payload.
// ---------------------------------------------------------------------

#[test]
fn every_valuation_error_variant_maps_to_its_documented_status() {
    let table: Vec<(ValuationError, u16, &str)> = vec![
        (
            ValuationError::InvalidRequest {
                detail: "client 9 out of range".into(),
            },
            400,
            "invalid_request",
        ),
        (
            ValuationError::BudgetExhausted {
                consumed: 12,
                max_evals: 16,
                next_batch: 8,
            },
            402,
            "budget_exhausted",
        ),
        (
            ValuationError::EstimatorPanicked {
                detail: "γ must be positive".into(),
            },
            500,
            "estimator_panicked",
        ),
        (
            ValuationError::UtilityPanicked {
                attempts: 3,
                detail: "injected fault".into(),
            },
            502,
            "utility_panicked",
        ),
        (ValuationError::ServerShutdown, 503, "server_shutdown"),
        (
            ValuationError::DeadlineExceeded {
                deadline: Duration::from_millis(10),
                elapsed: Duration::from_millis(12),
            },
            504,
            "deadline_exceeded",
        ),
        (ValuationError::WorkerLost, 520, "worker_lost"),
    ];
    // The table is exhaustive: a new variant fails this match.
    for (err, _, _) in &table {
        match err {
            ValuationError::InvalidRequest { .. }
            | ValuationError::BudgetExhausted { .. }
            | ValuationError::EstimatorPanicked { .. }
            | ValuationError::UtilityPanicked { .. }
            | ValuationError::ServerShutdown
            | ValuationError::DeadlineExceeded { .. }
            | ValuationError::WorkerLost => {}
        }
    }
    let mut seen = Vec::new();
    for (err, status, kind) in &table {
        assert_eq!(error_status(err), *status, "{kind}");
        assert_eq!(error_kind(err), *kind);
        assert!(!seen.contains(status), "status {status} reused");
        seen.push(*status);
        let (s, body) = encode_error(err);
        assert_eq!(s, *status);
        assert_eq!(
            body.get("status").and_then(Json::as_u64),
            Some(*status as u64)
        );
        let error = body.get("error").expect("body nests under `error`");
        assert_eq!(error.get("kind").and_then(Json::as_str), Some(*kind));
        assert!(
            error.get("detail").and_then(Json::as_str).is_some(),
            "{kind}: every error carries a human-readable detail"
        );
    }
    // Variant payloads survive serialization.
    let (_, body) = encode_error(&ValuationError::BudgetExhausted {
        consumed: 12,
        max_evals: 16,
        next_batch: 8,
    });
    let error = body.get("error").unwrap();
    assert_eq!(error.get("consumed").and_then(Json::as_u64), Some(12));
    assert_eq!(error.get("max_evals").and_then(Json::as_u64), Some(16));
    assert_eq!(error.get("next_batch").and_then(Json::as_u64), Some(8));
    let (_, body) = encode_error(&ValuationError::DeadlineExceeded {
        deadline: Duration::from_millis(10),
        elapsed: Duration::from_millis(12),
    });
    let error = body.get("error").unwrap();
    assert_eq!(error.get("deadline_ms").and_then(Json::as_f64), Some(10.0));
    assert_eq!(error.get("elapsed_ms").and_then(Json::as_f64), Some(12.0));
    let (_, body) = encode_error(&ValuationError::UtilityPanicked {
        attempts: 3,
        detail: "injected fault".into(),
    });
    assert_eq!(
        body.get("error")
            .unwrap()
            .get("attempts")
            .and_then(Json::as_u64),
        Some(3)
    );
}

// ---------------------------------------------------------------------
// The triggerable variants, end to end over the socket.
// ---------------------------------------------------------------------

#[test]
fn service_errors_surface_with_their_documented_status_over_the_wire() {
    let wire = golden_server();
    let mut client = Client::connect(wire.addr()).expect("connect");
    // InvalidRequest → 400: client index past n = 6.
    let resp = client
        .post("/v1/value", r#"{"estimator":"loo","clients":[0,9]}"#)
        .expect("roundtrip");
    assert_eq!(resp.status, 400, "{}", String::from_utf8_lossy(&resp.body));
    assert_eq!(
        resp.json()
            .unwrap()
            .get("error")
            .unwrap()
            .get("kind")
            .and_then(Json::as_str),
        Some("invalid_request")
    );
    // BudgetExhausted → 402: a 1-eval cap the exact sweep must blow
    // through, with on_limit=fail.
    let resp = client
        .post(
            "/v1/value",
            r#"{"estimator":"exact_mc","seed":1,"max_evals":1,"on_limit":"fail"}"#,
        )
        .expect("roundtrip");
    assert_eq!(resp.status, 402, "{}", String::from_utf8_lossy(&resp.body));
    let body = resp.json().unwrap();
    assert_eq!(
        body.get("error")
            .unwrap()
            .get("kind")
            .and_then(Json::as_str),
        Some("budget_exhausted")
    );
    assert_eq!(
        body.get("error")
            .unwrap()
            .get("max_evals")
            .and_then(Json::as_u64),
        Some(1)
    );
    // InvalidRequest → 400: IPSS and pruned Banzhaf need γ ≥ 1, checked
    // before the run instead of tripping the constructors' asserts (500).
    for estimator in ["ipss", "banzhaf_pruned"] {
        let body = format!(r#"{{"estimator":"{estimator}","budget":0,"seed":1}}"#);
        let resp = client.post("/v1/value", &body).expect("roundtrip");
        assert_eq!(resp.status, 400, "{}", String::from_utf8_lossy(&resp.body));
        assert_eq!(
            resp.json()
                .unwrap()
                .get("error")
                .unwrap()
                .get("kind")
                .and_then(Json::as_str),
            Some("invalid_request")
        );
    }
    // DeadlineExceeded → 504: an already-expired deadline with
    // on_limit=fail fires at the first batch boundary.
    let resp = client
        .post(
            "/v1/value",
            r#"{"estimator":"stratified_mc","budget":30,"seed":7,"deadline_ms":0,"on_limit":"fail"}"#,
        )
        .expect("roundtrip");
    assert_eq!(resp.status, 504, "{}", String::from_utf8_lossy(&resp.body));
    assert_eq!(
        resp.json()
            .unwrap()
            .get("error")
            .unwrap()
            .get("kind")
            .and_then(Json::as_str),
        Some("deadline_exceeded")
    );
    // ServerShutdown → 503: drain began, new work is refused (the
    // connection still gets its typed answer).
    wire.begin_shutdown();
    let resp = client
        .post("/v1/value", r#"{"estimator":"loo"}"#)
        .expect("roundtrip");
    assert_eq!(resp.status, 503, "{}", String::from_utf8_lossy(&resp.body));
    assert_eq!(
        resp.json()
            .unwrap()
            .get("error")
            .unwrap()
            .get("kind")
            .and_then(Json::as_str),
        Some("server_shutdown")
    );
    wire.shutdown();
}

#[test]
fn stats_and_healthz_round_trip() {
    let wire = golden_server();
    let mut client = Client::connect(wire.addr()).expect("connect");
    let resp = client
        .post("/v1/value", r#"{"estimator":"loo"}"#)
        .expect("roundtrip");
    assert_eq!(resp.status, 200);
    let stats = client.get("/v1/stats").expect("roundtrip");
    assert_eq!(stats.status, 200);
    let body = stats.json().unwrap();
    assert_eq!(body.get("requests").and_then(Json::as_u64), Some(1));
    assert!(body.get("evaluations").and_then(Json::as_u64).unwrap_or(0) > 0);
    let health = client.get("/v1/healthz").expect("roundtrip");
    assert_eq!(health.status, 200);
    assert_eq!(
        health.json().unwrap().get("ok").and_then(|v| v.as_bool()),
        Some(true)
    );
    wire.shutdown();
}
