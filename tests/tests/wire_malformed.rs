//! Adversarial wire input: truncated bodies, invalid JSON, unknown
//! estimator/field names, oversized payloads, missing framing headers,
//! and pipelined/keep-alive edge cases all come back as 4xx — and the
//! server keeps serving healthy requests afterwards, never panics.
//!
//! Set `FEDVAL_FAULTS=1` (any value) to additionally run the whole suite
//! over a [`FaultyUtility`] with seeded transient faults: retries heal
//! them, so every "still healthy" assertion holds under injected faults
//! too — CI's fault matrix cell exercises exactly that.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "helpers outside #[test] functions: a failed setup panics, which is the test failing"
)]

use std::time::Duration;

use fedval_core::fault::FaultyUtility;
use fedval_core::service::{RetryPolicy, ValuationServer};
use fedval_core::utility::HashUtility;
use fedval_serve::http::{build_request_bytes, Client, Limits};
use fedval_serve::json::Json;
use fedval_serve::{WireConfig, WireServer};

/// The suite's server: `HashUtility` under the wire, optionally wrapped
/// in seeded *transient* faults (healed by retry, so responses still
/// succeed bit-identically) when `FEDVAL_FAULTS` is set.
fn suite_server(cfg: WireConfig) -> WireServer<FaultyUtility<HashUtility>> {
    let inner = HashUtility { n: 5, seed: 3 };
    let faulty = if std::env::var("FEDVAL_FAULTS").is_ok() {
        FaultyUtility::new(inner).seeded_faults(29, 3)
    } else {
        // A FaultyUtility with no faults configured is a transparent
        // pass-through, keeping one server type for both modes.
        FaultyUtility::new(inner)
    };
    let valuation = ValuationServer::builder(faulty)
        .retry_policy(RetryPolicy {
            max_retries: 2,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
        })
        .start();
    WireServer::start(valuation, cfg).expect("bind")
}

fn error_kind(resp: &fedval_serve::http::ClientResponse) -> String {
    resp.json()
        .unwrap_or_else(|e| panic!("error body must be JSON ({e}): {:?}", resp.body))
        .get("error")
        .and_then(|o| o.get("kind"))
        .and_then(Json::as_str)
        .map(str::to_string)
        .unwrap_or_else(|| panic!("error body has no kind: {:?}", resp.body))
}

/// A request that must succeed — the "server is still healthy" probe.
fn assert_healthy(client: &mut Client) {
    let resp = client
        .post("/v1/value", r#"{"estimator":"loo"}"#)
        .expect("healthy probe roundtrip");
    assert_eq!(
        resp.status,
        200,
        "server unhealthy: {}",
        String::from_utf8_lossy(&resp.body)
    );
}

#[test]
fn invalid_json_and_bad_schemas_return_400_and_leave_the_server_up() {
    let wire = suite_server(WireConfig::default());
    let cases: &[(&str, &str)] = &[
        // Body, expected error.kind.
        ("", "malformed_json"),
        ("{", "malformed_json"),
        ("not json at all", "malformed_json"),
        (r#"{"estimator":"loo""#, "malformed_json"),
        (r#"{"estimator":"loo",}"#, "malformed_json"),
        (r#"{"estimator":"loo","seed":1e999}"#, "malformed_json"),
        (r#"{"estimator":"loo","x":0,"x":1}"#, "malformed_json"),
        (r#"\xff\xfe"#, "malformed_json"),
        (r#"{"estimator":"shapley_xl"}"#, "bad_request"),
        (r#"{"estimator":"loo","bugdet":3}"#, "bad_request"),
        (r#"{"estimator":"loo","seed":-4}"#, "bad_request"),
        (r#"{"estimator":"loo","seed":1.5}"#, "bad_request"),
        (r#"{"estimator":"loo","clients":"all"}"#, "bad_request"),
        (r#"{"estimator":"loo","on_limit":"explode"}"#, "bad_request"),
        (r#"{"estimator":"loo","stopping":{"ci":1}}"#, "bad_request"),
        (r#"{"estimator":"loo","deadline_ms":-1}"#, "bad_request"),
        (r#"[1,2,3]"#, "bad_request"),
        (r#"42"#, "bad_request"),
    ];
    for (body, want_kind) in cases {
        // Fresh connection per case: a JSON-level 400 keeps the
        // connection open, but asserting per-case isolation is the point
        // here (reuse is covered below).
        let mut client = Client::connect(wire.addr()).expect("connect");
        let resp = client.post("/v1/value", body).expect("roundtrip");
        assert_eq!(resp.status, 400, "body {body:?}");
        assert_eq!(&error_kind(&resp), want_kind, "body {body:?}");
        assert_healthy(&mut client);
    }
    wire.shutdown();
}

#[test]
fn truncated_body_is_a_400_not_a_hang_or_panic() {
    let wire = suite_server(WireConfig::default());
    let mut client = Client::connect(wire.addr()).expect("connect");
    // Declare 100 bytes, send 10, half-close. The server must answer
    // 400 rather than wait forever or tear down undecorated.
    client
        .send_raw(b"POST /v1/value HTTP/1.1\r\nhost: x\r\ncontent-length: 100\r\n\r\n{\"estimato")
        .expect("send");
    client.shutdown_write().expect("half-close");
    let resp = client.read_response().expect("response");
    assert_eq!(resp.status, 400);
    assert_eq!(error_kind(&resp), "bad_request");
    // Framing is shot: the server closes this connection, and a fresh
    // one works.
    let mut fresh = Client::connect(wire.addr()).expect("connect");
    assert_healthy(&mut fresh);
    wire.shutdown();
}

#[test]
fn missing_content_length_on_post_is_411() {
    let wire = suite_server(WireConfig::default());
    let mut client = Client::connect(wire.addr()).expect("connect");
    client
        .send_raw(b"POST /v1/value HTTP/1.1\r\nhost: x\r\n\r\n")
        .expect("send");
    let resp = client.read_response().expect("response");
    assert_eq!(resp.status, 411);
    assert_eq!(error_kind(&resp), "length_required");
    let mut fresh = Client::connect(wire.addr()).expect("connect");
    assert_healthy(&mut fresh);
    wire.shutdown();
}

#[test]
fn oversized_payload_is_413_without_reading_the_body() {
    let wire = suite_server(WireConfig {
        limits: Limits {
            max_body_bytes: 256,
            ..Limits::default()
        },
        ..WireConfig::default()
    });
    let mut client = Client::connect(wire.addr()).expect("connect");
    // Declare far past the cap; the server must reject on the declared
    // length alone (the body is never transmitted).
    client
        .send_raw(b"POST /v1/value HTTP/1.1\r\nhost: x\r\ncontent-length: 1000000\r\n\r\n")
        .expect("send");
    let resp = client.read_response().expect("response");
    assert_eq!(resp.status, 413);
    assert_eq!(error_kind(&resp), "payload_too_large");
    let mut fresh = Client::connect(wire.addr()).expect("connect");
    assert_healthy(&mut fresh);
    wire.shutdown();
}

#[test]
fn oversized_head_is_431() {
    let wire = suite_server(WireConfig {
        limits: Limits {
            max_head_bytes: 512,
            ..Limits::default()
        },
        ..WireConfig::default()
    });
    let mut client = Client::connect(wire.addr()).expect("connect");
    let huge = format!(
        "GET /v1/healthz HTTP/1.1\r\nhost: x\r\nx-padding: {}\r\n\r\n",
        "a".repeat(2048)
    );
    client.send_raw(huge.as_bytes()).expect("send");
    let resp = client.read_response().expect("response");
    assert_eq!(resp.status, 431);
    assert_eq!(error_kind(&resp), "head_too_large");
    let mut fresh = Client::connect(wire.addr()).expect("connect");
    assert_healthy(&mut fresh);
    wire.shutdown();
}

#[test]
fn unknown_paths_and_methods_map_to_404_and_405() {
    let wire = suite_server(WireConfig::default());
    let mut client = Client::connect(wire.addr()).expect("connect");
    let resp = client.get("/v2/value").expect("roundtrip");
    assert_eq!(resp.status, 404);
    assert_eq!(error_kind(&resp), "not_found");
    let resp = client.get("/v1/value").expect("roundtrip");
    assert_eq!(resp.status, 405);
    assert_eq!(error_kind(&resp), "method_not_allowed");
    assert_eq!(resp.header("allow"), Some("POST"));
    let resp = client
        .request("DELETE", "/v1/stats", Some("{}"))
        .expect("roundtrip");
    assert_eq!(resp.status, 405);
    assert_eq!(resp.header("allow"), Some("GET"));
    assert_healthy(&mut client);
    wire.shutdown();
}

#[test]
fn garbage_request_line_is_400() {
    let wire = suite_server(WireConfig::default());
    for garbage in [
        b"GARBAGE\r\n\r\n".as_slice(),
        b"GET\r\n\r\n".as_slice(),
        b"GET /v1/healthz HTTP/3.0\r\n\r\n".as_slice(),
        b"GET /v1/healthz HTTP/1.1\r\nbroken header line\r\n\r\n".as_slice(),
    ] {
        let mut client = Client::connect(wire.addr()).expect("connect");
        client.send_raw(garbage).expect("send");
        let resp = client.read_response().expect("response");
        assert_eq!(resp.status, 400, "garbage {garbage:?}");
    }
    let mut fresh = Client::connect(wire.addr()).expect("connect");
    assert_healthy(&mut fresh);
    wire.shutdown();
}

#[test]
fn pipelined_requests_answer_in_order_on_one_connection() {
    let wire = suite_server(WireConfig::default());
    let mut client = Client::connect(wire.addr()).expect("connect");
    // Two complete POSTs in a single write; responses must come back in
    // order on the same socket.
    let mut bytes =
        build_request_bytes("POST", "/v1/value", Some(r#"{"estimator":"loo","seed":0}"#));
    bytes.extend_from_slice(&build_request_bytes(
        "POST",
        "/v1/value",
        Some(r#"{"estimator":"ipss","budget":10,"seed":5}"#),
    ));
    client.send_raw(&bytes).expect("send");
    let first = client.read_response().expect("first response");
    let second = client.read_response().expect("second response");
    assert_eq!(
        first.status,
        200,
        "{}",
        String::from_utf8_lossy(&first.body)
    );
    assert_eq!(
        second.status,
        200,
        "{}",
        String::from_utf8_lossy(&second.body)
    );
    assert_eq!(
        first
            .json()
            .unwrap()
            .get("estimator")
            .and_then(Json::as_str),
        Some("loo")
    );
    assert_eq!(
        second
            .json()
            .unwrap()
            .get("estimator")
            .and_then(Json::as_str),
        Some("ipss")
    );
    wire.shutdown();
}

#[test]
fn keep_alive_survives_interleaved_errors() {
    let wire = suite_server(WireConfig::default());
    let mut client = Client::connect(wire.addr()).expect("connect");
    // good → bad JSON (400, stays open) → good → 404 → good, all on one
    // connection.
    assert_healthy(&mut client);
    let resp = client.post("/v1/value", "{oops").expect("roundtrip");
    assert_eq!(resp.status, 400);
    assert_healthy(&mut client);
    let resp = client.get("/nope").expect("roundtrip");
    assert_eq!(resp.status, 404);
    assert_healthy(&mut client);
    wire.shutdown();
}

#[test]
fn connection_close_is_honored() {
    let wire = suite_server(WireConfig::default());
    let mut client = Client::connect(wire.addr()).expect("connect");
    client
        .send_raw(
            b"POST /v1/value HTTP/1.1\r\nhost: x\r\nconnection: close\r\ncontent-length: 19\r\n\r\n{\"estimator\":\"loo\"}",
        )
        .expect("send");
    let resp = client.read_response().expect("response");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("connection"), Some("close"));
    wire.shutdown();
}
