//! End-to-end contracts of the wire transport: N concurrent HTTP
//! clients receive values **byte-identical** to direct in-process
//! [`ValuationServer::call`] with the same seeds (coalesced flushes and
//! CI-stopped streaming runs included); injected faults isolate to the
//! failing request's status while concurrent healthy clients stay
//! bit-identical; deadline overruns surface as 206 partial responses;
//! saturation admission-controls with 429 + `Retry-After`, and clients
//! that back off and retry lose no work; shutdown drains in-flight work
//! onto the typed 503; boundary games (n ∈ {0, 1, 2, 25, 127, 128},
//! budget ∈ {0, 1}) answer every estimator over the wire exactly as
//! in process, never with a 500.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "helpers outside #[test] functions: a failed setup panics, which is the test failing"
)]

use std::thread;
use std::time::Duration;

use fedval_core::coalition::Coalition;
use fedval_core::fault::{FaultyUtility, PERSISTENT};
use fedval_core::service::{
    Estimator, RetryPolicy, ValuationError, ValuationRequest, ValuationResponse, ValuationServer,
};
use fedval_core::utility::HashUtility;
use fedval_serve::http::Client;
use fedval_serve::json::Json;
use fedval_serve::{wire, WireConfig, WireServer};

fn ok(result: Result<ValuationResponse, ValuationError>) -> ValuationResponse {
    match result {
        Ok(resp) => resp,
        Err(e) => panic!("request failed: {e}"),
    }
}

/// Values from a wire response body, bit-exact (the JSON module encodes
/// f64 via shortest-round-trip `Display` and parses back correctly
/// rounded, so text survives the trip losslessly).
fn wire_values(body: &Json) -> Vec<f64> {
    body.get("values")
        .and_then(Json::as_array)
        .expect("response has values")
        .iter()
        .map(|v| v.as_f64().expect("value is a number"))
        .collect()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn concurrent_wire_clients_are_bit_identical_to_in_process_calls() {
    // One request per estimator across the surface, all in flight at
    // once so server-side flush coalescing actually happens.
    let requests: Vec<(&str, String, ValuationRequest)> = vec![
        (
            "ipss",
            r#"{"estimator":"ipss","budget":24,"seed":5}"#.into(),
            ValuationRequest::new(Estimator::Ipss, 24, 5),
        ),
        (
            "stratified_mc",
            r#"{"estimator":"stratified_mc","budget":40,"seed":6}"#.into(),
            ValuationRequest::new(Estimator::StratifiedMc, 40, 6),
        ),
        (
            "stratified_cc",
            r#"{"estimator":"stratified_cc","budget":40,"seed":7}"#.into(),
            ValuationRequest::new(Estimator::StratifiedCc, 40, 7),
        ),
        (
            "owen",
            r#"{"estimator":"owen","budget":72,"seed":8}"#.into(),
            ValuationRequest::new(Estimator::Owen, 72, 8),
        ),
        (
            "banzhaf_pruned",
            r#"{"estimator":"banzhaf_pruned","budget":20,"seed":9}"#.into(),
            ValuationRequest::new(Estimator::BanzhafPruned, 20, 9),
        ),
        (
            "subgame",
            r#"{"estimator":"stratified_mc","budget":24,"seed":10,"clients":[0,2,4,6]}"#.into(),
            ValuationRequest::new(Estimator::StratifiedMc, 24, 10)
                .for_clients(Coalition::from_members([0, 2, 4, 6])),
        ),
    ];
    let utility = || HashUtility { n: 8, seed: 77 };
    // Direct in-process baselines, computed sequentially on their own
    // server (values are a pure function of request + utility).
    let baselines: Vec<Vec<f64>> = requests
        .iter()
        .map(|(_, _, req)| {
            let server = ValuationServer::start(utility());
            let values = ok(server.call(req.clone())).values;
            server.shutdown();
            values
        })
        .collect();
    let wire =
        WireServer::start(ValuationServer::start(utility()), WireConfig::default()).expect("bind");
    let addr = wire.addr();
    let results: Vec<(usize, u16, Json)> = thread::scope(|scope| {
        let handles: Vec<_> = requests
            .iter()
            .enumerate()
            .map(|(i, (_, body, _))| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let resp = client.post("/v1/value", body).expect("roundtrip");
                    (i, resp.status, resp.json().expect("JSON body"))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    for (i, status, body) in results {
        let (name, _, _) = &requests[i];
        assert_eq!(status, 200, "{name}: {}", body.encode());
        assert_eq!(
            bits(&wire_values(&body)),
            bits(&baselines[i]),
            "{name}: wire values must be byte-identical to ValuationServer::call"
        );
    }
    // The six concurrent runs shared one server; its cumulative stats
    // must show all of them.
    let mut client = Client::connect(addr).expect("connect");
    let stats = client.get("/v1/stats").expect("roundtrip").json().unwrap();
    assert_eq!(stats.get("requests").and_then(Json::as_u64), Some(6));
    wire.shutdown();
}

#[test]
fn ci_stopped_streaming_run_matches_direct_call_bit_for_bit() {
    let utility = || HashUtility { n: 7, seed: 13 };
    let direct = {
        let server = ValuationServer::start(utility());
        let resp = ok(server.call(
            ValuationRequest::new(Estimator::StratifiedMc, 80, 17).with_stopping(
                fedval_core::anytime::StoppingRule::ci_at_most(0.6).and_max_samples(60),
            ),
        ));
        server.shutdown();
        resp
    };
    let wire =
        WireServer::start(ValuationServer::start(utility()), WireConfig::default()).expect("bind");
    let mut client = Client::connect(wire.addr()).expect("connect");
    let resp = client
        .post(
            "/v1/value",
            r#"{"estimator":"stratified_mc","budget":80,"seed":17,"stopping":{"ci_at_most":0.6,"max_samples":60}}"#,
        )
        .expect("roundtrip");
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    let body = resp.json().unwrap();
    assert_eq!(bits(&wire_values(&body)), bits(&direct.values));
    assert_eq!(
        body.get("stopped_early").and_then(|v| v.as_bool()),
        Some(direct.run.stopped_early)
    );
    let progress = body
        .get("progress")
        .expect("streaming response has progress");
    assert_eq!(
        progress.get("samples_used").and_then(Json::as_u64),
        direct.progress.as_ref().map(|s| s.samples_used as u64),
        "final snapshot rides the wire unchanged"
    );
    wire.shutdown();
}

#[test]
fn adaptive_only_streams_ipss_and_pruned_banzhaf_over_the_wire() {
    // Nothing to steer: `adaptive` makes these runs stream exactly as
    // `"stopping": {}` (stream-only) does, and no allocation rides along.
    let wire = WireServer::start(
        ValuationServer::start(HashUtility { n: 8, seed: 31 }),
        WireConfig::default(),
    )
    .expect("bind");
    let mut client = Client::connect(wire.addr()).expect("connect");
    let mut post = |body: String| {
        let resp = client.post("/v1/value", &body).expect("roundtrip");
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        resp.json().unwrap()
    };
    for name in ["ipss", "banzhaf_pruned"] {
        let request = format!(r#""estimator":"{name}","budget":60,"seed":5"#);
        let streamed = post(format!(r#"{{{request},"stopping":{{}}}}"#));
        let adaptive = post(format!(r#"{{{request},"adaptive":{{"round_size":5}}}}"#));
        assert_eq!(bits(&wire_values(&adaptive)), bits(&wire_values(&streamed)));
        let progress = |body: &Json| body.get("progress").expect("streamed").clone();
        assert_eq!(progress(&adaptive), progress(&streamed), "{name}");
        assert!(progress(&adaptive)
            .get("allocation")
            .is_some_and(Json::is_null));
    }
    wire.shutdown();
}

#[test]
fn persistent_faults_isolate_to_the_failing_request_over_the_wire() {
    // The faulty mask has size 7; IPSS with γ = 37 on n = 8 evaluates
    // strata 0..=2 only, so it never touches the mask, while the
    // exhaustive sweep must (same geometry as the in-process fault
    // suite).
    let faulty_mask = Coalition::from_members([0, 1, 2, 3, 4, 5, 6]);
    let inner = || HashUtility { n: 8, seed: 31 };
    let healthy_baseline = {
        let server = ValuationServer::start(inner());
        let values = ok(server.call(ValuationRequest::new(Estimator::Ipss, 37, 2))).values;
        server.shutdown();
        values
    };
    let valuation = ValuationServer::builder(
        FaultyUtility::new(inner()).panic_on_coalition(faulty_mask, PERSISTENT),
    )
    .retry_policy(RetryPolicy {
        max_retries: 2,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(4),
    })
    .start();
    let wire = WireServer::start(valuation, WireConfig::default()).expect("bind");
    let addr = wire.addr();
    let (sweep, healthy) = thread::scope(|scope| {
        let sweep = scope.spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            client
                .post("/v1/value", r#"{"estimator":"exact_mc","seed":1}"#)
                .expect("roundtrip")
        });
        let healthy = scope.spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            client
                .post("/v1/value", r#"{"estimator":"ipss","budget":37,"seed":2}"#)
                .expect("roundtrip")
        });
        (
            sweep.join().expect("sweep thread"),
            healthy.join().expect("healthy thread"),
        )
    });
    // The faulting request alone gets the utility's 502.
    assert_eq!(
        sweep.status,
        502,
        "{}",
        String::from_utf8_lossy(&sweep.body)
    );
    let error = sweep.json().unwrap().get("error").unwrap().clone();
    assert_eq!(
        error.get("kind").and_then(Json::as_str),
        Some("utility_panicked")
    );
    assert_eq!(
        error.get("attempts").and_then(Json::as_u64),
        Some(3),
        "flushed attempt + 2 retries"
    );
    // Its concurrent peer is untouched and bit-identical to fault-free.
    assert_eq!(healthy.status, 200);
    assert_eq!(
        bits(&wire_values(&healthy.json().unwrap())),
        bits(&healthy_baseline),
        "fault isolation must not perturb the healthy request"
    );
    wire.shutdown();
}

#[test]
fn deadline_overrun_surfaces_as_206_with_partial_true() {
    // 2 ms per evaluation makes each streaming round overrun the 10 ms
    // deadline; the stream-only stopping rule gives the run per-round
    // batch boundaries where the deadline can fire (a non-streaming run
    // parks one batch, so its only boundary is after everything).
    // on_limit defaults to partial.
    let valuation = ValuationServer::start(
        FaultyUtility::new(HashUtility { n: 8, seed: 51 })
            .delay_every_evals(1, Duration::from_millis(2)),
    );
    let wire = WireServer::start(valuation, WireConfig::default()).expect("bind");
    let mut client = Client::connect(wire.addr()).expect("connect");
    let resp = client
        .post(
            "/v1/value",
            r#"{"estimator":"stratified_mc","budget":80,"seed":3,"deadline_ms":10,"stopping":{}}"#,
        )
        .expect("roundtrip");
    assert_eq!(resp.status, 206, "{}", String::from_utf8_lossy(&resp.body));
    let body = resp.json().unwrap();
    assert_eq!(body.get("partial").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(
        body.get("run")
            .unwrap()
            .get("partial")
            .and_then(|v| v.as_bool()),
        Some(true)
    );
    assert_eq!(
        wire_values(&body).len(),
        8,
        "partial fold still reports every client"
    );
    wire.shutdown();
}

#[test]
fn saturation_returns_429_with_retry_after_then_recovers() {
    // One slot only; a slow request (5 ms per eval, 16-coalition exact
    // sweep ≈ 80 ms) holds it while a second client knocks.
    let valuation = ValuationServer::start(
        FaultyUtility::new(HashUtility { n: 4, seed: 61 })
            .delay_every_evals(1, Duration::from_millis(5)),
    );
    let wire = WireServer::start(
        valuation,
        WireConfig {
            max_inflight: 1,
            ..WireConfig::default()
        },
    )
    .expect("bind");
    let addr = wire.addr();
    let slow = thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        client
            .post("/v1/value", r#"{"estimator":"exact_mc","seed":1}"#)
            .expect("roundtrip")
    });
    // Let the slow request claim the slot.
    thread::sleep(Duration::from_millis(25));
    let mut client = Client::connect(addr).expect("connect");
    let rejected = client
        .post("/v1/value", r#"{"estimator":"loo"}"#)
        .expect("roundtrip");
    assert_eq!(
        rejected.status,
        429,
        "{}",
        String::from_utf8_lossy(&rejected.body)
    );
    assert_eq!(rejected.header("retry-after"), Some("1"));
    assert_eq!(
        rejected
            .json()
            .unwrap()
            .get("error")
            .unwrap()
            .get("kind")
            .and_then(Json::as_str),
        Some("saturated")
    );
    // The slow request is unaffected by the rejection…
    let slow_resp = slow.join().expect("slow thread");
    assert_eq!(slow_resp.status, 200);
    // …and once the slot frees, a retry goes through.
    let retried = client
        .post("/v1/value", r#"{"estimator":"loo"}"#)
        .expect("roundtrip");
    assert_eq!(retried.status, 200);
    wire.shutdown();
}

#[test]
fn saturated_keep_alive_clients_retry_after_429_and_lose_no_work() {
    // Six keep-alive clients against two in-flight slots with slowed
    // evaluations (1 ms each, ≈ 40 per request): the server must shed
    // load, and every client that backs off on `Retry-After` and retries
    // ends each request in a 200 bit-identical to the in-process call.
    const CLIENTS: usize = 6;
    const PER_CLIENT: usize = 4;
    let utility = || HashUtility { n: 8, seed: 0xBEE };
    let request = |seed: usize| ValuationRequest::new(Estimator::StratifiedMc, 40, seed as u64);
    let baselines: Vec<Vec<u64>> = {
        let server = ValuationServer::start(utility());
        let values = (0..CLIENTS * PER_CLIENT)
            .map(|seed| bits(&ok(server.call(request(seed))).values))
            .collect();
        server.shutdown();
        values
    };
    let slow = FaultyUtility::new(utility()).delay_every_evals(1, Duration::from_millis(1));
    let wire = WireServer::start(
        ValuationServer::start(slow),
        WireConfig {
            max_inflight: 2,
            ..WireConfig::default()
        },
    )
    .expect("bind");
    let addr = wire.addr();
    let rejected: usize = thread::scope(|scope| {
        let handles: Vec<_> = baselines
            .chunks(PER_CLIENT)
            .enumerate()
            .map(|(c, mine)| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut rejected = 0;
                    for (r, want) in mine.iter().enumerate() {
                        let seed = c * PER_CLIENT + r;
                        let body =
                            format!(r#"{{"estimator":"stratified_mc","budget":40,"seed":{seed}}}"#);
                        let resp = loop {
                            let resp = client.post("/v1/value", &body).expect("roundtrip");
                            if resp.status != 429 {
                                break resp;
                            }
                            rejected += 1;
                            let secs: u64 = resp
                                .header("retry-after")
                                .and_then(|v| v.parse().ok())
                                .expect("a 429 carries Retry-After in whole seconds");
                            // Back off a fraction of the hint so the test
                            // stays brisk while still waiting before the
                            // retry.
                            thread::sleep(Duration::from_secs(secs).min(Duration::from_millis(50)));
                        };
                        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
                        assert_eq!(
                            bits(&wire_values(&resp.json().expect("JSON body"))),
                            *want,
                            "seed {seed}: wire values must be byte-identical to ValuationServer::call"
                        );
                    }
                    rejected
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .sum()
    });
    wire.shutdown();
    assert!(
        rejected > 0,
        "{CLIENTS} clients against 2 slots with slowed evaluations must shed load at least once"
    );
}

#[test]
fn shutdown_drains_in_flight_requests_onto_the_typed_503() {
    // Slow evals on a streaming run (per-round batch boundaries) keep
    // the request in flight long enough for shutdown to land mid-run;
    // the client still gets a well-formed 503 response (not a dropped
    // socket).
    let valuation = ValuationServer::start(
        FaultyUtility::new(HashUtility { n: 6, seed: 71 })
            .delay_every_evals(1, Duration::from_millis(4)),
    );
    let wire = WireServer::start(valuation, WireConfig::default()).expect("bind");
    let addr = wire.addr();
    let inflight = thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        client
            .post(
                "/v1/value",
                r#"{"estimator":"stratified_mc","budget":200,"seed":1,"stopping":{}}"#,
            )
            .expect("roundtrip")
    });
    thread::sleep(Duration::from_millis(30));
    wire.begin_shutdown();
    let resp = inflight.join().expect("in-flight thread");
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
fn boundary_games_answer_every_cell_over_the_wire_as_in_process() {
    // Every (n, budget, estimator) cell: the wire's status, `error.kind`
    // and values must be those of `wire::encode_response` /
    // `wire::encode_error` over the in-process call on a twin server.
    for n in [0, 1, 2, 25, 127, 128] {
        let utility = || HashUtility { n, seed: 3 };
        let direct = ValuationServer::start(utility());
        let wire_server =
            WireServer::start(ValuationServer::start(utility()), WireConfig::default())
                .expect("bind");
        let mut client = Client::connect(wire_server.addr()).expect("connect");
        for budget in 0..=1 {
            for &(name, estimator) in wire::ESTIMATOR_NAMES {
                let cell = format!("n = {n}, budget = {budget}, {name}");
                let body = format!(r#"{{"estimator":"{name}","budget":{budget},"seed":1}}"#);
                let resp = client.post("/v1/value", &body).expect("roundtrip");
                let got = resp.json().expect("framed JSON body");
                let (want_status, want) =
                    match direct.call(ValuationRequest::new(estimator, budget, 1)) {
                        Ok(r) => wire::encode_response(&r),
                        Err(e) => wire::encode_error(&e),
                    };
                assert_eq!(resp.status, want_status, "{cell}: {}", got.encode());
                assert!(
                    resp.status == 200 || (400..500).contains(&resp.status),
                    "{cell}: {}",
                    got.encode()
                );
                // Owen's coarsest grid, one draw per node, costs
                // 4·(n + 1) > 1 evaluations: every Owen cell is a 400.
                if estimator == Estimator::Owen {
                    assert_eq!(resp.status, 400, "{cell}: {}", got.encode());
                }
                if want_status == 200 {
                    assert_eq!(
                        bits(&wire_values(&got)),
                        bits(&wire_values(&want)),
                        "{cell}"
                    );
                } else {
                    let kind = |b: &Json| {
                        b.get("error")
                            .and_then(|e| e.get("kind"))
                            .and_then(Json::as_str)
                            .map(str::to_string)
                    };
                    assert_eq!(kind(&got), kind(&want), "{cell}");
                }
            }
        }
        let stats = client.get("/v1/stats").expect("roundtrip");
        assert_eq!(stats.status, 200, "n = {n}: the server must still answer");
        wire_server.shutdown();
        direct.shutdown();
    }
}
