//! The wire transport, end to end in one process: start a
//! [`WireServer`] over a small FL utility, then drive it with the
//! crate's own HTTP/1.1 client exactly the way an external caller (or
//! `curl`) would — health probe, a full valuation, a CI-stopped
//! streaming run, a typed error, and the cumulative stats endpoint.
//!
//! Every request printed here has a `curl` equivalent shown next to it,
//! so the output doubles as a wire-protocol cheat sheet for the
//! standalone `fedval-serve` binary.
//!
//! ```sh
//! cargo run --release -p fedval-examples --bin wire_client
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "demo driver: wire errors surface by panicking with the message; a real integration would match on the status code as shown below"
)]

use fedval_data::{MnistLike, SyntheticSetup};
use fedval_fl::service::{serve, FlServiceConfig};
use fedval_fl::{FedAvgConfig, FlUtility, ModelSpec};
use fedval_serve::http::Client;
use fedval_serve::json::Json;
use fedval_serve::{WireConfig, WireServer};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N_CLIENTS: usize = 4;

/// A small deterministic FL utility — the same shape the standalone
/// `fedval-serve` binary builds from its env knobs.
fn fl_utility() -> FlUtility {
    let gen = MnistLike::new(0xA11);
    let (train, test) = gen.generate_split(24 * N_CLIENTS, 96, 0xA12);
    let mut rng = StdRng::seed_from_u64(0xA13);
    let clients = SyntheticSetup::SameSizeSameDist.partition(&train, N_CLIENTS, &mut rng);
    FlUtility::new(
        clients,
        test,
        ModelSpec::Linear,
        FedAvgConfig {
            rounds: 1,
            local_epochs: 1,
            seed: 0xA14,
            ..Default::default()
        },
    )
}

/// POST a body to `/v1/value`, print the curl equivalent and the
/// outcome, and return `(status, parsed body)`.
fn post_value(client: &mut Client, addr: std::net::SocketAddr, body: &str) -> (u16, Json) {
    println!("  $ curl -s http://{addr}/v1/value -d '{body}'");
    let resp = client.post("/v1/value", body).expect("roundtrip");
    let json = resp.json().expect("JSON body");
    (resp.status, json)
}

fn main() {
    // The server side: a ValuationServer fronted by the TCP transport.
    // The standalone binary (`cargo run -p fedval-serve`) does exactly
    // this against FEDVAL_ADDR; here we bind an ephemeral port instead.
    let (valuation, _cache) = serve(fl_utility(), FlServiceConfig::default());
    let wire = WireServer::start(valuation, WireConfig::default()).expect("bind");
    let addr = wire.addr();
    println!("wire_client: fedval-serve listening on {addr}\n");

    // One keep-alive connection for the whole session, like a pooled
    // HTTP client would hold.
    let mut client = Client::connect(addr).expect("connect");

    // 1. Health probe.
    println!("health probe:");
    println!("  $ curl -s http://{addr}/v1/healthz");
    let health = client.get("/v1/healthz").expect("roundtrip");
    println!(
        "  -> {} {}\n",
        health.status,
        String::from_utf8_lossy(&health.body)
    );
    assert_eq!(health.status, 200);

    // 2. A full exact valuation.
    println!("exact Shapley over the wire:");
    let (status, body) = post_value(&mut client, addr, r#"{"estimator":"exact_mc","seed":1}"#);
    assert_eq!(status, 200);
    let values: Vec<f64> = body
        .get("values")
        .and_then(Json::as_array)
        .expect("values")
        .iter()
        .map(|v| v.as_f64().expect("number"))
        .collect();
    println!("  -> {status}, values: {values:?}\n");

    // 3. A CI-stopped streaming run: the stopping rule rides in the
    // request, the final snapshot rides back in `progress`.
    println!("streaming run with a stopping rule:");
    let (status, body) = post_value(
        &mut client,
        addr,
        r#"{"estimator":"stratified_mc","budget":40,"seed":2,"stopping":{"max_samples":16}}"#,
    );
    assert_eq!(status, 200);
    println!(
        "  -> {status}, stopped_early: {:?}, samples_used: {:?}\n",
        body.get("stopped_early").and_then(|v| v.as_bool()),
        body.get("progress")
            .and_then(|p| p.get("samples_used"))
            .and_then(Json::as_u64),
    );

    // 4. A typed error: unknown estimator names map to 400 with a
    // machine-readable kind — the connection stays usable.
    println!("a schema error (connection survives):");
    let (status, body) = post_value(&mut client, addr, r#"{"estimator":"shapley_xl"}"#);
    println!(
        "  -> {status}, kind: {:?}\n",
        body.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
    );
    assert_eq!(status, 400);

    // 5. Cumulative service stats, still on the same connection.
    println!("service stats:");
    println!("  $ curl -s http://{addr}/v1/stats");
    let stats = client.get("/v1/stats").expect("roundtrip");
    let stats_json = stats.json().expect("JSON body");
    println!(
        "  -> {}, requests: {:?}, evaluations: {:?}",
        stats.status,
        stats_json.get("requests").and_then(Json::as_u64),
        stats_json.get("evaluations").and_then(Json::as_u64),
    );
    assert_eq!(stats.status, 200);
    // Two valuation requests ran (the schema error never reached the
    // valuation server).
    assert_eq!(stats_json.get("requests").and_then(Json::as_u64), Some(2));

    // Clean drain: the same path SIGTERM takes in the binary.
    wire.shutdown();
    println!("\nserver drained and stopped cleanly");
}
