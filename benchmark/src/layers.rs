//! Per-layer micro-measurements: each times one layer's public calls in
//! isolation, from this file, on fixed inputs. They are workload
//! independent and run at the start of every traced run; the counters and
//! the span table that depend on the workload come from `traced.rs`.
//!
//! README § Layer map lists, for each metric here, the end-to-end metric
//! it should move and on which workload.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use fedval_core::baselines::{
    cc_shapley, extended_gtb_values, extended_tmc, CcShapConfig, GtbConfig, TmcConfig,
};
use fedval_core::coalition::{all_subsets, Coalition};
use fedval_core::loo::leave_one_out;
use fedval_core::service::{Estimator, ValuationServer};
use fedval_core::utility::{CachedUtility, ParallelUtility, SaturatingUtility, Utility};
use fedval_fl::{train_coalition, train_coalitions_params, TrajectoryCache};
use fedval_nn::backend::{LinalgBackend, Reference};
use fedval_nn::MultiNetwork;
use fedval_serve::http::Client;
use fedval_serve::{json, wire, WireConfig, WireServer};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::problems::{synthetic_game, Federation, Model, SYNTHETIC_CLIENTS};
use crate::schema::Metrics;
use crate::stats::{best_of, Better, Measured};
use crate::workload::{fatal, Mode, Spec};

/// Rows of the mini-batch every kernel and step measurement uses (the
/// FedAvg batch size).
const BATCH: usize = 16;
/// Shape of the experiments' MLP: 64 inputs, 32 hidden units, 10 classes.
const INPUT: usize = 64;
const HIDDEN: usize = 32;
const CLASSES: usize = 10;
const LANES: usize = 8;

/// Per-call seconds of `reps` repetitions of `calls` back-to-back calls.
fn per_call(calls: usize, reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                f();
            }
            start.elapsed().as_secs_f64() / calls as f64
        })
        .collect()
}

/// Best-of summary of per-repetition seconds, scaled to the metric's unit.
fn timed(samples: &[f64], scale: f64) -> Measured {
    let scaled: Vec<f64> = samples.iter().map(|s| s * scale).collect();
    Measured::from_reps(&scaled, Better::Lower)
}

/// Best-of summary of a rate `work / seconds`.
fn rate(samples: &[f64], work: f64) -> Measured {
    let rates: Vec<f64> = samples.iter().map(|s| work / s).collect();
    Measured::from_reps(&rates, Better::Higher)
}

/// Deterministic operand filler in `[-0.5, 0.5)`.
fn pseudo(seed: u32, len: usize) -> Vec<f32> {
    let mut x = seed;
    (0..len)
        .map(|_| {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (x >> 8) as f32 / (1u32 << 24) as f32 - 0.5
        })
        .collect()
}

fn mix64(i: u64) -> u64 {
    let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `count` pseudo-random coalitions over `n` clients (mixed sizes).
fn mixed_coalitions(n: usize, count: usize) -> Vec<Coalition> {
    (0..count as u64)
        .map(|i| Coalition(u128::from(mix64(i)) & ((1u128 << n) - 1)))
        .collect()
}

/// `nn`: one forward + backward + update on a 16-row batch, and the
/// kernels underneath at the MLP's shapes.
fn nn(metrics: &mut Metrics) {
    let input = pseudo(1, BATCH * INPUT);
    let labels: Vec<u32> = (0..BATCH as u32).map(|i| i % CLASSES as u32).collect();
    let lr = 0.01;

    let mut dense = fedval_nn::mlp(INPUT, &[HIDDEN], CLASSES, 1);
    let step = per_call(200, 5, || {
        black_box(dense.train_batch(&input, &labels, lr));
    });
    metrics.insert("nn.dense_step_us", timed(&step, 1e6));

    let mut lanes = MultiNetwork::from_network(&dense, LANES);
    let active = [true; LANES];
    let step = per_call(50, 5, || lanes.train_batch(&input, &labels, lr, &active));
    metrics.insert(
        "nn.lanes8_step_us_per_lane",
        timed(&step, 1e6 / LANES as f64),
    );

    let mut cnn = fedval_nn::cnn(8, CLASSES, 1);
    let step = per_call(20, 5, || {
        black_box(cnn.train_batch(&input, &labels, lr));
    });
    metrics.insert("nn.cnn_step_us", timed(&step, 1e6));

    // Lock-step path per lane: forward and weight gradients of both dense
    // layers, input gradient of the second only (the first layer's has no
    // consumer). Computed from the shapes, not measured.
    let weights = INPUT * HIDDEN + HIDDEN * CLASSES;
    let flops = 2 * BATCH * (2 * weights + HIDDEN * CLASSES);
    metrics.insert("nn.flops_per_mlp_step", Measured::single(flops as f64));

    let (m, k, n) = (BATCH, INPUT, HIDDEN);
    let gemm_flops = (2 * m * k * n) as f64;
    let w = pseudo(2, n * k);
    let bias = pseudo(3, n);
    let mut out = vec![0.0f32; m * n];
    let mut mask = Vec::with_capacity(m * n);
    let secs = per_call(2000, 5, || {
        mask.clear();
        Reference.matmul_a_bt_bias(&input, &w, &bias, m, k, n, &mut out, Some(&mut mask));
        black_box(&out);
    });
    metrics.insert("nn.matmul_a_bt_bias_gflops", rate(&secs, gemm_flops / 1e9));

    // Weight gradient of the first layer: grad_w[n×k] += gradᵀ[m×n] · x[m×k].
    let grad = pseudo(4, m * n);
    let mut acc = vec![0.0f32; n * k];
    let secs = per_call(2000, 5, || {
        Reference.matmul_at_b_accum(&grad, &input, m, n, k, &mut acc);
        black_box(&acc);
    });
    metrics.insert("nn.matmul_at_b_accum_gflops", rate(&secs, gemm_flops / 1e9));

    let lane_w = pseudo(5, LANES * n * k);
    let lane_bias = pseudo(6, LANES * n);
    let mut lane_out = vec![0.0f32; LANES * m * n];
    let mut lane_masks = vec![false; LANES * m * n];
    let secs = per_call(400, 5, || {
        Reference.lane_matmul_a_bt_bias(
            &input,
            true,
            &lane_w,
            &lane_bias,
            LANES,
            &active,
            m,
            k,
            n,
            &mut lane_out,
            Some(&mut lane_masks),
        );
        black_box(&lane_out);
    });
    metrics.insert(
        "nn.lane_matmul_gflops",
        rate(&secs, LANES as f64 * gemm_flops / 1e9),
    );

    let params = dense.param_count();
    let (x, y) = (pseudo(7, params), pseudo(8, params));
    let secs = per_call(5000, 5, || {
        black_box(Reference.dot(&x, &y));
    });
    metrics.insert("nn.dot_gflops", rate(&secs, 2.0 * params as f64 / 1e9));
}

/// `data` and `fl`: generation, solo vs lock-step FedAvg, the trajectory
/// cache's probe and insert, the FL utility's batch evaluation and the
/// fan-out's speed-up on it.
fn fl(metrics: &mut Metrics) {
    let generate = per_call(1, 3, || {
        black_box(Federation::generate(10, Model::Mlp));
    });
    metrics.insert("data.generate_ms", timed(&generate, 1e3));

    let fed = Federation::generate(10, Model::Mlp);
    let (input, classes) = (fed.test.n_features(), fed.test.n_classes());
    let block: Vec<Coalition> = (0..LANES)
        .map(|i| Coalition::from_members((0..5).map(|j| (i + j) % fed.n())))
        .collect();
    let solo = per_call(1, 2, || {
        for &c in &block {
            black_box(train_coalition(
                &fed.spec,
                &fed.clients,
                input,
                classes,
                c,
                &fed.fed,
            ));
        }
    });
    let lockstep = per_call(1, 2, || {
        black_box(train_coalitions_params(
            &fed.spec,
            &fed.clients,
            input,
            classes,
            &block,
            &fed.fed,
        ));
    });
    let solo_ms = timed(&solo, 1e3 / LANES as f64);
    let block_ms = timed(&lockstep, 1e3);
    metrics.insert(
        "fl.fedavg.lockstep_gain",
        Measured::single(LANES as f64 * solo_ms.value / block_ms.value),
    );
    metrics.insert("fl.fedavg.solo_train_ms", solo_ms);
    metrics.insert("fl.fedavg.block8_train_ms", block_ms);

    // 4096 distinct keys sharing one update vector of the MLP's size.
    const KEYS: usize = 4096;
    let delta = Arc::new(vec![
        0.0f32;
        fed.spec.build(input, classes, 0).param_count()
    ]);
    let key = |i: usize| (mix64(i as u64), i as u64, i % 10, i % 6);
    let mut cache = TrajectoryCache::new();
    let insert = per_call(1, 3, || {
        cache = TrajectoryCache::new();
        for i in 0..KEYS {
            let (hash, fingerprint, client, round) = key(i);
            cache.insert(hash, fingerprint, client, round, Arc::clone(&delta));
        }
    });
    metrics.insert("fl.trajcache.insert_ns", timed(&insert, 1e9 / KEYS as f64));
    let lookup = per_call(1, 5, || {
        for i in 0..KEYS {
            let (hash, fingerprint, client, round) = key(i);
            black_box(cache.lookup(hash, fingerprint, client, round));
        }
    });
    metrics.insert("fl.trajcache.lookup_ns", timed(&lookup, 1e9 / KEYS as f64));

    // 64 mixed-size coalitions in one batch: through the FL utility alone,
    // then through the fan-out at one and at two threads.
    let batch = mixed_coalitions(fed.n(), 64);
    let direct = fed.utility();
    let secs = per_call(1, 2, || {
        black_box(direct.eval_batch(&batch));
    });
    metrics.insert(
        "fl.utility.eval_ms_per_coalition",
        timed(&secs, 1e3 / batch.len() as f64),
    );
    let score = per_call(1, 5, || {
        black_box(direct.eval(Coalition::empty()));
    });
    metrics.insert("fl.utility.score_only_ms", timed(&score, 1e3));

    let fan_out = |threads| {
        let par = ParallelUtility::with_num_threads(fed.utility(), threads);
        let secs = per_call(1, 2, || {
            black_box(par.eval_batch(&batch));
        });
        best_of(&secs, Better::Lower)
    };
    let speedup = fan_out(1) / fan_out(2);
    metrics.insert("core.parallel.speedup_2t", Measured::single(speedup));
    metrics.insert("core.parallel.efficiency", Measured::single(speedup / 2.0));
}

/// A cheap 10-client game for the fixed per-request costs.
fn small_game() -> SaturatingUtility {
    SaturatingUtility::uniform(10, 0.1, 0.85, 0.6)
}

/// `core`: the memo's hit cost, the service's fixed cost per request and
/// every estimator's cost per sample on a utility that costs nothing.
fn core(metrics: &mut Metrics) -> Result<(), String> {
    let memo = CachedUtility::new(synthetic_game());
    let probes = mixed_coalitions(SYNTHETIC_CLIENTS, 4096);
    memo.eval_batch(&probes);
    let hits = per_call(1, 5, || {
        black_box(memo.eval_batch(&probes));
    });
    metrics.insert("core.cache.hit_ns", timed(&hits, 1e9 / probes.len() as f64));

    // Warm LOO through the service vs the same fold run directly over a
    // warm memo: what a request pays for the thread, the channel and the
    // coalescer when there is nothing to coalesce.
    let server = ValuationServer::start(small_game());
    let loo = Spec::fixed(Estimator::Loo, 0, 0);
    fatal(server.call(loo.request()), "warm-up")?;
    let mut broken = None;
    let through = per_call(1, 300, || {
        if let Err(e) = server.call(loo.request()) {
            broken = Some(e);
        }
    });
    server.shutdown();
    if let Some(e) = broken {
        return Err(format!("service overhead probe: {e}"));
    }
    let memo = CachedUtility::new(small_game());
    memo.eval_batch(&all_subsets(10).collect::<Vec<_>>());
    let direct = per_call(1, 300, || {
        black_box(leave_one_out(&memo));
    });
    let best = |xs: &[f64]| best_of(xs, Better::Lower);
    metrics.insert(
        "core.service.overhead_us",
        Measured::single((best(&through) - best(&direct)) * 1e6),
    );

    // Cost per sample through the service on the synthetic game: wall of
    // one request over the coalition values it consumed. Best of three;
    // the memo is warm from the first.
    let server = ValuationServer::start(synthetic_game());
    let mut per_sample = |name: &'static str, spec: Spec| -> Result<(), String> {
        let mut samples = Vec::with_capacity(3);
        for _ in 0..3 {
            let t = Instant::now();
            let resp = fatal(server.call(spec.request()), name)?;
            samples.push(t.elapsed().as_secs_f64() / resp.run.coalitions.max(1) as f64);
        }
        metrics.insert(name, timed(&samples, 1e9));
        Ok(())
    };
    use Estimator::*;
    let fixed = |e| Spec::fixed(e, 16_384, 7);
    per_sample("core.ipss.ns_per_sample", fixed(Ipss))?;
    per_sample("core.stratified_mc.ns_per_sample", fixed(StratifiedMc))?;
    per_sample("core.stratified_cc.ns_per_sample", fixed(StratifiedCc))?;
    per_sample("core.owen.ns_per_sample", fixed(Owen))?;
    per_sample("core.banzhaf_pruned.ns_per_sample", fixed(BanzhafPruned))?;
    let small = |e, mode| Spec::fixed(e, 4096, 7).with_mode(mode);
    per_sample(
        "core.ipss.stream_ns_per_sample",
        small(Ipss, Mode::Streaming),
    )?;
    per_sample(
        "core.stratified_mc.stream_ns_per_sample",
        small(StratifiedMc, Mode::Streaming),
    )?;
    per_sample(
        "core.owen.stream_ns_per_sample",
        small(Owen, Mode::Streaming),
    )?;
    per_sample(
        "core.ipss.adaptive_ns_per_sample",
        small(Ipss, Mode::Adaptive),
    )?;
    per_sample(
        "core.stratified_mc.adaptive_ns_per_sample",
        small(StratifiedMc, Mode::Adaptive),
    )?;
    per_sample(
        "core.owen.adaptive_ns_per_sample",
        small(Owen, Mode::Adaptive),
    )?;
    server.shutdown();

    // The exact sweep on 14 clients (16384 coalitions).
    let server = ValuationServer::start(SaturatingUtility::uniform(14, 0.1, 0.85, 0.6));
    let mut samples = Vec::with_capacity(3);
    for _ in 0..3 {
        let t = Instant::now();
        let resp = fatal(
            server.call(Spec::fixed(ExactMc, 0, 0).request()),
            "exact sweep",
        )?;
        samples.push(t.elapsed().as_secs_f64() / resp.run.coalitions.max(1) as f64);
    }
    server.shutdown();
    metrics.insert("core.exact_mc.ns_per_sample", timed(&samples, 1e9));

    // The three baselines that exist only as library calls: wall over the
    // utility lookups they make (a permutation costs up to n, a CC round 2).
    let memo = CachedUtility::new(synthetic_game());
    let mut baseline = |name: &'static str, run: &dyn Fn(&mut StdRng) -> Vec<f64>| {
        let samples: Vec<f64> = (0..3)
            .map(|_| {
                let before = memo.stats().lookups;
                let t = Instant::now();
                black_box(run(&mut StdRng::seed_from_u64(7)));
                t.elapsed().as_secs_f64() / (memo.stats().lookups - before).max(1) as f64
            })
            .collect();
        metrics.insert(name, timed(&samples, 1e9));
    };
    baseline("core.tmc.ns_per_sample", &|rng| {
        extended_tmc(&memo, &TmcConfig::new(4096 / SYNTHETIC_CLIENTS), rng)
    });
    baseline("core.gtb.ns_per_sample", &|rng| {
        extended_gtb_values(&memo, &GtbConfig::new(4096), rng)
    });
    baseline("core.ccshap.ns_per_sample", &|rng| {
        cc_shapley(&memo, &CcShapConfig::new(2048), rng)
    });
    Ok(())
}

/// `serve`: JSON parse/encode throughput, schema translation, and the
/// round trips of the cheapest endpoint and the cheapest valuation.
fn serve(metrics: &mut Metrics) -> Result<(), String> {
    let wire = fatal(
        WireServer::start(ValuationServer::start(small_game()), WireConfig::default()),
        "bind",
    )?;
    let valuation = wire.valuation();
    let sample = Spec::fixed(Estimator::Ipss, 64, 7);
    let response = fatal(valuation.call(sample.request()), "sample response")?;
    let (_, doc) = wire::encode_response(&response);
    let text = doc.encode();
    let megabytes = text.len() as f64 / 1e6;
    metrics.insert(
        "serve.bytes_per_response",
        Measured::single(text.len() as f64),
    );

    let secs = per_call(500, 5, || {
        black_box(json::parse(&text).is_ok());
    });
    metrics.insert("serve.json.parse_mb_s", rate(&secs, megabytes));
    let secs = per_call(500, 5, || {
        black_box(doc.encode());
    });
    metrics.insert("serve.json.encode_mb_s", rate(&secs, megabytes));
    let secs = per_call(500, 5, || {
        black_box(wire::encode_response(&response).1.encode());
    });
    metrics.insert("serve.wire.encode_response_us", timed(&secs, 1e6));

    // The whole request surface, as a client would send it.
    let request = r#"{"estimator":"stratified_mc","budget":48,"seed":9,"clients":[1,3,4],"deadline_ms":250.5,"max_evals":100,"on_limit":"fail","stopping":{"ci_at_most":0.05,"max_samples":64},"adaptive":{"round_size":8,"min_observations":3,"floor":2}}"#;
    let secs = per_call(500, 5, || {
        let parsed = json::parse(request).map(|doc| wire::parse_valuation_request(&doc).is_ok());
        black_box(parsed.is_ok());
    });
    metrics.insert("serve.wire.parse_request_us", timed(&secs, 1e6));

    let mut client = fatal(Client::connect(wire.addr()), "connect")?;
    let mut round_trip = |call: &mut dyn FnMut(&mut Client) -> std::io::Result<u16>| {
        let mut samples = Vec::with_capacity(300);
        for _ in 0..300 {
            let t = Instant::now();
            let status = fatal(call(&mut client), "round trip")?;
            samples.push(t.elapsed().as_secs_f64());
            if status != 200 {
                return Err(format!("round trip answered {status}"));
            }
        }
        Ok::<_, String>(samples)
    };
    let healthz = round_trip(&mut |c| c.get("/v1/healthz").map(|r| r.status))?;
    metrics.insert("serve.http.healthz_rtt_us", timed(&healthz, 1e6));

    // The same warm request over the socket and in process.
    let loo = Spec::fixed(Estimator::Loo, 0, 0);
    let body = loo.body();
    let posted = round_trip(&mut |c| c.post("/v1/value", &body).map(|r| r.status))?;
    let mut called = Vec::with_capacity(300);
    for _ in 0..300 {
        let t = Instant::now();
        fatal(valuation.call(loo.request()), "in-process call")?;
        called.push(t.elapsed().as_secs_f64());
    }
    let best = |xs: &[f64]| best_of(xs, Better::Lower);
    metrics.insert(
        "serve.overhead_us",
        Measured::single((best(&posted) - best(&called)) * 1e6),
    );
    drop(client);
    wire.shutdown();
    Ok(())
}

/// Every workload-independent per-layer metric.
pub fn measure(metrics: &mut Metrics) -> Result<(), String> {
    nn(metrics);
    fl(metrics);
    core(metrics)?;
    serve(metrics)
}
