//! service_throughput — tracks what the multi-valuation service is for:
//! many valuation requests against one FL training setup, answered
//! cheaper together than alone.
//!
//! One workload (six requests: exact MC/CC sweeps, IPSS, stratified MC,
//! Owen, LOO over one FedAvg utility), four serving modes:
//!
//! * **solo** — every request on its own fresh server (fresh coalition
//!   cache, fresh trajectory cache): the no-sharing baseline a
//!   per-request deployment would pay;
//! * **sequential** — one long-lived server, requests submitted one at a
//!   time (1 concurrent run): sharing via the caches only;
//! * **concurrent** — the same server fed all requests at once (N
//!   concurrent runs): sharing plus coalescing under the all-runs-parked
//!   barrier, where each flush evaluates the cheapest parked batch and
//!   delivers every batch the shared cache then covers;
//! * **windowed** — concurrent again, with the bounded-latency flush
//!   window (5 ms): a batch that has waited 5 ms is flushed next,
//!   whatever its cost and whether or not its peers have parked.
//!
//! All four modes must return **bit-identical** values per request (the
//! determinism contract), and the shared modes must train strictly fewer
//! models and local updates than the solo sum. Requests/sec per mode, the
//! training counts, the dedup factor and per-mode park-wait latency
//! percentiles (p50/p99 of each run's longest wait at the coalescer — the
//! tail the flush window exists to bound) go to `BENCH_service.json` at
//! the workspace root, stamped with `machine_cores`/`rayon_num_threads`
//! like every tracking report.
//!
//! A fifth section measures **anytime** valuation: for Owen and
//! stratified-MC requests over a spread of seeds, a fixed-budget run is
//! compared with a same-seed run stopped by `CiAtMost(ε)` at the CI the
//! fixed budget *guarantees* (twice the full run's final half-width —
//! both runs satisfy the target, the anytime run just stops as soon as
//! it does). p50/p99 `samples_used` for both and the evals-saved factor
//! go into the report; the Owen problem must save ≥ 2×.
//!
//! Knobs: `FEDVAL_SERVICE_N=<clients>` (default 7; `FEDVAL_QUICK=1` drops
//! to 5), `FEDVAL_SERVICE_JSON=<path>` to redirect the report.

// Bench driver: measurement harness code panics on setup failure by
// design; unwrap/expect are the error mechanism here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::Write as _;
use std::time::{Duration, Instant};

use fedval_bench::quick;
use fedval_core::owen::OwenConfig;
use fedval_core::service::{Estimator, ValuationRequest, ValuationResponse};
use fedval_data::{MnistLike, SyntheticSetup};
use fedval_fl::service::{serve, FlServiceConfig};
use fedval_fl::{FedAvgConfig, FlUtility, ModelSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

const WINDOW: Duration = Duration::from_millis(5);

fn n_clients() -> usize {
    if let Ok(v) = std::env::var("FEDVAL_SERVICE_N") {
        return v.parse().expect("FEDVAL_SERVICE_N must be a client count");
    }
    if quick() {
        5
    } else {
        7
    }
}

fn fl_utility(n: usize) -> FlUtility {
    let gen = MnistLike::new(0x5EF);
    let (train, test) = gen.generate_split(24 * n, 96, 0x5F0);
    let mut rng = StdRng::seed_from_u64(0x5F1);
    let clients = SyntheticSetup::SameSizeSameDist.partition(&train, n, &mut rng);
    FlUtility::new(
        clients,
        test,
        ModelSpec::default_mlp(),
        FedAvgConfig {
            rounds: 2,
            local_epochs: 1,
            seed: 0x5F2,
            ..Default::default()
        },
    )
}

fn requests(n: usize) -> Vec<ValuationRequest> {
    let gamma = (1usize << n) / 4;
    vec![
        ValuationRequest::new(Estimator::ExactMc, 0, 1),
        ValuationRequest::new(Estimator::ExactCc, 0, 2),
        ValuationRequest::new(Estimator::Ipss, gamma, 3),
        ValuationRequest::new(Estimator::StratifiedMc, gamma, 4),
        ValuationRequest::new(Estimator::Owen, n * (n + 1), 5),
        ValuationRequest::new(Estimator::Loo, 0, 6),
    ]
}

struct Mode {
    secs: f64,
    values: Vec<Vec<f64>>,
    evaluations: usize,
    local_trainings: usize,
    /// Each run's longest park wait at the coalescer, in seconds.
    park_waits: Vec<f64>,
}

/// Percentile (0..=100) of a small sample, nearest-rank.
fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Serve the workload: `solo` = fresh server per request (the
/// no-sharing baseline), otherwise one server with all requests in
/// flight (`concurrent`, optionally windowed) or one at a time.
fn run_mode(
    n: usize,
    reqs: &[ValuationRequest],
    concurrent: bool,
    solo: bool,
    window: Option<Duration>,
) -> Mode {
    let cfg = FlServiceConfig {
        flush_max_wait: window,
        ..Default::default()
    };
    let start = Instant::now();
    let mut values = Vec::new();
    let mut park_waits = Vec::new();
    let mut evaluations = 0;
    let mut local_trainings = 0;
    let mut finish = |responses: Vec<ValuationResponse>, evals: usize, trainings: usize| {
        park_waits.extend(responses.iter().map(|r| r.run.park_wait_max.as_secs_f64()));
        values.extend(responses.into_iter().map(|r| r.values));
        evaluations += evals;
        local_trainings += trainings;
    };
    if solo {
        for req in reqs {
            let (server, _cache) = serve(fl_utility(n), cfg);
            let resp = server.call(req.clone()).expect("healthy run");
            let stats = server.stats();
            finish(
                vec![resp],
                stats.eval.evaluations,
                stats.traj.expect("traj wired").local_trainings,
            );
            server.shutdown();
        }
    } else {
        let (server, _cache) = serve(fl_utility(n), cfg);
        let responses: Vec<ValuationResponse> = if concurrent {
            let tickets: Vec<_> = reqs.iter().map(|r| server.submit(r.clone())).collect();
            tickets
                .into_iter()
                .map(|t| t.wait().expect("healthy run"))
                .collect()
        } else {
            reqs.iter()
                .map(|r| server.call(r.clone()).expect("healthy run"))
                .collect()
        };
        let stats = server.stats();
        finish(
            responses,
            stats.eval.evaluations,
            stats.traj.expect("traj wired").local_trainings,
        );
        server.shutdown();
    }
    Mode {
        secs: start.elapsed().as_secs_f64(),
        values,
        evaluations,
        local_trainings,
        park_waits,
    }
}

/// One estimator's fixed-budget vs CI-stopped comparison, over seeds.
struct Anytime {
    label: &'static str,
    n_clients: usize,
    budget: usize,
    seeds: usize,
    /// `samples_used` of each full (fixed-budget) run.
    fixed_samples: Vec<f64>,
    /// `samples_used` of each same-seed CI-stopped run.
    stopped_samples: Vec<f64>,
    /// Runs whose stopping rule actually fired before the schedule end.
    stopped_early: usize,
}

impl Anytime {
    /// Mean evals of the fixed-budget runs over the CI-stopped runs —
    /// the work saved at a matched CI target.
    fn saved_factor(&self) -> f64 {
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        mean(&self.fixed_samples) / mean(&self.stopped_samples).max(1.0)
    }
}

/// Fixed budget vs CI-stopped at a matched target, on a shared server
/// (the coalition/trajectory caches change cost, not `samples_used`,
/// which counts the estimator's own schedule).
fn run_anytime(
    server: &fedval_fl::service::FlValuationServer,
    label: &'static str,
    n_clients: usize,
    estimator: Estimator,
    budget: usize,
    seeds: usize,
) -> Anytime {
    use fedval_core::anytime::StoppingRule;
    let mut out = Anytime {
        label,
        n_clients,
        budget,
        seeds,
        fixed_samples: Vec::new(),
        stopped_samples: Vec::new(),
        stopped_early: 0,
    };
    let samples = |resp: &ValuationResponse| -> f64 {
        resp.progress
            .as_ref()
            .map(|s| s.samples_used as f64)
            .expect("streaming response carries a snapshot")
    };
    for seed in 0..seeds as u64 {
        let req = ValuationRequest::new(estimator, budget, 0xA0 + seed);
        // The fixed-budget run: what a non-anytime deployment pays, and
        // the CI it certifies at the end.
        let full = server
            .call(req.clone().with_stopping(StoppingRule::stream_only()))
            .expect("healthy run");
        let h_full = full
            .progress
            .as_ref()
            .expect("streaming response carries a snapshot")
            .max_halfwidth()
            .unwrap_or(f64::INFINITY);
        out.fixed_samples.push(samples(&full));
        // Matched target: both runs certify CI ≤ 2·h_full; the anytime
        // run stops at the first batch boundary that reaches it.
        let eps = if h_full.is_finite() {
            2.0 * h_full
        } else {
            f64::INFINITY
        };
        let stopped = server
            .call(req.with_stopping(StoppingRule::ci_at_most(eps)))
            .expect("healthy run");
        out.stopped_samples.push(samples(&stopped));
        out.stopped_early += stopped.run.stopped_early as usize;
    }
    out
}

fn print_anytime(a: &Anytime) {
    println!(
        "anytime {:13} n {:2} budget {:4}  fixed p50 {:6.0} p99 {:6.0}  \
         stopped p50 {:6.0} p99 {:6.0}  saved {:.2}x  ({}/{} stopped early)",
        a.label,
        a.n_clients,
        a.budget,
        percentile(&a.fixed_samples, 50.0),
        percentile(&a.fixed_samples, 99.0),
        percentile(&a.stopped_samples, 50.0),
        percentile(&a.stopped_samples, 99.0),
        a.saved_factor(),
        a.stopped_early,
        a.seeds,
    );
}

fn anytime_json(a: &Anytime) -> String {
    format!(
        "{{\"estimator\": \"{}\", \"n_clients\": {}, \"budget\": {}, \"seeds\": {}, \
         \"fixed_samples_p50\": {:.1}, \"fixed_samples_p99\": {:.1}, \
         \"stopped_samples_p50\": {:.1}, \"stopped_samples_p99\": {:.1}, \
         \"evals_saved_factor\": {:.4}, \"stopped_early\": {}}}",
        a.label,
        a.n_clients,
        a.budget,
        a.seeds,
        percentile(&a.fixed_samples, 50.0),
        percentile(&a.fixed_samples, 99.0),
        percentile(&a.stopped_samples, 50.0),
        percentile(&a.stopped_samples, 99.0),
        a.saved_factor(),
        a.stopped_early,
    )
}

/// A symmetric heteroscedastic game for the adaptive section: the value
/// depends on the coalition *size* only, with hash noise confined to
/// sizes 1–2. Owen contributions are then identical across clients (no
/// between-client spread to confuse the planner's pooled variances)
/// while their per-draw variance concentrates at the low-`q` grid nodes:
/// the `q = 0` and `q = 1` nodes draw a constant coalition size and are
/// exactly noiseless, the low-`q` interior node straddles the noisy
/// sizes and carries nearly all of the spread — the regime Neyman
/// allocation exists for.
struct SizeNoisyUtility {
    n: usize,
}

impl fedval_core::utility::Utility for SizeNoisyUtility {
    fn n_clients(&self) -> usize {
        self.n
    }
    fn eval(&self, s: fedval_core::coalition::Coalition) -> f64 {
        let base = s.size() as f64 * 0.5;
        if (1..=2).contains(&s.size()) {
            // splitmix-style size hash: deterministic, seed-free noise.
            let mut x = (s.size() as u64) ^ 0x9E37_79B9_7F4A_7C15;
            x ^= x >> 33;
            x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            x ^= x >> 33;
            base + (x as f64 / u64::MAX as f64 - 0.5) * 0.6
        } else {
            base
        }
    }
}

/// Uniform vs adaptive (Neyman re-planned) stratified MC at a matched CI
/// target, over seeds, on the heteroscedastic game.
struct AdaptiveBench {
    n_clients: usize,
    budget: usize,
    seeds: usize,
    uniform_samples: Vec<f64>,
    adaptive_samples: Vec<f64>,
    /// Final cumulative per-stratum draw counts of the first seed's
    /// adaptive run — the allocation trace the planner converged to.
    final_allocation: Vec<usize>,
}

impl AdaptiveBench {
    fn saved_factor(&self) -> f64 {
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        mean(&self.uniform_samples) / mean(&self.adaptive_samples).max(1.0)
    }
}

/// For each seed: derive the target CI from a full uniform run (exactly
/// the half-width its whole budget certifies), then race the uniform and
/// the adaptive schedule to that target under `CiAtMost` and compare
/// `samples_used` — "the evaluations needed to match what the uniform
/// budget buys". Drives the streaming estimators directly: the steering
/// question is about the schedule, and an 8-node grid separates the
/// noisy low-q nodes from the noiseless rest far better than the
/// service's fixed 4-node derivation.
fn run_adaptive_bench(n: usize, q_nodes: usize, per_node: usize, seeds: usize) -> AdaptiveBench {
    use fedval_core::adaptive::AdaptivePolicy;
    use fedval_core::anytime::{Control, StoppingRule};
    use fedval_core::owen::owen_sampling_streaming;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let u = SizeNoisyUtility { n };
    let cfg = OwenConfig::new(q_nodes, per_node);
    // Per-client CIs need two observations per node before they go
    // finite, so the exploration floor must keep feeding each node until
    // two draws (2·n pooled contributions) have landed.
    let policy = AdaptivePolicy {
        min_observations: 2 * n,
        ..AdaptivePolicy::default()
    };
    let mut out = AdaptiveBench {
        n_clients: n,
        budget: cfg.evaluations(n),
        seeds,
        uniform_samples: Vec::new(),
        adaptive_samples: Vec::new(),
        final_allocation: Vec::new(),
    };
    for seed in 0..seeds as u64 {
        // Derive the target from a *different* seed than the raced runs:
        // a same-seed uniform race would retrace the very trajectory the
        // target came from and stop at its first favourable dip, biasing
        // the comparison toward uniform.
        let full = owen_sampling_streaming(
            &u,
            &cfg,
            None,
            &mut StdRng::seed_from_u64(0xE0 + seed),
            |_| Control::Continue,
        );
        let eps = full.ci_halfwidths.iter().fold(0.0f64, |a, &b| a.max(b));
        assert!(eps.is_finite(), "the full run must certify a CI");
        let rule = StoppingRule::ci_at_most(eps);
        let race = |s: &fedval_core::anytime::ProgressSnapshot| {
            if rule.should_stop(s) {
                Control::Stop
            } else {
                Control::Continue
            }
        };
        let uniform = owen_sampling_streaming(
            &u,
            &cfg,
            None,
            &mut StdRng::seed_from_u64(0xB0 + seed),
            race,
        );
        out.uniform_samples.push(uniform.samples_used as f64);
        let adaptive = owen_sampling_streaming(
            &u,
            &cfg,
            Some(&policy),
            &mut StdRng::seed_from_u64(0xB0 + seed),
            race,
        );
        out.adaptive_samples.push(adaptive.samples_used as f64);
        if seed == 0 {
            out.final_allocation = adaptive
                .allocation
                .expect("adaptive outcome carries the allocation");
        }
    }
    out
}

fn print_adaptive(a: &AdaptiveBench) {
    println!(
        "adaptive owen         n {:2} budget {:4}  uniform p50 {:6.0} p99 {:6.0}  \
         adaptive p50 {:6.0} p99 {:6.0}  saved {:.2}x  final allocation {:?}",
        a.n_clients,
        a.budget,
        percentile(&a.uniform_samples, 50.0),
        percentile(&a.uniform_samples, 99.0),
        percentile(&a.adaptive_samples, 50.0),
        percentile(&a.adaptive_samples, 99.0),
        a.saved_factor(),
        a.final_allocation,
    );
}

fn adaptive_json(a: &AdaptiveBench) -> String {
    let alloc: Vec<String> = a.final_allocation.iter().map(usize::to_string).collect();
    format!(
        "{{\"estimator\": \"owen\", \"n_clients\": {}, \"budget\": {}, \"seeds\": {}, \
         \"uniform_samples_p50\": {:.1}, \"uniform_samples_p99\": {:.1}, \
         \"adaptive_samples_p50\": {:.1}, \"adaptive_samples_p99\": {:.1}, \
         \"evals_saved_factor\": {:.4}, \"final_allocation\": [{}]}}",
        a.n_clients,
        a.budget,
        a.seeds,
        percentile(&a.uniform_samples, 50.0),
        percentile(&a.uniform_samples, 99.0),
        percentile(&a.adaptive_samples, 50.0),
        percentile(&a.adaptive_samples, 99.0),
        a.saved_factor(),
        alloc.join(", "),
    )
}

fn print_mode(label: &str, m: &Mode, r: usize) {
    println!(
        "{label:11} {:8.3}s  {:6.2} req/s  {:5} models  {:6} local trainings  \
         park wait p50 {:6.1}ms p99 {:6.1}ms",
        m.secs,
        r as f64 / m.secs,
        m.evaluations,
        m.local_trainings,
        percentile(&m.park_waits, 50.0) * 1e3,
        percentile(&m.park_waits, 99.0) * 1e3,
    );
}

fn mode_json(m: &Mode, r: usize) -> String {
    format!(
        "{{\"seconds\": {:.6}, \"requests_per_sec\": {:.4}, \"models_trained\": {}, \
         \"local_trainings\": {}, \"park_wait_p50_ms\": {:.3}, \"park_wait_p99_ms\": {:.3}}}",
        m.secs,
        r as f64 / m.secs,
        m.evaluations,
        m.local_trainings,
        percentile(&m.park_waits, 50.0) * 1e3,
        percentile(&m.park_waits, 99.0) * 1e3,
    )
}

fn main() {
    let n = n_clients();
    let reqs = requests(n);
    let r = reqs.len();
    println!("service_throughput: n = {n} clients, {r} valuation requests");

    let solo = run_mode(n, &reqs, false, true, None);
    print_mode("solo", &solo, r);
    let sequential = run_mode(n, &reqs, false, false, None);
    print_mode("sequential", &sequential, r);
    let concurrent = run_mode(n, &reqs, true, false, None);
    print_mode("concurrent", &concurrent, r);
    let windowed = run_mode(n, &reqs, true, false, Some(WINDOW));
    print_mode("windowed", &windowed, r);

    let identical = solo.values == sequential.values
        && solo.values == concurrent.values
        && solo.values == windowed.values;
    let dedup_models = solo.evaluations as f64 / concurrent.evaluations as f64;
    let dedup_trainings = solo.local_trainings as f64 / concurrent.local_trainings as f64;
    println!(
        "dedup vs solo: {dedup_models:.2}x models, {dedup_trainings:.2}x local trainings, \
         values bit-identical: {identical}"
    );
    assert!(identical, "served values diverged from solo execution");
    assert!(
        concurrent.evaluations < solo.evaluations,
        "shared coalition cache must dedup across runs"
    );
    assert!(
        concurrent.local_trainings < solo.local_trainings,
        "shared trajectory cache must dedup across runs"
    );

    // Anytime section: fixed budget vs CI-stopped at a matched target,
    // per estimator over a seed spread, on a shared server per problem —
    // the caches cut wall-clock cost but leave `samples_used` untouched.
    // Owen gets a few more clients than the throughput workload: its
    // savings question is only interesting while the schedule samples
    // the coalition space rather than enumerating it. Stratified MC
    // stays at the workload size — its per-(client, stratum) CI only
    // goes finite once the strata are nearly covered, so the honest
    // comparison runs where that happens.
    let seeds = 12;
    let n_any = n + 3;
    let (server, _cache) = serve(fl_utility(n_any), FlServiceConfig::default());
    // 16 draws per node on the grid the service derives from a budget.
    let owen_grid = OwenConfig {
        samples_per_node: 16,
        ..OwenConfig::for_budget(n_any, 0)
    };
    let owen = run_anytime(
        &server,
        "owen",
        n_any,
        Estimator::Owen,
        owen_grid.evaluations(n_any),
        seeds,
    );
    print_anytime(&owen);
    server.shutdown();
    let (server, _cache) = serve(fl_utility(n), FlServiceConfig::default());
    let stratified = run_anytime(
        &server,
        "stratified_mc",
        n,
        Estimator::StratifiedMc,
        30 * n,
        seeds,
    );
    print_anytime(&stratified);
    server.shutdown();
    assert!(
        owen.saved_factor() >= 2.0,
        "anytime Owen must save >= 2x evaluations at a matched CI, got {:.2}x",
        owen.saved_factor()
    );

    // Adaptive section: uniform vs Neyman-re-planned Owen racing to the
    // same CI target on a heteroscedastic game (noise confined to the
    // small coalition sizes, so the low-q grid nodes carry nearly all
    // the contribution variance). Same per-node depth as the anytime
    // Owen workload: 16 draws/node.
    let adaptive = run_adaptive_bench(10, 8, 16, seeds);
    print_adaptive(&adaptive);
    assert!(
        adaptive.saved_factor() >= 1.5,
        "adaptive allocation must save >= 1.5x evaluations at a matched CI, got {:.2}x",
        adaptive.saved_factor()
    );

    let path = std::env::var("FEDVAL_SERVICE_JSON")
        .unwrap_or_else(|_| format!("{}/../../BENCH_service.json", env!("CARGO_MANIFEST_DIR")));
    let report = format!(
        "{{\n  \"bench\": \"service_throughput\",\n  \"scenario\": \"6 valuation requests (exact MC/CC, IPSS, stratified MC, Owen, LOO) over one FedAvg utility: fresh server per request (solo) vs one server at 1 (sequential) and N (concurrent) requests in flight, plus concurrent under a {window_ms} ms bounded-latency flush window (windowed), plus fixed-budget vs CiAtMost-stopped anytime runs at a matched CI target, plus uniform vs Neyman-adaptive Owen schedules racing to a matched CI on a heteroscedastic game\",\n  \"n_clients\": {n},\n  \"requests\": {r},\n  \"flush_window_ms\": {window_ms},\n  {},\n  \"solo\": {},\n  \"sequential\": {},\n  \"concurrent\": {},\n  \"windowed\": {},\n  \"dedup_factor_models\": {dedup_models:.4},\n  \"dedup_factor_local_trainings\": {dedup_trainings:.4},\n  \"values_bit_identical\": {identical},\n  \"anytime\": [\n    {},\n    {}\n  ],\n  \"adaptive\": {}\n}}\n",
        fedval_bench::parallelism_json_fields(),
        mode_json(&solo, r),
        mode_json(&sequential, r),
        mode_json(&concurrent, r),
        mode_json(&windowed, r),
        anytime_json(&owen),
        anytime_json(&stratified),
        adaptive_json(&adaptive),
        window_ms = WINDOW.as_millis(),
    );
    let mut file = std::fs::File::create(&path).expect("create BENCH_service.json");
    file.write_all(report.as_bytes())
        .expect("write BENCH_service.json");
    println!("wrote {path}");
}
