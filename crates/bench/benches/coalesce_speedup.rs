//! coalesce_speedup — tracks the wall-clock benefit of lock-step
//! multi-coalition training over the PR 1 serial-training path on the
//! workload that dominates valuation cost: an exact SV sweep (all `2^n`
//! FedAvg train+evaluate cycles) over an FL-backed utility.
//!
//! Two runs of the same sweep:
//!
//! * **serial** — the PR 1 path: each coalition trained alone through the
//!   solo `train_coalition` loop and scored with `Network::accuracy`;
//! * **batched** — `FlUtility::eval_batch` grouping coalitions into
//!   size-sorted lane blocks of `B` and training each block in lock-step
//!   (`train_coalitions`), sharing the data pass, batch gathers, shuffle
//!   streams and layer-0 activation loads across lanes and skipping the
//!   first layer's unused input gradient.
//!
//! The two runs must produce **bit-identical** utility values — the
//! determinism contract — and both throughputs (utility evaluations per
//! second) are written to `BENCH_coalesce.json` at the workspace root so
//! later PRs can track the trajectory. Target: ≥ 1.5× at B = 8 on a
//! single core (the win is arithmetic + locality, not thread fan-out;
//! thread scaling is tracked separately by `par_speedup`).
//!
//! Knobs: `FEDVAL_COALESCE_N=<clients>` (default 7; `FEDVAL_QUICK=1`
//! drops to 5), `FEDVAL_COALESCE_B=<lanes>` (default 8),
//! `FEDVAL_COALESCE_JSON=<path>` to redirect the report.

// Bench driver: measurement harness code panics on setup failure by
// design; unwrap/expect are the error mechanism here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::Write as _;
use std::time::Instant;

use fedval_bench::quick;
use fedval_core::coalition::Coalition;
use fedval_core::utility::Utility;
use fedval_data::{MnistLike, SyntheticSetup};
use fedval_fl::{train_coalition, FedAvgConfig, FlUtility, ModelSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn n_clients() -> usize {
    if let Ok(v) = std::env::var("FEDVAL_COALESCE_N") {
        return v.parse().expect("FEDVAL_COALESCE_N must be a client count");
    }
    if quick() {
        5
    } else {
        7
    }
}

fn lane_block() -> usize {
    std::env::var("FEDVAL_COALESCE_B")
        .map(|v| v.parse().expect("FEDVAL_COALESCE_B must be a lane count"))
        .unwrap_or(8)
}

/// A small but real FL utility: every evaluation is a genuine FedAvg
/// train + test-accuracy cycle over the coalition's datasets.
fn fl_utility(n: usize, lane_block: usize) -> FlUtility {
    let gen = MnistLike::new(0xC0A);
    let (train, test) = gen.generate_split(24 * n, 96, 0xC0B);
    let mut rng = StdRng::seed_from_u64(0xC0C);
    let clients = SyntheticSetup::SameSizeSameDist.partition(&train, n, &mut rng);
    FlUtility::new(
        clients,
        test,
        ModelSpec::default_mlp(),
        FedAvgConfig {
            rounds: 2,
            local_epochs: 2,
            batch_size: 16,
            lr: 0.15,
            seed: 0xC0D,
            ..Default::default()
        },
    )
    .with_lane_block(lane_block)
}

struct Run {
    label: &'static str,
    secs: f64,
    values: Vec<f64>,
    evals_per_sec: f64,
}

/// Repetitions per path; the fastest is kept (min-time benchmarking — the
/// best observation is the least-perturbed one on a shared machine).
const REPS: usize = 5;

fn sweep(label: &'static str, u: &FlUtility, coalitions: &[Coalition], batched: bool) -> Run {
    let mut best: Option<(f64, Vec<f64>)> = None;
    for _ in 0..REPS {
        let start = Instant::now();
        let values: Vec<f64> = if batched {
            u.eval_batch(coalitions)
        } else {
            // The PR 1 serial-training path: one solo FedAvg cycle per
            // coalition, no lane coalescing.
            let (input, classes) = (u.test_set().n_features(), u.test_set().n_classes());
            coalitions
                .iter()
                .map(|&s| {
                    train_coalition(u.spec(), u.clients(), input, classes, s, u.config())
                        .accuracy(u.test_set())
                })
                .collect()
        };
        let secs = start.elapsed().as_secs_f64();
        if let Some((prev, prev_values)) = &best {
            assert_eq!(values, *prev_values, "non-deterministic sweep");
            if secs < *prev {
                best = Some((secs, values));
            }
        } else {
            best = Some((secs, values));
        }
    }
    let (secs, values) = best.expect("at least one rep");
    Run {
        label,
        secs,
        values,
        evals_per_sec: coalitions.len() as f64 / secs,
    }
}

fn main() {
    let n = n_clients();
    let b = lane_block();
    let coalitions: Vec<Coalition> = fedval_core::coalition::all_subsets(n).collect();
    println!(
        "coalesce_speedup: n = {n} clients, {} coalitions, lane block B = {b}",
        coalitions.len()
    );

    let u = fl_utility(n, b);
    let serial = sweep("serial", &u, &coalitions, false);
    println!(
        "serial   {:8.3}s  ({:7.2} evals/s)",
        serial.secs, serial.evals_per_sec
    );
    let batched = sweep("batched", &u, &coalitions, true);
    println!(
        "batched  {:8.3}s  ({:7.2} evals/s)",
        batched.secs, batched.evals_per_sec
    );

    let identical = serial.values == batched.values;
    let speedup = serial.secs / batched.secs;
    println!("speedup: {speedup:.2}x  values bit-identical: {identical}");
    assert!(identical, "batched values diverged from serial values");

    let path = std::env::var("FEDVAL_COALESCE_JSON")
        .unwrap_or_else(|_| format!("{}/../../BENCH_coalesce.json", env!("CARGO_MANIFEST_DIR")));
    let report = format!(
        "{{\n  \"bench\": \"coalesce_speedup\",\n  \"scenario\": \"exact SV sweep over FL-backed utility (synthetic MNIST, FedAvg {} rounds x {} epochs), lock-step lane blocks vs solo per-coalition training\",\n  \"n_clients\": {n},\n  \"coalitions\": {},\n  \"lane_block\": {b},\n  {},\n  \"serial\": {{\"path\": \"{}\", \"seconds\": {:.6}, \"evals_per_sec\": {:.4}}},\n  \"batched\": {{\"path\": \"{}\", \"seconds\": {:.6}, \"evals_per_sec\": {:.4}}},\n  \"speedup\": {:.4},\n  \"values_bit_identical\": {identical}\n}}\n",
        2,
        2,
        coalitions.len(),
        fedval_bench::parallelism_json_fields(),
        serial.label,
        serial.secs,
        serial.evals_per_sec,
        batched.label,
        batched.secs,
        batched.evals_per_sec,
        speedup,
    );
    let mut file = std::fs::File::create(&path).expect("create BENCH_coalesce.json");
    file.write_all(report.as_bytes())
        .expect("write BENCH_coalesce.json");
    println!("wrote {path}");
}
