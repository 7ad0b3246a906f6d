//! trajcache_speedup — tracks what the cross-block trajectory cache
//! removes from the dominant valuation workload: an exact SV sweep (all
//! `2^n` FedAvg train+evaluate cycles) over an FL-backed utility,
//! evaluated through lock-step lane blocks.
//!
//! Two runs of the same sweep, both through `FlUtility::eval_batch` with
//! lane blocks of `B`:
//!
//! * **uncached** — a counting-only `TrajectoryCache` handle: the training
//!   path is unchanged (every block re-pays its round-0 local trainings),
//!   but every local training is counted;
//! * **cached** — a live shared cache: local trainings bit-equal across
//!   blocks are paid once per sweep (all of round 0 collapses to one
//!   training per client) and replayed everywhere else.
//!
//! The two runs must produce **bit-identical** utility values — the
//! determinism contract — and the measured local-training counts must
//! drop by at least the round-0 dedup (uncached round-0 trainings collapse
//! to one per client). Counts, timings and the dedup factor go to
//! `BENCH_trajcache.json` at the workspace root, stamped with
//! `machine_cores`/`rayon_num_threads` like every tracking report.
//!
//! Knobs: `FEDVAL_TRAJ_N=<clients>` (default 8; `FEDVAL_QUICK=1` drops to
//! 5), `FEDVAL_TRAJ_B=<lanes>` (default 8), `FEDVAL_TRAJ_JSON=<path>` to
//! redirect the report.

// Bench driver: measurement harness code panics on setup failure by
// design; unwrap/expect are the error mechanism here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

use fedval_bench::quick;
use fedval_core::coalition::Coalition;
use fedval_core::utility::{TrajCacheStats, Utility};
use fedval_data::{MnistLike, SyntheticSetup};
use fedval_fl::{FedAvgConfig, FlUtility, ModelSpec, TrajectoryCache};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn n_clients() -> usize {
    if let Ok(v) = std::env::var("FEDVAL_TRAJ_N") {
        return v.parse().expect("FEDVAL_TRAJ_N must be a client count");
    }
    if quick() {
        5
    } else {
        8
    }
}

fn lane_block() -> usize {
    std::env::var("FEDVAL_TRAJ_B")
        .map(|v| v.parse().expect("FEDVAL_TRAJ_B must be a lane count"))
        .unwrap_or(8)
}

fn fl_utility(n: usize, lane_block: usize, cache: Arc<TrajectoryCache>) -> FlUtility {
    let gen = MnistLike::new(0x7C0);
    let (train, test) = gen.generate_split(24 * n, 96, 0x7C1);
    let mut rng = StdRng::seed_from_u64(0x7C2);
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
            seed: 0x7C3,
            ..Default::default()
        },
    )
    .with_lane_block(lane_block)
    .with_traj_cache(cache)
}

struct Run {
    secs: f64,
    values: Vec<f64>,
    stats: TrajCacheStats,
}

/// Repetitions per path; the fastest is kept (min-time benchmarking). A
/// fresh cache per rep so stats describe exactly one sweep.
const REPS: usize = 3;

fn sweep(n: usize, b: usize, coalitions: &[Coalition], cached: bool) -> Run {
    let mut best: Option<Run> = None;
    for _ in 0..REPS {
        let cache = Arc::new(if cached {
            TrajectoryCache::new()
        } else {
            TrajectoryCache::counting_only()
        });
        let u = fl_utility(n, b, Arc::clone(&cache));
        let start = Instant::now();
        let values = u.eval_batch(coalitions);
        let secs = start.elapsed().as_secs_f64();
        let stats = cache.stats();
        if let Some(prev) = &best {
            assert_eq!(values, prev.values, "non-deterministic sweep");
            assert_eq!(stats, prev.stats, "non-deterministic training counts");
            if secs < prev.secs {
                best = Some(Run {
                    secs,
                    values,
                    stats,
                });
            }
        } else {
            best = Some(Run {
                secs,
                values,
                stats,
            });
        }
    }
    best.expect("at least one rep")
}

fn main() {
    let n = n_clients();
    let b = lane_block();
    let coalitions: Vec<Coalition> = fedval_core::coalition::all_subsets(n).collect();
    let blocks = coalitions.len().div_ceil(b);
    println!(
        "trajcache_speedup: n = {n} clients, {} coalitions, lane block B = {b} ({blocks} blocks)",
        coalitions.len()
    );

    let uncached = sweep(n, b, &coalitions, false);
    println!(
        "uncached {:8.3}s  {} local trainings ({} in round 0)",
        uncached.secs, uncached.stats.local_trainings, uncached.stats.round0_trainings
    );
    let cached = sweep(n, b, &coalitions, true);
    println!(
        "cached   {:8.3}s  {} local trainings ({} in round 0, {} hits)",
        cached.secs, cached.stats.local_trainings, cached.stats.round0_trainings, cached.stats.hits
    );

    let identical = uncached.values == cached.values;
    let speedup = uncached.secs / cached.secs;
    let round0_dedup =
        uncached.stats.round0_trainings as f64 / cached.stats.round0_trainings as f64;
    let trainings_saved = uncached.stats.local_trainings - cached.stats.local_trainings;
    println!(
        "speedup: {speedup:.2}x  trainings saved: {trainings_saved}  \
         round-0 dedup: {round0_dedup:.2}x  values bit-identical: {identical}"
    );
    assert!(identical, "cached values diverged from uncached values");
    assert_eq!(
        cached.stats.round0_trainings, n,
        "round 0 must cost exactly one local training per client per sweep"
    );
    assert!(
        trainings_saved >= uncached.stats.round0_trainings - n,
        "savings must cover at least the round-0 dedup"
    );

    let path = std::env::var("FEDVAL_TRAJ_JSON")
        .unwrap_or_else(|_| format!("{}/../../BENCH_trajcache.json", env!("CARGO_MANIFEST_DIR")));
    let report = format!(
        "{{\n  \"bench\": \"trajcache_speedup\",\n  \"scenario\": \"exact SV sweep over FL-backed utility (synthetic MNIST, FedAvg {} rounds x {} epochs), cross-block trajectory cache vs counting-only baseline, lane blocks of B\",\n  \"n_clients\": {n},\n  \"coalitions\": {},\n  \"lane_block\": {b},\n  \"lane_blocks_total\": {blocks},\n  {},\n  \"uncached\": {{\"seconds\": {:.6}, \"local_trainings\": {}, \"round0_trainings\": {}, \"probes\": {}, \"hits\": {}}},\n  \"cached\": {{\"seconds\": {:.6}, \"local_trainings\": {}, \"round0_trainings\": {}, \"probes\": {}, \"hits\": {}}},\n  \"speedup\": {:.4},\n  \"local_trainings_saved\": {trainings_saved},\n  \"round0_dedup_factor\": {round0_dedup:.4},\n  \"values_bit_identical\": {identical}\n}}\n",
        2,
        2,
        coalitions.len(),
        fedval_bench::parallelism_json_fields(),
        uncached.secs,
        uncached.stats.local_trainings,
        uncached.stats.round0_trainings,
        uncached.stats.probes,
        uncached.stats.hits,
        cached.secs,
        cached.stats.local_trainings,
        cached.stats.round0_trainings,
        cached.stats.probes,
        cached.stats.hits,
        speedup,
    );
    let mut file = std::fs::File::create(&path).expect("create BENCH_trajcache.json");
    file.write_all(report.as_bytes())
        .expect("write BENCH_trajcache.json");
    println!("wrote {path}");
}
