//! The traced run (`--trace 1`): per-layer metrics of one workload.
//!
//! Separate from the timed run. It first takes the workload-independent
//! micro-measurements (`layers.rs`), then runs the workload's request set
//! through the product's stack (untraced) and through the same stack
//! assembled by hand with [`Traced`] seams, and reports
//!
//! * the self-time table of the best traced repetition — transport+wire,
//!   service, fan-out, FL evaluation — whose rows sum to the request span;
//! * below `FlUtility`, training vs scoring vs trajectory-cache probes,
//!   from replaying the recorded cache-miss sub-batches;
//! * the counters every layer keeps (memo, coalescer, trajectory cache);
//! * `trace_overhead_pct`, traced vs untraced `valuation_s`;
//! * the Table-4 comparison on the workload's game: evaluations each
//!   sampler needs to reach ε.
//!
//! Spans go to `target/benchmark/trace-<workload>.json`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fedval_core::baselines::{
    cc_shapley, extended_gtb_values, extended_tmc, CcShapConfig, GtbConfig, TmcConfig,
};
use fedval_core::coalition::{all_subsets, Coalition};
use fedval_core::metrics::l2_relative_error;
use fedval_core::service::{Estimator, RunStats, ServiceStats, ValuationServer};
use fedval_core::utility::{CachedUtility, ParallelUtility, TableUtility, Utility};
use fedval_fl::config::init_seed;
use fedval_fl::{train_coalitions_params_with_cache, FlUtility, TrajectoryCache};
use fedval_nn::MultiNetwork;
use fedval_serve::http::Client;
use fedval_serve::json::{self, Json, Num};
use fedval_serve::{WireConfig, WireServer};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cold::{
    accuracy_search, check_efficiency, eps_request, reference_sweep, repetition, ColdPlan, Game, Op,
};
use crate::layers;
use crate::problems::{Federation, Model, THREADS};
use crate::schema::{Metrics, UNREACHED};
use crate::stats::{best_of, ladder_search, percentile, repeat_for, Better, Measured};
use crate::trace::{self_times, spans_json, Layer, RecordedBatch, Recorder, Span, Traced};
use crate::wire;
use crate::workload::{fatal, Gate, Report, Spec, EPS_SEED_OFFSET};
use crate::workloads::Synthetic;

/// Sampling seeds the Table-4 comparison averages over (half of the
/// accuracy search's eight: these errors only pick a rung for a
/// diagnostic, and the baselines are slow at the top rungs).
const TABLE4_SEEDS: u64 = 4;

/// FL evaluation split of a replay.
pub struct Replay {
    pub train_s: f64,
    pub score_s: f64,
    /// Trajectory-cache probes the replay made.
    pub probes: usize,
}

/// A game whose stack the benchmark can also assemble by hand, with
/// [`Traced`] wrappers at the seams between public parts.
pub trait TracedGame: Game {
    type TracedStack: Utility + Send + Sync + 'static;

    fn clients(&self) -> usize;

    /// The same stack as [`Game::serve`], with spans at its seams.
    fn serve_traced(&self, recorder: &Arc<Recorder>) -> ValuationServer<Self::TracedStack>;

    /// `U(S)` for all `2^n` coalitions in mask order, through a stack of
    /// the benchmark's own.
    fn utility_table(&self) -> Vec<f64>;

    /// Re-run the recorded cache-miss sub-batches below `FlUtility`,
    /// timing training and scoring apart (`None`: no FL layer).
    fn replay(&self, batches: &[RecordedBatch], gate: &mut Gate) -> Option<Replay>;
}

impl Federation {
    /// The FL utility over a fresh shared trajectory cache, as `serve()`
    /// builds it.
    fn cached_utility(&self) -> (FlUtility, Arc<TrajectoryCache>) {
        let cache = Arc::new(TrajectoryCache::new());
        (self.utility().with_traj_cache(Arc::clone(&cache)), cache)
    }
}

impl TracedGame for Federation {
    type TracedStack = Traced<ParallelUtility<Traced<FlUtility>>>;

    fn clients(&self) -> usize {
        self.n()
    }

    fn serve_traced(&self, recorder: &Arc<Recorder>) -> ValuationServer<Self::TracedStack> {
        let (utility, cache) = self.cached_utility();
        let fan_out = ParallelUtility::with_num_threads(
            Traced::new(utility, Layer::FlEval, recorder),
            THREADS,
        );
        ValuationServer::builder(Traced::new(fan_out, Layer::MissBatch, recorder))
            .traj_stats(move || cache.stats())
            .start()
    }

    fn utility_table(&self) -> Vec<f64> {
        let all: Vec<Coalition> = all_subsets(self.n()).collect();
        ParallelUtility::with_num_threads(self.cached_utility().0, THREADS).eval_batch(&all)
    }

    fn replay(&self, batches: &[RecordedBatch], gate: &mut Gate) -> Option<Replay> {
        let (input, classes) = (self.test.n_features(), self.test.n_classes());
        let mut template = self.spec.build(input, classes, init_seed(self.fed.seed));
        template.set_backend(self.fed.backend);
        let cache = TrajectoryCache::new();
        let (mut train, mut score) = (Duration::ZERO, Duration::ZERO);
        for batch in batches {
            let t = Instant::now();
            let lanes = train_coalitions_params_with_cache(
                &self.spec,
                &self.clients,
                input,
                classes,
                &batch.coalitions,
                &self.fed,
                Some(&cache),
            );
            train += t.elapsed();
            let t = Instant::now();
            let mut multi = MultiNetwork::from_network(&template, lanes.len());
            for (lane, params) in lanes.iter().enumerate() {
                multi.set_lane_params(lane, params);
            }
            let accuracies = multi.accuracy_lanes(&self.test);
            score += t.elapsed();
            gate.same_bits(&accuracies, &batch.values, || "replayed sub-batch".into());
        }
        Some(Replay {
            train_s: train.as_secs_f64(),
            score_s: score.as_secs_f64(),
            probes: cache.stats().probes,
        })
    }
}

impl TracedGame for Synthetic {
    type TracedStack = Traced<<Synthetic as Game>::Stack>;

    fn clients(&self) -> usize {
        self.0.n_clients()
    }

    fn serve_traced(&self, recorder: &Arc<Recorder>) -> ValuationServer<Self::TracedStack> {
        ValuationServer::start(Traced::new(self.0.clone(), Layer::MissBatch, recorder))
    }

    fn utility_table(&self) -> Vec<f64> {
        self.0
            .eval_batch(&all_subsets(self.clients()).collect::<Vec<_>>())
    }

    fn replay(&self, _: &[RecordedBatch], _: &mut Gate) -> Option<Replay> {
        None
    }
}

fn count(x: usize) -> Measured {
    Measured::single(x as f64)
}

fn ratio(num: usize, den: usize) -> Measured {
    Measured::single(if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    })
}

/// The counters the layers keep, as the traced repetition left them.
fn counters(metrics: &mut Metrics, stats: &ServiceStats, runs: &[RunStats], rejected_429: usize) {
    let consumed: usize = runs.iter().map(|r| r.coalitions).sum();
    metrics.insert("core.service.flushes", count(stats.flushes));
    metrics.insert("core.service.merged_batches", count(stats.merged_batches));
    metrics.insert(
        "core.service.merge_ratio",
        ratio(stats.merged_batches, stats.flushes),
    );
    metrics.insert(
        "core.service.distinct_coalitions",
        count(stats.distinct_coalitions),
    );
    metrics.insert(
        "core.service.dedup_ratio",
        ratio(consumed.saturating_sub(stats.distinct_coalitions), consumed),
    );
    metrics.insert("core.service.failed_flushes", count(stats.failed_flushes));
    metrics.insert("core.service.retries", count(stats.retries));
    let mut waits: Vec<f64> = runs
        .iter()
        .map(|r| r.park_wait_max.as_secs_f64() * 1e3)
        .collect();
    if waits.is_empty() {
        waits.push(0.0);
    }
    metrics.insert(
        "core.service.park_wait_p50_ms",
        Measured::single(percentile(&waits, 50.0)),
    );
    metrics.insert(
        "core.service.park_wait_max_ms",
        Measured::single(percentile(&waits, 100.0)),
    );
    metrics.insert("core.cache.lookups", count(stats.eval.lookups));
    metrics.insert("core.cache.evaluations", count(stats.eval.evaluations));
    metrics.insert(
        "core.cache.hit_ratio",
        ratio(
            stats.eval.lookups.saturating_sub(stats.eval.evaluations),
            stats.eval.lookups,
        ),
    );
    let traj = stats.traj.unwrap_or_default();
    metrics.insert("fl.trajcache.probes", count(traj.probes));
    metrics.insert("fl.trajcache.hits", count(traj.hits));
    metrics.insert("fl.trajcache.hit_ratio", ratio(traj.hits, traj.probes));
    metrics.insert("fl.trajcache.local_trainings", count(traj.local_trainings));
    metrics.insert(
        "fl.trajcache.round0_trainings",
        count(traj.round0_trainings),
    );
    metrics.insert("fl.trajcache.bytes", count(traj.bytes));
    metrics.insert("fl.trajcache.evictions", count(traj.evictions));
    metrics.insert(
        "fl.fedavg.local_trainings_per_eval",
        ratio(traj.local_trainings, stats.eval.evaluations),
    );
    metrics.insert("serve.rejected_429", count(rejected_429));
}

/// The self-time table of a traced repetition and the FL split below it.
fn span_table(
    metrics: &mut Metrics,
    requests: usize,
    spans: &[Span],
    replay: Option<Replay>,
    untraced_s: &[f64],
    traced_s: &[f64],
) {
    let table = self_times(spans);
    let ms = |ns: u64| Measured::single(ns as f64 / 1e6);
    metrics.insert("trace.requests", count(requests));
    metrics.insert("trace.spans", count(spans.len()));
    metrics.insert("trace.request_span_ms", ms(table.request_span_ns));
    metrics.insert("trace.transport_wire_ms", ms(table.self_ns[0]));
    metrics.insert("trace.service_ms", ms(table.self_ns[1]));
    metrics.insert("trace.fanout_ms", ms(table.self_ns[2]));
    metrics.insert("trace.fl_eval_ms", ms(table.self_ns[3]));
    metrics.insert(
        "trace.table_sum_gap_pct",
        Measured::single(table.sum_gap_pct()),
    );
    metrics.insert(
        "trace.miss_batches",
        count(spans.iter().filter(|s| s.layer == Layer::MissBatch).count()),
    );
    // Shares of the replayed FL evaluation time; probes are charged at
    // the measured cost of one lookup.
    let lookup_s = metrics
        .get("fl.trajcache.lookup_ns")
        .map_or(0.0, |m| m.value * 1e-9);
    let (train, score, probe) = replay.map_or((0.0, 0.0, 0.0), |r| {
        let probe = (r.probes as f64 * lookup_s).min(r.train_s);
        (r.train_s - probe, r.score_s, probe)
    });
    let whole = train + score + probe;
    let share = |x: f64| Measured::single(if whole > 0.0 { x / whole } else { 0.0 });
    metrics.insert("trace.fl_train_share", share(train));
    metrics.insert("trace.fl_score_share", share(score));
    metrics.insert("trace.fl_trajcache_share", share(probe));

    let untraced = best_of(untraced_s, Better::Lower);
    let traced = best_of(traced_s, Better::Lower);
    metrics.insert("trace.valuation_untraced_s", Measured::single(untraced));
    metrics.insert("trace.valuation_traced_s", Measured::single(traced));
    metrics.insert(
        "trace_overhead_pct",
        Measured::single((traced / untraced - 1.0) * 100.0),
    );
}

/// The Table-4 comparison on a tabulated game: for each sampler, the
/// smallest budget on the ladder whose mean error is ≤ ε, the distinct
/// evaluations it needs there, and that count priced at the measured
/// seconds per evaluation of the reference sweep (a cost model, not a
/// timed run: TMC evaluates serially and would take longer).
fn table4(
    metrics: &mut Metrics,
    table: &TableUtility,
    reference: &[f64],
    seed: u64,
    eps: f64,
    ladder: &[usize],
    seconds_per_eval: f64,
) -> Result<(), String> {
    let n = table.n_clients();
    let seeds = || (0..TABLE4_SEEDS).map(move |k| seed + EPS_SEED_OFFSET + k);
    // One run of a sampler: its values and the distinct coalitions it paid for.
    type Sampler<'a> = Box<dyn Fn(usize, u64) -> Result<(Vec<f64>, usize), String> + 'a>;
    let service = |estimator: Estimator| -> Sampler<'_> {
        Box::new(move |budget, s| {
            let server = ValuationServer::start(table.clone());
            let spec = Spec::fixed(estimator, budget, s);
            let resp = fatal(server.call(spec.request()), &spec.label())?;
            server.shutdown();
            Ok((resp.values, resp.service.eval.evaluations))
        })
    };
    let direct =
        |run: fn(&CachedUtility<&TableUtility>, usize, &mut StdRng) -> Vec<f64>| -> Sampler<'_> {
            Box::new(move |budget, s| {
                let memo = CachedUtility::new(table);
                let values = run(&memo, budget, &mut StdRng::seed_from_u64(s));
                Ok((values, memo.stats().evaluations))
            })
        };
    let samplers: [(&'static str, &'static str, Sampler<'_>); 6] = [
        (
            "core.ipss.evals_to_eps",
            "core.ipss.time_to_eps_s",
            service(Estimator::Ipss),
        ),
        (
            "core.stratified_mc.evals_to_eps",
            "core.stratified_mc.time_to_eps_s",
            service(Estimator::StratifiedMc),
        ),
        (
            "core.stratified_cc.evals_to_eps",
            "core.stratified_cc.time_to_eps_s",
            service(Estimator::StratifiedCc),
        ),
        // Budgets in evaluations: a permutation costs up to n, a CC round 2.
        (
            "core.tmc.evals_to_eps",
            "core.tmc.time_to_eps_s",
            direct(|u, budget, rng| {
                let permutations = (budget / u.n_clients()).max(1);
                extended_tmc(u, &TmcConfig::new(permutations), rng)
            }),
        ),
        (
            "core.gtb.evals_to_eps",
            "core.gtb.time_to_eps_s",
            direct(|u, budget, rng| extended_gtb_values(u, &GtbConfig::new(budget), rng)),
        ),
        (
            "core.ccshap.evals_to_eps",
            "core.ccshap.time_to_eps_s",
            direct(|u, budget, rng| cc_shapley(u, &CcShapConfig::new((budget / 2).max(1)), rng)),
        ),
    ];
    // Small games: extend the ladder to the whole game, where every
    // sampler that converges at all has converged.
    let mut rungs = ladder.to_vec();
    while n <= 12 && rungs.last().is_some_and(|&top| top < 1 << n) {
        rungs.push((rungs[rungs.len() - 1] * 2).min(1 << n));
    }
    for (evals_name, time_name, sampler) in &samplers {
        let mut fault = None;
        let mut evals_at = Vec::new();
        let (hit, _) = ladder_search(&rungs, eps, |budget| {
            let mut sum = 0.0;
            for (k, s) in seeds().enumerate() {
                match sampler(budget, s) {
                    Ok((values, evals)) => {
                        sum += l2_relative_error(&values, reference);
                        if k == 0 {
                            evals_at.push((budget, evals));
                        }
                    }
                    Err(e) => fault = Some(e),
                }
            }
            sum / TABLE4_SEEDS as f64
        });
        if let Some(e) = fault {
            return Err(e);
        }
        let evals = hit.and_then(|h| evals_at.iter().find(|(b, _)| *b == h.budget).map(|e| e.1));
        let (evals, time) = evals.map_or((UNREACHED, UNREACHED), |e| {
            (e as f64, e as f64 * seconds_per_eval)
        });
        metrics.insert(evals_name, Measured::single(evals));
        metrics.insert(time_name, Measured::single(time));
    }
    Ok(())
}

/// Tabulate a game, derive its exact reference from the table through a
/// valuation server, and check efficiency. Returns the table, the oracle
/// server over it, the reference and the sweep's seconds per evaluation.
fn tabulate<G: TracedGame>(
    game: &G,
    gate: &mut Gate,
) -> Result<(TableUtility, ValuationServer<TableUtility>, Vec<f64>, f64), String> {
    let t = Instant::now();
    let values = game.utility_table();
    let seconds_per_eval = t.elapsed().as_secs_f64() / values.len() as f64;
    let grand_minus_empty = values[values.len() - 1] - values[0];
    let table = TableUtility::new(game.clients(), values);
    let oracle = ValuationServer::start(table.clone());
    let reference = reference_sweep(&oracle)?;
    check_efficiency(&reference, grand_minus_empty, gate);
    Ok((table, oracle, reference, seconds_per_eval))
}

fn write_trace(out_dir: &std::path::Path, name: &str, spans: &[Span]) -> Result<(), String> {
    let path = out_dir.join(format!("trace-{name}.json"));
    fatal(
        std::fs::write(&path, spans_json(spans).encode()),
        "trace file",
    )?;
    println!("wrote {} ({} spans)", path.display(), spans.len());
    Ok(())
}

/// What the fastest traced repetition left behind.
struct TracedRep {
    wall_s: f64,
    spans: Vec<Span>,
    batches: Vec<RecordedBatch>,
    stats: ServiceStats,
    runs: Vec<RunStats>,
}

/// The traced run of a cold workload.
pub fn run_cold<G: TracedGame>(
    name: &str,
    plan: &ColdPlan<G>,
    seed: u64,
    seconds: f64,
    out_dir: &std::path::Path,
) -> Result<Report, String> {
    let mut metrics = Metrics::new();
    layers::measure(&mut metrics)?;
    let mut gate = Gate::default();

    let game = (plan.generate)();
    let (table, oracle, reference, seconds_per_eval) = tabulate(&game, &mut gate)?;
    let accuracy = accuracy_search(&oracle, &reference, seed, plan.eps, plan.ladder, &mut gate)?;
    let eps_spec = eps_request(seed, accuracy.gamma_star);
    let ops = (plan.ops)(&game, seed, accuracy.gamma_star);
    let mut refs = Vec::with_capacity(ops.len());
    for op in &ops {
        refs.push(match op {
            Op::Service(spec) => fatal(oracle.call(spec.request()), &spec.label())?.values,
            Op::Direct { run, .. } => run(),
        });
    }
    oracle.shutdown();

    // The same repetition through the product's stack and through the
    // hand-assembled traced one, each at least once.
    let share = Duration::from_secs_f64(seconds * 0.12);
    let untraced_s = repeat_for(share, 1, |_| {
        let server = game.serve();
        let rep = repetition(&server, &ops, &refs, eps_spec, plan.burst, None, &mut gate);
        server.shutdown();
        rep.wall_s
    });
    let mut best: Option<TracedRep> = None;
    let traced_s = repeat_for(share, 1, |_| {
        let recorder = Recorder::new();
        let server = game.serve_traced(&recorder);
        let rep = repetition(
            &server,
            &ops,
            &refs,
            eps_spec,
            plan.burst,
            Some(&recorder),
            &mut gate,
        );
        let stats = server.stats();
        server.shutdown();
        if best.as_ref().is_none_or(|b| rep.wall_s < b.wall_s) {
            best = Some(TracedRep {
                wall_s: rep.wall_s,
                spans: recorder.take_spans(),
                batches: recorder.take_batches(),
                stats,
                runs: rep.runs,
            });
        }
        rep.wall_s
    });
    let TracedRep {
        spans,
        batches,
        stats,
        runs,
        ..
    } = best.ok_or("no traced repetition ran")?;

    counters(&mut metrics, &stats, &runs, 0);
    let replay = game.replay(&batches, &mut gate);
    span_table(
        &mut metrics,
        ops.len(),
        &spans,
        replay,
        &untraced_s,
        &traced_s,
    );
    table4(
        &mut metrics,
        &table,
        &reference,
        seed,
        plan.eps,
        plan.ladder,
        seconds_per_eval,
    )?;
    write_trace(out_dir, name, &spans)?;

    let notes = vec![
        ("eps", Json::f64(plan.eps)),
        (
            "gamma_star",
            Json::Num(Num::U64(accuracy.gamma_star as u64)),
        ),
        ("reference_sweep_s_per_eval", Json::f64(seconds_per_eval)),
        (
            "traced_repetitions",
            Json::Num(Num::U64(traced_s.len() as u64)),
        ),
        (
            "untraced_repetitions",
            Json::Num(Num::U64(untraced_s.len() as u64)),
        ),
    ];
    Ok(Report {
        metrics,
        gate,
        notes,
    })
}

/// Client and run spans of one traced wire window, from what the
/// connections brought back: a request's client span is its round trip,
/// its run span the `wall_time_ms` the response reports, anchored at the
/// response's arrival. Also collects the responses' `RunStats` park waits.
fn wire_spans(recorder: &Recorder, results: &[wire::LaneResult], runs: &mut Vec<RunStats>) {
    let mut request = 0;
    for lane in results {
        for ((latency, _, body), sent) in lane.responses.iter().zip(&lane.starts) {
            request += 1;
            let start = recorder.ns_of(*sent);
            let end = start + (latency * 1e9) as u64;
            recorder.record(Layer::Client, start, end, request);
            let Ok(doc) = json::parse(&String::from_utf8_lossy(body)) else {
                continue;
            };
            let Some(wall_ms) = doc.get("wall_time_ms").and_then(Json::as_f64) else {
                continue; // a stats read: no run
            };
            let run_start = end.saturating_sub((wall_ms * 1e6) as u64).max(start);
            recorder.record(Layer::Run, run_start, end, request);
            let run = doc.get("run");
            let field = |key: &str| run.and_then(|r| r.get(key));
            runs.push(RunStats {
                coalitions: field("coalitions").and_then(Json::as_usize).unwrap_or(0),
                park_wait_max: Duration::from_secs_f64(
                    field("park_wait_max_ms")
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0)
                        / 1e3,
                ),
                ..RunStats::default()
            });
        }
    }
}

/// The traced run of `wire_warm_mix`.
pub fn run_wire(seed: u64, seconds: f64, out_dir: &std::path::Path) -> Result<Report, String> {
    let mut metrics = Metrics::new();
    layers::measure(&mut metrics)?;
    let mut gate = Gate::default();

    // The traced stack behind a socket, warmed through the wire.
    let federation = Federation::generate(wire::CLIENTS, Model::Mlp);
    let recorder = Recorder::new();
    let traced = fatal(
        WireServer::start(federation.serve_traced(&recorder), WireConfig::default()),
        "bind",
    )?;
    let mut probe = fatal(Client::connect(traced.addr()), "connect")?;
    let sweep = Spec::fixed(Estimator::ExactMc, 0, 0);
    let warmed = fatal(probe.post("/v1/value", &sweep.body()), "sweep")?;
    gate.check(warmed.status == 200, || {
        format!("sweep: status {}", warmed.status)
    });
    drop(probe);

    // The oracle: the tabulated game, for the reference and Table 4.
    let (table, oracle, reference, seconds_per_eval) = tabulate(&federation, &mut gate)?;
    let accuracy = accuracy_search(
        &oracle,
        &reference,
        seed,
        wire::EPS,
        wire::LADDER,
        &mut gate,
    )?;
    let specs = wire::requests(seed, accuracy.gamma_star);
    let mut refs = Vec::with_capacity(specs.len());
    for spec in &specs {
        refs.push(fatal(oracle.call(spec.request()), &spec.label())?.values);
    }
    oracle.shutdown();
    let bodies: Vec<String> = specs.iter().map(Spec::body).collect();
    let lanes = wire::schedule(seed, specs.len());

    // The product's stack, for the untraced windows.
    let (_, plain, plain_reference) = wire::build(&mut gate)?;
    gate.same_bits(&plain_reference, &reference, || "wire reference".into());

    let share = Duration::from_secs_f64(seconds * 0.06);
    let mut fault = None;
    let mut window = |server_addr, recorder: Option<&Recorder>, runs: &mut Vec<RunStats>| {
        let outcome = wire::connect(server_addr)
            .and_then(|mut clients| wire::drive_window(&mut clients, &lanes, &bodies));
        match outcome {
            Ok(results) => {
                let rejected =
                    wire::verify_window(&results, &lanes, &specs, &refs, &mut gate).rejected_429;
                if let Some(recorder) = recorder {
                    wire_spans(recorder, &results, runs);
                }
                (wire::window_wall(&results).as_secs_f64(), rejected)
            }
            Err(e) => {
                fault = Some(e);
                (f64::NAN, 0)
            }
        }
    };
    let untraced_s: Vec<f64> =
        repeat_for(share, 2, |_| window(plain.addr(), None, &mut Vec::new()).0);
    plain.shutdown();
    recorder.take_spans(); // drop the warm-up's spans: windows start clean
    recorder.take_batches();
    let mut best: Option<(f64, Vec<Span>, Vec<RunStats>)> = None;
    let mut rejected_429 = 0;
    let traced_s: Vec<f64> = repeat_for(share, 2, |_| {
        let mut runs = Vec::new();
        let (wall, rejected) = window(traced.addr(), Some(&recorder), &mut runs);
        rejected_429 += rejected;
        let spans = recorder.take_spans();
        if best.as_ref().is_none_or(|b| wall < b.0) {
            best = Some((wall, spans, runs));
        }
        wall
    });
    let stats = traced.valuation().stats();
    traced.shutdown();
    if let Some(e) = fault {
        return Err(e);
    }
    let (_, spans, runs) = best.ok_or("no traced window ran")?;

    counters(&mut metrics, &stats, &runs, rejected_429);
    span_table(
        &mut metrics,
        wire::WINDOW,
        &spans,
        None,
        &untraced_s,
        &traced_s,
    );
    table4(
        &mut metrics,
        &table,
        &reference,
        seed,
        wire::EPS,
        wire::LADDER,
        seconds_per_eval,
    )?;
    write_trace(out_dir, "wire_warm_mix", &spans)?;

    let notes = vec![
        ("eps", Json::f64(wire::EPS)),
        (
            "gamma_star",
            Json::Num(Num::U64(accuracy.gamma_star as u64)),
        ),
        ("reference_sweep_s_per_eval", Json::f64(seconds_per_eval)),
        ("traced_windows", Json::Num(Num::U64(traced_s.len() as u64))),
    ];
    Ok(Report {
        metrics,
        gate,
        notes,
    })
}
