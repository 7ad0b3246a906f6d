//! The cold workloads (`fl_cold_mlp`, `fl_cold_cnn`, `estimator_synthetic`,
//! `service_burst_cold`): one runner over any [`Game`], with a fresh
//! stack per repetition so every repetition does bit-identical work.
//!
//! A run has three kinds of step:
//!
//! 1. **set-up** — generate the game, start the stack, run the `ExactMc`
//!    reference sweep through it; once at the start and again, on fresh
//!    builds, at the end of the run; best → `setup_s`;
//! 2. **accuracy search** — on the warm reference server, walk the budget
//!    ladder upward to γ\*, the first budget whose IPSS error (mean over
//!    eight sampling seeds) is ≤ ε;
//! 3. **valuation** — the workload's whole request set on a fresh server,
//!    sequentially or (burst) submitted at once, repeated. The set opens
//!    with the IPSS γ\* request, so each repetition also times that
//!    request against a cold server: `time_to_eps_s`.
//!
//! Every response is compared bit for bit with the same request's answer
//! from the warm reference server (cold ≡ warm, burst ≡ sequential).

use std::thread;
use std::time::{Duration, Instant};

use fedval_core::metrics::l2_relative_error;
use fedval_core::service::{Estimator, RunStats, ValuationRequest, ValuationServer};
use fedval_core::utility::Utility;
use fedval_serve::json::{Json, Num};

use crate::schema::Metrics;
use crate::stats::{ladder_search, median, percentile, repeat_for, Better, Measured};
use crate::trace::{Layer, Recorder};
use crate::workload::{fatal, Gate, Report, Spec, EPS_SEEDS, EPS_SEED_OFFSET};

/// A game a cold workload values, and the stack it is served through.
pub trait Game: Sized {
    /// What the valuation server wraps (everything below its coalition
    /// memo).
    type Stack: Utility + Send + Sync + 'static;

    /// A fresh, cold stack over this game.
    fn serve(&self) -> ValuationServer<Self::Stack>;

    /// `U(N) − U(∅)` by direct in-process evaluation outside any stack —
    /// what the reference values must sum to (efficiency).
    fn grand_minus_empty(&self) -> f64;
}

/// One operation of a repetition.
pub enum Op {
    /// A request through the valuation service.
    Service(Spec),
    /// A library call outside the service (the three baselines the
    /// `Estimator` enum does not carry); must be a pure function.
    Direct {
        label: &'static str,
        run: Box<dyn Fn() -> Vec<f64>>,
    },
}

impl Op {
    pub fn label(&self) -> String {
        match self {
            Op::Service(spec) => spec.label(),
            Op::Direct { label, .. } => (*label).to_string(),
        }
    }
}

/// A cold workload: the game, its accuracy target and its request set.
pub struct ColdPlan<G: Game> {
    pub generate: fn() -> G,
    /// Accuracy target (l2 relative error, Eq. 21).
    pub eps: f64,
    /// Budgets searched upward for γ\*.
    pub ladder: &'static [usize],
    /// Submit the whole set at once instead of one request at a time.
    pub burst: bool,
    /// The repetition's operations, given the game, `--seed` and γ\*. The
    /// first must be [`eps_request`]: it meets the fresh server cold, and
    /// its latency is the repetition's `time_to_eps_s`.
    pub ops: fn(&G, u64, usize) -> Vec<Op>,
    /// Share of `--seconds` given to set-up repetitions; the request-set
    /// repetitions take the rest.
    pub setup_share: f64,
}

/// Share of a request-set repetition's time spent re-timing the ε request
/// alone afterwards, and the most such extra repetitions per cycle.
const EPS_EXTRA_SHARE: f64 = 0.25;
const EPS_EXTRA_MAX: usize = 4;

/// The request `time_to_eps_s` times: IPSS at γ\* on the first of the
/// eight sampling seeds.
pub fn eps_request(seed: u64, gamma_star: usize) -> Spec {
    Spec::fixed(Estimator::Ipss, gamma_star, seed + EPS_SEED_OFFSET)
}

/// What the accuracy search found.
pub struct Accuracy {
    pub gamma_star: usize,
    pub error: f64,
    pub visited: Vec<(usize, f64)>,
}

/// Walk the ladder on a warm server: the error of a budget is the mean
/// l2 relative error of IPSS over the eight sampling seeds. A ladder no
/// rung of which reaches ε leaves nothing to time: that is an error.
pub fn accuracy_search<U: Utility + Send + Sync + 'static>(
    server: &ValuationServer<U>,
    reference: &[f64],
    seed: u64,
    eps: f64,
    ladder: &[usize],
    gate: &mut Gate,
) -> Result<Accuracy, String> {
    let mut broken = None;
    let (hit, visited) = ladder_search(ladder, eps, |budget| {
        let mut sum = 0.0;
        for k in 0..EPS_SEEDS {
            let spec = Spec::fixed(Estimator::Ipss, budget, seed + EPS_SEED_OFFSET + k);
            match server.call(spec.request()) {
                Ok(resp) => sum += l2_relative_error(&resp.values, reference),
                Err(e) => broken = Some(format!("{}: {e}", spec.label())),
            }
        }
        sum / EPS_SEEDS as f64
    });
    if let Some(e) = broken {
        return Err(e);
    }
    let hit = hit.ok_or_else(|| format!("no budget reaches eps = {eps}: visited {visited:?}"))?;
    gate.check(hit.error <= eps, || "IPSS error at γ* above ε".into());
    Ok(Accuracy {
        gamma_star: hit.budget,
        error: hit.error,
        visited,
    })
}

/// The `ExactMc` reference sweep through a stack.
pub fn reference_sweep<U: Utility + Send + Sync + 'static>(
    server: &ValuationServer<U>,
) -> Result<Vec<f64>, String> {
    let sweep = ValuationRequest::new(Estimator::ExactMc, 0, 0);
    Ok(fatal(server.call(sweep), "reference sweep")?.values)
}

/// Efficiency of a reference: `Σφ = U(N) − U(∅)` to 1e-9.
pub fn check_efficiency(reference: &[f64], grand_minus_empty: f64, gate: &mut Gate) {
    let sum = reference.iter().sum::<f64>();
    gate.check((sum - grand_minus_empty).abs() <= 1e-9, || {
        format!("efficiency: reference values sum to {sum}, U(N) - U(0) = {grand_minus_empty}")
    });
}

/// One repetition's measurements.
pub struct Rep {
    pub wall_s: f64,
    /// Per-operation latency, seconds (burst: completion since burst start).
    pub latencies: Vec<f64>,
    /// `(latency, RunStats.coalitions)` of the ε request.
    pub eps: Option<(f64, usize)>,
    /// `RunStats` of every service response.
    pub runs: Vec<RunStats>,
}

/// One repetition of the request set on `server`, every answer checked
/// against its solo reference. With a `recorder`, each operation also
/// leaves a client span and a run span (`ValuationResponse.wall_time`,
/// anchored at the moment the response arrived).
///
/// Sequential: one operation at a time from this thread. Burst: every
/// request is submitted at once from this thread (an open-loop burst) and
/// each ticket is awaited from its own blocked thread, so a completion is
/// stamped when it happens, not when an earlier ticket resolves.
pub fn repetition<U: Utility + Send + Sync + 'static>(
    server: &ValuationServer<U>,
    ops: &[Op],
    refs: &[Vec<f64>],
    eps_spec: Spec,
    burst: bool,
    recorder: Option<&Recorder>,
    gate: &mut Gate,
) -> Rep {
    type Outcome = Result<(Vec<f64>, Option<(RunStats, Duration)>), String>;
    let start = Instant::now();
    // Per operation: when it was sent, when its answer arrived, the answer.
    let done: Vec<(Instant, Instant, Outcome)> = if burst {
        let tickets: Vec<_> = ops
            .iter()
            .map(|op| match op {
                Op::Service(spec) => server.submit(spec.request()),
                Op::Direct { label, .. } => {
                    panic!("burst workloads carry service requests only, got {label}")
                }
            })
            .collect();
        thread::scope(|scope| {
            let waiters: Vec<_> = tickets
                .into_iter()
                .map(|ticket| scope.spawn(move || (ticket.wait(), Instant::now())))
                .collect();
            waiters
                .into_iter()
                .map(|w| {
                    let (result, at) = w.join().expect("ticket waiter");
                    let outcome = result
                        .map(|r| (r.values, Some((r.run, r.wall_time))))
                        .map_err(|e| e.to_string());
                    (start, at, outcome)
                })
                .collect()
        })
    } else {
        ops.iter()
            .map(|op| {
                let sent = Instant::now();
                let outcome = match op {
                    Op::Service(spec) => server
                        .call(spec.request())
                        .map(|r| (r.values, Some((r.run, r.wall_time))))
                        .map_err(|e| e.to_string()),
                    Op::Direct { run, .. } => Ok((run(), None)),
                };
                (sent, Instant::now(), outcome)
            })
            .collect()
    };
    let wall_s = start.elapsed().as_secs_f64();

    let mut rep = Rep {
        wall_s,
        latencies: Vec::with_capacity(ops.len()),
        eps: None,
        runs: Vec::new(),
    };
    for (i, ((sent, at, outcome), (op, want))) in
        done.into_iter().zip(ops.iter().zip(refs)).enumerate()
    {
        let latency = (at - sent).as_secs_f64();
        rep.latencies.push(latency);
        match outcome {
            Ok((values, served)) => {
                gate.same_bits(&values, want, || op.label());
                if let Some(recorder) = recorder {
                    // A direct operation runs in the caller: its run span
                    // is its client span.
                    let run_for = served.map_or(at - sent, |(_, wall_time)| wall_time);
                    let (sent, at) = (recorder.ns_of(sent), recorder.ns_of(at));
                    let request = i as u64 + 1;
                    recorder.record(Layer::Client, sent, at, request);
                    let run_start = at.saturating_sub(run_for.as_nanos() as u64).max(sent);
                    recorder.record(Layer::Run, run_start, at, request);
                }
                if let Some((run, _)) = served {
                    if matches!(op, Op::Service(spec) if *spec == eps_spec) {
                        rep.eps = Some((latency, run.coalitions));
                    }
                    rep.runs.push(run);
                }
            }
            Err(e) => gate.check(false, || format!("{}: {e}", op.label())),
        }
    }
    rep
}

/// `VmHWM` of this process so far, MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = fatal(
        std::fs::read_to_string("/proc/self/status"),
        "/proc/self/status",
    )?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn counts_json(xs: &[(usize, f64)]) -> Json {
    Json::Arr(
        xs.iter()
            .map(|&(b, e)| Json::Arr(vec![Json::Num(Num::U64(b as u64)), Json::f64(e)]))
            .collect(),
    )
}

/// One timed set-up: the game generated, a stack started over it, and the
/// reference sweep run through that stack.
struct SetUp<G: Game> {
    secs: f64,
    game: G,
    server: ValuationServer<G::Stack>,
    reference: Vec<f64>,
}

fn set_up<G: Game>(generate: fn() -> G) -> Result<SetUp<G>, String> {
    let t = Instant::now();
    let game = generate();
    let server = game.serve();
    let reference = reference_sweep(&server)?;
    Ok(SetUp {
        secs: t.elapsed().as_secs_f64(),
        game,
        server,
        reference,
    })
}

/// The timed (untraced) run: all eight end-to-end metrics.
///
/// Set-up repetitions sit at both ends of the run and the request-set
/// repetitions in between, so every metric's repetitions are spread over
/// the whole run: the box's slow-downs come in stretches of seconds, and a
/// metric measured in one block would inherit whatever stretch it fell in.
pub fn run<G: Game>(plan: &ColdPlan<G>, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut gate = Gate::default();
    let started = Instant::now();
    let total = Duration::from_secs_f64(seconds);

    let SetUp {
        secs: first_setup,
        game,
        server: warm,
        reference,
    } = set_up(plan.generate)?;
    check_efficiency(&reference, game.grand_minus_empty(), &mut gate);

    // γ* on the warm reference server.
    let accuracy = accuracy_search(&warm, &reference, seed, plan.eps, plan.ladder, &mut gate)?;

    // Solo references of the request set: each operation once, alone, on
    // the warm server (direct operations alone in this thread).
    let eps_spec = eps_request(seed, accuracy.gamma_star);
    let ops = (plan.ops)(&game, seed, accuracy.gamma_star);
    assert!(
        matches!(&ops[0], Op::Service(first) if *first == eps_spec),
        "a repetition opens with the ε request, so it meets a cold server"
    );
    let mut refs = Vec::with_capacity(ops.len());
    for op in &ops {
        refs.push(match op {
            Op::Service(spec) => fatal(warm.call(spec.request()), &spec.label())?.values,
            Op::Direct { run, .. } => run(),
        });
    }
    warm.shutdown();

    // The request set on fresh servers, until what is left of the run is
    // what the closing set-up repetitions need.
    let reserve = (plan.setup_share * seconds - first_setup).max(first_setup * 1.05);
    let until = total.saturating_sub(Duration::from_secs_f64(reserve));
    let mut eps_reps: Vec<(f64, usize)> = Vec::new();
    let reps = repeat_for(until.saturating_sub(started.elapsed()), 3, |_| {
        let server = game.serve();
        let rep = repetition(&server, &ops, &refs, eps_spec, plan.burst, None, &mut gate);
        server.shutdown();
        eps_reps.extend(rep.eps);
        // Where the ε request is a small part of the set, time it a few
        // more times alone on fresh servers: a short unit needs more tries
        // to meet a quiet moment.
        if let (Some((eps_s, _)), false) = (rep.eps, plan.burst) {
            let extra = (EPS_EXTRA_SHARE * rep.wall_s / eps_s) as usize;
            for _ in 0..extra.min(EPS_EXTRA_MAX) {
                let server = game.serve();
                let alone = repetition(
                    &server,
                    &ops[..1],
                    &refs[..1],
                    eps_spec,
                    false,
                    None,
                    &mut gate,
                );
                server.shutdown();
                eps_reps.extend(alone.eps);
            }
        }
        rep
    });

    // Memory is the workload's: read before the closing set-ups, which
    // only re-measure `setup_s` and would add their own allocator churn.
    let peak_rss = peak_rss_mib()?;

    // Closing set-up repetitions on fresh builds.
    let mut fault = None;
    let mut setup_secs = vec![first_setup];
    setup_secs.extend(repeat_for(
        total.saturating_sub(started.elapsed()),
        1,
        |_| match set_up(plan.generate) {
            Ok(rebuilt) => {
                rebuilt.server.shutdown();
                gate.same_bits(&rebuilt.reference, &reference, || {
                    "rebuilt reference".into()
                });
                rebuilt.secs
            }
            Err(e) => {
                fault = Some(e);
                f64::NAN
            }
        },
    ));
    if let Some(e) = fault {
        return Err(e);
    }

    // Counts must repeat exactly.
    let Some(&(_, evals)) = eps_reps.first() else {
        return Err(format!(
            "the ε request never succeeded: {:?}",
            gate.failures
        ));
    };
    gate.check(eps_reps.iter().all(|r| r.1 == evals), || {
        format!("evals_to_eps differs between repetitions: {eps_reps:?}")
    });

    let per_rep = |f: &dyn Fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let n_ops = ops.len() as f64;
    let mut metrics = Metrics::new();
    metrics.insert("setup_s", Measured::from_reps(&setup_secs, Better::Lower));
    metrics.insert(
        "time_to_eps_s",
        Measured::from_reps(
            &eps_reps.iter().map(|r| r.0).collect::<Vec<_>>(),
            Better::Lower,
        ),
    );
    metrics.insert("evals_to_eps", Measured::single(evals as f64));
    metrics.insert(
        "valuation_s",
        Measured::from_reps(&per_rep(&|r| r.wall_s), Better::Lower),
    );
    metrics.insert(
        "req_per_s",
        Measured::from_reps(&per_rep(&|r| n_ops / r.wall_s), Better::Higher),
    );
    metrics.insert(
        "latency_p50_ms",
        Measured::from_reps(&per_rep(&|r| median(&r.latencies) * 1e3), Better::Lower),
    );
    metrics.insert(
        "latency_tail_ms",
        Measured::from_reps(
            &per_rep(&|r| percentile(&r.latencies, 100.0) * 1e3),
            Better::Lower,
        ),
    );
    metrics.insert("peak_rss_mib", Measured::single(peak_rss));

    let notes = vec![
        ("eps", Json::f64(plan.eps)),
        ("ladder", Json::usize_array(plan.ladder)),
        (
            "gamma_star",
            Json::Num(Num::U64(accuracy.gamma_star as u64)),
        ),
        ("error_at_gamma_star", Json::f64(accuracy.error)),
        ("ladder_visited", counts_json(&accuracy.visited)),
        (
            "request_set",
            Json::Arr(ops.iter().map(|op| Json::str(op.label())).collect()),
        ),
    ];
    Ok(Report {
        metrics,
        gate,
        notes,
    })
}
