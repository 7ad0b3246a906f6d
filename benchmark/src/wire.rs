//! `wire_warm_mix`: the FEMNIST-like n=8 MLP federation behind
//! `WireServer`, its coalition memo warmed by the reference sweep, driven
//! closed-loop over two keep-alive connections with a 90 % `POST
//! /v1/value` / 10 % `GET /v1/stats` mix.
//!
//! Training is fully cached, so what a window of requests pays for is
//! HTTP framing, JSON parse/encode, the per-request thread hand-off and
//! the service's bookkeeping. A repetition is a **window of 1500
//! requests**; every window replays the same schedule, so windows do
//! identical work and the best window is reported.

use std::net::SocketAddr;
use std::thread;
use std::time::{Duration, Instant};

use fedval_core::service::Estimator;
use fedval_serve::http::Client;
use fedval_serve::json::{Json, Num};
use fedval_serve::{WireConfig, WireServer};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::cold::{accuracy_search, check_efficiency, eps_request, peak_rss_mib, Game};
use crate::problems::{Federation, Model};
use crate::schema::Metrics;
use crate::stats::{median, percentile, repeat_for, Better, Measured};
use crate::workload::{fatal, Gate, Mode, Report, Spec};

pub const CLIENTS: usize = 8;
pub const EPS: f64 = 0.10;
pub const LADDER: &[usize] = &[8, 16, 32, 64, 128];
/// Requests in one window, over all connections.
pub const WINDOW: usize = 1500;
pub const CONNECTIONS: usize = 2;
/// Budget and seed count of the valuation requests in the mix.
const MIX_BUDGET: usize = 64;
const MIX_SEEDS: u64 = 64;
/// One request in ten reads `/v1/stats`.
const STATS_EVERY: usize = 10;
/// One valuation request in fifteen is the ε request (90 a window).
const EPS_EVERY: usize = 15;
/// Share of `--seconds` given to set-up repetitions.
const SETUP_SHARE: f64 = 0.25;

/// The wire stack over the n=8 federation.
pub type Wire = WireServer<<Federation as Game>::Stack>;

/// One request of the window schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    /// `POST /v1/value` of the mix entry with this index.
    Value(usize),
    /// `GET /v1/stats`.
    Stats,
}

/// The six request kinds the mix cycles through.
fn kind(index: usize, seed: u64) -> Spec {
    use Estimator::*;
    let fixed = |e| Spec::fixed(e, MIX_BUDGET, seed);
    match index % 6 {
        0 => fixed(Ipss),
        1 => fixed(StratifiedMc),
        2 => fixed(StratifiedCc).with_mode(Mode::Adaptive),
        3 => fixed(Owen).with_mode(Mode::Streaming),
        4 => fixed(BanzhafPruned),
        _ => fixed(Loo),
    }
}

/// Every distinct valuation request of a window: the mix — six kinds × 64
/// seeds derived from `--seed` — and, last, the ε request. The ε request
/// is timed inside the windows, under the mix's load: alone on an idle
/// box a 0.2 ms round trip mostly measures how deep the other core sleeps.
pub fn requests(seed: u64, gamma_star: usize) -> Vec<Spec> {
    (0..6 * MIX_SEEDS as usize)
        .map(|i| kind(i, seed + 1000 + (i as u64 / 6) % MIX_SEEDS))
        .chain([eps_request(seed, gamma_star)])
        .collect()
}

/// The schedule of one window, per connection: 90 % valuation requests —
/// one in fifteen the ε request (the last of `requests`), the others
/// cycling through the mix — and 10 % stats reads, shuffled by `--seed`
/// and dealt round-robin to the connections.
pub fn schedule(seed: u64, requests: usize) -> Vec<Vec<Call>> {
    let (mut values, mut mixed) = (0, 0);
    let mut calls: Vec<Call> = (0..WINDOW)
        .map(|i| {
            if i % STATS_EVERY == STATS_EVERY - 1 {
                return Call::Stats;
            }
            values += 1;
            if values % EPS_EVERY == 0 {
                Call::Value(requests - 1)
            } else {
                mixed += 1;
                Call::Value((mixed - 1) % (requests - 1))
            }
        })
        .collect();
    calls.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut lanes = vec![Vec::new(); CONNECTIONS];
    for (i, call) in calls.into_iter().enumerate() {
        lanes[i % CONNECTIONS].push(call);
    }
    lanes
}

/// Build the federation, start the full stack behind a socket and fill
/// the memo with the reference sweep **through the wire**.
pub fn build(gate: &mut Gate) -> Result<(Federation, Wire, Vec<f64>), String> {
    let federation = Federation::generate(CLIENTS, Model::Mlp);
    let wire = fatal(
        WireServer::start(federation.serve(), WireConfig::default()),
        "bind",
    )?;
    let mut client = fatal(Client::connect(wire.addr()), "connect")?;
    let sweep = Spec::fixed(Estimator::ExactMc, 0, 0);
    let reference = post_values(&mut client, &sweep, gate)?;
    Ok((federation, wire, reference))
}

/// POST one valuation request and return its values. Any non-200 is fatal
/// here: set-up cannot go on without the sweep.
fn post_values(client: &mut Client, spec: &Spec, gate: &mut Gate) -> Result<Vec<f64>, String> {
    let resp = fatal(client.post("/v1/value", &spec.body()), &spec.label())?;
    gate.check(resp.status == 200, || {
        format!("{}: status {}", spec.label(), resp.status)
    });
    if resp.status != 200 {
        return Err(format!(
            "{}: {}",
            spec.label(),
            String::from_utf8_lossy(&resp.body)
        ));
    }
    let doc = fatal(resp.json(), &spec.label())?;
    values_of(&doc).ok_or_else(|| format!("{}: no values", spec.label()))
}

fn values_of(doc: &Json) -> Option<Vec<f64>> {
    doc.get("values")?
        .as_array()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

/// What one connection brings back from a window.
pub struct LaneResult {
    pub started: Instant,
    pub ended: Instant,
    /// Per request: latency (s), status, body.
    pub responses: Vec<(f64, u16, Vec<u8>)>,
    /// Start of each request, for the traced run's client spans.
    pub starts: Vec<Instant>,
}

/// Drive one window: every connection replays its lane of the schedule
/// back to back on its own thread.
pub fn drive_window(
    clients: &mut [Client],
    lanes: &[Vec<Call>],
    bodies: &[String],
) -> Result<Vec<LaneResult>, String> {
    thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(lanes)
            .map(|(client, lane)| {
                scope.spawn(move || {
                    let mut responses = Vec::with_capacity(lane.len());
                    let mut starts = Vec::with_capacity(lane.len());
                    let started = Instant::now();
                    for call in lane {
                        let t = Instant::now();
                        let resp = match call {
                            Call::Value(i) => client.post("/v1/value", &bodies[*i]),
                            Call::Stats => client.get("/v1/stats"),
                        }
                        .map_err(|e| format!("{call:?}: {e}"))?;
                        responses.push((t.elapsed().as_secs_f64(), resp.status, resp.body));
                        starts.push(t);
                    }
                    Ok(LaneResult {
                        started,
                        ended: Instant::now(),
                        responses,
                        starts,
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread"))
            .collect()
    })
}

/// What checking a window found.
#[derive(Default)]
pub struct Checked {
    pub rejected_429: usize,
    /// `(latency in seconds, RunStats.coalitions)` of every ε request.
    pub eps: Vec<(f64, usize)>,
}

/// Check every response of a window against its solo reference, outside
/// the timed region. `specs` and `refs` are [`requests`] and their solo
/// answers; the last entry is the ε request.
pub fn verify_window(
    results: &[LaneResult],
    lanes: &[Vec<Call>],
    specs: &[Spec],
    refs: &[Vec<f64>],
    gate: &mut Gate,
) -> Checked {
    let mut checked = Checked::default();
    for (result, lane) in results.iter().zip(lanes) {
        for ((latency, status, body), call) in result.responses.iter().zip(lane) {
            checked.rejected_429 += usize::from(*status == 429);
            let text = String::from_utf8_lossy(body);
            let doc = (*status == 200)
                .then(|| fedval_serve::json::parse(&text).ok())
                .flatten();
            match call {
                Call::Value(i) => match doc.as_ref().and_then(values_of) {
                    Some(values) => {
                        gate.same_bits(&values, &refs[*i], || {
                            format!("wire {}", specs[*i].label())
                        });
                        if *i == specs.len() - 1 {
                            let run = doc.as_ref().and_then(|d| d.get("run"));
                            let coalitions = run
                                .and_then(|r| r.get("coalitions"))
                                .and_then(Json::as_usize)
                                .unwrap_or(0);
                            checked.eps.push((*latency, coalitions));
                        }
                    }
                    None => gate.check(false, || {
                        format!("wire {}: status {status}: {text}", specs[*i].label())
                    }),
                },
                Call::Stats => {
                    let ok = doc.is_some_and(|d| d.get("requests").is_some());
                    gate.check(ok, || format!("GET /v1/stats: status {status}: {text}"));
                }
            }
        }
    }
    checked
}

/// Wall-clock of a window: first request sent to last response received.
pub fn window_wall(results: &[LaneResult]) -> Duration {
    let first = results.iter().map(|r| r.started).min().expect("a lane");
    let last = results.iter().map(|r| r.ended).max().expect("a lane");
    last - first
}

pub fn connect(addr: SocketAddr) -> Result<Vec<Client>, String> {
    (0..CONNECTIONS)
        .map(|_| fatal(Client::connect(addr), "connect"))
        .collect()
}

/// The timed (untraced) run: all eight end-to-end metrics. As in the cold
/// workloads, set-up repetitions sit at both ends of the run and the ε
/// request rides inside the windows, so every metric samples the whole run.
pub fn run(seed: u64, seconds: f64) -> Result<Report, String> {
    let mut gate = Gate::default();
    let started = Instant::now();
    let total = Duration::from_secs_f64(seconds);

    let t = Instant::now();
    let (federation, wire, reference) = build(&mut gate)?;
    let first_setup = t.elapsed().as_secs_f64();
    check_efficiency(&reference, federation.grand_minus_empty(), &mut gate);

    // γ* and the solo references, in process on the same valuation server
    // (wire ≡ call).
    let valuation = wire.valuation();
    let accuracy = accuracy_search(valuation, &reference, seed, EPS, LADDER, &mut gate)?;
    let specs = requests(seed, accuracy.gamma_star);
    let mut refs = Vec::with_capacity(specs.len());
    for spec in &specs {
        refs.push(fatal(valuation.call(spec.request()), &spec.label())?.values);
    }
    let bodies: Vec<String> = specs.iter().map(Spec::body).collect();

    // Windows, until what is left of the run is what the closing set-ups
    // need. A window's time to ε is the median over its ε requests.
    let lanes = schedule(seed, specs.len());
    let mut clients = connect(wire.addr())?;
    let reserve = (SETUP_SHARE * seconds - first_setup).max(first_setup * 1.05);
    let until = total.saturating_sub(Duration::from_secs_f64(reserve));
    let mut fault = None;
    let mut rejected = 0;
    let mut eps_secs = Vec::new();
    let mut evals = None;
    let windows: Vec<(f64, f64, f64)> =
        repeat_for(until.saturating_sub(started.elapsed()), 5, |_| {
            let results = match drive_window(&mut clients, &lanes, &bodies) {
                Ok(results) => results,
                Err(e) => {
                    fault = Some(e);
                    return (f64::NAN, f64::NAN, f64::NAN);
                }
            };
            let checked = verify_window(&results, &lanes, &specs, &refs, &mut gate);
            rejected += checked.rejected_429;
            if !checked.eps.is_empty() {
                let latencies: Vec<f64> = checked.eps.iter().map(|e| e.0).collect();
                eps_secs.push(median(&latencies));
            }
            for (_, coalitions) in checked.eps {
                gate.check(evals.is_none_or(|e| e == coalitions), || {
                    format!("evals_to_eps moved from {evals:?} to {coalitions}")
                });
                evals = Some(coalitions);
            }
            let latencies: Vec<f64> = results
                .iter()
                .flat_map(|r| r.responses.iter().map(|x| x.0 * 1e3))
                .collect();
            (
                window_wall(&results).as_secs_f64(),
                percentile(&latencies, 50.0),
                percentile(&latencies, 99.0),
            )
        });
    drop(clients);
    wire.shutdown();
    let peak_rss = peak_rss_mib()?;

    // Closing set-up repetitions on fresh builds.
    let mut setup_secs = vec![first_setup];
    setup_secs.extend(repeat_for(
        total.saturating_sub(started.elapsed()),
        1,
        |_| {
            let t = Instant::now();
            match build(&mut gate) {
                Ok((_, rebuilt, rebuilt_reference)) => {
                    let secs = t.elapsed().as_secs_f64();
                    rebuilt.shutdown();
                    gate.same_bits(&rebuilt_reference, &reference, || {
                        "rebuilt reference".into()
                    });
                    secs
                }
                Err(e) => {
                    fault = Some(e);
                    f64::NAN
                }
            }
        },
    ));
    if let Some(e) = fault {
        return Err(e);
    }
    let evals = evals.ok_or("no ε request succeeded")?;

    let column = |f: fn(&(f64, f64, f64)) -> f64| -> Vec<f64> { windows.iter().map(f).collect() };
    let mut metrics = Metrics::new();
    metrics.insert("setup_s", Measured::from_reps(&setup_secs, Better::Lower));
    metrics.insert(
        "time_to_eps_s",
        Measured::from_reps(&eps_secs, Better::Lower),
    );
    metrics.insert("evals_to_eps", Measured::single(evals as f64));
    metrics.insert(
        "valuation_s",
        Measured::from_reps(&column(|w| w.0), Better::Lower),
    );
    metrics.insert(
        "req_per_s",
        Measured::from_reps(&column(|w| WINDOW as f64 / w.0), Better::Higher),
    );
    metrics.insert(
        "latency_p50_ms",
        Measured::from_reps(&column(|w| w.1), Better::Lower),
    );
    metrics.insert(
        "latency_tail_ms",
        Measured::from_reps(&column(|w| w.2), Better::Lower),
    );
    metrics.insert("peak_rss_mib", Measured::single(peak_rss));

    let notes = vec![
        ("eps", Json::f64(EPS)),
        ("ladder", Json::usize_array(LADDER)),
        (
            "gamma_star",
            Json::Num(Num::U64(accuracy.gamma_star as u64)),
        ),
        ("error_at_gamma_star", Json::f64(accuracy.error)),
        ("window_requests", Json::Num(Num::U64(WINDOW as u64))),
        ("connections", Json::Num(Num::U64(CONNECTIONS as u64))),
        ("rejected_429", Json::Num(Num::U64(rejected as u64))),
    ];
    Ok(Report {
        metrics,
        gate,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_seeded_full_window_of_mix_eps_and_stats() {
        let lanes = schedule(42, 385);
        assert_eq!(lanes.len(), CONNECTIONS);
        let all: Vec<Call> = lanes.iter().flatten().copied().collect();
        assert_eq!(all.len(), WINDOW);
        let stats = all.iter().filter(|c| **c == Call::Stats).count();
        assert_eq!(stats, WINDOW / STATS_EVERY);
        let eps = all.iter().filter(|c| **c == Call::Value(384)).count();
        assert_eq!(eps, (WINDOW - stats) / EPS_EVERY, "one value in fifteen");
        assert!(all.iter().all(|c| !matches!(c, Call::Value(i) if *i > 384)));
        assert_eq!(schedule(42, 385), lanes, "same seed, same schedule");
        assert_ne!(schedule(43, 385), lanes, "the seed orders the mix");
        // The requests: six kinds over 64 seeds, all distinct, then ε.
        let specs = requests(7, 64);
        assert_eq!(specs.len(), 385);
        assert_eq!(specs[384], eps_request(7, 64));
        let labels: std::collections::BTreeSet<String> = specs.iter().map(Spec::label).collect();
        assert_eq!(labels.len(), 385);
    }
}
