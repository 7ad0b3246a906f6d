//! The five workloads: which game, which accuracy target, which requests.
//! Sizes are those of ISSUE 13's sizing runs; README § Workloads has the
//! measured numbers behind every constant.

use std::path::Path;
use std::sync::Arc;

use fedval_core::baselines::{
    cc_shapley, extended_gtb_values, extended_tmc, CcShapConfig, GtbConfig, TmcConfig,
};
use fedval_core::coalition::Coalition;
use fedval_core::service::{Estimator, ValuationServer};
use fedval_core::utility::{NoisyUtility, ParallelUtility, SaturatingUtility, Utility};
use fedval_fl::FlUtility;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cold::{self, eps_request, ColdPlan, Game, Op};
use crate::problems::{synthetic_game, Federation, Model, SYNTHETIC_CLIENTS};
use crate::workload::{Mode, Report, Spec};
use crate::{traced, wire};

impl Game for Federation {
    type Stack = ParallelUtility<FlUtility>;

    fn serve(&self) -> ValuationServer<Self::Stack> {
        Federation::serve(self)
    }

    fn grand_minus_empty(&self) -> f64 {
        let solo = self.utility();
        solo.eval(Coalition::full(self.n())) - solo.eval(Coalition::empty())
    }
}

/// The synthetic game served straight from `ValuationServer::start`.
pub struct Synthetic(pub NoisyUtility<SaturatingUtility>);

impl Game for Synthetic {
    type Stack = NoisyUtility<SaturatingUtility>;

    fn serve(&self) -> ValuationServer<Self::Stack> {
        ValuationServer::start(self.0.clone())
    }

    fn grand_minus_empty(&self) -> f64 {
        self.0.eval(Coalition::full(SYNTHETIC_CLIENTS)) - self.0.eval(Coalition::empty())
    }
}

/// Fixed budget of the FEMNIST MLP request set.
const MLP_BUDGET: usize = 128;
/// Fixed budget of the synthetic fixed-budget requests, and the budget of
/// its streaming/adaptive/direct operations (streaming IPSS is 5× slower
/// than fixed-budget at 4096 and 58× at 65536, so streaming stays small).
const SYNTHETIC_BUDGET: usize = 65_536;
const SYNTHETIC_STREAM_BUDGET: usize = 4096;

/// The eight requests of `fl_cold_mlp` and `service_burst_cold`: the ε
/// request, the five service estimators, LOO, and stratified MC again on
/// a new seed.
fn mlp_ops(_: &Federation, seed: u64, gamma_star: usize) -> Vec<Op> {
    use Estimator::*;
    [
        eps_request(seed, gamma_star),
        Spec::fixed(Ipss, MLP_BUDGET, seed + 1),
        Spec::fixed(StratifiedMc, MLP_BUDGET, seed + 2),
        Spec::fixed(StratifiedCc, MLP_BUDGET, seed + 3),
        Spec::fixed(Owen, MLP_BUDGET, seed + 4),
        Spec::fixed(BanzhafPruned, MLP_BUDGET, seed + 5),
        Spec::fixed(Loo, 0, seed + 6),
        Spec::fixed(StratifiedMc, MLP_BUDGET, seed + 7),
    ]
    .map(Op::Service)
    .into()
}

/// LOO sits in the middle on purpose: its work (N and the six coalitions
/// of five) does not depend on the seed, and it is the median latency of
/// the three — stratified MC's share of new coalitions moves ±8 % with the
/// seed and would otherwise decide `latency_p50_ms`.
fn cnn_ops(_: &Federation, seed: u64, gamma_star: usize) -> Vec<Op> {
    [
        eps_request(seed, gamma_star),
        Spec::fixed(Estimator::Loo, 0, seed + 6),
        Spec::fixed(Estimator::StratifiedMc, 32, seed + 2),
    ]
    .map(Op::Service)
    .into()
}

/// All three code paths of each sampler — legacy fixed-budget, streaming,
/// adaptive — plus the three baselines that only exist as library calls.
fn synthetic_ops(game: &Synthetic, seed: u64, gamma_star: usize) -> Vec<Op> {
    use Estimator::*;
    let stream = |e, s| Spec::fixed(e, SYNTHETIC_STREAM_BUDGET, seed + s);
    let mut ops: Vec<Op> = [
        eps_request(seed, gamma_star),
        Spec::fixed(StratifiedMc, SYNTHETIC_BUDGET, seed + 2),
        Spec::fixed(StratifiedCc, SYNTHETIC_BUDGET, seed + 3),
        Spec::fixed(Owen, SYNTHETIC_BUDGET, seed + 4),
        Spec::fixed(BanzhafPruned, SYNTHETIC_BUDGET, seed + 5),
        stream(Ipss, 6).with_mode(Mode::Streaming),
        stream(StratifiedMc, 7).with_mode(Mode::Streaming),
        stream(Owen, 8).with_mode(Mode::Streaming),
        stream(StratifiedMc, 9).with_mode(Mode::Adaptive),
        stream(Owen, 10).with_mode(Mode::Adaptive),
    ]
    .map(Op::Service)
    .into();
    // Budgets in evaluations: a TMC permutation costs up to n, a CC round 2.
    let utility = Arc::new(game.0.clone());
    let direct = |label, run: fn(&NoisyUtility<SaturatingUtility>, &mut StdRng) -> Vec<f64>, s| {
        let utility = Arc::clone(&utility);
        Op::Direct {
            label,
            run: Box::new(move || run(&utility, &mut StdRng::seed_from_u64(seed + s))),
        }
    };
    ops.push(direct(
        "extended_tmc",
        |u, rng| {
            let permutations = SYNTHETIC_STREAM_BUDGET / SYNTHETIC_CLIENTS;
            extended_tmc(u, &TmcConfig::new(permutations), rng)
        },
        11,
    ));
    ops.push(direct(
        "extended_gtb",
        |u, rng| extended_gtb_values(u, &GtbConfig::new(SYNTHETIC_STREAM_BUDGET), rng),
        12,
    ));
    ops.push(direct(
        "cc_shapley",
        |u, rng| cc_shapley(u, &CcShapConfig::new(SYNTHETIC_STREAM_BUDGET / 2), rng),
        13,
    ));
    ops
}

const FL_COLD_MLP: ColdPlan<Federation> = ColdPlan {
    generate: || Federation::generate(10, Model::Mlp),
    eps: 0.10,
    ladder: &[16, 32, 64, 128, 256],
    burst: false,
    ops: mlp_ops,
    setup_share: 0.35,
};

/// ε sits between the 16 and 32 rungs with margin on both sides (errors
/// 0.46 / 0.30–0.31 over traffic seeds). ISSUE 13's ladder also had a 24
/// rung whose error (0.324–0.354) comes within 1.2 % of its ε = 0.32 on
/// some seeds; that rung is dropped so γ\* = 32 holds on every seed.
const FL_COLD_CNN: ColdPlan<Federation> = ColdPlan {
    generate: || Federation::generate(6, Model::Cnn),
    eps: 0.33,
    ladder: &[8, 16, 32, 48, 64],
    burst: false,
    ops: cnn_ops,
    setup_share: 0.35,
};

const ESTIMATOR_SYNTHETIC: ColdPlan<Synthetic> = ColdPlan {
    generate: || Synthetic(synthetic_game()),
    eps: 0.05,
    ladder: &[4096, 16_384, 65_536, 262_144],
    burst: false,
    ops: synthetic_ops,
    setup_share: 0.25,
};

const SERVICE_BURST_COLD: ColdPlan<Federation> = ColdPlan {
    burst: true,
    ..FL_COLD_MLP
};

/// Run one workload: the timed run (end-to-end metrics) or, with
/// `trace`, the traced run (per-layer metrics).
pub fn run(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
) -> Result<Report, String> {
    match (name, trace) {
        ("fl_cold_mlp", false) => cold::run(&FL_COLD_MLP, seed, seconds),
        ("fl_cold_cnn", false) => cold::run(&FL_COLD_CNN, seed, seconds),
        ("estimator_synthetic", false) => cold::run(&ESTIMATOR_SYNTHETIC, seed, seconds),
        ("service_burst_cold", false) => cold::run(&SERVICE_BURST_COLD, seed, seconds),
        ("wire_warm_mix", false) => wire::run(seed, seconds),
        ("fl_cold_mlp", true) => traced::run_cold(name, &FL_COLD_MLP, seed, seconds, out_dir),
        ("fl_cold_cnn", true) => traced::run_cold(name, &FL_COLD_CNN, seed, seconds, out_dir),
        ("estimator_synthetic", true) => {
            traced::run_cold(name, &ESTIMATOR_SYNTHETIC, seed, seconds, out_dir)
        }
        ("service_burst_cold", true) => {
            traced::run_cold(name, &SERVICE_BURST_COLD, seed, seconds, out_dir)
        }
        ("wire_warm_mix", true) => traced::run_wire(seed, seconds, out_dir),
        _ => Err(format!("unknown workload `{name}` (see --list)")),
    }
}
