//! Fig. 6(a–e) — the five synthetic-MNIST setups of Sec. V-B with ten FL
//! clients: time cost and approximation error for the compared
//! algorithms, under both MLP and CNN models.
//!
//! Paper shape per setup: OR and IPSS are the fastest; IPSS's error is the
//! lowest; λ-MR ranks second in accuracy on (c); Extended-TMC /
//! Extended-GTB errors are an order of magnitude above IPSS on the
//! noisy-label setup.
//!
//! Time accounting: sampling/exact methods are costed under the τ model of
//! Sec. IV-C — `time = Σ_{S evaluated} τ̂(|S|)` with per-size τ̂ measured
//! while building the ground truth, each coalition timed as one full solo
//! FL training — so all five setups × two models run in minutes without
//! re-training coalitions per algorithm. Gradient-based methods are
//! wall-clock timed (their cost is one FL training).

// Bench driver: measurement harness code panics on setup failure by
// design; unwrap/expect are the error mechanism here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use fedval_bench::runner::{RecordingUtility, TauModel};
use fedval_bench::{
    base_seed, fmt_err, fmt_secs, gamma_for, mnist_synthetic, quick, run_neural, Algorithm,
    NeuralModel, Table,
};
use fedval_core::baselines::{cc_shapley, extended_gtb_values, extended_tmc};
use fedval_core::baselines::{CcShapConfig, GtbConfig, TmcConfig};
use fedval_core::exact::exact_mc_sv;
use fedval_core::ipss::{ipss_values, IpssConfig};
use fedval_core::metrics::l2_relative_error;
use fedval_data::SyntheticSetup;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let seed = base_seed();
    let n = if quick() { 6 } else { 10 };
    let gamma = gamma_for(n);
    let setups = [
        SyntheticSetup::SameSizeSameDist,
        SyntheticSetup::SameSizeDiffDist {
            majority_fraction: 0.5,
        },
        SyntheticSetup::DiffSizeSameDist,
        SyntheticSetup::SameSizeNoisyLabel { max_rate: 0.2 },
        SyntheticSetup::SameSizeNoisyFeature { max_scale: 0.2 },
    ];
    let models = if quick() {
        vec![NeuralModel::Mlp]
    } else {
        vec![NeuralModel::Mlp, NeuralModel::Cnn]
    };
    for model in &models {
        for setup in &setups {
            let problem = mnist_synthetic(*setup, n, *model, seed);
            let (tau, warm) = TauModel::measure_full(&problem.utility());
            let exact = exact_mc_sv(&warm);
            let mut table = Table::new(["Algorithm", "Time(s)", "Error(l2)"]);
            let mut best: Option<(&str, f64)> = None;
            for alg in Algorithm::ALL {
                if alg.is_exact() {
                    continue; // Fig. 6 compares the approximations
                }
                let (time, values) = if alg.is_gradient_based() {
                    let r = run_neural(alg, &problem, gamma, seed ^ 0x6F16);
                    (r.seconds(), r.values)
                } else {
                    let recorder = RecordingUtility::new(&warm);
                    let mut rng = StdRng::seed_from_u64(seed ^ 0x6F17);
                    let values = match alg {
                        Algorithm::ExtTmc => {
                            extended_tmc(&recorder, &TmcConfig::new(gamma), &mut rng)
                        }
                        Algorithm::ExtGtb => {
                            extended_gtb_values(&recorder, &GtbConfig::new(gamma), &mut rng)
                        }
                        Algorithm::CcShapley => {
                            cc_shapley(&recorder, &CcShapConfig::new(gamma), &mut rng)
                        }
                        Algorithm::Ipss => {
                            ipss_values(&recorder, &IpssConfig::new(gamma), &mut rng)
                        }
                        _ => unreachable!(),
                    };
                    let evaluated = recorder.recorded();
                    (tau.cost_of(evaluated.iter()), values)
                };
                let err = l2_relative_error(&values, &exact);
                if best.is_none_or(|(_, e)| err < e) {
                    best = Some((alg.name(), err));
                }
                table.row([alg.name().to_string(), fmt_secs(time), fmt_err(Some(err))]);
            }
            table.print(&format!(
                "Fig. 6 ({}) — {} model, n = {n}, γ = {gamma}, τ̄ = {:.0} ms",
                setup.label(),
                model.name(),
                tau.mean_tau() * 1e3
            ));
            if let Some((name, err)) = best {
                println!("Lowest error: {name} ({err:.4})");
            }
        }
    }
}
