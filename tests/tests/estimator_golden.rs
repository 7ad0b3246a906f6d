//! Frozen estimator outputs: every sampler's final values and whole
//! snapshot streams, recorded as `f64::to_bits` hex in
//! `estimator_golden.txt` from the estimator bodies as they stood before
//! the samplers were merged onto one core. Any change to a draw, a batch
//! boundary that feeds a fold, or a fold's accumulation order moves a bit
//! here.
//!
//! Regenerate (only when a value is *meant* to change) with
//! `FEDVAL_REGEN_ESTIMATOR_GOLDEN=1 cargo test -p fedval-tests --test
//! estimator_golden` — the same convention as the wire fixtures.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "helpers outside #[test] functions: a failed setup panics, which is the test failing"
)]

use std::fmt::Write as _;
use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::SeedableRng;

use fedval_core::adaptive::AdaptivePolicy;
use fedval_core::anytime::{Control, ProgressSnapshot};
use fedval_core::prelude::*;
use fedval_core::sampler::Observer;

const SEEDS: [u64; 2] = [7, 1234];

fn hex(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{:016x}", v.to_bits()))
        .collect::<Vec<_>>()
        .join(" ")
}

/// The three games of the suite, by label.
fn games() -> Vec<(&'static str, Box<dyn Utility>)> {
    vec![
        ("table1", Box::new(TableUtility::paper_table1())),
        ("hash6", Box::new(HashUtility { n: 6, seed: 42 })),
        (
            "saturating8",
            Box::new(SaturatingUtility::new(
                0.1,
                0.8,
                0.9,
                vec![3.0, 1.0, 2.0, 0.5, 1.5, 2.5, 0.75, 1.25],
            )),
        ),
    ]
}

/// Budgets straddling the schedule's regimes for an `n`-client game:
/// below `k* = 1`, exactly at the `k* = 1` boundary (empty phase 2), a
/// partially sampled stratum, and at/above full enumeration.
fn budgets(n: usize) -> [(&'static str, usize); 4] {
    [
        ("below_k1", n),
        ("at_k1", n + 1),
        ("partial", 2 * n + 3),
        ("full", (1 << n) + 2),
    ]
}

/// One line per recorded outcome, in a fixed order.
struct Ledger(String);

impl Ledger {
    fn line(&mut self, key: &str, body: &str) {
        writeln!(self.0, "{key} = {body}").unwrap();
    }

    fn values(&mut self, key: &str, values: &[f64]) {
        self.line(key, &hex(values));
    }

    /// Record a whole snapshot stream; the run must return its last.
    fn stream<F>(&mut self, key: &str, run: F)
    where
        F: FnOnce(Observer<'_>) -> (ProgressSnapshot, bool),
    {
        let mut snapshots: Vec<ProgressSnapshot> = Vec::new();
        let (out, stopped_early) = run(&mut |s| {
            snapshots.push(s.clone());
            Control::Continue
        });
        for (i, s) in snapshots.iter().enumerate() {
            self.line(
                &format!("{key} #{i}"),
                &format!(
                    "samples_used={} batches_done={} allocation={:?} values=[{}] halfwidths=[{}]",
                    s.samples_used,
                    s.batches_done,
                    s.allocation,
                    hex(&s.values),
                    hex(&s.ci_halfwidths)
                ),
            );
        }
        let last = snapshots.last().expect("at least one snapshot");
        assert_eq!(&out, last, "{key}: outcome != last snapshot");
        assert!(!stopped_early, "{key}");
    }
}

fn record_finals(ledger: &mut Ledger) {
    for (game, u) in games() {
        let u = u.as_ref();
        let n = u.n_clients();
        ledger.values(&format!("final exact_mc {game}"), &exact_mc_sv(u));
        for (regime, budget) in budgets(n) {
            for seed in SEEDS {
                let rng = || StdRng::seed_from_u64(seed);
                let key = |sampler: &str| format!("final {sampler} {game} {regime} seed{seed}");

                for (label, weighting) in [
                    ("ipss_mean", IpssWeighting::StratifiedMean),
                    ("ipss_literal", IpssWeighting::PaperLiteral),
                ] {
                    let cfg = IpssConfig::new(budget).with_weighting(weighting);
                    let mut r = rng();
                    let mut sampler = PrunedSampler::for_ipss(n, &cfg, &mut r);
                    let (out, _) = drive(u, &mut sampler, None);
                    assert_eq!(out.values, ipss(u, &cfg, &mut rng()));
                    let k_star = sampler.k_star();
                    ledger.line(
                        &key(label),
                        &format!(
                            "k_star={} exhaustive={} sampled={:x?} values=[{}]",
                            k_star,
                            subsets_up_to(n, k_star),
                            sampler.sampled().iter().map(|s| s.0).collect::<Vec<_>>(),
                            hex(&out.values)
                        ),
                    );
                }

                for (label, scheme) in [
                    ("stratified_mc", Scheme::MarginalContribution),
                    ("stratified_cc", Scheme::ComplementaryContribution),
                ] {
                    let cfg = StratifiedConfig::uniform(n, budget);
                    let mut r = rng();
                    let mut sampler = StratifiedSampler::new(n, scheme, &cfg, None, &mut r);
                    let (out, _) = drive(u, &mut sampler, None);
                    assert_eq!(out.values, stratified_sampling(u, scheme, &cfg, &mut rng()));
                    let estimates: Vec<String> = sampler
                        .stratum_estimates()
                        .iter()
                        .flatten()
                        .map(|e| e.map_or("-".to_string(), |v| format!("{:016x}", v.to_bits())))
                        .collect();
                    ledger.line(
                        &key(label),
                        &format!(
                            "pairs={:?} strata=[{}] values=[{}]",
                            sampler.pairs_matched(),
                            estimates.join(" "),
                            hex(&out.values)
                        ),
                    );
                }

                let plain = OwenConfig::for_budget(n, budget);
                ledger.values(&key("owen"), &owen_sampling(u, &plain, &mut rng()));

                ledger.values(
                    &key("banzhaf_pruned"),
                    &banzhaf_pruned(u, budget, &mut rng()),
                );
            }
        }
    }
}

fn record_streams(ledger: &mut Ledger) {
    let hash6 = HashUtility { n: 6, seed: 42 };
    let saturating8 = SaturatingUtility::new(
        0.1,
        0.8,
        0.9,
        vec![3.0, 1.0, 2.0, 0.5, 1.5, 2.5, 0.75, 1.25],
    );
    let default_policy = AdaptivePolicy::default();
    let eager_policy = AdaptivePolicy {
        round_size: Some(5),
        min_observations: 3,
        floor: 2,
    };
    let rng = |seed: u64| StdRng::seed_from_u64(seed);

    // IPSS — γ = 30 on n = 6: k* = 2, eight phase-2 coalitions.
    for (label, weighting) in [
        ("mean", IpssWeighting::StratifiedMean),
        ("literal", IpssWeighting::PaperLiteral),
    ] {
        let cfg = IpssConfig::new(30).with_weighting(weighting);
        ledger.stream(&format!("stream ipss_{label} hash6 g30"), |obs| {
            let mut r = rng(11);
            let mut sampler = PrunedSampler::for_ipss(6, &cfg, &mut r);
            drive(&hash6, &mut sampler, Some(obs))
        });
    }
    // Phase 1 exactly exhausts γ (no phase 2), and ∅ only.
    for gamma in [7usize, 1] {
        let cfg = IpssConfig::new(gamma);
        ledger.stream(&format!("stream ipss_mean hash6 g{gamma}"), |obs| {
            let mut r = rng(13);
            let mut sampler = PrunedSampler::for_ipss(6, &cfg, &mut r);
            drive(&hash6, &mut sampler, Some(obs))
        });
    }

    // Alg. 1 — both schemes, uniform and re-planned.
    for (label, scheme) in [
        ("mc", Scheme::MarginalContribution),
        ("cc", Scheme::ComplementaryContribution),
    ] {
        let cfg = StratifiedConfig::uniform(6, 30);
        ledger.stream(&format!("stream stratified_{label} hash6 g30"), |obs| {
            let mut r = rng(21);
            let mut sampler = StratifiedSampler::new(6, scheme, &cfg, None, &mut r);
            drive(&hash6, &mut sampler, Some(obs))
        });
        ledger.stream(
            &format!("stream stratified_{label} hash6 g30 adaptive"),
            |obs| {
                let policy = Some(&default_policy);
                let mut r = rng(21);
                let mut sampler = StratifiedSampler::new(6, scheme, &cfg, policy, &mut r);
                drive(&hash6, &mut sampler, Some(obs))
            },
        );
    }
    ledger.stream(
        "stream stratified_mc saturating8 g300 adaptive-eager",
        |obs| {
            let mut r = rng(22);
            let mut sampler = StratifiedSampler::new(
                8,
                Scheme::MarginalContribution,
                &StratifiedConfig::uniform(8, 300),
                Some(&eager_policy),
                &mut r,
            );
            drive(&saturating8, &mut sampler, Some(obs))
        },
    );
    ledger.stream("stream stratified_mc hash6 g0", |obs| {
        let mut r = rng(23);
        let mut sampler = StratifiedSampler::new(
            6,
            Scheme::MarginalContribution,
            &StratifiedConfig::uniform(6, 0),
            None,
            &mut r,
        );
        drive(&hash6, &mut sampler, Some(obs))
    });

    // Owen, uniform and re-planned.
    let cfg = OwenConfig::new(4, 5);
    ledger.stream("stream owen_plain saturating8", |obs| {
        let mut r = rng(31);
        let mut sampler = OwenSampler::new(8, &cfg, None, &mut r);
        drive(&saturating8, &mut sampler, Some(obs))
    });
    ledger.stream("stream owen_plain saturating8 adaptive", |obs| {
        let policy = Some(&default_policy);
        let mut r = rng(31);
        let mut sampler = OwenSampler::new(8, &cfg, policy, &mut r);
        drive(&saturating8, &mut sampler, Some(obs))
    });
    ledger.stream("stream owen_plain hash6 adaptive-eager", |obs| {
        let cfg = OwenConfig::new(4, 6);
        let mut r = rng(32);
        let mut sampler = OwenSampler::new(6, &cfg, Some(&eager_policy), &mut r);
        drive(&hash6, &mut sampler, Some(obs))
    });

    // Pruned Banzhaf — nothing to steer, one fixed schedule.
    for gamma in [30usize, 7, 1, 70] {
        ledger.stream(&format!("stream banzhaf_pruned hash6 g{gamma}"), |obs| {
            let mut r = rng(41);
            let mut sampler = PrunedSampler::for_banzhaf(6, gamma, &mut r);
            drive(&hash6, &mut sampler, Some(obs))
        });
    }

    // Exact sweep — n = 14 spans two production-size chunks, so the
    // first snapshot is the mid-sweep partial fold.
    ledger.stream("stream exact_mc hash14", |obs| {
        let hash14 = HashUtility { n: 14, seed: 42 };
        drive(&hash14, &mut ExactSweep::new(14), Some(obs))
    });
    ledger.stream("stream exact_mc table1", |obs| {
        let table1 = TableUtility::paper_table1();
        drive(&table1, &mut ExactSweep::new(3), Some(obs))
    });
}

/// The estimators outside the `Sampler` core: the sampling baselines at
/// a small and a large budget, and K-Greedy at every `K` on three game
/// sizes.
fn record_baselines(ledger: &mut Ledger) {
    for (game, u) in games() {
        let u = u.as_ref();
        let n = u.n_clients();
        for budget in [n, 5 * n] {
            for seed in SEEDS {
                let rng = || StdRng::seed_from_u64(seed);
                let key =
                    |estimator: &str| format!("final {estimator} {game} b{budget} seed{seed}");
                ledger.values(
                    &key("gtb"),
                    &extended_gtb_values(u, &GtbConfig::new(budget), &mut rng()),
                );
                ledger.values(
                    &key("tmc"),
                    &extended_tmc(u, &TmcConfig::new(budget), &mut rng()),
                );
                ledger.values(
                    &key("ccshap"),
                    &cc_shapley(u, &CcShapConfig::new(budget), &mut rng()),
                );
            }
        }
    }
    let k_greedy_games: [(&str, Box<dyn Utility>); 3] = [
        ("table1", Box::new(TableUtility::paper_table1())),
        ("hash6", Box::new(HashUtility { n: 6, seed: 42 })),
        ("hash10", Box::new(HashUtility { n: 10, seed: 42 })),
    ];
    for (game, u) in k_greedy_games {
        for k in 1..=u.n_clients() {
            ledger.values(
                &format!("final k_greedy {game} k{k}"),
                &k_greedy(u.as_ref(), k),
            );
        }
    }
}

#[test]
fn estimator_outputs_match_the_frozen_ledger() {
    let mut ledger = Ledger(String::new());
    record_finals(&mut ledger);
    record_streams(&mut ledger);
    record_baselines(&mut ledger);

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("estimator_golden.txt");
    if std::env::var("FEDVAL_REGEN_ESTIMATOR_GOLDEN").is_ok() {
        std::fs::write(&path, &ledger.0).expect("write golden ledger");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("read {path:?} failed ({e}); regenerate with FEDVAL_REGEN_ESTIMATOR_GOLDEN=1")
    });
    let mut expected = golden.lines();
    for (row, actual) in ledger.0.lines().enumerate() {
        let want = expected
            .next()
            .unwrap_or_else(|| panic!("ledger ends before row {row}: {actual}"));
        assert_eq!(actual, want, "ledger row {row} drifted");
    }
    assert_eq!(
        expected.next(),
        None,
        "ledger has rows the suite no longer records"
    );
}
