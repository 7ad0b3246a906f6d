//! Frozen FL outputs: trained parameters and utilities of the FedAvg
//! substrate, recorded as `f32::to_bits` / `f64::to_bits` hex in
//! `fl_golden.txt` *before* the forward kernels were re-nested.
//!
//! The lock-step and trajectory-cache suites only assert that two
//! paths of the *same* build agree (lane ≡ solo, cached ≡ uncached) — a
//! kernel that moves a bit in both paths the same way passes all of them.
//! This ledger pins the bits across commits instead: for every model
//! family × coalition shape it records the solo [`train_coalition`]
//! parameters (as a 64-bit fold) and the lock-step
//! [`FlUtility::eval_batch`] utilities, so both the solo and the lane
//! kernels are held to the recorded arithmetic.
//!
//! The softmax's `exp` comes from the platform libm; a libm that rounds
//! `expf` differently needs its own recording.
//!
//! Regenerate (only when a value is *meant* to change) with
//! `FEDVAL_REGEN_FL_GOLDEN=1 cargo test -p fedval-tests --test fl_golden`
//! — the same convention as `estimator_golden`.

// Driver code: test assertions panic by design, so unwrap/expect are
// the failure mechanism, not a robustness gap.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::fmt::Write as _;
use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::SeedableRng;

use fedval_core::coalition::Coalition;
use fedval_core::utility::Utility;
use fedval_data::{Dataset, MnistLike, SyntheticSetup};
use fedval_fl::{train_coalition, FedAvgConfig, FlUtility, ModelSpec};

const CLIENTS: usize = 4;

fn federated_problem() -> (Vec<Dataset>, Dataset) {
    let (train, test) = MnistLike::new(0x601D).generate_split(32 * CLIENTS, 160, 0x601E);
    let mut rng = StdRng::seed_from_u64(0x601F);
    let clients = SyntheticSetup::SameSizeSameDist.partition(&train, CLIENTS, &mut rng);
    (clients, test)
}

/// FNV-1a over the parameters' bit patterns: any moved bit moves the fold.
fn fold(params: &[f32]) -> u64 {
    params
        .iter()
        .flat_map(|p| p.to_bits().to_le_bytes())
        .fold(0xCBF2_9CE4_8422_2325, |h, byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

fn record() -> String {
    let (clients, test) = federated_problem();
    let (input, classes) = (test.n_features(), test.n_classes());
    let specs = [
        ("mlp32", ModelSpec::default_mlp()),
        (
            "mlp24x16",
            ModelSpec::Mlp {
                hidden: vec![24, 16],
            },
        ),
        ("linear", ModelSpec::Linear),
        ("cnn8", ModelSpec::Cnn { side: 8 }),
    ];
    let coalitions = [
        ("empty", Coalition::empty()),
        ("single", Coalition::singleton(1)),
        ("pair", Coalition::from_members([0, 3])),
        ("full", Coalition::full(CLIENTS)),
    ];
    let cfg = FedAvgConfig {
        rounds: 2,
        local_epochs: 1,
        seed: 0x90_1D,
        ..Default::default()
    };
    let batch: Vec<Coalition> = coalitions.iter().map(|&(_, s)| s).collect();

    let mut ledger = String::new();
    for (spec_name, spec) in &specs {
        // `fedavg reference` is a fixed part of the recorded keys.
        let key = format!("{spec_name} fedavg reference");
        // Solo reference loop: the trained parameters themselves.
        for (coalition_name, s) in &coalitions {
            let net = train_coalition(spec, &clients, input, classes, *s, &cfg);
            writeln!(
                ledger,
                "params {key} {coalition_name} = {:016x}",
                fold(&net.params())
            )
            .unwrap();
        }
        // Lock-step lane block: train + score through the lane kernels
        // (four coalitions fit one default block).
        let utility = FlUtility::new(clients.clone(), test.clone(), spec.clone(), cfg);
        let values: Vec<String> = utility
            .eval_batch(&batch)
            .iter()
            .map(|v| format!("{:016x}", v.to_bits()))
            .collect();
        writeln!(ledger, "eval_batch {key} = {}", values.join(" ")).unwrap();
    }
    ledger
}

#[test]
fn fl_outputs_match_the_frozen_ledger() {
    let ledger = record();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fl_golden.txt");
    if std::env::var("FEDVAL_REGEN_FL_GOLDEN").is_ok() {
        std::fs::write(&path, &ledger).expect("write golden ledger");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("read {path:?} failed ({e}); regenerate with FEDVAL_REGEN_FL_GOLDEN=1")
    });
    let mut expected = golden.lines();
    for (row, actual) in ledger.lines().enumerate() {
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
