//! The FedAvg training loop (Def. 1) over arbitrary coalitions of
//! clients: a lock-step engine ([`train_coalitions`]) that advances `B`
//! coalition models through one pass over the client data, and the solo
//! reference loop ([`train_coalition`]) it is bit-identical to, with
//! optional recording of the per-round per-client updates that the
//! gradient-based baselines consume. As in the paper's cross-silo
//! setting, every member of a coalition trains in every round.
//!
//! The paper's implementation simulates data providers as separate
//! processes speaking gRPC; the transport does not affect valuation, so
//! clients here run in-process with the same message flow: broadcast
//! global parameters → local SGD → upload update → weighted aggregation
//! (see "Deviations from the paper" in ARCHITECTURE.md).
//!
//! **Determinism contract.** Every coalition's trajectory is a pure
//! function of `(spec, clients, coalition, cfg)`: model initialisation is
//! seeded by `init_seed(cfg.seed)` and client `i`'s round-`r` data order
//! by `local_seed(cfg.seed, r, i)` — neither by *which other coalitions
//! train alongside*. The lock-step engine therefore reproduces each
//! lane's solo run bit-for-bit (asserted in
//! `tests/tests/lockstep_equivalence.rs`), which keeps memoisation sound
//! and batched valuation results independent of lane grouping.
//!
//! The contract extends to *cache hits*: a client's local training is a
//! pure function of `(round-start params, client, round)` under a fixed
//! `(spec, clients, cfg)`, so replaying a memoised round-0 update
//! ([`crate::trajcache::TrajectoryCache`]) in another block or another
//! `eval_batch` call substitutes bits the training would have produced
//! anyway. Cached and uncached sweeps are therefore bit-identical
//! (asserted in `tests/tests/trajcache_equivalence.rs`), and results stay
//! independent of both lane grouping and cache state.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use fedval_core::coalition::Coalition;
use fedval_data::Dataset;
use fedval_nn::linalg::axpy;
use fedval_nn::{MultiNetwork, Network};

use crate::config::{init_seed, local_seed, FedAvgConfig};
use crate::history::TrainingHistory;
use crate::model::ModelSpec;
use crate::trajcache::TrajectoryCache;

/// Train an FL model on the datasets of `coalition` with FedAvg.
///
/// This is the solo *reference path*: one [`Network`] advanced through the
/// round loop. Nothing in the product trains through it — `FlUtility`
/// uses the lock-step engine ([`train_coalitions`]) even for one
/// coalition — but that engine must reproduce it bit-for-bit per lane, and
/// keeping this path alive is what makes the contract testable. Its loop
/// also runs [`train_with_history`].
///
/// Clients with empty datasets are skipped (they cannot train); a coalition
/// with no data returns the initialised model, whose utility serves as
/// `U(M_∅)`.
pub fn train_coalition(
    spec: &ModelSpec,
    clients: &[Dataset],
    input: usize,
    classes: usize,
    coalition: Coalition,
    cfg: &FedAvgConfig,
) -> Network {
    run_fedavg(spec, clients, input, classes, coalition, cfg, None)
}

/// Train the full-coalition FL model while recording the training history
/// needed by OR, λ-MR, GTG-Shapley and DIG-FL.
pub fn train_with_history(
    spec: &ModelSpec,
    clients: &[Dataset],
    input: usize,
    classes: usize,
    cfg: &FedAvgConfig,
) -> (Network, TrainingHistory) {
    let n = clients.len();
    let full = Coalition::full(n);
    let mut history = TrainingHistory {
        init_params: Vec::new(),
        updates: Vec::new(),
        globals: Vec::new(),
        client_sizes: clients.iter().map(|c| c.n_samples()).collect(),
    };
    let net = run_fedavg(spec, clients, input, classes, full, cfg, Some(&mut history));
    (net, history)
}

fn run_fedavg(
    spec: &ModelSpec,
    clients: &[Dataset],
    input: usize,
    classes: usize,
    coalition: Coalition,
    cfg: &FedAvgConfig,
    mut history: Option<&mut TrainingHistory>,
) -> Network {
    assert!(coalition.is_subset_of(Coalition::full(clients.len())));
    // (i) Acts at server, first iteration: initialise the global model.
    // The initialisation is shared across coalitions (same server, same
    // seed) so that U(∅) is a single well-defined quantity.
    let mut global = spec.build(input, classes, init_seed(cfg.seed));
    let members: Vec<usize> = coalition
        .members()
        .filter(|&i| !clients[i].is_empty())
        .collect();
    if let Some(h) = history.as_deref_mut() {
        h.init_params = global.params();
    }
    if members.is_empty() {
        return global;
    }
    let total: usize = members.iter().map(|&i| clients[i].n_samples()).sum();
    let mut aggregate = vec![0.0f32; global.param_count()];

    for round in 0..cfg.rounds {
        let base = global.params();
        aggregate.fill(0.0);
        let mut round_updates: Vec<Option<Vec<f32>>> = if history.is_some() {
            vec![None; clients.len()]
        } else {
            Vec::new()
        };
        for &i in &members {
            // (ii) Acts at clients: receive the global model, train on the
            // local dataset, upload the update.
            global.set_params(&base);
            let mut rng = StdRng::seed_from_u64(local_seed(cfg.seed, round, i));
            global.train_epochs(
                &clients[i],
                cfg.local_epochs,
                cfg.batch_size,
                cfg.lr,
                &mut rng,
            );
            let w = clients[i].n_samples() as f32 / total as f32;
            // Δ = local − base, then aggregate += w·Δ.
            let mut delta = global.params();
            axpy(-1.0, &base, &mut delta);
            axpy(w, &delta, &mut aggregate);
            if history.is_some() {
                round_updates[i] = Some(delta);
            }
        }
        // (i) Acts at server: new global model by weighted aggregation of
        // the local models (parameter averaging = base + Σ wᵢΔᵢ).
        let mut next = base;
        axpy(1.0, &aggregate, &mut next);
        global.set_params(&next);
        if let Some(h) = history.as_deref_mut() {
            h.updates.push(round_updates);
            h.globals.push(next);
        }
    }
    global
}

/// Train `B = coalitions.len()` FL models in lock-step, one parameter lane
/// per coalition — the batched FedAvg engine.
///
/// Each round, every client that belongs to *any* lane's coalition is
/// visited once, in ascending client order: its mini-batches are gathered
/// and shuffled once (all lanes share the client's `local_seed`
/// data-order stream, which is coalition-independent by design) and every
/// lane containing the client advances through them via the lane-blocked
/// kernels in `fedval_nn::linalg`. Ascending order is also the order the
/// solo loop aggregates a coalition's updates in, so each lane adds its
/// weighted Δ to its own aggregate as soon as the Δ exists. The result is
/// bit-identical, lane by lane, to calling [`train_coalition`] per
/// coalition — while the data pass, the shuffle stream, the batch gathers
/// and the layer-0 activation loads are paid once per client instead of
/// once per coalition, and the first layer's unused input gradient is
/// never computed.
///
/// Duplicate coalitions are allowed (lanes are independent); an empty
/// batch returns no networks.
pub fn train_coalitions(
    spec: &ModelSpec,
    clients: &[Dataset],
    input: usize,
    classes: usize,
    coalitions: &[Coalition],
    cfg: &FedAvgConfig,
) -> Vec<Network> {
    train_coalitions_params(spec, clients, input, classes, coalitions, cfg)
        .into_iter()
        .map(|params| {
            let mut net = spec.build(input, classes, init_seed(cfg.seed));
            net.set_params(&params);
            net
        })
        .collect()
}

/// [`train_coalitions`] returning each lane's flat parameter vector
/// ([`Network::params`] order) instead of materialised networks — the form
/// batched evaluators consume directly (they reload the lanes into a
/// [`MultiNetwork`] for lock-step scoring).
pub fn train_coalitions_params(
    spec: &ModelSpec,
    clients: &[Dataset],
    input: usize,
    classes: usize,
    coalitions: &[Coalition],
    cfg: &FedAvgConfig,
) -> Vec<Vec<f32>> {
    train_coalitions_params_with_cache(spec, clients, input, classes, coalitions, cfg, None)
}

/// [`train_coalitions_params`] with an optional round-0 [`TrajectoryCache`]:
/// in round 0 — every lane starts from the one server init — the engine
/// probes client `i`'s slot under the init's `(hash, fingerprint)` and
/// replays a hit instead of training; misses train as usual and fill the
/// slot. Later rounds neither probe nor insert; the cache only counts
/// their trainings. The cache must only be shared across calls with
/// identical `(spec, clients, input, classes, cfg)` — see the soundness
/// contract in [`crate::trajcache`]. Results are bit-identical to the
/// uncached path.
pub fn train_coalitions_params_with_cache(
    spec: &ModelSpec,
    clients: &[Dataset],
    input: usize,
    classes: usize,
    coalitions: &[Coalition],
    cfg: &FedAvgConfig,
    cache: Option<&TrajectoryCache>,
) -> Vec<Vec<f32>> {
    let n = clients.len();
    let lanes = coalitions.len();
    if lanes == 0 {
        return Vec::new();
    }
    for &c in coalitions {
        assert!(c.is_subset_of(Coalition::full(n)));
    }
    // (i) Acts at server, first iteration: one shared initialisation for
    // every lane (same server, same seed — U(∅) stays well-defined).
    let init = spec.build(input, classes, init_seed(cfg.seed));
    // Membership is fixed for the whole call: every lane trains each of
    // its non-empty clients every round. Per lane, a member bitset
    // (clients fit in u128 by the Coalition representation) and the
    // aggregation weights n_i / Σ_{j ∈ S} n_j as the solo loop computes
    // them, indexed by client (only members' entries are read).
    let trainable = clients
        .iter()
        .enumerate()
        .filter(|(_, c)| !c.is_empty())
        .fold(0u128, |mask, (i, _)| mask | 1u128 << i);
    let member_mask: Vec<u128> = coalitions.iter().map(|c| c.0 & trainable).collect();
    let weights: Vec<Vec<f32>> = member_mask
        .iter()
        .map(|&mask| {
            let members = Coalition(mask).members();
            let total: usize = members.map(|i| clients[i].n_samples()).sum();
            (0..n)
                .map(|i| clients[i].n_samples() as f32 / total as f32)
                .collect()
        })
        .collect();
    let mut multi = MultiNetwork::from_network(&init, lanes);
    let p = multi.param_count();
    // Per-lane round-start parameters (the lane's current global model)
    // and the lane's running aggregate Σ wᵢΔᵢ for the round.
    let mut bases: Vec<Vec<f32>> = vec![init.params(); lanes];
    let mut aggregates: Vec<Vec<f32>> = vec![vec![0.0f32; p]; lanes];
    // Round 0's start state, the init, is the only one lanes share — within
    // this block and, through the cache, across blocks and calls. Its hash
    // plus a collision-guard fingerprint key the cache's round-0 slots.
    let init_key = cache.map(|cache| {
        let start = &bases[0];
        let hash = TrajectoryCache::key_hash(start);
        (cache, hash, TrajectoryCache::fingerprint(start))
    });
    let mut lane_buf: Vec<f32> = Vec::with_capacity(p);
    let mut active = vec![false; lanes];
    let mut train_mask = vec![false; lanes];

    for round in 0..cfg.rounds {
        // (ii) Acts at clients: visit each member client once; all lanes
        // that contain it train on the same gathered batches.
        for (i, client) in clients.iter().enumerate() {
            for (a, &mask) in active.iter_mut().zip(&member_mask) {
                *a = mask >> i & 1 == 1;
            }
            let Some(first) = active.iter().position(|&a| a) else {
                continue;
            };
            // A local training is a pure function of (round-start params,
            // client, round). In round 0 every active lane starts at the
            // init, so one lane trains — or the cache replays — and its Δ
            // serves them all. Later rounds start from coalition-dependent
            // models: every active lane trains itself.
            if round == 0 {
                let hit = init_key.and_then(|(cache, hash, fp)| cache.lookup(hash, fp, i, 0));
                let shared = match hit {
                    Some(delta) => delta,
                    None => {
                        train_mask.fill(false);
                        train_mask[first] = true;
                        local_train(&mut multi, &bases, client, cfg, round, i, &train_mask);
                        multi.lane_params_into(first, &mut lane_buf);
                        let delta: Arc<Vec<f32>> = Arc::new(
                            lane_buf
                                .iter()
                                .zip(&bases[first])
                                .map(|(a, b)| a - b)
                                .collect(),
                        );
                        if let Some((cache, hash, fp)) = init_key {
                            cache.record_training(0);
                            cache.insert(hash, fp, i, 0, Arc::clone(&delta));
                        }
                        delta
                    }
                };
                for (l, _) in active.iter().enumerate().filter(|(_, &on)| on) {
                    axpy(weights[l][i], &shared, &mut aggregates[l]);
                }
            } else {
                local_train(&mut multi, &bases, client, cfg, round, i, &active);
                // Upload: Δ = local − base, per lane, straight into the
                // lane's aggregate.
                for (l, _) in active.iter().enumerate().filter(|(_, &on)| on) {
                    multi.lane_params_into(l, &mut lane_buf);
                    for (a, b) in lane_buf.iter_mut().zip(&bases[l]) {
                        *a -= b;
                    }
                    axpy(weights[l][i], &lane_buf, &mut aggregates[l]);
                    if let Some(cache) = cache {
                        cache.record_training(round);
                    }
                }
            }
        }
        // (i) Acts at server: base + Σ wᵢΔᵢ per lane. A lane without
        // members keeps its init bit for bit, as the solo loop returns it
        // (adding its zero aggregate would turn −0.0 into +0.0).
        for ((base, aggregate), &mask) in bases.iter_mut().zip(&mut aggregates).zip(&member_mask) {
            if mask != 0 {
                axpy(1.0, aggregate, base);
                aggregate.fill(0.0);
            }
        }
    }
    bases
}

/// Client `i`'s round-`round` local SGD of the lanes set in `train`, each
/// from its round-start parameters in `bases`.
fn local_train(
    multi: &mut MultiNetwork,
    bases: &[Vec<f32>],
    client: &Dataset,
    cfg: &FedAvgConfig,
    round: usize,
    i: usize,
    train: &[bool],
) {
    for (l, _) in train.iter().enumerate().filter(|(_, &on)| on) {
        multi.set_lane_params(l, &bases[l]);
    }
    let mut rng = StdRng::seed_from_u64(local_seed(cfg.seed, round, i));
    multi.train_epochs(
        client,
        cfg.local_epochs,
        cfg.batch_size,
        cfg.lr,
        &mut rng,
        train,
    );
}

#[cfg(test)]
// Tests assert invariants; an unwrap that trips IS the test failing.
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use fedval_data::{MnistLike, SyntheticSetup};

    fn small_problem() -> (Vec<Dataset>, Dataset) {
        let gen = MnistLike::new(5);
        let (train, test) = gen.generate_split(240, 120, 6);
        let mut rng = StdRng::seed_from_u64(7);
        let clients = SyntheticSetup::SameSizeSameDist.partition(&train, 4, &mut rng);
        (clients, test)
    }

    #[test]
    fn federated_training_improves_over_init() {
        let (clients, test) = small_problem();
        let cfg = FedAvgConfig::default();
        let mut init = ModelSpec::default_mlp().build(64, 10, init_seed(cfg.seed));
        let base_acc = init.accuracy(&test);
        let mut net = train_coalition(
            &ModelSpec::default_mlp(),
            &clients,
            64,
            10,
            Coalition::full(4),
            &cfg,
        );
        let acc = net.accuracy(&test);
        assert!(
            acc > base_acc + 0.2,
            "FedAvg accuracy {acc} vs init {base_acc}"
        );
    }

    #[test]
    fn more_clients_help() {
        // Monotonicity in expectation — the core premise of the utility
        // structure (Sec. I, Limitation 2).
        let (clients, test) = small_problem();
        let cfg = FedAvgConfig::default();
        let spec = ModelSpec::default_mlp();
        let mut one = train_coalition(&spec, &clients, 64, 10, Coalition::singleton(0), &cfg);
        let mut all = train_coalition(&spec, &clients, 64, 10, Coalition::full(4), &cfg);
        let acc1 = one.accuracy(&test);
        let acc4 = all.accuracy(&test);
        assert!(acc4 >= acc1 - 0.05, "4 clients {acc4} vs 1 client {acc1}");
    }

    #[test]
    fn empty_coalition_returns_initial_model() {
        let (clients, _) = small_problem();
        let cfg = FedAvgConfig::default();
        let spec = ModelSpec::default_mlp();
        let net = train_coalition(&spec, &clients, 64, 10, Coalition::empty(), &cfg);
        let init = spec.build(64, 10, init_seed(cfg.seed));
        assert_eq!(net.params(), init.params());
    }

    #[test]
    fn training_is_deterministic_per_coalition() {
        let (clients, _) = small_problem();
        let cfg = FedAvgConfig::default();
        let spec = ModelSpec::default_mlp();
        let c = Coalition::from_members([1, 3]);
        let a = train_coalition(&spec, &clients, 64, 10, c, &cfg).params();
        let b = train_coalition(&spec, &clients, 64, 10, c, &cfg).params();
        assert_eq!(a, b);
    }

    #[test]
    fn history_replays_to_final_model() {
        // Reconstructing the *full* coalition from history must reproduce
        // the recorded run exactly (the OR identity on S = N).
        let (clients, _) = small_problem();
        let cfg = FedAvgConfig::default();
        let spec = ModelSpec::default_mlp();
        let (net, history) = train_with_history(&spec, &clients, 64, 10, &cfg);
        assert_eq!(history.rounds(), cfg.rounds);
        let reconstructed = history.reconstruct(Coalition::full(4));
        let actual = net.params();
        let max_diff = reconstructed
            .iter()
            .zip(&actual)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_diff < 1e-4, "max diff {max_diff}");
    }

    #[test]
    fn batched_training_matches_solo_per_lane() {
        // The engine's core contract, exercised here on the default MLP
        // with a mixed batch (duplicates, the empty coalition, the grand
        // coalition); the cross-spec sweep lives in
        // tests/tests/lockstep_equivalence.rs.
        let (clients, _) = small_problem();
        let cfg = FedAvgConfig::default();
        let spec = ModelSpec::default_mlp();
        let batch = [
            Coalition::from_members([1, 3]),
            Coalition::empty(),
            Coalition::full(4),
            Coalition::from_members([1, 3]),
            Coalition::singleton(2),
        ];
        let nets = train_coalitions(&spec, &clients, 64, 10, &batch, &cfg);
        assert_eq!(nets.len(), batch.len());
        for (s, net) in batch.iter().zip(&nets) {
            let solo = train_coalition(&spec, &clients, 64, 10, *s, &cfg);
            assert_eq!(net.params(), solo.params(), "coalition {s:?}");
        }
    }

    #[test]
    fn empty_batch_returns_no_networks() {
        let (clients, _) = small_problem();
        let cfg = FedAvgConfig::default();
        let nets = train_coalitions(&ModelSpec::default_mlp(), &clients, 64, 10, &[], &cfg);
        assert!(nets.is_empty());
    }

    #[test]
    fn cached_training_is_bit_identical_and_skips_repeat_trainings() {
        // The round-0 table at the engine level: a shared TrajectoryCache
        // across two train_coalitions_params calls must change no bits,
        // and the second call must replay every round-0 training the
        // first one paid for — and retrain exactly the later rounds.
        let (clients, _) = small_problem();
        let cfg = FedAvgConfig::default();
        let spec = ModelSpec::default_mlp();
        let batch = [
            Coalition::from_members([1, 3]),
            Coalition::full(4),
            Coalition::singleton(2),
        ];
        let uncached = train_coalitions_params(&spec, &clients, 64, 10, &batch, &cfg);
        let cache = TrajectoryCache::new();
        let cached =
            train_coalitions_params_with_cache(&spec, &clients, 64, 10, &batch, &cfg, Some(&cache));
        assert_eq!(cached, uncached, "cache hits must not change any bits");
        let first = cache.stats();
        assert_eq!(first.hits, 0);
        // Round 0: one shared init ⇒ one training per distinct client,
        // and the only round that probes.
        assert_eq!((first.round0_trainings, first.probes), (4, 4));
        let later = first.local_trainings - first.round0_trainings;
        assert!(later > 0);
        // Replaying the same batch hits every round-0 slot, still
        // bit-identical.
        let replay =
            train_coalitions_params_with_cache(&spec, &clients, 64, 10, &batch, &cfg, Some(&cache));
        assert_eq!(replay, uncached);
        let second = cache.stats();
        assert_eq!((second.probes, second.hits), (8, 4));
        assert_eq!(
            second.round0_trainings, 4,
            "replay trains nothing in round 0"
        );
        assert_eq!(
            second.local_trainings - first.local_trainings,
            later,
            "replay retrains exactly rounds ≥ 1"
        );
    }

    #[test]
    fn only_round_zero_is_shared_across_lanes() {
        // Round 0: every lane starts at the init, so each client trains
        // once for the block. Round 1: every active lane trains itself,
        // duplicates included — 2 + 2 + 4 lane trainings.
        let (clients, _) = small_problem();
        let cfg = FedAvgConfig {
            rounds: 2,
            ..Default::default()
        };
        let spec = ModelSpec::default_mlp();
        let pair = Coalition::from_members([1, 3]);
        let batch = [pair, pair, Coalition::full(4)];
        let cache = TrajectoryCache::new();
        let params =
            train_coalitions_params_with_cache(&spec, &clients, 64, 10, &batch, &cfg, Some(&cache));
        let stats = cache.stats();
        assert_eq!(stats.round0_trainings, 4);
        assert_eq!(stats.local_trainings, 12);
        let solo = train_coalition(&spec, &clients, 64, 10, pair, &cfg).params();
        assert_eq!(params[0], solo);
        assert_eq!(params[1], solo);
    }

    #[test]
    fn history_skips_empty_clients() {
        let (mut clients, _) = small_problem();
        clients[2] = Dataset::empty(64, 10);
        let cfg = FedAvgConfig::default();
        let spec = ModelSpec::default_mlp();
        let (_, history) = train_with_history(&spec, &clients, 64, 10, &cfg);
        assert!(history.updates[0][2].is_none());
        assert!(history.updates[0][0].is_some());
        assert_eq!(history.client_sizes[2], 0);
    }
}
