//! The FedAvg training loop (Def. 1) over arbitrary coalitions of
//! clients: a lock-step engine ([`train_coalitions`]) that advances `B`
//! coalition models through one pass over the client data, and the solo
//! reference loop ([`train_coalition`]) it is bit-identical to, with
//! optional recording of the per-round per-client updates that the
//! gradient-based baselines consume.
//!
//! The paper's implementation simulates data providers as separate
//! processes speaking gRPC; the transport does not affect valuation, so
//! clients here run in-process with the same message flow: broadcast
//! global parameters → local SGD → upload update → weighted aggregation
//! (substitution documented in DESIGN.md §2).
//!
//! **Determinism contract.** Every coalition's trajectory is a pure
//! function of `(spec, clients, coalition, cfg)`: model initialisation is
//! seeded by `init_seed(cfg.seed)`, client `i`'s round-`r` data order by
//! `local_seed(cfg.seed, r, i)` and partial participation by
//! `local_seed(cfg.seed, r, ·)` — none of them by *which other coalitions
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

use crate::config::{init_seed, local_seed, FedAvgConfig, FlAlgorithm};
use crate::history::TrainingHistory;
use crate::model::ModelSpec;
use crate::trajcache::{class_lanes, TrajectoryCache};

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
    assert!(
        cfg.participation > 0.0 && cfg.participation <= 1.0,
        "participation must be in (0, 1]"
    );
    let mut aggregate = vec![0.0f32; global.param_count()];
    // Participant scratch, allocated once and refilled per round, plus
    // the FedProx proximal-direction scratch.
    let mut pool: Vec<usize> = Vec::with_capacity(members.len());
    let mut prox_dir: Vec<f32> = Vec::new();

    for round in 0..cfg.rounds {
        fill_participants(&members, cfg, round, &mut pool);
        let participants: &[usize] = &pool;
        let total: usize = participants.iter().map(|&i| clients[i].n_samples()).sum();
        let base = global.params();
        aggregate.fill(0.0);
        let mut round_updates: Vec<Option<Vec<f32>>> = if history.is_some() {
            vec![None; clients.len()]
        } else {
            Vec::new()
        };
        for &i in participants {
            // (ii) Acts at clients: receive the global model, train on the
            // local dataset, upload the update.
            global.set_params(&base);
            let mut rng = StdRng::seed_from_u64(local_seed(cfg.seed, round, i));
            match cfg.algorithm {
                FlAlgorithm::FedAvg => {
                    global.train_epochs(
                        &clients[i],
                        cfg.local_epochs,
                        cfg.batch_size,
                        cfg.lr,
                        &mut rng,
                    );
                }
                FlAlgorithm::FedProx { mu } => {
                    for _ in 0..cfg.local_epochs {
                        global.train_epochs(&clients[i], 1, cfg.batch_size, cfg.lr, &mut rng);
                        // Proximal pull towards the round's global model:
                        // w ← w − lr·μ·(w − g) ≡ w ← w + lr·μ·(g − w),
                        // an axpy along the (g − w) direction.
                        let mut p = global.params();
                        prox_dir.clear();
                        prox_dir.extend(base.iter().zip(&p).map(|(g, w)| g - w));
                        axpy(cfg.lr * mu, &prox_dir, &mut p);
                        global.set_params(&p);
                    }
                }
            }
            let local = global.params();
            let w = clients[i].n_samples() as f32 / total as f32;
            // Δ = local − base, then aggregate += w·Δ.
            let mut delta = local;
            axpy(-1.0, &base, &mut delta);
            axpy(w, &delta, &mut aggregate);
            if history.is_some() {
                round_updates[i] = Some(delta);
            }
        }
        // (i) Acts at server: new global model by weighted aggregation of
        // the local models (parameter averaging = base + η_s·Σ wᵢΔᵢ).
        let mut next = base;
        axpy(cfg.server_lr, &aggregate, &mut next);
        global.set_params(&next);
        if let Some(h) = history.as_deref_mut() {
            h.updates.push(round_updates);
            h.globals.push(next);
        }
    }
    global
}

/// Fill `out` with the round's participants, reusing its allocation.
///
/// Partial participation: the server samples `⌈|members|·participation⌉`
/// of the coalition's clients each round (all of them at 1.0, the paper's
/// cross-silo setting) via a partial Fisher–Yates pass seeded by
/// `(seed, round)` only, so the same round draws the same random sequence
/// across coalitions. The draw sequence is identical to the historical
/// clone-and-truncate implementation — participant sequences are pinned by
/// a regression test — but the scratch buffer makes the per-round cost
/// allocation-free.
fn fill_participants(members: &[usize], cfg: &FedAvgConfig, round: usize, out: &mut Vec<usize>) {
    out.clear();
    out.extend_from_slice(members);
    if cfg.participation >= 1.0 || members.is_empty() {
        return;
    }
    let k = ((members.len() as f32 * cfg.participation).ceil() as usize).clamp(1, members.len());
    let mut rng = StdRng::seed_from_u64(local_seed(cfg.seed, round, usize::MAX - 1));
    for j in 0..k {
        let pick = rand::Rng::random_range(&mut rng, j..out.len());
        out.swap(j, pick);
    }
    out.truncate(k);
}

/// Membership bitset of a participant list: bit `i` set iff client `i`
/// participates. Client indices fit in a `u128` by the [`Coalition`]
/// representation (`MAX_CLIENTS = 128`), so the lock-step engine's
/// per-client activity test is one shift instead of a list scan per lane.
#[inline]
pub(crate) fn participant_mask(participants: &[usize]) -> u128 {
    let mut mask = 0u128;
    for &i in participants {
        mask |= 1u128 << i;
    }
    mask
}

/// Train `B = coalitions.len()` FL models in lock-step, one parameter lane
/// per coalition — the batched FedAvg engine.
///
/// Each round, every client that participates in *any* lane's coalition is
/// visited once: its mini-batches are gathered and shuffled once (all
/// lanes share the client's `local_seed` data-order stream, which is
/// coalition-independent by design) and every lane containing the client
/// advances through them via the lane-blocked kernels in
/// `fedval_nn::linalg`. Aggregation then runs per lane over that lane's
/// own participant order. The result is bit-identical, lane by lane, to
/// calling [`train_coalition`] per coalition — while the data pass, the
/// shuffle stream, the batch gathers and the layer-0 activation loads are
/// paid once per client instead of once per coalition, and the first
/// layer's unused input gradient is never computed.
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
    let members: Vec<Vec<usize>> = coalitions
        .iter()
        .map(|c| c.members().filter(|&i| !clients[i].is_empty()).collect())
        .collect();
    if members.iter().any(|m: &Vec<usize>| !m.is_empty()) {
        assert!(
            cfg.participation > 0.0 && cfg.participation <= 1.0,
            "participation must be in (0, 1]"
        );
    }
    let mut multi = MultiNetwork::from_network(&init, lanes);
    let p = multi.param_count();
    // Per-lane round-start parameters (the lane's current global model).
    let mut bases: Vec<Vec<f32>> = vec![init.params(); lanes];
    // Scratch reused across rounds: per-lane participants, per-lane
    // per-client deltas, the aggregation buffer and a params staging
    // buffer.
    let mut participants: Vec<Vec<usize>> = vec![Vec::new(); lanes];
    let mut member_mask: Vec<u128> = vec![0; lanes];
    let mut deltas: Vec<Vec<Option<Vec<f32>>>> = vec![(0..n).map(|_| None).collect(); lanes];
    let mut aggregate = vec![0.0f32; p];
    let mut lane_buf: Vec<f32> = Vec::with_capacity(p);
    let mut delta_buf: Vec<f32> = Vec::with_capacity(p);
    let mut prox_dir: Vec<f32> = Vec::new();
    let mut active = vec![false; lanes];

    for round in 0..cfg.rounds {
        for (l, m) in members.iter().enumerate() {
            fill_participants(m, cfg, round, &mut participants[l]);
            // Per-round membership bitset per lane (clients fit in u128 by
            // the Coalition representation), so the per-client loop below
            // tests participation in O(1) instead of scanning the
            // participant list per lane per client.
            member_mask[l] = participant_mask(&participants[l]);
        }
        // Shared-trajectory grouping: a client's local training is a pure
        // function of (round-start params, client data, the
        // coalition-independent RNG stream), so lanes whose bases are
        // bit-equal would compute *identical* updates. Partition the lanes
        // by base equality once per round (bases are fixed until
        // aggregation) — hash-bucketed, bit-equality verified only within
        // a bucket, so classing costs O(lanes·p) instead of the historical
        // O(lanes²·p) pairwise scan. Per client, only the active lanes of
        // each class train — one representative each, its update copied to
        // the rest. Every lane coincides in round 0 (one shared server
        // init), so the first round costs one local training per client
        // per block instead of one per lane — and later rounds still
        // coalesce duplicated or converged trajectories.
        let lane_classes = class_lanes(&bases);
        // Round 0's single class (the shared init) is the only start state
        // other blocks and calls can have in common: its hash plus a
        // collision-guard fingerprint key the cache. Later rounds skip both
        // the fingerprint's O(p) scan and the cache.
        let round0 = match cache {
            Some(cache) if round == 0 => {
                debug_assert_eq!(lane_classes.reps.len(), 1, "every lane starts at the init");
                Some((
                    cache,
                    lane_classes.hashes[0],
                    TrajectoryCache::fingerprint(&bases[0]),
                ))
            }
            _ => None,
        };
        // (ii) Acts at clients: visit each participating client once; all
        // lanes that contain it train on the same gathered batches.
        for (i, client) in clients.iter().enumerate() {
            let mut any = false;
            for (a, &mask) in active.iter_mut().zip(&member_mask) {
                *a = mask >> i & 1 == 1;
                any |= *a;
            }
            if !any {
                continue;
            }
            // Active lanes of one base class share a group; the first
            // active lane acts as its representative.
            let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
            for (l, &on) in active.iter().enumerate() {
                if on {
                    match groups
                        .iter_mut()
                        .find(|(rep, _)| lane_classes.class_of[*rep] == lane_classes.class_of[l])
                    {
                        Some((_, members)) => members.push(l),
                        None => groups.push((l, vec![l])),
                    }
                }
            }
            // Round 0: probe the cache per group — a hit replays the
            // memoised update for every lane of the group; only the
            // missing groups train below.
            let mut train_mask = vec![false; lanes];
            let mut misses: Vec<(usize, Vec<usize>)> = Vec::new();
            for (rep, group) in groups {
                if let Some((cache, hash, fp)) = round0 {
                    if let Some(hit) = cache.lookup(hash, fp, i, round) {
                        for &l in &group {
                            let mut delta = deltas[l][i].take().unwrap_or_default();
                            delta.clear();
                            delta.extend_from_slice(&hit);
                            deltas[l][i] = Some(delta);
                        }
                        continue;
                    }
                }
                train_mask[rep] = true;
                multi.set_lane_params(rep, &bases[rep]);
                misses.push((rep, group));
            }
            if misses.is_empty() {
                continue; // every group replayed from the cache
            }
            let mut rng = StdRng::seed_from_u64(local_seed(cfg.seed, round, i));
            match cfg.algorithm {
                FlAlgorithm::FedAvg => {
                    multi.train_epochs(
                        client,
                        cfg.local_epochs,
                        cfg.batch_size,
                        cfg.lr,
                        &mut rng,
                        &train_mask,
                    );
                }
                FlAlgorithm::FedProx { mu } => {
                    for _ in 0..cfg.local_epochs {
                        multi.train_epochs(
                            client,
                            1,
                            cfg.batch_size,
                            cfg.lr,
                            &mut rng,
                            &train_mask,
                        );
                        // Proximal pull towards each group's round-start
                        // global model (identical across the group), as an
                        // axpy along (g − w) — the same arithmetic as the
                        // solo path's proximal step.
                        for (rep, _) in &misses {
                            multi.lane_params_into(*rep, &mut lane_buf);
                            prox_dir.clear();
                            prox_dir.extend(bases[*rep].iter().zip(&lane_buf).map(|(g, w)| g - w));
                            axpy(cfg.lr * mu, &prox_dir, &mut lane_buf);
                            multi.set_lane_params(*rep, &lane_buf);
                        }
                    }
                }
            }
            // Upload: Δ = local − base, computed once per group, inserted
            // into the cache in round 0 and replicated to every lane in the
            // group (bit-equal by construction).
            for (rep, group) in &misses {
                multi.lane_params_into(*rep, &mut lane_buf);
                delta_buf.clear();
                delta_buf.extend(lane_buf.iter().zip(&bases[*rep]).map(|(a, b)| a - b));
                if let Some(cache) = cache {
                    cache.record_training(round);
                }
                if let Some((cache, hash, fp)) = round0 {
                    cache.insert(hash, fp, i, round, Arc::new(delta_buf.clone()));
                }
                for &l in group {
                    let mut delta = deltas[l][i].take().unwrap_or_default();
                    delta.clear();
                    delta.extend_from_slice(&delta_buf);
                    deltas[l][i] = Some(delta);
                }
            }
        }
        // (i) Acts at server: weighted aggregation per lane, in that
        // lane's own participant order (the order solo aggregation adds
        // the updates in — f32 sums are order-sensitive).
        for l in 0..lanes {
            if participants[l].is_empty() {
                continue;
            }
            let total: usize = participants[l]
                .iter()
                .map(|&i| clients[i].n_samples())
                .sum();
            aggregate.fill(0.0);
            for &i in &participants[l] {
                let w = clients[i].n_samples() as f32 / total as f32;
                let Some(delta) = deltas[l][i].as_ref() else {
                    unreachable!("every participant's delta was stored this round")
                };
                axpy(w, delta, &mut aggregate);
            }
            axpy(cfg.server_lr, &aggregate, &mut bases[l]);
        }
    }
    bases
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
    fn batched_training_matches_solo_under_partial_participation_and_fedprox() {
        let (clients, _) = small_problem();
        for cfg in [
            FedAvgConfig {
                rounds: 3,
                local_epochs: 1,
                participation: 0.5,
                seed: 91,
                ..Default::default()
            },
            FedAvgConfig {
                rounds: 2,
                local_epochs: 2,
                algorithm: FlAlgorithm::FedProx { mu: 0.3 },
                seed: 92,
                ..Default::default()
            },
        ] {
            let spec = ModelSpec::default_mlp();
            let batch = [
                Coalition::full(4),
                Coalition::from_members([0, 2]),
                Coalition::from_members([1, 2, 3]),
            ];
            let nets = train_coalitions(&spec, &clients, 64, 10, &batch, &cfg);
            for (s, net) in batch.iter().zip(&nets) {
                let solo = train_coalition(&spec, &clients, 64, 10, *s, &cfg);
                assert_eq!(net.params(), solo.params(), "coalition {s:?} cfg {cfg:?}");
            }
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
    fn participant_sampling_matches_legacy_clone_based_draws() {
        // The scratch-buffer sampler must replay the historical
        // clone-and-truncate draw sequence exactly (cached utilities from
        // earlier runs depend on it).
        for seed in [0u64, 7, 123] {
            for participation in [0.25f32, 0.5, 0.75] {
                let members: Vec<usize> = vec![0, 2, 3, 5, 6, 8];
                let cfg = FedAvgConfig {
                    participation,
                    seed,
                    ..Default::default()
                };
                let mut scratch = Vec::new();
                for round in 0..6 {
                    let k = ((members.len() as f32 * participation).ceil() as usize)
                        .clamp(1, members.len());
                    let mut rng = StdRng::seed_from_u64(local_seed(seed, round, usize::MAX - 1));
                    let mut pool = members.clone();
                    for j in 0..k {
                        let pick = rand::Rng::random_range(&mut rng, j..pool.len());
                        pool.swap(j, pick);
                    }
                    pool.truncate(k);
                    fill_participants(&members, &cfg, round, &mut scratch);
                    assert_eq!(scratch, pool, "seed {seed} p {participation} round {round}");
                }
            }
        }
    }

    #[test]
    fn participant_sequence_is_pinned_for_fixed_seed() {
        // Regression pin: the exact participant sequence for seed 46,
        // participation 0.5 over members {0,1,2,3}. Any change to the seed
        // derivation or the draw order shows up here first.
        let members = vec![0usize, 1, 2, 3];
        let cfg = FedAvgConfig {
            participation: 0.5,
            seed: 46,
            ..Default::default()
        };
        let mut scratch = Vec::new();
        let picks: Vec<Vec<usize>> = (0..4)
            .map(|round| {
                fill_participants(&members, &cfg, round, &mut scratch);
                scratch.clone()
            })
            .collect();
        assert_eq!(picks, PINNED_PICKS);
    }

    /// Expected participant sequence for the pinned-seed test above.
    const PINNED_PICKS: [[usize; 2]; 4] = [[0, 2], [2, 1], [3, 1], [1, 0]];

    #[test]
    fn participant_masks_mirror_participant_lists() {
        // Regression companion to the O(lanes × |participants|) per-client
        // scan: the bitset must answer exactly the `contains` queries the
        // engine used to make, across the whole index range.
        assert_eq!(participant_mask(&[]), 0);
        assert_eq!(participant_mask(&[0, 2, 5]), 0b100101);
        assert_eq!(participant_mask(&[127]), 1u128 << 127);
        let parts = vec![3usize, 17, 64, 100, 127];
        let mask = participant_mask(&parts);
        for i in 0..128usize {
            assert_eq!(mask >> i & 1 == 1, parts.contains(&i), "client {i}");
        }
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

#[cfg(test)]
mod algorithm_tests {
    use super::*;
    use crate::config::FlAlgorithm;
    use fedval_data::{MnistLike, SyntheticSetup};

    fn heterogeneous_problem() -> (Vec<Dataset>, Dataset) {
        let gen = MnistLike::new(41);
        let (train, test) = gen.generate_split(320, 200, 42);
        let mut rng = StdRng::seed_from_u64(43);
        // Label-skewed: the setting FedProx is designed for.
        let clients = SyntheticSetup::SameSizeDiffDist {
            majority_fraction: 0.6,
        }
        .partition(&train, 4, &mut rng);
        (clients, test)
    }

    #[test]
    fn fedprox_trains_and_differs_from_fedavg() {
        let (clients, test) = heterogeneous_problem();
        let spec = ModelSpec::default_mlp();
        let avg_cfg = FedAvgConfig {
            rounds: 4,
            local_epochs: 2,
            lr: 0.2,
            seed: 44,
            ..Default::default()
        };
        let prox_cfg = FedAvgConfig {
            algorithm: FlAlgorithm::FedProx { mu: 0.5 },
            ..avg_cfg
        };
        let full = Coalition::full(4);
        let mut avg = train_coalition(&spec, &clients, 64, 10, full, &avg_cfg);
        let mut prox = train_coalition(&spec, &clients, 64, 10, full, &prox_cfg);
        assert_ne!(avg.params(), prox.params());
        // Both must actually learn.
        assert!(avg.accuracy(&test) > 0.4);
        assert!(prox.accuracy(&test) > 0.4);
    }

    #[test]
    fn fedprox_mu_zero_matches_fedavg() {
        let (clients, _) = heterogeneous_problem();
        let spec = ModelSpec::default_mlp();
        // local_epochs = 1 so both code paths perform exactly one
        // train_epochs call per round (with more epochs the data order
        // legitimately differs: FedProx reshuffles from the identity
        // permutation each epoch).
        let base = FedAvgConfig {
            rounds: 2,
            local_epochs: 1,
            lr: 0.2,
            seed: 45,
            ..Default::default()
        };
        let prox0 = FedAvgConfig {
            algorithm: FlAlgorithm::FedProx { mu: 0.0 },
            ..base
        };
        let full = Coalition::full(4);
        let a = train_coalition(&spec, &clients, 64, 10, full, &base).params();
        let b = train_coalition(&spec, &clients, 64, 10, full, &prox0).params();
        assert_eq!(a, b, "μ = 0 FedProx must reduce to FedAvg exactly");
    }

    #[test]
    fn partial_participation_uses_subset_each_round() {
        let (clients, _) = heterogeneous_problem();
        let spec = ModelSpec::default_mlp();
        let cfg = FedAvgConfig {
            rounds: 3,
            local_epochs: 1,
            participation: 0.5,
            seed: 46,
            ..Default::default()
        };
        let (_, history) = train_with_history(&spec, &clients, 64, 10, &cfg);
        for round in &history.updates {
            let active = round.iter().filter(|u| u.is_some()).count();
            assert_eq!(active, 2, "ceil(4 × 0.5) = 2 participants per round");
        }
        // Different rounds should not always pick the same pair.
        let picks: std::collections::HashSet<Vec<usize>> = history
            .updates
            .iter()
            .map(|round| (0..4).filter(|&i| round[i].is_some()).collect::<Vec<_>>())
            .collect();
        assert!(picks.len() > 1, "participation should vary across rounds");
    }

    #[test]
    fn server_lr_scales_the_update() {
        let (clients, _) = heterogeneous_problem();
        let spec = ModelSpec::default_mlp();
        let base = FedAvgConfig {
            rounds: 1,
            local_epochs: 1,
            lr: 0.2,
            seed: 47,
            ..Default::default()
        };
        let half = FedAvgConfig {
            server_lr: 0.5,
            ..base
        };
        let full = Coalition::full(4);
        let init = spec.build(64, 10, init_seed(47)).params();
        let a = train_coalition(&spec, &clients, 64, 10, full, &base).params();
        let b = train_coalition(&spec, &clients, 64, 10, full, &half).params();
        for ((i, pa), pb) in init.iter().zip(&a).zip(&b) {
            let full_step = pa - i;
            let half_step = pb - i;
            assert!(
                (half_step - 0.5 * full_step).abs() < 1e-5,
                "server_lr must scale the aggregated update"
            );
        }
    }
}
