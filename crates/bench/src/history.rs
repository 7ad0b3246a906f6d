//! Training history of a FedAvg run — the raw material of the
//! gradient-based valuation baselines.
//!
//! OR, λ-MR and GTG-Shapley all avoid retraining by *reconstructing* the
//! model of an arbitrary coalition `S` from the per-round, per-client
//! updates recorded during the single full-coalition FL run (Sec. VI-B-2).
//! [`record_history`] records them from the reference FedAvg loop itself.

// The baselines are estimator code: no wall-clock reads, although the
// harness crate allows them elsewhere, and no `for` over a hash container.
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]

use fedval_core::coalition::Coalition;
use fedval_data::Dataset;
use fedval_fl::{train_coalition_observed, FedAvgConfig, ModelSpec};
use fedval_nn::linalg::axpy;

/// Train the full coalition with the FedAvg reference loop
/// ([`train_coalition_observed`]) and record its history; the last
/// recorded global is that loop's model, bit for bit.
pub fn record_history(
    spec: &ModelSpec,
    clients: &[Dataset],
    input: usize,
    classes: usize,
    cfg: &FedAvgConfig,
) -> TrainingHistory {
    let n = clients.len();
    // Each round's start: the init, then every round's result.
    let mut starts: Vec<Vec<f32>> = Vec::new();
    let mut updates: Vec<Vec<Option<Vec<f32>>>> = Vec::new();
    let full = Coalition::full(n);
    let net = train_coalition_observed(
        spec,
        clients,
        input,
        classes,
        full,
        cfg,
        |r, base, i, delta| {
            if r == updates.len() {
                starts.push(base.to_vec());
                updates.push(vec![None; n]);
            }
            updates[r][i] = Some(delta.to_vec());
        },
    );
    starts.push(net.params());
    let init_params = starts.remove(0);
    TrainingHistory {
        init_params,
        updates,
        globals: starts,
        client_sizes: clients.iter().map(Dataset::n_samples).collect(),
    }
}

/// Everything recorded during one full-coalition FedAvg run.
#[derive(Clone, Debug)]
pub struct TrainingHistory {
    /// Parameters of the initial global model `M⁰`.
    pub init_params: Vec<f32>,
    /// `updates[t][i]` — client `i`'s raw local update `Δᵢᵗ = local − global`
    /// in round `t`; `None` for clients with empty datasets.
    pub updates: Vec<Vec<Option<Vec<f32>>>>,
    /// Global parameters after each round (`globals[t] = M^{t+1}`).
    pub globals: Vec<Vec<f32>>,
    /// Client dataset sizes `|D_i|` (the FedAvg aggregation weights).
    pub client_sizes: Vec<usize>,
}

impl TrainingHistory {
    /// Number of recorded rounds.
    pub fn rounds(&self) -> usize {
        self.updates.len()
    }

    /// Number of clients.
    pub fn n_clients(&self) -> usize {
        self.client_sizes.len()
    }

    /// FedAvg weights restricted to a coalition: `w_i = |D_i| / |D_S|` over
    /// members with data. Returns `None` if the coalition holds no data.
    fn coalition_weights(&self, coalition: Coalition) -> Option<Vec<(usize, f32)>> {
        let total: usize = coalition.members().map(|i| self.client_sizes[i]).sum();
        if total == 0 {
            return None;
        }
        Some(
            coalition
                .members()
                .filter(|&i| self.client_sizes[i] > 0)
                .map(|i| (i, self.client_sizes[i] as f32 / total as f32))
                .collect(),
        )
    }

    /// OR-style reconstruction (Song et al.): replay all rounds from the
    /// initial model, aggregating only the recorded updates of clients in
    /// `coalition` with coalition-restricted FedAvg weights.
    ///
    /// `M_S ≈ M⁰ + Σ_t Σ_{i∈S} w_i·Δᵢᵗ`
    pub fn reconstruct(&self, coalition: Coalition) -> Vec<f32> {
        let mut params = self.init_params.clone();
        let Some(weights) = self.coalition_weights(coalition) else {
            return params;
        };
        for round in &self.updates {
            for &(i, w) in &weights {
                if let Some(delta) = &round[i] {
                    axpy(w, delta, &mut params);
                }
            }
        }
        params
    }

    /// λ-MR / GTG-style *per-round* reconstruction: apply only round `t`'s
    /// coalition updates on top of the **actual** global model entering
    /// round `t`.
    ///
    /// `M_Sᵗ ≈ M^{t} + Σ_{i∈S} w_i·Δᵢᵗ` where `M^{t}` is the recorded
    /// global model before round `t`.
    pub fn reconstruct_round(&self, round: usize, coalition: Coalition) -> Vec<f32> {
        let mut params = self.global_before(round).to_vec();
        let Some(weights) = self.coalition_weights(coalition) else {
            return params;
        };
        for &(i, w) in &weights {
            if let Some(delta) = &self.updates[round][i] {
                axpy(w, delta, &mut params);
            }
        }
        params
    }

    /// The global parameters entering round `t` (`M⁰` for `t = 0`).
    pub fn global_before(&self, round: usize) -> &[f32] {
        if round == 0 {
            &self.init_params
        } else {
            &self.globals[round - 1]
        }
    }

    /// The global parameters after round `t`.
    pub fn global_after(&self, round: usize) -> &[f32] {
        &self.globals[round]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-built two-round, two-client history.
    fn toy_history() -> TrainingHistory {
        TrainingHistory {
            init_params: vec![0.0, 0.0],
            updates: vec![
                vec![Some(vec![1.0, 0.0]), Some(vec![0.0, 2.0])],
                vec![Some(vec![0.5, 0.5]), Some(vec![-0.5, 0.5])],
            ],
            globals: vec![vec![0.5, 1.0], vec![0.5, 1.5]],
            client_sizes: vec![10, 10],
        }
    }

    #[test]
    fn full_coalition_reconstruction_matches_recorded_globals() {
        // With equal sizes the aggregation weight is 1/2; replaying both
        // rounds reproduces the recorded final global exactly.
        let h = toy_history();
        let full = Coalition::from_members([0, 1]);
        let rec = h.reconstruct(full);
        assert_eq!(rec, vec![0.5, 1.5]);
    }

    #[test]
    fn singleton_reconstruction_uses_full_weight() {
        let h = toy_history();
        let rec = h.reconstruct(Coalition::singleton(0));
        // w_0 = 1: init + Δ₀⁰ + Δ₀¹ = [1.5, 0.5].
        assert_eq!(rec, vec![1.5, 0.5]);
    }

    #[test]
    fn empty_coalition_returns_init() {
        let h = toy_history();
        assert_eq!(h.reconstruct(Coalition::empty()), h.init_params);
    }

    #[test]
    fn per_round_reconstruction() {
        let h = toy_history();
        // Round 1 for client 1 alone, on top of the actual global [0.5, 1.0]:
        // + Δ₁¹ = [0.0, 1.5].
        let rec = h.reconstruct_round(1, Coalition::singleton(1));
        assert_eq!(rec, vec![0.0, 1.5]);
        assert_eq!(h.global_before(0), &[0.0, 0.0]);
        assert_eq!(h.global_before(1), &[0.5, 1.0]);
        assert_eq!(h.global_after(1), &[0.5, 1.5]);
    }

    #[test]
    fn zero_size_clients_are_skipped() {
        let mut h = toy_history();
        h.client_sizes = vec![10, 0];
        let rec = h.reconstruct(Coalition::from_members([0, 1]));
        // Only client 0 has data: weight 1.
        assert_eq!(rec, vec![1.5, 0.5]);
        // Coalition of only the empty client: initial model.
        assert_eq!(h.reconstruct(Coalition::singleton(1)), h.init_params);
    }

    #[test]
    fn unequal_sizes_weight_proportionally() {
        let mut h = toy_history();
        h.client_sizes = vec![30, 10]; // weights 0.75 / 0.25
        let rec = h.reconstruct(Coalition::from_members([0, 1]));
        // round 0: 0.75·[1,0] + 0.25·[0,2] = [0.75, 0.5]
        // round 1: 0.75·[0.5,0.5] + 0.25·[−0.5,0.5] = [0.25, 0.5]
        assert_eq!(rec, vec![1.0, 1.0]);
    }
}
