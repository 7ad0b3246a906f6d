//! A concrete FL linear-regression utility matching the assumptions of
//! Theorems 2–3: per-client Gaussian data, pooled ordinary least squares,
//! utility = negative test MSE.
//!
//! Unlike the neural substrate this solves the model in closed form
//! (normal equations), so tens of thousands of coalition evaluations run in
//! milliseconds — which is what the variance experiments (Fig. 10) and the
//! theorem-validation bench need.

use rand::rngs::StdRng;
use rand::SeedableRng;

use fedval_core::coalition::Coalition;
use fedval_core::utility::Utility;
use fedval_data::rand_ext::standard_normal;

/// Per-client regression data.
#[derive(Clone, Debug)]
pub struct RegressionData {
    /// Row-major `n × d` design matrix.
    pub xs: Vec<f64>,
    /// Targets.
    pub ys: Vec<f64>,
    pub dim: usize,
}

impl RegressionData {
    pub fn n_samples(&self) -> usize {
        self.ys.len()
    }

    pub fn row(&self, i: usize) -> &[f64] {
        &self.xs[i * self.dim..(i + 1) * self.dim]
    }
}

/// Generate `n` samples of `y = βᵀx + ε` with `x ~ N(0, I)`,
/// `ε ~ N(0, σ²)`.
pub fn generate_regression(
    beta: &[f64],
    n: usize,
    noise_std: f64,
    rng: &mut StdRng,
) -> RegressionData {
    let dim = beta.len();
    let mut xs = Vec::with_capacity(n * dim);
    let mut ys = Vec::with_capacity(n);
    for _ in 0..n {
        let mut y = 0.0;
        for &b in beta {
            let x = standard_normal(rng);
            xs.push(x);
            y += b * x;
        }
        ys.push(y + noise_std * standard_normal(rng));
    }
    RegressionData { xs, ys, dim }
}

/// Solve `A·w = b` for symmetric positive-definite `A` (in-place
/// Gauss–Jordan with partial pivoting; `A` is `d×d` row-major).
fn solve(mut a: Vec<f64>, mut b: Vec<f64>, d: usize) -> Option<Vec<f64>> {
    for col in 0..d {
        // Partial pivot.
        let pivot =
            (col..d).max_by(|&i, &j| a[i * d + col].abs().total_cmp(&a[j * d + col].abs()))?;
        if a[pivot * d + col].abs() < 1e-12 {
            return None;
        }
        if pivot != col {
            for k in 0..d {
                a.swap(col * d + k, pivot * d + k);
            }
            b.swap(col, pivot);
        }
        let diag = a[col * d + col];
        for k in 0..d {
            a[col * d + k] /= diag;
        }
        b[col] /= diag;
        for row in 0..d {
            if row == col {
                continue;
            }
            let factor = a[row * d + col];
            if factor == 0.0 {
                continue;
            }
            for k in 0..d {
                a[row * d + k] -= factor * a[col * d + k];
            }
            b[row] -= factor * b[col];
        }
    }
    Some(b)
}

/// Ordinary least squares with a tiny ridge for numerical stability.
/// Returns `None` when the system is under-determined.
pub fn fit_ols(data: &[&RegressionData]) -> Option<Vec<f64>> {
    let dim = data.first()?.dim;
    let total: usize = data.iter().map(|d| d.n_samples()).sum();
    if total < dim + 2 {
        return None;
    }
    let mut xtx = vec![0.0f64; dim * dim];
    let mut xty = vec![0.0f64; dim];
    for part in data {
        for i in 0..part.n_samples() {
            let row = part.row(i);
            let y = part.ys[i];
            for a in 0..dim {
                xty[a] += row[a] * y;
                for b in a..dim {
                    xtx[a * dim + b] += row[a] * row[b];
                }
            }
        }
    }
    // Mirror the upper triangle and add a whisper of ridge.
    for a in 0..dim {
        for b in 0..a {
            xtx[a * dim + b] = xtx[b * dim + a];
        }
        xtx[a * dim + a] += 1e-9;
    }
    solve(xtx, xty, dim)
}

/// Mean squared prediction error of `w` on `test`.
pub fn prediction_error(w: &[f64], test: &RegressionData) -> f64 {
    let n = test.n_samples();
    assert!(n > 0);
    let mut total = 0.0;
    for i in 0..n {
        let pred: f64 = test.row(i).iter().zip(w).map(|(x, w)| x * w).sum();
        let e = pred - test.ys[i];
        total += e * e;
    }
    total / n as f64
}

/// FL linear-regression utility: `U(S) = −MSE(OLS(∪_{i∈S} D_i), test)`,
/// the Lemma 1 / Theorem 3 setting. Theorem 2's MAE setting (Eq. 8) is
/// [`crate::variance::TrainingErrorUtility`].
///
/// Coalitions with too little pooled data to determine the regression get
/// the error of the zero (initial) model — the `m0` of Lemma 1.
pub struct LinRegUtility {
    pub clients: Vec<RegressionData>,
    pub test: RegressionData,
}

impl LinRegUtility {
    /// Build a synthetic instance of the theorems' setting: `n` clients
    /// with the given per-client sample counts, all drawn from the same
    /// distribution.
    pub fn synthetic(
        beta: &[f64],
        client_sizes: &[usize],
        n_test: usize,
        noise_std: f64,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let clients = client_sizes
            .iter()
            .map(|&s| generate_regression(beta, s, noise_std, &mut rng))
            .collect();
        let test = generate_regression(beta, n_test, noise_std, &mut rng);
        LinRegUtility { clients, test }
    }

    /// Error of the zero model on the test set (`m0`).
    pub fn initial_error(&self) -> f64 {
        let zero = vec![0.0; self.test.dim];
        prediction_error(&zero, &self.test)
    }
}

impl Utility for LinRegUtility {
    fn n_clients(&self) -> usize {
        self.clients.len()
    }

    fn eval(&self, s: Coalition) -> f64 {
        let parts: Vec<&RegressionData> = s.members().map(|i| &self.clients[i]).collect();
        match fit_ols(&parts) {
            Some(w) => -prediction_error(&w, &self.test),
            None => -self.initial_error(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedval_core::exact::exact_mc_sv;

    #[test]
    fn ols_recovers_true_coefficients() {
        let beta = vec![1.5, -2.0, 0.5];
        let mut rng = StdRng::seed_from_u64(1);
        let data = generate_regression(&beta, 2000, 0.1, &mut rng);
        let w = fit_ols(&[&data]).unwrap();
        for (a, b) in w.iter().zip(&beta) {
            assert!((a - b).abs() < 0.02, "{w:?}");
        }
    }

    #[test]
    fn ols_underdetermined_returns_none() {
        let beta = vec![1.0; 5];
        let mut rng = StdRng::seed_from_u64(2);
        let data = generate_regression(&beta, 4, 0.1, &mut rng);
        assert!(fit_ols(&[&data]).is_none());
        assert!(fit_ols(&[] as &[&RegressionData]).is_none());
    }

    #[test]
    fn solver_agrees_with_known_system() {
        // A = [[2,1],[1,3]], b = [3,5] ⇒ x = [4/5, 7/5].
        let x = solve(vec![2.0, 1.0, 1.0, 3.0], vec![3.0, 5.0], 2).unwrap();
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
        // Singular system.
        assert!(solve(vec![1.0, 1.0, 1.0, 1.0], vec![1.0, 2.0], 2).is_none());
    }

    #[test]
    fn utility_is_monotone_in_expectation() {
        let beta = vec![1.0, -1.0, 0.5, 2.0];
        let u = LinRegUtility::synthetic(&beta, &[30; 6], 500, 0.5, 3);
        let one = u.eval(Coalition::singleton(0));
        let all = u.eval(Coalition::full(6));
        assert!(all >= one, "U(N) = {all} < U({{0}}) = {one}");
        // Utility is negative (it is a negated error).
        assert!(all <= 0.0);
    }

    #[test]
    fn empty_coalition_gets_initial_model_error() {
        let beta = vec![1.0, 2.0];
        let u = LinRegUtility::synthetic(&beta, &[20; 3], 200, 0.2, 4);
        let empty = u.eval(Coalition::empty());
        assert!((empty + u.initial_error()).abs() < 1e-12);
    }

    #[test]
    fn equal_clients_get_equal_values_approximately() {
        // Symmetric clients ⇒ near-equal Shapley values.
        let beta = vec![1.0, -0.5, 0.25];
        let u = LinRegUtility::synthetic(&beta, &[40; 5], 2000, 0.3, 5);
        let phi = exact_mc_sv(&u);
        let mean: f64 = phi.iter().sum::<f64>() / phi.len() as f64;
        for v in &phi {
            assert!(
                (v - mean).abs() < 0.15 * mean.abs().max(1e-3),
                "{phi:?} (mean {mean})"
            );
        }
    }
}
