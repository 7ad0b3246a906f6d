//! Evaluation metrics of Sec. V-A plus the property-based proxies used in
//! the Fig. 9 scalability test and Pareto-front extraction for Fig. 8.

/// The paper's approximation-error metric (Eq. 21):
/// `l2(ϕ̂, ϕ) = ‖ϕ̂ − ϕ‖₂ / ‖ϕ‖₂`.
pub fn l2_relative_error(estimate: &[f64], exact: &[f64]) -> f64 {
    assert_eq!(estimate.len(), exact.len());
    let num: f64 = estimate
        .iter()
        .zip(exact)
        .map(|(a, e)| (a - e) * (a - e))
        .sum::<f64>()
        .sqrt();
    let den: f64 = exact.iter().map(|e| e * e).sum::<f64>().sqrt();
    if den == 0.0 {
        if num == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        num / den
    }
}

/// Kendall rank-correlation coefficient `τ` between two valuations.
///
/// Data markets often care about the *ranking* of providers more than the
/// raw values; `τ = 1` means identical order, `τ = −1` reversed.
pub fn kendall_tau(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    for i in 0..n {
        for j in (i + 1)..n {
            let x = (a[i] - a[j]).signum();
            let y = (b[i] - b[j]).signum();
            let prod = x * y;
            if prod > 0.0 {
                concordant += 1;
            } else if prod < 0.0 {
                discordant += 1;
            }
        }
    }
    let pairs = (n * (n - 1) / 2) as f64;
    (concordant - discordant) as f64 / pairs
}

/// Property-based error proxy for the scalability test (Fig. 9), where the
/// exact SV is incomputable.
///
/// The experiment plants `free_riders` (clients with empty datasets, whose
/// exact value is 0 by the null-player axiom, Eq. 1) and `duplicate_pairs`
/// (clients holding identical datasets, whose exact values are equal by
/// symmetric fairness, Eq. 2). The proxy is the l2 norm of all axiom
/// violations, normalised by the l2 norm of the valuation — the same scale
/// as Eq. 21.
pub fn property_error(
    values: &[f64],
    free_riders: &[usize],
    duplicate_pairs: &[(usize, usize)],
) -> f64 {
    let mut violation = 0.0f64;
    for &i in free_riders {
        violation += values[i] * values[i];
    }
    for &(i, j) in duplicate_pairs {
        let d = values[i] - values[j];
        violation += d * d;
    }
    let norm: f64 = values.iter().map(|v| v * v).sum::<f64>().sqrt();
    if norm == 0.0 {
        return if violation == 0.0 { 0.0 } else { f64::INFINITY };
    }
    violation.sqrt() / norm
}

/// Sample mean.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Indices of the Pareto-optimal points when minimising both coordinates
/// (time, error), as plotted in Fig. 8. Returned sorted by the first
/// coordinate. A point is kept iff no other point is at least as good in
/// both coordinates and strictly better in one.
pub fn pareto_front(points: &[(f64, f64)]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..points.len()).collect();
    idx.sort_by(|&a, &b| {
        points[a]
            .partial_cmp(&points[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut front = Vec::new();
    let mut best_err = f64::INFINITY;
    for &i in &idx {
        let (_, err) = points[i];
        if err < best_err {
            front.push(i);
            best_err = err;
        }
    }
    front
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_error_basics() {
        let exact = vec![1.0, 2.0, 2.0];
        assert_eq!(l2_relative_error(&exact, &exact), 0.0);
        let est = vec![1.0, 2.0, 5.0];
        assert!((l2_relative_error(&est, &exact) - 1.0).abs() < 1e-12);
        assert_eq!(l2_relative_error(&[0.0], &[0.0]), 0.0);
        assert_eq!(l2_relative_error(&[1.0], &[0.0]), f64::INFINITY);
    }

    #[test]
    fn kendall_tau_extremes() {
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b = vec![10.0, 20.0, 30.0, 40.0];
        assert_eq!(kendall_tau(&a, &b), 1.0);
        let rev: Vec<f64> = b.iter().rev().copied().collect();
        assert_eq!(kendall_tau(&a, &rev), -1.0);
        assert_eq!(kendall_tau(&[1.0], &[5.0]), 1.0);
    }

    #[test]
    fn property_error_detects_violations() {
        // A perfect valuation: free rider at 0, duplicates equal.
        let good = vec![0.0, 0.5, 0.5, 0.3];
        assert_eq!(property_error(&good, &[0], &[(1, 2)]), 0.0);
        // A violating valuation.
        let bad = vec![0.2, 0.5, 0.1, 0.3];
        let err = property_error(&bad, &[0], &[(1, 2)]);
        let expect =
            ((0.2f64 * 0.2) + (0.4f64 * 0.4)).sqrt() / (0.04f64 + 0.25 + 0.01 + 0.09).sqrt();
        assert!((err - expect).abs() < 1e-12);
    }

    #[test]
    fn stats_helpers() {
        let xs = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
        assert!((variance(&xs) - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
    }

    #[test]
    fn pareto_front_extraction() {
        // (time, error) points; indices 0 and 3 dominate.
        let pts = vec![(1.0, 0.5), (2.0, 0.6), (3.0, 0.4), (4.0, 0.1), (5.0, 0.2)];
        assert_eq!(pareto_front(&pts), vec![0, 2, 3]);
        assert_eq!(pareto_front(&[]), Vec::<usize>::new());
        // Duplicate points: only the first survives.
        let dup = vec![(1.0, 1.0), (1.0, 1.0)];
        assert_eq!(pareto_front(&dup).len(), 1);
    }
}
