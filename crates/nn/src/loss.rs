//! Loss functions: softmax cross-entropy (the classification utility).

/// Numerically stable softmax over each row of `logits`
/// (`batch × classes`), in place.
pub fn softmax_in_place(logits: &mut [f32], classes: usize) {
    for row in logits.chunks_exact_mut(classes) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// Mean cross-entropy loss and its gradient with respect to the logits.
///
/// Returns `(loss, grad)` where `grad = (softmax(z) − onehot(y)) / batch`,
/// so downstream layers can accumulate raw sums.
pub fn softmax_cross_entropy(logits: &[f32], labels: &[u32], classes: usize) -> (f32, Vec<f32>) {
    let batch = labels.len();
    assert_eq!(logits.len(), batch * classes);
    assert!(batch > 0);
    let mut probs = logits.to_vec();
    softmax_in_place(&mut probs, classes);
    let mut loss = 0.0f64;
    for (i, &y) in labels.iter().enumerate() {
        let p = probs[i * classes + y as usize].max(1e-12);
        loss -= (p as f64).ln();
    }
    probs_to_gradient(&mut probs, labels, classes);
    ((loss / batch as f64) as f32, probs)
}

/// The gradient of [`softmax_cross_entropy`], bit for bit, written into
/// `out` without allocating or computing the loss.
pub fn softmax_cross_entropy_grad(logits: &[f32], labels: &[u32], classes: usize, out: &mut [f32]) {
    assert_eq!(logits.len(), labels.len() * classes);
    out.copy_from_slice(logits);
    softmax_in_place(out, classes);
    probs_to_gradient(out, labels, classes);
}

/// Softmax probabilities to the loss gradient `(p − onehot) / batch`.
fn probs_to_gradient(probs: &mut [f32], labels: &[u32], classes: usize) {
    let inv_batch = 1.0 / labels.len() as f32;
    for (i, &y) in labels.iter().enumerate() {
        probs[i * classes + y as usize] -= 1.0;
    }
    for g in probs {
        *g *= inv_batch;
    }
}

/// Row-wise argmax predictions from logits.
pub fn argmax_rows(logits: &[f32], classes: usize) -> Vec<u32> {
    logits
        .chunks_exact(classes)
        .map(|row| {
            let mut best = 0usize;
            for (i, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = i;
                }
            }
            best as u32
        })
        .collect()
}

#[cfg(test)]
// Tests assert invariants; an unwrap that trips IS the test failing.
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut logits = vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0];
        softmax_in_place(&mut logits, 3);
        for row in logits.chunks_exact(3) {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
            assert!(row.iter().all(|&p| p > 0.0));
        }
        // Monotone in logits.
        assert!(logits[2] > logits[1] && logits[1] > logits[0]);
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let mut a = vec![1000.0, 1001.0];
        softmax_in_place(&mut a, 2);
        let mut b = vec![0.0, 1.0];
        softmax_in_place(&mut b, 2);
        assert!((a[0] - b[0]).abs() < 1e-6);
        assert!(a.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn cross_entropy_perfect_prediction() {
        // Very confident correct logits → near-zero loss.
        let logits = vec![10.0, -10.0, -10.0];
        let (loss, grad) = softmax_cross_entropy(&logits, &[0], 3);
        assert!(loss < 1e-3);
        assert!(grad.iter().all(|g| g.abs() < 1e-3));
    }

    #[test]
    fn cross_entropy_uniform_prediction() {
        let logits = vec![0.0, 0.0];
        let (loss, grad) = softmax_cross_entropy(&logits, &[1], 2);
        assert!((loss - (2.0f32).ln()).abs() < 1e-5);
        // grad = (0.5, −0.5)/1.
        assert!((grad[0] - 0.5).abs() < 1e-6);
        assert!((grad[1] + 0.5).abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let logits = vec![0.3, -0.7, 1.1, 0.2, 0.5, -0.1];
        let labels = [2u32, 0];
        let (_, grad) = softmax_cross_entropy(&logits, &labels, 3);
        let eps = 1e-3;
        for i in 0..logits.len() {
            let mut plus = logits.clone();
            plus[i] += eps;
            let mut minus = logits.clone();
            minus[i] -= eps;
            let (lp, _) = softmax_cross_entropy(&plus, &labels, 3);
            let (lm, _) = softmax_cross_entropy(&minus, &labels, 3);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grad[i]).abs() < 1e-3,
                "grad[{i}]: numeric {numeric} vs analytic {}",
                grad[i]
            );
        }
    }

    #[test]
    fn in_place_gradient_is_bit_identical_to_softmax_cross_entropy() {
        // Mixed magnitudes, a saturated row (p → 0 clamps the loss, not
        // the gradient), ties and ±0.0 logits; labels on both edges.
        let classes = 4;
        let logits = [
            0.3, -0.7, 1.1, 0.2, 90.0, -90.0, 0.0, -0.0, 1.5, 1.5, 1.5, 1.5,
        ];
        for labels in [&[0u32, 3, 2][..], &[3, 0, 0]] {
            let (_, expect) = softmax_cross_entropy(&logits, labels, classes);
            let mut grad = [f32::NAN; 12];
            softmax_cross_entropy_grad(&logits, labels, classes, &mut grad);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&grad), bits(&expect), "labels {labels:?}");
        }
    }

    #[test]
    fn argmax_predictions() {
        let logits = vec![0.1, 0.9, 0.5, 2.0, -1.0, 0.0];
        assert_eq!(argmax_rows(&logits, 3), vec![1, 0]);
    }
}
