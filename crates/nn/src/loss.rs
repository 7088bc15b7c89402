//! Loss functions.
//!
//! Classification losses are *fused* primitives (softmax + NLL computed
//! together, logits-space BCE) so they stay numerically stable at extreme
//! logits; the regression losses are compositions of Var ops.

use geotorch_tensor::Tensor;

use crate::Var;

/// Mean squared error between predictions and targets (any matching shape).
pub fn mse_loss(pred: &Var, target: &Var) -> Var {
    assert_eq!(pred.shape(), target.shape(), "mse_loss shape mismatch");
    pred.sub(target).square().mean_all()
}

/// Mean absolute error. Differentiable everywhere except 0, where the
/// subgradient 0 is used.
pub fn mae_loss(pred: &Var, target: &Var) -> Var {
    assert_eq!(pred.shape(), target.shape(), "mae_loss shape mismatch");
    let diff = pred.sub(target).value();
    let n = diff.len() as f32;
    let sign = diff.map(|v| {
        if v > 0.0 {
            1.0 / n
        } else if v < 0.0 {
            -1.0 / n
        } else {
            0.0
        }
    });
    let value = Tensor::scalar(diff.abs().mean());
    let d = pred.sub(target);
    Var::from_unary_op(value, &d, move |g| sign.mul_scalar(g.item()))
}

/// Cross-entropy over logits `[B, K]` against class indices (`targets[b] <
/// K`). Fuses log-softmax and negative log-likelihood; the backward pass is
/// the classic `(softmax - onehot) / B`.
///
/// # Panics
/// If shapes/indices are inconsistent.
pub fn cross_entropy_loss(logits: &Var, targets: &[usize]) -> Var {
    let value = logits.value();
    assert_eq!(value.ndim(), 2, "cross_entropy expects [B, K] logits");
    let (b, k) = (value.shape()[0], value.shape()[1]);
    assert_eq!(targets.len(), b, "cross_entropy needs one target per row");
    assert!(
        targets.iter().all(|&t| t < k),
        "cross_entropy target out of range (K = {k})"
    );
    let log_probs = value.log_softmax_lastdim();
    let nll = -targets
        .iter()
        .enumerate()
        .map(|(row, &cls)| log_probs.as_slice()[row * k + cls])
        .sum::<f32>()
        / b as f32;
    let softmax = value.softmax_lastdim();
    let targets = targets.to_vec();
    Var::from_unary_op(Tensor::scalar(nll), logits, move |g| {
        let scale = g.item() / b as f32;
        let mut grad = softmax.clone();
        {
            let data = grad.as_mut_slice();
            for (row, &cls) in targets.iter().enumerate() {
                data[row * k + cls] -= 1.0;
            }
            for v in data.iter_mut() {
                *v *= scale;
            }
        }
        grad
    })
}

/// Binary cross-entropy over logits (any shape) against targets in `[0, 1]`
/// of the same shape. Uses the overflow-free formulation
/// `max(x, 0) - x·y + ln(1 + e^{-|x|})`.
pub fn bce_with_logits_loss(logits: &Var, targets: &Var) -> Var {
    let x = logits.value();
    let y = targets.value();
    assert_eq!(x.shape(), y.shape(), "bce_with_logits shape mismatch");
    let n = x.len() as f32;
    let total: f32 = x
        .as_slice()
        .iter()
        .zip(y.as_slice())
        .map(|(&xv, &yv)| xv.max(0.0) - xv * yv + (1.0 + (-xv.abs()).exp()).ln())
        .sum();
    let sig = x.sigmoid();
    let y_grad_ref = y.clone();
    Var::from_unary_op(Tensor::scalar(total / n), logits, move |g| {
        sig.sub(&y_grad_ref).mul_scalar(g.item() / n)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::assert_gradients_close;
    use rand::SeedableRng;

    #[test]
    fn mse_known_value() {
        let p = Var::constant(Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let t = Var::constant(Tensor::from_vec(vec![3.0, 2.0], &[2]));
        assert_eq!(mse_loss(&p, &t).value().item(), 2.0);
    }

    #[test]
    fn mae_known_value_and_grad() {
        let p = Var::parameter(Tensor::from_vec(vec![1.0, 5.0], &[2]));
        let t = Var::constant(Tensor::from_vec(vec![3.0, 2.0], &[2]));
        let loss = mae_loss(&p, &t);
        assert_eq!(loss.value().item(), 2.5);
        loss.backward();
        assert_eq!(p.grad().unwrap().as_slice(), &[-0.5, 0.5]);
    }

    #[test]
    fn cross_entropy_uniform_logits() {
        let logits = Var::constant(Tensor::zeros(&[2, 4]));
        let loss = cross_entropy_loss(&logits, &[0, 3]);
        assert!((loss.value().item() - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_confident_correct_is_small() {
        let mut t = Tensor::zeros(&[1, 3]);
        t.set(&[0, 1], 20.0);
        let loss = cross_entropy_loss(&Var::constant(t), &[1]);
        assert!(loss.value().item() < 1e-4);
    }

    #[test]
    fn cross_entropy_gradient_checks() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let logits = Var::parameter(Tensor::rand_uniform(&[3, 4], -2.0, 2.0, &mut rng));
        assert_gradients_close(
            &[logits],
            |p| cross_entropy_loss(&p[0], &[1, 0, 3]),
            1e-2,
            1e-2,
        );
    }

    #[test]
    #[should_panic(expected = "target out of range")]
    fn cross_entropy_rejects_bad_target() {
        cross_entropy_loss(&Var::constant(Tensor::zeros(&[1, 2])), &[2]);
    }

    #[test]
    fn bce_matches_reference() {
        // x = 0 → loss = ln 2 regardless of target.
        let x = Var::constant(Tensor::zeros(&[4]));
        let y = Var::constant(Tensor::from_vec(vec![0.0, 1.0, 0.0, 1.0], &[4]));
        assert!((bce_with_logits_loss(&x, &y).value().item() - (2.0f32).ln()).abs() < 1e-6);
    }

    #[test]
    fn bce_is_stable_at_extreme_logits() {
        let x = Var::constant(Tensor::from_vec(vec![1000.0, -1000.0], &[2]));
        let y = Var::constant(Tensor::from_vec(vec![1.0, 0.0], &[2]));
        let loss = bce_with_logits_loss(&x, &y).value().item();
        assert!(loss.is_finite() && loss < 1e-6);
    }

    #[test]
    fn bce_gradient_checks() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let x = Var::parameter(Tensor::rand_uniform(&[6], -2.0, 2.0, &mut rng));
        let y = Tensor::rand_uniform(&[6], 0.0, 1.0, &mut rng);
        assert_gradients_close(
            &[x],
            |p| bce_with_logits_loss(&p[0], &Var::constant(y.clone())),
            1e-2,
            1e-2,
        );
    }
}
