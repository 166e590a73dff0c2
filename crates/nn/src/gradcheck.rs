//! Gradient verification against central finite differences.
//!
//! Manual backprop is only trustworthy if it is checked; every layer in
//! this crate is validated (in its tests and in the property suite) by
//! comparing analytic parameter gradients with
//! `(L(θ+ε) − L(θ−ε)) / 2ε` on a scalar loss.

use crate::Sequential;
use chiron_tensor::Tensor;

/// Result of a finite-difference check: the worst absolute and relative
/// deviation seen across all checked parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradCheckReport {
    /// Largest absolute difference between analytic and numeric gradients.
    pub max_abs_err: f64,
    /// Largest relative difference (normalized by gradient magnitude).
    pub max_rel_err: f64,
    /// Number of parameter coordinates checked.
    pub checked: usize,
}

impl GradCheckReport {
    /// Whether every checked coordinate matched within `tol` (relative, with
    /// an absolute floor for near-zero gradients).
    pub fn passes(&self, tol: f64) -> bool {
        self.max_rel_err < tol || self.max_abs_err < tol
    }
}

/// Checks the analytic gradients of `net` for the scalar loss `loss_fn`
/// against central finite differences.
///
/// `loss_fn` must be a pure function of the network (e.g. run a fixed input
/// through it and compute a fixed loss). To keep the check fast on large
/// models only every `stride`-th parameter coordinate is perturbed.
///
/// # Panics
///
/// Panics if `stride` is zero.
///
/// # Examples
///
/// ```
/// use chiron_nn::{gradcheck, Linear, MseLoss, Sequential};
/// use chiron_tensor::{Tensor, TensorRng};
///
/// let mut rng = TensorRng::seed_from(0);
/// let mut net = Sequential::new();
/// net.push(Linear::new(3, 2, &mut rng));
///
/// let x = Tensor::ones(&[1, 3]);
/// let target = Tensor::zeros(&[1, 2]);
/// let report = gradcheck::check(
///     &mut net,
///     |n| {
///         let y = n.forward(&x, true);
///         let (loss, grad) = MseLoss.forward(&y, &target);
///         n.backward(&grad);
///         loss
///     },
///     1e-2,
///     1,
/// );
/// assert!(report.passes(1e-2), "{report:?}");
/// ```
pub fn check(
    net: &mut Sequential,
    mut loss_fn: impl FnMut(&mut Sequential) -> f32,
    eps: f32,
    stride: usize,
) -> GradCheckReport {
    assert!(stride > 0, "stride must be positive");

    // Analytic pass: loss_fn is responsible for calling backward.
    net.zero_grad();
    let _ = loss_fn(net);
    let mut analytic: Vec<f32> = Vec::new();
    net.visit_params(&mut |_, g| analytic.extend_from_slice(g.as_slice()));
    net.zero_grad();

    let mut report = GradCheckReport {
        max_abs_err: 0.0,
        max_rel_err: 0.0,
        checked: 0,
    };

    let total: usize = analytic.len();
    let mut coord = 0usize;
    while coord < total {
        let numeric = {
            perturb(net, coord, eps);
            let lp = loss_fn(net) as f64;
            net.zero_grad();
            perturb(net, coord, -2.0 * eps);
            let lm = loss_fn(net) as f64;
            net.zero_grad();
            perturb(net, coord, eps); // restore
            (lp - lm) / (2.0 * eps as f64)
        };
        let a = analytic[coord] as f64;
        let abs = (numeric - a).abs();
        let rel = abs / numeric.abs().max(a.abs()).max(1e-6);
        report.max_abs_err = report.max_abs_err.max(abs);
        report.max_rel_err = report.max_rel_err.max(rel);
        report.checked += 1;
        coord += stride;
    }
    report
}

/// Checks the analytic gradient along its own direction.
///
/// Per-coordinate finite differences on a large `f32` network drown in
/// rounding noise (a single coordinate changes the loss by `eps·gᵢ`, often
/// below the accumulated `f32` error of the forward pass). The directional
/// check perturbs *all* parameters along the normalized analytic gradient,
/// so the expected loss change is `eps·‖g‖` — orders of magnitude above the
/// noise floor. Returns `(analytic, numeric)` directional derivatives,
/// which should match to a few percent.
///
/// # Examples
///
/// ```
/// use chiron_nn::{gradcheck, Linear, MseLoss, Sequential};
/// use chiron_tensor::{Tensor, TensorRng};
///
/// let mut rng = TensorRng::seed_from(0);
/// let mut net = Sequential::new();
/// net.push(Linear::new(3, 2, &mut rng));
/// let x = Tensor::ones(&[1, 3]);
/// let target = Tensor::zeros(&[1, 2]);
/// let (a, n) = gradcheck::check_directional(
///     &mut net,
///     |net| {
///         let y = net.forward(&x, true);
///         let (loss, grad) = MseLoss.forward(&y, &target);
///         net.backward(&grad);
///         loss
///     },
///     1e-3,
/// );
/// assert!((a - n).abs() < 1e-2 * a.abs().max(1.0));
/// ```
pub fn check_directional(
    net: &mut Sequential,
    mut loss_fn: impl FnMut(&mut Sequential) -> f32,
    eps: f32,
) -> (f64, f64) {
    net.zero_grad();
    let _ = loss_fn(net);
    let mut g: Vec<f32> = Vec::new();
    net.visit_params(&mut |_, grad| g.extend_from_slice(grad.as_slice()));
    net.zero_grad();

    let norm = g
        .iter()
        .map(|&x| (x as f64) * (x as f64))
        .sum::<f64>()
        .sqrt();
    assert!(norm > 0.0, "gradient is identically zero");
    let dir: Vec<f32> = g.iter().map(|&x| (x as f64 / norm) as f32).collect();
    let analytic = g
        .iter()
        .zip(&dir)
        .map(|(&gi, &di)| gi as f64 * di as f64)
        .sum::<f64>();

    let shift = |net: &mut Sequential, sign: f32| {
        let mut off = 0usize;
        net.visit_params_mut(&mut |p, _| {
            let n = p.numel();
            for (pi, &di) in p.as_mut_slice().iter_mut().zip(&dir[off..off + n]) {
                *pi += sign * eps * di;
            }
            off += n;
        });
    };

    shift(net, 1.0);
    let lp = loss_fn(net) as f64;
    net.zero_grad();
    shift(net, -2.0);
    let lm = loss_fn(net) as f64;
    net.zero_grad();
    shift(net, 1.0); // restore
    let numeric = (lp - lm) / (2.0 * eps as f64);
    (analytic, numeric)
}

/// Adds `delta` to the `coord`-th parameter coordinate (in flat visitation
/// order).
fn perturb(net: &mut Sequential, coord: usize, delta: f32) {
    let mut off = 0usize;
    net.visit_params_mut(&mut |p: &mut Tensor, _| {
        let n = p.numel();
        if coord >= off && coord < off + n {
            p.as_mut_slice()[coord - off] += delta;
        }
        off += n;
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::mnist_cnn;
    use crate::{Conv2d, Linear, MaxPool2d, MseLoss, Relu, Sequential, SoftmaxCrossEntropy, Tanh};
    use chiron_tensor::{Init, TensorRng};

    fn check_net(net: Sequential, input_dims: &[usize], tol: f64, stride: usize) {
        check_net_with_eps(net, input_dims, tol, stride, 1e-2);
    }

    fn check_net_with_eps(
        mut net: Sequential,
        input_dims: &[usize],
        tol: f64,
        stride: usize,
        eps: f32,
    ) {
        let mut rng = TensorRng::seed_from(99);
        let x = rng.init(input_dims, Init::Normal(1.0));
        let out_dim = {
            let y = net.forward(&x, true);
            net.zero_grad();
            y.dims().to_vec()
        };
        let target = rng.init(&out_dim, Init::Normal(1.0));
        let report = check(
            &mut net,
            |n| {
                let y = n.forward(&x, true);
                let (loss, grad) = MseLoss.forward(&y, &target);
                n.backward(&grad);
                loss
            },
            eps,
            stride,
        );
        assert!(report.checked > 0);
        assert!(
            report.passes(tol),
            "gradcheck failed: {report:?} for net {}",
            net.summary()
        );
    }

    #[test]
    fn linear_tanh_stack_grads_match() {
        let mut rng = TensorRng::seed_from(1);
        let mut net = Sequential::new();
        net.push(Linear::new(4, 8, &mut rng));
        net.push(Tanh::new());
        net.push(Linear::new(8, 3, &mut rng));
        check_net(net, &[2, 4], 2e-2, 1);
    }

    #[test]
    fn conv_pool_stack_grads_match() {
        let mut rng = TensorRng::seed_from(2);
        let mut net = Sequential::new();
        net.push(Conv2d::new(1, 3, 3, 0, 6, 6, &mut rng));
        net.push(Relu::new());
        net.push(MaxPool2d::new(4, 4));
        net.push(crate::models::Flatten::new());
        net.push(Linear::new(12, 2, &mut rng));
        check_net(net, &[1, 1, 6, 6], 3e-2, 3);
    }

    #[test]
    fn cross_entropy_through_mlp_grads_match() {
        let mut rng = TensorRng::seed_from(3);
        let mut net = Sequential::new();
        net.push(Linear::new(5, 6, &mut rng));
        net.push(Tanh::new());
        net.push(Linear::new(6, 3, &mut rng));
        let x = rng.init(&[2, 5], Init::Normal(1.0));
        let labels = [1usize, 2];
        let report = check(
            &mut net,
            |n| {
                let y = n.forward(&x, true);
                let (loss, grad) = SoftmaxCrossEntropy.forward(&y, &labels);
                n.backward(&grad);
                loss
            },
            1e-2,
            1,
        );
        assert!(report.passes(2e-2), "{report:?}");
    }

    #[test]
    fn paper_mnist_cnn_directional_check() {
        // Per-coordinate FD drowns in f32 noise on a 21k-parameter CNN, so
        // validate the whole-network gradient along its own direction.
        let mut net = mnist_cnn(&mut TensorRng::seed_from(4));
        let mut rng = TensorRng::seed_from(99);
        let x = rng.init(&[1, 1, 28, 28], Init::Normal(1.0));
        let target = rng.init(&[1, 10], Init::Normal(1.0));
        let (analytic, numeric) = check_directional(
            &mut net,
            |n| {
                let y = n.forward(&x, true);
                let (loss, grad) = MseLoss.forward(&y, &target);
                n.backward(&grad);
                loss
            },
            1e-3,
        );
        let rel = (analytic - numeric).abs() / analytic.abs().max(1e-9);
        assert!(rel < 2e-2, "directional gradcheck: {analytic} vs {numeric}");
    }
}
