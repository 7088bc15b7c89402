//! Differentiable operations on [`Var`].
//!
//! Each op computes its value eagerly with `geotorch-tensor` kernels and
//! records a backward closure that maps the output gradient to gradients
//! for each parent. Broadcast ops use `reduce_to_shape` (the adjoint of
//! broadcasting) so gradients always match parameter shapes.

use geotorch_tensor::ops::broadcast::{reduce_to_shape, zip_broadcast};
use geotorch_tensor::ops::conv::{
    col2im, conv2d, conv_transpose2d, im2col, upsample_nearest2d, upsample_nearest2d_backward,
};
use geotorch_tensor::ops::pool::{
    avgpool2d, avgpool2d_backward, maxpool2d, maxpool2d_backward,
};
use geotorch_tensor::{parallel_map, Tensor};

use crate::Var;

impl Var {
    // ------------------------------------------------------ binary (broadcast)

    /// Elementwise addition with broadcasting.
    pub fn add(&self, other: &Var) -> Var {
        let (sa, sb) = (self.shape(), other.shape());
        let value = self.value().add(&other.value());
        Var::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(move |g, need| {
                vec![
                    need[0].then(|| reduce_to_shape(g, &sa)),
                    need[1].then(|| reduce_to_shape(g, &sb)),
                ]
            }),
        )
    }

    /// Elementwise subtraction with broadcasting.
    pub fn sub(&self, other: &Var) -> Var {
        let (sa, sb) = (self.shape(), other.shape());
        let value = self.value().sub(&other.value());
        Var::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(move |g, need| {
                vec![
                    need[0].then(|| reduce_to_shape(g, &sa)),
                    need[1].then(|| reduce_to_shape(&g.neg(), &sb)),
                ]
            }),
        )
    }

    /// Elementwise multiplication with broadcasting.
    pub fn mul(&self, other: &Var) -> Var {
        let (sa, sb) = (self.shape(), other.shape());
        let (va, vb) = (self.value(), other.value());
        let value = va.mul(&vb);
        Var::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(move |g, need| {
                vec![
                    need[0].then(|| reduce_to_shape(&zip_broadcast(g, &vb, |x, y| x * y), &sa)),
                    need[1].then(|| reduce_to_shape(&zip_broadcast(g, &va, |x, y| x * y), &sb)),
                ]
            }),
        )
    }

    /// Elementwise division with broadcasting.
    pub fn div(&self, other: &Var) -> Var {
        let (sa, sb) = (self.shape(), other.shape());
        let (va, vb) = (self.value(), other.value());
        let value = va.div(&vb);
        Var::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(move |g, need| {
                let ga =
                    need[0].then(|| reduce_to_shape(&zip_broadcast(g, &vb, |x, y| x / y), &sa));
                let gb = need[1].then(|| {
                    let num = zip_broadcast(g, &va, |x, y| x * y);
                    let den = vb.square();
                    reduce_to_shape(&zip_broadcast(&num, &den, |x, y| -x / y), &sb)
                });
                vec![ga, gb]
            }),
        )
    }

    // --------------------------------------------------------------- unary

    /// Add a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Var {
        Var::from_unary_op(self.value().add_scalar(s), self, |g| g.clone())
    }

    /// Multiply every element by a scalar.
    pub fn mul_scalar(&self, s: f32) -> Var {
        Var::from_unary_op(self.value().mul_scalar(s), self, move |g| g.mul_scalar(s))
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Var {
        self.mul_scalar(-1.0)
    }

    /// Elementwise square.
    pub fn square(&self) -> Var {
        let v = self.value();
        Var::from_unary_op(v.square(), self, move |g| {
            zip_broadcast(g, &v, |x, y| 2.0 * x * y)
        })
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Var {
        let out = self.value().sqrt();
        let out_c = out.clone();
        Var::from_unary_op(out, self, move |g| {
            zip_broadcast(g, &out_c, |x, y| 0.5 * x / y)
        })
    }

    /// Elementwise natural exponential.
    pub fn exp(&self) -> Var {
        let out = self.value().exp();
        let out_c = out.clone();
        Var::from_unary_op(out, self, move |g| zip_broadcast(g, &out_c, |x, y| x * y))
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Var {
        let v = self.value();
        Var::from_unary_op(v.relu(), self, move |g| {
            zip_broadcast(g, &v, |x, y| if y > 0.0 { x } else { 0.0 })
        })
    }

    /// Leaky rectified linear unit: `x` for positive inputs, `alpha * x`
    /// otherwise. Keeps gradients alive where a plain ReLU would die.
    pub fn leaky_relu(&self, alpha: f32) -> Var {
        let v = self.value();
        Var::from_unary_op(
            v.map(move |x| if x > 0.0 { x } else { alpha * x }),
            self,
            move |g| zip_broadcast(g, &v, move |x, y| if y > 0.0 { x } else { alpha * x }),
        )
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Var {
        let out = self.value().sigmoid();
        let out_c = out.clone();
        Var::from_unary_op(out, self, move |g| {
            zip_broadcast(g, &out_c, |x, y| x * y * (1.0 - y))
        })
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Var {
        let out = self.value().tanh();
        let out_c = out.clone();
        Var::from_unary_op(out, self, move |g| {
            zip_broadcast(g, &out_c, |x, y| x * (1.0 - y * y))
        })
    }

    // ---------------------------------------------------------- reductions

    /// Sum of all elements, as a scalar Var.
    pub fn sum_all(&self) -> Var {
        let shape = self.shape();
        Var::from_unary_op(Tensor::scalar(self.value().sum()), self, move |g| {
            Tensor::full(&shape, g.item())
        })
    }

    /// Mean of all elements, as a scalar Var.
    pub fn mean_all(&self) -> Var {
        let n = self.value().len() as f32;
        self.sum_all().mul_scalar(1.0 / n)
    }

    /// Sum along `axis`, keeping it with extent 1 (grad broadcasts back).
    pub fn sum_axis_keepdim(&self, axis: usize) -> Var {
        let shape = self.shape();
        let value = self.value().sum_axis_keepdim(axis);
        Var::from_unary_op(value, self, move |g| {
            zip_broadcast(g, &Tensor::zeros(&shape), |x, _| x)
        })
    }

    /// Mean along `axis`, keeping it with extent 1.
    pub fn mean_axis_keepdim(&self, axis: usize) -> Var {
        let n = self.shape()[axis] as f32;
        self.sum_axis_keepdim(axis).mul_scalar(1.0 / n)
    }

    // ---------------------------------------------------------- shape ops

    /// Reshape (element count preserved).
    pub fn reshape(&self, shape: &[usize]) -> Var {
        let src_shape = self.shape();
        let value = self.value().reshape(shape);
        Var::from_unary_op(value, self, move |g| g.reshape(&src_shape))
    }

    /// Flatten all axes except the leading (batch) axis: `[B, ...] → [B, N]`.
    pub fn flatten_batch(&self) -> Var {
        let shape = self.shape();
        assert!(!shape.is_empty(), "flatten_batch needs at least one axis");
        let b = shape[0];
        let rest: usize = shape[1..].iter().product();
        self.reshape(&[b, rest])
    }

    /// Permute axes; gradient applies the inverse permutation.
    pub fn permute(&self, perm: &[usize]) -> Var {
        let perm_owned = perm.to_vec();
        let mut inverse = vec![0usize; perm.len()];
        for (i, &p) in perm.iter().enumerate() {
            inverse[p] = i;
        }
        let value = self.value().permute(&perm_owned);
        Var::from_unary_op(value, self, move |g| g.permute(&inverse))
    }

    /// Slice `[start, end)` along `axis`; gradient scatters back into place.
    pub fn narrow(&self, axis: usize, start: usize, end: usize) -> Var {
        let src_shape = self.shape();
        let value = self.value().narrow(axis, start, end);
        Var::from_unary_op(value, self, move |g| {
            embed_narrow(g, &src_shape, axis, start)
        })
    }

    /// Concatenate along `axis`; gradients split back to each input.
    pub fn concat(vars: &[&Var], axis: usize) -> Var {
        assert!(!vars.is_empty(), "Var::concat of zero inputs");
        let values: Vec<Tensor> = vars.iter().map(|v| v.value()).collect();
        let refs: Vec<&Tensor> = values.iter().collect();
        let value = Tensor::concat(&refs, axis);
        let extents: Vec<usize> = values.iter().map(|v| v.shape()[axis]).collect();
        let parents: Vec<Var> = vars.iter().map(|v| (*v).clone()).collect();
        Var::from_op(
            value,
            parents,
            Box::new(move |g, need| {
                let mut grads = Vec::with_capacity(extents.len());
                let mut offset = 0;
                for (&e, &n) in extents.iter().zip(need) {
                    grads.push(n.then(|| g.narrow(axis, offset, offset + e)));
                    offset += e;
                }
                grads
            }),
        )
    }

    // ------------------------------------------------------------- linalg

    /// 2-D matrix product `self [m,k] × other [k,n]`.
    pub fn matmul(&self, other: &Var) -> Var {
        let (va, vb) = (self.value(), other.value());
        let value = va.matmul(&vb);
        Var::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(move |g, need| {
                vec![
                    need[0].then(|| g.matmul_nt(&vb)),
                    need[1].then(|| va.matmul_tn(g)),
                ]
            }),
        )
    }

    /// 2-D product with a transposed right operand, `self [m,k] × otherᵀ`
    /// for `other [n,k]` (the `Linear` layout: `x Wᵀ` with `W [out,in]`).
    /// No transpose is materialised in either direction.
    pub fn matmul_nt(&self, other: &Var) -> Var {
        let (va, vb) = (self.value(), other.value());
        let value = va.matmul_nt(&vb);
        Var::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(move |g, need| {
                vec![
                    need[0].then(|| g.matmul(&vb)),
                    need[1].then(|| g.matmul_tn(&va)),
                ]
            }),
        )
    }

    // ----------------------------------------------------------- conv/pool

    /// 2-D convolution (`input = self [B,C,H,W]`, `weight [O,C,kh,kw]`).
    ///
    /// Backward computes only the gradients its parents need: with a
    /// constant input (a network's first layer) the per-sample `Wᵀ·g`
    /// GEMM, its `col2im` scatter and the batch stack are skipped.
    pub fn conv2d(&self, weight: &Var, bias: Option<&Var>, stride: usize, pad: usize) -> Var {
        let x = self.value();
        let w = weight.value();
        let value = conv2d(&x, &w, bias.map(|b| b.value()).as_ref(), stride, pad);
        let mut parents = vec![self.clone(), weight.clone()];
        parents.extend(bias.cloned());
        Var::from_op(
            value,
            parents,
            Box::new(move |g, need| {
                let _t = geotorch_telemetry::scope!("nn.conv2d_bwd");
                let (bsz, c, h, wd) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
                let (o, kh, kw) = (w.shape()[0], w.shape()[2], w.shape()[3]);
                let (oh, ow) = (g.shape()[2], g.shape()[3]);
                let w_mat = w.reshape(&[o, c * kh * kw]);
                // Per-sample gradients are independent, so fan them out over
                // the device worker pool; summing the weight-gradient parts
                // in index order keeps the result identical to a serial loop.
                let parts = parallel_map(bsz, |bi| {
                    let g_mat = g.index_axis(0, bi).reshape(&[o, oh * ow]);
                    // grad wrt input: scatter Wᵀ·g back through im2col.
                    let gx_part = need[0]
                        .then(|| col2im(&w_mat.matmul_tn(&g_mat), c, h, wd, kh, kw, stride, pad));
                    // grad wrt weight: g·colᵀ accumulated over the batch.
                    let gw_part = need[1].then(|| {
                        g_mat.matmul_nt(&im2col(&x.index_axis(0, bi), kh, kw, stride, pad))
                    });
                    (gx_part, gw_part)
                });
                let (gx, gw) = gather_sample_grads(parts, w.shape());
                let mut grads = vec![gx, gw];
                if let Some(&need_bias) = need.get(2) {
                    // Sum over batch and spatial axes.
                    grads.push(
                        need_bias.then(|| g.reshape(&[bsz, o, oh * ow]).sum_axis(2).sum_axis(0)),
                    );
                }
                grads
            }),
        )
    }

    /// Transposed 2-D convolution (`weight [C,O,kh,kw]`).
    pub fn conv_transpose2d(
        &self,
        weight: &Var,
        bias: Option<&Var>,
        stride: usize,
        pad: usize,
    ) -> Var {
        let x = self.value();
        let w = weight.value();
        let value = conv_transpose2d(&x, &w, bias.map(|b| b.value()).as_ref(), stride, pad);
        let mut parents = vec![self.clone(), weight.clone()];
        parents.extend(bias.cloned());
        Var::from_op(
            value,
            parents,
            Box::new(move |g, need| {
                let _t = geotorch_telemetry::scope!("nn.conv_transpose2d_bwd");
                let (bsz, c, h, wd) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
                let (o, kh, kw) = (w.shape()[1], w.shape()[2], w.shape()[3]);
                let (gh, gw_sp) = (g.shape()[2], g.shape()[3]);
                let w_mat = w.reshape(&[c, o * kh * kw]);
                // Per-sample gradients fan out over the worker pool, as in
                // `conv2d`'s backward pass.
                let parts = parallel_map(bsz, |bi| {
                    // Forward was: col = w_matᵀ·x_mat ; y = col2im(col).
                    // Adjoint: grad_col = im2col(grad_y);
                    // grad_x = w_mat·grad_col; grad_w = x_mat·grad_colᵀ.
                    let grad_col = im2col(&g.index_axis(0, bi), kh, kw, stride, pad);
                    let gx_part = need[0].then(|| w_mat.matmul(&grad_col).reshape(&[c, h, wd]));
                    let gw_part = need[1].then(|| {
                        x.index_axis(0, bi)
                            .reshape(&[c, h * wd])
                            .matmul_nt(&grad_col)
                    });
                    (gx_part, gw_part)
                });
                let (gx, gw) = gather_sample_grads(parts, w.shape());
                let mut grads = vec![gx, gw];
                if let Some(&need_bias) = need.get(2) {
                    grads.push(
                        need_bias.then(|| g.reshape(&[bsz, o, gh * gw_sp]).sum_axis(2).sum_axis(0)),
                    );
                }
                grads
            }),
        )
    }

    /// 2-D max pooling; gradient routes through the argmax positions.
    pub fn maxpool2d(&self, kernel: usize, stride: usize) -> Var {
        let shape = self.shape();
        let (value, argmax) = maxpool2d(&self.value(), kernel, stride);
        Var::from_unary_op(value, self, move |g| maxpool2d_backward(g, &argmax, &shape))
    }

    /// 2-D average pooling.
    pub fn avgpool2d(&self, kernel: usize, stride: usize) -> Var {
        let shape = self.shape();
        let value = avgpool2d(&self.value(), kernel, stride);
        Var::from_unary_op(value, self, move |g| {
            avgpool2d_backward(g, kernel, stride, &shape)
        })
    }

    /// Nearest-neighbour upsampling by an integer factor.
    pub fn upsample_nearest2d(&self, factor: usize) -> Var {
        let value = upsample_nearest2d(&self.value(), factor);
        Var::from_unary_op(value, self, move |g| upsample_nearest2d_backward(g, factor))
    }
}

/// Combine per-sample `(input, weight)` gradient parts of a conv
/// backward: input parts stack along a new batch axis, weight parts sum
/// onto zeros in sample order (so the result matches a serial loop) and
/// take the weight's shape. A side whose parts are all `None` stays
/// `None`.
fn gather_sample_grads(
    parts: Vec<(Option<Tensor>, Option<Tensor>)>,
    w_shape: &[usize],
) -> (Option<Tensor>, Option<Tensor>) {
    let (gx_parts, gw_parts): (Vec<_>, Vec<_>) = parts.into_iter().unzip();
    let gx_parts: Vec<Tensor> = gx_parts.into_iter().flatten().collect();
    let gx = (!gx_parts.is_empty()).then(|| Tensor::stack(&gx_parts.iter().collect::<Vec<_>>()));
    let gw = gw_parts
        .into_iter()
        .flatten()
        .fold(None, |acc: Option<Tensor>, part| {
            let mut acc = acc.unwrap_or_else(|| Tensor::zeros(part.shape()));
            acc.add_assign(&part);
            Some(acc)
        });
    (gx, gw.map(|gw| gw.reshape(w_shape)))
}

/// Place `grad` (the gradient of a narrow) back into a zero tensor of the
/// parent's shape at `start` along `axis`.
fn embed_narrow(grad: &Tensor, parent_shape: &[usize], axis: usize, start: usize) -> Tensor {
    let outer: usize = parent_shape[..axis].iter().product();
    let inner: usize = parent_shape[axis + 1..].iter().product();
    let n = parent_shape[axis];
    let keep = grad.shape()[axis];
    let mut out = vec![0.0f32; geotorch_tensor::numel(parent_shape)];
    let src = grad.as_slice();
    for o in 0..outer {
        let dst_base = (o * n + start) * inner;
        let src_base = o * keep * inner;
        out[dst_base..dst_base + keep * inner]
            .copy_from_slice(&src[src_base..src_base + keep * inner]);
    }
    Tensor::from_vec(out, parent_shape)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn param(data: Vec<f32>, shape: &[usize]) -> Var {
        Var::parameter(Tensor::from_vec(data, shape))
    }

    #[test]
    fn add_broadcast_bias_grad() {
        // y = x + b with b [3] broadcast over [2,3]: db = column sums of g.
        let x = param(vec![1.0; 6], &[2, 3]);
        let b = param(vec![0.0, 0.0, 0.0], &[3]);
        let y = x.add(&b).sum_all();
        y.backward();
        assert_eq!(b.grad().unwrap().as_slice(), &[2.0, 2.0, 2.0]);
        assert_eq!(x.grad().unwrap().as_slice(), &[1.0; 6]);
    }

    #[test]
    fn div_gradients() {
        let a = param(vec![6.0], &[1]);
        let b = param(vec![2.0], &[1]);
        let y = a.div(&b).sum_all();
        y.backward();
        assert_eq!(a.grad().unwrap().item(), 0.5);
        assert_eq!(b.grad().unwrap().item(), -1.5);
    }

    #[test]
    fn matmul_gradients() {
        let a = param(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = param(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
        let y = a.matmul(&b).sum_all();
        y.backward();
        // dL/da = 1·bᵀ = ones×I = ones; dL/db = aᵀ·1.
        assert_eq!(a.grad().unwrap().as_slice(), &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(b.grad().unwrap().as_slice(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn leaky_relu_values_and_grad() {
        let x = param(vec![-2.0, 3.0], &[2]);
        let y = x.leaky_relu(0.1);
        assert_eq!(y.value().as_slice(), &[-0.2, 3.0]);
        y.sum_all().backward();
        assert_eq!(x.grad().unwrap().as_slice(), &[0.1, 1.0]);
    }

    #[test]
    fn relu_blocks_negative_grad() {
        let x = param(vec![-1.0, 2.0], &[2]);
        let y = x.relu().sum_all();
        y.backward();
        assert_eq!(x.grad().unwrap().as_slice(), &[0.0, 1.0]);
    }

    #[test]
    fn narrow_embeds_gradient() {
        let x = param(vec![1.0, 2.0, 3.0, 4.0], &[4]);
        let y = x.narrow(0, 1, 3).sum_all();
        y.backward();
        assert_eq!(x.grad().unwrap().as_slice(), &[0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn concat_splits_gradient() {
        let a = param(vec![1.0, 2.0], &[2]);
        let b = param(vec![3.0], &[1]);
        let y = Var::concat(&[&a, &b], 0).mul_scalar(2.0).sum_all();
        y.backward();
        assert_eq!(a.grad().unwrap().as_slice(), &[2.0, 2.0]);
        assert_eq!(b.grad().unwrap().as_slice(), &[2.0]);
    }

    #[test]
    fn permute_grad_round_trips() {
        let x = param((0..6).map(|v| v as f32).collect(), &[2, 3]);
        let y = x.permute(&[1, 0]).mul_scalar(3.0).sum_all();
        y.backward();
        assert_eq!(x.grad().unwrap().as_slice(), &[3.0; 6]);
    }

    #[test]
    fn mean_axis_keepdim_grad() {
        let x = param(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let y = x.mean_axis_keepdim(1).sum_all();
        y.backward();
        assert_eq!(x.grad().unwrap().as_slice(), &[0.5, 0.5, 0.5, 0.5]);
    }

    #[test]
    fn sum_axis_keepdim_shapes() {
        let x = param(vec![1.0; 12], &[2, 2, 3]);
        let s = x.sum_axis_keepdim(1);
        assert_eq!(s.shape(), vec![2, 1, 3]);
        s.sum_all().backward();
        assert_eq!(x.grad().unwrap().as_slice(), &[1.0; 12]);
    }

    #[test]
    fn maxpool_grad_routes_to_max() {
        let x = param(vec![1.0, 5.0, 2.0, 3.0], &[1, 1, 2, 2]);
        let y = x.maxpool2d(2, 2).sum_all();
        y.backward();
        assert_eq!(x.grad().unwrap().as_slice(), &[0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn flatten_batch_shape() {
        let x = param(vec![0.0; 24], &[2, 3, 4]);
        assert_eq!(x.flatten_batch().shape(), vec![2, 12]);
    }
}
