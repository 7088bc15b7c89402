//! Gradient pruning and transpose-free backward passes.
//!
//! * A constant input gets no gradient, and the weight and bias
//!   gradients it feeds are bitwise equal to those of the same graph
//!   with the input as a parameter (conv, transposed conv).
//! * `Var::matmul`, `Var::conv2d` and `Var::conv_transpose2d` backward
//!   read transposed operands through strided GEMMs instead of
//!   materialising `transpose()` copies. Their gradients are bitwise
//!   equal to the materialised formulation, rebuilt here from tensor
//!   ops on random (non-lattice) inputs, on `Device::Cpu` and
//!   `Device::Parallel(4)`.

use geotorch_nn::Var;
use geotorch_tensor::ops::conv::{col2im, conv2d, im2col};
use geotorch_tensor::{with_device, Device, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

const DEVICES: [Device; 2] = [Device::Cpu, Device::Parallel(4)];

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn random(shape: &[usize], rng: &mut StdRng) -> Tensor {
    Tensor::rand_uniform(shape, -1.0, 1.0, rng)
}

/// Sum per-sample parts onto zeros in sample order, as a serial loop
/// over the batch would.
fn sum_parts(parts: &[Tensor]) -> Tensor {
    let mut acc = Tensor::zeros(parts[0].shape());
    for part in parts {
        acc.add_assign(part);
    }
    acc
}

/// Backward of `op(input, weight, bias)` seeded with `seed`, with the
/// input either a constant or a parameter. Returns the input, weight
/// and bias gradients.
fn grads_of(
    op: impl Fn(&Var, &Var, &Var) -> Var,
    x: &Tensor,
    w: &Tensor,
    b: &Tensor,
    seed: &Tensor,
    input_is_param: bool,
) -> (Option<Tensor>, Tensor, Tensor) {
    let xv = if input_is_param {
        Var::parameter(x.clone())
    } else {
        Var::constant(x.clone())
    };
    let (wv, bv) = (Var::parameter(w.clone()), Var::parameter(b.clone()));
    op(&xv, &wv, &bv).backward_with(seed.clone());
    (xv.grad(), wv.grad().unwrap(), bv.grad().unwrap())
}

#[test]
fn conv_with_constant_input_prunes_only_the_input_gradient() {
    // Stride 2 and a small stride-1 plane both run the im2col backward.
    for (stride, pad) in [(1, 1), (2, 1)] {
        for device in DEVICES {
            with_device(device, || {
                let mut rng = StdRng::seed_from_u64(40 + stride as u64);
                let x = random(&[3, 4, 10, 10], &mut rng);
                let w = random(&[8, 4, 3, 3], &mut rng);
                let b = random(&[8], &mut rng);
                let out_shape = conv2d(&x, &w, Some(&b), stride, pad).shape().to_vec();
                let seed = random(&out_shape, &mut rng);
                let op = |x: &Var, w: &Var, b: &Var| x.conv2d(w, Some(b), stride, pad);
                let (gx_c, gw_c, gb_c) = grads_of(op, &x, &w, &b, &seed, false);
                let (gx_p, gw_p, gb_p) = grads_of(op, &x, &w, &b, &seed, true);
                assert!(gx_c.is_none(), "a constant input must get no gradient");
                assert!(gx_p.is_some());
                assert_eq!(
                    bits(&gw_c),
                    bits(&gw_p),
                    "weight grad, stride {stride}, {device:?}"
                );
                assert_eq!(
                    bits(&gb_c),
                    bits(&gb_p),
                    "bias grad, stride {stride}, {device:?}"
                );
            });
        }
    }
}

#[test]
fn conv_transpose_with_constant_input_prunes_only_the_input_gradient() {
    for device in DEVICES {
        with_device(device, || {
            let mut rng = StdRng::seed_from_u64(50);
            let x = random(&[2, 6, 5, 5], &mut rng);
            let w = random(&[6, 4, 2, 2], &mut rng);
            let b = random(&[4], &mut rng);
            let seed = random(&[2, 4, 10, 10], &mut rng);
            let op = |x: &Var, w: &Var, b: &Var| x.conv_transpose2d(w, Some(b), 2, 0);
            let (gx_c, gw_c, gb_c) = grads_of(op, &x, &w, &b, &seed, false);
            let (gx_p, gw_p, gb_p) = grads_of(op, &x, &w, &b, &seed, true);
            assert!(gx_c.is_none(), "a constant input must get no gradient");
            assert!(gx_p.is_some());
            assert_eq!(bits(&gw_c), bits(&gw_p), "weight grad on {device:?}");
            assert_eq!(bits(&gb_c), bits(&gb_p), "bias grad on {device:?}");
        });
    }
}

#[test]
fn matmul_gradients_equal_the_transpose_formulation() {
    // 30×70 by 70×50 leaves the tiny path; both gradient GEMMs pack a
    // strided operand.
    for device in DEVICES {
        with_device(device, || {
            let mut rng = StdRng::seed_from_u64(60);
            let (a, b) = (random(&[30, 70], &mut rng), random(&[70, 50], &mut rng));
            let g = random(&[30, 50], &mut rng);
            let (av, bv) = (Var::parameter(a.clone()), Var::parameter(b.clone()));
            av.matmul(&bv).backward_with(g.clone());
            assert_eq!(bits(&av.grad().unwrap()), bits(&g.matmul(&b.transpose())));
            assert_eq!(bits(&bv.grad().unwrap()), bits(&a.transpose().matmul(&g)));
        });
    }
}

#[test]
fn matmul_nt_matches_a_product_with_the_transpose() {
    // `Var::matmul_nt` is the `Linear` layout: `x·Wᵀ` with `W [out, in]`.
    for device in DEVICES {
        with_device(device, || {
            let mut rng = StdRng::seed_from_u64(61);
            let (x, w) = (random(&[9, 64], &mut rng), random(&[40, 64], &mut rng));
            let g = random(&[9, 40], &mut rng);
            let (xv, wv) = (Var::parameter(x.clone()), Var::parameter(w.clone()));
            let y = xv.matmul_nt(&wv);
            assert_eq!(bits(&y.value()), bits(&x.matmul(&w.transpose())));
            y.backward_with(g.clone());
            // gx = g·W is the same product as g·(Wᵀ)ᵀ.
            assert_eq!(bits(&xv.grad().unwrap()), bits(&g.matmul(&w)));
            // gW = gᵀ·x: the same products in the same batch order as
            // (xᵀ·g)ᵀ, but its own tiling, so compare it as a product.
            assert_eq!(bits(&wv.grad().unwrap()), bits(&g.transpose().matmul(&x)));
            assert!(wv
                .grad()
                .unwrap()
                .allclose(&x.transpose().matmul(&g).transpose(), 1e-5));
        });
    }
}

#[test]
fn conv_gradients_equal_the_transpose_formulation() {
    let (bsz, c, h, w_sp, o, k, stride, pad) = (3, 4, 10, 10, 8, 3, 1, 1);
    for device in DEVICES {
        with_device(device, || {
            let mut rng = StdRng::seed_from_u64(70);
            let x = random(&[bsz, c, h, w_sp], &mut rng);
            let w = random(&[o, c, k, k], &mut rng);
            let b = random(&[o], &mut rng);
            let seed = random(&[bsz, o, h, w_sp], &mut rng);
            let op = |x: &Var, w: &Var, b: &Var| x.conv2d(w, Some(b), stride, pad);
            let (gx, gw, _) = grads_of(op, &x, &w, &b, &seed, true);

            let w_mat = w.reshape(&[o, c * k * k]);
            let mut gx_parts = Vec::new();
            let mut gw_parts = Vec::new();
            for bi in 0..bsz {
                let g_mat = seed.index_axis(0, bi).reshape(&[o, h * w_sp]);
                let col_g = w_mat.transpose().matmul(&g_mat);
                gx_parts.push(col2im(&col_g, c, h, w_sp, k, k, stride, pad));
                let col = im2col(&x.index_axis(0, bi), k, k, stride, pad);
                gw_parts.push(g_mat.matmul(&col.transpose()));
            }
            let want_gx = Tensor::stack(&gx_parts.iter().collect::<Vec<_>>());
            let want_gw = sum_parts(&gw_parts).reshape(w.shape());
            assert_eq!(
                bits(&gx.unwrap()),
                bits(&want_gx),
                "input grad on {device:?}"
            );
            assert_eq!(bits(&gw), bits(&want_gw), "weight grad on {device:?}");
        });
    }
}

#[test]
fn conv_transpose_equals_the_transpose_formulation() {
    let (bsz, c, h, w_sp, o, k, stride) = (2, 6, 5, 5, 4, 2, 2);
    let (oh, ow) = ((h - 1) * stride + k, (w_sp - 1) * stride + k);
    for device in DEVICES {
        with_device(device, || {
            let mut rng = StdRng::seed_from_u64(80);
            let x = random(&[bsz, c, h, w_sp], &mut rng);
            let w = random(&[c, o, k, k], &mut rng);
            let b = random(&[o], &mut rng);
            let seed = random(&[bsz, o, oh, ow], &mut rng);
            let (xv, wv, bv) = (
                Var::parameter(x.clone()),
                Var::parameter(w.clone()),
                Var::parameter(b.clone()),
            );
            let y = xv.conv_transpose2d(&wv, Some(&bv), stride, 0);

            let w_mat = w.reshape(&[c, o * k * k]);
            let mut imgs = Vec::new();
            let mut gx_parts = Vec::new();
            let mut gw_parts = Vec::new();
            for bi in 0..bsz {
                let x_mat = x.index_axis(0, bi).reshape(&[c, h * w_sp]);
                let col = w_mat.transpose().matmul(&x_mat);
                imgs.push(col2im(&col, o, oh, ow, k, k, stride, 0));
                let grad_col = im2col(&seed.index_axis(0, bi), k, k, stride, 0);
                gx_parts.push(w_mat.matmul(&grad_col).reshape(&[c, h, w_sp]));
                gw_parts.push(x_mat.matmul(&grad_col.transpose()));
            }
            let mut want_y = Tensor::stack(&imgs.iter().collect::<Vec<_>>());
            let hw = oh * ow;
            for (i, v) in want_y.as_mut_slice().iter_mut().enumerate() {
                *v += b.as_slice()[(i / hw) % o];
            }
            assert_eq!(bits(&y.value()), bits(&want_y), "forward on {device:?}");

            y.backward_with(seed.clone());
            let want_gx = Tensor::stack(&gx_parts.iter().collect::<Vec<_>>());
            let want_gw = sum_parts(&gw_parts).reshape(w.shape());
            assert_eq!(
                bits(&xv.grad().unwrap()),
                bits(&want_gx),
                "input grad on {device:?}"
            );
            assert_eq!(
                bits(&wv.grad().unwrap()),
                bits(&want_gw),
                "weight grad on {device:?}"
            );
        });
    }
}
