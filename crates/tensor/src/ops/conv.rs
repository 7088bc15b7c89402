//! Convolution kernels: im2col/col2im, conv2d, conv_transpose2d, upsampling.
//!
//! All image tensors use the NCHW layout. The production [`conv2d`] is a
//! dispatcher over three lowerings:
//!
//! * **1×1 / stride 1 / no pad** — implicit GEMM: [`im2col`] degenerates
//!   to a zero-copy reshape (the column matrix *is* the image), so the
//!   conv is one blocked-SIMD GEMM per image with no scratch at all.
//! * **3×3 / stride 1 with a large output plane** (≥
//!   [`DIRECT_CONV_MIN_PLANE`]) — [`conv2d_direct`]: a shift-and-axpy
//!   kernel that accumulates each filter tap as a scaled row-add over
//!   the output plane, never materialising columns. Taps are applied in
//!   im2col row order with the bias added last, so the accumulation
//!   order per output element matches the im2col path exactly.
//! * **everything else** — [`conv2d_im2col`]: the classic per-image
//!   lower-to-columns + GEMM strategy PyTorch's CPU backend uses. With
//!   the blocked GEMM this also wins on small planes, whose column
//!   matrix stays cache-resident.
//!
//! A naive sliding-window reference (`conv2d_naive`) is kept for tests
//! and for the kernel ablation benchmark. Parallel dispatch is
//! per-kernel: the direct path fans out over `batch × out-channel`
//! planes once a conv crosses [`CONV_PARALLEL_FLOPS`], while the im2col
//! path fans out over batch items.

use crate::device::{parallel_for, Device, SendPtr};
use crate::Tensor;

/// FLOP count (`2·B·O·C·kh·kw·oh·ow`) below which a convolution runs on
/// the calling thread. Tuned alongside `GEMM_PARALLEL_FLOPS`: conv
/// tasks are coarser (a whole output plane each), so the bar is lower.
pub const CONV_PARALLEL_FLOPS: usize = 1 << 20;

/// Minimum output-plane size (`oh·ow`) for [`conv2d`] to pick the
/// direct 3×3 path over im2col + GEMM. Measured crossover on the bench
/// host: small planes (28²–32²) fit their column matrix in cache, so
/// the blocked GEMM wins; from ~45² up the materialised columns spill
/// and the direct path is 1.1–1.2x faster.
pub const DIRECT_CONV_MIN_PLANE: usize = 2048;

/// Output spatial extent of a convolution along one axis.
///
/// # Panics
/// If the kernel (plus padding) does not fit in the input.
pub fn conv_out_len(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    assert!(stride > 0, "stride must be positive");
    assert!(
        input + 2 * pad >= kernel,
        "kernel {} larger than padded input {}",
        kernel,
        input + 2 * pad
    );
    (input + 2 * pad - kernel) / stride + 1
}

/// Lower a single image `[C, H, W]` to a column matrix
/// `[C*kh*kw, oh*ow]` for kernel `(kh, kw)`, `stride`, and zero `pad`.
pub fn im2col(img: &Tensor, kh: usize, kw: usize, stride: usize, pad: usize) -> Tensor {
    let _t = geotorch_telemetry::scope!("tensor.im2col");
    assert_eq!(img.ndim(), 3, "im2col expects [C,H,W], got {:?}", img.shape());
    if kh == 1 && kw == 1 && stride == 1 && pad == 0 {
        // A 1×1 column matrix is the image itself: reshape shares the
        // storage, so no scratch is materialised.
        geotorch_telemetry::count!("tensor.im2col.zero_copy", 1);
        let (c, h, w) = (img.shape()[0], img.shape()[1], img.shape()[2]);
        return img.reshape(&[c, h * w]);
    }
    let padded = img.pad2d(pad);
    let (c, h, w) = (padded.shape()[0], padded.shape()[1], padded.shape()[2]);
    let oh = conv_out_len(img.shape()[1], kh, stride, pad);
    let ow = conv_out_len(img.shape()[2], kw, stride, pad);
    let src = padded.as_slice();
    let mut out = crate::pool::alloc_uninit(c * kh * kw * oh * ow);
    let cols = oh * ow;
    for ch in 0..c {
        for ki in 0..kh {
            for kj in 0..kw {
                let row = ((ch * kh + ki) * kw + kj) * cols;
                for oi in 0..oh {
                    let si = oi * stride + ki;
                    let src_base = (ch * h + si) * w + kj;
                    let dst_base = row + oi * ow;
                    for oj in 0..ow {
                        out[dst_base + oj] = src[src_base + oj * stride];
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[c * kh * kw, cols])
}

/// Adjoint of [`im2col`]: scatter-add a column matrix back into an image of
/// shape `[c, h, w]` (the *unpadded* original extent).
#[allow(clippy::too_many_arguments)] // mirrors im2col's full parameter set
pub fn col2im(
    col: &Tensor,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> Tensor {
    let _t = geotorch_telemetry::scope!("tensor.col2im");
    let oh = conv_out_len(h, kh, stride, pad);
    let ow = conv_out_len(w, kw, stride, pad);
    assert_eq!(
        col.shape(),
        &[c * kh * kw, oh * ow],
        "col2im column shape mismatch"
    );
    if kh == 1 && kw == 1 && stride == 1 && pad == 0 {
        // Adjoint of the zero-copy im2col: every column owns exactly one
        // pixel, so the scatter-add is a reshape.
        geotorch_telemetry::count!("tensor.col2im.zero_copy", 1);
        return col.reshape(&[c, h, w]);
    }
    let (ph, pw) = (h + 2 * pad, w + 2 * pad);
    let mut padded = crate::pool::alloc_zeroed(c * ph * pw);
    let src = col.as_slice();
    let cols = oh * ow;
    for ch in 0..c {
        for ki in 0..kh {
            for kj in 0..kw {
                let row = ((ch * kh + ki) * kw + kj) * cols;
                for oi in 0..oh {
                    let di = oi * stride + ki;
                    let dst_base = (ch * ph + di) * pw + kj;
                    let src_base = row + oi * ow;
                    for oj in 0..ow {
                        padded[dst_base + oj * stride] += src[src_base + oj];
                    }
                }
            }
        }
    }
    Tensor::from_vec(padded, &[c, ph, pw]).unpad2d(pad)
}

/// 2-D convolution. `input [B,C,H,W]`, `weight [O,C,kh,kw]`,
/// optional `bias [O]` → `[B,O,oh,ow]`.
///
/// Dispatches to the fastest lowering for the shape (see the module
/// docs): implicit GEMM for 1×1/stride-1/no-pad, the direct
/// shift-and-axpy kernel for large-plane 3×3/stride-1, and im2col +
/// GEMM everywhere else. All paths produce the same accumulation order
/// per output element, so results agree to within SIMD-FMA rounding.
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    pad: usize,
) -> Tensor {
    let _t = geotorch_telemetry::scope!("tensor.conv2d");
    assert_eq!(input.ndim(), 4, "conv2d input must be [B,C,H,W]");
    assert_eq!(weight.ndim(), 4, "conv2d weight must be [O,C,kh,kw]");
    let (kh, kw) = (weight.shape()[2], weight.shape()[3]);
    // Note: 1×1/stride-1/no-pad stays on im2col *by design* — the
    // lowering degenerates to a zero-copy reshape, so the whole conv is
    // one blocked GEMM with no scratch (implicit GEMM).
    let plane = conv_out_len(input.shape()[2], kh, stride, pad)
        * conv_out_len(input.shape()[3], kw, stride, pad);
    if stride == 1 && kh == 3 && kw == 3 && plane >= DIRECT_CONV_MIN_PLANE {
        geotorch_telemetry::count!("tensor.conv2d.direct", 1);
        conv2d_direct(input, weight, bias, pad)
    } else {
        geotorch_telemetry::count!("tensor.conv2d.im2col", 1);
        conv2d_im2col(input, weight, bias, stride, pad)
    }
}

/// Direct stride-1 convolution: for each `(batch, out-channel)` output
/// plane, every filter tap `(ic, ki, kj)` is applied as a scaled
/// row-wise axpy of the shifted input plane. No column matrix is built.
/// Taps run in im2col row order (`ic → ki → kj`) and the bias is added
/// after all taps, so each output element's accumulation order matches
/// [`conv2d_im2col`]'s GEMM exactly.
pub fn conv2d_direct(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    pad: usize,
) -> Tensor {
    let _t = geotorch_telemetry::scope!("tensor.conv2d_direct");
    assert_eq!(input.ndim(), 4, "conv2d input must be [B,C,H,W]");
    assert_eq!(weight.ndim(), 4, "conv2d weight must be [O,C,kh,kw]");
    let (b, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let (o, wc, kh, kw) = (
        weight.shape()[0],
        weight.shape()[1],
        weight.shape()[2],
        weight.shape()[3],
    );
    assert_eq!(c, wc, "conv2d channel mismatch: input {c}, weight {wc}");
    if let Some(bias) = bias {
        assert_eq!(bias.shape(), &[o], "conv2d bias must be [O]");
    }
    let oh = conv_out_len(h, kh, 1, pad);
    let ow = conv_out_len(w, kw, 1, pad);
    let padded = if pad > 0 { input.pad2d(pad) } else { input.clone() };
    let (ph, pw) = (h + 2 * pad, w + 2 * pad);
    let x = padded.as_slice();
    let wt = weight.as_slice();
    let plane = oh * ow;
    let mut out = crate::pool::alloc_uninit(b * o * plane);
    let out_ptr = SendPtr(out.as_mut_ptr());
    let task = |t: usize| {
        let (bi, oc) = (t / o, t % o);
        // SAFETY: each (bi, oc) task owns a disjoint output plane.
        let dst = unsafe {
            std::slice::from_raw_parts_mut({ &out_ptr }.0.add((bi * o + oc) * plane), plane)
        };
        dst.fill(0.0);
        for ic in 0..c {
            for ki in 0..kh {
                let w_row = &wt[((oc * c + ic) * kh + ki) * kw..][..kw];
                for oi in 0..oh {
                    let src = &x[((bi * c + ic) * ph + oi + ki) * pw..][..ow + kw - 1];
                    let row = &mut dst[oi * ow..(oi + 1) * ow];
                    // One pass over the output row applies all kw taps of
                    // this filter row (kj ascending per element, matching
                    // the im2col accumulation order), so the row is
                    // loaded/stored once per (ic, ki) instead of per tap.
                    match *w_row {
                        [w0] => {
                            for (d, &s) in row.iter_mut().zip(src) {
                                *d += w0 * s;
                            }
                        }
                        [w0, w1, w2] => {
                            for (j, d) in row.iter_mut().enumerate() {
                                let mut v = *d;
                                v += w0 * src[j];
                                v += w1 * src[j + 1];
                                v += w2 * src[j + 2];
                                *d = v;
                            }
                        }
                        _ => {
                            for (j, d) in row.iter_mut().enumerate() {
                                let mut v = *d;
                                for (kj, &wv) in w_row.iter().enumerate() {
                                    v += wv * src[j + kj];
                                }
                                *d = v;
                            }
                        }
                    }
                }
            }
        }
        if let Some(bias) = bias {
            let bv = bias.as_slice()[oc];
            for d in dst.iter_mut() {
                *d += bv;
            }
        }
    };
    let flops = 2 * b * o * c * kh * kw * plane;
    if Device::current().threads() > 1 && flops >= CONV_PARALLEL_FLOPS {
        parallel_for(b * o, task);
    } else {
        for t in 0..b * o {
            task(t);
        }
    }
    Tensor::from_vec(out, &[b, o, oh, ow])
}

/// im2col + GEMM convolution: lower each image to a column matrix and
/// multiply it against the flattened filter bank. The fallback for
/// strided convs and the implicit-GEMM path for 1×1 shapes (where
/// [`im2col`] is a zero-copy reshape). Batch items fan out across the
/// current device.
pub fn conv2d_im2col(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    pad: usize,
) -> Tensor {
    assert_eq!(input.ndim(), 4, "conv2d input must be [B,C,H,W]");
    assert_eq!(weight.ndim(), 4, "conv2d weight must be [O,C,kh,kw]");
    let (b, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let (o, wc, kh, kw) = (
        weight.shape()[0],
        weight.shape()[1],
        weight.shape()[2],
        weight.shape()[3],
    );
    assert_eq!(c, wc, "conv2d channel mismatch: input {c}, weight {wc}");
    if let Some(bias) = bias {
        assert_eq!(bias.shape(), &[o], "conv2d bias must be [O]");
    }
    let oh = conv_out_len(h, kh, stride, pad);
    let ow = conv_out_len(w, kw, stride, pad);
    let w_mat = weight.reshape(&[o, c * kh * kw]);
    let mut out = crate::pool::alloc_uninit(b * o * oh * ow);
    let per_img = o * oh * ow;
    let out_ptr = SendPtr(out.as_mut_ptr());
    parallel_for(b, |bi| {
        let img = input.index_axis(0, bi);
        let col = im2col(&img, kh, kw, stride, pad);
        let mut res = w_mat.matmul(&col); // [O, oh*ow]
        if let Some(bias) = bias {
            let data = res.as_mut_slice();
            for ch in 0..o {
                let bv = bias.as_slice()[ch];
                for v in &mut data[ch * oh * ow..(ch + 1) * oh * ow] {
                    *v += bv;
                }
            }
        }
        // SAFETY: each batch item writes a disjoint region.
        let dst =
            unsafe { std::slice::from_raw_parts_mut({ &out_ptr }.0.add(bi * per_img), per_img) };
        dst.copy_from_slice(res.as_slice());
    });
    Tensor::from_vec(out, &[b, o, oh, ow])
}

/// Sliding-window reference convolution (tests + ablation bench only).
pub fn conv2d_naive(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    pad: usize,
) -> Tensor {
    let (b, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let (o, _, kh, kw) = (
        weight.shape()[0],
        weight.shape()[1],
        weight.shape()[2],
        weight.shape()[3],
    );
    let oh = conv_out_len(h, kh, stride, pad);
    let ow = conv_out_len(w, kw, stride, pad);
    let padded = input.pad2d(pad);
    let (ph, pw) = (h + 2 * pad, w + 2 * pad);
    let x = padded.as_slice();
    let wt = weight.as_slice();
    let mut out = crate::pool::alloc_uninit(b * o * oh * ow);
    for bi in 0..b {
        for oc in 0..o {
            for oi in 0..oh {
                for oj in 0..ow {
                    let mut acc = bias.map_or(0.0, |t| t.as_slice()[oc]);
                    for ic in 0..c {
                        for ki in 0..kh {
                            for kj in 0..kw {
                                let xi = oi * stride + ki;
                                let xj = oj * stride + kj;
                                acc += x[((bi * c + ic) * ph + xi) * pw + xj]
                                    * wt[((oc * c + ic) * kh + ki) * kw + kj];
                            }
                        }
                    }
                    out[((bi * o + oc) * oh + oi) * ow + oj] = acc;
                }
            }
        }
    }
    Tensor::from_vec(out, &[b, o, oh, ow])
}

/// Transposed 2-D convolution (a.k.a. deconvolution), the adjoint of
/// [`conv2d`]. `input [B,C,H,W]`, `weight [C,O,kh,kw]`, optional `bias [O]`
/// → `[B, O, (H-1)*stride + kh - 2*pad, (W-1)*stride + kw - 2*pad]`.
pub fn conv_transpose2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    pad: usize,
) -> Tensor {
    let _t = geotorch_telemetry::scope!("tensor.conv_transpose2d");
    assert_eq!(input.ndim(), 4, "conv_transpose2d input must be [B,C,H,W]");
    assert_eq!(weight.ndim(), 4, "conv_transpose2d weight must be [C,O,kh,kw]");
    let (b, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let (wc, o, kh, kw) = (
        weight.shape()[0],
        weight.shape()[1],
        weight.shape()[2],
        weight.shape()[3],
    );
    assert_eq!(c, wc, "conv_transpose2d channel mismatch");
    let out_h = (h - 1) * stride + kh;
    let out_w = (w - 1) * stride + kw;
    assert!(
        out_h > 2 * pad && out_w > 2 * pad,
        "conv_transpose2d padding {pad} too large for output {out_h}x{out_w}"
    );
    // [C, O*kh*kw]ᵀ × [C, H*W] = [O*kh*kw, H*W], then scatter with col2im.
    let w_mat = weight.reshape(&[c, o * kh * kw]);
    let final_h = out_h - 2 * pad;
    let final_w = out_w - 2 * pad;
    let per_img = o * final_h * final_w;
    let mut out = crate::pool::alloc_uninit(b * per_img);
    let out_ptr = SendPtr(out.as_mut_ptr());
    parallel_for(b, |bi| {
        let x_mat = input.index_axis(0, bi).reshape(&[c, h * w]);
        let col = w_mat.matmul_tn(&x_mat); // [O*kh*kw, H*W]
        // The input positions are conv-output positions of the result:
        // col2im over the *final* image with the same stride/pad recovers it.
        let img = col2im(&col, o, final_h, final_w, kh, kw, stride, pad);
        let dst =
            unsafe { std::slice::from_raw_parts_mut({ &out_ptr }.0.add(bi * per_img), per_img) };
        dst.copy_from_slice(img.as_slice());
    });
    let mut result = Tensor::from_vec(out, &[b, o, final_h, final_w]);
    if let Some(bias) = bias {
        assert_eq!(bias.shape(), &[o], "conv_transpose2d bias must be [O]");
        let data = result.as_mut_slice();
        let hw = final_h * final_w;
        for bi in 0..b {
            for oc in 0..o {
                let bv = bias.as_slice()[oc];
                let base = (bi * o + oc) * hw;
                for v in &mut data[base..base + hw] {
                    *v += bv;
                }
            }
        }
    }
    result
}

/// Nearest-neighbour spatial upsampling by an integer `factor` (NCHW).
pub fn upsample_nearest2d(input: &Tensor, factor: usize) -> Tensor {
    assert!(factor > 0, "upsample factor must be positive");
    assert_eq!(input.ndim(), 4, "upsample_nearest2d input must be [B,C,H,W]");
    if factor == 1 {
        return input.clone();
    }
    let (b, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let (oh, ow) = (h * factor, w * factor);
    let src = input.as_slice();
    let mut out = crate::pool::alloc_uninit(b * c * oh * ow);
    for bc in 0..b * c {
        for i in 0..oh {
            let si = i / factor;
            let src_row = &src[(bc * h + si) * w..(bc * h + si + 1) * w];
            let dst_row = &mut out[(bc * oh + i) * ow..(bc * oh + i + 1) * ow];
            for (j, d) in dst_row.iter_mut().enumerate() {
                *d = src_row[j / factor];
            }
        }
    }
    Tensor::from_vec(out, &[b, c, oh, ow])
}

/// Adjoint of [`upsample_nearest2d`]: sum each `factor × factor` block.
pub fn upsample_nearest2d_backward(grad: &Tensor, factor: usize) -> Tensor {
    if factor == 1 {
        return grad.clone();
    }
    let (b, c, oh, ow) = (
        grad.shape()[0],
        grad.shape()[1],
        grad.shape()[2],
        grad.shape()[3],
    );
    let (h, w) = (oh / factor, ow / factor);
    let src = grad.as_slice();
    let mut out = crate::pool::alloc_zeroed(b * c * h * w);
    for bc in 0..b * c {
        for i in 0..oh {
            let si = i / factor;
            for j in 0..ow {
                out[(bc * h + si) * w + j / factor] += src[(bc * oh + i) * ow + j];
            }
        }
    }
    Tensor::from_vec(out, &[b, c, h, w])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{with_device, Device};
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    #[test]
    fn out_len_formula() {
        assert_eq!(conv_out_len(5, 3, 1, 0), 3);
        assert_eq!(conv_out_len(5, 3, 1, 1), 5);
        assert_eq!(conv_out_len(5, 3, 2, 1), 3);
        assert_eq!(conv_out_len(28, 5, 1, 2), 28);
    }

    #[test]
    fn im2col_known_values() {
        // 1×3×3 image, 2×2 kernel, stride 1, no pad → [4, 4] columns.
        let img = Tensor::arange(9).reshape(&[1, 3, 3]);
        let col = im2col(&img, 2, 2, 1, 0);
        assert_eq!(col.shape(), &[4, 4]);
        // First column = top-left patch [0,1,3,4].
        assert_eq!(col.at(&[0, 0]), 0.0);
        assert_eq!(col.at(&[1, 0]), 1.0);
        assert_eq!(col.at(&[2, 0]), 3.0);
        assert_eq!(col.at(&[3, 0]), 4.0);
        // Last column = bottom-right patch [4,5,7,8].
        assert_eq!(col.at(&[0, 3]), 4.0);
        assert_eq!(col.at(&[3, 3]), 8.0);
    }

    #[test]
    fn conv_matches_naive_across_configs() {
        let mut rng = rng();
        for &(c, o, h, w, k, s, p) in &[
            (1usize, 1usize, 5usize, 5usize, 3usize, 1usize, 0usize),
            (3, 4, 8, 8, 3, 1, 1),
            (2, 3, 9, 7, 3, 2, 1),
            (4, 2, 6, 6, 5, 1, 2),
            (1, 1, 4, 4, 1, 1, 0),
        ] {
            let input = Tensor::rand_uniform(&[2, c, h, w], -1.0, 1.0, &mut rng);
            let weight = Tensor::rand_uniform(&[o, c, k, k], -1.0, 1.0, &mut rng);
            let bias = Tensor::rand_uniform(&[o], -1.0, 1.0, &mut rng);
            let fast = conv2d(&input, &weight, Some(&bias), s, p);
            let slow = conv2d_naive(&input, &weight, Some(&bias), s, p);
            assert!(
                fast.allclose(&slow, 1e-4),
                "mismatch for c={c} o={o} h={h} w={w} k={k} s={s} p={p}"
            );
        }
    }

    #[test]
    fn direct_path_matches_im2col_path() {
        let mut rng = rng();
        for &(c, o, h, w, k, p) in &[
            (1usize, 1usize, 5usize, 5usize, 3usize, 0usize),
            (3, 4, 8, 8, 3, 1),
            (2, 3, 9, 7, 5, 2),
            (3, 2, 6, 6, 1, 1), // 1×1 with pad still takes the direct path
        ] {
            let input = Tensor::rand_uniform(&[2, c, h, w], -1.0, 1.0, &mut rng);
            let weight = Tensor::rand_uniform(&[o, c, k, k], -1.0, 1.0, &mut rng);
            let bias = Tensor::rand_uniform(&[o], -1.0, 1.0, &mut rng);
            let direct = conv2d_direct(&input, &weight, Some(&bias), p);
            let lowered = conv2d_im2col(&input, &weight, Some(&bias), 1, p);
            assert!(
                direct.allclose(&lowered, 1e-5),
                "path mismatch for c={c} o={o} h={h} w={w} k={k} p={p}"
            );
        }
    }

    #[test]
    fn one_by_one_im2col_is_zero_copy_reshape() {
        let img = Tensor::arange(12).reshape(&[3, 2, 2]);
        let col = im2col(&img, 1, 1, 1, 0);
        assert_eq!(col.shape(), &[3, 4]);
        assert_eq!(col.as_slice(), img.as_slice());
        let back = col2im(&col, 3, 2, 2, 1, 1, 1, 0);
        assert_eq!(back.shape(), &[3, 2, 2]);
        assert_eq!(back.as_slice(), img.as_slice());
    }

    #[test]
    fn direct_parallel_matches_serial() {
        // A 48×48 plane crosses DIRECT_CONV_MIN_PLANE (dispatcher picks
        // the direct path) and CONV_PARALLEL_FLOPS (Parallel(4) actually
        // fans out plane tasks).
        let mut rng = rng();
        let input = Tensor::rand_uniform(&[2, 8, 48, 48], -1.0, 1.0, &mut rng);
        let weight = Tensor::rand_uniform(&[16, 8, 3, 3], -1.0, 1.0, &mut rng);
        let serial = conv2d(&input, &weight, None, 1, 1);
        assert_eq!(
            serial.as_slice(),
            conv2d_direct(&input, &weight, None, 1).as_slice(),
            "dispatcher should pick the direct path at this plane size"
        );
        let parallel = with_device(Device::Parallel(4), || conv2d(&input, &weight, None, 1, 1));
        assert_eq!(serial.as_slice(), parallel.as_slice());
    }

    #[test]
    fn conv_parallel_matches_serial() {
        let mut rng = rng();
        let input = Tensor::rand_uniform(&[4, 3, 10, 10], -1.0, 1.0, &mut rng);
        let weight = Tensor::rand_uniform(&[5, 3, 3, 3], -1.0, 1.0, &mut rng);
        let serial = conv2d(&input, &weight, None, 1, 1);
        let parallel = with_device(Device::Parallel(4), || conv2d(&input, &weight, None, 1, 1));
        assert!(serial.allclose(&parallel, 1e-5));
    }

    #[test]
    fn identity_kernel_preserves_image() {
        let img = Tensor::arange(16).reshape(&[1, 1, 4, 4]);
        let weight = Tensor::ones(&[1, 1, 1, 1]);
        let out = conv2d(&img, &weight, None, 1, 0);
        assert_eq!(out, img);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y.
        let mut rng = rng();
        let (c, h, w, k, s, p) = (2, 6, 5, 3, 2, 1);
        let x = Tensor::rand_uniform(&[c, h, w], -1.0, 1.0, &mut rng);
        let col_shape_probe = im2col(&x, k, k, s, p);
        let y = Tensor::rand_uniform(col_shape_probe.shape(), -1.0, 1.0, &mut rng);
        let lhs = col_shape_probe.flatten().dot(&y.flatten());
        let back = col2im(&y, c, h, w, k, k, s, p);
        let rhs = x.flatten().dot(&back.flatten());
        assert!((lhs - rhs).abs() < 1e-3, "adjoint mismatch: {lhs} vs {rhs}");
    }

    #[test]
    fn conv_transpose_inverts_stride_shape() {
        let mut rng = rng();
        let input = Tensor::rand_uniform(&[1, 3, 4, 4], -1.0, 1.0, &mut rng);
        let weight = Tensor::rand_uniform(&[3, 2, 2, 2], -1.0, 1.0, &mut rng);
        let out = conv_transpose2d(&input, &weight, None, 2, 0);
        assert_eq!(out.shape(), &[1, 2, 8, 8]);
    }

    #[test]
    fn conv_transpose_is_adjoint_of_conv() {
        // <conv(x, w), y> == <x, conv_T(y, w')> with w' = w axes swapped.
        let mut rng = rng();
        // Dims chosen so the strided conv tiles exactly: (h + 2p - k) % s == 0,
        // making conv_transpose the exact shape inverse.
        let (c, o, h, w, k, s, p) = (2, 3, 7, 7, 3, 2, 1);
        let x = Tensor::rand_uniform(&[1, c, h, w], -1.0, 1.0, &mut rng);
        let wt = Tensor::rand_uniform(&[o, c, k, k], -1.0, 1.0, &mut rng);
        let fwd = conv2d(&x, &wt, None, s, p);
        let y = Tensor::rand_uniform(fwd.shape(), -1.0, 1.0, &mut rng);
        let lhs = fwd.flatten().dot(&y.flatten());
        // conv_transpose2d takes weight [Cin, Cout, kh, kw]; the conv weight
        // [O, C, k, k] already has that layout for the adjoint direction
        // (Cin = O channels of y, Cout = C channels of x).
        let back = conv_transpose2d(&y, &wt, None, s, p);
        assert_eq!(back.shape(), x.shape());
        let rhs = x.flatten().dot(&back.flatten());
        assert!((lhs - rhs).abs() < 1e-2, "adjoint mismatch: {lhs} vs {rhs}");
    }

    #[test]
    fn upsample_nearest_values() {
        let img = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let up = upsample_nearest2d(&img, 2);
        assert_eq!(up.shape(), &[1, 1, 4, 4]);
        assert_eq!(up.at(&[0, 0, 0, 0]), 1.0);
        assert_eq!(up.at(&[0, 0, 0, 1]), 1.0);
        assert_eq!(up.at(&[0, 0, 1, 1]), 1.0);
        assert_eq!(up.at(&[0, 0, 3, 3]), 4.0);
    }

    #[test]
    fn upsample_backward_is_adjoint() {
        let mut rng = rng();
        let x = Tensor::rand_uniform(&[1, 2, 3, 3], -1.0, 1.0, &mut rng);
        let up = upsample_nearest2d(&x, 2);
        let y = Tensor::rand_uniform(up.shape(), -1.0, 1.0, &mut rng);
        let lhs = up.flatten().dot(&y.flatten());
        let back = upsample_nearest2d_backward(&y, 2);
        let rhs = x.flatten().dot(&back.flatten());
        assert!((lhs - rhs).abs() < 1e-3);
    }
}
