//! Reference-oracle property tests for the fast kernels.
//!
//! The blocked SIMD matmul and the direct conv paths are checked against
//! the retained naive kernels (`matmul_naive`, `conv2d_naive`) and
//! against each other, on both `Device::Cpu` and `Device::Parallel`.
//!
//! # Why the oracle can demand bit-for-bit equality
//!
//! Random f32 inputs would make the comparison fuzzy: the AVX+FMA
//! microkernel fuses multiply-add rounding, so continuous inputs can
//! diverge from the scalar oracle near cancellations. Instead the main
//! suite draws **lattice inputs** — multiples of 1/16 in [-1, 1]. Every
//! pairwise product is then a multiple of 2⁻⁸ with magnitude ≤ 1, and
//! every partial sum of up to 2¹⁶ such terms is exactly representable
//! in f32. Exact values make *every* accumulation order — blocked,
//! banded, fused, naive — produce the identical bit pattern, so the
//! oracle asserts `to_bits` equality, the strongest possible check
//! (and far inside the ≤ 4-ulp acceptance bound).
//!
//! Continuous inputs are still covered: a positive-data suite bounds
//! the FMA-vs-scalar divergence at ≤ 4 ulps by keeping the inner
//! dimension ≤ 8 (each fused step can contribute at most half an ulp
//! of the monotone running sum).
//!
//! Two contracts hold bit for bit even on random inputs, because they
//! compare equal accumulation orders with equal rounding: the strided
//! `matmul_nt`/`matmul_tn` against products of materialised transposes,
//! and `m < MR` products (all edge tiles, which are never fused)
//! against the naive oracle.
//!
//! Set `GEOTORCH_KERNEL_SEED` to shift every generated input corpus —
//! CI runs the suite under seeds 1–3.

use geotorch_tensor::ops::conv::{conv2d, conv2d_direct, conv2d_im2col, conv2d_naive};
use geotorch_tensor::ops::matmul::{matmul_naive, KC, MC, MR, NC, NR};
use geotorch_tensor::{with_device, Device, Tensor};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// Extra seed mixed into every generated tensor, so CI can re-run the
/// whole corpus under different data (`GEOTORCH_KERNEL_SEED=1..3`).
fn env_seed() -> u64 {
    std::env::var("GEOTORCH_KERNEL_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Lattice tensor: i.i.d. multiples of 1/16 in [-1, 1]. See module docs
/// for why sums over these are exact in f32.
fn lattice(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(
        seed ^ env_seed().wrapping_mul(0x9e37_79b9_7f4a_7c15),
    );
    let n: usize = shape.iter().product();
    let data: Vec<f32> = (0..n).map(|_| rng.gen_range(-16i32..=16) as f32 / 16.0).collect();
    Tensor::from_vec(data, shape)
}

/// Continuous positive tensor in [0.25, 1.0] (no cancellation possible).
fn positive(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(
        seed ^ env_seed().wrapping_mul(0x9e37_79b9_7f4a_7c15),
    );
    Tensor::rand_uniform(shape, 0.25, 1.0, &mut rng)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Monotone integer key: `ulp_key(a) - ulp_key(b)` counts the number of
/// representable f32 values between `a` and `b` (±0 collapse to 0).
fn ulp_key(x: f32) -> i64 {
    let b = x.to_bits() as i32;
    if b < 0 {
        i32::MIN as i64 - b as i64
    } else {
        b as i64
    }
}

fn max_ulp_diff(a: &Tensor, b: &Tensor) -> u64 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| (ulp_key(x) - ulp_key(y)).unsigned_abs())
        .max()
        .unwrap_or(0)
}

proptest! {
    /// Blocked SIMD matmul vs the naive triple loop on lattice inputs:
    /// bit-for-bit, on both devices. Shapes sweep the tiny-path cutoff
    /// and every MR/NR ragged-tail combination, including K=1.
    #[test]
    fn matmul_lattice_bit_identical(m in 1usize..48, k in 1usize..48, n in 1usize..48, seed in 0u64..1000) {
        let a = lattice(&[m, k], seed);
        let b = lattice(&[k, n], seed ^ 0xabcd);
        let oracle = matmul_naive(&a, &b);
        let cpu = with_device(Device::Cpu, || a.matmul(&b));
        prop_assert_eq!(bits(&cpu), bits(&oracle), "Cpu mismatch at m={} k={} n={}", m, k, n);
        let par = with_device(Device::parallel(), || a.matmul(&b));
        prop_assert_eq!(bits(&par), bits(&oracle), "Parallel mismatch at m={} k={} n={}", m, k, n);
    }

    /// Continuous positive inputs with inner dimension ≤ 8: the fused
    /// microkernel must stay within 4 ulps of the scalar oracle.
    #[test]
    fn matmul_continuous_within_4_ulps(m in 1usize..64, k in 1usize..=8, n in 1usize..64, seed in 0u64..1000) {
        let a = positive(&[m, k], seed);
        let b = positive(&[k, n], seed ^ 0x5eed);
        let oracle = matmul_naive(&a, &b);
        let fast = a.matmul(&b);
        let ulps = max_ulp_diff(&fast, &oracle);
        prop_assert!(ulps <= 4, "{} ulps at m={} k={} n={}", ulps, m, k, n);
    }

    /// Direct conv, im2col conv, the dispatcher, and the sliding-window
    /// naive reference all agree bit-for-bit on lattice inputs, with
    /// bias, across kernel sizes, strides, and paddings, on both devices.
    #[test]
    fn conv_lattice_bit_identical(
        c in 1usize..4, o in 1usize..4, h in 6usize..12, w in 6usize..12,
        k in 1usize..=5, stride in 1usize..=3, pad in 0usize..=2, seed in 0u64..1000,
    ) {
        let input = lattice(&[2, c, h, w], seed);
        let weight = lattice(&[o, c, k, k], seed ^ 0xbeef);
        let bias = lattice(&[o], seed ^ 0xfeed);
        let oracle = conv2d_naive(&input, &weight, Some(&bias), stride, pad);
        let lowered = conv2d_im2col(&input, &weight, Some(&bias), stride, pad);
        prop_assert_eq!(bits(&lowered), bits(&oracle), "im2col path k={} s={} p={}", k, stride, pad);
        if stride == 1 {
            let direct = conv2d_direct(&input, &weight, Some(&bias), pad);
            prop_assert_eq!(bits(&direct), bits(&oracle), "direct path k={} p={}", k, pad);
        }
        for device in [Device::Cpu, Device::parallel()] {
            let got = with_device(device, || conv2d(&input, &weight, Some(&bias), stride, pad));
            prop_assert_eq!(bits(&got), bits(&oracle), "dispatch {:?} k={} s={} p={}", device, k, stride, pad);
        }
    }
}

/// Shapes chosen to cross every blocking boundary: MC/KC/NC block edges,
/// ragged MR/NR tails, K=1, single-row/column extremes. Lattice inputs,
/// bit-for-bit against the oracle on both devices.
#[test]
fn matmul_block_edges_bit_identical() {
    let shapes = [
        (MC + 1, KC + 3, NR + 1),     // crosses MC and KC, ragged NR tail
        (MC, KC, NC.min(96)),         // exact block multiples
        (MR + 1, 1, NR + 1),          // K = 1 with ragged tails
        (1, KC + 1, 1),               // single row and column across KC
        (2 * MC + 5, 7, NR - 1),      // tall and narrow, sub-NR width
        (MR, KC + KC + 1, NR),        // exactly one full tile, 3 K-panels
    ];
    for (i, &(m, k, n)) in shapes.iter().enumerate() {
        let a = lattice(&[m, k], 100 + i as u64);
        let b = lattice(&[k, n], 200 + i as u64);
        let oracle = matmul_naive(&a, &b);
        for device in [Device::Cpu, Device::parallel()] {
            let got = with_device(device, || a.matmul(&b));
            assert_eq!(
                bits(&got),
                bits(&oracle),
                "mismatch on {device:?} at m={m} k={k} n={n}"
            );
        }
    }
}

/// A product large enough to cross `GEMM_PARALLEL_FLOPS`, so the
/// Parallel device genuinely band-splits across the worker pool — and
/// must still be bit-identical to the serial blocked kernel and oracle.
#[test]
fn matmul_parallel_band_split_bit_identical() {
    let a = lattice(&[300, 129], 7);
    let b = lattice(&[129, 200], 8);
    let oracle = matmul_naive(&a, &b);
    let cpu = with_device(Device::Cpu, || a.matmul(&b));
    let par = with_device(Device::parallel(), || a.matmul(&b));
    assert_eq!(bits(&cpu), bits(&oracle));
    assert_eq!(bits(&par), bits(&oracle));
}

/// A conv whose 48×48 plane crosses both `DIRECT_CONV_MIN_PLANE` (so
/// the dispatcher picks the direct path) and `CONV_PARALLEL_FLOPS` (so
/// the direct path fans out over batch × out-channel plane tasks).
#[test]
fn conv_parallel_planes_bit_identical() {
    let input = lattice(&[2, 8, 48, 48], 21);
    let weight = lattice(&[16, 8, 3, 3], 22);
    let bias = lattice(&[16], 23);
    let serial = conv2d_direct(&input, &weight, Some(&bias), 1);
    let cpu = with_device(Device::Cpu, || conv2d(&input, &weight, Some(&bias), 1, 1));
    let par = with_device(Device::parallel(), || conv2d(&input, &weight, Some(&bias), 1, 1));
    assert_eq!(bits(&cpu), bits(&serial), "dispatcher should pick the direct path");
    assert_eq!(bits(&cpu), bits(&par));
}

/// The 1×1/stride-1/no-pad conv takes the implicit-GEMM route with a
/// zero-copy column matrix; it must match the naive reference exactly
/// on lattice inputs.
#[test]
fn conv_one_by_one_implicit_gemm_bit_identical() {
    let input = lattice(&[3, 5, 9, 9], 31);
    let weight = lattice(&[7, 5, 1, 1], 32);
    let bias = lattice(&[7], 33);
    let oracle = conv2d_naive(&input, &weight, Some(&bias), 1, 0);
    for device in [Device::Cpu, Device::parallel()] {
        let got = with_device(device, || conv2d(&input, &weight, Some(&bias), 1, 0));
        assert_eq!(bits(&got), bits(&oracle), "1x1 mismatch on {device:?}");
    }
}

/// Random (non-lattice) tensor in [-1, 1]: rounding is visible, so only
/// an identical accumulation order gives identical bits.
fn random(shape: &[usize], seed: u64) -> Tensor {
    let mut rng =
        rand::rngs::StdRng::seed_from_u64(seed ^ env_seed().wrapping_mul(0x9e37_79b9_7f4a_7c15));
    Tensor::rand_uniform(shape, -1.0, 1.0, &mut rng)
}

/// `matmul_nt` / `matmul_tn` read a transposed operand through swapped
/// strides. They pack the same panels as a product of the materialised
/// transpose, so on random inputs they match it bit for bit: on the
/// tiny path, the packed path, across block edges and band splits.
#[test]
fn strided_operands_match_materialised_transpose() {
    let shapes = [
        (3, 4, 5),                // tiny path
        (7, 13, 5),               // tiny path, ragged
        (64, 64, 64),             // packed, full tiles
        (MC + 1, KC + 3, NR + 1), // crosses MC and KC, ragged tails
        (1, KC + 1, 1),           // single row and column across KC
        (2 * MC + 5, 7, NR - 1),  // tall and narrow
        (MR - 1, 300, NC + 3),    // every tile an edge tile, crosses NC
        (300, 129, 200),          // row bands on Parallel
        (40, 70, 1100),           // column bands on Parallel, crosses NC
    ];
    for (i, &(m, k, n)) in shapes.iter().enumerate() {
        let a = random(&[m, k], 300 + i as u64);
        let b = random(&[k, n], 400 + i as u64);
        let (at, bt) = (a.transpose(), b.transpose());
        for device in [Device::Cpu, Device::Parallel(4)] {
            with_device(device, || {
                let want = a.matmul(&b);
                assert_eq!(
                    bits(&a.matmul_nt(&bt)),
                    bits(&want),
                    "matmul_nt on {device:?} at m={m} k={k} n={n}"
                );
                assert_eq!(
                    bits(&at.matmul_tn(&b)),
                    bits(&want),
                    "matmul_tn on {device:?} at m={m} k={k} n={n}"
                );
            });
        }
    }
}

/// With `m < MR` every tile is an edge tile, and edge tiles run the
/// unfused kernel on every SIMD tier. Such a product therefore equals
/// the scalar oracle bit for bit even on random inputs, on whichever
/// tier this host detects. Thin-channel convs lowered to GEMM rely on
/// this to agree with the direct conv path.
#[test]
fn thin_products_round_like_the_oracle() {
    let shapes = [
        (1, 300, 100),
        (MR - 1, KC + 7, 3 * NR + 5),
        (2, 2 * KC + 1, NC + 3),
        (MR - 1, 400, 2000), // column bands on Parallel
    ];
    for (i, &(m, k, n)) in shapes.iter().enumerate() {
        let a = random(&[m, k], 500 + i as u64);
        let b = random(&[k, n], 600 + i as u64);
        let oracle = matmul_naive(&a, &b);
        for device in [Device::Cpu, Device::Parallel(4)] {
            let got = with_device(device, || a.matmul(&b));
            assert_eq!(
                bits(&got),
                bits(&oracle),
                "thin product on {device:?} at m={m} k={k} n={n}"
            );
        }
    }
}
