//! Matrix multiplication kernels.
//!
//! # The packed, cache-blocked GEMM
//!
//! [`Tensor::matmul`], [`Tensor::matmul_nt`] (`A·Bᵀ`) and
//! [`Tensor::matmul_tn`] (`Aᵀ·B`) share one BLIS-style blocked kernel
//! instead of a plain loop nest:
//!
//! * **Strided operands.** The kernel reads `A` and `B` through a
//!   (row stride, column stride) view, so a transposed operand is the
//!   same buffer with its strides swapped. Packing copies every operand
//!   anyway, so reading one transposed costs nothing extra and no
//!   transposed copy is ever materialised.
//! * **Packing.** For each `KC`-deep panel, slices of `A` and `B` are
//!   repacked into contiguous, microkernel-ordered tiles ([`pack_a`] /
//!   [`pack_b`]) allocated from the tensor buffer pool — steady-state
//!   packing is allocation-free, which the `kernel_regression` gate in
//!   `geotorch-bench` enforces.
//! * **Blocking.** The loop nest walks `NC`-wide column blocks, `KC`-deep
//!   depth panels, and `MC`-tall row blocks, sized so an `A` block stays
//!   L2-resident and the `B` micro-panel streams through L1 while a
//!   [`MR`]`×`[`NR`] tile of `C` lives entirely in registers.
//! * **SIMD.** The innermost microkernel is selected once per process by
//!   runtime CPU detection: AVX+FMA (`std::arch` intrinsics, 2×8-lane
//!   fused multiply-adds per row), AVX without FMA, or a portable
//!   half-tile kernel the autovectorizer lowers to SSE. All variants
//!   share the packed layout.
//! * **Edge tiles.** A ragged `mr×nr` tile at the bottom or right edge of
//!   `C` runs the tier's *unfused* full kernel (AVX on both AVX tiers,
//!   portable otherwise) on a zero-padded `MR×NR` scratch tile, then
//!   copies the valid corner back.
//! * **Parallelism.** Products past [`GEMM_PARALLEL_FLOPS`] split the
//!   longer output axis into microkernel-aligned bands, one
//!   [`parallel_for`] task per band, so `Device::Parallel` distributes
//!   blocked tiles instead of raw rows.
//!
//! # Numerics and the oracle contract
//!
//! Every kernel variant accumulates each output element's products in
//! strictly ascending `p` order (the tile is loaded from `C`, updated,
//! and stored back, so `KC` panel boundaries do not reassociate the
//! sum). Rust never enables floating-point contraction on its own, so
//! the only rounding difference against the retained [`matmul_naive`]
//! oracle is the FMA microkernel's fused rounding, and that kernel only
//! ever sees full tiles: edge tiles, and therefore every product with
//! `m < MR`, round exactly like the oracle on any input. On inputs whose
//! products and partial sums are exactly representable (the lattice
//! inputs used by `tests/kernel_oracle.rs`) every variant is
//! **bit-identical** to the oracle; on arbitrary inputs the deltas stay
//! within ordinary mul+add rounding of the same summation order. The
//! strided forms pack the same panels as a product of materialised
//! transposes, so `a.matmul_nt(&b)` is bit-identical to
//! `a.matmul(&b.transpose())`, and likewise for `matmul_tn`.

use crate::device::{parallel_for, Device, SendPtr};
use crate::pool::Buffer;
use crate::Tensor;

/// Microkernel tile height: rows of `C` updated per microkernel call.
pub const MR: usize = 6;
/// Microkernel tile width: columns of `C` updated per microkernel call
/// (two 8-lane vectors).
pub const NR: usize = 16;
/// Row-block size: an `MC×KC` packed `A` block is sized for L2.
pub const MC: usize = 120;
/// Depth-panel size: `KC×NR` packed `B` micro-panels stream through L1.
pub const KC: usize = 256;
/// Column-block size: one packed `B` panel is at most `KC×NC`.
pub const NC: usize = 1024;

/// FLOP count (`2·m·n·k`) below which a product stays on the calling
/// thread: waking pool workers costs more than the arithmetic. Above
/// it, the longer output axis is split into tile-aligned bands.
pub const GEMM_PARALLEL_FLOPS: usize = 2 * 1024 * 1024;

/// `m·n·k` below which the packed path is skipped entirely: for tiny
/// products the pack/tile bookkeeping dominates, so a simple `ipj`
/// accumulation loop (same per-element order) wins.
const GEMM_TINY_MACS: usize = 16 * 1024;

impl Tensor {
    /// 2-D matrix product `self [m,k] × other [k,n] → [m,n]` via the
    /// packed, cache-blocked SIMD kernel (see the module docs).
    ///
    /// # Panics
    /// If either operand is not 2-D or the inner dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let _t = geotorch_telemetry::scope!("tensor.matmul");
        gemm_into(MatRef::rows(self), MatRef::rows(other))
    }

    /// `self [m,k] × otherᵀ` for `other [n,k]` → `[m,n]`, without
    /// materialising the transpose. Bit-identical to
    /// `self.matmul(&other.transpose())`.
    ///
    /// # Panics
    /// If either operand is not 2-D or the inner dimensions differ.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        let _t = geotorch_telemetry::scope!("tensor.matmul");
        gemm_into(MatRef::rows(self), MatRef::cols(other))
    }

    /// `selfᵀ × other` for `self [k,m]`, `other [k,n]` → `[m,n]`, without
    /// materialising the transpose. Bit-identical to
    /// `self.transpose().matmul(other)`.
    ///
    /// # Panics
    /// If either operand is not 2-D or the inner dimensions differ.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        let _t = geotorch_telemetry::scope!("tensor.matmul");
        gemm_into(MatRef::cols(self), MatRef::rows(other))
    }

    /// Dot product of two 1-D tensors.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.ndim(), 1, "dot lhs must be 1-D");
        assert_eq!(self.shape(), other.shape(), "dot length mismatch");
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(&a, &b)| a * b)
            .sum()
    }
}

/// Naive triple-loop reference used as the test oracle and by the kernel
/// ablation bench. Accumulates each element's products in ascending `p`
/// order — the order every fast kernel reproduces.
pub fn matmul_naive(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let n = b.shape()[1];
    let mut out = crate::pool::alloc_uninit(m * n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for p in 0..k {
                acc += a.as_slice()[i * k + p] * b.as_slice()[p * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    Tensor::from_vec(out, &[m, n])
}

/// A read-only strided view of a `rows × cols` matrix: element `(i, j)`
/// lives at `data[i·rs + j·cs]`. A row-major `[r, c]` tensor is
/// `(rs, cs) = (c, 1)`; the same tensor read as its transpose is `(1, c)`.
#[derive(Clone, Copy)]
struct MatRef<'a> {
    data: &'a [f32],
    rows: usize,
    cols: usize,
    rs: usize,
    cs: usize,
}

impl<'a> MatRef<'a> {
    /// A row-major 2-D tensor as stored.
    fn rows(t: &'a Tensor) -> Self {
        assert_eq!(t.ndim(), 2, "matmul operands must be 2-D, got {:?}", t.shape());
        let (rows, cols) = (t.shape()[0], t.shape()[1]);
        MatRef {
            data: t.as_slice(),
            rows,
            cols,
            rs: cols,
            cs: 1,
        }
    }

    /// A row-major 2-D tensor read as its transpose.
    fn cols(t: &'a Tensor) -> Self {
        let v = MatRef::rows(t);
        MatRef {
            rows: v.cols,
            cols: v.rows,
            rs: v.cs,
            cs: v.rs,
            ..v
        }
    }

    #[inline(always)]
    fn at(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.rs + j * self.cs]
    }
}

/// Fresh `[m,n]` tensor holding `A·B`.
///
/// # Panics
/// If the inner dimensions differ.
fn gemm_into(a: MatRef, b: MatRef) -> Tensor {
    assert_eq!(
        a.cols, b.rows,
        "matmul inner dims differ: [{}, {}] × [{}, {}]",
        a.rows, a.cols, b.rows, b.cols
    );
    // The kernels accumulate `C += A·B`, so the output starts zeroed.
    let mut out = crate::pool::alloc_zeroed(a.rows * b.cols);
    gemm(a, b, &mut out);
    Tensor::from_vec(out, &[a.rows, b.cols])
}

// ------------------------------------------------------------ dispatch

/// The SIMD tier the microkernel runs at, detected once per process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Simd {
    /// AVX 8-lane vectors with fused multiply-add (`vfmadd231ps`).
    Fma,
    /// AVX 8-lane vectors, separate multiply and add.
    Avx,
    /// Autovectorized half-tile fallback (SSE on x86, NEON elsewhere).
    Portable,
}

/// Runtime CPU-feature detection, memoized for the process lifetime.
pub(crate) fn simd() -> Simd {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static TIER: OnceLock<Simd> = OnceLock::new();
        *TIER.get_or_init(|| {
            if std::is_x86_feature_detected!("avx") && std::is_x86_feature_detected!("fma") {
                Simd::Fma
            } else if std::is_x86_feature_detected!("avx") {
                Simd::Avx
            } else {
                Simd::Portable
            }
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Simd::Portable
    }
}

/// Name of the detected microkernel tier (for benches and reports).
pub fn simd_kernel_name() -> &'static str {
    match simd() {
        Simd::Fma => "avx+fma",
        Simd::Avx => "avx",
        Simd::Portable => "portable",
    }
}

/// `out[m,n] += A·B` for strided views `A [m,k]`, `B [k,n]`. `out` is
/// row-major with row stride `n` (zeroed by [`gemm_into`], so the net
/// effect there is `A·B`).
fn gemm(a: MatRef, b: MatRef, out: &mut [f32]) {
    let (m, n, k) = (a.rows, b.cols, a.cols);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if m * n * k <= GEMM_TINY_MACS {
        gemm_tiny(a, b, out, m, n, k);
        return;
    }
    let threads = Device::current().threads();
    let c = SendPtr(out.as_mut_ptr());
    if threads > 1 && 2 * m * n * k >= GEMM_PARALLEL_FLOPS {
        // Split the longer output axis into tile-aligned bands; each
        // band is an independent serial blocked GEMM over disjoint
        // rows/columns of C.
        if m >= n {
            let band = m.div_ceil(threads).div_ceil(MR) * MR;
            parallel_for(m.div_ceil(band), |bi| {
                let r0 = bi * band;
                let r1 = (r0 + band).min(m);
                gemm_block(a, b, c, (r0, r1), (0, n), k, n);
            });
        } else {
            let band = n.div_ceil(threads).div_ceil(NR) * NR;
            parallel_for(n.div_ceil(band), |bi| {
                let c0 = bi * band;
                let c1 = (c0 + band).min(n);
                gemm_block(a, b, c, (0, m), (c0, c1), k, n);
            });
        }
    } else {
        gemm_block(a, b, c, (0, m), (0, n), k, n);
    }
}

/// Tiny-product path: plain `ipj` accumulation, no packing. Same
/// per-element accumulation order as the blocked path and the oracle.
fn gemm_tiny(a: MatRef, b: MatRef, out: &mut [f32], m: usize, n: usize, k: usize) {
    for (i, out_row) in out.chunks_exact_mut(n).take(m).enumerate() {
        for p in 0..k {
            let a_ip = a.at(i, p);
            if b.cs == 1 {
                let b_row = &b.data[p * b.rs..][..n];
                for (o, &b_pj) in out_row.iter_mut().zip(b_row) {
                    *o += a_ip * b_pj;
                }
            } else {
                for (j, o) in out_row.iter_mut().enumerate() {
                    *o += a_ip * b.at(p, j);
                }
            }
        }
    }
}

/// Serial blocked GEMM over `C[rows, cols] += A[rows, :] × B[:, cols]`.
/// Pack buffers come from the tensor pool, so repeated products recycle
/// them instead of touching the heap.
fn gemm_block(
    a: MatRef,
    b: MatRef,
    c: SendPtr<f32>,
    rows: (usize, usize),
    cols: (usize, usize),
    k: usize,
    ldc: usize,
) {
    let kern = simd();
    let (r0, r1) = rows;
    let (c0, c1) = cols;
    let a_rows = (r1 - r0).min(MC).div_ceil(MR) * MR;
    let b_cols = (c1 - c0).min(NC).div_ceil(NR) * NR;
    let kc_max = k.min(KC);
    let mut apack = Buffer::uninit(a_rows * kc_max);
    let mut bpack = Buffer::uninit(kc_max * b_cols);
    let ap = apack.as_mut_slice();
    let bp = bpack.as_mut_slice();
    let mut jc = c0;
    while jc < c1 {
        let nc = NC.min(c1 - jc);
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            pack_b(b, bp, pc, jc, kc, nc);
            let mut ic = r0;
            while ic < r1 {
                let mc = MC.min(r1 - ic);
                pack_a(a, ap, ic, pc, mc, kc);
                for jr in (0..nc).step_by(NR) {
                    let nr = NR.min(nc - jr);
                    let pb = &bp[(jr / NR) * (kc * NR)..][..kc * NR];
                    for ir in (0..mc).step_by(MR) {
                        let mr = MR.min(mc - ir);
                        let pa = &ap[(ir / MR) * (kc * MR)..][..kc * MR];
                        // SAFETY: the tile covers rows ic+ir..ic+ir+mr and
                        // columns jc+jr..jc+jr+nr, all inside this band's
                        // disjoint region of C.
                        let ctile = unsafe { c.0.add((ic + ir) * ldc + jc + jr) };
                        if mr == MR && nr == NR {
                            match kern {
                                #[cfg(target_arch = "x86_64")]
                                // SAFETY: tier detected at runtime; full
                                // tile bounds as above.
                                Simd::Fma => unsafe {
                                    mk_fma(pa.as_ptr(), pb.as_ptr(), kc, ctile, ldc)
                                },
                                #[cfg(target_arch = "x86_64")]
                                // SAFETY: as for `mk_fma`.
                                Simd::Avx => unsafe {
                                    mk_avx(pa.as_ptr(), pb.as_ptr(), kc, ctile, ldc)
                                },
                                _ => mk_portable(pa, pb, kc, ctile, ldc),
                            }
                        } else {
                            edge_tile(kern, pa, pb, kc, ctile, ldc, (mr, nr));
                        }
                    }
                }
                ic += mc;
            }
            pc += kc;
        }
        jc += nc;
    }
}

/// Pack `A[ic.., pc..]` (`mc×kc`) into `MR`-row micro-panels laid out
/// `[row_block][p][r]`, zero-padding the ragged final block so the full
/// microkernel never reads out of bounds.
fn pack_a(a: MatRef, ap: &mut [f32], ic: usize, pc: usize, mc: usize, kc: usize) {
    for ib in 0..mc.div_ceil(MR) {
        let dst = &mut ap[ib * kc * MR..][..kc * MR];
        let i0 = ic + ib * MR;
        let rows = MR.min(mc - ib * MR);
        for p in 0..kc {
            let tile = &mut dst[p * MR..(p + 1) * MR];
            for (r, slot) in tile[..rows].iter_mut().enumerate() {
                *slot = a.at(i0 + r, pc + p);
            }
            tile[rows..].fill(0.0);
        }
    }
}

/// Pack `B[pc.., jc..]` (`kc×nc`) into `NR`-column micro-panels laid out
/// `[col_block][p][lane]`, zero-padding ragged lanes. Row-major `B`
/// copies whole lane runs; a transposed `B` is gathered lane by lane,
/// which reads each source row contiguously.
fn pack_b(b: MatRef, bp: &mut [f32], pc: usize, jc: usize, kc: usize, nc: usize) {
    for jb in 0..nc.div_ceil(NR) {
        let dst = &mut bp[jb * kc * NR..][..kc * NR];
        let j0 = jc + jb * NR;
        let cols = NR.min(nc - jb * NR);
        if b.cs == 1 {
            for p in 0..kc {
                dst[p * NR..p * NR + cols].copy_from_slice(&b.data[(pc + p) * b.rs + j0..][..cols]);
            }
        } else {
            for l in 0..cols {
                for p in 0..kc {
                    dst[p * NR + l] = b.at(pc + p, j0 + l);
                }
            }
        }
        for p in 0..kc {
            dst[p * NR + cols..(p + 1) * NR].fill(0.0);
        }
    }
}

/// Ragged `mr×nr` edge tile: the valid corner of `C` is copied into a
/// zero-padded `MR×NR` scratch tile, the tier's *unfused* full kernel
/// runs on it, and the corner is copied back. The dead rows and lanes
/// only ever meet the packs' zero padding and are discarded.
///
/// Edge tiles must not take the fused kernel: a product with `m < MR`
/// (a few-channel conv lowered to GEMM) is then all edge tiles and
/// rounds exactly like the scalar paths it has to agree with.
fn edge_tile(
    kern: Simd,
    pa: &[f32],
    pb: &[f32],
    kc: usize,
    c: *mut f32,
    ldc: usize,
    (mr, nr): (usize, usize),
) {
    let mut tile = [0.0f32; MR * NR];
    for (r, row) in tile.chunks_exact_mut(NR).take(mr).enumerate() {
        // SAFETY: r < mr and nr lanes keep the read inside the valid
        // corner of the C tile.
        row[..nr].copy_from_slice(unsafe { std::slice::from_raw_parts(c.add(r * ldc), nr) });
    }
    let t = tile.as_mut_ptr();
    match kern {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX detected at runtime (both AVX tiers have it); the
        // scratch tile is a full MR×NR tile with row stride NR.
        Simd::Fma | Simd::Avx => unsafe { mk_avx(pa.as_ptr(), pb.as_ptr(), kc, t, NR) },
        _ => mk_portable(pa, pb, kc, t, NR),
    }
    for (r, row) in tile.chunks_exact(NR).take(mr).enumerate() {
        // SAFETY: as above.
        unsafe { std::slice::from_raw_parts_mut(c.add(r * ldc), nr) }.copy_from_slice(&row[..nr]);
    }
}

/// AVX+FMA full-tile microkernel: `MR×NR` tile of `C` held in twelve
/// 8-lane registers, one fused multiply-add pair per packed `A` scalar.
///
/// # Safety
/// Requires AVX and FMA (checked by [`simd`]); `pa`/`pb` must hold
/// `kc·MR` / `kc·NR` packed elements and `c` an `MR×NR` tile with row
/// stride `ldc`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,fma")]
unsafe fn mk_fma(pa: *const f32, pb: *const f32, kc: usize, c: *mut f32, ldc: usize) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm256_setzero_ps(); 2]; MR];
    for (r, row) in acc.iter_mut().enumerate() {
        row[0] = _mm256_loadu_ps(c.add(r * ldc));
        row[1] = _mm256_loadu_ps(c.add(r * ldc + 8));
    }
    for p in 0..kc {
        let b0 = _mm256_loadu_ps(pb.add(p * NR));
        let b1 = _mm256_loadu_ps(pb.add(p * NR + 8));
        for (r, row) in acc.iter_mut().enumerate() {
            let a = _mm256_broadcast_ss(&*pa.add(p * MR + r));
            row[0] = _mm256_fmadd_ps(a, b0, row[0]);
            row[1] = _mm256_fmadd_ps(a, b1, row[1]);
        }
    }
    for (r, row) in acc.iter().enumerate() {
        _mm256_storeu_ps(c.add(r * ldc), row[0]);
        _mm256_storeu_ps(c.add(r * ldc + 8), row[1]);
    }
}

/// AVX full-tile microkernel without FMA: separate multiply and add, so
/// its rounding matches the scalar oracle bit-for-bit.
///
/// # Safety
/// Requires AVX; same contracts as [`mk_fma`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn mk_avx(pa: *const f32, pb: *const f32, kc: usize, c: *mut f32, ldc: usize) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm256_setzero_ps(); 2]; MR];
    for (r, row) in acc.iter_mut().enumerate() {
        row[0] = _mm256_loadu_ps(c.add(r * ldc));
        row[1] = _mm256_loadu_ps(c.add(r * ldc + 8));
    }
    for p in 0..kc {
        let b0 = _mm256_loadu_ps(pb.add(p * NR));
        let b1 = _mm256_loadu_ps(pb.add(p * NR + 8));
        for (r, row) in acc.iter_mut().enumerate() {
            let a = _mm256_broadcast_ss(&*pa.add(p * MR + r));
            row[0] = _mm256_add_ps(row[0], _mm256_mul_ps(a, b0));
            row[1] = _mm256_add_ps(row[1], _mm256_mul_ps(a, b1));
        }
    }
    for (r, row) in acc.iter().enumerate() {
        _mm256_storeu_ps(c.add(r * ldc), row[0]);
        _mm256_storeu_ps(c.add(r * ldc + 8), row[1]);
    }
}

/// Portable full-tile microkernel: the tile is processed in two 8-lane
/// halves so the live accumulators fit the 16 SSE registers, and the
/// plain mul+add loops autovectorize on any target.
fn mk_portable(pa: &[f32], pb: &[f32], kc: usize, c: *mut f32, ldc: usize) {
    const H: usize = NR / 2;
    for half in 0..2 {
        let off = half * H;
        let mut acc = [[0.0f32; H]; MR];
        for (r, row) in acc.iter_mut().enumerate() {
            for (l, v) in row.iter_mut().enumerate() {
                // SAFETY: full-tile call — all MR×NR elements in bounds.
                *v = unsafe { *c.add(r * ldc + off + l) };
            }
        }
        for p in 0..kc {
            let bv = &pb[p * NR + off..p * NR + off + H];
            let av = &pa[p * MR..(p + 1) * MR];
            for (row, &a) in acc.iter_mut().zip(av) {
                for (v, &bl) in row.iter_mut().zip(bv) {
                    *v += a * bl;
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (l, &v) in row.iter().enumerate() {
                // SAFETY: as above.
                unsafe { *c.add(r * ldc + off + l) = v };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{with_device, Device};
    use rand::SeedableRng;

    #[test]
    fn small_known_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let a = Tensor::rand_uniform(&[5, 5], -1.0, 1.0, &mut rng);
        assert!(a.matmul(&Tensor::eye(5)).allclose(&a, 1e-6));
        assert!(Tensor::eye(5).matmul(&a).allclose(&a, 1e-6));
    }

    #[test]
    fn rectangular_matches_naive() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let a = Tensor::rand_uniform(&[7, 13], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[13, 5], -1.0, 1.0, &mut rng);
        assert!(a.matmul(&b).allclose(&matmul_naive(&a, &b), 1e-4));
    }

    #[test]
    fn packed_path_matches_naive_past_block_edges() {
        // Big enough to leave the tiny path and cross MR/NR/MC/KC edges.
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        for &(m, k, n) in &[(MC + 3, KC + 5, NR + 1), (64, 64, 64), (MR, 1, NR)] {
            let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
            let b = Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng);
            assert!(
                a.matmul(&b).allclose(&matmul_naive(&a, &b), 1e-3),
                "mismatch at m={m} k={k} n={n}"
            );
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(19);
        let a = Tensor::rand_uniform(&[64, 32], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[32, 48], -1.0, 1.0, &mut rng);
        let serial = a.matmul(&b);
        let parallel = with_device(Device::Parallel(4), || a.matmul(&b));
        assert!(serial.allclose(&parallel, 1e-5));
    }

    #[test]
    fn parallel_band_split_is_bit_identical() {
        // Large enough to cross GEMM_PARALLEL_FLOPS: band splitting must
        // not change any element's accumulation order.
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let a = Tensor::rand_uniform(&[160, 130], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[130, 96], -1.0, 1.0, &mut rng);
        let serial = a.matmul(&b);
        let parallel = with_device(Device::Parallel(4), || a.matmul(&b));
        assert_eq!(serial.as_slice(), parallel.as_slice());
    }

    #[test]
    #[should_panic(expected = "inner dims differ")]
    fn mismatched_dims_panic() {
        Tensor::zeros(&[2, 3]).matmul(&Tensor::zeros(&[4, 2]));
    }

    #[test]
    fn dot_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]);
        assert_eq!(a.dot(&b), 32.0);
    }

    #[test]
    fn degenerate_shapes() {
        let a = Tensor::zeros(&[0, 4]);
        let b = Tensor::zeros(&[4, 3]);
        assert_eq!(a.matmul(&b).shape(), &[0, 3]);
        let c = Tensor::ones(&[1, 1]).matmul(&Tensor::full(&[1, 1], 2.0));
        assert_eq!(c.item(), 2.0);
    }

    #[test]
    fn simd_tier_is_detected_once() {
        assert_eq!(simd(), simd());
        assert!(!simd_kernel_name().is_empty());
    }
}
