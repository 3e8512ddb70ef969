//! Runtime-dispatched SIMD kernels: x86-64 AVX2 (`std::arch`) with a
//! portable scalar fallback.
//!
//! ROADMAP's "as fast as the hardware allows" requires explicit SIMD, but
//! the repository's entire correctness story rests on bit-identity
//! invariants (pooled == serial, sharded == unsharded, fused-batch ==
//! per-query, resume == uninterrupted). The kernels here are therefore
//! designed so that vectorization *cannot* change results:
//!
//! * The scalar kernels are the specification. Every SIMD kernel gives
//!   each output element exactly the scalar operations in the scalar
//!   order; vectors only run several *independent* outputs side by side.
//! * The vector kernels (`add_assign`, `axpy`, the optimizer rows)
//!   vectorize across the `j`/`dim` lane axis.
//! * The GEMM family runs register tiles. `gemm` and `gemm_at` hold a
//!   `4 x 16` block of `C` (or `8 x 8`, or one wider row block) in ymm
//!   accumulators across a whole reduction panel; each accumulator starts
//!   from `C` and adds `a * b` in ascending `k`, the scalar row-axpy order.
//!   `matmul_bt`'s `dot_band` computes a `4 x 2` block of dots at once,
//!   each keeping the scalar dot's eight striped partials, its fold and
//!   its in-order tail.
//! * The non-FMA tier ([`KernelDispatch::Avx2`]) uses only individually
//!   correctly-rounded operations (`vmulps`/`vaddps`/`vsubps`/`vdivps`/
//!   `vsqrtps` match their scalar counterparts per IEEE-754), so it is
//!   **bit-identical** to [`KernelDispatch::Scalar`] — including on NaN,
//!   `-0.0` and denormal inputs (Rust performs no FP contraction and x86
//!   runs with FTZ/DAZ off by default).
//! * The [`KernelDispatch::Fma`] tier runs the same tile code with
//!   `vfmaddps` as its mul-add (one rounding instead of two). It is
//!   *tolerance-gated*, never auto-selected, and opt-in via
//!   `TCAST_KERNEL=fma`.
//!
//! The active tier is resolved once per process from the `TCAST_KERNEL`
//! environment variable (`scalar` | `avx2` | `fma` | `auto`, default
//! `auto` = AVX2 where `is_x86_feature_detected!` reports it, scalar
//! otherwise) and cached; tests and benches can override it in-process
//! with [`force`] or per call through the explicit-dispatch entry points.
//! On non-x86-64 targets every tier falls back to the scalar kernels, so
//! forcing `avx2` on such a host is safe (and a no-op).
//!
//! The dot-product kernels reduce eight partial accumulators with the
//! AVX2 horizontal-add tree (`(s0+s2) + (s1+s3)` over `s_l = acc_l +
//! acc_{l+4}`); the scalar kernel performs the identical fold, which is
//! what makes `matmul_bt` bit-identical across tiers despite being a
//! reduction.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Block edge (in elements) of the scalar oracle's cache-blocked GEMM.
///
/// 64x64 f32 tiles are 16 KiB per operand tile, comfortably inside L1/L2
/// on any machine this runs on. The x86 tiers tile differently (register
/// tiles over deeper reduction panels); blocking never changes a result
/// because every tier accumulates each output element in ascending `k`.
pub const GEMM_BLOCK: usize = 64;

/// Environment variable selecting the kernel tier (`scalar` | `avx2` |
/// `fma` | `auto`).
pub const KERNEL_ENV: &str = "TCAST_KERNEL";

/// Which kernel implementation the hot loops run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelDispatch {
    /// Portable scalar loops — the bit-exact oracle for `Avx2` and the
    /// tolerance oracle for `Fma`.
    Scalar,
    /// AVX2 without FMA contraction: bit-identical to `Scalar`.
    Avx2,
    /// AVX2 + FMA contraction in GEMM/dot/axpy: faster, tolerance-gated,
    /// never auto-selected.
    Fma,
}

impl KernelDispatch {
    /// The best *bit-identical* tier this host supports (`Avx2` where
    /// available, else `Scalar`). `Fma` is never auto-selected.
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return KernelDispatch::Avx2;
        }
        KernelDispatch::Scalar
    }

    /// Parses a `TCAST_KERNEL` value. `auto` (and the empty string)
    /// resolve through [`KernelDispatch::detect`].
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelDispatch::Scalar),
            "avx2" => Some(KernelDispatch::Avx2),
            "fma" => Some(KernelDispatch::Fma),
            "auto" | "" => Some(KernelDispatch::detect()),
            _ => None,
        }
    }

    /// Whether this host can actually run the tier. Scalar always can;
    /// the SIMD tiers require the matching CPU features (queried at
    /// runtime, cached by `std`).
    pub fn supported(self) -> bool {
        match self {
            KernelDispatch::Scalar => true,
            KernelDispatch::Avx2 => avx2_ok(),
            KernelDispatch::Fma => fma_ok(),
        }
    }

    /// Every tier this host supports, scalar first — the bench sweep
    /// axis.
    pub fn available() -> Vec<Self> {
        let mut tiers = vec![KernelDispatch::Scalar];
        if KernelDispatch::Avx2.supported() {
            tiers.push(KernelDispatch::Avx2);
        }
        if KernelDispatch::Fma.supported() {
            tiers.push(KernelDispatch::Fma);
        }
        tiers
    }

    /// Stable lowercase name (the `dispatch` field of bench JSON rows).
    pub fn name(self) -> &'static str {
        match self {
            KernelDispatch::Scalar => "scalar",
            KernelDispatch::Avx2 => "avx2",
            KernelDispatch::Fma => "fma",
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn avx2_ok() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn fma_ok() -> bool {
    avx2_ok() && std::arch::is_x86_feature_detected!("fma")
}

#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
fn avx2_ok() -> bool {
    false
}

#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
fn fma_ok() -> bool {
    false
}

/// In-process override installed by [`force`]: 0 = none, else tier + 1.
static FORCED: AtomicU8 = AtomicU8::new(0);
/// The once-per-process `TCAST_KERNEL` resolution.
static RESOLVED: OnceLock<KernelDispatch> = OnceLock::new();

/// The process-wide kernel tier every implicit-dispatch entry point
/// (`Matrix::matmul_into`, `gather_reduce_into`, the optimizer steps)
/// runs: the [`force`] override if one is installed, otherwise the cached
/// `TCAST_KERNEL` resolution.
#[inline]
pub fn dispatch() -> KernelDispatch {
    match FORCED.load(Ordering::Relaxed) {
        1 => KernelDispatch::Scalar,
        2 => KernelDispatch::Avx2,
        3 => KernelDispatch::Fma,
        _ => *RESOLVED.get_or_init(resolve_from_env),
    }
}

/// Installs (or with `None` removes) a process-wide dispatch override,
/// taking precedence over `TCAST_KERNEL`. For tests and benches that
/// compare tiers in one process; unsupported tiers still fall back to
/// scalar inside each kernel, so forcing `Avx2` on a non-AVX2 host is
/// safe.
pub fn force(d: Option<KernelDispatch>) {
    let code = match d {
        None => 0,
        Some(KernelDispatch::Scalar) => 1,
        Some(KernelDispatch::Avx2) => 2,
        Some(KernelDispatch::Fma) => 3,
    };
    FORCED.store(code, Ordering::Relaxed);
}

fn resolve_from_env() -> KernelDispatch {
    match std::env::var(KERNEL_ENV) {
        Ok(v) => match KernelDispatch::parse(&v) {
            Some(d) if d.supported() => d,
            Some(d) => {
                eprintln!(
                    "{KERNEL_ENV}={} not supported on this host; falling back to {}",
                    d.name(),
                    KernelDispatch::detect().name()
                );
                KernelDispatch::detect()
            }
            None => {
                eprintln!(
                    "{KERNEL_ENV}={v:?} not recognized (expected scalar|avx2|fma|auto); \
                     falling back to {}",
                    KernelDispatch::detect().name()
                );
                KernelDispatch::detect()
            }
        },
        Err(_) => KernelDispatch::detect(),
    }
}

/// Hints the prefetcher to pull `row` (up to 512 bytes of it) into L1.
///
/// Used ahead of the next gather row so the accumulate of the current row
/// overlaps the memory latency of the next — the software-prefetch half
/// of the paper's "gathers are bandwidth-bound" observation. No-op on
/// non-x86-64 targets; `prefetcht0` requires no feature detection on
/// x86-64 and never faults.
#[inline(always)]
pub fn prefetch(row: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let base = row.as_ptr() as *const i8;
        let bytes = (row.len() * 4).min(512);
        let mut off = 0;
        while off < bytes {
            // SAFETY: prefetch is a hint; it never faults, even on
            // addresses past the slice end.
            unsafe { _mm_prefetch(base.wrapping_add(off), _MM_HINT_T0) };
            off += 64;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = row;
}

// ---------------------------------------------------------------------------
// Scalar kernels: the oracle tier.
// ---------------------------------------------------------------------------

#[inline(always)]
fn add_assign_scalar(acc: &mut [f32], src: &[f32]) {
    for (a, &v) in acc.iter_mut().zip(src.iter()) {
        *a += v;
    }
}

#[inline(always)]
fn axpy_scalar(acc: &mut [f32], src: &[f32], alpha: f32) {
    for (a, &v) in acc.iter_mut().zip(src.iter()) {
        *a += alpha * v;
    }
}

/// Scalar dot with eight partial accumulators folded in the exact AVX2
/// horizontal-reduce order, so [`dot`] is bit-identical across tiers.
#[inline(always)]
fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; 8];
    let chunks = a.len() / 8;
    for i in 0..chunks {
        let ai = &a[i * 8..i * 8 + 8];
        let bi = &b[i * 8..i * 8 + 8];
        for l in 0..8 {
            acc[l] += ai[l] * bi[l];
        }
    }
    // The vextractf128/vmovhlps/vshufps fold: lanes l and l+4 first, then
    // (s0+s2) + (s1+s3).
    let s0 = acc[0] + acc[4];
    let s1 = acc[1] + acc[5];
    let s2 = acc[2] + acc[6];
    let s3 = acc[3] + acc[7];
    let mut sum = (s0 + s2) + (s1 + s3);
    for i in chunks * 8..a.len() {
        sum += a[i] * b[i];
    }
    sum
}

/// The scalar oracle's cache-blocked GEMM: each output element
/// accumulates its products in ascending `kk`, block after block.
///
/// Note there is deliberately *no* `aik == 0.0` skip: skipping defeats
/// vectorization, and because every accumulator starts at `+0.0` and
/// round-to-nearest never produces `-0.0` from a sum of non-`-0.0`
/// addends, adding the `aik * b` products of a zero `aik` is bit-identical
/// to skipping them for all finite inputs (and for NaN/Inf inputs the
/// no-skip form is the IEEE-propagating one every tier now shares).
fn gemm_scalar(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for i0 in (0..m).step_by(GEMM_BLOCK) {
        let i1 = (i0 + GEMM_BLOCK).min(m);
        for k0 in (0..k).step_by(GEMM_BLOCK) {
            let k1 = (k0 + GEMM_BLOCK).min(k);
            for j0 in (0..n).step_by(GEMM_BLOCK) {
                let j1 = (j0 + GEMM_BLOCK).min(n);
                for i in i0..i1 {
                    let c_row = &mut c[i * n..(i + 1) * n];
                    for kk in k0..k1 {
                        let aik = a[i * k + kk];
                        let b_row = &b[kk * n..(kk + 1) * n];
                        axpy_scalar(&mut c_row[j0..j1], &b_row[j0..j1], aik);
                    }
                }
            }
        }
    }
}

/// The scalar `A^T * B`: `r` outermost so both operands stream
/// sequentially; one row-axpy per `(r, i)`, so each output element
/// accumulates in ascending `r`.
fn gemm_at_scalar(a: &[f32], b: &[f32], c: &mut [f32], k: usize, m: usize, n: usize) {
    for r in 0..k {
        let a_row = &a[r * m..(r + 1) * m];
        let b_row = &b[r * n..(r + 1) * n];
        for (i, &av) in a_row.iter().enumerate() {
            axpy_scalar(&mut c[i * n..(i + 1) * n], b_row, av);
        }
    }
}

/// The scalar `A * B^T` band: one [`dot_scalar`] per output element.
fn dot_band_scalar(a_band: &[f32], b_data: &[f32], band: &mut [f32], k: usize, n: usize) {
    let rows = a_band.len() / k.max(1);
    for i in 0..rows {
        let a_row = &a_band[i * k..(i + 1) * k];
        let o = &mut band[i * n..(i + 1) * n];
        for (j, oj) in o.iter_mut().enumerate() {
            *oj = dot_scalar(a_row, &b_data[j * k..(j + 1) * k]);
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2 / FMA kernels.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    #[target_feature(enable = "avx2")]
    #[inline]
    pub fn add_assign(acc: &mut [f32], src: &[f32]) {
        let n = acc.len().min(src.len());
        let mut j = 0;
        while j + 8 <= n {
            // SAFETY: j + 8 <= n bounds both 8-lane loads and the store.
            unsafe {
                let a = _mm256_loadu_ps(acc.as_ptr().add(j));
                let s = _mm256_loadu_ps(src.as_ptr().add(j));
                _mm256_storeu_ps(acc.as_mut_ptr().add(j), _mm256_add_ps(a, s));
            }
            j += 8;
        }
        while j < n {
            acc[j] += src[j];
            j += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    pub fn axpy(acc: &mut [f32], src: &[f32], alpha: f32) {
        let n = acc.len().min(src.len());
        let va = _mm256_set1_ps(alpha);
        let mut j = 0;
        while j + 8 <= n {
            // SAFETY: j + 8 <= n bounds both 8-lane loads and the store.
            unsafe {
                let a = _mm256_loadu_ps(acc.as_ptr().add(j));
                let s = _mm256_loadu_ps(src.as_ptr().add(j));
                // mul then add (no contraction): matches the scalar
                // `acc += alpha * src` bit for bit per lane.
                _mm256_storeu_ps(
                    acc.as_mut_ptr().add(j),
                    _mm256_add_ps(a, _mm256_mul_ps(va, s)),
                );
            }
            j += 8;
        }
        while j < n {
            acc[j] += alpha * src[j];
            j += 1;
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    pub fn axpy_fma(acc: &mut [f32], src: &[f32], alpha: f32) {
        let n = acc.len().min(src.len());
        let va = _mm256_set1_ps(alpha);
        let mut j = 0;
        while j + 8 <= n {
            // SAFETY: j + 8 <= n bounds both 8-lane loads and the store.
            unsafe {
                let a = _mm256_loadu_ps(acc.as_ptr().add(j));
                let s = _mm256_loadu_ps(src.as_ptr().add(j));
                _mm256_storeu_ps(acc.as_mut_ptr().add(j), _mm256_fmadd_ps(va, s, a));
            }
            j += 8;
        }
        while j < n {
            acc[j] = alpha.mul_add(src[j], acc[j]);
            j += 1;
        }
    }

    /// The horizontal fold matched bit-for-bit by the scalar oracle.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn hreduce(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let q = _mm_add_ps(lo, hi); // [s0, s1, s2, s3]
        let h = _mm_add_ps(q, _mm_movehl_ps(q, q)); // [s0+s2, s1+s3, ..]
        let r = _mm_add_ss(h, _mm_shuffle_ps(h, h, 1)); // (s0+s2)+(s1+s3)
        _mm_cvtss_f32(r)
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let mut vacc = _mm256_setzero_ps();
        let mut j = 0;
        while j + 8 <= n {
            // SAFETY: j + 8 <= n bounds both 8-lane loads.
            unsafe {
                let av = _mm256_loadu_ps(a.as_ptr().add(j));
                let bv = _mm256_loadu_ps(b.as_ptr().add(j));
                vacc = _mm256_add_ps(vacc, _mm256_mul_ps(av, bv));
            }
            j += 8;
        }
        let mut sum = hreduce(vacc);
        while j < n {
            sum += a[j] * b[j];
            j += 1;
        }
        sum
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    pub fn dot_fma(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len().min(b.len());
        let mut vacc = _mm256_setzero_ps();
        let mut j = 0;
        while j + 8 <= n {
            // SAFETY: j + 8 <= n bounds both 8-lane loads.
            unsafe {
                let av = _mm256_loadu_ps(a.as_ptr().add(j));
                let bv = _mm256_loadu_ps(b.as_ptr().add(j));
                vacc = _mm256_fmadd_ps(av, bv, vacc);
            }
            j += 8;
        }
        let mut sum = hreduce(vacc);
        while j < n {
            sum = a[j].mul_add(b[j], sum);
            j += 1;
        }
        sum
    }

    // -----------------------------------------------------------------
    // Register-tiled GEMM family.
    //
    // One tile body serves both tiers: `FMA` selects the mul-add op, so
    // `Avx2` and `Fma` share every loop and differ only in `madd`.
    //
    // Every `unsafe fn` below has the same contract: the CPU supports
    // AVX2 (and FMA when `FMA` is set), and every element its pointer
    // arguments address for the given shape lies inside the caller's
    // slices. The safe `#[target_feature]` entry points at the end of
    // this section assert the slice lengths that establish it.
    // -----------------------------------------------------------------

    /// Rows per full register tile: `MR x 16` outputs live in `2 * MR`
    /// ymm accumulators for a whole reduction panel.
    const MR: usize = 4;

    /// Reduction steps per panel. A tile loads its `C` block, accumulates
    /// one panel of `kk` in registers and stores it back, so the operand
    /// slices a panel touches stay cache-resident while `gemm_at` streams
    /// a 4096-row batch: 128 rows of a 64-wide `B` are 32 KiB, which with
    /// the `A` slice of one row block fits a 48 KiB L1 (measured faster
    /// than 256 on the 64→64 weight gradient). A store and reload is
    /// exact, so panelling never changes a result.
    const KC: usize = 128;

    /// `acc + a * b`: a separate `vmulps` and `vaddps` (each correctly
    /// rounded, so bit-identical to the scalar `acc += a * b`) or, for
    /// the `Fma` tier, one contracted `vfmaddps`.
    ///
    /// # Safety
    ///
    /// The section contract above.
    #[inline(always)]
    unsafe fn madd<const FMA: bool>(acc: __m256, a: __m256, b: __m256) -> __m256 {
        if FMA {
            _mm256_fmadd_ps(a, b, acc)
        } else {
            _mm256_add_ps(acc, _mm256_mul_ps(a, b))
        }
    }

    /// The scalar twin of [`madd`] for reduction tails.
    #[inline(always)]
    fn madd_scalar<const FMA: bool>(acc: f32, a: f32, b: f32) -> f32 {
        if FMA {
            a.mul_add(b, acc)
        } else {
            acc + a * b
        }
    }

    /// Lane mask selecting the first `lanes` (1..=8) of a vector.
    ///
    /// # Safety
    ///
    /// The section contract above.
    #[inline(always)]
    unsafe fn lane_mask(lanes: usize) -> __m256i {
        _mm256_cmpgt_epi32(
            _mm256_set1_epi32(lanes as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        )
    }

    /// A strided view of one GEMM: `C(i, j) += sum_kk A(i, kk) * B(kk, j)`
    /// with `A(i, kk) = a[i*a_row + kk*a_step]` (broadcast per row),
    /// `B(kk, j) = b[kk*b_step + j]` (contiguous in `j`, loaded as
    /// vectors) and `C(i, j) = c[i*c_row + j*c_lane]`. Row-major `A * B`,
    /// `A^T * B` and `(A^T * B)^T` are all this shape with different
    /// strides.
    #[derive(Clone, Copy)]
    struct Strided {
        a: *const f32,
        a_row: usize,
        a_step: usize,
        b: *const f32,
        b_step: usize,
        c: *mut f32,
        c_row: usize,
        c_lane: usize,
    }

    /// Loads the first `lanes` outputs (selected by `mask`) starting at
    /// `p`, `stride` apart; the other lanes read as zero.
    ///
    /// # Safety
    ///
    /// The section contract above.
    #[inline(always)]
    unsafe fn load_c(p: *const f32, stride: usize, lanes: usize, mask: __m256i) -> __m256 {
        if stride == 1 {
            return if lanes == 8 {
                _mm256_loadu_ps(p)
            } else {
                _mm256_maskload_ps(p, mask)
            };
        }
        let mut t = [0.0f32; 8];
        for (l, v) in t.iter_mut().enumerate().take(lanes) {
            *v = *p.add(l * stride);
        }
        _mm256_loadu_ps(t.as_ptr())
    }

    /// Stores the first `lanes` lanes of `v` (selected by `mask`) at `p`,
    /// `stride` apart.
    ///
    /// # Safety
    ///
    /// The section contract above.
    #[inline(always)]
    unsafe fn store_c(p: *mut f32, stride: usize, lanes: usize, mask: __m256i, v: __m256) {
        if stride == 1 {
            if lanes == 8 {
                _mm256_storeu_ps(p, v);
            } else {
                _mm256_maskstore_ps(p, mask, v);
            }
            return;
        }
        let mut t = [0.0f32; 8];
        _mm256_storeu_ps(t.as_mut_ptr(), v);
        for (l, &x) in t.iter().enumerate().take(lanes) {
            *p.add(l * stride) = x;
        }
    }

    /// One `R x 8*NV` tile at output `(i, j)` over `kc` reduction steps.
    /// The last vector column holds `last` (1..=8) live lanes; with
    /// `MASK` its `B` loads are masked so no lane past `n` is read.
    ///
    /// Each accumulator starts from `C` and adds `A(i, kk) * B(kk, j)` in
    /// ascending `kk` — the scalar row-axpy order for every element.
    ///
    /// # Safety
    ///
    /// The section contract above.
    #[inline(always)]
    unsafe fn tile<const R: usize, const NV: usize, const MASK: bool, const FMA: bool>(
        g: Strided,
        i: usize,
        j: usize,
        kc: usize,
        last: usize,
    ) {
        let lanes = |v: usize| if v + 1 == NV { last } else { 8 };
        let mask = lane_mask(last);
        let a = g.a.add(i * g.a_row);
        let b = g.b.add(j);
        let c = g.c.add(i * g.c_row + j * g.c_lane);
        let mut acc = [[_mm256_setzero_ps(); NV]; R];
        for (r, row) in acc.iter_mut().enumerate() {
            for (v, x) in row.iter_mut().enumerate() {
                *x = load_c(
                    c.add(r * g.c_row + 8 * v * g.c_lane),
                    g.c_lane,
                    lanes(v),
                    mask,
                );
            }
        }
        for kk in 0..kc {
            let bp = b.add(kk * g.b_step);
            let mut bv = [_mm256_setzero_ps(); NV];
            for (v, x) in bv.iter_mut().enumerate() {
                *x = if MASK && v + 1 == NV {
                    _mm256_maskload_ps(bp.add(8 * v), mask)
                } else {
                    _mm256_loadu_ps(bp.add(8 * v))
                };
            }
            let ap = a.add(kk * g.a_step);
            for (r, row) in acc.iter_mut().enumerate() {
                let av = _mm256_set1_ps(*ap.add(r * g.a_row));
                for (x, &bx) in row.iter_mut().zip(bv.iter()) {
                    *x = madd::<FMA>(*x, av, bx);
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (v, &x) in row.iter().enumerate() {
                store_c(
                    c.add(r * g.c_row + 8 * v * g.c_lane),
                    g.c_lane,
                    lanes(v),
                    mask,
                    x,
                );
            }
        }
    }

    /// Every tile of the `R` rows starting at `i`: `8 * NV`-wide tiles,
    /// then 16-wide ones, then one masked tile for the ragged right edge.
    ///
    /// # Safety
    ///
    /// The section contract above.
    #[inline(always)]
    unsafe fn tile_row<const R: usize, const NV: usize, const FMA: bool>(
        g: Strided,
        i: usize,
        n: usize,
        kc: usize,
    ) {
        let mut j = 0;
        while j + 8 * NV <= n {
            tile::<R, NV, false, FMA>(g, i, j, kc, 8);
            j += 8 * NV;
        }
        while j + 16 <= n {
            tile::<R, 2, false, FMA>(g, i, j, kc, 8);
            j += 16;
        }
        match n - j {
            0 => {}
            rem @ 1..=8 => tile::<R, 1, true, FMA>(g, i, j, kc, rem),
            rem => tile::<R, 2, true, FMA>(g, i, j, kc, rem - 8),
        }
    }

    /// `C += A * B` over `m x n` outputs and `k` reduction steps, one
    /// `KC`-deep panel at a time.
    ///
    /// # Safety
    ///
    /// The section contract above.
    #[inline(always)]
    unsafe fn tiled<const FMA: bool>(g: Strided, m: usize, n: usize, k: usize) {
        for k0 in (0..k).step_by(KC) {
            let kc = KC.min(k - k0);
            let p = Strided {
                a: g.a.add(k0 * g.a_step),
                b: g.b.add(k0 * g.b_step),
                ..g
            };
            let mut i = 0;
            // A single vector column of outputs takes eight rows per tile
            // so it still has eight independent accumulators.
            while n <= 8 && i + 2 * MR <= m {
                tile_row::<{ 2 * MR }, 1, FMA>(p, i, n, kc);
                i += 2 * MR;
            }
            while i + MR <= m {
                tile_row::<MR, 2, FMA>(p, i, n, kc);
                i += MR;
            }
            // The leftover rows form one wider tile of about eight
            // accumulators, so a short batch stays throughput-bound
            // instead of add-latency-bound and streams `B` only once.
            match m - i {
                1 => tile_row::<1, 8, FMA>(p, i, n, kc),
                2 => tile_row::<2, 4, FMA>(p, i, n, kc),
                3 => tile_row::<3, 3, FMA>(p, i, n, kc),
                _ => {}
            }
        }
    }

    /// Row-major `C += A * B` (`a`: `m x k`, `b`: `k x n`).
    ///
    /// # Safety
    ///
    /// The section contract above.
    #[inline(always)]
    unsafe fn gemm_tiled<const FMA: bool>(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        let g = Strided {
            a: a.as_ptr(),
            a_row: k,
            a_step: 1,
            b: b.as_ptr(),
            b_step: n,
            c: c.as_mut_ptr(),
            c_row: n,
            c_lane: 1,
        };
        tiled::<FMA>(g, m, n, k);
    }

    /// `C += A^T * B` (`a`: `k x m`, `b`: `k x n`). Outputs are vectorized
    /// along `j`, or — when `C` is narrower than a vector and taller than
    /// one — along `i` by tiling `C^T += B^T * A`, so the 32→1 weight
    /// gradient runs as a few vector columns instead of `k * m` one-lane
    /// axpys.
    ///
    /// # Safety
    ///
    /// The section contract above.
    #[inline(always)]
    unsafe fn gemm_at_tiled<const FMA: bool>(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        k: usize,
        m: usize,
        n: usize,
    ) {
        let (a, b, c) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
        if n < 8 && m >= 8 {
            let g = Strided {
                a: b,
                a_row: 1,
                a_step: n,
                b: a,
                b_step: m,
                c,
                c_row: 1,
                c_lane: n,
            };
            tiled::<FMA>(g, n, m, k);
        } else {
            let g = Strided {
                a,
                a_row: 1,
                a_step: m,
                b,
                b_step: n,
                c,
                c_row: n,
                c_lane: 1,
            };
            tiled::<FMA>(g, m, n, k);
        }
    }

    /// Folds eight vectors at once, each in [`hreduce`]'s exact order:
    /// lane halves, then `(s0+s2) + (s1+s3)`. Returns the sums in input
    /// order.
    ///
    /// # Safety
    ///
    /// The section contract above.
    #[inline(always)]
    unsafe fn hreduce8(v: [__m256; 8]) -> [f32; 8] {
        // [q_p | q_{p+1}] with q = lo + hi (hreduce's first add).
        let pair = |x: __m256, y: __m256| {
            _mm256_add_ps(
                _mm256_permute2f128_ps::<0x20>(x, y),
                _mm256_permute2f128_ps::<0x31>(x, y),
            )
        };
        let w01 = pair(v[0], v[1]);
        let w23 = pair(v[2], v[3]);
        let w45 = pair(v[4], v[5]);
        let w67 = pair(v[6], v[7]);
        // [q0+q2, q1+q3] per q (hreduce's movehl add).
        let half = |x: __m256, y: __m256| {
            _mm256_add_ps(
                _mm256_shuffle_ps::<0x44>(x, y),
                _mm256_shuffle_ps::<0xEE>(x, y),
            )
        };
        let x = half(w01, w23);
        let y = half(w45, w67);
        // h0 + h1 (hreduce's final add_ss): lanes [r0 r2 r4 r6 | r1 r3 r5 r7].
        let z = _mm256_add_ps(
            _mm256_shuffle_ps::<0x88>(x, y),
            _mm256_shuffle_ps::<0xDD>(x, y),
        );
        let mut t = [0.0f32; 8];
        _mm256_storeu_ps(t.as_mut_ptr(), z);
        [t[0], t[4], t[1], t[5], t[2], t[6], t[3], t[7]]
    }

    /// An `R x C` block of dots (`R * C <= 8`) for `A * B^T`: each dot
    /// keeps [`dot`]'s 8-lane striped partials, the [`hreduce`] fold and
    /// the in-order scalar tail; the block only shares operand loads and
    /// folds its partials together.
    ///
    /// # Safety
    ///
    /// The section contract above.
    #[inline(always)]
    unsafe fn dot_tile<const R: usize, const C: usize, const FMA: bool>(
        a: *const f32,
        b: *const f32,
        out: *mut f32,
        k: usize,
        n: usize,
    ) {
        const { assert!(R * C <= 8, "hreduce8 folds at most eight dots") };
        let chunks = k / 8;
        let mut acc = [[_mm256_setzero_ps(); C]; R];
        for ch in 0..chunks {
            let mut bv = [_mm256_setzero_ps(); C];
            for (c, x) in bv.iter_mut().enumerate() {
                *x = _mm256_loadu_ps(b.add(c * k + ch * 8));
            }
            for (r, row) in acc.iter_mut().enumerate() {
                let av = _mm256_loadu_ps(a.add(r * k + ch * 8));
                for (x, &bx) in row.iter_mut().zip(bv.iter()) {
                    *x = madd::<FMA>(*x, av, bx);
                }
            }
        }
        let mut parts = [_mm256_setzero_ps(); 8];
        for (r, row) in acc.iter().enumerate() {
            parts[r * C..(r + 1) * C].copy_from_slice(row);
        }
        let sums = hreduce8(parts);
        for r in 0..R {
            for c in 0..C {
                let (ar, bc) = (a.add(r * k), b.add(c * k));
                let mut s = sums[r * C + c];
                for t in chunks * 8..k {
                    s = madd_scalar::<FMA>(s, *ar.add(t), *bc.add(t));
                }
                *out.add(r * n + c) = s;
            }
        }
    }

    /// The dot blocks of the `R` rows starting at `a`: pairs of `B` rows,
    /// then the odd one out.
    ///
    /// # Safety
    ///
    /// The section contract above.
    #[inline(always)]
    unsafe fn dot_row<const R: usize, const FMA: bool>(
        a: *const f32,
        b: *const f32,
        out: *mut f32,
        k: usize,
        n: usize,
    ) {
        let mut j = 0;
        while j + 2 <= n {
            dot_tile::<R, 2, FMA>(a, b.add(j * k), out.add(j), k, n);
            j += 2;
        }
        if j < n {
            dot_tile::<R, 1, FMA>(a, b.add(j * k), out.add(j), k, n);
        }
    }

    /// `band = A_band * B^T`, one dot per output element, in `MR x 2`
    /// dot blocks. Below eight reduction steps every dot is its scalar
    /// tail, `((0 + a0*b0) + a1*b1) + ...`, which is a GEMM from a zeroed
    /// band: `B^T` is packed 16 columns at a time on the stack and the
    /// band is tiled like [`gemm_tiled`].
    ///
    /// # Safety
    ///
    /// The section contract above.
    #[inline(always)]
    unsafe fn dot_band_tiled<const FMA: bool>(
        a_band: &[f32],
        b_data: &[f32],
        band: &mut [f32],
        k: usize,
        n: usize,
    ) {
        let rows = a_band.len() / k.max(1);
        let (a, b, out) = (a_band.as_ptr(), b_data.as_ptr(), band.as_mut_ptr());
        if k < 8 {
            band[..rows * n].fill(0.0);
            let mut bt = [0.0f32; 8 * 16];
            for j0 in (0..n).step_by(16) {
                let w = 16.min(n - j0);
                for t in 0..k {
                    for jj in 0..w {
                        bt[t * 16 + jj] = *b.add((j0 + jj) * k + t);
                    }
                }
                let g = Strided {
                    a,
                    a_row: k,
                    a_step: 1,
                    b: bt.as_ptr(),
                    b_step: 16,
                    c: out.add(j0),
                    c_row: n,
                    c_lane: 1,
                };
                tiled::<FMA>(g, rows, w, k);
            }
            return;
        }
        let mut i = 0;
        while i + MR <= rows {
            dot_row::<MR, FMA>(a.add(i * k), b, out.add(i * n), k, n);
            i += MR;
        }
        while i < rows {
            dot_row::<1, FMA>(a.add(i * k), b, out.add(i * n), k, n);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub fn gemm(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        assert!(a.len() >= m * k && b.len() >= k * n && c.len() >= m * n);
        // SAFETY: the assert bounds every tile access.
        unsafe { gemm_tiled::<false>(a, b, c, m, k, n) }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub fn gemm_fma(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        assert!(a.len() >= m * k && b.len() >= k * n && c.len() >= m * n);
        // SAFETY: the assert bounds every tile access.
        unsafe { gemm_tiled::<true>(a, b, c, m, k, n) }
    }

    #[target_feature(enable = "avx2")]
    pub fn gemm_at(a: &[f32], b: &[f32], c: &mut [f32], k: usize, m: usize, n: usize) {
        assert!(a.len() >= k * m && b.len() >= k * n && c.len() >= m * n);
        // SAFETY: the assert bounds every tile access.
        unsafe { gemm_at_tiled::<false>(a, b, c, k, m, n) }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub fn gemm_at_fma(a: &[f32], b: &[f32], c: &mut [f32], k: usize, m: usize, n: usize) {
        assert!(a.len() >= k * m && b.len() >= k * n && c.len() >= m * n);
        // SAFETY: the assert bounds every tile access.
        unsafe { gemm_at_tiled::<true>(a, b, c, k, m, n) }
    }

    #[target_feature(enable = "avx2")]
    pub fn dot_band(a_band: &[f32], b_data: &[f32], band: &mut [f32], k: usize, n: usize) {
        assert!(b_data.len() >= n * k && band.len() >= a_band.len() / k.max(1) * n);
        // SAFETY: the assert bounds every tile access.
        unsafe { dot_band_tiled::<false>(a_band, b_data, band, k, n) }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub fn dot_band_fma(a_band: &[f32], b_data: &[f32], band: &mut [f32], k: usize, n: usize) {
        assert!(b_data.len() >= n * k && band.len() >= a_band.len() / k.max(1) * n);
        // SAFETY: the assert bounds every tile access.
        unsafe { dot_band_tiled::<true>(a_band, b_data, band, k, n) }
    }
}

// ---------------------------------------------------------------------------
// Dispatching entry points.
//
// Each checks the requested tier against the host at runtime (the
// feature queries are cached atomics) and falls back to scalar when the
// tier is unavailable, so arbitrary `KernelDispatch` values are safe on
// any host.
// ---------------------------------------------------------------------------

/// `acc[j] += src[j]` — the gather-reduce accumulate. Bit-identical
/// across all tiers (pure lane-wise adds; FMA cannot apply).
#[inline]
pub fn add_assign(d: KernelDispatch, acc: &mut [f32], src: &[f32]) {
    debug_assert_eq!(acc.len(), src.len());
    #[cfg(target_arch = "x86_64")]
    if d != KernelDispatch::Scalar && avx2_ok() {
        // SAFETY: AVX2 support verified on the line above.
        unsafe { x86::add_assign(acc, src) };
        return;
    }
    let _ = d;
    add_assign_scalar(acc, src);
}

/// `acc[j] += alpha * src[j]`. `Avx2` is bit-identical to `Scalar`;
/// `Fma` contracts the multiply-add (tolerance tier).
#[inline]
pub fn axpy(d: KernelDispatch, acc: &mut [f32], src: &[f32], alpha: f32) {
    debug_assert_eq!(acc.len(), src.len());
    #[cfg(target_arch = "x86_64")]
    {
        if d == KernelDispatch::Fma && fma_ok() {
            // SAFETY: AVX2+FMA support verified on the line above.
            unsafe { x86::axpy_fma(acc, src, alpha) };
            return;
        }
        if d != KernelDispatch::Scalar && avx2_ok() {
            // SAFETY: AVX2 support verified on the line above.
            unsafe { x86::axpy(acc, src, alpha) };
            return;
        }
    }
    let _ = d;
    axpy_scalar(acc, src, alpha);
}

/// Dot product with the 8-accumulator AVX2 fold on every tier (see the
/// module docs); `Avx2` is bit-identical to `Scalar`.
#[inline]
pub fn dot(d: KernelDispatch, a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    {
        if d == KernelDispatch::Fma && fma_ok() {
            // SAFETY: AVX2+FMA support verified on the line above.
            return unsafe { x86::dot_fma(a, b) };
        }
        if d != KernelDispatch::Scalar && avx2_ok() {
            // SAFETY: AVX2 support verified on the line above.
            return unsafe { x86::dot(a, b) };
        }
    }
    let _ = d;
    dot_scalar(a, b)
}

/// `C += A * B` for row-major operands (`C` pre-zeroed): register tiles
/// on the x86 tiers, the cache-blocked oracle on scalar. Serial matmul
/// and every band of the pooled matmul run this one kernel.
pub fn gemm(d: KernelDispatch, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    #[cfg(target_arch = "x86_64")]
    {
        if d == KernelDispatch::Fma && fma_ok() {
            // SAFETY: AVX2+FMA support verified on the line above.
            unsafe { x86::gemm_fma(a, b, c, m, k, n) };
            return;
        }
        if d != KernelDispatch::Scalar && avx2_ok() {
            // SAFETY: AVX2 support verified on the line above.
            unsafe { x86::gemm(a, b, c, m, k, n) };
            return;
        }
    }
    let _ = d;
    gemm_scalar(a, b, c, m, k, n);
}

/// `C += A^T * B` where `a` is `k x m` row-major (`C` pre-zeroed): the
/// backprop weight gradient without materializing the transpose.
pub fn gemm_at(
    d: KernelDispatch,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    k: usize,
    m: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    #[cfg(target_arch = "x86_64")]
    {
        if d == KernelDispatch::Fma && fma_ok() {
            // SAFETY: AVX2+FMA support verified on the line above.
            unsafe { x86::gemm_at_fma(a, b, c, k, m, n) };
            return;
        }
        if d != KernelDispatch::Scalar && avx2_ok() {
            // SAFETY: AVX2 support verified on the line above.
            unsafe { x86::gemm_at(a, b, c, k, m, n) };
            return;
        }
    }
    let _ = d;
    gemm_at_scalar(a, b, c, k, m, n);
}

/// The `A_band * B^T` band kernel behind `matmul_bt`: every output
/// element is bit-identical to one [`dot`] of its rows.
pub fn dot_band(
    d: KernelDispatch,
    a_band: &[f32],
    b_data: &[f32],
    band: &mut [f32],
    k: usize,
    n: usize,
) {
    #[cfg(target_arch = "x86_64")]
    {
        if d == KernelDispatch::Fma && fma_ok() {
            // SAFETY: AVX2+FMA support verified on the line above.
            unsafe { x86::dot_band_fma(a_band, b_data, band, k, n) };
            return;
        }
        if d != KernelDispatch::Scalar && avx2_ok() {
            // SAFETY: AVX2 support verified on the line above.
            unsafe { x86::dot_band(a_band, b_data, band, k, n) };
            return;
        }
    }
    let _ = d;
    dot_band_scalar(a_band, b_data, band, k, n);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, scale: f32) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * scale).sin()).collect()
    }

    #[test]
    fn parse_accepts_all_tiers() {
        assert_eq!(
            KernelDispatch::parse("scalar"),
            Some(KernelDispatch::Scalar)
        );
        assert_eq!(KernelDispatch::parse("AVX2"), Some(KernelDispatch::Avx2));
        assert_eq!(KernelDispatch::parse(" fma "), Some(KernelDispatch::Fma));
        assert_eq!(
            KernelDispatch::parse("auto"),
            Some(KernelDispatch::detect())
        );
        assert_eq!(KernelDispatch::parse("neon"), None);
    }

    #[test]
    fn scalar_always_supported_and_first() {
        assert!(KernelDispatch::Scalar.supported());
        assert_eq!(KernelDispatch::available()[0], KernelDispatch::Scalar);
    }

    #[test]
    fn detect_never_returns_fma() {
        assert_ne!(KernelDispatch::detect(), KernelDispatch::Fma);
    }

    #[test]
    fn add_assign_bit_identical_across_tiers() {
        for n in [0, 1, 5, 8, 17, 64, 67] {
            let src = seq(n, 0.37);
            let base = seq(n, 0.61);
            let mut scalar = base.clone();
            add_assign(KernelDispatch::Scalar, &mut scalar, &src);
            for d in KernelDispatch::available() {
                let mut out = base.clone();
                add_assign(d, &mut out, &src);
                assert_eq!(
                    scalar.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "n={n} tier={}",
                    d.name()
                );
            }
        }
    }

    #[test]
    fn avx2_axpy_and_dot_bit_identical() {
        if !KernelDispatch::Avx2.supported() {
            return;
        }
        for n in [1, 7, 8, 9, 31, 64, 66] {
            let src = seq(n, 0.73);
            let base = seq(n, 0.11);
            let mut scalar = base.clone();
            let mut simd = base.clone();
            axpy(KernelDispatch::Scalar, &mut scalar, &src, -0.625);
            axpy(KernelDispatch::Avx2, &mut simd, &src, -0.625);
            assert_eq!(
                scalar.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                simd.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "axpy n={n}"
            );
            let ds = dot(KernelDispatch::Scalar, &base, &src);
            let dv = dot(KernelDispatch::Avx2, &base, &src);
            assert_eq!(ds.to_bits(), dv.to_bits(), "dot n={n}");
        }
    }

    #[test]
    fn fma_dot_within_tolerance() {
        if !KernelDispatch::Fma.supported() {
            return;
        }
        let a = seq(123, 0.41);
        let b = seq(123, 0.29);
        let ds = dot(KernelDispatch::Scalar, &a, &b) as f64;
        let df = dot(KernelDispatch::Fma, &a, &b) as f64;
        assert!((ds - df).abs() < 1e-4, "scalar {ds} vs fma {df}");
    }

    #[test]
    fn forcing_overrides_env_resolution() {
        let before = dispatch();
        force(Some(KernelDispatch::Scalar));
        assert_eq!(dispatch(), KernelDispatch::Scalar);
        force(None);
        assert_eq!(dispatch(), before);
    }

    #[test]
    fn prefetch_accepts_any_slice() {
        prefetch(&[]);
        prefetch(&[1.0; 3]);
        prefetch(&vec![0.5; 1024]);
    }
}
