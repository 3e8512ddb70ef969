//! Multi-threaded GEMM: row-partitioned matrix multiply over the shared
//! persistent pool. The DLRM trainer's MLP phases use this to keep the
//! dense side from distorting the embedding-phase measurements on
//! multi-core hosts (the paper's CPU baseline is similarly multi-threaded
//! MKL).
//!
//! Prior to `tcast-pool`, every call paid OS-thread spawn/join through
//! `std::thread::scope`; all entry points now dispatch onto long-lived
//! workers and perform zero thread spawns per invocation.

use crate::error::ShapeError;
use crate::matrix::Matrix;
use tcast_pool::Pool;

/// `lhs * rhs` with the output rows partitioned across `threads` tasks on
/// the process-wide [`tcast_pool::global`] pool. Exact same result as
/// [`Matrix::matmul`] (identical per-row inner kernel, disjoint output
/// bands).
///
/// # Errors
///
/// Returns a [`ShapeError`] unless `lhs.cols() == rhs.rows()`.
pub fn matmul_parallel(lhs: &Matrix, rhs: &Matrix, threads: usize) -> Result<Matrix, ShapeError> {
    matmul_parallel_in(tcast_pool::global(), lhs, rhs, threads)
}

/// [`matmul_parallel`] on an explicit pool.
///
/// # Errors
///
/// Returns a [`ShapeError`] unless `lhs.cols() == rhs.rows()`.
pub fn matmul_parallel_in(
    pool: &Pool,
    lhs: &Matrix,
    rhs: &Matrix,
    threads: usize,
) -> Result<Matrix, ShapeError> {
    if lhs.cols() != rhs.rows() {
        return Err(ShapeError::new("matmul_parallel", lhs.shape(), rhs.shape()));
    }
    let mut out = Matrix::zeros(lhs.rows(), rhs.cols());
    matmul_pooled_unchecked(pool, lhs, rhs, &mut out, threads);
    Ok(out)
}

/// Pooled matmul writing into a pre-shaped output (shapes already
/// validated by the caller). `out` must be `lhs.rows() x rhs.cols()` and
/// zeroed.
pub(crate) fn matmul_pooled_unchecked(
    pool: &Pool,
    lhs: &Matrix,
    rhs: &Matrix,
    out: &mut Matrix,
    threads: usize,
) {
    let (m, k, n) = (lhs.rows(), lhs.cols(), rhs.cols());
    let threads = threads.max(1).min(m.max(1));
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let lhs_data = lhs.as_slice();
    let rhs_data = rhs.as_slice();
    let buf = out.as_mut_slice();
    // Every band runs the serial kernel, `simd::gemm`, on its own rows.
    // Each output element accumulates in ascending `k` whatever rows
    // surround it, so pooled results are bit-identical to the serial
    // matmul on every tier (resolved once here, shared by all bands).
    let kernel = crate::simd::dispatch();
    if threads <= 1 {
        crate::simd::gemm(kernel, lhs_data, rhs_data, buf, m, k, n);
        return;
    }
    let rows_per = m.div_ceil(threads);
    pool.scope(|scope| {
        let mut rest = buf;
        for t in 0..threads {
            let lo = t * rows_per;
            let hi = ((t + 1) * rows_per).min(m);
            if lo >= hi {
                break;
            }
            let (band, tail) = rest.split_at_mut((hi - lo) * n);
            rest = tail;
            let lhs_band = &lhs_data[lo * k..hi * k];
            scope.spawn(move || crate::simd::gemm(kernel, lhs_band, rhs_data, band, hi - lo, k, n));
        }
    });
}

/// The shared `a * b^T` per-band kernel: one [`crate::simd::dot`] per
/// output element. Both [`Matrix::matmul_bt_into`] (full band) and the
/// pooled row-partitioned path run exactly this loop, so serial and
/// pooled results are bit-identical by construction — on every kernel
/// tier, since the tier is resolved once and shared by all bands.
pub(crate) fn bt_band_kernel(a_band: &[f32], b_data: &[f32], band: &mut [f32], k: usize, n: usize) {
    crate::simd::dot_band(crate::simd::dispatch(), a_band, b_data, band, k, n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::SplitMix64;

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = SplitMix64::new(seed);
        let mut m = Matrix::zeros(rows, cols);
        for v in m.as_mut_slice() {
            *v = rng.next_range(-1.0, 1.0);
        }
        m
    }

    #[test]
    fn matches_serial_matmul() {
        let a = random_matrix(37, 23, 1);
        let b = random_matrix(23, 41, 2);
        let serial = a.matmul(&b).unwrap();
        for threads in [1, 2, 4, 9] {
            let par = matmul_parallel(&a, &b, threads).unwrap();
            assert!(
                serial.max_abs_diff(&par).unwrap() < 1e-5,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn bit_identical_to_serial() {
        // Same accumulation order per output element => exact equality,
        // not tolerance equality.
        let a = random_matrix(29, 17, 5);
        let b = random_matrix(17, 31, 6);
        let serial = a.matmul(&b).unwrap();
        for threads in [2, 3, 8] {
            let par = matmul_parallel(&a, &b, threads).unwrap();
            assert_eq!(serial.as_slice(), par.as_slice(), "threads={threads}");
        }
    }

    #[test]
    fn explicit_pool_matches_global() {
        let pool = Pool::new(3);
        let a = random_matrix(12, 9, 7);
        let b = random_matrix(9, 14, 8);
        let via_pool = matmul_parallel_in(&pool, &a, &b, 3).unwrap();
        let via_global = matmul_parallel(&a, &b, 3).unwrap();
        assert_eq!(via_pool.as_slice(), via_global.as_slice());
    }

    #[test]
    fn more_threads_than_rows_is_fine() {
        let a = random_matrix(3, 8, 3);
        let b = random_matrix(8, 5, 4);
        let par = matmul_parallel(&a, &b, 64).unwrap();
        assert!(a.matmul(&b).unwrap().max_abs_diff(&par).unwrap() < 1e-6);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        assert!(matmul_parallel(&a, &b, 2).is_err());
    }

    #[test]
    fn empty_operands() {
        let a = Matrix::zeros(0, 4);
        let b = Matrix::zeros(4, 4);
        let out = matmul_parallel(&a, &b, 4).unwrap();
        assert_eq!(out.shape(), (0, 4));
    }

    #[test]
    fn identity_passthrough() {
        let a = random_matrix(16, 16, 7);
        let id = Matrix::identity(16);
        let par = matmul_parallel(&a, &id, 3).unwrap();
        assert!(a.max_abs_diff(&par).unwrap() < 1e-6);
    }
}
