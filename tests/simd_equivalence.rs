//! SIMD-tier equivalence suite: every kernel tier must be *bit-identical*
//! to the scalar oracle (performance invariant 9), except the opt-in FMA
//! tier, which contracts `a*b + c` and is therefore only tolerance-gated.
//!
//! The proptests drive the explicit-dispatch entry points
//! ([`Matrix::matmul_into_with`], `tensor::simd::{add_assign, axpy, dot}`,
//! `embedding::simd::*_row`) so they stay independent of the process-wide
//! [`simd::force`] override; the single end-to-end test owns `force()`
//! and walks a full `Trainer` trajectory per tier.

use proptest::prelude::*;
use tensor_casting::core::{casted_gather_reduce, tensor_casting};
use tensor_casting::datasets::SyntheticCtr;
use tensor_casting::dlrm::{checkpoint::save_checkpoint, BackwardMode, DlrmConfig, Trainer};
use tensor_casting::embedding::{
    gather_reduce_into,
    optim::{Adagrad, Adam},
    scatter_apply, simd as opt_simd, EmbeddingTable, IndexArray,
};
use tensor_casting::tensor::{simd, Exec, KernelDispatch, Matrix, SplitMix64};

/// Fills a buffer with mostly-normal values plus the adversarial cases —
/// NaN, `-0.0`, and denormals — that a bit-identity claim must survive.
fn fill_special(rng: &mut SplitMix64, out: &mut [f32]) {
    for v in out.iter_mut() {
        *v = match rng.next_below(16) {
            0 => f32::NAN,
            1 => -0.0,
            2 => 1.0e-40,
            3 => -1.0e-41,
            _ => rng.next_range(-2.0, 2.0),
        };
    }
}

fn special_matrix(rows: usize, cols: usize, rng: &mut SplitMix64) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    fill_special(rng, m.as_mut_slice());
    m
}

fn special_vec(n: usize, rng: &mut SplitMix64) -> Vec<f32> {
    let mut v = vec![0.0f32; n];
    fill_special(rng, &mut v);
    v
}

/// Index of the first element whose bit pattern differs, if any.
fn first_bit_mismatch(a: &[f32], b: &[f32]) -> Option<(usize, f32, f32)> {
    a.iter()
        .zip(b.iter())
        .position(|(x, y)| x.to_bits() != y.to_bits())
        .map(|i| (i, a[i], b[i]))
}

/// FMA-tier comparison: contraction changes rounding, not semantics, so
/// NaNs must still align and finite values must agree to a loose bound.
fn fma_close(a: f32, b: f32) -> bool {
    if a.is_nan() || b.is_nan() {
        return a.is_nan() && b.is_nan();
    }
    (a - b).abs() <= 1e-3 + 1e-4 * a.abs().max(b.abs())
}

fn first_fma_mismatch(a: &[f32], b: &[f32]) -> Option<(usize, f32, f32)> {
    a.iter()
        .zip(b.iter())
        .position(|(x, y)| !fma_close(*x, *y))
        .map(|i| (i, a[i], b[i]))
}

fn non_scalar_tiers() -> Vec<KernelDispatch> {
    KernelDispatch::available()
        .into_iter()
        .filter(|&d| d != KernelDispatch::Scalar)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All three GEMM entry points across ragged shapes: the AVX2 tier is
    /// bit-identical to scalar; FMA stays within contraction tolerance.
    #[test]
    fn gemm_tiers_match_scalar(
        m in 1usize..67,
        k in 1usize..67,
        n in 1usize..67,
        seed in any::<u64>(),
    ) {
        let mut rng = SplitMix64::new(seed);
        let a = special_matrix(m, k, &mut rng);
        let b = special_matrix(k, n, &mut rng);
        let at_lhs = special_matrix(k, m, &mut rng); // at_lhs^T * b_at: m x n
        let b_at = special_matrix(k, n, &mut rng);
        let bt_rhs = special_matrix(n, k, &mut rng); // a * bt_rhs^T: m x n

        let mut want = Matrix::zeros(m, n);
        let mut want_at = Matrix::zeros(m, n);
        let mut want_bt = Matrix::zeros(m, n);
        a.matmul_into_with(&b, &mut want, KernelDispatch::Scalar).unwrap();
        at_lhs.matmul_at_into_with(&b_at, &mut want_at, KernelDispatch::Scalar).unwrap();
        a.matmul_bt_into_with(&bt_rhs, &mut want_bt, KernelDispatch::Scalar).unwrap();

        let mut got = Matrix::zeros(m, n);
        for tier in non_scalar_tiers() {
            for (name, want, run) in [
                ("matmul", &want, 0usize),
                ("matmul_at", &want_at, 1),
                ("matmul_bt", &want_bt, 2),
            ] {
                match run {
                    0 => a.matmul_into_with(&b, &mut got, tier).unwrap(),
                    1 => at_lhs.matmul_at_into_with(&b_at, &mut got, tier).unwrap(),
                    _ => a.matmul_bt_into_with(&bt_rhs, &mut got, tier).unwrap(),
                }
                if tier == KernelDispatch::Fma {
                    let bad = first_fma_mismatch(want.as_slice(), got.as_slice());
                    prop_assert!(
                        bad.is_none(),
                        "{name} fma vs scalar diverged at {bad:?} (m={m} k={k} n={n})"
                    );
                } else {
                    let bad = first_bit_mismatch(want.as_slice(), got.as_slice());
                    prop_assert!(
                        bad.is_none(),
                        "{name} {} vs scalar bit mismatch at {bad:?} (m={m} k={k} n={n})",
                        tier.name()
                    );
                }
            }
        }
    }

    /// The gather/axpy vector kernels: `add_assign` has no contracted
    /// form, so it is bit-identical on *every* tier (FMA included);
    /// `axpy` and `dot` are bit-gated on AVX2 and tolerance-gated on FMA.
    #[test]
    fn vector_kernels_match_scalar(n in 1usize..67, seed in any::<u64>(), alpha in -2.0f32..2.0) {
        let mut rng = SplitMix64::new(seed);
        let acc0 = special_vec(n, &mut rng);
        let src = special_vec(n, &mut rng);

        let mut want_add = acc0.clone();
        simd::add_assign(KernelDispatch::Scalar, &mut want_add, &src);
        let mut want_axpy = acc0.clone();
        simd::axpy(KernelDispatch::Scalar, &mut want_axpy, &src, alpha);
        let want_dot = simd::dot(KernelDispatch::Scalar, &acc0, &src);

        for tier in non_scalar_tiers() {
            let mut add = acc0.clone();
            simd::add_assign(tier, &mut add, &src);
            let bad = first_bit_mismatch(&want_add, &add);
            prop_assert!(bad.is_none(), "add_assign {} mismatch at {bad:?} (n={n})", tier.name());

            let mut axpy = acc0.clone();
            simd::axpy(tier, &mut axpy, &src, alpha);
            let dot = simd::dot(tier, &acc0, &src);
            if tier == KernelDispatch::Fma {
                let bad = first_fma_mismatch(&want_axpy, &axpy);
                prop_assert!(bad.is_none(), "axpy fma diverged at {bad:?} (n={n})");
                prop_assert!(fma_close(want_dot, dot), "dot fma {want_dot} vs {dot} (n={n})");
            } else {
                let bad = first_bit_mismatch(&want_axpy, &axpy);
                prop_assert!(bad.is_none(), "axpy {} mismatch at {bad:?} (n={n})", tier.name());
                prop_assert!(
                    want_dot.to_bits() == dot.to_bits(),
                    "dot {} {want_dot} vs {dot} (n={n})",
                    tier.name()
                );
            }
        }
    }

    /// Per-row optimizer updates run the non-contracted path on every
    /// tier, so params *and* state are bit-identical across all of them.
    #[test]
    fn optimizer_rows_match_scalar(n in 1usize..67, seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let param0 = special_vec(n, &mut rng);
        let grad = special_vec(n, &mut rng);
        let state0 = special_vec(n, &mut rng);
        let adam = opt_simd::AdamRow {
            lr: 0.01,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            bc1: 1.0 - 0.9f32.powi(3),
            bc2: 1.0 - 0.999f32.powi(3),
        };

        // (label, updater over (tier, state_a, state_b, param)).
        type Step = fn(KernelDispatch, &mut [f32], &mut [f32], &mut [f32], &[f32], opt_simd::AdamRow);
        let steps: [(&str, Step); 5] = [
            ("sgd", |d, _a, _b, p, g, _h| opt_simd::sgd_row(d, 0.05, p, g)),
            ("momentum", |d, a, _b, p, g, _h| opt_simd::momentum_row(d, 0.05, 0.9, a, p, g)),
            ("adagrad", |d, a, _b, p, g, _h| opt_simd::adagrad_row(d, 0.05, 1e-8, a, p, g)),
            ("rmsprop", |d, a, _b, p, g, _h| opt_simd::rmsprop_row(d, 0.05, 0.95, 1e-8, a, p, g)),
            ("adam", |d, a, b, p, g, h| opt_simd::adam_row(d, h, a, b, p, g)),
        ];

        for (label, step) in steps {
            let mut wp = param0.clone();
            let mut wa = state0.clone();
            let mut wb = state0.clone();
            step(KernelDispatch::Scalar, &mut wa, &mut wb, &mut wp, &grad, adam);
            for tier in non_scalar_tiers() {
                let mut p = param0.clone();
                let mut a = state0.clone();
                let mut b = state0.clone();
                step(tier, &mut a, &mut b, &mut p, &grad, adam);
                for (what, want, got) in [("param", &wp, &p), ("state1", &wa, &a), ("state2", &wb, &b)] {
                    let bad = first_bit_mismatch(want, got);
                    prop_assert!(
                        bad.is_none(),
                        "{label} {} {what} mismatch at {bad:?} (n={n})",
                        tier.name()
                    );
                }
            }
        }
    }
}

/// The one test that owns the process-wide [`simd::force`] override: the
/// full gather → casted-reduce → scatter operator chain and a complete
/// `Trainer` trajectory (per-step losses + final checkpoint bytes) must
/// be bit-identical on every non-FMA tier; the FMA trajectory must stay
/// finite and close.
#[test]
fn forced_dispatch_is_trajectory_bit_identical() {
    let mut rng = SplitMix64::new(97);
    let table = EmbeddingTable::seeded(300, 37, 5); // ragged dim: tails run
    let samples: Vec<Vec<u32>> = (0..64)
        .map(|_| (0..5).map(|_| rng.next_below(300) as u32).collect())
        .collect();
    let index = IndexArray::from_samples(&samples).unwrap();
    let casted = tensor_casting(&index);
    let mut grads = Matrix::zeros(64, 37);
    fill_special(&mut rng, grads.as_mut_slice());

    let config = DlrmConfig::tiny();
    let run_operators = |tier: KernelDispatch| {
        simd::force(Some(tier));
        let mut pooled = Matrix::zeros(64, 37);
        gather_reduce_into(&table, &index, &mut pooled, Exec::Serial).unwrap();
        let coalesced = casted_gather_reduce(&grads, &casted).unwrap();
        let mut ada_table = table.clone();
        let mut adam_table = table.clone();
        scatter_apply(&mut ada_table, &coalesced, &mut Adagrad::new(0.05, 1e-8)).unwrap();
        scatter_apply(
            &mut adam_table,
            &coalesced,
            &mut Adam::new(0.01, 0.9, 0.999, 1e-8),
        )
        .unwrap();
        simd::force(None);
        (pooled, coalesced, ada_table, adam_table)
    };
    let run_trainer = |tier: KernelDispatch| {
        simd::force(Some(tier));
        let mut trainer = Trainer::new(config.clone(), BackwardMode::Casted, 11).unwrap();
        let mut stream = SyntheticCtr::new(config.table_workloads(), config.dense_features, 13);
        let losses: Vec<u32> = (0..6)
            .map(|_| trainer.step(&stream.next_batch(32)).unwrap().loss.to_bits())
            .collect();
        let mut bytes = Vec::new();
        save_checkpoint(&mut bytes, trainer.model()).unwrap();
        simd::force(None);
        (losses, bytes)
    };

    let (pooled_s, coalesced_s, ada_s, adam_s) = run_operators(KernelDispatch::Scalar);
    let (losses_s, bytes_s) = run_trainer(KernelDispatch::Scalar);
    assert!(losses_s.iter().all(|&b| f32::from_bits(b).is_finite()));

    for tier in non_scalar_tiers() {
        let (pooled, coalesced, ada, adam) = run_operators(tier);
        // The operator chain never contracts, so even FMA is bit-gated.
        assert!(
            first_bit_mismatch(pooled_s.as_slice(), pooled.as_slice()).is_none(),
            "{}: gather_reduce diverged from scalar",
            tier.name()
        );
        assert!(
            first_bit_mismatch(coalesced_s.grads().as_slice(), coalesced.grads().as_slice())
                .is_none(),
            "{}: casted_gather_reduce diverged from scalar",
            tier.name()
        );
        // Bit comparison, not max_abs_diff: NaN gradients flow into the
        // tables and NaN != NaN would mask an identical-bits result.
        assert!(
            first_bit_mismatch(ada_s.as_slice(), ada.as_slice()).is_none(),
            "{}: adagrad scatter diverged from scalar",
            tier.name()
        );
        assert!(
            first_bit_mismatch(adam_s.as_slice(), adam.as_slice()).is_none(),
            "{}: adam scatter diverged from scalar",
            tier.name()
        );

        let (losses, bytes) = run_trainer(tier);
        if tier == KernelDispatch::Fma {
            for (i, (&ws, &gs)) in losses_s.iter().zip(losses.iter()).enumerate() {
                let (w, g) = (f32::from_bits(ws), f32::from_bits(gs));
                assert!(g.is_finite(), "fma: loss {i} not finite");
                assert!((w - g).abs() < 5e-2, "fma: step {i} loss {w} vs {g}");
            }
        } else {
            assert_eq!(
                losses_s,
                losses,
                "{}: loss trajectory diverged",
                tier.name()
            );
            assert_eq!(
                bytes_s,
                bytes,
                "{}: final model weights diverged",
                tier.name()
            );
        }
    }
}

/// Runs `matmul`, `matmul_at` and `matmul_bt` on `tier` and checks each
/// against the scalar oracle: bit for bit on the non-FMA tiers, within
/// contraction tolerance on FMA.
fn check_gemm_family(
    tier: KernelDispatch,
    a: &Matrix,
    b: &Matrix,
    at_lhs: &Matrix,
    bt_rhs: &Matrix,
) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let run = |op: &str, d: KernelDispatch, out: &mut Matrix| match op {
        "matmul" => a.matmul_into_with(b, out, d).unwrap(),
        "matmul_at" => at_lhs.matmul_at_into_with(b, out, d).unwrap(),
        _ => a.matmul_bt_into_with(bt_rhs, out, d).unwrap(),
    };
    let (mut want, mut got) = (Matrix::default(), Matrix::default());
    for name in ["matmul", "matmul_at", "matmul_bt"] {
        run(name, KernelDispatch::Scalar, &mut want);
        run(name, tier, &mut got);
        let bad = if tier == KernelDispatch::Fma {
            first_fma_mismatch(want.as_slice(), got.as_slice())
        } else {
            first_bit_mismatch(want.as_slice(), got.as_slice())
        };
        assert!(
            bad.is_none(),
            "{name} {} vs scalar mismatch at {bad:?} (m={m} k={k} n={n})",
            tier.name()
        );
    }
}

/// `special_matrix` with every NaN replaced by a finite value. Past a few
/// dozen reduction steps almost every output of a NaN-bearing product is
/// NaN, so long reductions also run NaN-free to keep `-0.0`, denormals and
/// rounding visible in the compared bits.
fn finite_special_matrix(rows: usize, cols: usize, rng: &mut SplitMix64) -> Matrix {
    let mut m = special_matrix(rows, cols, rng);
    for v in m.as_mut_slice() {
        if v.is_nan() {
            *v = 0.75;
        }
    }
    m
}

/// A deterministic sweep across the register-tile edges the random
/// proptest can miss: row counts around the 4- and 8-row tiles, column
/// counts around the 8-lane vector and 16-wide tile, and reduction
/// lengths around the 8-lane dot stride. A 4096-step `matmul_at` crosses
/// every reduction panel.
#[test]
fn gemm_tile_boundaries_match_scalar() {
    let mut rng = SplitMix64::new(0x711e);
    for &m in &[1usize, 3, 4, 5, 6, 7, 12, 13] {
        for &n in &[1usize, 7, 8, 15, 16, 17, 32, 33, 64] {
            for &k in &[1usize, 7, 8, 9, 13, 64, 65] {
                for fill in [special_matrix, finite_special_matrix] {
                    let a = fill(m, k, &mut rng);
                    let b = fill(k, n, &mut rng);
                    let at_lhs = fill(k, m, &mut rng);
                    let bt_rhs = fill(n, k, &mut rng);
                    for tier in non_scalar_tiers() {
                        check_gemm_family(tier, &a, &b, &at_lhs, &bt_rhs);
                    }
                }
            }
        }
    }
    for &(m, n) in &[(13usize, 64usize), (32, 1), (64, 33), (5, 3)] {
        for fill in [special_matrix, finite_special_matrix] {
            let at_lhs = fill(4096, m, &mut rng);
            let b = fill(4096, n, &mut rng);
            let mut want = Matrix::default();
            at_lhs
                .matmul_at_into_with(&b, &mut want, KernelDispatch::Scalar)
                .unwrap();
            for tier in non_scalar_tiers() {
                let mut got = Matrix::default();
                at_lhs.matmul_at_into_with(&b, &mut got, tier).unwrap();
                let bad = if tier == KernelDispatch::Fma {
                    first_fma_mismatch(want.as_slice(), got.as_slice())
                } else {
                    first_bit_mismatch(want.as_slice(), got.as_slice())
                };
                assert!(
                    bad.is_none(),
                    "matmul_at {} k=4096 m={m} n={n} mismatch at {bad:?}",
                    tier.name()
                );
            }
        }
    }
}
