//! Cross-crate functional-equivalence suite: the paper's central
//! correctness claim, checked across every layer of the stack — host
//! kernels, the casting pipeline, the NMP pool, and full DLRM training.

use proptest::prelude::*;
use tensor_casting::core::{
    casted_gather_reduce, tensor_casting, tensor_casting_counting, CastingPipeline,
};
use tensor_casting::datasets::{DatasetPreset, SyntheticCtr, TableWorkload};
use tensor_casting::dlrm::{BackwardMode, DlrmConfig, Trainer};
use tensor_casting::embedding::{
    gradient_expand_coalesce,
    optim::{Adagrad, Momentum, RmsProp, Sgd, SparseOptimizer},
    scatter_apply, EmbeddingTable, IndexArray,
};
use tensor_casting::nmp::{NmpPool, PoolConfig};
use tensor_casting::tensor::{Exec, Linear, Matrix, Pool, SplitMix64};

fn random_workload(seed: u64, batch: usize, pooling: usize, rows: u32) -> (IndexArray, Matrix) {
    let mut rng = SplitMix64::new(seed);
    let samples: Vec<Vec<u32>> = (0..batch)
        .map(|_| {
            (0..pooling)
                .map(|_| rng.next_below(rows as u64) as u32)
                .collect()
        })
        .collect();
    let index = IndexArray::from_samples(&samples).unwrap();
    let mut grads = Matrix::zeros(batch, 16);
    for v in grads.as_mut_slice() {
        *v = rng.next_range(-2.0, 2.0);
    }
    (index, grads)
}

#[test]
fn host_paths_agree_on_dataset_driven_workloads() {
    for preset in DatasetPreset::ALL {
        let workload = preset.table_workload(8).with_rows(10_000);
        let index = workload.generator(3).next_batch(256);
        let mut grads = Matrix::zeros(256, 32);
        for (i, v) in grads.as_mut_slice().iter_mut().enumerate() {
            *v = ((i * 31) % 17) as f32 - 8.0;
        }
        let baseline = gradient_expand_coalesce(&grads, &index).unwrap();
        let casted = casted_gather_reduce(&grads, &tensor_casting(&index)).unwrap();
        assert_eq!(baseline.rows(), casted.rows(), "{preset}");
        assert_eq!(
            baseline.grads().as_slice(),
            casted.grads().as_slice(),
            "{preset}: gradients must be bit-identical"
        );
    }
}

#[test]
fn counting_sort_casting_is_equivalent_end_to_end() {
    let (index, grads) = random_workload(11, 128, 6, 500);
    let a = casted_gather_reduce(&grads, &tensor_casting(&index)).unwrap();
    let b = casted_gather_reduce(&grads, &tensor_casting_counting(&index)).unwrap();
    assert_eq!(a.grads().as_slice(), b.grads().as_slice());
}

#[test]
fn pipeline_results_match_synchronous_casting() {
    let mut pipeline = CastingPipeline::new();
    let indices: Vec<IndexArray> = (0..4)
        .map(|i| random_workload(20 + i, 64, 4, 300).0)
        .collect();
    let ticket = pipeline.submit(indices.clone());
    let from_pipeline = pipeline.collect(ticket);
    let synchronous: Vec<_> = indices.iter().map(tensor_casting).collect();
    assert_eq!(from_pipeline, synchronous);
}

#[test]
fn nmp_pool_matches_host_for_the_whole_training_step() {
    let (index, grads) = random_workload(31, 64, 5, 400);
    let table = EmbeddingTable::seeded(400, 24, 9);

    // Host reference: baseline backward + SGD scatter.
    let mut host_table = table.clone();
    let coalesced = gradient_expand_coalesce(&grads_widened(&grads, 24), &index).unwrap();
    scatter_apply(&mut host_table, &coalesced, &mut Sgd::new(0.2)).unwrap();

    // Pool: casted backward + scatter from pool-resident gradients.
    let mut pool = NmpPool::new(PoolConfig::small(4));
    let handle = pool.load_table(&table).unwrap();
    let casted = tensor_casting(&index);
    let (pool_coalesced, _) = pool
        .casted_gather_reduce(handle, &grads_widened(&grads, 24), &casted)
        .unwrap();
    pool.scatter_sgd(handle, &pool_coalesced, 0.2, true)
        .unwrap();

    let back = pool.read_table(handle).unwrap();
    assert!(back.max_abs_diff(&host_table).unwrap() < 1e-5);
}

fn signed_matrix(rows: usize, cols: usize, rng: &mut SplitMix64) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for v in m.as_mut_slice() {
        *v = if rng.next_below(16) == 0 {
            -0.0
        } else {
            rng.next_range(-2.0, 2.0)
        };
    }
    m
}

/// A pooled `Linear` layer splits its GEMMs into row bands, one per task,
/// so band edges fall inside register tiles; forward output, `dx`, `dW`
/// and `db` must still match the serial layer bit for bit at every
/// thread count, on whatever kernel tier the process runs.
#[test]
fn pooled_linear_matches_serial_across_tile_edges() {
    let pool = Pool::new(3);
    let mut rng = SplitMix64::new(0xba4d);
    for &(batch, inp, out) in &[
        (8usize, 13usize, 64usize),
        (37, 64, 1),
        (13, 7, 17),
        (29, 33, 8),
    ] {
        let weight = signed_matrix(inp, out, &mut rng);
        let bias: Vec<f32> = (0..out).map(|_| rng.next_range(-1.0, 1.0)).collect();
        let x = signed_matrix(batch, inp, &mut rng);
        let dy = signed_matrix(batch, out, &mut rng);
        let run = |exec: Exec<'_>| {
            let mut layer = Linear::from_parameters(weight.clone(), bias.clone()).unwrap();
            let (mut y, mut dx) = (Matrix::default(), Matrix::default());
            layer.forward_into(&x, &mut y, exec).unwrap();
            layer.backward_into(&dy, &mut dx, exec).unwrap();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            (
                bits(y.as_slice()),
                bits(dx.as_slice()),
                bits(layer.grad_weight().unwrap().as_slice()),
                bits(layer.grad_bias().unwrap()),
            )
        };
        let serial = run(Exec::Serial);
        for threads in [1, 2, 3] {
            let pooled = run(Exec::Pooled {
                pool: &pool,
                threads,
            });
            assert!(
                serial == pooled,
                "batch {batch} {inp}->{out}: pooled at {threads} threads diverged from serial"
            );
        }
    }
}

fn grads_widened(grads: &Matrix, dim: usize) -> Matrix {
    let mut out = Matrix::zeros(grads.rows(), dim);
    for r in 0..grads.rows() {
        for c in 0..dim {
            out.row_mut(r)[c] = grads.row(r)[c % grads.cols()];
        }
    }
    out
}

#[test]
fn full_dlrm_training_trajectories_are_identical() {
    let config = DlrmConfig::tiny();
    let mut base = Trainer::new(config.clone(), BackwardMode::Baseline, 3).unwrap();
    let mut cast = Trainer::new(config.clone(), BackwardMode::Casted, 3).unwrap();
    let mut stream_a = SyntheticCtr::new(config.table_workloads(), config.dense_features, 8);
    let mut stream_b = SyntheticCtr::new(config.table_workloads(), config.dense_features, 8);
    for _ in 0..8 {
        let ra = base.step(&stream_a.next_batch(32)).unwrap();
        let rb = cast.step(&stream_b.next_batch(32)).unwrap();
        assert_eq!(ra.loss, rb.loss);
    }
    for i in 0..base.model().num_tables() {
        assert_eq!(
            base.model()
                .table(i)
                .max_abs_diff(cast.model().table(i))
                .unwrap(),
            0.0
        );
    }
}

#[test]
fn equivalence_holds_for_every_optimizer() {
    // Coalesced gradients are identical, so any optimizer sees identical
    // inputs — but verify the full scatter output for each anyway.
    let (index, _) = random_workload(77, 96, 4, 250);
    let grads = {
        let mut g = Matrix::zeros(96, 8);
        for (i, v) in g.as_mut_slice().iter_mut().enumerate() {
            *v = ((i % 13) as f32 - 6.0) * 0.1;
        }
        g
    };
    let opts: Vec<Box<dyn Fn() -> Box<dyn SparseOptimizer>>> = vec![
        Box::new(|| Box::new(Sgd::new(0.1))),
        Box::new(|| Box::new(Momentum::new(0.1, 0.9))),
        Box::new(|| Box::new(Adagrad::new(0.1, 1e-8))),
        Box::new(|| Box::new(RmsProp::new(0.1, 0.9, 1e-8))),
    ];
    for make_opt in &opts {
        let mut t1 = EmbeddingTable::seeded(250, 8, 1);
        let mut t2 = t1.clone();
        let baseline = gradient_expand_coalesce(&grads, &index).unwrap();
        let casted = casted_gather_reduce(&grads, &tensor_casting(&index)).unwrap();
        scatter_apply(&mut t1, &baseline, make_opt().as_mut()).unwrap();
        scatter_apply(&mut t2, &casted, make_opt().as_mut()).unwrap();
        assert_eq!(t1.max_abs_diff(&t2).unwrap(), 0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The paper's validation, as a workspace-level property: for any
    /// sample structure and gradient values, the casted backward equals
    /// the baseline backward exactly.
    #[test]
    fn casted_backward_is_always_equivalent(
        samples in proptest::collection::vec(
            proptest::collection::vec(0u32..128, 1..10),
            1..48,
        ),
        dim in 1usize..24,
    ) {
        let index = IndexArray::from_samples(&samples).unwrap();
        let mut grads = Matrix::zeros(samples.len(), dim);
        for (i, v) in grads.as_mut_slice().iter_mut().enumerate() {
            *v = (((i * 2654435761) % 2048) as f32 / 1024.0) - 1.0;
        }
        let baseline = gradient_expand_coalesce(&grads, &index).unwrap();
        let casted = casted_gather_reduce(&grads, &tensor_casting(&index)).unwrap();
        prop_assert_eq!(baseline.rows(), casted.rows());
        prop_assert_eq!(baseline.grads().as_slice(), casted.grads().as_slice());
    }

    /// Casting preserves the workload's aggregate structure: the casted
    /// array has one entry per lookup, gathers only valid gradient rows,
    /// and enumerates exactly the unique src ids.
    #[test]
    fn casting_structural_invariants(
        samples in proptest::collection::vec(
            proptest::collection::vec(0u32..64, 1..6),
            1..32,
        ),
    ) {
        let index = IndexArray::from_samples(&samples).unwrap();
        let casted = tensor_casting(&index);
        prop_assert_eq!(casted.len(), index.len());
        prop_assert_eq!(casted.num_gradient_rows(), index.num_outputs());
        prop_assert_eq!(casted.num_unique(), index.unique_src_count());
        prop_assert!(casted
            .gather_src()
            .iter()
            .all(|&s| (s as usize) < index.num_outputs()));
        // unique_rows is exactly the sorted distinct src set.
        let mut expect: Vec<u32> = index.src().to_vec();
        expect.sort_unstable();
        expect.dedup();
        prop_assert_eq!(casted.unique_rows(), &expect[..]);
    }

    /// A TableWorkload generator never emits out-of-range lookups and
    /// always produces a full batch (datasets x embedding contract).
    #[test]
    fn workload_generator_contract(
        rows in 1usize..5000,
        pooling in 1usize..8,
        batch in 1usize..64,
        seed in 0u64..1000,
    ) {
        let w = TableWorkload::new(
            tensor_casting::datasets::Popularity::Zipf { rows, exponent: 1.0 },
            pooling,
        );
        let idx = w.generator(seed).next_batch(batch);
        prop_assert_eq!(idx.len(), batch * pooling);
        prop_assert_eq!(idx.num_outputs(), batch);
        prop_assert!(idx.validate_against_rows(rows).is_ok());
    }
}
