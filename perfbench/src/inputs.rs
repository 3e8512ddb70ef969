//! Seeded inputs: the benchmark generates them, writes them to files in
//! the program's own formats, and the timed set-up loads them back through
//! the program's read paths.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use std::sync::Arc;

use tcast_datasets::trace::{read_trace, write_trace};
use tcast_datasets::{CdfSampler, Popularity, TraceReplaySource};
use tcast_dlrm::DlrmConfig;
use tcast_embedding::IndexArray;
use tcast_serve::Query;
use tcast_tensor::{Matrix, SplitMix64};

/// Derives an independent seed for one input stream from the run seed.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut rng = tcast_tensor::SplitMix64::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    rng.next_u64()
}

/// A recorded training trace: one file per table, `ring` batches each.
#[derive(Debug)]
pub struct TrainTrace {
    files: Vec<PathBuf>,
    /// Batches per pass of the trace.
    pub ring: usize,
    /// Embedding lookups per training step, all tables.
    pub lookups_per_step: usize,
    /// Mean distinct rows per step, all tables (`unique_src_count`).
    pub unique_rows_per_step: f64,
    /// Distinct rows touched by one pass of the trace, all tables.
    pub unique_rows_per_pass: usize,
}

impl TrainTrace {
    /// Generates `ring` batches of `batch` samples per table of `cfg` and
    /// writes them under `dir`.
    ///
    /// # Panics
    ///
    /// Panics if a file cannot be written.
    pub fn record(dir: &Path, cfg: &DlrmConfig, batch: usize, ring: usize, seed: u64) -> Self {
        let mut files = Vec::new();
        let mut lookups = 0usize;
        let mut unique = 0usize;
        let mut unique_pass = 0usize;
        for (t, workload) in cfg.table_workloads().into_iter().enumerate() {
            let mut generator = workload.generator(derive(seed, 100 + t as u64));
            let batches: Vec<IndexArray> = (0..ring).map(|_| generator.next_batch(batch)).collect();
            lookups += batches[0].len();
            unique += batches
                .iter()
                .map(IndexArray::unique_src_count)
                .sum::<usize>();
            let mut rows: Vec<u32> = batches
                .iter()
                .flat_map(|b| b.src().iter().copied())
                .collect();
            rows.sort_unstable();
            rows.dedup();
            unique_pass += rows.len();
            let path = dir.join(format!("table{t}.tctr"));
            let mut w = BufWriter::new(File::create(&path).expect("create trace file"));
            write_trace(&mut w, &batches).expect("write trace");
            w.flush().expect("flush trace");
            files.push(path);
        }
        Self {
            files,
            ring,
            lookups_per_step: lookups,
            unique_rows_per_step: unique as f64 / ring as f64,
            unique_rows_per_pass: unique_pass,
        }
    }

    /// Loads the trace through `read_trace` into an endless replay source.
    ///
    /// # Panics
    ///
    /// Panics if the files cannot be read back.
    pub fn open(&self, dense_features: usize, seed: u64) -> TraceReplaySource {
        let per_table = self
            .files
            .iter()
            .map(|p| read_trace(&mut BufReader::new(File::open(p).expect("open trace"))))
            .collect::<Result<Vec<_>, _>>()
            .expect("read trace");
        TraceReplaySource::new(per_table, dense_features, seed)
            .expect("consistent trace")
            .cycling()
    }
}

/// A catalog of distinct queries drawn through a Zipf popularity, so hot
/// queries repeat and hit the engine's casting cache.
///
/// Each table's lookup generator is built once and reseeded per query:
/// building a Zipf sampler costs a `powf` per table row, which per query
/// would dominate the run.
#[derive(Debug)]
pub struct Catalog {
    queries: Vec<Arc<Query>>,
    popularity: CdfSampler,
    rng: SplitMix64,
}

impl Catalog {
    /// `size` queries over `cfg`'s tables, with candidate counts spread
    /// over `candidates`, drawn with Zipf exponent `skew`.
    ///
    /// A query's candidate count is a fixed function of its popularity
    /// rank, not of the seed: the hottest queries carry most of the
    /// traffic, so seeded sizes would change the work per query from seed
    /// to seed.
    pub fn new(
        cfg: &DlrmConfig,
        size: usize,
        candidates: (usize, usize),
        skew: f64,
        seed: u64,
    ) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut generators: Vec<_> = cfg
            .table_workloads()
            .iter()
            .map(|t| t.generator(0))
            .collect();
        let (lo, hi) = candidates;
        let queries = (0..size as u64)
            .map(|id| {
                let c = lo + (id as usize * 7 + 3) % (hi - lo + 1);
                let mut dense = Matrix::zeros(c, cfg.dense_features);
                for v in dense.as_mut_slice() {
                    *v = rng.next_range(-1.0, 1.0);
                }
                let indices: Vec<IndexArray> = generators
                    .iter_mut()
                    .map(|g| {
                        g.reseed(rng.next_u64());
                        g.next_batch(c)
                    })
                    .collect();
                Arc::new(Query {
                    id,
                    dense,
                    indices: indices.into(),
                })
            })
            .collect();
        Self {
            queries,
            popularity: Popularity::zipf_or_uniform(size, skew).sampler(),
            rng,
        }
    }

    /// Query `id`; ids are popularity ranks, so id 0 is the hottest.
    pub fn query(&self, id: usize) -> &Arc<Query> {
        &self.queries[id]
    }

    /// The next query of the seeded popularity stream.
    pub fn draw(&mut self) -> Arc<Query> {
        let id = self.popularity.sample(&mut self.rng) as usize;
        Arc::clone(&self.queries[id])
    }
}

/// `query`'s lookups with each sample's pairs in ascending row order.
///
/// The serving engine pools each sample's rows in ascending-row order (the
/// casted order), while `Dlrm::predict` pools them in the order given.
/// Pooling is a sum over the same rows either way; presenting the rows in
/// the engine's order makes the reference add them in the same sequence,
/// so the two must agree bit for bit.
pub fn canonical_indices(query: &Query) -> Vec<IndexArray> {
    query
        .indices
        .iter()
        .map(|index| {
            let mut pairs: Vec<(u32, u32)> = index
                .dst()
                .iter()
                .copied()
                .zip(index.src().iter().copied())
                .collect();
            pairs.sort_unstable();
            let (dst, src): (Vec<u32>, Vec<u32>) = pairs.into_iter().unzip();
            IndexArray::from_pairs(src, dst, index.num_outputs())
                .expect("reordered pairs stay valid")
        })
        .collect()
}
