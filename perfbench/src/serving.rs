//! The serving side: scorers over a frozen model and over the latest
//! snapshot, and the seeded sample of scored queries that is re-scored
//! with `Dlrm::predict` after the run.

use std::sync::Arc;

use tcast_dlrm::Dlrm;
use tcast_serve::{ModelSnapshot, Query, QueuedQuery, ScoredBatch, ServeEngine, SnapshotStore};

use crate::inputs::canonical_indices;
use crate::openloop::Scorer;
use crate::trace::{Recorder, SpanId};

/// A query whose served scores are kept for the post-run check.
#[derive(Debug)]
pub struct Sampled {
    /// The query as served.
    pub query: Arc<Query>,
    /// Its scores as served.
    pub scores: Vec<f32>,
    /// The snapshot that scored it (train-while-serve only).
    pub snapshot: Option<Arc<ModelSnapshot>>,
}

/// Keeps the served scores of a fixed set of sequence numbers.
#[derive(Debug, Default)]
pub struct Sampler {
    wanted: Vec<usize>,
    next: usize,
    /// The kept samples, in sequence order.
    pub kept: Vec<Sampled>,
}

impl Sampler {
    /// Samples the sequence numbers in `wanted`.
    pub fn new(mut wanted: Vec<usize>) -> Self {
        wanted.sort_unstable();
        wanted.dedup();
        Self {
            kept: Vec::with_capacity(wanted.len()),
            wanted,
            next: 0,
        }
    }

    fn take(
        &mut self,
        first_seq: usize,
        batch: &[QueuedQuery],
        scored: &ScoredBatch<'_>,
        snapshot: Option<&Arc<ModelSnapshot>>,
    ) {
        while let Some(&seq) = self.wanted.get(self.next) {
            if seq >= first_seq + batch.len() {
                return;
            }
            if seq >= first_seq {
                let i = seq - first_seq;
                self.kept.push(Sampled {
                    query: Arc::clone(&batch[i].query),
                    scores: scored.scores(i).to_vec(),
                    snapshot: snapshot.map(Arc::clone),
                });
            }
            self.next += 1;
        }
    }

    /// Re-scores every kept query with `Dlrm::predict` on `frozen`, or on
    /// the snapshot that served it, and counts those whose scores differ
    /// in any bit.
    pub fn mismatches(&self, frozen: Option<&Dlrm>) -> usize {
        self.kept
            .iter()
            .filter(|s| {
                let model = s
                    .snapshot
                    .as_deref()
                    .map(ModelSnapshot::model)
                    .or(frozen)
                    .expect("a model to re-score against");
                let expect = model
                    .predict(&s.query.dense, &canonical_indices(&s.query))
                    .expect("re-score a served query");
                let same = expect.as_slice().len() == s.scores.len()
                    && expect
                        .as_slice()
                        .iter()
                        .zip(&s.scores)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                !same
            })
            .count()
    }
}

/// Scores against one frozen model (the serving replica).
pub struct FrozenScorer<'m> {
    /// The engine.
    pub engine: ServeEngine,
    /// The restored model.
    pub model: &'m Dlrm,
    /// Queries kept for the post-run check.
    pub sampler: Sampler,
}

impl Scorer for FrozenScorer<'_> {
    fn score(
        &mut self,
        first_seq: usize,
        batch: &[QueuedQuery],
        rec: &mut Recorder,
        parent: SpanId,
    ) -> Result<(), String> {
        let t0 = rec.now_ns();
        let scored = self
            .engine
            .score(self.model, batch.iter().map(|q| &q.query));
        rec.record("serve.score", t0, rec.now_ns(), parent, first_seq as u64);
        let scored = scored.map_err(|e| e.to_string())?;
        self.sampler.take(first_seq, batch, &scored, None);
        Ok(())
    }
}

/// Scores each fused batch against the latest published snapshot, and
/// records the age of the model that scored it.
pub struct SnapshotScorer<'s> {
    /// The engine.
    pub engine: ServeEngine,
    /// Where the trainer publishes.
    pub store: &'s SnapshotStore,
    /// Per batch: the scoring snapshot's age at `score` return, from the
    /// end of its capture inside `publish`.
    pub model_age_ns: Vec<f64>,
    /// Per batch: `SnapshotStore::latest`.
    pub latest_ns: Vec<f64>,
    /// Queries kept for the post-run check.
    pub sampler: Sampler,
}

impl Scorer for SnapshotScorer<'_> {
    fn score(
        &mut self,
        first_seq: usize,
        batch: &[QueuedQuery],
        rec: &mut Recorder,
        parent: SpanId,
    ) -> Result<(), String> {
        let req = first_seq as u64;
        let t0 = rec.now_ns();
        let snapshot = self.store.latest();
        let t1 = rec.now_ns();
        rec.record("snapshot.latest", t0, t1, parent, req);
        self.latest_ns.push((t1 - t0) as f64);
        let scored = self
            .engine
            .score(snapshot.model(), batch.iter().map(|q| &q.query));
        let t2 = rec.now_ns();
        rec.record("serve.score", t1, t2, parent, req);
        self.model_age_ns.push(snapshot.age_ns() as f64);
        let scored = scored.map_err(|e| e.to_string())?;
        self.sampler
            .take(first_seq, batch, &scored, Some(&snapshot));
        Ok(())
    }
}
