//! The training side: set-up, the serial reference prefix, and the
//! measured `TrainLoop` window.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use tcast_datasets::{BatchSource, TraceReplaySource};
use tcast_dlrm::{
    BackwardMode, DlrmConfig, EmbeddingOptimizer, Execution, PhaseTimings, TrainLoop, Trainer,
};
use tcast_snapshot::SnapshotStore;

use crate::inputs::TrainTrace;
use crate::trace::{Recorder, NO_SPAN};

/// The embedding optimizer of every training workload.
pub const OPTIMIZER: EmbeddingOptimizer = EmbeddingOptimizer::Adagrad { eps: 1e-8 };

/// A training configuration.
#[derive(Debug, Clone)]
pub struct TrainSpec {
    /// Model shape.
    pub cfg: DlrmConfig,
    /// Samples per step.
    pub batch: usize,
    /// Casting lookahead depth of the `TrainLoop`.
    pub depth: usize,
    /// Kernel schedule of the measured trainer.
    pub execution: Execution,
    /// Steps of the serial reference the measured run must reproduce.
    pub reference_steps: usize,
    /// Model initialisation seed.
    pub model_seed: u64,
    /// Dense-feature and label seed of the replay source.
    pub data_seed: u64,
}

impl TrainSpec {
    fn trainer(&self, execution: Execution) -> Trainer {
        Trainer::with_execution(
            self.cfg.clone(),
            BackwardMode::Casted,
            OPTIMIZER,
            execution,
            self.model_seed,
        )
        .expect("valid training config")
    }
}

/// A trainer ready to measure: the driver, its replay source, and the
/// losses of the warm-up steps.
pub struct Prepared {
    /// The pipelined driver.
    pub driver: TrainLoop,
    /// The replay source it consumes.
    pub source: TraceReplaySource,
    /// Losses of the steps completed during warm-up, in order.
    pub warm_losses: Vec<f32>,
}

/// The training set-up: model build and table initialisation, loading the
/// trace through `read_trace`, and warm-up pushes until the reference
/// prefix has completed (which also sizes every scratch buffer).
pub fn prepare(spec: &TrainSpec, trace: &TrainTrace) -> Prepared {
    let trainer = spec.trainer(spec.execution.clone());
    let mut source = trace.open(spec.cfg.dense_features, spec.data_seed);
    let mut driver = TrainLoop::new(trainer, spec.depth);
    let mut warm_losses = Vec::new();
    while warm_losses.len() < spec.reference_steps {
        let batch = source.next_batch().expect("cycling source never ends");
        if let Some((report, done)) = driver.push(batch).expect("warm-up step") {
            warm_losses.push(report.loss);
            source.recycle(done);
        }
    }
    Prepared {
        driver,
        source,
        warm_losses,
    }
}

/// The plain single-worker baseline: `Execution::Serial`, depth 0,
/// `Trainer::step` on the same replayed batches. Returns its losses and
/// its samples per second.
pub fn reference(spec: &TrainSpec, trace: &TrainTrace) -> (Vec<f32>, f64) {
    let mut trainer = spec.trainer(Execution::Serial);
    let mut source = trace.open(spec.cfg.dense_features, spec.data_seed);
    let mut losses = Vec::with_capacity(spec.reference_steps);
    let mut busy = Duration::ZERO;
    for _ in 0..spec.reference_steps {
        let batch = source.next_batch().expect("cycling source never ends");
        let t0 = Instant::now();
        let report = trainer.step(&batch).expect("reference step");
        busy += t0.elapsed();
        losses.push(report.loss);
        source.recycle(batch);
    }
    let sps = (spec.reference_steps * spec.batch) as f64 / busy.as_secs_f64();
    (losses, sps)
}

/// Publishes a snapshot every `every` completed steps.
pub struct Publisher<'a> {
    /// The store serving reads from.
    pub store: &'a SnapshotStore,
    /// Completed steps between publications.
    pub every: usize,
}

/// What one measured training window saw.
#[derive(Debug, Default)]
pub struct Window {
    /// Steps completed inside the window.
    pub completed: usize,
    /// Samples per completed step.
    pub batch: usize,
    /// Window length.
    pub wall_ns: u64,
    /// Per iteration: `next_batch` + `push` (+ publish), the step interval.
    pub iter_ns: Vec<f64>,
    /// Per iteration: `BatchSource::next_batch`.
    pub next_batch_ns: Vec<f64>,
    /// Per iteration: `TrainLoop::push`.
    pub push_ns: Vec<f64>,
    /// Per completed step: its phases, exposed cast wait, and the push
    /// that completed it.
    pub steps: Vec<(PhaseTimings, Duration, f64)>,
    /// Per publication: `SnapshotStore::publish`.
    pub publish_ns: Vec<f64>,
    /// Completed steps whose loss was not finite.
    pub nonfinite: usize,
    /// Pushes that returned an error.
    pub errors: usize,
    /// Casting-worker time and backpressure wait over the window.
    pub casting: Duration,
    /// See `casting`.
    pub backpressure: Duration,
    /// Process CPU seconds over the window.
    pub cpu_s: f64,
}

impl Window {
    /// Training samples completed per second.
    pub fn samples_per_s(&self) -> f64 {
        (self.completed * self.batch) as f64 * 1e9 / self.wall_ns.max(1) as f64
    }
}

/// Runs the pipelined loop until `until` (an offset on `rec`'s clock),
/// recording every iteration; publishes snapshots through `publisher`.
pub fn measure(
    p: &mut Prepared,
    batch: usize,
    until_ns: u64,
    rec: &mut Recorder,
    publisher: Option<&Publisher<'_>>,
) -> Window {
    let expected = 1 << 14;
    let mut w = Window {
        batch,
        iter_ns: Vec::with_capacity(expected),
        next_batch_ns: Vec::with_capacity(expected),
        push_ns: Vec::with_capacity(expected),
        steps: Vec::with_capacity(expected),
        publish_ns: Vec::with_capacity(expected),
        ..Window::default()
    };
    let stats0 = p.driver.trainer().pipeline_stats().unwrap_or_default();
    let cpu0 = crate::host::cpu_seconds();
    let start = rec.now_ns();
    let mut t0 = start;
    let mut iter = 0u64;
    while t0 < until_ns {
        let root = rec.begin("train.step", NO_SPAN, iter);
        let batch_arc = p.source.next_batch().expect("cycling source never ends");
        let t1 = rec.now_ns();
        let pushed = p.driver.push(batch_arc);
        let t2 = rec.now_ns();
        rec.record("datasets.next_batch", t0, t1, root, iter);
        rec.record("dlrm.push", t1, t2, root, iter);
        w.next_batch_ns.push((t1 - t0) as f64);
        w.push_ns.push((t2 - t1) as f64);
        let mut t_end = t2;
        match pushed {
            Ok(Some((report, done))) => {
                w.completed += 1;
                if !report.loss.is_finite() {
                    w.nonfinite += 1;
                }
                w.steps
                    .push((report.timings, report.exposed_cast_wait, (t2 - t1) as f64));
                p.source.recycle(done);
                if let Some(publ) = publisher {
                    if w.completed.is_multiple_of(publ.every) {
                        let trainer = p.driver.trainer();
                        publ.store.publish(trainer.model(), trainer.steps());
                        t_end = rec.now_ns();
                        rec.record("snapshot.publish", t2, t_end, root, iter);
                        w.publish_ns.push((t_end - t2) as f64);
                    }
                }
            }
            Ok(None) => {}
            Err(_) => w.errors += 1,
        }
        rec.end(root);
        w.iter_ns.push((t_end - t0) as f64);
        iter += 1;
        t0 = t_end;
    }
    w.wall_ns = t0 - start;
    w.cpu_s = crate::host::cpu_seconds() - cpu0;
    let stats1 = p.driver.trainer().pipeline_stats().unwrap_or_default();
    w.casting = stats1.casting_time.saturating_sub(stats0.casting_time);
    w.backpressure = stats1
        .backpressure_wait
        .saturating_sub(stats0.backpressure_wait);
    w
}

/// Completes the steps still in flight after a window, so the next window
/// (or the drop) starts from an empty pipeline. Returns the number of
/// non-finite losses among them.
pub fn drain(p: &mut Prepared) -> usize {
    let done = p.driver.finish().expect("drain in-flight steps");
    let mut nonfinite = 0;
    for (report, batch) in done {
        if !report.loss.is_finite() {
            nonfinite += 1;
        }
        p.source.recycle(batch);
    }
    nonfinite
}

/// The shared pool of the pooled workloads, one worker per CPU. A kernel
/// splits into as many tasks as the pool has workers and the submitting
/// thread runs one of them while it waits, so at most `nproc` threads run
/// kernel work. Like `tcast_pool::global()`, the pool lives in a static and
/// is never dropped: process exit ends its workers.
pub fn pool() -> Arc<tcast_pool::Pool> {
    static POOL: OnceLock<Arc<tcast_pool::Pool>> = OnceLock::new();
    Arc::clone(POOL.get_or_init(|| Arc::new(tcast_pool::Pool::new(crate::host::nproc()))))
}
