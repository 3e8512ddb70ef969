//! The four workloads and how each turns into a report.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use tcast_dlrm::checkpoint::{load_checkpoint, save_checkpoint};
use tcast_dlrm::{Dlrm, DlrmConfig, Execution, PhaseTimings, TableConfig};
use tcast_serve::{BatchPolicy, ServeEngine, SnapshotStore};
use tcast_tensor::{InteractionKind, SplitMix64};

use crate::host;
use crate::inputs::{derive, Catalog, TrainTrace};
use crate::openloop::{
    poisson_schedule, run_rung, Arrival, Clock, RungConfig, RungOutcome, WallClock,
};
use crate::report::Report;
use crate::serving::{FrozenScorer, Sampler, SnapshotScorer};
use crate::stats;
use crate::trace::{self, Recorder, NO_SPAN};
use crate::train::{self, Prepared, Publisher, TrainSpec, Window};

/// The workloads, by name.
pub const WORKLOADS: [&str; 4] = ["train_skewed", "train_uniform", "serve_open", "train_serve"];

/// Samples per training step of the training-only workloads.
const TRAIN_BATCH: usize = 4096;
/// Batches in one pass of a training trace.
const TRAIN_RING: usize = 16;
/// Casting lookahead depth of every `TrainLoop`.
const DEPTH: usize = 2;
/// Steps of the serial reference every measured trainer must reproduce.
const REFERENCE_STEPS: usize = 3;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Distinct queries in a serving catalog, and per-table casting-cache
/// entries: the catalog is twice the cache, so cold queries miss.
const CATALOG: usize = 2048;
const CACHE_CAPACITY: usize = 1024;
/// Candidate counts per query: each value in this range is equally common
/// in the catalog.
const CANDIDATES: (usize, usize) = (1, 16);
/// Zipf exponent of query popularity.
const QUERY_SKEW: f64 = 1.1;
/// Hottest catalog queries scored during set-up to warm the caches.
const WARM_QUERIES: usize = 512;
/// Served queries re-scored with `Dlrm::predict` after the run.
const SAMPLES: usize = 48;

const MS: u64 = 1_000_000;

/// Largest fused batch, in queries.
const MAX_BATCH: usize = 32;

fn policy() -> BatchPolicy {
    BatchPolicy::Deadline {
        max_batch: MAX_BATCH,
        max_wait_ns: 2 * MS,
    }
}

/// `serve_open`'s ladder: absolute rates (queries/s) and each rung's share
/// of the run. The first rung is the nominal rate, run longest so that its
/// tail rests on several blocks of 1000 queries; the next sits near 60% of
/// a serial engine's capacity on the reference host and the last well
/// above it, so the highest passing rung does not flip with host noise.
const LADDER: [(f64, f64); 3] = [(300.0, 0.7), (600.0, 0.2), (1500.0, 0.1)];
const NOMINAL_RUNG: usize = 0;
const SERVE_SLO_NS: u64 = 100 * MS;

/// `train_serve`: training batch, publish cadence, serving rate and SLO.
const TS_BATCH: usize = 1024;
const TS_PUBLISH_EVERY: usize = 4;
const TS_RATE: f64 = 400.0;
const TS_SLO_NS: u64 = 100 * MS;
/// Prior snapshot versions the store keeps resident: none, as nothing
/// rolls back.
const TS_RETAIN: usize = 0;
/// Sampled queries: `TS_SAMPLE_RUN` consecutive ones from a seeded point
/// of each phase. They span at most two snapshots, which the sample pins.
const TS_SAMPLE_RUN: usize = 8;
const TS_PINNED: usize = 2;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of one measured window.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub traced: bool,
}

/// Runs `args.workload`, writing inputs under `work` and the trace file
/// under `out`.
pub fn run(args: &Args, work: &Path, out: &Path) -> Report {
    let epoch = Instant::now();
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    header(&mut report, args);
    let mut recs = Vec::new();
    match args.workload.as_str() {
        "train_skewed" => train_only(args, &mut report, &mut recs, epoch, work, skewed_config()),
        "train_uniform" => train_only(args, &mut report, &mut recs, epoch, work, uniform_config()),
        "serve_open" => serve_open(args, &mut report, &mut recs, epoch, work),
        "train_serve" => train_serve(args, &mut report, &mut recs, epoch, work),
        other => unreachable!("unknown workload {other}"),
    }
    let rss = host::peak_rss_mb();
    report.line(format!("peak RSS (VmHWM): {rss:.1} MiB"));
    report.layers.insert("proc.peak_rss_mb", rss);
    if args.traced {
        let refs: Vec<&Recorder> = recs.iter().collect();
        for (name, (n, total, own)) in trace::self_times(&refs) {
            report.line(format!(
                "span {name:<24} n {n:>7}  total {:>10.3} ms  self {:>10.3} ms",
                total as f64 / 1e6,
                own as f64 / 1e6
            ));
        }
        let reserved: usize = recs.iter().map(Recorder::reserved_bytes).sum();
        report.line(format!(
            "span buffers reserved: {:.2} MiB",
            reserved as f64 / (1 << 20) as f64
        ));
        let dropped: u64 = recs.iter().map(Recorder::dropped).sum();
        report.layers.insert("trace.dropped_spans", dropped as f64);
        let path = out.join(format!("{}-seed{}.trace.json", args.workload, args.seed));
        let written = File::create(&path).and_then(|f| {
            let mut w = BufWriter::new(f);
            trace::write_chrome_trace(&mut w, &refs, &report.header)?;
            w.flush()
        });
        match written {
            Ok(()) => report.line(format!("trace written to {}", path.display())),
            Err(e) => report.line(format!("trace not written: {e}")),
        }
    }
    report
}

fn header(report: &mut Report, args: &Args) {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    report.head("benchmark", "perfbench");
    report.head("git_sha", host::git_sha(&repo));
    report.head("cpu_model", host::cpu_model());
    report.head("nproc", host::nproc());
    report.head("l3_bytes", host::l3_bytes());
    report.head("kernel_dispatch", tcast_tensor::simd::dispatch().name());
    report.head("workload", &args.workload);
    report.head("seed", args.seed);
    report.head("seconds", args.seconds);
    report.head("traced", args.traced);
}

fn dense_stack(cfg: &mut DlrmConfig, bottom: &[usize], top: &[usize]) {
    cfg.bottom_mlp = bottom.to_vec();
    cfg.top_mlp = top.to_vec();
}

fn config(rows: usize, pooling: usize, zipf: f64) -> DlrmConfig {
    let mut cfg = DlrmConfig {
        dense_features: 13,
        embedding_dim: 64,
        tables: vec![
            TableConfig {
                rows,
                pooling,
                zipf_exponent: zipf,
            };
            4
        ],
        bottom_mlp: Vec::new(),
        top_mlp: Vec::new(),
        interaction: InteractionKind::Dot,
    };
    // The lean dense stack of the training workloads.
    dense_stack(&mut cfg, &[64, 64], &[64, 32, 1]);
    cfg
}

/// The paper's regime: four 100k-row Zipf(1.05) tables, pooling 10.
fn skewed_config() -> DlrmConfig {
    config(100_000, 10, 1.05)
}

/// Four 1M-row tables under uniform lookups: 1 GiB of embeddings.
fn uniform_config() -> DlrmConfig {
    config(1_000_000, 10, 0.0)
}

/// The serving model: four 60k-row Zipf tables and a wide dense stack,
/// so inference cost sits in the MLPs.
fn serve_config() -> DlrmConfig {
    let mut cfg = config(60_000, 6, 1.05);
    dense_stack(&mut cfg, &[1024, 512, 64], &[512, 128, 1]);
    cfg
}

/// The online-training model: the same tables with the lean stack.
fn online_config() -> DlrmConfig {
    config(60_000, 6, 1.05)
}

fn describe_model(report: &mut Report, cfg: &DlrmConfig) {
    let t = &cfg.tables[0];
    report.head(
        "model",
        format!(
            "{} tables x {} rows, dim {}, pooling {}, zipf {}, bottom {:?}, top {:?}",
            cfg.tables.len(),
            t.rows,
            cfg.embedding_dim,
            t.pooling,
            t.zipf_exponent,
            cfg.bottom_mlp,
            cfg.top_mlp
        ),
    );
    let l3 = host::l3_bytes().max(1) as f64;
    let bytes = cfg.embedding_parameters() as u64 * 4;
    report.head(
        "embedding_bytes",
        format!("{bytes} ({:.1}x L3)", bytes as f64 / l3),
    );
}

fn describe_trace(report: &mut Report, trace: &TrainTrace, cfg: &DlrmConfig, batch: usize) {
    let row_bytes = (cfg.embedding_dim * 4) as f64;
    let l3 = host::l3_bytes().max(1) as f64;
    report.head("batch", batch);
    report.head("trace_ring_steps", trace.ring);
    report.head("lookups_per_step", trace.lookups_per_step);
    report.head(
        "unique_rows_per_step",
        format!(
            "{:.0} ({:.1}% of lookups)",
            trace.unique_rows_per_step,
            100.0 * trace.unique_rows_per_step / trace.lookups_per_step as f64
        ),
    );
    report.head(
        "rows_touched_per_ring",
        format!(
            "{} ({:.1}x L3 with optimizer state)",
            trace.unique_rows_per_pass,
            2.0 * trace.unique_rows_per_pass as f64 * row_bytes / l3
        ),
    );
}

/// A recorder for thread `tid` when `on`, else one that keeps nothing.
fn recorder(on: bool, epoch: Instant, tid: u32, capacity: usize) -> Recorder {
    if on {
        Recorder::enabled(epoch, tid, capacity)
    } else {
        Recorder::disabled(epoch)
    }
}

fn set_up<T>(
    args: &Args,
    epoch: Instant,
    recs: &mut Vec<Recorder>,
    mut build: impl FnMut(&mut Recorder) -> T,
) -> (T, Vec<f64>, Option<f64>) {
    // Each set-up drops the previous one first, so only one model is
    // resident at a time. In the traced run the last set-up is traced.
    let mut kept = None;
    let mut untraced = Vec::new();
    let mut traced = None;
    for i in 0..SETUPS {
        drop(kept.take());
        let trace_this = args.traced && i == SETUPS - 1;
        let mut rec = recorder(trace_this, epoch, 0, 256);
        let t0 = Instant::now();
        let built = build(&mut rec);
        let s = t0.elapsed().as_secs_f64();
        if trace_this {
            traced = Some(s);
            recs.push(rec);
        } else {
            untraced.push(s);
        }
        kept = Some(built);
    }
    (kept.expect("at least one set-up"), untraced, traced)
}

fn report_setup(report: &mut Report, untraced: &[f64], traced: Option<f64>) {
    let median = stats::median(untraced);
    report.e2e.insert("setup_s", median);
    report.line(format!("setup_s runs: {untraced:.4?} (median {median:.4})"));
    if let Some(t) = traced {
        report
            .layers
            .insert("trace.overhead_setup_frac", t / median - 1.0);
    }
}

/// `(p50, tail percentile, tail)` in ms of a latency sample in ns, given
/// in arrival order (see [`stats::block_tail`]).
fn latency_ms(values_ns: &[f64]) -> (f64, f64, f64) {
    let p50 = stats::median(values_ns) / 1e6;
    let (p, tail) = stats::block_tail(values_ns).unwrap_or((50.0, p50 * 1e6));
    (p50, p, tail / 1e6)
}

/// The headline numbers of one measured window.
struct WindowMetrics {
    throughput: f64,
    p50_ms: f64,
    tail_ms: f64,
}

impl WindowMetrics {
    /// Reports the untraced window's end-to-end metrics.
    fn report_e2e(&self, report: &mut Report) {
        report.e2e.insert("throughput_per_s", self.throughput);
        report.e2e.insert("latency_p50_ms", self.p50_ms);
    }

    /// Reports the traced window's tail and the tracing overhead against
    /// the `untraced` window.
    fn report_traced(&self, untraced: &WindowMetrics, report: &mut Report) {
        let l = &mut report.layers;
        l.insert("latency_tail_ms", self.tail_ms);
        l.insert(
            "trace.overhead_throughput_frac",
            self.throughput / untraced.throughput - 1.0,
        );
        l.insert(
            "trace.overhead_latency_p50_frac",
            self.p50_ms / untraced.p50_ms - 1.0,
        );
    }
}

fn window_lines(report: &mut Report, label: &str, w: &Window) {
    let (p50, p, tail) = latency_ms(&w.iter_ns);
    report.line(format!(
        "{label}: {} steps in {:.3} s, {:.1} samples/s, step p50 {p50:.3} ms, p{p} {tail:.3} ms, \
         errors {}, non-finite losses {}",
        w.completed,
        w.wall_ns as f64 / 1e9,
        w.samples_per_s(),
        w.errors,
        w.nonfinite
    ));
}

fn mean_ms(values_ns: &[f64]) -> f64 {
    stats::mean(values_ns) / 1e6
}

fn train_layers(report: &mut Report, w: &Window) {
    let n = w.steps.len().max(1) as f64;
    let mut phases = PhaseTimings::default();
    let mut exposed = Duration::ZERO;
    let mut unattributed = 0.0;
    let mut pushed = 0.0;
    for (t, e, push_ns) in &w.steps {
        phases += *t;
        exposed += *e;
        unattributed += push_ns - t.total().as_nanos() as f64;
        pushed += push_ns;
    }
    let per_step = |d: Duration| d.as_secs_f64() * 1e3 / n;
    let (push_p50, _, push_tail) = latency_ms(&w.push_ns);
    let l = &mut report.layers;
    l.insert("datasets.next_batch_ms", mean_ms(&w.next_batch_ns));
    l.insert("dlrm.push_ms_p50", push_p50);
    l.insert("dlrm.push_ms_p99", push_tail);
    l.insert("dlrm.unattributed_ms", unattributed / n / 1e6);
    l.insert(
        "dlrm.push_coverage_frac",
        phases.total().as_nanos() as f64 / pushed.max(1.0),
    );
    l.insert("embedding.fwd_gather_ms", per_step(phases.fwd_gather));
    l.insert("embedding.bwd_embedding_ms", per_step(phases.bwd_embedding));
    l.insert("embedding.bwd_scatter_ms", per_step(phases.bwd_scatter));
    l.insert("tensor.fwd_dnn_ms", per_step(phases.fwd_dnn));
    l.insert("tensor.bwd_dnn_ms", per_step(phases.bwd_dnn));
    l.insert("core.casting_ms", per_step(w.casting));
    l.insert("core.backpressure_wait_ms", per_step(w.backpressure));
    l.insert("core.exposed_cast_wait_ms", per_step(exposed));
    l.insert("snapshot.publish_ms", mean_ms(&w.publish_ns));
    l.insert(
        "proc.cpu_busy_frac",
        w.cpu_s / (w.wall_ns as f64 / 1e9 * host::nproc() as f64),
    );
}

fn serve_layers(report: &mut Report, o: &RungOutcome, cache_hit: f64) {
    let (queue_p50, _, queue_tail) = latency_ms(&o.queue_wait_ns);
    let (_, _, admit_tail) = latency_ms(&o.admit_lag_ns);
    let (score_p50, _, score_tail) = latency_ms(&o.score_ns);
    let l = &mut report.layers;
    l.insert("serve.queue_wait_ms_p50", queue_p50);
    l.insert("serve.queue_wait_ms_p99", queue_tail);
    l.insert("serve.admit_lag_ms_p99", admit_tail);
    l.insert("serve.score_ms_p50", score_p50);
    l.insert("serve.score_ms_p99", score_tail);
    let queries: Vec<f64> = o.batch_queries.iter().map(|&q| q as f64).collect();
    l.insert("serve.batch_queries_mean", stats::mean(&queries));
    l.insert("serve.cache_hit_frac", cache_hit);
}

fn rung_line(report: &mut Report, label: &str, o: &RungOutcome, cfg: &RungConfig) {
    let (p50, p, tail) = latency_ms(&o.latency_ns);
    report.line(format!(
        "{label} rate {:>6.0} q/s: {} queries, achieved {:.1} q/s, p50 {p50:.3} ms, p{p} {tail:.3} ms, \
         failed {}, abandoned {}, backlog grew {}, passes {}",
        o.rate_qps,
        o.attempted(),
        o.achieved_qps(),
        o.failed,
        o.abandoned,
        o.backlog_grew(cfg.growth_slack),
        o.passes(cfg)
    ));
}

/// Compares each set-up's warm-up losses with the reference; returns the
/// number of steps that differ in any bit.
fn loss_mismatches(reference: &[f32], warm: &[f32]) -> usize {
    reference
        .iter()
        .zip(warm)
        .filter(|(a, b)| a.to_bits() != b.to_bits())
        .count()
        + reference.len().saturating_sub(warm.len())
}

fn train_spec(cfg: DlrmConfig, batch: usize, execution: Execution, seed: u64) -> TrainSpec {
    TrainSpec {
        cfg,
        batch,
        depth: DEPTH,
        execution,
        reference_steps: REFERENCE_STEPS,
        model_seed: derive(seed, 2),
        data_seed: derive(seed, 3),
    }
}

fn prepare_traced(spec: &TrainSpec, trace: &TrainTrace, rec: &mut Recorder) -> Prepared {
    let span = rec.begin("dlrm.prepare", NO_SPAN, 0);
    let p = train::prepare(spec, trace);
    rec.end(span);
    p
}

/// `train_skewed` and `train_uniform`: pooled, depth-2 casted training
/// over a replayed trace.
fn train_only(
    args: &Args,
    report: &mut Report,
    recs: &mut Vec<Recorder>,
    epoch: Instant,
    work: &Path,
    cfg: DlrmConfig,
) {
    describe_model(report, &cfg);
    let trace = TrainTrace::record(work, &cfg, TRAIN_BATCH, TRAIN_RING, derive(args.seed, 1));
    describe_trace(report, &trace, &cfg, TRAIN_BATCH);
    report.head("optimizer", format!("{:?}", train::OPTIMIZER));
    report.head(
        "driver",
        format!(
            "TrainLoop depth {DEPTH}, pooled on {} workers",
            host::nproc()
        ),
    );
    let spec = train_spec(
        cfg,
        TRAIN_BATCH,
        Execution::Pooled(train::pool()),
        args.seed,
    );

    let (reference, ref_sps) = train::reference(&spec, &trace);
    report.line(format!(
        "reference (serial, depth 0, Trainer::step): {REFERENCE_STEPS} steps, {ref_sps:.1} samples/s"
    ));
    let mut mismatched = 0;
    let (mut p, untraced, traced) = set_up(args, epoch, recs, |rec| {
        let p = prepare_traced(&spec, &trace, rec);
        mismatched += loss_mismatches(&reference, &p.warm_losses);
        p
    });
    report_setup(report, &untraced, traced);

    let clock = WallClock::new(epoch);
    let mut off = Recorder::disabled(epoch);
    let a = train::measure(
        &mut p,
        TRAIN_BATCH,
        clock.now_ns() + secs_ns(args),
        &mut off,
        None,
    );
    window_lines(report, "window", &a);
    let untraced = train_metrics(&a);
    untraced.report_e2e(report);
    let mut windows = vec![a];
    if args.traced {
        let mut rec = Recorder::enabled(epoch, 1, 1 << 16);
        let b = train::measure(
            &mut p,
            TRAIN_BATCH,
            clock.now_ns() + secs_ns(args),
            &mut rec,
            None,
        );
        window_lines(report, "traced window", &b);
        train_metrics(&b).report_traced(&untraced, report);
        train_layers(report, &b);
        recs.push(rec);
        windows.push(b);
    }
    let tail_nonfinite = train::drain(&mut p);
    train_gates(report, &windows, mismatched, tail_nonfinite);
}

fn secs_ns(args: &Args) -> u64 {
    (args.seconds * 1e9) as u64
}

fn train_metrics(w: &Window) -> WindowMetrics {
    let (p50_ms, _, tail_ms) = latency_ms(&w.iter_ns);
    WindowMetrics {
        throughput: w.samples_per_s(),
        p50_ms,
        tail_ms,
    }
}

fn train_gates(report: &mut Report, windows: &[Window], mismatched: usize, tail_nonfinite: usize) {
    let steps: usize = windows.iter().map(|w| w.completed + w.errors).sum();
    let bad: usize = windows
        .iter()
        .map(|w| w.errors + w.nonfinite)
        .sum::<usize>()
        + tail_nonfinite;
    report.line(format!(
        "gate: warm-up losses equal the serial reference bit for bit in every set-up: {} \
         ({mismatched} differing steps); non-finite or failed steps: {bad}",
        mismatched == 0
    ));
    report.correct &= mismatched == 0 && bad == 0;
    report.attempted += (steps + SETUPS * REFERENCE_STEPS) as u64;
    report.failed += (bad + mismatched) as u64;
}

/// Seeded sample of `count` sequence numbers below `total`.
fn sample_seqs(total: usize, count: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed);
    (0..count.min(total))
        .map(|_| rng.next_below(total as u64) as usize)
        .collect()
}

fn catalog(cfg: &DlrmConfig, seed: u64) -> Catalog {
    Catalog::new(cfg, CATALOG, CANDIDATES, QUERY_SKEW, seed)
}

fn describe_serving(report: &mut Report, slo_ns: u64) {
    report.head(
        "catalog",
        format!(
            "{CATALOG} queries, candidates {}..={}, zipf {QUERY_SKEW}; \
             cache {CACHE_CAPACITY} entries per table ({:.1}x catalog)",
            CANDIDATES.0,
            CANDIDATES.1,
            CACHE_CAPACITY as f64 / CATALOG as f64
        ),
    );
    report.head("batching", format!("{:?}", policy()));
    report.head("slo_ms", slo_ns as f64 / 1e6);
}

/// Warms an engine: one batch of the largest queries sizes its scratch to
/// the high-water mark, then the hottest queries fill its caches.
fn warm_engine(engine: &mut ServeEngine, model: &Dlrm, catalog: &Catalog) {
    let largest = (0..CATALOG).filter(|&id| catalog.query(id).candidates() == CANDIDATES.1);
    let widest: Vec<_> = largest
        .take(MAX_BATCH)
        .map(|id| catalog.query(id))
        .collect();
    engine.score(model, widest).expect("warm-up scoring");
    for lo in (0..WARM_QUERIES).step_by(MAX_BATCH) {
        engine
            .score(model, (lo..lo + MAX_BATCH).map(|id| catalog.query(id)))
            .expect("warm-up scoring");
    }
}

/// `serve_open`: a ladder of open-loop Poisson rates against a replica
/// restored from a checkpoint.
fn serve_open(
    args: &Args,
    report: &mut Report,
    recs: &mut Vec<Recorder>,
    epoch: Instant,
    work: &Path,
) {
    let cfg = serve_config();
    describe_model(report, &cfg);
    describe_serving(report, SERVE_SLO_NS);
    report.head(
        "ladder_qps",
        format!(
            "(rate, share of run) {LADDER:?}, nominal {}",
            LADDER[NOMINAL_RUNG].0
        ),
    );
    report.head("engine", "serial ServeEngine on the one driver thread");

    // Inputs: the checkpoint to restore, the catalog and every rung's
    // schedule.
    let ckpt = work.join("serve.tckp");
    {
        let source = Dlrm::new(cfg.clone(), derive(args.seed, 2)).expect("serve model");
        let mut w = BufWriter::new(File::create(&ckpt).expect("create checkpoint"));
        save_checkpoint(&mut w, &source).expect("write checkpoint");
        w.flush().expect("flush checkpoint");
    }
    let mut queries = catalog(&cfg, derive(args.seed, 4));
    let schedules: Vec<Vec<Arrival>> = LADDER
        .iter()
        .enumerate()
        .map(|(r, &(rate, share))| {
            let dur = Duration::from_secs_f64(args.seconds * share);
            poisson_schedule(rate, dur, derive(args.seed, 20 + r as u64), || {
                queries.draw()
            })
        })
        .collect();
    let total: usize = schedules.iter().map(Vec::len).sum();

    let mut load_ms = 0.0;
    let ((model, engine), untraced, traced) = set_up(args, epoch, recs, |rec| {
        let span = rec.begin("dlrm.build", NO_SPAN, 0);
        let mut model = Dlrm::new(cfg.clone(), 0).expect("serve model");
        rec.end(span);
        let t0 = rec.now_ns();
        let mut r = BufReader::new(File::open(&ckpt).expect("open checkpoint"));
        load_checkpoint(&mut r, &mut model).expect("load checkpoint");
        let t1 = rec.now_ns();
        rec.record("dlrm.checkpoint_load", t0, t1, NO_SPAN, 0);
        load_ms = (t1 - t0) as f64 / 1e6;
        let span = rec.begin("serve.warmup", NO_SPAN, 0);
        let mut engine = ServeEngine::new(&model, CACHE_CAPACITY, Execution::Serial);
        warm_engine(&mut engine, &model, &queries);
        rec.end(span);
        (model, engine)
    });
    report_setup(report, &untraced, traced);
    report.layers.insert("dlrm.checkpoint_load_ms", load_ms);

    let rung_cfg = RungConfig {
        policy: policy(),
        slo_ns: SERVE_SLO_NS,
        drain_limit_ns: 500 * MS,
        growth_slack: 32,
    };
    let clock = WallClock::new(epoch);
    let wanted = sample_seqs(total, SAMPLES, derive(args.seed, 5));
    let mut scorer = FrozenScorer {
        engine,
        model: &model,
        sampler: Sampler::new(wanted.clone()),
    };
    let run_ladder = |rec: &mut Recorder, scorer: &mut FrozenScorer<'_>| -> Vec<RungOutcome> {
        let mut seq = 0;
        schedules
            .iter()
            .zip(LADDER)
            .map(|(schedule, (rate, _))| {
                let base = clock.now_ns() + 2 * MS;
                let mut o = run_rung(&clock, scorer, schedule, &rung_cfg, base, seq, rec);
                o.rate_qps = rate;
                seq += schedule.len();
                o
            })
            .collect()
    };
    let a = run_ladder(&mut Recorder::disabled(epoch), &mut scorer);
    let untraced = serve_metrics(report, &a, &rung_cfg);
    untraced.report_e2e(report);
    let mut failed = a[NOMINAL_RUNG].failed;
    let mut attempted = a[NOMINAL_RUNG].attempted();
    let mut checked = std::mem::take(&mut scorer.sampler);
    if args.traced {
        scorer.sampler = Sampler::new(wanted);
        let mut rec = Recorder::enabled(epoch, 1, 4 * total + 1024);
        let cpu0 = host::cpu_seconds();
        let t0 = Instant::now();
        let b = run_ladder(&mut rec, &mut scorer);
        let busy =
            (host::cpu_seconds() - cpu0) / (t0.elapsed().as_secs_f64() * host::nproc() as f64);
        for (o, label) in b.iter().zip(ladder_labels()) {
            rung_line(report, &format!("traced {label}"), o, &rung_cfg);
        }
        serve_metrics(&mut Report::default(), &b, &rung_cfg).report_traced(&untraced, report);
        serve_layers(report, &b[NOMINAL_RUNG], scorer.engine.cache_hit_rate());
        report.layers.insert("proc.cpu_busy_frac", busy);
        failed += b[NOMINAL_RUNG].failed;
        attempted += b[NOMINAL_RUNG].attempted();
        checked.kept.append(&mut scorer.sampler.kept);
        recs.push(rec);
    }
    for (o, label) in a.iter().zip(ladder_labels()) {
        rung_line(report, label, o, &rung_cfg);
    }
    let mismatched = checked.mismatches(Some(&model));
    serve_gates(report, checked.kept.len(), mismatched, failed, attempted);
}

fn ladder_labels() -> impl Iterator<Item = &'static str> {
    (0..LADDER.len()).map(|r| {
        if r == NOMINAL_RUNG {
            "rung (nominal)"
        } else {
            "rung"
        }
    })
}

/// The ladder's headline numbers: the highest passing rung's achieved
/// rate and the nominal rung's latency. Prints the ladder summary.
fn serve_metrics(report: &mut Report, rungs: &[RungOutcome], cfg: &RungConfig) -> WindowMetrics {
    let nominal = &rungs[NOMINAL_RUNG];
    let (p50_ms, p, tail_ms) = latency_ms(&nominal.latency_ns);
    // The nominal rung's rate when none passes (the line says so).
    let best = rungs
        .iter()
        .rev()
        .find(|o| o.passes(cfg))
        .unwrap_or(&rungs[0]);
    report.line(format!(
        "serve_max_qps: rung {:.0} q/s passes: {}, achieved {:.1} q/s; nominal p50 {p50_ms:.3} ms, \
         p{p} {tail_ms:.3} ms over {} queries",
        best.rate_qps,
        best.passes(cfg),
        best.achieved_qps(),
        nominal.attempted()
    ));
    WindowMetrics {
        throughput: best.achieved_qps(),
        p50_ms,
        tail_ms,
    }
}

fn serve_gates(
    report: &mut Report,
    sampled: usize,
    mismatched: usize,
    failed: usize,
    attempted: usize,
) {
    report.line(format!(
        "gate: {sampled} sampled queries re-scored with Dlrm::predict, {mismatched} differ; \
         nominal-rate queries failed: {failed} of {attempted}"
    ));
    report.correct &= sampled > 0 && mismatched == 0 && failed == 0;
    report.attempted += (attempted + sampled) as u64;
    report.failed += (failed + mismatched) as u64;
}

/// `train_serve`: serial casted training publishing snapshots, while a
/// second thread serves open-loop from the latest snapshot.
fn train_serve(
    args: &Args,
    report: &mut Report,
    recs: &mut Vec<Recorder>,
    epoch: Instant,
    work: &Path,
) {
    let cfg = online_config();
    describe_model(report, &cfg);
    let trace = TrainTrace::record(work, &cfg, TS_BATCH, TRAIN_RING, derive(args.seed, 1));
    describe_trace(report, &trace, &cfg, TS_BATCH);
    describe_serving(report, TS_SLO_NS);
    report.head(
        "driver",
        format!(
            "trainer thread: TrainLoop depth {DEPTH}, serial, publish every {TS_PUBLISH_EVERY} steps; \
             server thread: serial ServeEngine at {TS_RATE} q/s on SnapshotStore::latest"
        ),
    );
    let spec = train_spec(cfg.clone(), TS_BATCH, Execution::Serial, args.seed);
    let mut queries = catalog(&cfg, derive(args.seed, 4));
    let schedule = poisson_schedule(
        TS_RATE,
        Duration::from_secs_f64(args.seconds),
        derive(args.seed, 20),
        || queries.draw(),
    );

    let (reference, ref_sps) = train::reference(&spec, &trace);
    report.line(format!(
        "reference (serial, depth 0, Trainer::step): {REFERENCE_STEPS} steps, {ref_sps:.1} samples/s"
    ));
    let mut mismatched = 0;
    let ((mut p, store, engine), untraced, traced) = set_up(args, epoch, recs, |rec| {
        let p = prepare_traced(&spec, &trace, rec);
        mismatched += loss_mismatches(&reference, &p.warm_losses);
        let span = rec.begin("snapshot.new", NO_SPAN, 0);
        let trainer = p.driver.trainer();
        let store = SnapshotStore::new(trainer.model(), trainer.steps(), TS_RETAIN);
        // Publish while holding every version, so the store allocates all
        // the buffers the run needs now: the head, the retained versions,
        // the snapshots the sample pins, and one to capture into.
        let held: Vec<_> = (0..TS_RETAIN + TS_PINNED + 1)
            .map(|_| {
                store.publish(trainer.model(), trainer.steps());
                store.latest()
            })
            .collect();
        drop(held);
        rec.end(span);
        let span = rec.begin("serve.warmup", NO_SPAN, 0);
        let mut engine = ServeEngine::new(trainer.model(), CACHE_CAPACITY, Execution::Serial);
        warm_engine(&mut engine, store.latest().model(), &queries);
        rec.end(span);
        (p, store, engine)
    });
    report_setup(report, &untraced, traced);

    let rung_cfg = RungConfig {
        policy: policy(),
        slo_ns: TS_SLO_NS,
        drain_limit_ns: 500 * MS,
        growth_slack: 32,
    };
    let publisher = Publisher {
        store: &store,
        every: TS_PUBLISH_EVERY,
    };
    let clock = WallClock::new(epoch);
    let mut rng = SplitMix64::new(derive(args.seed, 5));
    let last = schedule.len().saturating_sub(TS_SAMPLE_RUN).max(1);
    let anchor = rng.next_below(last as u64) as usize;
    let wanted: Vec<usize> = (anchor..anchor + TS_SAMPLE_RUN).collect();
    // One phase: the trainer runs on this thread until the serving window
    // closes; the server thread runs the open-loop rung.
    let phase = |p: &mut Prepared, engine: ServeEngine, traced: bool| {
        let base = clock.now_ns() + 5 * MS;
        let until = base + secs_ns(args);
        std::thread::scope(|s| {
            let server = s.spawn(|| {
                let mut rec = recorder(traced, epoch, 2, 4 * schedule.len() + 1024);
                let mut scorer = SnapshotScorer {
                    engine,
                    store: &store,
                    model_age_ns: Vec::with_capacity(schedule.len()),
                    latest_ns: Vec::with_capacity(schedule.len()),
                    sampler: Sampler::new(wanted.clone()),
                };
                let mut o = run_rung(&clock, &mut scorer, &schedule, &rung_cfg, base, 0, &mut rec);
                o.rate_qps = TS_RATE;
                (o, scorer, rec)
            });
            let mut rec = recorder(traced, epoch, 1, 1 << 16);
            let w = train::measure(p, TS_BATCH, until, &mut rec, Some(&publisher));
            let (o, scorer, srec) = server.join().expect("server thread");
            (w, rec, o, scorer, srec)
        })
    };

    let (a, _, oa, scorer_a, _) = phase(&mut p, engine, false);
    window_lines(report, "trainer window", &a);
    rung_line(report, "server rung (nominal)", &oa, &rung_cfg);
    let untraced = train_serve_metrics(&a, &oa);
    untraced.report_e2e(report);
    let mut windows = vec![a];
    let mut failed = oa.failed;
    let mut attempted = oa.attempted();
    let mut sampled = scorer_a.sampler.kept.len();
    let mut mismatched_scores = scorer_a.sampler.mismatches(None);
    let engine = scorer_a.engine;
    report.line(format!(
        "model age p50 {:.3} ms",
        stats::median(&scorer_a.model_age_ns) / 1e6
    ));
    // Unpin the sampled snapshots before the next phase publishes.
    drop(scorer_a.sampler);
    if args.traced {
        let (b, rec, ob, scorer_b, srec) = phase(&mut p, engine, true);
        window_lines(report, "traced trainer window", &b);
        rung_line(report, "traced server rung (nominal)", &ob, &rung_cfg);
        train_serve_metrics(&b, &ob).report_traced(&untraced, report);
        train_layers(report, &b);
        serve_layers(report, &ob, scorer_b.engine.cache_hit_rate());
        report
            .layers
            .insert("snapshot.latest_us", stats::mean(&scorer_b.latest_ns) / 1e3);
        report.layers.insert(
            "snapshot.model_age_ms_p50",
            stats::median(&scorer_b.model_age_ns) / 1e6,
        );
        failed += ob.failed;
        attempted += ob.attempted();
        sampled += scorer_b.sampler.kept.len();
        mismatched_scores += scorer_b.sampler.mismatches(None);
        recs.push(rec);
        recs.push(srec);
        windows.push(b);
    }
    let tail_nonfinite = train::drain(&mut p);
    train_gates(report, &windows, mismatched, tail_nonfinite);
    serve_gates(report, sampled, mismatched_scores, failed, attempted);
}

fn train_serve_metrics(w: &Window, o: &RungOutcome) -> WindowMetrics {
    let (p50_ms, _, tail_ms) = latency_ms(&o.latency_ns);
    WindowMetrics {
        throughput: w.samples_per_s(),
        p50_ms,
        tail_ms,
    }
}
