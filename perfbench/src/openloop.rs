//! The open-loop serving driver: queries arrive on a seeded schedule
//! whether or not the server keeps up, and every latency is timed from
//! the query's due time, so a stall shows on every query due during it.
//!
//! One thread runs the whole loop: it admits every query whose due time
//! has passed into the [`AdmissionQueue`], asks the batching policy what
//! to do, and scores fused batches through a [`Scorer`]. While it scores,
//! later arrivals wait unadmitted; the lag from due time to admission is
//! recorded as the generator's lateness.
//!
//! The clock and the scorer are traits so that the accounting can be
//! tested against a fake engine on a fake clock.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tcast_serve::{AdmissionQueue, BatchPolicy, Decision, Query, QueuedQuery};
use tcast_tensor::SplitMix64;

use crate::stats;
use crate::trace::{Recorder, SpanId, NO_SPAN};

/// A nanosecond clock the driver can wait on.
pub trait Clock {
    /// Nanoseconds since the clock's epoch.
    fn now_ns(&self) -> u64;
    /// Returns once `now_ns() >= t_ns`.
    fn wait_until(&self, t_ns: u64);
}

/// The wall clock, sharing the run's epoch with its span recorders.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A clock counting from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self { epoch }
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn wait_until(&self, t_ns: u64) {
        // Sleep through most of the gap, then spin the rest: waking an
        // idle virtual CPU from a sleep can take longer than the gap.
        const SPIN_NS: u64 = 300_000;
        loop {
            let now = self.now_ns();
            if now >= t_ns {
                return;
            }
            let left = t_ns - now;
            if left > 2 * SPIN_NS {
                std::thread::sleep(Duration::from_nanos(left - SPIN_NS));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// Scores one fused batch.
pub trait Scorer {
    /// Scores `batch`, whose first query has arrival sequence number
    /// `first_seq`. Spans go to `rec` under `parent`.
    ///
    /// # Errors
    ///
    /// A failed score fails every query of the batch.
    fn score(
        &mut self,
        first_seq: usize,
        batch: &[QueuedQuery],
        rec: &mut Recorder,
        parent: SpanId,
    ) -> Result<(), String>;
}

/// One scheduled query.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// Due time relative to the rung's start.
    pub due_ns: u64,
    /// The query.
    pub query: Arc<Query>,
}

/// Poisson arrivals at `rate_qps` over `duration`, conditioned on their
/// count: exactly `rate_qps * duration` queries at uniformly random times,
/// sorted. Within a run the gaps are those of a Poisson process; across
/// seeds the offered load does not vary, so neither does the achieved rate.
/// Each query comes from `draw`. Fully determined by `seed` and the draws.
pub fn poisson_schedule(
    rate_qps: f64,
    duration: Duration,
    seed: u64,
    mut draw: impl FnMut() -> Arc<Query>,
) -> Vec<Arrival> {
    let mut rng = SplitMix64::new(seed);
    let span = duration.as_nanos() as u64;
    let n = (rate_qps * duration.as_secs_f64()).round() as usize;
    let mut due: Vec<u64> = (0..n).map(|_| rng.next_below(span.max(1))).collect();
    due.sort_unstable();
    due.into_iter()
        .map(|due_ns| Arrival {
            due_ns,
            query: draw(),
        })
        .collect()
}

/// How a rung is run and judged.
#[derive(Debug, Clone)]
pub struct RungConfig {
    /// The batching policy.
    pub policy: BatchPolicy,
    /// Tail-latency objective (ns) a passing rung must meet.
    pub slo_ns: u64,
    /// How long after the last due time the driver keeps draining before
    /// it abandons what is left (abandoned queries fail).
    pub drain_limit_ns: u64,
    /// Backlog rise (queries) between the rung's second and last quarter
    /// that counts as growth.
    pub growth_slack: usize,
}

/// What one rung measured.
#[derive(Debug, Clone, Default)]
pub struct RungOutcome {
    /// Offered rate.
    pub rate_qps: f64,
    /// Per query, due time to the return of the `score` call that carried
    /// it; infinite for failed or abandoned queries.
    pub latency_ns: Vec<f64>,
    /// Per taken query, due time to `AdmissionQueue::take_into` return.
    pub queue_wait_ns: Vec<f64>,
    /// Per admitted query, due time to `AdmissionQueue::push`.
    pub admit_lag_ns: Vec<f64>,
    /// Per batch, duration of the scorer call.
    pub score_ns: Vec<f64>,
    /// Per batch, queries fused.
    pub batch_queries: Vec<usize>,
    /// `(time, queries due but not yet taken)` after each batch.
    pub backlog: Vec<(u64, usize)>,
    /// Queries that failed or were abandoned.
    pub failed: usize,
    /// Queries still unserved when the drain limit passed.
    pub abandoned: usize,
    /// Absolute time of the first and last due query.
    pub first_due_ns: u64,
    /// See `first_due_ns`.
    pub last_due_ns: u64,
    /// When the last batch returned.
    pub end_ns: u64,
}

impl RungOutcome {
    /// Queries scheduled.
    pub fn attempted(&self) -> usize {
        self.latency_ns.len()
    }

    /// `(percentile, ns)` of the tail under the reporting rule.
    pub fn tail(&self) -> Option<(f64, f64)> {
        stats::block_tail(&self.latency_ns)
    }

    /// Queries completed per second between the first due time and the
    /// last return.
    pub fn achieved_qps(&self) -> f64 {
        let done = self.attempted() - self.failed;
        let span = self.end_ns.saturating_sub(self.first_due_ns).max(1);
        done as f64 * 1e9 / span as f64
    }

    /// Whether the backlog grew over the rung: the median backlog in the
    /// last quarter of the arrival window exceeds the one in the second
    /// quarter by more than `slack`, or the rung had to abandon queries.
    pub fn backlog_grew(&self, slack: usize) -> bool {
        if self.abandoned > 0 {
            return true;
        }
        let len = self.last_due_ns.saturating_sub(self.first_due_ns);
        let at = |q: u64| self.first_due_ns + len * q / 4;
        let quarter = |lo: u64, hi: u64| -> Option<f64> {
            let v: Vec<f64> = self
                .backlog
                .iter()
                .filter(|(t, _)| (lo..hi).contains(t))
                .map(|&(_, b)| b as f64)
                .collect();
            (!v.is_empty()).then(|| stats::median(&v))
        };
        match (quarter(at(1), at(2)), quarter(at(3), at(4) + 1)) {
            (Some(early), Some(late)) => late > early + slack as f64,
            // No batch finished inside a quarter: service is slower than a
            // quarter of the rung, which no stable server shows.
            _ => true,
        }
    }

    /// Whether the rung meets its objective: no failed query, tail latency
    /// within the SLO, and no backlog growth.
    pub fn passes(&self, cfg: &RungConfig) -> bool {
        self.failed == 0
            && self.tail().is_some_and(|(_, t)| t <= cfg.slo_ns as f64)
            && !self.backlog_grew(cfg.growth_slack)
    }
}

/// Runs one rung: `schedule` (due times relative to `base_ns`) through the
/// admission queue and `scorer`. `seq_base` numbers the rung's queries for
/// the scorer and the spans. The caller fills in the outcome's rate.
pub fn run_rung<C: Clock, S: Scorer>(
    clock: &C,
    scorer: &mut S,
    schedule: &[Arrival],
    cfg: &RungConfig,
    base_ns: u64,
    seq_base: usize,
    rec: &mut Recorder,
) -> RungOutcome {
    let n = schedule.len();
    let due = |i: usize| base_ns + schedule[i].due_ns;
    let mut out = RungOutcome {
        latency_ns: vec![f64::INFINITY; n],
        queue_wait_ns: Vec::with_capacity(n),
        admit_lag_ns: Vec::with_capacity(n),
        score_ns: Vec::with_capacity(n),
        batch_queries: Vec::with_capacity(n),
        backlog: Vec::with_capacity(n),
        first_due_ns: if n > 0 { due(0) } else { base_ns },
        last_due_ns: if n > 0 { due(n - 1) } else { base_ns },
        ..RungOutcome::default()
    };
    let give_up_at = out.last_due_ns + cfg.drain_limit_ns;
    let mut queue = AdmissionQueue::new(cfg.policy.clone());
    let mut batch: Vec<QueuedQuery> = Vec::new();
    let (mut admitted, mut taken, mut batches) = (0usize, 0usize, 0u64);
    loop {
        let now = clock.now_ns();
        while admitted < n && due(admitted) <= now {
            let d = due(admitted);
            // The queue sees the due time as the arrival time, so the
            // batching deadline runs from when the query was sent.
            queue.push(Arc::clone(&schedule[admitted].query), d);
            out.admit_lag_ns.push((now - d) as f64);
            rec.record("serve.admit", d, now, NO_SPAN, (seq_base + admitted) as u64);
            admitted += 1;
        }
        if now > give_up_at {
            break;
        }
        match queue.decide(now, admitted < n) {
            Decision::Fire(k) => {
                let span = rec.begin("serve.batch", NO_SPAN, batches);
                queue.take_into(k, &mut batch);
                let taken_at = clock.now_ns();
                rec.record("serve.take", now, taken_at, span, batches);
                for i in taken..taken + k {
                    out.queue_wait_ns.push((taken_at - due(i)) as f64);
                }
                let scored = scorer.score(seq_base + taken, &batch, rec, span);
                let done = clock.now_ns();
                out.score_ns.push((done - taken_at) as f64);
                out.batch_queries.push(k);
                for i in taken..taken + k {
                    if scored.is_ok() {
                        out.latency_ns[i] = (done - due(i)) as f64;
                    } else {
                        out.failed += 1;
                    }
                }
                taken += k;
                batches += 1;
                rec.end(span);
                let due_by_now = schedule.partition_point(|a| base_ns + a.due_ns <= done);
                out.backlog.push((done, due_by_now - taken));
                out.end_ns = done;
            }
            Decision::WaitUntil(t) => {
                let next = if admitted < n { due(admitted) } else { t };
                clock.wait_until(t.min(next));
            }
            Decision::Wait if admitted < n => clock.wait_until(due(admitted)),
            Decision::Wait => break,
        }
    }
    out.abandoned = n - taken;
    out.failed += out.abandoned;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcast_tensor::Matrix;

    /// A clock that only moves when told to: the fake engine advances it by
    /// its service time, waits jump straight to their target.
    #[derive(Debug, Default)]
    struct FakeClock {
        now: std::cell::Cell<u64>,
    }

    impl FakeClock {
        /// Moves the clock forward by `ns`.
        fn advance(&self, ns: u64) {
            self.now.set(self.now.get() + ns);
        }
    }

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.now.get()
        }

        fn wait_until(&self, t_ns: u64) {
            self.now.set(self.now.get().max(t_ns));
        }
    }

    /// Scores every batch in a fixed service time; batch `stall_batch`
    /// additionally stalls for `stall_ns`.
    struct FakeEngine<'c> {
        clock: &'c FakeClock,
        service_ns: u64,
        stall_batch: Option<usize>,
        stall_ns: u64,
        batches: usize,
    }

    impl Scorer for FakeEngine<'_> {
        fn score(
            &mut self,
            _first_seq: usize,
            _batch: &[QueuedQuery],
            _rec: &mut Recorder,
            _parent: SpanId,
        ) -> Result<(), String> {
            self.clock.advance(self.service_ns);
            if self.stall_batch == Some(self.batches) {
                self.clock.advance(self.stall_ns);
            }
            self.batches += 1;
            Ok(())
        }
    }

    fn query() -> Arc<Query> {
        Arc::new(Query {
            id: 0,
            dense: Matrix::zeros(1, 1),
            indices: Vec::new().into(),
        })
    }

    fn every(gap_ns: u64, n: usize) -> Vec<Arrival> {
        (0..n as u64)
            .map(|i| Arrival {
                due_ns: i * gap_ns,
                query: query(),
            })
            .collect()
    }

    fn config(policy: BatchPolicy) -> RungConfig {
        RungConfig {
            policy,
            slo_ns: 10_000_000,
            drain_limit_ns: 1_000_000_000,
            growth_slack: 4,
        }
    }

    const MS: u64 = 1_000_000;

    #[test]
    fn a_stall_inflates_every_query_due_during_it() {
        let clock = FakeClock::default();
        let mut engine = FakeEngine {
            clock: &clock,
            service_ns: MS / 10,
            stall_batch: Some(10),
            stall_ns: 5 * MS,
            batches: 0,
        };
        let schedule = every(MS, 40);
        let cfg = config(BatchPolicy::Fixed { batch: 1 });
        let mut rec = Recorder::disabled(Instant::now());
        let out = run_rung(&clock, &mut engine, &schedule, &cfg, 0, 0, &mut rec);
        assert_eq!(out.failed, 0);
        // Query 10 is taken at 10 ms and returns after the stall at 15.1 ms.
        let stall_end = 10 * MS + MS / 10 + 5 * MS;
        assert_eq!(out.latency_ns[10], (stall_end - 10 * MS) as f64);
        // Queries 11..=15 fell due during the stall: each waits for it and
        // for the queries ahead of it, measured from its own due time.
        for i in 11..=15u64 {
            let done = stall_end + (i - 10) * MS / 10;
            assert_eq!(
                out.latency_ns[i as usize],
                (done - i * MS) as f64,
                "query {i}"
            );
            // Timed from admission instead, the stall would vanish: the
            // score itself took only the service time.
            assert!(out.latency_ns[i as usize] - out.queue_wait_ns[i as usize] <= (MS / 10) as f64);
            assert!(out.admit_lag_ns[i as usize] > 0.0);
        }
        // The queue has drained by query 16, which sees only service time.
        assert_eq!(out.latency_ns[16], (MS / 10) as f64);
        // The worst latency is the stall plus its own service time.
        let worst = *stats::sorted(out.latency_ns.clone()).last().unwrap();
        assert_eq!(worst, (5 * MS + MS / 10) as f64);
    }

    #[test]
    fn ladder_backlog_test_separates_stable_from_overloaded_rungs() {
        // Deadline batching up to 4 queries per 1 ms batch: capacity is
        // 4000 queries/s.
        let policy = BatchPolicy::Deadline {
            max_batch: 4,
            max_wait_ns: MS,
        };
        let cfg = config(policy);
        let run = |rate: f64| {
            let clock = FakeClock::default();
            let mut engine = FakeEngine {
                clock: &clock,
                service_ns: MS,
                stall_batch: None,
                stall_ns: 0,
                batches: 0,
            };
            let schedule = poisson_schedule(rate, Duration::from_secs(1), 7, query);
            let mut rec = Recorder::disabled(Instant::now());
            run_rung(&clock, &mut engine, &schedule, &cfg, 0, 0, &mut rec)
        };
        let light = run(1000.0);
        assert!(!light.backlog_grew(cfg.growth_slack));
        assert!(light.passes(&cfg));
        assert!((light.achieved_qps() - 1000.0).abs() < 100.0);
        let heavy = run(6000.0);
        assert!(heavy.backlog_grew(cfg.growth_slack));
        assert!(!heavy.passes(&cfg));
    }

    #[test]
    fn abandoned_queries_fail_and_count_as_growth() {
        let clock = FakeClock::default();
        let mut engine = FakeEngine {
            clock: &clock,
            service_ns: 10 * MS,
            stall_batch: None,
            stall_ns: 0,
            batches: 0,
        };
        let schedule = every(MS, 50);
        let mut cfg = config(BatchPolicy::Fixed { batch: 1 });
        cfg.drain_limit_ns = 5 * MS;
        let mut rec = Recorder::disabled(Instant::now());
        let out = run_rung(&clock, &mut engine, &schedule, &cfg, 0, 0, &mut rec);
        assert!(out.abandoned > 0);
        assert_eq!(out.failed, out.abandoned);
        assert!(out.latency_ns.iter().any(|l| l.is_infinite()));
        assert!(out.backlog_grew(cfg.growth_slack));
    }

    #[test]
    fn poisson_schedule_is_seeded_and_hits_its_rate() {
        let a = poisson_schedule(2000.0, Duration::from_secs(2), 3, query);
        let b = poisson_schedule(2000.0, Duration::from_secs(2), 3, query);
        assert_eq!(
            a.iter().map(|x| x.due_ns).collect::<Vec<_>>(),
            b.iter().map(|x| x.due_ns).collect::<Vec<_>>()
        );
        assert_eq!(a.len(), 4000);
        // Poisson gaps: mean 1/rate, and about 1/e of them longer than it.
        let gaps: Vec<u64> = a.windows(2).map(|w| w[1].due_ns - w[0].due_ns).collect();
        let mean = gaps.iter().sum::<u64>() as f64 / gaps.len() as f64;
        assert!((mean - 500_000.0).abs() < 25_000.0, "{mean}");
        let long = gaps.iter().filter(|&&g| g as f64 > mean).count() as f64 / gaps.len() as f64;
        assert!((long - (-1.0f64).exp()).abs() < 0.03, "{long}");
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
    }
}
