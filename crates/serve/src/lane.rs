//! The serving lane: one admission queue's state machine, and the only
//! code in this crate that admits, sheds, batches, scores and accounts
//! queries. A lane never moves time: its driver owns the clock (see the
//! crate docs' clock table), and snapshot resolution and freshness
//! recording stay with the drivers.

use std::collections::VecDeque;
use std::time::Instant;

use crate::engine::{ScoredBatch, ServeEngine};
use crate::queue::{AdmissionQueue, BatchPolicy, Decision, QueuedQuery};
use crate::request::{ArrivalProcess, QueryModel, RateCurve};
use crate::stats::ServeReport;
use tcast_dlrm::Dlrm;
use tcast_embedding::EmbeddingError;
use tcast_tensor::SplitMix64;

/// Where a lane's queries come from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Arrivals {
    /// Open-loop Poisson arrivals, or closed-loop clients.
    Process(ArrivalProcess),
    /// Open-loop arrivals under a time-varying rate.
    Curve(RateCurve),
}

/// One admission queue with its arrival schedule and accounting.
pub(crate) struct Lane {
    queue: AdmissionQueue,
    arrivals: Arrivals,
    closed_loop: bool,
    rng: SplitMix64,
    /// Issue times of queries not yet admitted. Open loop keeps exactly
    /// the next arrival here; closed loop keeps one entry per client
    /// between completion (plus think time) and admission. Completions
    /// only append later times, so the FIFO stays sorted.
    pending: VecDeque<u64>,
    issued: usize,
    completed: usize,
    total: usize,
    shed_unmeetable: bool,
    /// The last fired batch; reused, so steady-state firing allocates
    /// nothing once it reaches the largest batch the policy fires.
    batch: Vec<QueuedQuery>,
    shed_buf: Vec<QueuedQuery>,
    /// Clock at the first fire (the start of the measured span).
    started_ns: u64,
    /// Batch, sample, latency and SLA counters as they accrue.
    report: ServeReport,
}

impl Lane {
    /// A lane that will issue `queries` queries under `policy`, accounted
    /// against an exclusive `sla_ns` deadline. `seed` drives the
    /// open-loop arrival schedule.
    pub(crate) fn new(
        arrivals: Arrivals,
        policy: BatchPolicy,
        queries: usize,
        sla_ns: u64,
        shed_unmeetable: bool,
        seed: u64,
    ) -> Self {
        let mut lane = Self {
            queue: AdmissionQueue::new(policy),
            arrivals,
            closed_loop: false,
            rng: SplitMix64::new(seed),
            pending: VecDeque::new(),
            issued: 0,
            completed: 0,
            total: queries,
            shed_unmeetable,
            batch: Vec::new(),
            shed_buf: Vec::new(),
            started_ns: 0,
            report: ServeReport {
                sla_ns,
                ..Default::default()
            },
        };
        if let Arrivals::Process(ArrivalProcess::ClosedLoop { clients, .. }) = arrivals {
            // Every client issues its first query at time zero.
            lane.closed_loop = true;
            lane.issued = clients.max(1).min(queries);
            lane.pending.extend(std::iter::repeat_n(0, lane.issued));
        } else {
            lane.issue(0);
        }
        lane
    }

    /// Schedules the next query after `after_ns`: the next open-loop
    /// arrival, or a closed-loop client's next request after its think
    /// time. No-op once every query is issued.
    fn issue(&mut self, after_ns: u64) {
        if self.issued >= self.total {
            return;
        }
        let at = match self.arrivals {
            Arrivals::Process(ArrivalProcess::ClosedLoop { think_ns, .. }) => after_ns + think_ns,
            Arrivals::Process(process) => after_ns + process.next_gap_ns(&mut self.rng),
            Arrivals::Curve(curve) => curve.next_arrival_after(after_ns, &mut self.rng),
        };
        self.pending.push_back(at);
        self.issued += 1;
    }

    /// `n` queries completed (scored or shed) at `now_ns`: in a closed
    /// loop each frees its client to issue the next one.
    fn retire(&mut self, n: usize, now_ns: u64) {
        self.completed += n;
        if self.closed_loop {
            for _ in 0..n {
                self.issue(now_ns);
            }
        }
    }

    /// Admits every query due by `now_ns` (drawing it from `workload`),
    /// then, if shedding is on, sheds the queries whose deadline is
    /// already unmeetable. Returns whether the lane went from idle to
    /// backlogged.
    pub(crate) fn admit(&mut self, now_ns: u64, workload: &mut QueryModel) -> bool {
        let was_idle = self.queue.is_empty();
        let mut admitted = false;
        while let Some(&at) = self.pending.front() {
            if at > now_ns {
                break;
            }
            self.pending.pop_front();
            self.queue.push(workload.draw(), at);
            admitted = true;
            // Open-loop arrivals replenish themselves; closed-loop
            // arrivals replenish on completion.
            if !self.closed_loop {
                self.issue(at);
            }
        }
        // Graceful degradation: a fired batch spends its service time
        // only on queries still inside their budget. A shed query
        // completes (and frees its closed-loop client) without a latency
        // sample or a violation.
        if self.shed_unmeetable {
            self.queue
                .shed_expired_into(now_ns, self.report.sla_ns, &mut self.shed_buf);
            let shed = self.shed_buf.len();
            self.shed_buf.clear();
            self.retire(shed, now_ns);
        }
        was_idle && admitted
    }

    /// Whether every query has completed (scored or shed).
    pub(crate) fn done(&self) -> bool {
        self.completed >= self.total
    }

    /// Whether queries wait in the admission queue.
    pub(crate) fn backlogged(&self) -> bool {
        !self.queue.is_empty()
    }

    /// The earliest issued query not yet admitted.
    pub(crate) fn next_arrival_ns(&self) -> Option<u64> {
        self.pending.front().copied()
    }

    /// The batching policy's decision at `now_ns`. "More arrivals" means
    /// a query can still arrive before the next batch fires: open-loop
    /// traffic keeps coming until every query is issued, but closed-loop
    /// arrivals are completion-driven, so once `pending` drains nothing
    /// can arrive until the queue fires. A policy that kept waiting for
    /// a fuller batch would deadlock (Fixed { batch: 8 } with only 2
    /// clients in flight).
    pub(crate) fn decide(&self, now_ns: u64) -> Decision {
        self.queue.decide(now_ns, !self.pending.is_empty())
    }

    /// Moves the oldest `n` queries into the fired batch at `now_ns`.
    fn take(&mut self, n: usize, now_ns: u64) {
        self.queue.take_into(n, &mut self.batch);
        if self.completed == 0 {
            self.started_ns = now_ns;
        }
        self.report.batches += 1;
    }

    /// Fires the oldest `n` queries at `now_ns`: scores them against
    /// `model` and returns the scores with the wall time of the score
    /// call. The batch completes when the driver calls
    /// [`Lane::complete`].
    pub(crate) fn fire<'e>(
        &mut self,
        engine: &'e mut ServeEngine,
        model: &Dlrm,
        n: usize,
        now_ns: u64,
    ) -> Result<(ScoredBatch<'e>, u64), EmbeddingError> {
        self.take(n, now_ns);
        let t0 = Instant::now();
        let scored = engine.score_queued(model, &self.batch)?;
        let wall_ns = t0.elapsed().as_nanos() as u64;
        self.report.samples += scored.num_samples() as u64;
        Ok((scored, wall_ns))
    }

    /// The last fired batch, in fused order.
    pub(crate) fn fired(&self) -> &[QueuedQuery] {
        &self.batch
    }

    /// The fired batch completed at `done_ns` after `service_ns` of
    /// service: records every query's latency and SLA outcome and feeds
    /// the batch latency back to the policy.
    pub(crate) fn complete(&mut self, done_ns: u64, service_ns: u64) {
        let report = &mut self.report;
        report.service.record(service_ns);
        let oldest = self.batch.first().expect("a fired batch is non-empty");
        self.queue.observe_batch(done_ns - oldest.arrival_ns);
        for item in &self.batch {
            let latency = done_ns - item.arrival_ns;
            report.latency.record(latency);
            // Exclusive deadline: meet iff latency < sla_ns, matching
            // the shed and adaptive-batcher boundary.
            if latency >= report.sla_ns {
                report.sla_violations += 1;
            }
        }
        self.retire(self.batch.len(), done_ns);
    }

    /// The lane's report over a clock span of `span_ns`.
    pub(crate) fn into_report(self, span_ns: u64, cache_hit_rate: f64) -> ServeReport {
        ServeReport {
            queries: self.completed as u64,
            span_ns,
            max_queue_depth: self.queue.max_depth(),
            cache_hit_rate,
            shed: self.queue.shed_count(),
            ..self.report
        }
    }
}

/// One lane on the measured clock: a fired batch advances the clock by
/// the wall time of its score call, and [`Measured::advance`] charges
/// other work done between batches (online update steps, restores).
pub(crate) struct Measured {
    pub(crate) lane: Lane,
    clock_ns: u64,
}

impl Measured {
    pub(crate) fn new(lane: Lane) -> Self {
        Self { lane, clock_ns: 0 }
    }

    /// Admits and decides until the lane wants to fire, moving the clock
    /// through idle time to the next arrival or batching deadline.
    /// Returns the batch size to fire, or `None` once every query has
    /// completed.
    pub(crate) fn next_batch(&mut self, workload: &mut QueryModel) -> Option<usize> {
        loop {
            self.lane.admit(self.clock_ns, workload);
            if self.lane.done() {
                return None;
            }
            let next = self.lane.next_arrival_ns();
            self.clock_ns = match self.lane.decide(self.clock_ns) {
                Decision::Fire(n) => return Some(n),
                Decision::WaitUntil(t) => next.map_or(t, |at| at.min(t)).max(self.clock_ns + 1),
                Decision::Wait => next
                    .expect("idle queue with no future arrivals cannot happen mid-run")
                    .max(self.clock_ns),
            };
        }
    }

    /// Fires `n` queries against `model`; the batch completes after the
    /// measured wall time of its score call.
    pub(crate) fn fire<'e>(
        &mut self,
        engine: &'e mut ServeEngine,
        model: &Dlrm,
        n: usize,
    ) -> Result<ScoredBatch<'e>, EmbeddingError> {
        let (scored, wall_ns) = self.lane.fire(engine, model, n, self.clock_ns)?;
        self.finish(wall_ns);
        Ok(scored)
    }

    fn finish(&mut self, service_ns: u64) {
        self.clock_ns += service_ns;
        self.lane.complete(self.clock_ns, service_ns);
    }

    /// Charges `by_ns` of measured work between batches to the clock.
    pub(crate) fn advance(&mut self, by_ns: u64) {
        self.clock_ns += by_ns;
    }

    /// The report; the span runs from the first fire to the clock now.
    pub(crate) fn into_report(self, cache_hit_rate: f64) -> ServeReport {
        let span_ns = self.clock_ns.saturating_sub(self.lane.started_ns).max(1);
        self.lane.into_report(span_ns, cache_hit_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::CandidateCount;
    use tcast_dlrm::DlrmConfig;

    fn workload(seed: u64) -> QueryModel {
        let cfg = DlrmConfig::tiny();
        QueryModel::new(
            &cfg.table_workloads(),
            cfg.dense_features,
            12,
            CandidateCount::Fixed(3),
            1.0,
            seed,
        )
    }

    fn closed(clients: usize) -> Arrivals {
        Arrivals::Process(ArrivalProcess::ClosedLoop {
            clients,
            think_ns: 0,
        })
    }

    /// A query's trace through a synthetic run: arrival, completion, and
    /// the index of the batch that served it.
    type Served = (u64, u64, usize);

    /// Drives `lane` on a synthetic measured clock where batch `k` takes
    /// exactly `service(k)` ns (no engine: only the clock and the
    /// accounting run).
    fn drive(
        lane: Lane,
        workload: &mut QueryModel,
        service: impl Fn(usize) -> u64,
    ) -> (ServeReport, Vec<Served>) {
        let mut run = Measured::new(lane);
        let mut served = Vec::new();
        let mut k = 0;
        while let Some(n) = run.next_batch(workload) {
            run.lane.take(n, run.clock_ns);
            run.finish(service(k));
            let done = run.clock_ns;
            served.extend(run.lane.fired().iter().map(|q| (q.arrival_ns, done, k)));
            k += 1;
        }
        (run.into_report(0.0), served)
    }

    #[test]
    fn a_long_service_inflates_every_query_behind_it_by_exactly_the_stall() {
        // Overloaded open loop (~10 arrivals per 4-query batch time), so
        // the queue never drains and batch composition cannot depend on
        // timing: stretching batch 2 by STALL shifts every later
        // completion, and nothing earlier, by exactly STALL.
        const SERVICE: u64 = 100_000;
        const STALL: u64 = 1_000_000;
        let lane = || {
            Lane::new(
                Arrivals::Process(ArrivalProcess::Poisson {
                    mean_qps: 100_000.0,
                }),
                BatchPolicy::Fixed { batch: 4 },
                200,
                u64::MAX,
                false,
                7,
            )
        };
        let (base, base_served) = drive(lane(), &mut workload(3), |_| SERVICE);
        let (stalled, stalled_served) = drive(lane(), &mut workload(3), |k| {
            if k == 2 {
                SERVICE + STALL
            } else {
                SERVICE
            }
        });
        assert_eq!(base_served.len(), 200);
        assert_eq!(stalled_served.len(), 200);
        let stall_start = stalled_served[8].1 - SERVICE - STALL;
        let stall_end = stalled_served[8].1;
        let mut arrived_during_stall = 0;
        for (b, s) in base_served.iter().zip(&stalled_served) {
            assert_eq!(b.0, s.0, "open-loop arrivals ignore service");
            assert_eq!(b.2, s.2, "batch composition is unchanged");
            let inflation = (s.1 - s.0) - (b.1 - b.0);
            assert_eq!(inflation, if s.2 >= 2 { STALL } else { 0 });
            if (stall_start..stall_end).contains(&s.0) {
                arrived_during_stall += 1;
            }
        }
        assert!(arrived_during_stall > 50, "{arrived_during_stall}");
        let inflated = stalled_served.iter().filter(|s| s.2 >= 2).count() as u64;
        let sum = |r: &ServeReport| (r.latency.mean_ns() * r.latency.count() as f64) as u64;
        assert_eq!(sum(&stalled) - sum(&base), inflated * STALL);
        assert_eq!(stalled.latency.max_ns(), base.latency.max_ns() + STALL);
        assert_eq!(stalled.span_ns, base.span_ns + STALL);
    }

    #[test]
    fn latency_equal_to_the_sla_is_a_violation_and_one_below_is_not() {
        const SLA: u64 = 10_000;
        // One client, one query per batch: query 0 arrives at 0 and
        // takes SLA - 1; query 1 arrives when it completes and takes SLA.
        let lane = Lane::new(closed(1), BatchPolicy::Fixed { batch: 1 }, 2, SLA, false, 0);
        let (report, served) = drive(lane, &mut workload(5), |k| [SLA - 1, SLA][k]);
        assert_eq!(served, vec![(0, SLA - 1, 0), (SLA - 1, 2 * SLA - 1, 1)]);
        assert_eq!(report.latency.min_ns(), SLA - 1);
        assert_eq!(report.latency.max_ns(), SLA);
        assert_eq!(report.sla_violations, 1);
    }

    #[test]
    fn batch_clients_without_think_time_give_each_query_its_batch_service_time() {
        // The engine-paced loop `serve_concurrent` runs: `batch` clients,
        // think time 0, Fixed { batch } — one full batch in flight, so a
        // query's latency is exactly its batch's service time and the
        // span is the summed service.
        let services = [100, 250, 40];
        let lane = Lane::new(
            closed(4),
            BatchPolicy::Fixed { batch: 4 },
            10,
            200,
            false,
            0,
        );
        let mut w = workload(9);
        let (report, served) = drive(lane, &mut w, |k| services[k]);
        let batch_of: Vec<usize> = served.iter().map(|s| s.2).collect();
        assert_eq!(batch_of, [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]);
        for &(arrival, done, k) in &served {
            assert_eq!(done - arrival, services[k]);
        }
        assert_eq!(report.queries, 10);
        assert_eq!(report.batches, 3);
        assert_eq!(report.span_ns, 390);
        assert_eq!(report.latency.mean_ns(), 1480.0 / 10.0);
        assert_eq!(report.latency.min_ns(), 40);
        assert_eq!(report.latency.max_ns(), 250);
        assert_eq!(report.sla_violations, 4, "only the 250 ns batch misses");
        assert_eq!(report.max_queue_depth, 4);
        assert_eq!(report.service.count(), 3);
    }

    #[test]
    fn queries_are_drawn_in_admission_order() {
        let lane = Lane::new(
            closed(4),
            BatchPolicy::Fixed { batch: 4 },
            10,
            200,
            false,
            0,
        );
        let mut run = Measured::new(lane);
        let mut w = workload(9);
        let mut oracle = workload(9);
        while let Some(n) = run.next_batch(&mut w) {
            run.lane.take(n, run.clock_ns);
            for q in run.lane.fired() {
                assert_eq!(q.query.id, oracle.draw().id);
            }
            run.finish(1);
        }
    }
}
