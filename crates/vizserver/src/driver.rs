//! Query drivers: processes that submit queries to the pipeline and record
//! per-query response times.
//!
//! Two regimes cover all of the paper's application experiments:
//!
//! * **open loop** — queries are submitted at fixed instants regardless of
//!   completion (the "guarantee a frame rate" experiments, Figures 7/8):
//!   complete updates stream at the target rate while probe queries measure
//!   latency under that load;
//! * **closed loop** — the next query is submitted when the previous one
//!   completes (the query-mix experiment, Figure 9): average response time
//!   of an interactive client.

use crate::pipeline::{QueryDesc, QueryKind, UowDone};
use hpsock_datacutter::UowStartMsg;
use hpsock_sim::{
    Ctx, Dur, FxHashMap, Message, Probe, ProbeEvent, Process, ProcessId, ResourceId, Sim, SimTime,
};
use std::sync::{Arc, Mutex};

/// What a probed run exposes about the simulation it ran, for trace
/// export and time-breakdown reports: the run's extent plus the identity
/// (name, server count) of every resource, indexed by `ResourceId` like
/// the probe bus's events.
///
/// Every `*_probed` driver (the guarantee runner, the query-mix driver,
/// the [`crate::hetero`] load balancers) returns one of these alongside
/// its measurement, so the experiments layer can attribute server-time
/// without re-deriving the topology.
#[derive(Debug, Clone)]
pub struct RunCapture {
    /// Final virtual time.
    pub end: SimTime,
    /// Resource names indexed by `ResourceId` (the Chrome-trace track
    /// table).
    pub resource_names: Vec<String>,
    /// Server count per resource, same indexing.
    pub servers: Vec<usize>,
    /// The run's event-trace digest — the determinism tests' witness that
    /// two runs (e.g. sequential vs under a shard plan) dispatched the
    /// same events in the same order.
    pub digest: u64,
}

impl RunCapture {
    /// Attach the probe `make_probe` builds from the resource names (all
    /// registered before the first event fires, so the probe observes the
    /// whole run), run `sim` to completion and snapshot it.
    pub fn run(
        sim: &mut Sim,
        make_probe: impl FnOnce(&[String]) -> Option<Box<dyn Probe>>,
    ) -> RunCapture {
        if let Some(p) = make_probe(&sim.resource_names()) {
            sim.attach_probe(p);
        }
        let end = sim.run();
        let resource_names = sim.resource_names();
        let servers = (0..resource_names.len())
            .map(|i| sim.resource(ResourceId(i)).servers())
            .collect();
        RunCapture {
            end,
            resource_names,
            servers,
            digest: sim.trace_digest(),
        }
    }
}

/// One completed query.
#[derive(Debug, Clone, Copy)]
pub struct QueryResult {
    /// Unit-of-work id.
    pub uow: u32,
    /// Query class.
    pub kind: QueryKind,
    /// Submission instant.
    pub submitted: SimTime,
    /// Completion instant (visualization filter saw the full result).
    pub completed: SimTime,
}

impl QueryResult {
    /// Response time.
    pub fn latency(&self) -> Dur {
        self.completed.since(self.submitted)
    }
}

/// Driving regime.
pub enum Plan {
    /// Submit each query at its absolute instant.
    OpenLoop(Vec<(SimTime, QueryDesc)>),
    /// Submit the next query when the previous completes.
    ClosedLoop(Vec<QueryDesc>),
}

/// Shared slot through which the pipeline's repository pids reach the
/// driver (the driver process is created before the pipeline).
pub type TargetSlot = Arc<Mutex<Vec<ProcessId>>>;

struct SubmitTick(usize);

/// The driver process.
pub struct QueryDriver {
    plan: Option<Plan>,
    targets: TargetSlot,
    queries: Vec<QueryDesc>,
    pending: FxHashMap<u32, (QueryKind, SimTime)>,
    /// Completed queries in completion order.
    pub results: Vec<QueryResult>,
    next_uow: u32,
    closed_next: usize,
    closed: bool,
}

impl QueryDriver {
    /// Create the driver inside `sim`; fill the returned [`TargetSlot`]
    /// with the repository pids after building the pipeline.
    pub fn install(sim: &mut Sim, plan: Plan) -> (ProcessId, TargetSlot) {
        let targets: TargetSlot = Arc::new(Mutex::new(Vec::new()));
        let driver = QueryDriver {
            plan: Some(plan),
            targets: Arc::clone(&targets),
            queries: Vec::new(),
            pending: FxHashMap::default(),
            results: Vec::new(),
            next_uow: 0,
            closed_next: 0,
            closed: false,
        };
        let pid = sim.add_process(Box::new(driver));
        (pid, targets)
    }

    fn submit(&mut self, ctx: &mut Ctx<'_>, q: QueryDesc) {
        let uow = self.next_uow;
        self.next_uow += 1;
        self.pending.insert(uow, (q.kind, ctx.now()));
        let kind = q.kind;
        ctx.probe_emit(|t| ProbeEvent::SpanBegin {
            track: "viz.queries".to_string(),
            label: format!("{} #{uow}", kind.label()),
            time: t,
            id: u64::from(uow),
        });
        let desc: Arc<dyn std::any::Any + Send + Sync> = Arc::new(q);
        let targets = self.targets.lock().expect("targets lock").clone();
        assert!(!targets.is_empty(), "driver targets were never installed");
        for pid in targets {
            ctx.send(
                pid,
                Message::new(UowStartMsg {
                    uow,
                    desc: Arc::clone(&desc),
                }),
            );
        }
    }

    /// Mean latency of completed queries of `kind`, in microseconds.
    pub fn mean_latency_us(&self, kind: QueryKind) -> Option<f64> {
        let xs: Vec<f64> = self
            .results
            .iter()
            .filter(|r| r.kind == kind)
            .map(|r| r.latency().as_micros_f64())
            .collect();
        if xs.is_empty() {
            None
        } else {
            Some(xs.iter().sum::<f64>() / xs.len() as f64)
        }
    }

    /// Mean latency across all completed queries, in microseconds.
    pub fn mean_latency_all_us(&self) -> Option<f64> {
        if self.results.is_empty() {
            return None;
        }
        Some(
            self.results
                .iter()
                .map(|r| r.latency().as_micros_f64())
                .sum::<f64>()
                / self.results.len() as f64,
        )
    }

    /// Achieved completions per second for `kind` over the span from the
    /// first submission to the last completion.
    pub fn achieved_rate(&self, kind: QueryKind) -> Option<f64> {
        let rs: Vec<&QueryResult> = self.results.iter().filter(|r| r.kind == kind).collect();
        let first = rs.iter().map(|r| r.submitted).min()?;
        let last = rs.iter().map(|r| r.completed).max()?;
        let span = last.since(first).as_secs_f64();
        if span <= 0.0 {
            None
        } else {
            Some(rs.len() as f64 / span)
        }
    }

    /// Number of queries submitted but not completed when the run ended.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }
}

impl Process for QueryDriver {
    fn name(&self) -> String {
        "query-driver".into()
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        match self.plan.take().expect("plan set at construction") {
            Plan::OpenLoop(items) => {
                for (i, (at, q)) in items.into_iter().enumerate() {
                    self.queries.push(q);
                    ctx.send_self_in(at.since(SimTime::ZERO), Message::new(SubmitTick(i)));
                }
            }
            Plan::ClosedLoop(items) => {
                self.queries = items;
                self.closed = true;
                if !self.queries.is_empty() {
                    let q = self.queries[0].clone();
                    self.closed_next = 1;
                    self.submit(ctx, q);
                }
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        let msg = match msg.downcast::<SubmitTick>() {
            Ok(tick) => {
                let q = self.queries[tick.0].clone();
                self.submit(ctx, q);
                return;
            }
            Err(m) => m,
        };
        match msg.downcast::<UowDone>() {
            Ok(done) => {
                let (kind, submitted) = self
                    .pending
                    .remove(&done.uow)
                    .expect("completion for a submitted query");
                self.results.push(QueryResult {
                    uow: done.uow,
                    kind,
                    submitted,
                    completed: done.at,
                });
                ctx.probe_emit(|_| ProbeEvent::SpanEnd {
                    track: "viz.queries".to_string(),
                    time: done.at,
                    id: u64::from(done.uow),
                });
                if self.closed && self.closed_next < self.queries.len() {
                    let q = self.queries[self.closed_next].clone();
                    self.closed_next += 1;
                    self.submit(ctx, q);
                }
            }
            Err(_) => panic!("driver received an unknown message"),
        }
    }
}
