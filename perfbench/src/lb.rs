//! `lb_faults`: the Figure 6 load balancer. `fig_faults` availability
//! runs (demand-driven, TCP / SocketVIA / VIA over the full fault
//! ladder), fig10 round-robin reaction points and fig11 demand-driven
//! execution points. The filter logics mirror `hpsock_vizserver::hetero`
//! so that setup and run can be timed apart; the pre-check proves the
//! composed jobs equal the library's one-call entry points.

use crate::jobs::{
    ensure, read_filters, read_net, run_sim, CountSink, Ctx, Job, JobOut, PreCheck, Rng, Workload,
};
use crate::trace::Tracer;
use hpsock_datacutter::{
    Action, DataBuffer, FilterCtx, FilterHandle, FilterLogic, GroupBuilder, Instance, Policy,
    SpeedModel,
};
use hpsock_experiments::{fig11, fig_faults};
use hpsock_net::{fault, Cluster, NodeId, TransportKind};
use hpsock_sim::{Dur, Sim, SimTime};
use hpsock_vizserver::{
    dd_execution_time_probed, faulted_lb_run, rr_reaction_time_probed, LbSetup, QueryDesc,
    QueryKind,
};
use socketvia::Provider;
use std::any::Any;
use std::collections::{HashSet, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Load-balancer source: one block per block-processing time.
struct LbSource {
    queue: VecDeque<u64>,
    block_bytes: u64,
    emit_interval: Dur,
}

impl FilterLogic for LbSource {
    fn on_uow_start(
        &mut self,
        _fc: &mut FilterCtx<'_>,
        uow: u32,
        desc: Arc<dyn Any + Send + Sync>,
    ) -> Action {
        let q = desc
            .downcast::<QueryDesc>()
            .expect("LB expects a QueryDesc");
        self.queue = q.blocks.iter().copied().collect();
        Action::compute(Dur::ZERO).and_continue(uow)
    }
    fn on_continue(&mut self, _fc: &mut FilterCtx<'_>, uow: u32) -> Action {
        match self.queue.pop_front() {
            Some(b) => Action::emit(
                self.emit_interval,
                0,
                DataBuffer::new(uow, self.block_bytes, b),
            )
            .and_continue(uow),
            None => Action::none().and_end_uow(uow),
        }
    }
}

/// Compute worker, optionally recording the distinct block tags it saw.
struct Worker {
    ns_per_byte: f64,
    seen: Option<Arc<Mutex<HashSet<u64>>>>,
}

impl FilterLogic for Worker {
    fn on_buffer(&mut self, _fc: &mut FilterCtx<'_>, _port: usize, buf: DataBuffer) -> Action {
        if let Some(seen) = &self.seen {
            seen.lock().expect("tag set lock").insert(buf.tag);
        }
        Action::compute(Dur::nanos(
            (self.ns_per_byte * buf.bytes as f64).round() as u64
        ))
    }
}

/// What kind of Figure 6 run a job is.
#[derive(Debug, Clone)]
enum Mode {
    /// `fig_faults` availability under a fault spec (demand-driven).
    Faulted { label: String, spec: String },
    /// fig10: round-robin, worker 0 turns `factor`x slower mid-run.
    Reaction { factor: f64 },
    /// fig11: demand-driven, each block slow with probability `prob`.
    DemandDriven { prob: f64, factor: f64 },
}

#[derive(Debug, Clone)]
struct Spec {
    kind: TransportKind,
    mode: Mode,
    seed: u64,
}

/// Outcome of one run, comparable with the library's.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    blocks: u32,
    /// Distinct blocks processed (faulted runs only).
    processed: Option<u64>,
    /// `[errors, retries, recovered, failovers, failed, stale]`.
    recovery: [u64; 6],
    /// Worker buffers processed.
    worker_buffers: u64,
    /// fig10 reaction time.
    reaction: Option<Dur>,
    end: SimTime,
    digest: u64,
}

fn blocks_for(spec: &Spec, setup: &LbSetup) -> u32 {
    let bytes = match spec.mode {
        Mode::Faulted { .. } => fig_faults::workload_bytes(false),
        Mode::Reaction { .. } => return 300,
        Mode::DemandDriven { .. } => fig11::WORKLOAD_BYTES,
    };
    (bytes / setup.block_bytes) as u32
}

fn slow_at(setup: &LbSetup) -> SimTime {
    let emit_ns = (setup.ns_per_byte * setup.block_bytes as f64) as u64;
    SimTime::ZERO + Dur::nanos(emit_ns * 100)
}

/// Build and run one Figure 6 job in the library's call order.
fn lb_job(ctx: &mut Ctx<'_>, spec: &Spec) -> (JobOut, Outcome) {
    let t0 = Instant::now();
    let setup = LbSetup::paper(spec.kind);
    let blocks = blocks_for(spec, &setup);
    let (mut sim, cluster) = ctx.tr.scope("setup.cluster", || {
        let mut sim = Sim::new(spec.seed);
        let cluster = Cluster::build(&mut sim, setup.workers + 1);
        (sim, cluster)
    });
    let seen =
        matches!(spec.mode, Mode::Faulted { .. }).then(|| Arc::new(Mutex::new(HashSet::new())));
    let (inst, lb, workers) = ctx.tr.scope("setup.pipeline", || {
        let provider = Provider::new(setup.kind);
        let mut g = GroupBuilder::new();
        let bb = setup.block_bytes;
        let emit_interval =
            Dur::nanos((setup.ns_per_byte * setup.block_bytes as f64).round() as u64);
        let lb = g.filter(
            "load-balancer",
            vec![NodeId(0)],
            Box::new(move |_| {
                Box::new(LbSource {
                    queue: VecDeque::new(),
                    block_bytes: bb,
                    emit_interval,
                })
            }),
        );
        let npb = setup.ns_per_byte;
        let worker_seen = seen.clone();
        let workers = g.filter(
            "worker",
            (1..=setup.workers).map(NodeId).collect(),
            Box::new(move |_| {
                Box::new(Worker {
                    ns_per_byte: npb,
                    seen: worker_seen.clone(),
                })
            }),
        );
        let policy = match spec.mode {
            Mode::Faulted { .. } => Policy::demand_driven(),
            Mode::Reaction { factor } => {
                let mut speeds = vec![SpeedModel::Uniform(1.0); setup.workers];
                speeds[0] = SpeedModel::StepAt {
                    t: slow_at(&setup),
                    before: 1.0,
                    after: factor,
                };
                for (i, &m) in speeds.iter().enumerate() {
                    g.set_speed(workers, i, m);
                }
                g.enable_ack_log(lb);
                Policy::RoundRobinAcked
            }
            Mode::DemandDriven { prob, factor } => {
                for i in 0..setup.workers {
                    g.set_speed(workers, i, SpeedModel::RandomSlow { prob, factor });
                }
                g.enable_ack_log(lb);
                Policy::demand_driven()
            }
        };
        g.stream(lb, workers, policy, &provider);
        (g.instantiate(&mut sim, &cluster), lb, workers)
    });
    ctx.tr.scope("setup.queries", || {
        let desc = QueryDesc {
            kind: QueryKind::Complete,
            blocks: (0..blocks as u64).collect(),
            block_bytes: setup.block_bytes,
        };
        inst.start_uow_at(&mut sim, SimTime::ZERO, lb, 0, Arc::new(desc));
    });
    let setup_ns = crate::jobs::ns_since(t0);
    let (end, run_ns) = run_sim(ctx, &mut sim, false);
    let count = ctx.count;
    let outcome = ctx.tr.scope("readout", || {
        readout(
            count,
            &sim,
            &cluster,
            &inst,
            (lb, workers),
            &setup,
            spec,
            blocks,
            seen,
            end,
        )
    });
    let out = JobOut {
        setup_ns,
        run_ns,
        events: sim.events_dispatched(),
        digest: sim.trace_digest(),
        check: Ok(()),
    };
    (out, outcome)
}

#[allow(clippy::too_many_arguments)]
fn readout(
    count: Option<&CountSink>,
    sim: &Sim,
    cluster: &Cluster,
    inst: &Instance,
    (lb, workers): (FilterHandle, FilterHandle),
    setup: &LbSetup,
    spec: &Spec,
    blocks: u32,
    seen: Option<Arc<Mutex<HashSet<u64>>>>,
    end: SimTime,
) -> Outcome {
    let mut recovery = [0u64; 6];
    let mut worker_buffers = 0;
    for (f, copies) in [(lb, 1), (workers, setup.workers)] {
        for i in 0..copies {
            let s = &inst.copy(sim, f, i).stats;
            let add = [
                s.stream_errors,
                s.retries,
                s.streams_recovered,
                s.consumers_failed,
                s.buffers_failed,
                s.stale_deliveries,
            ];
            for (r, a) in recovery.iter_mut().zip(add) {
                *r += a;
            }
            if f == workers {
                worker_buffers += s.buffers_in;
            }
        }
    }
    let processed = seen.map(|s| s.lock().expect("tag set lock").len() as u64);
    let reaction = match spec.mode {
        Mode::Reaction { .. } => {
            let at = slow_at(setup);
            inst.copy(sim, lb, 0)
                .done_log
                .iter()
                .filter(|r| r.consumer == 0 && r.sent_at >= at)
                .map(|r| r.acked_at.since(r.sent_at))
                .next()
        }
        _ => None,
    };
    if let Some(sink) = count {
        let mut c = sink.counts.lock().expect("counts lock");
        read_net(&mut c, sim, &cluster.network(), cluster.len());
        read_filters(&mut c, sim, inst, &[lb, workers]);
        if let Some(p) = processed {
            c.tracked_distinct += p;
            c.tracked_buffers += worker_buffers;
        }
    }
    Outcome {
        blocks,
        processed,
        recovery,
        worker_buffers,
        reaction,
        end,
        digest: sim.trace_digest(),
    }
}

fn check(spec: &Spec, o: &Outcome) -> Result<(), String> {
    match &spec.mode {
        Mode::Faulted { label, .. } => {
            let processed = o.processed.unwrap_or(0);
            ensure(processed <= u64::from(o.blocks) && processed > 0, || {
                format!("processed {processed} of {} blocks", o.blocks)
            })?;
            if label == "none" {
                ensure(processed == u64::from(o.blocks), || {
                    format!("availability {processed}/{} without faults", o.blocks)
                })?;
                ensure(o.recovery == [0; 6], || {
                    format!("fault counters {:?} without faults", o.recovery)
                })?;
            }
            Ok(())
        }
        Mode::Reaction { .. } => {
            ensure(o.reaction.is_some_and(|d| d > Dur::ZERO), || {
                "no reaction measured".into()
            })?;
            ensure(o.worker_buffers == u64::from(o.blocks), || {
                format!(
                    "workers processed {} of {} blocks",
                    o.worker_buffers, o.blocks
                )
            })
        }
        Mode::DemandDriven { .. } => ensure(o.worker_buffers == u64::from(o.blocks), || {
            format!(
                "workers processed {} of {} blocks",
                o.worker_buffers, o.blocks
            )
        }),
    }
}

/// Run `spec`, inside its fault plan when it has one.
fn run_spec(ctx: &mut Ctx<'_>, spec: &Spec) -> (JobOut, Outcome) {
    match &spec.mode {
        Mode::Faulted { spec: plan, .. } => fault::with_spec(plan, || lb_job(ctx, spec)),
        _ => lb_job(ctx, spec),
    }
}

/// The workload for `seed`: a fixed list of points, each job's simulator
/// seeded from `seed`, run in a seed-shuffled order.
pub fn workload(seed: u64) -> Workload {
    let mut rng = Rng::new(seed);
    let mut specs = Vec::new();
    for (label, plan) in fig_faults::fault_points(false) {
        for (_, kind) in fig_faults::KINDS {
            specs.push((
                kind,
                Mode::Faulted {
                    label: label.clone(),
                    spec: plan.clone(),
                },
            ));
        }
    }
    for factor in [2.0, 6.0, 10.0] {
        for kind in [TransportKind::KTcp, TransportKind::SocketVia] {
            specs.push((kind, Mode::Reaction { factor }));
        }
    }
    for prob in [0.2, 0.5, 0.8] {
        for kind in [TransportKind::KTcp, TransportKind::SocketVia] {
            specs.push((kind, Mode::DemandDriven { prob, factor: 8.0 }));
        }
    }
    let mut jobs: Vec<Job> = specs
        .into_iter()
        .map(|(kind, mode)| {
            let spec = Spec {
                kind,
                mode,
                seed: rng.next_u64(),
            };
            Job {
                label: format!("{} {:?}", kind.label(), spec.mode),
                run: Box::new(move |ctx| {
                    let (mut out, o) = run_spec(ctx, &spec);
                    out.check = check(&spec, &o);
                    out
                }),
            }
        })
        .collect();
    rng.shuffle(&mut jobs);
    let probe_seed = rng.next_u64();
    let pre_checks: Vec<PreCheck> = vec![Box::new(move || equivalence(probe_seed))];
    Workload {
        jobs,
        pre_checks,
        nominal_rep_s: 0.36,
    }
}

/// One job of each mode must equal the library's one-call entry point.
fn equivalence(seed: u64) -> Result<(), String> {
    let mut tr = Tracer::new();
    let mut ctx = Ctx {
        tr: &mut tr,
        count: None,
    };
    let plan = "drop=0.01,crash=1@50ms,detect=100us,backoff=100us";
    let kind = TransportKind::SocketVia;
    let setup = LbSetup::paper(kind);

    let spec = Spec {
        kind,
        mode: Mode::Faulted {
            label: "check".into(),
            spec: plan.into(),
        },
        seed,
    };
    let (_, o) = run_spec(&mut ctx, &spec);
    let lib = fault::with_spec(plan, || faulted_lb_run(&setup, o.blocks, seed));
    let lib_o = [
        lib.errors,
        lib.retries,
        lib.recovered,
        lib.failovers,
        lib.failed,
        lib.stale,
    ];
    ensure(
        o.processed == Some(lib.processed)
            && o.recovery == lib_o
            && o.end.since(SimTime::ZERO).as_micros_f64() == lib.makespan_us
            && o.digest == lib.digest,
        || format!("composed faulted run {o:?} != hetero::faulted_lb_run {lib:?}"),
    )?;

    let spec = Spec {
        kind,
        mode: Mode::Reaction { factor: 6.0 },
        seed,
    };
    let (_, o) = run_spec(&mut ctx, &spec);
    let (lib, cap) =
        rr_reaction_time_probed(&setup, 6.0, slow_at(&setup), o.blocks, seed, |_| None);
    ensure(o.reaction == lib && o.digest == cap.digest, || {
        format!(
            "composed reaction {:?} != hetero::rr_reaction_time {lib:?}",
            o.reaction
        )
    })?;

    let spec = Spec {
        kind,
        mode: Mode::DemandDriven {
            prob: 0.5,
            factor: 8.0,
        },
        seed,
    };
    let (_, o) = run_spec(&mut ctx, &spec);
    let (lib, cap) = dd_execution_time_probed(&setup, 0.5, 8.0, o.blocks, seed, |_| None);
    ensure(
        o.end.since(SimTime::ZERO) == lib && o.digest == cap.digest,
        || {
            format!(
                "composed execution {:?} != hetero::dd_execution_time {lib:?}",
                o.end
            )
        },
    )
}
