//! The two rack-topology workloads.
//!
//! * `rack_flow`: `fig_scale`'s hierarchical fabric
//!   (`Cluster::build_racks_hier`, 4x oversubscribed core) under the flow
//!   model, open-loop TCP clients sending 16 KiB every 1 ms.
//! * `rack_sharded`: `bigtopo`'s 8 racks x 16 nodes with 64 SocketVIA
//!   streams on the packet model, run under a 2-shard rack plan.
//!
//! The client and sink processes mirror the library's private ones (plus
//! a delivery counter) so that setup and run can be timed apart; the
//! pre-checks prove the composed jobs equal `fig_scale::run_scale_point`
//! and `bigtopo::run_big`.

use crate::jobs::{ensure, read_net, run_sim, Ctx, Job, JobOut, PreCheck, Rng, Workload};
use crate::trace::Tracer;
use hpsock_experiments::{bigtopo, fig_scale};
use hpsock_net::{
    configured_oversub, with_netmodel, Cluster, ConnId, Delivery, NetModel, Network, NodeId,
    TransportKind,
};
use hpsock_sim::{Ctx as SimCtx, Dur, Message, Process, ProcessId, Sim, SimTime};
use std::time::Instant;

/// Message size of the open-loop clients (`fig_scale`).
const CLIENT_BYTES: u64 = 16_384;
/// Open-loop send interval per client (`fig_scale`).
const CLIENT_INTERVAL: Dur = Dur::nanos(1_000_000);

/// Sends `CLIENT_BYTES` every `CLIENT_INTERVAL`, `remaining` times,
/// staggered by connection id exactly as `fig_scale`'s client.
struct OpenLoopClient {
    net: Network,
    conn: ConnId,
    remaining: u32,
}

impl Process for OpenLoopClient {
    fn name(&self) -> String {
        format!("scale-client-{}", self.conn.0)
    }
    fn on_start(&mut self, ctx: &mut SimCtx<'_>) {
        let stagger = CLIENT_INTERVAL.as_nanos() * (self.conn.0 as u64 % 64) / 64;
        ctx.send_self_in(Dur::nanos(stagger), Message::new(()));
    }
    fn on_message(&mut self, ctx: &mut SimCtx<'_>, msg: Message) {
        if msg.downcast_ref::<Delivery>().is_some() {
            return;
        }
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        self.net
            .send(ctx, self.conn, CLIENT_BYTES, Message::new(()));
        if self.remaining > 0 {
            ctx.send_self_in(CLIENT_INTERVAL, Message::new(()));
        }
    }
}

/// Submits `count` messages up front; flow control paces the stream.
struct Burst {
    net: Network,
    conn: ConnId,
    bytes: u64,
    count: u32,
}

impl Process for Burst {
    fn name(&self) -> String {
        format!("bigtopo-burst-{}", self.conn.0)
    }
    fn on_start(&mut self, ctx: &mut SimCtx<'_>) {
        for _ in 0..self.count {
            self.net.send(ctx, self.conn, self.bytes, Message::new(()));
        }
    }
    fn on_message(&mut self, _ctx: &mut SimCtx<'_>, _msg: Message) {}
}

/// Consumes every delivery immediately and counts it.
struct Sink {
    net: Network,
    delivered: u64,
}

impl Process for Sink {
    fn name(&self) -> String {
        "bench-sink".to_string()
    }
    fn on_message(&mut self, ctx: &mut SimCtx<'_>, msg: Message) {
        let d = msg.downcast::<Delivery>().expect("sink expects deliveries");
        self.net.consumed(ctx, d.conn, d.msg_id);
        self.delivered += 1;
    }
}

/// A rack job: topology, per-connection message counts, seed.
#[derive(Debug, Clone)]
struct Spec {
    /// Flow model + open-loop clients on the hierarchical fabric, or
    /// packet model + bursts on `build_racks` under a shard plan.
    flow: bool,
    racks: usize,
    per_rack: usize,
    /// Messages per connection; its length is the connection count.
    msgs: Vec<u32>,
    /// Shards (1 = the sequential kernel).
    shards: usize,
    seed: u64,
}

/// `(end, digest, events)` plus the delivery check's two sides.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Outcome {
    end: SimTime,
    digest: u64,
    events: u64,
    sent: u64,
    delivered: u64,
}

fn rack_job(ctx: &mut Ctx<'_>, s: &Spec) -> (JobOut, Outcome) {
    let model = if s.flow {
        NetModel::Flow
    } else {
        NetModel::Packet
    };
    with_netmodel(model, || {
        let t0 = Instant::now();
        let (mut sim, cluster) = ctx.tr.scope("setup.cluster", || {
            let mut sim = Sim::new(s.seed);
            let cluster = if s.flow {
                Cluster::build_racks_hier(&mut sim, s.racks, s.per_rack, configured_oversub())
            } else {
                Cluster::build_racks(&mut sim, s.racks, s.per_rack)
            };
            (sim, cluster)
        });
        let sinks = ctx
            .tr
            .scope("setup.pipeline", || connect(&mut sim, &cluster, s));
        if s.shards > 1 {
            sim.set_shard_plan(cluster.rack_shard_plan(s.shards, s.per_rack));
        }
        let setup_ns = crate::jobs::ns_since(t0);
        let (end, run_ns) = run_sim(ctx, &mut sim, s.shards > 1);
        let count = ctx.count;
        let delivered = ctx.tr.scope("readout", || {
            if let Some(sink) = count {
                let mut c = sink.counts.lock().expect("counts lock");
                read_net(&mut c, &sim, &cluster.network(), cluster.len());
            }
            sinks
                .iter()
                .map(|&pid| sim.process::<Sink>(pid).expect("sink persists").delivered)
                .sum()
        });
        let o = Outcome {
            end,
            digest: sim.trace_digest(),
            events: sim.events_dispatched(),
            sent: s.msgs.iter().map(|&m| u64::from(m)).sum(),
            delivered,
        };
        let out = JobOut {
            setup_ns,
            run_ns,
            events: o.events,
            digest: o.digest,
            check: ensure(o.delivered == o.sent, || {
                format!("{} deliveries for {} sends", o.delivered, o.sent)
            }),
        };
        (out, o)
    })
}

/// Add one sender and one sink per connection, senders on the first half
/// of the nodes, sinks on the second; returns the sinks.
fn connect(sim: &mut Sim, cluster: &Cluster, s: &Spec) -> Vec<ProcessId> {
    let net = cluster.network();
    let half = cluster.len() / 2;
    let per_node = s.msgs.len().div_ceil(half);
    let mut sinks = Vec::with_capacity(s.msgs.len());
    for (i, &count) in s.msgs.iter().enumerate() {
        let conn = ConnId(i);
        let tx: Box<dyn Process> = if s.flow {
            Box::new(OpenLoopClient {
                net: net.clone(),
                conn,
                remaining: count,
            })
        } else {
            Box::new(Burst {
                net: net.clone(),
                conn,
                bytes: bigtopo::BYTES,
                count,
            })
        };
        let tx = sim.add_process(tx);
        let rx = sim.add_process(Box::new(Sink {
            net: net.clone(),
            delivered: 0,
        }));
        let node = i / per_node;
        let kind = if s.flow {
            TransportKind::KTcp
        } else {
            TransportKind::SocketVia
        };
        let got = net.connect(
            cluster.endpoint(NodeId(node), tx),
            cluster.endpoint(NodeId(half + node), rx),
            kind,
        );
        assert_eq!(got, conn, "connection ids are dense");
        sinks.push(rx);
    }
    sinks
}

fn job(label: String, spec: Spec) -> Job {
    Job {
        label,
        run: Box::new(move |ctx| rack_job(ctx, &spec).0),
    }
}

/// `rack_flow` jobs: `(nodes, clients per sender node, jobs)`: 512 and
/// 1 024 concurrent flows at 128 and at 512 nodes. Four large-flow jobs
/// per repetition put the tail inside their group.
const FLOW_JOBS: [(usize, usize, usize); 4] = [(128, 8, 3), (512, 2, 3), (128, 16, 2), (512, 4, 2)];

/// `rack_flow` for `seed`: each client sends 2 or 3 messages (drawn from
/// `seed`).
pub fn flow_workload(seed: u64) -> Workload {
    let mut rng = Rng::new(seed);
    let mut jobs = Vec::new();
    for (nodes, per_node, count) in FLOW_JOBS {
        for _ in 0..count {
            let msgs = (0..nodes / 2 * per_node)
                .map(|_| rng.range(2, 3) as u32)
                .collect();
            let spec = Spec {
                flow: true,
                racks: nodes / 16,
                per_rack: 16,
                msgs,
                shards: 1,
                seed: rng.next_u64(),
            };
            jobs.push(job(
                format!("flow {nodes} nodes x {per_node} clients"),
                spec,
            ));
        }
    }
    rng.shuffle(&mut jobs);
    let pre_checks: Vec<PreCheck> = vec![Box::new(flow_equivalence)];
    Workload {
        jobs,
        pre_checks,
        nominal_rep_s: 3.4,
    }
}

/// The composed flow job must equal `fig_scale::run_scale_point`.
fn flow_equivalence() -> Result<(), String> {
    let (nodes, per_node, msgs) = (128, 16, 2);
    let spec = Spec {
        flow: true,
        racks: nodes / 16,
        per_rack: 16,
        msgs: vec![msgs; nodes / 2 * per_node],
        shards: 1,
        seed: 0x5CA1E,
    };
    let mut tr = Tracer::new();
    let (_, o) = rack_job(
        &mut Ctx {
            tr: &mut tr,
            count: None,
        },
        &spec,
    );
    let lib = fig_scale::run_scale_point(NetModel::Flow, nodes, per_node, msgs);
    ensure(
        o.end.as_nanos() as f64 / 1e6 == lib.end_ms && o.events == lib.events && o.sent == lib.msgs,
        || format!("composed flow job {o:?} != fig_scale::run_scale_point {lib:?}"),
    )
}

/// Jobs per `rack_sharded` repetition.
const SHARDED_JOBS: usize = 8;
/// Shards of `rack_sharded` (one per vCPU of the reference host).
const SHARDS: usize = 2;

fn sharded_spec(msgs: Vec<u32>, shards: usize, seed: u64) -> Spec {
    Spec {
        flow: false,
        racks: bigtopo::RACKS,
        per_rack: bigtopo::PER_RACK,
        msgs,
        shards,
        seed,
    }
}

/// `rack_sharded` for `seed`: each stream sends 250–350 messages (drawn
/// from `seed`). The pre-check runs every job on the sequential kernel
/// and the repetition loop's first outcome must match it.
pub fn sharded_workload(seed: u64) -> Workload {
    let mut rng = Rng::new(seed);
    let mut jobs = Vec::new();
    let mut pre_checks: Vec<PreCheck> = vec![Box::new(sharded_equivalence)];
    for j in 0..SHARDED_JOBS {
        let msgs: Vec<u32> = (0..bigtopo::CONNS)
            .map(|_| rng.range(250, 350) as u32)
            .collect();
        let spec = sharded_spec(msgs, SHARDS, rng.next_u64());
        let seq = Spec {
            shards: 1,
            ..spec.clone()
        };
        let sharded = spec.clone();
        pre_checks.push(Box::new(move || {
            let mut tr = Tracer::new();
            let (_, a) = rack_job(
                &mut Ctx {
                    tr: &mut tr,
                    count: None,
                },
                &seq,
            );
            let (_, b) = rack_job(
                &mut Ctx {
                    tr: &mut tr,
                    count: None,
                },
                &sharded,
            );
            ensure(
                (a.end, a.digest, a.events) == (b.end, b.digest, b.events),
                || format!("job {j}: {SHARDS} shards {b:?} != sequential {a:?}"),
            )
        }));
        jobs.push(job(format!("sharded job {j}"), spec));
    }
    Workload {
        jobs,
        pre_checks,
        nominal_rep_s: 0.45,
    }
}

/// The composed sharded job must equal `bigtopo::run_big`.
fn sharded_equivalence() -> Result<(), String> {
    let msgs = 300;
    let spec = sharded_spec(vec![msgs; bigtopo::CONNS], SHARDS, 0xB16);
    let mut tr = Tracer::new();
    let (_, o) = rack_job(
        &mut Ctx {
            tr: &mut tr,
            count: None,
        },
        &spec,
    );
    let lib = bigtopo::run_big(SHARDS, msgs);
    ensure((o.end, o.digest, o.events) == lib, || {
        format!("composed sharded job {o:?} != bigtopo::run_big {lib:?}")
    })
}

/// Sequential ÷ sharded host time of `Sim::run` on `rack_sharded`'s first
/// job, medians of `pairs` alternating runs.
pub fn shard_speedup(seed: u64, pairs: usize) -> f64 {
    let mut rng = Rng::new(seed);
    let msgs: Vec<u32> = (0..bigtopo::CONNS)
        .map(|_| rng.range(250, 350) as u32)
        .collect();
    let spec = sharded_spec(msgs, SHARDS, rng.next_u64());
    let seq = Spec {
        shards: 1,
        ..spec.clone()
    };
    let mut tr = Tracer::new();
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for _ in 0..pairs {
        a.push(
            rack_job(
                &mut Ctx {
                    tr: &mut tr,
                    count: None,
                },
                &seq,
            )
            .0
            .run_ns as f64,
        );
        b.push(
            rack_job(
                &mut Ctx {
                    tr: &mut tr,
                    count: None,
                },
                &spec,
            )
            .0
            .run_ns as f64,
        );
    }
    crate::stats::median(&a) / crate::stats::median(&b)
}
