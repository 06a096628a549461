//! Engine micro-benchmarks: raw event-dispatch throughput, the event queue
//! under a deep pending set, FCFS resource scheduling, scheduler decisions,
//! and transport message throughput.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hpsock_datacutter::{Policy, Scheduler};
use hpsock_sim::resource::Resource;
use hpsock_sim::{Ctx, Dur, Message, Process, Sim, SimTime};
use std::hint::black_box;
use std::time::Duration;

/// A self-perpetuating event chain of fixed length.
struct Chain {
    remaining: u64,
}
impl Process for Chain {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.send_self_in(Dur::nanos(1), Message::new(()));
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, _msg: Message) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send_self_in(Dur::nanos(1), Message::new(()));
        }
    }
}

fn bench_event_dispatch(c: &mut Criterion) {
    const EVENTS: u64 = 100_000;
    let mut g = c.benchmark_group("engine");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(3));
    g.throughput(Throughput::Elements(EVENTS));
    // `on_start` dispatches the first event itself, so a chain of
    // `EVENTS - 1` further sends dispatches exactly EVENTS events —
    // matching the throughput denominator above (checked below, outside
    // the timed region).
    {
        let mut sim = Sim::new(1);
        sim.add_process(Box::new(Chain {
            remaining: EVENTS - 1,
        }));
        sim.run();
        assert_eq!(sim.events_dispatched(), EVENTS);
    }
    g.bench_function("event_dispatch_100k", |b| {
        b.iter(|| {
            let mut sim = Sim::new(1);
            sim.add_process(Box::new(Chain {
                remaining: EVENTS - 1,
            }));
            black_box(sim.run())
        })
    });
    g.finish();
}

/// The event queue alone under the hold model: 16 384 pending events,
/// and each step pops the earliest and pushes it back at its time plus a
/// random increment. Three increments in four are µs-scale (under 8 µs,
/// inside the ring's ≈262 µs window), one in four ms-scale (under 4 ms,
/// mostly beyond it), so the sorted ring buckets, the overflow heap and
/// `migrate` all carry load. `event_dispatch_100k` never holds more than
/// one pending event, so it only exercises the queue's min-register.
fn bench_event_queue_hold(c: &mut Criterion) {
    use hpsock_sim::event::EventQueue;
    use hpsock_sim::ProcessId;

    const PENDING: u64 = 16_384;
    const HOLDS: u64 = 100_000;

    struct Hold {
        q: EventQueue,
        rng: u64,
        seq: u64,
    }
    impl Hold {
        /// Schedule `msg` a random increment after `at` (xorshift64 draw).
        fn push(&mut self, at: SimTime, target: ProcessId, msg: Message) {
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            let r = self.rng >> 2;
            let dt = if self.rng & 3 == 0 {
                r % 4_000_000
            } else {
                r % 8_000
            };
            self.q.push(at + Dur::nanos(dt), self.seq, target, msg);
            self.seq += 1;
        }
        /// One hold step; returns the popped time.
        fn step(&mut self) -> SimTime {
            let (t, target, msg) = self.q.pop_parts().expect("hold keeps the queue full");
            self.push(t, target, msg);
            t
        }
    }

    let mut h = Hold {
        q: EventQueue::new(),
        rng: 0x9E37_79B9_7F4A_7C15,
        seq: 0,
    };
    for _ in 0..PENDING {
        h.push(SimTime::ZERO, ProcessId(0), Message::new(()));
    }
    // Warm up to the steady state (untimed), checking that pops never go
    // back in time and the pending set keeps its size.
    let mut last = SimTime::ZERO;
    for _ in 0..8 * PENDING {
        let t = h.step();
        assert!(t >= last, "hold popped {t:?} after {last:?}");
        last = t;
    }
    assert_eq!(h.q.len() as u64, PENDING);

    let mut g = c.benchmark_group("engine");
    g.sample_size(10);
    g.throughput(Throughput::Elements(HOLDS));
    g.bench_function("event_queue_hold", |b| {
        b.iter(|| {
            for _ in 0..HOLDS {
                black_box(h.step());
            }
            h.q.peek_time()
        })
    });
    g.finish();
}

fn bench_resource_schedule(c: &mut Criterion) {
    const JOBS: u64 = 100_000;
    let mut g = c.benchmark_group("engine");
    g.sample_size(10);
    g.throughput(Throughput::Elements(JOBS));
    g.bench_function("resource_fcfs_100k", |b| {
        b.iter(|| {
            let mut r = Resource::new("cpu", 2);
            for i in 0..JOBS {
                let t = SimTime::from_nanos(i);
                black_box(r.schedule(t, Dur::nanos(100)));
            }
            black_box(r.busy_time())
        })
    });
    g.finish();
}

fn bench_scheduler_pick(c: &mut Criterion) {
    const PICKS: u64 = 100_000;
    let mut g = c.benchmark_group("engine");
    g.sample_size(10);
    g.throughput(Throughput::Elements(PICKS));
    for (label, policy) in [
        ("rr_pick_100k", Policy::RoundRobin),
        ("dd_pick_100k", Policy::DemandDriven { window: 8 }),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let mut s = Scheduler::new(policy, 8);
                for i in 0..PICKS {
                    if let Some(k) = s.pick() {
                        s.on_sent(k);
                        if i % 2 == 1 {
                            s.on_ack(k);
                        }
                    } else {
                        // Window full: ack the most loaded copy.
                        let k = (0..8).max_by_key(|&k| s.unacked(k)).unwrap();
                        s.on_ack(k);
                    }
                }
                black_box(s.sent(0))
            })
        });
    }
    g.finish();
}

fn bench_transport_messages(c: &mut Criterion) {
    use hpsock_net::TransportKind;
    use socketvia::{microbench, Provider};
    const MSGS: u64 = 500;
    let mut g = c.benchmark_group("engine");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(3));
    g.throughput(Throughput::Elements(MSGS));
    g.bench_function("socketvia_500_msgs_2k", |b| {
        let p = Provider::new(TransportKind::SocketVia);
        b.iter(|| black_box(microbench::streaming_mbps(&p, 2_048, MSGS as u32)))
    });
    g.finish();
}

/// The sharded kernel on a 16-node cluster: 8 concurrent SocketVIA
/// streams, each crossing the shard boundary, run sequentially and at
/// 2/4 shards. The three variants are separate baselines so the gate
/// pins each against itself: the sequential number guards the kernel's
/// single-thread overhead, the sharded numbers guard the window
/// protocol's barrier/merge cost. The cross-variant *ratio* is
/// machine-class-bound — sharding pays off with ≥2 physical cores and a
/// compute-dense sim (each window must dispatch enough events to
/// amortize two barriers); on a single-core runner the sharded variants
/// are expected to trail the sequential one.
fn bench_sharded_cluster(c: &mut Criterion) {
    use hpsock_net::{Cluster, ConnId, Delivery, NodeId, TransportKind};
    use socketvia::Provider;

    const NODES: usize = 16;
    const CONNS: usize = 8;
    const MSGS_PER_CONN: u32 = 100;
    const BYTES: u64 = 16_384;

    struct Burst {
        net: hpsock_net::Network,
        conn: ConnId,
        count: u32,
    }
    impl Process for Burst {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for _ in 0..self.count {
                self.net.send(ctx, self.conn, BYTES, Message::new(()));
            }
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {}
    }
    struct Drain {
        net: hpsock_net::Network,
    }
    impl Process for Drain {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            let d = msg
                .downcast::<Delivery>()
                .expect("drain expects deliveries");
            self.net.consumed(ctx, d.conn, d.msg_id);
        }
    }

    let run = |shards: usize| {
        let mut sim = Sim::new(0x5AAD);
        let cluster = Cluster::build(&mut sim, NODES);
        let net = cluster.network();
        let p = Provider::new(TransportKind::SocketVia);
        for i in 0..CONNS {
            let tx = sim.add_process(Box::new(Burst {
                net: net.clone(),
                conn: ConnId(i),
                count: MSGS_PER_CONN,
            }));
            let rx = sim.add_process(Box::new(Drain { net: net.clone() }));
            p.connect(
                &net,
                cluster.endpoint(NodeId(i), tx),
                cluster.endpoint(NodeId(CONNS + i), rx),
            );
        }
        if shards > 1 {
            sim.set_shard_plan(cluster.even_shard_plan(shards));
        }
        sim.run()
    };

    let mut g = c.benchmark_group("engine");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(3));
    g.throughput(Throughput::Elements(
        u64::from(MSGS_PER_CONN) * CONNS as u64,
    ));
    for shards in [1usize, 2, 4] {
        let label = format!("sharded_cluster_{shards}");
        g.bench_function(&label, |b| {
            // A sharded variant must replay the sequential trace before
            // its timing means anything (checked untimed).
            if shards > 1 {
                assert_eq!(run(shards), run(1), "{label} diverged from sequential");
            }
            b.iter(|| black_box(run(shards)));
            print_run_report(&label, || run(shards));
        });
    }
    g.finish();
}

/// The sharded kernel on the big rack topology (8 racks × 16 nodes, 64
/// concurrent SocketVIA streams — `hpsock_experiments::bigtopo`): the
/// workload the sharding work is supposed to *win* on. Sequential and
/// 2/4-shard variants are separate baselines, like `sharded_cluster_*`;
/// the cross-variant ratio is machine-class-bound (sharding needs ≥2
/// physical cores to pay off — CI's shard-smoke job gates the 2-shard
/// speedup on a multi-core runner).
fn bench_sharded_big(c: &mut Criterion) {
    const MSGS_PER_CONN: u32 = 40;
    let run = |shards: usize| hpsock_experiments::bigtopo::run_big(shards, MSGS_PER_CONN);

    let mut g = c.benchmark_group("engine");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(3));
    g.throughput(Throughput::Elements(
        u64::from(MSGS_PER_CONN) * hpsock_experiments::bigtopo::CONNS as u64,
    ));
    for shards in [1usize, 2, 4] {
        let label = format!("sharded_big_{shards}");
        g.bench_function(&label, |b| {
            if shards > 1 {
                assert_eq!(run(shards), run(1), "{label} diverged from sequential");
            }
            b.iter(|| black_box(run(shards)));
            print_run_report(&label, || run(shards));
        });
    }
    g.finish();
}

/// The big rack topology on the flow-vs-packet gate workload (64 TCP
/// streams at 32 KiB — ~96 packet-engine events per message): the same
/// run under the packet engine (`flow_big_packet`) and the fluid model
/// (`flow_big_fluid`). These are separate baselines like the sharded
/// variants; the cross-variant ratio is the fluid fast path's payoff and
/// is additionally gated in-tree (≥10× fewer events) and by the CI
/// flow-smoke job.
fn bench_flow_big(c: &mut Criterion) {
    use hpsock_experiments::bigtopo::{self, GATE_BYTES};
    use hpsock_net::{with_netmodel, NetModel, TransportKind};

    const MSGS_PER_CONN: u32 = 20;
    let run = |model: NetModel| {
        with_netmodel(model, || {
            bigtopo::run_big_custom(1, MSGS_PER_CONN, TransportKind::KTcp, GATE_BYTES)
        })
    };

    let mut g = c.benchmark_group("engine");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(3));
    g.throughput(Throughput::Elements(
        u64::from(MSGS_PER_CONN) * bigtopo::CONNS as u64,
    ));
    g.bench_function("flow_big_packet", |b| {
        b.iter(|| black_box(run(NetModel::Packet)));
        print_run_report("flow_big_packet", || run(NetModel::Packet));
    });
    g.bench_function("flow_big_fluid", |b| {
        // The fast path must actually be fast before its timing means
        // anything: assert the event reduction (untimed).
        let (_, _, ev_packet) = run(NetModel::Packet);
        let (_, _, ev_flow) = run(NetModel::Flow);
        assert!(
            ev_packet >= 10 * ev_flow,
            "flow model dispatched {ev_flow} events vs packet {ev_packet}: < 10x reduction"
        );
        b.iter(|| black_box(run(NetModel::Flow)));
        print_run_report("flow_big_fluid", || run(NetModel::Flow));
    });
    g.finish();
}

/// Wall-clock companion to a criterion row, run inside the row's closure
/// so the name filter skips it with the row: one telemetered run, printing
/// the kernel's own events/sec (and flows/sec, for the fluid model's
/// like-for-like rate) from `run_report.json`. Criterion times the whole
/// closure; the report isolates the dispatch loop.
fn print_run_report<T>(label: &str, run: impl FnOnce() -> T) {
    let tel_dir = std::env::temp_dir().join(format!("hpsock_bench_tel_{}", std::process::id()));
    hpsock_sim::telemetry::with_telemetry_dir(Some(&tel_dir), run);
    match hpsock_sim::telemetry::last_report() {
        Some(r) => println!(
            "run_report.json: {label} ({} mode, {} shards): {} events in {:.2} ms wall \
             = {:.0} events/sec, {} rounds, {} flows = {:.0} flows/sec",
            r.mode,
            r.shards,
            r.events,
            r.wall_ns as f64 / 1e6,
            r.events_per_sec,
            r.rounds,
            r.flows,
            r.flows_per_sec,
        ),
        None => println!("run_report.json: no telemetry report for {label}"),
    }
    let _ = std::fs::remove_dir_all(&tel_dir);
}

/// The fluid allocator under a large shared component: the `fig_scale`
/// rack fabric at 128 nodes (8 racks × 16), 64 sender nodes × 4 open-loop
/// TCP clients × 3 messages, every flow crossing its rack's 4×
/// oversubscribed uplink. Each arrival or departure changes the rate of
/// every cross-rack flow behind that uplink, so this row is dominated by
/// reallocation and completion rescheduling — costs `flow_big_fluid`'s
/// small components barely show.
fn bench_flow_rack_shared(c: &mut Criterion) {
    use hpsock_experiments::fig_scale::run_scale_point;
    use hpsock_net::NetModel;

    const NODES: usize = 128;
    const CLIENTS_PER_NODE: usize = 4;
    const MSGS: u32 = 3;
    let run = || run_scale_point(NetModel::Flow, NODES, CLIENTS_PER_NODE, MSGS);

    let mut g = c.benchmark_group("engine");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(3));
    g.throughput(Throughput::Elements(run().msgs));
    g.bench_function("flow_rack_shared", |b| b.iter(|| black_box(run().events)));
    g.finish();
}

/// The same fabric at 512 nodes (32 racks × 16), 256 sender nodes × 16
/// clients × 3 messages: 4,096 concurrent flows, the fluid core's target
/// size. Flows of one size behind a shared uplink finish in lockstep, so
/// this row times the batched completions of a wake.
fn bench_flow_rack_4096(c: &mut Criterion) {
    use hpsock_experiments::fig_scale::run_scale_point;
    use hpsock_net::NetModel;

    let run = || run_scale_point(NetModel::Flow, 512, 16, 3);

    let mut g = c.benchmark_group("engine");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(3));
    g.bench_function("flow_rack_4096", |b| {
        assert_eq!(run().clients, 4_096, "one flow per client connection");
        b.iter(|| black_box(run().events))
    });
    g.finish();
}

/// The fluid core's split fallback: a flat 64-node cluster in 16 groups
/// of four nodes `a, b, c, d`. Four connections `a -> b` and four `c -> d`
/// stream 32 KiB messages back to back; one connection `a -> d` sends a
/// 2 KiB message every 500 µs, which never queues. Each bridge message
/// merges its group's two components when it starts, and splits them
/// again when it ends, so that departure is re-derived by search: the
/// path that keeping components between wakes does not speed up.
fn bench_flow_flat_split(c: &mut Criterion) {
    use hpsock_net::{
        with_netmodel, Cluster, ConnId, Delivery, FluidCore, FluidWork, NetModel, Network, NodeId,
        TransportKind,
    };

    const GROUPS: usize = 16;
    const HEAVY: usize = 4;

    /// Sends `remaining` messages of `bytes`, one every `interval`.
    struct Sender {
        net: Network,
        conn: ConnId,
        bytes: u64,
        interval: Dur,
        remaining: u32,
    }
    impl Process for Sender {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send_self_in(Dur::nanos(self.conn.0 as u64 * 1_000), Message::new(()));
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _msg: Message) {
            self.net.send(ctx, self.conn, self.bytes, Message::new(()));
            self.remaining -= 1;
            if self.remaining > 0 {
                ctx.send_self_in(self.interval, Message::new(()));
            }
        }
    }
    struct Sink {
        net: Network,
    }
    impl Process for Sink {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            let d = msg.downcast::<Delivery>().expect("sink expects deliveries");
            self.net.consumed(ctx, d.conn, d.msg_id);
        }
    }

    let run = || -> (u64, FluidWork) {
        with_netmodel(NetModel::Flow, || {
            let mut sim = Sim::new(7);
            let cluster = Cluster::build(&mut sim, 4 * GROUPS);
            let net = cluster.network();
            let mut conns = Vec::new();
            for g in 0..GROUPS {
                let [a, b, c, d] = [0, 1, 2, 3].map(|k| NodeId(4 * g + k));
                for _ in 0..HEAVY {
                    conns.push((a, b, 32_768, Dur::nanos(20_000), 16));
                    conns.push((c, d, 32_768, Dur::nanos(20_000), 16));
                }
                conns.push((a, d, 2_048, Dur::nanos(500_000), 40));
            }
            for (i, &(src, dst, bytes, interval, remaining)) in conns.iter().enumerate() {
                let tx = sim.add_process(Box::new(Sender {
                    net: net.clone(),
                    conn: ConnId(i),
                    bytes,
                    interval,
                    remaining,
                }));
                let rx = sim.add_process(Box::new(Sink { net: net.clone() }));
                net.connect(
                    cluster.endpoint(src, tx),
                    cluster.endpoint(dst, rx),
                    TransportKind::KTcp,
                );
            }
            sim.run();
            let fluid = net.fluid_core().expect("flow model");
            let core: &FluidCore = sim.process(fluid).expect("the fluid core persists");
            (sim.events_dispatched(), core.work())
        })
    };

    let mut g = c.benchmark_group("engine");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(3));
    g.bench_function("flow_flat_split", |b| {
        // The row must time the fallback (untimed check).
        let (_, work) = run();
        println!("fluid work: flow_flat_split: {work:?}");
        assert!(
            work.fallback_searches >= (GROUPS * 40 / 2) as u64,
            "too few departures split their component: {work:?}"
        );
        b.iter(|| black_box(run().0))
    });
    g.finish();
}

criterion_group!(
    engine,
    bench_event_dispatch,
    bench_event_queue_hold,
    bench_resource_schedule,
    bench_scheduler_pick,
    bench_transport_messages,
    bench_sharded_cluster,
    bench_sharded_big,
    bench_flow_big,
    bench_flow_rack_shared,
    bench_flow_rack_4096,
    bench_flow_flat_split,
);
criterion_main!(engine);
