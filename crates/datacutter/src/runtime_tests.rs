//! Runtime-level tests: full filter groups through the simulated cluster.

#![cfg(test)]

use crate::buffer::{DataBuffer, StreamMsg};
use crate::filter::{CopyWiring, FilterProcess};
use crate::group::{FilterHandle, GroupBuilder, Instance};
use crate::logic::{Action, FilterCtx, FilterLogic, SpeedModel};
use crate::sched::Policy;
use hpsock_net::{fault, Cluster, ConnId, Delivery, NodeId, TransportKind};
use hpsock_sim::{Ctx, Dur, FxHashMap, Message, Process, ProcessId, Sim, SimTime};
use socketvia::Provider;
use std::any::Any;
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

/// Source: emits `blocks` buffers of `bytes` each per unit of work, one per
/// continuation step (paced generation, so demand-driven choices see
/// up-to-date state), then ends the uow.
struct Source {
    blocks: u32,
    bytes: u64,
    emitted: u32,
    read_cost: Dur,
}

impl Source {
    fn new(blocks: u32, bytes: u64) -> Source {
        Source {
            blocks,
            bytes,
            emitted: 0,
            read_cost: Dur::ZERO,
        }
    }
}

impl FilterLogic for Source {
    fn on_uow_start(
        &mut self,
        _fc: &mut FilterCtx<'_>,
        uow: u32,
        _desc: Arc<dyn Any + Send + Sync>,
    ) -> Action {
        self.emitted = 0;
        Action::compute(Dur::ZERO).and_continue(uow)
    }
    fn on_continue(&mut self, _fc: &mut FilterCtx<'_>, uow: u32) -> Action {
        if self.emitted == self.blocks {
            return Action::none().and_end_uow(uow);
        }
        let tag = self.emitted as u64;
        self.emitted += 1;
        Action::emit(self.read_cost, 0, DataBuffer::new(uow, self.bytes, tag)).and_continue(uow)
    }
}

/// Pass-through worker with linear compute (ns per byte).
struct Worker {
    ns_per_byte: u64,
}
impl FilterLogic for Worker {
    fn on_buffer(&mut self, _fc: &mut FilterCtx<'_>, _port: usize, buf: DataBuffer) -> Action {
        let compute = Dur::nanos(self.ns_per_byte * buf.bytes);
        Action::emit(compute, 0, buf)
    }
}

/// Terminal sink: counts bytes/tags and notifies a driver pid on uow end.
#[derive(Default)]
struct SinkLogic {
    bytes: u64,
    buffers: u64,
    tag_sum: u64,
    uow_end_times: Vec<(u32, SimTime)>,
}
impl FilterLogic for SinkLogic {
    fn on_buffer(&mut self, _fc: &mut FilterCtx<'_>, _port: usize, buf: DataBuffer) -> Action {
        self.bytes += buf.bytes;
        self.buffers += 1;
        self.tag_sum += buf.tag;
        Action::none()
    }
    fn on_uow_end(&mut self, fc: &mut FilterCtx<'_>, uow: u32) -> Action {
        self.uow_end_times.push((uow, fc.now));
        Action::none()
    }
}

struct Built {
    sim: Sim,
    inst: Instance,
    src: FilterHandle,
    mid: FilterHandle,
    sink: FilterHandle,
}

/// 1 source -> 3 workers -> 1 sink over `kind`, with `policy` on the
/// source->worker stream.
fn build_pipeline(
    kind: TransportKind,
    policy: Policy,
    blocks: u32,
    block_bytes: u64,
    worker_ns_per_byte: u64,
    speeds: &[SpeedModel],
) -> Built {
    let mut sim = Sim::new(42);
    let cluster = Cluster::build(&mut sim, 5);
    let provider = Provider::new(kind);
    let mut g = GroupBuilder::new();
    let src = g.filter(
        "src",
        vec![NodeId(0)],
        Box::new(move |_| Box::new(Source::new(blocks, block_bytes))),
    );
    let mid = g.filter(
        "work",
        vec![NodeId(1), NodeId(2), NodeId(3)],
        Box::new(move |_| {
            Box::new(Worker {
                ns_per_byte: worker_ns_per_byte,
            })
        }),
    );
    let sink = g.filter(
        "sink",
        vec![NodeId(4)],
        Box::new(|_| Box::<SinkLogic>::default()),
    );
    for (copy, &m) in speeds.iter().enumerate() {
        g.set_speed(mid, copy, m);
    }
    g.enable_ack_log(src);
    g.stream(src, mid, policy, &provider);
    g.stream(mid, sink, Policy::RoundRobin, &provider);
    let inst = g.instantiate(&mut sim, &cluster);
    Built {
        sim,
        inst,
        src,
        mid,
        sink,
    }
}

fn run_one_uow(b: &mut Built) -> SimTime {
    b.inst
        .start_uow_at(&mut b.sim, SimTime::ZERO, b.src, 0, Arc::new(()));
    b.sim.run()
}

#[test]
fn bytes_and_buffers_are_conserved_end_to_end() {
    for kind in [TransportKind::SocketVia, TransportKind::KTcp] {
        for policy in [Policy::RoundRobin, Policy::demand_driven()] {
            let mut b = build_pipeline(kind, policy, 64, 2048, 18, &[]);
            run_one_uow(&mut b);
            let sink = b.inst.copy(&b.sim, b.sink, 0);
            assert_eq!(sink.stats.buffers_in, 64, "{:?} {policy:?}", kind);
            assert_eq!(sink.stats.bytes_in, 64 * 2048);
            // Every tag arrives exactly once: sum 0..64.
            let logic_bytes: u64 = (0..64).sum();
            let _ = logic_bytes;
            let mid_total: u64 = (0..3)
                .map(|c| b.inst.copy(&b.sim, b.mid, c).stats.buffers_in)
                .sum();
            assert_eq!(mid_total, 64);
        }
    }
}

#[test]
fn uow_end_reaches_sink_after_all_buffers() {
    let mut b = build_pipeline(
        TransportKind::SocketVia,
        Policy::demand_driven(),
        32,
        2048,
        18,
        &[],
    );
    run_one_uow(&mut b);
    let sink = b.inst.copy(&b.sim, b.sink, 0);
    assert_eq!(sink.stats.uow_ends.len(), 1);
    assert_eq!(sink.stats.buffers_in, 32, "EOW arrived after all data");
}

#[test]
fn round_robin_distributes_evenly() {
    let mut b = build_pipeline(
        TransportKind::SocketVia,
        Policy::RoundRobin,
        60,
        2048,
        18,
        &[],
    );
    run_one_uow(&mut b);
    for c in 0..3 {
        assert_eq!(b.inst.copy(&b.sim, b.mid, c).stats.buffers_in, 20);
    }
}

#[test]
fn demand_driven_shifts_load_away_from_slow_copy() {
    let speeds = [
        SpeedModel::Uniform(8.0), // copy 0 is 8x slower
        SpeedModel::Uniform(1.0),
        SpeedModel::Uniform(1.0),
    ];
    let mut b = build_pipeline(
        TransportKind::SocketVia,
        Policy::demand_driven(),
        300,
        2048,
        18,
        &speeds,
    );
    run_one_uow(&mut b);
    let counts: Vec<u64> = (0..3)
        .map(|c| b.inst.copy(&b.sim, b.mid, c).stats.buffers_in)
        .collect();
    assert_eq!(counts.iter().sum::<u64>(), 300);
    assert!(
        counts[0] * 3 < counts[1] && counts[0] * 3 < counts[2],
        "slow copy got {counts:?}"
    );
}

#[test]
fn demand_driven_beats_round_robin_under_heterogeneity() {
    let speeds = [
        SpeedModel::Uniform(8.0),
        SpeedModel::Uniform(1.0),
        SpeedModel::Uniform(1.0),
    ];
    let run = |policy| {
        let mut b = build_pipeline(TransportKind::SocketVia, policy, 300, 2048, 18, &speeds);
        run_one_uow(&mut b).as_micros_f64()
    };
    let rr = run(Policy::RoundRobin);
    let dd = run(Policy::demand_driven());
    assert!(dd < rr * 0.7, "DD {dd:.0}us should beat RR {rr:.0}us");
}

#[test]
fn ack_log_round_trips_grow_with_slow_consumer() {
    let speeds = [
        SpeedModel::Uniform(10.0),
        SpeedModel::Uniform(1.0),
        SpeedModel::Uniform(1.0),
    ];
    let mut b = build_pipeline(
        TransportKind::SocketVia,
        Policy::demand_driven(),
        120,
        8192,
        18,
        &speeds,
    );
    run_one_uow(&mut b);
    let src = b.inst.copy(&b.sim, b.src, 0);
    assert!(!src.ack_log.is_empty(), "ack log recorded");
    let mean_rtt = |consumer: usize| {
        let recs: Vec<_> = src
            .ack_log
            .iter()
            .filter(|r| r.consumer == consumer)
            .collect();
        assert!(!recs.is_empty());
        recs.iter()
            .map(|r| r.acked_at.since(r.sent_at).as_micros_f64())
            .sum::<f64>()
            / recs.len() as f64
    };
    assert!(
        mean_rtt(0) > 2.0 * mean_rtt(1),
        "slow consumer acks slower: {} vs {}",
        mean_rtt(0),
        mean_rtt(1)
    );
}

#[test]
fn multiple_uows_complete_in_order() {
    let mut b = build_pipeline(
        TransportKind::SocketVia,
        Policy::demand_driven(),
        16,
        2048,
        18,
        &[],
    );
    for uow in 0..4 {
        b.inst
            .start_uow_at(&mut b.sim, SimTime::ZERO, b.src, uow, Arc::new(()));
    }
    b.sim.run();
    let sink = b.inst.copy(&b.sim, b.sink, 0);
    assert_eq!(sink.stats.buffers_in, 4 * 16);
    let uows: Vec<u32> = sink.stats.uow_ends.iter().map(|&(u, _)| u).collect();
    assert_eq!(uows, vec![0, 1, 2, 3], "FIFO uow completion");
}

#[test]
fn socketvia_pipeline_faster_than_tcp_for_small_blocks() {
    let run = |kind| {
        let mut b = build_pipeline(kind, Policy::demand_driven(), 128, 2048, 0, &[]);
        run_one_uow(&mut b).as_micros_f64()
    };
    let sv = run(TransportKind::SocketVia);
    let tcp = run(TransportKind::KTcp);
    assert!(
        sv < tcp / 2.0,
        "2KB blocks: SocketVIA {sv:.0}us vs TCP {tcp:.0}us"
    );
}

#[test]
fn determinism_same_seed_same_trace() {
    let run = || {
        let mut b = build_pipeline(
            TransportKind::KTcp,
            Policy::demand_driven(),
            64,
            4096,
            18,
            &[SpeedModel::RandomSlow {
                prob: 0.5,
                factor: 4.0,
            }],
        );
        run_one_uow(&mut b);
        (b.sim.trace_digest(), b.sim.events_dispatched())
    };
    assert_eq!(run(), run());
}

/// Fires one delivery at `target` for a connection it never owned — the
/// teardown-then-deliver race.
struct StrayDelivery {
    target: ProcessId,
}
impl Process for StrayDelivery {
    fn name(&self) -> String {
        "stray".to_string()
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.send(
            self.target,
            Message::new(Delivery {
                conn: ConnId(9999),
                msg_id: 0,
                bytes: 0,
                sent_at: SimTime::ZERO,
                payload: Message::new(StreamMsg::Ack),
            }),
        );
    }
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {}
}

/// Regression: a delivery racing filter teardown (or arriving on a
/// connection the copy never owned) used to panic the whole sim; it is now
/// counted and discarded.
#[test]
fn stale_delivery_is_counted_not_a_panic() {
    let mut sim = Sim::new(7);
    let cluster = Cluster::build(&mut sim, 2);
    let slot = Arc::new(Mutex::new(None));
    let lone = FilterProcess::new(
        "lone".to_string(),
        0,
        1,
        Box::<SinkLogic>::default(),
        cluster.network(),
        Arc::clone(&slot),
    );
    let pid = sim.add_process(Box::new(lone));
    *slot.lock().unwrap() = Some(CopyWiring {
        node: NodeId(0),
        cpu: cluster.cpu(NodeId(0)),
        inputs: Vec::new(),
        outputs: Vec::new(),
        routes: FxHashMap::default(),
        speed: SpeedModel::default(),
        ack_log: false,
        recovery: None,
        crash_at: None,
    });
    sim.add_process(Box::new(StrayDelivery { target: pid }));
    sim.run();
    let fp = sim
        .process::<FilterProcess>(pid)
        .expect("filter process present");
    assert_eq!(fp.stats.stale_deliveries, 1, "counted, not a panic");
}

/// Lossy links with retry/backoff recovery: every buffer still arrives
/// exactly once (no failover, so replay never duplicates).
#[test]
fn lossy_links_recover_and_conserve_buffers() {
    let mut b = fault::with_spec("drop=0.02,detect=200us,backoff=200us", || {
        build_pipeline(
            TransportKind::SocketVia,
            Policy::demand_driven(),
            64,
            2048,
            18,
            &[],
        )
    });
    run_one_uow(&mut b);
    let sink = b.inst.copy(&b.sim, b.sink, 0);
    assert_eq!(sink.stats.buffers_in, 64, "every buffer eventually arrives");
    assert_eq!(sink.stats.bytes_in, 64 * 2048);
    let retries: u64 = (0..3)
        .map(|c| b.inst.copy(&b.sim, b.mid, c).stats.retries)
        .sum::<u64>()
        + b.inst.copy(&b.sim, b.src, 0).stats.retries;
    assert!(retries > 0, "the drop filter actually fired");
    assert_eq!(
        b.inst.copy(&b.sim, b.src, 0).stats.consumers_failed,
        0,
        "bounded loss never exhausts retries"
    );
}

/// Sink that records distinct block tags through shared state, so the
/// crash-failover test can check at-least-once coverage from outside.
struct TagSink {
    tags: Arc<Mutex<HashSet<u64>>>,
}
impl FilterLogic for TagSink {
    fn on_buffer(&mut self, _fc: &mut FilterCtx<'_>, _port: usize, buf: DataBuffer) -> Action {
        self.tags.lock().unwrap().insert(buf.tag);
        Action::none()
    }
}

/// A consumer copy's node fail-stops mid-run: the producer fails it over,
/// replays its retained buffers to the survivors, and every block still
/// reaches the sink at least once.
#[test]
fn crashed_worker_fails_over_and_survivors_cover_all_blocks() {
    let blocks: u32 = 200;
    let tags = Arc::new(Mutex::new(HashSet::new()));
    let (mut sim, inst, src_h) = fault::with_spec("crash=2@300us,detect=100us", || {
        let mut sim = Sim::new(42);
        let cluster = Cluster::build(&mut sim, 5);
        let provider = Provider::new(TransportKind::SocketVia);
        let mut g = GroupBuilder::new();
        let src = g.filter(
            "src",
            vec![NodeId(0)],
            Box::new(move |_| Box::new(Source::new(blocks, 2048))),
        );
        let mid = g.filter(
            "work",
            vec![NodeId(1), NodeId(2), NodeId(3)],
            Box::new(move |_| Box::new(Worker { ns_per_byte: 18 })),
        );
        let sink_tags = Arc::clone(&tags);
        let sink = g.filter(
            "sink",
            vec![NodeId(4)],
            Box::new(move |_| {
                Box::new(TagSink {
                    tags: Arc::clone(&sink_tags),
                })
            }),
        );
        g.stream(src, mid, Policy::demand_driven(), &provider);
        g.stream(mid, sink, Policy::RoundRobin, &provider);
        let inst = g.instantiate(&mut sim, &cluster);
        (sim, inst, src)
    });
    inst.start_uow_at(&mut sim, SimTime::ZERO, src_h, 0, Arc::new(()));
    sim.run();
    let src = inst.copy(&sim, src_h, 0);
    assert!(
        src.stats.consumers_failed >= 1,
        "the crashed worker was failed over away from"
    );
    assert!(src.stats.stream_errors > 0);
    let distinct = tags.lock().unwrap().len();
    assert_eq!(
        distinct, blocks as usize,
        "failover replay keeps at-least-once coverage"
    );
}
