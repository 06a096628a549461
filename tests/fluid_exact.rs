//! Exactness of both network models, and cost of the flow-level (fluid)
//! one.
//!
//! The engines' event plumbing may change — how fluid completions are
//! timed, how many kernel events a flow costs, how a node core lays out
//! its connection tables — but what the simulated applications observe
//! may not: every delivery and every `StreamError` must land on the same
//! connection, message id and virtual nanosecond. `outcome_logs_are_pinned`
//! (fluid model) and `packet_outcome_logs_are_pinned` (packet model) hash
//! that log for three small rack scenarios (fault-free, lossy + delayed,
//! node crash) against golden values. `lockstep_outcomes_are_pinned` does
//! the same for larger scenarios in which many flows finish at one
//! nanosecond, where only the order within an instant may change;
//! `lockstep_work_is_pinned` pins the fluid core's work on them. The
//! other tests bound the events a flow costs and check that no superseded
//! completion stretches the run past its last outcome.

use hpsock_net::{
    fault, with_netmodel, Cluster, ConnId, Delivery, FluidCore, FluidWork, NetModel, NodeCore,
    NodeId, StreamError, TransportKind,
};
use hpsock_sim::{Ctx, Dur, Message, Process, Sim};
use std::sync::{Arc, Mutex};

/// One application-visible outcome: `(conn, msg_id, virtual ns, what)`,
/// where `what` is `"delivered"` or the `StreamErrorKind` name.
type Outcome = (usize, u64, u64, String);
type Log = Arc<Mutex<Vec<Outcome>>>;

/// Payload size of every message (16 KiB, the fig_scale block size).
const BYTES: u64 = 16_384;
/// Open-loop send interval per client: short enough that a connection's
/// messages queue behind each other and flows of one sender overlap.
const INTERVAL: Dur = Dur::nanos(100_000);

/// Open-loop sender: `count` messages every [`INTERVAL`], start staggered
/// by connection id; logs the `StreamError`s it receives.
struct Client {
    net: hpsock_net::Network,
    conn: ConnId,
    remaining: u32,
    log: Log,
}

impl Process for Client {
    fn name(&self) -> String {
        format!("exact-client-{}", self.conn.0)
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let stagger = INTERVAL.as_nanos() * (self.conn.0 as u64 % 16) / 16;
        ctx.send_self_in(Dur::nanos(stagger), Message::new(()));
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        let msg = match msg.downcast::<StreamError>() {
            Ok(e) => {
                let kind = format!("{:?}", e.kind);
                let entry = (e.conn.0, e.msg_id, ctx.now().as_nanos(), kind);
                self.log.lock().unwrap().push(entry);
                return;
            }
            Err(other) => other,
        };
        assert!(msg.downcast_ref::<()>().is_some(), "client expects ticks");
        self.remaining -= 1;
        self.net.send(ctx, self.conn, BYTES, Message::new(()));
        if self.remaining > 0 {
            ctx.send_self_in(INTERVAL, Message::new(()));
        }
    }
}

/// Logs and consumes every delivery.
struct Sink {
    net: hpsock_net::Network,
    log: Log,
}

impl Process for Sink {
    fn name(&self) -> String {
        "exact-sink".to_string()
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        let d = msg.downcast::<Delivery>().expect("sink expects deliveries");
        let entry = (d.conn.0, d.msg_id, ctx.now().as_nanos(), "delivered".into());
        self.log.lock().unwrap().push(entry);
        self.net.consumed(ctx, d.conn, d.msg_id);
    }
}

/// What one scenario run reports.
struct Run {
    /// Outcomes in dispatch order.
    log: Vec<Outcome>,
    /// Messages submitted.
    msgs: u64,
    events: u64,
    end_ns: u64,
    /// Wire frames the send halves submitted (0 under the flow model).
    frames_tx: u64,
    /// The fluid core's work (`None` under the packet model).
    work: Option<FluidWork>,
}

/// `nodes` nodes in racks of 16 under `model` (oversubscription 4): the
/// first half each host `clients` TCP senders of `msgs` messages
/// to a sink on the mirror node of the second half, so cross-rack flows
/// share uplinks and the flows of one sender share its host stages.
fn run_racks(model: NetModel, nodes: usize, clients: usize, msgs: u32, faults: &str) -> Run {
    let body = || {
        let per_rack = nodes.min(16);
        let senders = nodes / 2;
        let log: Log = Arc::default();
        let mut sim = Sim::new(0xF1E);
        let cluster = Cluster::build_racks_hier(&mut sim, nodes / per_rack, per_rack, 4.0);
        let net = cluster.network();
        let mut conn = 0;
        for node in 0..senders {
            for _ in 0..clients {
                let tx = sim.add_process(Box::new(Client {
                    net: net.clone(),
                    conn: ConnId(conn),
                    remaining: msgs,
                    log: Arc::clone(&log),
                }));
                let rx = sim.add_process(Box::new(Sink {
                    net: net.clone(),
                    log: Arc::clone(&log),
                }));
                net.connect(
                    cluster.endpoint(NodeId(node), tx),
                    cluster.endpoint(NodeId(senders + node), rx),
                    TransportKind::KTcp,
                );
                conn += 1;
            }
        }
        let end = sim.run();
        let log = std::mem::take(&mut *log.lock().unwrap());
        // Connection `c` is sourced at node `c / clients`.
        let frames_tx = (0..conn)
            .map(|c| {
                let core: &NodeCore = sim.process(net.core_of(NodeId(c / clients))).unwrap();
                core.tx_stats(ConnId(c)).map_or(0, |s| s.frames_tx)
            })
            .sum();
        let work = net.fluid_core().map(|pid| {
            let core: &FluidCore = sim.process(pid).expect("the fluid core persists");
            core.work()
        });
        Run {
            log,
            msgs: conn as u64 * msgs as u64,
            events: sim.events_dispatched(),
            end_ns: end.as_nanos(),
            frames_tx,
            work,
        }
    };
    with_netmodel(model, || {
        if faults.is_empty() {
            body()
        } else {
            fault::with_spec(faults, body)
        }
    })
}

/// FNV-1a over the rendered log, in dispatch order.
fn log_hash(log: &[Outcome]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (conn, msg, ns, what) in log {
        for b in format!("{conn},{msg},{ns},{what};").bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Golden outcome logs for 32 nodes × 4 clients × 5 messages, computed
/// with the per-flow epoch-completion fluid core: `(fault spec,
/// StreamErrors among the 320 outcomes, FNV-1a of the log)`.
const PINNED: [(&str, usize, u64); 3] = [
    ("", 0, 13539972793538336471),
    ("drop=0.05,delay=0.2:30us", 10, 4829253013871554706),
    ("crash=1@200us,detect=100us", 20, 3484909537950472654),
];

/// Golden packet-model outcome logs for the same scenarios. In the crash
/// case node 1 fail-stops; it sources connections 4–7, so a core that
/// confused a connection id with the position of its half in the node's
/// own tables would fail the wrong connections. The faulted rows were
/// computed with fates drawn at pump time from per-connection streams,
/// and with a frame that would arrive at or after its connection's cut
/// failing its message.
const PINNED_PACKET: [(&str, usize, u64); 3] = [
    ("", 0, 12349312038757248321),
    ("drop=0.05,delay=0.2:30us", 11, 9335006310455552725),
    ("crash=1@200us,detect=100us", 20, 17604699823352955842),
];

/// Run every pinned scenario of `pins` under `model`:
/// `(fault spec, StreamErrors, log hash)` per scenario.
fn pinned_outcomes(
    model: NetModel,
    pins: &[(&'static str, usize, u64)],
) -> Vec<(&'static str, usize, u64)> {
    pins.iter()
        .map(|&(faults, _, _)| {
            let run = run_racks(model, 32, 4, 5, faults);
            assert_eq!(
                run.log.len() as u64,
                run.msgs,
                "{model:?} {faults:?}: one outcome per message"
            );
            let errors = run.log.iter().filter(|o| o.3 != "delivered").count();
            (faults, errors, log_hash(&run.log))
        })
        .collect()
}

#[test]
fn outcome_logs_are_pinned() {
    let got = pinned_outcomes(NetModel::Flow, &PINNED);
    assert_eq!(got, PINNED, "fluid outcome logs moved");
}

#[test]
fn packet_outcome_logs_are_pinned() {
    let got = pinned_outcomes(NetModel::Packet, &PINNED_PACKET);
    assert_eq!(got, PINNED_PACKET, "packet outcome logs moved");
}

/// FNV-1a over the log sorted by `(ns, conn, msg, what)`: what the
/// applications observe, with no say in the order of outcomes that land at
/// one virtual nanosecond.
fn sorted_log_hash(log: &[Outcome]) -> u64 {
    let mut sorted = log.to_vec();
    sorted.sort_by(|a, b| (a.2, a.0, a.1, &a.3).cmp(&(b.2, b.0, b.1, &b.3)));
    log_hash(&sorted)
}

/// Lockstep rack scenarios — many same-sized flows behind each shared
/// uplink, so completions pile up at one nanosecond — run under the fluid
/// model: `(nodes, clients, msgs, fault spec)`.
const LOCKSTEP: [(usize, usize, u32, &str); 4] = [
    (128, 16, 3, PINNED[0].0),
    (64, 8, 4, PINNED[0].0),
    (64, 8, 4, PINNED[1].0),
    (64, 8, 4, PINNED[2].0),
];

/// Golden `(end ns, events, sorted log hash)` per [`LOCKSTEP`] scenario.
/// End times and hashes were computed with the
/// one-reallocation-per-completion fluid core; the event counts with the
/// core that settles each instant's arrivals at one wake, which adds one
/// wake per arrival instant that no completion wake covers, and with
/// consumption settled in place, which dispatches no event (one fewer
/// per delivered message: 3,072, 1,024, 963 and 992).
const PINNED_LOCKSTEP: [(u64, u64, u64); 4] = [
    (33032076, 15425, 13001679257232747249),
    (22035288, 5201, 12730856138837506759),
    (21077313, 5339, 17651579309592225604),
    (22035288, 5256, 7547428517582877370),
];

#[test]
fn lockstep_outcomes_are_pinned() {
    for ((nodes, clients, msgs, faults), want) in LOCKSTEP.into_iter().zip(PINNED_LOCKSTEP) {
        let what = format!("{nodes}x{clients}x{msgs} {faults:?}");
        let run = run_racks(NetModel::Flow, nodes, clients, msgs, faults);
        assert_eq!(
            run.log.len() as u64,
            run.msgs,
            "{what}: one outcome per message"
        );
        let got = (run.end_ns, run.events, sorted_log_hash(&run.log));
        assert_eq!(got, want, "{what}: lockstep outcomes moved");
    }
}

/// The fluid core's work per [`LOCKSTEP`] scenario: `reallocate` calls,
/// component solves, flows solved and fallback searches. The first three
/// columns equal what the core that searched every component from
/// scratch counted. A departure in these scenarios never splits its
/// rack-pair component, so no search runs.
const PINNED_WORK: [FluidWork; 4] = [
    work(64, 252, 49152),
    work(80, 158, 16384),
    work(218, 234, 21775),
    work(135, 158, 16000),
];

const fn work(reallocations: u64, solves: u64, flows_solved: u64) -> FluidWork {
    FluidWork {
        reallocations,
        solves,
        flows_solved,
        fallback_searches: 0,
    }
}

#[test]
fn lockstep_work_is_pinned() {
    let got = LOCKSTEP.map(|(nodes, clients, msgs, faults)| {
        let run = run_racks(NetModel::Flow, nodes, clients, msgs, faults);
        run.work.expect("a fluid core under the flow model")
    });
    assert_eq!(got, PINNED_WORK, "fluid core work moved");
    let packet = run_racks(NetModel::Packet, 32, 4, 5, "");
    assert_eq!(packet.work, None, "no fluid core under the packet model");
}

/// A fault plan that never fires (`drop=0`) draws each packet-model
/// message's fate when its frame 0 is pumped, from the connection's own
/// stream, and schedules every frame's arrival as a fault-free connection
/// does. The fault-free pinned scenario must give the same outcome log,
/// end time, frame count and dispatched events either way.
#[test]
fn idle_fault_plan_costs_nothing() {
    let free = run_racks(NetModel::Packet, 32, 4, 5, PINNED_PACKET[0].0);
    let idle = run_racks(NetModel::Packet, 32, 4, 5, "drop=0");
    assert_eq!(log_hash(&idle.log), log_hash(&free.log), "outcome log");
    assert_eq!(idle.end_ns, free.end_ns, "end of run");
    assert!(free.frames_tx > 0, "frames were counted");
    assert_eq!(idle.frames_tx, free.frames_tx, "frames submitted");
    assert_eq!(idle.events, free.events, "events dispatched");
}

/// A flow costs O(1) kernel events — the send, its arrival at the fluid
/// core, a share of the wake-ups, the delivery hop and the consume — and
/// the run ends exactly at its last delivery or error: no superseded
/// completion timer outlives the flows.
#[test]
fn flows_cost_a_bounded_number_of_events() {
    for (nodes, clients, msgs) in [(32, 4, 5), (64, 8, 3), (128, 2, 4)] {
        for (faults, _, _) in PINNED {
            let run = run_racks(NetModel::Flow, nodes, clients, msgs, faults);
            let what = format!("{nodes} nodes x {clients} clients x {msgs} msgs {faults:?}");
            assert!(
                run.events <= 10 * run.msgs,
                "{what}: {} events for {} messages",
                run.events,
                run.msgs
            );
            let last = run.log.iter().map(|o| o.2).max().expect("outcomes logged");
            assert_eq!(run.end_ns, last, "{what}: run outlived its last outcome");
        }
    }
}
