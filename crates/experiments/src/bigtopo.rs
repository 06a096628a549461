//! The big rack topology: a cluster large enough that the sharded
//! kernel's conservative windows hold real work.
//!
//! [`RACKS`] racks of [`PER_RACK`] nodes (128 total). The senders live in
//! the first half of the racks, the receivers in the second half, and
//! connection `i` streams [`BYTES`]-byte messages from node `i` to node
//! `64 + i` over SocketVIA, so rack `r` streams only to rack `r + 4`.
//! The traffic-following rack partition ([`Cluster::rack_shard_plan`])
//! puts each such rack pair on one shard: no stream crosses shards, every
//! cross-shard lookahead is unbounded, and a run takes a single round of
//! the window protocol, its 64 flow-controlled streams split evenly by
//! event weight. The `engine/sharded_big_{1,2,4}` criterion benches and
//! the CI shard-smoke speedup gate both drive [`run_big`]; the shard
//! invariance test here also runs the streams under a rack-index split,
//! where every one of them crosses shards.
//!
//! [`run_big_custom`] parameterizes the same topology by transport and
//! message size. The flow-vs-packet speed gate uses TCP at
//! [`GATE_BYTES`]: a 32 KiB TCP message segments into 23 wire frames
//! (~96 stage events per message under the packet engine) while the
//! fluid model spends a handful of events per flow regardless of size —
//! the workload where the fast path must show its ≥10× event reduction.

use hpsock_net::{Cluster, ConnId, Drain, NodeId, TransportKind};
use hpsock_sim::{Ctx, Message, Process, ShardPlan, Sim, SimTime};

/// Racks in the big topology.
pub const RACKS: usize = 8;
/// Nodes per rack.
pub const PER_RACK: usize = 16;
/// Concurrent sender→receiver streams (one per sender node).
pub const CONNS: usize = RACKS * PER_RACK / 2;
/// Message size per send; flow control paces the stream.
pub const BYTES: u64 = 16_384;
/// Message size of the flow-vs-packet gate workload (23 TCP frames).
pub const GATE_BYTES: u64 = 32_768;

/// Submits `count` messages up front; flow control paces the stream.
struct Burst {
    net: hpsock_net::Network,
    conn: ConnId,
    bytes: u64,
    count: u32,
}
impl Process for Burst {
    fn name(&self) -> String {
        format!("bigtopo-burst-{}", self.conn.0)
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for _ in 0..self.count {
            self.net.send(ctx, self.conn, self.bytes, Message::new(()));
        }
    }
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {}
}

/// Run the big topology with `msgs_per_conn` messages on each of the
/// [`CONNS`] streams, under a whole-rack shard partition when
/// `shards > 1`. Returns `(end time, trace digest, events dispatched)` —
/// all three are shard-count invariant, which the determinism suite and
/// the CI smoke gate both pin.
pub fn run_big(shards: usize, msgs_per_conn: u32) -> (SimTime, u64, u64) {
    run_big_custom(shards, msgs_per_conn, TransportKind::SocketVia, BYTES)
}

/// [`run_big`] parameterized by transport and message size (the topology,
/// stream layout and seed stay fixed). The network model comes from
/// `HPSOCK_NETMODEL` / `with_netmodel`, as everywhere.
pub fn run_big_custom(
    shards: usize,
    msgs_per_conn: u32,
    kind: TransportKind,
    bytes: u64,
) -> (SimTime, u64, u64) {
    run_big_planned(msgs_per_conn, kind, bytes, |cluster| {
        (shards > 1).then(|| cluster.rack_shard_plan(shards, PER_RACK))
    })
}

/// [`run_big_custom`] under the shard plan `plan` builds from the wired
/// cluster (`None`: the sequential kernel).
fn run_big_planned(
    msgs_per_conn: u32,
    kind: TransportKind,
    bytes: u64,
    plan: impl FnOnce(&Cluster) -> Option<ShardPlan>,
) -> (SimTime, u64, u64) {
    let mut sim = Sim::new(0xB16);
    let cluster = Cluster::build_racks(&mut sim, RACKS, PER_RACK);
    let net = cluster.network();
    for i in 0..CONNS {
        let tx = sim.add_process(Box::new(Burst {
            net: net.clone(),
            conn: ConnId(i),
            bytes,
            count: msgs_per_conn,
        }));
        let rx = sim.add_process(Box::new(Drain { net: net.clone() }));
        net.connect(
            cluster.endpoint(NodeId(i), tx),
            cluster.endpoint(NodeId(CONNS + i), rx),
            kind,
        );
    }
    if let Some(plan) = plan(&cluster) {
        sim.set_shard_plan(plan);
    }
    let end = sim.run();
    (end, sim.trace_digest(), sim.events_dispatched())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpsock_net::{with_netmodel, NetModel};

    /// The big-topology run is shard-count invariant — the property the
    /// criterion benches assert before timing and CI gates on speed.
    /// Scaled down here (few messages) to stay test-suite friendly.
    #[test]
    fn big_topology_is_shard_invariant() {
        let seq = run_big(1, 3);
        assert!(seq.2 > 0, "the run dispatches events");
        assert_eq!(run_big(2, 3), seq, "2 shards replay sequential");
        assert_eq!(run_big(4, 3), seq, "4 shards replay sequential");
    }

    /// Cross-shard coverage on the big topology: a rack-index split puts
    /// all senders' racks ahead of all receivers' racks, so every stream
    /// crosses shards, and the run still replays the sequential one.
    #[test]
    fn big_topology_streams_crossing_shards_replay_sequential() {
        let seq = run_big(1, 3);
        for shards in [2, 4] {
            let crossing = run_big_planned(3, TransportKind::SocketVia, BYTES, |cluster| {
                let node_to_shard = (0..cluster.len())
                    .map(|node| node / PER_RACK * shards / RACKS)
                    .collect();
                let plan = cluster.shard_plan(shards, node_to_shard, vec![]);
                for src in 0..shards / 2 {
                    let dst = src + shards / 2;
                    assert!(
                        plan.lookahead[src][dst] < u64::MAX,
                        "streams cross from shard {src} to shard {dst}"
                    );
                }
                Some(plan)
            });
            assert_eq!(crossing, seq, "{shards} crossing shards replay sequential");
        }
    }

    /// The fluid fast path dispatches ≥10× fewer events than the packet
    /// engine on the gate workload (TCP at [`GATE_BYTES`]), and both
    /// models agree on delivered work (same virtual end-time order of
    /// magnitude, same stream count). This is the in-tree twin of the CI
    /// `flow-smoke` event-ratio gate.
    #[test]
    fn flow_model_cuts_gate_workload_events_10x() {
        let gate = |model| {
            with_netmodel(model, || {
                run_big_custom(1, 5, TransportKind::KTcp, GATE_BYTES)
            })
        };
        let (end_p, _, ev_packet) = gate(NetModel::Packet);
        let (end_f, _, ev_flow) = gate(NetModel::Flow);
        assert!(
            ev_packet >= 10 * ev_flow,
            "packet {ev_packet} events vs flow {ev_flow}: ratio {:.1}x < 10x",
            ev_packet as f64 / ev_flow as f64
        );
        // Same workload, comparable virtual completion time (the fluid
        // model idealizes flow control, so allow a loose band).
        let (a, b) = (end_p.as_nanos() as f64, end_f.as_nanos() as f64);
        let rel = (a - b).abs() / a.max(b);
        assert!(
            rel < 0.25,
            "virtual end times diverge: packet {a} ns vs flow {b} ns"
        );
    }
}
