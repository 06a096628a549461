//! Cluster construction: registers per-node resources with the simulation
//! kernel and installs the network engine.
//!
//! The default node mirrors the paper's testbed: Dell Precision 420,
//! 2 × 1 GHz Pentium III, cLAN 1000 adapter on 32-bit/33-MHz PCI, all nodes
//! on one cLAN 5300 switch (non-blocking crossbar).

use crate::engine::{Endpoint, NetSwitch, Network, NodeResources};
use crate::fault::{self, FaultPlan, RecoveryCfg};
use crate::netmodel::NetModel;
use hpsock_sim::knob::Knob;
use hpsock_sim::{Dur, ProcessId, ResourceId, ShardPlan, Sim, SimTime};
use std::collections::HashMap;
use std::sync::Arc;

/// Extra switch latency a connection pays when its endpoints sit in
/// different racks of a hierarchical topology: one additional store-and-
/// forward hop through the core switch (1 µs, of the same order as the
/// cLAN leaf-switch latency). Applied by `Network::connect_with` for both
/// network models.
pub const INTER_RACK_HOP: Dur = Dur::nanos(1_000);

/// Physical shape of a cluster, fixed at build time.
///
/// The packet engine models contention at the hosts only (the paper's
/// single cLAN 5300 crossbar is non-blocking), so [`Topology::Flat`]
/// matches the testbed. [`Topology::Racks`] adds per-rack leaf switches
/// under an oversubscribed core: cross-rack connections pay
/// [`INTER_RACK_HOP`] extra latency under either model, and under the
/// flow model every cross-rack flow additionally shares its source rack's
/// uplink and destination rack's downlink, each of capacity
/// `per_rack × node_wire_rate / oversub`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Topology {
    /// All nodes on one non-blocking crossbar (the paper's testbed).
    #[default]
    Flat,
    /// `racks × per_rack` nodes, numbered rack-major, behind per-rack leaf
    /// switches with oversubscribed core uplinks.
    Racks {
        /// Number of racks.
        racks: usize,
        /// Nodes per rack.
        per_rack: usize,
        /// Core oversubscription factor (≥ 1.0): a rack's uplink carries
        /// `per_rack / oversub` node-rates of traffic.
        oversub: f64,
    },
}

impl Topology {
    /// The rack `node` sits in (0 for every node of a flat cluster).
    pub fn rack_of(&self, node: usize) -> usize {
        match self {
            Topology::Flat => 0,
            Topology::Racks { per_rack, .. } => node / per_rack,
        }
    }

    /// True when two nodes sit in different racks.
    pub fn inter_rack(&self, a: usize, b: usize) -> bool {
        !matches!(self, Topology::Flat) && self.rack_of(a) != self.rack_of(b)
    }
}

/// `HPSOCK_OVERSUB`: the core oversubscription factor of hierarchical
/// rack topologies (default 4, a common datacenter leaf/spine ratio).
pub static OVERSUB: Knob<f64> = Knob::new("HPSOCK_OVERSUB", parse_oversub, || 4.0);

/// Strictly parse a core oversubscription factor: a finite number ≥ 1.
/// Anything else is a hard error naming `HPSOCK_OVERSUB`.
pub fn parse_oversub(raw: &str) -> Result<f64, String> {
    match raw.trim().parse::<f64>() {
        Ok(v) if v.is_finite() && v >= 1.0 => Ok(v),
        _ => Err(format!(
            "HPSOCK_OVERSUB must be a finite factor >= 1, got {raw:?}"
        )),
    }
}

/// The core oversubscription factor: an [`OVERSUB`] scope, else
/// `HPSOCK_OVERSUB`, else 4.
pub fn configured_oversub() -> f64 {
    OVERSUB.get()
}

/// Per-node hardware description.
#[derive(Debug, Clone, Copy)]
pub struct NodeSpec {
    /// Application CPU cores (the paper's nodes are dual-processor).
    pub cores: usize,
}

impl Default for NodeSpec {
    fn default() -> Self {
        NodeSpec { cores: 2 }
    }
}

/// A built cluster: node resources plus the network handle.
pub struct Cluster {
    nodes: Vec<NodeResources>,
    net: Network,
    /// The fault plan active when the cluster was built (from
    /// `HPSOCK_FAULTS` or a scoped [`fault::with_plan`] override); `None`
    /// keeps the engine's fault paths entirely cold.
    faults: Option<Arc<FaultPlan>>,
}

impl Cluster {
    /// Build a cluster of `n` default nodes inside `sim`.
    pub fn build(sim: &mut Sim, n: usize) -> Cluster {
        Cluster::build_with(sim, &vec![NodeSpec::default(); n])
    }

    /// Build a cluster with explicit per-node specs.
    pub fn build_with(sim: &mut Sim, specs: &[NodeSpec]) -> Cluster {
        assert!(!specs.is_empty(), "a cluster needs at least one node");
        let nodes: Vec<NodeResources> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| NodeResources {
                host_tx: sim.add_resource(format!("node{i}.host_tx"), 1),
                nic_tx: sim.add_resource(format!("node{i}.nic_tx"), 1),
                host_rx: sim.add_resource(format!("node{i}.host_rx"), 1),
                cpu: sim.add_resource(format!("node{i}.cpu"), spec.cores),
            })
            .collect();
        let net = NetSwitch::install(sim, nodes.clone());
        let faults = fault::configured_plan();
        if let Some(p) = &faults {
            net.registry.lock().expect("registry lock").faults = Some(Arc::clone(p));
        }
        Cluster { nodes, net, faults }
    }

    /// The fault plan this cluster was built under, if any.
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.faults.clone()
    }

    /// Recovery parameters for fault-aware stream layers; `None` when no
    /// faults are injected (recovery machinery should then stay inert).
    pub fn fault_recovery(&self) -> Option<RecoveryCfg> {
        self.faults.as_ref().map(|p| p.recovery)
    }

    /// Scheduled fail-stop time of `node` under the active fault plan.
    pub fn crash_time(&self, node: crate::engine::NodeId) -> Option<SimTime> {
        self.faults.as_ref().and_then(|p| p.crash_time(node.0))
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the cluster has no nodes (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The network handle (clone freely into application processes).
    pub fn network(&self) -> Network {
        self.net.clone()
    }

    /// The application CPU resource of node `node`.
    pub fn cpu(&self, node: crate::engine::NodeId) -> ResourceId {
        self.nodes[node.0].cpu
    }

    /// Convenience: build an endpoint handle.
    pub fn endpoint(&self, node: crate::engine::NodeId, pid: ProcessId) -> Endpoint {
        assert!(node.0 < self.nodes.len(), "endpoint on unknown node");
        Endpoint { node, pid }
    }

    /// Build a [`ShardPlan`] that partitions the simulation by *node*:
    /// `node_to_shard[i]` places node `i` — its engine core, its four
    /// resources, and every application process with a connection endpoint
    /// on it — onto that shard. Processes that are not connection
    /// endpoints (drivers, collectors) must appear in `pins`
    /// (`(pid, shard)`); resolution fails loudly otherwise.
    ///
    /// The lookahead matrix is derived from the registered connections:
    /// data frames cross shard `a` → `b` no faster than the cheapest
    /// `switch_latency + prop_delay` among `a`→`b` connections, and
    /// acknowledgements/credits cross `a` → `b` no faster than the
    /// cheapest `ack_latency` among connections *from* `b` *to* `a`.
    /// Call after every `connect`; later connections would not be
    /// accounted for.
    ///
    /// Zero-delay application sends (`ctx.send` between processes) are
    /// only safe *within* a shard, so the caller must co-locate any pair
    /// of processes that message each other directly.
    pub fn shard_plan(
        &self,
        shards: usize,
        node_to_shard: Vec<usize>,
        pins: Vec<(ProcessId, usize)>,
    ) -> ShardPlan {
        assert!(shards >= 1, "a shard plan needs at least one shard");
        assert_eq!(
            node_to_shard.len(),
            self.nodes.len(),
            "node_to_shard must cover every node"
        );
        for (i, &s) in node_to_shard.iter().enumerate() {
            assert!(
                s < shards,
                "node {i} assigned to shard {s}, but there are only {shards} shards"
            );
        }
        // Lookahead and link naming from the sealed-to-be topology.
        let mut lookahead = vec![vec![u64::MAX; shards]; shards];
        let mut link_name = vec![vec![String::new(); shards]; shards];
        {
            let reg = self.net.registry.lock().expect("registry lock");
            if reg.model == NetModel::Flow {
                // Under the fluid model all cross-node traffic flows
                // through the fluid core, which the plan pins to shard 0:
                // submissions cross `src → 0` after switch+prop, delivered
                // flows cross `0 → dst` after the minimum delivery
                // residual, and fault notices cross `0 → src` after the
                // loss-detection latency. No packet-era data/ack edges
                // exist. Under an active fault plan any connection may
                // carry a notice, so the bound does not ask which ones do.
                let notice = reg
                    .faults
                    .as_ref()
                    .map(|p| p.recovery.detect.as_nanos().max(1));
                for (ci, c) in reg.conns.iter().enumerate() {
                    let (sa, sb) = (node_to_shard[c.src.node.0], node_to_shard[c.dst.node.0]);
                    let d_tx = crate::fluid::tx_hop(&c.costs).as_nanos();
                    if sa != 0 && d_tx < lookahead[sa][0] {
                        lookahead[sa][0] = d_tx;
                        link_name[sa][0] =
                            format!("conn{ci} node{} -> fluid core (flow arrival)", c.src.node.0);
                    }
                    let drx = crate::fluid::min_delivery(&c.costs).as_nanos();
                    if sb != 0 && drx < lookahead[0][sb] {
                        lookahead[0][sb] = drx;
                        link_name[0][sb] = format!(
                            "fluid core -> conn{ci} node{} (flow delivery)",
                            c.dst.node.0
                        );
                    }
                    if let Some(det) = notice.filter(|&d| sa != 0 && d < lookahead[0][sa]) {
                        lookahead[0][sa] = det;
                        link_name[0][sa] =
                            format!("fluid core -> conn{ci} node{} (fault notice)", c.src.node.0);
                    }
                }
            } else {
                for (ci, c) in reg.conns.iter().enumerate() {
                    let (sa, sb) = (node_to_shard[c.src.node.0], node_to_shard[c.dst.node.0]);
                    if sa == sb {
                        continue;
                    }
                    // Data path: frames src -> dst after switch + propagation.
                    let data = c.costs.switch_latency.as_nanos() + c.costs.prop_delay.as_nanos();
                    if data < lookahead[sa][sb] {
                        lookahead[sa][sb] = data;
                        link_name[sa][sb] = format!(
                            "conn{ci} node{} -> node{} (data path)",
                            c.src.node.0, c.dst.node.0
                        );
                    }
                    // Ack/credit path: dst -> src after the ack latency.
                    let ack = c.costs.ack_latency.as_nanos();
                    if ack < lookahead[sb][sa] {
                        lookahead[sb][sa] = ack;
                        link_name[sb][sa] = format!(
                            "conn{ci} node{} -> node{} (ack path)",
                            c.src.node.0, c.dst.node.0
                        );
                    }
                }
            }
        }
        let node_to_shard = Arc::new(node_to_shard);
        let pins: Arc<HashMap<usize, usize>> =
            Arc::new(pins.into_iter().map(|(p, s)| (p.0, s)).collect());
        let resolve_net = self.net.clone();
        let resolve_nodes = Arc::clone(&node_to_shard);
        let resolve_pins = Arc::clone(&pins);
        let res_nodes: Arc<Vec<NodeResources>> = Arc::new(self.nodes.clone());
        let res_shards = Arc::clone(&node_to_shard);
        let describe_names = Arc::new(link_name);
        ShardPlan {
            shards,
            // Lazy: core pids exist only once the switch's `on_start` has
            // run, which `run_sharded` guarantees before resolving.
            resolve_pid: Arc::new(move |pid: ProcessId| {
                if let Some(&s) = resolve_pins.get(&pid.0) {
                    return s;
                }
                if pid == resolve_net.switch_pid {
                    return 0; // handles no events; placement is moot
                }
                let route = resolve_net
                    .route
                    .get()
                    .expect("shard plan resolved before the simulation started");
                if route.fluid_core == Some(pid) {
                    return 0; // the fluid core is always pinned to shard 0
                }
                for (node, &core) in route.core_of_node.iter().enumerate() {
                    if core == pid {
                        return resolve_nodes[node];
                    }
                }
                let reg = resolve_net.registry.lock().expect("registry lock");
                for c in reg.conns.iter() {
                    if c.src.pid == pid {
                        return resolve_nodes[c.src.node.0];
                    }
                    if c.dst.pid == pid {
                        return resolve_nodes[c.dst.node.0];
                    }
                }
                panic!(
                    "process {pid:?} is not a connection endpoint and has no pin \
                     in the shard plan: add it to `pins`"
                );
            }),
            resolve_rid: Arc::new(move |rid: ResourceId| {
                for (node, r) in res_nodes.iter().enumerate() {
                    if rid == r.host_tx || rid == r.nic_tx || rid == r.host_rx || rid == r.cpu {
                        return res_shards[node];
                    }
                }
                panic!(
                    "resource {rid:?} does not belong to any cluster node; \
                     shard plans cover only cluster-built resources"
                );
            }),
            lookahead: Arc::new(lookahead),
            describe_link: Arc::new(move |a, b| {
                if describe_names[a][b].is_empty() {
                    format!("no connection from shard {a} to shard {b}")
                } else {
                    describe_names[a][b].clone()
                }
            }),
        }
    }

    /// [`Cluster::shard_plan`] with nodes split into `shards` contiguous
    /// groups of near-equal size — the right partition whenever *all*
    /// inter-process traffic flows through registered connections (e.g.
    /// the two-node micro-benchmark topologies). Simulations with
    /// zero-delay `ctx.send` edges between nodes need a hand-built
    /// `node_to_shard` that co-locates those endpoints instead.
    pub fn even_shard_plan(&self, shards: usize) -> ShardPlan {
        let n = self.nodes.len();
        let shards = shards.min(n).max(1);
        let node_to_shard = (0..n).map(|i| i * shards / n).collect();
        self.shard_plan(shards, node_to_shard, vec![])
    }

    /// Build a rack-structured cluster: `racks × per_rack` default nodes,
    /// numbered rack-major (rack `r` holds nodes `r*per_rack ..
    /// (r+1)*per_rack`). The big-topology experiments use this shape —
    /// enough nodes that the sharded kernel's safe windows hold real work.
    pub fn build_racks(sim: &mut Sim, racks: usize, per_rack: usize) -> Cluster {
        assert!(
            racks >= 1 && per_rack >= 1,
            "a rack cluster needs at least one rack of at least one node"
        );
        Cluster::build(sim, racks * per_rack)
    }

    /// [`Cluster::build_racks`] with a hierarchical topology installed:
    /// per-rack leaf switches behind a core oversubscribed by `oversub`
    /// (see [`Topology::Racks`]). Cross-rack connections registered
    /// afterwards pay [`INTER_RACK_HOP`] extra switch latency, and under
    /// `HPSOCK_NETMODEL=flow` share the rack uplinks. `build_racks` itself
    /// stays flat so existing figures and digests are untouched.
    pub fn build_racks_hier(sim: &mut Sim, racks: usize, per_rack: usize, oversub: f64) -> Cluster {
        assert!(
            oversub.is_finite() && oversub >= 1.0,
            "oversubscription must be a finite factor >= 1, got {oversub}"
        );
        let cluster = Cluster::build_racks(sim, racks, per_rack);
        cluster.net.registry.lock().expect("registry lock").topology = Topology::Racks {
            racks,
            per_rack,
            oversub,
        };
        cluster
    }

    /// The topology this cluster was built with.
    pub fn topology(&self) -> Topology {
        self.net.registry.lock().expect("registry lock").topology
    }

    /// [`Cluster::shard_plan`] that splits *whole racks* across shards,
    /// following the registered connections so that producer→consumer
    /// rack pairs share a shard and their streams never cross one:
    ///
    /// 1. **Group.** Racks that share a connection join one component
    ///    (union-find over the connections). Racks are ordered by (their
    ///    component's smallest rack, rack), so a component's racks are
    ///    adjacent.
    /// 2. **Weight.** A rack weighs the kernel events its connection
    ///    halves dispatch: 2 per receive half, 1 per send half. The 2:1
    ///    ratio is structural. Per frame the receive core handles the
    ///    arrival and `HostRxFrameDone`, the send core the credit or ack
    ///    return; per message the receive side adds the application's
    ///    `Delivery`, the send side the `Send` (and, on kernel TCP, the
    ///    `FlowReturn` its consumer sends).
    /// 3. **Cut.** Rack `r` goes to shard `⌊(2·before + w_r)·shards /
    ///    (2·total)⌋`, where `before` is the weight of the racks ahead of
    ///    it in the order: a rack lands where the midpoint of its weight
    ///    falls on an equal-weight cut of the whole. One connected
    ///    component thus becomes a contiguous split balanced by weight.
    ///
    /// Without connections the racks split by index into contiguous
    /// near-equal groups. A shard may stay empty when a few racks outweigh
    /// the rest. `shards` is clamped to the rack count. Same caveats as
    /// [`Cluster::shard_plan`]: call after every `connect`, and all
    /// cross-node traffic must be connection-borne.
    pub fn rack_shard_plan(&self, shards: usize, per_rack: usize) -> ShardPlan {
        let n = self.nodes.len();
        assert!(
            per_rack >= 1 && n % per_rack == 0,
            "rack_shard_plan: {n} nodes do not divide into racks of {per_rack}"
        );
        let racks = n / per_rack;
        let shards = shards.min(racks).max(1);
        let links: Vec<(usize, usize)> = {
            let reg = self.net.registry.lock().expect("registry lock");
            reg.conns
                .iter()
                .map(|c| (c.src.node.0 / per_rack, c.dst.node.0 / per_rack))
                .collect()
        };
        let rack_to_shard = rack_partition(racks, shards, &links);
        let node_to_shard = (0..n).map(|i| rack_to_shard[i / per_rack]).collect();
        self.shard_plan(shards, node_to_shard, vec![])
    }
}

/// Kernel-event weight of a connection's receive half and send half in
/// [`Cluster::rack_shard_plan`].
const RX_WEIGHT: u64 = 2;
const TX_WEIGHT: u64 = 1;

/// The rack-to-shard map of [`Cluster::rack_shard_plan`], from the
/// `(src rack, dst rack)` pair of every connection in `links`.
fn rack_partition(racks: usize, shards: usize, links: &[(usize, usize)]) -> Vec<usize> {
    if links.is_empty() {
        return (0..racks).map(|r| r * shards / racks).collect();
    }
    // Union-find whose root is always the component's smallest rack: the
    // larger root is hung under the smaller one.
    fn find(parent: &mut [usize], mut r: usize) -> usize {
        while parent[r] != r {
            parent[r] = parent[parent[r]];
            r = parent[r];
        }
        r
    }
    let mut parent: Vec<usize> = (0..racks).collect();
    let mut weight = vec![0u64; racks];
    for &(src, dst) in links {
        weight[src] += TX_WEIGHT;
        weight[dst] += RX_WEIGHT;
        let (a, b) = (find(&mut parent, src), find(&mut parent, dst));
        parent[a.max(b)] = a.min(b);
    }
    let mut order: Vec<(usize, usize)> = (0..racks).map(|r| (find(&mut parent, r), r)).collect();
    order.sort_unstable();
    let total: u64 = weight.iter().sum();
    let last = shards as u64 - 1;
    let mut before = 0u64;
    let mut rack_to_shard = vec![0; racks];
    for (_, r) in order {
        // A weightless rack behind all the weight would land on `shards`.
        let cut = ((2 * before + weight[r]) * shards as u64 / (2 * total)).min(last);
        rack_to_shard[r] = cut as usize;
        before += weight[r];
    }
    rack_to_shard
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ConnId, Delivery, NodeId};
    use crate::params::{PathCosts, TransportKind};
    use hpsock_sim::{Ctx, Message, Process, SimTime};

    /// Sends `count` messages of `bytes` each, one at a time (the next send
    /// is issued when the previous delivery is echoed back by the sink via
    /// a plain event), and records per-message one-way times.
    struct Blaster {
        net: Network,
        conn: ConnId,
        bytes: u64,
        count: u32,
        sent: u32,
    }
    impl Process for Blaster {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.net.send(ctx, self.conn, self.bytes, Message::new(()));
            self.sent = 1;
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _msg: Message) {
            if self.sent < self.count {
                self.net.send(ctx, self.conn, self.bytes, Message::new(()));
                self.sent += 1;
            }
        }
    }

    /// Consumes deliveries immediately and pings the sender.
    struct Sink {
        net: Network,
        sender: Option<hpsock_sim::ProcessId>,
        oneway_us: Vec<f64>,
        last_delivery: SimTime,
        delivered: u64,
    }
    impl Process for Sink {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            let d = msg.downcast::<Delivery>().expect("delivery");
            self.oneway_us
                .push(ctx.now().since(d.sent_at).as_micros_f64());
            self.last_delivery = ctx.now();
            self.delivered += d.bytes;
            self.net.consumed(ctx, d.conn, d.msg_id);
            if let Some(s) = self.sender {
                ctx.send(s, Message::new(()));
            }
        }
    }

    fn one_way(kind: TransportKind, bytes: u64) -> f64 {
        let mut sim = hpsock_sim::Sim::new(7);
        let cluster = Cluster::build(&mut sim, 2);
        let net = cluster.network();
        let sink = sim.add_process(Box::new(Sink {
            net: net.clone(),
            sender: None,
            oneway_us: vec![],
            last_delivery: SimTime::ZERO,
            delivered: 0,
        }));
        let blaster = sim.add_process(Box::new(Blaster {
            net: net.clone(),
            conn: ConnId(0),
            bytes,
            count: 1,
            sent: 0,
        }));
        net.connect(
            cluster.endpoint(NodeId(0), blaster),
            cluster.endpoint(NodeId(1), sink),
            kind,
        );
        sim.run();
        let s: &Sink = sim.process(sink).unwrap();
        s.oneway_us[0]
    }

    #[test]
    fn oversub_resolves_strictly() {
        assert_eq!(OVERSUB.resolve(" 2.5 "), Ok(2.5));
        for bad in ["0.5", "inf", "NaN", "x", ""] {
            let err = OVERSUB.resolve(bad).unwrap_err();
            assert!(err.contains("HPSOCK_OVERSUB"), "names the variable: {err}");
        }
    }

    #[test]
    fn unloaded_latency_matches_closed_form() {
        for kind in TransportKind::PAPER_SET {
            for bytes in [4u64, 256, 1024, 4096, 16_384] {
                let sim_us = one_way(kind, bytes);
                let model_us = PathCosts::for_kind(kind)
                    .oneway_latency(bytes)
                    .as_micros_f64();
                let err = (sim_us - model_us).abs() / model_us;
                assert!(
                    err < 0.01,
                    "{} {}B: sim {:.2}us vs model {:.2}us",
                    kind.label(),
                    bytes,
                    sim_us,
                    model_us
                );
            }
        }
    }

    #[test]
    fn socketvia_small_latency_is_9_5us() {
        let us = one_way(TransportKind::SocketVia, 4);
        assert!((us - 9.5).abs() < 0.5, "got {us}");
    }

    #[test]
    fn tcp_is_about_5x_socketvia() {
        let tcp = one_way(TransportKind::KTcp, 4);
        let sv = one_way(TransportKind::SocketVia, 4);
        let r = tcp / sv;
        assert!((4.5..5.5).contains(&r), "ratio {r}");
    }

    fn streamed_bandwidth_mbps(kind: TransportKind, bytes: u64, count: u32) -> f64 {
        let mut sim = hpsock_sim::Sim::new(7);
        let cluster = Cluster::build(&mut sim, 2);
        let net = cluster.network();
        let sink = sim.add_process(Box::new(Sink {
            net: net.clone(),
            sender: None,
            oneway_us: vec![],
            last_delivery: SimTime::ZERO,
            delivered: 0,
        }));
        let blaster = sim.add_process(Box::new(BurstBlaster {
            net: net.clone(),
            conn: ConnId(0),
            bytes,
            count,
        }));
        net.connect(
            cluster.endpoint(NodeId(0), blaster),
            cluster.endpoint(NodeId(1), sink),
            kind,
        );
        sim.run();
        let s: &Sink = sim.process(sink).unwrap();
        assert_eq!(s.delivered, bytes * count as u64, "all bytes delivered");
        8.0 * s.delivered as f64 / s.last_delivery.as_nanos() as f64 * 1_000.0
    }

    /// Submits everything up front; flow control paces the stream.
    struct BurstBlaster {
        net: Network,
        conn: ConnId,
        bytes: u64,
        count: u32,
    }
    impl Process for BurstBlaster {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for _ in 0..self.count {
                self.net.send(ctx, self.conn, self.bytes, Message::new(()));
            }
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {}
    }

    #[test]
    fn streamed_bandwidth_approaches_paper_peaks() {
        let via = streamed_bandwidth_mbps(TransportKind::Via, 65_536, 200);
        let sv = streamed_bandwidth_mbps(TransportKind::SocketVia, 65_536, 200);
        let tcp = streamed_bandwidth_mbps(TransportKind::KTcp, 65_536, 200);
        assert!((via - 795.0).abs() < 40.0, "VIA {via}");
        assert!((sv - 763.0).abs() < 40.0, "SocketVIA {sv}");
        assert!((tcp - 510.0).abs() < 40.0, "TCP {tcp}");
    }

    #[test]
    fn byte_conservation_under_flow_control() {
        // Many small messages through a credit-limited path all arrive.
        let bw = streamed_bandwidth_mbps(TransportKind::SocketVia, 512, 500);
        assert!(bw > 0.0);
    }

    /// A node-partitioned sharded run of a streaming transfer reproduces
    /// the sequential digest, byte counts and timings exactly, over every
    /// transport of the paper's 2-node Figure 4.
    #[test]
    fn sharded_cluster_run_matches_sequential() {
        let run = |kind: TransportKind, shards: usize| {
            let mut sim = hpsock_sim::Sim::new(7);
            let cluster = Cluster::build(&mut sim, 2);
            let net = cluster.network();
            let sink = sim.add_process(Box::new(Sink {
                net: net.clone(),
                sender: None,
                oneway_us: vec![],
                last_delivery: SimTime::ZERO,
                delivered: 0,
            }));
            let blaster = sim.add_process(Box::new(BurstBlaster {
                net: net.clone(),
                conn: ConnId(0),
                bytes: 16_384,
                count: 50,
            }));
            net.connect(
                cluster.endpoint(NodeId(0), blaster),
                cluster.endpoint(NodeId(1), sink),
                kind,
            );
            if shards > 1 {
                sim.set_shard_plan(cluster.shard_plan(2, vec![0, 1], vec![]));
            }
            let end = sim.run();
            let s: &Sink = sim.process(sink).unwrap();
            (
                end.as_nanos(),
                sim.trace_digest(),
                sim.events_dispatched(),
                s.delivered,
                s.last_delivery.as_nanos(),
            )
        };
        for kind in TransportKind::PAPER_SET {
            assert_eq!(run(kind, 2), run(kind, 1), "{kind:?}");
        }
    }

    /// A rack-partitioned sharded run (whole racks per shard) reproduces
    /// the sequential digest exactly, and the rack plan keeps every rack's
    /// nodes on one shard.
    #[test]
    fn rack_shard_plan_matches_sequential() {
        let run = |shards: usize| {
            let mut sim = hpsock_sim::Sim::new(7);
            // 2 racks × 2 nodes; senders in rack 0, receivers in rack 1.
            let cluster = Cluster::build_racks(&mut sim, 2, 2);
            let net = cluster.network();
            for i in 0..2usize {
                let sink = sim.add_process(Box::new(Sink {
                    net: net.clone(),
                    sender: None,
                    oneway_us: vec![],
                    last_delivery: SimTime::ZERO,
                    delivered: 0,
                }));
                let blaster = sim.add_process(Box::new(BurstBlaster {
                    net: net.clone(),
                    conn: ConnId(i),
                    bytes: 16_384,
                    count: 20,
                }));
                net.connect(
                    cluster.endpoint(NodeId(i), blaster),
                    cluster.endpoint(NodeId(2 + i), sink),
                    TransportKind::SocketVia,
                );
            }
            if shards > 1 {
                let plan = cluster.rack_shard_plan(shards, 2);
                assert_eq!(plan.shards, 2, "clamped to the rack count");
                // The receivers' rack weighs twice the senders': one
                // component cut at equal weight still splits the pair.
                assert_eq!(plan_racks(&cluster, &plan, 2), [0, 1]);
                sim.set_shard_plan(plan);
            }
            let end = sim.run();
            (end.as_nanos(), sim.trace_digest(), sim.events_dispatched())
        };
        let seq = run(1);
        assert_eq!(run(2), seq);
        // Requesting more shards than racks clamps to whole racks.
        assert_eq!(run(4), seq);
    }

    /// The shard of every rack under `plan`, read through its resource
    /// resolver (process ids resolve only once a run has started).
    fn plan_racks(cluster: &Cluster, plan: &ShardPlan, per_rack: usize) -> Vec<usize> {
        (0..cluster.len())
            .step_by(per_rack)
            .map(|node| (plan.resolve_rid)(cluster.cpu(NodeId(node))))
            .collect()
    }

    /// A `racks × per_rack` cluster with one SocketVIA connection per
    /// `(src node, dst node)` pair. The endpoints' pids are placeholders:
    /// these clusters only build plans, they never run.
    fn wired_racks(racks: usize, per_rack: usize, pairs: &[(usize, usize)]) -> Cluster {
        let mut sim = hpsock_sim::Sim::new(1);
        let cluster = Cluster::build_racks(&mut sim, racks, per_rack);
        let net = cluster.network();
        for (i, &(src, dst)) in pairs.iter().enumerate() {
            net.connect(
                cluster.endpoint(NodeId(src), ProcessId(2 * i)),
                cluster.endpoint(NodeId(dst), ProcessId(2 * i + 1)),
                TransportKind::SocketVia,
            );
        }
        cluster
    }

    /// The big-topology shape (8 racks × 16, node `i` streams to node
    /// `64 + i`): each sender rack shares a shard with its receiver rack,
    /// so no connection crosses shards and every off-diagonal lookahead
    /// is unbounded.
    #[test]
    fn rack_plan_keeps_stream_rack_pairs_on_one_shard() {
        let pairs: Vec<(usize, usize)> = (0..64).map(|i| (i, 64 + i)).collect();
        let cluster = wired_racks(8, 16, &pairs);
        for (shards, want) in [(2, [0, 0, 1, 1, 0, 0, 1, 1]), (4, [0, 1, 2, 3, 0, 1, 2, 3])] {
            let plan = cluster.rack_shard_plan(shards, 16);
            assert_eq!(plan_racks(&cluster, &plan, 16), want, "{shards} shards");
            for a in 0..shards {
                for b in (0..shards).filter(|&b| b != a) {
                    assert_eq!(
                        plan.lookahead[a][b],
                        u64::MAX,
                        "{shards} shards: {a} -> {b} is {}",
                        (plan.describe_link)(a, b)
                    );
                }
            }
        }
    }

    /// One connected component becomes a contiguous split at equal event
    /// weight (2 per receive half, 1 per send half), not at equal rack
    /// count: in the chain 0 → 1 → 2 ⇉ 3 (four streams on the last hop)
    /// racks weigh 1, 3, 6 and 8, so rack 3 alone outweighs the first two.
    #[test]
    fn rack_plan_cuts_one_component_at_equal_weight() {
        let mut pairs = vec![(0, 1), (1, 2)];
        pairs.extend([(2, 3); 4]);
        let cluster = wired_racks(4, 1, &pairs);
        let plan = cluster.rack_shard_plan(2, 1);
        assert_eq!(plan_racks(&cluster, &plan, 1), [0, 0, 0, 1]);
        // The cut crosses the heavy hop: its data path bounds 0 -> 1.
        assert!(plan.lookahead[0][1] < u64::MAX);
        // A weightless rack behind all the weight stays on the last shard.
        assert_eq!(rack_partition(3, 2, &[(0, 1)]), [0, 1, 1]);
    }

    /// Without connections the plan falls back to the index split.
    #[test]
    fn rack_plan_without_connections_splits_by_index() {
        let cluster = wired_racks(8, 2, &[]);
        for (shards, want) in [
            (2, [0, 0, 0, 0, 1, 1, 1, 1]),
            (3, [0, 0, 0, 1, 1, 1, 2, 2]),
            (4, [0, 0, 1, 1, 2, 2, 3, 3]),
        ] {
            let plan = cluster.rack_shard_plan(shards, 2);
            assert_eq!(plan_racks(&cluster, &plan, 2), want, "{shards} shards");
        }
    }

    /// Using the network before `Sim::run` reports a typed [`NetError`]
    /// naming the operation and the simulation phase, not a bare expect.
    #[test]
    fn pre_start_use_reports_a_typed_error() {
        let mut sim = hpsock_sim::Sim::new(1);
        let cluster = Cluster::build(&mut sim, 2);
        let net = cluster.network();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            net.core_of(NodeId(0));
        }))
        .expect_err("routes do not exist before the run");
        let msg = err
            .downcast_ref::<String>()
            .expect("typed errors panic with a formatted String");
        assert!(msg.contains("core_of"), "names the operation: {msg}");
        assert!(
            msg.contains("before the simulation started"),
            "names the phase: {msg}"
        );
        // And the conn-bearing rendering is pinned exactly.
        let e = crate::engine::NetError::NotStarted {
            op: "send",
            conn: Some(ConnId(3)),
        };
        assert_eq!(
            e.to_string(),
            "net: send on conn 3 before the simulation started; routes exist \
             only once the net switch has run its start phase"
        );
    }

    /// A seeded drop+delay fault run is digest-reproducible across
    /// repeated invocations and across a 1 vs 2 shard partition: fate
    /// draws come from the transmitting core's shard-invariant RNG
    /// stream, and fault delays only ever add latency, so the
    /// conservative-window lookahead still holds.
    #[test]
    fn seeded_faults_are_deterministic_across_shards() {
        let run = |shards: usize| {
            fault::with_spec("drop=0.05,delay=0.2:30us", || {
                let mut sim = hpsock_sim::Sim::new(11);
                let cluster = Cluster::build(&mut sim, 2);
                assert!(cluster.fault_plan().is_some(), "plan installed at build");
                let net = cluster.network();
                let sink = sim.add_process(Box::new(Sink {
                    net: net.clone(),
                    sender: None,
                    oneway_us: vec![],
                    last_delivery: SimTime::ZERO,
                    delivered: 0,
                }));
                let blaster = sim.add_process(Box::new(BurstBlaster {
                    net: net.clone(),
                    conn: ConnId(0),
                    bytes: 16_384,
                    count: 50,
                }));
                net.connect(
                    cluster.endpoint(NodeId(0), blaster),
                    cluster.endpoint(NodeId(1), sink),
                    TransportKind::SocketVia,
                );
                if shards > 1 {
                    sim.set_shard_plan(cluster.shard_plan(2, vec![0, 1], vec![]));
                }
                let end = sim.run();
                let s: &Sink = sim.process(sink).unwrap();
                (
                    end.as_nanos(),
                    sim.trace_digest(),
                    sim.events_dispatched(),
                    s.delivered,
                )
            })
        };
        let seq = run(1);
        assert_eq!(run(1), seq, "repeat invocation reproduces the digest");
        assert_eq!(run(2), seq, "2-shard partition reproduces the digest");
        let delivered = seq.3;
        assert!(delivered > 0, "some messages survive a 5% drop rate");
        assert!(
            delivered < 16_384 * 50,
            "the drop filter lost something: {delivered} bytes all arrived"
        );
    }

    /// The fluid model preserves unloaded one-way latency: a lone message
    /// drains at its bottleneck-stage rate and the delivery residual makes
    /// the end-to-end time equal the packet engine's closed form.
    #[test]
    fn flow_model_matches_unloaded_latency() {
        crate::netmodel::with_netmodel(NetModel::Flow, || {
            for kind in TransportKind::PAPER_SET {
                for bytes in [4u64, 256, 1024, 4096, 16_384] {
                    let sim_us = one_way(kind, bytes);
                    let model_us = PathCosts::for_kind(kind)
                        .oneway_latency(bytes)
                        .as_micros_f64();
                    let err = (sim_us - model_us).abs() / model_us;
                    assert!(
                        err < 0.01,
                        "{} {}B: fluid {:.2}us vs model {:.2}us",
                        kind.label(),
                        bytes,
                        sim_us,
                        model_us
                    );
                }
            }
        });
    }

    /// A streamed fluid transfer reaches the same calibrated peak
    /// bandwidths as the packet engine (and conserves every byte).
    #[test]
    fn flow_model_reaches_paper_peak_bandwidths() {
        crate::netmodel::with_netmodel(NetModel::Flow, || {
            let via = streamed_bandwidth_mbps(TransportKind::Via, 65_536, 200);
            let sv = streamed_bandwidth_mbps(TransportKind::SocketVia, 65_536, 200);
            let tcp = streamed_bandwidth_mbps(TransportKind::KTcp, 65_536, 200);
            assert!((via - 795.0).abs() < 40.0, "VIA {via}");
            assert!((sv - 763.0).abs() < 40.0, "SocketVIA {sv}");
            assert!((tcp - 510.0).abs() < 40.0, "TCP {tcp}");
        });
    }

    /// Two senders sharing one receive host split its bottleneck stage
    /// fairly under the fluid allocator. TCP is the receive-limited
    /// transport (the paper's rx-side protocol cost dominates), so two
    /// TCP streams into one node each get about half the 510 Mbps peak —
    /// while the senders' own NIC stages stay un-contended.
    #[test]
    fn flow_model_shares_a_receive_host_fairly() {
        crate::netmodel::with_netmodel(NetModel::Flow, || {
            let mut sim = hpsock_sim::Sim::new(7);
            let cluster = Cluster::build(&mut sim, 3);
            let net = cluster.network();
            let mut sinks = vec![];
            for i in 0..2usize {
                let sink = sim.add_process(Box::new(Sink {
                    net: net.clone(),
                    sender: None,
                    oneway_us: vec![],
                    last_delivery: SimTime::ZERO,
                    delivered: 0,
                }));
                let blaster = sim.add_process(Box::new(BurstBlaster {
                    net: net.clone(),
                    conn: ConnId(i),
                    bytes: 65_536,
                    count: 100,
                }));
                // Both connections terminate at node 2: its host_rx link
                // is the shared bottleneck.
                net.connect(
                    cluster.endpoint(NodeId(i), blaster),
                    cluster.endpoint(NodeId(2), sink),
                    TransportKind::KTcp,
                );
                sinks.push(sink);
            }
            sim.run();
            for sink in sinks {
                let s: &Sink = sim.process(sink).unwrap();
                assert_eq!(s.delivered, 65_536 * 100, "all bytes delivered");
                let mbps = 8.0 * s.delivered as f64 / s.last_delivery.as_nanos() as f64 * 1_000.0;
                // Half of the ~510 Mbps TCP peak, within startup slack.
                assert!(
                    (mbps - 255.0).abs() < 30.0,
                    "each stream gets a fair half: {mbps} Mbps"
                );
            }
        });
    }

    /// A sharded fluid run reproduces the sequential digest, byte counts
    /// and timings exactly: all flow state lives on the pinned fluid core
    /// and every edge touching it has positive lookahead.
    #[test]
    fn flow_model_sharded_run_matches_sequential() {
        let run = |shards: usize| {
            crate::netmodel::with_netmodel(NetModel::Flow, || {
                let mut sim = hpsock_sim::Sim::new(7);
                let cluster = Cluster::build(&mut sim, 2);
                let net = cluster.network();
                let sink = sim.add_process(Box::new(Sink {
                    net: net.clone(),
                    sender: None,
                    oneway_us: vec![],
                    last_delivery: SimTime::ZERO,
                    delivered: 0,
                }));
                let blaster = sim.add_process(Box::new(BurstBlaster {
                    net: net.clone(),
                    conn: ConnId(0),
                    bytes: 16_384,
                    count: 50,
                }));
                net.connect(
                    cluster.endpoint(NodeId(0), blaster),
                    cluster.endpoint(NodeId(1), sink),
                    TransportKind::SocketVia,
                );
                if shards > 1 {
                    sim.set_shard_plan(cluster.shard_plan(2, vec![0, 1], vec![]));
                }
                let end = sim.run();
                let s: &Sink = sim.process(sink).unwrap();
                (
                    end.as_nanos(),
                    sim.trace_digest(),
                    sim.events_dispatched(),
                    s.delivered,
                    s.last_delivery.as_nanos(),
                )
            })
        };
        assert_eq!(run(2), run(1));
    }

    /// `HPSOCK_FAULTS` composes with the fluid model: fates are drawn at
    /// flow granularity on the fluid core's own RNG stream, reproducibly
    /// across repeats and shard partitions, and drops actually lose data.
    #[test]
    fn flow_model_composes_with_faults() {
        let run = |shards: usize| {
            crate::netmodel::with_netmodel(NetModel::Flow, || {
                fault::with_spec("drop=0.05,delay=0.2:30us", || {
                    let mut sim = hpsock_sim::Sim::new(11);
                    let cluster = Cluster::build(&mut sim, 2);
                    assert!(cluster.fault_plan().is_some(), "plan installed at build");
                    let net = cluster.network();
                    let sink = sim.add_process(Box::new(Sink {
                        net: net.clone(),
                        sender: None,
                        oneway_us: vec![],
                        last_delivery: SimTime::ZERO,
                        delivered: 0,
                    }));
                    let blaster = sim.add_process(Box::new(BurstBlaster {
                        net: net.clone(),
                        conn: ConnId(0),
                        bytes: 16_384,
                        count: 50,
                    }));
                    net.connect(
                        cluster.endpoint(NodeId(0), blaster),
                        cluster.endpoint(NodeId(1), sink),
                        TransportKind::SocketVia,
                    );
                    if shards > 1 {
                        sim.set_shard_plan(cluster.shard_plan(2, vec![0, 1], vec![]));
                    }
                    let end = sim.run();
                    let s: &Sink = sim.process(sink).unwrap();
                    (
                        end.as_nanos(),
                        sim.trace_digest(),
                        sim.events_dispatched(),
                        s.delivered,
                    )
                })
            })
        };
        let seq = run(1);
        assert_eq!(run(1), seq, "repeat invocation reproduces the digest");
        assert_eq!(run(2), seq, "2-shard partition reproduces the digest");
        let delivered = seq.3;
        assert!(delivered > 0, "some flows survive a 5% drop rate");
        assert!(
            delivered < 16_384 * 50,
            "the drop filter lost something: {delivered} bytes all arrived"
        );
    }

    /// A scheduled node crash cuts fluid streams too: in-flight and queued
    /// flows fail over to `StreamError`s and the stream stops short.
    #[test]
    fn flow_model_node_crash_cuts_streams() {
        let run = || {
            crate::netmodel::with_netmodel(NetModel::Flow, || {
                fault::with_spec("crash=1@200us,detect=100us", || {
                    let mut sim = hpsock_sim::Sim::new(3);
                    let cluster = Cluster::build(&mut sim, 2);
                    let net = cluster.network();
                    let sink = sim.add_process(Box::new(Sink {
                        net: net.clone(),
                        sender: None,
                        oneway_us: vec![],
                        last_delivery: SimTime::ZERO,
                        delivered: 0,
                    }));
                    let blaster = sim.add_process(Box::new(BurstBlaster {
                        net: net.clone(),
                        conn: ConnId(0),
                        bytes: 16_384,
                        count: 50,
                    }));
                    net.connect(
                        cluster.endpoint(NodeId(0), blaster),
                        cluster.endpoint(NodeId(1), sink),
                        TransportKind::SocketVia,
                    );
                    let end = sim.run();
                    let s: &Sink = sim.process(sink).unwrap();
                    (end.as_nanos(), sim.trace_digest(), s.delivered)
                })
            })
        };
        let a = run();
        assert_eq!(run(), a, "crash runs reproduce");
        assert!(a.2 > 0, "flows before the crash deliver");
        assert!(
            a.2 < 16_384 * 50,
            "the crash cut the stream: {} bytes all arrived",
            a.2
        );
    }

    /// Hierarchical topology: cross-rack connections pay the extra core
    /// hop under both models, and under the fluid model an oversubscribed
    /// uplink caps aggregate cross-rack bandwidth below the sum of the
    /// per-host peaks.
    #[test]
    fn hier_topology_adds_hop_and_caps_uplinks() {
        // Latency: one cross-rack message pays exactly INTER_RACK_HOP more.
        let one_way_hier = |oversub: f64| {
            let mut sim = hpsock_sim::Sim::new(7);
            let cluster = Cluster::build_racks_hier(&mut sim, 2, 2, oversub);
            let net = cluster.network();
            let sink = sim.add_process(Box::new(Sink {
                net: net.clone(),
                sender: None,
                oneway_us: vec![],
                last_delivery: SimTime::ZERO,
                delivered: 0,
            }));
            let blaster = sim.add_process(Box::new(Blaster {
                net: net.clone(),
                conn: ConnId(0),
                bytes: 4096,
                count: 1,
                sent: 0,
            }));
            net.connect(
                cluster.endpoint(NodeId(0), blaster),
                cluster.endpoint(NodeId(2), sink),
                TransportKind::Via,
            );
            sim.run();
            let s: &Sink = sim.process(sink).unwrap();
            s.oneway_us[0]
        };
        let flat = one_way(TransportKind::Via, 4096);
        let hier = one_way_hier(4.0);
        let extra_us = INTER_RACK_HOP.as_nanos() as f64 / 1_000.0;
        assert!(
            (hier - flat - extra_us).abs() < 0.01,
            "cross-rack adds one core hop: flat {flat}us hier {hier}us"
        );

        // Bandwidth: 2 cross-rack VIA streams into distinct receivers
        // would reach ~2x795 Mbps flat; an oversub=4 uplink of 2-node
        // racks caps the pair at per_rack/oversub = 0.5 node-rates.
        let aggregate = |oversub: f64| {
            crate::netmodel::with_netmodel(NetModel::Flow, || {
                let mut sim = hpsock_sim::Sim::new(7);
                let cluster = Cluster::build_racks_hier(&mut sim, 2, 2, oversub);
                let net = cluster.network();
                let mut sinks = vec![];
                for i in 0..2usize {
                    let sink = sim.add_process(Box::new(Sink {
                        net: net.clone(),
                        sender: None,
                        oneway_us: vec![],
                        last_delivery: SimTime::ZERO,
                        delivered: 0,
                    }));
                    let blaster = sim.add_process(Box::new(BurstBlaster {
                        net: net.clone(),
                        conn: ConnId(i),
                        bytes: 65_536,
                        count: 50,
                    }));
                    net.connect(
                        cluster.endpoint(NodeId(i), blaster),
                        cluster.endpoint(NodeId(2 + i), sink),
                        TransportKind::Via,
                    );
                    sinks.push(sink);
                }
                sim.run();
                sinks
                    .iter()
                    .map(|&s| {
                        let s: &Sink = sim.process(s).unwrap();
                        assert_eq!(s.delivered, 65_536 * 50, "all bytes delivered");
                        8.0 * s.delivered as f64 / s.last_delivery.as_nanos() as f64 * 1_000.0
                    })
                    .sum::<f64>()
            })
        };
        let capped = aggregate(4.0);
        // 2-node racks, oversub 4: uplink = 2/4 node-rates = ~397 Mbps.
        assert!(
            (capped - 397.5).abs() < 25.0,
            "oversubscribed uplink caps the aggregate: {capped} Mbps"
        );
        let uncapped = aggregate(1.0);
        assert!(
            uncapped > 2.0 * 700.0,
            "a non-blocking core carries both streams at full rate: {uncapped} Mbps"
        );
    }

    /// A scheduled node crash cuts the connection: the sender's queued
    /// messages fail over to `StreamError` events instead of wedging the
    /// run, and frames arriving at the dead node return nothing.
    #[test]
    fn node_crash_cuts_streams_deterministically() {
        let run = || {
            fault::with_spec("crash=1@200us,detect=100us", || {
                let mut sim = hpsock_sim::Sim::new(3);
                let cluster = Cluster::build(&mut sim, 2);
                assert_eq!(
                    cluster.crash_time(NodeId(1)),
                    Some(SimTime::ZERO + hpsock_sim::Dur::micros(200))
                );
                let net = cluster.network();
                let sink = sim.add_process(Box::new(Sink {
                    net: net.clone(),
                    sender: None,
                    oneway_us: vec![],
                    last_delivery: SimTime::ZERO,
                    delivered: 0,
                }));
                let blaster = sim.add_process(Box::new(BurstBlaster {
                    net: net.clone(),
                    conn: ConnId(0),
                    bytes: 16_384,
                    count: 50,
                }));
                net.connect(
                    cluster.endpoint(NodeId(0), blaster),
                    cluster.endpoint(NodeId(1), sink),
                    TransportKind::SocketVia,
                );
                let end = sim.run();
                let s: &Sink = sim.process(sink).unwrap();
                (end.as_nanos(), sim.trace_digest(), s.delivered)
            })
        };
        let a = run();
        assert_eq!(run(), a, "crash runs reproduce");
        assert!(
            a.2 < 16_384 * 50,
            "the crash cut the stream: {} bytes all arrived",
            a.2
        );
    }
}
