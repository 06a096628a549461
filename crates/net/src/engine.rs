//! The network engine: per-node core processes that walk message frames
//! through the stage pipeline
//!
//! ```text
//! host_tx (sender CPU protocol engine)
//!   -> nic_tx (sender NIC DMA + wire serialization)
//!   -> switch + propagation (pure delay)
//!   -> host_rx (receiver protocol engine)
//!   -> delivery to the destination process
//! ```
//!
//! Each stage is a FCFS resource per node, so concurrent connections through
//! the same node contend for the host protocol engines and the NIC exactly
//! once per frame. Flow control ([`crate::flow::Flow`]) gates frame
//! emission; acknowledgments and credit returns travel back as delayed
//! events with the transport's `ack_latency`.
//!
//! Engine state is owned per node by a [`NodeCore`] process: the core of a
//! connection's source node owns the send side (flow-control window, send
//! queue, stall accounting) and the destination node's core owns the
//! receive side (frame reassembly, delivery, consumption tracking). All
//! traffic between the two halves rides on delayed events — the
//! switch/propagation hop towards the receiver and the `ack_latency` return
//! path towards the sender — so no zero-delay event ever crosses a node
//! boundary inside the engine. That property is what lets the sharded
//! kernel (`hpsock_sim::shard`) place different nodes' cores on different
//! worker threads with a positive lookahead on every cross-shard link.
//!
//! A single [`NetSwitch`] placeholder process (installed first, before any
//! application process) seals the connection [`Registry`] at start and
//! spawns the per-node cores; spawned cores take process ids *after* every
//! application process, so application pids and their deterministic RNG
//! streams are identical to what a monolithic engine produced.
//!
//! Application processes talk to the engine through [`Network`] (commands
//! are zero-delay events to the owning core, which lives on the same node
//! as the commanding endpoint) and receive [`Delivery`] messages when a
//! whole application message has been reassembled at the receiver.

use crate::cluster::Topology;
use crate::fault::{ConnFaults, FaultPlan, MsgFate};
use crate::flow::Flow;
use crate::fluid::{FluidCore, FluidEv};
use crate::frame::{frame_count, frame_len};
use crate::netmodel::NetModel;
use crate::params::{PathCosts, TransportKind};
use hpsock_sim::stats::{Tally, TimeWeighted};
use hpsock_sim::{Ctx, Dur, Message, ProbeEvent, Process, ProcessId, ResourceId, Sim, SimTime};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A node in the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// A connection between two endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(pub usize);

/// One side of a connection: a process pinned to a node.
#[derive(Debug, Clone, Copy)]
pub struct Endpoint {
    /// Node the endpoint lives on (determines which resources it uses).
    pub node: NodeId,
    /// Process that receives [`Delivery`] events for this endpoint.
    pub pid: ProcessId,
}

/// Per-node resources the engine drives.
#[derive(Debug, Clone, Copy)]
pub struct NodeResources {
    /// Host protocol engine, transmit side (1 server).
    pub host_tx: ResourceId,
    /// NIC DMA + wire serialization (1 server).
    pub nic_tx: ResourceId,
    /// Host protocol engine, receive side (1 server).
    pub host_rx: ResourceId,
    /// Application CPU (typically 2 servers: dual-processor nodes).
    pub cpu: ResourceId,
}

/// A fully reassembled application message handed to the destination
/// process as its event payload.
pub struct Delivery {
    /// Connection it arrived on.
    pub conn: ConnId,
    /// Engine-assigned message id; pass back via [`Network::consumed`].
    pub msg_id: u64,
    /// Application payload size in simulated bytes.
    pub bytes: u64,
    /// Virtual time the sender issued the message.
    pub sent_at: SimTime,
    /// Opaque application payload.
    pub payload: Message,
}

/// A typed start/stop edge error: the engine was driven outside the
/// window in which its routes exist. Rendered (and panicked with) instead
/// of a bare `expect`, so a mis-sequenced driver reports *what* was used
/// early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetError {
    /// An operation needed the connection routes before the simulation
    /// started (routes are installed when [`NetSwitch`] starts).
    NotStarted {
        /// The operation that was attempted.
        op: &'static str,
        /// The connection involved, when the operation names one.
        conn: Option<ConnId>,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::NotStarted { op, conn } => {
                write!(f, "net: {op}")?;
                if let Some(c) = conn {
                    write!(f, " on conn {}", c.0)?;
                }
                write!(
                    f,
                    " before the simulation started; routes exist only once \
                     the net switch has run its start phase"
                )
            }
        }
    }
}

impl std::error::Error for NetError {}

/// Why a stream operation failed. Carried on [`StreamError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamErrorKind {
    /// The message was lost on the wire by an injected fault (drop filter
    /// or link flap); the connection itself is still up.
    Lost,
    /// An endpoint node fail-stopped; the connection is cut and every
    /// queued or in-flight message on it has failed.
    PeerDead,
    /// A send was submitted on a connection that was already cut.
    NotConnected,
}

/// A recoverable stream failure, delivered to the *sending* process as an
/// ordinary event in place of silent loss (and in place of the panics the
/// engine used to reserve for impossible states). Senders learn the engine
/// message id from the return value of [`Network::send`].
#[derive(Debug, Clone, Copy)]
pub struct StreamError {
    /// The connection the message was submitted on.
    pub conn: ConnId,
    /// Engine message id, as returned by [`Network::send`].
    pub msg_id: u64,
    /// Application payload size of the failed message.
    pub bytes: u64,
    /// What happened.
    pub kind: StreamErrorKind,
}

/// Commands applications send to the engine.
pub enum NetCmd {
    /// Transmit `payload` (`bytes` simulated bytes) on `conn`.
    Send {
        /// Connection to send on.
        conn: ConnId,
        /// Engine message id pre-assigned by [`Network::send`].
        msg_id: u64,
        /// Simulated payload size.
        bytes: u64,
        /// Opaque payload delivered to the peer.
        payload: Message,
    },
    /// The application consumed a delivered message: frees receive-side
    /// buffer space / returns descriptor credits.
    Consumed {
        /// Connection the message arrived on.
        conn: ConnId,
        /// The id from the corresponding [`Delivery`].
        msg_id: u64,
    },
}

/// Engine-internal frame/stage events. Frame length rides in the event so
/// receive-side handlers never need the sender's per-message state.
enum Ev {
    HostTxDone {
        conn: ConnId,
        msg: u64,
        frame: u32,
        flen: u32,
    },
    WireDone {
        conn: ConnId,
        msg: u64,
        frame: u32,
        flen: u32,
    },
    /// Frame 0 arriving at the receiver, carrying the message metadata the
    /// receive side needs (frames always traverse the FCFS stage chain in
    /// order, so frame 0 arrives before any other frame of its message).
    RxFirst {
        conn: ConnId,
        msg: u64,
        flen: u32,
        frames: u32,
        bytes: u64,
        sent_at: SimTime,
        payload: Message,
    },
    /// A later frame (index ≥ 1) arriving at the receiver. Reassembly only
    /// counts frames, so the frame index does not travel.
    RxArrive {
        conn: ConnId,
        msg: u64,
        flen: u32,
    },
    HostRxFrameDone {
        conn: ConnId,
        msg: u64,
        flen: u32,
    },
    MsgReady {
        conn: ConnId,
        msg: u64,
    },
    /// Window ack (window model): frees in-flight bytes at the sender.
    AckArrive {
        conn: ConnId,
        frame_bytes: u64,
    },
    /// Descriptor credits re-posted at frame arrival reached the sender
    /// (credits model).
    CreditArrive {
        conn: ConnId,
        n: u32,
    },
    /// Consumption notification reached the sender: frees receive-buffer
    /// accounting (window model).
    FlowReturn {
        conn: ConnId,
        bytes: u64,
    },
    /// Loss-detection timer for a fault-doomed message fired at the
    /// sender: repair flow control for the charged frames and surface a
    /// [`StreamError`] to the sending process.
    MsgLost {
        conn: ConnId,
        msg: u64,
    },
    /// Crash-detection timer for a connection whose endpoint node
    /// fail-stops: fail everything queued or in flight and mark the send
    /// half dead.
    ConnCut {
        conn: ConnId,
    },
}

/// Counters and distributions per connection. Send-side fields are filled
/// by the source node's core, receive-side fields by the destination
/// node's core; read them back via [`Network::core_of`] +
/// [`hpsock_sim::Sim::process`] with [`NodeCore::tx_stats`] /
/// [`NodeCore::rx_stats`].
#[derive(Debug, Clone, Default)]
pub struct ConnStats {
    /// Application messages submitted.
    pub msgs_sent: u64,
    /// Application bytes submitted.
    pub bytes_sent: u64,
    /// Application messages delivered.
    pub msgs_delivered: u64,
    /// Application bytes delivered.
    pub bytes_delivered: u64,
    /// Send→delivery latency in microseconds.
    pub latency_us: Tally,
    /// Sender queue depth (messages waiting for flow-control headroom).
    pub queue_depth: TimeWeighted,
    /// Total time the sender sat blocked on flow-control credits with data
    /// queued (the paper's "waiting for descriptor credits" component).
    pub credit_stall: Dur,
    /// Frames (wire segments) submitted to the sender's host engine.
    pub frames_tx: u64,
    /// Per-frame receive completions (interrupt-path invocations).
    pub rx_interrupts: u64,
}

struct PendingMsg {
    msg: u64,
    bytes: u64,
    next_frame: u32,
    frames: u32,
}

/// Send-side per-message metadata, held until frame 0 leaves the wire and
/// carries it to the receiver inside [`Ev::RxFirst`].
struct TxMsgMeta {
    bytes: u64,
    frames: u32,
    sent_at: SimTime,
    payload: Message,
}

/// Receive-side reassembly state for one in-flight message.
struct RxMsgState {
    bytes: u64,
    frames: u32,
    frames_arrived: u32,
    sent_at: SimTime,
    payload: Option<Message>,
}

/// Bookkeeping for a message the fault layer doomed at the wire: its
/// already-emitted frames are drained from the stage pipeline without
/// being forwarded, and flow control is repaired when the loss-detection
/// timer fires.
struct DoomedMsg {
    bytes: u64,
    /// Frames charged to flow control before the doom verdict (frames the
    /// repair must return).
    frames_charged: u32,
    /// Charged frames whose `WireDone` has drained so far.
    seen: u32,
    /// The `MsgLost` repair has run; the entry only lingers to absorb
    /// still-in-pipeline frames.
    repaired: bool,
    kind: StreamErrorKind,
}

/// A message a delay filter hit: every frame gets the same added wire
/// latency, so frames of one message never reorder among themselves.
struct DelayedMsg {
    extra: Dur,
    frames: u32,
    seen: u32,
}

/// Send half of a connection, owned by the source node's core.
struct TxConn {
    conn: ConnId,
    costs: Arc<PathCosts>,
    flow: Flow,
    sendq: VecDeque<PendingMsg>,
    pending_meta: HashMap<u64, TxMsgMeta>,
    stats: ConnStats,
    /// When the sender last became credit-blocked with data queued.
    stall_since: Option<SimTime>,
    /// Compiled fault state (`None` on a fault-free link: the hot path
    /// then performs no RNG draws and schedules no extra events).
    faults: Option<ConnFaults>,
    /// The sending process, target of [`StreamError`] events.
    src_pid: ProcessId,
    /// Set by [`Ev::ConnCut`]; a dead connection accepts no traffic.
    dead: bool,
    doomed: HashMap<u64, DoomedMsg>,
    delayed: HashMap<u64, DelayedMsg>,
}

impl TxConn {
    fn new(conn: ConnId, spec: &ConnSpec, faults: Option<&FaultPlan>) -> Self {
        TxConn {
            conn,
            costs: Arc::clone(&spec.costs),
            flow: Flow::new(spec.costs.flow, spec.costs.frame_payload),
            sendq: VecDeque::new(),
            pending_meta: HashMap::new(),
            stats: ConnStats::default(),
            stall_since: None,
            faults: faults.and_then(|p| p.compile(spec.src.node.0, spec.dst.node.0)),
            src_pid: spec.src.pid,
            dead: false,
            doomed: HashMap::new(),
            delayed: HashMap::new(),
        }
    }
}

/// Receive half of a connection, owned by the destination node's core.
struct RxConn {
    conn: ConnId,
    dst: Endpoint,
    costs: Arc<PathCosts>,
    /// Same flow model as the send side; the receive half only drives the
    /// arrival path (descriptor reap/re-post in the credits model).
    flow: Flow,
    msgs: HashMap<u64, RxMsgState>,
    /// Delivered, not yet consumed: msg_id -> (bytes, frames).
    unconsumed: HashMap<u64, (u64, u32)>,
    stats: ConnStats,
    /// Fail-stop time of this (destination) node, when the fault plan
    /// crashes it: frames arriving afterwards are dropped, returning no
    /// acks or credits.
    cut_at: Option<SimTime>,
}

impl RxConn {
    fn new(conn: ConnId, spec: &ConnSpec, faults: Option<&FaultPlan>) -> Self {
        RxConn {
            conn,
            dst: spec.dst,
            costs: Arc::clone(&spec.costs),
            flow: Flow::new(spec.costs.flow, spec.costs.frame_payload),
            msgs: HashMap::new(),
            unconsumed: HashMap::new(),
            stats: ConnStats::default(),
            cut_at: faults.and_then(|p| p.crash_time(spec.dst.node.0)),
        }
    }
}

/// Connection specification recorded before the run starts.
pub(crate) struct ConnSpec {
    pub(crate) src: Endpoint,
    pub(crate) dst: Endpoint,
    pub(crate) costs: Arc<PathCosts>,
}

#[derive(Default)]
pub(crate) struct Registry {
    pub(crate) conns: Vec<ConnSpec>,
    pub(crate) sealed: bool,
    /// The fault plan the owning cluster was built under, if any.
    pub(crate) faults: Option<Arc<FaultPlan>>,
    /// Which network engine this cluster simulates with; resolved from
    /// `HPSOCK_NETMODEL` (or a scoped override) on the thread that built
    /// the cluster, so worker threads of a sharded run see the builder's
    /// choice.
    pub(crate) model: NetModel,
    /// Physical shape of the cluster. [`Topology::Racks`] adds the
    /// inter-rack switch hop to cross-rack connections and, under the flow
    /// model, routes their flows through oversubscribed rack uplinks.
    pub(crate) topology: Topology,
}

/// Where each connection's halves live, fixed once the simulation starts.
pub(crate) struct Route {
    /// Core owning the send half, per connection (the source node's core).
    pub(crate) tx_core: Vec<ProcessId>,
    /// Core owning the receive half, per connection.
    pub(crate) rx_core: Vec<ProcessId>,
    /// Position of each connection's send half in its owner's
    /// [`NodeCore`] `tx` table.
    pub(crate) tx_slot: Vec<u32>,
    /// Position of each connection's receive half in its owner's `rx`
    /// table.
    pub(crate) rx_slot: Vec<u32>,
    /// Next engine message id per connection. Lives here (not in the send
    /// half) so [`Network::send`] can hand the id back to the caller
    /// synchronously without a lock; each connection has a single sending
    /// process, so the sequence stays deterministic under sharding.
    pub(crate) next_msg_id: Vec<AtomicU64>,
    /// Core process of each node.
    pub(crate) core_of_node: Vec<ProcessId>,
    /// The single [`FluidCore`] process under [`NetModel::Flow`]; `None`
    /// under the packet model. Shard plans pin it to shard 0.
    pub(crate) fluid_core: Option<ProcessId>,
}

/// Cheap-to-clone application handle to the network engine.
#[derive(Clone)]
pub struct Network {
    pub(crate) registry: Arc<Mutex<Registry>>,
    pub(crate) route: Arc<OnceLock<Route>>,
    /// The [`NetSwitch`] placeholder's pid; it handles no messages after
    /// `on_start`, so a shard plan may place it anywhere.
    pub(crate) switch_pid: ProcessId,
}

impl Network {
    /// Register a unidirectional connection. Must be called before the
    /// simulation runs (connections are established up front, as in
    /// DataCutter). Uses calibrated costs for `kind`.
    pub fn connect(&self, src: Endpoint, dst: Endpoint, kind: TransportKind) -> ConnId {
        self.connect_with(src, dst, Arc::new(PathCosts::for_kind(kind)))
    }

    /// Register a connection with explicit (e.g. ablated) path costs.
    /// Under a hierarchical topology, connections that cross rack
    /// boundaries pay one extra switch hop ([`crate::cluster::INTER_RACK_HOP`])
    /// on top of the given costs.
    pub fn connect_with(&self, src: Endpoint, dst: Endpoint, costs: Arc<PathCosts>) -> ConnId {
        let mut reg = self.registry.lock().expect("registry lock");
        assert!(
            !reg.sealed,
            "connections must be registered before the simulation runs"
        );
        let costs = if reg.topology.inter_rack(src.node.0, dst.node.0) {
            let mut c = (*costs).clone();
            c.switch_latency += crate::cluster::INTER_RACK_HOP;
            Arc::new(c)
        } else {
            costs
        };
        let id = ConnId(reg.conns.len());
        reg.conns.push(ConnSpec { src, dst, costs });
        id
    }

    /// The routing table, or a typed [`NetError`] naming the operation
    /// (and connection) that was attempted too early.
    fn try_route(&self, op: &'static str, conn: Option<ConnId>) -> Result<&Route, NetError> {
        self.route.get().ok_or(NetError::NotStarted { op, conn })
    }

    fn route(&self, op: &'static str, conn: Option<ConnId>) -> &Route {
        self.try_route(op, conn).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Submit a message (called from an application process handler).
    /// Returns the engine message id, which identifies this message in the
    /// matching [`Delivery`] — or in a [`StreamError`], should the fault
    /// layer lose it.
    pub fn send(&self, ctx: &mut Ctx<'_>, conn: ConnId, bytes: u64, payload: Message) -> u64 {
        let route = self.route("send", Some(conn));
        let msg_id = route.next_msg_id[conn.0].fetch_add(1, Ordering::Relaxed);
        ctx.send(
            route.tx_core[conn.0],
            Message::new(NetCmd::Send {
                conn,
                msg_id,
                bytes,
                payload,
            }),
        );
        msg_id
    }

    /// Report consumption of a delivered message (frees flow-control
    /// resources at the sender after the transport's ack latency).
    pub fn consumed(&self, ctx: &mut Ctx<'_>, conn: ConnId, msg_id: u64) {
        ctx.send(
            self.route("consumed", Some(conn)).rx_core[conn.0],
            Message::new(NetCmd::Consumed { conn, msg_id }),
        );
    }

    /// The engine core process serving `node` (valid once the simulation
    /// has started). Useful to read back [`NodeCore`] statistics.
    pub fn core_of(&self, node: NodeId) -> ProcessId {
        self.route("core_of", None).core_of_node[node.0]
    }
}

/// Placeholder process that seals the registry and spawns the per-node
/// cores when the simulation starts. Construct via [`NetSwitch::install`].
pub struct NetSwitch {
    nodes: Vec<NodeResources>,
    registry: Arc<Mutex<Registry>>,
    route: Arc<OnceLock<Route>>,
}

impl NetSwitch {
    /// Create the engine inside `sim` for a cluster with the given per-node
    /// resources; returns the application handle. Must be installed before
    /// any application process so the connection routes exist by the time
    /// application `on_start` hooks send.
    pub fn install(sim: &mut Sim, nodes: Vec<NodeResources>) -> Network {
        // The network model is resolved here, on the building thread, so
        // scoped `with_netmodel` overrides take effect even when the run
        // itself executes on sharded worker threads.
        let registry = Arc::new(Mutex::new(Registry {
            model: crate::netmodel::configured_netmodel(),
            ..Registry::default()
        }));
        let route = Arc::new(OnceLock::new());
        let switch = NetSwitch {
            nodes,
            registry: Arc::clone(&registry),
            route: Arc::clone(&route),
        };
        let switch_pid = sim.add_process(Box::new(switch));
        Network {
            registry,
            route,
            switch_pid,
        }
    }
}

impl Process for NetSwitch {
    fn name(&self) -> String {
        "net-switch".to_string()
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let mut reg = self.registry.lock().expect("registry lock");
        reg.sealed = true;
        // Each core holds only the halves it owns, in connection-id order;
        // the route records where each half landed.
        let n = self.nodes.len();
        let mut tx: Vec<Vec<TxConn>> = (0..n).map(|_| Vec::new()).collect();
        let mut rx: Vec<Vec<RxConn>> = (0..n).map(|_| Vec::new()).collect();
        let mut tx_slot = Vec::with_capacity(reg.conns.len());
        let mut rx_slot = Vec::with_capacity(reg.conns.len());
        let faults = reg.faults.as_deref();
        for (ci, spec) in reg.conns.iter().enumerate() {
            let conn = ConnId(ci);
            let (src, dst) = (spec.src.node.0, spec.dst.node.0);
            let slot = |len: usize| u32::try_from(len).expect("under 2^32 halves per node");
            tx_slot.push(slot(tx[src].len()));
            tx[src].push(TxConn::new(conn, spec, faults));
            rx_slot.push(slot(rx[dst].len()));
            rx[dst].push(RxConn::new(conn, spec, faults));
        }
        // Spawned cores start after every process added before the run, so
        // application pids (and with them RNG streams) are unaffected by
        // how many cores exist.
        let core_of_node: Vec<ProcessId> = tx
            .into_iter()
            .zip(rx)
            .enumerate()
            .map(|(i, (tx, rx))| {
                ctx.spawn(Box::new(NodeCore {
                    node: NodeId(i),
                    res: self.nodes[i],
                    route: Arc::clone(&self.route),
                    model: reg.model,
                    tx,
                    rx,
                }))
            })
            .collect();
        // The fluid core spawns after the node cores so their pids (and
        // RNG streams) are identical under either model.
        let fluid_core = (reg.model == NetModel::Flow).then(|| {
            ctx.spawn(Box::new(FluidCore::new(
                Arc::clone(&self.registry),
                Arc::clone(&self.route),
            )))
        });
        let route = Route {
            tx_core: reg
                .conns
                .iter()
                .map(|s| core_of_node[s.src.node.0])
                .collect(),
            rx_core: reg
                .conns
                .iter()
                .map(|s| core_of_node[s.dst.node.0])
                .collect(),
            tx_slot,
            rx_slot,
            next_msg_id: reg.conns.iter().map(|_| AtomicU64::new(0)).collect(),
            core_of_node,
            fluid_core,
        };
        if self.route.set(route).is_err() {
            panic!("network route initialized twice");
        }
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {
        panic!("net switch handles no messages");
    }
}

/// The engine core of one node: owns the send half of every connection
/// sourced at the node and the receive half of every connection terminating
/// there, and drives the node's `host_tx`/`nic_tx`/`host_rx` resources.
pub struct NodeCore {
    node: NodeId,
    res: NodeResources,
    route: Arc<OnceLock<Route>>,
    /// The cluster's network model: under [`NetModel::Flow`] the core only
    /// does endpoint bookkeeping and hands transfers to the fluid core.
    model: NetModel,
    /// Send halves of the connections sourced here, in connection-id
    /// order; [`Route::tx_slot`] maps a connection to its entry.
    tx: Vec<TxConn>,
    /// Receive halves of the connections terminating here, in
    /// connection-id order; [`Route::rx_slot`] maps a connection to its
    /// entry.
    rx: Vec<RxConn>,
}

impl NodeCore {
    /// Send-side statistics of a connection sourced at this node.
    pub fn tx_stats(&self, conn: ConnId) -> Option<&ConnStats> {
        let slot = *self.route.get()?.tx_slot.get(conn.0)?;
        let t = self.tx.get(slot as usize)?;
        (t.conn == conn).then_some(&t.stats)
    }

    /// Receive-side statistics of a connection terminating at this node.
    pub fn rx_stats(&self, conn: ConnId) -> Option<&ConnStats> {
        let slot = *self.route.get()?.rx_slot.get(conn.0)?;
        let r = self.rx.get(slot as usize)?;
        (r.conn == conn).then_some(&r.stats)
    }

    /// The routing table. Cores exist only once the switch has installed
    /// it, so a miss is a mis-sequenced engine.
    fn routes(&self, op: &'static str, conn: ConnId) -> &Route {
        match self.route.get() {
            Some(r) => r,
            None => panic!(
                "{}",
                NetError::NotStarted {
                    op,
                    conn: Some(conn),
                }
            ),
        }
    }

    fn rx_core(&self, conn: ConnId) -> ProcessId {
        self.routes("rx-core lookup", conn).rx_core[conn.0]
    }

    fn tx_core(&self, conn: ConnId) -> ProcessId {
        self.routes("tx-core lookup", conn).tx_core[conn.0]
    }

    /// The send half of `conn`, which this core must own.
    fn tx_mut(&mut self, conn: ConnId) -> &mut TxConn {
        let slot = self.routes("send-half lookup", conn).tx_slot[conn.0] as usize;
        let c = &mut self.tx[slot];
        debug_assert_eq!(c.conn, conn, "send half owned here");
        c
    }

    /// The receive half of `conn`, which this core must own.
    fn rx_mut(&mut self, conn: ConnId) -> &mut RxConn {
        let slot = self.routes("receive-half lookup", conn).rx_slot[conn.0] as usize;
        let c = &mut self.rx[slot];
        debug_assert_eq!(c.conn, conn, "receive half owned here");
        c
    }

    fn fluid_core(&self) -> ProcessId {
        self.route
            .get()
            .and_then(|r| r.fluid_core)
            .expect("no fluid core under the flow model")
    }

    fn pump(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        let host_tx = self.res.host_tx;
        loop {
            let c = self.tx_mut(conn);
            if c.dead {
                return;
            }
            let Some(head) = c.sendq.front_mut() else {
                c.stats.queue_depth.set(ctx.now(), 0.0);
                return;
            };
            let flen = frame_len(head.bytes, c.costs.frame_payload, head.next_frame);
            if !c.flow.can_send(flen as u64) {
                let depth = c.sendq.len() as f64;
                c.stats.queue_depth.set(ctx.now(), depth);
                if c.stall_since.is_none() {
                    c.stall_since = Some(ctx.now());
                }
                ctx.probe_emit(|t| ProbeEvent::Gauge {
                    name: format!("net.conn{}.sendq", conn.0),
                    time: t,
                    value: depth,
                });
                return;
            }
            // Credits freed up: close any open stall interval, attributed
            // to the host TX engine the frames were waiting to enter.
            if let Some(from) = c.stall_since.take() {
                let until = ctx.now();
                c.stats.credit_stall += until.saturating_since(from);
                ctx.probe_emit(|_| ProbeEvent::Stall {
                    rid: host_tx,
                    from,
                    until,
                });
            }
            c.flow.on_frame_sent(flen as u64);
            let first = head.next_frame == 0;
            let msg = head.msg;
            let frame = head.next_frame;
            head.next_frame += 1;
            let finished = head.next_frame == head.frames;
            let mut service = c.costs.per_frame_send
                + Dur::nanos((flen as f64 * c.costs.per_byte_send_ns).round() as u64);
            if first {
                service += c.costs.per_msg_send;
            }
            if finished {
                c.sendq.pop_front();
            }
            c.stats.frames_tx += 1;
            ctx.probe_emit(|t| ProbeEvent::Counter {
                name: "net.frames_tx".to_string(),
                time: t,
                delta: 1.0,
            });
            ctx.use_resource(
                host_tx,
                service,
                Message::new(Ev::HostTxDone {
                    conn,
                    msg,
                    frame,
                    flen,
                }),
            );
        }
    }

    fn on_cmd(&mut self, ctx: &mut Ctx<'_>, cmd: NetCmd) {
        let fluid = self.model == NetModel::Flow;
        match cmd {
            NetCmd::Send {
                conn,
                msg_id,
                bytes,
                payload,
            } => {
                let c = self.tx_mut(conn);
                if c.dead {
                    // The connection was cut before this send arrived:
                    // fail it immediately instead of queueing forever.
                    let pid = c.src_pid;
                    ctx.send(
                        pid,
                        Message::new(StreamError {
                            conn,
                            msg_id,
                            bytes,
                            kind: StreamErrorKind::NotConnected,
                        }),
                    );
                    return;
                }
                if fluid {
                    // Fluid fast path: account the send and hand the whole
                    // message to the fluid core after the switch hop. Fault
                    // fates (including crash cuts) are decided there, at
                    // flow granularity.
                    c.stats.msgs_sent += 1;
                    c.stats.bytes_sent += bytes;
                    let d_tx = c.costs.switch_latency + c.costs.prop_delay;
                    let fluid_core = self.fluid_core();
                    ctx.send_in(
                        d_tx,
                        fluid_core,
                        Message::new(FluidEv::Arrive {
                            conn,
                            msg: msg_id,
                            bytes,
                            sent_at: ctx.now(),
                            payload,
                        }),
                    );
                    return;
                }
                let frames = frame_count(bytes, c.costs.frame_payload);
                c.pending_meta.insert(
                    msg_id,
                    TxMsgMeta {
                        bytes,
                        frames,
                        sent_at: ctx.now(),
                        payload,
                    },
                );
                c.sendq.push_back(PendingMsg {
                    msg: msg_id,
                    bytes,
                    next_frame: 0,
                    frames,
                });
                c.stats.msgs_sent += 1;
                c.stats.bytes_sent += bytes;
                c.stats.queue_depth.set(ctx.now(), c.sendq.len() as f64);
                self.pump(ctx, conn);
            }
            NetCmd::Consumed { conn, msg_id } => {
                let c = self.rx_mut(conn);
                let (bytes, _frames) = c
                    .unconsumed
                    .remove(&msg_id)
                    .expect("consumed an unknown or already-consumed message");
                // The fluid model has no per-frame flow control to repair:
                // consumption is pure bookkeeping.
                if fluid {
                    return;
                }
                // Credits were re-posted at frame arrival; only the window
                // model needs a receive-buffer update at the sender.
                if !c.flow.is_credits() {
                    let ack = c.costs.ack_latency;
                    let tx_core = self.tx_core(conn);
                    ctx.send_in(ack, tx_core, Message::new(Ev::FlowReturn { conn, bytes }));
                }
            }
        }
    }

    /// Frame arrival at the receiving host: claim the receive protocol
    /// engine for the per-frame service.
    fn on_rx_frame(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, msg: u64, flen: u32) {
        let c = self.rx_mut(conn);
        let service = c.costs.per_frame_recv
            + Dur::nanos((flen as f64 * c.costs.per_byte_recv_ns).round() as u64);
        ctx.use_resource(
            self.res.host_rx,
            service,
            Message::new(Ev::HostRxFrameDone { conn, msg, flen }),
        );
    }

    fn on_ev(&mut self, ctx: &mut Ctx<'_>, ev: Ev) {
        match ev {
            Ev::HostTxDone {
                conn,
                msg,
                frame,
                flen,
            } => {
                let c = self.tx_mut(conn);
                let wire_bytes = flen as u64 + c.costs.frame_overhead as u64;
                let service = c.costs.nic_per_frame
                    + Dur::nanos((wire_bytes as f64 * c.costs.wire_ns_per_byte).round() as u64);
                ctx.use_resource(
                    self.res.nic_tx,
                    service,
                    Message::new(Ev::WireDone {
                        conn,
                        msg,
                        frame,
                        flen,
                    }),
                );
            }
            Ev::WireDone {
                conn,
                msg,
                frame,
                flen,
            } => {
                let c = self.tx_mut(conn);
                if c.dead {
                    // Frames of a cut connection die on the wire.
                    return;
                }
                if let Some(d) = c.doomed.get_mut(&msg) {
                    // An already-doomed message's frame draining out of
                    // the stage pipeline: swallow it.
                    d.seen += 1;
                    if d.repaired && d.seen >= d.frames_charged {
                        c.doomed.remove(&msg);
                    }
                    return;
                }
                let mut delay = c.costs.switch_latency + c.costs.prop_delay;
                let arrive = if frame == 0 {
                    let meta = c
                        .pending_meta
                        .remove(&msg)
                        .expect("first frame of unknown message");
                    // The whole message's fate is decided as its first
                    // frame enters the wire; frames always cross in order,
                    // so the verdict covers every later frame too.
                    let now = ctx.now();
                    let fate = match &c.faults {
                        Some(f) => {
                            let kind = if f.cut_at.is_some_and(|t| now >= t) {
                                StreamErrorKind::PeerDead
                            } else {
                                StreamErrorKind::Lost
                            };
                            Some((f.fate(now, ctx.rng()), kind, f.detect))
                        }
                        None => None,
                    };
                    match fate {
                        Some((MsgFate::Drop, kind, detect)) => {
                            // Unemitted frames leave the send queue; only
                            // frames already charged to flow control need
                            // repair when the loss is detected.
                            let frames_charged = match c.sendq.iter().position(|p| p.msg == msg) {
                                Some(i) => {
                                    let p = c.sendq.remove(i).expect("index just found");
                                    p.next_frame
                                }
                                None => meta.frames,
                            };
                            c.doomed.insert(
                                msg,
                                DoomedMsg {
                                    bytes: meta.bytes,
                                    frames_charged,
                                    seen: 1,
                                    repaired: false,
                                    kind,
                                },
                            );
                            ctx.probe_emit(|t| ProbeEvent::Counter {
                                name: "net.fault.dropped".to_string(),
                                time: t,
                                delta: 1.0,
                            });
                            ctx.send_self_in(detect, Message::new(Ev::MsgLost { conn, msg }));
                            return;
                        }
                        Some((MsgFate::Deliver { extra }, _, _)) if extra > Dur::ZERO => {
                            delay += extra;
                            if meta.frames > 1 {
                                c.delayed.insert(
                                    msg,
                                    DelayedMsg {
                                        extra,
                                        frames: meta.frames,
                                        seen: 1,
                                    },
                                );
                            }
                        }
                        _ => {}
                    }
                    Ev::RxFirst {
                        conn,
                        msg,
                        flen,
                        frames: meta.frames,
                        bytes: meta.bytes,
                        sent_at: meta.sent_at,
                        payload: meta.payload,
                    }
                } else {
                    if let Some(d) = c.delayed.get_mut(&msg) {
                        // Later frames of a delayed message get the same
                        // extra latency, preserving intra-message order.
                        delay += d.extra;
                        d.seen += 1;
                        if d.seen >= d.frames {
                            c.delayed.remove(&msg);
                        }
                    }
                    Ev::RxArrive { conn, msg, flen }
                };
                let rx_core = self.rx_core(conn);
                ctx.send_in(delay, rx_core, Message::new(arrive));
            }
            Ev::RxFirst {
                conn,
                msg,
                flen,
                frames,
                bytes,
                sent_at,
                payload,
            } => {
                let c = self.rx_mut(conn);
                if c.cut_at.is_some_and(|t| ctx.now() >= t) {
                    // This node fail-stopped: arriving frames fall on the
                    // floor, returning no acks and no credits.
                    return;
                }
                c.msgs.insert(
                    msg,
                    RxMsgState {
                        bytes,
                        frames,
                        frames_arrived: 0,
                        sent_at,
                        payload: Some(payload),
                    },
                );
                self.on_rx_frame(ctx, conn, msg, flen);
            }
            Ev::RxArrive { conn, msg, flen } => {
                let c = self.rx_mut(conn);
                if c.cut_at.is_some_and(|t| ctx.now() >= t) {
                    return;
                }
                self.on_rx_frame(ctx, conn, msg, flen);
            }
            Ev::HostRxFrameDone { conn, msg, flen } => {
                let c = self.rx_mut(conn);
                let st = c.msgs.get_mut(&msg).expect("frame for unknown message");
                st.frames_arrived += 1;
                c.stats.rx_interrupts += 1;
                ctx.probe_emit(|t| ProbeEvent::Counter {
                    name: "net.rx_interrupts".to_string(),
                    time: t,
                    delta: 1.0,
                });
                let last = st.frames_arrived == st.frames;
                let ack = c.costs.ack_latency;
                if c.flow.is_credits() {
                    // The sockets layer drains the eager buffer and
                    // re-posts the descriptor; the credit update reaches
                    // the sender after the return-path latency.
                    let n = c.flow.on_frame_arrived(flen as u64);
                    if n > 0 {
                        let tx_core = self.tx_core(conn);
                        ctx.send_in(ack, tx_core, Message::new(Ev::CreditArrive { conn, n }));
                    }
                } else {
                    let tx_core = self.tx_core(conn);
                    ctx.send_in(
                        ack,
                        tx_core,
                        Message::new(Ev::AckArrive {
                            conn,
                            frame_bytes: flen as u64,
                        }),
                    );
                }
                if last {
                    let c = self.rx_mut(conn);
                    let service = c.costs.per_msg_recv;
                    ctx.use_resource(
                        self.res.host_rx,
                        service,
                        Message::new(Ev::MsgReady { conn, msg }),
                    );
                }
            }
            Ev::MsgReady { conn, msg } => {
                let c = self.rx_mut(conn);
                let mut st = c.msgs.remove(&msg).expect("ready for unknown message");
                let payload = st.payload.take().expect("payload present until delivery");
                c.unconsumed.insert(msg, (st.bytes, st.frames));
                c.stats.msgs_delivered += 1;
                c.stats.bytes_delivered += st.bytes;
                c.stats
                    .latency_us
                    .add(ctx.now().since(st.sent_at).as_micros_f64());
                // Cumulative achieved bandwidth of this connection so far
                // (bits delivered / virtual time), as a gauge per delivery.
                let delivered = c.stats.bytes_delivered;
                ctx.probe_emit(|t| ProbeEvent::Gauge {
                    name: format!("net.conn{}.mbps", conn.0),
                    time: t,
                    value: if t == SimTime::ZERO {
                        0.0
                    } else {
                        8.0 * delivered as f64 / t.as_nanos() as f64 * 1_000.0
                    },
                });
                let delivery = Delivery {
                    conn,
                    msg_id: msg,
                    bytes: st.bytes,
                    sent_at: st.sent_at,
                    payload,
                };
                ctx.send(c.dst.pid, Message::new(delivery));
            }
            Ev::AckArrive { conn, frame_bytes } => {
                let c = self.tx_mut(conn);
                if c.dead {
                    return;
                }
                c.flow.on_frame_arrived(frame_bytes);
                self.pump(ctx, conn);
            }
            Ev::CreditArrive { conn, n } => {
                let c = self.tx_mut(conn);
                if c.dead {
                    return;
                }
                c.flow.on_credits_returned(n);
                self.pump(ctx, conn);
            }
            Ev::FlowReturn { conn, bytes } => {
                let c = self.tx_mut(conn);
                if c.dead {
                    return;
                }
                c.flow.on_consumed(bytes);
                self.pump(ctx, conn);
            }
            Ev::MsgLost { conn, msg } => {
                let c = self.tx_mut(conn);
                if c.dead {
                    // ConnCut already failed everything on this link.
                    return;
                }
                let Some(d) = c.doomed.get_mut(&msg) else {
                    return;
                };
                let (bytes, kind, frames_charged) = (d.bytes, d.kind, d.frames_charged);
                if d.seen >= frames_charged {
                    c.doomed.remove(&msg);
                } else {
                    d.repaired = true;
                }
                // Repair flow control for exactly the charged frames. The
                // receiver never saw them, so its descriptor ring is
                // untouched: the credits model gets its loaned credits
                // back directly, the window model frees the in-flight
                // bytes frame by frame.
                if c.flow.is_credits() {
                    c.flow.on_credits_returned(frames_charged);
                } else {
                    let fp = c.costs.frame_payload;
                    for i in 0..frames_charged {
                        c.flow.on_frame_arrived(frame_len(bytes, fp, i) as u64);
                    }
                }
                let pid = c.src_pid;
                ctx.probe_emit(|t| ProbeEvent::Counter {
                    name: "net.fault.lost".to_string(),
                    time: t,
                    delta: 1.0,
                });
                ctx.send(
                    pid,
                    Message::new(StreamError {
                        conn,
                        msg_id: msg,
                        bytes,
                        kind,
                    }),
                );
                self.pump(ctx, conn);
            }
            Ev::ConnCut { conn } => {
                let c = self.tx_mut(conn);
                if c.dead {
                    return;
                }
                c.dead = true;
                c.stall_since = None;
                c.delayed.clear();
                // Everything queued or in flight fails. Collect ids into
                // an ordered map first — HashMap iteration order must not
                // leak into the event sequence.
                let mut failed: BTreeMap<u64, u64> = BTreeMap::new();
                for (id, m) in c.pending_meta.drain() {
                    failed.insert(id, m.bytes);
                }
                for p in c.sendq.drain(..) {
                    failed.insert(p.msg, p.bytes);
                }
                for (id, d) in c.doomed.drain() {
                    failed.insert(id, d.bytes);
                }
                let pid = c.src_pid;
                ctx.probe_emit(|t| ProbeEvent::Counter {
                    name: "net.conn.cut".to_string(),
                    time: t,
                    delta: 1.0,
                });
                for (msg_id, bytes) in failed {
                    ctx.send(
                        pid,
                        Message::new(StreamError {
                            conn,
                            msg_id,
                            bytes,
                            kind: StreamErrorKind::PeerDead,
                        }),
                    );
                }
            }
        }
    }

    /// Endpoint-side handlers of the fluid engine: completed flows arrive
    /// as [`FluidEv::Deliver`] at the destination node's core, failed ones
    /// as [`FluidEv::Failed`] at the source node's core.
    fn on_fluid(&mut self, ctx: &mut Ctx<'_>, ev: FluidEv) {
        match ev {
            FluidEv::Deliver {
                conn,
                msg,
                bytes,
                sent_at,
                payload,
            } => {
                let c = self.rx_mut(conn);
                if c.cut_at.is_some_and(|t| ctx.now() >= t) {
                    // This node fail-stopped while the delivery was in its
                    // final hop: it falls on the floor, as arriving frames
                    // do under the packet model.
                    return;
                }
                let frames = c.costs.frames_for(bytes);
                c.unconsumed.insert(msg, (bytes, frames));
                c.stats.msgs_delivered += 1;
                c.stats.bytes_delivered += bytes;
                c.stats
                    .latency_us
                    .add(ctx.now().since(sent_at).as_micros_f64());
                let delivered = c.stats.bytes_delivered;
                ctx.probe_emit(|t| ProbeEvent::Gauge {
                    name: format!("net.conn{}.mbps", conn.0),
                    time: t,
                    value: if t == SimTime::ZERO {
                        0.0
                    } else {
                        8.0 * delivered as f64 / t.as_nanos() as f64 * 1_000.0
                    },
                });
                let delivery = Delivery {
                    conn,
                    msg_id: msg,
                    bytes,
                    sent_at,
                    payload,
                };
                ctx.send(c.dst.pid, Message::new(delivery));
            }
            FluidEv::Failed {
                conn,
                msg,
                bytes,
                kind,
            } => {
                let c = self.tx_mut(conn);
                let pid = c.src_pid;
                ctx.probe_emit(|t| ProbeEvent::Counter {
                    name: "net.fault.lost".to_string(),
                    time: t,
                    delta: 1.0,
                });
                ctx.send(
                    pid,
                    Message::new(StreamError {
                        conn,
                        msg_id: msg,
                        bytes,
                        kind,
                    }),
                );
            }
            FluidEv::Arrive { .. } | FluidEv::Wake => {
                panic!("fluid-core event routed to a node core")
            }
        }
    }
}

impl Process for NodeCore {
    fn name(&self) -> String {
        format!("net-core{}", self.node.0)
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // Crash-detection timers for connections an endpoint crash will
        // cut: everything queued on them fails at crash + detect. Under
        // the flow model the fluid core owns all in-flight state, so it
        // fails crashed flows itself and these timers stay unscheduled.
        if self.model == NetModel::Flow {
            return;
        }
        for t in &self.tx {
            let Some(f) = &t.faults else { continue };
            let Some(cut_at) = f.cut_at else { continue };
            let at = Dur::nanos(cut_at.as_nanos()) + f.detect;
            ctx.send_self_in(at, Message::new(Ev::ConnCut { conn: t.conn }));
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        // Internal events outnumber commands (one send fans out into
        // several wire/host events), so try the common type first.
        match msg.downcast::<Ev>() {
            Ok(ev) => self.on_ev(ctx, ev),
            Err(other) => match other.downcast::<NetCmd>() {
                Ok(cmd) => self.on_cmd(ctx, cmd),
                Err(other) => match other.downcast::<FluidEv>() {
                    Ok(fev) => self.on_fluid(ctx, fev),
                    Err(_) => panic!("net core received an unknown message type"),
                },
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::params::TransportKind;

    /// Sends one message on each of its connections at start.
    struct OneShot {
        net: Network,
        conns: Vec<ConnId>,
    }
    impl Process for OneShot {
        fn name(&self) -> String {
            "one-shot".to_string()
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for &conn in &self.conns {
                self.net.send(ctx, conn, 1024, Message::new(()));
            }
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {}
    }

    /// Consumes every delivery.
    struct Drain {
        net: Network,
    }
    impl Process for Drain {
        fn name(&self) -> String {
            "drain".to_string()
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            let d = msg.downcast::<Delivery>().expect("deliveries only");
            self.net.consumed(ctx, d.conn, d.msg_id);
        }
    }

    /// `tx_stats`/`rx_stats` answer `Some` for exactly the connection
    /// halves a node core owns (with that half's traffic) and `None` for
    /// every other connection, and each core's tables hold exactly its
    /// owned halves (so the tables of all cores together hold one entry
    /// per connection and side).
    #[test]
    fn node_stats_cover_exactly_the_owned_halves() {
        const NODES: usize = 64;
        const CONNS: usize = 300;
        for model in [NetModel::Packet, NetModel::Flow] {
            crate::netmodel::with_netmodel(model, || {
                let mut sim = Sim::new(5);
                let cluster = Cluster::build(&mut sim, NODES);
                let net = cluster.network();
                let sender = sim.add_process(Box::new(OneShot {
                    net: net.clone(),
                    conns: (0..CONNS).map(ConnId).collect(),
                }));
                let drain = sim.add_process(Box::new(Drain { net: net.clone() }));
                // A skewed pattern: low nodes source many connections,
                // some nodes source or sink none.
                let ends: Vec<(usize, usize)> = (0..CONNS)
                    .map(|i| ((i * i) % 48, (i * 7 + 3) % 61 + 3))
                    .map(|(src, dst)| (src, if dst == src { (dst + 1) % NODES } else { dst }))
                    .collect();
                for &(src, dst) in &ends {
                    net.connect(
                        cluster.endpoint(NodeId(src), sender),
                        cluster.endpoint(NodeId(dst), drain),
                        TransportKind::SocketVia,
                    );
                }
                sim.run();
                let (mut tx_total, mut rx_total) = (0, 0);
                for node in 0..NODES {
                    let core: &NodeCore = sim.process(net.core_of(NodeId(node))).unwrap();
                    let owned_tx = ends.iter().filter(|e| e.0 == node).count();
                    let owned_rx = ends.iter().filter(|e| e.1 == node).count();
                    assert_eq!(core.tx.len(), owned_tx, "{model:?} node {node} tx table");
                    assert_eq!(core.rx.len(), owned_rx, "{model:?} node {node} rx table");
                    tx_total += core.tx.len();
                    rx_total += core.rx.len();
                    for (ci, &(src, dst)) in ends.iter().enumerate() {
                        let tx = core.tx_stats(ConnId(ci));
                        let rx = core.rx_stats(ConnId(ci));
                        assert_eq!(tx.is_some(), src == node, "{model:?} node {node} conn {ci}");
                        assert_eq!(rx.is_some(), dst == node, "{model:?} node {node} conn {ci}");
                        assert!(tx.map_or(true, |s| s.msgs_sent == 1));
                        assert!(rx.map_or(true, |s| s.msgs_delivered == 1));
                    }
                    assert!(core.tx_stats(ConnId(CONNS)).is_none(), "unknown conn");
                }
                assert_eq!(
                    (tx_total, rx_total),
                    (CONNS, CONNS),
                    "{model:?} table sizes"
                );
            });
        }
    }
}
