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
//! Every frame takes one path and costs three kernel events: its arrival
//! at the receiver (`RxFirst` or `RxArrive`), `HostRxFrameDone`, and the
//! credit or window-ack return (`CreditArrive` / `AckArrive`, when the
//! flow model sends one). `pump` books host_tx and nic_tx back to back
//! (the NIC's only feeder is the node's single-server host_tx, so its
//! arrivals are exactly those completions, in order) and schedules the
//! arrival at `wire done + switch + propagation` straight away. The last
//! frame's `HostRxFrameDone` books the per-message receive work and
//! schedules the [`Delivery`] at its completion. Consumption is no event:
//! [`Network::consumed`] settles it against the connection's ledger in the
//! consuming process's own handler. With the `Send` command, a
//! single-frame SocketVIA message costs five events end to end (a
//! window-model transport adds the `FlowReturn` that consumption sends the
//! sender, six), with or without a fault plan.
//!
//! `pump` is also the only place where a frame's future is decided on a
//! connection with a compiled fault filter (a drop or delay filter, or a
//! crash of either endpoint). When frame 0 is pumped, the message's fate
//! is drawn for the instant that frame leaves the NIC, from a stream the
//! send half owns, keyed by (sim seed, connection id): a fate never
//! depends on other connections' traffic. A dropped message keeps only
//! its frame 0 on host_tx and the NIC and fails with `MsgLost` at that
//! frame's wire-done instant + `detect`; a delayed one adds the same extra
//! latency to every frame; a frame that would arrive at or after the
//! connection's cut schedules no arrival, and the `ConnCut` at cut +
//! `detect` fails its message. The receive half learns of the cut too: at
//! the cut instant its `RxCut` drops every message whose frames fell
//! short, since the rest of them will never arrive.
//!
//! Every submitted message gets exactly one outcome on both net models,
//! by one crash rule: a message whose bytes all reached the destination
//! before its connection's cut is delivered, and any other message on a
//! cut connection fails with `PeerDead`. Under the flow model the fluid
//! core decides which flows drained in time. Each outcome is built in one
//! place: `RxConn::deliver` builds every [`Delivery`] and `TxConn::fail`
//! every [`StreamError`]; the two models differ only in how they dispatch
//! them.
//!
//! Engine state is owned per node by a [`NodeCore`] process: the core of a
//! connection's source node owns the send side (flow-control window, send
//! queue, stall accounting) and the destination node's core owns the
//! receive side (frame reassembly, delivery). All traffic between the two
//! halves rides on delayed events — the switch/propagation hop towards the
//! receiver and the `ack_latency` return path towards the sender, which
//! the consumer's `FlowReturn` takes as well — so no zero-delay event ever
//! crosses a node boundary inside the engine. That property is what lets
//! the sharded kernel (`hpsock_sim::shard`) place different nodes' cores
//! on different worker threads with a positive lookahead on every
//! cross-shard link.
//!
//! A single [`NetSwitch`] placeholder process (installed first, before any
//! application process) seals the connection [`Registry`] at start and
//! spawns the per-node cores; spawned cores take process ids *after* every
//! application process, so application pids and their deterministic RNG
//! streams are identical to what a monolithic engine produced.
//!
//! Application processes talk to the engine through [`Network`] (a send is
//! a zero-delay event to the owning core, which lives on the same node as
//! the sending endpoint) and receive [`Delivery`] messages when a whole
//! application message has been reassembled at the receiver.

use crate::cluster::Topology;
use crate::fault::{ConnFaults, FaultPlan, MsgFate};
use crate::flow::Flow;
use crate::fluid::{FluidCore, FluidEv};
use crate::frame::{frame_count, frame_len};
use crate::netmodel::NetModel;
use crate::params::{FlowModel, PathCosts, TransportKind};
use hpsock_sim::{
    Ctx, Dur, FxHashMap, FxHashSet, Message, ProbeEvent, Process, ProcessId, ResourceId, Sim,
    SimTime,
};
use rand::rngs::SmallRng;
use std::cell::UnsafeCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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
/// process as its event payload. The application consumes it, once, with
/// [`Network::consumed`]; it may do so later than its handling of the
/// delivery, from any process on the receiving node.
pub struct Delivery {
    /// Connection it arrived on.
    pub conn: ConnId,
    /// Engine-assigned message id; pass it back, once, to
    /// [`Network::consumed`].
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

/// A send from [`Network::send`] to the core owning the connection's
/// send half: transmit `payload` (`bytes` simulated bytes) on `conn` as
/// message `msg_id`, which [`Network::send`] pre-assigned.
struct NetCmd {
    conn: ConnId,
    msg_id: u64,
    bytes: u64,
    payload: Message,
}

/// Engine-internal frame/stage events. Frame length rides in the event so
/// receive-side handlers never need the sender's per-message state. Every
/// variant fits the kernel's inline payload buffer (checked below), so
/// none of them costs a pooled slot; frame 0's arrival, which carries the
/// message metadata and payload, is its own message type, [`RxFirst`].
enum Ev {
    /// A later frame (index ≥ 1) arriving at the receiver. Reassembly only
    /// counts frames, so the frame index does not travel.
    RxArrive { conn: ConnId, msg: u64, flen: u32 },
    /// The receive protocol engine finished one frame; on the message's
    /// `last` frame the per-message receive work is booked and the
    /// [`Delivery`] scheduled at its completion. Whether the frame is the
    /// last is known at its arrival, so a frame of a message that
    /// [`Ev::RxCut`] dropped in the meantime only sends its reply.
    HostRxFrameDone {
        conn: ConnId,
        msg: u64,
        flen: u32,
        last: bool,
    },
    /// Window ack (window model): frees in-flight bytes at the sender.
    AckArrive { conn: ConnId, frame_bytes: u64 },
    /// The descriptor credit re-posted at a frame's arrival reached the
    /// sender (credits model).
    CreditArrive { conn: ConnId },
    /// Consumption notification reached the sender (window model), sent
    /// by [`Network::consumed`]; the sender re-pumps its queue.
    FlowReturn { conn: ConnId },
    /// Loss-detection timer for a fault-doomed message fired at the
    /// sender: repair flow control for the charged frames and surface a
    /// [`StreamError`] to the sending process.
    MsgLost { conn: ConnId, msg: u64 },
    /// Crash-detection timer for a connection whose endpoint node
    /// fail-stops: fail everything queued or in flight and mark the send
    /// half dead.
    ConnCut { conn: ConnId },
    /// The connection's cut instant at the receive half: no frame arrives
    /// at or after it, so every message still short of frames is dropped.
    RxCut { conn: ConnId },
}

const _: () = assert!(std::mem::size_of::<Ev>() <= hpsock_sim::payload::INLINE_BYTES);

/// Frame 0 arriving at the receiver, carrying the message metadata the
/// receive side needs (frames always traverse the FCFS stage chain in
/// order, so frame 0 arrives before any other frame of its message).
struct RxFirst {
    conn: ConnId,
    msg: u64,
    flen: u32,
    frames: u32,
    meta: MsgMeta,
}

/// Counters per connection. Send-side fields are filled
/// by the source node's core, receive-side fields by the destination
/// node's core; read them back via [`Network::core_of`] +
/// [`hpsock_sim::Sim::process`] with [`NodeCore::tx_stats`] /
/// [`NodeCore::rx_stats`].
#[derive(Debug, Clone, Default)]
pub struct ConnStats {
    /// Application messages submitted.
    pub msgs_sent: u64,
    /// Application messages delivered.
    pub msgs_delivered: u64,
    /// Application bytes delivered.
    pub bytes_delivered: u64,
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
    /// Wire latency a delay filter added to the message, drawn with its
    /// fate when frame 0 was pumped. Every frame carries it, so frames of
    /// one message never reorder among themselves.
    extra: Dur,
}

/// What a message's [`Delivery`] carries besides its ids. The send half
/// holds it until frame 0 is put on its way to the receiver inside
/// [`RxFirst`]; under the flow model it rides in [`FluidEv::Deliver`].
pub(crate) struct MsgMeta {
    pub(crate) bytes: u64,
    pub(crate) sent_at: SimTime,
    pub(crate) payload: Message,
}

/// Receive-side reassembly state for one in-flight message.
struct RxMsgState {
    meta: MsgMeta,
    /// Frames the message was cut into.
    frames: u32,
    /// Frames that reached the receiving host, counted at arrival.
    frames_arrived: u32,
}

/// Fault state of a send half: the compiled filters and the connection's
/// own fate stream, keyed by the connection id, so a message's fate
/// depends only on the seed, the connection, the message's place in it
/// and the instant its frame 0 leaves the NIC.
struct TxFaults {
    filters: ConnFaults,
    rng: SmallRng,
}

/// Send half of a connection, owned by the source node's core.
struct TxConn {
    conn: ConnId,
    costs: Arc<PathCosts>,
    flow: Flow,
    sendq: VecDeque<PendingMsg>,
    pending_meta: FxHashMap<u64, MsgMeta>,
    stats: ConnStats,
    /// When the sender last became credit-blocked with data queued.
    stall_since: Option<SimTime>,
    /// Compiled fault state (`None` on a fault-free link: the pump then
    /// performs no RNG draws).
    faults: Option<TxFaults>,
    /// The sending process, target of [`StreamError`] events.
    src_pid: ProcessId,
    /// Set by [`Ev::ConnCut`]; a dead connection accepts no traffic.
    dead: bool,
    /// Bytes of each message the fault layer doomed when a frame of it
    /// was pumped: it awaits its `MsgLost` (a drop) or the `ConnCut` that
    /// reports it (a crash cut).
    doomed: FxHashMap<u64, u64>,
}

impl TxConn {
    fn new(conn: ConnId, spec: &ConnSpec, faults: Option<ConnFaults>, ctx: &Ctx<'_>) -> Self {
        TxConn {
            conn,
            costs: Arc::clone(&spec.costs),
            flow: Flow::new(spec.costs.flow),
            sendq: VecDeque::new(),
            pending_meta: FxHashMap::default(),
            stats: ConnStats::default(),
            stall_since: None,
            faults: faults.map(|filters| TxFaults {
                filters,
                rng: ctx.keyed_rng(conn.0 as u64),
            }),
            src_pid: spec.src.pid,
            dead: false,
            doomed: FxHashMap::default(),
        }
    }

    /// Fail message `msg_id` of `bytes` with `kind`: the one place a
    /// [`StreamError`] is built. It reaches the sending process now.
    fn fail(&self, ctx: &mut Ctx<'_>, msg_id: u64, bytes: u64, kind: StreamErrorKind) {
        let error = StreamError {
            conn: self.conn,
            msg_id,
            bytes,
            kind,
        };
        ctx.send(self.src_pid, Message::new(error));
    }
}

/// Receive half of a connection, owned by the destination node's core.
struct RxConn {
    conn: ConnId,
    dst: Endpoint,
    costs: Arc<PathCosts>,
    msgs: FxHashMap<u64, RxMsgState>,
    stats: ConnStats,
    /// The connection's cut, if the fault plan crashes an endpoint: the
    /// earlier crash of either end, as compiled for the send half. `pump`
    /// schedules no frame arrival at or after it, and [`Ev::RxCut`] drops
    /// the messages that fell short there; a message whose frames all
    /// arrived before it is delivered. The flow model schedules no
    /// `RxCut`: the fluid core fails every flow that has not drained by
    /// the cut.
    cut_at: Option<SimTime>,
    /// The connection's consumption ledger, shared with [`Route::ledger`].
    ledger: Arc<Ledger>,
}

impl RxConn {
    fn new(conn: ConnId, spec: &ConnSpec, cut_at: Option<SimTime>, ledger: Arc<Ledger>) -> Self {
        RxConn {
            conn,
            dst: spec.dst,
            costs: Arc::clone(&spec.costs),
            msgs: FxHashMap::default(),
            stats: ConnStats::default(),
            cut_at,
            ledger,
        }
    }

    /// Deliver message `msg` to the destination process: the one place a
    /// [`Delivery`] is built. The message enters the consumption ledger
    /// and the delivered counts, and the `net.conn<N>.mbps` gauge reads
    /// them at the delivery instant. The packet model passes its node's
    /// `host_rx`, which the per-message receive work is booked on; the
    /// delivery lands at its completion. The flow model passes `None` and
    /// delivers now.
    fn deliver(&mut self, ctx: &mut Ctx<'_>, host_rx: Option<ResourceId>, msg: u64, meta: MsgMeta) {
        let MsgMeta {
            bytes,
            sent_at,
            payload,
        } = meta;
        self.ledger.deliver(msg);
        self.stats.msgs_delivered += 1;
        self.stats.bytes_delivered += bytes;
        let delivery = Message::new(Delivery {
            conn: self.conn,
            msg_id: msg,
            bytes,
            sent_at,
            payload,
        });
        let at = match host_rx {
            Some(host_rx) => {
                ctx.use_resource_for(host_rx, self.costs.per_msg_recv, self.dst.pid, delivery)
            }
            None => {
                ctx.send(self.dst.pid, delivery);
                ctx.now()
            }
        };
        ctx.probe_emit(|_| mbps_gauge(self.conn, self.stats.bytes_delivered, at));
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

/// A connection's consumption ledger: the ids of its delivered messages
/// that the application has not consumed yet. The receive core inserts an
/// id at delivery and [`Network::consumed`] takes it out in the consuming
/// process's handler, so consumption dispatches no kernel event of its
/// own. Both run on the receiving node's shard, so the lock is never
/// contended; a spin flag is the cheapest lock that still keeps the
/// ledger exact on any thread (DESIGN §8).
pub(crate) struct Ledger {
    /// Set while `ids` is borrowed.
    busy: AtomicBool,
    ids: UnsafeCell<FxHashSet<u64>>,
    /// The delay after which consumption sends [`Ev::FlowReturn`] to the
    /// send half: the transport's `ack_latency` on a packet-model window
    /// connection, `None` on credits and under the flow model.
    flow_return: Option<Dur>,
}

// SAFETY: `busy` is an atomic and `flow_return` is never written after
// construction, so sharing them is sound. `ids` is only reached through
// `Ledger::with`, which holds `busy` for the whole borrow, so at most one
// thread touches the set at a time; `FxHashSet<u64>` is `Send`.
unsafe impl Sync for Ledger {}

impl Ledger {
    fn new(flow_return: Option<Dur>) -> Self {
        Ledger {
            busy: AtomicBool::new(false),
            ids: UnsafeCell::default(),
            flow_return,
        }
    }

    /// Run `f` on the id set with the flag held. `f` must not panic, or
    /// the flag stays set. The `Release` store that clears the flag pairs
    /// with the `Acquire` swap that sets it next, so each holder sees every
    /// update of the one before.
    fn with<R>(&self, f: impl FnOnce(&mut FxHashSet<u64>) -> R) -> R {
        while self.busy.swap(true, Ordering::Acquire) {
            std::hint::spin_loop();
        }
        // SAFETY: the flag is held, so no other borrow of `ids` exists.
        let r = f(unsafe { &mut *self.ids.get() });
        self.busy.store(false, Ordering::Release);
        r
    }

    /// Record a delivered message.
    fn deliver(&self, msg: u64) {
        self.with(|ids| ids.insert(msg));
    }

    /// Settle a consumption: true if `msg` was delivered and not consumed.
    fn consume(&self, msg: u64) -> bool {
        self.with(|ids| ids.remove(&msg))
    }
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
    /// Consumption ledger per connection, shared with its receive half,
    /// so [`Network::consumed`] can settle a consumption without an event
    /// to the receive core.
    pub(crate) ledger: Vec<Arc<Ledger>>,
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
            Message::new(NetCmd {
                conn,
                msg_id,
                bytes,
                payload,
            }),
        );
        msg_id
    }

    /// Report consumption of a delivered message, exactly once per
    /// [`Delivery`]. It is settled here, in the caller's handler, against
    /// the connection's ledger. On a packet-model window connection (kernel
    /// TCP) it also sends the consumption update that reaches the sender
    /// after the transport's ack latency; credits were re-posted when the
    /// frames arrived, and the flow model has no flow control to update.
    ///
    /// # Panics
    ///
    /// If `msg_id` was not delivered on `conn` or was consumed already.
    pub fn consumed(&self, ctx: &mut Ctx<'_>, conn: ConnId, msg_id: u64) {
        let route = self.route("consumed", Some(conn));
        let ledger = &route.ledger[conn.0];
        assert!(
            ledger.consume(msg_id),
            "conn {} msg {msg_id}: consumed an unknown or already-consumed message",
            conn.0
        );
        if let Some(ack) = ledger.flow_return {
            let update = Message::new(Ev::FlowReturn { conn });
            ctx.send_in(ack, route.tx_core[conn.0], update);
        }
    }

    /// The engine core process serving `node` (valid once the simulation
    /// has started). Useful to read back [`NodeCore`] statistics.
    pub fn core_of(&self, node: NodeId) -> ProcessId {
        self.route("core_of", None).core_of_node[node.0]
    }

    /// The fluid core process under the flow model, `None` under the
    /// packet model (valid once the simulation has started). Useful to
    /// read back its [`FluidWork`](crate::fluid::FluidWork).
    pub fn fluid_core(&self) -> Option<ProcessId> {
        self.route("fluid_core", None).fluid_core
    }
}

/// An application process that consumes every [`Delivery`] the moment it
/// arrives: the receiving end of a stream whose data nobody reads.
pub struct Drain {
    /// The network its connections run on.
    pub net: Network,
}

impl Process for Drain {
    fn name(&self) -> String {
        "drain".to_string()
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        let d = msg
            .downcast::<Delivery>()
            .expect("a drain receives only deliveries");
        self.net.consumed(ctx, d.conn, d.msg_id);
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
        let flow = reg.model == NetModel::Flow;
        // Each connection's faults are compiled once, here. Under the flow
        // model the fluid core draws every fate, so it takes them and the
        // send halves keep none.
        let mut fluid_faults = Vec::new();
        let mut ledgers = Vec::with_capacity(reg.conns.len());
        for (ci, spec) in reg.conns.iter().enumerate() {
            let conn = ConnId(ci);
            let (src, dst) = (spec.src.node.0, spec.dst.node.0);
            let filters = faults.and_then(|p| p.compile(src, dst));
            let rx_cut = filters.as_ref().and_then(|f| f.cut_at);
            let tx_faults = if flow {
                fluid_faults.push(filters);
                None
            } else {
                filters
            };
            let slot = |len: usize| u32::try_from(len).expect("under 2^32 halves per node");
            tx_slot.push(slot(tx[src].len()));
            tx[src].push(TxConn::new(conn, spec, tx_faults, ctx));
            // Only a packet-model window connection has a consumption
            // update to send: credits are re-posted at frame arrival, and
            // the flow model has no flow control.
            let window = matches!(spec.costs.flow, FlowModel::Window { .. });
            let ledger = Ledger::new((!flow && window).then_some(spec.costs.ack_latency));
            ledgers.push(Arc::new(ledger));
            rx_slot.push(slot(rx[dst].len()));
            rx[dst].push(RxConn::new(conn, spec, rx_cut, Arc::clone(&ledgers[ci])));
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
        // RNG streams) are identical under either model. Its pid above
        // theirs also makes its events sort after theirs at one instant,
        // so a fluid wake at `t` sees every `Arrive` at `t`.
        let fluid_core =
            flow.then(|| ctx.spawn(Box::new(FluidCore::new(&reg, &core_of_node, fluid_faults))));
        debug_assert!(
            fluid_core.map_or(true, |f| core_of_node.iter().all(|c| c.0 < f.0)),
            "the fluid core must sort after every node core"
        );
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
            ledger: ledgers,
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
        let (host_tx, nic_tx) = (self.res.host_tx, self.res.nic_tx);
        loop {
            let c = self.tx_mut(conn);
            if c.dead {
                return;
            }
            let Some(head) = c.sendq.front_mut() else {
                return;
            };
            let flen = frame_len(head.bytes, c.costs.frame_payload, head.next_frame);
            if !c.flow.can_send(flen as u64) {
                let depth = c.sendq.len() as f64;
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
            let (msg, bytes, frames) = (head.msg, head.bytes, head.frames);
            head.next_frame += 1;
            let finished = head.next_frame == head.frames;
            let mut service = c.costs.per_frame_send
                + Dur::nanos((flen as f64 * c.costs.per_byte_send_ns).round() as u64);
            if first {
                service += c.costs.per_msg_send;
            }
            c.stats.frames_tx += 1;
            ctx.probe_emit(|t| ProbeEvent::Counter {
                name: "net.frames_tx".to_string(),
                time: t,
                delta: 1.0,
            });
            // host_tx has one server and only this core's pump feeds
            // nic_tx, so the NIC's arrivals are exactly the host_tx
            // completions, in booking order: the NIC job is booked now, at
            // its arrival instant, and no event marks the hand-over.
            let wire_bytes = flen as u64 + c.costs.frame_overhead as u64;
            let nic_service = c.costs.nic_per_frame
                + Dur::nanos((wire_bytes as f64 * c.costs.wire_ns_per_byte).round() as u64);
            let now = ctx.now();
            let tx_done = ctx.reserve_resource(host_tx, now, service);
            let wire_done = ctx.reserve_resource(nic_tx, tx_done, nic_service);
            let on_wire = wire_done.since(now);
            let mut delay = on_wire + c.costs.switch_latency + c.costs.prop_delay;
            // On a faulted link the frame's future is decided here: frame 0
            // draws its message's fate for the instant it leaves the NIC,
            // and a frame that would arrive at or after the cut dies.
            let (mut doomed, mut lost_detect) = (false, None);
            if let Some(f) = &mut c.faults {
                let dropped = first
                    && match f.filters.fate(wire_done, &mut f.rng) {
                        MsgFate::Drop => true,
                        MsgFate::Deliver { extra } => {
                            head.extra = extra;
                            false
                        }
                    };
                delay += head.extra;
                let cut = f.filters.cut_at.is_some_and(|t| now + delay >= t);
                lost_detect = (dropped && !cut).then_some(f.filters.detect);
                doomed = cut || dropped;
            }
            // A doomed message's later frames are never pumped.
            if finished || doomed {
                c.sendq.pop_front();
            }
            let meta = first.then(|| {
                c.pending_meta
                    .remove(&msg)
                    .expect("first frame of unknown message")
            });
            if doomed {
                c.doomed.insert(msg, bytes);
                ctx.probe_emit(|t| ProbeEvent::Counter {
                    name: "net.fault.dropped".to_string(),
                    time: t,
                    delta: 1.0,
                });
                // A drop is detected `detect` after the frame left the NIC;
                // a cut message is reported by its connection's `ConnCut`.
                if let Some(detect) = lost_detect {
                    ctx.send_self_in(on_wire + detect, Message::new(Ev::MsgLost { conn, msg }));
                }
                continue;
            }
            // Frame 0 travels with its message's metadata. `delay` includes
            // the switch and propagation hop, which keeps the lookahead of
            // a cross-shard arrival positive.
            let arrive = match meta {
                Some(meta) => Message::new(RxFirst {
                    conn,
                    msg,
                    flen,
                    frames,
                    meta,
                }),
                None => Message::new(Ev::RxArrive { conn, msg, flen }),
            };
            ctx.send_in(delay, self.rx_core(conn), arrive);
        }
    }

    fn on_send(&mut self, ctx: &mut Ctx<'_>, cmd: NetCmd) {
        let NetCmd {
            conn,
            msg_id,
            bytes,
            payload,
        } = cmd;
        let fluid = self.model == NetModel::Flow;
        let c = self.tx_mut(conn);
        if c.dead {
            // The connection was cut before this send arrived:
            // fail it immediately instead of queueing forever.
            c.fail(ctx, msg_id, bytes, StreamErrorKind::NotConnected);
            return;
        }
        if fluid {
            // Fluid fast path: account the send and hand the whole
            // message to the fluid core after the switch hop. Fault
            // fates (including crash cuts) are decided there, at
            // flow granularity.
            c.stats.msgs_sent += 1;
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
            MsgMeta {
                bytes,
                sent_at: ctx.now(),
                payload,
            },
        );
        c.sendq.push_back(PendingMsg {
            msg: msg_id,
            bytes,
            next_frame: 0,
            frames,
            extra: Dur::ZERO,
        });
        c.stats.msgs_sent += 1;
        self.pump(ctx, conn);
    }

    /// Frame arrival at the receiving host: count it, then claim the
    /// receive protocol engine for the per-frame service.
    fn on_rx_frame(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, msg: u64, flen: u32) {
        let c = self.rx_mut(conn);
        let st = c.msgs.get_mut(&msg).expect("frame for unknown message");
        st.frames_arrived += 1;
        let last = st.frames_arrived == st.frames;
        // The frame lands in one eager buffer (credits model) or one
        // segment (window model): the sender never exceeds the payload.
        debug_assert!(
            flen <= c.costs.frame_payload,
            "frame of {flen} B overran a {} B frame payload",
            c.costs.frame_payload
        );
        let service = c.costs.per_frame_recv
            + Dur::nanos((flen as f64 * c.costs.per_byte_recv_ns).round() as u64);
        ctx.use_resource(
            self.res.host_rx,
            service,
            Message::new(Ev::HostRxFrameDone {
                conn,
                msg,
                flen,
                last,
            }),
        );
    }

    /// Frame 0 arriving: open the message's reassembly state, then
    /// receive the frame.
    fn on_rx_first(&mut self, ctx: &mut Ctx<'_>, first: RxFirst) {
        let RxFirst {
            conn,
            msg,
            flen,
            frames,
            meta,
        } = first;
        self.rx_mut(conn).msgs.insert(
            msg,
            RxMsgState {
                meta,
                frames,
                frames_arrived: 0,
            },
        );
        self.on_rx_frame(ctx, conn, msg, flen);
    }

    fn on_ev(&mut self, ctx: &mut Ctx<'_>, ev: Ev) {
        match ev {
            Ev::RxArrive { conn, msg, flen } => self.on_rx_frame(ctx, conn, msg, flen),
            Ev::HostRxFrameDone {
                conn,
                msg,
                flen,
                last,
            } => {
                let host_rx = self.res.host_rx;
                let c = self.rx_mut(conn);
                c.stats.rx_interrupts += 1;
                ctx.probe_emit(|t| ProbeEvent::Counter {
                    name: "net.rx_interrupts".to_string(),
                    time: t,
                    delta: 1.0,
                });
                let ack = c.costs.ack_latency;
                let reply = match c.costs.flow {
                    // The sockets layer drains the eager buffer and
                    // re-posts the descriptor; the credit update reaches
                    // the sender after the return-path latency.
                    FlowModel::Credits { .. } => Ev::CreditArrive { conn },
                    FlowModel::Window { .. } => Ev::AckArrive {
                        conn,
                        frame_bytes: flen as u64,
                    },
                };
                let tx_core = self.tx_core(conn);
                ctx.send_in(ack, tx_core, Message::new(reply));
                if last {
                    // A message whose frames all arrived is delivered,
                    // even if its connection was cut since.
                    let c = self.rx_mut(conn);
                    let st = c
                        .msgs
                        .remove(&msg)
                        .expect("a complete message outlives the cut");
                    c.deliver(ctx, Some(host_rx), msg, st.meta);
                }
            }
            Ev::AckArrive { conn, frame_bytes } => {
                let c = self.tx_mut(conn);
                if c.dead {
                    return;
                }
                c.flow.on_acked(frame_bytes);
                self.pump(ctx, conn);
            }
            Ev::CreditArrive { conn } => {
                let c = self.tx_mut(conn);
                if c.dead {
                    return;
                }
                c.flow.on_credits_returned(1);
                self.pump(ctx, conn);
            }
            Ev::FlowReturn { conn } => {
                if self.tx_mut(conn).dead {
                    return;
                }
                self.pump(ctx, conn);
            }
            Ev::MsgLost { conn, msg } => {
                let c = self.tx_mut(conn);
                if c.dead {
                    // ConnCut already failed everything on this link.
                    return;
                }
                let bytes = c.doomed.remove(&msg).expect("lost message is doomed");
                // Repair flow control for the one charged frame, frame 0.
                // The receiver never saw it, so no credit or ack will come
                // back: the credits model gets its loaned credit back
                // directly, the window model frees the in-flight bytes.
                if c.flow.is_credits() {
                    c.flow.on_credits_returned(1);
                } else {
                    c.flow
                        .on_acked(frame_len(bytes, c.costs.frame_payload, 0) as u64);
                }
                ctx.probe_emit(|t| ProbeEvent::Counter {
                    name: "net.fault.lost".to_string(),
                    time: t,
                    delta: 1.0,
                });
                c.fail(ctx, msg, bytes, StreamErrorKind::Lost);
                self.pump(ctx, conn);
            }
            Ev::ConnCut { conn } => {
                let c = self.tx_mut(conn);
                if c.dead {
                    return;
                }
                c.dead = true;
                c.stall_since = None;
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
                failed.extend(c.doomed.drain());
                ctx.probe_emit(|t| ProbeEvent::Counter {
                    name: "net.conn.cut".to_string(),
                    time: t,
                    delta: 1.0,
                });
                for (msg_id, bytes) in failed {
                    c.fail(ctx, msg_id, bytes, StreamErrorKind::PeerDead);
                }
            }
            Ev::RxCut { conn } => {
                // The rest of a short message's frames died at the cut;
                // its sender reports it as `PeerDead`. A frame of it still
                // in host_rx service only sends its reply.
                self.rx_mut(conn)
                    .msgs
                    .retain(|_, st| st.frames_arrived == st.frames);
            }
        }
    }

    /// Endpoint-side handlers of the fluid engine: completed flows arrive
    /// as [`FluidEv::Deliver`] at the destination node's core, failed ones
    /// as [`FluidEv::Failed`] at the source node's core.
    fn on_fluid(&mut self, ctx: &mut Ctx<'_>, ev: FluidEv) {
        match ev {
            // The flow drained before its connection's cut, so it is
            // delivered even if the destination has crashed since.
            FluidEv::Deliver { conn, msg, meta } => self.rx_mut(conn).deliver(ctx, None, msg, meta),
            FluidEv::Failed {
                conn,
                msg,
                bytes,
                kind,
            } => {
                ctx.probe_emit(|t| ProbeEvent::Counter {
                    name: "net.fault.lost".to_string(),
                    time: t,
                    delta: 1.0,
                });
                self.tx_mut(conn).fail(ctx, msg, bytes, kind);
            }
            FluidEv::Arrive { .. } | FluidEv::Wake => {
                panic!("fluid-core event routed to a node core")
            }
        }
    }
}

/// The `net.conn<N>.mbps` gauge: bits delivered on `conn` by `t` over
/// the virtual time elapsed.
fn mbps_gauge(conn: ConnId, delivered: u64, t: SimTime) -> ProbeEvent {
    ProbeEvent::Gauge {
        name: format!("net.conn{}.mbps", conn.0),
        time: t,
        value: if t == SimTime::ZERO {
            0.0
        } else {
            8.0 * delivered as f64 / t.as_nanos() as f64 * 1_000.0
        },
    }
}

impl Process for NodeCore {
    fn name(&self) -> String {
        format!("net-core{}", self.node.0)
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // Crash timers for connections an endpoint crash will cut:
        // everything queued on them fails at crash + detect, and partial
        // reassemblies are dropped at the crash. Under the flow model the
        // fluid core owns all in-flight state, so it fails crashed flows
        // itself and these timers stay unscheduled.
        if self.model == NetModel::Flow {
            return;
        }
        for t in &self.tx {
            let Some(f) = &t.faults else { continue };
            let Some(cut_at) = f.filters.cut_at else {
                continue;
            };
            let at = Dur::nanos(cut_at.as_nanos()) + f.filters.detect;
            ctx.send_self_in(at, Message::new(Ev::ConnCut { conn: t.conn }));
        }
        for r in &self.rx {
            if let Some(cut_at) = r.cut_at {
                let at = Dur::nanos(cut_at.as_nanos());
                ctx.send_self_in(at, Message::new(Ev::RxCut { conn: r.conn }));
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        // Internal events outnumber commands (one send fans out into
        // several wire/host events), so try the common type first.
        match msg.downcast::<Ev>() {
            Ok(ev) => self.on_ev(ctx, ev),
            Err(other) => match other.downcast::<RxFirst>() {
                Ok(first) => self.on_rx_first(ctx, first),
                Err(other) => match other.downcast::<NetCmd>() {
                    Ok(cmd) => self.on_send(ctx, cmd),
                    Err(other) => match other.downcast::<FluidEv>() {
                        Ok(fev) => self.on_fluid(ctx, fev),
                        Err(_) => panic!("net core received an unknown message type"),
                    },
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
    use std::sync::Mutex;

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

    /// One 1,024 B message from node 0 to a [`Drain`] on node 1 under the
    /// packet model and fault spec `faults`: `(events dispatched, end ns)`.
    fn single_frame_run(kind: TransportKind, faults: &str) -> (u64, u64) {
        let run = || {
            let mut sim = Sim::new(3);
            let cluster = Cluster::build(&mut sim, 2);
            let net = cluster.network();
            let sender = sim.add_process(Box::new(OneShot {
                net: net.clone(),
                conns: vec![ConnId(0)],
            }));
            let drain = sim.add_process(Box::new(Drain { net: net.clone() }));
            net.connect(
                cluster.endpoint(NodeId(0), sender),
                cluster.endpoint(NodeId(1), drain),
                kind,
            );
            sim.run();
            let core: &NodeCore = sim.process(net.core_of(NodeId(1))).unwrap();
            let rx = core.rx_stats(ConnId(0)).unwrap();
            assert_eq!((rx.msgs_delivered, rx.rx_interrupts), (1, 1), "{kind:?}");
            (sim.events_dispatched(), sim.now().as_nanos())
        };
        crate::netmodel::with_netmodel(NetModel::Packet, || crate::fault::with_spec(faults, run))
    }

    /// Kernel events one single-frame message costs under the packet
    /// model, from the `Send` command to its consumption: `Send`,
    /// `RxFirst`, `HostRxFrameDone`, the credit or window-ack return and
    /// the `Delivery`, plus the `FlowReturn` that consumption sends on the
    /// window model. Consumption itself dispatches nothing. A fault plan
    /// (`drop=0` compiles a filter that never fires) costs no event: fates
    /// are drawn when the frame is pumped. A stage hop that comes back as
    /// its own event (a `HostTxDone` between host_tx and the NIC, a
    /// `WireDone` when the frame leaves the NIC, a `MsgReady` between the
    /// last frame's receive work and the delivery, or a `Consumed` hop to
    /// the receive core) fails this pin.
    #[test]
    fn single_frame_message_event_counts_are_pinned() {
        for (faults, kind, events) in [
            ("", TransportKind::SocketVia, 5),
            ("", TransportKind::KTcp, 6),
            ("drop=0", TransportKind::SocketVia, 5),
            ("drop=0", TransportKind::KTcp, 6),
        ] {
            let (got, _) = single_frame_run(kind, faults);
            assert_eq!(got, events, "{faults:?} {kind:?}");
        }
    }

    /// On kernel TCP the run ends with the `FlowReturn` that consumption
    /// sends, one `ack_latency` (20 us) after the delivery, which lands at
    /// 68,205 ns and is consumed at once. The fig11 execution times are
    /// the kernel's final time, so they hang on this instant (ROADMAP
    /// item 7). SocketVIA sends no consumption update: its run ends at
    /// 26,742 ns, after its delivery at 20,242 ns.
    #[test]
    fn kernel_tcp_run_ends_with_the_consumers_flow_return() {
        let ack = PathCosts::for_kind(TransportKind::KTcp).ack_latency;
        assert_eq!(ack, Dur::micros(20));
        assert_eq!(single_frame_run(TransportKind::KTcp, "").1, 88_205);
        assert_eq!(single_frame_run(TransportKind::SocketVia, "").1, 26_742);
    }

    /// Consumes every delivery `times` times, then consumes message id
    /// `stray` on the same connection, if given.
    struct Misconsumer {
        net: Network,
        times: u32,
        stray: Option<u64>,
    }
    impl Process for Misconsumer {
        fn name(&self) -> String {
            "misconsumer".to_string()
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            let d = msg.downcast::<Delivery>().expect("deliveries only");
            for _ in 0..self.times {
                self.net.consumed(ctx, d.conn, d.msg_id);
            }
            if let Some(id) = self.stray {
                self.net.consumed(ctx, d.conn, id);
            }
        }
    }

    /// One message on a `kind` connection under `model`, consumed by a
    /// [`Misconsumer`]; a consumption that breaks the contract panics in
    /// its handler, which `sim.run` propagates.
    fn misconsume(model: NetModel, kind: TransportKind, times: u32, stray: Option<u64>) {
        crate::netmodel::with_netmodel(model, || {
            let mut sim = Sim::new(3);
            let cluster = Cluster::build(&mut sim, 2);
            let net = cluster.network();
            let sender = sim.add_process(Box::new(OneShot {
                net: net.clone(),
                conns: vec![ConnId(0)],
            }));
            let sink = sim.add_process(Box::new(Misconsumer {
                net: net.clone(),
                times,
                stray,
            }));
            net.connect(
                cluster.endpoint(NodeId(0), sender),
                cluster.endpoint(NodeId(1), sink),
                kind,
            );
            sim.run();
        })
    }

    /// Every transport and net model under the consumption contract.
    const CONTRACT: [(NetModel, TransportKind); 3] = [
        (NetModel::Packet, TransportKind::SocketVia),
        (NetModel::Packet, TransportKind::KTcp),
        (NetModel::Flow, TransportKind::SocketVia),
    ];

    /// The panic message of `f`, which must panic.
    fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let err = std::panic::catch_unwind(f).expect_err("the contract breach went unnoticed");
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    /// Consuming a delivered message twice panics, on every transport and
    /// net model, in release builds too.
    #[test]
    fn consuming_twice_panics() {
        for (model, kind) in CONTRACT {
            let msg = panic_message(move || misconsume(model, kind, 2, None));
            assert!(
                msg.contains("conn 0 msg 0: consumed an unknown or already-consumed message"),
                "{model:?} {kind:?}: {msg}"
            );
        }
    }

    /// Consuming a message id that was never delivered panics, on every
    /// transport and net model, in release builds too.
    #[test]
    fn consuming_an_unknown_message_panics() {
        for (model, kind) in CONTRACT {
            let msg = panic_message(move || misconsume(model, kind, 1, Some(41)));
            assert!(
                msg.contains("conn 0 msg 41: consumed an unknown or already-consumed message"),
                "{model:?} {kind:?}: {msg}"
            );
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

    /// Sends `count` messages of `bytes` on each connection at start and
    /// counts the stream errors that come back.
    struct Streamer {
        net: Network,
        conns: Vec<ConnId>,
        bytes: u64,
        count: u32,
        errors: u32,
    }
    impl Process for Streamer {
        fn name(&self) -> String {
            "streamer".to_string()
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for &conn in &self.conns {
                for _ in 0..self.count {
                    self.net.send(ctx, conn, self.bytes, Message::new(()));
                }
            }
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, msg: Message) {
            msg.downcast::<StreamError>().expect("stream errors only");
            self.errors += 1;
        }
    }

    /// Once the queue drains after a run with dropped messages, every send
    /// half is back at rest: all credits returned (credits model) or no
    /// byte in flight (window model). Credits and acks of delivered frames
    /// come back from the receiver; those of lost frames come back from
    /// the `MsgLost` repair, so a leak or a double return on either path
    /// fails here.
    #[test]
    fn flow_control_returns_to_rest_after_losses() {
        let kinds = [
            TransportKind::SocketVia,
            TransportKind::KTcp,
            TransportKind::SocketVia,
            TransportKind::KTcp,
        ];
        let ends = [(0, 1), (1, 2), (2, 0), (0, 2)];
        crate::netmodel::with_netmodel(NetModel::Packet, || {
            crate::fault::with_spec("drop=0.2", || {
                let mut sim = Sim::new(17);
                let cluster = Cluster::build(&mut sim, 3);
                let net = cluster.network();
                // Multi-frame messages on both transports, so losses hit
                // messages with several frames charged.
                let sender = sim.add_process(Box::new(Streamer {
                    net: net.clone(),
                    conns: (0..ends.len()).map(ConnId).collect(),
                    bytes: 150_000,
                    count: 30,
                    errors: 0,
                }));
                let drain = sim.add_process(Box::new(Drain { net: net.clone() }));
                for (&(src, dst), &kind) in ends.iter().zip(&kinds) {
                    net.connect(
                        cluster.endpoint(NodeId(src), sender),
                        cluster.endpoint(NodeId(dst), drain),
                        kind,
                    );
                }
                sim.run();
                let s: &Streamer = sim.process(sender).unwrap();
                assert!(s.errors > 0, "the drop filter lost no message");
                let mut delivered = 0;
                for (ci, &(src, dst)) in ends.iter().enumerate() {
                    let tx_core: &NodeCore = sim.process(net.core_of(NodeId(src))).unwrap();
                    let rx_core: &NodeCore = sim.process(net.core_of(NodeId(dst))).unwrap();
                    delivered += rx_core.rx_stats(ConnId(ci)).unwrap().msgs_delivered;
                    let slot = tx_core.route.get().unwrap().tx_slot[ci] as usize;
                    let c = &tx_core.tx[slot];
                    assert!(c.sendq.is_empty() && !c.dead, "conn {ci} drained");
                    match c.flow {
                        Flow::Credits { credits, pool } => {
                            assert_eq!(credits, pool, "conn {ci} credits at rest")
                        }
                        Flow::Window { inflight, .. } => {
                            assert_eq!(inflight, 0, "conn {ci} window at rest")
                        }
                    }
                }
                assert_eq!(
                    delivered + s.errors as u64,
                    ends.len() as u64 * 30,
                    "every message was delivered or reported lost"
                );
            });
        });
    }

    /// One application-visible outcome: `(conn, msg_id, virtual ns, what)`,
    /// where `what` is `"delivered"` or the `StreamErrorKind` name.
    type Outcome = (usize, u64, u64, String);

    /// Sender and sink in one: sends `count` messages of `bytes` on each
    /// of `conns`, those of the `i`-th connection every `interval` from
    /// `i * stagger` on, and logs every delivery (which it consumes) and
    /// every stream error it receives.
    struct Logger {
        net: Network,
        conns: Vec<ConnId>,
        bytes: u64,
        count: u32,
        interval: Dur,
        stagger: Dur,
        sent: Vec<u32>,
        log: Arc<Mutex<Vec<Outcome>>>,
    }
    impl Logger {
        fn new(net: &Network, conns: usize, bytes: u64, count: u32, interval: Dur) -> Self {
            Logger {
                net: net.clone(),
                conns: (0..conns).map(ConnId).collect(),
                bytes,
                count,
                interval,
                stagger: Dur::nanos(interval.as_nanos() / 3),
                sent: vec![0; conns],
                log: Arc::default(),
            }
        }
        fn record(&self, ctx: &Ctx<'_>, conn: ConnId, msg: u64, what: String) {
            let entry = (conn.0, msg, ctx.now().as_nanos(), what);
            self.log.lock().unwrap().push(entry);
        }
    }
    impl Process for Logger {
        fn name(&self) -> String {
            "logger".to_string()
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for i in 0..self.conns.len() {
                let at = Dur::nanos(self.stagger.as_nanos() * i as u64);
                ctx.send_self_in(at, Message::new(i));
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            let msg = match msg.downcast::<Delivery>() {
                Ok(d) => {
                    self.record(ctx, d.conn, d.msg_id, "delivered".into());
                    self.net.consumed(ctx, d.conn, d.msg_id);
                    return;
                }
                Err(other) => other,
            };
            let i = match msg.downcast::<StreamError>() {
                Ok(e) => return self.record(ctx, e.conn, e.msg_id, format!("{:?}", e.kind)),
                Err(other) => other.downcast::<usize>().expect("ticks carry a conn index"),
            };
            self.net
                .send(ctx, self.conns[i], self.bytes, Message::new(()));
            self.sent[i] += 1;
            if self.sent[i] < self.count {
                ctx.send_self_in(self.interval, Message::new(i));
            }
        }
    }

    /// Every submitted message gets exactly one outcome on both net
    /// models, a [`Delivery`] or a [`StreamError`]: never both, never two,
    /// never neither (DESIGN §12). Swept over both transports, drop-only,
    /// crash-only and drop + crash plans, a crash of either endpoint at
    /// instants that land before, inside and after the messages' frames,
    /// and two detection latencies. After the drain, the receive half
    /// holds no partly received message: the cut dropped every one.
    #[test]
    fn every_message_gets_exactly_one_outcome() {
        const COUNT: u32 = 20;
        let mut plans = vec!["drop=0.2,detect=10us".to_string()];
        for at_us in (100..=3_963).step_by(37) {
            for node in [0, 1] {
                for detect in ["10us", "100us"] {
                    for drop in ["", "drop=0.2,"] {
                        plans.push(format!("{drop}crash={node}@{at_us}us,detect={detect}"));
                    }
                }
            }
        }
        let run = |model: NetModel, seed: u64, kind: TransportKind, plan: &str| {
            crate::netmodel::with_netmodel(model, || {
                crate::fault::with_spec(plan, || {
                    let mut sim = Sim::new(seed);
                    let cluster = Cluster::build(&mut sim, 2);
                    let net = cluster.network();
                    let logger = Logger::new(&net, 1, 150_000, COUNT, Dur::ZERO);
                    let log = Arc::clone(&logger.log);
                    let pid = sim.add_process(Box::new(logger));
                    net.connect(
                        cluster.endpoint(NodeId(0), pid),
                        cluster.endpoint(NodeId(1), pid),
                        kind,
                    );
                    sim.run();
                    let core: &NodeCore = sim.process(net.core_of(NodeId(1))).unwrap();
                    let partial = core.rx.iter().map(|r| r.msgs.len()).sum::<usize>();
                    let log = std::mem::take(&mut *log.lock().unwrap());
                    (log, partial)
                })
            })
        };
        for model in [NetModel::Packet, NetModel::Flow] {
            for seed in 0..4 {
                for kind in [TransportKind::SocketVia, TransportKind::KTcp] {
                    for plan in &plans {
                        let (log, partial) = run(model, seed, kind, plan);
                        let case = format!("{model:?} seed {seed} {kind:?} {plan:?}");
                        assert_eq!(partial, 0, "{case}: partial messages left at the receiver");
                        let mut outcomes = vec![Vec::new(); COUNT as usize];
                        for (_, msg, _, what) in log {
                            outcomes[msg as usize].push(what);
                        }
                        for (msg, got) in outcomes.iter().enumerate() {
                            assert_eq!(got.len(), 1, "{case}: message {msg} got {got:?}");
                        }
                    }
                }
            }
        }
    }

    /// The crash rule, on both net models: a message whose bytes all
    /// reached the destination before it crashed is delivered, at the
    /// instant it would have been without the crash; a message still in
    /// flight at the crash fails with `PeerDead`. The crash instants come
    /// from an unfaulted run of the same 150,000 B message, sent at 0: one
    /// nanosecond before its delivery (its bytes are all in) and half-way
    /// to it (its bytes are still on the wire).
    #[test]
    fn a_message_that_arrived_before_the_crash_is_delivered() {
        let run = |model: NetModel, plan: &str| {
            crate::netmodel::with_netmodel(model, || {
                crate::fault::with_spec(plan, || {
                    let mut sim = Sim::new(1);
                    let cluster = Cluster::build(&mut sim, 2);
                    let net = cluster.network();
                    let logger = Logger::new(&net, 1, 150_000, 1, Dur::ZERO);
                    let log = Arc::clone(&logger.log);
                    let pid = sim.add_process(Box::new(logger));
                    net.connect(
                        cluster.endpoint(NodeId(0), pid),
                        cluster.endpoint(NodeId(1), pid),
                        TransportKind::SocketVia,
                    );
                    sim.run();
                    let log = std::mem::take(&mut *log.lock().unwrap());
                    log
                })
            })
        };
        for model in [NetModel::Packet, NetModel::Flow] {
            let clean = run(model, "");
            let delivered = clean[0].2;
            assert_eq!(clean, [(0, 0, delivered, "delivered".into())], "{model:?}");
            let arrived = run(model, &format!("crash=1@{}ns,detect=10us", delivered - 1));
            assert_eq!(arrived, clean, "{model:?}: crash after the bytes arrived");
            let in_flight = run(model, &format!("crash=1@{}ns,detect=10us", delivered / 2));
            assert_eq!(in_flight.len(), 1, "{model:?}: {in_flight:?}");
            assert_eq!(in_flight[0].3, "PeerDead", "{model:?}: crash in flight");
        }
    }

    /// A message's fate depends only on the seed, its connection, its
    /// place in that connection and its instant, not on other traffic:
    /// adding a connection from the same source node, whose frames use
    /// the node's host and NIC only while the others' are idle, leaves
    /// every other connection's outcome log unchanged.
    #[test]
    fn fates_are_independent_of_unrelated_traffic() {
        let run = |conns: usize| {
            crate::netmodel::with_netmodel(NetModel::Packet, || {
                crate::fault::with_spec("drop=0.05,delay=0.2:30us", || {
                    let mut sim = Sim::new(23);
                    let cluster = Cluster::build(&mut sim, 4);
                    let net = cluster.network();
                    let logger = Logger::new(&net, conns, 2_048, 40, Dur::micros(210));
                    let log = Arc::clone(&logger.log);
                    let pid = sim.add_process(Box::new(logger));
                    let kinds = [
                        TransportKind::SocketVia,
                        TransportKind::KTcp,
                        TransportKind::SocketVia,
                    ];
                    for (i, &kind) in kinds.iter().enumerate().take(conns) {
                        net.connect(
                            cluster.endpoint(NodeId(0), pid),
                            cluster.endpoint(NodeId(i + 1), pid),
                            kind,
                        );
                    }
                    sim.run();
                    let mut log = std::mem::take(&mut *log.lock().unwrap());
                    log.sort();
                    log
                })
            })
        };
        let (two, three) = (run(2), run(3));
        assert!(
            two.iter().any(|o| o.3 == "Lost"),
            "the drop filter lost no message"
        );
        let existing: Vec<Outcome> = three.into_iter().filter(|o| o.0 < 2).collect();
        assert_eq!(
            existing, two,
            "an added connection moved other connections' fates"
        );
    }

    /// Sends `pre` messages, waits on `barrier` at 1 s of virtual time,
    /// sends `post` more, and waits on `barrier` again at 2 s.
    struct Phased {
        net: Network,
        pre: u32,
        post: u32,
        barrier: Arc<std::sync::Barrier>,
        waits: u32,
    }
    impl Process for Phased {
        fn name(&self) -> String {
            "phased".to_string()
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for _ in 0..self.pre {
                self.net.send(ctx, ConnId(0), 1024, Message::new(()));
            }
            ctx.send_self_in(Dur::secs(1), Message::new(()));
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _msg: Message) {
            self.barrier.wait();
            self.waits += 1;
            if self.waits == 1 {
                for _ in 0..self.post {
                    self.net.send(ctx, ConnId(0), 1024, Message::new(()));
                }
                ctx.send_self_in(Dur::secs(1), Message::new(()));
            }
        }
    }

    /// Two flow-model runs on two threads, held in step by a barrier that
    /// each waits on twice: once between its two batches of flows, once
    /// after all of them. Each run's `run_report.json` counts only its own
    /// flows, however the two runs interleave.
    #[test]
    fn concurrent_runs_report_their_own_flows() {
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let run = |id: usize, pre: u32, post: u32| {
            let dir =
                std::env::temp_dir().join(format!("hpsock_run_flows_{}_{id}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            hpsock_sim::telemetry::with_telemetry_dir(Some(&dir), || {
                crate::netmodel::with_netmodel(NetModel::Flow, || {
                    let mut sim = Sim::new(id as u64);
                    let cluster = Cluster::build(&mut sim, 2);
                    let net = cluster.network();
                    let sender = sim.add_process(Box::new(Phased {
                        net: net.clone(),
                        pre,
                        post,
                        barrier: Arc::clone(&barrier),
                        waits: 0,
                    }));
                    let drain = sim.add_process(Box::new(Drain { net: net.clone() }));
                    net.connect(
                        cluster.endpoint(NodeId(0), sender),
                        cluster.endpoint(NodeId(1), drain),
                        TransportKind::SocketVia,
                    );
                    sim.run();
                })
            });
            let report = std::fs::read_to_string(dir.join("run_report.json")).unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            report
                .lines()
                .find_map(|l| l.trim().strip_prefix("\"flows\": "))
                .and_then(|v| v.trim_end_matches(',').parse::<u64>().ok())
                .expect("flows field")
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| run(0, 1, 3));
            let b = s.spawn(|| run(1, 2, 5));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!((a, b), (4, 7), "each report counts its own run's flows");
    }
}
