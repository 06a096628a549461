//! Flow-level fluid network model: the `HPSOCK_NETMODEL=flow` fast path.
//!
//! Instead of walking every wire segment through the per-node stage
//! pipeline, each in-flight application message becomes one *flow* over a
//! path of capacitated links, and the only events are flow arrivals and
//! departures. Active flows share link capacity max-min fairly; the
//! allocator recomputes bottleneck fair shares for the connected
//! components a state change touched only, and reschedules the changed
//! flows' completions — O(component) work per reallocation regardless of
//! message size. State changes are settled once per instant, at the
//! core's wake: an arrival that starts a flow only records its
//! connection as a seed and arms a wake at its own instant, and the wake
//! first completes every flow due then and reallocates each component
//! the arrivals and completions touched once. Flows that start or finish
//! in lockstep behind a shared uplink cost one reallocation, not one
//! each. Completions live in a lazily pruned min-heap behind a single
//! wake-up timer, so a flow costs O(1) kernel events however often its
//! rate changes.
//!
//! ## Calibration
//!
//! The link graph reuses the packet engine's calibrated stage costs
//! ([`PathCosts`]): every node contributes three unit-capacity stage links
//! (host send engine, NIC/wire, host receive engine), and a flow of `s`
//! payload bytes places weight `stage_occupancy(s) / s` ns-per-byte on
//! each ([`PathCosts::stage_occupancies`]). A lone flow therefore drains
//! at `s / max(stage occupancies)` — exactly the packet model's
//! steady-state bandwidth for that message size — and concurrent flows
//! through one host contend for its engines just as FCFS frames did, in
//! fluid approximation. Under a hierarchical topology
//! ([`Topology::Racks`]), inter-rack flows additionally cross their
//! racks' oversubscribed uplink/downlink, whose capacity caps aggregate
//! cross-rack bandwidth.
//!
//! Unloaded latency is preserved exactly: a message is handed to the
//! fluid core after the switch+propagation hop, drains for its bottleneck
//! occupancy, and is delivered after a residual delay chosen so the
//! end-to-end time equals [`PathCosts::oneway_latency`]. What the fluid
//! model gives up is per-frame flow control (credits/windows) and FCFS
//! queueing order — see `DESIGN.md` §13 for the documented tolerance and
//! when *not* to use it.
//!
//! ## Determinism and sharding
//!
//! All flow state lives in a single [`FluidCore`] process pinned to
//! shard 0, so state changes happen in canonical event order and digests
//! are shard-invariant. Every edge touching the core has positive delay
//! (`switch+prop` inbound, the minimum delivery residual outbound, the
//! fault-detection latency for failure notifications), preserving the
//! engine's no-zero-delay-across-nodes property that conservative
//! sharding needs.

use crate::cluster::Topology;
use crate::engine::{ConnId, Registry, Route, StreamErrorKind};
use crate::fault::{ConnFaults, MsgFate};
use crate::params::PathCosts;
use hpsock_sim::{Ctx, Dur, Message, Process, ProcessId, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};

/// cLAN wire drain rate in payload bytes per nanosecond (the 795 Mbps
/// VIA peak from [`crate::params`]: 1 byte per 10.06 ns). Rack uplink
/// capacity is expressed in multiples of this per-node rate.
pub const NODE_WIRE_BYTES_PER_NS: f64 = 1.0 / 10.06;

/// Weighted max-min fair-share allocation by progressive filling.
///
/// `caps[l]` is the capacity of link `l`; `flows[f]` lists `(link,
/// weight)` pairs — flow `f` at rate `r` consumes `r * weight` of each
/// link on its path (weights are ns-per-byte stage demands, so stage
/// links have capacity 1.0). Returns the max-min fair rate per flow: the
/// classic water-filling loop, freezing the flows that cross each
/// successive bottleneck link at its fair share.
///
/// Every weight must be positive and every flow must cross at least one
/// link; the result then saturates at least one link on every flow's
/// path (Pareto optimality) and never exceeds any capacity. This is a
/// thin wrapper over the kernel the fluid core runs on every
/// reallocation ([`Filler`]).
pub fn max_min_rates(caps: &[f64], flows: &[Vec<(usize, f64)>]) -> Vec<f64> {
    let mut fill = Filler::default();
    fill.clear();
    for (f, path) in flows.iter().enumerate() {
        assert!(!path.is_empty(), "flow {f} crosses no links");
        for &(l, w) in path {
            assert!(l < caps.len(), "flow {f} crosses unknown link {l}");
            assert!(w > 0.0, "flow {f} has non-positive weight {w} on link {l}");
        }
        fill.pairs.extend_from_slice(path);
        fill.offsets.push(fill.pairs.len());
    }
    fill.caps.extend_from_slice(caps);
    fill.run();
    fill.rate
}

/// The water-filling kernel and its reusable buffers. The problem is
/// handed over in CSR form — flow `f` crosses `pairs[offsets[f]..
/// offsets[f + 1]]`, `(link, weight)` pairs over links `0..caps.len()` —
/// so the fluid core can refill it on every reallocation without
/// allocating.
#[derive(Default)]
struct Filler {
    caps: Vec<f64>,
    offsets: Vec<usize>,
    pairs: Vec<(usize, f64)>,
    /// Output: the max-min rate per flow.
    rate: Vec<f64>,
    /// Flows not yet frozen, in flow order.
    open: Vec<usize>,
    cap_left: Vec<f64>,
    wsum: Vec<f64>,
    fair: Vec<f64>,
}

impl Filler {
    /// Empty the problem, keeping the allocations.
    fn clear(&mut self) {
        self.caps.clear();
        self.offsets.clear();
        self.offsets.push(0);
        self.pairs.clear();
    }

    /// Solve the loaded problem into `rate`. Sums accumulate in flow
    /// order and path order, so the rates are a pure function of the
    /// problem as handed over.
    fn run(&mut self) {
        let flows = self.offsets.len() - 1;
        self.rate.clear();
        self.rate.resize(flows, 0.0);
        self.open.clear();
        self.open.extend(0..flows);
        self.cap_left.clear();
        self.cap_left.extend_from_slice(&self.caps);
        while !self.open.is_empty() {
            // Fair share each link could still grant its unfrozen flows.
            self.wsum.clear();
            self.wsum.resize(self.caps.len(), 0.0);
            for &f in &self.open {
                for &(l, w) in &self.pairs[self.offsets[f]..self.offsets[f + 1]] {
                    self.wsum[l] += w;
                }
            }
            self.fair.clear();
            self.fair
                .extend(self.wsum.iter().zip(&self.cap_left).map(|(&ws, &left)| {
                    if ws > 0.0 {
                        left.max(0.0) / ws
                    } else {
                        f64::INFINITY
                    }
                }));
            let bottleneck = self.fair.iter().copied().fold(f64::INFINITY, f64::min);
            if !bottleneck.is_finite() {
                break; // no unfrozen flows left
            }
            // Freeze every flow crossing a bottleneck link at the fair share.
            let limit = bottleneck * (1.0 + 1e-12);
            let before = self.open.len();
            let (pairs, offsets, fair) = (&self.pairs, &self.offsets, &self.fair);
            let (rate, cap_left) = (&mut self.rate, &mut self.cap_left);
            self.open.retain(|&f| {
                let path = &pairs[offsets[f]..offsets[f + 1]];
                if !path.iter().any(|&(l, _)| fair[l] <= limit) {
                    return true;
                }
                rate[f] = bottleneck;
                for &(l, w) in path {
                    cap_left[l] -= bottleneck * w;
                }
                false
            });
            if self.open.len() == before {
                break; // numerical stalemate: everyone left is unconstrained
            }
        }
    }
}

/// Events of the fluid engine. `Arrive`/`Wake` are handled by the
/// [`FluidCore`]; `Deliver`/`Failed` by the destination/source node cores.
pub(crate) enum FluidEv {
    /// A submitted message reached the fluid core (after switch+prop).
    Arrive {
        conn: ConnId,
        msg: u64,
        bytes: u64,
        sent_at: SimTime,
        payload: Message,
    },
    /// The fluid core's wake-up timer: settle the flows that arrivals
    /// started at this instant and complete every flow due by now. The
    /// core sorts after every node core, so a wake at `t` runs after
    /// every `Arrive` at `t`.
    Wake,
    /// A completed flow's payload arriving at the receive-side node core.
    Deliver {
        conn: ConnId,
        msg: u64,
        bytes: u64,
        sent_at: SimTime,
        payload: Message,
    },
    /// A fault verdict surfacing at the send-side node core after the
    /// loss-detection latency; forwarded to the sender as a StreamError.
    Failed {
        conn: ConnId,
        msg: u64,
        bytes: u64,
        kind: StreamErrorKind,
    },
}

/// The switch+propagation hop a message pays before reaching the fluid
/// core — the positive cross-shard lookahead of every `tx core → fluid`
/// edge.
pub(crate) fn tx_hop(costs: &PathCosts) -> Dur {
    costs.switch_latency + costs.prop_delay
}

/// Lower bound of the fluid `core → rx core` delivery residual for a
/// connection, used both as the shard-plan lookahead and as a runtime
/// clamp (the size-dependent residual is not provably monotone). Always
/// at least 1 ns so the sharded kernel keeps a positive edge.
pub(crate) fn min_delivery(costs: &PathCosts) -> Dur {
    Dur::nanos(delivery_residual_ns(costs, 1).max(1))
}

/// `oneway_latency(s) − bottleneck_occupancy(s) − tx_hop`: what remains
/// of the unloaded one-way latency after the fluid transfer term, so an
/// isolated message completes at exactly the packet model's closed form.
fn delivery_residual_ns(costs: &PathCosts, bytes: u64) -> u64 {
    costs
        .oneway_latency(bytes)
        .as_nanos()
        .saturating_sub(costs.bottleneck_occupancy(bytes).as_nanos())
        .saturating_sub(tx_hop(costs).as_nanos())
}

/// A message queued behind the connection's active flow (per-connection
/// FIFO, mirroring the packet engine's in-order delivery guarantee).
struct QueuedMsg {
    msg: u64,
    bytes: u64,
    sent_at: SimTime,
    payload: Message,
    /// Extra delivery latency from triggered delay filters.
    extra: Dur,
}

/// Most links a flow crosses: its three stage links plus, between
/// racks, the source uplink and the destination downlink.
const MAX_HOPS: usize = 5;

/// The currently draining flow of one connection.
struct ActiveFlow {
    msg: u64,
    bytes: u64,
    sent_at: SimTime,
    payload: Option<Message>,
    extra: Dur,
    /// Payload bytes left to drain as of `updated` (lazily advanced:
    /// between rate changes the residual is a pure function of time).
    remaining: f64,
    /// Current fair-share rate in bytes/ns (0 until first allocation).
    rate: f64,
    /// Virtual time `remaining` was last brought current.
    updated: SimTime,
    /// `(global link id, weight)` pairs — the allocator's view; the first
    /// `hops` entries are used.
    path: [(usize, f64); MAX_HOPS],
    hops: usize,
}

impl ActiveFlow {
    fn path(&self) -> &[(usize, f64)] {
        &self.path[..self.hops]
    }
}

/// Per-connection fluid state.
struct FluidConn {
    costs: Arc<PathCosts>,
    /// Node core owning the send half (target of `Failed`).
    tx_core: ProcessId,
    /// Node core owning the receive half (target of `Deliver`).
    rx_core: ProcessId,
    /// `[host_tx, nic, host_rx]` global link ids.
    stage_links: [usize; 3],
    /// `(uplink, downlink)` of the source/destination racks for
    /// inter-rack connections under a hierarchical topology.
    fabric: Option<(usize, usize)>,
    min_drx: Dur,
    faults: Option<ConnFaults>,
    cut_at: Option<SimTime>,
    detect: Dur,
    queue: VecDeque<QueuedMsg>,
    active: Option<ActiveFlow>,
}

impl FluidConn {
    /// Global ids of every link this connection's flows cross.
    fn links(&self) -> impl Iterator<Item = usize> + '_ {
        let fabric = self.fabric.into_iter().flat_map(|(up, down)| [up, down]);
        self.stage_links.iter().copied().chain(fabric)
    }
}

/// Reallocation scratch, reused across calls so a state change allocates
/// nothing. Connections and links are marked with a generation stamp
/// instead of being collected into hash sets.
#[derive(Default)]
struct Scratch {
    /// Stamp of the current reallocation: a connection or link was reached
    /// by one of its components iff its mark equals it.
    stamp: u32,
    conn_mark: Vec<u32>,
    link_mark: Vec<u32>,
    /// Component-local index of each marked link.
    link_local: Vec<usize>,
    /// Marked links whose users are still to be visited.
    pending: Vec<usize>,
    /// The component's connections.
    comp: Vec<usize>,
    fill: Filler,
}

impl Scratch {
    /// Start a new reallocation: every mark becomes stale at once.
    fn begin(&mut self) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.conn_mark.fill(0);
            self.link_mark.fill(0);
            self.stamp = 1;
        }
    }

    /// Start a new component of the current reallocation. Marks stay, so
    /// what an earlier component reached is not searched again.
    fn begin_component(&mut self) {
        self.pending.clear();
        self.comp.clear();
        self.fill.clear();
    }

    /// Add link `l` (capacity `cap`) to the component unless already in.
    fn mark_link(&mut self, l: usize, cap: f64) {
        if self.link_mark[l] != self.stamp {
            self.link_mark[l] = self.stamp;
            self.link_local[l] = self.fill.caps.len();
            self.fill.caps.push(cap);
            self.pending.push(l);
        }
    }
}

/// Heap entries beyond `2 · live` tolerated before a compaction pass.
const DUE_SLACK: usize = 64;

/// Scheduled flow completions: a min-heap over `(finish, order, conn)`
/// that deletes lazily. A reschedule pushes a new entry and leaves the old
/// one behind; an entry is *stale* once `(finish, order)` no longer equals
/// its connection's current key. `order` is bumped on every schedule and
/// only grows, so a stale entry can never match again, and the live
/// minimum is the `(finish, order, conn)` minimum an ordered set of only
/// the current keys would give.
#[derive(Default)]
struct DueHeap {
    heap: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    /// Current `(finish, order)` per connection; `None` while it has no
    /// scheduled completion.
    keys: Vec<Option<(SimTime, u64)>>,
    /// Bumped on every (re)schedule; breaks ties at one finish time by
    /// scheduling order.
    order: u64,
    /// Connections with a scheduled completion (`Some` keys).
    live: usize,
}

impl DueHeap {
    fn new(conns: usize) -> DueHeap {
        DueHeap {
            keys: vec![None; conns],
            ..DueHeap::default()
        }
    }

    /// (Re)schedule `conn` to complete at `finish`, superseding any
    /// earlier entry.
    fn schedule(&mut self, conn: usize, finish: SimTime) {
        self.order += 1;
        if self.keys[conn].replace((finish, self.order)).is_none() {
            self.live += 1;
        }
        self.heap.push(Reverse((finish, self.order, conn)));
        self.compact_if_loose();
    }

    /// The earliest live completion `(finish, conn)`, popping stale tops.
    fn first_due(&mut self) -> Option<(SimTime, usize)> {
        while let Some(&Reverse((finish, order, conn))) = self.heap.peek() {
            if self.keys[conn] == Some((finish, order)) {
                return Some((finish, conn));
            }
            self.heap.pop();
        }
        None
    }

    /// Remove and return the earliest live completion if it is due by
    /// `now`.
    fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, usize)> {
        let (finish, conn) = self.first_due()?;
        if finish > now {
            return None;
        }
        self.heap.pop();
        self.keys[conn] = None;
        self.live -= 1;
        self.compact_if_loose();
        Some((finish, conn))
    }

    /// Drop every stale entry once they outnumber the live ones by more
    /// than [`DUE_SLACK`], so memory stays O(live flows).
    fn compact_if_loose(&mut self) {
        if self.heap.len() > 2 * self.live + DUE_SLACK {
            let keys = &self.keys;
            self.heap
                .retain(|&Reverse((finish, order, conn))| keys[conn] == Some((finish, order)));
            debug_assert_eq!(self.heap.len(), self.live, "compaction kept a stale entry");
        }
    }
}

/// The single process owning all flow state (see module docs). Spawned by
/// the net switch when the cluster was built under [`super::NetModel::Flow`];
/// shard plans pin it to shard 0.
pub(crate) struct FluidCore {
    registry: Arc<Mutex<Registry>>,
    route: Arc<OnceLock<Route>>,
    conns: Vec<FluidConn>,
    /// Link capacities: stage links at 1.0 (weights are ns/byte), fabric
    /// links in bytes/ns.
    caps: Vec<f64>,
    /// Active connections per link (sorted), indexed by global link id —
    /// the sharing graph the component search walks, maintained
    /// incrementally so a state change never scans flows that share
    /// nothing with it.
    link_users: Vec<Vec<usize>>,
    /// Scheduled completions, one live entry per flow with a rate.
    due: DueHeap,
    /// Times of the [`FluidEv::Wake`] events in flight, ascending. A wake
    /// is only armed ahead of the earliest one, so pushing at the front
    /// keeps the order.
    wakes: VecDeque<SimTime>,
    /// The seeds of the next reallocation, reused across wakes: the
    /// connections on which arrivals started a flow since the last wake,
    /// then the connections the wake completes.
    batch: Vec<usize>,
    scratch: Scratch,
}

impl FluidCore {
    pub(crate) fn new(registry: Arc<Mutex<Registry>>, route: Arc<OnceLock<Route>>) -> FluidCore {
        FluidCore {
            registry,
            route,
            conns: Vec::new(),
            caps: Vec::new(),
            link_users: Vec::new(),
            due: DueHeap::default(),
            wakes: VecDeque::new(),
            batch: Vec::new(),
            scratch: Scratch::default(),
        }
    }

    /// Bring one flow's residual current: between rate changes it drains
    /// linearly, so a single `rate · dt` step at read time replaces the
    /// old advance-everything-at-every-event sweep.
    fn advance_flow(f: &mut ActiveFlow, now: SimTime) {
        let dt = now.since(f.updated).as_nanos() as f64;
        if dt > 0.0 {
            f.remaining = (f.remaining - f.rate * dt).max(0.0);
        }
        f.updated = now;
    }

    /// The allocator's path for a flow of `bytes` on `conn`: stage links
    /// weighted by their per-byte occupancy for this message size, plus
    /// the rack fabric weighted by wire bytes per payload byte.
    fn flow_path(&self, conn: usize, bytes: u64) -> ([(usize, f64); MAX_HOPS], usize) {
        let c = &self.conns[conn];
        let s = bytes.max(1) as f64;
        let occ = c.costs.stage_occupancies(bytes);
        let mut path = [(0, 0.0); MAX_HOPS];
        for (k, &l) in c.stage_links.iter().enumerate() {
            path[k] = (l, occ[k] / s);
        }
        let Some((up, down)) = c.fabric else {
            return (path, 3);
        };
        let frames = c.costs.frames_for(bytes) as u64;
        let wire = (bytes + frames * c.costs.frame_overhead as u64) as f64 / s;
        path[3] = (up, wire);
        path[4] = (down, wire);
        (path, MAX_HOPS)
    }

    /// Delivery residual for a completed flow, clamped to the connection's
    /// shard-plan lower bound.
    fn delivery_delay(&self, conn: usize, bytes: u64) -> Dur {
        let c = &self.conns[conn];
        Dur::nanos(delivery_residual_ns(&c.costs, bytes).max(c.min_drx.as_nanos()))
    }

    fn fail(&self, ctx: &mut Ctx<'_>, conn: usize, msg: u64, bytes: u64, kind: StreamErrorKind) {
        let c = &self.conns[conn];
        ctx.send_in(
            c.detect,
            c.tx_core,
            Message::new(FluidEv::Failed {
                conn: ConnId(conn),
                msg,
                bytes,
                kind,
            }),
        );
    }

    /// Promote the next queued message (if any) to the connection's active
    /// flow, unrated until the next reallocation; messages landing after
    /// the endpoint crash fail over instead. Returns true when a flow was
    /// started (the caller makes the connection a seed of the wake).
    fn start_next(&mut self, ctx: &mut Ctx<'_>, conn: usize) -> bool {
        loop {
            let c = &mut self.conns[conn];
            debug_assert!(c.active.is_none(), "starting over an active flow");
            let Some(q) = c.queue.pop_front() else {
                return false;
            };
            if c.cut_at.is_some_and(|t| ctx.now() >= t) {
                let (msg, bytes) = (q.msg, q.bytes);
                self.fail(ctx, conn, msg, bytes, StreamErrorKind::PeerDead);
                continue;
            }
            self.activate(ctx.now(), conn, q);
            return true;
        }
    }

    /// Make `q` the connection's active flow, unrated until the next
    /// reallocation, and add it to the sharing graph.
    fn activate(&mut self, now: SimTime, conn: usize, q: QueuedMsg) {
        let (path, hops) = self.flow_path(conn, q.bytes);
        for &(l, _) in &path[..hops] {
            let lu = &mut self.link_users[l];
            if let Err(i) = lu.binary_search(&conn) {
                lu.insert(i, conn);
            }
        }
        self.conns[conn].active = Some(ActiveFlow {
            msg: q.msg,
            bytes: q.bytes,
            sent_at: q.sent_at,
            payload: Some(q.payload),
            extra: q.extra,
            remaining: q.bytes.max(1) as f64,
            rate: 0.0,
            updated: now,
            path,
            hops,
        });
    }

    /// Take the connection's active flow out of the sharing graph.
    fn deactivate(&mut self, conn: usize) -> ActiveFlow {
        let f = self.conns[conn]
            .active
            .take()
            .expect("due flows are active");
        for &(l, _) in f.path() {
            let lu = &mut self.link_users[l];
            if let Ok(i) = lu.binary_search(&conn) {
                lu.remove(i);
            }
        }
        f
    }

    /// Recompute max-min fair shares for the connected components of the
    /// flow–link sharing graph around the links of the `seeds`, and
    /// reschedule the completion of every flow whose rate changed. Each
    /// component is solved once, with the first seed that reaches it: a
    /// seed whose links were all reached by an earlier seed's component
    /// adds nothing. Flows outside these components share no link
    /// (transitively) with the changed connections, so their rates — and
    /// their scheduled completions — stand.
    fn reallocate(&mut self, now: SimTime, seeds: &[usize]) {
        let FluidCore {
            conns,
            caps,
            link_users,
            scratch: sc,
            due,
            ..
        } = self;
        sc.begin();
        for &seed in seeds {
            sc.begin_component();
            for l in conns[seed].links() {
                sc.mark_link(l, caps[l]);
            }
            while let Some(l) = sc.pending.pop() {
                for &ci in &link_users[l] {
                    if sc.conn_mark[ci] != sc.stamp {
                        sc.conn_mark[ci] = sc.stamp;
                        sc.comp.push(ci);
                        for &(l2, _) in conns[ci].active.as_ref().expect("in sync").path() {
                            sc.mark_link(l2, caps[l2]);
                        }
                    }
                }
            }
            if sc.comp.is_empty() {
                continue;
            }
            // Float accumulation order must be a pure function of the
            // component, not of the order the search found it in.
            sc.comp.sort_unstable();
            for &ci in &sc.comp {
                let f = conns[ci].active.as_ref().expect("in sync");
                let local = f.path().iter().map(|&(l, w)| (sc.link_local[l], w));
                sc.fill.pairs.extend(local);
                sc.fill.offsets.push(sc.fill.pairs.len());
            }
            sc.fill.run();
            for (&ci, &rate) in sc.comp.iter().zip(&sc.fill.rate) {
                let f = conns[ci].active.as_mut().expect("in sync");
                Self::advance_flow(f, now);
                if rate != f.rate {
                    // An unchanged rate keeps its scheduled completion: the
                    // residual shrank by exactly rate·dt since scheduling.
                    f.rate = rate;
                    due.schedule(ci, now + Dur::nanos((f.remaining / f.rate).ceil() as u64));
                }
            }
        }
    }

    /// Make sure a [`FluidEv::Wake`] fires at the earliest scheduled
    /// completion. Wakes armed for completions that have since moved
    /// later fire as no-ops and re-arm here.
    fn arm(&mut self, ctx: &mut Ctx<'_>) {
        let Some((next, _)) = self.due.first_due() else {
            return;
        };
        if self.wakes.front().map_or(true, |&w| w > next) {
            self.wakes.push_front(next);
            ctx.send_self_in(next.since(ctx.now()), Message::new(FluidEv::Wake));
        }
    }

    fn on_arrive(
        &mut self,
        ctx: &mut Ctx<'_>,
        conn: usize,
        msg: u64,
        bytes: u64,
        sent_at: SimTime,
        payload: Message,
    ) {
        let c = &mut self.conns[conn];
        // Fate is drawn once per message, in arrival order, from this
        // core's own deterministic RNG stream — shard-invariant because
        // the core is a single pinned process.
        let fate = match &c.faults {
            Some(f) => f.fate(ctx.now(), ctx.rng()),
            None => MsgFate::Deliver { extra: Dur::ZERO },
        };
        match fate {
            MsgFate::Drop => {
                let kind = if c.cut_at.is_some_and(|t| ctx.now() >= t) {
                    StreamErrorKind::PeerDead
                } else {
                    StreamErrorKind::Lost
                };
                self.fail(ctx, conn, msg, bytes, kind);
            }
            MsgFate::Deliver { extra } => {
                c.queue.push_back(QueuedMsg {
                    msg,
                    bytes,
                    sent_at,
                    payload,
                    extra,
                });
                if c.active.is_none() && self.start_next(ctx, conn) {
                    // Every arrival at this instant has landed before the
                    // wake does, so one reallocation there covers them all.
                    self.batch.push(conn);
                    let now = ctx.now();
                    if self.wakes.front() != Some(&now) {
                        self.wakes.push_front(now);
                        ctx.send_self_in(Dur::ZERO, Message::new(FluidEv::Wake));
                    }
                }
            }
        }
    }

    /// Settle this instant's arrivals and complete every flow due by now,
    /// in batches. The first batch is the arrival seeds followed by every
    /// flow due at this instant, popped in `(finish, order)` order as keyed
    /// when the batch begins. The due flows complete first; then one
    /// reallocation covers each component the batch touched. If that
    /// leaves flows due now (a residual that rounds to no time left), they
    /// form the next batch.
    fn on_wake(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        debug_assert_eq!(self.wakes.front(), Some(&now), "wake out of order");
        self.wakes.pop_front();
        let mut batch = std::mem::take(&mut self.batch);
        loop {
            let seeds = batch.len();
            while let Some((_, conn)) = self.due.pop_due(now) {
                batch.push(conn);
            }
            if batch.is_empty() {
                break;
            }
            for &conn in &batch[seeds..] {
                self.complete(ctx, conn);
            }
            self.reallocate(now, &batch);
            batch.clear();
        }
        self.batch = batch;
    }

    /// Deliver or fail the connection's due flow and promote its next
    /// queued message. Rates are left alone: the wake reallocates once for
    /// its whole batch.
    fn complete(&mut self, ctx: &mut Ctx<'_>, conn: usize) {
        let mut f = self.deactivate(conn);
        let payload = f.payload.take().expect("payload present until delivery");
        if self.conns[conn].cut_at.is_some_and(|t| ctx.now() >= t) {
            // The endpoint died mid-transfer: the flow fails instead of
            // delivering.
            let (msg, bytes) = (f.msg, f.bytes);
            self.fail(ctx, conn, msg, bytes, StreamErrorKind::PeerDead);
        } else {
            ctx.count_flow();
            let d_rx = self.delivery_delay(conn, f.bytes) + f.extra;
            let c = &self.conns[conn];
            ctx.send_in(
                d_rx,
                c.rx_core,
                Message::new(FluidEv::Deliver {
                    conn: ConnId(conn),
                    msg: f.msg,
                    bytes: f.bytes,
                    sent_at: f.sent_at,
                    payload,
                }),
            );
        }
        self.start_next(ctx, conn);
    }
}

impl Process for FluidCore {
    fn name(&self) -> String {
        "net-fluid".to_string()
    }

    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {
        let reg = self.registry.lock().expect("registry lock");
        assert!(reg.sealed, "fluid core started before the switch");
        let route = self
            .route
            .get()
            .expect("fluid core starts after the switch installed routes");
        let topo = reg.topology;
        let n = route.core_of_node.len();
        self.caps = vec![1.0; 3 * n];
        if let Topology::Racks {
            racks,
            per_rack,
            oversub,
        } = topo
        {
            let up = per_rack as f64 * NODE_WIRE_BYTES_PER_NS / oversub;
            for _ in 0..racks {
                self.caps.push(up); // uplink
                self.caps.push(up); // downlink
            }
        }
        self.link_users = vec![Vec::new(); self.caps.len()];
        self.conns = reg
            .conns
            .iter()
            .enumerate()
            .map(|(ci, spec)| {
                let (src, dst) = (spec.src.node.0, spec.dst.node.0);
                let faults = reg.faults.as_ref().and_then(|p| p.compile(src, dst));
                let fabric = match topo {
                    Topology::Racks { per_rack, .. } if topo.inter_rack(src, dst) => Some((
                        3 * n + 2 * (src / per_rack),
                        3 * n + 2 * (dst / per_rack) + 1,
                    )),
                    _ => None,
                };
                FluidConn {
                    tx_core: route.tx_core[ci],
                    rx_core: route.rx_core[ci],
                    stage_links: [3 * src, 3 * src + 1, 3 * dst + 2],
                    fabric,
                    min_drx: min_delivery(&spec.costs),
                    cut_at: faults.as_ref().and_then(|f| f.cut_at),
                    detect: faults
                        .as_ref()
                        .map_or(Dur::nanos(1), |f| Dur::nanos(f.detect.as_nanos().max(1))),
                    faults,
                    costs: Arc::clone(&spec.costs),
                    queue: VecDeque::new(),
                    active: None,
                }
            })
            .collect();
        self.due = DueHeap::new(self.conns.len());
        let sc = &mut self.scratch;
        sc.conn_mark = vec![0; self.conns.len()];
        sc.link_mark = vec![0; self.caps.len()];
        sc.link_local = vec![0; self.caps.len()];
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        match msg.downcast::<FluidEv>() {
            Ok(FluidEv::Arrive {
                conn,
                msg,
                bytes,
                sent_at,
                payload,
            }) => self.on_arrive(ctx, conn.0, msg, bytes, sent_at, payload),
            Ok(FluidEv::Wake) => self.on_wake(ctx),
            Ok(_) => panic!("node-core fluid event at the fluid core"),
            Err(_) => panic!("fluid core received an unknown message type"),
        }
        self.arm(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, what: &str) {
        assert!(
            (a - b).abs() <= 1e-9 * b.abs().max(1.0),
            "{what}: {a} vs {b}"
        );
    }

    #[test]
    fn single_flow_gets_the_bottleneck_rate() {
        // One flow over links of capacity 10 and 4 with unit weights.
        let rates = max_min_rates(&[10.0, 4.0], &[vec![(0, 1.0), (1, 1.0)]]);
        assert_close(rates[0], 4.0, "single flow");
    }

    #[test]
    fn shared_uplink_splits_evenly() {
        // Two unit-weight flows through one capacity-10 uplink.
        let flows = vec![vec![(0, 1.0)], vec![(0, 1.0)]];
        let rates = max_min_rates(&[10.0], &flows);
        assert_close(rates[0], 5.0, "flow 0");
        assert_close(rates[1], 5.0, "flow 1");
    }

    #[test]
    fn asymmetric_capacities_water_fill() {
        // Flow A crosses a tight private link (cap 2) and the shared link
        // (cap 10); flow B only the shared link. A freezes at 2, B takes
        // the leftovers: 8.
        let flows = vec![vec![(0, 1.0), (1, 1.0)], vec![(1, 1.0)]];
        let rates = max_min_rates(&[2.0, 10.0], &flows);
        assert_close(rates[0], 2.0, "constrained flow");
        assert_close(rates[1], 8.0, "unconstrained flow");
    }

    #[test]
    fn weights_scale_consumption() {
        // Equal fair shares in *rate* under unequal weights: both freeze
        // at the shared bottleneck, r * (w_a + w_b) = cap.
        let flows = vec![vec![(0, 3.0)], vec![(0, 1.0)]];
        let rates = max_min_rates(&[8.0], &flows);
        assert_close(rates[0], 2.0, "heavy flow");
        assert_close(rates[1], 2.0, "light flow");
    }

    #[test]
    fn three_tier_bottleneck_chain() {
        // f0: links 0,1; f1: links 1,2; f2: link 2. cap 1, 3, 12.
        // Round 1: link 0 fair 1 -> f0 = 1. Round 2: link 1 left 2 for
        // f1 -> 2. Round 3: link 2 left 10 for f2 -> 10.
        let flows = vec![
            vec![(0, 1.0), (1, 1.0)],
            vec![(1, 1.0), (2, 1.0)],
            vec![(2, 1.0)],
        ];
        let rates = max_min_rates(&[1.0, 3.0, 12.0], &flows);
        assert_close(rates[0], 1.0, "f0");
        assert_close(rates[1], 2.0, "f1");
        assert_close(rates[2], 10.0, "f2");
    }

    /// Reference model for [`DueHeap`]: an ordered set holding only the
    /// current keys, with its own order counter.
    #[derive(Default)]
    struct DueModel {
        set: std::collections::BTreeSet<(SimTime, u64, usize)>,
        keys: Vec<Option<(SimTime, u64)>>,
        order: u64,
    }

    impl DueModel {
        fn schedule(&mut self, conn: usize, finish: SimTime) {
            if let Some((f, o)) = self.keys[conn].take() {
                self.set.remove(&(f, o, conn));
            }
            self.order += 1;
            self.keys[conn] = Some((finish, self.order));
            self.set.insert((finish, self.order, conn));
        }

        fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, usize)> {
            let &(finish, _, conn) = self.set.first()?;
            if finish > now {
                return None;
            }
            self.set.pop_first();
            self.keys[conn] = None;
            Some((finish, conn))
        }
    }

    /// Uniform-enough draw in `0..n` for test scripts.
    fn below(rng: &mut rand::rngs::SmallRng, n: u64) -> u64 {
        use rand::RngCore;
        rng.next_u64() % n
    }

    /// Reschedule a random subset of connections, the way a reallocation
    /// does: new flows get a first completion, flows already scheduled move.
    /// Finish times land on a coarse grid so same-nanosecond ties are common.
    fn reallocate_both(
        rng: &mut rand::rngs::SmallRng,
        heap: &mut DueHeap,
        model: &mut DueModel,
        now: SimTime,
        conns: usize,
    ) {
        let touched = 1 + below(rng, conns as u64);
        for _ in 0..touched {
            let conn = below(rng, conns as u64) as usize;
            let finish = now + Dur::nanos(below(rng, 40) * 25);
            heap.schedule(conn, finish);
            model.schedule(conn, finish);
        }
        assert_eq!(heap.live, model.set.len(), "live count");
        assert!(
            heap.heap.len() <= 2 * heap.live + DUE_SLACK,
            "{} heap entries for {} live flows",
            heap.heap.len(),
            heap.live
        );
    }

    #[test]
    fn due_heap_pops_like_an_ordered_set() {
        use rand::{Rng, SeedableRng};
        for seed in 0..24u64 {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let conns = 100 + below(&mut rng, 300) as usize;
            let mut heap = DueHeap::new(conns);
            let mut model = DueModel {
                keys: vec![None; conns],
                ..DueModel::default()
            };
            let mut now = SimTime::ZERO;
            let mut popped = 0usize;
            for _ in 0..400 {
                if rng.gen_bool(0.5) {
                    reallocate_both(&mut rng, &mut heap, &mut model, now, conns);
                    continue;
                }
                // A wake: jump to the earliest completion and complete
                // everything due by then; each completion may reallocate,
                // rescheduling flows to this very instant.
                let Some((next, _)) = heap.first_due() else {
                    continue;
                };
                now = next;
                loop {
                    let want = model.pop_due(now);
                    assert_eq!(heap.pop_due(now), want, "seed {seed}: pop {popped}");
                    if want.is_none() {
                        break;
                    }
                    popped += 1;
                    if rng.gen_bool(0.3) {
                        reallocate_both(&mut rng, &mut heap, &mut model, now, conns);
                    }
                }
            }
            // Drain: the remaining pop sequences agree to the end.
            let end = SimTime::from_nanos(u64::MAX);
            loop {
                let want = model.pop_due(end);
                assert_eq!(heap.pop_due(end), want, "seed {seed}: drain");
                if want.is_none() {
                    break;
                }
            }
            assert_eq!(heap.live, 0, "seed {seed}: live count after the drain");
        }
    }

    /// A fluid core with no kernel around it: `nodes` nodes in racks of
    /// `per_rack` behind fabric links of capacity `up`, and one kernel-TCP
    /// connection per `(src, dst)` pair, wired as `on_start` wires them.
    fn bare_core(nodes: usize, per_rack: usize, up: f64, pairs: &[(usize, usize)]) -> FluidCore {
        use crate::params::{PathCosts, TransportKind};
        let mut core = FluidCore::new(Arc::default(), Arc::default());
        core.caps = vec![1.0; 3 * nodes];
        core.caps.resize(3 * nodes + 2 * (nodes / per_rack), up);
        core.link_users = vec![Vec::new(); core.caps.len()];
        let costs = Arc::new(PathCosts::for_kind(TransportKind::KTcp));
        let fabric = |src: usize, dst: usize| {
            let (sr, dr) = (src / per_rack, dst / per_rack);
            (sr != dr).then_some((3 * nodes + 2 * sr, 3 * nodes + 2 * dr + 1))
        };
        core.conns = pairs
            .iter()
            .map(|&(src, dst)| FluidConn {
                costs: Arc::clone(&costs),
                tx_core: ProcessId(0),
                rx_core: ProcessId(0),
                stage_links: [3 * src, 3 * src + 1, 3 * dst + 2],
                fabric: fabric(src, dst),
                min_drx: Dur::nanos(1),
                faults: None,
                cut_at: None,
                detect: Dur::nanos(1),
                queue: VecDeque::new(),
                active: None,
            })
            .collect();
        core.due = DueHeap::new(pairs.len());
        core.scratch.conn_mark = vec![0; pairs.len()];
        core.scratch.link_mark = vec![0; core.caps.len()];
        core.scratch.link_local = vec![0; core.caps.len()];
        core
    }

    /// One scripted step at `now`, as a wake would take it: complete the
    /// flows due by now, start new ones on some idle connections, then
    /// reallocate with every touched connection as a seed — several per
    /// component, so the batch skips seeds an earlier seed's component
    /// already reached. Returns the number of completed flows.
    fn churn(core: &mut FluidCore, step: usize, now: SimTime) -> usize {
        let mut seeds = Vec::new();
        while let Some((_, c)) = core.due.pop_due(now) {
            core.deactivate(c);
            seeds.push(c);
        }
        let done = seeds.len();
        for c in 0..core.conns.len() {
            if core.conns[c].active.is_none() && (c * 7 + step) % 4 != 0 {
                let bytes = 4_096 << ((c + step) % 4);
                let q = QueuedMsg {
                    msg: step as u64,
                    bytes,
                    sent_at: now,
                    payload: Message::new(()),
                    extra: Dur::ZERO,
                };
                core.activate(now, c, q);
                seeds.push(c);
            }
        }
        core.reallocate(now, &seeds);
        done
    }

    /// One connection's allocation: its flow's rate and residual (as bits)
    /// and its completion key.
    type Allocation = (Option<(u64, u64)>, Option<(SimTime, u64)>);

    /// The allocation a reallocation left, per connection.
    fn allocation(core: &FluidCore) -> Vec<Allocation> {
        let rates = core.conns.iter().map(|c| {
            let f = c.active.as_ref()?;
            Some((f.rate.to_bits(), f.remaining.to_bits()))
        });
        rates.zip(core.due.keys.iter().copied()).collect()
    }

    #[test]
    fn reallocation_survives_the_stamp_wrapping() {
        // Two racks of four senders, each sending to its mirror node two
        // racks up and to a neighbour in its own rack, and the eight
        // receivers sending round a ring, two hops of it across racks:
        // uplink-shared components that intra-rack flows join by host.
        let pairs: Vec<(usize, usize)> = (0..8)
            .flat_map(|n| [(n, n + 8), (n, n ^ 1), (n + 8, (n + 1) % 8 + 8)])
            .collect();
        // The wrap comes 1, 2 or 3 reallocations after the jump.
        for before_wrap in 0..3 {
            let mut fresh = bare_core(16, 4, 0.1, &pairs);
            let mut wrapping = bare_core(16, 4, 0.1, &pairs);
            let mut now = SimTime::ZERO;
            for step in 0..10 {
                let what = format!("{before_wrap} before the wrap, step {step}");
                let done = churn(&mut fresh, step, now);
                assert_eq!(churn(&mut wrapping, step, now), done, "{what}");
                assert!(step == 0 || done > 0, "{what}: no flow completed");
                if step == 0 {
                    // Marks equal to 1 are now on record, and the stamp
                    // after the wrap is 1 again.
                    wrapping.scratch.stamp = u32::MAX - before_wrap;
                }
                let got = allocation(&wrapping);
                assert_eq!(got, allocation(&fresh), "{what}");
                assert!(
                    got.iter()
                        .any(|(rate, _)| rate.is_some_and(|(r, _)| r != 0)),
                    "{what}: nothing was allocated"
                );
                // Like a wake: on to the earliest completion.
                (now, _) = fresh.due.first_due().expect("flows are scheduled");
            }
            assert_eq!(wrapping.scratch.stamp, 9 - before_wrap, "the stamp wrapped");
        }
    }

    #[test]
    fn same_instant_arrivals_allocate_like_one_at_a_time() {
        // The rack shape of the stamp-wrapping test: uplink-shared
        // components that intra-rack flows join by host.
        let pairs: Vec<(usize, usize)> = (0..8)
            .flat_map(|n| [(n, n + 8), (n, n ^ 1), (n + 8, (n + 1) % 8 + 8)])
            .collect();
        let mut moved = 0;
        for steps in 1..8 {
            let what = format!("after {steps} churn steps");
            let mut one_by_one = bare_core(16, 4, 0.1, &pairs);
            let mut settled = bare_core(16, 4, 0.1, &pairs);
            let mut now = SimTime::ZERO;
            for step in 0..steps {
                churn(&mut one_by_one, step, now);
                churn(&mut settled, step, now);
                (now, _) = settled.due.first_due().expect("flows are scheduled");
            }
            // The flows due now complete and their components settle, in
            // both cores alike; then every idle connection starts a flow
            // at this same instant.
            for core in [&mut one_by_one, &mut settled] {
                let mut done = Vec::new();
                while let Some((_, c)) = core.due.pop_due(now) {
                    core.deactivate(c);
                    done.push(c);
                }
                core.reallocate(now, &done);
            }
            let before = allocation(&settled);
            assert_eq!(allocation(&one_by_one), before, "{what}");
            let idle: Vec<usize> = (0..pairs.len())
                .filter(|&c| settled.conns[c].active.is_none())
                .collect();
            assert!(idle.len() >= 2, "{what}: {} idle connections", idle.len());
            for (k, &c) in idle.iter().enumerate() {
                let q = || QueuedMsg {
                    msg: 100 + k as u64,
                    bytes: 2_048 << (k % 5),
                    sent_at: now,
                    payload: Message::new(()),
                    extra: Dur::ZERO,
                };
                one_by_one.activate(now, c, q());
                one_by_one.reallocate(now, &[c]);
                settled.activate(now, c, q());
            }
            settled.reallocate(now, &idle);
            let (a, b) = (allocation(&one_by_one), allocation(&settled));
            for (c, ((rate_a, key_a), (rate_b, key_b))) in a.iter().zip(&b).enumerate() {
                assert_eq!(rate_a, rate_b, "{what}: conn {c}'s rate and residual");
                let finish = |key: &Option<(SimTime, u64)>| key.map(|(t, _)| t.as_nanos());
                match (finish(key_a), finish(key_b)) {
                    (Some(fa), Some(fb)) => {
                        assert!(
                            fa.abs_diff(fb) <= 1,
                            "{what}: conn {c} completes at {fa} vs {fb}"
                        )
                    }
                    (fa, fb) => assert_eq!(fa, fb, "{what}: conn {c}'s completion"),
                }
            }
            let rate = |a: &Allocation| a.0.map(|(r, _)| r);
            moved += before
                .iter()
                .zip(&b)
                .filter(|(old, new)| rate(old).is_some_and(|r| rate(new) != Some(r)))
                .count();
        }
        assert!(moved > 0, "the arrivals moved no running flow's rate");
    }

    #[test]
    fn unloaded_single_flow_reproduces_peak_bandwidths() {
        // A lone fluid flow's drain rate (1 / max stage weight) must equal
        // the packet model's calibrated steady-state bandwidth.
        use crate::params::{PathCosts, TransportKind};
        for kind in TransportKind::PAPER_SET {
            let costs = PathCosts::for_kind(kind);
            let s = 65_536u64;
            let occ = costs.stage_occupancies(s);
            let max_w = occ.iter().fold(0.0f64, |a, &b| a.max(b)) / s as f64;
            let mbps = 8.0 / max_w * 1_000.0;
            let want = costs.steady_bandwidth_mbps(s);
            assert!(
                (mbps - want).abs() / want < 1e-3,
                "{}: fluid {mbps} vs packet {want}",
                kind.label()
            );
        }
    }
}
