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
//! The components persist between wakes ([`Sharing`]): each keeps its
//! connections in ascending order and its water-filling problem built in
//! that order, and a flow that starts or ends patches only its own entry
//! (a start that bridges components merges them; a connection that
//! starts its next message as the last one ends only renews its
//! weights). A reallocation hands the stored problem to the kernel as it
//! is. An end that may split its component re-derives the parts by
//! search at once; a local certificate rules the split out for most
//! ends, so the search rarely runs.
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
use crate::engine::{ConnId, MsgMeta, Registry, StreamErrorKind};
use crate::fault::{ConnFaults, MsgFate};
use crate::params::PathCosts;
use hpsock_sim::{Ctx, Dur, Message, Process, ProcessId, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

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
    let mut problem = Csr::default();
    for (f, path) in flows.iter().enumerate() {
        assert!(!path.is_empty(), "flow {f} crosses no links");
        for &(l, w) in path {
            assert!(l < caps.len(), "flow {f} crosses unknown link {l}");
            assert!(w > 0.0, "flow {f} has non-positive weight {w} on link {l}");
        }
        problem.push_flow(path);
    }
    problem.caps.extend_from_slice(caps);
    let mut fill = Filler::default();
    fill.run(&problem);
    fill.rate
}

/// A max-min problem in CSR form: flow `f` crosses `pairs[offsets[f]..
/// offsets[f + 1]]`, `(link, weight)` pairs over links `0..caps.len()`.
/// The fluid core keeps one per component and patches it flow by flow.
struct Csr {
    caps: Vec<f64>,
    /// One more entry than there are flows, starting at 0.
    offsets: Vec<usize>,
    pairs: Vec<(usize, f64)>,
}

impl Default for Csr {
    fn default() -> Csr {
        Csr {
            caps: Vec::new(),
            offsets: vec![0],
            pairs: Vec::new(),
        }
    }
}

impl Csr {
    /// Empty the problem, keeping the allocations.
    fn clear(&mut self) {
        self.caps.clear();
        self.offsets.truncate(1);
        self.pairs.clear();
    }

    fn path(&self, f: usize) -> &[(usize, f64)] {
        &self.pairs[self.offsets[f]..self.offsets[f + 1]]
    }

    /// Append a flow crossing `path`.
    fn push_flow(&mut self, path: &[(usize, f64)]) {
        self.pairs.extend_from_slice(path);
        self.offsets.push(self.pairs.len());
    }

    /// Make `path` flow `f`, moving the flows from `f` on one place up.
    fn insert_flow(&mut self, f: usize, path: &[(usize, f64)]) {
        let (start, end) = (self.offsets[f], self.pairs.len());
        self.pairs.extend_from_slice(path);
        self.pairs.copy_within(start..end, start + path.len());
        self.pairs[start..start + path.len()].copy_from_slice(path);
        self.offsets.insert(f + 1, start);
        for o in &mut self.offsets[f + 1..] {
            *o += path.len();
        }
    }

    /// Drop flow `f`, moving the flows after it one place down.
    fn remove_flow(&mut self, f: usize) {
        let (start, end) = (self.offsets[f], self.offsets[f + 1]);
        self.pairs.drain(start..end);
        self.offsets.remove(f + 1);
        for o in &mut self.offsets[f + 1..] {
            *o -= end - start;
        }
    }
}

/// The water-filling kernel's reusable buffers, so the fluid core can
/// solve on every reallocation without allocating.
#[derive(Default)]
struct Filler {
    /// Output: the max-min rate per flow.
    rate: Vec<f64>,
    /// Flows not yet frozen, in flow order.
    open: Vec<usize>,
    cap_left: Vec<f64>,
    wsum: Vec<f64>,
    fair: Vec<f64>,
}

impl Filler {
    /// Solve `p` into `rate`. Sums accumulate in flow order, so the
    /// rates are a pure function of the flows' order and paths: neither
    /// the numbering of the links nor links no flow crosses (whose fair
    /// share stays infinite) can move them.
    fn run(&mut self, p: &Csr) {
        let flows = p.offsets.len() - 1;
        self.rate.clear();
        self.rate.resize(flows, 0.0);
        self.open.clear();
        self.open.extend(0..flows);
        self.cap_left.clear();
        self.cap_left.extend_from_slice(&p.caps);
        while !self.open.is_empty() {
            // Fair share each link could still grant its unfrozen flows.
            self.wsum.clear();
            self.wsum.resize(p.caps.len(), 0.0);
            for &f in &self.open {
                for &(l, w) in p.path(f) {
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
            let fair = &self.fair;
            let (rate, cap_left) = (&mut self.rate, &mut self.cap_left);
            self.open.retain(|&f| {
                let path = p.path(f);
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
    /// A completed flow's payload arriving at the receive-side node core,
    /// which delivers it.
    Deliver {
        conn: ConnId,
        msg: u64,
        meta: MsgMeta,
    },
    /// A fault verdict surfacing at the send-side node core after the
    /// loss-detection latency; the core fails the message to its sender.
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

/// No component: the mark of a link no active flow crosses.
const NONE: u32 = u32::MAX;

/// A connected component of the flow–link sharing graph, kept between
/// reallocations so that solving it needs no search, sort or build.
#[derive(Default)]
struct Component {
    /// Connections with an active flow in this component, ascending.
    members: Vec<usize>,
    /// The members' paths in member order, over the component's link
    /// slots: the problem the water-filling kernel is handed as it stands.
    csr: Csr,
    /// Global link id per slot. A slot whose link lost its last user, or
    /// moved to another component in a split, stays dead (the kernel
    /// never picks a link no flow crosses) and is taken again if the link
    /// comes back to this component.
    links: Vec<usize>,
    /// Dead slots. Once they outnumber the live ones, the component is
    /// refilled.
    dead: usize,
    /// Stamp of the reallocation that last solved this component.
    solved: u32,
}

/// The flow–link sharing graph, split into its connected components.
/// `join` and `leave` patch it one flow at a time, so each component
/// always holds its members and their problem in ascending connection
/// order — exactly what a search from scratch would find and sort.
#[derive(Default)]
struct Sharing {
    /// Active connections per link (sorted), indexed by global link id.
    link_users: Vec<Vec<usize>>,
    /// The component of each link that has users, else [`NONE`].
    link_comp: Vec<u32>,
    /// Each link's slot in its component. Kept when the link loses its
    /// last user, so the same slot comes back with it.
    link_slot: Vec<usize>,
    comps: Vec<Component>,
    /// Emptied components, kept for their buffers.
    free: Vec<u32>,
    /// Split search: connections and links reached carry `mark`.
    mark: u32,
    conn_mark: Vec<u32>,
    link_mark: Vec<u32>,
    /// Split search buffers: connections, and where each part of a split
    /// ends in `parts`.
    stack: Vec<usize>,
    parts: Vec<usize>,
    part_ends: Vec<usize>,
    /// Merge and refill buffers: members, and a problem to merge into.
    merged: Vec<usize>,
    spare: Csr,
}

/// The active flow of connection `c`, which the sharing graph holds.
fn flow_of(conns: &[FluidConn], c: usize) -> &ActiveFlow {
    conns[c].active.as_ref().expect("in sync")
}

impl Sharing {
    fn new(links: usize, conns: usize) -> Sharing {
        Sharing {
            link_users: vec![Vec::new(); links],
            link_comp: vec![NONE; links],
            link_slot: vec![0; links],
            conn_mark: vec![0; conns],
            link_mark: vec![0; links],
            ..Sharing::default()
        }
    }

    /// An empty component.
    fn alloc(&mut self) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            self.comps.push(Component::default());
            (self.comps.len() - 1) as u32
        })
    }

    /// Hand an emptied component's buffers back.
    fn release(&mut self, c: u32) {
        let comp = &mut self.comps[c as usize];
        comp.members.clear();
        comp.csr.clear();
        comp.links.clear();
        comp.dead = 0;
        self.free.push(c);
    }

    /// Link `l`'s slot in component `c`, taking one if it has none there:
    /// its old slot if it still names `l`, else a new one.
    fn slot(&mut self, c: u32, l: usize, cap: f64) -> usize {
        if self.link_comp[l] == c {
            return self.link_slot[l];
        }
        debug_assert_eq!(self.link_comp[l], NONE, "link {l} is in another component");
        let comp = &mut self.comps[c as usize];
        let k = if comp.links.get(self.link_slot[l]) == Some(&l) {
            comp.dead -= 1;
            self.link_slot[l]
        } else {
            comp.links.push(l);
            comp.csr.caps.push(cap);
            comp.links.len() - 1
        };
        self.link_comp[l] = c;
        self.link_slot[l] = k;
        k
    }

    /// Fill component `c` afresh with `members` (ascending): their paths
    /// in that order, over slots numbered from 0. Every link `c` held is
    /// given up first; links of other components move into `c`.
    fn refill(&mut self, conns: &[FluidConn], caps: &[f64], c: u32, members: &[usize]) {
        let comp = &mut self.comps[c as usize];
        for (k, &l) in comp.links.iter().enumerate() {
            if self.link_comp[l] == c && self.link_slot[l] == k {
                self.link_comp[l] = NONE;
            }
        }
        comp.links.clear();
        comp.csr.clear();
        comp.dead = 0;
        comp.members.clear();
        comp.members.extend_from_slice(members);
        for &m in members {
            for &(l, w) in flow_of(conns, m).path() {
                if self.link_comp[l] != c {
                    self.link_comp[l] = c;
                    self.link_slot[l] = comp.links.len();
                    comp.links.push(l);
                    comp.csr.caps.push(caps[l]);
                }
                comp.csr.pairs.push((self.link_slot[l], w));
            }
            comp.csr.offsets.push(comp.csr.pairs.len());
        }
    }

    /// Add `conn`'s newly active flow: into the component its links
    /// share, at its sorted place; into a new component if they share
    /// none; into the merge of all of them if they share several.
    fn join(&mut self, conns: &[FluidConn], caps: &[f64], conn: usize) {
        let path = flow_of(conns, conn).path();
        let mut touched = [NONE; MAX_HOPS];
        let mut n = 0;
        for &(l, _) in path {
            let c = self.link_comp[l];
            if c != NONE && !touched[..n].contains(&c) {
                touched[n] = c;
                n += 1;
            }
            let lu = &mut self.link_users[l];
            let i = lu.binary_search(&conn).expect_err("joins once");
            lu.insert(i, conn);
        }
        let c = match n {
            0 => self.alloc(),
            1 => touched[0],
            _ => self.merge(conns, caps, &touched[..n]),
        };
        let mut local = [(0, 0.0); MAX_HOPS];
        for (k, &(l, w)) in path.iter().enumerate() {
            local[k] = (self.slot(c, l, caps[l]), w);
        }
        let comp = &mut self.comps[c as usize];
        let at = comp.members.binary_search(&conn).expect_err("joins once");
        comp.members.insert(at, conn);
        comp.csr.insert_flow(at, &local[..path.len()]);
    }

    /// Take the weights of `conn`'s new flow, which replaced its last one
    /// on the same links in the same order: membership, slots and
    /// connectivity stand.
    fn renew(&mut self, conns: &[FluidConn], conn: usize) {
        let path = flow_of(conns, conn).path();
        let comp = &mut self.comps[self.link_comp[path[0].0] as usize];
        let f = comp.members.binary_search(&conn).expect("a member");
        let (start, end) = (comp.csr.offsets[f], comp.csr.offsets[f + 1]);
        for (pair, &(l, w)) in comp.csr.pairs[start..end].iter_mut().zip(path) {
            debug_assert_eq!(comp.links[pair.0], l, "renewed on other links");
            pair.1 = w;
        }
    }

    /// Merge the components `ids` into the largest of them, members in
    /// one sorted merge: the largest's flows keep their pairs, the
    /// others' paths move to its slots. Returns the merged component.
    fn merge(&mut self, conns: &[FluidConn], caps: &[f64], ids: &[u32]) -> u32 {
        let into = ids
            .iter()
            .copied()
            .max_by_key(|&c| self.comps[c as usize].members.len())
            .expect("merging components");
        for &c in ids.iter().filter(|&&c| c != into) {
            // Give the links up, so that `slot` moves them into `into`.
            for (k, &l) in self.comps[c as usize].links.iter().enumerate() {
                if self.link_comp[l] == c && self.link_slot[l] == k {
                    self.link_comp[l] = NONE;
                }
            }
        }
        let mut members = std::mem::take(&mut self.merged);
        let mut csr = std::mem::take(&mut self.spare);
        members.clear();
        csr.clear();
        let mut next = [0; MAX_HOPS];
        loop {
            let mut pick = None;
            for (k, &c) in ids.iter().enumerate() {
                if let Some(&m) = self.comps[c as usize].members.get(next[k]) {
                    if pick.map_or(true, |(_, least)| m < least) {
                        pick = Some((k, m));
                    }
                }
            }
            let Some((k, m)) = pick else { break };
            if ids[k] == into {
                csr.pairs
                    .extend_from_slice(self.comps[into as usize].csr.path(next[k]));
            } else {
                for &(l, w) in flow_of(conns, m).path() {
                    let slot = self.slot(into, l, caps[l]);
                    csr.pairs.push((slot, w));
                }
            }
            csr.offsets.push(csr.pairs.len());
            members.push(m);
            next[k] += 1;
        }
        let comp = &mut self.comps[into as usize];
        std::mem::swap(&mut comp.members, &mut members);
        std::mem::swap(&mut comp.csr.offsets, &mut csr.offsets);
        std::mem::swap(&mut comp.csr.pairs, &mut csr.pairs);
        for &c in ids {
            if c != into {
                self.release(c);
            }
        }
        (self.merged, self.spare) = (members, csr);
        into
    }

    /// Take `conn`'s departed flow, which crossed `path`, out of its
    /// component. Unless a local certificate shows that the component is
    /// still connected, a search re-derives its parts; returns whether
    /// one ran.
    fn leave(
        &mut self,
        conns: &[FluidConn],
        caps: &[f64],
        conn: usize,
        path: &[(usize, f64)],
    ) -> bool {
        let c = self.link_comp[path[0].0];
        let comp = &mut self.comps[c as usize];
        let mut kept = [0; MAX_HOPS];
        let mut n = 0;
        for &(l, _) in path {
            let lu = &mut self.link_users[l];
            let i = lu.binary_search(&conn).expect("a user of its links");
            lu.remove(i);
            if lu.is_empty() {
                self.link_comp[l] = NONE;
                comp.dead += 1;
            } else {
                kept[n] = l;
                n += 1;
            }
        }
        let at = comp.members.binary_search(&conn).expect("a member");
        comp.members.remove(at);
        comp.csr.remove_flow(at);
        if comp.members.is_empty() {
            self.release(c);
            return false;
        }
        let searched = !self.stays_whole(conns, &kept[..n]);
        if searched {
            self.split(conns, caps, c);
        }
        let comp = &self.comps[c as usize];
        if 2 * comp.dead > comp.links.len() {
            // Dead slots outnumber live ones: refill, so a component's
            // problem stays within twice its live links.
            let mut members = std::mem::take(&mut self.merged);
            members.clone_from(&comp.members);
            self.refill(conns, caps, c, &members);
            self.merged = members;
        }
        searched
    }

    /// The certificate that a departure left its component connected:
    /// every other link of the departed flow that still has users has a
    /// user crossing the busiest one (the hub). Each remaining flow was
    /// connected to the departed one through one of these links, so if
    /// they are all connected to the hub, so is every remaining flow.
    fn stays_whole(&self, conns: &[FluidConn], kept: &[usize]) -> bool {
        let Some(&hub) = kept.iter().max_by_key(|&&l| self.link_users[l].len()) else {
            return true;
        };
        kept.iter().all(|&l| {
            l == hub
                || self.link_users[l]
                    .iter()
                    .any(|&u| flow_of(conns, u).path().iter().any(|&(l2, _)| l2 == hub))
        })
    }

    /// Start a new split search: every mark becomes stale at once.
    fn begin_search(&mut self) {
        self.mark = self.mark.wrapping_add(1);
        if self.mark == 0 {
            self.conn_mark.fill(0);
            self.link_mark.fill(0);
            self.mark = 1;
        }
    }

    /// Re-derive by search the parts of component `c`, which a departure
    /// may have split. The largest part keeps `c`, compacted in place;
    /// every other part is filled into a component of its own.
    fn split(&mut self, conns: &[FluidConn], caps: &[f64], c: u32) {
        self.begin_search();
        let mut parts = std::mem::take(&mut self.parts);
        parts.clear();
        self.part_ends.clear();
        for &m in &self.comps[c as usize].members {
            if self.conn_mark[m] == self.mark {
                continue;
            }
            self.conn_mark[m] = self.mark;
            self.stack.push(m);
            while let Some(ci) = self.stack.pop() {
                parts.push(ci);
                for &(l, _) in flow_of(conns, ci).path() {
                    if self.link_mark[l] == self.mark {
                        continue;
                    }
                    self.link_mark[l] = self.mark;
                    for &u in &self.link_users[l] {
                        if self.conn_mark[u] != self.mark {
                            self.conn_mark[u] = self.mark;
                            self.stack.push(u);
                        }
                    }
                }
            }
            self.part_ends.push(parts.len());
        }
        if self.part_ends.len() > 1 {
            let (mut largest, mut most, mut start) = (0, 0, 0);
            for (p, &end) in self.part_ends.iter().enumerate() {
                if end - start > most {
                    (largest, most) = (p, end - start);
                }
                start = end;
            }
            start = 0;
            for p in 0..self.part_ends.len() {
                let end = self.part_ends[p];
                if p != largest {
                    let part = &mut parts[start..end];
                    part.sort_unstable();
                    let into = self.alloc();
                    self.refill(conns, caps, into, part);
                    // Every link of the part had a live slot in `c`.
                    let moved = self.comps[into as usize].links.len();
                    self.comps[c as usize].dead += moved;
                }
                start = end;
            }
            self.drop_moved(c);
        }
        self.parts = parts;
    }

    /// Drop from component `c` the members whose links have moved to
    /// another component, keeping the rest (and their slots) in order.
    fn drop_moved(&mut self, c: u32) {
        let comp = &mut self.comps[c as usize];
        let Csr { offsets, pairs, .. } = &mut comp.csr;
        let (mut kept, mut end, mut start) = (0, 0, 0);
        for f in 0..comp.members.len() {
            let next = offsets[f + 1];
            if self.link_comp[comp.links[pairs[start].0]] == c {
                comp.members[kept] = comp.members[f];
                pairs.copy_within(start..next, end);
                end += next - start;
                kept += 1;
                offsets[kept] = end;
            }
            start = next;
        }
        comp.members.truncate(kept);
        offsets.truncate(kept + 1);
        pairs.truncate(end);
    }

    /// Build into `p` the problem of the union of components `ids`,
    /// members merged in ascending order (into `members`), over their
    /// slots laid end to end in `ids` order: what a search from a seed
    /// whose links lie in several components reaches.
    fn union(
        &self,
        ids: &[u32],
        order: &mut Vec<(usize, usize, usize)>,
        members: &mut Vec<usize>,
        p: &mut Csr,
    ) {
        order.clear();
        p.clear();
        let mut base = [0; MAX_HOPS];
        for (k, &c) in ids.iter().enumerate() {
            let comp = &self.comps[c as usize];
            base[k] = p.caps.len();
            p.caps.extend_from_slice(&comp.csr.caps);
            order.extend(comp.members.iter().enumerate().map(|(f, &m)| (m, k, f)));
        }
        order.sort_unstable();
        members.clear();
        for &(m, k, f) in order.iter() {
            members.push(m);
            let path = self.comps[ids[k] as usize].csr.path(f);
            p.pairs.extend(path.iter().map(|&(l, w)| (base[k] + l, w)));
            p.offsets.push(p.pairs.len());
        }
    }

    /// The problem `p` solved for the components `ids` (one, or the union
    /// built by [`Sharing::union`]), in global link ids.
    #[cfg(test)]
    fn problem(&self, ids: &[u32], members: &[usize], p: &Csr) -> Problem {
        let links: Vec<usize> = ids
            .iter()
            .flat_map(|&c| self.comps[c as usize].links.iter().copied())
            .collect();
        let paths = (0..members.len())
            .map(|f| p.path(f).iter().map(|&(k, w)| (links[k], w)).collect())
            .collect();
        (members.to_vec(), paths)
    }
}

/// Reallocation scratch, reused across calls so a reallocation allocates
/// nothing.
#[derive(Default)]
struct Scratch {
    /// Stamp of the current reallocation: a component was solved by it
    /// iff its `solved` equals it.
    stamp: u32,
    /// A seed whose links lie in several components solves their union,
    /// built here.
    order: Vec<(usize, usize, usize)>,
    members: Vec<usize>,
    union: Csr,
    fill: Filler,
}

/// One solved problem: its connections and, per connection, its
/// `(global link, weight)` pairs in path order.
#[cfg(test)]
type Problem = (Vec<usize>, Vec<Vec<(usize, f64)>>);

/// How much work the fluid core has done: counted as it goes, read by
/// tests and benchmarks, never by the simulation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FluidWork {
    /// `reallocate` calls: one per wake batch.
    pub reallocations: u64,
    /// Max-min problems solved: at most one per component a batch touched.
    pub solves: u64,
    /// Flows in those problems, summed.
    pub flows_solved: u64,
    /// Departures whose component the certificate could not keep whole,
    /// so a search re-derived its parts.
    pub fallback_searches: u64,
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
pub struct FluidCore {
    conns: Vec<FluidConn>,
    /// Link capacities: stage links at 1.0 (weights are ns/byte), fabric
    /// links in bytes/ns.
    caps: Vec<f64>,
    /// The active flows' sharing graph in components, patched by every
    /// flow that starts or ends, so a state change never scans flows
    /// that share nothing with it.
    graph: Sharing,
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
    work: FluidWork,
    /// Every problem solved, for the differential test.
    #[cfg(test)]
    solved: Vec<Problem>,
}

impl FluidCore {
    /// The fluid core of the connections in `reg`, whose halves live on
    /// the node cores of `core_of_node`, each with the faults the net
    /// switch compiled for it.
    pub(crate) fn new(
        reg: &Registry,
        core_of_node: &[ProcessId],
        faults: Vec<Option<ConnFaults>>,
    ) -> FluidCore {
        let topo = reg.topology;
        let n = core_of_node.len();
        let mut caps = vec![1.0; 3 * n];
        if let Topology::Racks {
            racks,
            per_rack,
            oversub,
        } = topo
        {
            let up = per_rack as f64 * NODE_WIRE_BYTES_PER_NS / oversub;
            for _ in 0..racks {
                caps.push(up); // uplink
                caps.push(up); // downlink
            }
        }
        let conns = reg
            .conns
            .iter()
            .zip(faults)
            .map(|(spec, faults)| {
                let (src, dst) = (spec.src.node.0, spec.dst.node.0);
                let fabric = match topo {
                    Topology::Racks { per_rack, .. } if topo.inter_rack(src, dst) => Some((
                        3 * n + 2 * (src / per_rack),
                        3 * n + 2 * (dst / per_rack) + 1,
                    )),
                    _ => None,
                };
                FluidConn {
                    tx_core: core_of_node[src],
                    rx_core: core_of_node[dst],
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
        let mut core = FluidCore {
            conns,
            caps,
            graph: Sharing::default(),
            due: DueHeap::default(),
            wakes: VecDeque::new(),
            batch: Vec::new(),
            scratch: Scratch::default(),
            work: FluidWork::default(),
            #[cfg(test)]
            solved: Vec::new(),
        };
        core.size_tables();
        core
    }

    /// The work done so far.
    pub fn work(&self) -> FluidWork {
        self.work
    }

    /// Size the per-link and per-connection tables once `caps` and
    /// `conns` are in place.
    fn size_tables(&mut self) {
        self.graph = Sharing::new(self.caps.len(), self.conns.len());
        self.due = DueHeap::new(self.conns.len());
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

    /// Pop the connection's next message to start, if any; messages
    /// landing after the endpoint crash fail over instead.
    fn next_queued(&mut self, ctx: &mut Ctx<'_>, conn: usize) -> Option<QueuedMsg> {
        loop {
            let c = &mut self.conns[conn];
            let q = c.queue.pop_front()?;
            if c.cut_at.is_some_and(|t| ctx.now() >= t) {
                let (msg, bytes) = (q.msg, q.bytes);
                self.fail(ctx, conn, msg, bytes, StreamErrorKind::PeerDead);
                continue;
            }
            return Some(q);
        }
    }

    /// Promote the next queued message (if any) to the idle connection's
    /// active flow, unrated until the next reallocation. Returns true when
    /// a flow was started (the caller makes the connection a seed of the
    /// wake).
    fn start_next(&mut self, ctx: &mut Ctx<'_>, conn: usize) -> bool {
        debug_assert!(
            self.conns[conn].active.is_none(),
            "starting over an active flow"
        );
        let Some(q) = self.next_queued(ctx, conn) else {
            return false;
        };
        self.activate(ctx.now(), conn, q);
        true
    }

    /// The flow of message `q` on `conn`, unrated.
    fn new_flow(&self, now: SimTime, conn: usize, q: QueuedMsg) -> ActiveFlow {
        let (path, hops) = self.flow_path(conn, q.bytes);
        ActiveFlow {
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
        }
    }

    /// Make `q` the connection's active flow, unrated until the next
    /// reallocation, and add it to the sharing graph.
    fn activate(&mut self, now: SimTime, conn: usize, q: QueuedMsg) {
        self.conns[conn].active = Some(self.new_flow(now, conn, q));
        self.graph.join(&self.conns, &self.caps, conn);
    }

    /// Finish `ended`, the flow just taken from `conn`, in the sharing
    /// graph: start `next` in its place if there is one, else take the
    /// connection out. A flow started in place crosses the same links in
    /// the same order, so its component only takes its new weights.
    fn end_flow(&mut self, now: SimTime, conn: usize, ended: &ActiveFlow, next: Option<QueuedMsg>) {
        match next {
            Some(q) => {
                self.conns[conn].active = Some(self.new_flow(now, conn, q));
                self.graph.renew(&self.conns, conn);
            }
            None => {
                if self
                    .graph
                    .leave(&self.conns, &self.caps, conn, ended.path())
                {
                    self.work.fallback_searches += 1;
                }
            }
        }
    }

    /// Recompute max-min fair shares for the connected components of the
    /// flow–link sharing graph around the links of the `seeds`, and
    /// reschedule the completion of every flow whose rate changed. Each
    /// component is solved once, with the first seed whose links reach
    /// it; a seed whose links lie in several unsolved components solves
    /// their union, as one search from it would reach them. Components
    /// are kept between calls with their members ascending and their
    /// problem built in that order, so a solve hands the stored problem
    /// to the kernel as it is: no search, sort or build. Flows outside
    /// these components share no link (transitively) with the changed
    /// connections, so their rates — and their scheduled completions —
    /// stand.
    fn reallocate(&mut self, now: SimTime, seeds: &[usize]) {
        let FluidCore {
            conns,
            graph,
            scratch: sc,
            due,
            work,
            ..
        } = self;
        work.reallocations += 1;
        sc.stamp = sc.stamp.wrapping_add(1);
        if sc.stamp == 0 {
            for comp in &mut graph.comps {
                comp.solved = 0;
            }
            sc.stamp = 1;
        }
        for &seed in seeds {
            let mut found = [NONE; MAX_HOPS];
            let mut n = 0;
            for l in conns[seed].links() {
                let c = graph.link_comp[l];
                if c != NONE && graph.comps[c as usize].solved != sc.stamp {
                    graph.comps[c as usize].solved = sc.stamp;
                    found[n] = c;
                    n += 1;
                }
            }
            let (members, problem) = match n {
                0 => continue,
                1 => {
                    let comp = &graph.comps[found[0] as usize];
                    (&comp.members, &comp.csr)
                }
                _ => {
                    let (order, members) = (&mut sc.order, &mut sc.members);
                    graph.union(&found[..n], order, members, &mut sc.union);
                    (&sc.members, &sc.union)
                }
            };
            sc.fill.run(problem);
            work.solves += 1;
            work.flows_solved += members.len() as u64;
            #[cfg(test)]
            self.solved
                .push(graph.problem(&found[..n], members, problem));
            for (&ci, &rate) in members.iter().zip(&sc.fill.rate) {
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
        let mut f = self.conns[conn]
            .active
            .take()
            .expect("due flows are active");
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
                    meta: MsgMeta {
                        bytes: f.bytes,
                        sent_at: f.sent_at,
                        payload,
                    },
                }),
            );
        }
        let next = self.next_queued(ctx, conn);
        self.end_flow(ctx.now(), conn, &f, next);
    }
}

impl Process for FluidCore {
    fn name(&self) -> String {
        "net-fluid".to_string()
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

    /// End `c`'s active flow with nothing to start in its place.
    fn deactivate(core: &mut FluidCore, c: usize) {
        let f = core.conns[c].active.take().expect("an active flow");
        core.end_flow(SimTime::ZERO, c, &f, None);
    }

    /// A fluid core with no kernel around it: `nodes` nodes in racks of
    /// `per_rack` behind fabric links of capacity `up`, and one kernel-TCP
    /// connection per `(src, dst)` pair, wired as `FluidCore::new` wires them.
    fn bare_core(nodes: usize, per_rack: usize, up: f64, pairs: &[(usize, usize)]) -> FluidCore {
        use crate::params::{PathCosts, TransportKind};
        let mut core = FluidCore::new(&Registry::default(), &[], Vec::new());
        core.caps = vec![1.0; 3 * nodes];
        core.caps.resize(3 * nodes + 2 * (nodes / per_rack), up);
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
        core.size_tables();
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
            deactivate(core, c);
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
                    deactivate(core, c);
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

    /// The search-and-build every reallocation ran before components were
    /// kept, over a sharing graph of its own built from the active flows:
    /// one stamp for the call, each seed's links marked and searched, the
    /// component sorted, built into a problem over links numbered in mark
    /// order, solved, and the rates applied as `reallocate` applies them.
    /// Returns the problems in solve order.
    fn search_reallocate(core: &mut FluidCore, now: SimTime, seeds: &[usize]) -> Vec<Problem> {
        let mut users = vec![Vec::new(); core.caps.len()];
        for (c, conn) in core.conns.iter().enumerate() {
            for &(l, _) in conn.active.iter().flat_map(|f| f.path()) {
                users[l].push(c);
            }
        }
        let mut conn_seen = vec![false; core.conns.len()];
        let mut link_seen = vec![false; core.caps.len()];
        let mut problems = Vec::new();
        for &seed in seeds {
            let (mut pending, mut links, mut comp) = (Vec::new(), Vec::new(), Vec::new());
            let mut mark = |l: usize, pending: &mut Vec<usize>, links: &mut Vec<usize>| {
                if !link_seen[l] {
                    link_seen[l] = true;
                    links.push(l);
                    pending.push(l);
                }
            };
            for l in core.conns[seed].links() {
                mark(l, &mut pending, &mut links);
            }
            while let Some(l) = pending.pop() {
                for &ci in &users[l] {
                    if !conn_seen[ci] {
                        conn_seen[ci] = true;
                        comp.push(ci);
                        for &(l2, _) in flow_of(&core.conns, ci).path() {
                            mark(l2, &mut pending, &mut links);
                        }
                    }
                }
            }
            if comp.is_empty() {
                continue;
            }
            comp.sort_unstable();
            let mut p = Csr::default();
            p.caps.extend(links.iter().map(|&l| core.caps[l]));
            for &ci in &comp {
                let local =
                    |&(l, w): &(usize, f64)| (links.iter().position(|&x| x == l).unwrap(), w);
                let path: Vec<_> = flow_of(&core.conns, ci).path().iter().map(local).collect();
                p.push_flow(&path);
            }
            let mut fill = Filler::default();
            fill.run(&p);
            for (&ci, &rate) in comp.iter().zip(&fill.rate) {
                let f = core.conns[ci].active.as_mut().unwrap();
                FluidCore::advance_flow(f, now);
                if rate != f.rate {
                    f.rate = rate;
                    core.due
                        .schedule(ci, now + Dur::nanos((f.remaining / f.rate).ceil() as u64));
                }
            }
            let paths = (0..comp.len())
                .map(|f| p.path(f).iter().map(|&(l, w)| (links[l], w)).collect())
                .collect();
            problems.push((comp, paths));
        }
        problems
    }

    /// Check the kept components against the active flows: each live
    /// component holds its members ascending, their paths in that order
    /// over its slots, and is connected; every active flow is in the
    /// component of each of its links; dead slots are counted; emptied
    /// components hold nothing. Returns the number of live components.
    fn assert_graph_consistent(core: &FluidCore, what: &str) -> usize {
        let g = &core.graph;
        let mut member_of = vec![None; core.conns.len()];
        let mut live = 0;
        for (c, comp) in g.comps.iter().enumerate() {
            if g.free.contains(&(c as u32)) {
                assert!(
                    comp.members.is_empty() && comp.links.is_empty(),
                    "{what}: {c} freed"
                );
                continue;
            }
            live += 1;
            assert!(
                !comp.members.is_empty(),
                "{what}: component {c} is empty but not freed"
            );
            assert!(
                comp.members.windows(2).all(|w| w[0] < w[1]),
                "{what}: {c} unsorted"
            );
            assert_eq!(
                comp.csr.offsets.len(),
                comp.members.len() + 1,
                "{what}: {c}"
            );
            assert_eq!(comp.csr.caps.len(), comp.links.len(), "{what}: {c}'s slots");
            for (f, &m) in comp.members.iter().enumerate() {
                assert_eq!(
                    member_of[m].replace(c),
                    None,
                    "{what}: {m} in two components"
                );
                let stored: Vec<_> = comp
                    .csr
                    .path(f)
                    .iter()
                    .map(|&(k, w)| (comp.links[k], w))
                    .collect();
                assert_eq!(
                    stored,
                    flow_of(&core.conns, m).path(),
                    "{what}: {m}'s stored path"
                );
                for &(l, _) in flow_of(&core.conns, m).path() {
                    assert_eq!(g.link_comp[l], c as u32, "{what}: link {l} of {m}");
                    assert_eq!(comp.links[g.link_slot[l]], l, "{what}: slot of link {l}");
                }
            }
            let dead = (0..comp.links.len())
                .filter(|&k| {
                    let l = comp.links[k];
                    g.link_comp[l] != c as u32 || g.link_slot[l] != k
                })
                .count();
            assert_eq!(comp.dead, dead, "{what}: {c}'s dead slots");
            assert!(2 * dead <= comp.links.len(), "{what}: {c} not refilled");
            // Connected: a search from its first member reaches them all.
            let mut seen = vec![comp.members[0]];
            let mut stack = vec![comp.members[0]];
            while let Some(m) = stack.pop() {
                for &(l, _) in flow_of(&core.conns, m).path() {
                    for &u in &g.link_users[l] {
                        if !seen.contains(&u) {
                            seen.push(u);
                            stack.push(u);
                        }
                    }
                }
            }
            seen.sort_unstable();
            assert_eq!(seen, comp.members, "{what}: component {c} is not connected");
        }
        for (m, conn) in core.conns.iter().enumerate() {
            assert_eq!(
                conn.active.is_some(),
                member_of[m].is_some(),
                "{what}: conn {m}"
            );
        }
        for (l, users) in g.link_users.iter().enumerate() {
            assert_eq!(users.is_empty(), g.link_comp[l] == NONE, "{what}: link {l}");
        }
        live
    }

    /// One seeded churn step at `now`: the flows due complete, and each
    /// completed connection starts another message half the time; idle
    /// connections start one with probability `start`; message sizes are
    /// drawn from 500 B to 256 KiB. Returns the step's seeds in a
    /// scrambled order, with an extra, possibly idle, connection.
    fn random_step(
        core: &mut FluidCore,
        rng: &mut rand::rngs::SmallRng,
        now: SimTime,
        start: f64,
    ) -> Vec<usize> {
        use rand::Rng;
        let mut seeds = Vec::new();
        let msg = |rng: &mut rand::rngs::SmallRng| QueuedMsg {
            msg: 0,
            bytes: 500 + below(rng, 262_144 - 500),
            sent_at: now,
            payload: Message::new(()),
            extra: Dur::ZERO,
        };
        while let Some((_, c)) = core.due.pop_due(now) {
            // Half the time the connection starts its next message at
            // once, in place of the one that ended.
            let f = core.conns[c].active.take().expect("due flows are active");
            let next = rng.gen_bool(0.5).then(|| msg(rng));
            core.end_flow(now, c, &f, next);
            seeds.push(c);
        }
        for c in 0..core.conns.len() {
            if core.conns[c].active.is_none() && rng.gen_bool(start) {
                let q = msg(rng);
                core.activate(now, c, q);
                seeds.push(c);
            }
        }
        seeds.push(below(rng, core.conns.len() as u64) as usize);
        for i in (1..seeds.len()).rev() {
            seeds.swap(i, below(rng, i as u64 + 1) as usize);
        }
        seeds
    }

    /// Drive a core that keeps its components and one that searches from
    /// scratch through the same seeded churn; every solve must get the
    /// same problem and every allocation must be bit-identical. Returns
    /// the kept core's work and the most live components seen.
    fn kept_vs_searched(
        nodes: usize,
        per_rack: usize,
        pairs: &[(usize, usize)],
        seed: u64,
        steps: usize,
    ) -> (FluidWork, usize) {
        use rand::SeedableRng;
        let mut kept = bare_core(nodes, per_rack, 0.05, pairs);
        let mut searched = bare_core(nodes, per_rack, 0.05, pairs);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let (mut now, mut most) = (SimTime::ZERO, 0);
        for step in 0..steps {
            let what = format!("seed {seed}, step {step}");
            let start = if step % 16 < 2 { 0.6 } else { 0.05 };
            let seeds = random_step(&mut kept, &mut rng.clone(), now, start);
            assert_eq!(
                random_step(&mut searched, &mut rng, now, start),
                seeds,
                "{what}"
            );
            most = most.max(assert_graph_consistent(&kept, &what));
            kept.reallocate(now, &seeds);
            let want = search_reallocate(&mut searched, now, &seeds);
            assert_eq!(
                std::mem::take(&mut kept.solved),
                want,
                "{what}: solved problems"
            );
            assert_eq!(
                allocation(&kept),
                allocation(&searched),
                "{what}: allocation"
            );
            assert_graph_consistent(&kept, &what);
            now = match kept.due.first_due() {
                Some((t, _)) => t,
                None => now + Dur::nanos(1_000),
            };
        }
        (kept.work(), most)
    }

    #[test]
    fn kept_components_solve_what_a_search_would_build() {
        use rand::SeedableRng;
        let (mut fallbacks, mut most) = (0, 0);
        for seed in 0..6u64 {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0xC0FFEE);
            let mut pairs = |nodes: usize, conns: usize| -> Vec<(usize, usize)> {
                (0..conns)
                    .map(|_| {
                        let n = nodes as u64;
                        let src = below(&mut rng, n);
                        (
                            src as usize,
                            ((src + 1 + below(&mut rng, n - 1)) % n) as usize,
                        )
                    })
                    .collect()
            };
            // A flat cluster: flows share host links only, so components
            // are small and departures often split them.
            let (work, live) = kept_vs_searched(12, 12, &pairs(12, 20), seed, 400);
            fallbacks += work.fallback_searches;
            most = most.max(live);
            // Racks of 4 mixing intra-rack and cross-rack connections.
            let (work, live) = kept_vs_searched(16, 4, &pairs(16, 40), seed, 400);
            fallbacks += work.fallback_searches;
            most = most.max(live);
            assert!(
                work.solves > 0 && work.flows_solved > work.solves,
                "seed {seed}: {work:?}"
            );
        }
        assert!(fallbacks > 0, "no departure split a component");
        assert!(most > 1, "never more than one component");
    }

    #[test]
    fn a_departing_bridge_splits_its_component_and_an_arrival_merges_two() {
        // Conns 0 (0 -> 1) and 1 (2 -> 3) share nothing; conn 2 (0 -> 3)
        // shares host 0's send links with conn 0 and host 3's receive
        // link with conn 1.
        let pairs = [(0, 1), (2, 3), (0, 3)];
        let mut kept = bare_core(4, 4, 1.0, &pairs);
        let mut searched = bare_core(4, 4, 1.0, &pairs);
        let q = |bytes| QueuedMsg {
            msg: 0,
            bytes,
            sent_at: SimTime::ZERO,
            payload: Message::new(()),
            extra: Dur::ZERO,
        };
        // Complete `done` and start `act` on both cores, then reallocate.
        let both = |kept: &mut FluidCore,
                    searched: &mut FluidCore,
                    act: &[(usize, u64)],
                    done: &[usize],
                    now: SimTime|
         -> Vec<Problem> {
            let mut seeds = done.to_vec();
            for core in [&mut *kept, &mut *searched] {
                for &c in done {
                    deactivate(core, c);
                }
                for &(c, bytes) in act {
                    core.activate(now, c, q(bytes));
                }
            }
            seeds.extend(act.iter().map(|&(c, _)| c));
            kept.reallocate(now, &seeds);
            let want = search_reallocate(searched, now, &seeds);
            assert_eq!(std::mem::take(&mut kept.solved), want, "solved problems");
            assert_eq!(allocation(kept), allocation(searched), "allocation");
            want
        };
        let (k, s) = (&mut kept, &mut searched);
        both(k, s, &[(0, 1 << 20), (1, 1 << 20)], &[], SimTime::ZERO);
        assert_eq!(assert_graph_consistent(&kept, "two flows"), 2);
        // The bridge arrives and merges the two components.
        let merged = both(&mut kept, &mut searched, &[(2, 1_000)], &[], SimTime::ZERO);
        assert_eq!(merged[0].0, vec![0, 1, 2]);
        assert_eq!(assert_graph_consistent(&kept, "bridged"), 1);
        assert_eq!(kept.work().fallback_searches, 0);
        // The bridge finishes first; its departure splits the component,
        // which the certificate cannot vouch for, so a search runs. Its
        // seed's links lie in both parts: one solve covers their union.
        let (now, first) = kept.due.first_due().expect("scheduled");
        assert_eq!(first, 2, "the small bridge finishes first");
        kept.due.pop_due(now);
        searched.due.pop_due(now);
        let split = both(&mut kept, &mut searched, &[], &[2], now);
        assert_eq!(kept.work().fallback_searches, 1);
        assert_eq!(assert_graph_consistent(&kept, "split"), 2);
        assert_eq!(split.len(), 1);
        assert_eq!(split[0].0, vec![0, 1]);
    }

    #[test]
    fn a_component_solves_alike_however_it_is_reached() {
        // Conns 0-3 run from rack 0's hosts 0-3 to rack 2's hosts 8-11,
        // all across rack 0's uplink; conn 4 runs inside rack 0 from host
        // 2 to host 3, joining the component through conn 2's host. The
        // sizes differ, so the uplink weights differ: summed in another
        // order, their total moves.
        let pairs = [(0, 8), (1, 9), (2, 10), (3, 11), (2, 3)];
        let sizes = [1_500, 40_000, 9_000, 200_000, 3_000];
        let core = || bare_core(16, 4, 0.01, &pairs);
        let (mut ascending, mut scrambled) = (core(), core());
        let q = |c: usize| QueuedMsg {
            msg: 0,
            bytes: sizes[c],
            sent_at: SimTime::ZERO,
            payload: Message::new(()),
            extra: Dur::ZERO,
        };
        // A search from conn 4 finds conn 2 through host 2 and then the
        // rest through the uplink; a search from conn 0 finds them in order.
        let order = [4, 2, 0, 1, 3];
        for c in 0..pairs.len() {
            ascending.activate(SimTime::ZERO, c, q(c));
        }
        for c in order {
            scrambled.activate(SimTime::ZERO, c, q(c));
        }
        let up = |core: &FluidCore, c: usize| flow_of(&core.conns, c).path()[3].1;
        let sum = |core: &FluidCore, cs: &[usize]| cs.iter().fold(0.0, |s, &c| s + up(core, c));
        assert_ne!(
            sum(&ascending, &[0, 1, 2, 3]).to_bits(),
            sum(&ascending, &[2, 0, 1, 3]).to_bits(),
            "the uplink weights must show their summation order"
        );
        ascending.reallocate(SimTime::ZERO, &[0]);
        scrambled.reallocate(SimTime::ZERO, &[4, 2]);
        assert_eq!(ascending.work().solves, 1);
        assert_eq!(scrambled.work().solves, 1);
        assert_eq!(allocation(&scrambled), allocation(&ascending));
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
