//! The filter runtime: one simulation process per transparent copy.
//!
//! A [`FilterProcess`] owns a user [`FilterLogic`], an inbox of arrived
//! buffers, per-output-port schedulers and queues, and end-of-work
//! bookkeeping. It serializes its own processing (a DataCutter filter is a
//! single thread) while co-located copies contend for the node's CPU
//! resource, and it implements the demand-driven acknowledgment protocol:
//! an ack is sent on the reverse connection when a buffer *starts*
//! processing, exactly as in DataCutter §4.1.

use crate::buffer::{DataBuffer, StreamMsg, CONTROL_BYTES};
use crate::logic::{Action, FilterCtx, FilterLogic, SpeedModel};
use crate::sched::{Policy, Scheduler};
use hpsock_net::{ConnId, Delivery, Network, NodeId, RecoveryCfg, StreamError, StreamErrorKind};
use hpsock_sim::{
    Ctx, FxHashMap, FxHashSet, Message, ProbeEvent, Process, ProcessId, ResourceId, SimTime,
};
use std::any::Any;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Driver → source-filter message: start a unit of work.
pub struct UowStartMsg {
    /// Unit-of-work id.
    pub uow: u32,
    /// Opaque descriptor (e.g. a query).
    pub desc: Arc<dyn Any + Send + Sync>,
}

/// Driver → filter message: tear down (invokes `FilterLogic::finalize`).
pub struct Shutdown;

/// How a connection's deliveries are interpreted by this copy.
#[derive(Debug, Clone, Copy)]
pub enum Route {
    /// Data/EOW from producer copy `producer` on input port `port`.
    DataIn {
        /// Input port index.
        port: usize,
        /// Producer copy index on that stream.
        producer: usize,
    },
    /// Demand-driven ack from consumer copy `consumer` on output `port`.
    AckIn {
        /// Output port index.
        port: usize,
        /// Consumer copy index on that stream.
        consumer: usize,
    },
}

/// Wiring of one input port.
#[derive(Debug, Clone)]
pub struct InputWiring {
    /// Scheduling policy of the stream (determines whether acks are sent).
    pub policy: Policy,
    /// Number of producer copies feeding this port.
    pub producers: usize,
    /// Reverse (ack) connection to each producer copy.
    pub ack_conns: Vec<ConnId>,
}

/// Wiring of one output port.
#[derive(Debug, Clone)]
pub struct OutputWiring {
    /// Scheduling policy for distribution among consumer copies.
    pub policy: Policy,
    /// Forward (data) connection to each consumer copy.
    pub data_conns: Vec<ConnId>,
}

/// Everything a copy needs to run, filled in by the group builder after
/// all processes and connections exist.
pub struct CopyWiring {
    /// Node this copy is placed on.
    pub node: NodeId,
    /// The node's application CPU resource.
    pub cpu: ResourceId,
    /// Input ports in stream-declaration order.
    pub inputs: Vec<InputWiring>,
    /// Output ports in stream-declaration order.
    pub outputs: Vec<OutputWiring>,
    /// Delivery classification for every connection touching this copy.
    pub routes: FxHashMap<ConnId, Route>,
    /// Compute speed model for this copy.
    pub speed: SpeedModel,
    /// Record per-buffer ack round-trips (Figure 10 instrumentation).
    pub ack_log: bool,
    /// Recovery parameters when the cluster carries a fault plan; `None`
    /// keeps every recovery path (retention, retries, failover) inert.
    pub recovery: Option<RecoveryCfg>,
    /// Scheduled fail-stop time of this copy's node under the fault plan:
    /// from then on the copy plays dead and drops every message.
    pub crash_at: Option<SimTime>,
}

/// One matched send→ack round-trip (demand-driven instrumentation).
#[derive(Debug, Clone, Copy)]
pub struct AckRecord {
    /// Output port.
    pub port: usize,
    /// Consumer copy index.
    pub consumer: usize,
    /// When the buffer was sent.
    pub sent_at: SimTime,
    /// When its processing-start ack arrived back.
    pub acked_at: SimTime,
}

/// Counters collected by each copy.
#[derive(Debug, Clone, Default)]
pub struct FilterStats {
    /// Buffers processed from input streams.
    pub buffers_in: u64,
    /// Bytes processed from input streams.
    pub bytes_in: u64,
    /// Buffers emitted on output streams.
    pub buffers_out: u64,
    /// `(uow, time)` each unit of work completed at this copy.
    pub uow_ends: Vec<(u32, SimTime)>,
    /// Stream errors reported by the transport (lost or dead-peer sends).
    pub stream_errors: u64,
    /// Lost messages re-sent on the same connection.
    pub retries: u64,
    /// Connections that recovered (a post-retry delivery was acknowledged).
    pub streams_recovered: u64,
    /// Consumer copies failed over away from permanently.
    pub consumers_failed: u64,
    /// Buffers dropped because every consumer copy on their port was dead.
    pub buffers_failed: u64,
    /// Deliveries that raced a torn-down route and were discarded.
    pub stale_deliveries: u64,
}

/// A sent stream message retained until acknowledged, for retry/replay.
struct Retained {
    msg: StreamMsg,
    bytes: u64,
    attempts: u32,
}

/// Self-message: re-send a lost message after its backoff delay.
struct RetryMsg {
    conn: ConnId,
    msg_id: u64,
}

enum WorkItem {
    Buffer {
        port: usize,
        producer: usize,
        buf: DataBuffer,
        conn: ConnId,
        msg_id: u64,
    },
    Eow {
        port: usize,
        uow: u32,
        conn: ConnId,
        msg_id: u64,
    },
    UowStart {
        uow: u32,
        desc: Arc<dyn Any + Send + Sync>,
    },
}

enum OutItem {
    Buf(DataBuffer),
    Eow(u32),
}

struct ComputeDone {
    outputs: Vec<(usize, DataBuffer)>,
    flush_eow: Option<u32>,
    continue_uow: Option<u32>,
    /// Reverse connection to notify with a completion `Done` message
    /// (RoundRobinAcked instrumentation).
    done_notify: Option<ConnId>,
}

/// The runtime actor for one transparent copy of a filter.
pub struct FilterProcess {
    name: String,
    copy: usize,
    copies: usize,
    /// Probe track / metric prefix: `dc.{name}[{copy}]`.
    track: String,
    /// Monotonic span id for probe compute spans.
    next_span: u64,
    logic: Box<dyn FilterLogic>,
    net: Network,
    wiring_slot: Arc<Mutex<Option<CopyWiring>>>,
    wiring: Option<CopyWiring>,
    inbox: VecDeque<WorkItem>,
    busy: bool,
    out_queues: Vec<VecDeque<OutItem>>,
    scheds: Vec<Scheduler>,
    /// Send timestamps per `[port][consumer]` for ack matching (FIFO).
    sent_times: Vec<Vec<VecDeque<SimTime>>>,
    /// Send timestamps per `[port][consumer]` for completion matching.
    done_times: Vec<Vec<VecDeque<SimTime>>>,
    /// EOW markers seen per `(uow, port)`.
    eow_seen: FxHashMap<(u32, usize), usize>,
    /// Ports fully ended per uow.
    ports_done: FxHashMap<u32, usize>,
    /// `(port, consumer)` for every outbound data connection, for failover.
    out_index: FxHashMap<ConnId, (usize, usize)>,
    /// Unacknowledged sends retained for retry/replay (recovery mode only).
    retained: FxHashMap<ConnId, FxHashMap<u64, Retained>>,
    /// Connections failed over away from; late events on them are ignored.
    dead_conns: FxHashSet<ConnId>,
    /// Connections with a retry in flight, awaiting a post-retry ack.
    recovering: FxHashSet<ConnId>,
    /// Collected statistics.
    pub stats: FilterStats,
    /// Ack (processing-start) round-trip log, if enabled.
    pub ack_log: Vec<AckRecord>,
    /// Completion (processing-end) round-trip log, if enabled
    /// (RoundRobinAcked streams only).
    pub done_log: Vec<AckRecord>,
}

impl FilterProcess {
    /// Construct a copy; wiring arrives later through the shared slot.
    pub fn new(
        name: String,
        copy: usize,
        copies: usize,
        logic: Box<dyn FilterLogic>,
        net: Network,
        wiring_slot: Arc<Mutex<Option<CopyWiring>>>,
    ) -> FilterProcess {
        let track = format!("dc.{name}[{copy}]");
        FilterProcess {
            name,
            copy,
            copies,
            track,
            next_span: 0,
            logic,
            net,
            wiring_slot,
            wiring: None,
            inbox: VecDeque::new(),
            busy: false,
            out_queues: Vec::new(),
            scheds: Vec::new(),
            sent_times: Vec::new(),
            done_times: Vec::new(),
            eow_seen: FxHashMap::default(),
            ports_done: FxHashMap::default(),
            out_index: FxHashMap::default(),
            retained: FxHashMap::default(),
            dead_conns: FxHashSet::default(),
            recovering: FxHashSet::default(),
            stats: FilterStats::default(),
            ack_log: Vec::new(),
            done_log: Vec::new(),
        }
    }

    fn wiring(&self) -> &CopyWiring {
        self.wiring.as_ref().expect("wiring installed at start")
    }

    /// Report the current inbox depth as a probe gauge.
    fn gauge_inbox(&self, ctx: &mut Ctx<'_>) {
        let depth = self.inbox.len() as f64;
        let track = &self.track;
        ctx.probe_emit(|t| ProbeEvent::Gauge {
            name: format!("{track}.inbox"),
            time: t,
            value: depth,
        });
    }

    /// Emit a global `+1` counter probe (fault/recovery bookkeeping).
    fn count_probe(ctx: &mut Ctx<'_>, name: &'static str) {
        ctx.probe_emit(|t| ProbeEvent::Counter {
            name: name.to_string(),
            time: t,
            delta: 1.0,
        });
    }

    /// Send on a stream connection, retaining a copy for retry/replay when
    /// the cluster runs under a fault plan. `Done` completion notices are
    /// best-effort instrumentation and are never retained.
    fn send_stream(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, bytes: u64, msg: StreamMsg) {
        if self.wiring().recovery.is_some() && !matches!(msg, StreamMsg::Done) {
            let msg_id = self.net.send(ctx, conn, bytes, Message::new(msg.clone()));
            self.retained.entry(conn).or_default().insert(
                msg_id,
                Retained {
                    msg,
                    bytes,
                    attempts: 0,
                },
            );
        } else {
            self.net.send(ctx, conn, bytes, Message::new(msg));
        }
    }

    /// Transport-reported send failure: retry with backoff, or fail the
    /// consumer copy over once retries are exhausted or the peer is dead.
    fn on_stream_error(&mut self, ctx: &mut Ctx<'_>, e: StreamError) {
        self.stats.stream_errors += 1;
        Self::count_probe(ctx, "dc.stream.error");
        if self.dead_conns.contains(&e.conn) {
            return;
        }
        let cfg = self.wiring().recovery.unwrap_or_default();
        let attempts = self
            .retained
            .get(&e.conn)
            .and_then(|m| m.get(&e.msg_id))
            .map(|r| r.attempts);
        let can_retry =
            matches!(e.kind, StreamErrorKind::Lost) && attempts.is_some_and(|a| a < cfg.retries);
        if can_retry {
            let attempts = {
                let r = self
                    .retained
                    .get_mut(&e.conn)
                    .and_then(|m| m.get_mut(&e.msg_id))
                    .expect("retained entry checked above");
                r.attempts += 1;
                r.attempts
            };
            // Exponential backoff: backoff * 2^(attempts-1), shift-capped.
            let delay = cfg.backoff.mul_f64((1u64 << (attempts - 1).min(16)) as f64);
            if self.out_index.contains_key(&e.conn) {
                self.recovering.insert(e.conn);
            }
            ctx.send_self_in(
                delay,
                Message::new(RetryMsg {
                    conn: e.conn,
                    msg_id: e.msg_id,
                }),
            );
        } else if self.out_index.contains_key(&e.conn) {
            self.fail_conn(ctx, e.conn);
        } else {
            // A lost control message out of retries (or one that was never
            // retained): give up on it without failing anything over.
            Self::count_probe(ctx, "dc.stream.ack_lost");
        }
    }

    /// Re-send a lost message once its backoff timer fires.
    fn retry_send(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, msg_id: u64) {
        if self.dead_conns.contains(&conn) {
            return;
        }
        let Some(r) = self.retained.get_mut(&conn).and_then(|m| m.remove(&msg_id)) else {
            return;
        };
        self.stats.retries += 1;
        Self::count_probe(ctx, "dc.stream.retry");
        let new_id = self
            .net
            .send(ctx, conn, r.bytes, Message::new(r.msg.clone()));
        self.retained.entry(conn).or_default().insert(new_id, r);
    }

    /// Permanently fail a data-out connection over: mark the consumer copy
    /// dead, write off its window, and replay retained buffers (in send
    /// order) to the surviving copies on the port.
    fn fail_conn(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        if !self.dead_conns.insert(conn) {
            return;
        }
        let Some(&(port, consumer)) = self.out_index.get(&conn) else {
            return;
        };
        self.scheds[port].on_dead(consumer);
        self.sent_times[port][consumer].clear();
        self.done_times[port][consumer].clear();
        self.recovering.remove(&conn);
        self.stats.consumers_failed += 1;
        Self::count_probe(ctx, "dc.stream.failover");
        let mut lost: Vec<(u64, Retained)> = self
            .retained
            .remove(&conn)
            .map(|m| m.into_iter().collect())
            .unwrap_or_default();
        lost.sort_by_key(|&(id, _)| id);
        // push_front in reverse keeps the original send order at the head
        // of the queue, ahead of not-yet-sent buffers.
        for (_, r) in lost.into_iter().rev() {
            if let StreamMsg::Data(buf) = r.msg {
                self.out_queues[port].push_front(OutItem::Buf(buf));
            }
        }
        self.dispatch(ctx, port);
    }

    fn filter_ctx<'a>(
        now: SimTime,
        copy: usize,
        copies: usize,
        rng: &'a mut rand::rngs::SmallRng,
        external: &'a mut Vec<(ProcessId, Message)>,
    ) -> FilterCtx<'a> {
        FilterCtx {
            now,
            copy,
            copies,
            rng,
            external,
        }
    }

    /// Run a logic callback, charge the CPU, and arrange the completion.
    fn run_logic<F>(
        &mut self,
        ctx: &mut Ctx<'_>,
        flush_eow_after: Option<u32>,
        done_notify: Option<ConnId>,
        call: F,
    ) where
        F: FnOnce(&mut Box<dyn FilterLogic>, &mut FilterCtx<'_>) -> Action,
    {
        let mut external = Vec::new();
        let now = ctx.now();
        let (copy, copies) = (self.copy, self.copies);
        let mut action = {
            let mut fc = Self::filter_ctx(now, copy, copies, ctx.rng(), &mut external);
            call(&mut self.logic, &mut fc)
        };
        for (pid, msg) in external {
            ctx.send(pid, msg);
        }
        let factor = {
            let speed = self.wiring().speed;
            speed.factor(now, ctx.rng())
        };
        let scaled = action.compute.mul_f64(factor);
        self.busy = true;
        let done = ComputeDone {
            outputs: std::mem::take(&mut action.outputs),
            flush_eow: flush_eow_after.or(action.end_uow),
            continue_uow: action.continue_uow,
            done_notify,
        };
        let cpu = self.wiring().cpu;
        let completion = ctx.use_resource(cpu, scaled, Message::new(done));
        if ctx.probe_enabled() {
            let id = self.next_span;
            self.next_span += 1;
            let track = self.track.clone();
            // The span covers actual CPU occupancy: it starts when the
            // contended CPU grants service, not at the request instant.
            ctx.probe_emit(|_| ProbeEvent::SpanBegin {
                track: track.clone(),
                label: "compute".to_string(),
                time: completion - scaled,
                id,
            });
            let track = self.track.clone();
            ctx.probe_emit(|_| ProbeEvent::SpanEnd {
                track,
                time: completion,
                id,
            });
            let name = format!("{}.busy_us", self.track);
            let delta = scaled.as_micros_f64();
            ctx.probe_emit(|t| ProbeEvent::Counter {
                name,
                time: t,
                delta,
            });
        }
    }

    /// Emit buffers/EOW into output queues and dispatch what flow allows.
    fn emit(&mut self, ctx: &mut Ctx<'_>, outputs: Vec<(usize, DataBuffer)>) {
        for (port, buf) in outputs {
            assert!(
                port < self.out_queues.len(),
                "{}[{}]: emit on unknown output port {port}",
                self.name,
                self.copy
            );
            self.out_queues[port].push_back(OutItem::Buf(buf));
        }
        for port in 0..self.out_queues.len() {
            self.dispatch(ctx, port);
        }
    }

    fn dispatch(&mut self, ctx: &mut Ctx<'_>, port: usize) {
        self.dispatch_inner(ctx, port);
        // Post-dispatch backlog: what the scheduler could not place, i.e.
        // the demand-driven window pressure on this output port.
        let depth = self.out_queues[port].len() as f64;
        let track = &self.track;
        ctx.probe_emit(|t| ProbeEvent::Gauge {
            name: format!("{track}.out{port}"),
            time: t,
            value: depth,
        });
    }

    fn dispatch_inner(&mut self, ctx: &mut Ctx<'_>, port: usize) {
        loop {
            match self.out_queues[port].front() {
                None => return,
                Some(OutItem::Eow(_)) => {
                    let Some(OutItem::Eow(uow)) = self.out_queues[port].pop_front() else {
                        unreachable!()
                    };
                    // EOW is broadcast to every live consumer copy, outside
                    // the demand-driven window (it carries no data).
                    let conns = self.wiring().outputs[port].data_conns.clone();
                    for (i, conn) in conns.into_iter().enumerate() {
                        if self.scheds[port].is_dead(i) {
                            continue;
                        }
                        self.send_stream(ctx, conn, CONTROL_BYTES, StreamMsg::Eow { uow });
                    }
                }
                Some(OutItem::Buf(_)) => {
                    let Some(i) = self.scheds[port].pick() else {
                        if self.scheds[port].alive() == 0 && self.wiring().recovery.is_some() {
                            // Every consumer copy on this port is dead: the
                            // buffer can never be delivered. Count and drop
                            // it rather than wedging the queue forever.
                            self.out_queues[port].pop_front();
                            self.stats.buffers_failed += 1;
                            Self::count_probe(ctx, "dc.stream.failed");
                            continue;
                        }
                        return; // demand-driven: all consumers at the cap
                    };
                    let Some(OutItem::Buf(buf)) = self.out_queues[port].pop_front() else {
                        unreachable!()
                    };
                    self.scheds[port].on_sent(i);
                    let policy = self.scheds[port].policy();
                    if policy.wants_acks() {
                        self.sent_times[port][i].push_back(ctx.now());
                    }
                    if matches!(policy, Policy::RoundRobinAcked) {
                        self.done_times[port][i].push_back(ctx.now());
                    }
                    self.stats.buffers_out += 1;
                    let conn = self.wiring().outputs[port].data_conns[i];
                    let bytes = buf.bytes;
                    self.send_stream(ctx, conn, bytes, StreamMsg::Data(buf));
                }
            }
        }
    }

    /// Start processing the next inbox item if idle.
    fn maybe_start(&mut self, ctx: &mut Ctx<'_>) {
        while !self.busy {
            let Some(item) = self.inbox.pop_front() else {
                return;
            };
            self.gauge_inbox(ctx);
            match item {
                WorkItem::Buffer {
                    port,
                    producer,
                    buf,
                    conn,
                    msg_id,
                } => {
                    // Processing starts now: consume transport resources and
                    // send the demand-driven ack.
                    self.net.consumed(ctx, conn, msg_id);
                    let input = &self.wiring().inputs[port];
                    let input_policy = input.policy;
                    let ack_conn_for_done = input.ack_conns[producer];
                    if input_policy.wants_acks() {
                        self.send_stream(ctx, ack_conn_for_done, CONTROL_BYTES, StreamMsg::Ack);
                    }
                    self.stats.buffers_in += 1;
                    self.stats.bytes_in += buf.bytes;
                    let done_notify = if matches!(input_policy, Policy::RoundRobinAcked) {
                        Some(ack_conn_for_done)
                    } else {
                        None
                    };
                    self.run_logic(ctx, None, done_notify, |logic, fc| {
                        logic.on_buffer(fc, port, buf)
                    });
                }
                WorkItem::Eow {
                    port,
                    uow,
                    conn,
                    msg_id,
                } => {
                    self.net.consumed(ctx, conn, msg_id);
                    let producers = self.wiring().inputs[port].producers;
                    let seen = self.eow_seen.entry((uow, port)).or_insert(0);
                    *seen += 1;
                    if *seen == producers {
                        self.eow_seen.remove(&(uow, port));
                        let done = self.ports_done.entry(uow).or_insert(0);
                        *done += 1;
                        if *done == self.wiring().inputs.len() {
                            self.ports_done.remove(&uow);
                            self.stats.uow_ends.push((uow, ctx.now()));
                            self.run_logic(ctx, Some(uow), None, |logic, fc| {
                                logic.on_uow_end(fc, uow)
                            });
                        }
                    }
                }
                WorkItem::UowStart { uow, desc } => {
                    self.run_logic(ctx, None, None, |logic, fc| {
                        logic.on_uow_start(fc, uow, desc)
                    });
                }
            }
        }
    }
}

impl Process for FilterProcess {
    fn name(&self) -> String {
        format!("{}[{}]", self.name, self.copy)
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let wiring = self
            .wiring_slot
            .lock()
            .expect("wiring lock")
            .take()
            .unwrap_or_else(|| panic!("{}: wiring was not installed", self.name));
        self.out_queues = wiring.outputs.iter().map(|_| VecDeque::new()).collect();
        self.scheds = wiring
            .outputs
            .iter()
            .map(|o| Scheduler::new(o.policy, o.data_conns.len()))
            .collect();
        self.sent_times = wiring
            .outputs
            .iter()
            .map(|o| vec![VecDeque::new(); o.data_conns.len()])
            .collect();
        self.done_times = self.sent_times.clone();
        self.out_index = wiring
            .outputs
            .iter()
            .enumerate()
            .flat_map(|(p, o)| {
                o.data_conns
                    .iter()
                    .enumerate()
                    .map(move |(i, &c)| (c, (p, i)))
            })
            .collect();
        self.wiring = Some(wiring);
        let mut external = Vec::new();
        let now = ctx.now();
        let (copy, copies) = (self.copy, self.copies);
        {
            let mut fc = Self::filter_ctx(now, copy, copies, ctx.rng(), &mut external);
            self.logic.init(&mut fc);
        }
        for (pid, msg) in external {
            ctx.send(pid, msg);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        if self
            .wiring
            .as_ref()
            .is_some_and(|w| w.crash_at.is_some_and(|t| ctx.now() >= t))
        {
            // The node has fail-stopped: this copy plays dead and drops
            // everything (peers observe the loss through the transport's
            // crash cut, not through any reply from here).
            Self::count_probe(ctx, "dc.dead_drop");
            return;
        }
        let msg = match msg.downcast::<Delivery>() {
            Ok(d) => {
                let Some(&route) = self.wiring().routes.get(&d.conn) else {
                    // A delivery racing teardown, or one for a connection
                    // this copy never owned: count and discard instead of
                    // panicking, and leave the transport's flow state for
                    // the unknown route untouched.
                    self.stats.stale_deliveries += 1;
                    Self::count_probe(ctx, "dc.stream.stale_delivery");
                    return;
                };
                match route {
                    Route::DataIn { port, producer } => {
                        match d.payload.downcast::<StreamMsg>().expect("stream message") {
                            StreamMsg::Data(buf) => self.inbox.push_back(WorkItem::Buffer {
                                port,
                                producer,
                                buf,
                                conn: d.conn,
                                msg_id: d.msg_id,
                            }),
                            StreamMsg::Eow { uow } => self.inbox.push_back(WorkItem::Eow {
                                port,
                                uow,
                                conn: d.conn,
                                msg_id: d.msg_id,
                            }),
                            StreamMsg::Ack | StreamMsg::Done => {
                                panic!("control message arrived on a data route")
                            }
                        }
                        self.gauge_inbox(ctx);
                    }
                    Route::AckIn { port, consumer } => {
                        self.net.consumed(ctx, d.conn, d.msg_id);
                        // Under a fault plan, acks can be late (after a
                        // failover wrote the window off) or duplicated (a
                        // spurious-loss retry): tolerate rather than assert.
                        let lenient = self.wiring().recovery.is_some();
                        if lenient && self.scheds[port].is_dead(consumer) {
                            self.maybe_start(ctx);
                            return;
                        }
                        match d.payload.downcast::<StreamMsg>().expect("stream message") {
                            StreamMsg::Ack => {
                                if !lenient || self.scheds[port].unacked(consumer) > 0 {
                                    self.scheds[port].on_ack(consumer);
                                }
                                ctx.probe_emit(|t| ProbeEvent::Counter {
                                    name: "dc.acks".to_string(),
                                    time: t,
                                    delta: 1.0,
                                });
                                let sent_at = if lenient {
                                    self.sent_times[port][consumer].pop_front()
                                } else {
                                    Some(
                                        self.sent_times[port][consumer]
                                            .pop_front()
                                            .expect("ack matches a sent buffer"),
                                    )
                                };
                                if let Some(sent_at) = sent_at {
                                    if self.wiring().ack_log {
                                        self.ack_log.push(AckRecord {
                                            port,
                                            consumer,
                                            sent_at,
                                            acked_at: ctx.now(),
                                        });
                                    }
                                }
                                let fwd = self.wiring().outputs[port].data_conns[consumer];
                                if self.recovering.remove(&fwd) {
                                    self.stats.streams_recovered += 1;
                                    Self::count_probe(ctx, "dc.stream.recovered");
                                }
                                self.dispatch(ctx, port);
                            }
                            StreamMsg::Done => {
                                let sent_at = if lenient {
                                    self.done_times[port][consumer].pop_front()
                                } else {
                                    Some(
                                        self.done_times[port][consumer]
                                            .pop_front()
                                            .expect("done matches a sent buffer"),
                                    )
                                };
                                if let Some(sent_at) = sent_at {
                                    if self.wiring().ack_log {
                                        self.done_log.push(AckRecord {
                                            port,
                                            consumer,
                                            sent_at,
                                            acked_at: ctx.now(),
                                        });
                                    }
                                }
                            }
                            _ => panic!("data message arrived on an ack route"),
                        }
                    }
                }
                self.maybe_start(ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<StreamError>() {
            Ok(e) => {
                self.on_stream_error(ctx, e);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<RetryMsg>() {
            Ok(r) => {
                self.retry_send(ctx, r.conn, r.msg_id);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<UowStartMsg>() {
            Ok(s) => {
                self.inbox.push_back(WorkItem::UowStart {
                    uow: s.uow,
                    desc: s.desc,
                });
                self.gauge_inbox(ctx);
                self.maybe_start(ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<ComputeDone>() {
            Ok(done) => {
                if let Some(conn) = done.done_notify {
                    self.net
                        .send(ctx, conn, CONTROL_BYTES, Message::new(StreamMsg::Done));
                }
                self.emit(ctx, done.outputs);
                if let Some(uow) = done.flush_eow {
                    for q in &mut self.out_queues {
                        q.push_back(OutItem::Eow(uow));
                    }
                    for port in 0..self.out_queues.len() {
                        self.dispatch(ctx, port);
                    }
                }
                if let Some(uow) = done.continue_uow {
                    self.busy = false;
                    self.run_logic(ctx, None, None, |logic, fc| logic.on_continue(fc, uow));
                } else {
                    self.busy = false;
                    self.maybe_start(ctx);
                }
                return;
            }
            Err(m) => m,
        };
        if msg.downcast::<Shutdown>().is_ok() {
            let mut external = Vec::new();
            let now = ctx.now();
            let (copy, copies) = (self.copy, self.copies);
            {
                let mut fc = Self::filter_ctx(now, copy, copies, ctx.rng(), &mut external);
                self.logic.finalize(&mut fc);
            }
            for (pid, m) in external {
                ctx.send(pid, m);
            }
            return;
        }
        panic!("{}: unknown message type", self.name);
    }
}
