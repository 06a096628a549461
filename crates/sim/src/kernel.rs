//! The simulation kernel: process table, event dispatch loop, resources and
//! deterministic RNG streams.
//!
//! A [`Sim`] owns a set of [`Process`] actors. Each event delivers an opaque
//! [`Message`] to one process, which handles it via [`Process::on_message`]
//! with a [`Ctx`] granting access to the clock, the event queue, resources,
//! its private RNG stream, and process spawning. Dispatch follows the
//! canonical `(time, seq)` order, so runs are reproducible — whether the
//! kernel executes sequentially or sharded across worker threads under a
//! [`ShardPlan`] (see [`crate::shard`]).

use crate::arena;
use crate::event::EventQueue;
use crate::payload::Payload;
use crate::probe::{Probe, ProbeEvent};
use crate::resource::{Resource, ResourceId};
use crate::shard::{ShardPlan, ShardRoute};
use crate::time::{Dur, SimTime};
use crate::trace::TraceDigest;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::any::Any;

/// Opaque message payload; receiving processes downcast to concrete types.
///
/// Construct with [`Message::new`] (which stores small values inline and
/// pools mid-sized ones — see [`crate::payload`]); consume with
/// [`Payload::downcast`] / [`Payload::downcast_ref`].
pub type Message = Payload;

/// Handle to a process registered with a [`Sim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcessId(pub usize);

/// An actor in the simulation.
///
/// Implementations react to messages; they never block. Time passes only via
/// scheduled future messages ([`Ctx::send_in`]) or resource usage
/// ([`Ctx::use_resource`]).
pub trait Process: Any + Send {
    /// Human-readable name used in panics and traces.
    fn name(&self) -> String {
        "process".to_string()
    }

    /// Called once, before any message is delivered: when [`Sim::run`] first
    /// starts for initially-added processes, or at spawn time for processes
    /// created during the run.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// Handle one message delivered at the current virtual time.
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message);
}

/// Shared kernel state reachable from handlers (everything except the
/// process table, whose current entry is checked out during dispatch).
pub(crate) struct Core {
    pub(crate) now: SimTime,
    pub(crate) queue: EventQueue,
    pub(crate) resources: Vec<Resource>,
    pub(crate) rngs: Vec<SmallRng>,
    pub(crate) trace: TraceDigest,
    pub(crate) master_seed: u64,
    /// Processes created from handlers; folded into the table after dispatch.
    pub(crate) pending_spawns: Vec<Box<dyn Process>>,
    /// Next pid, counting both live and pending processes.
    pub(crate) next_pid: usize,
    pub(crate) events_dispatched: u64,
    /// Completed network flows, counted by the flow-level network engine
    /// through [`Ctx::count_flow`]; stays 0 under the packet model.
    pub(crate) flows_completed: u64,
    /// Per-source push counters backing the canonical event ordering key:
    /// slot 0 is the external [`Sim::schedule_at`] stream, slot `pid + 1`
    /// the stream of pushes made from that process's handlers. The key of
    /// a push is `(slot << 40) | count`, so equal-time events order by
    /// `(source, push order)` — reproducible regardless of which worker
    /// thread executes the source (see `shard.rs`).
    pub(crate) push_counts: Vec<u64>,
    /// Observability sink; `None` (the default) makes every emission site
    /// a single branch with the event never constructed.
    pub(crate) probe: Option<Box<dyn Probe>>,
    /// In a sharded run, the worker-local view of the partition: which
    /// shard this core is, who owns each process/resource, and the
    /// cross-shard mailboxes. `None` (the default) keeps the sequential
    /// hot path to a single branch per push.
    pub(crate) route: Option<Box<ShardRoute>>,
}

/// Width of the per-source count field in an ordering key; the source
/// slot occupies the bits above. 2^40 pushes per source and 2^24 sources
/// are both far beyond any simulated workload.
pub(crate) const KEY_COUNT_BITS: u32 = 40;

/// The canonical ordering key for the next push from `slot`, advancing
/// its counter.
///
/// Keys must stay unique — `EventQueue::push` relies on it — so debug
/// builds fail loudly if either field would overflow its bit range and
/// silently collide.
#[inline]
pub(crate) fn next_key(push_counts: &mut [u64], slot: usize) -> u64 {
    debug_assert!(
        slot < (1 << (64 - KEY_COUNT_BITS)),
        "ordering-key slot field overflow: slot {slot}"
    );
    debug_assert!(
        slot < push_counts.len(),
        "push count slot {slot} out of range"
    );
    // SAFETY: every caller passes slot 0 (always present — `Sim::new`
    // seeds the table with one entry) or `pid + 1` for a registered pid,
    // and both `add_process` and `Ctx::spawn` grow the table in lockstep
    // with the pid space, so `slot < push_counts.len()` always holds (and
    // is asserted above in debug builds). This sits on the per-event hot
    // path; the checked index measurably slows dispatch.
    let c = unsafe { push_counts.get_unchecked_mut(slot) };
    debug_assert!(
        *c < (1 << KEY_COUNT_BITS),
        "ordering-key count field overflow: 2^{KEY_COUNT_BITS} pushes from slot {slot}"
    );
    let key = ((slot as u64) << KEY_COUNT_BITS) | *c;
    *c += 1;
    key
}

impl Core {
    /// Route one keyed push: locally onto the queue, or — in a sharded run
    /// when `target` lives on another shard — into that shard's mailbox,
    /// after checking the link's lookahead promise. The sharded case is
    /// outlined (`#[cold]`): keeping the mailbox machinery out of this
    /// function lets the sequential path inline `EventQueue::push` cleanly,
    /// which is worth several ns on every dispatched event.
    #[inline]
    pub(crate) fn push(&mut self, time: SimTime, key: u64, target: ProcessId, msg: Message) {
        if self.route.is_none() {
            self.queue.push(time, key, target, msg);
        } else {
            self.push_routed(time, key, target, msg);
        }
    }

    /// The sharded-run push path (see [`Core::push`]). Cold from the
    /// sequential kernel's perspective. Cross-shard sends are *staged*
    /// into a worker-local per-destination batch — no locks, no shared
    /// state — and flushed by the shard worker loop once per round.
    #[cold]
    fn push_routed(&mut self, time: SimTime, key: u64, target: ProcessId, msg: Message) {
        let now = self.now;
        let route = self.route.as_mut().expect("routed push has a route");
        let dest = route.owner_pid[target.0];
        if dest == route.shard {
            self.queue.push(time, key, target, msg);
        } else {
            route.check_lookahead(now, time, dest);
            route.sent += 1;
            let t = time.as_nanos();
            if t < route.staged_min[dest] {
                route.staged_min[dest] = t;
            }
            route.staged[dest].push(crate::shard::SentEvent {
                time,
                key,
                target,
                msg,
            });
        }
    }

    fn rng_for(master_seed: u64, pid: usize) -> SmallRng {
        // SplitMix64-style mixing so neighbouring pids get unrelated streams.
        let mut z = master_seed ^ (pid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        SmallRng::seed_from_u64(z ^ (z >> 31))
    }
}

/// The discrete-event simulator.
pub struct Sim {
    pub(crate) core: Core,
    pub(crate) procs: Vec<Option<Box<dyn Process>>>,
    /// Number of processes whose `on_start` has already run.
    pub(crate) started: usize,
    /// When set (with `shards > 1` and no probe attached), `run` executes
    /// under the sharded conservative-parallel protocol (see
    /// [`crate::shard`]).
    pub(crate) shard_plan: Option<ShardPlan>,
}

impl Sim {
    /// Create a simulator whose RNG streams derive from `seed`.
    ///
    /// Adopts event-queue/table buffers recycled from a previously dropped
    /// `Sim` on this thread (see [`crate::arena`]); reuse never changes
    /// behaviour, only allocation traffic.
    pub fn new(seed: u64) -> Self {
        let parts = arena::take();
        Sim {
            core: Core {
                now: SimTime::ZERO,
                queue: parts.queue,
                resources: parts.resources,
                rngs: parts.rngs,
                trace: TraceDigest::new(),
                master_seed: seed,
                pending_spawns: Vec::new(),
                next_pid: 0,
                events_dispatched: 0,
                flows_completed: 0,
                push_counts: vec![0],
                probe: None,
                route: None,
            },
            procs: parts.procs,
            started: 0,
            shard_plan: None,
        }
    }

    /// Attach a shard plan: subsequent `run` calls execute the simulation
    /// across `plan.shards` worker threads under the conservative window
    /// protocol of [`crate::shard`], producing the same trace digest and
    /// results as the sequential kernel. A plan with `shards == 1` is
    /// ignored, and so is any plan while a probe is attached: both runs
    /// stay on the sequential path.
    pub fn set_shard_plan(&mut self, plan: ShardPlan) {
        assert!(plan.shards >= 1, "a shard plan needs at least one shard");
        assert_eq!(
            plan.lookahead.len(),
            plan.shards,
            "lookahead matrix must be shards x shards"
        );
        for (a, row) in plan.lookahead.iter().enumerate() {
            assert_eq!(
                row.len(),
                plan.shards,
                "lookahead matrix must be shards x shards"
            );
            for (b, &l) in row.iter().enumerate() {
                // Diagonal entries are documented as ignored, so any value
                // (including 0) is fine there.
                assert!(
                    a == b || l > 0,
                    "cross-shard links must have positive lookahead (got 0 for {a}->{b})"
                );
            }
        }
        self.shard_plan = Some(plan);
    }

    /// Register a process; returns its id. `on_start` runs when the
    /// simulation first runs.
    pub fn add_process(&mut self, p: Box<dyn Process>) -> ProcessId {
        let pid = ProcessId(self.core.next_pid);
        self.core.next_pid += 1;
        self.core
            .rngs
            .push(Core::rng_for(self.core.master_seed, pid.0));
        self.core.push_counts.push(0);
        self.procs.push(Some(p));
        pid
    }

    /// Register a FCFS station with `servers` identical servers.
    pub fn add_resource(&mut self, name: impl Into<String>, servers: usize) -> ResourceId {
        let rid = ResourceId(self.core.resources.len());
        self.core.resources.push(Resource::new(name, servers));
        rid
    }

    /// Inject a message from outside the simulation at absolute time `at`.
    pub fn schedule_at(&mut self, at: SimTime, target: ProcessId, msg: Message) {
        let key = next_key(&mut self.core.push_counts, 0);
        self.core.queue.push(at, key, target, msg);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Read-only access to a resource's statistics.
    pub fn resource(&self, rid: ResourceId) -> &Resource {
        &self.core.resources[rid.0]
    }

    /// Number of events dispatched so far.
    pub fn events_dispatched(&self) -> u64 {
        self.core.events_dispatched
    }

    /// Digest of the event trace so far (see [`TraceDigest`]).
    pub fn trace_digest(&self) -> u64 {
        self.core.trace.value()
    }

    /// Attach an observability sink (see [`crate::probe`]). Probes are
    /// purely observational: attaching one never changes the trace digest.
    /// A probed run ignores its shard plan and runs sequentially.
    pub fn attach_probe(&mut self, probe: Box<dyn Probe>) {
        self.core.probe = Some(probe);
    }

    /// Names of all registered resources, indexed by `ResourceId`; the
    /// track table expected by [`crate::probe::Recorder::chrome_trace_json`].
    pub fn resource_names(&self) -> Vec<String> {
        self.core
            .resources
            .iter()
            .map(|r| r.name().to_string())
            .collect()
    }

    /// Run until the event queue drains. Returns the final virtual time.
    ///
    /// Under a shard plan with more than one shard the run executes sharded
    /// (see [`crate::shard`]) unless a probe is attached; a probed run takes
    /// the sequential loop, whose probe stream is the canonical one.
    pub fn run(&mut self) -> SimTime {
        if let Some(plan) = self.shard_plan.as_ref().filter(|p| p.shards > 1) {
            if self.core.probe.is_none() {
                let plan = plan.clone();
                return crate::shard::run_sharded(self, &plan);
            }
        }
        self.start_new_processes();
        // Wall-clock telemetry (off the dispatch path entirely): resolved
        // once per run, timed around the whole loop, flushed at exit.
        let tel_dir = crate::telemetry::configured_telemetry();
        let run_start = std::time::Instant::now();
        let events_before = self.core.events_dispatched;
        let flows_before = self.core.flows_completed;
        while let Some((time, target, msg)) = self.core.queue.pop_parts() {
            debug_assert!(time >= self.core.now, "time must not run backwards");
            self.core.now = time;
            self.core.events_dispatched += 1;
            self.core.trace.record(time, target);
            if let Some(probe) = self.core.probe.as_mut() {
                probe.record(ProbeEvent::Dispatch { time, target });
            }
            self.dispatch(target, msg);
            // Mid-run the table only grows through `Ctx::spawn`, which
            // stages into `pending_spawns`; anything added before the run
            // was started by the `start_new_processes` call at entry.
            if !self.core.pending_spawns.is_empty() {
                self.start_new_processes();
            }
        }
        if let Some(dir) = tel_dir {
            crate::telemetry::flush_sequential(
                &dir,
                run_start.elapsed().as_nanos() as u64,
                self.core.events_dispatched - events_before,
                self.core.flows_completed - flows_before,
            );
        }
        self.core.now
    }

    fn dispatch(&mut self, target: ProcessId, msg: Message) {
        // Handlers can only reach `core` through `Ctx`, never the process
        // table, so the entry is borrowed in place (no checkout round-trip).
        let proc = self
            .procs
            .get_mut(target.0)
            .unwrap_or_else(|| panic!("message to unknown process {:?}", target))
            .as_deref_mut()
            .expect("process checked out during dispatch");
        let mut ctx = Ctx {
            core: &mut self.core,
            pid: target,
        };
        proc.on_message(&mut ctx, msg);
    }

    /// Fold pending spawns into the table and run `on_start` for every
    /// process that has not started yet (in pid order).
    pub(crate) fn start_new_processes(&mut self) {
        loop {
            let spawns: Vec<Box<dyn Process>> = std::mem::take(&mut self.core.pending_spawns);
            for p in spawns {
                self.core
                    .rngs
                    .push(Core::rng_for(self.core.master_seed, self.procs.len()));
                self.procs.push(Some(p));
            }
            if self.started == self.procs.len() {
                break;
            }
            let pid = ProcessId(self.started);
            self.started += 1;
            let mut proc = self.procs[pid.0].take().expect("unstarted process exists");
            let mut ctx = Ctx {
                core: &mut self.core,
                pid,
            };
            proc.on_start(&mut ctx);
            self.procs[pid.0] = Some(proc);
            // Loop again: on_start may itself have spawned processes.
        }
    }

    /// Borrow a process back out of the simulator, e.g. to read collected
    /// statistics after the run. Returns `None` if the process has a
    /// different concrete type. Panics if `pid` is unknown.
    pub fn process<T: Process>(&self, pid: ProcessId) -> Option<&T> {
        self.procs[pid.0]
            .as_deref()
            .and_then(|p| (p as &dyn Any).downcast_ref::<T>())
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        arena::put(arena::Parts {
            queue: std::mem::replace(&mut self.core.queue, EventQueue::hollow()),
            procs: std::mem::take(&mut self.procs),
            rngs: std::mem::take(&mut self.core.rngs),
            resources: std::mem::take(&mut self.core.resources),
        });
    }
}

/// Handler-side view of the kernel: clock, event queue, resources, RNG.
pub struct Ctx<'a> {
    pub(crate) core: &'a mut Core,
    pub(crate) pid: ProcessId,
}

impl<'a> Ctx<'a> {
    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Deliver `msg` to `target` at the current instant (after all events
    /// already queued for this instant from this and earlier sources).
    pub fn send(&mut self, target: ProcessId, msg: Message) {
        let key = next_key(&mut self.core.push_counts, self.pid.0 + 1);
        let now = self.core.now;
        self.core.push(now, key, target, msg);
    }

    /// Deliver `msg` to `target` after `delay`.
    pub fn send_in(&mut self, delay: Dur, target: ProcessId, msg: Message) {
        let key = next_key(&mut self.core.push_counts, self.pid.0 + 1);
        let at = self.core.now + delay;
        self.core.push(at, key, target, msg);
    }

    /// Deliver `msg` back to this process after `delay`.
    pub fn send_self_in(&mut self, delay: Dur, msg: Message) {
        let pid = self.pid;
        self.send_in(delay, pid, msg);
    }

    /// Submit a job of `service` demand to resource `rid`, arriving now;
    /// `msg` is delivered to `target` when the job completes under FCFS.
    /// Returns the completion instant.
    pub fn use_resource_for(
        &mut self,
        rid: ResourceId,
        service: Dur,
        target: ProcessId,
        msg: Message,
    ) -> SimTime {
        let now = self.core.now;
        let done = self.reserve_resource(rid, now, service);
        let key = next_key(&mut self.core.push_counts, self.pid.0 + 1);
        self.core.push(done, key, target, msg);
        done
    }

    /// Book a job of `service` demand on resource `rid` arriving at
    /// `arrival` (now or later) and return its FCFS completion instant;
    /// no event is scheduled. The probe sees the acquisition as of the
    /// arrival instant (`arrived` and `busy_servers`).
    ///
    /// Booking ahead is exact only for a station whose every arrival is
    /// booked this way, in arrival order — e.g. a tandem stage fed solely
    /// by one single-server station's completions, booked at each
    /// completion instant as the upstream job is booked. Arrivals must be
    /// non-decreasing per resource (checked in debug builds).
    pub fn reserve_resource(&mut self, rid: ResourceId, arrival: SimTime, service: Dur) -> SimTime {
        debug_assert!(
            arrival >= self.core.now,
            "resource booked for arrival {arrival:?}, before now {:?}",
            self.core.now
        );
        if let Some(route) = &self.core.route {
            let owner = route.owner_rid[rid.0];
            assert!(
                owner == route.shard,
                "resource {:?} ({}) used from shard {} but owned by shard {}: \
                 the shard plan must co-locate a resource with every process using it",
                rid,
                self.core.resources[rid.0].name(),
                route.shard,
                owner,
            );
        }
        let res = &mut self.core.resources[rid.0];
        let busy_servers = res.busy_servers(arrival);
        let done = res.schedule(arrival, service);
        if let Some(probe) = self.core.probe.as_mut() {
            probe.record(ProbeEvent::ResourceAcquire {
                rid,
                arrived: arrival,
                start: done - service,
                completion: done,
                service,
                busy_servers,
            });
        }
        done
    }

    /// Like [`Ctx::use_resource_for`] with this process as the target.
    pub fn use_resource(&mut self, rid: ResourceId, service: Dur, msg: Message) -> SimTime {
        let pid = self.pid;
        self.use_resource_for(rid, service, pid, msg)
    }

    /// Read-only view of a resource's statistics.
    pub fn resource(&self, rid: ResourceId) -> &Resource {
        &self.core.resources[rid.0]
    }

    /// This process's private deterministic RNG stream.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.core.rngs[self.pid.0]
    }

    /// Create a new process mid-run. Its `on_start` runs as soon as the
    /// current handler returns. Returns the new process id (valid
    /// immediately as a message target).
    ///
    /// # Panics
    ///
    /// Under a sharded run: worker process tables cannot grow
    /// deterministically (the new pid's owner is not in the plan), so
    /// mid-run spawning is a documented limitation of the sharded kernel.
    /// Register all processes before `run`, or run sequentially.
    pub fn spawn(&mut self, p: Box<dyn Process>) -> ProcessId {
        if let Some(route) = &self.core.route {
            panic!(
                "process {:?} (pid {}) called Ctx::spawn during a sharded run \
                 (on shard {}): the shard plan cannot place processes created \
                 mid-run, so spawns would be silently dropped. Register all \
                 processes before run(), or run without a shard plan.",
                p.name(),
                self.pid.0,
                route.shard,
            );
        }
        let pid = ProcessId(self.core.next_pid);
        self.core.next_pid += 1;
        self.core.push_counts.push(0);
        self.core.pending_spawns.push(p);
        pid
    }

    /// Count one completed network flow towards this run's report (see
    /// [`crate::telemetry::RunReport::flows`]).
    pub fn count_flow(&mut self) {
        self.core.flows_completed += 1;
    }

    /// Fold an application-level tag into the determinism trace digest.
    pub fn trace_tag(&mut self, tag: u64) {
        self.core.trace.record_tag(tag);
    }

    /// Whether a probe is attached. Use to skip expensive event *inputs*
    /// (string formatting etc.); [`Ctx::probe_emit`] already skips event
    /// construction itself.
    #[inline]
    pub fn probe_enabled(&self) -> bool {
        self.core.probe.is_some()
    }

    /// Emit a probe event. The closure runs — i.e. the event is built —
    /// only when a probe is attached, so a disabled bus costs one branch.
    #[inline]
    pub fn probe_emit(&mut self, f: impl FnOnce(SimTime) -> ProbeEvent) {
        if let Some(probe) = self.core.probe.as_mut() {
            probe.record(f(self.core.now));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    struct Echo {
        heard: Vec<u64>,
        peer: Option<ProcessId>,
        bounces: u32,
    }

    impl Process for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            let v = msg.downcast::<u64>().unwrap();
            self.heard.push(v);
            if let Some(peer) = self.peer {
                if self.bounces > 0 {
                    self.bounces -= 1;
                    ctx.send_in(Dur::micros(10), peer, Message::new(v + 1));
                }
            }
        }
    }

    #[test]
    fn ping_pong_advances_time() {
        let mut sim = Sim::new(1);
        let a = sim.add_process(Box::new(Echo {
            heard: vec![],
            peer: None,
            bounces: 0,
        }));
        let b = sim.add_process(Box::new(Echo {
            heard: vec![],
            peer: Some(a),
            bounces: 3,
        }));
        sim.schedule_at(SimTime::ZERO, b, Message::new(0u64));
        let end = sim.run();
        // b hears 0 at t=0, sends to a at 10us; a is a sink.
        assert_eq!(end.as_nanos(), 10_000);
        let a_ref: &Echo = sim.process(a).unwrap();
        assert_eq!(a_ref.heard, vec![1]);
    }

    struct Starter {
        heard: Vec<(u64, u64)>,
    }
    impl Process for Starter {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send_self_in(Dur::nanos(7), Message::new(1u64));
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            self.heard
                .push((ctx.now().as_nanos(), msg.downcast::<u64>().unwrap()));
        }
    }

    #[test]
    fn on_start_runs_before_the_first_event() {
        let mut sim = Sim::new(0);
        let p = sim.add_process(Box::new(Starter { heard: vec![] }));
        sim.schedule_at(SimTime::from_nanos(100), p, Message::new(2u64));
        let end = sim.run();
        assert_eq!(end.as_nanos(), 100);
        assert_eq!(sim.events_dispatched(), 2);
        // The self-send queued by on_start is delivered first, at t=7.
        let s: &Starter = sim.process(p).unwrap();
        assert_eq!(s.heard, vec![(7, 1), (100, 2)]);
    }

    struct Spawner {
        child_heard: Option<ProcessId>,
    }
    struct Child {
        heard: u32,
    }
    impl Process for Child {
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {
            self.heard += 1;
        }
    }
    impl Process for Spawner {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _msg: Message) {
            let child = ctx.spawn(Box::new(Child { heard: 0 }));
            self.child_heard = Some(child);
            ctx.send_in(Dur::nanos(1), child, Message::new(()));
        }
    }

    #[test]
    fn spawn_mid_run_is_addressable() {
        let mut sim = Sim::new(0);
        let p = sim.add_process(Box::new(Spawner { child_heard: None }));
        sim.schedule_at(SimTime::ZERO, p, Message::new(()));
        sim.run();
        let spawner: &Spawner = sim.process(p).unwrap();
        let child_pid = spawner.child_heard.unwrap();
        let child: &Child = sim.process(child_pid).unwrap();
        assert_eq!(child.heard, 1);
    }

    #[test]
    fn resource_completion_delivers_message() {
        struct Worker {
            done_at: Vec<u64>,
            cpu: ResourceId,
        }
        impl Process for Worker {
            fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
                match msg.downcast::<&'static str>() {
                    Ok("job") => {
                        ctx.use_resource(self.cpu, Dur::nanos(100), Message::new("done"));
                        ctx.use_resource(self.cpu, Dur::nanos(100), Message::new("done"));
                    }
                    Ok(_) => self.done_at.push(ctx.now().as_nanos()),
                    Err(_) => panic!("unexpected message"),
                }
            }
        }
        let mut sim = Sim::new(0);
        let cpu = sim.add_resource("cpu", 1);
        let w = sim.add_process(Box::new(Worker {
            done_at: vec![],
            cpu,
        }));
        sim.schedule_at(SimTime::ZERO, w, Message::new("job"));
        sim.run();
        let w_ref: &Worker = sim.process(w).unwrap();
        assert_eq!(w_ref.done_at, vec![100, 200]); // serialized on one server
    }

    /// A tandem booked ahead completes exactly as one handed over by an
    /// event at the upstream completion, and the probe sees the
    /// downstream acquisition as of its arrival instant.
    #[test]
    fn reserve_resource_books_a_tandem_ahead() {
        struct Tandem {
            up: ResourceId,
            down: ResourceId,
            done_at: Vec<u64>,
        }
        impl Process for Tandem {
            fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
                if msg.downcast_ref::<()>().is_some() {
                    for _ in 0..2 {
                        let now = ctx.now();
                        let handed = ctx.reserve_resource(self.up, now, Dur::nanos(100));
                        let done = ctx.reserve_resource(self.down, handed, Dur::nanos(150));
                        ctx.send_self_in(done.since(now), Message::new(1u8));
                    }
                } else {
                    self.done_at.push(ctx.now().as_nanos());
                }
            }
        }
        let mut sim = Sim::new(0);
        let up = sim.add_resource("up", 1);
        let down = sim.add_resource("down", 1);
        let rec = crate::Recorder::new();
        sim.attach_probe(rec.probe());
        let pid = sim.add_process(Box::new(Tandem {
            up,
            down,
            done_at: vec![],
        }));
        sim.schedule_at(SimTime::from_nanos(10), pid, Message::new(()));
        sim.run();
        let t: &Tandem = sim.process(pid).unwrap();
        // Up: [10, 110), [110, 210); down: [110, 260), [260, 410).
        assert_eq!(t.done_at, vec![260, 410]);
        let downs: Vec<(u64, usize)> = rec.with_events(|evs| {
            evs.iter()
                .filter_map(|e| match e {
                    ProbeEvent::ResourceAcquire {
                        rid,
                        arrived,
                        busy_servers,
                        ..
                    } if *rid == down => Some((arrived.as_nanos(), *busy_servers)),
                    _ => None,
                })
                .collect()
        });
        assert_eq!(downs, vec![(110, 0), (210, 1)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "before now")]
    fn reserve_resource_rejects_a_past_arrival() {
        struct Late(ResourceId);
        impl Process for Late {
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _msg: Message) {
                ctx.reserve_resource(self.0, SimTime::from_nanos(5), Dur::nanos(1));
            }
        }
        let mut sim = Sim::new(0);
        let r = sim.add_resource("r", 1);
        let pid = sim.add_process(Box::new(Late(r)));
        sim.schedule_at(SimTime::from_nanos(10), pid, Message::new(()));
        sim.run();
    }

    #[test]
    fn determinism_same_seed_same_digest() {
        fn run(seed: u64) -> (u64, u64) {
            let mut sim = Sim::new(seed);
            let a = sim.add_process(Box::new(Echo {
                heard: vec![],
                peer: None,
                bounces: 0,
            }));
            let b = sim.add_process(Box::new(Echo {
                heard: vec![],
                peer: Some(a),
                bounces: 10,
            }));
            sim.schedule_at(SimTime::ZERO, b, Message::new(0u64));
            sim.run();
            (sim.trace_digest(), sim.events_dispatched())
        }
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn rng_streams_differ_per_process() {
        let mut sim = Sim::new(9);
        struct R {
            v: u64,
        }
        impl Process for R {
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _m: Message) {
                self.v = ctx.rng().next_u64();
            }
        }
        let a = sim.add_process(Box::new(R { v: 0 }));
        let b = sim.add_process(Box::new(R { v: 0 }));
        sim.schedule_at(SimTime::ZERO, a, Message::new(()));
        sim.schedule_at(SimTime::ZERO, b, Message::new(()));
        sim.run();
        let ra: &R = sim.process(a).unwrap();
        let rb: &R = sim.process(b).unwrap();
        assert_ne!(ra.v, rb.v);
    }
}
