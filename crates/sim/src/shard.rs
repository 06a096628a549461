//! Sharded conservative-parallel execution of a [`Sim`].
//!
//! A [`ShardPlan`] partitions the process and resource tables across
//! `shards` worker threads and records, for every ordered shard pair, the
//! minimum latency (**lookahead**) any cross-shard message must carry.
//! `run_sharded` then executes the simulation in *rounds* of a
//! conservative (Chandy–Misra–Bryant style) window protocol with exactly
//! **one barrier per round** — a sense-reversing spin-then-park
//! [`SpinBarrier`]:
//!
//! 1. After the barrier, every worker reads the state its peers published
//!    at the end of the *previous* round: per-shard earliest pending
//!    times and the minima of cross-shard batches still in flight.
//!    Publishes are parity-indexed (round `k` reads slot `k & 1`, writes
//!    slot `(k + 1) & 1`), so writes for the next round never race reads
//!    for the current one — the barrier provides the happens-before edge. From the same values every
//!    worker derives the same exit decision (every queue and in-flight
//!    batch is empty: the run has drained) and its own *ragged* window
//!    `W(d) = min over s of (next(s) + reach(s, d))`, where `reach` is
//!    the all-pairs min-plus closure of the lookahead matrix (including
//!    `s = d`, whose entry is the cheapest cycle back into `d`).
//! 2. It drains the batches peers staged toward it from the per-pair
//!    slots, then dispatches its local events with `time < W(my)`
//!    exactly as the sequential kernel would. Cross-shard sends are
//!    *staged* into worker-local buffers — no locks on the dispatch path.
//! 3. It publishes next-round state and flushes each non-empty staged
//!    batch into its pair slot: one uncontended lock per pair per round,
//!    not one per event. Trace buckets are deposited only every
//!    [`FLUSH_EVERY`] rounds; worker 0 merges deposits behind a time
//!    cutoff at the same cadence, so the per-round protocol has no merge
//!    step and no second barrier at all.
//!
//! **Safety.** Any event a shard `s` may still produce is at or after
//! `next(s)` (its effective earliest pending time, in-flight batches
//! included), and every chain of sends from `s` into `d` takes at least
//! `reach(s, d)` ns, so no future arrival into `d` can land below
//! `W(d)`. A consumer may pick up a peer's round-`k` batch during round
//! `k` itself; those events carry times `>= W(d)`, so they cannot be
//! dispatched early, and the published batch minima make the next
//! round's `next(d)` independent of whether the pickup happened — the
//! window sequence is a pure function of the simulation, not of thread
//! timing.
//!
//! **Progress.** Every `reach` entry is positive (the plan validates its
//! lookahead entries), so `W(d) > min next(s)` for the shard holding the
//! globally earliest event, which therefore dispatches at least one
//! event per round; the global minimum strictly increases.
//!
//! **Determinism.** Event ordering keys are per-*source*
//! (`kernel::next_key`), so an event's key does not depend on which
//! worker executed the source, and the trace digest folds per-instant
//! commutative buckets ([`TraceDigest::absorb`]). Deposited bucket
//! streams are per-shard time-ordered; the cutoff merge folds strictly
//! finalized prefixes (everything below the global minimum cannot gain
//! new entries) and holds the rest back, so the master digest comes out
//! bit-for-bit equal to the sequential kernel's. A run with a probe
//! attached never gets here: [`Sim::run`] takes the sequential kernel,
//! whose probe stream is the canonical one. The only visible difference
//! is that [`Ctx::spawn`](crate::Ctx::spawn) panics mid-run (see the
//! kernel; worker process tables cannot grow deterministically).

use crate::event::EventQueue;
use crate::kernel::{Core, Ctx, Message, Process, ProcessId, Sim};
use crate::knob::{self, Knob};
use crate::resource::ResourceId;
use crate::time::SimTime;
use crate::trace::{Bucket, TraceDigest};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// A partition of a simulation across worker threads, plus the lookahead
/// promises that make conservative windows safe. Build one from topology
/// (e.g. `hpsock-net`'s `Cluster::shard_plan`) and attach it with
/// [`Sim::set_shard_plan`].
#[derive(Clone)]
pub struct ShardPlan {
    /// Number of worker threads; `1` means the sequential kernel runs.
    pub shards: usize,
    /// Maps every process to its owning shard (must return `< shards`).
    pub resolve_pid: Arc<dyn Fn(ProcessId) -> usize + Send + Sync>,
    /// Maps every resource to its owning shard. A resource must land on
    /// the same shard as every process that uses it (asserted at use).
    pub resolve_rid: Arc<dyn Fn(ResourceId) -> usize + Send + Sync>,
    /// `lookahead[a][b]` is the minimum delay, in nanoseconds, of any
    /// message sent from a process on shard `a` to a process on shard `b`.
    /// `u64::MAX` means "no link" (any such send panics); diagonal entries
    /// are ignored. Every entry must be positive.
    pub lookahead: Arc<Vec<Vec<u64>>>,
    /// Names the physical link behind `lookahead[a][b]` for error messages.
    pub describe_link: Arc<dyn Fn(usize, usize) -> String + Send + Sync>,
}

/// `HPSOCK_SHARDS`: worker threads inside each simulation (default 1,
/// the sequential kernel).
pub static SHARDS: Knob<usize> = Knob::new(
    "HPSOCK_SHARDS",
    |raw| knob::parse_count("HPSOCK_SHARDS", "unset it for the sequential kernel", raw),
    || 1,
);

/// Run `f` with [`configured_shards`] returning `count` on this thread
/// (see [`Knob::with`]).
pub fn with_shard_count<T>(count: usize, f: impl FnOnce() -> T) -> T {
    SHARDS.with(count, f)
}

/// The shard count: a [`with_shard_count`] scope, else `HPSOCK_SHARDS`,
/// else 1.
pub fn configured_shards() -> usize {
    SHARDS.get()
}

/// Clamp a requested shard count to what a topology can use, warning on
/// stderr when the request is reduced. `what` names the topology in the
/// warning (e.g. "the 2-node microbenchmark cluster").
pub fn clamp_shards(requested: usize, max: usize, what: &str) -> usize {
    let max = max.max(1);
    if requested > max {
        eprintln!(
            "warning: HPSOCK_SHARDS={requested} exceeds the {max} usable shard(s) of {what}; \
             clamping to {max}"
        );
        max
    } else {
        requested
    }
}

/// How many rounds between digest deposits (and worker-0 cutoff merges).
/// One merge per round was a measurable per-round tax; once every 256
/// rounds it vanishes from the profile while the held-back buffers stay
/// small (a round's output is bounded by its window).
const FLUSH_EVERY: u64 = 256;

/// A cross-shard event in flight: the exact `(time, key, target, msg)`
/// tuple the sender would have pushed locally.
pub(crate) struct SentEvent {
    pub(crate) time: SimTime,
    pub(crate) key: u64,
    pub(crate) target: ProcessId,
    pub(crate) msg: Message,
}

/// One directed shard pair's in-flight batch slot. The producer appends
/// its whole staged batch once per round; the consumer drains once per
/// round. The mutex is all but uncontended — the two sides touch the
/// slot at most once per round each — and the cache-line alignment keeps
/// neighbouring pairs from false-sharing.
#[repr(align(64))]
#[derive(Default)]
pub(crate) struct PairSlot(pub(crate) Mutex<Vec<SentEvent>>);

/// Worker-local view of the partition, installed as `Core::route` for the
/// duration of a sharded run. `Core::push` consults it to route each keyed
/// push locally or into a worker-local staged batch; the batch is flushed
/// to the destination's [`PairSlot`] once per round.
pub(crate) struct ShardRoute {
    pub(crate) shard: usize,
    pub(crate) owner_pid: Arc<Vec<usize>>,
    pub(crate) owner_rid: Arc<Vec<usize>>,
    pub(crate) lookahead: Arc<Vec<Vec<u64>>>,
    pub(crate) describe: Arc<dyn Fn(usize, usize) -> String + Send + Sync>,
    /// `pairs[src * shards + dst]` is the slot for batches src → dst.
    pub(crate) pairs: Arc<Vec<PairSlot>>,
    /// Per-destination staged batch for the current round (lock-free).
    pub(crate) staged: Vec<Vec<SentEvent>>,
    /// Minimum event time per staged batch (`u64::MAX` when empty);
    /// published with the flush so peers can bound in-flight arrivals.
    pub(crate) staged_min: Vec<u64>,
    /// Cross-shard sends routed by this worker, for telemetry.
    pub(crate) sent: u64,
}

impl ShardRoute {
    /// Panic unless a send landing at `time` honours the lookahead this
    /// shard promised toward `dest` — the invariant the whole window
    /// protocol rests on.
    pub(crate) fn check_lookahead(&self, now: SimTime, time: SimTime, dest: usize) {
        let promised = self.lookahead[self.shard][dest];
        if promised == u64::MAX {
            panic!(
                "cross-shard send from shard {} to shard {}, but the shard plan records \
                 no network link between shards ({})",
                self.shard,
                dest,
                (self.describe)(self.shard, dest),
            );
        }
        let delay = time.as_nanos().saturating_sub(now.as_nanos());
        if delay < promised {
            panic!(
                "lookahead violation on {}: shard {} sent an event to shard {} with \
                 delay {} ns, below the link's promised minimum of {} ns",
                (self.describe)(self.shard, dest),
                self.shard,
                dest,
                delay,
                promised,
            );
        }
    }
}

/// A sense-reversing barrier that spins briefly before parking, and whose
/// waiters can be released by a panicking peer (`poison`). The rounds of a
/// well-balanced sharded run arrive within microseconds of each other, so
/// a short spin converts almost every wait into a handful of cache-line
/// reads instead of a futex round-trip; the park fallback keeps
/// oversubscribed hosts from burning a core. A plain `std::sync::Barrier`
/// would leave the surviving workers blocked forever if one worker
/// panicked (say, on a lookahead violation).
struct SpinBarrier {
    n: usize,
    /// Spin iterations before parking; 0 when the host cannot run all
    /// workers at once (then spinning only steals cycles from the peer
    /// being waited for).
    spin_limit: u32,
    arrived: AtomicUsize,
    generation: AtomicU64,
    poisoned: AtomicBool,
    park: Mutex<()>,
    cv: Condvar,
}

impl SpinBarrier {
    fn new(n: usize) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        SpinBarrier {
            n,
            spin_limit: if cores >= n { 1 << 14 } else { 0 },
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            park: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Block until all `n` workers arrive. Returns `false` if the barrier
    /// was poisoned instead.
    ///
    /// The release/acquire pair on `generation` (chained through the
    /// read-modify-writes on `arrived`) orders every pre-barrier store of
    /// every worker before every post-barrier load of every worker, which
    /// is what lets the round protocol publish its shared state with
    /// `Relaxed` stores.
    fn wait(&self) -> bool {
        if self.poisoned.load(Ordering::Acquire) {
            return false;
        }
        // Read the generation *before* arriving: it cannot advance until
        // all `n` workers (including this one) have arrived, so the value
        // is stable; reading it after could miss the release.
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            // Last arriver: reset the count before releasing the
            // generation, so the next round's arrivals see a zero count.
            self.arrived.store(0, Ordering::Relaxed);
            self.generation
                .store(gen.wrapping_add(1), Ordering::Release);
            // Lock-then-notify so a waiter that checked the generation
            // and is about to park cannot miss the wakeup.
            drop(self.park.lock().unwrap_or_else(PoisonError::into_inner));
            self.cv.notify_all();
            return true;
        }
        let mut spins = 0u32;
        while self.generation.load(Ordering::Acquire) == gen {
            if self.poisoned.load(Ordering::Acquire) {
                return false;
            }
            if spins < self.spin_limit {
                spins += 1;
                std::hint::spin_loop();
            } else {
                let mut guard = self.park.lock().unwrap_or_else(PoisonError::into_inner);
                while self.generation.load(Ordering::Acquire) == gen
                    && !self.poisoned.load(Ordering::Acquire)
                {
                    guard = self.cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
                }
                break;
            }
        }
        !self.poisoned.load(Ordering::Acquire)
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        drop(self.park.lock().unwrap_or_else(PoisonError::into_inner));
        self.cv.notify_all();
    }
}

/// The min-plus transitive closure of a lookahead matrix: `reach[s][d]`
/// is the cheapest total delay of *any* chain of cross-shard links from
/// `s` to `d` (one hop or many), and `reach[d][d]` is the cheapest cycle
/// back into `d`. Ragged windows must bound multi-hop futures — an event
/// dispatched on `s` can cause a send to `a` which causes a send to `d`
/// — so the per-destination window uses this closure, not the raw matrix.
/// Entries stay `u64::MAX` where no chain exists; all finite entries are
/// positive because every link's lookahead is.
fn reach_closure(lookahead: &[Vec<u64>]) -> Vec<Vec<u64>> {
    let n = lookahead.len();
    let mut d: Vec<Vec<u64>> = (0..n)
        .map(|a| {
            (0..n)
                .map(|b| if a == b { u64::MAX } else { lookahead[a][b] })
                .collect()
        })
        .collect();
    for k in 0..n {
        let row_k = d[k].clone();
        for row in d.iter_mut() {
            let dik = row[k];
            if dik == u64::MAX {
                continue;
            }
            for (cell, &via) in row.iter_mut().zip(&row_k) {
                let alt = dik.saturating_add(via);
                if alt < *cell {
                    *cell = alt;
                }
            }
        }
    }
    d
}

/// State shared by all workers for one sharded run. The `next` and
/// `sent_min` arrays are double-buffered by round parity: round `k` reads
/// index `k & 1` and writes index `(k + 1) & 1`, and the barrier orders
/// one round's writes before the next round's reads, so `Relaxed` atomics
/// suffice (see [`SpinBarrier::wait`]).
struct Shared {
    barrier: SpinBarrier,
    /// Per-shard earliest pending local time, in ns (`u64::MAX` = drained).
    next: [Vec<AtomicU64>; 2],
    /// `sent_min[p][src * shards + dst]`: minimum event time of the batch
    /// src flushed toward dst last round (`u64::MAX` = none) — the bound
    /// on in-flight arrivals that keeps early/late slot pickup invisible.
    sent_min: [Vec<AtomicU64>; 2],
    /// Per-shard trace-digest buckets deposited every [`FLUSH_EVERY`]
    /// rounds, each in nondecreasing time order.
    deposits: Vec<Mutex<Vec<Bucket>>>,
    /// Min-plus closure of the plan's lookahead matrix.
    reach: Vec<Vec<u64>>,
}

/// The master digest plus the per-shard held-back bucket streams:
/// deposited buckets at or above the last merge cutoff wait here, in
/// time order, until a later cutoff (or the end of the run) finalizes
/// them. Owned by worker 0 during the run.
struct Sink {
    trace: TraceDigest,
    held_buckets: Vec<Vec<Bucket>>,
}

/// One worker thread's simulator slice: a full-width [`Core`] (foreign
/// rows of the resource/RNG tables are clones that are never touched —
/// misuse is caught by the ownership asserts) plus the processes it owns.
struct Worker {
    my: usize,
    core: Core,
    procs: Vec<Option<Box<dyn Process>>>,
    sink: Option<Sink>,
    /// Wall-clock round samples, worker-local (see [`crate::telemetry`]);
    /// `None` unless `HPSOCK_TELEMETRY` (or its scoped override) is set.
    tel: Option<crate::telemetry::WorkerTelemetry>,
}

/// Execute `sim` across `plan.shards` worker threads until every queue
/// drains; semantics of [`Sim::run`], same results. `sim` has no probe.
pub(crate) fn run_sharded(sim: &mut Sim, plan: &ShardPlan) -> SimTime {
    sim.start_new_processes();
    let shards = plan.shards;
    let n_procs = sim.procs.len();
    let n_res = sim.core.resources.len();
    let owner_pid: Arc<Vec<usize>> = Arc::new(
        (0..n_procs)
            .map(|i| {
                let s = (plan.resolve_pid)(ProcessId(i));
                assert!(
                    s < shards,
                    "shard plan assigned process {i} to shard {s}, but there are only {shards} shards"
                );
                s
            })
            .collect(),
    );
    let owner_rid: Arc<Vec<usize>> = Arc::new(
        (0..n_res)
            .map(|i| {
                let s = (plan.resolve_rid)(ResourceId(i));
                assert!(
                    s < shards,
                    "shard plan assigned resource {i} to shard {s}, but there are only {shards} shards"
                );
                s
            })
            .collect(),
    );
    let pairs: Arc<Vec<PairSlot>> =
        Arc::new((0..shards * shards).map(|_| PairSlot::default()).collect());
    // Telemetry is resolved once per run; when enabled, each worker gets a
    // private sample buffer stamped against a common epoch so the flush
    // can lay every lane on one wall-clock timeline.
    let tel_dir = crate::telemetry::configured_telemetry();
    let run_start = std::time::Instant::now();

    let mut workers: Vec<Worker> = (0..shards)
        .map(|s| Worker {
            my: s,
            core: Core {
                now: sim.core.now,
                queue: EventQueue::new(),
                resources: sim.core.resources.clone(),
                rngs: sim.core.rngs.clone(),
                trace: TraceDigest::new_logged(),
                master_seed: sim.core.master_seed,
                pending_spawns: Vec::new(),
                next_pid: sim.core.next_pid,
                events_dispatched: 0,
                flows_completed: 0,
                push_counts: sim.core.push_counts.clone(),
                probe: None,
                route: Some(Box::new(ShardRoute {
                    shard: s,
                    owner_pid: owner_pid.clone(),
                    owner_rid: owner_rid.clone(),
                    lookahead: plan.lookahead.clone(),
                    describe: plan.describe_link.clone(),
                    pairs: pairs.clone(),
                    staged: (0..shards).map(|_| Vec::new()).collect(),
                    staged_min: vec![u64::MAX; shards],
                    sent: 0,
                })),
            },
            procs: (0..n_procs).map(|_| None).collect(),
            sink: None,
            tel: tel_dir
                .as_ref()
                .map(|_| crate::telemetry::WorkerTelemetry::new(s, run_start)),
        })
        .collect();

    // Move each owned process in; the master table keeps the `None` holes.
    for i in 0..n_procs {
        let s = owner_pid[i];
        workers[s].procs[i] = Some(
            sim.procs[i]
                .take()
                .expect("process checked in between runs"),
        );
    }
    // Worker 0 merges deposit flushes into the real digest.
    workers[0].sink = Some(Sink {
        trace: std::mem::take(&mut sim.core.trace),
        held_buckets: (0..shards).map(|_| Vec::new()).collect(),
    });
    // Distribute the pending global queue by event target, keys intact.
    while let Some(ev) = sim.core.queue.pop() {
        let s = owner_pid[ev.target.0];
        workers[s]
            .core
            .queue
            .push(ev.time, ev.seq, ev.target, ev.msg);
    }

    let au64 = |n: usize, v: u64| (0..n).map(|_| AtomicU64::new(v)).collect::<Vec<_>>();
    let shared = Shared {
        barrier: SpinBarrier::new(shards),
        next: [au64(shards, u64::MAX), au64(shards, u64::MAX)],
        sent_min: [
            au64(shards * shards, u64::MAX),
            au64(shards * shards, u64::MAX),
        ],
        deposits: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
        reach: reach_closure(&plan.lookahead),
    };
    // Round 0 reads parity 0: seed it with the distributed queues' state.
    for (s, w) in workers.iter().enumerate() {
        let next = w.core.queue.peek_time().map_or(u64::MAX, |t| t.as_nanos());
        shared.next[0][s].store(next, Ordering::Relaxed);
    }

    // Run the round protocol. A panic in any worker poisons the barrier so
    // the others unwind instead of deadlocking, then resurfaces here.
    let panic_slot: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for w in workers.iter_mut() {
            let shared = &shared;
            let panic_slot = &panic_slot;
            scope.spawn(move || {
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    worker_loop(w, shared)
                }));
                if let Err(payload) = run {
                    *panic_slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(payload);
                    shared.barrier.poison();
                }
                // Free this thread's payload pool and parked buffers now,
                // inside the run, rather than during thread exit, where
                // the frees would overlap the caller's next job.
                crate::arena::trim();
            });
        }
    });
    if let Some(payload) = panic_slot
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        std::panic::resume_unwind(payload);
    }

    // Flush telemetry now that the worker threads have joined: the wall
    // clock stops here, and every sample buffer is back in this frame —
    // nothing touched shared state on the dispatch path.
    if let Some(dir) = tel_dir {
        let wall_ns = run_start.elapsed().as_nanos() as u64;
        let run_events: u64 = workers.iter().map(|w| w.core.events_dispatched).sum();
        let run_flows: u64 = workers.iter().map(|w| w.core.flows_completed).sum();
        let bufs: Vec<crate::telemetry::WorkerTelemetry> =
            workers.iter_mut().filter_map(|w| w.tel.take()).collect();
        crate::telemetry::flush_sharded(&dir, wall_ns, run_events, run_flows, &bufs);
    }

    // Final residual merge: any deposits the in-run cadence left behind,
    // plus each worker's buckets since its last deposit, merged with an
    // unbounded cutoff.
    let mut sink = workers[0].sink.take().expect("worker 0 owns the sink");
    for (s, w) in workers.iter_mut().enumerate() {
        sink.held_buckets[s].append(
            &mut shared.deposits[s]
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        sink.held_buckets[s].extend(w.core.trace.take_log());
    }
    merge_held(&mut sink, u64::MAX);
    sim.core.trace = sink.trace;

    // Reassemble the master simulator from the worker slices. The workers
    // left on a round that found every queue and in-flight batch empty.
    debug_assert!(
        workers.iter().all(|w| w.core.queue.is_empty())
            && pairs
                .iter()
                .all(|slot| slot.0.lock().is_ok_and(|v| v.is_empty())),
        "a sharded run ended with events still pending"
    );
    for mut w in workers {
        sim.core.now = sim.core.now.max(w.core.now);
        sim.core.events_dispatched += w.core.events_dispatched;
        // Defensive: mid-run spawn panics under sharding, but if a worker
        // core ever advanced its pid counter, don't hand out stale ids.
        sim.core.next_pid = sim.core.next_pid.max(w.core.next_pid);
        for i in 0..n_procs {
            if owner_pid[i] == w.my {
                sim.procs[i] = w.procs[i].take();
                std::mem::swap(&mut sim.core.rngs[i], &mut w.core.rngs[i]);
                sim.core.push_counts[i + 1] = w.core.push_counts[i + 1];
            }
        }
        for j in 0..n_res {
            if owner_rid[j] == w.my {
                std::mem::swap(&mut sim.core.resources[j], &mut w.core.resources[j]);
            }
        }
    }
    sim.core.now
}

/// One worker's round loop; returns when the run has drained on every
/// shard or the barrier is poisoned by a panicking peer.
fn worker_loop(w: &mut Worker, sh: &Shared) {
    let shards = sh.deposits.len();
    let my = w.my;
    let mut round: u64 = 0;
    let mut next_buf = vec![u64::MAX; shards];
    let mut sent_before: u64 = 0;
    loop {
        // Telemetry stopwatch for this round, off the hot path: one
        // `Instant::now` per protocol step, only when telemetry is on,
        // recorded into this worker's private buffer.
        let mut clock = w
            .tel
            .as_ref()
            .map(|t| crate::telemetry::RoundClock::start(t.epoch));
        if !sh.barrier.wait() {
            return;
        }
        if let Some(c) = clock.as_mut() {
            c.barrier();
        }
        let p = (round & 1) as usize;
        // Effective earliest pending time per shard: the published local
        // minimum folded with the minima of batches still in flight
        // toward it. Every worker reads the same parity-`p` values (all
        // written last round, sequenced by the barrier), so every worker
        // computes the same `next_buf`, the same exit decision and —
        // through `reach` — a deterministic window, regardless of
        // whether any in-flight batch was already picked up.
        let mut min_next = u64::MAX;
        for (d, buf) in next_buf.iter_mut().enumerate() {
            let mut n = sh.next[p][d].load(Ordering::Relaxed);
            for s in 0..shards {
                n = n.min(sh.sent_min[p][s * shards + d].load(Ordering::Relaxed));
            }
            *buf = n;
            min_next = min_next.min(n);
        }
        // Nothing pending anywhere, in a queue or in flight: the run has
        // drained. Every worker leaves on the same round; the exit round
        // itself is not logged (telemetry) and not merged (the caller's
        // final merge picks up the remainder).
        if min_next == u64::MAX {
            return;
        }
        // Worker 0 folds the deposits of the last FLUSH_EVERY rounds
        // while its peers dispatch this round; the cutoff guarantees no
        // later deposit can add entries below what it finalizes.
        if my == 0 && round > 0 && round % FLUSH_EVERY == 0 {
            merge_deposits(
                sh,
                w.sink.as_mut().expect("worker 0 owns the sink"),
                min_next,
            );
        }
        if let Some(c) = clock.as_mut() {
            c.merged();
        }
        // This shard's ragged window: nothing can arrive below
        // `min over s of next(s) + reach(s, my)` — including chains that
        // leave `my` and come back (the `s == my` term).
        let mut w_end = u64::MAX;
        for (s, &n) in next_buf.iter().enumerate() {
            w_end = w_end.min(n.saturating_add(sh.reach[s][my]));
        }
        // Drain the batches peers flushed toward this shard.
        let mut recv = 0u64;
        {
            let route = w.core.route.as_ref().expect("sharded core has a route");
            for s in 0..shards {
                if s == my {
                    continue;
                }
                let mut slot = route.pairs[s * shards + my]
                    .0
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                recv += slot.len() as u64;
                for ev in slot.drain(..) {
                    w.core.queue.push(ev.time, ev.key, ev.target, ev.msg);
                }
            }
        }
        if let Some(c) = clock.as_mut() {
            c.drained();
        }
        // Dispatch every local event strictly below the window, exactly
        // as the sequential kernel would.
        let before = w.core.events_dispatched;
        while let Some(t) = w.core.queue.peek_time() {
            if t.as_nanos() >= w_end {
                break;
            }
            let ev = w.core.queue.pop().expect("peeked event exists");
            debug_assert!(ev.time >= w.core.now, "time must not run backwards");
            w.core.now = ev.time;
            w.core.events_dispatched += 1;
            w.core.trace.record(ev.time, ev.target);
            let proc = w
                .procs
                .get_mut(ev.target.0)
                .unwrap_or_else(|| panic!("message to unknown process {:?}", ev.target))
                .as_deref_mut()
                .expect("event routed to this shard targets a process it hosts");
            let mut ctx = Ctx {
                core: &mut w.core,
                pid: ev.target,
            };
            proc.on_message(&mut ctx, ev.msg);
        }
        if let Some(c) = clock.as_mut() {
            c.dispatched();
        }
        // Publish next-round state into parity `q` and flush the staged
        // batches — one lock per non-empty pair, the round's only
        // cross-thread writes besides the barrier itself.
        let q = p ^ 1;
        let next = w.core.queue.peek_time().map_or(u64::MAX, |t| t.as_nanos());
        sh.next[q][my].store(next, Ordering::Relaxed);
        {
            let route = w.core.route.as_mut().expect("sharded core has a route");
            for d in 0..shards {
                if d == my {
                    continue;
                }
                sh.sent_min[q][my * shards + d].store(route.staged_min[d], Ordering::Relaxed);
                route.staged_min[d] = u64::MAX;
                if !route.staged[d].is_empty() {
                    route.pairs[my * shards + d]
                        .0
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .append(&mut route.staged[d]);
                }
            }
        }
        // Deposit the accumulated digest buckets on the flush cadence;
        // worker 0 merges them behind the next cutoff.
        if (round + 1) % FLUSH_EVERY == 0 {
            sh.deposits[my]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .extend(w.core.trace.take_log());
        }
        if let Some(c) = clock.take() {
            let sent_now = w.core.route.as_ref().map_or(0, |r| r.sent);
            let sample = c.finish(
                w_end.saturating_sub(min_next),
                w.core.events_dispatched - before,
                sent_now - sent_before,
                recv,
            );
            sent_before = sent_now;
            w.tel
                .as_mut()
                .expect("clock implies a telemetry buffer")
                .rounds
                .push(sample);
        }
        round += 1;
    }
}

/// Drain every shard's deposit into the held-back streams, then merge
/// everything strictly below `cutoff` into the master digest.
fn merge_deposits(sh: &Shared, sink: &mut Sink, cutoff: u64) {
    for (s, dep) in sh.deposits.iter().enumerate() {
        sink.held_buckets[s].append(&mut dep.lock().unwrap_or_else(PoisonError::into_inner));
    }
    merge_held(sink, cutoff);
}

/// Merge the held per-shard streams' prefixes below `cutoff` (exclusive)
/// into the master digest, keeping the remainders held. Each held stream
/// is nondecreasing in time, successive cutoffs are nondecreasing, and
/// everything merged is final — no later dispatch can produce an entry
/// below a cutoff that was once a global minimum — so
/// `absorb`'s nondecreasing-time requirement holds across calls.
fn merge_held(sink: &mut Sink, cutoff: u64) {
    let shards = sink.held_buckets.len();
    // Digest buckets: k-way merge by time. Each shard's stream is
    // strictly increasing in time, so there is at most one bucket per
    // shard per instant; `absorb` folds same-instant buckets from
    // different shards into one, which is where the commutative bucket
    // hash pays off.
    let mut logs: Vec<Vec<Bucket>> = Vec::with_capacity(shards);
    for held in sink.held_buckets.iter_mut() {
        let at = held.partition_point(|b| b.time.as_nanos() < cutoff);
        let rest = held.split_off(at);
        logs.push(std::mem::replace(held, rest));
    }
    let mut idx = vec![0usize; shards];
    loop {
        let mut t_min: Option<SimTime> = None;
        for s in 0..shards {
            if let Some(b) = logs[s].get(idx[s]) {
                t_min = Some(t_min.map_or(b.time, |t| t.min(b.time)));
            }
        }
        let Some(t) = t_min else { break };
        for s in 0..shards {
            if logs[s].get(idx[s]).is_some_and(|b| b.time == t) {
                sink.trace.absorb(&logs[s][idx[s]]);
                idx[s] += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;

    #[test]
    fn shard_count_parsing_is_strict() {
        assert_eq!(SHARDS.resolve("1"), Ok(1));
        assert_eq!(SHARDS.resolve(" 4 "), Ok(4));
        assert_eq!(
            SHARDS.resolve("0"),
            Err("HPSOCK_SHARDS must be >= 1, got 0 (unset it for the sequential kernel)".into())
        );
        assert_eq!(
            SHARDS.resolve("-2"),
            Err("HPSOCK_SHARDS must be a positive integer, got \"-2\"".into())
        );
        assert_eq!(
            SHARDS.resolve("both"),
            Err("HPSOCK_SHARDS must be a positive integer, got \"both\"".into())
        );
        assert_eq!(
            SHARDS.resolve(""),
            Err("HPSOCK_SHARDS must be a positive integer, got \"\"".into())
        );
    }

    #[test]
    fn with_shard_count_overrides_and_restores() {
        // Nesting and unwind restore are the knob's (`knob::tests`); this
        // checks the public pair reads and writes the same knob.
        assert_eq!(with_shard_count(3, configured_shards), 3);
        assert_eq!(with_shard_count(2, || SHARDS.get()), 2);
        assert_eq!(SHARDS.with(4, configured_shards), 4);
    }

    #[test]
    fn shard_count_clamps_to_topology_capacity() {
        assert_eq!(clamp_shards(4, 2, "a 2-node cluster"), 2);
        assert_eq!(clamp_shards(2, 2, "a 2-node cluster"), 2);
        assert_eq!(clamp_shards(1, 7, "the pipeline"), 1);
        // A degenerate topology (no usable split) still yields a runnable
        // count of one rather than zero.
        assert_eq!(clamp_shards(3, 0, "an empty cluster"), 1);
    }

    #[test]
    fn reach_closure_covers_multi_hop_chains_and_cycles() {
        // 0 → 1 (10), 1 → 2 (20), 2 → 0 (5); no direct 0 → 2 link.
        let m = u64::MAX;
        let la = vec![vec![m, 10, m], vec![m, m, 20], vec![5, m, m]];
        let r = reach_closure(&la);
        assert_eq!(r[0][1], 10, "direct hop");
        assert_eq!(r[0][2], 30, "two-hop chain 0→1→2");
        assert_eq!(r[1][0], 25, "two-hop chain 1→2→0");
        assert_eq!(r[0][0], 35, "cheapest cycle 0→1→2→0");
        assert_eq!(r[1][1], 35);
        assert_eq!(r[2][2], 35);
        // A disconnected pair stays unreachable.
        let la2 = vec![vec![m, 7], vec![m, m]];
        let r2 = reach_closure(&la2);
        assert_eq!(r2[0][1], 7);
        assert_eq!(r2[1][0], m);
        assert_eq!(r2[0][0], m, "no cycle without a return link");
        // Uniform all-pairs lookahead: one hop out, two hops back home.
        let la3 = vec![vec![m, 100], vec![100, m]];
        let r3 = reach_closure(&la3);
        assert_eq!(r3[0][1], 100);
        assert_eq!(r3[0][0], 200);
    }

    /// An even split of pids across `shards` with a uniform `la`-ns
    /// lookahead between every shard pair.
    fn plan(
        shards: usize,
        la: u64,
        pid_to_shard: impl Fn(usize) -> usize + Send + Sync + 'static,
    ) -> ShardPlan {
        let lookahead = (0..shards)
            .map(|a| {
                (0..shards)
                    .map(|b| if a == b { u64::MAX } else { la })
                    .collect()
            })
            .collect();
        ShardPlan {
            shards,
            resolve_pid: Arc::new(move |pid: ProcessId| pid_to_shard(pid.0)),
            resolve_rid: Arc::new(|_| 0),
            lookahead: Arc::new(lookahead),
            describe_link: Arc::new(|a, b| format!("test link {a}->{b}")),
        }
    }

    /// A ring of processes, each forwarding with a fixed delay and using a
    /// per-process resource, with RNG-perturbed payloads.
    struct RingHop {
        nextp: ProcessId,
        cpu: ResourceId,
        hops_left: u32,
        heard: Vec<u64>,
    }

    impl Process for RingHop {
        fn name(&self) -> String {
            format!("ring-hop->{}", self.nextp.0)
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            use rand::RngCore;
            match msg.downcast::<u64>() {
                Ok(v) => {
                    self.heard.push(v);
                    ctx.trace_tag(v);
                    if self.hops_left > 0 {
                        self.hops_left -= 1;
                        let jitter: u64 = ctx.rng().next_u64() % 100;
                        // Local work completes first, then the forward.
                        ctx.use_resource(self.cpu, Dur::nanos(250 + jitter), Message::new(()));
                        ctx.send_in(Dur::micros(10), self.nextp, Message::new(v + 1));
                    }
                }
                Err(_) => ctx.trace_tag(0xC0FFEE), // resource completion
            }
        }
    }

    /// Build a 4-process ring over `shards` shards (pid i -> shard i %
    /// shards), with one resource per process, and run it.
    fn run_ring(shards: usize) -> (u64, u64, u64, Vec<Vec<u64>>) {
        let mut sim = Sim::new(42);
        let n = 4;
        let cpus: Vec<ResourceId> = (0..n)
            .map(|i| sim.add_resource(format!("cpu{i}"), 1))
            .collect();
        let pids: Vec<ProcessId> = (0..n)
            .map(|i| {
                sim.add_process(Box::new(RingHop {
                    nextp: ProcessId((i + 1) % n),
                    cpu: cpus[i],
                    hops_left: 25,
                    heard: Vec::new(),
                }))
            })
            .collect();
        if shards > 1 {
            let k = shards;
            let mut p = plan(k, 10_000, move |pid| pid % k);
            // Resource i belongs with process i.
            p.resolve_rid = Arc::new(move |rid: ResourceId| rid.0 % k);
            sim.set_shard_plan(p);
        }
        sim.schedule_at(SimTime::ZERO, pids[0], Message::new(1u64));
        let end = sim.run();
        let heard = pids
            .iter()
            .map(|&p| sim.process::<RingHop>(p).unwrap().heard.clone())
            .collect();
        (
            end.as_nanos(),
            sim.trace_digest(),
            sim.events_dispatched(),
            heard,
        )
    }

    #[test]
    fn sharded_ring_matches_sequential() {
        let seq = run_ring(1);
        assert_eq!(run_ring(2), seq, "2 shards must replay the sequential run");
        assert_eq!(run_ring(4), seq, "4 shards must replay the sequential run");
    }

    /// A plan that leaves one or more shards without any process must
    /// still round-trip: empty shards publish `u64::MAX` forever, never
    /// dispatch, and must not stall or perturb the others.
    #[test]
    fn empty_shards_keep_digest_identity() {
        let run = |shards: usize, to_shard: fn(usize) -> usize| {
            let mut sim = Sim::new(42);
            let cpus: Vec<ResourceId> = (0..4)
                .map(|i| sim.add_resource(format!("cpu{i}"), 1))
                .collect();
            for (i, &cpu) in cpus.iter().enumerate() {
                sim.add_process(Box::new(RingHop {
                    nextp: ProcessId((i + 1) % 4),
                    cpu,
                    hops_left: 12,
                    heard: Vec::new(),
                }));
            }
            if shards > 1 {
                let mut p = plan(shards, 10_000, to_shard);
                p.resolve_rid = Arc::new(move |rid: ResourceId| to_shard(rid.0));
                sim.set_shard_plan(p);
            }
            sim.schedule_at(SimTime::ZERO, ProcessId(0), Message::new(1u64));
            sim.run();
            (sim.trace_digest(), sim.events_dispatched())
        };
        let seq = run(1, |_| 0);
        // 2 shards, everything on shard 0 — shard 1 is empty.
        assert_eq!(run(2, |_| 0), seq, "one empty shard of two");
        // 4 shards, pids split over shards 0/1 — shards 2 and 3 are empty.
        assert_eq!(run(4, |pid| pid % 2), seq, "two empty shards of four");
    }

    /// A scratch telemetry directory unique to this test, cleaned on drop.
    struct TelDir(std::path::PathBuf);
    impl TelDir {
        fn new(name: &str) -> Self {
            let dir = std::env::temp_dir()
                .join(format!("hpsock_shard_tel_{}_{name}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            TelDir(dir)
        }
        fn read(&self, file: &str) -> String {
            std::fs::read_to_string(self.0.join(file))
                .unwrap_or_else(|e| panic!("telemetry file {file} missing: {e}"))
        }
    }
    impl Drop for TelDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// First `"key": <integer>` in a hand-written run_report.json (the
    /// top-level fields precede the per-worker array, so the first match
    /// is the run-level value).
    fn json_u64(json: &str, key: &str) -> u64 {
        let pat = format!("\"{key}\": ");
        let at = json
            .find(&pat)
            .unwrap_or_else(|| panic!("no {key} in {json}"));
        json[at + pat.len()..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .expect("integer field")
    }

    /// Exactness of the telemetry accounting: the per-round `events`
    /// column of `shard_rounds.csv` sums to the run's dispatched-event
    /// count, every worker reports the same number of rounds, and
    /// cross-shard traffic is visible in the sent/recv columns.
    #[test]
    fn telemetry_round_events_sum_to_dispatched_events() {
        let tel = TelDir::new("sum");
        let (_, _, events, _) = crate::telemetry::with_telemetry_dir(Some(&tel.0), || run_ring(2));
        let csv = tel.read("shard_rounds.csv");
        let mut lines = csv.lines();
        assert_eq!(
            lines.next(),
            Some("round,worker,window_ns,events,sent,recv,barrier_wait_ns,busy_ns,idle_frac"),
            "pinned CSV header"
        );
        let mut summed = 0u64;
        let (mut sent, mut recv) = (0u64, 0u64);
        let mut rounds_per_worker = std::collections::BTreeMap::<u64, u64>::new();
        for line in lines {
            let cols: Vec<&str> = line.split(',').collect();
            assert_eq!(cols.len(), 9, "malformed row: {line}");
            *rounds_per_worker
                .entry(cols[1].parse().unwrap())
                .or_default() += 1;
            summed += cols[3].parse::<u64>().unwrap();
            sent += cols[4].parse::<u64>().unwrap();
            recv += cols[5].parse::<u64>().unwrap();
        }
        assert_eq!(summed, events, "CSV events sum to the dispatched total");
        assert!(sent > 0, "the ring routes cross-shard messages");
        assert!(recv > 0, "workers fold cross-shard messages back in");
        let counts: Vec<u64> = rounds_per_worker.values().copied().collect();
        assert_eq!(rounds_per_worker.len(), 2, "one lane per worker");
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "workers exit together, so they log the same round count: {counts:?}"
        );
        let report = tel.read("run_report.json");
        assert_eq!(json_u64(&report, "events"), events);
        assert_eq!(json_u64(&report, "shards"), 2);
        assert_eq!(json_u64(&report, "rounds"), counts[0]);
        assert!(!tel.read("shard_lanes.json").is_empty(), "lanes emitted");
    }

    /// Digest-identical runs agree on the run-report accounting: the same
    /// events total at 1/2/4 shards. (Round counts are *not* compared
    /// across shard counts: with ragged per-destination windows even a
    /// uniform lookahead yields partition-dependent window sequences —
    /// the self-cycle `reach` term depends on the shard graph.) The
    /// sequential report has no rounds to count and says so.
    #[test]
    fn telemetry_reports_agree_across_shard_counts() {
        let with_tel = |name: &str, shards: usize| {
            let tel = TelDir::new(name);
            let out = crate::telemetry::with_telemetry_dir(Some(&tel.0), || run_ring(shards));
            (out, tel.read("run_report.json"))
        };
        let (seq, seq_rep) = with_tel("seq", 1);
        let (two, two_rep) = with_tel("two", 2);
        let (four, four_rep) = with_tel("four", 4);
        assert_eq!(two, seq, "telemetry-on sharded run replays sequential");
        assert_eq!(four, seq);
        for rep in [&seq_rep, &two_rep, &four_rep] {
            assert_eq!(json_u64(rep, "events"), seq.2, "events agree: {rep}");
        }
        assert!(seq_rep.contains("\"mode\": \"sequential\""));
        assert_eq!(json_u64(&seq_rep, "rounds"), 0);
        assert!(json_u64(&two_rep, "rounds") > 0);
        assert!(json_u64(&four_rep, "rounds") > 0);
    }

    #[test]
    fn sharded_resources_carry_stats_back() {
        let stats = |shards: usize| {
            let mut sim = Sim::new(7);
            let cpus: Vec<ResourceId> = (0..2)
                .map(|i| sim.add_resource(format!("cpu{i}"), 1))
                .collect();
            for (i, &cpu) in cpus.iter().enumerate() {
                sim.add_process(Box::new(RingHop {
                    nextp: ProcessId((i + 1) % 2),
                    cpu,
                    hops_left: 10,
                    heard: Vec::new(),
                }));
            }
            if shards > 1 {
                let mut p = plan(2, 10_000, |pid| pid % 2);
                p.resolve_rid = Arc::new(|rid: ResourceId| rid.0 % 2);
                sim.set_shard_plan(p);
            }
            sim.schedule_at(SimTime::ZERO, ProcessId(0), Message::new(1u64));
            sim.run();
            (0..2)
                .map(|i| sim.resource(cpus[i]).busy_time().as_nanos())
                .collect::<Vec<_>>()
        };
        assert_eq!(stats(2), stats(1));
    }

    /// A probed run ignores its shard plan: every probe event, rendered to
    /// text with the thread that recorded it, comes back exactly as the
    /// sequential run records it, on the calling thread.
    #[test]
    fn probed_run_stays_on_the_sequential_path() {
        use crate::probe::{Probe, ProbeEvent};
        struct TextProbe {
            lines: Arc<Mutex<Vec<String>>>,
        }
        impl Probe for TextProbe {
            fn record(&mut self, ev: ProbeEvent) {
                let thread = std::thread::current().id();
                self.lines
                    .lock()
                    .unwrap()
                    .push(format!("{thread:?} {ev:?}"));
            }
        }
        let run = |shards: usize| {
            let lines = Arc::new(Mutex::new(Vec::new()));
            let mut sim = Sim::new(3);
            sim.attach_probe(Box::new(TextProbe {
                lines: lines.clone(),
            }));
            let cpus: Vec<ResourceId> = (0..4)
                .map(|i| sim.add_resource(format!("cpu{i}"), 1))
                .collect();
            for (i, &cpu) in cpus.iter().enumerate() {
                sim.add_process(Box::new(RingHop {
                    nextp: ProcessId((i + 1) % 4),
                    cpu,
                    hops_left: 15,
                    heard: Vec::new(),
                }));
            }
            if shards > 1 {
                let k = shards;
                let mut p = plan(k, 10_000, move |pid| pid % k);
                p.resolve_rid = Arc::new(move |rid: ResourceId| rid.0 % k);
                sim.set_shard_plan(p);
            }
            sim.schedule_at(SimTime::ZERO, ProcessId(0), Message::new(1u64));
            sim.run();
            drop(sim);
            Arc::try_unwrap(lines).unwrap().into_inner().unwrap()
        };
        let seq = run(1);
        assert!(!seq.is_empty());
        assert_eq!(run(2), seq);
        assert_eq!(run(4), seq);
    }

    #[test]
    #[should_panic(expected = "lookahead violation")]
    fn undersized_cross_shard_delay_panics() {
        struct Eager {
            peer: ProcessId,
        }
        impl Process for Eager {
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _msg: Message) {
                // 1 ns is far below the 10 us the plan promised.
                ctx.send_in(Dur::nanos(1), self.peer, Message::new(()));
            }
        }
        struct SinkProc;
        impl Process for SinkProc {
            fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {}
        }
        let mut sim = Sim::new(0);
        let b = ProcessId(1);
        sim.add_process(Box::new(Eager { peer: b }));
        sim.add_process(Box::new(SinkProc));
        sim.set_shard_plan(plan(2, 10_000, |pid| pid % 2));
        sim.schedule_at(SimTime::ZERO, ProcessId(0), Message::new(()));
        sim.run();
    }

    #[test]
    #[should_panic(expected = "no network link between shards")]
    fn unlinked_shards_cannot_exchange_events() {
        struct Eager {
            peer: ProcessId,
        }
        impl Process for Eager {
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _msg: Message) {
                ctx.send_in(Dur::micros(50), self.peer, Message::new(()));
            }
        }
        struct SinkProc;
        impl Process for SinkProc {
            fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {}
        }
        let mut sim = Sim::new(0);
        let b = ProcessId(1);
        sim.add_process(Box::new(Eager { peer: b }));
        sim.add_process(Box::new(SinkProc));
        sim.set_shard_plan(plan(2, u64::MAX, |pid| pid % 2));
        sim.schedule_at(SimTime::ZERO, ProcessId(0), Message::new(()));
        sim.run();
    }

    #[test]
    #[should_panic(expected = "called Ctx::spawn during a sharded run")]
    fn spawn_mid_run_panics_under_sharding() {
        struct Spawner;
        impl Process for Spawner {
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _msg: Message) {
                struct Late;
                impl Process for Late {
                    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {}
                }
                ctx.spawn(Box::new(Late));
            }
        }
        struct Quiet;
        impl Process for Quiet {
            fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {}
        }
        let mut sim = Sim::new(0);
        sim.add_process(Box::new(Spawner));
        sim.add_process(Box::new(Quiet));
        sim.set_shard_plan(plan(2, 10_000, |pid| pid % 2));
        sim.schedule_at(SimTime::ZERO, ProcessId(0), Message::new(()));
        sim.run();
    }

    #[test]
    fn zero_diagonal_lookahead_is_accepted() {
        // The diagonal is documented as ignored, so a plan that fills it
        // with 0 (a natural encoding of same-shard "links") must pass the
        // positivity check that guards real cross-shard entries — and run
        // to the same result as the sequential kernel.
        let run = |with_plan: bool| {
            let mut sim = Sim::new(42);
            let cpus: Vec<ResourceId> = (0..2)
                .map(|i| sim.add_resource(format!("cpu{i}"), 1))
                .collect();
            for (i, &cpu) in cpus.iter().enumerate() {
                sim.add_process(Box::new(RingHop {
                    nextp: ProcessId((i + 1) % 2),
                    cpu,
                    hops_left: 5,
                    heard: Vec::new(),
                }));
            }
            if with_plan {
                let mut p = plan(2, 10_000, |pid| pid % 2);
                let mut la = (*p.lookahead).clone();
                la[0][0] = 0;
                la[1][1] = 0;
                p.lookahead = Arc::new(la);
                p.resolve_rid = Arc::new(|rid: ResourceId| rid.0 % 2);
                sim.set_shard_plan(p);
            }
            sim.schedule_at(SimTime::ZERO, ProcessId(0), Message::new(1u64));
            sim.run();
            (sim.trace_digest(), sim.events_dispatched())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn single_shard_plan_stays_on_the_sequential_path() {
        let digest = |with_plan: bool| {
            let mut sim = Sim::new(5);
            let cpu = sim.add_resource("cpu", 1);
            sim.add_process(Box::new(RingHop {
                nextp: ProcessId(0),
                cpu,
                hops_left: 8,
                heard: Vec::new(),
            }));
            if with_plan {
                sim.set_shard_plan(plan(1, 10_000, |_| 0));
            }
            sim.schedule_at(SimTime::ZERO, ProcessId(0), Message::new(1u64));
            sim.run();
            (sim.trace_digest(), sim.events_dispatched())
        };
        assert_eq!(digest(true), digest(false));
    }
}
