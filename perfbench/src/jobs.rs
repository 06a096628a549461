//! What every workload shares: the job type, the seeded generator, the
//! run step (with the counting probe and telemetry on a counting
//! repetition) and the layer read-outs.

use crate::trace::{CountProbe, Counts, Tracer};
use hpsock_datacutter::{FilterHandle, Instance};
use hpsock_net::{ConnId, Network, NodeCore, NodeId};
use hpsock_sim::{telemetry, Sim, SimTime};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Where a counting repetition sends its counts.
pub struct CountSink {
    /// Layer counters of the repetition.
    pub counts: Arc<Mutex<Counts>>,
    /// Directory `telemetry::with_telemetry_dir` writes run reports to.
    pub telemetry_dir: PathBuf,
}

/// Per-job context handed in by the repetition loop.
pub struct Ctx<'a> {
    /// Span recorder (disabled on untraced repetitions).
    pub tr: &'a mut Tracer,
    /// Set on the traced run's counting repetition only.
    pub count: Option<&'a CountSink>,
}

/// What one job reports back.
#[derive(Debug, Clone)]
pub struct JobOut {
    /// Host ns spent before `Sim::run`.
    pub setup_ns: u64,
    /// Host ns inside `Sim::run`.
    pub run_ns: u64,
    /// Events the simulator dispatched.
    pub events: u64,
    /// The simulator's trace digest.
    pub digest: u64,
    /// The job's own output check.
    pub check: Result<(), String>,
}

/// One job: builds one `Sim`, runs it and reads out the result.
pub struct Job {
    /// Human-readable description, used in failure messages.
    pub label: String,
    /// The job itself.
    pub run: Box<dyn Fn(&mut Ctx<'_>) -> JobOut>,
}

/// A check made once, outside the timed repetitions.
pub type PreCheck = Box<dyn FnOnce() -> Result<(), String>>;

/// A generated workload: its fixed job list plus its one-off checks.
pub struct Workload {
    /// Jobs of one repetition, in run order.
    pub jobs: Vec<Job>,
    /// Checks made before timing (they also warm caches and allocators).
    pub pre_checks: Vec<PreCheck>,
    /// Host seconds one repetition takes on the reference host; sets the
    /// repetition count so that a run measures about `--seconds`.
    pub nominal_rep_s: f64,
}

/// splitmix64: the benchmark's input generator.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            xs.swap(i, j);
        }
    }
}

/// Nanoseconds since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Run `sim` inside the `sim.run` span and return `(end, host ns)`. On a
/// counting repetition the counting probe is attached (unless the run is
/// sharded: the sharded kernel buffers probe streams for replay) and
/// telemetry is on, so the kernel's run report feeds the flow and shard
/// counters.
pub fn run_sim(ctx: &mut Ctx<'_>, sim: &mut Sim, sharded: bool) -> (SimTime, u64) {
    let Some(sink) = ctx.count else {
        let t = Instant::now();
        let end = ctx.tr.scope("sim.run", || sim.run());
        return (end, ns_since(t));
    };
    if !sharded {
        sim.attach_probe(CountProbe::boxed(Arc::clone(&sink.counts)));
    }
    let dir = sink.telemetry_dir.clone();
    let t = Instant::now();
    let end = ctx.tr.scope("sim.run", || {
        telemetry::with_telemetry_dir(Some(&dir), || sim.run())
    });
    let run_ns = ns_since(t);
    let rep = telemetry::last_report().expect("telemetry is on for the counting repetition");
    let mut c = sink.counts.lock().expect("counts lock");
    c.flows += rep.flows;
    if rep.mode == "sharded" {
        c.shard_rounds += rep.rounds;
        c.shard_round_p50.push(rep.round_events.p50);
        c.shard_barrier_ns += rep.workers.iter().map(|w| w.barrier_wait_ns).sum::<u64>();
        c.shard_worker_ns += rep.wall_ns * rep.shards as u64;
    }
    (end, run_ns)
}

/// Fold every connection's send and receive statistics into `c`.
/// Connection ids are dense from 0 and each has exactly one send half,
/// so the scan stops at the first id no node owns.
pub fn read_net(c: &mut Counts, sim: &Sim, net: &Network, nodes: usize) {
    let cores: Vec<&NodeCore> = (0..nodes)
        .map(|n| {
            sim.process::<NodeCore>(net.core_of(NodeId(n)))
                .expect("node core process")
        })
        .collect();
    for conn in (0..).map(ConnId) {
        let Some(tx) = cores.iter().find_map(|core| core.tx_stats(conn)) else {
            break;
        };
        c.net_msgs += tx.msgs_sent;
        c.net_frames_tx += tx.frames_tx;
        c.net_credit_stall_ns += tx.credit_stall.as_nanos();
        if let Some(rx) = cores.iter().find_map(|core| core.rx_stats(conn)) {
            c.net_rx_interrupts += rx.rx_interrupts;
        }
    }
}

/// Fold every copy's DataCutter statistics into `c`.
pub fn read_filters(c: &mut Counts, sim: &Sim, inst: &Instance, filters: &[FilterHandle]) {
    for &f in filters {
        for copy in 0..inst.pids(f).len() {
            let s = &inst.copy(sim, f, copy).stats;
            c.dc_buffers += s.buffers_in;
            c.dc_retries += s.retries;
            c.dc_failovers += s.consumers_failed;
            c.dc_stale += s.stale_deliveries;
        }
    }
}

/// `Ok` when `cond` holds, else the message `what()`.
pub fn ensure(cond: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(what())
    }
}
