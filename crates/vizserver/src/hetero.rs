//! Heterogeneous-cluster drivers (paper §5.2.3, Figures 10 and 11).
//!
//! The setup of Figure 6: one node acts as data repository + load balancer,
//! distributing blocks to compute nodes; one (or more) compute nodes run
//! slower. Communication cost is held constant while computation varies,
//! exactly as the paper idealizes.

use crate::driver::RunCapture;
use crate::pipeline::QueryDesc;
use hpsock_datacutter::{
    Action, DataBuffer, FilterCtx, FilterHandle, FilterLogic, FilterStats, GroupBuilder, Instance,
    Policy, SpeedModel,
};
use hpsock_net::{Cluster, NodeId, TransportKind};
use hpsock_sim::{Dur, FxHashSet, Probe, Sim, SimTime};
use socketvia::Provider;
use std::any::Any;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Load-balancer source: streams the query's blocks one at a time, paced
/// at the cluster's aggregate consumption rate (perfect pipelining:
/// one block leaves the balancer per worker-processing slot).
struct LbSource {
    queue: VecDeque<u64>,
    block_bytes: u64,
    emit_interval: Dur,
}

impl FilterLogic for LbSource {
    fn on_uow_start(
        &mut self,
        _fc: &mut FilterCtx<'_>,
        uow: u32,
        desc: Arc<dyn Any + Send + Sync>,
    ) -> Action {
        let q = desc
            .downcast::<QueryDesc>()
            .expect("LB expects a QueryDesc");
        self.queue = q.blocks.iter().copied().collect();
        Action::compute(Dur::ZERO).and_continue(uow)
    }
    fn on_continue(&mut self, _fc: &mut FilterCtx<'_>, uow: u32) -> Action {
        match self.queue.pop_front() {
            Some(b) => Action::emit(
                self.emit_interval,
                0,
                DataBuffer::new(uow, self.block_bytes, b),
            )
            .and_continue(uow),
            None => Action::none().and_end_uow(uow),
        }
    }
}

/// Set of the distinct block tags the workers processed.
type TagSet = Arc<Mutex<FxHashSet<u64>>>;

/// Terminal compute worker: processes each block at `ns_per_byte`, and
/// records its tag in `seen` when given one (guarantee retention under
/// faults).
struct ComputeWorker {
    ns_per_byte: f64,
    seen: Option<TagSet>,
}

impl FilterLogic for ComputeWorker {
    fn on_buffer(&mut self, _fc: &mut FilterCtx<'_>, _port: usize, buf: DataBuffer) -> Action {
        if let Some(seen) = &self.seen {
            seen.lock().expect("tag set lock").insert(buf.tag);
        }
        Action::compute(Dur::nanos(
            (self.ns_per_byte * buf.bytes as f64).round() as u64
        ))
    }
}

/// Configuration of the load-balancing experiments.
#[derive(Debug, Clone, Copy)]
pub struct LbSetup {
    /// Transport carrying the LB → worker stream.
    pub kind: TransportKind,
    /// Distribution block size (16 KB for TCP, 2 KB for SocketVIA — the
    /// perfect-pipelining points of §5.2.3).
    pub block_bytes: u64,
    /// Number of compute workers (the paper balances across the first
    /// pipeline stage's 3 copies).
    pub workers: usize,
    /// Worker computation cost (18 ns/B in the paper).
    pub ns_per_byte: f64,
}

impl LbSetup {
    /// The paper's configuration for a transport, using its
    /// perfect-pipelining block size.
    pub fn paper(kind: TransportKind) -> LbSetup {
        let block_bytes = match kind {
            TransportKind::KTcp | TransportKind::KTcpFastEthernet => 16_384,
            TransportKind::Via | TransportKind::SocketVia => 2_048,
            // Perfect pipelining for RDMA against 18 ns/B compute lands at
            // a few hundred bytes: t(s) = 4.4us + 1.25 ns/B * s = 18 ns/B * s.
            TransportKind::Rdma => 256,
        };
        LbSetup {
            kind,
            block_bytes,
            workers: 3,
            ns_per_byte: crate::pipeline::PAPER_NS_PER_BYTE,
        }
    }
}

/// The one Figure 6 setup: balancer on node 0, `setup.workers` workers
/// behind it (`speeds[i]` for worker `i`, the default speed past the end
/// of `speeds`), the `blocks`-block query started at time zero. `ack_log`
/// makes the balancer record per-buffer ack and completion round-trips,
/// which only the reaction-time measurement reads.
fn build_lb(
    sim: &mut Sim,
    setup: &LbSetup,
    policy: Policy,
    speeds: &[SpeedModel],
    blocks: u32,
    seen: Option<TagSet>,
    ack_log: bool,
) -> (Instance, FilterHandle, FilterHandle) {
    let cluster = Cluster::build(sim, setup.workers + 1);
    let provider = Provider::new(setup.kind);
    let mut g = GroupBuilder::new();
    let bb = setup.block_bytes;
    // Perfect pipelining as the paper defines it (§5.2.3): the time to send
    // one block equals the time a node takes to process it, so the balancer
    // emits one block per block-processing time. The single balancer NIC is
    // then the pipeline bottleneck, as in the Figure 6 setup.
    let emit_interval = Dur::nanos((setup.ns_per_byte * setup.block_bytes as f64).round() as u64);
    let lb = g.filter(
        "load-balancer",
        vec![NodeId(0)],
        Box::new(move |_| {
            Box::new(LbSource {
                queue: VecDeque::new(),
                block_bytes: bb,
                emit_interval,
            })
        }),
    );
    let npb = setup.ns_per_byte;
    let workers = g.filter(
        "worker",
        (1..=setup.workers).map(NodeId).collect(),
        Box::new(move |_| {
            Box::new(ComputeWorker {
                ns_per_byte: npb,
                seen: seen.clone(),
            })
        }),
    );
    for (i, &m) in speeds.iter().enumerate() {
        g.set_speed(workers, i, m);
    }
    if ack_log {
        g.enable_ack_log(lb);
    }
    g.stream(lb, workers, policy, &provider);
    let inst = g.instantiate(sim, &cluster);
    let desc = QueryDesc {
        kind: crate::pipeline::QueryKind::Complete,
        blocks: (0..blocks as u64).collect(),
        block_bytes: setup.block_bytes,
    };
    inst.start_uow_at(sim, SimTime::ZERO, lb, 0, Arc::new(desc));
    (inst, lb, workers)
}

/// Figure 10: round-robin scheduling, one worker turns `factor`× slower at
/// `slow_at`. Returns the load balancer's *reaction time*: the completion
/// round-trip of the first block it (mistakenly) sends to the slow worker
/// after the slowdown — "the amount of time taken by the slow node to
/// process this block" (paper §5.2.3), which scales with both the
/// heterogeneity factor and the distribution block size.
pub fn rr_reaction_time(
    setup: &LbSetup,
    factor: f64,
    slow_at: SimTime,
    blocks: u32,
    seed: u64,
) -> Option<Dur> {
    rr_reaction_time_probed(setup, factor, slow_at, blocks, seed, |_| None).0
}

/// [`rr_reaction_time`] with the probe bus attached after the cluster
/// exists (the factory receives the resource-name table, as in the
/// guarantee runner's `run_guarantee_probed`), returning the run's
/// [`RunCapture`] for trace export and time-breakdown reports. Probes are
/// observational only, so the measurement is identical to the unprobed
/// run (pinned by the determinism tests).
pub fn rr_reaction_time_probed(
    setup: &LbSetup,
    factor: f64,
    slow_at: SimTime,
    blocks: u32,
    seed: u64,
    make_probe: impl FnOnce(&[String]) -> Option<Box<dyn Probe>>,
) -> (Option<Dur>, RunCapture) {
    let mut sim = Sim::new(seed);
    // Worker 0 turns slow; the others keep the default speed.
    let speeds = [SpeedModel::StepAt {
        t: slow_at,
        before: 1.0,
        after: factor,
    }];
    let policy = Policy::RoundRobinAcked;
    let (inst, lb, _) = build_lb(&mut sim, setup, policy, &speeds, blocks, None, true);
    let cap = RunCapture::run(&mut sim, make_probe);
    let lb_proc = inst.copy(&sim, lb, 0);
    let reaction = lb_proc
        .done_log
        .iter()
        .filter(|r| r.consumer == 0 && r.sent_at >= slow_at)
        .map(|r| r.acked_at.since(r.sent_at))
        .next();
    (reaction, cap)
}

/// Figure 11: demand-driven scheduling with workers that run `factor`×
/// slower on each block independently with probability `slow_prob`.
/// Returns the total execution time for the `blocks`-block workload.
pub fn dd_execution_time(
    setup: &LbSetup,
    slow_prob: f64,
    factor: f64,
    blocks: u32,
    seed: u64,
) -> Dur {
    dd_execution_time_probed(setup, slow_prob, factor, blocks, seed, |_| None).0
}

/// [`dd_execution_time`] with the probe bus attached after the cluster
/// exists, returning the run's [`RunCapture`] (see
/// [`rr_reaction_time_probed`]).
pub fn dd_execution_time_probed(
    setup: &LbSetup,
    slow_prob: f64,
    factor: f64,
    blocks: u32,
    seed: u64,
    make_probe: impl FnOnce(&[String]) -> Option<Box<dyn Probe>>,
) -> (Dur, RunCapture) {
    let speeds = random_slow(setup, slow_prob, factor);
    let policy = Policy::demand_driven();
    lb_run_probed(setup, policy, &speeds, blocks, seed, make_probe)
}

/// [`dd_execution_time`] with an explicit demand-driven window depth
/// (ablation: window 1 starves the pipeline, very large windows approach
/// round-robin blindness).
pub fn dd_execution_time_with_window(
    setup: &LbSetup,
    window: u32,
    slow_prob: f64,
    factor: f64,
    blocks: u32,
    seed: u64,
) -> Dur {
    let speeds = random_slow(setup, slow_prob, factor);
    let policy = Policy::DemandDriven { window };
    lb_execution_time(setup, policy, &speeds, blocks, seed)
}

/// Same workload under (acked) round-robin — the comparison that shows why
/// demand-driven scheduling matters on heterogeneous clusters.
pub fn rr_execution_time(
    setup: &LbSetup,
    slow_prob: f64,
    factor: f64,
    blocks: u32,
    seed: u64,
) -> Dur {
    let speeds = random_slow(setup, slow_prob, factor);
    let policy = Policy::RoundRobinAcked;
    lb_execution_time(setup, policy, &speeds, blocks, seed)
}

/// Execution time of the load-balancing workload with explicit per-worker
/// speed models — e.g. one persistently slow worker, where demand-driven
/// scheduling visibly beats round-robin.
pub fn lb_execution_time(
    setup: &LbSetup,
    policy: Policy,
    speeds: &[SpeedModel],
    blocks: u32,
    seed: u64,
) -> Dur {
    lb_run_probed(setup, policy, speeds, blocks, seed, |_| None).0
}

/// Every worker runs `factor`× slower on each block with probability
/// `slow_prob`.
fn random_slow(setup: &LbSetup, slow_prob: f64, factor: f64) -> Vec<SpeedModel> {
    let slow = SpeedModel::RandomSlow {
        prob: slow_prob,
        factor,
    };
    vec![slow; setup.workers]
}

/// [`lb_execution_time`] with the probe bus attached after the cluster
/// exists, returning the run's [`RunCapture`].
fn lb_run_probed(
    setup: &LbSetup,
    policy: Policy,
    speeds: &[SpeedModel],
    blocks: u32,
    seed: u64,
    make_probe: impl FnOnce(&[String]) -> Option<Box<dyn Probe>>,
) -> (Dur, RunCapture) {
    let (.., cap) = lb_run(setup, policy, speeds, blocks, seed, make_probe);
    (cap.end.since(SimTime::ZERO), cap)
}

/// One execution-time run, returned finished with its balancer so the
/// balancer's state can be read back.
fn lb_run(
    setup: &LbSetup,
    policy: Policy,
    speeds: &[SpeedModel],
    blocks: u32,
    seed: u64,
    make_probe: impl FnOnce(&[String]) -> Option<Box<dyn Probe>>,
) -> (Sim, Instance, FilterHandle, RunCapture) {
    assert_eq!(speeds.len(), setup.workers, "one speed model per worker");
    let mut sim = Sim::new(seed);
    let (inst, lb, _) = build_lb(&mut sim, setup, policy, speeds, blocks, None, false);
    let cap = RunCapture::run(&mut sim, make_probe);
    (sim, inst, lb, cap)
}

/// Recovery/availability outcome of one fault-injected load-balancing run
/// (the `fig_faults` experiment's unit of measurement).
#[derive(Debug, Clone, Copy)]
pub struct FaultedLbOutcome {
    /// Blocks in the workload.
    pub blocks: u32,
    /// Distinct blocks actually processed by surviving workers — failover
    /// replay duplicates collapse, genuinely lost blocks show up as gaps.
    pub processed: u64,
    /// Stream errors the runtime absorbed (lost or dead-peer sends).
    pub errors: u64,
    /// Lost messages re-sent after backoff.
    pub retries: u64,
    /// Streams that recovered (a post-retry delivery was acknowledged).
    pub recovered: u64,
    /// Worker copies permanently failed over away from.
    pub failovers: u64,
    /// Buffers dropped because no live consumer remained on their port.
    pub failed: u64,
    /// Deliveries discarded as stale (teardown races).
    pub stale: u64,
    /// Virtual wall-clock of the run, µs.
    pub makespan_us: f64,
    /// Event-trace digest, for reproducibility checks.
    pub digest: u64,
}

impl FaultedLbOutcome {
    /// Fraction of the workload that was processed at least once.
    pub fn availability(&self) -> f64 {
        if self.blocks == 0 {
            return 1.0;
        }
        self.processed as f64 / self.blocks as f64
    }
}

/// Run the Figure 6 load-balancing workload under whatever fault plan is
/// currently installed (`HPSOCK_FAULTS` or `hpsock_net::fault::with_plan`),
/// demand-driven with homogeneous workers, and report what survived. With
/// no plan installed this is an ordinary run: `processed == blocks` and
/// every fault counter is zero.
pub fn faulted_lb_run(setup: &LbSetup, blocks: u32, seed: u64) -> FaultedLbOutcome {
    let mut sim = Sim::new(seed);
    let seen = TagSet::default();
    let (policy, tags) = (Policy::demand_driven(), Some(Arc::clone(&seen)));
    let (inst, lb, workers) = build_lb(&mut sim, setup, policy, &[], blocks, tags, false);
    let end = sim.run();
    let mut out = FaultedLbOutcome {
        blocks,
        processed: seen.lock().expect("tag set lock").len() as u64,
        errors: 0,
        retries: 0,
        recovered: 0,
        failovers: 0,
        failed: 0,
        stale: 0,
        makespan_us: end.since(SimTime::ZERO).as_micros_f64(),
        digest: sim.trace_digest(),
    };
    let mut add = |s: &FilterStats| {
        out.errors += s.stream_errors;
        out.retries += s.retries;
        out.recovered += s.streams_recovered;
        out.failovers += s.consumers_failed;
        out.failed += s.buffers_failed;
        out.stale += s.stale_deliveries;
    };
    add(&inst.copy(&sim, lb, 0).stats);
    for i in 0..setup.workers {
        add(&inst.copy(&sim, workers, i).stats);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reaction_time_grows_with_block_size() {
        let tcp = LbSetup::paper(TransportKind::KTcp);
        let sv = LbSetup::paper(TransportKind::SocketVia);
        let slow_at = SimTime::from_nanos(20_000_000); // 20ms in
        let t_tcp = rr_reaction_time(&tcp, 4.0, slow_at, 400, 7).expect("tcp reacts");
        let t_sv = rr_reaction_time(&sv, 4.0, slow_at, 3200, 7).expect("sv reacts");
        assert!(
            t_sv.as_micros_f64() * 3.0 < t_tcp.as_micros_f64(),
            "SocketVIA reacts much faster: {t_sv} vs {t_tcp}"
        );
    }

    #[test]
    fn reaction_time_grows_with_factor() {
        let tcp = LbSetup::paper(TransportKind::KTcp);
        let slow_at = SimTime::from_nanos(20_000_000);
        let t2 = rr_reaction_time(&tcp, 2.0, slow_at, 400, 7).expect("reacts at 2x");
        let t8 = rr_reaction_time(&tcp, 8.0, slow_at, 400, 7).expect("reacts at 8x");
        assert!(t8 > t2, "more heterogeneity, slower reaction: {t2} vs {t8}");
    }

    #[test]
    fn dd_execution_grows_with_slow_probability() {
        // With heterogeneity factor n, mean per-block service is
        // (1 + (n-1)p) x base; the three workers stop absorbing the
        // slowdown once that exceeds 3x the balancer's emission rate, so
        // growth with p is visible at n = 8 (as in Figure 11's upper
        // curves) while n = 2 stays flat.
        let sv = LbSetup::paper(TransportKind::SocketVia);
        let t10 = dd_execution_time(&sv, 0.1, 8.0, 800, 11);
        let t90 = dd_execution_time(&sv, 0.9, 8.0, 800, 11);
        assert!(
            t90.as_micros_f64() > 1.5 * t10.as_micros_f64(),
            "p=0.9 {t90} should far exceed p=0.1 {t10}"
        );
        let f2_10 = dd_execution_time(&sv, 0.1, 2.0, 800, 11);
        let f2_90 = dd_execution_time(&sv, 0.9, 2.0, 800, 11);
        assert!(
            f2_90.as_micros_f64() < 1.3 * f2_10.as_micros_f64(),
            "factor 2 stays near-flat: {f2_10} vs {f2_90}"
        );
    }

    #[test]
    fn dd_keeps_tcp_close_to_socketvia() {
        // Figure 11's observation: with demand-driven scheduling and
        // pipelining, TCP's execution time approaches SocketVIA's.
        let bytes_total: u64 = 4 * 1024 * 1024;
        let tcp = LbSetup::paper(TransportKind::KTcp);
        let sv = LbSetup::paper(TransportKind::SocketVia);
        let t_tcp = dd_execution_time(&tcp, 0.3, 4.0, (bytes_total / tcp.block_bytes) as u32, 3);
        let t_sv = dd_execution_time(&sv, 0.3, 4.0, (bytes_total / sv.block_bytes) as u32, 3);
        let ratio = t_tcp.as_micros_f64() / t_sv.as_micros_f64();
        assert!(
            (0.7..1.6).contains(&ratio),
            "TCP/SocketVIA execution ratio {ratio}: {t_tcp} vs {t_sv}"
        );
    }

    #[test]
    fn faulted_run_without_a_plan_is_clean() {
        let sv = LbSetup::paper(TransportKind::SocketVia);
        let out = faulted_lb_run(&sv, 200, 9);
        assert_eq!(out.processed, 200);
        assert_eq!(out.availability(), 1.0);
        assert_eq!(
            (out.errors, out.retries, out.failovers, out.failed),
            (0, 0, 0, 0)
        );
    }

    #[test]
    fn faulted_run_recovers_under_loss_and_crash() {
        let sv = LbSetup::paper(TransportKind::SocketVia);
        let run = || {
            hpsock_net::fault::with_spec("drop=0.01,crash=2@2ms,detect=100us,backoff=100us", || {
                faulted_lb_run(&sv, 400, 9)
            })
        };
        let out = run();
        assert!(out.errors > 0, "faults fired");
        assert!(out.retries > 0, "losses were retried");
        assert_eq!(out.failovers, 1, "the crashed worker was failed over");
        assert_eq!(
            out.processed, 400,
            "replay + retry keep every block covered"
        );
        let again = run();
        assert_eq!(out.digest, again.digest, "faulted run is reproducible");
    }

    /// Only the reaction-time run reads the balancer's round-trip logs, so
    /// only it records them: an execution-time run leaves both empty.
    #[test]
    fn only_the_reaction_run_keeps_ack_logs() {
        let sv = LbSetup::paper(TransportKind::SocketVia);
        let speeds = random_slow(&sv, 0.3, 4.0);
        let (sim, inst, lb, _) = lb_run(&sv, Policy::demand_driven(), &speeds, 200, 5, |_| None);
        let balancer = inst.copy(&sim, lb, 0);
        assert!(balancer.stats.buffers_out > 0, "the balancer sent buffers");
        assert!(balancer.ack_log.is_empty() && balancer.done_log.is_empty());
        // The reaction time is read off the completion log, so a reaction
        // means the log was kept.
        let slow_at = SimTime::from_nanos(2_000_000);
        assert!(rr_reaction_time(&sv, 4.0, slow_at, 400, 7).is_some());
    }

    #[test]
    fn dd_beats_rr_under_random_slowdowns() {
        let sv = LbSetup::paper(TransportKind::SocketVia);
        let dd = dd_execution_time(&sv, 0.3, 8.0, 800, 5);
        let rr = rr_execution_time(&sv, 0.3, 8.0, 800, 5);
        assert!(
            dd.as_micros_f64() < rr.as_micros_f64(),
            "DD {dd} should not lose to RR {rr}"
        );
    }
}
