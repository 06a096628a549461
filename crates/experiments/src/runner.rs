//! Shared experiment runner for the guarantee experiments (Figures 7/8):
//! a Figure 5 pipeline under an open-loop stream of complete updates with
//! interleaved partial-update probes.

use hpsock_net::{Cluster, TransportKind};
use hpsock_sim::{Dur, Probe, ProcessId, Sim, SimTime};
use hpsock_vizserver::{
    complete_update, partial_update, BlockedImage, ComputeModel, PipelineCfg, Plan, QueryDesc,
    QueryDriver, QueryKind, VizPipeline,
};
use socketvia::Provider;

/// What a probed run exposes about the simulation it ran — defined next
/// to the drivers in `hpsock_vizserver` (every `*_probed` driver returns
/// one), re-exported here for the breakdown/export layer.
pub use hpsock_vizserver::RunCapture;

/// Base RNG seeds of the figure experiments, hoisted here so no driver
/// re-hardcodes a magic number. Values are the historical per-figure
/// seeds, so single-seed output is unchanged. Replicate batches
/// (`HPSOCK_SEEDS`, see [`crate::replicate`]) derive their per-replicate
/// streams from these; replicate 0 is the base itself.
pub const FIG7_SEED: u64 = 0xF167;
/// Figure 8's trace/breakdown-export seed.
pub const FIG8_SEED: u64 = 0xF168;
/// Figure 8's saturation-sweep seed (distinct from [`FIG8_SEED`] for
/// historical reasons; kept so the sweep CSV stays bit-identical).
pub const FIG8_SWEEP_SEED: u64 = 8;
/// Figure 9's query-mix seed.
pub const FIG9_SEED: u64 = 0xF19;
/// Figure 10's load-balancer reaction seed.
pub const FIG10_SEED: u64 = 0x10;
/// Figure 11's demand-driven heterogeneity seed.
pub const FIG11_SEED: u64 = 0x11;
/// Seed of the supplementary (`extra`) partition-tradeoff tables.
pub const EXTRA_SEED: u64 = 0xE;
/// Seed of the fault-injection availability experiment (`fig_faults`).
pub const FIG_FAULTS_SEED: u64 = 0xFA17;

/// Configuration of one guarantee-experiment run.
#[derive(Debug, Clone)]
pub struct GuaranteeRun {
    /// Transport carrying every pipeline stream.
    pub kind: TransportKind,
    /// Distribution block size (the planner's output).
    pub block_bytes: u64,
    /// Per-stage computation model.
    pub compute: ComputeModel,
    /// Open-loop complete-update rate (updates per second).
    pub target_ups: f64,
    /// Number of complete updates to stream.
    pub n_complete: u32,
    /// Number of interleaved partial-update probes.
    pub n_partial: u32,
    /// RNG seed.
    pub seed: u64,
}

/// Measured outcome of a guarantee run.
#[derive(Debug, Clone, Copy)]
pub struct GuaranteeResult {
    /// Mean partial-update latency under load, µs.
    pub partial_us: Option<f64>,
    /// Mean complete-update latency, µs.
    pub complete_us: Option<f64>,
    /// Achieved complete-update rate, updates/s.
    pub achieved_ups: Option<f64>,
    /// Whether the target rate was sustained (≥95 % achieved and nothing
    /// left outstanding).
    pub sustained: bool,
}

/// Complete-update period indices into which the partial-update probes
/// fall. Probes start a quarter of the way through the run (never period
/// 0, so the pipeline is warm) and cycle over the remaining periods, so
/// every probe lands mid-period *inside* the run regardless of
/// `n_partial`. Requires `n_complete >= 2`.
pub fn probe_indices(n_complete: u32, n_partial: u32) -> Vec<u32> {
    debug_assert!(n_complete >= 2, "a guarantee run streams >= 2 updates");
    let first_probe = 1.max(n_complete / 4);
    let span = n_complete.saturating_sub(first_probe).max(1);
    (0..n_partial).map(|p| first_probe + p % span).collect()
}

/// Run the pipeline under the configured load and measure.
pub fn run_guarantee(run: &GuaranteeRun) -> GuaranteeResult {
    run_guarantee_traced(run, None).0
}

/// [`run_guarantee`] with an optional probe attached before the run.
/// Probes are observational only, so the measured result is identical to
/// the unprobed run (pinned by the determinism tests).
pub fn run_guarantee_traced(
    run: &GuaranteeRun,
    probe: Option<Box<dyn Probe>>,
) -> (GuaranteeResult, RunCapture) {
    run_guarantee_probed(run, |_| probe)
}

/// [`run_guarantee_traced`] where the probe is built *after* the cluster
/// topology exists: the factory receives the resource names (indexed by
/// `ResourceId`), which streaming trace sinks need up-front for their
/// track tables. Resources are all registered before the first event
/// fires, so attaching at this point observes the entire run.
pub fn run_guarantee_probed(
    run: &GuaranteeRun,
    make_probe: impl FnOnce(&[String]) -> Option<Box<dyn Probe>>,
) -> (GuaranteeResult, RunCapture) {
    let plan = guarantee_plan(run);
    run_pipeline(run.kind, run.compute, plan, run.seed, make_probe, |d| {
        let achieved = d.achieved_rate(QueryKind::Complete);
        GuaranteeResult {
            partial_us: d.mean_latency_us(QueryKind::Partial),
            complete_us: d.mean_latency_us(QueryKind::Complete),
            achieved_ups: achieved,
            sustained: achieved.is_some_and(|r| r >= 0.95 * run.target_ups) && d.outstanding() == 0,
        }
    })
}

/// The open-loop query stream of a guarantee run: complete updates at
/// the target rate, with the partial-update probes mid-period.
pub(crate) fn guarantee_plan(run: &GuaranteeRun) -> Plan {
    let img = BlockedImage::paper_image(run.block_bytes);
    let period = Dur::from_secs_f64(1.0 / run.target_ups);
    let mut items: Vec<(SimTime, QueryDesc)> = (0..run.n_complete)
        .map(|i| (SimTime::ZERO + period.mul(i as u64), complete_update(&img)))
        .collect();
    // Probes land mid-period, spread across the middle of the run.
    for idx in probe_indices(run.n_complete, run.n_partial) {
        items.push((
            SimTime::ZERO + period.mul(u64::from(idx)) + period.div(2),
            partial_update(&img, 1),
        ));
    }
    Plan::OpenLoop(items)
}

/// Saturation throughput: submit `n` complete updates back-to-back and
/// measure the completion rate (Figure 8's y-axis).
pub fn run_saturation_ups(
    kind: TransportKind,
    block_bytes: u64,
    compute: ComputeModel,
    n: u32,
    seed: u64,
) -> f64 {
    let img = BlockedImage::paper_image(block_bytes);
    let items: Vec<(SimTime, QueryDesc)> = (0..n)
        .map(|i| (SimTime::ZERO + Dur::micros(i as u64), complete_update(&img)))
        .collect();
    let plan = Plan::OpenLoop(items);
    let (rate, _) = run_pipeline(kind, compute, plan, seed, no_probe, |d| {
        assert_eq!(d.outstanding(), 0, "saturation run drained");
        d.achieved_rate(QueryKind::Complete).unwrap_or(0.0)
    });
    rate
}

/// Isolated partial-update latency: the paper's "latency for this message
/// chunk" — the end-to-end pipeline latency of a one-block query on an
/// otherwise idle system, averaged over `n` closed-loop queries.
pub fn isolated_partial_us(
    kind: TransportKind,
    block_bytes: u64,
    compute: ComputeModel,
    n: u32,
    seed: u64,
) -> f64 {
    let img = BlockedImage::paper_image(block_bytes);
    let queries: Vec<QueryDesc> = (0..n).map(|_| partial_update(&img, 1)).collect();
    let plan = Plan::ClosedLoop(queries);
    let (us, _) = run_pipeline(kind, compute, plan, seed, no_probe, |d| {
        d.mean_latency_us(QueryKind::Partial)
    });
    us.expect("partial queries completed")
}

/// The probe factory of an unprobed run.
fn no_probe(_: &[String]) -> Option<Box<dyn Probe>> {
    None
}

/// The one Figure 5 pipeline every experiment here shares, built and not
/// yet run: three copies per stage on their own cluster, the paper's
/// pipeline over `kind` and a query driver executing `plan`. Returns the
/// simulation, its cluster and the driver's pid. The sequential kernel
/// runs it unless a [`ShardPlan`](hpsock_sim::ShardPlan) is set first
/// (see [`crate::sharding::pipeline_plan`]).
pub(crate) fn build_pipeline(
    kind: TransportKind,
    compute: ComputeModel,
    plan: Plan,
    seed: u64,
) -> (Sim, Cluster, ProcessId) {
    let mut sim = Sim::new(seed);
    let cluster = Cluster::build(&mut sim, VizPipeline::nodes_needed(3));
    let cfg = PipelineCfg::paper(Provider::new(kind), compute);
    let (driver_pid, targets) = QueryDriver::install(&mut sim, plan);
    let pipe = VizPipeline::build(&mut sim, &cluster, &cfg, driver_pid);
    *targets.lock().expect("targets") = pipe.repo_pids();
    (sim, cluster, driver_pid)
}

/// Run the [`build_pipeline`] pipeline with the factory's probe attached
/// (see [`RunCapture::run`]) and hand the finished driver to `read`.
pub(crate) fn run_pipeline<R>(
    kind: TransportKind,
    compute: ComputeModel,
    plan: Plan,
    seed: u64,
    make_probe: impl FnOnce(&[String]) -> Option<Box<dyn Probe>>,
    read: impl FnOnce(&QueryDriver) -> R,
) -> (R, RunCapture) {
    let (mut sim, _cluster, driver_pid) = build_pipeline(kind, compute, plan, seed);
    let cap = RunCapture::run(&mut sim, make_probe);
    (read(sim.process(driver_pid).expect("driver persists")), cap)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression: the old scheduling computed
    /// `first_probe + p % (n_complete - 1)` — `%` binds tighter than `+`,
    /// so with enough probes the index walked past the final complete
    /// update and probes fired after the load was gone (measuring an idle
    /// pipeline). Every probe must land inside `[first_probe,
    /// n_complete - 1]`.
    #[test]
    fn probe_indices_stay_inside_the_run() {
        for n_complete in 2..20u32 {
            let first_probe = 1.max(n_complete / 4);
            for n_partial in 1..40u32 {
                for idx in probe_indices(n_complete, n_partial) {
                    assert!(
                        idx >= first_probe && idx < n_complete,
                        "probe index {idx} outside [{first_probe}, {}) \
                         for n_complete={n_complete} n_partial={n_partial}",
                        n_complete
                    );
                }
            }
        }
    }

    #[test]
    fn probe_indices_cycle_over_the_tail() {
        // 8 completes, first probe at 2, span 6: probes cycle 2..8.
        assert_eq!(
            probe_indices(8, 8),
            vec![2, 3, 4, 5, 6, 7, 2, 3],
            "probes spread across the middle then wrap"
        );
    }

    #[test]
    fn feasible_rate_is_sustained() {
        let r = run_guarantee(&GuaranteeRun {
            kind: TransportKind::SocketVia,
            block_bytes: 65_536,
            compute: ComputeModel::None,
            target_ups: 2.0,
            n_complete: 5,
            n_partial: 3,
            seed: 1,
        });
        assert!(r.sustained, "{r:?}");
        assert!(r.partial_us.is_some());
        assert!(r.complete_us.unwrap() > 0.0);
    }

    #[test]
    fn infeasible_rate_is_flagged() {
        // 16 MB x 5/s = 640 Mbps > TCP's 510 Mbps peak: cannot sustain.
        let r = run_guarantee(&GuaranteeRun {
            kind: TransportKind::KTcp,
            block_bytes: 65_536,
            compute: ComputeModel::None,
            target_ups: 5.0,
            n_complete: 5,
            n_partial: 2,
            seed: 1,
        });
        assert!(!r.sustained, "{r:?}");
    }

    #[test]
    fn saturation_rate_orders_transports() {
        let sv = run_saturation_ups(TransportKind::SocketVia, 65_536, ComputeModel::None, 4, 2);
        let tcp = run_saturation_ups(TransportKind::KTcp, 65_536, ComputeModel::None, 4, 2);
        assert!(
            sv > tcp,
            "SocketVIA saturation {sv:.2} ups vs TCP {tcp:.2} ups"
        );
        assert!(tcp > 2.0 && tcp < 4.2, "TCP in the paper's ballpark: {tcp}");
    }
}
