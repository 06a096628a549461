//! `viz_guarantee`: the Figure 5/7 pipeline (3 copies per stage, the
//! 16 MiB image, packet model, sequential kernel) under an update-rate
//! guarantee. For each target rate it runs three series — TCP, SocketVIA
//! at TCP's planned block, SocketVIA(DR) at its own planned block — and
//! each series gets a loaded open-loop run and an isolated closed-loop
//! partial probe, as `fig7` does.

use crate::jobs::{
    ensure, read_filters, read_net, run_sim, Ctx, Job, JobOut, PreCheck, Rng, Workload,
};
use hpsock_experiments::runner::{self, probe_indices, GuaranteeRun};
use hpsock_experiments::sharding::apply_pipeline_plan;
use hpsock_net::{Cluster, TransportKind};
use hpsock_sim::{Dur, Sim, SimTime};
use hpsock_vizserver::{
    block_size_for_update_rate, complete_update, partial_update, BlockedImage, ComputeModel,
    PipelineCfg, Plan, QueryDesc, QueryDriver, QueryKind, VizPipeline,
};
use socketvia::{PerfCurve, Provider};
use std::time::Instant;

/// The paper's 16 MiB image.
const IMAGE_BYTES: u64 = 16 * 1024 * 1024;
/// Copies per pipeline stage.
const COPIES: usize = 3;
/// Loaded-run scale: `fig7::Scale::default()`.
const N_COMPLETE: u32 = 6;
const N_PARTIAL: u32 = 4;
/// Closed-loop queries per isolated probe, as in `fig7`.
const N_PROBE: u32 = 4;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Panel {
    /// Figure 7(a): no computation.
    A,
    /// Figure 7(b): linear computation.
    B,
}

impl Panel {
    fn compute(self) -> ComputeModel {
        match self {
            Panel::A => ComputeModel::None,
            Panel::B => ComputeModel::paper_linear(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Series {
    Tcp,
    SocketVia,
    SocketViaDr,
}

impl Series {
    const ALL: [Series; 3] = [Series::Tcp, Series::SocketVia, Series::SocketViaDr];

    fn kind(self) -> TransportKind {
        match self {
            Series::Tcp => TransportKind::KTcp,
            Series::SocketVia | Series::SocketViaDr => TransportKind::SocketVia,
        }
    }

    /// The transport whose curve plans the block: only DR re-plans.
    fn planner(self) -> TransportKind {
        match self {
            Series::SocketViaDr => TransportKind::SocketVia,
            _ => TransportKind::KTcp,
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One rate point and its row of the committed Figure 7 tables
/// (`results/figure_7_{a,b}_*.csv`, made at `fig7::Scale::default()`
/// with `FIG7_SEED`), copied here so that every run checks the simulated
/// values the benchmark was defined with.
#[derive(Debug, Clone, Copy)]
struct Point {
    panel: Panel,
    ups: f64,
    /// Partial-update latency cells, µs, in [`Series::ALL`] order;
    /// `None` for a point that gets loaded runs only.
    partial_us: Option<[&'static str; 3]>,
    tcp_block: u64,
    dr_block: u64,
    tcp_sustained: bool,
}

impl Point {
    fn block(&self, series: Series) -> u64 {
        match series {
            Series::SocketViaDr => self.dr_block,
            _ => self.tcp_block,
        }
    }
}

/// One point per compute panel, chosen so that one repetition holds a
/// 1 KiB and a 2 KiB data-repartitioning run (where fig7/fig8 spend their
/// time) and still fits several repetitions in a run, plus loaded runs
/// at a third rate. With 9 loaded runs against 6 probes the median job
/// and the tail both fall inside groups of like jobs, not between a
/// sub-millisecond probe and a second-long loaded run.
const POINTS: [Point; 3] = [
    Point {
        panel: Panel::A,
        ups: 3.25,
        partial_us: Some(["1858.3", "1076.4", "109.7"]),
        tcp_block: 32768,
        dr_block: 2048,
        tcp_sustained: true,
    },
    Point {
        panel: Panel::B,
        ups: 3.0,
        partial_us: Some(["1932.3", "1436.5", "123.7"]),
        tcp_block: 16384,
        dr_block: 1024,
        tcp_sustained: true,
    },
    Point {
        panel: Panel::A,
        ups: 3.5,
        partial_us: None,
        tcp_block: 65536,
        dr_block: 2048,
        tcp_sustained: true,
    },
];

/// One job's inputs.
#[derive(Debug, Clone, Copy)]
struct Spec {
    panel: Panel,
    ups: f64,
    series: Series,
    /// Loaded open-loop run (true) or isolated closed-loop probe.
    loaded: bool,
    seed: u64,
}

/// What a guarantee job measured (the runner's `GuaranteeResult` fields,
/// or the isolated probe's mean partial latency).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Measured {
    block: u64,
    partial_us: Option<f64>,
    complete_us: Option<f64>,
    achieved_ups: Option<f64>,
    sustained: bool,
}

/// Build the pipeline, run it and read the driver back: the same calls
/// in the same order as `runner::run_guarantee` / `isolated_partial_us`,
/// split into spans.
fn guarantee_job(ctx: &mut Ctx<'_>, s: &Spec) -> (JobOut, Measured) {
    let t0 = Instant::now();
    let compute = s.panel.compute();
    let block = ctx.tr.scope("plan", || {
        let curve = PerfCurve::from_kind(s.series.planner());
        block_size_for_update_rate(&curve, IMAGE_BYTES, s.ups)
            .expect("every benchmark rate has a planned block")
    });
    let plan = ctx.tr.scope("setup.queries", || {
        let img = BlockedImage::paper_image(block);
        if s.loaded {
            let period = Dur::from_secs_f64(1.0 / s.ups);
            let mut items: Vec<(SimTime, QueryDesc)> = (0..N_COMPLETE)
                .map(|i| (SimTime::ZERO + period.mul(i as u64), complete_update(&img)))
                .collect();
            for idx in probe_indices(N_COMPLETE, N_PARTIAL) {
                items.push((
                    SimTime::ZERO + period.mul(u64::from(idx)) + period.div(2),
                    partial_update(&img, 1),
                ));
            }
            Plan::OpenLoop(items)
        } else {
            Plan::ClosedLoop((0..N_PROBE).map(|_| partial_update(&img, 1)).collect())
        }
    });
    let (mut sim, cluster) = ctx.tr.scope("setup.cluster", || {
        let mut sim = Sim::new(s.seed);
        let cluster = Cluster::build(&mut sim, VizPipeline::nodes_needed(COPIES));
        (sim, cluster)
    });
    let cfg = PipelineCfg::paper(Provider::new(s.series.kind()), compute);
    let (driver_pid, targets) = ctx
        .tr
        .scope("setup.driver", || QueryDriver::install(&mut sim, plan));
    let pipe = ctx.tr.scope("setup.pipeline", || {
        let pipe = VizPipeline::build(&mut sim, &cluster, &cfg, driver_pid);
        *targets.lock().expect("targets") = pipe.repo_pids();
        apply_pipeline_plan(&mut sim, &cluster, driver_pid, COPIES);
        pipe
    });
    let setup_ns = crate::jobs::ns_since(t0);
    let (_end, run_ns) = run_sim(ctx, &mut sim, false);
    let count = ctx.count;
    let measured = ctx.tr.scope("readout", || {
        let d: &QueryDriver = sim.process(driver_pid).expect("driver persists");
        let achieved = d.achieved_rate(QueryKind::Complete);
        if let Some(sink) = count {
            let mut c = sink.counts.lock().expect("counts lock");
            read_net(&mut c, &sim, &cluster.network(), cluster.len());
            read_filters(
                &mut c,
                &sim,
                &pipe.inst,
                &[pipe.repo, pipe.stage1, pipe.stage2, pipe.viz],
            );
            c.viz_queries += d.results.len() as u64;
            for r in &d.results {
                let us = r.latency().as_micros_f64();
                match r.kind {
                    QueryKind::Partial => {
                        c.viz_partial.0 += us;
                        c.viz_partial.1 += 1;
                    }
                    QueryKind::Complete => {
                        c.viz_complete.0 += us;
                        c.viz_complete.1 += 1;
                    }
                    _ => {}
                }
            }
        }
        Measured {
            block,
            partial_us: d.mean_latency_us(QueryKind::Partial),
            complete_us: d.mean_latency_us(QueryKind::Complete),
            achieved_ups: achieved,
            sustained: achieved.is_some_and(|r| r >= 0.95 * s.ups) && d.outstanding() == 0,
        }
    });
    let out = JobOut {
        setup_ns,
        run_ns,
        events: sim.events_dispatched(),
        digest: sim.trace_digest(),
        check: Ok(()),
    };
    (out, measured)
}

/// Compare a job's measurement with the committed Figure 7 row.
fn check(s: &Spec, m: &Measured, p: &Point) -> Result<(), String> {
    let want = p.block(s.series);
    ensure(m.block == want, || {
        format!("planned block {} != committed {want}", m.block)
    })?;
    if s.loaded {
        return match s.series {
            Series::Tcp => ensure(m.sustained == p.tcp_sustained, || {
                format!(
                    "TCP sustained {} != committed {}",
                    m.sustained, p.tcp_sustained
                )
            }),
            Series::SocketViaDr => ensure(m.sustained, || "SocketVIA(DR) missed its rate".into()),
            // No committed column: fig7 never runs this loaded series.
            Series::SocketVia => ensure(m.complete_us.is_some(), || "no update completed".into()),
        };
    }
    let got = m
        .partial_us
        .map_or("-".to_string(), |us| format!("{us:.1}"));
    let want = p
        .partial_us
        .expect("probes only run at points with committed cells")[s.series.index()];
    ensure(got == want, || {
        format!("partial latency {got} us != committed {want}")
    })
}

/// The workload for `seed`: the job list is the same at every seed, run
/// in a seed-shuffled order on simulators seeded with `seed`. The viz
/// pipeline draws nothing from its RNG streams, so every seed must
/// reproduce the committed Figure 7 cells.
pub fn workload(seed: u64) -> Workload {
    let mut jobs = Vec::new();
    for point in POINTS {
        for series in Series::ALL {
            for loaded in [true, false] {
                if !loaded && point.partial_us.is_none() {
                    continue;
                }
                let spec = Spec {
                    panel: point.panel,
                    ups: point.ups,
                    series,
                    loaded,
                    seed,
                };
                jobs.push(Job {
                    label: format!(
                        "{:?} {} ups {series:?} {}",
                        point.panel,
                        point.ups,
                        if loaded { "loaded" } else { "probe" }
                    ),
                    run: Box::new(move |ctx| {
                        let (mut out, m) = guarantee_job(ctx, &spec);
                        out.check = check(&spec, &m, &point);
                        out
                    }),
                });
            }
        }
    }
    Rng::new(seed).shuffle(&mut jobs);
    // The cheapest loaded and probe jobs stand in for the whole list in
    // the library-equivalence check.
    let Point { panel, ups, .. } = POINTS[0];
    let loaded = Spec {
        panel,
        ups,
        series: Series::SocketVia,
        loaded: true,
        seed,
    };
    let probe = Spec {
        loaded: false,
        ..loaded
    };
    let pre_checks: Vec<PreCheck> = vec![Box::new(move || equivalence(&loaded, &probe))];
    Workload {
        jobs,
        pre_checks,
        nominal_rep_s: 4.1,
    }
}

/// The composed jobs must equal the runner's one-call entry points.
fn equivalence(loaded: &Spec, probe: &Spec) -> Result<(), String> {
    let mut tr = crate::trace::Tracer::new();
    let mut ctx = Ctx {
        tr: &mut tr,
        count: None,
    };
    let (out, m) = guarantee_job(&mut ctx, loaded);
    let (lib, cap) = runner::run_guarantee_traced(
        &GuaranteeRun {
            kind: loaded.series.kind(),
            block_bytes: m.block,
            compute: loaded.panel.compute(),
            target_ups: loaded.ups,
            n_complete: N_COMPLETE,
            n_partial: N_PARTIAL,
            seed: loaded.seed,
        },
        None,
    );
    let lib_m = Measured {
        block: m.block,
        partial_us: lib.partial_us,
        complete_us: lib.complete_us,
        achieved_ups: lib.achieved_ups,
        sustained: lib.sustained,
    };
    ensure(m == lib_m && out.digest == cap.digest, || {
        format!("composed loaded run {m:?} (digest {:x}) != runner::run_guarantee {lib_m:?} (digest {:x})", out.digest, cap.digest)
    })?;
    let (_, m) = guarantee_job(&mut ctx, probe);
    let lib = runner::isolated_partial_us(
        probe.series.kind(),
        m.block,
        probe.panel.compute(),
        N_PROBE,
        probe.seed,
    );
    ensure(m.partial_us == Some(lib), || {
        format!(
            "composed probe {:?} != runner::isolated_partial_us {lib}",
            m.partial_us
        )
    })
}
