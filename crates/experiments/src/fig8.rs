//! Figure 8 — achievable full updates per second under a partial-update
//! latency guarantee, for (a) no computation and (b) linear computation.
//!
//! For each latency bound the planner picks the *largest* block whose
//! one-block transfer honours the bound; the pipeline is then saturated
//! with back-to-back complete updates and the completion rate measured.
//! TCP "drops out" once the bound falls below its latency intercept
//! (~47.5 µs + block transfer): at the paper's 100 µs point TCP barely
//! fits a block and its rate collapses.

use crate::replicate::{self, Layout, Series};
use crate::runner::{run_saturation_ups, GuaranteeRun, FIG8_SEED, FIG8_SWEEP_SEED};
use crate::sweep::parallel_map_seeded;
use crate::table::Table;
use hpsock_net::TransportKind;
use hpsock_vizserver::{block_size_for_partial_latency, ComputeModel};
use socketvia::PerfCurve;

/// The paper's 16 MB image.
pub const IMAGE_BYTES: u64 = 16 * 1024 * 1024;

/// Latency bounds of both panels (µs).
pub fn latency_bounds() -> Vec<f64> {
    vec![
        1000.0, 900.0, 800.0, 700.0, 600.0, 500.0, 400.0, 300.0, 200.0, 100.0,
    ]
}

/// One sweep point.
#[derive(Debug, Clone)]
pub struct Point {
    /// Latency bound, µs.
    pub limit_us: f64,
    /// TCP updates/s (None = no feasible block).
    pub tcp_ups: Option<f64>,
    /// SocketVIA at TCP's block size.
    pub sv_ups: Option<f64>,
    /// SocketVIA at its own (larger) planned block.
    pub sv_dr_ups: f64,
    /// Blocks used: (tcp, socketvia_dr).
    pub blocks: (Option<u64>, u64),
}

/// Run one panel with the single base seed: `n` updates per saturation
/// measurement.
pub fn sweep(compute: ComputeModel, bounds: &[f64], n: u32) -> Vec<Point> {
    sweep_seeded(compute, bounds, n, &[FIG8_SWEEP_SEED])
        .into_iter()
        .map(|mut reps| reps.remove(0))
        .collect()
}

/// Run one panel, one replicate per seed in `seeds` (see
/// [`crate::replicate`]).
pub fn sweep_seeded(
    compute: ComputeModel,
    bounds: &[f64],
    n: u32,
    seeds: &[u64],
) -> Vec<Vec<Point>> {
    let tcp_curve = PerfCurve::from_kind(TransportKind::KTcp);
    let sv_curve = PerfCurve::from_kind(TransportKind::SocketVia);
    let jobs: Vec<(f64, Option<u64>, u64)> = bounds
        .iter()
        .map(|&limit| {
            (
                limit,
                block_size_for_partial_latency(&tcp_curve, IMAGE_BYTES, limit),
                block_size_for_partial_latency(&sv_curve, IMAGE_BYTES, limit)
                    .expect("SocketVIA fits a block at every paper bound"),
            )
        })
        .collect();
    parallel_map_seeded(jobs, seeds, move |&(limit, tcp_block, sv_block), seed| {
        let tcp_ups =
            tcp_block.map(|b| run_saturation_ups(TransportKind::KTcp, b, compute, n, seed));
        let sv_ups =
            tcp_block.map(|b| run_saturation_ups(TransportKind::SocketVia, b, compute, n, seed));
        let sv_dr_ups = run_saturation_ups(TransportKind::SocketVia, sv_block, compute, n, seed);
        Point {
            limit_us: limit,
            tcp_ups,
            sv_ups,
            sv_dr_ups,
            blocks: (tcp_block, sv_block),
        }
    })
}

/// Render a panel as the paper's series. Replicated batches add
/// per-series `_ci95_lo`/`_ci95_hi` columns (the bare column is the
/// across-seed mean) and a trailing `n_seeds`; single-seed batches keep
/// the historical columns bit-for-bit. `HPSOCK_TAILS=1` appends
/// `_p50`/`_p99`/`_p999` tail columns after each series.
pub fn to_table(title: &str, points: &[Vec<Point>]) -> Table {
    let layout = Layout::new(points.first().map_or(1, Vec::len), 2);
    let mut headers = vec!["latency_us".to_string()];
    layout.headers(&mut headers, ["TCP", "SocketVIA", "SocketVIA(DR)"]);
    headers.extend(["tcp_block", "dr_block"].map(String::from));
    layout.n_seeds_header(&mut headers);
    let mut t = Table::from_headers(title, headers);
    for reps in points {
        let p0 = &reps[0];
        let mut row = vec![format!("{:.0}", p0.limit_us)];
        let series = |f: fn(&Point) -> Option<f64>| Series::collect(reps.iter().map(f));
        layout.cells(&mut row, &series(|p| p.tcp_ups));
        layout.cells(&mut row, &series(|p| p.sv_ups));
        layout.cells(&mut row, &series(|p| Some(p.sv_dr_ups)));
        row.push(
            p0.blocks
                .0
                .map(|b| b.to_string())
                .unwrap_or_else(|| "-".into()),
        );
        row.push(p0.blocks.1.to_string());
        layout.n_seeds_cell(&mut row);
        t.add_row(row);
    }
    t
}

/// Updates per saturation measurement at quick (smoke) or full scale.
fn updates(quick: bool) -> u32 {
    if quick {
        3
    } else {
        5
    }
}

/// Run both panels at quick or full scale, with the `HPSOCK_SEEDS`
/// replicate batch derived from [`FIG8_SWEEP_SEED`].
pub fn run(quick: bool) -> Vec<Table> {
    run_seeded(
        updates(quick),
        &replicate::seed_batch(FIG8_SWEEP_SEED, replicate::seed_count()),
    )
}

/// [`run`] with an explicit seed batch.
pub fn run_seeded(n: u32, seeds: &[u64]) -> Vec<Table> {
    let bounds = latency_bounds();
    let a = sweep_seeded(ComputeModel::None, &bounds, n, seeds);
    let b = sweep_seeded(ComputeModel::paper_linear(), &bounds, n, seeds);
    vec![
        to_table(
            "Figure 8(a): updates/sec with latency guarantee, no computation",
            &a,
        ),
        to_table(
            "Figure 8(b): updates/sec with latency guarantee, linear computation",
            &b,
        ),
    ]
}

/// Probe-bus export (behind `HPSOCK_TRACE`): trace a loaded 2 updates/sec
/// run per series at the 500 µs bound's planned blocks and write
/// `fig8_<series>.trace.json` Chrome traces plus `fig8_breakdown.csv`
/// under `dir`, streaming as many complete updates as a sweep point.
pub fn export_traces(dir: &std::path::Path, quick: bool) {
    const LIMIT_US: f64 = 500.0;
    let tcp_block = block_size_for_partial_latency(
        &PerfCurve::from_kind(TransportKind::KTcp),
        IMAGE_BYTES,
        LIMIT_US,
    )
    .expect("TCP fits a block at 500us");
    let sv_block = block_size_for_partial_latency(
        &PerfCurve::from_kind(TransportKind::SocketVia),
        IMAGE_BYTES,
        LIMIT_US,
    )
    .expect("SocketVIA fits a block at every paper bound");
    let mk = |kind, block_bytes| GuaranteeRun {
        kind,
        block_bytes,
        compute: ComputeModel::None,
        target_ups: 2.0,
        n_complete: updates(quick),
        n_partial: 2,
        seed: FIG8_SEED,
    };
    crate::breakdown::export_guarantee_traces(
        dir,
        "fig8",
        "Figure 8 time breakdown at the 500 us bound, 2 updates/sec load (us of server-time)",
        FIG8_SEED,
        &[
            ("TCP", mk(TransportKind::KTcp, tcp_block)),
            ("SocketVIA", mk(TransportKind::SocketVia, tcp_block)),
            (
                "SocketVIA (with DR)",
                mk(TransportKind::SocketVia, sv_block),
            ),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dr_dominates_and_tcp_degrades_at_tight_bounds() {
        let pts = sweep(ComputeModel::None, &[1000.0, 100.0], 4);
        let loose = &pts[0];
        let tight = &pts[1];
        // At a loose bound everyone works; DR at least matches.
        assert!(loose.sv_dr_ups >= loose.tcp_ups.unwrap() * 1.2);
        // At 100us TCP fits only a tiny block and collapses, while
        // SocketVIA DR stays near its peak.
        let tcp_tight = tight.tcp_ups.unwrap_or(0.0);
        assert!(
            tight.sv_dr_ups > 4.0 * tcp_tight.max(0.05),
            "DR {} vs TCP {} at 100us",
            tight.sv_dr_ups,
            tcp_tight
        );
        assert!(
            tight.sv_dr_ups > 0.75 * loose.sv_dr_ups,
            "DR stays near peak: {} vs {}",
            tight.sv_dr_ups,
            loose.sv_dr_ups
        );
    }

    #[test]
    fn compute_compresses_the_gap() {
        // With 18ns/B compute the processing dominates and TCP ~ SocketVIA
        // at loose bounds (paper: "TCP and SocketVIA perform very
        // closely").
        let pts = sweep(ComputeModel::paper_linear(), &[1000.0], 4);
        let p = &pts[0];
        let (tcp, sv) = (p.tcp_ups.unwrap(), p.sv_ups.unwrap());
        assert!(
            sv / tcp < 2.0,
            "compute narrows the ratio: sv {sv} tcp {tcp}"
        );
    }
}
