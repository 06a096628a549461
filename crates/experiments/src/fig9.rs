//! Figure 9 — average response time of a mixed query stream (zoom queries
//! touching 4 chunks vs complete updates touching everything), as the
//! fraction of complete updates varies, for dataset partitionings of
//! none / 8 / 64 chunks, over TCP and SocketVIA, with and without
//! computation.

use crate::breakdown;
use crate::replicate::{self, Layout, Series};
use crate::runner::{run_pipeline, RunCapture, FIG9_SEED};
use crate::sweep::parallel_map_seeded;
use crate::table::Table;
use hpsock_net::TransportKind;
use hpsock_sim::Probe;
use hpsock_vizserver::{BlockedImage, ComputeModel, Plan};
use std::path::Path;

/// The mixed-stream interleaving now lives next to the other query
/// constructors; re-exported so `fig9::query_mix` keeps resolving.
pub use hpsock_vizserver::query_mix;

/// The paper's 16 MB image.
pub const IMAGE_BYTES: u64 = 16 * 1024 * 1024;

/// Partition counts plotted in the paper ("No Partitions", 8, 64).
pub const PARTITIONS: [u64; 3] = [1, 8, 64];

/// Complete-update fractions (x-axis).
pub fn fractions() -> Vec<f64> {
    (0..=10).map(|i| i as f64 / 10.0).collect()
}

/// Mean response time (ms) of a closed-loop mixed stream.
pub fn mean_response_ms(
    kind: TransportKind,
    compute: ComputeModel,
    partitions: u64,
    fraction: f64,
    n: u32,
    seed: u64,
) -> f64 {
    mean_response_probed(kind, compute, partitions, fraction, n, seed, |_| None).0
}

/// [`mean_response_ms`] with the probe bus attached once the pipeline
/// exists (the factory receives the resource-name table), additionally
/// returning the run's [`RunCapture`] for the breakdown/export layer.
/// Probes are observational only, so the measured response time is
/// identical to the unprobed run (pinned by the determinism tests).
pub fn mean_response_probed(
    kind: TransportKind,
    compute: ComputeModel,
    partitions: u64,
    fraction: f64,
    n: u32,
    seed: u64,
    make_probe: impl FnOnce(&[String]) -> Option<Box<dyn Probe>>,
) -> (f64, RunCapture) {
    let img = BlockedImage::paper_image(IMAGE_BYTES / partitions);
    let plan = Plan::ClosedLoop(query_mix(&img, fraction, n));
    run_pipeline(kind, compute, plan, seed, make_probe, |d| {
        assert_eq!(d.results.len(), n as usize, "closed loop drained");
        d.mean_latency_all_us().expect("results present") / 1_000.0
    })
}

/// `HPSOCK_TRACE` export: replay the half-complete/half-zoom mix at 64
/// partitions without computation (the panel point where the transports
/// diverge hardest) over TCP and SocketVIA with the probe bus recording;
/// see [`breakdown::export_run_traces`] for the files written.
pub fn export_traces(dir: &Path, quick: bool) {
    let n = queries(quick);
    breakdown::export_run_traces(
        dir,
        "fig9",
        "Figure 9 time breakdown at fraction 0.5, 64 partitions, no computation (us of server-time)",
        FIG9_SEED,
        &[("TCP", TransportKind::KTcp), ("SocketVIA", TransportKind::SocketVia)],
        |&kind, seed, mk| mean_response_probed(kind, ComputeModel::None, 64, 0.5, n, seed, mk).1,
    );
}

/// Run one panel with the single base seed: rows = fractions, columns =
/// partitionings × transports.
pub fn panel(compute: ComputeModel, n: u32) -> Table {
    panel_seeded(compute, n, &[FIG9_SEED])
}

/// [`panel`], one replicate per seed in `seeds` (see
/// [`crate::replicate`]): replicated batches add per-column
/// `_ci95_lo`/`_ci95_hi` plus a trailing `n_seeds`; `HPSOCK_TAILS=1`
/// appends `_p50`/`_p99`/`_p999` tail columns after each series.
pub fn panel_seeded(compute: ComputeModel, n: u32, seeds: &[u64]) -> Table {
    const COLS: [&str; 6] = [
        "NoPart(SV)",
        "8Part(SV)",
        "64Part(SV)",
        "NoPart(TCP)",
        "8Part(TCP)",
        "64Part(TCP)",
    ];
    let fr = fractions();
    let mut jobs = Vec::new();
    for &f in &fr {
        for kind in [TransportKind::SocketVia, TransportKind::KTcp] {
            for parts in PARTITIONS {
                jobs.push((kind, parts, f));
            }
        }
    }
    let results = parallel_map_seeded(jobs, seeds, move |&(kind, parts, f), seed| {
        mean_response_ms(kind, compute, parts, f, n, seed)
    });
    let layout = Layout::new(seeds.len(), 1);
    let mut headers = vec!["fraction".to_string()];
    layout.headers(&mut headers, COLS);
    layout.n_seeds_header(&mut headers);
    let mut t = Table::from_headers(
        format!(
            "Figure 9: avg response time (ms) vs fraction of complete-update queries, {}",
            compute.label()
        ),
        headers,
    );
    for (i, &f) in fr.iter().enumerate() {
        let base = i * COLS.len();
        let mut row = vec![format!("{f:.1}")];
        for reps in &results[base..base + COLS.len()] {
            layout.cells(&mut row, &Series::collect(reps.iter().map(|&v| Some(v))));
        }
        layout.n_seeds_cell(&mut row);
        t.add_row(row);
    }
    t
}

/// Queries per closed-loop stream at quick (smoke) or full scale.
fn queries(quick: bool) -> u32 {
    if quick {
        5
    } else {
        10
    }
}

/// Run both panels at quick or full scale, with the `HPSOCK_SEEDS`
/// replicate batch derived from [`FIG9_SEED`].
pub fn run(quick: bool) -> Vec<Table> {
    let n = queries(quick);
    let seeds = replicate::seed_batch(FIG9_SEED, replicate::seed_count());
    vec![
        panel_seeded(ComputeModel::None, n, &seeds),
        panel_seeded(ComputeModel::paper_linear(), n, &seeds),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_and_proportional() {
        let img = BlockedImage::paper_image(IMAGE_BYTES / 64);
        let qs = query_mix(&img, 0.3, 10);
        let completes = qs
            .iter()
            .filter(|q| q.kind == hpsock_vizserver::QueryKind::Complete)
            .count();
        assert_eq!(completes, 3);
        let again = query_mix(&img, 0.3, 10);
        let k: Vec<_> = qs.iter().map(|q| q.kind).collect();
        let k2: Vec<_> = again.iter().map(|q| q.kind).collect();
        assert_eq!(k, k2);
    }

    #[test]
    fn response_grows_faster_for_tcp_with_partitioning() {
        // The paper's observation: with 64 partitions, TCP's response time
        // rises much faster in the complete fraction than SocketVIA's.
        let n = 6;
        let sv0 = mean_response_ms(TransportKind::SocketVia, ComputeModel::None, 64, 0.0, n, 1);
        let sv1 = mean_response_ms(TransportKind::SocketVia, ComputeModel::None, 64, 1.0, n, 1);
        let tcp0 = mean_response_ms(TransportKind::KTcp, ComputeModel::None, 64, 0.0, n, 1);
        let tcp1 = mean_response_ms(TransportKind::KTcp, ComputeModel::None, 64, 1.0, n, 1);
        let sv_slope = sv1 - sv0;
        let tcp_slope = tcp1 - tcp0;
        assert!(
            tcp_slope > 1.5 * sv_slope,
            "TCP slope {tcp_slope:.1}ms vs SocketVIA slope {sv_slope:.1}ms"
        );
    }

    #[test]
    fn unpartitioned_response_is_flat_in_fraction() {
        // With no partitioning every query fetches everything, so the
        // response time barely varies with the mix.
        let n = 5;
        let lo = mean_response_ms(TransportKind::SocketVia, ComputeModel::None, 1, 0.0, n, 2);
        let hi = mean_response_ms(TransportKind::SocketVia, ComputeModel::None, 1, 1.0, n, 2);
        let rel = (hi - lo).abs() / lo;
        assert!(rel < 0.10, "flat curve expected: {lo:.1} vs {hi:.1}");
    }
}
