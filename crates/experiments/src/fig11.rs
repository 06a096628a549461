//! Figure 11 — execution time under demand-driven scheduling on a
//! heterogeneous cluster: nodes slow down per-block with probability `p`
//! (x-axis) at factors 2/4/8, for SocketVIA and TCP at their
//! perfect-pipelining block sizes.

use crate::breakdown;
use crate::replicate::{self, Layout, Series};
use crate::runner::{RunCapture, FIG11_SEED};
use crate::sweep::parallel_map_seeded;
use crate::table::Table;
use hpsock_net::TransportKind;
use hpsock_sim::Probe;
use hpsock_vizserver::{dd_execution_time_probed, LbSetup};
use std::path::Path;

/// Probabilities on the x-axis (percent / 100).
pub fn probabilities() -> Vec<f64> {
    (1..=9).map(|i| i as f64 / 10.0).collect()
}

/// Heterogeneity factors plotted.
pub const FACTORS: [f64; 3] = [2.0, 4.0, 8.0];

/// Workload processed per run (the same byte volume for both transports,
/// split into each transport's block size).
pub const WORKLOAD_BYTES: u64 = 2 * 1024 * 1024;

/// Execution time (µs) for one point.
pub fn exec_us(kind: TransportKind, prob: f64, factor: f64, seed: u64) -> f64 {
    exec_probed(kind, prob, factor, seed, |_| None).0
}

/// [`exec_us`] with the probe bus attached once the LB cluster exists
/// (the factory receives the resource-name table), additionally
/// returning the run's [`RunCapture`] for the breakdown/export layer.
/// Probes are observational only, so the measured execution time is
/// identical to the unprobed run (pinned by the determinism tests).
pub fn exec_probed(
    kind: TransportKind,
    prob: f64,
    factor: f64,
    seed: u64,
    make_probe: impl FnOnce(&[String]) -> Option<Box<dyn Probe>>,
) -> (f64, RunCapture) {
    let setup = LbSetup::paper(kind);
    let blocks = (WORKLOAD_BYTES / setup.block_bytes) as u32;
    let (dur, cap) = dd_execution_time_probed(&setup, prob, factor, blocks, seed, make_probe);
    (dur.as_micros_f64(), cap)
}

/// `HPSOCK_TRACE` export: replay the p=0.5, factor-4 demand-driven
/// cluster (mid-sweep on both axes) over TCP and SocketVIA with the
/// probe bus recording; see [`breakdown::export_run_traces`] for the
/// files written.
pub fn export_traces(dir: &Path) {
    breakdown::export_run_traces(
        dir,
        "fig11",
        "Figure 11 time breakdown at p=0.5, heterogeneity factor 4 (us of server-time)",
        FIG11_SEED,
        &[
            ("TCP", TransportKind::KTcp),
            ("SocketVIA", TransportKind::SocketVia),
        ],
        |&kind, seed, mk| exec_probed(kind, 0.5, 4.0, seed, mk).1,
    );
}

/// Run the sweep with the `HPSOCK_SEEDS` replicate batch derived from
/// [`FIG11_SEED`].
pub fn run() -> Vec<Table> {
    run_seeded(&replicate::seed_batch(FIG11_SEED, replicate::seed_count()))
}

/// [`run`] with an explicit seed batch (see [`crate::replicate`]):
/// replicated batches add per-column `_ci95_lo`/`_ci95_hi` plus a
/// trailing `n_seeds`; `HPSOCK_TAILS=1` appends `_p50`/`_p99`/`_p999`
/// tail columns after each series.
pub fn run_seeded(seeds: &[u64]) -> Vec<Table> {
    const COLS: [&str; 6] = [
        "SocketVIA(2)",
        "SocketVIA(4)",
        "SocketVIA(8)",
        "TCP(2)",
        "TCP(4)",
        "TCP(8)",
    ];
    let probs = probabilities();
    let mut jobs = Vec::new();
    for &p in &probs {
        for kind in [TransportKind::SocketVia, TransportKind::KTcp] {
            for f in FACTORS {
                jobs.push((kind, p, f));
            }
        }
    }
    let results = parallel_map_seeded(jobs, seeds, |&(kind, p, f), seed| exec_us(kind, p, f, seed));
    let layout = Layout::new(seeds.len(), 0);
    let mut headers = vec!["prob_%".to_string()];
    layout.headers(&mut headers, COLS);
    layout.n_seeds_header(&mut headers);
    let mut t = Table::from_headers(
        "Figure 11: execution time (us) vs probability of being slow (demand-driven)",
        headers,
    );
    for (i, &p) in probs.iter().enumerate() {
        let base = i * COLS.len();
        let mut row = vec![format!("{:.0}", p * 100.0)];
        for reps in &results[base..base + COLS.len()] {
            layout.cells(&mut row, &Series::collect(reps.iter().map(|&v| Some(v))));
        }
        layout.n_seeds_cell(&mut row);
        t.add_row(row);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn execution_grows_with_probability_at_high_factor() {
        let lo = exec_us(TransportKind::SocketVia, 0.1, 8.0, 1);
        let hi = exec_us(TransportKind::SocketVia, 0.9, 8.0, 1);
        assert!(hi > 1.5 * lo, "p=0.9 {hi:.0}us vs p=0.1 {lo:.0}us");
    }

    #[test]
    fn tcp_stays_close_to_socketvia_under_dd() {
        // The paper's headline for this figure: demand-driven scheduling +
        // pipelining make the substrates comparable.
        for p in [0.3, 0.7] {
            let sv = exec_us(TransportKind::SocketVia, p, 4.0, 2);
            let tcp = exec_us(TransportKind::KTcp, p, 4.0, 2);
            let ratio = tcp / sv;
            assert!(
                (0.6..1.7).contains(&ratio),
                "p={p}: TCP {tcp:.0}us vs SocketVIA {sv:.0}us"
            );
        }
    }
}
