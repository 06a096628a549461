//! Figure 10 — load-balancer reaction time to heterogeneity under
//! round-robin scheduling, vs the factor of heterogeneity, for TCP (16 KB
//! blocks) and SocketVIA (2 KB blocks) at their perfect-pipelining points.

use crate::breakdown;
use crate::replicate::{self, Layout, Series};
use crate::runner::{RunCapture, FIG10_SEED};
use crate::sweep::parallel_map_seeded;
use crate::table::{fmt_opt, Table};
use hpsock_net::TransportKind;
use hpsock_sim::{Dur, Probe, SimTime};
use hpsock_vizserver::{rr_reaction_time_probed, LbSetup};
use std::path::Path;

/// Heterogeneity factors on the x-axis.
pub fn factors() -> Vec<f64> {
    vec![2.0, 4.0, 6.0, 8.0, 10.0]
}

/// Reaction time (µs) for one transport at one factor.
pub fn reaction_us(kind: TransportKind, factor: f64, seed: u64) -> Option<f64> {
    reaction_probed(kind, factor, seed, |_| None).0
}

/// [`reaction_us`] with the probe bus attached once the LB cluster
/// exists (the factory receives the resource-name table), additionally
/// returning the run's [`RunCapture`] for the breakdown/export layer.
/// Probes are observational only, so the measured reaction time is
/// identical to the unprobed run (pinned by the determinism tests).
pub fn reaction_probed(
    kind: TransportKind,
    factor: f64,
    seed: u64,
    make_probe: impl FnOnce(&[String]) -> Option<Box<dyn Probe>>,
) -> (Option<f64>, RunCapture) {
    let setup = LbSetup::paper(kind);
    // One node turns slow a third of the way through a workload long
    // enough to observe the balancer's mistake.
    let emit_ns = (setup.ns_per_byte * setup.block_bytes as f64) as u64;
    let blocks = 3 * 100u32; // ~100 emissions before and after the switch
    let slow_at = SimTime::ZERO + Dur::nanos(emit_ns * 100);
    let (reaction, cap) =
        rr_reaction_time_probed(&setup, factor, slow_at, blocks, seed, make_probe);
    (reaction.map(|d| d.as_micros_f64()), cap)
}

/// `HPSOCK_TRACE` export: replay the factor-4 heterogeneous cluster
/// (mid-sweep, where both transports still react) over TCP and SocketVIA
/// with the probe bus recording; see [`breakdown::export_run_traces`]
/// for the files written.
pub fn export_traces(dir: &Path) {
    breakdown::export_run_traces(
        dir,
        "fig10",
        "Figure 10 time breakdown at heterogeneity factor 4 (us of server-time)",
        FIG10_SEED,
        &[
            ("TCP", TransportKind::KTcp),
            ("SocketVIA", TransportKind::SocketVia),
        ],
        |&kind, seed, mk| reaction_probed(kind, 4.0, seed, mk).1,
    );
}

/// One factor's per-seed measurements. `None` entries are runs where the
/// balancer never reacted (the workload drained before, or without, a
/// post-slowdown block reaching the slow worker).
#[derive(Debug, Clone)]
pub struct Row {
    /// Heterogeneity factor.
    pub factor: f64,
    /// SocketVIA reaction time per seed, µs.
    pub sv: Vec<Option<f64>>,
    /// TCP reaction time per seed, µs.
    pub tcp: Vec<Option<f64>>,
}

/// Run the sweep, one replicate per seed in `seeds`.
pub fn sweep_seeded(seeds: &[u64]) -> Vec<Row> {
    let reps = parallel_map_seeded(factors(), seeds, |&f, seed| {
        (
            reaction_us(TransportKind::SocketVia, f, seed),
            reaction_us(TransportKind::KTcp, f, seed),
        )
    });
    factors()
        .into_iter()
        .zip(reps)
        .map(|(factor, per_seed)| Row {
            factor,
            sv: per_seed.iter().map(|&(sv, _)| sv).collect(),
            tcp: per_seed.iter().map(|&(_, tcp)| tcp).collect(),
        })
        .collect()
}

/// Render the sweep. A no-reaction measurement is an **explicit `-`
/// (NA) cell** — the row is never skipped and `NaN` never printed
/// (pinned by the `no_reaction_*` tests); the ratio column goes NA
/// whenever either side has no mean. Replicated batches add
/// `_ci95_lo`/`_ci95_hi` columns and a trailing `n_seeds`;
/// `HPSOCK_TAILS=1` appends `_p50`/`_p99`/`_p999` after each series.
pub fn to_table(rows: &[Row]) -> Table {
    let layout = Layout::new(rows.first().map_or(1, |r| r.sv.len()), 1);
    let mut headers = vec!["factor".to_string()];
    layout.headers(&mut headers, ["SocketVIA", "TCP"]);
    headers.push("TCP/SocketVIA".into());
    layout.n_seeds_header(&mut headers);
    let mut t = Table::from_headers(
        "Figure 10: load-balancer reaction time (us) vs factor of heterogeneity (round-robin)",
        headers,
    );
    for r in rows {
        let sv = Series::collect(r.sv.iter().copied());
        let tcp = Series::collect(r.tcp.iter().copied());
        let ratio = match (sv.mean(), tcp.mean()) {
            (Some(s), Some(t)) if s > 0.0 => Some(t / s),
            _ => None,
        };
        let mut row = vec![format!("{:.0}", r.factor)];
        layout.cells(&mut row, &sv);
        layout.cells(&mut row, &tcp);
        row.push(fmt_opt(ratio, 1));
        layout.n_seeds_cell(&mut row);
        t.add_row(row);
    }
    t
}

/// Run the sweep with the `HPSOCK_SEEDS` replicate batch derived from
/// [`FIG10_SEED`].
pub fn run() -> Vec<Table> {
    let seeds = replicate::seed_batch(FIG10_SEED, replicate::seed_count());
    vec![to_table(&sweep_seeded(&seeds))]
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpsock_vizserver::rr_reaction_time;

    #[test]
    fn no_reaction_run_yields_none_not_a_panic() {
        // The workload drains long before the slowdown fires, so the
        // balancer never sends a post-slowdown block: Option stays None.
        let setup = LbSetup::paper(TransportKind::SocketVia);
        let far_future = SimTime::ZERO + Dur::from_secs_f64(3600.0);
        let r = rr_reaction_time(&setup, 4.0, far_future, 20, 1);
        assert_eq!(r, None, "balancer had nothing to react to");
    }

    #[test]
    fn no_reaction_emits_explicit_na_cell_never_nan() {
        // Single-seed: a None measurement must become a "-" cell in an
        // intact row, not a skipped row or a NaN.
        let rows = vec![
            Row {
                factor: 4.0,
                sv: vec![None],
                tcp: vec![Some(120.0)],
            },
            Row {
                factor: 8.0,
                sv: vec![Some(10.0)],
                tcp: vec![Some(90.0)],
            },
        ];
        let t = to_table(&rows);
        assert_eq!(t.rows.len(), 2, "no-reaction row is not skipped");
        assert_eq!(t.rows[0][1], "-", "SocketVIA NA cell is explicit");
        assert_eq!(t.rows[0][3], "-", "ratio goes NA with it");
        assert_eq!(t.rows[1][3], "9.0");
        assert!(!t.to_csv().contains("NaN"), "no NaN leaks: {}", t.to_csv());

        // Replicated: a batch where every seed failed to react stays NA,
        // and a partial batch aggregates only the reacting seeds.
        let t = to_table(&[Row {
            factor: 4.0,
            sv: vec![None, None, None],
            tcp: vec![Some(100.0), None, Some(140.0)],
        }]);
        assert_eq!(t.rows[0][1..4], ["-", "-", "-"], "all-NA batch stays NA");
        assert_eq!(t.rows[0][4], "120.0", "TCP mean over reacting seeds");
        assert!(!t.to_csv().contains("NaN"), "no NaN leaks: {}", t.to_csv());
    }

    #[test]
    fn tcp_reaction_is_much_slower_and_grows_with_factor() {
        let sv4 = reaction_us(TransportKind::SocketVia, 4.0, 1).unwrap();
        let tcp4 = reaction_us(TransportKind::KTcp, 4.0, 1).unwrap();
        assert!(
            tcp4 / sv4 > 4.0,
            "block-size ratio shows: TCP {tcp4:.0}us vs SocketVIA {sv4:.0}us"
        );
        let tcp8 = reaction_us(TransportKind::KTcp, 8.0, 1).unwrap();
        assert!(tcp8 > tcp4, "reaction grows with factor: {tcp4} -> {tcp8}");
    }
}
