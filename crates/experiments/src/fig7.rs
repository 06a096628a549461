//! Figure 7 — average partial-update latency under an updates-per-second
//! guarantee, for (a) no computation and (b) linear (18 ns/B) computation.
//!
//! For each target rate the distribution block size is planned against the
//! transport's measured curve (`hpsock_vizserver::guarantee`); then the
//! pipeline streams complete updates at the target rate while partial
//! probes measure latency under load. Three series, as in the paper:
//!
//! * **TCP** — TCP sockets with the block TCP's curve requires;
//! * **SocketVIA** — SocketVIA carrying the *same* (TCP-planned) blocks,
//!   i.e. an unmodified application (the direct improvement);
//! * **SocketVIA (with DR)** — SocketVIA with blocks re-planned against
//!   its own curve (the indirect improvement).

use crate::replicate::{self, Layout, Series};
use crate::runner::{isolated_partial_us, run_guarantee, GuaranteeRun, FIG7_SEED};
use crate::sweep::parallel_map_seeded;
use crate::table::Table;
use hpsock_net::TransportKind;
use hpsock_vizserver::{block_size_for_update_rate, ComputeModel};
use socketvia::PerfCurve;

/// The paper's 16 MB image.
pub const IMAGE_BYTES: u64 = 16 * 1024 * 1024;

/// Target rates of panel (a).
pub fn rates_no_compute() -> Vec<f64> {
    vec![4.0, 3.75, 3.5, 3.25, 3.0, 2.75, 2.5, 2.25, 2.0]
}

/// Target rates of panel (b).
pub fn rates_linear_compute() -> Vec<f64> {
    vec![3.25, 3.0, 2.75, 2.5, 2.25, 2.0]
}

/// One sweep point: the three series' measurements at a target rate.
///
/// Latencies are the paper's "latency for this message chunk": the
/// end-to-end pipeline latency of a one-block partial update with the
/// block size the rate guarantee dictates. Sustainability of the rate
/// itself is verified with a separate loaded run.
#[derive(Debug, Clone)]
pub struct Point {
    /// Target updates per second.
    pub ups: f64,
    /// TCP partial latency, µs (None = planner dropout).
    pub tcp_us: Option<f64>,
    /// SocketVIA partial latency at TCP's block, µs.
    pub sv_us: f64,
    /// SocketVIA partial latency at its own planned block, µs.
    pub sv_dr_us: f64,
    /// Did TCP sustain the target rate in the loaded run?
    pub tcp_sustained: Option<bool>,
    /// Did SocketVIA (with DR) sustain the target rate?
    pub sv_dr_sustained: bool,
    /// Blocks used: (tcp, socketvia_dr).
    pub blocks: (Option<u64>, u64),
}

/// Sweep scale: how many updates/probes each point streams.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Complete updates per point.
    pub n_complete: u32,
    /// Partial probes per point.
    pub n_partial: u32,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            n_complete: 6,
            n_partial: 4,
        }
    }
}

impl Scale {
    /// The smoke-run scale when `quick`, else [`Scale::default`].
    fn of(quick: bool) -> Scale {
        if quick {
            Scale {
                n_complete: 3,
                n_partial: 2,
            }
        } else {
            Scale::default()
        }
    }
}

/// Run one panel with the single base seed (the historical figure).
pub fn sweep(compute: ComputeModel, rates: &[f64], scale: Scale) -> Vec<Point> {
    sweep_seeded(compute, rates, scale, &[FIG7_SEED])
        .into_iter()
        .map(|mut reps| reps.remove(0))
        .collect()
}

/// Run one panel, one replicate per seed in `seeds`: returns per-rate
/// batches of [`Point`]s in seed order (see [`crate::replicate`]).
pub fn sweep_seeded(
    compute: ComputeModel,
    rates: &[f64],
    scale: Scale,
    seeds: &[u64],
) -> Vec<Vec<Point>> {
    let tcp_curve = PerfCurve::from_kind(TransportKind::KTcp);
    let sv_curve = PerfCurve::from_kind(TransportKind::SocketVia);
    // An unmodified sockets application keeps the chunking it was written
    // with: when TCP cannot plan a block for the target rate at all, the
    // no-DR SocketVIA series reuses TCP's block at TCP's best feasible
    // rate.
    let tcp_fallback = (0..)
        .map(|i| 3.25 - 0.25 * i as f64)
        .find_map(|r| block_size_for_update_rate(&tcp_curve, IMAGE_BYTES, r))
        .expect("TCP can sustain some rate");
    let jobs: Vec<(f64, Option<u64>, u64, u64)> = rates
        .iter()
        .map(|&ups| {
            let tcp_block = block_size_for_update_rate(&tcp_curve, IMAGE_BYTES, ups);
            let sv_block = block_size_for_update_rate(&sv_curve, IMAGE_BYTES, ups)
                .expect("SocketVIA sustains all paper rates");
            (ups, tcp_block, sv_block, tcp_fallback)
        })
        .collect();
    parallel_map_seeded(
        jobs,
        seeds,
        move |&(ups, tcp_block, sv_block, fallback), seed| {
            let sustain = |kind, block| {
                run_guarantee(&GuaranteeRun {
                    kind,
                    block_bytes: block,
                    compute,
                    target_ups: ups,
                    n_complete: scale.n_complete,
                    n_partial: scale.n_partial,
                    seed,
                })
                .sustained
            };
            let probe = |kind, block| isolated_partial_us(kind, block, compute, 4, seed);
            let tcp_us = tcp_block.map(|b| probe(TransportKind::KTcp, b));
            let sv_us = probe(TransportKind::SocketVia, tcp_block.unwrap_or(fallback));
            let sv_dr_us = probe(TransportKind::SocketVia, sv_block);
            let tcp_sustained = tcp_block.map(|b| sustain(TransportKind::KTcp, b));
            let sv_dr_sustained = sustain(TransportKind::SocketVia, sv_block);
            Point {
                ups,
                tcp_us,
                sv_us,
                sv_dr_us,
                tcp_sustained,
                sv_dr_sustained,
                blocks: (tcp_block, sv_block),
            }
        },
    )
}

/// Render a panel as the paper's series (partial-update latency in µs).
/// Single-seed batches reproduce the historical columns exactly;
/// replicated batches add per-series `_ci95_lo`/`_ci95_hi` columns (the
/// bare column becomes the across-seed mean) plus a trailing `n_seeds`.
/// `HPSOCK_TAILS=1` additionally appends `_p50`/`_p99`/`_p999` tail
/// columns after each series (see [`replicate::tails_enabled`]).
pub fn to_table(title: &str, points: &[Vec<Point>]) -> Table {
    let layout = Layout::new(points.first().map_or(1, Vec::len), 1);
    let mut headers = vec!["updates_per_sec".to_string()];
    layout.headers(&mut headers, ["TCP", "SocketVIA", "SocketVIA(DR)"]);
    headers.extend(["tcp_block", "dr_block", "tcp_sustained"].map(String::from));
    layout.n_seeds_header(&mut headers);
    let mut t = Table::from_headers(title, headers);
    for reps in points {
        let p0 = &reps[0];
        let mut row = vec![format!("{:.2}", p0.ups)];
        let series = |f: fn(&Point) -> Option<f64>| Series::collect(reps.iter().map(f));
        layout.cells(&mut row, &series(|p| p.tcp_us));
        layout.cells(&mut row, &series(|p| Some(p.sv_us)));
        layout.cells(&mut row, &series(|p| Some(p.sv_dr_us)));
        row.push(
            p0.blocks
                .0
                .map(|b| b.to_string())
                .unwrap_or_else(|| "-".into()),
        );
        row.push(p0.blocks.1.to_string());
        row.push(if layout.replicated() {
            let known: Vec<bool> = reps.iter().filter_map(|p| p.tcp_sustained).collect();
            if known.is_empty() {
                "-".into()
            } else {
                format!("{}/{}", known.iter().filter(|&&s| s).count(), known.len())
            }
        } else {
            p0.tcp_sustained
                .map(|s| s.to_string())
                .unwrap_or_else(|| "-".into())
        });
        layout.n_seeds_cell(&mut row);
        t.add_row(row);
    }
    t
}

/// Run both panels at quick or full scale, with the `HPSOCK_SEEDS`
/// replicate batch derived from [`FIG7_SEED`].
pub fn run(quick: bool) -> Vec<Table> {
    run_seeded(
        Scale::of(quick),
        &replicate::seed_batch(FIG7_SEED, replicate::seed_count()),
    )
}

/// [`run`] with an explicit seed batch.
pub fn run_seeded(scale: Scale, seeds: &[u64]) -> Vec<Table> {
    let a = sweep_seeded(ComputeModel::None, &rates_no_compute(), scale, seeds);
    let b = sweep_seeded(
        ComputeModel::paper_linear(),
        &rates_linear_compute(),
        scale,
        seeds,
    );
    vec![
        to_table(
            "Figure 7(a): avg partial-update latency (us) with updates/sec guarantee, no computation",
            &a,
        ),
        to_table(
            "Figure 7(b): avg partial-update latency (us) with updates/sec guarantee, linear computation",
            &b,
        ),
    ]
}

/// Probe-bus export (behind `HPSOCK_TRACE`): re-run the 3 updates/sec
/// no-computation point once per series with a recorder attached and write
/// `fig7_<series>.trace.json` Chrome traces plus `fig7_breakdown.csv`
/// under `dir`.
pub fn export_traces(dir: &std::path::Path, quick: bool) {
    const UPS: f64 = 3.0;
    let scale = Scale::of(quick);
    let tcp_block =
        block_size_for_update_rate(&PerfCurve::from_kind(TransportKind::KTcp), IMAGE_BYTES, UPS)
            .expect("TCP sustains 3 ups");
    let sv_block = block_size_for_update_rate(
        &PerfCurve::from_kind(TransportKind::SocketVia),
        IMAGE_BYTES,
        UPS,
    )
    .expect("SocketVIA sustains all paper rates");
    let mk = |kind, block_bytes| GuaranteeRun {
        kind,
        block_bytes,
        compute: ComputeModel::None,
        target_ups: UPS,
        n_complete: scale.n_complete,
        n_partial: scale.n_partial,
        seed: FIG7_SEED,
    };
    crate::breakdown::export_guarantee_traces(
        dir,
        "fig7",
        "Figure 7 time breakdown at 3 updates/sec, no computation (us of server-time)",
        FIG7_SEED,
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
    fn shape_holds_at_a_midrange_point() {
        let pts = sweep(
            ComputeModel::None,
            &[3.0],
            Scale {
                n_complete: 4,
                n_partial: 3,
            },
        );
        let p = &pts[0];
        assert_eq!(p.tcp_sustained, Some(true), "TCP sustains 3 ups");
        let t = p.tcp_us.unwrap();
        let (s, d) = (p.sv_us, p.sv_dr_us);
        assert!(s < t, "direct improvement: {s} < {t}");
        assert!(d < s, "DR improves further: {d} < {s}");
        assert!(t / d > 3.0, "combined improvement is large: {}", t / d);
    }

    #[test]
    fn replicated_table_adds_ci_columns_and_single_seed_keeps_legacy_ones() {
        let scale = Scale {
            n_complete: 3,
            n_partial: 2,
        };
        let seeds = replicate::seed_batch(FIG7_SEED, 3);
        let reps = sweep_seeded(ComputeModel::None, &[3.0, 4.0], scale, &seeds);
        assert_eq!(reps.len(), 2, "one batch per rate");
        assert!(reps.iter().all(|r| r.len() == 3), "three replicates each");
        let t = to_table("t", &reps);
        assert_eq!(
            t.headers,
            vec![
                "updates_per_sec",
                "TCP",
                "TCP_ci95_lo",
                "TCP_ci95_hi",
                "SocketVIA",
                "SocketVIA_ci95_lo",
                "SocketVIA_ci95_hi",
                "SocketVIA(DR)",
                "SocketVIA(DR)_ci95_lo",
                "SocketVIA(DR)_ci95_hi",
                "tcp_block",
                "dr_block",
                "tcp_sustained",
                "n_seeds",
            ]
        );
        let four_ups = &t.rows[1];
        assert_eq!(&four_ups[1..4], ["-", "-", "-"], "TCP dropout stays a dash");
        assert_eq!(four_ups[13], "3");
        // Single-seed table: the legacy columns, bit-identical formatting.
        let single = to_table(
            "t",
            &sweep_seeded(ComputeModel::None, &[3.0], scale, &seeds[..1]),
        );
        assert_eq!(
            single.headers,
            vec![
                "updates_per_sec",
                "TCP",
                "SocketVIA",
                "SocketVIA(DR)",
                "tcp_block",
                "dr_block",
                "tcp_sustained",
            ]
        );
        assert_eq!(single.rows[0][6], "true");
    }

    #[test]
    fn tail_columns_are_opt_in_and_compose_with_ci95() {
        let scale = Scale {
            n_complete: 3,
            n_partial: 2,
        };
        let seeds = replicate::seed_batch(FIG7_SEED, 3);
        let reps = sweep_seeded(ComputeModel::None, &[3.0], scale, &seeds);
        // Tails off (scoped, not the ambient env) is byte-identical to the
        // default rendering — the flag must never leak into base tables.
        let base = to_table("t", &reps);
        let off = replicate::with_tails(false, || to_table("t", &reps));
        assert_eq!(
            base.to_csv(),
            off.to_csv(),
            "tails-off table is the base table"
        );
        // Tails on: each series gains p50/p99/p999 right after its ci95
        // block, and the trailing columns stay in place.
        let on = replicate::with_tails(true, || to_table("t", &reps));
        assert_eq!(
            on.headers[1..9],
            [
                "TCP",
                "TCP_ci95_lo",
                "TCP_ci95_hi",
                "TCP_p50",
                "TCP_p99",
                "TCP_p999",
                "SocketVIA",
                "SocketVIA_ci95_lo",
            ]
        );
        assert_eq!(on.headers.last().map(String::as_str), Some("n_seeds"));
        assert_eq!(on.rows[0].len(), on.headers.len());
        let p50: f64 = on.rows[0][4].parse().expect("TCP_p50 is numeric");
        let p999: f64 = on.rows[0][6].parse().expect("TCP_p999 is numeric");
        assert!(p50 > 0.0 && p50 <= p999, "quantiles ordered: {p50} {p999}");
    }

    #[test]
    fn tcp_drops_out_at_four_ups() {
        let pts = sweep(
            ComputeModel::None,
            &[4.0],
            Scale {
                n_complete: 3,
                n_partial: 2,
            },
        );
        assert!(pts[0].tcp_us.is_none(), "no TCP block for 4 ups");
        assert!(pts[0].sv_dr_sustained, "SocketVIA DR sustains 4 ups");
    }
}
