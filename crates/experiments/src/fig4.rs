//! Figure 4 — micro-benchmarks: (a) ping-pong latency, (b) streamed
//! bandwidth, for VIA / SocketVIA / TCP. Also regenerates the Figure 2
//! crossover table (U1/U2, L1/L2/L3) as a by-product.

use crate::breakdown::trace_to_file;
use crate::table::Table;
use hpsock_net::TransportKind;
use socketvia::curves::{crossover, PerfCurve};
use socketvia::{bandwidth_series, latency_series, streaming_mbps_probed, Provider};
use std::path::Path;

/// Message sizes of Figure 4(a).
pub fn latency_sizes() -> Vec<u64> {
    (2..=12).map(|p| 1u64 << p).collect() // 4 B .. 4 KB
}

/// Message sizes of Figure 4(b).
pub fn bandwidth_sizes() -> Vec<u64> {
    (3..=16).map(|p| 1u64 << p).collect() // 8 B .. 64 KB
}

/// Regenerate Figure 4(a): one row per message size, one latency column
/// per transport.
pub fn latency_table(iters: u32) -> Table {
    let sizes = latency_sizes();
    let mut t = Table::new(
        "Figure 4(a): one-way latency (us) vs message size",
        &["msg_bytes", "VIA", "SocketVIA", "TCP"],
    );
    let series: Vec<Vec<f64>> = TransportKind::PAPER_SET
        .iter()
        .map(|&k| {
            latency_series(&Provider::new(k), &sizes, iters)
                .into_iter()
                .map(|p| p.oneway_us)
                .collect()
        })
        .collect();
    for (i, &s) in sizes.iter().enumerate() {
        t.add_row(vec![
            s.to_string(),
            format!("{:.2}", series[0][i]),
            format!("{:.2}", series[1][i]),
            format!("{:.2}", series[2][i]),
        ]);
    }
    t
}

/// Regenerate Figure 4(b): bandwidth in Mbps per message size.
pub fn bandwidth_table(total_bytes: u64) -> Table {
    let sizes = bandwidth_sizes();
    let mut t = Table::new(
        "Figure 4(b): bandwidth (Mbps) vs message size",
        &["msg_bytes", "VIA", "SocketVIA", "TCP"],
    );
    let series: Vec<Vec<f64>> = TransportKind::PAPER_SET
        .iter()
        .map(|&k| {
            bandwidth_series(&Provider::new(k), &sizes, total_bytes)
                .into_iter()
                .map(|p| p.mbps)
                .collect()
        })
        .collect();
    for (i, &s) in sizes.iter().enumerate() {
        t.add_row(vec![
            s.to_string(),
            format!("{:.1}", series[0][i]),
            format!("{:.1}", series[1][i]),
            format!("{:.1}", series[2][i]),
        ]);
    }
    t
}

/// Regenerate the Figure 2 conceptual crossover for a set of required
/// bandwidths, from the *measured* curves.
pub fn crossover_table() -> Table {
    let tcp = PerfCurve::measure(&Provider::new(TransportKind::KTcp));
    let sv = PerfCurve::measure(&Provider::new(TransportKind::SocketVia));
    let mut t = Table::new(
        "Figure 2: message size for required bandwidth (U1=TCP, U2=SocketVIA) and latencies",
        &[
            "reqd_Mbps",
            "U1_bytes",
            "U2_bytes",
            "L1_us",
            "L2_us",
            "L3_us",
        ],
    );
    for mbps in [100.0, 200.0, 300.0, 400.0, 500.0] {
        match crossover(&tcp, &sv, mbps) {
            Some(x) => t.add_row(vec![
                format!("{mbps:.0}"),
                x.u1.to_string(),
                x.u2.to_string(),
                format!("{:.1}", x.l1_us),
                format!("{:.1}", x.l2_us),
                format!("{:.1}", x.l3_us),
            ]),
            None => t.add_row(vec![
                format!("{mbps:.0}"),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]),
        }
    }
    t
}

/// Ping-pong iterations per latency point and bytes streamed per
/// bandwidth point, at quick (smoke) or full scale.
fn scale(quick: bool) -> (u32, u64) {
    if quick {
        (4, 1 << 20)
    } else {
        (16, 1 << 22)
    }
}

/// Run everything Figure 4 needs and return the tables.
pub fn run(quick: bool) -> Vec<Table> {
    let (iters, total_bytes) = scale(quick);
    vec![
        latency_table(iters),
        bandwidth_table(total_bytes),
        crossover_table(),
    ]
}

/// `HPSOCK_TRACE` export: re-run the peak (64 KB) streaming benchmark per
/// transport with the probe bus recording. Writes one Chrome trace per
/// series (`fig4_<series>.trace.json`) and surfaces the net engine's
/// per-connection bandwidth gauges (`net.conn<N>.mbps`) as
/// `fig4_bandwidth_gauges.csv`: the gauge's final value and its
/// time-weighted mean over the run, next to the benchmark's own
/// bytes/time measurement they should bracket.
pub fn export_traces(dir: &Path, quick: bool) {
    const MSG_BYTES: u64 = 65_536;
    let count = (scale(quick).1 / MSG_BYTES).clamp(32, 4_000) as u32;
    let mut t = Table::new(
        "Figure 4 per-connection bandwidth gauges at 64 KB messages",
        &[
            "series",
            "gauge",
            "final_mbps",
            "mean_mbps",
            "measured_mbps",
        ],
    );
    for &kind in TransportKind::PAPER_SET.iter() {
        let ((mbps, end), rec) = trace_to_file(dir, "fig4", kind.label(), |mk| {
            streaming_mbps_probed(&Provider::new(kind), MSG_BYTES, count, mk)
        });
        rec.with_metrics(|m| {
            let mut names: Vec<&str> = m
                .gauge_names()
                .filter(|n| n.starts_with("net.conn") && n.ends_with(".mbps"))
                .collect();
            names.sort_unstable();
            for name in names {
                t.add_row(vec![
                    kind.label().to_string(),
                    name.to_string(),
                    format!("{:.1}", m.gauge_current(name)),
                    format!("{:.1}", m.gauge_mean(name, end)),
                    format!("{mbps:.1}"),
                ]);
            }
        });
    }
    crate::emit_as(&t, &dir.join("fig4_bandwidth_gauges.csv"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_table_shape() {
        let t = latency_table(4);
        assert_eq!(t.rows.len(), latency_sizes().len());
        // SocketVIA small-message row near 9.5us; TCP ~5x.
        let first = &t.rows[0];
        let sv: f64 = first[2].parse().unwrap();
        let tcp: f64 = first[3].parse().unwrap();
        assert!((sv - 9.5).abs() < 0.5, "{sv}");
        assert!((tcp / sv - 5.0).abs() < 0.5, "{tcp} / {sv}");
    }

    #[test]
    fn bandwidth_table_peaks() {
        let t = bandwidth_table(1 << 21);
        let last = t.rows.last().unwrap();
        let via: f64 = last[1].parse().unwrap();
        let sv: f64 = last[2].parse().unwrap();
        let tcp: f64 = last[3].parse().unwrap();
        assert!((via - 795.0).abs() < 40.0);
        assert!((sv - 763.0).abs() < 40.0);
        assert!((tcp - 510.0).abs() < 40.0);
    }

    #[test]
    fn crossover_rows_show_u2_below_u1() {
        let t = crossover_table();
        let row = &t.rows[3]; // 400 Mbps
        let u1: u64 = row[1].parse().unwrap();
        let u2: u64 = row[2].parse().unwrap();
        assert!(u2 * 4 <= u1, "U2={u2} U1={u1}");
        let l1: f64 = row[3].parse().unwrap();
        let l3: f64 = row[5].parse().unwrap();
        assert!(l3 < l1);
    }

    #[test]
    fn export_traces_writes_a_trace_and_gauge_row_per_transport() {
        let dir = std::env::temp_dir().join(format!("hpsock_fig4_export_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        export_traces(&dir, true); // quick scale: 1 MiB streamed, 32 messages
        for series in ["via", "socketvia", "tcp"] {
            let path = dir.join(format!("fig4_{series}.trace.json"));
            let len = std::fs::metadata(&path).map_or(0, |m| m.len());
            assert!(len > 0, "{} is missing or empty", path.display());
        }
        let csv = std::fs::read_to_string(dir.join("fig4_bandwidth_gauges.csv")).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        // One `net.conn0.mbps` row per paper transport, whose final gauge
        // value sits at that transport's Figure 4(b) peak.
        let rows: Vec<Vec<&str>> = csv
            .lines()
            .map(|l| l.split(',').collect::<Vec<_>>())
            .filter(|c| c[1] == "net.conn0.mbps")
            .collect();
        let series: Vec<&str> = rows.iter().map(|c| c[0]).collect();
        assert_eq!(series, ["VIA", "SocketVIA", "TCP"], "{csv}");
        for (row, peak) in rows.iter().zip([795.0, 763.0, 510.0]) {
            let final_mbps: f64 = row[2].parse().unwrap();
            assert!((final_mbps - peak).abs() < 40.0, "{row:?} vs {peak}");
        }
    }
}
