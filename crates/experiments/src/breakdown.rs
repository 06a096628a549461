//! Time-breakdown reports: attribute a run's total virtual server-time to
//! host-overhead / wire / compute / credit-stall / idle, per transport.
//!
//! The accounting is exact by construction. Total capacity is
//! `C = T_end × Σ servers`; host, wire and compute are the summed busy
//! times of the `host_tx`/`host_rx`, `nic_tx` and `cpu` stations (from the
//! probe bus's `ResourceAcquire` events); stall is the length of the union
//! of credit-stall intervals *minus* the portion where the stalled host-TX
//! engine was actually serving (so busy time is never double-counted); and
//! idle is the remainder `C − host − wire − compute − stall`. The five
//! components therefore sum to the total exactly — the acceptance check
//! "within 1 %" holds with zero error.
//!
//! This quantifies the paper's central claim from the transport side: on
//! TCP the host-overhead share dwarfs the wire share, while SocketVIA
//! moves most of the per-byte cost off the host.

use crate::replicate;
use crate::runner::{run_guarantee_traced, GuaranteeRun};
use crate::table::Table;
use hpsock_sim::{Probe, ProbeEvent, Recorder, RunCapture};
use std::collections::BTreeMap;
use std::path::Path;

/// One transport's attribution of total server-time, in virtual µs.
#[derive(Debug, Clone)]
pub struct Breakdown {
    /// Row label (usually the transport).
    pub label: String,
    /// Total server capacity `T_end × Σ servers`.
    pub total_us: f64,
    /// Host protocol-engine busy time (TX + RX sides).
    pub host_us: f64,
    /// NIC DMA + wire serialization busy time.
    pub wire_us: f64,
    /// Application CPU busy time.
    pub compute_us: f64,
    /// Credit-stall time not overlapped by host-TX service.
    pub stall_us: f64,
    /// Remaining capacity.
    pub idle_us: f64,
}

impl Breakdown {
    /// Sum of the five attributed components (equals `total_us` exactly).
    pub fn components_sum_us(&self) -> f64 {
        self.host_us + self.wire_us + self.compute_us + self.stall_us + self.idle_us
    }
}

/// Total length of the union of `intervals` (ns endpoints), minus any
/// portion covered by `subtract` (also merged internally).
fn union_minus(mut intervals: Vec<(u64, u64)>, mut subtract: Vec<(u64, u64)>) -> u64 {
    let merge = |iv: &mut Vec<(u64, u64)>| {
        iv.sort_unstable();
        let mut out: Vec<(u64, u64)> = Vec::with_capacity(iv.len());
        for &(a, b) in iv.iter() {
            if b <= a {
                continue;
            }
            match out.last_mut() {
                Some(last) if a <= last.1 => last.1 = last.1.max(b),
                _ => out.push((a, b)),
            }
        }
        *iv = out;
    };
    merge(&mut intervals);
    merge(&mut subtract);
    let mut len = 0u64;
    let mut si = 0usize;
    for (a, b) in intervals {
        let mut cur = a;
        // Walk subtract intervals overlapping [a, b).
        while si < subtract.len() && subtract[si].1 <= cur {
            si += 1;
        }
        let mut sj = si;
        while cur < b {
            match subtract.get(sj) {
                Some(&(sa, sb)) if sa < b => {
                    if sa > cur {
                        len += sa - cur;
                    }
                    cur = cur.max(sb);
                    sj += 1;
                }
                _ => {
                    len += b - cur;
                    cur = b;
                }
            }
        }
    }
    len
}

/// Which breakdown bucket a resource's busy time belongs to.
fn bucket(name: &str) -> Option<usize> {
    if name.ends_with(".host_tx") || name.ends_with(".host_rx") {
        Some(0) // host
    } else if name.ends_with(".nic_tx") {
        Some(1) // wire
    } else if name.ends_with(".cpu") {
        Some(2) // compute
    } else {
        None
    }
}

/// Attribute the recorded run's server-time. `label` names the row.
pub fn compute(rec: &Recorder, cap: &RunCapture, label: &str) -> Breakdown {
    let ns_total = cap.end.as_nanos() as f64 * cap.servers.iter().sum::<usize>() as f64;
    let mut busy_ns = [0.0f64; 3];
    // Per-resource interval sets for the stall subtraction.
    let mut busy_iv: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    let mut stall_iv: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    rec.with_events(|events| {
        for ev in events {
            match ev {
                ProbeEvent::ResourceAcquire {
                    rid,
                    start,
                    completion,
                    service,
                    ..
                } => {
                    if let Some(b) = cap.resource_names.get(rid.0).and_then(|n| bucket(n)) {
                        busy_ns[b] += service.as_nanos() as f64;
                    }
                    busy_iv
                        .entry(rid.0)
                        .or_default()
                        .push((start.as_nanos(), completion.as_nanos()));
                }
                ProbeEvent::Stall { rid, from, until } => {
                    stall_iv
                        .entry(rid.0)
                        .or_default()
                        .push((from.as_nanos(), until.as_nanos()));
                }
                _ => {}
            }
        }
    });
    let stall_ns: u64 = stall_iv
        .into_iter()
        .map(|(rid, iv)| union_minus(iv, busy_iv.remove(&rid).unwrap_or_default()))
        .sum();
    let us = |ns: f64| ns / 1e3;
    let (host_us, wire_us, compute_us) = (us(busy_ns[0]), us(busy_ns[1]), us(busy_ns[2]));
    let stall_us = us(stall_ns as f64);
    let idle_us = us(ns_total) - host_us - wire_us - compute_us - stall_us;
    // Store the total as the components re-summed in the same
    // left-associated order as `components_sum_us`: deriving idle by
    // subtraction alone can leave the re-sum an ulp off `us(ns_total)`,
    // and the exactness tests compare bit patterns, not tolerances.
    let total_us = host_us + wire_us + compute_us + stall_us + idle_us;
    Breakdown {
        label: label.to_string(),
        total_us,
        host_us,
        wire_us,
        compute_us,
        stall_us,
        idle_us,
    }
}

/// Mean of per-seed breakdowns, component by component. Each replicate's
/// accounting is exact for its own run, so the means still sum to the
/// mean total exactly (averaging is linear).
pub fn average(label: &str, reps: &[Breakdown]) -> Breakdown {
    assert!(!reps.is_empty(), "average needs at least one replicate");
    let n = reps.len() as f64;
    let mean = |f: fn(&Breakdown) -> f64| reps.iter().map(f).sum::<f64>() / n;
    Breakdown {
        label: label.to_string(),
        total_us: mean(|b| b.total_us),
        host_us: mean(|b| b.host_us),
        wire_us: mean(|b| b.wire_us),
        compute_us: mean(|b| b.compute_us),
        stall_us: mean(|b| b.stall_us),
        idle_us: mean(|b| b.idle_us),
    }
}

/// Render breakdowns as a table (emitted as `<figure>_breakdown.csv`).
pub fn to_table(title: &str, rows: &[Breakdown]) -> Table {
    let mut t = Table::new(
        title,
        &[
            "series",
            "total_us",
            "host_us",
            "wire_us",
            "compute_us",
            "stall_us",
            "idle_us",
        ],
    );
    for b in rows {
        // Rounding each component to 0.1 µs independently can leave the
        // printed columns 0.1 off the printed total, so the rendered
        // total is the sum of the *rounded* components (within 0.25 µs
        // of the true total): the CSV stays exactly self-consistent.
        let r = |v: f64| (v * 10.0).round() / 10.0;
        let total = r(b.host_us) + r(b.wire_us) + r(b.compute_us) + r(b.stall_us) + r(b.idle_us);
        t.add_row(vec![
            b.label.clone(),
            format!("{total:.1}"),
            format!("{:.1}", b.host_us),
            format!("{:.1}", b.wire_us),
            format!("{:.1}", b.compute_us),
            format!("{:.1}", b.stall_us),
            format!("{:.1}", b.idle_us),
        ]);
    }
    t
}

/// File-name slug for a series label.
pub(crate) fn slug(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect::<String>()
        .split('_')
        .filter(|s| !s.is_empty())
        .collect::<Vec<_>>()
        .join("_")
}

/// Write the Chrome trace `rec` recorded of a finished run to
/// `<figure>_<series>.trace.json` under `dir`, one resource track per
/// name in the run's [`RunCapture`]. A file that cannot be written
/// degrades to a warning.
pub(crate) fn trace_to_file(
    dir: &Path,
    figure: &str,
    label: &str,
    rec: &Recorder,
    cap: &RunCapture,
) {
    let path = dir.join(format!("{figure}_{}.trace.json", slug(label)));
    let written = std::fs::File::create(&path)
        .and_then(|f| rec.write_chrome_trace(std::io::BufWriter::new(f), &cap.resource_names));
    match written {
        Ok(_) => println!("  -> {} ({} probe events)", path.display(), rec.len()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Re-run each labelled `(label, series)` through `run` with the probe
/// bus recording; `run` is handed the series, a replicate seed and the
/// probe to attach, and returns its [`RunCapture`]. Under `dir`, write
/// per series a Chrome trace JSON (`<figure>_<series>.trace.json`,
/// openable in Perfetto / `chrome://tracing`, see `trace_to_file`) and
/// a collapsed-stack flamegraph (`<figure>_<series>.folded`, consumable
/// by inferno's `flamegraph.pl`-compatible tooling or speedscope), plus
/// the combined `<figure>_breakdown.csv` time attribution.
///
/// With `HPSOCK_SEEDS=n > 1` each series re-runs once per replicate seed
/// (derived from `base_seed`, see [`crate::replicate`]): the Chrome
/// trace and flamegraph are written for the base-seed replicate only,
/// while the breakdown row becomes the across-seed [`average`] of the
/// per-seed attributions, with an `n_seeds` column appended.
pub fn export_run_traces<S>(
    dir: &Path,
    figure: &str,
    title: &str,
    base_seed: u64,
    series: &[(&str, S)],
    run: impl Fn(&S, u64, Option<Box<dyn Probe>>) -> RunCapture,
) {
    let n_seeds = replicate::seed_count();
    let seeds = replicate::seed_batch(base_seed, n_seeds);
    let mut rows = Vec::with_capacity(series.len());
    for (label, s) in series {
        let mut reps = Vec::with_capacity(seeds.len());
        for (i, &seed) in seeds.iter().enumerate() {
            let rec = Recorder::new();
            let cap = run(s, seed, Some(rec.probe()));
            // Replicate 0 (the base seed) writes the Chrome trace and
            // folds the span flamegraph; the extra replicates only feed
            // the averaged breakdown.
            if i == 0 {
                trace_to_file(dir, figure, label, &rec, &cap);
                let stacks = rec.folded_spans();
                let folded = dir.join(format!("{figure}_{}.folded", slug(label)));
                match hpsock_sim::write_folded(&folded, &stacks) {
                    Ok(()) => println!("  -> {} ({} stacks)", folded.display(), stacks.len()),
                    Err(e) => eprintln!("warning: could not write {}: {e}", folded.display()),
                }
            }
            reps.push(compute(&rec, &cap, label));
        }
        rows.push(average(label, &reps));
    }
    let mut t = to_table(title, &rows);
    let layout = replicate::Layout::new(n_seeds, 1);
    layout.n_seeds_header(&mut t.headers);
    t.rows.iter_mut().for_each(|row| layout.n_seeds_cell(row));
    crate::emit_as(&t, &dir.join(format!("{figure}_breakdown.csv")));
}

/// [`export_run_traces`] over guarantee runs (Figures 7/8): each series
/// replays its [`GuaranteeRun`] with the replicate seed substituted.
pub fn export_guarantee_traces(
    dir: &Path,
    figure: &str,
    title: &str,
    base_seed: u64,
    runs: &[(&str, GuaranteeRun)],
) {
    export_run_traces(dir, figure, title, base_seed, runs, |run, seed, probe| {
        let run = GuaranteeRun {
            seed,
            ..run.clone()
        };
        run_guarantee_traced(&run, probe).1
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn union_minus_merges_and_subtracts() {
        // [0,10) u [5,20) u [30,40) = 30ns; minus [8,35) leaves [0,8)+[35,40).
        let iv = vec![(0, 10), (5, 20), (30, 40)];
        assert_eq!(union_minus(iv.clone(), vec![]), 30);
        assert_eq!(union_minus(iv, vec![(8, 35)]), 8 + 5);
    }

    #[test]
    fn union_minus_ignores_empty_and_disjoint_subtracts() {
        assert_eq!(union_minus(vec![(10, 20)], vec![(0, 5), (25, 30)]), 10);
        assert_eq!(union_minus(vec![(10, 10)], vec![]), 0, "empty interval");
        assert_eq!(union_minus(vec![], vec![(0, 100)]), 0);
    }

    #[test]
    fn union_minus_full_cover() {
        assert_eq!(union_minus(vec![(5, 15), (20, 25)], vec![(0, 30)]), 0);
    }

    /// The acceptance check on a small Figure 7-style run: the five
    /// attributed components must sum to the total server-time within 1 %
    /// (by construction the error here is only f64 rounding), and a loaded
    /// TCP run must attribute nonzero time to host, wire and stall.
    #[test]
    fn components_sum_to_total_on_small_fig7_run() {
        use hpsock_net::TransportKind;
        use hpsock_vizserver::ComputeModel;
        let run = GuaranteeRun {
            kind: TransportKind::KTcp,
            block_bytes: 65_536,
            compute: ComputeModel::None,
            target_ups: 3.0,
            n_complete: 3,
            n_partial: 2,
            seed: crate::runner::FIG7_SEED,
        };
        let rec = Recorder::new();
        let (_res, cap) = run_guarantee_traced(&run, Some(rec.probe()));
        let b = compute(&rec, &cap, "TCP");
        assert!(b.total_us > 0.0, "run advanced virtual time");
        let err = (b.components_sum_us() - b.total_us).abs();
        assert!(
            err <= 0.01 * b.total_us,
            "components {} vs total {}: off by {err}",
            b.components_sum_us(),
            b.total_us
        );
        assert!(b.host_us > 0.0, "TCP spends host time on protocol work");
        assert!(b.wire_us > 0.0, "blocks crossed the wire");
        assert!(b.idle_us >= 0.0, "idle never negative: {b:?}");
    }

    #[test]
    fn average_is_componentwise_and_identity_for_one_rep() {
        let b = |total, host| Breakdown {
            label: "x".into(),
            total_us: total,
            host_us: host,
            wire_us: 1.0,
            compute_us: 2.0,
            stall_us: 3.0,
            idle_us: total - host - 6.0,
        };
        let one = average("TCP", &[b(100.0, 10.0)]);
        assert_eq!(one.label, "TCP");
        assert_eq!(one.total_us, 100.0);
        assert_eq!(one.host_us, 10.0, "single replicate is the identity");
        let two = average("TCP", &[b(100.0, 10.0), b(200.0, 30.0)]);
        assert_eq!(two.total_us, 150.0);
        assert_eq!(two.host_us, 20.0);
        assert!(
            (two.components_sum_us() - two.total_us).abs() < 1e-9,
            "averaging preserves the exact-sum property"
        );
    }

    #[test]
    fn bucket_classification() {
        assert_eq!(bucket("node3.host_tx"), Some(0));
        assert_eq!(bucket("node0.host_rx"), Some(0));
        assert_eq!(bucket("node12.nic_tx"), Some(1));
        assert_eq!(bucket("node1.cpu"), Some(2));
        assert_eq!(bucket("something_else"), None);
    }

    #[test]
    fn slug_flattens_labels() {
        assert_eq!(slug("SocketVIA"), "socketvia");
        assert_eq!(slug("TCP (no delay)"), "tcp_no_delay");
        assert_eq!(slug("__x__"), "x");
    }

    proptest! {
        /// The exact-sum invariant is structural, not numeric luck: for
        /// arbitrary soups of busy intervals and stalls over a synthetic
        /// station table, the five components re-sum to the stored total
        /// bit-exactly (`==` on the bit patterns, no tolerance).
        #[test]
        fn components_sum_is_bit_exact_for_arbitrary_events(
            end_ns in 1u64..5_000_000,
            services in proptest::collection::vec(
                (0usize..6, 0u64..1_000_000, 1u64..300_000), 0..48),
            stalls in proptest::collection::vec(
                (0usize..6, 0u64..1_000_000, 1u64..300_000), 0..12),
        ) {
            use hpsock_sim::{Dur, ResourceId, SimTime};
            let names = [
                "node0.host_tx",
                "node0.host_rx",
                "node0.nic_tx",
                "node0.cpu",
                "node0.link",
                "misc",
            ];
            let rec = Recorder::new();
            let mut probe = rec.probe();
            for (rid, start, len) in services {
                let start = SimTime::ZERO + Dur::nanos(start);
                probe.record(ProbeEvent::ResourceAcquire {
                    rid: ResourceId(rid),
                    arrived: start,
                    start,
                    completion: start + Dur::nanos(len),
                    service: Dur::nanos(len),
                    busy_servers: 1,
                });
            }
            for (rid, from, len) in stalls {
                let from = SimTime::ZERO + Dur::nanos(from);
                probe.record(ProbeEvent::Stall {
                    rid: ResourceId(rid),
                    from,
                    until: from + Dur::nanos(len),
                });
            }
            let cap = RunCapture {
                end: SimTime::ZERO + Dur::nanos(end_ns),
                resource_names: names.iter().map(|s| s.to_string()).collect(),
                servers: vec![1; names.len()],
                digest: 0,
            };
            let b = compute(&rec, &cap, "synthetic");
            prop_assert_eq!(
                b.components_sum_us().to_bits(),
                b.total_us.to_bits(),
                "components {} vs total {}",
                b.components_sum_us(),
                b.total_us
            );
        }
    }
}
