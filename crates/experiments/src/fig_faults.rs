//! Fault injection (beyond the paper): availability and guarantee
//! retention per transport under link loss, link flap and node-crash
//! faults, exercising the `net::fault` layer end-to-end through
//! DataCutter's recoverable streams.
//!
//! Three tables:
//!
//! 1. **Availability** — fraction of the Figure 6 load-balancing workload
//!    processed at least once, per transport, for each fault point.
//! 2. **Recovery counters** — what the runtime absorbed (stream errors,
//!    retries, recovered streams, failovers) under combined loss + crash.
//! 3. **Guarantee retention** — whether the Figure 7 update-rate
//!    guarantee still holds under each fault point, and at what
//!    partial-update latency.
//!
//! Composes with `HPSOCK_SEEDS` replication and `HPSOCK_TAILS` tail
//! columns like the paper figures; the injected plans are scoped via
//! `fault::with_plan`, so a run never touches the process environment.

use crate::replicate::{self, Layout, Series};
use crate::runner::{run_guarantee, GuaranteeRun, FIG_FAULTS_SEED};
use crate::sweep::parallel_map_seeded;
use crate::table::{fmt_opt, Table};
use hpsock_net::fault;
use hpsock_net::TransportKind;
use hpsock_vizserver::{faulted_lb_run, ComputeModel, FaultedLbOutcome, LbSetup};

/// Transports compared (the paper's three stacks).
pub const KINDS: [(&str, TransportKind); 3] = [
    ("TCP", TransportKind::KTcp),
    ("SocketVIA", TransportKind::SocketVia),
    ("VIA", TransportKind::Via),
];

/// Bytes distributed through the load balancer per availability run.
pub fn workload_bytes(quick: bool) -> u64 {
    if quick {
        2 * 1024 * 1024
    } else {
        8 * 1024 * 1024
    }
}

/// The injected fault points: `(label, HPSOCK_FAULTS spec)`. The crash
/// point kills worker node 1 mid-run (the workload outlasts the crash
/// time at every transport's block size).
pub fn fault_points(quick: bool) -> Vec<(String, String)> {
    let crash_at = if quick { "15ms" } else { "50ms" };
    let mut pts: Vec<(String, String)> = vec![
        ("none".into(), String::new()),
        (
            "drop 0.1%".into(),
            "drop=0.001,detect=100us,backoff=100us".into(),
        ),
        (
            "drop 1%".into(),
            "drop=0.01,detect=100us,backoff=100us".into(),
        ),
        (
            "flap 2ms/200us".into(),
            "flap=2ms:200us,detect=100us,backoff=100us".into(),
        ),
        (
            format!("crash w1@{crash_at}"),
            format!("crash=1@{crash_at},detect=200us,backoff=100us"),
        ),
    ];
    if !quick {
        pts.insert(
            3,
            (
                "drop 5%".into(),
                "drop=0.05,detect=100us,backoff=100us".into(),
            ),
        );
    }
    pts
}

/// One availability measurement: the load-balancing workload under `spec`.
pub fn availability_run(
    kind: TransportKind,
    spec: &str,
    quick: bool,
    seed: u64,
) -> FaultedLbOutcome {
    fault::with_spec(spec, || {
        let setup = LbSetup::paper(kind);
        let blocks = (workload_bytes(quick) / setup.block_bytes) as u32;
        faulted_lb_run(&setup, blocks, seed)
    })
}

fn availability_table(quick: bool, seeds: &[u64]) -> Table {
    let points = fault_points(quick);
    let mut jobs = Vec::new();
    for (_, spec) in &points {
        for (_, kind) in KINDS {
            jobs.push((spec.clone(), kind));
        }
    }
    let results = parallel_map_seeded(jobs, seeds, |(spec, kind), seed| {
        availability_run(*kind, spec, quick, seed).availability()
    });
    let layout = Layout::new(seeds.len(), 4);
    let mut headers = vec!["fault".to_string()];
    layout.headers(&mut headers, KINDS.map(|(name, _)| name));
    layout.n_seeds_header(&mut headers);
    let mut t = Table::from_headers(
        "Fault injection: availability (fraction of blocks processed) per transport",
        headers,
    );
    for (i, (label, _)) in points.iter().enumerate() {
        let base = i * KINDS.len();
        let mut row = vec![label.clone()];
        for reps in &results[base..base + KINDS.len()] {
            layout.cells(&mut row, &Series::collect(reps.iter().map(|&v| Some(v))));
        }
        layout.n_seeds_cell(&mut row);
        t.add_row(row);
    }
    t
}

fn recovery_table(quick: bool, seed: u64) -> Table {
    let crash_at = if quick { "15ms" } else { "50ms" };
    let spec = format!("drop=0.01,crash=1@{crash_at},detect=100us,backoff=100us");
    let mut t = Table::from_headers(
        "Fault injection: recovery counters under drop 1% + worker crash",
        vec![
            "transport".into(),
            "errors".into(),
            "retries".into(),
            "recovered".into(),
            "failovers".into(),
            "buffers_failed".into(),
            "stale".into(),
            "availability".into(),
            "makespan_ms".into(),
        ],
    );
    for (name, kind) in KINDS {
        let o = availability_run(kind, &spec, quick, seed);
        t.add_row(vec![
            name.to_string(),
            o.errors.to_string(),
            o.retries.to_string(),
            o.recovered.to_string(),
            o.failovers.to_string(),
            o.failed.to_string(),
            o.stale.to_string(),
            format!("{:.4}", o.availability()),
            format!("{:.2}", o.makespan_us / 1000.0),
        ]);
    }
    t
}

fn guarantee_table(quick: bool, seed: u64) -> Table {
    let points = fault_points(quick);
    let n_complete = if quick { 3 } else { 5 };
    let mut headers = vec!["fault".to_string()];
    for (name, _) in KINDS {
        headers.push(format!("{name}_sustained"));
        headers.push(format!("{name}_partial_us"));
    }
    let mut t = Table::from_headers(
        "Fault injection: update-rate guarantee retention (2 updates/s, 64KB blocks)",
        headers,
    );
    let jobs: Vec<(String, String)> = points;
    let results = parallel_map_seeded(jobs.clone(), &[seed], |(_, spec), seed| {
        KINDS.map(|(_, kind)| {
            fault::with_spec(spec, || {
                run_guarantee(&GuaranteeRun {
                    kind,
                    block_bytes: 65_536,
                    compute: ComputeModel::None,
                    target_ups: 2.0,
                    n_complete,
                    n_partial: 2,
                    seed,
                })
            })
        })
    });
    for ((label, _), reps) in jobs.iter().zip(results) {
        let mut row = vec![label.clone()];
        for r in &reps[0] {
            row.push(if r.sustained { "1" } else { "0" }.to_string());
            row.push(fmt_opt(r.partial_us, 0));
        }
        t.add_row(row);
    }
    t
}

/// Run the experiment with the `HPSOCK_SEEDS` replicate batch derived
/// from [`FIG_FAULTS_SEED`].
pub fn run(quick: bool) -> Vec<Table> {
    run_seeded(
        quick,
        &replicate::seed_batch(FIG_FAULTS_SEED, replicate::seed_count()),
    )
}

/// [`run`] with an explicit seed batch (see [`crate::replicate`]).
pub fn run_seeded(quick: bool, seeds: &[u64]) -> Vec<Table> {
    vec![
        availability_table(quick, seeds),
        recovery_table(quick, seeds[0]),
        guarantee_table(quick, seeds[0]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpsock_net::FaultPlan;

    #[test]
    fn every_fault_point_spec_parses() {
        for quick in [true, false] {
            for (label, spec) in fault_points(quick) {
                FaultPlan::parse(&spec)
                    .unwrap_or_else(|e| panic!("point {label:?} has a bad spec: {e}"));
            }
        }
    }

    #[test]
    fn availability_is_full_without_faults() {
        let o = availability_run(TransportKind::SocketVia, "", true, FIG_FAULTS_SEED);
        assert_eq!(o.availability(), 1.0);
        assert_eq!(o.errors, 0);
    }

    #[test]
    fn crash_point_still_covers_the_workload_via_failover() {
        let (_, spec) = fault_points(true).pop().expect("crash point last");
        let o = availability_run(TransportKind::SocketVia, &spec, true, FIG_FAULTS_SEED);
        assert_eq!(o.failovers, 1, "worker crash failed over");
        assert_eq!(o.availability(), 1.0, "survivors cover every block");
    }
}
