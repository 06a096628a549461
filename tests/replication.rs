//! Multi-seed replication invariants (ISSUE 3):
//!
//! * a seed batch's aggregate table is bit-identical under
//!   `HPSOCK_THREADS=1` and `HPSOCK_THREADS=8` — replicate seeds derive
//!   from the point's base seed, never from scheduling;
//! * with a single seed (the `HPSOCK_SEEDS=1` default) the figure tables
//!   keep the legacy columns, and replicated batches add the
//!   `mean`/`ci95_lo`/`ci95_hi`/`n_seeds` columns;
//! * `HPSOCK_SEEDS` is honored end-to-end through a figure's `run()`.

use hpsock_experiments::runner::{FIG10_SEED, FIG8_SWEEP_SEED};
use hpsock_experiments::sweep::THREADS;
use hpsock_experiments::{fig10, fig8, replicate};
use hpsock_vizserver::ComputeModel;

/// The ISSUE's determinism requirement: run a 3-seed batch of a Figure 8
/// point under 1 worker and under 8, and require the aggregated CSV
/// (means *and* confidence intervals) to match byte for byte. The worker
/// pool only changes scheduling; each `(point, seed)` job is a
/// self-contained simulation whose result lands in its input-order slot.
#[test]
fn seed_batch_aggregate_is_worker_count_independent() {
    let seeds = replicate::seed_batch(FIG8_SWEEP_SEED, 3);
    let sweep_csv = || {
        let pts = fig8::sweep_seeded(ComputeModel::None, &[1000.0], 3, &seeds);
        fig8::to_table("t", &pts).to_csv()
    };
    let sequential = THREADS.with(1, sweep_csv);
    let pooled = THREADS.with(8, sweep_csv);
    assert_eq!(
        sequential, pooled,
        "replicate aggregation must not depend on worker count"
    );
    assert!(sequential.contains("n_seeds"), "replicated columns present");
}

#[test]
fn single_seed_keeps_legacy_columns_and_batches_add_ci_columns() {
    let seeds = replicate::seed_batch(FIG8_SWEEP_SEED, 3);
    let single = fig8::to_table(
        "t",
        &fig8::sweep_seeded(ComputeModel::None, &[1000.0], 3, &seeds[..1]),
    );
    assert_eq!(
        single.headers,
        vec![
            "latency_us",
            "TCP",
            "SocketVIA",
            "SocketVIA(DR)",
            "tcp_block",
            "dr_block"
        ],
        "HPSOCK_SEEDS=1 keeps the historical column set"
    );
    let batch = fig8::to_table(
        "t",
        &fig8::sweep_seeded(ComputeModel::None, &[1000.0], 3, &seeds),
    );
    assert_eq!(
        batch.headers,
        vec![
            "latency_us",
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
            "n_seeds"
        ]
    );
    let row = &batch.rows[0];
    assert_eq!(row[12], "3");
    // The replicate-0 value feeding the batch mean is the legacy value,
    // and the interval brackets the mean: lo <= mean <= hi.
    let cell = |i: usize| row[i].parse::<f64>().expect("numeric cell");
    assert!(cell(2) <= cell(1) && cell(1) <= cell(3), "{row:?}");
    assert!(cell(8) <= cell(7) && cell(7) <= cell(9), "{row:?}");
}

#[test]
fn hpsock_seeds_is_honored_end_to_end() {
    let tables = replicate::SEEDS.with(3, fig10::run);
    let t = &tables[0];
    assert!(
        t.headers.iter().any(|h| h == "SocketVIA_ci95_lo"),
        "run() picked up HPSOCK_SEEDS=3: {:?}",
        t.headers
    );
    assert_eq!(t.headers.last().map(String::as_str), Some("n_seeds"));
    assert!(t
        .rows
        .iter()
        .all(|r| r.last().map(String::as_str) == Some("3")));
}

#[test]
fn replicate_zero_reproduces_the_single_seed_figure() {
    // seed_batch(base, n)[0] == base, so the first replicate of any batch
    // is exactly the historical single-seed run.
    assert_eq!(replicate::seed_batch(FIG10_SEED, 5)[0], FIG10_SEED);
    let single = fig10::sweep_seeded(&[FIG10_SEED]);
    let batch = fig10::sweep_seeded(&replicate::seed_batch(FIG10_SEED, 2));
    for (s, b) in single.iter().zip(&batch) {
        assert_eq!(
            s.sv[0], b.sv[0],
            "replicate 0 matches at factor {}",
            s.factor
        );
        assert_eq!(s.tcp[0], b.tcp[0]);
    }
}
