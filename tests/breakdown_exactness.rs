//! Exactness of the fig9–fig11 time breakdowns: for every probed run in
//! a deterministic grid over the figures' parameter spaces, the five
//! attributed components (host / wire / compute / stall / idle) re-sum
//! to the stored total **bit-exactly** — no tolerance — and idle never
//! goes negative.

use hpsock_experiments::breakdown::{compute, Breakdown};
use hpsock_experiments::runner::{FIG10_SEED, FIG11_SEED, FIG9_SEED};
use hpsock_experiments::{fig10, fig11, fig9};
use hpsock_net::TransportKind;
use hpsock_sim::Recorder;
use hpsock_vizserver::ComputeModel;

fn assert_exact(b: &Breakdown) {
    assert!(b.total_us > 0.0, "{}: run advanced virtual time", b.label);
    assert_eq!(
        b.components_sum_us().to_bits(),
        b.total_us.to_bits(),
        "{}: components {} vs total {}",
        b.label,
        b.components_sum_us(),
        b.total_us
    );
    assert!(b.idle_us >= 0.0, "{}: idle never negative: {b:?}", b.label);
}

#[test]
fn fig9_breakdowns_sum_exactly() {
    for kind in [TransportKind::SocketVia, TransportKind::KTcp] {
        for partitions in [8u64, 64] {
            for fraction in [0.0, 0.5, 1.0] {
                let rec = Recorder::new();
                let (_, cap) = fig9::mean_response_probed(
                    kind,
                    ComputeModel::None,
                    partitions,
                    fraction,
                    3,
                    FIG9_SEED,
                    Some(rec.probe()),
                );
                let label = format!("fig9 {kind:?} parts={partitions} f={fraction}");
                assert_exact(&compute(&rec, &cap, &label));
            }
        }
    }
}

#[test]
fn fig10_breakdowns_sum_exactly() {
    for kind in [TransportKind::SocketVia, TransportKind::KTcp] {
        for factor in [2.0, 8.0] {
            let rec = Recorder::new();
            let (_, cap) = fig10::reaction_probed(kind, factor, FIG10_SEED, Some(rec.probe()));
            let label = format!("fig10 {kind:?} factor={factor}");
            assert_exact(&compute(&rec, &cap, &label));
        }
    }
}

#[test]
fn fig11_breakdowns_sum_exactly() {
    for kind in [TransportKind::SocketVia, TransportKind::KTcp] {
        for prob in [0.2, 0.8] {
            let rec = Recorder::new();
            let (_, cap) = fig11::exec_probed(kind, prob, 4.0, FIG11_SEED, Some(rec.probe()));
            let label = format!("fig11 {kind:?} p={prob}");
            assert_exact(&compute(&rec, &cap, &label));
        }
    }
}
