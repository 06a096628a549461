//! Supplementary analyses the paper discusses but does not plot:
//!
//! * **Figure 1's fetch amplification** — a partial query must fetch every
//!   block it touches in full, so the wasted-data ratio grows with the
//!   distribution block size (paper §2).
//! * **The partition-count trade-off surface** — complete-update vs zoom
//!   response time as the partition count varies, the underlying structure
//!   Figure 9 samples at {none, 8, 64}.

use crate::fig9::mean_response_ms;
use crate::runner::EXTRA_SEED;
use crate::table::Table;
use hpsock_net::TransportKind;
use hpsock_vizserver::{BlockedImage, ComputeModel, Rect};

/// The paper's 16 MB image.
pub const IMAGE_BYTES: u64 = 16 * 1024 * 1024;

/// Figure 1 quantified: bytes fetched vs bytes needed for a small panning
/// query, per distribution block size.
pub fn amplification_table() -> Table {
    let mut t = Table::new(
        "Figure 1: fetch amplification of a 64x64-px partial query vs block size",
        &[
            "block_bytes",
            "blocks_touched",
            "bytes_fetched",
            "amplification",
        ],
    );
    // A 64x64 px window straddling a block corner (the dotted rectangle).
    let probe = Rect::new(96, 96, 160, 160);
    for partitions in [1u64, 4, 16, 64, 256, 1024] {
        let img = BlockedImage::paper_image(IMAGE_BYTES / partitions);
        let blocks = img.blocks_in_rect(probe);
        let fetched = blocks.len() as u64 * img.block_bytes();
        t.add_row(vec![
            img.block_bytes().to_string(),
            blocks.len().to_string(),
            fetched.to_string(),
            format!("{:.1}x", img.fetch_amplification(probe)),
        ]);
    }
    t
}

/// The trade-off surface behind Figure 9: per-query response time of the
/// two extreme query classes as the partition count sweeps.
pub fn partition_tradeoff_table(kind: TransportKind, n: u32) -> Table {
    let mut t = Table::new(
        format!(
            "Partition-count trade-off ({}, no computation): zoom vs complete response (ms)",
            kind.label()
        ),
        &["partitions", "zoom_ms", "complete_ms"],
    );
    for partitions in [1u64, 4, 8, 16, 64, 256] {
        let zoom = mean_response_ms(kind, ComputeModel::None, partitions, 0.0, n, EXTRA_SEED);
        let complete = mean_response_ms(kind, ComputeModel::None, partitions, 1.0, n, EXTRA_SEED);
        t.add_row(vec![
            partitions.to_string(),
            format!("{zoom:.1}"),
            format!("{complete:.1}"),
        ]);
    }
    t
}

/// Run the supplementary tables at quick (smoke) or full scale.
pub fn run(quick: bool) -> Vec<Table> {
    let n = if quick { 3 } else { 6 };
    vec![
        amplification_table(),
        partition_tradeoff_table(TransportKind::SocketVia, n),
        partition_tradeoff_table(TransportKind::KTcp, n),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amplification_grows_with_block_size() {
        let t = amplification_table();
        let amp = |row: &Vec<String>| row[3].trim_end_matches('x').parse::<f64>().unwrap();
        // Rows are ordered from coarse (1 partition) to fine (1024): the
        // amplification must fall monotonically.
        for w in t.rows.windows(2) {
            assert!(amp(&w[0]) >= amp(&w[1]), "{:?}", t.rows);
        }
        assert!(amp(&t.rows[0]) > 100.0, "whole-image fetch is pathological");
        assert!(
            amp(t.rows.last().unwrap()) < 10.0,
            "fine blocks waste little"
        );
    }

    #[test]
    fn partitioning_tradeoff_shapes() {
        // Zoom queries get dramatically cheaper with finer partitioning
        // (less wasted fetch), while complete updates first get cheaper
        // too — pipelining across the 4 stages and 3 repositories (paper
        // §3.1) outweighs per-message overheads — but with a shrinking
        // return that per-message costs eventually erase.
        let t = partition_tradeoff_table(TransportKind::SocketVia, 3);
        let get = |r: usize, c: usize| t.rows[r][c].parse::<f64>().unwrap();
        let last = t.rows.len() - 1;
        assert!(get(last, 1) < get(0, 1) / 30.0, "zoom gets much cheaper");
        assert!(
            get(2, 2) < get(0, 2) / 2.0,
            "pipelining speeds complete updates"
        );
        let gain_coarse = get(0, 2) / get(2, 2); // 1 -> 8 partitions
        let gain_fine = get(last - 1, 2) / get(last, 2); // 64 -> 256
        assert!(
            gain_fine < gain_coarse,
            "diminishing returns: {gain_coarse:.2} then {gain_fine:.2}"
        );
    }
}
