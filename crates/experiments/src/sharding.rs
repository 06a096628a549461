//! A topology-aware partition of the Figure 5 visualization pipeline onto
//! the sharded kernel (`hpsock_sim::shard`). The figures themselves run
//! sequentially (the sweep already fills the cores with points); the plan
//! is what the kernel's differential tests and benchmarks install with
//! `Sim::set_shard_plan`.
//!
//! The pipeline has two kinds of inter-process edges:
//!
//! * **connection-borne** stage-to-stage streams (repository → clip →
//!   subsample → viz and the reverse demand channels), which carry
//!   positive network lookahead and may cross shards freely, and
//! * **zero-delay control sends** — the query driver starting a unit of
//!   work on the repository copies, and the viz logic notifying the
//!   driver of completion — which must stay *within* a shard.
//!
//! So the partition pins the driver, the `c` repository nodes and the viz
//! node on shard 0, and splits the `2c` stage nodes (clip + subsample)
//! contiguously over the remaining shards. With the paper's `c = 3`
//! copies that supports up to `1 + 2c = 7` useful shards; larger requests
//! are clamped.
//!
//! The kernel derives *ragged per-pair windows* from the plan's per-link
//! lookahead matrix (`W(d) = min_s next(s) + reach(s, d)`, see
//! `hpsock_sim::shard`), so asymmetric links — the ~600 ns data paths
//! versus the 9.5 µs demand/ack channels here — each widen exactly the
//! windows they bound instead of collapsing the whole fleet to the
//! tightest link.

use hpsock_net::Cluster;
use hpsock_sim::{ProcessId, ShardPlan, Sim};

/// Node-to-shard assignment for a [`hpsock_vizserver::VizPipeline`]
/// cluster of `copies` stage copies (`3 * copies + 1` nodes): repository
/// nodes and the viz node on shard 0, stage nodes contiguous over shards
/// `1..shards`. Returns `None` when `shards <= 1` (sequential kernel).
pub fn pipeline_node_map(copies: usize, shards: usize) -> Option<Vec<usize>> {
    let shards = shards.min(1 + 2 * copies);
    if shards <= 1 {
        return None;
    }
    let mut map = vec![0usize; 3 * copies + 1];
    let stage_nodes = 2 * copies;
    let groups = shards - 1;
    for i in 0..stage_nodes {
        // Contiguous near-equal blocks over shards 1..shards.
        map[copies + i] = 1 + i * groups / stage_nodes;
    }
    Some(map)
}

/// Build the pipeline [`ShardPlan`] for `shards` workers, or `None` when
/// one shard (or fewer nodes than requested) makes the sequential kernel
/// the right choice. Call after `VizPipeline::build` so every connection
/// is registered.
pub fn pipeline_plan(
    cluster: &Cluster,
    driver: ProcessId,
    copies: usize,
    shards: usize,
) -> Option<ShardPlan> {
    let map = pipeline_node_map(copies, shards)?;
    let shards = map.iter().max().copied().unwrap_or(0) + 1;
    Some(cluster.shard_plan(shards, map, vec![(driver, 0)]))
}

/// A no-op, kept so existing callers still build: pipeline runs are
/// sequential unless a caller sets a [`pipeline_plan`] explicitly with
/// `Sim::set_shard_plan`.
pub fn apply_pipeline_plan(_sim: &mut Sim, _cluster: &Cluster, _driver: ProcessId, _copies: usize) {
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{
        build_pipeline, guarantee_plan, run_guarantee_traced, GuaranteeRun, FIG7_SEED, FIG9_SEED,
    };
    use hpsock_net::{fault, with_netmodel, NetModel, TransportKind};
    use hpsock_sim::SimTime;
    use hpsock_vizserver::{query_mix, BlockedImage, ComputeModel, Plan, QueryDriver};

    /// What two runs of one pipeline must agree on: every query result,
    /// the trace digest, the end time and the dispatched event count.
    type Outcome = (String, u64, SimTime, u64);

    /// Build the figures' pipeline, partition it over `shards` workers
    /// with [`pipeline_plan`] (none at 1) and run it.
    fn pipeline_run(shards: usize, kind: TransportKind, plan: Plan, seed: u64) -> Outcome {
        let (mut sim, cluster, driver) = build_pipeline(kind, ComputeModel::None, plan, seed);
        let shard_plan = pipeline_plan(&cluster, driver, 3, shards);
        assert_eq!(shard_plan.as_ref().map_or(1, |p| p.shards), shards);
        if let Some(p) = shard_plan {
            sim.set_shard_plan(p);
        }
        let end = sim.run();
        let d: &QueryDriver = sim.process(driver).expect("driver persists");
        let results = format!("{:?}", d.results);
        (results, sim.trace_digest(), end, sim.events_dispatched())
    }

    /// Run `f` at 1, 2 and 4 shards and require the sharded runs to
    /// replay the sequential one exactly; returns the sequential outcome.
    fn assert_shard_count_invariant(f: impl Fn(usize) -> Outcome) -> Outcome {
        let seq = f(1);
        for shards in [2, 4] {
            assert_eq!(f(shards), seq, "{shards} shards diverged from sequential");
        }
        seq
    }

    fn fig7_run() -> GuaranteeRun {
        GuaranteeRun {
            kind: TransportKind::SocketVia,
            block_bytes: 65_536,
            compute: ComputeModel::None,
            target_ups: 2.0,
            n_complete: 5,
            n_partial: 3,
            seed: FIG7_SEED,
        }
    }

    fn fig9_plan() -> Plan {
        let img = BlockedImage::paper_image(crate::fig9::IMAGE_BYTES / 8);
        Plan::ClosedLoop(query_mix(&img, 0.5, 6))
    }

    #[test]
    fn fig7_guarantee_run_is_shard_count_invariant() {
        let run = fig7_run();
        let seq = assert_shard_count_invariant(|shards| {
            pipeline_run(shards, run.kind, guarantee_plan(&run), run.seed)
        });
        // The builder is the figure's own: its sequential run is fig7's.
        let (_, cap) = run_guarantee_traced(&run, None);
        assert_eq!((seq.1, seq.2), (cap.digest, cap.end));
    }

    #[test]
    fn fig9_mixed_stream_is_shard_count_invariant() {
        assert_shard_count_invariant(|shards| {
            pipeline_run(shards, TransportKind::KTcp, fig9_plan(), FIG9_SEED)
        });
    }

    #[test]
    fn flow_model_fig7_and_fig9_are_shard_count_invariant() {
        let run = fig7_run();
        with_netmodel(NetModel::Flow, || {
            assert_shard_count_invariant(|shards| {
                pipeline_run(shards, run.kind, guarantee_plan(&run), run.seed)
            });
            assert_shard_count_invariant(|shards| {
                pipeline_run(shards, TransportKind::KTcp, fig9_plan(), FIG9_SEED)
            });
        });
    }

    /// A seeded fault plan (1% drop on every link, with DataCutter
    /// retries) replays the same faults at every shard count: fault fates
    /// draw from per-connection streams, never from which worker ran.
    #[test]
    fn seeded_fault_run_is_shard_count_invariant() {
        let run = fig7_run();
        let fig7 = |shards| pipeline_run(shards, run.kind, guarantee_plan(&run), run.seed);
        let faulted = fault::with_spec("drop=0.01,detect=100us,backoff=100us", || {
            assert_shard_count_invariant(fig7)
        });
        assert_ne!(faulted.1, fig7(1).1, "the plan dropped frames");
    }

    #[test]
    fn sequential_requests_build_no_plan() {
        assert_eq!(pipeline_node_map(3, 0), None);
        assert_eq!(pipeline_node_map(3, 1), None);
    }

    #[test]
    fn two_shards_keep_control_edges_on_shard_zero() {
        let map = pipeline_node_map(3, 2).expect("plan at 2 shards");
        // repo nodes 0..2 and viz node 9 co-locate with the driver pin.
        assert_eq!(map, vec![0, 0, 0, 1, 1, 1, 1, 1, 1, 0]);
    }

    #[test]
    fn stage_nodes_split_contiguously_and_evenly() {
        let map = pipeline_node_map(3, 4).expect("plan at 4 shards");
        assert_eq!(map, vec![0, 0, 0, 1, 1, 2, 2, 3, 3, 0]);
    }

    #[test]
    fn oversized_requests_clamp_to_the_stage_count() {
        // 6 stage nodes support at most 7 shards; 64 clamps down.
        let map = pipeline_node_map(3, 64).expect("plan at clamp");
        assert_eq!(map, vec![0, 0, 0, 1, 2, 3, 4, 5, 6, 0]);
        assert_eq!(map.iter().max(), Some(&6));
    }
}
