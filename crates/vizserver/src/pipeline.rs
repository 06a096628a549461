//! The visualization-server filter group (paper Figure 5): a 4-stage
//! pipeline — data repository → processing filter 1 → processing filter 2 →
//! visualization server — with three transparent copies of each of the
//! first three stages converging on one visualization node.
//!
//! Stage semantics follow the digitized-microscopy case study: repositories
//! emit the declustered blocks a query touches; the processing stages stand
//! for Clipping and Subsampling; the visualization filter composes the
//! final image. Computation is either free or linear at the measured
//! 18 ns/byte of the Virtual Microscope's viewing operation.

use crate::dataset::declustered_share;
use hpsock_datacutter::{
    Action, DataBuffer, FilterCtx, FilterHandle, FilterLogic, GroupBuilder, Instance, Policy,
};
use hpsock_net::{Cluster, NodeId};
use hpsock_sim::{Dur, FxHashMap, Message, ProcessId, Sim, SimTime};
use socketvia::Provider;
use std::any::Any;
use std::collections::VecDeque;
use std::sync::Arc;

/// The Virtual Microscope's measured viewing cost (paper §5.2.2).
pub const PAPER_NS_PER_BYTE: f64 = 18.0;

/// Per-stage computation model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ComputeModel {
    /// No computation (paper's "(a)" panels).
    None,
    /// Cost linear in buffer size (paper's "(b)" panels; 18 ns/B measured).
    LinearNsPerByte(f64),
}

impl ComputeModel {
    /// The paper's linear model.
    pub fn paper_linear() -> ComputeModel {
        ComputeModel::LinearNsPerByte(PAPER_NS_PER_BYTE)
    }

    /// CPU demand for `bytes` of data.
    pub fn cost(&self, bytes: u64) -> Dur {
        match *self {
            ComputeModel::None => Dur::ZERO,
            ComputeModel::LinearNsPerByte(ns) => Dur::nanos((ns * bytes as f64).round() as u64),
        }
    }

    /// Label used in printed tables.
    pub fn label(&self) -> &'static str {
        match self {
            ComputeModel::None => "No Computation",
            ComputeModel::LinearNsPerByte(_) => "Linear Computation",
        }
    }
}

/// The kinds of client queries the experiments emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// A completely new image: all blocks (bandwidth sensitive).
    Complete,
    /// The viewing window moved slightly: the excess blocks only
    /// (latency sensitive).
    Partial,
    /// Magnification around a point: 4 blocks (paper §5.2.2, third set).
    Zoom,
}

impl QueryKind {
    /// Label used in printed tables.
    pub fn label(self) -> &'static str {
        match self {
            QueryKind::Complete => "complete",
            QueryKind::Partial => "partial",
            QueryKind::Zoom => "zoom",
        }
    }
}

/// A query submitted to the pipeline: which blocks to fetch and process.
#[derive(Debug, Clone)]
pub struct QueryDesc {
    /// Query class (for reporting).
    pub kind: QueryKind,
    /// Block ids the query touches.
    pub blocks: Vec<u64>,
    /// Bytes per block.
    pub block_bytes: u64,
}

impl QueryDesc {
    /// Total bytes this query moves through the pipeline.
    pub fn bytes(&self) -> u64 {
        self.blocks.len() as u64 * self.block_bytes
    }
}

/// Data-repository filter: emits this copy's declustered share of the
/// query's blocks, one per continuation step (paced by `read_cost`).
pub struct RepositoryLogic {
    read_cost: Dur,
    pending: FxHashMap<u32, VecDeque<u64>>,
    block_bytes: FxHashMap<u32, u64>,
}

impl RepositoryLogic {
    /// `read_cost` is charged per block (index lookup + buffer-cache copy).
    pub fn new(read_cost: Dur) -> RepositoryLogic {
        RepositoryLogic {
            read_cost,
            pending: FxHashMap::default(),
            block_bytes: FxHashMap::default(),
        }
    }
}

impl FilterLogic for RepositoryLogic {
    fn on_uow_start(
        &mut self,
        fc: &mut FilterCtx<'_>,
        uow: u32,
        desc: Arc<dyn Any + Send + Sync>,
    ) -> Action {
        let q = desc
            .downcast::<QueryDesc>()
            .expect("repository expects a QueryDesc");
        let share = declustered_share(&q.blocks, fc.copies, fc.copy);
        self.pending.insert(uow, share.into());
        self.block_bytes.insert(uow, q.block_bytes);
        Action::compute(Dur::ZERO).and_continue(uow)
    }

    fn on_continue(&mut self, _fc: &mut FilterCtx<'_>, uow: u32) -> Action {
        let queue = self.pending.get_mut(&uow).expect("uow started");
        match queue.pop_front() {
            Some(block) => {
                let bytes = self.block_bytes[&uow];
                Action::emit(self.read_cost, 0, DataBuffer::new(uow, bytes, block))
                    .and_continue(uow)
            }
            None => {
                self.pending.remove(&uow);
                self.block_bytes.remove(&uow);
                Action::none().and_end_uow(uow)
            }
        }
    }
}

/// A processing stage (clip / subsample): computes and forwards.
pub struct StageLogic {
    compute: ComputeModel,
}

impl StageLogic {
    /// Stage with the given computation model.
    pub fn new(compute: ComputeModel) -> StageLogic {
        StageLogic { compute }
    }
}

impl FilterLogic for StageLogic {
    fn on_buffer(&mut self, _fc: &mut FilterCtx<'_>, _port: usize, buf: DataBuffer) -> Action {
        let cost = self.compute.cost(buf.bytes);
        Action::emit(cost, 0, buf)
    }
}

/// Sent to the driver when the visualization filter finishes a query.
pub struct UowDone {
    /// The finished unit of work.
    pub uow: u32,
    /// Completion instant.
    pub at: SimTime,
}

/// The visualization filter: composes the image (optional compute) and
/// notifies the driver when a query completes.
pub struct VizLogic {
    compute: ComputeModel,
    driver: ProcessId,
}

impl VizLogic {
    /// Visualization stage reporting completions to `driver`.
    pub fn new(compute: ComputeModel, driver: ProcessId) -> VizLogic {
        VizLogic { compute, driver }
    }
}

impl FilterLogic for VizLogic {
    fn on_buffer(&mut self, _fc: &mut FilterCtx<'_>, _port: usize, buf: DataBuffer) -> Action {
        Action::compute(self.compute.cost(buf.bytes))
    }

    fn on_uow_end(&mut self, fc: &mut FilterCtx<'_>, uow: u32) -> Action {
        let at = fc.now;
        fc.notify(self.driver, Message::new(UowDone { uow, at }));
        Action::none()
    }
}

/// Configuration of the Figure 5 pipeline.
#[derive(Clone)]
pub struct PipelineCfg {
    /// Sockets layer carrying every stream.
    pub provider: Provider,
    /// Buffer scheduling between transparent copies.
    pub policy: Policy,
    /// Computation model applied at both processing stages and the
    /// visualization filter.
    pub compute: ComputeModel,
    /// Transparent copies of the repository and processing stages
    /// (the paper uses 3).
    pub copies: usize,
    /// Per-block repository read cost.
    pub read_cost: Dur,
}

impl PipelineCfg {
    /// The paper's configuration over the given sockets layer.
    pub fn paper(provider: Provider, compute: ComputeModel) -> PipelineCfg {
        PipelineCfg {
            provider,
            policy: Policy::demand_driven(),
            compute,
            copies: 3,
            read_cost: Dur::nanos(500),
        }
    }
}

/// A built pipeline: the instantiated group plus stage handles.
pub struct VizPipeline {
    /// The instantiated filter group.
    pub inst: Instance,
    /// Repository stage handle.
    pub repo: FilterHandle,
    /// First processing stage.
    pub stage1: FilterHandle,
    /// Second processing stage.
    pub stage2: FilterHandle,
    /// Visualization stage (single copy).
    pub viz: FilterHandle,
}

impl VizPipeline {
    /// Nodes a pipeline with `copies` copies per stage needs.
    pub fn nodes_needed(copies: usize) -> usize {
        3 * copies + 1
    }

    /// Build the pipeline on `cluster` nodes `0 .. 3*copies`, with the
    /// visualization filter on node `3*copies`. Completions are reported
    /// to `driver`.
    pub fn build(
        sim: &mut Sim,
        cluster: &Cluster,
        cfg: &PipelineCfg,
        driver: ProcessId,
    ) -> VizPipeline {
        let c = cfg.copies;
        assert!(
            cluster.len() >= Self::nodes_needed(c),
            "cluster too small: need {}",
            Self::nodes_needed(c)
        );
        let nodes = |base: usize| (0..c).map(|i| NodeId(base * c + i)).collect::<Vec<_>>();
        let mut g = GroupBuilder::new();
        let read_cost = cfg.read_cost;
        let repo = g.filter(
            "repository",
            nodes(0),
            Box::new(move |_| Box::new(RepositoryLogic::new(read_cost))),
        );
        let compute = cfg.compute;
        let stage1 = g.filter(
            "clip",
            nodes(1),
            Box::new(move |_| Box::new(StageLogic::new(compute))),
        );
        let stage2 = g.filter(
            "subsample",
            nodes(2),
            Box::new(move |_| Box::new(StageLogic::new(compute))),
        );
        let viz = g.filter(
            "viz",
            vec![NodeId(3 * c)],
            Box::new(move |_| Box::new(VizLogic::new(compute, driver))),
        );
        g.stream(repo, stage1, cfg.policy, &cfg.provider);
        g.stream(stage1, stage2, cfg.policy, &cfg.provider);
        g.stream(stage2, viz, cfg.policy, &cfg.provider);
        let inst = g.instantiate(sim, cluster);
        VizPipeline {
            inst,
            repo,
            stage1,
            stage2,
            viz,
        }
    }

    /// Process ids of the repository copies (query submission targets).
    pub fn repo_pids(&self) -> Vec<ProcessId> {
        self.inst.pids(self.repo).to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_model_costs() {
        assert_eq!(ComputeModel::None.cost(1_000_000), Dur::ZERO);
        assert_eq!(ComputeModel::paper_linear().cost(1_000), Dur::nanos(18_000));
        assert_eq!(ComputeModel::None.label(), "No Computation");
    }

    #[test]
    fn query_desc_bytes() {
        let q = QueryDesc {
            kind: QueryKind::Zoom,
            blocks: vec![0, 1, 16, 17],
            block_bytes: 65_536,
        };
        assert_eq!(q.bytes(), 4 * 65_536);
        assert_eq!(q.kind.label(), "zoom");
    }

    #[test]
    fn nodes_needed_matches_paper() {
        assert_eq!(VizPipeline::nodes_needed(3), 10);
    }
}
