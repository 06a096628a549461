//! # hpsock-vizserver — the digitized-microscopy visualization server
//!
//! The paper's application layer: an emulated interactive visualization
//! server for digitized microscopy slides (the Virtual Microscope case
//! study), built on the DataCutter runtime over the `socketvia` sockets
//! layers.
//!
//! * [`dataset`] — block-partitioned images, query footprints, round-robin
//!   declustering (paper §2, Figure 1).
//! * [`queries`] — complete-update / partial-update / zoom query
//!   construction.
//! * [`pipeline`] — the Figure 5 filter group: 3× repository → 3× clip →
//!   3× subsample → visualization, with the measured 18 ns/B compute model.
//! * [`driver`] — open-loop (rate-guarantee) and closed-loop (interactive)
//!   query drivers recording response times.
//! * [`guarantee`] — the DR planner: distribution block size from an
//!   update-rate or latency guarantee against a transport's `t(s) = a + b·s`
//!   curve.
//! * [`hetero`] — the Figure 6 load-balancing setups: round-robin reaction
//!   time and demand-driven execution under random slowdowns.

pub mod dataset;
pub mod driver;
pub mod guarantee;
pub mod hetero;
pub mod pipeline;
pub mod queries;

pub use dataset::{declustered_share, BlockedImage, Rect};
pub use driver::{Plan, QueryDriver, QueryResult, TargetSlot};
pub use guarantee::{block_size_for_partial_latency, block_size_for_update_rate, MIN_BLOCK};
pub use hetero::{
    dd_execution_time, dd_execution_time_probed, faulted_lb_run, rr_execution_time,
    rr_reaction_time, rr_reaction_time_probed, FaultedLbOutcome, LbSetup,
};
pub use pipeline::{
    ComputeModel, PipelineCfg, QueryDesc, QueryKind, UowDone, VizPipeline, PAPER_NS_PER_BYTE,
};
pub use queries::{complete_update, partial_update, query_mix, zoom_query};

#[cfg(test)]
mod apptests;
