//! # hpsock-net — simulated cluster substrate
//!
//! Models the paper's testbed: a 16-node PC cluster on a GigaNet cLAN
//! switch, with three protocol stacks (raw VIA, SocketVIA, kernel TCP over
//! LANE) whose cost parameters are calibrated to the paper's Figure 4
//! micro-benchmarks. See `DESIGN.md` §2 for the substitution argument and
//! [`params`] for the calibration derivation.
//!
//! Layering:
//!
//! * [`params`] — per-transport cost models ([`params::PathCosts`]) and
//!   closed-form latency/bandwidth curves used by planners and tests.
//! * [`frame`] — segmentation of application messages into wire frames.
//! * [`flow`] — flow-control state machines (VIA descriptor credits,
//!   TCP byte windows).
//! * [`engine`] — the discrete-event network engine walking frames through
//!   `host_tx → nic/wire → switch → host_rx` FCFS stages.
//! * [`cluster`] — node resource construction and engine installation.

pub mod cluster;
pub mod engine;
pub mod fault;
pub mod flow;
pub mod fluid;
pub mod frame;
pub mod netmodel;
pub mod params;

pub use cluster::{configured_oversub, parse_oversub, Cluster, NodeSpec, Topology, INTER_RACK_HOP};
pub use engine::{
    ConnId, ConnStats, Delivery, Endpoint, NetError, NetSwitch, Network, NodeCore, NodeId,
    NodeResources, StreamError, StreamErrorKind,
};
pub use fault::{FaultPlan, LinkFilter, LinkFilterKind, LinkScope, RecoveryCfg};
pub use flow::Flow;
pub use fluid::{max_min_rates, FluidCore, FluidWork};
pub use netmodel::{configured_netmodel, parse_netmodel, with_netmodel, NetModel};
pub use params::{FlowModel, PathCosts, TransportKind};

#[cfg(test)]
mod proptests;
