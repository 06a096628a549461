//! # socketvia — high-performance sockets layers over a simulated VIA cluster
//!
//! The paper's substrate under test. This crate provides:
//!
//! * [`provider`] — the sockets-layer facade: pick a protocol stack
//!   ([`hpsock_net::TransportKind`]) or supply ablated cost parameters, and
//!   create (duplex) connections between processes on cluster nodes.
//! * [`microbench`] — the two standard micro-benchmarks (ping-pong latency
//!   and windowed streaming bandwidth) that regenerate the paper's
//!   Figure 4, run through the discrete-event engine.
//! * [`curves`] — the `t(s) = a + b·s` performance-curve abstraction an
//!   application developer extracts from the micro-benchmarks, plus the
//!   planning primitives behind the paper's *data repartitioning* (DR)
//!   insight: the minimum message size that attains a required bandwidth
//!   (Figure 2(a)'s U1/U2) and the maximum message size that honours a
//!   latency bound.
//!
//! ```
//! use socketvia::curves::PerfCurve;
//! use hpsock_net::TransportKind;
//!
//! let tcp = PerfCurve::from_kind(TransportKind::KTcp);
//! let sv = PerfCurve::from_kind(TransportKind::SocketVia);
//! // SocketVIA attains 400 Mbps at a far smaller message size (U2 << U1):
//! let u1 = tcp.min_size_for_bandwidth_mbps(400.0).unwrap();
//! let u2 = sv.min_size_for_bandwidth_mbps(400.0).unwrap();
//! assert!(u2 * 4 < u1);
//! ```

pub mod curves;
pub mod microbench;
pub mod provider;

pub use curves::PerfCurve;
pub use microbench::{
    bandwidth_series, latency_series, streaming_mbps_probed, BandwidthPoint, LatencyPoint,
};
pub use provider::Provider;
