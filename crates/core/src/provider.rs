//! The sockets-layer facade: which protocol stack a connection speaks.
//!
//! A [`Provider`] bundles a transport's [`PathCosts`] and creates
//! connections on a [`Network`]. It is the seam the experiments flip
//! between TCP and SocketVIA without touching application code — exactly
//! the property the paper's user-level sockets layer provides to legacy
//! sockets applications.

use hpsock_net::{ConnId, Endpoint, Network, PathCosts, TransportKind};
use std::sync::Arc;

/// A configured sockets layer.
#[derive(Clone)]
pub struct Provider {
    costs: Arc<PathCosts>,
}

impl Provider {
    /// Provider with the calibrated costs for `kind`.
    pub fn new(kind: TransportKind) -> Provider {
        Provider {
            costs: Arc::new(PathCosts::for_kind(kind)),
        }
    }

    /// Provider with explicit (e.g. ablated) cost parameters.
    pub fn from_costs(costs: PathCosts) -> Provider {
        Provider {
            costs: Arc::new(costs),
        }
    }

    /// Which stack this provider speaks.
    pub fn kind(&self) -> TransportKind {
        self.costs.kind
    }

    /// The underlying cost model.
    pub fn costs(&self) -> &PathCosts {
        &self.costs
    }

    /// Create a unidirectional connection `src -> dst`.
    pub fn connect(&self, net: &Network, src: Endpoint, dst: Endpoint) -> ConnId {
        net.connect_with(src, dst, Arc::clone(&self.costs))
    }

    /// Create a duplex pair: `(a_to_b, b_to_a)`. Data flows on the first,
    /// acknowledgments/control on the second (as in DataCutter's
    /// demand-driven scheduling).
    pub fn duplex(&self, net: &Network, a: Endpoint, b: Endpoint) -> (ConnId, ConnId) {
        (self.connect(net, a, b), self.connect(net, b, a))
    }
}

impl std::fmt::Debug for Provider {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Provider")
            .field("kind", &self.costs.kind)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpsock_net::{Cluster, NodeId};
    use hpsock_sim::{ProcessId, Sim};

    #[test]
    fn duplex_creates_two_connections() {
        let mut sim = Sim::new(0);
        let cluster = Cluster::build(&mut sim, 2);
        let net = cluster.network();
        let p = Provider::new(TransportKind::SocketVia);
        let a = cluster.endpoint(NodeId(0), ProcessId(100));
        let b = cluster.endpoint(NodeId(1), ProcessId(101));
        let (fwd, rev) = p.duplex(&net, a, b);
        assert_ne!(fwd, rev);
    }

    #[test]
    fn provider_reports_kind() {
        assert_eq!(
            Provider::new(TransportKind::KTcp).kind(),
            TransportKind::KTcp
        );
        let custom = Provider::from_costs(PathCosts::for_kind(TransportKind::Via));
        assert_eq!(custom.kind(), TransportKind::Via);
        assert_eq!(custom.costs().frame_payload, 65_536);
    }
}
