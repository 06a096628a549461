//! Network-model selection: per-segment packet simulation (the default)
//! or the flow-level fluid fast path, chosen per cluster build by the
//! [`NETMODEL`] knob (`HPSOCK_NETMODEL=packet|flow`; see
//! `hpsock_sim::knob`).

use hpsock_sim::knob::Knob;

/// Which network engine a [`crate::cluster::Cluster`] simulates with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NetModel {
    /// Per-segment discrete-event simulation: every frame walks the host
    /// engine, NIC/wire, switch and receive engine as individual events.
    /// Exact per the calibrated stage costs; cost grows with segments.
    #[default]
    Packet,
    /// Flow-level fluid simulation: each in-flight message is a flow over
    /// capacitated links receiving a max-min fair bandwidth share; only
    /// flow arrivals and departures are events. O(flows) work per state
    /// change regardless of message size. See `DESIGN.md` §13 for the
    /// semantics and the documented tolerance vs the packet model.
    Flow,
}

impl NetModel {
    /// Short label used in printed tables and reports.
    pub fn label(self) -> &'static str {
        match self {
            NetModel::Packet => "packet",
            NetModel::Flow => "flow",
        }
    }
}

/// `HPSOCK_NETMODEL`: which network engine clusters are built with
/// (default [`NetModel::Packet`]).
pub static NETMODEL: Knob<NetModel> =
    Knob::new("HPSOCK_NETMODEL", parse_netmodel, NetModel::default);

/// Strictly parse a network-model name. Anything but `packet` or `flow`
/// is a hard error naming the variable, never silently defaulted.
pub fn parse_netmodel(raw: &str) -> Result<NetModel, String> {
    match raw.trim() {
        "packet" => Ok(NetModel::Packet),
        "flow" => Ok(NetModel::Flow),
        _ => Err(format!(
            "HPSOCK_NETMODEL must be packet or flow, got {raw:?}"
        )),
    }
}

/// Run `f` with [`configured_netmodel`] returning `model` on this thread
/// (see [`Knob::with`]).
pub fn with_netmodel<T>(model: NetModel, f: impl FnOnce() -> T) -> T {
    NETMODEL.with(model, f)
}

/// The network model: a [`with_netmodel`] scope, else `HPSOCK_NETMODEL`,
/// else [`NetModel::Packet`].
pub fn configured_netmodel() -> NetModel {
    NETMODEL.get()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_is_strict() {
        assert_eq!(parse_netmodel("packet"), Ok(NetModel::Packet));
        assert_eq!(parse_netmodel(" flow "), Ok(NetModel::Flow));
        assert_eq!(NETMODEL.resolve("flow"), Ok(NetModel::Flow));
        assert!(NETMODEL.resolve("fluid").is_err());
        for bad in ["", "fluid", "Flow", "packet,flow", "1"] {
            let err = parse_netmodel(bad).unwrap_err();
            assert!(
                err.contains("HPSOCK_NETMODEL"),
                "error must name the var: {err}"
            );
        }
    }

    #[test]
    fn override_scopes_and_restores() {
        // Nesting and unwind restore are the knob's (`hpsock_sim::knob`);
        // this checks the public pair reads and writes the same knob.
        assert_eq!(
            with_netmodel(NetModel::Flow, configured_netmodel),
            NetModel::Flow
        );
        assert_eq!(
            with_netmodel(NetModel::Packet, || NETMODEL.get()),
            NetModel::Packet
        );
        assert_eq!(
            NETMODEL.with(NetModel::Flow, configured_netmodel),
            NetModel::Flow
        );
    }

    #[test]
    fn labels() {
        assert_eq!(NetModel::Packet.label(), "packet");
        assert_eq!(NetModel::Flow.label(), "flow");
    }
}
