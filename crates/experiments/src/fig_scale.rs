//! Beyond the paper — `fig_scale`: validation and payoff of the
//! flow-level fluid network model (`HPSOCK_NETMODEL=flow`).
//!
//! Two parts:
//!
//! 1. **Agreement** ([`agreement_table`]): the headline series of
//!    Figure 4 (micro-benchmark latency and bandwidth), Figure 7 (the
//!    3 updates/sec partial-latency point) and Figure 9 (the mixed-stream
//!    midpoint) are re-run under the packet engine and the fluid engine
//!    and compared side by side. The fluid model is calibrated so the
//!    *unloaded* micro-benchmarks agree within [`MICRO_TOL`] (2%); the
//!    application figures involve pipelined queueing the fluid model
//!    idealizes (no per-frame credit stalls), so they carry the looser
//!    [`APP_TOL`] (15%). [`assert_agreement`] enforces both — the CI
//!    flow-smoke job and the `fig_scale` binary gate on it.
//!
//! 2. **Scale** ([`scale_table`]): a cluster-size sweep over hierarchical
//!    rack topologies (8 → 512 nodes, thousands of open-loop clients
//!    streaming across oversubscribed core uplinks) that only the fluid
//!    model can afford: the packet engine's event count grows with
//!    segments × size while the fluid engine's grows with flows. Packet
//!    columns are reported for the sizes where the packet run is cheap
//!    (≤ 32 nodes) and dashed out beyond.

use crate::fig7;
use crate::fig9;
use crate::table::Table;
use hpsock_net::{
    configured_oversub, with_netmodel, Cluster, ConnId, Delivery, Drain, NetModel, NodeId,
    TransportKind,
};
use hpsock_sim::{Ctx, Dur, Message, Process, Sim};
use hpsock_vizserver::ComputeModel;
use socketvia::{bandwidth_series, latency_series, Provider};

/// Relative tolerance for the unloaded micro-benchmark series (Figure 4).
pub const MICRO_TOL: f64 = 0.02;
/// Relative tolerance for the application figures (Figures 7 and 9),
/// where the fluid model idealizes per-frame flow-control stalls.
pub const APP_TOL: f64 = 0.15;

/// Cluster sizes of the scale sweep (node counts).
pub const SCALE_NODES: [usize; 4] = [8, 32, 128, 512];
/// Largest node count for which the packet-model comparison columns are
/// still cheap enough to include.
pub const PACKET_CEILING: usize = 32;

/// One agreement row: a figure's series value under both models.
#[derive(Debug, Clone)]
pub struct Agreement {
    /// Which figure/series/point this row pins.
    pub what: String,
    /// Value under the packet engine.
    pub packet: f64,
    /// Value under the fluid engine.
    pub flow: f64,
    /// Documented relative tolerance for this row.
    pub tol: f64,
}

impl Agreement {
    /// Symmetric relative error between the two models.
    pub fn rel_err(&self) -> f64 {
        (self.packet - self.flow).abs() / self.packet.abs().max(self.flow.abs()).max(1e-12)
    }
}

/// Run the headline series of fig4/fig7/fig9 under both network models
/// and collect the per-point comparisons. `quick` shrinks the per-point
/// iteration counts (CI smoke scale).
pub fn agreement_rows(quick: bool) -> Vec<Agreement> {
    let both = |f: &dyn Fn() -> Vec<(String, f64, f64)>| -> Vec<Agreement> {
        let packet = with_netmodel(NetModel::Packet, f);
        let flow = with_netmodel(NetModel::Flow, f);
        packet
            .into_iter()
            .zip(flow)
            .map(|((what, p, tol), (_, fl, _))| Agreement {
                what,
                packet: p,
                flow: fl,
                tol,
            })
            .collect()
    };

    let mut rows = Vec::new();

    // Figure 4(a): ping-pong one-way latency at 4 B and 4 KB.
    let lat_iters = if quick { 3 } else { 8 };
    rows.extend(both(&|| {
        let mut out = Vec::new();
        for &kind in TransportKind::PAPER_SET.iter() {
            let pts = latency_series(&Provider::new(kind), &[4, 4096], lat_iters);
            for p in pts {
                out.push((
                    format!("fig4a latency_us {} @{}B", kind.label(), p.msg_size),
                    p.oneway_us,
                    MICRO_TOL,
                ));
            }
        }
        out
    }));

    // Figure 4(b): streamed bandwidth at 4 KB and 64 KB.
    let total = if quick { 1u64 << 19 } else { 1u64 << 21 };
    rows.extend(both(&|| {
        let mut out = Vec::new();
        for &kind in TransportKind::PAPER_SET.iter() {
            let pts = bandwidth_series(&Provider::new(kind), &[4096, 65_536], total);
            for p in pts {
                out.push((
                    format!("fig4b mbps {} @{}B", kind.label(), p.msg_size),
                    p.mbps,
                    MICRO_TOL,
                ));
            }
        }
        out
    }));

    // Figure 7: the 3 updates/sec no-computation point, all three series.
    let scale = if quick {
        fig7::Scale {
            n_complete: 3,
            n_partial: 2,
        }
    } else {
        fig7::Scale::default()
    };
    rows.extend(both(&|| {
        let p = fig7::sweep(ComputeModel::None, &[3.0], scale).remove(0);
        vec![
            (
                "fig7 partial_us TCP @3ups".to_string(),
                p.tcp_us.expect("TCP sustains 3 ups"),
                APP_TOL,
            ),
            (
                "fig7 partial_us SocketVIA @3ups".to_string(),
                p.sv_us,
                APP_TOL,
            ),
            (
                "fig7 partial_us SocketVIA(DR) @3ups".to_string(),
                p.sv_dr_us,
                APP_TOL,
            ),
        ]
    }));

    // Figure 9: the half-complete mix at 64 partitions, no computation.
    let n = if quick { 4 } else { 8 };
    rows.extend(both(&|| {
        [TransportKind::SocketVia, TransportKind::KTcp]
            .iter()
            .map(|&kind| {
                (
                    format!("fig9 response_ms {} @0.5/64part", kind.label()),
                    fig9::mean_response_ms(
                        kind,
                        ComputeModel::None,
                        64,
                        0.5,
                        n,
                        crate::runner::FIG9_SEED,
                    ),
                    APP_TOL,
                )
            })
            .collect()
    }));

    rows
}

/// Render agreement rows as a table.
pub fn agreement_table(rows: &[Agreement]) -> Table {
    let mut t = Table::new(
        "fig_scale: flow-vs-packet model agreement on fig4/fig7/fig9 headline series",
        &["series", "packet", "flow", "rel_err", "tolerance"],
    );
    for r in rows {
        t.add_row(vec![
            r.what.clone(),
            format!("{:.2}", r.packet),
            format!("{:.2}", r.flow),
            format!("{:.4}", r.rel_err()),
            format!("{:.2}", r.tol),
        ]);
    }
    t
}

/// Panic unless every agreement row is within its documented tolerance —
/// the assertion the `fig_scale` binary and CI flow-smoke job gate on.
pub fn assert_agreement(rows: &[Agreement]) {
    for r in rows {
        assert!(
            r.rel_err() <= r.tol,
            "flow model disagrees with packet model beyond tolerance on {}: \
             packet {:.3} vs flow {:.3} (rel_err {:.4} > {:.2})",
            r.what,
            r.packet,
            r.flow,
            r.rel_err(),
            r.tol
        );
    }
}

/// Message size of the scale-sweep clients (16 KB application blocks).
const CLIENT_BYTES: u64 = 16_384;
/// Open-loop send interval per client.
const CLIENT_INTERVAL: Dur = Dur::nanos(1_000_000);

/// An open-loop client: sends a [`CLIENT_BYTES`] message every
/// [`CLIENT_INTERVAL`] regardless of completions, `count` times. Start
/// times are staggered by connection id so the cluster doesn't tick in
/// lockstep.
struct OpenLoopClient {
    net: hpsock_net::Network,
    conn: ConnId,
    remaining: u32,
}
impl Process for OpenLoopClient {
    fn name(&self) -> String {
        format!("scale-client-{}", self.conn.0)
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let stagger = CLIENT_INTERVAL.as_nanos() * (self.conn.0 as u64 % 64) / 64;
        ctx.send_self_in(Dur::nanos(stagger), Message::new(()));
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        if msg.downcast_ref::<Delivery>().is_some() {
            return; // open loop: deliveries don't pace the sender
        }
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        self.net
            .send(ctx, self.conn, CLIENT_BYTES, Message::new(()));
        if self.remaining > 0 {
            ctx.send_self_in(CLIENT_INTERVAL, Message::new(()));
        }
    }
}

/// One scale-sweep measurement.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Total nodes in the cluster.
    pub nodes: usize,
    /// Racks (nodes/per_rack).
    pub racks: usize,
    /// Open-loop clients (= connections = flows × msgs).
    pub clients: usize,
    /// Messages sent in total.
    pub msgs: u64,
    /// Virtual end time, ms.
    pub end_ms: f64,
    /// Kernel events dispatched.
    pub events: u64,
    /// Wall-clock for the run, ms.
    pub wall_ms: f64,
}

/// Run one cluster size under the given model: `nodes/2` sender nodes
/// each hosting `clients_per_node` open-loop clients streaming TCP
/// blocks to the receiver half across the rack fabric
/// ([`Cluster::build_racks_hier`] with the `HPSOCK_OVERSUB` core
/// oversubscription).
pub fn run_scale_point(
    model: NetModel,
    nodes: usize,
    clients_per_node: usize,
    msgs: u32,
) -> ScalePoint {
    let per_rack = nodes.min(16);
    let racks = nodes / per_rack;
    let senders = nodes / 2;
    with_netmodel(model, || {
        let start = std::time::Instant::now();
        let mut sim = Sim::new(0x5CA1E);
        let cluster = Cluster::build_racks_hier(&mut sim, racks, per_rack, configured_oversub());
        let net = cluster.network();
        let mut conn = 0usize;
        for node in 0..senders {
            for _ in 0..clients_per_node {
                let tx = sim.add_process(Box::new(OpenLoopClient {
                    net: net.clone(),
                    conn: ConnId(conn),
                    remaining: msgs,
                }));
                let rx = sim.add_process(Box::new(Drain { net: net.clone() }));
                net.connect(
                    cluster.endpoint(NodeId(node), tx),
                    cluster.endpoint(NodeId(senders + node), rx),
                    TransportKind::KTcp,
                );
                conn += 1;
            }
        }
        let end = sim.run();
        ScalePoint {
            nodes,
            racks,
            clients: conn,
            msgs: conn as u64 * msgs as u64,
            end_ms: end.as_nanos() as f64 / 1e6,
            events: sim.events_dispatched(),
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
        }
    })
}

/// The cluster-size sweep: fluid model at every size in [`SCALE_NODES`],
/// packet comparison columns up to [`PACKET_CEILING`] nodes.
pub fn scale_table(quick: bool) -> Table {
    let (clients_per_node, msgs) = if quick { (4, 4) } else { (8, 20) };
    let mut t = Table::new(
        "fig_scale: cluster-size sweep, open-loop TCP clients over oversubscribed racks",
        &[
            "nodes",
            "racks",
            "clients",
            "msgs",
            "flow_events",
            "flow_wall_ms",
            "flow_end_ms",
            "packet_events",
            "packet_wall_ms",
        ],
    );
    for &nodes in &SCALE_NODES {
        let f = run_scale_point(NetModel::Flow, nodes, clients_per_node, msgs);
        let p = (nodes <= PACKET_CEILING)
            .then(|| run_scale_point(NetModel::Packet, nodes, clients_per_node, msgs));
        let (pe, pw) = match &p {
            Some(p) => (p.events.to_string(), format!("{:.1}", p.wall_ms)),
            None => ("-".into(), "-".into()),
        };
        t.add_row(vec![
            f.nodes.to_string(),
            f.racks.to_string(),
            f.clients.to_string(),
            f.msgs.to_string(),
            f.events.to_string(),
            format!("{:.1}", f.wall_ms),
            format!("{:.1}", f.end_ms),
            pe,
            pw,
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agreement_holds_at_quick_scale() {
        let rows = agreement_rows(true);
        assert!(rows.len() >= 15, "fig4a + fig4b + fig7 + fig9 rows");
        assert_agreement(&rows);
    }

    #[test]
    fn scale_point_runs_512_nodes_under_the_fluid_model() {
        let p = run_scale_point(NetModel::Flow, 512, 2, 2);
        assert_eq!(p.racks, 32);
        assert_eq!(p.clients, 512);
        assert_eq!(p.msgs, 1024);
        assert!(p.events > 0 && p.end_ms > 0.0);
    }

    #[test]
    fn fluid_events_scale_with_flows_not_segments() {
        // Same workload, both models, small cluster: the fluid engine
        // spends far fewer events per message.
        let f = run_scale_point(NetModel::Flow, 8, 2, 3);
        let p = run_scale_point(NetModel::Packet, 8, 2, 3);
        assert_eq!(f.msgs, p.msgs);
        assert!(
            p.events > 3 * f.events,
            "packet {} vs flow {} events",
            p.events,
            f.events
        );
    }
}
