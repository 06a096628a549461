//! The two standard sockets micro-benchmarks, run through the
//! discrete-event engine: ping-pong latency and streamed bandwidth.
//! Together they regenerate the paper's Figure 4.
//!
//! As in the paper, *latency* is half the mean round-trip time of a
//! ping-pong with equal-size messages in both directions, and *bandwidth*
//! is measured by streaming many back-to-back messages and dividing bytes
//! delivered by the time of the last delivery.

use crate::provider::Provider;
use hpsock_net::{fault, Cluster, ConnId, Delivery, NodeId, StreamError, StreamErrorKind};
use hpsock_sim::{Ctx, Message, Probe, Process, Sim, SimTime};

/// One point of the latency series (Figure 4a).
#[derive(Debug, Clone, Copy)]
pub struct LatencyPoint {
    /// Message size in bytes.
    pub msg_size: u64,
    /// Mean one-way latency in microseconds.
    pub oneway_us: f64,
}

/// One point of the bandwidth series (Figure 4b).
#[derive(Debug, Clone, Copy)]
pub struct BandwidthPoint {
    /// Message size in bytes.
    pub msg_size: u64,
    /// Achieved bandwidth in Mbps.
    pub mbps: f64,
}

/// The initiator side of the ping-pong: sends, waits for the echo,
/// accumulates round-trip times.
struct Pinger {
    net: hpsock_net::Network,
    conn_out: ConnId,
    bytes: u64,
    remaining: u32,
    warmup: u32,
    rtt_us_sum: f64,
    rtt_count: u32,
    sent_at: SimTime,
}

impl Process for Pinger {
    fn name(&self) -> String {
        "pinger".into()
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.sent_at = ctx.now();
        self.net
            .send(ctx, self.conn_out, self.bytes, Message::new(()));
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        let msg = match msg.downcast::<Delivery>() {
            Ok(d) => {
                self.net.consumed(ctx, d.conn, d.msg_id);
                let rtt = ctx.now().since(self.sent_at).as_micros_f64();
                if self.warmup > 0 {
                    self.warmup -= 1;
                } else {
                    self.rtt_us_sum += rtt;
                    self.rtt_count += 1;
                }
                if self.remaining > 0 {
                    self.remaining -= 1;
                    self.sent_at = ctx.now();
                    self.net
                        .send(ctx, self.conn_out, self.bytes, Message::new(()));
                }
                return;
            }
            Err(msg) => msg,
        };
        // Under an injected fault plan a dropped ping surfaces here as a
        // stream error; resend it so the benchmark rides out the loss —
        // the eventual RTT honestly includes the detect timeout.
        let e = msg
            .downcast::<StreamError>()
            .expect("pinger expects deliveries or stream errors");
        if matches!(e.kind, StreamErrorKind::Lost) {
            self.net
                .send(ctx, self.conn_out, self.bytes, Message::new(()));
        }
    }
}

/// The echo side of the ping-pong.
struct Ponger {
    net: hpsock_net::Network,
    conn_back: ConnId,
}

impl Process for Ponger {
    fn name(&self) -> String {
        "ponger".into()
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        let msg = match msg.downcast::<Delivery>() {
            Ok(d) => {
                self.net.consumed(ctx, d.conn, d.msg_id);
                self.net
                    .send(ctx, self.conn_back, d.bytes, Message::new(()));
                return;
            }
            Err(msg) => msg,
        };
        // A lost echo (fault plan active) comes back as a stream error;
        // re-echo so the pinger's round trip completes.
        let e = msg
            .downcast::<StreamError>()
            .expect("ponger expects deliveries or stream errors");
        if matches!(e.kind, StreamErrorKind::Lost) {
            self.net
                .send(ctx, self.conn_back, e.bytes, Message::new(()));
        }
    }
}

/// Latency series over `sizes` (Figure 4a).
pub fn latency_series(provider: &Provider, sizes: &[u64], iters: u32) -> Vec<LatencyPoint> {
    sizes
        .iter()
        .map(|&s| LatencyPoint {
            msg_size: s,
            oneway_us: oneway_us(provider, s, iters),
        })
        .collect()
}

/// Mean one-way latency (half the mean ping-pong RTT) for one size.
pub fn oneway_us(provider: &Provider, bytes: u64, iters: u32) -> f64 {
    let warmup = 4u32;
    let mut sim = Sim::new(0xBEEF);
    let cluster = Cluster::build(&mut sim, 2);
    let net = cluster.network();

    // Two-phase construction: add processes with conn ids we register next.
    // Connection ids are deterministic: first registered is ConnId(0).
    let pinger = sim.add_process(Box::new(Pinger {
        net: net.clone(),
        conn_out: ConnId(0),
        bytes,
        remaining: iters + warmup - 1,
        warmup,
        rtt_us_sum: 0.0,
        rtt_count: 0,
        sent_at: SimTime::ZERO,
    }));
    let ponger = sim.add_process(Box::new(Ponger {
        net: net.clone(),
        conn_back: ConnId(1),
    }));
    let (fwd, rev) = provider.duplex(
        &net,
        cluster.endpoint(NodeId(0), pinger),
        cluster.endpoint(NodeId(1), ponger),
    );
    assert_eq!((fwd, rev), (ConnId(0), ConnId(1)));
    sim.run();
    let p: &Pinger = sim.process(pinger).expect("pinger persists");
    if fault::configured_plan().is_none() {
        // On a clean fabric every iteration must complete; under an
        // injected fault plan (crash/flap) the run may legitimately end
        // short, and we report the mean over the iterations that did.
        assert_eq!(p.rtt_count, iters, "all measured iterations completed");
    }
    p.rtt_us_sum / (2.0 * p.rtt_count.max(1) as f64)
}

/// Streams `count` messages back-to-back; the sender keeps the pipe full
/// and flow control paces it.
struct StreamSender {
    net: hpsock_net::Network,
    conn: ConnId,
    bytes: u64,
    count: u32,
}
impl Process for StreamSender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for _ in 0..self.count {
            self.net.send(ctx, self.conn, self.bytes, Message::new(()));
        }
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        // Lost frames (fault plan active) are resent; other errors
        // (peer dead) end the stream short and the caller measures the
        // bytes that did arrive.
        if let Ok(e) = msg.downcast::<StreamError>() {
            if matches!(e.kind, StreamErrorKind::Lost) {
                self.net.send(ctx, self.conn, e.bytes, Message::new(()));
            }
        }
    }
}

/// Receives, consumes immediately, records first/last delivery times.
struct StreamSink {
    net: hpsock_net::Network,
    first: Option<SimTime>,
    last: SimTime,
    bytes: u64,
    msgs: u64,
}
impl Process for StreamSink {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        let d = msg.downcast::<Delivery>().expect("sink expects deliveries");
        self.net.consumed(ctx, d.conn, d.msg_id);
        self.first.get_or_insert(ctx.now());
        self.last = ctx.now();
        self.bytes += d.bytes;
        self.msgs += 1;
    }
}

/// Achieved bandwidth in Mbps streaming `count` messages of `bytes` each.
pub fn streaming_mbps(provider: &Provider, bytes: u64, count: u32) -> f64 {
    streaming_mbps_probed(provider, bytes, count, |_| None).0
}

/// [`streaming_mbps`] with the probe bus attached after the cluster
/// exists (the factory receives the resource-name table), additionally
/// returning the run's end time — the horizon needed to read
/// time-weighted gauge means such as the net engine's per-connection
/// `net.conn<N>.mbps` bandwidth gauge. Probes are observational only, so
/// the measured bandwidth is identical to the unprobed run.
pub fn streaming_mbps_probed(
    provider: &Provider,
    bytes: u64,
    count: u32,
    make_probe: impl FnOnce(&[String]) -> Option<Box<dyn Probe>>,
) -> (f64, SimTime) {
    let mut sim = Sim::new(0xF00D);
    let cluster = Cluster::build(&mut sim, 2);
    let net = cluster.network();
    let sender = sim.add_process(Box::new(StreamSender {
        net: net.clone(),
        conn: ConnId(0),
        bytes,
        count,
    }));
    let sink = sim.add_process(Box::new(StreamSink {
        net: net.clone(),
        first: None,
        last: SimTime::ZERO,
        bytes: 0,
        msgs: 0,
    }));
    provider.connect(
        &net,
        cluster.endpoint(NodeId(0), sender),
        cluster.endpoint(NodeId(1), sink),
    );
    if let Some(p) = make_probe(&sim.resource_names()) {
        sim.attach_probe(p);
    }
    let end = sim.run();
    let s: &StreamSink = sim.process(sink).expect("sink persists");
    if fault::configured_plan().is_none() {
        // Exact conservation holds only on a clean fabric: a fault plan
        // can deliver short (crash) or long (a false-positive loss
        // detection retransmits a frame that was merely delayed).
        assert_eq!(s.msgs, count as u64, "all messages delivered");
        assert_eq!(s.bytes, bytes * count as u64, "byte conservation");
    }
    (
        8.0 * s.bytes as f64 / s.last.as_nanos().max(1) as f64 * 1_000.0,
        end,
    )
}

/// Bandwidth series over `sizes` (Figure 4b). `total_bytes` controls how
/// much data streams per point (message count adapts to size).
pub fn bandwidth_series(
    provider: &Provider,
    sizes: &[u64],
    total_bytes: u64,
) -> Vec<BandwidthPoint> {
    sizes
        .iter()
        .map(|&s| {
            let count = (total_bytes / s.max(1)).clamp(32, 4_000) as u32;
            BandwidthPoint {
                msg_size: s,
                mbps: streaming_mbps(provider, s, count),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpsock_net::TransportKind;

    #[test]
    fn socketvia_pingpong_is_9_5us() {
        let p = Provider::new(TransportKind::SocketVia);
        let us = oneway_us(&p, 4, 16);
        assert!((us - 9.5).abs() < 0.5, "got {us}");
    }

    #[test]
    fn tcp_latency_factor_five() {
        let sv = oneway_us(&Provider::new(TransportKind::SocketVia), 4, 8);
        let tcp = oneway_us(&Provider::new(TransportKind::KTcp), 4, 8);
        let r = tcp / sv;
        assert!((4.5..5.5).contains(&r), "ratio {r}");
    }

    #[test]
    fn via_close_to_socketvia() {
        let via = oneway_us(&Provider::new(TransportKind::Via), 4, 8);
        let sv = oneway_us(&Provider::new(TransportKind::SocketVia), 4, 8);
        assert!(via < sv && sv - via < 2.0, "VIA {via} vs SocketVIA {sv}");
    }

    #[test]
    fn bandwidth_peaks() {
        let sv = streaming_mbps(&Provider::new(TransportKind::SocketVia), 65_536, 150);
        let tcp = streaming_mbps(&Provider::new(TransportKind::KTcp), 65_536, 150);
        assert!((sv - 763.0).abs() < 40.0, "SocketVIA {sv}");
        assert!((tcp - 510.0).abs() < 40.0, "TCP {tcp}");
        assert!(sv / tcp > 1.4, "the ~50% improvement claim");
    }

    #[test]
    fn microbench_rides_out_injected_frame_loss() {
        // Regression: a fault plan used to trip the "all messages
        // delivered" asserts and the Delivery-only downcasts. With loss
        // the peers resend and the measurements stay finite and sane.
        fault::with_spec("drop=0.02,detect=100us,backoff=100us", || {
            let p = Provider::new(TransportKind::SocketVia);
            let us = oneway_us(&p, 1_024, 16);
            assert!(us.is_finite() && us > 0.0, "latency {us}");
            let mbps = streaming_mbps(&p, 8_192, 64);
            assert!(mbps.is_finite() && mbps > 0.0, "bandwidth {mbps}");
        });
    }

    #[test]
    fn latency_series_is_monotone_in_size() {
        let p = Provider::new(TransportKind::SocketVia);
        let series = latency_series(&p, &[4, 64, 1024, 4096], 4);
        for w in series.windows(2) {
            assert!(w[1].oneway_us >= w[0].oneway_us);
        }
    }

    #[test]
    fn bandwidth_series_is_monotone_in_size() {
        let p = Provider::new(TransportKind::KTcp);
        let series = bandwidth_series(&p, &[256, 4096, 65_536], 1 << 21);
        for w in series.windows(2) {
            assert!(w[1].mbps >= w[0].mbps);
        }
    }
}
