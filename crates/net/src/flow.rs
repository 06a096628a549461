//! Flow-control state machines for the send half of a connection.
//!
//! Two regimes, matching the two stacks in the paper:
//!
//! * [`Flow::Credits`] — VIA-style receiver-posted descriptors. One credit
//!   per wire frame. Because the receiving application (a DataCutter
//!   filter) always has a receive posted, the sockets layer copies each
//!   segment out of its eager buffer on arrival and *re-posts the
//!   descriptor immediately*: credits return per frame, after the
//!   credit-update message's latency. Application-level backpressure comes
//!   from the demand-driven scheduling window above, as in the paper.
//! * [`Flow::Window`] — kernel TCP. In-flight bytes are capped by the send
//!   buffer; a frame's arrival acknowledgment (reaching the sender after
//!   the ack latency) frees its bytes. The kernel receive buffer is
//!   drained continuously because the receiving filter always has a read
//!   posted, so receive-side occupancy is not modeled; application-level
//!   backpressure is the demand-driven window above, as in DataCutter.
//!
//! The state machines are pure (no simulator coupling) and are driven by
//! the network engine, which picks the receiver's reply (a credit return
//! or a window ack) from the connection's [`FlowModel`].

use crate::params::FlowModel;

/// Per-connection flow-control state, held by the sender.
#[derive(Debug, Clone)]
pub enum Flow {
    /// Receiver-posted descriptor credits.
    Credits {
        /// The sender's view of the peer's posted descriptors (lags the
        /// receiver by the credit-update latency).
        credits: u32,
        /// Descriptors the receiver posts per connection (caps `credits`).
        pool: u32,
    },
    /// Sliding byte window.
    Window {
        /// Bytes sent but not yet acknowledged by the receiver kernel.
        inflight: u64,
        /// Send-buffer size (caps `inflight`).
        send_buf: u64,
    },
}

impl Flow {
    /// Fresh state for a connection using `model`: every credit available,
    /// nothing in flight.
    pub fn new(model: FlowModel) -> Flow {
        match model {
            FlowModel::Credits { count } => Flow::Credits {
                credits: count,
                pool: count,
            },
            FlowModel::Window { send_buf } => Flow::Window {
                inflight: 0,
                send_buf,
            },
        }
    }

    /// May the sender emit the next frame of `frame_bytes` payload?
    pub fn can_send(&self, frame_bytes: u64) -> bool {
        match self {
            Flow::Credits { credits, .. } => *credits > 0,
            Flow::Window { inflight, send_buf } => inflight + frame_bytes <= *send_buf,
        }
    }

    /// Account for a frame entering the network.
    pub fn on_frame_sent(&mut self, frame_bytes: u64) {
        match self {
            Flow::Credits { credits, .. } => {
                assert!(*credits > 0, "sent a frame without a credit");
                *credits -= 1;
            }
            Flow::Window { inflight, .. } => {
                *inflight += frame_bytes;
            }
        }
    }

    /// The kernel's ack for a frame of `frame_bytes` reached the sender
    /// (window model): its in-flight bytes are freed.
    pub fn on_acked(&mut self, frame_bytes: u64) {
        match self {
            Flow::Window { inflight, .. } => {
                assert!(*inflight >= frame_bytes, "acked more than in flight");
                *inflight -= frame_bytes;
            }
            Flow::Credits { .. } => panic!("window ack on a credits connection"),
        }
    }

    /// `n` credits shipped by the receiver reached the sender (credits
    /// model).
    pub fn on_credits_returned(&mut self, n: u32) {
        match self {
            Flow::Credits { credits, pool } => {
                *credits += n;
                assert!(
                    *credits <= *pool,
                    "credits over-returned: {credits} > {pool}"
                );
            }
            Flow::Window { .. } => panic!("credit return on a window connection"),
        }
    }

    /// True for the credits regime.
    pub fn is_credits(&self) -> bool {
        matches!(self, Flow::Credits { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Credits available (credits model) or free in-flight bytes (window
    /// model).
    fn headroom(f: &Flow) -> u64 {
        match f {
            Flow::Credits { credits, .. } => *credits as u64,
            Flow::Window { inflight, send_buf } => send_buf - inflight,
        }
    }

    #[test]
    fn credits_lifecycle() {
        let mut f = Flow::new(FlowModel::Credits { count: 2 });
        assert!(f.is_credits());
        assert!(f.can_send(1_000));
        f.on_frame_sent(1_000);
        f.on_frame_sent(64_000);
        assert!(!f.can_send(1));
        f.on_credits_returned(2);
        assert!(f.can_send(1));
        assert_eq!(headroom(&f), 2);
    }

    #[test]
    #[should_panic]
    fn credits_cannot_go_negative() {
        let mut f = Flow::new(FlowModel::Credits { count: 1 });
        f.on_frame_sent(10);
        f.on_frame_sent(10);
    }

    #[test]
    #[should_panic]
    fn credits_cannot_over_return() {
        let mut f = Flow::new(FlowModel::Credits { count: 1 });
        f.on_credits_returned(1);
    }

    #[test]
    fn window_send_cap() {
        let mut f = Flow::new(FlowModel::Window { send_buf: 3_000 });
        assert!(!f.is_credits());
        assert!(f.can_send(1_460));
        f.on_frame_sent(1_460);
        f.on_frame_sent(1_460);
        assert!(!f.can_send(1_460), "send buffer full");
        f.on_acked(1_460);
        assert!(f.can_send(1_460), "ack frees send window");
    }

    #[test]
    fn window_large_message_streams_without_deadlock() {
        // A message far larger than the window streams fine because acks
        // free in-flight bytes frame by frame.
        let mut f = Flow::new(FlowModel::Window { send_buf: 65_536 });
        let (mut sent, mut arrived) = (0u32, 0u32);
        while sent < 1_000 {
            if f.can_send(1_460) {
                f.on_frame_sent(1_460);
                sent += 1;
            } else {
                assert!(arrived < sent, "progress possible");
                f.on_acked(1_460);
                arrived += 1;
            }
        }
        assert_eq!(sent, 1_000);
    }

    #[test]
    fn large_message_does_not_deadlock_credits() {
        // A message of many more frames than credits streams fine because
        // descriptors re-post per frame: simulate 256 frames with 32
        // credits and an in-order credit return.
        let mut f = Flow::new(FlowModel::Credits { count: 32 });
        let mut sent = 0u32;
        let mut arrived = 0u32;
        while sent < 256 {
            if f.can_send(65_536) {
                f.on_frame_sent(65_536);
                sent += 1;
            } else {
                assert!(arrived < sent, "progress possible");
                f.on_credits_returned(1);
                arrived += 1;
            }
        }
        assert_eq!(sent, 256);
    }

    proptest! {
        /// Credits never exceed the pool and never go negative under any
        /// valid interleaving of sends and arrivals.
        #[test]
        fn credits_invariant(ops in proptest::collection::vec(0u8..2, 1..200)) {
            let total = 8u32;
            let mut f = Flow::new(FlowModel::Credits { count: total });
            let mut outstanding = 0u32;
            for op in ops {
                match op {
                    0 => {
                        if f.can_send(100) {
                            f.on_frame_sent(100);
                            outstanding += 1;
                        }
                    }
                    _ => {
                        if outstanding > 0 {
                            f.on_credits_returned(1);
                            outstanding -= 1;
                        }
                    }
                }
                prop_assert!(headroom(&f) <= total as u64);
                prop_assert_eq!(headroom(&f) + outstanding as u64, total as u64);
            }
        }

        /// In-flight bytes never exceed the send buffer, and headroom plus
        /// in-flight always equals the configured window.
        #[test]
        fn window_invariant(ops in proptest::collection::vec(0u8..2, 1..300)) {
            let sb = 4_000u64;
            let mut f = Flow::new(FlowModel::Window { send_buf: sb });
            let mut inflight: Vec<u64> = vec![];
            for op in ops {
                match op {
                    0 => {
                        if f.can_send(1_000) {
                            f.on_frame_sent(1_000);
                            inflight.push(1_000);
                        }
                    }
                    _ => {
                        if let Some(b) = inflight.pop() {
                            f.on_acked(b);
                        }
                    }
                }
                let infl: u64 = inflight.iter().sum();
                prop_assert!(infl <= sb);
                prop_assert_eq!(headroom(&f) + infl, sb);
            }
        }
    }
}
