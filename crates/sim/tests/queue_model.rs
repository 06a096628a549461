//! Model-based property test: the calendar [`EventQueue`] must produce
//! byte-for-byte the same `(time, seq, target)` pop sequence as a plain
//! binary-heap priority queue over the `(time, seq)` key — including FIFO
//! order among equal times when keys follow insertion order, as the
//! kernel's per-source keys do within one source — for arbitrary
//! interleavings of pushes and pops. This is the ordering contract the
//! kernel's `TraceDigest` stability rests on.

use hpsock_sim::event::EventQueue;
use hpsock_sim::{Message, ProcessId, SimTime};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Reference model: a min-heap over the full `(time, seq)` key with its
/// own insertion counter. `target` rides along for comparison.
#[derive(Default)]
struct ModelQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    next_seq: u64,
}

impl ModelQueue {
    fn push(&mut self, time: SimTime, target: ProcessId) {
        self.heap.push(Reverse((time, self.next_seq, target.0)));
        self.next_seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, u64, usize)> {
        self.heap.pop().map(|Reverse(k)| k)
    }
}

/// The ring's bucket width in ns: `1 << SHIFT` in `crates/sim/src/event.rs`.
const BUCKET_NS: u64 = 2_048;
/// The ring's window in ns: `BUCKETS << SHIFT` in `crates/sim/src/event.rs`.
const WINDOW_NS: u64 = 262_144;

/// One scripted operation, decoded from two raw generator words.
enum Op {
    /// Push at `last popped time + dt`.
    Push {
        dt: u64,
        target: usize,
    },
    Pop,
}

/// Decode one operation; `now` is the last popped time, which is the
/// queue's window floor once rounded down to a bucket.
fn decode(sel: u64, raw: u64, now: SimTime) -> Op {
    match sel % 11 {
        // Mostly pushes, with time deltas drawn from three scales:
        // near-zero (equal-time ties), in-window, and far beyond the
        // default ring window (overflow heap + migration).
        0..=2 => Op::Push {
            dt: raw % 4,
            target: (raw / 7) as usize % 5,
        },
        3..=5 => Op::Push {
            dt: raw % (1 << 16),
            target: (raw / 7) as usize % 5,
        },
        6 => Op::Push {
            dt: raw % (1 << 26),
            target: (raw / 7) as usize % 5,
        },
        // Exactly `k` windows past the window floor, off by -1, 0 or +1
        // ns: both sides of the ring's window test.
        7 => {
            let floor = now.as_nanos() / BUCKET_NS * BUCKET_NS;
            let k = 1 + raw % 3;
            let at = floor + k * WINDOW_NS + (raw / 3) % 3 - 1;
            Op::Push {
                dt: at - now.as_nanos(),
                target: (raw / 7) as usize % 5,
            }
        }
        _ => Op::Pop,
    }
}

/// Run a script against both queues, checking each pop and the final
/// drain agree exactly.
fn check_script(script: Vec<(u64, u64)>) {
    let mut real = EventQueue::new();
    let mut model = ModelQueue::default();
    // Pushes are relative to the last popped time, mirroring how the
    // kernel schedules (never before "now").
    let mut now = SimTime::ZERO;
    for (sel, raw) in script {
        match decode(sel, raw, now) {
            Op::Push { dt, target } => {
                let t = now + hpsock_sim::Dur::nanos(dt);
                // The payload carries the model's expected seq so payload
                // identity is checked too, not just the key.
                real.push(
                    t,
                    model.next_seq,
                    ProcessId(target),
                    Message::new(model.next_seq),
                );
                model.push(t, ProcessId(target));
            }
            Op::Pop => {
                let got = real.pop();
                let want = model.pop();
                match (got, want) {
                    (None, None) => {}
                    (Some(ev), Some((t, seq, target))) => {
                        assert_eq!((ev.time, ev.seq, ev.target.0), (t, seq, target));
                        assert_eq!(ev.msg.downcast::<u64>().unwrap(), seq);
                        now = t;
                    }
                    (got, want) => panic!(
                        "pop mismatch: real={:?} model={:?}",
                        got.map(|e| e.key()),
                        want
                    ),
                }
            }
        }
        assert_eq!(real.len(), model.heap.len());
        assert_eq!(
            real.peek_time(),
            model.heap.peek().map(|Reverse((t, _, _))| *t)
        );
    }
    // Drain: every remaining event must come out in model order.
    while let Some((t, seq, target)) = model.pop() {
        let ev = real.pop().expect("real queue drained early");
        assert_eq!((ev.time, ev.seq, ev.target.0), (t, seq, target));
        assert_eq!(ev.msg.downcast::<u64>().unwrap(), seq);
    }
    assert!(real.pop().is_none(), "real queue has extra events");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matches_binary_heap_model(script in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..400)) {
        check_script(script);
    }
}

/// A pending set far above the ring's capacity: 4000 pushes and no pops
/// before the drain. Every seventh push lands up to 67 ms out, far beyond
/// the ≈262 µs window, so hundreds of events ride the overflow heap and
/// the drain pulls them into the ring through `migrate`. The rest pile up
/// in the first 32 buckets, so sorted insertion works on deep buckets.
#[test]
fn deep_pending_set_matches_model() {
    let mut script = Vec::new();
    for i in 0u64..4000 {
        script.push((i % 7, i.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    }
    check_script(script);
}
