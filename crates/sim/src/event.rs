//! The pending-event set: a total-ordered priority queue.
//!
//! Events are ordered by `(time, seq)` where `seq` is a caller-supplied
//! ordering key, unique per pending event. The kernel derives it from the
//! *sender* (`(source slot << 40) | per-source push count`), so ties in
//! virtual time break by `(source, push order)` — a canonical order that
//! does not depend on which thread merged the event into the queue, which
//! is what lets the sharded executor reproduce the sequential schedule
//! exactly. The whole simulation stays a deterministic function of the
//! initial seed and process construction order.
//!
//! Internally this is a **calendar queue** (Brown, CACM 1988) tuned to the
//! kernel's dominant pattern — short-delta `send_self_in` relative to the
//! current time: a ring of `BUCKETS` = 128 time buckets, each
//! `1 << SHIFT` = 2 048 ns wide, covering a ≈262 µs window that starts at
//! the bucket of the last popped event, with a binary-heap overflow for
//! events beyond the window. Near-term events cost O(1) amortized
//! push/pop; far-future events degrade gracefully to heap behavior and
//! migrate into the ring as the window advances.
//!
//! The shape is fixed, without Brown's resize step. A ring that grew when
//! buckets filled and widened when events piled up in the overflow never
//! shrank back, and the arena carried the grown ring into every later run
//! on the thread, where it cost more time and memory than the in-bucket
//! shifting it saved. The structure only changes *when* work is done,
//! never *what order* events come out in: pops always return the global
//! `(time, seq)` minimum, so `TraceDigest` is bit-identical to a plain
//! `BinaryHeap` (pinned by the model-based property test in
//! `tests/queue_model.rs`).

use crate::kernel::{Message, ProcessId};
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// A scheduled delivery of a [`Message`] to a process at a virtual instant.
///
/// 16-byte aligned so the whole-event moves through the queue's register
/// compile to aligned vector copies (events travel by value on the hot
/// path).
#[repr(align(16))]
pub struct Event {
    /// Delivery time.
    pub time: SimTime,
    /// Caller-supplied ordering key; the deterministic tie-breaker.
    pub seq: u64,
    /// Destination process.
    pub target: ProcessId,
    /// Opaque payload, downcast by the receiving process.
    pub msg: Message,
}

impl Event {
    /// The `(time, seq)` ordering key.
    #[inline]
    pub fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

// BinaryHeap is a max-heap; invert the comparison so the overflow heap
// yields the earliest event.
impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// Bucket width: `1 << 11` ns ≈ 2 µs, matching per-frame service times on
/// the simulated gigabit paths.
const SHIFT: u32 = 11;
/// Ring size: a window of `BUCKETS << SHIFT` ns ≈ 262 µs.
const BUCKETS: usize = 128;
/// Ring slot of absolute bucket `b`: `b & MASK`.
const MASK: u64 = BUCKETS as u64 - 1;

/// Sentinel location meaning "overflow heap" rather than a ring slot.
const OVERFLOW: usize = usize::MAX;

/// Priority queue of pending events, earliest first, FIFO among equal times.
pub struct EventQueue {
    /// The global minimum, held out of the calendar in a register. The
    /// kernel's dominant pattern — handle one event, schedule the next —
    /// then costs two register moves and never touches a bucket.
    /// Invariant: `None` only when the whole queue is empty (pops refill
    /// it eagerly); everything in the calendar is `>` this event.
    next: Option<Event>,
    /// Ring of time buckets; each holds the events of exactly one absolute
    /// bucket index, sorted ascending by `(time, seq)`.
    buckets: Vec<VecDeque<Event>>,
    /// Events currently in the ring (the rest are in `overflow`).
    ring_len: usize,
    /// Events beyond the ring's window, earliest on top.
    overflow: BinaryHeap<Event>,
    /// Largest time popped so far; the window floor.
    last_time: SimTime,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            buckets: (0..BUCKETS).map(|_| VecDeque::new()).collect(),
            ..Self::hollow()
        }
    }

    /// A bucketless shell left behind when a queue is moved into the
    /// arena during `Sim` teardown. Still a correct queue (everything
    /// would take the overflow heap), just never used.
    pub(crate) fn hollow() -> Self {
        EventQueue {
            next: None,
            buckets: Vec::new(),
            ring_len: 0,
            overflow: BinaryHeap::new(),
            last_time: SimTime::ZERO,
        }
    }

    #[inline]
    fn bucket_of(t: SimTime) -> u64 {
        t.as_nanos() >> SHIFT
    }

    /// The window floor: the bucket of the last popped event.
    #[inline]
    fn cur_bucket(&self) -> u64 {
        Self::bucket_of(self.last_time)
    }

    /// Insert a delivery of `msg` to `target` at `time`, tie-broken by
    /// `seq`. The caller guarantees `(time, seq)` is unique among pending
    /// events (the kernel's per-source keys are never reused).
    #[inline]
    pub fn push(&mut self, time: SimTime, seq: u64, target: ProcessId, msg: Message) {
        // Decide placement from the key alone so the fast path constructs
        // the event directly in the register, with no intermediate move.
        match &self.next {
            None => {
                debug_assert!(self.ring_len == 0 && self.overflow.is_empty());
                self.next = Some(Event {
                    time,
                    seq,
                    target,
                    msg,
                });
            }
            Some(n) if (time, seq) < n.key() => {
                let old = self
                    .next
                    .replace(Event {
                        time,
                        seq,
                        target,
                        msg,
                    })
                    .expect("register full");
                self.place(old);
            }
            Some(_) => self.place(Event {
                time,
                seq,
                target,
                msg,
            }),
        }
    }

    /// Put `ev` in its ring slot (sorted) or the overflow heap.
    fn place(&mut self, ev: Event) {
        let cur = self.cur_bucket();
        // Defensive: an event scheduled before the last popped time (the
        // kernel never does this) is treated as due now; sorted insertion
        // by key still pops it first.
        let b = Self::bucket_of(ev.time).max(cur);
        if b - cur >= self.buckets.len() as u64 {
            self.overflow.push(ev);
            return;
        }
        let slot = (b & MASK) as usize;
        let q = &mut self.buckets[slot];
        if q.back().map_or(true, |last| last.key() < ev.key()) {
            q.push_back(ev);
        } else {
            // Out-of-order arrival within the bucket: binary search for
            // the insertion point (keys are unique by the push contract).
            let (mut lo, mut hi) = (0, q.len());
            while lo < hi {
                let mid = (lo + hi) / 2;
                if q[mid].key() < ev.key() {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            q.insert(lo, ev);
        }
        self.ring_len += 1;
    }

    /// Locate the calendar's `(time, seq)` minimum (ring slot index, or
    /// [`OVERFLOW`]) without removing it.
    fn min_loc(&self) -> Option<usize> {
        let mut best: Option<(SimTime, u64, usize)> = None;
        if self.ring_len > 0 {
            let cur = self.cur_bucket();
            // Every ring event lives in a bucket within `nbuckets` of the
            // floor, and each slot holds one absolute bucket, so the first
            // non-empty slot in window order holds the earliest bucket.
            for i in 0..self.buckets.len() as u64 {
                let slot = ((cur + i) & MASK) as usize;
                if let Some(e) = self.buckets[slot].front() {
                    best = Some((e.time, e.seq, slot));
                    break;
                }
            }
            debug_assert!(best.is_some(), "ring_len > 0 but window scan found nothing");
        }
        if let Some(o) = self.overflow.peek() {
            let better = match best {
                Some((t, s, _)) => (o.time, o.seq) < (t, s),
                None => true,
            };
            if better {
                best = Some((o.time, o.seq, OVERFLOW));
            }
        }
        best.map(|(_, _, loc)| loc)
    }

    /// Remove and return the earliest event, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<Event> {
        let ev = self.next.take()?;
        if ev.time > self.last_time {
            self.last_time = ev.time;
        }
        if self.ring_len != 0 || !self.overflow.is_empty() {
            self.refill();
        }
        Some(ev)
    }

    /// [`pop`](Self::pop), destructured. Splitting the event apart *before*
    /// the refill keeps `time`/`target` in registers and moves only the
    /// payload word-block; returning the whole `Event` forces the optimizer
    /// to shuttle all 64 bytes through the stack around the refill call.
    #[inline]
    pub fn pop_parts(&mut self) -> Option<(SimTime, ProcessId, Message)> {
        let Event {
            time, target, msg, ..
        } = self.next.take()?;
        if time > self.last_time {
            self.last_time = time;
        }
        if self.ring_len != 0 || !self.overflow.is_empty() {
            self.refill();
        }
        Some((time, target, msg))
    }

    /// Move the calendar's minimum into the `next` register. Caller
    /// guarantees the calendar is non-empty.
    fn refill(&mut self) {
        self.migrate();
        let loc = self.min_loc().expect("calendar non-empty");
        let ev = if loc == OVERFLOW {
            self.overflow.pop().expect("overflow minimum exists")
        } else {
            self.ring_len -= 1;
            self.buckets[loc].pop_front().expect("ring minimum exists")
        };
        self.next = Some(ev);
    }

    /// Pull overflow events whose bucket has entered the window into the
    /// ring, so a drained ring never pins popping at heap speed.
    fn migrate(&mut self) {
        let n = self.buckets.len() as u64;
        let cur = self.cur_bucket();
        while self
            .overflow
            .peek()
            .is_some_and(|top| Self::bucket_of(top.time) - cur < n)
        {
            let ev = self.overflow.pop().expect("peeked overflow event exists");
            self.place(ev);
        }
    }

    /// The time of the earliest pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.next.as_ref().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.ring_len + self.overflow.len() + usize::from(self.next.is_some())
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Empty the queue for reuse, keeping the bucket and overflow
    /// allocations.
    pub fn recycle(&mut self) {
        self.next = None;
        for q in &mut self.buckets {
            q.clear();
        }
        self.overflow.clear();
        self.ring_len = 0;
        self.last_time = SimTime::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), 0, ProcessId(0), Message::new(3u32));
        q.push(t(10), 1, ProcessId(0), Message::new(1u32));
        q.push(t(20), 2, ProcessId(0), Message::new(2u32));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| e.msg.downcast::<u32>().unwrap())
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.push(t(5), i as u64, ProcessId(0), Message::new(i));
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| e.msg.downcast::<u32>().unwrap())
            .collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(t(42), 0, ProcessId(1), Message::new(()));
        assert_eq!(q.peek_time(), Some(t(42)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(t(10), 0, ProcessId(0), Message::new(1u32));
        q.push(t(30), 1, ProcessId(0), Message::new(4u32));
        let e = q.pop().unwrap();
        assert_eq!(e.msg.downcast::<u32>().unwrap(), 1);
        q.push(t(20), 2, ProcessId(0), Message::new(2u32));
        q.push(t(20), 3, ProcessId(0), Message::new(3u32));
        let got: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| e.msg.downcast::<u32>().unwrap())
            .collect();
        assert_eq!(got, vec![2, 3, 4]);
    }

    /// Events far beyond the ring window take the overflow path and still
    /// come out in global order as the window advances over them.
    #[test]
    fn far_future_events_order_with_near_ones() {
        let mut q = EventQueue::new();
        let horizon = (BUCKETS as u64) << SHIFT;
        q.push(t(10 * horizon), 0, ProcessId(0), Message::new(4u32));
        q.push(t(3), 1, ProcessId(0), Message::new(1u32));
        q.push(t(2 * horizon), 2, ProcessId(0), Message::new(3u32));
        q.push(t(7), 3, ProcessId(0), Message::new(2u32));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| e.msg.downcast::<u32>().unwrap())
            .collect();
        assert_eq!(order, vec![1, 2, 3, 4]);
    }

    /// Equal-time events split across the overflow boundary (some pushed
    /// while the time was far, some near) stay FIFO by sequence.
    #[test]
    fn fifo_survives_overflow_migration() {
        let mut q = EventQueue::new();
        let far = (BUCKETS as u64) << (SHIFT + 1);
        q.push(t(far), 0, ProcessId(0), Message::new(0u32)); // overflow
        q.push(t(1), 1, ProcessId(1), Message::new(99u32));
        assert_eq!(q.pop().unwrap().msg.downcast::<u32>().unwrap(), 99);
        // Window has advanced only to bucket of t=1; push more at `far`.
        q.push(t(far), 2, ProcessId(0), Message::new(1u32));
        q.push(t(far), 3, ProcessId(0), Message::new(2u32));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| e.msg.downcast::<u32>().unwrap())
            .collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    /// A pending set far above the ring's capacity: 16 windows' worth of
    /// events, two per bucket, pushed latest first. Everything past the
    /// first window rides the overflow heap and reaches the ring through
    /// `migrate` as popping advances the window. In each ring bucket the
    /// second push lands before the first (sorted insertion).
    #[test]
    fn deep_pending_set_pops_in_order() {
        let mut q = EventQueue::new();
        let n = (BUCKETS * 32) as u64;
        let step = 1u64 << (SHIFT - 1);
        for i in 0..n {
            q.push(t((n - i) * step), i, ProcessId(0), Message::new(n - i));
        }
        assert!(
            q.overflow.len() > q.ring_len,
            "most events start in overflow"
        );
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.msg.downcast::<u64>().unwrap())
            .collect();
        let want: Vec<u64> = (1..=n).collect();
        assert_eq!(order, want);
    }

    #[test]
    fn recycle_resets_but_keeps_working() {
        let mut q = EventQueue::new();
        q.push(t(5), 0, ProcessId(0), Message::new(1u32));
        q.push(t(900_000_000), 1, ProcessId(0), Message::new(2u32));
        q.pop();
        q.recycle();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(t(4), 0, ProcessId(0), Message::new(7u32));
        assert_eq!(q.peek_time(), Some(t(4)));
        assert_eq!(q.pop().unwrap().msg.downcast::<u32>().unwrap(), 7);
    }
}
