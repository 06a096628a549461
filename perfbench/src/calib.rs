//! Host-speed calibration.
//!
//! The reference host is a shared 2-vCPU machine whose speed drifts by
//! 15–30 % from minute to minute as other tenants come and go, in user
//! CPU time as much as in wall time, so medians over one run cannot
//! remove it. A fixed loop of the benchmark's own runs before every job
//! and after the last, and each job's host times are scaled by how much
//! slower the two chunks around it ran than on the quiet reference host.
//!
//! The loop is an event-queue workload like the simulator's: a binary
//! heap of pending events plus scattered table updates. Before each
//! chunk an untimed pass over a buffer larger than L2 evicts the loop's
//! state, so the timed part refills it from the shared L3 and feels the
//! same cache and memory contention as the jobs. Of four variants tried
//! on the reference host (warm, evicted, freshly allocated, L3-sized
//! table), this one cut the spread of median repetition time across runs
//! the most: from 20–30 % to 4–6 % on `rack_flow`, `viz_guarantee` and
//! `lb_faults`. The loop never calls the simulator, so a change to the
//! program moves only the job times.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Pending events in the loop's heap.
const EVENTS: usize = 4096;
/// Table the loop scatters into (256 KiB).
const TABLE: usize = 1 << 15;
/// Heap pops per chunk.
const POPS: usize = 8192;
/// Eviction buffer (8 MiB, four times one core's L2).
const EVICT: usize = 1 << 20;
/// Host ns one chunk takes on the reference host when other tenants
/// are quiet (its chunks took 1.1–1.5 ms).
pub const REFERENCE_CHUNK_NS: f64 = 1.2e6;

/// Calibration state, allocated once so that a chunk never allocates.
pub struct Calibrator {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    table: Vec<u64>,
    evict: Vec<u64>,
    x: u64,
}

impl Calibrator {
    /// A calibrator with its buffers allocated.
    pub fn new() -> Calibrator {
        Calibrator {
            heap: BinaryHeap::with_capacity(EVENTS),
            table: vec![0; TABLE],
            evict: vec![1; EVICT],
            x: 0x2545_F491_4F6C_DD1D,
        }
    }

    fn next(&mut self) -> u64 {
        self.x ^= self.x << 13;
        self.x ^= self.x >> 7;
        self.x ^= self.x << 17;
        self.x
    }

    /// Run one chunk of the loop; returns the host ns of its timed part.
    pub fn chunk(&mut self) -> u64 {
        for (i, v) in self.evict.iter_mut().enumerate() {
            *v = v.wrapping_add(i as u64);
        }
        std::hint::black_box(&self.evict);
        let t = Instant::now();
        self.heap.clear();
        for i in 0..EVENTS as u32 {
            let at = self.next() & 0xFFFF;
            self.heap.push(Reverse((at, i)));
        }
        for _ in 0..POPS {
            let Reverse((at, id)) = self.heap.pop().expect("the heap stays full");
            let r = self.next();
            self.table[r as usize % TABLE] += at;
            self.heap.push(Reverse((at + (r & 1023), id)));
        }
        std::hint::black_box(&self.table);
        t.elapsed().as_nanos() as u64
    }
}
