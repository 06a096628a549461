//! The benchmark's own tracing: wall-clock spans around each layer call,
//! a counting probe for the simulator's probe bus, and the per-layer
//! counters a traced run folds together.
//!
//! Spans are kept in memory and written once, when the benchmark ends.
//! The counting probe keeps a handful of integers and nothing else: a
//! single data-repartitioning run emits millions of probe events.

use hpsock_sim::{Probe, ProbeEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Span names, in the order they nest inside one job.
pub const SPAN_NAMES: [&str; 8] = [
    "job",
    "plan",
    "setup.cluster",
    "setup.driver",
    "setup.pipeline",
    "setup.queries",
    "sim.run",
    "readout",
];

/// One closed span: `[start_ns, end_ns)` on the benchmark's wall clock.
#[derive(Debug, Clone)]
pub struct Span {
    /// One of [`SPAN_NAMES`].
    pub name: &'static str,
    /// Job sequence number (unique across repetitions of one process).
    pub job: u32,
    /// Index of the enclosing span in the tracer's list, if any.
    pub parent: Option<usize>,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

/// Records spans when enabled; costs one branch per call when disabled.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    job: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing until [`Tracer::set_enabled`].
    pub fn new() -> Tracer {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            job: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turn span recording on or off for the following jobs.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Tag the spans that follow with job sequence number `job`.
    pub fn set_job(&mut self, job: u32) {
        self.job = job;
        // A panicking job leaves its spans open; they stay unterminated
        // (end == start) rather than parenting the next job's spans.
        self.open.clear();
    }

    /// Open a span called `name`; `None` when recording is off.
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start = self.epoch.elapsed().as_nanos() as u64;
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            job: self.job,
            parent: self.open.last().copied(),
            start_ns: start,
            end_ns: start,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Close the span [`Tracer::open`] returned.
    pub fn close(&mut self, idx: Option<usize>) {
        if let Some(idx) = idx {
            self.open.pop();
            self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Run `f` inside a span called `name`.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = self.open(name);
        let out = f();
        self.close(idx);
        out
    }

    /// Number of spans recorded so far (a cursor for [`Tracer::self_ns_since`]).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name over the spans recorded since `cursor`:
    /// each span's duration minus the time its direct children cover.
    pub fn self_ns_since(&self, cursor: usize) -> BTreeMap<&'static str, u64> {
        let mut out: BTreeMap<&'static str, u64> = SPAN_NAMES.iter().map(|&n| (n, 0)).collect();
        let spans = &self.spans[cursor..];
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                if p >= cursor {
                    child_ns[p - cursor] += s.end_ns - s.start_ns;
                }
            }
        }
        for (s, child) in spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(child);
        }
        out
    }

    /// Total duration of the spans called `name` recorded since `cursor`.
    pub fn total_ns_since(&self, cursor: usize, name: &str) -> u64 {
        self.spans[cursor..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Every span as a JSON array (one object per line).
    pub fn to_json(&self) -> String {
        let mut s = String::from("[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "  {{\"id\": {i}, \"name\": \"{}\", \"job\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}{}",
                sp.name,
                sp.job,
                sp.start_ns,
                sp.end_ns,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        s.push(']');
        s
    }
}

/// Per-layer counters of one repetition, summed over its jobs. Filled
/// only on the traced run's counting repetition.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Application messages submitted (`ConnStats::msgs_sent`).
    pub net_msgs: u64,
    /// Wire frames submitted (`ConnStats::frames_tx`).
    pub net_frames_tx: u64,
    /// Per-frame receive completions (`ConnStats::rx_interrupts`).
    pub net_rx_interrupts: u64,
    /// Simulated time senders sat blocked on credits, ns.
    pub net_credit_stall_ns: u64,
    /// Frames dropped by the fault layer (probe counter).
    pub fault_dropped: u64,
    /// Messages reported lost to the sender (probe counter).
    pub fault_lost: u64,
    /// DataCutter acknowledgements received (probe counter).
    pub dc_acks: u64,
    /// Buffers processed by every filter copy (`FilterStats::buffers_in`).
    pub dc_buffers: u64,
    /// Lost messages re-sent (`FilterStats::retries`).
    pub dc_retries: u64,
    /// Consumer copies failed over (`FilterStats::consumers_failed`).
    pub dc_failovers: u64,
    /// Stale deliveries discarded (`FilterStats::stale_deliveries`).
    pub dc_stale: u64,
    /// Distinct blocks processed, on jobs that track block tags.
    pub tracked_distinct: u64,
    /// Buffers processed by the workers of those same jobs.
    pub tracked_buffers: u64,
    /// Completed flows under the flow model (`RunReport::flows`).
    pub flows: u64,
    /// Sharded protocol rounds (`RunReport::rounds`).
    pub shard_rounds: u64,
    /// Per-job median of dispatched events per (round, worker).
    pub shard_round_p50: Vec<f64>,
    /// Barrier-wait wall ns summed over workers.
    pub shard_barrier_ns: u64,
    /// Worker wall ns (wall time × shards), the barrier fraction's base.
    pub shard_worker_ns: u64,
    /// Queries completed by vizserver drivers.
    pub viz_queries: u64,
    /// Sum and count of partial-update latencies, simulated µs.
    pub viz_partial: (f64, u64),
    /// Sum and count of complete-update latencies, simulated µs.
    pub viz_complete: (f64, u64),
}

/// Counters the probe bus reports by name.
#[derive(Debug, Default)]
struct ProbeTally {
    acks: u64,
    dropped: u64,
    lost: u64,
}

/// A [`Probe`] that counts the probe-bus counters the layer metrics need
/// and buffers nothing. Its tally reaches the shared handle when the
/// simulator drops it.
pub struct CountProbe {
    tally: ProbeTally,
    sink: Arc<Mutex<Counts>>,
}

impl CountProbe {
    /// A probe folding into `sink` when dropped.
    pub fn boxed(sink: Arc<Mutex<Counts>>) -> Box<dyn Probe> {
        Box::new(CountProbe {
            tally: ProbeTally::default(),
            sink,
        })
    }
}

impl Probe for CountProbe {
    fn record(&mut self, ev: ProbeEvent) {
        if let ProbeEvent::Counter { name, delta, .. } = ev {
            let n = delta as u64;
            match name.as_str() {
                "dc.acks" => self.tally.acks += n,
                "net.fault.dropped" => self.tally.dropped += n,
                "net.fault.lost" => self.tally.lost += n,
                _ => {}
            }
        }
    }
}

impl Drop for CountProbe {
    fn drop(&mut self) {
        // Never panic in drop: a poisoned lock only loses these counts.
        if let Ok(mut c) = self.sink.lock() {
            c.dc_acks += self.tally.acks;
            c.fault_dropped += self.tally.dropped;
            c.fault_lost += self.tally.lost;
        }
    }
}
