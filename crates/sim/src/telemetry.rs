//! Wall-clock self-profiling for the simulation kernel (`HPSOCK_TELEMETRY`).
//!
//! The probe bus ([`crate::probe`]) observes *simulated* time; this module
//! observes the *wall clock* of the engine itself, answering questions the
//! probe bus cannot — how much of a sharded run is barrier wait, how wide
//! the conservative safe windows really are, how many events cross shards
//! — without perturbing results: wall-clock counters are accumulated in
//! per-worker buffers (no shared-state writes on the dispatch hot path),
//! never feed the [`crate::trace::TraceDigest`], and are flushed to disk
//! only after the run's threads have joined.
//!
//! ## Activation
//!
//! Set `HPSOCK_TELEMETRY=<dir>` (strictly parsed: an empty value is an
//! error naming the variable, and the directory is created on demand like
//! `HPSOCK_TRACE`'s), or scope it in-process with [`with_telemetry_dir`]
//! (the [`TELEMETRY`] knob; see [`crate::knob`]).
//!
//! ## Outputs (written under the configured directory)
//!
//! * `run_report.json` — machine-readable summary of the **last completed
//!   run** (each kernel run overwrites it; a figure sweep therefore leaves
//!   the report of its final simulation): mode, wall time, events/sec,
//!   per-shard utilization, and log-spaced-histogram quantile summaries
//!   ([`Histogram::summarize`]) of safe-window widths and per-round event
//!   counts. A worker whose shard no cross-shard link reaches has an
//!   unbounded window; those are counted in `unbounded_windows` and left
//!   out of the width summary. Written for sequential and sharded runs
//!   alike.
//! * `shard_rounds.csv` — one row per (round, worker) of a sharded run:
//!   safe-window width (empty when unbounded), events dispatched,
//!   cross-shard messages routed/received, barrier-wait nanoseconds, busy
//!   nanoseconds and the idle fraction.
//! * `shard_lanes.json` — per-worker Chrome-trace lanes (one `shard N`
//!   track each, reusing [`StreamingTraceWriter`]) with barrier / merge /
//!   drain / dispatch spans on the wall-clock timeline; load it in
//!   Perfetto to *see* where a slow sharded run spends its time.
//!
//! Telemetry output never lands in `HPSOCK_RESULTS` or `HPSOCK_TRACE`
//! directories, so result trees stay byte-comparable across telemetry
//! settings.

use crate::knob::{self, Knob};
use crate::probe::{ProbeEvent, StreamingTraceWriter};
use crate::stats::Histogram;
use crate::time::SimTime;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// `HPSOCK_TELEMETRY`: the telemetry output directory (default: none,
/// telemetry off).
pub static TELEMETRY: Knob<Option<PathBuf>> = Knob::new(
    "HPSOCK_TELEMETRY",
    |raw| knob::parse_dir("HPSOCK_TELEMETRY", "unset it to disable telemetry", raw).map(Some),
    || None,
);

/// Run `f` with [`configured_telemetry`] returning `dir` on this thread
/// (`None` forces telemetry off; see [`Knob::with`]).
pub fn with_telemetry_dir<T>(dir: Option<&Path>, f: impl FnOnce() -> T) -> T {
    TELEMETRY.with(dir.map(Path::to_path_buf), f)
}

/// The telemetry directory: a [`with_telemetry_dir`] scope, else
/// `HPSOCK_TELEMETRY`, else none (telemetry off).
pub fn configured_telemetry() -> Option<PathBuf> {
    TELEMETRY.get()
}

/// One worker's wall-clock measurements for one protocol round. All
/// `*_ns` durations are wall-clock; `start_ns` is the offset from the
/// run's start.
#[derive(Debug, Clone, Default)]
pub struct RoundSample {
    /// Wall-clock offset of the round's start since the run began.
    pub start_ns: u64,
    /// Width of the safe window actually dispatched (`w_end − min_next`),
    /// in *simulated* nanoseconds — the one virtual-time column here,
    /// kept because tiny windows are the usual reason sharding loses.
    /// `None` when the window is unbounded: no chain of cross-shard links
    /// leads into this worker's shard, so it dispatched everything it had.
    pub window_ns: Option<u64>,
    /// Events this worker dispatched this round.
    pub events: u64,
    /// Cross-shard messages this worker routed into peer mailboxes.
    pub sent: u64,
    /// Cross-shard messages this worker folded in from its mailbox.
    pub recv: u64,
    /// Window computation + pair-slot drain wall time.
    pub drain_ns: u64,
    /// Wall time blocked on the round barrier (the protocol's only one).
    pub b1_wait_ns: u64,
    /// Dispatch-loop wall time, including the publish/flush/deposit tail.
    pub dispatch_ns: u64,
    /// Deferred digest/probe cutoff-merge wall time (worker 0; 0 elsewhere).
    pub merge_ns: u64,
}

impl RoundSample {
    /// Wall time spent doing useful work this round.
    pub fn busy_ns(&self) -> u64 {
        self.drain_ns + self.dispatch_ns + self.merge_ns
    }

    /// Wall time spent blocked on the round barrier this round.
    pub fn barrier_wait_ns(&self) -> u64 {
        self.b1_wait_ns
    }

    /// Fraction of the round's accounted wall time spent waiting.
    pub fn idle_frac(&self) -> f64 {
        let busy = self.busy_ns();
        let wait = self.barrier_wait_ns();
        if busy + wait == 0 {
            0.0
        } else {
            wait as f64 / (busy + wait) as f64
        }
    }
}

/// Per-worker telemetry buffer: filled by the worker thread alone during
/// the run (no shared-state writes on the hot path), flushed by
/// `run_sharded` after the threads have joined.
#[derive(Debug)]
pub struct WorkerTelemetry {
    /// The worker's shard index.
    pub worker: usize,
    /// The run's start instant; all `start_ns` offsets are relative to it.
    pub epoch: Instant,
    /// One sample per dispatched round, in round order.
    pub rounds: Vec<RoundSample>,
}

impl WorkerTelemetry {
    /// An empty buffer for shard `worker` of a run that started at `epoch`.
    pub fn new(worker: usize, epoch: Instant) -> Self {
        WorkerTelemetry {
            worker,
            epoch,
            rounds: Vec::new(),
        }
    }
}

/// Per-round stopwatch used by the sharded worker loop: `start` at the
/// top of the round, then one checkpoint call per protocol step; `finish`
/// yields the completed [`RoundSample`].
pub(crate) struct RoundClock {
    last: Instant,
    sample: RoundSample,
}

impl RoundClock {
    pub(crate) fn start(epoch: Instant) -> Self {
        let now = Instant::now();
        RoundClock {
            last: now,
            sample: RoundSample {
                start_ns: now.duration_since(epoch).as_nanos() as u64,
                ..RoundSample::default()
            },
        }
    }

    fn lap(&mut self) -> u64 {
        let now = Instant::now();
        let d = now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
        d
    }

    /// The round barrier released.
    pub(crate) fn barrier(&mut self) {
        self.sample.b1_wait_ns = self.lap();
    }

    /// The (worker-0) deferred cutoff merge finished; 0-lap elsewhere.
    pub(crate) fn merged(&mut self) {
        self.sample.merge_ns = self.lap();
    }

    /// Window computed and pair slots drained into the local queue.
    pub(crate) fn drained(&mut self) {
        self.sample.drain_ns = self.lap();
    }

    /// The dispatch loop finished.
    pub(crate) fn dispatched(&mut self) {
        self.sample.dispatch_ns = self.lap();
    }

    pub(crate) fn finish(
        mut self,
        window_ns: Option<u64>,
        events: u64,
        sent: u64,
        recv: u64,
    ) -> RoundSample {
        // Publish/flush/deposit tail, folded into the dispatch span.
        self.sample.dispatch_ns += self.lap();
        self.sample.window_ns = window_ns;
        self.sample.events = events;
        self.sample.sent = sent;
        self.sample.recv = recv;
        self.sample
    }
}

/// Quantile summary of one value series, via [`Histogram::summarize`].
#[derive(Debug, Clone, Default)]
pub struct TailSummary {
    /// Exact smallest observation.
    pub min: f64,
    /// Approximate median (sub-bin error, see [`Histogram::quantile`]).
    pub p50: f64,
    /// Approximate 99th percentile.
    pub p99: f64,
    /// Approximate 99.9th percentile.
    pub p999: f64,
    /// Exact largest observation.
    pub max: f64,
    /// Number of observations.
    pub n: u64,
}

impl TailSummary {
    /// Summarize `values` (all zeros if empty).
    pub fn of(values: &[f64]) -> TailSummary {
        let h = Histogram::summarize(values);
        TailSummary {
            min: h.min(),
            p50: h.quantile(0.5),
            p99: h.quantile(0.99),
            p999: h.quantile(0.999),
            max: h.max(),
            n: h.total(),
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"min\": {}, \"p50\": {}, \"p99\": {}, \"p999\": {}, \"max\": {}, \"n\": {}}}",
            json_f64(self.min),
            json_f64(self.p50),
            json_f64(self.p99),
            json_f64(self.p999),
            json_f64(self.max),
            self.n
        )
    }
}

/// One worker's run totals in a [`RunReport`].
#[derive(Debug, Clone)]
pub struct WorkerSummary {
    /// Shard index.
    pub worker: usize,
    /// Rounds this worker completed.
    pub rounds: u64,
    /// Events this worker dispatched.
    pub events: u64,
    /// Cross-shard messages routed out / folded in.
    pub sent: u64,
    /// Cross-shard messages received.
    pub recv: u64,
    /// Total busy wall time (drain + dispatch + merge).
    pub busy_ns: u64,
    /// Total barrier-wait wall time.
    pub barrier_wait_ns: u64,
    /// `busy_ns / wall_ns` — the shard's utilization over the run.
    pub utilization: f64,
}

/// The machine-readable run summary written to `run_report.json` and kept
/// in memory for [`last_report`].
#[derive(Debug, Clone)]
pub struct RunReport {
    /// `"sequential"` or `"sharded"`.
    pub mode: &'static str,
    /// Worker-thread count (1 for sequential runs).
    pub shards: usize,
    /// Total wall time of the run, nanoseconds.
    pub wall_ns: u64,
    /// Events dispatched during the run.
    pub events: u64,
    /// `events / wall seconds`.
    pub events_per_sec: f64,
    /// Completed network flows under the flow-level model (0 under the
    /// packet model, where the unit of work is the event, not the flow).
    pub flows: u64,
    /// `flows / wall seconds` — the like-for-like rate to compare against
    /// a packet run's events/sec when judging the fluid fast path.
    pub flows_per_sec: f64,
    /// Protocol rounds (0 for sequential runs).
    pub rounds: u64,
    /// Per-shard totals (one entry, the whole run, for sequential runs).
    pub workers: Vec<WorkerSummary>,
    /// Distribution of per-round bounded safe-window widths (simulated ns).
    pub window_ns: TailSummary,
    /// Per-(round, worker) windows that were unbounded, left out of
    /// `window_ns`.
    pub unbounded_windows: u64,
    /// Distribution of per-(round, worker) dispatched-event counts.
    pub round_events: TailSummary,
}

/// The last run's report, plus the file-write lock: concurrent sims (e.g.
/// a parameter sweep) serialize their flushes here, and the stored report
/// — like the files — reflects whichever run completed last.
static LAST_REPORT: Mutex<Option<RunReport>> = Mutex::new(None);

/// The [`RunReport`] of the most recently flushed run, if any run has
/// flushed telemetry in this process. This is the in-memory twin of
/// `run_report.json` — benches use it to print wall-clock events/sec
/// without re-parsing the file.
pub fn last_report() -> Option<RunReport> {
    LAST_REPORT
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

/// Render a finite f64 for JSON (guards against `inf`/`NaN`, which are
/// not valid JSON tokens; they can only arise from a zero-wall-time run).
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn write_file(dir: &Path, name: &str, contents: &str) {
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap_or_else(|e| {
        panic!(
            "HPSOCK_TELEMETRY={}: cannot write {}: {e}",
            dir.display(),
            path.display()
        )
    });
}

fn report_json(rep: &RunReport) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"mode\": \"{}\",\n", rep.mode));
    s.push_str(&format!("  \"shards\": {},\n", rep.shards));
    s.push_str(&format!("  \"wall_ns\": {},\n", rep.wall_ns));
    s.push_str(&format!("  \"events\": {},\n", rep.events));
    s.push_str(&format!(
        "  \"events_per_sec\": {},\n",
        json_f64(rep.events_per_sec)
    ));
    s.push_str(&format!("  \"flows\": {},\n", rep.flows));
    s.push_str(&format!(
        "  \"flows_per_sec\": {},\n",
        json_f64(rep.flows_per_sec)
    ));
    s.push_str(&format!("  \"rounds\": {},\n", rep.rounds));
    s.push_str("  \"workers\": [\n");
    for (i, w) in rep.workers.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"worker\": {}, \"rounds\": {}, \"events\": {}, \"sent\": {}, \
             \"recv\": {}, \"busy_ns\": {}, \"barrier_wait_ns\": {}, \"utilization\": {}}}{}\n",
            w.worker,
            w.rounds,
            w.events,
            w.sent,
            w.recv,
            w.busy_ns,
            w.barrier_wait_ns,
            json_f64(w.utilization),
            if i + 1 == rep.workers.len() { "" } else { "," }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"unbounded_windows\": {},\n",
        rep.unbounded_windows
    ));
    s.push_str(&format!("  \"window_ns\": {},\n", rep.window_ns.to_json()));
    s.push_str(&format!(
        "  \"round_events\": {}\n",
        rep.round_events.to_json()
    ));
    s.push_str("}\n");
    s
}

/// Flush a sequential run's telemetry: `run_report.json` only (there are
/// no rounds, mailboxes or barriers to itemize). The single worker entry
/// covers the whole run.
pub(crate) fn flush_sequential(dir: &Path, wall_ns: u64, events: u64, flows: u64) {
    let rep = RunReport {
        mode: "sequential",
        shards: 1,
        wall_ns,
        events,
        events_per_sec: rate(events, wall_ns),
        flows,
        flows_per_sec: rate(flows, wall_ns),
        rounds: 0,
        workers: vec![WorkerSummary {
            worker: 0,
            rounds: 0,
            events,
            sent: 0,
            recv: 0,
            busy_ns: wall_ns,
            barrier_wait_ns: 0,
            utilization: 1.0,
        }],
        window_ns: TailSummary::default(),
        unbounded_windows: 0,
        round_events: TailSummary::default(),
    };
    let mut last = LAST_REPORT.lock().unwrap_or_else(PoisonError::into_inner);
    knob::ensure_dir(TELEMETRY.name, "telemetry", dir).unwrap_or_else(|e| panic!("{e}"));
    write_file(dir, "run_report.json", &report_json(&rep));
    *last = Some(rep);
}

/// Flush a sharded run's telemetry: `shard_rounds.csv`, the
/// `shard_lanes.json` Chrome trace and `run_report.json`. `events` is the
/// number of events dispatched by this run (the sum of the CSV's `events`
/// column — pinned by tests) and `flows` the flows its workers completed.
pub(crate) fn flush_sharded(
    dir: &Path,
    wall_ns: u64,
    events: u64,
    flows: u64,
    workers: &[WorkerTelemetry],
) {
    let rounds = workers.iter().map(|w| w.rounds.len()).max().unwrap_or(0);

    let mut csv =
        String::from("round,worker,window_ns,events,sent,recv,barrier_wait_ns,busy_ns,idle_frac\n");
    for r in 0..rounds {
        for w in workers {
            let Some(s) = w.rounds.get(r) else { continue };
            // An unbounded window leaves its cell empty.
            let window = s.window_ns.map_or(String::new(), |ns| ns.to_string());
            csv.push_str(&format!(
                "{},{},{},{},{},{},{},{},{:.6}\n",
                r,
                w.worker,
                window,
                s.events,
                s.sent,
                s.recv,
                s.barrier_wait_ns(),
                s.busy_ns(),
                s.idle_frac()
            ));
        }
    }

    let summaries: Vec<WorkerSummary> = workers
        .iter()
        .map(|w| {
            let busy: u64 = w.rounds.iter().map(RoundSample::busy_ns).sum();
            WorkerSummary {
                worker: w.worker,
                rounds: w.rounds.len() as u64,
                events: w.rounds.iter().map(|s| s.events).sum(),
                sent: w.rounds.iter().map(|s| s.sent).sum(),
                recv: w.rounds.iter().map(|s| s.recv).sum(),
                busy_ns: busy,
                barrier_wait_ns: w.rounds.iter().map(RoundSample::barrier_wait_ns).sum(),
                utilization: if wall_ns == 0 {
                    0.0
                } else {
                    busy as f64 / wall_ns as f64
                },
            }
        })
        .collect();
    // Windows are ragged per destination shard, so every worker's view is
    // a distinct observation; unbounded ones are only counted.
    let windows = || {
        workers
            .iter()
            .flat_map(|w| w.rounds.iter().map(|s| s.window_ns))
    };
    let window_vals: Vec<f64> = windows().flatten().map(|ns| ns as f64).collect();
    let unbounded_windows = windows().filter(Option::is_none).count() as u64;
    let round_event_vals: Vec<f64> = workers
        .iter()
        .flat_map(|w| w.rounds.iter().map(|s| s.events as f64))
        .collect();
    let rep = RunReport {
        mode: "sharded",
        shards: workers.len(),
        wall_ns,
        events,
        events_per_sec: rate(events, wall_ns),
        flows,
        flows_per_sec: rate(flows, wall_ns),
        rounds: rounds as u64,
        workers: summaries,
        window_ns: TailSummary::of(&window_vals),
        unbounded_windows,
        round_events: TailSummary::of(&round_event_vals),
    };

    let mut last = LAST_REPORT.lock().unwrap_or_else(PoisonError::into_inner);
    knob::ensure_dir(TELEMETRY.name, "telemetry", dir).unwrap_or_else(|e| panic!("{e}"));
    write_file(dir, "shard_rounds.csv", &csv);
    write_lanes(dir, workers);
    write_file(dir, "run_report.json", &report_json(&rep));
    *last = Some(rep);
}

fn rate(events: u64, wall_ns: u64) -> f64 {
    if wall_ns == 0 {
        0.0
    } else {
        events as f64 / (wall_ns as f64 / 1e9)
    }
}

/// Lane rounds written per worker. Long runs go through hundreds of
/// thousands of rounds; at up to 5 spans each that is gigabytes of JSON
/// and far beyond what trace viewers load, so the lanes keep the first
/// `MAX_LANE_ROUNDS` rounds (enough to see the steady-state rhythm) and
/// the full record stays in `shard_rounds.csv`.
const MAX_LANE_ROUNDS: usize = 20_000;

/// Write the per-worker Chrome-trace lanes: one `shard N` track per
/// worker, with `barrier` / `merge` / `drain` / `dispatch` spans laid out
/// on the wall-clock timeline (nanosecond offsets from the run start,
/// rendered by the trace writer as microseconds). Truncated to
/// [`MAX_LANE_ROUNDS`] rounds per worker.
fn write_lanes(dir: &Path, workers: &[WorkerTelemetry]) {
    let path = dir.join("shard_lanes.json");
    let writer = StreamingTraceWriter::create(&path, &[]).unwrap_or_else(|e| {
        panic!(
            "HPSOCK_TELEMETRY={}: cannot write {}: {e}",
            dir.display(),
            path.display()
        )
    });
    {
        let mut probe = writer.probe();
        let mut id = 0u64;
        for w in workers {
            let track = format!("shard {}", w.worker);
            for s in w.rounds.iter().take(MAX_LANE_ROUNDS) {
                let mut t = s.start_ns;
                let segments = [
                    ("barrier", s.b1_wait_ns),
                    ("merge", s.merge_ns),
                    ("drain", s.drain_ns),
                    ("dispatch", s.dispatch_ns),
                ];
                for (label, d) in segments {
                    if d == 0 {
                        continue;
                    }
                    probe.record(ProbeEvent::SpanBegin {
                        track: track.clone(),
                        label: label.to_string(),
                        time: SimTime::from_nanos(t),
                        id,
                    });
                    t += d;
                    probe.record(ProbeEvent::SpanEnd {
                        track: track.clone(),
                        time: SimTime::from_nanos(t),
                        id,
                    });
                    id += 1;
                }
            }
        }
    }
    if let Err(e) = writer.finish() {
        panic!(
            "HPSOCK_TELEMETRY={}: cannot write {}: {e}",
            dir.display(),
            path.display()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_dir_parsing_is_strict() {
        assert_eq!(TELEMETRY.resolve("out"), Ok(Some(PathBuf::from("out"))));
        assert_eq!(
            TELEMETRY.resolve(" tel/run1 "),
            Ok(Some(PathBuf::from("tel/run1")))
        );
        let err = TELEMETRY.resolve("").unwrap_err();
        assert!(
            err.contains("HPSOCK_TELEMETRY"),
            "names the variable: {err}"
        );
        assert!(TELEMETRY.resolve("   ").is_err(), "whitespace rejected");
    }

    #[test]
    fn with_telemetry_dir_overrides_and_restores() {
        // Nesting and unwind restore are the knob's (`knob::tests`); this
        // checks the public pair reads and writes the same knob.
        let dir = PathBuf::from("tel-a");
        assert_eq!(
            with_telemetry_dir(Some(&dir), configured_telemetry),
            Some(dir.clone())
        );
        assert_eq!(with_telemetry_dir(None, || TELEMETRY.get()), None);
        assert_eq!(
            TELEMETRY.with(Some(dir.clone()), configured_telemetry),
            Some(dir)
        );
    }

    #[test]
    fn ensure_telemetry_dir_creates_missing_directories() {
        let base = std::env::temp_dir().join(format!("hpsock_tel_ensure_{}", std::process::id()));
        let nested = base.join("a/b");
        let _ = std::fs::remove_dir_all(&base);
        knob::ensure_dir(TELEMETRY.name, "telemetry", &nested).expect("creates the full path");
        assert!(nested.is_dir());
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn round_sample_accounting() {
        let s = RoundSample {
            drain_ns: 10,
            b1_wait_ns: 40,
            dispatch_ns: 50,
            merge_ns: 0,
            ..RoundSample::default()
        };
        assert_eq!(s.busy_ns(), 60);
        assert_eq!(s.barrier_wait_ns(), 40);
        assert!((s.idle_frac() - 0.4).abs() < 1e-12);
        assert_eq!(RoundSample::default().idle_frac(), 0.0);
    }

    #[test]
    fn report_json_is_valid_and_self_consistent() {
        let rep = RunReport {
            mode: "sharded",
            shards: 2,
            wall_ns: 1_000_000,
            events: 500,
            events_per_sec: rate(500, 1_000_000),
            flows: 20,
            flows_per_sec: rate(20, 1_000_000),
            rounds: 7,
            workers: vec![
                WorkerSummary {
                    worker: 0,
                    rounds: 7,
                    events: 300,
                    sent: 12,
                    recv: 11,
                    busy_ns: 600_000,
                    barrier_wait_ns: 300_000,
                    utilization: 0.6,
                },
                WorkerSummary {
                    worker: 1,
                    rounds: 7,
                    events: 200,
                    sent: 11,
                    recv: 12,
                    busy_ns: 400_000,
                    barrier_wait_ns: 500_000,
                    utilization: 0.4,
                },
            ],
            window_ns: TailSummary::of(&[10_000.0, 12_000.0, 9_000.0]),
            unbounded_windows: 0,
            round_events: TailSummary::of(&[30.0, 40.0, 0.0]),
        };
        let js = report_json(&rep);
        assert!(js.contains("\"mode\": \"sharded\""));
        assert!(js.contains("\"rounds\": 7"));
        assert!(js.contains("\"events_per_sec\": 500000"));
        assert!(js.contains("\"p999\""));
        // Crude but effective structural checks: balanced braces/brackets,
        // no JSON-invalid tokens.
        assert_eq!(js.matches('{').count(), js.matches('}').count());
        assert_eq!(js.matches('[').count(), js.matches(']').count());
        assert!(!js.contains("inf") && !js.contains("NaN"));
    }

    #[test]
    fn zero_wall_time_yields_finite_rates() {
        assert_eq!(rate(100, 0), 0.0);
        assert_eq!(json_f64(f64::INFINITY), "0");
        assert_eq!(json_f64(f64::NAN), "0");
    }

    /// A synthetic zero-width round (every duration 0 — coarse clocks can
    /// report that) and a zero-wall-time run must still produce a finite
    /// idle fraction and a JSON report with no `inf`/`NaN` tokens.
    #[test]
    fn zero_width_rounds_serialize_finite() {
        let zero = RoundSample::default();
        assert_eq!(zero.busy_ns(), 0);
        assert_eq!(zero.barrier_wait_ns(), 0);
        assert_eq!(zero.idle_frac(), 0.0, "0/0 accounted time is 0, not NaN");
        let rep = RunReport {
            mode: "sharded",
            shards: 1,
            wall_ns: 0,
            events: 100,
            events_per_sec: rate(100, 0),
            flows: 0,
            flows_per_sec: rate(0, 0),
            rounds: 1,
            workers: vec![WorkerSummary {
                worker: 0,
                rounds: 1,
                events: 100,
                sent: 0,
                recv: 0,
                busy_ns: 0,
                barrier_wait_ns: 0,
                utilization: 0.0,
            }],
            window_ns: TailSummary::of(&[0.0]),
            unbounded_windows: 0,
            round_events: TailSummary::of(&[]),
        };
        let js = report_json(&rep);
        assert!(js.contains("\"events_per_sec\": 0"));
        assert!(!js.contains("inf") && !js.contains("NaN"), "{js}");
    }
}
