//! `sim::probe` — a typed, zero-overhead-when-disabled observability bus.
//!
//! The kernel and the domain layers (net engine, DataCutter filters, the
//! vizserver pipeline) emit [`ProbeEvent`]s describing *what the simulation
//! did*: event dispatches, resource acquisitions (with queueing detail),
//! credit stalls, labelled spans, counters and gauges. A [`Probe`] sink
//! attached via [`crate::Sim::attach_probe`] receives them; with no probe
//! attached the emission sites reduce to a branch on an `Option` — the
//! event values are never even constructed (see [`crate::Ctx::probe_emit`]).
//!
//! Probes are **purely observational**: they never draw from the RNG
//! streams and never insert events, so the [`crate::TraceDigest`] of a run
//! is identical with and without a probe attached (this is pinned by the
//! determinism test-suite).
//!
//! [`Recorder`] is the batteries-included sink: it buffers events, folds
//! gauges into a [`MetricRegistry`], and exports Chrome
//! trace-event JSON openable in Perfetto / `chrome://tracing`, with one
//! track per simulated resource plus one per named span track. The span
//! tracks also fold into flamegraph collapsed stacks ([`fold_spans`],
//! written as `.folded` files by [`write_folded`]).

use crate::kernel::ProcessId;
use crate::resource::ResourceId;
use crate::stats::TimeWeighted;
use crate::time::{Dur, SimTime};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// One observation on the probe bus.
#[derive(Debug, Clone)]
pub enum ProbeEvent {
    /// The kernel dispatched an event to `target` at `time`.
    Dispatch {
        /// Dispatch instant.
        time: SimTime,
        /// Receiving process.
        target: ProcessId,
    },
    /// A job was scheduled on a FCFS resource.
    ResourceAcquire {
        /// The station.
        rid: ResourceId,
        /// When the job arrived at the station.
        arrived: SimTime,
        /// When service actually started (`>= arrived` under backlog).
        start: SimTime,
        /// When service completes.
        completion: SimTime,
        /// Service demand.
        service: Dur,
        /// Servers busy at the arrival instant (before this job).
        busy_servers: usize,
    },
    /// Begin a labelled span on a named track (e.g. one filter's compute).
    SpanBegin {
        /// Track name; all spans with the same track share a timeline row.
        track: String,
        /// Span label.
        label: String,
        /// Start instant.
        time: SimTime,
        /// Caller-chosen id matching the corresponding [`ProbeEvent::SpanEnd`].
        id: u64,
    },
    /// End the span opened with the same `track`/`id`.
    SpanEnd {
        /// Track name.
        track: String,
        /// End instant.
        time: SimTime,
        /// Id from the matching [`ProbeEvent::SpanBegin`].
        id: u64,
    },
    /// Increment a named monotonic counter.
    Counter {
        /// Counter name.
        name: String,
        /// Instant of the increment.
        time: SimTime,
        /// Increment (usually 1.0).
        delta: f64,
    },
    /// Set a named piecewise-constant gauge (queue depths etc.).
    Gauge {
        /// Gauge name.
        name: String,
        /// Instant of the change.
        time: SimTime,
        /// New value.
        value: f64,
    },
    /// A sender sat blocked on flow-control credits for `[from, until]`,
    /// attributed to the resource it would otherwise have been feeding.
    Stall {
        /// The starved station (the sender's host-TX engine).
        rid: ResourceId,
        /// Stall start.
        from: SimTime,
        /// Stall end.
        until: SimTime,
    },
}

/// A sink for [`ProbeEvent`]s. Implementations must not interact with the
/// simulation (no RNG draws, no event insertion) — observation only.
pub trait Probe: Send {
    /// Receive one event.
    fn record(&mut self, ev: ProbeEvent);

    /// The kernel is about to dispatch the event with ordering key
    /// `(time, key)`; every `record` until the next call belongs to that
    /// dispatch. Only the sharded executor's buffering probe uses this (to
    /// replay per-shard streams in the sequential order); ordinary sinks
    /// can ignore it.
    fn begin_dispatch(&mut self, _time: SimTime, _key: u64) {}
}

/// Named gauges, keyed deterministically: each gauge is a
/// [`TimeWeighted`] signal, and `BTreeMap` keys make snapshot iteration
/// order deterministic.
#[derive(Debug, Default)]
pub struct MetricRegistry {
    gauges: BTreeMap<String, TimeWeighted>,
}

impl MetricRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that gauge `name` changed to `value` at `t`.
    pub fn gauge_set(&mut self, name: &str, t: SimTime, value: f64) {
        self.gauges
            .entry(name.to_string())
            .or_default()
            .set(t, value);
    }

    /// Time-weighted mean of gauge `name` over `[0, end]`.
    pub fn gauge_mean(&self, name: &str, end: SimTime) -> f64 {
        self.gauges.get(name).map_or(0.0, |g| g.mean(end))
    }

    /// Latest value of gauge `name` (0 if never set).
    pub fn gauge_current(&self, name: &str) -> f64 {
        self.gauges.get(name).map_or(0.0, |g| g.current())
    }

    /// Iterate gauge names in order.
    pub fn gauge_names(&self) -> impl Iterator<Item = &str> {
        self.gauges.keys().map(String::as_str)
    }
}

struct RecorderInner {
    events: Vec<ProbeEvent>,
    dispatches: u64,
    metrics: MetricRegistry,
}

/// Shared-handle buffering sink.
///
/// `Recorder::probe()` hands the kernel a [`Probe`] that feeds this
/// recorder; the caller keeps the `Recorder` and reads events / metrics
/// after (or during) the run. [`ProbeEvent::Dispatch`] is *counted*, not
/// buffered — large runs dispatch millions of events and the per-dispatch
/// payload carries no information beyond its count.
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<Mutex<RecorderInner>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A fresh, empty recorder.
    pub fn new() -> Self {
        Recorder {
            inner: Arc::new(Mutex::new(RecorderInner {
                events: Vec::new(),
                dispatches: 0,
                metrics: MetricRegistry::new(),
            })),
        }
    }

    /// A probe handle feeding this recorder; attach it with
    /// [`crate::Sim::attach_probe`].
    pub fn probe(&self) -> Box<dyn Probe> {
        Box::new(RecorderProbe {
            inner: Arc::clone(&self.inner),
        })
    }

    /// Number of kernel dispatches observed.
    pub fn dispatches(&self) -> u64 {
        self.inner.lock().expect("recorder lock").dispatches
    }

    /// Number of buffered (non-dispatch) events.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("recorder lock").events.len()
    }

    /// True when no non-dispatch event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Run `f` against the buffered events without copying them out.
    pub fn with_events<R>(&self, f: impl FnOnce(&[ProbeEvent]) -> R) -> R {
        f(&self.inner.lock().expect("recorder lock").events)
    }

    /// Run `f` against the metric registry.
    pub fn with_metrics<R>(&self, f: impl FnOnce(&MetricRegistry) -> R) -> R {
        f(&self.inner.lock().expect("recorder lock").metrics)
    }

    /// Flamegraph-style aggregation of the buffered span tracks; see
    /// [`fold_spans`].
    pub fn folded_spans(&self) -> BTreeMap<String, u64> {
        self.with_events(fold_spans)
    }

    /// Export buffered events as Chrome trace-event JSON (the format
    /// Perfetto and `chrome://tracing` open directly).
    ///
    /// Convenience wrapper feeding the buffered events through a
    /// [`StreamingTraceWriter`] over an in-memory buffer; for long runs
    /// prefer attaching a `StreamingTraceWriter` directly so events go to
    /// disk as they happen instead of accumulating here.
    pub fn chrome_trace_json(&self, resource_names: &[String]) -> String {
        let writer = StreamingTraceWriter::new(Vec::new(), resource_names);
        {
            let mut p = writer.probe();
            self.with_events(|events| {
                for ev in events {
                    p.record(ev.clone());
                }
            });
        }
        let bytes = writer.finish().expect("in-memory trace write cannot fail");
        String::from_utf8(bytes).expect("trace JSON is UTF-8")
    }
}

/// Incremental Chrome trace-event JSON writer.
///
/// The [`Probe`] side serializes each event straight into the underlying
/// `io::Write` as it is recorded, so memory stays bounded regardless of
/// run length: the only retained state is the track-id tables, one running
/// total per counter name, and the labels of currently-open spans. Wrap a
/// `File` in a `BufWriter` (or use [`StreamingTraceWriter::create`]) to
/// batch the small per-event writes.
///
/// Layout matches [`Recorder::chrome_trace_json`]: tid 0 carries counters
/// and gauges, tids `1..=n` the resource tracks (named up-front from
/// `resource_names`), and stall/span tracks are assigned — with their
/// `thread_name` metadata emitted inline — the first time each appears.
/// Timestamps are virtual µs. [`ProbeEvent::Dispatch`] is counted, never
/// written. The timebase is whatever the span times encode: the
/// `telemetry` module reuses this writer with *wall-clock* nanoseconds
/// smuggled through `SimTime` to render per-worker shard lanes.
///
/// Call [`finish`](Self::finish) to write the JSON trailer and recover the
/// writer (and the first I/O error, if any). Dropping the handle without
/// finishing writes the trailer best-effort so the file stays loadable.
pub struct StreamingTraceWriter<W: std::io::Write + Send + 'static> {
    inner: Arc<Mutex<StreamInner<W>>>,
}

struct StreamInner<W: std::io::Write> {
    /// `None` only after [`StreamingTraceWriter::finish`] reclaimed it.
    w: Option<W>,
    /// No event object has been emitted yet (controls comma placement).
    first: bool,
    finished: bool,
    /// First write error; once set, further events are dropped.
    err: Option<std::io::Error>,
    dispatches: u64,
    written: u64,
    next_tid: u64,
    stall_tid: BTreeMap<usize, u64>,
    span_tid: BTreeMap<String, u64>,
    resource_names: Vec<String>,
    /// Cumulative counter values (counters plot running totals).
    running: BTreeMap<String, f64>,
    /// Labels of open spans; async span ends reuse the label from their
    /// matching begin (Perfetto pairs on cat+id).
    open_spans: BTreeMap<(u64, u64), String>,
}

impl<W: std::io::Write + Send + 'static> StreamingTraceWriter<W> {
    /// Start a trace into `w`: writes the JSON header and one
    /// `thread_name` metadata record per resource track immediately.
    pub fn new(w: W, resource_names: &[String]) -> Self {
        let mut inner = StreamInner {
            w: Some(w),
            first: true,
            finished: false,
            err: None,
            dispatches: 0,
            written: 0,
            next_tid: resource_names.len() as u64 + 1,
            stall_tid: BTreeMap::new(),
            span_tid: BTreeMap::new(),
            resource_names: resource_names.to_vec(),
            running: BTreeMap::new(),
            open_spans: BTreeMap::new(),
        };
        inner.try_io(|w| w.write_all(b"{\"traceEvents\":["));
        for idx in 0..inner.resource_names.len() {
            let name = json_escape(&inner.resource_names[idx]);
            inner.emit(format_args!(
                "{{\"ph\":\"M\",\"pid\":0,\"tid\":{},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                idx + 1,
                name
            ));
        }
        StreamingTraceWriter {
            inner: Arc::new(Mutex::new(inner)),
        }
    }

    /// A probe handle feeding this writer; attach it with
    /// [`crate::Sim::attach_probe`].
    pub fn probe(&self) -> Box<dyn Probe> {
        Box::new(StreamingProbe {
            inner: Arc::clone(&self.inner),
        })
    }

    /// Number of kernel dispatches observed (counted, not written).
    pub fn dispatches(&self) -> u64 {
        self.inner.lock().expect("trace writer lock").dispatches
    }

    /// Number of JSON event records written so far (metadata included).
    pub fn events_written(&self) -> u64 {
        self.inner.lock().expect("trace writer lock").written
    }

    /// Write the JSON trailer, flush, and return the writer — or the
    /// first I/O error hit at any point during the trace.
    pub fn finish(self) -> std::io::Result<W> {
        let mut inner = self.inner.lock().expect("trace writer lock");
        inner.close();
        if let Some(e) = inner.err.take() {
            return Err(e);
        }
        Ok(inner.w.take().expect("writer reclaimed once"))
    }
}

impl<W: std::io::Write> StreamInner<W> {
    /// Run an I/O action, latching the first error and dropping later work.
    fn try_io(&mut self, f: impl FnOnce(&mut W) -> std::io::Result<()>) {
        if self.err.is_none() {
            if let Some(w) = self.w.as_mut() {
                if let Err(e) = f(w) {
                    self.err = Some(e);
                }
            }
        }
    }

    /// Write one JSON object, comma-separated from the previous one.
    fn emit(&mut self, body: std::fmt::Arguments<'_>) {
        let first = std::mem::replace(&mut self.first, false);
        self.try_io(|w| {
            if !first {
                w.write_all(b",")?;
            }
            w.write_fmt(body)
        });
        self.written += 1;
    }

    /// Tid for `rid`'s stall track, emitting its metadata on first use.
    fn stall_tid_for(&mut self, rid: usize) -> u64 {
        if let Some(&tid) = self.stall_tid.get(&rid) {
            return tid;
        }
        let tid = self.next_tid;
        self.next_tid += 1;
        self.stall_tid.insert(rid, tid);
        let name = json_escape(
            self.resource_names
                .get(rid)
                .map(String::as_str)
                .unwrap_or("resource"),
        );
        self.emit(format_args!(
            "{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{name} · stall\"}}}}"
        ));
        tid
    }

    /// Tid for span track `track`, emitting its metadata on first use.
    fn span_tid_for(&mut self, track: &str) -> u64 {
        if let Some(&tid) = self.span_tid.get(track) {
            return tid;
        }
        let tid = self.next_tid;
        self.next_tid += 1;
        self.span_tid.insert(track.to_string(), tid);
        let name = json_escape(track);
        self.emit(format_args!(
            "{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{name}\"}}}}"
        ));
        tid
    }

    fn record(&mut self, ev: ProbeEvent) {
        let us = |t: SimTime| t.as_nanos() as f64 / 1e3;
        match ev {
            ProbeEvent::Dispatch { .. } => self.dispatches += 1,
            ProbeEvent::ResourceAcquire {
                rid,
                arrived,
                start,
                completion,
                service,
                busy_servers,
            } => {
                let dur = completion.saturating_since(start);
                self.emit(format_args!(
                    "{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                     \"name\":\"use\",\"args\":{{\"service_us\":{:.3},\"wait_us\":{:.3},\
                     \"busy_servers\":{}}}}}",
                    rid.0 + 1,
                    us(start),
                    dur.as_nanos() as f64 / 1e3,
                    service.as_nanos() as f64 / 1e3,
                    start.saturating_since(arrived).as_nanos() as f64 / 1e3,
                    busy_servers
                ));
            }
            ProbeEvent::Stall { rid, from, until } => {
                let tid = self.stall_tid_for(rid.0);
                self.emit(format_args!(
                    "{{\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\
                     \"name\":\"credit stall\",\"args\":{{}}}}",
                    us(from),
                    until.saturating_since(from).as_nanos() as f64 / 1e3
                ));
            }
            ProbeEvent::SpanBegin {
                track,
                label,
                time,
                id,
            } => {
                let tid = self.span_tid_for(&track);
                let escaped = json_escape(&label);
                self.open_spans.insert((tid, id), label);
                self.emit(format_args!(
                    "{{\"ph\":\"b\",\"cat\":\"span\",\"id\":{id},\"pid\":0,\
                     \"tid\":{tid},\"ts\":{:.3},\"name\":\"{escaped}\"}}",
                    us(time)
                ));
            }
            ProbeEvent::SpanEnd { track, time, id } => {
                let tid = self.span_tid_for(&track);
                let label = self.open_spans.remove(&(tid, id)).unwrap_or_default();
                let escaped = json_escape(&label);
                self.emit(format_args!(
                    "{{\"ph\":\"e\",\"cat\":\"span\",\"id\":{id},\"pid\":0,\
                     \"tid\":{tid},\"ts\":{:.3},\"name\":\"{escaped}\"}}",
                    us(time)
                ));
            }
            ProbeEvent::Counter { name, time, delta } => {
                let v = *self
                    .running
                    .entry(name.clone())
                    .and_modify(|v| *v += delta)
                    .or_insert(delta);
                let escaped = json_escape(&name);
                self.emit(format_args!(
                    "{{\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":{:.3},\"name\":\"{escaped}\",\
                     \"args\":{{\"value\":{v}}}}}",
                    us(time)
                ));
            }
            ProbeEvent::Gauge { name, time, value } => {
                let escaped = json_escape(&name);
                self.emit(format_args!(
                    "{{\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":{:.3},\"name\":\"{escaped}\",\
                     \"args\":{{\"value\":{value}}}}}",
                    us(time)
                ));
            }
        }
    }

    /// Write the trailer and flush (idempotent).
    fn close(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.try_io(|w| {
            w.write_all(b"],\"displayTimeUnit\":\"ms\"}")?;
            w.flush()
        });
    }
}

impl<W: std::io::Write> Drop for StreamInner<W> {
    fn drop(&mut self) {
        self.close();
    }
}

struct StreamingProbe<W: std::io::Write + Send> {
    inner: Arc<Mutex<StreamInner<W>>>,
}

impl<W: std::io::Write + Send> Probe for StreamingProbe<W> {
    fn record(&mut self, ev: ProbeEvent) {
        self.inner.lock().expect("trace writer lock").record(ev);
    }
}

impl StreamingTraceWriter<std::io::BufWriter<std::fs::File>> {
    /// Stream a trace to a freshly created file through a `BufWriter`
    /// (creating parent directories), so each probe event costs a small
    /// buffered write rather than a syscall.
    pub fn create(path: &std::path::Path, resource_names: &[String]) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let file = std::fs::File::create(path)?;
        Ok(Self::new(std::io::BufWriter::new(file), resource_names))
    }
}

/// Fan a probe stream out to two sinks (e.g. a [`Recorder`] for analysis
/// plus a [`StreamingTraceWriter`] for on-disk export in one run).
pub struct Tee(pub Box<dyn Probe>, pub Box<dyn Probe>);

impl Probe for Tee {
    fn record(&mut self, ev: ProbeEvent) {
        self.0.record(ev.clone());
        self.1.record(ev);
    }
}

struct RecorderProbe {
    inner: Arc<Mutex<RecorderInner>>,
}

impl Probe for RecorderProbe {
    fn record(&mut self, ev: ProbeEvent) {
        let mut inner = self.inner.lock().expect("recorder lock");
        match &ev {
            ProbeEvent::Dispatch { .. } => {
                inner.dispatches += 1;
                return;
            }
            ProbeEvent::Gauge { name, time, value } => {
                inner.metrics.gauge_set(name, *time, *value);
            }
            _ => {}
        }
        inner.events.push(ev);
    }
}

/// Per-track open-span state while folding.
struct FoldTrack {
    /// Open spans in begin order: `(id, label)`.
    stack: Vec<(u64, String)>,
    /// Last instant time was attributed up to.
    last: SimTime,
}

/// Attribute `[fold.last, now)` to the track's current stack path.
fn fold_attribute(
    out: &mut BTreeMap<String, u64>,
    track: &str,
    fold: &mut FoldTrack,
    now: SimTime,
) {
    let dt = now.saturating_since(fold.last).as_nanos();
    fold.last = now;
    if dt == 0 || fold.stack.is_empty() {
        return;
    }
    let mut key = String::from(track);
    for (_, label) in &fold.stack {
        key.push(';');
        key.push_str(label);
    }
    *out.entry(key).or_insert(0) += dt;
}

/// Fold span tracks into flamegraph collapsed stacks: identical stacks of
/// open spans are merged, keyed `track;outer_label;…;inner_label` and
/// weighted by the virtual nanoseconds spent with exactly that stack open.
///
/// The output is the collapsed-stack format `inferno` / speedscope /
/// `flamegraph.pl` consume (one `stack weight` line per entry, see
/// [`write_folded`]). Spans that overlap on one track without nesting
/// (e.g. concurrent open-loop queries) stack in begin order — the fold
/// shows *what was in flight*, not a call hierarchy. Determinism: keys
/// iterate in `BTreeMap` order and weights are integer nanoseconds, so
/// equal runs fold byte-identically.
pub fn fold_spans(events: &[ProbeEvent]) -> BTreeMap<String, u64> {
    let mut tracks: BTreeMap<String, FoldTrack> = BTreeMap::new();
    let mut out = BTreeMap::new();
    for ev in events {
        match ev {
            ProbeEvent::SpanBegin {
                track,
                label,
                time,
                id,
            } => {
                let fold = tracks.entry(track.clone()).or_insert(FoldTrack {
                    stack: Vec::new(),
                    last: *time,
                });
                fold_attribute(&mut out, track, fold, *time);
                fold.stack.push((*id, label.clone()));
            }
            ProbeEvent::SpanEnd { track, time, id } => {
                if let Some(fold) = tracks.get_mut(track) {
                    fold_attribute(&mut out, track, fold, *time);
                    if let Some(pos) = fold.stack.iter().rposition(|(sid, _)| sid == id) {
                        fold.stack.remove(pos);
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Write collapsed stacks (from [`fold_spans`]) as a `.folded` file —
/// one `stack weight` line per entry, weights in virtual nanoseconds —
/// creating parent directories as needed.
pub fn write_folded(path: &std::path::Path, stacks: &BTreeMap<String, u64>) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (stack, weight) in stacks {
        writeln!(w, "{stack} {weight}")?;
    }
    w.flush()
}

/// Escape `s` for inclusion inside a JSON string literal (quotes,
/// backslash, and all control characters below U+0020).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn json_escape_passes_plain_text() {
        assert_eq!(json_escape("host_tx[0]"), "host_tx[0]");
        assert_eq!(json_escape("π · stall"), "π · stall");
    }

    #[test]
    fn json_escape_quotes_backslashes_and_controls() {
        assert_eq!(json_escape("a\"b"), "a\\\"b");
        assert_eq!(json_escape("a\\b"), "a\\\\b");
        assert_eq!(json_escape("a\nb\tc\r"), "a\\nb\\tc\\r");
        assert_eq!(json_escape("\u{01}"), "\\u0001");
        assert_eq!(json_escape("\u{1f}"), "\\u001f");
    }

    #[test]
    fn registry_gauges_time_weight() {
        let mut m = MetricRegistry::new();
        m.gauge_set("q", t(0), 2.0);
        m.gauge_set("q", t(100), 4.0);
        assert!((m.gauge_mean("q", t(200)) - 3.0).abs() < 1e-12);
        assert_eq!(m.gauge_current("q"), 4.0);
        assert_eq!(m.gauge_mean("absent", t(100)), 0.0);
    }

    #[test]
    fn recorder_counts_dispatches_without_buffering() {
        let rec = Recorder::new();
        let mut p = rec.probe();
        for i in 0..5 {
            p.record(ProbeEvent::Dispatch {
                time: t(i),
                target: ProcessId(0),
            });
        }
        assert_eq!(rec.dispatches(), 5);
        assert!(rec.is_empty());
    }

    #[test]
    fn recorder_folds_gauges_into_metrics() {
        let rec = Recorder::new();
        let mut p = rec.probe();
        p.record(ProbeEvent::Counter {
            name: "c".into(),
            time: t(10),
            delta: 2.0,
        });
        p.record(ProbeEvent::Gauge {
            name: "g".into(),
            time: t(0),
            value: 7.0,
        });
        assert_eq!(rec.with_metrics(|m| m.gauge_current("g")), 7.0);
        let names: Vec<String> = rec.with_metrics(|m| m.gauge_names().map(String::from).collect());
        assert_eq!(names, vec!["g"], "only gauges fold into the registry");
        assert_eq!(rec.len(), 2, "counter/gauge events stay in the buffer");
    }

    /// The streaming writer, fed the same events, produces the same JSON
    /// as the Recorder convenience export (which now delegates to it) —
    /// and writes incrementally: the header and early events are already
    /// in the sink before the trace is finished.
    #[test]
    fn streaming_writer_matches_recorder_export() {
        let events = [
            ProbeEvent::ResourceAcquire {
                rid: ResourceId(0),
                arrived: t(0),
                start: t(100),
                completion: t(300),
                service: Dur::nanos(200),
                busy_servers: 0,
            },
            ProbeEvent::Dispatch {
                time: t(5),
                target: ProcessId(3),
            },
            ProbeEvent::Stall {
                rid: ResourceId(0),
                from: t(400),
                until: t(600),
            },
            ProbeEvent::Counter {
                name: "frames".into(),
                time: t(50),
                delta: 2.0,
            },
            ProbeEvent::Counter {
                name: "frames".into(),
                time: t(60),
                delta: 3.0,
            },
        ];
        let names = vec!["nic".to_string()];

        let rec = Recorder::new();
        let mut rp = rec.probe();
        for ev in &events {
            rp.record(ev.clone());
        }

        let stream = StreamingTraceWriter::new(Vec::new(), &names);
        let mut sp = stream.probe();
        for ev in &events {
            sp.record(ev.clone());
        }
        assert_eq!(stream.dispatches(), 1);
        assert!(
            stream.events_written() >= 4,
            "events flow to the sink before finish"
        );
        let json = String::from_utf8(stream.finish().unwrap()).unwrap();
        assert_eq!(json, rec.chrome_trace_json(&names));
        assert!(json.contains("\"value\":5"), "counter totals accumulate");
        assert!(json.contains("nic · stall"));
    }

    /// Dropping the writer handle without `finish` still closes the JSON
    /// so the file is loadable.
    #[test]
    fn streaming_writer_closes_on_drop() {
        use std::sync::mpsc;
        struct SendOnDrop(Vec<u8>, mpsc::Sender<Vec<u8>>);
        impl std::io::Write for SendOnDrop {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        impl Drop for SendOnDrop {
            fn drop(&mut self) {
                let _ = self.1.send(std::mem::take(&mut self.0));
            }
        }
        let (tx, rx) = mpsc::channel();
        let w = StreamingTraceWriter::new(SendOnDrop(Vec::new(), tx), &[]);
        w.probe().record(ProbeEvent::Gauge {
            name: "q".into(),
            time: t(1),
            value: 1.0,
        });
        drop(w);
        let bytes = rx.try_recv().expect("sink dropped with contents");
        let json = String::from_utf8(bytes).unwrap();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}"));
    }

    #[test]
    fn fold_spans_merges_identical_stacks_and_splits_nesting() {
        let rec = Recorder::new();
        let mut p = rec.probe();
        let begin = |p: &mut Box<dyn Probe>, at, label: &str, id| {
            p.record(ProbeEvent::SpanBegin {
                track: "work".into(),
                label: label.into(),
                time: t(at),
                id,
            })
        };
        let end = |p: &mut Box<dyn Probe>, at, id| {
            p.record(ProbeEvent::SpanEnd {
                track: "work".into(),
                time: t(at),
                id,
            })
        };
        // outer [0,100) with inner [20,60); then outer again [100,130).
        begin(&mut p, 0, "outer", 1);
        begin(&mut p, 20, "inner", 2);
        end(&mut p, 60, 2);
        end(&mut p, 100, 1);
        begin(&mut p, 100, "outer", 3);
        end(&mut p, 130, 3);
        let folded = rec.folded_spans();
        assert_eq!(folded.get("work;outer"), Some(&90), "20 + 40 + 30 self-ns");
        assert_eq!(folded.get("work;outer;inner"), Some(&40));
        assert_eq!(folded.len(), 2, "identical stacks fold into one entry");
        // Total folded weight equals total open time (130ns, no gaps).
        assert_eq!(folded.values().sum::<u64>(), 130);
    }

    #[test]
    fn fold_spans_keeps_tracks_separate_and_ignores_non_spans() {
        let rec = Recorder::new();
        let mut p = rec.probe();
        for (track, id) in [("a", 1u64), ("b", 2)] {
            p.record(ProbeEvent::SpanBegin {
                track: track.into(),
                label: "x".into(),
                time: t(0),
                id,
            });
            p.record(ProbeEvent::SpanEnd {
                track: track.into(),
                time: t(50),
                id,
            });
        }
        p.record(ProbeEvent::Counter {
            name: "c".into(),
            time: t(10),
            delta: 1.0,
        });
        let folded = rec.folded_spans();
        assert_eq!(folded.get("a;x"), Some(&50));
        assert_eq!(folded.get("b;x"), Some(&50));
        assert_eq!(folded.len(), 2);
        assert!(fold_spans(&[]).is_empty(), "no spans, no stacks");
    }

    #[test]
    fn write_folded_emits_collapsed_stack_lines() {
        let dir = std::env::temp_dir().join(format!("hpsock_folded_{}", std::process::id()));
        let path = dir.join("nested/out.folded");
        let mut stacks = BTreeMap::new();
        stacks.insert("track;outer".to_string(), 90u64);
        stacks.insert("track;outer;inner".to_string(), 40u64);
        write_folded(&path, &stacks).expect("write .folded");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(text, "track;outer 90\ntrack;outer;inner 40\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tee_duplicates_to_both_sinks() {
        let a = Recorder::new();
        let b = Recorder::new();
        let mut tee = Tee(a.probe(), b.probe());
        tee.record(ProbeEvent::Dispatch {
            time: t(1),
            target: ProcessId(0),
        });
        tee.record(ProbeEvent::Gauge {
            name: "g".into(),
            time: t(2),
            value: 1.0,
        });
        for rec in [&a, &b] {
            assert_eq!(rec.dispatches(), 1);
            assert_eq!(rec.len(), 1);
            assert_eq!(rec.with_metrics(|m| m.gauge_current("g")), 1.0);
        }
    }

    #[test]
    fn chrome_trace_has_named_tracks_and_balanced_events() {
        let rec = Recorder::new();
        let mut p = rec.probe();
        p.record(ProbeEvent::ResourceAcquire {
            rid: ResourceId(0),
            arrived: t(0),
            start: t(500),
            completion: t(1_500),
            service: Dur::nanos(1_000),
            busy_servers: 1,
        });
        p.record(ProbeEvent::Stall {
            rid: ResourceId(0),
            from: t(2_000),
            until: t(3_000),
        });
        p.record(ProbeEvent::SpanBegin {
            track: "dc.magnify[0]".into(),
            label: "compute \"x\"".into(),
            time: t(100),
            id: 1,
        });
        p.record(ProbeEvent::SpanEnd {
            track: "dc.magnify[0]".into(),
            time: t(900),
            id: 1,
        });
        let json = rec.chrome_trace_json(&["host_tx[0]".to_string()]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with('}'));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("host_tx[0]"));
        assert!(json.contains("host_tx[0] · stall"));
        assert!(json.contains("dc.magnify[0]"));
        assert!(json.contains("compute \\\"x\\\""), "labels are escaped");
        assert_eq!(
            json.matches("\"ph\":\"b\"").count(),
            json.matches("\"ph\":\"e\"").count(),
            "span begins and ends balance"
        );
        // Occupancy X event carries wait accounting: started 0.5us late.
        assert!(json.contains("\"wait_us\":0.500"));
    }
}
