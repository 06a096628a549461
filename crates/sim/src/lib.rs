//! # hpsock-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the substrate on which the whole reproduction of
//! *"Impact of High Performance Sockets on Data Intensive Applications"*
//! (HPDC 2003) is built. It provides:
//!
//! * a virtual clock with nanosecond resolution ([`SimTime`], [`Dur`]),
//! * an actor-style process model ([`Process`]) driven by a total-ordered
//!   calendar event queue with allocation-free inline/pooled message
//!   payloads ([`payload`]) and cross-run buffer recycling ([`arena`]),
//! * analytic FCFS multi-server resources ([`Resource`]) used to model CPUs,
//!   NICs and links,
//! * deterministic per-process random-number streams,
//! * a seedless multiplicative hasher for integer-keyed maps on the
//!   per-message path ([`hash`]),
//! * statistics collectors ([`stats::Tally`], [`stats::Histogram`],
//!   [`stats::TimeWeighted`]),
//! * an event-trace digest used by determinism tests,
//! * a typed observability bus ([`probe`]) — zero overhead when disabled,
//!   with a buffering [`Recorder`], a [`MetricRegistry`], and Chrome
//!   trace-event JSON export for Perfetto,
//! * wall-clock self-profiling of the engine itself ([`telemetry`]) —
//!   per-round shard/barrier accounting, Chrome-trace worker lanes and
//!   `run_report.json` throughput summaries under `HPSOCK_TELEMETRY`,
//!   digest-neutral by construction,
//! * run settings ([`knob`]): every `HPSOCK_*` variable as a strictly
//!   parsed [`knob::Knob`] that tests and thread pools can scope.
//!
//! The kernel is deterministic: two runs with the same seed and the same
//! process construction order produce bit-identical event traces — whether
//! they execute sequentially (the default) or sharded across worker threads
//! under a conservative-parallel window protocol ([`shard`],
//! [`ShardPlan`]). Parallelism *between* simulations (parameter sweeps) is
//! achieved by running many independent `Sim` instances on different OS
//! threads — see the `hpsock-experiments` crate.
//!
//! ## Quick example
//!
//! ```
//! use hpsock_sim::{Sim, Process, Ctx, Message, Dur};
//!
//! struct Ping { pongs: u32 }
//! impl Process for Ping {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_>) {
//!         ctx.send_self_in(Dur::micros(5), Message::new("tick"));
//!     }
//!     fn on_message(&mut self, ctx: &mut Ctx<'_>, _msg: Message) {
//!         self.pongs += 1;
//!         if self.pongs < 3 {
//!             ctx.send_self_in(Dur::micros(5), Message::new("tick"));
//!         }
//!     }
//! }
//!
//! let mut sim = Sim::new(42);
//! sim.add_process(Box::new(Ping { pongs: 0 }));
//! let end = sim.run();
//! assert_eq!(end.as_nanos(), 15_000);
//! ```

pub mod arena;
pub mod event;
pub mod hash;
pub mod kernel;
pub mod knob;
pub mod payload;
pub mod probe;
pub mod resource;
pub mod shard;
pub mod stats;
pub mod telemetry;
pub mod time;
pub mod trace;

pub use event::{Event, EventQueue};
pub use hash::{FxHashMap, FxHashSet};
pub use kernel::{Ctx, Message, Process, ProcessId, Sim};
pub use payload::Payload;
pub use probe::{
    fold_spans, write_folded, MetricRegistry, Probe, ProbeEvent, Recorder, StreamingTraceWriter,
    Tee,
};
pub use resource::{Resource, ResourceId};
pub use shard::ShardPlan;
pub use stats::Tally;
pub use telemetry::{RunReport, TailSummary};
pub use time::{Dur, SimTime};
pub use trace::TraceDigest;
