//! Deterministic fault injection: composable per-link filters installed on
//! a [`crate::Cluster`] and evaluated by the network engine.
//!
//! The layer follows the `Filter` idiom of simulated-transport test
//! harnesses: a fault plan is an ordered chain of link filters (drop,
//! delay, link-flap) plus scheduled node crashes, compiled per connection
//! when the engine cores start. Every probabilistic decision draws from a
//! seeded stream: under the packet model the connection's own, keyed by
//! (sim seed, connection id), and under the flow model the fluid core's.
//! A faulted run is therefore digest-reproducible across invocations and
//! across shard plans (the streams are shard-invariant, and fault delays
//! only ever *add* latency, preserving the conservative-window
//! lookahead).
//!
//! Plans come from the [`FAULTS`] knob: the strictly parsed
//! `HPSOCK_FAULTS` environment variable (parse errors name the
//! variable), or the scoped [`with_plan`]/[`with_spec`] overrides tests
//! and benchmarks use (see `hpsock_sim::knob`).
//!
//! ## Spec grammar
//!
//! Comma-separated clauses; `DUR` accepts `ns`/`us`/`ms`/`s` suffixes,
//! `P` is a probability in `[0, 1]`, `LINK` scopes a filter to one
//! directed node pair (`SRC->DST`, either side `*` for any):
//!
//! ```text
//! drop=P[@LINK]          lose each message with probability P
//! delay=P:DUR[@LINK]     add DUR to each message with probability P
//! flap=PERIOD:DOWN[@LINK] link down for DOWN at the end of each PERIOD
//! crash=NODE@TIME        node NODE fail-stops at TIME
//! detect=DUR             loss/crash detection latency (default 500us)
//! retries=N              per-message retry budget (default 5)
//! backoff=DUR            first retry backoff, doubling (default 1ms)
//! ```
//!
//! Example: `HPSOCK_FAULTS=drop=0.01,flap=5ms:500us@0->2,crash=1@40ms`.

use hpsock_sim::knob::Knob;
use hpsock_sim::{Dur, SimTime};
use rand::rngs::SmallRng;
use rand::Rng;
use std::sync::Arc;

/// Recovery knobs the DataCutter layer reads off an installed plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryCfg {
    /// How long after a message is wire-dropped the sender learns of the
    /// loss (models an application-level timeout/NACK).
    pub detect: Dur,
    /// Resend attempts per message before the stream is declared dead.
    pub retries: u32,
    /// Backoff before the first resend; doubles per attempt.
    pub backoff: Dur,
}

impl Default for RecoveryCfg {
    fn default() -> Self {
        RecoveryCfg {
            detect: Dur::micros(500),
            retries: 5,
            backoff: Dur::millis(1),
        }
    }
}

/// Which directed node pairs a link filter applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkScope {
    /// Source node constraint (`None` = any).
    pub src: Option<usize>,
    /// Destination node constraint (`None` = any).
    pub dst: Option<usize>,
}

impl LinkScope {
    /// The unconstrained scope (every link).
    pub const ANY: LinkScope = LinkScope {
        src: None,
        dst: None,
    };

    /// Does a `src -> dst` connection fall under this scope?
    pub fn matches(&self, src: usize, dst: usize) -> bool {
        self.src.map_or(true, |s| s == src) && self.dst.map_or(true, |d| d == dst)
    }
}

/// One composable per-link fault filter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkFilterKind {
    /// Lose each message with probability `p`.
    Drop {
        /// Per-message loss probability.
        p: f64,
    },
    /// Add `extra` to each message's wire delay with probability `p`
    /// (`p < 1` reorders messages across a connection).
    Delay {
        /// Per-message delay probability.
        p: f64,
        /// Added one-way latency.
        extra: Dur,
    },
    /// Periodic link flap: the link is down for the last `down` of every
    /// `period`; messages entering the wire during a down window are lost.
    Flap {
        /// Flap cycle length.
        period: Dur,
        /// Down time at the end of each cycle.
        down: Dur,
    },
}

/// A link filter bound to its scope.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFilter {
    /// Which links the filter applies to.
    pub scope: LinkScope,
    /// The fault behaviour.
    pub kind: LinkFilterKind,
}

/// A parsed fault plan: the filter chain, crash schedule and recovery
/// parameters. Install via `HPSOCK_FAULTS` or [`with_plan`]; the cluster
/// picks it up at build time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Link filters in declaration order (the chain composes: any drop
    /// verdict wins, delay extras add up).
    pub filters: Vec<LinkFilter>,
    /// `(node, time)` fail-stop schedule.
    pub crashes: Vec<(usize, SimTime)>,
    /// Recovery parameters handed to the DataCutter layer.
    pub recovery: RecoveryCfg,
}

impl FaultPlan {
    /// True when the plan injects anything at all. An inactive plan is
    /// never installed, keeping fault-free runs byte-identical to a build
    /// without the fault layer (pinned by the determinism tests).
    pub fn is_active(&self) -> bool {
        !self.filters.is_empty() || !self.crashes.is_empty()
    }

    /// Earliest scheduled crash of `node`, if any.
    pub fn crash_time(&self, node: usize) -> Option<SimTime> {
        self.crashes
            .iter()
            .filter(|&&(n, _)| n == node)
            .map(|&(_, t)| t)
            .min()
    }

    /// Compile the per-connection fault state for a `src -> dst` link.
    /// `None` when no filter or crash touches the link (the engine's hot
    /// path then carries no fault branch at all).
    pub fn compile(&self, src: usize, dst: usize) -> Option<ConnFaults> {
        let chain: Vec<LinkFilterKind> = self
            .filters
            .iter()
            .filter(|f| f.scope.matches(src, dst))
            .map(|f| f.kind)
            .collect();
        let cut_at = match (self.crash_time(src), self.crash_time(dst)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        if chain.is_empty() && cut_at.is_none() {
            return None;
        }
        Some(ConnFaults {
            chain,
            cut_at,
            detect: self.recovery.detect,
        })
    }

    /// Parse an `HPSOCK_FAULTS` spec. Errors name the variable, mirroring
    /// `HPSOCK_SEEDS`/`HPSOCK_TAILS`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for clause in spec.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (key, val) = clause.split_once('=').ok_or_else(|| {
                format!("HPSOCK_FAULTS: clause {clause:?} is not of the form key=value")
            })?;
            match key.trim() {
                "drop" => {
                    let (body, scope) = split_scope(val)?;
                    plan.filters.push(LinkFilter {
                        scope,
                        kind: LinkFilterKind::Drop {
                            p: parse_prob(body, "drop")?,
                        },
                    });
                }
                "delay" => {
                    let (body, scope) = split_scope(val)?;
                    let (p, d) = body
                        .split_once(':')
                        .ok_or_else(|| format!("HPSOCK_FAULTS: delay takes P:DUR, got {body:?}"))?;
                    plan.filters.push(LinkFilter {
                        scope,
                        kind: LinkFilterKind::Delay {
                            p: parse_prob(p, "delay")?,
                            extra: parse_dur(d)?,
                        },
                    });
                }
                "flap" => {
                    let (body, scope) = split_scope(val)?;
                    let (period, down) = body.split_once(':').ok_or_else(|| {
                        format!("HPSOCK_FAULTS: flap takes PERIOD:DOWN, got {body:?}")
                    })?;
                    let (period, down) = (parse_dur(period)?, parse_dur(down)?);
                    if down >= period {
                        return Err(format!(
                            "HPSOCK_FAULTS: flap down time {down} must be shorter than \
                             the period {period}"
                        ));
                    }
                    plan.filters.push(LinkFilter {
                        scope,
                        kind: LinkFilterKind::Flap { period, down },
                    });
                }
                "crash" => {
                    let (node, at) = val.split_once('@').ok_or_else(|| {
                        format!("HPSOCK_FAULTS: crash takes NODE@TIME, got {val:?}")
                    })?;
                    let node = node.trim().parse::<usize>().map_err(|_| {
                        format!("HPSOCK_FAULTS: crash node must be an integer, got {node:?}")
                    })?;
                    plan.crashes.push((node, SimTime::ZERO + parse_dur(at)?));
                }
                "detect" => plan.recovery.detect = parse_dur(val)?,
                "backoff" => plan.recovery.backoff = parse_dur(val)?,
                "retries" => {
                    plan.recovery.retries = val.trim().parse::<u32>().map_err(|_| {
                        format!(
                            "HPSOCK_FAULTS: retries must be a non-negative integer, got {val:?}"
                        )
                    })?;
                }
                other => {
                    return Err(format!(
                        "HPSOCK_FAULTS: unknown clause {other:?} (expected drop, delay, \
                         flap, crash, detect, retries or backoff)"
                    ));
                }
            }
        }
        Ok(plan)
    }
}

/// Split an optional trailing `@SRC->DST` scope off a clause value.
fn split_scope(val: &str) -> Result<(&str, LinkScope), String> {
    match val.split_once('@') {
        None => Ok((val, LinkScope::ANY)),
        Some((body, link)) => {
            let (src, dst) = link.split_once("->").ok_or_else(|| {
                format!("HPSOCK_FAULTS: link scope must be SRC->DST, got {link:?}")
            })?;
            let side = |s: &str, which: &str| -> Result<Option<usize>, String> {
                let s = s.trim();
                if s == "*" {
                    return Ok(None);
                }
                s.parse::<usize>().map(Some).map_err(|_| {
                    format!("HPSOCK_FAULTS: link {which} must be a node index or *, got {s:?}")
                })
            };
            Ok((
                body,
                LinkScope {
                    src: side(src, "source")?,
                    dst: side(dst, "destination")?,
                },
            ))
        }
    }
}

/// Parse a probability in `[0, 1]`.
fn parse_prob(raw: &str, clause: &str) -> Result<f64, String> {
    let p = raw.trim().parse::<f64>().map_err(|_| {
        format!("HPSOCK_FAULTS: {clause} probability must be a number, got {raw:?}")
    })?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!(
            "HPSOCK_FAULTS: {clause} probability must be in [0, 1], got {raw}"
        ));
    }
    Ok(p)
}

/// Parse a duration with an `ns`/`us`/`ms`/`s` suffix.
fn parse_dur(raw: &str) -> Result<Dur, String> {
    let raw = raw.trim();
    let (num, scale_ns) = if let Some(n) = raw.strip_suffix("ns") {
        (n, 1.0)
    } else if let Some(n) = raw.strip_suffix("us") {
        (n, 1e3)
    } else if let Some(n) = raw.strip_suffix("ms") {
        (n, 1e6)
    } else if let Some(n) = raw.strip_suffix('s') {
        (n, 1e9)
    } else {
        return Err(format!(
            "HPSOCK_FAULTS: duration {raw:?} needs an ns/us/ms/s suffix"
        ));
    };
    let v = num.trim().parse::<f64>().map_err(|_| {
        format!("HPSOCK_FAULTS: duration {raw:?} is not a number with an ns/us/ms/s suffix")
    })?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!(
            "HPSOCK_FAULTS: duration {raw:?} must be finite and non-negative"
        ));
    }
    Ok(Dur::nanos((v * scale_ns).round() as u64))
}

/// The verdict for one message entering the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum MsgFate {
    /// Deliver, with this much added one-way latency.
    Deliver {
        /// Latency added by triggered delay filters.
        extra: Dur,
    },
    /// Lose the whole message (all frames).
    Drop,
}

/// Per-connection compiled fault state, evaluated once per message for
/// the instant its first frame leaves the sender's NIC.
#[derive(Debug, Clone)]
pub struct ConnFaults {
    chain: Vec<LinkFilterKind>,
    /// Earliest crash time of either endpoint node.
    pub(crate) cut_at: Option<SimTime>,
    /// Loss-detection latency for this link.
    pub(crate) detect: Dur,
}

impl ConnFaults {
    /// Evaluate the filter chain for one message at `now`. Every
    /// probabilistic filter draws exactly once, in chain order, so the
    /// RNG stream advances identically regardless of verdicts.
    pub(crate) fn fate(&self, now: SimTime, rng: &mut SmallRng) -> MsgFate {
        let mut dropped = self.cut_at.is_some_and(|t| now >= t);
        let mut extra = Dur::ZERO;
        for f in &self.chain {
            match *f {
                LinkFilterKind::Drop { p } => {
                    if rng.gen_unit_f64() < p {
                        dropped = true;
                    }
                }
                LinkFilterKind::Delay { p, extra: e } => {
                    if rng.gen_unit_f64() < p {
                        extra += e;
                    }
                }
                LinkFilterKind::Flap { period, down } => {
                    let phase = now.as_nanos() % period.as_nanos().max(1);
                    if phase >= period.as_nanos() - down.as_nanos() {
                        dropped = true;
                    }
                }
            }
        }
        if dropped {
            MsgFate::Drop
        } else {
            MsgFate::Deliver { extra }
        }
    }
}

/// `HPSOCK_FAULTS`: the fault plan installed on every cluster build
/// (default `None`: no fault layer state at all; an inactive spec is
/// `None` too).
pub static FAULTS: Knob<Option<Arc<FaultPlan>>> = Knob::new(
    "HPSOCK_FAULTS",
    |raw| FaultPlan::parse(raw).map(|p| p.is_active().then(|| Arc::new(p))),
    || None,
);

/// Run `f` with [`configured_plan`] returning `plan` on this thread
/// (`None` forces fault-free; see [`Knob::with`]).
pub fn with_plan<T>(plan: Option<Arc<FaultPlan>>, f: impl FnOnce() -> T) -> T {
    FAULTS.with(plan, f)
}

/// [`with_plan`] from a spec string; panics on a malformed spec (the
/// message names `HPSOCK_FAULTS`). An empty spec scopes a fault-free run.
pub fn with_spec<T>(spec: &str, f: impl FnOnce() -> T) -> T {
    let plan = FAULTS.resolve(spec).unwrap_or_else(|e| panic!("{e}"));
    with_plan(plan, f)
}

/// The active fault plan: a [`with_plan`] scope, else `HPSOCK_FAULTS`,
/// else `None`.
pub fn configured_plan() -> Option<Arc<FaultPlan>> {
    FAULTS.get()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn parse_composes_clauses() {
        let p = FaultPlan::parse("drop=0.01,delay=0.5:20us@1->2,flap=5ms:500us,crash=2@40ms")
            .expect("valid spec");
        assert!(p.is_active());
        assert_eq!(p.filters.len(), 3);
        assert_eq!(
            p.filters[0],
            LinkFilter {
                scope: LinkScope::ANY,
                kind: LinkFilterKind::Drop { p: 0.01 }
            }
        );
        assert_eq!(
            p.filters[1].scope,
            LinkScope {
                src: Some(1),
                dst: Some(2)
            }
        );
        assert_eq!(
            p.filters[1].kind,
            LinkFilterKind::Delay {
                p: 0.5,
                extra: Dur::micros(20)
            }
        );
        assert_eq!(p.crashes, vec![(2, SimTime::ZERO + Dur::millis(40))]);
        assert_eq!(p.crash_time(2), Some(SimTime::ZERO + Dur::millis(40)));
        assert_eq!(p.crash_time(0), None);
    }

    #[test]
    fn parse_recovery_knobs_and_defaults() {
        let p = FaultPlan::parse("drop=0.1,detect=250us,retries=3,backoff=2ms").unwrap();
        assert_eq!(
            p.recovery,
            RecoveryCfg {
                detect: Dur::micros(250),
                retries: 3,
                backoff: Dur::millis(2),
            }
        );
        let d = FaultPlan::parse("drop=0.1").unwrap();
        assert_eq!(d.recovery, RecoveryCfg::default());
    }

    #[test]
    fn empty_spec_is_inactive() {
        let p = FaultPlan::parse("").unwrap();
        assert!(!p.is_active());
        assert_eq!(FaultPlan::parse("  ,  ").unwrap(), p);
        assert_eq!(FAULTS.resolve("  ,  "), Ok(None), "no fault layer at all");
        assert!(FAULTS.resolve("drop=0.1").unwrap().is_some());
    }

    #[test]
    fn parse_errors_name_the_variable() {
        for bad in [
            "drop",
            "drop=2.0",
            "drop=x",
            "delay=0.5",
            "delay=0.5:10",
            "flap=1ms:2ms",
            "flap=5ms",
            "crash=1",
            "crash=x@1ms",
            "retries=-1",
            "detect=10",
            "teleport=1",
            "drop=0.1@1",
            "drop=0.1@a->b",
        ] {
            let err = FaultPlan::parse(bad).expect_err(bad);
            assert!(err.contains("HPSOCK_FAULTS"), "{bad:?}: {err}");
            assert_eq!(FAULTS.resolve(bad), Err(err));
        }
    }

    #[test]
    fn durations_parse_all_suffixes() {
        assert_eq!(parse_dur("250ns").unwrap(), Dur::nanos(250));
        assert_eq!(parse_dur(" 20us ").unwrap(), Dur::micros(20));
        assert_eq!(parse_dur("5ms").unwrap(), Dur::millis(5));
        assert_eq!(parse_dur("1.5s").unwrap(), Dur::millis(1500));
        assert_eq!(parse_dur("0.5us").unwrap(), Dur::nanos(500));
        assert!(parse_dur("10").is_err(), "suffix required");
        assert!(parse_dur("-1ms").is_err());
    }

    #[test]
    fn scope_filters_compile_per_link() {
        let p = FaultPlan::parse("drop=0.5@0->1,delay=1.0:10us@*->1,crash=3@1ms").unwrap();
        let c01 = p.compile(0, 1).expect("both filters apply");
        assert_eq!(c01.chain.len(), 2);
        let c21 = p.compile(2, 1).expect("delay applies");
        assert_eq!(c21.chain.len(), 1);
        assert!(p.compile(1, 0).is_none(), "untouched link compiles to None");
        let c03 = p.compile(0, 3).expect("crash of node 3 cuts the link");
        assert!(c03.chain.is_empty());
        assert_eq!(c03.cut_at, Some(SimTime::ZERO + Dur::millis(1)));
    }

    #[test]
    fn fate_is_deterministic_and_draws_uniformly() {
        let plan = FaultPlan::parse("drop=0.3,delay=0.5:10us").unwrap();
        let cf = plan.compile(0, 1).unwrap();
        let run = || {
            let mut rng = SmallRng::seed_from_u64(42);
            (0..64)
                .map(|i| cf.fate(SimTime::from_nanos(i * 1000), &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run(), "same seed, same fates");
        let fates = run();
        assert!(fates.iter().any(|f| matches!(f, MsgFate::Drop)));
        assert!(fates
            .iter()
            .any(|f| matches!(f, MsgFate::Deliver { extra } if *extra > Dur::ZERO)));
    }

    #[test]
    fn flap_drops_only_in_the_down_window() {
        let plan = FaultPlan::parse("flap=1ms:100us").unwrap();
        let cf = plan.compile(0, 1).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        let up = cf.fate(SimTime::from_nanos(100_000), &mut rng);
        assert!(matches!(up, MsgFate::Deliver { .. }));
        let down = cf.fate(SimTime::from_nanos(950_000), &mut rng);
        assert_eq!(down, MsgFate::Drop);
        let next_up = cf.fate(SimTime::from_nanos(1_000_000), &mut rng);
        assert!(
            matches!(next_up, MsgFate::Deliver { .. }),
            "next period is up"
        );
    }

    #[test]
    fn crash_cuts_after_the_scheduled_time() {
        let plan = FaultPlan::parse("crash=1@1ms").unwrap();
        let cf = plan.compile(0, 1).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(matches!(
            cf.fate(SimTime::from_nanos(999_999), &mut rng),
            MsgFate::Deliver { .. }
        ));
        assert_eq!(
            cf.fate(SimTime::from_nanos(1_000_000), &mut rng),
            MsgFate::Drop
        );
    }

    #[test]
    fn with_plan_overrides_and_restores() {
        // Nesting and unwind restore are the knob's (`hpsock_sim::knob`);
        // this checks the public functions read and write the same knob.
        let plan = Arc::new(FaultPlan::parse("drop=0.5").unwrap());
        let seen = with_plan(Some(Arc::clone(&plan)), || FAULTS.get());
        assert_eq!(seen.as_deref(), Some(plan.as_ref()));
        assert!(FAULTS.with(None, configured_plan).is_none());
        let via_spec = with_spec("drop=0.25", configured_plan);
        assert_eq!(via_spec.unwrap().filters.len(), 1);
        assert!(
            with_spec("", configured_plan).is_none(),
            "an empty spec scopes a fault-free run"
        );
    }
}
