//! Host-time benchmark of the hpsock simulator.
//!
//! `hpsock-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload's fixed job list (generated from the seed) several
//! times, one job after another on the main thread, checks every job's
//! output and prints one JSON result as its last line: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! See `perfbench/README.md` for the metrics and workloads.

mod calib;
mod host;
mod jobs;
mod lb;
mod rack;
mod stats;
mod trace;
mod viz;

use jobs::{CountSink, Ctx, JobOut, Workload};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use trace::{Counts, Tracer, SPAN_NAMES};

/// Workload names, as `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["viz_guarantee", "rack_flow", "lb_faults", "rack_sharded"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rustc: String,
    commit: String,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        rustc: "unknown".into(),
        commit: "unknown".into(),
        out: PathBuf::from("perfbench/out"),
    };
    let mut seed = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = val,
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => a.seconds = val.parse::<f64>().map_err(|e| bad(&e))?,
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--rustc" => a.rustc = val,
            "--commit" => a.commit = val,
            "--out" => a.out = PathBuf::from(val),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            a.workload
        ));
    }
    if !(a.seconds > 0.0 && a.seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {}", a.seconds));
    }
    a.seed = seed.ok_or("--seed is required")?;
    Ok(a)
}

/// Abort if any `HPSOCK_*` variable is set: each one silently changes
/// what the simulator runs (shards, network model, faults, scale...).
fn check_env() -> Result<(), String> {
    let mut set: Vec<String> = std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .filter(|k| k.starts_with("HPSOCK_"))
        .collect();
    set.sort();
    match set.first() {
        None => Ok(()),
        Some(k) => Err(format!(
            "{k} is set in the environment; HPSOCK_* variables change what the simulator \
             runs, so the benchmark refuses to run with any of them ({})",
            set.join(", ")
        )),
    }
}

fn build(a: &Args) -> Workload {
    match a.workload.as_str() {
        "viz_guarantee" => viz::workload(a.seed),
        "rack_flow" => rack::flow_workload(a.seed),
        "lb_faults" => lb::workload(a.seed),
        "rack_sharded" => rack::sharded_workload(a.seed),
        other => unreachable!("workload {other} passed validation"),
    }
}

/// One job run of a repetition.
struct JobRun {
    /// Host ns of the whole job.
    ns: u64,
    /// Host slowdown around the job: the mean of the calibration chunks
    /// just before and just after it, over the reference chunk time.
    slowdown: f64,
    /// What the job reported (`None` = panicked).
    out: Option<JobOut>,
}

impl JobRun {
    /// Host ns `ns` measured during this job, at reference-host speed.
    fn at_ref(&self, ns: u64) -> f64 {
        ns as f64 / self.slowdown
    }
}

/// One repetition of the job list.
struct Rep {
    jobs: Vec<JobRun>,
}

impl Rep {
    /// The jobs' summed host ns, at reference-host speed.
    fn wall_ns(&self) -> f64 {
        self.jobs.iter().map(|j| j.at_ref(j.ns)).sum()
    }

    /// Sum of the count `f` picks from each job.
    fn total(&self, f: impl Fn(&JobOut) -> u64) -> u64 {
        self.jobs.iter().filter_map(|j| j.out.as_ref()).map(f).sum()
    }

    /// Time-weighted host slowdown of the repetition.
    fn slowdown(&self) -> f64 {
        self.jobs.iter().map(|j| j.ns).sum::<u64>() as f64 / self.wall_ns()
    }
}

/// Run the job list once. A calibration chunk runs before every job and
/// after the last, so each job is bracketed by two.
fn run_rep(
    wl: &Workload,
    tr: &mut Tracer,
    cal: &mut calib::Calibrator,
    count: Option<&CountSink>,
    seq: &mut u32,
) -> Rep {
    let mut runs: Vec<(u64, Option<JobOut>)> = Vec::with_capacity(wl.jobs.len());
    let mut chunks = vec![cal.chunk()];
    for job in &wl.jobs {
        tr.set_job(*seq);
        *seq += 1;
        let t = Instant::now();
        let span = tr.open("job");
        let out = catch_unwind(AssertUnwindSafe(|| (job.run)(&mut Ctx { tr, count })));
        tr.close(span.filter(|_| out.is_ok()));
        runs.push((jobs::ns_since(t), out.ok()));
        chunks.push(cal.chunk());
    }
    let jobs = runs
        .into_iter()
        .zip(chunks.windows(2))
        .map(|((ns, out), c)| JobRun {
            ns,
            slowdown: (c[0] + c[1]) as f64 / (2.0 * calib::REFERENCE_CHUNK_NS),
            out,
        })
        .collect();
    Rep { jobs }
}

/// Failed job runs of `reps`: panicked, failed their check, or gave a
/// different trace digest than the first repetition.
fn failures(wl: &Workload, reps: &[&Rep], log: &mut Vec<String>) -> u64 {
    let mut failed = 0;
    for rep in reps {
        for (i, run) in rep.jobs.iter().enumerate() {
            let label = &wl.jobs[i].label;
            let first = reps[0].jobs[i].out.as_ref().map(|o| o.digest);
            let why = match &run.out {
                None => Some("panicked".to_string()),
                Some(o) => match &o.check {
                    Err(e) => Some(e.clone()),
                    Ok(()) if Some(o.digest) != first => Some(format!(
                        "digest {:x} differs from the first repetition",
                        o.digest
                    )),
                    Ok(()) => None,
                },
            };
            if let Some(why) = why {
                failed += 1;
                if log.len() < 20 {
                    log.push(format!("{label}: {why}"));
                }
            }
        }
    }
    failed
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Sum over the job list of each job's median, over `reps`, of the value
/// `f` picks from its runs. One job run whose calibration went astray
/// cannot move this, as it can move a repetition's sum.
fn job_medians(reps: &[Rep], f: impl Fn(&JobRun) -> Option<f64>) -> f64 {
    let jobs = reps.first().map_or(0, |r| r.jobs.len());
    (0..jobs)
        .map(|i| {
            stats::median(
                &reps
                    .iter()
                    .filter_map(|r| f(&r.jobs[i]))
                    .collect::<Vec<_>>(),
            )
        })
        .sum()
}

/// Host ns of the job list at reference-host speed (see [`job_medians`]).
fn wall_ns(reps: &[Rep]) -> f64 {
    job_medians(reps, |j| Some(j.at_ref(j.ns)))
}

/// Host ns of the component `f` picks from each job's report.
fn part_ns(reps: &[Rep], f: impl Fn(&JobOut) -> u64) -> f64 {
    job_medians(reps, |j| j.out.as_ref().map(|o| j.at_ref(f(o))))
}

/// End-to-end metrics from untraced repetitions.
fn end_to_end(reps: &[Rep], info: &mut Vec<String>) -> Vec<Metric> {
    let job_ms: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.jobs.iter().map(|j| ms(j.at_ref(j.ns))))
        .collect();
    let (tail_p, tail) = stats::tail(&job_ms).expect("repetitions hold at least 11 job runs");
    info.push(format!(
        "job_ms_tail is p{tail_p:.2} of {} job runs ({} jobs x {} repetitions)",
        job_ms.len(),
        reps[0].jobs.len(),
        reps.len()
    ));
    let walls: Vec<String> = reps
        .iter()
        .map(|r| format!("{:.1}/{:.3}", ms(r.wall_ns() * r.slowdown()), r.slowdown()))
        .collect();
    info.push(format!(
        "unscaled repetition wall ms / host slowdown: {}",
        walls.join(" ")
    ));
    vec![
        ("wall_s", wall_ns(reps) / 1e9, "s"),
        ("job_ms_p50", stats::median(&job_ms), "ms"),
        ("job_ms_tail", tail, "ms"),
        ("setup_s", part_ns(reps, |o| o.setup_ns) / 1e9, "s"),
        ("peak_rss_mb", host::peak_rss_mb(), "MiB"),
    ]
}

/// Host µs of one `max_min_rates` call on a rack fabric like
/// `rack_flow`'s: per-node send/receive links, per-rack up/down links at
/// a quarter of the rack's node bandwidth, and `flows` flows from random
/// nodes of the first half to random nodes of the second. Median of
/// `calls` calls.
fn max_min_us(seed: u64, nodes: usize, flows: usize, calls: usize) -> f64 {
    const PER_RACK: usize = 16;
    let racks = nodes / PER_RACK;
    let mut caps = vec![1.0; 2 * nodes];
    caps.resize(2 * nodes + 2 * racks, PER_RACK as f64 / 4.0);
    let (up, down) = (2 * nodes, 2 * nodes + racks);
    let mut rng = jobs::Rng::new(seed);
    let paths: Vec<Vec<(usize, f64)>> = (0..flows)
        .map(|_| {
            let src = rng.range(0, nodes as u64 / 2 - 1) as usize;
            let dst = rng.range(nodes as u64 / 2, nodes as u64 - 1) as usize;
            let (rs, rd) = (src / PER_RACK, dst / PER_RACK);
            let mut p = vec![(2 * src, 1.0), (2 * dst + 1, 1.0)];
            if rs != rd {
                p.extend([(up + rs, 1.0), (down + rd, 1.0)]);
            }
            p
        })
        .collect();
    let times: Vec<f64> = (0..calls)
        .map(|_| {
            let t = Instant::now();
            let rates = hpsock_net::max_min_rates(std::hint::black_box(&caps), &paths);
            std::hint::black_box(rates);
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    stats::median(&times)
}

/// Per-layer metrics of the traced run.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    a: &Args,
    plain: &[Rep],
    spans: &[Rep],
    span_self: &[BTreeMap<&'static str, f64>],
    span_totals: &[BTreeMap<&'static str, f64>],
    count_rep: &Rep,
    c: &Counts,
) -> Vec<Metric> {
    let events = count_rep.total(|o| o.events) as f64;
    let run_ns = part_ns(spans, |o| o.run_ns);
    let total =
        |name: &str| stats::median(&span_totals.iter().map(|t| t[name]).collect::<Vec<_>>());
    let untraced_wall = wall_ns(plain) / 1e9;
    let vizserver = c.viz_queries > 0;
    let flow = a.workload == "rack_flow";
    let sharded = a.workload == "rack_sharded";
    let mut m: Vec<Metric> = vec![
        ("sim.events", events, "count"),
        ("sim.run_s", run_ns / 1e9, "s"),
        ("sim.ns_per_event", ratio(run_ns, events), "ns"),
        ("shard.rounds", c.shard_rounds as f64, "count"),
        (
            "shard.events_per_round_p50",
            stats::median(&c.shard_round_p50),
            "count",
        ),
        (
            "shard.barrier_wait_frac",
            ratio(c.shard_barrier_ns as f64, c.shard_worker_ns as f64),
            "fraction",
        ),
        (
            "shard.speedup",
            if sharded {
                rack::shard_speedup(a.seed, 3)
            } else {
                0.0
            },
            "x",
        ),
        ("net.msgs", c.net_msgs as f64, "count"),
        ("net.frames_tx", c.net_frames_tx as f64, "count"),
        ("net.rx_interrupts", c.net_rx_interrupts as f64, "count"),
        (
            "net.credit_stall_ms",
            ms(c.net_credit_stall_ns as f64),
            "ms",
        ),
        (
            "net.events_per_msg",
            ratio(events, c.net_msgs as f64),
            "count",
        ),
        ("net.cluster_build_ms", ms(total("setup.cluster")), "ms"),
        ("fluid.flows", c.flows as f64, "count"),
        (
            "fluid.ns_per_flow",
            if flow {
                ratio(run_ns, c.flows as f64)
            } else {
                0.0
            },
            "ns",
        ),
        (
            "fluid.max_min_us",
            if flow {
                max_min_us(a.seed, 128, 1024, 9) + max_min_us(a.seed ^ 1, 512, 4096, 5)
            } else {
                0.0
            },
            "us",
        ),
        ("net.fault.dropped", c.fault_dropped as f64, "count"),
        ("net.fault.lost", c.fault_lost as f64, "count"),
        ("dc.buffers", c.dc_buffers as f64, "count"),
        ("dc.ns_per_buffer", ratio(run_ns, c.dc_buffers as f64), "ns"),
        ("dc.acks", c.dc_acks as f64, "count"),
        ("dc.retries", c.dc_retries as f64, "count"),
        ("dc.failovers", c.dc_failovers as f64, "count"),
        ("dc.stale", c.dc_stale as f64, "count"),
        (
            "dc.useful_frac",
            ratio(c.tracked_distinct as f64, c.tracked_buffers as f64),
            "fraction",
        ),
        ("viz.queries", c.viz_queries as f64, "count"),
        (
            "viz.plan_us",
            if vizserver { total("plan") / 1e3 } else { 0.0 },
            "us",
        ),
        (
            "viz.build_ms",
            if vizserver {
                ms(total("setup.pipeline") + total("setup.driver") + total("setup.queries"))
            } else {
                0.0
            },
            "ms",
        ),
        (
            "viz.partial_us",
            ratio(c.viz_partial.0, c.viz_partial.1 as f64),
            "us",
        ),
        (
            "viz.complete_us",
            ratio(c.viz_complete.0, c.viz_complete.1 as f64),
            "us",
        ),
        (
            "trace.overhead_s",
            wall_ns(spans) / 1e9 - untraced_wall,
            "s",
        ),
        (
            "trace.count_overhead_s",
            count_rep.wall_ns() / 1e9 - untraced_wall,
            "s",
        ),
    ];
    for name in SPAN_NAMES {
        let self_ms = stats::median(&span_self.iter().map(|t| t[name]).collect::<Vec<_>>());
        m.push((span_metric_name(name), ms(self_ms), "ms"));
    }
    m
}

fn span_metric_name(span: &str) -> &'static str {
    match span {
        "job" => "span.job.self_ms",
        "plan" => "span.plan.self_ms",
        "setup.cluster" => "span.setup.cluster.self_ms",
        "setup.driver" => "span.setup.driver.self_ms",
        "setup.pipeline" => "span.setup.pipeline.self_ms",
        "setup.queries" => "span.setup.queries.self_ms",
        "sim.run" => "span.sim.run.self_ms",
        "readout" => "span.readout.self_ms",
        other => unreachable!("unknown span {other}"),
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let a = match parse_args().and_then(|a| check_env().map(|()| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut wl = build(&a);
    let host = host::descriptor(&a.rustc, &a.commit, &a.workload, a.seed, a.trace);
    println!("host: {host}");

    // One-off checks outside the timing; they also warm up the process.
    let mut log = Vec::new();
    let t = Instant::now();
    let mut pre_failed = 0u64;
    for check in std::mem::take(&mut wl.pre_checks) {
        let why = match catch_unwind(AssertUnwindSafe(check)) {
            Ok(Ok(())) => continue,
            Ok(Err(e)) => e,
            Err(_) => "pre-check panicked".to_string(),
        };
        pre_failed += 1;
        log.push(format!("pre-check: {why}"));
    }
    println!("pre-checks: {:.2} s", t.elapsed().as_secs_f64());
    host::reset_peak_rss();

    // Fixed by --seconds alone, at least 3 and enough for a tail.
    let reps = ((a.seconds / wl.nominal_rep_s).round() as usize)
        .max(3)
        .max(11usize.div_ceil(wl.jobs.len()));
    let mut tr = Tracer::new();
    let mut cal = calib::Calibrator::new();
    let mut seq = 0u32;
    let mut info = Vec::new();
    let (attempted, failed, metrics) = if !a.trace {
        let runs: Vec<Rep> = (0..reps)
            .map(|_| run_rep(&wl, &mut tr, &mut cal, None, &mut seq))
            .collect();
        let failed = failures(&wl, &runs.iter().collect::<Vec<_>>(), &mut log);
        let attempted = (runs.len() * wl.jobs.len()) as u64;
        info.push(format!(
            "failed_frac = {}",
            ratio(failed as f64, attempted as f64)
        ));
        (attempted, failed, end_to_end(&runs, &mut info))
    } else {
        let plain: Vec<Rep> = (0..(reps / 3).max(2))
            .map(|_| run_rep(&wl, &mut tr, &mut cal, None, &mut seq))
            .collect();
        tr.set_enabled(true);
        let mut spans = Vec::new();
        let mut span_self = Vec::new();
        let mut span_totals = Vec::new();
        for _ in 0..(reps / 2).max(3) {
            let cursor = tr.len();
            let rep = run_rep(&wl, &mut tr, &mut cal, None, &mut seq);
            let mut own: BTreeMap<&'static str, f64> = BTreeMap::new();
            for (n, ns) in tr.self_ns_since(cursor) {
                own.insert(n, ns as f64 / rep.slowdown());
            }
            span_self.push(own);
            span_totals.push(
                SPAN_NAMES
                    .iter()
                    .map(|&n| (n, tr.total_ns_since(cursor, n) as f64 / rep.slowdown()))
                    .collect(),
            );
            spans.push(rep);
        }
        let telemetry_dir = a.out.join(format!("telemetry-{}", a.workload));
        let sink = CountSink {
            counts: Arc::new(Mutex::new(Counts::default())),
            telemetry_dir,
        };
        let count_rep = run_rep(&wl, &mut tr, &mut cal, Some(&sink), &mut seq);
        let all: Vec<&Rep> = plain.iter().chain(&spans).chain([&count_rep]).collect();
        let failed = failures(&wl, &all, &mut log);
        let attempted = (all.len() * wl.jobs.len()) as u64;
        let counts = sink.counts.lock().expect("counts lock").clone();
        let m = per_layer(
            &a,
            &plain,
            &spans,
            &span_self,
            &span_totals,
            &count_rep,
            &counts,
        );
        let path = a.out.join(format!("spans-{}-{}.json", a.workload, a.seed));
        let doc = format!("{{\"host\": {host}, \"spans\": {}}}\n", tr.to_json());
        match std::fs::create_dir_all(&a.out).and_then(|()| std::fs::write(&path, doc)) {
            Ok(()) => info.push(format!("spans written to {}", path.display())),
            Err(e) => info.push(format!("cannot write {}: {e}", path.display())),
        }
        (attempted, failed, m)
    };
    for line in log.iter().chain(&info) {
        println!("{line}");
    }
    let correct = failed == 0 && pre_failed == 0;
    println!("{}", result_line(correct, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
