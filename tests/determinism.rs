//! Cross-crate determinism: identical seeds produce bit-identical event
//! traces through the full stack (kernel → transports → DataCutter →
//! application), and different seeds genuinely diverge where randomness is
//! involved.

use hpsock_net::{Cluster, TransportKind};
use hpsock_sim::{Recorder, Sim};
use hpsock_vizserver::{
    complete_update, zoom_query, BlockedImage, ComputeModel, PipelineCfg, Plan, QueryDesc,
    QueryDriver, VizPipeline,
};
use socketvia::Provider;

fn run_pipeline(seed: u64, kind: TransportKind) -> (u64, u64, f64) {
    run_pipeline_probed(seed, kind, None)
}

fn run_pipeline_probed(seed: u64, kind: TransportKind, rec: Option<&Recorder>) -> (u64, u64, f64) {
    let img = BlockedImage::paper_image(262_144);
    let queries: Vec<QueryDesc> = vec![zoom_query(&img), complete_update(&img), zoom_query(&img)];
    let mut sim = Sim::new(seed);
    if let Some(r) = rec {
        sim.attach_probe(r.probe());
    }
    let cluster = Cluster::build(&mut sim, VizPipeline::nodes_needed(3));
    let cfg = PipelineCfg::paper(Provider::new(kind), ComputeModel::paper_linear());
    let (driver_pid, targets) = QueryDriver::install(&mut sim, Plan::ClosedLoop(queries));
    let pipe = VizPipeline::build(&mut sim, &cluster, &cfg, driver_pid);
    *targets.lock().unwrap() = pipe.repo_pids();
    sim.run();
    let d: &QueryDriver = sim.process(driver_pid).unwrap();
    (
        sim.trace_digest(),
        sim.events_dispatched(),
        d.mean_latency_all_us().unwrap(),
    )
}

#[test]
fn same_seed_same_trace_socketvia() {
    assert_eq!(
        run_pipeline(7, TransportKind::SocketVia),
        run_pipeline(7, TransportKind::SocketVia)
    );
}

#[test]
fn same_seed_same_trace_tcp() {
    assert_eq!(
        run_pipeline(7, TransportKind::KTcp),
        run_pipeline(7, TransportKind::KTcp)
    );
}

/// The probe bus is purely observational: attaching a [`Recorder`] must
/// leave the trace digest, dispatch count and measured latencies
/// bit-identical to the unprobed run — probes draw no randomness and
/// insert no events.
#[test]
fn recorder_does_not_perturb_the_trace() {
    for kind in [TransportKind::SocketVia, TransportKind::KTcp] {
        let bare = run_pipeline(7, kind);
        let rec = Recorder::new();
        let probed = run_pipeline_probed(7, kind, Some(&rec));
        assert_eq!(bare, probed, "recorder perturbed a {kind:?} run");
        assert!(rec.dispatches() > 0, "recorder saw kernel dispatches");
        assert!(!rec.is_empty(), "recorder buffered probe events");
        assert_eq!(
            rec.dispatches(),
            probed.1,
            "recorder counted every dispatch"
        );
    }
}

/// Payload storage strategy (inline vs forced-boxed) is invisible to the
/// trace: the digest folds `(time, target)` per dispatch, never the
/// payload's storage kind, so the same workload run with `Message::new`
/// (inline/pooled) and with `Payload::boxed` (heap) must be bit-identical.
#[test]
fn payload_storage_kind_does_not_change_the_digest() {
    use hpsock_sim::{Ctx, Dur, Message, Payload, Process};

    struct Relay {
        remaining: u64,
        force_boxed: bool,
    }
    impl Process for Relay {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send_self_in(Dur::nanos(3), self.wrap(0));
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            let v = msg.downcast::<u64>().expect("relay counter");
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.trace_tag(v);
                ctx.send_self_in(Dur::nanos(1 + v % 5), self.wrap(v + 1));
            }
        }
    }
    impl Relay {
        fn wrap(&self, v: u64) -> Message {
            if self.force_boxed {
                Payload::boxed(v)
            } else {
                Message::new(v)
            }
        }
    }

    fn digest_of(force_boxed: bool) -> (u64, u64) {
        let mut sim = Sim::new(5);
        sim.add_process(Box::new(Relay {
            remaining: 500,
            force_boxed,
        }));
        sim.run();
        (sim.trace_digest(), sim.events_dispatched())
    }

    assert_eq!(digest_of(false), digest_of(true));
}

#[test]
fn heterogeneous_runs_are_seed_reproducible_and_seed_sensitive() {
    use hpsock_vizserver::{dd_execution_time, LbSetup};
    let setup = LbSetup::paper(TransportKind::SocketVia);
    let a1 = dd_execution_time(&setup, 0.5, 8.0, 256, 11);
    let a2 = dd_execution_time(&setup, 0.5, 8.0, 256, 11);
    assert_eq!(a1, a2, "same seed, same execution time");
    let b = dd_execution_time(&setup, 0.5, 8.0, 256, 12);
    assert_ne!(a1, b, "different seed draws different slowdowns");
}

/// The probed variants of the LB and query drivers are observational
/// too: a probed fig10 sweep renders a byte-identical table to the
/// unprobed one, and probed fig9/fig11 measurements match the unprobed
/// runs to the bit — while the recorder demonstrably saw the run.
#[test]
fn probed_lb_runs_render_byte_identical_tables() {
    use hpsock_experiments::runner::{FIG10_SEED, FIG11_SEED, FIG9_SEED};
    use hpsock_experiments::{fig10, fig11, fig9};
    use hpsock_sim::SimTime;

    let factors = [4.0, 8.0];
    let rows_of = |probed: bool| -> Vec<fig10::Row> {
        factors
            .iter()
            .map(|&f| {
                let measure = |kind: TransportKind| {
                    if probed {
                        let rec = Recorder::new();
                        let (v, cap) =
                            fig10::reaction_probed(kind, f, FIG10_SEED, Some(rec.probe()));
                        assert!(!rec.is_empty(), "recorder buffered LB probe events");
                        assert!(cap.end > SimTime::ZERO, "capture records the end time");
                        assert_eq!(
                            cap.resource_names.len(),
                            cap.servers.len(),
                            "one server count per resource"
                        );
                        v
                    } else {
                        fig10::reaction_us(kind, f, FIG10_SEED)
                    }
                };
                fig10::Row {
                    factor: f,
                    sv: vec![measure(TransportKind::SocketVia)],
                    tcp: vec![measure(TransportKind::KTcp)],
                }
            })
            .collect()
    };
    let bare = fig10::to_table(&rows_of(false)).to_csv();
    let probed = fig10::to_table(&rows_of(true)).to_csv();
    assert_eq!(bare, probed, "probing perturbed the fig10 table");

    let rec = Recorder::new();
    let (probed_us, cap) =
        fig11::exec_probed(TransportKind::KTcp, 0.5, 4.0, FIG11_SEED, Some(rec.probe()));
    let bare_us = fig11::exec_us(TransportKind::KTcp, 0.5, 4.0, FIG11_SEED);
    assert_eq!(
        bare_us.to_bits(),
        probed_us.to_bits(),
        "probing perturbed fig11: {bare_us} vs {probed_us}"
    );
    assert!(!rec.is_empty(), "recorder buffered DD probe events");
    assert!(cap.end > SimTime::ZERO);

    let rec = Recorder::new();
    let (probed_ms, _) = fig9::mean_response_probed(
        TransportKind::SocketVia,
        ComputeModel::None,
        8,
        0.5,
        3,
        FIG9_SEED,
        Some(rec.probe()),
    );
    let bare_ms = fig9::mean_response_ms(
        TransportKind::SocketVia,
        ComputeModel::None,
        8,
        0.5,
        3,
        FIG9_SEED,
    );
    assert_eq!(
        bare_ms.to_bits(),
        probed_ms.to_bits(),
        "probing perturbed fig9: {bare_ms} vs {probed_ms}"
    );
    assert!(!rec.is_empty(), "recorder buffered query-mix probe events");
}

#[test]
fn microbench_results_are_deterministic() {
    use socketvia::microbench;
    let p = Provider::new(TransportKind::SocketVia);
    let a = microbench::oneway_us(&p, 1_024, 8);
    let b = microbench::oneway_us(&p, 1_024, 8);
    assert_eq!(a.to_bits(), b.to_bits());
    let bw1 = microbench::streaming_mbps(&p, 8_192, 64);
    let bw2 = microbench::streaming_mbps(&p, 8_192, 64);
    assert_eq!(bw1.to_bits(), bw2.to_bits());
}

/// The fig4 micro-benchmarks run a sequential 2-node cluster. Its
/// ping-pong, rebuilt here on the public API with the node split installed
/// as an explicit plan, replays the sequential run on 2 shards for every
/// fig4 transport, and the sequential run reproduces the fig4 latency
/// table's value bit for bit. (The streaming half is
/// `cluster::tests::sharded_cluster_run_matches_sequential`.)
#[test]
fn fig4_tables_are_shard_count_invariant() {
    use hpsock_net::{ConnId, Delivery, Network, NodeId};
    use hpsock_sim::{Ctx, Message, Process, SimTime};
    use socketvia::microbench;

    const WARMUP: u32 = 4;
    struct Pinger {
        net: Network,
        bytes: u64,
        remaining: u32,
        warmup: u32,
        rtt_us_sum: f64,
        rtt_count: u32,
        sent_at: SimTime,
    }
    impl Process for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.sent_at = ctx.now();
            self.net.send(ctx, ConnId(0), self.bytes, Message::new(()));
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            let d = msg
                .downcast::<Delivery>()
                .expect("pinger expects deliveries");
            self.net.consumed(ctx, d.conn, d.msg_id);
            let rtt = ctx.now().since(self.sent_at).as_micros_f64();
            if self.warmup > 0 {
                self.warmup -= 1;
            } else {
                self.rtt_us_sum += rtt;
                self.rtt_count += 1;
            }
            if self.remaining > 0 {
                self.remaining -= 1;
                self.sent_at = ctx.now();
                self.net.send(ctx, ConnId(0), self.bytes, Message::new(()));
            }
        }
    }
    struct Ponger {
        net: Network,
    }
    impl Process for Ponger {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            let d = msg
                .downcast::<Delivery>()
                .expect("ponger expects deliveries");
            self.net.consumed(ctx, d.conn, d.msg_id);
            self.net.send(ctx, ConnId(1), d.bytes, Message::new(()));
        }
    }

    let (bytes, iters) = (4_096, 6);
    let run = |provider: &Provider, shards: usize| {
        // `microbench::oneway_us`'s seed, so the sequential run is its run.
        let mut sim = Sim::new(0xBEEF);
        let cluster = Cluster::build(&mut sim, 2);
        let net = cluster.network();
        let pinger = sim.add_process(Box::new(Pinger {
            net: net.clone(),
            bytes,
            remaining: iters + WARMUP - 1,
            warmup: WARMUP,
            rtt_us_sum: 0.0,
            rtt_count: 0,
            sent_at: SimTime::ZERO,
        }));
        let ponger = sim.add_process(Box::new(Ponger { net: net.clone() }));
        provider.duplex(
            &net,
            cluster.endpoint(NodeId(0), pinger),
            cluster.endpoint(NodeId(1), ponger),
        );
        if shards > 1 {
            sim.set_shard_plan(cluster.shard_plan(shards, vec![0, 1], vec![]));
        }
        let end = sim.run();
        let p: &Pinger = sim.process(pinger).unwrap();
        assert_eq!(p.rtt_count, iters, "all measured iterations completed");
        let oneway_us = p.rtt_us_sum / (2.0 * p.rtt_count as f64);
        (
            oneway_us.to_bits(),
            end.as_nanos(),
            sim.trace_digest(),
            sim.events_dispatched(),
        )
    };
    for kind in TransportKind::PAPER_SET {
        let provider = Provider::new(kind);
        let seq = run(&provider, 1);
        assert_eq!(
            seq.0,
            microbench::oneway_us(&provider, bytes, iters).to_bits(),
            "{kind:?}: the rebuilt ping-pong is the fig4 latency run"
        );
        assert_eq!(
            run(&provider, 2),
            seq,
            "{kind:?}: 2 shards replay sequential"
        );
    }
}

// ---------------------------------------------------------------------
// Flow-model determinism: `HPSOCK_NETMODEL=flow` replaces per-segment
// wire events with fluid fair-share completions, but the digest contract
// is unchanged — same seed, same trace, and sharded execution replays
// the sequential run bit for bit. The model is injected with
// `with_netmodel` (a scoped thread-local override), never
// `std::env::set_var`, which is undefined behaviour on glibc while
// sibling tests on other threads call `getenv`. The figure pipeline's
// shard-count invariance is tested next to its partition
// (`sharding::tests`), through the builder the figures run.

/// The big rack topology under the fluid model is reproducible, on both
/// the default SocketVIA workload and the TCP gate workload whose packet
/// run is ~20× more expensive. (Flow-model clusters take no shard plan.)
#[test]
fn flow_model_big_topology_is_reproducible() {
    use hpsock_experiments::bigtopo::{self, GATE_BYTES};
    use hpsock_net::{with_netmodel, NetModel};
    with_netmodel(NetModel::Flow, || {
        let seq = bigtopo::run_big(1, 3);
        assert_eq!(seq, bigtopo::run_big(1, 3), "same seed, same fluid trace");
        let tcp = || bigtopo::run_big_custom(1, 3, TransportKind::KTcp, GATE_BYTES);
        assert_eq!(tcp(), tcp(), "same seed, same fluid TCP gate trace");
    });
}

// ---------------------------------------------------------------------
// Telemetry neutrality: `HPSOCK_TELEMETRY` measures wall-clock behaviour
// but must never touch simulated behaviour — digests, dispatch counts
// and rendered tables are byte-identical with telemetry on and off, for
// sequential and sharded runs alike. The directory is injected with
// `with_telemetry_dir` (scoped thread-local, like `with_netmodel`).

// ---------------------------------------------------------------------
// Fault-layer neutrality and reproducibility: installing the
// `net::fault` layer without an active plan must leave every figure
// byte-identical (the fault hooks sit on the delivery path of every
// transport), and an *active* seeded plan must itself be deterministic —
// same digest across invocations, because fault decisions draw from
// seeded per-connection streams, never from ambient entropy. (Across
// shard counts: `sharding::tests::seeded_fault_run_is_shard_count_invariant`.)

/// An inactive fault plan (empty spec and an explicit `None` override)
/// renders fig4 tables and the fig7 guarantee digest byte-identical to
/// a run with no fault scope installed at all.
#[test]
fn inactive_fault_plan_is_digest_and_table_neutral() {
    use hpsock_experiments::fig4;
    use hpsock_experiments::runner::{run_guarantee_traced, GuaranteeRun, FIG7_SEED};
    use hpsock_net::fault;

    let run = GuaranteeRun {
        kind: TransportKind::SocketVia,
        block_bytes: 65_536,
        compute: ComputeModel::None,
        target_ups: 2.0,
        n_complete: 5,
        n_partial: 3,
        seed: FIG7_SEED,
    };
    let observe = || {
        let (result, cap) = run_guarantee_traced(&run, None);
        let tables = format!(
            "{}\n{}",
            fig4::latency_table(3),
            fig4::bandwidth_table(1 << 18)
        );
        (format!("{result:?}"), cap.digest, cap.end, tables)
    };
    let bare = observe();
    let empty_spec = fault::with_spec("", observe);
    assert_eq!(
        bare, empty_spec,
        "an empty HPSOCK_FAULTS spec changed a digest or a table"
    );
    let none_override = fault::with_plan(None, observe);
    assert_eq!(
        bare, none_override,
        "a None fault override changed a digest or a table"
    );
}

/// A seeded fault run (1% drop on every link) is reproducible: the same
/// seed yields the same trace digest and recovery counters on every
/// invocation.
#[test]
fn seeded_fault_run_is_reproducible() {
    use hpsock_experiments::fig_faults;
    use hpsock_experiments::runner::FIG_FAULTS_SEED;

    let spec = "drop=0.01,detect=100us,backoff=100us";
    let observe = || {
        let o = fig_faults::availability_run(TransportKind::SocketVia, spec, true, FIG_FAULTS_SEED);
        format!("{o:?}")
    };
    let first = observe();
    assert_eq!(first, observe(), "same seed, same faults, same recovery");
    assert!(
        first.contains("digest"),
        "outcome debug form carries the trace digest: {first}"
    );
}

#[test]
fn telemetry_is_digest_and_table_neutral() {
    use hpsock_experiments::runner::{run_guarantee_traced, GuaranteeRun, FIG7_SEED};
    use hpsock_experiments::{bigtopo, fig4};
    use hpsock_sim::telemetry::with_telemetry_dir;

    let dir = std::env::temp_dir().join(format!("hpsock_det_tel_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let run = GuaranteeRun {
        kind: TransportKind::SocketVia,
        block_bytes: 65_536,
        compute: ComputeModel::None,
        target_ups: 2.0,
        n_complete: 5,
        n_partial: 3,
        seed: FIG7_SEED,
    };
    let observe = || {
        let (result, cap) = run_guarantee_traced(&run, None);
        let tables = format!(
            "{}\n{}",
            fig4::latency_table(3),
            fig4::bandwidth_table(1 << 18)
        );
        let sharded = bigtopo::run_big(2, 3);
        (format!("{result:?}"), cap.digest, cap.end, tables, sharded)
    };
    let bare = observe();
    let telemetered = with_telemetry_dir(Some(&dir), observe);
    assert_eq!(
        bare, telemetered,
        "telemetry changed a digest or a rendered table"
    );

    // The sharded `run_big` leg of the telemetered pass wrote real
    // output files.
    for file in ["shard_rounds.csv", "run_report.json", "shard_lanes.json"] {
        let meta = std::fs::metadata(dir.join(file))
            .unwrap_or_else(|e| panic!("{file} missing under HPSOCK_TELEMETRY: {e}"));
        assert!(meta.len() > 0, "{file} is empty");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
