//! Filter groups: declaring an application's processing structure and
//! instantiating it onto a cluster.
//!
//! A [`GroupBuilder`] collects filter declarations (name, placement of
//! transparent copies, logic factory) and logical streams between them,
//! then [`GroupBuilder::instantiate`] creates one [`FilterProcess`] per
//! copy, establishes every producer-copy → consumer-copy duplex connection
//! through the chosen sockets [`Provider`] (connections are set up before
//! the run, as in DataCutter), and installs the wiring.

use crate::filter::{CopyWiring, FilterProcess, InputWiring, OutputWiring, Route, UowStartMsg};
use crate::logic::{FilterLogic, SpeedModel};
use crate::sched::Policy;
use hpsock_net::{Cluster, NodeId};
use hpsock_sim::{FxHashMap, Message, ProcessId, Sim, SimTime};
use socketvia::Provider;
use std::any::Any;
use std::sync::{Arc, Mutex};

/// Handle to a declared filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterHandle(pub usize);

/// Handle to a declared stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamHandle(pub usize);

/// Factory producing the logic for copy `i` of a filter.
pub type LogicFactory = Box<dyn FnMut(usize) -> Box<dyn FilterLogic>>;

struct FilterDef {
    name: String,
    placement: Vec<NodeId>,
    factory: LogicFactory,
    speeds: Vec<SpeedModel>,
    ack_log: bool,
}

struct StreamDef {
    from: FilterHandle,
    to: FilterHandle,
    policy: Policy,
    provider: Provider,
}

/// Declarative description of a filter group.
#[derive(Default)]
pub struct GroupBuilder {
    filters: Vec<FilterDef>,
    streams: Vec<StreamDef>,
}

impl GroupBuilder {
    /// An empty group.
    pub fn new() -> GroupBuilder {
        GroupBuilder::default()
    }

    /// Declare a filter with one transparent copy per placement node.
    pub fn filter(
        &mut self,
        name: impl Into<String>,
        placement: Vec<NodeId>,
        factory: LogicFactory,
    ) -> FilterHandle {
        assert!(!placement.is_empty(), "a filter needs at least one copy");
        let speeds = vec![SpeedModel::default(); placement.len()];
        self.filters.push(FilterDef {
            name: name.into(),
            placement,
            factory,
            speeds,
            ack_log: false,
        });
        FilterHandle(self.filters.len() - 1)
    }

    /// Set the compute speed model of one copy (heterogeneity emulation).
    pub fn set_speed(&mut self, f: FilterHandle, copy: usize, model: SpeedModel) {
        self.filters[f.0].speeds[copy] = model;
    }

    /// Record per-buffer send→ack round-trips on this filter's outputs.
    pub fn enable_ack_log(&mut self, f: FilterHandle) {
        self.filters[f.0].ack_log = true;
    }

    /// Declare a logical stream `from → to` with a scheduling `policy`,
    /// carried by `provider`'s transport.
    pub fn stream(
        &mut self,
        from: FilterHandle,
        to: FilterHandle,
        policy: Policy,
        provider: &Provider,
    ) -> StreamHandle {
        assert_ne!(from, to, "self-streams are not supported");
        self.streams.push(StreamDef {
            from,
            to,
            policy,
            provider: provider.clone(),
        });
        StreamHandle(self.streams.len() - 1)
    }

    /// Create every copy process and connection inside `sim`/`cluster`.
    pub fn instantiate(mut self, sim: &mut Sim, cluster: &Cluster) -> Instance {
        let net = cluster.network();
        // 1. Create all copy processes; wiring arrives through slots.
        let mut pids: Vec<Vec<ProcessId>> = Vec::with_capacity(self.filters.len());
        let mut slots: Vec<Vec<Arc<Mutex<Option<CopyWiring>>>>> = Vec::new();
        for def in &mut self.filters {
            let copies = def.placement.len();
            let mut fp = Vec::with_capacity(copies);
            let mut fs = Vec::with_capacity(copies);
            for copy in 0..copies {
                let slot = Arc::new(Mutex::new(None));
                let proc = FilterProcess::new(
                    def.name.clone(),
                    copy,
                    copies,
                    (def.factory)(copy),
                    net.clone(),
                    Arc::clone(&slot),
                );
                fp.push(sim.add_process(Box::new(proc)));
                fs.push(slot);
            }
            pids.push(fp);
            slots.push(fs);
        }

        // 2. Port numbering: the i-th stream leaving (entering) a filter is
        //    its output (input) port i, in declaration order.
        let mut wirings: Vec<Vec<CopyWiring>> = self
            .filters
            .iter()
            .map(|def| {
                def.placement
                    .iter()
                    .zip(&def.speeds)
                    .map(|(&node, &speed)| CopyWiring {
                        node,
                        cpu: cluster.cpu(node),
                        inputs: Vec::new(),
                        outputs: Vec::new(),
                        routes: FxHashMap::default(),
                        speed,
                        ack_log: def.ack_log,
                        recovery: cluster.fault_recovery(),
                        crash_at: cluster.crash_time(node),
                    })
                    .collect()
            })
            .collect();

        for sdef in &self.streams {
            let (fi, ti) = (sdef.from.0, sdef.to.0);
            let out_port = wirings[fi][0].outputs.len();
            let in_port = wirings[ti][0].inputs.len();
            let producers = self.filters[fi].placement.len();
            let consumers = self.filters[ti].placement.len();
            for w in &mut wirings[fi] {
                w.outputs.push(OutputWiring {
                    policy: sdef.policy,
                    data_conns: Vec::with_capacity(consumers),
                });
            }
            for w in &mut wirings[ti] {
                w.inputs.push(InputWiring {
                    policy: sdef.policy,
                    producers,
                    ack_conns: Vec::with_capacity(producers),
                });
            }
            for pc in 0..producers {
                for cc in 0..consumers {
                    let p_ep = cluster.endpoint(self.filters[fi].placement[pc], pids[fi][pc]);
                    let c_ep = cluster.endpoint(self.filters[ti].placement[cc], pids[ti][cc]);
                    let (fwd, rev) = sdef.provider.duplex(&net, p_ep, c_ep);
                    let pw = &mut wirings[fi][pc];
                    pw.outputs[out_port].data_conns.push(fwd);
                    pw.routes.insert(
                        rev,
                        Route::AckIn {
                            port: out_port,
                            consumer: cc,
                        },
                    );
                    let cw = &mut wirings[ti][cc];
                    cw.inputs[in_port].ack_conns.push(rev);
                    cw.routes.insert(
                        fwd,
                        Route::DataIn {
                            port: in_port,
                            producer: pc,
                        },
                    );
                }
            }
        }

        // 3. Install the wiring.
        for (f, fw) in wirings.into_iter().enumerate() {
            for (c, w) in fw.into_iter().enumerate() {
                *slots[f][c].lock().expect("wiring lock") = Some(w);
            }
        }

        Instance {
            names: self.filters.iter().map(|d| d.name.clone()).collect(),
            placements: self.filters.iter().map(|d| d.placement.clone()).collect(),
            pids,
        }
    }
}

/// A running (instantiated) filter group.
pub struct Instance {
    names: Vec<String>,
    placements: Vec<Vec<NodeId>>,
    pids: Vec<Vec<ProcessId>>,
}

impl Instance {
    /// Process ids of every copy of filter `f`.
    pub fn pids(&self, f: FilterHandle) -> &[ProcessId] {
        &self.pids[f.0]
    }

    /// Name of filter `f`.
    pub fn name(&self, f: FilterHandle) -> &str {
        &self.names[f.0]
    }

    /// Placement of filter `f`'s copies.
    pub fn placement(&self, f: FilterHandle) -> &[NodeId] {
        &self.placements[f.0]
    }

    /// Schedule a unit of work to start at `at` on every copy of the
    /// (source) filter `f` (called before the run).
    pub fn start_uow_at(
        &self,
        sim: &mut Sim,
        at: SimTime,
        f: FilterHandle,
        uow: u32,
        desc: Arc<dyn Any + Send + Sync>,
    ) {
        for &pid in self.pids(f) {
            sim.schedule_at(
                at,
                pid,
                Message::new(UowStartMsg {
                    uow,
                    desc: Arc::clone(&desc),
                }),
            );
        }
    }

    /// Read a copy's runtime state/statistics after the run.
    pub fn copy<'s>(&self, sim: &'s Sim, f: FilterHandle, copy: usize) -> &'s FilterProcess {
        sim.process::<FilterProcess>(self.pids[f.0][copy])
            .expect("filter process present")
    }
}
