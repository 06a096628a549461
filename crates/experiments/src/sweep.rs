//! Parallel parameter sweeps.
//!
//! Each sweep point runs an *independent* deterministic simulation, so
//! points parallelize perfectly across OS threads: a shared work queue
//! feeds a scoped worker pool and results land in input order.

use hpsock_sim::knob::{self, Knob};
use std::num::NonZeroUsize;
use std::sync::Mutex;

/// `HPSOCK_THREADS`: sweep worker threads (default: the machine's
/// available parallelism). Worker count never affects results, only wall
/// time.
pub static THREADS: Knob<usize> = Knob::new(
    "HPSOCK_THREADS",
    |raw| knob::parse_count("HPSOCK_THREADS", "unset it to use all cores", raw),
    || {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(4)
    },
);

/// Map `f` over `items` on a thread pool, preserving input order.
/// Determinism is unaffected: each item's simulation is self-contained.
///
/// Thread count comes from [`THREADS`].
pub fn parallel_map<I, O, F>(items: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    parallel_map_workers(items, THREADS.get(), f)
}

/// [`parallel_map`] with an explicit worker count, bypassing
/// `HPSOCK_THREADS` — the hook the worker-count-independence tests use
/// without racing on the process environment.
pub fn parallel_map_workers<I, O, F>(items: Vec<I>, workers: usize, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.max(1).min(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Indexed work queue drained by the pool. Each result goes straight
    // into its input-order slot; the per-slot mutex is uncontended (every
    // index is handed to exactly one worker) and exists only to make the
    // shared write safe.
    let jobs: Mutex<Vec<(usize, I)>> = Mutex::new(items.into_iter().enumerate().rev().collect());
    let slots: Vec<Mutex<Option<O>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // Knob overrides are thread-local: re-install the submitting
    // thread's in every pool worker, so sweep points run under the same
    // settings as the caller.
    let scope = knob::capture();
    std::thread::scope(|s| {
        for _ in 0..workers {
            let (jobs, slots, f, scope) = (&jobs, &slots, &f, &scope);
            s.spawn(move || {
                scope.enter(|| loop {
                    let Some((idx, item)) = jobs.lock().expect("job queue lock").pop() else {
                        return;
                    };
                    let out = f(item);
                    *slots[idx].lock().expect("slot lock") = Some(out);
                })
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot lock")
                .expect("every sweep point completed")
        })
        .collect()
}

/// Schedule `points × seeds` replicate jobs through the pool: every item
/// runs once per seed in `seeds`, and the outputs come back grouped per
/// item, in seed order. The flattened job list feeds [`parallel_map`]
/// directly, so replicates of different points interleave freely across
/// workers while each output still lands in its `(point, seed)` slot —
/// aggregates are therefore identical under any worker count.
pub fn parallel_map_seeded<I, O, F>(items: Vec<I>, seeds: &[u64], f: F) -> Vec<Vec<O>>
where
    I: Clone + Send + Sync,
    O: Send,
    F: Fn(&I, u64) -> O + Sync,
{
    assert!(!seeds.is_empty(), "a seed batch has at least one replicate");
    let n_seeds = seeds.len();
    let jobs: Vec<(I, u64)> = items
        .into_iter()
        .flat_map(|item| seeds.iter().map(move |&s| (item.clone(), s)))
        .collect();
    let flat = parallel_map(jobs, |(item, seed)| f(&item, seed));
    let mut out = Vec::with_capacity(flat.len() / n_seeds);
    let mut it = flat.into_iter();
    while let Some(first) = it.next() {
        let mut reps = Vec::with_capacity(n_seeds);
        reps.push(first);
        for _ in 1..n_seeds {
            reps.push(it.next().expect("seeds divide the job count"));
        }
        out.push(reps);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(items, |x| x * x);
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<u64>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = parallel_map(Vec::<u32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        assert_eq!(parallel_map(vec![7], |x: u32| x + 1), vec![8]);
    }

    #[test]
    fn parse_worker_count_rejects_invalid_values() {
        assert_eq!(THREADS.resolve("1"), Ok(1));
        assert_eq!(THREADS.resolve(" 16 "), Ok(16));
        let err = THREADS.resolve("0").unwrap_err();
        assert!(err.contains("HPSOCK_THREADS"), "names the variable: {err}");
        assert!(THREADS.resolve("-4").is_err(), "negative rejected");
        assert!(THREADS.resolve("eight").is_err(), "garbage rejected");
        assert!(THREADS.resolve("").is_err(), "empty rejected");
        assert!(THREADS.resolve("3.5").is_err(), "fractional rejected");
    }

    #[test]
    fn seeded_map_groups_by_item_in_seed_order() {
        let out = parallel_map_seeded(vec![10u64, 20], &[1, 2, 3], |&x, s| x + s);
        assert_eq!(out, vec![vec![11, 12, 13], vec![21, 22, 23]]);
        let single = parallel_map_seeded(vec![5u64], &[7], |&x, s| x * s);
        assert_eq!(single, vec![vec![35]]);
        let empty = parallel_map_seeded(Vec::<u64>::new(), &[1, 2], |&x, _| x);
        assert!(empty.is_empty());
    }

    #[test]
    fn seeded_map_is_worker_count_independent() {
        // The replicate grid goes through parallel_map's indexed slots, so
        // grouping never depends on scheduling; pin it against the
        // explicit-worker path for 1 vs 8 workers.
        let items: Vec<u64> = (0..13).collect();
        let seeds = crate::replicate::seed_batch(0xF167, 3);
        let jobs = |w: usize| {
            let flat: Vec<(u64, u64)> = items
                .iter()
                .flat_map(|&i| seeds.iter().map(move |&s| (i, s)))
                .collect();
            parallel_map_workers(flat, w, |(i, s)| i.wrapping_mul(s))
        };
        assert_eq!(jobs(1), jobs(8));
    }

    /// A scoped telemetry override on the submitting thread must be
    /// visible inside every pool worker, like the shard-count override.
    #[test]
    fn telemetry_override_propagates_to_pool_workers() {
        use hpsock_sim::telemetry::TELEMETRY;
        let dir = std::path::PathBuf::from("tel-sweep-scope");
        let seen = TELEMETRY.with(Some(dir.clone()), || {
            parallel_map_workers((0..8).collect::<Vec<u32>>(), 4, |_| TELEMETRY.get())
        });
        assert!(
            seen.iter().all(|d| d.as_deref() == Some(dir.as_path())),
            "pool workers saw {seen:?}"
        );
    }

    /// A scoped fault-plan override on the submitting thread must be
    /// visible inside every pool worker, like the shard-count and
    /// telemetry overrides — otherwise a faulted sweep would silently run
    /// its points fault-free.
    #[test]
    fn fault_override_propagates_to_pool_workers() {
        use hpsock_net::fault::FAULTS;
        let plan = std::sync::Arc::new(
            hpsock_net::FaultPlan::parse("drop=0.5").expect("valid fault spec"),
        );
        let seen = FAULTS.with(Some(plan), || {
            parallel_map_workers((0..8).collect::<Vec<u32>>(), 4, |_| FAULTS.get().is_some())
        });
        assert!(seen.iter().all(|&b| b), "pool workers saw {seen:?}");
    }

    /// A scoped network-model override on the submitting thread must be
    /// visible inside every pool worker — otherwise a flow-model sweep
    /// would silently build packet-model clusters on the pool.
    #[test]
    fn netmodel_override_propagates_to_pool_workers() {
        use hpsock_net::{netmodel::NETMODEL, NetModel};
        let seen = NETMODEL.with(NetModel::Flow, || {
            parallel_map_workers((0..8).collect::<Vec<u32>>(), 4, |_| NETMODEL.get())
        });
        assert!(
            seen.iter().all(|&m| m == NetModel::Flow),
            "pool workers saw {seen:?}"
        );
    }

    /// Every knob scoped on the submitting thread must be visible inside
    /// every pool worker — otherwise, say, a faulted or flow-model sweep
    /// would silently run its points fault-free or on the packet model.
    #[test]
    fn every_knob_override_propagates_to_pool_workers() {
        use hpsock_net::{fault, netmodel, FaultPlan, NetModel};
        use hpsock_sim::telemetry;
        use std::path::PathBuf;
        struct Case {
            scope: fn(&mut dyn FnMut()),
            read: fn() -> String,
            want: &'static str,
        }
        let cases = [
            Case {
                scope: |f| telemetry::TELEMETRY.with(Some("tel-sweep-scope".into()), f),
                read: || format!("{:?}", telemetry::TELEMETRY.get()),
                want: "Some(\"tel-sweep-scope\")",
            },
            Case {
                scope: |f| netmodel::NETMODEL.with(NetModel::Flow, f),
                read: || netmodel::NETMODEL.get().label().to_string(),
                want: "flow",
            },
            Case {
                scope: |f| {
                    let plan = FaultPlan::parse("drop=0.5").expect("valid fault spec");
                    fault::FAULTS.with(Some(std::sync::Arc::new(plan)), f)
                },
                read: || format!("{:?}", fault::FAULTS.get().map(|p| p.filters.len())),
                want: "Some(1)",
            },
            Case {
                scope: |f| hpsock_net::cluster::OVERSUB.with(2.5, f),
                read: || hpsock_net::cluster::OVERSUB.get().to_string(),
                want: "2.5",
            },
            Case {
                scope: |f| THREADS.with(5, f),
                read: || THREADS.get().to_string(),
                want: "5",
            },
            Case {
                scope: |f| crate::replicate::SEEDS.with(7, f),
                read: || crate::replicate::SEEDS.get().to_string(),
                want: "7",
            },
            Case {
                scope: |f| crate::replicate::TAILS.with(true, f),
                read: || crate::replicate::TAILS.get().to_string(),
                want: "true",
            },
            Case {
                scope: |f| crate::QUICK.with(true, f),
                read: || crate::QUICK.get().to_string(),
                want: "true",
            },
            Case {
                scope: |f| crate::RESULTS.with(PathBuf::from("res-sweep-scope"), f),
                read: || crate::RESULTS.get().display().to_string(),
                want: "res-sweep-scope",
            },
            Case {
                scope: |f| crate::TRACE.with(Some("trace-sweep-scope".into()), f),
                read: || format!("{:?}", crate::TRACE.get()),
                want: "Some(\"trace-sweep-scope\")",
            },
        ];
        fn nest(cases: &[Case], f: &mut dyn FnMut()) {
            match cases.split_first() {
                Some((c, rest)) => (c.scope)(&mut || nest(rest, f)),
                None => f(),
            }
        }
        let mut seen = Vec::new();
        nest(&cases, &mut || {
            seen = parallel_map_workers((0..8).collect::<Vec<u32>>(), 4, |_| {
                cases.iter().map(|c| (c.read)()).collect::<Vec<_>>()
            });
        });
        let want: Vec<_> = cases.iter().map(|c| c.want).collect();
        assert_eq!(seen.len(), 8);
        for worker in &seen {
            assert_eq!(worker, &want, "a pool worker saw other settings");
        }
    }

    #[test]
    fn thread_override_is_honored_and_result_identical() {
        // `HPSOCK_THREADS=1` must take the sequential path and produce the
        // same output.
        let out = THREADS.with(1, || parallel_map((0..50).collect::<Vec<u64>>(), |x| x + 3));
        assert_eq!(out, (3..53).collect::<Vec<u64>>());
    }
}
