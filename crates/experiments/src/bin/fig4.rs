//! Regenerate Figure 4 (micro-benchmarks) and the Figure 2 crossover.

use hpsock_experiments::fig4::{export_traces, run};

fn main() {
    let quick = hpsock_experiments::quick_mode();
    hpsock_experiments::emit(&run(quick), hpsock_experiments::results_dir());
    hpsock_experiments::export_under_trace("fig4", |dir| export_traces(dir, quick));
}
