//! Regenerate Figure 8: updates/sec under partial-update latency guarantees.

use hpsock_experiments::fig8::{export_traces, run};

fn main() {
    let quick = hpsock_experiments::quick_mode();
    hpsock_experiments::emit(&run(quick), hpsock_experiments::results_dir());
    hpsock_experiments::export_under_trace("fig8", |dir| export_traces(dir, quick));
}
