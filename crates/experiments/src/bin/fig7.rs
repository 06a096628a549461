//! Regenerate Figure 7: partial-update latency under updates/sec guarantees.

use hpsock_experiments::fig7::{export_traces, run};

fn main() {
    let quick = hpsock_experiments::quick_mode();
    hpsock_experiments::emit(&run(quick), hpsock_experiments::results_dir());
    hpsock_experiments::export_under_trace("fig7", |dir| export_traces(dir, quick));
}
