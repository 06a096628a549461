//! Regenerate Figure 9: response time of mixed query streams.

use hpsock_experiments::fig9::{export_traces, run};

fn main() {
    let quick = hpsock_experiments::quick_mode();
    hpsock_experiments::emit(&run(quick), hpsock_experiments::results_dir());
    hpsock_experiments::export_under_trace("fig9", |dir| export_traces(dir, quick));
}
