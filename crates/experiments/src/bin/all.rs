//! Regenerate every table and figure of the paper in one run.

use hpsock_experiments as x;

fn main() {
    let quick = x::quick_mode();
    let dir = x::results_dir();
    eprintln!("[1/9] Figure 4 + Figure 2 ...");
    x::emit(&x::fig4::run(quick), &dir);
    x::export_under_trace("fig4", |tdir| x::fig4::export_traces(tdir, quick));
    eprintln!("[2/9] Figure 7 ...");
    x::emit(&x::fig7::run(quick), &dir);
    x::export_under_trace("fig7", |tdir| x::fig7::export_traces(tdir, quick));
    eprintln!("[3/9] Figure 8 ...");
    x::emit(&x::fig8::run(quick), &dir);
    x::export_under_trace("fig8", |tdir| x::fig8::export_traces(tdir, quick));
    eprintln!("[4/9] Figure 9 ...");
    x::emit(&x::fig9::run(quick), &dir);
    x::export_under_trace("fig9", |tdir| x::fig9::export_traces(tdir, quick));
    eprintln!("[5/9] Figure 10 ...");
    x::emit(&x::fig10::run(), &dir);
    x::export_under_trace("fig10", x::fig10::export_traces);
    eprintln!("[6/9] Figure 11 ...");
    x::emit(&x::fig11::run(), &dir);
    x::export_under_trace("fig11", x::fig11::export_traces);
    eprintln!("[7/9] Future work: RDMA ...");
    x::emit(&x::future::run(), &dir);
    eprintln!("[8/9] Supplementary: Figure 1 amplification, partition trade-off ...");
    x::emit(&x::extra::run(quick), &dir);
    eprintln!("[9/9] Fault injection: availability and guarantee retention ...");
    x::emit(&x::fig_faults::run(quick), &dir);
    eprintln!("done: CSVs under {}", dir.display());
}
