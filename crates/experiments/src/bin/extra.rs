//! Supplementary analyses: Figure 1's fetch amplification and the
//! partition-count trade-off surface behind Figure 9.

fn main() {
    let tables = hpsock_experiments::extra::run(hpsock_experiments::quick_mode());
    hpsock_experiments::emit(&tables, hpsock_experiments::results_dir());
}
