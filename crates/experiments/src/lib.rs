//! # hpsock-experiments — per-figure experiment harnesses
//!
//! One module per paper figure. Each module exposes the sweep as a library
//! function returning [`table::Table`]s, and a binary (`fig4` … `fig11`,
//! plus `all`) prints the tables and writes CSVs under `results/`.
//!
//! | module | regenerates |
//! |--------|-------------|
//! | [`fig4`]  | Figure 4(a) latency, 4(b) bandwidth, Figure 2 crossover |
//! | [`fig7`]  | Figure 7(a)/(b): partial-update latency under an updates/sec guarantee |
//! | [`fig8`]  | Figure 8(a)/(b): updates/sec under a latency guarantee |
//! | [`fig9`]  | Figure 9(a)/(b): response time of mixed query streams |
//! | [`fig10`] | Figure 10: round-robin load-balancer reaction time |
//! | [`fig11`] | Figure 11: demand-driven execution under random slowdowns |
//! | [`future`] | beyond the paper: the conclusion's RDMA future work, quantified |
//! | [`fig_faults`] | beyond the paper: availability and guarantee retention under injected faults |
//! | [`fig_scale`] | beyond the paper: fluid-model agreement with the packet engine + cluster-size sweep |

pub mod bigtopo;
pub mod breakdown;
pub mod extra;
pub mod fig10;
pub mod fig11;
pub mod fig4;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod fig_faults;
pub mod fig_scale;
pub mod future;
pub mod replicate;
pub mod runner;
pub mod sharding;
pub mod sweep;
pub mod table;

use hpsock_sim::knob::{self, Knob};
use std::path::{Path, PathBuf};
use table::Table;

/// Print each table and write it as CSV under `dir` (slug from the title).
pub fn emit(tables: &[Table], dir: impl AsRef<Path>) {
    for t in tables {
        let slug = breakdown::slug(&t.title);
        let name = format!("{}.csv", &slug[..slug.len().min(60)]);
        emit_as(t, &dir.as_ref().join(name));
    }
}

/// Print `t` and write it as CSV to `path`; a write failure is a warning.
pub(crate) fn emit_as(t: &Table, path: &Path) {
    println!("{t}");
    if let Err(e) = t.write_csv(path) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("  -> {}\n", path.display());
    }
}

/// `HPSOCK_QUICK`: reduced sweep scale for smoke runs (default off).
pub static QUICK: Knob<bool> = Knob::new(
    "HPSOCK_QUICK",
    |raw| knob::parse_flag("HPSOCK_QUICK", "1 shrinks the sweeps for smoke runs", raw),
    || false,
);

/// `HPSOCK_RESULTS`: where figure CSVs land (default `results/`).
pub static RESULTS: Knob<PathBuf> =
    Knob::new("HPSOCK_RESULTS", |raw| Ok(raw.into()), || "results".into());

/// `HPSOCK_TRACE`: the probe-bus export directory (default none: no
/// export).
pub static TRACE: Knob<Option<PathBuf>> =
    Knob::new("HPSOCK_TRACE", |raw| Ok(Some(raw.into())), || None);

/// True when `--quick` was passed or [`QUICK`] is on (reduced sweep
/// scale for smoke runs; see README "Environment variables").
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick") || QUICK.get()
}

/// Results directory: [`RESULTS`].
pub fn results_dir() -> PathBuf {
    RESULTS.get()
}

/// Trace directory: `Some(dir)` when [`TRACE`] is set, enabling probe-bus
/// instrumentation — Chrome trace JSON, collapsed-stack `.folded`
/// flamegraphs and `*_breakdown.csv` time attribution written under the
/// given directory. A missing directory is created (recursively); an
/// unusable path aborts up-front with a message naming the variable and
/// the path, instead of surfacing a raw io::Error mid-export.
pub fn trace_dir() -> Option<PathBuf> {
    let dir = TRACE.get()?;
    knob::ensure_dir(TRACE.name, "trace", &dir).unwrap_or_else(|e| panic!("{e}"));
    Some(dir)
}

/// Announce and run one figure's probe-bus export when `HPSOCK_TRACE` is
/// set — the single dispatch every figure binary (and `all`) goes
/// through, so the announce line and the directory handling can't drift
/// apart per binary.
pub fn export_under_trace(figure: &str, export: impl FnOnce(&Path)) {
    if let Some(dir) = trace_dir() {
        eprintln!("probe-bus export (HPSOCK_TRACE) for {figure} ...");
        export(&dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_quick_flag_is_strict() {
        assert_eq!(QUICK.resolve("1"), Ok(true));
        assert_eq!(QUICK.resolve("0"), Ok(false));
        assert_eq!(QUICK.resolve(" 1 "), Ok(true), "whitespace tolerated");
        for bad in ["yes", "true", "2", "", "on", "01"] {
            let err = QUICK.resolve(bad).expect_err(bad);
            assert!(err.contains("HPSOCK_QUICK"), "names the variable: {err}");
            assert!(err.contains(&format!("{bad:?}")), "echoes the value: {err}");
        }
    }

    #[test]
    fn results_and_trace_take_any_string_as_a_path() {
        assert_eq!(RESULTS.resolve(" r "), Ok(PathBuf::from(" r ")));
        assert_eq!(TRACE.resolve("t"), Ok(Some(PathBuf::from("t"))));
    }

    #[test]
    fn ensure_trace_dir_creates_missing_directories() {
        let base = std::env::temp_dir().join(format!("hpsock_trace_test_{}", std::process::id()));
        let nested = base.join("deep/nested/trace_dir");
        assert!(!nested.exists());
        knob::ensure_dir(TRACE.name, "trace", &nested).expect("creates the full path");
        assert!(nested.is_dir());
        knob::ensure_dir(TRACE.name, "trace", &nested).expect("idempotent on an existing dir");
        std::fs::remove_dir_all(&base).expect("cleanup");
    }

    #[test]
    fn ensure_trace_dir_error_names_the_variable_and_path() {
        let base = std::env::temp_dir().join(format!("hpsock_trace_file_{}", std::process::id()));
        std::fs::write(&base, b"not a directory").expect("fixture file");
        let bad = base.join("child");
        let err =
            knob::ensure_dir(TRACE.name, "trace", &bad).expect_err("a file can't be a parent dir");
        assert!(err.contains("HPSOCK_TRACE"), "names the variable: {err}");
        assert!(
            err.contains(&bad.display().to_string()),
            "names the path: {err}"
        );
        std::fs::remove_file(&base).expect("cleanup");
    }
}
