//! Multi-seed replication: derive independent per-replicate seeds from a
//! figure's base seed and aggregate per-point measurements into
//! mean / 95 % confidence-interval columns.
//!
//! Every sweep point runs a *batch* of `HPSOCK_SEEDS` replicates (default
//! 1). Replicate 0 uses the base seed itself, so single-seed output is
//! bit-identical to the historical figures; later replicates follow a
//! splitmix64 stream seeded at the base. Seeds depend only on the point's
//! base seed and the replicate index — never on worker count or
//! scheduling — so a batch's aggregate is reproducible under any
//! `HPSOCK_THREADS` (pinned by `tests/replication.rs`).

use hpsock_sim::knob::{self, Knob};
use hpsock_sim::stats::Histogram;
use hpsock_sim::Tally;

/// One splitmix64 step (Steele et al., "Fast splittable pseudorandom
/// number generators"): increment by the golden-ratio constant, then mix.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The replicate seeds for one figure: `[base, splitmix64¹(base),
/// splitmix64²(base), …]`. Keeping the base seed as replicate 0 makes
/// `HPSOCK_SEEDS=1` reproduce the single-seed figures exactly.
pub fn seed_batch(base: u64, n: usize) -> Vec<u64> {
    assert!(n >= 1, "a seed batch has at least one replicate");
    let mut state = base;
    (0..n)
        .map(|k| if k == 0 { base } else { splitmix64(&mut state) })
        .collect()
}

/// `HPSOCK_SEEDS`: replicates per sweep point (default 1).
pub static SEEDS: Knob<usize> = Knob::new(
    "HPSOCK_SEEDS",
    |raw| knob::parse_count("HPSOCK_SEEDS", "unset it for the single-seed default", raw),
    || 1,
);

/// `HPSOCK_TAILS`: whether the figure tables add `p50`/`p99`/`p999` tail
/// columns (default off, keeping the base tables byte-identical to the
/// historical output).
pub static TAILS: Knob<bool> = Knob::new(
    "HPSOCK_TAILS",
    |raw| knob::parse_flag("HPSOCK_TAILS", "1 adds p50/p99/p999 columns", raw),
    || false,
);

/// Replicates per sweep point: [`SEEDS`].
pub fn seed_count() -> usize {
    SEEDS.get()
}

/// Run `f` with [`tails_enabled`] returning `on` on this thread (see
/// [`Knob::with`]).
pub fn with_tails<T>(on: bool, f: impl FnOnce() -> T) -> T {
    TAILS.with(on, f)
}

/// Whether the figure tables add tail columns: [`TAILS`].
pub fn tails_enabled() -> bool {
    TAILS.get()
}

/// Aggregate of one value column across a point's seed batch. `None`
/// observations (transport dropouts) are skipped; a column where no seed
/// produced a value renders as the dash marker, like the single-seed
/// tables.
#[derive(Debug, Clone)]
pub struct Series {
    tally: Tally,
    /// The raw observations, kept for the tail-quantile columns (seed
    /// batches are small, so this costs a few floats per cell).
    samples: Vec<f64>,
}

impl Series {
    /// Collect the per-seed observations of one point.
    pub fn collect(vals: impl IntoIterator<Item = Option<f64>>) -> Series {
        let mut tally = Tally::new();
        let mut samples = Vec::new();
        for v in vals.into_iter().flatten() {
            tally.add(v);
            samples.push(v);
        }
        Series { tally, samples }
    }

    /// Across-seed mean, `None` when every seed dropped out.
    pub fn mean(&self) -> Option<f64> {
        (self.tally.count() > 0).then(|| self.tally.mean())
    }

    /// 95 % confidence interval of the mean (Student-t for small batches;
    /// see [`Tally::ci95`]), `None` when every seed dropped out.
    pub fn ci95_bounds(&self) -> Option<(f64, f64)> {
        (self.tally.count() > 0).then(|| self.tally.ci95_bounds())
    }

    /// Number of seeds that produced a value.
    pub fn n(&self) -> u64 {
        self.tally.count()
    }
}

/// How a figure table renders its series across a seed batch, fixed once
/// per table: each series is the bare `name` column (the across-seed mean
/// when replicated), then `name_ci95_lo`/`name_ci95_hi` when replicated,
/// then `name_p50`/`name_p99`/`name_p999` when [`TAILS`] is on; a
/// replicated table ends with an `n_seeds` column. A single-seed table
/// with tails off keeps the historical columns bit-for-bit.
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    n_seeds: usize,
    tails: bool,
    decimals: usize,
}

impl Layout {
    /// The layout of a table over `n_seeds` replicates whose values print
    /// with `decimals` places. Reads [`TAILS`] here, once.
    pub fn new(n_seeds: usize, decimals: usize) -> Layout {
        Layout {
            n_seeds,
            tails: tails_enabled(),
            decimals,
        }
    }

    /// Whether the batch holds more than one seed.
    pub fn replicated(&self) -> bool {
        self.n_seeds > 1
    }

    /// Append the headers of each named series.
    pub fn headers<'a>(&self, out: &mut Vec<String>, names: impl IntoIterator<Item = &'a str>) {
        for name in names {
            out.push(name.to_string());
            if self.replicated() {
                out.push(format!("{name}_ci95_lo"));
                out.push(format!("{name}_ci95_hi"));
            }
            if self.tails {
                out.extend(["p50", "p99", "p999"].map(|q| format!("{name}_{q}")));
            }
        }
    }

    /// Append one series' cells, matching [`Layout::headers`]. Tail cells
    /// are log-spaced-histogram quantiles over the raw seed observations
    /// (see [`Histogram::summarize`]); a series where every seed dropped
    /// out renders as dashes.
    pub fn cells(&self, out: &mut Vec<String>, s: &Series) {
        let cell = |v: Option<f64>| crate::table::fmt_opt(v, self.decimals);
        out.push(cell(s.mean()));
        if self.replicated() {
            let ci = s.ci95_bounds();
            out.push(cell(ci.map(|(lo, _)| lo)));
            out.push(cell(ci.map(|(_, hi)| hi)));
        }
        if self.tails {
            let h = Histogram::summarize(&s.samples);
            for q in [0.5, 0.99, 0.999] {
                out.push(cell((s.n() > 0).then(|| h.quantile(q))));
            }
        }
    }

    /// Append the trailing `n_seeds` header of a replicated table.
    pub fn n_seeds_header(&self, out: &mut Vec<String>) {
        if self.replicated() {
            out.push("n_seeds".into());
        }
    }

    /// Append the trailing `n_seeds` cell, matching
    /// [`Layout::n_seeds_header`].
    pub fn n_seeds_cell(&self, out: &mut Vec<String>) {
        if self.replicated() {
            out.push(self.n_seeds.to_string());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_batch_starts_at_base_and_is_deterministic() {
        assert_eq!(seed_batch(0xF167, 1), vec![0xF167]);
        let b = seed_batch(0xF167, 4);
        assert_eq!(b[0], 0xF167, "replicate 0 reproduces the single-seed run");
        assert_eq!(b, seed_batch(0xF167, 4), "same base, same batch");
        assert_eq!(
            &b[..2],
            &seed_batch(0xF167, 2)[..],
            "a longer batch extends a shorter one"
        );
        let mut sorted = b.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4, "replicate seeds are distinct: {b:?}");
        assert_ne!(seed_batch(0xF168, 4)[1], b[1], "bases diverge");
    }

    #[test]
    fn parse_seed_count_accepts_positive_integers_only() {
        assert_eq!(SEEDS.resolve("1"), Ok(1));
        assert_eq!(SEEDS.resolve(" 12 "), Ok(12));
        assert!(SEEDS.resolve("0").is_err());
        assert!(SEEDS.resolve("-3").is_err());
        assert!(SEEDS.resolve("three").is_err());
        assert!(SEEDS.resolve("").is_err());
        assert!(SEEDS.resolve("2.5").is_err());
    }

    #[test]
    fn series_aggregates_and_skips_dropouts() {
        let s = Series::collect([Some(10.0), None, Some(14.0)]);
        assert_eq!(s.n(), 2);
        assert_eq!(s.mean(), Some(12.0));
        let (lo, hi) = s.ci95_bounds().unwrap();
        // n = 2, s² = 8, se = 2, t(df=1) = 12.706.
        assert!((lo - (12.0 - 12.706 * 2.0)).abs() < 1e-9);
        assert!((hi - (12.0 + 12.706 * 2.0)).abs() < 1e-9);
        let empty = Series::collect([None, None]);
        assert_eq!(empty.mean(), None);
        assert_eq!(empty.ci95_bounds(), None);
    }

    /// A one-decimal layout, without reading `HPSOCK_TAILS`.
    fn layout(n_seeds: usize, tails: bool) -> Layout {
        Layout {
            n_seeds,
            tails,
            decimals: 1,
        }
    }

    /// The headers and cells of one `TCP` series under `layout`.
    fn render(layout: Layout, s: &Series) -> (Vec<String>, Vec<String>) {
        let (mut h, mut c) = (Vec::new(), Vec::new());
        layout.headers(&mut h, ["TCP"]);
        layout.cells(&mut c, s);
        (h, c)
    }

    #[test]
    fn cells_match_headers_in_both_modes() {
        let s = Series::collect([Some(1.0), Some(3.0)]);
        let (h1, c1) = render(layout(1, false), &s);
        assert_eq!(h1, vec!["TCP"]);
        assert_eq!(c1, vec!["2.0"]);
        let (h3, c3) = render(layout(2, false), &s);
        assert_eq!(h3, vec!["TCP", "TCP_ci95_lo", "TCP_ci95_hi"]);
        assert_eq!(c3.len(), 3);
        assert_eq!(c3[0], "2.0");
        let (_, cells) = render(layout(2, false), &Series::collect([None]));
        assert_eq!(cells, vec!["-", "-", "-"], "dropouts stay explicit dashes");
        let (mut h, mut c) = (Vec::new(), Vec::new());
        layout(1, false).n_seeds_header(&mut h);
        layout(1, false).n_seeds_cell(&mut c);
        assert!(h.is_empty() && c.is_empty(), "single-seed has no n_seeds");
        layout(3, false).n_seeds_header(&mut h);
        layout(3, false).n_seeds_cell(&mut c);
        assert_eq!((h, c), (vec!["n_seeds".into()], vec!["3".into()]));
    }

    #[test]
    fn parse_tail_flag_is_strict() {
        assert_eq!(TAILS.resolve("0"), Ok(false));
        assert_eq!(TAILS.resolve("1"), Ok(true));
        assert_eq!(TAILS.resolve(" 1 "), Ok(true), "whitespace trimmed");
        for bad in ["2", "true", "yes", "", "on", "-1"] {
            let err = TAILS.resolve(bad).unwrap_err();
            assert!(err.contains("HPSOCK_TAILS"), "names the variable: {err}");
        }
    }

    #[test]
    fn with_tails_overrides_and_restores() {
        // Nesting and unwind restore are the knob's (`hpsock_sim::knob`);
        // this checks the public pair reads and writes the same knob.
        assert!(with_tails(true, tails_enabled));
        assert!(!with_tails(false, || TAILS.get()));
        assert!(TAILS.with(true, tails_enabled));
    }

    #[test]
    fn tail_cells_match_tail_headers() {
        let s = Series::collect((1..=100).map(|v| Some(v as f64)));
        let (h, c) = render(layout(1, false), &s);
        assert!(h.len() == 1 && c.len() == 1, "tails off adds nothing");
        // Tails after the bare column, and after the ci95 pair when
        // replicated.
        for n_seeds in [1, 100] {
            let (h, c) = render(layout(n_seeds, true), &s);
            assert_eq!(h[h.len() - 3..], ["TCP_p50", "TCP_p99", "TCP_p999"]);
            assert_eq!(h.len(), if n_seeds > 1 { 6 } else { 4 });
            assert_eq!(c.len(), h.len());
            let p50: f64 = c[c.len() - 3].parse().unwrap();
            let p99: f64 = c[c.len() - 2].parse().unwrap();
            let p999: f64 = c[c.len() - 1].parse().unwrap();
            assert!((45.0..=56.0).contains(&p50), "p50 near the median: {p50}");
            assert!(p50 <= p99 && p99 <= p999, "quantiles are monotone");
            assert!(p999 <= 100.0, "p999 capped at the observed max: {p999}");
        }
    }

    #[test]
    fn tail_cells_render_dropouts_as_dashes() {
        let dropout = Series::collect([None, None]);
        let (_, cells) = render(layout(1, true), &dropout);
        assert_eq!(cells, vec!["-", "-", "-", "-"]);
    }
}
