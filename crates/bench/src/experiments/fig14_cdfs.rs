//! Figure 14: CDFs of the inter-frame times and of the reserved fraction
//! of CPU, LFS vs LFS++.
//!
//! Shapes: the LFS inter-frame-time CDF has a longer tail; the LFS++
//! reserved-fraction CDF is steeper (smaller variance of the allocation).

use super::fig13_lfs_vs_lfspp;
use crate::{col, fmt, Args, Show, Table};
use selftune_simcore::stats::cdf;

/// The CDFs of `lfs` and `lfspp`, stacked under a `controller` column.
fn cdf_table(
    file: &'static str,
    value: &'static str,
    decimals: usize,
    lfs: &[f64],
    lfspp: &[f64],
) -> Table {
    let columns = [
        col("controller", "controller"),
        col(value, value),
        col("cdf", "cdf"),
    ];
    let mut table = Table::new(file, columns).show(Show::Hidden);
    for (name, xs) in [("LFS", lfs), ("LFS++", lfspp)] {
        for (x, p) in cdf(xs) {
            table.row(vec![name.to_owned(), fmt(x, decimals), fmt(p, 5)]);
        }
    }
    table
}

/// Re-runs Figure 13's two controllers and returns the CDFs.
pub fn run(args: &Args) -> Vec<Table> {
    println!("== Figure 14: CDFs of IFT and reserved fraction ==");
    let (lfs, lfspp) = fig13_lfs_vs_lfspp::runs(args);

    // Tail comparison: P(IFT > 80ms), the paper's frame-drop indicator.
    let tail = |xs: &[f64]| xs.iter().filter(|&&x| x > 80.0).count() as f64 / xs.len() as f64;
    println!(
        "P(IFT > 80ms): LFS {:.4}, LFS++ {:.4} (paper: LFS CDF has the longer tail)",
        tail(&lfs.ift_ms),
        tail(&lfspp.ift_ms)
    );
    vec![
        cdf_table("fig14_cdf_ift.csv", "ift_ms", 3, &lfs.ift_ms, &lfspp.ift_ms),
        cdf_table(
            "fig14_cdf_reserved.csv",
            "reserved_fraction",
            4,
            &lfs.bandwidths(),
            &lfspp.bandwidths(),
        ),
    ]
}
