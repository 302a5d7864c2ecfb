//! Figure 4: statistics of the system calls performed by `mplayer`.
//!
//! The paper traces three minutes of `mplayer` and histograms the calls;
//! `ioctl` (towards the ALSA device) dominates. We trace the simulated
//! player for a configurable span and print the same histogram.

use crate::setups::mp3_trace;
use crate::{col, Args, Table};
use selftune_tracer::counts_by_call;

/// Traces the player and returns the per-call histogram.
pub fn run(args: &Args) -> Vec<Table> {
    println!("== Figure 4: syscall statistics of the traced player ==");
    let secs = if args.fast { 10.0 } else { 180.0 };
    let (events, _tid) = mp3_trace(0, secs, args.seed);
    let counts = counts_by_call(&events);
    let total: u64 = counts.iter().map(|&(_, c)| c).sum();
    assert_eq!(
        counts.first().map(|&(nr, _)| nr.name()),
        Some("ioctl"),
        "ioctl should dominate as in the paper"
    );
    let mut table = Table::new(
        "fig04_syscall_stats.csv",
        [
            col("syscall", "syscall"),
            col("count", "count"),
            col("share (%)", "share_percent"),
        ],
    )
    .note(format!("total: {total} calls over {secs} s"));
    for &(nr, c) in &counts {
        table.row(vec![
            nr.name().to_owned(),
            c.to_string(),
            format!("{:.3}", 100.0 * c as f64 / total as f64),
        ]);
    }
    vec![table]
}
