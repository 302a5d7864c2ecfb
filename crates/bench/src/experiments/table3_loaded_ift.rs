//! Table 3: inter-frame times of the 25 fps video under LFS++ (full stack,
//! rate detection enabled) with periodic real-time background load from
//! 20% to 70%.
//!
//! Shape to reproduce: the average stays pinned at ≈ 40 ms while the
//! standard deviation grows with the load, until the system saturates
//! (70%: video needs ≈ 30% on top → compression → degraded average).

use crate::setups::video_run;
use crate::{col, fmt, Args, Table};
use selftune_core::{ControllerConfig, ManagerConfig};
use selftune_simcore::stats::{mean, std_dev};

/// Frames skipped before computing statistics (adaptation transient).
const WARMUP_FRAMES: usize = 200;

/// Runs the load sweep.
pub fn run(args: &Args) -> Vec<Table> {
    println!("== Table 3: LFS++ inter-frame times under periodic RT load ==");
    let secs = if args.fast { 20 } else { 40 };
    let loads = [0.20, 0.30, 0.40, 0.50, 0.60, 0.70];
    let mut table = Table::new(
        "table3_loaded_ift.csv",
        [
            col("load", "load_percent"),
            col("avg IFT (ms)", "avg_ift_ms"),
            col("σ IFT (ms)", "sd_ift_ms"),
            col("dropped", "dropped"),
            col("detected P (ms)", "detected_period_ms"),
        ],
    )
    .note(
        "paper: 40.97/6.99 → 40.93/7.83 → 40.92/10.94 → 40.95/11.74 → 40.96/16.57 → \
         44.43/17.87 (ms)",
    );
    for &load in &loads {
        let out = video_run(
            ControllerConfig::default(),
            ManagerConfig::default(),
            load,
            secs,
            args.seed,
        );
        let steady = out.steady_ift(WARMUP_FRAMES);
        table.row(vec![
            format!("{:.0}%", load * 100.0),
            fmt(mean(steady), 3),
            fmt(std_dev(steady), 3),
            out.dropped.to_string(),
            out.period.map_or("-".into(), |p| fmt(p.as_ms_f64(), 2)),
        ]);
    }
    vec![table]
}
