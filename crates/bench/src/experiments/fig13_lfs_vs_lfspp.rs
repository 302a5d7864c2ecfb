//! Figure 13: inter-frame times and reserved fraction of CPU for the
//! 25 fps video under the original LFS vs LFS++.
//!
//! As in the paper's Section 5.4 the rate detection is disabled (the
//! period is fixed at 40 ms) to isolate the feedback laws. Shapes to
//! reproduce: LFS ramps its reservation slowly from a low initial value
//! and the inter-frame times stay disturbed for >100 frames; LFS++ adapts
//! almost immediately and yields a visibly lower IFT standard deviation,
//! with both converging to a ≈ 40 ms average.

use crate::setups::{video_run, VideoRunOutcome};
use crate::{col, fmt, Args, Show, Table};
use selftune_core::{ControllerConfig, FeedbackKind, LfsConfig, LfsPpConfig, ManagerConfig};
use selftune_simcore::stats::{mean, std_dev};
use selftune_simcore::time::Dur;

/// Number of initial frames treated as the adaptation transient when
/// reporting steady-state statistics.
const WARMUP_FRAMES: usize = 250;

/// One 25 fps video run under `feedback`, period fixed at 40 ms.
fn video(feedback: FeedbackKind, args: &Args) -> VideoRunOutcome {
    let ctl = ControllerConfig {
        fixed_period: Some(Dur::ms(40)),
        feedback,
        ..ControllerConfig::default()
    };
    let mgr = ManagerConfig {
        sampling: Dur::ms(200),
        ..ManagerConfig::default()
    };
    video_run(ctl, mgr, 0.0, if args.fast { 20 } else { 60 }, args.seed)
}

/// The `(LFS, LFS++)` runs, shared with Figure 14.
pub fn runs(args: &Args) -> (VideoRunOutcome, VideoRunOutcome) {
    (
        video(FeedbackKind::Lfs(LfsConfig::default()), args),
        video(FeedbackKind::LfsPp(LfsPpConfig::default()), args),
    )
}

/// Runs both controllers, prints the comparison and returns the series.
pub fn run(args: &Args) -> Vec<Table> {
    println!("== Figure 13: LFS vs LFS++ on the 25fps video (detection disabled) ==");
    let (lfs, lfspp) = runs(args);

    println!("controller: IFT avg / σ (ms), steady avg / σ (ms), dropped");
    for (name, o) in [("LFS", &lfs), ("LFS++", &lfspp)] {
        let steady = o.steady_ift(WARMUP_FRAMES);
        println!(
            "{name:>10}: {:.3} / {:.3}, {:.3} / {:.3}, {}",
            mean(&o.ift_ms),
            std_dev(&o.ift_ms),
            mean(steady),
            std_dev(steady),
            o.dropped
        );
    }
    println!("paper: averages ≈ 40ms both; σ 11.287ms (LFS) vs 4.6312ms (LFS++)");

    // Per-frame IFT series.
    let mut ift = Table::new(
        "fig13_ift.csv",
        [
            col("frame", "frame"),
            col("LFS IFT (µs)", "lfs_ift_us"),
            col("LFS++ IFT (µs)", "lfspp_ift_us"),
        ],
    )
    .show(Show::Hidden);
    for (i, (a, b)) in lfs.ift_ms.iter().zip(&lfspp.ift_ms).enumerate() {
        ift.row(vec![i.to_string(), fmt(a * 1000.0, 0), fmt(b * 1000.0, 0)]);
    }

    // Reserved-fraction series (per controller sample).
    let mut reserved = Table::new(
        "fig13_reserved_fraction.csv",
        [
            col("time (s)", "time_s"),
            col("LFS bw", "lfs_bw"),
            col("LFS++ bw", "lfspp_bw"),
        ],
    )
    .show(Show::Hidden);
    for (a, b) in lfs.bw.iter().zip(&lfspp.bw) {
        reserved.row(vec![fmt(a.0.as_secs_f64(), 3), fmt(a.1, 4), fmt(b.1, 4)]);
    }
    vec![ift, reserved]
}
