//! Ablations beyond the paper's evaluation, backing the design choices
//! called out in DESIGN.md:
//!
//! * **CBS depletion mode** — hard (throttle) vs soft (postpone): soft
//!   reservations leak bandwidth to a saturated task, disturbing others.
//! * **Predictors** — the paper's quantile estimator vs pure max vs EWMA:
//!   the quantile trades a little under-provisioning for stability.
//! * **Supervisor compression** — proportional vs equal under overload.

use crate::setups::{video_run, VideoRunOutcome};
use crate::{col, fmt, Args, Table};
use selftune_core::{ControllerConfig, FeedbackKind, LfsPpConfig, ManagerConfig};
use selftune_sched::{CbsMode, Compression};
use selftune_simcore::stats::{mean, std_dev};

const WARMUP_FRAMES: usize = 200;

/// One 25 fps video run of the ablation length.
fn video(ctl: ControllerConfig, mgr: ManagerConfig, bg_util: f64, args: &Args) -> VideoRunOutcome {
    let secs = if args.fast { 15 } else { 40 };
    video_run(ctl, mgr, bg_util, secs, args.seed)
}

/// `[avg, σ]` of the steady-state inter-frame times, as cells.
fn steady_ift(out: &VideoRunOutcome) -> [String; 2] {
    let steady = out.steady_ift(WARMUP_FRAMES);
    [fmt(mean(steady), 3), fmt(std_dev(steady), 3)]
}

/// CBS hard vs soft under moderate background load.
fn cbs_mode(args: &Args) -> Table {
    let mut table = Table::new(
        "ablation_cbs_mode.csv",
        [
            col("CBS mode", "mode"),
            col("avg IFT (ms)", "avg_ift_ms"),
            col("σ IFT (ms)", "sd_ift_ms"),
            col("dropped", "dropped"),
        ],
    )
    .heading("== Ablation: CBS depletion mode (hard vs soft) ==");
    for (name, mode) in [("hard", CbsMode::Hard), ("soft", CbsMode::Soft)] {
        let mgr = ManagerConfig {
            cbs_mode: mode,
            ..ManagerConfig::default()
        };
        let out = video(ControllerConfig::default(), mgr, 0.40, args);
        let [avg, sd] = steady_ift(&out);
        table.row(vec![name.to_owned(), avg, sd, out.dropped.to_string()]);
    }
    table
}

/// Predictor comparison: quantile (paper) vs max vs near-mean quantile.
fn predictors(args: &Args) -> Table {
    let mut table = Table::new(
        "ablation_predictors.csv",
        [
            col("predictor", "predictor"),
            col("avg IFT (ms)", "avg_ift_ms"),
            col("σ IFT (ms)", "sd_ift_ms"),
            col("avg reserved bw", "avg_bw"),
            col("dropped", "dropped"),
        ],
    )
    .heading("== Ablation: predictor choice in LFS++ ==");
    for (name, quantile) in [
        (
            "quantile 0.9375/16 (paper)",
            LfsPpConfig::default().quantile,
        ),
        ("max of 16", 1.0),
        ("median of 16", 0.5),
    ] {
        let ctl = ControllerConfig {
            feedback: FeedbackKind::LfsPp(LfsPpConfig {
                quantile,
                ..LfsPpConfig::default()
            }),
            ..ControllerConfig::default()
        };
        let out = video(ctl, ManagerConfig::default(), 0.0, args);
        let [avg, sd] = steady_ift(&out);
        table.row(vec![
            name.to_owned(),
            avg,
            sd,
            fmt(mean(&out.bandwidths()), 4),
            out.dropped.to_string(),
        ]);
    }
    table
}

/// Supervisor compression policy under overload (70% background).
fn compression(args: &Args) -> Table {
    let mut table = Table::new(
        "ablation_compression.csv",
        [
            col("compression", "policy"),
            col("avg IFT (ms)", "avg_ift_ms"),
            col("σ IFT (ms)", "sd_ift_ms"),
            col("dropped", "dropped"),
        ],
    )
    .heading("== Ablation: supervisor compression under overload ==");
    for (name, policy) in [
        ("proportional", Compression::Proportional),
        ("equal", Compression::Equal),
    ] {
        let mut mgr = ManagerConfig::default();
        mgr.supervisor.policy = policy;
        let out = video(ControllerConfig::default(), mgr, 0.70, args);
        let [avg, sd] = steady_ift(&out);
        table.row(vec![name.to_owned(), avg, sd, out.dropped.to_string()]);
    }
    table
}

/// Runs every ablation.
pub fn run(args: &Args) -> Vec<Table> {
    vec![cbs_mode(args), predictors(args), compression(args)]
}
