//! Figure 2: minimum bandwidth to schedule three tasks
//! (3/15, 5/20, 5/30 ms) in a single reservation (rate-monotonic inside)
//! vs. one dedicated reservation per task.
//!
//! The paper's observations to reproduce: no obvious "best" server period,
//! and even the best single-reservation choice wastes 6–41% of bandwidth
//! over the ≈ 62% cumulative utilisation, while per-task servers achieve
//! the utilisation exactly.

use crate::{col, fmt, Args, Show, Table};
use selftune_analysis::{
    dedicated_servers_bandwidth, min_bandwidth_rm_group, min_budget_edf_group, PeriodicTask,
};

/// The paper's task set.
fn paper_tasks() -> Vec<PeriodicTask> {
    vec![
        PeriodicTask::new(3.0, 15.0),
        PeriodicTask::new(5.0, 20.0),
        PeriodicTask::new(5.0, 30.0),
    ]
}

/// Sweeps the server period over `[1, 60]` ms.
pub fn run(_args: &Args) -> Vec<Table> {
    println!("== Figure 2: single-reservation vs dedicated reservations ==");
    let tasks = paper_tasks();
    let u = dedicated_servers_bandwidth(&tasks);
    println!("cumulative utilisation = {:.4}", u);

    let mut table = Table::new(
        "fig02_multi_task.csv",
        [
            col("T^s (ms)", "server_period_ms"),
            col("RM group bw", "single_reservation_rm"),
            col("EDF group bw", "single_reservation_edf"),
            col("dedicated bw", "dedicated_servers"),
        ],
    )
    .show(Show::Every(8));
    let mut best: Option<(f64, f64)> = None;
    let mut worst: Option<(f64, f64)> = None;
    let mut t = 1.0;
    while t <= 60.0 + 1e-9 {
        let rm = min_bandwidth_rm_group(&tasks, t);
        let edf = min_budget_edf_group(&tasks, t).map(|q| q / t);
        if let Some(bw) = rm {
            match best {
                Some((_, b)) if b <= bw => {}
                _ => best = Some((t, bw)),
            }
            match worst {
                Some((_, w)) if w >= bw => {}
                _ => worst = Some((t, bw)),
            }
        }
        table.row(vec![
            fmt(t, 1),
            rm.map_or("inf".into(), |b| fmt(b, 4)),
            edf.map_or("inf".into(), |b| fmt(b, 4)),
            fmt(u, 4),
        ]);
        t += 0.5;
    }

    if let (Some((bt, bb)), Some((wt, wb))) = (best, worst) {
        table = table.note(format!(
            "\nbest single-reservation: bw {bb:.4} at T^s = {bt:.1} ms (waste {:.1}%)\n\
             worst single-reservation: bw {wb:.4} at T^s = {wt:.1} ms (waste {:.1}%)\n\
             paper: waste between 6% and 41% over the cumulative utilisation",
            (bb - u) * 100.0,
            (wb - u) * 100.0
        ));
    }
    vec![table]
}
