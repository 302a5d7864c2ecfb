//! Figure 5: an excerpt of the traced event sequence, showing the bursts
//! of system calls concentrated at the job boundaries.

use crate::setups::mp3_trace;
use crate::{col, Args, Show, Table};
use selftune_tracer::Edge;

/// Prints a ~160 ms window of the player's event train as an ASCII strip
/// and returns the raw timestamps.
pub fn run(args: &Args) -> Vec<Table> {
    println!("== Figure 5: event-train excerpt (bursts at job boundaries) ==");
    let (events, tid) = mp3_trace(0, 3.0, args.seed);
    let window_start = 2.0_f64; // skip startup
    let window_len = 0.160_f64;
    let times: Vec<f64> = events
        .iter()
        .filter(|e| e.task == tid && e.edge == Edge::Enter)
        .map(|e| e.at.as_secs_f64())
        .filter(|t| (window_start..window_start + window_len).contains(t))
        .collect();

    // ASCII strip: 160 columns of 1 ms.
    let cols = (window_len * 1000.0) as usize;
    let mut strip = vec![b' '; cols];
    for &t in &times {
        let c = ((t - window_start) * 1000.0) as usize;
        if c < cols {
            strip[c] = b'|';
        }
    }
    println!(
        "t = {:.3}..{:.3}s, {} events, one column per ms:",
        window_start,
        window_start + window_len,
        times.len()
    );
    println!("{}", String::from_utf8_lossy(&strip));
    println!("(expected: clusters every ~30.8 ms — the 32.5 Hz job rate)");

    let mut table = Table::new(
        "fig05_trace_excerpt.csv",
        [col("event time (s)", "event_time_s")],
    )
    .show(Show::Hidden);
    for t in &times {
        table.row(vec![format!("{t:.6}")]);
    }
    vec![table]
}
