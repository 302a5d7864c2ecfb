//! Table 1: overhead of the tracers (NOTRACE / QTRACE / QOSTRACE /
//! STRACE) on an `ffmpeg` transcode, 10 repetitions each.
//!
//! Paper's numbers: baseline 21.09 s; QTRACE +0.63%, QOSTRACE +2.69%,
//! STRACE +5.51%. The shape to reproduce: QTRACE ≪ QOSTRACE < STRACE,
//! with QTRACE well under 1%.

use crate::{col, fmt, Args, Table};
use selftune_apps::{TranscodeConfig, Transcoder};
use selftune_sched::ReservationScheduler;
use selftune_simcore::rng::Rng;
use selftune_simcore::stats::{mean, std_dev};
use selftune_simcore::time::{Dur, Time};
use selftune_simcore::Kernel;
use selftune_tracer::{Tracer, TracerConfig, TracerKind};

fn one_run(kind: TracerKind, seed: u64) -> f64 {
    let mut kernel = Kernel::new(ReservationScheduler::new());
    let (hook, _reader) = Tracer::create(TracerConfig {
        kind,
        capacity: 1 << 20,
        ..TracerConfig::default()
    });
    kernel.install_hook(Box::new(hook));
    let t = Transcoder::new(TranscodeConfig::ffmpeg_table1(), Rng::new(seed));
    kernel.spawn("ffmpeg", Box::new(t));
    kernel.run_until(Time::ZERO + Dur::secs(60));
    let done = kernel.metrics().marks("ffmpeg.done");
    assert_eq!(done.len(), 1, "transcode did not finish");
    done[0].as_secs_f64()
}

/// Runs the four tracers and returns the Table 1 layout.
pub fn run(args: &Args) -> Vec<Table> {
    println!("== Table 1: tracer overhead on the ffmpeg transcode ==");
    let reps = args.reps(10, 3);
    let kinds = [
        TracerKind::NoTrace,
        TracerKind::QTrace,
        TracerKind::QosTrace,
        TracerKind::Strace,
    ];
    let mut results: Vec<(TracerKind, f64, f64)> = Vec::new();
    for (k, kind) in kinds.into_iter().enumerate() {
        // Independent noise streams per tracer, as in real repeated runs.
        let samples: Vec<f64> = (0..reps)
            .map(|r| one_run(kind, args.seed + (1000 * k + r) as u64))
            .collect();
        results.push((kind, mean(&samples), std_dev(&samples)));
    }
    let baseline = results[0].1;
    let mut table = Table::new(
        "table1_tracer_overhead.csv",
        [
            col("Tracer", "tracer"),
            col("Average (s)", "avg_s"),
            col("Relative avg (%)", "rel_overhead_percent"),
            col("Std dev (s)", "std_s"),
        ],
    )
    .note("paper: NOTRACE 21.09s; QTRACE +0.63%, QOSTRACE +2.69%, STRACE +5.51%");
    for &(kind, m, sd) in &results {
        table.row(vec![
            kind.name().to_owned(),
            fmt(m, 6),
            fmt(100.0 * (m - baseline) / baseline, 4),
            fmt(sd, 6),
        ]);
    }

    // Shape assertions (who wins, by what factor).
    let q = results[1].1 - baseline;
    let qos = results[2].1 - baseline;
    let s = results[3].1 - baseline;
    assert!(q < qos && qos < s, "ordering must match the paper");
    assert!(q / baseline < 0.01, "QTRACE must stay under 1%");
    vec![table]
}
