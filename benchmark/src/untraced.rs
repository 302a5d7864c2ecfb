//! The end-to-end run (`--trace 0`): closed loop, one process, `T`
//! runner threads, tracing off.
//!
//! Set-up (spec generation, fixture round trip, one priming run) is
//! repeated [`SETUPS`] times and reported as its own metric, so work a
//! later change moves out of the timed repetitions still shows. Then the
//! workload repeats for `--seconds`; every timed quantity is the median
//! over those repetitions, and every repetition's output is checked.

use std::path::Path;
use std::time::Instant;

use selftune_cluster::{AggregateMetrics, ScenarioSpec};
use selftune_distrib::prelude::*;
use selftune_journal::{run_whatif, Journal, Replayer};

use crate::catalog::END_TO_END;
use crate::harness::{peak_rss_bytes, sim_fingerprint, Abort, Ops, RunResult};
use crate::stats::median;
use crate::workloads::{self, Built, CHECKPOINT_EVERY};

/// Set-ups per run; the median is reported as `setup_s`.
pub const SETUPS: usize = 3;

/// Live runs per repetition of the replicated workload: one inside the
/// timed cycle, the rest before it. Its replication legs take ~17 s, so a
/// 10 s window holds one repetition, and one live run of ~1.5 s reads
/// anywhere between 1.39 s and 1.85 s on this two-core box. Across ten
/// seeds the median of three spread by 9.7 %, of seven by 4.7 % and
/// 8.5 %, of fifteen by 7.2 %, 7.4 % and 10.9 %: what is left varies
/// between runs, not within one, and more samples would not remove it
/// (`WORKLOADS.md`).
const LIVE_RUNS_REPLICATED: usize = 15;

const MB: f64 = 1024.0 * 1024.0;

/// Per-repetition wall samples, one vector per leg.
#[derive(Default)]
struct Samples {
    setup: Vec<f64>,
    /// `VmHWM` when the run ends (one value; `peak_rss_mb` is the cold one).
    peak_rss_end_mb: Vec<f64>,
    run: Vec<f64>,
    cycle: Vec<f64>,
    record: Vec<f64>,
    replay: Vec<f64>,
    ship: Vec<f64>,
    follow: Vec<f64>,
    promote: Vec<f64>,
    whatif: Vec<f64>,
}

/// Spec generation, fixture round trip and one priming run. Returns the
/// spec *as re-read from the fixture* (the program under test receives
/// only the generated scenario text) and the priming run's aggregates.
fn set_up(
    ops: &mut Ops,
    name: &str,
    smoke: bool,
    seed: u64,
    out_dir: &Path,
) -> Result<(Built, AggregateMetrics), Abort> {
    let mut built = workloads::build(name, smoke).expect("workload name checked by the caller");
    let text = built.spec.to_text();
    let fixture = out_dir.join(format!("fixture-{name}.txt"));
    let reread = ops.try_call("fixture write + read", || {
        std::fs::create_dir_all(out_dir)?;
        std::fs::write(&fixture, &text)?;
        std::fs::read_to_string(&fixture)
    })?;
    let spec = ops.try_call("ScenarioSpec::from_text(fixture)", || {
        ScenarioSpec::from_text(&reread)
    })?;
    ops.check(
        "fixture round trip preserves the scenario",
        spec == built.spec,
    );
    built.spec = spec;
    let runner = built.runner(workloads::threads());
    let primed = ops.call("priming run", || runner.run(&built.spec, seed))?;
    Ok((built, primed))
}

/// One repetition of the replicated control plane after its live run:
/// record, encode, decode, replay-verify, ship, follow, promote, what-if
/// — writes beside reads on the same stream.
fn replicated_legs(
    ops: &mut Ops,
    built: &Built,
    seed: u64,
    live_csv: &str,
    s: &mut Samples,
) -> Result<String, Abort> {
    let t = workloads::threads();
    let spec = &built.spec;

    let t0 = Instant::now();
    let (recorded, journal) = ops.call("Journal::record", || Journal::record(t, spec, seed))?;
    let text = ops.call("Journal::to_text", || journal.to_text())?;
    s.record.push(t0.elapsed().as_secs_f64());
    ops.check(
        "recorded run == live run",
        recorded.summary_csv() == live_csv,
    );

    let t0 = Instant::now();
    let decoded = ops.try_call("Journal::from_text", || Journal::from_text(&text))?;
    ops.try_call("Replayer::verify", || Replayer::new(t).verify(&decoded))?;
    s.replay.push(t0.elapsed().as_secs_f64());
    ops.check(
        "journal to_text . from_text is a fixed point",
        decoded.to_text() == text,
    );

    let t0 = Instant::now();
    let (tx, mut rx) = ChannelTransport::pair();
    let mut shipper = Shipper::new(tx, spec, seed, t, Some(CHECKPOINT_EVERY));
    let leader = ops.call("run_logged_with(Shipper)", || {
        built.runner(t).run_logged_with(spec, seed, &mut shipper)
    })?;
    s.ship.push(t0.elapsed().as_secs_f64());
    let progress = shipper.progress();
    ops.check("shipped run == live run", leader.summary_csv() == live_csv);
    ops.check(
        "stream finished with checkpoints",
        progress.finished && progress.checkpoints >= 1,
    );

    let t0 = Instant::now();
    let mut follower = Follower::new(t);
    ops.try_call("Follower::feed (whole stream)", || {
        while let Some(chunk) = rx.recv() {
            follower.feed(&chunk)?;
        }
        Ok::<(), StreamError>(())
    })?;
    s.follow.push(t0.elapsed().as_secs_f64());
    let stats = follower.stats();
    ops.check(
        "follower finale == leader",
        follower
            .finale()
            .map(AggregateMetrics::summary_csv)
            .as_deref()
            == Some(live_csv),
    );
    ops.check(
        "clean wire: nothing dropped, every checkpoint mirror-verified",
        stats.dropped == 0 && stats.divergences == 0 && stats.checkpoints == progress.checkpoints,
    );

    let crash = built.crash_epoch();
    let t0 = Instant::now();
    let mut standby = Follower::new(t);
    ops.try_call("Follower::feed (to the crash epoch)", || {
        for chunk in shipper.frames_from(0) {
            if matches!(standby.feed(chunk)?, Applied::Epoch { epoch, .. } if epoch == crash) {
                break;
            }
        }
        Ok::<(), StreamError>(())
    })?;
    let promoted = ops.try_call("Follower::promote", || standby.promote())?;
    s.promote.push(t0.elapsed().as_secs_f64());
    ops.check("leader died mid-stream", standby.lag(&progress).frames > 0);
    ops.check(
        "promoted run == uninterrupted run",
        promoted.summary_csv() == live_csv,
    );

    let whatif = Built::whatif(&journal);
    let t0 = Instant::now();
    let report = ops.call("run_whatif", || run_whatif(&journal, &whatif, t))?;
    s.whatif.push(t0.elapsed().as_secs_f64());
    ops.check(
        "what-if baseline == factual",
        report.baseline.summary_csv() == live_csv,
    );
    Ok(text)
}

fn body(
    ops: &mut Ops,
    name: &str,
    smoke: bool,
    seed: u64,
    seconds: f64,
    out_dir: &Path,
) -> Result<(Vec<f64>, Samples, String), Abort> {
    let setups = if smoke { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut state = None;
    for _ in 0..setups {
        let t0 = Instant::now();
        let (built, primed) = set_up(ops, name, smoke, seed, out_dir)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        let csv = primed.summary_csv();
        if let Some((_, first, _)) = &state {
            ops.check("priming runs agree byte for byte", *first == csv);
        } else {
            // Peak memory is read here, after one run in a fresh process:
            // later repetitions only add what the allocator failed to
            // hand back, which swings by 10 % between identical runs.
            state = Some((built, csv, peak_rss_bytes()));
        }
    }
    let (built, reference_csv, cold_peak) = state.expect("at least one set-up");
    let runner = built.runner(workloads::threads());

    let mut s = Samples::default();
    let mut journal_text = None;
    let live_runs = if built.replicated {
        LIVE_RUNS_REPLICATED
    } else {
        1
    };
    let run_live = |ops: &mut Ops, s: &mut Samples| {
        let t0 = Instant::now();
        let live = ops.call("ClusterRunner::run", || runner.run(&built.spec, seed))?;
        s.run.push(t0.elapsed().as_secs_f64());
        Ok(live)
    };
    let window = Instant::now();
    let live = loop {
        // Extra samples for `run_wall_s` only: inside the cycle they would
        // dilute the replication legs `cycle_wall_s` is there to gate.
        for _ in 1..live_runs {
            run_live(ops, &mut s)?;
        }
        let t0 = Instant::now();
        let live = run_live(ops, &mut s)?;
        let csv = ops.call("AggregateMetrics::summary_csv", || live.summary_csv())?;
        ops.check(
            "repetition == priming run, byte for byte",
            csv == reference_csv,
        );
        if built.replicated {
            journal_text = Some(replicated_legs(ops, &built, seed, &csv, &mut s)?);
        }
        s.cycle.push(t0.elapsed().as_secs_f64());
        if smoke || window.elapsed().as_secs_f64() >= seconds {
            break live;
        }
    };

    let a = live.admission;
    ops.check("jobs completed", live.completions() > 0);
    ops.check("one report per node", live.nodes.len() == built.spec.nodes);
    ops.check(
        "every offered task was admitted, rejected or best-effort",
        (a.admitted + a.rejected + a.best_effort) as usize == built.spec.flat_tasks(),
    );
    ops.check(
        "node completions sum to the fleet's",
        live.nodes.iter().map(|n| n.completions()).sum::<u64>() == live.completions(),
    );

    let run_wall_s = median(&s.run);
    let fp = sim_fingerprint(&reference_csv, journal_text.as_deref());
    let values = END_TO_END
        .iter()
        .map(|m| match m.name {
            "setup_s" => median(&setup_s),
            "run_wall_s" => run_wall_s,
            "cycle_wall_s" => median(&s.cycle),
            "host_us_per_job" => run_wall_s * 1e6 / live.completions().max(1) as f64,
            "peak_rss_mb" => cold_peak as f64 / MB,
            "deadline_hit_pct" => 100.0 * (1.0 - live.miss_ratio()),
            other => unreachable!("end-to-end metric {other} has no measurement"),
        })
        .collect();
    s.setup = setup_s;
    s.peak_rss_end_mb = vec![peak_rss_bytes() as f64 / MB];
    Ok((values, s, fp))
}

/// Runs workload `name` untraced and reports every end-to-end metric.
pub fn run(name: &str, smoke: bool, seed: u64, seconds: f64, out_dir: &Path) -> RunResult {
    let mut ops = Ops::default();
    let outcome = body(&mut ops, name, smoke, seed, seconds, out_dir);
    let mut result = RunResult {
        workload: name.to_owned(),
        traced: false,
        seed,
        ops,
        metrics: Vec::new(),
        samples: Vec::new(),
        sim_fingerprint: String::new(),
    };
    if let Ok((values, s, fp)) = outcome {
        result.metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, m.unit, v))
            .collect();
        result.samples = vec![
            ("setup_s", s.setup),
            ("run_wall_s", s.run),
            ("cycle_wall_s", s.cycle),
            ("record_wall_s", s.record),
            ("replay_wall_s", s.replay),
            ("ship_wall_s", s.ship),
            ("follow_wall_s", s.follow),
            ("promote_wall_s", s.promote),
            ("whatif_wall_s", s.whatif),
            ("peak_rss_end_mb", s.peak_rss_end_mb),
        ]
        .into_iter()
        .filter(|(_, v)| !v.is_empty())
        .collect();
        result.sim_fingerprint = fp;
    }
    result
}
