//! Log-shipped replication and failover: leader streams the decision
//! journal, a hot standby mirrors it, the leader dies at the flash-crowd
//! peak, the standby takes over.
//!
//! The composed diurnal fleet (all three control levels closed) runs as
//! the leader with a [`Shipper`] attached; a [`Follower`] consumes the
//! stream chunk by chunk, verifying every checkpoint byte for byte and
//! sampling its lag into interned `distrib.*` metrics (written out as
//! `distrib_lag.csv`). Then the failover drill:
//!
//! * **uninterrupted** — the leader's own run (the reference).
//! * **promoted** — the leader is killed right as the flash crowd hits,
//!   *before* the feedback controller has reacted to it; the follower
//!   promotes and continues from its replica. Because the stream pins
//!   *decisions*, the promoted run must equal the uninterrupted one
//!   **byte for byte** — zero decision loss — which the experiment
//!   asserts.
//! * **cold-restart** — the baseline failover without replication: a
//!   controller restarted from nothing is blind for an outage window
//!   (no migrations while it rebuilds feedback state), and that window
//!   is exactly when the crowd needs rebalancing. Its miss rate must be
//!   strictly worse than the promoted follower's.
//!
//! With `--scenario FILE` the drill runs on the loaded fleet and also
//! writes `leader.journal` / `follower.journal` — asserted byte-equal —
//! for the CI replication-divergence job.

use selftune_cluster::prelude::*;
use selftune_distrib::prelude::*;
use selftune_journal::Journal;
use selftune_simcore::metrics::Metrics;
use selftune_simcore::time::Time;

use crate::{fmt, plain, time_us, Args, Show, Table};

/// Fleet sizes swept: `(nodes, tasks)`.
const SWEEP: [(usize, usize); 2] = [(6, 12), (10, 20)];

/// Epochs the cold-restarted controller stays blind after the crash.
const COLD_OUTAGE_EPOCHS: usize = 3;

/// The composed diurnal fleet: elastic VM shares, node re-bounding and
/// the feedback rebalancer all on.
fn composed(nodes: usize, tasks: usize) -> ScenarioSpec {
    super::cluster_diurnal::scenario(nodes, tasks, true, true)
}

/// One replication + failover drill over `spec`. Returns the table row
/// and appends per-chunk lag samples to `lag_samples`. The cold-restart
/// miss-cost claim is only asserted with `strict` (the built-in composed
/// fleet guarantees the crowd needs the rebalancer; an arbitrary
/// `--scenario` file does not).
fn drill(
    spec: &ScenarioSpec,
    args: &Args,
    strict: bool,
    lag_samples: &mut Table,
) -> (Vec<String>, Follower) {
    let every = args.checkpoint_every.unwrap_or(2);
    let epochs = ClusterRunner::epoch_ends(spec).len() - 1;

    // Leader: run with the shipper attached; frames buffer on the wire.
    let (tx, mut rx) = ChannelTransport::pair();
    let mut shipper = Shipper::new(tx, spec, args.seed, 2, Some(every));
    let (leader, t_us) =
        time_us(|| ClusterRunner::new(2).run_logged_with(spec, args.seed, &mut shipper));
    let progress = shipper.progress();
    assert!(progress.finished, "leader must finish its stream");
    assert!(
        progress.checkpoints >= 1,
        "the stream must carry at least one checkpoint (cadence {every}, {epochs} epochs)"
    );

    // Follower: consume chunk by chunk on a different thread count,
    // sampling apply-lag against the leader's final position.
    let mut follower = Follower::new(3);
    let mut metrics = Metrics::new();
    while let Some(chunk) = rx.recv() {
        let applied = follower
            .feed(&chunk)
            .unwrap_or_else(|e| panic!("clean wire must apply: {e}"));
        let seq = follower.expected_seq() - 1;
        follower.observe_lag(&mut metrics, &progress, Time::from_ns(seq));
        let lag = follower.lag(&progress);
        lag_samples.row(vec![
            spec.name.clone(),
            seq.to_string(),
            format!("{applied:?}")
                .split([' ', '{'])
                .next()
                .expect("kind")
                .to_owned(),
            follower.epochs_applied().to_string(),
            lag.epochs.to_string(),
            lag.records.to_string(),
            lag.frames.to_string(),
        ]);
    }
    let stats = follower.stats();
    assert_eq!(stats.dropped, 0, "clean wire must not drop");
    assert_eq!(stats.checkpoints, progress.checkpoints);
    let finale = follower.finale().expect("stream finished");
    assert_eq!(
        finale.summary_csv(),
        leader.summary_csv(),
        "replica finale must equal the leader byte for byte"
    );
    // The interned lag series must have been sampled once per chunk.
    assert_eq!(
        metrics.series("distrib.lag.epochs").len() as u64,
        progress.frames
    );

    // Failover drill: replay the stream into a fresh standby, kill the
    // leader right after it ships the epoch batch at the flash-crowd
    // onset — the crowd has arrived but the rebalancer has not yet
    // reacted, so the decisions at stake are the valuable ones.
    let crash_epoch = epochs / 4;
    let mut standby = Follower::new(2);
    for chunk in shipper.frames_from(0) {
        match standby.feed(chunk).expect("prefix applies") {
            Applied::Epoch { epoch, .. } if epoch == crash_epoch => break,
            _ => {}
        }
    }
    assert!(standby.lag(&progress).frames > 0, "leader died mid-stream");
    let promoted = standby.promote().expect("standby is promotable");
    assert_eq!(
        promoted.summary_csv(),
        leader.summary_csv(),
        "promotion must lose zero decisions (byte-identical to the uninterrupted run)"
    );

    // Cold-restart baseline: same crash instant, no replica — the
    // restarted controller replays nothing and is blind (no migrations)
    // for the outage window while it rebuilds feedback state.
    let mut replica = standby.journal().expect("standby holds a replica");
    let blind = crash_epoch + 1..crash_epoch + 1 + COLD_OUTAGE_EPOCHS;
    let ends = ClusterRunner::epoch_ends(spec);
    // Its journal for the window is a run of empty rebalance passes (all
    // later than anything the replica holds, so the order stays canonical).
    for epoch in blind.clone().filter(|&e| e < epochs) {
        replica.records.push(FleetEvent::Rebalance {
            at: ends[epoch],
            epoch,
            snapshot: Vec::new(),
            moves: 0,
            failed: 0,
        });
    }
    let cold = replica
        .reexecute(2, None, Some(blind.end), None)
        .expect("a run to the horizon has no cursor to reject");
    if strict {
        assert!(
            cold.miss_ratio() > promoted.miss_ratio(),
            "a blind cold restart through the flash crowd must cost misses ({:.4} vs {:.4})",
            cold.miss_ratio(),
            promoted.miss_ratio()
        );
    }

    let row = vec![
        spec.nodes.to_string(),
        spec.flat_tasks().to_string(),
        progress.frames.to_string(),
        progress.records.to_string(),
        progress.checkpoints.to_string(),
        crash_epoch.to_string(),
        fmt(leader.miss_ratio(), 4),
        fmt(promoted.miss_ratio(), 4),
        fmt(cold.miss_ratio(), 4),
        fmt(t_us / 1e3, 1),
    ];
    (row, follower)
}

/// Runs the replication + failover drill.
pub fn run(args: &Args) -> Vec<Table> {
    println!("== Cluster failover: log-shipped replication, checkpoints, promotion ==");
    let mut drills = Table::new(
        "cluster_failover.csv",
        [
            plain("nodes"),
            plain("tasks"),
            plain("frames"),
            plain("records"),
            plain("checkpoints"),
            plain("crash_epoch"),
            plain("miss_uninterrupted"),
            plain("miss_promoted"),
            plain("miss_cold_restart"),
            plain("leader_wall_ms").measured(),
        ],
    );
    let mut lag = Table::new(
        "distrib_lag.csv",
        [
            plain("scenario"),
            plain("seq"),
            plain("applied"),
            plain("epochs_applied"),
            plain("lag_epochs"),
            plain("lag_records"),
            plain("lag_frames"),
        ],
    )
    .show(Show::Hidden);

    let last_claim = if let Some(spec) = args.scenario_spec() {
        args.record_journal(&spec);
        let (row, follower) = drill(&spec, args, false, &mut lag);
        drills.row(row);
        // Divergence material for CI: the leader's journal (recorded
        // independently at the leader's thread count) and the follower's
        // replica must serialise to identical bytes.
        let (_, leader_journal) = Journal::record(2, &spec, args.seed);
        let follower_journal = follower.journal().expect("replica complete");
        let (leader_text, follower_text) = (leader_journal.to_text(), follower_journal.to_text());
        std::fs::write(args.out_path("leader.journal"), &leader_text)
            .expect("write leader journal");
        std::fs::write(args.out_path("follower.journal"), &follower_text)
            .expect("write follower journal");
        assert_eq!(
            leader_text, follower_text,
            "leader and follower journals must be byte-identical"
        );
        println!(
            "leader.journal == follower.journal ({} bytes)",
            leader_text.len()
        );
        "journals byte-identical"
    } else {
        for &(nodes, tasks) in args.sweep(&SWEEP, 1) {
            let (row, _) = drill(&composed(nodes, tasks), args, true, &mut lag);
            drills.row(row);
        }
        "a blind cold restart costs misses"
    };
    let drills = drills.note(format!(
        "(assertions passed: replica byte-identical at every checkpoint and at finish; \
         promotion loses zero decisions; {last_claim})"
    ));
    vec![drills, lag]
}
