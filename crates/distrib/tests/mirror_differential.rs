//! The live mirror against the path it retired.
//!
//! A follower used to check every checkpoint, the finale and a promotion
//! by re-simulating the received prefix from t = 0
//! (`Journal::reexecute` / `Journal::verify`). It now advances one
//! parked run instead; those functions remain for replay and what-if,
//! which makes them the oracle here. For two scenario shapes, mirror
//! thread counts 1/2/3 and checkpoint cadences 1, 2, 5 and none:
//!
//! * every interim the mirror matched equals the from-zero prefix
//!   re-execution at that cursor,
//! * the finale it matched equals `Journal::verify`'s,
//! * promotion after every possible cut frame equals the from-zero
//!   re-execution pinned to the received epochs and live beyond
//!
//! — bytes, not tolerances. A release build runs the whole grid (about
//! two minutes; CI does). A debug build (tier-1 `cargo test`), an order
//! of magnitude slower per simulated epoch, samples it: the cadences
//! rotated over the thread counts and every eighth cut frame for the
//! diurnal fleet, one cell for the million-task shape.

use selftune_cluster::prelude::*;
use selftune_distrib::prelude::*;
use selftune_simcore::time::Dur;

/// The 12-node diurnal fleet with all three control planes closed.
fn composed_diurnal() -> ScenarioSpec {
    let mut spec = ScenarioSpec::diurnal_demo(12, 24)
        .with_rebalance(ScenarioSpec::diurnal_rebalance())
        .with_node_share(ScenarioSpec::diurnal_node_share());
    for vm in &mut spec.vms {
        vm.elastic = true;
    }
    spec
}

/// The million-task shape at test scale, feedback rebalancer on.
fn milliontask() -> ScenarioSpec {
    let horizon = Dur::ms(250);
    ScenarioSpec::milliontask_demo(128, 4_000, horizon)
        .with_rebalance(ScenarioSpec::milliontask_rebalance(horizon))
}

fn shipped(spec: &ScenarioSpec, every: Option<usize>) -> Vec<Vec<u8>> {
    let (tx, mut rx) = ChannelTransport::pair();
    let mut shipper = Shipper::new(tx, spec, 42, 2, every);
    ClusterRunner::new(2).run_logged_with(spec, 42, &mut shipper);
    std::iter::from_fn(|| rx.recv()).collect()
}

/// `(cadence, mirror threads)` cells of the grid: all twelve in a release
/// build, the first `debug_cells` of a rotation in a debug build.
fn cells(debug_cells: usize) -> Vec<(Option<usize>, usize)> {
    if cfg!(debug_assertions) {
        let rotation = [(Some(2), 2), (Some(1), 3), (Some(5), 1), (None, 3)];
        return rotation[..debug_cells].to_vec();
    }
    [Some(1), Some(2), Some(5), None]
        .into_iter()
        .flat_map(|every| [1usize, 2, 3].map(|threads| (every, threads)))
        .collect()
}

fn mirror_equals_reexecution(spec: &ScenarioSpec, debug_cells: usize) {
    let cut_stride = if cfg!(debug_assertions) { 8 } else { 1 };
    let boundaries = ClusterRunner::epoch_ends(spec).len();
    let mut stream: Option<(Option<usize>, Vec<Vec<u8>>)> = None;
    for (ci, (every, threads)) in cells(debug_cells).into_iter().enumerate() {
        if stream.as_ref().map(|(cadence, _)| *cadence) != Some(every) {
            stream = Some((every, shipped(spec, every)));
        }
        let chunks = &stream.as_ref().expect("just shipped").1;
        let interims = every.map_or(0, |n| (1..boundaries - 1).filter(|e| e % n == 0).count());
        let at = format!("{} at {threads} threads, cadence {every:?}", spec.name);

        let mut follower = Follower::new(threads);
        let mut matched = 0;
        for chunk in chunks {
            let applied = follower.feed(chunk).unwrap_or_else(|e| panic!("{at}: {e}"));
            if let Applied::Checkpoint { cursor } = applied {
                // Accepted means the mirror's interim equalled the
                // leader's bytes, which the checkpoint now stores.
                let ckpt = follower.last_checkpoint().expect("stored");
                let oracle = ckpt
                    .journal
                    .reexecute(threads, None, None, Some(cursor))
                    .expect("cursor on the grid");
                assert_eq!(ckpt.journal.summary, oracle.summary_csv(), "{at}: {cursor}");
                matched += 1;
            }
        }
        assert_eq!(matched, interims, "{at}: interims compared");
        assert_eq!(follower.stats().checkpoints, interims, "{at}");
        let finale = follower.finale().expect("finished").summary_csv();
        let verified = follower
            .journal()
            .expect("replica journal")
            .verify(threads, None)
            .unwrap_or_else(|e| panic!("{at}: oracle refused the replica: {e}"));
        assert_eq!(finale, verified.summary_csv(), "{at}: finale");

        // Promotion after every frame a leader can die behind (Hello and
        // Plan applied is the least a standby can promote from).
        for cut in (2..=chunks.len()).filter(|cut| cut % cut_stride == ci % cut_stride) {
            let mut standby = Follower::new(threads);
            for chunk in &chunks[..cut] {
                standby.feed(chunk).unwrap_or_else(|e| panic!("{at}: {e}"));
            }
            let oracle = standby
                .journal()
                .expect("replica journal")
                .reexecute(threads, None, Some(standby.epochs_applied()), None)
                .expect("full run");
            let promoted = standby.promote().unwrap_or_else(|e| panic!("{at}: {e}"));
            assert_eq!(
                promoted.summary_csv(),
                oracle.summary_csv(),
                "{at}: promotion after {cut} frames"
            );
        }
    }
}

#[test]
fn composed_diurnal_mirror_equals_from_zero_reexecution() {
    mirror_equals_reexecution(&composed_diurnal(), 4);
}

#[test]
fn milliontask_mirror_equals_from_zero_reexecution() {
    mirror_equals_reexecution(&milliontask(), 1);
}
