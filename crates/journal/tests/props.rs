//! Property-based tests for the decision journal.
//!
//! Three families:
//!
//! * **Thread invariance** — recording the same `(spec, seed)` on 1, 2
//!   and 8 worker threads must yield byte-identical journal *text*: the
//!   canonical event order admits no thread-dependent degree of freedom.
//! * **Replay exactness** — a `Replayer` at any thread count must
//!   reproduce the live run's `summary_csv` byte for byte from the
//!   journal alone (placements and per-epoch decisions pinned).
//! * **Codec round-trip** — `to_text → from_text` is the identity on
//!   journals, and the text form is a fixed point — including journals
//!   of traffic phases whose node slice refuses admissions.
//!
//! Each case runs whole (small) fleet simulations, so counts are low.

use proptest::prelude::*;
use selftune_cluster::prelude::*;
use selftune_journal::prelude::*;
use selftune_simcore::time::Dur;

/// A small fleet that exercises every record kind: skewed overload for
/// rebalance migrations, churn for kills, an elastic VM for share grants
/// and compressions.
fn journal_spec(nodes: usize, tasks: usize, pressure: f64, elastic_vm: bool) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new("prop-journal", nodes, tasks, Dur::ms(2_400))
        .with_mix(TaskMix::new(vec![(
            TaskKind::HungryRt {
                nominal_wcet: Dur::ms(2),
                wcet: Dur::ms(6),
                period: Dur::ms(40),
            },
            1.0,
        )]))
        .with_arrivals(ArrivalSchedule::Staggered { gap: Dur::ms(80) })
        .with_churn(Churn {
            mean_lifetime: Dur::ms(1_500),
            min_lifetime: Dur::ms(300),
        })
        .with_policy(PolicyKind::FirstFit)
        .with_ulub(0.9)
        .with_rebalance(RebalanceSpec {
            enabled: true,
            period: Dur::ms(600),
            pressure,
            max_moves: 4,
            ewma_alpha: 0.6,
            warm_start: true,
        });
    if elastic_vm {
        spec = spec.with_vm(
            VmSpec::uniform(
                Dur::ms(3),
                Dur::ms(10),
                2,
                TaskKind::PeriodicRt {
                    wcet: Dur::ms(4),
                    period: Dur::ms(40),
                },
            )
            .with_elastic(),
        );
    }
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn journals_are_byte_identical_at_1_2_and_8_threads(
        seed in 0u64..1_000_000,
        nodes in 3usize..5,
        tasks in 8usize..13,
        elastic_vm in any::<bool>(),
    ) {
        let spec = journal_spec(nodes, tasks, 0.2, elastic_vm);
        let (_, baseline) = Journal::record(1, &spec, seed);
        let text = baseline.to_text();
        for threads in [2usize, 8] {
            let (_, j) = Journal::record(threads, &spec, seed);
            // `threads` is part of the header, so compare the journal with
            // the header normalised to the recording thread count.
            let mut j = j;
            j.threads = 1;
            prop_assert_eq!(&j.to_text(), &text, "journal text at {} threads", threads);
        }
    }

    #[test]
    fn replay_reproduces_live_aggregates_exactly(
        seed in 0u64..1_000_000,
        nodes in 3usize..5,
        tasks in 8usize..13,
        elastic_vm in any::<bool>(),
        replay_threads in 1usize..9,
    ) {
        let spec = journal_spec(nodes, tasks, 0.2, elastic_vm);
        let (live, journal) = Journal::record(2, &spec, seed);
        let replayed = Replayer::new(replay_threads)
            .verify(&journal)
            .expect("replay must be byte-identical");
        prop_assert_eq!(replayed.summary_csv(), live.summary_csv());
    }

    #[test]
    fn codec_round_trip_is_identity(
        seed in 0u64..1_000_000,
        nodes in 2usize..5,
        tasks in 6usize..12,
        pressure in 0.1f64..0.5,
        elastic_vm in any::<bool>(),
    ) {
        let spec = journal_spec(nodes, tasks, pressure, elastic_vm);
        let (_, journal) = Journal::record(2, &spec, seed);
        let text = journal.to_text();
        let parsed = Journal::from_text(&text)
            .unwrap_or_else(|e| panic!("parse failed: {e}"));
        prop_assert_eq!(&parsed, &journal);
        prop_assert_eq!(parsed.to_text(), text);
    }

    #[test]
    fn a_journal_recorded_with_a_traffic_phase_loads_back(
        seed in 0u64..1_000_000,
        nodes in 2usize..5,
        tasks in 4usize..9,
        (start, window, ramp_pct) in (1u64..1_800, 100u64..1_500, 0u32..101),
        (count, heavy, filter) in (1usize..9, any::<bool>(), 0u32..4),
    ) {
        // A recorded journal is one its own loader accepts, whichever
        // slice of the fleet a phase targets and however many of its
        // admissions that slice has to refuse: every rejection witness is
        // a number `from_text` reads back.
        let wcet = Dur::ms(if heavy { 12 } else { 2 });
        let kind = TaskKind::PeriodicRt { wcet, period: Dur::ms(40) };
        let spec = journal_spec(nodes, tasks, 0.2, false).with_phase(TrafficPhase {
            start: Dur::ms(start),
            end: Dur::ms(start + window),
            ramp: Dur::ms(window * u64::from(ramp_pct) / 100),
            tasks: count,
            mix: TaskMix::new(vec![(kind, 1.0)]),
            nodes: match filter {
                0 => NodeFilter::All,
                1 => NodeFilter::First(1),
                2 => NodeFilter::First(count),
                _ => NodeFilter::Stride(nodes),
            },
        });
        let (_, journal) = Journal::record(2, &spec, seed);
        let text = journal.to_text();
        let parsed = Journal::from_text(&text)
            .unwrap_or_else(|e| panic!("parse failed: {e}\n{}", spec.to_text()));
        prop_assert_eq!(parsed.to_text(), text);
    }

    #[test]
    fn whatif_from_a_late_cut_preserves_the_pinned_prefix(
        seed in 0u64..1_000_000,
        tasks in 8usize..13,
    ) {
        // Cutting at the journal's end pins everything: the counterfactual
        // must equal the factual exactly, whatever the swap.
        let spec = journal_spec(4, tasks, 0.2, false);
        let (_, journal) = Journal::record(2, &spec, seed);
        let cut = journal.epochs();
        let report = run_whatif(
            &journal,
            &WhatIf { cut_epoch: cut, swap: PolicySwap::DisableRebalance },
            2,
        );
        prop_assert_eq!(report.baseline.summary_csv(), report.variant.summary_csv());
        prop_assert!(report.miss_delta().abs() < 1e-12);
    }
}
