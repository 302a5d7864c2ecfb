//! VM consolidation: hierarchical virtual platforms vs a flat node.
//!
//! The `crates/virt` acceptance experiment (see `selftune_virt::demo` for
//! the scenario shared with the e2e test and the example): a well-behaved
//! 25 Hz tenant and a noisy neighbour consolidate onto one host at a
//! fixed total bandwidth, solo / hierarchical / flat. The isolation and
//! throughput claims are asserted and the per-tenant table
//! (`vm_consolidation.csv`) returned.

use selftune_simcore::time::Dur;
use selftune_virt::demo;

use crate::{fmt, plain, time_us, Args, Table};

/// Horizons swept: the short one is the e2e's, the long one shows the
/// steady state.
const HORIZONS_SECS: [u64; 2] = [10, 30];

/// Runs the comparison.
pub fn run(args: &Args) -> Vec<Table> {
    println!("== VM consolidation: two-level CBS vs flat self-tuning ==");
    let mut table = Table::new(
        "vm_consolidation.csv",
        [
            plain("horizon_s"),
            plain("config"),
            plain("tenant"),
            plain("completions"),
            plain("gaps"),
            plain("misses"),
            plain("miss_rate"),
            plain("wall_ms").measured(),
        ],
    )
    .note(
        "(assertions passed: victim isolated within 2x of solo under hierarchy, \
         flat exceeds it; hierarchical completions >= flat at equal bandwidth)",
    );
    for &secs in args.sweep(&HORIZONS_SECS, 1) {
        let horizon = Dur::secs(secs);
        let (solo, t_solo) = time_us(|| demo::run_solo(horizon, args.seed));
        let (hier, t_hier) = time_us(|| demo::run_hierarchical(horizon, args.seed));
        let (flat, t_flat) = time_us(|| demo::run_flat(horizon, args.seed));

        // The subsystem's claims, asserted on every run.
        let envelope = (2.0 * solo.miss_rate()).max(0.05);
        assert!(
            hier.victim.miss_rate() <= envelope,
            "isolation violated: hierarchical victim at {:.4} vs envelope {envelope:.4}",
            hier.victim.miss_rate()
        );
        assert!(
            flat.victim.miss_rate() > envelope,
            "flat victim unexpectedly isolated: {:.4}",
            flat.victim.miss_rate()
        );
        assert!(
            hier.completions() >= flat.completions(),
            "hierarchical must match flat throughput: {} < {}",
            hier.completions(),
            flat.completions()
        );

        for (config, tenant, stats, t_us) in [
            ("solo", "victim", &solo, t_solo),
            ("hierarchical", "victim", &hier.victim, t_hier),
            ("hierarchical", "noisy", &hier.noisy, 0.0),
            ("flat", "victim", &flat.victim, t_flat),
            ("flat", "noisy", &flat.noisy, 0.0),
        ] {
            table.row(vec![
                secs.to_string(),
                config.to_owned(),
                tenant.to_owned(),
                stats.completions.to_string(),
                stats.gaps.to_string(),
                stats.misses.to_string(),
                fmt(stats.miss_rate(), 4),
                fmt(t_us / 1e3, 1),
            ]);
        }
    }
    vec![table]
}
