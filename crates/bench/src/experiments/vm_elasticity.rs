//! VM elasticity: host-level share adaptation vs static shares.
//!
//! The acceptance experiment of the elastic-share controller plane (see
//! `selftune_virt::elastic` and `selftune_virt::demo::run_two_phase` /
//! `run_runaway` for the scenarios shared with the e2e test):
//!
//! * **reclaim** — a tenant whose guest goes idle mid-run has its share
//!   reclaimed and re-granted to a hungry sibling, which completes more
//!   jobs than under static shares at equal total admitted bandwidth;
//! * **containment** — a runaway elastic tenant is pinned at the host
//!   cap and its statically-shared sibling keeps its solo miss rate.
//!
//! Both claims are asserted on every run; the per-tenant table
//! (`vm_elasticity.csv`) is returned.

use selftune_simcore::time::Dur;
use selftune_virt::demo;

use crate::{fmt, plain, time_us, Args, Table};

/// Horizons swept: the short one is the e2e's, the long one shows the
/// steady state after the idle-phase hand-over.
const HORIZONS_SECS: [u64; 2] = [10, 30];

/// Host bound of the demo platform.
const HOST_ULUB: f64 = 0.95;

/// Runs the comparison.
pub fn run(args: &Args) -> Vec<Table> {
    println!("== VM elasticity: closed-loop host shares vs static admission ==");
    let mut table = Table::new(
        "vm_elasticity.csv",
        [
            plain("horizon_s"),
            plain("config"),
            plain("tenant"),
            plain("completions"),
            plain("gaps"),
            plain("misses"),
            plain("miss_rate"),
            plain("share"),
            plain("wall_ms").measured(),
        ],
    )
    .note(
        "(assertions passed: hungry sibling gains completions from the reclaimed idle \
         share; runaway elastic VM pinned at the host cap with its sibling at the solo \
         baseline)",
    );
    for &secs in args.sweep(&HORIZONS_SECS, 1) {
        let horizon = Dur::secs(secs);
        let (stat, t_stat) = time_us(|| demo::run_two_phase(horizon, args.seed, false));
        let (elas, t_elas) = time_us(|| demo::run_two_phase(horizon, args.seed, true));
        let (runaway, t_run) = time_us(|| demo::run_runaway(horizon, args.seed));
        let solo = demo::run_solo(horizon, args.seed);

        // The subsystem's claims, asserted on every run.
        assert!(
            elas.hungry.completions > stat.hungry.completions,
            "reclaim failed: {} (elastic) <= {} (static)",
            elas.hungry.completions,
            stat.hungry.completions
        );
        assert!(
            elas.hungry_share > stat.hungry_share && elas.phased_share < stat.phased_share,
            "shares did not move: {:.3}/{:.3} vs {:.3}/{:.3}",
            elas.phased_share,
            elas.hungry_share,
            stat.phased_share,
            stat.hungry_share
        );
        let cap = HOST_ULUB - runaway.victim_share;
        assert!(
            runaway.runaway_peak_share <= cap + 1e-9,
            "runaway escaped the cap: {:.4} > {cap:.4}",
            runaway.runaway_peak_share
        );
        let envelope = (2.0 * solo.miss_rate()).max(0.05);
        assert!(
            runaway.victim.miss_rate() <= envelope,
            "victim leaked: {:.4} > {envelope:.4}",
            runaway.victim.miss_rate()
        );

        for (config, tenant, stats, share, t_us) in [
            ("static", "phased", &stat.phased, stat.phased_share, t_stat),
            ("static", "hungry", &stat.hungry, stat.hungry_share, 0.0),
            ("elastic", "phased", &elas.phased, elas.phased_share, t_elas),
            ("elastic", "hungry", &elas.hungry, elas.hungry_share, 0.0),
            (
                "runaway",
                "victim",
                &runaway.victim,
                runaway.victim_share,
                t_run,
            ),
            (
                "runaway",
                "runaway",
                &runaway.runaway,
                runaway.runaway_peak_share,
                0.0,
            ),
        ] {
            table.row(vec![
                secs.to_string(),
                config.to_owned(),
                tenant.to_owned(),
                stats.completions.to_string(),
                stats.gaps.to_string(),
                stats.misses.to_string(),
                fmt(stats.miss_rate(), 4),
                fmt(share, 3),
                fmt(t_us / 1e3, 1),
            ]);
        }
    }
    vec![table]
}
