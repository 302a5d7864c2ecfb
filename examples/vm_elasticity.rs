//! Elastic VM shares: the host-level feedback loop in action.
//!
//! ```text
//! cargo run --release --example vm_elasticity
//! ```
//!
//! Two tenants start at equal 0.45 shares. The *phased* tenant's guest
//! goes idle 40% into the run; the *hungry* tenant's guests want 0.6.
//! With static admission the hungry tenant stays compressed forever while
//! the idle share goes dark; with each VM's share under the feedback law
//! (`VirtPlatform::make_vm_elastic`) the idle bandwidth is reclaimed and
//! re-granted. A third run makes a
//! runaway tenant elastic: its grants are pinned at the host cap and the
//! statically-shared sibling keeps its solo miss rate.

use selftune::simcore::time::Dur;
use selftune::virt::demo;

fn main() {
    let horizon = Dur::secs(20);
    let seed = 42;

    let stat = demo::run_two_phase(horizon, seed, false);
    let elas = demo::run_two_phase(horizon, seed, true);

    println!("Idle-phase reclaim (equal total admitted bandwidth 0.9):");
    println!(
        "  static   phased: {:>4} jobs, miss {:.3}, final share {:.2}   hungry: {:>4} jobs, miss {:.3}, final share {:.2}",
        stat.phased.completions,
        stat.phased.miss_rate(),
        stat.phased_share,
        stat.hungry.completions,
        stat.hungry.miss_rate(),
        stat.hungry_share,
    );
    println!(
        "  elastic  phased: {:>4} jobs, miss {:.3}, final share {:.2}   hungry: {:>4} jobs, miss {:.3}, final share {:.2}",
        elas.phased.completions,
        elas.phased.miss_rate(),
        elas.phased_share,
        elas.hungry.completions,
        elas.hungry.miss_rate(),
        elas.hungry_share,
    );

    let run = demo::run_runaway(horizon, seed);
    let solo = demo::run_solo(horizon, seed);
    println!("\nRunaway containment:");
    println!(
        "  victim (static 0.60 share): miss {:.3} vs solo baseline {:.3}",
        run.victim.miss_rate(),
        solo.miss_rate()
    );
    println!(
        "  runaway (elastic, wants 1.9 CPUs): peak granted share {:.3} — pinned at the host cap",
        run.runaway_peak_share
    );
    println!(
        "\nThe hungry sibling gained {} completions from the reclaimed idle\n\
         share; the runaway tenant could grow only into genuine slack.",
        elas.hungry.completions - stat.hungry.completions
    );
}
