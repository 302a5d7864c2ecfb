//! What-if replay: re-execute a journalled run with one policy swapped
//! from an arbitrary cut point, history pinned before the cut, the
//! swapped policy deciding after it — then diff the outcomes.

use selftune_cluster::{AggregateMetrics, ClusterRunner, PolicyKind, ScenarioSpec};

use crate::record::Journal;
use crate::replay::Replayer;

/// The single policy a what-if replay swaps.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PolicySwap {
    /// Turn the feedback rebalancer's drain decisions off from the cut
    /// onwards. Implemented by raising the pressure threshold above the
    /// signal's ceiling (the raw signal saturates at 1.0) rather than
    /// disabling the loop: the epoch *grid* — and with it every node's
    /// manager sampling schedule — stays identical to the recorded run,
    /// so the counterfactual differs only in the decisions.
    DisableRebalance,
    /// Swap the placement policy (candidate node ordering). With
    /// `cut_epoch == 0` the initial placement itself is re-decided under
    /// the new policy; from a later cut only the post-cut rebalance
    /// destinations change.
    Placement(PolicyKind),
    /// Freeze every elastic VM at its specified share (the fixed-share
    /// baseline of the elasticity experiments).
    FixedShares,
    /// Re-bound the node-level share plane: swap the floor and cap the
    /// per-node `ShareController`s run under (and switch the plane on if
    /// the recorded run had it off). Sweeping this over one recorded
    /// history answers "how tight could the node bounds have been?"
    /// without re-running the fleet live.
    ///
    /// Note: when the recorded run had *neither* the rebalancer nor the
    /// node-share plane enabled, enabling the plane here introduces epoch
    /// boundaries the recording did not have, so the pre-cut history is no
    /// longer pinned epoch-for-epoch. Journals recorded with either plane
    /// on (every diurnal scenario) keep their grid and their exactness.
    NodeShareBounds {
        /// Lowest bound an idle node may shed to.
        floor: f64,
        /// Highest bound a saturated node may claw back to.
        cap: f64,
    },
}

impl PolicySwap {
    /// Human-readable label for tables and logs.
    pub fn label(&self) -> String {
        match self {
            PolicySwap::DisableRebalance => "no-rebalance".to_owned(),
            PolicySwap::Placement(p) => format!("placement:{}", p.name()),
            PolicySwap::FixedShares => "fixed-shares".to_owned(),
            PolicySwap::NodeShareBounds { floor, cap } => format!("node-share:{floor}:{cap}"),
        }
    }
}

/// One counterfactual query: pin history up to `cut_epoch`, swap one
/// policy, let the run diverge from there.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WhatIf {
    /// First rebalance epoch decided by the *swapped* policy; epochs
    /// before it replay the journal verbatim. `0` re-decides everything.
    pub cut_epoch: usize,
    /// The policy to swap.
    pub swap: PolicySwap,
}

/// The outcome diff of a what-if replay.
#[derive(Clone, Debug)]
pub struct WhatIfReport {
    /// Exact replay of the journal (the factual).
    pub baseline: AggregateMetrics,
    /// The counterfactual under the swapped policy.
    pub variant: AggregateMetrics,
}

impl WhatIfReport {
    /// Counterfactual miss ratio minus factual miss ratio: positive means
    /// the recorded policy was doing useful work.
    pub fn miss_delta(&self) -> f64 {
        self.variant.miss_ratio() - self.baseline.miss_ratio()
    }
}

/// The journalled scenario with the what-if's policy swapped in.
pub fn variant_spec(journal: &Journal, whatif: &WhatIf) -> ScenarioSpec {
    let mut spec = journal.scenario.clone();
    match whatif.swap {
        PolicySwap::DisableRebalance => spec.rebalance.pressure = 2.0,
        PolicySwap::Placement(p) => spec.policy = p,
        PolicySwap::FixedShares => {
            for vm in &mut spec.vms {
                vm.elastic = false;
            }
        }
        PolicySwap::NodeShareBounds { floor, cap } => {
            assert!(
                0.0 < floor && floor <= cap && cap <= 1.0,
                "node-share bounds need 0 < floor <= cap <= 1, got [{floor}, {cap}]"
            );
            spec.node_share.enabled = true;
            spec.node_share.floor = floor;
            spec.node_share.cap = cap;
        }
    }
    spec
}

/// Runs the counterfactual on `threads` workers and diffs it against an
/// exact replay of the journal.
pub fn run_whatif(journal: &Journal, whatif: &WhatIf, threads: usize) -> WhatIfReport {
    let baseline = Replayer::new(threads).replay(journal);
    let spec = variant_spec(journal, whatif);
    let variant = match (whatif.swap, whatif.cut_epoch) {
        // A placement swap from epoch 0 re-decides admission itself, so
        // nothing of the recorded run stays pinned: a live run.
        (PolicySwap::Placement(_), 0) => ClusterRunner::new(threads).run(&spec, journal.seed),
        // Every other swap happened *after* the recorded initial
        // placement, which therefore stays pinned with the pre-cut epochs.
        _ => journal
            .reexecute(threads, Some(&spec), Some(whatif.cut_epoch), None)
            .expect("a run to the horizon has no cursor to reject"),
    };
    WhatIfReport { baseline, variant }
}
