//! The reusable share-controller plane: demand signals, hysteresis and
//! the bandwidth-share feedback law.
//!
//! The paper's loop — observe a consumer, estimate its demand, re-request
//! its bandwidth through a supervisor that may compress the grant — runs
//! at every level of the stack:
//!
//! * **task level** — [`TaskController`](crate::TaskController) inside
//!   [`SelfTuningManager`](crate::SelfTuningManager) adapts one task's CBS
//!   reservation from its traced activations and consumed time;
//! * **VM and node level** — [`ShareController::step`] is called where its
//!   grant acts, by exactly two call sites that each assemble their own
//!   [`DemandSignal`] and execute the decision themselves:
//!   `selftune-virt`'s `VirtPlatform::step_vm_share` re-requests an
//!   elastic tenant's host share from the demand its *guest* manager
//!   measured, and `selftune-cluster`'s `stages::rebound_nodes` re-bounds
//!   a node's supervisor from its epoch feedback at the barrier. There is
//!   nothing in between: the levels share the law, not a cadence, a
//!   sensor or an apply step.
//!
//! The loops need the same two ingredients this module factors out:
//!
//! * [`Hysteresis`] — a relative deadband with confirmation counting, so
//!   estimator jitter cannot churn reservations (the task controller's
//!   period adoption and the share controller's target adoption share this
//!   exact state machine instead of duplicating it);
//! * [`ShareController`] — the share feedback law proper: fold a
//!   [`DemandSignal`] into a smoothed demand estimate, add the LFS++-style
//!   margin, clamp to the configured floor/cap, and re-request only when
//!   the hysteresis-filtered target drifts away from the current grant.

/// A relative deadband with confirmation counting: the change-suppression
/// state machine shared by the period estimator and the share controller.
///
/// A candidate within `band` of the current belief is absorbed (and clears
/// any pending change); a candidate outside the band is adopted only after
/// `confirmations` consecutive agreeing estimates. The first candidate
/// ever seen is adopted immediately — initial latency matters more than
/// initial stability, and a wrong first guess is corrected by the same
/// confirmation path.
#[derive(Clone, Debug)]
pub struct Hysteresis {
    band: f64,
    confirmations: u32,
    /// Pending change: `(candidate, consecutive confirmations)`.
    pending: Option<(f64, u32)>,
}

impl Hysteresis {
    /// A deadband of relative width `band`, adopting an out-of-band
    /// candidate after `confirmations` consecutive agreeing estimates.
    pub fn new(band: f64, confirmations: u32) -> Hysteresis {
        Hysteresis {
            band,
            confirmations,
            pending: None,
        }
    }

    /// Whether `a` lies within the deadband around `b`.
    pub fn within(&self, a: f64, b: f64) -> bool {
        if b == 0.0 {
            return a == 0.0;
        }
        ((a - b) / b).abs() <= self.band
    }

    /// The pending out-of-band change, if any: `(candidate, consecutive
    /// confirmations so far)`. Decision journals record this so a grant
    /// can be explained mid-confirmation.
    pub fn pending(&self) -> Option<(f64, u32)> {
        self.pending
    }

    /// Feeds one estimate; returns the newly adopted value, if any.
    pub fn filter(&mut self, current: Option<f64>, candidate: f64) -> Option<f64> {
        let Some(cur) = current else {
            // Initial adoption: no belief to defend yet.
            self.pending = None;
            return Some(candidate);
        };
        if self.within(candidate, cur) {
            // Agreeing estimate: drop any pending change.
            self.pending = None;
            return None;
        }
        self.pending = match self.pending {
            Some((cand, n)) if self.within(candidate, cand) => Some((cand, n + 1)),
            _ => Some((candidate, 1)),
        };
        if let Some((cand, n)) = self.pending {
            if n >= self.confirmations {
                self.pending = None;
                return Some(cand);
            }
        }
        None
    }
}

/// What a share controller observed about its consumer over one control
/// period — pure measurement, assembled by whoever owns the consumer (the
/// virt platform for a VM, a manager for its task set).
#[derive(Clone, Copy, Debug, Default)]
pub struct DemandSignal {
    /// CPU bandwidth the consumer measurably burned over the period.
    pub consumed_bw: f64,
    /// Bandwidth the consumer's own admission layer has booked (for a VM:
    /// the guest manager's granted inner reservations). Booked demand
    /// leads consumption — an idle-but-reserved consumer still needs its
    /// booking honoured.
    pub booked_bw: f64,
    /// The share currently granted to the consumer.
    pub granted_bw: f64,
    /// Saturation events inside the consumer during the period (its inner
    /// supervisor compressing grants): the signal that demand exceeds the
    /// current share, however much the bounded booking hides it.
    pub compressions: u64,
}

/// Configuration of a [`ShareController`].
#[derive(Clone, Copy, Debug)]
pub struct ShareControllerConfig {
    /// Headroom requested above the estimated demand (the LFS++ margin
    /// `x`: request `(1 + x) ×` the estimate).
    pub margin: f64,
    /// Relative deadband of target adoption (see [`Hysteresis`]).
    pub hysteresis: f64,
    /// Consecutive out-of-band estimates before the target moves.
    pub confirmations: u32,
    /// Never request below this share (keeps a starved consumer's
    /// controller observable, mirroring the supervisor's budget floor).
    pub min_share: f64,
    /// Never request above this share. The VM level sets this to the host
    /// supervisor's bound — an elastic consumer can never ask its way past
    /// what the node could grant anyone.
    pub max_share: f64,
    /// EWMA weight of the newest demand sample in `(0, 1]`.
    pub ewma_alpha: f64,
    /// Saturated-growth factor: while the consumer reports compressions,
    /// its true demand is unobservable (the grant clips it), so the raw
    /// sample reads as at least `growth ×` the current grant — the
    /// controller probes upward until compression stops or the cap binds.
    pub growth: f64,
}

impl Default for ShareControllerConfig {
    fn default() -> Self {
        ShareControllerConfig {
            margin: 0.15,
            hysteresis: 0.1,
            confirmations: 2,
            min_share: 0.01,
            max_share: 1.0,
            ewma_alpha: 0.5,
            growth: 1.5,
        }
    }
}

/// What the owner should do with the consumer's share this period.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ShareDecision {
    /// The grant tracks the target; leave the share alone.
    Hold,
    /// Re-request the share at this bandwidth (the supervisor may still
    /// compress the actual grant).
    Request(f64),
}

/// Which bound clipped the margin-inflated candidate, if any.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ClampReason {
    /// The candidate fit inside `[min_share, max_share]`.
    #[default]
    None,
    /// Clipped up to `min_share`.
    Floor,
    /// Clipped down to `max_share`.
    Cap,
}

impl ClampReason {
    /// Stable lowercase name, used by the journal codec.
    pub fn name(self) -> &'static str {
        match self {
            ClampReason::None => "none",
            ClampReason::Floor => "floor",
            ClampReason::Cap => "cap",
        }
    }

    /// Inverse of [`ClampReason::name`].
    pub fn from_name(s: &str) -> Option<ClampReason> {
        match s {
            "none" => Some(ClampReason::None),
            "floor" => Some(ClampReason::Floor),
            "cap" => Some(ClampReason::Cap),
            _ => None,
        }
    }
}

/// The inputs and intermediate state behind one share decision — what a
/// decision journal needs to make the grant explainable after the fact.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShareTrace {
    /// The raw demand sample after saturated-growth substitution.
    pub raw: f64,
    /// Whether the consumer reported compressions (saturated sample).
    pub saturated: bool,
    /// The smoothed demand estimate after folding `raw`.
    pub demand: f64,
    /// The margin-inflated, clamped request candidate.
    pub candidate: f64,
    /// Which bound clipped the candidate.
    pub clamp: ClampReason,
    /// Hysteresis state after the step: a not-yet-confirmed change.
    pub pending: Option<(f64, u32)>,
    /// The target adopted *this* step, if the hysteresis let one through.
    pub adopted: Option<f64>,
}

/// Share-*period* adaptation: the paper's `T^s = P` rule lifted one
/// level. A task-level reservation serves its task best when the server
/// period equals the task's period; the same holds one level up — a VM's
/// (or node's) share granularity should track the dominant period of the
/// consumers inside it, so inner deadlines align with outer replenishment
/// instead of beating against it.
///
/// The adapter is a thin policy over the shared [`Hysteresis`] state
/// machine: dominant-period observations inside the deadband are
/// absorbed, an out-of-band shift is adopted only after the configured
/// confirmations, and the adopted period is clamped into `[min, max]` so
/// a mis-detected outlier cannot drive the share period degenerate.
#[derive(Clone, Debug)]
pub struct PeriodAdapter {
    hyst: Hysteresis,
    min: f64,
    max: f64,
    period: Option<f64>,
}

impl PeriodAdapter {
    /// An adapter with deadband `band`, `confirmations` consecutive
    /// agreeing observations before a move, clamping adopted periods into
    /// `[min, max]` (seconds).
    ///
    /// # Panics
    ///
    /// Panics on an empty or non-positive `[min, max]` interval.
    pub fn new(band: f64, confirmations: u32, min: f64, max: f64) -> PeriodAdapter {
        assert!(
            min > 0.0 && min <= max,
            "degenerate period bounds [{min}, {max}]"
        );
        PeriodAdapter {
            hyst: Hysteresis::new(band, confirmations),
            min,
            max,
            period: None,
        }
    }

    /// The currently adopted share period (seconds), if any observation
    /// has been adopted yet.
    pub fn period(&self) -> Option<f64> {
        self.period
    }

    /// Feeds one dominant-consumer-period observation (seconds). Returns
    /// the newly adopted share period if this observation confirmed a
    /// move; non-positive or non-finite observations are ignored (no
    /// consumer period detected yet).
    pub fn observe(&mut self, dominant: f64) -> Option<f64> {
        if !dominant.is_finite() || dominant <= 0.0 {
            return None;
        }
        let candidate = dominant.clamp(self.min, self.max);
        let adopted = self.hyst.filter(self.period, candidate)?;
        self.period = Some(adopted);
        Some(adopted)
    }
}

/// The share feedback law (see the module docs).
#[derive(Clone, Debug)]
pub struct ShareController {
    cfg: ShareControllerConfig,
    hyst: Hysteresis,
    /// Smoothed demand estimate.
    demand: Option<f64>,
    /// Hysteresis-adopted request target.
    target: Option<f64>,
}

impl ShareController {
    /// Creates a controller.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration (non-positive cap, empty
    /// `(min, max)` interval, `ewma_alpha` outside `(0, 1]`).
    pub fn new(cfg: ShareControllerConfig) -> ShareController {
        assert!(
            cfg.max_share > 0.0 && cfg.min_share <= cfg.max_share,
            "degenerate share bounds [{}, {}]",
            cfg.min_share,
            cfg.max_share
        );
        assert!(
            cfg.ewma_alpha > 0.0 && cfg.ewma_alpha <= 1.0,
            "ewma_alpha {} out of (0, 1]",
            cfg.ewma_alpha
        );
        let hyst = Hysteresis::new(cfg.hysteresis, cfg.confirmations);
        ShareController {
            cfg,
            hyst,
            demand: None,
            target: None,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ShareControllerConfig {
        &self.cfg
    }

    /// The smoothed demand estimate, if any sample arrived yet.
    pub fn demand(&self) -> Option<f64> {
        self.demand
    }

    /// The current hysteresis-adopted request target, if any.
    pub fn target(&self) -> Option<f64> {
        self.target
    }

    /// Folds one control period's observation and decides, returning the
    /// decision with the [`ShareTrace`] a decision journal records
    /// alongside it.
    pub fn step(&mut self, sig: &DemandSignal) -> (ShareDecision, ShareTrace) {
        let mut raw = sig.consumed_bw.max(sig.booked_bw);
        let saturated = sig.compressions > 0;
        if saturated {
            // Saturated: the observable samples are clipped at the grant.
            raw = raw.max(sig.granted_bw * self.cfg.growth);
        }
        let alpha = self.cfg.ewma_alpha;
        let demand = match self.demand {
            Some(d) => alpha * raw + (1.0 - alpha) * d,
            None => raw,
        };
        self.demand = Some(demand);
        let unclamped = demand * (1.0 + self.cfg.margin);
        let candidate = unclamped.clamp(self.cfg.min_share, self.cfg.max_share);
        let clamp = if unclamped < self.cfg.min_share {
            ClampReason::Floor
        } else if unclamped > self.cfg.max_share {
            ClampReason::Cap
        } else {
            ClampReason::None
        };
        let adopted = self.hyst.filter(self.target, candidate);
        if let Some(t) = adopted {
            self.target = Some(t);
        }
        let decision = match self.target {
            // A target tracking the grant within the deadband holds: the
            // share only moves on confirmed drift, not estimator jitter.
            Some(t) if !self.hyst.within(t, sig.granted_bw.max(1e-12)) => ShareDecision::Request(t),
            _ => ShareDecision::Hold,
        };
        let trace = ShareTrace {
            raw,
            saturated,
            demand,
            candidate,
            clamp,
            pending: self.hyst.pending(),
            adopted,
        };
        (decision, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(consumed: f64, booked: f64, granted: f64, compressions: u64) -> DemandSignal {
        DemandSignal {
            consumed_bw: consumed,
            booked_bw: booked,
            granted_bw: granted,
            compressions,
        }
    }

    #[test]
    fn hysteresis_adopts_first_and_suppresses_jitter() {
        let mut h = Hysteresis::new(0.1, 3);
        assert_eq!(h.filter(None, 0.5), Some(0.5));
        // Within-band estimates are absorbed.
        assert_eq!(h.filter(Some(0.5), 0.52), None);
        assert_eq!(h.filter(Some(0.5), 0.46), None);
        // An out-of-band change needs 3 consecutive confirmations.
        assert_eq!(h.filter(Some(0.5), 0.8), None);
        assert_eq!(h.filter(Some(0.5), 0.82), None);
        assert_eq!(h.filter(Some(0.5), 0.79), Some(0.8));
        // A within-band estimate resets a pending change.
        assert_eq!(h.filter(Some(0.5), 0.8), None);
        assert_eq!(h.filter(Some(0.5), 0.5), None);
        assert_eq!(h.filter(Some(0.5), 0.8), None);
    }

    #[test]
    fn period_adapter_tracks_the_dominant_period_with_hysteresis() {
        let mut a = PeriodAdapter::new(0.1, 2, 0.001, 1.0);
        assert_eq!(a.period(), None);
        // First observation adopts immediately (initial latency beats
        // initial stability, same as the share target).
        assert_eq!(a.observe(0.040), Some(0.040));
        // Jitter inside the deadband is absorbed.
        assert_eq!(a.observe(0.042), None);
        assert_eq!(a.observe(0.038), None);
        assert_eq!(a.period(), Some(0.040));
        // A real shift (guests re-tuned to 100 ms) needs 2 confirmations.
        assert_eq!(a.observe(0.100), None);
        assert_eq!(a.observe(0.101), Some(0.100));
        assert_eq!(a.period(), Some(0.100));
    }

    #[test]
    fn period_adapter_clamps_and_ignores_degenerate_observations() {
        let mut a = PeriodAdapter::new(0.1, 1, 0.010, 0.200);
        // Outliers clamp into the configured band instead of driving the
        // share period degenerate.
        assert_eq!(a.observe(5.0), Some(0.200));
        // Non-observations (no consumer period detected) change nothing.
        assert_eq!(a.observe(0.0), None);
        assert_eq!(a.observe(f64::NAN), None);
        assert_eq!(a.observe(-1.0), None);
        assert_eq!(a.period(), Some(0.200));
        assert_eq!(a.observe(0.0001), Some(0.010));
    }

    #[test]
    #[should_panic(expected = "degenerate period bounds")]
    fn period_adapter_rejects_empty_bounds() {
        let _ = PeriodAdapter::new(0.1, 1, 0.5, 0.1);
    }

    #[test]
    fn grows_under_compression_until_cap() {
        let mut c = ShareController::new(ShareControllerConfig {
            max_share: 0.9,
            confirmations: 1,
            ..ShareControllerConfig::default()
        });
        // Saturated at a 0.3 grant: the controller probes upward.
        let d = c.step(&sig(0.29, 0.3, 0.3, 4)).0;
        match d {
            ShareDecision::Request(t) => assert!(t > 0.3, "grew to {t}"),
            other => panic!("expected growth, got {other:?}"),
        }
        // Still compressed at larger grants: requests rise toward the cap
        // and never past it (the hysteresis band may park the target just
        // under the clamp).
        let mut granted = 0.45;
        for _ in 0..20 {
            match c.step(&sig(granted, granted, granted, 1)).0 {
                ShareDecision::Request(t) => {
                    assert!(t <= 0.9 + 1e-12, "cap violated: {t}");
                    granted = t;
                }
                ShareDecision::Hold => {}
            }
        }
        assert!(
            granted > 0.8 && granted <= 0.9 + 1e-12,
            "converged near cap, got {granted}"
        );
    }

    #[test]
    fn shrinks_when_demand_collapses() {
        let mut c = ShareController::new(ShareControllerConfig {
            confirmations: 2,
            ..ShareControllerConfig::default()
        });
        // Steady demand around 0.4 under a 0.5 grant.
        for _ in 0..4 {
            c.step(&sig(0.4, 0.42, 0.5, 0));
        }
        // Demand collapses (idle phase): after the EWMA decays and the
        // confirmations pass, the controller requests a smaller share.
        let mut last_request = None;
        for _ in 0..12 {
            if let ShareDecision::Request(t) = c.step(&sig(0.01, 0.02, 0.5, 0)).0 {
                last_request = Some(t);
            }
        }
        let t = last_request.expect("idle consumer must shed its share");
        assert!(t < 0.1, "shrunk to {t}");
        assert!(t >= c.config().min_share);
    }

    #[test]
    fn holds_when_grant_tracks_target() {
        let mut c = ShareController::new(ShareControllerConfig::default());
        // First sample sets the target; grant already matches it.
        let demand = 0.4;
        let target = demand * 1.15;
        assert_eq!(
            c.step(&sig(demand, demand, target, 0)).0,
            ShareDecision::Hold
        );
        // Jitter within the deadband keeps holding.
        for bump in [0.39, 0.41, 0.4] {
            assert_eq!(c.step(&sig(bump, bump, target, 0)).0, ShareDecision::Hold);
        }
    }

    #[test]
    fn booked_demand_counts_even_when_idle() {
        let mut c = ShareController::new(ShareControllerConfig::default());
        // The consumer booked 0.5 but burned almost nothing this period
        // (e.g. guests between activations): the booking drives the
        // estimate, so the share is not yanked away mid-reservation.
        let d = c.step(&sig(0.02, 0.5, 0.1, 0)).0;
        match d {
            ShareDecision::Request(t) => assert!(t > 0.4, "{t}"),
            other => panic!("expected request, got {other:?}"),
        }
    }

    #[test]
    fn trace_explains_the_decision() {
        let mut c = ShareController::new(ShareControllerConfig {
            max_share: 0.5,
            confirmations: 2,
            ..ShareControllerConfig::default()
        });
        // Saturated first sample: raw substituted with growth × grant,
        // candidate clipped at the cap.
        let (d, tr) = c.step(&sig(0.3, 0.3, 0.6, 2));
        assert!(tr.saturated);
        assert!((tr.raw - 0.9).abs() < 1e-12, "raw {}", tr.raw);
        assert_eq!(tr.clamp, ClampReason::Cap);
        assert_eq!(tr.adopted, Some(0.5));
        assert_eq!(tr.pending, None);
        assert_eq!(d, ShareDecision::Request(0.5));

        // Demand collapses. The first idle sample still caps (the EWMA
        // remembers the saturated 0.9) and is absorbed by the deadband…
        let (_, tr) = c.step(&sig(0.01, 0.01, 0.5, 0));
        assert_eq!(tr.adopted, None);
        assert_eq!(tr.pending, None);
        assert_eq!(tr.clamp, ClampReason::Cap);
        // …the second leaves the band and starts a pending change: the
        // trace shows the unconfirmed candidate while the decision keeps
        // requesting the adopted target.
        let (_, tr) = c.step(&sig(0.01, 0.01, 0.5, 0));
        assert_eq!(tr.adopted, None);
        let (cand, n) = tr.pending.expect("change pending");
        assert!(cand < 0.5);
        assert_eq!(n, 1);
        assert_eq!(tr.clamp, ClampReason::None);
    }

    #[test]
    #[should_panic(expected = "degenerate share bounds")]
    fn degenerate_bounds_panic() {
        let _ = ShareController::new(ShareControllerConfig {
            min_share: 0.5,
            max_share: 0.2,
            ..ShareControllerConfig::default()
        });
    }
}
