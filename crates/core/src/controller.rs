//! The per-task controller: period analyser + feedback law (Figure 3).
//!
//! A [`TaskController`] is pure decision logic: the manager feeds it the
//! observations harvested from the kernel (trace events, cumulative CPU
//! time, the budget-exhaustion flag) and receives scheduling decisions
//! (attach the task to a fresh reservation, or adjust an existing one).
//! Keeping kernel access out of this type makes the control laws unit
//! testable in isolation.

use crate::lfs::{Lfs, LfsConfig};
use crate::lfspp::{BudgetRequest, LfsPlusPlus, LfsPpConfig};
use crate::share::Hysteresis;
use selftune_simcore::time::{Dur, Time};
use selftune_spectrum::{AnalyserConfig, PeriodAnalyser};

/// Which feedback law drives the budget.
#[derive(Clone, Debug)]
pub enum FeedbackKind {
    /// The paper's LFS++ (consumed-time sensor + quantile predictor).
    LfsPp(LfsPpConfig),
    /// The original LFS baseline (binary budget-exhaustion sensor).
    Lfs(LfsConfig),
}

impl Default for FeedbackKind {
    fn default() -> Self {
        FeedbackKind::LfsPp(LfsPpConfig::default())
    }
}

/// Controller configuration.
#[derive(Clone, Debug)]
pub struct ControllerConfig {
    /// Period analyser parameters.
    pub analyser: AnalyserConfig,
    /// Feedback law.
    pub feedback: FeedbackKind,
    /// Skip rate detection and use this period (the paper's Section 5.4
    /// isolation runs disable detection).
    pub fixed_period: Option<Dur>,
    /// Ignore re-detected periods within this relative distance of the
    /// current one (avoids reservation churn from estimator jitter).
    pub period_hysteresis: f64,
    /// A period estimate that *differs* from the current belief (beyond the
    /// hysteresis) is adopted only after this many consecutive agreeing
    /// estimates — a transient mis-detection (e.g. a GOP harmonic winning
    /// one window) must not re-dimension the reservation.
    pub period_confirmations: u32,
    /// Reject period estimates below this bound.
    pub min_period: Dur,
    /// Reject period estimates above this bound.
    pub max_period: Dur,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            analyser: AnalyserConfig::default(),
            feedback: FeedbackKind::default(),
            fixed_period: None,
            period_hysteresis: 0.05,
            period_confirmations: 3,
            min_period: Dur::ms(2),
            max_period: Dur::ms(500),
        }
    }
}

/// Observations handed to one controller step.
#[derive(Debug)]
pub struct ControllerInput<'a> {
    /// Sampling instant.
    pub now: Time,
    /// Entry-edge timestamps (seconds) of this task's traced syscalls since
    /// the previous step.
    pub events_secs: &'a [f64],
    /// Cumulative CPU time consumed by the task (thread-time sensor).
    pub consumed: Dur,
    /// Wall time since the previous step (`S`).
    pub elapsed: Dur,
    /// Binary sensor: did the reservation deplete since the last step?
    pub exhausted: bool,
    /// Whether the task already runs inside a reservation.
    pub attached: bool,
}

/// A controller decision for the manager to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Nothing to do yet (still detecting, or no new information).
    None,
    /// Create a reservation with these parameters and attach the task.
    Attach(BudgetRequest),
    /// Submit this request for the existing reservation.
    Adjust(BudgetRequest),
}

enum Feedback {
    LfsPp(LfsPlusPlus),
    Lfs(Lfs),
}

/// The per-task controller.
pub struct TaskController {
    cfg: ControllerConfig,
    analyser: PeriodAnalyser,
    feedback: Feedback,
    period: Option<Dur>,
    /// Period-change suppression — the same deadband/confirmation state
    /// machine the VM-level share controller uses (see [`crate::share`]).
    hysteresis: Hysteresis,
}

impl TaskController {
    /// Creates a controller.
    pub fn new(cfg: ControllerConfig) -> TaskController {
        let analyser = PeriodAnalyser::new(cfg.analyser);
        let feedback = match &cfg.feedback {
            FeedbackKind::LfsPp(c) => Feedback::LfsPp(LfsPlusPlus::new(c.clone())),
            FeedbackKind::Lfs(c) => Feedback::Lfs(Lfs::new(c.clone())),
        };
        let period = cfg.fixed_period;
        let hysteresis = Hysteresis::new(cfg.period_hysteresis, cfg.period_confirmations);
        TaskController {
            cfg,
            analyser,
            feedback,
            period,
            hysteresis,
        }
    }

    /// Creates a controller seeded with an initial period belief — the
    /// warm-start path for a task migrated from another node, where the
    /// source already detected the period. Unlike `fixed_period` the
    /// belief stays *live*: fresh estimates on the destination can still
    /// revise it through the usual hysteresis/confirmation machinery.
    pub fn with_initial_period(cfg: ControllerConfig, period: Dur) -> TaskController {
        let mut ctl = TaskController::new(cfg);
        if ctl.period.is_none() && !period.is_zero() {
            ctl.period = Some(period);
        }
        ctl
    }

    /// The currently believed task period, if any.
    pub fn period(&self) -> Option<Dur> {
        self.period
    }

    /// The period analyser (for spectrum inspection in experiments).
    pub fn analyser(&self) -> &PeriodAnalyser {
        &self.analyser
    }

    fn update_period(&mut self, events_secs: &[f64]) {
        self.analyser.feed(events_secs);
        let Some(est) = self.analyser.estimate() else {
            return;
        };
        let p = Dur::from_secs_f64(est.period);
        if p < self.cfg.min_period || p > self.cfg.max_period {
            return;
        }
        // Deadband + confirmation counting live in the shared state
        // machine; the controller only maps durations to seconds.
        let current = self.period.map(|d| d.as_secs_f64());
        if let Some(adopted) = self.hysteresis.filter(current, p.as_secs_f64()) {
            self.period = Some(Dur::from_secs_f64(adopted));
        }
    }

    /// One sampling step.
    pub fn step(&mut self, input: &ControllerInput<'_>) -> Decision {
        if self.cfg.fixed_period.is_none() {
            self.update_period(input.events_secs);
        }
        let Some(period) = self.period else {
            return Decision::None;
        };
        let request = match &mut self.feedback {
            Feedback::LfsPp(c) => c.step(input.consumed, input.elapsed, period),
            Feedback::Lfs(c) => Some(c.step(input.exhausted, period)),
        };
        match (request, input.attached) {
            (None, _) => Decision::None,
            (Some(r), false) => Decision::Attach(r),
            (Some(r), true) => Decision::Adjust(r),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selftune_spectrum::synthetic_burst_train;

    fn input<'a>(events: &'a [f64], consumed_ms: u64, attached: bool) -> ControllerInput<'a> {
        ControllerInput {
            now: Time::ZERO + Dur::secs(1),
            events_secs: events,
            consumed: Dur::ms(consumed_ms),
            elapsed: Dur::secs(1),
            exhausted: false,
            attached,
        }
    }

    #[test]
    fn no_decision_while_period_unknown() {
        let mut c = TaskController::new(ControllerConfig::default());
        // Aperiodic-ish sparse events: analyser may or may not estimate;
        // with no events at all it certainly cannot.
        let d = c.step(&input(&[], 10, false));
        assert_eq!(d, Decision::None);
        assert_eq!(c.period(), None);
    }

    #[test]
    fn detects_period_then_attaches() {
        let mut c = TaskController::new(ControllerConfig::default());
        let events = synthetic_burst_train(0.04, 50, 6, 0.005);
        // First step: period detected, LFS++ baseline stored, no request.
        let d1 = c.step(&input(&events, 100, false));
        assert_eq!(d1, Decision::None);
        let p = c.period().expect("period detected");
        assert!((p.as_ms_f64() - 40.0).abs() < 1.0, "{p}");
        // Second step: a consumption increment exists → attach.
        let d2 = c.step(&input(&[], 350, false));
        match d2 {
            Decision::Attach(r) => {
                assert_eq!(r.period, p);
                // ΔW = 250ms over 1s with P = 40ms → c ≈ 10ms; ×1.15.
                assert!((r.budget.as_ms_f64() - 11.5).abs() < 0.5, "{r:?}");
            }
            other => panic!("expected attach, got {other:?}"),
        }
    }

    #[test]
    fn adjusts_once_attached() {
        let mut c = TaskController::new(ControllerConfig {
            fixed_period: Some(Dur::ms(40)),
            ..ControllerConfig::default()
        });
        let _ = c.step(&input(&[], 100, true));
        let d = c.step(&input(&[], 350, true));
        assert!(matches!(d, Decision::Adjust(_)), "{d:?}");
    }

    #[test]
    fn fixed_period_skips_detection() {
        let mut c = TaskController::new(ControllerConfig {
            fixed_period: Some(Dur::ms(40)),
            feedback: FeedbackKind::Lfs(LfsConfig::default()),
            ..ControllerConfig::default()
        });
        // LFS decides from step one, even with zero events.
        let d = c.step(&input(&[], 0, false));
        match d {
            Decision::Attach(r) => assert_eq!(r.period, Dur::ms(40)),
            other => panic!("expected attach, got {other:?}"),
        }
    }

    #[test]
    fn hysteresis_suppresses_small_period_changes() {
        let mut c = TaskController::new(ControllerConfig::default());
        let events = synthetic_burst_train(0.04, 50, 6, 0.005);
        let _ = c.step(&input(&events, 100, false));
        let p1 = c.period().unwrap();
        // Feed a slightly different rate (within 5%): period unchanged.
        let events2: Vec<f64> = synthetic_burst_train(0.0405, 50, 6, 0.005)
            .iter()
            .map(|t| t + 2.5)
            .collect();
        let _ = c.step(&input(&events2, 200, false));
        assert_eq!(c.period(), Some(p1));
    }

    #[test]
    fn out_of_range_estimates_are_rejected() {
        let mut c = TaskController::new(ControllerConfig {
            min_period: Dur::ms(35),
            max_period: Dur::ms(50),
            ..ControllerConfig::default()
        });
        // 10ms period (100 Hz) is outside [35, 50] ms: rejected.
        let events = synthetic_burst_train(0.01, 200, 4, 0.002);
        let _ = c.step(&input(&events, 100, false));
        assert_eq!(c.period(), None);
    }

    #[test]
    fn period_change_is_confirmed_by_steps_that_carry_no_events() {
        // The analyser answers an unchanged window from memory; the
        // hysteresis must still see that answer once per step, or a
        // change would wait for fresh events to be confirmed.
        let cfg = ControllerConfig::default();
        let k = cfg.period_confirmations;
        let mut c = TaskController::new(cfg);
        let _ = c.step(&input(
            &synthetic_burst_train(0.04, 50, 6, 0.005),
            100,
            false,
        ));
        let old = c.period().expect("period detected");
        // One batch, 10 s later, at 20 ms: it evicts the whole old window.
        let faster: Vec<f64> = synthetic_burst_train(0.02, 100, 6, 0.005)
            .iter()
            .map(|t| t + 10.0)
            .collect();
        let _ = c.step(&input(&faster, 200, false));
        for step in 2..k {
            let _ = c.step(&input(&[], 200, false));
            assert_eq!(c.period(), Some(old), "adopted after only {step} steps");
        }
        let _ = c.step(&input(&[], 200, false));
        let new = c.period().expect("still known");
        assert!(
            (new.as_ms_f64() - 20.0).abs() < 0.5,
            "after {k} steps: {new}"
        );
    }
}
