//! Synthetic workloads: periodic RT load generators, CPU hogs and
//! aperiodic (bursty) applications.
//!
//! The paper's Section 5.3 loads the system with "instances of a simple
//! real-time periodic application" at various utilisations; [`PeriodicRt`]
//! is that application. [`CpuHog`] saturates the fair class, and
//! [`Aperiodic`] exercises the analyser's non-periodic verdict.

use selftune_simcore::metrics::LazyKey;
use selftune_simcore::rng::Rng;
use selftune_simcore::syscall::SyscallNr;
use selftune_simcore::task::{Action, Blocking, TaskCtx, Workload};
use selftune_simcore::time::{Dur, Time};
use std::collections::VecDeque;

/// A periodic real-time task: compute `C` (± noise), then sleep until the
/// next multiple of `P` on an absolute timer.
///
/// Marks `"<label>.job"` at each job completion; experiments derive
/// response times and deadline misses from the marks.
pub struct PeriodicRt {
    label_key: LazyKey,
    wcet: Dur,
    period: Dur,
    noise_frac: f64,
    rng: Rng,
    next_release: Option<Time>,
    plan: VecDeque<Action>,
    mark_pending: bool,
}

impl PeriodicRt {
    /// Creates a periodic task with mean job cost `wcet` and period
    /// `period`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < wcet <= period`.
    pub fn new(label: &str, wcet: Dur, period: Dur, noise_frac: f64, rng: Rng) -> PeriodicRt {
        assert!(
            !wcet.is_zero() && wcet <= period,
            "invalid (C={wcet}, P={period})"
        );
        PeriodicRt {
            label_key: LazyKey::new(format!("{label}.job")),
            wcet,
            period,
            noise_frac,
            rng,
            next_release: None,
            plan: VecDeque::new(),
            mark_pending: false,
        }
    }

    /// Mean utilisation `C/P`.
    pub fn utilisation(&self) -> f64 {
        self.wcet.ratio(self.period)
    }
}

impl Workload for PeriodicRt {
    fn next(&mut self, ctx: &mut TaskCtx<'_>) -> Action {
        loop {
            if let Some(a) = self.plan.pop_front() {
                return a;
            }
            if self.mark_pending {
                let k = self.label_key.get(ctx.metrics);
                ctx.metrics.mark_k(k, ctx.now);
                self.mark_pending = false;
            }
            let release = match self.next_release {
                None => ctx.now,
                Some(r) => {
                    let mut r = r + self.period;
                    // Skip releases we are hopelessly behind on (overload).
                    while r + self.period <= ctx.now {
                        r += self.period;
                    }
                    r
                }
            };
            self.next_release = Some(release);
            if release > ctx.now {
                self.plan.push_back(Action::syscall_blocking(
                    SyscallNr::ClockNanosleep,
                    Blocking::Until(release),
                ));
            }
            // Job-boundary I/O issued regardless of lateness (a real RT app
            // reads its clock and writes its output even when backlogged) —
            // this is what keeps the task observable to the tracer under
            // overload.
            self.plan
                .push_back(Action::syscall(SyscallNr::ClockGettime));
            let cost =
                self.rng
                    .normal_dur(self.wcet, self.wcet.mul_f64(self.noise_frac), Dur::us(10));
            self.plan.push_back(Action::Compute(cost));
            self.plan.push_back(Action::syscall(SyscallNr::Write));
            self.mark_pending = true;
        }
    }
}

/// A pure CPU hog: computes forever in large chunks, never blocks.
pub struct CpuHog {
    chunk: Dur,
}

impl CpuHog {
    /// Creates a hog that computes in `chunk`-sized slices.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    pub fn new(chunk: Dur) -> CpuHog {
        assert!(!chunk.is_zero());
        CpuHog { chunk }
    }
}

impl Workload for CpuHog {
    fn next(&mut self, _ctx: &mut TaskCtx<'_>) -> Action {
        Action::Compute(self.chunk)
    }
}

/// An aperiodic application: exponential think times, then a burst of
/// syscalls and a random slice of computation. Its event train has no
/// dominant periodic component.
pub struct Aperiodic {
    rng: Rng,
    mean_gap: Dur,
    mean_work: Dur,
    burst: u32,
    plan: VecDeque<Action>,
}

impl Aperiodic {
    /// Creates an aperiodic workload with mean inter-burst gap `mean_gap`
    /// and mean per-burst computation `mean_work`.
    pub fn new(mean_gap: Dur, mean_work: Dur, burst: u32, rng: Rng) -> Aperiodic {
        assert!(!mean_gap.is_zero() && !mean_work.is_zero());
        Aperiodic {
            rng,
            mean_gap,
            mean_work,
            burst,
            plan: VecDeque::new(),
        }
    }
}

impl Workload for Aperiodic {
    fn next(&mut self, _ctx: &mut TaskCtx<'_>) -> Action {
        loop {
            if let Some(a) = self.plan.pop_front() {
                return a;
            }
            let gap = Dur::from_secs_f64(self.rng.exp(1.0 / self.mean_gap.as_secs_f64()));
            self.plan.push_back(Action::SleepFor(gap.max(Dur::us(1))));
            for _ in 0..self.burst {
                self.plan.push_back(Action::syscall(SyscallNr::Read));
            }
            let work = Dur::from_secs_f64(self.rng.exp(1.0 / self.mean_work.as_secs_f64()));
            self.plan.push_back(Action::Compute(work.max(Dur::us(10))));
        }
    }
}

/// Builds the paper's Table 2 background reservations for a cumulative
/// load level. Each reservation is worth 15% of the CPU (e.g.
/// 645 µs / 4300 µs); row `L%` of the table runs `L/15` instances, the
/// "new reservation" column being the one added last.
///
/// Returns `(wcet, period)` pairs; the job cost fills the whole budget.
///
/// # Panics
///
/// Panics if `load_percent` is not one of the table's rows
/// (0, 15, 30, 45, 60).
pub fn table2_background_tasks(load_percent: u32) -> Vec<(Dur, Dur)> {
    let rows = [
        (Dur::us(645), Dur::us(4_300)),
        (Dur::us(1_200), Dur::us(8_000)),
        (Dur::us(1_650), Dur::us(11_000)),
        (Dur::us(2_250), Dur::us(15_000)),
    ];
    match load_percent {
        0 | 15 | 30 | 45 | 60 => rows[..(load_percent / 15) as usize].to_vec(),
        other => panic!("no Table 2 row for {other}% load"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selftune_simcore::kernel::Kernel;
    use selftune_simcore::scheduler::RoundRobin;
    use selftune_simcore::stats::mean;
    use selftune_simcore::task::TaskId;

    #[test]
    fn periodic_jobs_land_on_schedule() {
        let mut k = Kernel::new(RoundRobin::new(Dur::ms(4)));
        k.spawn(
            "rt",
            Box::new(PeriodicRt::new(
                "rt",
                Dur::ms(2),
                Dur::ms(10),
                0.0,
                Rng::new(5),
            )),
        );
        k.run_until(Time::ZERO + Dur::secs(1));
        let gaps = k.metrics().inter_mark_times_ms("rt.job");
        assert!(gaps.len() > 90);
        assert!((mean(&gaps) - 10.0).abs() < 0.1, "mean {}", mean(&gaps));
    }

    #[test]
    fn periodic_utilisation_measured() {
        let mut k = Kernel::new(RoundRobin::new(Dur::ms(4)));
        let w = PeriodicRt::new("rt", Dur::ms(3), Dur::ms(10), 0.05, Rng::new(5));
        assert!((w.utilisation() - 0.3).abs() < 1e-12);
        k.spawn("rt", Box::new(w));
        k.run_until(Time::ZERO + Dur::secs(2));
        let frac = k.thread_time(TaskId(0)).ratio(Dur::secs(2));
        assert!((frac - 0.3).abs() < 0.03, "measured {frac}");
    }

    #[test]
    fn hog_eats_everything() {
        let mut k = Kernel::new(RoundRobin::new(Dur::ms(4)));
        k.spawn("hog", Box::new(CpuHog::new(Dur::ms(10))));
        k.run_until(Time::ZERO + Dur::secs(1));
        assert_eq!(k.thread_time(TaskId(0)), Dur::secs(1));
        assert_eq!(k.idle_time(), Dur::ZERO);
    }

    #[test]
    fn aperiodic_keeps_running_without_periodicity() {
        let mut k = Kernel::new(RoundRobin::new(Dur::ms(4)));
        k.spawn(
            "ap",
            Box::new(Aperiodic::new(Dur::ms(20), Dur::ms(3), 4, Rng::new(9))),
        );
        k.run_until(Time::ZERO + Dur::secs(2));
        let n = k.syscall_count(TaskId(0));
        assert!(n > 100, "only {n} syscalls");
        // Far from saturating the CPU.
        assert!(k.idle_time() > Dur::ms(500));
    }

    #[test]
    fn table2_rows_match_paper() {
        assert!(table2_background_tasks(0).is_empty());
        let (c, p) = table2_background_tasks(15)[0];
        assert_eq!((c, p), (Dur::us(645), Dur::us(4_300)));
        // The cumulative utilisation matches the claimed load level.
        for load in [15u32, 30, 45, 60] {
            let rows = table2_background_tasks(load);
            assert_eq!(rows.len() as u32, load / 15);
            let u: f64 = rows.iter().map(|&(c, p)| c.ratio(p)).sum();
            assert!((u - f64::from(load) / 100.0).abs() < 0.01, "{load}%: u={u}");
        }
    }

    #[test]
    #[should_panic(expected = "no Table 2 row")]
    fn unknown_load_panics() {
        let _ = table2_background_tasks(33);
    }
}
