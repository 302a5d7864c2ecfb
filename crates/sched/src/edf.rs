//! Task-level Earliest Deadline First scheduling with implicit deadlines.
//!
//! The CBS layer of the paper builds on EDF among *servers*; this module
//! provides plain EDF among *tasks* for validation: a periodic task set with
//! total utilisation ≤ 1 is schedulable under preemptive EDF, which the
//! integration tests cross-check against the simulator.
//!
//! Each registered task has a relative deadline; a job's absolute deadline
//! is assigned when the task wakes (job activation), and a deadline miss is
//! detected when the job completes (blocks) after its deadline.

use selftune_simcore::scheduler::Scheduler;
use selftune_simcore::task::TaskId;
use selftune_simcore::time::{Dur, Time};
use std::collections::HashMap;

#[derive(Debug, Clone, Copy)]
struct EdfEntry {
    deadline: Time,
    ready: bool,
}

/// Preemptive task-level EDF with per-task relative deadlines.
#[derive(Debug, Default)]
pub struct EdfScheduler {
    rel_deadline: HashMap<TaskId, Dur>,
    entries: HashMap<TaskId, EdfEntry>,
    misses: u64,
    completions: u64,
}

impl EdfScheduler {
    /// Creates an empty scheduler.
    pub fn new() -> EdfScheduler {
        EdfScheduler::default()
    }

    /// Registers the relative (implicit) deadline of a task — its period,
    /// for a periodic task.
    ///
    /// # Panics
    ///
    /// Panics if `rel` is zero.
    pub fn set_relative_deadline(&mut self, task: TaskId, rel: Dur) {
        assert!(!rel.is_zero(), "relative deadline must be positive");
        self.rel_deadline.insert(task, rel);
    }

    /// Number of observed deadline misses (job completed after deadline).
    pub fn deadline_misses(&self) -> u64 {
        self.misses
    }

    /// Number of observed job completions.
    pub fn completions(&self) -> u64 {
        self.completions
    }
}

impl Scheduler for EdfScheduler {
    fn on_ready(&mut self, task: TaskId, now: Time) {
        let rel = self
            .rel_deadline
            .get(&task)
            .copied()
            .unwrap_or(Dur::secs(3600));
        self.entries.insert(
            task,
            EdfEntry {
                deadline: now + rel,
                ready: true,
            },
        );
    }

    fn on_block(&mut self, task: TaskId, now: Time) {
        if let Some(e) = self.entries.get_mut(&task) {
            if e.ready {
                e.ready = false;
                self.completions += 1;
                if now > e.deadline {
                    self.misses += 1;
                }
            }
        }
    }

    fn on_exit(&mut self, task: TaskId, _now: Time) {
        self.entries.remove(&task);
    }

    fn charge(&mut self, _task: TaskId, _ran: Dur, _now: Time) {}

    fn pick(&mut self, _now: Time) -> Option<TaskId> {
        self.entries
            .iter()
            .filter(|(_, e)| e.ready)
            .min_by_key(|(t, e)| (e.deadline, **t))
            .map(|(t, _)| *t)
    }

    fn horizon(&self, _task: TaskId, _now: Time) -> Option<Dur> {
        None
    }

    fn next_timer(&self, _now: Time) -> Option<Time> {
        None
    }

    fn on_timer(&mut self, _now: Time) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: Time = Time::ZERO;

    fn t(ms: u64) -> Time {
        T0 + Dur::ms(ms)
    }

    #[test]
    fn earliest_deadline_first() {
        let mut e = EdfScheduler::new();
        e.set_relative_deadline(TaskId(1), Dur::ms(100));
        e.set_relative_deadline(TaskId(2), Dur::ms(50));
        e.on_ready(TaskId(1), T0);
        e.on_ready(TaskId(2), T0);
        assert_eq!(e.pick(T0), Some(TaskId(2)));
        e.on_block(TaskId(2), t(10));
        assert_eq!(e.pick(t(10)), Some(TaskId(1)));
    }

    #[test]
    fn deadline_assigned_at_wake() {
        let mut e = EdfScheduler::new();
        e.set_relative_deadline(TaskId(1), Dur::ms(50));
        e.set_relative_deadline(TaskId(2), Dur::ms(55));
        e.set_relative_deadline(TaskId(3), Dur::ms(61));
        e.on_ready(TaskId(2), T0);
        e.on_ready(TaskId(3), T0);
        e.on_ready(TaskId(1), t(10));
        // Task 1's deadline is 10 + 50 = 60: after task 2's 55, before
        // task 3's 61.
        assert_eq!(e.pick(t(10)), Some(TaskId(2)));
        e.on_block(TaskId(2), t(10));
        assert_eq!(e.pick(t(10)), Some(TaskId(1)));
    }

    #[test]
    fn miss_counted_on_late_completion() {
        let mut e = EdfScheduler::new();
        e.set_relative_deadline(TaskId(1), Dur::ms(10));
        e.on_ready(TaskId(1), T0);
        e.on_block(TaskId(1), t(15)); // finished 5ms late
        assert_eq!(e.deadline_misses(), 1);
        assert_eq!(e.completions(), 1);
        e.on_ready(TaskId(1), t(20));
        e.on_block(TaskId(1), t(25)); // on time
        assert_eq!(e.deadline_misses(), 1);
        assert_eq!(e.completions(), 2);
    }

    #[test]
    fn ties_break_by_task_id() {
        let mut e = EdfScheduler::new();
        e.set_relative_deadline(TaskId(5), Dur::ms(10));
        e.set_relative_deadline(TaskId(3), Dur::ms(10));
        e.on_ready(TaskId(5), T0);
        e.on_ready(TaskId(3), T0);
        assert_eq!(e.pick(T0), Some(TaskId(3)));
    }

    #[test]
    fn exited_task_disappears() {
        let mut e = EdfScheduler::new();
        e.set_relative_deadline(TaskId(1), Dur::ms(10));
        e.on_ready(TaskId(1), T0);
        e.on_exit(TaskId(1), t(1));
        assert_eq!(e.pick(t(1)), None);
    }
}
