//! One-pass split of a drained batch into per-task entry-time trains.
//!
//! The manager hands every managed task the entry-edge timestamps of its
//! own system calls once per sampling period. Filtering the batch per task
//! ([`crate::entry_times_secs`]) reads every event once per task —
//! quadratic on a node with thousands of tasks. [`EntryDemux::split`] is a
//! counting sort by task instead: one pass to size each task's train, one
//! to scatter the timestamps, `O(events + tasks)` whatever the mix, each
//! train in arrival order.

use crate::event::{Edge, TraceEvent};
use selftune_simcore::task::TaskId;

/// No train: the task was not named in the last [`EntryDemux::split`].
const NO_SLOT: u32 = u32::MAX;

/// The per-task entry-time trains of one batch; every buffer is reused
/// from one [`EntryDemux::split`] to the next.
#[derive(Debug, Default)]
pub struct EntryDemux {
    /// Train index of each task of the last split, dense by task id.
    slot_of: Vec<u32>,
    /// The tasks of the last split, by train index (to reset `slot_of`).
    tasks: Vec<TaskId>,
    /// `ends[s]` is one past the last timestamp of train `s` in `times`;
    /// train `s` starts where train `s − 1` ends.
    ends: Vec<usize>,
    /// Every train's timestamps (seconds), train after train.
    times: Vec<f64>,
}

impl EntryDemux {
    /// Splits the entry edges of `events` into one train per task of
    /// `tasks`, replacing the previous split. Events of other tasks and
    /// exit/wake edges are skipped; a task named twice has one train.
    pub fn split(&mut self, events: &[TraceEvent], tasks: impl IntoIterator<Item = TaskId>) {
        for task in self.tasks.drain(..) {
            self.slot_of[task.index()] = NO_SLOT;
        }
        for task in tasks {
            if self.slot_of.len() <= task.index() {
                self.slot_of.resize(task.index() + 1, NO_SLOT);
            }
            if self.slot_of[task.index()] == NO_SLOT {
                self.slot_of[task.index()] =
                    u32::try_from(self.tasks.len()).expect("fewer than 2^32 tasks");
                self.tasks.push(task);
            }
        }

        // Size each train, turn the sizes into start offsets, then scatter:
        // advancing a train's offset per timestamp leaves it at the end.
        self.ends.clear();
        self.ends.resize(self.tasks.len(), 0);
        for e in events {
            if let Some(slot) = self.entry_slot(e) {
                self.ends[slot] += 1;
            }
        }
        let mut total = 0;
        for end in &mut self.ends {
            let len = *end;
            *end = total;
            total += len;
        }
        self.times.clear();
        self.times.resize(total, 0.0);
        for e in events {
            if let Some(slot) = self.entry_slot(e) {
                self.times[self.ends[slot]] = e.at.as_secs_f64();
                self.ends[slot] += 1;
            }
        }
    }

    /// The train an event belongs to, if it is an entry edge of a task of
    /// the current split.
    fn entry_slot(&self, e: &TraceEvent) -> Option<usize> {
        if e.edge != Edge::Enter {
            return None;
        }
        match self.slot_of.get(e.task.index()) {
            Some(&slot) if slot != NO_SLOT => Some(slot as usize),
            _ => None,
        }
    }

    /// The entry-edge timestamps (seconds, arrival order) of `task` in the
    /// last split batch — what [`crate::entry_times_secs`] returns for it.
    /// Empty for a task the split did not name.
    pub fn entries(&self, task: TaskId) -> &[f64] {
        match self.slot_of.get(task.index()) {
            Some(&slot) if slot != NO_SLOT => {
                let slot = slot as usize;
                let start = slot.checked_sub(1).map_or(0, |prev| self.ends[prev]);
                &self.times[start..self.ends[slot]]
            }
            _ => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::entry_times_secs;
    use proptest::prelude::*;
    use selftune_simcore::syscall::SyscallNr;
    use selftune_simcore::time::{Dur, Time};

    fn ev(task: u32, edge: Edge, us: u64) -> TraceEvent {
        TraceEvent {
            task: TaskId(task),
            nr: SyscallNr::Read,
            edge,
            at: Time::ZERO + Dur::us(us),
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn trains_keep_arrival_order_and_skip_other_edges_and_tasks() {
        let batch = [
            ev(3, Edge::Enter, 10),
            ev(1, Edge::Enter, 20),
            ev(3, Edge::Exit, 30),
            ev(9, Edge::Enter, 40), // unmanaged
            ev(3, Edge::Enter, 50),
            ev(1, Edge::Wake, 60),
        ];
        let mut demux = EntryDemux::default();
        demux.split(&batch, [TaskId(1), TaskId(3), TaskId(5)]);
        assert_eq!(demux.entries(TaskId(1)), [20e-6]);
        assert_eq!(demux.entries(TaskId(3)), [10e-6, 50e-6]);
        assert!(demux.entries(TaskId(5)).is_empty());
        assert!(demux.entries(TaskId(9)).is_empty());
        assert!(demux.entries(TaskId(1_000)).is_empty());
    }

    #[test]
    fn a_new_split_forgets_the_previous_tasks() {
        let batch = [ev(1, Edge::Enter, 10), ev(2, Edge::Enter, 20)];
        let mut demux = EntryDemux::default();
        demux.split(&batch, [TaskId(1), TaskId(2)]);
        assert_eq!(demux.entries(TaskId(2)).len(), 1);
        demux.split(&batch, [TaskId(1)]);
        assert_eq!(demux.entries(TaskId(1)), [10e-6]);
        assert!(demux.entries(TaskId(2)).is_empty());
        demux.split(&[], [TaskId(1)]);
        assert!(demux.entries(TaskId(1)).is_empty());
    }

    proptest! {
        /// For a random interleaved batch — every edge kind, managed and
        /// unmanaged task ids, a task managed twice, tasks with no events
        /// — over two consecutive splits of one demultiplexer, each task's
        /// train equals the per-task filter element for element.
        #[test]
        fn every_train_equals_the_per_task_filter(
            raw in prop::collection::vec((0u32..12, 0u8..3, 0u64..5_000), 0..200),
            managed in prop::collection::vec(0u32..16, 0..10),
            cut in 0usize..200,
        ) {
            let mut at = 0;
            let batch: Vec<TraceEvent> = raw
                .iter()
                .map(|&(task, edge, gap_us)| {
                    at += gap_us;
                    let edge = [Edge::Enter, Edge::Exit, Edge::Wake][usize::from(edge)];
                    ev(task, edge, at)
                })
                .collect();
            let (first, second) = batch.split_at(cut.min(batch.len()));
            let mut demux = EntryDemux::default();
            // Second split: fewer tasks, so stale slots would show.
            for (events, tasks) in [(first, &managed[..]), (second, &managed[managed.len() / 2..])] {
                demux.split(events, tasks.iter().map(|&t| TaskId(t)));
                for task in (0..20).map(TaskId) {
                    let expected = if tasks.contains(&task.0) {
                        entry_times_secs(events, task)
                    } else {
                        Vec::new()
                    };
                    prop_assert_eq!(bits(demux.entries(task)), bits(&expected), "{}", task);
                }
            }
        }
    }
}
