//! Trace event records and per-call statistics.

use selftune_simcore::syscall::SyscallNr;
use selftune_simcore::task::TaskId;
use selftune_simcore::time::Time;

/// Which edge of the system call was observed.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Edge {
    /// Entry into the kernel.
    Enter,
    /// Return to user space (for blocking calls: at wake-up, when the
    /// return path runs).
    Exit,
    /// Blocked → ready scheduler transition (`sched_wakeup`); recorded
    /// only when [`crate::TracerConfig::trace_sched_events`] is set — the
    /// alternative event source suggested in the paper's Section 6.
    Wake,
}

/// One timestamped syscall observation.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// The traced task.
    pub task: TaskId,
    /// Which call was issued.
    pub nr: SyscallNr,
    /// Entry or exit edge.
    pub edge: Edge,
    /// Kernel timestamp of the edge.
    pub at: Time,
}

/// Counts events per system call, for the paper's Figure 4 histogram.
///
/// Only `Enter` edges are counted, so each issued call counts once.
pub fn counts_by_call(events: &[TraceEvent]) -> Vec<(SyscallNr, u64)> {
    let mut counts = [0u64; SyscallNr::ALL.len()];
    for e in events {
        if e.edge == Edge::Enter {
            counts[e.nr.index()] += 1;
        }
    }
    let mut out: Vec<(SyscallNr, u64)> = SyscallNr::ALL
        .iter()
        .copied()
        .zip(counts)
        .filter(|&(_, c)| c > 0)
        .collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    out
}

/// Extracts the entry-edge timestamps (seconds) for a given task — the
/// event train handed to the period analyser.
pub fn entry_times_secs(events: &[TraceEvent], task: TaskId) -> Vec<f64> {
    events
        .iter()
        .filter(|e| e.task == task && e.edge == Edge::Enter)
        .map(|e| e.at.as_secs_f64())
        .collect()
}

/// Extracts the wake-edge timestamps (seconds) for a given task — the
/// scheduler-event train (paper Section 6 alternative source).
pub fn wake_times_secs(events: &[TraceEvent], task: TaskId) -> Vec<f64> {
    events
        .iter()
        .filter(|e| e.task == task && e.edge == Edge::Wake)
        .map(|e| e.at.as_secs_f64())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use selftune_simcore::time::Dur;

    fn ev(task: u32, nr: SyscallNr, edge: Edge, ms: u64) -> TraceEvent {
        TraceEvent {
            task: TaskId(task),
            nr,
            edge,
            at: Time::ZERO + Dur::ms(ms),
        }
    }

    #[test]
    fn counts_only_entries_sorted_desc() {
        let events = vec![
            ev(1, SyscallNr::Ioctl, Edge::Enter, 0),
            ev(1, SyscallNr::Ioctl, Edge::Exit, 1),
            ev(1, SyscallNr::Ioctl, Edge::Enter, 2),
            ev(1, SyscallNr::Read, Edge::Enter, 3),
        ];
        let c = counts_by_call(&events);
        assert_eq!(c, vec![(SyscallNr::Ioctl, 2), (SyscallNr::Read, 1)]);
    }

    #[test]
    fn entry_times_filter_by_task() {
        let events = vec![
            ev(1, SyscallNr::Read, Edge::Enter, 10),
            ev(2, SyscallNr::Read, Edge::Enter, 20),
            ev(1, SyscallNr::Read, Edge::Exit, 30),
            ev(1, SyscallNr::Write, Edge::Enter, 40),
        ];
        let ts = entry_times_secs(&events, TaskId(1));
        assert_eq!(ts.len(), 2);
        assert!((ts[0] - 0.010).abs() < 1e-12);
        assert!((ts[1] - 0.040).abs() < 1e-12);
    }

    #[test]
    fn empty_input_gives_empty_outputs() {
        assert!(counts_by_call(&[]).is_empty());
        assert!(entry_times_secs(&[], TaskId(0)).is_empty());
    }
}
