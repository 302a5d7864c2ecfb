//! The tracer hook installed into the kernel, and its user-space reader.
//!
//! [`Tracer::create`] returns the pair `(hook, reader)` sharing one ring
//! buffer, mirroring the paper's split between the kernel patch (producer)
//! and the `lfs++` tool that drains batches of timestamps through a
//! character device (consumer). The reader also carries the configuration
//! path: it can restrict tracing to a subset of tasks and system calls so
//! that "system calls that are totally unrelated with the scheduling
//! events" do not pollute the analyser (Section 4.1).

use crate::event::{Edge, TraceEvent};
use crate::overhead::{OverheadParams, TracerKind};
use crate::ring::RingBuffer;
use selftune_simcore::kernel::SyscallHook;
use selftune_simcore::syscall::SyscallNr;
use selftune_simcore::task::TaskId;
use selftune_simcore::time::{Dur, Time};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

/// Which tasks/calls are recorded; `None` means "all".
#[derive(Debug, Default, Clone)]
pub struct TraceFilter {
    /// Tasks to trace (`None` = every task).
    pub tasks: Option<BTreeSet<TaskId>>,
    /// Calls to trace (`None` = every call).
    pub calls: Option<BTreeSet<SyscallNr>>,
}

impl TraceFilter {
    /// A filter matching everything.
    pub fn all() -> TraceFilter {
        TraceFilter::default()
    }

    /// A filter matching only the given tasks (all calls).
    pub fn tasks_only<I: IntoIterator<Item = TaskId>>(tasks: I) -> TraceFilter {
        TraceFilter {
            tasks: Some(tasks.into_iter().collect()),
            calls: None,
        }
    }

    /// Returns `true` if the `(task, call)` pair passes the filter.
    pub fn matches(&self, task: TaskId, nr: SyscallNr) -> bool {
        self.tasks.as_ref().is_none_or(|s| s.contains(&task))
            && self.calls.as_ref().is_none_or(|s| s.contains(&nr))
    }
}

/// Tracer configuration.
#[derive(Debug, Clone)]
pub struct TracerConfig {
    /// Tracing mechanism (determines overhead and whether events are
    /// recorded).
    pub kind: TracerKind,
    /// Ring-buffer capacity in events.
    pub capacity: usize,
    /// Initial filter.
    pub filter: TraceFilter,
    /// Machine cost parameters.
    pub overhead: OverheadParams,
    /// Also record blocked→ready scheduler transitions (`sched_wakeup`),
    /// the paper's Section 6 alternative to syscall tracing. Wake records
    /// carry [`Edge::Wake`] with `nr = SchedYield` as a placeholder.
    pub trace_sched_events: bool,
}

impl Default for TracerConfig {
    fn default() -> Self {
        TracerConfig {
            kind: TracerKind::QTrace,
            capacity: 1 << 16,
            filter: TraceFilter::all(),
            overhead: OverheadParams::default(),
            trace_sched_events: false,
        }
    }
}

#[derive(Debug)]
struct Shared {
    buffer: RingBuffer<TraceEvent>,
    filter: TraceFilter,
    kind: TracerKind,
    overhead: OverheadParams,
    enabled: bool,
    trace_sched_events: bool,
}

/// Builder for the `(hook, reader)` pair.
pub struct Tracer;

impl Tracer {
    /// Creates the kernel-side hook and the user-space reader sharing one
    /// buffer.
    pub fn create(cfg: TracerConfig) -> (TracerHook, TraceReader) {
        let shared = Rc::new(RefCell::new(Shared {
            buffer: RingBuffer::new(cfg.capacity),
            filter: cfg.filter,
            kind: cfg.kind,
            overhead: cfg.overhead,
            enabled: true,
            trace_sched_events: cfg.trace_sched_events,
        }));
        (
            TracerHook {
                shared: Rc::clone(&shared),
            },
            TraceReader { shared },
        )
    }
}

/// The kernel-side producer: install into the simulator with
/// [`selftune_simcore::kernel::Kernel::install_hook`].
pub struct TracerHook {
    shared: Rc<RefCell<Shared>>,
}

impl TracerHook {
    fn record(&self, task: TaskId, nr: SyscallNr, edge: Edge, now: Time) -> Dur {
        let mut s = self.shared.borrow_mut();
        if !s.enabled {
            return Dur::ZERO;
        }
        // The filter is evaluated in the kernel patch, so filtered-out calls
        // cost (almost) nothing; we charge overhead only for recorded ones.
        if !s.kind.records() || !s.filter.matches(task, nr) {
            return Dur::ZERO;
        }
        s.buffer.push(TraceEvent {
            task,
            nr,
            edge,
            at: now,
        });
        s.overhead.per_edge(s.kind)
    }
}

impl SyscallHook for TracerHook {
    fn on_enter(&mut self, task: TaskId, nr: SyscallNr, now: Time) -> Dur {
        self.record(task, nr, Edge::Enter, now)
    }

    fn on_exit(&mut self, task: TaskId, nr: SyscallNr, now: Time) -> Dur {
        self.record(task, nr, Edge::Exit, now)
    }

    fn on_wake(&mut self, task: TaskId, now: Time) -> Dur {
        if !self.shared.borrow().trace_sched_events {
            return Dur::ZERO;
        }
        // The wake record reuses the syscall channel with a placeholder
        // number; the kernel stamps it with negligible cost, like a
        // tracepoint.
        self.record(task, SyscallNr::SchedYield, Edge::Wake, now)
    }
}

/// The user-space consumer: drains event batches and reconfigures the
/// tracer (the paper's character-device interface).
pub struct TraceReader {
    shared: Rc<RefCell<Shared>>,
}

impl TraceReader {
    /// Downloads and clears all buffered events (one batch).
    pub fn drain(&self) -> Vec<TraceEvent> {
        self.shared.borrow_mut().buffer.drain()
    }

    /// Downloads all buffered events into `out` (cleared first), reusing
    /// its allocation across batches.
    pub fn drain_into(&self, out: &mut Vec<TraceEvent>) {
        self.shared.borrow_mut().buffer.drain_into(out);
    }

    /// Number of events currently buffered.
    pub fn pending(&self) -> usize {
        self.shared.borrow().buffer.len()
    }

    /// Total events recorded since creation.
    pub fn total_recorded(&self) -> u64 {
        self.shared.borrow().buffer.total_pushed()
    }

    /// Events lost to ring-buffer overwrite.
    pub fn total_dropped(&self) -> u64 {
        self.shared.borrow().buffer.total_dropped()
    }

    /// Replaces the trace filter.
    pub fn set_filter(&self, filter: TraceFilter) {
        self.shared.borrow_mut().filter = filter;
    }

    /// Enables or disables recording (overhead stops too when disabled).
    pub fn set_enabled(&self, enabled: bool) {
        self.shared.borrow_mut().enabled = enabled;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> Time {
        Time::ZERO + Dur::ms(ms)
    }

    #[test]
    fn records_enter_and_exit() {
        let (mut hook, reader) = Tracer::create(TracerConfig::default());
        hook.on_enter(TaskId(1), SyscallNr::Ioctl, t(1));
        hook.on_exit(TaskId(1), SyscallNr::Ioctl, t(2));
        let evs = reader.drain();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].edge, Edge::Enter);
        assert_eq!(evs[1].edge, Edge::Exit);
        assert!(reader.drain().is_empty());
    }

    #[test]
    fn overhead_matches_kind() {
        let cfg = TracerConfig {
            kind: TracerKind::Strace,
            ..TracerConfig::default()
        };
        let per_edge = cfg.overhead.per_edge(TracerKind::Strace);
        let (mut hook, _reader) = Tracer::create(cfg);
        let ov = hook.on_enter(TaskId(1), SyscallNr::Read, t(1));
        assert_eq!(ov, per_edge);
    }

    #[test]
    fn notrace_records_nothing_and_costs_nothing() {
        let cfg = TracerConfig {
            kind: TracerKind::NoTrace,
            ..TracerConfig::default()
        };
        let (mut hook, reader) = Tracer::create(cfg);
        let ov = hook.on_enter(TaskId(1), SyscallNr::Read, t(1));
        assert_eq!(ov, Dur::ZERO);
        assert_eq!(reader.pending(), 0);
    }

    #[test]
    fn task_filter_drops_others() {
        let (mut hook, reader) = Tracer::create(TracerConfig::default());
        reader.set_filter(TraceFilter::tasks_only([TaskId(7)]));
        hook.on_enter(TaskId(1), SyscallNr::Read, t(1));
        hook.on_enter(TaskId(7), SyscallNr::Read, t(2));
        let evs = reader.drain();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].task, TaskId(7));
    }

    #[test]
    fn call_filter_drops_unrelated_calls() {
        let (mut hook, reader) = Tracer::create(TracerConfig::default());
        reader.set_filter(TraceFilter {
            tasks: None,
            calls: Some([SyscallNr::Ioctl].into_iter().collect()),
        });
        hook.on_enter(TaskId(1), SyscallNr::Brk, t(1));
        hook.on_enter(TaskId(1), SyscallNr::Ioctl, t(2));
        let evs = reader.drain();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].nr, SyscallNr::Ioctl);
    }

    #[test]
    fn filtered_calls_cost_nothing() {
        let (mut hook, reader) = Tracer::create(TracerConfig::default());
        reader.set_filter(TraceFilter::tasks_only([TaskId(7)]));
        let ov = hook.on_enter(TaskId(1), SyscallNr::Read, t(1));
        assert_eq!(ov, Dur::ZERO);
    }

    #[test]
    fn disable_stops_recording() {
        let (mut hook, reader) = Tracer::create(TracerConfig::default());
        reader.set_enabled(false);
        hook.on_enter(TaskId(1), SyscallNr::Read, t(1));
        assert_eq!(reader.pending(), 0);
        reader.set_enabled(true);
        hook.on_enter(TaskId(1), SyscallNr::Read, t(2));
        assert_eq!(reader.pending(), 1);
    }

    #[test]
    fn drop_counter_visible_to_reader() {
        let cfg = TracerConfig {
            capacity: 2,
            ..TracerConfig::default()
        };
        let (mut hook, reader) = Tracer::create(cfg);
        for i in 0..5 {
            hook.on_enter(TaskId(1), SyscallNr::Read, t(i));
        }
        assert_eq!(reader.total_recorded(), 5);
        assert_eq!(reader.total_dropped(), 3);
        assert_eq!(reader.pending(), 2);
    }
}
