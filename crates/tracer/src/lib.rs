//! # selftune-tracer
//!
//! The simulated counterpart of the paper's `qtrace` kernel tracer
//! (Section 4.1): timestamps at system-call entry/exit recorded into a
//! circular buffer, filtered per task and per call, drained in batches by a
//! user-space reader — plus overhead models for the tracers compared in
//! Table 1 (`NOTRACE`, `QTRACE`, `QOSTRACE`, `STRACE`).
//!
//! * [`ring`] — the bounded circular buffer.
//! * [`event`] — trace records and per-call statistics (Figure 4).
//! * [`demux`] — one-pass split of a batch into per-task entry trains.
//! * [`overhead`] — per-edge overhead models (Table 1).
//! * [`hook`] — the kernel hook + user-space reader pair.

pub mod demux;
pub mod event;
pub mod hook;
pub mod overhead;
pub mod ring;

pub use demux::EntryDemux;
pub use event::{counts_by_call, entry_times_secs, wake_times_secs, Edge, TraceEvent};
pub use hook::{TraceFilter, TraceReader, Tracer, TracerConfig, TracerHook};
pub use overhead::TracerKind;
pub use ring::RingBuffer;
