//! # selftune-sched
//!
//! Scheduling policies for the `selftune` reproduction of *"Self-tuning
//! Schedulers for Legacy Real-Time Applications"* (EuroSys 2010):
//!
//! * [`cbs`] — the Constant Bandwidth Server state machine (hard & soft),
//!   with FIFO or fixed-priority dispatch among attached tasks.
//! * [`reservation`] — EDF over CBS servers plus RT-FIFO and fair classes;
//!   the simulated AQuoSA scheduling stack.
//! * [`supervisor`] — admission control and bandwidth compression
//!   enforcing Σ Qᵢ/Tᵢ ≤ U_lub (Equation (1) of the paper).
//! * [`fp`] — rate-monotonic priority assignment for fixed-priority
//!   dispatch inside a server.
//! * [`edf`] — plain task-level EDF, used to validate the simulator against
//!   schedulability theory.

pub mod cbs;
pub mod edf;
pub mod fp;
pub mod reservation;
pub mod supervisor;

pub use cbs::{CbsMode, InnerPolicy, Server, ServerConfig, ServerId, ServerState};
pub use edf::EdfScheduler;
pub use fp::rate_monotonic;
pub use reservation::{Place, ReservationScheduler};
pub use supervisor::{ApplyReport, BwRequest, Compression, Grant, Supervisor};
