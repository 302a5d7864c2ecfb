//! # selftune-analysis
//!
//! Schedulability analysis for CPU reservations, reproducing the analytical
//! figures of *"Self-tuning Schedulers for Legacy Real-Time Applications"*
//! (EuroSys 2010), Section 3.2:
//!
//! * [`sbf`] — the hard-CBS supply bound function.
//! * [`demand`] — periodic tasks, request/demand bound functions, testing
//!   points, hyperperiods.
//! * [`minbudget`] — minimum budget/bandwidth searches: a single task per
//!   server (Figure 1) and a rate-monotonic or EDF group sharing one
//!   reservation (Figure 2).
//!
//! Time is unit-agnostic `f64`; the experiments use milliseconds.

pub mod demand;
pub mod minbudget;
pub mod sbf;

pub use demand::{total_utilisation, PeriodicTask};
pub use minbudget::{
    dedicated_servers_bandwidth, min_bandwidth_rm_group, min_bandwidth_single,
    min_budget_edf_group, min_budget_rm_group, min_budget_single,
};
pub use sbf::cbs_sbf;
