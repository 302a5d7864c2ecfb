//! # selftune-core
//!
//! The self-tuning machinery of *"Self-tuning Schedulers for Legacy
//! Real-Time Applications"* (EuroSys 2010): the paper's primary
//! contribution, assembled from the substrate crates.
//!
//! * [`predictor`] — the per-job cost predictor (the paper's quantile
//!   estimator).
//! * [`lfspp`] — the LFS++ feedback law: `Q_req = (1+x)·P(c₁..c_N)`,
//!   `T^s = P` (Section 4.4).
//! * [`lfs`] — the original binary-sensor LFS baseline (\[2\]).
//! * [`controller`] — per-task controller: period analyser + feedback.
//! * [`manager`] — the user-space daemon: drains the tracer, drives the
//!   controllers, executes decisions and submits requests to the
//!   supervisor.
//! * [`share`] — the reusable controller plane: [`DemandSignal`], a
//!   confirmation hysteresis and the [`ShareController`] feedback law
//!   shared by the task-level loop and `selftune-virt`'s VM-level share
//!   adaptation.

pub mod controller;
pub mod lfs;
pub mod lfspp;
pub mod manager;
pub mod predictor;
pub mod share;

pub use controller::{ControllerConfig, FeedbackKind, TaskController};
pub use lfs::Lfs;
pub use lfspp::{BudgetRequest, LfsPlusPlus, LfsPpConfig};
pub use manager::{ManagerConfig, SelfTuningManager};
pub use predictor::QuantileEstimator;
pub use share::{
    ClampReason, DemandSignal, PeriodAdapter, ShareController, ShareControllerConfig,
    ShareDecision, ShareTrace,
};
