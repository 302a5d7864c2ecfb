//! # selftune-benchmark
//!
//! One repeatable, layer-attributed benchmark for the node loop, the
//! fleet runner, the journal and the replica of the `selftune`
//! simulator, declared to the driver by `../BENCHMARK.json`.
//!
//! The package sits outside the root workspace and reaches the simulator
//! only through the crates' public items, so neither the root manifest
//! nor any crate changes when the benchmark does. See `README.md` for
//! how to run it and `WORKLOADS.md` for why each workload is there.
//!
//! * [`catalog`] — workloads and metrics: names, units, bounds, and the
//!   prediction each per-layer metric carries.
//! * [`workloads`] — the four scenarios, in full and smoke sizes.
//! * [`untraced`] — the end-to-end run (`--trace 0`).
//! * [`traced`] — the per-layer run (`--trace 1`): runner pass, node
//!   pass, stack pass, with [`micro`] loops on captured inputs.
//! * [`span`], [`stats`], [`json`] — spans and self time, order
//!   statistics, and the JSON the results are written in.
//! * [`harness`] — operation accounting (`attempted` / `failed`) and the
//!   final result line.
//! * [`suite`] — every workload in its own process, `results.json`, the
//!   environment record.
//! * [`compare`] — two result files under each metric's own bound.

#![warn(missing_docs)]

pub mod catalog;
pub mod compare;
pub mod harness;
pub mod json;
pub mod micro;
pub mod span;
pub mod stats;
pub mod suite;
pub mod traced;
pub mod untraced;
pub mod workloads;
