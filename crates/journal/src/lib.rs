//! # selftune-journal
//!
//! Deterministic decision journal and replay/what-if engine for the
//! `selftune` fleet simulation (reproducing *"Self-tuning Schedulers for
//! Legacy Real-Time Applications"*, EuroSys 2010, grown to fleet scale).
//!
//! ## Architecture
//!
//! ```text
//!   ClusterRunner::run_logged ──► FleetEvent stream ──► Journal
//!        (admissions, kills,        (canonical order:     │ to_text /
//!         share grants,              instant, class,      │ from_text
//!         compressions,              tie-break)           ▼
//!         rebalance passes,                          journal file
//!         migrations)                                     │
//!                                                         ▼
//!   Journal::verify ◄──────── Journal::reexecute ◄────────┘
//!        │                (placements + per-epoch moves
//!        │                 substituted from the journal;
//!        │                 full run or to a cursor, optional
//!        ▼                 scenario override and cut epoch)
//!   byte-identical summary_csv at any thread count — or a named
//!   divergence; run_whatif swaps ONE policy from a cut epoch instead
//!   and diffs the counterfactual against the exact replay.
//! ```
//!
//! One module owns each concern, and nothing is mirrored:
//!
//! * [`record`] — [`Journal`]: record a run, extract the pin tables
//!   replay feeds back into the runner. [`DecisionRecord`] is the runner's
//!   own [`FleetEvent`](selftune_cluster::FleetEvent) re-exported: the
//!   schema and its canonical order live in `selftune_cluster::events`.
//! * [`codec`] — the *text form*: `key = value` headers, delimited
//!   blocks, the `admission =` line, one record per line. Journal files,
//!   `selftune-distrib`'s frame payloads and its checkpoint files are all
//!   written and parsed here. Round-trips exactly; truncated or corrupt
//!   input — including a well-formed record naming a node, task, VM or
//!   epoch the scenario lacks — is an error quoting the line.
//! * [`replay`] — *re-execution*: [`Journal::reexecute`] and
//!   [`Journal::verify`] (byte-compare, name the first differing summary
//!   line — [`divergence`] is that report), fronted by [`Replayer`]. The journal is thread-count
//!   invariant, so is its replay — a CI property.
//! * [`whatif`] — [`run_whatif`]: pin history up to a cut epoch, swap one
//!   policy ([`PolicySwap`]) and quantify the outcome delta.
//!
//! ## Why a journal
//!
//! The fleet's control decisions (admission, elastic share grants,
//! feedback re-placement) are spread across three control loops and any
//! number of worker threads. The journal serialises *why* each decision
//! was taken (the signals it saw) into one canonical stream, makes the
//! whole run reproducible from that stream alone, and turns "what would
//! have happened without the rebalancer?" from a speculation into an
//! exact counterfactual run.
//!
//! ## Example
//!
//! ```
//! use selftune_cluster::prelude::*;
//! use selftune_journal::prelude::*;
//!
//! let spec = ScenarioSpec::skewed_overload_demo(4, 12)
//!     .with_rebalance(ScenarioSpec::demo_rebalance());
//! let (live, journal) = Journal::record(2, &spec, 42);
//!
//! // The text codec round-trips exactly…
//! let reloaded = Journal::from_text(&journal.to_text()).unwrap();
//! assert_eq!(reloaded, journal);
//!
//! // …and replay reproduces the live aggregates byte for byte.
//! let replayed = Replayer::new(8).verify(&reloaded).unwrap();
//! assert_eq!(replayed.summary_csv(), live.summary_csv());
//!
//! // What if the rebalancer had been off?
//! let report = run_whatif(
//!     &journal,
//!     &WhatIf { cut_epoch: 0, swap: PolicySwap::DisableRebalance },
//!     2,
//! );
//! assert!(report.variant.rebalance.moves == 0);
//! ```

pub mod codec;
pub mod record;
pub mod replay;
pub mod whatif;

pub use codec::{record_from_line, record_line, IdBounds, FORMAT_VERSION};
pub use record::{DecisionRecord, Journal};
pub use replay::{divergence, Replayer};
pub use whatif::{run_whatif, variant_spec, PolicySwap, WhatIf, WhatIfReport};

/// One-stop imports for journal recording, replay and what-if queries.
pub mod prelude {
    pub use crate::codec::{record_from_line, record_line, IdBounds, FORMAT_VERSION};
    pub use crate::record::{DecisionRecord, Journal};
    pub use crate::replay::Replayer;
    pub use crate::whatif::{run_whatif, variant_spec, PolicySwap, WhatIf, WhatIfReport};
}
