//! # selftune-virt
//!
//! Hierarchical virtual platforms for the `selftune` reproduction of
//! *"Self-tuning Schedulers for Legacy Real-Time Applications"*
//! (EuroSys 2010): the paper's mechanism — CBS reservations whose budgets
//! are self-tuned from traced activation spectra — composed one level up,
//! the way the authors' follow-on IRMOS line deploys it for consolidated
//! and virtualised workloads.
//!
//! ## Architecture
//!
//! ```text
//!   Kernel<VirtScheduler>
//!        │
//!        ├── host ReservationScheduler ──── flat tasks (fair / FIFO /
//!        │     │                            own CBS servers, managed by
//!        │     │                            the host SelfTuningManager)
//!        │     ├── VM₀ share (CBS server) ─► guest scheduler (EDF / FP /
//!        │     │                             nested ReservationScheduler)
//!        │     │                               ▲ per-guest tracer +
//!        │     │                               │ SelfTuningManager
//!        │     └── VM₁ share (CBS server) ─► ...
//!        │
//!        └── host Supervisor: Σ shares + flat reservations ≤ U_lub
//! ```
//!
//! * [`sched`] — [`VirtScheduler`]: two-level dispatch (host EDF over VM
//!   shares, guest policy inside each share) with double charging — guest
//!   runtime depletes both the inner reservation and the VM share.
//! * [`platform`] — [`VirtPlatform`]: the runnable bundle. VM shares are
//!   admitted through the host [`selftune_sched::Supervisor`]; each
//!   self-tuning guest gets its own tracer (via [`TraceMux`]) and
//!   [`selftune_core::SelfTuningManager`] whose supervisor is clamped to
//!   the VM's share — compression under tenant overload stays inside the
//!   tenant.
//! * [`elastic`] — [`VmElasticConfig`], the configuration of the
//!   host-level share loop: every 500 ms [`VirtPlatform`] steps each
//!   elastic VM's [`selftune_core::share::ShareController`] on measured
//!   guest demand (bookings, consumption, compression events) and
//!   re-requests the share through the host supervisor.
//! * [`demo`] — the canonical two-tenant consolidation and elasticity
//!   scenarios backing the `vm_consolidation` / `vm_elasticity`
//!   experiments, examples and e2e tests.
//!
//! ## Why hierarchical
//!
//! On a flat node, one misbehaving legacy task inflates its bandwidth
//! request and the supervisor's proportional compression curbs *every*
//! task on the node. With virtual platforms, the host supervisor
//! arbitrates fixed shares *across* tenants while each tenant's manager
//! arbitrates *within* its share: a noisy neighbour can only melt itself.
//! The `vm_consolidation` e2e demonstrates both halves (isolation, and
//! completion throughput no worse than flat at equal total bandwidth).

pub mod demo;
pub mod elastic;
pub mod platform;
pub mod sched;

pub use elastic::VmElasticConfig;
pub use platform::{
    GuestPolicy, Scope, ShareGrantEvent, TraceMux, VirtPlatform, VmAdmissionError, VmConfig,
};
pub use sched::{GuestSched, VirtScheduler, VmId};

/// One-stop imports for virtual-platform experiments.
pub mod prelude {
    pub use crate::elastic::VmElasticConfig;
    pub use crate::platform::{
        GuestPolicy, Scope, ShareGrantEvent, VirtPlatform, VmAdmissionError, VmConfig,
    };
    pub use crate::sched::{GuestSched, VirtScheduler, VmId};
}
