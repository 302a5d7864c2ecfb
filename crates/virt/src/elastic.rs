//! Elastic VM shares: the host-level instance of the paper's feedback
//! loop.
//!
//! A statically admitted VM share fits nobody for long: a tenant whose
//! measured demand shrinks keeps hoarding host bandwidth, and a tenant
//! whose demand grows compresses its own guests even when the host has
//! slack. An elastic VM closes the same loop one level up: every
//! 500 ms the platform folds what the VM *measurably* did
//! (share consumption, the guest manager's booked reservations,
//! compression events inside the tenant) into a
//! [`selftune_core::share::ShareController`] and executes its decision
//! through the host supervisor, which may still compress the grant; the
//! grant is then propagated down into the guest manager's bound. The law
//! is called where it acts, in the platform's control step for VMs put
//! under [`VirtPlatform::make_vm_elastic`](crate::VirtPlatform::make_vm_elastic);
//! this module only holds what configures it.

use selftune_core::share::ShareControllerConfig;
use selftune_simcore::time::Dur;

/// How often an elastic share is reconsidered: one manager sampling
/// period, so the guest loop gets a fresh sample between host-level
/// decisions (the paper's remark against `S = P` applies across levels
/// too).
pub(crate) const CONTROL_PERIOD: Dur = Dur::ms(500);

/// Bounds of an adapted share period (seconds): no share replenishes
/// faster than 1 ms or slower than 500 ms, whatever the guests report.
pub(crate) const ADAPTED_PERIOD_MIN: f64 = 0.001;
pub(crate) const ADAPTED_PERIOD_MAX: f64 = 0.5;

/// Configuration of one VM's elastic-share loop.
#[derive(Clone, Copy, Debug, Default)]
pub struct VmElasticConfig {
    /// The share feedback law. `max_share` is additionally clamped to the
    /// host supervisor's bound at attach time, so an elastic VM can never
    /// request its way past what the node could grant anyone. A field, not
    /// a constant: the virt property test sweeps its margin, EWMA weight
    /// and confirmations.
    pub controller: ShareControllerConfig,
    /// Share-*period* adaptation (the paper's `T^s = P` rule one level
    /// up): when enabled, the share period tracks the dominant detected
    /// guest period through a [`selftune_core::share::PeriodAdapter`]
    /// with the controller's deadband
    /// ([`selftune_core::share::HYSTERESIS`]) and confirmations, so outer
    /// replenishment aligns with inner deadlines instead of beating
    /// against them. Off by default — re-parameterising the host server
    /// is a behaviour change existing fleets must opt into.
    pub adapt_period: bool,
}
