//! # selftune
//!
//! A complete reproduction of **"Self-tuning Schedulers for Legacy
//! Real-Time Applications"** (T. Cucinotta, F. Checconi, L. Abeni,
//! L. Palopoli — EuroSys 2010) as a Rust library.
//!
//! The paper schedules *legacy* soft real-time applications — ones that
//! expose no timing information and call no real-time API — by combining:
//!
//! 1. a low-overhead kernel tracer recording system-call timestamps
//!    ([`tracer`]),
//! 2. a frequency-domain period analyser over the traced event train
//!    ([`spectrum`]),
//! 3. an adaptive-reservation feedback controller (LFS++) that dimensions
//!    a CBS reservation from a consumed-CPU-time sensor and a quantile
//!    predictor ([`core`]),
//! 4. a supervisor enforcing Σ Qᵢ/Tᵢ ≤ U_lub over all reservations
//!    ([`sched`]).
//!
//! The Linux-kernel substrate of the paper is replaced by a deterministic
//! discrete-event simulator ([`simcore`]); see `DESIGN.md` for the
//! substitution argument. Analytical figures are reproduced by [`analysis`]
//! and the paper's workloads by [`apps`].
//!
//! Beyond the paper, [`cluster`] replicates the whole stack across a
//! simulated fleet: declarative scenarios, schedulability-backed
//! cross-node admission, a deterministic parallel runner and fleet-wide
//! aggregate metrics. [`journal`] records every fleet decision into a
//! compact deterministic journal, replays it to byte-identical
//! aggregates, and answers what-if queries with one policy swapped.
//! [`distrib`] ships that journal over a wire as the run executes: a
//! hot-standby follower mirrors the leader byte for byte, verifies
//! checkpoints, and can be promoted on leader death with zero decision
//! loss.
//!
//! ## Quickstart
//!
//! ```
//! use selftune::prelude::*;
//!
//! // A kernel with the AQuoSA-style reservation scheduler and tracer.
//! let mut kernel = Kernel::new(ReservationScheduler::new());
//! let (hook, reader) = Tracer::create(TracerConfig::default());
//! kernel.install_hook(Box::new(hook));
//!
//! // A legacy application: mplayer playing a 25 fps movie.
//! let player = MediaPlayer::new(MediaConfig::mplayer_video_25fps(), Rng::new(1));
//! let tid = kernel.spawn("mplayer", Box::new(player));
//!
//! // The self-tuning manager: detects the period, creates a reservation,
//! // and keeps the budget tracking demand.
//! let mut manager = SelfTuningManager::new(ManagerConfig::default(), reader);
//! manager.manage(tid, "mplayer", ControllerConfig::default());
//! manager.run(&mut kernel, Time::ZERO + Dur::secs(5));
//!
//! assert!(manager.server_of(tid).is_some(), "player got a reservation");
//! ```

pub use selftune_analysis as analysis;
pub use selftune_apps as apps;
pub use selftune_cluster as cluster;
pub use selftune_core as core;
pub use selftune_distrib as distrib;
pub use selftune_journal as journal;
pub use selftune_sched as sched;
pub use selftune_simcore as simcore;
pub use selftune_spectrum as spectrum;
pub use selftune_tracer as tracer;
pub use selftune_virt as virt;

/// One-stop imports for the common experiment setup.
pub mod prelude {
    pub use selftune_analysis::PeriodicTask;
    pub use selftune_apps::{
        Aperiodic, CpuHog, MediaConfig, MediaPlayer, PeriodicRt, Streamer, StreamerConfig,
        TranscodeConfig, Transcoder,
    };
    pub use selftune_core::{
        ControllerConfig, FeedbackKind, LfsPpConfig, ManagerConfig, SelfTuningManager,
    };
    pub use selftune_sched::{
        CbsMode, Place, ReservationScheduler, ServerConfig, ServerId, Supervisor,
    };
    pub use selftune_simcore::{
        Action, Blocking, Dur, Kernel, Metrics, Rng, Script, SyscallNr, TaskId, Time, Workload,
    };
    pub use selftune_spectrum::{AnalyserConfig, PeakConfig, PeriodAnalyser, SpectrumConfig};
    pub use selftune_tracer::{TraceFilter, Tracer, TracerConfig, TracerKind};
    pub use selftune_virt::{GuestPolicy, GuestSched, VirtPlatform, VirtScheduler, VmConfig, VmId};
}
