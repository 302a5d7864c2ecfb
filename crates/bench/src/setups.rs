//! Shared simulation setups used by several experiments.

use selftune_apps::{Aperiodic, MediaConfig, MediaPlayer, PeriodicRt};
use selftune_core::{ControllerConfig, ManagerConfig, SelfTuningManager};
use selftune_sched::{Place, ReservationScheduler, ServerConfig};
use selftune_simcore::rng::Rng;
use selftune_simcore::task::TaskId;
use selftune_simcore::time::{Dur, Time};
use selftune_simcore::Kernel;
use selftune_spectrum::{amplitude_spectrum, detect, PeakConfig, Spectrum, SpectrumConfig};
use selftune_tracer::{entry_times_secs, TraceEvent, TraceFilter, Tracer, TracerConfig};

use crate::{time_us, Args};

/// A kernel + tracer with the mp3-playing `mplayer` in the fair class and
/// optional background RT reservations, traced for `trace_secs`.
///
/// Returns the raw trace events of the player and its task id — the input
/// of the period-detection experiments (Figures 10–12, Table 2).
pub fn mp3_trace(load_percent: u32, trace_secs: f64, seed: u64) -> (Vec<TraceEvent>, TaskId) {
    let mut rng = Rng::new(seed);
    // A 1 ms fair-class timeslice, as on an interactive desktop: slice
    // expiry splits the player's syscall bursts when best-effort noise is
    // runnable, attenuating the higher harmonics the way a real machine
    // does.
    let mut kernel = Kernel::new(ReservationScheduler::with_fair_slice(Dur::ms(1)));
    let (hook, reader) = Tracer::create(TracerConfig {
        capacity: 1 << 20,
        ..TracerConfig::default()
    });
    kernel.install_hook(Box::new(hook));

    // Background RT load inside dedicated reservations (Table 2 rows).
    for (i, (wcet, period)) in selftune_apps::table2_background_tasks(load_percent)
        .into_iter()
        .enumerate()
    {
        let sid = kernel
            .sched_mut()
            .create_server(ServerConfig::new(wcet, period));
        let w = PeriodicRt::new(&format!("bg{i}"), wcet, period, 0.25, rng.fork());
        let tid = kernel.spawn(&format!("bg{i}"), Box::new(w));
        kernel.sched_mut().place(tid, Place::Server(sid));
    }

    // Best-effort desktop noise sharing the fair class with the player:
    // this is what smears the short-window detection in the paper's
    // Figure 11 (a real machine is never perfectly quiet).
    for i in 0..2 {
        let w = Aperiodic::new(Dur::ms(15), Dur::from_ms_f64(1.5), 2, rng.fork());
        kernel.spawn(&format!("noise{i}"), Box::new(w));
    }

    // The traced player runs unreserved (detection phase).
    let player = MediaPlayer::new(MediaConfig::mplayer_mp3(), rng.fork());
    let tid = kernel.spawn("mplayer", Box::new(player));
    reader.set_filter(TraceFilter::tasks_only([tid]));

    kernel.run_until(Time::ZERO + Dur::from_secs_f64(trace_secs));
    (reader.drain(), tid)
}

/// Like [`mp3_trace`] but returning only the entry-edge timestamps in
/// seconds — the analyser's input signal.
pub fn mp3_event_times(load_percent: u32, trace_secs: f64, seed: u64) -> Vec<f64> {
    let (events, tid) = mp3_trace(load_percent, trace_secs, seed);
    entry_times_secs(&events, tid)
}

/// The observation windows Figures 6–9 slide over one 8 s trace of the
/// quiet player: `reps` windows per horizon, starting 40 ms apart.
pub struct SlidingWindows {
    times: Vec<f64>,
    reps: usize,
}

impl SlidingWindows {
    /// Horizons `H` swept by every one of those figures, seconds.
    pub const HORIZONS: [f64; 4] = [0.5, 1.0, 1.5, 2.0];

    /// Traces the player; 100 windows per horizon, 10 with `--fast`.
    pub fn trace(args: &Args) -> SlidingWindows {
        SlidingWindows {
            times: mp3_event_times(0, 8.0, args.seed),
            reps: args.reps(100, 10),
        }
    }

    /// The windows of length `h` seconds.
    pub fn of(&self, h: f64) -> impl Iterator<Item = &[f64]> {
        (0..self.reps).map(move |r| {
            let start = 0.5 + 0.04 * r as f64;
            let lo = self.times.partition_point(|&t| t < start);
            let hi = self.times.partition_point(|&t| t < start + h);
            &self.times[lo..hi]
        })
    }

    /// The amplitude spectrum of every window of length `h`.
    pub fn spectra(&self, h: f64, cfg: SpectrumConfig) -> Vec<Spectrum> {
        self.of(h).map(|ev| amplitude_spectrum(ev, cfg)).collect()
    }

    /// Times the transform over every window of length `h`: its costs in
    /// milliseconds (as in the paper's plots) and the frequencies the
    /// default detector finds in the spectra.
    pub fn timed_transform(&self, h: f64, cfg: SpectrumConfig) -> (Vec<f64>, Vec<f64>) {
        let mut costs = Vec::with_capacity(self.reps);
        let mut freqs = Vec::with_capacity(self.reps);
        for ev in self.of(h) {
            let (spec, us) = time_us(|| amplitude_spectrum(ev, cfg));
            costs.push(us / 1000.0);
            freqs.extend(detect(&spec, &PeakConfig::default()).detection.frequency());
        }
        (costs, freqs)
    }
}

/// Outcome of one adaptive video run (Figures 13–14, Table 3).
pub struct VideoRunOutcome {
    /// Inter-frame times, milliseconds, in frame order.
    pub ift_ms: Vec<f64>,
    /// `(time, granted bandwidth)` series.
    pub bw: Vec<(Time, f64)>,
    /// Frames dropped by the player.
    pub dropped: u64,
    /// The period believed by the controller at the end, if any.
    pub period: Option<Dur>,
}

impl VideoRunOutcome {
    /// The inter-frame times after the first `warmup` frames (the
    /// adaptation transient).
    pub fn steady_ift(&self, warmup: usize) -> &[f64] {
        &self.ift_ms[warmup.min(self.ift_ms.len().saturating_sub(1))..]
    }

    /// The granted bandwidths, without their timestamps.
    pub fn bandwidths(&self) -> Vec<f64> {
        self.bw.iter().map(|&(_, b)| b).collect()
    }
}

/// Runs the 25 fps video player under the self-tuning manager for
/// `secs` seconds, with `bg_util` of background RT load (in dedicated
/// reservations) and the given controller configuration.
pub fn video_run(
    ctl_cfg: ControllerConfig,
    mgr_cfg: ManagerConfig,
    bg_util: f64,
    secs: u64,
    seed: u64,
) -> VideoRunOutcome {
    let mut rng = Rng::new(seed);
    let mut kernel = Kernel::new(ReservationScheduler::new());
    let (hook, reader) = Tracer::create(TracerConfig {
        capacity: 1 << 20,
        ..TracerConfig::default()
    });
    kernel.install_hook(Box::new(hook));

    // Background load: one reservation per 10% of utilisation, with a
    // 20 ms period (well away from the player's 40 ms to keep the
    // detection experiments orthogonal).
    let mut remaining = bg_util;
    let mut i = 0;
    while remaining > 1e-9 {
        let u = remaining.min(0.10);
        let period = Dur::ms(20);
        let wcet = period.mul_f64(u);
        let sid = kernel
            .sched_mut()
            .create_server(ServerConfig::new(wcet, period));
        let w = PeriodicRt::new(&format!("bg{i}"), wcet, period, 0.03, rng.fork());
        let tid = kernel.spawn(&format!("bg{i}"), Box::new(w));
        kernel.sched_mut().place(tid, Place::Server(sid));
        remaining -= u;
        i += 1;
    }

    let player = MediaPlayer::new(MediaConfig::mplayer_video_25fps(), rng.fork());
    let tid = kernel.spawn("mplayer", Box::new(player));
    reader.set_filter(TraceFilter::tasks_only([tid]));

    let mut mgr = SelfTuningManager::new(mgr_cfg, reader);
    mgr.manage(tid, "mplayer", ctl_cfg);
    mgr.run(&mut kernel, Time::ZERO + Dur::secs(secs));

    let ift_ms = kernel.metrics().inter_mark_times_ms("mplayer.frame");
    let bw = kernel.metrics().series("mplayer.bw").to_vec();
    let dropped = kernel.metrics().counter("mplayer.dropped");
    let period = mgr.controller_of(tid).and_then(|c| c.period());
    VideoRunOutcome {
        ift_ms,
        bw,
        dropped,
        period,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mp3_trace_produces_bursty_events() {
        let times = mp3_event_times(0, 1.0, 7);
        // ≈ 32.5 jobs × 17 calls.
        assert!(times.len() > 300, "{} events", times.len());
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn background_load_reduces_player_progress() {
        let quiet = mp3_event_times(0, 1.0, 7).len();
        let loaded = mp3_event_times(60, 1.0, 7).len();
        // The player still runs (it only needs ~7%), but events shift;
        // counts stay in the same ballpark.
        assert!(loaded > quiet / 2, "quiet {quiet}, loaded {loaded}");
    }

    #[test]
    fn video_run_smoke() {
        let out = video_run(
            ControllerConfig::default(),
            ManagerConfig::default(),
            0.0,
            6,
            3,
        );
        assert!(out.ift_ms.len() > 100);
        assert!(!out.bw.is_empty());
        assert!(out.period.is_some());
    }
}
