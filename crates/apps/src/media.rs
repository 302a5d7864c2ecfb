//! Media-player workload models (the paper's `mplayer` stand-ins).
//!
//! A media player is modelled as a periodic job stream: each job wakes on
//! an absolute timer (`clock_nanosleep`), performs a burst of system calls
//! (demuxing reads, ALSA `ioctl`s, clock queries), decodes (pure CPU, with
//! an MPEG GOP cost pattern for video), performs the output burst ending in
//! the frame-display `writev`, then sleeps until the next release. This
//! reproduces the two observable signatures the paper's machinery relies
//! on: syscall bursts concentrated at job boundaries (Figure 5) and a
//! GOP-shaped execution-time profile (Section 4.4, remark 1).
//!
//! Timing marks: on each displayed frame the workload marks
//! `"<label>.frame"`, from which experiments compute inter-frame times; the
//! counter `"<label>.dropped"` counts frames skipped under starvation.

use selftune_simcore::metrics::LazyKey;
use selftune_simcore::rng::Rng;
use selftune_simcore::syscall::SyscallNr;
use selftune_simcore::task::{Action, Blocking, TaskCtx, Workload};
use selftune_simcore::time::{Dur, Time};
use std::collections::VecDeque;

/// Per-job decode cost model.
#[derive(Clone, Debug)]
pub enum CostModel {
    /// Near-constant cost (audio decoding).
    Constant {
        /// Mean cost per job.
        mean: Dur,
        /// Gaussian noise standard deviation.
        sd: Dur,
    },
    /// MPEG group-of-pictures pattern: per-frame multipliers applied to a
    /// base cost, cycled (e.g. `I B B P B B ...`).
    Gop {
        /// Base (P-frame) cost.
        base: Dur,
        /// Multipliers per GOP position.
        pattern: Vec<f64>,
        /// Relative Gaussian noise (fraction of the frame's own mean).
        noise_frac: f64,
    },
}

impl CostModel {
    fn sample(&self, frame: u64, rng: &mut Rng) -> Dur {
        match self {
            CostModel::Constant { mean, sd } => rng.normal_dur(*mean, *sd, Dur::us(50)),
            CostModel::Gop {
                base,
                pattern,
                noise_frac,
            } => {
                let mult = pattern[(frame as usize) % pattern.len()];
                let mean = base.mul_f64(mult);
                let sd = mean.mul_f64(*noise_frac);
                rng.normal_dur(mean, sd, Dur::us(50))
            }
        }
    }

    /// Long-run mean cost of one job.
    pub fn mean(&self) -> Dur {
        match self {
            CostModel::Constant { mean, .. } => *mean,
            CostModel::Gop { base, pattern, .. } => {
                let avg: f64 = pattern.iter().sum::<f64>() / pattern.len() as f64;
                base.mul_f64(avg)
            }
        }
    }
}

/// A weighted system-call mix for burst generation.
#[derive(Clone, Debug)]
pub struct SyscallMix {
    entries: Vec<(SyscallNr, f64)>,
    total: f64,
}

impl SyscallMix {
    /// Creates a mix from `(call, weight)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty or any weight is non-positive.
    pub fn new(entries: Vec<(SyscallNr, f64)>) -> SyscallMix {
        assert!(!entries.is_empty(), "empty syscall mix");
        assert!(entries.iter().all(|&(_, w)| w > 0.0), "non-positive weight");
        let total = entries.iter().map(|&(_, w)| w).sum();
        SyscallMix { entries, total }
    }

    /// The ALSA-heavy mix observed for `mplayer` in the paper's Figure 4:
    /// `ioctl` dominates, followed by clock reads and I/O.
    pub fn mplayer() -> SyscallMix {
        SyscallMix::new(vec![
            (SyscallNr::Ioctl, 55.0),
            (SyscallNr::Gettimeofday, 12.0),
            (SyscallNr::ClockGettime, 8.0),
            (SyscallNr::Read, 8.0),
            (SyscallNr::Writev, 5.0),
            (SyscallNr::Futex, 4.0),
            (SyscallNr::Select, 3.0),
            (SyscallNr::Munmap, 2.0),
            (SyscallNr::Mmap, 2.0),
            (SyscallNr::Lseek, 1.0),
        ])
    }

    fn sample(&self, rng: &mut Rng) -> SyscallNr {
        let mut x = rng.f64() * self.total;
        for &(nr, w) in &self.entries {
            if x < w {
                return nr;
            }
            x -= w;
        }
        self.entries.last().expect("non-empty mix").0
    }
}

/// Configuration of a media-player workload.
#[derive(Clone, Debug)]
pub struct MediaConfig {
    /// Metric-key prefix (e.g. `"mplayer"`).
    pub label: String,
    /// Job rate in Hz (25 for the paper's video, 32.5 for its mp3 runs).
    pub rate_hz: f64,
    /// Decode cost model.
    pub cost: CostModel,
    /// Syscalls in the job-start burst.
    pub start_burst: u32,
    /// Syscalls in the job-end burst (the last one is the display
    /// `writev`).
    pub end_burst: u32,
    /// Mean user-space gap between burst syscalls (exponential).
    pub intra_burst_gap: Dur,
    /// Syscall mix for burst calls.
    pub mix: SyscallMix,
    /// Drop frames when running later than this behind the release
    /// schedule; `None` plays every frame regardless of lateness.
    pub drop_lateness: Option<Dur>,
    /// Whether the output burst waits for the presentation timestamp
    /// (video A/V sync). Audio pipelines write to the device right after
    /// decoding instead, so their output burst drifts with load — the
    /// effect behind the paper's Table 2 degradation.
    pub pts_display: bool,
}

impl MediaConfig {
    /// The paper's main test subject: `mplayer` playing a 25 fps movie.
    pub fn mplayer_video_25fps() -> MediaConfig {
        MediaConfig {
            label: "mplayer".to_owned(),
            rate_hz: 25.0,
            cost: CostModel::Gop {
                base: Dur::from_ms_f64(12.0),
                // A 12-frame IBBPBB GOP. Decode-cost contrast is moderate
                // (I ≈ 1.75x a B frame): motion compensation makes P/B
                // decoding almost as expensive as intra frames.
                pattern: vec![1.4, 0.8, 0.8, 1.0, 0.8, 0.8, 1.0, 0.8, 0.8, 1.0, 0.8, 0.8],
                noise_frac: 0.12,
            },
            start_burst: 10,
            end_burst: 8,
            intra_burst_gap: Dur::us(60),
            mix: SyscallMix::mplayer(),
            drop_lateness: Some(Dur::ms(80)),
            pts_display: true,
        }
    }

    /// `mplayer` playing an mp3: 32.5 jobs/s (the paper's Figures 10–12).
    ///
    /// The decode cost reflects the paper's 800 MHz testbed (mp3 decoding
    /// plus resampling is a noticeable fraction of such a CPU), which is
    /// what makes the detection sensitive to background RT load (Table 2).
    pub fn mplayer_mp3() -> MediaConfig {
        MediaConfig {
            label: "mp3".to_owned(),
            rate_hz: 32.5,
            cost: CostModel::Constant {
                mean: Dur::from_ms_f64(12.0),
                sd: Dur::from_ms_f64(1.4),
            },
            start_burst: 9,
            end_burst: 6,
            intra_burst_gap: Dur::us(40),
            mix: SyscallMix::mplayer(),
            drop_lateness: None,
            // Audio pacing: the device write blocks until the ALSA buffer
            // grid — so the output burst is device-clock aligned while the
            // player keeps up, and free-runs once it falls behind
            // (buffer underrun), which is what degrades detection under
            // load (Table 2).
            pts_display: true,
        }
    }

    /// The job period `1/rate`.
    pub fn period(&self) -> Dur {
        Dur::from_secs_f64(1.0 / self.rate_hz)
    }

    /// Long-run CPU utilisation of the player (decode only; burst syscall
    /// costs add a little on top).
    pub fn utilisation(&self) -> f64 {
        self.cost.mean().ratio(self.period())
    }
}

/// The media-player workload.
pub struct MediaPlayer {
    cfg: MediaConfig,
    rng: Rng,
    plan: VecDeque<Action>,
    frame: u64,
    next_release: Option<Time>,
    mark_pending: bool,
    frame_key: LazyKey,
    dropped_key: LazyKey,
}

impl MediaPlayer {
    /// Creates a player with its own random stream.
    pub fn new(cfg: MediaConfig, rng: Rng) -> MediaPlayer {
        let frame_key = LazyKey::new(format!("{}.frame", cfg.label));
        let dropped_key = LazyKey::new(format!("{}.dropped", cfg.label));
        MediaPlayer {
            cfg,
            rng,
            plan: VecDeque::new(),
            frame: 0,
            next_release: None,
            mark_pending: false,
            frame_key,
            dropped_key,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MediaConfig {
        &self.cfg
    }

    fn push_burst(&mut self, count: u32, display_last: bool) {
        for i in 0..count {
            let gap = Dur::from_secs_f64(
                self.rng
                    .exp(1.0 / self.cfg.intra_burst_gap.as_secs_f64().max(1e-9)),
            );
            self.plan.push_back(Action::Compute(gap));
            let nr = if display_last && i + 1 == count {
                SyscallNr::Writev
            } else {
                self.cfg.mix.sample(&mut self.rng)
            };
            self.plan.push_back(Action::syscall(nr));
        }
    }

    fn build_frame(&mut self, ctx: &mut TaskCtx<'_>) {
        let period = self.cfg.period();
        let release = match self.next_release {
            None => ctx.now,
            Some(r) => {
                let mut r = r + period;
                if let Some(lateness) = self.cfg.drop_lateness {
                    while r + lateness <= ctx.now {
                        r += period;
                        self.frame += 1;
                        let k = self.dropped_key.get(ctx.metrics);
                        ctx.metrics.add_k(k, 1);
                    }
                }
                r
            }
        };
        self.next_release = Some(release);
        if release > ctx.now {
            // Timer-driven release through a traced absolute sleep.
            self.plan.push_back(Action::syscall_blocking(
                SyscallNr::ClockNanosleep,
                Blocking::Until(release),
            ));
        }
        self.push_burst(self.cfg.start_burst, false);
        let decode = self.cfg.cost.sample(self.frame, &mut self.rng);
        self.plan.push_back(Action::Compute(decode));
        if self.cfg.pts_display {
            // A/V sync: the frame is displayed at its presentation
            // timestamp, one period after release (a non-blocking no-op if
            // decoding already overran the PTS).
            self.plan.push_back(Action::syscall_blocking(
                SyscallNr::ClockNanosleep,
                Blocking::Until(release + period),
            ));
        }
        self.push_burst(self.cfg.end_burst, true);
        self.frame += 1;
        self.mark_pending = true;
    }
}

impl Workload for MediaPlayer {
    fn next(&mut self, ctx: &mut TaskCtx<'_>) -> Action {
        loop {
            if let Some(a) = self.plan.pop_front() {
                return a;
            }
            if self.mark_pending {
                // The previous frame's display syscall just completed.
                let k = self.frame_key.get(ctx.metrics);
                ctx.metrics.mark_k(k, ctx.now);
                self.mark_pending = false;
            }
            self.build_frame(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selftune_simcore::kernel::Kernel;
    use selftune_simcore::scheduler::RoundRobin;
    use selftune_simcore::stats::{mean, std_dev};

    fn run_player(cfg: MediaConfig, secs: u64) -> Kernel<RoundRobin> {
        let mut k = Kernel::new(RoundRobin::new(Dur::ms(4)));
        let player = MediaPlayer::new(cfg, Rng::new(42));
        k.spawn("player", Box::new(player));
        k.run_until(Time::ZERO + Dur::secs(secs));
        k
    }

    #[test]
    fn unloaded_video_hits_its_frame_rate() {
        let k = run_player(MediaConfig::mplayer_video_25fps(), 4);
        let ift = k.metrics().inter_mark_times_ms("mplayer.frame");
        assert!(ift.len() > 80, "only {} frames", ift.len());
        let m = mean(&ift);
        assert!((m - 40.0).abs() < 1.0, "mean IFT {m}");
        // Unloaded: very regular.
        assert!(std_dev(&ift) < 5.0, "sd {}", std_dev(&ift));
        assert_eq!(k.metrics().counter("mplayer.dropped"), 0);
    }

    #[test]
    fn mp3_run_rate_is_32_5hz() {
        let k = run_player(MediaConfig::mplayer_mp3(), 4);
        let ift = k.metrics().inter_mark_times_ms("mp3.frame");
        let m = mean(&ift);
        assert!((m - 1000.0 / 32.5).abs() < 0.5, "mean IFT {m}");
    }

    #[test]
    fn utilisation_is_moderate() {
        let cfg = MediaConfig::mplayer_video_25fps();
        let u = cfg.utilisation();
        assert!(u > 0.15 && u < 0.45, "u = {u}");
        let k = run_player(cfg, 4);
        let exec = k.thread_time(selftune_simcore::task::TaskId(0));
        let frac = exec.ratio(Dur::secs(4));
        assert!(frac > 0.15 && frac < 0.45, "measured {frac}");
    }

    #[test]
    fn gop_pattern_creates_cost_variance() {
        let cfg = MediaConfig::mplayer_video_25fps();
        let mut rng = Rng::new(7);
        let costs: Vec<f64> = (0..120)
            .map(|f| cfg.cost.sample(f, &mut rng).as_ms_f64())
            .collect();
        // I frames are clearly more expensive than B frames.
        let max = costs.iter().copied().fold(0.0_f64, f64::max);
        let min = costs.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(max / min > 2.0, "max {max} min {min}");
    }

    #[test]
    fn cost_model_mean_matches_pattern() {
        let cost = CostModel::Gop {
            base: Dur::ms(10),
            pattern: vec![2.0, 1.0, 1.0],
            noise_frac: 0.0,
        };
        assert_eq!(cost.mean(), Dur::from_ms_f64(10.0 * 4.0 / 3.0));
    }

    #[test]
    fn mix_is_ioctl_dominated() {
        let mix = SyscallMix::mplayer();
        let mut rng = Rng::new(3);
        let mut ioctl = 0;
        for _ in 0..10_000 {
            if mix.sample(&mut rng) == SyscallNr::Ioctl {
                ioctl += 1;
            }
        }
        assert!(ioctl > 4_500, "ioctl {ioctl}/10000");
    }

    #[test]
    fn syscalls_cluster_at_job_boundaries() {
        let cfg = MediaConfig::mplayer_mp3();
        let period_ms = cfg.period().as_ms_f64();
        let k = run_player(cfg, 2);
        // The player's own activity alternates bursts and silence: verify
        // the task made roughly (start+end+1) syscalls per job.
        let jobs = k.metrics().marks("mp3.frame").len() as u64;
        let per_job = k.syscall_count(selftune_simcore::task::TaskId(0)) / jobs.max(1);
        assert!(
            (14..=18).contains(&per_job),
            "{per_job} syscalls/job (period {period_ms}ms)"
        );
    }

    #[test]
    #[should_panic(expected = "empty syscall mix")]
    fn empty_mix_panics() {
        let _ = SyscallMix::new(vec![]);
    }
}
