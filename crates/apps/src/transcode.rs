//! CPU-bound batch transcoder (the paper's `ffmpeg` stand-in).
//!
//! Table 1 measures tracer overhead as the wall-clock inflation of a video
//! transcode. The model: a fixed number of frames, each costing a noisy
//! slice of CPU split into chunks interleaved with `read`/`write` system
//! calls — so the run is CPU-bound but still issues a realistic stream of
//! syscalls for the tracer to intercept.
//!
//! On completion the workload marks `"<label>.done"`; experiments read the
//! mark's timestamp as the total transcoding time.

use selftune_simcore::metrics::LazyKey;
use selftune_simcore::rng::Rng;
use selftune_simcore::syscall::SyscallNr;
use selftune_simcore::task::{Action, TaskCtx, Workload};
use selftune_simcore::time::Dur;
use std::collections::VecDeque;

/// Transcoder configuration.
#[derive(Clone, Debug)]
pub struct TranscodeConfig {
    /// Metric-key prefix.
    pub label: String,
    /// Number of frames to transcode.
    pub frames: u32,
    /// Mean CPU cost per frame.
    pub per_frame: Dur,
    /// Relative Gaussian noise on the per-frame cost.
    pub noise_frac: f64,
    /// Syscalls issued per frame (alternating reads and writes).
    pub syscalls_per_frame: u32,
}

impl TranscodeConfig {
    /// The Table 1 workload: ≈ 21 s of CPU, ≈ 147k syscalls total
    /// (≈ 7k syscalls per CPU-second, a realistic I/O-chunked transcode).
    pub fn ffmpeg_table1() -> TranscodeConfig {
        TranscodeConfig {
            label: "ffmpeg".to_owned(),
            frames: 525,
            per_frame: Dur::ms(40),
            noise_frac: 0.10,
            syscalls_per_frame: 280,
        }
    }
}

/// The transcoder workload.
pub struct Transcoder {
    cfg: TranscodeConfig,
    rng: Rng,
    plan: VecDeque<Action>,
    frames_left: u32,
    done_key: LazyKey,
    finished: bool,
}

impl Transcoder {
    /// Creates a transcoder with its own random stream.
    pub fn new(cfg: TranscodeConfig, rng: Rng) -> Transcoder {
        let done_key = LazyKey::new(format!("{}.done", cfg.label));
        let frames_left = cfg.frames;
        Transcoder {
            cfg,
            rng,
            plan: VecDeque::new(),
            frames_left,
            done_key,
            finished: false,
        }
    }

    fn build_frame(&mut self) {
        let n = self.cfg.syscalls_per_frame.max(1);
        let cost = self.rng.normal_dur(
            self.cfg.per_frame,
            self.cfg.per_frame.mul_f64(self.cfg.noise_frac),
            Dur::us(100),
        );
        let chunk = cost / u64::from(n);
        for i in 0..n {
            self.plan.push_back(Action::Compute(chunk));
            let nr = if i % 2 == 0 {
                SyscallNr::Read
            } else {
                SyscallNr::Write
            };
            self.plan.push_back(Action::syscall(nr));
        }
    }
}

impl Workload for Transcoder {
    fn next(&mut self, ctx: &mut TaskCtx<'_>) -> Action {
        loop {
            if let Some(a) = self.plan.pop_front() {
                return a;
            }
            if self.frames_left == 0 {
                if !self.finished {
                    self.finished = true;
                    let k = self.done_key.get(ctx.metrics);
                    ctx.metrics.mark_k(k, ctx.now);
                }
                return Action::Exit;
            }
            self.frames_left -= 1;
            self.build_frame();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selftune_simcore::kernel::Kernel;
    use selftune_simcore::scheduler::RoundRobin;
    use selftune_simcore::task::TaskId;
    use selftune_simcore::time::Time;

    fn small_cfg() -> TranscodeConfig {
        TranscodeConfig {
            label: "t".to_owned(),
            frames: 10,
            per_frame: Dur::ms(5),
            noise_frac: 0.0,
            syscalls_per_frame: 10,
        }
    }

    #[test]
    fn runs_to_completion_and_marks_done() {
        let mut k = Kernel::new(RoundRobin::new(Dur::ms(4)));
        k.spawn("t", Box::new(Transcoder::new(small_cfg(), Rng::new(1))));
        k.run_until(Time::ZERO + Dur::secs(1));
        let done = k.metrics().marks("t.done");
        assert_eq!(done.len(), 1);
        // 10 frames × (5ms + 10 syscall bodies) ≈ 50ms + small kernel time.
        let t = done[0].as_ms_f64();
        assert!(t > 50.0 && t < 55.0, "done at {t}ms");
    }

    #[test]
    fn issues_expected_syscall_count() {
        let mut k = Kernel::new(RoundRobin::new(Dur::ms(4)));
        let cfg = small_cfg();
        let expected = u64::from(cfg.frames) * u64::from(cfg.syscalls_per_frame);
        k.spawn("t", Box::new(Transcoder::new(cfg, Rng::new(1))));
        k.run_until(Time::ZERO + Dur::secs(1));
        assert_eq!(k.syscall_count(TaskId(0)), expected);
    }

    #[test]
    fn table1_config_magnitudes() {
        let cfg = TranscodeConfig::ffmpeg_table1();
        assert_eq!(cfg.per_frame * u64::from(cfg.frames), Dur::secs(21));
        assert_eq!(
            u64::from(cfg.frames) * u64::from(cfg.syscalls_per_frame),
            147_000
        );
    }

    #[test]
    fn noise_shifts_total_time() {
        // Two seeds give different totals with noise enabled.
        let mut cfg = small_cfg();
        cfg.noise_frac = 0.2;
        let mut done = Vec::new();
        for seed in [1, 2] {
            let mut k = Kernel::new(RoundRobin::new(Dur::ms(4)));
            k.spawn("t", Box::new(Transcoder::new(cfg.clone(), Rng::new(seed))));
            k.run_until(Time::ZERO + Dur::secs(1));
            done.push(k.metrics().marks("t.done")[0]);
        }
        assert_ne!(done[0], done[1]);
    }
}
