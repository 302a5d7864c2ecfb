//! A network media streamer: a soft-periodic legacy app whose releases
//! are paced by packet arrivals rather than a local timer, so its period
//! carries network jitter.
//!
//! This is the stress case for the period analyser the paper's multimedia
//! examples only brush against: the fundamental is smeared by arrival
//! jitter, and the controller must still recover a usable reservation
//! period. Marks `"<label>.frame"` like the other players.

use selftune_simcore::metrics::LazyKey;
use selftune_simcore::rng::Rng;
use selftune_simcore::syscall::SyscallNr;
use selftune_simcore::task::{Action, Blocking, TaskCtx, Workload};
use selftune_simcore::time::{Dur, Time};
use std::collections::VecDeque;

/// Streamer configuration.
#[derive(Clone, Debug)]
pub struct StreamerConfig {
    /// Metric-key prefix.
    pub label: String,
    /// Nominal packet/frame rate in Hz.
    pub rate_hz: f64,
    /// Standard deviation of the arrival jitter, as a fraction of the
    /// period (network-induced).
    pub jitter_frac: f64,
    /// Mean CPU cost to depacketise + decode one frame.
    pub decode: Dur,
    /// Relative noise on the decode cost.
    pub decode_noise: f64,
    /// Syscalls per frame (recvfrom + ioctl + clock reads).
    pub burst: u32,
}

impl StreamerConfig {
    /// A 30 fps RTP-style video stream with 10% arrival jitter.
    pub fn rtp_video_30fps() -> StreamerConfig {
        StreamerConfig {
            label: "stream".to_owned(),
            rate_hz: 30.0,
            jitter_frac: 0.10,
            decode: Dur::from_ms_f64(7.0),
            decode_noise: 0.15,
            burst: 8,
        }
    }

    /// Nominal period `1/rate`.
    pub fn period(&self) -> Dur {
        Dur::from_secs_f64(1.0 / self.rate_hz)
    }
}

/// The streamer workload: block on the socket until the (jittered) next
/// packet, receive, decode, display.
pub struct Streamer {
    cfg: StreamerConfig,
    rng: Rng,
    plan: VecDeque<Action>,
    next_nominal: Option<Time>,
    mark_pending: bool,
    frame_key: LazyKey,
}

impl Streamer {
    /// Creates a streamer with its own random stream.
    pub fn new(cfg: StreamerConfig, rng: Rng) -> Streamer {
        let frame_key = LazyKey::new(format!("{}.frame", cfg.label));
        Streamer {
            cfg,
            rng,
            plan: VecDeque::new(),
            next_nominal: None,
            mark_pending: false,
            frame_key,
        }
    }
}

impl Workload for Streamer {
    fn next(&mut self, ctx: &mut TaskCtx<'_>) -> Action {
        loop {
            if let Some(a) = self.plan.pop_front() {
                return a;
            }
            if self.mark_pending {
                let k = self.frame_key.get(ctx.metrics);
                ctx.metrics.mark_k(k, ctx.now);
                self.mark_pending = false;
            }
            let period = self.cfg.period();
            // The packet arrival grid is the sender's clock (stable), each
            // arrival jittered around its grid point.
            let nominal = match self.next_nominal {
                None => ctx.now,
                Some(t) => t + period,
            };
            self.next_nominal = Some(nominal);
            let jitter = self
                .rng
                .normal(0.0, self.cfg.jitter_frac * period.as_secs_f64())
                .abs();
            let arrival = nominal + Dur::from_secs_f64(jitter);
            if arrival > ctx.now {
                // Blocked in recvfrom until the packet lands.
                self.plan.push_back(Action::Syscall {
                    nr: SyscallNr::Recvfrom,
                    kernel: SyscallNr::Recvfrom.default_cost(),
                    block: Blocking::Until(arrival),
                });
            } else {
                // Packet already queued: non-blocking receive.
                self.plan.push_back(Action::syscall(SyscallNr::Recvfrom));
            }
            for _ in 0..self.cfg.burst {
                self.plan.push_back(Action::syscall(SyscallNr::Ioctl));
            }
            let cost = self.rng.normal_dur(
                self.cfg.decode,
                self.cfg.decode.mul_f64(self.cfg.decode_noise),
                Dur::us(50),
            );
            self.plan.push_back(Action::Compute(cost));
            self.plan.push_back(Action::syscall(SyscallNr::Writev));
            self.mark_pending = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selftune_simcore::kernel::Kernel;
    use selftune_simcore::scheduler::RoundRobin;
    use selftune_simcore::stats::{mean, std_dev};
    use selftune_simcore::time::Time;

    #[test]
    fn long_run_rate_matches_nominal() {
        let mut k = Kernel::new(RoundRobin::new(Dur::ms(4)));
        let s = Streamer::new(StreamerConfig::rtp_video_30fps(), Rng::new(11));
        k.spawn("stream", Box::new(s));
        k.run_until(Time::ZERO + Dur::secs(5));
        let ift = k.metrics().inter_mark_times_ms("stream.frame");
        assert!(ift.len() > 130);
        let m = mean(&ift);
        assert!((m - 1000.0 / 30.0).abs() < 0.5, "mean IFT {m}");
        // Jitter shows: per-frame IFTs vary by several ms.
        assert!(std_dev(&ift) > 1.0, "sd {}", std_dev(&ift));
    }

    #[test]
    fn period_is_detectable_despite_jitter() {
        use selftune_simcore::kernel::SyscallHook;
        // Collect entry times through a minimal inline hook.
        struct Collect(std::rc::Rc<std::cell::RefCell<Vec<f64>>>);
        impl SyscallHook for Collect {
            fn on_enter(
                &mut self,
                _t: selftune_simcore::task::TaskId,
                _nr: SyscallNr,
                now: Time,
            ) -> Dur {
                self.0.borrow_mut().push(now.as_secs_f64());
                Dur::ZERO
            }
            fn on_exit(
                &mut self,
                _t: selftune_simcore::task::TaskId,
                _nr: SyscallNr,
                _now: Time,
            ) -> Dur {
                Dur::ZERO
            }
        }
        let times = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut k = Kernel::new(RoundRobin::new(Dur::ms(4)));
        k.install_hook(Box::new(Collect(std::rc::Rc::clone(&times))));
        let s = Streamer::new(StreamerConfig::rtp_video_30fps(), Rng::new(11));
        k.spawn("stream", Box::new(s));
        k.run_until(Time::ZERO + Dur::secs(3));

        let events = times.borrow().clone();
        let spec = selftune_spectrum::amplitude_spectrum(
            &events,
            selftune_spectrum::SpectrumConfig::default(),
        );
        let f = selftune_spectrum::detect(&spec, &selftune_spectrum::PeakConfig::default())
            .detection
            .frequency()
            .expect("detected");
        assert!((f - 30.0).abs() < 0.5, "detected {f} Hz under jitter");
    }
}
