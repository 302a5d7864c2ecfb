//! The follower's live mirror: one pinned run of the leader's scenario,
//! started when the Plan frame is applied and advanced by the stream.
//!
//! The run is the ordinary epoch loop
//! (`ClusterRunner::run_pinned`) on a thread the [`Mirror`] owns, with
//! the mirror's shared state as its [`PinSource`]: at every epoch
//! boundary the run asks what the stream has said about it and *parks*
//! until it has said something. `Records(e)` releases boundary `e`'s
//! decision, `Checkpoint(c)` asks the run — parked at `c` — for the
//! interim aggregates it reduces there, `Finish` waits for it to reach
//! the horizon, promotion tells it to decide live from wherever the
//! released decisions end. Following a stream therefore costs one run,
//! however many checkpoints it carries.
//!
//! The run never outlives its follower: dropping the [`Mirror`] tells
//! the run to stop at the next boundary it asks about and joins it. A
//! run that panics is caught on its own thread and published as the
//! outcome, so a waiter gets `mirror stopped: …` instead of a hang.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

use selftune_cluster::runner::{plan_fleet_pinned, EpochPin, PinSource, PinnedPlan};
use selftune_cluster::{AggregateMetrics, ClusterRunner, ScenarioSpec};

/// What the run does at a boundary the stream has not released.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Park until the stream says.
    Follow,
    /// Decide live (the follower was promoted).
    Live,
    /// End the run (the follower is gone).
    Stop,
}

struct State {
    /// The released decisions: `pins[e]` is boundary `e`'s, replaced by
    /// `EpochPin::Live` once the run has taken it.
    pins: Vec<EpochPin>,
    /// Cursor of the last checkpoint the stream asked an interim for.
    interim_at: Option<usize>,
    /// The last interim the run reduced: its cursor and summary.
    interim: Option<(usize, String)>,
    mode: Mode,
    /// How the run ended; `None` while it runs.
    outcome: Option<Result<AggregateMetrics, String>>,
}

/// The state the stream side and the run share, and the run's pin source.
pub(crate) struct Shared {
    state: Mutex<State>,
    wake: Condvar,
}

impl Shared {
    /// Every update under this lock is one field assignment, so the state
    /// a panicking holder leaves behind is valid: a poisoned lock is
    /// recovered, which keeps `Drop` and the panic report from panicking.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, guard: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        self.wake
            .wait(guard)
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl PinSource for Shared {
    /// The frame after `Records(epoch − 1)` is `Checkpoint(epoch)` or
    /// `Records(epoch)`: park until either has arrived. The answer for one
    /// `epoch` cannot change between callers — a checkpoint feed returns
    /// only after every worker has passed the boundary's meeting.
    fn wants_interim(&self, epoch: usize) -> bool {
        let mut st = self.lock();
        loop {
            if st.interim_at == Some(epoch) {
                return true;
            }
            if st.pins.len() > epoch || st.mode != Mode::Follow {
                return false;
            }
            st = self.wait(st);
        }
    }

    fn on_interim(&self, epoch: usize, interim: AggregateMetrics) {
        let summary = interim.summary_csv();
        self.lock().interim = Some((epoch, summary));
        self.wake.notify_all();
    }

    fn pin(&self, epoch: usize) -> EpochPin {
        let mut st = self.lock();
        loop {
            if st.mode == Mode::Stop {
                return EpochPin::Stop;
            }
            if let Some(pin) = st.pins.get_mut(epoch) {
                return std::mem::replace(pin, EpochPin::Live);
            }
            if st.mode == Mode::Live {
                return EpochPin::Live;
            }
            st = self.wait(st);
        }
    }
}

/// One live pinned run and the thread it runs on.
pub(crate) struct Mirror {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl Mirror {
    /// Plans the fleet pinned to `placements` and starts the epoch loop on
    /// `threads` workers; the run parks at boundary 0 until the stream
    /// releases it.
    pub(crate) fn start(
        spec: ScenarioSpec,
        seed: u64,
        placements: PinnedPlan,
        threads: usize,
    ) -> Mirror {
        Mirror::spawn(move |pins| {
            let plan = plan_fleet_pinned(&spec, seed, &placements);
            ClusterRunner::new(threads).run_pinned(&spec, seed, &plan, pins)
        })
    }

    /// Runs `run` on a thread of its own and publishes how it ended —
    /// aggregates, a stop, or the message of the panic that killed it.
    pub(crate) fn spawn(
        run: impl FnOnce(&Shared) -> Option<AggregateMetrics> + Send + 'static,
    ) -> Mirror {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                pins: Vec::new(),
                interim_at: None,
                interim: None,
                mode: Mode::Follow,
                outcome: None,
            }),
            wake: Condvar::new(),
        });
        let theirs = Arc::clone(&shared);
        let thread = thread::Builder::new()
            .name("selftune-mirror".to_owned())
            .spawn(move || {
                let outcome = match catch_unwind(AssertUnwindSafe(|| run(&theirs))) {
                    Ok(Some(metrics)) => Ok(metrics),
                    Ok(None) => Err("mirror stopped: its follower let it go".to_owned()),
                    Err(payload) => {
                        let why = payload
                            .downcast_ref::<&str>()
                            .map(|s| (*s).to_owned())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "panic with a non-string payload".to_owned());
                        Err(format!("mirror stopped: {why}"))
                    }
                };
                theirs.lock().outcome = Some(outcome);
                theirs.wake.notify_all();
            })
            .expect("spawn the mirror thread");
        Mirror {
            shared,
            thread: Some(thread),
        }
    }

    /// Releases the next boundary's decision to the run.
    pub(crate) fn release(&self, pin: EpochPin) {
        self.shared.lock().pins.push(pin);
        self.shared.wake.notify_all();
    }

    /// Boundaries released so far — the mirror's epoch cursor.
    pub(crate) fn released(&self) -> usize {
        self.shared.lock().pins.len()
    }

    /// The summary of the interim aggregates the run reduces at boundary
    /// `cursor` (the first unreleased one): waits for the run to get
    /// there, or answers at once when it is the interim last reduced.
    ///
    /// # Errors
    ///
    /// `mirror stopped: …` when the run ended instead.
    pub(crate) fn interim(&self, cursor: usize) -> Result<String, String> {
        let mut st = self.shared.lock();
        st.interim_at = Some(cursor);
        self.shared.wake.notify_all();
        loop {
            match (&st.interim, &st.outcome) {
                (Some((at, summary)), _) if *at == cursor => return Ok(summary.clone()),
                (_, Some(Err(why))) => return Err(why.clone()),
                (_, Some(Ok(_))) => {
                    return Err(format!(
                        "mirror stopped: the run ended before checkpoint {cursor}"
                    ))
                }
                _ => st = self.shared.wait(st),
            }
        }
    }

    /// Waits for the run to end and returns what it ended with. With
    /// `live`, boundaries the stream never released are decided live from
    /// now on (promotion); without, the caller has released them all.
    ///
    /// # Errors
    ///
    /// `mirror stopped: …` when the run ended without aggregates.
    pub(crate) fn outcome(&self, live: bool) -> Result<AggregateMetrics, String> {
        let mut st = self.shared.lock();
        if live && st.mode == Mode::Follow {
            st.mode = Mode::Live;
            self.shared.wake.notify_all();
        }
        loop {
            if let Some(outcome) = &st.outcome {
                return outcome.clone();
            }
            st = self.shared.wait(st);
        }
    }

    /// Whether the run was told to decide live (the follower promoted).
    pub(crate) fn is_live(&self) -> bool {
        self.shared.lock().mode == Mode::Live
    }
}

impl Drop for Mirror {
    /// Stops the run at the next boundary it asks about — the one it is
    /// parked at, if it is parked — and joins it.
    fn drop(&mut self) {
        self.shared.lock().mode = Mode::Stop;
        self.shared.wake.notify_all();
        if let Some(thread) = self.thread.take() {
            // The run's own panic was caught and published; nothing is
            // left to report here.
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_run_wakes_its_waiters_with_a_named_error() {
        let mirror = Mirror::spawn(|pins| {
            // Park like a real run, then die once released.
            assert!(!pins.wants_interim(0));
            panic!("worker 3 lost its node");
        });
        let waiter = thread::scope(|s| {
            let waiting = s.spawn(|| mirror.interim(4));
            mirror.release(EpochPin::Live);
            waiting.join().expect("waiter")
        });
        let why = waiter.expect_err("the run died");
        assert_eq!(why, "mirror stopped: worker 3 lost its node");
        // The verdict is sticky: no second wait, same words.
        assert_eq!(mirror.interim(4), Err(why.clone()));
        assert_eq!(mirror.outcome(true).map(|_| ()), Err(why));
    }

    #[test]
    fn a_parked_run_stops_when_its_mirror_is_dropped() {
        let (tx, rx) = std::sync::mpsc::channel();
        let mirror = Mirror::spawn(move |pins| {
            let pin = pins.pin(0);
            tx.send(matches!(pin, EpochPin::Stop)).expect("test alive");
            None
        });
        drop(mirror);
        assert!(rx.recv().expect("run answered"), "parked run saw Stop");
    }

    #[test]
    fn released_pins_outrank_live_and_stop_outranks_both() {
        let mirror = Mirror::spawn(|pins| {
            assert!(matches!(pins.pin(0), EpochPin::Pinned(_)));
            // Unreleased and promoted: live, and no interim is awaited.
            assert!(!pins.wants_interim(1));
            assert!(matches!(pins.pin(1), EpochPin::Live));
            None
        });
        mirror.release(EpochPin::Pinned(Default::default()));
        assert!(mirror.outcome(true).is_err(), "the test run has no result");
        assert!(mirror.is_live());
        assert_eq!(mirror.released(), 1);
    }
}
