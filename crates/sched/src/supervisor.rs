//! The supervisor: admission control and bandwidth compression.
//!
//! Task controllers submit `(Q_req, T)` requests; the supervisor enforces
//! the schedulability condition Σ Qᵢ/Tᵢ ≤ U_lub (Equation (1) of the paper,
//! with U_lub ≤ 1 leaving headroom for non-reserved activity). Requests that
//! fit are granted verbatim; otherwise they are *curbed* to fit the bound,
//! using one of the compression policies described for AQuoSA (\[23\]).

use crate::cbs::ServerId;
use crate::reservation::ReservationScheduler;
use selftune_simcore::time::Dur;

/// How requests are compressed when they exceed the available bandwidth.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum Compression {
    /// Scale every request by the same factor (AQuoSA's default weights).
    #[default]
    Proportional,
    /// Give every requester the same share of what is available, capped at
    /// its own request.
    Equal,
}

/// One bandwidth request from a task controller.
#[derive(Copy, Clone, Debug)]
pub struct BwRequest {
    /// The server whose parameters should change.
    pub server: ServerId,
    /// Requested budget `Q_req`.
    pub budget: Dur,
    /// Requested reservation period `T` (the detected task period).
    pub period: Dur,
}

/// The grant actually applied for a request.
#[derive(Copy, Clone, Debug)]
pub struct Grant {
    /// The server the grant applies to.
    pub server: ServerId,
    /// Granted budget (≤ requested).
    pub budget: Dur,
    /// Granted period (always the requested period).
    pub period: Dur,
    /// Whether the request was curbed.
    pub compressed: bool,
}

impl Grant {
    /// Granted fraction of the CPU.
    pub fn bandwidth(&self) -> f64 {
        self.budget.ratio(self.period)
    }
}

/// The arithmetic behind one [`Supervisor::apply`] pass — the inputs a
/// decision journal records so a compressed grant is explainable.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct ApplyReport {
    /// Bandwidth pinned by servers that did not request this pass.
    pub fixed: f64,
    /// `max(ulub − fixed, 0)`: what the requesters shared.
    pub available: f64,
    /// Total bandwidth the (sanitised) requests asked for.
    pub requested: f64,
    /// How many grants were curbed.
    pub compressed: u32,
}

/// Supervisor configuration and entry point.
#[derive(Copy, Clone, Debug)]
pub struct Supervisor {
    /// Total bandwidth available to reservations (Σ Q/T bound).
    pub ulub: f64,
    /// Compression policy under saturation.
    pub policy: Compression,
    /// Floor below which no grant is compressed (keeps starving servers
    /// alive so their controllers can still observe progress).
    pub min_budget: Dur,
}

impl Default for Supervisor {
    fn default() -> Self {
        Supervisor {
            ulub: 0.95,
            policy: Compression::Proportional,
            min_budget: Dur::us(200),
        }
    }
}

impl Supervisor {
    /// Creates a supervisor with the given utilisation bound.
    ///
    /// # Panics
    ///
    /// Panics if `ulub` is not in `(0, 1]`.
    pub fn new(ulub: f64) -> Supervisor {
        assert!(ulub > 0.0 && ulub <= 1.0, "ulub {ulub} out of (0, 1]");
        Supervisor {
            ulub,
            ..Supervisor::default()
        }
    }

    /// The smallest budget a fresh server is parameterised with at
    /// `period`: the compression floor clamped into `(0, period]` (a
    /// 10 µs hard minimum keeps degenerate floors schedulable). Shared by
    /// every creation path — task reservations, VM shares, elastic
    /// re-grants — so the floor rule cannot diverge between layers.
    pub fn budget_floor(&self, period: Dur) -> Dur {
        self.min_budget.min(period).max(Dur::us(10))
    }

    /// Would admitting a brand-new reservation `(budget, period)` keep the
    /// system schedulable, given what is already reserved?
    pub fn admits(&self, sched: &ReservationScheduler, budget: Dur, period: Dur) -> bool {
        sched.total_reserved_bandwidth() + budget.ratio(period) <= self.ulub + 1e-9
    }

    /// Applies a batch of requests, compressing if they would saturate the
    /// bound, and updates the servers' parameters.
    ///
    /// Servers *not* named in `reqs` keep their current bandwidth; the
    /// requesters share what remains.
    pub fn apply(&self, sched: &mut ReservationScheduler, reqs: &[BwRequest]) -> Vec<Grant> {
        self.apply_detailed(sched, reqs).0
    }

    /// [`Supervisor::apply`] plus the [`ApplyReport`] a decision journal
    /// records alongside the grants.
    pub fn apply_detailed(
        &self,
        sched: &mut ReservationScheduler,
        reqs: &[BwRequest],
    ) -> (Vec<Grant>, ApplyReport) {
        // Sanitise: a zero-period request cannot parameterise a server at
        // all (drop it — its server keeps its current bandwidth); a zero
        // budget becomes a tiny floor so the reservation stays alive.
        let reqs: Vec<BwRequest> = reqs
            .iter()
            .filter(|r| !r.period.is_zero())
            .map(|r| BwRequest {
                budget: r.budget.max(Dur::us(10)).min(r.period),
                ..*r
            })
            .collect();
        let reqs = &reqs[..];
        if reqs.is_empty() {
            return (Vec::new(), ApplyReport::default());
        }
        // Bandwidth pinned by servers that did not submit a request,
        // summed in server-id order.
        let mut requesting = vec![false; sched.server_count()];
        for r in reqs {
            requesting[r.server.index()] = true;
        }
        let fixed: f64 = (0..sched.server_count())
            .filter(|&i| !requesting[i])
            .map(|i| sched.server(ServerId(i as u32)).config().bandwidth())
            .sum();
        let available = (self.ulub - fixed).max(0.0);
        let requested: f64 = reqs.iter().map(|r| r.budget.ratio(r.period)).sum();

        let grants: Vec<Grant> = if requested <= available + 1e-9 {
            reqs.iter()
                .map(|r| Grant {
                    server: r.server,
                    budget: r.budget,
                    period: r.period,
                    compressed: false,
                })
                .collect()
        } else {
            match self.policy {
                Compression::Proportional => {
                    let factor = if requested > 0.0 {
                        available / requested
                    } else {
                        0.0
                    };
                    reqs.iter()
                        .map(|r| {
                            let b = r.budget.mul_f64(factor).max(self.min_budget).min(r.period);
                            Grant {
                                server: r.server,
                                budget: b,
                                period: r.period,
                                compressed: true,
                            }
                        })
                        .collect()
                }
                Compression::Equal => {
                    let share = available / reqs.len() as f64;
                    reqs.iter()
                        .map(|r| {
                            let req_bw = r.budget.ratio(r.period);
                            let bw = req_bw.min(share);
                            let b = r.period.mul_f64(bw).max(self.min_budget).min(r.period);
                            Grant {
                                server: r.server,
                                budget: b,
                                period: r.period,
                                compressed: req_bw > share,
                            }
                        })
                        .collect()
                }
            }
        };

        for g in &grants {
            sched.server_mut(g.server).set_params(g.budget, g.period);
        }
        let report = ApplyReport {
            fixed,
            available,
            requested,
            compressed: grants.iter().filter(|g| g.compressed).count() as u32,
        };
        (grants, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cbs::ServerConfig;

    fn sched_with(servers: &[(u64, u64)]) -> (ReservationScheduler, Vec<ServerId>) {
        let mut s = ReservationScheduler::new();
        let ids = servers
            .iter()
            .map(|&(q, t)| s.create_server(ServerConfig::new(Dur::ms(q), Dur::ms(t))))
            .collect();
        (s, ids)
    }

    #[test]
    fn grants_fit_verbatim() {
        let (mut s, ids) = sched_with(&[(10, 100), (10, 100)]);
        let sup = Supervisor::new(0.9);
        let grants = sup.apply(
            &mut s,
            &[BwRequest {
                server: ids[0],
                budget: Dur::ms(30),
                period: Dur::ms(100),
            }],
        );
        assert_eq!(grants.len(), 1);
        assert!(!grants[0].compressed);
        assert_eq!(grants[0].budget, Dur::ms(30));
        assert_eq!(s.server(ids[0]).config().budget, Dur::ms(30));
    }

    #[test]
    fn proportional_compression_fits_bound() {
        let (mut s, ids) = sched_with(&[(10, 100), (10, 100)]);
        let sup = Supervisor::new(0.8);
        // Request 0.6 + 0.6 = 1.2 > 0.8 → scale by 2/3.
        let grants = sup.apply(
            &mut s,
            &[
                BwRequest {
                    server: ids[0],
                    budget: Dur::ms(60),
                    period: Dur::ms(100),
                },
                BwRequest {
                    server: ids[1],
                    budget: Dur::ms(60),
                    period: Dur::ms(100),
                },
            ],
        );
        assert!(grants.iter().all(|g| g.compressed));
        let total = s.total_reserved_bandwidth();
        assert!(total <= 0.8 + 1e-6, "total {total}");
        assert!((grants[0].bandwidth() - 0.4).abs() < 1e-3);
    }

    #[test]
    fn fixed_servers_reduce_available_share() {
        let (mut s, ids) = sched_with(&[(50, 100), (10, 100)]);
        let sup = Supervisor::new(0.9);
        // Server 0 keeps its 0.5; only 0.4 left for server 1's 0.6 request.
        let grants = sup.apply(
            &mut s,
            &[BwRequest {
                server: ids[1],
                budget: Dur::ms(60),
                period: Dur::ms(100),
            }],
        );
        assert!(grants[0].compressed);
        assert!((grants[0].bandwidth() - 0.4).abs() < 1e-3);
        assert!(s.total_reserved_bandwidth() <= 0.9 + 1e-6);
    }

    #[test]
    fn equal_compression_caps_at_request() {
        let (mut s, ids) = sched_with(&[(10, 100), (10, 100)]);
        let mut sup = Supervisor::new(0.6);
        sup.policy = Compression::Equal;
        // Requests 0.1 and 0.9: equal share is 0.3 each, but the first only
        // wants 0.1, so it is granted fully.
        let grants = sup.apply(
            &mut s,
            &[
                BwRequest {
                    server: ids[0],
                    budget: Dur::ms(10),
                    period: Dur::ms(100),
                },
                BwRequest {
                    server: ids[1],
                    budget: Dur::ms(90),
                    period: Dur::ms(100),
                },
            ],
        );
        assert!(!grants[0].compressed);
        assert!((grants[0].bandwidth() - 0.1).abs() < 1e-6);
        assert!(grants[1].compressed);
        assert!((grants[1].bandwidth() - 0.3).abs() < 1e-3);
    }

    #[test]
    fn degenerate_requests_are_sanitised_not_fatal() {
        let (mut s, ids) = sched_with(&[(10, 100), (10, 100)]);
        let sup = Supervisor::new(0.9);
        let grants = sup.apply(
            &mut s,
            &[
                // Zero period: unparameterisable, dropped.
                BwRequest {
                    server: ids[0],
                    budget: Dur::ms(5),
                    period: Dur::ZERO,
                },
                // Zero budget: floored, not zeroed.
                BwRequest {
                    server: ids[1],
                    budget: Dur::ZERO,
                    period: Dur::ms(50),
                },
            ],
        );
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].server, ids[1]);
        assert!(!grants[0].budget.is_zero());
        // The dropped request's server keeps its old parameters.
        assert_eq!(s.server(ids[0]).config().budget, Dur::ms(10));
    }

    #[test]
    fn apply_detailed_reports_the_booking_math() {
        let (mut s, ids) = sched_with(&[(50, 100), (10, 100)]);
        let sup = Supervisor::new(0.9);
        // Server 0 keeps its 0.5 pinned; server 1 asks for 0.6 of the 0.4
        // left — one compressed grant.
        let (grants, report) = sup.apply_detailed(
            &mut s,
            &[BwRequest {
                server: ids[1],
                budget: Dur::ms(60),
                period: Dur::ms(100),
            }],
        );
        assert_eq!(grants.len(), 1);
        assert!((report.fixed - 0.5).abs() < 1e-9);
        assert!((report.available - 0.4).abs() < 1e-9);
        assert!((report.requested - 0.6).abs() < 1e-9);
        assert_eq!(report.compressed, 1);
        // Empty batch: all-zero report.
        let (_, empty) = sup.apply_detailed(&mut s, &[]);
        assert_eq!(empty, ApplyReport::default());
    }

    #[test]
    fn fixed_is_summed_in_server_id_order_to_the_bit() {
        // Bandwidths whose sum depends on the order of addition.
        let servers: Vec<(u64, u64)> = (0..200).map(|i| (1 + i % 7, 300 + 13 * i)).collect();
        let (mut s, ids) = sched_with(&servers);
        let reqs: Vec<BwRequest> = [150usize, 3, 77, 4]
            .iter()
            .map(|&i| BwRequest {
                server: ids[i],
                budget: Dur::ms(1),
                period: Dur::ms(400),
            })
            .collect();
        let expected: f64 = ids
            .iter()
            .filter(|sid| reqs.iter().all(|r| r.server != **sid))
            .map(|&sid| s.server(sid).config().bandwidth())
            .sum();
        let (_, report) = Supervisor::new(0.9).apply_detailed(&mut s, &reqs);
        assert_eq!(report.fixed.to_bits(), expected.to_bits());
    }

    #[test]
    fn admits_respects_existing_load() {
        let (s, _) = sched_with(&[(50, 100)]);
        let sup = Supervisor::new(0.9);
        assert!(sup.admits(&s, Dur::ms(30), Dur::ms(100)));
        assert!(!sup.admits(&s, Dur::ms(50), Dur::ms(100)));
    }

    #[test]
    fn empty_request_batch_is_noop() {
        let (mut s, _) = sched_with(&[(10, 100)]);
        let sup = Supervisor::default();
        assert!(sup.apply(&mut s, &[]).is_empty());
        assert!((s.total_reserved_bandwidth() - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn invalid_ulub_panics() {
        let _ = Supervisor::new(1.5);
    }
}
