//! Plain-text scenario I/O: describe a fleet without recompiling.
//!
//! [`ScenarioSpec::to_text`] serialises a scenario to a `key = value`
//! format; [`ScenarioSpec::from_text`] parses it back. The format is
//! line-oriented, order-insensitive (except repeated `mix`/`overload`
//! lines, which accumulate in order), ignores blank lines and `#`
//! comments, and round-trips exactly: `to_text(from_text(t)) == t` for any
//! `t` produced by `to_text` — a property test enforces it.
//!
//! ```text
//! # selftune fleet scenario
//! name = fleet-demo
//! nodes = 16
//! tasks = 128
//! horizon_ms = 5000
//! policy = worst-fit
//! ulub = 0.9
//! headroom = 1.2
//! sampling_ms = 500
//! arrivals = poisson 15
//! churn = 4000 800
//! mix = video25 3
//! mix = periodic_rt 2 2 50
//! vm = 3 10 2 periodic_rt 4 40
//! vm = 4 10 elastic 1 video25 + 2 periodic_rt 2 50
//! overload = 2000 3500 1 10 first:2
//! phase = 1000 5000 2000 12 all hungry_rt 1 2 5 40
//! rebalance = on 1000 0.05 4 0.6 warm
//! node_share = on 0.5 0.95
//! ```
//!
//! `vm` lines declare whole virtual platforms (`budget_ms period_ms
//! [elastic] count kind... [+ count kind...]`), placed and migrated as
//! single units: the optional `elastic` token puts the share under a
//! host-level controller, and `+`-separated guest groups give one tenant
//! a heterogeneous task mix. The `rebalance` line accepts the legacy
//! 4-field form or the 6-field form adding the EWMA smoothing factor and
//! warm/cold migration hand-over. `phase` lines declare time-varying
//! traffic (`start_ms end_ms ramp_ms tasks filter kind... [+ kind...]`,
//! weighted kinds as in `mix` lines); `node_share` turns the fleet→node
//! share controller on with its floor and cap bounds.

use selftune_simcore::time::Dur;

use crate::placer::PolicyKind;
use crate::spec::{
    ArrivalSchedule, Churn, NodeFilter, NodeShareSpec, OverloadWindow, RebalanceSpec, ScenarioSpec,
    TaskKind, TaskMix, TrafficPhase, VmSpec,
};

/// Formats a duration as fractional milliseconds with a shortest
/// round-tripping representation.
fn ms(d: Dur) -> String {
    format!("{}", d.as_ms_f64())
}

fn parse_ms(s: &str) -> Result<Dur, String> {
    let v: f64 = s.parse().map_err(|_| format!("bad duration (ms): {s:?}"))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!("bad duration (ms): {s:?}"));
    }
    Ok(Dur::from_ms_f64(v))
}

fn parse_f64(s: &str) -> Result<f64, String> {
    s.parse().map_err(|_| format!("bad number: {s:?}"))
}

fn parse_usize(s: &str) -> Result<usize, String> {
    s.parse().map_err(|_| format!("bad integer: {s:?}"))
}

/// Serialises a kind: its name, then its parameters. The one kind
/// grammar — `vm` guest groups use it as is, `mix` and `phase` entries
/// slip their weight in after the name (see [`weighted_to_text`]).
fn kind_to_text(kind: &TaskKind) -> String {
    match kind {
        TaskKind::Video25 => "video25".to_owned(),
        TaskKind::Mp3 => "mp3".to_owned(),
        TaskKind::Stream30 => "stream30".to_owned(),
        TaskKind::PeriodicRt { wcet, period } => {
            format!("periodic_rt {} {}", ms(*wcet), ms(*period))
        }
        TaskKind::HungryRt {
            nominal_wcet,
            wcet,
            period,
        } => format!(
            "hungry_rt {} {} {}",
            ms(*nominal_wcet),
            ms(*wcet),
            ms(*period)
        ),
        TaskKind::Aperiodic {
            mean_gap,
            mean_work,
            burst,
        } => format!("aperiodic {} {} {burst}", ms(*mean_gap), ms(*mean_work)),
    }
}

/// Parses a kind from its tokens (name, then parameters).
fn kind_from_text(tokens: &[&str]) -> Result<TaskKind, String> {
    Ok(match tokens {
        ["video25"] => TaskKind::Video25,
        ["mp3"] => TaskKind::Mp3,
        ["stream30"] => TaskKind::Stream30,
        ["periodic_rt", wcet, period] => TaskKind::PeriodicRt {
            wcet: parse_ms(wcet)?,
            period: parse_ms(period)?,
        },
        ["hungry_rt", nominal_wcet, wcet, period] => TaskKind::HungryRt {
            nominal_wcet: parse_ms(nominal_wcet)?,
            wcet: parse_ms(wcet)?,
            period: parse_ms(period)?,
        },
        ["aperiodic", mean_gap, mean_work, burst] => TaskKind::Aperiodic {
            mean_gap: parse_ms(mean_gap)?,
            mean_work: parse_ms(mean_work)?,
            burst: burst.parse().map_err(|_| format!("bad burst: {burst:?}"))?,
        },
        _ => return Err(format!("unknown task kind or field count: {tokens:?}")),
    })
}

/// A `mix`/`phase` entry: the kind with its weight after the name.
fn weighted_to_text(kind: &TaskKind, weight: f64) -> String {
    let kind = kind_to_text(kind);
    match kind.split_once(' ') {
        Some((name, params)) => format!("{name} {weight} {params}"),
        None => format!("{kind} {weight}"),
    }
}

fn weighted_from_text(tokens: &[&str]) -> Result<(TaskKind, f64), String> {
    let [name, weight, params @ ..] = tokens else {
        return Err(format!("mix entry needs a kind and a weight: {tokens:?}"));
    };
    let w = parse_f64(weight)?;
    if !w.is_finite() || w <= 0.0 {
        return Err(format!("mix weight must be positive: {weight:?}"));
    }
    let kind: Vec<&str> = std::iter::once(name).chain(params).copied().collect();
    Ok((kind_from_text(&kind)?, w))
}

pub(crate) fn filter_to_text(f: NodeFilter) -> String {
    match f {
        NodeFilter::All => "all".to_owned(),
        NodeFilter::First(n) => format!("first:{n}"),
        NodeFilter::Stride(n) => format!("stride:{n}"),
    }
}

fn filter_from_text(s: &str) -> Result<NodeFilter, String> {
    if s == "all" {
        return Ok(NodeFilter::All);
    }
    if let Some(n) = s.strip_prefix("first:") {
        return Ok(NodeFilter::First(parse_usize(n)?));
    }
    if let Some(n) = s.strip_prefix("stride:") {
        return Ok(NodeFilter::Stride(parse_usize(n)?));
    }
    Err(format!("unknown node filter: {s:?}"))
}

fn policy_from_text(s: &str) -> Result<PolicyKind, String> {
    match s {
        "first-fit" => Ok(PolicyKind::FirstFit),
        "worst-fit" => Ok(PolicyKind::WorstFit),
        "bandwidth-aware" => Ok(PolicyKind::BandwidthAware),
        other => Err(format!("unknown policy: {other:?}")),
    }
}

impl ScenarioSpec {
    /// Serialises the scenario to the `key = value` text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("# selftune fleet scenario\n");
        out.push_str(&format!("name = {}\n", self.name));
        out.push_str(&format!("nodes = {}\n", self.nodes));
        out.push_str(&format!("tasks = {}\n", self.tasks));
        out.push_str(&format!("horizon_ms = {}\n", ms(self.horizon)));
        out.push_str(&format!("policy = {}\n", self.policy.name()));
        out.push_str(&format!("ulub = {}\n", self.ulub));
        out.push_str(&format!("headroom = {}\n", self.headroom));
        out.push_str(&format!("sampling_ms = {}\n", ms(self.sampling)));
        match self.arrivals {
            ArrivalSchedule::AllAtStart => out.push_str("arrivals = all_at_start\n"),
            ArrivalSchedule::Staggered { gap } => {
                out.push_str(&format!("arrivals = staggered {}\n", ms(gap)));
            }
            ArrivalSchedule::Poisson { mean_gap } => {
                out.push_str(&format!("arrivals = poisson {}\n", ms(mean_gap)));
            }
        }
        if let Some(c) = self.churn {
            out.push_str(&format!(
                "churn = {} {}\n",
                ms(c.mean_lifetime),
                ms(c.min_lifetime)
            ));
        }
        for (kind, weight) in self.mix.entries() {
            out.push_str(&format!("mix = {}\n", weighted_to_text(kind, *weight)));
        }
        for vm in &self.vms {
            let groups: Vec<String> = vm
                .guests
                .iter()
                .map(|(n, kind)| format!("{n} {}", kind_to_text(kind)))
                .collect();
            out.push_str(&format!(
                "vm = {} {}{} {}\n",
                ms(vm.budget),
                ms(vm.period),
                if vm.elastic { " elastic" } else { "" },
                groups.join(" + ")
            ));
        }
        for w in &self.overload {
            out.push_str(&format!(
                "overload = {} {} {} {} {}\n",
                ms(w.start),
                ms(w.end),
                w.hogs_per_node,
                ms(w.chunk),
                filter_to_text(w.nodes)
            ));
        }
        for p in &self.phases {
            let mix: Vec<String> = p
                .mix
                .entries()
                .iter()
                .map(|(kind, weight)| weighted_to_text(kind, *weight))
                .collect();
            out.push_str(&format!(
                "phase = {} {} {} {} {} {}\n",
                ms(p.start),
                ms(p.end),
                ms(p.ramp),
                p.tasks,
                filter_to_text(p.nodes),
                mix.join(" + ")
            ));
        }
        out.push_str(&format!(
            "rebalance = {} {} {} {} {} {}\n",
            if self.rebalance.enabled { "on" } else { "off" },
            ms(self.rebalance.period),
            self.rebalance.pressure,
            self.rebalance.max_moves,
            self.rebalance.ewma_alpha,
            if self.rebalance.warm_start {
                "warm"
            } else {
                "cold"
            }
        ));
        out.push_str(&format!(
            "node_share = {} {} {}\n",
            if self.node_share.enabled { "on" } else { "off" },
            self.node_share.floor,
            self.node_share.cap
        ));
        out
    }

    /// Parses a scenario from the text format written by
    /// [`ScenarioSpec::to_text`].
    ///
    /// Unknown keys, malformed values, missing required fields (`name`,
    /// `nodes`, `tasks`, `horizon_ms`) and any broken
    /// [`ScenarioSpec::validate`] rule are reported as `Err`; everything
    /// the text leaves out keeps its [`ScenarioSpec::new`] default.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first offending line.
    pub fn from_text(text: &str) -> Result<ScenarioSpec, String> {
        let mut spec = ScenarioSpec::new("", 1, 0, Dur::ZERO);
        let (mut name, mut nodes, mut tasks, mut horizon) = (None, None, None, None);
        let mut mix_entries: Vec<(TaskKind, f64)> = Vec::new();
        let on_off = |key: &str, state: &str| match state {
            "on" => Ok(true),
            "off" => Ok(false),
            other => Err(format!("{key} must be on/off, got {other:?}")),
        };
        for raw in text.lines() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("expected `key = value`, got {line:?}"))?;
            let (key, value) = (key.trim(), value.trim());
            let parts: Vec<&str> = value.split_whitespace().collect();
            match (key, parts.as_slice()) {
                ("name", _) => name = Some(value.to_owned()),
                ("nodes", _) => nodes = Some(parse_usize(value)?),
                ("tasks", _) => tasks = Some(parse_usize(value)?),
                ("horizon_ms", _) => horizon = Some(parse_ms(value)?),
                ("policy", _) => spec.policy = policy_from_text(value)?,
                ("ulub", _) => spec.ulub = parse_f64(value)?,
                ("headroom", _) => spec.headroom = parse_f64(value)?,
                ("sampling_ms", _) => spec.sampling = parse_ms(value)?,
                ("arrivals", ["all_at_start"]) => spec.arrivals = ArrivalSchedule::AllAtStart,
                ("arrivals", ["staggered", gap]) => {
                    spec.arrivals = ArrivalSchedule::Staggered {
                        gap: parse_ms(gap)?,
                    };
                }
                ("arrivals", ["poisson", gap]) => {
                    spec.arrivals = ArrivalSchedule::Poisson {
                        mean_gap: parse_ms(gap)?,
                    };
                }
                ("arrivals", _) => return Err(format!("bad arrivals line: {value:?}")),
                ("churn", [mean, min]) => {
                    spec.churn = Some(Churn {
                        mean_lifetime: parse_ms(mean)?,
                        min_lifetime: parse_ms(min)?,
                    });
                }
                ("churn", _) => return Err(format!("churn needs 2 fields: {value:?}")),
                ("mix", entry) => mix_entries.push(weighted_from_text(entry)?),
                ("overload", [start, end, hogs, chunk, filter]) => {
                    spec.overload.push(OverloadWindow {
                        start: parse_ms(start)?,
                        end: parse_ms(end)?,
                        hogs_per_node: hogs
                            .parse()
                            .map_err(|_| format!("bad hog count: {hogs:?}"))?,
                        chunk: parse_ms(chunk)?,
                        nodes: filter_from_text(filter)?,
                    });
                }
                ("overload", _) => return Err(format!("overload needs 5 fields: {value:?}")),
                ("vm", parts) => spec.vms.push(vm_from_text(parts, value)?),
                // 4-field form (pre-hysteresis) or 6-field form with the
                // EWMA factor and warm/cold hand-over.
                ("rebalance", [state, period, pressure, max_moves, rest @ ..]) => {
                    let legacy = RebalanceSpec::default();
                    let (ewma_alpha, warm_start) = match rest {
                        [] => (legacy.ewma_alpha, legacy.warm_start),
                        [alpha, "warm"] => (parse_f64(alpha)?, true),
                        [alpha, "cold"] => (parse_f64(alpha)?, false),
                        [_, other] => {
                            return Err(format!("rebalance hand-over must be warm/cold: {other:?}"))
                        }
                        _ => return Err(format!("rebalance needs 4 or 6 fields: {value:?}")),
                    };
                    spec.rebalance = RebalanceSpec {
                        enabled: on_off(key, state)?,
                        period: parse_ms(period)?,
                        pressure: parse_f64(pressure)?,
                        max_moves: max_moves
                            .parse()
                            .map_err(|_| format!("bad max_moves: {max_moves:?}"))?,
                        ewma_alpha,
                        warm_start,
                    };
                }
                ("rebalance", _) => {
                    return Err(format!("rebalance needs 4 or 6 fields: {value:?}"));
                }
                // Weighted kinds as in `mix` lines, groups separated by
                // standalone `+` tokens.
                ("phase", [start, end, ramp, count, filter, rest @ ..]) if !rest.is_empty() => {
                    let groups = rest.split(|&t| t == "+");
                    let entries: Result<Vec<_>, _> = groups.map(weighted_from_text).collect();
                    spec.phases.push(TrafficPhase {
                        start: parse_ms(start)?,
                        end: parse_ms(end)?,
                        ramp: parse_ms(ramp)?,
                        tasks: parse_usize(count)?,
                        mix: TaskMix::new(entries?),
                        nodes: filter_from_text(filter)?,
                    });
                }
                ("phase", _) => {
                    return Err(format!(
                        "phase needs `start_ms end_ms ramp_ms tasks filter kind...`: {value:?}"
                    ));
                }
                ("node_share", [state, floor, cap]) => {
                    spec.node_share = NodeShareSpec {
                        enabled: on_off(key, state)?,
                        floor: parse_f64(floor)?,
                        cap: parse_f64(cap)?,
                    };
                }
                ("node_share", _) => return Err(format!("node_share needs 3 fields: {value:?}")),
                (other, _) => return Err(format!("unknown key: {other:?}")),
            }
        }
        spec.name = name.ok_or("missing required key `name`")?;
        spec.nodes = nodes.ok_or("missing required key `nodes`")?;
        spec.tasks = tasks.ok_or("missing required key `tasks`")?;
        spec.horizon = horizon.ok_or("missing required key `horizon_ms`")?;
        if !mix_entries.is_empty() {
            spec.mix = TaskMix::new(mix_entries);
        }
        spec.validate()?;
        Ok(spec)
    }
}

/// A `vm` line: `budget_ms period_ms [elastic] count kind... [+ count
/// kind...]` — whitespace-tolerant, guest groups separated by standalone
/// `+` tokens.
fn vm_from_text(parts: &[&str], value: &str) -> Result<VmSpec, String> {
    let usage = || {
        format!(
            "vm needs `budget_ms period_ms [elastic] count kind... \
             [+ count kind...]`: {value:?}"
        )
    };
    let [budget, period, rest @ ..] = parts else {
        return Err(usage());
    };
    let (elastic, rest) = match rest {
        ["elastic", rest @ ..] => (true, rest),
        rest => (false, rest),
    };
    let mut guests: Vec<(usize, TaskKind)> = Vec::new();
    for group in rest.split(|&t| t == "+") {
        let [count, kind @ ..] = group else {
            return Err(usage());
        };
        guests.push((parse_usize(count)?, kind_from_text(kind)?));
    }
    Ok(VmSpec {
        budget: parse_ms(budget)?,
        period: parse_ms(period)?,
        guests,
        elastic,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ClusterRunner;

    fn demo_spec() -> ScenarioSpec {
        ScenarioSpec::new("demo", 4, 24, Dur::secs(5))
            .with_mix(TaskMix::new(vec![
                (TaskKind::Video25, 2.0),
                (
                    TaskKind::PeriodicRt {
                        wcet: Dur::ms(2),
                        period: Dur::ms(50),
                    },
                    1.5,
                ),
                (
                    TaskKind::HungryRt {
                        nominal_wcet: Dur::ms(2),
                        wcet: Dur::ms(6),
                        period: Dur::ms(40),
                    },
                    1.0,
                ),
                (
                    TaskKind::Aperiodic {
                        mean_gap: Dur::ms(25),
                        mean_work: Dur::from_ms_f64(1.5),
                        burst: 2,
                    },
                    0.5,
                ),
            ]))
            .with_arrivals(ArrivalSchedule::Poisson {
                mean_gap: Dur::ms(15),
            })
            .with_churn(Churn {
                mean_lifetime: Dur::secs(4),
                min_lifetime: Dur::ms(800),
            })
            .with_overload(OverloadWindow {
                start: Dur::ms(2_000),
                end: Dur::ms(3_500),
                hogs_per_node: 2,
                chunk: Dur::ms(10),
                nodes: NodeFilter::First(2),
            })
            .with_policy(PolicyKind::FirstFit)
            .with_ulub(0.85)
            .with_rebalance(RebalanceSpec {
                enabled: true,
                period: Dur::ms(750),
                pressure: 0.08,
                max_moves: 3,
                ewma_alpha: 0.5,
                warm_start: true,
            })
            .with_vm(VmSpec::uniform(
                Dur::ms(3),
                Dur::ms(10),
                2,
                TaskKind::PeriodicRt {
                    wcet: Dur::ms(4),
                    period: Dur::ms(40),
                },
            ))
            .with_vm(
                VmSpec {
                    budget: Dur::ms(5),
                    period: Dur::ms(10),
                    guests: vec![
                        (1, TaskKind::Video25),
                        (
                            2,
                            TaskKind::PeriodicRt {
                                wcet: Dur::ms(2),
                                period: Dur::ms(50),
                            },
                        ),
                    ],
                    elastic: false,
                }
                .with_elastic(),
            )
            .with_node_share(crate::spec::NodeShareSpec {
                enabled: true,
                floor: 0.6,
                cap: 0.92,
            })
            .with_phase(TrafficPhase {
                start: Dur::ms(1_000),
                end: Dur::ms(4_000),
                ramp: Dur::ms(1_500),
                tasks: 6,
                mix: TaskMix::new(vec![
                    (
                        TaskKind::HungryRt {
                            nominal_wcet: Dur::ms(2),
                            wcet: Dur::ms(5),
                            period: Dur::ms(40),
                        },
                        2.0,
                    ),
                    (TaskKind::Video25, 1.0),
                ]),
                nodes: NodeFilter::All,
            })
            .with_phase(TrafficPhase {
                start: Dur::ms(2_500),
                end: Dur::ms(3_500),
                ramp: Dur::ZERO,
                tasks: 3,
                mix: TaskMix::new(vec![(
                    TaskKind::PeriodicRt {
                        wcet: Dur::ms(6),
                        period: Dur::ms(40),
                    },
                    1.0,
                )]),
                nodes: NodeFilter::First(1),
            })
    }

    #[test]
    fn text_round_trip_is_exact() {
        let spec = demo_spec();
        let text = spec.to_text();
        let parsed = ScenarioSpec::from_text(&text).expect("parse");
        assert_eq!(parsed.to_text(), text);
        assert_eq!(parsed.name, spec.name);
        assert_eq!(parsed.nodes, spec.nodes);
        assert_eq!(parsed.tasks, spec.tasks);
        assert_eq!(parsed.horizon, spec.horizon);
        assert_eq!(parsed.policy, spec.policy);
        assert!(parsed.rebalance.enabled);
        assert_eq!(parsed.rebalance.max_moves, 3);
        assert!((parsed.rebalance.ewma_alpha - 0.5).abs() < 1e-12);
        assert!(parsed.rebalance.warm_start);
        assert_eq!(parsed.overload.len(), 1);
        assert_eq!(parsed.overload[0].nodes, NodeFilter::First(2));
        assert_eq!(parsed.vms, spec.vms);
        assert_eq!(parsed.node_share, spec.node_share);
        assert_eq!(parsed.phases, spec.phases);
        assert_eq!(parsed.flat_tasks(), spec.tasks + 9);
    }

    #[test]
    fn vm_lines_tolerate_extra_whitespace() {
        let text =
            "name=x\nnodes=2\ntasks=1\nhorizon_ms=100\nvm =  3   10  2   periodic_rt  4  40\n";
        let spec = ScenarioSpec::from_text(text).expect("aligned columns parse");
        assert_eq!(spec.vms.len(), 1);
        assert_eq!(spec.vms[0].guest_count(), 2);
        assert!(!spec.vms[0].elastic);
        assert_eq!(
            spec.vms[0].guests,
            vec![(
                2,
                TaskKind::PeriodicRt {
                    wcet: Dur::ms(4),
                    period: Dur::ms(40),
                }
            )]
        );
    }

    #[test]
    fn vm_lines_parse_elastic_flag_and_guest_mixes() {
        let text = "name=x\nnodes=2\ntasks=1\nhorizon_ms=100\n\
                    vm = 4 10 elastic 1 video25 + 2 periodic_rt 2 50 + 1 mp3\n";
        let spec = ScenarioSpec::from_text(text).expect("mixed vm parses");
        let vm = &spec.vms[0];
        assert!(vm.elastic);
        assert_eq!(vm.guest_count(), 4);
        assert_eq!(vm.guests.len(), 3);
        assert_eq!(vm.guests[0], (1, TaskKind::Video25));
        assert_eq!(vm.guests[2], (1, TaskKind::Mp3));
        let kinds: Vec<_> = vm.guest_kinds().collect();
        assert_eq!(kinds.len(), 4);
        assert_eq!(kinds[0], &TaskKind::Video25);
        assert_eq!(kinds[3], &TaskKind::Mp3);
    }

    #[test]
    fn four_field_rebalance_form_still_parses() {
        let text = "name=x\nnodes=2\ntasks=1\nhorizon_ms=100\nrebalance = on 500 0.1 2\n";
        let spec = ScenarioSpec::from_text(text).expect("legacy form");
        assert!(spec.rebalance.enabled);
        assert!((spec.rebalance.ewma_alpha - 1.0).abs() < 1e-12);
        assert!(!spec.rebalance.warm_start);
    }

    #[test]
    fn parses_comments_blanks_and_defaults() {
        let text = "# hello\n\nname = tiny\nnodes = 2\ntasks = 4\nhorizon_ms = 1000\n";
        let spec = ScenarioSpec::from_text(text).expect("parse");
        assert_eq!(spec.name, "tiny");
        assert_eq!(spec.nodes, 2);
        // Unspecified fields keep the ScenarioSpec::new defaults.
        assert_eq!(spec.policy, PolicyKind::WorstFit);
        assert!(!spec.rebalance.enabled);
        assert!(spec.churn.is_none());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(
            ScenarioSpec::from_text("nodes = 2").is_err(),
            "missing keys"
        );
        assert!(
            ScenarioSpec::from_text("name=x\nnodes=2\ntasks=1\nhorizon_ms=1\nwat = 1").is_err()
        );
        assert!(ScenarioSpec::from_text("name=x\nnodes=two\ntasks=1\nhorizon_ms=1").is_err());
        assert!(
            ScenarioSpec::from_text("name=x\nnodes=2\ntasks=1\nhorizon_ms=1\nmix = warp 1")
                .is_err()
        );
        assert!(ScenarioSpec::from_text("just some words").is_err());
    }

    #[test]
    fn domain_invalid_values_error_instead_of_panicking() {
        let base = "name=x\ntasks=1\nhorizon_ms=100\n";
        for bad in [
            "nodes = 0",
            "nodes = 2\nulub = 1.5",
            "nodes = 2\nulub = -0.1",
            "nodes = 2\nheadroom = 0.5",
            "nodes = 2\nsampling_ms = 0",
            "nodes = 2\nrebalance = on 0 0.05 4",
            "nodes = 2\nrebalance = on 500 -1 4",
            "nodes = 2\nmix = periodic_rt 1 2 0",
            "nodes = 2\nmix = hungry_rt 1 2 6 0",
            "nodes = 2\nmix = video25 0",
            "nodes = 2\nmix = video25 -3",
            "nodes = 2\nrebalance = on 500 0.1 2 1.5 warm",
            "nodes = 2\nrebalance = on 500 0.1 2 0.5 tepid",
            "nodes = 2\nrebalance = on 500 0.1 2 0.5",
            "nodes = 2\nvm = 3 10 2",
            "nodes = 2\nvm = 3 10 0 video25",
            "nodes = 2\nvm = 20 10 1 video25",
            "nodes = 2\nvm = 3 10 1 warp",
            "nodes = 2\nvm = 3 10 1 periodic_rt 0 40",
            "nodes = 2\nvm = 3 10 elastic",
            "nodes = 2\nvm = 3 10 elastique 2 video25",
            "nodes = 2\nvm = 3 10 2 video25 +",
            "nodes = 2\nvm = 3 10 2 video25 + 0 mp3",
            "nodes = 2\nvm = 3 10 2 video25 + 1",
            "nodes = 2\nvm = 3 10 elastic 1 video25 + 1 warp",
            "nodes = 2\nnode_share = on 0.5",
            "nodes = 2\nnode_share = maybe 0.5 0.95",
            "nodes = 2\nnode_share = on 0 0.95",
            "nodes = 2\nnode_share = on 0.9 0.5",
            "nodes = 2\nnode_share = on 0.5 1.5",
            "nodes = 2\nphase = 1000 500 0 4 all video25 1",
            "nodes = 2\nphase = 1000 2000 1500 4 all video25 1",
            "nodes = 2\nphase = 1000 2000 0 0 all video25 1",
            "nodes = 2\nphase = 1000 2000 0 4 all",
            "nodes = 2\nphase = 1000 2000 0 4 all video25 0",
            "nodes = 2\nphase = 1000 2000 0 4 all video25 1 +",
            "nodes = 2\nphase = 1000 2000 0 4 somewhere video25 1",
        ] {
            let text = format!("{base}{bad}");
            assert!(
                ScenarioSpec::from_text(&text).is_err(),
                "accepted invalid input: {bad:?}"
            );
        }
    }

    #[test]
    fn non_finite_headroom_and_pressure_name_the_finite_rule() {
        let head = "name=x\nnodes=2\ntasks=1\nhorizon_ms=100\n";
        for (line, rule) in [
            (
                "headroom = inf",
                "headroom inf must be finite and at least 1",
            ),
            (
                "headroom = NaN",
                "headroom NaN must be finite and at least 1",
            ),
            (
                "rebalance = on 500 inf 2",
                "rebalance pressure inf must be finite and non-negative",
            ),
            (
                "rebalance = on 500 NaN 2",
                "rebalance pressure NaN must be finite and non-negative",
            ),
        ] {
            let err = ScenarioSpec::from_text(&format!("{head}{line}\n")).expect_err(line);
            assert_eq!(err, rule, "{line}");
        }
    }

    /// What `from_text` says about the four-line scenario plus `line`,
    /// after checking that `build` — the same scenario through the
    /// builders — panics with exactly that text.
    fn refusal(line: &str, build: fn(ScenarioSpec) -> ScenarioSpec) -> String {
        let text = format!("name = x\nnodes = 2\ntasks = 4\nhorizon_ms = 500\n{line}\n");
        let err = ScenarioSpec::from_text(&text).expect_err(line);
        let base = ScenarioSpec::new("x", 2, 4, Dur::ms(500));
        let panic = std::panic::catch_unwind(|| build(base)).expect_err("builder accepted it");
        assert_eq!(panic.downcast_ref::<String>(), Some(&err));
        err
    }

    #[test]
    fn a_mix_job_cost_above_its_period_is_refused_not_planned() {
        let err = refusal("mix = periodic_rt 1 60 50", |spec| {
            spec.with_mix(TaskMix::new(vec![(
                TaskKind::PeriodicRt {
                    wcet: Dur::ms(60),
                    period: Dur::ms(50),
                },
                1.0,
            )]))
        });
        assert!(err.contains("at most its period (C=60"), "{err}");
    }

    #[test]
    fn a_hungry_real_cost_above_its_period_is_refused_not_planned() {
        let err = refusal("mix = hungry_rt 1 60 70 50", |spec| {
            spec.with_mix(TaskMix::new(vec![(
                TaskKind::HungryRt {
                    nominal_wcet: Dur::ms(60),
                    wcet: Dur::ms(70),
                    period: Dur::ms(50),
                },
                1.0,
            )]))
        });
        assert!(err.contains("at most its period (C=60"), "{err}");
    }

    #[test]
    fn a_guest_job_cost_above_its_period_is_refused_not_spawned() {
        let err = refusal("vm = 5 10 1 periodic_rt 60 50", |spec| {
            let kind = TaskKind::PeriodicRt {
                wcet: Dur::ms(60),
                period: Dur::ms(50),
            };
            spec.with_vm(VmSpec::uniform(Dur::ms(5), Dur::ms(10), 1, kind))
        });
        assert!(err.contains("at most its period (C=60"), "{err}");
    }

    #[test]
    fn a_zero_hog_chunk_is_refused_not_spawned() {
        let err = refusal("overload = 100 300 1 0 all", |spec| {
            spec.with_overload(OverloadWindow {
                start: Dur::ms(100),
                end: Dur::ms(300),
                hogs_per_node: 1,
                chunk: Dur::ZERO,
                nodes: NodeFilter::All,
            })
        });
        assert_eq!(err, "overload hog chunk must be positive");
    }

    #[test]
    fn a_nanosecond_rebalance_period_is_refused_not_allocated() {
        let err = refusal("rebalance = on 0.000001 0.1 2", |spec| {
            spec.with_rebalance(RebalanceSpec {
                enabled: true,
                period: Dur::ns(1),
                pressure: 0.1,
                max_moves: 2,
                ..RebalanceSpec::default()
            })
        });
        assert_eq!(
            err,
            "rebalance period 1ns cuts the 500.000ms horizon into more than 100000 epochs"
        );
        // The reproduced one-liner: 10^11 boundaries before the rule.
        let head = "name=x\nnodes=2\ntasks=1\nhorizon_ms=100000\n";
        let on = format!("{head}rebalance = on 0.000001 0.1 2\n");
        let err = ScenarioSpec::from_text(&on).expect_err("a 1 ns epoch grid");
        assert!(err.contains("more than 100000 epochs"), "{err}");
        // Node-share re-bounding rides the same grid.
        let shared = format!("{head}rebalance = off 0.000001 0.1 2\nnode_share = on 0.5 0.95\n");
        let err = ScenarioSpec::from_text(&shared).expect_err("a 1 ns epoch grid");
        assert!(err.contains("more than 100000 epochs"), "{err}");
        // Off the grid the period is inert, and the largest grid allowed
        // is still a grid.
        let off = format!("{head}rebalance = off 0.000001 0.1 2\n");
        let spec = ScenarioSpec::from_text(&off).expect("no grid in force");
        assert_eq!(ClusterRunner::epoch_ends(&spec).len(), 1);
        let most = format!("{head}rebalance = on 1 0.1 2\n");
        let spec = ScenarioSpec::from_text(&most).expect("exactly MAX_EPOCHS");
        assert_eq!(ClusterRunner::epoch_ends(&spec).len(), 100_000);
    }

    #[test]
    fn a_phase_that_targets_no_node_is_refused_not_journalled() {
        let err = refusal("phase = 100 400 0 2 first:0 periodic_rt 1 2 40", |spec| {
            spec.with_phase(TrafficPhase {
                start: Dur::ms(100),
                end: Dur::ms(400),
                ramp: Dur::ZERO,
                tasks: 2,
                mix: TaskMix::new(vec![(
                    TaskKind::PeriodicRt {
                        wcet: Dur::ms(2),
                        period: Dur::ms(40),
                    },
                    1.0,
                )]),
                nodes: NodeFilter::First(0),
            })
        });
        assert_eq!(err, "phase node filter first:0 matches none of the 2 nodes");
        // An overload window that hits no node injects nothing: harmless.
        let idle = "name=x\nnodes=2\ntasks=1\nhorizon_ms=500\noverload = 100 300 1 5 first:0\n";
        ScenarioSpec::from_text(idle).expect("an idle window is valid");
    }

    #[test]
    fn fractional_durations_round_trip() {
        let spec = ScenarioSpec::new("f", 1, 1, Dur::from_ms_f64(1234.5678)).with_arrivals(
            ArrivalSchedule::Staggered {
                gap: Dur::from_us_f64(333.25),
            },
        );
        let parsed = ScenarioSpec::from_text(&spec.to_text()).expect("parse");
        assert_eq!(parsed.horizon, spec.horizon);
        match parsed.arrivals {
            ArrivalSchedule::Staggered { gap } => {
                assert_eq!(gap, Dur::from_us_f64(333.25));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
