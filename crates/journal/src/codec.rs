//! The decision stream's one text form, in the `key = value` style of
//! [`ScenarioSpec::to_text`]. The grammar ([`entries`], [`push_block`],
//! [`push_admission`], [`push_records`]) is shared by the journal file
//! below and `selftune-distrib`'s frames and checkpoint files, and
//! [`record_from_line`] is the one place a decision is decoded and its
//! ids checked against the scenario.
//!
//! ```text
//! # selftune decision journal
//! version = 1
//! seed = 42
//! threads = 2
//! admission = 10 2 0 3 1 0
//! scenario_begin
//! # selftune fleet scenario
//! name = rebalance-demo
//! ...
//! scenario_end
//! summary_begin
//! scenario,rebalance-demo
//! ...
//! summary_end
//! vm_admission = at=0 id=0 demand=0.3 node=1 retries=0 spare=0
//! task_admission = at=100000000 id=0 demand=0.0825 node=0 retries=0 spare=0
//! kill = at=1200000000 node=0 id=7
//! share_grant = at=250000000 node=1 vm=0 demand=0.21 target=0.26 granted=0.26 compressed=0 clamp=none pending=- avail=0.9
//! compression = at=750000000 epoch=0 node=0 count=3
//! node_rebound = at=750000000 epoch=0 node=0 prev=0.9 bound=0.95 demand=0.97 reserved=0.88 miss_rate=0.2 compressions=4
//! rebalance = at=750000000 epoch=0 moves=1 failed=0 snap=0:0.31:0.97,1:0.02:0.41
//! migration = at=750000000 epoch=0 seq=0 id=4 vm=0 from=0 to=1 demand=0.14 dest=0.55 warm=2000000:40000000 guest_warm=-
//! ```
//!
//! Instants and durations are written as whole nanoseconds (exact),
//! floats with the shortest round-tripping decimal form, and absent
//! values as `-`. The embedded scenario and summary blocks are verbatim;
//! everything round-trips exactly: `to_text(from_text(t)) == t` for any
//! `t` produced by [`Journal::to_text`] — a property test enforces it.

use std::str::FromStr;

use selftune_cluster::node::WarmStart;
use selftune_cluster::{AdmissionStats, ClusterRunner, FleetEvent, NodeSnap, ScenarioSpec};
use selftune_core::share::ClampReason;
use selftune_simcore::time::{Dur, Time};

use crate::record::Journal;

/// The journal format version this crate writes and understands.
pub const FORMAT_VERSION: u32 = 1;

/// One entry of the line grammar the journal, the replication frames and
/// the checkpoint files share (see [`entries`]).
pub enum Entry<'a> {
    /// A `<name>_begin` … `<name>_end` block: its name (`scenario`,
    /// `summary`, `journal`) and every line between the delimiters,
    /// verbatim and newline-terminated.
    Block(&'a str, String),
    /// A `key = value` line: the trimmed key, the trimmed value, and the
    /// whole trimmed line (a record line parses from that).
    Pair(&'a str, &'a str, &'a str),
}

impl Entry<'_> {
    /// The error for an entry the `format` being parsed has no use for.
    pub fn unexpected(&self, format: &str) -> String {
        match self {
            Entry::Block(name, _) => format!("unknown {format} block: {name:?}"),
            Entry::Pair(key, ..) => format!("unknown {format} key: {key:?}"),
        }
    }
}

/// Walks `text` entry by entry, skipping blank lines and `#` comments.
/// Anything that is neither a `key = value` line nor a terminated block
/// is the iterator's (named) error.
pub fn entries(text: &str) -> impl Iterator<Item = Result<Entry<'_>, String>> {
    let mut lines = text.lines();
    std::iter::from_fn(move || loop {
        let line = lines.next()?.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((key, value)) = line.split_once('=') {
            return Some(Ok(Entry::Pair(key.trim(), value.trim(), line)));
        }
        let Some(name) = line.strip_suffix("_begin") else {
            return Some(Err(format!("expected `key = value`, got {line:?}")));
        };
        let end = format!("{name}_end");
        let mut body = String::new();
        for inner in lines.by_ref() {
            if inner.trim() == end {
                return Some(Ok(Entry::Block(name, body)));
            }
            body.push_str(inner);
            body.push('\n');
        }
        return Some(Err(format!("unterminated {name} block (missing `{end}`)")));
    })
}

/// Appends `body` as a `<name>_begin` … `<name>_end` block.
pub fn push_block(out: &mut String, name: &str, body: &str) {
    out.push_str(name);
    out.push_str("_begin\n");
    out.push_str(body);
    if !body.ends_with('\n') {
        out.push('\n');
    }
    out.push_str(name);
    out.push_str("_end\n");
}

/// Appends the `admission = …` header line (six counters).
pub fn push_admission(out: &mut String, a: &AdmissionStats) {
    out.push_str(&format!(
        "admission = {} {} {} {} {} {}\n",
        a.admitted, a.rejected, a.best_effort, a.migrations, a.vms_admitted, a.vms_rejected,
    ));
}

/// Parses the value of an `admission = …` line, naming a wrong field
/// count or the first malformed counter.
pub fn parse_admission(value: &str) -> Result<AdmissionStats, String> {
    let parts: Vec<&str> = value.split_whitespace().collect();
    let [adm, rej, be, mig, vadm, vrej] = parts.as_slice() else {
        return Err(format!("admission needs 6 fields: {value:?}"));
    };
    Ok(AdmissionStats {
        admitted: parse_int(adm, "admitted")?,
        rejected: parse_int(rej, "rejected")?,
        best_effort: parse_int(be, "best_effort")?,
        migrations: parse_int(mig, "migrations")?,
        vms_admitted: parse_int(vadm, "vms_admitted")?,
        vms_rejected: parse_int(vrej, "vms_rejected")?,
    })
}

/// Appends one [`record_line`] per decision.
pub fn push_records(out: &mut String, records: &[FleetEvent]) {
    for r in records {
        out.push_str(&record_line(r));
        out.push('\n');
    }
}

/// Parses an integer header or field value (`bad <what>: "<s>"` if not).
pub fn parse_int<T: FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad {what}: {s:?}"))
}

/// Parses a `version = N` value and demands the one version this build
/// reads (`what` names the format: journal, wire, checkpoint).
pub fn parse_version(value: &str, what: &str, supported: u32) -> Result<(), String> {
    match parse_int::<u32>(value, &format!("{what} version"))? {
        v if v == supported => Ok(()),
        v => Err(format!(
            "unsupported {what} version {v} (this build reads {supported})"
        )),
    }
}

/// Parses an instant written as whole nanoseconds.
pub fn parse_at(s: &str) -> Result<Time, String> {
    Ok(Time::from_ns(parse_int(s, "instant (ns)")?))
}

/// `-` for an absent value, `show` of it otherwise (see [`parse_opt`]).
fn opt<T>(v: &Option<T>, show: impl FnOnce(&T) -> String) -> String {
    v.as_ref().map_or_else(|| "-".to_owned(), show)
}

/// `-` for an empty list, its `show`n items joined by `sep` otherwise.
fn list<T>(items: &[T], sep: &str, show: impl Fn(&T) -> String) -> String {
    if items.is_empty() {
        return "-".to_owned();
    }
    items.iter().map(show).collect::<Vec<_>>().join(sep)
}

fn warm_body(w: &WarmStart) -> String {
    format!("{}:{}", w.budget.as_ns(), w.period.as_ns())
}

/// Serialises one decision to its single-line text form — the line the
/// journal file, the replication frames and the checkpoint files all
/// carry.
pub fn record_line(r: &FleetEvent) -> String {
    match r {
        FleetEvent::TaskAdmission {
            at,
            fleet_id: id,
            demand,
            node,
            retries,
            best_spare,
        }
        | FleetEvent::VmAdmission {
            at,
            fleet_vm_id: id,
            demand,
            node,
            retries,
            best_spare,
        } => format!(
            "{} = at={} id={id} demand={demand} node={} retries={retries} spare={best_spare}",
            if matches!(r, FleetEvent::VmAdmission { .. }) {
                "vm_admission"
            } else {
                "task_admission"
            },
            at.as_ns(),
            opt(node, usize::to_string),
        ),
        FleetEvent::Kill { at, node, fleet_id } => {
            format!("kill = at={} node={node} id={fleet_id}", at.as_ns())
        }
        FleetEvent::ShareGrant {
            at,
            node,
            fleet_vm_id,
            demand,
            target,
            granted,
            compressed,
            clamp,
            pending,
            available,
        } => format!(
            "share_grant = at={} node={node} vm={fleet_vm_id} demand={demand} target={target} \
             granted={granted} compressed={} clamp={} pending={} avail={available}",
            at.as_ns(),
            u8::from(*compressed),
            clamp.name(),
            opt(pending, |(share, count)| format!("{share}:{count}")),
        ),
        FleetEvent::NodeRebound {
            at,
            epoch,
            node,
            prev,
            bound,
            demand,
            reserved,
            miss_rate,
            compressions,
        } => format!(
            "node_rebound = at={} epoch={epoch} node={node} prev={prev} bound={bound} \
             demand={demand} reserved={reserved} miss_rate={miss_rate} compressions={compressions}",
            at.as_ns()
        ),
        FleetEvent::Compression {
            at,
            epoch,
            node,
            count,
        } => format!(
            "compression = at={} epoch={epoch} node={node} count={count}",
            at.as_ns()
        ),
        FleetEvent::Rebalance {
            at,
            epoch,
            snapshot,
            moves,
            failed,
        } => format!(
            "rebalance = at={} epoch={epoch} moves={moves} failed={failed} snap={}",
            at.as_ns(),
            list(snapshot, ",", |s| format!(
                "{}:{}:{}",
                s.node, s.pressure, s.utilisation
            )),
        ),
        FleetEvent::Migration {
            at,
            epoch,
            seq,
            fleet_id,
            vm,
            from,
            to,
            demand,
            dest_reserved_after,
            warm,
            guest_warm,
        } => format!(
            "migration = at={} epoch={epoch} seq={seq} id={fleet_id} vm={} from={from} to={to} \
             demand={demand} dest={dest_reserved_after} warm={} guest_warm={}",
            at.as_ns(),
            u8::from(*vm),
            opt(warm, warm_body),
            list(guest_warm, ";", |(id, w)| format!("{id}:{}", warm_body(w))),
        ),
    }
}

/// The id ranges of one scenario: what a decoded record may name. A
/// record pointing outside them would index past the runner's node, plan
/// or epoch tables on replay, so decoding rejects it instead.
#[derive(Clone, Copy, Debug)]
pub struct IdBounds {
    nodes: usize,
    tasks: usize,
    vms: usize,
    epochs: usize,
}

impl IdBounds {
    /// The ranges `spec` admits: node ids, flat fleet task ids, fleet VM
    /// ids and decision-epoch indices.
    pub fn of(spec: &ScenarioSpec) -> IdBounds {
        IdBounds {
            nodes: spec.nodes,
            tasks: spec.flat_tasks(),
            vms: spec.vms.len(),
            epochs: ClusterRunner::epoch_ends(spec).len() - 1,
        }
    }

    /// Epoch boundaries of the scenario's grid, the horizon included: one
    /// more than its decision epochs.
    pub fn boundaries(&self) -> usize {
        self.epochs + 1
    }
}

fn bounded(s: &str, what: &str, limit: usize) -> Result<usize, String> {
    match parse_int(s, what)? {
        v if v < limit => Ok(v),
        v => Err(format!(
            "{what} {v} out of range (the scenario has {limit})"
        )),
    }
}

/// Field accessor over one record line's `k=v` tokens: every field must
/// be consumed exactly once and in any order.
struct Fields<'a> {
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Fields<'a> {
    fn parse(body: &'a str) -> Result<Fields<'a>, String> {
        let mut pairs = Vec::new();
        for tok in body.split_whitespace() {
            let (k, v) = tok
                .split_once('=')
                .ok_or_else(|| format!("expected `field=value`, got {tok:?}"))?;
            pairs.push((k, v));
        }
        Ok(Fields { pairs })
    }

    fn take(&mut self, key: &str) -> Result<&'a str, String> {
        let i = self
            .pairs
            .iter()
            .position(|&(k, _)| k == key)
            .ok_or_else(|| format!("missing field `{key}`"))?;
        Ok(self.pairs.swap_remove(i).1)
    }

    fn finish(self) -> Result<(), String> {
        match self.pairs.first() {
            None => Ok(()),
            Some((k, _)) => Err(format!("unknown field `{k}`")),
        }
    }
}

fn parse_f64(s: &str, what: &str) -> Result<f64, String> {
    match s.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(v),
        _ => Err(format!("bad {what}: {s:?}")),
    }
}

/// `-` for absent, anything else through `parse`.
fn parse_opt<T>(
    s: &str,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Result<Option<T>, String> {
    if s == "-" {
        Ok(None)
    } else {
        parse(s).map(Some)
    }
}

fn parse_bool01(s: &str, what: &str) -> Result<bool, String> {
    match s {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("bad {what} (want 0/1): {s:?}")),
    }
}

fn parse_warm_body(s: &str) -> Result<WarmStart, String> {
    let (b, p) = s
        .split_once(':')
        .ok_or_else(|| format!("bad warm grant (want budget_ns:period_ns): {s:?}"))?;
    Ok(WarmStart {
        budget: Dur::ns(parse_int(b, "warm budget (ns)")?),
        period: Dur::ns(parse_int(p, "warm period (ns)")?),
    })
}

/// Parses one decision from its single-line text form (the inverse of
/// [`record_line`]) and checks every node, task, VM and epoch it names
/// against `ids` — the one decode path of journal files, replication
/// frames and checkpoint files.
///
/// # Errors
///
/// Names the first offence and quotes the line: unknown kinds,
/// missing/duplicate/extra fields, malformed values, ids outside the
/// scenario — nothing is silently defaulted.
pub fn record_from_line(line: &str, ids: &IdBounds) -> Result<FleetEvent, String> {
    decode(line, ids).map_err(|e| format!("{e} in {line:?}"))
}

fn decode(line: &str, ids: &IdBounds) -> Result<FleetEvent, String> {
    let (kind, body) = line.split_once('=').ok_or("expected `key = value`")?;
    let mut f = Fields::parse(body)?;
    let at = parse_at(f.take("at")?)?;
    let rec = match kind.trim() {
        kind @ ("task_admission" | "vm_admission") => {
            let vm = kind == "vm_admission";
            let id = f.take("id")?;
            let demand = parse_f64(f.take("demand")?, "demand")?;
            let node = parse_opt(f.take("node")?, |s| bounded(s, "node", ids.nodes))?;
            let retries = parse_int(f.take("retries")?, "retries")?;
            let best_spare = parse_f64(f.take("spare")?, "spare")?;
            if vm {
                FleetEvent::VmAdmission {
                    at,
                    fleet_vm_id: bounded(id, "vm id", ids.vms)?,
                    demand,
                    node,
                    retries,
                    best_spare,
                }
            } else {
                FleetEvent::TaskAdmission {
                    at,
                    fleet_id: bounded(id, "task id", ids.tasks)?,
                    demand,
                    node,
                    retries,
                    best_spare,
                }
            }
        }
        "kill" => FleetEvent::Kill {
            at,
            node: bounded(f.take("node")?, "node", ids.nodes)?,
            fleet_id: bounded(f.take("id")?, "task id", ids.tasks)?,
        },
        "share_grant" => FleetEvent::ShareGrant {
            at,
            node: bounded(f.take("node")?, "node", ids.nodes)?,
            fleet_vm_id: bounded(f.take("vm")?, "vm id", ids.vms)?,
            demand: parse_f64(f.take("demand")?, "demand")?,
            target: parse_f64(f.take("target")?, "target")?,
            granted: parse_f64(f.take("granted")?, "granted")?,
            compressed: parse_bool01(f.take("compressed")?, "compressed")?,
            clamp: {
                let s = f.take("clamp")?;
                ClampReason::from_name(s).ok_or_else(|| format!("unknown clamp reason: {s:?}"))?
            },
            pending: parse_opt(f.take("pending")?, |s| {
                let (share, count) = s
                    .split_once(':')
                    .ok_or_else(|| format!("bad pending (want share:count): {s:?}"))?;
                Ok((
                    parse_f64(share, "pending share")?,
                    parse_int(count, "pending count")?,
                ))
            })?,
            available: parse_f64(f.take("avail")?, "avail")?,
        },
        "node_rebound" => FleetEvent::NodeRebound {
            at,
            epoch: bounded(f.take("epoch")?, "epoch", ids.epochs)?,
            node: bounded(f.take("node")?, "node", ids.nodes)?,
            prev: parse_f64(f.take("prev")?, "prev bound")?,
            bound: parse_f64(f.take("bound")?, "bound")?,
            demand: parse_f64(f.take("demand")?, "demand")?,
            reserved: parse_f64(f.take("reserved")?, "reserved")?,
            miss_rate: parse_f64(f.take("miss_rate")?, "miss rate")?,
            compressions: parse_int(f.take("compressions")?, "compressions")?,
        },
        "compression" => FleetEvent::Compression {
            at,
            epoch: bounded(f.take("epoch")?, "epoch", ids.epochs)?,
            node: bounded(f.take("node")?, "node", ids.nodes)?,
            count: parse_int(f.take("count")?, "count")?,
        },
        "rebalance" => FleetEvent::Rebalance {
            at,
            epoch: bounded(f.take("epoch")?, "epoch", ids.epochs)?,
            moves: parse_int(f.take("moves")?, "moves")?,
            failed: parse_int(f.take("failed")?, "failed")?,
            snapshot: parse_opt(f.take("snap")?, |s| {
                s.split(',')
                    .map(|entry| {
                        let parts: Vec<&str> = entry.split(':').collect();
                        let [node, pressure, utilisation] = parts.as_slice() else {
                            return Err(format!(
                                "bad snapshot entry (want node:pressure:util): {entry:?}"
                            ));
                        };
                        Ok(NodeSnap {
                            node: bounded(node, "snapshot node", ids.nodes)?,
                            pressure: parse_f64(pressure, "snapshot pressure")?,
                            utilisation: parse_f64(utilisation, "snapshot utilisation")?,
                        })
                    })
                    .collect()
            })?
            .unwrap_or_default(),
        },
        "migration" => {
            let vm = parse_bool01(f.take("vm")?, "vm flag")?;
            FleetEvent::Migration {
                at,
                epoch: bounded(f.take("epoch")?, "epoch", ids.epochs)?,
                seq: parse_int(f.take("seq")?, "seq")?,
                fleet_id: if vm {
                    bounded(f.take("id")?, "vm id", ids.vms)?
                } else {
                    bounded(f.take("id")?, "task id", ids.tasks)?
                },
                vm,
                from: bounded(f.take("from")?, "source node", ids.nodes)?,
                to: bounded(f.take("to")?, "destination node", ids.nodes)?,
                demand: parse_f64(f.take("demand")?, "demand")?,
                dest_reserved_after: parse_f64(f.take("dest")?, "dest booking")?,
                warm: parse_opt(f.take("warm")?, parse_warm_body)?,
                guest_warm: parse_opt(f.take("guest_warm")?, |s| {
                    s.split(';')
                        .map(|entry| {
                            let (id, grant) = entry.split_once(':').ok_or_else(|| {
                                format!("bad guest warm entry (want id:budget:period): {entry:?}")
                            })?;
                            Ok((parse_int(id, "guest id")?, parse_warm_body(grant)?))
                        })
                        .collect()
                })?
                .unwrap_or_default(),
            }
        }
        other => return Err(format!("unknown record kind: {other:?}")),
    };
    f.finish()?;
    Ok(rec)
}

impl Journal {
    /// Serialises the journal to the line-oriented text format.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "# selftune decision journal\nversion = {FORMAT_VERSION}\nseed = {}\nthreads = {}\n",
            self.seed, self.threads
        );
        push_admission(&mut out, &self.admission);
        push_block(&mut out, "scenario", &self.scenario.to_text());
        push_block(&mut out, "summary", &self.summary);
        push_records(&mut out, &self.records);
        out
    }

    /// Parses a journal from the text written by [`Journal::to_text`].
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first offending line:
    /// unknown keys or record kinds, malformed fields, records naming a
    /// node, task, VM or epoch the scenario does not have, unterminated
    /// scenario/summary blocks, and missing required headers are all
    /// rejected rather than silently defaulted — a truncated journal must
    /// never replay as if it were complete, and a corrupt one must never
    /// reach the runner.
    pub fn from_text(text: &str) -> Result<Journal, String> {
        let (mut version, mut seed, mut threads, mut admission) = (None, None, None, None);
        let (mut scenario, mut summary) = (None, None);
        let mut record_lines = Vec::new();
        for entry in entries(text) {
            match entry? {
                Entry::Block("scenario", body) => scenario = Some(ScenarioSpec::from_text(&body)?),
                Entry::Block("summary", body) => summary = Some(body),
                Entry::Pair("version", v, _) => {
                    version = Some(parse_version(v, "journal", FORMAT_VERSION)?)
                }
                Entry::Pair("seed", v, _) => seed = Some(parse_int(v, "seed")?),
                Entry::Pair("threads", v, _) => threads = Some(parse_int(v, "threads")?),
                Entry::Pair("admission", v, _) => admission = Some(parse_admission(v)?),
                Entry::Pair(_, _, line) => record_lines.push(line),
                block => return Err(block.unexpected("journal")),
            }
        }
        version.ok_or("missing required key `version`")?;
        let scenario = scenario.ok_or("missing scenario block")?;
        // Records decode last: their ids are checked against the scenario,
        // wherever in the file its block stood.
        let ids = IdBounds::of(&scenario);
        let records = record_lines
            .into_iter()
            .map(|line| record_from_line(line, &ids))
            .collect::<Result<_, _>>()?;
        Ok(Journal {
            scenario,
            seed: seed.ok_or("missing required key `seed`")?,
            threads: threads.ok_or("missing required key `threads`")?,
            admission: admission.ok_or("missing required key `admission`")?,
            summary: summary.ok_or("missing summary block")?,
            records,
        })
    }
}

#[cfg(test)]
mod tests {
    use selftune_cluster::ScenarioSpec;

    use crate::record::Journal;

    fn demo_journal() -> Journal {
        let spec =
            ScenarioSpec::skewed_overload_demo(3, 9).with_rebalance(ScenarioSpec::demo_rebalance());
        Journal::record(2, &spec, 7).1
    }

    #[test]
    fn text_round_trip_is_exact() {
        let journal = demo_journal();
        let text = journal.to_text();
        let parsed = Journal::from_text(&text).expect("parse");
        assert_eq!(parsed, journal);
        // The canonical form is a fixed point of the round trip.
        assert_eq!(parsed.to_text(), text);
        assert!(
            journal.records.len() > 9,
            "demo journal should hold admissions + epoch records, got {}",
            journal.records.len()
        );
    }

    #[test]
    fn truncation_anywhere_is_rejected_or_parses_strictly_fewer_records() {
        // Cutting the journal off at any line boundary must never produce
        // a journal that silently claims to be the full run.
        let journal = demo_journal();
        let text = journal.to_text();
        let lines: Vec<&str> = text.lines().collect();
        for keep in 0..lines.len() {
            let cut: String = lines[..keep].iter().map(|l| format!("{l}\n")).collect();
            match Journal::from_text(&cut) {
                Err(_) => {}
                Ok(parsed) => {
                    assert!(
                        parsed.records.len() < journal.records.len(),
                        "truncated at line {keep} but parsed as complete"
                    );
                }
            }
        }
    }

    #[test]
    fn corrupt_lines_are_rejected_with_an_error() {
        let valid = demo_journal().to_text();
        let corruptions: &[(&str, &str)] = &[
            // Bad header values.
            ("version = 1", "version = 99"),
            ("version = 1", "version = one"),
            ("seed = 7", "seed = -1"),
            ("threads = 2", "threads = two"),
            // Admission header must keep its 6 counters.
            ("admission = ", "admission = 1 2 3\n# was: "),
            // Unterminated embedded blocks.
            ("scenario_end", "# scenario_end"),
            ("summary_end", "# summary_end"),
        ];
        for (from, to) in corruptions {
            assert!(
                valid.contains(from),
                "corruption template {from:?} not present in journal text"
            );
            let corrupt = valid.replacen(from, to, 1);
            assert!(
                Journal::from_text(&corrupt).is_err(),
                "accepted corrupt journal ({from:?} -> {to:?})"
            );
        }
        // Field-level corruption of record lines.
        for bad in [
            "task_admission = at=0 id=0 demand=0.1 node=0 retries=0",  // missing field
            "task_admission = at=0 id=0 demand=0.1 node=0 retries=0 spare=0 extra=1",
            "task_admission = at=zero id=0 demand=0.1 node=0 retries=0 spare=0",
            "task_admission = at=0 id=0 demand=nan node=0 retries=0 spare=0",
            "share_grant = at=0 node=0 vm=0 demand=0.1 target=0.1 granted=0.1 compressed=2 clamp=none pending=- avail=0.9",
            "share_grant = at=0 node=0 vm=0 demand=0.1 target=0.1 granted=0.1 compressed=0 clamp=squeeze pending=- avail=0.9",
            "share_grant = at=0 node=0 vm=0 demand=0.1 target=0.1 granted=0.1 compressed=0 clamp=none pending=0.2 avail=0.9",
            "node_rebound = at=0 epoch=0 node=0 prev=0.9 bound=0.95 demand=0.97 reserved=0.88 miss_rate=0.2", // missing field
            "node_rebound = at=0 epoch=0 node=0 prev=0.9 bound=inf demand=0.97 reserved=0.88 miss_rate=0.2 compressions=4",
            "rebalance = at=0 epoch=0 moves=0 failed=0 snap=0:0.1",    // short snap entry
            "migration = at=0 epoch=0 seq=0 id=0 vm=3 from=0 to=1 demand=0.1 dest=0.1 warm=- guest_warm=-",
            "migration = at=0 epoch=0 seq=0 id=0 vm=0 from=0 to=1 demand=0.1 dest=0.1 warm=12 guest_warm=-",
            "teleport = at=0 id=0",                                    // unknown kind
            "just some words",
        ] {
            let corrupt = format!("{valid}{bad}\n");
            assert!(
                Journal::from_text(&corrupt).is_err(),
                "accepted corrupt record line: {bad:?}"
            );
        }
    }

    #[test]
    fn composed_plane_journal_is_thread_invariant_and_replays() {
        // Diurnal wave + flash crowd with every control level on: elastic
        // VMs, node re-bounding and the rebalancer. The journal text must
        // be byte-identical at 1, 2 and 8 worker threads (modulo the
        // informational `threads` header), must round-trip, and its replay
        // must reproduce the recorded aggregates byte for byte.
        let mut spec = ScenarioSpec::diurnal_demo(4, 8)
            .with_rebalance(ScenarioSpec::diurnal_rebalance())
            .with_node_share(ScenarioSpec::diurnal_node_share());
        for vm in &mut spec.vms {
            vm.elastic = true;
        }
        let mut texts = Vec::new();
        let mut summaries = Vec::new();
        for threads in [1usize, 2, 8] {
            let (live, mut journal) = Journal::record(threads, &spec, 42);
            journal.threads = 1; // the only field allowed to differ
            texts.push(journal.to_text());
            summaries.push(live.summary_csv());
        }
        assert_eq!(texts[0], texts[1], "journal text differs at 2 threads");
        assert_eq!(texts[0], texts[2], "journal text differs at 8 threads");
        assert_eq!(summaries[0], summaries[1]);
        assert_eq!(summaries[0], summaries[2]);
        assert!(
            texts[0].contains("node_rebound = "),
            "composed run should re-bound at least one node"
        );
        let reloaded = Journal::from_text(&texts[0]).expect("round trip");
        let replayed = crate::replay::Replayer::new(2)
            .verify(&reloaded)
            .expect("replay matches the recorded aggregates");
        assert_eq!(replayed.summary_csv(), summaries[0]);
    }

    #[test]
    fn missing_headers_are_rejected() {
        let valid = demo_journal().to_text();
        for key in ["version", "seed", "threads", "admission"] {
            let broken: String = valid
                .lines()
                .filter(|l| !l.starts_with(key))
                .map(|l| format!("{l}\n"))
                .collect();
            assert!(
                Journal::from_text(&broken).is_err(),
                "accepted journal without `{key}` header"
            );
        }
    }
}
