//! `compare A.json B.json`: two result files under each end-to-end
//! metric's own bound and direction.
//!
//! One row per workload × metric. `worse` means B's median is worse than
//! A's by more than the bound. Where the spread between A's own
//! repetitions (quartile distance over median) already exceeds the
//! bound, the pair cannot resolve a difference of that size and the row
//! says `unresolved`, not `ok` — unless every repetition of B reads
//! better than every repetition of A. Every ratio is printed with its
//! base.
//!
//! The exact simulated values (`catalog::EXACT_GATES`: miss ratio,
//! completions, rejected tasks, thread identity, journal bytes per
//! record) are gated too, each under the issue's own allowance; they have
//! no spread, so they are never `unresolved`. A different
//! `sim_fingerprint` is reported for the reader to act on, and counts as
//! `worse` when both files come from the same commit: then the simulator
//! did not repeat itself.

use crate::catalog::{self, Better, Slack, END_TO_END, EXACT_GATES};
use crate::json::Json;
use crate::stats::quartile_spread;

/// The verdict on one workload × metric pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (or better).
    Ok,
    /// Worse than the base by more than the bound.
    Worse,
    /// A's own spread exceeds the bound: no verdict at this resolution.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `new` against `base` under `bound`. `base_samples` /
/// `new_samples` are the repetitions behind the two medians (may be
/// empty: a single-sample metric has no spread to speak of).
pub fn judge(
    better: Better,
    bound: f64,
    base: f64,
    new: f64,
    base_samples: &[f64],
    new_samples: &[f64],
) -> Verdict {
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    if quartile_spread(base_samples).is_some_and(|s| s > bound) {
        let all_better = !new_samples.is_empty()
            && new_samples
                .iter()
                .all(|n| base_samples.iter().all(|b| sign * (n - b) < 0.0));
        return if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    let worsening = sign * (new - base) / base.abs().max(f64::MIN_POSITIVE);
    if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn samples(metric: &Json) -> Vec<f64> {
    metric
        .get("samples")
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

fn workload<'a>(results: &'a Json, name: &str) -> Option<&'a Json> {
    results
        .get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
}

/// What a comparison found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The printed rows.
    pub lines: Vec<String>,
    /// Rows judged `worse`.
    pub worse: usize,
    /// Rows judged `unresolved`.
    pub unresolved: usize,
    /// Workloads whose `sim_fingerprint` differs between the files.
    pub sim_differs: usize,
}

fn layer_value(w: &Json, metric: &str) -> Option<f64> {
    w.get("per_layer")?.get(metric)?.get("value")?.as_f64()
}

/// How much worse than `base` an exact value may read under `slack`, in
/// the value's own unit. `offered` is the base run's admitted + rejected
/// task count.
pub fn allowance(slack: Slack, base: f64, offered: f64) -> f64 {
    match slack {
        Slack::OfBase(share) => share * base.abs(),
        Slack::Abs(amount) => amount,
        Slack::OfOffered(share) => share * offered,
    }
}

/// Judges one exact simulated value, which has no spread: `worse` when
/// `new` reads worse than `base` by more than `allowance`.
pub fn judge_exact(better: Better, allowance: f64, base: f64, new: f64) -> Verdict {
    let worsening = match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    if worsening > allowance {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Compares result file `b` against base `a`.
///
/// # Errors
///
/// When either document lacks the `workloads` array, or the two differ in
/// size (`smoke` vs full) or seed: those numbers are not comparable.
pub fn compare(a: &Json, b: &Json) -> Result<Outcome, String> {
    let list = a
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("base file has no workloads array")?;
    b.get("workloads")
        .and_then(Json::as_arr)
        .ok_or("second file has no workloads array")?;
    let env = |r: &Json, key: &str| r.get("env").and_then(|e| e.get(key)).cloned();
    if env(a, "smoke") != env(b, "smoke") {
        return Err("one file is a --smoke run and the other is not".to_owned());
    }
    if env(a, "seed") != env(b, "seed") {
        return Err("the two files were run with different seeds".to_owned());
    }
    let commit = env(a, "git_commit");
    let same_commit = commit == env(b, "git_commit")
        && commit
            .as_ref()
            .and_then(Json::as_str)
            .is_some_and(|c| c != "unknown");
    let mut out = Outcome::default();
    out.lines.push(format!(
        "{:<20} {:<24} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "base", "new", "new/base", "bound", "spreadA"
    ));
    for wa in list {
        let name = wa.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(wb) = workload(b, name) else {
            out.lines
                .push(format!("{name:<20} missing from the second file"));
            out.worse += 1;
            continue;
        };
        for m in &END_TO_END {
            let pick = |w: &Json| w.get("end_to_end").and_then(|e| e.get(m.name)).cloned();
            let (Some(ma), Some(mb)) = (pick(wa), pick(wb)) else {
                out.lines.push(format!("{name:<20} {:<24} missing", m.name));
                out.worse += 1;
                continue;
            };
            let (Some(base), Some(new)) = (
                ma.get("value").and_then(Json::as_f64),
                mb.get("value").and_then(Json::as_f64),
            ) else {
                out.lines
                    .push(format!("{name:<20} {:<24} has no value", m.name));
                out.worse += 1;
                continue;
            };
            let (sa, sb) = (samples(&ma), samples(&mb));
            let verdict = judge(m.better, m.bound, base, new, &sa, &sb);
            match verdict {
                Verdict::Worse => out.worse += 1,
                Verdict::Unresolved => out.unresolved += 1,
                Verdict::Ok => {}
            }
            let spread = quartile_spread(&sa).map_or("-".to_owned(), |s| format!("{s:.4}"));
            out.lines.push(format!(
                "{name:<20} {:<24} {base:>14.6} {new:>14.6} {:>9.4} {:>7.3} {spread:>8}  {} ({} is better, base {base:.6} {})",
                m.name,
                new / base,
                m.bound,
                verdict.as_str(),
                m.better.as_str(),
                m.unit,
            ));
        }
        let offered = layer_value(wa, "cluster.plan.admitted").unwrap_or(0.0)
            + layer_value(wa, "cluster.plan.rejected").unwrap_or(0.0);
        for (metric, slack) in EXACT_GATES {
            let (Some(base), Some(new)) = (layer_value(wa, metric), layer_value(wb, metric)) else {
                out.lines
                    .push(format!("{name:<20} {metric:<24} has no value"));
                out.worse += 1;
                continue;
            };
            let m = catalog::per_layer(metric).expect("gates name catalogued metrics");
            let may = allowance(slack, base, offered);
            let verdict = judge_exact(m.better, may, base, new);
            if verdict == Verdict::Worse {
                out.worse += 1;
            }
            out.lines.push(format!(
                "{name:<20} {metric:<24} {base:>14.6} {new:>14.6}  {} (exact {}: new - base {:+.6}, may worsen by {may:.6}, {} is better)",
                verdict.as_str(),
                m.unit,
                new - base,
                m.better.as_str(),
            ));
        }
        let same = wa.get("sim_fingerprint") == wb.get("sim_fingerprint");
        if !same {
            out.sim_differs += 1;
            if same_commit {
                out.worse += 1;
            }
        }
        out.lines.push(format!(
            "{name:<20} {:<24} {}",
            "sim_fingerprint",
            match (same, same_commit) {
                (true, _) => "identical (simulated behaviour unchanged)",
                (false, true) => "DIFFERS within one commit: worse (the simulator did not repeat itself)",
                (false, false) =>
                    "DIFFERS (simulated behaviour changed: compare host_us_per_job, not run_wall_s)",
            }
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_and_direction_decide_worse() {
        let tight = [1.0, 1.01, 0.99, 1.0];
        // Lower is better, 10 % bound.
        assert_eq!(
            judge(Better::Lower, 0.1, 1.0, 1.09, &tight, &[]),
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Lower, 0.1, 1.0, 1.11, &tight, &[]),
            Verdict::Worse
        );
        assert_eq!(
            judge(Better::Lower, 0.1, 1.0, 0.5, &tight, &[]),
            Verdict::Ok
        );
        // Higher is better: a drop is the regression.
        assert_eq!(
            judge(Better::Higher, 0.02, 95.0, 93.5, &[], &[]),
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Higher, 0.02, 95.0, 92.0, &[], &[]),
            Verdict::Worse
        );
        assert_eq!(
            judge(Better::Higher, 0.02, 95.0, 99.0, &[], &[]),
            Verdict::Ok
        );
    }

    #[test]
    fn a_noisy_base_is_unresolved_unless_every_run_is_better() {
        let noisy = [1.0, 1.5, 0.7, 1.3];
        assert_eq!(
            judge(Better::Lower, 0.1, 1.15, 1.2, &noisy, &[1.2, 1.1]),
            Verdict::Unresolved
        );
        // Even an apparent improvement is not a verdict…
        assert_eq!(
            judge(Better::Lower, 0.1, 1.15, 0.9, &noisy, &[0.9, 0.8]),
            Verdict::Unresolved
        );
        // …unless every run of B beats every run of A.
        assert_eq!(
            judge(Better::Lower, 0.1, 1.15, 0.6, &noisy, &[0.6, 0.65]),
            Verdict::Ok
        );
    }

    fn env(smoke: bool, seed: f64, commit: &str) -> Json {
        Json::obj([
            ("smoke", Json::Bool(smoke)),
            ("seed", Json::Num(seed)),
            ("git_commit", Json::str(commit)),
        ])
    }

    fn file(value: f64, fp: &str, smoke: bool) -> Json {
        file_with(value, fp, env(smoke, 42.0, "unknown"), true)
    }

    /// A one-workload result file in which every value reads `value`;
    /// `layers` says whether it carries the per-layer section.
    fn file_with(value: f64, fp: &str, env: Json, layers: bool) -> Json {
        let per_layer = Json::Obj(
            EXACT_GATES
                .iter()
                .map(|(name, _)| *name)
                .chain(["cluster.plan.admitted", "cluster.plan.rejected"])
                .filter(|_| layers)
                .map(|name| (name.to_owned(), Json::obj([("value", Json::Num(value))])))
                .collect(),
        );
        let metrics = Json::Obj(
            END_TO_END
                .iter()
                .map(|m| {
                    (
                        m.name.to_owned(),
                        Json::obj([
                            ("value", Json::Num(value)),
                            ("samples", Json::nums(&[value, value, value])),
                        ]),
                    )
                })
                .collect(),
        );
        Json::obj([
            ("env", env),
            (
                "workloads",
                Json::Arr(vec![Json::obj([
                    ("name", Json::str("w")),
                    ("sim_fingerprint", Json::str(fp)),
                    ("end_to_end", metrics),
                    ("per_layer", per_layer),
                ])]),
            ),
        ])
    }

    #[test]
    fn exact_values_are_gated_under_their_own_allowance() {
        // 50 000 offered: 1 % is 500 more rejections.
        let may = allowance(Slack::OfOffered(0.01), 100.0, 50_000.0);
        assert_eq!(judge_exact(Better::Lower, may, 100.0, 600.0), Verdict::Ok);
        assert_eq!(
            judge_exact(Better::Lower, may, 100.0, 601.0),
            Verdict::Worse
        );
        // Losing more than 1 % of the completions at an equal hit ratio.
        let may = allowance(Slack::OfBase(0.01), 1000.0, 0.0);
        assert_eq!(judge_exact(Better::Higher, may, 1000.0, 990.0), Verdict::Ok);
        assert_eq!(
            judge_exact(Better::Higher, may, 1000.0, 989.0),
            Verdict::Worse
        );
        // Zero allowance: one byte more per record, one lost identity.
        let none = allowance(Slack::Abs(0.0), 127.5, 0.0);
        assert_eq!(
            judge_exact(Better::Lower, none, 127.5, 127.6),
            Verdict::Worse
        );
        assert_eq!(judge_exact(Better::Higher, none, 1.0, 0.0), Verdict::Worse);
        assert_eq!(judge_exact(Better::Higher, none, 1.0, 1.0), Verdict::Ok);
        let may = allowance(Slack::Abs(0.002), 0.10, 0.0);
        assert_eq!(judge_exact(Better::Lower, may, 0.10, 0.1019), Verdict::Ok);
        assert_eq!(
            judge_exact(Better::Lower, may, 0.10, 0.1021),
            Verdict::Worse
        );
    }

    #[test]
    fn compares_whole_files_row_by_row() {
        let same = compare(&file(1.0, "aa", false), &file(1.0, "aa", false)).unwrap();
        assert_eq!((same.worse, same.unresolved, same.sim_differs), (0, 0, 0));
        // One header, one row per metric and per gate, one fingerprint row.
        assert_eq!(
            same.lines.len(),
            1 + END_TO_END.len() + EXACT_GATES.len() + 1
        );

        // +30 % is beyond every bound and allowance for lower-is-better
        // values; the higher-is-better ones improve.
        let up = compare(&file(1.0, "aa", false), &file(1.3, "bb", false)).unwrap();
        let lower = END_TO_END
            .iter()
            .filter(|m| m.better == Better::Lower)
            .count()
            + EXACT_GATES
                .iter()
                .filter(|(name, _)| catalog::per_layer(name).unwrap().better == Better::Lower)
                .count();
        assert_eq!((up.worse, up.sim_differs), (lower, 1));

        // Within one commit a different fingerprint is itself a failure.
        let at = |fp| file_with(1.0, fp, env(false, 42.0, "c0ffee"), true);
        let drift = compare(&at("aa"), &at("bb")).unwrap();
        assert_eq!((drift.worse, drift.sim_differs), (1, 1));

        // A file without the gated values cannot pass.
        let bare = file_with(1.0, "aa", env(false, 42.0, "unknown"), false);
        let gone = compare(&file(1.0, "aa", false), &bare).unwrap();
        assert_eq!(gone.worse, EXACT_GATES.len());

        // Different sizes or seeds are not comparable at all.
        assert!(compare(&file(1.0, "aa", true), &file(1.0, "aa", false)).is_err());
        let other_seed = file_with(1.0, "aa", env(false, 7.0, "unknown"), true);
        assert!(compare(&file(1.0, "aa", false), &other_seed).is_err());
        assert!(compare(&Json::Null, &file(1.0, "aa", false)).is_err());
    }
}
