//! The registry: the one list of experiments.
//!
//! An experiment is a module named as it is run, whose `run` is
//! `fn(&Args) -> Vec<Table>`. The modules are private, which leaves
//! [`REGISTRY`] as the only way to an experiment; a row takes its name from
//! its module, and a unit test holds the rows against the files of this
//! directory, so the two cannot drift apart.

use crate::{Args, Table};

mod ablations;
mod cluster_diurnal;
mod cluster_failover;
mod cluster_megafleet;
mod cluster_milliontask;
mod cluster_rebalance;
mod cluster_scaleout;
mod fig01_min_bandwidth;
mod fig02_multi_task;
mod fig04_syscall_stats;
mod fig05_trace_excerpt;
mod fig06_dft_overhead;
mod fig07_fmax_sweep;
mod fig08_peak_overhead;
mod fig09_peak_precision;
mod fig10_spectra;
mod fig11_pmf;
mod fig13_lfs_vs_lfspp;
mod fig14_cdfs;
mod fleet;
mod journal_whatif;
mod table1_tracer_overhead;
mod table2_load_tolerance;
mod table3_loaded_ift;
mod vm_consolidation;
mod vm_elasticity;

/// Which part of the evaluation an experiment belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Group {
    /// The paper's own Section 5: Figures 1–14, Tables 1–3 and the
    /// ablations of its design choices. Seconds with `--fast`.
    Paper,
    /// What this repository built on top: VM, fleet, journal and replica
    /// experiments. Minutes; `cluster_milliontask`'s full-length row is
    /// unmeasured (its release e2e test peaks at 6.7 GiB resident,
    /// `--smoke` at 3.9 GiB).
    Fleet,
}

impl Group {
    /// The group's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Group::Paper => "paper",
            Group::Fleet => "fleet",
        }
    }
}

/// One registry row.
pub struct Experiment {
    /// Command-line name; also the module's name.
    pub name: &'static str,
    /// The group the experiment runs with.
    pub group: Group,
    /// Runs the experiment (asserting its claims) and returns its tables.
    pub run: fn(&Args) -> Vec<Table>,
}

macro_rules! registry {
    ($($group:ident { $($name:ident,)* })*) => {
        /// Every experiment, in the order `all` runs them.
        pub const REGISTRY: &[Experiment] = &[
            $($(Experiment {
                name: stringify!($name),
                group: Group::$group,
                run: $name::run,
            },)*)*
        ];
    };
}

registry! {
    Paper {
        fig01_min_bandwidth,
        fig02_multi_task,
        fig04_syscall_stats,
        fig05_trace_excerpt,
        table1_tracer_overhead,
        fig06_dft_overhead,
        fig07_fmax_sweep,
        fig08_peak_overhead,
        fig09_peak_precision,
        fig10_spectra,
        fig11_pmf,
        table2_load_tolerance,
        fig13_lfs_vs_lfspp,
        fig14_cdfs,
        table3_loaded_ift,
        ablations,
    }
    Fleet {
        cluster_scaleout,
        cluster_rebalance,
        cluster_diurnal,
        cluster_megafleet,
        journal_whatif,
        cluster_failover,
        vm_consolidation,
        vm_elasticity,
        cluster_milliontask,
    }
}

/// The rows a command-line word selects: an experiment's name, a group's
/// name, or `all`. `None` for anything else.
pub fn select(word: &str) -> Option<Vec<&'static Experiment>> {
    let rows: Vec<_> = REGISTRY
        .iter()
        .filter(|e| word == "all" || word == e.group.name() || word == e.name)
        .collect();
    (!rows.is_empty()).then_some(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::path::Path;

    /// `(module name, source)` of every file in `src/experiments/`.
    fn sources() -> Vec<(String, String)> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/experiments");
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&dir).expect("src/experiments is listable") {
            let path = entry.expect("directory entry").path();
            let stem = path.file_stem().expect("file stem").to_string_lossy();
            let text = std::fs::read_to_string(&path).expect("source is readable");
            out.push((stem.into_owned(), text));
        }
        out
    }

    #[test]
    fn every_module_has_exactly_one_row() {
        let mut modules: Vec<String> = sources()
            .into_iter()
            .map(|(stem, _)| stem)
            .filter(|stem| stem != "mod" && stem != "fleet")
            .collect();
        modules.sort();
        let mut rows: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
        rows.sort_unstable();
        assert_eq!(modules, rows, "src/experiments/*.rs vs REGISTRY");
    }

    #[test]
    fn names_and_csv_files_are_unique() {
        let mut names = BTreeSet::new();
        for e in REGISTRY {
            assert!(names.insert(e.name), "two rows named {}", e.name);
            assert!(
                !["all", "list", "paper", "fleet"].contains(&e.name),
                "{} shadows a selector",
                e.name
            );
        }
        // Every table is built as `Table::new("<file>.csv", ..)`: the string
        // literals ending in `.csv` are the files the experiments write.
        let mut files = BTreeSet::new();
        for (module, text) in sources() {
            let literals = text.split('"').skip(1).step_by(2);
            for file in literals.filter(|l| l.ends_with(".csv")) {
                assert!(
                    files.insert(file.to_owned()),
                    "{module}: {file} is written twice"
                );
            }
        }
        assert!(
            files.len() >= REGISTRY.len(),
            "the scan lost the tables: {files:?}"
        );
    }

    #[test]
    fn select_knows_names_groups_and_all() {
        let names = |word| -> Vec<&str> {
            let rows = select(word).unwrap_or_default();
            rows.iter().map(|e| e.name).collect()
        };
        assert_eq!(names("fig11_pmf"), ["fig11_pmf"]);
        assert_eq!(names("paper").len(), 16);
        assert_eq!(names("fleet").len(), 9);
        assert_eq!(names("all").len(), REGISTRY.len());
        // The drift this registry replaced: `run_all` never ran it.
        assert!(names("fleet").contains(&"cluster_diurnal"));
        assert!(names("all").contains(&"cluster_diurnal"));
        assert!(select("run_all").is_none());
        assert!(select("").is_none());
    }

    /// Every `--bin experiment -- <word>` in the docs and CI must select
    /// something (or be `list`).
    #[test]
    fn documented_commands_name_real_experiments() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut seen = 0;
        for doc in [
            "README.md",
            ".github/workflows/ci.yml",
            ".claude/skills/verify/SKILL.md",
        ] {
            let text = std::fs::read_to_string(root.join(doc)).expect(doc);
            // Commands wrap across lines in CI's folded scalars.
            let words: Vec<&str> = text.split_whitespace().collect();
            for at in 0..words.len() {
                if words[at..].starts_with(&["--bin", "experiment", "--"]) {
                    let word = words.get(at + 3).copied().unwrap_or("");
                    let word = word.trim_matches(|c: char| !c.is_alphanumeric() && c != '_');
                    assert!(
                        word == "list" || select(word).is_some(),
                        "{doc}: `--bin experiment -- {word}` names no experiment or group"
                    );
                    seen += 1;
                }
            }
        }
        assert!(seen >= 12, "only {seen} documented commands found");
    }
}
