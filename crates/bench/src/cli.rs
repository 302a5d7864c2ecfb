//! The flags of the `experiment` binary.
//!
//! Every experiment receives the same [`Args`]; parsing lives here once so
//! a flag (such as `--journal`) reaches all of them in one place.

use std::path::{Path, PathBuf};

use selftune_cluster::ScenarioSpec;
use selftune_journal::Journal;

/// Command-line flags common to every experiment.
#[derive(Clone, Debug)]
pub struct Args {
    /// Base RNG seed.
    pub seed: u64,
    /// Reduce repetitions for a quick smoke run.
    pub fast: bool,
    /// Shrink to CI-budget sizes (smaller still than `--fast`); used by
    /// the scale experiments to fit a wall-clock budget.
    pub smoke: bool,
    /// Results directory.
    pub out: PathBuf,
    /// Scenario file overriding the experiment's built-in fleet (cluster
    /// experiments only; see `ScenarioSpec::from_text` for the format).
    pub scenario: Option<PathBuf>,
    /// Decision-journal output file (cluster experiments only): the
    /// experiment's primary scenario is recorded through
    /// [`selftune_journal::Journal`] and written here.
    pub journal: Option<PathBuf>,
    /// Replication checkpoint cadence in epochs (`--checkpoint-every N`,
    /// distributed experiments only): how often the leader emits a
    /// verification checkpoint on the shipped stream.
    pub checkpoint_every: Option<usize>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            seed: 42,
            fast: false,
            smoke: false,
            out: PathBuf::from("results"),
            scenario: None,
            journal: None,
            checkpoint_every: None,
        }
    }
}

impl Args {
    /// Parses `--seed N`, `--fast`, `--smoke`, `--out DIR`,
    /// `--scenario FILE`, `--journal FILE` and `--checkpoint-every N`.
    ///
    /// # Panics
    ///
    /// Panics on malformed or unknown arguments (a loud failure beats a
    /// silently wrong configuration).
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Args {
        let mut out = Args::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--seed" => {
                    let v = it.next().expect("--seed needs a value");
                    out.seed = v.parse().expect("--seed must be an integer");
                }
                "--fast" => out.fast = true,
                "--smoke" => out.smoke = true,
                "--out" => {
                    out.out = PathBuf::from(it.next().expect("--out needs a value"));
                }
                "--scenario" => {
                    out.scenario = Some(PathBuf::from(it.next().expect("--scenario needs a file")));
                }
                "--journal" => {
                    out.journal = Some(PathBuf::from(it.next().expect("--journal needs a file")));
                }
                "--checkpoint-every" => {
                    let v = it.next().expect("--checkpoint-every needs a value");
                    let n: usize = v.parse().expect("--checkpoint-every must be an integer");
                    assert!(n > 0, "--checkpoint-every must be at least 1");
                    out.checkpoint_every = Some(n);
                }
                other => panic!(
                    "unknown argument {other:?} (try --seed/--fast/--smoke/--out/--scenario/--journal/--checkpoint-every)"
                ),
            }
        }
        out
    }

    /// Loads the `--scenario` file, if given, and says so on stdout.
    ///
    /// # Panics
    ///
    /// Panics with the parse error when the file is missing or malformed
    /// (a silently ignored scenario file would invalidate the experiment).
    pub fn scenario_spec(&self) -> Option<ScenarioSpec> {
        let spec = load_scenario(self.scenario.as_deref()?).unwrap_or_else(|e| panic!("{e}"));
        println!("scenario file: {}", spec.name);
        Some(spec)
    }

    /// Picks a repetition count: `full` normally, `quick` with `--fast`.
    pub fn reps(&self, full: usize, quick: usize) -> usize {
        if self.fast {
            quick
        } else {
            full
        }
    }

    /// Picks a sweep: all of `full` normally, its first `quick` points with
    /// `--fast`.
    pub fn sweep<'a, T>(&self, full: &'a [T], quick: usize) -> &'a [T] {
        &full[..self.reps(full.len(), quick)]
    }

    /// Ensures the results directory exists and returns a path inside it.
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created.
    pub fn out_path(&self, file: &str) -> PathBuf {
        std::fs::create_dir_all(&self.out).expect("create results dir");
        self.out.join(file)
    }

    /// Writes an already-recorded decision journal to the `--journal`
    /// path. A no-op without the flag.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors.
    pub fn write_journal(&self, journal: &Journal) {
        let Some(path) = &self.journal else {
            return;
        };
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)
                    .unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
            }
        }
        std::fs::write(path, journal.to_text())
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        println!("[wrote {}]", path.display());
    }

    /// Records a fresh decision journal of `spec` under the experiment
    /// seed and writes it to the `--journal` path. A no-op without the
    /// flag; cluster experiments call this once on their primary
    /// scenario.
    pub fn record_journal(&self, spec: &ScenarioSpec) {
        if self.journal.is_some() {
            let (_, journal) = Journal::record(2, spec, self.seed);
            self.write_journal(&journal);
        }
    }
}

/// Loads a [`ScenarioSpec`] from a text file (the `ScenarioSpec::to_text`
/// format).
///
/// # Errors
///
/// A human-readable message naming the file for I/O failures or the first
/// offending line for parse failures.
pub fn load_scenario(path: &Path) -> Result<ScenarioSpec, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("reading scenario {}: {e}", path.display()))?;
    ScenarioSpec::from_text(&text).map_err(|e| format!("parsing scenario {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parse_from_covers_every_flag() {
        let a = Args::parse_from(strings(&[
            "--seed",
            "7",
            "--fast",
            "--smoke",
            "--out",
            "elsewhere",
            "--scenario",
            "fleet.txt",
            "--journal",
            "run.journal",
            "--checkpoint-every",
            "3",
        ]));
        assert_eq!(a.seed, 7);
        assert!(a.fast);
        assert!(a.smoke);
        assert_eq!(a.out, PathBuf::from("elsewhere"));
        assert_eq!(a.scenario.as_deref(), Some(Path::new("fleet.txt")));
        assert_eq!(a.journal.as_deref(), Some(Path::new("run.journal")));
        assert_eq!(a.checkpoint_every, Some(3));
    }

    #[test]
    fn parse_from_defaults_without_flags() {
        let a = Args::parse_from(Vec::new());
        assert_eq!(a.seed, 42);
        assert!(!a.fast);
        assert!(!a.smoke);
        assert!(a.scenario.is_none());
        assert!(a.journal.is_none());
        assert!(a.checkpoint_every.is_none());
    }

    #[test]
    #[should_panic(expected = "--checkpoint-every must be at least 1")]
    fn parse_from_rejects_zero_checkpoint_cadence() {
        Args::parse_from(strings(&["--checkpoint-every", "0"]));
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn parse_from_rejects_unknown_flags() {
        Args::parse_from(strings(&["--bogus"]));
    }

    #[test]
    fn record_journal_round_trips_through_the_flag_path() {
        let dir = std::env::temp_dir().join("selftune-bench-journal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("demo.journal");
        let args = Args {
            journal: Some(path.clone()),
            ..Args::default()
        };
        let spec = selftune_cluster::ScenarioSpec::new(
            "cli-demo",
            2,
            4,
            selftune_simcore::time::Dur::ms(500),
        );
        args.record_journal(&spec);
        let text = std::fs::read_to_string(&path).expect("journal written");
        let journal = Journal::from_text(&text).expect("journal parses");
        assert_eq!(journal.seed, args.seed);
        assert_eq!(journal.scenario, spec);
    }

    #[test]
    fn write_journal_without_flag_is_a_no_op() {
        let args = Args::default();
        // No path set: nothing to write, nothing to panic about.
        let spec =
            selftune_cluster::ScenarioSpec::new("noop", 2, 2, selftune_simcore::time::Dur::ms(200));
        args.record_journal(&spec);
    }
}
