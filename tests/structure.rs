//! The structural rules that hold this workspace to one of everything:
//! one table, each rule a name, the reason it exists and rows of (scope,
//! check, planted violation) over the workspace's source text.
//!
//! `cargo test -q --test structure -- --nocapture` prints every count a
//! row read. A row fails by naming its rule, its reason and the
//! `file:line` of each line it counted. A rule cannot pass vacuously: a
//! file or directory it names that is gone, or a function anchor no line
//! holds, fails it. And each row proves it can fire: its planted
//! violation, put at the top of one file of the real tree, must make it
//! fail, so a ceiling sits at its count and a change that lowers a count
//! lowers its ceiling in the same diff.

use std::collections::BTreeMap;
use std::fs;
use std::ops::RangeInclusive;
use std::path::Path;

/// Every file under `crates/` and `src/` by its `/`-separated path from
/// the workspace root, and, with empty text, every directory there by its
/// path and a trailing `/`.
type Tree = BTreeMap<String, String>;

struct Rule {
    name: &'static str,
    /// Why the rule holds: what a line it refuses would be.
    why: &'static str,
    rows: Vec<Row>,
}

struct Row {
    scope: Scope,
    check: Check,
    /// A violation the row must catch: text put at the top of a file of
    /// the real tree (the file is made if absent).
    plant: (String, &'static str),
}

/// The files a row reads, and which lines of each.
struct Scope {
    /// Paths from the root, matched name by name (`*` is any one name):
    /// a file, or every file under a directory.
    roots: Vec<String>,
    /// Only `.rs` files.
    rust_only: bool,
    /// Files the row skips.
    except: &'static [&'static str],
    part: Part,
}

enum Part {
    Whole,
    /// The lines above the cut ([`non_test`]): what a release build compiles.
    NonTest,
    /// The lines from the cut on.
    Test,
    /// Every run of lines from one containing the first anchor through
    /// the next that is exactly the second (`awk '/start/,/^end$/'`).
    Body(&'static str, &'static str),
}

enum Check {
    /// The number of lines matching the pattern lies in the range.
    Lines(Pattern, RangeInclusive<usize>),
    /// Nothing, not even an empty directory, lies at the scope's roots.
    Absent,
}

enum Pattern {
    /// A line containing any of these.
    Any(&'static [&'static str]),
    /// A line containing any of these as a whole word (`grep -w`).
    Words(&'static [&'static str]),
    /// A line of a shape the literals cannot state; it may read the lines
    /// above it.
    Shape(fn(&[&str], usize) -> bool),
}

/// The one cut: a file ends, for the shipped build, at its first line
/// that opens with `#[cfg(test)]` at column 0.
fn non_test<'a>(lines: &'a [&'a str]) -> &'a [&'a str] {
    let cut = lines
        .iter()
        .position(|line| line.starts_with("#[cfg(test)]"))
        .unwrap_or(lines.len());
    &lines[..cut]
}

fn files(roots: &[&str]) -> Scope {
    Scope {
        roots: roots.iter().map(|root| root.to_string()).collect(),
        rust_only: false,
        except: &[],
        part: Part::Whole,
    }
}

impl Scope {
    fn rust(self) -> Self {
        Scope {
            rust_only: true,
            ..self
        }
    }

    fn except(self, except: &'static [&'static str]) -> Self {
        Scope { except, ..self }
    }

    fn part(self, part: Part) -> Self {
        Scope { part, ..self }
    }

    fn describe(&self) -> String {
        let part = match self.part {
            Part::Whole => String::new(),
            Part::NonTest => " above the cut".into(),
            Part::Test => " below the cut".into(),
            Part::Body(start, _) => format!(" in `{start}`"),
        };
        let rust = if self.rust_only { " (.rs)" } else { "" };
        let except = if self.except.is_empty() {
            String::new()
        } else {
            format!(" except {}", self.except.join(" "))
        };
        format!("{}{rust}{except}{part}", self.roots.join(" "))
    }

    fn select<'t>(&'t self, tree: &'t Tree) -> impl Iterator<Item = (&'t String, &'t String)> {
        tree.iter().filter(|(path, _)| {
            self.roots.iter().any(|root| under(path, root))
                && !self.except.contains(&path.as_str())
                && (!self.rust_only || path.ends_with(".rs"))
        })
    }

    /// The indices of the lines the row reads, or the anchor no line holds.
    fn lines(&self, lines: &[&str]) -> Result<Vec<usize>, &'static str> {
        let shipped = non_test(lines).len();
        match self.part {
            Part::Whole => Ok((0..lines.len()).collect()),
            Part::NonTest => Ok((0..shipped).collect()),
            Part::Test => Ok((shipped..lines.len()).collect()),
            Part::Body(start, end) => {
                let (mut inside, mut found, mut body) = (false, false, Vec::new());
                for (i, line) in lines.iter().enumerate() {
                    if !inside && line.contains(start) {
                        (inside, found) = (true, true);
                    }
                    if inside {
                        body.push(i);
                        inside = *line != end;
                    }
                }
                found.then_some(body).ok_or(start)
            }
        }
    }
}

fn under(path: &str, root: &str) -> bool {
    let mut names = path.split('/');
    root.split('/')
        .all(|want| names.next().is_some_and(|name| want == "*" || want == name))
}

impl Pattern {
    fn matches(&self, lines: &[&str], i: usize) -> bool {
        match self {
            Pattern::Any(needles) => needles.iter().any(|needle| lines[i].contains(needle)),
            Pattern::Words(words) => words.iter().any(|word| has_word(lines[i], word)),
            Pattern::Shape(shape) => shape(lines, i),
        }
    }
}

fn is_word(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn has_word(line: &str, word: &str) -> bool {
    line.match_indices(word).any(|(at, _)| {
        !line[..at].chars().next_back().is_some_and(is_word)
            && !line[at + word.len()..].chars().next().is_some_and(is_word)
    })
}

fn is_comment(line: &str) -> bool {
    line.trim_start().starts_with("//")
}

/// `.unwrap()`, `.expect(`, `panic!(` or `unreachable!(` outside a comment.
fn panic_site(lines: &[&str], i: usize) -> bool {
    !is_comment(lines[i])
        && [".unwrap()", ".expect(", "panic!(", "unreachable!("]
            .iter()
            .any(|call| lines[i].contains(call))
}

/// `^\s*pub\s+(unsafe\s+|const\s+)?(fn|struct|enum|trait|type|const|static)\s`
fn pub_item(lines: &[&str], i: usize) -> bool {
    fn after_space(s: &str) -> Option<&str> {
        let rest = s.trim_start();
        (rest.len() < s.len()).then_some(rest)
    }
    fn item(s: &str) -> bool {
        ["fn", "struct", "enum", "trait", "type", "const", "static"]
            .iter()
            .any(|kw| {
                s.strip_prefix(kw)
                    .is_some_and(|rest| rest.starts_with(char::is_whitespace))
            })
    }
    let Some(rest) = lines[i]
        .trim_start()
        .strip_prefix("pub")
        .and_then(after_space)
    else {
        return false;
    };
    item(rest)
        || ["unsafe", "const"]
            .iter()
            .any(|q| rest.strip_prefix(q).and_then(after_space).is_some_and(item))
}

/// `unsafe *(\{|fn |impl |trait |extern )`: an unsafe block, fn, impl,
/// trait or extern block.
fn unsafe_item(lines: &[&str], i: usize) -> bool {
    lines[i].match_indices("unsafe").any(|(at, _)| {
        let rest = lines[i][at + "unsafe".len()..].trim_start_matches(' ');
        ["{", "fn ", "impl ", "trait ", "extern "]
            .iter()
            .any(|opener| rest.starts_with(opener))
    })
}

/// An unsafe item whose comment block just above holds no `// SAFETY:`.
fn unsafe_without_safety(lines: &[&str], i: usize) -> bool {
    unsafe_item(lines, i)
        && !lines[..i]
            .iter()
            .rev()
            .take_while(|line| is_comment(line))
            .any(|line| line.trim_start().starts_with("// SAFETY:"))
}

/// `struct \w*ShareController`.
fn share_controller_struct(lines: &[&str], i: usize) -> bool {
    lines[i].match_indices("struct ").any(|(at, _)| {
        let rest = &lines[i][at + "struct ".len()..];
        let name = &rest[..rest.find(|c| !is_word(c)).unwrap_or(rest.len())];
        name.contains("ShareController")
    })
}

/// A column-0 item no `#[cfg(test)]` of its own covers: the attributes,
/// comments and blank lines just above it hold none.
fn untagged_item(lines: &[&str], i: usize) -> bool {
    lines[i].starts_with(|c: char| c.is_alphabetic() || c == '_')
        && !lines[..i]
            .iter()
            .rev()
            .take_while(|line| line.starts_with('#') || is_comment(line) || line.trim().is_empty())
            .any(|line| line.starts_with("#[cfg(test)]"))
}

fn row(scope: Scope, check: Check, plant: (&str, &'static str)) -> Row {
    Row {
        scope,
        check,
        plant: (plant.0.to_string(), plant.1),
    }
}

fn rules() -> Vec<Rule> {
    use Check::{Absent, Lines};
    use Part::{Body, NonTest, Test};
    use Pattern::{Any, Shape, Words};
    const SOURCES: &[&str] = &["crates/*/src", "src"];
    const CRATE_SOURCES: &[&str] = &["crates/*/src"];
    const NODE: &str = "crates/cluster/src/node.rs";
    const RUNNER: &str = "crates/cluster/src/runner.rs";
    const DFT: &str = "crates/spectrum/src/dft.rs";
    const UNSAFE: &str = "// SAFETY: planted.\nunsafe fn planted() {}\n";
    let panic_ceilings = [
        ("analysis", 4),
        ("apps", 2),
        ("bench", 28),
        ("cluster", 20),
        ("core", 3),
        ("distrib", 6),
        ("journal", 3),
        ("sched", 0),
        ("simcore", 11),
        ("spectrum", 3),
        ("tracer", 1),
        ("virt", 11),
    ];
    vec![
        Rule {
            name: "One way into the experiments",
            why: "`crates/bench` is a registry behind one binary: a second `fn main` or a \
                  `src/bin/` stub would be a list of experiments beside it",
            rows: vec![
                row(
                    files(&["crates/bench/src/bin"]),
                    Absent,
                    ("crates/bench/src/bin/planted.rs", "fn main() {}\n"),
                ),
                row(
                    files(&["crates/bench"]).rust(),
                    Lines(Any(&["fn main"]), 1..=1),
                    ("crates/bench/src/lib.rs", "fn main() {}\n"),
                ),
            ],
        },
        Rule {
            name: "One share law",
            why: "the VM and node levels call `core::share::ShareController` where its grant \
                  acts: a second controller type, or a third construction site, would be a \
                  per-level copy of the law",
            rows: vec![
                row(
                    files(&["crates", "src"])
                        .rust()
                        .except(&["crates/core/src/share.rs"]),
                    Lines(Shape(share_controller_struct), 0..=0),
                    ("crates/virt/src/lib.rs", "struct VmShareController;\n"),
                ),
                row(
                    files(CRATE_SOURCES).except(&[
                        "crates/core/src/share.rs",
                        "crates/virt/src/platform.rs",
                        "crates/cluster/src/stages.rs",
                    ]),
                    Lines(Any(&["ShareController::new("]), 0..=0),
                    (
                        "crates/virt/src/lib.rs",
                        "fn planted() { ShareController::new(); }\n",
                    ),
                ),
            ],
        },
        Rule {
            name: "One fleet fold",
            why: "`AggregateMetrics::new` folds node sketches in node-id order and is the only \
                  fleet reduction: a tree split, a per-worker pre-merge or a float-sum fix-up \
                  would be a second reduction held equal to it",
            rows: vec![row(
                files(SOURCES),
                Lines(
                    Words(&[
                        "tree_reduce",
                        "with_serial_sums",
                        "new_premerged",
                        "set_sum",
                    ]),
                    0..=0,
                ),
                ("crates/cluster/src/aggregate.rs", "fn tree_reduce() {}\n"),
            )],
        },
        Rule {
            name: "One report path",
            why: "a node report folds every task into `NodeTotals` + `NodeSketches` and the \
                  report mode only picks the sketch kind: a per-task report, a second \
                  constructor or an exact read beside the sketch one would be a second path",
            rows: vec![row(
                files(SOURCES),
                Lines(
                    Words(&[
                        "TaskReport",
                        "from_tasks",
                        "from_sketches",
                        "sorted_gaps",
                        "mean_attach_delay_where",
                    ]),
                    0..=0,
                ),
                (NODE, "struct TaskReport;\n"),
            )],
        },
        Rule {
            name: "One admission walk",
            why: "`Placer::admit` is the only admission and `fit` the only node choice behind \
                  it: a filtered twin, a per-mode copy of the policy match or a Fenwick view \
                  would be a second walk held equal to it",
            rows: vec![row(
                files(SOURCES),
                Lines(
                    Words(&[
                        "place_excluding",
                        "place_excluding_active",
                        "place_excluding_scan",
                        "place_demand_excluding",
                        "admit_indexed",
                        "fenwick_add",
                        "fenwick_prefix",
                    ]),
                    0..=0,
                ),
                ("crates/cluster/src/placer.rs", "fn admit_indexed() {}\n"),
            )],
        },
        Rule {
            name: "One record per decision",
            why: "a journal record embeds its decider's own value (`PlacementOutcome`, \
                  `Migration`, `ShareGrant`): a statistics copy of a move, a per-unit \
                  admission twin or a field-by-field grant copy would be a second \
                  representation",
            rows: vec![row(
                files(SOURCES),
                Lines(
                    Words(&[
                        "MigrationRecord",
                        "TaskAdmission",
                        "VmAdmission",
                        "ShareGrantEvent",
                        "admission_inputs",
                    ]),
                    0..=0,
                ),
                ("crates/cluster/src/events.rs", "struct MigrationRecord;\n"),
            )],
        },
        Rule {
            name: "Reference paths stay beside their differential tests",
            why: "every reference a differential test holds a production type to is a free \
                  function of that test's module (`scan_fit`, `scan_best_effort`, `rescan`): a \
                  scan mode, a reference switch or a recycling toggle in shipped code would be \
                  a second path the release build carries for one test",
            rows: vec![row(
                files(CRATE_SOURCES).rust().part(NonTest),
                Lines(
                    Any(&[
                        "scan: bool",
                        "use_scan_placement",
                        "candidate_order",
                        "is_suspended",
                        "recycle: bool",
                        "set_recycle",
                        "heap_fallback",
                        "use_scan_dispatch",
                    ]),
                    0..=0,
                ),
                (
                    "crates/cluster/src/placer.rs",
                    "struct Planted { scan: bool }\n",
                ),
            )],
        },
        Rule {
            name: "One entry per admitted task",
            why: "a node's task arena is one list of entries in admission order and never \
                  hands a slot to a second task: a retired-record table, an admission sort, \
                  sequence numbers or a free list would be a second copy of a task's report \
                  facts or a way for a departed task to come back",
            rows: vec![row(
                files(&[NODE]).part(NonTest),
                Lines(
                    Any(&["RetiredTask", "admission_order", "next_seq", "free: Vec"]),
                    0..=0,
                ),
                (NODE, "struct RetiredTask;\n"),
            )],
        },
        Rule {
            name: "One way to end a run early",
            why: "a run ends before its horizon only when its pin source answers \
                  `EpochPin::Stop`: a stop field on the run, a leader slot for the stopped \
                  interim or a `stopping` branch in the epoch loop would be a second way",
            rows: vec![row(
                files(&[RUNNER, "crates/cluster/src/stages.rs"]).part(NonTest),
                Lines(Any(&["stopping", "stopped:", "stop: Option<usize>"]), 0..=0),
                (RUNNER, "struct Planted { stop: Option<usize> }\n"),
            )],
        },
        Rule {
            name: "One replica state",
            why: "a follower's protocol stage is one `Stage` value: a second epoch counter, a \
                  journal rebuilt from loose fields, a lazily started mirror, the leader's \
                  thread count beside the journal or a scan-dispatch switch would be a copy \
                  held equal to it",
            rows: vec![row(
                files(CRATE_SOURCES),
                Lines(
                    Words(&[
                        "next_epoch",
                        "replica_journal",
                        "start_mirror",
                        "leader_threads",
                        "scan_dispatch",
                    ]),
                    0..=0,
                ),
                ("crates/distrib/src/follower.rs", "fn start_mirror() {}\n"),
            )],
        },
        Rule {
            name: "One meeting per epoch",
            why: "the epoch loop's workers meet under one mutex and one condvar \
                  (`runner::Meeting`): a separate barrier, a board the posts wait on or a \
                  leader seat behind its own lock would be a second synchronisation",
            rows: vec![
                row(
                    files(CRATE_SOURCES),
                    Lines(Any(&["EpochBoard", "GateState", "struct Gate"]), 0..=0),
                    (RUNNER, "struct Gate;\n"),
                ),
                row(
                    files(&[RUNNER]),
                    Lines(Any(&["Mutex::new("]), 0..=1),
                    (RUNNER, "static PLANTED: Mutex<u8> = Mutex::new(0);\n"),
                ),
            ],
        },
        Rule {
            name: "One lookup per managed task",
            why: "a managed task is found by id through a table (the manager's `slot_of`, the \
                  node arena's `rt_index`): a scan of the task list, or an extraction that \
                  walks the active list, is the O(tasks) lookup that made each epoch \
                  quadratic in a node's task count",
            rows: vec![
                row(
                    files(&["crates/core/src/manager.rs"]),
                    Lines(Any(&["tasks.iter().position", "tasks.iter().find"]), 0..=0),
                    (
                        "crates/core/src/manager.rs",
                        "fn planted() { tasks.iter().position(|_| true); }\n",
                    ),
                ),
                row(
                    files(&[NODE]).part(Body("fn extract_task(", "    }")),
                    Lines(Any(&["active_rt"]), 0..=0),
                    (
                        NODE,
                        "fn extract_task(&mut self) {\n        self.active_rt.clear();\n    }\n",
                    ),
                ),
            ],
        },
        Rule {
            name: "Knobs only where callers differ",
            why: "a value every caller leaves at its default is a named constant beside the \
                  code that reads it: the LFS ramp's config, the tracers' cost parameters, the \
                  peak refinement nothing switched on or a one-implementor predictor trait \
                  would be an option no caller exercises",
            rows: vec![row(
                files(SOURCES),
                Lines(
                    Words(&[
                        "LfsConfig",
                        "OverheadParams",
                        "refine_parabolic",
                        "trait Predictor",
                    ]),
                    0..=0,
                ),
                ("crates/core/src/lfs.rs", "struct LfsConfig;\n"),
            )],
        },
        Rule {
            name: "Panic sites only shrink",
            why: "each `.unwrap()` / `.expect(` / `panic!(` / `unreachable!(` in shipped code \
                  is a proven invariant or on its way to a named error: a change that adds one \
                  raises its crate's ceiling in the same diff, so the growth is reviewed",
            rows: panic_ceilings
                .iter()
                .map(|&(name, ceiling)| Row {
                    scope: files(&[&format!("crates/{name}/src")]).rust().part(NonTest),
                    check: Lines(Shape(panic_site), 0..=ceiling),
                    plant: (
                        format!("crates/{name}/src/lib.rs"),
                        "fn planted() { None::<u8>.unwrap(); }\n",
                    ),
                })
                .collect(),
        },
        Rule {
            name: "Unsafe stays at the kernel dispatch",
            why: "the one `unsafe` in shipped code is the call of `with_avx2`, the \
                  `#[target_feature]` trampoline both AVX2 DFT kernels enter through, in \
                  `dft.rs`'s `dispatch`, made after the CPU was seen to support it, under a \
                  `// SAFETY:` comment",
            rows: vec![
                row(
                    files(CRATE_SOURCES).rust().part(NonTest),
                    Lines(Shape(unsafe_item), 1..=1),
                    (DFT, UNSAFE),
                ),
                row(
                    files(CRATE_SOURCES).rust().except(&[DFT]).part(NonTest),
                    Lines(Shape(unsafe_item), 0..=0),
                    ("crates/core/src/lib.rs", UNSAFE),
                ),
                row(
                    files(CRATE_SOURCES).rust().part(NonTest),
                    Lines(Shape(unsafe_without_safety), 0..=0),
                    (DFT, "unsafe fn planted() {}\n"),
                ),
            ],
        },
        Rule {
            name: "One fold per history window",
            why: "a window still its whole history is folded only in a task-lane group \
                  (`dft::fold_group`): the per-window fold and its scratch must not come back \
                  beside it",
            rows: vec![row(
                files(&[DFT]).part(NonTest),
                Lines(Any(&["fold_window", "FOLD_SCRATCH"]), 0..=0),
                (DFT, "fn fold_window() {}\n"),
            )],
        },
        Rule {
            name: "Public surface only shrinks",
            why: "every crate is narrowed to what its callers name (another crate, a test, an \
                  example or the benchmark): a change that adds API raises the ceiling in the \
                  same diff, so the growth is reviewed",
            rows: vec![row(
                files(CRATE_SOURCES).rust(),
                Lines(Shape(pub_item), 0..=715),
                ("crates/core/src/lib.rs", "pub fn planted() {}\n"),
            )],
        },
        Rule {
            name: "The cut hides no shipped code",
            why: "every rule above reads shipped code as the lines above a file's first \
                  column-0 `#[cfg(test)]`: an item below it without a `#[cfg(test)]` of its \
                  own would ship unread",
            rows: vec![row(
                files(CRATE_SOURCES).rust().part(Test),
                Lines(Shape(untagged_item), 0..=0),
                (NODE, "#[cfg(test)]\nuse std::fmt;\n"),
            )],
        },
    ]
}

/// What one row read: the lines it counted and, if it fails, why.
struct Reading {
    hits: Vec<String>,
    failure: Option<String>,
}

fn read(rule: &Rule, row: &Row, tree: &Tree) -> Reading {
    let blame = |what: String, hits: &[String]| {
        let hits: String = hits.iter().map(|hit| format!("\n  {hit}")).collect();
        format!("{}: {what}\n  ({}){hits}", rule.name, rule.why)
    };
    let scope = &row.scope;
    let (pattern, allowed) = match &row.check {
        Check::Absent => {
            let hits: Vec<String> = scope.select(tree).map(|(path, _)| path.clone()).collect();
            let failure = (!hits.is_empty())
                .then(|| blame(format!("{} must not exist", scope.describe()), &hits));
            return Reading { hits, failure };
        }
        Check::Lines(pattern, allowed) => (pattern, allowed),
    };
    let mut missing: Vec<String> = scope
        .roots
        .iter()
        .filter(|root| !tree.keys().any(|path| under(path, root)))
        .map(|root| format!("nothing at `{root}`"))
        .collect();
    let mut hits = Vec::new();
    for (path, text) in scope.select(tree) {
        let lines: Vec<&str> = text.lines().collect();
        match scope.lines(&lines) {
            Ok(read) => hits.extend(
                read.into_iter()
                    .filter(|&i| pattern.matches(&lines, i))
                    .map(|i| format!("{path}:{}: {}", i + 1, lines[i].trim())),
            ),
            Err(anchor) => missing.push(format!("`{path}` has no line holding `{anchor}`")),
        }
    }
    let failure = if !missing.is_empty() {
        Some(blame(missing.join("; "), &[]))
    } else if !allowed.contains(&hits.len()) {
        let (n, start, end) = (hits.len(), allowed.start(), allowed.end());
        let what = format!("{n} lines in {}, allowed {start}..={end}", scope.describe());
        Some(blame(what, &hits))
    } else {
        None
    };
    Reading { hits, failure }
}

fn read_tree() -> Tree {
    fn walk(root: &Path, dir: &Path, tree: &mut Tree) {
        for entry in fs::read_dir(dir).expect("a readable source directory") {
            let path = entry.expect("a readable directory entry").path();
            let name = path.strip_prefix(root).expect("a path under the root");
            let names: Vec<_> = name.iter().map(|name| name.to_string_lossy()).collect();
            let name = names.join("/");
            if path.is_dir() {
                tree.insert(format!("{name}/"), String::new());
                walk(root, &path, tree);
            } else {
                let bytes = fs::read(&path).expect("a readable source file");
                tree.insert(name, String::from_utf8_lossy(&bytes).into_owned());
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut tree = Tree::new();
    for dir in ["crates", "src"] {
        walk(root, &root.join(dir), &mut tree);
    }
    tree
}

fn failures(tree: &Tree) -> Vec<String> {
    let rules = rules();
    let readings = rules
        .iter()
        .flat_map(|rule| rule.rows.iter().map(move |row| read(rule, row, tree)));
    readings.filter_map(|reading| reading.failure).collect()
}

#[test]
fn the_workspace_keeps_every_rule() {
    let tree = read_tree();
    let mut failures = Vec::new();
    for rule in rules() {
        for row in &rule.rows {
            let reading = read(&rule, row, &tree);
            let allowed = match &row.check {
                Check::Lines(_, allowed) => format!("{}..={}", allowed.start(), allowed.end()),
                Check::Absent => "none".into(),
            };
            println!(
                "{}: {} in {} (allowed {allowed})",
                rule.name,
                reading.hits.len(),
                row.scope.describe()
            );
            if matches!(&row.check, Check::Lines(_, allowed) if *allowed.start() > 0) {
                for hit in &reading.hits {
                    println!("  {hit}");
                }
            }
            failures.extend(reading.failure);
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn every_row_fails_on_its_planted_violation() {
    let mut tree = read_tree();
    let mut missed = Vec::new();
    for rule in rules() {
        for row in &rule.rows {
            let (path, text) = &row.plant;
            let kept = tree.get(path).cloned();
            let planted = format!("{text}{}", kept.as_deref().unwrap_or(""));
            tree.insert(path.clone(), planted);
            let failure = read(&rule, row, &tree).failure.unwrap_or_default();
            if !failure.contains(path.as_str()) {
                let scope = row.scope.describe();
                missed.push(format!(
                    "{} on {scope} missed {text:?} planted in {path}",
                    rule.name
                ));
            }
            match kept {
                Some(text) => tree.insert(path.clone(), text),
                None => tree.remove(path),
            };
        }
    }
    assert!(missed.is_empty(), "\n{}", missed.join("\n"));
}

#[test]
fn a_missing_file_or_anchor_fails_its_rule() {
    let tree = read_tree();
    let node = "crates/cluster/src/node.rs";

    let mut gone = tree.clone();
    gone.remove(node);
    let report = failures(&gone).join("\n");
    assert!(report.contains(&format!("nothing at `{node}`")), "{report}");
    assert!(report.contains("One entry per admitted task"), "{report}");

    let mut renamed = tree;
    let text = renamed[node].replace("fn extract_task(", "fn take_task(");
    renamed.insert(node.into(), text);
    let report = failures(&renamed).join("\n");
    assert!(
        report.contains("has no line holding `fn extract_task(`"),
        "{report}"
    );
    assert!(report.contains("One lookup per managed task"), "{report}");
}
