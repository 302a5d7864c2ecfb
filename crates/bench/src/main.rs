//! The one way in: `experiment <name|paper|fleet|all|list>… [flags]`.
//!
//! Selectors come first, the flags of [`selftune_bench::Args`] after them.
//! `paper` is the paper's own evaluation (seconds with `--fast`), `fleet`
//! everything built on top, `all` both — `fleet` and `all` include the
//! 1M-task point, whose full-length row is unmeasured (on 2 vCPUs / 16 GB
//! its release e2e test peaks at 6.7 GiB resident, `--smoke` at 3.9 GiB).

use selftune_bench::experiments::{select, REGISTRY};
use selftune_bench::Args;

fn main() {
    let mut argv = std::env::args().skip(1).peekable();
    let mut selected = Vec::new();
    while let Some(word) = argv.next_if(|a| !a.starts_with("--")) {
        if word == "list" {
            for e in REGISTRY {
                println!("{:<24} {}", e.name, e.group.name());
            }
            return;
        }
        selected.extend(select(&word).unwrap_or_else(|| {
            panic!("no experiment or group named {word:?} (try `experiment list`)")
        }));
    }
    assert!(
        !selected.is_empty(),
        "usage: experiment <name|paper|fleet|all|list>… [flags]"
    );
    let args = Args::parse_from(argv);
    for experiment in &selected {
        for table in (experiment.run)(&args) {
            table.emit(&args);
        }
    }
    if selected.len() > 1 {
        println!(
            "\n{} experiments done. CSVs in {}",
            selected.len(),
            args.out.display()
        );
    }
}
